use ptolemy_tensor::Tensor;

use crate::batch::check_finite;
use crate::layer::activation::relu_mask;
use crate::layer::{check_len, check_param_grads, grad_batch, missing, Saved};
use crate::{Layer, LayerKind, NnError, Result, Sources};

/// Residual block: `y = relu(body(x) + x)` where `body` is a short stack of inner
/// layers whose output shape equals the input shape.
///
/// The block is treated as a **single extraction unit** by the Ptolemy framework:
/// paths index neurons per network layer, and a residual block is one network layer.
/// The partial sums of an output neuron are those of the last inner layer
/// (computed on the body's intermediate activation) followed by the identity
/// shortcut contribution `x[out_idx]` (paper Sec. III-A generalises
/// naturally: the shortcut is a partial sum with weight 1).
///
/// That intermediate activation — the input of the last body layer — is the
/// block's *interior* ([`Layer::forward_batch_interior`]): the forward pass produces
/// it anyway, so a caller that keeps it decomposes any number of output neurons
/// without re-running the body, and one that does not pays for the body's head
/// once per [`Layer::partial_sums`] call.
pub struct Residual {
    body: Vec<Box<dyn Layer>>,
    shape: Vec<usize>,
    post_relu: bool,
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Residual")
            .field("shape", &self.shape)
            .field("body_layers", &self.body.len())
            .field("post_relu", &self.post_relu)
            .finish()
    }
}

impl Residual {
    /// Wraps `body` into a residual block.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the body is empty, if consecutive inner
    /// layers disagree on shapes, or if the body output shape differs from its input
    /// shape (the shortcut requires matching shapes).
    pub fn new(body: Vec<Box<dyn Layer>>, post_relu: bool) -> Result<Self> {
        if body.is_empty() {
            return Err(NnError::InvalidConfig(
                "residual body must not be empty".into(),
            ));
        }
        let shape = body[0].input_shape();
        let mut cur = shape.clone();
        for (i, layer) in body.iter().enumerate() {
            if layer.input_shape() != cur {
                return Err(NnError::InvalidConfig(format!(
                    "residual body layer {i} expects {:?} but receives {:?}",
                    layer.input_shape(),
                    cur
                )));
            }
            cur = layer.output_shape();
        }
        if cur != shape {
            return Err(NnError::InvalidConfig(format!(
                "residual body maps {shape:?} to {cur:?}; shortcut requires equal shapes"
            )));
        }
        Ok(Residual {
            body,
            shape,
            post_relu,
        })
    }

    /// The body split into the layers before the last one and the last one.
    fn split_body(&self) -> (&[Box<dyn Layer>], &dyn Layer) {
        #[expect(
            clippy::expect_used,
            reason = "an empty body is rejected at construction"
        )]
        let (last, head) = self.body.split_last().expect("non-empty");
        (head, last.as_ref())
    }

    /// Runs every body layer but the last through `step`, returning the
    /// activation entering the last one — `None` when the body is a single
    /// layer, whose input is the block input itself.
    fn run_head(
        &self,
        input: &Tensor,
        step: impl Fn(&dyn Layer, &Tensor) -> Result<Tensor>,
    ) -> Result<Option<Tensor>> {
        let mut cur = None;
        for layer in self.split_body().0 {
            cur = Some(step(layer.as_ref(), cur.as_ref().unwrap_or(input))?);
        }
        Ok(cur)
    }

    fn check(&self, input: &Tensor) -> Result<()> {
        if input.dims() != self.shape.as_slice() {
            return Err(NnError::InvalidConfig(format!(
                "residual expects shape {:?}, got {:?}",
                self.shape,
                input.dims()
            )));
        }
        Ok(())
    }
}

impl Layer for Residual {
    fn name(&self) -> &'static str {
        "residual"
    }

    fn output_shape(&self) -> Vec<usize> {
        self.shape.clone()
    }

    fn input_shape(&self) -> Vec<usize> {
        self.shape.clone()
    }

    fn forward_batch(&self, batch: &Tensor) -> Result<Tensor> {
        Ok(self.forward_batch_interior(batch)?.0)
    }

    /// `relu?(body(x) + x)`: the body's fused kernels chained, then the
    /// element-wise shortcut add and post-ReLU, plus the interior.
    ///
    /// The body is the one other place layers run in sequence, so it obeys
    /// [`crate::Network`]'s non-finite rule itself: every body layer's output
    /// but the last, and the shortcut sum (which carries the last one's), are
    /// checked before a ReLU could turn a NaN or a `-∞` into `0`, and a non-finite one is [`NnError::NonFinite`] at the
    /// block's output (boundary `1` of the block alone; the network driver
    /// renumbers it to the block's own output boundary).
    fn forward_batch_interior(&self, batch: &Tensor) -> Result<(Tensor, Option<Tensor>)> {
        crate::batch::check_batch(batch, &self.shape, self.name())?;
        let finite = |t: Tensor| check_finite(t.as_slice(), 1).map(|()| t);
        let interior = self.run_head(batch, |layer, x| finite(layer.forward_batch(x)?))?;
        let body_out = self
            .split_body()
            .1
            .forward_batch(interior.as_ref().unwrap_or(batch))?;
        let mut out = finite(body_out.add(batch)?)?;
        if self.post_relu {
            out.map_inplace(|v| v.max(0.0));
        }
        Ok((out, interior))
    }

    /// Backpropagates through the post-ReLU, the body and the shortcut from
    /// what the forward pass recorded, re-running nothing: the block output
    /// masks the post-ReLU (`pre > 0` exactly where `relu(pre) > 0`), the
    /// block input is the first body layer's input, and the interior is the
    /// last body layer's input — for the zoo's `conv → relu → conv` body
    /// also the ReLU's output, which is all its mask needs.  A body layer
    /// that needs an unrecorded boundary fails with a typed error.
    fn backward_batch(
        &self,
        saved: Saved<'_>,
        grad_output: &Tensor,
        param_grads: Option<&mut [Tensor]>,
        want_input: bool,
    ) -> Result<Option<Tensor>> {
        let len = self.output_len();
        let batch = grad_batch(grad_output, len, self.name())?;
        let dims = [&[batch][..], &self.shape].concat();
        let grad_pre = if self.post_relu {
            let output = saved.output.ok_or_else(|| missing(self.name(), "output"))?;
            check_len(output, batch, len, self.name())?;
            Tensor::from_vec(relu_mask(output, grad_output), &dims)?
        } else {
            grad_output.reshape(&dims)?
        };
        if let Some(grads) = &param_grads {
            check_param_grads(grads, &self.params(), self.name())?;
        }
        let last = self.body.len() - 1;
        let interior = match (last, saved.interior) {
            (0, _) => None,
            (_, Some(interior)) => Some(interior),
            (_, None) => return Err(missing(self.name(), "interior")),
        };
        // Body boundary `i` is body layer `i`'s input; only the block input
        // and the interior were recorded.
        let boundary = |i: usize| match i {
            0 => saved.input,
            i if i == last => interior,
            _ => None,
        };
        let mut remaining = param_grads;
        let mut grad: Option<Tensor> = None;
        for (i, layer) in self.body.iter().enumerate().rev() {
            let mine = remaining.take().map(|all| {
                let (rest, mine) = all.split_at_mut(all.len() - layer.params().len());
                remaining = Some(rest);
                mine
            });
            let layer_saved = Saved {
                input: boundary(i),
                interior: None,
                output: if i < last { boundary(i + 1) } else { None },
            };
            let upstream = grad.as_ref().unwrap_or(&grad_pre);
            grad = layer.backward_batch(layer_saved, upstream, mine, i > 0 || want_input)?;
        }
        // The shortcut adds the pre-activation gradient to the body's.
        match grad {
            Some(body) if want_input => Ok(Some(body.into_reshaped(&dims)?.add(&grad_pre)?)),
            _ => Ok(None),
        }
    }

    fn params(&self) -> Vec<&Tensor> {
        self.body.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.body.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    fn partial_sums(
        &self,
        input: &Tensor,
        interior: Option<&Tensor>,
        out_idxs: &[usize],
        values: &mut Vec<f32>,
        visit: &mut dyn FnMut(usize, &mut Vec<f32>, Sources<'_>),
    ) -> Result<()> {
        self.check(input)?;
        let x = input.as_slice();
        if let Some(out_idx) = out_idxs.iter().find(|&&i| i >= x.len()) {
            return Err(NnError::InvalidConfig(format!(
                "residual output index {out_idx} out of range"
            )));
        }
        let (head, last) = self.split_body();
        // The last body layer's input: the block input for a one-layer body,
        // else the interior the forward pass handed out — recomputed here,
        // once for all of `out_idxs`, only when the caller did not keep it.
        let recomputed;
        let last_input = if head.is_empty() {
            input
        } else if let Some(kept) = interior {
            kept
        } else {
            recomputed = self.run_head(input, |layer, x| layer.forward(x))?;
            recomputed.as_ref().unwrap_or(input)
        };
        last.partial_sums(
            last_input,
            None,
            out_idxs,
            values,
            &mut |out_idx, values, sources| {
                // Identity shortcut: the block input contributes its own value
                // at the same position, after the body's terms.
                values.push(x[out_idx]);
                visit(out_idx, values, sources.with_shortcut(out_idx));
            },
        )
    }

    fn interior_len(&self) -> usize {
        let (head, last) = self.split_body();
        if head.is_empty() {
            0
        } else {
            last.input_len()
        }
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Residual {
            inner: self.body.iter().map(|l| l.kind()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{backward, decompose};
    use crate::layer::{Conv2d, ReLU};
    use ptolemy_tensor::{Initializer, Rng64};

    /// Every body boundary of `x` (`acts[i]` enters body layer `i`), by
    /// running the body layers one at a time.
    fn body_boundaries(res: &Residual, x: &Tensor) -> Vec<Tensor> {
        let mut acts = vec![x.clone()];
        for layer in &res.body {
            let next = layer.forward(acts.last().unwrap()).unwrap();
            acts.push(next);
        }
        acts
    }

    fn block(rng: &mut Rng64, post_relu: bool) -> Residual {
        let conv1 = Conv2d::new(2, 2, 4, 4, 3, 1, 1, rng).unwrap();
        let relu = ReLU::new(&[2, 4, 4]);
        let conv2 = Conv2d::new(2, 2, 4, 4, 3, 1, 1, rng).unwrap();
        Residual::new(
            vec![Box::new(conv1), Box::new(relu), Box::new(conv2)],
            post_relu,
        )
        .unwrap()
    }

    #[test]
    fn forward_adds_shortcut() {
        let mut rng = Rng64::new(0);
        let res = block(&mut rng, false);
        let x = Initializer::Uniform(1.0)
            .build(&[2, 4, 4], &mut rng)
            .unwrap();
        let y = res.forward(&x).unwrap();
        assert_eq!(y.dims(), x.dims());
        // With a zero body the output would equal the input; with a random body it
        // should at least differ from the pure body output by exactly x.
        let body_only = body_boundaries(&res, &x).pop().unwrap();
        let diff = y.sub(&body_only).unwrap();
        for (d, xi) in diff.as_slice().iter().zip(x.as_slice()) {
            assert!((d - xi).abs() < 1e-5);
        }
    }

    #[test]
    fn contributions_sum_close_to_preactivation() {
        let mut rng = Rng64::new(1);
        let res = block(&mut rng, false);
        let x = Initializer::Uniform(1.0)
            .build(&[2, 4, 4], &mut rng)
            .unwrap();
        let y = res.forward(&x).unwrap();
        let idx = 5;
        let pairs = decompose(&res, &x, idx).unwrap();
        let sum: f32 = pairs.iter().map(|(_, p)| p).sum();
        // Sum of partial sums = output - last conv bias; biases are zero here.
        assert!((sum - y.as_slice()[idx]).abs() < 1e-3);
    }

    #[test]
    fn interior_is_the_last_body_layers_input() {
        let mut rng = Rng64::new(5);
        let res = block(&mut rng, true);
        let x = Initializer::Uniform(1.0)
            .build(&[2, 4, 4], &mut rng)
            .unwrap();
        let one = x.reshape(&[1, 2, 4, 4]).unwrap();
        let (y, interior) = res.forward_batch_interior(&one).unwrap();
        let acts = body_boundaries(&res, &x);
        assert_eq!(interior.unwrap().as_slice(), acts[2].as_slice());
        assert_eq!(res.interior_len(), acts[2].len());
        assert_eq!(y.as_slice(), res.forward(&x).unwrap().as_slice());

        // A one-layer body has no interior: its last layer reads the block
        // input, and the decomposition is that layer's plus the shortcut.
        let conv = Conv2d::new(2, 2, 4, 4, 3, 1, 1, &mut rng).unwrap();
        let single = Residual::new(vec![Box::new(conv.clone())], false).unwrap();
        assert!(single.forward_batch_interior(&one).unwrap().1.is_none());
        assert_eq!(single.interior_len(), 0);
        let mut expected = decompose(&conv, &x, 9).unwrap();
        expected.push((9, x.as_slice()[9]));
        assert_eq!(decompose(&single, &x, 9).unwrap(), expected);
    }

    #[test]
    fn backward_matches_numeric_gradient() {
        let mut rng = Rng64::new(2);
        let res = block(&mut rng, true);
        let x = Initializer::Uniform(1.0)
            .build(&[2, 4, 4], &mut rng)
            .unwrap();
        let gy = Tensor::ones(&[2, 4, 4]);
        let (input_grad, param_grads) = backward(&res, &x, &gy).unwrap();
        assert_eq!(param_grads.len(), 4);
        let eps = 1e-3;
        for i in [0usize, 7, 13, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num =
                (res.forward(&xp).unwrap().sum() - res.forward(&xm).unwrap().sum()) / (2.0 * eps);
            let ana = input_grad.as_slice()[i];
            assert!((num - ana).abs() < 2e-2, "grad {i}: {num} vs {ana}");
        }
    }

    /// The backward pass reads the interior its forward recorded; without it
    /// (or without the output the post-ReLU masks with) it fails with a typed
    /// error instead of re-running the body.
    #[test]
    fn backward_needs_the_recorded_interior_and_output() {
        let mut rng = Rng64::new(6);
        let res = block(&mut rng, true);
        let x = Initializer::Uniform(1.0)
            .build(&[1, 2, 4, 4], &mut rng)
            .unwrap();
        let (y, interior) = res.forward_batch_interior(&x).unwrap();
        let gy = Tensor::ones(&[1, 2, 4, 4]);
        let full = Saved {
            input: Some(&x),
            interior: interior.as_ref(),
            output: Some(&y),
        };
        assert!(res.backward_batch(full, &gy, None, true).is_ok());
        let no_interior = Saved {
            interior: None,
            ..full
        };
        assert!(matches!(
            res.backward_batch(no_interior, &gy, None, true),
            Err(NnError::InvalidConfig(_))
        ));
        let no_output = Saved {
            output: None,
            ..full
        };
        assert!(res.backward_batch(no_output, &gy, None, true).is_err());
    }

    #[test]
    fn rejects_shape_mismatched_body() {
        let mut rng = Rng64::new(3);
        // Body changes the channel count -> shortcut impossible.
        let conv = Conv2d::new(2, 3, 4, 4, 3, 1, 1, &mut rng).unwrap();
        assert!(Residual::new(vec![Box::new(conv)], false).is_err());
        assert!(Residual::new(vec![], false).is_err());
    }

    #[test]
    fn params_are_collected_from_body() {
        let mut rng = Rng64::new(4);
        let mut res = block(&mut rng, false);
        assert_eq!(res.params().len(), 4); // two convs × (weight, bias)
        assert_eq!(res.params_mut().len(), 4);
        match res.kind() {
            LayerKind::Residual { inner } => assert_eq!(inner.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }
}
