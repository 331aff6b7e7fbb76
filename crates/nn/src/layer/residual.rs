use ptolemy_tensor::Tensor;

use crate::{Decompositions, Layer, LayerGrads, LayerKind, NnError, Result};

/// Residual block: `y = relu(body(x) + x)` where `body` is a short stack of inner
/// layers whose output shape equals the input shape.
///
/// The block is treated as a **single extraction unit** by the Ptolemy framework:
/// paths index neurons per network layer, and a residual block is one network layer.
/// The partial-sum decomposition of an output neuron combines the contributions of
/// the last inner layer (computed on the body's intermediate activation) with the
/// identity shortcut contribution `x[out_idx]` (paper Sec. III-A generalises
/// naturally: the shortcut is a partial sum with weight 1).
///
/// That intermediate activation — the input of the last body layer — is the
/// block's *interior* ([`Layer::forward_batch_interior`]): the forward pass produces
/// it anyway, so a caller that keeps it decomposes any number of output neurons
/// without re-running the body, and one that does not pays for the body's head
/// once per [`Layer::contributions_many`] call.
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

    /// Runs the body, returning every intermediate activation (`acts[0]` is the
    /// block input, `acts[i+1]` the output of inner layer `i`).
    fn body_trace(&self, input: &Tensor) -> Result<Vec<Tensor>> {
        let mut acts = vec![input.clone()];
        for layer in &self.body {
            // lint:allow(panic-in-worker): acts is seeded with the block input
            let next = layer.forward(acts.last().expect("non-empty"))?;
            acts.push(next);
        }
        Ok(acts)
    }

    /// The body split into the layers before the last one and the last one.
    fn split_body(&self) -> (&[Box<dyn Layer>], &dyn Layer) {
        // lint:allow(panic-in-worker): an empty body is rejected at construction
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
    fn forward_batch_interior(&self, batch: &Tensor) -> Result<(Tensor, Option<Tensor>)> {
        crate::batch::check_batch(batch, &self.shape, self.name())?;
        let interior = self.run_head(batch, |layer, x| layer.forward_batch(x))?;
        let body_out = self
            .split_body()
            .1
            .forward_batch(interior.as_ref().unwrap_or(batch))?;
        let mut out = body_out.add(batch)?;
        if self.post_relu {
            out.map_inplace(|v| v.max(0.0));
        }
        Ok((out, interior))
    }

    fn backward(&self, input: &Tensor, grad_output: &Tensor) -> Result<LayerGrads> {
        self.check(input)?;
        let acts = self.body_trace(input)?;
        // lint:allow(panic-in-worker): body_trace always yields the seed input
        let pre_act = acts.last().expect("non-empty").add(input)?;

        // Gradient through the optional post-ReLU.
        let grad_pre = if self.post_relu {
            Tensor::from_vec(
                pre_act
                    .as_slice()
                    .iter()
                    .zip(grad_output.as_slice())
                    .map(|(v, g)| if *v > 0.0 { *g } else { 0.0 })
                    .collect(),
                grad_output.dims(),
            )?
        } else {
            grad_output.clone()
        };

        // Backprop through the body.
        let mut param_grads = Vec::new();
        let mut grad = grad_pre.clone();
        let mut per_layer: Vec<Vec<Tensor>> = Vec::with_capacity(self.body.len());
        for (i, layer) in self.body.iter().enumerate().rev() {
            let grads = layer.backward(&acts[i], &grad)?;
            grad = grads.input_grad;
            per_layer.push(grads.param_grads);
        }
        per_layer.reverse();
        for mut grads in per_layer {
            param_grads.append(&mut grads);
        }

        // Shortcut adds the pre-activation gradient directly to the input gradient.
        let input_grad = grad.add(&grad_pre)?;
        Ok(LayerGrads {
            input_grad,
            param_grads,
        })
    }

    fn params(&self) -> Vec<&Tensor> {
        self.body.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.body.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    fn contributions_many(
        &self,
        input: &Tensor,
        interior: Option<&Tensor>,
        out_idxs: &[usize],
        out: &mut Decompositions,
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
        for &out_idx in out_idxs {
            last.contributions_many(last_input, None, std::slice::from_ref(&out_idx), out)?;
            // Identity shortcut: the block input contributes its own value
            // at the same position.
            out.extend_last((out_idx, x[out_idx]));
        }
        Ok(())
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
    use crate::layer::tests::decompose;
    use crate::layer::{Conv2d, ReLU};
    use ptolemy_tensor::{Initializer, Rng64};

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
        let body_only = {
            let acts = res.body_trace(&x).unwrap();
            acts.last().unwrap().clone()
        };
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
        let acts = res.body_trace(&x).unwrap();
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
        let grads = res.backward(&x, &gy).unwrap();
        let eps = 1e-3;
        for i in [0usize, 7, 13, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num =
                (res.forward(&xp).unwrap().sum() - res.forward(&xm).unwrap().sum()) / (2.0 * eps);
            let ana = grads.input_grad.as_slice()[i];
            assert!((num - ana).abs() < 2e-2, "grad {i}: {num} vs {ana}");
        }
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
