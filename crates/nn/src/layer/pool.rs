use ptolemy_tensor::{par_row_chunks, Tensor};

use crate::batch::check_batch;
use crate::layer::{check_len, grad_batch, Saved};
use crate::{Decompositions, Layer, LayerKind, NnError, Result};

/// Shared geometry for the pooling layers.
#[derive(Debug, Clone, Copy)]
struct PoolGeom {
    channels: usize,
    in_h: usize,
    in_w: usize,
    window: usize,
    stride: usize,
    out_h: usize,
    out_w: usize,
}

impl PoolGeom {
    fn new(
        channels: usize,
        in_h: usize,
        in_w: usize,
        window: usize,
        stride: usize,
    ) -> Result<Self> {
        if window == 0 || stride == 0 {
            return Err(NnError::InvalidConfig(
                "pooling window and stride must be non-zero".into(),
            ));
        }
        if in_h < window || in_w < window {
            return Err(NnError::InvalidConfig(format!(
                "pooling window {window} larger than input {in_h}x{in_w}"
            )));
        }
        Ok(PoolGeom {
            channels,
            in_h,
            in_w,
            window,
            stride,
            out_h: (in_h - window) / stride + 1,
            out_w: (in_w - window) / stride + 1,
        })
    }

    fn check(&self, input: &Tensor) -> Result<()> {
        if input.dims() != [self.channels, self.in_h, self.in_w] {
            return Err(NnError::InvalidConfig(format!(
                "pool expects shape [{}, {}, {}], got {:?}",
                self.channels,
                self.in_h,
                self.in_w,
                input.dims()
            )));
        }
        Ok(())
    }

    fn out_shape(&self) -> Vec<usize> {
        vec![self.channels, self.out_h, self.out_w]
    }

    fn in_shape(&self) -> Vec<usize> {
        vec![self.channels, self.in_h, self.in_w]
    }

    /// Flat input index of the top-left element of window `(c, oy, ox)`.
    fn corner(&self, c: usize, oy: usize, ox: usize) -> usize {
        (c * self.in_h + oy * self.stride) * self.in_w + ox * self.stride
    }

    /// Flat input indices covered by output position `(c, oy, ox)`, `wy` outer
    /// and `wx` inner — the order every window reduction in this file visits.
    fn window(&self, c: usize, oy: usize, ox: usize) -> impl Iterator<Item = usize> {
        let (in_w, window, corner) = (self.in_w, self.window, self.corner(c, oy, ox));
        (0..window).flat_map(move |wy| (0..window).map(move |wx| corner + wy * in_w + wx))
    }

    /// Input index of the maximum of window `(c, oy, ox)`: the **last** of
    /// equal maxima in [`PoolGeom::window`] order (`Iterator::max_by`).
    ///
    /// `x` is finite by the crate's boundary rule — the driver rejects a NaN
    /// before any pool sees it — so the comparison is a total order and the
    /// forward, the backward and the BwCu walk route every window alike.  (On
    /// a NaN, which compares equal to everything here, "the last of equal
    /// maxima" would stop being transitive.)
    fn argmax(&self, x: &[f32], c: usize, oy: usize, ox: usize) -> usize {
        self.window(c, oy, ox)
            .max_by(|a, b| {
                x[*a]
                    .partial_cmp(&x[*b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            // Windows are never empty (`window >= 1` is checked at construction).
            .unwrap_or_else(|| self.corner(c, oy, ox))
    }

    /// The one backward kernel of both pooling layers, over a stacked output
    /// gradient: for each sample and each output position `(c, oy, ox)` in
    /// order, `route(x, c, oy, ox, g, gx)` adds the position's gradient `g`
    /// into the sample's zeroed input gradient `gx`, reading the sample's
    /// recorded input `x` (empty when the layer reads none).
    fn backward_with(
        &self,
        layer: &str,
        grad_output: &Tensor,
        input: Option<&Tensor>,
        want_input: bool,
        route: impl Fn(&[f32], usize, usize, usize, f32, &mut [f32]),
    ) -> Result<Option<Tensor>> {
        let in_len = self.channels * self.in_h * self.in_w;
        let out_len = self.channels * self.out_h * self.out_w;
        let batch = grad_batch(grad_output, out_len, layer)?;
        if !want_input {
            return Ok(None);
        }
        if let Some(input) = input {
            check_len(input, batch, in_len, layer)?;
        }
        let xs = input.map_or(&[][..], Tensor::as_slice);
        let mut gx = vec![0.0f32; batch * in_len];
        for (b, (gy, gx)) in grad_output
            .as_slice()
            .chunks_exact(out_len)
            .zip(gx.chunks_exact_mut(in_len))
            .enumerate()
        {
            let x = xs.get(b * in_len..(b + 1) * in_len).unwrap_or(&[]);
            let mut out_idx = 0usize;
            for c in 0..self.channels {
                for oy in 0..self.out_h {
                    for ox in 0..self.out_w {
                        route(x, c, oy, ox, gy[out_idx], gx);
                        out_idx += 1;
                    }
                }
            }
        }
        let dims = [&[batch][..], &self.in_shape()].concat();
        Ok(Some(Tensor::from_vec(gx, &dims)?))
    }

    /// The one forward kernel of both pooling layers, over a `[B, C, H, W]`
    /// batch for the layer named `layer`.  Every output window is reduced by
    /// `fold` over its elements in [`PoolGeom::window`] order with no
    /// per-window allocation; sample slabs are independent and are
    /// partitioned over threads at the work gate, so sample `b` of a batch is
    /// bit-for-bit its batch of one.
    fn forward_with(
        &self,
        batch: &Tensor,
        layer: &str,
        init: f32,
        fold: impl Fn(f32, f32) -> f32 + Sync,
        finish: impl Fn(f32) -> f32 + Sync,
    ) -> Result<Tensor> {
        let batch_size = check_batch(batch, &[self.channels, self.in_h, self.in_w], layer)?;
        let xs = batch.as_slice();
        let in_len = self.channels * self.in_h * self.in_w;
        let out_len = self.channels * self.out_h * self.out_w;
        let mut out = vec![0.0f32; batch_size * out_len];
        // One fold per window element: the pool's MAC-equivalent.
        let work = batch_size * out_len * self.window * self.window;
        par_row_chunks(&mut out, batch_size, out_len, work, |first, chunk| {
            for (s, sample_out) in chunk.chunks_mut(out_len).enumerate() {
                let x = &xs[(first + s) * in_len..(first + s + 1) * in_len];
                for (plane, out_row) in sample_out.chunks_mut(self.out_w).enumerate() {
                    let (c, oy) = (plane / self.out_h, plane % self.out_h);
                    // A whole output row per window element: each output
                    // still folds its window `wy` outer, `wx` inner, but the
                    // inner loop runs along the row instead of over a window
                    // of two or three elements.
                    out_row.fill(init);
                    for wy in 0..self.window {
                        let in_row =
                            &x[(c * self.in_h + oy * self.stride + wy) * self.in_w..][..self.in_w];
                        // Every pool the zoo builds is 2x2 at stride 2: with
                        // the trip counts constant the row pass unrolls and
                        // runs ~2.5x faster (0.94 vs 2.4 us on 8x16x16) than
                        // with the same values in registers.  The folds and
                        // their order are the same either way.
                        match (self.window, self.stride) {
                            (2, 2) => fold_row(out_row, in_row, 2, 2, &fold),
                            (window, stride) => fold_row(out_row, in_row, window, stride, &fold),
                        }
                    }
                    for acc in out_row {
                        *acc = finish(*acc);
                    }
                }
            }
        });
        Ok(Tensor::from_vec(
            out,
            &[batch_size, self.channels, self.out_h, self.out_w],
        )?)
    }

    fn decompose(&self, out_idx: usize) -> Result<(usize, usize, usize)> {
        let per_channel = self.out_h * self.out_w;
        if out_idx >= self.channels * per_channel {
            return Err(NnError::InvalidConfig(format!(
                "pool output index {out_idx} out of range"
            )));
        }
        let c = out_idx / per_channel;
        let rem = out_idx % per_channel;
        Ok((c, rem / self.out_w, rem % self.out_w))
    }
}

/// Folds one input row into one output row: output `ox` takes in elements
/// `ox * stride .. + window` of `in_row`, left to right.
#[inline(always)]
fn fold_row(
    out_row: &mut [f32],
    in_row: &[f32],
    window: usize,
    stride: usize,
    fold: &impl Fn(f32, f32) -> f32,
) {
    // Non-overlapping windows are the row's exact chunks — the form the
    // compiler unrolls; `windows().step_by()` visits the same elements.
    if stride == window {
        for (acc, win) in out_row.iter_mut().zip(in_row.chunks_exact(window)) {
            for v in win {
                *acc = fold(*acc, *v);
            }
        }
    } else {
        for (acc, win) in out_row
            .iter_mut()
            .zip(in_row.windows(window).step_by(stride))
        {
            for v in win {
                *acc = fold(*acc, *v);
            }
        }
    }
}

/// Max pooling over square windows.
///
/// For path extraction a max-pool output neuron passes its importance to the single
/// input element that won the max — exactly how the gradient is routed.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    geom: PoolGeom,
}

impl MaxPool2d {
    /// Creates a max-pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for a zero window/stride or a window
    /// larger than the input.
    pub fn new(
        channels: usize,
        in_h: usize,
        in_w: usize,
        window: usize,
        stride: usize,
    ) -> Result<Self> {
        Ok(MaxPool2d {
            geom: PoolGeom::new(channels, in_h, in_w, window, stride)?,
        })
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn output_shape(&self) -> Vec<usize> {
        self.geom.out_shape()
    }

    fn input_shape(&self) -> Vec<usize> {
        self.geom.in_shape()
    }

    fn forward_batch(&self, batch: &Tensor) -> Result<Tensor> {
        self.geom
            .forward_with(batch, self.name(), f32::NEG_INFINITY, f32::max, |acc| acc)
    }

    /// Routes each window's gradient to its recorded arg-max.
    fn backward_batch(
        &self,
        saved: Saved<'_>,
        grad_output: &Tensor,
        _param_grads: Option<&mut [Tensor]>,
        want_input: bool,
    ) -> Result<Option<Tensor>> {
        let input = if want_input {
            Some(saved.need_input(self.name())?)
        } else {
            None
        };
        self.geom.backward_with(
            self.name(),
            grad_output,
            input,
            want_input,
            |x, c, oy, ox, g, gx| {
                gx[self.geom.argmax(x, c, oy, ox)] += g;
            },
        )
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn contributions_many(
        &self,
        input: &Tensor,
        out_idxs: &[usize],
        out: &mut Decompositions,
    ) -> Result<()> {
        self.geom.check(input)?;
        let x = input.as_slice();
        for &out_idx in out_idxs {
            let (c, oy, ox) = self.geom.decompose(out_idx)?;
            let at = self.geom.argmax(x, c, oy, ox);
            out.push([(at, x[at])]);
        }
        Ok(())
    }

    fn kind(&self) -> LayerKind {
        LayerKind::MaxPool
    }
}

/// Average pooling over square windows.
///
/// Each output neuron is a uniform weighted sum of its window, so its contributions
/// are genuine partial sums (`x / window²`).
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    geom: PoolGeom,
}

impl AvgPool2d {
    /// Creates an average-pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for a zero window/stride or a window
    /// larger than the input.
    pub fn new(
        channels: usize,
        in_h: usize,
        in_w: usize,
        window: usize,
        stride: usize,
    ) -> Result<Self> {
        Ok(AvgPool2d {
            geom: PoolGeom::new(channels, in_h, in_w, window, stride)?,
        })
    }

    /// The window size every sum is divided by.
    fn norm(&self) -> f32 {
        (self.geom.window * self.geom.window) as f32
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &'static str {
        "avgpool2d"
    }

    fn output_shape(&self) -> Vec<usize> {
        self.geom.out_shape()
    }

    fn input_shape(&self) -> Vec<usize> {
        self.geom.in_shape()
    }

    fn forward_batch(&self, batch: &Tensor) -> Result<Tensor> {
        let norm = self.norm();
        self.geom.forward_with(
            batch,
            self.name(),
            0.0,
            |acc, v| acc + v,
            move |acc| acc / norm,
        )
    }

    /// Spreads each window's gradient evenly over the window.
    fn backward_batch(
        &self,
        _saved: Saved<'_>,
        grad_output: &Tensor,
        _param_grads: Option<&mut [Tensor]>,
        want_input: bool,
    ) -> Result<Option<Tensor>> {
        let norm = self.norm();
        self.geom.backward_with(
            self.name(),
            grad_output,
            None,
            want_input,
            |_, c, oy, ox, g, gx| {
                for i in self.geom.window(c, oy, ox) {
                    gx[i] += g / norm;
                }
            },
        )
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn contributions_many(
        &self,
        input: &Tensor,
        out_idxs: &[usize],
        out: &mut Decompositions,
    ) -> Result<()> {
        self.geom.check(input)?;
        let x = input.as_slice();
        let norm = self.norm();
        for &out_idx in out_idxs {
            let (c, oy, ox) = self.geom.decompose(out_idx)?;
            out.push(self.geom.window(c, oy, ox).map(|i| (i, x[i] / norm)));
        }
        Ok(())
    }

    fn static_routing(&self, out_idxs: &[usize], out: &mut Decompositions) -> Result<bool> {
        // The window membership is fixed by geometry; only the partial-sum
        // *values* depend on the input, and index routing discards them.
        for &out_idx in out_idxs {
            let (c, oy, ox) = self.geom.decompose(out_idx)?;
            out.push(self.geom.window(c, oy, ox).map(|i| (i, 0.0)));
        }
        Ok(true)
    }

    fn kind(&self) -> LayerKind {
        LayerKind::AvgPool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{backward, decompose};

    fn image() -> Tensor {
        Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
            &[1, 4, 4],
        )
        .unwrap()
    }

    #[test]
    fn maxpool_forward() {
        let pool = MaxPool2d::new(1, 4, 4, 2, 2).unwrap();
        let y = pool.forward(&image()).unwrap();
        assert_eq!(y.dims(), &[1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let pool = MaxPool2d::new(1, 4, 4, 2, 2).unwrap();
        let gy = Tensor::ones(&[1, 2, 2]);
        let g = backward(&pool, &image(), &gy).unwrap();
        // Only the four max positions receive gradient.
        assert_eq!(g.0.sum(), 4.0);
        assert_eq!(g.0.get(&[0, 1, 1]).unwrap(), 1.0);
        assert_eq!(g.0.get(&[0, 0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn maxpool_contributions_point_at_max() {
        let pool = MaxPool2d::new(1, 4, 4, 2, 2).unwrap();
        assert_eq!(decompose(&pool, &image(), 0).unwrap(), vec![(5, 6.0)]);
        assert!(decompose(&pool, &image(), 4).is_err());
    }

    /// The arg-max walk keeps the **last** of equal maxima (`Iterator::max_by`
    /// semantics, window order `wy` outer / `wx` inner) — post-ReLU windows are
    /// full of `0.0` ties, so the gradient route and the extracted path both
    /// hang on this rule.  A NaN compares `Equal` to everything, i.e. ties.
    #[test]
    fn maxpool_routes_ties_to_the_last_maximum_of_the_window() {
        let pool = MaxPool2d::new(1, 4, 4, 2, 2).unwrap();
        let route = |x: &Tensor, out_idx: usize| -> Vec<usize> {
            let pairs = decompose(&pool, x, out_idx).unwrap();
            pairs.iter().map(|p| p.0).collect()
        };
        // All-zero windows (with a -0.0, equal under partial_cmp): bottom-right wins.
        let mut zeros = Tensor::zeros(&[1, 4, 4]);
        zeros.as_mut_slice()[0] = -0.0;
        assert_eq!(route(&zeros, 0), vec![5]);
        assert_eq!(route(&zeros, 3), vec![15]);
        // Two equal maxima at window positions 0 and 2: the later one (index 4).
        let mut tied = Tensor::zeros(&[1, 4, 4]);
        tied.as_mut_slice()[0] = 3.0;
        tied.as_mut_slice()[4] = 3.0;
        assert_eq!(route(&tied, 0), vec![4]);
        // A strict maximum wins wherever it sits.
        tied.as_mut_slice()[1] = 7.0;
        assert_eq!(route(&tied, 0), vec![1]);
        // A trailing NaN ties with (and so displaces) the running maximum.
        tied.as_mut_slice()[5] = f32::NAN;
        assert_eq!(route(&tied, 0), vec![5]);
        // backward routes the gradient along the same rule.
        let g = backward(&pool, &zeros, &Tensor::ones(&[1, 2, 2])).unwrap();
        let routed: Vec<usize> = (0..16).filter(|&i| g.0.as_slice()[i] > 0.0).collect();
        assert_eq!(routed, vec![5, 7, 13, 15]);
    }

    #[test]
    fn avgpool_forward_and_contributions() {
        let pool = AvgPool2d::new(1, 4, 4, 2, 2).unwrap();
        let y = pool.forward(&image()).unwrap();
        assert_eq!(y.as_slice(), &[3.5, 5.5, 11.5, 13.5]);
        let pairs = decompose(&pool, &image(), 0).unwrap();
        let sum: f32 = pairs.iter().map(|(_, p)| p).sum();
        assert!((sum - 3.5).abs() < 1e-5);
        assert_eq!(pairs.len(), 4);
    }

    #[test]
    fn avgpool_backward_distributes_gradient() {
        let pool = AvgPool2d::new(1, 4, 4, 2, 2).unwrap();
        let gy = Tensor::ones(&[1, 2, 2]);
        let g = backward(&pool, &image(), &gy).unwrap();
        assert!((g.0.sum() - 4.0).abs() < 1e-5);
        assert!((g.0.get(&[0, 0, 0]).unwrap() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn pool_rejects_bad_config() {
        assert!(MaxPool2d::new(1, 2, 2, 3, 1).is_err());
        assert!(AvgPool2d::new(1, 4, 4, 0, 1).is_err());
        let pool = MaxPool2d::new(1, 4, 4, 2, 2).unwrap();
        assert!(pool.forward(&Tensor::ones(&[1, 3, 3])).is_err());
        assert_eq!(pool.kind(), LayerKind::MaxPool);
        assert_eq!(
            AvgPool2d::new(1, 4, 4, 2, 2).unwrap().kind(),
            LayerKind::AvgPool
        );
    }
}
