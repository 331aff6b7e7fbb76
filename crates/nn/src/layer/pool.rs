use ptolemy_tensor::{par_row_chunks, Tensor};

use crate::batch::check_batch;
use crate::{Contribution, Layer, LayerGrads, LayerKind, NnError, Result};

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

    /// Flat input indices covered by output position (c, oy, ox).
    fn window_indices(&self, c: usize, oy: usize, ox: usize) -> Vec<usize> {
        let mut idx = Vec::with_capacity(self.window * self.window);
        for wy in 0..self.window {
            for wx in 0..self.window {
                let y = oy * self.stride + wy;
                let x = ox * self.stride + wx;
                idx.push((c * self.in_h + y) * self.in_w + x);
            }
        }
        idx
    }

    /// Fused batch pass shared by both pooling layers: every output window is
    /// reduced by `fold` over exactly the window-index sequence the
    /// single-sample kernel visits ([`PoolGeom::window_indices`] order —
    /// `wy` outer, `wx` inner), sample slabs are independent, and samples are
    /// partitioned over threads — so the result is bit-for-bit identical to
    /// the per-input loop, while the fused pass skips the per-window index
    /// `Vec` the single-sample path allocates.
    fn forward_batch_with(
        &self,
        batch: &Tensor,
        layer: &str,
        init: f32,
        fold: impl Fn(f32, f32) -> f32 + Sync,
        finish: impl Fn(f32) -> f32 + Sync,
    ) -> Result<Tensor> {
        let batch_size = check_batch(batch, &self.in_shape(), layer)?;
        let xs = batch.as_slice();
        let in_len = self.channels * self.in_h * self.in_w;
        let out_len = self.channels * self.out_h * self.out_w;
        let mut out = vec![0.0f32; batch_size * out_len];
        // One fold per window element: the pool's MAC-equivalent.
        let work = batch_size * out_len * self.window * self.window;
        par_row_chunks(&mut out, batch_size, out_len, work, |first, chunk| {
            for (s, sample_out) in chunk.chunks_mut(out_len).enumerate() {
                let x = &xs[(first + s) * in_len..(first + s + 1) * in_len];
                let mut idx = 0usize;
                for c in 0..self.channels {
                    for oy in 0..self.out_h {
                        for ox in 0..self.out_w {
                            let mut acc = init;
                            for wy in 0..self.window {
                                let y = oy * self.stride + wy;
                                let row = (c * self.in_h + y) * self.in_w + ox * self.stride;
                                for wx in 0..self.window {
                                    acc = fold(acc, x[row + wx]);
                                }
                            }
                            sample_out[idx] = finish(acc);
                            idx += 1;
                        }
                    }
                }
            }
        });
        let mut dims = vec![batch_size];
        dims.extend(self.out_shape());
        Ok(Tensor::from_vec(out, &dims)?)
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

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.geom.check(input)?;
        let x = input.as_slice();
        let mut out = Vec::with_capacity(self.geom.channels * self.geom.out_h * self.geom.out_w);
        for c in 0..self.geom.channels {
            for oy in 0..self.geom.out_h {
                for ox in 0..self.geom.out_w {
                    let m = self
                        .geom
                        .window_indices(c, oy, ox)
                        .into_iter()
                        .map(|i| x[i])
                        .fold(f32::NEG_INFINITY, f32::max);
                    out.push(m);
                }
            }
        }
        Ok(Tensor::from_vec(out, &self.geom.out_shape())?)
    }

    fn forward_batch(&self, batch: &Tensor) -> Result<Tensor> {
        self.geom
            .forward_batch_with(batch, self.name(), f32::NEG_INFINITY, f32::max, |acc| acc)
    }

    fn backward(&self, input: &Tensor, grad_output: &Tensor) -> Result<LayerGrads> {
        self.geom.check(input)?;
        if grad_output.dims() != self.geom.out_shape().as_slice() {
            return Err(NnError::InvalidConfig("maxpool grad shape mismatch".into()));
        }
        let x = input.as_slice();
        let gy = grad_output.as_slice();
        let mut gx = vec![0.0f32; input.len()];
        let mut out_idx = 0usize;
        for c in 0..self.geom.channels {
            for oy in 0..self.geom.out_h {
                for ox in 0..self.geom.out_w {
                    let win = self.geom.window_indices(c, oy, ox);
                    let best = win
                        .iter()
                        .copied()
                        .max_by(|a, b| {
                            x[*a]
                                .partial_cmp(&x[*b])
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .unwrap_or(win[0]);
                    gx[best] += gy[out_idx];
                    out_idx += 1;
                }
            }
        }
        Ok(LayerGrads {
            input_grad: Tensor::from_vec(gx, input.dims())?,
            param_grads: Vec::new(),
        })
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
        _interior: Option<&Tensor>,
        out_idxs: &[usize],
    ) -> Result<Vec<Contribution>> {
        self.geom.check(input)?;
        let x = input.as_slice();
        out_idxs
            .iter()
            .map(|&out_idx| {
                let (c, oy, ox) = self.geom.decompose(out_idx)?;
                let win = self.geom.window_indices(c, oy, ox);
                let best = win
                    .iter()
                    .copied()
                    .max_by(|a, b| {
                        x[*a]
                            .partial_cmp(&x[*b])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .unwrap_or(win[0]);
                Ok(Contribution::PassThrough(vec![best]))
            })
            .collect()
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

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.geom.check(input)?;
        let x = input.as_slice();
        let norm = (self.geom.window * self.geom.window) as f32;
        let mut out = Vec::with_capacity(self.geom.channels * self.geom.out_h * self.geom.out_w);
        for c in 0..self.geom.channels {
            for oy in 0..self.geom.out_h {
                for ox in 0..self.geom.out_w {
                    let sum: f32 = self
                        .geom
                        .window_indices(c, oy, ox)
                        .into_iter()
                        .map(|i| x[i])
                        .sum();
                    out.push(sum / norm);
                }
            }
        }
        Ok(Tensor::from_vec(out, &self.geom.out_shape())?)
    }

    fn forward_batch(&self, batch: &Tensor) -> Result<Tensor> {
        let norm = (self.geom.window * self.geom.window) as f32;
        self.geom.forward_batch_with(
            batch,
            self.name(),
            0.0,
            |acc, v| acc + v,
            move |acc| acc / norm,
        )
    }

    fn backward(&self, input: &Tensor, grad_output: &Tensor) -> Result<LayerGrads> {
        self.geom.check(input)?;
        if grad_output.dims() != self.geom.out_shape().as_slice() {
            return Err(NnError::InvalidConfig("avgpool grad shape mismatch".into()));
        }
        let gy = grad_output.as_slice();
        let norm = (self.geom.window * self.geom.window) as f32;
        let mut gx = vec![0.0f32; input.len()];
        let mut out_idx = 0usize;
        for c in 0..self.geom.channels {
            for oy in 0..self.geom.out_h {
                for ox in 0..self.geom.out_w {
                    for i in self.geom.window_indices(c, oy, ox) {
                        gx[i] += gy[out_idx] / norm;
                    }
                    out_idx += 1;
                }
            }
        }
        Ok(LayerGrads {
            input_grad: Tensor::from_vec(gx, input.dims())?,
            param_grads: Vec::new(),
        })
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
        _interior: Option<&Tensor>,
        out_idxs: &[usize],
    ) -> Result<Vec<Contribution>> {
        self.geom.check(input)?;
        let x = input.as_slice();
        let norm = (self.geom.window * self.geom.window) as f32;
        out_idxs
            .iter()
            .map(|&out_idx| {
                let (c, oy, ox) = self.geom.decompose(out_idx)?;
                let pairs = self
                    .geom
                    .window_indices(c, oy, ox)
                    .into_iter()
                    .map(|i| (i, x[i] / norm))
                    .collect();
                Ok(Contribution::Weighted(pairs))
            })
            .collect()
    }

    fn has_static_routing(&self) -> bool {
        true
    }

    fn static_routing(&self, out_idx: usize) -> Result<Option<Vec<usize>>> {
        // The window membership is fixed by geometry; only the partial-sum
        // *values* depend on the input, and index routing discards them.
        let (c, oy, ox) = self.geom.decompose(out_idx)?;
        Ok(Some(self.geom.window_indices(c, oy, ox)))
    }

    fn kind(&self) -> LayerKind {
        LayerKind::AvgPool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let g = pool.backward(&image(), &gy).unwrap();
        // Only the four max positions receive gradient.
        assert_eq!(g.input_grad.sum(), 4.0);
        assert_eq!(g.input_grad.get(&[0, 1, 1]).unwrap(), 1.0);
        assert_eq!(g.input_grad.get(&[0, 0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn maxpool_contributions_point_at_max() {
        let pool = MaxPool2d::new(1, 4, 4, 2, 2).unwrap();
        match pool.contributions(&image(), 0).unwrap() {
            Contribution::PassThrough(idx) => assert_eq!(idx, vec![5]),
            other => panic!("unexpected {other:?}"),
        }
        assert!(pool.contributions(&image(), 4).is_err());
    }

    #[test]
    fn avgpool_forward_and_contributions() {
        let pool = AvgPool2d::new(1, 4, 4, 2, 2).unwrap();
        let y = pool.forward(&image()).unwrap();
        assert_eq!(y.as_slice(), &[3.5, 5.5, 11.5, 13.5]);
        match pool.contributions(&image(), 0).unwrap() {
            Contribution::Weighted(pairs) => {
                let sum: f32 = pairs.iter().map(|(_, p)| p).sum();
                assert!((sum - 3.5).abs() < 1e-5);
                assert_eq!(pairs.len(), 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn avgpool_backward_distributes_gradient() {
        let pool = AvgPool2d::new(1, 4, 4, 2, 2).unwrap();
        let gy = Tensor::ones(&[1, 2, 2]);
        let g = pool.backward(&image(), &gy).unwrap();
        assert!((g.input_grad.sum() - 4.0).abs() < 1e-5);
        assert!((g.input_grad.get(&[0, 0, 0]).unwrap() - 0.25).abs() < 1e-6);
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
