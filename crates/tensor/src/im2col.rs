//! `im2col`/`col2im` lowering used by the convolution layers.
//!
//! The Ptolemy detection algorithm needs per-output-neuron *partial sums* (Fig. 3 of
//! the paper): for an output feature-map element, the partial sums are the products
//! of each input element in its receptive field with the corresponding kernel
//! weight.  Lowering convolution to a matrix multiplication over `im2col` patches
//! makes those partial sums directly addressable — each column of the patch matrix
//! is exactly one receptive field — so both `ptolemy-nn` and the extraction code in
//! `ptolemy-core` share this geometry type.

use crate::{Result, Tensor, TensorError};

/// Geometry of a 2-D convolution (single image, NCHW single batch entry).
///
/// # Example
///
/// ```
/// use ptolemy_tensor::Conv2dGeometry;
///
/// # fn main() -> Result<(), ptolemy_tensor::TensorError> {
/// let g = Conv2dGeometry::new(3, 32, 32, 3, 1, 1)?;
/// assert_eq!(g.out_h, 32);
/// assert_eq!(g.out_w, 32);
/// assert_eq!(g.patch_len(), 27);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Computes the output geometry for the given input and kernel parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the kernel/stride/padding
    /// combination produces an empty output or the stride is zero.
    pub fn new(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        if stride == 0 || kernel == 0 {
            return Err(TensorError::InvalidGeometry(
                "kernel and stride must be non-zero".into(),
            ));
        }
        let padded_h = in_h + 2 * padding;
        let padded_w = in_w + 2 * padding;
        if padded_h < kernel || padded_w < kernel {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {kernel} larger than padded input {padded_h}x{padded_w}"
            )));
        }
        Ok(Conv2dGeometry {
            in_channels,
            in_h,
            in_w,
            kernel,
            stride,
            padding,
            out_h: (padded_h - kernel) / stride + 1,
            out_w: (padded_w - kernel) / stride + 1,
        })
    }

    /// Number of elements in one receptive field (`in_channels * kernel²`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Number of output spatial positions (`out_h * out_w`).
    pub fn num_patches(&self) -> usize {
        self.out_h * self.out_w
    }

    /// For the output position `(oy, ox)` and patch element `p`, returns the
    /// corresponding input coordinate `(c, y, x)` if it lies inside the (unpadded)
    /// input, or `None` if the element reads from the zero padding.
    pub fn patch_source(&self, oy: usize, ox: usize, p: usize) -> Option<(usize, usize, usize)> {
        let c = p / (self.kernel * self.kernel);
        let rem = p % (self.kernel * self.kernel);
        let ky = rem / self.kernel;
        let kx = rem % self.kernel;
        let y = (oy * self.stride + ky) as isize - self.padding as isize;
        let x = (ox * self.stride + kx) as isize - self.padding as isize;
        if y < 0 || x < 0 || y >= self.in_h as isize || x >= self.in_w as isize {
            None
        } else {
            Some((c, y as usize, x as usize))
        }
    }

    /// Flat input-feature-map index (within one image, CHW order) for an in-bounds
    /// patch source.
    pub fn input_index(&self, c: usize, y: usize, x: usize) -> usize {
        (c * self.in_h + y) * self.in_w + x
    }
}

/// One maximal in-bounds run of a patch-matrix row: columns `col..col + len` of
/// row `row` read the sample's elements `src`, `src + stride`, ….
pub(crate) struct RowRun {
    pub(crate) row: usize,
    pub(crate) col: usize,
    pub(crate) len: usize,
    pub(crate) src: usize,
}

impl Conv2dGeometry {
    /// The one lowering traversal every `im2col`/`col2im` flavour shares: for
    /// each patch row `(c, ky, kx)` and output row `oy` whose source row lies
    /// inside the input, the in-bounds `ox` range is computed once and visited
    /// as a single [`RowRun`]; everything outside a run is zero padding.  This
    /// is the [`Conv2dGeometry::patch_source`] definition with its div/mods and
    /// bounds branch hoisted out of the element loop.  Kernel offsets run high
    /// to low so that each input element is reached in ascending `(oy, ox)`
    /// order — the order [`col2im`] has always accumulated in (f32 addition
    /// does not re-associate).
    pub(crate) fn for_each_row_run(&self, mut visit: impl FnMut(RowRun)) {
        let (kernel, stride, padding) = (self.kernel, self.stride, self.padding);
        // Output positions `o` along one axis with `0 <= o·stride + k - padding < extent`.
        let in_bounds = |k: usize, extent: usize, outputs: usize| {
            let lo = padding.saturating_sub(k).div_ceil(stride);
            let hi = (extent + padding)
                .checked_sub(k + 1)
                .map_or(0, |last| (last / stride + 1).min(outputs));
            lo..hi
        };
        for c in 0..self.in_channels {
            for ky in (0..kernel).rev() {
                let rows = in_bounds(ky, self.in_h, self.out_h);
                for kx in (0..kernel).rev() {
                    let run = in_bounds(kx, self.in_w, self.out_w);
                    if run.is_empty() {
                        continue;
                    }
                    let x = run.start * stride + kx - padding;
                    for oy in rows.clone() {
                        let y = oy * stride + ky - padding;
                        visit(RowRun {
                            row: (c * kernel + ky) * kernel + kx,
                            col: oy * self.out_w + run.start,
                            len: run.len(),
                            src: self.input_index(c, y, x),
                        });
                    }
                }
            }
        }
    }

    pub(crate) fn sample_len(&self) -> usize {
        self.in_channels * self.in_h * self.in_w
    }

    /// Number of CHW samples in `input`: at least one if `stacked`, else exactly one.
    pub(crate) fn sample_count(
        &self,
        input: &Tensor,
        stacked: bool,
        op: &'static str,
    ) -> Result<usize> {
        let sample_len = self.sample_len();
        let fits = if stacked {
            sample_len != 0 && !input.is_empty() && input.len() % sample_len == 0
        } else {
            input.len() == sample_len
        };
        if !fits {
            return Err(TensorError::IncompatibleShapes {
                lhs: input.dims().to_vec(),
                rhs: vec![self.in_channels, self.in_h, self.in_w],
                op,
            });
        }
        Ok(if stacked { input.len() / sample_len } else { 1 })
    }
}

/// Lowers `batch_size` stacked CHW samples into a row-major
/// `[patch_len, batch_size * num_patches]` patch matrix (sample `b` owns columns
/// `b * num_patches..` of every row; padding keeps `T`'s zero).  Pure data
/// movement — the int8 lowering runs it over an already-quantized image — so
/// every value is the [`Conv2dGeometry::patch_source`] definition's by construction.
pub(crate) fn lower<T: Copy + Default>(
    samples: &[T],
    geom: &Conv2dGeometry,
    batch_size: usize,
) -> Vec<T> {
    let patches = geom.num_patches();
    let cols = batch_size * patches;
    let sample_len = geom.sample_len();
    let mut out = vec![T::default(); geom.patch_len() * cols];
    geom.for_each_row_run(|run| {
        for b in 0..batch_size {
            let dst = &mut out[run.row * cols + b * patches + run.col..][..run.len];
            let src = &samples[b * sample_len + run.src..];
            if geom.stride == 1 {
                dst.copy_from_slice(&src[..run.len]);
            } else {
                for (d, v) in dst.iter_mut().zip(src.iter().step_by(geom.stride)) {
                    *d = *v;
                }
            }
        }
    });
    out
}

/// Lowers one CHW image into a patch matrix of shape `[patch_len, out_h * out_w]`.
///
/// Column `j` of the result is the receptive field of output position
/// `(j / out_w, j % out_w)`, padded with zeros where the field falls outside the
/// input.
///
/// # Errors
///
/// Returns [`TensorError::IncompatibleShapes`] if `image` does not have
/// `in_channels * in_h * in_w` elements.
pub fn im2col(image: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    geom.sample_count(image, false, "im2col")?;
    Tensor::from_vec(
        lower(image.as_slice(), geom, 1),
        &[geom.patch_len(), geom.num_patches()],
    )
}

/// Lowers a stacked NCHW batch into one patch matrix of shape
/// `[patch_len, batch * out_h * out_w]`.
///
/// `batch` must have a leading batch dimension over CHW samples (shape
/// `[B, C, H, W]`, or any `[B, ...]` whose per-sample element count is
/// `in_channels * in_h * in_w`).  Column `b * num_patches + j` of the result is
/// **bit-for-bit identical** to column `j` of `im2col` applied to sample `b`
/// alone — batching only widens the matrix, it never re-associates any value —
/// which is what lets one matrix multiplication price a whole batch while
/// preserving per-input parity.
///
/// # Errors
///
/// Returns [`TensorError::IncompatibleShapes`] if `batch` is empty or its
/// element count is not a multiple of `in_channels * in_h * in_w`.
pub fn im2col_batch(batch: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    let batch_size = geom.sample_count(batch, true, "im2col_batch")?;
    Tensor::from_vec(
        lower(batch.as_slice(), geom, batch_size),
        &[geom.patch_len(), batch_size * geom.num_patches()],
    )
}

/// Adjoint of [`im2col`]: scatters a patch matrix of shape
/// `[patch_len, out_h * out_w]` back onto a CHW image, *summing* values that map to
/// the same input element.  Used for convolution backward passes.
///
/// # Errors
///
/// Returns [`TensorError::IncompatibleShapes`] if `cols` does not have the shape
/// implied by the geometry.
pub fn col2im(cols: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    let (rows, ncols) = (geom.patch_len(), geom.num_patches());
    if cols.dims() != [rows, ncols] {
        return Err(TensorError::IncompatibleShapes {
            lhs: cols.dims().to_vec(),
            rhs: vec![rows, ncols],
            op: "col2im",
        });
    }
    let mut out = vec![0.0f32; geom.sample_len()];
    col2im_into(cols.as_slice(), ncols, geom, &mut out);
    Tensor::from_vec(out, &[geom.in_channels, geom.in_h, geom.in_w])
}

/// [`col2im`] of every sample of a stacked patch matrix (`ld` columns wide,
/// sample `b` owning columns `b * num_patches..`), added into the
/// caller-owned CHW images stacked in `out` (zeroed for a plain scatter).
/// One traversal serves every sample, and each image is accumulated in
/// [`col2im`]'s order.
pub(crate) fn col2im_into(cols: &[f32], ld: usize, geom: &Conv2dGeometry, out: &mut [f32]) {
    let (patches, sample_len) = (geom.num_patches(), geom.sample_len());
    geom.for_each_row_run(|run| {
        for (b, image) in out.chunks_exact_mut(sample_len).enumerate() {
            let run_src = &cols[run.row * ld + b * patches + run.col..][..run.len];
            if geom.stride == 1 {
                let dst = &mut image[run.src..run.src + run.len];
                for (o, v) in dst.iter_mut().zip(run_src) {
                    *o += v;
                }
            } else {
                let dst = image[run.src..].iter_mut().step_by(geom.stride);
                for (o, v) in dst.zip(run_src) {
                    *o += v;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_rejects_degenerate_configs() {
        assert!(Conv2dGeometry::new(1, 4, 4, 0, 1, 0).is_err());
        assert!(Conv2dGeometry::new(1, 4, 4, 3, 0, 0).is_err());
        assert!(Conv2dGeometry::new(1, 2, 2, 5, 1, 0).is_err());
        // With enough padding the same kernel becomes valid.
        assert!(Conv2dGeometry::new(1, 2, 2, 5, 1, 2).is_ok());
    }

    #[test]
    fn geometry_output_sizes() {
        let g = Conv2dGeometry::new(3, 32, 32, 3, 1, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (32, 32));
        let g = Conv2dGeometry::new(3, 32, 32, 3, 2, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (16, 16));
        let g = Conv2dGeometry::new(1, 5, 5, 5, 1, 0).unwrap();
        assert_eq!((g.out_h, g.out_w), (1, 1));
    }

    #[test]
    fn im2col_identity_kernel_matches_input() {
        // A 1x1 kernel with stride 1 and no padding produces the input itself.
        let g = Conv2dGeometry::new(1, 3, 3, 1, 1, 0).unwrap();
        let img = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 3, 3]).unwrap();
        let cols = im2col(&img, &g).unwrap();
        assert_eq!(cols.dims(), &[1, 9]);
        assert_eq!(cols.as_slice(), img.as_slice());
    }

    #[test]
    fn im2col_extracts_receptive_fields() {
        let g = Conv2dGeometry::new(1, 3, 3, 2, 1, 0).unwrap();
        let img = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 3, 3]).unwrap();
        let cols = im2col(&img, &g).unwrap();
        assert_eq!(cols.dims(), &[4, 4]);
        // First column is the top-left 2x2 patch [1,2,4,5].
        let c0: Vec<f32> = (0..4).map(|r| cols.get(&[r, 0]).unwrap()).collect();
        assert_eq!(c0, vec![1.0, 2.0, 4.0, 5.0]);
        // Last column is the bottom-right patch [5,6,8,9].
        let c3: Vec<f32> = (0..4).map(|r| cols.get(&[r, 3]).unwrap()).collect();
        assert_eq!(c3, vec![5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn padding_reads_zeros() {
        let g = Conv2dGeometry::new(1, 2, 2, 3, 1, 1).unwrap();
        let img = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]).unwrap();
        let cols = im2col(&img, &g).unwrap();
        // Top-left output position: its receptive field's first row/col is padding.
        let c0: Vec<f32> = (0..9).map(|r| cols.get(&[r, 0]).unwrap()).collect();
        assert_eq!(c0, vec![0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 4.0]);
        // Every element of the original image appears somewhere.
        let total: f32 = cols.as_slice().iter().sum();
        assert!(total > 0.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col_for_counts() {
        // Scattering a matrix of ones counts how many receptive fields cover each
        // input element; with kernel=2/stride=1 on 3x3 the centre is covered 4 times.
        let g = Conv2dGeometry::new(1, 3, 3, 2, 1, 0).unwrap();
        let ones = Tensor::ones(&[g.patch_len(), g.num_patches()]);
        let counts = col2im(&ones, &g).unwrap();
        assert_eq!(counts.get(&[0, 1, 1]).unwrap(), 4.0);
        assert_eq!(counts.get(&[0, 0, 0]).unwrap(), 1.0);
        assert_eq!(counts.get(&[0, 0, 1]).unwrap(), 2.0);
    }

    #[test]
    fn im2col_rejects_wrong_input_size() {
        let g = Conv2dGeometry::new(1, 3, 3, 2, 1, 0).unwrap();
        let img = Tensor::zeros(&[1, 2, 2]);
        assert!(im2col(&img, &g).is_err());
        let cols = Tensor::zeros(&[3, 3]);
        assert!(col2im(&cols, &g).is_err());
    }

    #[test]
    fn im2col_batch_columns_match_per_sample_im2col() {
        let g = Conv2dGeometry::new(2, 4, 4, 3, 1, 1).unwrap();
        let samples: Vec<Tensor> = (0..3)
            .map(|b| {
                Tensor::from_vec(
                    (0..2 * 4 * 4)
                        .map(|v| (v + b * 100) as f32 * 0.37)
                        .collect(),
                    &[2, 4, 4],
                )
                .unwrap()
            })
            .collect();
        let batch = Tensor::stack(&samples).unwrap();
        let wide = im2col_batch(&batch, &g).unwrap();
        let patches = g.num_patches();
        assert_eq!(wide.dims(), &[g.patch_len(), 3 * patches]);
        for (b, sample) in samples.iter().enumerate() {
            let single = im2col(sample, &g).unwrap();
            for p in 0..g.patch_len() {
                for j in 0..patches {
                    let fused = wide.get(&[p, b * patches + j]).unwrap();
                    let lone = single.get(&[p, j]).unwrap();
                    assert_eq!(fused.to_bits(), lone.to_bits());
                }
            }
        }
    }

    #[test]
    fn im2col_batch_rejects_misaligned_batches() {
        let g = Conv2dGeometry::new(1, 3, 3, 2, 1, 0).unwrap();
        // Element count not a multiple of the sample size.
        assert!(im2col_batch(&Tensor::zeros(&[10]), &g).is_err());
        // Empty batch.
        assert!(im2col_batch(&Tensor::zeros(&[0]), &g).is_err());
        // A single-sample "batch" works and equals plain im2col.
        let img = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let wide = im2col_batch(&img, &g).unwrap();
        let single = im2col(&img.slice_batch(0).unwrap(), &g).unwrap();
        assert_eq!(wide.as_slice(), single.as_slice());
    }

    #[test]
    fn patch_source_consistency() {
        let g = Conv2dGeometry::new(2, 4, 4, 3, 1, 1).unwrap();
        // Every in-bounds patch source maps to a valid flat index.
        for oy in 0..g.out_h {
            for ox in 0..g.out_w {
                for p in 0..g.patch_len() {
                    if let Some((c, y, x)) = g.patch_source(oy, ox, p) {
                        let idx = g.input_index(c, y, x);
                        assert!(idx < g.in_channels * g.in_h * g.in_w);
                    }
                }
            }
        }
    }
}
