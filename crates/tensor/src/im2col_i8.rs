//! Fused int8 `im2col`: lowers convolution inputs straight into quantized
//! patch matrices, skipping the f32 column intermediate entirely.
//!
//! Quantizing `im2col(input)` element-wise rounds every input element once per
//! receptive field covering it.  These kernels quantize the *image* once
//! ([`quantize_slice`], the audited expression) and run the shared row-run
//! traversal ([`crate::im2col`]'s) over the int8 image; padding stays at the
//! quantized zero (`quantize(0.0)` is `0` for every scale).  Quantization is
//! element-wise, so it commutes with the data movement: the output is
//! **bit-for-bit** `quantize_slice(im2col(input), params)`.

use crate::im2col::{lower, Conv2dGeometry};
use crate::quant::{quantize_slice, QuantParams};
use crate::{Result, Tensor};

/// Lowers one CHW image into a quantized patch matrix of `[patch_len,
/// out_h * out_w]` layout (returned as a flat `Vec<i8>`).
///
/// Column `j` is the receptive field of output position `(j / out_w,
/// j % out_w)`, quantized with `params`; padding reads quantized zeros.  The
/// result is bit-for-bit `quantize_slice(im2col(image, geom), params)`.
///
/// # Errors
///
/// Returns [`crate::TensorError::IncompatibleShapes`] if `image` does not have
/// `in_channels * in_h * in_w` elements (same contract as [`crate::im2col`]).
pub fn im2col_i8(image: &Tensor, geom: &Conv2dGeometry, params: QuantParams) -> Result<Vec<i8>> {
    geom.sample_count(image, false, "im2col_i8")?;
    Ok(lower(&quantize_slice(image.as_slice(), params), geom, 1))
}

/// Lowers a stacked NCHW batch into one quantized patch matrix of
/// `[patch_len, batch * out_h * out_w]` layout (flat `Vec<i8>`).
///
/// Column `b * num_patches + j` is bit-for-bit column `j` of [`im2col_i8`]
/// applied to sample `b` alone — the same widening-only batch contract as
/// the f32 [`crate::im2col_batch`], so the fused quantized conv preserves
/// per-input results exactly.
///
/// # Errors
///
/// Returns [`crate::TensorError::IncompatibleShapes`] if `batch` is empty or its
/// element count is not a multiple of `in_channels * in_h * in_w`.
pub fn im2col_i8_batch(
    batch: &Tensor,
    geom: &Conv2dGeometry,
    params: QuantParams,
) -> Result<Vec<i8>> {
    let batch_size = geom.sample_count(batch, true, "im2col_i8_batch")?;
    let quantized = quantize_slice(batch.as_slice(), params);
    Ok(lower(&quantized, geom, batch_size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{im2col, Rng64};

    fn random_image(dims: &[usize], rng: &mut Rng64) -> Tensor {
        let len: usize = dims.iter().product();
        let data: Vec<f32> = (0..len)
            .map(|i| if i % 7 == 0 { 0.0 } else { rng.normal() })
            .collect();
        Tensor::from_vec(data, dims).unwrap()
    }

    #[test]
    fn fused_matches_quantize_after_im2col() {
        let mut rng = Rng64::new(29);
        for (geom, dims) in [
            (Conv2dGeometry::new(1, 3, 3, 2, 1, 0).unwrap(), [1, 3, 3]),
            (Conv2dGeometry::new(2, 4, 4, 3, 1, 1).unwrap(), [2, 4, 4]),
            (Conv2dGeometry::new(3, 5, 5, 3, 2, 1).unwrap(), [3, 5, 5]),
        ] {
            let img = random_image(&dims, &mut rng);
            let params = QuantParams::from_max_abs(crate::quant::tensor_max_abs(&img));
            let fused = im2col_i8(&img, &geom, params).unwrap();
            let staged = quantize_slice(im2col(&img, &geom).unwrap().as_slice(), params);
            assert_eq!(fused, staged);
        }
    }

    #[test]
    fn batch_columns_match_per_sample_fused() {
        let mut rng = Rng64::new(31);
        let geom = Conv2dGeometry::new(2, 4, 4, 3, 1, 1).unwrap();
        let samples: Vec<Tensor> = (0..3).map(|_| random_image(&[2, 4, 4], &mut rng)).collect();
        let batch = Tensor::stack(&samples).unwrap();
        let params = QuantParams::from_max_abs(1.3);
        let wide = im2col_i8_batch(&batch, &geom, params).unwrap();
        let patches = geom.num_patches();
        let cols = samples.len() * patches;
        for (b, sample) in samples.iter().enumerate() {
            let single = im2col_i8(sample, &geom, params).unwrap();
            for p in 0..geom.patch_len() {
                for j in 0..patches {
                    assert_eq!(
                        wide[p * cols + b * patches + j],
                        single[p * patches + j],
                        "({b},{p},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_misshaped_inputs() {
        let geom = Conv2dGeometry::new(1, 3, 3, 2, 1, 0).unwrap();
        let params = QuantParams::from_max_abs(1.0);
        assert!(im2col_i8(&Tensor::zeros(&[1, 2, 2]), &geom, params).is_err());
        assert!(im2col_i8_batch(&Tensor::zeros(&[10]), &geom, params).is_err());
        assert!(im2col_i8_batch(&Tensor::zeros(&[0]), &geom, params).is_err());
    }
}
