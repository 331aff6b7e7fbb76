//! Crate-private helpers for the fused NCHW batch path.
//!
//! The batch convention across `ptolemy-nn` is a single stacked tensor with a
//! leading batch dimension: `[B, C, H, W]` for images, `[B, features]` for
//! vectors.  Sample `b` occupies the contiguous row-major slab
//! `[b * sample_len, (b + 1) * sample_len)`, so slicing a batch back into its
//! samples is a copy, never a re-association — the foundation of the
//! bit-for-bit parity guarantee between `forward_batch` and per-input
//! `forward`.

use ptolemy_tensor::Tensor;

use crate::{NnError, Result};

/// Validates that `batch` has shape `[B] ++ sample_shape` with `B >= 1` and
/// returns `B`.
pub(crate) fn check_batch(batch: &Tensor, sample_shape: &[usize], layer: &str) -> Result<usize> {
    let dims = batch.dims();
    let valid = dims.len() == sample_shape.len() + 1 && dims[0] >= 1 && &dims[1..] == sample_shape;
    if !valid {
        return Err(NnError::InvalidConfig(format!(
            "{layer} expects a batch of shape [B]+{sample_shape:?}, got {dims:?}"
        )));
    }
    Ok(dims[0])
}

/// The crate's one non-finite rule: `values` (an activation boundary, or the
/// gradient of one) must hold no NaN and no infinity, or it is
/// [`NnError::NonFinite`] at `boundary`.
///
/// One pass of integer maxima over the magnitudes' bits (associative, so it
/// vectorises): only an all-ones exponent — NaN or ±∞ — reaches the bits of
/// `+∞`.
pub(crate) fn check_finite(values: &[f32], boundary: usize) -> Result<()> {
    const MAGNITUDE: u32 = 0x7fff_ffff;
    let top = values
        .iter()
        .fold(0u32, |top, v| top.max(v.to_bits() & MAGNITUDE));
    if top < f32::INFINITY.to_bits() {
        Ok(())
    } else {
        Err(NnError::NonFinite { boundary })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_batch_accepts_and_rejects() {
        let batch = Tensor::zeros(&[4, 2, 3]);
        assert_eq!(check_batch(&batch, &[2, 3], "test").unwrap(), 4);
        assert!(check_batch(&batch, &[3, 2], "test").is_err());
        assert!(check_batch(&Tensor::zeros(&[2, 3]), &[2, 3], "test").is_err());
        assert!(check_batch(&Tensor::zeros(&[0, 2, 3]), &[2, 3], "test").is_err());
    }

    #[test]
    fn check_finite_rejects_exactly_nan_and_infinities() {
        let finite = [
            0.0,
            -0.0,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            1e-45,
            -1.0,
        ];
        assert_eq!(check_finite(&finite, 4), Ok(()));
        assert_eq!(check_finite(&[], 4), Ok(()));
        for bad in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in [0, 6, 40] {
                let mut values = vec![1.0f32; 41];
                values[at] = bad;
                assert_eq!(
                    check_finite(&values, 4),
                    Err(NnError::NonFinite { boundary: 4 })
                );
            }
        }
    }
}
