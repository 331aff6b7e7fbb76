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
}
