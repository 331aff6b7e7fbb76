//! Symmetric int8 quantization: scales, saturating conversion, and the i32
//! integer GEMMs behind the quantized inference path.
//!
//! This module is the **only** place in the workspace allowed to perform the
//! lossy `as i8` / `as u8` saturating casts (enforced by the `ptolemy-lint`
//! `raw-numeric-cast` rule), so every rounding decision in the quantization
//! story is auditable in one file.
//!
//! The scheme is plain symmetric per-tensor quantization: a tensor with
//! max-abs `A` maps through `q = round(x / s)` with scale `s = A / 127`, so
//! values land in `[-127, 127]` (−128 is never produced, keeping the scheme
//! symmetric).  Products accumulate in `i32` — with `k` up to ~10⁵ the sum of
//! `127 * 127` terms stays far below `i32::MAX`, so integer accumulation is
//! exact and the quantized path is bit-deterministic across runs and thread
//! counts.  Accuracy is a *contract measured by benchmarks* (agreement rate,
//! AUC delta in `quantized_detect`), never bit parity with f32.

use crate::{Result, Tensor, TensorError};

/// Symmetric per-tensor quantization parameters (zero-point is always 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
}

impl QuantParams {
    /// Builds parameters that map `[-max_abs, max_abs]` onto `[-127, 127]`.
    ///
    /// A non-finite or non-positive `max_abs` (an all-zero calibration
    /// tensor, say) degenerates to scale 1.0 so quantizing zeros stays a
    /// well-defined no-op.
    #[must_use]
    pub fn from_max_abs(max_abs: f32) -> Self {
        let scale = if max_abs.is_finite() && max_abs > 0.0 {
            max_abs / 127.0
        } else {
            1.0
        };
        QuantParams { scale }
    }

    /// The dequantization step size (`x ≈ q * scale`).
    #[must_use]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Quantizes one value: round-to-nearest (ties away from zero, the
    /// `f32::round` contract) then saturate to `[-127, 127]`.
    #[must_use]
    pub fn quantize(&self, x: f32) -> i8 {
        // lint:allow(raw-numeric-cast): the audited saturating quantization cast
        (x / self.scale).round().clamp(-127.0, 127.0) as i8
    }

    /// Dequantizes one value.
    #[must_use]
    pub fn dequantize(&self, q: i8) -> f32 {
        f32::from(q) * self.scale
    }
}

/// Largest absolute value in a slice (0.0 for an empty slice; NaNs are
/// ignored so one poisoned activation cannot zero out a whole layer's range).
#[must_use]
pub fn max_abs(values: &[f32]) -> f32 {
    values
        .iter()
        .map(|v| v.abs())
        .filter(|v| v.is_finite())
        .fold(0.0, f32::max)
}

/// Quantizes a slice with the given parameters.
#[must_use]
pub fn quantize_slice(values: &[f32], params: QuantParams) -> Vec<i8> {
    values.iter().map(|v| params.quantize(*v)).collect()
}

/// Dequantizes a slice with the given parameters.
#[must_use]
pub fn dequantize_slice(values: &[i8], params: QuantParams) -> Vec<f32> {
    values.iter().map(|q| params.dequantize(*q)).collect()
}

pub(crate) fn check_i8_dims(
    a_len: usize,
    b_len: usize,
    a_dims: [usize; 2],
    b_dims: [usize; 2],
    op: &'static str,
) -> Result<()> {
    if a_len != a_dims[0] * a_dims[1] || b_len != b_dims[0] * b_dims[1] {
        return Err(TensorError::IncompatibleShapes {
            lhs: a_dims.to_vec(),
            rhs: b_dims.to_vec(),
            op,
        });
    }
    Ok(())
}

/// Integer GEMM: `A [m, k] · B [k, n]`, both row-major i8, accumulated
/// exactly in i32.  The quantized conv kernel (`qweight · qcolumns`).
///
/// # Errors
///
/// Returns [`TensorError::IncompatibleShapes`] if the slice lengths do not
/// match the stated dimensions.
pub fn matmul_i8(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Result<Vec<i32>> {
    check_i8_dims(a.len(), b.len(), [m, k], [k, n], "matmul_i8")?;
    let mut out = vec![0i32; m * n];
    // Same i-k-j order as the f32 kernels; integer adds are associative, so
    // order is a pure cache choice here.
    for i in 0..m {
        for kk in 0..k {
            let aik = i32::from(a[i * k + kk]);
            if aik == 0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, bv) in orow.iter_mut().zip(brow) {
                *o += aik * i32::from(*bv);
            }
        }
    }
    Ok(out)
}

/// Convenience: max-abs of a tensor's elements.
#[must_use]
pub fn tensor_max_abs(t: &Tensor) -> f32 {
    max_abs(t.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_error_is_bounded_by_half_scale() {
        let params = QuantParams::from_max_abs(4.0);
        for i in -400..=400 {
            let x = i as f32 / 100.0;
            let back = params.dequantize(params.quantize(x));
            assert!((x - back).abs() <= params.scale() / 2.0 + 1e-6, "{x}");
        }
    }

    #[test]
    fn quantize_saturates_and_stays_symmetric() {
        let params = QuantParams::from_max_abs(1.0);
        assert_eq!(params.quantize(10.0), 127);
        assert_eq!(params.quantize(-10.0), -127);
        assert_eq!(params.quantize(0.0), 0);
        assert_eq!(params.quantize(f32::NAN), 0);
    }

    #[test]
    fn degenerate_ranges_fall_back_to_unit_scale() {
        for bad in [0.0, -1.0, f32::NAN, f32::INFINITY] {
            let params = QuantParams::from_max_abs(bad);
            assert_eq!(params.scale(), 1.0);
            assert_eq!(params.quantize(0.0), 0);
        }
    }

    #[test]
    fn max_abs_ignores_nans() {
        assert_eq!(max_abs(&[1.0, -3.0, f32::NAN, 2.0]), 3.0);
        assert_eq!(max_abs(&[]), 0.0);
    }

    #[test]
    fn integer_gemms_match_a_scalar_reference() {
        let a: Vec<i8> = vec![1, -2, 3, 0, 5, -6];
        let b: Vec<i8> = vec![7, -8, 9, 10, -11, 12];
        // A [2,3] · B [3,2]
        let c = matmul_i8(&a, &b, 2, 3, 2).unwrap();
        assert_eq!(c, vec![-44, 8, 111, -22]);
        assert!(matmul_i8(&a, &b, 2, 2, 2).is_err());
    }

    #[test]
    fn slice_round_trip() {
        let params = QuantParams::from_max_abs(2.0);
        let xs = vec![-2.0, -1.0, 0.0, 0.5, 2.0];
        let qs = quantize_slice(&xs, params);
        assert_eq!(qs, vec![-127, -64, 0, 32, 127]);
        let back = dequantize_slice(&qs, params);
        for (x, b) in xs.iter().zip(&back) {
            assert!((x - b).abs() <= params.scale() / 2.0);
        }
    }
}
