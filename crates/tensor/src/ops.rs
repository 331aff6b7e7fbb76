//! Arithmetic operations on [`Tensor`]: element-wise maths, scalar maths and matrix
//! multiplication.  Everything here is shape-checked; the DNN substrate relies on
//! these checks as cheap internal assertions.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction (`self - other`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "mul", |a, b| a * b)
    }

    /// Adds `other * scale` into `self` in place (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if the shapes differ.
    pub fn add_scaled_inplace(&mut self, other: &Tensor, scale: f32) -> Result<()> {
        self.check_same_shape(other, "add_scaled_inplace")?;
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b * scale;
        }
        Ok(())
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, factor: f32) -> Tensor {
        self.map(|v| v * factor)
    }

    /// Clamps every element into `[lo, hi]`, returning a new tensor.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Element-wise sign (−1, 0 or 1).
    pub fn signum(&self) -> Tensor {
        self.map(|v| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if the element counts differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.len() != other.len() {
            return Err(TensorError::IncompatibleShapes {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "dot",
            });
        }
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Matrix multiplication of two rank-2 tensors.
    ///
    /// Runs the blocked, register-tiled kernel from [`crate::gemm`], fanning
    /// rows out when the product's MACs pass the work gate
    /// ([`crate::gemm::matmul_parallel`]).  Every routing choice (blocked vs
    /// naive, serial vs parallel) is bit-for-bit identical to
    /// [`Tensor::matmul_naive`] — see the `gemm` module docs for why.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidRank`] if either operand is not rank 2 and
    /// [`TensorError::IncompatibleShapes`] if the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        crate::gemm::matmul_parallel(self, other)
    }

    /// Matrix multiplication via the original naive scalar triple loop.
    ///
    /// This is the reference kernel the workspace's bit-parity contract is
    /// defined against — the plain ascending-`k` sum, no term skipped;
    /// [`Tensor::matmul`] must (and does, proptest-pinned)
    /// return bit-identical results.  Kept public for the parity suite
    /// (`crates/tensor/tests/gemm_parity.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidRank`] if either operand is not rank 2 and
    /// [`TensorError::IncompatibleShapes`] if the inner dimensions disagree.
    pub fn matmul_naive(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = self.shape().as_matrix()?;
        let (k2, n) = other.shape().as_matrix()?;
        if k != k2 {
            return Err(TensorError::IncompatibleShapes {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "matmul",
            });
        }
        let mut out = vec![0.0f32; m * n];
        // i-k-j loop order keeps the inner loop contiguous over `b` and `out`.
        crate::gemm::matmul_naive_into(&mut out, self.as_slice(), other.as_slice(), m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidRank`] if the tensor is not rank 2.
    pub fn transpose(&self) -> Result<Tensor> {
        let (m, n) = self.shape().as_matrix()?;
        let a = self.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Row-wise softmax of a rank-2 tensor (numerically stabilised).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidRank`] if the tensor is not rank 2.
    pub fn softmax_rows(&self) -> Result<Tensor> {
        let (m, n) = self.shape().as_matrix()?;
        let mut out = self.as_slice().to_vec();
        for row in out.chunks_mut(n) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Tensor,
        op: &'static str,
        f: F,
    ) -> Result<Tensor> {
        self.check_same_shape(other, op)?;
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| f(*a, *b))
            .collect();
        Tensor::from_vec(data, self.dims())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[-3.0, -3.0, -3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0, 2.0, 3.0], &[3]);
        assert!(a.add(&b).is_err());
        assert!(a.sub(&b).is_err());
        assert!(a.mul(&b).is_err());
        assert!(a.dot(&b).is_err());
        let mut a2 = a.clone();
        assert!(a2.add_scaled_inplace(&b, 1.0).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(&[1.0, 1.0], &[2]);
        let g = t(&[2.0, 4.0], &[2]);
        a.add_scaled_inplace(&g, 0.5).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn clamp_and_sign() {
        let a = t(&[-2.0, 0.0, 5.0], &[3]);
        assert_eq!(a.clamp(-1.0, 1.0).as_slice(), &[-1.0, 0.0, 1.0]);
        assert_eq!(a.signum().as_slice(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn matmul_small() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let c = a.matmul(&Tensor::eye(2)).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t(&[1.0, 2.0], &[2]);
        assert!(a.matmul(&Tensor::eye(2)).is_err());
        let b = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let c = t(&[1.0, 2.0, 3.0], &[3, 1]);
        assert!(b.matmul(&c).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.transpose().unwrap();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.transpose().unwrap(), a);
        assert_eq!(at.get(&[2, 1]).unwrap(), 6.0);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let a = t(&[1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]);
        let s = a.softmax_rows().unwrap();
        for row in s.as_slice().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|v| *v > 0.0));
        }
        // Uniform logits yield a uniform distribution.
        assert!((s.get(&[1, 0]).unwrap() - 1.0 / 3.0).abs() < 1e-5);
    }
}
