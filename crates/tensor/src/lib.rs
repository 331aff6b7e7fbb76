//! # ptolemy-tensor
//!
//! A small, dependency-light tensor library used as the numerical substrate of the
//! Ptolemy reproduction.  It provides row-major `f32` tensors with NCHW helpers,
//! matrix multiplication, `im2col`/`col2im` lowering for convolutions, seeded random
//! initialisation, and the element-wise operations the DNN substrate
//! (`ptolemy-nn`) and the attack generators (`ptolemy-attacks`) need.
//!
//! The library intentionally avoids external BLAS back-ends: a pure-Rust
//! implementation keeps the reproduction self-contained and portable.  Raw
//! speed comes from the in-tree blocked, register-tiled GEMM microkernel
//! ([`gemm`]) — bit-for-bit identical to the naive reference loop — plus a
//! symmetric int8 quantization module ([`quant`]) for the integer inference
//! path.
//!
//! # Example
//!
//! ```
//! use ptolemy_tensor::Tensor;
//!
//! # fn main() -> Result<(), ptolemy_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv;
mod conv_grad;
mod error;
pub mod gemm;
pub mod gemm_i8;
mod im2col;
mod im2col_i8;
mod init;
mod ops;
pub mod parallel;
pub mod quant;
mod shape;
mod tensor;

pub use conv::{conv2d_forward, PackedWeights};
pub use conv_grad::{conv2d_backward_input, conv2d_backward_params};
pub use error::TensorError;
pub use gemm::{gemm_nn_into, matmul_blocked, matmul_parallel};
pub use gemm_i8::{matmul_i8_blocked, matmul_i8_parallel};
pub use im2col::{col2im, im2col, im2col_batch, Conv2dGeometry};
pub use im2col_i8::{im2col_i8, im2col_i8_batch};
pub use init::{Initializer, Rng64};
pub use parallel::{available_parallelism, par_row_chunks, ThreadClaim};
pub use quant::{max_abs, quantize_slice, QuantParams};
pub use shape::Shape;
pub use tensor::Tensor;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
