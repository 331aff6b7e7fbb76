use std::fmt;

use crate::{Result, Shape, TensorError};

/// A dense, row-major `f32` tensor.
///
/// `Tensor` is the single numerical container used throughout the workspace: images,
/// feature maps, kernels, partial sums and gradients are all `Tensor`s.  The type is
/// deliberately simple — owned storage, no views, no broadcasting beyond the few
/// operations the DNN substrate needs — which keeps the inference and extraction
/// code easy to audit against the paper's description.
///
/// # Example
///
/// ```
/// use ptolemy_tensor::Tensor;
///
/// # fn main() -> Result<(), ptolemy_tensor::TensorError> {
/// let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3])?;
/// let relu = x.map(|v| v.max(0.0));
/// assert_eq!(relu.as_slice(), &[1.0, 0.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from existing data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` does not equal the
    /// number of elements implied by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let shape = Shape::new(shape);
        if shape.len() != data.len() {
            return Err(TensorError::ShapeMismatch {
                expected: shape.dims().to_vec(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let shape = Shape::new(shape);
        Tensor {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let shape = Shape::new(shape);
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Creates an `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Returns the shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its data buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for an invalid index.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for an invalid index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a copy with a new shape holding the same number of elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        Tensor::from_vec(self.data.clone(), shape)
    }

    /// Reshapes in place, consuming the tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn into_reshaped(self, shape: &[usize]) -> Result<Tensor> {
        Tensor::from_vec(self.data, shape)
    }

    /// Applies `f` element-wise, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            data: self.data.iter().copied().map(f).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` element-wise in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Index of the largest element (ties resolved to the first occurrence).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] if the tensor has no elements.
    pub fn argmax(&self) -> Result<usize> {
        if self.data.is_empty() {
            return Err(TensorError::Empty("argmax"));
        }
        let mut best = 0;
        for (i, v) in self.data.iter().enumerate() {
            if *v > self.data[best] {
                best = i;
            }
        }
        Ok(best)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] if the tensor has no elements.
    pub fn max(&self) -> Result<f32> {
        if self.data.is_empty() {
            return Err(TensorError::Empty("max"));
        }
        Ok(self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max))
    }

    /// Smallest element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] if the tensor has no elements.
    pub fn min(&self) -> Result<f32> {
        if self.data.is_empty() {
            return Err(TensorError::Empty("min"));
        }
        Ok(self.data.iter().copied().fold(f32::INFINITY, f32::min))
    }

    /// Euclidean (L2) norm.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute value (L∞ norm); 0.0 for an empty tensor.
    pub fn linf_norm(&self) -> f32 {
        self.data.iter().map(|v| v.abs()).fold(0.0, f32::max)
    }

    /// Mean squared difference against another tensor of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if the shapes differ.
    pub fn mse(&self, other: &Tensor) -> Result<f32> {
        self.check_same_shape(other, "mse")?;
        if self.data.is_empty() {
            return Ok(0.0);
        }
        let sum: f32 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        Ok(sum / self.data.len() as f32)
    }

    /// Stacks same-shaped samples into one batched tensor with a new leading
    /// batch dimension (`[B, ...sample_shape]`, NCHW convention for images).
    ///
    /// The samples are copied back-to-back, so `slice_batch(b)` recovers
    /// sample `b` bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty sample list and
    /// [`TensorError::IncompatibleShapes`] if the samples disagree on shape.
    pub fn stack(samples: &[Tensor]) -> Result<Tensor> {
        let first = samples.first().ok_or(TensorError::Empty("stack"))?;
        let mut data = Vec::with_capacity(samples.len() * first.len());
        for sample in samples {
            first.check_same_shape(sample, "stack")?;
            data.extend_from_slice(sample.as_slice());
        }
        let mut dims = Vec::with_capacity(first.dims().len() + 1);
        dims.push(samples.len());
        dims.extend_from_slice(first.dims());
        Tensor::from_vec(data, &dims)
    }

    /// Copies sample `index` out of a batched tensor (`[B, ...]`), dropping the
    /// leading batch dimension.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidRank`] if the tensor is rank 0 and
    /// [`TensorError::IndexOutOfBounds`] if `index` exceeds the batch size.
    pub fn slice_batch(&self, index: usize) -> Result<Tensor> {
        let dims = self.dims();
        let (&batch, sample_dims) = dims.split_first().ok_or(TensorError::InvalidRank {
            expected: 1,
            actual: 0,
            op: "slice_batch",
        })?;
        if index >= batch {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![index],
                shape: dims.to_vec(),
            });
        }
        let sample_len = sample_dims.iter().product::<usize>();
        let data = self.data[index * sample_len..(index + 1) * sample_len].to_vec();
        Tensor::from_vec(data, sample_dims)
    }

    /// Moves the one sample out of a batch of one (`[1, ...]`), dropping the
    /// leading batch dimension in place: the moving [`Tensor::slice_batch`]
    /// of sample 0, which copies nothing and allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidRank`] if the tensor is rank 0 and
    /// [`TensorError::IndexOutOfBounds`] if the batch is not one sample.
    pub fn into_sample(mut self) -> Result<Tensor> {
        match self.dims().first() {
            None => Err(TensorError::InvalidRank {
                expected: 1,
                actual: 0,
                op: "into_sample",
            }),
            Some(1) => {
                self.shape.drop_leading();
                Ok(self)
            }
            Some(_) => Err(TensorError::IndexOutOfBounds {
                index: vec![1],
                shape: self.dims().to_vec(),
            }),
        }
    }

    pub(crate) fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::IncompatibleShapes {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op,
            });
        }
        Ok(())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|v| format!("{v:.4}"))
            .collect();
        write!(
            f,
            "[{}{}]",
            preview.join(", "),
            if self.len() > 8 { ", …" } else { "" }
        )
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full(&[3], 2.5).sum(), 7.5);
        let eye = Tensor::eye(3);
        assert_eq!(eye.get(&[1, 1]).unwrap(), 1.0);
        assert_eq!(eye.get(&[1, 2]).unwrap(), 0.0);
        assert_eq!(eye.sum(), 3.0);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 7.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 7.0);
        assert!(t.set(&[2, 0], 1.0).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshape(&[4]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.max().unwrap(), 3.0);
        assert_eq!(t.min().unwrap(), -2.0);
        assert_eq!(t.argmax().unwrap(), 2);
        assert_eq!(t.linf_norm(), 3.0);
        assert!((t.l2_norm() - 14.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn empty_reductions_error() {
        let t = Tensor::zeros(&[0]);
        assert!(t.argmax().is_err());
        assert!(t.max().is_err());
        assert!(t.min().is_err());
        assert_eq!(t.mean(), 0.0);
    }

    #[test]
    fn mse_between_tensors() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 2.0], &[2]).unwrap();
        assert_eq!(a.mse(&b).unwrap(), 2.0);
        let c = Tensor::zeros(&[3]);
        assert!(a.mse(&c).is_err());
    }

    #[test]
    fn map_applies_function() {
        let t = Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap();
        assert_eq!(t.map(f32::abs).as_slice(), &[1.0, 2.0]);
        let mut u = t.clone();
        u.map_inplace(|v| v * 2.0);
        assert_eq!(u.as_slice(), &[-2.0, 4.0]);
    }

    #[test]
    fn stack_and_slice_batch_roundtrip() {
        let samples: Vec<Tensor> = (0..3).map(|b| Tensor::full(&[2, 2], b as f32)).collect();
        let batch = Tensor::stack(&samples).unwrap();
        assert_eq!(batch.dims(), &[3, 2, 2]);
        for (b, sample) in samples.iter().enumerate() {
            assert_eq!(batch.slice_batch(b).unwrap(), *sample);
        }
        assert!(batch.slice_batch(3).is_err());
        // A batch of one gives its sample up in place.
        let one = Tensor::stack(&samples[1..2]).unwrap();
        assert_eq!(
            one.slice_batch(0).unwrap(),
            one.clone().into_sample().unwrap()
        );
        assert!(batch.into_sample().is_err());
        assert!(Tensor::full(&[], 1.0).into_sample().is_err());
    }

    #[test]
    fn stack_rejects_empty_and_mismatched_samples() {
        assert!(Tensor::stack(&[]).is_err());
        let mixed = [Tensor::zeros(&[2]), Tensor::zeros(&[3])];
        assert!(Tensor::stack(&mixed).is_err());
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::zeros(&[10]);
        assert!(format!("{t}").contains("Tensor"));
        assert!(!format!("{:?}", Tensor::default()).is_empty());
    }
}
