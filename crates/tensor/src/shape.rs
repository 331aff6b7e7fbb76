use std::fmt;

use crate::{Result, TensorError};

/// Dimension list of a tensor, stored in row-major order.
///
/// `Shape` is a thin wrapper over `Vec<usize>` that adds the strided-indexing
/// arithmetic the rest of the workspace needs (offset computation, NCHW accessors,
/// element counting).
///
/// # Example
///
/// ```
/// use ptolemy_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// assert_eq!(s.offset(&[1, 2, 3]).unwrap(), 23);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a dimension slice.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Returns the dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Removes the leading dimension in place (the caller has checked it is
    /// 1, so the element count stands).
    pub(crate) fn drop_leading(&mut self) {
        self.0.remove(0);
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// Returns `true` if the shape holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index rank does not match or
    /// any coordinate exceeds its dimension.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.0.len() || index.iter().zip(&self.0).any(|(i, d)| i >= d) {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.0.clone(),
            });
        }
        Ok(index.iter().zip(self.strides()).map(|(i, s)| i * s).sum())
    }

    /// Converts a flat offset back to a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `offset >= self.len()`.
    pub fn unravel(&self, offset: usize) -> Result<Vec<usize>> {
        if offset >= self.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![offset],
                shape: self.0.clone(),
            });
        }
        let mut rem = offset;
        let mut index = Vec::with_capacity(self.0.len());
        for stride in self.strides() {
            index.push(rem / stride);
            rem %= stride;
        }
        Ok(index)
    }

    /// Interprets the shape as a matrix and returns `(rows, cols)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidRank`] unless the rank is exactly 2.
    pub fn as_matrix(&self) -> Result<(usize, usize)> {
        if self.0.len() != 2 {
            return Err(TensorError::InvalidRank {
                expected: 2,
                actual: self.0.len(),
                op: "as_matrix",
            });
        }
        Ok((self.0[0], self.0[1]))
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl AsRef<[usize]> for Shape {
    fn as_ref(&self) -> &[usize] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert_eq!(Shape::new(&[]).strides(), Vec::<usize>::new());
    }

    #[test]
    fn offset_and_unravel_roundtrip() {
        let s = Shape::new(&[3, 4, 5]);
        for flat in 0..s.len() {
            let idx = s.unravel(flat).unwrap();
            assert_eq!(s.offset(&idx).unwrap(), flat);
        }
    }

    #[test]
    fn offset_rejects_out_of_bounds() {
        let s = Shape::new(&[2, 2]);
        assert!(s.offset(&[2, 0]).is_err());
        assert!(s.offset(&[0]).is_err());
        assert!(s.unravel(4).is_err());
    }

    #[test]
    fn matrix_accessor() {
        assert_eq!(Shape::new(&[4, 7]).as_matrix().unwrap(), (4, 7));
        assert!(Shape::new(&[4, 7, 1]).as_matrix().is_err());
    }

    #[test]
    fn conversions() {
        let from_slice: Shape = (&[1usize, 2][..]).into();
        let from_vec: Shape = vec![1usize, 2].into();
        assert_eq!(from_slice, from_vec);
        assert_eq!(from_slice.as_ref(), &[1, 2]);
        assert_eq!(format!("{from_slice}"), "[1, 2]");
    }
}
