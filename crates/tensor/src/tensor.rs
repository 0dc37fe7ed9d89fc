//! The owned dense tensor type.

use std::error::Error;
use std::fmt;

use crate::simd;
use crate::Shape;

/// Error produced by fallible tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two tensors were expected to have identical shapes.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        left: Shape,
        /// Shape of the right-hand operand.
        right: Shape,
    },
    /// A buffer length did not match the number of elements of the shape.
    LengthMismatch {
        /// Elements implied by the requested shape.
        expected: usize,
        /// Elements actually provided.
        got: usize,
    },
    /// A shape was structurally invalid for the requested operation.
    InvalidShape {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left} vs {right}")
            }
            TensorError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "length mismatch: expected {expected} elements, got {got}"
                )
            }
            TensorError::InvalidShape { reason } => write!(f, "invalid shape: {reason}"),
        }
    }
}

impl Error for TensorError {}

/// An owned, row-major, N-dimensional array of `f32`.
///
/// The layout is contiguous row-major (C order); convolution kernels in
/// [`crate::conv`] interpret rank-4 tensors as NCHW.
///
/// # Example
///
/// ```
/// use rte_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(t.at(&[1, 2]), 6.0);
/// assert_eq!(t.sum(), 21.0);
/// # Ok::<(), rte_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the element count implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                got: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor by evaluating `f` at each flat row-major index.
    pub fn from_fn(dims: &[usize], f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: (0..n).map(f).collect(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Extent of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn dim(&self, i: usize) -> usize {
        self.shape.dim(i)
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Flat row-major view of the data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds
    /// (bounds are checked in debug builds).
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// See [`Tensor::at`].
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.shape.offset(idx);
        self.data[off] = value;
    }

    /// Returns a tensor with the same data but a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(mut self, dims: &[usize]) -> Result<Self, TensorError> {
        let new_shape = Shape::new(dims);
        if new_shape.numel() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: new_shape.numel(),
                got: self.data.len(),
            });
        }
        self.shape = new_shape;
        Ok(self)
    }

    fn check_same_shape(&self, other: &Tensor) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        Ok(())
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other)?;
        Ok(self.zip_with(other, |a, b| a + b))
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other)?;
        Ok(self.zip_with(other, |a, b| a - b))
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other)?;
        Ok(self.zip_with(other, |a, b| a * b))
    }

    /// In-place elementwise sum: `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), TensorError> {
        self.check_same_shape(other)?;
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place `self += alpha * other` (BLAS `axpy`), on the
    /// process-global [`crate::simd`] arm (bit-identical per arm).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), TensorError> {
        self.check_same_shape(other)?;
        simd::axpy(alpha, &other.data, &mut self.data);
        Ok(())
    }

    /// Returns `self` scaled by a constant (vectorized via
    /// [`crate::simd`]).
    pub fn scale(&self, alpha: f32) -> Tensor {
        let mut out = self.clone();
        simd::scale(alpha, &mut out.data);
        out
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ (callers inside this crate check shapes
    /// first; use the fallible [`Tensor::add`]-family externally).
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_with shape mismatch");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Sum of all elements (f64 accumulation).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    ///
    /// Returns `0.0` for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Minimum element, or `None` for an empty tensor.
    pub fn min(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::min)
    }

    /// Maximum element, or `None` for an empty tensor.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::max)
    }

    /// Dot product of the flattened tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32, TensorError> {
        self.check_same_shape(other)?;
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum::<f64>() as f32)
    }

    /// Squared L2 norm of the tensor.
    pub fn norm_sq(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>() as f32
    }

    /// L2 norm of the tensor.
    pub fn norm(&self) -> f32 {
        (self.norm_sq() as f64).sqrt() as f32
    }

    /// True when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|x| format!("{x:.4}"))
            .collect();
        write!(f, "[{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[2, 2]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[3]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[4], 2.5).data().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[2]).is_ok());
        let err = Tensor::from_vec(vec![1.0, 2.0], &[3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 7.0);
        assert_eq!(t.at(&[1, 2, 3]), 7.0);
        assert_eq!(t.data()[23], 7.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(matches!(a.add(&b), Err(TensorError::ShapeMismatch { .. })));
        assert!(matches!(a.dot(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-1.0, 0.0, 3.0, 2.0], &[4]).unwrap();
        assert_eq!(t.sum(), 4.0);
        assert_eq!(t.mean(), 1.0);
        assert_eq!(t.min(), Some(-1.0));
        assert_eq!(t.max(), Some(3.0));
        assert_eq!(t.norm_sq(), 14.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let r = t.reshape(&[2, 2]).unwrap();
        assert_eq!(r.at(&[1, 0]), 3.0);
        assert!(r.clone().reshape(&[5]).is_err());
    }

    #[test]
    fn dot_and_norm() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 2.0], &[3]).unwrap();
        assert_eq!(a.dot(&a).unwrap(), 9.0);
        assert_eq!(a.norm(), 3.0);
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::zeros(&[10]);
        let s = t.to_string();
        assert!(s.contains("Tensor[10]"));
        assert!(s.contains('…'));
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut t = Tensor::zeros(&[2]);
        assert!(t.is_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(!t.is_finite());
    }
}
