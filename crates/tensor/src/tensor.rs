use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

use crate::{Shape, TensorError};

/// A dense, row-major `f32` tensor.
///
/// This is the golden-model data type: the reference operators in
/// [`crate::ops`] operate on it, and the functional simulator compares its
/// outputs against these.
///
/// # Example
///
/// ```
/// use cmswitch_tensor::Tensor;
///
/// let t = Tensor::zeros(vec![2, 2]);
/// assert_eq!(t.numel(), 4);
/// assert_eq!(t.get(&[1, 1]), Some(0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and its row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` does not
    /// equal the element count of `shape`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if shape.numel() != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a tensor with deterministic pseudo-random contents in
    /// `[-1, 1)`, seeded by `seed`.
    ///
    /// Deterministic seeding is how weights are generated reproducibly for a
    /// graph node in the functional simulator (the seed is derived from the
    /// node id), standing in for trained checkpoints we do not have.
    pub fn random(shape: impl Into<Shape>, seed: u64) -> Self {
        let shape = shape.into();
        let mut rng = SmallRng::seed_from_u64(seed);
        let data = (0..shape.numel())
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Read-only view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its data buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access by multi-dimensional index.
    pub fn get(&self, index: &[usize]) -> Option<f32> {
        self.shape.flat_index(index).map(|i| self.data[i])
    }

    /// Sets the element at `index`, returning `false` if out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) -> bool {
        match self.shape.flat_index(index) {
            Some(i) => {
                self.data[i] = value;
                true
            }
            None => false,
        }
    }

    /// Reinterprets the tensor with a new shape of identical element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts
    /// differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor, TensorError> {
        let shape = shape.into();
        if shape.numel() != self.numel() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.numel(),
                actual: self.numel(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Maximum absolute difference to another tensor of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32, TensorError> {
        if !self.shape.same_dims(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                op: "max_abs_diff",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// Whether every element is within `tol` of the corresponding element of
    /// `other`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.max_abs_diff(other).map(|d| d <= tol).unwrap_or(false)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{}(", self.shape)?;
        let preview: Vec<String> = self.data.iter().take(8).map(|v| format!("{v:.3}")).collect();
        write!(f, "{}", preview.join(", "))?;
        if self.numel() > 8 {
            write!(f, ", ...")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![2, 2], vec![1.0; 3]),
            Err(TensorError::ShapeDataMismatch {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(vec![2, 3]);
        assert!(t.set(&[1, 2], 7.5));
        assert_eq!(t.get(&[1, 2]), Some(7.5));
        assert!(!t.set(&[2, 0], 1.0));
        assert_eq!(t.get(&[9, 9]), None);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Tensor::random(vec![4, 4], 42);
        let b = Tensor::random(vec![4, 4], 42);
        let c = Tensor::random(vec![4, 4], 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.data().iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r = t.reshape(vec![3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(vec![4, 2]).is_err());
    }

    #[test]
    fn allclose_and_diff() {
        let a = Tensor::full(vec![2, 2], 1.0);
        let mut b = a.clone();
        b.set(&[0, 1], 1.005);
        assert!(a.allclose(&b, 0.01));
        assert!(!a.allclose(&b, 0.001));
        assert!((a.max_abs_diff(&b).unwrap() - 0.005).abs() < 1e-6);
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros(vec![10]);
        let s = t.to_string();
        assert!(s.contains("..."));
        assert!(s.starts_with("Tensor[10]("));
    }
}
