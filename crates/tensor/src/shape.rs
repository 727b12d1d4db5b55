use std::fmt;

use crate::TensorError;

/// A dense, row-major tensor shape.
///
/// Shapes are small (`rank ≤ 8` in practice, usually ≤ 4) so a `Vec<usize>`
/// is plenty. The type offers element counting, stride computation and
/// flat-index conversion — the ingredients the reference operators and the
/// functional simulator need.
///
/// # Example
///
/// ```
/// use cmswitch_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// assert_eq!(s.flat_index(&[1, 2, 3]), Some(23));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from its dimensions.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// Returns the scalar shape (rank 0).
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// The dimensions of the shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (1 for the scalar shape).
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Size of dimension `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize, TensorError> {
        self.dims
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            })
    }

    /// Row-major strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// Returns `None` if the index rank mismatches or any coordinate is out
    /// of bounds.
    pub fn flat_index(&self, index: &[usize]) -> Option<usize> {
        if index.len() != self.dims.len() {
            return None;
        }
        let mut flat = 0usize;
        for ((&i, &d), stride) in index.iter().zip(&self.dims).zip(self.strides()) {
            if i >= d {
                return None;
            }
            flat += i * stride;
        }
        Some(flat)
    }

    /// Inverse of [`Shape::flat_index`]: converts a flat offset into a
    /// multi-dimensional index.
    ///
    /// Returns `None` if `flat >= numel()`.
    pub fn unravel(&self, flat: usize) -> Option<Vec<usize>> {
        if flat >= self.numel() {
            return None;
        }
        let mut rem = flat;
        let mut idx = Vec::with_capacity(self.rank());
        for stride in self.strides() {
            idx.push(rem / stride);
            rem %= stride;
        }
        Some(idx)
    }

    /// Whether two shapes are elementwise-compatible (identical dims).
    pub fn same_dims(&self, other: &Shape) -> bool {
        self.dims == other.dims
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn numel_and_strides() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.numel(), 1);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.flat_index(&[]), Some(0));
    }

    #[test]
    fn flat_index_bounds() {
        let s = Shape::new(vec![2, 3]);
        assert_eq!(s.flat_index(&[1, 2]), Some(5));
        assert_eq!(s.flat_index(&[2, 0]), None);
        assert_eq!(s.flat_index(&[0]), None);
    }

    #[test]
    fn dim_out_of_range_errors() {
        let s = Shape::new(vec![2]);
        assert!(matches!(
            s.dim(3),
            Err(TensorError::AxisOutOfRange { axis: 3, rank: 1 })
        ));
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "[2x3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    proptest! {
        #[test]
        fn unravel_roundtrips(dims in proptest::collection::vec(1usize..6, 1..4), frac in 0.0f64..1.0) {
            let s = Shape::new(dims);
            let flat = ((s.numel() as f64 - 1.0) * frac) as usize;
            let idx = s.unravel(flat).unwrap();
            prop_assert_eq!(s.flat_index(&idx), Some(flat));
        }

        #[test]
        fn strides_product_matches_numel(dims in proptest::collection::vec(1usize..6, 1..4)) {
            let s = Shape::new(dims.clone());
            prop_assert_eq!(s.strides()[0] * dims[0], s.numel());
        }
    }
}
