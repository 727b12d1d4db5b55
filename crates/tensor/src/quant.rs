//! Symmetric 8-bit quantization.
//!
//! The paper's benchmarks are "quantized with 8-bit precision for weights
//! and activations"; CIM arrays store int8 weights and accumulate in wider
//! integers. This module provides the symmetric per-tensor scheme used by
//! the functional simulator.

use crate::{Tensor, TensorError};

/// A symmetric per-tensor int8 quantization of an `f32` tensor.
///
/// `real ≈ scale · q` with `q ∈ [-127, 127]`.
///
/// # Example
///
/// ```
/// use cmswitch_tensor::{Tensor, quant::QuantizedTensor};
///
/// let t = Tensor::from_vec(vec![2], vec![0.5, -1.0])?;
/// let q = QuantizedTensor::quantize(&t);
/// let back = q.dequantize();
/// assert!(t.allclose(&back, 0.02));
/// # Ok::<(), cmswitch_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    dims: Vec<usize>,
    scale: f32,
    values: Vec<i8>,
}

impl QuantizedTensor {
    /// Quantizes a tensor with a scale chosen from its max magnitude.
    ///
    /// An all-zero tensor quantizes with scale 1 (any scale reproduces it).
    pub fn quantize(t: &Tensor) -> Self {
        let max = t.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
        let values = t
            .data()
            .iter()
            .map(|v| (v / scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        QuantizedTensor {
            dims: t.shape().dims().to_vec(),
            scale,
            values,
        }
    }

    /// The quantization scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The quantized int8 values.
    pub fn values(&self) -> &[i8] {
        &self.values
    }

    /// The tensor dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Reconstructs the approximate `f32` tensor.
    pub fn dequantize(&self) -> Tensor {
        let data = self.values.iter().map(|&q| q as f32 * self.scale).collect();
        Tensor::from_vec(self.dims.clone(), data).expect("dims match values by construction")
    }

    /// Worst-case rounding error of this quantization (half a step).
    pub fn step(&self) -> f32 {
        self.scale * 0.5
    }
}

/// Integer matrix multiply of two quantized matrices with i32 accumulation,
/// returning the dequantized `f32` result.
///
/// This mirrors what a CIM array does: int8 cells, analog/digital
/// accumulation, scale applied at the output.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] for incompatible dims.
pub fn qmatmul(a: &QuantizedTensor, b: &QuantizedTensor) -> Result<Tensor, TensorError> {
    if a.dims.len() != 2 || b.dims.len() != 2 || a.dims[1] != b.dims[0] {
        return Err(TensorError::ShapeMismatch {
            op: "qmatmul",
            lhs: a.dims.clone(),
            rhs: b.dims.clone(),
        });
    }
    let (m, k) = (a.dims[0], a.dims[1]);
    let n = b.dims[1];
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc: i32 = 0;
            for p in 0..k {
                acc += a.values[i * k + p] as i32 * b.values[p * n + j] as i32;
            }
            out[i * n + j] = acc as f32 * a.scale * b.scale;
        }
    }
    Tensor::from_vec(vec![m, n], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_error_bounded_by_step() {
        let t = Tensor::random(vec![16, 16], 7);
        let q = QuantizedTensor::quantize(&t);
        let back = q.dequantize();
        assert!(t.max_abs_diff(&back).unwrap() <= q.step() + 1e-6);
    }

    #[test]
    fn zero_tensor_quantizes_exactly() {
        let t = Tensor::zeros(vec![4]);
        let q = QuantizedTensor::quantize(&t);
        assert_eq!(q.dequantize(), t);
    }

    #[test]
    fn qmatmul_close_to_f32_matmul() {
        let a = Tensor::random(vec![8, 8], 100);
        let b = Tensor::random(vec![8, 8], 101);
        let exact = ops::matmul(&a, &b).unwrap();
        let approx = qmatmul(
            &QuantizedTensor::quantize(&a),
            &QuantizedTensor::quantize(&b),
        )
        .unwrap();
        // int8 x int8 over K=8: error well under 0.1 for unit-range data.
        assert!(exact.allclose(&approx, 0.1));
    }

    #[test]
    fn qmatmul_rejects_bad_shapes() {
        let a = QuantizedTensor::quantize(&Tensor::zeros(vec![2, 3]));
        let b = QuantizedTensor::quantize(&Tensor::zeros(vec![4, 2]));
        assert!(qmatmul(&a, &b).is_err());
    }

    proptest! {
        #[test]
        fn quantized_values_in_range(seed in 0u64..500) {
            let t = Tensor::random(vec![32], seed);
            let q = QuantizedTensor::quantize(&t);
            prop_assert!(q.values().iter().all(|&v| (-127..=127).contains(&(v as i32))));
        }

        #[test]
        fn dequantize_preserves_sign(seed in 0u64..500) {
            let t = Tensor::random(vec![32], seed);
            let q = QuantizedTensor::quantize(&t);
            let back = q.dequantize();
            for (orig, deq) in t.data().iter().zip(back.data()) {
                // Signs agree wherever the original is clearly nonzero.
                if orig.abs() > q.scale() {
                    prop_assert!(orig.signum() == deq.signum());
                }
            }
        }
    }
}
