//! Numeric precision formats supported by the benchmarked accelerators.

use std::fmt;

/// A numeric storage/compute format for model weights and activations.
///
/// The three accelerators in the paper expose different format menus:
/// the WSE-2 supports IEEE FP16 and Cerebras' own `CB16` block format, the
/// RDU trains in BF16 (optionally mixed with FP32 master weights), and the
/// IPU offers FP32 ("full") and FP16-based mixed precision. The GPU
/// reference uses FP16 mixed precision.
///
/// # Example
///
/// ```
/// use dabench_model::Precision;
/// assert_eq!(Precision::Fp16.bytes_per_element(), 2);
/// assert!(Precision::Fp32.bytes_per_element() > Precision::Bf16.bytes_per_element());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// IEEE 754 single precision (32-bit).
    Fp32,
    /// IEEE 754 half precision (16-bit).
    #[default]
    Fp16,
    /// bfloat16 (16-bit, FP32 exponent range).
    Bf16,
    /// Cerebras `CB16` block floating point (16-bit storage with shared
    /// exponent handling in the fabric).
    Cb16,
    /// 8-bit floating point (E4M3/E5M2-style). Used as a *storage* format
    /// for inference KV caches; none of the modelled platforms computes
    /// in FP8, so training workloads do not accept it.
    Fp8,
}

impl Precision {
    /// Storage size of one element in bytes.
    #[must_use]
    pub const fn bytes_per_element(self) -> u64 {
        match self {
            Precision::Fp32 => 4,
            Precision::Fp16 | Precision::Bf16 | Precision::Cb16 => 2,
            Precision::Fp8 => 1,
        }
    }

    /// Whether this is a 16-bit ("half-width") format.
    #[must_use]
    pub const fn is_half_width(self) -> bool {
        matches!(self, Precision::Fp16 | Precision::Bf16 | Precision::Cb16)
    }

    /// Short lowercase name used in reports, e.g. `"fp16"`.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Precision::Fp32 => "fp32",
            Precision::Fp16 => "fp16",
            Precision::Bf16 => "bf16",
            Precision::Cb16 => "cb16",
            Precision::Fp8 => "fp8",
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_sizes() {
        assert_eq!(Precision::Fp32.bytes_per_element(), 4);
        assert_eq!(Precision::Fp16.bytes_per_element(), 2);
        assert_eq!(Precision::Bf16.bytes_per_element(), 2);
        assert_eq!(Precision::Cb16.bytes_per_element(), 2);
        assert_eq!(Precision::Fp8.bytes_per_element(), 1);
    }

    #[test]
    fn fp8_is_not_half_width() {
        // `is_half_width` means "16-bit"; FP8 is narrower still.
        assert!(!Precision::Fp8.is_half_width());
        assert_eq!(format!("{}", Precision::Fp8), "fp8");
    }

    #[test]
    fn half_width_classification() {
        assert!(!Precision::Fp32.is_half_width());
        assert!(Precision::Fp16.is_half_width());
        assert!(Precision::Cb16.is_half_width());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(format!("{}", Precision::Fp32), "fp32");
        assert_eq!(format!("{}", Precision::Cb16), "cb16");
    }
}
