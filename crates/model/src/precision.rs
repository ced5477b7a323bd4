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

/// A training-time precision policy: which format carries the bulk of the
/// compute, and whether FP32 master copies are kept (mixed precision).
///
/// Table IV of the paper compares "Full" against "Mixed" policies on the IPU
/// and RDU, and FP16 against CB16 on the WSE. [`PrecisionPolicy`] captures
/// that axis independently of the element format.
///
/// # Example
///
/// ```
/// use dabench_model::{Precision, PrecisionPolicy};
/// let mixed = PrecisionPolicy::mixed(Precision::Bf16);
/// assert!(mixed.is_mixed());
/// assert_eq!(mixed.compute(), Precision::Bf16);
/// // Mixed precision keeps an FP32 master copy, so optimizer state is wider.
/// assert_eq!(mixed.master_bytes_per_param(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrecisionPolicy {
    compute: Precision,
    mixed: bool,
}

impl PrecisionPolicy {
    /// Pure single-format training in `compute` precision.
    #[must_use]
    pub const fn pure(compute: Precision) -> Self {
        Self {
            compute,
            mixed: false,
        }
    }

    /// Mixed-precision training: compute in `compute`, FP32 master weights.
    #[must_use]
    pub const fn mixed(compute: Precision) -> Self {
        Self {
            compute,
            mixed: true,
        }
    }

    /// Full FP32 training ("Full" column of Table IV).
    #[must_use]
    pub const fn full() -> Self {
        Self::pure(Precision::Fp32)
    }

    /// The format arithmetic is performed in.
    #[must_use]
    pub const fn compute(self) -> Precision {
        self.compute
    }

    /// Whether FP32 master weights are kept alongside low-precision compute.
    #[must_use]
    pub const fn is_mixed(self) -> bool {
        self.mixed
    }

    /// Bytes per parameter for the master copy used by the optimizer.
    #[must_use]
    pub const fn master_bytes_per_param(self) -> u64 {
        if self.mixed {
            4
        } else {
            self.compute.bytes_per_element()
        }
    }

    /// Bytes per parameter of the working (compute) copy of the weights.
    #[must_use]
    pub const fn working_bytes_per_param(self) -> u64 {
        self.compute.bytes_per_element()
    }

    /// Human-readable label, e.g. `"mixed(bf16)"` or `"fp32"`.
    #[must_use]
    pub fn label(self) -> String {
        if self.mixed {
            format!("mixed({})", self.compute)
        } else {
            self.compute.as_str().to_owned()
        }
    }
}

impl Default for PrecisionPolicy {
    fn default() -> Self {
        Self::pure(Precision::Fp16)
    }
}

impl fmt::Display for PrecisionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
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
    fn mixed_policy_keeps_fp32_master() {
        let p = PrecisionPolicy::mixed(Precision::Fp16);
        assert_eq!(p.master_bytes_per_param(), 4);
        assert_eq!(p.working_bytes_per_param(), 2);
    }

    #[test]
    fn pure_policy_master_matches_compute() {
        let p = PrecisionPolicy::pure(Precision::Bf16);
        assert_eq!(p.master_bytes_per_param(), 2);
        assert!(!p.is_mixed());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PrecisionPolicy::full().label(), "fp32");
        assert_eq!(
            PrecisionPolicy::mixed(Precision::Bf16).label(),
            "mixed(bf16)"
        );
        assert_eq!(format!("{}", Precision::Cb16), "cb16");
    }
}
