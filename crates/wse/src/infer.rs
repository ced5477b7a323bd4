//! WSE serving model: weights and KV cache resident in wafer SRAM.
//!
//! The CS-2 serves inference out of its 40 GB of PE-local SRAM at the full
//! 20 PB/s aggregate memory bandwidth, so decode — memory-bound on every
//! other platform — runs close to the compute roofline here. The flip side
//! is capacity: weights + KV cache must fit in SRAM, so batch and context
//! hit a hard wall long before a DDR-backed machine would.

use crate::chip::{WseCompilerParams, WseSpec};
use dabench_core::InferModel;

/// Per-kernel-launch overhead of the spatial pipeline: once configured,
/// tokens stream through the fabric with no host round-trip, so the
/// per-step cost is a fabric reconfiguration, not a kernel launch.
const STEP_OVERHEAD_S: f64 = 1.0e-6;

/// Build the serving model of a wafer-scale engine.
#[must_use]
pub fn infer_model(spec: &WseSpec, params: &WseCompilerParams) -> InferModel {
    InferModel {
        platform: "wse".into(),
        peak_tflops: spec.peak_tflops(),
        sustained_efficiency: params.sustained_gemm_efficiency,
        mem_bw_bytes_per_s: spec.mem_bw_bytes_per_s,
        kv_level: "pe-sram".into(),
        kv_capacity_bytes: spec.total_sram_bytes(),
        step_overhead_s: STEP_OVERHEAD_S,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_core::{profile_inference, BoundKind, PlatformError};
    use dabench_model::{InferenceWorkload, ModelConfig, Precision};

    fn w(batch: u64) -> InferenceWorkload {
        InferenceWorkload::new(ModelConfig::llama2_7b(), batch, 512, 128, Precision::Fp16).unwrap()
    }

    #[test]
    fn sram_bandwidth_makes_decode_compute_bound() {
        // 20 PB/s puts the ridge at ~0.08 FLOP/B — far below decode's
        // per-batch intensity, unlike every DDR/HBM-backed platform.
        let m = infer_model(&WseSpec::cs2(), &WseCompilerParams::default());
        let r = profile_inference(&m, &w(8)).unwrap();
        assert_eq!(r.decode_bound, BoundKind::ComputeBound);
    }

    #[test]
    fn sram_capacity_is_the_batch_wall() {
        let m = infer_model(&WseSpec::cs2(), &WseCompilerParams::default());
        assert!(profile_inference(&m, &w(8)).is_ok());
        let err = profile_inference(&m, &w(128)).unwrap_err();
        assert!(
            matches!(err, PlatformError::OutOfMemory { ref level, .. } if level == "pe-sram"),
            "{err}"
        );
    }

    #[test]
    fn fp8_kv_extends_the_batch_wall() {
        let m = infer_model(&WseSpec::cs2(), &WseCompilerParams::default());
        // Find a batch that overflows at fp16 KV but fits at fp8.
        let w16 = w(96);
        assert!(profile_inference(&m, &w16).is_err());
        let w8 = w16.with_kv_precision(Precision::Fp8);
        assert!(profile_inference(&m, &w8).is_ok());
    }
}
