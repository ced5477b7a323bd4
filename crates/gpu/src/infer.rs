//! GPU serving model: weights and KV cache in HBM.
//!
//! The reference baseline for the dataflow platforms: 80 GB of HBM at
//! 2 TB/s. Decode is memory-bound (the textbook LLM-serving regime) and
//! capacity is the binding constraint at large batch × long context —
//! exactly the gap FP8 KV caches and dataflow SRAM machines attack.

use crate::chip::GpuSpec;
use dabench_core::InferModel;

/// CUDA kernel-launch + scheduler overhead per decode step.
const LAUNCH_OVERHEAD_S: f64 = 20e-6;

/// Build the serving model of one GPU.
#[must_use]
pub fn infer_model(spec: &GpuSpec) -> InferModel {
    InferModel {
        platform: "gpu".into(),
        peak_tflops: spec.peak_tflops,
        sustained_efficiency: spec.mfu,
        mem_bw_bytes_per_s: spec.hbm_bw_bytes_per_s,
        kv_level: "hbm".into(),
        kv_capacity_bytes: spec.hbm_bytes,
        step_overhead_s: LAUNCH_OVERHEAD_S,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_core::{profile_inference, BoundKind, PlatformError};
    use dabench_model::{InferenceWorkload, ModelConfig, Precision};

    fn w(batch: u64, prompt: u64) -> InferenceWorkload {
        InferenceWorkload::new(
            ModelConfig::llama2_7b(),
            batch,
            prompt,
            128,
            Precision::Fp16,
        )
        .unwrap()
    }

    #[test]
    fn decode_is_memory_bound_prefill_is_not() {
        let m = infer_model(&GpuSpec::a100());
        let r = profile_inference(&m, &w(8, 512)).unwrap();
        assert_eq!(r.prefill_bound, BoundKind::ComputeBound);
        assert_eq!(r.decode_bound, BoundKind::MemoryBound);
    }

    #[test]
    fn hbm_overflows_at_large_batch_and_context() {
        let m = infer_model(&GpuSpec::a100());
        assert!(profile_inference(&m, &w(32, 512)).is_ok());
        let err = profile_inference(&m, &w(96, 2048)).unwrap_err();
        assert!(
            matches!(err, PlatformError::OutOfMemory { ref level, .. } if level == "hbm"),
            "{err}"
        );
    }

    #[test]
    fn fp8_kv_recovers_the_overflowing_point() {
        let m = infer_model(&GpuSpec::a100());
        let w8 = w(96, 2048).with_kv_precision(Precision::Fp8);
        assert!(profile_inference(&m, &w8).is_ok());
    }
}
