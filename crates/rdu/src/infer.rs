//! RDU serving model: weights and KV cache resident in DDR.
//!
//! The SN30's 512 GB of DDR swallows any KV cache this benchmark sweeps —
//! capacity is a non-issue — but the 0.2 TB/s feeding it makes decode
//! deeply memory-bound: every generated token re-streams the weights plus
//! the whole cache through the narrowest pipe of the four platforms.

use crate::chip::{RduCompilerParams, RduSpec};
use dabench_core::InferModel;

/// Build the serving model of one RDU.
#[must_use]
pub fn infer_model(spec: &RduSpec, params: &RduCompilerParams) -> InferModel {
    InferModel {
        platform: "rdu".into(),
        peak_tflops: spec.peak_tflops(),
        sustained_efficiency: params.pcu_sustained_efficiency,
        mem_bw_bytes_per_s: spec.ddr_bw_bytes_per_s,
        kv_level: "ddr".into(),
        kv_capacity_bytes: spec.ddr_capacity_bytes,
        step_overhead_s: params.invocation_overhead_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_core::{profile_inference, BoundKind};
    use dabench_model::{InferenceWorkload, ModelConfig, Precision};

    fn w(batch: u64) -> InferenceWorkload {
        InferenceWorkload::new(ModelConfig::llama2_7b(), batch, 512, 128, Precision::Fp16).unwrap()
    }

    #[test]
    fn decode_is_memory_bound_on_ddr() {
        let m = infer_model(&RduSpec::sn30(), &RduCompilerParams::default());
        let r = profile_inference(&m, &w(8)).unwrap();
        assert_eq!(r.decode_bound, BoundKind::MemoryBound);
    }

    #[test]
    fn ddr_capacity_absorbs_large_batches() {
        // The same batch that overflows WSE SRAM and GPU HBM fits in
        // 512 GB with room to spare.
        let m = infer_model(&RduSpec::sn30(), &RduCompilerParams::default());
        let r = profile_inference(&m, &w(64)).unwrap();
        assert!(r.memory.utilization() < 0.5, "{}", r.memory.utilization());
    }

    #[test]
    fn decode_throughput_trails_hbm_class_bandwidth() {
        // 0.2 TB/s vs a 2 TB/s HBM part: same workload, ~10× slower decode.
        let rdu = infer_model(&RduSpec::sn30(), &RduCompilerParams::default());
        let mut hbm = rdu.clone();
        hbm.mem_bw_bytes_per_s = 2.0e12;
        let slow = profile_inference(&rdu, &w(8)).unwrap().decode_tokens_per_s;
        let fast = profile_inference(&hbm, &w(8)).unwrap().decode_tokens_per_s;
        assert!(fast / slow > 5.0, "{}", fast / slow);
    }
}
