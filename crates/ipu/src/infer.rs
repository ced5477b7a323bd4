//! IPU serving model: tile SRAM when the model fits, external DDR when not.
//!
//! The Bow IPU has the sharpest memory cliff of the four platforms. A model
//! whose weights + KV cache fit in the ~900 MB of tile SRAM decodes at the
//! 8 TB/s exchange rate; one byte past that and everything streams from the
//! chassis DDR at 180 GB/s — a 40× bandwidth drop, not a gradual slide.

use crate::chip::{IpuCompilerParams, IpuSpec};
use dabench_core::InferModel;
use dabench_model::InferenceWorkload;

/// Build the serving model of one IPU for `workload`.
///
/// The workload picks the memory level: its weights + peak KV cache either
/// fit in tile SRAM or force the external-DDR path. Per-step overhead is
/// the BSP sync chain through every layer.
#[must_use]
pub fn infer_model(
    spec: &IpuSpec,
    params: &IpuCompilerParams,
    workload: &InferenceWorkload,
) -> InferModel {
    let footprint = workload
        .weight_bytes()
        .saturating_add(workload.kv_cache_peak_bytes());
    let sram = spec.tiles * spec.sram_per_tile_bytes;
    let (level, capacity, bw) = if footprint <= sram {
        ("tile-sram", sram, spec.exchange_bw_bytes_per_s)
    } else {
        (
            "external-ddr",
            spec.external_ddr_bytes,
            spec.external_ddr_bw_bytes_per_s,
        )
    };
    let sync_chain =
        workload.model().num_layers as f64 * params.supersteps_per_layer * params.bsp_sync_s;
    InferModel {
        platform: "ipu".into(),
        peak_tflops: spec.peak_tflops(),
        sustained_efficiency: params.sustained_tile_efficiency,
        mem_bw_bytes_per_s: bw,
        kv_level: level.into(),
        kv_capacity_bytes: capacity,
        step_overhead_s: sync_chain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_core::profile_inference;
    use dabench_model::{ModelConfig, Precision};

    fn w(cfg: ModelConfig, batch: u64) -> InferenceWorkload {
        InferenceWorkload::new(cfg, batch, 512, 128, Precision::Fp16).unwrap()
    }

    #[test]
    fn small_models_serve_from_tile_sram() {
        let spec = IpuSpec::bow2000();
        let m = infer_model(
            &spec,
            &IpuCompilerParams::default(),
            &w(ModelConfig::gpt2_tiny(), 1),
        );
        assert_eq!(m.kv_level, "tile-sram");
        assert_eq!(m.mem_bw_bytes_per_s, spec.exchange_bw_bytes_per_s);
    }

    #[test]
    fn llama_7b_falls_off_the_sram_cliff() {
        let spec = IpuSpec::bow2000();
        let m = infer_model(
            &spec,
            &IpuCompilerParams::default(),
            &w(ModelConfig::llama2_7b(), 1),
        );
        assert_eq!(m.kv_level, "external-ddr");
        assert_eq!(m.mem_bw_bytes_per_s, spec.external_ddr_bw_bytes_per_s);
    }

    #[test]
    fn the_cliff_is_a_bandwidth_not_a_capacity_story() {
        // Both sides of the cliff still *run*; throughput collapses.
        let spec = IpuSpec::bow2000();
        let p = IpuCompilerParams::default();
        let small = w(ModelConfig::gpt2_tiny(), 1);
        let big = w(ModelConfig::llama2_7b(), 1);
        let fast = profile_inference(&infer_model(&spec, &p, &small), &small).unwrap();
        let slow = profile_inference(&infer_model(&spec, &p, &big), &big).unwrap();
        // Per-token decode latency (normalize out model size by comparing
        // bandwidth-limited decode throughput ratios beyond the flop gap).
        assert!(fast.decode_tokens_per_s > 20.0 * slow.decode_tokens_per_s);
    }

    #[test]
    fn sync_overhead_scales_with_depth() {
        let spec = IpuSpec::bow2000();
        let p = IpuCompilerParams::default();
        let shallow = infer_model(&spec, &p, &w(ModelConfig::gpt2_probe(768, 4), 1));
        let deep = infer_model(&spec, &p, &w(ModelConfig::gpt2_probe(768, 24), 1));
        assert!((deep.step_overhead_s / shallow.step_overhead_s - 6.0).abs() < 1e-9);
    }
}
