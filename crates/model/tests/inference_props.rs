//! Property tests of the inference workload cost model, sampled from a
//! seeded `SplitMix64`: every case reproduces from its printed inputs.

use dabench_core::SplitMix64;
use dabench_model::{InferenceWorkload, InferenceWorkloadError, ModelConfig, Precision};

const CASES: u32 = 64;

fn workload(batch: u64, prompt: u64, decode: u64) -> InferenceWorkload {
    InferenceWorkload::new(
        ModelConfig::llama2_7b(),
        batch,
        prompt,
        decode,
        Precision::Fp16,
    )
    .expect("in-range dimensions")
}

/// Uniform draw from `lo..hi`.
fn draw(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// Decode arithmetic intensity falls monotonically as the context
/// grows for any batched workload: each cached token adds attention
/// FLOPs and KV bytes at a fixed 1 FLOP/B marginal ratio (h == kv_dim
/// at FP16), below the batch-amortized weight-stream intensity of
/// ~B FLOP/B — so long-context decode sinks toward the memory-bound
/// asymptote. At B=1 the marginal ratio equals the asymptote and the
/// curve is flat, which is exactly why batching is what creates
/// intensity headroom to lose.
#[test]
fn decode_intensity_is_monotone_decreasing_in_context() {
    let mut rng = SplitMix64::new(0x1F_0001);
    for case in 0..CASES {
        let batch_log = draw(&mut rng, 1, 7);
        let ctx = draw(&mut rng, 16, 8192);
        let step = draw(&mut rng, 1, 2048);
        let w = workload(1u64 << batch_log, 128, 16);
        let near = w.decode_step_cost(ctx);
        let far = w.decode_step_cost(ctx + step);
        assert!(
            far.intensity < near.intensity,
            "case {case}: batch 2^{batch_log}, ctx {} -> {}: intensity {} !< {}",
            ctx,
            ctx + step,
            far.intensity,
            near.intensity
        );
    }
}

/// Phase FLOPs are exactly linear in batch size: sequences do not
/// interact, so a batch of B costs B single-sequence passes.
#[test]
fn phase_flops_are_linear_in_batch() {
    let mut rng = SplitMix64::new(0x1F_0002);
    for case in 0..CASES {
        let batch = draw(&mut rng, 2, 128);
        let prompt = draw(&mut rng, 16, 2048);
        let decode = draw(&mut rng, 1, 256);
        let one = workload(1, prompt, decode);
        let many = workload(batch, prompt, decode);
        let b = batch as f64;
        let inputs = format!("case {case}: batch {batch}, prompt {prompt}, decode {decode}");
        assert!(
            (many.prefill_cost().flops - b * one.prefill_cost().flops).abs()
                <= 1e-9 * many.prefill_cost().flops,
            "{inputs}"
        );
        assert!(
            (many.decode_cost().flops - b * one.decode_cost().flops).abs()
                <= 1e-9 * many.decode_cost().flops,
            "{inputs}"
        );
    }
}

/// GQA shrinks the KV cache by exactly the head-grouping ratio:
/// LLaMA-2-70B keeps 8 KV heads of 128 dims (kv_dim 1024) against
/// 7B's full MHA kv_dim 4096 — a 4x smaller cache per layer-token at
/// any context, exactly.
#[test]
fn gqa_cache_ratio_is_pinned_by_kv_dim() {
    let small = ModelConfig::llama2_7b();
    let large = ModelConfig::llama2_70b();
    assert_eq!(small.kv_dim(), 4096);
    assert_eq!(large.kv_dim(), 1024);
    let w7 = InferenceWorkload::new(small.clone(), 1, 128, 16, Precision::Fp16).unwrap();
    let w70 = InferenceWorkload::new(large.clone(), 1, 128, 16, Precision::Fp16).unwrap();
    let mut rng = SplitMix64::new(0x1F_0003);
    for case in 0..CASES {
        let ctx = draw(&mut rng, 1, 16384);
        let per_layer_7 = w7.kv_cache_bytes_per_seq(ctx) / small.num_layers;
        let per_layer_70 = w70.kv_cache_bytes_per_seq(ctx) / large.num_layers;
        assert_eq!(per_layer_7, 4 * per_layer_70, "case {case}: ctx {ctx}");
    }
}

/// KV-cache bytes scale exactly with the storage precision while
/// weights stay at the compute precision.
#[test]
fn kv_precision_halves_cache_not_weights() {
    let mut rng = SplitMix64::new(0x1F_0004);
    for case in 0..CASES {
        let batch = draw(&mut rng, 1, 64);
        let prompt = draw(&mut rng, 16, 2048);
        let w16 = workload(batch, prompt, 64);
        let w8 = w16.clone().with_kv_precision(Precision::Fp8);
        let inputs = format!("case {case}: batch {batch}, prompt {prompt}");
        assert_eq!(
            w16.kv_cache_peak_bytes(),
            2 * w8.kv_cache_peak_bytes(),
            "{inputs}"
        );
        assert_eq!(w16.weight_bytes(), w8.weight_bytes(), "{inputs}");
    }
}

/// Absurd dimensions are rejected with a structured error, never a
/// panic or a silent wrap.
#[test]
fn overflow_prone_dimensions_error_cleanly() {
    let mut rng = SplitMix64::new(0x1F_0005);
    for case in 0..CASES {
        let shift = draw(&mut rng, 30, 63);
        let huge = 1u64 << shift;
        let r = InferenceWorkload::new(ModelConfig::llama2_7b(), huge, huge, 1, Precision::Fp16);
        if let Err(e) = r {
            assert!(
                matches!(e, InferenceWorkloadError::DimensionOverflow { .. }),
                "case {case}: shift {shift}: {e:?}"
            );
        }
    }
}
