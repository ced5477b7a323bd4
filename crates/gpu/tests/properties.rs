//! Property tests of the Megatron cost model, sampled from a seeded
//! `SplitMix64`: every case reproduces from its printed inputs.

use dabench_core::SplitMix64;
use dabench_gpu::{megatron_throughput, GpuSpec, MegatronConfig};
use dabench_model::{ModelConfig, Precision, TrainingWorkload};

const CASES: u32 = 64;

fn workload(batch: u64) -> TrainingWorkload {
    TrainingWorkload::new(ModelConfig::gpt2_xl(), batch, 1024, Precision::Fp16)
}

/// Uniform draw from `lo..hi`.
fn draw(rng: &mut SplitMix64, lo: u32, hi: u32) -> u32 {
    lo + rng.below(u64::from(hi - lo)) as u32
}

/// A random power-of-two TP x PP x DP layout.
fn layout(rng: &mut SplitMix64) -> MegatronConfig {
    let (t, p, d) = (draw(rng, 0, 4), draw(rng, 0, 4), draw(rng, 0, 6));
    MegatronConfig::new(1 << t, 1 << p, 1 << d)
}

/// Valid layouts always produce finite positive timings with bounded
/// fractions.
#[test]
fn run_invariants() {
    let mut rng = SplitMix64::new(0x69_0001);
    for case in 0..CASES {
        let layout = layout(&mut rng);
        let batch = 1u64 << draw(&mut rng, 6, 11);
        let at = format!("case {case}: {layout:?}, batch {batch}");
        let Ok(run) = megatron_throughput(&GpuSpec::a100(), &workload(batch), layout) else {
            continue; // invalid layouts are rejected, that's fine
        };
        assert!(run.step_time_s > 0.0 && run.step_time_s.is_finite(), "{at}");
        assert!(run.tokens_per_s > 0.0, "{at}");
        assert!(
            (run.tokens_per_s_per_gpu * f64::from(layout.gpus()) - run.tokens_per_s).abs()
                / run.tokens_per_s
                < 1e-12,
            "{at}"
        );
        assert!((0.0..1.0).contains(&run.bubble_fraction), "{at}");
        assert!((0.0..1.0).contains(&run.comm_fraction), "{at}");
    }
}

/// Aggregate throughput never decreases when data parallelism widens
/// (weak scaling with proportional batch).
#[test]
fn dp_weak_scaling_monotone() {
    let base = megatron_throughput(
        &GpuSpec::a100(),
        &workload(64),
        MegatronConfig::new(8, 1, 1),
    )
    .unwrap();
    let mut rng = SplitMix64::new(0x69_0002);
    for case in 0..CASES {
        let d = 1u32 << draw(&mut rng, 0, 5);
        let scaled = megatron_throughput(
            &GpuSpec::a100(),
            &workload(64 * u64::from(d)),
            MegatronConfig::new(8, 1, d),
        )
        .unwrap();
        assert!(
            scaled.tokens_per_s >= base.tokens_per_s * 0.9 * f64::from(d).sqrt(),
            "case {case}: dp {d}"
        );
    }
}

/// More micro-batches never worsen the bubble fraction.
#[test]
fn bubble_shrinks_with_batch() {
    let mut rng = SplitMix64::new(0x69_0003);
    for case in 0..CASES {
        let batch_log = draw(&mut rng, 6, 12);
        let small = megatron_throughput(
            &GpuSpec::a100(),
            &workload(1 << batch_log),
            MegatronConfig::new(1, 8, 1),
        )
        .unwrap();
        let large = megatron_throughput(
            &GpuSpec::a100(),
            &workload(1 << (batch_log + 1)),
            MegatronConfig::new(1, 8, 1),
        )
        .unwrap();
        assert!(
            large.bubble_fraction <= small.bubble_fraction + 1e-12,
            "case {case}: batch 2^{batch_log}"
        );
    }
}
