//! Property tests of the IPU pipeline model, sampled from a seeded
//! `SplitMix64`: every case reproduces from its printed inputs.

use dabench_core::SplitMix64;
use dabench_ipu::{decoder_ipu_memory, pipeline_with_allocation, IpuCompilerParams, IpuSpec};
use dabench_model::{ModelConfig, Precision, TrainingWorkload};

const CASES: u32 = 48;

fn workload(layers: u64, batch: u64) -> TrainingWorkload {
    TrainingWorkload::new(
        ModelConfig::gpt2_probe(768, layers),
        batch,
        512,
        Precision::Fp16,
    )
}

/// Uniform draw from `lo..hi`.
fn draw(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// Random allocation of 1..6 layers each over 1..4 decoder IPUs.
fn allocation(rng: &mut SplitMix64) -> Vec<u64> {
    let ipus = draw(rng, 1, 4);
    (0..ipus).map(|_| draw(rng, 1, 6)).collect()
}

/// Throughput is anti-monotone in the bottleneck load: adding a layer
/// to the most loaded IPU never helps.
#[test]
fn bottleneck_anti_monotonicity() {
    let spec = IpuSpec::bow2000();
    let params = IpuCompilerParams::default();
    let mut rng = SplitMix64::new(0x1B_0001);
    for case in 0..CASES {
        let alloc = allocation(&mut rng);
        let batch = draw(&mut rng, 1, 32);
        let layers: u64 = alloc.iter().sum();
        let w = workload(layers, batch);
        let Ok(base) = pipeline_with_allocation(&spec, &params, &w, &alloc) else {
            continue;
        };
        // Grow the heaviest stage by one layer.
        let mut worse = alloc.clone();
        let imax = (0..worse.len())
            .max_by_key(|&i| worse[i])
            .expect("non-empty");
        worse[imax] += 1;
        let w2 = workload(layers + 1, batch);
        if let Ok(plan) = pipeline_with_allocation(&spec, &params, &w2, &worse) {
            assert!(
                plan.throughput_tokens_per_s <= base.throughput_tokens_per_s * 1.001,
                "case {case}: alloc {alloc:?}, batch {batch}"
            );
        }
    }
}

/// Pipeline plans respect accounting identities.
#[test]
fn plan_identities() {
    let spec = IpuSpec::bow2000();
    let params = IpuCompilerParams::default();
    let mut rng = SplitMix64::new(0x1B_0002);
    for case in 0..CASES {
        let alloc = allocation(&mut rng);
        let batch = draw(&mut rng, 1, 32);
        let at = format!("case {case}: alloc {alloc:?}, batch {batch}");
        let layers: u64 = alloc.iter().sum();
        let w = workload(layers, batch);
        let Ok(plan) = pipeline_with_allocation(&spec, &params, &w, &alloc) else {
            continue;
        };
        assert_eq!(plan.stages.len(), alloc.len() + 1, "{at}"); // + embedding IPU
        let implied = w.tokens_per_step() as f64 / plan.step_time_s;
        assert!(
            (implied - plan.throughput_tokens_per_s).abs() / implied < 1e-9,
            "{at}"
        );
        assert!((0.0..1.0).contains(&plan.overhead_fraction), "{at}");
        let bottleneck = &plan.stages[plan.bottleneck_stage];
        for s in &plan.stages {
            assert!(s.stage_time_s <= bottleneck.stage_time_s + 1e-15, "{at}");
            assert!(s.tiles_used <= spec.tiles, "{at}");
            assert!(s.memory_utilization <= 1.0 + 1e-12, "{at}");
        }
    }
}

/// Memory accounting is additive in layers and independent of batch.
#[test]
fn memory_accounting() {
    let spec = IpuSpec::bow2000();
    let params = IpuCompilerParams::default();
    let mut rng = SplitMix64::new(0x1B_0003);
    for case in 0..CASES {
        let layers = draw(&mut rng, 1, 10);
        let batch = draw(&mut rng, 1, 64);
        let at = format!("case {case}: layers {layers}, batch {batch}");
        let w = workload(layers, batch);
        let m = decoder_ipu_memory(&w, layers, &spec, &params);
        assert_eq!(
            m.total_bytes(),
            m.state_bytes + m.activation_bytes + m.code_bytes,
            "{at}"
        );
        let other = decoder_ipu_memory(&workload(layers, batch + 1), layers, &spec, &params);
        assert_eq!(m.total_bytes(), other.total_bytes(), "{at}");
    }
}
