//! Property tests of the RDU partitioners and schedule over random
//! workload configurations, sampled from a seeded `SplitMix64`: every case
//! reproduces from its printed inputs.

use dabench_core::SplitMix64;
use dabench_model::{ModelConfig, Precision, TrainingWorkload};
use dabench_rdu::{
    execute_sections, partition, traffic_report, CompilationMode, RduCompilerParams, RduSpec,
};

const CASES: u32 = 48;

fn workload(hs_mult: u64, layers: u64, batch: u64) -> TrainingWorkload {
    TrainingWorkload::new(
        ModelConfig::gpt2_probe(64 * hs_mult, layers),
        batch,
        512,
        Precision::Fp16,
    )
}

/// Uniform draw from `lo..hi`.
fn draw(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

fn mode(rng: &mut SplitMix64) -> CompilationMode {
    [
        CompilationMode::O0,
        CompilationMode::O1,
        CompilationMode::O3,
    ][rng.below(3) as usize]
}

/// Every mode conserves the workload's FLOPs across its sections.
#[test]
fn partitioners_conserve_flops() {
    let mut rng = SplitMix64::new(0x2D_0001);
    for case in 0..CASES {
        let hs_mult = draw(&mut rng, 4, 20);
        let layers = draw(&mut rng, 1, 24);
        let batch = draw(&mut rng, 1, 16);
        let mode = mode(&mut rng);
        let w = workload(hs_mult, layers, batch);
        let sections = partition(&w, &RduSpec::sn30(), &RduCompilerParams::default(), mode);
        let total: f64 = sections.iter().map(|s| s.flops_per_step()).sum();
        let expect = w.training_flops_per_step();
        assert!(
            (total - expect).abs() / expect < 0.05,
            "case {case}: hs_mult {hs_mult}, layers {layers}, batch {batch}, {mode:?}: \
             {total} vs {expect}"
        );
    }
}

/// Section unit claims never exceed the hardware.
#[test]
fn sections_respect_hardware() {
    let mut rng = SplitMix64::new(0x2D_0002);
    for case in 0..CASES {
        let hs_mult = draw(&mut rng, 4, 20);
        let layers = draw(&mut rng, 1, 24);
        let mode = mode(&mut rng);
        let at = format!("case {case}: hs_mult {hs_mult}, layers {layers}, {mode:?}");
        let w = workload(hs_mult, layers, 4);
        for s in partition(&w, &RduSpec::sn30(), &RduCompilerParams::default(), mode) {
            assert!(s.pcus <= 640, "{at}: {}", s.name);
            assert!(s.pmus <= 640, "{at}: {}", s.name);
            assert!(s.invocations >= 1, "{at}: {}", s.name);
        }
    }
}

/// The executor's step time is positive, finite, and decomposes into
/// the per-section runtimes.
#[test]
fn schedule_times_decompose() {
    let spec = RduSpec::sn30();
    let params = RduCompilerParams::default();
    let mut rng = SplitMix64::new(0x2D_0003);
    for case in 0..CASES {
        let hs_mult = draw(&mut rng, 4, 16);
        let layers = draw(&mut rng, 1, 16);
        let batch = draw(&mut rng, 1, 16);
        let mode = mode(&mut rng);
        let at =
            format!("case {case}: hs_mult {hs_mult}, layers {layers}, batch {batch}, {mode:?}");
        let w = workload(hs_mult, layers, batch);
        let sections = partition(&w, &spec, &params, mode);
        let e = execute_sections(&sections, &w, &spec, &params);
        assert!(e.step_time_s.is_finite() && e.step_time_s > 0.0, "{at}");
        let sum: f64 = e.timings.iter().map(|t| t.runtime_s).sum();
        assert!((sum - e.step_time_s).abs() / e.step_time_s < 1e-9, "{at}");
        assert!((0.0..=1.0).contains(&e.memory_bound_fraction), "{at}");
    }
}

/// O0 always produces at least as much DDR traffic as O1 and O3 on the
/// same workload (per-operator spill is the worst case).
#[test]
fn o0_traffic_dominates() {
    let spec = RduSpec::sn30();
    let params = RduCompilerParams::default();
    let mut rng = SplitMix64::new(0x2D_0004);
    for case in 0..CASES {
        let hs_mult = draw(&mut rng, 4, 16);
        let layers = draw(&mut rng, 2, 16);
        let batch = draw(&mut rng, 1, 8);
        let at = format!("case {case}: hs_mult {hs_mult}, layers {layers}, batch {batch}");
        let w = workload(hs_mult, layers, batch);
        let traffic = |mode| traffic_report(&partition(&w, &spec, &params, mode)).total_bytes();
        let o0 = traffic(CompilationMode::O0);
        assert!(o0 >= traffic(CompilationMode::O1), "{at}");
        assert!(o0 >= traffic(CompilationMode::O3), "{at}");
    }
}

/// Throughput is monotone non-decreasing in batch size for O3.
#[test]
fn o3_throughput_monotone_in_batch() {
    let spec = RduSpec::sn30();
    let params = RduCompilerParams::default();
    let mut rng = SplitMix64::new(0x2D_0005);
    for case in 0..CASES {
        let hs_mult = draw(&mut rng, 4, 16);
        let layers = draw(&mut rng, 1, 12);
        let batch = draw(&mut rng, 1, 16);
        let tput = |b: u64| {
            let w = workload(hs_mult, layers, b);
            let sections = partition(&w, &spec, &params, CompilationMode::O3);
            execute_sections(&sections, &w, &spec, &params).throughput_tokens_per_s
        };
        assert!(
            tput(2 * batch) >= tput(batch) * 0.999,
            "case {case}: hs_mult {hs_mult}, layers {layers}, batch {batch}"
        );
    }
}
