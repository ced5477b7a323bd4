//! Property tests of the WSE compiler over random configurations, sampled
//! from a seeded `SplitMix64`: every case reproduces from its printed
//! inputs.

use dabench_core::SplitMix64;
use dabench_model::{ModelConfig, Precision, TrainingWorkload};
use dabench_wse::{compile, execute, KernelKind, Wse, WseSpec};

const CASES: u32 = 40;

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

/// When compilation succeeds, the allocation is within the chip and
/// every kernel respects its floor and a positive PE count.
#[test]
fn compilation_invariants() {
    let wse = Wse::default();
    let mut rng = SplitMix64::new(0x3E_0001);
    for case in 0..CASES {
        let hs_mult = draw(&mut rng, 2, 16);
        let layers = draw(&mut rng, 1, 40);
        let batch = draw(&mut rng, 1, 64);
        let at = format!("case {case}: hs_mult {hs_mult}, layers {layers}, batch {batch}");
        let w = workload(hs_mult, layers, batch);
        let Ok(c) = compile(wse.wse_spec(), wse.compiler_params(), &w, None) else {
            continue; // OOM/placement failures are valid outcomes
        };
        assert!(c.allocated_pes() <= c.chip_pes, "{at}");
        assert!(c.allocation_ratio() <= 1.0, "{at}");
        for k in &c.kernels {
            let name = k.kernel.name();
            assert!(k.comp_pes >= 1, "{at}: {name}");
            assert!(k.comp_pes >= k.floor_pes.min(k.cap_pes), "{at}: {name}");
            assert!((0.0..=1.0).contains(&k.memory_efficiency), "{at}: {name}");
            assert!(
                k.bytes_per_pe(wse.compiler_params()) <= 48.0 * 1024.0 + 1.0,
                "{at}: {name}"
            );
        }
        // Placement covers exactly the allocated PEs.
        assert_eq!(c.placement.used_pes(), c.allocated_pes(), "{at}");
    }
}

/// Execution identities hold for every compilable configuration.
#[test]
fn execution_identities() {
    let wse = Wse::default();
    let mut rng = SplitMix64::new(0x3E_0002);
    for case in 0..CASES {
        let hs_mult = draw(&mut rng, 2, 12);
        let layers = draw(&mut rng, 1, 30);
        let batch = draw(&mut rng, 1, 64);
        let at = format!("case {case}: hs_mult {hs_mult}, layers {layers}, batch {batch}");
        let w = workload(hs_mult, layers, batch);
        let Ok(c) = compile(wse.wse_spec(), wse.compiler_params(), &w, None) else {
            continue;
        };
        let e = execute(wse.wse_spec(), wse.compiler_params(), &c, &w);
        assert!(e.step_time_s > 0.0 && e.step_time_s.is_finite(), "{at}");
        let implied = w.training_flops_per_step() / e.step_time_s / 1e12;
        assert!((implied - e.achieved_tflops).abs() / implied < 1e-9, "{at}");
        assert!(
            e.pipeline_efficiency > 0.0 && e.pipeline_efficiency <= 1.0,
            "{at}"
        );
        assert!(e.bottleneck_s > 0.0, "{at}");
        // Achieved throughput never exceeds the chip's peak.
        assert!(e.achieved_tflops <= wse.wse_spec().peak_tflops(), "{at}");
    }
}

/// A smaller PE budget never increases the allocation.
#[test]
fn budget_monotonicity() {
    let wse = Wse::default();
    let spec = WseSpec::cs2();
    let mut rng = SplitMix64::new(0x3E_0003);
    for case in 0..CASES {
        let hs_mult = draw(&mut rng, 2, 12);
        let layers = draw(&mut rng, 1, 20);
        let denom = draw(&mut rng, 2, 8);
        let w = workload(hs_mult, layers, 16);
        let full = compile(wse.wse_spec(), wse.compiler_params(), &w, None);
        let slice = compile(
            wse.wse_spec(),
            wse.compiler_params(),
            &w,
            Some(spec.pe_count() / denom),
        );
        if let (Ok(full), Ok(slice)) = (full, slice) {
            assert!(
                slice.allocated_pes() <= full.allocated_pes() + denom,
                "case {case}: hs_mult {hs_mult}, layers {layers}, denom {denom}"
            );
        }
    }
}

/// Deeper models never allocate more PEs per attention kernel.
#[test]
fn elasticity_is_monotone() {
    let wse = Wse::default();
    let mut rng = SplitMix64::new(0x3E_0004);
    for case in 0..CASES {
        let hs_mult = draw(&mut rng, 4, 12);
        let layers = draw(&mut rng, 2, 30);
        let attn_pes = |l: u64| -> Option<u64> {
            compile(
                wse.wse_spec(),
                wse.compiler_params(),
                &workload(hs_mult, l, 16),
                None,
            )
            .ok()
            .and_then(|c| {
                c.kernel(KernelKind::Attention { layer: 0 })
                    .map(|k| k.comp_pes)
            })
        };
        if let (Some(shallow), Some(deep)) = (attn_pes(layers), attn_pes(layers + 6)) {
            assert!(
                deep <= shallow,
                "case {case}: hs_mult {hs_mult}, layers {layers}: {deep} > {shallow}"
            );
        }
    }
}
