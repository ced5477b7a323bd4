//! Consistency and determinism checks spanning all platform models.

use dabench::core::{tier1, Platform};
use dabench::ipu::Ipu;
use dabench::model::{ModelConfig, Precision, TrainingWorkload};
use dabench::rdu::{CompilationMode, Rdu};
use dabench::wse::Wse;

fn probe(batch: u64) -> TrainingWorkload {
    TrainingWorkload::new(
        ModelConfig::gpt2_probe(768, 6),
        batch,
        1024,
        Precision::Fp16,
    )
}

fn platforms() -> Vec<Box<dyn Platform>> {
    vec![
        Box::new(Wse::default()),
        Box::new(Rdu::with_mode(CompilationMode::O3)),
        Box::new(Ipu::default()),
    ]
}

/// The simulators are pure functions: identical inputs produce identical
/// reports.
#[test]
fn profiling_is_deterministic() {
    for p in platforms() {
        let a = tier1::run(p.as_ref(), &probe(32)).unwrap();
        let b = tier1::run(p.as_ref(), &probe(32)).unwrap();
        assert_eq!(a, b, "{}", p.name());
    }
}

/// Achieved TFLOP/s must equal the workload's FLOPs divided by the step
/// time each platform reports — the accounting identity tying the three
/// quantities together.
#[test]
fn tflops_step_time_identity() {
    let w = probe(32);
    for p in platforms() {
        let r = tier1::run(p.as_ref(), &w).unwrap();
        let implied = r.achieved_tflops * r.step_time_s * 1e12;
        let flops = w.training_flops_per_step();
        let err = (implied - flops).abs() / flops;
        // The IPU reports decoder-layer FLOPs only (Fig. 9(d) semantics),
        // so allow its nonlayer share as slack.
        let tolerance = if p.name().contains("ipu") { 0.65 } else { 0.02 };
        assert!(err < tolerance, "{}: {err}", p.name());
    }
}

/// Tokens/s must equal tokens-per-step over step time exactly.
#[test]
fn throughput_identity() {
    let w = probe(32);
    for p in platforms() {
        let r = tier1::run(p.as_ref(), &w).unwrap();
        let implied = w.tokens_per_step() as f64 / r.step_time_s;
        let err = (implied - r.throughput_tokens_per_s).abs() / implied;
        assert!(err < 1e-9, "{}: {err}", p.name());
    }
}

/// Doubling the batch never *reduces* throughput on any platform at
/// moderate batch sizes (all three amortize fixed overheads).
#[test]
fn batch_monotonicity() {
    for p in platforms() {
        let t16 = tier1::run(p.as_ref(), &probe(16))
            .unwrap()
            .throughput_tokens_per_s;
        let t32 = tier1::run(p.as_ref(), &probe(32))
            .unwrap()
            .throughput_tokens_per_s;
        assert!(t32 >= t16 * 0.999, "{}: {t16} → {t32}", p.name());
    }
}

/// Halving precision from FP32 never hurts and never more than doubles
/// throughput.
#[test]
fn precision_speedup_is_bounded() {
    for p in platforms() {
        let full = tier1::run(p.as_ref(), &probe(32).with_precision(Precision::Fp32));
        let half = tier1::run(p.as_ref(), &probe(32).with_precision(Precision::Fp16));
        let (Ok(full), Ok(half)) = (full, half) else {
            continue; // FP32 may OOM on SRAM-bound chips — that's fine.
        };
        let ratio = half.throughput_tokens_per_s / full.throughput_tokens_per_s;
        assert!((1.0..=2.2).contains(&ratio), "{}: {ratio}", p.name());
    }
}

/// Every memory level a report names exists in its platform's spec.
#[test]
fn reports_expose_consistent_memory_levels() {
    let w = probe(32);
    for p in platforms() {
        let spec = p.spec();
        let r = tier1::run(p.as_ref(), &w).unwrap();
        for m in &r.memory {
            assert!(
                spec.memory_level(&m.name).is_some(),
                "{}: usage reported for unknown level {}",
                p.name(),
                m.name
            );
            assert!(m.used_bytes <= m.capacity_bytes, "{}: {}", p.name(), m.name);
        }
    }
}
