//! Property-based tests over the framework's core invariants, driven by
//! randomized model/workload configurations sampled from a seeded
//! `SplitMix64`: every case reproduces from its printed inputs.

use dabench::core::metrics::{
    allocation_ratio, load_imbalance, weighted_allocation_ratio, weighted_load_imbalance, Roofline,
};
use dabench::core::{SplitMix64, TaskProfile};
use dabench::graph::partition::{balanced_contiguous, bottleneck};
use dabench::graph::GraphBuilder;
use dabench::model::{ModelConfig, Precision, TrainingWorkload};
use dabench::sim::{steady_state_analysis, PipelineStage};

const CASES: u32 = 64;

/// Uniform draw from `lo..hi`.
fn draw(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// `len` in `lo..hi` values drawn by `elem`.
fn vec_of<T>(
    rng: &mut SplitMix64,
    lo: u64,
    hi: u64,
    mut elem: impl FnMut(&mut SplitMix64) -> T,
) -> Vec<T> {
    let len = draw(rng, lo, hi);
    (0..len).map(|_| elem(rng)).collect()
}

fn precision(rng: &mut SplitMix64) -> Precision {
    [
        Precision::Fp32,
        Precision::Fp16,
        Precision::Bf16,
        Precision::Cb16,
    ][rng.below(4) as usize]
}

/// Any GPT-style probe builds a valid DAG whose op count and FLOPs are
/// linear in depth.
#[test]
fn training_graphs_are_valid_dags() {
    let mut rng = SplitMix64::new(0x50_0001);
    for case in 0..CASES {
        let hs_mult = draw(&mut rng, 1, 8);
        let layers = draw(&mut rng, 1, 10);
        let batch = draw(&mut rng, 1, 8);
        let seq_log = draw(&mut rng, 5, 9);
        let at = format!(
            "case {case}: hs_mult {hs_mult}, layers {layers}, batch {batch}, seq 2^{seq_log}"
        );
        let cfg = ModelConfig::gpt2_probe(64 * hs_mult, layers);
        let g = GraphBuilder::training_step(&cfg, batch, 1 << seq_log);
        assert!(g.validate().is_ok(), "{at}");
        assert_eq!(g.topological_order().len(), g.node_count(), "{at}");
        assert!(g.total_flops() > 0.0, "{at}");
    }
}

/// FLOPs scale exactly linearly in batch (minus the constant optimizer
/// term).
#[test]
fn flops_linear_in_batch() {
    let mut rng = SplitMix64::new(0x50_0002);
    for case in 0..CASES {
        let hs_mult = draw(&mut rng, 1, 6);
        let layers = draw(&mut rng, 1, 8);
        let b = draw(&mut rng, 1, 16);
        let cfg = ModelConfig::gpt2_probe(64 * hs_mult, layers);
        let w1 = TrainingWorkload::new(cfg.clone(), b, 256, Precision::Fp16);
        let w2 = TrainingWorkload::new(cfg, 2 * b, 256, Precision::Fp16);
        let opt = 10.0 * w1.model().parameter_count() as f64;
        let f1 = w1.training_flops_per_step() - opt;
        let f2 = w2.training_flops_per_step() - opt;
        assert!(
            (f2 / f1 - 2.0).abs() < 1e-9,
            "case {case}: hs_mult {hs_mult}, layers {layers}, batch {b}"
        );
    }
}

/// The load-imbalance metric is always in (0, 1] and invariant to
/// uniform throughput scaling.
#[test]
fn li_bounds_and_scale_invariance() {
    let mut rng = SplitMix64::new(0x50_0003);
    for case in 0..CASES {
        let tps = vec_of(&mut rng, 1, 20, |r| r.uniform(0.1, 1000.0));
        let res = vec_of(&mut rng, 1, 20, |r| r.uniform(0.1, 100.0));
        let scale = rng.uniform(0.01, 100.0);
        let n = tps.len().min(res.len());
        let tasks: Vec<TaskProfile> = (0..n)
            .map(|i| TaskProfile::new(format!("t{i}"), tps[i], res[i]))
            .collect();
        let li = load_imbalance(&tasks).unwrap();
        assert!(li > 0.0 && li <= 1.0 + 1e-12, "case {case}: li {li}");
        let scaled: Vec<TaskProfile> = tasks
            .iter()
            .map(|t| TaskProfile::new(t.name.clone(), t.throughput * scale, t.resources))
            .collect();
        let li2 = load_imbalance(&scaled).unwrap();
        assert!((li - li2).abs() < 1e-9, "case {case}: scale {scale}");
    }
}

/// Weighted allocation is a convex combination: it lies between the
/// min and max per-section ratios.
#[test]
fn weighted_allocation_is_convex() {
    let mut rng = SplitMix64::new(0x50_0004);
    for case in 0..CASES {
        let recs: Vec<(f64, u64, u64)> = vec_of(&mut rng, 1, 20, |r| {
            let l = r.uniform(0.001, 100.0);
            let used = r.below(640);
            let avail = 1 + r.below(640);
            (l, used.min(avail), avail)
        });
        let w = weighted_allocation_ratio(&recs).unwrap();
        let ratios: Vec<f64> = recs
            .iter()
            .map(|&(_, u, a)| allocation_ratio(u, a).unwrap())
            .collect();
        let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ratios.iter().cloned().fold(0.0f64, f64::max);
        assert!(w >= lo - 1e-12 && w <= hi + 1e-12, "case {case}: {recs:?}");
    }
}

/// Weighted LI is likewise a convex combination.
#[test]
fn weighted_li_is_convex() {
    let mut rng = SplitMix64::new(0x50_0005);
    for case in 0..CASES {
        let sections = vec_of(&mut rng, 1, 20, |r| {
            (r.uniform(0.001, 100.0), r.uniform(0.0, 1.0))
        });
        let w = weighted_load_imbalance(&sections).unwrap();
        let lo = sections.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
        let hi = sections.iter().map(|s| s.1).fold(0.0f64, f64::max);
        assert!(
            w >= lo - 1e-12 && w <= hi + 1e-12,
            "case {case}: {sections:?}"
        );
    }
}

/// Roofline attainable throughput is monotone in intensity and capped
/// at peak; classification flips exactly at the ridge.
#[test]
fn roofline_monotone() {
    let mut rng = SplitMix64::new(0x50_0006);
    for case in 0..CASES {
        let peak = rng.uniform(1.0, 1e4);
        let bw = rng.uniform(1e9, 1e16);
        let ai = rng.uniform(0.01, 1e5);
        let at = format!("case {case}: peak {peak}, bw {bw}, ai {ai}");
        let r = Roofline::new(peak, bw);
        let a1 = r.attainable_tflops(ai);
        let a2 = r.attainable_tflops(ai * 2.0);
        assert!(a2 >= a1 - 1e-12, "{at}");
        assert!(a1 <= peak + 1e-12, "{at}");
        let ridge = r.ridge_intensity();
        assert_eq!(
            r.classify(ai) == dabench::core::BoundKind::ComputeBound,
            ai >= ridge,
            "{at}"
        );
    }
}

/// Balanced contiguous partitioning covers every item exactly once and
/// its bottleneck never beats the theoretical lower bound.
#[test]
fn balanced_partition_invariants() {
    let mut rng = SplitMix64::new(0x50_0007);
    for case in 0..CASES {
        let weights = vec_of(&mut rng, 1, 40, |r| r.uniform(0.01, 100.0));
        let k_seed = draw(&mut rng, 1, 40) as usize;
        let k = 1 + k_seed % weights.len();
        let at = format!("case {case}: k {k}, {weights:?}");
        let p = balanced_contiguous(&weights, k).unwrap();
        assert_eq!(p.group_count(), k, "{at}");
        assert_eq!(p.len(), weights.len(), "{at}");
        assert_eq!(p.sizes().iter().sum::<usize>(), weights.len(), "{at}");
        let total: f64 = weights.iter().sum();
        let max_w = weights.iter().cloned().fold(0.0f64, f64::max);
        let lower = (total / k as f64).max(max_w);
        assert!(bottleneck(&p, &weights) >= lower - 1e-9, "{at}");
    }
}

/// Pipeline algebra: total time equals fill + (n-1)·bottleneck, and
/// efficiency approaches 1 as items grow.
#[test]
fn pipeline_algebra() {
    let mut rng = SplitMix64::new(0x50_0009);
    for case in 0..CASES {
        let times = vec_of(&mut rng, 1, 20, |r| r.uniform(0.001, 10.0));
        let items = draw(&mut rng, 1, 500);
        let at = format!("case {case}: items {items}, {times:?}");
        let stages: Vec<PipelineStage> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| PipelineStage::new(format!("s{i}"), t))
            .collect();
        let r = steady_state_analysis(&stages, items);
        let expect = times.iter().sum::<f64>() + (items - 1) as f64 * r.bottleneck_time;
        assert!((r.total_time - expect).abs() < 1e-9, "{at}");
        assert!(
            r.pipeline_efficiency > 0.0 && r.pipeline_efficiency <= 1.0 + 1e-12,
            "{at}"
        );
        let more = steady_state_analysis(&stages, items + 100);
        assert!(
            more.pipeline_efficiency >= r.pipeline_efficiency - 1e-12,
            "{at}"
        );
    }
}

/// Workload accounting: state bytes follow the precision and the
/// arithmetic intensity is finite and positive.
#[test]
fn workload_accounting() {
    let mut rng = SplitMix64::new(0x50_000A);
    for case in 0..CASES {
        let hs_mult = draw(&mut rng, 1, 8);
        let layers = draw(&mut rng, 1, 8);
        let batch = draw(&mut rng, 1, 16);
        let precision = precision(&mut rng);
        let at = format!(
            "case {case}: hs_mult {hs_mult}, layers {layers}, batch {batch}, {precision:?}"
        );
        let w = TrainingWorkload::new(
            ModelConfig::gpt2_probe(64 * hs_mult, layers),
            batch,
            256,
            precision,
        );
        let per_param = 2 * precision.bytes_per_element() + 8;
        assert_eq!(
            w.training_state_bytes(),
            per_param * w.model().parameter_count(),
            "{at}"
        );
        let ai = w.arithmetic_intensity();
        assert!(ai.is_finite() && ai > 0.0, "{at}");
    }
}
