//! Platform-agnostic autoregressive inference profiling.
//!
//! Training throughput (Tier 1/2) measures one optimizer step; serving an
//! LLM instead runs a *prefill* pass over the prompt followed by a long
//! chain of single-token *decode* steps that stream the growing KV cache
//! from memory. The two phases sit on opposite ends of the roofline —
//! prefill is dense-GEMM compute, decode is bandwidth at an arithmetic
//! intensity near the batch size — so a chip's serving profile is not
//! derivable from its training numbers.
//!
//! [`profile_inference`] takes an [`InferModel`] (how a platform feeds its
//! inference engine: sustained compute, the memory level holding weights +
//! KV cache, and the bandwidth between that level and the compute units)
//! plus an [`InferenceWorkload`], checks the KV cache fits, and derives
//! TTFT, decode throughput, and end-to-end tokens/s for both static and
//! continuous batching.

use crate::error::PlatformError;
use crate::metrics::Roofline;
use crate::obs;
use crate::platform::MemoryLevelUsage;
use crate::report::BoundKind;
use dabench_model::{BatchingMode, InferenceWorkload, PhaseCost};

/// How a platform serves autoregressive inference: the compute rate it
/// sustains on transformer GEMMs, and the memory level that must hold the
/// weights plus the KV cache together with the bandwidth draining it.
///
/// Platform crates build one of these from their chip spec (e.g. WSE maps
/// the KV cache to wafer SRAM at fabric bandwidth; the RDU maps it to DDR).
#[derive(Debug, Clone, PartialEq)]
pub struct InferModel {
    /// Platform name (e.g. `"wse"`).
    pub platform: String,
    /// Peak dense compute at the serving precision, TFLOP/s.
    pub peak_tflops: f64,
    /// Fraction of peak sustained on transformer GEMMs (prefill and the
    /// per-token matmuls of decode).
    pub sustained_efficiency: f64,
    /// Bandwidth between the KV/weight level and the compute units, B/s.
    pub mem_bw_bytes_per_s: f64,
    /// Name of the memory level holding weights + KV cache.
    pub kv_level: String,
    /// Capacity of that level, bytes.
    pub kv_capacity_bytes: u64,
    /// Fixed overhead per kernel launch / decode step, seconds.
    pub step_overhead_s: f64,
}

/// Derived serving profile of one workload on one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReport {
    /// Platform name, copied from the [`InferModel`].
    pub platform: String,
    /// Batching mode the report was derived under.
    pub batching: BatchingMode,
    /// Time to first token, seconds. Under static batching this is the
    /// full-batch prefill; under continuous batching a new request only
    /// waits on its own prompt.
    pub ttft_s: f64,
    /// Full-batch prefill time, seconds.
    pub prefill_s: f64,
    /// Time to decode all `decode_len` tokens for the whole batch, seconds.
    pub decode_s: f64,
    /// Steady-state decode throughput, tokens/second (whole batch).
    pub decode_tokens_per_s: f64,
    /// Generated tokens per second of wall clock. Static batching pays the
    /// prefill inline; continuous batching overlaps prefill of incoming
    /// requests with decode of resident ones, so only decode bounds it.
    pub e2e_tokens_per_s: f64,
    /// Occupancy of the KV level: weights + peak KV cache against capacity.
    pub memory: MemoryLevelUsage,
    /// Peak KV-cache footprint alone, bytes.
    pub kv_cache_bytes: u64,
    /// Roofline classification of the prefill phase.
    pub prefill_bound: BoundKind,
    /// Roofline classification of the decode phase.
    pub decode_bound: BoundKind,
}

/// Time to execute one phase: the slower of its compute and its memory
/// traffic through the KV level, plus fixed overhead per launch.
fn phase_time(m: &InferModel, cost: &PhaseCost, launches: u64) -> f64 {
    let compute = cost.flops / (m.peak_tflops * 1e12 * m.sustained_efficiency);
    let memory = cost.total_bytes() / m.mem_bw_bytes_per_s;
    compute.max(memory) + launches as f64 * m.step_overhead_s
}

/// Profile `workload` on a platform described by `model`.
///
/// # Errors
///
/// [`PlatformError::OutOfMemory`] when the weights plus the peak KV cache
/// exceed the KV level's capacity.
pub fn profile_inference(
    model: &InferModel,
    workload: &InferenceWorkload,
) -> Result<InferenceReport, PlatformError> {
    obs::span(obs::Phase::Infer, "infer.profile", || {
        profile_inner(model, workload)
    })
}

fn profile_inner(
    model: &InferModel,
    workload: &InferenceWorkload,
) -> Result<InferenceReport, PlatformError> {
    let kv_bytes = workload.kv_cache_peak_bytes();
    let required = workload.weight_bytes().saturating_add(kv_bytes);
    if required > model.kv_capacity_bytes {
        return Err(PlatformError::OutOfMemory {
            level: model.kv_level.clone(),
            required_bytes: required,
            capacity_bytes: model.kv_capacity_bytes,
        });
    }

    let roofline = Roofline::new(model.peak_tflops, model.mem_bw_bytes_per_s);
    let prefill = workload.prefill_cost();
    let decode = workload.decode_cost();

    let prefill_s = obs::span(obs::Phase::Infer, "infer.prefill", || {
        phase_time(model, &prefill, 1)
    });
    let decode_s = obs::span(obs::Phase::Infer, "infer.decode", || {
        phase_time(model, &decode, workload.decode_len())
    });

    // Under continuous batching a new request's first token waits only on
    // its own prompt — the scheduler folds its prefill into slack left by
    // the (memory-bound) decode of resident sequences.
    let ttft_s = match workload.batching() {
        BatchingMode::Static => prefill_s,
        BatchingMode::Continuous => {
            let solo = workload
                .with_batch_size(1)
                .expect("batch 1 is within any validated workload's bounds");
            phase_time(model, &solo.prefill_cost(), 1)
        }
    };

    let generated = (workload.batch_size() * workload.decode_len()) as f64;
    let decode_tokens_per_s = generated / decode_s;
    let e2e_tokens_per_s = match workload.batching() {
        BatchingMode::Static => generated / (prefill_s + decode_s),
        BatchingMode::Continuous => decode_tokens_per_s,
    };

    obs::counter("infer.kv_cache_bytes", kv_bytes as f64);
    obs::counter("infer.generated_tokens", generated);

    Ok(InferenceReport {
        platform: model.platform.clone(),
        batching: workload.batching(),
        ttft_s,
        prefill_s,
        decode_s,
        decode_tokens_per_s,
        e2e_tokens_per_s,
        memory: MemoryLevelUsage {
            name: model.kv_level.clone(),
            used_bytes: required,
            capacity_bytes: model.kv_capacity_bytes,
        },
        kv_cache_bytes: kv_bytes,
        prefill_bound: roofline.classify(prefill.intensity),
        decode_bound: roofline.classify(decode.intensity),
    })
}

/// One platform's admission wall for a serving workload shape, as probed
/// by [`max_admissible_batch`]: the largest batch the platform admits,
/// plus the evidence for why the next size is rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionProbe {
    /// Largest admitted batch size (0 when even batch 1 OOMs).
    pub max_batch: u64,
    /// Memory level the first rejected size was checked against.
    pub kv_level: String,
    /// Bytes required at `max_batch + 1` — the first rejected size
    /// (`u64::MAX` when that size overflows workload validation).
    pub over_required_bytes: u64,
    /// Capacity the rejected size was checked against.
    pub over_capacity_bytes: u64,
}

/// Probe the admission wall of `workload`'s shape on one platform:
/// the largest batch size in `1..=limit` whose weights + peak KV cache
/// fit the platform's KV level. `model_for` maps a candidate workload to
/// the platform's [`InferModel`] — a closure rather than a fixed model
/// because some platforms (the IPU's tile-SRAM/DDR cliff) pick their
/// serving memory level per workload.
///
/// Admission is assumed monotone in batch (required bytes grow with
/// batch; a level switch only ever lands in a larger level), which the
/// binary search exploits. The `dabench gen` invariant checker
/// cross-validates this assumption against a linear batch ladder
/// ([`crate::gen::Invariant::OomWallConsistent`]).
#[must_use]
pub fn max_admissible_batch<F>(
    workload: &InferenceWorkload,
    limit: u64,
    mut model_for: F,
) -> AdmissionProbe
where
    F: FnMut(&InferenceWorkload) -> InferModel,
{
    // Mirrors `profile_inference`'s admission check exactly: weights +
    // peak KV cache against the KV level's capacity.
    let mut probe = |b: u64| match workload.with_batch_size(b) {
        Ok(w) => {
            let m = model_for(&w);
            let required = w.weight_bytes().saturating_add(w.kv_cache_peak_bytes());
            (required <= m.kv_capacity_bytes, Some((m, required)))
        }
        Err(_) => (false, None),
    };
    let limit = limit.max(1);
    // Invariant: `lo` fits (0 is the vacuous sentinel), `hi` does not
    // (limit + 1 is treated as beyond the caller's cap).
    let (mut lo, mut hi) = (0_u64, limit + 1);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(mid).0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let (_, over) = probe(lo + 1);
    let (kv_level, over_required_bytes, over_capacity_bytes) = match over {
        Some((m, required)) => (m.kv_level, required, m.kv_capacity_bytes),
        None => {
            let m = model_for(workload);
            (m.kv_level, u64::MAX, m.kv_capacity_bytes)
        }
    };
    AdmissionProbe {
        max_batch: lo,
        kv_level,
        over_required_bytes,
        over_capacity_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_model::{ModelConfig, Precision};

    fn gpu_like() -> InferModel {
        InferModel {
            platform: "gpu".into(),
            peak_tflops: 312.0,
            sustained_efficiency: 0.45,
            mem_bw_bytes_per_s: 2.0e12,
            kv_level: "hbm".into(),
            kv_capacity_bytes: 80 * 1024 * 1024 * 1024,
            step_overhead_s: 20e-6,
        }
    }

    fn workload(batch: u64) -> InferenceWorkload {
        InferenceWorkload::new(ModelConfig::llama2_7b(), batch, 512, 128, Precision::Fp16).unwrap()
    }

    #[test]
    fn prefill_is_compute_bound_decode_is_memory_bound() {
        let r = profile_inference(&gpu_like(), &workload(8)).unwrap();
        assert_eq!(r.prefill_bound, BoundKind::ComputeBound);
        assert_eq!(r.decode_bound, BoundKind::MemoryBound);
    }

    #[test]
    fn decode_dominates_end_to_end_time() {
        let r = profile_inference(&gpu_like(), &workload(8)).unwrap();
        assert!(
            r.decode_s > r.prefill_s,
            "{} !> {}",
            r.decode_s,
            r.prefill_s
        );
        assert!(r.e2e_tokens_per_s < r.decode_tokens_per_s);
    }

    #[test]
    fn batching_raises_decode_throughput() {
        let t1 = profile_inference(&gpu_like(), &workload(1))
            .unwrap()
            .decode_tokens_per_s;
        let t16 = profile_inference(&gpu_like(), &workload(16))
            .unwrap()
            .decode_tokens_per_s;
        // Decode is memory-bound on streaming the (shared) weights, so
        // batching amortizes them: strongly sublinear but well above 1×.
        assert!(t16 / t1 > 4.0, "{}", t16 / t1);
        assert!(t16 / t1 < 16.0, "{}", t16 / t1);
    }

    #[test]
    fn continuous_batching_cuts_ttft_and_lifts_e2e() {
        let w = workload(16);
        let stat = profile_inference(&gpu_like(), &w).unwrap();
        let cont = profile_inference(
            &gpu_like(),
            &w.clone().with_batching(BatchingMode::Continuous),
        )
        .unwrap();
        assert!(
            cont.ttft_s < stat.ttft_s,
            "{} !< {}",
            cont.ttft_s,
            stat.ttft_s
        );
        assert!(cont.e2e_tokens_per_s > stat.e2e_tokens_per_s);
        // Steady-state decode itself is batching-mode independent.
        assert!((cont.decode_tokens_per_s - stat.decode_tokens_per_s).abs() < 1e-9);
    }

    #[test]
    fn kv_overflow_is_a_structured_oom() {
        let mut tiny = gpu_like();
        tiny.kv_capacity_bytes = 1024 * 1024 * 1024; // 1 GiB: weights alone overflow
        let err = profile_inference(&tiny, &workload(8)).unwrap_err();
        match err {
            PlatformError::OutOfMemory {
                level,
                required_bytes,
                capacity_bytes,
            } => {
                assert_eq!(level, "hbm");
                assert!(required_bytes > capacity_bytes);
            }
            other => panic!("expected OutOfMemory, got {other}"),
        }
    }

    #[test]
    fn fp8_kv_fits_where_fp16_overflows() {
        let mut m = gpu_like();
        let w16 = workload(64);
        // Capacity just below the fp16 requirement but above the fp8 one.
        let need16 = w16.weight_bytes() + w16.kv_cache_peak_bytes();
        m.kv_capacity_bytes = need16 - 1;
        assert!(profile_inference(&m, &w16).is_err());
        let w8 = w16.with_kv_precision(Precision::Fp8);
        assert!(profile_inference(&m, &w8).is_ok());
    }

    #[test]
    fn admission_probe_finds_the_exact_wall() {
        let m = gpu_like();
        let probe = max_admissible_batch(&workload(1), 4096, |_| m.clone());
        assert!(probe.max_batch >= 1, "a 7B model fits an 80 GiB level");
        // The wall is exact: max_batch fits, max_batch + 1 does not.
        let fits = profile_inference(
            &m,
            &workload(probe.max_batch).with_batching(BatchingMode::Static),
        );
        assert!(fits.is_ok());
        let over = profile_inference(&m, &workload(probe.max_batch + 1));
        assert!(matches!(over, Err(PlatformError::OutOfMemory { .. })));
        assert_eq!(probe.kv_level, "hbm");
        assert!(probe.over_required_bytes > probe.over_capacity_bytes);
    }

    #[test]
    fn admission_probe_reports_zero_when_weights_overflow() {
        let mut tiny = gpu_like();
        tiny.kv_capacity_bytes = 1024; // nothing fits
        let probe = max_admissible_batch(&workload(1), 64, |_| tiny.clone());
        assert_eq!(probe.max_batch, 0);
        assert!(probe.over_required_bytes > probe.over_capacity_bytes);
    }

    #[test]
    fn memory_usage_reports_weights_plus_kv() {
        let w = workload(8);
        let r = profile_inference(&gpu_like(), &w).unwrap();
        assert_eq!(
            r.memory.used_bytes,
            w.weight_bytes() + w.kv_cache_peak_bytes()
        );
        assert_eq!(r.kv_cache_bytes, w.kv_cache_peak_bytes());
        assert!(r.memory.utilization() > 0.0 && r.memory.utilization() < 1.0);
    }
}
