//! WSE scalability modes: intra-chip data parallelism and weight streaming.
//!
//! The WSE-2 scales *within* the wafer (Sec. VI-A.3a of the paper): small
//! models are replicated into grid slices (intra-chip DP, with gradient
//! allreduce over the fabric whose cost grows with replica distance), and
//! models too large for on-chip residence switch to weight-streaming mode
//! (one layer at a time across the whole wafer, weights streamed from
//! external memory).

use crate::chip::{WseCompilerParams, WseSpec};
use crate::compile::compile;
use crate::runtime::{execute, precision_rate_factor};
use dabench_core::PlatformError;
use dabench_model::TrainingWorkload;

/// Plan and outcome of an intra-chip data-parallel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaPlan {
    /// Number of replicas.
    pub replicas: u32,
    /// PE budget per replica.
    pub budget_per_replica: u64,
    /// Per-replica computation throughput, tokens/second.
    pub per_replica_tokens_per_s: f64,
    /// Aggregate throughput before communication, tokens/second.
    pub computation_tokens_per_s: f64,
    /// Aggregate throughput after gradient allreduce, tokens/second.
    pub net_tokens_per_s: f64,
    /// Fraction of step time spent communicating.
    pub communication_fraction: f64,
}

/// Execute `workload` with `replicas` intra-chip data-parallel copies.
///
/// Each replica compiles into a `1/replicas` slice of the grid; gradients
/// are all-reduced across replicas after every step. With two replicas the
/// placer keeps them adjacent (near-zero distance cost); beyond two, the
/// extra hop distance adds a per-replica penalty (Fig. 11(a)).
///
/// # Errors
///
/// Propagates compile failures (e.g. the model does not fit in a slice).
pub fn data_parallel(
    spec: &WseSpec,
    params: &WseCompilerParams,
    workload: &TrainingWorkload,
    replicas: u32,
) -> Result<ReplicaPlan, PlatformError> {
    if replicas == 0 {
        return Err(PlatformError::Unsupported(
            "need at least one replica".to_owned(),
        ));
    }
    let budget =
        (params.usable_grid_fraction * spec.pe_count() as f64 / f64::from(replicas)) as u64;
    let compilation = compile(spec, params, workload, Some(budget))?;
    let exec = execute(spec, params, &compilation, workload);

    let r = f64::from(replicas);
    // Allreduce volume scales as (r-1)/r; placement keeps two replicas
    // adjacent (near-zero distance) but beyond that the mean pairwise
    // distance grows linearly with the replica count.
    let distance_factor = 1.0 + params.dp_distance_penalty * (r - 2.0).max(0.0);
    let comm_fraction = if replicas == 1 {
        0.0
    } else {
        (params.dp_comm_coefficient * (r - 1.0) / r * distance_factor).min(0.95)
    };

    let per_replica = exec.throughput_tokens_per_s;
    let computation = per_replica * r;
    let net = computation * (1.0 - comm_fraction);
    Ok(ReplicaPlan {
        replicas,
        budget_per_replica: budget,
        per_replica_tokens_per_s: per_replica,
        computation_tokens_per_s: computation,
        net_tokens_per_s: net,
        communication_fraction: comm_fraction,
    })
}

/// Outcome of a weight-streaming execution.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightStreamingRun {
    /// Wall-clock step time, seconds.
    pub step_time_s: f64,
    /// Training throughput, tokens/second.
    pub throughput_tokens_per_s: f64,
    /// Fraction of step time spent streaming weights.
    pub streaming_fraction: f64,
    /// Achieved compute throughput, TFLOP/s.
    pub achieved_tflops: f64,
}

/// Execute `workload` in weight-streaming mode: layers run serially across
/// the whole wafer while their weights stream in from external memory.
///
/// This mode has no per-kernel residency limit, so arbitrarily deep models
/// run; the cost is the loss of spatial pipelining (lower sustained
/// efficiency) plus the streaming time itself — the paper measures ~20%
/// lower throughput than pipelined mode for GPT-2.
///
/// # Errors
///
/// Currently infallible for positive workloads; returns `Result` for
/// interface symmetry.
pub fn weight_streaming(
    spec: &WseSpec,
    params: &WseCompilerParams,
    workload: &TrainingWorkload,
) -> Result<WeightStreamingRun, PlatformError> {
    let rate = precision_rate_factor(workload.precision(), params);
    let usable =
        params.usable_grid_fraction * spec.pe_count() as f64 / (1.0 + params.transmission_ratio);
    let compute_rate = usable * spec.peak_flops_per_pe * params.weight_streaming_efficiency * rate;
    let step_flops = dabench_core::compile::training_graph(workload)
        .summary()
        .total_flops;
    let compute_time = step_flops / compute_rate;

    // Weights stream in once for forward and once for backward.
    let weight_bytes = workload.weight_bytes() as f64;
    let stream_time = 2.0 * weight_bytes / spec.external_bw_bytes_per_s;

    let step_time = compute_time + stream_time;
    Ok(WeightStreamingRun {
        step_time_s: step_time,
        throughput_tokens_per_s: workload.tokens_per_step() as f64 / step_time,
        streaming_fraction: stream_time / step_time,
        achieved_tflops: step_flops / step_time / 1e12,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_model::{ModelConfig, Precision};

    fn spec() -> WseSpec {
        WseSpec::cs2()
    }

    fn params() -> WseCompilerParams {
        WseCompilerParams::default()
    }

    fn small(batch: u64) -> TrainingWorkload {
        TrainingWorkload::new(ModelConfig::gpt2_small(), batch, 1024, Precision::Fp16)
    }

    #[test]
    fn dp2_small_does_not_collapse() {
        // Paper Table III: GPT-2 small 0.66M → 0.98M tokens/s (1.48×). In
        // our model the single-copy run already saturates the chip, so the
        // DP2 gain is weaker (~1×); it must at least not regress (see
        // EXPERIMENTS.md for the recorded deviation).
        let base = data_parallel(&spec(), &params(), &small(256), 1).unwrap();
        let dp2 = data_parallel(&spec(), &params(), &small(256), 2).unwrap();
        let speedup = dp2.net_tokens_per_s / base.net_tokens_per_s;
        assert!((0.9..1.8).contains(&speedup), "{speedup}");
    }

    #[test]
    fn dp_scales_strongly_for_small_models() {
        // The paper's core DP insight: smaller models gain more from
        // replication. gpt2-mini at 4 replicas should be ≥2.5× its own
        // single-copy run.
        let mini = TrainingWorkload::new(ModelConfig::gpt2_mini(), 256, 1024, Precision::Fp16);
        let base = data_parallel(&spec(), &params(), &mini, 1).unwrap();
        let dp4 = data_parallel(&spec(), &params(), &mini, 4).unwrap();
        let speedup = dp4.net_tokens_per_s / base.net_tokens_per_s;
        assert!(speedup > 2.5, "{speedup}");
    }

    #[test]
    fn communication_grows_with_replicas() {
        let r2 = data_parallel(&spec(), &params(), &small(256), 2).unwrap();
        let r4 = data_parallel(
            &spec(),
            &params(),
            &TrainingWorkload::new(ModelConfig::gpt2_mini(), 256, 1024, Precision::Fp16),
            4,
        )
        .unwrap();
        assert!(r4.communication_fraction > r2.communication_fraction);
    }

    #[test]
    fn smaller_models_support_more_replicas() {
        // gpt2-tiny at 8 replicas compiles; the full small model at 8
        // replicas still compiles (it is elastic) but uses less absolute
        // budget per replica.
        let tiny = TrainingWorkload::new(ModelConfig::gpt2_tiny(), 256, 1024, Precision::Fp16);
        let plan = data_parallel(&spec(), &params(), &tiny, 8).unwrap();
        assert!(plan.net_tokens_per_s > 0.0);
        assert_eq!(plan.budget_per_replica, (0.93 * 850_000.0 / 8.0) as u64);
    }

    #[test]
    fn zero_replicas_rejected() {
        let err = data_parallel(&spec(), &params(), &small(32), 0).unwrap_err();
        assert!(matches!(err, PlatformError::Unsupported(_)));
    }

    #[test]
    fn weight_streaming_within_20_to_30_percent_of_pipelined() {
        // Paper: 0.66M → 0.53M tokens/s (~20% drop) for GPT-2 small.
        let pipelined = data_parallel(&spec(), &params(), &small(256), 1)
            .unwrap()
            .net_tokens_per_s;
        let ws = weight_streaming(&spec(), &params(), &small(256))
            .unwrap()
            .throughput_tokens_per_s;
        let drop = 1.0 - ws / pipelined;
        assert!((0.05..0.35).contains(&drop), "drop {drop}");
    }

    #[test]
    fn weight_streaming_handles_very_deep_models() {
        // 96 layers does not compile in pipelined mode but streams fine.
        let deep =
            TrainingWorkload::new(ModelConfig::gpt2_probe(768, 96), 256, 1024, Precision::Fp16);
        let run = weight_streaming(&spec(), &params(), &deep).unwrap();
        assert!(run.throughput_tokens_per_s > 0.0);
        assert!(run.streaming_fraction < 0.5);
    }

    #[test]
    fn streaming_fraction_grows_with_model_size() {
        let small_run = weight_streaming(&spec(), &params(), &small(256)).unwrap();
        let big = TrainingWorkload::new(ModelConfig::gpt2_xl(), 256, 1024, Precision::Fp16);
        let big_run = weight_streaming(&spec(), &params(), &big).unwrap();
        assert!(big_run.streaming_fraction > small_run.streaming_fraction);
    }
}
