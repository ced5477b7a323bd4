//! Megatron-LM-style 3D parallelism cost model.

use crate::chip::GpuSpec;
use dabench_core::PlatformError;
use dabench_model::TrainingWorkload;

/// A 3D parallel layout: tensor × pipeline × data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MegatronConfig {
    /// Tensor-parallel degree (kept within one node in practice).
    pub tp: u32,
    /// Pipeline-parallel stages.
    pub pp: u32,
    /// Data-parallel replicas.
    pub dp: u32,
    /// Micro-batch size in sequences.
    pub micro_batch: u32,
}

impl MegatronConfig {
    /// Layout with the default micro-batch of one sequence.
    #[must_use]
    pub fn new(tp: u32, pp: u32, dp: u32) -> Self {
        Self {
            tp,
            pp,
            dp,
            micro_batch: 1,
        }
    }

    /// Total GPUs of the layout.
    #[must_use]
    pub fn gpus(&self) -> u32 {
        self.tp * self.pp * self.dp
    }

    /// Table-III-style label, e.g. `"T8P1D1"`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("T{}P{}D{}", self.tp, self.pp, self.dp)
    }
}

/// Outcome of one Megatron-style training-step estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuRun {
    /// Layout evaluated.
    pub config: MegatronConfig,
    /// Wall-clock step time, seconds.
    pub step_time_s: f64,
    /// Aggregate throughput, tokens/second.
    pub tokens_per_s: f64,
    /// Per-GPU normalized throughput, tokens/second/GPU (the unit used for
    /// the paper's reference rows).
    pub tokens_per_s_per_gpu: f64,
    /// Pipeline-bubble share of the step.
    pub bubble_fraction: f64,
    /// Communication share of the step (TP + DP allreduces).
    pub comm_fraction: f64,
}

/// Estimate one training step of `workload` under `config`.
///
/// The global batch is split over data-parallel replicas and streamed
/// through the pipeline in micro-batches; tensor-parallel allreduces ride
/// NVLink inside a node, gradient allreduces ride the cluster fabric with
/// partial backward overlap.
///
/// # Errors
///
/// [`PlatformError::Unsupported`] when the layout is invalid for the
/// workload (zero degrees, TP beyond a node, batch not divisible by the
/// data-parallel degree).
pub fn megatron_throughput(
    spec: &GpuSpec,
    workload: &TrainingWorkload,
    config: MegatronConfig,
) -> Result<GpuRun, PlatformError> {
    use dabench_core::obs;
    obs::span(obs::Phase::Execute, "gpu.megatron", || {
        let run = megatron_inner(spec, workload, config);
        if let Ok(run) = &run {
            obs::counter("gpu.tokens_per_s", run.tokens_per_s);
            obs::counter("gpu.bubble_fraction", run.bubble_fraction);
        }
        run
    })
}

fn megatron_inner(
    spec: &GpuSpec,
    workload: &TrainingWorkload,
    config: MegatronConfig,
) -> Result<GpuRun, PlatformError> {
    if config.tp == 0 || config.pp == 0 || config.dp == 0 || config.micro_batch == 0 {
        return Err(PlatformError::Unsupported(
            "parallel degrees must be positive".to_owned(),
        ));
    }
    if config.tp > spec.gpus_per_node {
        return Err(PlatformError::Unsupported(format!(
            "tensor parallelism beyond one node ({} > {})",
            config.tp, spec.gpus_per_node
        )));
    }
    if !workload.batch_size().is_multiple_of(u64::from(config.dp)) {
        return Err(PlatformError::Unsupported(format!(
            "global batch {} not divisible by dp={}",
            workload.batch_size(),
            config.dp
        )));
    }

    let model = workload.model();
    let eb = workload.precision().bytes_per_element() as f64;
    let local_batch = workload.batch_size() / u64::from(config.dp);
    let micro = u64::from(config.micro_batch).min(local_batch);
    let num_micro = local_batch.div_ceil(micro).max(1);

    // Compute: the replica's share of the step FLOPs, spread over tp×pp.
    let step_flops = dabench_core::compile::training_graph(workload)
        .summary()
        .total_flops;
    let replica_flops = step_flops / f64::from(config.dp);
    let per_gpu_rate = spec.peak_tflops * 1e12 * spec.mfu;
    let compute_time = replica_flops / (f64::from(config.tp * config.pp) * per_gpu_rate);

    // Tensor parallelism: 4 allreduces per layer per micro-batch pass
    // (2 fwd + 2 bwd) among the TP ranks of one pipeline stage (L/p layers
    // per stage), each on micro×S×h activations.
    let tp_time = if config.tp > 1 {
        let volume = 4.0
            * (model.num_layers as f64 / f64::from(config.pp))
            * (local_batch * workload.seq_len() * model.hidden_size) as f64
            * eb
            * (f64::from(config.tp) - 1.0)
            / f64::from(config.tp);
        volume / spec.nvlink_bw_bytes_per_s
    } else {
        0.0
    };

    // Pipeline bubble — the classic (p-1)/(m+p-1) inflation — plus the
    // per-stage inefficiency of imperfect layer balance and exposed p2p
    // activation transfers.
    let p = f64::from(config.pp);
    let m = num_micro as f64;
    let bubble_inflation = (m + p - 1.0) / m * (1.0 + spec.pp_stage_inefficiency * (p - 1.0));

    // Data parallelism: gradient allreduce on the replica's parameter
    // shard, half-overlapped with backward.
    let dp_time = if config.dp > 1 {
        let shard = model.parameter_count() as f64 * eb / f64::from(config.tp * config.pp);
        let d = f64::from(config.dp);
        let cross_node = config.gpus() > spec.gpus_per_node;
        let bw = if cross_node {
            spec.ib_bw_bytes_per_s
        } else {
            spec.nvlink_bw_bytes_per_s
        };
        0.5 * 2.0 * shard * (d - 1.0) / d / bw
    } else {
        0.0
    };

    let pipeline_time = (compute_time + tp_time) * bubble_inflation;
    let step_time = pipeline_time + dp_time;
    let tokens = workload.tokens_per_step() as f64;
    let gpus = f64::from(config.gpus());
    Ok(GpuRun {
        config,
        step_time_s: step_time,
        tokens_per_s: tokens / step_time,
        tokens_per_s_per_gpu: tokens / step_time / gpus,
        bubble_fraction: ((pipeline_time - compute_time - tp_time) / step_time).max(0.0),
        comm_fraction: (tp_time * bubble_inflation + dp_time) / step_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_model::{ModelConfig, Precision};

    fn xl(batch: u64) -> TrainingWorkload {
        TrainingWorkload::new(ModelConfig::gpt2_xl(), batch, 1024, Precision::Fp16)
    }

    fn run(tp: u32, pp: u32, dp: u32, batch: u64) -> GpuRun {
        megatron_throughput(
            &GpuSpec::a100(),
            &xl(batch),
            MegatronConfig::new(tp, pp, dp),
        )
        .unwrap()
    }

    #[test]
    fn eight_gpu_ladder_matches_table3_order() {
        // Paper Table III: T8P1D1 (155) > T4P2D1 (145) > T2P4D1 (136) >
        // T1P8D1 (120) per GPU.
        let t8 = run(8, 1, 1, 64).tokens_per_s_per_gpu;
        let t4p2 = run(4, 2, 1, 64).tokens_per_s_per_gpu;
        let t2p4 = run(2, 4, 1, 64).tokens_per_s_per_gpu;
        let p8 = run(1, 8, 1, 64).tokens_per_s_per_gpu;
        assert!(t8 > t4p2, "{t8} {t4p2}");
        assert!(t4p2 > t2p4, "{t4p2} {t2p4}");
        assert!(t2p4 > p8, "{t2p4} {p8}");
        // The spread is tens of percent, not orders of magnitude.
        let spread = t8 / p8;
        assert!((1.1..1.8).contains(&spread), "{spread}");
    }

    #[test]
    fn large_batch_hides_the_bubble() {
        let small = run(8, 8, 1, 64);
        let large = run(8, 8, 1, 1024);
        assert!(large.bubble_fraction < small.bubble_fraction);
    }

    #[test]
    fn big_cluster_configs_stay_competitive() {
        // Paper: T8P8D16 at a 16× larger global batch is per-GPU
        // comparable to the single-node configs.
        let single = run(8, 1, 1, 64).tokens_per_s_per_gpu;
        let big = run(8, 8, 16, 8192).tokens_per_s_per_gpu;
        let ratio = big / single;
        assert!((0.6..1.3).contains(&ratio), "{ratio}");
    }

    #[test]
    fn invalid_layouts_rejected() {
        let err = megatron_throughput(&GpuSpec::a100(), &xl(64), MegatronConfig::new(16, 1, 1))
            .unwrap_err();
        assert!(matches!(err, PlatformError::Unsupported(_)));
        let err = megatron_throughput(&GpuSpec::a100(), &xl(3), MegatronConfig::new(1, 1, 2))
            .unwrap_err();
        assert!(matches!(err, PlatformError::Unsupported(_)));
    }

    #[test]
    fn dp_scales_aggregate_throughput() {
        let d1 = run(8, 1, 1, 64).tokens_per_s;
        let d4 = run(8, 1, 4, 256).tokens_per_s;
        assert!(d4 > 2.5 * d1, "{d4} vs {d1}");
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(MegatronConfig::new(8, 8, 16).label(), "T8P8D16");
        assert_eq!(MegatronConfig::new(8, 8, 16).gpus(), 1024);
    }
}
