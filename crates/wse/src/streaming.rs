//! Event-level weight-streaming schedule.
//!
//! [`crate::weight_streaming`] gives the closed-form throughput estimate;
//! this module builds the actual layer-serial schedule — weights of layer
//! `k+1` stream in over the external link *while* layer `k` computes on the
//! wafer — using the discrete-event engine, and reports how much of the
//! streaming the overlap hides. This is the mechanism that makes the mode
//! only ~20% slower than fully-resident execution for small models and
//! increasingly stream-bound for very large ones.

use crate::chip::{WseCompilerParams, WseSpec};
use crate::kernel::{kernels_of, Kernel};
use crate::runtime::precision_rate_factor;
use dabench_model::TrainingWorkload;
use dabench_sim::{Resource, SimError, Simulation, TaskSpec};

/// Per-kernel record of the streaming schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedLayer {
    /// Kernel name.
    pub name: String,
    /// Time to stream the kernel's weights over the external link, seconds.
    pub stream_time_s: f64,
    /// Whole-wafer compute time of the kernel, seconds.
    pub compute_time_s: f64,
}

/// An event-scheduled weight-streaming execution.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingSchedule {
    /// Per-kernel costs, in execution order.
    pub layers: Vec<StreamedLayer>,
    /// Step time with stream/compute overlap, seconds.
    pub overlapped_step_s: f64,
    /// Step time if streaming and compute were serialized, seconds.
    pub serial_step_s: f64,
    /// Fraction of total streaming hidden behind compute (`0..=1`).
    pub overlap_efficiency: f64,
    /// Training throughput with overlap, tokens/second.
    pub throughput_tokens_per_s: f64,
}

fn kernel_costs(
    k: &Kernel,
    spec: &WseSpec,
    params: &WseCompilerParams,
    rate: f64,
    weight_elem_bytes: u64,
) -> StreamedLayer {
    let usable =
        params.usable_grid_fraction * spec.pe_count() as f64 / (1.0 + params.transmission_ratio);
    let compute =
        k.flops / (usable * spec.peak_flops_per_pe * params.weight_streaming_efficiency * rate);
    // Weights stream once for forward and once for backward; fold both into
    // the kernel's single scheduling unit.
    let stream = 2.0 * (k.params * weight_elem_bytes) as f64 / spec.external_bw_bytes_per_s;
    StreamedLayer {
        name: k.name(),
        stream_time_s: stream,
        compute_time_s: compute,
    }
}

/// Build and execute the streaming schedule for `workload`.
///
/// Two resources — the external ingest link and the wafer — with layer
/// `k`'s compute depending on its own stream and on layer `k-1`'s compute;
/// the link runs ahead, prefetching.
///
/// # Panics
///
/// Panics on non-finite kernel costs (a zero-bandwidth link in `spec`);
/// use [`try_streaming_schedule`] to get the error instead.
#[must_use]
pub fn streaming_schedule(
    spec: &WseSpec,
    params: &WseCompilerParams,
    workload: &TrainingWorkload,
) -> StreamingSchedule {
    match try_streaming_schedule(spec, params, workload) {
        Ok(s) => s,
        Err(e) => panic!("streaming schedule construction failed: {e}"),
    }
}

/// Fallible variant of [`streaming_schedule`].
///
/// # Errors
///
/// [`SimError::InvalidDuration`] when a kernel's stream or compute cost is
/// non-finite (degenerate `spec`, e.g. zero external bandwidth).
pub fn try_streaming_schedule(
    spec: &WseSpec,
    params: &WseCompilerParams,
    workload: &TrainingWorkload,
) -> Result<StreamingSchedule, SimError> {
    use dabench_core::obs;
    obs::span(obs::Phase::Execute, "wse.streaming", || {
        let s = try_streaming_schedule_inner(spec, params, workload);
        if let Ok(s) = &s {
            obs::counter("wse.streamed_layers", s.layers.len() as f64);
            obs::counter("wse.overlap_efficiency", s.overlap_efficiency);
        }
        s
    })
}

fn try_streaming_schedule_inner(
    spec: &WseSpec,
    params: &WseCompilerParams,
    workload: &TrainingWorkload,
) -> Result<StreamingSchedule, SimError> {
    let rate = precision_rate_factor(workload.precision(), params);
    let weight_elem_bytes = workload.precision().bytes_per_element();
    let layers: Vec<StreamedLayer> = kernels_of(workload)
        .iter()
        .map(|k| kernel_costs(k, spec, params, rate, weight_elem_bytes))
        .collect();

    let mut sim = Simulation::new(vec![
        Resource::try_new("ingest", 1)?,
        Resource::try_new("wafer", 1)?,
    ]);
    let mut prev_compute: Option<usize> = None;
    let mut prev_stream: Option<usize> = None;
    for (i, l) in layers.iter().enumerate() {
        let mut stream = TaskSpec::try_new(format!("stream{i}"), 0, l.stream_time_s)?;
        if let Some(p) = prev_stream {
            stream = stream.after(p);
        }
        let stream_id = sim.add_task(stream);
        prev_stream = Some(stream_id);
        let mut compute =
            TaskSpec::try_new(format!("compute{i}"), 1, l.compute_time_s)?.after(stream_id);
        if let Some(p) = prev_compute {
            compute = compute.after(p);
        }
        prev_compute = Some(sim.add_task(compute));
    }
    let result = sim.run()?;
    if dabench_core::obs::is_enabled() {
        // Bridge the per-resource timelines (ingest link, wafer) into the
        // trace as simulated-time slices.
        dabench_sim::trace::record_timelines(&dabench_sim::trace::timelines(&result));
    }

    let total_stream: f64 = layers.iter().map(|l| l.stream_time_s).sum();
    let total_compute: f64 = layers.iter().map(|l| l.compute_time_s).sum();
    let overlapped = result.makespan();
    let serial = total_stream + total_compute;
    let hidden = (serial - overlapped).max(0.0);
    Ok(StreamingSchedule {
        overlap_efficiency: if total_stream > 0.0 {
            (hidden / total_stream).min(1.0)
        } else {
            1.0
        },
        throughput_tokens_per_s: workload.tokens_per_step() as f64 / overlapped,
        overlapped_step_s: overlapped,
        serial_step_s: serial,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_model::{ModelConfig, Precision};

    fn schedule(model: ModelConfig) -> StreamingSchedule {
        let w = TrainingWorkload::new(model, 256, 1024, Precision::Fp16);
        streaming_schedule(&WseSpec::cs2(), &WseCompilerParams::default(), &w)
    }

    #[test]
    fn streaming_is_negligible_for_small_models() {
        // At batch 256 the compute dwarfs the streamed weights: the
        // overlapped step is within a whisker of pure compute.
        let s = schedule(ModelConfig::gpt2_small());
        let total_compute: f64 = s.layers.iter().map(|l| l.compute_time_s).sum();
        assert!(s.overlapped_step_s < total_compute * 1.001);
        assert!(s.overlapped_step_s < s.serial_step_s);
    }

    #[test]
    fn schedule_is_bounded_by_both_resources() {
        let s = schedule(ModelConfig::gpt2_small());
        let total_stream: f64 = s.layers.iter().map(|l| l.stream_time_s).sum();
        let total_compute: f64 = s.layers.iter().map(|l| l.compute_time_s).sum();
        assert!(s.overlapped_step_s >= total_stream.max(total_compute) - 1e-12);
        assert!(s.overlapped_step_s <= s.serial_step_s + 1e-12);
    }

    #[test]
    fn closed_form_agrees_within_overlap_slack() {
        // The analytic weight_streaming() serializes stream and compute;
        // the event schedule can only be faster, by at most the streamed
        // time.
        let w = TrainingWorkload::new(ModelConfig::gpt2_small(), 256, 1024, Precision::Fp16);
        let analytic =
            crate::scale::weight_streaming(&WseSpec::cs2(), &WseCompilerParams::default(), &w)
                .unwrap();
        let event = streaming_schedule(&WseSpec::cs2(), &WseCompilerParams::default(), &w);
        assert!(event.overlapped_step_s <= analytic.step_time_s * 1.001);
        let gap = analytic.step_time_s - event.overlapped_step_s;
        let total_stream: f64 = event.layers.iter().map(|l| l.stream_time_s).sum();
        assert!(gap <= total_stream + 1e-9, "{gap} vs {total_stream}");
    }

    #[test]
    fn slow_links_make_the_schedule_stream_bound() {
        // At batch 1 on a link 20× slower than MemoryX, streaming can no
        // longer hide behind compute: the step stretches past it.
        let w = TrainingWorkload::new(ModelConfig::gpt2_xl(), 1, 1024, Precision::Fp16);
        let mut slow = WseSpec::cs2();
        slow.external_bw_bytes_per_s /= 20.0;
        let s = streaming_schedule(&slow, &WseCompilerParams::default(), &w);
        let total_compute: f64 = s.layers.iter().map(|l| l.compute_time_s).sum();
        let total_stream: f64 = s.layers.iter().map(|l| l.stream_time_s).sum();
        assert!(total_stream > total_compute);
        assert!(s.overlapped_step_s > total_compute * 1.5);
        // Overlap still hides a meaningful share of the compute-side wait.
        assert!(s.overlapped_step_s < s.serial_step_s);
    }

    #[test]
    fn layer_records_cover_all_kernels() {
        let s = schedule(ModelConfig::gpt2_small());
        assert_eq!(s.layers.len(), 27); // 2L+3 kernels for 12 layers
        assert!(s.layers.iter().all(|l| l.compute_time_s > 0.0));
    }
}
