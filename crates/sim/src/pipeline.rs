//! Closed-form pipeline steady-state analysis.
//!
//! Spatial dataflow executions are pipelines: the WSE-2 streams batches
//! through a chain of on-chip kernels, the IPU streams micro-batches
//! through layer-grouped devices. For a linear pipeline the discrete-event
//! engine is unnecessary — fill/drain plus bottleneck arithmetic is exact —
//! so this module provides the closed form (validated against the engine in
//! the crate's tests).

/// One stage of a linear pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStage {
    /// Stage label.
    pub name: String,
    /// Time one item spends in this stage, seconds.
    pub stage_time: f64,
}

impl PipelineStage {
    /// Create a stage.
    #[must_use]
    pub fn new(name: impl Into<String>, stage_time: f64) -> Self {
        Self {
            name: name.into(),
            stage_time,
        }
    }
}

/// Result of [`steady_state_analysis`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Index of the slowest stage.
    pub bottleneck_index: usize,
    /// Time of the slowest stage (the steady-state period), seconds.
    pub bottleneck_time: f64,
    /// Latency of one item through the empty pipeline, seconds.
    pub fill_time: f64,
    /// Asymptotic throughput, items/second.
    pub steady_throughput: f64,
    /// Total time to push `items` through, seconds.
    pub total_time: f64,
    /// Achieved throughput for the finite batch, items/second.
    pub effective_throughput: f64,
    /// Fraction of the asymptotic throughput achieved (`0..=1`).
    pub pipeline_efficiency: f64,
}

/// Analyze a linear pipeline processing `items` items.
///
/// Total time is `fill + (items - 1) · bottleneck`: the first item pays the
/// full latency, every further item emerges one bottleneck period later.
///
/// # Panics
///
/// Panics if `stages` is empty or `items` is zero.
///
/// # Example
///
/// ```
/// use dabench_sim::{steady_state_analysis, PipelineStage};
///
/// let stages = vec![
///     PipelineStage::new("a", 1.0),
///     PipelineStage::new("b", 2.0),
///     PipelineStage::new("c", 1.0),
/// ];
/// let r = steady_state_analysis(&stages, 100);
/// assert_eq!(r.bottleneck_index, 1);
/// // Asymptotically one item per 2 seconds.
/// assert!((r.steady_throughput - 0.5).abs() < 1e-12);
/// // 100 items: 4s fill + 99 * 2s = 202s.
/// assert!((r.total_time - 202.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn steady_state_analysis(stages: &[PipelineStage], items: u64) -> PipelineReport {
    assert!(!stages.is_empty(), "pipeline needs at least one stage");
    assert!(items > 0, "need at least one item");
    let (bottleneck_index, bottleneck_time) = stages
        .iter()
        .enumerate()
        .map(|(i, s)| (i, s.stage_time))
        .fold(
            (0, 0.0f64),
            |acc, cur| if cur.1 > acc.1 { cur } else { acc },
        );
    let fill_time: f64 = stages.iter().map(|s| s.stage_time).sum();
    let total_time = fill_time + (items - 1) as f64 * bottleneck_time;
    let steady_throughput = if bottleneck_time > 0.0 {
        1.0 / bottleneck_time
    } else {
        f64::INFINITY
    };
    let effective_throughput = if total_time > 0.0 {
        items as f64 / total_time
    } else {
        f64::INFINITY
    };
    let pipeline_efficiency = if steady_throughput.is_finite() && steady_throughput > 0.0 {
        effective_throughput / steady_throughput
    } else {
        1.0
    };
    PipelineReport {
        bottleneck_index,
        bottleneck_time,
        fill_time,
        steady_throughput,
        total_time,
        effective_throughput,
        pipeline_efficiency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Resource, Simulation, TaskSpec};

    #[test]
    fn single_stage_has_no_pipelining() {
        let r = steady_state_analysis(&[PipelineStage::new("only", 3.0)], 10);
        assert!((r.total_time - 30.0).abs() < 1e-12);
        assert!((r.pipeline_efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_grows_with_items() {
        let stages = vec![PipelineStage::new("a", 1.0), PipelineStage::new("b", 1.0)];
        let few = steady_state_analysis(&stages, 2);
        let many = steady_state_analysis(&stages, 200);
        assert!(many.pipeline_efficiency > few.pipeline_efficiency);
        assert!(many.pipeline_efficiency > 0.99);
    }

    #[test]
    fn closed_form_matches_event_simulation() {
        // 3-stage pipeline, 5 items, one resource slot per stage.
        let times = [1.0, 2.5, 0.5];
        let items = 5usize;
        let stages: Vec<PipelineStage> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| PipelineStage::new(format!("s{i}"), t))
            .collect();
        let analytic = steady_state_analysis(&stages, items as u64);

        let mut sim = Simulation::new(
            (0..times.len())
                .map(|i| Resource::new(format!("s{i}"), 1))
                .collect(),
        );
        let mut prev: Vec<Option<usize>> = vec![None; times.len()];
        for item in 0..items {
            for (s, &t) in times.iter().enumerate() {
                let mut spec = TaskSpec::new(format!("i{item}s{s}"), s, t);
                if s > 0 {
                    spec = spec.after(prev[s - 1].unwrap());
                }
                if let Some(p) = prev[s] {
                    spec = spec.after(p);
                }
                prev[s] = Some(sim.add_task(spec));
            }
        }
        let sim_res = sim.run().unwrap();
        assert!(
            (sim_res.makespan() - analytic.total_time).abs() < 1e-9,
            "sim {} vs analytic {}",
            sim_res.makespan(),
            analytic.total_time
        );
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_rejected() {
        let _ = steady_state_analysis(&[], 1);
    }
}
