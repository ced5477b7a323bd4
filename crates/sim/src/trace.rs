//! Execution-trace rendering: per-resource timelines and a text Gantt
//! chart for inspecting simulated schedules.

use crate::stats::SimResult;

/// One busy interval on a resource's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    /// Task that occupied the slot.
    pub task: String,
    /// Start time, seconds.
    pub start: f64,
    /// Finish time, seconds.
    pub finish: f64,
}

/// Per-resource timeline extracted from a [`SimResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Resource name.
    pub resource: String,
    /// Intervals sorted by start time.
    pub intervals: Vec<Interval>,
}

impl Timeline {
    /// Total idle time inside the resource's active span.
    ///
    /// The span runs from the earliest interval start to the latest
    /// finish — computed as a min/max over all intervals, so the result
    /// does not depend on interval order (the sorted-by-start invariant
    /// of [`timelines`] is *not* required). Empty timelines have no span
    /// and report zero idle; zero-length intervals contribute no busy
    /// time but still extend the span.
    #[must_use]
    pub fn idle_within_span(&self) -> f64 {
        if self.intervals.is_empty() {
            return 0.0;
        }
        let span_start = self
            .intervals
            .iter()
            .map(|i| i.start)
            .fold(f64::INFINITY, f64::min);
        let span_end = self
            .intervals
            .iter()
            .map(|i| i.finish)
            .fold(f64::NEG_INFINITY, f64::max);
        let busy: f64 = self.intervals.iter().map(|i| i.finish - i.start).sum();
        (span_end - span_start - busy).max(0.0)
    }
}

/// Feed timelines into the observability recorder as simulated-time
/// slices (`dabench_core::obs::slice`), one track per resource.
///
/// No-op when the recorder is disabled, so simulation callers can invoke
/// it unconditionally after [`timelines`].
pub fn record_timelines(timelines: &[Timeline]) {
    if !dabench_core::obs::is_enabled() {
        return;
    }
    for tl in timelines {
        for iv in &tl.intervals {
            dabench_core::obs::slice(&tl.resource, &iv.task, iv.start, iv.finish - iv.start);
        }
    }
}

/// Extract per-resource timelines from a simulation result.
///
/// # Example
///
/// ```
/// use dabench_sim::{trace, Resource, Simulation, TaskSpec};
///
/// let mut sim = Simulation::new(vec![Resource::new("r", 1)]);
/// sim.add_task(TaskSpec::new("a", 0, 1.0));
/// sim.add_task(TaskSpec::new("b", 0, 2.0));
/// let res = sim.run().unwrap();
/// let tl = trace::timelines(&res);
/// assert_eq!(tl[0].intervals.len(), 2);
/// assert_eq!(tl[0].idle_within_span(), 0.0);
/// ```
#[must_use]
pub fn timelines(result: &SimResult) -> Vec<Timeline> {
    result
        .resource_names()
        .iter()
        .enumerate()
        .map(|(r, name)| {
            let mut intervals: Vec<Interval> = result
                .timings()
                .iter()
                .filter(|t| t.resource == r)
                .map(|t| Interval {
                    task: t.name.clone(),
                    start: t.start,
                    finish: t.finish,
                })
                .collect();
            intervals.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite times"));
            Timeline {
                resource: name.clone(),
                intervals,
            }
        })
        .collect()
}

/// Render a fixed-width text Gantt chart (`width` columns spanning the
/// makespan). Each resource is one row; `#` marks busy cells.
///
/// # Example
///
/// ```
/// use dabench_sim::{trace, Resource, Simulation, TaskSpec};
///
/// let mut sim = Simulation::new(vec![Resource::new("cpu", 1)]);
/// let a = sim.add_task(TaskSpec::new("a", 0, 1.0));
/// sim.add_task(TaskSpec::new("b", 0, 1.0).after(a));
/// let chart = trace::gantt(&sim.run().unwrap(), 20);
/// assert!(chart.contains("cpu"));
/// assert!(chart.contains('#'));
/// ```
#[must_use]
pub fn gantt(result: &SimResult, width: usize) -> String {
    let width = width.max(1);
    let makespan = result.makespan().max(f64::MIN_POSITIVE);
    let name_w = result
        .resource_names()
        .iter()
        .map(String::len)
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for tl in timelines(result) {
        let mut cells = vec![' '; width];
        for iv in &tl.intervals {
            let a = ((iv.start / makespan) * width as f64).floor() as usize;
            let b = ((iv.finish / makespan) * width as f64).ceil() as usize;
            for c in cells.iter_mut().take(b.min(width)).skip(a.min(width)) {
                *c = '#';
            }
        }
        out.push_str(&format!(
            "{:name_w$} |{}|\n",
            tl.resource,
            cells.into_iter().collect::<String>()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Resource, Simulation, TaskSpec};

    fn pipeline_sim() -> SimResult {
        let mut sim = Simulation::new(vec![Resource::new("p", 1), Resource::new("c", 1)]);
        let a = sim.add_task(TaskSpec::new("a", 0, 1.0));
        let b = sim.add_task(TaskSpec::new("b", 0, 1.0).after(a));
        sim.add_task(TaskSpec::new("ca", 1, 1.0).after(a));
        sim.add_task(TaskSpec::new("cb", 1, 1.0).after(b));
        sim.run().unwrap()
    }

    #[test]
    fn timelines_are_sorted_and_complete() {
        let tl = timelines(&pipeline_sim());
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].intervals.len() + tl[1].intervals.len(), 4);
        for t in &tl {
            for w in t.intervals.windows(2) {
                assert!(w[0].start <= w[1].start);
            }
        }
    }

    #[test]
    fn consumer_has_initial_idle() {
        let tl = timelines(&pipeline_sim());
        let consumer = tl.iter().find(|t| t.resource == "c").unwrap();
        // Consumer starts at t=1 and runs back-to-back: no idle inside span.
        assert_eq!(consumer.intervals[0].start, 1.0);
        assert_eq!(consumer.idle_within_span(), 0.0);
    }

    #[test]
    fn idle_detected_in_gappy_schedules() {
        let mut sim = Simulation::new(vec![Resource::new("a", 1), Resource::new("b", 1)]);
        let long = sim.add_task(TaskSpec::new("long", 0, 5.0));
        sim.add_task(TaskSpec::new("early", 1, 1.0));
        sim.add_task(TaskSpec::new("late", 1, 1.0).after(long));
        let res = sim.run().unwrap();
        let tl = timelines(&res);
        let b = tl.iter().find(|t| t.resource == "b").unwrap();
        assert!((b.idle_within_span() - 4.0).abs() < 1e-12);
    }

    fn iv(task: &str, start: f64, finish: f64) -> Interval {
        Interval {
            task: task.to_owned(),
            start,
            finish,
        }
    }

    #[test]
    fn empty_timeline_has_zero_idle() {
        let tl = Timeline {
            resource: "r".to_owned(),
            intervals: vec![],
        };
        assert_eq!(tl.idle_within_span(), 0.0);
    }

    #[test]
    fn zero_length_intervals_extend_the_span_without_busy_time() {
        // A zero-length marker at t=0 plus one unit of work in [3,4]:
        // the span is [0,4], busy is 1, idle is 3.
        let tl = Timeline {
            resource: "r".to_owned(),
            intervals: vec![iv("marker", 0.0, 0.0), iv("work", 3.0, 4.0)],
        };
        assert!((tl.idle_within_span() - 3.0).abs() < 1e-12);
        // All-zero-length intervals: span collapses, no idle.
        let degenerate = Timeline {
            resource: "r".to_owned(),
            intervals: vec![iv("m1", 2.0, 2.0), iv("m2", 2.0, 2.0)],
        };
        assert_eq!(degenerate.idle_within_span(), 0.0);
    }

    #[test]
    fn idle_within_span_is_order_independent() {
        // Unsorted input: the first interval is *not* the earliest. A
        // first-element span start would misreport idle as 0 here.
        let unsorted = Timeline {
            resource: "r".to_owned(),
            intervals: vec![iv("late", 5.0, 6.0), iv("early", 0.0, 1.0)],
        };
        let sorted = Timeline {
            resource: "r".to_owned(),
            intervals: vec![iv("early", 0.0, 1.0), iv("late", 5.0, 6.0)],
        };
        assert!((unsorted.idle_within_span() - 4.0).abs() < 1e-12);
        assert_eq!(unsorted.idle_within_span(), sorted.idle_within_span());
    }

    #[test]
    fn record_timelines_is_inert_when_recorder_is_off() {
        // Must not panic or record anything without an enabled recorder.
        dabench_core::obs::disable();
        record_timelines(&timelines(&pipeline_sim()));
        assert!(dabench_core::obs::take().is_empty());
    }

    #[test]
    fn gantt_rows_match_resources() {
        let chart = gantt(&pipeline_sim(), 40);
        assert_eq!(chart.lines().count(), 2);
        for line in chart.lines() {
            assert!(line.contains('|'));
        }
    }

    #[test]
    fn gantt_handles_empty_simulation() {
        let sim = Simulation::new(vec![Resource::new("r", 1)]);
        let chart = gantt(&sim.run().unwrap(), 10);
        assert!(chart.contains('r'));
    }
}
