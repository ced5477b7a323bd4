//! Fault-aware execution: retry-with-backoff and checkpoint/restart cost.
//!
//! Dataflow runtimes recover from *transient* faults (a stalled fabric
//! section, a dropped link packet burst) by re-enqueueing the affected task
//! after a backoff, and from *permanent* faults by remapping the workload
//! and restarting from the last checkpoint. [`run_with_faults`] models the
//! first mechanism directly in the event engine — every failed attempt and
//! its backoff is folded into the task's service time, so retries are
//! visible in the resulting [`TaskTiming`]s — while [`CheckpointModel`]
//! prices the second for platform-level recovery accounting.

use crate::engine::{SimError, Simulation, TaskId, TaskSpec};
use crate::stats::SimResult;

/// A fault injected into one simulated task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskFault {
    /// The task stalls for `stall_s` on each of `failures` attempts before
    /// succeeding; each failed attempt is followed by a backoff delay.
    Transient {
        /// Stall duration of each failed attempt, seconds.
        stall_s: f64,
        /// Number of failed attempts before the task succeeds.
        failures: u32,
    },
    /// The task's home unit is permanently dead: the run cannot proceed
    /// without a remap, which the engine cannot perform itself.
    Permanent,
}

/// Exponential-backoff retry policy for transient faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Backoff after the first failed attempt, seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied to the backoff after each further failure.
    pub multiplier: f64,
    /// Attempts after which the task is declared permanently failed.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base_backoff_s: 1e-3,
            multiplier: 2.0,
            max_retries: 8,
        }
    }
}

impl RetryPolicy {
    /// Total extra time `failures` failed attempts cost: each attempt
    /// stalls for `stall_s` and is followed by its backoff delay.
    #[must_use]
    pub fn retry_penalty_s(&self, stall_s: f64, failures: u32) -> f64 {
        let mut penalty = 0.0;
        let mut backoff = self.base_backoff_s;
        for _ in 0..failures {
            penalty += stall_s + backoff;
            backoff *= self.multiplier;
        }
        penalty
    }
}

/// Checkpoint/restart cost model for permanent-fault recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointModel {
    /// Time between checkpoints, seconds.
    pub interval_s: f64,
    /// Cost of writing one checkpoint, seconds.
    pub save_cost_s: f64,
    /// Cost of restoring from a checkpoint after a fault, seconds.
    pub restore_cost_s: f64,
}

impl Default for CheckpointModel {
    fn default() -> Self {
        Self {
            interval_s: 600.0,
            save_cost_s: 5.0,
            restore_cost_s: 15.0,
        }
    }
}

impl CheckpointModel {
    /// Steady-state fraction of wall-clock time spent writing checkpoints.
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        if self.interval_s <= 0.0 {
            0.0
        } else {
            self.save_cost_s / (self.interval_s + self.save_cost_s)
        }
    }

    /// Expected work lost to one permanent fault: restore cost plus half a
    /// checkpoint interval of replayed steps (faults land uniformly within
    /// the interval).
    #[must_use]
    pub fn expected_lost_work_s(&self) -> f64 {
        self.restore_cost_s + self.interval_s / 2.0
    }
}

/// Retry bookkeeping for one faulted task.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryRecord {
    /// Id of the faulted task.
    pub task: TaskId,
    /// Task name.
    pub name: String,
    /// Total attempts (failures + the final success).
    pub attempts: u32,
    /// Extra service time the retries added, seconds.
    pub penalty_s: f64,
}

/// Outcome of a fault-injected run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyRun {
    /// Timings with retry penalties folded into faulted tasks.
    pub result: SimResult,
    /// One record per transiently-faulted task.
    pub retries: Vec<RetryRecord>,
    /// Makespan the same DAG achieves with no faults, for comparison.
    pub fault_free_makespan: f64,
}

impl FaultyRun {
    /// Slowdown relative to the fault-free run (`>= 1`).
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        if self.fault_free_makespan <= 0.0 {
            1.0
        } else {
            self.result.makespan() / self.fault_free_makespan
        }
    }
}

/// Execute `sim` with transient faults injected into the listed tasks.
///
/// Each `(task, fault)` pair stretches that task's service time by the
/// retry penalty under `policy`, then the whole DAG is re-simulated, so
/// downstream tasks see realistic queueing delay from the retries.
///
/// # Errors
///
/// - [`SimError::UnknownDependency`] when a fault names a task id that was
///   never registered.
/// - [`SimError::Deadlock`] when a [`TaskFault::Transient`] exceeds
///   `policy.max_retries` or a [`TaskFault::Permanent`] is injected — the
///   engine cannot remap, so the task never completes; callers recover via
///   `Degradable::degrade` and price the restart with [`CheckpointModel`].
/// - Any error the underlying [`Simulation::run`] reports.
pub fn run_with_faults(
    sim: &Simulation,
    faults: &[(TaskId, TaskFault)],
    policy: &RetryPolicy,
) -> Result<FaultyRun, SimError> {
    let baseline = sim.run()?;

    let mut penalties: Vec<f64> = vec![0.0; sim.task_count()];
    let mut retries = Vec::new();
    for &(task, fault) in faults {
        let Some(spec) = sim.tasks().get(task) else {
            return Err(SimError::UnknownDependency {
                task: "<fault injection>".into(),
                dep: task,
            });
        };
        match fault {
            TaskFault::Transient { stall_s, failures } => {
                if failures > policy.max_retries {
                    return Err(SimError::Deadlock { stuck: 1 });
                }
                let penalty = policy.retry_penalty_s(stall_s, failures);
                penalties[task] += penalty;
                retries.push(RetryRecord {
                    task,
                    name: spec.name().to_string(),
                    attempts: failures + 1,
                    penalty_s: penalty,
                });
            }
            TaskFault::Permanent => {
                return Err(SimError::Deadlock { stuck: 1 });
            }
        }
    }

    let mut faulty = Simulation::new(sim.resources().to_vec());
    for (i, t) in sim.tasks().iter().enumerate() {
        let spec = TaskSpec::try_new(t.name(), t.resource(), t.duration() + penalties[i])?
            .after_all(t.deps().iter().copied());
        faulty.add_task(spec);
    }
    let result = faulty.run()?;

    Ok(FaultyRun {
        result,
        retries,
        fault_free_makespan: baseline.makespan(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Resource;

    fn two_task_sim() -> Simulation {
        let mut sim = Simulation::new(vec![Resource::new("r", 1)]);
        let a = sim.add_task(TaskSpec::new("a", 0, 1.0));
        sim.add_task(TaskSpec::new("b", 0, 1.0).after(a));
        sim
    }

    #[test]
    fn fault_free_run_matches_baseline() {
        let sim = two_task_sim();
        let run = run_with_faults(&sim, &[], &RetryPolicy::default()).unwrap();
        assert!((run.result.makespan() - run.fault_free_makespan).abs() < 1e-12);
        assert!((run.slowdown() - 1.0).abs() < 1e-12);
        assert!(run.retries.is_empty());
    }

    #[test]
    fn transient_fault_stretches_task_and_downstream() {
        let sim = two_task_sim();
        let policy = RetryPolicy {
            base_backoff_s: 0.5,
            multiplier: 2.0,
            max_retries: 8,
        };
        let fault = TaskFault::Transient {
            stall_s: 1.0,
            failures: 2,
        };
        let run = run_with_faults(&sim, &[(0, fault)], &policy).unwrap();
        // Penalty = (1.0 + 0.5) + (1.0 + 1.0) = 3.5 on task a.
        let a = run.result.timing_of("a").unwrap();
        assert!((a.duration() - 4.5).abs() < 1e-12);
        // Task b starts only after the retried a completes.
        let b = run.result.timing_of("b").unwrap();
        assert!((b.start - 4.5).abs() < 1e-12);
        assert!((run.result.makespan() - 5.5).abs() < 1e-12);
        assert!((run.slowdown() - 2.75).abs() < 1e-12);
        assert_eq!(run.retries.len(), 1);
        assert_eq!(run.retries[0].attempts, 3);
    }

    #[test]
    fn backoff_grows_exponentially() {
        let policy = RetryPolicy {
            base_backoff_s: 1.0,
            multiplier: 3.0,
            max_retries: 8,
        };
        // Failures cost (s + 1) + (s + 3) + (s + 9) with s = 0.
        assert!((policy.retry_penalty_s(0.0, 3) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn permanent_fault_is_unrecoverable_in_engine() {
        let sim = two_task_sim();
        let res = run_with_faults(&sim, &[(0, TaskFault::Permanent)], &RetryPolicy::default());
        assert!(matches!(res, Err(SimError::Deadlock { .. })));
    }

    #[test]
    fn retries_beyond_policy_limit_fail() {
        let sim = two_task_sim();
        let policy = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        };
        let fault = TaskFault::Transient {
            stall_s: 0.1,
            failures: 3,
        };
        assert!(run_with_faults(&sim, &[(0, fault)], &policy).is_err());
    }

    #[test]
    fn unknown_task_fault_rejected() {
        let sim = two_task_sim();
        let fault = TaskFault::Transient {
            stall_s: 0.1,
            failures: 1,
        };
        assert!(matches!(
            run_with_faults(&sim, &[(9, fault)], &RetryPolicy::default()),
            Err(SimError::UnknownDependency { dep: 9, .. })
        ));
    }

    #[test]
    fn checkpoint_costs_are_positive_and_bounded() {
        let cp = CheckpointModel::default();
        let f = cp.overhead_fraction();
        assert!(f > 0.0 && f < 1.0);
        assert!(cp.expected_lost_work_s() > cp.restore_cost_s);
        let degenerate = CheckpointModel {
            interval_s: 0.0,
            ..cp
        };
        assert_eq!(degenerate.overhead_fraction(), 0.0);
    }
}
