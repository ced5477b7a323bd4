//! Deterministic scoped-thread parallel execution.
//!
//! The benchmark suite is a batch of independent, pure experiment points
//! (sweep cells, claim checks, sweep fractions), so it parallelizes
//! trivially — the only requirement is that parallel runs stay
//! *byte-identical* to sequential ones. [`par_map`] guarantees that by
//! collecting results in input order: the worker pool may evaluate points
//! in any interleaving, but the returned `Vec` (and therefore everything
//! rendered from it) is independent of scheduling.
//!
//! The worker count resolves, in priority order, from:
//!
//! 1. an explicit [`set_jobs`] call (the CLI's `--jobs N` flag),
//! 2. the `DABENCH_JOBS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Parallelism is one level deep: a `par_map` called on one of
//! `par_map`'s own worker threads runs inline on that thread, so nested
//! sweeps (a suite of experiments that each sweep their points) never
//! spawn a second tier of threads onto cores the first tier already
//! fills.
//!
//! Everything is dependency-free: `std::thread::scope` plus an atomic
//! work-stealing index, no channels, no rayon.

use crate::supervise::panic_message;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Explicit worker-count override; 0 means "not set".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on every thread [`par_map_with`] spawns: a `par_map` called
    /// there runs inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a [`par_map`] worker.
pub(crate) fn is_worker() -> bool {
    IN_WORKER.get()
}

/// Mark the calling thread as a [`par_map`] worker (or not). Threads that
/// run a worker's work on its behalf inherit the mark with this.
pub(crate) fn set_worker(on: bool) {
    IN_WORKER.set(on);
}

/// Override the worker count for all subsequent [`par_map`] calls.
///
/// Values are clamped to at least 1. This is what the CLI's `--jobs N`
/// flag calls; it takes precedence over `DABENCH_JOBS` and the detected
/// hardware parallelism.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n.max(1), Ordering::SeqCst);
}

/// The worker count [`par_map`] will use: [`set_jobs`] override, then the
/// `DABENCH_JOBS` environment variable, then the machine's available
/// parallelism (1 if detection fails).
#[must_use]
pub fn jobs() -> usize {
    let explicit = JOBS_OVERRIDE.load(Ordering::SeqCst);
    if explicit > 0 {
        return explicit;
    }
    if let Some(n) = std::env::var("DABENCH_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Map `f` over `items` on a scoped worker pool, returning results in
/// input order.
///
/// Output is byte-identical to `items.iter().map(f).collect()` for any
/// pure `f`, whatever the worker count: scheduling only changes *when*
/// each point is evaluated, never where its result lands. Uses the
/// worker count from [`jobs`]; on a `par_map` worker thread it runs
/// inline.
///
/// # Panics
///
/// Propagates the lowest-index panic raised by `f`, with the panicking
/// point's index attached to the payload so sweep failures are
/// diagnosable (`par_map: point 5 panicked: …`).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(jobs(), items, f)
}

/// [`par_map`] with an explicit worker count, bypassing the global
/// setting (useful in tests that must not race on [`set_jobs`]). Called
/// on a `par_map` worker thread, it runs inline whatever `workers` says.
///
/// # Panics
///
/// Propagates the lowest-index panic raised by `f`, with the panicking
/// point's index attached to the payload.
pub fn par_map_with<T, U, F>(workers: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n);
    // Observability: each item records into its own child context, tagged
    // with its *input* index, on sequential and parallel paths alike — so
    // the merged trace is a function of the input order, not scheduling.
    let obs_fork = crate::obs::fork();
    let call = |i: usize, item: &T| obs_fork.enter(i as u64, || f(item));
    if workers <= 1 || is_worker() {
        return items
            .iter()
            .enumerate()
            .map(
                |(i, item)| match catch_unwind(AssertUnwindSafe(|| call(i, item))) {
                    Ok(u) => u,
                    Err(p) => panic!("par_map: point {i} panicked: {}", panic_message(p.as_ref())),
                },
            )
            .collect();
    }

    // Lowest-index panic seen by any worker; propagating the *first* input
    // that died (not whichever thread lost the race) keeps failures
    // deterministic enough to reproduce with `--jobs 1`.
    let first_panic: Mutex<Option<(usize, String)>> = Mutex::new(None);
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, U)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    set_worker(true);
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| call(i, &items[i]))) {
                            Ok(u) => local.push((i, u)),
                            Err(p) => {
                                let message = panic_message(p.as_ref());
                                let mut slot = first_panic.lock().expect("panic slot");
                                if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                                    *slot = Some((i, message));
                                }
                                break;
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panics are caught in-loop"))
            .collect()
    });

    if let Some((i, message)) = first_panic.into_inner().expect("panic slot") {
        panic!("par_map: point {i} panicked: {message}");
    }
    indexed.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), n);
    indexed.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 4, 8, 128] {
            assert_eq!(
                par_map_with(workers, &items, |&x| x * x),
                expected,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_with(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map_with(4, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn non_copy_results_collect_in_order() {
        let items: Vec<usize> = (0..20).collect();
        let out = par_map_with(3, &items, |&i| format!("row-{i}"));
        for (i, s) in out.iter().enumerate() {
            assert_eq!(s, &format!("row-{i}"));
        }
    }

    #[test]
    fn workers_actually_run_concurrently() {
        use std::sync::atomic::AtomicUsize;
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        let items: Vec<u32> = (0..8).collect();
        par_map_with(4, &items, |_| {
            let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(live, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            LIVE.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(PEAK.load(Ordering::SeqCst) > 1);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..8).collect();
        par_map_with(2, &items, |&i| {
            assert!(i != 5, "worker boom");
            i
        });
    }

    #[test]
    #[should_panic(expected = "par_map: point 5 panicked")]
    fn propagated_panics_name_the_point_index() {
        let items: Vec<u32> = (0..8).collect();
        par_map_with(3, &items, |&i| {
            assert!(i != 5, "boom at {i}");
            i
        });
    }

    #[test]
    #[should_panic(expected = "par_map: point 2 panicked")]
    fn sequential_path_also_names_the_point_index() {
        let items: Vec<u32> = (0..4).collect();
        par_map_with(1, &items, |&i| {
            assert!(i != 2, "boom");
            i
        });
    }

    #[test]
    fn lowest_index_panic_wins() {
        // Two panicking points: the propagated payload must name the
        // lowest index regardless of which worker loses the race.
        let items: Vec<u32> = (0..16).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map_with(4, &items, |&i| {
                assert!(!(i == 3 || i == 11), "boom at {i}");
                i
            });
        }))
        .unwrap_err();
        let msg = panic_message(caught.as_ref());
        assert!(msg.contains("point 3 panicked"), "{msg}");
    }

    #[test]
    fn nested_calls_run_inline_on_the_worker_in_input_order() {
        let outer: Vec<u32> = (0..4).collect();
        let inner: Vec<u32> = (0..16).collect();
        let runs = par_map_with(2, &outer, |_| {
            let worker = std::thread::current().id();
            let nested = par_map_with(4, &inner, |&j| (j * 3, std::thread::current().id()));
            (worker, nested)
        });
        for (worker, nested) in runs {
            let values: Vec<u32> = nested.iter().map(|&(v, _)| v).collect();
            assert_eq!(values, inner.iter().map(|j| j * 3).collect::<Vec<_>>());
            assert!(nested.iter().all(|&(_, id)| id == worker), "{nested:?}");
        }
    }

    #[test]
    fn nested_panics_name_both_points() {
        let outer: Vec<u32> = (0..4).collect();
        let inner: Vec<u32> = (0..8).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map_with(2, &outer, |&i| {
                let worker = std::thread::current().id();
                par_map_with(4, &inner, |&j| {
                    let inline = std::thread::current().id() == worker;
                    assert!(!(i == 2 && j == 5), "boom at {i}/{j}, inline={inline}");
                    j
                })
            });
        }))
        .unwrap_err();
        assert_eq!(
            panic_message(caught.as_ref()),
            "par_map: point 2 panicked: par_map: point 5 panicked: boom at 2/5, inline=true"
        );
    }

    #[test]
    fn jobs_env_var_is_honored_when_unset() {
        // `jobs()` itself races with `set_jobs` in other tests, so only
        // check the clamping contract of the resolved value.
        assert!(jobs() >= 1);
    }
}
