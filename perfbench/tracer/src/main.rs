//! In-process tracer for the perfbench workloads.
//!
//! `perfbench-tracer paper` rebuilds `dabench all` followed by `dabench
//! check`; `perfbench-tracer gen --tier T --seed S --count N --jobs J
//! [--run-dir D]` rebuilds `dabench gen` with the same flags. Each is
//! assembled from the public functions of the layers the CLI runs, with a
//! span around every layer call (see [`span`]), and in the same order and
//! with the same worker counts as the CLI, so the split describes what a
//! user runs.
//!
//! Outputs, all written after the workload finishes:
//! - `--stdout FILE`: the text the CLI would print, for a byte comparison
//!   with a real CLI run;
//! - `--spans FILE`: one `S` line per span and one `C name value` line per
//!   counter.
//!
//! With `--verify`, every record or artifact assembled here is also
//! compared byte for byte with `dabench::suite::render_experiment`; a
//! mismatch exits with code 3.

mod span;

use dabench::core::gen::{
    check_batch_ladder, check_determinism, check_fault_monotone, check_fp8_kv, format_label,
    population, sample, LadderPoint, Violation,
};
use dabench::core::{
    cache_stats, catch_labeled, clear_compile_cache, jobs, obs, par_map, profile_inference,
    set_jobs, supervise_point, training_graph, Degradable, FaultSet, Invariant, MemoryEdge,
    Platform, PlatformError, PointOutcome, RunJournal, Scalable, Scenario, ScenarioKind,
    SplitMix64, SupervisePolicy, Tier,
};
use dabench::experiments::gen::{self as genx, CheckOutcome, GenObs, PLATFORMS};
use dabench::experiments::{
    fig10, fig11, fig12, fig6, fig7, fig8, fig9, infer, table1, table2, table3, table4, validation,
};
use dabench::faults::{FaultPlan, PlanSpec, PlatformKind};
use dabench::gpu::GpuCluster;
use dabench::ipu::Ipu;
use dabench::model::{Precision, TrainingWorkload};
use dabench::rdu::Rdu;
use dabench::render::Table;
use dabench::suite::{render_experiment, EXPERIMENTS};
use dabench::wse::Wse;
use span::Ctx;
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Flags of the `gen` workload, mirroring `dabench gen`.
struct GenArgs {
    tier: Tier,
    seed: u64,
    count: u64,
    jobs: usize,
    run_dir: Option<PathBuf>,
}

enum Workload {
    Paper,
    Gen(GenArgs),
}

struct Args {
    workload: Workload,
    stdout: PathBuf,
    spans: PathBuf,
    verify: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (kind, rest) = args
        .split_first()
        .ok_or("usage: perfbench-tracer paper|gen ...")?;
    let mut gen = GenArgs {
        tier: Tier::Baby,
        seed: genx::DEFAULT_SEED,
        count: genx::DEFAULT_COUNT,
        jobs: jobs(),
        run_dir: None,
    };
    let (mut stdout, mut spans, mut verify) = (None, None, false);
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--verify" {
            verify = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--tier" => gen.tier = Tier::parse(value).ok_or_else(|| bad(&"unknown tier"))?,
            "--seed" => gen.seed = value.parse().map_err(|e| bad(&e))?,
            "--count" => gen.count = value.parse().map_err(|e| bad(&e))?,
            "--jobs" => gen.jobs = value.parse().map_err(|e| bad(&e))?,
            "--run-dir" => gen.run_dir = Some(value.into()),
            "--stdout" => stdout = Some(value.into()),
            "--spans" => spans = Some(value.into()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = match kind.as_str() {
        "paper" => Workload::Paper,
        "gen" if gen.count >= 1 && gen.jobs >= 1 => Workload::Gen(gen),
        "gen" => return Err("--count and --jobs must be at least 1".to_owned()),
        other => return Err(format!("unknown workload `{other}`")),
    };
    Ok(Args {
        workload,
        stdout: stdout.ok_or("--stdout is required")?,
        spans: spans.ok_or("--spans is required")?,
        verify,
    })
}

/// Counters recorded where the work happens, written next to the spans.
#[derive(Default)]
struct Counters {
    /// Distinct training workloads handed to `training_graph`.
    compiled: Mutex<HashSet<TrainingWorkload>>,
    /// Sweep observations without a throughput (OOM, unsupported, panic),
    /// per platform.
    errors: Mutex<BTreeMap<&'static str, u64>>,
}

/// Everything one traced run produced besides its spans.
struct Run {
    stdout: String,
    /// `(label, assembled text)` of every sweep point, for `--verify`.
    points: Vec<(String, String)>,
    counters: Vec<(String, f64)>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root = Ctx::root("-");
    let started = Instant::now();
    let run = root.span("trace.run", |cx| match &args.workload {
        Workload::Paper => paper(cx),
        Workload::Gen(g) => gen(cx, g),
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    run.counters.push(("trace.wall_s".to_owned(), wall_s));
    if let Err(e) = write_outputs(&args, &run) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if args.verify {
        // The CLI renders every point through `render_experiment`; a split
        // taken from a drifted re-implementation would describe nothing.
        for (label, text) in &run.points {
            if render_experiment(label).as_deref() != Some(text.as_str()) {
                eprintln!("error: traced `{label}` differs from render_experiment");
                return ExitCode::from(3);
            }
        }
    }
    ExitCode::SUCCESS
}

fn write_outputs(args: &Args, run: &Run) -> std::io::Result<()> {
    std::fs::write(&args.stdout, &run.stdout)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(&args.spans)?);
    span::write_spans(&mut out)?;
    for (name, value) in &run.counters {
        writeln!(out, "C\t{name}\t{value}")?;
    }
    out.flush()
}

// ---------------------------------------------------------------------------
// paper: `dabench all` then `dabench check`
// ---------------------------------------------------------------------------

fn paper(cx: &Ctx) -> Result<Run, String> {
    let before = cache_stats();
    let policy = SupervisePolicy::default();
    let points: Vec<(u64, &'static str)> = (0..).zip(EXPERIMENTS).collect();
    let outcomes = cx.span("parallel.sweep", |cx| {
        par_map(&points, |&(index, name)| {
            cx.point("supervise.point", name, |cx| {
                let body = cx.clone();
                supervise_point(name, index, &policy, move |_seed| {
                    let _ = obs::drain_prefix(&[index]);
                    Ok::<_, PlatformError>(obs::with_point(index, name, || artifact(&body, name)))
                })
            })
        })
    });
    let mut stdout = String::new();
    let mut texts = Vec::new();
    for (&(_, name), outcome) in points.iter().zip(&outcomes) {
        let text = outcome
            .value()
            .ok_or_else(|| format!("`{name}` {}", outcome.status()))?;
        stdout.push_str(text);
        texts.push((name.to_owned(), text.clone()));
    }

    // `dabench check` runs in a process of its own: start it from cold
    // caches, as a fresh process would.
    dabench::core::cache::clear_tier1_cache();
    clear_compile_cache();
    let checks = cx.point("experiments.check", "check", |_| {
        obs::with_point(0, "check", validation::run)
    });
    stdout.push_str(&cx.span("render", |_| format!("{}\n", validation::render(&checks))));
    let failed = checks.iter().filter(|c| !c.passed).count();
    if failed > 0 {
        return Err(format!("{failed} claim(s) failed"));
    }
    stdout.push_str(&format!("all {} claims reproduced\n", checks.len()));

    let after = cache_stats();
    Ok(Run {
        stdout,
        points: texts,
        counters: vec![
            (
                "cache.tier1_hits".to_owned(),
                (after.hits - before.hits) as f64,
            ),
            (
                "cache.tier1_misses".to_owned(),
                (after.misses - before.misses) as f64,
            ),
            ("parallel.workers".to_owned(), jobs() as f64),
        ],
    })
}

/// One paper artifact, rendered exactly as `render_experiment(name)` does.
fn artifact(cx: &Ctx, name: &str) -> String {
    fn tables<T>(
        cx: &Ctx,
        span: &'static str,
        run: impl FnOnce() -> T,
        render: impl FnOnce(&T) -> Vec<Table>,
    ) -> Vec<Table> {
        let data = cx.span(span, |_| run());
        cx.span("render", |_| render(&data))
    }
    let tables = match name {
        "table1" => tables(cx, "experiments.table1", table1::run, |r| {
            vec![table1::render(r)]
        }),
        "table2" => {
            let data = cx.span("experiments.table2", |_| {
                (table2::run_o3(), table2::run_shards())
            });
            // table2 prints its pair as one block.
            return cx.span("render", |_| {
                let (a, b) = table2::render(&data.0, &data.1);
                format!("{a}\n{b}\n")
            });
        }
        "table3" => tables(cx, "experiments.table3", table3::run, |r| {
            vec![table3::render(r)]
        }),
        "table4" => tables(cx, "experiments.table4", table4::run, |r| {
            vec![table4::render(r)]
        }),
        "fig6" => tables(cx, "experiments.fig6", fig6::run, |r| vec![fig6::render(r)]),
        "fig7" => tables(
            cx,
            "experiments.fig7",
            || (fig7::run_layers(), fig7::run_hidden_sizes()),
            |(a, b)| vec![fig7::render(a, "a"), fig7::render(b, "b")],
        ),
        "fig8" => tables(
            cx,
            "experiments.fig8",
            || (fig8::run_layers(), fig8::run_hidden_sizes()),
            |(a, b)| vec![fig8::render(a, "a"), fig8::render(b, "b")],
        ),
        "fig9" => tables(
            cx,
            "experiments.fig9",
            || {
                (
                    fig9::run_wse(),
                    fig9::run_rdu_layers(),
                    fig9::run_rdu_hidden(),
                    fig9::run_ipu(),
                )
            },
            |(w, rl, rh, i)| fig9::render(w, rl, rh, i),
        ),
        "fig10" => tables(cx, "experiments.fig10", fig10::run, |r| {
            vec![fig10::render(r)]
        }),
        "fig11" => tables(
            cx,
            "experiments.fig11",
            || (fig11::run_wse(), fig11::run_rdu(), fig11::run_ipu()),
            |(w, r, i)| fig11::render(w, r, i),
        ),
        "fig12" => tables(cx, "experiments.fig12", fig12::run, |r| {
            vec![fig12::render(r)]
        }),
        other => panic!("`{other}` is not a paper artifact"),
    };
    cx.span("render", |_| {
        tables.iter().map(|t| format!("{t}\n")).collect()
    })
}

// ---------------------------------------------------------------------------
// gen: `dabench gen --tier T --seed S --count N --jobs J [--run-dir D]`
// ---------------------------------------------------------------------------

fn gen(cx: &Ctx, g: &GenArgs) -> Result<Run, String> {
    set_jobs(g.jobs);
    let (tier, seed) = (g.tier, g.seed);
    let counters = Arc::new(Counters::default());
    let journal = match &g.run_dir {
        Some(dir) => Some(Mutex::new(
            RunJournal::create(dir).map_err(|e| format!("--run-dir {}: {e}", dir.display()))?,
        )),
        None => None,
    };
    let journal_error: Mutex<Option<String>> = Mutex::new(None);

    let scenarios = cx.span("gen.sample", |_| population(tier, seed, g.count));
    let mut stdout = cx.span("render", |_| {
        format!("{}\n", genx::render_population(tier, seed, &scenarios))
    });
    let policy = SupervisePolicy::default();
    let labels: Vec<(u64, String)> = scenarios.iter().map(|s| (s.index, s.label())).collect();
    let outcomes = cx.span("parallel.sweep", |cx| {
        par_map(&labels, |(index, label)| {
            cx.point("supervise.point", label, |cx| {
                let (body, counters, index) = (cx.clone(), Arc::clone(&counters), *index);
                let point = label.clone();
                let outcome = supervise_point(label, index, &policy, move |_seed| {
                    let _ = obs::drain_prefix(&[index]);
                    Ok::<_, PlatformError>(obs::with_point(index, &point, || {
                        scenario_record(&body, &counters, tier, seed, index, true)
                    }))
                });
                if let Some(journal) = &journal {
                    let data = match &outcome {
                        PointOutcome::Completed { value, .. } => value.clone(),
                        PointOutcome::Failed { error, .. } => error.to_string(),
                        PointOutcome::Panicked { message } => message.clone(),
                        other => other.status().to_owned(),
                    };
                    let appended = cx.span("supervise.journal_append", |_| {
                        journal
                            .lock()
                            .expect("journal lock")
                            .append(label, outcome.status(), &data)
                    });
                    if let Err(e) = appended {
                        journal_error
                            .lock()
                            .expect("journal error lock")
                            .get_or_insert_with(|| format!("journal append for `{label}`: {e}"));
                    }
                }
                outcome
            })
        })
    });
    if let Some(e) = journal_error.into_inner().expect("journal error lock") {
        return Err(e);
    }

    let mut points = Vec::with_capacity(labels.len());
    let mut records = Vec::with_capacity(labels.len());
    for ((index, label), outcome) in labels.iter().zip(&outcomes) {
        let text = outcome
            .value()
            .ok_or_else(|| format!("`{label}` {}", outcome.status()))?;
        stdout.push_str(text);
        points.push((label.clone(), text.clone()));
        records.push((*index, text.clone()));
    }

    let parsed: Vec<(Scenario, Vec<GenObs>)> = cx.span("experiments.record", |_| {
        records
            .iter()
            .filter_map(|(index, record)| {
                genx::parse_record(record).map(|(_, obs)| (sample(tier, seed, *index), obs))
            })
            .collect()
    });
    stdout.push('\n');
    stdout.push_str(&cx.span("render", |_| genx::render_results(&parsed).to_string()));
    stdout.push('\n');
    let ranking = cx.span("experiments.record", |_| genx::ranking(&parsed));
    stdout.push_str(&cx.span("render", |_| {
        genx::render_ranking(tier, &ranking).to_string()
    }));
    stdout.push('\n');
    let outcome = cx.span("experiments.check", |cx| {
        check_population(cx, &counters, tier, seed, &records)
    });
    stdout.push_str(&cx.span("render", |_| genx::render_invariants(&outcome).to_string()));
    if let Some(v) = outcome.violations.first() {
        return Err(v.to_string());
    }

    let mut counters_out = vec![
        ("parallel.workers".to_owned(), jobs() as f64),
        (
            "compile.distinct".to_owned(),
            counters.compiled.lock().expect("counter lock").len() as f64,
        ),
    ];
    for p in PLATFORMS {
        let errors = counters.errors.lock().expect("counter lock");
        counters_out.push((
            format!("{p}.errors"),
            errors.get(p).copied().unwrap_or(0) as f64,
        ));
    }
    if let Some(dir) = &g.run_dir {
        let bytes = std::fs::metadata(RunJournal::path_in(dir)).map_or(0, |m| m.len());
        counters_out.push(("supervise.journal_bytes".to_owned(), bytes as f64));
    }
    Ok(Run {
        stdout,
        points,
        counters: counters_out,
    })
}

/// `render_scenario(tier, seed, index)`, layer by layer. `sweep` marks
/// calls from the sweep itself, whose failed observations are counted.
fn scenario_record(
    cx: &Ctx,
    counters: &Counters,
    tier: Tier,
    seed: u64,
    index: u64,
    sweep: bool,
) -> String {
    let scenario = cx.span("gen.sample", |_| sample(tier, seed, index));
    let observations = evaluate(cx, counters, &scenario);
    if sweep {
        let mut errors = counters.errors.lock().expect("counter lock");
        for (p, o) in PLATFORMS.iter().zip(&observations) {
            if o.tokens_per_s.is_none() {
                *errors.entry(p).or_default() += 1;
            }
        }
    }
    cx.span("experiments.record", |_| {
        genx::render_record(&scenario, &observations)
    })
}

/// Span names of one platform's calls: profile, scale, degrade.
fn platform_spans(platform: &str) -> [&'static str; 3] {
    match platform {
        "wse" => ["wse.profile", "wse.scale", "wse.degrade"],
        "rdu" => ["rdu.profile", "rdu.scale", "rdu.degrade"],
        "ipu" => ["ipu.profile", "ipu.scale", "ipu.degrade"],
        "gpu" => ["gpu.profile", "gpu.scale", "gpu.degrade"],
        other => panic!("unknown platform `{other}`"),
    }
}

fn failed(platform: &str, batch: u64, note: String) -> GenObs {
    GenObs {
        platform: platform.to_owned(),
        batch,
        tokens_per_s: None,
        level: None,
        note,
    }
}

/// `genx::evaluate`: the per-scenario fan-out over the four platforms.
fn evaluate(cx: &Ctx, counters: &Counters, s: &Scenario) -> Vec<GenObs> {
    if let ScenarioKind::Train = s.kind {
        // All four platforms compile this graph; building it here first
        // times the build on its own and leaves them a memo hit.
        let w = s.training_workload();
        cx.span("compile.graph", |_| training_graph(&w));
        counters.compiled.lock().expect("counter lock").insert(w);
    }
    cx.span("parallel.fanout", |cx| {
        par_map(&PLATFORMS, |&platform| {
            cx.span("experiments.evaluate", |cx| {
                let label = format!("{} {platform}", s.label());
                match catch_labeled(&label, || match s.kind {
                    ScenarioKind::Train => train_obs(cx, platform, s),
                    ScenarioKind::Infer => infer_obs(cx, platform, s),
                }) {
                    Ok(obs) => obs,
                    Err(panicked) => failed(platform, s.batch, panicked),
                }
            })
        })
    })
}

fn plan_seed(s: &Scenario) -> u64 {
    SplitMix64::fork(s.seed ^ (0xFA17 + s.tier.rank()), s.index).next_u64()
}

fn degrade_on(
    cx: &Ctx,
    platform: &(dyn Degradable + Sync),
    span: &'static str,
    s: &Scenario,
) -> Result<f64, PlatformError> {
    let faults: FaultSet = cx.span("faults.plan", |_| {
        let spec = PlanSpec::from_intensity(&s.faults)
            .map_err(|e| PlatformError::Unsupported(format!("sampled fault plan: {e}")))?;
        let kind = PlatformKind::from_fault_kind(platform.fault_kind());
        Ok::<_, PlatformError>(FaultPlan::generate(kind, &spec, plan_seed(s)).fault_set())
    })?;
    let d = cx.span(span, |_| platform.degrade(&s.training_workload(), &faults))?;
    Ok(d.degraded.throughput_tokens_per_s)
}

fn train_obs(cx: &Ctx, platform: &str, s: &Scenario) -> GenObs {
    let w = s.training_workload();
    let [profile, scale, degrade] = platform_spans(platform);
    let outcome: Result<(f64, String), PlatformError> = if s.parallelism > 1 {
        let note = if s.faults.is_healthy() {
            format!("scaled x{}", s.parallelism)
        } else {
            format!("scaled x{} (faults not applied)", s.parallelism)
        };
        let strategy = genx::native_strategy(platform, s.parallelism);
        let scaled = cx.span(scale, |_| match platform {
            "wse" => Wse::default().scale(&w, strategy),
            "rdu" => Rdu::default().scale(&w, strategy),
            "ipu" => Ipu::default().scale(&w, strategy),
            _ => GpuCluster::default().scale(&w, strategy),
        });
        scaled.map(|p| (p.throughput_tokens_per_s, note))
    } else if s.faults.is_healthy() {
        cx.span(profile, |_| healthy_profile(platform, &w))
            .map(|tps| (tps, "healthy".to_owned()))
    } else {
        let degraded = match platform {
            "wse" => degrade_on(cx, &Wse::default(), degrade, s),
            "rdu" => degrade_on(cx, &Rdu::default(), degrade, s),
            "ipu" => degrade_on(cx, &Ipu::default(), degrade, s),
            _ => Err(PlatformError::Unsupported(
                "gpu baseline has no fault model".to_owned(),
            )),
        };
        degraded.map(|t| (t, "degraded".to_owned()))
    };
    match outcome {
        Ok((tokens_per_s, note)) => GenObs {
            platform: platform.to_owned(),
            batch: s.batch,
            tokens_per_s: Some(tokens_per_s),
            level: None,
            note,
        },
        Err(e) => failed(platform, s.batch, e.to_string()),
    }
}

fn healthy_profile(platform: &str, w: &TrainingWorkload) -> Result<f64, PlatformError> {
    let profile = match platform {
        "wse" => Wse::default().profile(w),
        "rdu" => Rdu::default().profile(w),
        "ipu" => Ipu::default().profile(w),
        _ => GpuCluster::default().profile(w),
    };
    profile.map(|p| p.throughput_tokens_per_s)
}

fn infer_obs(cx: &Ctx, platform: &str, s: &Scenario) -> GenObs {
    let base = s.inference_workload();
    let (batch, note) = match s.memory_edge {
        MemoryEdge::Off => (s.batch, String::new()),
        MemoryEdge::Under | MemoryEdge::Over => {
            let probe = cx.span("infer.probe", |_| genx::platform_probe(platform, &base));
            if probe.max_batch == 0 {
                return failed(
                    platform,
                    0,
                    format!(
                        "edge-{}: nothing fits `{}` ({} B over {} B)",
                        s.memory_edge.as_str(),
                        probe.kv_level,
                        probe.over_required_bytes,
                        probe.over_capacity_bytes
                    ),
                );
            }
            let b = match s.memory_edge {
                MemoryEdge::Under => probe.max_batch,
                _ => probe.max_batch + 1,
            };
            (
                b,
                format!("edge-{} wall={}", s.memory_edge.as_str(), probe.max_batch),
            )
        }
    };
    let w = match base.with_batch_size(batch) {
        Ok(w) => w,
        Err(e) => return failed(platform, batch, e.to_string()),
    };
    let profiled = cx.span("infer.profile", |_| {
        profile_inference(&infer::platform_model(platform, &w), &w)
    });
    match profiled {
        Ok(r) => GenObs {
            platform: platform.to_owned(),
            batch,
            tokens_per_s: Some(r.e2e_tokens_per_s),
            level: Some(r.memory.name.clone()),
            note: if note.is_empty() {
                "serving".to_owned()
            } else {
                note
            },
        },
        Err(e) => failed(
            platform,
            batch,
            if note.is_empty() {
                e.to_string()
            } else {
                format!("{note}: {e}")
            },
        ),
    }
}

// ---------------------------------------------------------------------------
// The invariant checker: `genx::check_population` without injection
// ---------------------------------------------------------------------------

struct Checker {
    counts: [u64; Invariant::ALL.len()],
    violations: Vec<Violation>,
}

impl Checker {
    fn count(&mut self, inv: Invariant) {
        let i = Invariant::ALL.iter().position(|i| *i == inv);
        self.counts[i.expect("listed invariant")] += 1;
    }

    fn push(&mut self, v: Option<Violation>) {
        self.violations.extend(v);
    }
}

fn check_population(
    cx: &Ctx,
    counters: &Counters,
    tier: Tier,
    seed: u64,
    records: &[(u64, String)],
) -> CheckOutcome {
    let mut ck = Checker {
        counts: [0; Invariant::ALL.len()],
        violations: Vec::new(),
    };
    for (index, record) in records {
        let scenario = sample(tier, seed, *index);
        let label = scenario.label();
        let Some((parsed_label, obs)) = genx::parse_record(record) else {
            ck.violations.push(Violation {
                invariant: Invariant::SeedDeterminism,
                scenario: format_label(tier, seed, *index),
                platform: "-".to_owned(),
                detail: "journaled record is not a parsable gen-v1 block".to_owned(),
            });
            continue;
        };
        if parsed_label != label {
            ck.violations.push(Violation {
                invariant: Invariant::SeedDeterminism,
                scenario: label,
                platform: "-".to_owned(),
                detail: format!("journaled record carries label `{parsed_label}`"),
            });
            continue;
        }
        check_scenario(cx, &mut ck, &scenario, &obs);
        if index % genx::DETERMINISM_STRIDE == 0 {
            ck.count(Invariant::SeedDeterminism);
            let fresh = scenario_record(cx, counters, tier, seed, *index, false);
            ck.push(check_determinism(&label, record, &fresh));
        }
    }
    CheckOutcome {
        checked: Invariant::ALL
            .iter()
            .zip(ck.counts)
            .map(|(inv, n)| (*inv, n))
            .collect(),
        violations: ck.violations,
    }
}

/// Round through the record's `{:.6e}` wire format, as the checker does.
fn quantize_tps(tps: f64) -> f64 {
    format!("{tps:.6e}").parse().unwrap_or(tps)
}

fn check_scenario(cx: &Ctx, ck: &mut Checker, scenario: &Scenario, obs: &[GenObs]) {
    let label = scenario.label();
    match scenario.kind {
        ScenarioKind::Train => {
            if scenario.parallelism == 1 && !scenario.faults.is_healthy() {
                let w = scenario.training_workload();
                for o in obs {
                    let Some(faulty) = o.tokens_per_s else {
                        continue;
                    };
                    if !matches!(o.platform.as_str(), "wse" | "rdu" | "ipu") {
                        continue;
                    }
                    let [profile, _, _] = platform_spans(&o.platform);
                    // The healthy twin of a faulted observation.
                    let Ok(healthy) = cx.span(profile, |_| healthy_profile(&o.platform, &w)) else {
                        continue;
                    };
                    ck.count(Invariant::FaultMonotone);
                    ck.push(check_fault_monotone(
                        &o.platform,
                        &label,
                        quantize_tps(healthy),
                        faulty,
                    ));
                }
            }
        }
        ScenarioKind::Infer => {
            let w16 = scenario
                .inference_workload()
                .with_kv_precision(Precision::Fp16);
            let w8 = w16.clone().with_kv_precision(Precision::Fp8);
            ck.count(Invariant::Fp8KvSmaller);
            ck.push(check_fp8_kv(
                &label,
                w16.kv_cache_peak_bytes(),
                w8.kv_cache_peak_bytes(),
                w16.weight_bytes(),
                w8.weight_bytes(),
            ));
            let base = scenario.inference_workload();
            for platform in PLATFORMS {
                check_ladder(cx, ck, &label, platform, &base);
            }
        }
    }
}

/// The batch ladder of one platform: monotone throughput within a memory
/// level, and an exact OOM wall.
fn check_ladder(
    cx: &Ctx,
    ck: &mut Checker,
    label: &str,
    platform: &str,
    base: &dabench::model::InferenceWorkload,
) {
    let probe = cx.span("infer.probe", |_| genx::platform_probe(platform, base));
    let mut rungs: Vec<u64> = Vec::new();
    let mut b = 1;
    while b < probe.max_batch && rungs.len() < 20 {
        rungs.push(b);
        b *= 2;
    }
    if probe.max_batch >= 1 {
        rungs.push(probe.max_batch);
    }
    let capped = probe.max_batch >= genx::PROBE_LIMIT;
    if !capped {
        rungs.push(probe.max_batch + 1);
    }
    rungs.dedup();
    let ladder: Vec<LadderPoint> = rungs
        .iter()
        .map(|&batch| {
            let report = base.with_batch_size(batch).ok().and_then(|w| {
                cx.span("infer.profile", |_| {
                    profile_inference(&infer::platform_model(platform, &w), &w).ok()
                })
            });
            match report {
                Some(r) => LadderPoint {
                    batch,
                    level: Some(r.memory.name),
                    tokens_per_s: Some(r.e2e_tokens_per_s),
                },
                None => LadderPoint {
                    batch,
                    level: None,
                    tokens_per_s: None,
                },
            }
        })
        .collect();
    let mut wall_violation = None;
    if !capped && probe.max_batch >= 1 {
        let at_wall = ladder.iter().find(|p| p.batch == probe.max_batch);
        let over_wall = ladder.iter().find(|p| p.batch == probe.max_batch + 1);
        if let (Some(a), Some(o)) = (at_wall, over_wall) {
            let detail = if a.tokens_per_s.is_none() {
                Some(format!(
                    "probed wall B={} does not actually fit",
                    probe.max_batch
                ))
            } else if o.tokens_per_s.is_some() {
                Some(format!(
                    "B={} fits although the probe called B={} the wall",
                    probe.max_batch + 1,
                    probe.max_batch
                ))
            } else {
                None
            };
            wall_violation = detail.map(|detail| Violation {
                invariant: Invariant::OomWallConsistent,
                scenario: label.to_owned(),
                platform: platform.to_owned(),
                detail,
            });
        }
    }
    ck.count(Invariant::BatchMonotone);
    ck.count(Invariant::OomWallConsistent);
    ck.violations
        .extend(check_batch_ladder(platform, label, &ladder));
    ck.push(wall_violation);
}
