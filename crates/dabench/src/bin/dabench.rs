//! `dabench` — command-line front end for the DABench-LLM reproduction.
//!
//! ```text
//! dabench table1|table2|table3|table4        reproduce a paper table
//! dabench fig6|fig7|fig8|fig9|fig10|fig11|fig12   reproduce a paper figure
//! dabench all                                everything above, supervised
//! dabench ablations                          design-choice ablations
//! dabench tier1 <platform> [opts]            profile one workload
//! dabench summary [opts]                     all platforms, one workload
//!
//! platforms: wse | rdu-o0 | rdu-o1 | rdu-o3 | ipu | gpu
//! opts: --hidden N  --layers N  --batch N  --seq N
//!       --precision fp16|bf16|cb16|fp32  --model gpt2-small|gpt2-xl|llama2-7b
//!       --jobs N   (worker threads; DABENCH_JOBS env var also honored)
//!       --trace-out FILE  (Chrome trace_event JSON)  --metrics (stderr table)
//! all opts: --run-dir D  --resume D  --deadline-s S
//! ```
//!
//! All commands produce byte-identical output regardless of `--jobs`:
//! parallel work is collected back in input order before printing.
//!
//! `all` runs under the supervision layer (`dabench_core::supervise`, see
//! docs/supervision.md): each paper artifact is one supervised point with
//! panic isolation, an optional wall-clock deadline, and — with
//! `--run-dir` — a crash-safe journal that `--resume`
//! replays to produce byte-identical output after a mid-run kill. Exit
//! code 2 flags a run that completed with failed/panicked/timed-out
//! points.

#![forbid(unsafe_code)]

use dabench::core::obs;
use dabench::core::supervise::{
    parse_injections, Injection, Replay, RunJournal, RunReport, SupervisePolicy,
};
use dabench::core::{set_jobs, tier1, Degradable, Platform, PointTrace};
use dabench::experiments::{gen as genx, infer, summary, validation};
use dabench::faults::{render_report, resilience_sweep, PlanSpec};
use dabench::gpu::GpuCluster;
use dabench::ipu::Ipu;
use dabench::model::{BatchingMode, InferenceWorkload, ModelConfig, Precision, TrainingWorkload};
use dabench::rdu::{CompilationMode, Rdu};
use dabench::runner::{run_supervised_points, RunnerConfig};
use dabench::suite::{experiment_tables, point_index, render_experiment, EXPERIMENTS};
use dabench::wse::Wse;
use std::process::ExitCode;

struct Opts {
    hidden: u64,
    layers: u64,
    batch: u64,
    seq: u64,
    precision: Precision,
    model: Option<ModelConfig>,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            hidden: 768,
            layers: 12,
            batch: 32,
            seq: 1024,
            precision: Precision::Fp16,
            model: None,
        }
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--hidden" => opts.hidden = value()?.parse().map_err(|e| format!("--hidden: {e}"))?,
            "--layers" => opts.layers = value()?.parse().map_err(|e| format!("--layers: {e}"))?,
            "--batch" => opts.batch = value()?.parse().map_err(|e| format!("--batch: {e}"))?,
            "--seq" => opts.seq = value()?.parse().map_err(|e| format!("--seq: {e}"))?,
            "--precision" => {
                opts.precision = match value()?.as_str() {
                    "fp16" => Precision::Fp16,
                    "bf16" => Precision::Bf16,
                    "cb16" => Precision::Cb16,
                    "fp32" => Precision::Fp32,
                    other => return Err(format!("unknown precision `{other}`")),
                }
            }
            "--model" => opts.model = Some(parse_model(&value()?)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn parse_model(name: &str) -> Result<ModelConfig, String> {
    Ok(match name {
        "gpt2-mini" => ModelConfig::gpt2_mini(),
        "gpt2-tiny" => ModelConfig::gpt2_tiny(),
        "gpt2-small" => ModelConfig::gpt2_small(),
        "gpt2-medium" => ModelConfig::gpt2_medium(),
        "gpt2-large" => ModelConfig::gpt2_large(),
        "gpt2-xl" => ModelConfig::gpt2_xl(),
        "llama2-7b" => ModelConfig::llama2_7b(),
        "llama2-13b" => ModelConfig::llama2_13b(),
        "llama2-70b" => ModelConfig::llama2_70b(),
        other => return Err(format!("unknown model `{other}`")),
    })
}

/// `dabench infer`: no flags prints the default sweep (byte-identical to
/// `csv infer`'s tables); flags profile one explicit serving workload on
/// all four platforms.
fn run_infer(rest: &[String]) -> Result<(), String> {
    if rest.is_empty() {
        print!(
            "{}",
            render_experiment("infer").expect("infer is a registered experiment")
        );
        return Ok(());
    }
    let mut model = ModelConfig::llama2_7b();
    let mut batch = 8u64;
    let mut prompt = 512u64;
    let mut decode = 128u64;
    let mut precision = Precision::Fp16;
    let mut kv_precision = None;
    let mut batching = BatchingMode::Static;
    let parse_precision = |v: &str| -> Result<Precision, String> {
        Ok(match v {
            "fp16" => Precision::Fp16,
            "bf16" => Precision::Bf16,
            "cb16" => Precision::Cb16,
            "fp32" => Precision::Fp32,
            "fp8" => Precision::Fp8,
            other => return Err(format!("unknown precision `{other}`")),
        })
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--model" => model = parse_model(&value()?)?,
            "--batch" => batch = value()?.parse().map_err(|e| format!("--batch: {e}"))?,
            "--prompt" => prompt = value()?.parse().map_err(|e| format!("--prompt: {e}"))?,
            "--decode" => decode = value()?.parse().map_err(|e| format!("--decode: {e}"))?,
            "--precision" => precision = parse_precision(&value()?)?,
            "--kv-precision" => kv_precision = Some(parse_precision(&value()?)?),
            "--continuous" => batching = BatchingMode::Continuous,
            other => return Err(format!("unknown flag `{other}` for infer")),
        }
    }
    let mut w = InferenceWorkload::new(model, batch, prompt, decode, precision)
        .map_err(|e| e.to_string())?
        .with_batching(batching);
    if let Some(kv) = kv_precision {
        w = w.with_kv_precision(kv);
    }
    println!("Workload: {w}\n");
    println!("{}", infer::render_single(&infer::run_single(&w)));
    Ok(())
}

fn workload(opts: &Opts) -> Result<TrainingWorkload, String> {
    if opts.batch == 0 || opts.seq == 0 || opts.layers == 0 || opts.hidden == 0 {
        return Err("--hidden, --layers, --batch and --seq must be positive".to_owned());
    }
    let model = opts
        .model
        .clone()
        .unwrap_or_else(|| ModelConfig::gpt2_probe(opts.hidden, opts.layers));
    Ok(TrainingWorkload::new(
        model,
        opts.batch,
        opts.seq,
        opts.precision,
    ))
}

fn platform(name: &str) -> Result<Box<dyn Platform>, String> {
    Ok(match name {
        "wse" => Box::new(Wse::default()),
        "rdu-o0" => Box::new(Rdu::with_mode(CompilationMode::O0)),
        "rdu-o1" => Box::new(Rdu::with_mode(CompilationMode::O1)),
        "rdu" | "rdu-o3" => Box::new(Rdu::with_mode(CompilationMode::O3)),
        "ipu" => Box::new(Ipu::default()),
        "gpu" => Box::new(GpuCluster::default()),
        other => return Err(format!("unknown platform `{other}`")),
    })
}

fn degradable(name: &str) -> Result<Box<dyn Degradable + Sync>, String> {
    Ok(match name {
        "wse" => Box::new(Wse::default()),
        "rdu-o0" => Box::new(Rdu::with_mode(CompilationMode::O0)),
        "rdu-o1" => Box::new(Rdu::with_mode(CompilationMode::O1)),
        "rdu" | "rdu-o3" => Box::new(Rdu::with_mode(CompilationMode::O3)),
        "ipu" => Box::new(Ipu::default()),
        "gpu" => return Err("the GPU reference has no dataflow fault model".to_owned()),
        other => return Err(format!("unknown platform `{other}`")),
    })
}

/// Run a resilience sweep: `dabench faults <platform> [--seed N] [--plan
/// SPEC] [workload opts]`.
fn run_faults(rest: &[String]) -> Result<(), String> {
    let (name, flags) = rest
        .split_first()
        .ok_or_else(|| "faults needs a platform (wse|rdu-o0|rdu-o1|rdu-o3|ipu)".to_owned())?;
    let mut seed = 42u64;
    let mut plan = PlanSpec::default();
    let mut passthrough = Vec::new();
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .ok_or_else(|| "--seed needs a value".to_owned())?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--plan" => {
                plan = it
                    .next()
                    .ok_or_else(|| "--plan needs a value".to_owned())?
                    .parse()
                    .map_err(|e| format!("--plan: {e}"))?;
            }
            other => passthrough.push(other.to_owned()),
        }
    }
    let platform = degradable(name)?;
    let opts = parse_opts(&passthrough)?;
    let w = workload(&opts)?;
    let report = resilience_sweep(platform.as_ref(), &w, &plan, seed);
    println!("Workload: {w}\n");
    print!("{}", render_report(&report));
    Ok(())
}

/// Options for the supervised `all` run.
struct AllOpts {
    run_dir: Option<std::path::PathBuf>,
    resume: bool,
    deadline: Option<std::time::Duration>,
}

fn parse_all_opts(args: &[String]) -> Result<AllOpts, String> {
    let mut opts = AllOpts {
        run_dir: None,
        resume: false,
        deadline: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--run-dir" => {
                opts.run_dir = Some(value()?.into());
            }
            "--resume" => {
                opts.run_dir = Some(value()?.into());
                opts.resume = true;
            }
            "--deadline-s" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--deadline-s: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(format!("--deadline-s: {s} is not a positive number"));
                }
                opts.deadline = Some(std::time::Duration::from_secs_f64(s));
            }
            other => return Err(format!("unknown flag `{other}` for all")),
        }
    }
    Ok(opts)
}

/// Supervised `dabench all`: every artifact is one supervised point.
/// Successful texts print to stdout in paper order (byte-identical to the
/// unsupervised per-command output); the run report goes to stderr so it
/// never perturbs diffable output. Exit code 2 means some points failed
/// but the sweep itself survived.
fn run_all(rest: &[String]) -> Result<ExitCode, String> {
    let opts = parse_all_opts(rest)?;
    let order: Vec<String> = EXPERIMENTS.iter().map(|s| (*s).to_owned()).collect();
    let (report, _texts) = run_sweep(&order, &opts)?;
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// Run an arbitrary ordered list of supervised point labels through the
/// journal/resume machinery (`dabench all` and `dabench gen` both
/// funnel through here). Each label must resolve via
/// [`render_experiment`]; point indices come from [`point_index`].
/// Prints every completed point's text to stdout in `order`, the run
/// report to stderr, and returns the report plus the per-label texts
/// (`None` for failed points) so callers can post-process results.
fn run_sweep(order: &[String], opts: &AllOpts) -> Result<(RunReport, Vec<Option<String>>), String> {
    let injections = parse_injections()?;
    let policy = SupervisePolicy {
        deadline: opts.deadline,
        ..SupervisePolicy::default()
    };
    let (journal, replay) = match &opts.run_dir {
        Some(dir) if opts.resume => {
            let (j, replay) =
                RunJournal::resume(dir).map_err(|e| format!("--resume {}: {e}", dir.display()))?;
            (Some(std::sync::Mutex::new(j)), replay)
        }
        Some(dir) => {
            let j =
                RunJournal::create(dir).map_err(|e| format!("--run-dir {}: {e}", dir.display()))?;
            (Some(std::sync::Mutex::new(j)), Replay::default())
        }
        None => (None, Replay::default()),
    };
    if let Some(tail) = &replay.dropped_tail {
        eprintln!("warning: discarded truncated journal record {tail:?}; its point will re-run");
    }
    if opts.resume {
        // One-line accounting of what the journal bought us: replayed
        // points print verbatim, adopted ones re-run, an abandoned tail
        // was cut mid-append. Partial recovery must never be silent.
        eprintln!("{}", replay.resume_summary());
    }

    // Re-seed the recorder from journaled digests so a resumed run's
    // `--trace-out`/`--metrics` output is byte-identical to the original
    // run's. Only points whose output also replays count — a digest for a
    // point that will re-run would otherwise appear twice.
    if obs::is_enabled() {
        for (name, digest) in &replay.metrics {
            if replay.completed.contains_key(name) {
                obs::inject(
                    digest
                        .lines()
                        .filter_map(PointTrace::parse_digest)
                        .collect(),
                );
            }
        }
    }

    let points: Vec<(usize, String)> = order
        .iter()
        .map(|label| {
            point_index(label)
                .map(|i| (i, label.clone()))
                .ok_or_else(|| format!("unknown point `{label}`"))
        })
        .collect::<Result<_, String>>()?;
    let cfg = RunnerConfig { policy, injections };
    let outcomes = run_supervised_points(&points, &cfg, journal.as_ref(), &replay)?;

    let mut report = RunReport::default();
    let mut texts = Vec::with_capacity(points.len());
    for ((_, name), outcome) in points.iter().zip(&outcomes) {
        report.record(name, outcome);
        if let Some(text) = outcome.value() {
            print!("{text}");
            texts.push(Some(text.clone()));
        } else {
            texts.push(None);
        }
    }
    eprint!("{}", report.render());
    Ok((report, texts))
}

/// `dabench gen`: sample a seeded scenario population at a difficulty
/// tier, evaluate every scenario on all four platforms through the
/// supervised sweep (full `--run-dir`/`--resume` support),
/// then print the ranking report and run the metamorphic invariant
/// catalog over the journaled records.
///
/// Exit codes: 0 clean, 2 some points failed, 4 invariant violated.
fn run_gen(rest: &[String]) -> Result<ExitCode, String> {
    use dabench::core::gen::{population, Tier};
    let mut tier = genx::DEFAULT_TIER;
    let mut seed = genx::DEFAULT_SEED;
    let mut count = genx::DEFAULT_COUNT;
    let mut passthrough = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--list-tiers" => {
                print!("{}", genx::render_tiers());
                return Ok(ExitCode::SUCCESS);
            }
            "--tier" => {
                let name = value()?;
                tier = Tier::parse(&name).ok_or_else(|| {
                    format!(
                        "--tier: unknown tier `{name}` (expected one of: {})",
                        Tier::ALL
                            .iter()
                            .map(|t| t.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?;
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--count" => {
                count = value()?.parse().map_err(|e| format!("--count: {e}"))?;
                if count == 0 {
                    return Err("--count must be at least 1".to_owned());
                }
            }
            other => passthrough.push(other.to_owned()),
        }
    }
    let opts = parse_all_opts(&passthrough)?;
    // `gen=violate:<invariant>` seeds a counterexample into the checker —
    // the run must then fail loudly with exit code 4.
    let inject = parse_injections()?.get("gen").and_then(|i| match i {
        Injection::Violate(inv) => Some(*inv),
        _ => None,
    });

    let scenarios = population(tier, seed, count);
    print!("{}", genx::render_population(tier, seed, &scenarios));
    println!();
    let order: Vec<String> = scenarios.iter().map(|s| s.label()).collect();
    let (report, texts) = run_sweep(&order, &opts)?;

    // Everything downstream re-parses the journaled record texts, so a
    // resumed run ranks exactly what a fresh run would.
    let records: Vec<(u64, String)> = scenarios
        .iter()
        .zip(&texts)
        .filter_map(|(s, text)| text.as_ref().map(|t| (s.index, t.clone())))
        .collect();
    let parsed: Vec<_> = records
        .iter()
        .filter_map(|(index, record)| {
            genx::parse_record(record)
                .map(|(_, obs)| (dabench::core::gen::sample(tier, seed, *index), obs))
        })
        .collect();
    println!();
    print!("{}", genx::render_results(&parsed));
    println!();
    print!("{}", genx::render_ranking(tier, &genx::ranking(&parsed)));
    println!();
    let outcome = genx::check_population(tier, seed, &records, inject);
    print!("{}", genx::render_invariants(&outcome));
    for v in &outcome.violations {
        eprintln!("{v}");
    }
    Ok(if !outcome.violations.is_empty() {
        ExitCode::from(4)
    } else if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn usage() -> &'static str {
    // Lines after the first are literal: no `\` continuations, which
    // would also strip each next line's indent.
    "\
usage: dabench <command> [options]
commands:
  table1 table2 table3 table4       reproduce a paper table
  fig6 fig7 fig8 fig9 fig10 fig11 fig12   reproduce a paper figure
  all                               every table and figure, supervised
  ablations                         design-choice ablations
  sensitivity                       hardware-parameter elasticities
  infer [opts]                      inference serving: TTFT + tokens/s, 4 platforms
  gen [opts]                        seeded scenario generator + ranking + invariants
  csv <experiment>                  emit an experiment as CSV
  check                             reproduction scorecard (all claims)
  tier1 <wse|rdu-o0|rdu-o1|rdu-o3|ipu|gpu>  profile one workload
  summary                           all platforms, one workload
  faults <wse|rdu-o0|rdu-o1|rdu-o3|ipu>     resilience sweep
options: --hidden N --layers N --batch N --seq N
         --precision fp16|bf16|cb16|fp32 --model <preset>
         --jobs N   worker threads (default: all cores; also DABENCH_JOBS)
         --trace-out FILE  write a Chrome trace_event JSON trace
         --metrics         per-phase span/counter table on stderr
all options: --run-dir D   journal each finished point to D (crash-safe)
             --resume D    replay D's journal, re-run only missing points
             --deadline-s S  wall-clock budget per point (watchdog)
             exit codes: 0 clean, 2 some points failed (see stderr report)
infer options: --model <preset> --batch N --prompt N --decode N
               --precision fp16|bf16|cb16|fp32 --kv-precision ...|fp8 --continuous
               (no flags: the default batch x prompt x KV-precision sweep)
gen options: --tier baby|easy|medium|hard|cosmic --seed N --count N
             --list-tiers   plus every `all` option (journal, resume)
             exit codes: 0 clean, 2 point failures, 4 invariant violated
faults options: --seed N --plan dead=F,link=F,stalls=N,drop=N
csv targets: table1-4 fig6-12 ablations sensitivity infer gen"
}

/// Observability flags, accepted by every command: `--trace-out FILE`
/// writes a Chrome `trace_event` JSON trace, `--metrics` prints a
/// per-phase counter table to stderr. Either flag enables the recorder.
#[derive(Debug, Default)]
struct TraceOpts {
    trace_out: Option<std::path::PathBuf>,
    metrics: bool,
}

impl TraceOpts {
    fn enabled(&self) -> bool {
        self.trace_out.is_some() || self.metrics
    }
}

/// Strip `--trace-out FILE` / `--metrics` from `args` (they are valid on
/// any command) and enable the recorder if either was present.
fn extract_trace_flags(args: &mut Vec<String>) -> Result<TraceOpts, String> {
    let mut opts = TraceOpts::default();
    while let Some(pos) = args.iter().position(|a| a == "--trace-out") {
        if pos + 1 >= args.len() {
            return Err("--trace-out needs a value".to_owned());
        }
        opts.trace_out = Some(args[pos + 1].clone().into());
        args.drain(pos..=pos + 1);
    }
    while let Some(pos) = args.iter().position(|a| a == "--metrics") {
        opts.metrics = true;
        args.remove(pos);
    }
    if opts.enabled() {
        obs::enable();
    }
    Ok(opts)
}

/// Flush the recorder: write the Chrome trace (if `--trace-out`) and
/// print the `--metrics` table to stderr. Called once, after the command
/// body has finished and every point context has closed.
fn write_observability(opts: &TraceOpts) -> Result<(), String> {
    if !opts.enabled() {
        return Ok(());
    }
    let traces = obs::take();
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, obs::chrome_trace(&traces))
            .map_err(|e| format!("--trace-out {}: {e}", path.display()))?;
    }
    if opts.metrics {
        eprint!("{}", obs::render_metrics(&traces));
    }
    Ok(())
}

/// Strip every `--jobs N` from `args` and apply the last one as the
/// worker-count override for this process.
fn extract_jobs(args: &mut Vec<String>) -> Result<(), String> {
    while let Some(pos) = args.iter().position(|a| a == "--jobs") {
        if pos + 1 >= args.len() {
            return Err("--jobs needs a value".to_owned());
        }
        let n: usize = args[pos + 1].parse().map_err(|e| format!("--jobs: {e}"))?;
        if n == 0 {
            return Err("--jobs must be at least 1".to_owned());
        }
        set_jobs(n);
        args.drain(pos..=pos + 1);
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = extract_jobs(&mut args) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let trace = match extract_trace_flags(&mut args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let code = if cmd == "all" {
        // `all` opens one point context per experiment itself.
        match run_all(rest) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        }
    } else if cmd == "gen" {
        // `gen` supervises one point per generated scenario, like `all`.
        match run_gen(rest) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        let result = obs::with_point(0, cmd, || run_command(cmd, rest));
        match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        }
    };
    if let Err(e) = write_observability(&trace) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    code
}

/// Dispatch every command except `all` (which supervises its own points).
fn run_command(cmd: &str, rest: &[String]) -> Result<(), String> {
    match cmd {
        "check" => {
            let checks = validation::run();
            println!("{}", validation::render(&checks));
            let failed = checks.iter().filter(|c| !c.passed).count();
            if failed == 0 {
                println!("all {} claims reproduced", checks.len());
                Ok(())
            } else {
                Err(format!("{failed} claim(s) failed"))
            }
        }
        "csv" => rest
            .first()
            .ok_or_else(|| "csv needs an experiment name".to_owned())
            .and_then(|name| {
                let tables =
                    experiment_tables(name).ok_or_else(|| format!("no CSV export for `{name}`"))?;
                for t in tables {
                    print!("{}", t.to_csv());
                }
                Ok(())
            }),
        "tier1" => rest
            .split_first()
            .ok_or_else(|| "tier1 needs a platform".to_owned())
            .and_then(|(name, flags)| {
                let p = platform(name)?;
                let opts = parse_opts(flags)?;
                let w = workload(&opts)?;
                match tier1::run(p.as_ref(), &w) {
                    Ok(r) => {
                        println!("{r:#?}");
                        Ok(())
                    }
                    Err(e) => Err(format!("{name} cannot run {w}: {e}")),
                }
            }),
        "faults" => run_faults(rest),
        "infer" => run_infer(rest),
        "summary" => parse_opts(rest).and_then(|opts| {
            let w = workload(&opts)?;
            println!("Workload: {w}\n");
            println!("{}", summary::render(&summary::run(&w)));
            Ok(())
        }),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => match render_experiment(other) {
            Some(text) => {
                print!("{text}");
                Ok(())
            }
            None => Err(format!("unknown command `{other}`\n{}", usage())),
        },
    }
}
