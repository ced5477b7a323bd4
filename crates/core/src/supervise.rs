//! Supervised execution of experiment points: panic isolation, wall-clock
//! deadlines, and a crash-safe run journal.
//!
//! Long multi-point sweeps on real accelerator clusters die in ways the
//! points themselves cannot anticipate — a compiler panic, a hung run, a
//! failing device — and losing an hours-long sweep to one poisoned point is
//! the dominant operational cost of benchmarking (the failure mode
//! LLM-Inference-Bench documents across heterogeneous accelerators). This
//! module wraps every experiment point in a supervisor:
//!
//! - **Panic isolation**: a panicking point becomes a structured
//!   [`PointOutcome::Panicked`] carrying the point's label, instead of
//!   unwinding through the whole sweep.
//! - **Deadlines**: [`SupervisePolicy::deadline`] runs the point under a
//!   watchdog; an overrun is recorded as [`PointOutcome::TimedOut`] and the
//!   runaway point is abandoned (its thread is detached, never joined).
//! - **Errors**: a point that returns a [`PlatformError`] is recorded as
//!   [`PointOutcome::Failed`]. The platform models are pure functions, so
//!   running the point again would return the same error; it is not
//!   retried.
//! - **Crash-safe journal**: [`RunJournal`] appends one fsync'd JSONL
//!   record per finished point; a killed run can be resumed with
//!   [`RunJournal::resume`], replaying completed points verbatim so the
//!   final output is byte-identical to an uninterrupted run.
//!
//! The caller folds outcomes into a [`RunReport`] whose rendering is
//! deterministic (input order, fixed formatting), suitable for diffing
//! across runs.

use crate::error::PlatformError;
use crate::jsonl;
use crate::rng::SplitMix64;
use std::any::Any;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Render a caught panic payload as text (panics raise `&str` or `String`
/// payloads in practice; anything else is reported opaquely).
#[must_use]
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Run `f` catching panics; a panic becomes `Err` carrying the point's
/// label and the panic message. The lightest supervision primitive — used
/// where a full [`SupervisePolicy`] is overkill (e.g. per-point isolation
/// inside `resilience_sweep`).
///
/// # Errors
///
/// Returns `Err` with a `point `label` panicked: …` message when `f`
/// panicked.
pub fn catch_labeled<R>(label: &str, f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|p| format!("point `{label}` panicked: {}", panic_message(p.as_ref())))
}

/// Run `f`, re-raising any panic with the point's label prefixed so the
/// failure names which sweep point died. Experiments wrap each point in
/// this so `par_map`'s propagated panic is diagnosable.
pub fn with_point_label<R>(label: &str, f: impl FnOnce() -> R) -> R {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => panic!("point `{label}`: {}", panic_message(p.as_ref())),
    }
}

/// How the supervisor treats one experiment point.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisePolicy {
    /// Wall-clock budget per point; `None` disables the watchdog.
    pub deadline: Option<Duration>,
    /// Root seed; point seeds are forked from `(seed, point index)`.
    pub seed: u64,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        Self {
            deadline: None,
            seed: 42,
        }
    }
}

/// Structured result of one supervised experiment point.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome<U> {
    /// The point produced a value.
    Completed {
        /// The point's result.
        value: U,
    },
    /// The point's value was replayed from a run journal; it was not
    /// re-executed.
    Journaled {
        /// The journaled result.
        value: U,
    },
    /// The point returned an error.
    Failed {
        /// The point's error.
        error: PlatformError,
    },
    /// The point panicked; the message carries the point's label.
    Panicked {
        /// Labelled panic message.
        message: String,
    },
    /// The point exceeded the wall-clock deadline and was abandoned.
    TimedOut {
        /// The deadline that was exceeded.
        deadline: Duration,
    },
}

impl<U> PointOutcome<U> {
    /// The point's value, when it has one (completed or journaled).
    #[must_use]
    pub fn value(&self) -> Option<&U> {
        match self {
            PointOutcome::Completed { value } | PointOutcome::Journaled { value } => Some(value),
            _ => None,
        }
    }

    /// Stable status keyword (also the journal's `status` field).
    #[must_use]
    pub fn status(&self) -> &'static str {
        match self {
            PointOutcome::Completed { .. } => "completed",
            PointOutcome::Journaled { .. } => "journaled",
            PointOutcome::Failed { .. } => "failed",
            PointOutcome::Panicked { .. } => "panicked",
            PointOutcome::TimedOut { .. } => "timed-out",
        }
    }
}

/// Process-wide count of runaway point threads abandoned by the deadline
/// watchdog (see [`abandoned_threads`]).
static ABANDONED_THREADS: AtomicU64 = AtomicU64::new(0);

/// How many runaway point threads this process has abandoned so far.
///
/// [`supervise_point`] cannot join a thread that blew its deadline — it
/// detaches it and moves on — so every `TimedOut` outcome leaks one
/// thread until the point's body eventually returns (or the process
/// exits). This counter is the trace of that leak: it is also published
/// on the obs bus as `supervise.abandoned_threads` (when a point context
/// is open) and surfaced by [`RunReport::render`].
#[must_use]
pub fn abandoned_threads() -> u64 {
    ABANDONED_THREADS.load(Ordering::Relaxed)
}

/// Run one experiment point under full supervision.
///
/// `f` receives a deterministic seed, the first draw of
/// `SplitMix64::fork(policy.seed, index)`, so point `i` sees the same seed
/// in every run. A panic becomes [`PointOutcome::Panicked`] labelled with
/// the point; a [`PlatformError`] becomes [`PointOutcome::Failed`]; an
/// overrun of `policy.deadline` becomes [`PointOutcome::TimedOut`].
pub fn supervise_point<U, F>(
    label: &str,
    index: u64,
    policy: &SupervisePolicy,
    f: F,
) -> PointOutcome<U>
where
    U: Send + 'static,
    F: FnOnce(u64) -> Result<U, PlatformError> + Send + 'static,
{
    let seed = SplitMix64::fork(policy.seed, index).next_u64();
    let panicked = |message: String| PointOutcome::Panicked {
        message: format!("point `{label}`: {message}"),
    };
    let Some(deadline) = policy.deadline else {
        return match catch_unwind(AssertUnwindSafe(|| f(seed))) {
            Ok(Ok(value)) => PointOutcome::Completed { value },
            Ok(Err(error)) => PointOutcome::Failed { error },
            Err(p) => panicked(panic_message(p.as_ref())),
        };
    };
    let (tx, rx) = mpsc::channel();
    // The point runs here on behalf of the calling thread, so it keeps
    // that thread's one-level parallelism rule.
    let worker = crate::parallel::is_worker();
    std::thread::Builder::new()
        .name("dabench-supervised-point".to_owned())
        .spawn(move || {
            crate::parallel::set_worker(worker);
            let result = catch_unwind(AssertUnwindSafe(|| f(seed)));
            let _ = tx.send(result);
        })
        .expect("spawn supervised point thread");
    match rx.recv_timeout(deadline) {
        Ok(Ok(Ok(value))) => PointOutcome::Completed { value },
        Ok(Ok(Err(error))) => PointOutcome::Failed { error },
        Ok(Err(p)) => panicked(panic_message(p.as_ref())),
        // Timeout: the point thread keeps running detached; we abandon it.
        Err(mpsc::RecvTimeoutError::Timeout) => {
            ABANDONED_THREADS.fetch_add(1, Ordering::Relaxed);
            crate::obs::counter("supervise.abandoned_threads", 1.0);
            PointOutcome::TimedOut { deadline }
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panicked("point thread exited without reporting a result".to_owned())
        }
    }
}

// ---------------------------------------------------------------------------
// Failure injection (test hook)
// ---------------------------------------------------------------------------

/// Environment variable carrying failure-injection clauses.
const INJECT_ENV: &str = "DABENCH_INJECT";

/// Which [`PlatformError`] an `err:KIND` injection raises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedErrorKind {
    /// A device fault.
    DeviceFault,
    /// A compiler failure.
    CompileFailure,
    /// A capacity overflow.
    OutOfMemory,
    /// A configuration rejection.
    Unsupported,
}

impl InjectedErrorKind {
    fn parse(kind: &str) -> Option<Self> {
        Some(match kind {
            "device_fault" => InjectedErrorKind::DeviceFault,
            "compile_failure" => InjectedErrorKind::CompileFailure,
            "oom" => InjectedErrorKind::OutOfMemory,
            "unsupported" => InjectedErrorKind::Unsupported,
            _ => return None,
        })
    }

    /// The injected error, labelled so reports clearly show it came from
    /// the test hook and not from a platform model.
    fn to_error(self) -> PlatformError {
        match self {
            InjectedErrorKind::DeviceFault => PlatformError::DeviceFault {
                unit: "injected".into(),
                detail: "injected device fault (DABENCH_INJECT)".into(),
            },
            InjectedErrorKind::CompileFailure => {
                PlatformError::CompileFailure("injected compile failure (DABENCH_INJECT)".into())
            }
            InjectedErrorKind::OutOfMemory => PlatformError::OutOfMemory {
                level: "injected".into(),
                required_bytes: 2,
                capacity_bytes: 1,
            },
            InjectedErrorKind::Unsupported => PlatformError::Unsupported(
                "injected unsupported configuration (DABENCH_INJECT)".into(),
            ),
        }
    }
}

/// Test-only failure injection, from the `DABENCH_INJECT` env var: a
/// comma-separated list of `<point>=panic`, `<point>=sleep:SECS`,
/// `<point>=err:KIND`, or `<point>=violate:INVARIANT` clauses. Lets
/// integration tests and the CI crash-recovery jobs exercise panic
/// isolation, deadlines, error reports, and mid-run kills without
/// planting bugs in the experiments themselves.
///
/// `err:KIND` makes the point return the corresponding [`PlatformError`].
/// Kinds: `device_fault`, `compile_failure`, `oom`, `unsupported`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Injection {
    /// Panic.
    Panic,
    /// Sleep for the given seconds (deadline / kill window testing).
    SleepSecs(f64),
    /// Return a [`PlatformError`] of this kind.
    Err(InjectedErrorKind),
    /// Perturb one observation fed to the `dabench gen` metamorphic
    /// invariant checker so the named invariant is violated
    /// (`gen=violate:<invariant>`) — the seeded counterexample proving
    /// the checker fails loudly. A no-op in the supervised loop itself;
    /// the gen driver reads it from the injection map and applies the
    /// perturbation to its own derived observations.
    Violate(crate::gen::Invariant),
}

impl Injection {
    /// Act on this injection: panic, sleep, or return the injected error.
    ///
    /// # Errors
    ///
    /// The injected [`PlatformError`] for [`Injection::Err`].
    ///
    /// # Panics
    ///
    /// [`Injection::Panic`] panics with a message naming the hook.
    pub fn fire(&self) -> Result<(), PlatformError> {
        match *self {
            Injection::Panic => panic!("injected failure (DABENCH_INJECT)"),
            Injection::SleepSecs(s) => {
                std::thread::sleep(Duration::from_secs_f64(s));
                Ok(())
            }
            Injection::Err(kind) => Err(kind.to_error()),
            Injection::Violate(_) => Ok(()),
        }
    }
}

/// Parse one `DABENCH_INJECT` clause list (see [`Injection`]).
///
/// # Errors
///
/// A human-readable message naming the offending clause.
fn parse_injection_clauses(raw: &str) -> Result<BTreeMap<String, Injection>, String> {
    let mut map = BTreeMap::new();
    for clause in raw.split(',').filter(|c| !c.trim().is_empty()) {
        let (name, action) = clause
            .split_once('=')
            .ok_or_else(|| format!("DABENCH_INJECT `{clause}`: expected name=action"))?;
        let injection =
            if action == "panic" {
                Injection::Panic
            } else if let Some(secs) = action.strip_prefix("sleep:") {
                Injection::SleepSecs(
                    secs.parse()
                        .map_err(|e| format!("DABENCH_INJECT `{clause}`: {e}"))?,
                )
            } else if let Some(kind) = action.strip_prefix("err:") {
                Injection::Err(InjectedErrorKind::parse(kind).ok_or_else(|| {
                    format!(
                        "DABENCH_INJECT `{clause}`: unknown error kind `{kind}` \
                     (expected device_fault, compile_failure, oom, or unsupported)"
                    )
                })?)
            } else if let Some(name) = action.strip_prefix("violate:") {
                Injection::Violate(crate::gen::Invariant::parse(name).ok_or_else(|| {
                    format!("DABENCH_INJECT `{clause}`: unknown invariant `{name}`")
                })?)
            } else {
                return Err(format!(
                    "DABENCH_INJECT `{clause}`: expected panic, sleep:SECS, err:KIND, \
                 or violate:INVARIANT"
                ));
            };
        map.insert(name.trim().to_owned(), injection);
    }
    Ok(map)
}

/// Read and parse the `DABENCH_INJECT` environment variable (empty map when
/// unset).
///
/// # Errors
///
/// A human-readable message naming the offending clause.
pub fn parse_injections() -> Result<BTreeMap<String, Injection>, String> {
    match std::env::var(INJECT_ENV) {
        Ok(raw) => parse_injection_clauses(&raw),
        Err(_) => Ok(BTreeMap::new()),
    }
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

/// Journal schema identifier; bump when the line format changes.
const JOURNAL_SCHEMA: &str = "dabench-journal-v1";
/// Journal file name inside a run directory.
const JOURNAL_FILE: &str = "journal.jsonl";

/// Format one journal record line exactly as [`RunJournal::append`]
/// writes it (no trailing newline).
fn format_record(label: &str, status: &str, data: &str) -> String {
    format!(
        "{{\"label\":\"{}\",\"status\":\"{}\",\"data\":\"{}\"}}",
        json_escape(label),
        json_escape(status),
        json_escape(data)
    )
}

pub(crate) fn json_escape(s: &str) -> String {
    jsonl::escape(s)
}

/// Parse one journal line — a flat JSON object with string values only
/// (the shared [`jsonl`] dialect). Returns `None` on any syntactic
/// deviation (the caller decides whether that is a truncated tail or
/// corruption).
fn parse_journal_line(line: &str) -> Option<BTreeMap<String, String>> {
    jsonl::parse_object(line)
}

/// One journal record after the schema header. Fields the line did not
/// carry are `None` — replay treats such records as unfinished points
/// rather than rejecting them, so a forward-compatible reader never
/// drops durable work.
#[derive(Debug, Clone, PartialEq, Eq)]
struct JournalRecord {
    /// Point label.
    label: String,
    /// Status keyword (`completed`, `failed`, `metrics`, …).
    status: Option<String>,
    /// Rendered result, failure description or metrics digest.
    data: Option<String>,
}

/// Outcome of [`parse_journal`]: the durable records, how many leading
/// bytes of the file they cover, and the torn trailing line (if any)
/// that was discarded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ParsedJournal {
    /// Every durable record after the schema header, in file order.
    records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (header + durable records); the
    /// healing truncation point.
    valid_bytes: usize,
    /// A truncated or corrupt *trailing* line that was discarded.
    dropped_tail: Option<String>,
}

/// Why [`parse_journal`] rejected a journal outright.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JournalParseError {
    /// Line 1 was not the expected schema header.
    BadSchema {
        /// The schema string found, if any.
        found: Option<String>,
    },
    /// An invalid line followed by more records — real corruption, not a
    /// torn tail.
    Corrupt {
        /// 1-based line number of the invalid line.
        line: usize,
        /// Byte offset of the invalid line.
        offset: usize,
        /// The invalid line's text.
        text: String,
    },
}

/// Parse a journal's full contents: schema header, then one record per
/// line. A torn **trailing** line (the expected residue of a `SIGKILL`
/// mid-append) is discarded into [`ParsedJournal::dropped_tail`]; an
/// invalid line **followed by** valid lines is mid-file corruption and a
/// hard error.
fn parse_journal(contents: &str) -> Result<ParsedJournal, JournalParseError> {
    let mut parsed = ParsedJournal::default();
    let mut line_no = 0usize;
    let mut invalid: Option<(usize, usize, String)> = None;
    let mut rest = contents;
    while !rest.is_empty() {
        let (line, consumed, complete) = match rest.find('\n') {
            Some(pos) => (&rest[..pos], pos + 1, true),
            None => (rest, rest.len(), false),
        };
        line_no += 1;
        let fields = if complete {
            parse_journal_line(line)
        } else {
            None // no trailing newline: the append was cut mid-line
        };
        match fields {
            Some(fields) if invalid.is_none() => {
                if line_no == 1 {
                    let schema = fields.get("schema").cloned();
                    if schema.as_deref() != Some(JOURNAL_SCHEMA) {
                        return Err(JournalParseError::BadSchema { found: schema });
                    }
                } else {
                    parsed.records.push(JournalRecord {
                        label: fields.get("label").cloned().unwrap_or_default(),
                        status: fields.get("status").cloned(),
                        data: fields.get("data").cloned(),
                    });
                }
                parsed.valid_bytes += consumed;
            }
            Some(_) | None if invalid.is_none() => {
                invalid = Some((line_no, parsed.valid_bytes, line.to_owned()));
            }
            _ => {
                // A second line after an invalid one: mid-file corruption.
                let (line, offset, text) = invalid.expect("recorded invalid line");
                return Err(JournalParseError::Corrupt { line, offset, text });
            }
        }
        rest = &rest[consumed..];
    }
    if let Some((_, _, tail)) = invalid {
        parsed.dropped_tail = Some(tail);
    }
    Ok(parsed)
}

/// Render a [`JournalParseError`] as the `io::Error` the journal API
/// reports, naming the offending file.
fn journal_parse_io_error(path: &Path, err: &JournalParseError) -> io::Error {
    match err {
        JournalParseError::BadSchema { found } => io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: unsupported journal schema {:?} (expected {JOURNAL_SCHEMA:?})",
                path.display(),
                found.as_deref().unwrap_or("<missing>")
            ),
        ),
        JournalParseError::Corrupt { line, offset, text } => io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: corrupt journal record at line {line}, byte offset \
                 {offset} ({} bytes, hex {}) is followed by more records; \
                 refusing to resume past possible lost work",
                path.display(),
                text.len(),
                jsonl::hex_snippet(text, 24),
            ),
        ),
    }
}

/// What replaying a journal found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// Completed points: label → journaled result, replayed verbatim.
    pub completed: BTreeMap<String, String>,
    /// Observability digests: label → digest block journaled alongside
    /// the point's `completed` record (see `obs::PointTrace::digest`).
    pub metrics: BTreeMap<String, String>,
    /// Labels journaled with a non-completed status (they will re-run).
    pub unfinished: Vec<String>,
    /// A truncated or corrupt *trailing* line that was discarded (the
    /// expected residue of a `SIGKILL` mid-append). The journal file is
    /// healed — truncated back to its last valid line — before reuse.
    pub dropped_tail: Option<String>,
}

impl Replay {
    /// Labels with journal records but no completed rendering — the
    /// points a resumed run re-adopts (deduplicated, sorted).
    fn adopted_labels(&self) -> Vec<String> {
        let mut adopted: Vec<String> = self
            .unfinished
            .iter()
            .filter(|l| !self.completed.contains_key(*l))
            .cloned()
            .collect();
        adopted.sort();
        adopted.dedup();
        adopted
    }

    /// One-line summary of what resuming this journal found, for stderr:
    /// how many points replay verbatim, how many are re-adopted and
    /// re-run, and whether a truncated record was abandoned. Partial
    /// recoveries must be visible, never silent.
    #[must_use]
    pub fn resume_summary(&self) -> String {
        format!(
            "resume: {} replayed from journal, {} adopted (re-run), {} abandoned (truncated tail)",
            self.completed.len(),
            self.adopted_labels().len(),
            usize::from(self.dropped_tail.is_some()),
        )
    }
}

/// Append-only, fsync-on-append run journal (`journal.jsonl` inside a run
/// directory).
///
/// Line 1 is a header `{"schema":"dabench-journal-v1"}`; each subsequent
/// line records one finished point: `{"label":…,"status":…,"data":…}`.
/// `data` holds the point's rendered result for `completed` records and a
/// failure description otherwise. Every append is flushed and fsync'd
/// before returning, so a record is durable once the point is reported
/// done — the journal can lose at most the line being written when the
/// process is killed, which [`RunJournal::resume`] detects and discards.
#[derive(Debug)]
pub struct RunJournal {
    file: File,
}

impl RunJournal {
    /// Path of the journal inside `dir`.
    #[must_use]
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(JOURNAL_FILE)
    }

    /// Start a fresh journal in `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Fails if `dir` already contains a journal (resume it or pick a new
    /// directory — silently overwriting a crashed run's journal would
    /// destroy the state `--resume` needs), or on any I/O error.
    pub fn create(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = Self::path_in(dir);
        if path.exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "{} already exists; pass --resume to continue it",
                    path.display()
                ),
            ));
        }
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        writeln!(file, "{{\"schema\":\"{JOURNAL_SCHEMA}\"}}")?;
        file.sync_all()?;
        Ok(Self { file })
    }

    /// Reopen the journal in `dir`, replaying every durable record.
    ///
    /// A missing or empty journal resumes as a fresh run. A truncated or
    /// unparseable **trailing** line is discarded (reported via
    /// [`Replay::dropped_tail`]) and the file is truncated back to its
    /// last valid line, so subsequent appends stay well-formed. An invalid
    /// line **followed by valid lines** is real corruption and is a hard
    /// error — resuming past it could silently drop completed work.
    ///
    /// # Errors
    ///
    /// I/O errors, a schema mismatch, or mid-file corruption.
    pub fn resume(dir: &Path) -> io::Result<(Self, Replay)> {
        let path = Self::path_in(dir);
        if !path.exists() {
            let journal = Self::create(dir)?;
            return Ok((journal, Replay::default()));
        }
        let mut contents = String::new();
        File::open(&path)?.read_to_string(&mut contents)?;

        let parsed = parse_journal(&contents).map_err(|e| journal_parse_io_error(&path, &e))?;
        let mut replay = Replay::default();
        for record in &parsed.records {
            let label = record.label.clone();
            match (record.status.as_deref(), record.data.as_ref()) {
                (Some("completed"), Some(data)) => {
                    replay.completed.insert(label, data.clone());
                }
                (Some("metrics"), Some(data)) => {
                    replay.metrics.insert(label, data.clone());
                }
                _ => replay.unfinished.push(label),
            }
        }
        replay.dropped_tail = parsed.dropped_tail;

        // Heal a dropped tail: truncate to the last valid record so the
        // next append starts on a fresh line.
        let file = OpenOptions::new().read(true).append(true).open(&path)?;
        if parsed.valid_bytes < contents.len() {
            file.set_len(parsed.valid_bytes as u64)?;
            file.sync_all()?;
        }
        let mut journal = Self { file };
        if parsed.valid_bytes == 0 {
            // Empty (or fully discarded) file: rewrite the header.
            writeln!(journal.file, "{{\"schema\":\"{JOURNAL_SCHEMA}\"}}")?;
            journal.file.sync_all()?;
        }
        journal.file.seek(io::SeekFrom::End(0))?;
        Ok((journal, replay))
    }

    /// Durably append one point record (`data` is the rendered result for
    /// completed points, a failure description otherwise).
    ///
    /// # Errors
    ///
    /// Propagates write/fsync failures — a journal that cannot persist
    /// must fail loudly, or `--resume` would silently re-run points.
    pub fn append(&mut self, label: &str, status: &str, data: &str) -> io::Result<()> {
        writeln!(self.file, "{}", format_record(label, status, data))?;
        self.file.sync_all()
    }
}

// ---------------------------------------------------------------------------
// Run report
// ---------------------------------------------------------------------------

/// Deterministic summary of a supervised run: every point's label, status,
/// and failure detail, in the order recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    entries: Vec<(String, &'static str, Option<String>)>,
}

impl RunReport {
    /// Fold one point's outcome into the report.
    pub fn record<U>(&mut self, label: &str, outcome: &PointOutcome<U>) {
        let detail = match outcome {
            PointOutcome::Completed { .. } | PointOutcome::Journaled { .. } => None,
            PointOutcome::Failed { error } => Some(error.to_string()),
            PointOutcome::Panicked { message } => Some(message.clone()),
            PointOutcome::TimedOut { deadline } => {
                Some(format!("exceeded {:.1} s deadline", deadline.as_secs_f64()))
            }
        };
        self.entries
            .push((label.to_owned(), outcome.status(), detail));
    }

    /// Number of recorded points with the given status keyword.
    #[must_use]
    fn count(&self, status: &str) -> usize {
        self.entries.iter().filter(|(_, s, _)| *s == status).count()
    }

    /// Whether every point produced a value (completed or journaled).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.entries
            .iter()
            .all(|(_, s, _)| *s == "completed" || *s == "journaled")
    }

    /// Render the report (deterministic: recorded order, fixed format).
    /// Each timed-out point leaked one watchdog-abandoned runaway thread
    /// (see [`abandoned_threads`]); when any exist the headline says so.
    #[must_use]
    pub fn render(&self) -> String {
        let timed_out = self.count("timed-out");
        let abandoned = if timed_out > 0 {
            format!(
                " ({timed_out} runaway thread{} abandoned)",
                if timed_out == 1 { "" } else { "s" }
            )
        } else {
            String::new()
        };
        // "(0 retried)" is fixed text: points are never retried, and
        // benchmark harnesses parse this line as printed.
        let mut out = format!(
            "run report: {} points — {} completed (0 retried), {} from journal, {} failed, {} panicked, {} timed out{abandoned}\n",
            self.entries.len(),
            self.count("completed"),
            self.count("journaled"),
            self.count("failed"),
            self.count("panicked"),
            timed_out,
        );
        for (label, status, detail) in &self.entries {
            if let Some(detail) = detail {
                out.push_str(&format!("  [{status:>9}] {label}: {detail}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dabench-supervise-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn panicking_point_becomes_labelled_outcome() {
        let outcome: PointOutcome<u32> =
            supervise_point("fig9 L=72", 3, &SupervisePolicy::default(), |_| {
                panic!("index out of bounds")
            });
        match outcome {
            PointOutcome::Panicked { message } => {
                assert!(message.contains("fig9 L=72"), "{message}");
                assert!(message.contains("index out of bounds"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn error_fails_after_one_attempt() {
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&attempts);
        let outcome: PointOutcome<u32> =
            supervise_point("flaky", 0, &SupervisePolicy::default(), move |_| {
                seen.fetch_add(1, Ordering::SeqCst);
                Err(PlatformError::DeviceFault {
                    unit: "pe".into(),
                    detail: "fault".into(),
                })
            });
        assert!(
            matches!(outcome, PointOutcome::Failed { .. }),
            "{outcome:?}"
        );
        assert_eq!(attempts.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn point_seed_is_the_first_draw_of_the_point_fork() {
        let seed_of =
            |idx: u64| match supervise_point("seeded", idx, &SupervisePolicy::default(), Ok) {
                PointOutcome::Completed { value } => value,
                other => panic!("expected Completed, got {other:?}"),
            };
        let policy = SupervisePolicy::default();
        assert_eq!(seed_of(5), SplitMix64::fork(policy.seed, 5).next_u64());
        assert_eq!(seed_of(5), seed_of(5), "same point, same seed");
        assert_ne!(
            seed_of(5),
            seed_of(6),
            "different points draw different seeds"
        );
    }

    #[test]
    fn deadline_marks_overrun_and_abandons_the_point() {
        let policy = SupervisePolicy {
            deadline: Some(Duration::from_millis(30)),
            ..SupervisePolicy::default()
        };
        let start = std::time::Instant::now();
        let outcome: PointOutcome<u32> = supervise_point("hung", 0, &policy, |_| {
            std::thread::sleep(Duration::from_secs(30));
            Ok(1)
        });
        assert!(matches!(outcome, PointOutcome::TimedOut { .. }));
        assert!(start.elapsed() < Duration::from_secs(5), "watchdog fired");

        // A fast point under the same deadline completes normally.
        let ok = supervise_point("fast", 0, &policy, |_| Ok(2u32));
        assert_eq!(ok, PointOutcome::Completed { value: 2 });
    }

    #[test]
    fn deadline_thread_keeps_the_one_level_rule_of_its_worker() {
        // Under a deadline the body runs on a watchdog-spawned thread, not
        // on the `par_map` worker; a sweep nested in it must still run
        // inline on that one thread.
        let policy = SupervisePolicy {
            deadline: Some(Duration::from_secs(30)),
            ..SupervisePolicy::default()
        };
        let outer: Vec<u64> = (0..4).collect();
        let inner: Vec<u64> = (0..8).collect();
        let sweeps = crate::par_map_with(2, &outer, |&i| {
            let outcome = supervise_point("nested", i, &policy, {
                let inner = inner.clone();
                move |_| {
                    let body = std::thread::current().id();
                    let ids = crate::par_map_with(4, &inner, |&j| (j, std::thread::current().id()));
                    Ok((body, ids))
                }
            });
            outcome.value().cloned().expect("point completes")
        });
        for (body, ids) in sweeps {
            assert_eq!(ids.iter().map(|&(j, _)| j).collect::<Vec<_>>(), inner);
            assert!(ids.iter().all(|&(_, id)| id == body), "{ids:?} vs {body:?}");
        }
    }

    #[test]
    fn catch_labeled_and_with_point_label_attach_the_label() {
        assert_eq!(catch_labeled("p", || 3), Ok(3));
        let err = catch_labeled("table1 L=78", || -> u32 { panic!("boom") }).unwrap_err();
        assert!(err.contains("table1 L=78") && err.contains("boom"), "{err}");

        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_point_label("fig7 o3 x=24", || -> u32 { panic!("probe died") })
        }))
        .unwrap_err();
        let msg = panic_message(caught.as_ref());
        assert!(
            msg.contains("fig7 o3 x=24") && msg.contains("probe died"),
            "{msg}"
        );
    }

    #[test]
    fn json_escaping_roundtrips_through_the_parser() {
        let nasty = "line1\nline2\t\"quoted\" \\ back\u{1}slash é";
        let line = format!(
            "{{\"label\":\"{}\",\"status\":\"completed\",\"data\":\"{}\"}}",
            json_escape("p"),
            json_escape(nasty)
        );
        let fields = parse_journal_line(&line).expect("parses");
        assert_eq!(fields.get("data").map(String::as_str), Some(nasty));
    }

    #[test]
    fn journal_roundtrip_replays_completed_points() {
        let dir = temp_dir("roundtrip");
        let mut journal = RunJournal::create(&dir).unwrap();
        journal
            .append("table1", "completed", "Table I\nrow\n")
            .unwrap();
        journal
            .append("fig9", "panicked", "point `fig9`: boom")
            .unwrap();
        journal.append("fig6", "completed", "Fig 6 body").unwrap();
        drop(journal);

        let (_journal, replay) = RunJournal::resume(&dir).unwrap();
        assert_eq!(
            replay.completed.get("table1").map(String::as_str),
            Some("Table I\nrow\n")
        );
        assert_eq!(
            replay.completed.get("fig6").map(String::as_str),
            Some("Fig 6 body")
        );
        assert!(
            !replay.completed.contains_key("fig9"),
            "panicked points re-run"
        );
        assert_eq!(replay.unfinished, vec!["fig9".to_owned()]);
        assert_eq!(replay.dropped_tail, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_records_replay_separately_and_do_not_rerun_points() {
        let dir = temp_dir("metrics");
        let mut journal = RunJournal::create(&dir).unwrap();
        journal.append("table1", "completed", "Table I").unwrap();
        journal
            .append("table1", "metrics", "dabench-obs-v1|0|table1|")
            .unwrap();
        drop(journal);

        let (_journal, replay) = RunJournal::resume(&dir).unwrap();
        assert_eq!(
            replay.completed.get("table1").map(String::as_str),
            Some("Table I")
        );
        assert_eq!(
            replay.metrics.get("table1").map(String::as_str),
            Some("dabench-obs-v1|0|table1|")
        );
        assert!(
            replay.unfinished.is_empty(),
            "a metrics record must not mark its point unfinished: {:?}",
            replay.unfinished
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_dropped_reported_and_healed() {
        let dir = temp_dir("tail");
        let mut journal = RunJournal::create(&dir).unwrap();
        journal.append("table1", "completed", "T1").unwrap();
        journal.append("fig9", "failed", "boom").unwrap();
        let path = RunJournal::path_in(&dir);
        drop(journal);
        // Simulate a SIGKILL mid-append: a partial record, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"label\":\"fig6\",\"status\":\"comp").unwrap();
        drop(f);

        let (mut journal, replay) = RunJournal::resume(&dir).unwrap();
        assert!(replay.dropped_tail.as_deref().unwrap().contains("fig6"));
        assert_eq!(replay.completed.len(), 1);
        assert_eq!(
            replay.resume_summary(),
            "resume: 1 replayed from journal, 1 adopted (re-run), 1 abandoned (truncated tail)"
        );
        // The file was healed: appending and re-resuming is clean.
        journal.append("fig6", "completed", "F6").unwrap();
        drop(journal);
        let (_j, replay2) = RunJournal::resume(&dir).unwrap();
        assert_eq!(replay2.dropped_tail, None);
        assert_eq!(replay2.completed.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let dir = temp_dir("corrupt");
        let mut journal = RunJournal::create(&dir).unwrap();
        journal.append("table1", "completed", "T1").unwrap();
        let path = RunJournal::path_in(&dir);
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        let patched = text.replacen(
            "{\"label\":\"table1\"",
            "garbage not json oops\n{\"label\":\"table1\"",
            1,
        );
        std::fs::write(&path, patched).unwrap();
        let err = RunJournal::resume(&dir).unwrap_err();
        assert!(err.to_string().contains("corrupt journal record"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_error_names_line_offset_and_hex_snippet() {
        let dir = temp_dir("corrupt-detail");
        let mut journal = RunJournal::create(&dir).unwrap();
        journal.append("table1", "completed", "T1").unwrap();
        let path = RunJournal::path_in(&dir);
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        let patched = text.replacen(
            "{\"label\":\"table1\"",
            "garbage not json oops\n{\"label\":\"table1\"",
            1,
        );
        let offset = patched.find("garbage").unwrap();
        std::fs::write(&path, patched).unwrap();
        let err = RunJournal::resume(&dir).unwrap_err().to_string();
        // Pin the diagnostic format: line number, byte offset, length, and
        // a hex snippet of the offending record.
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains(&format!("byte offset {offset}")), "{err}");
        assert!(err.contains("(21 bytes"), "{err}");
        assert!(
            // "garbage not json oops" as hex
            err.contains("hex 67 61 72 62 61 67 65 20 6e 6f 74 20 6a 73 6f 6e 20 6f 6f 70 73"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_hex_snippet_is_truncated_for_long_records() {
        let dir = temp_dir("corrupt-long");
        let mut journal = RunJournal::create(&dir).unwrap();
        journal.append("table1", "completed", "T1").unwrap();
        let path = RunJournal::path_in(&dir);
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        let long_garbage = "X".repeat(200);
        let patched = text.replacen(
            "{\"label\":\"table1\"",
            &format!("{long_garbage}\n{{\"label\":\"table1\""),
            1,
        );
        std::fs::write(&path, patched).unwrap();
        let err = RunJournal::resume(&dir).unwrap_err().to_string();
        assert!(err.contains("(200 bytes"), "{err}");
        assert!(err.contains('…'), "snippet must mark the cut: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_to_clobber_an_existing_journal() {
        let dir = temp_dir("clobber");
        let _journal = RunJournal::create(&dir).unwrap();
        let err = RunJournal::create(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert!(err.to_string().contains("--resume"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let dir = temp_dir("schema");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            RunJournal::path_in(&dir),
            "{\"schema\":\"dabench-journal-v999\"}\n",
        )
        .unwrap();
        let err = RunJournal::resume(&dir).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn err_injection_parses_and_fires_every_time() {
        let map = parse_injection_clauses(
            "fig9=err:device_fault, table1=err:compile_failure, fig6=err:oom",
        )
        .unwrap();
        assert_eq!(
            map.get("fig9"),
            Some(&Injection::Err(InjectedErrorKind::DeviceFault))
        );
        assert_eq!(
            map.get("table1"),
            Some(&Injection::Err(InjectedErrorKind::CompileFailure))
        );
        let inj = map["table1"];
        let err = inj.fire().unwrap_err();
        assert!(err.to_string().contains("DABENCH_INJECT"), "{err}");
        assert!(inj.fire().is_err(), "fails again on a second call");
        assert!(matches!(
            map["fig6"].fire(),
            Err(PlatformError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn err_injection_rejects_unknown_kinds_and_bad_counts() {
        let err = parse_injection_clauses("fig9=err:gremlins").unwrap_err();
        assert!(err.contains("unknown error kind"), "{err}");
        assert!(parse_injection_clauses("fig9=err:oom:x").is_err());
        // The counted form `err:KIND:N` is gone: a count is an unknown kind.
        assert!(parse_injection_clauses("fig9=err:device_fault:2").is_err());
        assert!(parse_injection_clauses("fig9=explode").is_err());
        assert!(parse_injection_clauses("fig11=abort").is_err());
    }

    #[test]
    fn run_report_counts_and_renders_deterministically() {
        let mut report = RunReport::default();
        report.record("table1", &PointOutcome::Completed { value: 1u32 });
        report.record("table2", &PointOutcome::Completed { value: 2u32 });
        report.record("fig6", &PointOutcome::Journaled { value: 3u32 });
        report.record(
            "fig9",
            &PointOutcome::<u32>::Panicked {
                message: "point `fig9`: boom".into(),
            },
        );
        report.record(
            "fig11",
            &PointOutcome::<u32>::TimedOut {
                deadline: Duration::from_secs(2),
            },
        );
        assert!(!report.is_clean());
        assert_eq!(report.count("completed"), 2);
        assert_eq!(report.count("journaled"), 1);
        let rendered = report.render();
        assert_eq!(rendered, report.render(), "rendering is deterministic");
        assert!(rendered.contains("5 points"), "{rendered}");
        assert!(rendered.contains("2 completed (0 retried)"), "{rendered}");
        assert!(rendered.contains("1 panicked"), "{rendered}");
        assert!(rendered.contains("exceeded 2.0 s deadline"), "{rendered}");
        assert!(rendered.contains("fig9: point `fig9`: boom"), "{rendered}");
    }
}
