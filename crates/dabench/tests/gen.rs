//! Integration tests for `dabench gen`: the seeded scenario generator,
//! its supervised sweep plumbing (`--jobs`/`--run-dir`/`--resume`), the
//! ranking report, and the metamorphic invariant layer
//! (see docs/generation.md).

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn run_with(args: &[&str], inject: Option<&str>) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dabench"));
    cmd.args(args).env_remove("DABENCH_INJECT");
    if let Some(inject) = inject {
        cmd.env("DABENCH_INJECT", inject);
    }
    let out = cmd.output().expect("binary runs");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

fn run(args: &[&str]) -> Run {
    run_with(args, None)
}

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dabench-cli-gen-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn list_tiers_names_all_five() {
    let r = run(&["gen", "--list-tiers"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    for tier in ["baby", "easy", "medium", "hard", "cosmic"] {
        assert!(
            r.stdout.contains(tier),
            "missing tier {tier}:\n{}",
            r.stdout
        );
    }
}

#[test]
fn unknown_tier_is_a_structured_error() {
    let r = run(&["gen", "--tier", "galactic"]);
    assert_eq!(r.code, Some(1));
    assert!(r.stderr.contains("unknown tier `galactic`"), "{}", r.stderr);
    assert!(r.stderr.contains("cosmic"), "error must list the tiers");
}

#[test]
fn output_is_byte_identical_across_jobs_and_journaled_runs() {
    // The acceptance bar: same tier+seed renders the same bytes at any
    // worker-thread count, with or without a run journal. Cosmic adds
    // memory-edge probes, fault plans and `scale` to the points.
    for (tier, count) in [("easy", "6"), ("baby", "12"), ("cosmic", "12")] {
        let base = &["gen", "--tier", tier, "--seed", "7", "--count", count];
        let serial = run(&[base as &[&str], &["--jobs", "1"]].concat());
        assert_eq!(serial.code, Some(0), "{tier}: {}", serial.stderr);
        for jobs in ["2", "8"] {
            let parallel = run(&[base as &[&str], &["--jobs", jobs]].concat());
            assert_eq!(parallel.code, Some(0), "{tier}: {}", parallel.stderr);
            assert_eq!(
                serial.stdout, parallel.stdout,
                "--jobs {jobs} must not perturb {tier} gen output"
            );
        }

        let dir = temp_dir("journaled");
        let dir_s = dir.to_str().expect("utf-8 temp path");
        let journaled = run(&[base as &[&str], &["--jobs", "2", "--run-dir", dir_s]].concat());
        assert_eq!(journaled.code, Some(0), "{tier}: {}", journaled.stderr);
        assert_eq!(
            serial.stdout, journaled.stdout,
            "--run-dir must not perturb {tier} gen output"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn failed_point_then_resume_is_byte_identical_to_a_clean_run() {
    // Fail one scenario (injected device fault), then resume: the
    // journaled scenarios replay, only the failed one re-runs, and the
    // final bytes match an uninterrupted run exactly.
    let base = &["gen", "--tier", "baby", "--seed", "42", "--count", "6"];
    let clean = run(&[base as &[&str], &["--jobs", "1"]].concat());
    assert_eq!(clean.code, Some(0), "{}", clean.stderr);

    let dir = temp_dir("resume");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let broken = run_with(
        &[base as &[&str], &["--jobs", "1", "--run-dir", dir_s]].concat(),
        Some("gen:baby:s42:i3=err:device_fault"),
    );
    assert_eq!(broken.code, Some(2), "injected failure: {}", broken.stderr);
    assert!(broken.stderr.contains("1 failed"), "{}", broken.stderr);

    let resumed = run(&[base as &[&str], &["--jobs", "1", "--resume", dir_s]].concat());
    assert_eq!(resumed.code, Some(0), "{}", resumed.stderr);
    assert_eq!(
        clean.stdout, resumed.stdout,
        "resumed population must render the clean run's bytes"
    );
    assert!(
        resumed.stderr.contains("replayed from journal"),
        "resume must account for the journaled scenarios: {}",
        resumed.stderr
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_tier_passes_its_invariants() {
    for tier in ["baby", "easy", "medium", "hard", "cosmic"] {
        let r = run(&["gen", "--tier", tier, "--seed", "11", "--count", "12"]);
        assert_eq!(r.code, Some(0), "tier {tier}: {}", r.stderr);
        assert!(
            !r.stderr.contains("invariant violated"),
            "tier {tier}: {}",
            r.stderr
        );
        assert!(r.stdout.contains("Platform ranking"), "tier {tier}");
        assert!(r.stdout.contains("Metamorphic invariants"), "tier {tier}");
    }
}

#[test]
fn violate_injection_exits_4_and_names_the_invariant() {
    // `DABENCH_INJECT=gen=violate:<name>` perturbs one observation so
    // the named invariant must fail loudly — proof the checker is wired
    // to the exit code, for every invariant in the catalog.
    for invariant in [
        "fault_monotone",
        "fp8_kv_smaller",
        "batch_monotone",
        "oom_wall_consistent",
        "seed_determinism",
    ] {
        let r = run_with(
            &["gen", "--tier", "baby", "--seed", "1", "--count", "2"],
            Some(&format!("gen=violate:{invariant}")),
        );
        assert_eq!(r.code, Some(4), "{invariant}: {}", r.stderr);
        assert!(
            r.stderr
                .contains(&format!("invariant violated: {invariant}")),
            "{invariant} not named in stderr:\n{}",
            r.stderr
        );
    }
}

#[test]
fn unknown_violate_target_is_rejected_at_parse_time() {
    let r = run_with(
        &["gen", "--tier", "baby", "--count", "1"],
        Some("gen=violate:nonsense"),
    );
    assert_eq!(r.code, Some(1), "{}", r.stderr);
    assert!(r.stderr.contains("unknown invariant"), "{}", r.stderr);
}
