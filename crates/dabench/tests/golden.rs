//! Golden snapshot tests: exact-byte pins of user-facing renderings.
//!
//! Each test runs the real `dabench` binary and diffs its output against a
//! checked-in snapshot under `tests/golden/`. Any change to a rendering —
//! down to a single character — fails the suite, so formatting and numeric
//! regressions cannot slip through a review unnoticed.
//!
//! To accept an intentional change, regenerate the snapshots:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p dabench --test golden
//! ```
//!
//! then review the diff like any other code change (see tests/README.md).

use dabench::suite::EXPERIMENTS;
use std::path::PathBuf;
use std::process::Command;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn run(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_dabench"))
        .args(args)
        .env_remove("DABENCH_INJECT")
        .output()
        .expect("binary runs");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// Diff `actual` against `tests/golden/<name>`, or rewrite the snapshot
/// when `UPDATE_GOLDEN` is set. Failure messages point at the first
/// differing line so a one-character drift is easy to locate.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             regenerate with: UPDATE_GOLDEN=1 cargo test -p dabench --test golden",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let mismatch = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .map(|i| {
            format!(
                "first difference at line {}:\n  golden: {:?}\n  actual: {:?}",
                i + 1,
                expected.lines().nth(i).unwrap_or(""),
                actual.lines().nth(i).unwrap_or(""),
            )
        })
        .unwrap_or_else(|| {
            format!(
                "line counts differ: golden {} vs actual {}",
                expected.lines().count(),
                actual.lines().count()
            )
        });
    panic!(
        "output differs from golden snapshot {name}\n{mismatch}\n\
         if the change is intentional: UPDATE_GOLDEN=1 cargo test -p dabench --test golden"
    );
}

#[test]
fn check_scorecard_matches_golden() {
    let r = run(&["check"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("check.stdout.golden", &r.stdout);
}

#[test]
fn table1_rendering_matches_golden() {
    let r = run(&["table1"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("table1.stdout.golden", &r.stdout);
}

#[test]
fn table3_rendering_matches_golden() {
    let r = run(&["table3"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("table3.stdout.golden", &r.stdout);
}

#[test]
fn infer_rendering_matches_golden() {
    // Pins both serving tables — the batch × prompt × KV-precision sweep
    // (including the OOM cells at the WSE/GPU capacity walls) and the
    // static-vs-continuous batching comparison.
    let r = run(&["infer"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("infer.stdout.golden", &r.stdout);
}

#[test]
fn infer_csv_matches_golden() {
    let r = run(&["csv", "infer"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("infer.csv.golden", &r.stdout);
}

#[test]
fn gen_tier_list_matches_golden() {
    let r = run(&["gen", "--list-tiers"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("gen_tiers.stdout.golden", &r.stdout);
}

#[test]
fn gen_baby_population_matches_golden() {
    // Pins the whole `dabench gen` rendering end to end: the sampled
    // population table (the seed-42 baby scenarios), every gen-v1 record,
    // the results matrix, the Elo/Pareto ranking report, and the
    // invariant summary. Any drift in the sampler, the platform models,
    // or the report shapes fails here first.
    let r = run(&["gen", "--tier", "baby", "--count", "8", "--seed", "42"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("gen_baby.stdout.golden", &r.stdout);
}

#[test]
fn gen_csv_matches_golden() {
    let r = run(&["csv", "gen"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("gen.csv.golden", &r.stdout);
}

#[test]
fn check_metrics_table_matches_golden() {
    // Pins the observability layer end to end: phase attribution, counter
    // totals, span counts, and the table format itself. The model is
    // analytic, so these figures are bit-stable across runs and hosts.
    let r = run(&["check", "--metrics"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("check.metrics.golden", &r.stderr);
}

#[test]
fn experiment_metrics_tables_match_golden() {
    // Pins, for every experiment other than `check` (pinned above), the
    // phases its spans land in, the span counts, and the counter totals
    // of its `--metrics` table. Each table is rendered at one worker and
    // at four, and both must equal the snapshot: observability output
    // must not depend on `--jobs`.
    let mut snapshot = String::new();
    let others = ["ablations", "sensitivity", "infer"];
    for name in EXPERIMENTS.into_iter().chain(others) {
        let one = run(&[name, "--metrics", "--jobs", "1"]);
        assert_eq!(one.code, Some(0), "{name}: {}", one.stderr);
        let four = run(&[name, "--metrics", "--jobs", "4"]);
        assert_eq!(four.code, Some(0), "{name}: {}", four.stderr);
        assert_eq!(
            one.stderr, four.stderr,
            "{name}: --metrics differs across --jobs"
        );
        snapshot.push_str(&format!("### dabench {name} --metrics\n{}\n", one.stderr));
    }
    assert_golden("experiments.metrics.golden", &snapshot);
}
