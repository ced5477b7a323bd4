//! Smoke tests of the `dabench` CLI binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dabench"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn table1_prints_the_table() {
    let (ok, stdout, _) = run(&["table1"]);
    assert!(ok);
    assert!(stdout.contains("Table I"));
    assert!(stdout.contains("Fail"));
}

#[test]
fn tier1_profiles_a_platform() {
    let (ok, stdout, _) = run(&["tier1", "wse", "--layers", "12", "--batch", "64"]);
    assert!(ok);
    assert!(stdout.contains("Tier1Report"));
    assert!(stdout.contains("cerebras-wse2"));
}

#[test]
fn tier1_reports_mapping_failures() {
    let (ok, _, stderr) = run(&["tier1", "ipu", "--layers", "10", "--batch", "64"]);
    assert!(!ok);
    assert!(stderr.contains("out of memory"), "{stderr}");
}

#[test]
fn summary_prints_all_platforms() {
    let (ok, stdout, _) = run(&["summary", "--layers", "6", "--batch", "16"]);
    assert!(ok);
    assert!(stdout.contains("cerebras"));
    assert!(stdout.contains("sn30"));
    assert!(stdout.contains("ipu"));
}

#[test]
fn unknown_command_fails_with_usage() {
    // `bench` must stay unknown: perfbench/ is the only benchmark harness.
    for cmd in ["frobnicate", "bench"] {
        let out = Command::new(env!("CARGO_BIN_EXE_dabench"))
            .arg(cmd)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage"),
            "{cmd}"
        );
    }
}

#[test]
fn bad_flag_value_is_reported() {
    let (ok, _, stderr) = run(&["summary", "--layers", "abc"]);
    assert!(!ok);
    assert!(stderr.contains("--layers"));
}

#[test]
fn zero_valued_flags_get_clean_errors() {
    for args in [
        ["summary", "--batch", "0"],
        ["summary", "--layers", "0"],
        ["tier1", "wse", "--seq"],
    ] {
        let (ok, _, stderr) = run(&args);
        assert!(!ok, "{args:?}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_succeeds() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("commands"));
    assert!(stdout.contains("--jobs"));
    // Command lines keep their indent.
    assert!(stdout.contains("\n  table1 table2"), "{stdout}");
}

#[test]
fn summary_output_is_jobs_invariant() {
    let (ok1, seq, _) = run(&["summary", "--layers", "6", "--batch", "16", "--jobs", "1"]);
    let (ok4, par, _) = run(&["summary", "--layers", "6", "--batch", "16", "--jobs", "4"]);
    assert!(ok1 && ok4);
    assert_eq!(seq, par, "summary output must not depend on --jobs");
}

#[test]
fn fig7_output_is_jobs_invariant() {
    let (ok1, seq, _) = run(&["fig7", "--jobs", "1"]);
    let (ok4, par, _) = run(&["fig7", "--jobs", "4"]);
    assert!(ok1 && ok4);
    assert_eq!(seq, par, "fig7 output must not depend on --jobs");
}

#[test]
fn faults_output_is_jobs_invariant() {
    let base = [
        "faults", "wse", "--seed", "7", "--layers", "6", "--batch", "16",
    ];
    let mut seq_args = base.to_vec();
    seq_args.extend(["--jobs", "1"]);
    let mut par_args = base.to_vec();
    par_args.extend(["--jobs", "4"]);
    let (ok1, seq, _) = run(&seq_args);
    let (ok4, par, _) = run(&par_args);
    assert!(ok1 && ok4);
    assert_eq!(seq, par, "faults output must not depend on --jobs");
    assert!(seq.contains("Resilience"));
}

#[test]
fn infer_output_is_jobs_invariant() {
    let (ok1, seq, _) = run(&["infer", "--jobs", "1"]);
    let (ok4, par, _) = run(&["infer", "--jobs", "4"]);
    assert!(ok1 && ok4);
    assert_eq!(seq, par, "infer output must not depend on --jobs");
    assert!(seq.contains("Inference serving"));
}

#[test]
fn infer_accepts_explicit_workload_flags() {
    let (ok, out, _) = run(&[
        "infer",
        "--model",
        "llama2-7b",
        "--batch",
        "4",
        "--prompt",
        "1024",
        "--decode",
        "64",
        "--kv-precision",
        "fp8",
        "--continuous",
    ]);
    assert!(ok);
    assert!(out.contains("Workload:"), "{out}");
    assert!(out.contains("kv=fp8"), "{out}");
    for platform in ["wse", "rdu", "ipu", "gpu"] {
        assert!(out.contains(platform), "missing {platform}: {out}");
    }
}

#[test]
fn infer_rejects_invalid_workloads() {
    let (ok, _, stderr) = run(&["infer", "--batch", "0"]);
    assert!(!ok, "zero batch must be rejected");
    assert!(stderr.contains("batch"), "{stderr}");
    let (ok, _, stderr) = run(&["infer", "--model", "nonexistent"]);
    assert!(!ok);
    assert!(stderr.contains("model"), "{stderr}");
}

#[test]
fn jobs_flag_rejects_bad_values() {
    for bad in ["0", "abc"] {
        let (ok, _, stderr) = run(&["summary", "--jobs", bad]);
        assert!(!ok, "--jobs {bad} should fail");
        assert!(stderr.contains("--jobs"), "{stderr}");
    }
    let (ok, _, stderr) = run(&["summary", "--jobs"]);
    assert!(!ok);
    assert!(stderr.contains("--jobs"), "{stderr}");
}

#[test]
fn csv_exports_every_experiment_and_ablations() {
    for name in ["table1", "fig9", "fig11", "ablations"] {
        let (ok, stdout, stderr) = run(&["csv", name]);
        assert!(ok, "csv {name}: {stderr}");
        assert!(stdout.contains(','), "csv {name} produced no rows");
    }
}

#[test]
fn csv_rejects_unknown_experiment() {
    let (ok, _, stderr) = run(&["csv", "fig99"]);
    assert!(!ok);
    assert!(stderr.contains("no CSV export"), "{stderr}");
}

#[test]
fn faults_failed_points_show_dash_not_zero() {
    // A 50%-dead plan makes the WSE remap fail; the failed row must not
    // fabricate a 0.00 s recovery time.
    let (ok, stdout, _) = run(&[
        "faults", "wse", "--seed", "7", "--plan", "dead=0.5", "--layers", "6", "--batch", "16",
    ]);
    assert!(ok);
    if let Some(line) = stdout.lines().find(|l| l.contains("FAILED")) {
        assert!(!line.contains("0.00"), "{line}");
    }
}
