//! Reproduction scorecard: programmatic checks of every paper claim.
//!
//! This is the runnable counterpart of the paper's artifact-evaluation
//! appendix and of EXPERIMENTS.md: each check re-derives one claim from
//! the public experiment API and reports pass/fail, so a user can verify
//! the whole reproduction with `dabench check`.

use super::{fig10, fig11, fig12, fig6, fig7, fig8, fig9, table1, table2, table3, table4};
use crate::render::Table;
use dabench_core::{par_map, BoundKind};

/// Outcome of one claim check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Paper artifact the claim belongs to.
    pub artifact: String,
    /// The claim, in one sentence.
    pub claim: String,
    /// Whether the regenerated data supports it.
    pub passed: bool,
    /// The measured evidence.
    pub evidence: String,
}

fn check(artifact: &str, claim: &str, passed: bool, evidence: String) -> Check {
    Check {
        artifact: artifact.to_owned(),
        claim: claim.to_owned(),
        passed,
        evidence,
    }
}

/// Run the full scorecard.
///
/// Each paper artifact's checks are an independent group; the groups run
/// in parallel (bounded by [`dabench_core::jobs`]) and are concatenated
/// back in paper order, so the scorecard is byte-identical at any worker
/// count.
#[must_use]
pub fn run() -> Vec<Check> {
    let groups: [fn() -> Vec<Check>; 11] = [
        table1_checks,
        fig6_checks,
        table2_checks,
        fig7_checks,
        fig8_checks,
        fig9_checks,
        fig10_checks,
        table3_checks,
        fig11_checks,
        fig12_checks,
        table4_checks,
    ];
    par_map(&groups, |group| group()).concat()
}

fn table1_checks() -> Vec<Check> {
    let mut checks = Vec::new();
    let t1 = table1::run();
    let plateau: Vec<f64> = t1
        .iter()
        .filter(|r| (36..=72).contains(&r.layers))
        .filter_map(|r| r.allocation_pct)
        .collect();
    let plateau_ok = !plateau.is_empty() && plateau.iter().all(|v| (0.85..0.95).contains(v));
    checks.push(check(
        "Table I",
        "WSE PE allocation plateaus in the low 90s from 36 layers",
        plateau_ok,
        format!(
            "plateau {:.0}%-{:.0}%",
            100.0 * plateau.iter().cloned().fold(f64::INFINITY, f64::min),
            100.0 * plateau.iter().cloned().fold(0.0f64, f64::max)
        ),
    ));
    let cell78 = t1.iter().find(|r| r.layers == 78).map(|r| r.allocation_pct);
    checks.push(check(
        "Table I",
        "compilation fails at 78 layers (~500M params)",
        cell78 == Some(None),
        match cell78 {
            Some(Some(pct)) => format!("78-layer cell = {:.0}%", 100.0 * pct),
            Some(None) => "78-layer cell = Fail".to_owned(),
            None => "no 78-layer row".to_owned(),
        },
    ));
    checks
}

fn fig6_checks() -> Vec<Check> {
    let mut checks = Vec::new();
    let f6 = fig6::run();
    let stable = f6
        .iter()
        .filter(|r| r.layers < 12)
        .map(|r| r.attention_kernel_pes)
        .collect::<std::collections::HashSet<_>>()
        .len()
        == 1;
    checks.push(check(
        "Fig 6",
        "per-attention-kernel PEs are stable below 12 layers, then shrink",
        stable
            && f6.last().expect("rows").attention_kernel_pes
                < f6.first().expect("rows").attention_kernel_pes,
        format!(
            "{} → {} PEs",
            f6.first().expect("rows").attention_kernel_pes,
            f6.last().expect("rows").attention_kernel_pes
        ),
    ));
    checks
}

fn table2_checks() -> Vec<Check> {
    let mut checks = Vec::new();
    let ratios = table2::run_o3();
    let quantized = ratios.iter().all(|r| {
        [2.0 / 3.0, 0.75, 1.0, 2.0, 3.0]
            .iter()
            .any(|q| (r.forward_ratio - q).abs() < 1e-9)
    });
    checks.push(check(
        "Table II(a)",
        "O3 forward ratios land on the 2/3 - 3/4 - 1 quantization ladder",
        quantized,
        ratios
            .iter()
            .map(|r| format!("{:.3}", r.forward_ratio))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    let shards = table2::run_shards();
    checks.push(check(
        "Table II(b)",
        "LM-head shard count jumps at the fine-shard threshold",
        shards[2].shards > 2 * shards[1].shards,
        format!(
            "{} shards at HS 4096 vs {} at 5120",
            shards[1].shards, shards[2].shards
        ),
    ));
    checks
}

fn fig7_checks() -> Vec<Check> {
    let mut checks = Vec::new();
    let f7 = fig7::run_layers();
    let o3_above_o0 = f7
        .iter()
        .filter(|r| r.mode == "o3")
        .zip(f7.iter().filter(|r| r.mode == "o0"))
        .all(|(o3, o0)| o3.pcu_allocation > o0.pcu_allocation);
    checks.push(check(
        "Fig 7",
        "RDU allocation: O3 highest, O0 lowest, all far below the hardware limit",
        o3_above_o0 && f7.iter().all(|r| r.pcu_allocation < 0.70),
        format!(
            "max PCU allocation {:.2}",
            f7.iter().map(|r| r.pcu_allocation).fold(0.0f64, f64::max)
        ),
    ));
    checks
}

fn fig8_checks() -> Vec<Check> {
    let mut checks = Vec::new();
    let f8 = fig8::run_layers();
    let wse_min = f8
        .iter()
        .filter(|r| r.series == "wse")
        .map(|r| r.li)
        .fold(f64::INFINITY, f64::min);
    let o1_min = f8
        .iter()
        .filter(|r| r.series == "rdu-o1")
        .map(|r| r.li)
        .fold(f64::INFINITY, f64::min);
    let o3_max = f8
        .iter()
        .filter(|r| r.series == "rdu-o3")
        .map(|r| r.li)
        .fold(0.0f64, f64::max);
    checks.push(check(
        "Fig 8",
        "WSE is kernel-balanced (LI > 0.94); O1 balances far better than O3",
        wse_min > 0.94 && o1_min > o3_max,
        format!("WSE min {wse_min:.3}, O1 min {o1_min:.3}, O3 max {o3_max:.3}"),
    ));
    checks
}

fn fig9_checks() -> Vec<Check> {
    let mut checks = Vec::new();
    let wse_mem = fig9::run_wse();
    let cfg = |l: u64| {
        wse_mem
            .iter()
            .find(|r| r.layers == l)
            .expect("layer present")
            .config_fraction
    };
    checks.push(check(
        "Fig 9(a)",
        "WSE config memory grows super-linearly past 36 layers",
        cfg(72) - cfg(36) > cfg(36) - cfg(12),
        format!(
            "{:.1}% → {:.1}% → {:.1}%",
            100.0 * cfg(12),
            100.0 * cfg(36),
            100.0 * cfg(72)
        ),
    ));
    let ipu = fig9::run_ipu();
    checks.push(check(
        "Fig 9(d)",
        "IPU memory grows linearly and execution fails at 10 layers",
        ipu.last().expect("rows").tflops.is_none(),
        "10-layer cell = Fail".to_owned(),
    ));
    checks
}

fn fig10_checks() -> Vec<Check> {
    let mut checks = Vec::new();
    let f10 = fig10::run();
    let classified = f10.iter().all(|p| {
        if p.platform.contains("wse") {
            p.bound == BoundKind::ComputeBound
        } else {
            p.bound == BoundKind::MemoryBound
        }
    });
    checks.push(check(
        "Fig 10",
        "only the WSE is compute-bound; RDU and IPU are memory-bound",
        classified,
        format!("{} roofline points", f10.len()),
    ));
    checks
}

fn table3_checks() -> Vec<Check> {
    let mut checks = Vec::new();
    let t3 = table3::run();
    let get = |cfg: &str, model: &str| {
        t3.iter()
            .find(|r| r.configuration == cfg && r.model == model)
            .and_then(|r| r.throughput)
    };
    let tp2 = get("TP2", "7B").unwrap_or(0.0);
    let tp4 = get("TP4", "7B").unwrap_or(0.0);
    checks.push(check(
        "Table III",
        "cross-machine TP costs the RDU 25-55% of throughput",
        tp2 > 0.0 && (0.25..0.55).contains(&(1.0 - tp4 / tp2)),
        format!("TP2 {tp2:.0} → TP4 {tp4:.0} tokens/s"),
    ));
    let ws = get("PP (weight streaming)", "gpt2-small").unwrap_or(0.0);
    let dp0 = get("DP0", "gpt2-small").unwrap_or(0.0);
    checks.push(check(
        "Table III",
        "weight streaming costs the WSE ~20% against resident execution",
        dp0 > 0.0 && (0.05..0.35).contains(&(1.0 - ws / dp0)),
        format!("{:.1}% drop", 100.0 * (1.0 - ws / dp0)),
    ));
    checks
}

fn fig11_checks() -> Vec<Check> {
    let mut checks = Vec::new();
    let f11c = fig11::run_ipu();
    let ordered = f11c.iter().all(|a| {
        f11c.iter()
            .all(|b| a.max_layers >= b.max_layers || a.throughput > b.throughput)
    });
    checks.push(check(
        "Fig 11(c)",
        "IPU throughput is set by the most loaded device across all 9 allocations",
        ordered,
        format!("{} allocations checked", f11c.len()),
    ));
    checks
}

fn fig12_checks() -> Vec<Check> {
    let mut checks = Vec::new();
    let f12 = fig12::run();
    let wse_series = f12
        .iter()
        .find(|s| s.platform.contains("wse"))
        .expect("wse series");
    let knee = wse_series.saturation_batch(0.85);
    checks.push(check(
        "Fig 12",
        "WSE throughput saturates near batch 200",
        knee.is_some_and(|k| (100..=300).contains(&k)),
        knee.map_or_else(
            || "no 85%-of-peak knee in the sweep".to_owned(),
            |k| format!("85%-of-peak knee at batch {k}"),
        ),
    ));
    checks
}

fn table4_checks() -> Vec<Check> {
    let mut checks = Vec::new();
    let t4 = table4::run();
    let rdu_gain = table4::gain(&t4, "RDU (7B)").unwrap_or(0.0);
    let ipu_gain = table4::gain(&t4, "IPU").unwrap_or(0.0);
    let wse_gain = table4::gain(&t4, "WSE").unwrap_or(0.0);
    checks.push(check(
        "Table IV",
        "precision sensitivity orders RDU > IPU > WSE",
        rdu_gain > ipu_gain && ipu_gain > wse_gain,
        format!(
            "RDU {:+.1}%, IPU {:+.1}%, WSE {:+.1}%",
            100.0 * rdu_gain,
            100.0 * ipu_gain,
            100.0 * wse_gain
        ),
    ));

    checks
}

/// Render the scorecard.
#[must_use]
pub fn render(checks: &[Check]) -> Table {
    let mut t = Table::new("Reproduction scorecard (paper claims re-derived from the simulators)");
    t.set_headers(["Artifact", "Claim", "Status", "Evidence"]);
    for c in checks {
        t.add_row([
            c.artifact.clone(),
            c.claim.clone(),
            if c.passed { "PASS" } else { "FAIL" }.to_owned(),
            c.evidence.clone(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_claim_passes() {
        let checks = run();
        assert!(checks.len() >= 13);
        for c in &checks {
            assert!(c.passed, "{} — {}: {}", c.artifact, c.claim, c.evidence);
        }
    }

    #[test]
    fn render_shows_pass_column() {
        let s = render(&run()).to_string();
        assert!(s.contains("PASS"));
        assert!(!s.contains("FAIL"));
    }
}
