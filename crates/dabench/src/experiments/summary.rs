//! Cross-platform summary of one workload.
//!
//! The paper deliberately avoids ranking the platforms ("ensuring fairness
//! is highly challenging"); this module keeps that caveat but gives a
//! downstream user the side-by-side view they will inevitably want, with
//! each platform profiled at its own canonical configuration.

use crate::render::{num_or_fail, Table};
use dabench_core::{par_map, tier1_cached, with_point_label, Memoizable, Tier1Report};
use dabench_ipu::Ipu;
use dabench_model::TrainingWorkload;
use dabench_rdu::{CompilationMode, Rdu};
use dabench_wse::Wse;

/// One platform's summary line.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// Platform name.
    pub platform: String,
    /// Full Tier-1 report, `None` when the workload does not map.
    pub report: Option<Tier1Report>,
}

/// Profile `workload` on all three dataflow platforms (in parallel,
/// through the tier-1 cache; rows stay in canonical order).
#[must_use]
pub fn run(workload: &TrainingWorkload) -> Vec<SummaryRow> {
    fn row_of<P: Memoizable>(platform: &P, workload: &TrainingWorkload) -> SummaryRow {
        SummaryRow {
            platform: platform.name().to_owned(),
            report: tier1_cached(platform, workload).ok(),
        }
    }
    type Probe = fn(&TrainingWorkload) -> SummaryRow;
    let probes: [(&str, Probe); 3] = [
        ("summary wse", |w| row_of(&Wse::default(), w)),
        ("summary rdu-o3", |w| {
            row_of(&Rdu::with_mode(CompilationMode::O3), w)
        }),
        ("summary ipu", |w| row_of(&Ipu::default(), w)),
    ];
    par_map(&probes, |(label, probe)| {
        with_point_label(label, || probe(workload))
    })
}

/// Render the summary.
#[must_use]
pub fn render(rows: &[SummaryRow]) -> Table {
    let mut t = Table::new(
        "Cross-platform summary (per-chip; configurations differ — see the paper's fairness caveat)",
    );
    t.set_headers([
        "Platform",
        "Tokens/s",
        "TFLOP/s",
        "Efficiency",
        "Load imbalance",
        "Bound",
    ]);
    for r in rows {
        match &r.report {
            Some(rep) => t.add_row([
                r.platform.clone(),
                format!("{:.3e}", rep.throughput_tokens_per_s),
                format!("{:.1}", rep.achieved_tflops),
                format!("{:.1}%", 100.0 * rep.compute_efficiency),
                num_or_fail(rep.load_imbalance, 3),
                rep.bound.map_or("n/a".to_owned(), |b| b.to_string()),
            ]),
            None => t.add_row([
                r.platform.clone(),
                "Fail".to_owned(),
                "Fail".to_owned(),
                String::new(),
                String::new(),
                String::new(),
            ]),
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_model::{ModelConfig, Precision};

    #[test]
    fn all_platforms_handle_the_shared_probe() {
        let w = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 6), 32, 1024, Precision::Fp16);
        let rows = run(&w);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.report.is_some()));
    }

    #[test]
    fn failures_render_as_fail() {
        // 78 layers: WSE fails (per-PE SRAM), RDU succeeds (DDR has room
        // at this batch), IPU fails (tile SRAM).
        let w = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 78), 32, 1024, Precision::Fp16);
        let rows = run(&w);
        let wse = rows.iter().find(|r| r.platform.contains("wse")).unwrap();
        let rdu = rows.iter().find(|r| r.platform.contains("sn30")).unwrap();
        assert!(wse.report.is_none());
        assert!(rdu.report.is_some());
        let s = render(&rows).to_string();
        assert!(s.contains("Fail"));
    }
}
