//! Fig. 8: load imbalance of WSE-2 (kernel level) and RDU (operator level).

use super::workloads::{rdu_o1_probe, rdu_probe, wse_probe, RDU_HS_SWEEP, RDU_LAYER_SWEEP};
use crate::render::Table;
use dabench_core::{par_map, tier1_cached, with_point_label};
use dabench_model::TrainingWorkload;
use dabench_rdu::{CompilationMode, Rdu};
use dabench_wse::Wse;

/// One LI observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// Series label (`"wse"`, `"rdu-o1"`, `"rdu-o3"`).
    pub series: String,
    /// Swept parameter (layers for panel a, hidden size for panel b).
    pub x: u64,
    /// Load imbalance (Eq. 3 / Eq. 4).
    pub li: f64,
}

/// One LI probe: which platform to profile and on what workload.
enum LiProbe {
    Wse(TrainingWorkload),
    Rdu(CompilationMode, TrainingWorkload),
}

fn li_of(probe: &LiProbe) -> f64 {
    match probe {
        LiProbe::Wse(w) => tier1_cached(&Wse::default(), w)
            .expect("wse probe compiles")
            .load_imbalance
            .expect("wse reports LI"),
        LiProbe::Rdu(mode, w) => tier1_cached(&Rdu::with_mode(*mode), w)
            .expect("rdu probe profiles")
            .load_imbalance
            .expect("rdu reports LI"),
    }
}

/// Profile `(series, x, probe)` points in parallel, rows in input order.
fn rows_of(specs: &[(String, u64, LiProbe)]) -> Vec<Fig8Row> {
    par_map(specs, |(series, x, probe)| {
        with_point_label(&format!("fig8 {series} x={x}"), || Fig8Row {
            series: series.clone(),
            x: *x,
            li: li_of(probe),
        })
    })
}

/// Fig. 8(a): LI vs layer count.
#[must_use]
pub fn run_layers() -> Vec<Fig8Row> {
    let mut specs: Vec<(String, u64, LiProbe)> = [6u64, 12, 24, 36, 48]
        .iter()
        .map(|&l| ("wse".to_owned(), l, LiProbe::Wse(wse_probe(l))))
        .collect();
    for &l in &RDU_LAYER_SWEEP {
        for (mode, w) in [
            (CompilationMode::O1, rdu_o1_probe(4096, l)),
            (CompilationMode::O3, rdu_probe(768, l)),
        ] {
            specs.push((format!("rdu-{mode}"), l, LiProbe::Rdu(mode, w)));
        }
    }
    rows_of(&specs)
}

/// Fig. 8(b): RDU LI vs hidden size.
#[must_use]
pub fn run_hidden_sizes() -> Vec<Fig8Row> {
    let mut specs: Vec<(String, u64, LiProbe)> = RDU_HS_SWEEP
        .iter()
        .map(|&hs| {
            (
                "rdu-o3".to_owned(),
                hs,
                LiProbe::Rdu(CompilationMode::O3, rdu_probe(hs, 12)),
            )
        })
        .collect();
    specs.extend([3072u64, 4096, 5120, 6686, 8192].iter().map(|&hs| {
        (
            "rdu-o1".to_owned(),
            hs,
            LiProbe::Rdu(CompilationMode::O1, rdu_o1_probe(hs, 4)),
        )
    }));
    rows_of(&specs)
}

/// Render one panel.
#[must_use]
pub fn render(rows: &[Fig8Row], panel: &str) -> Table {
    let mut t = Table::new(format!("Fig. 8({panel}): load imbalance (1 = balanced)"));
    t.set_headers(["Series", "x", "LI"]);
    for r in rows {
        t.add_row([r.series.clone(), r.x.to_string(), format!("{:.3}", r.li)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(rows: &[Fig8Row], s: &str) -> Vec<f64> {
        rows.iter()
            .filter(|r| r.series == s)
            .map(|r| r.li)
            .collect()
    }

    #[test]
    fn wse_li_between_096_and_1() {
        let rows = run_layers();
        for li in series(&rows, "wse") {
            assert!((0.94..=1.0).contains(&li), "{li}");
        }
    }

    #[test]
    fn o1_balances_better_than_o3() {
        let rows = run_layers();
        let o1_min = series(&rows, "rdu-o1")
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        let o3_max = series(&rows, "rdu-o3").into_iter().fold(0.0f64, f64::max);
        assert!(o1_min > o3_max, "o1 min {o1_min} vs o3 max {o3_max}");
    }

    #[test]
    fn o3_li_decreases_with_layers() {
        let rows = run_layers();
        let o3 = series(&rows, "rdu-o3");
        assert!(o3.first().unwrap() > o3.last().unwrap());
    }

    #[test]
    fn li_improves_with_hidden_size() {
        let rows = run_hidden_sizes();
        let o1 = series(&rows, "rdu-o1");
        let o3 = series(&rows, "rdu-o3");
        assert!(o1.last().unwrap() > o1.first().unwrap());
        assert!(o3.last().unwrap() > o3.first().unwrap());
    }

    #[test]
    fn render_has_both_rdu_series() {
        let s = render(&run_hidden_sizes(), "b").to_string();
        assert!(s.contains("rdu-o1") && s.contains("rdu-o3"));
    }
}
