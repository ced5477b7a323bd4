//! Fig. 10: roofline models at the global-memory level for all three
//! chips.

use super::workloads::{ipu_probe, rdu_probe, wse_probe};
use crate::render::Table;
use dabench_core::metrics::Roofline;
use dabench_core::{tier1, BoundKind, Platform};
use dabench_ipu::Ipu;
use dabench_rdu::{CompilationMode, Rdu};
use dabench_wse::Wse;

/// One roofline point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Row {
    /// Platform name.
    pub platform: String,
    /// Workload label.
    pub workload: String,
    /// Arithmetic intensity (Eq. 5), FLOPs/byte.
    pub intensity: f64,
    /// Achieved TFLOP/s.
    pub achieved_tflops: f64,
    /// Attainable TFLOP/s at this intensity.
    pub attainable_tflops: f64,
    /// Ridge intensity of the platform's roofline.
    pub ridge: f64,
    /// Bound classification.
    pub bound: BoundKind,
}

fn points<P: Platform>(
    platform: &P,
    workloads: &[(String, dabench_model::TrainingWorkload)],
) -> Vec<Fig10Row> {
    let spec = platform.spec();
    let mem = spec.global_memory().expect("platform has memory");
    let bw = mem.bandwidth_bytes_per_s.expect("global bw public");
    let roof = Roofline::new(spec.peak_tflops, bw);
    workloads
        .iter()
        .filter_map(|(label, w)| {
            let r = tier1::run(platform, w).ok()?;
            Some(Fig10Row {
                platform: platform.name().to_owned(),
                workload: label.clone(),
                intensity: r.arithmetic_intensity,
                achieved_tflops: r.achieved_tflops,
                attainable_tflops: roof.attainable_tflops(r.arithmetic_intensity),
                ridge: roof.ridge_intensity(),
                bound: r.bound.expect("bound classified"),
            })
        })
        .collect()
}

/// Evaluate the roofline points of all three chips.
#[must_use]
pub fn run() -> Vec<Fig10Row> {
    let mut rows = Vec::new();
    rows.extend(points(
        &Wse::default(),
        &[12u64, 24, 36, 48]
            .iter()
            .map(|&l| (format!("gpt2-768-l{l}"), wse_probe(l)))
            .collect::<Vec<_>>(),
    ));
    rows.extend(points(
        &Rdu::with_mode(CompilationMode::O3),
        &[480u64, 768, 1024, 1600]
            .iter()
            .map(|&h| (format!("gpt2-h{h}-l12"), rdu_probe(h, 12)))
            .collect::<Vec<_>>(),
    ));
    rows.extend(points(
        &Ipu::default(),
        &[2u64, 4, 6, 8]
            .iter()
            .map(|&l| (format!("gpt2-768-l{l}"), ipu_probe(l)))
            .collect::<Vec<_>>(),
    ));
    rows
}

/// Render the roofline points.
#[must_use]
pub fn render(rows: &[Fig10Row]) -> Table {
    let mut t = Table::new("Fig. 10: roofline points (global-memory level)");
    t.set_headers([
        "Platform",
        "Workload",
        "AI (F/B)",
        "Achieved TF",
        "Attainable TF",
        "Ridge",
        "Bound",
    ]);
    for r in rows {
        t.add_row([
            r.platform.clone(),
            r.workload.clone(),
            format!("{:.1}", r.intensity),
            format!("{:.1}", r.achieved_tflops),
            format!("{:.1}", r.attainable_tflops),
            format!("{:.1}", r.ridge),
            r.bound.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wse_compute_bound_others_memory_bound() {
        // The paper's headline: only the WSE stays compute-bound.
        for r in run() {
            if r.platform.contains("wse") {
                assert_eq!(r.bound, BoundKind::ComputeBound, "{r:?}");
            } else {
                assert_eq!(r.bound, BoundKind::MemoryBound, "{r:?}");
            }
        }
    }

    #[test]
    fn achieved_below_attainable() {
        for r in run() {
            assert!(r.achieved_tflops <= r.attainable_tflops * 1.05, "{r:?}");
        }
    }

    #[test]
    fn wse_ridge_is_tiny() {
        let rows = run();
        let wse = rows.iter().find(|r| r.platform.contains("wse")).unwrap();
        assert!(wse.ridge < 1.0, "{}", wse.ridge);
    }

    #[test]
    fn render_lists_all_platforms() {
        let s = render(&run()).to_string();
        assert!(s.contains("cerebras"));
        assert!(s.contains("sambanova"));
        assert!(s.contains("graphcore"));
    }
}
