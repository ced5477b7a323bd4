//! Fig. 9: memory-utilization and compute-performance interaction on all
//! three chips.

use super::workloads::{
    ipu_probe, rdu_o1_probe, rdu_probe, wse_probe, IPU_LAYER_SWEEP, RDU_HS_SWEEP, RDU_LAYER_SWEEP,
    RDU_O1_HS_SWEEP,
};
use crate::render::{num_or_fail, Table};
use dabench_core::{par_map, tier1_cached, with_point_label};
use dabench_ipu::Ipu;
use dabench_rdu::{CompilationMode, Rdu};
use dabench_wse::{compile, execute, Wse};

/// One point of Fig. 9(a): WSE memory breakdown and compute utilization.
#[derive(Debug, Clone, PartialEq)]
pub struct WseMemoryRow {
    /// Decoder layer count.
    pub layers: u64,
    /// Configuration-memory share of total SRAM.
    pub config_fraction: f64,
    /// Training-memory share of total SRAM.
    pub training_fraction: f64,
    /// Combined share.
    pub total_fraction: f64,
    /// Fraction of runtime spent computing.
    pub compute_fraction: f64,
    /// Achieved TFLOP/s.
    pub tflops: f64,
}

/// One point of Fig. 9(b)/(c): RDU TFLOPs per mode.
#[derive(Debug, Clone, PartialEq)]
pub struct RduTflopsRow {
    /// Compilation mode.
    pub mode: String,
    /// Swept parameter (layers or hidden size).
    pub x: u64,
    /// Achieved TFLOP/s.
    pub tflops: f64,
}

/// One point of Fig. 9(d): IPU memory and TFLOPs.
#[derive(Debug, Clone, PartialEq)]
pub struct IpuRow {
    /// Decoder layer count.
    pub layers: u64,
    /// SRAM utilization, `None` when execution fails (OOM).
    pub memory_utilization: Option<f64>,
    /// Achieved TFLOP/s, `None` on failure.
    pub tflops: Option<f64>,
}

/// Fig. 9(a): WSE memory/compute vs layers.
#[must_use]
pub fn run_wse() -> Vec<WseMemoryRow> {
    let wse = Wse::default();
    par_map(&[6u64, 12, 18, 24, 36, 48, 60, 72], |&layers| {
        with_point_label(&format!("fig9 wse L={layers}"), || {
            let w = wse_probe(layers);
            let c =
                compile(wse.wse_spec(), wse.compiler_params(), &w, None).expect("range compiles");
            let e = execute(wse.wse_spec(), wse.compiler_params(), &c, &w);
            WseMemoryRow {
                layers,
                config_fraction: c.memory.config_fraction(),
                training_fraction: c.memory.training_fraction(),
                total_fraction: c.memory.total_fraction(),
                compute_fraction: e.compute_time_fraction,
                tflops: e.achieved_tflops,
            }
        })
    })
}

/// Fig. 9(b): RDU TFLOPs vs layers (all modes, HS fixed).
#[must_use]
pub fn run_rdu_layers() -> Vec<RduTflopsRow> {
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
    rdu_points(&specs)
}

/// Profile `(mode, x, workload)` points in parallel, rows in input order.
fn rdu_points(
    specs: &[(CompilationMode, u64, dabench_model::TrainingWorkload)],
) -> Vec<RduTflopsRow> {
    par_map(specs, |(mode, x, w)| {
        with_point_label(&format!("fig9 rdu-{mode} x={x}"), || {
            let r = tier1_cached(&Rdu::with_mode(*mode), w).expect("probe profiles");
            RduTflopsRow {
                mode: mode.to_string(),
                x: *x,
                tflops: r.achieved_tflops,
            }
        })
    })
}

/// Fig. 9(c): RDU TFLOPs vs hidden size.
#[must_use]
pub fn run_rdu_hidden() -> Vec<RduTflopsRow> {
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
    rdu_points(&specs)
}

/// Fig. 9(d): IPU memory + TFLOPs vs layers, with the OOM at 10.
#[must_use]
pub fn run_ipu() -> Vec<IpuRow> {
    let ipu = Ipu::default();
    par_map(&IPU_LAYER_SWEEP, |&layers| {
        with_point_label(&format!("fig9 ipu L={layers}"), || {
            match tier1_cached(&ipu, &ipu_probe(layers)) {
                Ok(r) => IpuRow {
                    layers,
                    memory_utilization: r.memory_utilization_of("tile-sram"),
                    tflops: Some(r.achieved_tflops),
                },
                Err(_) => IpuRow {
                    layers,
                    memory_utilization: None,
                    tflops: None,
                },
            }
        })
    })
}

/// Render all four panels.
#[must_use]
pub fn render(
    wse: &[WseMemoryRow],
    rdu_layers: &[RduTflopsRow],
    rdu_hidden: &[RduTflopsRow],
    ipu: &[IpuRow],
) -> Vec<Table> {
    let mut a = Table::new("Fig. 9(a): WSE memory breakdown and compute utilization");
    a.set_headers([
        "Layers",
        "Config%",
        "Training%",
        "Total%",
        "Compute util",
        "TFLOPs",
    ]);
    for r in wse {
        a.add_row([
            r.layers.to_string(),
            format!("{:.1}", 100.0 * r.config_fraction),
            format!("{:.1}", 100.0 * r.training_fraction),
            format!("{:.1}", 100.0 * r.total_fraction),
            format!("{:.2}", r.compute_fraction),
            format!("{:.1}", r.tflops),
        ]);
    }
    let mk = |title: &str, rows: &[RduTflopsRow]| {
        let mut t = Table::new(title);
        t.set_headers(["Mode", "x", "TFLOPs"]);
        for r in rows {
            t.add_row([r.mode.clone(), r.x.to_string(), format!("{:.2}", r.tflops)]);
        }
        t
    };
    let b = mk("Fig. 9(b): RDU TFLOPs vs layers", rdu_layers);
    let c = mk("Fig. 9(c): RDU TFLOPs vs hidden size", rdu_hidden);
    let mut d = Table::new("Fig. 9(d): IPU memory and TFLOPs vs layers");
    d.set_headers(["Layers", "Memory util", "TFLOPs"]);
    for r in ipu {
        d.add_row([
            r.layers.to_string(),
            num_or_fail(r.memory_utilization, 3),
            num_or_fail(r.tflops, 1),
        ]);
    }
    vec![a, b, c, d]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wse_config_memory_explodes_past_36() {
        let rows = run_wse();
        let get = |l: u64| rows.iter().find(|r| r.layers == l).unwrap();
        let early_growth = get(36).config_fraction - get(12).config_fraction;
        let late_growth = get(72).config_fraction - get(36).config_fraction;
        assert!(late_growth > early_growth);
        // TFLOPs peak in the middle, decline at depth.
        assert!(get(24).tflops > get(6).tflops);
        assert!(get(24).tflops > get(72).tflops);
    }

    #[test]
    fn rdu_o0_severely_limited() {
        let rows = run_rdu_layers();
        for &l in &RDU_LAYER_SWEEP {
            let get = |m: &str| {
                rows.iter()
                    .find(|r| r.mode == m && r.x == l)
                    .unwrap()
                    .tflops
            };
            assert!(get("o0") < 0.5 * get("o3"), "L={l}");
        }
    }

    #[test]
    fn rdu_tflops_rise_with_hidden_size() {
        let rows = run_rdu_hidden();
        let o3: Vec<f64> = rows
            .iter()
            .filter(|r| r.mode == "o3")
            .map(|r| r.tflops)
            .collect();
        assert!(o3.last().unwrap() > o3.first().unwrap());
        // Paper band: 35-50 TFLOPs at the top of the sweep.
        assert!((25.0..60.0).contains(o3.last().unwrap()), "{:?}", o3);
    }

    #[test]
    fn ipu_fails_at_ten_layers() {
        let rows = run_ipu();
        let last = rows.last().unwrap();
        assert_eq!(last.layers, 10);
        assert!(last.tflops.is_none());
        // Memory grows monotonically until then.
        let mems: Vec<f64> = rows.iter().filter_map(|r| r.memory_utilization).collect();
        assert!(mems.windows(2).all(|w| w[1] > w[0]), "{mems:?}");
    }

    #[test]
    fn render_produces_four_panels() {
        let tables = render(&run_wse(), &run_rdu_layers(), &run_rdu_hidden(), &run_ipu());
        assert_eq!(tables.len(), 4);
    }
}
