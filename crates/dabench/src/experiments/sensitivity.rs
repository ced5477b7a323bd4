//! Hardware-sensitivity analysis: which spec improvement buys each
//! platform the most throughput.
//!
//! The paper's Discussion sections recommend directions per vendor
//! ("expand external bandwidth" for the RDU, "improve bandwidth and memory
//! management" for the IPU, "kernel-level optimization" for the WSE); this
//! module quantifies those recommendations by finite-differencing the
//! simulators' hardware parameters.

use super::workloads::{ipu_probe, rdu_probe, wse_probe};
use crate::render::Table;
use dabench_core::{par_map, with_point_label, Platform};
use dabench_ipu::{Ipu, IpuCompilerParams, IpuSpec};
use dabench_rdu::{CompilationMode, Rdu, RduCompilerParams, RduSpec};
use dabench_wse::{Wse, WseCompilerParams, WseSpec};

/// Elasticity of throughput with respect to one hardware parameter:
/// relative throughput gain per relative parameter improvement
/// (1.0 = perfectly proportional, 0.0 = insensitive).
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityRow {
    /// Platform name.
    pub platform: String,
    /// Parameter name.
    pub parameter: String,
    /// Elasticity estimate.
    pub elasticity: f64,
}

const BUMP: f64 = 1.25;

fn elasticity(base: f64, bumped: f64) -> f64 {
    (bumped / base - 1.0) / (BUMP - 1.0)
}

fn wse_rows() -> Vec<SensitivityRow> {
    let w = wse_probe(24);
    let throughput = |spec: WseSpec, params: WseCompilerParams| {
        Wse::new(spec, params)
            .profile(&w)
            .expect("probe maps")
            .throughput_tokens_per_s
    };
    let base = throughput(WseSpec::cs2(), WseCompilerParams::default());

    let mut rows = Vec::new();
    let mut spec = WseSpec::cs2();
    spec.peak_flops_per_pe *= BUMP;
    rows.push(SensitivityRow {
        platform: "wse".into(),
        parameter: "per-PE compute rate".into(),
        elasticity: elasticity(base, throughput(spec, WseCompilerParams::default())),
    });

    let mut spec = WseSpec::cs2();
    spec.sram_per_pe_bytes = (spec.sram_per_pe_bytes as f64 * BUMP) as u64;
    rows.push(SensitivityRow {
        platform: "wse".into(),
        parameter: "per-PE SRAM".into(),
        elasticity: elasticity(base, throughput(spec, WseCompilerParams::default())),
    });

    let mut params = WseCompilerParams::default();
    params.sustained_gemm_efficiency = (params.sustained_gemm_efficiency * BUMP).min(1.0);
    rows.push(SensitivityRow {
        platform: "wse".into(),
        parameter: "kernel efficiency".into(),
        elasticity: elasticity(base, throughput(WseSpec::cs2(), params)),
    });
    rows
}

fn rdu_rows() -> Vec<SensitivityRow> {
    let w = rdu_probe(768, 12);
    let throughput = |spec: RduSpec, params: RduCompilerParams, mode: CompilationMode| {
        Rdu::new(spec, params, mode)
            .profile(&w)
            .expect("probe maps")
            .throughput_tokens_per_s
    };
    let base = throughput(
        RduSpec::sn30(),
        RduCompilerParams::default(),
        CompilationMode::O3,
    );

    let mut rows = Vec::new();
    // DDR sensitivity is probed in O0, the traffic-dominated mode (O3's
    // fused schedule hides most of the bandwidth behind compute).
    let base_o0 = throughput(
        RduSpec::sn30(),
        RduCompilerParams::default(),
        CompilationMode::O0,
    );
    let mut spec = RduSpec::sn30();
    spec.ddr_bw_bytes_per_s *= BUMP;
    rows.push(SensitivityRow {
        platform: "rdu".into(),
        parameter: "DDR bandwidth (O0 schedule)".into(),
        elasticity: elasticity(
            base_o0,
            throughput(spec, RduCompilerParams::default(), CompilationMode::O0),
        ),
    });

    let mut spec = RduSpec::sn30();
    spec.peak_flops_per_pcu *= BUMP;
    rows.push(SensitivityRow {
        platform: "rdu".into(),
        parameter: "per-PCU compute rate".into(),
        elasticity: elasticity(
            base,
            throughput(spec, RduCompilerParams::default(), CompilationMode::O3),
        ),
    });

    // The section ceiling only binds for wide decoders; probe it at
    // HS 1600 where O3 sections press against it.
    let wide = rdu_probe(1600, 12);
    let wide_tput = |params: RduCompilerParams| {
        Rdu::new(RduSpec::sn30(), params, CompilationMode::O3)
            .profile(&wide)
            .expect("wide probe maps")
            .throughput_tokens_per_s
    };
    let mut params = RduCompilerParams::default();
    params.max_pcus_per_section = (params.max_pcus_per_section as f64 * BUMP) as u64;
    rows.push(SensitivityRow {
        platform: "rdu".into(),
        parameter: "section PCU ceiling (HS 1600)".into(),
        elasticity: elasticity(wide_tput(RduCompilerParams::default()), wide_tput(params)),
    });
    rows
}

fn ipu_rows() -> Vec<SensitivityRow> {
    let w = ipu_probe(6);
    let throughput = |spec: IpuSpec, params: IpuCompilerParams| {
        Ipu::new(spec, params)
            .profile(&w)
            .expect("probe maps")
            .throughput_tokens_per_s
    };
    let base = throughput(IpuSpec::bow2000(), IpuCompilerParams::default());

    let mut rows = Vec::new();
    let mut spec = IpuSpec::bow2000();
    spec.peak_flops_per_tile *= BUMP;
    rows.push(SensitivityRow {
        platform: "ipu".into(),
        parameter: "per-tile compute rate".into(),
        elasticity: elasticity(base, throughput(spec, IpuCompilerParams::default())),
    });

    let mut spec = IpuSpec::bow2000();
    spec.sram_per_tile_bytes = (spec.sram_per_tile_bytes as f64 * BUMP) as u64;
    rows.push(SensitivityRow {
        platform: "ipu".into(),
        parameter: "per-tile SRAM".into(),
        elasticity: elasticity(base, throughput(spec, IpuCompilerParams::default())),
    });
    rows
}

/// Run the sensitivity analysis on all three platforms (one worker per
/// platform group; rows stay in wse/rdu/ipu order).
#[must_use]
pub fn run() -> Vec<SensitivityRow> {
    type Group = fn() -> Vec<SensitivityRow>;
    let groups: [(&str, Group); 3] = [
        ("sensitivity wse", wse_rows),
        ("sensitivity rdu", rdu_rows),
        ("sensitivity ipu", ipu_rows),
    ];
    par_map(&groups, |(label, group)| with_point_label(label, group)).concat()
}

/// Render the elasticity table.
#[must_use]
pub fn render(rows: &[SensitivityRow]) -> Table {
    let mut t =
        Table::new("Hardware sensitivity: throughput elasticity per +25% parameter improvement");
    t.set_headers(["Platform", "Parameter", "Elasticity"]);
    for r in rows {
        t.add_row([
            r.platform.clone(),
            r.parameter.clone(),
            format!("{:.2}", r.elasticity),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(rows: &[SensitivityRow], platform: &str, param: &str) -> f64 {
        rows.iter()
            .find(|r| r.platform == platform && r.parameter.contains(param))
            .unwrap_or_else(|| panic!("{platform}/{param}"))
            .elasticity
    }

    #[test]
    fn wse_wants_kernels_not_sram() {
        // The paper's WSE discussion: room is at the kernel level, not
        // capacity (for models that already fit).
        let rows = run();
        assert!(get(&rows, "wse", "kernel efficiency") > 0.5);
        assert!(get(&rows, "wse", "per-PE SRAM") < 0.2);
    }

    #[test]
    fn rdu_compute_and_scheduling_dominate() {
        // At probe scale the RDU schedule is mostly compute/ceiling-bound;
        // bandwidth still contributes (memory-bound sections exist).
        let rows = run();
        let ddr = get(&rows, "rdu", "DDR bandwidth");
        // O0's per-operator spill schedule responds to bandwidth.
        let ceiling = get(&rows, "rdu", "ceiling");
        let rate = get(&rows, "rdu", "per-PCU");
        assert!(ddr > 0.02, "{ddr}");
        assert!(ceiling > 0.1, "{ceiling}");
        assert!(rate > 0.2, "{rate}");
    }

    #[test]
    fn ipu_compute_rate_matters_sram_defers() {
        let rows = run();
        assert!(get(&rows, "ipu", "per-tile compute") > 0.4);
        // SRAM buys capacity (depth), not throughput, below the OOM point.
        assert!(get(&rows, "ipu", "per-tile SRAM") < 0.1);
    }

    #[test]
    fn elasticities_are_sane() {
        for r in run() {
            assert!(
                (-0.2..=1.4).contains(&r.elasticity),
                "{}: {}",
                r.parameter,
                r.elasticity
            );
        }
    }

    #[test]
    fn render_covers_platforms() {
        let s = render(&run()).to_string();
        assert!(s.contains("wse") && s.contains("rdu") && s.contains("ipu"));
    }
}
