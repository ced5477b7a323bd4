//! Fig. 6: computation vs. transmission PEs and per-attention-kernel
//! elasticity on the WSE-2.

use super::workloads::wse_probe;
use crate::render::Table;
use dabench_wse::{compile, KernelKind, Wse};

/// One point of the Fig. 6 series.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Decoder layer count.
    pub layers: u64,
    /// Total computation PEs.
    pub computation_pes: u64,
    /// Total transmission PEs.
    pub transmission_pes: u64,
    /// Computation PEs of one attention kernel.
    pub attention_kernel_pes: u64,
}

/// Layer sweep of the figure (compilable range only).
pub const LAYERS: [u64; 10] = [1, 3, 6, 9, 12, 18, 24, 36, 48, 60];

/// Reproduce Fig. 6.
#[must_use]
pub fn run() -> Vec<Fig6Row> {
    let wse = Wse::default();
    LAYERS
        .iter()
        .map(|&layers| {
            let c = compile(
                wse.wse_spec(),
                wse.compiler_params(),
                &wse_probe(layers),
                None,
            )
            .expect("figure range compiles");
            Fig6Row {
                layers,
                computation_pes: c.computation_pes(),
                transmission_pes: c.transmission_pes(),
                attention_kernel_pes: c
                    .kernel(KernelKind::Attention { layer: 0 })
                    .expect("attention kernel present")
                    .comp_pes,
            }
        })
        .collect()
}

/// Render the series.
#[must_use]
pub fn render(rows: &[Fig6Row]) -> Table {
    let mut t = Table::new("Fig. 6: computation vs transmission PEs (WSE-2)");
    t.set_headers([
        "Layers",
        "Computation PEs",
        "Transmission PEs",
        "PEs / attention kernel",
    ]);
    for r in rows {
        t.add_row([
            r.layers.to_string(),
            r.computation_pes.to_string(),
            r.transmission_pes.to_string(),
            r.attention_kernel_pes.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trends_match_paper() {
        let rows = run();
        // Computation and transmission follow similar trends with close
        // proportions.
        for r in &rows {
            let ratio = r.transmission_pes as f64 / r.computation_pes as f64;
            assert!((0.4..0.7).contains(&ratio), "L={}: {ratio}", r.layers);
        }
        // Per-attention-kernel PEs stable below 12 layers…
        let below: Vec<u64> = rows
            .iter()
            .filter(|r| r.layers < 12)
            .map(|r| r.attention_kernel_pes)
            .collect();
        assert!(below.windows(2).all(|w| w[0] == w[1]), "{below:?}");
        // …and shrinking beyond.
        let at12 = rows.iter().find(|r| r.layers == 12).unwrap();
        let at48 = rows.iter().find(|r| r.layers == 48).unwrap();
        assert!(at48.attention_kernel_pes < at12.attention_kernel_pes);
    }

    #[test]
    fn render_has_all_rows() {
        assert_eq!(render(&run()).row_count(), LAYERS.len());
    }
}
