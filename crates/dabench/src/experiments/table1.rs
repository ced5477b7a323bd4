//! Table I: WSE-2 PE allocation ratio across layer configurations.

use super::workloads::{wse_probe, WSE_LAYER_SWEEP};
use crate::render::{pct_or_fail, Table};
use dabench_core::par_map;
use dabench_wse::{compile, Wse};

/// One cell of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Decoder layer count.
    pub layers: u64,
    /// PE allocation ratio, `None` on compile failure (the paper's "Fail").
    pub allocation_pct: Option<f64>,
}

/// Reproduce Table I: compile the HS-768 decoder stack at every layer
/// count of the paper's sweep and report the PE allocation ratio.
#[must_use]
pub fn run() -> Vec<Table1Row> {
    let wse = Wse::default();
    par_map(&WSE_LAYER_SWEEP, |&layers| {
        let allocation = compile(
            wse.wse_spec(),
            wse.compiler_params(),
            &wse_probe(layers),
            None,
        )
        .ok()
        .map(|c| c.allocation_ratio());
        Table1Row {
            layers,
            allocation_pct: allocation,
        }
    })
}

/// Render the rows in the paper's layout (layers across, Pe% below).
#[must_use]
pub fn render(rows: &[Table1Row]) -> Table {
    let mut t = Table::new("Table I: PE allocation ratio across layer configurations (WSE-2)");
    t.set_headers(
        std::iter::once("Layer".to_owned()).chain(rows.iter().map(|r| r.layers.to_string())),
    );
    t.add_row(
        std::iter::once("Pe(%)".to_owned())
            .chain(rows.iter().map(|r| pct_or_fail(r.allocation_pct))),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let rows = run();
        assert_eq!(rows.len(), 14);
        // Rising edge.
        let pct = |i: usize| rows[i].allocation_pct.unwrap();
        assert!(pct(0) < pct(1) && pct(1) < pct(2));
        // Paper bands: 33% at 1 layer, ~60% at 6, plateau 92-93% (±).
        assert!((0.25..0.42).contains(&pct(0)), "{}", pct(0));
        assert!((0.50..0.70).contains(&pct(1)), "{}", pct(1));
        for row in &rows[5..13] {
            let v = row.allocation_pct.unwrap();
            assert!((0.85..0.95).contains(&v), "L={}: {v}", row.layers);
        }
        // 78 layers fails.
        assert!(rows.last().unwrap().allocation_pct.is_none());
    }

    #[test]
    fn render_contains_fail_cell() {
        let s = render(&run()).to_string();
        assert!(s.contains("Fail"));
        assert!(s.contains("78"));
    }
}
