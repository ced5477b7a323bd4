//! Table IV: mixed-precision throughput across platforms.

use crate::render::{num_or_fail, Table};
use dabench_core::Platform;
use dabench_ipu::Ipu;
use dabench_model::{ModelConfig, Precision, TrainingWorkload};
use dabench_rdu::{CompilationMode, Rdu};
use dabench_wse::Wse;

/// One cell of Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Device family.
    pub device: String,
    /// Precision configuration label (the paper's column names).
    pub configuration: String,
    /// Throughput, tokens/second (`None` on failure).
    pub throughput: Option<f64>,
}

fn throughput(platform: &dyn Platform, w: &TrainingWorkload) -> Option<f64> {
    platform.profile(w).ok().map(|p| p.throughput_tokens_per_s)
}

/// Reproduce Table IV.
///
/// Per platform the two paper configurations are mapped to our precision
/// model: IPU Full=FP32 / Mixed=FP16, WSE FP16 / CB16, RDU BF16 (vendor
/// default flow) / Mixed (tuned 16-bit flow, `Precision::Fp16`).
#[must_use]
pub fn run() -> Vec<Table4Row> {
    let mut rows = Vec::new();

    let ipu = Ipu::default();
    // Six layers: the FP32 ("Full") configuration still fits in SRAM.
    let ipu_base =
        TrainingWorkload::new(ModelConfig::gpt2_probe(768, 6), 64, 1024, Precision::Fp32);
    rows.push(Table4Row {
        device: "IPU".to_owned(),
        configuration: "Full".to_owned(),
        throughput: throughput(&ipu, &ipu_base),
    });
    rows.push(Table4Row {
        device: "IPU".to_owned(),
        configuration: "Mixed".to_owned(),
        throughput: throughput(&ipu, &ipu_base.with_precision(Precision::Fp16)),
    });

    let wse = Wse::default();
    let wse_base =
        TrainingWorkload::new(ModelConfig::gpt2_probe(768, 12), 256, 1024, Precision::Fp16);
    rows.push(Table4Row {
        device: "WSE".to_owned(),
        configuration: "FP16".to_owned(),
        throughput: throughput(&wse, &wse_base),
    });
    rows.push(Table4Row {
        device: "WSE".to_owned(),
        configuration: "CB16".to_owned(),
        throughput: throughput(&wse, &wse_base.with_precision(Precision::Cb16)),
    });

    let rdu = Rdu::with_mode(CompilationMode::O1);
    let rdu_base = TrainingWorkload::new(ModelConfig::llama2_7b(), 8, 4096, Precision::Bf16);
    rows.push(Table4Row {
        device: "RDU (7B)".to_owned(),
        configuration: "BF16".to_owned(),
        throughput: throughput(&rdu, &rdu_base),
    });
    rows.push(Table4Row {
        device: "RDU (7B)".to_owned(),
        configuration: "Mixed".to_owned(),
        throughput: throughput(&rdu, &rdu_base.with_precision(Precision::Fp16)),
    });

    rows
}

/// Render the table.
#[must_use]
pub fn render(rows: &[Table4Row]) -> Table {
    let mut t = Table::new("Table IV: mixed-precision throughput across platforms (tokens/s)");
    t.set_headers(["Device", "Configuration", "Throughput"]);
    for r in rows {
        t.add_row([
            r.device.clone(),
            r.configuration.clone(),
            num_or_fail(r.throughput, 0),
        ]);
    }
    t
}

/// Relative gain of the second configuration over the first for a device.
#[must_use]
pub fn gain(rows: &[Table4Row], device: &str) -> Option<f64> {
    let vals: Vec<f64> = rows
        .iter()
        .filter(|r| r.device == device)
        .filter_map(|r| r.throughput)
        .collect();
    (vals.len() == 2 && vals[0] > 0.0).then(|| vals[1] / vals[0] - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gains_match_paper_ordering() {
        // Paper: RDU +34.3% > IPU +22.0% > WSE +10.7%.
        let rows = run();
        let rdu = gain(&rows, "RDU (7B)").unwrap();
        let ipu = gain(&rows, "IPU").unwrap();
        let wse = gain(&rows, "WSE").unwrap();
        assert!(rdu > ipu, "rdu {rdu} vs ipu {ipu}");
        assert!(ipu > wse, "ipu {ipu} vs wse {wse}");
        assert!((0.15..0.55).contains(&rdu), "{rdu}");
        assert!((0.10..0.35).contains(&ipu), "{ipu}");
        assert!((0.05..0.18).contains(&wse), "{wse}");
    }

    #[test]
    fn all_cells_populated() {
        let rows = run();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.throughput.is_some()));
    }

    #[test]
    fn render_shows_configurations() {
        let s = render(&run()).to_string();
        assert!(s.contains("CB16"));
        assert!(s.contains("BF16"));
        assert!(s.contains("Mixed"));
    }
}
