//! Table III: scalability performance across all evaluated platforms.

use super::workloads::{gpt2_xl, llama7b};
use crate::render::{num_or_fail, Table};
use dabench_core::{par_map, ParallelStrategy, Scalable};
use dabench_gpu::{megatron_throughput, GpuSpec, MegatronConfig};
use dabench_ipu::Ipu;
use dabench_model::{ModelConfig, Precision, TrainingWorkload};
use dabench_rdu::{CompilationMode, Rdu};
use dabench_wse::Wse;

/// One column of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Device family (`"WSE-2"`, `"IPU"`, `"RDU"`, `"GPU"`).
    pub device: String,
    /// Configuration label, e.g. `"DP4"`, `"16PP"`, `"TP8"`, `"T8P1D1"`.
    pub configuration: String,
    /// Model label.
    pub model: String,
    /// Throughput in tokens/second (per GPU for the reference rows);
    /// `None` when the configuration fails.
    pub throughput: Option<f64>,
}

fn wse_rows() -> Vec<Table3Row> {
    let wse = Wse::default();
    let mk = |model: &ModelConfig| TrainingWorkload::new(model.clone(), 256, 1024, Precision::Fp16);
    let specs = [
        ("DP0", ModelConfig::gpt2_small(), 1u32),
        ("DP2", ModelConfig::gpt2_small(), 2),
        ("DP4", ModelConfig::gpt2_mini(), 4),
        ("DP8", ModelConfig::gpt2_tiny(), 8),
    ];
    let mut rows = par_map(&specs, |(cfg, model, replicas)| {
        let t = wse
            .scale(
                &mk(model),
                ParallelStrategy::DataParallel {
                    replicas: *replicas,
                },
            )
            .ok()
            .map(|p| p.throughput_tokens_per_s);
        Table3Row {
            device: "WSE-2".to_owned(),
            configuration: (*cfg).to_owned(),
            model: model.name.clone(),
            throughput: t,
        }
    });
    let t = wse
        .scale(
            &mk(&ModelConfig::gpt2_small()),
            ParallelStrategy::WeightStreaming,
        )
        .ok()
        .map(|p| p.throughput_tokens_per_s);
    rows.push(Table3Row {
        device: "WSE-2".to_owned(),
        configuration: "PP (weight streaming)".to_owned(),
        model: "gpt2-small".to_owned(),
        throughput: t,
    });
    rows
}

fn ipu_rows() -> Vec<Table3Row> {
    let ipu = Ipu::default();
    let specs = [
        (4u32, 6u64),
        (4, 12),
        (8, 18),
        (8, 24),
        (16, 30),
        (16, 36),
        (16, 42),
        (16, 48),
    ];
    par_map(&specs, |&(devices, layers)| {
        let w = TrainingWorkload::new(
            ModelConfig::gpt2_probe(768, layers),
            64,
            1024,
            Precision::Fp16,
        );
        let t = ipu
            .scale(&w, ParallelStrategy::PipelineParallel { devices })
            .ok()
            .map(|p| p.throughput_tokens_per_s);
        Table3Row {
            device: "IPU".to_owned(),
            configuration: format!("{devices}PP"),
            model: format!("{layers}L"),
            throughput: t,
        }
    })
}

fn rdu_rows() -> Vec<Table3Row> {
    let rdu = Rdu::with_mode(CompilationMode::O1);
    let w = llama7b();
    par_map(&[2u32, 4, 8], |&degree| {
        let t = rdu
            .scale(&w, ParallelStrategy::TensorParallel { degree })
            .ok()
            .map(|p| p.throughput_tokens_per_s);
        Table3Row {
            device: "RDU".to_owned(),
            configuration: format!("TP{degree}"),
            model: "7B".to_owned(),
            throughput: t,
        }
    })
}

fn gpu_rows() -> Vec<Table3Row> {
    let spec = GpuSpec::a100();
    let specs = [
        (MegatronConfig::new(8, 1, 1), 64u64),
        (MegatronConfig::new(4, 2, 1), 64),
        (MegatronConfig::new(2, 4, 1), 64),
        (MegatronConfig::new(1, 8, 1), 64),
        (MegatronConfig::new(8, 8, 16), 8192),
        (MegatronConfig::new(4, 4, 64), 8192),
    ];
    par_map(&specs, |&(config, batch)| {
        let t = megatron_throughput(&spec, &gpt2_xl(batch), config)
            .ok()
            .map(|r| r.tokens_per_s_per_gpu);
        Table3Row {
            device: "GPU (Reference)".to_owned(),
            configuration: config.label(),
            model: "xlarge".to_owned(),
            throughput: t,
        }
    })
}

/// Reproduce every column of Table III (device groups in parallel, rows
/// in canonical order).
#[must_use]
pub fn run() -> Vec<Table3Row> {
    let groups: [fn() -> Vec<Table3Row>; 4] = [wse_rows, ipu_rows, rdu_rows, gpu_rows];
    par_map(&groups, |group| group()).concat()
}

/// Render the table.
#[must_use]
pub fn render(rows: &[Table3Row]) -> Table {
    let mut t =
        Table::new("Table III: scalability performance (tokens/s; per GPU for reference rows)");
    t.set_headers(["Device", "Configuration", "Model", "Throughput"]);
    for r in rows {
        t.add_row([
            r.device.clone(),
            r.configuration.clone(),
            r.model.clone(),
            num_or_fail(r.throughput, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(rows: &[Table3Row], cfg: &str, model: &str) -> f64 {
        rows.iter()
            .find(|r| r.configuration == cfg && r.model == model)
            .and_then(|r| r.throughput)
            .unwrap_or_else(|| panic!("row {cfg}/{model}"))
    }

    #[test]
    fn wse_columns_have_paper_shape() {
        let rows = run();
        // Replicated small models beat the single-copy baseline (the
        // DP8-vs-DP4 cross-model ordering deviates from the paper; see
        // EXPERIMENTS.md).
        assert!(get(&rows, "DP8", "gpt2-tiny") > get(&rows, "DP0", "gpt2-small"));
        assert!(get(&rows, "DP4", "gpt2-mini") > get(&rows, "DP0", "gpt2-small"));
        // Weight streaming costs ~20% against the pipelined run.
        let drop = 1.0
            - get(&rows, "PP (weight streaming)", "gpt2-small") / get(&rows, "DP0", "gpt2-small");
        assert!((0.05..0.35).contains(&drop), "{drop}");
    }

    #[test]
    fn ipu_columns_inverse_in_layers() {
        let rows = run();
        assert!(get(&rows, "4PP", "6L") > get(&rows, "4PP", "12L"));
        assert!(get(&rows, "8PP", "18L") > get(&rows, "8PP", "24L"));
        assert!(get(&rows, "16PP", "30L") > get(&rows, "16PP", "48L"));
    }

    #[test]
    fn rdu_columns_show_cross_machine_cliff() {
        let rows = run();
        let tp2 = get(&rows, "TP2", "7B");
        let tp4 = get(&rows, "TP4", "7B");
        let tp8 = get(&rows, "TP8", "7B");
        assert!((0.2..0.6).contains(&(1.0 - tp4 / tp2)), "{tp2} {tp4}");
        assert!((tp8 / tp4 - 1.0).abs() < 0.15, "{tp4} {tp8}");
    }

    #[test]
    fn gpu_reference_ladder() {
        let rows = run();
        assert!(get(&rows, "T8P1D1", "xlarge") > get(&rows, "T1P8D1", "xlarge"));
        assert!(get(&rows, "T4P2D1", "xlarge") > get(&rows, "T2P4D1", "xlarge"));
    }

    #[test]
    fn render_covers_all_22_columns() {
        let rows = run();
        assert_eq!(rows.len(), 5 + 8 + 3 + 6);
        let s = render(&rows).to_string();
        assert!(s.contains("T8P8D16"));
        assert!(s.contains("weight streaming"));
    }
}
