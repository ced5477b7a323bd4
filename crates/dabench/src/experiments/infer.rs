//! Autoregressive inference across the four platforms: TTFT, decode
//! throughput, and KV-cache residency.
//!
//! Training benchmarks (Tier 1/2) time one optimizer step; this experiment
//! times *serving*: a compute-bound prefill over the prompt followed by
//! `decode_len` memory-bound single-token steps streaming the KV cache.
//! The sweep crosses batch size × prompt length × KV-cache precision on
//! the default serving model (LLaMA-2-7B, FP16 compute) and reports every
//! platform side by side — including the points where a platform's KV
//! level overflows, which are results, not errors: WSE SRAM and GPU HBM
//! hit capacity walls that the RDU's 512 GB of DDR never sees, and FP8 KV
//! storage moves those walls.

use crate::render::Table;
use dabench_core::{par_map, profile_inference, with_point_label, InferModel, InferenceReport};
use dabench_gpu::GpuSpec;
use dabench_ipu::{IpuCompilerParams, IpuSpec};
use dabench_model::{BatchingMode, InferenceWorkload, ModelConfig, Precision};
use dabench_rdu::{RduCompilerParams, RduSpec};
use dabench_wse::{WseCompilerParams, WseSpec};

/// Platform column order, fixed across every table.
pub const PLATFORMS: [&str; 4] = ["wse", "rdu", "ipu", "gpu"];

/// Batch sizes of the default sweep. 64 is the capacity edge: at prompt
/// 2048 it overflows WSE SRAM at either KV precision and GPU HBM at FP16
/// (86.5 GB vs 85.9), while FP8 KV brings the GPU point back under.
const BATCHES: [u64; 3] = [1, 8, 64];
/// Prompt lengths of the default sweep.
const PROMPTS: [u64; 2] = [512, 2048];
/// KV-cache storage precisions of the default sweep (compute stays FP16).
const KV_PRECISIONS: [Precision; 2] = [Precision::Fp16, Precision::Fp8];
/// Tokens generated per request in every configuration.
const DECODE_LEN: u64 = 128;

/// One (platform, workload) point of the sweep. `report` is `None` when
/// the platform's KV level cannot hold weights + cache — rendered as an
/// OOM cell, never dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct InferRow {
    /// Platform name.
    pub platform: String,
    /// Batch size.
    pub batch: u64,
    /// Prompt length, tokens.
    pub prompt_len: u64,
    /// KV-cache storage precision.
    pub kv_precision: Precision,
    /// Batching mode.
    pub batching: BatchingMode,
    /// Serving profile, or `None` on KV-level OOM.
    pub report: Option<InferenceReport>,
    /// Display text of the failure when `report` is `None`.
    pub error: Option<String>,
}

/// The serving model of `platform` for `workload` (the IPU picks its
/// memory level per workload — the tile-SRAM/DDR cliff).
#[must_use]
pub fn platform_model(platform: &str, workload: &InferenceWorkload) -> InferModel {
    match platform {
        "wse" => dabench_wse::infer_model(&WseSpec::cs2(), &WseCompilerParams::default()),
        "rdu" => dabench_rdu::infer_model(&RduSpec::sn30(), &RduCompilerParams::default()),
        "ipu" => {
            dabench_ipu::infer_model(&IpuSpec::bow2000(), &IpuCompilerParams::default(), workload)
        }
        "gpu" => dabench_gpu::infer_model(&GpuSpec::a100()),
        other => panic!("unknown inference platform `{other}`"),
    }
}

fn row(platform: &str, workload: &InferenceWorkload) -> InferRow {
    let model = platform_model(platform, workload);
    let (report, error) = match profile_inference(&model, workload) {
        Ok(r) => (Some(r), None),
        Err(e) => (None, Some(e.to_string())),
    };
    InferRow {
        platform: platform.to_owned(),
        batch: workload.batch_size(),
        prompt_len: workload.prompt_len(),
        kv_precision: workload.kv_precision(),
        batching: workload.batching(),
        report,
        error,
    }
}

fn sweep_workload(batch: u64, prompt: u64, kv: Precision) -> InferenceWorkload {
    InferenceWorkload::new(
        ModelConfig::llama2_7b(),
        batch,
        prompt,
        DECODE_LEN,
        Precision::Fp16,
    )
    .expect("sweep dimensions are valid")
    .with_kv_precision(kv)
}

/// Run the default sweep: every platform × batch × prompt × KV precision,
/// static batching. Rows are grouped by platform in [`PLATFORMS`] order,
/// then batch-major — and are identical at any `--jobs`.
#[must_use]
pub fn run() -> Vec<InferRow> {
    let mut points = Vec::new();
    for platform in PLATFORMS {
        for batch in BATCHES {
            for prompt in PROMPTS {
                for kv in KV_PRECISIONS {
                    points.push((platform, batch, prompt, kv));
                }
            }
        }
    }
    par_map(&points, |&(platform, batch, prompt, kv)| {
        let label = format!("infer {platform} b{batch} p{prompt} kv={}", kv.as_str());
        with_point_label(&label, || row(platform, &sweep_workload(batch, prompt, kv)))
    })
}

/// Run the batching-mode comparison at the largest sweep point that fits
/// every platform (B=32, prompt 2048, FP8 KV): static vs continuous per
/// platform.
#[must_use]
pub fn run_batching() -> Vec<InferRow> {
    let mut points = Vec::new();
    for platform in PLATFORMS {
        for mode in [BatchingMode::Static, BatchingMode::Continuous] {
            points.push((platform, mode));
        }
    }
    par_map(&points, |&(platform, mode)| {
        let label = format!("infer-batching {platform} {}", mode.as_str());
        let w = sweep_workload(32, 2048, Precision::Fp8).with_batching(mode);
        with_point_label(&label, || row(platform, &w))
    })
}

/// Profile one explicit workload on all four platforms (the flag-driven
/// `dabench infer --model ...` path).
#[must_use]
pub fn run_single(workload: &InferenceWorkload) -> Vec<InferRow> {
    par_map(&PLATFORMS, |&platform| {
        let label = format!("infer {platform}");
        with_point_label(&label, || row(platform, workload))
    })
}

fn push_row(t: &mut Table, r: &InferRow, lead: Vec<String>) {
    let mut cells = lead;
    match (&r.report, &r.error) {
        (Some(rep), _) => {
            cells.extend([
                format!("{:.1}", rep.ttft_s * 1e3),
                format!("{:.3e}", rep.decode_tokens_per_s),
                format!("{:.3e}", rep.e2e_tokens_per_s),
                format!("{:.2}", rep.kv_cache_bytes as f64 / 1e9),
                format!(
                    "{} {:.0}%",
                    rep.memory.name,
                    100.0 * rep.memory.utilization()
                ),
                rep.decode_bound.to_string(),
            ]);
        }
        (None, Some(e)) => {
            let short = if e.contains("out of memory") {
                "OOM"
            } else {
                "Fail"
            };
            cells.extend([
                short.to_owned(),
                String::new(),
                String::new(),
                String::new(),
                // Which level refused the workload is the interesting part
                // of an OOM row; the full error names it.
                e.split('`').nth(1).unwrap_or("").to_owned(),
                String::new(),
            ]);
        }
        (None, None) => unreachable!("row without report or error"),
    }
    t.add_row(cells);
}

/// Render the main sweep table.
#[must_use]
pub fn render(rows: &[InferRow]) -> Table {
    let mut t = Table::new(
        "Inference serving (LLaMA-2-7B, FP16 compute, 128 decode tokens, static batching)",
    );
    t.set_headers([
        "Platform",
        "B",
        "Prompt",
        "KV",
        "TTFT (ms)",
        "Decode tok/s",
        "E2E tok/s",
        "KV (GB)",
        "Memory",
        "Decode bound",
    ]);
    for r in rows {
        push_row(
            &mut t,
            r,
            vec![
                r.platform.clone(),
                r.batch.to_string(),
                r.prompt_len.to_string(),
                r.kv_precision.as_str().to_owned(),
            ],
        );
    }
    t
}

/// Render a single-workload profile (the flag-driven CLI path; the
/// workload line prints above the table, so rows carry only platform
/// serving columns).
#[must_use]
pub fn render_single(rows: &[InferRow]) -> Table {
    let mut t = Table::new("Inference serving");
    t.set_headers([
        "Platform",
        "TTFT (ms)",
        "Decode tok/s",
        "E2E tok/s",
        "KV (GB)",
        "Memory",
        "Decode bound",
    ]);
    for r in rows {
        push_row(&mut t, r, vec![r.platform.clone()]);
    }
    t
}

/// Render the static-vs-continuous comparison table.
#[must_use]
pub fn render_batching(rows: &[InferRow]) -> Table {
    let mut t = Table::new(
        "Batching mode at B=32, prompt 2048, FP8 KV: TTFT is the continuous win, decode is unchanged",
    );
    t.set_headers([
        "Platform",
        "Batching",
        "TTFT (ms)",
        "Decode tok/s",
        "E2E tok/s",
        "KV (GB)",
        "Memory",
        "Decode bound",
    ]);
    for r in rows {
        push_row(
            &mut t,
            r,
            vec![r.platform.clone(), r.batching.as_str().to_owned()],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_full_grid_in_order() {
        let rows = run();
        assert_eq!(
            rows.len(),
            PLATFORMS.len() * BATCHES.len() * PROMPTS.len() * KV_PRECISIONS.len()
        );
        // Grouped by platform, in canonical order.
        let per_platform = rows.len() / PLATFORMS.len();
        for (i, platform) in PLATFORMS.iter().enumerate() {
            assert!(rows[i * per_platform..(i + 1) * per_platform]
                .iter()
                .all(|r| r.platform == *platform));
        }
    }

    #[test]
    fn capacity_walls_land_where_the_memory_models_say() {
        let rows = run();
        let find = |p: &str, b: u64, prompt: u64, kv: Precision| {
            rows.iter()
                .find(|r| {
                    r.platform == p
                        && r.batch == b
                        && r.prompt_len == prompt
                        && r.kv_precision == kv
                })
                .unwrap()
        };
        // RDU DDR absorbs the whole sweep.
        assert!(rows
            .iter()
            .filter(|r| r.platform == "rdu")
            .all(|r| r.report.is_some()));
        // WSE SRAM and GPU HBM overflow at B=64 × 2048 with FP16 KV...
        assert!(find("wse", 64, 2048, Precision::Fp16).report.is_none());
        assert!(find("gpu", 64, 2048, Precision::Fp16).report.is_none());
        // ...FP8 KV recovers the GPU point (50 GB in 80 GiB of HBM) but
        // not the WSE one (still past the 41.8 GB of wafer SRAM).
        assert!(find("gpu", 64, 2048, Precision::Fp8).report.is_some());
        assert!(find("wse", 64, 2048, Precision::Fp8).report.is_none());
    }

    #[test]
    fn batching_comparison_fits_everywhere_and_cuts_ttft() {
        let rows = run_batching();
        assert_eq!(rows.len(), 2 * PLATFORMS.len());
        for pair in rows.chunks(2) {
            let (stat, cont) = (&pair[0], &pair[1]);
            assert_eq!(stat.platform, cont.platform);
            let s = stat.report.as_ref().unwrap();
            let c = cont.report.as_ref().unwrap();
            assert!(c.ttft_s < s.ttft_s, "{}", stat.platform);
        }
    }

    #[test]
    fn tables_render_every_row() {
        let rows = run();
        let t = render(&rows);
        let text = t.to_string();
        assert!(text.contains("OOM"), "sweep should include capacity walls");
        assert!(text.contains("memory-bound"));
        let csv = t.to_csv();
        assert_eq!(
            csv.lines().count(),
            rows.len() + 1,
            "header + one line per row"
        );
    }
}
