//! Fig. 12: throughput vs batch size on each platform.

use crate::render::{num_or_fail, Table};
use dabench_core::tier2;
use dabench_core::{batch_saturation_point, BatchPoint, Platform};
use dabench_ipu::Ipu;
use dabench_model::{ModelConfig, Precision, TrainingWorkload};
use dabench_rdu::{CompilationMode, Rdu};
use dabench_wse::Wse;

/// Batch-size series of one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Series {
    /// Platform name.
    pub platform: String,
    /// Sweep points.
    pub points: Vec<BatchPoint>,
}

impl Fig12Series {
    /// The smallest batch reaching `fraction` of the best throughput.
    #[must_use]
    pub fn saturation_batch(&self, fraction: f64) -> Option<u64> {
        batch_saturation_point(&self.points, fraction)
    }
}

/// WSE batch sweep (the paper's series crosses the ~200 knee).
pub const WSE_BATCHES: [u64; 7] = [25, 50, 100, 200, 300, 400, 800];
/// RDU batch sweep.
pub const RDU_BATCHES: [u64; 6] = [1, 2, 4, 8, 16, 32];
/// IPU batch sweep.
pub const IPU_BATCHES: [u64; 6] = [1, 2, 4, 8, 16, 32];

fn sweep(platform: &dyn Platform, base: &TrainingWorkload, batches: &[u64]) -> Fig12Series {
    Fig12Series {
        platform: platform.name().to_owned(),
        points: tier2::batch_sweep(platform, base, batches),
    }
}

/// Reproduce Fig. 12 on all three platforms.
#[must_use]
pub fn run() -> Vec<Fig12Series> {
    let wse_base =
        TrainingWorkload::new(ModelConfig::gpt2_probe(768, 12), 256, 1024, Precision::Fp16);
    let rdu_base =
        TrainingWorkload::new(ModelConfig::gpt2_probe(768, 12), 8, 1024, Precision::Fp16);
    let ipu_base = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 6), 8, 1024, Precision::Fp16);
    vec![
        sweep(&Wse::default(), &wse_base, &WSE_BATCHES),
        sweep(
            &Rdu::with_mode(CompilationMode::O3),
            &rdu_base,
            &RDU_BATCHES,
        ),
        sweep(&Ipu::default(), &ipu_base, &IPU_BATCHES),
    ]
}

/// Render all series.
#[must_use]
pub fn render(series: &[Fig12Series]) -> Table {
    let mut t = Table::new("Fig. 12: throughput (tokens/s) vs batch size");
    t.set_headers(["Platform", "Batch", "Tokens/s"]);
    for s in series {
        for p in &s.points {
            t.add_row([
                s.platform.clone(),
                p.batch_size.to_string(),
                num_or_fail(p.throughput_tokens_per_s, 0),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(name: &str) -> Fig12Series {
        run()
            .into_iter()
            .find(|s| s.platform.contains(name))
            .unwrap()
    }

    #[test]
    fn wse_saturates_near_200() {
        let wse = series("wse");
        let knee = wse.saturation_batch(0.85).unwrap();
        assert!((100..=300).contains(&knee), "{knee}");
        // Beyond 200 the gains are marginal.
        let at = |b: u64| {
            wse.points
                .iter()
                .find(|p| p.batch_size == b)
                .unwrap()
                .throughput_tokens_per_s
                .unwrap()
        };
        assert!(at(400) / at(200) < 1.15);
        assert!(at(200) / at(50) > 1.3);
    }

    #[test]
    fn rdu_and_ipu_keep_gaining() {
        for name in ["sn30", "ipu"] {
            let s = series(name);
            let first = s.points.first().unwrap().throughput_tokens_per_s.unwrap();
            let last = s.points.last().unwrap().throughput_tokens_per_s.unwrap();
            assert!(last / first > 1.8, "{name}: {first} → {last}");
            // Monotone increasing throughout the plotted range.
            let vals: Vec<f64> = s
                .points
                .iter()
                .filter_map(|p| p.throughput_tokens_per_s)
                .collect();
            assert!(vals.windows(2).all(|w| w[1] >= w[0]), "{name}: {vals:?}");
        }
    }

    #[test]
    fn render_lists_all_platforms() {
        let s = render(&run()).to_string();
        assert!(s.contains("cerebras"));
        assert!(s.contains("sn30"));
        assert!(s.contains("ipu"));
    }
}
