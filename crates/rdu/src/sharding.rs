//! LM-head matrix sharding in O1 mode (Table II(b) of the paper).
//!
//! Above a working-set threshold the O1 compiler splits the vocabulary
//! projection into shards and groups the shards into sections. The paper
//! observes that the per-section PCU/PMU allocation then correlates with
//! the shard/section count rather than the hidden size — the behaviour
//! modelled here.

use crate::chip::RduCompilerParams;

/// Sharding decision for the LM head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of matrix shards.
    pub shards: u64,
    /// Number of sections the shards are grouped into.
    pub sections: u64,
    /// PCUs allocated per shard section.
    pub pcus_per_section: u64,
    /// PMUs allocated per shard section.
    pub pmus_per_section: u64,
}

/// Plan the LM-head sharding for a matrix of `hidden_size × vocab` at the
/// given element width.
///
/// # Example
///
/// ```
/// use dabench_rdu::{shard_lm_head, RduCompilerParams};
/// let p = RduCompilerParams::default();
/// // LLaMA-2-style head at h=3072 shards coarsely…
/// let small = shard_lm_head(3072, 32_000, 2, &p);
/// // …while h=8192 trips the fine-shard threshold.
/// let big = shard_lm_head(8192, 32_000, 2, &p);
/// assert!(big.shards > small.shards);
/// assert!(big.sections >= small.sections);
/// ```
#[must_use]
pub fn shard_lm_head(
    hidden_size: u64,
    vocab: u64,
    bytes_per_element: u64,
    params: &RduCompilerParams,
) -> ShardPlan {
    let matrix_bytes = (hidden_size * vocab * bytes_per_element) as f64;
    let shard_cap = if hidden_size > params.shard_fine_threshold {
        params.shard_fine_bytes
    } else {
        params.shard_coarse_bytes
    };
    let shards = (matrix_bytes / shard_cap).ceil().max(1.0) as u64;
    let sections = (shards as f64 / 14.0).ceil().max(2.0) as u64;

    // Per-section unit allocation correlates with the shard count, not the
    // matrix size (the paper's Table II(b) observation): finer shards
    // spread compute over more, smaller GEMMs → fewer PCUs per section.
    let pcu_frac = (0.82 - 0.007 * shards as f64).clamp(0.45, 0.82);
    let pmu_frac = (0.47 + 0.0013 * shards as f64).clamp(0.40, 0.56);
    ShardPlan {
        shards,
        sections,
        pcus_per_section: (640.0 * pcu_frac).round() as u64,
        pmus_per_section: (640.0 * pmu_frac).round() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(h: u64) -> ShardPlan {
        shard_lm_head(h, 32_000, 2, &RduCompilerParams::default())
    }

    #[test]
    fn shard_counts_follow_table2b_shape() {
        // Paper: h=3072→9 shards, 4096→9, 5120→26, 6686→30, 8192→30
        // (2/2/2/3/3 sections). Our rule reproduces the jump at the fine
        // threshold and the section growth.
        assert_eq!(plan(3072).shards, 9);
        assert!(
            (9..=12).contains(&plan(4096).shards),
            "{}",
            plan(4096).shards
        );
        assert!(
            (26..=29).contains(&plan(5120).shards),
            "{}",
            plan(5120).shards
        );
        assert!(
            (30..=38).contains(&plan(6686).shards),
            "{}",
            plan(6686).shards
        );
        assert!(plan(8192).shards >= plan(6686).shards);
    }

    #[test]
    fn sections_grow_with_shards() {
        assert_eq!(plan(3072).sections, 2);
        assert!(plan(8192).sections >= 3);
    }

    #[test]
    fn pcus_stay_below_hardware_limit() {
        for h in [3072, 4096, 5120, 6686, 8192] {
            let p = plan(h);
            assert!(p.pcus_per_section < 640, "h={h}");
            assert!(p.pmus_per_section < 640, "h={h}");
        }
    }

    #[test]
    fn finer_shards_get_fewer_pcus_each() {
        assert!(plan(8192).pcus_per_section < plan(3072).pcus_per_section);
    }

    #[test]
    fn tiny_matrix_is_single_shard_min_two_sections() {
        let p = shard_lm_head(64, 1000, 2, &RduCompilerParams::default());
        assert_eq!(p.shards, 1);
        assert_eq!(p.sections, 2);
    }
}
