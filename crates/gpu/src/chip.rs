//! GPU hardware description.

/// Static description of one data-center GPU and its cluster links.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Peak 16-bit tensor-core throughput, TFLOP/s.
    pub peak_tflops: f64,
    /// HBM capacity, bytes.
    pub hbm_bytes: u64,
    /// HBM bandwidth, bytes/second.
    pub hbm_bw_bytes_per_s: f64,
    /// Intra-node (NVLink) bandwidth per GPU, bytes/second.
    pub nvlink_bw_bytes_per_s: f64,
    /// Effective inter-node allreduce goodput per GPU, bytes/second.
    pub ib_bw_bytes_per_s: f64,
    /// GPUs per node.
    pub gpus_per_node: u32,
    /// Model-FLOPs utilization on dense transformer kernels.
    pub mfu: f64,
    /// Per-stage-boundary inefficiency of pipeline parallelism (layer
    /// imbalance + exposed p2p transfers), as a fractional step inflation
    /// per extra stage.
    pub pp_stage_inefficiency: f64,
}

impl GpuSpec {
    /// An A100-80GB SXM configuration.
    #[must_use]
    pub fn a100() -> Self {
        Self {
            peak_tflops: 312.0,
            hbm_bytes: 80 << 30,
            hbm_bw_bytes_per_s: 2.0e12,
            nvlink_bw_bytes_per_s: 300e9,
            ib_bw_bytes_per_s: 20e9,
            gpus_per_node: 8,
            mfu: 0.45,
            pp_stage_inefficiency: 0.09,
        }
    }
}

impl Default for GpuSpec {
    fn default() -> Self {
        Self::a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_numbers() {
        let g = GpuSpec::a100();
        assert_eq!(g.peak_tflops, 312.0);
        assert!(g.nvlink_bw_bytes_per_s > g.ib_bw_bytes_per_s);
        assert!(g.mfu < 1.0);
    }
}
