//! SN30 hardware description and compiler tuning parameters.

/// Static hardware description of one RDU (the SN30 node holds two).
#[derive(Debug, Clone, PartialEq)]
pub struct RduSpec {
    /// Tiles per RDU.
    pub tiles: u64,
    /// Pattern Compute Units per tile.
    pub pcus_per_tile: u64,
    /// Pattern Memory Units per tile.
    pub pmus_per_tile: u64,
    /// Peak 16-bit FLOP/s per PCU.
    pub peak_flops_per_pcu: f64,
    /// On-chip scratchpad bytes per PMU.
    pub bytes_per_pmu: u64,
    /// Off-chip DDR capacity per RDU, bytes.
    pub ddr_capacity_bytes: u64,
    /// Off-chip DDR bandwidth per RDU, bytes/second (the paper's 0.2 TB/s).
    pub ddr_bw_bytes_per_s: f64,
    /// RDU-to-RDU link bandwidth inside one node, bytes/second.
    pub intra_node_bw_bytes_per_s: f64,
    /// Effective node-to-node allreduce goodput, bytes/second (blocking
    /// per-layer allreduces over the cluster interconnect are latency-
    /// dominated, far below line rate).
    pub inter_node_bw_bytes_per_s: f64,
    /// RDUs per SN30 node.
    pub rdus_per_node: u64,
}

impl RduSpec {
    /// The DataScale SN30 configuration.
    #[must_use]
    pub fn sn30() -> Self {
        Self {
            tiles: 4,
            pcus_per_tile: 160,
            pmus_per_tile: 160,
            // 640 PCUs × 434 GFLOP/s ≈ 278 TFLOP/s peak — consistent with
            // the paper's 18.2% peak efficiency at 50.6 TFLOPs.
            peak_flops_per_pcu: 4.34e11,
            bytes_per_pmu: 1 << 20, // 1 MiB scratchpad → 640 MB on chip
            ddr_capacity_bytes: 512 << 30,
            ddr_bw_bytes_per_s: 0.2e12,
            intra_node_bw_bytes_per_s: 400e9,
            inter_node_bw_bytes_per_s: 2.2e9,
            rdus_per_node: 2,
        }
    }

    /// PCUs per RDU.
    #[must_use]
    pub fn pcu_count(&self) -> u64 {
        self.tiles * self.pcus_per_tile
    }

    /// PMUs per RDU.
    #[must_use]
    pub fn pmu_count(&self) -> u64 {
        self.tiles * self.pmus_per_tile
    }

    /// Total on-chip PMU scratchpad, bytes.
    #[must_use]
    pub fn on_chip_bytes(&self) -> u64 {
        self.pmu_count() * self.bytes_per_pmu
    }

    /// Peak RDU throughput at 16-bit precision, TFLOP/s.
    #[must_use]
    pub fn peak_tflops(&self) -> f64 {
        self.pcu_count() as f64 * self.peak_flops_per_pcu / 1e12
    }
}

impl Default for RduSpec {
    fn default() -> Self {
        Self::sn30()
    }
}

/// Tuning constants of the (modelled) SambaFlow compiler.
#[derive(Debug, Clone, PartialEq)]
pub struct RduCompilerParams {
    /// Conservative per-op PCU template: `pcus = sqrt(flops/invocation) /
    /// sqrt_flops_per_pcu`, clamped to the section budget.
    pub sqrt_flops_per_pcu: f64,
    /// Minimum PCUs any operator receives.
    pub min_pcus_per_op: u64,
    /// Ceiling on a single section's PCU claim — SambaFlow never maps a
    /// section onto the whole fabric (the paper's "significantly below the
    /// 640 hardware limit" observation).
    pub max_pcus_per_section: u64,
    /// PCU-group granularity of intra-section operator placement; O1's
    /// hand-fused modules place at this grain.
    pub pcu_quantum: u64,
    /// Coarser placement grain of O3's automatic whole-graph partitioner
    /// (the reason O1 balances markedly better in Fig. 8).
    pub o3_pcu_quantum: u64,
    /// Sustained fraction of PCU peak inside a mapped section.
    pub pcu_sustained_efficiency: f64,
    /// PMUs granted per byte of section working set (weights + boundary
    /// tiles), expressed as bytes-per-PMU before another PMU is added.
    pub working_bytes_per_pmu: f64,
    /// Minimum PMUs per section.
    pub min_pmus_per_section: u64,
    /// Fixed cost of loading a section onto the fabric, seconds.
    pub section_load_overhead_s: f64,
    /// Per-invocation trigger cost of an already-loaded section, seconds.
    pub invocation_overhead_s: f64,
    /// Pipeline depth per PCU: deeper (bigger) sections pay a longer
    /// one-off fill per load (drives O0/O1's falling allocation share
    /// with layer count, Fig. 7(a)).
    pub pipeline_depth_per_pcu: f64,
    /// Micro-tiles one invocation is streamed as; the fill costs
    /// `depth / microtiles` of one invocation's service time.
    pub microtiles_per_invocation: f64,
    /// O3: on-chip working-set capacity per forward section, bytes; the
    /// decoder-per-section ratio of Table II(a) derives from it.
    pub o3_section_capacity_bytes: f64,
    /// LM-head shard capacity for hidden sizes ≤ `shard_fine_threshold`,
    /// bytes (Table II(b)).
    pub shard_coarse_bytes: f64,
    /// LM-head shard capacity above the threshold, bytes.
    pub shard_fine_bytes: f64,
    /// Hidden size beyond which the sharder switches to fine shards.
    pub shard_fine_threshold: u64,
}

impl Default for RduCompilerParams {
    fn default() -> Self {
        Self {
            sqrt_flops_per_pcu: 3.0e3,
            min_pcus_per_op: 4,
            max_pcus_per_section: 520,
            pcu_quantum: 8,
            o3_pcu_quantum: 32,
            pcu_sustained_efficiency: 0.5,
            working_bytes_per_pmu: 1.5e6,
            min_pmus_per_section: 8,
            section_load_overhead_s: 1.0e-3,
            invocation_overhead_s: 1.0e-4,
            pipeline_depth_per_pcu: 0.05,
            microtiles_per_invocation: 32.0,
            o3_section_capacity_bytes: 33.0e6,
            shard_coarse_bytes: 24.0e6,
            shard_fine_bytes: 12.0e6,
            shard_fine_threshold: 4800,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sn30_matches_white_paper() {
        let s = RduSpec::sn30();
        assert_eq!(s.pcu_count(), 640);
        assert_eq!(s.pmu_count(), 640);
        // Peak consistent with the paper's efficiency figures.
        assert!((250.0..300.0).contains(&s.peak_tflops()));
        // The paper's 0.2 TB/s DDR bandwidth.
        assert!((s.ddr_bw_bytes_per_s - 0.2e12).abs() < 1e9);
    }

    #[test]
    fn cross_machine_links_are_slower() {
        let s = RduSpec::sn30();
        assert!(s.inter_node_bw_bytes_per_s < s.intra_node_bw_bytes_per_s / 4.0);
    }

    #[test]
    fn ddr_is_the_slow_tier() {
        let s = RduSpec::sn30();
        assert!(s.ddr_bw_bytes_per_s < s.intra_node_bw_bytes_per_s);
    }
}
