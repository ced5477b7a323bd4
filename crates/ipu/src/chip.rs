//! Bow-2000 hardware description and compiler tuning parameters.

/// Static hardware description of one IPU (a Bow-2000 carries four).
#[derive(Debug, Clone, PartialEq)]
pub struct IpuSpec {
    /// Tiles per IPU.
    pub tiles: u64,
    /// On-tile SRAM, bytes (Bow: ~624 KB/tile ≈ 900 MB per IPU).
    pub sram_per_tile_bytes: u64,
    /// Hardware threads per tile core.
    pub threads_per_tile: u64,
    /// Peak 16-bit FLOP/s per tile.
    pub peak_flops_per_tile: f64,
    /// All-to-all IPU-Exchange bandwidth, bytes/second.
    pub exchange_bw_bytes_per_s: f64,
    /// IPU-Link bandwidth between IPUs in a Bow-2000, bytes/second.
    pub link_bw_bytes_per_s: f64,
    /// Link bandwidth between chassis (gateway hops), bytes/second.
    pub inter_chassis_bw_bytes_per_s: f64,
    /// Shared external DDR of the Bow-2000, bytes.
    pub external_ddr_bytes: u64,
    /// Effective aggregate streaming bandwidth to the external DDR over
    /// the gateway links, bytes/second.
    pub external_ddr_bw_bytes_per_s: f64,
    /// IPUs per Bow-2000 chassis.
    pub ipus_per_chassis: u64,
}

impl IpuSpec {
    /// The Bow-2000 configuration.
    #[must_use]
    pub fn bow2000() -> Self {
        Self {
            tiles: 1472,
            sram_per_tile_bytes: 624 * 1024,
            threads_per_tile: 6,
            // 1472 tiles × ~238 GFLOP/s ≈ 350 TFLOP/s peak — consistent
            // with the paper's 41% peak efficiency at 143 TFLOPs.
            peak_flops_per_tile: 2.38e11,
            exchange_bw_bytes_per_s: 8e12,
            link_bw_bytes_per_s: 320e9,
            inter_chassis_bw_bytes_per_s: 100e9,
            external_ddr_bytes: 256 << 30,
            external_ddr_bw_bytes_per_s: 180e9,
            ipus_per_chassis: 4,
        }
    }

    /// Total on-tile SRAM per IPU, bytes.
    #[must_use]
    pub fn sram_per_ipu_bytes(&self) -> u64 {
        self.tiles * self.sram_per_tile_bytes
    }

    /// Peak IPU throughput at 16-bit precision, TFLOP/s.
    #[must_use]
    pub fn peak_tflops(&self) -> f64 {
        self.tiles as f64 * self.peak_flops_per_tile / 1e12
    }
}

impl Default for IpuSpec {
    fn default() -> Self {
        Self::bow2000()
    }
}

/// Tuning constants of the (modelled) Poplar compiler and PopTorch runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct IpuCompilerParams {
    /// FLOPs-per-token one tile should own before extra tiles stop paying
    /// off; sets the per-layer tile demand (the Fig. 9(d) plateau at ~4
    /// GPT-2-small layers comes from `4 × demand ≈ 1472`).
    pub flops_per_token_per_tile: f64,
    /// Sustained fraction of tile peak during compute supersteps.
    pub sustained_tile_efficiency: f64,
    /// Exchange bytes per FLOP of layer work (BSP exchange phases).
    pub exchange_bytes_per_flop: f64,
    /// Fixed BSP sync cost per superstep, seconds.
    pub bsp_sync_s: f64,
    /// Supersteps per decoder layer per pass.
    pub supersteps_per_layer: f64,
    /// Fixed per-step host I/O + weight-update overhead, seconds (drives
    /// the near-linear batch scaling of Fig. 12).
    pub step_fixed_overhead_s: f64,
    /// Per-tile code + runtime reservation, bytes.
    pub code_reserve_bytes_per_ipu: f64,
    /// Fraction of a micro-batch's stored activations resident per layer
    /// (Poplar recomputes the rest).
    pub activation_residency_factor: f64,
    /// Relative compute rate of FP32 versus 16-bit formats (exchange and
    /// sync do not speed up, so the paper's mixed-precision gain is ~22%).
    pub fp32_rate_factor: f64,
    /// Minimum tiles any layer receives.
    pub min_tiles_per_layer: u64,
}

impl Default for IpuCompilerParams {
    fn default() -> Self {
        Self {
            flops_per_token_per_tile: 141_000.0,
            sustained_tile_efficiency: 0.45,
            exchange_bytes_per_flop: 0.001,
            bsp_sync_s: 1.0e-6,
            supersteps_per_layer: 6.0,
            step_fixed_overhead_s: 10.0e-3,
            code_reserve_bytes_per_ipu: 30.0e6,
            activation_residency_factor: 0.2,
            fp32_rate_factor: 0.82,
            min_tiles_per_layer: 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bow2000_matches_spec() {
        let s = IpuSpec::bow2000();
        assert_eq!(s.tiles, 1472);
        // ~900 MB of on-tile SRAM.
        let sram = s.sram_per_ipu_bytes() as f64;
        assert!((sram - 900e6).abs() / 900e6 < 0.1, "{sram}");
        assert!((300.0..400.0).contains(&s.peak_tflops()));
    }

    #[test]
    fn defaults_are_sane() {
        let p = IpuCompilerParams::default();
        assert!(p.sustained_tile_efficiency < 1.0);
        assert!(p.fp32_rate_factor < 1.0);
        // Four GPT-2-small layers should roughly fill the chip:
        // layer flops/token ≈ 52M → demand ≈ 368 tiles.
        let demand = 52.0e6 / p.flops_per_token_per_tile;
        assert!((320.0..420.0).contains(&demand), "{demand}");
    }
}
