//! Per-IPU memory accounting (the Fig. 9(d) OOM mechanism).

use crate::chip::{IpuCompilerParams, IpuSpec};
use dabench_model::TrainingWorkload;

/// Memory footprint of one IPU's assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpuMemoryUse {
    /// Weights + gradients + optimizer state, bytes.
    pub state_bytes: u64,
    /// Resident activations, bytes.
    pub activation_bytes: u64,
    /// Code and runtime reservation, bytes.
    pub code_bytes: u64,
    /// IPU SRAM capacity, bytes.
    pub capacity_bytes: u64,
}

impl IpuMemoryUse {
    /// Total bytes in use.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.state_bytes + self.activation_bytes + self.code_bytes
    }

    /// Whether the assignment fits in SRAM.
    #[must_use]
    pub fn fits(&self) -> bool {
        self.total_bytes() <= self.capacity_bytes
    }

    /// Used fraction of the IPU's SRAM.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.total_bytes() as f64 / self.capacity_bytes as f64
    }
}

/// Memory footprint of an IPU holding `layers` decoder layers.
///
/// The IPU keeps weights, gradients and FP32 optimizer moments entirely in
/// SRAM (no flexible spill path — the paper's stated limitation), plus the
/// resident share of one in-flight micro-batch's activations per layer.
#[must_use]
pub fn decoder_ipu_memory(
    workload: &TrainingWorkload,
    layers: u64,
    spec: &IpuSpec,
    params: &IpuCompilerParams,
) -> IpuMemoryUse {
    let eb = workload.precision().bytes_per_element();
    let layer_params = workload.model().layer_parameter_count();
    let state = layers * layer_params * (2 * eb + 8);

    // Stored activations of one layer for ONE sequence, at the residency
    // factor (Poplar recomputes the rest for backward).
    let per_layer_act_elems: u64 = dabench_core::compile::training_graph(workload)
        .summary()
        .layer0_forward_out_elems
        / workload.batch_size();
    let acts = (layers as f64
        * per_layer_act_elems as f64
        * eb as f64
        * params.activation_residency_factor) as u64;

    IpuMemoryUse {
        state_bytes: state,
        activation_bytes: acts,
        code_bytes: params.code_reserve_bytes_per_ipu as u64,
        capacity_bytes: spec.sram_per_ipu_bytes(),
    }
}

/// Memory footprint of the dedicated embedding IPU.
#[must_use]
pub fn embedding_ipu_memory(
    workload: &TrainingWorkload,
    spec: &IpuSpec,
    params: &IpuCompilerParams,
) -> IpuMemoryUse {
    let eb = workload.precision().bytes_per_element();
    let emb = workload.model().embedding_parameter_count();
    IpuMemoryUse {
        state_bytes: emb * (2 * eb + 8),
        activation_bytes: (workload.seq_len() * workload.model().hidden_size * eb * 2),
        code_bytes: params.code_reserve_bytes_per_ipu as u64,
        capacity_bytes: spec.sram_per_ipu_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_model::{ModelConfig, Precision};

    fn w(layers: u64) -> TrainingWorkload {
        TrainingWorkload::new(
            ModelConfig::gpt2_probe(768, layers),
            16,
            1024,
            Precision::Fp16,
        )
    }

    fn mem(layers: u64) -> IpuMemoryUse {
        decoder_ipu_memory(
            &w(layers),
            layers,
            &IpuSpec::bow2000(),
            &IpuCompilerParams::default(),
        )
    }

    #[test]
    fn memory_grows_linearly_with_layers() {
        let m2 = mem(2).total_bytes();
        let m4 = mem(4).total_bytes();
        let m6 = mem(6).total_bytes();
        assert_eq!(m6 - m4, m4 - m2);
    }

    #[test]
    fn fails_at_ten_gpt2_small_layers() {
        // The paper's Fig. 9(d): execution fails at 10 layers (~70M params).
        assert!(mem(9).fits(), "9 layers should fit: {:?}", mem(9));
        assert!(!mem(10).fits(), "10 layers should OOM: {:?}", mem(10));
    }

    #[test]
    fn fp32_ooms_earlier() {
        let w32 = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 6), 16, 1024, Precision::Fp32);
        let m = decoder_ipu_memory(&w32, 6, &IpuSpec::bow2000(), &IpuCompilerParams::default());
        assert!(m.total_bytes() > mem(6).total_bytes());
    }

    #[test]
    fn embedding_ipu_fits_comfortably() {
        let m = embedding_ipu_memory(&w(4), &IpuSpec::bow2000(), &IpuCompilerParams::default());
        assert!(m.fits());
        assert!(m.utilization() > 0.3, "{}", m.utilization());
    }

    #[test]
    fn activations_are_batch_independent() {
        // Only the in-flight micro-batch is resident.
        let a = decoder_ipu_memory(
            &w(4).with_batch_size(4),
            4,
            &IpuSpec::bow2000(),
            &IpuCompilerParams::default(),
        );
        let b = decoder_ipu_memory(
            &w(4).with_batch_size(64),
            4,
            &IpuSpec::bow2000(),
            &IpuCompilerParams::default(),
        );
        assert_eq!(a.activation_bytes, b.activation_bytes);
    }
}
