//! Training workload: a model plus runtime configuration.

use crate::activation::ActivationMemory;
use crate::config::ModelConfig;
use crate::intensity::arithmetic_intensity;
use crate::ops::{self, Op};
use crate::precision::Precision;
use std::fmt;

/// A fully specified LLM training workload: model architecture, global batch
/// size, sequence length and element precision.
///
/// This is the unit handed to every platform model. All derived quantities
/// (FLOPs, bytes, arithmetic intensity) refer to **one optimizer step**.
///
/// # Example
///
/// ```
/// use dabench_model::{ModelConfig, Precision, TrainingWorkload};
///
/// let w = TrainingWorkload::new(ModelConfig::gpt2_small(), 16, 1024, Precision::Fp16);
/// assert_eq!(w.tokens_per_step(), 16 * 1024);
/// assert!(w.arithmetic_intensity() > 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TrainingWorkload {
    model: ModelConfig,
    batch_size: u64,
    seq_len: u64,
    precision: Precision,
}

impl TrainingWorkload {
    /// Create a workload.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` or `seq_len` is zero.
    #[must_use]
    pub fn new(model: ModelConfig, batch_size: u64, seq_len: u64, precision: Precision) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        assert!(seq_len > 0, "seq_len must be positive");
        Self {
            model,
            batch_size,
            seq_len,
            precision,
        }
    }

    /// The model architecture.
    #[must_use]
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Global batch size in sequences.
    #[must_use]
    pub fn batch_size(&self) -> u64 {
        self.batch_size
    }

    /// Sequence length in tokens.
    #[must_use]
    pub fn seq_len(&self) -> u64 {
        self.seq_len
    }

    /// Element precision of weights and activations.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Tokens processed per optimizer step (`B · S`).
    #[must_use]
    pub fn tokens_per_step(&self) -> u64 {
        self.batch_size * self.seq_len
    }

    /// Materialize the complete operator list of one training step.
    #[must_use]
    pub fn step_ops(&self) -> Vec<Op> {
        ops::training_step_ops(&self.model, self.batch_size, self.seq_len)
    }

    /// Exact total training FLOPs of one step (fwd + bwd + update).
    #[must_use]
    pub fn training_flops_per_step(&self) -> f64 {
        ops::total_flops(&self.step_ops())
    }

    /// The paper's `6 · P · B · S` training-FLOP estimate for one step.
    #[must_use]
    pub fn nominal_training_flops_per_step(&self) -> f64 {
        6.0 * self.model.parameter_count() as f64 * self.tokens_per_step() as f64
    }

    /// Bytes of model weights at the workload precision.
    #[must_use]
    pub fn weight_bytes(&self) -> u64 {
        self.model.parameter_count() * self.precision.bytes_per_element()
    }

    /// Bytes of gradients at the workload precision.
    #[must_use]
    pub fn gradient_bytes(&self) -> u64 {
        self.weight_bytes()
    }

    /// Bytes of Adam optimizer state (two FP32 moments per parameter).
    #[must_use]
    pub fn optimizer_bytes(&self) -> u64 {
        self.model.parameter_count() * 8
    }

    /// Activation memory accounting for one step.
    #[must_use]
    pub fn activation_memory(&self) -> ActivationMemory {
        ActivationMemory::for_step(&self.model, self.batch_size, self.seq_len, self.precision)
    }

    /// Arithmetic intensity per the paper's Eq. 5.
    #[must_use]
    pub fn arithmetic_intensity(&self) -> f64 {
        arithmetic_intensity(
            self.model.parameter_count(),
            self.batch_size,
            self.seq_len,
            self.activation_memory().stored_bytes(),
        )
    }

    /// Total training-state footprint (weights + grads + optimizer), bytes.
    #[must_use]
    pub fn training_state_bytes(&self) -> u64 {
        self.weight_bytes() + self.gradient_bytes() + self.optimizer_bytes()
    }

    /// Returns a copy with a different batch size (Tier-2 sweeps).
    #[must_use]
    pub fn with_batch_size(&self, batch_size: u64) -> Self {
        Self::new(self.model.clone(), batch_size, self.seq_len, self.precision)
    }

    /// Returns a copy with a different precision (Tier-2 sweeps).
    #[must_use]
    pub fn with_precision(&self, precision: Precision) -> Self {
        Self::new(self.model.clone(), self.batch_size, self.seq_len, precision)
    }
}

impl fmt::Display for TrainingWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} B={} S={} {}",
            self.model, self.batch_size, self.seq_len, self.precision
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w() -> TrainingWorkload {
        TrainingWorkload::new(ModelConfig::gpt2_probe(768, 6), 4, 1024, Precision::Fp16)
    }

    #[test]
    fn tokens_per_step() {
        assert_eq!(w().tokens_per_step(), 4096);
    }

    #[test]
    fn exact_flops_near_nominal() {
        let w = w();
        let ratio = w.training_flops_per_step() / w.nominal_training_flops_per_step();
        assert!((0.6..1.8).contains(&ratio), "{ratio}");
    }

    #[test]
    fn training_state_is_12_bytes_per_param_fp16() {
        let w = w();
        assert_eq!(w.training_state_bytes(), 12 * w.model().parameter_count());
    }

    #[test]
    fn with_batch_size_scales_flops() {
        let a = w();
        let b = a.with_batch_size(8);
        // The optimizer step is batch-independent, so the ratio is just
        // below 2.
        let ratio = b.training_flops_per_step() / a.training_flops_per_step();
        assert!((ratio - 2.0).abs() < 1e-2, "{ratio}");
    }

    #[test]
    fn intensity_grows_then_saturates_with_batch() {
        // AI grows with batch but sub-linearly once activations dominate.
        let a = w().with_batch_size(1).arithmetic_intensity();
        let b = w().with_batch_size(64).arithmetic_intensity();
        let c = w().with_batch_size(128).arithmetic_intensity();
        assert!(b > a);
        assert!(c / b < 1.6);
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn zero_batch_rejected() {
        let _ = TrainingWorkload::new(ModelConfig::gpt2_mini(), 0, 128, Precision::Fp16);
    }
}
