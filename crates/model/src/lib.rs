//! # dabench-model
//!
//! Workload descriptions for decoder-only large language models, used as the
//! input side of the DABench-LLM benchmarking framework.
//!
//! The crate answers one question precisely: *given a model architecture and
//! a training configuration, what work does one training step consist of?*
//! It provides:
//!
//! - [`ModelConfig`]: architectural descriptions of decoder-only
//!   transformers, with presets for the GPT-2 family and LLaMA-2 family used
//!   throughout the paper ([`ModelConfig::gpt2_small`],
//!   [`ModelConfig::llama2_7b`], …).
//! - [`ops`]: an operator catalogue — every forward and backward operator of
//!   a training step, with exact FLOP, parameter and byte accounting.
//! - [`TrainingWorkload`]: a model plus batch size, sequence length and
//!   numeric [`Precision`]; computes per-step FLOPs, memory traffic and the
//!   paper's arithmetic-intensity estimate (Eq. 5).
//!
//! # Example
//!
//! ```
//! use dabench_model::{ModelConfig, Precision, TrainingWorkload};
//!
//! let model = ModelConfig::gpt2_small();
//! assert_eq!(model.hidden_size, 768);
//!
//! let workload = TrainingWorkload::new(model, 8, 1024, Precision::Fp16);
//! // Training FLOPs follow the 6 * P * B * S convention used by the paper.
//! let approx = 6.0 * workload.model().parameter_count() as f64
//!     * (8 * 1024) as f64;
//! let exact = workload.training_flops_per_step();
//! assert!((exact - approx).abs() / approx < 0.35);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod config;
mod inference;
mod intensity;
pub mod ops;
mod precision;
mod workload;

pub use activation::ActivationMemory;
pub use config::{Activation, ModelConfig, ModelConfigBuilder, Normalization, PositionalEncoding};
pub use inference::{BatchingMode, InferenceWorkload, InferenceWorkloadError, PhaseCost};
pub use intensity::arithmetic_intensity;
pub use precision::Precision;
pub use workload::TrainingWorkload;
