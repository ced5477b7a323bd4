//! Decoder-only transformer architecture descriptions.

use std::fmt;

/// Normalization layer variant used inside decoder blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Normalization {
    /// LayerNorm with learned scale and bias (GPT-2).
    LayerNorm,
    /// RMSNorm with learned scale only (LLaMA-2).
    RmsNorm,
}

/// Feed-forward activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// GELU as used by GPT-2 (two-matrix MLP).
    Gelu,
    /// SwiGLU as used by LLaMA-2 (three-matrix gated MLP).
    SwiGlu,
}

/// Positional-encoding scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PositionalEncoding {
    /// Learned absolute position embeddings (GPT-2).
    Learned,
    /// Rotary position embeddings applied to Q/K (LLaMA-2).
    Rotary,
}

/// Architectural description of a decoder-only transformer.
///
/// All counts are in elements (not bytes). Construct via the presets
/// ([`ModelConfig::gpt2_small`], [`ModelConfig::llama2_7b`], …), the generic
/// decoder-block probes used by the paper's sweeps
/// ([`ModelConfig::gpt2_probe`]), or the [`ModelConfigBuilder`].
///
/// # Example
///
/// ```
/// use dabench_model::ModelConfig;
///
/// let m = ModelConfig::gpt2_small();
/// // GPT-2 Small is ~124M parameters.
/// let p = m.parameter_count();
/// assert!(p > 115_000_000 && p < 135_000_000, "param count {p}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelConfig {
    /// Human-readable name, e.g. `"gpt2-small"`.
    pub name: String,
    /// Model (embedding) dimension, `h` in the paper.
    pub hidden_size: u64,
    /// Number of decoder layers.
    pub num_layers: u64,
    /// Number of attention heads.
    pub num_heads: u64,
    /// Number of key/value heads (GQA); equals `num_heads` without GQA.
    pub num_kv_heads: u64,
    /// Feed-forward inner dimension.
    pub ffn_hidden: u64,
    /// Vocabulary size.
    pub vocab_size: u64,
    /// Maximum (and assumed training) context length the model was built for.
    pub max_seq_len: u64,
    /// Normalization variant.
    pub normalization: Normalization,
    /// MLP activation variant.
    pub activation: Activation,
    /// Positional encoding variant.
    pub positional: PositionalEncoding,
    /// Whether input embedding and LM head share weights (GPT-2 does).
    pub tied_embeddings: bool,
}

impl ModelConfig {
    /// Start building a custom configuration.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> ModelConfigBuilder {
        ModelConfigBuilder::new(name)
    }

    // ----- GPT-2 family presets (learned positions, LayerNorm, GELU) -----

    fn gpt2_family(name: &str, hidden: u64, layers: u64, heads: u64) -> Self {
        Self {
            name: name.to_owned(),
            hidden_size: hidden,
            num_layers: layers,
            num_heads: heads,
            num_kv_heads: heads,
            ffn_hidden: 4 * hidden,
            vocab_size: 50_257,
            max_seq_len: 1024,
            normalization: Normalization::LayerNorm,
            activation: Activation::Gelu,
            positional: PositionalEncoding::Learned,
            tied_embeddings: true,
        }
    }

    /// GPT "mini": hidden size 256 (used in the paper's WSE replica study).
    #[must_use]
    pub fn gpt2_mini() -> Self {
        Self::gpt2_family("gpt2-mini", 256, 4, 4)
    }

    /// GPT "tiny": hidden size 512.
    #[must_use]
    pub fn gpt2_tiny() -> Self {
        Self::gpt2_family("gpt2-tiny", 512, 8, 8)
    }

    /// GPT-2 Small: hidden size 768, 12 layers (~124M parameters).
    #[must_use]
    pub fn gpt2_small() -> Self {
        Self::gpt2_family("gpt2-small", 768, 12, 12)
    }

    /// GPT-2 Medium: hidden size 1024, 24 layers (~350M parameters).
    #[must_use]
    pub fn gpt2_medium() -> Self {
        Self::gpt2_family("gpt2-medium", 1024, 24, 16)
    }

    /// GPT-2 Large: hidden size 1280, 36 layers (~774M parameters).
    #[must_use]
    pub fn gpt2_large() -> Self {
        Self::gpt2_family("gpt2-large", 1280, 36, 20)
    }

    /// GPT-2 XL ("xlarge" in Table III): hidden size 1600, 48 layers (~1.5B).
    #[must_use]
    pub fn gpt2_xl() -> Self {
        Self::gpt2_family("gpt2-xl", 1600, 48, 25)
    }

    /// A GPT-2-style probe block: hidden size `hidden_size` and
    /// `num_layers` decoder layers, everything else as GPT-2.
    ///
    /// This is the paper's workhorse: the decoder-block methodology fixes
    /// one of (hidden size, layer count) and sweeps the other.
    #[must_use]
    pub fn gpt2_probe(hidden_size: u64, num_layers: u64) -> Self {
        // Head dim 64 where divisible, else a single head.
        let heads = if hidden_size.is_multiple_of(64) {
            hidden_size / 64
        } else {
            1
        };
        let mut cfg = Self::gpt2_family(
            &format!("gpt2-h{hidden_size}-l{num_layers}"),
            hidden_size,
            num_layers,
            heads,
        );
        cfg.num_kv_heads = heads;
        cfg
    }

    // ----- LLaMA-2 family presets (RoPE, RMSNorm, SwiGLU) -----

    fn llama2_family(
        name: &str,
        hidden: u64,
        layers: u64,
        heads: u64,
        kv_heads: u64,
        ffn: u64,
    ) -> Self {
        Self {
            name: name.to_owned(),
            hidden_size: hidden,
            num_layers: layers,
            num_heads: heads,
            num_kv_heads: kv_heads,
            ffn_hidden: ffn,
            vocab_size: 32_000,
            max_seq_len: 4096,
            normalization: Normalization::RmsNorm,
            activation: Activation::SwiGlu,
            positional: PositionalEncoding::Rotary,
            tied_embeddings: false,
        }
    }

    /// LLaMA-2 7B: hidden 4096, 32 layers, MHA.
    #[must_use]
    pub fn llama2_7b() -> Self {
        Self::llama2_family("llama2-7b", 4096, 32, 32, 32, 11_008)
    }

    /// LLaMA-2 13B: hidden 5120, 40 layers, MHA.
    #[must_use]
    pub fn llama2_13b() -> Self {
        Self::llama2_family("llama2-13b", 5120, 40, 40, 40, 13_824)
    }

    /// LLaMA-2 70B: hidden 8192, 80 layers, GQA with 8 KV heads.
    #[must_use]
    pub fn llama2_70b() -> Self {
        Self::llama2_family("llama2-70b", 8192, 80, 64, 8, 28_672)
    }

    /// A LLaMA-2-style probe block: hidden size `hidden_size`,
    /// `num_layers` layers, SwiGLU FFN sized by the LLaMA-2 2/3·4h rule
    /// rounded to a multiple of 256.
    #[must_use]
    pub fn llama2_probe(hidden_size: u64, num_layers: u64) -> Self {
        let heads = if hidden_size.is_multiple_of(128) {
            hidden_size / 128
        } else {
            1
        };
        let raw = 8 * hidden_size / 3;
        let ffn = raw.div_ceil(256) * 256;
        Self::llama2_family(
            &format!("llama2-h{hidden_size}-l{num_layers}"),
            hidden_size,
            num_layers,
            heads,
            heads,
            ffn,
        )
    }

    // ----- Derived quantities -----

    /// Head dimension (`hidden_size / num_heads`).
    #[must_use]
    pub fn head_dim(&self) -> u64 {
        self.hidden_size / self.num_heads
    }

    /// Projection width of the K/V matrices (smaller than `hidden_size`
    /// under grouped-query attention).
    #[must_use]
    pub fn kv_dim(&self) -> u64 {
        self.num_kv_heads * self.head_dim()
    }

    /// Parameters in one decoder layer.
    #[must_use]
    pub fn layer_parameter_count(&self) -> u64 {
        let h = self.hidden_size;
        let kv = self.kv_dim();
        let f = self.ffn_hidden;
        // Attention: Q (h*h) + K,V (h*kv each) + output (h*h).
        let mut attn = h * h + 2 * h * kv + h * h;
        // MLP.
        let mut mlp = match self.activation {
            Activation::Gelu => 2 * h * f,
            Activation::SwiGlu => 3 * h * f,
        };
        // Biases: GPT-2 has them everywhere, LLaMA-2 nowhere.
        let norm = match self.normalization {
            Normalization::LayerNorm => 2 * 2 * h, // two norms, scale + bias
            Normalization::RmsNorm => 2 * h,       // two norms, scale only
        };
        if self.normalization == Normalization::LayerNorm {
            attn += h + 2 * kv + h; // fused qkv bias + out bias
            mlp += f + h;
        }
        attn + mlp + norm
    }

    /// Parameters in the embedding tables (token + positional if learned).
    #[must_use]
    pub fn embedding_parameter_count(&self) -> u64 {
        let tok = self.vocab_size * self.hidden_size;
        let pos = match self.positional {
            PositionalEncoding::Learned => self.max_seq_len * self.hidden_size,
            PositionalEncoding::Rotary => 0,
        };
        tok + pos
    }

    /// Parameters in the LM head (0 if tied to the input embedding).
    #[must_use]
    pub fn lm_head_parameter_count(&self) -> u64 {
        if self.tied_embeddings {
            0
        } else {
            self.vocab_size * self.hidden_size
        }
    }

    /// Parameters in the final normalization layer.
    #[must_use]
    pub fn final_norm_parameter_count(&self) -> u64 {
        match self.normalization {
            Normalization::LayerNorm => 2 * self.hidden_size,
            Normalization::RmsNorm => self.hidden_size,
        }
    }

    /// Total parameter count, `P` in the paper's Eq. 5.
    #[must_use]
    pub fn parameter_count(&self) -> u64 {
        self.embedding_parameter_count()
            + self.num_layers * self.layer_parameter_count()
            + self.final_norm_parameter_count()
            + self.lm_head_parameter_count()
    }
}

impl fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (h={}, L={}, heads={}, P={:.1}M)",
            self.name,
            self.hidden_size,
            self.num_layers,
            self.num_heads,
            self.parameter_count() as f64 / 1e6
        )
    }
}

/// Builder for custom [`ModelConfig`] values.
///
/// # Example
///
/// ```
/// use dabench_model::{Activation, ModelConfig, Normalization};
///
/// let cfg = ModelConfig::builder("custom")
///     .hidden_size(1024)
///     .num_layers(16)
///     .num_heads(16)
///     .activation(Activation::SwiGlu)
///     .normalization(Normalization::RmsNorm)
///     .build();
/// assert_eq!(cfg.ffn_hidden, 4096); // defaults to 4*h
/// ```
#[derive(Debug, Clone)]
pub struct ModelConfigBuilder {
    cfg: ModelConfig,
    ffn_set: bool,
    kv_set: bool,
}

impl ModelConfigBuilder {
    /// Create a builder with GPT-2-Small-like defaults.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        let mut cfg = ModelConfig::gpt2_small();
        cfg.name = name.into();
        Self {
            cfg,
            ffn_set: false,
            kv_set: false,
        }
    }

    /// Set the hidden size.
    #[must_use]
    pub fn hidden_size(mut self, h: u64) -> Self {
        self.cfg.hidden_size = h;
        self
    }

    /// Set the number of decoder layers.
    #[must_use]
    pub fn num_layers(mut self, l: u64) -> Self {
        self.cfg.num_layers = l;
        self
    }

    /// Set the number of attention heads.
    #[must_use]
    pub fn num_heads(mut self, n: u64) -> Self {
        self.cfg.num_heads = n;
        self
    }

    /// Set the number of KV heads (enables GQA when smaller than heads).
    #[must_use]
    pub fn num_kv_heads(mut self, n: u64) -> Self {
        self.cfg.num_kv_heads = n;
        self.kv_set = true;
        self
    }

    /// Set the FFN inner dimension (defaults to `4 * hidden_size`).
    #[must_use]
    pub fn ffn_hidden(mut self, f: u64) -> Self {
        self.cfg.ffn_hidden = f;
        self.ffn_set = true;
        self
    }

    /// Set the vocabulary size.
    #[must_use]
    pub fn vocab_size(mut self, v: u64) -> Self {
        self.cfg.vocab_size = v;
        self
    }

    /// Set the maximum sequence length.
    #[must_use]
    pub fn max_seq_len(mut self, s: u64) -> Self {
        self.cfg.max_seq_len = s;
        self
    }

    /// Set the normalization variant.
    #[must_use]
    pub fn normalization(mut self, n: Normalization) -> Self {
        self.cfg.normalization = n;
        self
    }

    /// Set the activation variant.
    #[must_use]
    pub fn activation(mut self, a: Activation) -> Self {
        self.cfg.activation = a;
        self
    }

    /// Set the positional-encoding variant.
    #[must_use]
    pub fn positional(mut self, p: PositionalEncoding) -> Self {
        self.cfg.positional = p;
        self
    }

    /// Set whether embeddings are tied to the LM head.
    #[must_use]
    pub fn tied_embeddings(mut self, tied: bool) -> Self {
        self.cfg.tied_embeddings = tied;
        self
    }

    /// Finalize the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `hidden_size` is not divisible by `num_heads`, or if any
    /// dimension is zero.
    #[must_use]
    pub fn build(mut self) -> ModelConfig {
        if !self.ffn_set {
            self.cfg.ffn_hidden = 4 * self.cfg.hidden_size;
        }
        if !self.kv_set {
            self.cfg.num_kv_heads = self.cfg.num_heads;
        }
        assert!(self.cfg.hidden_size > 0, "hidden_size must be positive");
        assert!(self.cfg.num_layers > 0, "num_layers must be positive");
        assert!(self.cfg.num_heads > 0, "num_heads must be positive");
        assert!(
            self.cfg.hidden_size.is_multiple_of(self.cfg.num_heads),
            "hidden_size {} not divisible by num_heads {}",
            self.cfg.hidden_size,
            self.cfg.num_heads
        );
        assert!(
            self.cfg.num_heads.is_multiple_of(self.cfg.num_kv_heads),
            "num_heads {} not divisible by num_kv_heads {}",
            self.cfg.num_heads,
            self.cfg.num_kv_heads
        );
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt2_small_param_count_is_canonical() {
        // GPT-2 Small is 124M parameters (117M without position embeddings
        // depending on how you count); accept the 120-130M band.
        let p = ModelConfig::gpt2_small().parameter_count();
        assert!((120_000_000..135_000_000).contains(&p), "{p}");
    }

    #[test]
    fn gpt2_xl_is_about_1_5b() {
        let p = ModelConfig::gpt2_xl().parameter_count();
        assert!((1_400_000_000..1_700_000_000).contains(&p), "{p}");
    }

    #[test]
    fn llama2_7b_param_count_is_canonical() {
        let p = ModelConfig::llama2_7b().parameter_count();
        assert!((6_500_000_000..7_100_000_000).contains(&p), "{p}");
    }

    #[test]
    fn llama2_70b_uses_gqa() {
        let m = ModelConfig::llama2_70b();
        assert_eq!(m.kv_dim(), 1024);
        let p = m.parameter_count();
        assert!((65_000_000_000..72_000_000_000).contains(&p), "{p}");
    }

    #[test]
    fn gpt2_layer_params_match_12h2_plus_13h() {
        // Classic GPT-2 identity: per-layer params = 12 h^2 + 13 h.
        let m = ModelConfig::gpt2_small();
        let h = m.hidden_size;
        assert_eq!(m.layer_parameter_count(), 12 * h * h + 13 * h);
    }

    #[test]
    fn probe_scales_linearly_in_layers() {
        let p1 = ModelConfig::gpt2_probe(768, 1).parameter_count();
        let p2 = ModelConfig::gpt2_probe(768, 2).parameter_count();
        let p3 = ModelConfig::gpt2_probe(768, 3).parameter_count();
        assert_eq!(p3 - p2, p2 - p1);
    }

    #[test]
    fn builder_defaults_ffn_and_kv() {
        let cfg = ModelConfig::builder("x")
            .hidden_size(512)
            .num_heads(8)
            .build();
        assert_eq!(cfg.ffn_hidden, 2048);
        assert_eq!(cfg.num_kv_heads, 8);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn builder_rejects_indivisible_heads() {
        let _ = ModelConfig::builder("bad")
            .hidden_size(100)
            .num_heads(3)
            .build();
    }

    #[test]
    fn display_is_informative() {
        let s = format!("{}", ModelConfig::gpt2_small());
        assert!(s.contains("gpt2-small"));
        assert!(s.contains("h=768"));
    }

    #[test]
    fn llama_probe_rounds_ffn() {
        let m = ModelConfig::llama2_probe(4096, 2);
        assert_eq!(m.ffn_hidden % 256, 0);
        assert!(m.ffn_hidden >= 8 * 4096 / 3);
    }
}
