//! Seeded scenario-space generation: difficulty tiers, deterministic
//! sampling, and the metamorphic invariant catalog.
//!
//! The paper's suite is a fixed 17-artifact set, and a fixed suite
//! saturates: once every platform model passes it, new modeling bugs hide
//! in the untested corners of the workload space. This module makes the
//! benchmark *generative*: [`sample`] draws an arbitrary number of
//! scenarios from the full workload space (model family × depth/width ×
//! GQA grouping × precision incl. FP8 KV × seq-len/batch × train-vs-infer
//! × parallelism degree × fault intensity) at a named difficulty [`Tier`],
//! fully determined by `(tier, seed, index)` — so any scenario can be
//! re-derived from its label alone, by any process, in any order.
//!
//! # RNG forking discipline
//!
//! Determinism across `--jobs` and `--resume` requires that scenario `i`
//! never depends on how many draws scenario `i-1` made. Every scenario
//! therefore forks its own [`SplitMix64`] stream from `(tier, seed,
//! index)`, and *within* a scenario each aspect (kind, shape, workload
//! dimensions, precision, faults, memory edge) draws from its own
//! sub-fork. Adding a draw to one aspect can never shift the values
//! another aspect sees, so the sampled space can grow without
//! invalidating existing seeds wholesale.
//!
//! # Metamorphic invariants
//!
//! A generated population doubles as a property-testing engine for the
//! platform models: [`Invariant`] names cross-scenario properties the
//! paper's models must obey (fault monotonicity, FP8 KV strictly smaller
//! than FP16, batch monotonicity up to the admission wall, OOM-wall
//! consistency, seeded determinism). The pure comparators in this module
//! ([`check_fault_monotone`], [`check_fp8_kv`], [`check_batch_ladder`],
//! [`check_determinism`]) turn observed numbers into [`Violation`]s; the
//! `dabench gen` driver derives the twin/ladder observations and feeds
//! them through. See `docs/generation.md`.

use crate::rng::SplitMix64;
use dabench_model::{InferenceWorkload, ModelConfig, Precision, TrainingWorkload};
use std::fmt;

/// A named difficulty tier of the scenario space.
///
/// Tiers are ordered: every axis of a higher tier dominates the one
/// below — larger shapes, longer contexts, bigger batches, denser fault
/// plans. `gen_props.rs` pins the ordering as a property over sampled
/// populations (mean FLOPs and mean fault density are non-decreasing in
/// tier rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// GPT-2-small-and-below shapes, short contexts, no faults.
    Baby,
    /// GPT-2 medium/large shapes, light fault plans.
    Easy,
    /// GPT-2-XL / small-LLaMA shapes, CB16 in the mix, moderate faults.
    Medium,
    /// LLaMA-2 7B/13B shapes with GQA, long contexts, heavy faults.
    Hard,
    /// 70B-shaped GQA, adversarial fault plans (every axis at once), and
    /// memory-edge serving configs sampled just under/over each
    /// platform's admission wall.
    Cosmic,
}

impl Tier {
    /// Every tier, in difficulty order.
    pub const ALL: [Tier; 5] = [
        Tier::Baby,
        Tier::Easy,
        Tier::Medium,
        Tier::Hard,
        Tier::Cosmic,
    ];

    /// Stable lower-case name used in labels, tables and CSV.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Tier::Baby => "baby",
            Tier::Easy => "easy",
            Tier::Medium => "medium",
            Tier::Hard => "hard",
            Tier::Cosmic => "cosmic",
        }
    }

    /// 0-based difficulty rank ([`Tier::Baby`] is 0).
    #[must_use]
    pub fn rank(self) -> u64 {
        Tier::ALL.iter().position(|t| *t == self).expect("listed") as u64
    }

    /// Parse a tier name as printed by [`Tier::as_str`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Tier> {
        Tier::ALL.iter().copied().find(|t| t.as_str() == name)
    }

    /// One-line description for `dabench gen --list-tiers`.
    #[must_use]
    pub const fn describe(self) -> &'static str {
        match self {
            Tier::Baby => "GPT-2 mini..small, batch<=8, seq<=1024, no faults",
            Tier::Easy => "GPT-2 medium..large, light faults (<=2% dead fabric)",
            Tier::Medium => "GPT-2 XL / LLaMA probes, CB16, moderate faults, drops",
            Tier::Hard => "LLaMA-2 7B/13B shapes, GQA, seq<=4096, heavy faults",
            Tier::Cosmic => "70B-shaped GQA, adversarial fault plans, memory-edge configs",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Whether a scenario exercises the training or the serving path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// One supervised-training optimizer step (Tier-1/faults path).
    Train,
    /// Autoregressive serving: prefill + decode (inference path).
    Infer,
}

impl ScenarioKind {
    /// Stable lower-case name.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            ScenarioKind::Train => "train",
            ScenarioKind::Infer => "infer",
        }
    }
}

/// Transformer family the scenario's architecture is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// GPT-2 style: LayerNorm, GELU, learned positions, head dim 64.
    Gpt2,
    /// LLaMA-2 style: RMSNorm, SwiGLU, RoPE, head dim 128.
    Llama2,
}

impl ModelFamily {
    /// Stable lower-case name.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            ModelFamily::Gpt2 => "gpt2",
            ModelFamily::Llama2 => "llama2",
        }
    }
}

/// Memory-edge intent of a cosmic serving scenario: resolve the batch
/// size against each platform's *own* admission wall at evaluation time,
/// landing just under (must fit) or just over (must OOM) it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryEdge {
    /// Ordinary scenario: the sampled batch is used as-is.
    Off,
    /// Evaluate at the largest admissible batch (must fit).
    Under,
    /// Evaluate one past the largest admissible batch (must OOM).
    Over,
}

impl MemoryEdge {
    /// Stable name used in records (`-` when off).
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            MemoryEdge::Off => "-",
            MemoryEdge::Under => "under",
            MemoryEdge::Over => "over",
        }
    }
}

/// Fault intensities of one scenario — the core-side mirror of the
/// `dabench-faults` `PlanSpec` (core cannot depend on the faults crate;
/// `PlanSpec::from_intensity` converts, re-validating on the way in).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultIntensity {
    /// Fraction of the compute fabric permanently dead (`0..=1`).
    pub dead_fraction: f64,
    /// Surviving fraction of interconnect bandwidth (`0..=1`).
    pub link_retained: f64,
    /// Transient task stalls to inject.
    pub transient_stalls: u32,
    /// Whole devices dropped.
    pub dropped_devices: u32,
}

impl FaultIntensity {
    /// No faults at all.
    #[must_use]
    pub const fn healthy() -> Self {
        Self {
            dead_fraction: 0.0,
            link_retained: 1.0,
            transient_stalls: 0,
            dropped_devices: 0,
        }
    }

    /// Whether this intensity injects nothing.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.dead_fraction == 0.0
            && self.link_retained == 1.0
            && self.transient_stalls == 0
            && self.dropped_devices == 0
    }

    /// Scalar fault density: a single number that grows with every axis,
    /// used to pin the tier-ordering property (higher tier ⇒ denser mean
    /// fault plans).
    #[must_use]
    pub fn density(&self) -> f64 {
        self.dead_fraction
            + (1.0 - self.link_retained)
            + 0.05 * f64::from(self.transient_stalls)
            + 0.05 * f64::from(self.dropped_devices)
    }
}

/// One sampled point of the workload space. Fully determined by
/// `(tier, seed, index)` — see [`sample`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Difficulty tier this scenario was drawn at.
    pub tier: Tier,
    /// Population seed.
    pub seed: u64,
    /// Index within the population.
    pub index: u64,
    /// Train or infer.
    pub kind: ScenarioKind,
    /// Architecture family.
    pub family: ModelFamily,
    /// Hidden size.
    pub hidden: u64,
    /// Decoder layers.
    pub layers: u64,
    /// Attention heads (derived from family head-dim rules).
    pub heads: u64,
    /// KV heads (`< heads` under GQA).
    pub kv_heads: u64,
    /// Batch size (sequences per step / concurrent requests).
    pub batch: u64,
    /// Sequence length (training) or prompt length (serving), tokens.
    pub seq: u64,
    /// Tokens decoded per request (serving only, 0 for training).
    pub decode: u64,
    /// Compute precision.
    pub precision: Precision,
    /// KV-cache storage precision (serving only; equals `precision` for
    /// training scenarios).
    pub kv_precision: Precision,
    /// Parallelism degree (1 = single chip; >1 maps to each platform's
    /// native scaling strategy).
    pub parallelism: u32,
    /// Sampled fault intensities (training scenarios only; serving
    /// scenarios are always healthy).
    pub faults: FaultIntensity,
    /// Memory-edge intent (cosmic serving scenarios only).
    pub memory_edge: MemoryEdge,
}

impl Scenario {
    /// The self-describing point label: `gen:<tier>:s<seed>:i<index>`.
    /// Any process can re-derive the full scenario from it via
    /// [`parse_label`] + [`sample`] — this is what lets the supervised
    /// runner and `--resume` evaluate a point from its label alone.
    #[must_use]
    pub fn label(&self) -> String {
        format_label(self.tier, self.seed, self.index)
    }

    /// Build the architecture this scenario describes.
    #[must_use]
    pub fn model(&self) -> ModelConfig {
        let name = format!(
            "{}-h{}-l{}{}",
            self.family.as_str(),
            self.hidden,
            self.layers,
            if self.kv_heads < self.heads {
                format!("-kv{}", self.kv_heads)
            } else {
                String::new()
            }
        );
        let base = match self.family {
            ModelFamily::Gpt2 => ModelConfig::gpt2_probe(self.hidden, self.layers),
            ModelFamily::Llama2 => ModelConfig::llama2_probe(self.hidden, self.layers),
        };
        ModelConfig::builder(name)
            .hidden_size(self.hidden)
            .num_layers(self.layers)
            .num_heads(self.heads)
            .num_kv_heads(self.kv_heads)
            .ffn_hidden(base.ffn_hidden)
            .vocab_size(base.vocab_size)
            .max_seq_len(base.max_seq_len.max(self.seq + self.decode))
            .normalization(base.normalization)
            .activation(base.activation)
            .positional(base.positional)
            .tied_embeddings(base.tied_embeddings)
            .build()
    }

    /// The training workload of a [`ScenarioKind::Train`] scenario.
    #[must_use]
    pub fn training_workload(&self) -> TrainingWorkload {
        TrainingWorkload::new(self.model(), self.batch, self.seq, self.precision)
    }

    /// The serving workload of a [`ScenarioKind::Infer`] scenario.
    ///
    /// # Panics
    ///
    /// Never for sampler-produced scenarios: every tier menu is within
    /// the validated dimension bounds.
    #[must_use]
    pub fn inference_workload(&self) -> InferenceWorkload {
        InferenceWorkload::new(
            self.model(),
            self.batch,
            self.seq,
            self.decode.max(1),
            self.precision,
        )
        .expect("sampler menus stay within validated workload bounds")
        .with_kv_precision(self.kv_precision)
    }

    /// Model FLOPs of the scenario (one training step, or the full
    /// prefill+decode pass). Used by the tier-ordering property: the
    /// population mean is non-decreasing in tier rank.
    #[must_use]
    pub fn flops(&self) -> f64 {
        match self.kind {
            ScenarioKind::Train => {
                crate::compile::training_graph(&self.training_workload())
                    .summary()
                    .total_flops
            }
            ScenarioKind::Infer => {
                let w = self.inference_workload();
                w.prefill_cost().flops + w.decode_cost().flops
            }
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} h={} L={} kvh={} B={} S={} prec={}",
            self.kind.as_str(),
            self.family.as_str(),
            self.hidden,
            self.layers,
            self.kv_heads,
            self.batch,
            self.seq,
            self.precision.as_str(),
        )
    }
}

/// Format the label of scenario `(tier, seed, index)` — see
/// [`Scenario::label`].
#[must_use]
pub fn format_label(tier: Tier, seed: u64, index: u64) -> String {
    format!("gen:{}:s{seed}:i{index}", tier.as_str())
}

/// Parse a `gen:<tier>:s<seed>:i<index>` label back into its coordinates.
/// Returns `None` for anything else (including non-gen experiment names),
/// so it can act as the dispatch predicate for generated points.
#[must_use]
pub fn parse_label(label: &str) -> Option<(Tier, u64, u64)> {
    let rest = label.strip_prefix("gen:")?;
    let mut parts = rest.split(':');
    let tier = Tier::parse(parts.next()?)?;
    let seed = parts.next()?.strip_prefix('s')?.parse().ok()?;
    let index = parts.next()?.strip_prefix('i')?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((tier, seed, index))
}

/// Per-tier sampling menus. Every field of a higher tier dominates the
/// one below — that is what makes the tier-ordering property hold by
/// construction rather than by luck.
struct TierMenu {
    families: &'static [ModelFamily],
    hidden: &'static [u64],
    layers: (u64, u64),
    kv_groups: &'static [u64],
    batch: &'static [u64],
    seq: &'static [u64],
    decode: &'static [u64],
    train_precision: &'static [Precision],
    kv_precision: &'static [Precision],
    parallelism: &'static [u32],
    dead: (f64, f64),
    link: (f64, f64),
    stalls: (u32, u32),
    drops: (u32, u32),
    edge_chance: f64,
}

fn menu(tier: Tier) -> TierMenu {
    use ModelFamily::{Gpt2, Llama2};
    match tier {
        Tier::Baby => TierMenu {
            families: &[Gpt2],
            hidden: &[256, 512, 768],
            layers: (2, 12),
            kv_groups: &[1],
            batch: &[1, 2, 4, 8],
            seq: &[128, 256, 512, 1024],
            decode: &[16, 32],
            train_precision: &[Precision::Fp32, Precision::Fp16],
            kv_precision: &[Precision::Fp16],
            parallelism: &[1],
            dead: (0.0, 0.0),
            link: (1.0, 1.0),
            stalls: (0, 0),
            drops: (0, 0),
            edge_chance: 0.0,
        },
        Tier::Easy => TierMenu {
            families: &[Gpt2],
            hidden: &[768, 1024, 1280],
            layers: (8, 24),
            kv_groups: &[1],
            batch: &[4, 8, 16, 32],
            seq: &[512, 1024],
            decode: &[32, 64],
            train_precision: &[Precision::Fp16, Precision::Bf16],
            kv_precision: &[Precision::Fp16, Precision::Fp8],
            parallelism: &[1, 2],
            dead: (0.0, 0.02),
            link: (0.95, 1.0),
            stalls: (0, 1),
            drops: (0, 0),
            edge_chance: 0.0,
        },
        Tier::Medium => TierMenu {
            families: &[Gpt2, Llama2],
            hidden: &[1280, 1600, 2048],
            layers: (16, 48),
            kv_groups: &[1],
            batch: &[8, 16, 32, 64],
            seq: &[1024, 2048],
            decode: &[64, 128],
            train_precision: &[Precision::Fp16, Precision::Bf16, Precision::Cb16],
            kv_precision: &[Precision::Fp16, Precision::Fp8],
            parallelism: &[1, 2, 4],
            dead: (0.0, 0.05),
            link: (0.9, 1.0),
            stalls: (0, 2),
            drops: (0, 1),
            edge_chance: 0.0,
        },
        Tier::Hard => TierMenu {
            families: &[Llama2],
            hidden: &[4096, 5120],
            layers: (32, 60),
            kv_groups: &[1, 4],
            batch: &[16, 32, 64],
            seq: &[2048, 4096],
            decode: &[128],
            train_precision: &[Precision::Fp16, Precision::Bf16],
            kv_precision: &[Precision::Fp16, Precision::Fp8],
            parallelism: &[1, 2, 4, 8],
            dead: (0.02, 0.10),
            link: (0.8, 0.95),
            stalls: (1, 4),
            drops: (0, 2),
            edge_chance: 0.0,
        },
        Tier::Cosmic => TierMenu {
            families: &[Llama2],
            hidden: &[8192],
            layers: (64, 96),
            kv_groups: &[8],
            batch: &[32, 64, 128],
            seq: &[2048, 4096],
            decode: &[128, 256],
            train_precision: &[Precision::Fp16, Precision::Bf16],
            kv_precision: &[Precision::Fp16, Precision::Fp8],
            parallelism: &[1, 4, 8, 16],
            dead: (0.10, 0.25),
            link: (0.5, 0.8),
            stalls: (2, 6),
            drops: (1, 3),
            edge_chance: 0.5,
        },
    }
}

fn choose<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn range_u64(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo + 1)
}

fn range_u32(rng: &mut SplitMix64, lo: u32, hi: u32) -> u32 {
    lo + rng.below(u64::from(hi - lo) + 1) as u32
}

/// Head count of `hidden` under a family's head-dim rule, mirroring the
/// probe constructors (head dim 64 for GPT-2, 128 for LLaMA-2).
fn heads_of(family: ModelFamily, hidden: u64) -> u64 {
    let dim = match family {
        ModelFamily::Gpt2 => 64,
        ModelFamily::Llama2 => 128,
    };
    if hidden.is_multiple_of(dim) {
        hidden / dim
    } else {
        1
    }
}

/// Deterministically sample scenario `index` of population
/// `(tier, seed)`. Same arguments ⇒ identical scenario, on any machine,
/// in any process — the whole `--jobs`/`--resume` byte-identity story
/// rests on this function being a pure function of its inputs.
#[must_use]
pub fn sample(tier: Tier, seed: u64, index: u64) -> Scenario {
    let m = menu(tier);
    // Tier-salted base stream, then one fork per scenario, then one
    // sub-fork per aspect (see the module docs on forking discipline).
    let tier_seed = SplitMix64::fork(seed, 0x7EE2_0000 + tier.rank()).next_u64();
    let scenario_seed = SplitMix64::fork(tier_seed, index).next_u64();
    let mut kind_rng = SplitMix64::fork(scenario_seed, 0);
    let mut shape = SplitMix64::fork(scenario_seed, 1);
    let mut work = SplitMix64::fork(scenario_seed, 2);
    let mut prec = SplitMix64::fork(scenario_seed, 3);
    let mut fault = SplitMix64::fork(scenario_seed, 4);
    let mut edge = SplitMix64::fork(scenario_seed, 5);

    let kind = if kind_rng.next_f64() < 0.5 {
        ScenarioKind::Train
    } else {
        ScenarioKind::Infer
    };

    let family = choose(&mut shape, m.families);
    let hidden = choose(&mut shape, m.hidden);
    let layers = range_u64(&mut shape, m.layers.0, m.layers.1);
    let heads = heads_of(family, hidden);
    // Only keep a GQA grouping the head count actually divides into.
    let group = choose(&mut shape, m.kv_groups);
    let kv_heads = if group > 1 && heads.is_multiple_of(group) {
        heads / group
    } else {
        heads
    };

    let batch = choose(&mut work, m.batch);
    let seq = choose(&mut work, m.seq);
    let decode = choose(&mut work, m.decode);
    let parallelism = match kind {
        ScenarioKind::Train => choose(&mut work, m.parallelism),
        ScenarioKind::Infer => 1,
    };

    let precision = match kind {
        ScenarioKind::Train => choose(&mut prec, m.train_precision),
        // Serving computes in FP16/BF16 on every platform; FP8 exists
        // only as KV storage.
        ScenarioKind::Infer => choose(&mut prec, &[Precision::Fp16, Precision::Bf16]),
    };
    let kv_precision = match kind {
        ScenarioKind::Train => precision,
        ScenarioKind::Infer => choose(&mut prec, m.kv_precision),
    };

    let faults = match kind {
        ScenarioKind::Infer => FaultIntensity::healthy(),
        ScenarioKind::Train => FaultIntensity {
            dead_fraction: fault.uniform(m.dead.0, m.dead.1.max(m.dead.0 + f64::EPSILON)),
            link_retained: fault.uniform(m.link.0, m.link.1.max(m.link.0 + f64::EPSILON)),
            transient_stalls: range_u32(&mut fault, m.stalls.0, m.stalls.1),
            dropped_devices: range_u32(&mut fault, m.drops.0, m.drops.1),
        },
    };
    // Degenerate uniform draws (lo == hi) must still land exactly on the
    // menu value, not lo + epsilon noise.
    let faults = if m.dead == (0.0, 0.0) && m.link == (1.0, 1.0) && kind == ScenarioKind::Train {
        FaultIntensity {
            transient_stalls: faults.transient_stalls,
            dropped_devices: faults.dropped_devices,
            ..FaultIntensity::healthy()
        }
    } else {
        faults
    };

    let memory_edge = if kind == ScenarioKind::Infer && edge.next_f64() < m.edge_chance {
        if edge.next_f64() < 0.5 {
            MemoryEdge::Under
        } else {
            MemoryEdge::Over
        }
    } else {
        MemoryEdge::Off
    };

    Scenario {
        tier,
        seed,
        index,
        kind,
        family,
        hidden,
        layers,
        heads,
        kv_heads,
        batch,
        seq,
        decode: if kind == ScenarioKind::Infer {
            decode
        } else {
            0
        },
        precision,
        kv_precision,
        parallelism,
        faults,
        memory_edge,
    }
}

/// Sample the first `count` scenarios of population `(tier, seed)`.
#[must_use]
pub fn population(tier: Tier, seed: u64, count: u64) -> Vec<Scenario> {
    (0..count).map(|i| sample(tier, seed, i)).collect()
}

// ---------------------------------------------------------------------------
// Metamorphic invariants
// ---------------------------------------------------------------------------

/// A cross-scenario property every platform model must obey. The first
/// four are checked by `dabench gen` on every generated population; the
/// last is checked both in-process (re-sample + re-evaluate) and by the
/// `gen-determinism` CI job (`--jobs`/`--resume` byte-identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// Adding faults never increases training throughput.
    FaultMonotone,
    /// An FP8 KV cache is strictly smaller than an FP16 one at equal
    /// shape (and never changes weight bytes).
    Fp8KvSmaller,
    /// Serving tokens/s is monotone non-decreasing in batch size up to
    /// the admission wall, within one memory level.
    BatchMonotone,
    /// OOM walls are consistent: once a batch size OOMs, every larger
    /// batch OOMs too, and the probed admission wall itself fits while
    /// wall+1 does not.
    OomWallConsistent,
    /// The same `(tier, seed, index)` always yields the same scenario and
    /// the same evaluated record, byte for byte.
    SeedDeterminism,
}

impl Invariant {
    /// Every invariant, in catalog order.
    pub const ALL: [Invariant; 5] = [
        Invariant::FaultMonotone,
        Invariant::Fp8KvSmaller,
        Invariant::BatchMonotone,
        Invariant::OomWallConsistent,
        Invariant::SeedDeterminism,
    ];

    /// Stable snake_case name used in reports and `DABENCH_INJECT`.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Invariant::FaultMonotone => "fault_monotone",
            Invariant::Fp8KvSmaller => "fp8_kv_smaller",
            Invariant::BatchMonotone => "batch_monotone",
            Invariant::OomWallConsistent => "oom_wall_consistent",
            Invariant::SeedDeterminism => "seed_determinism",
        }
    }

    /// Parse a name as printed by [`Invariant::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Invariant> {
        Invariant::ALL.iter().copied().find(|i| i.name() == name)
    }

    /// One-line description for the invariant catalog table.
    #[must_use]
    pub const fn describe(self) -> &'static str {
        match self {
            Invariant::FaultMonotone => "throughput non-increasing as faults are added",
            Invariant::Fp8KvSmaller => "fp8 KV cache strictly smaller than fp16 at equal shape",
            Invariant::BatchMonotone => "tokens/s monotone in batch until the admission wall",
            Invariant::OomWallConsistent => "OOM walls consistent across adjacent batch sizes",
            Invariant::SeedDeterminism => "same seed => byte-identical scenario and record",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One observed violation of an [`Invariant`].
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant was violated.
    pub invariant: Invariant,
    /// Label of the scenario the observation came from.
    pub scenario: String,
    /// Platform the observation came from (`-` for shape-level checks).
    pub platform: String,
    /// Human-readable evidence (the numbers that contradict).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant violated: {} [{} on {}]: {}",
            self.invariant.name(),
            self.scenario,
            self.platform,
            self.detail
        )
    }
}

/// Relative tolerance for throughput comparisons: the models are
/// analytic, so anything beyond f64 noise is a real violation.
const REL_EPS: f64 = 1e-9;

/// [`Invariant::FaultMonotone`]: a degraded profile must not out-run the
/// healthy one.
#[must_use]
pub fn check_fault_monotone(
    platform: &str,
    scenario: &str,
    healthy_tps: f64,
    faulty_tps: f64,
) -> Option<Violation> {
    if faulty_tps <= healthy_tps * (1.0 + REL_EPS) {
        return None;
    }
    Some(Violation {
        invariant: Invariant::FaultMonotone,
        scenario: scenario.to_owned(),
        platform: platform.to_owned(),
        detail: format!("faulted {faulty_tps:.6e} tokens/s > healthy {healthy_tps:.6e}"),
    })
}

/// [`Invariant::Fp8KvSmaller`]: at equal shape, the FP8 cache must be
/// strictly smaller than the FP16 cache, and weight bytes untouched.
#[must_use]
pub fn check_fp8_kv(
    scenario: &str,
    fp16_kv_bytes: u64,
    fp8_kv_bytes: u64,
    fp16_weight_bytes: u64,
    fp8_weight_bytes: u64,
) -> Option<Violation> {
    if fp8_kv_bytes < fp16_kv_bytes && fp16_weight_bytes == fp8_weight_bytes {
        return None;
    }
    Some(Violation {
        invariant: Invariant::Fp8KvSmaller,
        scenario: scenario.to_owned(),
        platform: "-".to_owned(),
        detail: format!(
            "fp8 kv {fp8_kv_bytes} B vs fp16 kv {fp16_kv_bytes} B \
             (weights {fp8_weight_bytes} vs {fp16_weight_bytes} B)"
        ),
    })
}

/// One rung of a batch ladder: the batch size, the memory level the
/// report landed in (`None` on OOM), and the achieved tokens/s (`None`
/// on OOM).
#[derive(Debug, Clone, PartialEq)]
pub struct LadderPoint {
    /// Batch size of this rung.
    pub batch: u64,
    /// Memory level the platform served from, `None` when the point
    /// OOMed.
    pub level: Option<String>,
    /// Achieved tokens/s, `None` when the point OOMed.
    pub tokens_per_s: Option<f64>,
}

/// [`Invariant::BatchMonotone`] + [`Invariant::OomWallConsistent`] over a
/// batch ladder (ascending batch sizes of one scenario on one platform):
/// tokens/s must be non-decreasing between adjacent rungs *served from
/// the same memory level* (a level change — e.g. the IPU's tile-SRAM/DDR
/// cliff — legitimately resets throughput), and once any rung OOMs, every
/// larger rung must OOM too.
#[must_use]
pub fn check_batch_ladder(
    platform: &str,
    scenario: &str,
    ladder: &[LadderPoint],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut oom_at: Option<u64> = None;
    for pair in ladder.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if let (Some(ta), Some(tb)) = (a.tokens_per_s, b.tokens_per_s) {
            if a.level == b.level && tb < ta * (1.0 - REL_EPS) {
                out.push(Violation {
                    invariant: Invariant::BatchMonotone,
                    scenario: scenario.to_owned(),
                    platform: platform.to_owned(),
                    detail: format!(
                        "tokens/s dropped {ta:.6e} -> {tb:.6e} going B={} -> B={} \
                         within level {}",
                        a.batch,
                        b.batch,
                        a.level.as_deref().unwrap_or("?")
                    ),
                });
            }
        }
    }
    for p in ladder {
        match (p.tokens_per_s.is_some(), oom_at) {
            (false, None) => oom_at = Some(p.batch),
            (true, Some(wall)) => out.push(Violation {
                invariant: Invariant::OomWallConsistent,
                scenario: scenario.to_owned(),
                platform: platform.to_owned(),
                detail: format!("B={} fits although B={wall} already OOMed", p.batch),
            }),
            _ => {}
        }
    }
    out
}

/// [`Invariant::SeedDeterminism`]: two derivations of the same record
/// must agree byte for byte.
#[must_use]
pub fn check_determinism(scenario: &str, first: &str, second: &str) -> Option<Violation> {
    if first == second {
        return None;
    }
    let at = first
        .bytes()
        .zip(second.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| first.len().min(second.len()));
    Some(Violation {
        invariant: Invariant::SeedDeterminism,
        scenario: scenario.to_owned(),
        platform: "-".to_owned(),
        detail: format!("re-derived record differs at byte {at}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for tier in Tier::ALL {
            let s = sample(tier, 42, 7);
            assert_eq!(parse_label(&s.label()), Some((tier, 42, 7)));
        }
        assert_eq!(parse_label("table1"), None);
        assert_eq!(parse_label("gen:warp:s1:i0"), None);
        assert_eq!(parse_label("gen:baby:s1:i0:extra"), None);
        assert_eq!(parse_label("gen:baby:1:0"), None);
    }

    #[test]
    fn tier_parse_and_rank_agree_with_all() {
        for (i, tier) in Tier::ALL.iter().enumerate() {
            assert_eq!(tier.rank(), i as u64);
            assert_eq!(Tier::parse(tier.as_str()), Some(*tier));
        }
        assert_eq!(Tier::parse("galactic"), None);
    }

    #[test]
    fn sampling_is_a_pure_function() {
        for tier in Tier::ALL {
            for i in 0..32 {
                assert_eq!(sample(tier, 9, i), sample(tier, 9, i));
            }
        }
    }

    #[test]
    fn scenarios_build_valid_models() {
        for tier in Tier::ALL {
            for s in population(tier, 3, 16) {
                let m = s.model();
                assert!(m.hidden_size.is_multiple_of(m.num_heads), "{s:?}");
                assert!(m.num_heads.is_multiple_of(m.num_kv_heads), "{s:?}");
                assert!(s.flops() > 0.0, "{s:?}");
            }
        }
    }

    #[test]
    fn baby_is_faultless_and_edge_free() {
        for s in population(Tier::Baby, 123, 64) {
            assert!(s.faults.is_healthy(), "{s:?}");
            assert_eq!(s.memory_edge, MemoryEdge::Off);
            assert_eq!(s.parallelism, 1);
        }
    }

    #[test]
    fn cosmic_trains_carry_adversarial_plans() {
        let pop = population(Tier::Cosmic, 5, 64);
        let trains: Vec<_> = pop
            .iter()
            .filter(|s| s.kind == ScenarioKind::Train)
            .collect();
        assert!(!trains.is_empty());
        for s in &trains {
            assert!(s.faults.dead_fraction >= 0.10, "{s:?}");
            assert!(s.faults.link_retained <= 0.8 + 1e-12, "{s:?}");
            assert!(s.faults.transient_stalls >= 2, "{s:?}");
            assert!(s.faults.dropped_devices >= 1, "{s:?}");
        }
        assert!(
            pop.iter().any(|s| s.memory_edge != MemoryEdge::Off),
            "cosmic should sample memory-edge scenarios"
        );
    }

    #[test]
    fn infer_scenarios_are_healthy_and_serial() {
        for tier in Tier::ALL {
            for s in population(tier, 77, 32) {
                if s.kind == ScenarioKind::Infer {
                    assert!(s.faults.is_healthy());
                    assert_eq!(s.parallelism, 1);
                    assert!(s.decode > 0);
                } else {
                    assert_eq!(s.decode, 0);
                    assert_eq!(s.memory_edge, MemoryEdge::Off);
                }
            }
        }
    }

    #[test]
    fn fault_monotone_checker_flags_counterexample() {
        assert!(check_fault_monotone("wse", "gen:baby:s1:i0", 100.0, 99.0).is_none());
        assert!(check_fault_monotone("wse", "gen:baby:s1:i0", 100.0, 100.0).is_none());
        let v = check_fault_monotone("wse", "gen:baby:s1:i0", 100.0, 101.0).expect("violation");
        assert_eq!(v.invariant, Invariant::FaultMonotone);
        assert!(v.to_string().contains("fault_monotone"), "{v}");
    }

    #[test]
    fn fp8_checker_flags_counterexamples() {
        assert!(check_fp8_kv("s", 1000, 500, 77, 77).is_none());
        assert!(
            check_fp8_kv("s", 1000, 1000, 77, 77).is_some(),
            "not strict"
        );
        assert!(
            check_fp8_kv("s", 1000, 500, 77, 78).is_some(),
            "weights moved"
        );
    }

    #[test]
    fn ladder_checker_flags_drop_and_wall_hole() {
        let lvl = |n: &str| Some(n.to_owned());
        let ok = vec![
            LadderPoint {
                batch: 1,
                level: lvl("hbm"),
                tokens_per_s: Some(10.0),
            },
            LadderPoint {
                batch: 2,
                level: lvl("hbm"),
                tokens_per_s: Some(19.0),
            },
            LadderPoint {
                batch: 4,
                level: None,
                tokens_per_s: None,
            },
            LadderPoint {
                batch: 8,
                level: None,
                tokens_per_s: None,
            },
        ];
        assert!(check_batch_ladder("gpu", "s", &ok).is_empty());

        let drop = vec![
            LadderPoint {
                batch: 1,
                level: lvl("hbm"),
                tokens_per_s: Some(10.0),
            },
            LadderPoint {
                batch: 2,
                level: lvl("hbm"),
                tokens_per_s: Some(9.0),
            },
        ];
        let v = check_batch_ladder("gpu", "s", &drop);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::BatchMonotone);

        // A throughput reset across a *level change* is legitimate (the
        // IPU tile-SRAM -> DDR cliff).
        let cliff = vec![
            LadderPoint {
                batch: 1,
                level: lvl("tile-sram"),
                tokens_per_s: Some(100.0),
            },
            LadderPoint {
                batch: 2,
                level: lvl("streaming-ddr"),
                tokens_per_s: Some(5.0),
            },
        ];
        assert!(check_batch_ladder("ipu", "s", &cliff).is_empty());

        let hole = vec![
            LadderPoint {
                batch: 1,
                level: lvl("hbm"),
                tokens_per_s: Some(10.0),
            },
            LadderPoint {
                batch: 2,
                level: None,
                tokens_per_s: None,
            },
            LadderPoint {
                batch: 4,
                level: lvl("hbm"),
                tokens_per_s: Some(40.0),
            },
        ];
        let v = check_batch_ladder("gpu", "s", &hole);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::OomWallConsistent);
    }

    #[test]
    fn determinism_checker_names_the_byte() {
        assert!(check_determinism("s", "abc", "abc").is_none());
        let v = check_determinism("s", "abc", "abd").expect("violation");
        assert_eq!(v.invariant, Invariant::SeedDeterminism);
        assert!(v.detail.contains("byte 2"), "{}", v.detail);
    }

    #[test]
    fn invariant_names_round_trip() {
        for inv in Invariant::ALL {
            assert_eq!(Invariant::parse(inv.name()), Some(inv));
            assert!(!inv.describe().is_empty());
        }
        assert_eq!(Invariant::parse("gravity"), None);
    }
}
