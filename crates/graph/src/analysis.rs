//! Graph statistics and structural analysis.

use crate::graph::{DataflowGraph, NodeId};
use dabench_model::ops::{OpClass, Phase};
use std::collections::BTreeMap;

/// Aggregate statistics of a dataflow graph.
///
/// # Example
///
/// ```
/// use dabench_graph::{analysis::GraphStats, GraphBuilder};
/// use dabench_model::ModelConfig;
///
/// let g = GraphBuilder::training_step(&ModelConfig::gpt2_probe(768, 2), 4, 256);
/// let stats = GraphStats::of(&g);
/// assert!(stats.matmul_flops_fraction() > 0.9);
/// assert!(stats.depth > 20); // fwd + bwd chains of a 2-layer stack
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Total FLOPs.
    pub total_flops: f64,
    /// FLOPs on dense matmul operators.
    pub matmul_flops: f64,
    /// FLOPs per phase.
    pub flops_by_phase: Vec<(String, f64)>,
    /// Node count per operator class.
    pub nodes_by_class: Vec<(String, usize)>,
    /// Length of the critical path in operators (levels).
    pub depth: usize,
    /// Maximum number of nodes sharing one level (graph parallelism).
    pub max_width: usize,
    /// FLOPs along the heaviest dependency path.
    pub critical_path_flops: f64,
}

impl GraphStats {
    /// Compute statistics of `g`.
    #[must_use]
    pub fn of(g: &DataflowGraph) -> Self {
        let mut by_class: BTreeMap<OpClass, usize> = BTreeMap::new();
        let mut by_phase: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut matmul = 0.0;
        for (_, op) in g.iter() {
            *by_class.entry(op.class()).or_default() += 1;
            let phase = match op.phase() {
                Phase::Forward => "forward",
                Phase::Backward => "backward",
                Phase::Update => "update",
            };
            *by_phase.entry(phase).or_default() += op.flops();
            if op.class().is_matmul() {
                matmul += op.flops();
            }
        }
        let levels = g.levels();
        let depth = levels.iter().copied().max().map_or(0, |d| d + 1);
        let mut width = vec![0usize; depth];
        for &l in &levels {
            width[l] += 1;
        }
        Self {
            nodes: g.node_count(),
            edges: g.edge_count(),
            total_flops: g.total_flops(),
            matmul_flops: matmul,
            flops_by_phase: by_phase
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
            nodes_by_class: by_class
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            depth,
            max_width: width.into_iter().max().unwrap_or(0),
            critical_path_flops: g.critical_path_flops(),
        }
    }

    /// Fraction of FLOPs in dense matmuls (`0..=1`).
    #[must_use]
    pub fn matmul_flops_fraction(&self) -> f64 {
        if self.total_flops > 0.0 {
            self.matmul_flops / self.total_flops
        } else {
            0.0
        }
    }

    /// Available graph parallelism: total FLOPs over critical-path FLOPs.
    #[must_use]
    pub fn parallelism(&self) -> f64 {
        if self.critical_path_flops > 0.0 {
            self.total_flops / self.critical_path_flops
        } else {
            0.0
        }
    }
}

/// Ids of the producers whose outputs cross from `left` into its
/// complement when the graph is split at a topological position: the cut
/// tensors a section-style executor must spill.
#[must_use]
pub fn frontier_at(g: &DataflowGraph, left: &[NodeId]) -> Vec<NodeId> {
    let set: std::collections::HashSet<NodeId> = left.iter().copied().collect();
    left.iter()
        .copied()
        .filter(|&id| g.succs(id).iter().any(|s| !set.contains(s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use dabench_model::ModelConfig;

    fn g() -> DataflowGraph {
        GraphBuilder::training_step(&ModelConfig::gpt2_probe(768, 3), 2, 256)
    }

    #[test]
    fn stats_are_consistent() {
        let g = g();
        let s = GraphStats::of(&g);
        assert_eq!(s.nodes, g.node_count());
        assert_eq!(s.edges, g.edge_count());
        let phase_sum: f64 = s.flops_by_phase.iter().map(|(_, f)| f).sum();
        assert!((phase_sum - s.total_flops).abs() / s.total_flops < 1e-12);
        let class_sum: usize = s.nodes_by_class.iter().map(|(_, n)| n).sum();
        assert_eq!(class_sum, s.nodes);
    }

    #[test]
    fn backward_flops_double_forward() {
        let s = GraphStats::of(&g());
        let get = |p: &str| {
            s.flops_by_phase
                .iter()
                .find(|(k, _)| k == p)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!((get("backward") / get("forward") - 2.0).abs() < 1e-9);
    }

    #[test]
    fn depth_grows_with_layers() {
        let s2 = GraphStats::of(&GraphBuilder::training_step(
            &ModelConfig::gpt2_probe(768, 2),
            1,
            64,
        ));
        let s4 = GraphStats::of(&GraphBuilder::training_step(
            &ModelConfig::gpt2_probe(768, 4),
            1,
            64,
        ));
        assert!(s4.depth > s2.depth);
    }

    #[test]
    fn parallelism_is_modest_for_sequential_models() {
        // A decoder stack is mostly a chain; parallelism comes from the
        // residual branches and weight-gradient ops.
        let s = GraphStats::of(&g());
        let p = s.parallelism();
        assert!((1.0..4.0).contains(&p), "{p}");
    }

    #[test]
    fn frontier_detects_cut_tensors() {
        let g = g();
        let order = g.topological_order();
        let left: Vec<_> = order[..order.len() / 2].to_vec();
        let frontier = frontier_at(&g, &left);
        assert!(!frontier.is_empty());
        // Every frontier node has at least one successor outside the cut.
        let set: std::collections::HashSet<_> = left.iter().copied().collect();
        for id in frontier {
            assert!(g.succs(id).iter().any(|s| !set.contains(s)));
        }
    }
}
