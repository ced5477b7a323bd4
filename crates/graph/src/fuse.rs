//! Generic operator-fusion pass.
//!
//! Dataflow compilers fuse elementwise and normalization operators into
//! their producing/consuming GEMMs before mapping (SambaFlow's O1 mode is
//! the paper's example). This module provides a reusable pass: fuse every
//! non-matmul node into an adjacent matmul group when the connection is a
//! simple chain, and report the resulting groups.

use crate::graph::{DataflowGraph, NodeId};

/// One fusion group: a matmul anchor plus absorbed neighbours.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionGroup {
    /// Anchor node (a matmul, or a standalone non-fusable node).
    pub anchor: NodeId,
    /// All members including the anchor, in topological order.
    pub members: Vec<NodeId>,
}

impl FusionGroup {
    /// Total FLOPs of the group.
    #[must_use]
    pub fn flops(&self, g: &DataflowGraph) -> f64 {
        self.members.iter().map(|&id| g.op(id).flops()).sum()
    }
}

/// Fuse chains of non-matmul operators into their downstream matmul (or,
/// failing that, their upstream one). Nodes with fan-out > 1 stay
/// unfused anchors — duplicating work across consumers is never profitable
/// in a spatial fabric.
///
/// The result partitions every node into exactly one group.
///
/// # Example
///
/// ```
/// use dabench_graph::{fuse::fuse_into_matmuls, GraphBuilder};
/// use dabench_model::ModelConfig;
///
/// let g = GraphBuilder::training_step(&ModelConfig::gpt2_probe(768, 2), 2, 128);
/// let groups = fuse_into_matmuls(&g);
/// // Fusion shrinks the schedulable unit count well below the node count.
/// assert!(groups.len() < g.node_count());
/// let covered: usize = groups.iter().map(|gr| gr.members.len()).sum();
/// assert_eq!(covered, g.node_count());
/// ```
#[must_use]
pub fn fuse_into_matmuls(g: &DataflowGraph) -> Vec<FusionGroup> {
    let order = g.topological_order();
    let n = g.node_count();
    // group_of[i] = anchor index each node is assigned to, or usize::MAX.
    let mut group_of: Vec<usize> = vec![usize::MAX; n];

    // Pass 1: every matmul anchors its own group.
    for &NodeId(i) in &order {
        if g.op(NodeId(i)).class().is_matmul() {
            group_of[i] = i;
        }
    }

    // Pass 2 (forward): absorb a non-matmul into its single consumer's
    // group when it has exactly one consumer that is already grouped…
    // walk reverse topological order so chains collapse transitively.
    for &NodeId(i) in order.iter().rev() {
        if group_of[i] != usize::MAX {
            continue;
        }
        let succs = g.succs(NodeId(i));
        if succs.len() == 1 && group_of[succs[0].0] != usize::MAX {
            group_of[i] = group_of[succs[0].0];
        }
    }
    // Pass 3 (backward): remaining nodes try their single producer.
    for &NodeId(i) in &order {
        if group_of[i] != usize::MAX {
            continue;
        }
        let preds = g.preds(NodeId(i));
        if preds.len() == 1 && group_of[preds[0].0] != usize::MAX {
            group_of[i] = group_of[preds[0].0];
        }
    }
    // Pass 4: anything left anchors itself.
    for (i, g) in group_of.iter_mut().enumerate().take(n) {
        if *g == usize::MAX {
            *g = i;
        }
    }

    // Materialize groups in topological order of their anchors.
    let mut groups: Vec<FusionGroup> = Vec::new();
    let mut slot_of_anchor: std::collections::HashMap<usize, usize> =
        std::collections::HashMap::new();
    for &NodeId(i) in &order {
        let anchor = group_of[i];
        let slot = *slot_of_anchor.entry(anchor).or_insert_with(|| {
            groups.push(FusionGroup {
                anchor: NodeId(anchor),
                members: Vec::new(),
            });
            groups.len() - 1
        });
        groups[slot].members.push(NodeId(i));
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use dabench_model::ops::OpClass;
    use dabench_model::ModelConfig;

    fn g() -> DataflowGraph {
        GraphBuilder::training_step(&ModelConfig::gpt2_probe(768, 2), 2, 128)
    }

    #[test]
    fn groups_partition_the_graph() {
        let g = g();
        let groups = fuse_into_matmuls(&g);
        let mut seen = vec![false; g.node_count()];
        for gr in &groups {
            for &NodeId(i) in &gr.members {
                assert!(!seen[i], "node {i} in two groups");
                seen[i] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn norms_fuse_into_their_gemms() {
        let g = g();
        let groups = fuse_into_matmuls(&g);
        // norm1.fwd has exactly one consumer (qkv) → fused with it.
        let norm = g.find("l0.norm1.fwd").unwrap();
        let qkv = g.find("l0.qkv_proj.fwd").unwrap();
        let of = |id: NodeId| {
            groups
                .iter()
                .position(|gr| gr.members.contains(&id))
                .unwrap()
        };
        assert_eq!(of(norm), of(qkv));
    }

    #[test]
    fn flops_are_conserved() {
        let g = g();
        let groups = fuse_into_matmuls(&g);
        let sum: f64 = groups.iter().map(|gr| gr.flops(&g)).sum();
        assert!((sum - g.total_flops()).abs() / g.total_flops() < 1e-12);
    }

    #[test]
    fn anchors_are_mostly_matmuls() {
        let g = g();
        let groups = fuse_into_matmuls(&g);
        let matmul_anchored = groups
            .iter()
            .filter(|gr| g.op(gr.anchor).class().is_matmul())
            .count();
        assert!(
            matmul_anchored * 2 > groups.len(),
            "{matmul_anchored}/{}",
            groups.len()
        );
    }

    #[test]
    fn fan_out_nodes_do_not_duplicate() {
        // Residual-add outputs feed two consumers; the add must appear in
        // exactly one group (checked by the partition test) and stays with
        // either its producer or itself.
        let g = g();
        let groups = fuse_into_matmuls(&g);
        let resid = g.find("l0.residual1.fwd").unwrap();
        let count = groups
            .iter()
            .filter(|gr| gr.members.contains(&resid))
            .count();
        assert_eq!(count, 1);
        let _ = OpClass::ResidualAdd; // silence unused import on some cfgs
    }
}
