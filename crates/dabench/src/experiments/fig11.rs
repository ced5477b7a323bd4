//! Fig. 11: scalability details — WSE replicas, RDU TP utilization, IPU
//! layer allocations.

use super::workloads::llama7b;
use crate::render::Table;
use dabench_core::{par_map, with_point_label};
use dabench_ipu::{pipeline_with_allocation, Ipu};
use dabench_model::{ModelConfig, Precision, TrainingWorkload};
use dabench_rdu::{tensor_parallel, CompilationMode, Rdu};
use dabench_wse::{data_parallel, Wse};

/// One point of Fig. 11(a): WSE throughput vs replica count.
#[derive(Debug, Clone, PartialEq)]
pub struct WseReplicaRow {
    /// Replica count.
    pub replicas: u32,
    /// Aggregate computation throughput (before communication), tokens/s.
    pub computation: f64,
    /// Net throughput (after gradient allreduce), tokens/s.
    pub net: f64,
    /// Communication fraction of the step.
    pub comm_fraction: f64,
}

/// One point of Fig. 11(b): RDU per-chip utilization vs TP degree.
#[derive(Debug, Clone, PartialEq)]
pub struct RduTpRow {
    /// TP degree.
    pub degree: u32,
    /// Runtime-weighted PCU allocation per chip.
    pub pcu: f64,
    /// Runtime-weighted PMU allocation per chip.
    pub pmu: f64,
    /// Whether machines boundaries are crossed.
    pub cross_machine: bool,
}

/// One point of Fig. 11(c): IPU throughput vs layer allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct IpuAllocationRow {
    /// Layers per decoder IPU.
    pub allocation: Vec<u64>,
    /// Maximum layers on any IPU.
    pub max_layers: u64,
    /// Throughput, tokens/s.
    pub throughput: f64,
}

/// Fig. 11(a): GPT-2 mini replicas on the WSE.
#[must_use]
pub fn run_wse() -> Vec<WseReplicaRow> {
    let wse = Wse::default();
    let mini = TrainingWorkload::new(ModelConfig::gpt2_mini(), 256, 1024, Precision::Fp16);
    par_map(&[1u32, 2, 4, 8], |&replicas| {
        with_point_label(&format!("fig11 wse replicas={replicas}"), || {
            let plan = data_parallel(wse.wse_spec(), wse.compiler_params(), &mini, replicas)
                .expect("mini replicates");
            WseReplicaRow {
                replicas,
                computation: plan.computation_tokens_per_s,
                net: plan.net_tokens_per_s,
                comm_fraction: plan.communication_fraction,
            }
        })
    })
}

/// Fig. 11(b): LLaMA-2 7B tensor parallelism on the RDU.
#[must_use]
pub fn run_rdu() -> Vec<RduTpRow> {
    let rdu = Rdu::with_mode(CompilationMode::O1);
    let w = llama7b();
    par_map(&[2u32, 4, 8], |&degree| {
        with_point_label(&format!("fig11 rdu tp={degree}"), || {
            let plan = tensor_parallel(
                rdu.rdu_spec(),
                rdu.compiler_params(),
                CompilationMode::O1,
                &w,
                degree,
            )
            .expect("tp plan");
            RduTpRow {
                degree,
                pcu: plan.pcu_allocation,
                pmu: plan.pmu_allocation,
                cross_machine: plan.cross_machine,
            }
        })
    })
}

/// The nine layer-distribution configurations of Fig. 11(c) (12 layers
/// over three decoder IPUs).
pub const IPU_ALLOCATIONS: [[u64; 3]; 9] = [
    [4, 4, 4],
    [5, 4, 3],
    [5, 5, 2],
    [6, 3, 3],
    [6, 4, 2],
    [6, 5, 1],
    [7, 3, 2],
    [7, 4, 1],
    [8, 2, 2],
];

/// Fig. 11(c): throughput of each allocation.
#[must_use]
pub fn run_ipu() -> Vec<IpuAllocationRow> {
    let ipu = Ipu::default();
    let w = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 12), 64, 1024, Precision::Fp16);
    par_map(&IPU_ALLOCATIONS, |alloc| {
        with_point_label(&format!("fig11 ipu alloc={alloc:?}"), || {
            let plan = pipeline_with_allocation(ipu.ipu_spec(), ipu.compiler_params(), &w, alloc)
                .expect("allocation fits");
            IpuAllocationRow {
                allocation: alloc.to_vec(),
                max_layers: *alloc.iter().max().expect("non-empty"),
                throughput: plan.throughput_tokens_per_s,
            }
        })
    })
}

/// Render all three panels.
#[must_use]
pub fn render(wse: &[WseReplicaRow], rdu: &[RduTpRow], ipu: &[IpuAllocationRow]) -> Vec<Table> {
    let mut a = Table::new("Fig. 11(a): WSE throughput vs replicas (gpt2-mini)");
    a.set_headers([
        "Replicas",
        "Computation tok/s",
        "Net tok/s",
        "Comm fraction",
    ]);
    for r in wse {
        a.add_row([
            r.replicas.to_string(),
            format!("{:.3e}", r.computation),
            format!("{:.3e}", r.net),
            format!("{:.3}", r.comm_fraction),
        ]);
    }
    let mut b = Table::new("Fig. 11(b): RDU per-chip utilization vs TP degree (llama2-7b)");
    b.set_headers(["TP", "PCU alloc", "PMU alloc", "Cross-machine"]);
    for r in rdu {
        b.add_row([
            r.degree.to_string(),
            format!("{:.3}", r.pcu),
            format!("{:.3}", r.pmu),
            r.cross_machine.to_string(),
        ]);
    }
    let mut c = Table::new("Fig. 11(c): IPU throughput vs layer allocation (12 layers, 3 IPUs)");
    c.set_headers(["Allocation", "Max layers", "Tokens/s"]);
    for r in ipu {
        c.add_row([
            format!("{:?}", r.allocation),
            r.max_layers.to_string(),
            format!("{:.3e}", r.throughput),
        ]);
    }
    vec![a, b, c]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wse_comm_gap_grows_with_replicas() {
        let rows = run_wse();
        // The gap between computation and net throughput widens.
        let gaps: Vec<f64> = rows.iter().map(|r| r.computation - r.net).collect();
        assert!(gaps.windows(2).all(|w| w[1] >= w[0]), "{gaps:?}");
        // Net throughput still improves for the small model.
        assert!(rows.last().unwrap().net > rows.first().unwrap().net);
    }

    #[test]
    fn rdu_utilization_collapses_across_machines() {
        let rows = run_rdu();
        let tp2 = &rows[0];
        let tp4 = &rows[1];
        assert!(!tp2.cross_machine && tp4.cross_machine);
        let pcu_drop = 1.0 - tp4.pcu / tp2.pcu;
        let pmu_drop = 1.0 - tp4.pmu / tp2.pmu;
        // Paper: ~40% PCU and ~25% PMU drop.
        assert!((0.2..0.6).contains(&pcu_drop), "{pcu_drop}");
        assert!((0.05..0.5).contains(&pmu_drop), "{pmu_drop}");
        assert!(pmu_drop < pcu_drop);
    }

    #[test]
    fn ipu_throughput_tracks_max_load() {
        let rows = run_ipu();
        // Throughput is a non-increasing function of the max layer count.
        for a in &rows {
            for b in &rows {
                if a.max_layers < b.max_layers {
                    assert!(
                        a.throughput > b.throughput,
                        "{:?} vs {:?}",
                        a.allocation,
                        b.allocation
                    );
                }
            }
        }
    }

    #[test]
    fn balanced_allocation_wins() {
        let rows = run_ipu();
        let best = rows
            .iter()
            .max_by(|a, b| a.throughput.partial_cmp(&b.throughput).unwrap())
            .unwrap();
        assert_eq!(best.allocation, vec![4, 4, 4]);
    }

    #[test]
    fn render_produces_three_panels() {
        let tables = render(&run_wse(), &run_rdu(), &run_ipu());
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[2].row_count(), 9);
    }
}
