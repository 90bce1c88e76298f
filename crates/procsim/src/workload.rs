//! Workload catalog — the graph processing algorithms used to train and
//! evaluate EASE's ProcessingTimePredictor. A workload is asked two things:
//! what it does on a graph ([`Workload::trace`], once per graph) and what
//! that costs on a placement ([`Workload::price`], once per partitioner);
//! [`Workload::execute`] asks both of one placement.

use crate::algorithms::{ConnectedComponents, KCores, LabelPropagation, PageRank, Sssp, Synthetic};
use crate::cluster::ClusterSpec;
use crate::engine::{self, ActivityTrace, SimReport};
use crate::placement::DistributedGraph;

/// A graph processing workload with the paper's parametrization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// PageRank, fixed iterations (training runs use 10).
    PageRank {
        iterations: usize,
    },
    ConnectedComponents,
    /// SSSP from a pseudo-random seed vertex.
    Sssp {
        source_seed: u64,
    },
    /// K-Cores with k = ⌈mean degree⌉.
    KCores,
    /// Label Propagation, fixed iterations (showcase algorithm of Fig. 2).
    LabelPropagation {
        iterations: usize,
    },
    /// Synthetic workload with feature width `s` (1 = low, 10 = high).
    Synthetic {
        s: usize,
        iterations: usize,
    },
}

/// `$body` with `$prog` bound to the workload's vertex program on `$dg` —
/// the programs share a trait, not a type.
macro_rules! with_program {
    ($workload:expr, $dg:expr, |$prog:ident| $body:expr) => {
        match $workload {
            Workload::PageRank { iterations } => {
                let $prog = PageRank::new(iterations);
                $body
            }
            Workload::ConnectedComponents => {
                let $prog = ConnectedComponents;
                $body
            }
            Workload::Sssp { source_seed } => {
                let $prog = Sssp::with_random_source($dg, source_seed);
                $body
            }
            Workload::KCores => {
                let $prog = KCores::with_mean_degree($dg);
                $body
            }
            Workload::LabelPropagation { iterations } => {
                let $prog = LabelPropagation::new(iterations);
                $body
            }
            Workload::Synthetic { s, iterations } => {
                let $prog = Synthetic { s, iterations };
                $body
            }
        }
    };
}

impl Workload {
    /// The six training workloads of the paper (Sec. V-C), in Table V order.
    pub fn all_training() -> [Workload; 6] {
        [
            Workload::ConnectedComponents,
            Workload::KCores,
            Workload::PageRank { iterations: 10 },
            Workload::Sssp { source_seed: 0x55AA },
            Workload::Synthetic { s: 10, iterations: 5 },
            Workload::Synthetic { s: 1, iterations: 5 },
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PageRank { .. } => "pr",
            Workload::ConnectedComponents => "cc",
            Workload::Sssp { .. } => "sssp",
            Workload::KCores => "kcores",
            Workload::LabelPropagation { .. } => "lp",
            Workload::Synthetic { s, .. } => {
                if s >= 10 {
                    "synthetic-high"
                } else {
                    "synthetic-low"
                }
            }
        }
    }

    /// Inverse of [`Workload::name`] with the paper's default
    /// parametrization — the single name→workload catalog shared by the
    /// `ease` CLI and the persistence layer (which uses it to intern saved
    /// workload names back to `'static`).
    pub fn from_name(name: &str) -> Option<Workload> {
        Some(match name {
            "pr" => Workload::PageRank { iterations: 10 },
            "cc" => Workload::ConnectedComponents,
            "sssp" => Workload::Sssp { source_seed: 0x55AA },
            "kcores" => Workload::KCores,
            "lp" => Workload::LabelPropagation { iterations: 10 },
            "synthetic-low" => Workload::Synthetic { s: 1, iterations: 5 },
            "synthetic-high" => Workload::Synthetic { s: 10, iterations: 5 },
            _ => return None,
        })
    }

    /// Human-readable label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Workload::PageRank { .. } => "PageRank",
            Workload::ConnectedComponents => "Connected Components",
            Workload::Sssp { .. } => "Single Source Shortest Paths",
            Workload::KCores => "K-Cores",
            Workload::LabelPropagation { .. } => "Label Propagation",
            Workload::Synthetic { s, .. } => {
                if s >= 10 {
                    "Synthetic-High"
                } else {
                    "Synthetic-Low"
                }
            }
        }
    }

    /// Fixed iteration count, if the workload has one. Fixed-iteration
    /// workloads are predicted by average iteration time (paper Sec. V-C).
    pub fn fixed_iterations(self) -> Option<usize> {
        match self {
            Workload::PageRank { iterations }
            | Workload::LabelPropagation { iterations }
            | Workload::Synthetic { iterations, .. } => Some(iterations),
            _ => None,
        }
    }

    /// What the workload does on the graph `dg` places: which vertices are
    /// active in which superstep. A property of the graph and the workload,
    /// not of the placement — take it on any placement, [`price`] it on all
    /// of them. Stationary programs (`pr`, `lp`, the two synthetics) declare
    /// theirs; `cc`, `sssp` and `kcores` are executed once to record it.
    ///
    /// [`price`]: Workload::price
    pub fn trace(self, dg: &DistributedGraph) -> ActivityTrace {
        with_program!(self, dg, |prog| engine::trace(&prog, dg))
    }

    /// What `trace` costs on the placement `dg`: the report
    /// [`crate::engine::run`] accumulates for the same program there, bit
    /// for bit, with no vertex state computed.
    ///
    /// # Panics
    /// If `trace` was taken on a graph with another vertex or edge count.
    pub fn price(
        self,
        trace: &ActivityTrace,
        dg: &DistributedGraph,
        cluster: &ClusterSpec,
    ) -> SimReport {
        with_program!(self, dg, |prog| engine::price(&prog, trace, dg, cluster))
    }

    /// The workload's cost report on a distributed graph: its
    /// [`trace`](Workload::trace), [`price`](Workload::price)d where it was
    /// taken. Placing one graph several times? Take the trace once.
    pub fn execute(self, dg: &DistributedGraph, cluster: &ClusterSpec) -> SimReport {
        self.price(&self.trace(dg), dg, cluster)
    }

    /// The prediction target the paper uses: average iteration time for
    /// fixed-iteration workloads, total time-to-convergence otherwise.
    pub fn prediction_target(self, report: &SimReport) -> f64 {
        if self.fixed_iterations().is_some() {
            report.avg_superstep_secs()
        } else {
            report.total_secs
        }
    }

    /// Total processing time implied by a predicted target value.
    pub fn total_from_target(self, target: f64) -> f64 {
        match self.fixed_iterations() {
            Some(iters) => target * iters as f64,
            None => target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ease_graph::PreparedGraph;
    use ease_partition::PartitionerId;

    #[test]
    fn six_training_workloads_with_unique_names() {
        let all = Workload::all_training();
        let names: std::collections::HashSet<_> = all.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 6);
        assert!(names.contains("synthetic-high") && names.contains("synthetic-low"));
    }

    #[test]
    fn every_training_workload_executes() {
        let g = ease_graphgen::rmat::Rmat::new(ease_graphgen::rmat::RMAT_COMBOS[1], 256, 2_000, 2)
            .generate();
        let pg = PreparedGraph::of(&g);
        let part = PartitionerId::Dbh.build(1).partition_prepared(&pg, 4);
        let dg = DistributedGraph::build_prepared(&pg, &part);
        let cluster = ClusterSpec::new(4);
        for w in Workload::all_training() {
            let report = w.execute(&dg, &cluster);
            assert!(report.total_secs > 0.0, "{}", w.name());
            assert!(report.supersteps > 0, "{}", w.name());
            let target = w.prediction_target(&report);
            assert!(target > 0.0, "{}", w.name());
            assert!(w.total_from_target(target) > 0.0);
        }
    }

    #[test]
    fn fixed_iteration_reconstruction() {
        let w = Workload::PageRank { iterations: 10 };
        assert_eq!(w.fixed_iterations(), Some(10));
        assert!((w.total_from_target(0.5) - 5.0).abs() < 1e-12);
        let cc = Workload::ConnectedComponents;
        assert_eq!(cc.fixed_iterations(), None);
        assert_eq!(cc.total_from_target(3.0), 3.0);
    }
}
