//! Timed partitioner execution — the measurement step of the EASE training
//! pipeline (Fig. 5, step 2): run a partitioner, record quality metrics and
//! the partitioning run-time.
//!
//! The run-time comes from the caller's [`TimingMode`]. `Measured` takes the
//! wall clock around this crate's implementations, as the paper does.
//! `Deterministic` — the mode every test, smoke script and results document
//! runs in — prices the run with [`deterministic_partitioning_secs`], an
//! analytical proxy that keeps the paper's ordering (in-memory NE costs
//! orders of magnitude more than one-pass hashing, with 2PS/HDRF/HEP in
//! between) but reads no clock.

use crate::assignment::EdgePartition;
use crate::metrics::QualityMetrics;
use crate::PartitionerId;
use ease_graph::PreparedGraph;
use std::time::Instant;

/// How partitioning run-times are obtained.
///
/// The paper measures real wall-clock times (step 2 of Fig. 5), which makes
/// full-pipeline retraining inherently non-bit-identical. `Deterministic`
/// replaces the measurement with a reproducible analytical proxy so that
/// training becomes a pure function of its config — the mode CI uses to
/// guard future parallelism work against nondeterminism regressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingMode {
    /// Wall-clock measurement of the real partitioner implementations.
    #[default]
    Measured,
    /// Reproducible analytical cost proxy (same ordering: in-memory ≫
    /// hybrid ≫ stateful ≫ stateless; grows with |E| and log k). Under this
    /// mode the runner never consults the system clock.
    Deterministic,
}

impl TimingMode {
    pub fn name(self) -> &'static str {
        match self {
            TimingMode::Measured => "measured",
            TimingMode::Deterministic => "deterministic",
        }
    }

    /// Parse `measured` / `deterministic`.
    pub fn parse(s: &str) -> Option<TimingMode> {
        match s {
            "measured" => Some(TimingMode::Measured),
            "deterministic" => Some(TimingMode::Deterministic),
            _ => None,
        }
    }
}

/// Analytical stand-in for a partitioning run-time: per-edge cost scaled by
/// the partitioner category's empirical expense, with a mild log-k factor.
/// Only the *relative ordering* matters for training; the constants are
/// calibrated to the same orders of magnitude the measured mode produces on
/// the tiny corpora.
pub fn deterministic_partitioning_secs(p: PartitionerId, num_edges: usize, k: usize) -> f64 {
    use crate::Category;
    let per_edge = match p.category() {
        Category::StatelessStreaming => 20e-9,
        Category::StatefulStreaming => 90e-9,
        Category::Hybrid => 250e-9,
        Category::InMemory => 900e-9,
    };
    let m = num_edges.max(1) as f64;
    per_edge * m * (1.0 + (k.max(2) as f64).log2() / 8.0)
}

/// One profiled partitioning execution.
#[derive(Debug, Clone)]
pub struct PartitionRun {
    pub partitioner: PartitionerId,
    pub k: usize,
    pub metrics: QualityMetrics,
    pub partition: EdgePartition,
    /// Seconds spent inside [`crate::Partitioner::partition_prepared`] —
    /// wall-clock under [`TimingMode::Measured`], the analytical proxy under
    /// [`TimingMode::Deterministic`].
    pub partitioning_secs: f64,
}

/// Execute `partitioner` with `k` partitions on a shared [`PreparedGraph`]
/// context and record run-time + quality metrics — the profiling entry
/// point: one context per graph feeds every partitioner × k measurement, so
/// degree tables are derived once instead of per run. Under
/// [`TimingMode::Deterministic`] the system clock is never consulted, so the
/// produced record is a pure function of `(graph, partitioner, k, seed)`.
///
/// Under [`TimingMode::Measured`] the wall clock covers only the
/// partitioning call itself; warm the context first (properties extraction
/// does) so the first degree-hungry partitioner is not charged for the
/// shared derivation.
pub fn run_partitioner_prepared(
    partitioner: PartitionerId,
    prepared: &PreparedGraph<'_>,
    k: usize,
    seed: u64,
    timing: TimingMode,
) -> PartitionRun {
    let p = partitioner.build(seed);
    let (partition, partitioning_secs) = match timing {
        TimingMode::Measured => {
            let start = Instant::now();
            let partition = p.partition_prepared(prepared, k);
            let secs = start.elapsed().as_secs_f64();
            (partition, secs)
        }
        TimingMode::Deterministic => {
            let partition = p.partition_prepared(prepared, k);
            (partition, deterministic_partitioning_secs(partitioner, prepared.num_edges(), k))
        }
    };
    let metrics = QualityMetrics::compute_prepared(prepared, &partition);
    PartitionRun { partitioner, k, metrics, partition, partitioning_secs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ease_graphgen::rmat::{Rmat, RMAT_COMBOS};

    #[test]
    fn run_produces_consistent_record() {
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[3], 512, 3_000, 1).generate());
        let run = run_partitioner_prepared(PartitionerId::Dbh, &g, 8, 42, TimingMode::Measured);
        assert_eq!(run.partitioner, PartitionerId::Dbh);
        assert_eq!(run.k, 8);
        assert_eq!(run.partition.num_edges(), g.num_edges());
        assert!(run.partitioning_secs >= 0.0);
        assert!(run.metrics.replication_factor >= 1.0);
    }

    #[test]
    fn all_eleven_partitioners_run_end_to_end() {
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[5], 512, 4_000, 2).generate());
        for id in PartitionerId::ALL {
            let run = run_partitioner_prepared(id, &g, 4, 7, TimingMode::Measured);
            assert_eq!(run.partition.num_edges(), g.num_edges(), "{id:?}");
            assert!(run.metrics.edge_balance >= 1.0, "{id:?}");
            assert!(run.metrics.vertex_balance >= 1.0, "{id:?}");
        }
    }

    #[test]
    fn deterministic_mode_is_a_pure_function_of_the_inputs() {
        let g = Rmat::new(RMAT_COMBOS[2], 256, 2_000, 9).generate();
        let prepared = PreparedGraph::of(&g);
        let run = |timing| run_partitioner_prepared(PartitionerId::Hdrf, &prepared, 8, 3, timing);
        let a = run(TimingMode::Deterministic);
        let b = run(TimingMode::Deterministic);
        // bit-identical run-times across executions: no wall clock involved
        assert_eq!(a.partitioning_secs.to_bits(), b.partitioning_secs.to_bits());
        assert_eq!(
            a.partitioning_secs,
            deterministic_partitioning_secs(PartitionerId::Hdrf, g.num_edges(), 8)
        );
        // the partition itself is unaffected by the timing mode
        let measured = run(TimingMode::Measured);
        assert_eq!(a.metrics.replication_factor, measured.metrics.replication_factor);
    }

    #[test]
    fn deterministic_proxy_orders_partitioner_categories() {
        let m = 50_000;
        let fast = deterministic_partitioning_secs(PartitionerId::OneDD, m, 8);
        let stateful = deterministic_partitioning_secs(PartitionerId::Hdrf, m, 8);
        let hybrid = deterministic_partitioning_secs(PartitionerId::Hep10, m, 8);
        let slow = deterministic_partitioning_secs(PartitionerId::Ne, m, 8);
        assert!(fast < stateful && stateful < hybrid && hybrid < slow);
        // grows with k
        assert!(
            deterministic_partitioning_secs(PartitionerId::Ne, m, 128)
                > deterministic_partitioning_secs(PartitionerId::Ne, m, 2)
        );
    }

    #[test]
    fn in_memory_costs_more_time_than_hashing() {
        // The central trade-off of the paper's Sec. III: NE is slower to
        // partition than stateless hashing. Use a graph large enough for the
        // signal to dominate timer noise.
        let g = PreparedGraph::new(Rmat::new(RMAT_COMBOS[6], 1 << 12, 60_000, 3).generate());
        let secs = |id, seed| {
            run_partitioner_prepared(id, &g, 8, seed, TimingMode::Measured).partitioning_secs
        };
        let fast: f64 = (0..3).map(|s| secs(PartitionerId::OneDD, s)).sum();
        let slow: f64 = (0..3).map(|s| secs(PartitionerId::Ne, s)).sum();
        assert!(slow > fast, "ne {slow} vs 1dd {fast}");
    }
}
