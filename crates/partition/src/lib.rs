//! Edge partitioners and partitioning quality metrics.
//!
//! Implements the 11 partitioners of the paper's evaluation (Sec. V-C),
//! covering all four categories of the taxonomy in Sec. I:
//!
//! * **Stateless streaming** — `1DD`, `1DS` (1-dimensional destination /
//!   source hashing), `2D` (grid hashing), `CRVC` (canonical random vertex
//!   cut), `DBH` (degree-based hashing).
//! * **Stateful streaming** — `HDRF` (high-degree replicated first),
//!   `2PS` (two-phase streaming: clustering then placement).
//! * **In-memory** — `NE` (neighborhood expansion).
//! * **Hybrid** — `HEP-τ` for τ ∈ {1, 10, 100} (in-memory NE on the
//!   low-degree part, streaming on the rest); each τ is treated as its own
//!   partitioner, exactly as the paper does.
//!
//! The [`metrics`] module computes the five quality metrics of Sec. II-A:
//! replication factor and the edge/vertex/source/destination balances.

pub mod assignment;
pub mod hashing;
pub mod hdrf;
pub mod hep;
pub mod metrics;
pub mod ne;
pub mod runner;
pub mod two_ps;

pub use assignment::EdgePartition;
pub use metrics::{QualityMetrics, QualityTarget};
pub use runner::{
    deterministic_partitioning_secs, run_partitioner_prepared, PartitionRun, TimingMode,
};

use ease_graph::PreparedGraph;

/// Taxonomy of partitioner categories (paper Sec. I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    StatelessStreaming,
    StatefulStreaming,
    InMemory,
    Hybrid,
}

impl Category {
    pub fn name(self) -> &'static str {
        match self {
            Category::StatelessStreaming => "stateless-streaming",
            Category::StatefulStreaming => "stateful-streaming",
            Category::InMemory => "in-memory",
            Category::Hybrid => "hybrid",
        }
    }
}

/// The 11 partitioners of the paper, named as in its figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PartitionerId {
    OneDD,
    OneDS,
    TwoD,
    TwoPs,
    Crvc,
    Dbh,
    Hdrf,
    Hep1,
    Hep10,
    Hep100,
    Ne,
}

impl PartitionerId {
    /// All partitioners in the column order of the paper's Fig. 7 heatmaps.
    pub const ALL: [PartitionerId; 11] = [
        PartitionerId::OneDD,
        PartitionerId::OneDS,
        PartitionerId::TwoD,
        PartitionerId::TwoPs,
        PartitionerId::Crvc,
        PartitionerId::Dbh,
        PartitionerId::Hdrf,
        PartitionerId::Hep1,
        PartitionerId::Hep10,
        PartitionerId::Hep100,
        PartitionerId::Ne,
    ];

    pub fn name(self) -> &'static str {
        match self {
            PartitionerId::OneDD => "1dd",
            PartitionerId::OneDS => "1ds",
            PartitionerId::TwoD => "2d",
            PartitionerId::TwoPs => "2ps",
            PartitionerId::Crvc => "crvc",
            PartitionerId::Dbh => "dbh",
            PartitionerId::Hdrf => "hdrf",
            PartitionerId::Hep1 => "hep1",
            PartitionerId::Hep10 => "hep10",
            PartitionerId::Hep100 => "hep100",
            PartitionerId::Ne => "ne",
        }
    }

    pub fn category(self) -> Category {
        match self {
            PartitionerId::OneDD
            | PartitionerId::OneDS
            | PartitionerId::TwoD
            | PartitionerId::Crvc
            | PartitionerId::Dbh => Category::StatelessStreaming,
            PartitionerId::TwoPs | PartitionerId::Hdrf => Category::StatefulStreaming,
            PartitionerId::Ne => Category::InMemory,
            PartitionerId::Hep1 | PartitionerId::Hep10 | PartitionerId::Hep100 => Category::Hybrid,
        }
    }

    /// Index into [`Self::ALL`] (stable across the workspace — used for
    /// one-hot encoding in the ML feature builder).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&p| p == self).expect("id in ALL")
    }

    /// Parse a paper-style name.
    pub fn parse(s: &str) -> Option<PartitionerId> {
        Self::ALL.iter().copied().find(|p| p.name() == s.to_ascii_lowercase())
    }

    /// Instantiate the partitioner with a hash/tie-breaking seed.
    pub fn build(self, seed: u64) -> Box<dyn Partitioner> {
        match self {
            PartitionerId::OneDD => Box::new(hashing::OneD::destination(seed)),
            PartitionerId::OneDS => Box::new(hashing::OneD::source(seed)),
            PartitionerId::TwoD => Box::new(hashing::TwoD::new(seed)),
            PartitionerId::Crvc => Box::new(hashing::Crvc::new(seed)),
            PartitionerId::Dbh => Box::new(hashing::Dbh::new(seed)),
            PartitionerId::Hdrf => Box::new(hdrf::Hdrf::new(seed)),
            PartitionerId::TwoPs => Box::new(two_ps::TwoPs::new(seed)),
            PartitionerId::Ne => Box::new(ne::Ne::new(seed)),
            PartitionerId::Hep1 => Box::new(hep::Hep::new(1.0, seed)),
            PartitionerId::Hep10 => Box::new(hep::Hep::new(10.0, seed)),
            PartitionerId::Hep100 => Box::new(hep::Hep::new(100.0, seed)),
        }
    }
}

/// An edge partitioner: assigns every edge of a graph to one of `k`
/// partitions. Implementations must be deterministic for a fixed seed.
///
/// The one entry point, [`Partitioner::partition_prepared`], takes a
/// [`PreparedGraph`] analysis context so degree-hungry partitioners (DBH,
/// HEP) reuse the memoized degree table instead of re-deriving it per run —
/// profiling executes 11 partitioners × K on the same graph, and the shared
/// context pays for the derivation once. Every implementation consumes the
/// context's replayable edge *stream* (never an owned slice), so all 11
/// partitioners run unchanged over any ingestion backend — in-memory
/// ([`PreparedGraph::of`]), memory-mapped `.bel`, or streamed text
/// ([`PreparedGraph::of_source`]).
pub trait Partitioner: Send + Sync {
    fn id(&self) -> PartitionerId;

    /// Partition the edges of the prepared graph into `k` parts
    /// (`1 ≤ k ≤ 128`), reusing the context's memoized derived structure.
    fn partition_prepared(&self, prepared: &PreparedGraph<'_>, k: usize) -> EdgePartition;
}

/// Maximum supported partition count (replica sets are u128 bitmasks; the
/// paper's largest K is also 128).
pub const MAX_PARTITIONS: usize = 128;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_partitioners() {
        assert_eq!(PartitionerId::ALL.len(), 11);
        let names: std::collections::HashSet<_> =
            PartitionerId::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn category_taxonomy_matches_paper() {
        use Category::*;
        assert_eq!(PartitionerId::OneDD.category(), StatelessStreaming);
        assert_eq!(PartitionerId::Dbh.category(), StatelessStreaming);
        assert_eq!(PartitionerId::Hdrf.category(), StatefulStreaming);
        assert_eq!(PartitionerId::TwoPs.category(), StatefulStreaming);
        assert_eq!(PartitionerId::Ne.category(), InMemory);
        assert_eq!(PartitionerId::Hep10.category(), Hybrid);
    }

    #[test]
    fn parse_round_trips() {
        for p in PartitionerId::ALL {
            assert_eq!(PartitionerId::parse(p.name()), Some(p));
        }
        assert_eq!(PartitionerId::parse("HDRF"), Some(PartitionerId::Hdrf));
        assert_eq!(PartitionerId::parse("metis"), None);
    }

    #[test]
    fn index_is_position_in_all() {
        for (i, p) in PartitionerId::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    /// One context serves all eleven partitioners: each answers on the
    /// shared, already-warm context exactly what it answers on a fresh one,
    /// and none of them builds the undirected CSR.
    #[test]
    fn a_shared_context_serves_every_partitioner_without_a_csr() {
        let g = ease_graphgen::rmat::Rmat::new(ease_graphgen::rmat::RMAT_COMBOS[4], 512, 4_000, 11)
            .generate();
        let shared = PreparedGraph::of(&g);
        for id in PartitionerId::ALL {
            let p = id.build(7);
            assert_eq!(
                p.partition_prepared(&shared, 8),
                p.partition_prepared(&PreparedGraph::of(&g), 8),
                "{id:?}: a warm context must not change the placement"
            );
        }
        assert_eq!(shared.undirected_csr_builds(), 0, "no partitioner needs the CSR");
    }
}
