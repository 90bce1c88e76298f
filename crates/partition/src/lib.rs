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
//! A partitioner is its [`PartitionerId`]: [`PartitionerId::partition`]
//! runs it on a [`PreparedGraph`], dispatching to one function per
//! algorithm module ([`hashing::one_d`], [`hdrf::partition`],
//! [`hep::partition`], …) with the catalog's settings (HEP's τ,
//! [`hdrf::LAMBDA`]).
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

/// The 11 partitioners of the paper, named as in its figures. Declared
/// in [`PartitionerId::ALL`]'s order, so a discriminant is a position.
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

    /// Position in [`Self::ALL`]: the discriminant, as `ALL` lists the
    /// variants in declaration order. It is the partitioner's one-hot
    /// column in the ML feature rows.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parse a paper-style name.
    pub fn parse(s: &str) -> Option<PartitionerId> {
        Self::ALL.iter().copied().find(|p| p.name() == s.to_ascii_lowercase())
    }

    /// Partition the edges of the prepared graph into `k` parts
    /// (`1 ≤ k ≤ 128`); `seed` drives hashing and tie-breaking, and a fixed
    /// seed gives a fixed placement.
    ///
    /// The [`PreparedGraph`] is an analysis context, so degree-hungry
    /// partitioners (DBH, HEP) reuse its memoized degree table instead of
    /// re-deriving it per run — profiling executes 11 partitioners × K on
    /// the same graph, and the shared context pays for the derivation once.
    /// Every algorithm consumes the context's replayable edge *stream*
    /// (never an owned slice), so all 11 run unchanged over either ingestion
    /// backend — in-memory ([`PreparedGraph::of`]) or memory-mapped `.bel`
    /// ([`PreparedGraph::of_source`]).
    pub fn partition(self, prepared: &PreparedGraph<'_>, k: usize, seed: u64) -> EdgePartition {
        use hashing::EndPoint;
        match self {
            PartitionerId::OneDD => hashing::one_d(prepared, k, seed, EndPoint::Destination),
            PartitionerId::OneDS => hashing::one_d(prepared, k, seed, EndPoint::Source),
            PartitionerId::TwoD => hashing::two_d(prepared, k, seed),
            PartitionerId::Crvc => hashing::crvc(prepared, k, seed),
            PartitionerId::Dbh => hashing::dbh(prepared, k, seed),
            PartitionerId::Hdrf => hdrf::partition(prepared, k, seed, hdrf::LAMBDA),
            PartitionerId::TwoPs => two_ps::partition(prepared, k),
            PartitionerId::Ne => ne::partition(prepared, k, seed),
            PartitionerId::Hep1 => hep::partition(prepared, k, seed, 1.0, None),
            PartitionerId::Hep10 => hep::partition(prepared, k, seed, 10.0, None),
            PartitionerId::Hep100 => hep::partition(prepared, k, seed, 100.0, None),
        }
    }
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
            assert_eq!(
                id.partition(&shared, 8, 7),
                id.partition(&PreparedGraph::of(&g), 8, 7),
                "{id:?}: a warm context must not change the placement"
            );
        }
        assert_eq!(shared.undirected_csr_builds(), 0, "no partitioner needs the CSR");
    }
}
