//! Graph data structures and property extraction for the EASE reproduction.
//!
//! This crate provides the substrate every other crate builds on:
//!
//! * [`Graph`] — an owned directed edge list with a known vertex count,
//! * [`Csr`] — compressed sparse row *simple* adjacency: the undirected
//!   simple graph, or the triangle kernel's rank-space forward lists,
//! * [`DegreeTable`] — degree statistics including Pearson's first skewness
//!   coefficient used by the paper as a machine-learning feature,
//! * [`triangles`] — per-vertex triangle counts and local clustering
//!   coefficients,
//! * [`GraphProperties`] — the simple/basic/advanced feature tiers of
//!   Table III of the paper, extracted by [`PreparedGraph::properties`],
//! * [`PreparedGraph`] — the one way into every analysis: a build-once,
//!   share-everywhere context over one [`GraphSource`] that lazily
//!   memoizes the degree table, the triangle counts and a stable content
//!   fingerprint, each built by sequential passes over the edge stream —
//!   callers parallelise across graphs, never inside one,
//! * [`GraphSource`] — the ingestion seam: the in-memory backend (a text
//!   edge list is read into a [`Graph`] by [`io`]) and the memory-mapped
//!   binary backend (`.bel`, [`bel`]), which replays its edge stream
//!   without an owned copy,
//! * [`hash`] — fast seeded mixing functions shared by the hash partitioners.
//!
//! Everything is deterministic: no global RNG state, no time-dependent
//! behaviour. Vertex ids are dense `u32`s in `0..num_vertices`.

#![deny(unsafe_op_in_unsafe_fn)]
// `unsafe` lives in two wrappers only — the `mmap(2)` binding and the
// validated read of a mapped spill file; anywhere else it takes a reviewed
// attribute change, not a diff hunk.
#![deny(unsafe_code)]

// Files are mapped with `mmap(2)` and the daemon listens on unix-domain
// sockets; no code in the workspace carries a branch for other targets.
#[cfg(not(unix))]
compile_error!("the EASE workspace builds on unix targets only");

pub mod bel;
pub mod budget;
pub mod csr;
pub mod degree;
pub mod edge_list;
pub mod hash;
pub mod io;
#[allow(unsafe_code)]
pub mod mmap;
pub mod prepared;
pub mod properties;
pub mod source;
#[allow(unsafe_code)]
pub mod spill;
pub mod triangles;
pub mod types;

pub use bel::BelSource;
pub use budget::MemoryBudget;
pub use csr::Csr;
pub use degree::DegreeTable;
pub use edge_list::Graph;
pub use io::GraphIoError;
pub use prepared::PreparedGraph;
pub use properties::{GraphProperties, PropertyTier};
pub use source::{is_bel_path, open_path, GraphSource};
pub use types::{Edge, VertexId};
