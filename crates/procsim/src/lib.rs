//! Distributed vertex-cut graph processing engine with an explicit cluster
//! cost model — the substitute for the paper's Spark/GraphX cluster
//! (DESIGN.md §2.1).
//!
//! [`engine::run`] executes vertex programs **for real** (PageRank ranks,
//! component ids, distances, core numbers and labels are all correct and
//! testable) over a graph that has been edge-partitioned across `k`
//! simulated machines. While executing, it charges a cost ledger modelled on
//! the PowerGraph/GraphX vertex-cut architecture:
//!
//! * masters broadcast vertex state to mirrors (bytes ∝ replication factor),
//! * each machine gathers along its local edges (compute ∝ local edges),
//! * mirrors pre-aggregate and ship accumulators back to masters
//!   (bytes + compute ∝ local vertex replicas),
//! * a superstep ends at a barrier: its wall time is the *maximum* over
//!   machines of compute time plus the maximum of network time plus a fixed
//!   latency — which is precisely how poor edge/vertex balance creates
//!   stragglers.
//!
//! This reproduces the paper's empirical structure: replication factor
//! drives communication-bound workloads (PageRank, Synthetic-High), vertex
//! balance drives computation-bound workloads (Label Propagation).
//!
//! [`Workload::execute`] returns that ledger's report without the states,
//! in two steps that callers placing one graph several times take apart.
//! [`Workload::trace`] is *what happens*: which vertices are active in which
//! superstep — a property of the graph and the program, not of the
//! placement. The *stationary* programs (PageRank, Label Propagation,
//! Synthetic: every covered vertex active in every one of a fixed number of
//! supersteps) declare it; the data-dependent ones (CC, SSSP, K-Cores) are
//! executed once, on any placement, to record it. [`Workload::price`] is
//! *what it costs here*: the report of a trace on one placement, from counts
//! over vertices and replicas after one pass over the local edges per 64
//! supersteps (none for a stationary program), computing no vertex state.
//! That is exact, not an approximation, because no ledger term depends on a
//! state value, only on which vertices are active (see [`engine`]) — so
//! profiling runs each workload once per graph and prices it once per
//! partitioner.

pub mod algorithms;
pub mod cluster;
pub mod engine;
pub mod placement;
pub mod workload;

pub use cluster::ClusterSpec;
pub use engine::{ActivityTrace, SimReport, VertexProgram};
pub use placement::DistributedGraph;
pub use workload::Workload;
