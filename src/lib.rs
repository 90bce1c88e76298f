//! Facade crate for the EASE reproduction workspace.
//!
//! The primary entry point is [`EaseService`] — *train once, query
//! cheaply*: [`EaseServiceBuilder`] trains a persistable selection service,
//! a graph enters once as a [`PreparedGraph`] whose properties the service
//! caches, [`EaseService::recommend`] answers with typed [`EaseError`]s, and
//! `save`/`load` round-trip the trained models bit-exactly. The `ease`
//! CLI binary (`cargo run --release --bin ease -- --help`) drives the same
//! lifecycle from the shell.
//!
//! The member crates stay reachable under one coherent namespace:
//!
//! ```
//! use ease_repro::graph::Graph;
//! use ease_repro::partition::PartitionerId;
//!
//! let g = Graph::from_pairs([(0, 1), (1, 2), (2, 0)]);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(PartitionerId::ALL.len(), 11);
//! ```
//!
//! Train a tiny service, persist it, reload it, and get identical answers —
//! the full lifecycle in one doctest:
//!
//! ```
//! use ease_repro::{EaseServiceBuilder, EaseService, OptGoal, PreparedGraph};
//! use ease_repro::core::profiling::TimingMode;
//! use ease_repro::graphgen::Scale;
//! use ease_repro::partition::PartitionerId;
//! use ease_repro::procsim::Workload;
//!
//! // deliberately minimal so the doctest runs in seconds
//! let service = EaseServiceBuilder::at_scale(Scale::Tiny)
//!     .quick_grid()
//!     .max_small_graphs(Some(6))
//!     .max_large_graphs(Some(4))
//!     .partition_counts(vec![2, 4])
//!     .partitioners(vec![PartitionerId::OneDD, PartitionerId::Dbh, PartitionerId::Ne])
//!     .workloads(vec![Workload::PageRank { iterations: 3 }])
//!     .folds(2)
//!     .timing(TimingMode::Deterministic)
//!     .train()?;
//!
//! let graph = ease_repro::graphgen::realworld::socfb_analogue(Scale::Tiny, 7).graph;
//! // advanced-tier properties, extracted once and cached by content
//! let props = service.cached_properties_prepared(&PreparedGraph::of(&graph));
//! // answered at the service's trained default k
//! let workload = Workload::PageRank { iterations: 3 };
//! let pick = service.recommend(&props, workload, OptGoal::EndToEnd)?;
//! assert!(service.catalog().contains(&pick.best));
//!
//! // save → load → identical selection
//! let path = std::env::temp_dir().join(format!("ease_doctest_{}.model", std::process::id()));
//! service.save(&path)?;
//! let restored = EaseService::load(&path)?;
//! std::fs::remove_file(&path).ok();
//! let again = restored.recommend(&props, workload, OptGoal::EndToEnd)?;
//! assert_eq!(pick.best, again.best);
//! # Ok::<(), ease_repro::EaseError>(())
//! ```

pub use ease as core;
pub use ease_graph as graph;
pub use ease_graphgen as graphgen;
pub use ease_ml as ml;
pub use ease_partition as partition;
pub use ease_procsim as procsim;

pub use ease::serve;
pub use ease::{
    EaseError, EaseService, EaseServiceBuilder, OptGoal, PropertyCacheStats, Selection, ServeError,
    ServiceInfo, ServiceMeta,
};
pub use ease_graph::{BelSource, GraphSource, PreparedGraph};
