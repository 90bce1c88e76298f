//! EASE — **E**dge p**A**rtitioner **SE**lection (Merkel et al., ICDE 2023).
//!
//! The paper's primary contribution: a machine-learning system that, for a
//! given graph, graph-processing algorithm and optimization goal, predicts
//!
//! 1. the five partitioning quality metrics ([`QualityPredictor`]),
//! 2. the partitioning run-time ([`PartitioningTimePredictor`]),
//! 3. the processing run-time ([`ProcessingTimePredictor`]),
//!
//! for each of the 11 supported edge partitioners, and automatically picks
//! the partitioner minimizing either the processing time or the end-to-end
//! time ([`Ease::try_select`]).
//!
//! The training pipeline (paper Fig. 5) lives in [`profiling`] (steps 1–3:
//! generate graphs, partition + measure, process + measure) and
//! [`pipeline`] (step 4: model selection via 5-fold cross-validation and
//! training). [`enrich`] implements the Sec. V-D refinement of the
//! synthetic training set with real-world graphs, and [`evaluation`]
//! regenerates the paper's accuracy matrices and strategy comparisons.
//!
//! The primary entry point is the [`service`] module — *train once, query
//! cheaply*: [`EaseServiceBuilder`] trains a persistable [`EaseService`]
//! that extracts a graph's properties through its property cache
//! ([`EaseService::cached_properties_prepared`]), answers selection queries
//! with typed [`EaseError`]s ([`EaseService::recommend`]), and whose
//! `save`/`load` round-trip the trained models bit-exactly through a
//! versioned binary codec. The [`serve`] module
//! turns a persisted service into a long-running daemon behind a
//! unix-domain socket — one warm model + property cache answering
//! concurrent clients, bit-identically to the one-shot CLI.
//!
//! ```no_run
//! use ease::{EaseServiceBuilder, OptGoal};
//! use ease_graphgen::Scale;
//! use ease_procsim::Workload;
//!
//! let service = EaseServiceBuilder::at_scale(Scale::Tiny).train()?;
//! let graph = ease_graphgen::realworld::socfb_analogue(Scale::Tiny, 42).graph;
//! let props = service.cached_properties_prepared(&ease_graph::PreparedGraph::of(&graph));
//! let pick = service.recommend(&props, Workload::PageRank { iterations: 10 }, OptGoal::EndToEnd)?;
//! println!("EASE picks {}", pick.best.name());
//! # Ok::<(), ease::EaseError>(())
//! ```

pub mod enrich;
pub mod error;
pub mod evaluation;
pub mod features;
pub mod pipeline;
pub mod predictors;
pub mod profiling;
pub mod selector;
pub mod serve;
pub mod service;

pub use error::{EaseError, ServeError};
pub use predictors::{PartitioningTimePredictor, ProcessingTimePredictor, QualityPredictor};
pub use selector::{Ease, OptGoal, Selection};
pub use service::{EaseService, EaseServiceBuilder, PropertyCacheStats, ServiceInfo, ServiceMeta};
