//! Training-data acquisition — steps 1–3 of the paper's training pipeline
//! (Fig. 5): obtain graphs, partition them with every partitioner and
//! measure quality + run-time, then execute the processing workloads and
//! measure their (simulated) run-time.
//!
//! Both passes return one [`ProfileRun`] per (graph, partitioner, k): the
//! paper partitions a graph once per partitioner and runs every workload
//! on that partitioning, so a processing run carries its workloads' costs
//! beside its partitioning's quality and time. The runs of one graph share
//! its [`ProfiledGraph`] row and come back consecutive, in corpus order.
//!
//! Profiling fans out over graphs on the queue model selection runs on
//! ([`ease_ml::cv::ticketed`], largest graph first); each worker prepares
//! its graph in memory exactly once — one [`PreparedGraph`] context feeds
//! the property extraction *and* every partitioner × k × workload
//! measurement — and drops it, so a worker holds one graph at a time and
//! the corpora are never materialized at once. R-MAT specs are generated
//! on the worker that profiles them; materialized inputs are borrowed in
//! place (no per-worker deep copies of the edge list). Nothing is shared
//! across the two corpora: they share no spec (see [`PreparedPool`], of
//! which only the overlap is left).

use ease_graph::{GraphProperties, PreparedGraph, PropertyTier};
use ease_graphgen::grids::RmatSpec;
use ease_graphgen::realworld::{GraphType, TestGraph};
use ease_ml::cv::ticketed;
use ease_partition::{run_partitioner_prepared, PartitionRun, PartitionerId, QualityMetrics};
use ease_procsim::{ClusterSpec, DistributedGraph, Workload};
use std::sync::Arc;

// The timing mode lives next to the partition runner so the runner itself
// can skip the wall clock under `Deterministic`; re-exported here because
// it is part of the pipeline configuration surface.
pub use ease_partition::runner::{deterministic_partitioning_secs, TimingMode};

/// A graph to profile: either a lazily generated R-MAT spec or an already
/// materialized test graph.
#[derive(Debug, Clone)]
pub enum GraphInput {
    Rmat(RmatSpec),
    Materialized(TestGraph),
}

impl GraphInput {
    pub fn name(&self) -> &str {
        match self {
            GraphInput::Rmat(s) => &s.name,
            GraphInput::Materialized(t) => &t.name,
        }
    }

    pub fn graph_type(&self) -> Option<GraphType> {
        match self {
            GraphInput::Rmat(_) => None,
            GraphInput::Materialized(t) => Some(t.graph_type),
        }
    }

    /// Edge count, known without generating the graph.
    fn num_edges(&self) -> usize {
        match self {
            GraphInput::Rmat(s) => s.num_edges,
            GraphInput::Materialized(t) => t.graph.num_edges(),
        }
    }

    /// The profiling entry point: an in-memory [`PreparedGraph`] analysis
    /// context over this input, built on the worker that profiles it. An
    /// R-MAT spec is generated into an owned edge list (`8 bytes × |E|`,
    /// freed with the context); each call generates it afresh, and nothing
    /// outlives the context. A materialized test graph is *borrowed in
    /// place* — the workers share `&t.graph`, no deep copy.
    pub fn prepare(&self) -> PreparedGraph<'_> {
        match self {
            GraphInput::Rmat(s) => PreparedGraph::new(s.generate()),
            GraphInput::Materialized(t) => PreparedGraph::of(&t.graph),
        }
    }

    pub fn from_specs(specs: Vec<RmatSpec>) -> Vec<GraphInput> {
        specs.into_iter().map(GraphInput::Rmat).collect()
    }

    pub fn from_tests(tests: Vec<TestGraph>) -> Vec<GraphInput> {
        tests.into_iter().map(GraphInput::Materialized).collect()
    }

    /// A stable identity for "this input materializes the same graph":
    /// every generation parameter for R-MAT specs (float params captured by
    /// their bits), and the *content fingerprint* for materialized test
    /// graphs — their names (`soc-000`, ...) encode neither scale nor seed,
    /// so name-keying would alias different graphs across corpora. The
    /// fingerprint pass is one cheap traversal of an already in-memory
    /// edge list. Only [`PreparedPool::for_overlap`] reads the key:
    /// preparation itself is keyed by nothing, every input is prepared in
    /// memory on the worker that profiles it.
    fn spec_key(&self) -> String {
        match self {
            GraphInput::Rmat(s) => format!(
                "rmat/{}/{}/{:016x}{:016x}{:016x}{:016x}/{}/{}/{}",
                s.name,
                s.combo_index,
                s.params.a.to_bits(),
                s.params.b.to_bits(),
                s.params.c.to_bits(),
                s.params.d.to_bits(),
                s.num_vertices,
                s.num_edges,
                s.seed
            ),
            GraphInput::Materialized(t) => format!(
                "test/{}/{}/{:016x}",
                t.graph_type.name(),
                t.name,
                ease_graph::source::fingerprint_source(&t.graph)
            ),
        }
    }
}

/// How many specs the two profiling corpora share — all that is left of a
/// pool that once prepared such a spec once for both passes. No shipped
/// configuration has one: the R-MAT-SMALL and R-MAT-LARGE corpora share
/// none at any scale (`training_corpora_share_no_spec` in
/// `tests/pipeline_integration.rs`), and a shared R-MAT spec would simply
/// be generated once per pass. Every input is prepared in memory by
/// [`GraphInput::prepare`] on the worker that profiles it. The type and
/// [`profile_quality_pooled`] / [`profile_processing_pooled`] stay only
/// because `ease-bench`'s `train-tiny` workload names them.
pub struct PreparedPool {
    /// The spec keys both corpora contain — keys, not a count, because
    /// `train-tiny` calls `drop(pool)`, which `clippy::drop_non_drop`
    /// rejects for a type without drop glue.
    shared: std::collections::HashSet<String>,
}

impl PreparedPool {
    /// The overlap of the two corpora, by [`GraphInput`] spec key.
    pub fn for_overlap(a: &[GraphInput], b: &[GraphInput]) -> PreparedPool {
        let keys_a: std::collections::HashSet<String> =
            a.iter().map(GraphInput::spec_key).collect();
        let shared = b.iter().map(GraphInput::spec_key).filter(|k| keys_a.contains(k)).collect();
        PreparedPool { shared }
    }

    /// How many specs the two corpora share.
    pub fn overlap(&self) -> usize {
        self.shared.len()
    }
}

/// What every run on one graph shares: its name, its type (test graphs
/// only) and its properties, built once on the worker that profiles it.
#[derive(Debug, Clone)]
pub struct ProfiledGraph {
    pub name: String,
    pub graph_type: Option<GraphType>,
    pub props: GraphProperties,
}

/// One workload executed on a run's partitioning.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadCost {
    pub workload: Workload,
    /// The prediction target: average iteration time for fixed-iteration
    /// workloads, total time otherwise (paper Sec. V-C).
    pub target_secs: f64,
    /// Total processing time.
    pub total_secs: f64,
}

/// One partitioning run — a graph partitioned by one partitioner into `k`
/// parts — with its measured quality and partitioning time, and the cost
/// of every workload executed on that partitioning (none from
/// [`profile_quality_with`]). The training row of every predictor and a
/// row of every evaluation; the runs of one graph share its
/// [`ProfiledGraph`] and are consecutive in a profile.
#[derive(Debug, Clone)]
pub struct ProfileRun {
    pub graph: Arc<ProfiledGraph>,
    pub partitioner: PartitionerId,
    pub k: usize,
    pub metrics: QualityMetrics,
    pub partitioning_secs: f64,
    pub workloads: Vec<WorkloadCost>,
}

impl ProfileRun {
    /// A run of `graph` without workload costs.
    fn of(graph: &Arc<ProfiledGraph>, run: &PartitionRun) -> ProfileRun {
        ProfileRun {
            graph: Arc::clone(graph),
            partitioner: run.partitioner,
            k: run.k,
            metrics: run.metrics,
            partitioning_secs: run.partitioning_secs,
            workloads: Vec::new(),
        }
    }

    /// The cost of the workload named `name`, if it ran on this partitioning.
    /// A profile's workloads have distinct names (`EaseServiceBuilder`
    /// rejects a list that repeats one), so the name identifies the cost.
    pub fn cost(&self, name: &str) -> Option<&WorkloadCost> {
        self.workloads.iter().find(|c| c.workload.name() == name)
    }

    /// Whether `other` is a run of the same graph row.
    pub fn same_graph(&self, other: &ProfileRun) -> bool {
        Arc::ptr_eq(&self.graph, &other.graph)
    }
}

/// Prepare each input once, extract its properties into its
/// [`ProfiledGraph`] and run `f` over both on [`ticketed`]'s threads,
/// collecting the runs. One graph per worker is the only level of
/// parallelism: every pass inside a [`PreparedGraph`] runs on the worker
/// that asked for it, and the context is dropped when `f` returns. Tickets
/// go out in descending edge count, runs come back in input order.
fn profile_each(
    inputs: &[GraphInput],
    f: impl Fn(&PreparedGraph, &Arc<ProfiledGraph>) -> Vec<ProfileRun> + Sync,
) -> Vec<ProfileRun> {
    // largest first: the greedy queue's makespan is worst when the biggest
    // graph is handed out last (stable sort — equal sizes keep input order)
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(inputs[i].num_edges()));
    let outputs = ticketed(order.len(), |t| {
        let input = &inputs[order[t]];
        let prepared = input.prepare();
        // Extracting properties first also warms the context (degree
        // table, triangles), so no partitioner run is charged for the
        // shared derivation under measured timing.
        let graph = Arc::new(ProfiledGraph {
            name: input.name().to_string(),
            graph_type: input.graph_type(),
            props: prepared.properties(PropertyTier::Advanced),
        });
        f(&prepared, &graph)
    });
    let mut chunks: Vec<(usize, Vec<ProfileRun>)> = order.into_iter().zip(outputs).collect();
    chunks.sort_by_key(|(idx, _)| *idx);
    chunks.into_iter().flat_map(|(_, out)| out).collect()
}

/// Step 2 of the pipeline: partition every input graph with every
/// partitioner for every `k`, recording quality metrics and the
/// partitioning time as `timing` obtains it.
pub fn profile_quality_with(
    inputs: &[GraphInput],
    partitioners: &[PartitionerId],
    ks: &[usize],
    seed: u64,
    timing: TimingMode,
) -> Vec<ProfileRun> {
    profile_each(inputs, |prepared, graph| {
        let mut out = Vec::with_capacity(partitioners.len() * ks.len());
        for &p in partitioners {
            for &k in ks {
                let run = run_partitioner_prepared(p, prepared, k, seed ^ k as u64, timing);
                out.push(ProfileRun::of(graph, &run));
            }
        }
        out
    })
}

/// [`profile_quality_with`]; the pool is not read (see [`PreparedPool`]).
pub fn profile_quality_pooled(
    inputs: &[GraphInput],
    partitioners: &[PartitionerId],
    ks: &[usize],
    seed: u64,
    timing: TimingMode,
    _pool: &PreparedPool,
) -> Vec<ProfileRun> {
    profile_quality_with(inputs, partitioners, ks, seed, timing)
}

/// Steps 2+3 combined for the time predictors: partition with every
/// partitioner at a fixed `k` (partitioning time as `timing` obtains it),
/// then execute every workload on the partitioned graph with the cluster
/// cost model.
///
/// Each workload runs once per graph, not once per placement: which vertices
/// are active in which superstep does not depend on the partitioning, so the
/// activity traces are taken on the first partitioner's placement and every
/// placement — that one included — is priced from them.
pub fn profile_processing_with(
    inputs: &[GraphInput],
    partitioners: &[PartitionerId],
    k: usize,
    workloads: &[Workload],
    seed: u64,
    timing: TimingMode,
) -> Vec<ProfileRun> {
    let cluster = ClusterSpec::new(k);
    profile_each(inputs, |prepared, graph| {
        let mut out = Vec::with_capacity(partitioners.len());
        let mut traces = None;
        for &p in partitioners {
            let run = run_partitioner_prepared(p, prepared, k, seed, timing);
            let dg = DistributedGraph::build_prepared(prepared, &run.partition);
            let traces: &Vec<_> =
                traces.get_or_insert_with(|| workloads.iter().map(|w| w.trace(&dg)).collect());
            let costs = workloads.iter().zip(traces).map(|(&w, trace)| {
                let report = w.price(trace, &dg, &cluster);
                let target_secs = w.prediction_target(&report);
                WorkloadCost { workload: w, target_secs, total_secs: report.total_secs }
            });
            out.push(ProfileRun { workloads: costs.collect(), ..ProfileRun::of(graph, &run) });
        }
        out
    })
}

/// [`profile_processing_with`]; the pool is not read (see [`PreparedPool`]).
pub fn profile_processing_pooled(
    inputs: &[GraphInput],
    partitioners: &[PartitionerId],
    k: usize,
    workloads: &[Workload],
    seed: u64,
    timing: TimingMode,
    _pool: &PreparedPool,
) -> Vec<ProfileRun> {
    profile_processing_with(inputs, partitioners, k, workloads, seed, timing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ease_graphgen::rmat::RmatParams;

    fn tiny_inputs(n: usize) -> Vec<GraphInput> {
        (0..n)
            .map(|i| {
                GraphInput::Rmat(RmatSpec {
                    name: format!("tiny-{i}"),
                    combo_index: i % 9,
                    params: RmatParams::new(0.45, 0.22, 0.22, 0.11),
                    num_vertices: 128,
                    num_edges: 700,
                    seed: i as u64,
                })
            })
            .collect()
    }

    #[test]
    fn quality_profiling_covers_the_cross_product() {
        let inputs = tiny_inputs(3);
        let parts = [PartitionerId::OneDD, PartitionerId::Hdrf];
        let runs = profile_quality_with(&inputs, &parts, &[2, 4], 1, TimingMode::Measured);
        assert_eq!(runs.len(), 3 * 2 * 2);
        for r in &runs {
            assert!(r.metrics.replication_factor >= 1.0);
            assert!(r.partitioning_secs >= 0.0);
            assert!(r.graph.props.avg_lcc.is_some(), "advanced props computed");
            assert!(r.workloads.is_empty());
        }
        // all combos present, one graph row per input
        let combos: std::collections::HashSet<_> =
            runs.iter().map(|r| (Arc::as_ptr(&r.graph), r.partitioner, r.k)).collect();
        assert_eq!(combos.len(), 12);
        assert_eq!(runs.chunk_by(ProfileRun::same_graph).count(), 3);
    }

    #[test]
    fn processing_profiling_executes_workloads() {
        let inputs = tiny_inputs(2);
        let parts = [PartitionerId::Dbh];
        let workloads = [Workload::PageRank { iterations: 3 }, Workload::ConnectedComponents];
        let runs = profile_processing_with(&inputs, &parts, 4, &workloads, 2, TimingMode::Measured);
        assert_eq!(runs.len(), 2); // 2 graphs x 1 partitioner
        for r in &runs {
            assert_eq!(r.workloads.len(), 2);
            for (c, w) in r.workloads.iter().zip(workloads) {
                assert_eq!(c.workload, w);
                assert!(c.target_secs > 0.0, "{}", w.name());
                assert!(c.total_secs >= c.target_secs * 0.99);
            }
        }
    }

    #[test]
    fn materialized_inputs_round_trip() {
        let tg = ease_graphgen::realworld::generate_typed(
            GraphType::Social,
            0,
            ease_graphgen::Scale::Tiny,
            3,
        );
        let gi = GraphInput::Materialized(tg.clone());
        assert_eq!(gi.graph_type(), Some(GraphType::Social));
        assert_eq!(gi.prepare().num_edges(), tg.graph.num_edges());
    }

    #[test]
    fn prepare_borrows_materialized_graphs_instead_of_copying() {
        let tg = ease_graphgen::realworld::generate_typed(
            GraphType::Web,
            0,
            ease_graphgen::Scale::Tiny,
            5,
        );
        let gi = GraphInput::Materialized(tg.clone());
        let prepared = gi.prepare();
        // borrowed in place: the prepared context points at the input's own
        // edge storage, not at a per-worker deep copy
        let GraphInput::Materialized(inner) = &gi else { unreachable!() };
        let borrowed = prepared.source().edge_slice().expect("in-memory source");
        assert!(std::ptr::eq(borrowed, inner.graph.edges()));
        // R-MAT specs are generated in memory: the context owns the edge
        // list, keeps the slice fast path, and holds the same edge stream
        // as a direct generate
        let spec = tiny_inputs(1).remove(0);
        let generated = spec.prepare();
        assert!(generated.source().edge_slice().is_some(), "in-memory edge list");
        assert_eq!(generated.num_edges(), 700);
        let GraphInput::Rmat(s) = &spec else { unreachable!() };
        let direct = PreparedGraph::new(s.generate());
        assert_eq!(generated.fingerprint(), direct.fingerprint(), "same edge stream bit-for-bit");
    }

    #[test]
    fn each_prepare_of_a_spec_holds_its_own_edge_list() {
        let spec = tiny_inputs(1).remove(0);
        let (first, second) = (spec.prepare(), spec.prepare());
        let ptr = |p: &PreparedGraph| p.source().edge_slice().map(<[_]>::as_ptr);
        assert!(ptr(&first).is_some());
        assert_ne!(ptr(&first), ptr(&second), "nothing is shared between two prepares");
        assert_eq!(first.fingerprint(), second.fingerprint());
    }

    /// A run's graph row, partitioning and every `f64` of both, by bit
    /// pattern; the workload costs are not included.
    fn run_bits(r: &ProfileRun) -> (String, Option<GraphType>, PartitionerId, usize, Vec<u64>) {
        let mut values = r.graph.props.feature_vector(PropertyTier::Advanced);
        values.extend(r.metrics.as_vector());
        values.push(r.partitioning_secs);
        let bits = values.iter().map(|v| v.to_bits()).collect();
        (r.graph.name.clone(), r.graph.graph_type, r.partitioner, r.k, bits)
    }

    #[test]
    fn profiling_twice_in_one_process_is_bit_identical() {
        // nothing is cached across passes: the second pass generates every
        // spec again and must land on the same runs, bit for bit
        let inputs = tiny_inputs(3);
        let parts = [PartitionerId::OneDD, PartitionerId::Hdrf, PartitionerId::Ne];
        let workloads = [Workload::PageRank { iterations: 3 }, Workload::ConnectedComponents];
        let quality = || {
            profile_quality_with(&inputs, &parts, &[2, 4], 7, TimingMode::Deterministic)
                .iter()
                .map(run_bits)
                .collect::<Vec<_>>()
        };
        let processing = || {
            profile_processing_with(&inputs, &parts, 4, &workloads, 7, TimingMode::Deterministic)
                .iter()
                .map(|r| {
                    let costs = r.workloads.iter().map(|c| {
                        (c.workload.name(), c.target_secs.to_bits(), c.total_secs.to_bits())
                    });
                    (run_bits(r), costs.collect::<Vec<_>>())
                })
                .collect::<Vec<_>>()
        };
        let (q1, p1) = (quality(), processing());
        assert_eq!(q1.len(), 3 * 3 * 2);
        assert_eq!(p1.len(), 3 * 3);
        assert!(p1.iter().all(|(_, costs)| costs.len() == 2));
        assert_eq!(q1, quality());
        assert_eq!(p1, processing());
    }

    /// The partitioning-time predictor trains on processing runs: a
    /// processing run at `k` with seed `s ^ k` must be the quality run at
    /// `k` with seed `s` — graph row, partitioner, `k`, metrics and
    /// partitioning time bit for bit — for R-MAT specs and test graphs.
    #[test]
    fn both_profilers_build_the_same_run() {
        let mut inputs = tiny_inputs(2);
        inputs.extend(GraphInput::from_tests(vec![ease_graphgen::realworld::generate_typed(
            GraphType::Social,
            1,
            ease_graphgen::Scale::Tiny,
            9,
        )]));
        let (k, seed, timing) = (4, 11u64, TimingMode::Deterministic);
        let parts = PartitionerId::ALL;
        let workloads = [Workload::PageRank { iterations: 2 }, Workload::KCores];
        let quality = profile_quality_with(&inputs, &parts, &[k], seed, timing);
        let processing =
            profile_processing_with(&inputs, &parts, k, &workloads, seed ^ k as u64, timing);
        assert_eq!(quality.len(), 3 * parts.len());
        let bits = |runs: &[ProfileRun]| runs.iter().map(run_bits).collect::<Vec<_>>();
        assert_eq!(bits(&quality), bits(&processing));
        assert!(processing.iter().all(|r| r.workloads.len() == workloads.len()));
    }
}
