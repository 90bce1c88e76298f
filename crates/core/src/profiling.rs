//! Training-data acquisition — steps 1–3 of the paper's training pipeline
//! (Fig. 5): obtain graphs, partition them with every partitioner and
//! measure quality + run-time, then execute the processing workloads and
//! measure their (simulated) run-time.
//!
//! Profiling fans out over graphs on the queue model selection runs on
//! ([`ease_ml::cv::ticketed`], largest graph first); each worker prepares
//! its graph exactly once — one [`PreparedGraph`] context feeds the
//! property extraction *and* every partitioner × k × workload measurement —
//! and drops it; the corpora are never materialized at once. Materialized
//! inputs are borrowed in place (no per-worker deep copies of the edge
//! list). Nothing is shared across the two corpora: they share no spec
//! (see [`PreparedPool`], of which only the overlap is left).

use ease_graph::bel::{BelSource, BelWriter};
use ease_graph::{GraphProperties, PreparedGraph, PropertyTier};
use ease_graphgen::grids::RmatSpec;
use ease_graphgen::realworld::{GraphType, TestGraph};
use ease_graphgen::rmat::Rmat;
use ease_ml::cv::ticketed;
use ease_partition::{run_partitioner_prepared, PartitionerId, QualityMetrics};
use ease_procsim::{ClusterSpec, DistributedGraph, Workload};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

    /// The profiling entry point: a [`PreparedGraph`] analysis context over
    /// this input. R-MAT specs *stream* their edges through
    /// [`Rmat::generate_into`] into a disk spill that is generated once per
    /// process, memory-mapped and shared (`rmat_spilled_source`) — the
    /// profiling fan-out's workers no longer each hold an owned
    /// `8 bytes × |E|` edge list on the heap. Materialized test graphs are
    /// *borrowed in place* — profiling workers used to deep-copy the full
    /// edge list per worker, now they share `&t.graph`. Both routes produce
    /// bit-identical analysis (same edge stream, same fingerprint).
    pub fn prepare(&self) -> PreparedGraph<'_> {
        match self {
            GraphInput::Rmat(s) => match rmat_spilled_source(s, &self.spec_key()) {
                Some(source) => PreparedGraph::from_source(Box::new(source)),
                // disk trouble: degrade to the old heap-owned path
                None => PreparedGraph::new(s.generate()),
            },
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
    /// edge list, amortized by the dozens of profiling passes that follow.
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

/// Process-wide cache of spilled R-MAT corpora: per-spec-key cells whose
/// [`OnceLock`] latches the generate-to-disk work, so concurrent workers
/// preparing the *same* spec stream it exactly once while distinct specs
/// spill in parallel. `None` in a cell records a failed spill (disk full,
/// unwritable temp dir) so every later prepare takes the heap fallback
/// without retrying the disk.
type RmatSpillCell = Arc<OnceLock<Option<Arc<BelSource>>>>;

fn rmat_spill_cell(key: &str) -> RmatSpillCell {
    static CACHE: OnceLock<Mutex<HashMap<String, RmatSpillCell>>> = OnceLock::new();
    let cache = CACHE.get_or_init(Default::default);
    let mut map = cache.lock().expect("rmat spill cache lock");
    Arc::clone(map.entry(key.to_string()).or_default())
}

/// The shared memory-mapped edge stream for `spec`, spilling it to a temp
/// `.bel` file on first use (then unlinking it — the mapped pages outlive
/// the directory entry, so no file is ever left behind). `None` when the
/// spill could not be written; callers fall back to heap generation.
fn rmat_spilled_source(spec: &RmatSpec, key: &str) -> Option<Arc<BelSource>> {
    rmat_spill_cell(key).get_or_init(|| spill_rmat(spec).map(Arc::new)).clone()
}

/// Stream `spec`'s exact [`RmatSpec::generate`] edge order to disk via
/// [`Rmat::generate_into`] — the analysis over the mapped spill is
/// bit-identical to analysis over the generated heap graph because the
/// edge stream (and hence every fingerprint-keyed derivation) is the same.
fn spill_rmat(spec: &RmatSpec) -> Option<BelSource> {
    static SPILL_SEQ: AtomicUsize = AtomicUsize::new(0);
    // lint: relaxed-ok(unique-name counter)
    let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("ease-rmat-spill-{}-{seq}.bel", std::process::id()));
    let source = (|| {
        let mut writer = BelWriter::create(&path).ok()?;
        let rmat = Rmat::new(spec.params, spec.num_vertices, spec.num_edges, spec.seed);
        let mut io = Ok(());
        rmat.generate_into(&mut |e| {
            if io.is_ok() {
                io = writer.push(e);
            }
        });
        io.ok()?;
        writer.finish_with_vertices(spec.num_vertices).ok()?;
        BelSource::open(&path).ok()
    })();
    // unlink-after-mmap hygiene: success keeps only the mapping alive,
    // failure leaves nothing behind
    std::fs::remove_file(&path).ok();
    source
}

/// How many specs the two profiling corpora share — all that is left of a
/// pool that once prepared such a spec once for both passes. No shipped
/// configuration has one: the R-MAT-SMALL and R-MAT-LARGE corpora share
/// none at any scale (`training_corpora_share_no_spec` in
/// `tests/pipeline_integration.rs`), and a shared R-MAT spec would still be
/// generated once per process by the spill cache. Every input is prepared
/// by [`GraphInput::prepare`] on the worker that profiles it. The type and
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

/// One measured partitioning execution (training row for the quality and
/// partitioning-time predictors).
#[derive(Debug, Clone)]
pub struct QualityRecord {
    pub graph_name: String,
    pub graph_type: Option<GraphType>,
    pub props: GraphProperties,
    pub partitioner: PartitionerId,
    pub k: usize,
    pub metrics: QualityMetrics,
    pub partitioning_secs: f64,
}

/// One measured workload execution (training row for the processing-time
/// predictor). Carries the measured quality metrics of the partitioning the
/// workload ran on.
#[derive(Debug, Clone)]
pub struct ProcessingRecord {
    pub graph_name: String,
    pub graph_type: Option<GraphType>,
    pub props: GraphProperties,
    pub partitioner: PartitionerId,
    pub k: usize,
    pub metrics: QualityMetrics,
    pub partitioning_secs: f64,
    pub workload: Workload,
    /// The prediction target: average iteration time for fixed-iteration
    /// workloads, total time otherwise (paper Sec. V-C).
    pub target_secs: f64,
    /// Total processing time.
    pub total_secs: f64,
}

/// Prepare each input once and run `f` over it on [`ticketed`]'s threads,
/// collecting outputs. One graph per worker is the only level of
/// parallelism: every pass inside a [`PreparedGraph`] runs on the worker
/// that asked for it, and the context is dropped when `f` returns. Tickets
/// go out in descending edge count, outputs come back in input order.
fn profile_each<T: Send>(
    inputs: &[GraphInput],
    f: impl Fn(&GraphInput, &PreparedGraph) -> Vec<T> + Sync,
) -> Vec<T> {
    // largest first: the greedy queue's makespan is worst when the biggest
    // graph is handed out last (stable sort — equal sizes keep input order)
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(inputs[i].num_edges()));
    let outputs = ticketed(order.len(), |t| {
        let input = &inputs[order[t]];
        f(input, &input.prepare())
    });
    let mut chunks: Vec<(usize, Vec<T>)> = order.into_iter().zip(outputs).collect();
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
) -> Vec<QualityRecord> {
    profile_each(inputs, |input, prepared| {
        // Extracting properties first also warms the context (degree table,
        // triangles), so no partitioner run is charged for the shared
        // derivation under measured timing.
        let props = prepared.properties(PropertyTier::Advanced);
        let mut out = Vec::with_capacity(partitioners.len() * ks.len());
        for &p in partitioners {
            for &k in ks {
                let run = run_partitioner_prepared(p, prepared, k, seed ^ k as u64, timing);
                out.push(QualityRecord {
                    graph_name: input.name().to_string(),
                    graph_type: input.graph_type(),
                    props: props.clone(),
                    partitioner: p,
                    k,
                    metrics: run.metrics,
                    partitioning_secs: run.partitioning_secs,
                });
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
) -> Vec<QualityRecord> {
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
) -> Vec<ProcessingRecord> {
    let cluster = ClusterSpec::new(k);
    profile_each(inputs, |input, prepared| {
        let props = prepared.properties(PropertyTier::Advanced);
        let mut out = Vec::with_capacity(partitioners.len() * workloads.len());
        let mut traces = None;
        for &p in partitioners {
            let run = run_partitioner_prepared(p, prepared, k, seed, timing);
            let partitioning_secs = run.partitioning_secs;
            let dg = DistributedGraph::build_prepared(prepared, &run.partition);
            let traces: &Vec<_> =
                traces.get_or_insert_with(|| workloads.iter().map(|w| w.trace(&dg)).collect());
            for (&w, trace) in workloads.iter().zip(traces) {
                let report = w.price(trace, &dg, &cluster);
                out.push(ProcessingRecord {
                    graph_name: input.name().to_string(),
                    graph_type: input.graph_type(),
                    props: props.clone(),
                    partitioner: p,
                    k,
                    metrics: run.metrics,
                    partitioning_secs,
                    workload: w,
                    target_secs: w.prediction_target(&report),
                    total_secs: report.total_secs,
                });
            }
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
) -> Vec<ProcessingRecord> {
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
        let records = profile_quality_with(&inputs, &parts, &[2, 4], 1, TimingMode::Measured);
        assert_eq!(records.len(), 3 * 2 * 2);
        for r in &records {
            assert!(r.metrics.replication_factor >= 1.0);
            assert!(r.partitioning_secs >= 0.0);
            assert!(r.props.avg_lcc.is_some(), "advanced props computed");
        }
        // all combos present
        let combos: std::collections::HashSet<_> =
            records.iter().map(|r| (r.graph_name.clone(), r.partitioner, r.k)).collect();
        assert_eq!(combos.len(), 12);
    }

    #[test]
    fn processing_profiling_executes_workloads() {
        let inputs = tiny_inputs(2);
        let parts = [PartitionerId::Dbh];
        let workloads = [Workload::PageRank { iterations: 3 }, Workload::ConnectedComponents];
        let records =
            profile_processing_with(&inputs, &parts, 4, &workloads, 2, TimingMode::Measured);
        assert_eq!(records.len(), 2 * 2); // 2 graphs x 1 partitioner x 2 workloads
        for r in &records {
            assert!(r.target_secs > 0.0, "{}", r.workload.name());
            assert!(r.total_secs >= r.target_secs * 0.99);
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
        // R-MAT specs stream to a shared disk spill: the context is
        // source-backed (no owned edge list) yet analyzes the exact same
        // edge stream as a heap generate
        let spec = tiny_inputs(1).remove(0);
        let spilled = spec.prepare();
        assert!(spilled.source().edge_slice().is_none(), "no heap edge list for R-MAT inputs");
        assert_eq!(spilled.num_edges(), 700);
        let GraphInput::Rmat(s) = &spec else { unreachable!() };
        let heap = PreparedGraph::new(s.generate());
        assert_eq!(spilled.fingerprint(), heap.fingerprint(), "same edge stream bit-for-bit");
        // the spill is cached per spec: preparing again shares the mapping
        // rather than regenerating, and no temp file stays on disk
        let again = spec.prepare();
        assert_eq!(again.fingerprint(), heap.fingerprint());
    }

    #[test]
    fn rmat_spills_leave_no_temp_files_behind() {
        let spec = GraphInput::Rmat(RmatSpec {
            name: "spill-hygiene".into(),
            combo_index: 0,
            params: RmatParams::new(0.45, 0.22, 0.22, 0.11),
            num_vertices: 128,
            num_edges: 500,
            seed: 99,
        });
        let prepared = spec.prepare();
        assert_eq!(prepared.num_edges(), 500);
        // unlink-after-mmap: the spill file is gone even while the mapped
        // source is still alive and serving edges
        let leftovers: Vec<_> = std::fs::read_dir(std::env::temp_dir())
            .expect("read temp dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&format!("ease-rmat-spill-{}-", std::process::id())))
            .collect();
        assert!(leftovers.is_empty(), "spill files left behind: {leftovers:?}");
    }
}
