//! Training-data acquisition — steps 1–3 of the paper's training pipeline
//! (Fig. 5): obtain graphs, partition them with every partitioner and
//! measure quality + run-time, then execute the processing workloads and
//! measure their (simulated) run-time.
//!
//! Profiling fans out over graphs with std scoped threads; each
//! worker prepares its graph exactly once — one [`PreparedGraph`] context
//! feeds the property extraction *and* every partitioner × k × workload
//! measurement — and drops it; the corpora are never materialized at once.
//! Materialized inputs are borrowed in place (no per-worker deep copies of
//! the edge list).

use ease_graph::bel::{BelSource, BelWriter};
use ease_graph::{GraphProperties, PreparedGraph, PropertyTier};
use ease_graphgen::grids::RmatSpec;
use ease_graphgen::realworld::{GraphType, TestGraph};
use ease_graphgen::rmat::Rmat;
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

/// Shared [`PreparedGraph`] contexts for graph specs that appear in *both*
/// profiling corpora: the pool keys contexts by `GraphInput::spec_key`, so
/// an overlapping spec would be generated and prepared once for both
/// passes, its memoized degrees/triangles feeding each. No shipped
/// configuration has such a spec: the R-MAT-SMALL and R-MAT-LARGE corpora
/// share none at any scale (`training_corpora_share_no_spec` in
/// `tests/pipeline_integration.rs`), so every spec takes the per-pass path
/// and is dropped as soon as its worker finishes. The pool stays because
/// the `ease-bench` `train-tiny` workload names it.
pub struct PreparedPool {
    eligible: std::collections::HashSet<String>,
    /// Per-key latches: the map lock is held only to fetch/insert a cell;
    /// the (expensive) generate + prepare runs inside the cell's
    /// `OnceLock`, so concurrent *distinct* specs build in parallel while
    /// concurrent requests for the *same* spec still build exactly once.
    shared: Mutex<HashMap<String, Arc<OnceLock<Arc<PreparedGraph<'static>>>>>>,
    builds: AtomicUsize,
    reuses: AtomicUsize,
}

impl PreparedPool {
    /// A pool eligible for exactly the specs present in both corpora.
    pub fn for_overlap(a: &[GraphInput], b: &[GraphInput]) -> PreparedPool {
        let keys_a: std::collections::HashSet<String> =
            a.iter().map(GraphInput::spec_key).collect();
        let eligible = b.iter().map(GraphInput::spec_key).filter(|k| keys_a.contains(k)).collect();
        PreparedPool {
            eligible,
            shared: Mutex::new(HashMap::new()),
            builds: AtomicUsize::new(0),
            reuses: AtomicUsize::new(0),
        }
    }

    /// An empty pool (no sharing) — the behaviour of the unpooled API.
    pub fn disabled() -> PreparedPool {
        PreparedPool {
            eligible: Default::default(),
            shared: Mutex::new(HashMap::new()),
            builds: AtomicUsize::new(0),
            reuses: AtomicUsize::new(0),
        }
    }

    /// How many specs the two corpora share.
    pub fn overlap(&self) -> usize {
        self.eligible.len()
    }

    /// `(contexts built, contexts served from the pool)` so far.
    pub fn stats(&self) -> (usize, usize) {
        // lint: relaxed-ok(monotonic stats counters; readers tolerate stale values)
        (self.builds.load(Ordering::Relaxed), self.reuses.load(Ordering::Relaxed))
    }

    /// Prepare `input`, sharing the context if its spec is in the overlap.
    fn prepare<'i>(&self, input: &'i GraphInput) -> PooledPrepared<'i> {
        // No overlap (the disabled-pool legacy paths): skip spec_key
        // entirely — for materialized inputs it costs a full O(|E|)
        // fingerprint pass that could never produce a hit.
        if self.eligible.is_empty() {
            return PooledPrepared::Local(input.prepare());
        }
        let key = input.spec_key();
        if !self.eligible.contains(&key) {
            return PooledPrepared::Local(input.prepare());
        }
        let cell = {
            let mut shared = self.shared.lock().expect("prepared pool lock");
            Arc::clone(shared.entry(key.clone()).or_default())
        };
        // Build outside the map lock: racing workers for the same spec
        // serialize on this key's OnceLock only, never on each other.
        let mut built = false;
        let arc = cell.get_or_init(|| {
            built = true;
            Arc::new(match input {
                GraphInput::Rmat(s) => match rmat_spilled_source(s, &key) {
                    Some(source) => PreparedGraph::from_source(Box::new(source)),
                    None => PreparedGraph::new(s.generate()),
                },
                GraphInput::Materialized(t) => PreparedGraph::new(t.graph.clone()),
            })
        });
        if built {
            self.builds.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(stats counter only)
        } else {
            self.reuses.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(stats counter only)
        }
        PooledPrepared::Pooled(Arc::clone(arc))
    }
}

/// A context that is either private to one profiling worker or shared
/// through the [`PreparedPool`]. One short-lived value per profiled graph,
/// so the variant size gap is irrelevant; boxing the local context would
/// only add an indirection on the hot path.
#[allow(clippy::large_enum_variant)]
enum PooledPrepared<'i> {
    Local(PreparedGraph<'i>),
    Pooled(Arc<PreparedGraph<'static>>),
}

impl PooledPrepared<'_> {
    fn get(&self) -> &PreparedGraph<'_> {
        match self {
            PooledPrepared::Local(p) => p,
            PooledPrepared::Pooled(p) => p,
        }
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

fn worker_count(n_items: usize) -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).min(n_items.max(1))
}

/// Run `f` over the inputs with scoped-thread fan-out, collecting outputs.
/// One graph per worker is the only level of parallelism: every pass inside
/// a [`PreparedGraph`] runs on the worker that asked for it. Tickets go out
/// in descending edge count, outputs come back in input order.
fn parallel_profile<T: Send, F>(inputs: &[GraphInput], f: F) -> Vec<T>
where
    F: Fn(&GraphInput) -> Vec<T> + Sync,
{
    let results: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());
    // largest first: the greedy queue's makespan is worst when the biggest
    // graph is handed out last (stable sort — equal sizes keep input order)
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(inputs[i].num_edges()));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let workers = worker_count(inputs.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // lint: relaxed-ok(work-stealing ticket counter; item handoff is via scope join)
                let ticket = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&idx) = order.get(ticket) else {
                    break;
                };
                let out = f(&inputs[idx]);
                results.lock().unwrap().push((idx, out));
            });
        }
    });
    // deterministic output order regardless of thread scheduling
    let mut chunks = results.into_inner().unwrap();
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
    profile_quality_pooled(inputs, partitioners, ks, seed, timing, &PreparedPool::disabled())
}

/// [`profile_quality_with`] sharing prepared contexts through `pool` for
/// specs that also appear in the processing corpus. Records are identical
/// to the unpooled call — the pool only changes *where* contexts come from.
pub fn profile_quality_pooled(
    inputs: &[GraphInput],
    partitioners: &[PartitionerId],
    ks: &[usize],
    seed: u64,
    timing: TimingMode,
    pool: &PreparedPool,
) -> Vec<QualityRecord> {
    parallel_profile(inputs, |input| {
        let pooled = pool.prepare(input);
        let prepared = pooled.get();
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

/// Steps 2+3 combined for the time predictors: partition with every
/// partitioner at a fixed `k` (partitioning time as `timing` obtains it),
/// then execute every workload on the partitioned graph with the cluster
/// cost model.
pub fn profile_processing_with(
    inputs: &[GraphInput],
    partitioners: &[PartitionerId],
    k: usize,
    workloads: &[Workload],
    seed: u64,
    timing: TimingMode,
) -> Vec<ProcessingRecord> {
    profile_processing_pooled(
        inputs,
        partitioners,
        k,
        workloads,
        seed,
        timing,
        &PreparedPool::disabled(),
    )
}

/// [`profile_processing_with`] sharing prepared contexts through `pool`.
///
/// Each workload runs once per graph, not once per placement: which vertices
/// are active in which superstep does not depend on the partitioning, so the
/// activity traces are taken on the first partitioner's placement and every
/// placement — that one included — is priced from them.
pub fn profile_processing_pooled(
    inputs: &[GraphInput],
    partitioners: &[PartitionerId],
    k: usize,
    workloads: &[Workload],
    seed: u64,
    timing: TimingMode,
    pool: &PreparedPool,
) -> Vec<ProcessingRecord> {
    let cluster = ClusterSpec::new(k);
    parallel_profile(inputs, |input| {
        let pooled = pool.prepare(input);
        let prepared = pooled.get();
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
    fn pooled_profiling_builds_overlapping_specs_once_and_matches_unpooled() {
        // both "corpora" share their first two specs
        let quality_inputs = tiny_inputs(3);
        let processing_inputs: Vec<GraphInput> = tiny_inputs(2);
        let parts = [PartitionerId::OneDD, PartitionerId::Dbh];
        let workloads = [Workload::PageRank { iterations: 3 }];
        let pool = PreparedPool::for_overlap(&quality_inputs, &processing_inputs);
        assert_eq!(pool.overlap(), 2);
        let q_pooled = profile_quality_pooled(
            &quality_inputs,
            &parts,
            &[2, 4],
            1,
            TimingMode::Deterministic,
            &pool,
        );
        let p_pooled = profile_processing_pooled(
            &processing_inputs,
            &parts,
            4,
            &workloads,
            2,
            TimingMode::Deterministic,
            &pool,
        );
        // the two overlapping specs were built exactly once total, then
        // served back to the second pass from the pool
        let (builds, reuses) = pool.stats();
        assert_eq!(builds, 2, "one build per overlapping spec");
        assert_eq!(reuses, 2, "the processing pass reused both");
        // pooled records are identical to the unpooled path
        let q_plain =
            profile_quality_with(&quality_inputs, &parts, &[2, 4], 1, TimingMode::Deterministic);
        let p_plain = profile_processing_with(
            &processing_inputs,
            &parts,
            4,
            &workloads,
            2,
            TimingMode::Deterministic,
        );
        assert_eq!(q_pooled.len(), q_plain.len());
        for (a, b) in q_pooled.iter().zip(&q_plain) {
            assert_eq!(a.graph_name, b.graph_name);
            assert_eq!(a.props, b.props);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.partitioning_secs.to_bits(), b.partitioning_secs.to_bits());
        }
        assert_eq!(p_pooled.len(), p_plain.len());
        for (a, b) in p_pooled.iter().zip(&p_plain) {
            assert_eq!(a.graph_name, b.graph_name);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.target_secs.to_bits(), b.target_secs.to_bits());
        }
        // disjoint specs never enter the pool
        let disjoint = PreparedPool::for_overlap(&tiny_inputs(1), &tiny_inputs(0));
        assert_eq!(disjoint.overlap(), 0);
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
