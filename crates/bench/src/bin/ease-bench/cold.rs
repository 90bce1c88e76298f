//! The three `cold-*` workloads: each operation is what a fresh
//! `ease recommend <graph>` process does minus the spawn — load the model,
//! open the graph, extract the advanced tier, predict, render.

use crate::inputs::{self, ctx, Res};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{prepare_in_child, repeated_setup, report_stages, sequential_ops, Meter, Run, Stage};
use ease::serve;
use ease::EaseService;
use ease_graph::{open_path, MemoryBudget, PreparedGraph, PropertyTier};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Which graph a cold workload reads and under which memory budget.
///
/// Sizes are set so that roughly fifty operations fit the ten measured
/// seconds on two 2 GHz cores — `op_tail_ms` (p75) needs ten samples
/// beyond it — while each workload keeps the layer split it exists for.
#[derive(Debug, Clone, Copy)]
pub enum Spec {
    /// Skewed R-MAT (`RMAT_COMBOS[6]`), 2^16 vertices, 400 k edges, `.bel`:
    /// triangle counting is ≈ 85 % of the op, ingest ≈ 1 %.
    BelSkewed,
    /// Sparse G(2^18, 600 k) as text: parse ≈ 33 %, CSR ≈ 18 %, triangles
    /// ≈ 50 %.
    TextSparse,
    /// [`Spec::BelSkewed`] under a 1 MiB budget: the 3.7 MiB undirected CSR
    /// does not fit and is spilled.
    BelSpilled,
}

const SKEWED_COMBO: usize = 6;
const SKEWED_VERTICES: usize = 1 << 16;
const SKEWED_EDGES: usize = 400_000;
const SPARSE_VERTICES: usize = 1 << 18;
const SPARSE_EDGES: usize = 600_000;
const SPILL_BUDGET_BYTES: usize = 1 << 20;

/// Stage spans of a traced op, in call order, with the layer metric each
/// one's median self time is reported as.
const STAGES: [Stage; 8] = [
    ("EaseService::load", "service.load_ms", 1.0),
    ("open_path", "graph.open_ms", 1.0),
    ("PreparedGraph::fingerprint", "graph.fingerprint_ms", 1.0),
    ("PreparedGraph::degrees", "graph.degree_ms", 1.0),
    ("PreparedGraph::undirected_simple", "graph.csr_ms", 1.0),
    ("PreparedGraph::triangle_counts", "graph.triangles_ms", 1.0),
    ("PreparedGraph::properties", "graph.properties_ms", 1.0),
    ("EaseService::recommend", "service.predict_us", 1e3),
];

struct State {
    model: PathBuf,
    graph: String,
    edges: usize,
    reference: String,
    /// `Some` on the spilled workload: where spill files go.
    spill_dir: Option<PathBuf>,
}

impl Spec {
    /// File name and edge count of the workload's graph.
    fn graph(self) -> (&'static str, usize) {
        match self {
            Spec::BelSkewed | Spec::BelSpilled => ("skewed.bel", SKEWED_EDGES),
            Spec::TextSparse => ("sparse.txt", SPARSE_EDGES),
        }
    }
}

fn model_path(dir: &Path) -> PathBuf {
    dir.join("ease.model")
}

/// The files a cold workload reads: its graph, generated from `seed`, and
/// the trained model.
pub fn prepare_files(dir: &Path, spec: Spec, seed: u64) -> Res<()> {
    let graph = dir.join(spec.graph().0);
    match spec {
        Spec::BelSkewed | Spec::BelSpilled => {
            inputs::write_rmat_bel(&graph, SKEWED_COMBO, SKEWED_VERTICES, SKEWED_EDGES, seed)?
        }
        Spec::TextSparse => inputs::write_gnm_text(&graph, SPARSE_VERTICES, SPARSE_EDGES, seed)?,
    }
    inputs::train_and_save_model(&model_path(dir))
}

fn setup(run: &Run, spec: Spec) -> Res<State> {
    prepare_in_child(run)?;
    let model = model_path(run.dir);
    let (file, edges) = spec.graph();
    let graph = inputs::path_str(&run.dir.join(file))?.to_string();
    let service = EaseService::load(&model).map_err(ctx("load model"))?;
    let reference = inputs::reference_answer(&service, &graph)?;
    let spill_dir = match spec {
        Spec::BelSpilled => {
            let dir = run.dir.join("spill");
            std::fs::create_dir_all(&dir).map_err(ctx("create spill dir"))?;
            Some(dir)
        }
        _ => None,
    };
    Ok(State { model, graph, edges, reference, spill_dir })
}

impl State {
    fn budget(&self) -> Option<Arc<MemoryBudget>> {
        self.spill_dir
            .as_ref()
            .map(|dir| Arc::new(MemoryBudget::bytes(SPILL_BUDGET_BYTES).with_spill_dir(dir)))
    }

    /// The spilled workload must spill at least once per op and leave no
    /// spill file behind; the others have no budget to spill against.
    fn check_spills(&self, spilled: u64) -> Res<()> {
        let Some(dir) = &self.spill_dir else { return Ok(()) };
        if spilled == 0 {
            return Err("the budgeted op built its CSR in heap: nothing was spilled".into());
        }
        let left = std::fs::read_dir(dir).map_err(ctx("read spill dir"))?.count();
        if left > 0 {
            return Err(format!("{left} spill file(s) left behind in {}", dir.display()));
        }
        Ok(())
    }

    /// One operation through the same single call the CLI makes.
    fn op(&self) -> Res<()> {
        let service = EaseService::load(&self.model).map_err(ctx("load model"))?;
        let source = open_path(Path::new(&self.graph)).map_err(ctx("open graph"))?;
        let budget = self.budget();
        let answer = serve::render_recommendation(
            &service,
            &self.graph,
            source.as_ref(),
            inputs::query_workload(),
            service.meta().default_k,
            inputs::QUERY_GOAL,
            serve::DEFAULT_TOP,
            budget.as_ref(),
        )
        .map_err(ctx("recommend"))?;
        if answer != self.reference {
            return Err("answer differs from the in-process reference".into());
        }
        let cache = service.property_cache_stats();
        if (cache.hits, cache.misses) != (0, 1) {
            return Err(format!(
                "a cold op must be one property-cache miss, saw {} hits / {} misses",
                cache.hits, cache.misses
            ));
        }
        self.check_spills(budget.map_or(0, |b| b.spill_events()))
    }

    /// The same operation with the stages called one by one, in the order
    /// `render_recommendation` reaches them, each inside a span. Rendering
    /// is not public on its own, so the answer is checked by the pick it
    /// names. Returns how many CSR builds were spilled.
    fn traced_op(&self, tracer: &mut Tracer, op: u32) -> Res<u32> {
        let [load, open, fingerprint, degrees, csr, triangles, properties, predict] =
            STAGES.map(|(span, ..)| span);
        let root = tracer.begin("cold op", op, None);
        let parent = Some(root);
        let service = tracer
            .time(load, op, parent, || EaseService::load(&self.model))
            .map_err(ctx("load model"))?;
        let source = tracer
            .time(open, op, parent, || open_path(Path::new(&self.graph)))
            .map_err(ctx("open graph"))?;
        let budget = self.budget();
        let prepared = match &budget {
            Some(b) => PreparedGraph::of_source(source.as_ref()).with_memory_budget(Arc::clone(b)),
            None => PreparedGraph::of_source(source.as_ref()),
        };
        tracer.time(fingerprint, op, parent, || prepared.fingerprint());
        tracer.time(degrees, op, parent, || {
            prepared.degrees();
        });
        tracer.time(csr, op, parent, || {
            prepared.undirected_simple();
        });
        tracer.time(triangles, op, parent, || prepared.triangle_counts().len());
        let props =
            tracer.time(properties, op, parent, || prepared.properties(PropertyTier::Advanced));
        let selection = tracer
            .time(predict, op, parent, || {
                service.recommend(&props, inputs::query_workload(), inputs::QUERY_GOAL)
            })
            .map_err(ctx("recommend"))?;
        tracer.end(root);
        if !self.reference.contains(&format!("): {}\n", selection.best.name())) {
            return Err(format!(
                "traced op picked {}, the reference did not",
                selection.best.name()
            ));
        }
        let spilled = prepared.spilled_csr_builds();
        drop(prepared);
        self.check_spills(u64::from(spilled))?;
        Ok(spilled)
    }
}

pub fn run(
    run: &Run,
    spec: Spec,
    out: &mut Outcome,
    meter: &mut Meter,
    tracer: &mut Tracer,
) -> Res<()> {
    let state = repeated_setup(out, meter, || setup(run, spec))?;
    let mut spills = Vec::new();
    sequential_ops(
        run,
        out,
        meter,
        "cold ops",
        (run.seconds, 3),
        || state.op(),
        |op_id| state.traced_op(tracer, op_id).map(|spilled| spills.push(f64::from(spilled))),
    )?;
    if !run.trace {
        return Ok(());
    }
    report_stages(out, tracer, &STAGES);
    let open_ms = out.get("graph.open_ms").unwrap_or(0.0);
    if open_ms > 0.0 {
        out.set("graph.ingest_medges_s", state.edges as f64 / 1e6 / (open_ms / 1e3));
    }
    out.set("graph.spilled_csr_builds", median(&spills).unwrap_or(0.0));
    Ok(())
}
