//! `train-tiny`: each operation trains the whole system at tiny scale,
//! profiles the Table IV test set for ground truth and evaluates the
//! selector against it — the only workload that runs `partition`,
//! `procsim`, `ml` training and `profiling`, and the one that tracks the
//! paper's selection claim.

use crate::inputs::{self, ctx, Res};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{repeated_setup, report_stages, sequential_ops, Meter, Run, Stage};
use ease::evaluation::{evaluate_selection, group_truth, GroupTruth, HeadlineStats};
use ease::pipeline::{dedup_partition_runs, EaseConfig};
use ease::profiling::{
    profile_processing_pooled, profile_processing_with, profile_quality_pooled, GraphInput,
    PreparedPool, TimingMode,
};
use ease::selector::{Ease, OptGoal};
use ease::service::ServiceMeta;
use ease::{EaseService, PartitioningTimePredictor, ProcessingTimePredictor, QualityPredictor};
use ease_graph::PropertyTier;
use ease_graphgen::realworld::table4_test_set;
use ease_graphgen::Scale;
use ease_partition::{run_partitioner_prepared, PartitionerId, QualityMetrics};
use ease_procsim::{ClusterSpec, DistributedGraph, Workload};
use std::time::Instant;

/// Partition count of the per-partitioner layer timings.
const LAYER_K: usize = 8;
/// Repeats of each layer timing; the median is reported.
const LAYER_REPEATS: usize = 5;

/// What one operation produced: the trained system's bytes and the
/// end-to-end-goal headline statistics.
struct Trained {
    bytes: Vec<u8>,
    headline: HeadlineStats,
}

/// Ground truth: every partitioner × workload measured on the seed's Table
/// IV test graphs (analytical partitioning times, so a pure function).
fn ground_truth(cfg: &EaseConfig, seed: u64) -> Vec<GroupTruth> {
    let tests = GraphInput::from_tests(table4_test_set(Scale::Tiny, seed));
    group_truth(&profile_processing_with(
        &tests,
        &cfg.partitioners,
        cfg.processing_k,
        &cfg.workloads,
        seed ^ 2,
        TimingMode::Deterministic,
    ))
}

/// The selector judged against the truth for both goals; the bracketing
/// `optimal <= EASE <= worst` must hold for either. Returns the end-to-end
/// goal's headline statistics.
fn judge(ease: &Ease, cfg: &EaseConfig, groups: &[GroupTruth]) -> Res<HeadlineStats> {
    let [end_to_end, processing] = [OptGoal::EndToEnd, OptGoal::ProcessingOnly]
        .map(|goal| evaluate_selection(ease, groups, cfg.processing_k, goal).1);
    for (goal, stats) in [("e2e", &end_to_end), ("processing", &processing)] {
        if stats.avg_vs_optimal < 1.0 - 1e-9 || stats.avg_vs_worst > 1.0 + 1e-9 {
            return Err(format!(
                "goal {goal}: EASE at {} of optimal and {} of worst breaks optimal <= EASE <= worst",
                stats.avg_vs_optimal, stats.avg_vs_worst
            ));
        }
    }
    Ok(end_to_end)
}

/// One operation through the public builder.
fn op(seed: u64) -> Res<Trained> {
    let builder = inputs::tiny_builder(seed);
    let cfg = builder.config().clone();
    let (service, _artifacts) = builder.train_with_artifacts().map_err(ctx("train"))?;
    let headline = judge(service.ease(), &cfg, &ground_truth(&cfg, seed))?;
    Ok(Trained { bytes: service.to_bytes(), headline })
}

/// The same operation with `train_ease`'s steps called one by one, each in
/// a span. Returns the record counts beside the result.
fn traced_op(seed: u64, tracer: &mut Tracer, op_id: u32) -> Res<(Trained, usize, usize)> {
    let cfg = inputs::tiny_builder(seed).config().clone();
    let root = tracer.begin("train op", op_id, None);
    let parent = Some(root);
    let (small, large) = (cfg.small_inputs(), cfg.large_inputs());
    let pool = PreparedPool::for_overlap(&small, &large);
    let quality_records = tracer.time("profiling.quality", op_id, parent, || {
        profile_quality_pooled(&small, &cfg.partitioners, &cfg.ks, cfg.seed, cfg.timing, &pool)
    });
    let processing_records = tracer.time("profiling.processing", op_id, parent, || {
        profile_processing_pooled(
            &large,
            &cfg.partitioners,
            cfg.processing_k,
            &cfg.workloads,
            cfg.seed ^ 0x9A,
            cfg.timing,
            &pool,
        )
    });
    drop(pool);
    let quality = tracer.time("predictors.quality_train", op_id, parent, || {
        QualityPredictor::train(&quality_records, cfg.tier, &cfg.grid, cfg.folds, cfg.seed)
    });
    let ptime_records = dedup_partition_runs(&processing_records);
    let partitioning_time = tracer.time("predictors.ptime_train", op_id, parent, || {
        PartitioningTimePredictor::train(&ptime_records, &cfg.grid, cfg.folds, cfg.seed)
    });
    let processing_time = tracer.time("predictors.proctime_train", op_id, parent, || {
        ProcessingTimePredictor::train(&processing_records, &cfg.grid, cfg.folds, cfg.seed)
    });
    let mut ease = Ease::new(quality, partitioning_time, processing_time);
    ease.catalog = cfg.partitioners.clone();
    let groups = tracer.time("evaluation.truth", op_id, parent, || ground_truth(&cfg, seed));
    let headline = tracer.time("evaluation.select", op_id, parent, || judge(&ease, &cfg, &groups));
    tracer.end(root);
    let headline = headline?;
    let meta = ServiceMeta {
        scale: cfg.scale,
        seed: cfg.seed,
        folds: cfg.folds,
        timing: cfg.timing,
        default_k: cfg.processing_k,
        default_goal: OptGoal::EndToEnd,
    };
    let bytes = EaseService::from_parts(ease, meta).to_bytes();
    Ok((Trained { bytes, headline }, quality_records.len(), processing_records.len()))
}

/// Each partitioner, the quality metrics, placement and each processing
/// workload on one fixed corpus graph: the kernels `profiling.*` is made of.
fn layer_timings(cfg: &EaseConfig, out: &mut Outcome) -> Res<()> {
    /// Median over [`LAYER_REPEATS`] calls of what `f` says it took.
    fn median_of(f: impl FnMut() -> f64) -> f64 {
        let samples: Vec<f64> = std::iter::repeat_with(f).take(LAYER_REPEATS).collect();
        median(&samples).expect("LAYER_REPEATS > 0")
    }
    fn median_ms(mut f: impl FnMut()) -> f64 {
        median_of(|| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
    }

    let inputs = cfg.large_inputs();
    let input = inputs.last().ok_or("empty R-MAT-LARGE corpus")?;
    let prepared = input.prepare();
    // warm the context so no partitioner is charged for shared structure
    prepared.properties(PropertyTier::Advanced);
    let mut placed = None;
    for p in PartitionerId::ALL {
        // `Measured` times the partitioning call alone, not the metrics
        let ms = median_of(|| {
            let run =
                run_partitioner_prepared(p, &prepared, LAYER_K, cfg.seed, TimingMode::Measured);
            if p == PartitionerId::Hdrf {
                placed = Some(run.partition);
            }
            run.partitioning_secs * 1e3
        });
        out.set(&format!("partition.{}_ms", p.name()), ms);
    }
    let partition = placed.ok_or("HDRF is not among the partitioners")?;
    out.set(
        "partition.metrics_ms",
        median_ms(|| {
            std::hint::black_box(QualityMetrics::compute_prepared(&prepared, &partition));
        }),
    );
    out.set(
        "procsim.build_ms",
        median_ms(|| {
            std::hint::black_box(DistributedGraph::build_prepared(&prepared, &partition));
        }),
    );
    let distributed = DistributedGraph::build_prepared(&prepared, &partition);
    let cluster = ClusterSpec::new(LAYER_K);
    for w in Workload::all_training() {
        let ms = median_ms(|| {
            std::hint::black_box(w.execute(&distributed, &cluster));
        });
        out.set(&format!("procsim.{}_ms", w.name()), ms);
    }
    Ok(())
}

/// Stage spans of a traced op with the layer metric each is reported as.
const STAGES: [Stage; 7] = [
    ("profiling.quality", "profiling.quality_s", 1e-3),
    ("profiling.processing", "profiling.processing_s", 1e-3),
    ("predictors.quality_train", "predictors.quality_train_s", 1e-3),
    ("predictors.ptime_train", "predictors.ptime_train_s", 1e-3),
    ("predictors.proctime_train", "predictors.proctime_train_s", 1e-3),
    ("evaluation.truth", "evaluation.truth_s", 1e-3),
    ("evaluation.select", "evaluation.select_ms", 1.0),
];

pub fn run(run: &Run, out: &mut Outcome, meter: &mut Meter, tracer: &mut Tracer) -> Res<()> {
    // set-up is one whole operation: it fills the process-wide R-MAT corpus
    // cache and yields the bytes every later train must reproduce
    let reference = repeated_setup(out, meter, || op(run.seed))?;
    let same_bytes = |trained: Trained| match trained.bytes == reference.bytes {
        true => Ok(()),
        false => Err("trained bytes differ from the first train".to_string()),
    };
    let mut records = (0, 0);
    // the traced run keeps the last third for the kernel timings below
    let budget_s = if run.trace { 0.7 * run.seconds } else { run.seconds };
    sequential_ops(
        run,
        out,
        meter,
        "train ops",
        (budget_s, 2),
        || op(run.seed).and_then(same_bytes),
        |op_id| {
            let (trained, quality, processing) = traced_op(run.seed, tracer, op_id)?;
            records = (quality, processing);
            same_bytes(trained)
        },
    )?;
    out.set("select_vs_optimal", reference.headline.avg_vs_optimal);
    out.set("select_vs_srf", reference.headline.avg_vs_srf);
    out.set("optimal_pick_rate", reference.headline.optimal_pick_rate);
    if !run.trace {
        return Ok(());
    }
    report_stages(out, tracer, &STAGES);
    out.set("profiling.quality_records", records.0 as f64);
    out.set("profiling.processing_records", records.1 as f64);
    layer_timings(inputs::tiny_builder(run.seed).config(), out)
}
