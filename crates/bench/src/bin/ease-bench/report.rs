//! The metric and workload catalogue (the same lists `BENCHMARK.json`
//! carries), the result a run produces, and `compare`.

use crate::cold::Spec;
use crate::stats::{median, spread};
use ease::serve::json::{self, Value};
use std::collections::BTreeMap;
use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// What a user of the system sees; every workload reports every one.
///
/// The timings are divided by (the rate multiplied by) the host's slowdown
/// while they were taken — see `probe.rs`; `setup_raw_s`, `op_p50_raw_ms` and
/// `ops_per_s_raw` in [`PER_LAYER`] are the wall-clock values. Over ten
/// 12-second runs the normalised metrics spread (Q3 − Q1 over the median) by
/// 1–7 % on the cold and serve workloads and 5–11 % on `train-tiny` (seven
/// or eight ops a run), the raw ones by 4–30 % (`README.md` has the tables).
/// One bound per metric has to cover its noisiest workload twice over, hence
/// the contract's maximum throughout.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
];

/// How `compare` judges a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// The candidate's median may be worse by this share of the base's.
    Within(f64),
    /// No candidate run may read worse than the base's worst run.
    NoWorse,
    /// Deterministic for a seed: the candidate's runs must reproduce the
    /// base's values.
    Exact,
}

/// A metric `compare` judges beside [`END_TO_END`].
#[derive(Debug, Clone, Copy)]
pub struct Judged {
    pub name: &'static str,
    pub gate: Gate,
    /// The one workload whose untraced run measures it; `None`: all do.
    pub on: Option<&'static str>,
}

/// The end-to-end metrics `BENCHMARK.json` cannot list, because its contract
/// wants every end-to-end metric from every workload and never zero:
/// `op_tail_ms` exists on every workload but `train-tiny` (7–9 ops a run
/// support no percentile above the median), two exist on `serve-warm` only,
/// three on `train-tiny` only, and `failed_share` is zero by design. The
/// untraced run measures them all the same, `--out` records them, and
/// `compare` applies these gates; a change in a `select_*` value is a
/// behaviour change, not noise.
pub const ALSO_JUDGED: [Judged; 7] = [
    Judged { name: "op_tail_ms", gate: Gate::Within(0.25), on: None },
    Judged { name: "http_p50_ms", gate: Gate::Within(0.25), on: Some("serve-warm") },
    Judged { name: "routed_p50_ms", gate: Gate::Within(0.25), on: Some("serve-warm") },
    Judged { name: "failed_share", gate: Gate::NoWorse, on: None },
    Judged { name: "select_vs_optimal", gate: Gate::Exact, on: Some("train-tiny") },
    Judged { name: "select_vs_srf", gate: Gate::Exact, on: Some("train-tiny") },
    Judged { name: "optimal_pick_rate", gate: Gate::Exact, on: Some("train-tiny") },
];

/// Single-layer metrics of the traced run. A workload that never enters a
/// layer reports 0 for it.
pub const PER_LAYER: [MetricDef; 85] = [
    layer("op_tail_ms", "ms", Lower),
    layer("op_p50_raw_ms", "ms", Lower),
    layer("ops_per_s_raw", "1/s", Higher),
    layer("setup_raw_s", "s", Lower),
    layer("host.compute_slowdown", "ratio", Lower),
    layer("host.handoff_slowdown", "ratio", Lower),
    layer("service.load_ms", "ms", Lower),
    layer("graph.open_ms", "ms", Lower),
    layer("graph.ingest_medges_s", "Medges/s", Higher),
    layer("graph.fingerprint_ms", "ms", Lower),
    layer("graph.degree_ms", "ms", Lower),
    layer("graph.csr_ms", "ms", Lower),
    layer("graph.triangles_ms", "ms", Lower),
    layer("graph.properties_ms", "ms", Lower),
    layer("graph.spilled_csr_builds", "count", Lower),
    layer("service.predict_us", "us", Lower),
    layer("service.warm_us", "us", Lower),
    layer("service.cache_hits", "count", Higher),
    layer("service.cache_misses", "count", Lower),
    layer("service.cache_evictions", "count", Lower),
    layer("service.cache_hit_ratio", "ratio", Higher),
    layer("protocol.bin_encode_ns", "ns", Lower),
    layer("protocol.bin_decode_ns", "ns", Lower),
    layer("protocol.json_encode_ns", "ns", Lower),
    layer("protocol.json_decode_ns", "ns", Lower),
    layer("protocol.bin_bytes", "bytes", Lower),
    layer("protocol.json_bytes", "bytes", Lower),
    layer("server.v2_tcp_p50_us", "us", Lower),
    layer("server.v2_unix_p50_us", "us", Lower),
    layer("server.v1_oneshot_p50_us", "us", Lower),
    layer("server.overhead_us", "us", Lower),
    layer("server.open_p50_ms", "ms", Lower),
    layer("server.open_p90_ms", "ms", Lower),
    layer("server.p99_ms", "ms", Lower),
    layer("server.p999_ms", "ms", Lower),
    layer("server.p50_ms_at_125", "ms", Lower),
    layer("server.p50_ms_at_4000", "ms", Lower),
    layer("server.p90_ms_at_4000", "ms", Lower),
    layer("server.requests_served", "count", Higher),
    layer("http.p50_us", "us", Lower),
    layer("http.overhead_us", "us", Lower),
    layer("http.open_p50_ms", "ms", Lower),
    layer("http_p50_ms", "ms", Lower),
    layer("router.hop_p50_us", "us", Lower),
    layer("router.backend_share_max", "ratio", Lower),
    layer("router.open_p50_ms", "ms", Lower),
    layer("routed_p50_ms", "ms", Lower),
    layer("loadgen.late_p99_ms", "ms", Lower),
    layer("loadgen.late_max_ms", "ms", Lower),
    layer("profiling.quality_s", "s", Lower),
    layer("profiling.processing_s", "s", Lower),
    layer("profiling.quality_records", "count", Higher),
    layer("profiling.processing_records", "count", Higher),
    layer("predictors.quality_train_s", "s", Lower),
    layer("predictors.ptime_train_s", "s", Lower),
    layer("predictors.proctime_train_s", "s", Lower),
    layer("evaluation.truth_s", "s", Lower),
    layer("evaluation.select_ms", "ms", Lower),
    layer("partition.1dd_ms", "ms", Lower),
    layer("partition.1ds_ms", "ms", Lower),
    layer("partition.2d_ms", "ms", Lower),
    layer("partition.2ps_ms", "ms", Lower),
    layer("partition.crvc_ms", "ms", Lower),
    layer("partition.dbh_ms", "ms", Lower),
    layer("partition.hdrf_ms", "ms", Lower),
    layer("partition.hep1_ms", "ms", Lower),
    layer("partition.hep10_ms", "ms", Lower),
    layer("partition.hep100_ms", "ms", Lower),
    layer("partition.ne_ms", "ms", Lower),
    layer("partition.metrics_ms", "ms", Lower),
    layer("procsim.build_ms", "ms", Lower),
    layer("procsim.cc_ms", "ms", Lower),
    layer("procsim.kcores_ms", "ms", Lower),
    layer("procsim.pr_ms", "ms", Lower),
    layer("procsim.sssp_ms", "ms", Lower),
    layer("procsim.synthetic-high_ms", "ms", Lower),
    layer("procsim.synthetic-low_ms", "ms", Lower),
    layer("select_vs_optimal", "ratio", Lower),
    layer("select_vs_srf", "ratio", Lower),
    layer("optimal_pick_rate", "ratio", Higher),
    layer("failed_share", "ratio", Lower),
    layer("op_samples", "count", Higher),
    layer("traced_op_p50_ms", "ms", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.stages_over_op", "ratio", Higher),
];

/// Which code runs a workload.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Cold(Spec),
    ServeWarm,
    ServeChurn,
    TrainTiny,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// The percentile `op_tail_ms` reports on this workload — fixed, so the
    /// metric means the same thing in every run. `None` where a run has too
    /// few operations for any percentile above the median.
    pub tail_percentile: Option<f64>,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "cold-bel-skewed",
        why: "one-shot recommend on a skewed R-MAT .bel: mmap ingest is free, triangle counting \
              is most of the op; an ingest change must not move it",
        kind: Kind::Cold(Spec::BelSkewed),
        tail_percentile: Some(75.0),
    },
    WorkloadDef {
        name: "cold-text-sparse",
        why: "one-shot recommend on a sparse G(n,m) text edge list: parse, degree pass and CSR \
              build are half the op, triangles under half",
        kind: Kind::Cold(Spec::TextSparse),
        tail_percentile: Some(75.0),
    },
    WorkloadDef {
        name: "cold-bel-spilled",
        why: "the skewed .bel under a 1 MiB memory budget: the CSR is built into and read back \
              from an mmap'd spill file; guards the out-of-core path and its memory bound",
        kind: Kind::Cold(Spec::BelSpilled),
        tail_percentile: Some(75.0),
    },
    WorkloadDef {
        name: "serve-warm",
        why: "16 cached graphs behind a daemon and a router on one core, over v2 TCP and HTTP: \
              kernels idle; codec, framing, socket, executor hand-off and memo are the whole op",
        kind: Kind::ServeWarm,
        tail_percentile: Some(90.0),
    },
    WorkloadDef {
        name: "serve-churn",
        why: "256 graphs with Zipf(1.0) popularity over a 64-entry property cache: a third of \
              the requests re-extract and hits queue behind them; shows eviction, memo and \
              miss-path changes",
        kind: Kind::ServeChurn,
        tail_percentile: Some(90.0),
    },
    WorkloadDef {
        name: "train-tiny",
        why: "train + ground truth + evaluate at tiny scale: the only workload that runs \
              partition, procsim, ml training and profiling, and the paper's selection claim",
        kind: Kind::TrainTiny,
        tail_percentile: None,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Requests or operations of one phase of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    pub name: &'static str,
    pub sent: usize,
    pub failed: usize,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub phases: Vec<Phase>,
    metrics: BTreeMap<&'static str, f64>,
    /// Failed checks and sizing remarks, for the human reader.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a catalogued metric. A name outside the catalogue is a bug
    /// in the harness: it could never be printed.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name);
        let def = def.unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        self.metrics.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Add `sent` requests or operations, `failed` of them failed, to the
    /// phase called `name` (a phase repeated on several fleet instances is
    /// one phase).
    pub fn phase(&mut self, name: &'static str, sent: usize, failed: usize) {
        match self.phases.iter_mut().find(|p| p.name == name) {
            Some(phase) => {
                phase.sent += sent;
                phase.failed += failed;
            }
            None => self.phases.push(Phase { name, sent, failed }),
        }
    }

    /// Record a violated check: one failed operation in `phase`, never a
    /// panic that would lose the run's other numbers.
    pub fn violated(&mut self, phase: &'static str, what: String) {
        self.phase(phase, 0, 1);
        self.notes.push(format!("FAILED CHECK [{phase}]: {what}"));
    }

    /// Requests or operations the phase called `name` sent so far.
    pub fn sent(&self, name: &str) -> usize {
        self.phases.iter().find(|p| p.name == name).map_or(0, |p| p.sent)
    }

    pub fn attempted(&self) -> usize {
        self.phases.iter().map(|p| p.sent).sum()
    }

    pub fn failed(&self) -> usize {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// The catalogue entries of everything this run measured.
    pub fn measured(&self) -> Vec<MetricDef> {
        let all = END_TO_END.iter().chain(&PER_LAYER);
        all.filter(|def| self.metrics.contains_key(def.name)).copied().collect()
    }

    /// The run's result object: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding every metric of `defs`.
    pub fn result(&self, defs: &[MetricDef]) -> Value {
        let metrics = defs
            .iter()
            .map(|def| {
                let value = self.get(def.name).unwrap_or(0.0);
                let entry = Value::Obj(vec![
                    ("value".into(), Value::Num(value)),
                    ("unit".into(), Value::str(def.unit)),
                ]);
                (def.name.to_string(), entry)
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.failed() == 0)),
            ("attempted".into(), Value::UInt(self.attempted().max(1) as u64)),
            ("failed".into(), Value::UInt(self.failed() as u64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
    }
}

pub fn print_list() {
    println!("workloads:");
    for w in &WORKLOADS {
        let tail = w.tail_percentile.map_or("unsupported".to_string(), |p| format!("p{p}"));
        println!("  {:<18} op_tail_ms = {tail:<11}  {}", w.name, w.why);
    }
    println!("end-to-end metrics (every workload, --trace 0):");
    for m in &END_TO_END {
        let bound = m.bound.unwrap_or(0.0) * 100.0;
        println!("  {:<28} {:<9} better {:<6} bound {bound}%", m.name, m.unit, m.better.name());
    }
    println!("also judged by `compare`, from the untraced run of the workload named:");
    for j in &ALSO_JUDGED {
        println!("  {:<28} {:<12} {:?}", j.name, j.on.unwrap_or("every"), j.gate);
    }
    println!("per-layer metrics (--trace 1; 0 where the workload never enters the layer):");
    for m in &PER_LAYER {
        println!("  {:<28} {:<9} better {}", m.name, m.unit, m.better.name());
    }
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

/// `workload → metric → one value per untraced run`, read from a result
/// file: one JSON object per line, as `--out` appends them.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::UInt(n) => Some(*n as f64),
        Value::Num(x) => Some(*x),
        _ => None,
    }
}

pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (lineno, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = |what: &str| format!("result line {}: {what}", lineno + 1);
        let record = json::parse(line).map_err(|e| bad(&e))?;
        let workload =
            record.get("workload").and_then(Value::as_str).ok_or_else(|| bad("no workload"))?;
        // a traced run's end-to-end numbers come from shortened phases
        if matches!(record.get("trace"), Some(Value::Bool(true))) {
            continue;
        }
        let Some(Value::Obj(metrics)) = record.get("result").and_then(|r| r.get("metrics")) else {
            return Err(bad("no result.metrics object"));
        };
        let per_metric = runs.entry(workload.to_string()).or_default();
        for (name, entry) in metrics {
            let value = entry.get("value").and_then(number).ok_or_else(|| bad("bad value"))?;
            per_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(runs)
}

/// `name → (better, bound)` for the end-to-end metrics of a `BENCHMARK.json`.
pub fn parse_bounds(text: &str) -> Result<Vec<(String, Better, f64)>, String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Arr(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".into());
    };
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Some(Lower),
                Some("higher") => Some(Higher),
                _ => None,
            };
            let bound = m.get("bound").and_then(number);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok((name.to_string(), better, bound)),
                _ => Err("BENCHMARK.json: end_to_end entry without name/better/bound".to_string()),
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so the
    /// medians cannot tell a regression from noise.
    Unresolved,
}

/// Judge candidate runs `b` against base runs `a` of one metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, gate: Gate) -> Verdict {
    // `x` reads worse than `y`
    let worse = |x: f64, y: f64| match better {
        Lower => x > y,
        Higher => x < y,
    };
    let worst = |runs: &[f64]| runs.iter().copied().reduce(|x, y| if worse(y, x) { y } else { x });
    let (Some(base), Some(cand)) = (median(a), median(b)) else { return Verdict::Regressed };
    let regressed = match gate {
        Gate::Within(bound) => {
            let every_b_beats_every_a = b.iter().all(|&y| a.iter().all(|&x| worse(x, y)));
            if spread(a).max(spread(b)) > bound && !every_b_beats_every_a {
                return Verdict::Unresolved;
            }
            let by = if better == Lower { cand - base } else { base - cand };
            by / base.abs() > bound
        }
        Gate::NoWorse => worst(a).zip(worst(b)).is_none_or(|(a, b)| worse(b, a)),
        Gate::Exact => {
            let sorted = |runs: &[f64]| {
                let mut runs = runs.to_vec();
                runs.sort_by(f64::total_cmp);
                runs
            };
            sorted(a) != sorted(b)
        }
    };
    if regressed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Print one row per workload × judged metric — the end-to-end metrics of
/// `BENCHMARK.json` with its `bounds`, then [`ALSO_JUDGED`] — for every
/// workload either file holds; `true` when nothing regressed. A workload or
/// metric that one side lacks (a run that crashed wrote no record) counts as
/// regressed. `Exact` metrics want the same seeds on both sides.
pub fn compare(a: &Runs, b: &Runs, bounds: &[(String, Better, f64)]) -> bool {
    let better_of =
        |name: &str| PER_LAYER.iter().find(|m| m.name == name).map_or(Lower, |m| m.better);
    let judged: Vec<(&str, Gate, Option<&str>, Better)> = bounds
        .iter()
        .map(|(name, better, bound)| (name.as_str(), Gate::Within(*bound), None, *better))
        .chain(ALSO_JUDGED.iter().map(|j| (j.name, j.gate, j.on, better_of(j.name))))
        .collect();
    println!(
        "{:<18} {:<18} {:>12} {:>12} {:>22} {:>7}  verdict",
        "workload", "metric", "median(a)", "median(b)", "b/a (base a)", "gate"
    );
    let mut clean = true;
    let workloads: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for name in workloads {
        for &(metric, gate, on, better) in &judged {
            let no_tail = workload(name).is_some_and(|def| def.tail_percentile.is_none());
            if on.is_some_and(|on| on != name) || (metric == "op_tail_ms" && no_tail) {
                continue;
            }
            let runs = |side: &Runs| side.get(name).and_then(|m| m.get(metric)).cloned();
            let (va, vb) = (runs(a).unwrap_or_default(), runs(b).unwrap_or_default());
            let label = if va.is_empty() || vb.is_empty() {
                clean = false;
                "regressed (missing on one side)"
            } else {
                match judge(&va, &vb, better, gate) {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regressed => {
                        clean = false;
                        "regressed"
                    }
                }
            };
            let (ma, mb) = (median(&va).unwrap_or(f64::NAN), median(&vb).unwrap_or(f64::NAN));
            let gate = match gate {
                Gate::Within(bound) => format!("{:.0}%", bound * 100.0),
                Gate::NoWorse => "no worse".to_string(),
                Gate::Exact => "exact".to_string(),
            };
            println!(
                "{name:<18} {metric:<18} {ma:>12.4} {mb:>12.4} {:>10.4} of {ma:<9.4} {gate:>7}  \
                 {label} (n={}/{}, spread {:.1}%/{:.1}%)",
                mb / ma,
                va.len(),
                vb.len(),
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
            );
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn every_partitioner_and_training_workload_has_a_layer_metric() {
        let has = |name: String| PER_LAYER.iter().any(|m| m.name == name);
        for p in ease_partition::PartitionerId::ALL {
            assert!(has(format!("partition.{}_ms", p.name())), "{}", p.name());
        }
        for w in ease_procsim::Workload::all_training() {
            assert!(has(format!("procsim.{}_ms", w.name())), "{}", w.name());
        }
    }

    /// `BENCHMARK.json` at the repository root must list exactly this
    /// catalogue: the driver reads the file, the harness prints from here.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let mut dir = std::env::current_dir().expect("cwd");
        let text = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(dir.pop(), "no BENCHMARK.json above the package directory");
        };
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            let Some(Value::Arr(items)) = doc.get(key) else { panic!("no `{key}` list") };
            items.iter().map(|i| i.get("name").and_then(Value::as_str).unwrap().into()).collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.name));
        let bounds = parse_bounds(&text).expect("bounds parse");
        for (def, (name, better, bound)) in END_TO_END.iter().zip(&bounds) {
            assert_eq!((def.name, def.better, def.bound), (name.as_str(), *better, Some(*bound)));
        }
        let Some(Value::Arr(layers)) = doc.get("per_layer") else { unreachable!() };
        for (def, entry) in PER_LAYER.iter().zip(layers) {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit), "{}", def.name);
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(def.better.name()),
                "{}",
                def.name
            );
        }
        let Some(Value::Arr(workloads)) = doc.get("workloads") else { unreachable!() };
        for (def, entry) in WORKLOADS.iter().zip(workloads) {
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(def.why), "{}", def.name);
        }
    }

    #[test]
    fn result_carries_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.phase("ops", 40, 0);
        out.set("op_p50_ms", 1.25);
        let Value::Obj(pairs) = out.result(&END_TO_END) else { panic!("object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let rendered = out.result(&END_TO_END).render();
        assert!(rendered.contains(r#""correct":true,"attempted":40,"failed":0"#), "{rendered}");
        assert!(rendered.contains(r#""op_p50_ms":{"value":1.25,"unit":"ms"}"#), "{rendered}");
        // a violated check is a failed operation and makes the run incorrect
        out.violated("ops", "answer differs".into());
        assert_eq!((out.attempted(), out.failed()), (40, 1));
        // a phase repeated on another daemon instance stays one phase
        out.phase("ops", 10, 2);
        assert_eq!(out.phases, [Phase { name: "ops", sent: 50, failed: 3 }]);
        assert!(out.result(&END_TO_END).render().contains(r#""correct":false"#));
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let within = Gate::Within(0.10);
        // lower is better: +20 % against a 10 % bound regresses
        assert_eq!(judge(&[10.0], &[12.0], Lower, within), Verdict::Regressed);
        assert_eq!(judge(&[10.0], &[10.5], Lower, within), Verdict::Ok);
        assert_eq!(judge(&[10.0], &[8.0], Lower, within), Verdict::Ok);
        // higher is better: -20 % regresses, +20 % does not
        assert_eq!(judge(&[100.0], &[80.0], Higher, within), Verdict::Regressed);
        assert_eq!(judge(&[100.0], &[120.0], Higher, within), Verdict::Ok);
        // a spread wider than the bound cannot resolve a small difference …
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(judge(&noisy, &[10.5, 10.4, 10.6], Lower, within), Verdict::Unresolved);
        // … unless every candidate run beats every base run
        assert_eq!(judge(&noisy, &[5.0, 6.0, 5.5], Lower, within), Verdict::Ok);
    }

    #[test]
    fn no_worse_and_exact_gates_allow_no_drift() {
        // one failed op in one candidate run is an increase, whatever the median
        assert_eq!(
            judge(&[0.0, 0.0, 0.0], &[0.0, 0.001, 0.0], Lower, Gate::NoWorse),
            Verdict::Regressed
        );
        assert_eq!(judge(&[0.0, 0.0], &[0.0, 0.0], Lower, Gate::NoWorse), Verdict::Ok);
        assert_eq!(judge(&[0.0, 0.002], &[0.001, 0.0], Lower, Gate::NoWorse), Verdict::Ok);
        // the same seeds in another order reproduce; any other value does not
        assert_eq!(judge(&[1.10, 1.25], &[1.25, 1.10], Lower, Gate::Exact), Verdict::Ok);
        assert_eq!(
            judge(&[1.10, 1.25], &[1.10, 1.2500001], Lower, Gate::Exact),
            Verdict::Regressed
        );
        assert_eq!(judge(&[0.2], &[0.25], Higher, Gate::Exact), Verdict::Regressed);
    }

    /// A result-file line as `--out` writes it.
    fn record(workload: &str, trace: bool, failed: u64, metrics: &[(&str, f64)]) -> String {
        let metrics = metrics
            .iter()
            .map(|(name, value)| {
                let entry = Value::Obj(vec![("value".into(), Value::Num(*value))]);
                (name.to_string(), entry)
            })
            .collect();
        let result = Value::Obj(vec![
            ("correct".into(), Value::Bool(failed == 0)),
            ("attempted".into(), Value::UInt(5)),
            ("failed".into(), Value::UInt(failed)),
            ("metrics".into(), Value::Obj(metrics)),
        ]);
        Value::Obj(vec![
            ("workload".into(), Value::str(workload)),
            ("trace".into(), Value::Bool(trace)),
            ("result".into(), result),
        ])
        .render()
    }

    const BOUNDS: &str = r#"{"end_to_end":[
        {"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1},
        {"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#;

    #[test]
    fn result_files_and_bounds_round_trip_through_compare() {
        let line = |p50: f64| {
            let tail = ("op_tail_ms", 2.0 * p50);
            record(
                "w",
                false,
                0,
                &[("op_p50_ms", p50), tail, ("ops_per_s", 7.0), ("failed_share", 0.0)],
            )
        };
        let a = parse_runs(&format!("{}\n{}\n\n", line(10.0), line(10.2))).unwrap();
        let b = parse_runs(&line(13.0)).unwrap();
        assert_eq!(a["w"]["op_p50_ms"], vec![10.0, 10.2]);
        assert_eq!(a["w"]["ops_per_s"], vec![7.0, 7.0]);
        let bounds = parse_bounds(BOUNDS).unwrap();
        assert!(compare(&a, &a, &bounds), "a run set never regresses against itself");
        assert!(!compare(&a, &b, &bounds), "+29 % on op_p50_ms must regress");
        assert!(parse_runs("not json").is_err());
        assert!(parse_bounds("{}").is_err());
        // traced records carry shortened phases and are not compared
        let traced = record("w", true, 0, &[("op_p50_ms", 99.0)]);
        assert_eq!(
            parse_runs(&format!("{}\n{traced}", line(10.0))).unwrap()["w"]["op_p50_ms"],
            vec![10.0]
        );
    }

    #[test]
    fn compare_fails_a_broken_candidate() {
        let bounds = parse_bounds(BOUNDS).unwrap();
        let healthy =
            [("op_p50_ms", 10.0), ("op_tail_ms", 12.0), ("ops_per_s", 7.0), ("failed_share", 0.0)];
        let base = format!(
            "{}\n{}",
            record("w", false, 0, &healthy),
            record(
                "train-tiny",
                false,
                0,
                &[
                    &healthy[..],
                    &[
                        ("select_vs_optimal", 1.1),
                        ("select_vs_srf", 0.9),
                        ("optimal_pick_rate", 0.2),
                    ]
                ]
                .concat()
            ),
        );
        let a = parse_runs(&base).unwrap();
        assert!(compare(&a, &a, &bounds));
        let candidate = |edit: &dyn Fn(&str) -> String| parse_runs(&edit(&base)).unwrap();
        // a workload that crashed wrote no record
        let crashed = candidate(&|base| base.lines().next().unwrap().to_string());
        assert!(!compare(&a, &crashed, &bounds));
        assert!(!compare(&crashed, &a, &bounds), "missing on the base side fails as well");
        // a metric that vanished
        let dropped = candidate(&|base| base.replace(r#""ops_per_s":{"value":7},"#, ""));
        assert_ne!(dropped, a, "the edit must have applied");
        assert!(!compare(&a, &dropped, &bounds));
        // failed operations behind unchanged timings
        let failing = candidate(&|base| {
            base.replacen(r#""failed_share":{"value":0}"#, r#""failed_share":{"value":0.2}"#, 1)
        });
        assert_ne!(failing, a);
        assert!(!compare(&a, &failing, &bounds));
        // a selection that changed in the fourth digit
        let drifted = candidate(&|base| {
            base.replace(r#""select_vs_srf":{"value":0.9}"#, r#""select_vs_srf":{"value":0.9001}"#)
        });
        assert_ne!(drifted, a);
        assert!(!compare(&a, &drifted, &bounds));
    }
}
