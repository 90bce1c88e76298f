//! `ease-bench` — the repository's benchmark: one harness, six named
//! workloads, end-to-end metrics from an untraced run and per-layer metrics
//! from a traced one. `README.md` beside this file has the tables.
//!
//! ```sh
//! ease-bench --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1] [--out <file>]
//! ease-bench list
//! ease-bench compare <a> <b> [--benchmark <BENCHMARK.json>]
//! ```
//!
//! A run prints every metric by name with its unit and, as the last line of
//! standard output, the result object `BENCHMARK.json`'s contract asks for.
//! Work-bound timings are divided by what the shared host did to them while
//! they ran ([`Meter`], `probe.rs`); the wall-clock values are printed beside
//! them as `*_raw` layer metrics.
//! The seed drives graph generation, request order and popularity draws
//! only: the program under test sees generated files and requests.

mod cold;
mod host;
mod inputs;
mod loadgen;
mod probe;
mod report;
mod serving;
mod stats;
mod trace;
mod training;

use ease::serve::json::Value;
use inputs::{ctx, Res};
use probe::Slowdown;
use report::{Kind, Outcome, WorkloadDef, END_TO_END, PER_LAYER};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// One invocation of one workload.
pub struct Run<'a> {
    pub def: &'static WorkloadDef,
    /// Scratch directory of this run (relative to the working directory).
    pub dir: &'a Path,
    pub seed: u64,
    /// How long the timed part measures.
    pub seconds: f64,
    pub trace: bool,
}

/// Set-up runs this many times per run and `setup_s` is the median: one
/// training pass swings ±25 % on a shared host.
const SETUP_REPEATS: usize = 3;

/// Generate the workload's input files and train its model in a child
/// process (`ease-bench prepare …`), so that the measuring process never
/// holds training's memory — `peak_rss_mib` is then what serving or a cold
/// recommend needs — and every set-up repeat trains against a cold corpus
/// cache. The child's wall time is part of `setup_s`.
pub fn prepare_in_child(run: &Run) -> Res<()> {
    let exe = std::env::current_exe().map_err(ctx("locate own executable"))?;
    let status = std::process::Command::new(exe)
        .args(["prepare", "--workload", run.def.name, "--seed", &run.seed.to_string(), "--dir"])
        .arg(run.dir)
        .status()
        .map_err(ctx("spawn `ease-bench prepare`"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("`ease-bench prepare` failed: {status}"))
    }
}

/// The hidden `prepare` subcommand: what [`prepare_in_child`] runs.
fn prepare(args: &[String]) -> ExitCode {
    let [w, workload, s, seed, d, dir] = args else { return usage() };
    if (w.as_str(), s.as_str(), d.as_str()) != ("--workload", "--seed", "--dir") {
        return usage();
    }
    let Ok(seed) = seed.parse::<u64>() else { return usage() };
    let dir = Path::new(dir);
    let prepared = match report::workload(workload).map(|def| def.kind) {
        Some(Kind::Cold(spec)) => cold::prepare_files(dir, spec, seed),
        Some(Kind::ServeWarm) => serving::prepare_files(dir, serving::WARM_GRAPHS, seed),
        Some(Kind::ServeChurn) => serving::prepare_files(dir, serving::CHURN_GRAPHS, seed),
        Some(Kind::TrainTiny) | None => Err(format!("`{workload}` has no files to prepare")),
    };
    match prepared {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("ease-bench prepare: {why}");
            ExitCode::from(1)
        }
    }
}

/// One slice of measured work: what it returned, how long it took on the
/// wall clock, and how much slower than nominal the host ran meanwhile.
pub struct Slice<T> {
    pub value: T,
    pub seconds: f64,
    /// Mean of the probe passes right before and right after the slice:
    /// 1.0 on the quiet sizing host, 1.3–1.6 while a neighbour shares the
    /// core.
    pub slowdown: Slowdown,
}

/// Runs measured work slice by slice with a pass of the probes between
/// slices, so that every slice knows the host's speed while it ran
/// (`probe.rs` has the why and the evidence).
pub struct Meter {
    probes: probe::Probes,
    /// The latest pass, if nothing long ran since: the "before" of the next
    /// slice.
    last_pass: Option<Slowdown>,
    slowdowns: Vec<Slowdown>,
}

impl Meter {
    /// `with_handoffs`: the run is pinned to one core and has
    /// hand-off-bound work ([`probe::Probes::new`]).
    pub fn new(with_handoffs: bool) -> Res<Meter> {
        let probes = probe::Probes::new(with_handoffs).map_err(ctx("start the host probes"))?;
        Ok(Meter { probes, last_pass: None, slowdowns: Vec::new() })
    }

    pub fn slice<T>(&mut self, work: impl FnOnce() -> T) -> Slice<T> {
        let before = self.last_pass.unwrap_or_else(|| self.probes.pass());
        let t = Instant::now();
        let value = work();
        let seconds = t.elapsed().as_secs_f64();
        let after = self.probes.pass();
        self.last_pass = Some(after);
        let slowdown = Slowdown::mean(before, after);
        self.slowdowns.push(slowdown);
        Slice { value, seconds, slowdown }
    }

    /// Call after anything long that was not a slice: the latest pass no
    /// longer says what the next slice starts under.
    pub fn stale(&mut self) {
        self.last_pass = None;
    }

    /// Report the host's median slowdown over the run's slices.
    pub fn report(&self, out: &mut Outcome) {
        let compute: Vec<f64> = self.slowdowns.iter().map(|s| s.compute).collect();
        out.set("host.compute_slowdown", stats::median(&compute).unwrap_or(1.0));
        let handoffs: Vec<f64> = self.slowdowns.iter().filter_map(|s| s.handoffs).collect();
        if let Some(handoffs) = stats::median(&handoffs) {
            out.set("host.handoff_slowdown", handoffs);
        }
    }
}

/// Build the workload's state [`SETUP_REPEATS`] times (dropping each before
/// the next is built, so daemons stop and ports free), report the median
/// build time — each divided by the host's slowdown while it ran — as
/// `setup_s`, and keep the last state for the timed part.
pub fn repeated_setup<S>(
    out: &mut Outcome,
    meter: &mut Meter,
    mut build: impl FnMut() -> Res<S>,
) -> Res<S> {
    let (mut seconds, mut raw_seconds) = (Vec::new(), Vec::new());
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        meter.stale();
        // generating, training and warming are loops over memory
        let built = meter.slice(&mut build);
        state = Some(built.value?);
        seconds.push(built.seconds / built.slowdown.compute);
        raw_seconds.push(built.seconds);
    }
    out.set("setup_s", stats::median(&seconds).expect("SETUP_REPEATS > 0"));
    out.set("setup_raw_s", stats::median(&raw_seconds).expect("SETUP_REPEATS > 0"));
    state.ok_or_else(|| "set-up never ran".to_string())
}

/// The timings of a run's operations, as wall-clock values and divided by
/// the host's slowdown.
#[derive(Default)]
pub struct OpSamples {
    pub latency_ms: Vec<f64>,
    /// The latencies `op_tail_ms` is taken from, where the tail is bound by
    /// something else than the median and so divided by another probe's
    /// slowdown (`serve-churn`); empty where it is `latency_ms`.
    pub tail_latency_ms: Vec<f64>,
    pub raw_latency_ms: Vec<f64>,
    /// Closed-loop rate of each slice, operations per second.
    pub rates: Vec<f64>,
    pub raw_rates: Vec<f64>,
}

/// Report the metrics every workload shares: the median latency, the
/// median slice's closed-loop rate, and how well the samples support the
/// tail percentile.
pub fn report_ops(run: &Run, out: &mut Outcome, ops: &OpSamples) -> Res<()> {
    let p50 = stats::median(&ops.latency_ms).ok_or("no operation succeeded")?;
    out.set("op_p50_ms", p50);
    out.set("op_p50_raw_ms", stats::median(&ops.raw_latency_ms).unwrap_or(p50));
    out.set("ops_per_s", stats::median(&ops.rates).ok_or("no closed-loop slice succeeded")?);
    out.set("ops_per_s_raw", stats::median(&ops.raw_rates).unwrap_or(0.0));
    let n = ops.latency_ms.len();
    out.set("op_samples", n as f64);
    let supported =
        stats::highest_supported_percentile(n).map_or("none".to_string(), |p| format!("p{p}"));
    match run.def.tail_percentile {
        Some(pct) => {
            let of = match ops.tail_latency_ms.is_empty() {
                true => &ops.latency_ms,
                false => &ops.tail_latency_ms,
            };
            out.set("op_tail_ms", stats::percentile(of, pct).unwrap_or(p50));
            let beyond = stats::samples_beyond(n, pct);
            out.notes.push(format!(
                "op_tail_ms is p{pct} of {n} samples, {beyond} beyond it (highest percentile \
                 with 10 beyond: {supported})"
            ));
        }
        None => out.notes.push(format!(
            "op_tail_ms is unsupported on this workload ({n} samples; highest percentile with \
             10 beyond: {supported})"
        )),
    }
    Ok(())
}

/// Sequential operations for about `budget_s` seconds (and at least
/// `min_ops` of them): the timed part of the cold and train workloads, one
/// operation a slice. In a traced run every `op` is followed by a
/// `traced_op` — the same work with its stages called one by one inside
/// spans — and the difference between the two wall-clock medians is reported
/// as the tracing overhead. An `Err` from either is a failed operation with
/// no latency.
pub fn sequential_ops(
    run: &Run,
    out: &mut Outcome,
    meter: &mut Meter,
    phase: &'static str,
    (budget_s, min_ops): (f64, usize),
    mut op: impl FnMut() -> Res<()>,
    mut traced_op: impl FnMut(u32) -> Res<()>,
) -> Res<()> {
    let started = Instant::now();
    let (mut ops, mut traced_ms, mut failed) = (OpSamples::default(), Vec::new(), 0);
    let mut failed_op = |why: String| {
        failed += 1;
        out.notes.push(format!("FAILED OP [{phase}]: {why}"));
    };
    meter.stale();
    let mut rounds = 0;
    while started.elapsed().as_secs_f64() < budget_s || rounds < min_ops {
        let timed = meter.slice(&mut op);
        match timed.value {
            Ok(()) => {
                let raw_ms = timed.seconds * 1e3;
                ops.raw_latency_ms.push(raw_ms);
                ops.latency_ms.push(raw_ms / timed.slowdown.compute);
                ops.raw_rates.push(1.0 / timed.seconds);
                ops.rates.push(timed.slowdown.compute / timed.seconds);
            }
            Err(why) => failed_op(why),
        }
        if run.trace {
            let t = Instant::now();
            match traced_op(traced_ms.len() as u32) {
                Ok(()) => traced_ms.push(t.elapsed().as_secs_f64() * 1e3),
                Err(why) => failed_op(why),
            }
            meter.stale();
        }
        rounds += 1;
    }
    out.phase(phase, ops.latency_ms.len() + traced_ms.len() + failed, failed);
    report_ops(run, out, &ops)?;
    if run.trace {
        let op_p50 = stats::median(&ops.raw_latency_ms).ok_or("no untraced op succeeded")?;
        let traced_p50 = stats::median(&traced_ms).ok_or("no traced op succeeded")?;
        out.set("traced_op_p50_ms", traced_p50);
        out.set("trace.overhead_share", (traced_p50 - op_p50) / op_p50);
    }
    Ok(())
}

/// A stage of a traced op: its span name, the layer metric its median self
/// time is reported as, and the factor from milliseconds to that metric's
/// unit.
pub type Stage = (&'static str, &'static str, f64);

/// Report every stage's median self time, and the share of the untraced op
/// the stages account for together as `trace.stages_over_op`.
pub fn report_stages(out: &mut Outcome, tracer: &trace::Tracer, stages: &[Stage]) {
    let mut sum_ms = 0.0;
    for &(span, metric, per_ms) in stages {
        let self_ms = tracer.median_self_ms(span).unwrap_or(0.0);
        sum_ms += self_ms;
        out.set(metric, self_ms * per_ms);
    }
    // spans are wall-clock, so they are set against the wall-clock median
    if let Some(op_p50) = out.get("op_p50_raw_ms") {
        out.set("trace.stages_over_op", sum_ms / op_p50);
    }
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Res<RunArgs> {
    let mut parsed =
        RunArgs { workload: String::new(), seed: 1, seconds: 10.0, trace: false, out: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value("--workload")?,
            "--seed" => parsed.seed = value("--seed")?.parse().map_err(ctx("--seed"))?,
            "--seconds" => {
                parsed.seconds = value("--seconds")?.parse().map_err(ctx("--seconds"))?
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ease-bench --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1] [--out \
         <file>]\n       ease-bench list\n       ease-bench compare <a> <b> [--benchmark \
         <BENCHMARK.json>]"
    );
    ExitCode::from(2)
}

fn run(args: &[String]) -> ExitCode {
    let parsed = match parse_run_args(args) {
        Ok(parsed) => parsed,
        Err(why) => {
            eprintln!("ease-bench: {why}");
            return usage();
        }
    };
    let Some(def) = report::workload(&parsed.workload) else {
        eprintln!("ease-bench: unknown workload `{}` (see `ease-bench list`)", parsed.workload);
        return ExitCode::from(2);
    };
    match run_workload(def, &parsed) {
        // a failed check is reported in the result (`"correct": false`),
        // which a reader only trusts from a run that exited cleanly
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("ease-bench: {}: {why}", def.name);
            ExitCode::from(1)
        }
    }
}

/// Run one workload and print its result.
fn run_workload(def: &'static WorkloadDef, args: &RunArgs) -> Res<()> {
    let scratch = host::RunDir::create().map_err(ctx("create scratch dir"))?;
    // `ease::profiling` spills its R-MAT corpus under the system temp dir;
    // point that at the scratch dir so the run (and the `prepare` children
    // that inherit the variable) writes nowhere else. Set before any thread
    // exists.
    let absolute = std::env::current_dir().map_err(ctx("cwd"))?.join(scratch.path());
    std::env::set_var("TMPDIR", &absolute);

    let run =
        Run { def, dir: scratch.path(), seed: args.seed, seconds: args.seconds, trace: args.trace };
    let mut out = Outcome::default();
    let mut tracer = trace::Tracer::new();
    // read before a serve workload pins the process to one of them
    let nproc = host::nproc();
    let serves = matches!(def.kind, Kind::ServeWarm | Kind::ServeChurn);
    if serves {
        // before any thread of the run exists (`serving.rs` has the why)
        host::pin_to_one_cpu(&mut out);
    }
    let mut meter = Meter::new(serves)?;
    match def.kind {
        Kind::Cold(spec) => cold::run(&run, spec, &mut out, &mut meter, &mut tracer)?,
        Kind::ServeWarm => serving::run_warm(&run, &mut out, &mut meter, &mut tracer)?,
        Kind::ServeChurn => serving::run_churn(&run, &mut out, &mut meter, &mut tracer)?,
        Kind::TrainTiny => training::run(&run, &mut out, &mut meter, &mut tracer)?,
    }
    meter.report(&mut out);
    out.set("peak_rss_mib", host::peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?);
    out.set("failed_share", out.failed() as f64 / out.attempted().max(1) as f64);

    let defs: &[report::MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let result = out.result(defs);
    let environment = Value::Obj(vec![
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("rustc".into(), Value::str(host::rustc_version())),
        ("commit".into(), Value::str(host::git_commit())),
    ]);
    print_human(def, args, &out, &environment);
    if args.trace {
        let path = Path::new(host::SCRATCH_ROOT).join(format!("trace-{}.json", def.name));
        std::fs::write(&path, tracer.to_json()).map_err(ctx("write trace"))?;
        println!("spans written to {}", path.display());
    }
    if let Some(path) = &args.out {
        let record = Value::Obj(vec![
            ("workload".into(), Value::str(def.name)),
            ("seed".into(), Value::UInt(args.seed)),
            ("seconds".into(), Value::Num(args.seconds)),
            ("trace".into(), Value::Bool(args.trace)),
            ("tail_percentile".into(), def.tail_percentile.map_or(Value::Null, Value::Num)),
            ("environment".into(), environment),
            ("phases".into(), phases_json(&out)),
            // everything the run measured, not only what standard output's
            // last line carries: `compare` judges more than that
            ("result".into(), out.result(&out.measured())),
        ]);
        let mut file = std::fs::File::options()
            .create(true)
            .append(true)
            .open(path)
            .map_err(ctx("open --out file"))?;
        writeln!(file, "{}", record.render()).map_err(ctx("append to --out file"))?;
    }
    println!("{}", result.render());
    Ok(())
}

fn phases_json(out: &Outcome) -> Value {
    let phases = out
        .phases
        .iter()
        .map(|p| {
            Value::Obj(vec![
                ("name".into(), Value::str(p.name)),
                ("sent".into(), Value::UInt(p.sent as u64)),
                ("succeeded".into(), Value::UInt(p.sent.saturating_sub(p.failed) as u64)),
                ("failed".into(), Value::UInt(p.failed as u64)),
            ])
        })
        .collect();
    Value::Arr(phases)
}

fn print_human(def: &WorkloadDef, args: &RunArgs, out: &Outcome, environment: &Value) {
    println!(
        "### ease-bench {} seed={} seconds={} trace={}",
        def.name, args.seed, args.seconds, args.trace
    );
    println!("environment: {}", environment.render());
    for p in &out.phases {
        let succeeded = p.sent.saturating_sub(p.failed);
        println!(
            "phase {:<22} sent {:>6}  succeeded {succeeded:>6}  failed {}",
            p.name, p.sent, p.failed
        );
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    for m in out.measured() {
        let value = out.get(m.name).expect("measured() lists set metrics");
        println!("{:<28} {value:>14.4} {}", m.name, m.unit);
    }
}

fn compare(args: &[String]) -> ExitCode {
    let (mut files, mut benchmark) = (Vec::new(), PathBuf::from("BENCHMARK.json"));
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match (arg.as_str(), it.len()) {
            ("--benchmark", 1..) => benchmark = PathBuf::from(it.next().expect("len checked")),
            _ => files.push(arg),
        }
    }
    let [a, b] = files[..] else { return usage() };
    let read =
        |path: &Path| std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()));
    let loaded = (|| -> Res<bool> {
        let bounds = report::parse_bounds(&read(&benchmark)?)?;
        let runs_a = report::parse_runs(&read(Path::new(a))?)?;
        let runs_b = report::parse_runs(&read(Path::new(b))?)?;
        Ok(report::compare(&runs_a, &runs_b, &bounds))
    })();
    match loaded {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("ease-bench compare: {why}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            report::print_list();
            ExitCode::SUCCESS
        }
        Some("compare") => compare(&args[1..]),
        Some("prepare") => prepare(&args[1..]),
        // a run has no subcommand: the benchmark contract appends
        // `--workload …` to the bare command
        Some(flag) if flag.starts_with("--") => run(&args),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn run_arguments_are_the_contracts() {
        let a =
            parse_run_args(&args("--workload serve-warm --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-warm", 7, 10.0, false)
        );
        assert!(parse_run_args(&args("--workload x --trace 1")).unwrap().trace);
        assert!(parse_run_args(&args("--trace --workload x")).is_err());
        assert!(parse_run_args(&args("--workload x --trace")).is_err());
        let a = parse_run_args(&args("--workload x --out r.jsonl")).unwrap();
        assert_eq!(a.out.as_deref(), Some(Path::new("r.jsonl")));
        assert!(parse_run_args(&args("--seed")).is_err());
        assert!(parse_run_args(&args("--seed nine")).is_err());
        assert!(parse_run_args(&args("--seconds 0")).is_err());
        assert!(parse_run_args(&args("--bogus")).is_err());
    }

    #[test]
    fn ops_report_medians_and_the_workloads_tail_percentile() {
        let def = report::workload("serve-warm").expect("catalogued");
        let run = Run { def, dir: Path::new("."), seed: 1, seconds: 1.0, trace: false };
        let latency_ms: Vec<f64> = (1..=100).map(f64::from).collect();
        let ops = OpSamples {
            raw_latency_ms: latency_ms.iter().map(|ms| ms * 2.0).collect(),
            latency_ms,
            tail_latency_ms: Vec::new(),
            rates: vec![30.0, 10.0, 20.0],
            raw_rates: vec![5.0],
        };
        let mut out = Outcome::default();
        report_ops(&run, &mut out, &ops).unwrap();
        assert_eq!(out.get("op_p50_ms"), Some(50.5));
        assert_eq!(out.get("op_p50_raw_ms"), Some(101.0));
        assert_eq!(out.get("op_tail_ms"), Some(90.0));
        assert_eq!(out.get("ops_per_s"), Some(20.0));
        assert_eq!(out.get("op_samples"), Some(100.0));
        // a tail divided by another slowdown comes from its own samples
        let ops = OpSamples { tail_latency_ms: vec![7.0; 10], ..ops };
        report_ops(&run, &mut out, &ops).unwrap();
        assert_eq!((out.get("op_p50_ms"), out.get("op_tail_ms")), (Some(50.5), Some(7.0)));
        assert!(report_ops(&run, &mut out, &OpSamples::default()).is_err());
    }

    #[test]
    fn a_workload_without_a_tail_percentile_reports_none() {
        let def = report::workload("train-tiny").expect("catalogued");
        let run = Run { def, dir: Path::new("."), seed: 1, seconds: 1.0, trace: false };
        let ops =
            OpSamples { latency_ms: vec![3.0, 1.0, 2.0], rates: vec![0.5], ..OpSamples::default() };
        let mut out = Outcome::default();
        report_ops(&run, &mut out, &ops).unwrap();
        assert_eq!((out.get("op_p50_ms"), out.get("op_tail_ms")), (Some(2.0), None));
        assert!(out.notes.iter().any(|note| note.contains("unsupported")));
    }

    #[test]
    fn setup_repeats_and_reports_the_median() {
        let (mut out, mut meter) = (Outcome::default(), Meter::new(true).unwrap());
        let mut builds = 0;
        let state = repeated_setup(&mut out, &mut meter, || {
            builds += 1;
            Ok(builds)
        });
        assert_eq!((state, builds), (Ok(SETUP_REPEATS), SETUP_REPEATS));
        assert!(out.get("setup_s").is_some() && out.get("setup_raw_s").is_some());
        let failed: Res<()> = repeated_setup(&mut out, &mut meter, || Err("no".into()));
        assert_eq!(failed, Err("no".to_string()));
    }

    #[test]
    fn a_slice_sits_between_two_passes() {
        // a "before" no real pass could read
        let mark = Slowdown { compute: 1e6, handoffs: Some(1e6) };
        let mut meter = Meter::new(true).unwrap();
        meter.last_pass = Some(mark);
        let slice = meter.slice(|| 7);
        assert_eq!(slice.value, 7);
        let after = meter.last_pass.expect("the pass after the slice");
        assert_eq!(slice.slowdown, Slowdown::mean(mark, after));
        // a stale pass is no "before"
        meter.last_pass = Some(mark);
        meter.stale();
        let fresh = meter.slice(|| ()).slowdown;
        assert!(fresh.compute < 1e5 && fresh.handoffs.is_some_and(|h| h < 1e5), "{fresh:?}");
        assert_eq!(meter.slowdowns.len(), 2);
    }
}
