//! `ease` — the partitioner-selection service CLI.
//!
//! Drives the full *train once, query cheaply* lifecycle from the shell:
//!
//! ```sh
//! ease gen --out graph.bel --kind rmat --vertices 1048576 --edges 8000000
//! ease convert --in graph.bel --out graph.txt
//! ease train --out ease.model --scale tiny --quick --deterministic
//! ease inspect --model ease.model
//! ease recommend --model ease.model --graph graph.bel --workload pr --goal e2e
//! ease features graph.bel --tier advanced
//!
//! # serve the trained model from a resident daemon (warm property cache)
//! ease serve --model ease.model --socket /tmp/ease.sock --tcp 127.0.0.1:7654 &
//! ease recommend --endpoint unix:/tmp/ease.sock --graph graph.bel --workload pr
//! ease recommend --endpoint tcp:127.0.0.1:7654 --graph graph.bel --workload pr
//! ease features graph.bel --endpoint http:127.0.0.1:7654
//! curl 'http://127.0.0.1:7654/recommend?graph=graph.bel&workload=pr'
//! ease client shutdown --endpoint unix:/tmp/ease.sock
//! ```
//!
//! Each subcommand is one [`COMMANDS`] entry — flags, help, handler — from
//! which `ease --help` is rendered and against which [`Flags::parse`] checks.
//! `ease client` only sends what has no local answer: a query is
//! `recommend` / `features`, with `--endpoint` to ask a daemon.
//!
//! Graph inputs are format-dispatched by extension: `.bel` files are
//! memory-mapped (zero-copy, no owned edge list), everything else is read
//! as a whitespace-separated text edge list. Every failure path is a typed
//! [`EaseError`] rendered as a one-line message with exit code 1 (2 for
//! usage errors) — no panics on user input.

use ease_repro::core::profiling::TimingMode;
use ease_repro::graph::bel::{BelSource, BelWriter};
use ease_repro::graph::io::TextEdgeListWriter;
use ease_repro::graph::source::TextStreamSource;
use ease_repro::graph::{is_bel_path, open_path, Edge, GraphSource, MemoryBudget};
use ease_repro::graphgen::realworld::{generate_typed, GraphType};
use ease_repro::graphgen::rmat::{Rmat, RMAT_COMBOS};
use ease_repro::graphgen::Scale;
use ease_repro::procsim::Workload;
use ease_repro::serve::{self, Endpoint, Request, Response, RouterConfig, ServeConfig};
use ease_repro::{EaseError, EaseService, EaseServiceBuilder, ServeError};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// One row of a subcommand's options: how it is spelled — `--name <metavar>`
/// for a flag that takes a value, `--name` for a switch, `<metavar>` for an
/// argument taken before the flags — and its help, one line per `\n`.
struct Flag(&'static str, &'static str);

impl Flag {
    /// The flag's name without `--`; `None` for the positional argument.
    fn name(&self) -> Option<&'static str> {
        let spec = self.0.strip_prefix("--")?;
        Some(spec.split_once(' ').map_or(spec, |(name, _)| name))
    }
}

/// One subcommand: what `ease --help` prints for it, what
/// [`Flags::parse`] accepts for it, and the handler that runs it.
struct Command {
    name: &'static str,
    summary: &'static str,
    flags: &'static [Flag],
    /// Printed under the options, one line per `\n`.
    notes: &'static str,
    run: fn(&Command, &[String]) -> Result<(), CliError>,
}

// flags more than one subcommand takes
const MODEL: Flag = Flag("--model <path>", "Saved service, as `ease train` wrote it");
const GRAPH: Flag = Flag("--graph <path>", "Edge list, text or .bel (required)");
const ENDPOINT: Flag = Flag("--endpoint <ep>", "Daemon to ask: unix:<path>|tcp:<addr>|http:<addr>");
const MEMORY_BUDGET: Flag =
    Flag("--memory-budget <sz>", "Spill CSRs to disk past <sz> (64k, 2gb, ...)");
const SOCKET: Flag = Flag("--socket <path>", "Unix socket path to listen on");
const TCP: Flag = Flag("--tcp <addr>", "TCP listen address (host:port; port 0 picks one)");
const WORKERS: Flag = Flag("--workers <n>", "Worker threads     [default: cores, 2..8]");

const COMMANDS: &[Command] = &[
    Command {
        name: "train",
        summary: "Train a selection service and save it to disk",
        flags: &[
            Flag("--out <path>", "Where to save the trained service (required)"),
            Flag("--scale <s>", "tiny | small | medium           [default: tiny]"),
            Flag("--quick", "Use the reduced quick model grid"),
            Flag("--folds <n>", "Cross-validation folds          [default: per scale]"),
            Flag("--seed <n>", "Training seed                   [default: 0xEA5E]"),
            Flag("--deterministic", "Analytical timing proxy instead of wall clock"),
            Flag("--k <n>", "Default partition count for recommendations"),
            Flag("--max-small <n>", "Cap the quality-training corpus"),
            Flag("--max-large <n>", "Cap the time-training corpus"),
        ],
        notes: "",
        run: cmd_train,
    },
    Command {
        name: "recommend",
        summary: "Query a saved service for the best partitioner for a graph",
        flags: &[
            MODEL,
            GRAPH,
            Flag(
                "--workload <w>",
                "pr | cc | sssp | kcores | lp | synthetic-low |\n\
                 synthetic-high                  [default: pr]",
            ),
            Flag("--k <n>", "Partition count                 [default: service]"),
            Flag("--goal <g>", "e2e | processing                [default: e2e]"),
            Flag("--top <n>", "How many candidates to print    [default: 5]"),
            ENDPOINT,
            MEMORY_BUDGET,
        ],
        notes: "",
        run: cmd_query,
    },
    Command {
        name: "features",
        summary: "Extract a graph's feature vector (with extraction timings)",
        flags: &[
            Flag("<edge-list>", "The graph, given first without --graph"),
            GRAPH,
            Flag("--tier <t>", "simple | basic | advanced       [default: advanced]"),
            ENDPOINT,
            MEMORY_BUDGET,
        ],
        notes: "",
        run: cmd_query,
    },
    Command {
        name: "inspect",
        summary: "Print a saved service's provenance and chosen models",
        flags: &[MODEL],
        notes: "",
        run: cmd_inspect,
    },
    Command {
        name: "gen",
        summary: "Generate a synthetic graph file to experiment with",
        flags: &[
            Flag("--out <path>", "Where to write the graph (required)"),
            Flag(
                "--kind <k>",
                "rmat | soc | web | wiki | citation |\n\
                 collaboration | interaction | internet |\n\
                 affiliation | product_network   [default: soc]",
            ),
            Flag("--scale <s>", "not rmat: tiny | small | medium [default: tiny]"),
            Flag("--seed <n>", "Generator seed                  [default: 42]"),
            Flag("--vertices <n>", "rmat only: vertex count         [default: 65536]"),
            Flag("--edges <n>", "rmat only: edge count           [default: 524288]"),
            Flag("--combo <c>", "rmat only: Table II combo 0..8  [default: 5]"),
        ],
        notes: "A flag the chosen kind does not read is a usage error. The format\n\
                follows the extension of --out (.bel or text). Edges stream to the\n\
                output file as they are generated; `--kind rmat` never materializes the\n\
                graph at all (constant memory at any size).",
        run: cmd_gen,
    },
    Command {
        name: "convert",
        summary: "Convert between text and binary (.bel) edge lists",
        flags: &[
            Flag("--in <path>", "Input edge list (format by extension, required)"),
            Flag("--out <path>", "Output edge list (format by extension, required)"),
        ],
        notes: "Conversion streams in both directions and never holds the whole graph.",
        run: cmd_convert,
    },
    Command {
        name: "serve",
        summary: "Run a resident recommendation daemon (unix socket and/or TCP)",
        flags: &[MODEL, SOCKET, TCP, WORKERS, MEMORY_BUDGET],
        notes: "At least one of --socket and --tcp. The model loads once; the property\n\
                cache stays warm across clients. Each connection speaks binary v2\n\
                (pipelined) or HTTP/1.1 + JSON — `curl 'http://host:port/recommend?\n\
                graph=g.bel&workload=pr'` works on the same port. `ease client shutdown`\n\
                drains in-flight requests, removes the socket file and exits 0.",
        run: cmd_serve,
    },
    Command {
        name: "route",
        summary: "Front a fleet of daemons with a consistent-hash router",
        flags: &[
            Flag(
                "--backend <ep>",
                "A daemon to front, unix:<path> or tcp:<host:\n\
                 port>; repeatable, at least one. Not http: the\n\
                 router multiplexes binary v2 sessions",
            ),
            SOCKET,
            TCP,
            WORKERS,
        ],
        notes: "At least one of --socket and --tcp; clients speak v2 or HTTP, as to serve.\n\
                A graph's queries hash to one warm backend and fail over along the ring;\n\
                oversized ones steer to budget headroom, or shed with a typed overload.\n\
                `cache-stats` folds the fleet; `shutdown` stops it, backends included.",
        run: cmd_route,
    },
    Command {
        name: "client",
        summary: "Send ping, cache-stats or shutdown to a running daemon",
        flags: &[Flag("<action>", "ping | cache-stats | shutdown"), ENDPOINT],
        notes: "The endpoint is required. Queries are not client actions: they are\n\
                `ease recommend|features --endpoint <ep>`.",
        run: cmd_client,
    },
];

/// `ease --help`, rendered from [`COMMANDS`].
fn usage() -> String {
    let mut text = String::from(
        "ease — partitioner selection with EASE (Merkel et al., ICDE 2023)\n\n\
         USAGE:\n    ease <SUBCOMMAND> [OPTIONS]\n\nSUBCOMMANDS:\n",
    );
    for cmd in COMMANDS {
        text += &format!("    {:<13}{}\n", cmd.name, cmd.summary);
    }
    text += "\nGraph files ending in `.bel` are memory-mapped binary edge lists (header +\n\
             little-endian u64 pairs); anything else is a whitespace-separated text edge\n\
             list. `.bel` inputs are analyzed zero-copy — no owned edge list is ever\n\
             materialized.\n";
    for cmd in COMMANDS {
        text += &format!("\n{} OPTIONS:\n", cmd.name.to_uppercase());
        for Flag(spec, help) in cmd.flags {
            for (i, line) in help.lines().enumerate() {
                text += &format!("    {:<22}{line}\n", if i == 0 { spec } else { "" });
            }
        }
        for line in cmd.notes.lines() {
            text += &format!("    {line}\n");
        }
    }
    text
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, args) =
        args.split_first().map_or(("", &[][..]), |(name, args)| (name.as_str(), args));
    let result = match COMMANDS.iter().find(|cmd| cmd.name == name) {
        Some(cmd) => (cmd.run)(cmd, args),
        None if matches!(name, "--help" | "-h" | "help") => Err(CliError::Help),
        None => {
            if !name.is_empty() {
                eprintln!("unknown subcommand `{name}`\n");
            }
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Help) => {
            print!("{}", usage());
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("usage error: {msg} (see `ease --help`)");
            ExitCode::from(2)
        }
        Err(CliError::Ease(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

enum CliError {
    /// `--help` among a subcommand's flags.
    Help,
    Usage(String),
    Ease(EaseError),
}

impl From<EaseError> for CliError {
    fn from(e: EaseError) -> Self {
        CliError::Ease(e)
    }
}

impl From<ease_repro::graph::GraphIoError> for CliError {
    fn from(e: ease_repro::graph::GraphIoError) -> Self {
        CliError::Ease(e.into())
    }
}

/// A subcommand's arguments, parsed against its [`Command`] entry.
struct Flags {
    positional: Option<String>,
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parse the arguments of `ease <cmd>`: its positional, if it takes
    /// one and one comes first, then its flags. Any other flag is a usage
    /// error naming the accepted ones, so a typo is never ignored.
    fn parse(cmd: &Command, args: &[String]) -> Result<Flags, CliError> {
        let takes_positional = cmd.flags.iter().any(|flag| flag.name().is_none());
        let positional = args.first().filter(|arg| takes_positional && !arg.starts_with("--"));
        let mut it = args.iter().skip(usize::from(positional.is_some()));
        let mut pairs = Vec::new();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(CliError::Usage(format!("unexpected argument `{arg}`")));
            };
            if name == "help" {
                return Err(CliError::Help);
            }
            let Some(flag) = cmd.flags.iter().find(|flag| flag.name() == Some(name)) else {
                let accepted: Vec<String> =
                    cmd.flags.iter().filter_map(Flag::name).map(|n| format!("--{n}")).collect();
                return Err(CliError::Usage(format!(
                    "unknown flag --{name} for ease {} (accepted: {})",
                    cmd.name,
                    accepted.join(", ")
                )));
            };
            let value = flag.0.contains(' ').then(|| it.next().cloned());
            if value == Some(None) {
                return Err(CliError::Usage(format!("--{name} needs a value")));
            }
            pairs.push((name.to_string(), value.flatten()));
        }
        Ok(Flags { positional: positional.cloned(), pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(n, _)| *n == name).and_then(|(_, v)| v.as_deref())
    }

    /// Every value given for a repeatable flag, in argument order
    /// (`--backend a --backend b` → `["a", "b"]`).
    fn get_all(&self, name: &str) -> Vec<&str> {
        self.pairs.iter().filter(|(n, _)| *n == name).filter_map(|(_, v)| v.as_deref()).collect()
    }

    fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| *n == name)
    }

    fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name).ok_or_else(|| CliError::Usage(format!("--{name} is required")))
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("--{name} `{v}` is not a number"))),
        }
    }
}

fn parse_scale(flags: &Flags) -> Result<Scale, CliError> {
    let s = flags.get("scale").unwrap_or(Scale::Tiny.name());
    Scale::parse(s).ok_or_else(|| CliError::Usage(format!("unknown scale `{s}`")))
}

fn parse_workload(name: &str) -> Result<Workload, CliError> {
    Workload::from_name(name).ok_or_else(|| CliError::Usage(format!("unknown workload `{name}`")))
}

/// A streaming edge writer, format-dispatched like [`open_path`].
enum EdgeOut {
    Text(TextEdgeListWriter),
    Bel(BelWriter),
}

impl EdgeOut {
    /// The extension picks the format, as it does for every reader: a file
    /// written here always opens with [`open_path`].
    fn create(path: &Path) -> Result<EdgeOut, CliError> {
        let out = if is_bel_path(path) {
            EdgeOut::Bel(BelWriter::create(path).map_err(EaseError::Io)?)
        } else {
            EdgeOut::Text(TextEdgeListWriter::create(path).map_err(EaseError::Io)?)
        };
        Ok(out)
    }

    fn push(&mut self, e: Edge) -> std::io::Result<()> {
        match self {
            EdgeOut::Text(w) => w.push(e),
            EdgeOut::Bel(w) => w.push(e),
        }
    }

    /// Finish the file. `num_vertices` preserves an explicit vertex
    /// universe in both formats (`.bel` carries it in the header, text in
    /// the summary comment readers honour), so isolated trailing vertices
    /// survive every conversion direction.
    fn finish(self, num_vertices: Option<usize>) -> std::io::Result<()> {
        match (self, num_vertices) {
            (EdgeOut::Text(w), Some(n)) => w.finish_with_vertices(n),
            (EdgeOut::Text(w), None) => w.finish(),
            (EdgeOut::Bel(w), Some(n)) => w.finish_with_vertices(n),
            (EdgeOut::Bel(w), None) => w.finish(),
        }
    }

    fn format_name(&self) -> &'static str {
        match self {
            EdgeOut::Text(_) => "txt",
            EdgeOut::Bel(_) => "bel",
        }
    }
}

/// Stream edges from `emit` into `sink`, surfacing the first write error
/// (the emitter drains regardless — generator callbacks cannot be aborted
/// mid-stream, so errors are captured and rethrown after the pass).
fn drain_edges(
    emit: impl FnOnce(&mut dyn FnMut(Edge)),
    sink: &mut EdgeOut,
) -> Result<(), CliError> {
    let mut write_error: Option<std::io::Error> = None;
    emit(&mut |e| {
        if write_error.is_none() {
            if let Err(err) = sink.push(e) {
                write_error = Some(err);
            }
        }
    });
    match write_error {
        Some(err) => Err(CliError::Ease(EaseError::Io(err))),
        None => Ok(()),
    }
}

/// True when two paths refer to the same file. Canonicalization catches
/// symlinks and relative spellings; on unix the `(dev, ino)` pair also
/// catches hard links — truncating the output while the input's inode is
/// mapped or streamed would crash mid-read.
fn same_file(a: &Path, b: &Path) -> bool {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        if let (Ok(ma), Ok(mb)) = (std::fs::metadata(a), std::fs::metadata(b)) {
            return ma.dev() == mb.dev() && ma.ino() == mb.ino();
        }
    }
    match (a.canonicalize(), b.canonicalize()) {
        (Ok(ca), Ok(cb)) => ca == cb,
        _ => false,
    }
}

fn cmd_train(cmd: &Command, args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(cmd, args)?;
    let out = PathBuf::from(flags.require("out")?);
    let scale = parse_scale(&flags)?;
    let mut builder = EaseServiceBuilder::at_scale(scale);
    if flags.has("quick") {
        builder = builder.quick_grid();
    }
    if flags.has("deterministic") {
        builder = builder.timing(TimingMode::Deterministic);
    }
    if let Some(folds) = flags.parse_num::<usize>("folds")? {
        builder = builder.folds(folds);
    }
    if let Some(seed) = flags.parse_num::<u64>("seed")? {
        builder = builder.seed(seed);
    }
    if let Some(k) = flags.parse_num::<usize>("k")? {
        builder = builder.processing_k(k);
    }
    if let Some(cap) = flags.parse_num::<usize>("max-small")? {
        builder = builder.max_small_graphs(Some(cap));
    }
    if let Some(cap) = flags.parse_num::<usize>("max-large")? {
        builder = builder.max_large_graphs(Some(cap));
    }
    let cfg = builder.config();
    eprintln!(
        "training EASE: scale={} grid={} folds={} timing={} ({} + {} graphs)...",
        cfg.scale.name(),
        cfg.grid.len(),
        cfg.folds,
        cfg.timing.name(),
        cfg.small_inputs().len(),
        cfg.large_inputs().len(),
    );
    let start = std::time::Instant::now();
    let service = builder.train()?;
    service.save(&out)?;
    let size = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "trained in {:.1}s, saved {} ({:.1} KiB)",
        start.elapsed().as_secs_f64(),
        out.display(),
        size as f64 / 1024.0
    );
    Ok(())
}

/// `ease recommend|features`: parse the flags into the [`Request`] they
/// spell — through the walker that decodes the same query from JSON and
/// from a `GET` query string, so field names, defaults and vocabularies
/// cannot drift — then send it to the daemon `--endpoint` names, or answer
/// it in this process.
fn cmd_query(cmd: &Command, args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(cmd, args)?;
    if flags.positional.is_some() && flags.has("graph") {
        return Err(CliError::Usage("give the graph as <edge-list> or --graph, not both".into()));
    }
    let graph = flags.positional.as_deref().or(flags.get("graph"));
    let endpoint = daemon_endpoint(&flags)?;
    // the daemon answers with its own model and budget: next to --endpoint a
    // flag only a local answer reads would be silently dropped
    if endpoint.is_some() {
        if let Some(flag) = ["model", "memory-budget"].into_iter().find(|&flag| flags.has(flag)) {
            return Err(CliError::Usage(format!("--{flag} is not read with --endpoint")));
        }
    }
    // sent along so the server resolves relative graph paths against
    // *this* process's working directory, not the daemon's
    let cwd = std::env::current_dir().ok().and_then(|d| d.to_str().map(String::from));
    let request = Request::from_text(cmd.name, "flag", |key| match key {
        "cwd" => cwd.as_deref(),
        "graph" => graph,
        "workload" => flags.get(key).or(Some("pr")),
        _ => flags.get(key),
    })
    .map_err(|e| match e {
        EaseError::Serve(ServeError::Protocol(msg)) => CliError::Usage(msg),
        other => CliError::Ease(other),
    })?;
    // validate client-side so a typo is a usage error (exit 2) before any
    // socket or model is touched — identical to one-shot behaviour
    if let Request::Recommend { workload, .. } = &request {
        parse_workload(workload)?;
    }
    match endpoint {
        // proxy: the daemon's warm service answers; no model load here
        // (budgeting is the daemon's own --memory-budget, not the client's)
        Some(endpoint) => {
            let response = serve::call_endpoint(&endpoint, &request)?;
            print!("{}", serve::expect_answer(response)?);
            Ok(())
        }
        None => answer_one_shot(&flags, request),
    }
}

/// `--memory-budget <size>`: cap for derived analysis state (CSRs); builds
/// that would exceed it spill to disk. Sizes accept `0`, plain bytes, or
/// `64k` / `512MiB` / `2gb` suffixes; `unlimited` disables the cap.
fn memory_budget_flag(flags: &Flags) -> Result<Option<Arc<MemoryBudget>>, CliError> {
    match flags.get("memory-budget") {
        None => Ok(None),
        Some(spec) => {
            let limit = MemoryBudget::parse_limit(spec)
                .map_err(|e| CliError::Usage(format!("--memory-budget: {e}")))?;
            Ok(Some(Arc::new(MemoryBudget::bytes(limit))))
        }
    }
}

/// Answer a query in this process — the one-shot path. Rendering and
/// extraction go through [`serve::render_recommendation`] and
/// [`serve::render_features`], the functions the daemon answers with, so
/// both paths emit identical bytes for identical queries.
fn answer_one_shot(flags: &Flags, request: Request) -> Result<(), CliError> {
    let budget = memory_budget_flag(flags)?;
    let text = match request {
        Request::Recommend { graph, workload, k, goal, top, .. } => {
            let model = flags.get("model").ok_or_else(|| {
                CliError::Usage("--model is required (or --endpoint to query a daemon)".into())
            })?;
            let service = EaseService::load(Path::new(model))?;
            let workload = parse_workload(&workload)?;
            // format-dispatched ingestion: `.bel` mmaps, text materializes
            let source = open_path(Path::new(&graph)).map_err(EaseError::from)?;
            let k = k.unwrap_or(service.meta().default_k);
            serve::render_recommendation(
                &service,
                &graph,
                source.as_ref(),
                workload,
                k,
                goal,
                top,
                budget.as_ref(),
            )?
        }
        Request::Features { graph, tier, .. } => {
            let source = open_path(Path::new(&graph)).map_err(EaseError::from)?;
            serve::render_features(&graph, source.as_ref(), tier, budget.as_ref())?
        }
        other => return Err(CliError::Usage(format!("{other:?} is not a one-shot query"))),
    };
    print!("{text}");
    Ok(())
}

/// Render an [`Endpoint::parse`] failure for `flag` as a usage error
/// (exit 2) naming the accepted forms.
fn endpoint_usage(flag: &str, spec: &str) -> CliError {
    CliError::Usage(format!(
        "{flag} `{spec}` is not an endpoint \
         (expected unix:<path>, tcp:<host:port>, or http:<host:port>)"
    ))
}

/// Where to proxy a one-shot query instead of loading a model:
/// `--endpoint unix:<path>|tcp:<addr>|http:<addr>`, if given.
fn daemon_endpoint(flags: &Flags) -> Result<Option<Endpoint>, CliError> {
    flags
        .get("endpoint")
        .map(|spec| Endpoint::parse(spec).map_err(|_| endpoint_usage("--endpoint", spec)))
        .transpose()
}

/// The listener half of `ease serve` and `ease route`: `--socket` and/or
/// `--tcp`, `--workers`.
fn listen_config(sub: &str, flags: &Flags) -> Result<ServeConfig, CliError> {
    let socket = flags.get("socket").map(PathBuf::from);
    let mut config = match (socket, flags.get("tcp")) {
        (Some(path), Some(addr)) => ServeConfig::at(path).tcp(addr),
        (Some(path), None) => ServeConfig::at(path),
        (None, Some(addr)) => ServeConfig::tcp_at(addr),
        (None, None) => return Err(CliError::Usage(format!("{sub} needs --socket and/or --tcp"))),
    };
    if let Some(workers) = flags.parse_num::<usize>("workers")? {
        if workers == 0 {
            return Err(CliError::Usage("--workers must be >= 1".into()));
        }
        config = config.workers(workers);
    }
    Ok(config)
}

/// Announce a started listener stack as `ease <sub>: <what> on <endpoints>
/// (<detail>)` plus the command that stops it, then serve until shutdown.
fn run_listener(
    sub: &str,
    what: &str,
    detail: &str,
    handle: serve::ServerHandle,
) -> Result<(), CliError> {
    // the *resolved* TCP address: with port 0 this is where the kernel
    // actually put us, and the only place a client can learn it
    let endpoints: Vec<String> = handle
        .socket_path()
        .map(|path| format!("unix:{}", path.display()))
        .into_iter()
        .chain(handle.tcp_addr().map(|addr| format!("tcp:{addr}")))
        .collect();
    eprintln!("ease {sub}: {what} on {} ({detail})", endpoints.join(" + "));
    if let Some(stop) = endpoints.first() {
        eprintln!("ease {sub}: stop with `ease client shutdown --endpoint {stop}`");
    }
    let summary = handle.join()?;
    eprintln!("ease {sub}: drained after {} requests", summary.requests_served);
    Ok(())
}

fn cmd_serve(cmd: &Command, args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(cmd, args)?;
    let model = PathBuf::from(flags.require("model")?);
    let mut config = listen_config("serve", &flags)?;
    if let Some(budget) = memory_budget_flag(&flags)? {
        config = config.memory_budget(budget);
    }
    let workers = config.workers;
    let service = Arc::new(EaseService::load(&model)?);
    let cache = service.property_cache_stats();
    let handle = serve::serve(service, config)?;
    run_listener(
        "serve",
        &format!("model {}", model.display()),
        &format!(
            "{workers} workers, property cache {} warm / {} capacity",
            cache.len, cache.capacity
        ),
        handle,
    )
}

/// A `--backend` endpoint spec, parsed with the shared [`Endpoint::parse`]
/// grammar. `http:` backends are a usage error: the router multiplexes
/// pipelined binary v2 sessions to its backends, which the JSON facade
/// by design does not speak.
fn parse_backend(spec: &str) -> Result<Endpoint, CliError> {
    let endpoint = Endpoint::parse(spec).map_err(|_| endpoint_usage("--backend", spec))?;
    if matches!(endpoint, Endpoint::Http(_)) {
        return Err(CliError::Usage(format!(
            "--backend `{spec}`: the router needs binary v2 backends \
             (unix:<path> or tcp:<host:port>), not http:"
        )));
    }
    Ok(endpoint)
}

fn cmd_route(cmd: &Command, args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(cmd, args)?;
    let backends: Vec<Endpoint> =
        flags.get_all("backend").into_iter().map(parse_backend).collect::<Result<_, _>>()?;
    if backends.is_empty() {
        return Err(CliError::Usage("route needs at least one --backend".into()));
    }
    let listen = listen_config("route", &flags)?;
    let workers = listen.workers;
    let n = backends.len();
    let handle = serve::route(RouterConfig::new(listen, backends))?;
    run_listener(
        "route",
        &format!("fronting {n} backend(s)"),
        &format!("{workers} workers"),
        handle,
    )
}

fn cmd_client(cmd: &Command, args: &[String]) -> Result<(), CliError> {
    // before the flags, which would be the query's and not the client's
    if let Some(query @ ("recommend" | "features")) = args.first().map(String::as_str) {
        let one_form = format!("ease {query} --endpoint <ep>");
        return Err(CliError::Usage(format!("`ease client {query}` is `{one_form}`")));
    }
    let flags = Flags::parse(cmd, args)?;
    // an action is the wire name of a request without fields
    let action = flags.positional.as_deref().unwrap_or_default();
    let request = Request::from_text(action, "flag", |_| None).map_err(|_| {
        CliError::Usage(format!("unknown client action `{action}` (ping | cache-stats | shutdown)"))
    })?;
    let endpoint =
        daemon_endpoint(&flags)?.ok_or_else(|| CliError::Usage("--endpoint is required".into()))?;
    match (&request, serve::call_endpoint(&endpoint, &request)?) {
        (Request::CacheStats, Response::CacheStats(stats)) => print!("{}", stats.render()),
        (Request::Ping, Response::Pong { version }) => println!("pong (protocol v{version})"),
        (Request::Shutdown, Response::ShuttingDown) => {
            eprintln!("daemon on {endpoint} is shutting down");
        }
        (_, other) => {
            return Err(EaseError::from(ServeError::Protocol(format!(
                "unexpected response {other:?}"
            )))
            .into())
        }
    }
    Ok(())
}

fn cmd_inspect(cmd: &Command, args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(cmd, args)?;
    let model = PathBuf::from(flags.require("model")?);
    let service = EaseService::load(&model)?;
    let info = service.info();
    println!("EASE service {}", model.display());
    println!("  scale:       {}", info.meta.scale.name());
    println!("  seed:        {:#x}", info.meta.seed);
    println!("  cv folds:    {}", info.meta.folds);
    println!("  timing:      {}", info.meta.timing.name());
    println!("  default k:   {}", info.meta.default_k);
    println!("  goal:        {}", info.meta.default_goal.name());
    println!("  feature tier: {}", info.tier.name());
    println!(
        "  catalog:     {}",
        info.catalog.iter().map(|p| p.name()).collect::<Vec<_>>().join(", ")
    );
    println!("  workloads:   {}", info.workloads.join(", "));
    println!("  models:");
    for (component, config, cv_mape) in &info.chosen {
        if cv_mape.is_nan() {
            println!("    {component:<28} {config}");
        } else {
            println!("    {component:<28} {config}  (cv MAPE {cv_mape:.3})");
        }
    }
    Ok(())
}

fn cmd_gen(cmd: &Command, args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(cmd, args)?;
    let out = PathBuf::from(flags.require("out")?);
    let seed = flags.parse_num::<u64>("seed")?.unwrap_or(42);
    let kind_name = flags.get("kind").unwrap_or("soc");
    let kind = match kind_name {
        "rmat" => None,
        name => Some(
            GraphType::ALL
                .into_iter()
                .find(|t| t.name() == name)
                .ok_or_else(|| CliError::Usage(format!("unknown graph kind `{name}`")))?,
        ),
    };
    // a flag the kind does not read is a typo, not a no-op
    let unread: &[&str] = if kind.is_none() { &["scale"] } else { &["vertices", "edges", "combo"] };
    if let Some(flag) = unread.iter().find(|&&flag| flags.has(flag)) {
        return Err(CliError::Usage(format!("--{flag} is not read by --kind {kind_name}")));
    }
    let io_err = |e: std::io::Error| CliError::Ease(EaseError::Io(e));

    let Some(kind) = kind else {
        // pure streaming: edges go from the generator straight into the
        // file writer — the graph is never materialized, so the size is
        // bounded by disk, not RAM. Validate every argument *before*
        // creating the output file, so usage errors leave nothing behind.
        let num_vertices = flags.parse_num::<usize>("vertices")?.unwrap_or(1 << 16);
        let num_edges = flags.parse_num::<usize>("edges")?.unwrap_or(1 << 19);
        let combo = flags.parse_num::<usize>("combo")?.unwrap_or(5);
        if combo >= RMAT_COMBOS.len() {
            return Err(CliError::Usage(format!("--combo must be 0..{}", RMAT_COMBOS.len() - 1)));
        }
        if num_vertices < 2 {
            return Err(CliError::Usage("--vertices must be >= 2".into()));
        }
        if num_vertices as u64 > u64::from(u32::MAX) + 1 {
            return Err(CliError::Usage(
                "--vertices exceeds the u32 vertex id space (max 4294967296)".into(),
            ));
        }
        let rmat = Rmat::new(RMAT_COMBOS[combo], num_vertices, num_edges, seed);
        let mut sink = EdgeOut::create(&out)?;
        let format = sink.format_name();
        drain_edges(|f| rmat.generate_into(f), &mut sink)?;
        sink.finish(Some(num_vertices)).map_err(io_err)?;
        eprintln!(
            "wrote {} (rmat C{}: |V|={num_vertices} |E|={num_edges}, {format}, streamed)",
            out.display(),
            combo + 1,
        );
        return Ok(());
    };

    let scale = parse_scale(&flags)?;
    let mut sink = EdgeOut::create(&out)?;
    let format = sink.format_name();
    // library generators materialize internally (multi-pass models); the
    // edges still stream into the writer rather than through a second copy
    let tg = generate_typed(kind, 0, scale, seed);
    for &e in tg.graph.edges() {
        sink.push(e).map_err(io_err)?;
    }
    sink.finish(Some(tg.graph.num_vertices())).map_err(io_err)?;
    eprintln!(
        "wrote {} ({}: |V|={} |E|={}, {format})",
        out.display(),
        tg.name,
        tg.graph.num_vertices(),
        tg.graph.num_edges(),
    );
    Ok(())
}

fn cmd_convert(cmd: &Command, args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(cmd, args)?;
    let input = PathBuf::from(flags.require("in")?);
    let output = PathBuf::from(flags.require("out")?);
    let io_err = |e: std::io::Error| CliError::Ease(EaseError::Io(e));
    // Creating the output truncates it — converting a file onto itself
    // (same path, symlink, or hard link) would pull the mapped/streamed
    // input out from under the reader mid-pass.
    if same_file(&input, &output) {
        return Err(CliError::Usage("--in and --out must be different files".into()));
    }
    // Streaming in both directions: text input goes through the validating
    // stream reader (never holds the file), `.bel` input through the mmap.
    let source: Box<dyn GraphSource> = if is_bel_path(&input) {
        Box::new(BelSource::open(&input)?)
    } else {
        Box::new(TextStreamSource::open(&input)?)
    };
    let mut sink = EdgeOut::create(&output)?;
    let format = sink.format_name();
    drain_edges(|f| source.for_each_edge(f), &mut sink)?;
    sink.finish(Some(source.num_vertices())).map_err(io_err)?;
    eprintln!(
        "converted {} -> {} (|V|={} |E|={}, {format})",
        input.display(),
        output.display(),
        source.num_vertices(),
        source.edge_count(),
    );
    Ok(())
}
