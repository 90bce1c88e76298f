//! `paper` — the one experiment driver: every table and figure of the
//! paper's evaluation (Sec. V, plus the motivating Figs. 1–2) as one
//! Markdown document on stdout, next to the paper's numbers; progress on
//! stderr. `paper [--scale tiny|small|medium] [--seed N] [ITEM...]`.
//!
//! The document is a pure function of scale and seed — partitioning times
//! are [`TimingMode::Deterministic`] — which is what lets `PAPER_RESULTS.md`
//! and `PAPER_RESULTS.tiny.md` be checked in and `ci/paper_smoke.sh` `cmp`
//! the tiny one. The items share five artefacts ([`Lab`]), each built
//! lazily and at most once per process.

mod items;
mod md;

use ease::enrich::train_enriched;
use ease::pipeline::{EaseConfig, TrainingArtifacts};
use ease::predictors::QualityPredictor;
use ease::profiling::{
    profile_processing_with, profile_quality_with, GraphInput, ProfileRun, TimingMode,
};
use ease::selector::Ease;
use ease::{EaseService, EaseServiceBuilder};
use ease_graph::PropertyTier;
use ease_graphgen::realworld::{self, TestGraph};
use ease_graphgen::Scale;
use ease_ml::ModelConfig;
use ease_partition::QualityTarget;
use items::ITEMS;
use std::cell::{OnceCell, RefCell};
use std::io::Write;

const USAGE: &str = "\
usage: paper [--scale tiny|small|medium] [--seed N] [ITEM...]

Prints the paper's tables and figures as one Markdown document on stdout
(progress on stderr). Defaults: --scale small, --seed 42, every item.

items: corpus fig1 fig2 fig6 table5 table6 table7 fig7 fig8 table8 fig9";

/// The enrichment study pins RFR (paper: XGB is only marginally better but
/// ~140x slower to retrain per enrichment level).
const RFR: ModelConfig = ModelConfig::Forest { n_trees: 60, max_depth: 14, feature_fraction: 0.6 };

/// What a command line asks for; `items` indexes [`ITEMS`], in its order.
#[derive(Debug, PartialEq)]
struct Args {
    scale: Scale,
    seed: u64,
    items: Vec<usize>,
}

/// `Ok(None)` is `--help`; an `Err` names the offending token.
fn parse_args(args: &[&str]) -> Result<Option<Args>, String> {
    let (mut scale, mut seed, mut wanted) = (Scale::Small, 42, Vec::new());
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg {
            "--help" | "-h" => return Ok(None),
            "--scale" => {
                let v = value()?;
                scale = Scale::parse(v).ok_or(format!("unknown scale `{v}`"))?;
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("seed `{v}` is not an unsigned integer"))?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name => {
                let item = ITEMS.iter().position(|item| item.name == name);
                wanted.push(item.ok_or(format!("unknown item `{name}`"))?);
            }
        }
    }
    let items = (0..ITEMS.len()).filter(|i| wanted.is_empty() || wanted.contains(i)).collect();
    Ok(Some(Args { scale, seed, items }))
}

/// The five artefacts every item is a function of. Each accessor builds its
/// artefact on first use, announces that on stderr, and hands out the same
/// value from then on.
pub struct Lab {
    pub cfg: EaseConfig,
    trained: OnceCell<(EaseService, TrainingArtifacts)>,
    truth: OnceCell<Vec<ProfileRun>>,
    test_quality: OnceCell<Vec<ProfileRun>>,
    wiki_pool: OnceCell<Vec<ProfileRun>>,
    fixed_rfr: OnceCell<QualityPredictor>,
    /// One entry per artefact built, in build order.
    built: RefCell<Vec<&'static str>>,
}

impl Lab {
    fn new(scale: Scale, seed: u64) -> Lab {
        let cfg =
            EaseConfig { seed, timing: TimingMode::Deterministic, ..EaseConfig::at_scale(scale) };
        let (trained, truth, test_quality, wiki_pool, fixed_rfr, built) = Default::default();
        Lab { cfg, trained, truth, test_quality, wiki_pool, fixed_rfr, built }
    }

    fn announce(&self, artefact: &'static str) {
        eprintln!("paper: building artefact {artefact}");
        self.built.borrow_mut().push(artefact);
    }

    /// (a) The trained service and what training profiled.
    fn trained(&self) -> &(EaseService, TrainingArtifacts) {
        self.trained.get_or_init(|| {
            self.announce("(a) trained service + training runs");
            let builder = EaseServiceBuilder::from_config(self.cfg.clone());
            builder.train_with_artifacts().expect("EaseConfig::at_scale is a valid configuration")
        })
    }

    pub fn ease(&self) -> &Ease {
        self.trained().0.ease()
    }

    /// The R-MAT-SMALL quality profile the service was trained on.
    pub fn train_quality(&self) -> &[ProfileRun] {
        &self.trained().1.quality_runs
    }

    /// An independent copy of the trained system (the codec round trip is
    /// bit-exact), for an item that swaps a predictor out.
    pub fn ease_copy(&self) -> Ease {
        let bytes = self.trained().0.to_bytes();
        EaseService::from_bytes(&bytes).expect("a service reloads its own bytes").into_ease()
    }

    /// (b) Every partitioner x workload on the Table IV test graphs — the
    /// ground truth, profiled exactly as `ease-bench`'s `train-tiny` does.
    pub fn truth(&self) -> &[ProfileRun] {
        self.truth.get_or_init(|| {
            self.announce("(b) Table IV ground truth");
            let cfg = &self.cfg;
            let tests = GraphInput::from_tests(realworld::table4_test_set(cfg.scale, cfg.seed));
            let (k, seed) = (cfg.processing_k, cfg.seed ^ 2);
            profile_processing_with(&tests, &cfg.partitioners, k, &cfg.workloads, seed, cfg.timing)
        })
    }

    /// The quality profile of one of the real-world sets.
    fn quality_of(&self, set: fn(Scale, u64) -> Vec<TestGraph>, salt: u64) -> Vec<ProfileRun> {
        let cfg = &self.cfg;
        let tests = GraphInput::from_tests(set(cfg.scale, cfg.seed ^ 0x7E57));
        profile_quality_with(&tests, &cfg.partitioners, &cfg.ks, cfg.seed ^ salt, cfg.timing)
    }

    /// (c) The quality profile of the standard real-world test set.
    pub fn test_quality(&self) -> &[ProfileRun] {
        self.test_quality.get_or_init(|| {
            self.announce("(c) standard test set quality runs");
            self.quality_of(realworld::standard_test_set, 1)
        })
    }

    /// (d) The quality profile of the 96-wiki enrichment pool.
    pub fn wiki_pool(&self) -> &[ProfileRun] {
        self.wiki_pool.get_or_init(|| {
            self.announce("(d) 96-wiki enrichment pool quality runs");
            self.quality_of(realworld::wiki_enrichment_pool, 2)
        })
    }

    /// (e) The fixed-RFR quality predictor (basic features, all five
    /// targets) on the training profile.
    pub fn fixed_rfr(&self) -> &QualityPredictor {
        self.fixed_rfr.get_or_init(|| {
            let train = self.train_quality();
            self.announce("(e) fixed-RFR quality predictor");
            QualityPredictor::train_fixed(train, PropertyTier::Basic, &RFR, &QualityTarget::ALL)
        })
    }

    /// A fixed-RFR predictor for `targets` on the training profile enriched
    /// with the whole wiki pool.
    pub fn enriched_rfr(&self, targets: &[QualityTarget]) -> QualityPredictor {
        train_enriched(self.train_quality(), self.wiki_pool(), PropertyTier::Basic, &RFR, targets)
    }
}

/// Render `items` (indices into [`ITEMS`]) into `out`, one section each.
fn run(lab: &Lab, items: &[usize], out: &mut dyn Write) -> std::io::Result<()> {
    let (scale, seed) = (lab.cfg.scale.name(), lab.cfg.seed);
    writeln!(
        out,
        "# EASE reproduction: the paper's tables and figures (scale {scale}, seed {seed})\n\n\
         Printed by `paper --scale {scale} --seed {seed}`; do not edit by hand. Graphs are \
         generated, processing times come from the `ease-procsim` cost ledger and partitioning \
         times from the deterministic proxy, so every number is a pure function of scale and seed. \
         \"paper\" columns quote Merkel et al., ICDE 2023 (arXiv:2304.04976); a note follows a \
         table wherever ours disagrees.\n"
    )?;
    for item in items.iter().map(|&i| &ITEMS[i]) {
        eprintln!("paper: {}", item.name);
        let mut doc = md::Doc(format!("## {}\n\n", item.title));
        (item.render)(lab, &mut doc);
        out.write_all(doc.0.as_bytes())?;
        out.flush()?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args.iter().map(String::as_str).collect::<Vec<_>>()) {
        Ok(None) => println!("{USAGE}"),
        Ok(Some(args)) => {
            let lab = Lab::new(args.scale, args.seed);
            if let Err(e) = run(&lab, &args.items, &mut std::io::stdout().lock()) {
                eprintln!("paper: writing the document: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("paper: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_to_two_flags_and_items_in_document_order() {
        let all = parse_args(&[]).unwrap().unwrap();
        assert_eq!(all, Args { scale: Scale::Small, seed: 42, items: (0..11).collect() });
        assert!(ITEMS.iter().all(|item| USAGE.contains(item.name)), "an item is not in the usage");
        let args = ["table8", "--seed", "7", "fig1", "--scale", "tiny", "fig1"];
        let some = parse_args(&args).unwrap().unwrap();
        assert_eq!(some, Args { scale: Scale::Tiny, seed: 7, items: vec![1, 9] });
        assert_eq!((ITEMS[1].name, ITEMS[9].name), ("fig1", "table8"));
        assert_eq!(parse_args(&["fig2", "--help"]), Ok(None));
        assert_eq!(parse_args(&["-h"]), Ok(None));
    }

    #[test]
    fn bad_arguments_name_the_offending_token() {
        for (args, token) in [
            (&["--scale", "huge"][..], "`huge`"),
            (&["--seed", "x"], "`x`"),
            (&["--seed", "-1"], "`-1`"),
            (&["fig3"], "`fig3`"),
            (&["--sede", "7"], "`--sede`"),
            (&["table5", "--scale"], "--scale needs a value"),
        ] {
            let err = parse_args(args).unwrap_err();
            assert!(err.contains(token), "{args:?}: {err}");
        }
    }

    /// The whole tiny document in one process: every item prints its
    /// section and each of the five artefacts is built exactly once; an item
    /// alone builds only what it reads.
    #[test]
    fn a_run_builds_each_artefact_it_needs_exactly_once() {
        let run_items = |names: &[&str]| {
            let (lab, mut out) = (Lab::new(Scale::Tiny, 42), Vec::new());
            run(&lab, &parse_args(names).unwrap().unwrap().items, &mut out).unwrap();
            let mut built: Vec<&str> = lab.built.borrow().iter().map(|a| &a[..3]).collect();
            built.sort_unstable();
            (built, String::from_utf8(out).unwrap())
        };
        let (built, text) = run_items(&["fig1"]);
        assert!(built.is_empty(), "{built:?}");
        assert!(text.starts_with("# EASE reproduction") && text.contains("\n## Fig. 1"));
        assert_eq!(run_items(&["table7"]).0, ["(a)", "(e)"]);
        let (built, text) = run_items(&[]);
        assert_eq!(built, ["(a)", "(b)", "(c)", "(d)", "(e)"]);
        for item in &ITEMS {
            assert!(text.contains(&format!("\n## {}\n", item.title)), "no {} section", item.name);
        }
    }
}
