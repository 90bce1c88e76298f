//! `ease-lint` — workspace-specific static analysis for the EASE repro.
//!
//! Clippy knows Rust; it does not know *this workspace*. The invariants
//! that actually broke in production here — a `Relaxed` load on a
//! `SeqCst` shutdown flag, an unwrap reachable from a client socket, a
//! frame magic duplicated away from its definition — are repo policy,
//! not language rules. This crate is a dependency-free static-analysis
//! pass (hand-rolled lexer, no `syn`) that walks the workspace sources
//! and enforces them as a blocking CI gate (`ci/lint.sh`).
//!
//! The checks (each toggleable, each documented via `--explain`):
//!
//! | check | invariant |
//! |---|---|
//! | `atomic-ordering` | control-flag atomics are `SeqCst`; every `Relaxed` is annotated |
//! | `panic-path` | no unwrap/expect/panic!/indexing in daemon-reachable code |
//! | `unsafe-hygiene` | every `unsafe` carries an adjacent `// SAFETY:` comment |
//! | `lock-across-io` | no `Mutex` guard held across socket I/O in `serve/` |
//! | `magic-constants` | protocol magics are defined in exactly one module |
//! | `annotation-grammar` | `// lint: <kind>-ok(<reason>)` annotations are well-formed |
//!
//! Findings print as `file:line: [check] message` and any unannotated
//! finding makes the binary exit nonzero.

use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

pub mod annotations;
pub mod checks;
pub mod lexer;

/// Identity of one check, used for toggling and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckId {
    AtomicOrdering,
    PanicPath,
    UnsafeHygiene,
    LockAcrossIo,
    MagicConstants,
    AnnotationGrammar,
}

impl CheckId {
    pub const ALL: [CheckId; 6] = [
        CheckId::AtomicOrdering,
        CheckId::PanicPath,
        CheckId::UnsafeHygiene,
        CheckId::LockAcrossIo,
        CheckId::MagicConstants,
        CheckId::AnnotationGrammar,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CheckId::AtomicOrdering => "atomic-ordering",
            CheckId::PanicPath => "panic-path",
            CheckId::UnsafeHygiene => "unsafe-hygiene",
            CheckId::LockAcrossIo => "lock-across-io",
            CheckId::MagicConstants => "magic-constants",
            CheckId::AnnotationGrammar => "annotation-grammar",
        }
    }

    pub fn from_name(name: &str) -> Option<CheckId> {
        CheckId::ALL.into_iter().find(|c| c.name() == name)
    }

    /// One-line summary (for `--list`).
    pub fn summary(self) -> &'static str {
        match self {
            CheckId::AtomicOrdering => {
                "control-flag atomics use SeqCst; every Ordering::Relaxed is annotated"
            }
            CheckId::PanicPath => {
                "no unwrap/expect/panic!/indexing in daemon-reachable code (serve/, service.rs)"
            }
            CheckId::UnsafeHygiene => "every `unsafe` carries an adjacent // SAFETY: comment",
            CheckId::LockAcrossIo => "no Mutex guard held across socket I/O in serve/",
            CheckId::MagicConstants => "protocol magics are defined in exactly one module",
            CheckId::AnnotationGrammar => "lint annotations parse and carry a non-empty reason",
        }
    }

    /// Full rule documentation (for `--explain <check>`).
    pub fn explain(self) -> &'static str {
        match self {
            CheckId::AtomicOrdering => {
                "atomic-ordering — the workspace memory-ordering policy.\n\
                 \n\
                 Why it exists: PR 6 shipped (and then fixed) a daemon shutdown flag that was\n\
                 stored SeqCst but loaded Relaxed. The accept loop and the workers could\n\
                 disagree about whether the daemon was shutting down — a lost-wakeup race that\n\
                 only shows up under load, with every worker pinned. This check makes that\n\
                 bug class unwriteable.\n\
                 \n\
                 Rule 1: any load/store/swap/fetch_*/compare_exchange* on an atomic whose\n\
                 receiver name matches the control-flag policy (substrings: shutdown, stop,\n\
                 shutting_down) must pass SeqCst for every ordering argument. Suppress only\n\
                 with `// lint: ordering-ok(<why>)` and a proof.\n\
                 \n\
                 Rule 2: every `Ordering::Relaxed` in the workspace needs an adjacent\n\
                 `// lint: relaxed-ok(<why>)` annotation. Relaxed is fine for monotonic stats\n\
                 counters and work-stealing indices — the annotation makes the author say so\n\
                 where the next reviewer will read it.\n\
                 \n\
                 Annotation placement: trailing on the flagged line, or a standalone comment\n\
                 line directly above it."
            }
            CheckId::PanicPath => {
                "panic-path — no panicking constructs in daemon-reachable modules.\n\
                 \n\
                 Scope: files under serve/, service.rs, the out-of-core spill layer\n\
                 (graph/src/spill.rs, graph/src/mmap.rs) and the byte codec whose Reader\n\
                 decodes every socket payload and model file (ml/src/persist.rs), outside\n\
                 #[cfg(test)]/#[test] items. A panic there kills a worker thread serving\n\
                 real clients, and the triggering input came off a socket or out of a\n\
                 file — outside bytes must never crash the fleet.\n\
                 \n\
                 Flagged: .unwrap(), .expect(...), panic!/unreachable!/todo!/unimplemented!,\n\
                 and slice/array indexing (every `[]` is an implicit panic path).\n\
                 \n\
                 Preferred fixes, in order: return a typed EaseError; recover (for lock\n\
                 poisoning: `unwrap_or_else(PoisonError::into_inner)` — a poisoned stats\n\
                 mutex should not take the daemon down); restructure to avoid indexing\n\
                 (`split_first`, `split_first_chunk`, `get`, pattern-match fixed arrays).\n\
                 When the panic is provably unreachable (compile-time in-bounds split of a\n\
                 fixed array), annotate the line: `// lint: panic-ok(<why>)`."
            }
            CheckId::UnsafeHygiene => {
                "unsafe-hygiene — every `unsafe` site carries a // SAFETY: comment.\n\
                 \n\
                 `unsafe` claims an invariant the compiler cannot check; SAFETY: is where\n\
                 the claim is written down so the next editor can re-check it before\n\
                 touching the code (the mmap module's raw mmap/munmap calls are the\n\
                 canonical sites here).\n\
                 \n\
                 The comment must be adjacent: same line, first line inside the block, or\n\
                 above the `unsafe` keyword with only comments/attributes/blank lines in\n\
                 between (within 8 lines). There is no annotation escape — the fix is\n\
                 writing the comment. Pairs with #![deny(unsafe_op_in_unsafe_fn)] so ambient\n\
                 unsafety inside unsafe fns is also explicit."
            }
            CheckId::LockAcrossIo => {
                "lock-across-io — no Mutex guard live across socket I/O in serve/.\n\
                 \n\
                 The shape that pins workers: `let g = m.lock()...;` followed by a socket\n\
                 read/write while `g` is still in scope. Every other worker then waits on\n\
                 the mutex for as long as the slowest client takes to drain its socket —\n\
                 one stalled peer serializes the daemon.\n\
                 \n\
                 Heuristic (lexical, intra-function): a let-binding whose right-hand side\n\
                 ends in .lock() (optionally piped through expect/unwrap/unwrap_or_else) is\n\
                 a guard; it is live until its block closes or an explicit drop(g); socket\n\
                 I/O is read_exact/write_all/flush/... plus the serve::protocol frame\n\
                 helpers. A chain that consumes the guard inside one statement\n\
                 (`q.lock().unwrap().recv()`) is the safe tight scope and is not flagged.\n\
                 \n\
                 Fix by copying what you need out of the guard and dropping it before the\n\
                 I/O (see the memo scoping in serve/server.rs), or annotate the I/O or\n\
                 binding line with `// lint: lock-io-ok(<why>)`."
            }
            CheckId::MagicConstants => {
                // lint: magic-ok(the --explain text names the protected magics)
                "magic-constants — protocol magics have exactly one defining module.\n\
                 \n\
                 Protected: 0xEA5F (FRAME_MAGIC_V2) in\n\
                 crates/core/src/serve/protocol.rs, \"EASEBEL1\" (BEL_MAGIC) in\n\
                 crates/graph/src/bel.rs, \"EASEMODL\" (persist::MAGIC) in\n\
                 crates/ml/src/persist.rs, and the HTTP sniff prefixes (b'G', b'E') /\n\
                 (b'P', b'O') (SNIFF_GET / SNIFF_POST) in crates/core/src/serve/http.rs.\n\
                 Integer, split-byte-pair (0xEA, 0x5F), split-byte-char-pair and\n\
                 string-literal spellings are all detected.\n\
                 \n\
                 Everywhere outside the home module, reference the exported constant — a\n\
                 duplicated magic is a protocol fork waiting to happen. An accidental\n\
                 collision (an RNG seed spelled 0xEA5F) is annotated\n\
                 `// lint: magic-ok(<why>)`."
            }
            CheckId::AnnotationGrammar => {
                "annotation-grammar — `// lint: <kind>-ok(<reason>)` must parse.\n\
                 \n\
                 Kinds: relaxed-ok, ordering-ok, panic-ok, lock-io-ok, magic-ok. The reason\n\
                 is mandatory (an empty `panic-ok()` is a finding) and unknown kinds are\n\
                 findings too — a typo must fail the gate, not silently suppress nothing.\n\
                 \n\
                 Placement: a trailing annotation covers its own line; a standalone comment\n\
                 line covers the next line carrying code."
            }
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub check: CheckId,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.check.name(), self.message)
    }
}

/// Lint one file's source. `file` must be the workspace-relative path
/// (scoping rules and the magic-constants home table match against it).
pub fn lint_source(file: &str, src: &str, enabled: &BTreeSet<CheckId>) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let (ann, mut findings) = annotations::collect(file, &lexed.tokens, &lexed.comments);
    if !enabled.contains(&CheckId::AnnotationGrammar) {
        findings.clear();
    }
    let test_mask = checks::compute_test_mask(&lexed.tokens);
    let ctx = checks::Ctx {
        file,
        tokens: &lexed.tokens,
        comments: &lexed.comments,
        annotations: &ann,
        test_mask: &test_mask,
    };
    checks::run(&ctx, |c| enabled.contains(&c), &mut findings);
    findings.sort_by_key(|a| (a.line, a.check));
    findings
}

/// Directory names never descended into: build output, vendored shims
/// (external code with its own idioms), VCS metadata, and lint fixtures
/// (which contain violations *on purpose*).
pub const SKIP_DIRS: &[&str] = &["target", "shims", ".git", "fixtures", "node_modules"];

/// Collect every `.rs` file under `root`, workspace-relative, sorted.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lint the whole workspace rooted at `root`. Findings come back sorted
/// by file then line.
pub fn lint_workspace(root: &Path, enabled: &BTreeSet<CheckId>) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for rel in workspace_files(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let rel = rel.to_string_lossy().replace('\\', "/");
        findings.extend(lint_source(&rel, &src, enabled));
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.check).cmp(&(b.file.as_str(), b.line, b.check))
    });
    Ok(findings)
}

/// The default-enabled check set (all of them).
pub fn all_checks() -> BTreeSet<CheckId> {
    CheckId::ALL.into_iter().collect()
}
