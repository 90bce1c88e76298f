//! `ease-lint` — workspace-specific static analysis for the EASE repro.
//!
//! Clippy knows Rust; it does not know *this workspace*. The invariants
//! that actually broke in production here — a `Relaxed` load on a
//! `SeqCst` shutdown flag, a lock held while a slow client drains its
//! socket, a frame magic duplicated away from its definition — are repo
//! policy, not language rules. This crate is a dependency-free
//! static-analysis pass (hand-rolled lexer, no `syn`) that walks the
//! workspace sources and enforces them as a test:
//! `tests/workspace_clean.rs` fails `cargo test --workspace` on any
//! unannotated finding. Rules clippy can state are clippy lints instead:
//! the daemon's modules deny the panic lints (`unwrap_used`,
//! `indexing_slicing`, …) at their roots, and the workspace lint table
//! denies `undocumented_unsafe_blocks`.
//!
//! The checks (each module's docs state its full rule):
//!
//! | check | invariant |
//! |---|---|
//! | `atomic-ordering` | control-flag atomics are `SeqCst`; every `Relaxed` is annotated |
//! | `lock-across-io` | no `Mutex` guard held across socket I/O in `serve/` |
//! | `magic-constants` | protocol magics are defined in exactly one module |
//! | `annotation-grammar` | `// lint: <kind>-ok(<reason>)` annotations are well-formed |
//!
//! Findings print as `file:line: [check] message`.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

pub mod annotations;
pub mod checks;
pub mod lexer;

/// Which check produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckId {
    AtomicOrdering,
    LockAcrossIo,
    MagicConstants,
    AnnotationGrammar,
}

impl CheckId {
    pub fn name(self) -> &'static str {
        match self {
            CheckId::AtomicOrdering => "atomic-ordering",
            CheckId::LockAcrossIo => "lock-across-io",
            CheckId::MagicConstants => "magic-constants",
            CheckId::AnnotationGrammar => "annotation-grammar",
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

/// Lint one file's source with every check. `file` must be the
/// workspace-relative path (scoping rules and the magic-constants home
/// table match against it). Findings come back sorted by line.
pub fn lint_source(file: &str, src: &str) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let (ann, mut findings) = annotations::collect(file, &lexed.tokens, &lexed.comments);
    let test_mask = checks::compute_test_mask(&lexed.tokens);
    let ctx = checks::Ctx { file, tokens: &lexed.tokens, annotations: &ann, test_mask: &test_mask };
    checks::run(&ctx, &mut findings);
    findings.sort_by_key(|a| (a.line, a.check));
    findings
}

/// Directory names never descended into: build output, vendored shims
/// (external code with its own idioms), VCS metadata, and lint fixtures
/// (which contain violations *on purpose*).
const SKIP_DIRS: &[&str] = &["target", "shims", ".git", "fixtures", "node_modules"];

/// Collect every `.rs` file under `root`, workspace-relative, sorted.
fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
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

/// Lint the whole workspace rooted at `root`. Findings come back file by
/// file, each file's sorted by line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for rel in workspace_files(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let rel = rel.to_string_lossy().replace('\\', "/");
        findings.extend(lint_source(&rel, &src));
    }
    Ok(findings)
}
