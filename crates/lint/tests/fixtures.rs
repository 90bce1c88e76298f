//! Fixture tests: each check is exercised against a small source file
//! containing the violation (and a conforming twin), linted under a
//! synthetic workspace-relative path so the scoping rules apply. The
//! fixtures live outside `src/` and are skipped by the workspace walk
//! (`SKIP_DIRS`) — they contain violations *on purpose*.

use ease_lint::{lint_source, CheckId, Finding};

const PR6: &str = include_str!("../fixtures/pr6_shutdown_relaxed.rs");
const ROUTER_HEALTH: &str = include_str!("../fixtures/router_health_relaxed.rs");
const ATOMIC_GOOD: &str = include_str!("../fixtures/atomic_good.rs");
const LOCK_IO_BAD: &str = include_str!("../fixtures/lock_io_bad.rs");
const LOCK_IO_GOOD: &str = include_str!("../fixtures/lock_io_good.rs");
const MAGIC_BAD: &str = include_str!("../fixtures/magic_bad.rs");
const MAGIC_HTTP_BAD: &str = include_str!("../fixtures/magic_http_bad.rs");
const ANNOTATION_BAD: &str = include_str!("../fixtures/annotation_bad.rs");

/// The findings of one check: every check runs, the others' findings are
/// dropped.
fn only(file: &str, src: &str, check: CheckId) -> Vec<Finding> {
    lint_source(file, src).into_iter().filter(|f| f.check == check).collect()
}

fn lines(findings: &[Finding]) -> Vec<u32> {
    findings.iter().map(|f| f.line).collect()
}

// ---------------------------------------------------------------------
// atomic-ordering
// ---------------------------------------------------------------------

/// The acceptance fixture: reintroducing the PR 6 bug (a Relaxed load on
/// a shutdown-named atomic in a serve module) is flagged, once, with the
/// exact file:line, and the finding names the bug class.
#[test]
fn pr6_shutdown_relaxed_is_flagged_at_the_exact_line() {
    let findings = lint_source("crates/core/src/serve/server.rs", PR6);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.check, CheckId::AtomicOrdering);
    assert_eq!((f.file.as_str(), f.line), ("crates/core/src/serve/server.rs", 15));
    assert!(f.message.contains("PR 6"), "{}", f.message);
    assert!(
        f.to_string().starts_with("crates/core/src/serve/server.rs:15: [atomic-ordering]"),
        "{f}"
    );
}

/// The policy also fires outside serve/ — a control flag is a control
/// flag wherever it lives.
#[test]
fn policy_flag_rule_is_workspace_wide() {
    let findings = only("crates/ml/src/train.rs", PR6, CheckId::AtomicOrdering);
    assert_eq!(lines(&findings), [15]);
}

/// PR 9: the router's backend health state is on the control-flag policy
/// list — a Relaxed store on `healthy` and a Relaxed swap on a
/// `mark_down`-named latch are each flagged, once, and the conforming
/// SeqCst load is not.
#[test]
fn router_health_state_relaxed_is_flagged() {
    let findings = only("crates/core/src/serve/router.rs", ROUTER_HEALTH, CheckId::AtomicOrdering);
    assert_eq!(lines(&findings), [14, 18], "{findings:?}");
    assert!(findings[0].message.contains("healthy"), "{}", findings[0].message);
    assert!(findings[1].message.contains("mark_down_latch"), "{}", findings[1].message);
}

#[test]
fn conforming_atomics_are_clean() {
    let findings = lint_source("crates/ml/src/train.rs", ATOMIC_GOOD);
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------
// lock-across-io
// ---------------------------------------------------------------------

#[test]
fn guard_live_across_io_is_flagged_at_the_io_line() {
    let findings = only("crates/core/src/serve/conn.rs", LOCK_IO_BAD, CheckId::LockAcrossIo);
    assert_eq!(lines(&findings), [6], "{findings:?}");
    assert!(findings[0].message.contains("`g`"), "{}", findings[0].message);
}

#[test]
fn tight_scope_drop_and_annotation_are_clean() {
    let findings = only("crates/core/src/serve/conn.rs", LOCK_IO_GOOD, CheckId::LockAcrossIo);
    assert!(findings.is_empty(), "{findings:?}");
}

/// PR 9: the router holds per-backend pool and stats mutexes — holding
/// one across a socket round-trip would serialize the whole fleet behind
/// one slow backend, so `serve/router.rs` is inside the lock-across-io
/// scope.
#[test]
fn lock_across_io_in_the_router_is_flagged() {
    let findings = only("crates/core/src/serve/router.rs", LOCK_IO_BAD, CheckId::LockAcrossIo);
    assert_eq!(lines(&findings), [6], "{findings:?}");
}

/// PR 10: HTTP sessions do socket I/O per request — a guard held across
/// a `write_all` in `serve/http.rs` would stall every keep-alive peer, so
/// the facade sits inside the lock-across-io scope automatically.
#[test]
fn lock_across_io_in_the_http_facade_is_flagged() {
    let findings = only("crates/core/src/serve/http.rs", LOCK_IO_BAD, CheckId::LockAcrossIo);
    assert_eq!(lines(&findings), [6], "{findings:?}");
}

/// The check is scoped to serve/ — a CLI tool may hold locks across
/// writes to a local file.
#[test]
fn lock_across_io_outside_serve_is_ignored() {
    let findings = only("crates/ml/src/x.rs", LOCK_IO_BAD, CheckId::LockAcrossIo);
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------
// magic-constants
// ---------------------------------------------------------------------

#[test]
fn duplicated_magics_are_flagged_in_every_spelling() {
    let findings = only("crates/graph/src/other.rs", MAGIC_BAD, CheckId::MagicConstants);
    assert_eq!(lines(&findings), [1, 2, 3], "{findings:?}");
}

/// The home module may spell its own magic; foreign magics in the same
/// file are still flagged.
#[test]
fn home_module_is_exempt_for_its_own_magic_only() {
    let findings = only("crates/core/src/serve/protocol.rs", MAGIC_BAD, CheckId::MagicConstants);
    assert_eq!(lines(&findings), [3], "{findings:?}");
}

/// PR 10: the connection sniffer's HTTP prefixes are protocol magics —
/// a second spelling of `[b'G', b'E']` / `[b'P', b'O']` outside
/// `serve/http.rs` would fork what the listener recognizes. A lone
/// byte-char or a non-prefix pair is not a sniff prefix.
#[test]
fn duplicated_http_sniff_prefixes_are_flagged() {
    let findings = only("crates/core/src/serve/server.rs", MAGIC_HTTP_BAD, CheckId::MagicConstants);
    assert_eq!(lines(&findings), [1, 2], "{findings:?}");
    assert!(findings[0].message.contains("SNIFF_GET"), "{}", findings[0].message);
    assert!(findings[1].message.contains("SNIFF_POST"), "{}", findings[1].message);
}

/// `serve/http.rs` is the sniff prefixes' home module and may spell them.
#[test]
fn http_module_may_spell_its_own_sniff_prefixes() {
    let findings = only("crates/core/src/serve/http.rs", MAGIC_HTTP_BAD, CheckId::MagicConstants);
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------
// annotation-grammar
// ---------------------------------------------------------------------

#[test]
fn malformed_annotations_are_findings() {
    let findings = lint_source("crates/core/src/x.rs", ANNOTATION_BAD);
    assert_eq!(lines(&findings), [2, 4, 6], "{findings:?}");
    assert!(findings.iter().all(|f| f.check == CheckId::AnnotationGrammar));
    assert!(findings[0].message.contains("empty reason"), "{}", findings[0].message);
    // a typo, and a well-formed annotation of a check that is a clippy lint now
    for f in &findings[1..] {
        assert!(f.message.contains("unknown lint annotation kind"), "{}", f.message);
    }
}
