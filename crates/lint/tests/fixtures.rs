//! Fixture tests: each check is exercised against a small source file
//! containing the violation (and a conforming twin), linted under a
//! synthetic workspace-relative path so the scoping rules apply. The
//! fixtures live outside `src/` and are skipped by the workspace walk
//! (`SKIP_DIRS`) — they contain violations *on purpose*.

use ease_lint::{all_checks, lint_source, CheckId, Finding};
use std::collections::BTreeSet;

const PR6: &str = include_str!("../fixtures/pr6_shutdown_relaxed.rs");
const ROUTER_HEALTH: &str = include_str!("../fixtures/router_health_relaxed.rs");
const ATOMIC_GOOD: &str = include_str!("../fixtures/atomic_good.rs");
const PANIC_BAD: &str = include_str!("../fixtures/panic_bad.rs");
const PANIC_GOOD: &str = include_str!("../fixtures/panic_good.rs");
const UNSAFE_BAD: &str = include_str!("../fixtures/unsafe_bad.rs");
const UNSAFE_SPILL_BAD: &str = include_str!("../fixtures/unsafe_spill_bad.rs");
const UNSAFE_GOOD: &str = include_str!("../fixtures/unsafe_good.rs");
const LOCK_IO_BAD: &str = include_str!("../fixtures/lock_io_bad.rs");
const LOCK_IO_GOOD: &str = include_str!("../fixtures/lock_io_good.rs");
const MAGIC_BAD: &str = include_str!("../fixtures/magic_bad.rs");
const MAGIC_HTTP_BAD: &str = include_str!("../fixtures/magic_http_bad.rs");
const ANNOTATION_BAD: &str = include_str!("../fixtures/annotation_bad.rs");

fn only(check: CheckId) -> BTreeSet<CheckId> {
    [check].into_iter().collect()
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
    let findings = lint_source("crates/core/src/serve/server.rs", PR6, &all_checks());
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
    let findings = lint_source("crates/ml/src/train.rs", PR6, &only(CheckId::AtomicOrdering));
    assert_eq!(lines(&findings), [15]);
}

/// PR 9: the router's backend health state is on the control-flag policy
/// list — a Relaxed store on `healthy` and a Relaxed swap on a
/// `mark_down`-named latch are each flagged, once, and the conforming
/// SeqCst load is not.
#[test]
fn router_health_state_relaxed_is_flagged() {
    let findings = lint_source(
        "crates/core/src/serve/router.rs",
        ROUTER_HEALTH,
        &only(CheckId::AtomicOrdering),
    );
    assert_eq!(lines(&findings), [14, 18], "{findings:?}");
    assert!(findings[0].message.contains("healthy"), "{}", findings[0].message);
    assert!(findings[1].message.contains("mark_down_latch"), "{}", findings[1].message);
}

#[test]
fn conforming_atomics_are_clean() {
    let findings = lint_source("crates/ml/src/train.rs", ATOMIC_GOOD, &all_checks());
    assert!(findings.is_empty(), "{findings:?}");
}

/// Disabling the check (CLI `--skip atomic-ordering`) silences it.
#[test]
fn atomic_check_is_toggleable() {
    let mut enabled = all_checks();
    enabled.remove(&CheckId::AtomicOrdering);
    let findings = lint_source("crates/core/src/serve/server.rs", PR6, &enabled);
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------
// panic-path
// ---------------------------------------------------------------------

#[test]
fn panic_paths_in_daemon_code_are_flagged() {
    let findings =
        lint_source("crates/core/src/serve/handler.rs", PANIC_BAD, &only(CheckId::PanicPath));
    assert_eq!(lines(&findings), [2, 4, 8], "{findings:?}");
    assert!(findings.iter().all(|f| f.check == CheckId::PanicPath));
}

/// The same source outside the daemon scope is fine — unwraps in batch
/// tools are not a fleet-crash vector.
#[test]
fn panic_paths_outside_daemon_scope_are_ignored() {
    let findings = lint_source("crates/ml/src/train.rs", PANIC_BAD, &only(CheckId::PanicPath));
    assert!(findings.is_empty(), "{findings:?}");
}

/// PR 8: the spill layer is daemon-reachable — a budgeted daemon builds
/// CSRs through it on the request path, so panic paths there are flagged
/// just like in serve/.
#[test]
fn panic_paths_in_the_spill_layer_are_flagged() {
    let findings = lint_source("crates/graph/src/spill.rs", PANIC_BAD, &only(CheckId::PanicPath));
    assert_eq!(lines(&findings), [2, 4, 8], "{findings:?}");
    let findings = lint_source("crates/graph/src/mmap.rs", PANIC_BAD, &only(CheckId::PanicPath));
    assert!(!findings.is_empty(), "{findings:?}");
}

/// PR 18: the byte codec is daemon-reachable — `persist::Reader` decodes
/// every socket payload and every model file — while the model files next
/// to it, which only run on bytes the codec already bounds-checked, stay
/// out of scope.
#[test]
fn panic_paths_in_the_byte_codec_are_flagged() {
    let findings = lint_source("crates/ml/src/persist.rs", PANIC_BAD, &only(CheckId::PanicPath));
    assert_eq!(lines(&findings), [2, 4, 8], "{findings:?}");
    let findings = lint_source("crates/ml/src/tree.rs", PANIC_BAD, &only(CheckId::PanicPath));
    assert!(findings.is_empty(), "{findings:?}");
}

/// PR 9: the router and hash ring are daemon code — a panicking router
/// takes the whole fleet's front door down, so `serve/router.rs` and
/// `serve/ring.rs` sit inside the panic-path scope like the rest of
/// serve/.
#[test]
fn panic_paths_in_the_router_and_ring_are_flagged() {
    for path in ["crates/core/src/serve/router.rs", "crates/core/src/serve/ring.rs"] {
        let findings = lint_source(path, PANIC_BAD, &only(CheckId::PanicPath));
        assert_eq!(lines(&findings), [2, 4, 8], "{path}: {findings:?}");
    }
}

/// PR 10: the HTTP facade and JSON codec are daemon code — both sit
/// under `serve/`, so the path gate covers them with no new wiring, and
/// this pins that down.
#[test]
fn panic_paths_in_the_http_facade_and_json_codec_are_flagged() {
    for path in ["crates/core/src/serve/http.rs", "crates/core/src/serve/json.rs"] {
        let findings = lint_source(path, PANIC_BAD, &only(CheckId::PanicPath));
        assert_eq!(lines(&findings), [2, 4, 8], "{path}: {findings:?}");
    }
}

#[test]
fn annotated_and_test_code_panic_paths_are_clean() {
    let findings = lint_source("crates/core/src/serve/handler.rs", PANIC_GOOD, &all_checks());
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------
// unsafe-hygiene
// ---------------------------------------------------------------------

#[test]
fn unsafe_without_safety_comment_is_flagged() {
    let findings = lint_source("crates/graph/src/x.rs", UNSAFE_BAD, &only(CheckId::UnsafeHygiene));
    assert_eq!(lines(&findings), [2], "{findings:?}");
    assert_eq!(findings[0].check, CheckId::UnsafeHygiene);
}

#[test]
fn safety_commented_unsafe_is_clean() {
    let findings = lint_source("crates/graph/src/x.rs", UNSAFE_GOOD, &all_checks());
    assert!(findings.is_empty(), "{findings:?}");
}

/// PR 8 acceptance: an unannotated `unsafe` spill-map in the out-of-core
/// module is flagged — the spill layer reinterprets raw mapped bytes, so
/// its invariants must be written down where they are relied on.
#[test]
fn unannotated_unsafe_spill_map_is_flagged() {
    let findings =
        lint_source("crates/graph/src/spill.rs", UNSAFE_SPILL_BAD, &only(CheckId::UnsafeHygiene));
    assert_eq!(lines(&findings), [2], "{findings:?}");
    assert_eq!(findings[0].check, CheckId::UnsafeHygiene);
}

// ---------------------------------------------------------------------
// lock-across-io
// ---------------------------------------------------------------------

#[test]
fn guard_live_across_io_is_flagged_at_the_io_line() {
    let findings =
        lint_source("crates/core/src/serve/conn.rs", LOCK_IO_BAD, &only(CheckId::LockAcrossIo));
    assert_eq!(lines(&findings), [6], "{findings:?}");
    assert!(findings[0].message.contains("`g`"), "{}", findings[0].message);
}

#[test]
fn tight_scope_drop_and_annotation_are_clean() {
    let findings =
        lint_source("crates/core/src/serve/conn.rs", LOCK_IO_GOOD, &only(CheckId::LockAcrossIo));
    assert!(findings.is_empty(), "{findings:?}");
}

/// PR 9: the router holds per-backend pool and stats mutexes — holding
/// one across a socket round-trip would serialize the whole fleet behind
/// one slow backend, so `serve/router.rs` is inside the lock-across-io
/// scope.
#[test]
fn lock_across_io_in_the_router_is_flagged() {
    let findings =
        lint_source("crates/core/src/serve/router.rs", LOCK_IO_BAD, &only(CheckId::LockAcrossIo));
    assert_eq!(lines(&findings), [6], "{findings:?}");
}

/// PR 10: HTTP sessions do socket I/O per request — a guard held across
/// a `write_all` in `serve/http.rs` would stall every keep-alive peer, so
/// the facade sits inside the lock-across-io scope automatically.
#[test]
fn lock_across_io_in_the_http_facade_is_flagged() {
    let findings =
        lint_source("crates/core/src/serve/http.rs", LOCK_IO_BAD, &only(CheckId::LockAcrossIo));
    assert_eq!(lines(&findings), [6], "{findings:?}");
}

/// The check is scoped to serve/ — a CLI tool may hold locks across
/// writes to a local file.
#[test]
fn lock_across_io_outside_serve_is_ignored() {
    let findings = lint_source("crates/ml/src/x.rs", LOCK_IO_BAD, &only(CheckId::LockAcrossIo));
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------
// magic-constants
// ---------------------------------------------------------------------

#[test]
fn duplicated_magics_are_flagged_in_every_spelling() {
    let findings =
        lint_source("crates/graph/src/other.rs", MAGIC_BAD, &only(CheckId::MagicConstants));
    assert_eq!(lines(&findings), [1, 2, 3], "{findings:?}");
}

/// The home module may spell its own magic; foreign magics in the same
/// file are still flagged.
#[test]
fn home_module_is_exempt_for_its_own_magic_only() {
    let findings =
        lint_source("crates/core/src/serve/protocol.rs", MAGIC_BAD, &only(CheckId::MagicConstants));
    assert_eq!(lines(&findings), [3], "{findings:?}");
}

/// PR 10: the connection sniffer's HTTP prefixes are protocol magics —
/// a second spelling of `[b'G', b'E']` / `[b'P', b'O']` outside
/// `serve/http.rs` would fork what the listener recognizes. A lone
/// byte-char or a non-prefix pair is not a sniff prefix.
#[test]
fn duplicated_http_sniff_prefixes_are_flagged() {
    let findings = lint_source(
        "crates/core/src/serve/server.rs",
        MAGIC_HTTP_BAD,
        &only(CheckId::MagicConstants),
    );
    assert_eq!(lines(&findings), [1, 2], "{findings:?}");
    assert!(findings[0].message.contains("SNIFF_GET"), "{}", findings[0].message);
    assert!(findings[1].message.contains("SNIFF_POST"), "{}", findings[1].message);
}

/// `serve/http.rs` is the sniff prefixes' home module and may spell them.
#[test]
fn http_module_may_spell_its_own_sniff_prefixes() {
    let findings = lint_source(
        "crates/core/src/serve/http.rs",
        MAGIC_HTTP_BAD,
        &only(CheckId::MagicConstants),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------
// annotation-grammar
// ---------------------------------------------------------------------

#[test]
fn malformed_annotations_are_findings() {
    let findings = lint_source("crates/core/src/x.rs", ANNOTATION_BAD, &all_checks());
    assert_eq!(lines(&findings), [2, 4], "{findings:?}");
    assert!(findings.iter().all(|f| f.check == CheckId::AnnotationGrammar));
    assert!(findings[0].message.contains("empty reason"), "{}", findings[0].message);
    assert!(
        findings[1].message.contains("unknown lint annotation kind"),
        "{}",
        findings[1].message
    );
}
