//! The gate itself: the workspace must lint clean. `cargo test
//! --workspace` runs this, so a finding introduced anywhere fails the
//! build; each check's module docs (`src/checks/`) state its rule and its
//! `// lint: <kind>-ok(<reason>)` escape.

use ease_lint::lint_workspace;
use std::path::Path;

#[test]
fn the_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_workspace(&root).expect("walk workspace sources");
    assert!(
        findings.is_empty(),
        "unannotated findings — fix each, or annotate it with a reason:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}
