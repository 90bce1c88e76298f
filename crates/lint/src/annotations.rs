//! The annotation grammar: `// lint: <kind>-ok(<reason>)`.
//!
//! An annotation suppresses one check's findings on the line(s) it covers:
//!
//! * a **trailing** annotation (after code on the same line) covers that
//!   line;
//! * a **standalone** annotation (a comment-only line) covers the next
//!   line that carries code — so the idiomatic form is a comment
//!   immediately above the flagged statement.
//!
//! The reason is mandatory: an empty `relaxed-ok()` is itself a finding.
//! Unknown kinds after `lint:` are findings too — a typo like
//! `relxed-ok(...)` must fail the gate, not silently suppress nothing, and
//! so must a kind left over from a check that became a clippy lint (its
//! suppression is `#[expect(clippy::…, reason = …)]` now).

use crate::lexer::{Comment, Token};
use crate::{CheckId, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Suppression kinds, one per annotatable check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `relaxed-ok` — a deliberate `Ordering::Relaxed` (atomic-ordering).
    RelaxedOk,
    /// `ordering-ok` — a policy-named atomic intentionally not `SeqCst`.
    OrderingOk,
    /// `lock-io-ok` — a lock deliberately held across I/O (lock-across-io).
    LockIoOk,
    /// `magic-ok` — a literal that collides with a protocol magic but is
    /// not a protocol use (magic-constants).
    MagicOk,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::RelaxedOk, Kind::OrderingOk, Kind::LockIoOk, Kind::MagicOk];

    pub fn name(self) -> &'static str {
        match self {
            Kind::RelaxedOk => "relaxed-ok",
            Kind::OrderingOk => "ordering-ok",
            Kind::LockIoOk => "lock-io-ok",
            Kind::MagicOk => "magic-ok",
        }
    }

    fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// All annotations of one file, resolved to the code lines they cover.
#[derive(Debug, Default)]
pub struct Annotations {
    covered: BTreeMap<(Kind, u32), String>,
}

impl Annotations {
    /// Whether `line` is covered by an annotation of `kind`.
    pub fn allows(&self, kind: Kind, line: u32) -> bool {
        self.covered.contains_key(&(kind, line))
    }
}

/// Scan `comments` for `lint:` annotations. Returns the resolved
/// suppression set plus grammar findings (empty reason, unknown kind).
/// `tokens` locates the next code line a standalone annotation covers.
pub fn collect(file: &str, tokens: &[Token], comments: &[Comment]) -> (Annotations, Vec<Finding>) {
    let code_lines: BTreeSet<u32> = tokens.iter().map(|t| t.line).collect();
    let mut out = Annotations::default();
    let mut findings = Vec::new();
    for comment in comments {
        // Doc comments (`///`, `//!`, `/** */`, `/*! */`) are prose that may
        // *describe* the grammar; only plain comments carry annotations.
        if comment.text.starts_with(['/', '!', '*']) {
            continue;
        }
        let Some(at) = comment.text.find("lint:") else { continue };
        let spec = comment.text[at + "lint:".len()..].trim();
        match parse_spec(spec) {
            Ok((kind, reason)) => {
                // trailing comments cover their own line; standalone ones
                // cover the next line that has any code on it
                let covered = if comment.trailing {
                    Some(comment.line)
                } else {
                    code_lines.range(comment.end_line + 1..).next().copied()
                };
                if let Some(line) = covered {
                    out.covered.insert((kind, line), reason.to_string());
                }
            }
            Err(message) => findings.push(Finding {
                check: CheckId::AnnotationGrammar,
                file: file.to_string(),
                line: comment.line,
                message,
            }),
        }
    }
    (out, findings)
}

/// Parse `<kind>-ok(<reason>)`; the reason must be non-empty.
fn parse_spec(spec: &str) -> Result<(Kind, &str), String> {
    let open = spec.find('(').ok_or_else(|| {
        format!("malformed lint annotation `{spec}`: expected `<kind>-ok(<reason>)`")
    })?;
    let name = spec[..open].trim();
    let kind = Kind::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown lint annotation kind `{name}` (known: {})", known.join(", "))
    })?;
    let rest = &spec[open + 1..];
    let close = rest
        .rfind(')')
        .ok_or_else(|| format!("malformed lint annotation `{spec}`: missing closing `)`"))?;
    let reason = rest[..close].trim();
    if reason.is_empty() {
        return Err(format!(
            "lint annotation `{}` has an empty reason — say why the finding is acceptable",
            kind.name()
        ));
    }
    Ok((kind, reason))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn annotations(src: &str) -> (Annotations, Vec<Finding>) {
        let lexed = lex(src);
        collect("test.rs", &lexed.tokens, &lexed.comments)
    }

    #[test]
    fn trailing_annotation_covers_its_line() {
        let (a, f) = annotations("x.load(Relaxed); // lint: relaxed-ok(stats counter)\n");
        assert!(f.is_empty());
        assert!(a.allows(Kind::RelaxedOk, 1));
        assert!(!a.allows(Kind::RelaxedOk, 2));
        assert!(!a.allows(Kind::LockIoOk, 1));
    }

    #[test]
    fn standalone_annotation_covers_next_code_line() {
        let src = "// lint: relaxed-ok(stats)\n\n// other comment\nx.load(Relaxed);\nbar();\n";
        let (a, f) = annotations(src);
        assert!(f.is_empty());
        assert!(a.allows(Kind::RelaxedOk, 4));
        assert!(!a.allows(Kind::RelaxedOk, 5));
    }

    #[test]
    fn empty_reason_is_a_finding() {
        let (_, f) = annotations("// lint: relaxed-ok()\nx();\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("empty reason"), "{}", f[0].message);
    }

    #[test]
    fn unknown_kind_is_a_finding() {
        let (_, f) = annotations("// lint: relxed-ok(typo)\nx();\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unknown lint annotation kind"), "{}", f[0].message);
    }

    #[test]
    fn annotation_inside_string_is_inert() {
        let (a, f) = annotations("let s = \"// lint: relaxed-ok(nope)\";\nx.load(Relaxed);\n");
        assert!(f.is_empty());
        assert!(!a.allows(Kind::RelaxedOk, 1));
        assert!(!a.allows(Kind::RelaxedOk, 2));
    }

    #[test]
    fn reasons_may_contain_parens() {
        let (a, f) =
            annotations("// lint: magic-ok(seed (not a wire constant))\nlet s = 0xEA5E;\n");
        assert!(f.is_empty(), "{f:?}");
        assert!(a.allows(Kind::MagicOk, 2));
    }
}
