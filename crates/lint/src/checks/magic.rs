//! Check `magic-constants`: protocol magics have exactly one definition.
//!
//! A wire or file-format magic copied into a second module is a fork
//! waiting to happen: bump one copy and old clients half-work in ways no
//! test names. Each magic in [`RULES`] may appear as a literal only in
//! its *home* module — everywhere else must reference the exported
//! constant (`FRAME_MAGIC_V2`, `BEL_MAGIC`, `persist::MAGIC`).
//!
//! Detected spellings:
//!
//! * an integer literal with the magic's exact value (`0xEA5F`),
//! * the split-byte pair (`0xEA, 0x5F`) the framing code writes,
//! * the split byte-char pair (`b'G', b'E'`) the HTTP sniffer matches,
//! * a string/byte-string literal containing the magic text
//!   (`b"EASEBEL1"`).
//!
//! A literal that merely *collides* (an RNG seed spelled `0xEA5F` for
//! fun) is annotated `// lint: magic-ok(<why>)`.

use super::Ctx;
use crate::annotations::Kind;
use crate::lexer::TokKind;
use crate::{CheckId, Finding};

/// One protected magic and the only file allowed to spell it literally.
pub struct MagicRule {
    /// Integer value form, if the magic is numeric.
    pub value: Option<u128>,
    /// Split-byte form `[hi, lo]`, as written in framing code.
    pub byte_pair: Option<[u128; 2]>,
    /// Split byte-char form `[b'G', b'E']`, as written in sniffing code.
    pub char_pair: Option<[&'static str; 2]>,
    /// Text form, matched as a substring of string-ish literals.
    pub text: Option<&'static str>,
    /// Human name used in findings.
    pub name: &'static str,
    /// Workspace-relative path of the defining module.
    pub home: &'static str,
}

/// The workspace's protocol constants (see `serve::protocol`, `bel`,
/// `persist`).
pub const RULES: &[MagicRule] = &[
    MagicRule {
        value: Some(0xEA5F), // lint: magic-ok(this table IS the magic catalogue)
        byte_pair: Some([0xEA, 0x5F]), // lint: magic-ok(this table IS the magic catalogue)
        char_pair: None,
        text: None,
        name: "0xEA5F (serve pipelined frame magic, FRAME_MAGIC_V2)",
        home: "crates/core/src/serve/protocol.rs",
    },
    MagicRule {
        value: None,
        byte_pair: None,
        char_pair: None,
        text: Some("EASEBEL1"), // lint: magic-ok(this table IS the magic catalogue)
        name: "\"EASEBEL1\" (binary edge-list format magic, BEL_MAGIC)", // lint: magic-ok(finding text names the magic)
        home: "crates/graph/src/bel.rs",
    },
    MagicRule {
        value: None,
        byte_pair: None,
        char_pair: None,
        text: Some("EASEMODL"), // lint: magic-ok(this table IS the magic catalogue)
        name: "\"EASEMODL\" (model persistence magic, persist::MAGIC)", // lint: magic-ok(finding text names the magic)
        home: "crates/ml/src/persist.rs",
    },
    MagicRule {
        value: None,
        byte_pair: None,
        char_pair: None,
        text: Some("EASECSR1"), // lint: magic-ok(this table IS the magic catalogue)
        name: "\"EASECSR1\" (CSR spill file magic, SPILL_MAGIC)", // lint: magic-ok(finding text names the magic)
        home: "crates/graph/src/spill.rs",
    },
    MagicRule {
        value: None,
        byte_pair: None,
        char_pair: Some(["G", "E"]),
        text: None,
        name: "[b'G', b'E'] (HTTP GET sniff prefix, http::SNIFF_GET)",
        home: "crates/core/src/serve/http.rs",
    },
    MagicRule {
        value: None,
        byte_pair: None,
        char_pair: Some(["P", "O"]),
        text: None,
        name: "[b'P', b'O'] (HTTP POST sniff prefix, http::SNIFF_POST)",
        home: "crates/core/src/serve/http.rs",
    },
];

pub fn check(ctx: &Ctx, out: &mut Vec<Finding>) {
    let tokens = ctx.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        for rule in RULES {
            if ctx.file == rule.home {
                continue;
            }
            let hit = match tok.kind {
                TokKind::Number => {
                    let v = tok.value;
                    v.is_some() && v == rule.value
                        || rule.byte_pair.is_some_and(|[hi, lo]| {
                            v == Some(hi)
                                && tokens.get(i + 1).is_some_and(|t| t.text == ",")
                                && tokens.get(i + 2).and_then(|t| t.value) == Some(lo)
                        })
                }
                TokKind::Str => rule.text.is_some_and(|t| tok.text.contains(t)),
                TokKind::Char => rule.char_pair.is_some_and(|[hi, lo]| {
                    tok.text == hi
                        && tokens.get(i + 1).is_some_and(|t| t.text == ",")
                        && tokens
                            .get(i + 2)
                            .is_some_and(|t| t.kind == TokKind::Char && t.text == lo)
                }),
                _ => false,
            };
            if hit && !ctx.annotations.allows(Kind::MagicOk, tok.line) {
                out.push(Finding {
                    check: CheckId::MagicConstants,
                    file: ctx.file.to_string(),
                    line: tok.line,
                    message: format!(
                        "magic literal {} is defined in {} — reference the exported constant \
                         instead of duplicating the value (or annotate \
                         `// lint: magic-ok(<why>)` for an accidental collision)",
                        rule.name, rule.home
                    ),
                });
            }
        }
    }
}
