//! Check `panic-path`: no panicking constructs in daemon-reachable code.
//!
//! A panic in `serve/` or `service.rs` kills a worker thread that is
//! serving real clients — and the input that triggered it came off a
//! socket, so *client input could crash the fleet*. The out-of-core
//! spill layer (`graph/src/spill.rs`, `graph/src/mmap.rs`) is in scope
//! too: a budgeted daemon builds CSRs through it on the request path, so
//! a panic there is the same fleet-crash vector. So is the byte codec
//! (`ml/src/persist.rs`): every socket payload and every model file is
//! decoded by its `Reader`. This check flags, in
//! daemon-reachable modules only (see [`super::daemon_reachable`]) and
//! outside `#[cfg(test)]`/`#[test]` items:
//!
//! * `.unwrap()` / `.expect(…)`,
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!`,
//! * slice/array indexing (`buf[i]`, `head[..8]`) — every `[]` is an
//!   implicit panic path.
//!
//! Fixes, in order of preference: return a typed error, recover (lock
//! poisoning: `unwrap_or_else(PoisonError::into_inner)`), or — when the
//! panic is provably unreachable (fixed-size array, compile-time index) —
//! annotate the line with `// lint: panic-ok(<why>)`.

use super::Ctx;
use crate::annotations::Kind;
use crate::lexer::TokKind;
use crate::{CheckId, Finding};

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that may directly precede an array literal (`match [a, b]`,
/// `return [0; 4]`) — an `[` after one of these is not an indexing site.
const NOT_A_RECEIVER: &[&str] = &[
    "match", "return", "in", "if", "else", "while", "loop", "break", "continue", "yield", "move",
    "as", "let", "mut", "ref", "static", "const", "fn", "where", "unsafe", "impl", "dyn", "for",
    "use", "pub", "mod", "enum", "struct", "trait", "type",
];

pub fn check(ctx: &Ctx, out: &mut Vec<Finding>) {
    if !super::daemon_reachable(ctx.file) {
        return;
    }
    let tokens = ctx.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if ctx.test_mask[i] || tok.in_attr {
            continue;
        }
        let flagged: Option<String> = match (tok.kind, tok.text.as_str()) {
            (TokKind::Ident, "unwrap" | "expect")
                if i > 0
                    && tokens[i - 1].text == "."
                    && tokens.get(i + 1).is_some_and(|t| t.text == "(") =>
            {
                Some(format!(
                    "`.{}()` in daemon-reachable code — return a typed error or recover \
                     (poisoned locks: `unwrap_or_else(PoisonError::into_inner)`)",
                    tok.text
                ))
            }
            (TokKind::Ident, name)
                if PANIC_MACROS.contains(&name)
                    && tokens.get(i + 1).is_some_and(|t| t.text == "!") =>
            {
                Some(format!("`{name}!` in daemon-reachable code"))
            }
            (TokKind::Punct, "[")
                if i > 0
                    && matches!(
                        (&tokens[i - 1].kind, tokens[i - 1].text.as_str()),
                        (TokKind::Ident, _) | (TokKind::Punct, ")") | (TokKind::Punct, "]")
                    )
                    // `vec![…]` and friends: `[` after `!` is a macro, and
                    // `ident !` before `[` means the ident is a macro name
                    && tokens[i - 1].text != "!"
                    && !(tokens[i - 1].kind == TokKind::Ident
                        && i >= 2
                        && tokens[i - 2].text == "!")
                    && !(tokens[i - 1].kind == TokKind::Ident
                        && NOT_A_RECEIVER.contains(&tokens[i - 1].text.as_str())) =>
            {
                Some(
                    "slice/array indexing in daemon-reachable code — an out-of-bounds index \
                     panics a worker; prefer `.get(…)` or split/chunk APIs"
                        .to_string(),
                )
            }
            _ => None,
        };
        if let Some(message) = flagged {
            if !ctx.annotations.allows(Kind::PanicOk, tok.line) {
                out.push(Finding {
                    check: CheckId::PanicPath,
                    file: ctx.file.to_string(),
                    line: tok.line,
                    message: format!(
                        "{message} (annotate `// lint: panic-ok(<why>)` if provably unreachable)"
                    ),
                });
            }
        }
    }
}
