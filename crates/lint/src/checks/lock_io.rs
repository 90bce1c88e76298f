//! Check `lock-across-io`: a `Mutex` guard held across socket I/O in
//! `serve/`.
//!
//! The shape that pins workers: a guard acquired with `.lock()` stays
//! live while the thread blocks in a socket read or write. Every other
//! worker then queues on the mutex for as long as the *slowest client*
//! takes to drain its socket — the daemon's concurrency collapses to one
//! stalled peer. The fix is to copy what is needed out of the guard and
//! drop it before touching the socket (exactly how `service.rs` scopes
//! its property-cache lock: one call per guard, released before any
//! graph file is opened).
//!
//! Heuristic, by design (lexical, intra-function):
//!
//! * a **guard binding** is `let g = x.lock()…;` where the chain after
//!   `.lock()` only pipes the guard through `expect`/`unwrap`/
//!   `unwrap_or_else` (anything else — `.recv()`, `.get()…` — consumes
//!   the guard within the statement, which is the safe tight scope);
//! * the guard is **live** until its enclosing brace block closes or an
//!   explicit `drop(g)`;
//! * **socket I/O** is a call to one of [`IO_CALLS`] (`Read`/`Write`
//!   combinators and this workspace's frame helpers).
//!
//! A held-across-I/O design that is actually correct can be annotated
//! with `// lint: lock-io-ok(<why>)` on the I/O line or the binding line.

use super::Ctx;
use crate::annotations::Kind;
use crate::lexer::TokKind;
use crate::{CheckId, Finding};

/// Calls treated as socket I/O: std `Read`/`Write` combinators plus the
/// workspace's own framing helpers (`serve::protocol`).
pub const IO_CALLS: &[&str] = &[
    "write_all",
    "read_exact",
    "read_to_end",
    "read_vectored",
    "write_vectored",
    "flush",
    "write_frame_v2",
    "read_frame_v2",
    "read_frame_v2_after_magic",
];

/// Guard-preserving adapters: `x.lock().expect(…)` is still a guard.
const GUARD_ADAPTERS: &[&str] = &["expect", "unwrap", "unwrap_or_else"];

pub fn check(ctx: &Ctx, out: &mut Vec<Finding>) {
    if !ctx.file.contains("/serve/") {
        return;
    }
    let tokens = ctx.tokens;
    // brace depth per token (blocks only — liveness is block-scoped)
    let mut brace_depth = vec![0i32; tokens.len()];
    let mut depth = 0i32;
    for (i, tok) in tokens.iter().enumerate() {
        if !tok.in_attr {
            match tok.text.as_str() {
                "{" => depth += 1,
                "}" => depth -= 1,
                _ => {}
            }
        }
        brace_depth[i] = depth;
    }

    for (i, tok) in tokens.iter().enumerate() {
        if ctx.test_mask[i] || tok.kind != TokKind::Ident || tok.text != "let" {
            continue;
        }
        // pattern: `let [mut] name = …` — tuple/struct patterns are not
        // guard bindings this heuristic can track
        let mut p = i + 1;
        if tokens.get(p).is_some_and(|t| t.text == "mut") {
            p += 1;
        }
        let Some(name_tok) = tokens.get(p).filter(|t| t.kind == TokKind::Ident) else { continue };
        let guard_name = name_tok.text.clone();
        // statement end: `;` at bracket depth 0 relative to the `let`
        let Some(stmt_end) = statement_end(tokens, i) else { continue };
        // the RHS must contain `.lock()`
        let Some(lock_at) = (i..stmt_end).find(|&j| {
            tokens[j].text == "lock"
                && tokens[j].kind == TokKind::Ident
                && j > 0
                && tokens[j - 1].text == "."
                && tokens.get(j + 1).is_some_and(|t| t.text == "(")
        }) else {
            continue;
        };
        if !is_guard_chain(tokens, lock_at, stmt_end) {
            continue; // guard consumed within the statement: tight scope
        }
        // liveness: from after the statement to block close or drop(name)
        let let_depth = brace_depth[i];
        let mut j = stmt_end + 1;
        while j < tokens.len() && brace_depth[j] >= let_depth {
            if tokens[j].text == "drop"
                && tokens.get(j + 1).is_some_and(|t| t.text == "(")
                && tokens.get(j + 2).is_some_and(|t| t.text == guard_name)
            {
                break;
            }
            let t = &tokens[j];
            if t.kind == TokKind::Ident
                && IO_CALLS.contains(&t.text.as_str())
                && tokens.get(j + 1).is_some_and(|x| x.text == "(")
                && !ctx.annotations.allows(Kind::LockIoOk, t.line)
                && !ctx.annotations.allows(Kind::LockIoOk, tok.line)
            {
                out.push(Finding {
                    check: CheckId::LockAcrossIo,
                    file: ctx.file.to_string(),
                    line: t.line,
                    message: format!(
                        "lock guard `{guard_name}` (acquired on line {}) is still live across \
                         socket I/O `{}` — one stalled peer serializes every worker behind this \
                         mutex; copy what you need and drop the guard first (or annotate \
                         `// lint: lock-io-ok(<why>)`)",
                        tok.line, t.text
                    ),
                });
            }
            j += 1;
        }
    }
}

/// Find the `;` ending the statement opened at token `start`, tracking
/// all bracket kinds so closure bodies and nested calls do not end it.
fn statement_end(tokens: &[crate::lexer::Token], start: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, tok) in tokens.iter().enumerate().skip(start) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => return Some(j),
            _ => {}
        }
        if depth < 0 {
            return None; // malformed / end of enclosing block
        }
    }
    None
}

/// After `x.lock()` at `lock_at`, does the chain keep the guard alive to
/// the end of the statement? True when only [`GUARD_ADAPTERS`] and `?`
/// follow; any other continuation consumes the guard inside the statement.
fn is_guard_chain(tokens: &[crate::lexer::Token], lock_at: usize, stmt_end: usize) -> bool {
    let Some(mut j) = super::matching_bracket(tokens, lock_at + 1) else { return false };
    j += 1;
    while j < stmt_end {
        match tokens[j].text.as_str() {
            "?" => j += 1,
            "." => {
                let adapter = tokens.get(j + 1);
                if adapter.is_some_and(|t| GUARD_ADAPTERS.contains(&t.text.as_str()))
                    && tokens.get(j + 2).is_some_and(|t| t.text == "(")
                {
                    match super::matching_bracket(tokens, j + 2) {
                        Some(close) => j = close + 1,
                        None => return false,
                    }
                } else {
                    return false; // `.recv()` etc: guard consumed here
                }
            }
            _ => return false,
        }
    }
    true
}
