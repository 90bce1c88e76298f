//! The three workspace invariants, each a lexical pass over one file's
//! token stream that reports [`Finding`]s with `file:line`.

use crate::annotations::Annotations;
use crate::lexer::Token;
use crate::Finding;

pub mod atomic;
pub mod lock_io;
pub mod magic;

/// Everything a check needs to analyze one file.
pub struct Ctx<'a> {
    /// Workspace-relative path with forward slashes (scoping rules and
    /// finding locations both use this form).
    pub file: &'a str,
    pub tokens: &'a [Token],
    pub annotations: &'a Annotations,
    /// `test_mask[i]` — token `i` sits inside a `#[cfg(test)]` or
    /// `#[test]` item, where `lock-across-io` does not look.
    pub test_mask: &'a [bool],
}

/// Index of the bracket token matching the opener at `open` (any of
/// `(`/`[`/`{`, tracked jointly — valid Rust keeps them balanced).
/// Attribute tokens participate: brackets stay balanced either way.
pub(crate) fn matching_bracket(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, tok) in tokens.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Mark every token inside a `#[cfg(test)]` or `#[test]` item. The body
/// is the brace-balanced block following the attribute; an item ended by
/// `;` before any `{` (e.g. `#[cfg(test)] mod tests;`) masks up to the
/// `;` only.
pub(crate) fn compute_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if let Some(attr_end) = test_attr_end(tokens, i) {
            // find the item body: first `{` before a top-level `;`
            let mut j = attr_end + 1;
            let mut end = None;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    ";" => {
                        end = Some(j);
                        break;
                    }
                    "{" => {
                        end = matching_bracket(tokens, j);
                        break;
                    }
                    _ => j += 1,
                }
            }
            let end = end.unwrap_or(tokens.len() - 1);
            for m in &mut mask[i..=end] {
                *m = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// If tokens at `i` start a `#[cfg(test)]` or `#[test]` attribute,
/// return the index of its closing `]`.
fn test_attr_end(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens[i].text != "#" || !tokens[i].in_attr {
        return None;
    }
    let texts: Vec<&str> = tokens[i..].iter().take(8).map(|t| t.text.as_str()).collect();
    if texts.starts_with(&["#", "[", "test", "]"]) {
        return Some(i + 3);
    }
    if texts.starts_with(&["#", "[", "cfg", "(", "test", ")", "]"]) {
        return Some(i + 6);
    }
    None
}

/// Run every check on one lexed file.
pub fn run(ctx: &Ctx, out: &mut Vec<Finding>) {
    atomic::check(ctx, out);
    lock_io::check(ctx, out);
    magic::check(ctx, out);
}
