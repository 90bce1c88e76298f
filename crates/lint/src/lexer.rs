//! A hand-rolled Rust lexer — just enough tokenization to run lexical
//! checks without `syn` (the offline build has no crates.io access).
//!
//! The output is two parallel streams: *code tokens* (identifiers,
//! literals, punctuation) and *comments*, both carrying 1-based line
//! numbers. The checks operate on code tokens only; the annotation layer
//! ([`crate::annotations`]) and the `// SAFETY:` rule read the comments.
//!
//! Correctness bar: a lint that misfires inside a string literal or a
//! comment is worse than no lint, so this lexer handles every way Rust
//! lets scary text hide inside an inert region:
//!
//! * line comments and **nested** block comments,
//! * string literals with escapes (`"\" // not a comment"`),
//! * raw strings with any number of hashes (`r#"..."#`), raw byte strings,
//! * byte strings and C strings (`b"..."`, `c"..."`),
//! * char and byte-char literals (`'\''`, `b'x'`) vs lifetimes (`'static`),
//! * raw identifiers (`r#match`).
//!
//! The property tests in `tests/lexer_props.rs` drive randomized token
//! soup through exactly these corners.

/// What kind of code token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`shutdown`, `unsafe`, `r#match` → `match`).
    Ident,
    /// Lifetime (`'a`, `'static`) — distinct from char literals.
    Lifetime,
    /// Numeric literal; [`Token::value`] holds the parsed value when the
    /// literal fits a `u128` (suffixes and `_` separators are ignored).
    Number,
    /// String-ish literal: `"…"`, `r"…"`, `b"…"`, `c"…"` and raw forms.
    /// [`Token::text`] is the *unquoted* body (escapes left as written).
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// One punctuation character (`.`, `:`, `(`, …). Multi-character
    /// operators appear as consecutive tokens (`::` is `:` then `:`).
    Punct,
}

/// One code token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// Parsed numeric value for [`TokKind::Number`] tokens.
    pub value: Option<u128>,
    /// True while the token sits inside an outer `#[...]` / `#![...]`
    /// attribute — lets checks tell an attribute-only line from code.
    pub in_attr: bool,
}

/// One comment (either style), with the comment markers stripped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (block comments can span lines).
    pub end_line: u32,
    /// True when a code token precedes the comment on its start line —
    /// i.e. this is a *trailing* comment, not a standalone comment line.
    pub trailing: bool,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    /// Whether a code token has been emitted since the last newline
    /// (classifies comments as trailing vs standalone).
    code_on_line: bool,
    /// Depth of an in-progress outer attribute: `#[` … `]` bracket depth.
    attr_depth: usize,
    out: Lexed,
}

/// Lex `src` into code tokens and comments. Never fails: unterminated
/// literals and comments are closed at end of input (the checks then see
/// a best-effort stream, which is the right behaviour for a linter).
pub fn lex(src: &str) -> Lexed {
    let mut lx = Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        code_on_line: false,
        attr_depth: 0,
        out: Lexed::default(),
    };
    lx.run();
    lx.out
}

impl Lexer<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.src.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.code_on_line = false;
        }
        b.into()
    }

    fn run(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b'\n' | b' ' | b'\t' | b'\r' => {
                    self.bump();
                }
                b'/' if self.peek_at(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek_at(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(self.pos, false),
                b'\'' => self.char_or_lifetime(),
                b'r' | b'b' | b'c' => self.ident_or_prefixed_literal(),
                b'0'..=b'9' => self.number(),
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => self.ident(),
                _ if b >= 0x80 => self.ident(), // non-ASCII: treat as ident text
                _ => self.punct(),
            }
        }
    }

    /// Sentinel for [`Lexer::attr_depth`]: a `#` (or `#!`) has been seen
    /// whose next byte opens an attribute; the upcoming `[` sets depth 1.
    const ATTR_ARMED: usize = usize::MAX;

    fn emit(&mut self, kind: TokKind, text: String, line: u32, value: Option<u128>) {
        self.code_on_line = true;
        let in_attr = self.track_attr(kind, &text);
        self.out.tokens.push(Token { kind, text, line, value, in_attr });
    }

    /// Track `#[...]` / `#![...]` spans so tokens inside them can be
    /// recognized as attribute tokens. Returns whether the token being
    /// emitted belongs to an attribute (the `#`, `!` and brackets count).
    fn track_attr(&mut self, kind: TokKind, text: &str) -> bool {
        if self.attr_depth == Self::ATTR_ARMED {
            // armed by `#`: the `!` of `#![` stays armed, the `[` opens
            return match text {
                "[" => {
                    self.attr_depth = 1;
                    true
                }
                "!" => true,
                // cannot happen (arming requires the next byte to be `[`
                // or `![`), but disarm defensively
                _ => {
                    self.attr_depth = 0;
                    false
                }
            };
        }
        if self.attr_depth > 0 {
            if kind == TokKind::Punct {
                match text {
                    "[" => self.attr_depth += 1,
                    "]" => self.attr_depth -= 1,
                    _ => {}
                }
            }
            return true;
        }
        if kind == TokKind::Punct && text == "#" {
            // `#[` or `#![` opens an attribute; a bare `#` does not
            let next = self.peek();
            let after_bang = if next == Some(b'!') { self.peek_at(1) } else { next };
            if after_bang == Some(b'[') {
                self.attr_depth = Self::ATTR_ARMED;
                return true;
            }
        }
        false
    }

    fn punct(&mut self) {
        let line = self.line;
        let b = self.bump().unwrap_or(b' ');
        self.emit(TokKind::Punct, (b as char).to_string(), line, None);
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let trailing = self.code_on_line;
        let start = self.pos + 2;
        while let Some(b) = self.peek() {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.out.comments.push(Comment { text, line, end_line: line, trailing });
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let trailing = self.code_on_line;
        self.bump();
        self.bump(); // consume `/*`
        let start = self.pos;
        let mut depth = 1usize;
        let mut end = self.pos;
        while let Some(b) = self.peek() {
            if b == b'/' && self.peek_at(1) == Some(b'*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if b == b'*' && self.peek_at(1) == Some(b'/') {
                depth -= 1;
                end = self.pos;
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                self.bump();
            }
            end = self.pos;
        }
        let text = String::from_utf8_lossy(&self.src[start..end.min(self.src.len())]).into_owned();
        self.out.comments.push(Comment { text, line, end_line: self.line, trailing });
    }

    /// Lex a `"`-delimited string whose opening quote is at `self.pos`.
    /// `raw` disables escape processing (used for `r"..."` with 0 hashes
    /// handled by [`Self::raw_string`], so here raw is always false).
    fn string(&mut self, _token_start: usize, raw: bool) {
        let line = self.line;
        self.bump(); // opening quote
        let body_start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b'\\' if !raw => {
                    self.bump();
                    self.bump(); // the escaped character (possibly `"` or `\`)
                }
                b'"' => break,
                _ => {
                    self.bump();
                }
            }
        }
        let body = String::from_utf8_lossy(&self.src[body_start..self.pos]).into_owned();
        self.bump(); // closing quote
        self.emit(TokKind::Str, body, line, None);
    }

    /// Lex a raw string starting at the first `#` or `"` after the `r`
    /// (which has been consumed). Handles `r"…"` through `r###"…"###`.
    fn raw_string(&mut self) {
        let line = self.line;
        let mut hashes = 0usize;
        while self.peek() == Some(b'#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let body_start = self.pos;
        let mut body_end = self.src.len();
        'scan: while let Some(b) = self.peek() {
            if b == b'"' {
                // candidate close: `"` followed by `hashes` hashes
                for k in 0..hashes {
                    if self.peek_at(1 + k) != Some(b'#') {
                        self.bump();
                        continue 'scan;
                    }
                }
                body_end = self.pos;
                self.bump(); // quote
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
            self.bump();
        }
        let body = String::from_utf8_lossy(&self.src[body_start..body_end.min(self.src.len())])
            .into_owned();
        self.emit(TokKind::Str, body, line, None);
    }

    /// `'` — either a char literal (`'x'`, `'\n'`) or a lifetime (`'a`).
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump(); // the quote
        match self.peek() {
            // escape: always a char literal
            Some(b'\\') => {
                self.bump();
                self.bump(); // escaped char
                             // consume to closing quote (covers \u{...})
                while let Some(b) = self.peek() {
                    self.bump();
                    if b == b'\'' {
                        break;
                    }
                }
                self.emit(TokKind::Char, String::new(), line, None);
            }
            Some(c) if is_ident_char(c) => {
                // `'x'` is a char; `'x` / `'xyz` is a lifetime
                if self.peek_at(1) == Some(b'\'') {
                    self.bump();
                    self.bump();
                    self.emit(TokKind::Char, (c as char).to_string(), line, None);
                } else {
                    let start = self.pos;
                    while self.peek().is_some_and(is_ident_char) {
                        self.bump();
                    }
                    let name = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                    self.emit(TokKind::Lifetime, name, line, None);
                }
            }
            // `'('` etc: a one-character char literal of punctuation
            Some(_) => {
                self.bump();
                if self.peek() == Some(b'\'') {
                    self.bump();
                }
                self.emit(TokKind::Char, String::new(), line, None);
            }
            None => {}
        }
    }

    /// `r`, `b`, or `c`: raw strings / byte strings / C strings / raw
    /// identifiers — or just an identifier starting with that letter.
    fn ident_or_prefixed_literal(&mut self) {
        let b0 = self.peek().unwrap_or(b'r');
        // decide by lookahead, consuming nothing yet
        let (skip, action): (usize, u8) = match (b0, self.peek_at(1), self.peek_at(2)) {
            // r"..." | r#"..."# | br#"..." etc.
            (b'r', Some(b'"'), _) => (1, b'R'),
            (b'r', Some(b'#'), _) => {
                // r#ident vs r#"..."  — scan past hashes
                let mut k = 1;
                while self.peek_at(k) == Some(b'#') {
                    k += 1;
                }
                if self.peek_at(k) == Some(b'"') {
                    (1, b'R')
                } else {
                    (2, b'I') // raw identifier r#name → lex `name`
                }
            }
            (b'b' | b'c', Some(b'"'), _) => (1, b'S'),
            (b'b', Some(b'r'), Some(b'"' | b'#')) => (2, b'R'),
            (b'b', Some(b'\''), _) => (1, b'C'),
            _ => (0, b'I'),
        };
        for _ in 0..skip {
            self.bump();
        }
        match action {
            b'R' => self.raw_string(),
            b'S' => self.string(self.pos, false),
            b'C' => self.char_or_lifetime(),
            _ => self.ident(),
        }
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.pos;
        while self.peek().is_some_and(|b| is_ident_char(b) || b >= 0x80) {
            self.bump();
        }
        if self.pos == start {
            // lone non-ASCII byte that is not an ident char: skip it
            self.bump();
            return;
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.emit(TokKind::Ident, text, line, None);
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.pos;
        // consume the literal: digits, `_`, radix prefixes, hex letters,
        // suffixes (`u64`), exponents. A trailing `.` only belongs to the
        // number when followed by a digit (so `0..10` lexes as 0, .., 10).
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric()
                || b == b'_'
                || (b == b'.' && self.peek_at(1).is_some_and(|d| d.is_ascii_digit()))
            {
                self.bump();
            } else {
                break;
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        let value = parse_int_value(&text);
        self.emit(TokKind::Number, text, line, value);
    }
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Parse the numeric value of an integer literal, ignoring `_` separators
/// and type suffixes. Returns `None` for floats and overflowing values.
pub fn parse_int_value(text: &str) -> Option<u128> {
    let clean: String = text.chars().filter(|&c| c != '_').collect();
    let (radix, digits) = match clean.as_bytes() {
        [b'0', b'x' | b'X', rest @ ..] => (16, rest),
        [b'0', b'o' | b'O', rest @ ..] => (8, rest),
        [b'0', b'b' | b'B', rest @ ..] => (2, rest),
        _ => (10, clean.as_bytes()),
    };
    if digits.contains(&b'.') {
        return None;
    }
    let mut value: u128 = 0;
    let mut any = false;
    for &d in digits {
        match (d as char).to_digit(radix) {
            Some(v) => {
                value = value.checked_mul(radix as u128)?.checked_add(v as u128)?;
                any = true;
            }
            // a type suffix (`u64`, `usize`) ends the digits; a literal
            // that *starts* with a non-digit has no value
            None if any => break,
            None => return None,
        }
    }
    any.then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn strings_hide_everything() {
        let src = r#"let s = "unsafe unwrap() // not a comment /* nope */"; x"#;
        assert_eq!(idents(src), ["let", "s", "x"]);
    }

    #[test]
    fn escaped_quote_does_not_close_string() {
        let src = r#"let s = "a\" unsafe"; y"#;
        assert_eq!(idents(src), ["let", "s", "y"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r##"let s = r#"unsafe "quoted" unwrap()"#; z"##;
        assert_eq!(idents(src), ["let", "s", "z"]);
        let lexed = lex(src);
        let body: Vec<_> =
            lexed.tokens.iter().filter(|t| t.kind == TokKind::Str).map(|t| &t.text).collect();
        assert_eq!(body, [r#"unsafe "quoted" unwrap()"#]);
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner unsafe */ still comment */ b";
        assert_eq!(idents(src), ["a", "b"]);
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("inner unsafe"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "let c = 'a'; fn f<'a>(x: &'a str) { let q = '\\''; let n = '\\n'; }";
        let lexed = lex(src);
        let chars = lexed.tokens.iter().filter(|t| t.kind == TokKind::Char).count();
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, 3, "{lexed:?}");
        assert_eq!(lifetimes, ["a", "a"]);
    }

    #[test]
    fn byte_and_c_strings() {
        // lint: magic-ok(exercises byte-string lexing, not the wire format)
        assert_eq!(idents(r#"let m = b"EASEBEL1"; k"#), ["let", "m", "k"]);
        assert_eq!(idents(r#"let m = c"unsafe"; k"#), ["let", "m", "k"]);
        assert_eq!(idents(r##"let m = br#"unsafe"#; k"##), ["let", "m", "k"]);
        assert_eq!(idents(r"let b = b'x'; k"), ["let", "b", "k"]);
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(idents("let r#match = 1;"), ["let", "match"]);
    }

    #[test]
    fn numeric_values() {
        let lexed = lex("const A: u16 = 0xEA5E; const B: u64 = 0xEA5E_F16E; const C: i32 = 1_000;");
        let values: Vec<_> =
            lexed.tokens.iter().filter(|t| t.kind == TokKind::Number).map(|t| t.value).collect();
        assert_eq!(values, [Some(0xEA5E), Some(0xEA5E_F16E), Some(1000)]);
        assert_eq!(parse_int_value("42u64"), Some(42));
        assert_eq!(parse_int_value("0b1010"), Some(10));
        assert_eq!(parse_int_value("1.5"), None);
    }

    #[test]
    fn ranges_are_not_floats() {
        let lexed = lex("for i in 0..10 {}");
        let numbers: Vec<_> =
            lexed.tokens.iter().filter(|t| t.kind == TokKind::Number).map(|t| t.value).collect();
        assert_eq!(numbers, [Some(0), Some(10)]);
    }

    #[test]
    fn comment_classification_and_lines() {
        let src = "let a = 1; // trailing\n// standalone\nlet b = 2;\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].trailing);
        assert_eq!(lexed.comments[0].line, 1);
        assert!(!lexed.comments[1].trailing);
        assert_eq!(lexed.comments[1].line, 2);
        let b = lexed.tokens.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn attribute_tokens_are_marked() {
        let src = "#[cfg(test)]\nmod tests {}\n#![deny(unsafe_op_in_unsafe_fn)]\nfn f() {}";
        let lexed = lex(src);
        let attr: Vec<_> =
            lexed.tokens.iter().filter(|t| t.in_attr).map(|t| t.text.as_str()).collect();
        assert!(attr.contains(&"cfg"));
        assert!(attr.contains(&"deny"));
        let code: Vec<_> =
            lexed.tokens.iter().filter(|t| !t.in_attr).map(|t| t.text.as_str()).collect();
        assert!(code.contains(&"mod"));
        assert!(code.contains(&"fn"));
    }

    #[test]
    fn unterminated_inputs_do_not_loop() {
        lex("let s = \"unterminated");
        lex("/* unterminated");
        lex("let s = r#\"unterminated");
        lex("let c = '");
    }
}
