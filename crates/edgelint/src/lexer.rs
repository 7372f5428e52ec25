//! A minimal Rust lexer — just enough structure for the determinism lints.
//!
//! The build container has no registry access, so `syn` is not available;
//! like the `proptest`/`criterion` shims, the lexer is vendored in-tree. It
//! produces a flat token stream with line provenance plus the comment-borne
//! side channels the lints need: `// edgelint: allow(...)` directives and a
//! per-line "has code" map (so a directive on its own line can be scoped to
//! the next statement). It understands the lexical constructs that would
//! otherwise corrupt a token scan — nested block comments, string/char/byte
//! literals, raw strings with `#` fences, and lifetimes vs. char literals —
//! and deliberately nothing more: the lints pattern-match on token
//! neighborhoods, not on a parse tree.

/// One lexical token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    pub line: u32,
    pub kind: TokenKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Identifier or keyword (`HashMap`, `for`, `self`, ...).
    Ident(String),
    /// A single punctuation character (`.`, `:`, `(`, `<`, ...). Multi-char
    /// operators arrive as consecutive tokens (`::` is `:`,`:`).
    Punct(char),
    /// String / char / numeric literal (contents dropped — no lint reads them).
    Literal,
    /// `'a` — kept distinct so `'x'` char literals never masquerade as idents.
    Lifetime,
}

impl TokenKind {
    pub(crate) fn ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    pub(crate) fn is_punct(&self, c: char) -> bool {
        matches!(self, TokenKind::Punct(p) if *p == c)
    }
}

/// A `// edgelint: allow(<lint>) — <reason>` directive found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AllowDirective {
    pub line: u32,
    /// The raw lint name inside the parentheses (validated by the caller).
    pub lint: String,
    /// The reason text after the separator, trimmed. Empty = malformed.
    pub reason: String,
    /// Whether a separator (`—`, `--`, or `:`) was present at all.
    pub has_separator: bool,
}

/// Lexer output: the token stream plus the comment side channels.
#[derive(Debug, Default)]
pub(crate) struct Lexed {
    pub tokens: Vec<Token>,
    pub allows: Vec<AllowDirective>,
    /// `code_lines[n]` is true when 1-based line `n+1` holds at least one
    /// token (i.e. is not blank / comment-only). Used to scope directives.
    pub code_lines: Vec<bool>,
}

impl Lexed {
    pub(crate) fn line_has_code(&self, line: u32) -> bool {
        self.code_lines
            .get(line as usize - 1)
            .copied()
            .unwrap_or(false)
    }
}

pub(crate) fn lex(source: &str) -> Lexed {
    let mut out = Lexed {
        code_lines: vec![false; source.lines().count().max(1)],
        ..Lexed::default()
    };
    let bytes = source.as_bytes();
    let mut i = 0usize;
    let mut line: u32 = 1;

    macro_rules! push {
        ($kind:expr) => {{
            if let Some(slot) = out.code_lines.get_mut(line as usize - 1) {
                *slot = true;
            }
            out.tokens.push(Token { line, kind: $kind });
        }};
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = source[i..].find('\n').map_or(bytes.len(), |n| i + n);
                scan_comment(&source[i..end], line, &mut out.allows);
                i = end;
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comments, counting newlines as we go.
                let mut depth = 1;
                let start = i;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                scan_comment(&source[start..i.min(bytes.len())], line, &mut out.allows);
            }
            '"' => {
                push!(TokenKind::Literal);
                i = skip_string(bytes, i, &mut line);
            }
            'r' | 'b' if starts_raw_or_byte_string(bytes, i) => {
                push!(TokenKind::Literal);
                i = skip_raw_or_byte_string(bytes, i, &mut line);
            }
            '\'' => {
                // Lifetime (`'a` not followed by a closing quote) vs char
                // literal (`'a'`, `'\n'`, `'\''`).
                let next = bytes.get(i + 1).copied();
                let is_lifetime = matches!(next, Some(n) if (n as char).is_alphabetic() || n == b'_')
                    && bytes.get(i + 2) != Some(&b'\'');
                if is_lifetime {
                    push!(TokenKind::Lifetime);
                    i += 2;
                    while i < bytes.len()
                        && ((bytes[i] as char).is_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                } else {
                    push!(TokenKind::Literal);
                    i = skip_char_literal(bytes, i);
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && ((bytes[i] as char).is_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                push!(TokenKind::Ident(source[start..i].to_string()));
            }
            c if c.is_ascii_digit() => {
                // Numeric literal: digits, `_`, `.` (float), exponent, suffix.
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_alphanumeric()
                        || d == '_'
                        || (d == '.' && bytes.get(i + 1).is_some_and(|n| n.is_ascii_digit()))
                    {
                        i += 1;
                    } else if (d == '+' || d == '-')
                        && matches!(bytes.get(i - 1), Some(b'e') | Some(b'E'))
                        && bytes.get(i + 1).is_some_and(|n| n.is_ascii_digit())
                    {
                        i += 1; // exponent sign (`1.5e-3`)
                    } else {
                        break;
                    }
                }
                push!(TokenKind::Literal);
            }
            c => {
                push!(TokenKind::Punct(c));
                i += c.len_utf8();
            }
        }
    }
    out
}

/// Parse `edgelint: allow(<lint>)` directives out of one comment's text.
fn scan_comment(text: &str, line: u32, allows: &mut Vec<AllowDirective>) {
    let Some(pos) = text.find("edgelint:") else {
        return;
    };
    let rest = text[pos + "edgelint:".len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow") else {
        return;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        allows.push(AllowDirective {
            line,
            lint: String::new(),
            reason: String::new(),
            has_separator: false,
        });
        return;
    };
    let Some(close) = rest.find(')') else {
        allows.push(AllowDirective {
            line,
            lint: String::new(),
            reason: String::new(),
            has_separator: false,
        });
        return;
    };
    let lint = rest[..close].trim().to_string();
    let tail = rest[close + 1..].trim_start();
    // Accept `— reason`, `-- reason`, or `: reason`.
    let (has_separator, reason) = if let Some(r) = tail.strip_prefix('—') {
        (true, r.trim())
    } else if let Some(r) = tail.strip_prefix("--") {
        (true, r.trim())
    } else if let Some(r) = tail.strip_prefix(':') {
        (true, r.trim())
    } else {
        (false, "")
    };
    allows.push(AllowDirective {
        line,
        lint,
        reason: reason.trim_end_matches("*/").trim().to_string(),
        has_separator,
    });
}

fn starts_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    match bytes[i] {
        b'r' => matches!(bytes.get(i + 1), Some(b'"') | Some(b'#')),
        b'b' => match bytes.get(i + 1) {
            Some(b'"') => true,
            Some(b'r') => matches!(bytes.get(i + 2), Some(b'"') | Some(b'#')),
            _ => false,
        },
        _ => false,
    }
}

fn skip_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn skip_raw_or_byte_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    if bytes[i] == b'b' {
        i += 1;
    }
    if bytes.get(i) == Some(&b'"') {
        // Plain byte string: escapes apply.
        return skip_string(bytes, i, line);
    }
    // Raw string: r, then zero or more '#', then '"'.
    i += 1; // 'r'
    let mut fence = 0usize;
    while bytes.get(i) == Some(&b'#') {
        fence += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return i; // not actually a string (e.g. `r#ident`); resync
    }
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while seen < fence && bytes.get(j) == Some(&b'#') {
                seen += 1;
                j += 1;
            }
            if seen == fence {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

fn skip_char_literal(bytes: &[u8], mut i: usize) -> usize {
    i += 1; // opening quote
    if bytes.get(i) == Some(&b'\\') {
        i += 2;
    } else {
        i += 1;
    }
    // Unicode escapes (`'\u{1F600}'`) run until the closing quote.
    while i < bytes.len() && bytes[i] != b'\'' {
        i += 1;
    }
    i + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.kind.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn strings_and_comments_do_not_leak_tokens() {
        let src = r##"
let x = "HashMap::new() // not code";
/* Instant::now() in a block comment
   spanning lines */
let r = r#"thread_rng() "quoted" "#;
let c = '\''; let lt: &'static str = "s";
"##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(!ids.contains(&"Instant".to_string()), "{ids:?}");
        assert!(!ids.contains(&"thread_rng".to_string()), "{ids:?}");
        // `'static` arrives as a Lifetime token, never as an ident.
        assert!(!ids.contains(&"static".to_string()), "{ids:?}");
        assert!(lex(src)
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime));
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"x\ny\";\nlet b = 1;\n";
        let lexed = lex(src);
        let b = lexed
            .tokens
            .iter()
            .find(|t| t.kind.ident() == Some("b"))
            .unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn allow_directive_parses() {
        let src =
            "// edgelint: allow(det-collections) — values feed a min() reduction\nlet x = 1;\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        let d = &lexed.allows[0];
        assert_eq!(d.lint, "det-collections");
        assert!(d.has_separator);
        assert_eq!(d.reason, "values feed a min() reduction");
        assert!(!lexed.line_has_code(1));
        assert!(lexed.line_has_code(2));
    }

    #[test]
    fn allow_directive_without_reason_flagged() {
        for src in [
            "// edgelint: allow(ambient-time)\n",
            "// edgelint: allow(ambient-time) —\n",
            "// edgelint: allow(ambient-time) --   \n",
        ] {
            let lexed = lex(src);
            assert_eq!(lexed.allows.len(), 1, "{src}");
            let d = &lexed.allows[0];
            assert!(d.reason.is_empty(), "{src}");
        }
    }

    #[test]
    fn numeric_float_is_one_literal() {
        let lexed = lex("let x = 1.5e-3_f64;");
        let literals = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(literals, 1);
    }
}
