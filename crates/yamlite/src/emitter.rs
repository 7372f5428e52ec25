//! Block-style emitter. Output is deliberately canonical (2-space indents,
//! sequences indented under their key) so that emit→parse round-trips and
//! manifest diffs stay stable across annotation passes.

use crate::value::Yaml;

/// Serialize a multi-document stream, `---`-separated (the shape
/// `parse_all` reads back).
pub fn to_string_all(docs: &[Yaml]) -> String {
    let mut out = String::new();
    for (i, doc) in docs.iter().enumerate() {
        if i > 0 {
            out.push_str("---\n");
        }
        out.push_str(&to_string(doc));
    }
    out
}

/// Serialize a value as a block-style YAML document (with trailing newline).
pub fn to_string(value: &Yaml) -> String {
    let mut out = String::new();
    match value {
        Yaml::Map(m) if !m.is_empty() => emit_map(m, 0, &mut out),
        Yaml::Seq(s) if !s.is_empty() => emit_seq(s, 0, &mut out),
        Yaml::Map(_) => out.push_str("{}\n"),
        Yaml::Seq(_) => out.push_str("[]\n"),
        scalar => {
            out.push_str(&scalar_repr(scalar));
            out.push('\n');
        }
    }
    out
}

fn indent_str(n: usize) -> String {
    " ".repeat(n)
}

fn emit_map(map: &[(String, Yaml)], indent: usize, out: &mut String) {
    for (k, v) in map {
        out.push_str(&indent_str(indent));
        out.push_str(&key_repr(k));
        out.push(':');
        emit_value_after_key(v, indent, out);
    }
}

fn emit_value_after_key(v: &Yaml, indent: usize, out: &mut String) {
    match v {
        Yaml::Map(m) if !m.is_empty() => {
            out.push('\n');
            emit_map(m, indent + 2, out);
        }
        Yaml::Seq(s) if !s.is_empty() => {
            out.push('\n');
            emit_seq(s, indent + 2, out);
        }
        Yaml::Map(_) => out.push_str(" {}\n"),
        Yaml::Seq(_) => out.push_str(" []\n"),
        scalar => {
            out.push(' ');
            out.push_str(&scalar_repr(scalar));
            out.push('\n');
        }
    }
}

fn emit_seq(seq: &[Yaml], indent: usize, out: &mut String) {
    for item in seq {
        out.push_str(&indent_str(indent));
        out.push('-');
        match item {
            Yaml::Map(m) if !m.is_empty() => {
                // First key on the dash line, the rest below it.
                let (k0, v0) = &m[0];
                out.push(' ');
                out.push_str(&key_repr(k0));
                out.push(':');
                emit_value_after_key(v0, indent + 2, out);
                emit_map(&m[1..], indent + 2, out);
            }
            Yaml::Seq(s) if !s.is_empty() => {
                out.push('\n');
                emit_seq(s, indent + 2, out);
            }
            Yaml::Map(_) => out.push_str(" {}\n"),
            Yaml::Seq(_) => out.push_str(" []\n"),
            scalar => {
                out.push(' ');
                out.push_str(&scalar_repr(scalar));
                out.push('\n');
            }
        }
    }
}

fn key_repr(k: &str) -> String {
    if needs_quoting(k) {
        quote(k)
    } else {
        k.to_string()
    }
}

fn scalar_repr(v: &Yaml) -> String {
    match v {
        Yaml::Null => "null".to_string(),
        Yaml::Bool(b) => b.to_string(),
        Yaml::Int(i) => i.to_string(),
        Yaml::Float(f) => {
            // Keep a decimal point so the token re-parses as a float.
            let s = format!("{f}");
            if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                s
            } else {
                format!("{s}.0")
            }
        }
        Yaml::Str(s) => {
            if needs_quoting(s) {
                quote(s)
            } else {
                s.clone()
            }
        }
        Yaml::Seq(_) | Yaml::Map(_) => unreachable!("collections handled by block emitters"),
    }
}

/// Would this string be mis-read as something else (or be syntactically
/// invalid) if emitted plain?
fn needs_quoting(s: &str) -> bool {
    if s.is_empty() {
        return true;
    }
    // Would re-parse as a non-string scalar.
    if matches!(
        s,
        "~" | "null" | "Null" | "NULL" | "true" | "True" | "TRUE" | "false" | "False" | "FALSE"
    ) {
        return true;
    }
    if s.parse::<i64>().is_ok() {
        return true;
    }
    if s.parse::<f64>().is_ok() && s.chars().all(|c| c.is_ascii_digit() || ".eE+-".contains(c)) {
        return true;
    }
    // Leading/trailing whitespace, or characters that confuse block parsing.
    if s.starts_with(' ')
        || s.ends_with(' ')
        || s.starts_with('-') && (s.len() == 1 || s.as_bytes()[1] == b' ')
        || "!&*#?|>%@`\"'{}[]".contains(s.chars().next().unwrap())
    {
        return true;
    }
    // `: ` or trailing `:` inside would be read as a mapping separator; `#`
    // after a space starts a comment.
    s.contains(": ") || s.ends_with(':') || s.contains(" #") || s.contains('\n') || s.contains('\t')
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\0' => out.push_str("\\0"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn scalars() {
        assert_eq!(to_string(&Yaml::Int(5)), "5\n");
        assert_eq!(to_string(&Yaml::str("hi")), "hi\n");
        assert_eq!(to_string(&Yaml::Null), "null\n");
        assert_eq!(to_string(&Yaml::Bool(true)), "true\n");
        assert_eq!(to_string(&Yaml::Float(1.5)), "1.5\n");
        assert_eq!(to_string(&Yaml::Float(2.0)), "2.0\n");
    }

    #[test]
    fn strings_that_look_like_scalars_get_quoted() {
        assert_eq!(to_string(&Yaml::str("42")), "\"42\"\n");
        assert_eq!(to_string(&Yaml::str("true")), "\"true\"\n");
        assert_eq!(to_string(&Yaml::str("")), "\"\"\n");
        assert_eq!(to_string(&Yaml::str("null")), "\"null\"\n");
    }

    #[test]
    fn map_emission() {
        let mut y = Yaml::map();
        y.insert("a", Yaml::Int(1));
        y.insert("b", Yaml::str("x"));
        assert_eq!(to_string(&y), "a: 1\nb: x\n");
    }

    #[test]
    fn nested_collections() {
        let mut inner = Yaml::map();
        inner.insert("k", Yaml::str("v"));
        let mut y = Yaml::map();
        y.insert("outer", inner);
        y.insert("list", Yaml::Seq(vec![Yaml::Int(1), Yaml::Int(2)]));
        assert_eq!(to_string(&y), "outer:\n  k: v\nlist:\n  - 1\n  - 2\n");
    }

    #[test]
    fn empty_collections_flow_form() {
        let mut y = Yaml::map();
        y.insert("e1", Yaml::Seq(Vec::new()));
        y.insert("e2", Yaml::map());
        let s = to_string(&y);
        assert_eq!(s, "e1: []\ne2: {}\n");
        assert_eq!(parse(&s).unwrap(), y);
    }

    #[test]
    fn seq_of_maps_compact_dash() {
        let mut c = Yaml::map();
        c.insert("name", Yaml::str("nginx"));
        c.insert("image", Yaml::str("nginx:1.23.2"));
        let y = Yaml::Seq(vec![c]);
        assert_eq!(to_string(&y), "- name: nginx\n  image: nginx:1.23.2\n");
    }

    #[test]
    fn roundtrip_special_strings() {
        for s in [
            "with: colon",
            "# not comment",
            "ends:",
            " leading",
            "trailing ",
            "multi\nline",
            "tab\tchar",
            "quote\"inside",
            "-",
            "- dashy",
            "1.23.2",
        ] {
            let y = Yaml::str(s);
            let emitted = to_string(&y);
            let parsed = parse(&emitted).unwrap();
            assert_eq!(parsed, y, "emitted {emitted:?}");
        }
    }

    #[test]
    fn multi_doc_roundtrip() {
        let a = parse("kind: Deployment\n").unwrap();
        let b = parse("kind: Service\n").unwrap();
        let text = to_string_all(&[a.clone(), b.clone()]);
        let docs = crate::parser::parse_all(&text).unwrap();
        assert_eq!(docs, vec![a, b]);
    }

    #[test]
    fn roundtrip_deep_structure() {
        let src = "a:\n  b:\n    - c: 1\n      d:\n        - x\n        - y\n    - c: 2\n";
        let y = parse(src).unwrap();
        assert_eq!(parse(&to_string(&y)).unwrap(), y);
    }
}
