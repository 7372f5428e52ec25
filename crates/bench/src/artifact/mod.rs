//! One harness for the `BENCH_*.json` artifacts: a header of named values,
//! then named sections of flat rows, one row per line.
//!
//! A [`Layout`] declares every column once, with the way its values are
//! written. [`Row::set`] rejects an undeclared column or a value that does
//! not fit its column, the writer ([`Doc::render`]) a row that lacks a
//! column, and the reader ([`Layout::parse`]) accepts exactly the text the
//! writer produces. Each artifact's module holds its layout, row builders
//! and gates; the gates are a pure function of a parsed [`Doc`], so
//! [`publish`] and the tests run the same checks.

use std::fmt;
use std::str::FromStr;

/// Declares a column list: `cols![scale: Int, wall_s: Float(6)]`.
macro_rules! cols {
    ($($name:ident : $kind:expr),* $(,)?) => {{
        use $crate::artifact::Kind::*;
        &[$($crate::artifact::Col { name: stringify!($name), kind: $kind }),*]
    }};
}

/// Fills an empty row: `row![LAYOUT.row("scales"); scale: 1, wall_s: 0.5]`.
macro_rules! row {
    ($empty:expr; $($name:ident : $v:expr),* $(,)?) => {{
        let mut row: $crate::artifact::Row = $empty;
        $(row.set(stringify!($name), $v);)*
        row
    }};
}

pub mod cityscale;
pub mod mesh;
pub mod sched;
pub mod workload;

/// The seed every artifact runs at.
pub const SEED: u64 = 42;

/// The metrics hash of the seed-42 bigFlows replay at 1×, which the
/// cityscale 1× row, the mesh 1-shard row, the workload `bigflows` 1-shard
/// row and the sched baseline all reproduce.
pub const SEED_42_HASH: u64 = 0x66cc_06e4_f4d2_6b1a;

/// How a column's values are written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Int,
    /// A float with this many decimals.
    Float(usize),
    /// A string that needs no escaping.
    Str,
    /// An integer written as `"0x"` and 16 hex digits.
    Hash,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Col {
    pub name: &'static str,
    pub kind: Kind,
}

/// An artifact's shape: the bench name, the header's columns (`bench` and
/// `seed` first) and each section's name and columns, in file order.
#[derive(Debug, PartialEq)]
pub struct Layout {
    pub bench: &'static str,
    pub header: &'static [Col],
    pub sections: &'static [(&'static str, &'static [Col])],
}

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// An `Int` or a `Hash` column's value.
    Int(u64),
    Float(f64),
    Str(String),
}

macro_rules! value_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl From<$t> for Value { fn from($v: $t) -> Value { $e } })*
    };
}

value_from!(
    u64 => |v| Value::Int(v),
    usize => |v| Value::Int(v as u64),
    f64 => |v| Value::Float(v),
    &str => |v| Value::Str(v.to_string()),
);

impl Value {
    /// Whether a column of `kind` can hold the value and write it unescaped.
    fn fits(&self, kind: Kind) -> bool {
        match (self, kind) {
            (Value::Int(_), Kind::Int | Kind::Hash) => true,
            (Value::Float(x), Kind::Float(_)) => x.is_finite(),
            (Value::Str(s), Kind::Str) => !s.contains(['"', '\\']) && !s.contains(char::is_control),
            _ => false,
        }
    }

    fn show(&self, kind: Kind) -> String {
        match (self, kind) {
            (Value::Int(h), Kind::Hash) => format!("\"{h:#018x}\""),
            (Value::Float(x), Kind::Float(p)) => format!("{x:.p$}"),
            (Value::Int(x), _) => x.to_string(),
            (Value::Float(x), _) => x.to_string(),
            (Value::Str(s), _) => format!("\"{s}\""),
        }
    }

    fn parse(raw: &str, kind: Kind) -> Option<Value> {
        let text = raw.trim_matches('"');
        let v = match kind {
            Kind::Int => Value::Int(raw.parse().ok()?),
            Kind::Float(_) => Value::Float(raw.parse().ok()?),
            Kind::Str => Value::Str(text.to_string()),
            Kind::Hash => Value::Int(u64::from_str_radix(text.strip_prefix("0x")?, 16).ok()?),
        };
        v.fits(kind).then_some(v)
    }
}

/// One flat row: a value slot per declared column.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    cols: &'static [Col],
    vals: Vec<Option<Value>>,
}

impl Row {
    pub(crate) fn new(cols: &'static [Col]) -> Row {
        let vals = vec![None; cols.len()];
        Row { cols, vals }
    }

    fn slot(&self, name: &str) -> usize {
        let at = self.cols.iter().position(|c| c.name == name);
        at.unwrap_or_else(|| panic!("undeclared column `{name}`"))
    }

    /// Sets a declared column to a value that fits it; anything else panics.
    pub fn set(&mut self, name: &str, v: impl Into<Value>) -> &mut Row {
        let (at, v) = (self.slot(name), v.into());
        assert!(v.fits(self.cols[at].kind), "`{name}` cannot hold {v:?}");
        self.vals[at] = Some(v);
        self
    }

    /// A column's value; a written or read row has every one.
    fn get(&self, name: &str) -> &Value {
        let v = self.vals[self.slot(name)].as_ref();
        v.unwrap_or_else(|| panic!("column `{name}` is unset in {self}"))
    }

    /// An `Int` or a `Hash` column's value.
    pub fn int(&self, name: &str) -> u64 {
        match self.get(name) {
            Value::Int(v) => *v,
            v => panic!("`{name}` is not an integer: {v:?}"),
        }
    }

    pub fn float(&self, name: &str) -> f64 {
        match self.get(name) {
            Value::Float(v) => *v,
            v => panic!("`{name}` is not a float: {v:?}"),
        }
    }

    pub fn str(&self, name: &str) -> &str {
        match self.get(name) {
            Value::Str(v) => v,
            v => panic!("`{name}` is not a string: {v:?}"),
        }
    }

    /// Every declared column holds a value.
    fn check(&self) -> Result<(), String> {
        match self.cols.iter().zip(&self.vals).find(|(_, v)| v.is_none()) {
            Some((c, _)) => Err(format!("missing column `{}` in {self}", c.name)),
            None => Ok(()),
        }
    }

    /// `"name": value` for every set column, in order.
    fn fields(&self) -> impl Iterator<Item = String> + '_ {
        let set = self.cols.iter().zip(&self.vals);
        set.filter_map(|(c, v)| Some(format!("\"{}\": {}", c.name, v.as_ref()?.show(c.kind))))
    }
}

/// The row as the artifact writes it: `{"key": value, ...}`.
impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.fields().collect::<Vec<_>>().join(", "))
    }
}

/// One artifact: its header row and each section's rows.
#[derive(Clone, Debug, PartialEq)]
pub struct Doc {
    pub layout: &'static Layout,
    pub header: Row,
    sections: Vec<Vec<Row>>,
}

impl Doc {
    /// An empty artifact whose header already holds `bench` and `seed`.
    pub fn new(layout: &'static Layout) -> Doc {
        let mut header = Row::new(layout.header);
        header.set("bench", layout.bench).set("seed", SEED);
        let sections = vec![Vec::new(); layout.sections.len()];
        Doc {
            layout,
            header,
            sections,
        }
    }

    pub fn rows(&self, section: &str) -> &[Row] {
        &self.sections[self.layout.index(section)]
    }

    pub fn rows_mut(&mut self, section: &str) -> &mut Vec<Row> {
        &mut self.sections[self.layout.index(section)]
    }

    /// The artifact's text, or the first row that lacks a column.
    pub fn render(&self) -> Result<String, String> {
        self.header.check()?;
        let mut items: Vec<String> = self.header.fields().map(|f| format!("  {f}")).collect();
        for ((name, _), rows) in self.layout.sections.iter().zip(&self.sections) {
            let mut lines = Vec::new();
            for row in rows {
                row.check()?;
                lines.push(format!("\n    {row}"));
            }
            items.push(format!("  \"{name}\": [{}\n  ]", lines.join(",")));
        }
        Ok(format!("{{\n{}\n}}\n", items.join(",\n")))
    }
}

/// Parses `"key": value, "key": value` against `cols`, in order. A value
/// is a string with no `"` of its own, or runs to the next `, `.
fn parse_fields(mut rest: &str, cols: &'static [Col]) -> Result<Row, String> {
    let mut row = Row::new(cols);
    for (i, (slot, c)) in row.vals.iter_mut().zip(cols).enumerate() {
        let key = format!("{}\"{}\": ", if i > 0 { ", " } else { "" }, c.name);
        let value = rest.strip_prefix(&key);
        let value = value.ok_or_else(|| format!("expected `{}` at `{rest}`", c.name))?;
        let end = match value.strip_prefix('"') {
            Some(s) => s.find('"').map_or(value.len(), |e| e + 2),
            None => value.find(", ").unwrap_or(value.len()),
        };
        let (raw, tail) = value.split_at(end);
        let v = Value::parse(raw, c.kind);
        *slot = Some(v.ok_or_else(|| format!("`{}`: `{raw}` is not {:?}", c.name, c.kind))?);
        rest = tail;
    }
    match rest {
        "" => Ok(row),
        _ => Err(format!("undeclared columns `{rest}`")),
    }
}

impl Layout {
    fn index(&self, section: &str) -> usize {
        let at = self.sections.iter().position(|s| s.0 == section);
        at.unwrap_or_else(|| panic!("{} has no section `{section}`", self.bench))
    }

    /// An empty row of `section`'s columns.
    pub fn row(&self, section: &str) -> Row {
        Row::new(self.sections[self.index(section)].1)
    }

    /// Reads an artifact this layout's writer produced. Text the writer
    /// would not produce byte for byte (a missing, extra or reordered
    /// column, another float precision, other whitespace) is an error.
    pub fn parse(&'static self, text: &str) -> Result<Doc, String> {
        let err = |e: String| format!("{}: {e}", self.bench);
        let mut lines = text.lines().map(str::trim);
        let mut doc = Doc::new(self);
        let header = lines.by_ref().skip(1).take(self.header.len());
        let header: Vec<&str> = header.map(|l| l.trim_end_matches(',')).collect();
        doc.header = parse_fields(&header.join(", "), self.header).map_err(err)?;
        for (i, (name, cols)) in self.sections.iter().enumerate() {
            lines.next();
            for line in lines.by_ref().take_while(|l| !l.starts_with(']')) {
                let body = line.trim_end_matches(',').strip_prefix('{');
                let body = body.and_then(|b| b.strip_suffix('}')).unwrap_or(line);
                let row = parse_fields(body, cols).map_err(|e| format!("{name}: {e}"));
                doc.sections[i].push(row.map_err(err)?);
            }
        }
        let written = doc.render().map_err(err)?;
        match written.lines().zip(text.lines()).find(|(w, t)| w != t) {
            Some((w, t)) => Err(err(format!("`{t}` is not the written `{w}`"))),
            None if written != text => Err(err("does not end as written".into())),
            None => Ok(doc),
        }
    }
}

/// One failed gate: its name, and the value or row that failed it.
pub type Failure = (&'static str, String);

/// Collects an artifact's gate failures, starting with the `header` gate
/// every artifact shares: the right bench name and seed 42.
struct Gates(Vec<Failure>);

impl Gates {
    fn new(doc: &Doc) -> Gates {
        let mut g = Gates(Vec::new());
        let h = &doc.header;
        let ok = h.str("bench") == doc.layout.bench && h.int("seed") == SEED;
        g.check("header", ok, h);
        g
    }

    fn check(&mut self, gate: &'static str, ok: bool, detail: impl fmt::Display) {
        if !ok {
            self.0.push((gate, detail.to_string()));
        }
    }

    fn finish(self) -> Vec<Failure> {
        self.0
    }
}

/// Every request of a row completed or is accounted lost.
fn accounted(r: &Row) -> bool {
    r.int("completed") + r.int("lost") == r.int("requests")
}

/// Writes the artifact to `path` and stdout, reads the text back and runs
/// `gates` on what was read; prints every failure and exits 1 if any.
pub fn publish(doc: &Doc, path: &str, gates: impl FnOnce(&Doc) -> Vec<Failure>) {
    let bench = doc.layout.bench;
    let text = doc.render().unwrap_or_else(|e| panic!("{bench}: {e}"));
    std::fs::write(path, &text).expect("write benchmark artifact");
    print!("{text}");
    let failures = gates(&doc.layout.parse(&text).unwrap_or_else(|e| panic!("{e}")));
    for (gate, detail) in &failures {
        eprintln!("{bench}: GATE `{gate}` FAILED: {detail}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    eprintln!("{bench}: every gate passed");
}

/// The artifact bins' command line: bare switches and `--flag value`
/// pairs. An unknown argument or a missing or unparseable value is a usage
/// error: printed, then exit 2.
pub struct Flags {
    bin: &'static str,
    args: Vec<String>,
}

impl Flags {
    pub fn from_env(bin: &'static str) -> Flags {
        let args = std::env::args().skip(1).collect();
        Flags { bin, args }
    }

    pub fn usage(&self, error: impl fmt::Display) -> ! {
        eprintln!("{}: {error}", self.bin);
        std::process::exit(2)
    }

    pub fn switch(&mut self, name: &str) -> bool {
        let before = self.args.len();
        self.args.retain(|a| a != name);
        self.args.len() != before
    }

    /// Removes `name` and its value from the arguments and parses the value.
    fn take<T>(&mut self, name: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        let at = self.args.iter().position(|a| a == name)?;
        self.args.remove(at);
        let raw = (at < self.args.len()).then(|| self.args.remove(at));
        let v = raw.as_deref().and_then(parse);
        Some(v.unwrap_or_else(|| self.usage(format!("{name}: bad value {raw:?}"))))
    }

    pub fn value<T: FromStr>(&mut self, name: &str) -> Option<T> {
        self.take(name, |s| s.parse().ok())
    }

    /// A comma-separated list, e.g. `--shards 1,2,4`.
    pub fn list<T: FromStr>(&mut self, name: &str) -> Option<Vec<T>> {
        let parse = |s: &str| s.split(',').map(|x| x.trim().parse().ok()).collect();
        self.take(name, parse)
    }

    /// Exits 2 if an argument is left that no switch or value took.
    pub fn finish(self) {
        if let Some(a) = self.args.first() {
            self.usage(format!("unknown argument `{a}`"));
        }
    }
}
