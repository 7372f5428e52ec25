//! `edgelint` — the workspace determinism linter.
//!
//! Every correctness gate in this repository (the pinned seed-42 metrics
//! hash, mesh shards=1 byte-identity, the lockstep proptests, the bench CI
//! gates) rests on one contract: **a simulation run is a pure function of
//! its scenario and seed**. Nothing may read ambient process state in a
//! trace-affecting path. This crate enforces that contract statically, with
//! a token-level analysis over the simulation crates (the build container
//! has no registry access, so instead of `syn` the pass runs on the small
//! in-tree lexer in [`lexer`]).
//!
//! The lint taxonomy (see `DESIGN.md` §5h for the full rationale):
//!
//! * **det-collections** — iteration (`iter`, `keys`, `values`, `drain`,
//!   `retain`, `into_iter`, `for .. in`) over a `HashMap`/`HashSet`.
//!   `std`'s hash maps are seeded per process (`RandomState`), so their
//!   iteration order differs run to run; any such order reaching a trace,
//!   an event schedule, or an RNG call sequence breaks replay. Fix: use
//!   `BTreeMap`/`BTreeSet`, collect-and-sort, or an order-insensitive
//!   reduction (`.values().min()`, `.iter().any(..)`, a `collect` into a
//!   `BTreeMap`/`BTreeSet`/`BinaryHeap` — those the lint recognizes itself).
//! * **ambient-time** — `Instant`/`SystemTime`/`thread::sleep`. Wall-clock
//!   reads differ per run by construction; simulation code must use
//!   `SimTime` from the event loop.
//! * **ambient-rng** — `thread_rng`, `rand::random`, `RandomState`, `OsRng`,
//!   `from_entropy`. All randomness must flow from the scenario-seeded
//!   `SimRng` streams.
//! * **ambient-env** — `std::env` reads (`var`, `args`, ...) outside
//!   bin/config code. Environment-dependent behaviour makes two hosts
//!   replay differently.
//! * **float-order** — `.partial_cmp(..).unwrap()` (usually inside
//!   `sort_by`). Besides the NaN panic, `partial_cmp` invites ad-hoc
//!   fallback orderings that differ between call sites; `f64::total_cmp`
//!   is the one total order.
//! * **threading** — `thread::spawn` and the `std::sync` coordination
//!   primitives (`Mutex`/`RwLock`/`Condvar`/`Barrier`/`mpsc`/`Atomic*`).
//!   Within-run parallelism is confined to the conservative-window protocol
//!   in `simcore::shard_runner` (a scoped carve-out, like ambient-env's
//!   `bin/`): anywhere else, a lock or channel is an invitation to make the
//!   trace depend on the thread schedule. `Arc` is deliberately exempt —
//!   immutable sharing cannot reorder anything.
//!
//! Escape hatch: a finding that is provably order-insensitive (or
//! deliberately ambient, e.g. wall-clock in a bench harness) is silenced
//! with a scoped comment **that must carry a reason**:
//!
//! ```text
//! // edgelint: allow(det-collections) — diagnostics-only iterator, never traced
//! pub fn iter(&self) -> impl Iterator<Item = &Flow> { self.flows.values() }
//! ```
//!
//! A reason-less `allow` is itself a violation (**malformed-allow**), so the
//! escape hatch cannot erode silently. The directive scopes to its own line
//! or, when alone on a line, to the next code line.

pub mod lexer;

use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{lex, AllowDirective, Lexed, Token, TokenKind};

/// The named lints. `MalformedAllow` polices the escape hatch itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    DetCollections,
    AmbientTime,
    AmbientRng,
    AmbientEnv,
    FloatOrder,
    Threading,
    MalformedAllow,
}

impl Lint {
    pub const ALL: [Lint; 7] = [
        Lint::DetCollections,
        Lint::AmbientTime,
        Lint::AmbientRng,
        Lint::AmbientEnv,
        Lint::FloatOrder,
        Lint::Threading,
        Lint::MalformedAllow,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Lint::DetCollections => "det-collections",
            Lint::AmbientTime => "ambient-time",
            Lint::AmbientRng => "ambient-rng",
            Lint::AmbientEnv => "ambient-env",
            Lint::FloatOrder => "float-order",
            Lint::Threading => "threading",
            Lint::MalformedAllow => "malformed-allow",
        }
    }

    pub(crate) fn from_name(name: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|l| l.name() == name)
    }

    /// Why the pattern breaks deterministic replay.
    pub fn rationale(self) -> &'static str {
        match self {
            Lint::DetCollections => {
                "std::collections::HashMap/HashSet iteration order is seeded per process \
                 (RandomState); any order-dependent use in a trace-affecting path replays \
                 differently run to run. Use BTreeMap/BTreeSet, a sorted collect, or an \
                 order-insensitive reduction (min/max/sum/count/any/all)."
            }
            Lint::AmbientTime => {
                "Instant::now/SystemTime/thread::sleep read the host clock; simulation \
                 time must come from the event loop (SimTime), never the wall clock."
            }
            Lint::AmbientRng => {
                "thread_rng/rand::random/RandomState/OsRng/from_entropy draw from process \
                 entropy; all randomness must flow from the scenario-seeded SimRng streams."
            }
            Lint::AmbientEnv => {
                "std::env reads make behaviour depend on the invoking shell; only bin/config \
                 code may read the environment, and it must fold the result into the scenario."
            }
            Lint::FloatOrder => {
                "partial_cmp().unwrap() panics on NaN and invites per-call-site fallback \
                 orderings; float keys must be ordered with total_cmp (one total order)."
            }
            Lint::Threading => {
                "thread::spawn and std::sync coordination primitives make results depend on \
                 the thread schedule; within-run parallelism is confined to the windowed \
                 barrier protocol in simcore::shard_runner, which proves thread-invariance."
            }
            Lint::MalformedAllow => {
                "every `edgelint: allow(<lint>)` must name a known lint and carry a reason \
                 after `—`/`--`/`:` — an unexplained suppression is indistinguishable from \
                 an accidental one."
            }
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, with file:line provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub lint: Lint,
    pub file: PathBuf,
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.lint,
            self.message
        )
    }
}

/// Per-file analysis options.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileOptions {
    /// Bin / config code may read `std::env` (the CLI folds flags and
    /// environment into the scenario; everything downstream is pure).
    pub allow_env: bool,
    /// The shard-runner module owns within-run threading: it spawns the
    /// worker threads and the barrier slots whose merge order is proven
    /// thread-invariant. Everywhere else, thread primitives are findings.
    pub allow_threading: bool,
}

impl FileOptions {
    /// Derive options from a path: files under a `bin/` directory, `main.rs`
    /// and `config.rs` are the designated ambient-env boundary, and
    /// `shard_runner.rs` is the designated within-run threading boundary.
    pub fn for_path(path: &Path) -> FileOptions {
        let in_bin = path
            .components()
            .any(|c| c.as_os_str().to_str() == Some("bin"));
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        FileOptions {
            allow_env: in_bin || name == "main.rs" || name == "config.rs",
            allow_threading: name == "shard_runner.rs",
        }
    }
}

/// The crates whose `src/` trees carry the determinism contract. `bench`
/// (wall-clock measurement is its job) and the offline dependency shims are
/// deliberately out of scope.
pub const DETERMINISM_CRATES: [&str; 8] = [
    "cluster",
    "edgectl",
    "edgemesh",
    "edgeverify",
    "simcore",
    "simnet",
    "testbed",
    "workload",
];

/// Lint every `src/` file of the determinism crates under `root` (the
/// workspace directory). Returns violations sorted by (file, line, lint).
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    for krate in DETERMINISM_CRATES {
        let src = root.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for file in files {
            let source = std::fs::read_to_string(&file)?;
            // Report paths relative to the workspace root — stable across
            // checkouts, clickable in CI logs.
            let label = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            violations.extend(check_source(&label, &source, FileOptions::for_path(&file)));
        }
    }
    violations.sort_by(|a, b| {
        (&a.file, a.line, a.lint)
            .cmp(&(&b.file, b.line, b.lint))
            .then_with(|| a.message.cmp(&b.message))
    });
    Ok(violations)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    // read_dir order is filesystem-dependent; the caller sorts the result.
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint a single file's source text.
pub fn check_source(file: &Path, source: &str, opts: FileOptions) -> Vec<Violation> {
    let lexed = lex(source);
    let skip = test_regions(&lexed.tokens);
    let hash_names = hash_collection_names(&lexed.tokens, &skip);

    let mut raw = Vec::new();
    check_det_collections(&lexed.tokens, &skip, &hash_names, &mut raw);
    check_ambient(&lexed.tokens, &skip, opts, &mut raw);
    check_float_order(&lexed.tokens, &skip, &mut raw);
    check_threading(&lexed.tokens, &skip, opts, &mut raw);

    let mut out = Vec::new();
    for (lint, line, message) in raw {
        if !is_allowed(&lexed, lint, line) {
            out.push(Violation {
                lint,
                file: file.to_path_buf(),
                line,
                message,
            });
        }
    }
    for d in &lexed.allows {
        if let Some(msg) = malformed_allow(d) {
            out.push(Violation {
                lint: Lint::MalformedAllow,
                file: file.to_path_buf(),
                line: d.line,
                message: msg,
            });
        }
    }
    out.sort_by_key(|v| (v.line, v.lint));
    out
}

fn malformed_allow(d: &AllowDirective) -> Option<String> {
    if d.lint.is_empty() {
        return Some("`edgelint: allow` needs a lint name in parentheses".into());
    }
    let Some(lint) = Lint::from_name(&d.lint) else {
        return Some(format!(
            "`edgelint: allow({})` names an unknown lint (known: {})",
            d.lint,
            Lint::ALL.map(Lint::name).join(", ")
        ));
    };
    if !d.has_separator || d.reason.is_empty() {
        return Some(format!(
            "`edgelint: allow({})` needs a reason: `// edgelint: allow({}) — <why this \
             is deterministic>`",
            lint, lint
        ));
    }
    None
}

/// A directive silences a finding on its own line, or — when it sits on a
/// comment-only line — on the next code line (intervening blank/comment
/// lines are fine, so a directive can head a doc-commented item).
fn is_allowed(lexed: &Lexed, lint: Lint, line: u32) -> bool {
    lexed.allows.iter().any(|d| {
        if Lint::from_name(&d.lint) != Some(lint) || !d.has_separator || d.reason.is_empty() {
            return false;
        }
        if d.line == line {
            return true;
        }
        d.line < line
            && !lexed.line_has_code(d.line)
            && (d.line + 1..line).all(|l| !lexed.line_has_code(l))
    })
}

/// Token index ranges covered by `#[cfg(test)]` items. Test code may be as
/// ambient as it likes — it never feeds a shipped trace.
fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut skip = vec![false; tokens.len()];
    let mut i = 0;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].kind.is_punct('#')
            && tokens[i + 1].kind.is_punct('[')
            && tokens[i + 2].kind.ident() == Some("cfg")
            && tokens[i + 3].kind.is_punct('(')
            && tokens[i + 4].kind.ident() == Some("test")
            && tokens[i + 5].kind.is_punct(')')
            && tokens[i + 6].kind.is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip from the attribute through the end of the annotated item:
        // either the matching `}` of its first brace block, or a `;`.
        let start = i;
        let mut j = i + 7;
        let mut depth = 0usize;
        let mut entered = false;
        while j < tokens.len() {
            match &tokens[j].kind {
                TokenKind::Punct('{') => {
                    depth += 1;
                    entered = true;
                }
                TokenKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if entered && depth == 0 {
                        break;
                    }
                }
                TokenKind::Punct(';') if !entered => break,
                _ => {}
            }
            j += 1;
        }
        for slot in skip.iter_mut().take((j + 1).min(tokens.len())).skip(start) {
            *slot = true;
        }
        i = j + 1;
    }
    skip
}

/// Names declared (as fields, params, or `let` bindings) with a
/// `HashMap`/`HashSet` type in this file.
fn hash_collection_names(tokens: &[Token], skip: &[bool]) -> Vec<String> {
    let mut names = Vec::new();
    let mut push = |n: &str| {
        if !names.iter().any(|x| x == n) {
            names.push(n.to_string());
        }
    };
    for i in 0..tokens.len() {
        if skip[i] {
            continue;
        }
        let Some(name) = tokens[i].kind.ident() else {
            continue;
        };
        // `let [mut] name = HashMap::new()` / `= std::collections::HashSet::..`.
        if name == "let" {
            let mut j = i + 1;
            if tokens.get(j).and_then(|t| t.kind.ident()) == Some("mut") {
                j += 1;
            }
            let Some(bound) = tokens.get(j).and_then(|t| t.kind.ident()) else {
                continue;
            };
            if !tokens.get(j + 1).is_some_and(|t| t.kind.is_punct('=')) {
                continue;
            }
            let mut k = j + 2;
            // Skip a leading `std :: collections ::` path prefix.
            while matches!(
                tokens.get(k).and_then(|t| t.kind.ident()),
                Some("std") | Some("collections")
            ) && tokens.get(k + 1).is_some_and(|t| t.kind.is_punct(':'))
            {
                k += 3; // ident : :
            }
            if matches!(
                tokens.get(k).and_then(|t| t.kind.ident()),
                Some("HashMap") | Some("HashSet")
            ) {
                push(bound);
            }
            continue;
        }
        if matches!(
            name,
            "mut" | "pub" | "fn" | "if" | "else" | "match" | "return" | "self"
        ) {
            continue;
        }
        // `name : <type containing HashMap/HashSet>` — field, param, or
        // typed binding. Require a single `:` (not `::`).
        let colon = i + 1 < tokens.len()
            && tokens[i + 1].kind.is_punct(':')
            && tokens.get(i + 2).is_none_or(|t| !t.kind.is_punct(':'))
            && (i == 0 || !tokens[i - 1].kind.is_punct(':'));
        if colon && type_mentions_hash(&tokens[i + 2..]) {
            push(name);
        }
    }
    names
}

/// Does a type expression starting at `rest` mention HashMap/HashSet before
/// its terminator (`,`/`;`/`=`/`)`/`{`/`}` at angle depth 0)?
fn type_mentions_hash(rest: &[Token]) -> bool {
    let mut angle = 0i32;
    for t in rest.iter().take(48) {
        match &t.kind {
            TokenKind::Ident(s) if s == "HashMap" || s == "HashSet" => return true,
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle = (angle - 1).max(0),
            TokenKind::Punct(',' | ';' | '=' | ')' | '{' | '}') if angle == 0 => return false,
            _ => {}
        }
    }
    false
}

const ITER_METHODS: [&str; 11] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
    "extract_if",
];

/// Chain adapters that preserve the order question (the terminal decides).
const PASSTHROUGH: [&str; 7] = [
    "copied",
    "cloned",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
];

/// Order-insensitive terminal reductions (commutative folds). `min_by_key`
/// and friends are deliberately absent: ties break by position.
const REDUCERS: [&str; 7] = ["min", "max", "sum", "product", "count", "any", "all"];

/// Order-insensitive `collect` destinations: the result re-sorts (B-trees)
/// or orders only by key (heap), so hash order never escapes.
const SORTED_COLLECTS: [&str; 3] = ["BTreeMap", "BTreeSet", "BinaryHeap"];

fn check_det_collections(
    tokens: &[Token],
    skip: &[bool],
    hash_names: &[String],
    out: &mut Vec<(Lint, u32, String)>,
) {
    let is_hash = |i: usize| {
        tokens
            .get(i)
            .and_then(|t| t.kind.ident())
            .is_some_and(|n| hash_names.iter().any(|h| h == n))
    };
    for i in 0..tokens.len() {
        if skip[i] {
            continue;
        }
        // `recv.method(..)` where recv is a known hash collection.
        if is_hash(i)
            && tokens.get(i + 1).is_some_and(|t| t.kind.is_punct('.'))
            && tokens.get(i + 3).is_some_and(|t| t.kind.is_punct('('))
        {
            let Some(method) = tokens.get(i + 2).and_then(|t| t.kind.ident()) else {
                continue;
            };
            if !ITER_METHODS.contains(&method) {
                continue;
            }
            let name = tokens[i].kind.ident().unwrap_or_default();
            let line = tokens[i + 2].line;
            if matches!(method, "drain" | "retain" | "extract_if") {
                out.push((
                    Lint::DetCollections,
                    line,
                    format!(
                        "`{name}.{method}(..)` visits a HashMap/HashSet in hash order; \
                         migrate `{name}` to a BTree collection or restructure"
                    ),
                ));
                continue;
            }
            if !chain_is_order_insensitive(tokens, i + 3) {
                out.push((
                    Lint::DetCollections,
                    line,
                    format!(
                        "iteration over HashMap/HashSet `{name}` (via `.{method}()`) is \
                         hash-ordered; use a BTree collection, a sorted collect, or an \
                         order-insensitive reduction"
                    ),
                ));
            }
            continue;
        }
        // `for pat in [&[mut]] [self.]name {` — bare loop over the map.
        if tokens[i].kind.ident() == Some("for") {
            let Some(in_idx) =
                (i + 1..(i + 24).min(tokens.len())).find(|&j| tokens[j].kind.ident() == Some("in"))
            else {
                continue;
            };
            let Some(brace) = (in_idx + 1..(in_idx + 12).min(tokens.len()))
                .find(|&j| tokens[j].kind.is_punct('{'))
            else {
                continue;
            };
            let expr = &tokens[in_idx + 1..brace];
            // Only a bare `name` / `&name` / `&mut name` / `self.name` — any
            // method call in the expression is handled by the receiver rule.
            let non_trivial = expr.iter().any(|t| match &t.kind {
                TokenKind::Punct('&' | '.') => false,
                TokenKind::Punct(_) => true,
                TokenKind::Ident(s) => {
                    s != "self" && s != "mut" && !hash_names.iter().any(|h| h == s)
                }
                _ => true,
            });
            let names_hash = expr.iter().any(|t| {
                t.kind
                    .ident()
                    .is_some_and(|n| hash_names.iter().any(|h| h == n))
            });
            if names_hash && !non_trivial {
                let name = expr
                    .iter()
                    .filter_map(|t| t.kind.ident())
                    .next_back()
                    .unwrap_or_default();
                out.push((
                    Lint::DetCollections,
                    tokens[i].line,
                    format!(
                        "`for .. in {name}` iterates a HashMap/HashSet in hash order; \
                         use a BTree collection or iterate a sorted copy"
                    ),
                ));
            }
        }
    }
}

/// Walk the method chain after an iteration call (starting at its opening
/// paren) and decide whether it ends in an order-insensitive reduction.
fn chain_is_order_insensitive(tokens: &[Token], mut open: usize) -> bool {
    loop {
        let Some(close) = skip_balanced(tokens, open) else {
            return false;
        };
        let Some(dot) = tokens.get(close + 1) else {
            return false; // chain ends right after the call: raw iterator
        };
        if !dot.kind.is_punct('.') {
            return false;
        }
        let Some(method) = tokens.get(close + 2).and_then(|t| t.kind.ident()) else {
            return false;
        };
        if REDUCERS.contains(&method) {
            return true;
        }
        if method == "collect" {
            // `.collect::<BTreeMap<..>>()` / turbofish-free collect into an
            // inferred B-tree we cannot see — only the explicit form passes.
            let mut j = close + 3;
            if tokens.get(j).is_some_and(|t| t.kind.is_punct(':'))
                && tokens.get(j + 1).is_some_and(|t| t.kind.is_punct(':'))
            {
                j += 2;
                if tokens.get(j).is_some_and(|t| t.kind.is_punct('<')) {
                    return tokens
                        .get(j + 1)
                        .and_then(|t| t.kind.ident())
                        .is_some_and(|t| SORTED_COLLECTS.contains(&t));
                }
            }
            return false;
        }
        if !PASSTHROUGH.contains(&method) {
            return false;
        }
        // Advance past this adapter's argument list.
        let Some(next_open) = tokens.get(close + 3) else {
            return false;
        };
        if !next_open.kind.is_punct('(') {
            return false;
        }
        open = close + 3;
    }
}

/// Given the index of an opening `(`/`[`/`{`, return the index of its
/// matching closer (tracking all three bracket kinds together).
fn skip_balanced(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

fn check_ambient(
    tokens: &[Token],
    skip: &[bool],
    opts: FileOptions,
    out: &mut Vec<(Lint, u32, String)>,
) {
    let path_next = |i: usize, want: &str| {
        tokens.get(i + 1).is_some_and(|t| t.kind.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.kind.is_punct(':'))
            && tokens.get(i + 3).and_then(|t| t.kind.ident()) == Some(want)
    };
    const ENV_READS: [&str; 8] = [
        "var",
        "var_os",
        "vars",
        "vars_os",
        "args",
        "args_os",
        "current_dir",
        "temp_dir",
    ];
    for i in 0..tokens.len() {
        if skip[i] {
            continue;
        }
        let Some(name) = tokens[i].kind.ident() else {
            continue;
        };
        let line = tokens[i].line;
        match name {
            "Instant" | "SystemTime" => {
                // The type alone is flagged: storing a wall-clock stamp is
                // already ambient state, whoever read it.
                out.push((
                    Lint::AmbientTime,
                    line,
                    format!("`{name}` is wall-clock time; simulation code must use SimTime"),
                ));
            }
            "thread" if path_next(i, "sleep") => {
                out.push((
                    Lint::AmbientTime,
                    line,
                    "`thread::sleep` blocks on the host clock; schedule a SimTime event instead"
                        .into(),
                ));
            }
            "thread_rng" | "RandomState" | "OsRng" | "from_entropy" | "getrandom" => {
                out.push((
                    Lint::AmbientRng,
                    line,
                    format!("`{name}` draws process entropy; use the scenario-seeded SimRng"),
                ));
            }
            "rand" if path_next(i, "random") => {
                out.push((
                    Lint::AmbientRng,
                    line,
                    "`rand::random` draws process entropy; use the scenario-seeded SimRng".into(),
                ));
            }
            "env"
                if !opts.allow_env
                    && tokens.get(i + 1).is_some_and(|t| t.kind.is_punct(':'))
                    && tokens.get(i + 2).is_some_and(|t| t.kind.is_punct(':')) =>
            {
                if let Some(read) = tokens.get(i + 3).and_then(|t| t.kind.ident()) {
                    if ENV_READS.contains(&read) {
                        out.push((
                            Lint::AmbientEnv,
                            line,
                            format!(
                                "`env::{read}` read outside bin/config code; fold the \
                                 value into the scenario at the CLI boundary"
                            ),
                        ));
                    }
                }
            }
            _ => {}
        }
    }
}

/// `std::sync` coordination types whose mere presence is a finding. `Arc`
/// is absent on purpose: immutable sharing has no schedule-visible order.
/// `Sender`/`Receiver` are also absent (too generic a name); the `mpsc`
/// path segment they are imported through is flagged instead.
const SYNC_PRIMITIVES: [&str; 6] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "JoinHandle",
    "mpsc",
];

fn check_threading(
    tokens: &[Token],
    skip: &[bool],
    opts: FileOptions,
    out: &mut Vec<(Lint, u32, String)>,
) {
    if opts.allow_threading {
        return;
    }
    let path_next = |i: usize, want: &str| {
        tokens.get(i + 1).is_some_and(|t| t.kind.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.kind.is_punct(':'))
            && tokens.get(i + 3).and_then(|t| t.kind.ident()) == Some(want)
    };
    for i in 0..tokens.len() {
        if skip[i] {
            continue;
        }
        let Some(name) = tokens[i].kind.ident() else {
            continue;
        };
        let line = tokens[i].line;
        if name == "thread" {
            for spawn in ["spawn", "scope", "Builder"] {
                if path_next(i, spawn) {
                    out.push((
                        Lint::Threading,
                        line,
                        format!(
                            "`thread::{spawn}` outside the shard-runner module; within-run \
                             workers belong to simcore::shard_runner's window protocol"
                        ),
                    ));
                }
            }
        } else if SYNC_PRIMITIVES.contains(&name) || name.starts_with("Atomic") {
            out.push((
                Lint::Threading,
                line,
                format!(
                    "`{name}` is a cross-thread coordination primitive; outside \
                     simcore::shard_runner it invites schedule-dependent results"
                ),
            ));
        }
    }
}

fn check_float_order(tokens: &[Token], skip: &[bool], out: &mut Vec<(Lint, u32, String)>) {
    for i in 0..tokens.len() {
        if skip[i] {
            continue;
        }
        if tokens[i].kind.ident() != Some("partial_cmp") {
            continue;
        }
        // Only calls (`.partial_cmp(..)`) — a `fn partial_cmp` definition in
        // a PartialOrd impl is fine.
        if i == 0 || !tokens[i - 1].kind.is_punct('.') {
            continue;
        }
        let Some(open) = tokens.get(i + 1) else {
            continue;
        };
        if !open.kind.is_punct('(') {
            continue;
        }
        let Some(close) = skip_balanced(tokens, i + 1) else {
            continue;
        };
        if tokens.get(close + 1).is_some_and(|t| t.kind.is_punct('.')) {
            if let Some(next) = tokens.get(close + 2).and_then(|t| t.kind.ident()) {
                if next == "unwrap" || next == "expect" {
                    out.push((
                        Lint::FloatOrder,
                        tokens[i].line,
                        format!(
                            "`.partial_cmp(..).{next}(..)` — order floats with \
                             `total_cmp` (total, NaN-safe) instead"
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Vec<Violation> {
        check_source(Path::new("test.rs"), src, FileOptions::default())
    }

    fn lints(src: &str) -> Vec<Lint> {
        check(src).into_iter().map(|v| v.lint).collect()
    }

    #[test]
    fn hashmap_iteration_flagged() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   impl S { fn f(&self) -> Vec<u32> { self.m.values().copied().collect() } }\n";
        assert_eq!(lints(src), vec![Lint::DetCollections]);
        assert_eq!(check(src)[0].line, 2);
    }

    #[test]
    fn order_insensitive_reductions_pass() {
        for chain in [
            "self.m.values().min()",
            "self.m.values().copied().max()",
            "self.m.iter().any(|(_, v)| *v > 3)",
            "self.m.keys().count()",
            "self.m.iter().map(|(k, v)| (*k, *v)).collect::<BTreeMap<u32, u32>>()",
            "self.m.get(&1)",
            "self.m.len()",
        ] {
            let src = format!(
                "struct S {{ m: HashMap<u32, u32> }}\n\
                 impl S {{ fn f(&self) {{ let _ = {chain}; }} }}\n"
            );
            assert_eq!(lints(&src), vec![], "{chain}");
        }
    }

    #[test]
    fn drain_retain_and_for_loops_flagged() {
        for stmt in [
            "self.m.retain(|_, v| *v > 0)",
            "self.m.drain()",
            "for (_k, _v) in &self.m {}",
        ] {
            let src = format!(
                "struct S {{ m: HashMap<u32, u32> }}\n\
                 impl S {{ fn f(&mut self) {{ {stmt}; }} }}\n"
            );
            assert_eq!(lints(&src), vec![Lint::DetCollections], "{stmt}");
        }
    }

    #[test]
    fn let_binding_tracked() {
        let src = "fn f() { let mut seen = HashSet::new(); for x in &seen {} }\n";
        assert_eq!(lints(src), vec![Lint::DetCollections]);
    }

    #[test]
    fn btreemap_not_flagged() {
        let src = "struct S { m: BTreeMap<u32, u32> }\n\
                   impl S { fn f(&self) { for (_k, _v) in &self.m {} } }\n";
        assert_eq!(lints(src), vec![]);
    }

    #[test]
    fn ambient_lints_fire() {
        assert_eq!(
            lints("fn f() { let t = Instant::now(); }"),
            vec![Lint::AmbientTime]
        );
        assert_eq!(
            lints("fn f() { let r = thread_rng(); }"),
            vec![Lint::AmbientRng]
        );
        assert_eq!(
            lints("fn f() { let v = std::env::var(\"X\"); }"),
            vec![Lint::AmbientEnv]
        );
        assert_eq!(
            lints("fn f(xs: &mut Vec<f64>) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }"),
            vec![Lint::FloatOrder]
        );
    }

    #[test]
    fn threading_primitives_flagged() {
        for stmt in [
            "let h = thread::spawn(|| 1)",
            "let m = Mutex::new(0)",
            "let l = RwLock::new(0)",
            "let c = Condvar::new()",
            "let b = Barrier::new(2)",
            "let (tx, rx) = std::sync::mpsc::channel::<u64>()",
            "let n = AtomicUsize::new(0)",
        ] {
            let src = format!("fn f() {{ {stmt}; }}\n");
            assert_eq!(lints(&src), vec![Lint::Threading], "{stmt}");
        }
    }

    #[test]
    fn arc_is_not_a_threading_finding() {
        assert_eq!(
            lints("fn f() { let a = Arc::new(1); let b = Arc::clone(&a); }"),
            vec![]
        );
        // `thread::current` is an identity read, not a spawn.
        assert_eq!(lints("fn f() { let _ = thread::current(); }"), vec![]);
    }

    #[test]
    fn threading_allowed_in_shard_runner_module() {
        let path = Path::new("crates/simcore/src/shard_runner.rs");
        let src = "use std::sync::mpsc::channel;\n\
                   fn f() { let h = thread::spawn(|| 1); h.join().unwrap(); }\n";
        assert_eq!(check_source(path, src, FileOptions::for_path(path)), vec![]);
        // The same source anywhere else is a finding per primitive.
        let got = lints(src);
        assert_eq!(got, vec![Lint::Threading, Lint::Threading], "{got:?}");
    }

    #[test]
    fn env_allowed_in_bin_code() {
        let v = check_source(
            Path::new("src/bin/tool.rs"),
            "fn main() { let _ = std::env::args(); }",
            FileOptions::for_path(Path::new("src/bin/tool.rs")),
        );
        assert_eq!(v, vec![]);
    }

    #[test]
    fn cfg_test_regions_exempt() {
        let src = "fn real() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn f() { let t = Instant::now(); let r = thread_rng(); }\n\
                   }\n";
        assert_eq!(lints(src), vec![]);
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   impl S {\n\
                       // edgelint: allow(det-collections) — diagnostics only, never traced\n\
                       fn f(&self) -> Vec<u32> { self.m.values().copied().collect() }\n\
                   }\n";
        assert_eq!(lints(src), vec![]);
    }

    #[test]
    fn allow_without_reason_is_malformed_and_does_not_suppress() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   impl S {\n\
                       // edgelint: allow(det-collections)\n\
                       fn f(&self) -> Vec<u32> { self.m.values().copied().collect() }\n\
                   }\n";
        let got = lints(src);
        assert!(got.contains(&Lint::MalformedAllow), "{got:?}");
        assert!(got.contains(&Lint::DetCollections), "{got:?}");
    }

    #[test]
    fn allow_unknown_lint_is_malformed() {
        let src = "// edgelint: allow(det-colections) — typo\nfn f() {}\n";
        assert_eq!(lints(src), vec![Lint::MalformedAllow]);
    }

    #[test]
    fn partial_cmp_impl_not_flagged() {
        let src = "impl PartialOrd for S {\n\
                   fn partial_cmp(&self, other: &Self) -> Option<Ordering> { None }\n\
                   }\n";
        assert_eq!(lints(src), vec![]);
    }
}
