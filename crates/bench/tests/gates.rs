//! Every gate of every artifact is live: one mutated row (or header value)
//! of a committed artifact trips exactly that gate and no other. These are
//! the mutation checks for the artifacts' gates.

use std::collections::BTreeSet;

use bench::artifact::{cityscale, mesh, sched, workload, Doc, Failure, Layout, Row};

fn committed(layout: &'static Layout) -> Doc {
    let path = format!(
        "{}/../../BENCH_{}.json",
        env!("CARGO_MANIFEST_DIR"),
        layout.bench
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    layout.parse(&text).unwrap_or_else(|e| panic!("{e}"))
}

fn gates_of(doc: &Doc) -> Vec<Failure> {
    match doc.layout.bench {
        "cityscale" => cityscale::gates(doc),
        "mesh" => mesh::gates(doc, &[1, 2, 4, 8], 1),
        "workload" => workload::gates(doc),
        "sched" => sched::gates(doc),
        other => panic!("no gates for {other}"),
    }
}

/// The gates that fail once `mutate` has edited the committed artifact.
fn tripped(layout: &'static Layout, mutate: impl FnOnce(&mut Doc)) -> BTreeSet<&'static str> {
    let mut doc = committed(layout);
    assert!(
        gates_of(&doc).is_empty(),
        "committed {} fails",
        layout.bench
    );
    mutate(&mut doc);
    gates_of(&doc).into_iter().map(|(gate, _)| gate).collect()
}

fn only(gate: &'static str) -> BTreeSet<&'static str> {
    BTreeSet::from([gate])
}

/// The first row of `section` that `pick` selects.
fn row<'d>(doc: &'d mut Doc, section: &str, pick: impl Fn(&Row) -> bool) -> &'d mut Row {
    doc.rows_mut(section)
        .iter_mut()
        .find(|r| pick(r))
        .expect("a row to mutate")
}

fn flip_bit(row: &mut Row, col: &str) {
    let hash = row.int(col) ^ 1;
    row.set(col, hash);
}

#[test]
fn header_gate_checks_bench_name_and_seed() {
    for layout in [
        &cityscale::LAYOUT,
        &mesh::LAYOUT,
        &workload::LAYOUT,
        &sched::LAYOUT,
    ] {
        let seed = tripped(layout, |d| {
            d.header.set("seed", 43u64);
        });
        assert_eq!(seed, only("header"));
        let name = tripped(layout, |d| {
            d.header.set("bench", "other");
        });
        assert_eq!(name, only("header"));
    }
}

#[test]
fn cityscale_gates_trip_alone() {
    let l = &cityscale::LAYOUT;
    let tier = |s: u64| move |r: &Row| r.int("scale") == s;
    let lost = tripped(l, |d| {
        row(d, "scales", tier(100)).set("lost", 1u64);
    });
    assert_eq!(lost, only("lost"));
    let heap = tripped(l, |d| {
        row(d, "scales", tier(10)).set("peak_live_mib", 0.0);
    });
    assert_eq!(heap, only("live_heap"));
    let allocs = tripped(l, |d| {
        row(d, "scales", tier(1000)).set("allocs_per_request", cityscale::ALLOC_BUDGET);
    });
    assert_eq!(allocs, only("alloc_budget"));
    let pin = tripped(l, |d| flip_bit(row(d, "scales", tier(1)), "metrics_hash"));
    assert_eq!(pin, only("pin"));
    let empty = tripped(l, |d| d.rows_mut("scales").clear());
    assert_eq!(empty, only("tiers"));
}

#[test]
fn mesh_gates_trip_alone() {
    let l = &mesh::LAYOUT;
    let shards = |s: u64| move |r: &Row| r.int("shards") == s;
    let dup = tripped(l, |d| {
        row(d, "shards", shards(4)).set("duplicate_deployments", 1u64);
    });
    assert_eq!(dup, only("no_duplicates"));
    let accounting = tripped(l, |d| {
        let r = row(d, "churn", shards(2));
        let completed = r.int("completed") - 1;
        r.set("completed", completed);
    });
    assert_eq!(accounting, only("accounting"));
    let pin = tripped(l, |d| flip_bit(row(d, "shards", shards(1)), "mesh_hash"));
    assert_eq!(pin, only("pin"));
    let removes = tripped(l, |d| {
        row(d, "churn", shards(8)).set("removes", 0u64);
    });
    assert_eq!(removes, only("churn_live"));
    let coverage = tripped(l, |d| d.rows_mut("shards").retain(|r| r.int("shards") != 4));
    assert_eq!(coverage, only("coverage"));
    let sweep = tripped(l, |d| {
        flip_bit(row(d, "threads_sweep", shards(4)), "mesh_hash")
    });
    assert_eq!(sweep, only("thread_invariance"));
    let cpus = tripped(l, |d| {
        d.header.set("host_cpus", 0u64);
    });
    assert_eq!(cpus, only("host_cpus"));
}

#[test]
fn mesh_coverage_checks_the_requested_thread_count() {
    // The committed sweep ran on one thread: read as a `--threads 8` run,
    // its 8-shard rows did not run on eight.
    let doc = committed(&mesh::LAYOUT);
    let failures = mesh::gates(&doc, &[1, 2, 4, 8], 8);
    let gates: BTreeSet<_> = failures.iter().map(|(gate, _)| *gate).collect();
    assert_eq!(gates, only("coverage"));
    assert!(failures
        .iter()
        .any(|(_, d)| d.contains("8-shard row on 8 thread")));
}

#[test]
fn workload_gates_trip_alone() {
    let l = &workload::LAYOUT;
    let run = |m: &'static str, s: u64| move |r: &Row| r.str("model") == m && r.int("shards") == s;
    let dup = tripped(l, |d| {
        row(d, "models", run("poisson", 2)).set("duplicate_deployments", 1u64);
    });
    assert_eq!(dup, only("no_duplicates"));
    let accounting = tripped(l, |d| {
        row(d, "mobility", run("diurnal", 2)).set("lost", 1u64);
    });
    assert_eq!(accounting, only("accounting"));
    let continuity = tripped(l, |d| {
        row(d, "mobility", run("bigflows", 2)).set("continuity_violations", 1u64);
    });
    assert_eq!(continuity, only("continuity"));
    let models = tripped(l, |d| {
        d.rows_mut("models").retain(|r| r.str("model") != "mmpp")
    });
    assert_eq!(models, only("models"));
    let pin = tripped(l, |d| {
        flip_bit(row(d, "models", run("bigflows", 1)), "hash")
    });
    assert_eq!(pin, only("pin"));
    let contention = tripped(l, |d| {
        row(d, "models", run("flash-crowd", 4)).set("duplicate_deployments_avoided", 0u64);
    });
    assert_eq!(contention, only("contention"));
    let handovers = tripped(l, |d| {
        row(d, "mobility", run("diurnal", 2)).set("handovers", 0u64);
    });
    assert_eq!(handovers, only("handovers"));
    // Two mobility hashes of one model that differ.
    let hashes = tripped(l, |d| {
        let second = |r: &Row| r.str("model") == "diurnal" && r.int("threads") == 2;
        flip_bit(row(d, "mobility", second), "hash");
    });
    assert_eq!(hashes, only("thread_invariance"));
}

#[test]
fn sched_gates_trip_alone() {
    let l = &sched::LAYOUT;
    let policy = |p: &'static str| move |r: &Row| r.str("policy") == p;
    let capacity = tripped(l, |d| {
        row(d, "rows", policy("tier-spill")).set("capacity_violations", 1u64);
    });
    assert_eq!(capacity, only("capacity"));
    let accounting = tripped(l, |d| {
        row(d, "rows", policy("least-loaded")).set("requests", 1709u64);
    });
    assert_eq!(accounting, only("accounting"));
    let policies = tripped(l, |d| {
        d.rows_mut("rows")
            .retain(|r| r.str("policy") != "tier-spill")
    });
    assert_eq!(policies, only("policies"));
    let pin = tripped(l, |d| flip_bit(&mut d.header, "baseline_hash"));
    assert_eq!(pin, only("pin"));
}

#[test]
fn a_row_missing_a_column_is_neither_written_nor_read() {
    // The writer: a row built with only two of its columns.
    let mut doc = committed(&cityscale::LAYOUT);
    let mut partial = cityscale::LAYOUT.row("scales");
    partial.set("scale", 1u64).set("requests", 1708u64);
    doc.rows_mut("scales").push(partial);
    let err = doc.render().unwrap_err();
    assert!(err.contains("missing column `services`"), "{err}");
    // The reader: the committed text with one row's `lost` cut out.
    let path = format!("{}/../../BENCH_cityscale.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).unwrap();
    let err = cityscale::LAYOUT
        .parse(&text.replacen("\"lost\": 0, ", "", 1))
        .unwrap_err();
    assert!(err.contains("expected `lost`"), "{err}");
}

#[test]
#[should_panic(expected = "undeclared column `bogus`")]
fn a_row_adding_a_column_is_an_error() {
    cityscale::LAYOUT.row("scales").set("bogus", 1u64);
}
