//! The committed `BENCH_*.json` artifacts read back through the harness and
//! pass their own gates — the same gates the bins run after writing them.

use std::collections::BTreeSet;

use bench::artifact::{cityscale, mesh, sched, workload, Doc, Failure, Layout};

fn text(layout: &Layout) -> String {
    let path = format!(
        "{}/../../BENCH_{}.json",
        env!("CARGO_MANIFEST_DIR"),
        layout.bench
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Reads an artifact's text and runs its gates (the mesh ones as the
/// default sweep: shards 1, 2, 4 and 8 on one thread).
fn check(layout: &'static Layout, text: &str) -> Result<Doc, String> {
    let doc = layout.parse(text)?;
    let failures: Vec<Failure> = match layout.bench {
        "cityscale" => cityscale::gates(&doc),
        "mesh" => mesh::gates(&doc, &[1, 2, 4, 8], 1),
        "workload" => workload::gates(&doc),
        _ => sched::gates(&doc),
    };
    match failures.is_empty() {
        true => Ok(doc),
        false => Err(format!("{failures:?}")),
    }
}

#[test]
fn committed_artifacts_pass_their_gates() {
    for layout in [
        &cityscale::LAYOUT,
        &mesh::LAYOUT,
        &workload::LAYOUT,
        &sched::LAYOUT,
    ] {
        check(layout, &text(layout)).unwrap_or_else(|e| panic!("BENCH_{}: {e}", layout.bench));
    }
}

#[test]
fn committed_cityscale_has_all_four_tiers() {
    let doc = check(&cityscale::LAYOUT, &text(&cityscale::LAYOUT)).unwrap();
    let tiers: BTreeSet<u64> = doc.rows("scales").iter().map(|r| r.int("scale")).collect();
    assert_eq!(tiers, BTreeSet::from([1, 10, 100, 1000]));
}

/// One value changed in a copy of each committed artifact fails it: a gated
/// value fails its gate, a value in another layout fails the reader.
#[test]
fn a_copy_with_one_value_mutated_fails() {
    // The wall clock changes whenever the artifact is regenerated: take the
    // committed 1x row's and write it with one decimal fewer.
    let cityscale_text = text(&cityscale::LAYOUT);
    let wall_at = cityscale_text
        .find("\"wall_s\": ")
        .expect("a wall_s column");
    let wall_end = wall_at + cityscale_text[wall_at..].find(',').expect("more columns");
    let wall = &cityscale_text[wall_at..=wall_end];
    let short_wall = format!("{},", &wall[..wall.len() - 2]);
    let mutations: [(&'static Layout, &str, &str); 6] = [
        (&cityscale::LAYOUT, "\"lost\": 0,", "\"lost\": 2,"),
        (&mesh::LAYOUT, "\"removes\": 46,", "\"removes\": 0,"),
        (
            &workload::LAYOUT,
            "\"continuity_violations\": 0,",
            "\"continuity_violations\": 3,",
        ),
        (
            &sched::LAYOUT,
            "\"baseline_hash\": \"0x66cc",
            "\"baseline_hash\": \"0x66cd",
        ),
        (&cityscale::LAYOUT, wall, &short_wall),
        (&sched::LAYOUT, "\"seed\": 42,", "\"seed\": 42.0,"),
    ];
    for (layout, from, to) in mutations {
        let original = text(layout);
        assert!(
            original.contains(from),
            "BENCH_{} has no `{from}`",
            layout.bench
        );
        let copy = original.replacen(from, to, 1);
        assert!(
            check(layout, &copy).is_err(),
            "BENCH_{} with `{to}` passes",
            layout.bench
        );
    }
}
