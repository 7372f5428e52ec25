//! The artifact reader returns exactly what the writer wrote: every column
//! kind, every float precision the artifacts use (0, 1, 3 and 6 decimals),
//! and zero to several rows per section — on a layout holding one column of
//! each kind and on the four artifacts' own layouts.

use bench::artifact::{cityscale, mesh, sched, workload, Col, Doc, Kind, Layout, Value};
use proptest::prelude::*;

const EVERY_KIND: &[Col] = &[
    Col {
        name: "count",
        kind: Kind::Int,
    },
    Col {
        name: "whole",
        kind: Kind::Float(0),
    },
    Col {
        name: "tenths",
        kind: Kind::Float(1),
    },
    Col {
        name: "millis",
        kind: Kind::Float(3),
    },
    Col {
        name: "micros",
        kind: Kind::Float(6),
    },
    Col {
        name: "name",
        kind: Kind::Str,
    },
    Col {
        name: "digest",
        kind: Kind::Hash,
    },
];

static KINDS: Layout = Layout {
    bench: "kinds",
    header: &[
        Col {
            name: "bench",
            kind: Kind::Str,
        },
        Col {
            name: "seed",
            kind: Kind::Int,
        },
        Col {
            name: "slo_ms",
            kind: Kind::Float(0),
        },
        Col {
            name: "label",
            kind: Kind::Str,
        },
        Col {
            name: "baseline_hash",
            kind: Kind::Hash,
        },
    ],
    sections: &[
        ("first", EVERY_KIND),
        ("second", EVERY_KIND),
        ("third", EVERY_KIND),
    ],
};

/// Strings with the characters the layout itself uses (`,`, `:`, braces,
/// brackets, spaces), but none that would need escaping.
const TEXT: &str = "[a-z0-9 ,:{}\\[\\]#.-]{0,12}";

/// A value of `kind` drawn from `n` and `text`; a float is a whole number
/// of its column's last decimal, so writing it loses nothing.
fn value(kind: Kind, n: u64, text: &str) -> Value {
    match kind {
        Kind::Int | Kind::Hash => Value::Int(n),
        Kind::Float(p) => Value::Float((n % 1_000_000_000_000) as f64 / 10f64.powi(p as i32)),
        Kind::Str => Value::Str(text.to_string()),
    }
}

type Cells = Vec<(u64, String)>;

/// Fills a document of `layout` from generated cells: the header after
/// `bench` and `seed` from `header`, section `i` from `sections[i]`.
fn doc(layout: &'static Layout, header: &Cells, sections: &[Vec<Cells>]) -> Doc {
    let mut doc = Doc::new(layout);
    for (c, (n, text)) in layout.header.iter().zip(header).skip(2) {
        doc.header.set(c.name, value(c.kind, *n, text));
    }
    for ((name, cols), rows) in layout.sections.iter().zip(sections) {
        for cells in rows {
            let mut row = layout.row(name);
            for (c, (n, text)) in cols.iter().zip(cells) {
                row.set(c.name, value(c.kind, *n, text));
            }
            doc.rows_mut(name).push(row);
        }
    }
    doc
}

fn cells() -> impl Strategy<Value = Cells> {
    prop::collection::vec((any::<u64>(), TEXT), 20)
}

fn rows() -> impl Strategy<Value = Vec<Cells>> {
    prop::collection::vec(cells(), 0..4)
}

fn round_trip(doc: &Doc) {
    let text = doc.render().expect("a complete document renders");
    let read = doc
        .layout
        .parse(&text)
        .expect("the reader reads what the writer wrote");
    assert_eq!(&read, doc);
    assert_eq!(read.render().unwrap(), text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn every_kind_and_precision_round_trips(header in cells(), a in rows(), b in rows(), c in rows()) {
        round_trip(&doc(&KINDS, &header, &[a, b, c]));
    }

    #[test]
    fn the_artifact_layouts_round_trip(header in cells(), a in rows(), b in rows(), c in rows()) {
        let sections = [a, b, c];
        for layout in [&cityscale::LAYOUT, &mesh::LAYOUT, &workload::LAYOUT, &sched::LAYOUT] {
            round_trip(&doc(layout, &header, &sections));
        }
    }
}

#[test]
fn an_empty_section_keeps_its_brackets() {
    let header = vec![(7, "label".to_string()); 5];
    let doc = doc(&KINDS, &header, &[]);
    let text = doc.render().unwrap();
    assert!(text.contains("  \"second\": [\n  ],\n"), "{text}");
    round_trip(&doc);
}

#[test]
#[should_panic(expected = "cannot hold")]
fn the_writer_rejects_a_string_that_would_need_escaping() {
    KINDS.row("first").set("name", "say \"hi\"");
}

#[test]
#[should_panic(expected = "cannot hold")]
fn the_writer_rejects_a_float_it_cannot_write() {
    KINDS.row("first").set("millis", f64::NAN);
}
