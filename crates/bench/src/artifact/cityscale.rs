//! `BENCH_cityscale.json`: the seed-42 bigFlows replay at 1×–1000×, one
//! `scales` row per tier.

use simcore::alloc_count;
use testbed::RunResult;
use workload::Trace;

use super::{Doc, Failure, Gates, Layout, Row, SEED_42_HASH};

pub static LAYOUT: Layout = Layout {
    bench: "cityscale",
    header: cols![bench: Str, seed: Int],
    sections: &[(
        "scales",
        cols![
            scale: Int, requests: Int, services: Int, clients: Int, events_scheduled: Int,
            peak_queue_depth: Int, wall_s: Float(6), events_per_sec: Float(1),
            allocs_per_request: Float(1), peak_live_mib: Float(1), completed: Int, lost: Int,
            removes: Int, metrics_hash: Hash,
        ],
    )],
};

/// Allocations per request every tier stays under; `testbed`'s
/// `alloc_regression.rs` pins the same budget.
pub const ALLOC_BUDGET: f64 = 8.0;

/// One tier's row. `allocs` counts the replay's allocations; the live-heap
/// peak is the process's high-water mark, read after the hash.
pub fn tier_row(scale: usize, trace: &Trace, r: &RunResult, wall_s: f64, allocs: u64) -> Row {
    let requests = trace.requests.len();
    let metrics_hash = r.metrics_hash();
    row![LAYOUT.row("scales");
        scale: scale, requests: requests, services: trace.config.services,
        clients: trace.config.clients, events_scheduled: r.events_scheduled,
        peak_queue_depth: r.peak_queue_depth, wall_s: wall_s,
        events_per_sec: r.events_scheduled as f64 / wall_s.max(1e-9),
        allocs_per_request: allocs as f64 / requests as f64,
        peak_live_mib: alloc_count::peak_bytes() as f64 / (1u64 << 20) as f64,
        completed: r.records.len(), lost: r.lost, removes: r.removes, metrics_hash: metrics_hash,
    ]
}

pub fn gates(doc: &Doc) -> Vec<Failure> {
    let mut g = Gates::new(doc);
    let rows = doc.rows("scales");
    g.check("tiers", !rows.is_empty(), "no tier recorded");
    for r in rows {
        g.check("lost", r.int("lost") == 0, r);
        g.check("live_heap", r.float("peak_live_mib") > 0.0, r);
        let within = r.float("allocs_per_request") < ALLOC_BUDGET;
        g.check("alloc_budget", within, r);
        let pinned = r.int("metrics_hash") == SEED_42_HASH;
        g.check("pin", r.int("scale") != 1 || pinned, r);
    }
    g.finish()
}
