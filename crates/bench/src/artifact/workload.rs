//! `BENCH_workload.json`: every builtin arrival model through the mesh
//! (`models` rows) plus audited mobility runs (`mobility` rows), one column
//! list for both.

use std::collections::BTreeSet;

use edgemesh::MeshRunResult;
use workload::WorkloadRegistry;

use super::{accounted, Col, Doc, Failure, Gates, Layout, Row, SEED_42_HASH};

pub static LAYOUT: Layout = Layout {
    bench: "workload",
    header: cols![bench: Str, seed: Int, mobility_handovers_per_client: Float(1)],
    sections: &[("models", ROW_COLS), ("mobility", ROW_COLS)],
};

const ROW_COLS: &[Col] = cols![
    model: Str, shards: Int, threads: Int, handovers_per_client: Float(1), requests: Int,
    completed: Int, lost: Int, handovers: Int, deployments: Int, duplicate_deployments: Int,
    duplicate_deployments_avoided: Int, continuity_violations: Int, wall_s: Float(6), hash: Hash,
];

/// One run's row, with no continuity violations: an audited run sets its
/// own count after.
pub fn row(model: &str, per_client: f64, requests: usize, r: &MeshRunResult, wall_s: f64) -> Row {
    row![LAYOUT.row("models");
        model: model, shards: r.shards, threads: r.threads, handovers_per_client: per_client,
        requests: requests, completed: r.completed, lost: r.lost, handovers: r.handovers,
        deployments: r.deployments, duplicate_deployments: r.duplicate_deployments,
        duplicate_deployments_avoided: r.duplicate_deployments_avoided,
        continuity_violations: 0u64, wall_s: wall_s, hash: r.mesh_hash(),
    ]
}

pub fn gates(doc: &Doc) -> Vec<Failure> {
    let mut g = Gates::new(doc);
    let (models, mobility) = (doc.rows("models"), doc.rows("mobility"));
    for r in models.iter().chain(mobility) {
        g.check("no_duplicates", r.int("duplicate_deployments") == 0, r);
        g.check("accounting", accounted(r), r);
        g.check("continuity", r.int("continuity_violations") == 0, r);
    }
    // Every builtin model ran, at every shard count the sweep ran.
    let counts: BTreeSet<u64> = models.iter().map(|r| r.int("shards")).collect();
    for name in WorkloadRegistry::builtin().names() {
        let of_model = models.iter().filter(|r| r.str("model") == name);
        let ran: BTreeSet<u64> = of_model.map(|r| r.int("shards")).collect();
        let missing = format!("`{name}` ran at {ran:?} of {counts:?} shards");
        g.check("models", !ran.is_empty() && ran == counts, missing);
    }
    for r in models {
        let (model, shards) = (r.str("model"), r.int("shards"));
        // The bigflows 1-shard row is the plain testbed replay of the
        // paper trace; a flash crowd across a sharded ingress must contend
        // on the lease.
        let pinned = r.int("hash") == SEED_42_HASH;
        g.check("pin", model != "bigflows" || shards != 1 || pinned, r);
        let contended = shards < 2 || r.int("duplicate_deployments_avoided") > 0;
        g.check("contention", model != "flash-crowd" || contended, r);
    }
    g.check("handovers", !mobility.is_empty(), "no mobility row");
    for r in mobility {
        g.check("handovers", r.int("handovers") > 0, r);
        // Each model's mobility rows (one per thread count) share one hash.
        let (model, hash) = (r.str("model"), r.int("hash"));
        let other = |o: &Row| o.str("model") == model && o.int("hash") != hash;
        g.check("thread_invariance", !mobility.iter().any(other), r);
    }
    g.finish()
}
