//! `BENCH_mesh.json`: the federation sweep. `shards` and `churn` rows share
//! one column list (the churn rows re-run the sharded mesh with idle
//! scale-down and Remove enabled); `threads_sweep` rows time the windowed
//! engine at a fixed shard count over worker-thread counts.

use edgemesh::MeshRunResult;

use super::{accounted, Col, Doc, Failure, Gates, Layout, Row, SEED_42_HASH};

pub static LAYOUT: Layout = Layout {
    bench: "mesh",
    header: cols![
        bench: Str, seed: Int, churn_idle_timeout_s: Int, churn_remove_after_s: Int,
        threads_sweep_scale: Int, threads_sweep_link_ms: Int, host_cpus: Int,
    ],
    sections: &[
        ("shards", SHARDS),
        ("churn", SHARDS),
        ("threads_sweep", SWEEP),
    ],
};

const SHARDS: &[Col] = cols![
    shards: Int, threads: Int, requests: Int, completed: Int, lost: Int, deployments: Int,
    duplicate_deployments: Int, duplicate_deployments_avoided: Int, deltas_sent: Int,
    deltas_lost: Int, mean_staleness_ms: Float(3), mean_convergence_ms: Float(3), retargets: Int,
    scale_downs: Int, removes: Int, wall_s: Float(6), mesh_hash: Hash,
];

const SWEEP: &[Col] = cols![
    shards: Int, threads: Int, events: Int, windows: Int, stalls_per_window: Float(3),
    wall_s: Float(6), speedup: Float(3), events_per_sec: Float(0), mesh_hash: Hash,
];

/// A `shards` or `churn` row.
pub fn shard_row(requests: usize, r: &MeshRunResult, wall_s: f64) -> Row {
    row![LAYOUT.row("shards");
        shards: r.shards, threads: r.threads, requests: requests, completed: r.completed,
        lost: r.lost, deployments: r.deployments, duplicate_deployments: r.duplicate_deployments,
        duplicate_deployments_avoided: r.duplicate_deployments_avoided,
        deltas_sent: r.deltas_sent, deltas_lost: r.deltas_lost,
        mean_staleness_ms: r.mean_staleness_ms(), mean_convergence_ms: r.mean_convergence_ms(),
        retargets: r.retargets, scale_downs: r.scale_downs, removes: r.removes, wall_s: wall_s,
        mesh_hash: r.mesh_hash(),
    ]
}

/// A `threads_sweep` row at `r.shards` shards; `speedup` is the threads=1
/// wall-clock over this run's. `events_per_sec` is `events` over wall-clock,
/// and `events` counts the duplicate wakeup copies the ingress core counts
/// without running them, so it is a throughput figure, not a work rate.
pub fn sweep_row(threads: usize, r: &MeshRunResult, wall_s: f64, speedup: f64) -> Row {
    row![LAYOUT.row("threads_sweep");
        shards: r.shards, threads: threads, events: r.events, windows: r.windows,
        stalls_per_window: r.stalls_per_window(), wall_s: wall_s, speedup: speedup,
        events_per_sec: r.events as f64 / wall_s.max(1e-9), mesh_hash: r.mesh_hash(),
    ]
}

/// `requested` and `threads` are what the run was asked for: `--shards`
/// and `--threads`.
pub fn gates(doc: &Doc, requested: &[usize], threads: usize) -> Vec<Failure> {
    let mut g = Gates::new(doc);
    let (shards, churn) = (doc.rows("shards"), doc.rows("churn"));
    for r in shards.iter().chain(churn) {
        g.check("no_duplicates", r.int("duplicate_deployments") == 0, r);
        g.check("accounting", accounted(r), r);
    }
    for r in shards {
        let pinned = r.int("mesh_hash") == SEED_42_HASH;
        g.check("pin", r.int("shards") != 1 || pinned, r);
    }
    for r in churn {
        let live = r.int("scale_downs") > 0 && r.int("removes") > 0;
        g.check("churn_live", r.int("shards") >= 2 && live, r);
    }
    // Every requested shard count has its row (churn: from 2 shards up), run
    // on `min(--threads, shards)` threads.
    for &s in requested {
        let (s, t) = (s as u64, threads.min(s) as u64);
        for rows in [shards, churn].iter().take(if s >= 2 { 2 } else { 1 }) {
            let ran = |r: &Row| r.int("shards") == s && r.int("threads") == t;
            let missing = format!("no {s}-shard row on {t} thread(s)");
            g.check("coverage", rows.iter().any(ran), missing);
        }
    }
    // Thread count picks the schedule, never the result.
    let swept = doc.rows("threads_sweep");
    g.check("thread_invariance", !swept.is_empty(), "no threads_sweep");
    for r in swept {
        let (shards, hash) = (r.int("shards"), r.int("mesh_hash"));
        let other = |o: &Row| o.int("shards") == shards && o.int("mesh_hash") != hash;
        let ok = !swept.iter().any(other) && r.int("threads") <= shards;
        g.check("thread_invariance", ok, r);
    }
    g.check("host_cpus", doc.header.int("host_cpus") >= 1, &doc.header);
    g.finish()
}
