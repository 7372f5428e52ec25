//! `BENCH_sched.json`: every compared provisioning policy × workload on a
//! capacity-constrained continuum (`rows`), plus the default policy's hash
//! on the default unlimited-capacity scenario (`baseline_hash`).

use testbed::{RunResult, SchedulerSpec};

use super::{accounted, Doc, Failure, Gates, Layout, Row, SEED_42_HASH};

pub static LAYOUT: Layout = Layout {
    bench: "sched",
    header: cols![bench: Str, seed: Int, slo_ms: Float(0), baseline_hash: Hash],
    sections: &[(
        "rows",
        cols![
            policy: Str, workload: Str, requests: Int, completed: Int, lost: Int,
            mean_ms: Float(3), p95_ms: Float(3), slo_violations: Int, deployments: Int,
            proactive_deployments: Int, retargets: Int, cloud_forwards: Int,
            admission_rejections: Int, capacity_violations: Int,
        ],
    )],
};

/// One comparison policy: display name + `SchedulerSpec` constructor.
pub(crate) type Policy = (&'static str, fn() -> SchedulerSpec);

/// The policies the ablation compares (every registry entry that makes
/// sense on a Docker-only continuum).
pub const POLICIES: [Policy; 5] = [
    ("nearest-waiting", SchedulerSpec::nearest_waiting),
    ("nearest-ready-first", SchedulerSpec::nearest_ready_first),
    ("least-loaded", SchedulerSpec::least_loaded),
    ("bounded-cost", SchedulerSpec::bounded_cost),
    ("tier-spill", SchedulerSpec::tier_spill),
];

/// One policy × workload row: latency mean / p95 over every completed
/// request and the count slower than `slo_ms`.
pub fn row(policy: &str, workload: &str, requests: usize, r: &RunResult, slo_ms: f64) -> Row {
    let mut totals_ms = r.time_totals_ms();
    totals_ms.sort_by(f64::total_cmp);
    let mean_ms = totals_ms.iter().sum::<f64>() / totals_ms.len().max(1) as f64;
    let p95 = totals_ms.get(totals_ms.len().saturating_sub(1) * 95 / 100);
    row![LAYOUT.row("rows");
        policy: policy, workload: workload, requests: requests, completed: r.records.len(),
        lost: r.lost, mean_ms: mean_ms, p95_ms: p95.copied().unwrap_or(0.0),
        slo_violations: totals_ms.iter().filter(|&&t| t > slo_ms).count(),
        deployments: r.deployments.len(), proactive_deployments: r.proactive_deployments,
        retargets: r.retargets, cloud_forwards: r.cloud_forwards,
        admission_rejections: r.admission_rejections, capacity_violations: r.capacity_violations,
    ]
}

pub fn gates(doc: &Doc) -> Vec<Failure> {
    let mut g = Gates::new(doc);
    let rows = doc.rows("rows");
    for r in rows {
        g.check("capacity", r.int("capacity_violations") == 0, r);
        g.check("accounting", accounted(r), r);
    }
    for (name, _) in POLICIES {
        let present = rows.iter().any(|r| r.str("policy") == name);
        g.check("policies", present, format!("no `{name}` row"));
    }
    let baseline = doc.header.int("baseline_hash");
    g.check("pin", baseline == SEED_42_HASH, &doc.header);
    g.finish()
}
