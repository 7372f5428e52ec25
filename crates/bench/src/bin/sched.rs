//! Scheduler-ablation bench — the capacity-aware policy comparison artifact
//! (`BENCH_sched.json`).
//!
//! Replays the bigFlows workload over a capacity-constrained three-tier
//! continuum (a small near edge, a mid-size metro EGS, a large regional
//! site) under every provisioning policy in the registry's comparison set,
//! and records per (policy × workload) row: request latency (mean / p95),
//! SLO violations, deployments, retargets (migrations), cloud forwards and
//! admission rejections. The artifact's gates
//! (`bench::artifact::sched::gates`) exit 1 after it is written.
//!
//! Usage:
//!   sched [--quick] [--out BENCH_sched.json]

use bench::artifact::sched::{gates, row, LAYOUT, POLICIES};
use bench::artifact::{publish, Doc, Flags, SEED};
use cluster::{ClusterKind, SiteCapacity};
use simcore::{SimDuration, SimRng};
use testbed::{ScenarioConfig, SiteSpec, Testbed};
use workload::{Trace, TraceConfig};

/// A request slower than this misses the edge-latency SLO: cloud round
/// trips (~104 ms time_total on the default WAN) and deployment-blocked
/// first requests violate it, edge-served requests meet it comfortably.
const SLO_MS: f64 = 100.0;

/// The capacity-constrained three-tier continuum every comparison row runs
/// on. The near edge fits only a handful of services, the metro EGS a few
/// dozen, the regional site everything — so policies that spill early and
/// policies that hold requests near the client genuinely diverge.
fn constrained_sites() -> Vec<(SiteSpec, ClusterKind)> {
    let mut near = SiteSpec::pi("near-edge", SimDuration::from_micros(200))
        .with_nodes(2)
        .with_capacity(SiteCapacity::new(2_000, 3_072).with_max_replicas(10));
    near.labels = vec!["tier:near".into()];
    let mut metro = SiteSpec::egs("metro-egs")
        .with_capacity(SiteCapacity::new(8_000, 16_384).with_max_replicas(40));
    metro.latency = SimDuration::from_millis(2);
    metro.labels = vec!["tier:metro".into()];
    let mut regional = SiteSpec::egs("regional-dc")
        .with_nodes(4)
        .with_capacity(SiteCapacity::new(64_000, 131_072));
    regional.latency = SimDuration::from_millis(8);
    regional.labels = vec!["tier:regional".into()];
    vec![
        (near, ClusterKind::Docker),
        (metro, ClusterKind::Docker),
        (regional, ClusterKind::Docker),
    ]
}

fn workload_trace(scale: usize) -> Trace {
    let mut trace_rng = SimRng::seed_from_u64(SEED ^ 0xB16F_1085);
    Trace::generate(TraceConfig::scaled(scale), &mut trace_rng)
}

fn scenario(trace: &Trace, sites: Vec<(SiteSpec, ClusterKind)>) -> ScenarioConfig {
    ScenarioConfig {
        seed: SEED,
        clients: trace.config.clients,
        sites,
        ..ScenarioConfig::default()
    }
}

fn main() {
    let mut flags = Flags::from_env("sched");
    let quick = flags.switch("--quick");
    let out_path = flags.value("--out");
    flags.finish();

    let workloads = [("bigflows-1x", 1), ("bigflows-2x", 2)];
    let mut doc = Doc::new(&LAYOUT);
    for (workload, scale) in workloads.into_iter().take(if quick { 1 } else { 2 }) {
        let trace = workload_trace(scale);
        for (policy, scheduler) in POLICIES {
            let mut cfg = scenario(&trace, constrained_sites());
            cfg.scheduler = scheduler();
            let result = Testbed::build(cfg, trace.service_addrs.clone()).run_trace(&trace);
            let row = row(policy, workload, trace.requests.len(), &result, SLO_MS);
            eprintln!("sched: {row}");
            doc.rows_mut("rows").push(row);
        }
    }

    // The default policy on the default unlimited-capacity scenario (exactly
    // the cityscale 1× configuration), whose hash the `pin` gate checks.
    eprintln!("sched: running the unlimited-capacity baseline ...");
    let trace = workload_trace(1);
    let site = (SiteSpec::egs("egs-0").with_nodes(1), ClusterKind::Docker);
    let baseline = Testbed::build(scenario(&trace, vec![site]), trace.service_addrs.clone());
    doc.header.set("slo_ms", SLO_MS);
    let hash = baseline.run_trace(&trace).metrics_hash();
    doc.header.set("baseline_hash", hash);
    let out_path = out_path.unwrap_or_else(|| "BENCH_sched.json".to_string());
    publish(&doc, &out_path, gates);
}
