//! The engine's test hooks at work, and the bring-up books a shard ends
//! with: a perturbed merge tie-break must change the mesh hash, a seeded
//! blackhole must be caught by the continuity analysis, and a shard must
//! book its pre-warmed replicas like the single-controller testbed. Each
//! mutation proves a green run elsewhere is not vacuous.

use cluster::{ClusterKind, SiteCapacity};
use edgectl::ClusterId;
use edgeverify::Violation;
use simcore::{SimDuration, SimTime};
use simnet::{IpAddr, SocketAddr};
use testbed::{MeshParams, PhaseSetup, ScenarioConfig, SiteSpec, Testbed};
use workload::{ingress_at, Trace, TraceConfig, TraceRequest, WorkloadConfig};

use super::{
    run_windowed, run_windowed_audited, run_windowed_hooked, shard_site_allocations, TestHooks,
};
use crate::continuity_view;

/// A handover-heavy run: seed 31's bigflows trace with two handovers per
/// client, generated from the scenario as `edgesim` generates it, over
/// `shards` ingress shards.
fn mobile_run(shards: usize) -> (ScenarioConfig, Trace) {
    let cfg = ScenarioConfig {
        seed: 31,
        mesh: MeshParams {
            shards,
            ..MeshParams::default()
        },
        workload: WorkloadConfig {
            handovers_per_client: 2.0,
            ..WorkloadConfig::default()
        },
        ..ScenarioConfig::default()
    };
    let trace = testbed::generate_workload(&cfg);
    (cfg, trace)
}

/// Mutation test of the thread-invariance suites (`tests/windowed.rs`):
/// every client asking for the same cold service at the same instant — the
/// shards' lease acquires tie on time, so the `(origin, seq)` tie-break
/// alone decides which shard wins the deployment. Reversing it must change
/// the winner and with it the trace; if it doesn't, the determinism
/// regression is checking nothing.
#[test]
fn perturbed_merge_tie_break_changes_the_hash() {
    let config = TraceConfig {
        services: 1,
        total_requests: 8,
        clients: 8,
        min_per_service: 1,
        ..TraceConfig::default()
    };
    let trace = Trace {
        requests: (0..8)
            .map(|client| TraceRequest {
                at: SimTime::ZERO,
                service: 0,
                client,
            })
            .collect(),
        service_addrs: vec![SocketAddr::new(IpAddr::new(93, 184, 1, 1), 80)],
        config,
        handovers: Vec::new(),
    };
    let cfg = ScenarioConfig {
        seed: 7,
        clients: 8,
        mesh: MeshParams {
            shards: 4,
            link_latency: SimDuration::from_millis(100),
            gossip_interval: SimDuration::from_millis(20),
            ..MeshParams::default()
        },
        ..ScenarioConfig::default()
    };
    let canonical = run_windowed(cfg.clone(), &trace, 1);
    let hooks = TestHooks {
        perturb: true,
        ..Default::default()
    };
    let (perturbed, _) = run_windowed_hooked(cfg, &trace, 1, hooks);
    assert_ne!(
        canonical.mesh_hash(),
        perturbed.mesh_hash(),
        "reversed merge tie-break left the mesh trace untouched — the \
         determinism regression test would pass vacuously"
    );
}

/// The mobility acceptance bar: every session in a handover-heavy run either
/// completes exactly once or is explicitly accounted lost — the audited run
/// (which includes the continuity analysis) reports zero violations.
#[test]
fn mobile_sessions_complete_exactly_once() {
    let (cfg, trace) = mobile_run(2);
    let (result, violations) = run_windowed_audited(cfg, &trace, 2);
    assert!(result.handovers > 0, "no handovers exercised");
    assert!(
        violations.is_empty(),
        "continuity/coherence violations: {violations:?}"
    );
    assert_eq!(
        result.completed + result.lost,
        trace.requests.len() as u64,
        "a session fell through the handover gap"
    );
    let view = continuity_view(&trace, &result).expect("multi-shard run");
    assert_eq!(view.completions.len(), trace.requests.len());
}

/// Mutation test: seed a fault that swallows one mobile client's
/// post-handover requests (served nowhere, accounted nowhere) and assert the
/// continuity analysis flags exactly that client's sessions as blackholed.
/// This is the proof the `mobile_sessions_complete_exactly_once` green run
/// is meaningful — the analysis can actually fail.
#[test]
fn blackholed_handover_is_flagged() {
    let shards = 2;
    let (cfg, trace) = mobile_run(shards);
    // Pick a client that issues at least one request from its post-handover
    // ingress — the requests the seeded fault will swallow.
    let victim = (0..trace.config.clients)
        .find(|&c| {
            trace.requests.iter().any(|r| {
                r.client == c && ingress_at(&trace.handovers, c, r.at, shards) != c % shards
            })
        })
        .expect("some client must issue post-handover requests");
    let hooks = TestHooks {
        blackhole_victim: Some(victim),
        ..Default::default()
    };
    let (result, violations) = run_windowed_hooked(cfg, &trace, 2, hooks);
    let blackholed: Vec<_> = violations
        .iter()
        .filter_map(|v| match v {
            Violation::BlackholedSession { tag, client } => Some((*tag, *client)),
            _ => None,
        })
        .collect();
    assert!(
        !blackholed.is_empty(),
        "seeded blackhole was not flagged — the continuity analysis is dead"
    );
    assert!(
        blackholed.iter().all(|&(_, c)| c as usize == victim),
        "only the victim's sessions may be blackholed: {blackholed:?}"
    );
    assert!(
        (result.completed + result.lost) < trace.requests.len() as u64,
        "the seeded fault swallowed nothing"
    );
}

/// Bring-up is written once (`testbed::bringup`), so every engine's
/// controller starts from the same books: the shared bring-up books
/// `PhaseSetup::Running` replicas on every controller that sees them, so a
/// mesh shard ends bring-up with the same site allocation as the
/// single-controller testbed, and a finite `SiteCapacity` admits no more
/// replicas than the site has.
#[test]
fn mesh_shard_books_prewarmed_replicas_like_the_testbed() {
    let capacity = SiteCapacity {
        max_replicas: 64,
        ..SiteCapacity::new(24_000, 64 << 10)
    };
    let cfg = ScenarioConfig {
        seed: 9,
        phase_setup: PhaseSetup::Running,
        sites: vec![
            (
                SiteSpec::egs("near").with_capacity(capacity),
                ClusterKind::Docker,
            ),
            (SiteSpec::egs("far"), ClusterKind::Kubernetes),
        ],
        prewarm_sites: Some(vec![0]),
        mesh: MeshParams {
            shards: 2,
            ..MeshParams::default()
        },
        ..ScenarioConfig::default()
    };
    let trace = testbed::generate_workload(&cfg);
    let single = Testbed::build(cfg.clone(), trace.service_addrs.clone());
    let expected: Vec<_> = (0..2)
        .map(|site| single.controller().site_allocation(ClusterId(site)))
        .collect();
    assert_eq!(
        expected[0].replicas as usize,
        trace.service_addrs.len(),
        "one running replica per service on the pre-warmed site: {expected:?}"
    );
    assert_eq!(expected[1].replicas, 0, "site 1 is not pre-warmed");
    for shard in 0..2 {
        assert_eq!(
            shard_site_allocations(&cfg, &trace, shard),
            expected,
            "shard {shard}"
        );
    }
}
