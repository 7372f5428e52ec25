//! End-to-end mesh federation tests: the lease protocol under engineered
//! contention, split-brain without it, determinism under loss, and the
//! `shards = 1` byte-identity guarantee.

use edgemesh::{run_mesh_bigflows, run_mesh_scenario, run_windowed_audited};
use edgeverify::Violation;
use simcore::{SimDuration, SimRng, SimTime};
use simnet::{IpAddr, SocketAddr};
use testbed::{MeshParams, ScenarioConfig};
use workload::{Trace, TraceConfig, TraceRequest};

/// The worst case the lease protocol exists for: every client asks for the
/// same cold service at the same instant, so every shard sees a PacketIn for
/// an undeployed service and wants to deploy it at the same BEST cluster.
fn contention_trace() -> Trace {
    let config = TraceConfig {
        services: 1,
        total_requests: 8,
        clients: 8,
        min_per_service: 1,
        ..TraceConfig::default()
    };
    Trace {
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
    }
}

fn contention_cfg(shards: usize, leases: bool, loss: f64) -> ScenarioConfig {
    ScenarioConfig {
        seed: 7,
        clients: 8,
        mesh: MeshParams {
            shards,
            leases,
            loss,
            link_latency: SimDuration::from_millis(100),
            gossip_interval: SimDuration::from_millis(20),
            ..MeshParams::default()
        },
        ..ScenarioConfig::default()
    }
}

#[test]
fn leases_prevent_duplicate_deployments() {
    for shards in [2, 4, 8] {
        let trace = contention_trace();
        let result = run_mesh_scenario(contention_cfg(shards, true, 0.0), &trace);
        assert_eq!(
            result.duplicate_deployments, 0,
            "split-brain with leases on at {shards} shards"
        );
        assert!(
            result.duplicate_deployments_avoided >= 1,
            "contention never reached the lease gate at {shards} shards"
        );
        assert_eq!(
            result.deployments, 1,
            "exactly one shard deploys the service at {shards} shards"
        );
        assert_eq!(
            result.completed, 8,
            "all requests served at {shards} shards"
        );
        assert_eq!(result.lost, 0);
        assert!(
            result.retargets >= 1,
            "losers must retarget to the edge once the holder's Ready delta lands \
             ({shards} shards)"
        );
        // Every delta delivery crossed the mesh link at least once.
        assert!(result.mean_staleness_ms() >= 100.0);
    }
}

#[test]
fn without_leases_the_same_contention_splits_brains() {
    let trace = contention_trace();
    let result = run_mesh_scenario(contention_cfg(4, false, 0.0), &trace);
    assert!(
        result.duplicate_deployments >= 1,
        "4 shards racing a cold service without leases must duplicate the deployment"
    );
    assert_eq!(result.duplicate_deployments_avoided, 0);
}

#[test]
fn audited_contention_without_leases_reports_split_brain() {
    let trace = contention_trace();
    let cfg = contention_cfg(4, false, 0.0);
    let (result, violations) = run_windowed_audited(cfg, &trace, 2);
    assert_eq!(result.duplicate_deployments, 1);
    let split: Vec<_> = violations
        .iter()
        .filter(|v| matches!(v, Violation::SplitBrainDeployment { .. }))
        .collect();
    assert_eq!(
        split.len(),
        1,
        "audit must surface the observed split-brain once: {violations:?}"
    );
}

#[test]
fn audited_contention_with_leases_is_clean_of_split_brain() {
    let trace = contention_trace();
    let cfg = contention_cfg(4, true, 0.0);
    let (result, violations) = run_windowed_audited(cfg, &trace, 2);
    assert_eq!(result.duplicate_deployments, 0);
    assert!(
        !violations
            .iter()
            .any(|v| matches!(v, Violation::SplitBrainDeployment { .. })),
        "lease-protected run must not split-brain: {violations:?}"
    );
}

#[test]
fn lossy_mesh_replays_byte_identically() {
    let run = || {
        let trace = contention_trace();
        run_mesh_scenario(contention_cfg(4, true, 0.3), &trace)
    };
    let a = run();
    let b = run();
    assert!(
        a.deltas_lost >= 1,
        "loss 0.3 should drop at least one delivery"
    );
    assert_eq!(a.mesh_trace(), b.mesh_trace());
    assert_eq!(a.mesh_hash(), b.mesh_hash());
}

#[test]
fn one_shard_mesh_is_the_plain_testbed_byte_for_byte() {
    let cfg = ScenarioConfig {
        seed: 42,
        ..ScenarioConfig::default()
    };
    let (_, single) = testbed::run_bigflows(cfg.clone());
    let (_, mesh) = run_mesh_bigflows(cfg);
    assert_eq!(mesh.shards, 1);
    assert_eq!(mesh.mesh_trace(), single.metrics_trace());
    assert_eq!(mesh.mesh_hash(), single.metrics_hash());
}

#[test]
fn sharded_bigflows_accounts_for_every_request() {
    let cfg = ScenarioConfig {
        seed: 42,
        mesh: MeshParams {
            shards: 2,
            ..MeshParams::default()
        },
        ..ScenarioConfig::default()
    };
    let (trace, result) = run_mesh_bigflows(cfg);
    assert_eq!(
        result.completed + result.lost,
        trace.requests.len() as u64,
        "every request either completes or is accounted lost"
    );
    assert_eq!(result.duplicate_deployments, 0);
    assert_eq!(result.shard_stats.len(), 2);
    assert!(result.deltas_sent > 0, "a real run gossips");
}

#[test]
fn lease_contention_converges_deterministically_across_shard_counts() {
    // Same seed, increasing shard count: the single deployment invariant
    // holds throughout, and each count replays itself.
    for shards in [2, 4, 8] {
        let trace = contention_trace();
        let a = run_mesh_scenario(contention_cfg(shards, true, 0.1), &trace);
        let trace = contention_trace();
        let b = run_mesh_scenario(contention_cfg(shards, true, 0.1), &trace);
        assert_eq!(a.mesh_hash(), b.mesh_hash(), "{shards} shards must replay");
        assert_eq!(a.deployments, 1);
    }
}

#[test]
fn trace_rng_is_isolated_from_mesh_gossip_rng() {
    // The gossip stream must not perturb trace generation: mesh and
    // single-controller runs of the same cfg see the same trace.
    let cfg_single = ScenarioConfig {
        seed: 9,
        ..ScenarioConfig::default()
    };
    let mut cfg_mesh = cfg_single.clone();
    cfg_mesh.mesh.shards = 2;
    let (trace_single, _) = testbed::run_bigflows(cfg_single);
    let (trace_mesh, _) = run_mesh_bigflows(cfg_mesh);
    assert_eq!(trace_single.requests, trace_mesh.requests);
    assert_eq!(trace_single.service_addrs, trace_mesh.service_addrs);
    // And the derivation matches the documented seed split.
    let mut rng = SimRng::seed_from_u64(9 ^ 0xB16F_1085);
    let expect = Trace::generate(
        TraceConfig {
            clients: 20,
            ..TraceConfig::default()
        },
        &mut rng,
    );
    assert_eq!(expect.requests, trace_mesh.requests);
}
