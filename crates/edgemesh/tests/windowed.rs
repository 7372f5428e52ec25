//! Cross-thread determinism of the windowed parallel engine: the worker
//! thread count picks the execution schedule, never the result. These tests
//! replay the two shipped federation scenarios —
//! `examples/scenarios/mesh_lossy_wan.yaml` (lossy metro WAN) and
//! `examples/scenarios/mesh_scaledown.yaml` (instance churn) — at
//! threads ∈ {1, 2, 8} and assert byte-identical mesh traces, then prove
//! the check is *live* with a mutation test: perturbing the window-boundary
//! merge tie-break must change the hash.

use edgemesh::{run_mesh_bigflows, validate_threads, ThreadsExceedShards};
use simcore::{SimDuration, SimTime};
use simnet::{IpAddr, SocketAddr};
use testbed::{MeshParams, ScenarioConfig};
use workload::{Trace, TraceConfig, TraceRequest};

/// `examples/scenarios/mesh_lossy_wan.yaml`, parameterized over shard and
/// thread count: 5 ms one-way gossip latency, 10% delta loss, leases on.
fn lossy_wan_cfg(shards: usize, threads: usize) -> ScenarioConfig {
    ScenarioConfig {
        seed: 3,
        mesh: MeshParams {
            shards,
            threads,
            link_latency: SimDuration::from_micros(5000),
            loss: 0.1,
            gossip_interval: SimDuration::from_millis(50),
            leases: true,
        },
        ..ScenarioConfig::default()
    }
}

/// `examples/scenarios/mesh_scaledown.yaml`: two shards under idle
/// scale-down and Remove-phase churn (30 s idle timeout, 60 s deadline).
fn scaledown_cfg(threads: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig {
        seed: 42,
        mesh: MeshParams {
            shards: 2,
            threads,
            ..MeshParams::default()
        },
        ..ScenarioConfig::default()
    };
    cfg.controller.scale_down_idle = true;
    cfg.controller.memory_idle_timeout = SimDuration::from_secs(30);
    cfg.controller.remove_after = Some(SimDuration::from_secs(60));
    cfg
}

/// The tentpole determinism contract: for a fixed shard count the mesh
/// trace is byte-identical for every worker-thread count. The engine clamps
/// `threads` to the shard count, so `threads = 8` at two shards also
/// exercises the clamp (user-facing entry points reject it instead — see
/// [`threads_above_shards_is_a_typed_error`]).
#[test]
fn lossy_wan_trace_is_thread_invariant_across_shard_counts() {
    for shards in [2, 4, 8] {
        let (_, base) = run_mesh_bigflows(lossy_wan_cfg(shards, 1));
        assert!(
            base.deltas_lost >= 1,
            "a 10% lossy WAN must drop deliveries at {shards} shards"
        );
        for threads in [2, 8] {
            let (_, run) = run_mesh_bigflows(lossy_wan_cfg(shards, threads));
            assert_eq!(
                base.mesh_trace(),
                run.mesh_trace(),
                "trace diverged at {shards} shards, {threads} threads"
            );
            assert_eq!(
                base.mesh_hash(),
                run.mesh_hash(),
                "hash diverged at {shards} shards, {threads} threads"
            );
        }
    }
}

#[test]
fn scaledown_churn_trace_is_thread_invariant() {
    let (_, base) = run_mesh_bigflows(scaledown_cfg(1));
    assert!(
        base.scale_downs > 0 && base.removes > 0,
        "churn lifecycle must fire: {base:?}"
    );
    for threads in [2, 8] {
        let (_, run) = run_mesh_bigflows(scaledown_cfg(threads));
        assert_eq!(
            base.mesh_trace(),
            run.mesh_trace(),
            "churn trace diverged at {threads} threads"
        );
        assert_eq!(base.mesh_hash(), run.mesh_hash());
    }
}

/// Mutation test: the thread-invariance above is only evidence if the hash
/// actually reacts to merge-order changes. Under engineered contention —
/// every client asking for the same cold service at the same instant — the
/// shards' lease acquires tie on time, so the `(origin, seq)` tie-break
/// alone decides which shard wins the deployment. Reversing it must change
/// the winner and with it the trace; if it doesn't, the determinism
/// regression above is checking nothing.
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
    let canonical = edgemesh::run_windowed(cfg.clone(), &trace, 1);
    let hooks = edgemesh::par::TestHooks {
        perturb: true,
        ..Default::default()
    };
    let (perturbed, _) = edgemesh::par::run_windowed_hooked(cfg, &trace, 1, hooks);
    assert_ne!(
        canonical.mesh_hash(),
        perturbed.mesh_hash(),
        "reversed merge tie-break left the mesh trace untouched — the \
         determinism regression test would pass vacuously"
    );
}

/// The user-facing contract for the `threads` knob: `0` normalizes to 1,
/// in-range values pass through, and anything above the shard count is a
/// typed error naming both numbers.
#[test]
fn threads_above_shards_is_a_typed_error() {
    assert_eq!(validate_threads(0, 4).unwrap(), 1);
    assert_eq!(validate_threads(4, 4).unwrap(), 4);
    let err = validate_threads(8, 4).unwrap_err();
    assert_eq!(
        err,
        ThreadsExceedShards {
            threads: 8,
            shards: 4
        }
    );
    let msg = err.to_string();
    assert!(msg.contains('8') && msg.contains('4'), "{msg}");
}
