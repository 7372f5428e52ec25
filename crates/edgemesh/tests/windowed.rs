//! Cross-thread determinism of the windowed parallel engine: the worker
//! thread count picks the execution schedule, never the result. These tests
//! replay the two shipped federation scenarios —
//! `examples/scenarios/mesh_lossy_wan.yaml` (lossy metro WAN) and
//! `examples/scenarios/mesh_scaledown.yaml` (instance churn) — at
//! threads ∈ {1, 2, 8} and assert byte-identical mesh traces. The mutation
//! test that proves the check *live* — perturbing the window-boundary merge
//! tie-break must change the hash — needs the engine's test hooks and lives
//! in `par`'s tests.

use edgemesh::par::ThreadsExceedShards;
use edgemesh::{run_mesh_bigflows, validate_threads};
use simcore::SimDuration;
use testbed::{MeshParams, ScenarioConfig};

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
