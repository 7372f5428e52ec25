//! Client mobility across ingress shards: mid-session handovers force the
//! departing controller to tear its flows down while the new ingress
//! re-learns them on the next PacketIn. These tests hold the two mesh
//! engines in lockstep under mobility, pin thread-invariance of the mesh
//! hash, and prove the session-continuity analysis end to end — including a
//! seeded-fault mutation run that must be *caught*, so a regression that
//! silently disables the analysis fails loudly.

use edgemesh::MeshSim;
use edgeverify::Violation;
use simcore::SimRng;
use testbed::{MeshParams, ScenarioConfig};
use workload::{ingress_at, Trace, TraceConfig, WorkloadConfig};

/// Generate a mobility workload the same way `testbed::generate_workload`
/// does (same seed derivation), so scenario-file runs replay these traces.
fn mobile_trace(seed: u64, model: &str, handovers_per_client: f64) -> Trace {
    let wl = WorkloadConfig {
        model: model.into(),
        handovers_per_client,
        mix: TraceConfig::default(),
        ..WorkloadConfig::default()
    };
    wl.generate(&mut SimRng::seed_from_u64(seed ^ 0xB16F_1085))
        .expect("builtin model")
}

fn mesh_cfg(seed: u64, shards: usize) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        mesh: MeshParams {
            shards,
            ..MeshParams::default()
        },
        ..ScenarioConfig::default()
    }
}

/// Reference vs windowed equivalence with mobile clients: every
/// workload-visible counter, including the handover count, must agree.
#[test]
fn handover_scenarios_run_in_lockstep() {
    for (seed, model) in [(11, "bigflows"), (12, "poisson")] {
        let trace = mobile_trace(seed, model, 2.0);
        assert!(
            !trace.handovers.is_empty(),
            "{model}: no mobility generated"
        );
        let cfg = mesh_cfg(seed, 2);
        let r = MeshSim::build(cfg.clone(), trace.service_addrs.clone()).run_trace(&trace);
        let p = edgemesh::run_windowed(cfg, &trace, 1);
        let pair = |a: u64, b: u64, what: &str| {
            assert_eq!(a, b, "{model}: reference {what} {a} != parallel {what} {b}");
        };
        pair(r.completed, p.completed, "completed");
        pair(r.lost, p.lost, "lost");
        pair(r.handovers, p.handovers, "handovers");
        pair(r.deployments, p.deployments, "deployments");
        pair(r.retargets, p.retargets, "retargets");
        pair(r.scale_downs, p.scale_downs, "scale_downs");
        assert!(r.handovers > 0, "{model}: no handover was processed");
        assert_eq!(
            r.completed + r.lost,
            trace.requests.len() as u64,
            "{model}: requests leaked"
        );
    }
}

/// The mesh trace hash must not depend on the worker-thread count, mobility
/// included: handover teardown happens inside a shard's own event stream, so
/// the windowed merge order is unchanged.
#[test]
fn mesh_hash_is_thread_invariant_under_mobility() {
    let trace = mobile_trace(21, "mmpp", 3.0);
    let a = edgemesh::run_windowed(mesh_cfg(21, 4), &trace, 1);
    let b = edgemesh::run_windowed(mesh_cfg(21, 4), &trace, 2);
    let c = edgemesh::run_windowed(mesh_cfg(21, 4), &trace, 4);
    assert!(a.handovers > 0);
    assert_eq!(a.mesh_hash(), b.mesh_hash(), "1 vs 2 threads");
    assert_eq!(a.mesh_hash(), c.mesh_hash(), "1 vs 4 threads");
}

/// The mobility acceptance bar: every session in a handover-heavy run either
/// completes exactly once or is explicitly accounted lost — the audited run
/// (which includes the continuity analysis) reports zero violations.
#[test]
fn mobile_sessions_complete_exactly_once() {
    let trace = mobile_trace(31, "bigflows", 2.0);
    let (result, violations) = edgemesh::run_windowed_audited(mesh_cfg(31, 2), &trace, 2);
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
    let view = edgemesh::continuity_view(&trace, &result).expect("multi-shard run");
    assert_eq!(view.completions.len(), trace.requests.len());
}

/// Mutation test: seed a fault that swallows one mobile client's
/// post-handover requests (served nowhere, accounted nowhere) and assert the
/// continuity analysis flags exactly that client's sessions as blackholed.
/// This is the proof the `mobile_sessions_complete_exactly_once` green run
/// is meaningful — the analysis can actually fail.
#[test]
fn blackholed_handover_is_flagged() {
    let trace = mobile_trace(31, "bigflows", 2.0);
    let shards = 2;
    // Pick a client that issues at least one request from its post-handover
    // ingress — the requests the seeded fault will swallow.
    let victim = (0..trace.config.clients)
        .find(|&c| {
            trace.requests.iter().any(|r| {
                r.client == c && ingress_at(&trace.handovers, c, r.at, shards) != c % shards
            })
        })
        .expect("some client must issue post-handover requests");
    let hooks = edgemesh::par::TestHooks {
        blackhole_victim: Some(victim),
        ..Default::default()
    };
    let (result, violations) =
        edgemesh::par::run_windowed_hooked(mesh_cfg(31, shards), &trace, 2, hooks);
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

/// The flash-crowd acceptance bar: thousands of arrivals slam one cold
/// service across >= 2 ingress shards inside the spike window. With leases
/// on, the lease gate must convert every would-be concurrent deployment into
/// an avoided duplicate — zero split-brain, `avoided > 0`.
#[test]
fn flash_crowd_contention_is_resolved_by_leases() {
    let trace = mobile_trace(41, "flash-crowd", 0.0);
    let cfg = mesh_cfg(41, 4);
    let result = edgemesh::run_windowed(cfg, &trace, 2);
    assert_eq!(
        result.duplicate_deployments, 0,
        "split-brain deployments under flash crowd"
    );
    assert!(
        result.duplicate_deployments_avoided > 0,
        "flash crowd produced no lease contention — the spike is not \
         concentrated enough to exercise the protocol"
    );
    assert_eq!(result.completed + result.lost, trace.requests.len() as u64);
}

/// One tie rule for a handover and a SYN at the same instant, in all three
/// engines: the teardown runs first (a request at the handover instant
/// already belongs to the new ingress; this one left a link latency earlier
/// and still enters through the old one). Generated traces have ns-resolution
/// `f64` times and never tie, so the tie is engineered: client 0's second
/// request starts exactly one access latency before its handover, so its SYN
/// reaches the departing shard's switch at the handover instant.
#[test]
fn handover_and_syn_at_the_same_instant_agree_across_engines() {
    use simcore::{SimDuration, SimTime};
    use workload::{Handover, TraceRequest};

    let cfg = ScenarioConfig {
        clients: 2,
        ..mesh_cfg(5, 2)
    };
    let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    let handover_at = at(20_000);
    let access = testbed::bringup::topology(&cfg).client_switch_latency(0);
    let request = |at, client| TraceRequest {
        at,
        service: 0,
        client,
    };
    let trace = Trace {
        requests: vec![
            request(at(1_000), 0),
            request(at(2_000), 1),
            request(handover_at - access, 0),
            request(at(30_000), 0),
        ],
        service_addrs: vec![simnet::SocketAddr::new(
            simnet::IpAddr::new(93, 184, 1, 1),
            80,
        )],
        config: TraceConfig {
            services: 1,
            total_requests: 4,
            clients: 2,
            min_per_service: 1,
            ..TraceConfig::default()
        },
        handovers: vec![Handover {
            at: handover_at,
            client: 0,
        }],
    };
    // The tie request still belongs to the departing shard.
    assert_eq!(ingress_at(&trace.handovers, 0, trace.requests[2].at, 2), 0);
    assert_eq!(ingress_at(&trace.handovers, 0, trace.requests[3].at, 2), 1);

    let single = testbed::Testbed::build(
        ScenarioConfig {
            mesh: MeshParams::default(),
            ..cfg.clone()
        },
        trace.service_addrs.clone(),
    )
    .run_trace(&trace);
    let windowed = edgemesh::run_windowed(cfg.clone(), &trace, 1);
    let reference = MeshSim::build(cfg, trace.service_addrs.clone()).run_trace(&trace);

    let counters = |completed: u64, lost: u64, handovers: u64| (completed, lost, handovers);
    let expected = counters(4, 0, 1);
    assert_eq!(
        counters(single.records.len() as u64, single.lost, single.handovers),
        expected,
        "single-controller testbed"
    );
    assert_eq!(
        counters(windowed.completed, windowed.lost, windowed.handovers),
        expected,
        "windowed engine"
    );
    assert_eq!(
        counters(reference.completed, reference.lost, reference.handovers),
        expected,
        "reference engine"
    );
    // The mesh engines additionally agree request by request on who released
    // what through which port.
    let released = |r: &edgemesh::MeshRunResult| -> Vec<(u64, usize, usize)> {
        let mut v: Vec<_> = r.records.iter().map(|r| (r.tag, r.shard, r.port)).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(released(&windowed), released(&reference));
}
