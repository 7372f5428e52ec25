//! Client mobility across ingress shards: mid-session handovers force the
//! departing controller to tear its flows down while the new ingress
//! re-learns them on the next PacketIn. These tests pin thread-invariance of
//! the mesh hash under mobility, hold a handover tied with a SYN to the
//! single-controller testbed, and resolve flash-crowd contention with
//! leases. The session-continuity analysis, with its seeded-fault mutation
//! run, needs the engine's test hooks and lives in `par`'s tests. The
//! outcome of two mobile runs is pinned in `windowed_pinned.rs`.

use edgemesh::par::run_windowed;
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

/// The mesh trace hash must not depend on the worker-thread count, mobility
/// included: handover teardown happens inside a shard's own event stream, so
/// the windowed merge order is unchanged.
#[test]
fn mesh_hash_is_thread_invariant_under_mobility() {
    let trace = mobile_trace(21, "mmpp", 3.0);
    let a = run_windowed(mesh_cfg(21, 4), &trace, 1);
    let b = run_windowed(mesh_cfg(21, 4), &trace, 2);
    let c = run_windowed(mesh_cfg(21, 4), &trace, 4);
    assert!(a.handovers > 0);
    assert_eq!(a.mesh_hash(), b.mesh_hash(), "1 vs 2 threads");
    assert_eq!(a.mesh_hash(), c.mesh_hash(), "1 vs 4 threads");
}

/// The flash-crowd acceptance bar: thousands of arrivals slam one cold
/// service across >= 2 ingress shards inside the spike window. With leases
/// on, the lease gate must convert every would-be concurrent deployment into
/// an avoided duplicate — zero split-brain, `avoided > 0`.
#[test]
fn flash_crowd_contention_is_resolved_by_leases() {
    let trace = mobile_trace(41, "flash-crowd", 0.0);
    let cfg = mesh_cfg(41, 4);
    let result = run_windowed(cfg, &trace, 2);
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

/// One tie rule for a handover and a SYN at the same instant, in the
/// single-controller testbed and the windowed mesh at 1 and 2 threads: the
/// teardown runs first (a request at the handover instant
/// already belongs to the new ingress; this one left a link latency earlier
/// and still enters through the old one). Generated traces have ns-resolution
/// `f64` times and never tie, so the tie is engineered: client 0's second
/// request starts exactly one access latency before its handover, so its SYN
/// reaches the departing shard's switch at the handover instant.
#[test]
fn handover_and_syn_at_the_same_instant_agree_with_the_testbed() {
    use simcore::{SimDuration, SimTime};
    use workload::mobility::Handover;
    use workload::TraceRequest;

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
    let one = run_windowed(cfg.clone(), &trace, 1);
    let two = run_windowed(cfg, &trace, 2);

    let counters = |completed: u64, lost: u64, handovers: u64| (completed, lost, handovers);
    let expected = counters(4, 0, 1);
    assert_eq!(
        counters(single.records.len() as u64, single.lost, single.handovers),
        expected,
        "single-controller testbed"
    );
    for (threads, r) in [(1, &one), (2, &two)] {
        assert_eq!(
            counters(r.completed, r.lost, r.handovers),
            expected,
            "windowed engine, {threads} threads"
        );
    }
    // Request by request: the testbed and the mesh complete the same trace
    // requests, each once; both thread counts release each through the same
    // shard, at the same instant, out of the same port; and the tie request
    // is released by the departing shard.
    let mut served: Vec<(usize, SimTime)> = single
        .records
        .iter()
        .map(|r| {
            (
                r.client,
                SimTime::ZERO + (r.started - (SimTime::ZERO + single.trace_offset)),
            )
        })
        .collect();
    served.sort_unstable();
    let released = |r: &edgemesh::MeshRunResult| -> Vec<(u64, usize, SimTime, usize)> {
        let mut v: Vec<_> = r
            .records
            .iter()
            .map(|r| (r.tag, r.shard, r.released, r.port))
            .collect();
        v.sort_unstable();
        v
    };
    let mut mesh_served: Vec<(usize, SimTime)> = released(&one)
        .iter()
        .map(|&(tag, ..)| {
            let req = &trace.requests[tag as usize];
            (req.client, req.at)
        })
        .collect();
    mesh_served.sort_unstable();
    assert_eq!(served, mesh_served);
    assert_eq!(released(&one), released(&two));
    let shards: Vec<usize> = released(&one).iter().map(|r| r.1).collect();
    assert_eq!(shards, vec![0, 1, 0, 1]);
}
