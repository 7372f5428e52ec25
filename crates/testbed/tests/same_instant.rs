//! Same-instant PacketIns keep FIFO order — pinned, with no schedule hook.
//!
//! The ingress core (`testbed::ingress`) handles one event per loop
//! iteration; PacketIns queued at the same instant run in push order (the
//! event queue's `(time, seq)` key). The generator's nanosecond arrival
//! instants never collide, so shipped workloads cannot notice a reordering.
//! This trace can: millisecond instants from a tiny set and a two-client
//! pool (same client + same trace time ⇒ same switch-arrival time), so most
//! instants carry several PacketIns, and the first one handled for a cold
//! service is the one whose deployment record comes first.
//!
//! Both hashes were recorded on the last commit that still had a
//! one-event-per-iteration reference schedule and a reversed-order mutation
//! to compare against (there, the reference agreed and the mutation moved
//! both hashes on this very trace), so they pin FIFO order, not merely
//! "whatever the loop does today": through the single-controller `Testbed`,
//! and through the windowed engine at two shards, whose trace also hashes
//! the `events=` / `windows=` / `stalls=` header.

use edgemesh::par::run_windowed;
use simcore::{SimDuration, SimTime};
use simnet::{IpAddr, SocketAddr};
use testbed::{MeshParams, ScenarioConfig, Testbed};
use workload::{Trace, TraceConfig, TraceRequest};

const TESTBED_HASH: u64 = 0x617a_162b_5f13_09ab;
const MESH_HASH: u64 = 0x54f3_0434_adc9_9e9b;

/// Build a trace from raw `(millisecond, service, client)` triples, with the
/// generator's synthetic service addresses and sort order.
fn dense_trace(triples: &[(u64, usize, usize)], services: usize, clients: usize) -> Trace {
    let service_addrs: Vec<SocketAddr> = (0..services)
        .map(|i| {
            SocketAddr::new(
                IpAddr::new(93, 184, (i / 250 + 1) as u8, (i % 250 + 1) as u8),
                80,
            )
        })
        .collect();
    let mut requests: Vec<TraceRequest> = triples
        .iter()
        .map(|&(ms, service, client)| TraceRequest {
            at: SimTime::ZERO + SimDuration::from_millis(ms),
            service: service % services,
            client: client % clients,
        })
        .collect();
    requests.sort_by_key(|r| (r.at, r.service, r.client));
    Trace {
        requests,
        service_addrs,
        config: TraceConfig {
            services,
            total_requests: triples.len(),
            duration: SimDuration::from_secs(10),
            min_per_service: 0,
            clients,
            ..TraceConfig::default()
        },
        handovers: Vec::new(),
    }
}

/// 40 requests over 6 instants, 4 services and 2 clients: every instant has
/// several same-client SYNs to different services, the first wave (t = 0)
/// to four cold services at once.
fn fixed_trace() -> Trace {
    let mut triples = vec![
        (0, 0, 0),
        (0, 1, 0),
        (0, 2, 0),
        (0, 3, 0),
        (0, 1, 1),
        (0, 0, 1),
    ];
    // A fixed multiplicative walk over (instant, service, client) — no RNG,
    // so the trace is the same on every toolchain.
    let mut x = 7u64;
    for _ in 0..34 {
        x = x * 37 % 1009;
        triples.push((x % 6, (x / 6 % 4) as usize, (x / 24 % 2) as usize));
    }
    dense_trace(&triples, 4, 2)
}

fn scenario(trace: &Trace, shards: usize) -> ScenarioConfig {
    ScenarioConfig {
        seed: 7,
        clients: trace.config.clients,
        mesh: MeshParams {
            shards,
            ..MeshParams::default()
        },
        ..ScenarioConfig::default()
    }
}

#[test]
fn same_instant_packet_ins_keep_fifo_order_through_the_testbed() {
    let trace = fixed_trace();
    let testbed = Testbed::build(scenario(&trace, 1), trace.service_addrs.clone());
    let hash = testbed.run_trace(&trace).metrics_hash();
    assert_eq!(
        hash, TESTBED_HASH,
        "dense-trace metrics hash {hash:#018x} drifted"
    );
}

#[test]
fn same_instant_packet_ins_keep_fifo_order_through_the_mesh() {
    let trace = fixed_trace();
    let one = run_windowed(scenario(&trace, 2), &trace, 1).mesh_hash();
    let two = run_windowed(scenario(&trace, 2), &trace, 2).mesh_hash();
    assert_eq!(one, two, "mesh hash depends on the thread count");
    assert_eq!(one, MESH_HASH, "dense-trace mesh hash {one:#018x} drifted");
}
