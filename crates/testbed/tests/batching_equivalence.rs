//! Model-based equivalence test of the same-instant PacketIn batch drain
//! (DESIGN.md §5i).
//!
//! The ingress core (`testbed::ingress`) drains every further PacketIn
//! queued at the *same instant* in one sweep, amortizing the sweep check and
//! the feed/queue selection across the batch. The claimed contract: the
//! batched schedule is **behaviourally identical** to the reference
//! one-event-per-iteration loop — the canonical metrics trace (every
//! measured time, counter and deployment) is byte-for-byte the same string.
//! Both drivers of the core are inputs: the single-controller `Testbed` and
//! the windowed mesh engine at two shards, whose trace additionally hashes
//! the executed-event, window and stall counts — a batch that elided or
//! added one `Wakeup` push would show there.
//!
//! Traces here are hand-dense on purpose: millisecond-granularity arrival
//! times drawn from a tiny set of instants, with a small client pool, so
//! many SYNs reach the switch at exactly the same instant (same client +
//! same trace time ⇒ same switch-arrival time) and the batch path actually
//! drains multi-packet runs instead of degenerating to batches of one.
//!
//! The final test is a mutation check: `debug_reverse_batches` processes
//! each batch in reverse order, and the trace MUST differ — proving the
//! property is sharp enough to notice a reordering bug, not vacuously true.

use edgemesh::par::{run_windowed_hooked, TestHooks};
use proptest::prelude::*;
use simcore::{SimDuration, SimTime};
use simnet::{IpAddr, SocketAddr};
use testbed::{MeshParams, ScenarioConfig, Testbed};
use workload::{Trace, TraceConfig, TraceRequest};

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

/// Run the trace through a fresh default-scenario testbed and return the
/// canonical metrics trace.
fn run(trace: &Trace, unbatched: bool, reversed: bool) -> String {
    let cfg = ScenarioConfig {
        seed: 7,
        clients: trace.config.clients,
        ..ScenarioConfig::default()
    };
    let mut testbed = Testbed::build(cfg, trace.service_addrs.clone());
    testbed.debug_schedule(unbatched, reversed);
    testbed.run_trace(trace).metrics_trace()
}

/// The same trace through the windowed engine at two shards; the canonical
/// mesh trace, `events=` / `windows=` / `stalls=` header included.
fn run_windowed(trace: &Trace, unbatched: bool, reversed: bool) -> String {
    let cfg = ScenarioConfig {
        seed: 7,
        clients: trace.config.clients,
        mesh: MeshParams {
            shards: 2,
            ..MeshParams::default()
        },
        ..ScenarioConfig::default()
    };
    let hooks = TestHooks {
        unbatched,
        reverse_batches: reversed,
        ..TestHooks::default()
    };
    run_windowed_hooked(cfg, trace, 1, hooks).0.mesh_trace()
}

proptest! {
    // Each case runs the full simulation twice; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched and one-event-per-iteration schedules produce byte-identical
    /// metrics traces on arbitrarily dense same-instant workloads.
    #[test]
    fn batched_drain_matches_unbatched_reference(
        // Times from {0..5} ms, 4 services, 2 clients: with up to 24
        // requests over 6 instants, most instants carry same-client
        // multi-packet collisions.
        triples in prop::collection::vec((0u64..5, 0usize..4, 0usize..2), 1..24),
    ) {
        let trace = dense_trace(&triples, 4, 2);
        let batched = run(&trace, false, false);
        let unbatched = run(&trace, true, false);
        prop_assert_eq!(batched, unbatched);
        let batched = run_windowed(&trace, false, false);
        let unbatched = run_windowed(&trace, true, false);
        prop_assert_eq!(batched, unbatched);
    }
}

/// A deliberately order-sensitive workload: one client fires SYNs to two
/// *fresh* services at the exact same instant. Whichever packet is handled
/// first triggers its deployment first, so reversing the batch swaps the
/// order of the two deployment records — the metrics trace must change.
/// If this test ever passes with equal traces, the equivalence property
/// above has gone vacuous (the batch path stopped exercising ordering).
#[test]
fn reversed_batches_are_detected_by_the_metrics_trace() {
    let triples = [
        // t=0: client 0 hits services 0 and 1 back-to-back (one batch).
        (0, 0, 0),
        (0, 1, 0),
        // A second dense wave while both deployments are in flight.
        (2, 0, 0),
        (2, 1, 0),
    ];
    let trace = dense_trace(&triples, 2, 1);

    let batched = run(&trace, false, false);
    let reversed = run(&trace, false, true);
    assert_ne!(
        batched, reversed,
        "reversing same-instant batches must change the canonical trace"
    );

    // And the reference loop agrees with the *forward* batch order.
    let unbatched = run(&trace, true, false);
    assert_eq!(batched, unbatched);

    // The windowed engine runs the same core: the client's home shard sees
    // the same batches, so the reversal must show in the mesh trace too.
    let batched = run_windowed(&trace, false, false);
    let reversed = run_windowed(&trace, false, true);
    assert_ne!(
        batched, reversed,
        "reversing same-instant batches must change the mesh trace"
    );
    assert_eq!(batched, run_windowed(&trace, true, false));
}
