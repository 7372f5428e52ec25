//! What the run holds per request, in heap: the ingress shard keeps state
//! only for requests whose SYN is buffered at the switch, and a completed
//! request is stored in 24 bytes.
//!
//! One `#[test]` in a binary of its own: the byte counter is process-wide,
//! so nothing else may allocate while a reading is taken.

use cluster::ClusterKind;
use simcore::alloc_count::live_bytes;
use simcore::SimRng;
use testbed::{ScenarioConfig, SiteSpec, Testbed};
use workload::client::Records;
use workload::{Trace, TraceConfig};

#[test]
fn run_state_follows_the_requests_in_flight() {
    // The cityscale 10x tier: 17 080 requests to 420 services from 200
    // clients, one Docker EGS.
    let scale = 10;
    let mut trace_rng = SimRng::seed_from_u64(42 ^ 0xB16F_1085);
    let trace = Trace::generate(TraceConfig::scaled(scale), &mut trace_rng);
    let requests = trace.requests.len();
    let cfg = ScenarioConfig {
        seed: 42,
        clients: trace.config.clients,
        sites: vec![(
            SiteSpec::egs("egs-0").with_nodes(scale),
            ClusterKind::Docker,
        )],
        ..ScenarioConfig::default()
    };
    let result = Testbed::build(cfg, trace.service_addrs.clone()).run_trace(&trace);
    assert_eq!(result.records.len() as u64 + result.lost, requests as u64);

    // Every service's first requests wait out a deployment at the switch,
    // and nothing else is held: the in-flight slab peaks far below one lane
    // per request.
    assert!(
        result.peak_in_flight * 100 < requests,
        "{} requests in flight at once out of {requests}",
        result.peak_in_flight
    );
    assert!(
        result.peak_in_flight > 0,
        "cold services hold their first SYNs"
    );

    eprintln!(
        "in-flight slab peak: {} lanes for {requests} requests",
        result.peak_in_flight
    );

    // A completed request costs 24 bytes of heap.
    if cfg!(not(feature = "counting-alloc")) {
        eprintln!("counting-alloc feature off; record bytes not measurable");
        return;
    }
    let before = live_bytes();
    let copy: Records = result.records.iter().collect();
    assert_eq!(live_bytes() - before, 24 * copy.len() as u64);
    assert!(copy == result.records);
}
