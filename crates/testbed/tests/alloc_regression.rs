//! Allocation-budget regression gate for the hot path (DESIGN.md §5i).
//!
//! The city-scale benchmark's headline claim is that steady-state request
//! processing stays within a fixed heap-allocation budget: fewer than
//! **8 allocations per request** across the whole `run_trace` call
//! (pre-warm + scheduling + event loop), measured with simcore's
//! workspace-wide counting allocator. This test pins that budget in
//! `cargo test` so a regression shows up before the bench is re-run.
//! Optimized builds are also held to a sharp event-loop budget, under one
//! allocation per request, on the city tier and on a three-tier
//! `tier-spill` run, where every PacketIn schedules over three sites.
//!
//! Deliberately a single `#[test]` in its own integration-test binary: the
//! counting allocator is process-global, so a sibling test thread would
//! pollute the before/after snapshots. One test = one thread = clean delta.

use cluster::{ClusterKind, SiteCapacity};
use edgectl::SchedulerSpec;
use simcore::{SimDuration, SimRng};
use testbed::sim::AllocProfile;
use testbed::{ScenarioConfig, SiteSpec, Testbed};
use workload::{Trace, TraceConfig};

/// The pinned budget, per build profile. Optimized builds — the profile the
/// bench and the headline claim are measured in — currently sit at ~0.6
/// allocations/request (BENCH_cityscale.json); 8 leaves headroom for benign
/// drift while still catching any per-request `Vec`/`String`/boxing leak —
/// one stray `format!` or `to_vec` per request blows straight past it.
/// Debug builds measure more for two structural reasons: the optimizer is
/// what elides the short-lived scratch allocations (rustc marks allocation
/// calls removable, but only optimized builds take the offer), and
/// `debug_assertions` enables check-on-install hooks (flow-pair shadowing
/// probes) that do their own bookkeeping. Debug currently measures ~23 per
/// request, so its budget is a coarse leak gate rather than the sharp one.
const ALLOCS_PER_REQUEST_BUDGET: f64 = if cfg!(debug_assertions) { 32.0 } else { 8.0 };

/// The sharp event-loop budget of optimized builds (both runs measure
/// ≈ 0.28): a PacketIn builds one scheduler view per attached site and a
/// table hit allocates nothing, so an allocation per PacketIn, per site or
/// per SYN lands above it.
const LOOP_BUDGET: f64 = 1.0;

/// Run `trace` under `cfg`; returns the run's allocations per request and
/// its phase profile.
fn allocs_per_request(cfg: ScenarioConfig, trace: &Trace) -> (f64, AllocProfile) {
    let testbed = Testbed::build(cfg, trace.service_addrs.clone());
    let before = simcore::alloc_count::total();
    let result = testbed.run_trace(trace);
    let allocs = simcore::alloc_count::total() - before;
    let profile = result
        .alloc_profile
        .expect("counting-alloc is on, profile must be populated");
    (allocs as f64 / trace.requests.len() as f64, profile)
}

/// The bench's capacity-constrained continuum (`bench --bin sched`): a
/// small near edge, a metro EGS and a regional site, scaled by `scale`.
fn three_tiers(scale: usize) -> Vec<(SiteSpec, ClusterKind)> {
    let cpu = |millis: u32| millis * scale as u32;
    let mem = |mib: u64| mib * scale as u64;
    let near = SiteSpec {
        labels: vec!["tier:near".into()],
        ..SiteSpec::pi("near-edge", SimDuration::from_micros(200))
            .with_nodes(2 * scale)
            .with_capacity(
                SiteCapacity::new(cpu(2_000), mem(3_072)).with_max_replicas(10 * scale as u32),
            )
    };
    let metro = SiteSpec {
        latency: SimDuration::from_millis(2),
        labels: vec!["tier:metro".into()],
        ..SiteSpec::egs("metro-egs")
    }
    .with_nodes(scale)
    .with_capacity(SiteCapacity::new(cpu(8_000), mem(16_384)).with_max_replicas(40 * scale as u32));
    let regional = SiteSpec {
        latency: SimDuration::from_millis(8),
        labels: vec!["tier:regional".into()],
        ..SiteSpec::egs("regional-dc")
    }
    .with_nodes(4 * scale)
    .with_capacity(SiteCapacity::new(cpu(64_000), mem(131_072)));
    [near, metro, regional]
        .into_iter()
        .map(|site| (site, ClusterKind::Docker))
        .collect()
}

#[test]
fn steady_state_allocs_per_request_stay_under_budget() {
    if cfg!(not(feature = "counting-alloc")) {
        eprintln!("counting-alloc feature off; alloc budget not measurable");
        return;
    }

    // The bench's 10x tier, byte-for-byte: same seed, same scaled trace,
    // same scaled site. Big enough that per-request costs dominate fixed
    // setup noise, small enough for a debug-profile test run.
    let scale = 10;
    let trace_cfg = TraceConfig::scaled(scale);
    let mut trace_rng = SimRng::seed_from_u64(42 ^ 0xB16F_1085);
    let trace = Trace::generate(trace_cfg, &mut trace_rng);
    let requests = trace.requests.len() as f64;

    let city = ScenarioConfig {
        seed: 42,
        clients: trace.config.clients,
        sites: vec![(
            SiteSpec::egs("egs-0").with_nodes(scale),
            ClusterKind::Docker,
        )],
        ..ScenarioConfig::default()
    };
    let spill = ScenarioConfig {
        sites: three_tiers(scale),
        scheduler: SchedulerSpec::tier_spill(),
        ..city.clone()
    };

    let (per_request, profile) = allocs_per_request(city, &trace);
    assert!(
        per_request < ALLOCS_PER_REQUEST_BUDGET,
        "allocation budget blown: {per_request:.2} allocations per request \
         (budget {ALLOCS_PER_REQUEST_BUDGET}); phases: prewarm={} schedule={} \
         event_loop={}",
        profile.prewarm,
        profile.schedule,
        profile.event_loop,
    );

    // The event loop itself (between the first and last simulated event) is
    // the lane the arena/SoA work flattened — hold it to the same budget so
    // a regression can't hide behind a cheap setup phase.
    let loop_per_request = profile.event_loop as f64 / requests;
    assert!(
        loop_per_request < ALLOCS_PER_REQUEST_BUDGET,
        "event-loop allocation budget blown: {} allocations / {requests} \
         requests = {loop_per_request:.2} per request (budget {ALLOCS_PER_REQUEST_BUDGET})",
        profile.event_loop,
    );

    let (_, spill_profile) = allocs_per_request(spill, &trace);
    let spill_per_request = spill_profile.event_loop as f64 / requests;
    eprintln!(
        "event-loop allocations per request: city {loop_per_request:.3}, \
         tier-spill {spill_per_request:.3}"
    );
    if cfg!(debug_assertions) {
        assert!(
            spill_per_request < ALLOCS_PER_REQUEST_BUDGET,
            "tier-spill event-loop allocation budget blown: {spill_per_request:.2} \
             per request (budget {ALLOCS_PER_REQUEST_BUDGET})",
        );
        return;
    }
    assert!(
        loop_per_request < LOOP_BUDGET,
        "event-loop allocations: {loop_per_request:.3} per request (budget \
         {LOOP_BUDGET} in optimized builds)",
    );
    assert!(
        spill_per_request < LOOP_BUDGET,
        "tier-spill event-loop allocations: {spill_per_request:.3} per request \
         (budget {LOOP_BUDGET} in optimized builds)",
    );
}
