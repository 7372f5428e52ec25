//! Property: admission control is airtight. Whatever interleaving of
//! packet-ins, deployment wakeups and replica crashes the controller is
//! driven through, the booked allocation at a capacity-constrained site
//! never exceeds the site's declared [`SiteCapacity`] — not transiently
//! between wakeups, not at quiescence — and the `capacity_violations`
//! counter (incremented by any booking that lands past the budget) stays 0.
//!
//! The schedule deliberately mixes the paths that book and release
//! resources: first-request deploys (book at machine start), crash
//! recoveries mid-probe (the booking must survive the re-issued scale-up
//! without double-counting), failed machines (release), and repeat requests
//! after readiness (admission short-circuit on the existing deployment).

use cluster::{DockerCluster, ServiceTemplate, SiteCapacity};
use containers::Runtime;
use proptest::prelude::*;

use super::test_support::registries;
use crate::controller::INGRESS;
use crate::scheduler::NearestWaiting;
use crate::{ClusterId, Controller, ControllerConfig};
use simcore::{DurationDist, SimDuration, SimRng, SimTime};
use simnet::openflow::{BufferId, PortId};
use simnet::{IpAddr, Packet, SocketAddr};

const CLOUD_PORT: PortId = PortId(0);
const CLIENT_PORT: PortId = PortId(1);
const DOCKER_PORT: PortId = PortId(2);
const SERVICES: usize = 3;
const EDGE: ClusterId = ClusterId(0);

fn controller(backend_seed: u64, capacity: SiteCapacity) -> Controller {
    let rng = SimRng::seed_from_u64(backend_seed);
    let docker = DockerCluster::new(
        "edge-docker",
        IpAddr::new(10, 0, 0, 100),
        Runtime::egs(rng.stream("rt")),
        rng.stream("docker"),
    );
    let mut c = Controller::builder(ControllerConfig::default())
        .global(NearestWaiting)
        .registries(registries())
        .cloud_port(CLOUD_PORT)
        .build();
    c.attach_cluster(Box::new(docker), SimDuration::from_micros(300), DOCKER_PORT);
    c.configure_site(EDGE, capacity, Vec::new());
    for s in 0..SERVICES {
        c.catalog.register(
            SocketAddr::new(IpAddr::new(93, 184, 0, s as u8 + 1), 80),
            ServiceTemplate::single(
                format!("svc-{s}"),
                "nginx:1.23.2",
                80,
                DurationDist::constant_ms(110.0),
            ),
        );
    }
    c
}

/// One generated step: advance `dt_ms`, optionally crash a service's
/// replicas first, then send a client request for `service`.
type Step = (u64, u8, usize, bool);

fn run_schedule(
    cpu_capacity: u32,
    max_replicas: u32,
    backend_seed: u64,
    schedule: &[Step],
) -> Result<(), TestCaseError> {
    let capacity = SiteCapacity::new(cpu_capacity, 4_096).with_max_replicas(max_replicas);
    let mut c = controller(backend_seed, capacity);
    let within = |c: &Controller| !c.site_allocation(EDGE).exceeds(&capacity);

    let mut now = SimTime::ZERO;
    let mut tag = 0u64;
    for &(dt_ms, client, service, crash) in schedule {
        now += SimDuration::from_millis(dt_ms);
        // Pump every wakeup due before this step lands, checking the books
        // after each one — the invariant must hold *between* machine phases,
        // not just at quiescence.
        while let Some(w) = c.next_wakeup() {
            if w > now {
                break;
            }
            c.on_wakeup_into(w, &mut Vec::new());
            prop_assert!(within(&c), "overbooked after wakeup at {w}");
        }
        if crash {
            let _ = c
                .cluster_mut(EDGE)
                .inject_crash(now, &format!("svc-{service}"));
        }
        tag += 1;
        let packet = Packet::syn(
            SocketAddr::new(IpAddr::new(10, 1, 0, client), 40_000),
            SocketAddr::new(IpAddr::new(93, 184, 0, service as u8 + 1), 80),
            tag,
        );
        c.on_packet_in_at_into(
            now,
            INGRESS,
            packet,
            BufferId(tag),
            CLIENT_PORT,
            &mut Vec::new(),
        );
        prop_assert!(within(&c), "overbooked after packet-in at {now}");
    }
    // Drain: let every in-flight machine finish (or die), still checking.
    let mut guard = 0;
    while !c.in_flight_deployments().is_empty() {
        let Some(w) = c.next_wakeup() else { break };
        c.on_wakeup_into(w, &mut Vec::new());
        prop_assert!(within(&c), "overbooked during drain at {w}");
        guard += 1;
        prop_assert!(guard < 10_000, "drain did not terminate");
    }
    prop_assert_eq!(c.stats.capacity_violations, 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No interleaving of deploys, crash recoveries and repeat requests can
    /// push a site past its declared capacity.
    #[test]
    fn no_interleaving_overbooks_a_site(
        cpu_capacity in 100u32..1_000,
        max_replicas in 1u32..4,
        backend_seed in 0u64..1_000,
        schedule in proptest::collection::vec(
            (0u64..3_000, 1u8..5, 0usize..SERVICES, any::<bool>()),
            1..32,
        ),
    ) {
        run_schedule(cpu_capacity, max_replicas, backend_seed, &schedule)?;
    }
}

/// Mutation validation: the property is *sensitive* — a site that books
/// more than it admits (here: a capacity lowered after bookings were made,
/// emulating a booking path that skipped admission) must be caught by the
/// same `exceeds` predicate the property relies on.
#[test]
fn the_books_detect_an_overbooked_site() {
    let generous = SiteCapacity::new(10_000, 65_536);
    let mut c = controller(42, generous);
    let packet = Packet::syn(
        SocketAddr::new(IpAddr::new(10, 1, 0, 1), 40_000),
        SocketAddr::new(IpAddr::new(93, 184, 0, 1), 80),
        1,
    );
    c.on_packet_in_at_into(
        SimTime::ZERO,
        INGRESS,
        packet,
        BufferId(1),
        CLIENT_PORT,
        &mut Vec::new(),
    );
    let allocated = c.site_allocation(EDGE);
    assert!(allocated.replicas > 0, "the deploy must have booked");
    let tiny = SiteCapacity::new(allocated.cpu_millis as u32 - 1, 65_536);
    assert!(
        allocated.exceeds(&tiny),
        "an allocation past the budget must be visible to the invariant"
    );
}
