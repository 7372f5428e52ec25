//! The controller's wakeup surface as the event loop pays for it: one
//! `next_wakeup()` (the re-arm after every event) plus one `on_wakeup` with
//! nothing due (a superseded wakeup firing), with 10 / 1 000 / 10 000
//! services scaled to zero awaiting the Remove phase and 1 / 100 / 1 000
//! deployment machines in flight. Both calls read heads of time-ordered
//! structures, so the rows should be flat across the grid.

use cluster::{DockerCluster, ServiceTemplate};
use containers::image::synthesize_layers;
use containers::{CostModel, ImageManifest, Runtime};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use edgectl::{ClusterId, Controller, ControllerConfig, NearestWaiting};
use registry::{Registry, RegistryProfile, RegistrySet};
use simcore::{DurationDist, SimDuration, SimRng, SimTime};
use simnet::openflow::{BufferId, PortId};
use simnet::{IpAddr, Packet, SocketAddr};

fn registries() -> RegistrySet {
    let mut hub = Registry::new(RegistryProfile::docker_hub());
    hub.publish(ImageManifest::new(
        "nginx:1.23.2",
        synthesize_layers(1, 141_000_000, 6),
    ));
    let mut s = RegistrySet::new();
    s.add(hub);
    s
}

fn service_addr(i: usize) -> SocketAddr {
    SocketAddr::new(IpAddr::new(93, 184, (i >> 8) as u8, i as u8), 80)
}

fn template(i: usize) -> ServiceTemplate {
    ServiceTemplate::single(
        format!("svc-{i:05}"),
        "nginx:1.23.2",
        80,
        DurationDist::constant_ms(100.0),
    )
}

fn packet_in(c: &mut Controller, now: SimTime, service: usize) {
    let client = SocketAddr::new(
        IpAddr::new(10, 1, (service >> 8) as u8, service as u8),
        40_000,
    );
    let packet = Packet::syn(client, service_addr(service), service as u64);
    c.on_packet_in(now, packet, BufferId(service as u64), PortId(5));
}

/// A controller with `zero` services scaled to zero (each served one flow,
/// the flow expired, housekeeping scaled the instance down; the Remove
/// deadline is an hour out) and `machines` deployments in flight, each
/// holding one request. Returns it with an instant at which nothing is due.
fn controller(zero: usize, machines: usize) -> (Controller, SimTime) {
    let config = ControllerConfig {
        memory_idle_timeout: SimDuration::from_secs(30),
        remove_after: Some(SimDuration::from_secs(3_600)),
        ..ControllerConfig::default()
    };
    let mut c = Controller::builder(config)
        .global(NearestWaiting)
        .registries(registries())
        .cloud_port(PortId(0))
        .build();
    let rng = SimRng::seed_from_u64(1);
    // A site large enough to hold every service at once.
    let runtime = Runtime::new(CostModel::egs(), rng.stream("rt"), u32::MAX, u64::MAX / 2);
    c.attach_cluster(
        Box::new(DockerCluster::new(
            "egs",
            IpAddr::new(10, 0, 0, 100),
            runtime,
            rng.stream("docker"),
        )),
        SimDuration::from_micros(300),
        PortId(2),
    );
    for i in 0..zero + machines {
        c.catalog.register(service_addr(i), template(i));
    }

    // Ready instances of the first `zero` services, one memorized flow each.
    let regs = registries();
    let mut warm = SimTime::ZERO;
    for i in 0..zero {
        let tpl = template(i);
        let backend = c.cluster_mut(ClusterId(0));
        let t = backend.pull(SimTime::ZERO, &tpl, &regs).unwrap();
        let t = backend.create(t, &tpl).unwrap();
        warm = warm.max(backend.scale_up(t, &tpl.name, 1).unwrap().expected_ready);
    }
    warm += SimDuration::from_secs(1);
    for i in 0..zero {
        packet_in(&mut c, warm, i);
    }
    // Let every flow expire: housekeeping scales the instances to zero.
    let idle = warm + SimDuration::from_secs(60);
    while let Some(at) = c.next_wakeup().filter(|&at| at <= idle) {
        c.on_wakeup(at);
    }
    assert_eq!(c.stats.scale_downs as usize, zero);

    // Cold services: each packet-in starts a machine and is held on it.
    for i in zero..zero + machines {
        packet_in(&mut c, idle, i);
    }
    assert_eq!(c.in_flight_deployments(idle).len(), machines);
    assert!(c.next_wakeup().is_some_and(|at| at > idle));
    (c, idle)
}

fn bench_wakeup_surface(c: &mut Criterion) {
    let mut group = c.benchmark_group("wakeup_surface");
    for zero in [10, 1_000, 10_000] {
        for machines in [1, 100, 1_000] {
            let (mut ctl, now) = controller(zero, machines);
            let mut out = Vec::new();
            group.bench_with_input(
                BenchmarkId::new("next_wakeup+noop_on_wakeup", format!("{zero}z/{machines}m")),
                &now,
                |b, &now| {
                    b.iter(|| {
                        let next = ctl.next_wakeup();
                        ctl.on_wakeup_into(now, &mut out);
                        std::hint::black_box((next, out.len()))
                    });
                },
            );
            assert!(out.is_empty(), "nothing was due");
        }
    }
    group.finish();
}

criterion_group!(benches, bench_wakeup_surface);
criterion_main!(benches);
