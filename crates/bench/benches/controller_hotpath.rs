//! Benchmarks of the controller's decision paths: the FlowMemory fast path
//! (a PacketIn answered from memory), the scheduler decision, and FlowMemory
//! churn (remember/recall/expire). The two PacketIn cases run once per kind
//! of site the `BENCHMARK.json` workloads attach — bare Docker, Kubernetes
//! (`churn_k8s`) and a mesh shard's `SharedBackend` view of Docker
//! (`mesh_4x2`) — since all three read backend state through the same
//! snapshot cache. `controller_packet_in_cold_catalog` is the ready-instance
//! PacketIn at `city_1000x`'s population, where per-service and per-client
//! state no longer fits in cache. Every PacketIn goes through
//! `on_packet_in_at_into` with one reused output buffer, as the event loops
//! drive it.

use cluster::{ClusterBackend, DockerCluster, K8sCluster, K8sTimings, ServiceTemplate};
use containers::image::synthesize_layers;
use containers::{CostModel, ImageManifest, Runtime};
use criterion::{criterion_group, criterion_main, Criterion};
use edgectl::controller::INGRESS;
use edgectl::scheduler::NearestWaiting;
use edgectl::{ClusterId, Controller, ControllerConfig, FlowKey, FlowMemory};
use edgemesh::shared::{share, SharedBackend};
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

fn service_addr(i: u8) -> SocketAddr {
    SocketAddr::new(IpAddr::new(93, 184, 0, i), 80)
}

/// The kinds of site a PacketIn case runs against, with the suffix its
/// benchmark name carries (bare Docker keeps the historical names).
const SITES: [(Site, &str); 3] = [
    (Site::Docker, ""),
    (Site::K8s, "_k8s"),
    (Site::SharedDocker, "_shared_docker"),
];

#[derive(Clone, Copy)]
enum Site {
    Docker,
    K8s,
    SharedDocker,
}

fn backend(site: Site) -> Box<dyn ClusterBackend> {
    let rng = SimRng::seed_from_u64(1);
    let ip = IpAddr::new(10, 0, 0, 100);
    let docker = || {
        DockerCluster::new(
            "egs",
            ip,
            Runtime::egs(rng.stream("rt")),
            rng.stream("docker"),
        )
    };
    match site {
        Site::Docker => Box::new(docker()),
        Site::K8s => Box::new(K8sCluster::new(
            "egs",
            ip,
            Runtime::egs(rng.stream("rt")),
            rng.stream("k8s"),
            K8sTimings::egs(),
        )),
        Site::SharedDocker => Box::new(SharedBackend::new(share(Box::new(docker())), |_, _| {})),
    }
}

/// A controller with a warm, ready nginx service on a `site` cluster.
fn warm_controller(site: Site) -> (Controller, SimTime) {
    let mut c = Controller::builder(ControllerConfig::default())
        .global(NearestWaiting)
        .registries(registries())
        .cloud_port(PortId(0))
        .build();
    c.attach_cluster(backend(site), SimDuration::from_micros(300), PortId(2));
    let tpl = ServiceTemplate::single(
        "edge-nginx",
        "nginx:1.23.2",
        80,
        DurationDist::constant_ms(100.0),
    );
    c.catalog.register(service_addr(1), tpl.clone());
    let regs = registries();
    let t = c
        .cluster_mut(ClusterId(0))
        .pull(SimTime::ZERO, &tpl, &regs)
        .unwrap();
    let t = c.cluster_mut(ClusterId(0)).create(t, &tpl).unwrap();
    let warm = c
        .cluster_mut(ClusterId(0))
        .scale_up(t, "edge-nginx", 1)
        .unwrap()
        .expected_ready
        + SimDuration::from_secs(1);
    (c, warm)
}

fn bench_packet_in_ready_instance(c: &mut Criterion) {
    for (site, suffix) in SITES {
        c.bench_function(
            &format!("controller_packet_in_ready_instance{suffix}"),
            |b| {
                let (mut ctl, warm) = warm_controller(site);
                let mut tag = 0u64;
                let mut out = Vec::new();
                b.iter(|| {
                    tag += 1;
                    // vary client so the memory fast path isn't hit
                    let client = IpAddr::new(10, 1, ((tag >> 8) & 0xff) as u8, (tag & 0xff) as u8);
                    let p = Packet::syn(SocketAddr::new(client, 40000), service_addr(1), tag);
                    out.clear();
                    ctl.on_packet_in_at_into(warm, INGRESS, p, BufferId(tag), PortId(5), &mut out);
                    std::hint::black_box(out.len())
                });
            },
        );
    }
}

/// Services and clients of the cold-catalog case: `city_1000x`'s population.
const CITY_SERVICES: usize = 42_000;
const CITY_CLIENTS: usize = 20_000;

fn city_service_addr(i: usize) -> SocketAddr {
    SocketAddr::new(
        IpAddr::new(93, 184 + (i >> 16) as u8, (i >> 8) as u8, i as u8),
        80,
    )
}

/// A controller with [`CITY_SERVICES`] registered services, each with a
/// ready instance on one Docker cluster large enough to run them all.
fn city_controller() -> (Controller, SimTime) {
    let mut c = Controller::builder(ControllerConfig::default())
        .global(NearestWaiting)
        .registries(registries())
        .cloud_port(PortId(0))
        .build();
    let rng = SimRng::seed_from_u64(1);
    let runtime = Runtime::new(CostModel::egs(), rng.stream("rt"), u32::MAX, u64::MAX);
    let docker = DockerCluster::new(
        "egs",
        IpAddr::new(10, 0, 0, 100),
        runtime,
        rng.stream("docker"),
    );
    c.attach_cluster(Box::new(docker), SimDuration::from_micros(300), PortId(2));
    let regs = registries();
    let mut t = SimTime::ZERO;
    for i in 0..CITY_SERVICES {
        let tpl = ServiceTemplate::single(
            format!("svc-{i:05}"),
            "nginx:1.23.2",
            80,
            DurationDist::constant_ms(100.0),
        );
        c.catalog.register(city_service_addr(i), tpl.clone());
        let cluster = c.cluster_mut(ClusterId(0));
        t = cluster.pull(t, &tpl, &regs).unwrap();
        t = cluster.create(t, &tpl).unwrap();
        t = cluster.scale_up(t, &tpl.name, 1).unwrap().expected_ready;
    }
    (c, t + SimDuration::from_secs(1))
}

/// A PacketIn at city scale: a seeded uniform `(client, service)` draw over
/// 20 000 clients and 42 000 registered services, each ready on the one
/// Docker site. Unlike the one-service case above, the catalog entry, the
/// service's FlowMemory chains and the client's location are cold in cache,
/// as they are at `city_1000x`.
fn bench_packet_in_cold_catalog(c: &mut Criterion) {
    c.bench_function("controller_packet_in_cold_catalog", |b| {
        let (mut ctl, warm) = city_controller();
        let mut rng = SimRng::seed_from_u64(7);
        let mut tag = 0u64;
        let mut out = Vec::new();
        b.iter(|| {
            tag += 1;
            let client = rng.index(CITY_CLIENTS);
            let ip = IpAddr::new(10, 1, (client / 250) as u8, (client % 250 + 1) as u8);
            let service = city_service_addr(rng.index(CITY_SERVICES));
            let p = Packet::syn(SocketAddr::new(ip, 40000), service, tag);
            out.clear();
            ctl.on_packet_in_at_into(warm, INGRESS, p, BufferId(tag), PortId(5), &mut out);
            std::hint::black_box(out.len())
        });
    });
}

fn bench_packet_in_memory_hit(c: &mut Criterion) {
    for (site, suffix) in SITES {
        c.bench_function(&format!("controller_packet_in_memory_hit{suffix}"), |b| {
            let (mut ctl, warm) = warm_controller(site);
            let client = IpAddr::new(10, 1, 0, 1);
            // prime the memory
            let p = Packet::syn(SocketAddr::new(client, 40000), service_addr(1), 0);
            let mut out = Vec::new();
            ctl.on_packet_in_at_into(warm, INGRESS, p, BufferId(0), PortId(5), &mut out);
            let mut tag = 1u64;
            b.iter(|| {
                tag += 1;
                let p = Packet::syn(SocketAddr::new(client, 40000), service_addr(1), tag);
                out.clear();
                ctl.on_packet_in_at_into(
                    warm + SimDuration::from_millis(tag),
                    INGRESS,
                    p,
                    BufferId(tag),
                    PortId(5),
                    &mut out,
                );
                std::hint::black_box(out.len())
            });
        });
    }
}

fn bench_flow_memory_churn(c: &mut Criterion) {
    c.bench_function("flow_memory_remember_recall_1k", |b| {
        b.iter_batched(
            || FlowMemory::new(SimDuration::from_secs(60)).unwrap(),
            |mut m| {
                let target = SocketAddr::new(IpAddr::new(10, 0, 0, 100), 8000);
                for i in 0..1024u32 {
                    let key = FlowKey {
                        client_ip: IpAddr::new(10, 1, (i >> 8) as u8, (i & 0xff) as u8),
                        service_addr: service_addr((i % 42) as u8),
                    };
                    m.remember(
                        SimTime::ZERO,
                        key,
                        edgectl::ServiceId(0),
                        target,
                        Some(ClusterId(0)),
                    );
                }
                let mut hits = 0;
                for i in 0..1024u32 {
                    let key = FlowKey {
                        client_ip: IpAddr::new(10, 1, (i >> 8) as u8, (i & 0xff) as u8),
                        service_addr: service_addr((i % 42) as u8),
                    };
                    if m.recall(SimTime::ZERO + SimDuration::from_secs(1), key)
                        .is_some()
                    {
                        hits += 1;
                    }
                }
                std::hint::black_box(hits)
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_packet_in_ready_instance,
    bench_packet_in_cold_catalog,
    bench_packet_in_memory_hit,
    bench_flow_memory_churn
);
criterion_main!(benches);
