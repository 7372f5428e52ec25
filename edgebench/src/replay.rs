//! Replay drivers: each drives one layer's public API alone, at the op count
//! and state size the traced run's counters report, inside a span, and
//! returns host nanoseconds per operation. An estimate from outside the
//! program: `share_est = ns_per_op × ops ÷ CPU seconds of the run call`, and
//! whatever the drivers do not explain is `testbed.unattributed_share`.
//!
//! A driver with no operations to replay (a counter of 0 — the layer did no
//! work on this workload) reports 0.

use std::hint::black_box;

use cluster::{
    ClusterBackend, ClusterKind, DockerCluster, K8sCluster, K8sTimings, ServiceStatus,
    ServiceTemplate,
};
use containers::{CostModel, Runtime};
use edgectl::controller::INGRESS;
use edgectl::{
    ClusterId, ClusterView, Controller, ControllerOutput, DeployGate, FlowKey, FlowMemory,
    RoundRobinLocal, SchedulerRegistry, SchedulingContext, ServiceId,
};
use edgemesh::LeaseTable;
use simcore::{EventQueue, ShardActor, ShardCrew, SimDuration, SimRng, SimTime};
use simnet::openflow::{BufferId, FlowSpec, PacketVerdict, Switch};
use simnet::{IpAddr, Packet, SocketAddr};
use testbed::topology::NodeClass;
use testbed::{C3Topology, ScenarioConfig, SiteSpec, CLOUD_PORT};
use workload::{ServiceProfile, Trace};

use crate::measure::Counters;
use crate::span::Spans;

/// Ceiling on the operations a driver replays: the per-op cost is what is
/// reported, and the share estimate multiplies it by the real count.
const MAX_OPS: u64 = 1_000_000;
/// Ceilings for the drivers whose single operation is itself expensive.
const MAX_PACKET_INS: u64 = 200_000;
const MAX_DEPLOYS: u64 = 2_000;
/// Services made ready for the packet-in replay, spread evenly over the
/// catalog so lookups touch all of it.
const MAX_READY_SERVICES: usize = 1_024;

/// Host nanoseconds per operation of `f`, which performs `ops` of them.
fn ns_per_op(spans: &mut Spans, name: &str, ops: u64, f: impl FnOnce()) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    let ((), secs) = spans.time(name, |_| f());
    secs * 1e9 / ops as f64
}

/// Mean number of distinct `(client, service)` pairs with a request in the
/// last `window` of sim time, sampled at 32 instants across the trace: the
/// flows an idle timeout of `window` keeps alive.
pub fn live_pairs(trace: &Trace, window: SimDuration) -> u64 {
    const SAMPLES: u64 = 32;
    let duration = trace.config.duration.as_nanos();
    // One pass over the time-sorted trace, keeping each pair's latest
    // request; a sample counts the pairs seen within the window before it.
    let mut last_seen: std::collections::HashMap<(usize, usize), u64> = Default::default();
    let mut requests = trace.requests.iter().peekable();
    let mut total = 0u64;
    for i in 1..=SAMPLES {
        let at = duration / SAMPLES * i;
        while let Some(r) = requests.next_if(|r| r.at.as_nanos() <= at) {
            last_seen.insert((r.client, r.service), r.at.as_nanos());
        }
        let from = at.saturating_sub(window.as_nanos());
        total += last_seen.values().filter(|&&seen| seen > from).count() as u64;
    }
    total / SAMPLES
}

/// `EventQueue::push`/`pop` pairs at the run's event count, holding the
/// queue at `depth` events whose timestamps spread like the run's (the
/// run's events spaced evenly over the trace duration).
pub fn queue(spans: &mut Spans, events: u64, depth: u64, duration: SimDuration, seed: u64) -> f64 {
    let ops = events.min(MAX_OPS);
    let depth = depth.max(1);
    let spread = (duration.as_nanos() / events.max(1)).max(1) * depth * 2;
    let mut rng = SimRng::seed_from_u64(seed).stream("replay-queue");
    let mut q = EventQueue::new();
    for i in 0..depth {
        q.push(
            SimTime::ZERO + SimDuration::from_nanos(rng.below(spread)),
            i,
        );
    }
    ns_per_op(spans, "replay.simcore.queue", ops, || {
        for _ in 0..ops {
            let (at, event) = q.pop().expect("queue holds `depth` events");
            q.push(at + SimDuration::from_nanos(1 + rng.below(spread)), event);
        }
        black_box(q.len());
    })
}

struct IdleShard;

impl ShardActor for IdleShard {
    type Cmd = ();
    type Report = ();
    type Final = ();
    fn run_window(&mut self, _cmd: ()) {}
    fn finish(self) {}
}

/// `ShardCrew` window barriers with actors that do nothing: the fan-out,
/// channel round trip and in-order collection a window costs by itself.
pub fn shard_crew(spans: &mut Spans, windows: u64, shards: usize, threads: usize) -> f64 {
    let ops = windows.min(MAX_OPS);
    if ops == 0 {
        return 0.0;
    }
    let mut crew = ShardCrew::spawn(shards, threads, |_| IdleShard);
    let ns = ns_per_op(spans, "replay.simcore.shard_crew", ops, || {
        for _ in 0..ops {
            black_box(crew.run_windows(vec![(); shards]));
        }
    });
    crew.finish();
    ns
}

fn site_backend(
    spec: &SiteSpec,
    kind: ClusterKind,
    ip: IpAddr,
    index: usize,
    cfg: &ScenarioConfig,
    rng: &SimRng,
) -> Box<dyn ClusterBackend> {
    // Same hardware model as `Testbed::build`: one aggregate runtime backed
    // by the site's node count.
    let nodes = spec.nodes.max(1) as u32;
    let runtime = match spec.class {
        NodeClass::Egs => Runtime::new(
            CostModel::egs(),
            rng.stream_indexed("rt", index),
            12_000 * nodes,
            32 * (1u64 << 30) * u64::from(nodes),
        ),
        NodeClass::RaspberryPi => Runtime::new(
            CostModel::raspberry_pi(),
            rng.stream_indexed("rt", index),
            4_000 * nodes,
            4 * (1u64 << 30) * u64::from(nodes),
        ),
    };
    match kind {
        ClusterKind::Kubernetes => Box::new(K8sCluster::new(
            format!("{}-k8s", spec.name),
            ip,
            runtime,
            rng.stream_indexed("k8s", index),
            cfg.k8s_timings.clone().unwrap_or_else(K8sTimings::egs),
        )),
        _ => Box::new(DockerCluster::new(
            format!("{}-docker", spec.name),
            ip,
            runtime,
            rng.stream_indexed("docker", index),
        )),
    }
}

fn service_template(cfg: &ScenarioConfig, index: usize) -> ServiceTemplate {
    let mut template = ServiceProfile::of(cfg.service).template;
    template.name = format!("{}-{index:02}", template.name);
    template
}

/// How many single-replica instances of `template` a site holds at once:
/// the smaller of its hardware (the runtime `site_backend` builds) and its
/// declared capacity. At least 1.
fn site_fits(site: &SiteSpec, template: &ServiceTemplate) -> u64 {
    let demand = template.resource_request();
    let node_cpu: u64 = match site.class {
        NodeClass::Egs => 12_000,
        NodeClass::RaspberryPi => 4_000,
    };
    (node_cpu * site.nodes.max(1) as u64 / u64::from(demand.cpu_millis))
        .min(u64::from(site.capacity.cpu_millis / demand.cpu_millis))
        .min(site.capacity.memory_mib / demand.memory_mib)
        .min(u64::from(site.capacity.max_replicas))
        .max(1)
}

/// Pull, create, scale to one replica and poll until ready — the backend
/// calls one on-demand deployment makes. Returns the ready instant.
fn deploy(
    backend: &mut dyn ClusterBackend,
    now: SimTime,
    template: &ServiceTemplate,
    registries: &registry::RegistrySet,
) -> SimTime {
    let pulled = backend
        .pull(now, template, registries)
        .expect("replay pull");
    let created = backend.create(pulled, template).expect("replay create");
    let receipt = backend
        .scale_up(created, &template.name, 1)
        .expect("replay scale-up");
    // The controller polls the port: once while it is still closed, once
    // when the backend expects it open.
    black_box(backend.is_ready(receipt.accepted_at, &template.name));
    black_box(backend.is_ready(receipt.expected_ready, &template.name));
    receipt.expected_ready
}

/// Host cost of one deployment through `ClusterBackend` on a site of the
/// workload's first site's size, for the given backend kind.
pub fn cluster_deploy(
    spans: &mut Spans,
    kind: ClusterKind,
    deployments: u64,
    cfg: &ScenarioConfig,
) -> f64 {
    let (spec, _) = &cfg.resolved_sites()[0];
    // Nothing is scaled down between replayed deployments, so no more of
    // them than the site holds at once.
    let ops = deployments
        .min(MAX_DEPLOYS)
        .min(site_fits(spec, &service_template(cfg, 0)));
    let rng = SimRng::seed_from_u64(cfg.seed);
    let mut backend = site_backend(spec, kind, IpAddr::new(10, 0, 0, 100), 0, cfg, &rng);
    let registries = workload::services::standard_registries(cfg.private_registry);
    let templates: Vec<ServiceTemplate> = (0..ops as usize)
        .map(|i| service_template(cfg, i))
        .collect();
    let name = match kind {
        ClusterKind::Kubernetes => "replay.cluster.k8s",
        _ => "replay.cluster.docker",
    };
    ns_per_op(spans, name, ops, || {
        let mut now = SimTime::ZERO;
        for template in &templates {
            now = deploy(backend.as_mut(), now, template, &registries);
        }
        black_box(now);
    })
}

/// What the controller and switch replay report.
#[derive(Debug, Default)]
pub struct ControlPath {
    pub ns_per_packet_in: f64,
    pub ns_per_wakeup: f64,
    pub ns_per_catalog_lookup: f64,
    pub ns_per_decide: f64,
    pub ns_per_hit: f64,
    pub ns_per_miss: f64,
    pub ns_per_install: f64,
    pub ns_per_expire_sweep: f64,
}

fn replay_client(i: u64) -> SocketAddr {
    // 172.16/12: disjoint from the testbed's client and site addresses.
    let ip = IpAddr::new(172, 16 + (i >> 16) as u8, (i >> 8) as u8, i as u8);
    SocketAddr::new(ip, 40_000)
}

/// The control path of a table miss, replayed layer by layer on a controller
/// built like the testbed's (the workload's sites, scheduler and catalog of
/// all its services): `Controller::on_packet_in` for fresh clients reaching
/// ready services, `on_wakeup` with nothing due, catalog lookups and the
/// Global Scheduler's `decide`; then the `FlowMod`s those packet-ins
/// produced are installed on a `Switch` holding the workload's live-flow
/// count and hit, missed and swept there.
pub fn control_path(
    spans: &mut Spans,
    c: &Counters,
    cfg: &ScenarioConfig,
    trace: &Trace,
) -> ControlPath {
    let misses = c.misses_to_replay();
    // Every request ends in a hit: at once, or when its released packet
    // passes through the table again.
    let hits = c.requests;
    let sites = cfg.resolved_sites();
    let c3 = C3Topology::build_sites(
        &sites.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>(),
        cfg.clients,
    );
    let rng = SimRng::seed_from_u64(cfg.seed);
    let registries = workload::services::standard_registries(cfg.private_registry);
    let scheduler = || {
        SchedulerRegistry::builtin()
            .create(&cfg.scheduler)
            .expect("the workload's scheduler is registered")
    };
    let mut controller = Controller::builder(cfg.controller.clone())
        .global(scheduler())
        .local(RoundRobinLocal::default())
        .registries(registries.clone())
        .cloud_port(CLOUD_PORT)
        .build();
    for (i, (spec, kind)) in sites.iter().enumerate() {
        let backend = site_backend(spec, *kind, c3.site_ips[i], i, cfg, &rng);
        let id = controller.attach_cluster(backend, c3.switch_site_latency(i), c3.site_port(i));
        controller.configure_site(id, spec.capacity, spec.labels.clone());
    }
    let templates: Vec<ServiceTemplate> = (0..trace.service_addrs.len())
        .map(|i| service_template(cfg, i))
        .collect();
    for (addr, template) in trace.service_addrs.iter().zip(&templates) {
        controller.catalog.register(*addr, template.clone());
    }

    // Ready instances on the nearest site for an evenly spread subset.
    let fits = site_fits(&sites[0].0, &templates[0]).min(MAX_READY_SERVICES as u64) as usize;
    let stride = templates.len().div_ceil(fits);
    let ready: Vec<usize> = (0..templates.len()).step_by(stride).collect();
    let mut now = SimTime::ZERO;
    for &s in &ready {
        let backend = controller.cluster_mut(ClusterId(0));
        now = now.max(deploy(backend, SimTime::ZERO, &templates[s], &registries));
    }
    now += SimDuration::from_secs(1);

    let packet_ins = misses.min(MAX_PACKET_INS);
    // Fill the switch from the first packet-ins' own FlowMods (untimed),
    // then time the rest with a reused output buffer, as the event loop does.
    let live_flows = 2 * live_pairs(trace, cfg.controller.switch_idle_timeout);
    let collect = (live_flows / 2).min(packet_ins);
    let step = SimDuration::from_micros(100);
    let mut out = Vec::new();
    let mut specs: Vec<FlowSpec> = Vec::new();
    let mut flows: Vec<Packet> = Vec::new();
    let packet_in = |controller: &mut Controller, i: u64, now: SimTime, out: &mut Vec<_>| {
        let dst = trace.service_addrs[ready[i as usize % ready.len()]];
        let packet = Packet::syn(replay_client(i), dst, i);
        controller.on_packet_in_at_into(now, INGRESS, packet, BufferId(i), c3.client_port(0), out);
        packet
    };
    for i in 0..collect {
        now += step;
        let packet = packet_in(&mut controller, i, now, &mut out);
        flows.push(packet);
        specs.extend(out.drain(..).filter_map(|o| match o {
            ControllerOutput::FlowMod { spec, .. } => Some(spec),
            _ => None,
        }));
    }
    let timed = packet_ins - collect;
    let ns_per_packet_in = ns_per_op(spans, "replay.edgectl.controller.packet_in", timed, || {
        for i in collect..packet_ins {
            now += step;
            out.clear();
            black_box(packet_in(&mut controller, i, now, &mut out));
        }
    });

    let wakeups = misses.min(MAX_OPS);
    let ns_per_wakeup = ns_per_op(spans, "replay.edgectl.controller.wakeup", wakeups, || {
        for _ in 0..wakeups {
            out.clear();
            controller.on_wakeup_into(now, &mut out);
        }
        black_box(out.len());
    });

    let lookups = misses.min(MAX_OPS);
    let ns_per_catalog_lookup = ns_per_op(spans, "replay.edgectl.catalog", lookups, || {
        let mut found = 0u64;
        for i in 0..lookups as usize {
            // A stride coprime with the catalog sizes in use visits every
            // service instead of a cache-friendly run.
            let addr = trace.service_addrs[i * 7919 % trace.service_addrs.len()];
            found += u64::from(controller.catalog.lookup(addr).is_some());
        }
        black_box(found);
    });

    let views: Vec<ClusterView> = sites
        .iter()
        .enumerate()
        .map(|(i, (spec, kind))| {
            let status = ServiceStatus {
                images_cached: true,
                created: true,
                desired_replicas: 1,
                ready_replicas: 1,
                endpoint: Some(SocketAddr::new(c3.site_ips[i], 8_000)),
            };
            ClusterView::builder(ClusterId(i), *kind, c3.switch_site_latency(i), status)
                .capacity(spec.capacity)
                .labels(spec.labels.clone().into())
                .build()
        })
        .collect();
    let decides = misses.min(MAX_OPS);
    let mut global = scheduler();
    let ns_per_decide = ns_per_op(spans, "replay.edgectl.scheduler", decides, || {
        let mut to_edge = 0u64;
        for i in 0..decides as usize {
            let service = i % templates.len();
            let ctx = SchedulingContext::new(
                ServiceId(service as u32),
                &views,
                templates[service].resource_request(),
                &templates[service].requirements,
                &controller.catalog,
                now,
            );
            to_edge += u64::from(global.decide(&ctx).fast.is_some());
        }
        black_box(to_edge);
    });

    // The switch, holding the flows those packet-ins installed: install and
    // sweep them on a fresh table (hits refresh idle deadlines, which would
    // bill the sweep for their stale heap entries), then install again for
    // the hit and miss replays.
    let mut switch = Switch::new(c3.port_count());
    let installs = specs.len() as u64;
    let ns_per_install = ns_per_op(spans, "replay.simnet.switch.install", installs, || {
        for spec in specs.iter().cloned() {
            black_box(switch.flow_mod(now, spec));
        }
    });
    let sweep_at = now + cfg.controller.switch_idle_timeout + SimDuration::from_secs(1);
    let ns_per_expire_sweep = ns_per_op(spans, "replay.simnet.switch.expire", installs, || {
        switch.sweep_discard(sweep_at);
        assert!(switch.table.is_empty(), "idle flows outlived the sweep");
    });
    for spec in specs {
        switch.flow_mod(now, spec);
    }
    let hit_ops = if flows.is_empty() {
        0
    } else {
        hits.min(MAX_OPS)
    };
    let ns_per_hit = ns_per_op(spans, "replay.simnet.switch.hit", hit_ops, || {
        let mut forwarded = 0u64;
        for i in 0..hit_ops as usize {
            let verdict = switch.receive(now, flows[i % flows.len()]);
            forwarded += u64::from(matches!(verdict, PacketVerdict::Forward { .. }));
        }
        assert_eq!(
            forwarded, hit_ops,
            "replayed hits must match installed flows"
        );
    });
    let miss_ops = misses.min(MAX_OPS);
    let ns_per_miss = ns_per_op(spans, "replay.simnet.switch.miss", miss_ops, || {
        for i in 0..miss_ops {
            // Clients the controller replay never saw: always a table miss.
            let packet = Packet::syn(replay_client(MAX_PACKET_INS + i), trace.service_addrs[0], i);
            match switch.receive(now, packet) {
                PacketVerdict::PacketIn { buffer_id, .. } => {
                    black_box(switch.discard_buffer(buffer_id));
                }
                other => panic!("replayed miss was not a PacketIn: {other:?}"),
            }
        }
    });
    ControlPath {
        ns_per_packet_in,
        ns_per_wakeup,
        ns_per_catalog_lookup,
        ns_per_decide,
        ns_per_hit,
        ns_per_miss,
        ns_per_install,
        ns_per_expire_sweep,
    }
}

/// What the FlowMemory replay reports.
#[derive(Debug, Default)]
pub struct Memory {
    pub ns_per_remember: f64,
    pub ns_per_recall: f64,
    pub ns_per_expire: f64,
}

/// `FlowMemory` alone, at the number of flows the workload's memory idle
/// timeout keeps: remember them all, recall at the run's table-miss count,
/// then expire them all.
pub fn flow_memory(spans: &mut Spans, c: &Counters, cfg: &ScenarioConfig, trace: &Trace) -> Memory {
    let idle = cfg.controller.memory_idle_timeout;
    let flows = live_pairs(trace, idle).max(1);
    let key = |i: u64| FlowKey {
        client_ip: replay_client(i).ip,
        service_addr: trace.service_addrs[i as usize % trace.service_addrs.len()],
    };
    let target = SocketAddr::new(IpAddr::new(10, 0, 0, 100), 8_000);
    let mut memory = FlowMemory::new(idle).expect("the scenario's idle timeout is non-zero");
    let ns_per_remember = ns_per_op(spans, "replay.edgectl.flowmemory.remember", flows, || {
        for i in 0..flows {
            let service = ServiceId((i as usize % trace.service_addrs.len()) as u32);
            memory.remember(SimTime::ZERO, key(i), service, target, Some(ClusterId(0)));
        }
    });
    let recalls = c.misses_to_replay().min(MAX_OPS);
    let at = SimTime::ZERO + SimDuration::from_secs(1);
    let ns_per_recall = ns_per_op(spans, "replay.edgectl.flowmemory.recall", recalls, || {
        let mut found = 0u64;
        for i in 0..recalls {
            found += u64::from(memory.recall(at, key(i * 7919 % flows)).is_some());
        }
        assert_eq!(
            found, recalls,
            "every replayed recall is of a remembered flow"
        );
    });
    let expire_at = at + idle + SimDuration::from_secs(1);
    let ns_per_expire = ns_per_op(spans, "replay.edgectl.flowmemory.expire", flows, || {
        assert_eq!(memory.expire(expire_at).len() as u64, flows);
    });
    Memory {
        ns_per_remember,
        ns_per_recall,
        ns_per_expire,
    }
}

/// One contended deployment lease: a shard acquires `(cluster, service)`,
/// another shard's attempt is rejected, the holder releases.
pub fn lease(spans: &mut Spans, deployments: u64, shards: usize, services: usize) -> f64 {
    let ops = deployments.min(MAX_OPS);
    let table = LeaseTable::new();
    let mut handles: Vec<_> = (0..shards.max(2)).map(|s| table.handle(s)).collect();
    let shards = handles.len();
    let ns = ns_per_op(spans, "replay.edgemesh.lease", ops, || {
        for i in 0..ops as usize {
            let service = ServiceId((i % services.max(1)) as u32);
            let (holder, rival) = (i % shards, (i + 1) % shards);
            assert!(handles[holder].try_acquire(SimTime::ZERO, ClusterId(0), service));
            assert!(!handles[rival].try_acquire(SimTime::ZERO, ClusterId(0), service));
            handles[holder].release(SimTime::ZERO, ClusterId(0), service);
        }
    });
    assert_eq!(table.held(), 0);
    ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    #[test]
    fn live_pairs_counts_distinct_pairs_in_the_window() {
        let trace = by_name("flow_reuse").unwrap().generate(3, true);
        let whole = live_pairs(&trace, trace.config.duration);
        let brief = live_pairs(&trace, SimDuration::from_millis(1));
        // 42 services × 20 clients bound the pairs; a 1 ms window at ~570
        // requests/s sees at most a couple.
        assert!(whole <= 840 && whole > 400, "{whole}");
        assert!(brief < 10, "{brief}");
    }

    #[test]
    fn drivers_report_zero_without_operations() {
        let mut spans = Spans::new("t");
        assert_eq!(shard_crew(&mut spans, 0, 4, 2), 0.0);
        assert_eq!(lease(&mut spans, 0, 4, 10), 0.0);
        assert_eq!(queue(&mut spans, 0, 5, SimDuration::from_secs(300), 1), 0.0);
    }

    #[test]
    fn drivers_time_real_operations() {
        let mut spans = Spans::new("t");
        assert!(queue(&mut spans, 10_000, 50, SimDuration::from_secs(300), 1) > 0.0);
        assert!(shard_crew(&mut spans, 50, 4, 2) > 0.0);
        assert!(lease(&mut spans, 1_000, 4, 10) > 0.0);
    }
}
