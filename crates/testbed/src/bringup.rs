//! Site, controller and switch bring-up, written once.
//!
//! Every engine that runs a [`ScenarioConfig`] — the single-controller
//! [`crate::Testbed`], each shard of `edgemesh`'s windowed engine and the
//! mesh reference engine — starts from these pieces. The engines differ only
//! in what they wrap around a site's backend before attaching it (nothing, a
//! shared handle, an op-logging replica view) and in the controller builder
//! switches they add; both are parameters here. Identical streams mean
//! identical sites: every mesh shard derives its replicas from the same
//! `(seed, stream name)` pairs as the testbed, so replicas are byte-identical
//! at birth and stay so under the identical pre-warm.

use std::borrow::Borrow;

use cluster::{
    ClusterBackend, ClusterKind, DockerCluster, K8sCluster, K8sTimings, ServiceTemplate,
    WasmEdgeCluster, WasmTimings,
};
use containers::{CostModel, Runtime};
use edgectl::{ClusterId, Controller, ControllerBuilder, RoundRobinLocal, SchedulerRegistry};
use simcore::{SimRng, SimTime};
use simnet::openflow::Switch;
use simnet::SocketAddr;
use workload::ServiceProfile;

use crate::scenario::{PhaseSetup, ScenarioConfig};
use crate::topology::{C3Topology, NodeClass, CLOUD_PORT};

/// The C³ fabric of the scenario's sites and clients.
pub fn topology(cfg: &ScenarioConfig) -> C3Topology {
    let sites: Vec<_> = cfg.resolved_sites().into_iter().map(|(s, _)| s).collect();
    C3Topology::build_sites(&sites, cfg.clients)
}

/// One cluster backend per scenario site, in site order, each on its own
/// `rt-i` / `docker-i` / `k8s-i` / `wasm-i` stream of the scenario seed.
pub fn site_backends(cfg: &ScenarioConfig, c3: &C3Topology) -> Vec<Box<dyn ClusterBackend>> {
    let rng = SimRng::seed_from_u64(cfg.seed);
    cfg.resolved_sites()
        .iter()
        .enumerate()
        .map(|(i, (spec, kind))| {
            let nodes = spec.nodes.max(1) as u32;
            let (cost, millicores, gib) = match spec.class {
                NodeClass::Egs => (CostModel::egs(), 12_000, 32),
                NodeClass::RaspberryPi => (CostModel::raspberry_pi(), 4_000, 4),
            };
            let runtime = Runtime::new(
                cost,
                rng.stream_indexed("rt", i),
                millicores * nodes,
                gib * (1u64 << 30) * u64::from(nodes),
            );
            let ip = c3.site_ips[i];
            let backend: Box<dyn ClusterBackend> = match kind {
                ClusterKind::Docker => Box::new(DockerCluster::new(
                    format!("{}-docker", spec.name),
                    ip,
                    runtime,
                    rng.stream_indexed("docker", i),
                )),
                ClusterKind::Kubernetes => Box::new(K8sCluster::new(
                    format!("{}-k8s", spec.name),
                    ip,
                    runtime,
                    rng.stream_indexed("k8s", i),
                    cfg.k8s_timings.clone().unwrap_or_else(K8sTimings::egs),
                )),
                ClusterKind::Wasm => Box::new(WasmEdgeCluster::new(
                    format!("{}-wasm", spec.name),
                    ip,
                    rng.stream_indexed("wasm", i),
                    WasmTimings::egs(),
                )),
            };
            backend
        })
        .collect()
}

/// `n` instances of the scenario's Table I service type (paper: one type
/// per test run), named `{name}-{i:02}` in trace order.
pub fn service_templates(cfg: &ScenarioConfig, n: usize) -> Vec<ServiceTemplate> {
    let base = ServiceProfile::of(cfg.service).template;
    (0..n)
        .map(|i| {
            let mut template = base.clone();
            template.name = format!("{}-{i:02}", base.name);
            template
        })
        .collect()
}

/// The scenario's controller: configured scheduler, standard registries,
/// `backends[i]` attached as site `i` with the site's capacity and labels,
/// `templates[i]` registered under `service_addrs[i]`, and the replicas the
/// scenario pre-warms booked. `extend` adds the engine's own builder switches
/// (the mesh engines' status deltas and deployment gate). Registration order is trace order on every caller, so
/// `ServiceId` values are comparable across controllers (gossip relies on
/// it).
pub fn controller(
    cfg: &ScenarioConfig,
    c3: &C3Topology,
    backends: impl IntoIterator<Item = Box<dyn ClusterBackend>>,
    service_addrs: &[SocketAddr],
    templates: impl IntoIterator<Item = ServiceTemplate>,
    extend: impl FnOnce(ControllerBuilder) -> ControllerBuilder,
) -> Controller {
    let global = SchedulerRegistry::builtin()
        .create(&cfg.scheduler)
        .unwrap_or_else(|e| panic!("scenario scheduler: {e}"));
    let builder = Controller::builder(cfg.controller.clone())
        .global(global)
        .local(RoundRobinLocal::default())
        .registries(workload::services::standard_registries(
            cfg.private_registry,
        ))
        .cloud_port(CLOUD_PORT);
    let mut controller = extend(builder).build();
    for (i, backend) in backends.into_iter().enumerate() {
        let spec = &c3.sites[i];
        let id = controller.attach_cluster(backend, c3.switch_site_latency(i), c3.site_port(i));
        controller.configure_site(id, spec.capacity, spec.labels.clone());
    }
    for (addr, template) in service_addrs.iter().zip(templates) {
        controller.catalog.register(*addr, template);
    }
    // A `PhaseSetup::Running` pre-warm starts one replica of every service on
    // every selected site. Every controller that steers those sites books
    // them like its own deployments, so finite capacities account for them.
    if cfg.phase_setup == PhaseSetup::Running {
        for c in (0..c3.sites.len()).filter(|&c| prewarmed(cfg, c)) {
            for addr in service_addrs {
                let service = controller.catalog.lookup(*addr).expect("registered").id;
                controller.note_external_deployment(ClusterId(c), service, 1);
            }
        }
    }
    controller
}

/// The ingress switch with the operator's pre-provisioned seed flows.
pub fn seeded_switch(cfg: &ScenarioConfig, c3: &C3Topology) -> Switch {
    let mut switch = Switch::new(c3.port_count());
    for spec in cfg.seed_flows.clone() {
        switch.flow_mod(SimTime::ZERO, spec);
    }
    switch
}

/// Whether a (non-cold) scenario's pre-warm applies to site `c`.
fn prewarmed(cfg: &ScenarioConfig, c: usize) -> bool {
    cfg.prewarm_sites
        .as_ref()
        .is_none_or(|only| only.contains(&c))
}

/// Pre-warm the pipeline per the scenario's [`PhaseSetup`] on every selected
/// site (`sites` yields all of them, in site order). Returns the instant the
/// setup finished. Callers hand over the backends themselves, not a wrapper
/// that reports the calls to anyone: setup is not part of the run.
pub fn prewarm<'a>(
    cfg: &ScenarioConfig,
    templates: &[impl Borrow<ServiceTemplate>],
    sites: impl Iterator<Item = &'a mut (dyn ClusterBackend + 'static)>,
) -> SimTime {
    let setup = cfg.phase_setup;
    if setup == PhaseSetup::Cold {
        return SimTime::ZERO;
    }
    let registries = workload::services::standard_registries(cfg.private_registry);
    let mut t_end = SimTime::ZERO;
    for (c, cluster) in sites.enumerate() {
        if !prewarmed(cfg, c) {
            continue;
        }
        let mut t = SimTime::ZERO;
        for template in templates {
            let template = template.borrow();
            t = cluster
                .pull(t, template, &registries)
                .expect("prewarm pull");
            if matches!(setup, PhaseSetup::Created | PhaseSetup::Running) {
                t = cluster.create(t, template).expect("prewarm create");
            }
            if setup == PhaseSetup::Running {
                t = cluster
                    .scale_up(t, &template.name, 1)
                    .expect("prewarm scale-up")
                    .expected_ready;
            }
        }
        t_end = t_end.max(t);
    }
    t_end
}
