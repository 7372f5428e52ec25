//! A Kubernetes-like control plane on one node.
//!
//! Reproduces the *control-plane overhead* that makes Kubernetes scale-up take
//! ~3 s where Docker takes < 1 s (Fig. 11), by modelling the actual causal
//! chain a replica-count change travels:
//!
//! ```text
//! kubectl scale        → API server write
//!   deployment ctrl    → (watch) ReplicaSet update        (API write)
//!   replicaset ctrl    → (watch) Pod object created       (API write)
//!   scheduler          → (watch) filter/score + bind      (API write)
//!   kubelet            → (watch + sync period) sandbox + containers via containerd
//!   readiness probe    → first successful probe ≥ port-open instant
//!   endpoints ctrl     → (watch) endpoints update, kube-proxy programs rules
//! ```
//!
//! Every arrow costs a watch-propagation delay and/or an API round trip;
//! container creation itself is the *same containerd work Docker does* — the
//! difference is pure orchestration latency, which is the paper's point.

use std::collections::BTreeMap;

use containers::{ContainerId, ContainerSpec, ContainerState, Runtime};
use registry::RegistrySet;
use simcore::{DurationDist, SimDuration, SimRng, SimTime};
use simnet::{IpAddr, SocketAddr};

use crate::api::{
    delete_image, pull_images, ClusterBackend, ClusterError, ClusterKind, CrashOutcome,
    ScaleReceipt, Scope, ServiceSnapshot, ServiceStatus, Stamps,
};
use crate::template::ServiceTemplate;

/// Control-plane latency knobs.
#[derive(Debug, Clone)]
pub struct K8sTimings {
    /// One API-server write (validation + etcd commit).
    pub api_call: DurationDist,
    /// Time for a watcher (controller, scheduler, kubelet) to observe a
    /// change it is watching.
    pub watch_latency: DurationDist,
    /// Reconcile work inside a controller once it observed the change.
    pub controller_sync: DurationDist,
    /// Scheduler queue wait + filter/score cycle (the default
    /// kube-scheduler, shared by every pod in the cluster).
    pub scheduler_latency: DurationDist,
    /// A dedicated custom scheduler (`schedulerName`, paper \[26\]/\[27\]):
    /// schedules only edge services, so its queue is short.
    pub custom_scheduler_latency: DurationDist,
    /// Kubelet pod-sync pickup (sync-loop scheduling + pod-worker start).
    pub kubelet_sync: DurationDist,
    /// Readiness probes run at this period once the container is running.
    pub readiness_probe_period: SimDuration,
    /// Endpoints controller + kube-proxy programming after the pod reports
    /// Ready.
    pub endpoints_propagation: DurationDist,
}

impl K8sTimings {
    /// Calibrated so that nginx-class scale-up lands around the paper's ~3 s
    /// median on the EGS (Fig. 11) while the containerd portion stays
    /// identical to Docker's.
    pub fn egs() -> K8sTimings {
        K8sTimings {
            api_call: DurationDist::log_normal_ms(16.0, 0.25),
            watch_latency: DurationDist::log_normal_ms(85.0, 0.3),
            controller_sync: DurationDist::log_normal_ms(30.0, 0.3),
            scheduler_latency: DurationDist::log_normal_ms(260.0, 0.3),
            custom_scheduler_latency: DurationDist::log_normal_ms(60.0, 0.3),
            kubelet_sync: DurationDist::log_normal_ms(380.0, 0.25),
            readiness_probe_period: SimDuration::from_secs(1),
            endpoints_propagation: DurationDist::log_normal_ms(230.0, 0.3),
        }
    }
}

/// One pod: its containers and when it became (or will become) connectable.
#[derive(Debug, Clone)]
struct Pod {
    containers: Vec<ContainerId>,
    /// Instant the Service endpoint routes to this pod (readiness observed +
    /// endpoints propagated).
    connectable_at: SimTime,
    terminating: bool,
}

#[derive(Debug)]
struct K8sService {
    /// This service's [`Scope::Slot`].
    slot: u32,
    template: ServiceTemplate,
    /// NodePort allocated for the generated `Service` object.
    node_port: u16,
    desired: u32,
    pods: Vec<Pod>,
}

/// A Kubernetes cluster (single-node, like the paper's EGS K8s).
pub struct K8sCluster {
    name: String,
    ip: IpAddr,
    pub runtime: Runtime,
    rng: SimRng,
    timings: K8sTimings,
    // BTreeMap: `services()` iterates; name order must not depend on hash seed.
    services: BTreeMap<String, K8sService>,
    next_node_port: u16,
    /// Backs [`ClusterBackend::epoch`]: every `&mut` operation stamps the
    /// scope it changes.
    stamps: Stamps,
}

impl K8sCluster {
    pub fn new(
        name: impl Into<String>,
        ip: IpAddr,
        runtime: Runtime,
        rng: SimRng,
        timings: K8sTimings,
    ) -> K8sCluster {
        K8sCluster {
            name: name.into(),
            ip,
            runtime,
            rng,
            timings,
            services: BTreeMap::new(),
            next_node_port: 30000,
            stamps: Stamps::default(),
        }
    }

    fn scope_of(&self, name: &str) -> Scope {
        self.services
            .get(name)
            .map_or(Scope::Absent, |s| Scope::Slot(s.slot))
    }

    fn sample(&mut self, which: fn(&K8sTimings) -> &DurationDist) -> SimDuration {
        let dist = which(&self.timings).clone();
        dist.sample(&mut self.rng)
    }

    /// Walk the control-plane chain for one new pod, starting from the
    /// moment the replica-count change is committed. Returns the pod.
    fn spawn_pod(
        &mut self,
        committed: SimTime,
        template: &ServiceTemplate,
    ) -> Result<Pod, ClusterError> {
        // deployment controller observes scale change, updates ReplicaSet
        let mut t = committed
            + self.sample(|t| &t.watch_latency)
            + self.sample(|t| &t.controller_sync)
            + self.sample(|t| &t.api_call);
        // replicaset controller creates the Pod object
        t += self.sample(|t| &t.watch_latency)
            + self.sample(|t| &t.controller_sync)
            + self.sample(|t| &t.api_call);
        // scheduler binds: the default kube-scheduler, or the service's
        // custom scheduler with its dedicated (short) queue
        let sched = if template.scheduler_name.is_some() {
            self.sample(|t| &t.custom_scheduler_latency)
        } else {
            self.sample(|t| &t.scheduler_latency)
        };
        t += sched + self.sample(|t| &t.api_call);
        // kubelet observes the binding and starts the pod worker
        t += self.sample(|t| &t.watch_latency) + self.sample(|t| &t.kubelet_sync);

        // Sandbox + containers via containerd. The first start pays namespace
        // setup (the sandbox); subsequent containers join it but are modelled
        // with their own start cost, matching the Docker backend's treatment
        // of multi-container services.
        let mut containers = Vec::with_capacity(template.containers.len());
        let mut all_ready = t;
        let mut running_last = t;
        for ct in &template.containers {
            let spec = ContainerSpec {
                name: format!("{}-{}", template.name, ct.name),
                image: ct.image.clone(),
                app_init: ct.app_init.sample(&mut self.rng),
                cpu_millis: ct.cpu_millis,
                mem_bytes: ct.mem_bytes,
            };
            let (id, created) = self.runtime.create(t, spec).map_err(|e| match e {
                containers::RuntimeError::ImageNotPresent(i) => ClusterError::ImageNotCached(i),
                containers::RuntimeError::InsufficientResources { what } => {
                    ClusterError::InsufficientResources(what)
                }
                other => panic!("unexpected runtime error in pod sync: {other}"),
            })?;
            let (running_at, ready_at) = self.runtime.start(created, id).map_err(|e| match e {
                containers::RuntimeError::InsufficientResources { what } => {
                    ClusterError::InsufficientResources(what)
                }
                other => panic!("unexpected runtime error during pod start: {other}"),
            })?;
            t = running_at;
            running_last = running_last.max(running_at);
            all_ready = all_ready.max(ready_at);
            containers.push(id);
        }

        // Readiness: the kubelet probes at a fixed period from the instant
        // the last container started running; the pod reports Ready at the
        // first probe at-or-after every port is open.
        let period = self.timings.readiness_probe_period;
        let ready_observed = if period.is_zero() {
            all_ready
        } else {
            let elapsed = all_ready.since(running_last);
            let probes = elapsed.as_nanos().div_ceil(period.as_nanos());
            running_last + period * probes.max(1)
        };

        // Endpoints propagate; the NodePort then routes to the pod.
        let connectable_at = ready_observed
            + self.sample(|t| &t.watch_latency)
            + self.sample(|t| &t.endpoints_propagation);

        Ok(Pod {
            containers,
            connectable_at,
            terminating: false,
        })
    }
}

impl ClusterBackend for K8sCluster {
    fn cluster_name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> ClusterKind {
        ClusterKind::Kubernetes
    }

    fn pull(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
        registries: &RegistrySet,
    ) -> Result<SimTime, ClusterError> {
        pull_images(
            now,
            template,
            registries,
            &mut self.runtime.store,
            &mut self.rng,
            &mut self.stamps,
        )
    }

    /// Create = `kubectl apply` of the annotated Deployment (replicas: 0) and
    /// the generated Service: two API writes, no pods yet.
    fn create(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
    ) -> Result<SimTime, ClusterError> {
        self.stamps.stamp(Scope::Absent);
        if self.services.contains_key(&template.name) {
            return Err(ClusterError::AlreadyCreated(template.name.clone()));
        }
        let t = now + self.sample(|t| &t.api_call) + self.sample(|t| &t.api_call);
        let node_port = self.next_node_port;
        self.next_node_port += 1;
        self.services.insert(
            template.name.clone(),
            K8sService {
                slot: self.stamps.new_slot(),
                template: template.clone(),
                node_port,
                desired: 0,
                pods: Vec::new(),
            },
        );
        Ok(t)
    }

    fn scale_up(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<ScaleReceipt, ClusterError> {
        self.stamps.stamp(self.scope_of(service));
        if !self.services.contains_key(service) {
            return Err(ClusterError::NotCreated(service.to_string()));
        }
        let template = self.services[service].template.clone();
        let live = self.services[service]
            .pods
            .iter()
            .filter(|p| !p.terminating)
            .count() as u32;

        // API write committing the new replica count.
        let committed = now + self.sample(|t| &t.api_call);
        let mut latest = committed;
        for _ in live..replicas {
            let pod = self.spawn_pod(committed, &template)?;
            latest = latest.max(pod.connectable_at);
            self.services.get_mut(service).unwrap().pods.push(pod);
        }
        // Pods already spawned but still becoming connectable gate readiness
        // for the requested count too.
        {
            let svc = &self.services[service];
            let mut times: Vec<SimTime> = svc
                .pods
                .iter()
                .filter(|p| !p.terminating)
                .map(|p| p.connectable_at)
                .collect();
            times.sort();
            if let Some(&t) = times.get(replicas.saturating_sub(1) as usize) {
                latest = latest.max(t);
            }
        }
        let svc = self.services.get_mut(service).unwrap();
        svc.desired = svc.desired.max(replicas);
        Ok(ScaleReceipt {
            accepted_at: committed,
            expected_ready: latest,
        })
    }

    fn scale_down(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<SimTime, ClusterError> {
        self.stamps.stamp(self.scope_of(service));
        if !self.services.contains_key(service) {
            return Err(ClusterError::UnknownService(service.to_string()));
        }
        // Replica-count write, then the controllers pick pods to terminate.
        let committed = now + self.sample(|t| &t.api_call);
        let lag = self.sample(|t| &t.watch_latency) + self.sample(|t| &t.controller_sync);
        let svc = self.services.get_mut(service).unwrap();
        svc.desired = svc.desired.min(replicas);
        let live: Vec<usize> = svc
            .pods
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.terminating)
            .map(|(i, _)| i)
            .collect();
        let excess = live.len().saturating_sub(replicas as usize);
        // Kubernetes terminates the newest pods first.
        let doomed: Vec<usize> = live.into_iter().rev().take(excess).collect();
        let mut t = committed + lag;
        let mut stops: Vec<ContainerId> = Vec::new();
        for i in &doomed {
            svc.pods[*i].terminating = true;
            stops.extend(svc.pods[*i].containers.iter().copied());
        }
        for id in stops {
            if self.runtime.get(id).map(|c| c.state_at(t)) == Some(ContainerState::Running) {
                t = self
                    .runtime
                    .stop(t, id)
                    .expect("stop running pod container");
            }
        }
        Ok(t)
    }

    fn remove(&mut self, now: SimTime, service: &str) -> Result<SimTime, ClusterError> {
        if !self.services.contains_key(service) {
            return Err(ClusterError::UnknownService(service.to_string()));
        }
        // The scale-down is what stamps the slot for the whole removal.
        let done = self.scale_down(now, service, 0)?;
        let svc = self.services.remove(service).unwrap();
        let mut t = done + self.sample(|t| &t.api_call) + self.sample(|t| &t.api_call);
        for pod in &svc.pods {
            for &id in &pod.containers {
                if matches!(
                    self.runtime.get(id).map(|c| c.state_at(t)),
                    Some(ContainerState::Created | ContainerState::Stopped)
                ) {
                    t = self.runtime.remove(t, id).expect("remove pod container");
                }
            }
        }
        Ok(t)
    }

    fn delete_image(&mut self, _now: SimTime, image: &containers::ImageRef) -> bool {
        delete_image(&mut self.runtime.store, image, &mut self.stamps)
    }

    fn observe(
        &self,
        now: SimTime,
        service: &str,
        endpoints: Option<&mut Vec<SocketAddr>>,
    ) -> ServiceSnapshot {
        let Some(svc) = self.services.get(service) else {
            return ServiceSnapshot::absent();
        };
        // Between mutations a pod's only observable change is becoming
        // connectable, so the next such instant bounds the read's validity.
        ServiceSnapshot::behind_virtual_endpoint(
            now,
            svc.slot,
            ServiceStatus {
                images_cached: self.has_images(&svc.template),
                created: true,
                desired_replicas: svc.desired,
                ready_replicas: 0,
                endpoint: Some(SocketAddr::new(self.ip, svc.node_port)),
            },
            svc.pods
                .iter()
                .filter(|p| !p.terminating)
                .map(|p| p.connectable_at),
            endpoints,
        )
    }

    fn epoch(&self, scope: Scope) -> u64 {
        self.stamps.epoch(scope)
    }

    fn services(&self) -> Vec<String> {
        // BTreeMap keys are already in sorted order.
        self.services.keys().cloned().collect()
    }

    fn load(&self) -> f64 {
        self.runtime.cpu_utilization()
    }

    fn has_images(&self, template: &ServiceTemplate) -> bool {
        template.images().all(|i| self.runtime.store.has_image(i))
    }

    /// The kubelet notices the exit and restarts the containers
    /// (restartPolicy: Always): sync pickup, container starts, readiness
    /// probe, endpoints propagation — self-healing with no controller help.
    fn inject_crash(&mut self, now: SimTime, service: &str) -> CrashOutcome {
        self.stamps.stamp(self.scope_of(service));
        let Some(svc) = self.services.get(service) else {
            return CrashOutcome::NoInstance;
        };
        let Some(idx) = svc.pods.iter().position(|p| {
            !p.terminating
                && now >= p.connectable_at
                && p.containers.iter().all(|&id| {
                    self.runtime.get(id).map(|c| c.state_at(now))
                        == Some(containers::ContainerState::Running)
                })
        }) else {
            return CrashOutcome::NoInstance;
        };
        let containers = svc.pods[idx].containers.clone();
        for &id in &containers {
            let _ = self.runtime.crash(now, id);
        }
        // kubelet pickup + restart each container + readiness + endpoints
        let mut t = now + self.sample(|t| &t.kubelet_sync);
        let mut all_ready = t;
        let mut running_last = t;
        for &id in &containers {
            if let Ok((running_at, ready_at)) = self.runtime.start(t, id) {
                t = running_at;
                running_last = running_last.max(running_at);
                all_ready = all_ready.max(ready_at);
            }
        }
        let period = self.timings.readiness_probe_period;
        let ready_observed = if period.is_zero() {
            all_ready
        } else {
            let elapsed = all_ready.since(running_last);
            let probes = elapsed.as_nanos().div_ceil(period.as_nanos());
            running_last + period * probes.max(1)
        };
        let recovered = ready_observed
            + self.sample(|t| &t.watch_latency)
            + self.sample(|t| &t.endpoints_propagation);
        self.services.get_mut(service).unwrap().pods[idx].connectable_at = recovered;
        CrashOutcome::Recovering(recovered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docker::DockerCluster;
    use containers::image::synthesize_layers;
    use containers::ImageManifest;
    use registry::{Registry, RegistryProfile};

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

    fn cluster(seed: u64) -> K8sCluster {
        let rng = SimRng::seed_from_u64(seed);
        K8sCluster::new(
            "egs-k8s",
            IpAddr::new(10, 0, 0, 100),
            Runtime::egs(rng.stream("runtime")),
            rng.stream("k8s"),
            K8sTimings::egs(),
        )
    }

    fn nginx() -> ServiceTemplate {
        ServiceTemplate::single(
            "nginx-svc",
            "nginx:1.23.2",
            80,
            DurationDist::constant_ms(110.0),
        )
    }

    fn deploy_ready_ms(seed: u64) -> f64 {
        let mut c = cluster(seed);
        let regs = registries();
        let tpl = nginx();
        let pulled = c.pull(SimTime::ZERO, &tpl, &regs).unwrap();
        let created = c.create(pulled, &tpl).unwrap();
        let ready = c.scale_up(created, "nginx-svc", 1).unwrap().expected_ready;
        (ready - created).as_millis_f64()
    }

    #[test]
    fn k8s_scale_up_is_about_three_seconds() {
        // Fig. 11: K8s scale-up ≈ 3 s (vs Docker < 1 s).
        let mut samples: Vec<f64> = (0..31).map(deploy_ready_ms).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!(
            (2200.0..3800.0).contains(&median),
            "K8s scale-up median {median} ms, want ~3000"
        );
    }

    #[test]
    fn k8s_slower_than_docker_by_factor_3_to_8() {
        let regs = registries();
        let tpl = nginx();
        let mut k8s_ms = Vec::new();
        let mut docker_ms = Vec::new();
        for seed in 0..15 {
            k8s_ms.push(deploy_ready_ms(seed));
            let rng = SimRng::seed_from_u64(seed + 1000);
            let mut d = DockerCluster::new(
                "egs-docker",
                IpAddr::new(10, 0, 0, 100),
                Runtime::egs(rng.stream("runtime")),
                rng.stream("docker"),
            );
            let pulled = d.pull(SimTime::ZERO, &tpl, &regs).unwrap();
            let created = d.create(pulled, &tpl).unwrap();
            let ready = d.scale_up(created, "nginx-svc", 1).unwrap().expected_ready;
            docker_ms.push((ready - created).as_millis_f64());
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let k = med(&mut k8s_ms);
        let d = med(&mut docker_ms);
        let factor = k / d;
        assert!(
            (3.0..9.0).contains(&factor),
            "k8s/docker = {factor} (k={k}, d={d})"
        );
    }

    #[test]
    fn create_is_fast_api_writes_only() {
        let mut c = cluster(3);
        let regs = registries();
        let tpl = nginx();
        let pulled = c.pull(SimTime::ZERO, &tpl, &regs).unwrap();
        let created = c.create(pulled, &tpl).unwrap();
        let ms = (created - pulled).as_millis_f64();
        assert!(ms < 120.0, "k8s create took {ms} ms, want 2 API writes");
        assert_eq!(c.status(created, "nginx-svc").ready_replicas, 0);
        assert_eq!(c.status(created, "nginx-svc").desired_replicas, 0);
    }

    #[test]
    fn readiness_probe_quantizes_connectability() {
        // With a 1 s probe period, a pod whose app is ready at +110 ms is
        // only observed Ready at the next probe tick.
        let mut c = cluster(4);
        let regs = registries();
        let tpl = nginx();
        let pulled = c.pull(SimTime::ZERO, &tpl, &regs).unwrap();
        let created = c.create(pulled, &tpl).unwrap();
        let connectable = c.scale_up(created, "nginx-svc", 1).unwrap().expected_ready;
        // port opens ~= created + chain + start + 110ms; connectable must be
        // at least a probe period after the container started running
        let pod = &c.services["nginx-svc"].pods[0];
        // The port was open strictly before the endpoint turned connectable.
        let before = connectable - SimDuration::from_nanos(1);
        assert!(
            c.runtime.is_port_open(before, pod.containers[0]),
            "endpoints lag readiness"
        );
    }

    #[test]
    fn scale_up_unpulled_image_fails() {
        let mut c = cluster(5);
        // create will succeed (API objects don't need the image)…
        let created = c.create(SimTime::ZERO, &nginx()).unwrap();
        // …but the kubelet cannot start the pod.
        let err = c.scale_up(created, "nginx-svc", 1).unwrap_err();
        assert!(matches!(err, ClusterError::ImageNotCached(_)));
    }

    #[test]
    fn scale_down_then_up_cycles() {
        let mut c = cluster(6);
        let regs = registries();
        let tpl = nginx();
        let pulled = c.pull(SimTime::ZERO, &tpl, &regs).unwrap();
        let created = c.create(pulled, &tpl).unwrap();
        let ready = c.scale_up(created, "nginx-svc", 2).unwrap().expected_ready;
        assert_eq!(c.status(ready, "nginx-svc").ready_replicas, 2);
        let down = c.scale_down(ready, "nginx-svc", 1).unwrap();
        assert_eq!(c.status(down, "nginx-svc").ready_replicas, 1);
        let up = c.scale_up(down, "nginx-svc", 2).unwrap().expected_ready;
        assert_eq!(c.status(up, "nginx-svc").ready_replicas, 2);
    }

    #[test]
    fn remove_clears_everything_but_images() {
        let mut c = cluster(7);
        let regs = registries();
        let tpl = nginx();
        let pulled = c.pull(SimTime::ZERO, &tpl, &regs).unwrap();
        let created = c.create(pulled, &tpl).unwrap();
        let ready = c.scale_up(created, "nginx-svc", 1).unwrap().expected_ready;
        let gone = c.remove(ready, "nginx-svc").unwrap();
        assert!(!c.status(gone, "nginx-svc").created);
        assert!(c
            .runtime
            .store
            .has_image(&containers::ImageRef::new("nginx:1.23.2")));
        assert_eq!(c.runtime.container_count(), 0);
    }

    #[test]
    fn node_ports_are_distinct() {
        let mut c = cluster(8);
        let regs = registries();
        let a = ServiceTemplate::single("svc-a", "nginx:1.23.2", 80, DurationDist::zero());
        let b = ServiceTemplate::single("svc-b", "nginx:1.23.2", 80, DurationDist::zero());
        let pulled = c.pull(SimTime::ZERO, &a, &regs).unwrap();
        c.create(pulled, &a).unwrap();
        c.create(pulled, &b).unwrap();
        let ea = c.status(pulled, "svc-a").endpoint.unwrap();
        let eb = c.status(pulled, "svc-b").endpoint.unwrap();
        assert_ne!(ea, eb);
        assert!(ea.port >= 30000 && eb.port >= 30000, "NodePort range");
    }

    #[test]
    fn custom_scheduler_cuts_scheduling_latency() {
        // The paper's §V hook: a custom schedulerName ([26]/[27]) routes the
        // pod through a dedicated, short-queue scheduler.
        let run = |custom: bool, seed: u64| {
            let mut c = cluster(seed);
            let regs = registries();
            let mut tpl = nginx();
            if custom {
                tpl.scheduler_name = Some("edge-matching-scheduler".into());
            }
            let pulled = c.pull(SimTime::ZERO, &tpl, &regs).unwrap();
            let created = c.create(pulled, &tpl).unwrap();
            let ready = c.scale_up(created, "nginx-svc", 1).unwrap().expected_ready;
            (ready - created).as_millis_f64()
        };
        let mut default_ms = Vec::new();
        let mut custom_ms = Vec::new();
        for seed in 100..115 {
            default_ms.push(run(false, seed));
            custom_ms.push(run(true, seed));
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let d = med(&mut default_ms);
        let c = med(&mut custom_ms);
        assert!(
            d - c > 100.0,
            "custom scheduler should save ~200 ms of queue time: default={d} custom={c}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(deploy_ready_ms(11), deploy_ready_ms(11));
        assert_ne!(deploy_ready_ms(11), deploy_ready_ms(12));
    }
}
