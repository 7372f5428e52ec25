//! A Docker-like single-host backend.
//!
//! Deployment phases map exactly to the paper's definitions (Fig. 4): *Create*
//! creates the container(s) via the engine API + containerd; *Scale Up* starts
//! them. There is no control plane between the controller and containerd, so
//! a started container is connectable as soon as its app opens the port —
//! which is why Docker's scale-up lands well under one second (Fig. 11).

use containers::{ContainerId, ContainerSpec, ContainerState, Runtime};
use registry::RegistrySet;
use simcore::{DetHashMap, DurationDist, SimRng, SimTime};
use simnet::{IpAddr, SocketAddr};

use crate::api::{
    delete_image, pull_images, ClusterBackend, ClusterError, ClusterKind, CrashOutcome,
    ScaleReceipt, Scope, ServiceSnapshot, ServiceStatus, Stamps,
};
use crate::template::ServiceTemplate;

/// One replica of a service: the containers backing it and the host port
/// published for it (`docker run -p`), so each replica is independently
/// addressable — what makes Local-Scheduler instance selection meaningful.
#[derive(Debug, Clone)]
struct Replica {
    containers: Vec<ContainerId>,
    host_port: u16,
    started: bool,
    /// When this replica's slowest container opens its port (valid once
    /// `started`).
    ready_at: SimTime,
}

#[derive(Debug)]
struct DockerService {
    /// This service's [`Scope::Slot`].
    slot: u32,
    template: ServiceTemplate,
    desired: u32,
    replicas: Vec<Replica>,
}

/// A Docker engine on one host.
pub struct DockerCluster {
    name: String,
    ip: IpAddr,
    pub runtime: Runtime,
    rng: SimRng,
    /// Engine API latency per call (CLI/SDK → dockerd → containerd).
    api_call: DurationDist,
    // Probed several times per packet-in (status/readiness checks); the
    // deterministic hasher keeps lookups cheap and `services()` sorts before
    // exposing names, so order never depends on map internals.
    services: DetHashMap<String, DockerService>,
    next_host_port: u16,
    /// Backs [`ClusterBackend::epoch`]: every `&mut` operation stamps the
    /// scope it changes, so a reader holding a snapshot can tell "nothing
    /// changed" apart from "read again".
    stamps: Stamps,
}

impl DockerCluster {
    pub fn new(
        name: impl Into<String>,
        ip: IpAddr,
        runtime: Runtime,
        rng: SimRng,
    ) -> DockerCluster {
        DockerCluster {
            name: name.into(),
            ip,
            runtime,
            rng,
            api_call: DurationDist::log_normal_ms(18.0, 0.25),
            services: DetHashMap::default(),
            next_host_port: 8000,
            stamps: Stamps::default(),
        }
    }

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_host_port;
        self.next_host_port += 1;
        p
    }

    fn scope_of(&self, name: &str) -> Scope {
        self.services
            .get(name)
            .map_or(Scope::Absent, |s| Scope::Slot(s.slot))
    }

    /// Create the containers of one replica, engine-API + containerd chained
    /// sequentially starting at `now`. Returns the replica and the completion
    /// instant.
    fn create_replica(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
    ) -> Result<(Replica, SimTime), ClusterError> {
        let mut t = now;
        let mut containers = Vec::with_capacity(template.containers.len());
        for ct in &template.containers {
            t += self.api_call.sample(&mut self.rng);
            let spec = ContainerSpec {
                name: format!("{}-{}", template.name, ct.name),
                image: ct.image.clone(),
                app_init: ct.app_init.sample(&mut self.rng),
                cpu_millis: ct.cpu_millis,
                mem_bytes: ct.mem_bytes,
            };
            let (id, done) = self.runtime.create(t, spec).map_err(|e| match e {
                containers::RuntimeError::ImageNotPresent(i) => ClusterError::ImageNotCached(i),
                containers::RuntimeError::InsufficientResources { what } => {
                    ClusterError::InsufficientResources(what)
                }
                other => panic!("unexpected runtime error during create: {other}"),
            })?;
            t = done;
            containers.push(id);
        }
        let host_port = self.alloc_port();
        Ok((
            Replica {
                containers,
                host_port,
                started: false,
                ready_at: SimTime::FAR_FUTURE,
            },
            t,
        ))
    }

    /// Start every container of a replica; returns `(api_returned, ready)`:
    /// `docker start` returns once the process is spawned, the service is
    /// connectable once every container's app opened its port. Fails when
    /// the node is out of resources, or with [`ClusterError::Busy`] when a
    /// container is not startable yet (its create is still running: an
    /// aborted deployment left it behind and a new one scales it up).
    fn start_replica(
        &mut self,
        now: SimTime,
        service: &str,
        replica: &mut Replica,
    ) -> Result<(SimTime, SimTime), ClusterError> {
        let mut t = now;
        let mut ready = now;
        for &id in &replica.containers {
            t += self.api_call.sample(&mut self.rng);
            let (running_at, ready_at) = self.runtime.start(t, id).map_err(|e| match e {
                containers::RuntimeError::InsufficientResources { what } => {
                    ClusterError::InsufficientResources(what)
                }
                containers::RuntimeError::InvalidState { .. } => {
                    ClusterError::Busy(service.to_owned())
                }
                other => panic!("unexpected runtime error during start: {other}"),
            })?;
            t = running_at;
            ready = ready.max(ready_at);
        }
        replica.started = true;
        replica.ready_at = ready;
        Ok((t, ready))
    }
}

impl ClusterBackend for DockerCluster {
    fn cluster_name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> ClusterKind {
        ClusterKind::Docker
    }

    fn pull(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
        registries: &RegistrySet,
    ) -> Result<SimTime, ClusterError> {
        // Images pull sequentially (docker pull a; docker pull b), skipping
        // cached ones.
        pull_images(
            now,
            template,
            registries,
            &mut self.runtime.store,
            &mut self.rng,
            &mut self.stamps,
        )
    }

    fn create(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
    ) -> Result<SimTime, ClusterError> {
        self.stamps.stamp(Scope::Absent);
        if self.services.contains_key(&template.name) {
            return Err(ClusterError::AlreadyCreated(template.name.clone()));
        }
        let (replica, done) = self.create_replica(now, template)?;
        self.services.insert(
            template.name.clone(),
            DockerService {
                slot: self.stamps.new_slot(),
                template: template.clone(),
                desired: 0,
                replicas: vec![replica],
            },
        );
        Ok(done)
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
        let current = self.services[service].replicas.len() as u32;

        // Create any missing replica container sets first (docker run path).
        let mut t = now;
        for _ in current..replicas {
            let (replica, done) = self.create_replica(t, &template)?;
            t = done;
            self.services
                .get_mut(service)
                .unwrap()
                .replicas
                .push(replica);
        }

        // Start all not-yet-started replicas up to the desired count.
        let mut accepted = t;
        let mut ready = t;
        let mut idle: Vec<usize> = Vec::new();
        {
            let svc = self.services.get_mut(service).unwrap();
            svc.desired = svc.desired.max(replicas);
            for (i, r) in svc.replicas.iter().enumerate() {
                if !r.started && (i as u32) < replicas {
                    idle.push(i);
                }
            }
        }
        for i in idle {
            let mut replica = self.services.get_mut(service).unwrap().replicas[i].clone();
            let (r_accepted, r_ready) = self.start_replica(t, service, &mut replica)?;
            accepted = accepted.max(r_accepted);
            ready = ready.max(r_ready);
            self.services.get_mut(service).unwrap().replicas[i] = replica;
        }
        // Replicas already started but still warming up gate readiness too
        // (a repeated scale-up while the first is in flight must not claim
        // instant readiness).
        for r in self.services[service]
            .replicas
            .iter()
            .take(replicas as usize)
        {
            if r.started {
                ready = ready.max(r.ready_at);
            }
        }
        Ok(ScaleReceipt {
            accepted_at: accepted,
            expected_ready: ready,
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
        let svc = self.services.get_mut(service).unwrap();
        svc.desired = svc.desired.min(replicas);
        let to_stop: Vec<Vec<ContainerId>> = svc
            .replicas
            .iter()
            .enumerate()
            .filter(|(i, r)| r.started && (*i as u32) >= replicas)
            .map(|(_, r)| r.containers.clone())
            .collect();
        for (i, r) in svc.replicas.iter_mut().enumerate() {
            if (i as u32) >= replicas {
                r.started = false;
            }
        }
        let mut t = now;
        for containers in to_stop {
            for id in containers {
                if self.runtime.get(id).map(|c| c.state_at(t)) == Some(ContainerState::Running) {
                    t = self.runtime.stop(t, id).expect("stop running container");
                }
            }
        }
        Ok(t)
    }

    fn remove(&mut self, now: SimTime, service: &str) -> Result<SimTime, ClusterError> {
        self.stamps.stamp(self.scope_of(service));
        let svc = self
            .services
            .remove(service)
            .ok_or_else(|| ClusterError::UnknownService(service.to_string()))?;
        let mut t = now;
        for replica in &svc.replicas {
            for &id in &replica.containers {
                if self.runtime.get(id).map(|c| c.state_at(t)) == Some(ContainerState::Running) {
                    t = self.runtime.stop(t, id).expect("stop running container");
                }
                if matches!(
                    self.runtime.get(id).map(|c| c.state_at(t)),
                    Some(ContainerState::Created | ContainerState::Stopped)
                ) {
                    t = self
                        .runtime
                        .remove(t, id)
                        .expect("remove stopped container");
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
        mut endpoints: Option<&mut Vec<SocketAddr>>,
    ) -> ServiceSnapshot {
        let Some(svc) = self.services.get(service) else {
            return ServiceSnapshot::absent();
        };
        // The one walk over the replicas: readiness, ready endpoints, and the
        // earliest future instant any container's observable state can flip
        // without a mutation (which bounds the snapshot's validity). No
        // intermediate Vec: this sits on the controller's per-packet-in path.
        let mut ready = 0u32;
        let mut first_ready_port: Option<u16> = None;
        let mut stable_until = SimTime::FAR_FUTURE;
        for r in &svc.replicas {
            for &id in &r.containers {
                if let Some(t) = self.runtime.port_transition_after(now, id) {
                    stable_until = stable_until.min(t);
                }
            }
            if r.started
                && r.containers
                    .iter()
                    .all(|&id| self.runtime.is_port_open(now, id))
            {
                ready += 1;
                first_ready_port.get_or_insert(r.host_port);
                if let Some(out) = endpoints.as_deref_mut() {
                    out.push(SocketAddr::new(self.ip, r.host_port));
                }
            }
        }
        ServiceSnapshot {
            status: ServiceStatus {
                images_cached: self.has_images(&svc.template),
                created: true,
                desired_replicas: svc.desired,
                ready_replicas: ready,
                endpoint: Some(SocketAddr::new(
                    self.ip,
                    first_ready_port.unwrap_or(svc.replicas[0].host_port),
                )),
            },
            stable_until,
            scope: Scope::Slot(svc.slot),
        }
    }

    fn epoch(&self, scope: Scope) -> u64 {
        self.stamps.epoch(scope)
    }

    fn services(&self) -> Vec<String> {
        let mut names: Vec<String> = self.services.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    fn load(&self) -> f64 {
        self.runtime.cpu_utilization()
    }

    fn has_images(&self, template: &ServiceTemplate) -> bool {
        template.images().all(|i| self.runtime.store.has_image(i))
    }

    /// Without a restart policy the engine does nothing: the replica stays
    /// down until something (the controller) scales it up again.
    fn inject_crash(&mut self, now: SimTime, service: &str) -> CrashOutcome {
        self.stamps.stamp(self.scope_of(service));
        let Some(svc) = self.services.get(service) else {
            return CrashOutcome::NoInstance;
        };
        // Only a replica whose containers are all actually Running can
        // crash; one still starting is owned by an in-flight scale-up.
        let victim = svc.replicas.iter().position(|r| {
            r.started
                && r.containers.iter().all(|&id| {
                    self.runtime.get(id).map(|c| c.state_at(now))
                        == Some(containers::ContainerState::Running)
                })
        });
        let Some(idx) = victim else {
            return CrashOutcome::NoInstance;
        };
        let svc = self.services.get_mut(service).unwrap();
        svc.replicas[idx].started = false;
        svc.replicas[idx].ready_at = SimTime::FAR_FUTURE;
        let ids = svc.replicas[idx].containers.clone();
        for id in ids {
            self.runtime
                .crash(now, id)
                .expect("victim containers are running");
        }
        CrashOutcome::Down
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use containers::image::synthesize_layers;
    use containers::ImageManifest;
    use registry::{Registry, RegistryProfile};

    fn registries() -> RegistrySet {
        let mut hub = Registry::new(RegistryProfile::docker_hub());
        hub.publish(ImageManifest::new(
            "nginx:1.23.2",
            synthesize_layers(1, 141_000_000, 6),
        ));
        hub.publish(ImageManifest::new(
            "josefhammer/env-writer-py",
            synthesize_layers(2, 46_000_000, 1),
        ));
        let mut s = RegistrySet::new();
        s.add(hub);
        s
    }

    fn cluster() -> DockerCluster {
        let rng = SimRng::seed_from_u64(7);
        DockerCluster::new(
            "egs-docker",
            IpAddr::new(10, 0, 0, 100),
            Runtime::egs(rng.stream("runtime")),
            rng.stream("docker"),
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

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn full_phase_pipeline() {
        let mut c = cluster();
        let regs = registries();
        let tpl = nginx();

        let pulled = c.pull(t0(), &tpl, &regs).unwrap();
        assert!(pulled > t0(), "cold pull takes time");

        let created = c.create(pulled, &tpl).unwrap();
        assert!(created > pulled);
        let st = c.status(created, "nginx-svc");
        assert!(st.created && st.images_cached);
        assert_eq!(st.ready_replicas, 0);

        let ready = c.scale_up(created, "nginx-svc", 1).unwrap().expected_ready;
        assert!(ready > created);
        assert!(!c.is_ready(created, "nginx-svc"));
        assert!(c.is_ready(ready, "nginx-svc"));

        // Docker scale-up alone (start of a created container) is sub-second
        // on the EGS — the core Fig. 11 property.
        let scale_up_ms = (ready - created).as_millis_f64();
        assert!(
            (250.0..1000.0).contains(&scale_up_ms),
            "docker scale-up took {scale_up_ms} ms"
        );
    }

    #[test]
    fn cached_pull_is_instant() {
        let mut c = cluster();
        let regs = registries();
        let tpl = nginx();
        let pulled = c.pull(t0(), &tpl, &regs).unwrap();
        let again = c.pull(pulled, &tpl, &regs).unwrap();
        assert_eq!(again, pulled);
    }

    #[test]
    fn scale_up_without_create_fails() {
        let mut c = cluster();
        assert_eq!(
            c.scale_up(t0(), "ghost", 1),
            Err(ClusterError::NotCreated("ghost".into()))
        );
    }

    #[test]
    fn create_without_image_fails() {
        let mut c = cluster();
        let err = c.create(t0(), &nginx()).unwrap_err();
        assert!(matches!(err, ClusterError::ImageNotCached(_)));
    }

    #[test]
    fn duplicate_create_fails() {
        let mut c = cluster();
        let regs = registries();
        let tpl = nginx();
        let pulled = c.pull(t0(), &tpl, &regs).unwrap();
        c.create(pulled, &tpl).unwrap();
        assert!(matches!(
            c.create(pulled, &tpl),
            Err(ClusterError::AlreadyCreated(_))
        ));
    }

    #[test]
    fn two_container_service_ready_when_both_are() {
        let mut c = cluster();
        let regs = registries();
        let tpl = ServiceTemplate {
            name: "nginx-py".into(),
            port: 80,
            scheduler_name: None,
            requirements: crate::capacity::DeploymentRequirements::none(),
            containers: vec![
                crate::template::ContainerTemplate {
                    name: "nginx".into(),
                    image: containers::ImageRef::new("nginx:1.23.2"),
                    app_init: DurationDist::constant_ms(110.0),
                    cpu_millis: 250,
                    mem_bytes: 128 << 20,
                },
                crate::template::ContainerTemplate {
                    name: "py".into(),
                    image: containers::ImageRef::new("josefhammer/env-writer-py"),
                    app_init: DurationDist::constant_ms(350.0),
                    cpu_millis: 250,
                    mem_bytes: 128 << 20,
                },
            ],
        };
        let pulled = c.pull(t0(), &tpl, &regs).unwrap();
        let created = c.create(pulled, &tpl).unwrap();
        let ready = c.scale_up(created, "nginx-py", 1).unwrap().expected_ready;
        // Both containers must be ready; the slower (py) gates.
        assert!(c.is_ready(ready, "nginx-py"));
        let st = c.status(ready, "nginx-py");
        assert_eq!(st.ready_replicas, 1);
    }

    #[test]
    fn scale_down_stops_and_status_reflects() {
        let mut c = cluster();
        let regs = registries();
        let tpl = nginx();
        let pulled = c.pull(t0(), &tpl, &regs).unwrap();
        let created = c.create(pulled, &tpl).unwrap();
        let ready = c.scale_up(created, "nginx-svc", 1).unwrap().expected_ready;
        assert!(c.is_ready(ready, "nginx-svc"));
        let down = c.scale_down(ready, "nginx-svc", 0).unwrap();
        assert!(!c.is_ready(down, "nginx-svc"));
        // service object still exists (scale to zero, not remove)
        assert!(c.status(down, "nginx-svc").created);
        // can scale back up
        let ready2 = c.scale_up(down, "nginx-svc", 1).unwrap().expected_ready;
        assert!(c.is_ready(ready2, "nginx-svc"));
    }

    #[test]
    fn remove_deletes_service() {
        let mut c = cluster();
        let regs = registries();
        let tpl = nginx();
        let pulled = c.pull(t0(), &tpl, &regs).unwrap();
        let created = c.create(pulled, &tpl).unwrap();
        let ready = c.scale_up(created, "nginx-svc", 1).unwrap().expected_ready;
        let gone = c.remove(ready, "nginx-svc").unwrap();
        assert!(!c.status(gone, "nginx-svc").created);
        assert!(c.services().is_empty());
        // image still cached after remove (paper: images survive service removal)
        assert!(c
            .runtime
            .store
            .has_image(&containers::ImageRef::new("nginx:1.23.2")));
    }

    #[test]
    fn multiple_replicas() {
        let mut c = cluster();
        let regs = registries();
        let tpl = nginx();
        let pulled = c.pull(t0(), &tpl, &regs).unwrap();
        let created = c.create(pulled, &tpl).unwrap();
        let ready = c.scale_up(created, "nginx-svc", 3).unwrap().expected_ready;
        assert_eq!(c.status(ready, "nginx-svc").ready_replicas, 3);
        let down = c.scale_down(ready, "nginx-svc", 1).unwrap();
        assert_eq!(c.status(down, "nginx-svc").ready_replicas, 1);
    }

    #[test]
    fn endpoint_is_stable_per_service() {
        let mut c = cluster();
        let regs = registries();
        let tpl = nginx();
        let pulled = c.pull(t0(), &tpl, &regs).unwrap();
        let created = c.create(pulled, &tpl).unwrap();
        let e1 = c.status(created, "nginx-svc").endpoint.unwrap();
        let ready = c.scale_up(created, "nginx-svc", 1).unwrap().expected_ready;
        let e2 = c.status(ready, "nginx-svc").endpoint.unwrap();
        assert_eq!(e1, e2);
        assert_eq!(e1.ip, IpAddr::new(10, 0, 0, 100));
    }

    #[test]
    fn unknown_image_unroutable() {
        let mut c = cluster();
        let regs = RegistrySet::new();
        let err = c.pull(t0(), &nginx(), &regs).unwrap_err();
        assert!(matches!(err, ClusterError::ImageUnavailable(_)));
    }
}
