//! A WebAssembly serverless backend — the paper's future work.
//!
//! The conclusion (§VIII) plans to "extend our solution for transparent
//! access by enabling the side-by-side operation of containers and serverless
//! applications and evaluate how well the latter would perform in a
//! transparent access approach", citing Gackstatter et al. \[7\] (WASM cold
//! starts are far below container cold starts) and the FAASM/Sledge line of
//! work \[24\], \[25\].
//!
//! The model follows those measurements:
//!
//! * "images" are **modules**: single-digit-MiB single-layer artifacts, so the
//!   Pull phase is tiny,
//! * *Create* registers the function with the runtime gateway (one API call),
//! * *Scale-Up* instantiates: module compilation is **cached after first
//!   use**; instantiation itself is in the low milliseconds — there is no
//!   namespace setup, which is precisely what makes containers slow
//!   (Mohan et al. \[23\]),
//! * trade-off knob: per-request overhead is *higher* than a warm container
//!   (call gate + sandboxing), reflecting the papers' observation that wasm
//!   wins cold starts but not necessarily steady-state throughput.

use std::collections::{BTreeMap, HashSet};

use containers::{ImageRef, ImageStore};
use registry::RegistrySet;
use simcore::{DurationDist, SimRng, SimTime};
use simnet::{IpAddr, SocketAddr};

use crate::api::{
    ClusterBackend, ClusterError, ClusterKind, CrashOutcome, ScaleReceipt, ServiceSnapshot,
    ServiceStatus,
};
use crate::template::ServiceTemplate;

/// Cost knobs of the serverless runtime.
#[derive(Debug, Clone)]
pub struct WasmTimings {
    /// Gateway API call (register / scale).
    pub api_call: DurationDist,
    /// First-use module compilation (cached afterwards).
    pub compile: DurationDist,
    /// Instantiation of a compiled module (the "cold start").
    pub instantiate: DurationDist,
}

impl WasmTimings {
    /// Calibrated to the WebAssembly-at-the-edge literature: instantiation
    /// in the low milliseconds, compilation tens of ms once.
    pub fn egs() -> WasmTimings {
        WasmTimings {
            api_call: DurationDist::log_normal_ms(3.0, 0.2),
            compile: DurationDist::log_normal_ms(45.0, 0.25),
            instantiate: DurationDist::log_normal_ms(6.0, 0.3),
        }
    }
}

#[derive(Debug)]
struct WasmFunction {
    template: ServiceTemplate,
    gateway_port: u16,
    desired: u32,
    /// Instances: when each became callable.
    instances: Vec<SimTime>,
}

/// A serverless WebAssembly edge runtime (one gateway, many instances).
pub struct WasmEdgeCluster {
    name: String,
    ip: IpAddr,
    /// Module storage reuses the content-addressed store (a module is a
    /// single-layer artifact).
    pub store: ImageStore,
    timings: WasmTimings,
    rng: SimRng,
    // BTreeMap: `services()` iterates; name order must not depend on hash seed.
    functions: BTreeMap<String, WasmFunction>,
    /// Modules already compiled on this node (first-use cache).
    compiled: HashSet<ImageRef>,
    next_port: u16,
    /// Backs [`ClusterBackend::epoch`]: bumped by every `&mut` operation.
    epoch: u64,
}

impl WasmEdgeCluster {
    pub fn new(
        name: impl Into<String>,
        ip: IpAddr,
        rng: SimRng,
        timings: WasmTimings,
    ) -> WasmEdgeCluster {
        WasmEdgeCluster {
            name: name.into(),
            ip,
            store: ImageStore::new(),
            timings,
            rng,
            functions: BTreeMap::new(),
            compiled: HashSet::new(),
            next_port: 9000,
            epoch: 0,
        }
    }
}

impl ClusterBackend for WasmEdgeCluster {
    fn cluster_name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> ClusterKind {
        ClusterKind::Wasm
    }

    fn pull(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
        registries: &RegistrySet,
    ) -> Result<SimTime, ClusterError> {
        self.epoch += 1;
        let mut t = now;
        for image in template.images() {
            let reg = registries
                .route(image)
                .ok_or_else(|| ClusterError::ImageUnavailable(image.clone()))?;
            let outcome = reg.pull(t, image, &mut self.store, &mut self.rng).map_err(
                |registry::PullError::UnknownImage(i)| ClusterError::ImageUnavailable(i),
            )?;
            t = outcome.completed_at;
        }
        Ok(t)
    }

    /// Register the function with the gateway: one API call, no artifacts.
    fn create(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
    ) -> Result<SimTime, ClusterError> {
        self.epoch += 1;
        if self.functions.contains_key(&template.name) {
            return Err(ClusterError::AlreadyCreated(template.name.clone()));
        }
        for image in template.images() {
            if !self.store.has_image(image) {
                return Err(ClusterError::ImageNotCached(image.clone()));
            }
        }
        let t = now + self.timings.api_call.sample(&mut self.rng);
        let port = self.next_port;
        self.next_port += 1;
        self.functions.insert(
            template.name.clone(),
            WasmFunction {
                template: template.clone(),
                gateway_port: port,
                desired: 0,
                instances: Vec::new(),
            },
        );
        Ok(t)
    }

    /// Instantiate: compile on first use (cached), then millisecond-scale
    /// instantiation — no namespaces, no process spawn.
    fn scale_up(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<ScaleReceipt, ClusterError> {
        self.epoch += 1;
        if !self.functions.contains_key(service) {
            return Err(ClusterError::NotCreated(service.to_string()));
        }
        let accepted = now + self.timings.api_call.sample(&mut self.rng);
        let images: Vec<ImageRef> = self.functions[service].template.images().cloned().collect();
        let mut t = accepted;
        for image in images {
            if self.compiled.insert(image) {
                t += self.timings.compile.sample(&mut self.rng);
            }
        }
        let mut latest = t;
        let live = self.functions[service].instances.len() as u32;
        for _ in live..replicas {
            let ready = t + self.timings.instantiate.sample(&mut self.rng);
            latest = latest.max(ready);
            self.functions
                .get_mut(service)
                .unwrap()
                .instances
                .push(ready);
        }
        // Instances still instantiating gate readiness for the requested
        // count.
        {
            let mut times = self.functions[service].instances.clone();
            times.sort();
            if let Some(&t) = times.get(replicas.saturating_sub(1) as usize) {
                latest = latest.max(t);
            }
        }
        let f = self.functions.get_mut(service).unwrap();
        f.desired = f.desired.max(replicas);
        Ok(ScaleReceipt {
            accepted_at: accepted,
            expected_ready: latest,
        })
    }

    fn scale_down(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<SimTime, ClusterError> {
        self.epoch += 1;
        let f = self
            .functions
            .get_mut(service)
            .ok_or_else(|| ClusterError::UnknownService(service.to_string()))?;
        f.desired = f.desired.min(replicas);
        f.instances.truncate(replicas as usize);
        // Tearing down an instance is effectively free (drop the sandbox).
        Ok(now + self.timings.api_call.sample(&mut self.rng))
    }

    fn remove(&mut self, now: SimTime, service: &str) -> Result<SimTime, ClusterError> {
        self.epoch += 1;
        self.functions
            .remove(service)
            .ok_or_else(|| ClusterError::UnknownService(service.to_string()))?;
        Ok(now + self.timings.api_call.sample(&mut self.rng))
    }

    fn delete_image(&mut self, _now: SimTime, image: &ImageRef) -> bool {
        self.epoch += 1;
        self.compiled.remove(image);
        self.store.remove_image(image)
    }

    fn observe(
        &self,
        now: SimTime,
        service: &str,
        endpoints: Option<&mut Vec<SocketAddr>>,
    ) -> ServiceSnapshot {
        let Some(f) = self.functions.get(service) else {
            return ServiceSnapshot::absent();
        };
        // Between mutations an instance's only observable change is becoming
        // callable, so the next such instant bounds the read's validity.
        ServiceSnapshot::behind_virtual_endpoint(
            now,
            ServiceStatus {
                images_cached: self.has_images(&f.template),
                created: true,
                desired_replicas: f.desired,
                ready_replicas: 0,
                endpoint: Some(SocketAddr::new(self.ip, f.gateway_port)),
            },
            f.instances.iter().copied(),
            endpoints,
        )
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn services(&self) -> Vec<String> {
        // BTreeMap keys are already in sorted order.
        self.functions.keys().cloned().collect()
    }

    fn load(&self) -> f64 {
        // Serverless: effectively elastic; report instance pressure.
        (self
            .functions
            .values()
            .map(|f| f.instances.len())
            .sum::<usize>() as f64
            / 256.0)
            .min(1.0)
    }

    fn has_images(&self, template: &ServiceTemplate) -> bool {
        template.images().all(|i| self.store.has_image(i))
    }

    /// A trapped/killed instance is simply re-instantiated by the gateway —
    /// milliseconds, the serverless self-healing story.
    fn inject_crash(&mut self, now: SimTime, service: &str) -> CrashOutcome {
        self.epoch += 1;
        let Some(f) = self.functions.get_mut(service) else {
            return CrashOutcome::NoInstance;
        };
        let Some(idx) = f.instances.iter().position(|&r| now >= r) else {
            return CrashOutcome::NoInstance;
        };
        let recovered = now + self.timings.instantiate.sample(&mut self.rng);
        f.instances[idx] = recovered;
        CrashOutcome::Recovering(recovered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use containers::image::synthesize_layers;
    use containers::ImageManifest;
    use registry::{Registry, RegistryProfile};
    use simcore::SimDuration;

    fn registries() -> RegistrySet {
        let mut hub = Registry::new(RegistryProfile::docker_hub());
        // a 3 MiB single-layer wasm module
        hub.publish(ImageManifest::new(
            "edge/web.wasm",
            synthesize_layers(9, 3 << 20, 1),
        ));
        let mut s = RegistrySet::new();
        s.add(hub);
        s
    }

    fn cluster() -> WasmEdgeCluster {
        WasmEdgeCluster::new(
            "egs-wasm",
            IpAddr::new(10, 0, 0, 100),
            SimRng::seed_from_u64(1),
            WasmTimings::egs(),
        )
    }

    fn module() -> ServiceTemplate {
        ServiceTemplate::single("web-fn", "edge/web.wasm", 80, DurationDist::zero())
    }

    #[test]
    fn cold_start_is_tens_of_milliseconds() {
        let mut c = cluster();
        let regs = registries();
        let tpl = module();
        let pulled = c.pull(SimTime::ZERO, &tpl, &regs).unwrap();
        // 3 MiB module pulls fast
        assert!(pulled.as_secs_f64() < 1.5, "module pull {pulled}");
        let created = c.create(pulled, &tpl).unwrap();
        let receipt = c.scale_up(created, "web-fn", 1).unwrap();
        let cold_ms = (receipt.expected_ready - created).as_millis_f64();
        assert!(
            (5.0..150.0).contains(&cold_ms),
            "wasm cold start {cold_ms} ms — literature says ms-scale"
        );
        assert!(c.is_ready(receipt.expected_ready, "web-fn"));
    }

    #[test]
    fn compilation_cached_after_first_instance() {
        let mut c = cluster();
        let regs = registries();
        let tpl = module();
        let pulled = c.pull(SimTime::ZERO, &tpl, &regs).unwrap();
        let created = c.create(pulled, &tpl).unwrap();
        let first = c.scale_up(created, "web-fn", 1).unwrap();
        let first_ms = (first.expected_ready - created).as_millis_f64();
        let second = c.scale_up(first.expected_ready, "web-fn", 2).unwrap();
        let second_ms = (second.expected_ready - first.expected_ready).as_millis_f64();
        assert!(
            second_ms < first_ms / 2.0,
            "second instance skips compilation: {second_ms} vs {first_ms}"
        );
    }

    #[test]
    fn lifecycle_and_status() {
        let mut c = cluster();
        let regs = registries();
        let tpl = module();
        let pulled = c.pull(SimTime::ZERO, &tpl, &regs).unwrap();
        let created = c.create(pulled, &tpl).unwrap();
        assert_eq!(c.status(created, "web-fn").ready_replicas, 0);
        let r = c.scale_up(created, "web-fn", 2).unwrap();
        assert_eq!(c.status(r.expected_ready, "web-fn").ready_replicas, 2);
        let down = c.scale_down(r.expected_ready, "web-fn", 0).unwrap();
        assert_eq!(c.status(down, "web-fn").ready_replicas, 0);
        assert!(
            c.status(down, "web-fn").created,
            "function stays registered"
        );
        let gone = c.remove(down, "web-fn").unwrap();
        assert!(!c.status(gone, "web-fn").created);
    }

    #[test]
    fn create_requires_module() {
        let mut c = cluster();
        let err = c.create(SimTime::ZERO, &module()).unwrap_err();
        assert!(matches!(err, ClusterError::ImageNotCached(_)));
    }

    #[test]
    fn wasm_beats_docker_cold_start_by_an_order_of_magnitude() {
        // The future-work hypothesis: wasm instantiation ≪ container start.
        let mut wasm = cluster();
        let regs = registries();
        let tpl = module();
        let pulled = wasm.pull(SimTime::ZERO, &tpl, &regs).unwrap();
        let created = wasm.create(pulled, &tpl).unwrap();
        let receipt = wasm.scale_up(created, "web-fn", 1).unwrap();
        let wasm_ms = (receipt.expected_ready - created).as_millis_f64();

        let rng = SimRng::seed_from_u64(2);
        let mut docker = crate::docker::DockerCluster::new(
            "egs-docker",
            IpAddr::new(10, 0, 0, 101),
            containers::Runtime::egs(rng.stream("rt")),
            rng.stream("d"),
        );
        let mut hub = Registry::new(RegistryProfile::docker_hub());
        hub.publish(ImageManifest::new(
            "nginx:1.23.2",
            synthesize_layers(1, 141_000_000, 6),
        ));
        let mut regs2 = RegistrySet::new();
        regs2.add(hub);
        let tpl2 = ServiceTemplate::single(
            "web-ct",
            "nginx:1.23.2",
            80,
            DurationDist::log_normal_ms(110.0, 0.2),
        );
        let pulled = docker.pull(SimTime::ZERO, &tpl2, &regs2).unwrap();
        let created = docker.create(pulled, &tpl2).unwrap();
        let receipt = docker.scale_up(created, "web-ct", 1).unwrap();
        let docker_ms = (receipt.expected_ready - created).as_millis_f64();

        assert!(
            docker_ms > wasm_ms * 4.0,
            "container {docker_ms} ms vs wasm {wasm_ms} ms"
        );
    }

    #[test]
    fn instance_teardown_truncates_newest() {
        let mut c = cluster();
        let regs = registries();
        let tpl = module();
        let pulled = c.pull(SimTime::ZERO, &tpl, &regs).unwrap();
        let created = c.create(pulled, &tpl).unwrap();
        let r = c.scale_up(created, "web-fn", 3).unwrap();
        let later = r.expected_ready + SimDuration::from_secs(1);
        c.scale_down(later, "web-fn", 1).unwrap();
        assert_eq!(c.status(later, "web-fn").ready_replicas, 1);
        // scale back up re-instantiates quickly (compile cached)
        let r2 = c.scale_up(later, "web-fn", 3).unwrap();
        assert!((r2.expected_ready - later).as_millis_f64() < 60.0);
    }
}
