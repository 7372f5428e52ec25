//! Fault injection: wrap any [`ClusterBackend`] and make its operations fail
//! or slow down with configured probabilities. Used to test the controller's
//! retry/fallback behaviour — a real edge platform sees transient API
//! failures (etcd leader elections, registry 5xx, engine restarts) that the
//! paper's testbed conveniently never hit.

use containers::ImageRef;
use registry::RegistrySet;
use simcore::{DurationDist, SimRng, SimTime};
use simnet::SocketAddr;

use crate::api::{
    ClusterBackend, ClusterError, ClusterKind, CrashOutcome, ScaleReceipt, Scope, ServiceSnapshot,
};
use crate::template::ServiceTemplate;

/// Failure probabilities and latency inflation per operation class.
#[derive(Debug, Clone)]
#[doc(hidden)] // edgectl's controller and protocol tests inject faults with it
pub struct FaultPlan {
    /// Probability that a pull fails (registry error).
    pub pull_failure: f64,
    /// Probability that create fails (API error).
    pub create_failure: f64,
    /// Probability that scale-up fails (placement/runtime error).
    pub scale_up_failure: f64,
    /// Probability that scale-down fails (API error during idle scale-to-zero
    /// — the controller must retry, not leak the instance).
    pub scale_down_failure: f64,
    /// Extra latency added to every successful mutating call.
    pub extra_latency: DurationDist,
}

impl FaultPlan {
    /// No faults (the wrapper becomes a transparent pass-through).
    pub fn none() -> FaultPlan {
        FaultPlan {
            pull_failure: 0.0,
            create_failure: 0.0,
            scale_up_failure: 0.0,
            scale_down_failure: 0.0,
            extra_latency: DurationDist::zero(),
        }
    }

    /// A uniformly flaky backend.
    pub fn flaky(rate: f64) -> FaultPlan {
        FaultPlan {
            pull_failure: rate,
            create_failure: rate,
            scale_up_failure: rate,
            scale_down_failure: rate,
            extra_latency: DurationDist::zero(),
        }
    }
}

/// A backend wrapper injecting faults per a [`FaultPlan`].
#[doc(hidden)] // edgectl's controller and protocol tests inject faults with it
pub struct FaultyCluster<B> {
    pub inner: B,
    plan: FaultPlan,
    rng: SimRng,
    /// Injected failures so far (diagnostics / test assertions).
    pub injected: u64,
}

impl<B: ClusterBackend> FaultyCluster<B> {
    pub fn new(inner: B, plan: FaultPlan, rng: SimRng) -> FaultyCluster<B> {
        FaultyCluster {
            inner,
            plan,
            rng,
            injected: 0,
        }
    }

    fn roll(&mut self, p: f64) -> bool {
        let fail = self.rng.chance(p);
        if fail {
            self.injected += 1;
        }
        fail
    }

    fn delay(&mut self, now: SimTime) -> SimTime {
        now + self.plan.extra_latency.clone().sample(&mut self.rng)
    }
}

impl<B: ClusterBackend> ClusterBackend for FaultyCluster<B> {
    fn cluster_name(&self) -> &str {
        self.inner.cluster_name()
    }
    fn kind(&self) -> ClusterKind {
        self.inner.kind()
    }

    fn pull(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
        registries: &RegistrySet,
    ) -> Result<SimTime, ClusterError> {
        if self.roll(self.plan.pull_failure) {
            return Err(ClusterError::ImageUnavailable(
                template
                    .images()
                    .next()
                    .cloned()
                    .unwrap_or_else(|| ImageRef::new("unknown")),
            ));
        }
        let start = self.delay(now);
        self.inner.pull(start, template, registries)
    }

    fn create(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
    ) -> Result<SimTime, ClusterError> {
        if self.roll(self.plan.create_failure) {
            return Err(ClusterError::InsufficientResources("api"));
        }
        let start = self.delay(now);
        self.inner.create(start, template)
    }

    fn scale_up(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<ScaleReceipt, ClusterError> {
        if self.roll(self.plan.scale_up_failure) {
            return Err(ClusterError::InsufficientResources("placement"));
        }
        let start = self.delay(now);
        self.inner.scale_up(start, service, replicas)
    }

    fn scale_down(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<SimTime, ClusterError> {
        if self.roll(self.plan.scale_down_failure) {
            return Err(ClusterError::InsufficientResources("scale-down api"));
        }
        let start = self.delay(now);
        self.inner.scale_down(start, service, replicas)
    }

    fn remove(&mut self, now: SimTime, service: &str) -> Result<SimTime, ClusterError> {
        self.inner.remove(now, service)
    }

    fn delete_image(&mut self, now: SimTime, image: &ImageRef) -> bool {
        self.inner.delete_image(now, image)
    }

    // Reads and the epoch forward to the wrapped backend: that is where
    // every mutation lands, and a call failed by the plan never reaches it,
    // so it changes nothing a reader could see.
    fn observe(
        &self,
        now: SimTime,
        service: &str,
        endpoints: Option<&mut Vec<SocketAddr>>,
    ) -> ServiceSnapshot {
        self.inner.observe(now, service, endpoints)
    }

    fn epoch(&self, scope: Scope) -> u64 {
        self.inner.epoch(scope)
    }

    fn has_images(&self, template: &ServiceTemplate) -> bool {
        self.inner.has_images(template)
    }

    fn services(&self) -> Vec<String> {
        self.inner.services()
    }

    fn load(&self) -> f64 {
        self.inner.load()
    }

    fn inject_crash(&mut self, now: SimTime, service: &str) -> CrashOutcome {
        self.inner.inject_crash(now, service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docker::DockerCluster;
    use containers::image::synthesize_layers;
    use containers::{ImageManifest, Runtime};
    use registry::{Registry, RegistryProfile};
    use simcore::DurationDist as DD;
    use simnet::IpAddr;

    fn registries() -> RegistrySet {
        let mut hub = Registry::new(RegistryProfile::docker_hub());
        hub.publish(ImageManifest::new(
            "nginx:1.23.2",
            synthesize_layers(1, 1_000_000, 2),
        ));
        let mut s = RegistrySet::new();
        s.add(hub);
        s
    }

    fn docker() -> DockerCluster {
        let rng = SimRng::seed_from_u64(1);
        DockerCluster::new(
            "d",
            IpAddr::new(10, 0, 0, 1),
            Runtime::egs(rng.stream("rt")),
            rng.stream("d"),
        )
    }

    fn tpl() -> ServiceTemplate {
        ServiceTemplate::single("svc", "nginx:1.23.2", 80, DD::zero())
    }

    #[test]
    fn no_faults_is_transparent() {
        let mut f = FaultyCluster::new(docker(), FaultPlan::none(), SimRng::seed_from_u64(2));
        let regs = registries();
        let t = f.pull(SimTime::ZERO, &tpl(), &regs).unwrap();
        let t = f.create(t, &tpl()).unwrap();
        let r = f.scale_up(t, "svc", 1).unwrap();
        assert!(f.is_ready(r.expected_ready, "svc"));
        assert_eq!(f.injected, 0);
    }

    #[test]
    fn always_failing_fails_everything() {
        let mut f = FaultyCluster::new(docker(), FaultPlan::flaky(1.0), SimRng::seed_from_u64(3));
        let regs = registries();
        assert!(f.pull(SimTime::ZERO, &tpl(), &regs).is_err());
        assert!(f.create(SimTime::ZERO, &tpl()).is_err());
        assert!(f.scale_up(SimTime::ZERO, "svc", 1).is_err());
        assert!(f.scale_down(SimTime::ZERO, "svc", 0).is_err());
        assert_eq!(f.injected, 4);
    }

    #[test]
    fn half_flaky_fails_about_half() {
        let mut f = FaultyCluster::new(docker(), FaultPlan::flaky(0.5), SimRng::seed_from_u64(4));
        let regs = registries();
        let mut failures = 0;
        for _ in 0..200 {
            if f.pull(SimTime::ZERO, &tpl(), &regs).is_err() {
                failures += 1;
            }
        }
        assert!((60..140).contains(&failures), "failures={failures}");
    }

    #[test]
    fn extra_latency_shifts_completions() {
        let plan = FaultPlan {
            extra_latency: DD::constant_ms(500.0),
            ..FaultPlan::none()
        };
        let mut plain = docker();
        let mut f = FaultyCluster::new(docker(), plan, SimRng::seed_from_u64(5));
        let regs = registries();
        let a = plain.pull(SimTime::ZERO, &tpl(), &regs).unwrap();
        let b = f.pull(SimTime::ZERO, &tpl(), &regs).unwrap();
        // same seeds inside differ, but the 500 ms floor must show
        assert!(b >= a, "b={b} a={a}");
        assert!(b.since(SimTime::ZERO).as_millis_f64() >= 500.0);
    }

    #[test]
    fn queries_pass_through() {
        let f = FaultyCluster::new(docker(), FaultPlan::flaky(1.0), SimRng::seed_from_u64(6));
        assert_eq!(f.kind(), ClusterKind::Docker);
        assert_eq!(f.cluster_name(), "d");
        assert!(!f.status(SimTime::ZERO, "svc").created);
        assert!(f.services().is_empty());
    }
}
