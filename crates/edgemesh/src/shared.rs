//! Shared cluster backends: every controller shard steers the same physical
//! edge sites.
//!
//! Sharding splits the *control plane*, not the clusters — a Docker engine
//! has one API endpoint no matter how many controllers call it. The two
//! engines realize "one site, many controllers" differently:
//!
//! * The **interleaved reference engine** ([`crate::reference`]) keeps each
//!   site's backend once, behind a [`SharedHandle`], and every shard
//!   attaches a [`SharedBackend`] wrapper that delegates through it. Calls
//!   are serialized by the shared event loop, so interleavings are exactly
//!   the deterministic event order — which is what makes the un-leased
//!   duplicate-deployment race observable instead of a data race.
//! * The **windowed parallel engine** ([`crate::par`]) cannot share a
//!   `Rc<RefCell<..>>` across worker threads, so every shard owns an
//!   identical *replica* of every site (same seed, same RNG streams) and
//!   steers it through an *observed* [`SharedBackend`] that logs its own
//!   successful mutations as [`SiteCall`]s; peers replay those logs at the
//!   next window boundary in the canonical `(time, origin_shard, seq)` merge
//!   order. Replaying the same mutations in the same total order against
//!   the same initial state keeps all replicas convergent without any
//!   cross-thread aliasing — the serialized-interleaving argument above,
//!   restated per window instead of per event.

use std::cell::RefCell;
use std::rc::Rc;

use cluster::{
    ClusterBackend, ClusterError, ClusterKind, CrashOutcome, ScaleReceipt, ServiceSnapshot,
    ServiceTemplate,
};
use containers::ImageRef;
use registry::RegistrySet;
use simcore::SimTime;
use simnet::SocketAddr;

/// The single shared instance of one site's backend.
pub type SharedHandle = Rc<RefCell<Box<dyn ClusterBackend>>>;

/// Wrap a backend for shared ownership across controller shards.
pub fn share(backend: Box<dyn ClusterBackend>) -> SharedHandle {
    Rc::new(RefCell::new(backend))
}

/// A mutating call performed on one site's backend, by argument value so a
/// peer can replay it on its own replica.
#[derive(Debug, Clone)]
pub enum SiteCall {
    Pull { template: String },
    Create { template: String },
    ScaleUp { service: String, replicas: u32 },
    ScaleDown { service: String, replicas: u32 },
    Remove { service: String },
    DeleteImage { image: String },
    InjectCrash { service: String },
}

/// One shard's view of a shared site backend. Implements [`ClusterBackend`]
/// by delegation; the name and kind are cached at wrap time because the
/// trait returns `&str` (a `RefCell` borrow cannot escape a method).
pub struct SharedBackend {
    name: String,
    kind: ClusterKind,
    inner: SharedHandle,
    /// Told about every successful mutation (reads don't gossip; failed
    /// mutations have no side effect to replicate) — how the windowed
    /// engine's replicas log their ops for barrier broadcast.
    observer: Option<Box<dyn FnMut(SimTime, SiteCall)>>,
}

impl SharedBackend {
    pub fn new(inner: SharedHandle) -> SharedBackend {
        let (name, kind) = {
            let b = inner.borrow();
            (b.cluster_name().to_string(), b.kind())
        };
        SharedBackend {
            name,
            kind,
            inner,
            observer: None,
        }
    }

    /// [`SharedBackend::new`] with `observer` told about every successful
    /// mutation made through this view.
    pub fn observed(
        inner: SharedHandle,
        observer: impl FnMut(SimTime, SiteCall) + 'static,
    ) -> SharedBackend {
        SharedBackend {
            observer: Some(Box::new(observer)),
            ..SharedBackend::new(inner)
        }
    }

    fn note(&mut self, happened: bool, now: SimTime, call: impl FnOnce() -> SiteCall) {
        if let (true, Some(observer)) = (happened, &mut self.observer) {
            observer(now, call());
        }
    }
}

impl ClusterBackend for SharedBackend {
    fn cluster_name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> ClusterKind {
        self.kind
    }

    fn pull(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
        registries: &RegistrySet,
    ) -> Result<SimTime, ClusterError> {
        let r = self.inner.borrow_mut().pull(now, template, registries);
        self.note(r.is_ok(), now, || SiteCall::Pull {
            template: template.name.clone(),
        });
        r
    }

    fn create(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
    ) -> Result<SimTime, ClusterError> {
        let r = self.inner.borrow_mut().create(now, template);
        self.note(r.is_ok(), now, || SiteCall::Create {
            template: template.name.clone(),
        });
        r
    }

    fn scale_up(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<ScaleReceipt, ClusterError> {
        let r = self.inner.borrow_mut().scale_up(now, service, replicas);
        self.note(r.is_ok(), now, || SiteCall::ScaleUp {
            service: service.to_string(),
            replicas,
        });
        r
    }

    fn scale_down(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<SimTime, ClusterError> {
        let r = self.inner.borrow_mut().scale_down(now, service, replicas);
        self.note(r.is_ok(), now, || SiteCall::ScaleDown {
            service: service.to_string(),
            replicas,
        });
        r
    }

    fn remove(&mut self, now: SimTime, service: &str) -> Result<SimTime, ClusterError> {
        let r = self.inner.borrow_mut().remove(now, service);
        self.note(r.is_ok(), now, || SiteCall::Remove {
            service: service.to_string(),
        });
        r
    }

    fn delete_image(&mut self, now: SimTime, image: &ImageRef) -> bool {
        let deleted = self.inner.borrow_mut().delete_image(now, image);
        self.note(deleted, now, || SiteCall::DeleteImage {
            image: image.0.clone(),
        });
        deleted
    }

    // Reads and the epoch forward to the shared backend: mutations through
    // any view, through the handle, and replayed from peers all land there.
    fn observe(
        &self,
        now: SimTime,
        service: &str,
        endpoints: Option<&mut Vec<SocketAddr>>,
    ) -> ServiceSnapshot {
        self.inner.borrow().observe(now, service, endpoints)
    }

    fn epoch(&self) -> u64 {
        self.inner.borrow().epoch()
    }

    fn has_images(&self, template: &ServiceTemplate) -> bool {
        self.inner.borrow().has_images(template)
    }

    fn services(&self) -> Vec<String> {
        self.inner.borrow().services()
    }

    fn load(&self) -> f64 {
        self.inner.borrow().load()
    }

    fn inject_crash(&mut self, now: SimTime, service: &str) -> CrashOutcome {
        let outcome = self.inner.borrow_mut().inject_crash(now, service);
        self.note(true, now, || SiteCall::InjectCrash {
            service: service.to_string(),
        });
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::DockerCluster;
    use containers::image::synthesize_layers;
    use containers::{ImageManifest, Runtime};
    use registry::{Registry, RegistryProfile};
    use simcore::{DurationDist, SimRng};
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

    #[test]
    fn two_views_see_one_backend() {
        let rng = SimRng::seed_from_u64(1);
        let docker = DockerCluster::new(
            "site-0",
            IpAddr::new(10, 0, 0, 100),
            Runtime::egs(rng.stream("rt")),
            rng.stream("d"),
        );
        let handle = share(Box::new(docker));
        let mut a = SharedBackend::new(handle.clone());
        let b = SharedBackend::new(handle);
        assert_eq!(a.cluster_name(), "site-0");
        assert_eq!(b.kind(), ClusterKind::Docker);

        let tpl = ServiceTemplate::single("svc", "nginx:1.23.2", 80, DurationDist::zero());
        let regs = registries();
        let t = a.pull(SimTime::ZERO, &tpl, &regs).unwrap();
        let t = a.create(t, &tpl).unwrap();
        let r = a.scale_up(t, "svc", 1).unwrap();
        // The deployment performed through `a` is visible through `b`.
        assert!(b.status(r.expected_ready, "svc").is_ready());
        assert!(b.has_images(&tpl));
        assert_eq!(b.services(), vec!["svc".to_string()]);
    }
}
