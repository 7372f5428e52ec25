//! The backend-neutral cluster API: the controller's Dispatcher talks to
//! every edge cluster through [`ClusterBackend`], mirroring how the paper's
//! Python controller wraps the Docker and Kubernetes client libraries behind
//! one interface.
//!
//! All mutating operations return the **completion instant** of the work they
//! start; queries take `now` and answer consistently with in-flight work.
//! Service state is read through exactly one method, [`ClusterBackend::observe`]
//! (`status` / `is_ready` / `replica_endpoints` are provided views of it), and
//! [`ClusterBackend::epoch`] of the read's [`Scope`] says when a held read
//! must be taken again.

use containers::{ImageRef, ImageStore};
use registry::RegistrySet;
use simcore::{SimRng, SimTime};
use simnet::SocketAddr;

use crate::template::ServiceTemplate;

/// Which kind of backend a cluster is (paper Fig. 11/12 compare the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterKind {
    Docker,
    Kubernetes,
    /// A serverless WebAssembly runtime (the paper's §VIII future work).
    Wasm,
}

impl std::fmt::Display for ClusterKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterKind::Docker => f.write_str("Docker"),
            ClusterKind::Kubernetes => f.write_str("K8s"),
            ClusterKind::Wasm => f.write_str("Wasm"),
        }
    }
}

/// Status snapshot of one service on one cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStatus {
    /// Are all images of the service cached on the cluster?
    pub images_cached: bool,
    /// Has the service been created (containers / Deployment+Service)?
    pub created: bool,
    pub desired_replicas: u32,
    /// Replicas whose port is connectable at the query instant.
    pub ready_replicas: u32,
    /// Where to reach the service on this cluster, once created.
    pub endpoint: Option<SocketAddr>,
}

/// Which backend state one [`ClusterBackend::observe`] read depends on —
/// the key [`ClusterBackend::epoch`] is asked under (DESIGN.md §5i).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Scope {
    /// The backend has no service of that name: the read is the same
    /// constant for every such name and changes only when one is created.
    #[default]
    Absent,
    /// The service's own record, by the dense slot the backend gave it at
    /// `create`. Slots are never reused, so a removed service's slot never
    /// validates a read of its successor.
    Slot(u32),
}

/// What one [`ClusterBackend::observe`] read returns: the [`ServiceStatus`]
/// at the read instant, how long it stays true, and the [`Scope`] it was read
/// from (DESIGN.md §5i). Simulated status is piecewise-constant in time, so
/// the read is *exact* — bit-identical to a fresh one, ready-endpoint list
/// included — at every instant from the read up to `stable_until`, as long as
/// [`ClusterBackend::epoch`] of `scope` has not moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSnapshot {
    pub status: ServiceStatus,
    /// First future instant at which `status` (or the endpoint list) could
    /// change without a backend mutation — Docker: the next container
    /// state/port transition; Kubernetes: the next pod `connectable_at`;
    /// wasm: the next instance-callable instant. `SimTime::FAR_FUTURE` once
    /// everything has settled.
    pub stable_until: SimTime,
    pub scope: Scope,
}

impl ServiceSnapshot {
    /// A service the backend does not know: nothing is there until a
    /// `create`, which is a mutation, so absence never expires by time.
    pub(crate) fn absent() -> ServiceSnapshot {
        ServiceSnapshot {
            status: ServiceStatus::absent(),
            stable_until: SimTime::FAR_FUTURE,
            scope: Scope::Absent,
        }
    }

    /// The snapshot of a backend whose service address load-balances
    /// internally (Kubernetes Services via kube-proxy, the wasm gateway) and
    /// whose replicas each turn ready at an instant known up front
    /// (`ready_at`). Counts into `status.ready_replicas` the instants that
    /// have passed; the earliest one still ahead bounds the validity; the
    /// ready-endpoint list is the one virtual endpoint, once any replica is
    /// ready behind it.
    pub(crate) fn behind_virtual_endpoint(
        now: SimTime,
        slot: u32,
        mut status: ServiceStatus,
        ready_at: impl Iterator<Item = SimTime>,
        endpoints: Option<&mut Vec<SocketAddr>>,
    ) -> ServiceSnapshot {
        let mut stable_until = SimTime::FAR_FUTURE;
        for t in ready_at {
            if now >= t {
                status.ready_replicas += 1;
            } else {
                stable_until = stable_until.min(t);
            }
        }
        if let (true, Some(out)) = (status.is_ready(), endpoints) {
            out.extend(status.endpoint);
        }
        ServiceSnapshot {
            status,
            stable_until,
            scope: Scope::Slot(slot),
        }
    }
}

/// The mutation stamps behind [`ClusterBackend::epoch`], one set per
/// backend. Every stamp takes the next tick of one backend-wide clock, so a
/// scope's epoch — the later of its own stamp and the image store's — moves
/// whenever either does and never comes back.
#[derive(Debug, Default)]
pub(crate) struct Stamps {
    clock: u64,
    /// Last mutation per [`Scope::Slot`], indexed by slot.
    slots: Vec<u64>,
    /// Last `create` of any service. A `remove` leaves it: an absent read is
    /// the same for every name, and the removed service's readers hold its
    /// slot.
    absent: u64,
    /// Last change of the image store (`has_images`).
    shared: u64,
}

impl Stamps {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// A fresh slot for a service being created, stamped now.
    pub(crate) fn new_slot(&mut self) -> u32 {
        let stamp = self.tick();
        self.slots.push(stamp);
        u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 creates per backend")
    }

    /// A mutation of what a read under `scope` returns.
    pub(crate) fn stamp(&mut self, scope: Scope) {
        let stamp = self.tick();
        match scope {
            Scope::Absent => self.absent = stamp,
            Scope::Slot(slot) => self.slots[slot as usize] = stamp,
        }
    }

    /// A change of the image store, which every created service reads.
    pub(crate) fn stamp_shared(&mut self) {
        self.shared = self.tick();
    }

    pub(crate) fn epoch(&self, scope: Scope) -> u64 {
        let own = match scope {
            Scope::Absent => self.absent,
            Scope::Slot(slot) => self.slots[slot as usize],
        };
        own.max(self.shared)
    }
}

/// Phase 1 on a backend's image store: pull the images of `template` one
/// after the other, skipping cached ones. The shared scope is stamped
/// before each image the store lacks is fetched — so a call failing after
/// part of the set landed is covered — and not at all when everything was
/// cached, since such a pull changes nothing a reader could see.
pub(crate) fn pull_images(
    now: SimTime,
    template: &ServiceTemplate,
    registries: &RegistrySet,
    store: &mut ImageStore,
    rng: &mut SimRng,
    stamps: &mut Stamps,
) -> Result<SimTime, ClusterError> {
    let mut t = now;
    for image in template.images() {
        let reg = registries
            .route(image)
            .ok_or_else(|| ClusterError::ImageUnavailable(image.clone()))?;
        if !store.has_image(image) {
            stamps.stamp_shared();
        }
        let outcome = reg
            .pull(t, image, store, rng)
            .map_err(|registry::PullError::UnknownImage(i)| ClusterError::ImageUnavailable(i))?;
        t = outcome.completed_at;
    }
    Ok(t)
}

/// Fig. 4's Delete phase on a backend's image store: the shared scope is
/// stamped only when the image was there to remove.
pub(crate) fn delete_image(store: &mut ImageStore, image: &ImageRef, stamps: &mut Stamps) -> bool {
    let removed = store.remove_image(image);
    if removed {
        stamps.stamp_shared();
    }
    removed
}

impl ServiceStatus {
    /// The status of a service the cluster does not know: nothing cached,
    /// nothing created, no replicas, no address.
    pub fn absent() -> ServiceStatus {
        ServiceStatus::default()
    }

    pub fn is_ready(&self) -> bool {
        self.ready_replicas > 0
    }
}

/// Errors common to all backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    UnknownService(String),
    AlreadyCreated(String),
    /// Scale-up attempted before the service was created.
    NotCreated(String),
    /// Scale-up attempted with images missing from the node store.
    ImageNotCached(ImageRef),
    /// No registry serves the image.
    ImageUnavailable(ImageRef),
    InsufficientResources(&'static str),
    /// The service's containers are still in an earlier operation (a start
    /// issued while a create is still running); a later retry can succeed.
    Busy(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::UnknownService(s) => write!(f, "unknown service {s}"),
            ClusterError::AlreadyCreated(s) => write!(f, "service {s} already created"),
            ClusterError::NotCreated(s) => write!(f, "service {s} not created"),
            ClusterError::ImageNotCached(i) => write!(f, "image {i} not cached on node"),
            ClusterError::ImageUnavailable(i) => write!(f, "no registry serves {i}"),
            ClusterError::InsufficientResources(w) => write!(f, "insufficient {w}"),
            ClusterError::Busy(s) => write!(f, "service {s} busy with an earlier operation"),
        }
    }
}
impl std::error::Error for ClusterError {}

/// Result of a scale-up call.
///
/// `accepted_at` is when the backend's API returned (Docker's `start` returns
/// once the process is spawned; `kubectl scale` returns once the replica
/// count is committed). `expected_ready` is when the backend expects the new
/// replicas to be connectable. The gap between the two is what the
/// controller's port polling experiences as *wait time* (paper Figs. 14–15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleReceipt {
    pub accepted_at: SimTime,
    pub expected_ready: SimTime,
}

/// One edge cluster as seen by the SDN controller's Dispatcher.
pub trait ClusterBackend {
    fn cluster_name(&self) -> &str;
    fn kind(&self) -> ClusterKind;

    /// Phase 1 (Fig. 4): ensure all images of `template` are cached locally.
    /// Returns the instant the last image is fully on disk (== `now` when
    /// everything is already cached). Idempotent.
    fn pull(
        &mut self,
        now: SimTime,
        template: &ServiceTemplate,
        registries: &RegistrySet,
    ) -> Result<SimTime, ClusterError>;

    /// Phase 2: create the service — Docker: create the container(s);
    /// Kubernetes: create Deployment + Service with zero replicas.
    /// Returns the creation-complete instant.
    fn create(&mut self, now: SimTime, template: &ServiceTemplate)
        -> Result<SimTime, ClusterError>;

    /// Phase 3: scale the service to `replicas`. The controller still
    /// verifies readiness by polling the port (paper §VI) — the receipt's
    /// `expected_ready` is the backend's own view, not a promise.
    fn scale_up(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<ScaleReceipt, ClusterError>;

    /// Scale down to `replicas` (0 = stop all instances, keep the service).
    fn scale_down(
        &mut self,
        now: SimTime,
        service: &str,
        replicas: u32,
    ) -> Result<SimTime, ClusterError>;

    /// Remove the service entirely (containers / Deployment + Service).
    fn remove(&mut self, now: SimTime, service: &str) -> Result<SimTime, ClusterError>;

    /// Delete a cached image from the node (Fig. 4's optional Delete phase).
    fn delete_image(&mut self, now: SimTime, image: &ImageRef) -> bool;

    /// The one status read: status of `service` at `now`, its validity
    /// bound, and — when `endpoints` is given — the addresses of the
    /// individual *ready* replicas appended to it, for Local-Scheduler
    /// instance selection (Docker exposes one host port per replica; backends
    /// that balance internally report their one virtual endpoint). A caller
    /// that only wants the status passes `None` and pays for no list.
    ///
    /// Note `images_cached` is only meaningful once the service is created;
    /// use [`ClusterBackend::has_images`] to ask about the node's layer store
    /// independently of service objects.
    fn observe(
        &self,
        now: SimTime,
        service: &str,
        endpoints: Option<&mut Vec<SocketAddr>>,
    ) -> ServiceSnapshot;

    /// Monotonic counter that moves whenever a read under `scope` could
    /// change by mutation: the later of the last mutation of that slot (for
    /// [`Scope::Absent`], the last `create`) and the last change of the
    /// image store. A reader holding a [`ServiceSnapshot`] may reuse
    /// it for any `now` in `snapped_at <= now < stable_until` while the
    /// epoch of its `scope` is unchanged. Every `&mut` method stamps the
    /// service it names at its top. Wrappers forward the epoch of the
    /// backend they wrap, where the mutations land.
    fn epoch(&self, scope: Scope) -> u64;

    /// Status of `service` at `now` ([`ClusterBackend::observe`] without the
    /// endpoint list). Provided; no backend overrides it.
    fn status(&self, now: SimTime, service: &str) -> ServiceStatus {
        self.observe(now, service, None).status
    }

    /// Are all images of `template` present on the node (regardless of
    /// whether the service has been created)?
    fn has_images(&self, template: &ServiceTemplate) -> bool;

    /// Is the service port connectable at `now`? Provided; no backend
    /// overrides it. The controller's probes do not call it: they read
    /// [`ClusterBackend::observe`] through its snapshot cache.
    fn is_ready(&self, now: SimTime, service: &str) -> bool {
        self.status(now, service).is_ready()
    }

    /// Addresses of the individual *ready* replicas at `now`, as a fresh
    /// list. Provided; no backend overrides it.
    fn replica_endpoints(&self, now: SimTime, service: &str) -> Vec<SocketAddr> {
        let mut out = Vec::new();
        self.observe(now, service, Some(&mut out));
        out
    }

    /// Names of all created services (for inventory / scale-down sweeps).
    fn services(&self) -> Vec<String>;

    /// Current CPU load fraction (0.0–1.0) — fed to load-aware schedulers.
    fn load(&self) -> f64;

    /// Fault injection: kill one running instance of `service` at `now`.
    fn inject_crash(&mut self, now: SimTime, service: &str) -> CrashOutcome;
}

/// What happened when a crash was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashOutcome {
    /// Nothing was running, nothing crashed.
    NoInstance,
    /// An instance died and the backend will NOT recover it on its own
    /// (plain Docker without a restart policy): recovery is the
    /// controller's job.
    Down,
    /// An instance died and the backend restores it by itself at the given
    /// instant (kubelet restart, wasm gateway re-instantiation).
    Recovering(SimTime),
}

impl CrashOutcome {
    /// Did anything actually crash?
    pub fn crashed(&self) -> bool {
        !matches!(self, CrashOutcome::NoInstance)
    }

    /// Self-recovery instant, if the backend heals itself.
    pub fn recovery(&self) -> Option<SimTime> {
        match self {
            CrashOutcome::Recovering(t) => Some(*t),
            _ => None,
        }
    }
}
