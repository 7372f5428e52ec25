//! A containerd-like runtime for one node.
//!
//! Operations are instantaneous *calls* that return the **completion time** of
//! the work they start; the caller (the cluster control planes in the
//! `cluster` crate) schedules its follow-up events at those instants. State
//! queries take `now` and answer consistently with the in-flight work, so the
//! component stays a deterministic pure state machine.
//!
//! The cost model follows the startup breakdown measured by Mohan et al.
//! (HotCloud'19, the paper's \[23\]): creation and initialization of network
//! namespaces account for ~90 % of container start time. App-init time (from
//! process start until the service's port opens) comes from the service spec —
//! it is the part the paper's controller polls for (Figs. 14/15).

use simcore::DetHashMap;

use simcore::{DurationDist, SimDuration, SimRng, SimTime};

use crate::image::ImageRef;
use crate::store::ImageStore;

/// Identifies a container within one runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContainerId(pub u64);

/// Lifecycle states (paper Fig. 4 bottom row, plus the transient phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// `create` issued; becomes `Created` at its completion time.
    Creating,
    Created,
    /// `start` issued; becomes `Running` when namespaces + process are up.
    Starting,
    /// Process running. The service is *ready* only once app-init completes.
    Running,
    Stopped,
    Removed,
}

/// What to run and what it needs.
#[derive(Debug, Clone)]
pub struct ContainerSpec {
    pub name: String,
    pub image: ImageRef,
    /// Time from process start until the service port accepts connections
    /// (e.g. ~0 for asmttpd, seconds of model loading for ResNet). Sampled
    /// per-instance by the caller.
    pub app_init: SimDuration,
    /// Reserved CPU in milli-cores.
    pub cpu_millis: u32,
    /// Reserved memory in bytes.
    pub mem_bytes: u64,
}

/// Per-operation cost distributions, in milliseconds, for one node class.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// containerd: snapshot the image, write config (container create).
    pub create: DurationDist,
    /// runc: create + initialize namespaces/cgroups — dominates start.
    pub namespace_setup: DurationDist,
    /// Fork/exec of the entrypoint after namespaces exist.
    pub process_spawn: DurationDist,
    pub stop: DurationDist,
    pub remove: DurationDist,
    /// Multiplier applied to all of the above (node slowness).
    pub speed_factor: f64,
}

impl CostModel {
    /// The Edge Gateway Server: Threadripper-class x86 (paper §VI).
    /// Calibrated so Docker's create ≈ 100 ms overhead (Fig. 12) and the
    /// container part of scale-up lands in the 300-400 ms range that makes
    /// the total Docker scale-up ≈ 0.5 s (Fig. 11).
    pub fn egs() -> CostModel {
        CostModel {
            create: DurationDist::log_normal_ms(85.0, 0.18),
            namespace_setup: DurationDist::log_normal_ms(290.0, 0.15),
            process_spawn: DurationDist::log_normal_ms(25.0, 0.2),
            stop: DurationDist::log_normal_ms(40.0, 0.2),
            remove: DurationDist::log_normal_ms(60.0, 0.2),
            speed_factor: 1.0,
        }
    }

    /// A Raspberry Pi 4B edge node: same shape, ~3.5x slower.
    pub fn raspberry_pi() -> CostModel {
        CostModel {
            speed_factor: 3.5,
            ..CostModel::egs()
        }
    }

    fn sample(&self, dist: &DurationDist, rng: &mut SimRng) -> SimDuration {
        dist.sample(rng).mul_f64(self.speed_factor)
    }
}

/// A container and its lifecycle timeline.
#[derive(Debug, Clone)]
pub struct Container {
    pub id: ContainerId,
    pub spec: ContainerSpec,
    state: ContainerState,
    /// When the in-flight transition (if any) completes.
    transition_done: SimTime,
    /// When the service port opens (valid once `Running`).
    ready_at: SimTime,
}

impl Container {
    /// The externally visible state at `now` (in-flight transitions resolve
    /// once their completion instant passes).
    pub fn state_at(&self, now: SimTime) -> ContainerState {
        match self.state {
            ContainerState::Creating if now >= self.transition_done => ContainerState::Created,
            ContainerState::Starting if now >= self.transition_done => ContainerState::Running,
            s => s,
        }
    }

    /// Is the service inside accepting connections at `now`?
    pub(crate) fn is_ready(&self, now: SimTime) -> bool {
        matches!(self.state_at(now), ContainerState::Running) && now >= self.ready_at
    }

    /// Earliest instant strictly after `now` at which this container's
    /// observable state (`state_at` / `is_ready`) can still change without a
    /// runtime mutation; `None` once fully settled. Used to bound the
    /// validity of controller-side status snapshots (DESIGN.md §5i).
    pub(crate) fn next_transition_after(&self, now: SimTime) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            if t > now {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        if matches!(
            self.state,
            ContainerState::Creating | ContainerState::Starting
        ) {
            consider(self.transition_done);
        }
        consider(self.ready_at);
        next
    }
}

/// Why a runtime operation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    ImageNotPresent(ImageRef),
    UnknownContainer(ContainerId),
    /// The container is not in a state that allows the operation (includes
    /// calling an op before the previous transition completed).
    InvalidState {
        have: ContainerState,
        want: &'static str,
    },
    InsufficientResources {
        what: &'static str,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::ImageNotPresent(i) => write!(f, "image {i} not present on node"),
            RuntimeError::UnknownContainer(id) => write!(f, "unknown container {id:?}"),
            RuntimeError::InvalidState { have, want } => {
                write!(f, "container is {have:?}, operation needs {want}")
            }
            RuntimeError::InsufficientResources { what } => {
                write!(f, "insufficient {what} on node")
            }
        }
    }
}
impl std::error::Error for RuntimeError {}

/// The per-node runtime: image store + containers + resource accounting.
#[derive(Debug)]
pub struct Runtime {
    pub store: ImageStore,
    cost: CostModel,
    rng: SimRng,
    // Probed by every controller-side readiness check (`is_port_open`); the
    // deterministic hasher keeps the per-packet-in probe cheap.
    containers: DetHashMap<ContainerId, Container>,
    next_id: u64,
    cpu_capacity_millis: u32,
    mem_capacity_bytes: u64,
    cpu_used_millis: u32,
    mem_used_bytes: u64,
}

impl Runtime {
    pub fn new(cost: CostModel, rng: SimRng, cpu_millis: u32, mem_bytes: u64) -> Runtime {
        Runtime {
            store: ImageStore::new(),
            cost,
            rng,
            containers: DetHashMap::default(),
            next_id: 0,
            cpu_capacity_millis: cpu_millis,
            mem_capacity_bytes: mem_bytes,
            cpu_used_millis: 0,
            mem_used_bytes: 0,
        }
    }

    /// The EGS runtime: 12 cores, 32 GiB (paper §VI).
    pub fn egs(rng: SimRng) -> Runtime {
        Runtime::new(CostModel::egs(), rng, 12_000, 32 * (1 << 30))
    }

    pub(crate) fn cpu_free_millis(&self) -> u32 {
        self.cpu_capacity_millis - self.cpu_used_millis
    }
    pub(crate) fn mem_free_bytes(&self) -> u64 {
        self.mem_capacity_bytes - self.mem_used_bytes
    }

    /// Fraction of CPU capacity currently reserved (0.0–1.0).
    pub fn cpu_utilization(&self) -> f64 {
        self.cpu_used_millis as f64 / self.cpu_capacity_millis as f64
    }

    /// Create a container (containerd create). Returns its id and the instant
    /// the create completes. Created-but-not-started containers consume no
    /// CPU/memory; resources are reserved by [`Runtime::start`].
    pub fn create(
        &mut self,
        now: SimTime,
        spec: ContainerSpec,
    ) -> Result<(ContainerId, SimTime), RuntimeError> {
        if !self.store.has_image(&spec.image) {
            return Err(RuntimeError::ImageNotPresent(spec.image.clone()));
        }
        let id = ContainerId(self.next_id);
        self.next_id += 1;
        let done = now + self.cost.sample(&self.cost.create.clone(), &mut self.rng);
        self.containers.insert(
            id,
            Container {
                id,
                spec,
                state: ContainerState::Creating,
                transition_done: done,
                ready_at: SimTime::FAR_FUTURE,
            },
        );
        Ok((id, done))
    }

    /// Start a created container. Returns `(running_at, ready_at)`:
    /// `running_at` is when namespaces + process are up (the container shows
    /// as Running), `ready_at` is when the service port opens.
    pub fn start(
        &mut self,
        now: SimTime,
        id: ContainerId,
    ) -> Result<(SimTime, SimTime), RuntimeError> {
        let cost = self.cost.clone();
        let ns = cost.sample(&cost.namespace_setup, &mut self.rng);
        let spawn = cost.sample(&cost.process_spawn, &mut self.rng);
        let (cpu_free, mem_free) = (self.cpu_free_millis(), self.mem_free_bytes());
        let c = self.get_mut(id)?;
        match c.state_at(now) {
            ContainerState::Created | ContainerState::Stopped => {}
            have => {
                return Err(RuntimeError::InvalidState {
                    have,
                    want: "Created or Stopped",
                })
            }
        }
        if c.spec.cpu_millis > cpu_free {
            return Err(RuntimeError::InsufficientResources { what: "cpu" });
        }
        if c.spec.mem_bytes > mem_free {
            return Err(RuntimeError::InsufficientResources { what: "memory" });
        }
        let (cpu, mem) = (c.spec.cpu_millis, c.spec.mem_bytes);
        self.cpu_used_millis += cpu;
        self.mem_used_bytes += mem;
        let c = self.get_mut(id)?;
        let running_at = now + ns + spawn;
        let ready_at = running_at + c.spec.app_init;
        c.state = ContainerState::Starting;
        c.transition_done = running_at;
        c.ready_at = ready_at;
        Ok((running_at, ready_at))
    }

    /// A container's process dies unexpectedly (OOM, segfault, …): the
    /// container transitions to `Stopped` immediately and its resources are
    /// released. What happens next is the orchestrator's business — Docker
    /// (no restart policy) leaves it down; a kubelet restarts it.
    pub fn crash(&mut self, now: SimTime, id: ContainerId) -> Result<(), RuntimeError> {
        let c = self.get_mut(id)?;
        match c.state_at(now) {
            ContainerState::Running => {}
            have => {
                return Err(RuntimeError::InvalidState {
                    have,
                    want: "Running",
                })
            }
        }
        c.state = ContainerState::Stopped;
        c.transition_done = now;
        c.ready_at = SimTime::FAR_FUTURE;
        let (cpu, mem) = (c.spec.cpu_millis, c.spec.mem_bytes);
        self.cpu_used_millis -= cpu;
        self.mem_used_bytes -= mem;
        Ok(())
    }

    /// Stop a running container. Returns the stop-completion instant.
    pub fn stop(&mut self, now: SimTime, id: ContainerId) -> Result<SimTime, RuntimeError> {
        let cost = self.cost.clone();
        let dur = cost.sample(&cost.stop, &mut self.rng);
        let c = self.get_mut(id)?;
        match c.state_at(now) {
            ContainerState::Running => {}
            have => {
                return Err(RuntimeError::InvalidState {
                    have,
                    want: "Running",
                })
            }
        }
        c.state = ContainerState::Stopped;
        c.transition_done = now + dur;
        c.ready_at = SimTime::FAR_FUTURE;
        let (cpu, mem) = (c.spec.cpu_millis, c.spec.mem_bytes);
        self.cpu_used_millis -= cpu;
        self.mem_used_bytes -= mem;
        Ok(now + dur)
    }

    /// Remove a container (must be Created or Stopped); frees its resources.
    pub fn remove(&mut self, now: SimTime, id: ContainerId) -> Result<SimTime, RuntimeError> {
        let cost = self.cost.clone();
        let dur = cost.sample(&cost.remove, &mut self.rng);
        let c = self.get_mut(id)?;
        match c.state_at(now) {
            ContainerState::Created | ContainerState::Stopped => {}
            have => {
                return Err(RuntimeError::InvalidState {
                    have,
                    want: "Created or Stopped",
                })
            }
        }
        c.state = ContainerState::Removed;
        c.transition_done = now + dur;
        Ok(now + dur)
    }

    pub fn get(&self, id: ContainerId) -> Option<&Container> {
        self.containers.get(&id)
    }

    fn get_mut(&mut self, id: ContainerId) -> Result<&mut Container, RuntimeError> {
        self.containers
            .get_mut(&id)
            .ok_or(RuntimeError::UnknownContainer(id))
    }

    /// Is the service port of `id` open at `now`? (What the controller's
    /// readiness probe tests.)
    pub fn is_port_open(&self, now: SimTime, id: ContainerId) -> bool {
        self.get(id).is_some_and(|c| c.is_ready(now))
    }

    /// See `Container::next_transition_after`.
    pub fn port_transition_after(&self, now: SimTime, id: ContainerId) -> Option<SimTime> {
        self.get(id).and_then(|c| c.next_transition_after(now))
    }

    /// How many containers exist and are not removed.
    #[doc(hidden)] // cluster's Kubernetes tests count live containers with it
    pub fn container_count(&self) -> usize {
        self.containers
            .values()
            .filter(|c| c.state != ContainerState::Removed)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{synthesize_layers, ImageManifest};

    fn rt() -> Runtime {
        let mut rt = Runtime::egs(SimRng::seed_from_u64(1));
        rt.store.add_image(ImageManifest::new(
            "nginx:1.23.2",
            synthesize_layers(1, 141_000_000, 6),
        ));
        rt
    }

    fn spec(init_ms: u64) -> ContainerSpec {
        ContainerSpec {
            name: "nginx".into(),
            image: ImageRef::new("nginx:1.23.2"),
            app_init: SimDuration::from_millis(init_ms),
            cpu_millis: 500,
            mem_bytes: 256 << 20,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn create_requires_image() {
        let mut rt = Runtime::egs(SimRng::seed_from_u64(1));
        let err = rt.create(t(0), spec(0)).unwrap_err();
        assert!(matches!(err, RuntimeError::ImageNotPresent(_)));
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut rt = rt();
        let (id, created_at) = rt.create(t(0), spec(100)).unwrap();
        assert_eq!(rt.get(id).unwrap().state_at(t(0)), ContainerState::Creating);
        assert_eq!(
            rt.get(id).unwrap().state_at(created_at),
            ContainerState::Created
        );

        let (running_at, ready_at) = rt.start(created_at, id).unwrap();
        assert!(running_at > created_at);
        assert_eq!(ready_at, running_at + SimDuration::from_millis(100));
        assert_eq!(
            rt.get(id).unwrap().state_at(running_at),
            ContainerState::Running
        );
        assert!(
            !rt.is_port_open(running_at, id),
            "port closed during app init"
        );
        assert!(rt.is_port_open(ready_at, id));

        let stopped_at = rt.stop(ready_at, id).unwrap();
        assert!(!rt.is_port_open(stopped_at, id));
        let removed_at = rt.remove(stopped_at, id).unwrap();
        assert!(removed_at > stopped_at);
        assert_eq!(rt.container_count(), 0);
    }

    #[test]
    fn namespace_setup_dominates_start() {
        // Start duration must be ~90% namespace setup (Mohan et al.).
        let mut rt = rt();
        let (id, created) = rt.create(t(0), spec(0)).unwrap();
        let (running, _) = rt.start(created, id).unwrap();
        let start_ms = (running - created).as_millis_f64();
        assert!(
            (200.0..500.0).contains(&start_ms),
            "start took {start_ms} ms, want namespace-dominated 200-500"
        );
    }

    #[test]
    fn start_before_create_completes_is_invalid() {
        let mut rt = rt();
        let (id, created_at) = rt.create(t(0), spec(0)).unwrap();
        let early = t(0); // create still in flight
        assert!(early < created_at);
        let err = rt.start(early, id).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidState { .. }));
    }

    #[test]
    fn double_start_is_invalid() {
        let mut rt = rt();
        let (id, created_at) = rt.create(t(0), spec(0)).unwrap();
        let (running_at, _) = rt.start(created_at, id).unwrap();
        let err = rt.start(running_at, id).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::InvalidState {
                have: ContainerState::Running,
                ..
            }
        ));
    }

    #[test]
    fn restart_after_stop_allowed() {
        let mut rt = rt();
        let (id, created_at) = rt.create(t(0), spec(50)).unwrap();
        let (_, ready) = rt.start(created_at, id).unwrap();
        let stopped = rt.stop(ready, id).unwrap();
        let (running2, ready2) = rt.start(stopped, id).unwrap();
        assert!(ready2 > running2);
        assert!(rt.is_port_open(ready2, id));
    }

    #[test]
    fn resources_reserved_at_start_freed_at_stop() {
        let mut rt = rt();
        let free0 = rt.cpu_free_millis();
        let (id, created) = rt.create(t(0), spec(0)).unwrap();
        assert_eq!(rt.cpu_free_millis(), free0, "created containers are free");
        let (_, ready) = rt.start(created, id).unwrap();
        assert_eq!(rt.cpu_free_millis(), free0 - 500);
        assert!(rt.cpu_utilization() > 0.0);
        let stopped = rt.stop(ready, id).unwrap();
        assert_eq!(rt.cpu_free_millis(), free0);
        rt.remove(stopped, id).unwrap();
        assert_eq!(rt.cpu_free_millis(), free0, "no double free on remove");
    }

    #[test]
    fn insufficient_memory_rejected_at_start() {
        let mut rt = rt();
        let mut s = spec(0);
        s.mem_bytes = 100 << 40; // absurd
        let (id, created) = rt.create(t(0), s).unwrap();
        let err = rt.start(created, id).unwrap_err();
        assert_eq!(err, RuntimeError::InsufficientResources { what: "memory" });
        // nothing leaked; the container stays Created
        assert_eq!(
            rt.get(id).unwrap().state_at(created),
            ContainerState::Created
        );
        assert_eq!(rt.mem_free_bytes(), 32 * (1 << 30));
    }

    #[test]
    fn pi_is_slower_than_egs() {
        let run = |mut rt: Runtime| {
            rt.store.add_image(ImageManifest::new(
                "nginx:1.23.2",
                synthesize_layers(1, 141_000_000, 6),
            ));
            let (id, created) = rt.create(t(0), spec(0)).unwrap();
            let (running, _) = rt.start(created, id).unwrap();
            running.since(SimTime::ZERO).as_millis_f64()
        };
        let egs = run(Runtime::egs(SimRng::seed_from_u64(7)));
        let pi = run(Runtime::new(
            CostModel::raspberry_pi(),
            SimRng::seed_from_u64(7),
            4_000,
            4 * (1 << 30),
        ));
        assert!(pi > egs * 2.5, "pi={pi} egs={egs}");
    }

    #[test]
    fn unknown_container_errors() {
        let mut rt = rt();
        assert!(matches!(
            rt.start(t(0), ContainerId(99)),
            Err(RuntimeError::UnknownContainer(_))
        ));
        assert!(!rt.is_port_open(t(0), ContainerId(99)));
    }

    #[test]
    fn crash_stops_and_frees_resources() {
        let mut rt = rt();
        let free0 = rt.cpu_free_millis();
        let (id, created) = rt.create(t(0), spec(50)).unwrap();
        let (_, ready) = rt.start(created, id).unwrap();
        assert!(rt.is_port_open(ready, id));
        rt.crash(ready + SimDuration::from_secs(1), id).unwrap();
        assert!(!rt.is_port_open(ready + SimDuration::from_secs(1), id));
        assert_eq!(rt.cpu_free_millis(), free0, "crash releases resources");
        // crashing a stopped container is invalid
        assert!(rt.crash(ready + SimDuration::from_secs(2), id).is_err());
        // a crashed container can be restarted
        let (_, ready2) = rt.start(ready + SimDuration::from_secs(2), id).unwrap();
        assert!(rt.is_port_open(ready2, id));
    }
}
