//! The SDN controller: PacketIn handling (the Dispatcher algorithm of paper
//! Fig. 7), flow installation and idle scale-down. The deployment pipeline
//! itself (Pull → Create → Scale-Up → poll port) lives in
//! [`crate::dispatcher`] as per-deployment state machines; the event loop
//! drives everything through the single
//! [`Controller::next_wakeup`]/[`Controller::on_wakeup`] surface.
//!
//! The controller *owns* the cluster backends and the registry routing — just
//! like the paper's Ryu application holds the Docker/Kubernetes client
//! handles — and communicates with the switch purely through
//! [`ControllerOutput`] messages (`FlowMod`s and buffered-packet releases)
//! stamped with the virtual time at which they are emitted. The surrounding
//! event loop (the `testbed` crate) delivers them with the control-channel
//! latency applied.

use std::collections::HashMap;
use std::sync::Arc;

use cluster::{
    ClusterBackend, ClusterKind, ResourceAllocation, ResourceRequest, Scope, ServiceStatus,
    SiteCapacity,
};
use registry::RegistrySet;
use simcore::{DeadlineIndex, DetHashMap, SimDuration, SimTime};
use simnet::openflow::{Action, BufferId, FlowMatch, FlowSpec, PortId};
use simnet::{IpAddr, Packet, SocketAddr};

use crate::catalog::{cookie_for, RegisteredService, ServiceCatalog, ServiceId};
use crate::dispatcher::{
    AdmissionError, DeployError, DeployMachine, DeployPhaseKind, Dispatcher, InstanceKey,
    MachineOutcome, StepCtx, Waiter,
};
use crate::flowmemory::{FlowKey, FlowMemory};
use crate::predictor::{NoPrediction, Predictor};
use crate::scheduler::{
    ClusterId, ClusterView, GlobalScheduler, LocalScheduler, NearestWaiting, RoundRobinLocal,
    SchedulingContext,
};

/// Controller tuning knobs.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Decision-making time per PacketIn (Ryu app processing).
    pub processing_delay: SimDuration,
    /// Port-open polling interval ("the controller continuously tests if the
    /// respective port is open", paper §VI).
    pub probe_interval: SimDuration,
    /// Give up on a deployment if the port never opens within this horizon.
    pub probe_timeout: SimDuration,
    /// Idle timeout for flows installed *in the switch* — kept low because
    /// the FlowMemory can always re-install (paper §V).
    pub switch_idle_timeout: SimDuration,
    /// Idle timeout of memorized flows (longer than the switch's).
    pub memory_idle_timeout: SimDuration,
    /// Scale service instances to zero once no memorized flow references
    /// them (paper §V's second purpose of the timeouts).
    pub scale_down_idle: bool,
    /// Remove the service objects entirely (Fig. 4's Remove phase) after a
    /// service has been scaled to zero for this long; `None` keeps created
    /// services around forever (cheap: scaled-to-zero services only hold
    /// API objects / stopped containers).
    pub remove_after: Option<SimDuration>,
    /// How many times to retry a failed deployment phase (transient cluster
    /// or registry errors) before falling back to the cloud.
    pub deploy_retries: u32,
    /// Back-off between retries.
    pub retry_backoff: SimDuration,
    /// Replica autoscaling (Fahs et al.'s Voilà line of work, the paper's
    /// \[18\]): keep about this many live client flows per replica; `None`
    /// disables autoscaling (the paper's evaluated setting).
    pub autoscale_flows_per_replica: Option<u32>,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            processing_delay: SimDuration::from_micros(500),
            probe_interval: SimDuration::from_millis(50),
            probe_timeout: SimDuration::from_secs(120),
            switch_idle_timeout: SimDuration::from_secs(10),
            memory_idle_timeout: SimDuration::from_secs(60),
            scale_down_idle: true,
            remove_after: None,
            deploy_retries: 2,
            retry_backoff: SimDuration::from_millis(250),
            autoscale_flows_per_replica: None,
        }
    }
}

/// One of the (possibly several) switches the controller manages — the
/// "distributed" in the paper's title; the paper speaks of instructing "the
/// switch(es)".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(pub usize);

/// The default single-switch setup's only switch.
pub const INGRESS: SwitchId = SwitchId(0);

/// Priority of installed redirect flows; host routes sit one below, so a
/// redirect always wins over the plain route to the same client.
const REDIRECT_PRIORITY: u16 = 100;

/// A message from the controller to a switch, stamped with emission time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControllerOutput {
    /// Install (or replace) the flow entry described by `spec` — feed the
    /// spec straight into [`simnet::Switch::flow_mod`].
    FlowMod {
        at: SimTime,
        switch: SwitchId,
        spec: FlowSpec,
    },
    /// Release a buffered packet through the flow table (`OFPP_TABLE`).
    ReleaseViaTable {
        at: SimTime,
        switch: SwitchId,
        buffer_id: BufferId,
    },
    /// Give up on a buffered packet.
    DropBuffered {
        at: SimTime,
        switch: SwitchId,
        buffer_id: BufferId,
    },
    /// Tear down every installed entry matching `matcher` — feed it into
    /// [`simnet::FlowTable::delete_matching`]. Emitted on client handover so
    /// the departing ingress stops rewriting a client it no longer serves.
    FlowDelete {
        at: SimTime,
        switch: SwitchId,
        matcher: FlowMatch,
    },
}

impl ControllerOutput {
    pub fn at(&self) -> SimTime {
        match self {
            ControllerOutput::FlowMod { at, .. }
            | ControllerOutput::ReleaseViaTable { at, .. }
            | ControllerOutput::DropBuffered { at, .. }
            | ControllerOutput::FlowDelete { at, .. } => *at,
        }
    }

    pub fn switch(&self) -> SwitchId {
        match self {
            ControllerOutput::FlowMod { switch, .. }
            | ControllerOutput::ReleaseViaTable { switch, .. }
            | ControllerOutput::DropBuffered { switch, .. }
            | ControllerOutput::FlowDelete { switch, .. } => *switch,
        }
    }
}

/// Coordination hook consulted before the controller starts a new
/// deployment machine. In a single-controller deployment no
/// gate is installed and every acquisition trivially succeeds; a federated
/// mesh (the `edgemesh` crate) installs a shared deployment-lease table here
/// so two controllers that concurrently see a PacketIn for the same
/// undeployed service at the same BEST cluster produce exactly one
/// deployment. The gate models a linearizable coordination service (think
/// etcd): `try_acquire` answers synchronously, and the deterministic event
/// order of the simulation breaks ties.
pub trait DeployGate {
    /// Try to take (or confirm holding) the deployment lease for
    /// `(cluster, service)`. `false` means another controller already holds
    /// it — do not start a machine; a remote status delta will announce the
    /// outcome.
    fn try_acquire(&mut self, now: SimTime, cluster: ClusterId, service: ServiceId) -> bool;
    /// Release the lease when the local deployment reaches Ready or Failed.
    fn release(&mut self, now: SimTime, cluster: ClusterId, service: ServiceId);
}

/// What changed about one `(service, cluster)` instance — the unit of the
/// mesh's delta-gossip state sync. Emitted by a controller (when built with
/// [`ControllerBuilder::emit_status_deltas`]) and applied to every *other*
/// controller via [`Controller::apply_remote_delta`] after a simulated link
/// latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusDelta {
    /// When the originating controller observed the change.
    pub origin: SimTime,
    pub cluster: ClusterId,
    pub service: ServiceId,
    pub kind: DeltaKind,
}

/// The kind of instance-status change carried by a [`StatusDelta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// The instance became ready (a deployment finished) — receivers
    /// retarget their memorized flows toward it (without-waiting Fig. 3).
    Ready,
    /// The instance is gone (deployment failed, scaled to zero, or removed)
    /// — receivers learn the redirect target is stale.
    Gone,
}

/// Everything recorded about one on-demand deployment (drives Figs. 10–15).
#[derive(Debug, Clone)]
pub struct DeploymentRecord {
    pub service: String,
    pub cluster: ClusterId,
    pub kind: ClusterKind,
    /// When the triggering PacketIn reached the Dispatcher.
    pub triggered_at: SimTime,
    /// Pull phase (start, end); `None` when the image was cached.
    pub pull: Option<(SimTime, SimTime)>,
    /// Create phase (start, end); `None` when already created.
    pub create: Option<(SimTime, SimTime)>,
    /// Scale-Up phase: (issue, backend API returned, backend-expected ready).
    pub scale_up: Option<(SimTime, SimTime, SimTime)>,
    /// When the controller's port polling confirmed readiness.
    pub ready_detected: SimTime,
    /// Was a client request held waiting on this deployment?
    pub waited: bool,
}

impl DeploymentRecord {
    /// Time from trigger until the controller considered the service usable.
    pub fn total(&self) -> SimDuration {
        self.ready_detected - self.triggered_at
    }

    /// The Fig. 14/15 metric: wait from the scale-up API returning until the
    /// port was seen open.
    pub fn wait_time(&self) -> SimDuration {
        match self.scale_up {
            Some((_, accepted, _)) => self.ready_detected - accepted,
            None => SimDuration::ZERO,
        }
    }
}

/// Counters and logs exposed for the evaluation harness.
#[derive(Debug, Default)]
pub struct ControllerStats {
    pub packet_ins: u64,
    /// PacketIns answered straight from FlowMemory.
    pub memory_hits: u64,
    /// Requests forwarded toward the real cloud.
    pub cloud_forwards: u64,
    /// Requests held for an in-flight deployment (with waiting).
    pub held_requests: u64,
    /// Requests redirected to a farther instance while BEST deploys.
    pub detoured_requests: u64,
    /// Completed deployments.
    pub deployments: Vec<DeploymentRecord>,
    /// Deployments that never became ready within the probe timeout.
    pub failed_deployments: u64,
    /// Idle instances scaled to zero.
    pub scale_downs: u64,
    /// Services fully removed after prolonged idleness (Fig. 4 Remove).
    pub removals: u64,
    /// Flow retargets after a BEST deployment became ready.
    pub retargets: u64,
    /// Deployments started by the predictor rather than a request.
    pub proactive_deployments: u64,
    /// Phase retries after transient failures.
    pub retried_operations: u64,
    /// Mid-deployment crash recoveries: an instance died while its
    /// deployment was still being probed and the dispatcher re-issued the
    /// scale-up.
    pub crash_recoveries: u64,
    /// Replica increases performed by the autoscaler.
    pub autoscale_ups: u64,
    /// Memorized flows abandoned because the client moved nearer to another
    /// ready instance (Follow-Me-Edge).
    pub follow_me_moves: u64,
    /// Client handovers processed: the client left this controller's ingress
    /// and its memorized flows were torn down so the next ingress re-runs
    /// FAST/BEST from scratch. Always zero with static clients.
    pub handovers: u64,
    /// Deployments *not* started because another controller in the mesh held
    /// the lease (each one is a duplicate deployment avoided). Always zero
    /// without a [`DeployGate`].
    pub lease_rejections: u64,
    /// Remote status deltas applied from mesh peers. Always zero outside a
    /// federated mesh.
    pub remote_deltas: u64,
    /// Scheduler decisions the dispatcher refused because the target site was
    /// out of capacity or failed a placement requirement (each one fell
    /// through to the next-best option or the cloud). Always zero under the
    /// default unlimited [`SiteCapacity`].
    pub admission_rejections: u64,
    /// Times a booking pushed a site's allocation above its declared
    /// capacity. The admission check makes this impossible; the bench gates
    /// on it staying zero.
    pub capacity_violations: u64,
}

/// One attached cluster: the backend plus where it sits.
pub struct AttachedCluster {
    pub backend: Box<dyn ClusterBackend>,
    /// Per-switch latency to this cluster's host; indexed by [`SwitchId`].
    /// "Nearest" is always relative to the requesting client's ingress
    /// switch.
    pub distances: Vec<SimDuration>,
    /// Per-switch port leading (directly or via trunks) to this cluster's
    /// host; indexed by [`SwitchId`]. Single-switch setups have one entry.
    pub ports: Vec<PortId>,
    /// Declared resources of the site ([`SiteCapacity::UNLIMITED`] unless
    /// [`Controller::configure_site`] says otherwise).
    pub capacity: SiteCapacity,
    /// Placement labels the site advertises (matched against
    /// [`cluster::DeploymentRequirements`]).
    pub labels: Arc<[String]>,
    /// Resources currently booked on the site by admitted deployments.
    pub allocated: ResourceAllocation,
    /// Per-service booking: the per-replica demand admitted and how many
    /// replicas are booked.
    admitted: HashMap<ServiceId, (ResourceRequest, u32)>,
    /// Dense per-service snapshot cache (DESIGN.md §5i), indexed by
    /// [`ServiceId`]. Each entry is validated against the epoch of the
    /// backend scope it was read from and its own validity window before
    /// reuse, so a hit is exact — bit-identical to a fresh
    /// [`ClusterBackend::observe`].
    snap_cache: Vec<SnapEntry>,
}

/// One cached [`cluster::ServiceSnapshot`] plus the endpoint list that came
/// with it. The default is the slot of a service not read yet: no instant
/// validates it (`now < stable_until` never holds at `SimTime::ZERO`).
#[derive(Default)]
struct SnapEntry {
    scope: Scope,
    epoch: u64,
    snapped_at: SimTime,
    stable_until: SimTime,
    status: ServiceStatus,
    endpoints: Vec<SocketAddr>,
}

impl AttachedCluster {
    /// The controller's one accessor for backend service state: status +
    /// ready endpoints of `sid` at `now`, read from the backend only when
    /// `now` is outside the cached entry's validity window (earlier than the
    /// read — PDES re-stamping — or at or past `stable_until`) or the epoch
    /// of the scope it was read from has moved.
    fn snapshot(
        &mut self,
        now: SimTime,
        sid: ServiceId,
        name: &str,
    ) -> (&ServiceStatus, &[SocketAddr]) {
        let idx = sid.0 as usize;
        if idx >= self.snap_cache.len() {
            self.snap_cache.resize_with(idx + 1, SnapEntry::default);
        }
        let e = &mut self.snap_cache[idx];
        if !(e.snapped_at <= now && now < e.stable_until && e.epoch == self.backend.epoch(e.scope))
        {
            // The entry keeps its endpoint buffer, so a re-read allocates
            // nothing in steady state.
            e.endpoints.clear();
            let snap = self.backend.observe(now, name, Some(&mut e.endpoints));
            e.scope = snap.scope;
            e.epoch = self.backend.epoch(snap.scope);
            e.snapped_at = now;
            e.stable_until = snap.stable_until;
            e.status = snap.status;
        }
        (&e.status, &e.endpoints)
    }

    /// The status half of [`AttachedCluster::snapshot`].
    fn status_of(&mut self, now: SimTime, sid: ServiceId, name: &str) -> ServiceStatus {
        self.snapshot(now, sid, name).0.clone()
    }
}

/// Proactive-deployment cadence, owned by the controller so predict runs are
/// ordinary wakeups (the event loop no longer pre-pushes tick events).
struct PredictSchedule {
    next: SimTime,
    interval: SimDuration,
    end: SimTime,
    horizon: SimDuration,
}

impl PredictSchedule {
    fn next_due_at(&self) -> Option<SimTime> {
        (self.next <= self.end).then_some(self.next)
    }
}

/// Work items due at recorded instants — pending retargets, scale-down
/// retries — ordered by due instant so the wakeup surface reads the head
/// instead of scanning. Due items come back in insertion order, the order
/// the plain lists this replaces were processed in.
#[derive(Default)]
struct DueQueue {
    /// Keyed `(insertion ordinal, item)`. An item is never moved or removed
    /// before it is due, so every record is the truth and nothing settles.
    due: DeadlineIndex<(u64, InstanceKey)>,
    pushed: u64,
}

impl DueQueue {
    fn push(&mut self, at: SimTime, cluster: ClusterId, service: ServiceId) {
        self.due.file(at, (self.pushed, (cluster, service)));
        self.pushed += 1;
    }

    /// Earliest due instant.
    fn next_at(&self) -> Option<SimTime> {
        self.due.next()
    }

    fn is_due(&self, now: SimTime) -> bool {
        self.next_at().is_some_and(|at| at <= now)
    }

    /// Remove and return every item due at or before `now`, in insertion
    /// order.
    fn take_due(&mut self, now: SimTime) -> impl Iterator<Item = (SimTime, ClusterId, ServiceId)> {
        let mut due = Vec::new();
        while let Some(item) = self.due.pop_due(now) {
            due.push(item);
        }
        due.sort_unstable_by_key(|&(_, (ordinal, _))| ordinal);
        due.into_iter()
            .map(|(at, (_, (cluster, service)))| (at, cluster, service))
    }
}

/// Services scaled to zero, awaiting the Remove phase: when each was scaled
/// down, by key, plus the same instants in time order so the oldest is a peek.
#[derive(Default)]
struct ScaledToZero {
    /// The truth `by_time` is settled against (see [`simcore::deadline`])
    /// before every `&mut self` method returns.
    since: DetHashMap<InstanceKey, SimTime>,
    by_time: DeadlineIndex<InstanceKey>,
}

impl ScaledToZero {
    /// When the longest-idle service was scaled down.
    fn oldest(&self) -> Option<SimTime> {
        self.by_time.next()
    }

    fn insert(&mut self, key: InstanceKey, at: SimTime) {
        self.since.insert(key, at);
        self.by_time.file(at, key);
        self.settle();
    }

    /// Put back the entry a failed deployment displaced, unless the service
    /// was scaled down again in the meantime.
    fn restore(&mut self, key: InstanceKey, at: SimTime) {
        if !self.since.contains_key(&key) {
            self.insert(key, at);
        }
    }

    fn remove(&mut self, key: InstanceKey) -> Option<SimTime> {
        let at = self.since.remove(&key);
        self.settle();
        at
    }

    /// Remove and return the services that have been at zero for at least
    /// `idle_for`, in key order: the Remove phase's backend calls and `Gone`
    /// deltas follow this order, and federated replays diverge if it depends
    /// on anything but the keys.
    fn take_idle(&mut self, now: SimTime, idle_for: SimDuration) -> Vec<InstanceKey> {
        let mut idle = Vec::new();
        while let Some((at, key)) = self.by_time.peek() {
            if now.since(at) < idle_for {
                break;
            }
            self.by_time.pop_due(at);
            self.since.remove(&key);
            idle.push(key);
            self.settle();
        }
        idle.sort_unstable();
        idle
    }

    fn settle(&mut self) {
        self.by_time.settle(|key| self.since.get(key).copied());
    }
}

/// The transparent-edge SDN controller.
pub struct Controller {
    config: ControllerConfig,
    pub catalog: ServiceCatalog,
    memory: FlowMemory,
    global: Box<dyn GlobalScheduler>,
    local: Box<dyn LocalScheduler>,
    clusters: Vec<AttachedCluster>,
    registries: RegistrySet,
    /// Per-switch port toward the cloud/WAN uplink (directly or via trunks).
    cloud_ports: Vec<PortId>,
    /// The deployment pipeline: one state machine per in-flight deployment,
    /// advanced by [`Controller::on_wakeup`].
    dispatcher: Dispatcher,
    /// Dispatcher-tracked client locations: which switch and port each
    /// client was last seen at (paper §IV-B).
    client_ports: DetHashMap<IpAddr, (SwitchId, PortId)>,
    /// Reused buffer for the per-decision scheduler view (cleared between
    /// PacketIns; only its capacity survives).
    views_scratch: Vec<ClusterView>,
    /// Pending flow moves produced by BEST deployments, due at the ready
    /// instant.
    retarget_queue: DueQueue,
    /// Services scaled to zero, awaiting the Remove phase.
    scaled_to_zero: ScaledToZero,
    predictor: Box<dyn Predictor>,
    predict: Option<PredictSchedule>,
    /// Most recent dispatcher deployment failure (diagnostics; see
    /// [`Controller::last_deploy_failure`]).
    last_deploy_failure: Option<DeployFailure>,
    /// Most recent admission rejection (diagnostics; see
    /// [`Controller::last_admission_error`]).
    last_admission_error: Option<AdmissionError>,
    /// Mesh deployment-lease hook; `None` (the default) grants everything.
    gate: Option<Box<dyn DeployGate>>,
    /// Emit [`StatusDelta`]s for instance-status changes (mesh gossip input).
    emit_deltas: bool,
    /// Deltas produced since the last [`Controller::drain_status_deltas`].
    status_deltas: Vec<StatusDelta>,
    /// Idle scale-downs whose backend call failed transiently, due at the
    /// retry instant.
    scale_down_retries: DueQueue,
    pub stats: ControllerStats,
}

/// Diagnostic record of a dispatcher deployment that ended in `Failed`:
/// which phase gave up, and why.
#[derive(Debug, Clone)]
pub struct DeployFailure {
    pub cluster: ClusterId,
    pub service: ServiceId,
    pub phase: DeployPhaseKind,
    pub error: DeployError,
}

/// Fluent constructor for [`Controller`] — every dependency has a default
/// (NearestWaiting global scheduler, round-robin local scheduler, empty
/// registry set, cloud uplink on port 0, no predictor), so call-sites only
/// name the pieces they care about:
///
/// ```
/// use edgectl::{Controller, ControllerConfig, NearestReadyFirst};
/// use simnet::openflow::PortId;
///
/// let controller = Controller::builder(ControllerConfig::default())
///     .global(NearestReadyFirst)
///     .cloud_port(PortId(2))
///     .build();
/// assert_eq!(controller.switch_count(), 1);
/// ```
pub struct ControllerBuilder {
    config: ControllerConfig,
    global: Box<dyn GlobalScheduler>,
    local: Box<dyn LocalScheduler>,
    registries: RegistrySet,
    cloud_port: PortId,
    predictor: Box<dyn Predictor>,
    gate: Option<Box<dyn DeployGate>>,
    emit_deltas: bool,
}

impl ControllerBuilder {
    /// Global (cluster-picking) scheduler; already-boxed trait objects are
    /// accepted too.
    pub fn global(mut self, scheduler: impl GlobalScheduler + 'static) -> ControllerBuilder {
        self.global = Box::new(scheduler);
        self
    }

    /// Local (replica-picking) scheduler.
    pub fn local(mut self, scheduler: impl LocalScheduler + 'static) -> ControllerBuilder {
        self.local = Box::new(scheduler);
        self
    }

    /// Image registries the deployment pipeline pulls from.
    pub fn registries(mut self, registries: RegistrySet) -> ControllerBuilder {
        self.registries = registries;
        self
    }

    /// Primary switch's port toward the cloud/WAN uplink.
    pub fn cloud_port(mut self, port: PortId) -> ControllerBuilder {
        self.cloud_port = port;
        self
    }

    /// Proactive-deployment predictor (default: none — the paper's pure
    /// on-demand setting).
    pub fn predictor(mut self, predictor: impl Predictor + 'static) -> ControllerBuilder {
        self.predictor = Box::new(predictor);
        self
    }

    /// Install a mesh deployment-lease gate (see [`DeployGate`]). Without
    /// one, every acquisition succeeds — single-controller behaviour is
    /// byte-identical.
    pub fn deploy_gate(mut self, gate: impl DeployGate + 'static) -> ControllerBuilder {
        self.gate = Some(Box::new(gate));
        self
    }

    /// Emit [`StatusDelta`]s on instance-status changes for the mesh gossip
    /// layer to distribute. Off by default (no allocation, no behaviour
    /// change).
    pub fn emit_status_deltas(mut self) -> ControllerBuilder {
        self.emit_deltas = true;
        self
    }

    pub fn build(self) -> Controller {
        let memory = FlowMemory::new(self.config.memory_idle_timeout)
            .expect("memory_idle_timeout must be non-zero");
        Controller {
            config: self.config,
            catalog: ServiceCatalog::new(),
            memory,
            global: self.global,
            local: self.local,
            clusters: Vec::new(),
            registries: self.registries,
            cloud_ports: vec![self.cloud_port],
            dispatcher: Dispatcher::default(),
            client_ports: DetHashMap::default(),
            views_scratch: Vec::new(),
            retarget_queue: DueQueue::default(),
            scaled_to_zero: ScaledToZero::default(),
            predictor: self.predictor,
            predict: None,
            last_deploy_failure: None,
            last_admission_error: None,
            gate: self.gate,
            emit_deltas: self.emit_deltas,
            status_deltas: Vec::new(),
            scale_down_retries: DueQueue::default(),
            stats: ControllerStats::default(),
        }
    }
}

impl Controller {
    /// Start building a controller: `Controller::builder(config)` + the
    /// [`ControllerBuilder`] setters replace the former positional
    /// constructor.
    pub fn builder(config: ControllerConfig) -> ControllerBuilder {
        ControllerBuilder {
            config,
            global: Box::new(NearestWaiting),
            local: Box::new(RoundRobinLocal::default()),
            registries: RegistrySet::new(),
            cloud_port: PortId(0),
            predictor: Box::new(NoPrediction),
            gate: None,
            emit_deltas: false,
        }
    }

    /// Swap the proactive-deployment predictor after construction (the
    /// testbed derives oracle schedules from the trace, which only exists
    /// once the controller is already built).
    pub fn set_predictor(&mut self, predictor: Box<dyn Predictor>) {
        self.predictor = predictor;
    }

    /// Attach an edge cluster reachable via `port` on the primary switch;
    /// returns its id. Multi-switch fabrics extend the port map with
    /// [`Controller::add_switch`].
    pub fn attach_cluster(
        &mut self,
        backend: Box<dyn ClusterBackend>,
        distance: SimDuration,
        port: PortId,
    ) -> ClusterId {
        self.clusters.push(AttachedCluster {
            backend,
            distances: vec![distance],
            ports: vec![port],
            capacity: SiteCapacity::UNLIMITED,
            labels: Arc::from(Vec::new()),
            allocated: ResourceAllocation::default(),
            admitted: HashMap::new(),
            snap_cache: Vec::new(),
        });
        ClusterId(self.clusters.len() - 1)
    }

    /// Declare a site's resource capacity and placement labels (defaults:
    /// [`SiteCapacity::UNLIMITED`], no labels). Scheduling decisions that
    /// would overrun the declared capacity are rejected by admission control
    /// and fall through to the next-best site or the cloud.
    pub fn configure_site(&mut self, id: ClusterId, capacity: SiteCapacity, labels: Vec<String>) {
        let site = &mut self.clusters[id.0];
        site.capacity = capacity;
        site.labels = Arc::from(labels);
    }

    /// Resources currently booked on a site by admitted deployments.
    pub fn site_allocation(&self, id: ClusterId) -> ResourceAllocation {
        self.clusters[id.0].allocated
    }

    /// A site's declared capacity.
    pub fn site_capacity(&self, id: ClusterId) -> SiteCapacity {
        self.clusters[id.0].capacity
    }

    /// Book resources for instances started outside the controller's own
    /// pipeline (testbed prewarm): `replicas` replicas of `service` running
    /// on `cluster`. No-op if the service is already booked there.
    pub fn note_external_deployment(
        &mut self,
        cluster: ClusterId,
        service: ServiceId,
        replicas: u32,
    ) {
        let Some(registered) = self.catalog.lookup_name(self.catalog.name_of(service)) else {
            return;
        };
        self.book(cluster, service, registered.demand, replicas.max(1));
    }

    /// The most recent admission rejection, if any (diagnostics for tests and
    /// the verifier; cleared never, overwritten on each rejection).
    pub fn last_admission_error(&self) -> Option<&AdmissionError> {
        self.last_admission_error.as_ref()
    }

    /// Register an additional ingress switch: its port toward the cloud and,
    /// per attached cluster, the port leading toward that cluster (a local
    /// port or the trunk toward the switch the cluster hangs off) plus the
    /// latency from this switch to the cluster.
    pub fn add_switch(
        &mut self,
        cloud_port: PortId,
        cluster_ports: Vec<(PortId, SimDuration)>,
    ) -> SwitchId {
        assert_eq!(
            cluster_ports.len(),
            self.clusters.len(),
            "one (port, distance) per attached cluster"
        );
        self.cloud_ports.push(cloud_port);
        for (cluster, (port, distance)) in self.clusters.iter_mut().zip(cluster_ports) {
            cluster.ports.push(port);
            cluster.distances.push(distance);
        }
        SwitchId(self.cloud_ports.len() - 1)
    }

    /// Number of switches under this controller.
    pub fn switch_count(&self) -> usize {
        self.cloud_ports.len()
    }

    pub fn cluster(&self, id: ClusterId) -> &dyn ClusterBackend {
        self.clusters[id.0].backend.as_ref()
    }

    pub fn cluster_mut(&mut self, id: ClusterId) -> &mut dyn ClusterBackend {
        self.clusters[id.0].backend.as_mut()
    }

    /// Every attached cluster's backend, in [`ClusterId`] order.
    pub fn clusters_mut(&mut self) -> impl Iterator<Item = &mut (dyn ClusterBackend + 'static)> {
        self.clusters.iter_mut().map(|c| c.backend.as_mut())
    }

    /// The image registries the deployment pipeline pulls from.
    pub fn registries(&self) -> &RegistrySet {
        &self.registries
    }

    pub fn memory(&self) -> &FlowMemory {
        &self.memory
    }

    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Where the Dispatcher last saw each client (location tracking).
    pub fn client_location(&self, ip: IpAddr) -> Option<PortId> {
        self.client_ports.get(&ip).map(|&(_, p)| p)
    }

    /// Which switch the client was last seen behind.
    pub fn client_switch(&self, ip: IpAddr) -> Option<SwitchId> {
        self.client_ports.get(&ip).map(|&(s, _)| s)
    }

    /// The client moved to another ingress. Forget its memorized flows and
    /// tear down the matching switch entries on the ingress it is leaving,
    /// so its next request table-misses at the new ingress and re-runs the
    /// Dispatcher (fresh FAST/BEST evaluation) there. Pending placeholders
    /// are kept: a request held on an in-flight deployment stays anchored
    /// here until it resolves (make-before-break), which is what the
    /// session-continuity analysis verifies.
    pub fn on_client_handover(&mut self, now: SimTime, client: IpAddr) -> Vec<ControllerOutput> {
        self.stats.handovers += 1;
        let Some(switch) = self.client_switch(client) else {
            // Never seen here — nothing installed, nothing to tear down.
            return Vec::new();
        };
        // Sorted for deterministic teardown order (FlowKey orders by client
        // ip then service address).
        let mut departing: Vec<(FlowKey, SocketAddr)> = self
            .memory
            .iter()
            .filter(|f| f.key.client_ip == client && !f.pending)
            .map(|f| (f.key, f.target))
            .collect();
        departing.sort_unstable();
        let mut out = Vec::with_capacity(departing.len() * 2);
        for (key, target) in departing {
            self.memory.forget(key);
            out.push(ControllerOutput::FlowDelete {
                at: now,
                switch,
                matcher: FlowMatch::client_to_service(client, key.service_addr),
            });
            out.push(ControllerOutput::FlowDelete {
                at: now,
                switch,
                matcher: FlowMatch {
                    protocol: Some(simnet::Protocol::Tcp),
                    src_ip: Some(target.ip),
                    src_port: Some(target.port),
                    dst_ip: Some(client),
                    ..FlowMatch::default()
                },
            });
        }
        // Forget the stale location too: if the client returns to this
        // ingress later, its first packet re-registers it.
        self.client_ports.remove(&client);
        out
    }

    // -----------------------------------------------------------------------
    // PacketIn — the Dispatcher algorithm (paper Fig. 7)
    // -----------------------------------------------------------------------

    /// Handle a table-miss PacketIn from the primary switch (single-switch
    /// convenience wrapper around [`Controller::on_packet_in_at`]).
    pub fn on_packet_in(
        &mut self,
        now: SimTime,
        packet: Packet,
        buffer_id: BufferId,
        in_port: PortId,
    ) -> Vec<ControllerOutput> {
        self.on_packet_in_at(now, INGRESS, packet, buffer_id, in_port)
    }

    /// Handle a table-miss PacketIn from switch `sw`.
    pub fn on_packet_in_at(
        &mut self,
        now: SimTime,
        sw: SwitchId,
        packet: Packet,
        buffer_id: BufferId,
        in_port: PortId,
    ) -> Vec<ControllerOutput> {
        let mut out = Vec::new();
        self.on_packet_in_at_into(now, sw, packet, buffer_id, in_port, &mut out);
        out
    }

    /// [`Controller::on_packet_in_at`] appending into a caller-owned buffer —
    /// the allocation-free form the testbed's event loop drives. The
    /// outputs appended are exactly (and in the same order as) what the
    /// `Vec`-returning wrapper would have returned.
    pub fn on_packet_in_at_into(
        &mut self,
        now: SimTime,
        sw: SwitchId,
        packet: Packet,
        buffer_id: BufferId,
        in_port: PortId,
        out: &mut Vec<ControllerOutput>,
    ) {
        self.stats.packet_ins += 1;
        self.client_ports.insert(packet.src.ip, (sw, in_port));
        let decide_at = now + self.config.processing_delay;
        let key = FlowKey {
            client_ip: packet.src.ip,
            service_addr: packet.dst,
        };

        // 1. Memorized flow? Re-install immediately (the fast path that lets
        //    switch idle timeouts stay low).
        if let Some(flow) = self.memory.recall(now, key) {
            let (target, cluster, sid) = (flow.target, flow.cluster, flow.service);
            let Some(cluster) = cluster else {
                // Memorized as served by the cloud (no edge cluster).
                self.stats.memory_hits += 1;
                return self.cloud_outputs(
                    decide_at,
                    sw,
                    packet,
                    in_port,
                    buffer_id,
                    Some(sid),
                    out,
                );
            };
            // Follow-Me-Edge (related work [12], [13]): if the client has
            // moved and a strictly nearer cluster now has a ready instance,
            // fall through to a fresh scheduling decision instead of
            // re-installing the stale redirect (which would hairpin traffic
            // across the fabric).
            let cur_dist = self.clusters[cluster.0].distances[sw.0];
            let mut nearer_ready = false;
            for i in 0..self.clusters.len() {
                if i != cluster.0
                    && self.clusters[i].distances[sw.0] < cur_dist
                    && self.clusters[i]
                        .status_of(now, sid, self.catalog.name_of(sid))
                        .is_ready()
                {
                    nearer_ready = true;
                    break;
                }
            }
            // The remembered instance may have been scaled down meanwhile.
            if !nearer_ready
                && self.clusters[cluster.0]
                    .status_of(now, sid, self.catalog.name_of(sid))
                    .is_ready()
            {
                self.stats.memory_hits += 1;
                return self.redirect_outputs(
                    decide_at,
                    sw,
                    key,
                    sid,
                    target,
                    cluster,
                    in_port,
                    Some(buffer_id),
                    out,
                );
            }
            if nearer_ready {
                self.stats.follow_me_moves += 1;
            }
            self.memory.forget(key);
        }

        // 2. Registered service? Unregistered destinations pass through to
        //    the cloud untouched.
        let Some(service) = self.catalog.lookup(packet.dst) else {
            return self.cloud_outputs(decide_at, sw, packet, in_port, buffer_id, None, out);
        };
        let sid = service.id;
        self.predictor.observe(now, packet.dst);

        // 3. Feed the Global Scheduler the Dispatcher's system view. The
        //    view buffer is reused across decisions (take/put so the borrow
        //    checker sees it detached from `self` while the context lives),
        //    and the views borrow only the fields they read, so the
        //    registration stays borrowed from the catalog, not cloned.
        let mut views = std::mem::take(&mut self.views_scratch);
        Self::cluster_views_into(
            &mut self.clusters,
            &self.dispatcher,
            self.catalog.name_of(sid),
            now,
            sid,
            sw.0,
            &mut views,
        );
        debug_assert_eq!(service.demand, service.template.resource_request());
        let ctx = SchedulingContext::new(
            sid,
            &views,
            service.demand,
            &service.template.requirements,
            &self.catalog,
            now,
        );
        let decision = self.global.decide(&ctx);

        // 4. Kick off the BEST deployment first (without waiting it runs in
        //    parallel with serving the current request elsewhere).
        if let Some(best) = decision.best {
            if decision.fast != Some(best) {
                let service = self.registered_at(packet.dst);
                self.request_best_deployment(now, best, &service);
            }
        }

        // 5. Serve the current request.
        match decision.fast {
            Some(fast) => {
                // The view built for the scheduler already holds this
                // cluster's status at `now` (nothing between the snapshot and
                // here mutates `fast` — BEST-side deployment only runs when
                // it targets a *different* cluster), so reuse it instead of
                // re-querying the backend on the per-request path.
                if views[fast.0].status.is_ready() {
                    // Redirect immediately (possibly a detour to a farther
                    // cluster while BEST deploys).
                    if decision.is_without_waiting() {
                        self.stats.detoured_requests += 1;
                    }
                    // Local Scheduler: pick the instance within the cluster.
                    let target = self.pick_instance(now, fast, sid);
                    self.redirect_outputs(
                        decide_at,
                        sw,
                        key,
                        sid,
                        target,
                        fast,
                        in_port,
                        Some(buffer_id),
                        out,
                    )
                } else {
                    // On-demand deployment WITH waiting (paper Fig. 5): hold
                    // the buffered packet until the port opens.
                    let service = self.registered_at(packet.dst);
                    self.hold_on_deployment(
                        now, decide_at, sw, fast, &service, key, packet, in_port, buffer_id, out,
                    )
                }
            }
            None => self.cloud_outputs(decide_at, sw, packet, in_port, buffer_id, Some(sid), out),
        };
        views.clear();
        self.views_scratch = views;
        // Advance any machine whose step is already due (e.g. the scale-up a
        // request just triggered) before returning to the event loop, so the
        // phases due at `now` reach the backend before any later event does.
        self.pump_machines(now, out);
    }

    /// BEST-side deployment request (never holds the current request).
    fn request_best_deployment(
        &mut self,
        now: SimTime,
        best: ClusterId,
        service: &RegisteredService,
    ) {
        let sid = service.id;
        // Admission control: a BEST decision targeting a site that cannot
        // take the deployment is dropped — the caller already serves the
        // request at FAST or the cloud, which *is* the fall-through.
        if !self.deployment_exists(now, best, sid) && self.admit(best, service).is_err() {
            return;
        }
        if let Some(m) = self.dispatcher.find_mut(best, sid) {
            // Piggyback: the in-flight deployment will retarget when ready.
            m.wants_retarget = true;
            return;
        }
        if self.clusters[best.0]
            .status_of(now, sid, self.catalog.name_of(sid))
            .is_ready()
        {
            self.schedule_retarget(now, best, sid);
            return;
        }
        if !self.gate_acquire(now, best, sid) {
            // A mesh peer holds the deployment lease for this instance. The
            // caller already serves the request at FAST (or the cloud); the
            // lease holder's Ready delta will retarget it later.
            self.stats.lease_rejections += 1;
            return;
        }
        self.start_machine(now, best, service, false, false)
            .wants_retarget = true;
    }

    /// FAST-side with-waiting path: hold the buffered packet until the
    /// deployment's port opens (joining an in-flight deployment if one
    /// exists), or fall back to the cloud on failure.
    #[allow(clippy::too_many_arguments)]
    fn hold_on_deployment(
        &mut self,
        now: SimTime,
        decide_at: SimTime,
        sw: SwitchId,
        fast: ClusterId,
        service: &RegisteredService,
        key: FlowKey,
        packet: Packet,
        in_port: PortId,
        buffer_id: BufferId,
        out: &mut Vec<ControllerOutput>,
    ) {
        let sid = service.id;
        // Admission control: the scheduler picked a with-waiting deployment
        // at `fast`, but the site may not take it (capacity / labels). Fall
        // through to the nearest other ready instance, else the cloud.
        if !self.deployment_exists(now, fast, sid) && self.admit(fast, service).is_err() {
            let name = self.catalog.name_of(sid);
            let fallback = self
                .clusters
                .iter_mut()
                .enumerate()
                .filter_map(|(i, c)| {
                    (ClusterId(i) != fast && c.status_of(now, sid, name).is_ready())
                        .then(|| (c.distances[sw.0], i))
                })
                .min()
                .map(|(_, i)| ClusterId(i));
            return match fallback {
                Some(cluster) => {
                    self.stats.detoured_requests += 1;
                    let target = self.pick_instance(now, cluster, sid);
                    self.redirect_outputs(
                        decide_at,
                        sw,
                        key,
                        sid,
                        target,
                        cluster,
                        in_port,
                        Some(buffer_id),
                        out,
                    )
                }
                None => {
                    self.cloud_outputs(decide_at, sw, packet, in_port, buffer_id, Some(sid), out)
                }
            };
        }
        // Pending placeholder: keeps the held flow visible to idle
        // scale-down protection and the coherence audit without serving the
        // fast path (it converts to a real entry when the redirect installs).
        self.memory.remember_pending(now, key, sid, Some(fast));
        if self.dispatcher.find(fast, sid).is_none() {
            if !self.gate_acquire(now, fast, sid) {
                // Lease lost to a mesh peer: there is no local machine to
                // hold this request on, so fall back to the cloud
                // (accepted with-waiting divergence, DESIGN.md §5f). The
                // flow is memorized cloud-bound so the holder's Ready
                // delta retargets it to the edge instance.
                self.stats.lease_rejections += 1;
                self.memory.forget(key);
                return self.cloud_outputs(
                    decide_at,
                    sw,
                    packet,
                    in_port,
                    buffer_id,
                    Some(sid),
                    out,
                );
            }
            self.start_machine(now, fast, service, true, false);
        }
        self.dispatcher
            .find_mut(fast, sid)
            .expect("found or just started")
            .waiters
            .push(Waiter {
                key,
                sw,
                in_port,
                buffer_id,
                decide_at,
                packet,
            });
    }

    // -----------------------------------------------------------------------
    // Deployment pipeline (Pull → Create → Scale-Up → poll port)
    // -----------------------------------------------------------------------

    /// The registration of the service at cloud address `addr` — copied (a
    /// template refcount bump) only on the paths that may start a
    /// deployment, never on the per-PacketIn scheduling path.
    fn registered_at(&self, addr: SocketAddr) -> RegisteredService {
        self.catalog
            .lookup(addr)
            .expect("only a registered service's PacketIn deploys")
            .clone()
    }

    /// The Dispatcher's system view fed to the Global Scheduler: per-cluster
    /// status of `sid` (named `name`) at `now` from the perspective of switch
    /// `sw_idx`, including whether a deployment is in flight there.
    fn cluster_views_into(
        clusters: &mut [AttachedCluster],
        dispatcher: &Dispatcher,
        name: &str,
        now: SimTime,
        sid: ServiceId,
        sw_idx: usize,
        out: &mut Vec<ClusterView>,
    ) {
        for (i, c) in clusters.iter_mut().enumerate() {
            let deploying = dispatcher.find(ClusterId(i), sid).is_some();
            let status = c.status_of(now, sid, name);
            out.push(
                ClusterView::builder(ClusterId(i), c.backend.kind(), c.distances[sw_idx], status)
                    .load(c.backend.load())
                    .deploying(deploying)
                    .capacity(c.capacity)
                    .allocated(c.allocated)
                    .labels(Arc::clone(&c.labels))
                    .build(),
            );
        }
    }

    /// Is a deployment of `sid` at `cluster` already in flight, or an
    /// instance already ready there? Either way no new
    /// replicas would start, so admission control does not apply.
    fn deployment_exists(&mut self, now: SimTime, cluster: ClusterId, sid: ServiceId) -> bool {
        self.dispatcher.find(cluster, sid).is_some()
            || self.clusters[cluster.0]
                .status_of(now, sid, self.catalog.name_of(sid))
                .is_ready()
    }

    /// Admission control for starting a new deployment of `sid` at
    /// `cluster`: placement labels first, then capacity against the current
    /// allocation (a service already booked there re-admits for free — its
    /// resources are still reserved). Rejections are counted and recorded.
    fn admit(
        &mut self,
        cluster: ClusterId,
        service: &RegisteredService,
    ) -> Result<(), AdmissionError> {
        let site = &self.clusters[cluster.0];
        let err = if let Some(label) = service.template.requirements.first_unmet(&site.labels) {
            AdmissionError::RequirementsUnmet {
                cluster,
                label: label.to_owned(),
            }
        } else if site.admitted.contains_key(&service.id) {
            return Ok(());
        } else {
            match site.capacity.admits(&site.allocated, &service.demand) {
                Ok(()) => return Ok(()),
                Err(shortfall) => AdmissionError::Capacity { cluster, shortfall },
            }
        };
        self.stats.admission_rejections += 1;
        self.last_admission_error = Some(err.clone());
        Err(err)
    }

    /// Book `replicas` replicas of `sid` on `cluster` at `demand` each.
    /// No-op if the service already holds a booking there (re-deployments
    /// reuse the reservation).
    fn book(&mut self, cluster: ClusterId, sid: ServiceId, demand: ResourceRequest, replicas: u32) {
        let site = &mut self.clusters[cluster.0];
        if site.admitted.contains_key(&sid) {
            return;
        }
        site.allocated.add(&demand, replicas);
        site.admitted.insert(sid, (demand, replicas));
        if site.allocated.exceeds(&site.capacity) {
            self.stats.capacity_violations += 1;
        }
    }

    /// Release the booking `sid` holds on `cluster`, if any.
    fn release_booking(&mut self, cluster: ClusterId, sid: ServiceId) {
        let site = &mut self.clusters[cluster.0];
        if let Some((demand, replicas)) = site.admitted.remove(&sid) {
            site.allocated.remove(&demand, replicas);
        }
    }

    /// Grow or shrink the booking of `sid` on `cluster` to `replicas`
    /// (autoscaler bookkeeping).
    fn set_booked_replicas(&mut self, cluster: ClusterId, sid: ServiceId, replicas: u32) {
        let demand = match self.clusters[cluster.0].admitted.get(&sid) {
            Some(&(demand, _)) => demand,
            None => match self.catalog.lookup_name(self.catalog.name_of(sid)) {
                Some(registered) => registered.demand,
                None => return,
            },
        };
        let site = &mut self.clusters[cluster.0];
        let booked = site.admitted.get(&sid).map_or(0, |&(_, r)| r);
        if replicas > booked {
            site.allocated.add(&demand, replicas - booked);
        } else {
            site.allocated.remove(&demand, booked - replicas);
        }
        if replicas == 0 {
            site.admitted.remove(&sid);
        } else {
            site.admitted.insert(sid, (demand, replicas));
        }
        if site.allocated.exceeds(&site.capacity) {
            self.stats.capacity_violations += 1;
        }
    }

    /// Autoscale clamp: the largest total replica count of `sid` that fits
    /// on `cluster` (its current booking counts as already paid for).
    /// Unlimited capacity grants everything.
    fn max_replicas_within_capacity(&self, cluster: ClusterId, sid: ServiceId, want: u32) -> u32 {
        let site = &self.clusters[cluster.0];
        if site.capacity.is_unlimited() {
            return want;
        }
        let (demand, booked) = match site.admitted.get(&sid) {
            Some(&(demand, booked)) => (demand, booked),
            None => match self.catalog.lookup_name(self.catalog.name_of(sid)) {
                Some(registered) => (registered.demand, 0),
                None => return want,
            },
        };
        if want <= booked {
            return want;
        }
        let mut extra = want - booked;
        if demand.cpu_millis > 0 && site.capacity.cpu_millis != u32::MAX {
            let free =
                u64::from(site.capacity.cpu_millis).saturating_sub(site.allocated.cpu_millis);
            extra =
                extra.min(u32::try_from(free / u64::from(demand.cpu_millis)).unwrap_or(u32::MAX));
        }
        if demand.memory_mib > 0 && site.capacity.memory_mib != u64::MAX {
            let free = site
                .capacity
                .memory_mib
                .saturating_sub(site.allocated.memory_mib);
            extra = extra.min(u32::try_from(free / demand.memory_mib).unwrap_or(u32::MAX));
        }
        if site.capacity.max_replicas != u32::MAX {
            extra = extra.min(
                site.capacity
                    .max_replicas
                    .saturating_sub(site.allocated.replicas),
            );
        }
        booked + extra
    }

    /// Start a deployment machine at `now` (steps already due run on the
    /// next pump, same call stack).
    fn start_machine(
        &mut self,
        now: SimTime,
        cluster: ClusterId,
        service: &RegisteredService,
        waited: bool,
        proactive: bool,
    ) -> &mut DeployMachine {
        let (sid, template) = (service.id, &service.template);
        self.book(cluster, sid, service.demand, 1);
        let site = &mut self.clusters[cluster.0];
        let record = DeploymentRecord {
            service: template.name.clone(),
            cluster,
            kind: site.backend.kind(),
            triggered_at: now,
            pull: None,
            create: None,
            scale_up: None,
            ready_detected: SimTime::FAR_FUTURE,
            waited,
        };
        let created = site.status_of(now, sid, &template.name).created;
        let images_cached = site.backend.has_images(template);
        // The machine owns the displaced Remove-phase bookkeeping so a
        // failure can restore it.
        let saved = self.scaled_to_zero.remove((cluster, sid));
        let m = self.dispatcher.start(
            now,
            cluster,
            sid,
            Arc::clone(template),
            record,
            images_cached,
            created,
            saved,
        );
        m.proactive = proactive;
        m
    }

    /// Advance every machine whose next step is due at or before `now`,
    /// appending any outputs produced by terminal transitions.
    fn pump_machines(&mut self, now: SimTime, out: &mut Vec<ControllerOutput>) {
        loop {
            let (key, outcome) = {
                let Some(key) = self.dispatcher.due(now) else {
                    return;
                };
                let (ClusterId(cluster_idx), _) = key;
                let probe_rtt = self.clusters[cluster_idx].distances[0] * 2;
                let mut ctx = StepCtx {
                    backend: self.clusters[cluster_idx].backend.as_mut(),
                    registries: &self.registries,
                    retries: self.config.deploy_retries,
                    backoff: self.config.retry_backoff,
                    probe_interval: self.config.probe_interval,
                    probe_timeout: self.config.probe_timeout,
                    probe_rtt,
                };
                (key, self.dispatcher.advance(key, &mut ctx))
            };
            match outcome {
                MachineOutcome::Progressed => {}
                MachineOutcome::Recovered => self.stats.crash_recoveries += 1,
                MachineOutcome::Ready { ready_detected } => {
                    self.finalize_machine(key, ready_detected, out)
                }
                MachineOutcome::Failed { phase, error } => {
                    self.fail_machine(key, phase, error, out)
                }
            }
        }
    }

    /// A machine reached `Ready`: record the deployment, release every held
    /// request to the fresh instance, schedule the piggybacked retarget.
    fn finalize_machine(
        &mut self,
        key: InstanceKey,
        ready_detected: SimTime,
        out: &mut Vec<ControllerOutput>,
    ) {
        let mut m = self.dispatcher.remove(key);
        self.dispatcher.record_completed(m.seq);
        m.record.ready_detected = ready_detected;
        self.stats.retried_operations += m.retried;
        self.stats.deployments.push(m.record.clone());
        if m.proactive {
            self.stats.proactive_deployments += 1;
        }
        self.scaled_to_zero.remove(key);
        self.gate_release(ready_detected, m.cluster, m.service);
        self.push_delta(ready_detected, m.cluster, m.service, DeltaKind::Ready);
        if m.wants_retarget {
            self.schedule_retarget(ready_detected, m.cluster, m.service);
        }
        for w in m.waiters.drain(..) {
            self.stats.held_requests += 1;
            let target = self.pick_instance(ready_detected, m.cluster, m.service);
            self.redirect_outputs(
                ready_detected.max(w.decide_at),
                w.sw,
                w.key,
                m.service,
                target,
                m.cluster,
                w.in_port,
                Some(w.buffer_id),
                out,
            );
        }
    }

    /// A machine reached `Failed`: count the failure, restore Remove-phase
    /// bookkeeping, and fall every held request back to the cloud.
    fn fail_machine(
        &mut self,
        key: InstanceKey,
        phase: DeployPhaseKind,
        error: DeployError,
        out: &mut Vec<ControllerOutput>,
    ) {
        let m = self.dispatcher.remove(key);
        let revoked = matches!(error, DeployError::LeaseRevoked);
        self.release_booking(m.cluster, m.service);
        self.stats.retried_operations += m.retried;
        self.stats.failed_deployments += 1;
        self.last_deploy_failure = Some(DeployFailure {
            cluster: m.cluster,
            service: m.service,
            phase,
            error,
        });
        if let Some(at) = m.saved_scaled_to_zero {
            self.scaled_to_zero.restore(key, at);
        }
        let failed_at = m.next_step();
        self.gate_release(failed_at, m.cluster, m.service);
        self.push_delta(failed_at, m.cluster, m.service, DeltaKind::Gone);
        for w in m.waiters {
            // Drop the pending placeholder; the request is served by the
            // cloud. A lease-revoked abort is
            // not a real failure — the winning shard's instance is coming up
            // — so its waiters are memorized cloud-bound, giving them the
            // same retarget-on-Ready a loser that rejected at the gate gets.
            if self.memory.get(w.key).is_some_and(|f| f.pending) {
                self.memory.forget(w.key);
            }
            let memorize = if revoked { Some(m.service) } else { None };
            self.cloud_outputs(
                w.decide_at,
                w.sw,
                w.packet,
                w.in_port,
                w.buffer_id,
                memorize,
                out,
            );
        }
    }

    /// Note that a BEST deployment will become ready at `ready_at`; the flow
    /// move to it is computed when the instant is drained, so requests served
    /// in the meantime are retargeted too (paper Fig. 3: "future requests are
    /// redirected to this optimal location as soon as the new instance is
    /// running").
    fn schedule_retarget(&mut self, ready_at: SimTime, cluster: ClusterId, service: ServiceId) {
        self.retarget_queue.push(ready_at, cluster, service);
    }

    // -----------------------------------------------------------------------
    // The wakeup surface — the single interface the event loop drives
    // -----------------------------------------------------------------------

    /// The earliest instant any controller-internal work is due: a machine
    /// step, a pending flow retarget, FlowMemory expiry / Remove-phase
    /// housekeeping, or a predict tick. The event loop re-arms from it after
    /// every event, so every source here is read off the head of a
    /// time-ordered structure: the cost does not depend on how many
    /// machines, retargets, flows or scaled-to-zero services exist.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut merge = |t: SimTime| {
            next = Some(next.map_or(t, |n: SimTime| n.min(t)));
        };
        if let Some(t) = self.dispatcher.next_step_at() {
            merge(t);
        }
        if let Some(t) = self.retarget_queue.next_at() {
            merge(t);
        }
        if self.config.scale_down_idle {
            if let Some(t) = self.memory.next_expiry() {
                merge(t);
            }
            if let Some(t) = self.scale_down_retries.next_at() {
                merge(t);
            }
        }
        if let Some(remove_after) = self.config.remove_after {
            if let Some(oldest) = self.scaled_to_zero.oldest() {
                merge(oldest + remove_after);
            }
        }
        if let Some(p) = &self.predict {
            if let Some(t) = p.next_due_at() {
                merge(t);
            }
        }
        next
    }

    /// Run every piece of controller-internal work due at or before `now`:
    /// predict ticks, deployment machine steps, retarget drains and
    /// housekeeping, in that order (matching the event order of the previous
    /// per-surface events). Idempotent on spurious or early wakeups — every
    /// component checks its own due instant.
    pub fn on_wakeup(&mut self, now: SimTime) -> Vec<ControllerOutput> {
        let mut out = Vec::new();
        self.on_wakeup_into(now, &mut out);
        out
    }

    /// [`Controller::on_wakeup`] appending into a caller-owned buffer (the
    /// allocation-free form the testbed's event loop drives).
    pub fn on_wakeup_into(&mut self, now: SimTime, out: &mut Vec<ControllerOutput>) {
        self.run_predict_due(now);
        self.pump_machines(now, out);
        self.drain_retargets(now, out);
        self.run_housekeeping(now);
    }

    /// Arm the proactive-deployment cadence: run a predict pass at `first`,
    /// then every `interval` until `last` (inclusive), each looking `horizon`
    /// ahead. Replaces the event loop's pre-pushed predict ticks.
    pub fn set_predict_schedule(
        &mut self,
        first: SimTime,
        interval: SimDuration,
        last: SimTime,
        horizon: SimDuration,
    ) {
        self.predict = Some(PredictSchedule {
            next: first,
            interval,
            end: last,
            horizon,
        });
    }

    /// Deployments currently in flight, oldest first. Drives the coherence
    /// audit's orphaned-pending check.
    pub fn in_flight_deployments(&self) -> Vec<(ServiceId, ClusterId)> {
        self.dispatcher.in_flight()
    }

    /// Coarse phase of the in-flight deployment of `service` on `cluster`,
    /// or `None` if no deployment of it is in flight there.
    pub fn deployment_phase(
        &self,
        cluster: ClusterId,
        service: ServiceId,
    ) -> Option<DeployPhaseKind> {
        self.dispatcher
            .find(cluster, service)
            .map(|m| m.phase.kind())
    }

    /// The most recent deployment failure observed by the dispatcher —
    /// which phase gave up and why (`None` until a machine fails).
    pub fn last_deploy_failure(&self) -> Option<&DeployFailure> {
        self.last_deploy_failure.as_ref()
    }

    /// How many deployment machines have been started so far.
    pub fn machines_started(&self) -> u64 {
        self.dispatcher.next_seq()
    }

    /// Did any deployment machine with start ordinal in `[lo, hi)` complete
    /// successfully?
    pub fn completed_machine_in(&self, lo: u64, hi: u64) -> bool {
        self.dispatcher.completed_in(lo, hi)
    }

    // -----------------------------------------------------------------------
    // Mesh federation surface (the `edgemesh` crate drives these)
    // -----------------------------------------------------------------------

    /// Take the status deltas produced since the last drain. Empty unless the
    /// controller was built with [`ControllerBuilder::emit_status_deltas`].
    pub fn drain_status_deltas(&mut self) -> Vec<StatusDelta> {
        std::mem::take(&mut self.status_deltas)
    }

    /// Abort the in-flight deployment machine for `(cluster, service)`: the
    /// deployment lease was revoked because another shard won the
    /// window-boundary merge for the same decision. Routes through the
    /// ordinary failure path ([`DeployError::LeaseRevoked`]) so bookings are
    /// released, Remove-phase bookkeeping is restored, a `Gone` delta is
    /// emitted and every held request falls back to the cloud. Returns the
    /// resulting controller outputs; `None` if no such machine is in flight.
    pub fn abort_deployment(
        &mut self,
        now: SimTime,
        cluster: ClusterId,
        service: ServiceId,
    ) -> Option<Vec<ControllerOutput>> {
        let phase = self.dispatcher.find(cluster, service)?.phase.kind();
        let key = (cluster, service);
        // Fail at the abort instant, not the machine's own next step:
        // `fail_machine` stamps the failure (and the `Gone` delta) with
        // `next_step`.
        self.dispatcher.reschedule(key, now);
        let mut out = Vec::new();
        self.fail_machine(key, phase, DeployError::LeaseRevoked, &mut out);
        Some(out)
    }

    /// Apply a status delta gossiped from a mesh peer. `Ready` schedules a
    /// retarget of every memorized flow of the service toward the announced
    /// instance (validated against the shared backend when the retarget
    /// drains, so a raced scale-down is harmless); `Gone` is recorded only —
    /// FlowMemory recall already re-checks backend readiness, so stale
    /// entries self-heal on the next PacketIn.
    pub fn apply_remote_delta(&mut self, now: SimTime, delta: &StatusDelta) {
        self.stats.remote_deltas += 1;
        match delta.kind {
            DeltaKind::Ready => self.schedule_retarget(now, delta.cluster, delta.service),
            DeltaKind::Gone => {}
        }
    }

    fn gate_acquire(&mut self, now: SimTime, cluster: ClusterId, service: ServiceId) -> bool {
        match &mut self.gate {
            Some(g) => g.try_acquire(now, cluster, service),
            None => true,
        }
    }

    fn gate_release(&mut self, now: SimTime, cluster: ClusterId, service: ServiceId) {
        if let Some(g) = &mut self.gate {
            g.release(now, cluster, service);
        }
    }

    fn push_delta(
        &mut self,
        origin: SimTime,
        cluster: ClusterId,
        service: ServiceId,
        kind: DeltaKind,
    ) {
        if self.emit_deltas {
            self.status_deltas.push(StatusDelta {
                origin,
                cluster,
                service,
                kind,
            });
        }
    }

    /// Append the FlowMods produced by retargets due at or before `upto`.
    fn drain_retargets(&mut self, upto: SimTime, outputs: &mut Vec<ControllerOutput>) {
        // Most wakeups have no due retarget: one peek says so.
        if !self.retarget_queue.is_due(upto) {
            return;
        }
        for (at, cluster, service) in self.retarget_queue.take_due(upto) {
            let status =
                self.clusters[cluster.0].status_of(at, service, self.catalog.name_of(service));
            let Some(target) = status.endpoint.filter(|_| status.is_ready()) else {
                continue; // instance vanished before the hand-over
            };
            let moved = self.memory.retarget_service(service, target, cluster);
            self.stats.retargets += moved.len() as u64;
            for key in moved {
                if let Some((sw, client_port)) = self.client_ports.get(&key.client_ip).copied() {
                    let pair = flow_pair(
                        key,
                        target,
                        self.clusters[cluster.0].ports[sw.0],
                        client_port,
                        Some(self.config.switch_idle_timeout),
                        self.catalog.cookie_of(service),
                    );
                    outputs.extend(pair.into_iter().map(|spec| ControllerOutput::FlowMod {
                        at,
                        switch: sw,
                        spec,
                    }));
                    self.host_route_outputs(at, sw, key.client_ip, client_port, outputs);
                }
            }
        }
    }

    /// Run every predict pass due at or before `now`.
    fn run_predict_due(&mut self, now: SimTime) {
        loop {
            let Some(p) = &mut self.predict else { return };
            if p.next > now || p.next > p.end {
                return;
            }
            let (t, horizon) = (p.next, p.horizon);
            p.next = t + p.interval;
            self.run_predict(t, horizon);
        }
    }

    /// Ask the predictor which services should be running within `horizon`
    /// and pre-deploy the ones that are not (background, never holds a
    /// request).
    fn run_predict(&mut self, now: SimTime, horizon: SimDuration) {
        let nominations = self.predictor.predict(now, horizon);
        for addr in nominations {
            let Some(service) = self.catalog.lookup(addr) else {
                continue;
            };
            let service = service.clone();
            let sid = service.id;
            let name = self.catalog.name_of(sid);
            // Already running (or being deployed) somewhere? Nothing to do.
            let anywhere_ready = self
                .clusters
                .iter_mut()
                .any(|c| c.status_of(now, sid, name).is_ready());
            if anywhere_ready || self.dispatcher.any_for_service(sid) {
                continue;
            }
            // Deploy at the cluster the Global Scheduler would pick for the
            // future (BEST semantics with no requesting client).
            let mut views = std::mem::take(&mut self.views_scratch);
            Self::cluster_views_into(
                &mut self.clusters,
                &self.dispatcher,
                name,
                now,
                sid,
                0,
                &mut views,
            );
            let ctx = SchedulingContext::new(
                sid,
                &views,
                service.demand,
                &service.template.requirements,
                &self.catalog,
                now,
            );
            let decision = self.global.decide(&ctx);
            views.clear();
            self.views_scratch = views;
            let Some(target) = decision.target_for_future() else {
                continue;
            };
            // Nothing is in flight here (checked above); admission applies.
            if self.admit(target, &service).is_err() {
                continue;
            }
            if !self.gate_acquire(now, target, sid) {
                self.stats.lease_rejections += 1;
                continue;
            }
            // Counted as proactive when (and if) the machine completes: a
            // failed proactive deployment is not a proactive deployment.
            self.start_machine(now, target, &service, false, true);
        }
    }

    // -----------------------------------------------------------------------
    // Housekeeping tick: FlowMemory expiry and idle scale-down
    // -----------------------------------------------------------------------

    /// Expiry housekeeping, run from [`Controller::on_wakeup`] when a flow
    /// expiry or Remove-phase deadline is due (early wakeups are no-ops, so
    /// the pass fires at the same instants the dedicated tick events used
    /// to).
    fn run_housekeeping(&mut self, now: SimTime) {
        let expiry_due =
            self.config.scale_down_idle && self.memory.next_expiry().is_some_and(|t| t <= now);
        let retry_due = self.config.scale_down_idle && self.scale_down_retries.is_due(now);
        let remove_due = self.config.remove_after.is_some_and(|remove_after| {
            self.scaled_to_zero
                .oldest()
                .is_some_and(|at| now.since(at) >= remove_after)
        });
        if !expiry_due && !retry_due && !remove_due {
            return;
        }

        // Replica autoscaling: keep flows-per-replica near the target.
        if let Some(target) = self.config.autoscale_flows_per_replica {
            let target = target.max(1);
            for (service, cluster, flows) in self.memory.services_with_flows() {
                let Some(cluster) = cluster else {
                    continue; // cloud-served flows have no replicas to scale
                };
                let name = self.catalog.name_of(service);
                let status = self.clusters[cluster.0].status_of(now, service, name);
                if !status.created {
                    continue;
                }
                let want = (flows as u32).div_ceil(target);
                let have = status.desired_replicas.max(status.ready_replicas);
                if want <= have {
                    continue;
                }
                // Admission: never scale past the site's declared capacity.
                let granted = self.max_replicas_within_capacity(cluster, service, want);
                if granted < want {
                    self.stats.admission_rejections += 1;
                    self.last_admission_error = Some(AdmissionError::Capacity {
                        cluster,
                        shortfall: cluster::CapacityShortfall::Replicas {
                            requested: want,
                            free: granted,
                        },
                    });
                }
                if granted > have
                    && self.clusters[cluster.0]
                        .backend
                        .scale_up(now, name, granted)
                        .is_ok()
                {
                    self.stats.autoscale_ups += 1;
                    self.set_booked_replicas(cluster, service, granted);
                }
            }
        }

        let expired = self.memory.expire(now);
        if self.config.scale_down_idle {
            // Group by (service, cluster); scale down instances nobody
            // references anymore. Candidates whose backend call failed on an
            // earlier pass retry once their back-off is due.
            let mut candidates: Vec<(ServiceId, ClusterId)> = expired
                .iter()
                .filter_map(|f| f.cluster.map(|c| (f.service, c)))
                .collect();
            candidates.extend(
                self.scale_down_retries
                    .take_due(now)
                    .map(|(_, cluster, service)| (service, cluster)),
            );
            candidates.sort();
            candidates.dedup();
            for (service, cluster) in candidates {
                if self.memory.flows_for_service(service, Some(cluster)) == 0 {
                    let name = self.catalog.name_of(service);
                    let site = &mut self.clusters[cluster.0];
                    if site.status_of(now, service, name).ready_replicas == 0 {
                        continue; // already down (or never revived)
                    }
                    if site.backend.scale_down(now, name, 0).is_ok() {
                        self.stats.scale_downs += 1;
                        self.release_booking(cluster, service);
                        self.push_delta(now, cluster, service, DeltaKind::Gone);
                        self.scaled_to_zero.insert((cluster, service), now);
                    } else {
                        // Transient backend fault (e.g. a flaky cluster API):
                        // keep the instance a candidate and retry after the
                        // configured back-off instead of leaking it forever.
                        self.scale_down_retries.push(
                            now + self.config.retry_backoff,
                            cluster,
                            service,
                        );
                    }
                }
            }
        }

        // Remove phase (Fig. 4): services idle at zero replicas long enough
        // are deleted entirely; their cached images stay on disk, so a later
        // request pays Create + Scale-Up but not Pull.
        if let Some(remove_after) = self.config.remove_after {
            for (cluster, service) in self.scaled_to_zero.take_idle(now, remove_after) {
                let name = self.catalog.name_of(service);
                let site = &mut self.clusters[cluster.0];
                // A request may have revived the service in the meantime.
                if site.status_of(now, service, name).ready_replicas == 0
                    && site.backend.remove(now, name).is_ok()
                {
                    self.stats.removals += 1;
                    self.release_booking(cluster, service);
                    self.push_delta(now, cluster, service, DeltaKind::Gone);
                }
            }
        }
    }

    /// Local-Scheduler instance selection: pick one ready replica endpoint
    /// of `service` on `cluster` (paper Fig. 6's Local Scheduler; for
    /// Kubernetes the Service VIP balances internally, so one endpoint is
    /// returned and the choice is a no-op).
    fn pick_instance(
        &mut self,
        now: SimTime,
        cluster: ClusterId,
        service: ServiceId,
    ) -> SocketAddr {
        let (_, endpoints) =
            self.clusters[cluster.0].snapshot(now, service, self.catalog.name_of(service));
        assert!(
            !endpoints.is_empty(),
            "pick_instance on a service with no ready replica"
        );
        let idx = self.local.pick(service, endpoints.len() as u32) as usize;
        endpoints[idx.min(endpoints.len() - 1)]
    }

    // -----------------------------------------------------------------------
    // Output builders
    // -----------------------------------------------------------------------

    /// Install forward+reverse rewrite flows on the client's ingress switch
    /// (plus host routes on the other switches so responses find a roamed
    /// client) and release the buffered packet.
    #[allow(clippy::too_many_arguments)]
    fn redirect_outputs(
        &mut self,
        at: SimTime,
        sw: SwitchId,
        key: FlowKey,
        service: ServiceId,
        target: SocketAddr,
        cluster: ClusterId,
        client_port: PortId,
        buffer: Option<BufferId>,
        out: &mut Vec<ControllerOutput>,
    ) {
        self.memory
            .remember(at, key, service, target, Some(cluster));
        let pair = flow_pair(
            key,
            target,
            self.clusters[cluster.0].ports[sw.0],
            client_port,
            Some(self.config.switch_idle_timeout),
            self.catalog.cookie_of(service),
        );
        out.extend(pair.into_iter().map(|spec| ControllerOutput::FlowMod {
            at,
            switch: sw,
            spec,
        }));
        self.host_route_outputs(at, sw, key.client_ip, client_port, out);
        if let Some(buffer_id) = buffer {
            out.push(ControllerOutput::ReleaseViaTable {
                at,
                switch: sw,
                buffer_id,
            });
        }
    }

    /// Host routes steering traffic for `client_ip` toward its current
    /// ingress switch from every other switch (needed once clients roam
    /// between switches; no-ops in single-switch setups).
    fn host_route_outputs(
        &self,
        at: SimTime,
        client_sw: SwitchId,
        client_ip: IpAddr,
        _client_port: PortId,
        outputs: &mut Vec<ControllerOutput>,
    ) {
        for s in 0..self.switch_count() {
            if s == client_sw.0 {
                continue;
            }
            // Toward the client's switch: in the chain fabric the trunk in
            // the client's direction is the same port that leads to any
            // destination behind that switch; we reuse the cloud-or-trunk
            // port toward switch `client_sw` — which, for a chain rooted at
            // switch 0, is port 1 when client_sw > s, else port 0.
            let port = if client_sw.0 > s {
                PortId(1)
            } else {
                PortId(0)
            };
            let matcher = FlowMatch {
                dst_ip: Some(client_ip),
                ..FlowMatch::default()
            };
            outputs.push(ControllerOutput::FlowMod {
                at,
                switch: SwitchId(s),
                spec: FlowSpec::new(matcher)
                    .priority(REDIRECT_PRIORITY - 1)
                    .action(Action::Output(port))
                    .idle(self.config.switch_idle_timeout)
                    .cookie(HOST_ROUTE_COOKIE),
            });
        }
    }

    /// Pass-through to the cloud: forward unchanged, bring responses back.
    /// For *registered* services the decision is memorized (with no edge
    /// cluster) so a later BEST deployment can retarget it.
    #[allow(clippy::too_many_arguments)]
    fn cloud_outputs(
        &mut self,
        at: SimTime,
        sw: SwitchId,
        packet: Packet,
        client_port: PortId,
        buffer_id: BufferId,
        service: Option<ServiceId>,
        outputs: &mut Vec<ControllerOutput>,
    ) {
        self.stats.cloud_forwards += 1;
        if let Some(service) = service {
            let key = FlowKey {
                client_ip: packet.src.ip,
                service_addr: packet.dst,
            };
            self.memory.remember(at, key, service, packet.dst, None);
        }
        let cookie = CLOUD_COOKIE;
        outputs.push(ControllerOutput::FlowMod {
            at,
            switch: sw,
            spec: FlowSpec::new(FlowMatch::client_to_service(packet.src.ip, packet.dst))
                .priority(REDIRECT_PRIORITY)
                .action(Action::Output(self.cloud_ports[sw.0]))
                .idle(self.config.switch_idle_timeout)
                .cookie(cookie),
        });
        let reverse_matcher = FlowMatch {
            protocol: Some(packet.protocol),
            src_ip: Some(packet.dst.ip),
            src_port: Some(packet.dst.port),
            dst_ip: Some(packet.src.ip),
            ..FlowMatch::default()
        };
        outputs.push(ControllerOutput::FlowMod {
            at,
            switch: sw,
            spec: FlowSpec::new(reverse_matcher)
                .priority(REDIRECT_PRIORITY)
                .action(Action::Output(client_port))
                .idle(self.config.switch_idle_timeout)
                .cookie(cookie),
        });
        self.host_route_outputs(at, sw, packet.src.ip, client_port, outputs);
        outputs.push(ControllerOutput::ReleaseViaTable {
            at,
            switch: sw,
            buffer_id,
        });
    }
}

/// Forward + reverse rewrite rules for one client↔service redirect on the
/// client's ingress switch (paper Fig. 2: the rewrite must be transparent in
/// both directions). Returns bare [`FlowSpec`]s; the caller stamps them with
/// the emission time and target switch.
fn flow_pair(
    key: FlowKey,
    target: SocketAddr,
    cluster_port: PortId,
    client_port: PortId,
    idle_timeout: Option<SimDuration>,
    cookie: u64,
) -> [FlowSpec; 2] {
    let forward = FlowSpec::new(FlowMatch::client_to_service(
        key.client_ip,
        key.service_addr,
    ))
    .priority(REDIRECT_PRIORITY)
    // Chained `.action()` stays in the ActionList's inline storage — no
    // heap allocation on the per-request install path.
    .action(Action::SetDstIp(target.ip))
    .action(Action::SetDstPort(target.port))
    .action(Action::Output(cluster_port))
    .idle_opt(idle_timeout)
    .cookie(cookie);
    // Response path: rewrite the edge instance's address back to the cloud
    // address the client thinks it is talking to.
    let reverse_matcher = FlowMatch {
        protocol: Some(simnet::Protocol::Tcp),
        src_ip: Some(target.ip),
        src_port: Some(target.port),
        dst_ip: Some(key.client_ip),
        ..FlowMatch::default()
    };
    let reverse = FlowSpec::new(reverse_matcher)
        .priority(REDIRECT_PRIORITY)
        .action(Action::SetSrcIp(key.service_addr.ip))
        .action(Action::SetSrcPort(key.service_addr.port))
        .action(Action::Output(client_port))
        .idle_opt(idle_timeout)
        .cookie(cookie);
    let pair = [forward, reverse];
    #[cfg(debug_assertions)]
    debug_check_flow_pair(&pair, key, target);
    pair
}

/// Check-on-install hook (debug builds): the forward/reverse pair must be a
/// transparent mirror — the client's packet reaches `target`, and the reply
/// leaves re-addressed as the cloud service. A pair that fails this would
/// break the paper's transparency invariant silently, so it is a programming
/// error worth an assert rather than a runtime `Violation`.
#[cfg(debug_assertions)]
fn debug_check_flow_pair(pair: &[FlowSpec; 2], key: FlowKey, target: SocketAddr) {
    use simnet::Packet;

    let client = SocketAddr::new(key.client_ip, 40000);
    let syn = Packet::syn(client, key.service_addr, 0);
    debug_assert!(
        pair[0].matcher.matches(&syn),
        "forward rule must match the client's service-addressed packet"
    );
    let mut p = syn;
    for a in &pair[0].actions {
        match a {
            Action::SetDstIp(ip) => p.dst.ip = *ip,
            Action::SetDstPort(port) => p.dst.port = *port,
            _ => {}
        }
    }
    debug_assert_eq!(p.dst, target, "forward rule must rewrite to the target");

    let reply = Packet::syn(target, client, 0);
    debug_assert!(
        pair[1].matcher.matches(&reply),
        "reverse rule must match the instance's reply"
    );
    let mut r = reply;
    for a in &pair[1].actions {
        match a {
            Action::SetSrcIp(ip) => r.src.ip = *ip,
            Action::SetSrcPort(port) => r.src.port = *port,
            _ => {}
        }
    }
    debug_assert_eq!(
        r.src, key.service_addr,
        "reverse rule must restore the cloud service address"
    );
}

/// Cookies of the flows that belong to no registered service.
const CLOUD_COOKIE: u64 = cookie_for("cloud");
const HOST_ROUTE_COOKIE: u64 = cookie_for("host-route");

#[cfg(test)]
mod wakeup_tests;
