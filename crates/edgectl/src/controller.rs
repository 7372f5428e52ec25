//! The SDN controller: PacketIn handling (the Dispatcher algorithm of paper
//! Fig. 7), flow installation and idle scale-down. The deployment pipeline
//! itself (Pull → Create → Scale-Up → poll port) lives in
//! [`crate::dispatcher`] as per-deployment state machines; the event loop
//! drives everything through the single
//! [`Controller::next_wakeup`]/[`Controller::on_wakeup_into`] surface.
//!
//! This file holds the public types, the builder, the wakeup surface and
//! the deployment-machine lifecycle. Each other decision has one private
//! module: `packet` (the PacketIn path, handover and the flows it emits),
//! `sites` (per-site snapshot cache, admission, resource bookings and the
//! scheduler's view), `housekeeping` (retargets, predict passes, expiry,
//! scale-down, Remove and autoscale) and `mesh` (lease gate and status
//! deltas).
//!
//! The controller *owns* the cluster backends and the registry routing — just
//! like the paper's Ryu application holds the Docker/Kubernetes client
//! handles — and communicates with the switch purely through
//! [`ControllerOutput`] messages (`FlowMod`s and buffered-packet releases)
//! stamped with the virtual time at which they are emitted. The surrounding
//! event loop (the `testbed` crate) delivers them with the control-channel
//! latency applied.

use std::sync::Arc;

use cluster::{ClusterBackend, ClusterKind};
use registry::RegistrySet;
use simcore::{DetHashMap, SimDuration, SimTime};
use simnet::openflow::{BufferId, FlowMatch, FlowSpec, PortId};
use simnet::IpAddr;

use crate::catalog::{ServiceCatalog, ServiceId};
use crate::dispatcher::{
    AdmissionError, DeployError, DeployMachine, DeployOrder, DeployPhaseKind, Dispatcher,
    InstanceKey, MachineOutcome, StepCtx,
};
use crate::flowmemory::{FlowMemory, MemorizedFlow};
use crate::predictor::{NoPrediction, Predictor};
use crate::scheduler::{
    ClusterId, ClusterView, GlobalScheduler, LocalScheduler, NearestWaiting, RoundRobinLocal,
};

mod housekeeping;
mod mesh;
mod packet;
mod sites;

use housekeeping::{DueQueue, PredictSchedule, ScaledToZero};
pub(crate) use sites::AttachedCluster;

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

/// A message from the controller to a switch, stamped with emission time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControllerOutput {
    /// Install (or replace) the flow entry described by `spec` — feed the
    /// spec straight into [`simnet::openflow::Switch::flow_mod`].
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
    /// [`simnet::openflow::FlowTable::delete_matching`]. Emitted on client
    /// handover so the departing ingress stops rewriting a client it no
    /// longer serves.
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
    /// default unlimited [`SiteCapacity`](cluster::SiteCapacity).
    pub admission_rejections: u64,
    /// Times a booking pushed a site's allocation above its declared
    /// capacity. The admission check makes this impossible; the bench gates
    /// on it staying zero.
    pub capacity_violations: u64,
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
    /// advanced by [`Controller::on_wakeup_into`].
    dispatcher: Dispatcher,
    /// Dispatcher-tracked client locations: which switch and port each
    /// client was last seen at (paper §IV-B).
    client_ports: DetHashMap<IpAddr, (SwitchId, PortId)>,
    /// The scheduler view of the last decision (see
    /// [`Controller::decide`]); its buffer is reused by the next.
    views_scratch: Vec<ClusterView>,
    /// The flows the last housekeeping pass expired and the `(service,
    /// cluster)` scale-down candidates it drew from them; both buffers are
    /// reused by the next pass.
    expired_scratch: Vec<MemorizedFlow>,
    candidates_scratch: Vec<(ServiceId, ClusterId)>,
    /// Pending flow moves produced by BEST deployments, due at the ready
    /// instant.
    retarget_queue: DueQueue,
    /// Services scaled to zero, awaiting the Remove phase.
    scaled_to_zero: ScaledToZero,
    predictor: Box<dyn Predictor>,
    predict: Option<PredictSchedule>,
    /// Most recent dispatcher deployment failure (diagnostics).
    last_deploy_failure: Option<DeployFailure>,
    /// Most recent admission rejection (diagnostics).
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
pub(crate) struct DeployFailure {
    pub(crate) cluster: ClusterId,
    pub(crate) phase: DeployPhaseKind,
    pub(crate) error: DeployError,
}

impl std::fmt::Display for DeployFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (cluster, phase, error) = (self.cluster.0, self.phase, &self.error);
        write!(f, "cluster {cluster} failed in {phase}: {error}")
    }
}

/// Fluent constructor for [`Controller`] — every dependency has a default
/// (NearestWaiting global scheduler, round-robin local scheduler, empty
/// registry set, cloud uplink on port 0, no predictor), so call-sites only
/// name the pieces they care about:
///
/// ```
/// use edgectl::scheduler::NearestReadyFirst;
/// use edgectl::{Controller, ControllerConfig};
/// use simnet::openflow::PortId;
///
/// let controller = Controller::builder(ControllerConfig::default())
///     .global(NearestReadyFirst)
///     .cloud_port(PortId(2))
///     .build();
/// assert!(controller.in_flight_deployments().is_empty());
/// ```
pub struct ControllerBuilder {
    config: ControllerConfig,
    global: Box<dyn GlobalScheduler>,
    local: Box<dyn LocalScheduler>,
    registries: RegistrySet,
    cloud_port: PortId,
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
            expired_scratch: Vec::new(),
            candidates_scratch: Vec::new(),
            retarget_queue: DueQueue::default(),
            scaled_to_zero: ScaledToZero::default(),
            predictor: Box::new(NoPrediction),
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
        self.clusters
            .push(AttachedCluster::new(backend, distance, port));
        ClusterId(self.clusters.len() - 1)
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
    pub(crate) fn switch_count(&self) -> usize {
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

    #[cfg(test)]
    pub(crate) fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Where the Dispatcher last saw each client (location tracking).
    #[cfg(test)]
    pub(crate) fn client_location(&self, ip: IpAddr) -> Option<PortId> {
        self.client_ports.get(&ip).map(|&(_, p)| p)
    }

    /// Which switch the client was last seen behind.
    pub fn client_switch(&self, ip: IpAddr) -> Option<SwitchId> {
        self.client_ports.get(&ip).map(|&(s, _)| s)
    }

    /// Start a deployment machine for registered service `sid` at `now`
    /// (steps already due run on the next pump, same call stack).
    fn start_machine(
        &mut self,
        now: SimTime,
        cluster: ClusterId,
        sid: ServiceId,
        waited: bool,
        proactive: bool,
    ) -> &mut DeployMachine {
        let service = self
            .catalog
            .get(sid)
            .expect("only a registered service is deployed");
        let template = &service.template;
        let site = &mut self.clusters[cluster.0];
        self.stats.capacity_violations += u64::from(site.book(sid, service.demand, 1));
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
        let m = self.dispatcher.start(DeployOrder {
            now,
            cluster,
            service: sid,
            template: Arc::clone(template),
            record,
            created: site.status_of(now, sid, &template.name).created,
            images_cached: site.backend.has_images(template),
            // The machine owns the displaced Remove-phase bookkeeping so a
            // failure can restore it.
            saved_scaled_to_zero: self.scaled_to_zero.remove((cluster, sid)),
        });
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
                let (cluster, _) = key;
                let site = &mut self.clusters[cluster.0];
                let mut ctx = StepCtx {
                    probe_rtt: site.distances[0] * 2,
                    site,
                    registries: &self.registries,
                    retries: self.config.deploy_retries,
                    backoff: self.config.retry_backoff,
                    probe_interval: self.config.probe_interval,
                    probe_timeout: self.config.probe_timeout,
                };
                (key, self.dispatcher.advance(key, &mut ctx))
            };
            match outcome {
                MachineOutcome::Progressed => {}
                MachineOutcome::Recovered => self.stats.crash_recoveries += 1,
                MachineOutcome::Ready { ready_detected } => {
                    self.finalize_machine(key, ready_detected, out)
                }
                MachineOutcome::Failed(error) => self.fail_machine(key, error, out),
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
            let at = ready_detected.max(w.decide_at);
            self.redirect_outputs(at, &w, m.service, target, m.cluster, out);
        }
    }

    /// A machine reached `Failed`: count the failure, restore Remove-phase
    /// bookkeeping, and fall every held request back to the cloud.
    fn fail_machine(
        &mut self,
        key: InstanceKey,
        error: DeployError,
        out: &mut Vec<ControllerOutput>,
    ) {
        let m = self.dispatcher.remove(key);
        let revoked = matches!(error, DeployError::LeaseRevoked);
        self.clusters[m.cluster.0].release(m.service);
        self.stats.retried_operations += m.retried;
        self.stats.failed_deployments += 1;
        self.last_deploy_failure = Some(DeployFailure {
            cluster: m.cluster,
            phase: m.phase.kind(),
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
            self.cloud_outputs(w.decide_at, &w, memorize, out);
        }
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
    /// per-surface events), appending outputs to the caller-owned `out`.
    /// Idempotent on spurious or early wakeups — every component checks its
    /// own due instant.
    pub fn on_wakeup_into(&mut self, now: SimTime, out: &mut Vec<ControllerOutput>) {
        self.run_predict_due(now);
        self.pump_machines(now, out);
        self.drain_retargets(now, out);
        self.run_housekeeping(now);
    }

    /// Deployments currently in flight, oldest first. Drives the coherence
    /// audit's orphaned-pending check.
    pub fn in_flight_deployments(&self) -> Vec<(ServiceId, ClusterId)> {
        self.dispatcher.in_flight()
    }

    /// Coarse phase of the in-flight deployment of `service` on `cluster`,
    /// or `None` if no deployment of it is in flight there.
    #[cfg(test)]
    pub(crate) fn deployment_phase(
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
    #[cfg(test)]
    pub(crate) fn last_deploy_failure(&self) -> Option<&DeployFailure> {
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
}

#[cfg(test)]
mod capacity_tests;
#[cfg(test)]
mod fault_tests;
#[cfg(test)]
mod flow_tests;
#[cfg(test)]
mod test_support;
#[cfg(test)]
mod wakeup_tests;
