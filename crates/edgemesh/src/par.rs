//! The windowed parallel mesh engine: multi-threaded conservative PDES.
//!
//! Each ingress shard is one [`testbed::ingress::IngressShard`] — the same
//! switch / controller / event-queue core the single-controller testbed runs
//! to completion — plus a full set of *replica* site backends, all living on
//! one thread of a [`simcore::ShardCrew`]. Shards run their core
//! freely to a common window end `T_min + lookahead` (`T_min` = earliest
//! pending activity across the mesh, lookahead = the inter-shard link
//! latency), then exchange everything cross-shard at a barrier:
//!
//! * **gossip deltas** drained during the window, delivered at
//!   `drain time + link_latency` (losses pre-rolled by the coordinator from
//!   the `"mesh-gossip"` stream, so a lossy mesh replays byte-identically);
//! * **lease operations**, resolved by the coordinator against the canonical
//!   lease table in merged order — the commit point of the coordination
//!   service. A shard that optimistically started a deployment and lost the
//!   merge receives a *revocation* and aborts the machine
//!   ([`edgectl::Controller::abort_deployment`]) at the next window start;
//! * **site backend mutations**, logged by each replica's observed
//!   [`SharedBackend`] view and replayed onto every peer's replicas at the
//!   barrier instant.
//!
//! Everything cross-shard is merged in one canonical order — sorted by
//! `(time, origin shard, per-shard sequence)` — on the coordinator thread,
//! so the merge does not depend on which worker finished first. A shard's
//! window is a sequential computation over its own state plus its barrier
//! inbox, so the whole run is a pure function of `(config, seed)`: the
//! thread count only chooses which thread executes a shard and the mesh
//! trace hash is byte-identical for any `threads`, including 1 (which runs
//! the same windowed algorithm on the calling thread alone).
//!
//! ## Divergence envelope
//!
//! Replicas are *eventually* identical, not continuously: shard `A`'s own
//! backend ops apply at their true instants while peers replay them at the
//! next barrier, and a revoked (optimistic loser) machine's already-logged
//! ops are not compensated. Both model the real federation — a controller
//! acts on its own view immediately and peers converge at gossip latency —
//! and both are deterministic (DESIGN.md §5f). The audit checks that they
//! converge: a replica that applied another number of ops than shard 0's,
//! rejected a replay, or ended in another state is an `edgeverify`
//! `ReplicaDivergence`.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use cluster::{ClusterBackend, ServiceStatus};
use containers::ImageRef;
use edgectl::controller::INGRESS;
use edgectl::{
    ClusterId, Controller, DeployGate, RegisteredService, ServiceId, StatusDelta, SwitchId,
};
use edgeverify::{MeshView, Verifier, Violation};
use simcore::{ShardActor, ShardCrew, SimDuration, SimRng, SimTime};
use testbed::bringup;
use testbed::ingress::{Engine, IngressShard, Released};
use testbed::ScenarioConfig;
use workload::{departures, ingress_at, Trace, TraceRequest};

use crate::lease::{LeaseHandle, LeaseTable};
use crate::result::{MeshRecord, MeshRunResult, ShardSummary};
use crate::shared::{share, SharedBackend, SharedHandle, SiteCall};

/// Retransmission cap per delta delivery. With `loss < 1` the chance of
/// hitting it is astronomically small; it exists so a pre-rolled loss chain
/// always terminates.
const MAX_RETRANSMITS: u32 = 64;

/// `--threads` asked for more threads than there are shards. Extra threads
/// could only idle, so the CLI and bench reject the request outright rather
/// than silently clamping a user-visible knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadsExceedShards {
    pub threads: usize,
    pub shards: usize,
}

impl fmt::Display for ThreadsExceedShards {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "threads ({}) exceeds mesh shards ({}): each thread that runs \
             shards owns whole ones, so at most `shards` threads can do work",
            self.threads, self.shards
        )
    }
}

impl std::error::Error for ThreadsExceedShards {}

/// Validate a user-supplied thread count against a shard count: `0` means
/// "default" and maps to 1; anything above `shards` is a typed error.
pub fn validate_threads(threads: usize, shards: usize) -> Result<usize, ThreadsExceedShards> {
    let threads = threads.max(1);
    if threads > shards.max(1) {
        return Err(ThreadsExceedShards { threads, shards });
    }
    Ok(threads)
}

// ---------------------------------------------------------------------------
// Cross-shard messages. Everything here is plain `Send` data: the only values
// that ever cross a thread boundary.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SiteOp {
    time: SimTime,
    origin: usize,
    seq: u64,
    site: usize,
    call: SiteCall,
}

#[derive(Debug, Clone, Copy)]
enum LeaseCall {
    Acquire,
    Release,
}

#[derive(Debug, Clone, Copy)]
struct LeaseOp {
    time: SimTime,
    origin: usize,
    seq: u64,
    cluster: ClusterId,
    service: ServiceId,
    call: LeaseCall,
}

/// A status delta a shard drained at `time`.
#[derive(Debug, Clone, Copy)]
struct DeltaOut {
    time: SimTime,
    origin: usize,
    seq: u64,
    delta: StatusDelta,
}

/// What the coordinator hands a shard at a barrier, to apply at the window
/// start (revocations, foreign ops, canonical lease holders) or inject as
/// future events (delta deliveries).
#[derive(Debug, Default)]
struct Inbox {
    deliveries: Vec<(SimTime, StatusDelta)>,
    foreign_ops: Vec<SiteOp>,
    lease_holders: Vec<(ClusterId, ServiceId, usize)>,
    revocations: Vec<(ClusterId, ServiceId)>,
}

impl Inbox {
    fn needs_barrier_work(&self) -> bool {
        !self.foreign_ops.is_empty() || !self.revocations.is_empty()
    }
}

struct WindowCmd {
    /// Exclusive end of the window. `end == horizon` is the initial probe.
    end: SimTime,
    inbox: Inbox,
}

struct WindowReport {
    next_time: Option<SimTime>,
    lease_ops: Vec<LeaseOp>,
    site_ops: Vec<SiteOp>,
    deltas: Vec<DeltaOut>,
    /// `(service, cluster)` pairs with a deployment machine in flight at the
    /// window end, for the split-brain scan.
    in_flight: Vec<(ServiceId, ClusterId)>,
}

/// What a shard ends a run with: the input of the end-of-run assembly.
struct ShardFinal {
    summary: ShardSummary,
    records: Vec<MeshRecord>,
    lost: u64,
    /// Tags this shard accounted as lost (continuity loss ledger).
    lost_tags: Vec<u64>,
    /// Client handovers this shard's controller processed.
    handovers: u64,
    in_flight: Vec<(u32, usize)>,
    redirects: Vec<(u32, usize)>,
    /// Per site, in catalog order: each service's index, its status on this
    /// shard's replica and whether its images are there.
    replicas: Vec<Vec<(u32, ServiceStatus, bool)>>,
    /// Per site: backend ops this shard's replica applied, its own and
    /// replayed ones.
    applied: Vec<u64>,
    /// Per site: peer ops this shard's replica rejected at replay.
    failed_replays: Vec<u64>,
    stalls: u64,
    events: u64,
}

// ---------------------------------------------------------------------------
// Shard-local lease view.
// ---------------------------------------------------------------------------

/// Shard-local view of the lease table: the canonical holders as of the last
/// barrier plus a tentative overlay of this window's own operations. The
/// *canonical* state only ever changes at a barrier, when the coordinator
/// replays every shard's logged operations in merged order — that replay is
/// the linearization point of each acquire/release.
#[derive(Debug, Default)]
struct GateState {
    canonical: BTreeMap<(ClusterId, ServiceId), usize>,
    /// `true`: tentatively acquired this window; `false`: released.
    tentative: BTreeMap<(ClusterId, ServiceId), bool>,
}

impl GateState {
    /// Start a window: the barrier's committed `holders` become canonical
    /// and the overlay is empty.
    fn reset(&mut self, holders: &[(ClusterId, ServiceId, usize)]) {
        self.canonical = holders.iter().map(|&(c, s, h)| ((c, s), h)).collect();
        self.tentative.clear();
    }
}

/// The [`DeployGate`] a windowed controller plugs in: optimistic acquire
/// against the last canonical snapshot, logged for the coordinator to commit
/// (or revoke) at the barrier.
struct WindowGate {
    shard: usize,
    state: Rc<RefCell<GateState>>,
    outbox: Rc<RefCell<Outbox>>,
}

impl WindowGate {
    fn log(&self, now: SimTime, cluster: ClusterId, service: ServiceId, call: LeaseCall) {
        let mut ob = self.outbox.borrow_mut();
        let seq = ob.next_seq();
        ob.lease_ops.push(LeaseOp {
            time: now,
            origin: self.shard,
            seq,
            cluster,
            service,
            call,
        });
    }
}

impl DeployGate for WindowGate {
    fn try_acquire(&mut self, now: SimTime, cluster: ClusterId, service: ServiceId) -> bool {
        let key = (cluster, service);
        let held = {
            let st = self.state.borrow();
            st.tentative
                .get(&key)
                .copied()
                .or_else(|| st.canonical.get(&key).map(|&h| h == self.shard))
        };
        match held {
            // Tentatively ours (or canonically ours with no overlay):
            // idempotent re-acquire, logged so the canonical replay sees it.
            Some(true) => {
                self.log(now, cluster, service, LeaseCall::Acquire);
                true
            }
            // Overlay says we released it this window — reacquire unless the
            // canonical holder is a peer.
            Some(false)
                if self
                    .state
                    .borrow()
                    .canonical
                    .get(&key)
                    .is_some_and(|&h| h != self.shard) =>
            {
                false
            }
            Some(false) | None => {
                if self
                    .state
                    .borrow()
                    .canonical
                    .get(&key)
                    .is_some_and(|&h| h != self.shard)
                {
                    // A peer holds it as of the last barrier: reject, no log
                    // (a rejection changes nothing canonically).
                    return false;
                }
                self.state.borrow_mut().tentative.insert(key, true);
                self.log(now, cluster, service, LeaseCall::Acquire);
                true
            }
        }
    }

    fn release(&mut self, now: SimTime, cluster: ClusterId, service: ServiceId) {
        let key = (cluster, service);
        let ours = {
            let st = self.state.borrow();
            st.tentative
                .get(&key)
                .copied()
                .unwrap_or_else(|| st.canonical.get(&key).copied() == Some(self.shard))
        };
        if ours {
            self.state.borrow_mut().tentative.insert(key, false);
            self.log(now, cluster, service, LeaseCall::Release);
        }
    }
}

// ---------------------------------------------------------------------------
// Backend op logging.
// ---------------------------------------------------------------------------

/// Everything a shard produced this window, tagged by one per-shard lifetime
/// sequence counter so the coordinator's `(time, origin, seq)` sort is a
/// total order that respects intra-shard causality.
#[derive(Debug, Default)]
struct Outbox {
    seq: u64,
    lease_ops: Vec<LeaseOp>,
    site_ops: Vec<SiteOp>,
    deltas: Vec<DeltaOut>,
}

impl Outbox {
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }
}

// ---------------------------------------------------------------------------
// The shard actor.
// ---------------------------------------------------------------------------

/// One windowed shard: the shared ingress core (`testbed::ingress`) driven
/// to each window end, plus what only this engine has — the replica
/// backends, the lease view, the barrier outbox and gossip deliveries (the
/// core's engine event is a delivered [`StatusDelta`]).
struct MeshShard {
    core: IngressShard<StatusDelta>,
    /// The run's inputs, shared by every shard: the trace is read through
    /// the core's SYN feed.
    input: Arc<(ScenarioConfig, Trace)>,
    /// This shard's replicas of every site, in site order.
    handles: Vec<SharedHandle>,
    gate: Option<Rc<RefCell<GateState>>>,
    mesh: MeshEngine,
    revocations: u64,
    /// Per site: backend ops this shard's replica applied, its own and
    /// replayed ones.
    applied: Vec<u64>,
    /// Per site: peer ops this shard's replica rejected at replay.
    failed_replays: Vec<u64>,
    /// Real windows in which this shard executed zero events — it only
    /// stalled at the barrier while other shards worked.
    stalls: u64,
}

/// What a mesh shard makes of the core's events: the shard serves the
/// requests that enter at its ingress, a released request becomes a
/// [`MeshRecord`], a delivery is applied to the controller, and every
/// event's status deltas go to the outbox.
struct MeshEngine {
    shard: usize,
    shards: usize,
    input: Arc<(ScenarioConfig, Trace)>,
    /// Seeded-fault hook: this client's post-handover requests are swallowed.
    blackhole_victim: Option<usize>,
    records: Vec<MeshRecord>,
    outbox: Rc<RefCell<Outbox>>,
}

impl MeshEngine {
    fn drain_deltas(&mut self, controller: &mut Controller, now: SimTime) {
        let deltas = controller.drain_status_deltas();
        if deltas.is_empty() {
            return;
        }
        let mut ob = self.outbox.borrow_mut();
        for delta in deltas {
            let seq = ob.next_seq();
            ob.deltas.push(DeltaOut {
                time: now,
                origin: self.shard,
                seq,
                delta,
            });
        }
    }
}

impl Engine<StatusDelta> for MeshEngine {
    fn ingress(&self, req: &TraceRequest) -> Option<SwitchId> {
        // Static ingress assignment (home shard advanced by the client's
        // prior handovers) — a pure function of the trace, so every shard
        // partitions identically with no cross-shard machinery.
        let n = self.shards;
        let ingress = ingress_at(&self.input.1.handovers, req.client, req.at, n);
        // Seeded-fault hook: swallow the victim's post-handover requests —
        // the session is neither served nor accounted lost, exactly the
        // blackhole the continuity analysis exists to catch.
        let blackholed = self.blackhole_victim == Some(req.client) && ingress != req.client % n;
        // The shard's controller drives one switch: the one it feeds.
        (ingress == self.shard && !blackholed).then_some(INGRESS)
    }

    fn released(&mut self, _: &mut IngressShard<StatusDelta>, now: SimTime, r: Released) {
        self.records.push(MeshRecord {
            tag: r.idx as u64,
            shard: self.shard,
            released: now,
            port: r.out_port.0,
        });
    }

    fn on_event(&mut self, core: &mut IngressShard<StatusDelta>, now: SimTime, delta: StatusDelta) {
        core.controller.apply_remote_delta(now, &delta);
    }

    fn after_event(&mut self, core: &mut IngressShard<StatusDelta>, now: SimTime) {
        self.drain_deltas(&mut core.controller, now);
    }
}

impl MeshShard {
    /// Replay a peer's backend op on the local replica at the barrier
    /// instant. A replay the replica rejects means it has diverged from
    /// its peer; it is counted for the audit.
    fn replay(&mut self, at: SimTime, op: &SiteOp) {
        let mut b = self.handles[op.site].borrow_mut();
        let controller = &self.core.controller;
        let catalog = &controller.catalog;
        let template = |name: &str| catalog.get(catalog.id_of(name)?).map(|s| &s.template);
        let ok = match &op.call {
            SiteCall::Pull { template: name } => {
                template(name).is_some_and(|t| b.pull(at, t, controller.registries()).is_ok())
            }
            SiteCall::Create { template: name } => {
                template(name).is_some_and(|t| b.create(at, t).is_ok())
            }
            SiteCall::ScaleUp { service, replicas } => b.scale_up(at, service, *replicas).is_ok(),
            SiteCall::ScaleDown { service, replicas } => {
                b.scale_down(at, service, *replicas).is_ok()
            }
            SiteCall::Remove { service } => b.remove(at, service).is_ok(),
            SiteCall::DeleteImage { image } => b.delete_image(at, &ImageRef::new(image.clone())),
            SiteCall::InjectCrash { service } => {
                b.inject_crash(at, service);
                true
            }
        };
        if ok {
            self.applied[op.site] += 1;
        } else {
            self.failed_replays[op.site] += 1;
        }
    }
}

impl ShardActor for MeshShard {
    type Cmd = WindowCmd;
    type Report = WindowReport;
    type Final = ShardFinal;

    fn run_window(&mut self, cmd: WindowCmd) -> WindowReport {
        let at = self.core.horizon();
        // Barrier inbox, in order: canonical lease state first (so revocation
        // fallout sees it), then peer backend ops (already merged-sorted),
        // then revocations, then future delta deliveries.
        if let Some(gate) = &self.gate {
            gate.borrow_mut().reset(&cmd.inbox.lease_holders);
        }
        for op in &cmd.inbox.foreign_ops {
            self.replay(at, op);
        }
        let barrier_work = cmd.inbox.needs_barrier_work();
        for &(cluster, service) in &cmd.inbox.revocations {
            if let Some(outputs) = self.core.controller.abort_deployment(at, cluster, service) {
                self.revocations += 1;
                self.core.push_outputs(outputs);
            }
        }
        if barrier_work {
            // Aborts emit `Gone` deltas and change machine timing; gossip and
            // re-arm exactly as after an ordinary event.
            self.mesh.drain_deltas(&mut self.core.controller, at);
            self.core.arm_wakeup(at);
        }
        for &(t, delta) in &cmd.inbox.deliveries {
            self.core.schedule(t, delta);
        }
        // The window body: the core runs free up to the window end. A probe
        // (`end == horizon`) executes nothing and is not a window.
        let executed = self
            .core
            .run_until(cmd.end, &self.input.1.requests, &mut self.mesh);
        self.core.close_window(cmd.end);
        if cmd.end > at && executed == 0 {
            self.stalls += 1;
        }
        let mut ob = self.mesh.outbox.borrow_mut();
        for op in &ob.site_ops {
            self.applied[op.site] += 1;
        }
        WindowReport {
            next_time: self.core.next_time(),
            lease_ops: std::mem::take(&mut ob.lease_ops),
            site_ops: std::mem::take(&mut ob.site_ops),
            deltas: std::mem::take(&mut ob.deltas),
            in_flight: self.core.controller.in_flight_deployments(),
        }
    }

    fn finish(self) -> ShardFinal {
        let now = self.core.horizon();
        let controller = &self.core.controller;
        let in_flight = controller
            .in_flight_deployments()
            .into_iter()
            .map(|(svc, c)| (svc.0, c.0))
            .collect();
        let redirects = controller
            .memory()
            .iter()
            .filter(|f| !f.pending)
            .filter_map(|f| f.cluster.map(|c| (f.service.0, c.0)))
            .collect();
        let replicas = self
            .handles
            .iter()
            .map(|handle| {
                let b = handle.borrow();
                let state = |s: &RegisteredService| {
                    let status = b.status(now, &s.template.name);
                    (s.id.0, status, b.has_images(&s.template))
                };
                controller.catalog.services().map(state).collect()
            })
            .collect();
        ShardFinal {
            summary: ShardSummary::of(&controller.stats, self.revocations),
            lost: self.core.lost(),
            lost_tags: self.core.lost_idx().iter().map(|&i| u64::from(i)).collect(),
            handovers: controller.stats.handovers,
            in_flight,
            redirects,
            replicas,
            applied: self.applied,
            failed_replays: self.failed_replays,
            stalls: self.stalls,
            events: self.core.events_executed(),
            records: self.mesh.records,
        }
    }
}

/// The test-only hooks of a run ([`run_windowed_hooked`]); all off in
/// production.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TestHooks {
    /// Sensitivity hook: perturb the barrier merge order (tie-break and
    /// fan-out order reversed). The determinism regression suite asserts the
    /// canonical hash *changes* under this mutation — proof the pinned
    /// hashes actually pin the merge order.
    pub(crate) perturb: bool,
    /// Seeded fault for the session-continuity analysis: this client's
    /// post-handover requests are silently swallowed (never served, never
    /// accounted lost). The mutation test asserts the continuity check flags
    /// the blackholed sessions — proof the analysis is live, not vacuously
    /// green.
    pub(crate) blackhole_victim: Option<usize>,
}

/// Build shard `shard`'s full state. Runs *on the thread that owns the
/// shard* ([`ShardCrew::spawn`]'s contract), so everything here —
/// `Rc`/`RefCell` graphs, trait objects — stays thread-local. Bring-up is
/// `testbed::bringup`'s, so all replicas of a site are byte-identical at
/// birth and stay so under the identical prewarm performed here.
fn build_shard(shard: usize, input: &Arc<(ScenarioConfig, Trace)>, hooks: TestHooks) -> MeshShard {
    let (cfg, trace) = &**input;
    let c3 = bringup::topology(cfg);
    let mut backends = bringup::site_backends(cfg, &c3);
    let templates = bringup::service_templates(cfg, trace.service_addrs.len());
    // Prewarm the replicas themselves, before the observed views wrap them:
    // every shard performs it, so broadcasting it would double-apply.
    let setup_end = bringup::prewarm(cfg, &templates, backends.iter_mut().map(|b| b.as_mut()));
    let handles: Vec<SharedHandle> = backends.into_iter().map(share).collect();
    // The trace's t = 0 lies five seconds after the sites' pre-warm.
    let offset = (setup_end - SimTime::ZERO) + SimDuration::from_secs(5);

    let outbox = Rc::new(RefCell::new(Outbox::default()));
    let gate = cfg
        .mesh
        .leases
        .then(|| Rc::new(RefCell::new(GateState::default())));
    // The controller steers each replica through a view that logs its
    // successful mutations for barrier broadcast.
    let replicas = handles.iter().enumerate().map(|(site, handle)| {
        let outbox = Rc::clone(&outbox);
        Box::new(SharedBackend::new(handle.clone(), move |time, call| {
            let mut ob = outbox.borrow_mut();
            let seq = ob.next_seq();
            ob.site_ops.push(SiteOp {
                time,
                origin: shard,
                seq,
                site,
                call,
            });
        })) as Box<dyn ClusterBackend>
    });
    let window_gate = gate.as_ref().map(|state| WindowGate {
        shard,
        state: Rc::clone(state),
        outbox: Rc::clone(&outbox),
    });
    let controller =
        bringup::controller(cfg, &c3, replicas, &trace.service_addrs, templates, |b| {
            let b = b.emit_status_deltas();
            match window_gate {
                Some(gate) => b.deploy_gate(gate),
                None => b,
            }
        });
    let switch = bringup::seeded_switch(cfg, &c3);
    let mut core = IngressShard::new(c3, vec![switch], controller, trace.service_addrs.clone());
    let shards = cfg.mesh.shards;
    for (old, h) in departures(&trace.handovers, shards) {
        if old == shard {
            core.schedule_handover(h.at + offset, h.client);
        }
    }
    core.start(offset);
    MeshShard {
        core,
        input: Arc::clone(input),
        applied: vec![0; handles.len()],
        failed_replays: vec![0; handles.len()],
        handles,
        gate,
        mesh: MeshEngine {
            shard,
            shards,
            input: Arc::clone(input),
            blackhole_victim: hooks.blackhole_victim,
            records: Vec::new(),
            outbox,
        },
        revocations: 0,
        stalls: 0,
    }
}

// ---------------------------------------------------------------------------
// The coordinator.
// ---------------------------------------------------------------------------

/// Sort `items` into the barrier's merge order by their `(time, origin,
/// seq)` key.
fn merge_sort<T>(items: &mut [T], key: fn(&T) -> (SimTime, usize, u64), perturb: bool) {
    items.sort_by(|a, b| merge_cmp(key(a), key(b), perturb));
}

fn merge_cmp(a: (SimTime, usize, u64), b: (SimTime, usize, u64), perturb: bool) -> Ordering {
    match a.0.cmp(&b.0) {
        Ordering::Equal => {
            let tie = (a.1, a.2).cmp(&(b.1, b.2));
            if perturb {
                tie.reverse()
            } else {
                tie
            }
        }
        other => other,
    }
}

/// Run `trace` through the windowed engine on `threads` threads, the calling
/// thread among them (clamped to the shard count). Requires
/// `cfg.mesh.shards >= 2`.
pub fn run_windowed(cfg: ScenarioConfig, trace: &Trace, threads: usize) -> MeshRunResult {
    run_windowed_hooked(cfg, trace, threads, TestHooks::default()).0
}

/// [`run_windowed`] plus the mesh-coherence audit over the final state and
/// the split-brain duplicates observed at barriers.
pub fn run_windowed_audited(
    cfg: ScenarioConfig,
    trace: &Trace,
    threads: usize,
) -> (MeshRunResult, Vec<Violation>) {
    run_windowed_hooked(cfg, trace, threads, TestHooks::default())
}

/// The per-site bookings shard `shard`'s controller ends bring-up with.
#[cfg(test)]
pub(crate) fn shard_site_allocations(
    cfg: &ScenarioConfig,
    trace: &Trace,
    shard: usize,
) -> Vec<cluster::ResourceAllocation> {
    let input = Arc::new((cfg.clone(), trace.clone()));
    let built = build_shard(shard, &input, TestHooks::default());
    (0..built.handles.len())
        .map(|site| built.core.controller.site_allocation(ClusterId(site)))
        .collect()
}

/// [`run_windowed_audited`] with test hooks switched on.
pub(crate) fn run_windowed_hooked(
    cfg: ScenarioConfig,
    trace: &Trace,
    threads: usize,
    hooks: TestHooks,
) -> (MeshRunResult, Vec<Violation>) {
    let perturb = hooks.perturb;
    let n = cfg.mesh.shards;
    assert!(
        n >= 2,
        "windowed engine needs >= 2 shards; one controller is the plain Testbed"
    );
    let threads = threads.clamp(1, n);
    let leases = cfg.mesh.leases;
    let lookahead = if cfg.mesh.link_latency > SimDuration::ZERO {
        cfg.mesh.link_latency
    } else {
        SimDuration::from_nanos(1)
    };
    let mut gossip = Gossip::new(&cfg);

    let input = Arc::new((cfg, trace.clone()));
    let mut crew: ShardCrew<MeshShard> =
        ShardCrew::spawn(n, threads, move |shard| build_shard(shard, &input, hooks));
    let effective_threads = crew.effective_threads();

    // Canonical (coordinator-side) state: the committed leases, one handle
    // per shard.
    let lease_table = LeaseTable::new();
    let mut lease_handles: Vec<LeaseHandle> = (0..n).map(|s| lease_table.handle(s)).collect();
    // The `(service, cluster)` pairs seen deploying on two or more shards at
    // once — the split-brain duplicate the lease protocol prevents — with
    // the shards involved.
    let mut duplicates: BTreeMap<(u32, usize), BTreeSet<usize>> = BTreeMap::new();
    let mut windows = 0u64;
    let mut horizon = SimTime::ZERO;

    // Probe round: learn each shard's first pending time without executing
    // anything (window end == horizon == 0).
    let probe: Vec<WindowCmd> = (0..n)
        .map(|_| WindowCmd {
            end: SimTime::ZERO,
            inbox: Inbox::default(),
        })
        .collect();
    let mut reports = crew.run_windows(probe);

    // The merge phase's scratch, cleared each window.
    let mut lease_ops: Vec<LeaseOp> = Vec::new();
    let mut site_ops: Vec<SiteOp> = Vec::new();
    let mut deltas: Vec<DeltaOut> = Vec::new();
    let targets: Vec<usize> = if perturb {
        (0..n).rev().collect()
    } else {
        (0..n).collect()
    };

    loop {
        // --- Merge phase (coordinator thread, deterministic order). ---
        lease_ops.clear();
        site_ops.clear();
        deltas.clear();
        for r in &reports {
            lease_ops.extend(r.lease_ops.iter().copied());
            site_ops.extend(r.site_ops.iter().cloned());
            deltas.extend(r.deltas.iter().copied());
        }
        merge_sort(&mut lease_ops, |o| (o.time, o.origin, o.seq), perturb);
        merge_sort(&mut site_ops, |o| (o.time, o.origin, o.seq), perturb);
        merge_sort(&mut deltas, |d| (d.time, d.origin, d.seq), perturb);

        let mut inboxes: Vec<Inbox> = (0..n).map(|_| Inbox::default()).collect();
        let revoked_keys =
            commit_leases(&lease_ops, &lease_table, &mut lease_handles, &mut inboxes);

        // Route backend ops to every peer for barrier replay.
        for op in &site_ops {
            for (s, inbox) in inboxes.iter_mut().enumerate() {
                if s != op.origin {
                    inbox.foreign_ops.push(op.clone());
                }
            }
        }

        // Gossip fan-out in merged delta order. A delivery computed behind
        // the current horizon (a barrier-instant drain) arrives "now" at the
        // earliest.
        let mut next_activity: Option<SimTime> = None;
        fn bump(t: SimTime, next_activity: &mut Option<SimTime>) {
            *next_activity = Some(next_activity.map_or(t, |n: SimTime| n.min(t)));
        }
        for d in &deltas {
            gossip.fan_out(d, targets.iter().copied(), horizon, |t, at| {
                bump(at, &mut next_activity);
                inboxes[t].deliveries.push((at, d.delta));
            });
        }

        // Split-brain scan over the window-end in-flight sets, minus the
        // keys this barrier just revoked (the revocation *is* the protocol
        // resolving the race — only a key still contested after resolution
        // is a real duplicate).
        let mut holders: BTreeMap<(u32, usize), Vec<usize>> = BTreeMap::new();
        for (s, r) in reports.iter().enumerate() {
            for &(svc, cluster) in &r.in_flight {
                if !revoked_keys.contains(&(cluster, svc)) {
                    holders.entry((svc.0, cluster.0)).or_default().push(s);
                }
            }
        }
        for (key, involved) in holders {
            if involved.len() >= 2 {
                duplicates.entry(key).or_default().extend(involved);
            }
        }

        // Earliest pending activity across the mesh: queue heads, scheduled
        // deliveries (bumped above), and the barrier instant itself when a
        // shard has revocations or foreign ops to apply at window start.
        for (s, r) in reports.iter().enumerate() {
            if let Some(t) = r.next_time {
                bump(t, &mut next_activity);
            }
            if inboxes[s].needs_barrier_work() {
                bump(horizon, &mut next_activity);
            }
        }

        let Some(t_min) = next_activity else {
            break;
        };
        let end = t_min + lookahead;
        windows += 1;
        let cmds: Vec<WindowCmd> = inboxes
            .into_iter()
            .map(|inbox| WindowCmd { end, inbox })
            .collect();
        reports = crew.run_windows(cmds);
        horizon = end;
    }

    // The end of a run: records in `(released, shard, tag)` order — a pure
    // function of the simulation, never of the workers — the sorted loss
    // ledger, the summed counters and the audits.
    let finals = crew.finish();
    let mut violations = audit(&finals, &duplicates);
    let mut records: Vec<MeshRecord> = finals
        .iter()
        .flat_map(|f| f.records.iter().copied())
        .collect();
    records.sort_by_key(|r| (r.released, r.shard, r.tag));
    let mut lost_tags: Vec<u64> = finals
        .iter()
        .flat_map(|f| f.lost_tags.iter().copied())
        .collect();
    lost_tags.sort_unstable();
    violations.extend(
        Verifier::new()
            .check_continuity(&crate::continuity_view_parts(trace, &records, &lost_tags)),
    );

    let shard_stats: Vec<ShardSummary> = finals.iter().map(|f| f.summary.clone()).collect();
    let total = |f: fn(&ShardSummary) -> u64| shard_stats.iter().map(f).sum::<u64>();
    let result = MeshRunResult {
        shards: n,
        threads: effective_threads,
        leases,
        completed: records.len() as u64,
        lost: finals.iter().map(|f| f.lost).sum(),
        deployments: total(|s| s.deployments),
        duplicate_deployments: duplicates.len() as u64,
        duplicate_deployments_avoided: total(|s| s.lease_rejections)
            + total(|s| s.lease_revocations),
        lease_revocations: total(|s| s.lease_revocations),
        deltas_sent: gossip.sent,
        deltas_lost: gossip.lost,
        delta_deliveries: gossip.deliveries,
        staleness_ns_total: gossip.staleness_ns_total,
        convergence_ns_total: gossip.convergence_ns_total,
        converged_deltas: gossip.converged,
        scale_downs: total(|s| s.scale_downs),
        removes: total(|s| s.removes),
        retargets: total(|s| s.retargets),
        handovers: finals.iter().map(|f| f.handovers).sum(),
        windows,
        barrier_stalls: finals.iter().map(|f| f.stalls).sum(),
        events: finals.iter().map(|f| f.events).sum(),
        shard_stats,
        records,
        lost_tags,
        single: None,
    };
    (result, violations)
}

/// The barrier's lease commit, the linearization point of every acquire and
/// release: `ops`, in merge order, go through their origin shard's handle
/// on the canonical `table`, so the first committed acquirer of a key wins.
/// A shard whose tentative acquire the table rejects is revoked, once per
/// key, through its inbox; every inbox gets the committed holders. Returns
/// the revoked keys.
fn commit_leases(
    ops: &[LeaseOp],
    table: &LeaseTable,
    handles: &mut [LeaseHandle],
    inboxes: &mut [Inbox],
) -> BTreeSet<(ClusterId, ServiceId)> {
    let mut revoked = BTreeSet::new();
    for op in ops {
        let key = (op.cluster, op.service);
        let handle = &mut handles[op.origin];
        match op.call {
            LeaseCall::Acquire => {
                if !handle.try_acquire(op.time, op.cluster, op.service) {
                    if !inboxes[op.origin].revocations.contains(&key) {
                        inboxes[op.origin].revocations.push(key);
                    }
                    revoked.insert(key);
                }
            }
            LeaseCall::Release => handle.release(op.time, op.cluster, op.service),
        }
    }
    let holders = table.holders();
    for inbox in inboxes {
        inbox.lease_holders = holders.clone();
    }
    revoked
}

/// The gossip link between the shards: its loss, pre-rolled from the
/// `"mesh-gossip"` stream, and the delivery counters.
struct Gossip {
    rng: SimRng,
    link_latency: SimDuration,
    gossip_interval: SimDuration,
    loss: f64,
    sent: u64,
    lost: u64,
    deliveries: u64,
    staleness_ns_total: u128,
    convergence_ns_total: u128,
    converged: u64,
}

impl Gossip {
    fn new(cfg: &ScenarioConfig) -> Gossip {
        Gossip {
            rng: SimRng::seed_from_u64(cfg.seed).stream("mesh-gossip"),
            link_latency: cfg.mesh.link_latency,
            gossip_interval: cfg.mesh.gossip_interval,
            loss: cfg.mesh.loss,
            sent: 0,
            lost: 0,
            deliveries: 0,
            staleness_ns_total: 0,
            convergence_ns_total: 0,
            converged: 0,
        }
    }

    /// Send `d` to every shard of `targets` but its origin, in `targets`
    /// order. Losses are pre-rolled at send time: `deliver(shard, at)` gets
    /// each delivery at the instant its last retransmission lands, never
    /// before `barrier` (the receivers' executed past), so a run is a pure
    /// function of the seed regardless of loss. Deliveries, staleness and
    /// convergence are counted here, when the delta is sent.
    fn fan_out(
        &mut self,
        d: &DeltaOut,
        targets: impl IntoIterator<Item = usize>,
        barrier: SimTime,
        mut deliver: impl FnMut(usize, SimTime),
    ) {
        let mut latest = SimTime::ZERO;
        for t in targets {
            if t == d.origin {
                continue;
            }
            self.sent += 1;
            let mut at = d.time + self.link_latency;
            let mut tries = 0;
            while tries < MAX_RETRANSMITS && self.rng.chance(self.loss) {
                self.lost += 1;
                at += self.gossip_interval;
                tries += 1;
            }
            let at = at.max(barrier);
            self.deliveries += 1;
            self.staleness_ns_total += at.since(d.delta.origin).as_nanos() as u128;
            latest = latest.max(at);
            deliver(t, at);
        }
        self.convergence_ns_total += latest.since(d.delta.origin).as_nanos() as u128;
        self.converged += 1;
    }
}

/// The mesh-coherence audit over the final shard states:
/// - `edgeverify`'s static checks, on shard 0's ready set;
/// - the split-brain `duplicates` observed at barriers (the final snapshot
///   alone would miss them — machines drain);
/// - replica divergence: every shard's replica of a site must apply every
///   op logged on that site, reject none at replay, and end as shard 0's
///   does.
fn audit(
    finals: &[ShardFinal],
    duplicates: &BTreeMap<(u32, usize), BTreeSet<usize>>,
) -> Vec<Violation> {
    let view = MeshView {
        in_flight: finals.iter().map(|f| f.in_flight.to_vec()).collect(),
        redirects: finals.iter().map(|f| f.redirects.to_vec()).collect(),
        ready: finals[0]
            .replicas
            .iter()
            .enumerate()
            .flat_map(|(site, services)| {
                let ready = services.iter().filter(|(_, st, _)| st.is_ready());
                ready.map(move |&(service, ..)| (service, site))
            })
            .collect(),
    };
    let mut out = Verifier::new().check_mesh(&view);
    for (&(service, cluster), involved) in duplicates {
        let v = Violation::SplitBrainDeployment {
            service,
            cluster,
            shards: involved.iter().copied().collect(),
        };
        if !out.contains(&v) {
            out.push(v);
        }
    }
    for site in 0..finals[0].replicas.len() {
        let shards: Vec<usize> = (0..finals.len())
            .filter(|&s| {
                finals[s].failed_replays[site] > 0
                    || finals[s].applied[site] != finals[0].applied[site]
                    || finals[s].replicas[site] != finals[0].replicas[site]
            })
            .collect();
        if !shards.is_empty() {
            out.push(Violation::ReplicaDivergence { site, shards });
        }
    }
    out
}

#[cfg(test)]
mod hook_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use edgectl::controller::DeltaKind;

    const LATENCY: SimDuration = SimDuration::from_micros(500);
    const INTERVAL: SimDuration = SimDuration::from_millis(50);
    const SENT_AT: SimTime = SimTime::from_nanos(2_000_000_000);
    const OBSERVED_AT: SimTime = SimTime::from_nanos(1_500_000_000);

    fn gossip(seed: u64, loss: f64) -> Gossip {
        let mut cfg = ScenarioConfig {
            seed,
            ..ScenarioConfig::default()
        };
        cfg.mesh.link_latency = LATENCY;
        cfg.mesh.gossip_interval = INTERVAL;
        cfg.mesh.loss = loss;
        Gossip::new(&cfg)
    }

    /// A delta drained at 2 s on shard 1 that its controller observed at
    /// 1.5 s.
    fn delta() -> DeltaOut {
        DeltaOut {
            time: SENT_AT,
            origin: 1,
            seq: 0,
            delta: StatusDelta {
                origin: OBSERVED_AT,
                cluster: ClusterId(0),
                service: ServiceId(7),
                kind: DeltaKind::Ready,
            },
        }
    }

    fn send_all(g: &mut Gossip, barrier: SimTime) -> Vec<(usize, SimTime)> {
        let mut out = Vec::new();
        g.fan_out(&delta(), 0..4, barrier, |r, at| out.push((r, at)));
        out
    }

    #[test]
    fn lossless_delivery_lands_one_link_latency_later() {
        let mut g = gossip(9, 0.0);
        let at = SENT_AT + LATENCY;
        assert_eq!(
            send_all(&mut g, SimTime::ZERO),
            vec![(0, at), (2, at), (3, at)]
        );
        let stale = u128::from(at.since(OBSERVED_AT).as_nanos());
        assert_eq!((g.sent, g.lost, g.deliveries), (3, 0, 3));
        assert_eq!(g.staleness_ns_total, 3 * stale);
        assert_eq!((g.convergence_ns_total, g.converged), (stale, 1));
    }

    #[test]
    fn each_lost_try_adds_one_gossip_interval() {
        let seed = 21;
        let mut g = gossip(seed, 0.5);
        let got = send_all(&mut g, SimTime::ZERO);
        // The same rolls by hand: every receiver retries until a try gets
        // through.
        let mut rng = SimRng::seed_from_u64(seed).stream("mesh-gossip");
        let mut lost = 0;
        let mut want = Vec::new();
        for r in [0, 2, 3] {
            let mut at = SENT_AT + LATENCY;
            while rng.f64() < 0.5 {
                lost += 1;
                at += INTERVAL;
            }
            want.push((r, at));
        }
        assert!(lost > 0, "seed {seed} loses no try; pick another");
        assert_eq!(got, want);
        assert_eq!((g.sent, g.lost, g.deliveries), (3, lost, 3));
        let latest = want.iter().map(|&(_, at)| at).max().expect("three sends");
        let convergence = u128::from(latest.since(OBSERVED_AT).as_nanos());
        assert_eq!(g.convergence_ns_total, convergence);
    }

    #[test]
    fn retransmission_stops_at_the_cap() {
        let mut g = gossip(5, 1.0);
        let at = SENT_AT
            + LATENCY
            + SimDuration::from_nanos(INTERVAL.as_nanos() * u64::from(MAX_RETRANSMITS));
        assert_eq!(
            send_all(&mut g, SimTime::ZERO),
            vec![(0, at), (2, at), (3, at)]
        );
        assert_eq!(g.lost, 3 * u64::from(MAX_RETRANSMITS));
        assert_eq!(g.deliveries, 3);
    }

    /// A delivery due before the barrier lands at the barrier, the
    /// receivers' executed past; one due later keeps its instant.
    #[test]
    fn a_delivery_never_lands_before_the_barrier() {
        let seed = 21;
        let barrier = SENT_AT + LATENCY + INTERVAL / 2;
        let mut g = gossip(seed, 0.5);
        let got = send_all(&mut g, barrier);
        let mut rng = SimRng::seed_from_u64(seed).stream("mesh-gossip");
        let want: Vec<(usize, SimTime)> = [0, 2, 3]
            .into_iter()
            .map(|r| {
                let mut at = SENT_AT + LATENCY;
                while rng.f64() < 0.5 {
                    at += INTERVAL;
                }
                (r, at.max(barrier))
            })
            .collect();
        assert!(
            want.iter().any(|&(_, at)| at == barrier) && want.iter().any(|&(_, at)| at > barrier),
            "seed {seed} clamps all deliveries or none; pick another"
        );
        assert_eq!(got, want);
    }

    /// A shard's end of run on one site with one service: its replica
    /// applied `applied` ops, rejected `failed_replays`, and ends with the
    /// service ready or not.
    fn shard_final(applied: u64, failed_replays: u64, ready: bool) -> ShardFinal {
        let status = ServiceStatus {
            ready_replicas: u32::from(ready),
            ..ServiceStatus::default()
        };
        ShardFinal {
            summary: ShardSummary::default(),
            records: Vec::new(),
            lost: 0,
            lost_tags: Vec::new(),
            handovers: 0,
            in_flight: Vec::new(),
            redirects: Vec::new(),
            replicas: vec![vec![(0, status, true)]],
            applied: vec![applied],
            failed_replays: vec![failed_replays],
            stalls: 0,
            events: 0,
        }
    }

    /// The audit names each shard whose replica parted from shard 0's: one
    /// that missed an op, one that rejected a replay, one that ended in
    /// another state.
    #[test]
    fn a_diverged_replica_is_reported() {
        let diverged = |finals: Vec<ShardFinal>| -> Vec<Violation> {
            audit(&finals, &BTreeMap::new())
                .into_iter()
                .filter(|v| matches!(v, Violation::ReplicaDivergence { .. }))
                .collect()
        };
        let at_site_0 = |shards: Vec<usize>| vec![Violation::ReplicaDivergence { site: 0, shards }];
        let same = || shard_final(3, 0, true);
        assert!(diverged(vec![same(), same(), same()]).is_empty());
        assert_eq!(
            diverged(vec![same(), shard_final(2, 0, true)]),
            at_site_0(vec![1])
        );
        assert_eq!(
            diverged(vec![same(), same(), shard_final(3, 1, true)]),
            at_site_0(vec![2])
        );
        assert_eq!(
            diverged(vec![same(), shard_final(3, 0, false)]),
            at_site_0(vec![1])
        );
        assert_eq!(
            diverged(vec![shard_final(3, 1, true), same()]),
            at_site_0(vec![0])
        );
    }
}

/// A bounded-exhaustive model of the lease protocol, run against the
/// coordinator's own pieces: each shard's [`WindowGate`], the barrier's
/// [`merge_sort`] and [`commit_leases`], and [`Gossip::fan_out`]. No ingress
/// core and no backend: a shard is a gate plus the deployment machines it
/// believes it runs.
///
/// A case is 2–3 shards, ≤ 3 same-instant `try_acquire`s over two windows
/// on ≤ 2 cold services at one cluster, and how many windows after its
/// start a machine turns Ready. A revoked machine releases through its gate
/// (as `abort_deployment` → `fail_machine` does), a Ready one releases and
/// gossips a Ready delta. At every barrier the model asserts that:
/// - each gate answered as the last committed holder dictates;
/// - the committed holder of each key is its first tentative acquirer in
///   `(time, origin, seq)` order, and every other tentative acquirer is
///   revoked exactly once;
/// - no key has a running machine outside its committed holder (split
///   brain).
///
/// At the end, every rejected or revoked shard has received a Ready delta
/// for its key at or after the instant it lost, every delivery lands at or
/// after the barrier that sent it, no lease is held and every gate's
/// canonical view is empty.
#[cfg(test)]
mod protocol_model {
    use super::*;
    use edgectl::controller::DeltaKind;

    /// The model mesh's link latency, which is also its window length.
    const LINK: SimDuration = SimDuration::from_millis(10);
    const CLUSTER: ClusterId = ClusterId(0);

    type Key = (ClusterId, ServiceId);

    /// Shard `shard` wants to deploy `service` at the start of `window`.
    #[derive(Debug, Clone, Copy)]
    struct Acquire {
        window: u64,
        shard: usize,
        service: u32,
    }

    #[derive(Debug)]
    struct Case {
        shards: usize,
        /// Windows from a machine's start to its Ready.
        ready_after: u64,
        acquires: Vec<Acquire>,
    }

    struct Shard {
        gate: WindowGate,
        state: Rc<RefCell<GateState>>,
        outbox: Rc<RefCell<Outbox>>,
        /// Running machines, by the window each started in.
        machines: BTreeMap<Key, u64>,
        /// Gate calls so far: this shard's own order, independent of the
        /// outbox's sequence numbers.
        calls: u64,
    }

    impl Shard {
        fn new(shard: usize) -> Shard {
            let state = Rc::new(RefCell::new(GateState::default()));
            let outbox = Rc::new(RefCell::new(Outbox::default()));
            Shard {
                gate: WindowGate {
                    shard,
                    state: Rc::clone(&state),
                    outbox: Rc::clone(&outbox),
                },
                state,
                outbox,
                machines: BTreeMap::new(),
                calls: 0,
            }
        }
    }

    fn instant(window: u64) -> SimTime {
        SimTime::ZERO + LINK * window
    }

    /// Every case: each sequence of 1–3 acquires, each acquire any window
    /// of two, any shard and either service.
    fn cases() -> Vec<Case> {
        let mut out = Vec::new();
        for shards in 2..=3 {
            let choices: Vec<Acquire> = (0..2)
                .flat_map(|window| {
                    (0..shards).flat_map(move |shard| {
                        (0..2).map(move |service| Acquire {
                            window,
                            shard,
                            service,
                        })
                    })
                })
                .collect();
            for ready_after in 1..=2 {
                for len in 1..=3u32 {
                    for mut code in 0..choices.len().pow(len) {
                        let mut acquires = Vec::new();
                        for _ in 0..len {
                            acquires.push(choices[code % choices.len()]);
                            code /= choices.len();
                        }
                        out.push(Case {
                            shards,
                            ready_after,
                            acquires,
                        });
                    }
                }
            }
        }
        out
    }

    /// Run one case through the protocol; `perturb` reverses the merge
    /// tie-break.
    fn run(case: &Case, perturb: bool) -> Result<(), String> {
        let n = case.shards;
        let mut cfg = ScenarioConfig::default();
        cfg.mesh.link_latency = LINK;
        let mut gossip = Gossip::new(&cfg);
        let table = LeaseTable::new();
        let mut handles: Vec<LeaseHandle> = (0..n).map(|s| table.handle(s)).collect();
        let mut shards: Vec<Shard> = (0..n).map(Shard::new).collect();
        let mut inboxes: Vec<Inbox> = (0..n).map(|_| Inbox::default()).collect();
        // The specification's committed holders, and who lost a key when.
        let mut committed: BTreeMap<Key, usize> = BTreeMap::new();
        let mut lost: Vec<(usize, Key, SimTime)> = Vec::new();
        let mut reached: Vec<(usize, Key, SimTime)> = Vec::new();
        let last = case.acquires.iter().map(|a| a.window).max().unwrap_or(0);
        for window in 0.. {
            if window > last + 2 * case.ready_after + 2 {
                return Err("the protocol never quiesced".into());
            }
            let now = instant(window);
            // This window's logged calls in the shard's own order:
            // `(shard, call, key, acquire)`.
            let mut calls: Vec<(usize, u64, Key, bool)> = Vec::new();
            for (s, shard) in shards.iter_mut().enumerate() {
                let inbox = std::mem::take(&mut inboxes[s]);
                shard.state.borrow_mut().reset(&inbox.lease_holders);
                for &(at, d) in &inbox.deliveries {
                    if d.kind == DeltaKind::Ready {
                        reached.push((s, (d.cluster, d.service), at));
                    }
                }
                for &key in &inbox.revocations {
                    shard.machines.remove(&key);
                    shard.gate.release(now, key.0, key.1);
                    lost.push((s, key, now));
                }
                let ready: Vec<Key> = shard
                    .machines
                    .iter()
                    .filter(|&(_, &started)| started + case.ready_after <= window)
                    .map(|(&key, _)| key)
                    .collect();
                for key in ready {
                    shard.machines.remove(&key);
                    shard.gate.release(now, key.0, key.1);
                    calls.push((s, shard.calls, key, false));
                    shard.calls += 1;
                    let mut ob = shard.outbox.borrow_mut();
                    let seq = ob.next_seq();
                    ob.deltas.push(DeltaOut {
                        time: now,
                        origin: s,
                        seq,
                        delta: StatusDelta {
                            origin: now,
                            cluster: key.0,
                            service: key.1,
                            kind: DeltaKind::Ready,
                        },
                    });
                }
                for a in case
                    .acquires
                    .iter()
                    .filter(|a| a.window == window && a.shard == s)
                {
                    let key = (CLUSTER, ServiceId(a.service));
                    let granted = shard.gate.try_acquire(now, key.0, key.1);
                    let peer_holds = committed.get(&key).is_some_and(|&h| h != s);
                    if granted == peer_holds {
                        return Err(format!(
                            "window {window}: shard {s}'s gate answered {granted} for {key:?}"
                        ));
                    }
                    if granted {
                        shard.machines.entry(key).or_insert(window);
                        calls.push((s, shard.calls, key, true));
                    } else {
                        lost.push((s, key, now));
                    }
                    shard.calls += 1;
                }
            }

            // The specification: every call happened at `now`, so the first
            // tentative acquirer is the one first in `(origin, own order)`.
            calls.sort_by_key(|&(s, call, _, _)| (s, call));
            let mut revoke: BTreeSet<(usize, Key)> = BTreeSet::new();
            for &(s, _, key, acquire) in &calls {
                match (acquire, committed.get(&key).copied()) {
                    (true, None) => {
                        committed.insert(key, s);
                    }
                    (true, Some(h)) if h != s => {
                        revoke.insert((s, key));
                    }
                    (false, Some(h)) if h == s => {
                        committed.remove(&key);
                    }
                    _ => {}
                }
            }

            // The barrier, as the coordinator runs it.
            let mut lease_ops = Vec::new();
            let mut deltas = Vec::new();
            for shard in &shards {
                let mut ob = shard.outbox.borrow_mut();
                lease_ops.append(&mut ob.lease_ops);
                deltas.append(&mut ob.deltas);
            }
            merge_sort(&mut lease_ops, |o| (o.time, o.origin, o.seq), perturb);
            merge_sort(&mut deltas, |d| (d.time, d.origin, d.seq), perturb);
            let barrier = instant(window + 1);
            commit_leases(&lease_ops, &table, &mut handles, &mut inboxes);
            for d in &deltas {
                gossip.fan_out(d, 0..n, barrier, |t, at| {
                    inboxes[t].deliveries.push((at, d.delta))
                });
            }

            for service in 0..2 {
                let key = (CLUSTER, ServiceId(service));
                let holder = table.holder(key.0, key.1);
                if holder != committed.get(&key).copied() {
                    return Err(format!(
                        "window {window}: {key:?} committed to {holder:?}, \
                         its first acquirer is {:?}",
                        committed.get(&key)
                    ));
                }
                for (s, shard) in shards.iter().enumerate() {
                    let revoked = inboxes[s].revocations.iter().filter(|&&k| k == key).count();
                    if revoked != usize::from(revoke.contains(&(s, key))) {
                        return Err(format!(
                            "window {window}: shard {s} revoked {revoked} times for {key:?}"
                        ));
                    }
                    if revoked == 0 && shard.machines.contains_key(&key) && holder != Some(s) {
                        return Err(format!(
                            "window {window}: split brain on {key:?}: shard {s} runs \
                             a machine, {holder:?} holds the lease"
                        ));
                    }
                }
            }
            for (t, inbox) in inboxes.iter().enumerate() {
                if let Some(&(at, _)) = inbox.deliveries.iter().find(|&&(at, _)| at < barrier) {
                    return Err(format!(
                        "a delivery to shard {t} at {at} precedes the barrier"
                    ));
                }
            }

            let quiet = lease_ops.is_empty() && deltas.is_empty();
            if window >= last && quiet && shards.iter().all(|s| s.machines.is_empty()) {
                break;
            }
        }

        for (s, key, at) in &lost {
            if !reached
                .iter()
                .any(|r| (r.0, r.1) == (*s, *key) && r.2 >= *at)
            {
                return Err(format!(
                    "shard {s} lost {key:?} at {at} and never heard it was ready"
                ));
            }
        }
        if table.held() != 0 {
            return Err(format!("{} leases held at the end", table.held()));
        }
        for (s, shard) in shards.iter().enumerate() {
            let mut st = shard.state.borrow_mut();
            st.reset(&inboxes[s].lease_holders);
            if !st.canonical.is_empty() {
                return Err(format!("shard {s}'s gate ends with {:?}", st.canonical));
            }
        }
        Ok(())
    }

    #[test]
    fn every_case_keeps_the_protocol() {
        let cases = cases();
        for case in &cases {
            if let Err(e) = run(case, false) {
                panic!("{case:?}: {e}");
            }
        }
        println!("lease protocol model: {} cases", cases.len());
        assert_eq!(cases.len(), 4_936);
    }

    /// The mutation `tests/windowed.rs` applies to the whole engine: with
    /// the merge tie-break reversed, the model must fail.
    #[test]
    fn a_reversed_tie_break_fails_the_model() {
        let failing = cases().iter().filter(|c| run(c, true).is_err()).count();
        assert!(failing > 0, "the reversed tie-break broke no case");
        println!("reversed tie-break: {failing} failing cases");
    }
}
