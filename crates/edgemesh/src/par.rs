//! The windowed parallel mesh engine: thread-per-shard conservative PDES.
//!
//! Each ingress shard is one [`testbed::ingress::IngressShard`] — the same
//! switch / controller / event-queue core the single-controller testbed runs
//! to completion — plus a full set of *replica* site backends, all living on
//! one worker thread of a [`simcore::ShardCrew`]. Shards run their core
//! freely to a common window end `T_min + lookahead` (`T_min` = earliest
//! pending activity across the mesh, lookahead = the inter-shard link
//! latency), then exchange everything cross-shard at a barrier:
//!
//! * **gossip deltas** drained during the window, delivered at
//!   `drain time + link_latency` (losses pre-rolled by the coordinator from
//!   the `"mesh-gossip"` stream, exactly like the reference engine);
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
//! thread count only chooses which worker executes a shard and the mesh
//! trace hash is byte-identical for any `threads`, including 1 (which runs
//! the same windowed algorithm on a single worker).
//!
//! ## Divergence envelope
//!
//! Replicas are *eventually* identical, not continuously: shard `A`'s own
//! backend ops apply at their true instants while peers replay them at the
//! next barrier, and a revoked (optimistic loser) machine's already-logged
//! ops are not compensated. Both model the real federation — a controller
//! acts on its own view immediately and peers converge at gossip latency —
//! and both are deterministic, so they live inside the accepted divergence
//! envelope documented in DESIGN.md §5f alongside the reference engine's
//! shared-backend idealization.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use cluster::ClusterBackend;
use containers::ImageRef;
use edgectl::{ClusterId, Controller, DeployGate, ServiceId, StatusDelta};
use edgeverify::{MeshView, Verifier, Violation};
use simcore::{ShardActor, ShardCrew, SimDuration, SimRng, SimTime};
use testbed::bringup;
use testbed::ingress::{Engine, IngressShard, Released};
use testbed::ScenarioConfig;
use workload::{departures, ingress_at, Trace};

use crate::result::{MeshRecord, MeshRunResult, ShardSummary};
use crate::shared::{share, SharedBackend, SharedHandle, SiteCall};

/// Retransmission cap per delta delivery (see `reference::MAX_RETRANSMITS`).
const MAX_RETRANSMITS: u32 = 64;

/// `--threads` asked for more workers than there are shards. Extra workers
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
            "threads ({}) exceeds mesh shards ({}): each worker thread owns whole \
             shards, so at most `shards` threads can do work",
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
    /// `(service index, site)` pairs ready on this shard's replicas. The
    /// audit uses shard 0's set (replicas converge at barriers).
    ready: Vec<(u32, usize)>,
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
    /// This shard's replicas of every site, in site order.
    handles: Vec<SharedHandle>,
    gate: Option<Rc<RefCell<GateState>>>,
    mesh: MeshEngine,
    revocations: u64,
    /// Real windows in which this shard executed zero events — it only
    /// stalled at the barrier while other shards worked.
    stalls: u64,
}

/// What the windowed engine makes of the core's events: a released request
/// becomes a [`MeshRecord`], a delivery is applied to the controller, and
/// every event's status deltas go to the barrier outbox.
struct MeshEngine {
    shard: usize,
    /// Trace tag of each of this shard's requests, by core lane index (a
    /// shard's lanes hold its own requests only).
    tags: Vec<u64>,
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
    fn released(&mut self, _: &mut IngressShard<StatusDelta>, now: SimTime, r: Released) {
        self.records.push(MeshRecord {
            tag: self.tags[r.idx],
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
    /// instant. Errors are swallowed: they mean this replica had already
    /// diverged inside the accepted envelope (e.g. a revoked machine's
    /// uncompensated ops), and the replay is the convergence mechanism, not
    /// a correctness gate.
    fn replay(&mut self, at: SimTime, op: &SiteOp) {
        let mut b = self.handles[op.site].borrow_mut();
        let controller = &self.core.controller;
        match &op.call {
            SiteCall::Pull { template } => {
                if let Some(s) = controller.catalog.lookup_name(template) {
                    let _ = b.pull(at, &s.template, controller.registries());
                }
            }
            SiteCall::Create { template } => {
                if let Some(s) = controller.catalog.lookup_name(template) {
                    let _ = b.create(at, &s.template);
                }
            }
            SiteCall::ScaleUp { service, replicas } => {
                let _ = b.scale_up(at, service, *replicas);
            }
            SiteCall::ScaleDown { service, replicas } => {
                let _ = b.scale_down(at, service, *replicas);
            }
            SiteCall::Remove { service } => {
                let _ = b.remove(at, service);
            }
            SiteCall::DeleteImage { image } => {
                let _ = b.delete_image(at, &ImageRef::new(image.clone()));
            }
            SiteCall::InjectCrash { service } => {
                let _ = b.inject_crash(at, service);
            }
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
            let mut st = gate.borrow_mut();
            st.canonical = cmd
                .inbox
                .lease_holders
                .iter()
                .map(|&(c, s, h)| ((c, s), h))
                .collect();
            st.tentative.clear();
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
        let executed = self.core.run_until(cmd.end, &mut self.mesh);
        if cmd.end > at && executed == 0 {
            self.stalls += 1;
        }
        let mut ob = self.mesh.outbox.borrow_mut();
        WindowReport {
            next_time: self.core.next_time(),
            lease_ops: std::mem::take(&mut ob.lease_ops),
            site_ops: std::mem::take(&mut ob.site_ops),
            deltas: std::mem::take(&mut ob.deltas),
            in_flight: self.core.controller.in_flight_deployments(cmd.end),
        }
    }

    fn finish(self) -> ShardFinal {
        let now = self.core.horizon();
        let controller = &self.core.controller;
        let in_flight = controller
            .in_flight_deployments(now)
            .into_iter()
            .map(|(svc, c)| (svc.0, c.0))
            .collect();
        let redirects = controller
            .memory()
            .iter()
            .filter(|f| !f.pending)
            .filter_map(|f| f.cluster.map(|c| (f.service.0, c.0)))
            .collect();
        let mut ready = Vec::new();
        for service in controller.catalog.services() {
            for (c, handle) in self.handles.iter().enumerate() {
                if handle
                    .borrow()
                    .status(now, &service.template.name)
                    .is_ready()
                {
                    ready.push((service.id.0, c));
                }
            }
        }
        let tags = &self.mesh.tags;
        ShardFinal {
            summary: ShardSummary::of(&controller.stats, self.revocations),
            lost: self.core.lost(),
            lost_tags: self
                .core
                .lost_idx()
                .iter()
                .map(|&i| tags[i as usize])
                .collect(),
            handovers: controller.stats.handovers,
            in_flight,
            redirects,
            ready,
            stalls: self.stalls,
            events: self.core.events_executed(),
            records: self.mesh.records,
        }
    }
}

/// The test-only hooks of a run ([`run_windowed_hooked`]); all off in
/// production.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct TestHooks {
    /// Sensitivity hook: perturb the barrier merge order (tie-break and
    /// fan-out order reversed). The determinism regression suite asserts the
    /// canonical hash *changes* under this mutation — proof the pinned
    /// hashes actually pin the merge order.
    pub perturb: bool,
    /// Seeded fault for the session-continuity analysis: this client's
    /// post-handover requests are silently swallowed (never served, never
    /// accounted lost). The mutation test asserts the continuity check flags
    /// the blackholed sessions — proof the analysis is live, not vacuously
    /// green.
    pub blackhole_victim: Option<usize>,
}

/// Build shard `shard`'s full state. Runs *on the worker thread that owns
/// the shard* ([`ShardCrew::spawn`]'s contract), so everything here —
/// `Rc`/`RefCell` graphs, trait objects — stays thread-local. Bring-up is
/// `testbed::bringup`'s, so all replicas of a site are byte-identical at
/// birth and stay so under the identical prewarm performed here.
fn build_shard(shard: usize, cfg: &ScenarioConfig, trace: &Trace, hooks: TestHooks) -> MeshShard {
    let n = cfg.mesh.shards;
    let c3 = bringup::topology(cfg);
    let mut backends = bringup::site_backends(cfg, &c3);
    let templates = bringup::service_templates(cfg, trace.service_addrs.len());
    // Prewarm the replicas themselves, before the LoggingBackend wraps them:
    // every shard performs it, so broadcasting it would double-apply.
    let setup_end = bringup::prewarm(cfg, &templates, backends.iter_mut().map(|b| b.as_mut()));
    let handles: Vec<SharedHandle> = backends.into_iter().map(share).collect();

    let outbox = Rc::new(RefCell::new(Outbox::default()));
    let gate = cfg
        .mesh
        .leases
        .then(|| Rc::new(RefCell::new(GateState::default())));
    // The controller steers each replica through a view that logs its
    // successful mutations for barrier broadcast.
    let replicas = handles.iter().enumerate().map(|(site, handle)| {
        let outbox = Rc::clone(&outbox);
        Box::new(SharedBackend::observed(
            handle.clone(),
            move |time, call| {
                let mut ob = outbox.borrow_mut();
                let seq = ob.next_seq();
                ob.site_ops.push(SiteOp {
                    time,
                    origin: shard,
                    seq,
                    site,
                    call,
                });
            },
        )) as Box<dyn ClusterBackend>
    });
    let controller = bringup::controller(
        cfg,
        &c3,
        replicas,
        &trace.service_addrs,
        templates,
        |builder| {
            let builder = builder.emit_status_deltas();
            match &gate {
                Some(state) => builder.deploy_gate(WindowGate {
                    shard,
                    state: Rc::clone(state),
                    outbox: Rc::clone(&outbox),
                }),
                None => builder,
            }
        },
    );
    let switch = bringup::seeded_switch(cfg, &c3);
    let mut core = IngressShard::new(c3, switch, controller, trace.service_addrs.clone());

    let offset = (setup_end - SimTime::ZERO) + SimDuration::from_secs(5);
    let tags: Vec<u64> = trace
        .requests
        .iter()
        .enumerate()
        .filter(|(_, req)| {
            // Static ingress assignment (home shard advanced by the client's
            // prior handovers) — a pure function of the trace, so every shard
            // and the reference engine partition identically with no
            // cross-shard machinery.
            let ingress = ingress_at(&trace.handovers, req.client, req.at, n);
            // Seeded-fault hook: swallow the victim's post-handover requests
            // — the session is neither served nor accounted lost, exactly the
            // blackhole the continuity analysis exists to catch.
            let blackholed =
                hooks.blackhole_victim == Some(req.client) && ingress != req.client % n;
            ingress == shard && !blackholed
        })
        .map(|(idx, _)| idx as u64)
        .collect();
    core.reserve(tags.len());
    for &tag in &tags {
        let req = &trace.requests[tag as usize];
        let access = core.c3.client_switch_latency(req.client);
        core.admit(req.at + offset + access, req.client, req.service);
    }
    for (old, h) in departures(&trace.handovers, n) {
        if old == shard {
            core.schedule_handover(h.at + offset, h.client);
        }
    }
    core.start();

    MeshShard {
        core,
        handles,
        gate,
        mesh: MeshEngine {
            shard,
            tags,
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

/// Run `trace` through the windowed engine with `threads` worker threads
/// (clamped to the shard count). Requires `cfg.mesh.shards >= 2`.
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

/// Test-only: the per-site bookings shard `shard`'s controller ends bring-up
/// with (`tests/bringup.rs` holds them to the single-controller testbed's).
#[doc(hidden)]
pub fn shard_site_allocations(
    cfg: &ScenarioConfig,
    trace: &Trace,
    shard: usize,
) -> Vec<cluster::ResourceAllocation> {
    let built = build_shard(shard, cfg, trace, TestHooks::default());
    (0..built.handles.len())
        .map(|site| built.core.controller.site_allocation(ClusterId(site)))
        .collect()
}

/// [`run_windowed_audited`] with test hooks switched on.
#[doc(hidden)]
pub fn run_windowed_hooked(
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
    let link_latency = cfg.mesh.link_latency;
    let gossip_interval = cfg.mesh.gossip_interval;
    let loss = cfg.mesh.loss;
    let lookahead = if link_latency > SimDuration::ZERO {
        link_latency
    } else {
        SimDuration::from_nanos(1)
    };
    let mut gossip_rng = SimRng::seed_from_u64(cfg.seed).stream("mesh-gossip");

    let shared = Arc::new((cfg, trace.clone()));
    let build_input = Arc::clone(&shared);
    let mut crew: ShardCrew<MeshShard> = ShardCrew::spawn(n, threads, move |shard| {
        build_shard(shard, &build_input.0, &build_input.1, hooks)
    });
    let effective_threads = crew.effective_threads();

    // Canonical (coordinator-side) state.
    let mut canonical: BTreeMap<(ClusterId, ServiceId), usize> = BTreeMap::new();
    let mut duplicates: BTreeMap<(u32, usize), BTreeSet<usize>> = BTreeMap::new();
    let mut deltas_sent = 0u64;
    let mut deltas_lost = 0u64;
    let mut delta_deliveries = 0u64;
    let mut staleness_ns_total = 0u128;
    let mut convergence_ns_total = 0u128;
    let mut converged_deltas = 0u64;
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

    loop {
        // --- Merge phase (coordinator thread, deterministic order). ---
        let mut lease_ops: Vec<LeaseOp> = Vec::new();
        let mut site_ops: Vec<SiteOp> = Vec::new();
        let mut deltas: Vec<DeltaOut> = Vec::new();
        for r in &reports {
            lease_ops.extend(r.lease_ops.iter().copied());
            site_ops.extend(r.site_ops.iter().cloned());
            deltas.extend(r.deltas.iter().copied());
        }
        lease_ops.sort_by(|a, b| {
            merge_cmp(
                (a.time, a.origin, a.seq),
                (b.time, b.origin, b.seq),
                perturb,
            )
        });
        site_ops.sort_by(|a, b| {
            merge_cmp(
                (a.time, a.origin, a.seq),
                (b.time, b.origin, b.seq),
                perturb,
            )
        });
        deltas.sort_by(|a, b| {
            merge_cmp(
                (a.time, a.origin, a.seq),
                (b.time, b.origin, b.seq),
                perturb,
            )
        });

        // Lease resolution: replay every logged op against the canonical
        // table in merged order. First committed acquirer wins; a tentative
        // holder that lost is revoked.
        let mut inboxes: Vec<Inbox> = (0..n).map(|_| Inbox::default()).collect();
        let mut revoked_keys: BTreeSet<(ClusterId, ServiceId)> = BTreeSet::new();
        let mut revoked_once: BTreeSet<(usize, ClusterId, ServiceId)> = BTreeSet::new();
        for op in &lease_ops {
            let key = (op.cluster, op.service);
            match op.call {
                LeaseCall::Acquire => match canonical.get(&key).copied() {
                    None => {
                        canonical.insert(key, op.origin);
                    }
                    Some(holder) if holder == op.origin => {}
                    Some(_) => {
                        if revoked_once.insert((op.origin, op.cluster, op.service)) {
                            inboxes[op.origin].revocations.push(key);
                        }
                        revoked_keys.insert(key);
                    }
                },
                LeaseCall::Release => {
                    if canonical.get(&key).copied() == Some(op.origin) {
                        canonical.remove(&key);
                    }
                }
            }
        }
        if leases {
            let snapshot: Vec<(ClusterId, ServiceId, usize)> =
                canonical.iter().map(|(&(c, s), &h)| (c, s, h)).collect();
            for inbox in &mut inboxes {
                inbox.lease_holders = snapshot.clone();
            }
        }

        // Route backend ops to every peer for barrier replay.
        for op in &site_ops {
            for (s, inbox) in inboxes.iter_mut().enumerate() {
                if s != op.origin {
                    inbox.foreign_ops.push(op.clone());
                }
            }
        }

        // Gossip fan-out with pre-rolled loss, in merged delta order. A
        // delivery computed behind the current horizon (a barrier-instant
        // drain) arrives "now" at the earliest — the clamp that keeps every
        // injection at or after the receiving shard's horizon.
        let mut next_activity: Option<SimTime> = None;
        fn bump(t: SimTime, next_activity: &mut Option<SimTime>) {
            *next_activity = Some(next_activity.map_or(t, |n: SimTime| n.min(t)));
        }
        let targets: Vec<usize> = if perturb {
            (0..n).rev().collect()
        } else {
            (0..n).collect()
        };
        for d in &deltas {
            let mut latest = SimTime::ZERO;
            for &t in &targets {
                if t == d.origin {
                    continue;
                }
                deltas_sent += 1;
                let mut at = d.time + link_latency;
                let mut tries = 0;
                while tries < MAX_RETRANSMITS && gossip_rng.chance(loss) {
                    deltas_lost += 1;
                    at += gossip_interval;
                    tries += 1;
                }
                let at = at.max(horizon);
                delta_deliveries += 1;
                staleness_ns_total += at.since(d.delta.origin).as_nanos() as u128;
                latest = latest.max(at);
                bump(at, &mut next_activity);
                inboxes[t].deliveries.push((at, d.delta));
            }
            convergence_ns_total += latest.since(d.delta.origin).as_nanos() as u128;
            converged_deltas += 1;
        }

        // Split-brain scan over the window-end in-flight sets, minus the
        // keys this barrier just revoked (the revocation *is* the protocol
        // resolving the race — only a key still contested after resolution
        // is a real duplicate).
        let mut holders: BTreeMap<(u32, usize), Vec<usize>> = BTreeMap::new();
        for (s, r) in reports.iter().enumerate() {
            for &(svc, cluster) in &r.in_flight {
                if revoked_keys.contains(&(cluster, svc)) {
                    continue;
                }
                holders.entry((svc.0, cluster.0)).or_default().push(s);
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

    let finals = crew.finish();

    // Deterministic cross-shard record order: completion time, then shard,
    // then tag — a pure function of the simulation, never of the workers.
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

    let mut violations = audit(&finals, &duplicates);
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
        deltas_sent,
        deltas_lost,
        delta_deliveries,
        staleness_ns_total,
        convergence_ns_total,
        converged_deltas,
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

/// The mesh-coherence audit over the final shard states: `edgeverify`'s
/// static checks (using shard 0's replica-derived ready set — replicas
/// converge at barriers) plus the split-brain duplicates observed live.
fn audit(
    finals: &[ShardFinal],
    duplicates: &BTreeMap<(u32, usize), BTreeSet<usize>>,
) -> Vec<Violation> {
    let verifier = Verifier::new();
    let view = MeshView {
        in_flight: finals.iter().map(|f| f.in_flight.to_vec()).collect(),
        redirects: finals.iter().map(|f| f.redirects.to_vec()).collect(),
        ready: finals
            .first()
            .map(|f| f.ready.iter().copied().collect::<HashSet<_>>())
            .unwrap_or_default(),
    };
    let mut out = verifier.check_mesh(&view);
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
    out
}
