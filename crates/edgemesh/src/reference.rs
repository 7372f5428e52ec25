//! The federated event loop: `N` ingress switches, `N` controllers, one set
//! of shared edge sites, and a deterministic asynchronous gossip layer in
//! between.
//!
//! Clients are partitioned statically — client `i` enters the fabric through
//! ingress shard `i % N` (a 5G UPF pins a UE's N6 traffic to one ingress the
//! same way). Each shard runs the unmodified `edgectl` controller over its
//! own switch: PacketIn, FlowMod, buffered-packet release and wakeups all
//! work exactly as in the single-controller [`testbed`], just indexed by
//! shard. What is new:
//!
//! * after **every** event, each controller's pending [`StatusDelta`]s are
//!   drained and scheduled for delivery to every other shard at
//!   `now + link_latency`; losses are pre-rolled at send time from a
//!   dedicated RNG stream (a lost delivery retries after `gossip_interval`),
//!   so the whole mesh — including a lossy one — replays byte-identically
//!   under the same seed;
//! * after every event the per-shard in-flight deployment sets are
//!   intersected; a `(service, cluster)` deploying on two shards at once is
//!   a **duplicate deployment** (the split-brain failure the lease protocol
//!   exists to prevent) and is recorded for [`MeshRunResult`] and the mesh
//!   audit;
//! * requests complete with a simplified release model (forwarded = served,
//!   dropped = lost); flow-level TCP timing stays the single-controller
//!   testbed's concern, the mesh artifact measures coordination behaviour.
//!
//! This module is the **interleaved reference engine**: one global event
//! queue, every shard's events executed in a single stream. It is the
//! executable specification that the windowed parallel engine
//! ([`crate::par`]) is held equivalent to by the lockstep model test, which
//! is why it does *not* run on the shared ingress core (`testbed::ingress`)
//! that engine and the single-controller testbed use: its event loop,
//! synchronous lease gate, gossip pump and duplicate scan are a second,
//! independent statement of the protocol. Only site / controller / switch
//! bring-up (`testbed::bringup`) and the same-instant order of a handover
//! and a SYN (teardown first) are shared.
//! `shards = 1` never builds a [`MeshSim`] at all:
//! [`crate::run_mesh_scenario`] delegates to [`testbed::Testbed`], keeping
//! pinned traces byte-identical.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use cluster::ClusterBackend;
use edgectl::{Controller, ControllerOutput, StatusDelta};
use edgeverify::{MeshView, Verifier, Violation};
use simcore::{EventQueue, SimDuration, SimRng, SimTime};
use simnet::openflow::{BufferId, PacketVerdict, PortId, Switch};
use simnet::{Packet, SocketAddr};
use testbed::ingress::CTRL_LATENCY;
use testbed::{bringup, C3Topology, ScenarioConfig};
use workload::{departures, ingress_at, Trace};

use crate::lease::LeaseTable;
use crate::result::{MeshRecord, MeshRunResult, ShardSummary};
use crate::shared::{share, SharedBackend, SharedHandle};

/// Retransmission cap per delta delivery. With `loss < 1` the chance of
/// hitting it is astronomically small; it exists so a pre-rolled loss chain
/// always terminates.
const MAX_RETRANSMITS: u32 = 64;

/// Events of the mesh simulation.
enum Ev {
    /// A client's SYN reaches its shard's ingress switch.
    Syn { tag: u64 },
    /// A PacketIn reaches shard `shard`'s controller.
    CtrlPacketIn {
        shard: usize,
        packet: Packet,
        buffer_id: BufferId,
        in_port: PortId,
    },
    /// A controller output reaches its shard's switch.
    Apply {
        shard: usize,
        output: ControllerOutput,
    },
    /// Shard `shard`'s controller asked to be woken.
    Wakeup { shard: usize },
    /// `client` hands over away from ingress `shard` — the departing
    /// controller tears down the client's flows.
    Handover { shard: usize, client: usize },
    /// A gossiped status delta arrives at shard `to`.
    Deliver {
        to: usize,
        seq: u64,
        delta: StatusDelta,
    },
}

/// One ingress shard: its switch and its controller.
struct Shard {
    switch: Switch,
    controller: Controller,
}

struct InFlight {
    shard: usize,
    client: usize,
    service: usize,
}

/// Tracks one delta's propagation for the convergence metric.
struct PendingDelta {
    origin: SimTime,
    latest: SimTime,
    remaining: usize,
}

/// The assembled mesh.
pub struct MeshSim {
    cfg: ScenarioConfig,
    c3: C3Topology,
    shards: Vec<Shard>,
    /// One shared backend per edge site, in site order.
    handles: Vec<SharedHandle>,
    lease: Option<LeaseTable>,
    /// When the build-time pre-warm of the shared sites finished.
    setup_end: SimTime,
    service_addrs: Vec<SocketAddr>,
    gossip_rng: SimRng,
    events: EventQueue<Ev>,
    in_flight: Vec<Option<InFlight>>,
    records: Vec<MeshRecord>,
    lost: u64,
    /// Tags of requests accounted as lost, for the session-continuity
    /// analysis (a tag neither completed nor here was blackholed).
    lost_tags: Vec<u64>,
    delta_seq: u64,
    deltas_sent: u64,
    deltas_lost: u64,
    delta_deliveries: u64,
    staleness_ns_total: u128,
    convergence_ns_total: u128,
    converged_deltas: u64,
    pending_convergence: BTreeMap<u64, PendingDelta>,
    /// `(service, cluster)` pairs seen deploying on ≥ 2 shards at once, with
    /// the shards involved.
    duplicates: BTreeMap<(u32, usize), BTreeSet<usize>>,
    /// Earliest armed wakeup per shard (same idempotent contract as the
    /// single-controller testbed).
    wakeup_armed: Vec<Option<SimTime>>,
    last_event: SimTime,
}

impl MeshSim {
    /// Build a mesh for `cfg` over the given cloud service addresses.
    /// `cfg.mesh.shards` must be ≥ 2 — one controller is the plain
    /// [`testbed::Testbed`] (see [`crate::run_mesh_scenario`]).
    pub fn build(cfg: ScenarioConfig, service_addrs: Vec<SocketAddr>) -> MeshSim {
        let n = cfg.mesh.shards;
        assert!(
            n >= 2,
            "MeshSim needs >= 2 shards; one controller is the plain Testbed"
        );
        let c3 = bringup::topology(&cfg);
        let mut backends = bringup::site_backends(&cfg, &c3);
        let templates = bringup::service_templates(&cfg, service_addrs.len());
        // Pre-warm every shared site once (not once per shard — the sites
        // are shared).
        let setup_end = bringup::prewarm(&cfg, &templates, backends.iter_mut().map(|b| b.as_mut()));
        // One shared backend per site, shared by every shard.
        let handles: Vec<SharedHandle> = backends.into_iter().map(share).collect();
        let lease = cfg.mesh.leases.then(LeaseTable::new);

        let mut shards = Vec::with_capacity(n);
        for s in 0..n {
            let views = handles
                .iter()
                .map(|h| Box::new(SharedBackend::new(h.clone())) as Box<dyn ClusterBackend>);
            let controller = bringup::controller(
                &cfg,
                &c3,
                views,
                &service_addrs,
                templates.iter().cloned(),
                |builder| {
                    let builder = builder.emit_status_deltas();
                    match &lease {
                        Some(table) => builder.deploy_gate(table.handle(s)),
                        None => builder,
                    }
                },
            );
            let switch = bringup::seeded_switch(&cfg, &c3);
            shards.push(Shard { switch, controller });
        }

        let wakeup_armed = vec![None; n];
        let gossip_rng = SimRng::seed_from_u64(cfg.seed).stream("mesh-gossip");
        MeshSim {
            cfg,
            c3,
            shards,
            handles,
            lease,
            setup_end,
            service_addrs,
            gossip_rng,
            events: EventQueue::new(),
            in_flight: Vec::new(),
            records: Vec::new(),
            lost: 0,
            lost_tags: Vec::new(),
            delta_seq: 0,
            deltas_sent: 0,
            deltas_lost: 0,
            delta_deliveries: 0,
            staleness_ns_total: 0,
            convergence_ns_total: 0,
            converged_deltas: 0,
            pending_convergence: BTreeMap::new(),
            duplicates: BTreeMap::new(),
            wakeup_armed,
            last_event: SimTime::ZERO,
        }
    }

    /// The shared lease table, for inspection in tests.
    pub fn lease_table(&self) -> Option<&LeaseTable> {
        self.lease.as_ref()
    }

    /// Run a full trace through the mesh.
    pub fn run_trace(mut self, trace: &Trace) -> MeshRunResult {
        self.run_inner(trace);
        self.finish()
    }

    /// Like [`MeshSim::run_trace`], plus the mesh-coherence audit over the
    /// final state and the split-brain duplicates observed during the run.
    pub fn run_trace_audited(mut self, trace: &Trace) -> (MeshRunResult, Vec<Violation>) {
        self.run_inner(trace);
        let violations = self.audit();
        (self.finish(), violations)
    }

    fn run_inner(&mut self, trace: &Trace) {
        assert_eq!(
            trace.service_addrs, self.service_addrs,
            "mesh must be built with the trace's addresses"
        );
        let offset = (self.setup_end - SimTime::ZERO) + SimDuration::from_secs(5);
        let n = self.shards.len();
        // Handovers are pushed before the SYNs: at equal instants the
        // teardown runs before the arriving SYN, the mobility model's
        // boundary rule (a request at the handover instant already belongs
        // to the new ingress) and the ingress core's tie order.
        for (shard, h) in departures(&trace.handovers, n) {
            self.events.push(
                h.at + offset,
                Ev::Handover {
                    shard,
                    client: h.client,
                },
            );
        }
        self.in_flight.resize_with(trace.requests.len(), || None);
        for (idx, req) in trace.requests.iter().enumerate() {
            // Ingress assignment is a static function of the trace (home
            // shard advanced by the client's prior handovers), so both
            // engines agree on it by construction.
            let shard = ingress_at(&trace.handovers, req.client, req.at, n);
            let at = req.at + offset + self.c3.client_switch_latency(req.client);
            self.in_flight[idx] = Some(InFlight {
                shard,
                client: req.client,
                service: req.service,
            });
            self.events.push(at, Ev::Syn { tag: idx as u64 });
        }
        self.run_loop();
    }

    fn run_loop(&mut self) {
        while let Some((now, ev)) = self.events.pop() {
            self.last_event = now;
            for shard in &mut self.shards {
                shard.switch.sweep(now);
            }
            match ev {
                Ev::Syn { tag } => self.on_syn(now, tag),
                Ev::CtrlPacketIn {
                    shard,
                    packet,
                    buffer_id,
                    in_port,
                } => self.on_packet_in(now, shard, packet, buffer_id, in_port),
                Ev::Apply { shard, output } => self.on_apply(now, shard, output),
                Ev::Wakeup { shard } => self.on_wakeup(now, shard),
                Ev::Handover { shard, client } => self.on_handover(now, shard, client),
                Ev::Deliver { to, seq, delta } => self.on_deliver(now, to, seq, delta),
            }
            // Any event can produce status deltas (machine finalized on a
            // wakeup, scale-down in housekeeping, …) or change deployment
            // state: gossip, then scan for split-brain, then re-arm wakeups.
            self.pump_gossip(now);
            self.scan_duplicates(now);
            for s in 0..self.shards.len() {
                self.arm_wakeup(s, now);
            }
        }
    }

    fn on_syn(&mut self, now: SimTime, tag: u64) {
        let (shard, client, service) = {
            let fl = self.in_flight[tag as usize]
                .as_ref()
                .expect("SYN for untracked request tag");
            (fl.shard, fl.client, fl.service)
        };
        let src = SocketAddr::new(self.c3.client_ips[client], 40000 + service as u16);
        let packet = Packet::syn(src, self.service_addrs[service], tag);
        match self.shards[shard].switch.receive(now, packet) {
            PacketVerdict::Forward { out_port, .. } => self.complete(now, tag, out_port),
            PacketVerdict::PacketIn { buffer_id, packet } => {
                let in_port = self.c3.client_port(client);
                self.events.push(
                    now + CTRL_LATENCY,
                    Ev::CtrlPacketIn {
                        shard,
                        packet,
                        buffer_id,
                        in_port,
                    },
                );
            }
            PacketVerdict::Dropped => {
                self.lost += 1;
                self.lost_tags.push(tag);
                self.in_flight[tag as usize] = None;
            }
        }
    }

    fn on_packet_in(
        &mut self,
        now: SimTime,
        shard: usize,
        packet: Packet,
        buffer_id: BufferId,
        in_port: PortId,
    ) {
        let outputs = self.shards[shard]
            .controller
            .on_packet_in(now, packet, buffer_id, in_port);
        for output in outputs {
            let at = output.at() + CTRL_LATENCY;
            self.events.push(at, Ev::Apply { shard, output });
        }
    }

    fn on_apply(&mut self, now: SimTime, shard: usize, output: ControllerOutput) {
        match output {
            ControllerOutput::FlowMod { spec, .. } => {
                self.shards[shard].switch.flow_mod(now, spec);
            }
            ControllerOutput::ReleaseViaTable { buffer_id, .. } => {
                let tag = self.shards[shard]
                    .switch
                    .buffered_packet(buffer_id)
                    .map(|p| p.tag);
                match self.shards[shard]
                    .switch
                    .packet_out_via_table(now, buffer_id)
                {
                    Some(PacketVerdict::Forward { packet, out_port }) => {
                        self.complete(now, packet.tag, out_port);
                    }
                    Some(_) | None => {
                        self.lost += 1;
                        if let Some(tag) = tag {
                            self.lost_tags.push(tag);
                            self.in_flight[tag as usize] = None;
                        }
                    }
                }
            }
            ControllerOutput::DropBuffered { buffer_id, .. } => {
                if let Some(packet) = self.shards[shard].switch.discard_buffer(buffer_id) {
                    self.lost_tags.push(packet.tag);
                    self.in_flight[packet.tag as usize] = None;
                }
                self.lost += 1;
            }
            ControllerOutput::FlowDelete { matcher, .. } => {
                self.shards[shard]
                    .switch
                    .table
                    .delete_matching(now, &matcher);
            }
        }
    }

    fn on_handover(&mut self, now: SimTime, shard: usize, client: usize) {
        let client_ip = self.c3.client_ips[client];
        let outputs = self.shards[shard]
            .controller
            .on_client_handover(now, client_ip);
        for output in outputs {
            let at = output.at() + CTRL_LATENCY;
            self.events.push(at, Ev::Apply { shard, output });
        }
    }

    fn on_wakeup(&mut self, now: SimTime, shard: usize) {
        self.wakeup_armed[shard] = None;
        let outputs = self.shards[shard].controller.on_wakeup(now);
        for output in outputs {
            let at = output.at() + CTRL_LATENCY;
            self.events.push(at, Ev::Apply { shard, output });
        }
    }

    fn on_deliver(&mut self, now: SimTime, to: usize, seq: u64, delta: StatusDelta) {
        self.delta_deliveries += 1;
        self.staleness_ns_total += now.since(delta.origin).as_nanos() as u128;
        if let Some(p) = self.pending_convergence.get_mut(&seq) {
            p.latest = p.latest.max(now);
            p.remaining -= 1;
            if p.remaining == 0 {
                let p = self
                    .pending_convergence
                    .remove(&seq)
                    .expect("entry checked above");
                self.convergence_ns_total += p.latest.since(p.origin).as_nanos() as u128;
                self.converged_deltas += 1;
            }
        }
        self.shards[to].controller.apply_remote_delta(now, &delta);
    }

    /// Drain every shard's pending deltas and schedule their deliveries.
    /// Losses are pre-rolled *at send time*: the delivery event is pushed at
    /// its final (post-retransmission) instant, so the trace is a pure
    /// function of the seed regardless of loss.
    fn pump_gossip(&mut self, now: SimTime) {
        let n = self.shards.len();
        for s in 0..n {
            let deltas = self.shards[s].controller.drain_status_deltas();
            for delta in deltas {
                let seq = self.delta_seq;
                self.delta_seq += 1;
                self.pending_convergence.insert(
                    seq,
                    PendingDelta {
                        origin: delta.origin,
                        latest: SimTime::ZERO,
                        remaining: n - 1,
                    },
                );
                for t in 0..n {
                    if t == s {
                        continue;
                    }
                    self.deltas_sent += 1;
                    let mut at = now + self.cfg.mesh.link_latency;
                    let mut tries = 0;
                    while tries < MAX_RETRANSMITS && self.gossip_rng.chance(self.cfg.mesh.loss) {
                        self.deltas_lost += 1;
                        at += self.cfg.mesh.gossip_interval;
                        tries += 1;
                    }
                    self.events.push(at, Ev::Deliver { to: t, seq, delta });
                }
            }
        }
    }

    /// Record any `(service, cluster)` currently deploying on two or more
    /// shards — the split-brain duplicate the lease protocol prevents.
    fn scan_duplicates(&mut self, now: SimTime) {
        let mut holders: BTreeMap<(u32, usize), Vec<usize>> = BTreeMap::new();
        for (s, shard) in self.shards.iter().enumerate() {
            for (svc, cluster) in shard.controller.in_flight_deployments(now) {
                holders.entry((svc.0, cluster.0)).or_default().push(s);
            }
        }
        for (key, involved) in holders {
            if involved.len() >= 2 {
                self.duplicates.entry(key).or_default().extend(involved);
            }
        }
    }

    fn arm_wakeup(&mut self, shard: usize, now: SimTime) {
        if let Some(at) = self.shards[shard].controller.next_wakeup() {
            let at = at.max(now);
            if self.wakeup_armed[shard].is_none_or(|t| at < t) {
                self.events.push(at, Ev::Wakeup { shard });
                self.wakeup_armed[shard] = Some(at);
            }
        }
    }

    fn complete(&mut self, now: SimTime, tag: u64, out_port: PortId) {
        if let Some(fl) = self.in_flight.get_mut(tag as usize).and_then(Option::take) {
            self.records.push(MeshRecord {
                tag,
                shard: fl.shard,
                released: now,
                port: out_port.0,
            });
        }
    }

    /// The mesh-coherence audit: `edgeverify`'s static checks over the final
    /// state, plus the split-brain duplicates observed while the run was
    /// live (the final snapshot alone would miss them — machines drain).
    pub fn audit(&self) -> Vec<Violation> {
        let now = self.last_event;
        let verifier = Verifier::new();
        let mut view = MeshView {
            in_flight: Vec::with_capacity(self.shards.len()),
            redirects: Vec::with_capacity(self.shards.len()),
            ready: HashSet::new(),
        };
        for shard in &self.shards {
            view.in_flight.push(
                shard
                    .controller
                    .in_flight_deployments(now)
                    .into_iter()
                    .map(|(svc, c)| (svc.0, c.0))
                    .collect(),
            );
            view.redirects.push(
                shard
                    .controller
                    .memory()
                    .iter()
                    .filter(|f| !f.pending)
                    .filter_map(|f| f.cluster.map(|c| (f.service.0, c.0)))
                    .collect(),
            );
        }
        // Registration order is identical on every shard: any catalog names
        // the same services under the same ids.
        for service in self.shards[0].controller.catalog.services() {
            for (c, handle) in self.handles.iter().enumerate() {
                if handle
                    .borrow()
                    .status(now, &service.template.name)
                    .is_ready()
                {
                    view.ready.insert((service.id.0, c));
                }
            }
        }
        let mut out = verifier.check_mesh(&view);
        for (&(service, cluster), involved) in &self.duplicates {
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

    fn finish(mut self) -> MeshRunResult {
        self.lost_tags.sort_unstable();
        let handovers = self
            .shards
            .iter()
            .map(|s| s.controller.stats.handovers)
            .sum();
        let shard_stats: Vec<ShardSummary> = self
            .shards
            .iter()
            .map(|s| ShardSummary::of(&s.controller.stats, 0))
            .collect();
        let total = |f: fn(&ShardSummary) -> u64| shard_stats.iter().map(f).sum::<u64>();
        MeshRunResult {
            shards: self.shards.len(),
            threads: 1,
            leases: self.cfg.mesh.leases,
            completed: self.records.len() as u64,
            lost: self.lost,
            deployments: total(|s| s.deployments),
            duplicate_deployments: self.duplicates.len() as u64,
            duplicate_deployments_avoided: total(|s| s.lease_rejections),
            lease_revocations: 0,
            deltas_sent: self.deltas_sent,
            deltas_lost: self.deltas_lost,
            delta_deliveries: self.delta_deliveries,
            staleness_ns_total: self.staleness_ns_total,
            convergence_ns_total: self.convergence_ns_total,
            converged_deltas: self.converged_deltas,
            scale_downs: total(|s| s.scale_downs),
            removes: total(|s| s.removes),
            retargets: total(|s| s.retargets),
            handovers,
            windows: 0,
            barrier_stalls: 0,
            events: self.events.scheduled_total(),
            shard_stats,
            records: self.records,
            lost_tags: self.lost_tags,
            single: None,
        }
    }
}
