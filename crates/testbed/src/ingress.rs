//! The ingress shard core: one switch, one controller, one event queue.
//!
//! The paper's data path is a single pipeline — SYN → switch table miss →
//! PacketIn → Dispatcher decision → FlowMod + release — and this module is
//! its one implementation. Per request, only the **first packet** (the TCP
//! SYN) travels through the OpenFlow machinery — matching reality, where
//! subsequent packets hit the installed flow in the data plane. An
//! [`IngressShard`] is driven to a horizon ([`IngressShard::run_until`]):
//! once, to completion, by the single-controller [`crate::Testbed`]; window
//! by window by each shard of `edgemesh`'s PDES engine. What differs between
//! the engines is an [`Engine`]: what a released request becomes, and the
//! events only that engine has.
//!
//! **Event accounting is part of the contract.** The mesh trace hashes the
//! executed-event count and the window sequence, so the core counts exactly
//! what a one-event-per-iteration loop over an eagerly filled queue would:
//! a lazily fed SYN is one executed event and obeys `t < end` like a queued
//! one, [`IngressShard::next_time`] covers the next arrival, and every
//! executed event — PacketIns queued at one instant included, which run in
//! push order, one loop iteration each (`tests/same_instant.rs`) — is
//! followed by its own wakeup re-arm (DESIGN.md §5i).

use edgectl::controller::INGRESS;
use edgectl::{Controller, ControllerOutput};
use simcore::{EventQueue, SimDuration, SimTime};
use simnet::openflow::{BufferId, FlowId, FlowTable, PacketVerdict, PortId, Switch};
use simnet::{Packet, SocketAddr};

use crate::topology::C3Topology;

/// Latency of the SDN control channel (switch ↔ controller, both on the EGS).
pub const CTRL_LATENCY: SimDuration = SimDuration::from_micros(150);

/// Events of one ingress shard. Client SYN arrivals are *not* queued: they
/// are fed lazily from the sorted arrival index, so the future-event list
/// holds only the live control-plane horizon instead of the whole trace.
enum Ev<X> {
    /// A PacketIn reaches the controller.
    PacketIn(PacketIn),
    /// A controller output reaches the switch.
    Apply(ControllerOutput),
    /// The controller asked to be woken: deployment machine steps, retarget
    /// drains, FlowMemory housekeeping and predictor runs all ride on this
    /// one event (the controller's `next_wakeup`/`on_wakeup` surface).
    Wakeup,
    /// A mobile client hands over away from this ingress: tear down its
    /// flows so the next request re-runs the Dispatcher.
    Handover { client: u32 },
    /// An event only the driving engine knows.
    Engine(X),
}

type PacketIn = (Packet, BufferId, PortId);

/// A request whose SYN the switch just forwarded.
#[derive(Debug, Clone, Copy)]
pub struct Released {
    /// The request's lane index, as returned by [`IngressShard::admit`].
    pub idx: usize,
    pub client: usize,
    pub service: usize,
    /// When the request's SYN reached the switch, as passed to
    /// [`IngressShard::admit`].
    pub syn_at: SimTime,
    /// Deployment machines started before this request's PacketIn (0 on a
    /// table hit) — the lower bound of the window that attributes a
    /// deployment to the request.
    pub machines_before: u64,
    pub out_port: PortId,
}

/// What differs between the engines that drive an [`IngressShard`].
pub trait Engine<X> {
    /// The switch forwarded a request's SYN at `now`.
    fn released(&mut self, shard: &mut IngressShard<X>, now: SimTime, request: Released);

    /// One of the engine's own events is due.
    fn on_event(&mut self, shard: &mut IngressShard<X>, now: SimTime, event: X);

    /// A controller FlowMod landed in `table` as `id`.
    fn installed(&mut self, _table: &FlowTable, _id: FlowId) {}

    /// Runs after every executed event, before the wakeup re-arm.
    fn after_event(&mut self, _shard: &mut IngressShard<X>, _now: SimTime) {}
}

/// One ingress switch with its controller and everything between them.
pub struct IngressShard<X> {
    pub c3: C3Topology,
    pub switch: Switch,
    pub controller: Controller,
    /// Cloud addresses of the registered services (trace order).
    pub service_addrs: Vec<SocketAddr>,
    events: EventQueue<Ev<X>>,
    // --- Per-request state as SoA lanes (DESIGN.md §5i), indexed by the
    // dense index `admit` hands out. The packet path touches only the lanes
    // it needs — no boxed per-request struct, no hashing.
    req_service: Vec<u32>,
    req_client: Vec<u32>,
    req_syn_at: Vec<SimTime>,
    /// The controller's machine ordinal is a count of deployments started;
    /// `on_packet_in` checks it fits the lane.
    req_machines_before: Vec<u32>,
    req_live: Vec<bool>,
    /// Lazy SYN feed: lane indices by ascending `(req_syn_at, idx)`,
    /// `arrival_next` the cursor. Future SYNs never enter the event queue,
    /// so its depth tracks the live control-plane horizon instead of the
    /// whole trace.
    arrival_order: Vec<u32>,
    arrival_next: usize,
    /// Queue seq watermark captured by [`IngressShard::start`]: an entry
    /// with `seq >= runtime_seq_floor` was pushed *during* the run and loses
    /// same-instant ties against a fed SYN (an eager loop would have pushed
    /// all SYNs first), while setup-time pushes (handovers, crash ticks, the
    /// initial predictor wakeup) keep winning them.
    runtime_seq_floor: u64,
    /// Everything strictly before this instant has been executed; nothing
    /// may be scheduled behind it.
    horizon: SimTime,
    executed: u64,
    /// Instant of the most recently armed controller wakeup, cleared when
    /// *any* wakeup event fires (see [`IngressShard::arm_wakeup`]).
    wakeup_armed: Option<SimTime>,
    /// Reused buffer for controller outputs — the event loop's only `Vec`,
    /// drained and put back after every controller call.
    outputs_scratch: Vec<ControllerOutput>,
    lost: u64,
    lost_idx: Vec<u32>,
}

impl<X> IngressShard<X> {
    pub fn new(
        c3: C3Topology,
        switch: Switch,
        controller: Controller,
        service_addrs: Vec<SocketAddr>,
    ) -> IngressShard<X> {
        IngressShard {
            c3,
            switch,
            controller,
            service_addrs,
            events: EventQueue::new(),
            req_service: Vec::new(),
            req_client: Vec::new(),
            req_syn_at: Vec::new(),
            req_machines_before: Vec::new(),
            req_live: Vec::new(),
            arrival_order: Vec::new(),
            arrival_next: 0,
            runtime_seq_floor: 0,
            horizon: SimTime::ZERO,
            executed: 0,
            wakeup_armed: None,
            outputs_scratch: Vec::new(),
            lost: 0,
            lost_idx: Vec::new(),
        }
    }

    /// Pre-size every per-request structure for `n` more requests so the
    /// event loop itself never grows them.
    pub fn reserve(&mut self, n: usize) {
        self.req_service.reserve(n);
        self.req_client.reserve(n);
        self.req_syn_at.reserve(n);
        self.req_machines_before.reserve(n);
        self.req_live.reserve(n);
        self.arrival_order.reserve(n);
        // The queue holds only the live horizon (SYNs are fed lazily), but
        // seeding its payload lane skips the doubling ramp.
        self.events.reserve((n / 8).clamp(64, 65_536));
        // Flow rules are bounded by live client × service pairs (two rules
        // per redirect); buffers by concurrently held SYNs.
        let clients = self.c3.client_ips.len();
        self.switch.reserve(4 * clients, clients);
    }

    /// Admit a request whose SYN reaches the switch at `syn_at`; returns its
    /// lane index (dense, in admission order — the tag its packet carries).
    pub fn admit(&mut self, syn_at: SimTime, client: usize, service: usize) -> usize {
        let idx = self.req_live.len();
        self.req_service.push(service as u32);
        self.req_client.push(client as u32);
        self.req_syn_at.push(syn_at);
        self.req_machines_before.push(0);
        self.req_live.push(true);
        self.arrival_order.push(idx as u32);
        idx
    }

    /// Schedule one of the engine's own events.
    pub fn schedule(&mut self, at: SimTime, event: X) {
        self.push(at, Ev::Engine(event));
    }

    /// Schedule `client`'s handover away from this ingress. Pushed at setup
    /// time, so at equal instants the teardown runs before an arriving SYN —
    /// the mobility model's boundary rule (a request at the handover instant
    /// already belongs to the new ingress).
    pub fn schedule_handover(&mut self, at: SimTime, client: usize) {
        self.push(
            at,
            Ev::Handover {
                client: client as u32,
            },
        );
    }

    fn push(&mut self, at: SimTime, ev: Ev<X>) {
        // Scheduling into the executed past would mean a message arrived
        // inside a window that already ran: the lookahead was violated.
        assert!(
            at >= self.horizon,
            "ingress horizon violated: schedule at {at:?} behind horizon {:?}",
            self.horizon
        );
        self.events.push(at, ev);
    }

    /// Close the setup phase: index the admitted SYNs by switch-arrival
    /// time (per-client propagation delays differ, so that is not admission
    /// order; ties stay in admission order, an eager loop's push order) and
    /// mark everything scheduled so far as a setup-time push.
    pub fn start(&mut self) {
        let syn_at = &self.req_syn_at;
        self.arrival_order
            .sort_unstable_by_key(|&idx| (syn_at[idx as usize], idx));
        self.runtime_seq_floor = self.events.scheduled_total();
    }

    /// Ship controller outputs to the switch over the control channel. An
    /// output stamped before the horizon applies at the horizon: a lease
    /// revocation's abort fallout re-stamps waiters with their original
    /// decision times, which lie in a windowed clock's executed past. A run
    /// to completion never leaves horizon zero.
    pub fn push_outputs(&mut self, outputs: impl IntoIterator<Item = ControllerOutput>) {
        for output in outputs {
            let at = (output.at() + CTRL_LATENCY).max(self.horizon);
            self.events.push(at, Ev::Apply(output));
        }
    }

    /// Make sure a wakeup event is queued at (or before) the earliest instant
    /// the controller reports: push one when that instant undercuts the
    /// armed one. This does **not** keep a single event in flight. The
    /// superseded event stays queued; when it fires it clears `wakeup_armed`
    /// and the next call here arms again, so from then on two events fire at
    /// every due instant — a chain that never ends while a FlowMemory expiry
    /// lies ahead. Each extra firing is a no-op `on_wakeup` plus this re-arm,
    /// both O(1) in the controller's state (DESIGN.md §5i), and the mesh
    /// trace hashes the event count, so the chains are kept as they are here;
    /// removing them is ROADMAP's "shrinking `events_per_req`" item.
    pub fn arm_wakeup(&mut self, now: SimTime) {
        if let Some(at) = self.controller.next_wakeup() {
            let at = at.max(now);
            if self.wakeup_armed.is_none_or(|t| at < t) {
                self.events.push(at, Ev::Wakeup);
                self.wakeup_armed = Some(at);
            }
        }
    }

    /// Account request `idx` as lost (a request neither released nor in this
    /// ledger was blackholed).
    pub fn lose(&mut self, idx: usize) {
        self.lost += 1;
        self.lost_idx.push(idx as u32);
        self.req_live[idx] = false;
    }

    /// Earliest pending activity: the queue head or the next SYN arrival.
    pub fn next_time(&self) -> Option<SimTime> {
        match (self.events.peek_time(), self.next_arrival()) {
            (Some(q), Some(a)) => Some(q.min(a)),
            (q, a) => q.or(a),
        }
    }

    /// When the next lazily fed SYN reaches the switch.
    fn next_arrival(&self) -> Option<SimTime> {
        let idx = *self.arrival_order.get(self.arrival_next)?;
        Some(self.req_syn_at[idx as usize])
    }

    /// Everything strictly before this instant has run.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Events executed so far; a lazily fed SYN counts like a queued one.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// High-water mark of the future-event list.
    pub fn peak_queue_depth(&self) -> usize {
        self.events.peak_len()
    }

    /// Requests whose packet was dropped (deployment failed / flow raced).
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Lane indices of the lost requests that could be attributed.
    pub fn lost_idx(&self) -> &[u32] {
        &self.lost_idx
    }

    /// Execute every event strictly before `end` (`SimTime::FAR_FUTURE`: to
    /// completion; `end == horizon`: an empty probe), then advance the horizon
    /// to `end`. Returns the number of events executed.
    pub fn run_until<E: Engine<X>>(&mut self, end: SimTime, engine: &mut E) -> u64 {
        assert!(
            end >= self.horizon,
            "ingress horizon violated: window end {end:?} behind horizon {:?}",
            self.horizon
        );
        let before = self.executed;
        loop {
            // Pick the earlier of the next queued event and the next lazy
            // SYN arrival. A fed SYN behaves exactly like an eager loop's
            // pre-pushed event: it loses same-instant ties to setup-time
            // pushes (seq below the floor) and wins them against anything
            // pushed during the run.
            let arrival = self.next_arrival().filter(|&t| t < end);
            let queued = self.events.peek_time_seq().filter(|&(t, _)| t < end);
            let take_arrival = match (arrival, queued) {
                (Some(a), Some((qt, qs))) => a < qt || (a == qt && qs >= self.runtime_seq_floor),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            self.executed += 1;
            let now = if take_arrival {
                let idx = self.arrival_order[self.arrival_next];
                let now = self.req_syn_at[idx as usize];
                self.arrival_next += 1;
                self.sweep(now);
                self.on_syn(now, idx, engine);
                now
            } else {
                let (now, ev) = self.events.pop().expect("peeked a non-empty queue");
                self.sweep(now);
                match ev {
                    Ev::PacketIn(packet_in) => self.on_packet_in(now, packet_in),
                    Ev::Apply(output) => self.apply(now, output, engine),
                    Ev::Wakeup => self.on_wakeup(now),
                    Ev::Handover { client } => {
                        let ip = self.c3.client_ips[client as usize];
                        let outputs = self.controller.on_client_handover(now, ip);
                        self.push_outputs(outputs);
                    }
                    Ev::Engine(event) => engine.on_event(self, now, event),
                }
                now
            };
            self.after_event(now, engine);
        }
        self.horizon = end;
        self.executed - before
    }

    /// The lazy data-plane timeout sweep, skipped entirely while the switch
    /// reports nothing due — its expiry index is settled after every
    /// mutation, so the check is an O(1) peek.
    fn sweep(&mut self, now: SimTime) {
        if self.switch.next_expiry().is_some_and(|t| t <= now) {
            self.switch.sweep_discard(now);
        }
    }

    /// Every event can change when the controller next needs to run (a
    /// machine stepped, a flow was memorized, a crash landed), so re-arm
    /// from the authoritative `next_wakeup` after each one.
    fn after_event<E: Engine<X>>(&mut self, now: SimTime, engine: &mut E) {
        engine.after_event(self, now);
        self.arm_wakeup(now);
    }

    fn on_syn<E: Engine<X>>(&mut self, now: SimTime, idx: u32, engine: &mut E) {
        let i = idx as usize;
        debug_assert!(self.req_live[i], "SYN for untracked request");
        let client = self.req_client[i] as usize;
        let service = self.req_service[i] as usize;
        let src = SocketAddr::new(self.c3.client_ips[client], 40000 + service as u16);
        let packet = Packet::syn(src, self.service_addrs[service], u64::from(idx));
        match self.switch.receive(now, packet) {
            PacketVerdict::Forward { out_port, .. } => self.release(now, i, out_port, engine),
            PacketVerdict::PacketIn { buffer_id, packet } => {
                let in_port = self.c3.client_port(client);
                self.events.push(
                    now + CTRL_LATENCY,
                    Ev::PacketIn((packet, buffer_id, in_port)),
                );
            }
            PacketVerdict::Dropped => self.lose(i),
        }
    }

    fn release<E: Engine<X>>(
        &mut self,
        now: SimTime,
        idx: usize,
        out_port: PortId,
        engine: &mut E,
    ) {
        match self.req_live.get_mut(idx) {
            Some(live) if *live => *live = false,
            _ => return, // duplicate completion (cannot happen by construction)
        }
        let request = Released {
            idx,
            client: self.req_client[idx] as usize,
            service: self.req_service[idx] as usize,
            syn_at: self.req_syn_at[idx],
            machines_before: u64::from(self.req_machines_before[idx]),
            out_port,
        };
        engine.released(self, now, request);
    }

    fn on_packet_in(&mut self, now: SimTime, (packet, buffer_id, in_port): PacketIn) {
        let idx = packet.tag as usize;
        if self.req_live.get(idx).is_some_and(|&live| live) {
            self.req_machines_before[idx] = u32::try_from(self.controller.machines_started())
                .expect("fewer than 2^32 deployment machines per run");
        }
        let mut out = std::mem::take(&mut self.outputs_scratch);
        self.controller
            .on_packet_in_at_into(now, INGRESS, packet, buffer_id, in_port, &mut out);
        self.push_outputs(out.drain(..));
        self.outputs_scratch = out;
    }

    /// Deliver a due wakeup to the controller and ship its outputs.
    fn on_wakeup(&mut self, now: SimTime) {
        self.wakeup_armed = None;
        let mut out = std::mem::take(&mut self.outputs_scratch);
        self.controller.on_wakeup_into(now, &mut out);
        self.push_outputs(out.drain(..));
        self.outputs_scratch = out;
    }

    fn apply<E: Engine<X>>(&mut self, now: SimTime, output: ControllerOutput, engine: &mut E) {
        match output {
            ControllerOutput::FlowMod { spec, .. } => {
                let id = self.switch.flow_mod(now, spec);
                engine.installed(&self.switch.table, id);
            }
            ControllerOutput::ReleaseViaTable { buffer_id, .. } => {
                // Peeked first so a failed release can still be attributed.
                let tag = self.switch.buffered_packet(buffer_id).map(|p| p.tag);
                match self.switch.packet_out_via_table(now, buffer_id) {
                    Some(PacketVerdict::Forward { packet, out_port }) => {
                        self.release(now, packet.tag as usize, out_port, engine);
                    }
                    Some(_) | None => self.lose_buffered(tag),
                }
            }
            ControllerOutput::DropBuffered { buffer_id, .. } => {
                let tag = self.switch.discard_buffer(buffer_id).map(|p| p.tag);
                self.lose_buffered(tag);
            }
            ControllerOutput::FlowDelete { matcher, .. } => {
                self.switch.table.delete_matching(now, &matcher);
            }
        }
    }

    /// A buffered packet's release failed or the controller gave up on it.
    /// Counted even when the buffer was already gone and nothing can be
    /// attributed.
    fn lose_buffered(&mut self, tag: Option<u64>) {
        match tag {
            Some(tag) => self.lose(tag as usize),
            None => self.lost += 1,
        }
    }
}
