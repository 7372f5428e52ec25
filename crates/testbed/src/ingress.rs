//! The ingress shard core: the controller's switches, the controller and
//! one event queue.
//!
//! The paper's data path is a single pipeline — SYN → switch table miss →
//! PacketIn → Dispatcher decision → FlowMod + release — and this module is
//! its one implementation. Per request, only the **first packet** (the TCP
//! SYN) travels through the OpenFlow machinery — matching reality, where
//! subsequent packets hit the installed flow in the data plane. Three drivers
//! run an [`IngressShard`] up to an instant ([`IngressShard::run_until`]): the
//! [`crate::Testbed`] and [`crate::fabric`] once, to completion, and each
//! shard of `edgemesh`'s PDES engine window by window. A PacketIn names the
//! switch that missed and every controller output lands on the switch it
//! names; the testbed and the mesh are the one-switch case. What differs between the engines is an
//! [`Engine`]: which switch a trace request enters at (if at this shard),
//! what a released request becomes — served, or handed over a trunk
//! (`IngressShard::forward`) — and the events only that engine has.
//!
//! **Per-request state lives only while a SYN is buffered.** The shard reads
//! its SYNs from the time-sorted trace through a cursor and a small reorder
//! heap (`SynFeed`), so nothing is held for a request before its SYN
//! reaches its switch. A SYN that hits the table is released at once and
//! holds nothing. One that misses takes a lane from a free-listed in-flight
//! slab — the slot is the tag its packet carries — and gives it back when
//! the packet is released or lost. [`Released`] and
//! [`IngressShard::lost_idx`] name requests by trace position (DESIGN.md
//! §5i).
//!
//! **Event accounting is part of the contract.** The mesh trace hashes the
//! executed-event count and the window sequence, so the core counts exactly
//! what a one-event-per-iteration loop over an eagerly filled queue would:
//! a lazily fed SYN is one executed event and obeys `t < end` like a queued
//! one, [`IngressShard::next_time`] covers the next arrival, and every
//! executed event — PacketIns queued at one instant included, which run in
//! push order, one loop iteration each (`tests/same_instant.rs`) — is
//! followed by its own wakeup re-arm. The one exception is exact too: the
//! duplicate wakeups of a re-arm chain are queued as one entry with a copy
//! count ([`IngressShard::arm_wakeup`]), and the copies that find nothing
//! due are counted, each with its re-arm, instead of run (DESIGN.md §5i).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use edgectl::{Controller, ControllerOutput, SwitchId};
use simcore::{EventQueue, SimDuration, SimTime};
use simnet::openflow::{BufferId, FlowId, FlowTable, PacketVerdict, PortId, Switch};
use simnet::{IpAddr, Packet, SocketAddr};
use workload::TraceRequest;

use crate::topology::C3Topology;

/// Latency of the SDN control channel (switch ↔ controller, both on the EGS).
const CTRL_LATENCY: SimDuration = SimDuration::from_micros(150);

/// Events of one ingress shard. Client SYN arrivals are *not* queued: they
/// are fed lazily from the trace ([`SynFeed`]), so the future-event list
/// holds only the live control-plane horizon instead of the whole trace.
enum Ev<X> {
    /// A PacketIn reaches the controller.
    PacketIn(PacketIn),
    /// A controller output reaches the switch it names.
    Apply(ControllerOutput),
    /// A forwarded request's packet reaches the next switch over a trunk.
    Transit(Released),
    /// The controller asked to be woken: deployment machine steps, retarget
    /// drains, FlowMemory housekeeping and predictor runs all ride on this
    /// one event (the controller's `next_wakeup`/`on_wakeup` surface). The
    /// count is how many wakeups the entry stands for: copies due back to
    /// back at one instant ([`IngressShard::arm_wakeup`]).
    Wakeup(u64),
    /// A mobile client hands over away from this ingress: tear down its
    /// flows so the next request re-runs the Dispatcher.
    Handover { client: u32 },
    /// An event only the driving engine knows.
    Engine(X),
}

/// The switch that missed, the packet, its buffer and its in-port.
type PacketIn = (SwitchId, Packet, BufferId, PortId);

/// A request whose packet a switch just forwarded.
#[derive(Debug, Clone, Copy)]
pub struct Released {
    /// The request's position in the trace.
    pub idx: usize,
    pub client: usize,
    pub service: usize,
    /// When the request's SYN reached its ingress switch.
    pub syn_at: SimTime,
    /// Deployment machines started before this request's PacketIn (0 on a
    /// table hit) — the lower bound of the window that attributes a
    /// deployment to the request.
    pub machines_before: u64,
    /// The switch that forwarded it, the packet as it left and the port.
    pub switch: SwitchId,
    pub packet: Packet,
    pub out_port: PortId,
    /// Trunk hops since the SYN arrived or the controller last released it.
    pub hops: u8,
}

/// Where the clients attach to the switches: what the core reads of a
/// topology to inject a client's SYN.
pub trait Access {
    /// The source address of a client's packets.
    fn client_ip(&self, client: usize) -> IpAddr;
    /// The port a client's packets enter its switch on.
    fn client_port(&self, client: usize) -> PortId;
    /// One-way latency client → switch of every client, in client order.
    fn client_latencies(&self) -> &[SimDuration];
}

/// What differs between the engines that drive an [`IngressShard`].
pub trait Engine<X, A = C3Topology> {
    /// The switch trace request `request` enters the fabric at, or `None`
    /// if another shard feeds it.
    fn ingress(&self, request: &TraceRequest) -> Option<SwitchId>;

    /// A switch forwarded a request's packet at `now`.
    fn released(&mut self, shard: &mut IngressShard<X, A>, now: SimTime, request: Released);

    /// One of the engine's own events is due.
    fn on_event(&mut self, shard: &mut IngressShard<X, A>, now: SimTime, event: X);

    /// A controller FlowMod landed in `table` as `id`.
    fn installed(&mut self, _table: &FlowTable, _id: FlowId) {}

    /// Runs after every executed event, before the wakeup re-arm.
    ///
    /// It must be idempotent at one instant when nothing ran in between: the
    /// core calls it once for a wakeup entry whose copies it counts without
    /// running, where running them would have called it once per copy, back
    /// to back ([`IngressShard::run_until`]). The mesh's delta drain and the
    /// testbed's audit stamp both are.
    fn after_event(&mut self, _shard: &mut IngressShard<X, A>, _now: SimTime) {}
}

/// The lazy SYN feed: a cursor over the time-sorted trace plus a reorder
/// heap. A SYN reaches its switch at `at + offset + access latency`, and
/// access latencies differ per client, so switch-arrival order is not trace
/// order. But every access latency is at least `min_access`: once the
/// cursor's earliest possible arrival `at + offset + min_access` lies past
/// the heap's top, no request at or beyond the cursor can arrive before it.
/// So the feed yields requests by ascending `(arrival, trace position)` —
/// the order sorting the whole trace up front gives — while holding only
/// the requests between the heap's top and the cursor.
#[derive(Debug, Default)]
struct SynFeed {
    /// Instant the trace's t = 0 maps to.
    offset: SimDuration,
    /// Smallest client access latency.
    min_access: SimDuration,
    /// Trace position of the next request to read.
    cursor: usize,
    /// Read and served but not yet fed: `(arrival, trace position, ingress
    /// switch)`.
    heap: BinaryHeap<Reverse<(SimTime, u32, u32)>>,
}

impl SynFeed {
    fn new(offset: SimDuration, access: &[SimDuration]) -> SynFeed {
        SynFeed {
            offset,
            min_access: access.iter().copied().min().unwrap_or(SimDuration::ZERO),
            ..SynFeed::default()
        }
    }

    /// Read requests until the heap's top is the earliest arrival of every
    /// request not yet fed; `ingress` names each one's switch and drops the
    /// ones another shard feeds.
    fn fill(
        &mut self,
        requests: &[TraceRequest],
        access: &[SimDuration],
        mut ingress: impl FnMut(&TraceRequest) -> Option<SwitchId>,
    ) {
        while let Some(request) = requests.get(self.cursor) {
            let earliest = request.at + self.offset + self.min_access;
            if self
                .heap
                .peek()
                .is_some_and(|&Reverse((top, ..))| earliest > top)
            {
                break;
            }
            assert!(
                self.cursor == 0 || requests[self.cursor - 1].at <= request.at,
                "trace requests must be sorted by time"
            );
            let pos = u32::try_from(self.cursor)
                .ok()
                .filter(|&pos| pos != FREE)
                .expect("fewer than 2^32 - 1 requests per trace");
            self.cursor += 1;
            if let Some(switch) = ingress(request) {
                let arrival = request.at + self.offset + access[request.client];
                self.heap.push(Reverse((arrival, pos, switch.0 as u32)));
            }
        }
    }

    /// When the next request reaches its switch (valid after a `fill`).
    fn peek(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((at, ..))| at)
    }

    /// Take the next request: its arrival, trace position and switch.
    fn pop(&mut self) -> Option<(SimTime, u32, SwitchId)> {
        self.heap
            .pop()
            .map(|Reverse((at, pos, switch))| (at, pos, SwitchId(switch as usize)))
    }
}

/// What the shard holds for a request whose SYN is buffered at a switch.
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// Trace position; [`FREE`] while the slot is on the free list.
    pos: u32,
    service: u32,
    client: u32,
    /// The controller's machine ordinal is a count of deployments started;
    /// `on_packet_in` checks it fits the lane.
    machines_before: u32,
    syn_at: SimTime,
}

/// [`Lane::pos`] of a free slot.
const FREE: u32 = u32::MAX;

/// The controller's ingress switches with the controller and everything
/// between them.
pub struct IngressShard<X, A = C3Topology> {
    /// How the clients reach the switches (the C³ topology for the testbed
    /// and the mesh).
    pub c3: A,
    /// Indexed by [`SwitchId`].
    pub switches: Vec<Switch>,
    pub controller: Controller,
    /// Cloud addresses of the registered services (trace order).
    pub service_addrs: Vec<SocketAddr>,
    events: EventQueue<Ev<X>>,
    /// Where the SYNs come from; set up by [`IngressShard::start`].
    feed: SynFeed,
    /// The in-flight slab: one lane per request whose SYN is buffered at a
    /// switch, indexed by the tag its packet carries. Its length is the
    /// most requests ever buffered at once.
    lanes: Vec<Lane>,
    /// Free slots of `lanes`, the last freed reused first.
    free: Vec<u32>,
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

impl<X, A: Access> IngressShard<X, A> {
    pub fn new(
        c3: A,
        switches: Vec<Switch>,
        controller: Controller,
        service_addrs: Vec<SocketAddr>,
    ) -> IngressShard<X, A> {
        IngressShard {
            c3,
            switches,
            controller,
            service_addrs,
            events: EventQueue::new(),
            feed: SynFeed::default(),
            lanes: Vec::new(),
            free: Vec::new(),
            runtime_seq_floor: 0,
            horizon: SimTime::ZERO,
            executed: 0,
            wakeup_armed: None,
            outputs_scratch: Vec::new(),
            lost: 0,
            lost_idx: Vec::new(),
        }
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
        let client = client as u32;
        self.push(at, Ev::Handover { client });
    }

    /// Hand a released request over a trunk: its packet reaches `switch`'s
    /// table at `at`. The request keeps its trace position and `syn_at`,
    /// and its `hops` grows by one.
    pub(crate) fn forward(&mut self, at: SimTime, switch: SwitchId, mut request: Released) {
        request.switch = switch;
        request.hops += 1;
        self.push(at, Ev::Transit(request));
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

    /// Close the setup phase: the trace's t = 0 maps to `offset`, and
    /// everything scheduled so far is a setup-time push.
    pub fn start(&mut self, offset: SimDuration) {
        self.feed = SynFeed::new(offset, self.c3.client_latencies());
        self.runtime_seq_floor = self.events.scheduled_total();
        // Flow rules are bounded by live client × service pairs (two rules
        // per redirect); buffers by concurrently held SYNs.
        let clients = self.c3.client_latencies().len();
        for switch in &mut self.switches {
            switch.reserve(4 * clients, clients);
        }
    }

    /// Ship controller outputs to their switches over the control channel.
    /// An output stamped before the horizon applies at the horizon: a lease
    /// revocation's abort fallout re-stamps waiters with their original
    /// decision times, which lie in a windowed clock's executed past. A run
    /// that closes no window keeps horizon zero: there the stamp holds.
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
    /// every due instant, and one more after each undercut — a chain that
    /// never ends while a FlowMemory expiry lies ahead. The mesh trace
    /// hashes the executed-event count, so every copy still counts as an
    /// event; cancelling the superseded event is ROADMAP item 4(a), which
    /// waits on the hash leaving the count (item 2).
    ///
    /// Until then the chain is stored run-length encoded. A wakeup armed
    /// right behind a queued runtime wakeup at the same instant — the
    /// queue's most recent push, so nothing can pop between the two — adds
    /// one copy to it instead of a queue entry. A setup-time wakeup (seq
    /// below `runtime_seq_floor`) is never grown: a SYN fed at its instant
    /// runs between it and any runtime push.
    pub fn arm_wakeup(&mut self, now: SimTime) {
        self.arm_wakeups(now, 1);
    }

    /// [`IngressShard::arm_wakeup`] for `copies` wakeups that each found
    /// nothing due at `now`: each would have re-armed one copy, back to
    /// back.
    fn arm_wakeups(&mut self, now: SimTime, copies: u64) {
        if let Some(at) = self.controller.next_wakeup() {
            let at = at.max(now);
            if self.wakeup_armed.is_none_or(|t| at < t) {
                self.wakeup_armed = Some(at);
                let runtime = self.events.scheduled_total() > self.runtime_seq_floor;
                match self.events.last_push_mut(at) {
                    Some(Ev::Wakeup(queued)) if runtime => *queued += copies,
                    _ => {
                        self.events.push(at, Ev::Wakeup(copies));
                    }
                }
            }
        }
    }

    /// Account the request at trace position `idx` as lost (a request
    /// neither released nor in this ledger was blackholed).
    pub(crate) fn lose(&mut self, idx: usize) {
        self.lost += 1;
        self.lost_idx.push(idx as u32);
    }

    /// Earliest pending activity: the queue head or the next SYN arrival
    /// (the feed is read ahead by every [`IngressShard::run_until`]).
    pub fn next_time(&self) -> Option<SimTime> {
        match (self.events.peek_time(), self.feed.peek()) {
            (Some(q), Some(a)) => Some(q.min(a)),
            (q, a) => q.or(a),
        }
    }

    /// Everything strictly before this instant has run.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Close a window: nothing may be scheduled before `end` from now on.
    pub fn close_window(&mut self, end: SimTime) {
        self.horizon = end;
    }

    /// Events executed so far; a lazily fed SYN counts like a queued one.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// High-water mark of the future-event list.
    pub(crate) fn peak_queue_depth(&self) -> usize {
        self.events.peak_len()
    }

    /// Requests whose packet was dropped (deployment failed / flow raced).
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Trace positions of the lost requests that could be attributed.
    pub fn lost_idx(&self) -> &[u32] {
        &self.lost_idx
    }

    /// High-water mark of the in-flight slab: the most requests buffered at
    /// the switches at once.
    pub(crate) fn peak_in_flight(&self) -> usize {
        self.lanes.len()
    }

    /// Execute every event strictly before `end` (`SimTime::FAR_FUTURE`: to
    /// completion; `end == horizon`: an empty probe); only the windowed
    /// engine moves the horizon, by closing windows. `requests` is the
    /// time-sorted trace, the same on every call. Returns the events executed.
    ///
    /// A wakeup entry of several copies runs one copy at a time while the
    /// controller has work due. Once it has none, each copy would be a no-op
    /// `on_wakeup` — after `on_wakeup(now)`, `next_wakeup()` is `None` or
    /// later than `now` (DESIGN.md §5e) — followed by its `after_event` and
    /// a re-arm at the same instant, with nothing else running in between.
    /// So the entry pops whole: every copy is counted as executed, and one
    /// `on_wakeup`, one `after_event` and one re-arm carrying all the copies
    /// run.
    pub fn run_until<E: Engine<X, A>>(
        &mut self,
        end: SimTime,
        requests: &[TraceRequest],
        engine: &mut E,
    ) -> u64 {
        assert!(
            end >= self.horizon,
            "ingress horizon violated: window end {end:?} behind horizon {:?}",
            self.horizon
        );
        let before = self.executed;
        self.fill(requests, engine);
        loop {
            // Pick the earlier of the next queued event and the next lazy
            // SYN arrival. A fed SYN behaves exactly like an eager loop's
            // pre-pushed event: it loses same-instant ties to setup-time
            // pushes (seq below the floor) and wins them against anything
            // pushed during the run.
            let arrival = self.feed.peek().filter(|&t| t < end);
            let queued = self.events.peek_time_seq().filter(|&(t, _)| t < end);
            let take_arrival = match (arrival, queued) {
                (Some(a), Some((qt, qs))) => a < qt || (a == qt && qs >= self.runtime_seq_floor),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            self.executed += 1;
            let (now, copies) = if take_arrival {
                let (now, pos, switch) = self.feed.pop().expect("peeked a pending arrival");
                self.fill(requests, engine);
                self.sweep(now);
                // A client's SYN reaches its ingress switch.
                let TraceRequest {
                    client, service, ..
                } = requests[pos as usize];
                let src = SocketAddr::new(self.c3.client_ip(client), 40000 + service as u16);
                let syn = Released {
                    idx: pos as usize,
                    client,
                    service,
                    syn_at: now,
                    machines_before: 0,
                    switch,
                    packet: Packet::syn(src, self.service_addrs[service], 0),
                    out_port: PortId(0),
                    hops: 0,
                };
                self.receive(now, syn, engine);
                (now, 1)
            } else {
                let (now, ev) = self.pop_event();
                self.sweep(now);
                let mut copies = 1;
                match ev {
                    Ev::PacketIn(packet_in) => self.on_packet_in(now, packet_in),
                    Ev::Apply(output) => self.apply(now, output, engine),
                    Ev::Transit(request) => self.receive(now, request, engine),
                    Ev::Wakeup(n) => {
                        copies = n;
                        self.on_wakeup(now, copies);
                    }
                    Ev::Handover { client } => {
                        let ip = self.c3.client_ip(client as usize);
                        let outputs = self.controller.on_client_handover(now, ip);
                        self.push_outputs(outputs);
                    }
                    Ev::Engine(event) => engine.on_event(self, now, event),
                }
                (now, copies)
            };
            self.after_event(now, copies, engine);
        }
        self.executed - before
    }

    /// Pop the queue head. A wakeup entry of several copies gives up one
    /// copy in place while the controller has work due: that copy runs, and
    /// the rest keep the entry's `(time, seq)` place in line, so an output
    /// stamped before it still lands between the copies.
    fn pop_event(&mut self) -> (SimTime, Ev<X>) {
        if let Some((now, Ev::Wakeup(copies))) = self.events.peek_mut() {
            if *copies > 1 && self.controller.next_wakeup().is_some_and(|t| t <= now) {
                *copies -= 1;
                return (now, Ev::Wakeup(1));
            }
        }
        self.events.pop().expect("peeked a non-empty queue")
    }

    /// Read the trace until the feed's head is the next arrival.
    fn fill<E: Engine<X, A>>(&mut self, requests: &[TraceRequest], engine: &E) {
        self.feed
            .fill(requests, self.c3.client_latencies(), |r| engine.ingress(r));
    }

    /// The lazy data-plane timeout sweep of every switch, skipped entirely
    /// while a switch reports nothing due — its expiry index is settled
    /// after every mutation, so the check is an O(1) peek.
    fn sweep(&mut self, now: SimTime) {
        for switch in &mut self.switches {
            if switch.next_expiry().is_some_and(|t| t <= now) {
                switch.sweep_discard(now);
            }
        }
    }

    /// Every event can change when the controller next needs to run (a
    /// machine stepped, a flow was memorized, a crash landed), so re-arm
    /// from the authoritative `next_wakeup` after each one — `copies` times
    /// after a wakeup entry counted whole.
    fn after_event<E: Engine<X, A>>(&mut self, now: SimTime, copies: u64, engine: &mut E) {
        engine.after_event(self, now);
        self.arm_wakeups(now, copies);
    }

    /// `request`'s packet reaches `request.switch`: a table hit releases it
    /// to the engine, a miss buffers it in a lane and sends a PacketIn.
    fn receive<E: Engine<X, A>>(&mut self, now: SimTime, mut request: Released, engine: &mut E) {
        // The packet is tagged with the slot a miss will take.
        let slot = self.free.last().copied().unwrap_or(self.lanes.len() as u32);
        request.packet.tag = u64::from(slot);
        match self.switches[request.switch.0].receive(now, request.packet) {
            PacketVerdict::Forward { packet, out_port } => {
                let request = Released {
                    packet,
                    out_port,
                    ..request
                };
                engine.released(self, now, request);
            }
            PacketVerdict::PacketIn { buffer_id, packet } => {
                let lane = Lane {
                    pos: request.idx as u32,
                    service: request.service as u32,
                    client: request.client as u32,
                    machines_before: 0,
                    syn_at: request.syn_at,
                };
                match self.free.pop() {
                    Some(free) => self.lanes[free as usize] = lane,
                    None => self.lanes.push(lane),
                }
                let in_port = self.c3.client_port(request.client);
                self.events.push(
                    now + CTRL_LATENCY,
                    Ev::PacketIn((request.switch, packet, buffer_id, in_port)),
                );
            }
            PacketVerdict::Dropped => self.lose(request.idx),
        }
    }

    /// Free the in-flight lane `tag` names and return what it held; `None`
    /// if the slot is already free.
    fn take_lane(&mut self, tag: u64) -> Option<Lane> {
        let slot = u32::try_from(tag).ok()?;
        let lane = self
            .lanes
            .get_mut(slot as usize)
            .filter(|lane| lane.pos != FREE)?;
        let taken = *lane;
        lane.pos = FREE;
        self.free.push(slot);
        Some(taken)
    }

    fn on_packet_in(&mut self, now: SimTime, (switch, packet, buffer_id, in_port): PacketIn) {
        let lane = self
            .lanes
            .get_mut(packet.tag as usize)
            .filter(|lane| lane.pos != FREE);
        if let Some(lane) = lane {
            lane.machines_before = u32::try_from(self.controller.machines_started())
                .expect("fewer than 2^32 deployment machines per run");
        }
        let mut out = std::mem::take(&mut self.outputs_scratch);
        self.controller
            .on_packet_in_at_into(now, switch, packet, buffer_id, in_port, &mut out);
        self.push_outputs(out.drain(..));
        self.outputs_scratch = out;
    }

    /// Deliver a due wakeup to the controller and ship its outputs. An entry
    /// of `copies > 1` pops whole only when nothing is due
    /// ([`IngressShard::pop_event`]), so the copies after the first are
    /// counted, not run; debug builds run one more and check it does
    /// nothing.
    fn on_wakeup(&mut self, now: SimTime, copies: u64) {
        self.wakeup_armed = None;
        let mut out = std::mem::take(&mut self.outputs_scratch);
        self.controller.on_wakeup_into(now, &mut out);
        if copies > 1 {
            self.executed += copies - 1;
            if cfg!(debug_assertions) {
                let next = self.controller.next_wakeup();
                self.controller.on_wakeup_into(now, &mut out);
                debug_assert!(
                    out.is_empty() && self.controller.next_wakeup() == next,
                    "a wakeup counted without running had work due at {now:?}"
                );
            }
        }
        self.push_outputs(out.drain(..));
        self.outputs_scratch = out;
    }

    /// A controller output reaches the switch it names.
    fn apply<E: Engine<X, A>>(&mut self, now: SimTime, output: ControllerOutput, engine: &mut E) {
        let sw = output.switch();
        let switch = &mut self.switches[sw.0];
        match output {
            ControllerOutput::FlowMod { spec, .. } => {
                let id = switch.flow_mod(now, spec);
                engine.installed(&switch.table, id);
            }
            ControllerOutput::ReleaseViaTable { buffer_id, .. } => {
                // Peeked first so a failed release can still be attributed.
                let tag = switch.buffered_packet(buffer_id).map(|p| p.tag);
                match switch.packet_out_via_table(now, buffer_id) {
                    Some(PacketVerdict::Forward { packet, out_port }) => {
                        // `None`: a duplicate completion (cannot happen by
                        // construction).
                        if let Some(lane) = self.take_lane(packet.tag) {
                            let request = Released {
                                idx: lane.pos as usize,
                                client: lane.client as usize,
                                service: lane.service as usize,
                                syn_at: lane.syn_at,
                                machines_before: u64::from(lane.machines_before),
                                switch: sw,
                                packet,
                                out_port,
                                hops: 0,
                            };
                            engine.released(self, now, request);
                        }
                    }
                    Some(_) | None => self.lose_buffered(tag),
                }
            }
            ControllerOutput::DropBuffered { buffer_id, .. } => {
                let tag = switch.discard_buffer(buffer_id).map(|p| p.tag);
                self.lose_buffered(tag);
            }
            ControllerOutput::FlowDelete { matcher, .. } => {
                switch.table.delete_matching(&matcher);
            }
        }
    }

    /// A buffered packet's release failed or the controller gave up on it.
    /// Counted even when the buffer was already gone and nothing can be
    /// attributed.
    fn lose_buffered(&mut self, tag: Option<u64>) {
        match tag.and_then(|tag| self.take_lane(tag)) {
            Some(lane) => self.lose(lane.pos as usize),
            None => self.lost += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bringup, ScenarioConfig};
    use proptest::prelude::*;

    /// Logs the in-flight slab's high-water mark after every event: it
    /// steps from 0 to 1 at the event that buffers the one SYN.
    #[derive(Default)]
    struct InFlightLog(Vec<usize>);

    impl Engine<()> for InFlightLog {
        fn ingress(&self, _: &TraceRequest) -> Option<SwitchId> {
            Some(SwitchId(0))
        }
        fn released(&mut self, _: &mut IngressShard<()>, _: SimTime, _: Released) {}
        fn on_event(&mut self, _: &mut IngressShard<()>, _: SimTime, _: ()) {}
        fn after_event(&mut self, shard: &mut IngressShard<()>, _: SimTime) {
            self.0.push(shard.peak_in_flight());
        }
    }

    /// A wakeup armed at setup time wins a same-instant tie against a fed
    /// SYN and a runtime one loses it, so a runtime copy armed right behind
    /// a setup-time wakeup is an entry of its own, and the SYN runs between
    /// the two.
    #[test]
    fn a_setup_time_wakeup_is_never_grown_by_a_runtime_copy() {
        let cfg = ScenarioConfig::default();
        let c3 = bringup::topology(&cfg);
        let addrs = vec![SocketAddr::new(IpAddr::new(203, 0, 113, 1), 80)];
        let controller = bringup::controller(
            &cfg,
            &c3,
            bringup::site_backends(&cfg, &c3),
            &addrs,
            bringup::service_templates(&cfg, 1),
            |builder| builder,
        );
        let switch = bringup::seeded_switch(&cfg, &c3);
        let mut shard: IngressShard<()> = IngressShard::new(c3, vec![switch], controller, addrs);

        // The controller's one wakeup falls at the instant the one SYN
        // reaches the switch.
        let request = TraceRequest {
            at: SimTime::ZERO + SimDuration::from_secs(1),
            service: 0,
            client: 0,
        };
        let t = request.at + shard.c3.client_latencies()[0];
        let tick = SimDuration::from_secs(1);
        shard.controller.set_predict_schedule(t, tick, t, tick);
        shard.arm_wakeup(SimTime::ZERO);
        shard.start(SimDuration::ZERO);
        // Re-armed at runtime, as after a superseded copy fired.
        shard.wakeup_armed = None;
        shard.arm_wakeup(SimTime::ZERO);
        assert_eq!(shard.events.len(), 2, "the runtime copy is not merged");

        let mut log = InFlightLog::default();
        let executed = shard.run_until(t + SimDuration::from_nanos(1), &[request], &mut log);
        assert_eq!(executed, 3);
        assert_eq!(log.0, [0, 1, 1], "setup-time wakeup, SYN, runtime wakeup");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The feed yields the requests a shard serves, each with its
        /// ingress switch, in exactly the order of sorting them all up front
        /// by `(switch arrival, trace position)`. Instants and latencies are
        /// drawn from small ranges, so requests share `at` values and
        /// clients with different latencies share arrival instants.
        #[test]
        fn feed_yields_the_sorted_order(
            latencies in prop::collection::vec(0u64..4, 1..6),
            mut draws in prop::collection::vec((0u64..12, 0usize..8, any::<bool>()), 0..64),
            offset in 0u64..3,
        ) {
            draws.sort_by_key(|&(at, ..)| at);
            let access: Vec<SimDuration> =
                latencies.iter().map(|&l| SimDuration::from_micros(l)).collect();
            // The feed never reads `service`: it marks the served requests,
            // which enter at the switch numbered like their client.
            let requests: Vec<TraceRequest> = draws
                .iter()
                .map(|&(at, client, served)| TraceRequest {
                    at: SimTime::ZERO + SimDuration::from_micros(at),
                    service: usize::from(served),
                    client: client % access.len(),
                })
                .collect();
            let ingress = |r: &TraceRequest| (r.service == 1).then_some(SwitchId(r.client));
            let offset = SimDuration::from_micros(offset);

            let mut expected: Vec<(SimTime, u32, SwitchId)> = requests
                .iter()
                .enumerate()
                .filter_map(|(pos, r)| {
                    let arrival = r.at + offset + access[r.client];
                    ingress(r).map(|switch| (arrival, pos as u32, switch))
                })
                .collect();
            expected.sort_unstable();

            let mut feed = SynFeed::new(offset, &access);
            let mut fed = Vec::new();
            feed.fill(&requests, &access, ingress);
            while let Some(at) = feed.peek() {
                let next = feed.pop().unwrap();
                prop_assert_eq!(next.0, at);
                fed.push(next);
                feed.fill(&requests, &access, ingress);
            }
            prop_assert_eq!(fed, expected);
        }
    }
}
