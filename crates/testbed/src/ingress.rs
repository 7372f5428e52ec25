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
//! the engines is an [`Engine`]: which trace requests enter at this shard,
//! what a released request becomes, and the events only that engine has.
//!
//! **Per-request state lives only while a SYN is buffered.** The shard reads
//! its SYNs from the time-sorted trace through a cursor and a small reorder
//! heap (`SynFeed`), so nothing is held for a request before its SYN
//! reaches the switch. A SYN that hits the table is released at once and
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
//! followed by its own wakeup re-arm (DESIGN.md §5i).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use edgectl::controller::INGRESS;
use edgectl::{Controller, ControllerOutput};
use simcore::{EventQueue, SimDuration, SimTime};
use simnet::openflow::{BufferId, FlowId, FlowTable, PacketVerdict, PortId, Switch};
use simnet::{Packet, SocketAddr};
use workload::TraceRequest;

use crate::topology::C3Topology;

/// Latency of the SDN control channel (switch ↔ controller, both on the EGS).
pub const CTRL_LATENCY: SimDuration = SimDuration::from_micros(150);

/// Events of one ingress shard. Client SYN arrivals are *not* queued: they
/// are fed lazily from the trace ([`SynFeed`]), so the future-event list
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
    /// The request's position in the trace.
    pub idx: usize,
    pub client: usize,
    pub service: usize,
    /// When the request's SYN reached the switch.
    pub syn_at: SimTime,
    /// Deployment machines started before this request's PacketIn (0 on a
    /// table hit) — the lower bound of the window that attributes a
    /// deployment to the request.
    pub machines_before: u64,
    pub out_port: PortId,
}

/// What differs between the engines that drive an [`IngressShard`].
pub trait Engine<X> {
    /// Whether trace request `request` enters the fabric at this shard
    /// (every one does under a single controller).
    fn serves(&self, _request: &TraceRequest) -> bool {
        true
    }

    /// The switch forwarded a request's SYN at `now`.
    fn released(&mut self, shard: &mut IngressShard<X>, now: SimTime, request: Released);

    /// One of the engine's own events is due.
    fn on_event(&mut self, shard: &mut IngressShard<X>, now: SimTime, event: X);

    /// A controller FlowMod landed in `table` as `id`.
    fn installed(&mut self, _table: &FlowTable, _id: FlowId) {}

    /// Runs after every executed event, before the wakeup re-arm.
    fn after_event(&mut self, _shard: &mut IngressShard<X>, _now: SimTime) {}
}

/// The lazy SYN feed: a cursor over the time-sorted trace plus a reorder
/// heap. A SYN reaches the switch at `at + offset + access latency`, and
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
    /// Read and served but not yet fed: `(arrival, trace position)`.
    heap: BinaryHeap<Reverse<(SimTime, u32)>>,
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
    /// request not yet fed; `serves` drops the ones another shard feeds.
    fn fill(
        &mut self,
        requests: &[TraceRequest],
        access: &[SimDuration],
        mut serves: impl FnMut(&TraceRequest) -> bool,
    ) {
        while let Some(request) = requests.get(self.cursor) {
            let earliest = request.at + self.offset + self.min_access;
            if self
                .heap
                .peek()
                .is_some_and(|&Reverse((top, _))| earliest > top)
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
            if serves(request) {
                let arrival = request.at + self.offset + access[request.client];
                self.heap.push(Reverse((arrival, pos)));
            }
        }
    }

    /// When the next request reaches the switch (valid after a `fill`).
    fn peek(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((at, _))| at)
    }

    /// Take the next request: its arrival and trace position.
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.heap.pop().map(|Reverse(next)| next)
    }
}

/// What the shard holds for a request whose SYN is buffered at the switch.
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

/// One ingress switch with its controller and everything between them.
pub struct IngressShard<X> {
    pub c3: C3Topology,
    pub switch: Switch,
    pub controller: Controller,
    /// Cloud addresses of the registered services (trace order).
    pub service_addrs: Vec<SocketAddr>,
    events: EventQueue<Ev<X>>,
    /// Where the SYNs come from; set up by [`IngressShard::start`].
    feed: SynFeed,
    /// The in-flight slab: one lane per request whose SYN is buffered at
    /// the switch, indexed by the tag its packet carries. Its length is the
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

    /// Close the setup phase: the trace's t = 0 maps to `offset`, and
    /// everything scheduled so far is a setup-time push.
    pub fn start(&mut self, offset: SimDuration) {
        self.feed = SynFeed::new(offset, self.c3.client_latencies());
        self.runtime_seq_floor = self.events.scheduled_total();
        // Flow rules are bounded by live client × service pairs (two rules
        // per redirect); buffers by concurrently held SYNs.
        let clients = self.c3.client_ips.len();
        self.switch.reserve(4 * clients, clients);
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

    /// Account the request at trace position `idx` as lost (a request
    /// neither released nor in this ledger was blackholed).
    pub fn lose(&mut self, idx: usize) {
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

    /// Trace positions of the lost requests that could be attributed.
    pub fn lost_idx(&self) -> &[u32] {
        &self.lost_idx
    }

    /// High-water mark of the in-flight slab: the most requests buffered at
    /// the switch at once.
    pub fn peak_in_flight(&self) -> usize {
        self.lanes.len()
    }

    /// Execute every event strictly before `end` (`SimTime::FAR_FUTURE`: to
    /// completion; `end == horizon`: an empty probe), then advance the horizon
    /// to `end`. `requests` is the time-sorted trace, the same on every call.
    /// Returns the number of events executed.
    pub fn run_until<E: Engine<X>>(
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
            let now = if take_arrival {
                let (now, pos) = self.feed.pop().expect("peeked a pending arrival");
                self.fill(requests, engine);
                self.sweep(now);
                self.on_syn(now, pos, requests[pos as usize], engine);
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

    /// Read the trace until the feed's head is the next arrival.
    fn fill<E: Engine<X>>(&mut self, requests: &[TraceRequest], engine: &E) {
        self.feed
            .fill(requests, self.c3.client_latencies(), |r| engine.serves(r));
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

    fn on_syn<E: Engine<X>>(
        &mut self,
        now: SimTime,
        pos: u32,
        request: TraceRequest,
        engine: &mut E,
    ) {
        let TraceRequest {
            client, service, ..
        } = request;
        let src = SocketAddr::new(self.c3.client_ips[client], 40000 + service as u16);
        // The packet is tagged with the slot a miss will take.
        let slot = self.free.last().copied().unwrap_or(self.lanes.len() as u32);
        let packet = Packet::syn(src, self.service_addrs[service], u64::from(slot));
        match self.switch.receive(now, packet) {
            PacketVerdict::Forward { out_port, .. } => {
                let request = Released {
                    idx: pos as usize,
                    client,
                    service,
                    syn_at: now,
                    machines_before: 0,
                    out_port,
                };
                engine.released(self, now, request);
            }
            PacketVerdict::PacketIn { buffer_id, packet } => {
                let lane = Lane {
                    pos,
                    service: service as u32,
                    client: client as u32,
                    machines_before: 0,
                    syn_at: now,
                };
                match self.free.pop() {
                    Some(free) => self.lanes[free as usize] = lane,
                    None => self.lanes.push(lane),
                }
                let in_port = self.c3.client_port(client);
                self.events.push(
                    now + CTRL_LATENCY,
                    Ev::PacketIn((packet, buffer_id, in_port)),
                );
            }
            PacketVerdict::Dropped => self.lose(pos as usize),
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

    /// A buffered SYN left the switch through the table.
    fn release_buffered<E: Engine<X>>(
        &mut self,
        now: SimTime,
        tag: u64,
        out_port: PortId,
        engine: &mut E,
    ) {
        let Some(lane) = self.take_lane(tag) else {
            return; // duplicate completion (cannot happen by construction)
        };
        let request = Released {
            idx: lane.pos as usize,
            client: lane.client as usize,
            service: lane.service as usize,
            syn_at: lane.syn_at,
            machines_before: u64::from(lane.machines_before),
            out_port,
        };
        engine.released(self, now, request);
    }

    fn on_packet_in(&mut self, now: SimTime, (packet, buffer_id, in_port): PacketIn) {
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
                        self.release_buffered(now, packet.tag, out_port, engine);
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
        match tag.and_then(|tag| self.take_lane(tag)) {
            Some(lane) => self.lose(lane.pos as usize),
            None => self.lost += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The feed yields the requests a shard serves in exactly the order
        /// of sorting them all up front by `(switch arrival, trace
        /// position)`. Instants and latencies are drawn from small ranges,
        /// so requests share `at` values and clients with different
        /// latencies share arrival instants.
        #[test]
        fn feed_yields_the_sorted_order(
            latencies in prop::collection::vec(0u64..4, 1..6),
            mut draws in prop::collection::vec((0u64..12, 0usize..8, any::<bool>()), 0..64),
            offset in 0u64..3,
        ) {
            draws.sort_by_key(|&(at, ..)| at);
            let access: Vec<SimDuration> =
                latencies.iter().map(|&l| SimDuration::from_micros(l)).collect();
            // The feed never reads `service`: it marks the served requests.
            let requests: Vec<TraceRequest> = draws
                .iter()
                .map(|&(at, client, served)| TraceRequest {
                    at: SimTime::ZERO + SimDuration::from_micros(at),
                    service: usize::from(served),
                    client: client % access.len(),
                })
                .collect();
            let served = |r: &TraceRequest| r.service == 1;
            let offset = SimDuration::from_micros(offset);

            let mut expected: Vec<(SimTime, u32)> = requests
                .iter()
                .enumerate()
                .filter(|&(_, r)| served(r))
                .map(|(pos, r)| (r.at + offset + access[r.client], pos as u32))
                .collect();
            expected.sort_unstable();

            let mut feed = SynFeed::new(offset, &access);
            let mut fed = Vec::new();
            feed.fill(&requests, &access, served);
            while let Some(at) = feed.peek() {
                let next = feed.pop().unwrap();
                prop_assert_eq!(next.0, at);
                fed.push(next);
                feed.fill(&requests, &access, served);
            }
            prop_assert_eq!(fed, expected);
        }
    }
}
