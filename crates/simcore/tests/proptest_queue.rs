//! Model-based property tests: `EventQueue` must behave exactly like a
//! binary-heap + tombstone oracle (the pre-runs event core, kept here as
//! the executable specification) under arbitrary push / cancel / pop / peek
//! interleavings: same winners, same order, same `peek_time_seq`, same cancel
//! semantics, including `u64::MAX`, same-instant FIFO bursts, cancels inside
//! runs and cancel-after-fire on stale ids.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet, VecDeque};

use proptest::prelude::*;
use simcore::{EventId, EventQueue, SimTime};

/// Identifies an event scheduled on a [`HeapEventQueue`]: its push ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEventId(u64);

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

// BinaryHeap is a max-heap; invert the ordering to get earliest-first, with
// the insertion sequence number as the tie-breaker.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The oracle: binary heap plus a tombstone set for cancellation, with the
/// same `(time, seq)` FIFO semantics.
struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    pending: HashSet<u64>,
}

impl<E> HeapEventQueue<E> {
    fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            pending: HashSet::new(),
        }
    }

    fn push(&mut self, time: SimTime, event: E) -> HeapEventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        self.pending.insert(seq);
        HeapEventId(seq)
    }

    fn cancel(&mut self, id: HeapEventId) -> bool {
        self.pending.remove(&id.0)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.pending.remove(&entry.seq) {
                return Some((entry.time, entry.event));
            }
        }
        None
    }

    /// `(time, push ordinal)` of the entry `pop` would return next (drains
    /// tombstones, hence `&mut`).
    fn peek_time_seq(&mut self) -> Option<(SimTime, u64)> {
        while let Some(top) = self.heap.peek() {
            if self.pending.contains(&top.seq) {
                return Some((top.time, top.seq));
            }
            self.heap.pop();
        }
        None
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_time_seq().map(|(time, _)| time)
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

/// Where in a burst's still-live events a cancel lands.
#[derive(Debug, Clone, Copy)]
enum Pos {
    Head,
    Middle,
    Tail,
}

#[derive(Debug, Clone)]
enum Op {
    Push {
        time_ns: u64,
        value: u32,
    },
    /// `len` consecutive pushes at one instant.
    Burst {
        time_ns: u64,
        len: usize,
    },
    /// Cancel the n-th still-tracked id (modulo live count).
    Cancel(usize),
    /// Cancel the head, middle or tail of the n-th burst's live events.
    CancelInBurst(usize, Pos),
    /// Cancel an id that already fired or was already cancelled — both
    /// implementations must report `false`.
    CancelStale(usize),
    Pop,
    Peek,
}

/// Times mix a dense band (forcing same-instant FIFO collisions), small
/// powers of 64 and their neighbours, and far-future values up to
/// `u64::MAX`.
fn time_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        5 => 0u64..1000,
        2 => 0u64..300_000_000_000,
        1 => prop_oneof![
            Just(63u64), Just(64), Just(4095), Just(4096),
            Just(64u64.pow(5) - 1), Just(64u64.pow(5)),
            Just(u64::MAX - 1), Just(u64::MAX),
        ],
        1 => any::<u64>(),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (time_strategy(), any::<u32>())
            .prop_map(|(time_ns, value)| Op::Push { time_ns, value }),
        1 => (0usize..16).prop_map(Op::Cancel),
        1 => (0usize..16).prop_map(Op::CancelStale),
        4 => Just(Op::Pop),
        2 => Just(Op::Peek),
    ]
}

fn pos_strategy() -> impl Strategy<Value = Pos> {
    prop_oneof![Just(Pos::Head), Just(Pos::Middle), Just(Pos::Tail)]
}

/// Shaped like the simulator's queues: bursts of 2–50 pushes at a few
/// recurring instants (wakeup chains re-armed 1 s ahead), single pushes at
/// other instants (a PacketIn's outputs), pops, and cancels aimed at a
/// burst's head, middle and tail.
fn workload_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => ((0u64..8).prop_map(|s| s * 1_000_000_000), 2usize..=50)
            .prop_map(|(time_ns, len)| Op::Burst { time_ns, len }),
        4 => (0u64..8_000_000_000, any::<u32>())
            .prop_map(|(time_ns, value)| Op::Push { time_ns, value }),
        3 => ((0usize..16), pos_strategy()).prop_map(|(n, pos)| Op::CancelInBurst(n, pos)),
        1 => (0usize..16).prop_map(Op::CancelStale),
        8 => Just(Op::Pop),
        1 => Just(Op::Peek),
    ]
}

/// Both implementations plus the ids issued in lockstep.
struct Lockstep {
    queue: EventQueue<u32>,
    heap: HeapEventQueue<u32>,
    /// `(queue id, oracle id, time, push ordinal)` of every pending event.
    live_ids: Vec<(EventId, HeapEventId, u64, u64)>,
    /// Ids of fired or cancelled events.
    stale_ids: Vec<(EventId, HeapEventId)>,
}

impl Lockstep {
    /// Push to both; returns the push ordinal.
    fn push(&mut self, time_ns: u64, value: u32) -> u64 {
        let qid = self.queue.push(SimTime::from_nanos(time_ns), value);
        let hid = self.heap.push(SimTime::from_nanos(time_ns), value);
        self.live_ids.push((qid, hid, time_ns, hid.0));
        hid.0
    }

    /// Cancel the `i`-th live id in both; returns both outcomes.
    fn cancel(&mut self, i: usize) -> (bool, bool) {
        let (qid, hid, _, _) = self.live_ids.remove(i);
        self.stale_ids.push((qid, hid));
        (self.queue.cancel(qid), self.heap.cancel(hid))
    }
}

/// Drive `EventQueue` and the oracle in lockstep through `ops`, checking
/// `peek_time_seq`, `len` and `scheduled_total` after every op, then drain.
fn run_lockstep(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut both = Lockstep {
        queue: EventQueue::new(),
        heap: HeapEventQueue::new(),
        live_ids: Vec::new(),
        stale_ids: Vec::new(),
    };
    // Push ordinals of each burst, in push order.
    let mut bursts: Vec<Vec<u64>> = Vec::new();

    for op in ops {
        match op {
            Op::Push { time_ns, value } => {
                both.push(time_ns, value);
            }
            Op::Burst { time_ns, len } => {
                bursts.push((0..len).map(|i| both.push(time_ns, i as u32)).collect());
            }
            Op::Cancel(n) => {
                if !both.live_ids.is_empty() {
                    let (q, h) = both.cancel(n % both.live_ids.len());
                    prop_assert_eq!(q, h, "cancel outcome must agree");
                }
            }
            Op::CancelInBurst(n, pos) if !bursts.is_empty() => {
                let live: Vec<usize> = bursts[n % bursts.len()]
                    .iter()
                    .filter_map(|&ord| both.live_ids.iter().position(|id| id.3 == ord))
                    .collect();
                let at = match pos {
                    Pos::Head => live.first(),
                    Pos::Middle => live.get(live.len() / 2),
                    Pos::Tail => live.last(),
                };
                if let Some(&i) = at {
                    prop_assert_eq!(both.cancel(i), (true, true), "a live burst member cancels");
                }
            }
            Op::CancelInBurst(..) => {}
            Op::CancelStale(n) => {
                if !both.stale_ids.is_empty() {
                    let (qid, hid) = both.stale_ids[n % both.stale_ids.len()];
                    prop_assert!(!both.queue.cancel(qid), "stale id must be a no-op");
                    prop_assert!(!both.heap.cancel(hid));
                }
            }
            Op::Pop => {
                let q = both.queue.pop();
                let h = both.heap.pop();
                prop_assert_eq!(&q, &h, "pop must agree");
                if q.is_some() {
                    // The fired entry is the live one with the minimal
                    // (time, push order); its ids go stale.
                    let i = both
                        .live_ids
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(_, _, t, ord))| (t, ord))
                        .map(|(i, _)| i)
                        .expect("a live id must back a successful pop");
                    let (qid, hid, _, _) = both.live_ids.remove(i);
                    both.stale_ids.push((qid, hid));
                }
            }
            Op::Peek => {
                prop_assert_eq!(
                    both.queue.peek_time(),
                    both.heap.peek_time(),
                    "peek_time must agree"
                );
            }
        }
        prop_assert_eq!(
            both.queue.peek_time_seq(),
            both.heap.peek_time_seq(),
            "peek_time_seq must name the next entry's (time, push ordinal)"
        );
        prop_assert_eq!(both.queue.len(), both.heap.len(), "live counts must agree");
        prop_assert_eq!(both.queue.is_empty(), both.heap.len() == 0);
        prop_assert_eq!(both.queue.scheduled_total(), both.heap.scheduled_total());
    }

    // Drain both: remaining orders must agree completely, and every id that
    // ever existed must now be stale in both implementations.
    let Lockstep {
        mut queue,
        mut heap,
        live_ids,
        stale_ids,
    } = both;
    loop {
        prop_assert_eq!(queue.peek_time_seq(), heap.peek_time_seq());
        let q = queue.pop();
        let h = heap.pop();
        prop_assert_eq!(&q, &h, "drain must agree");
        if q.is_none() {
            break;
        }
    }
    let remaining = live_ids.into_iter().map(|(qid, hid, _, _)| (qid, hid));
    for (qid, hid) in remaining.chain(stale_ids) {
        prop_assert!(!queue.cancel(qid), "cancel-after-fire must be false");
        prop_assert!(!heap.cancel(hid));
    }
    Ok(())
}

/// Ops on a queue whose entries carry a copy count.
#[derive(Debug, Clone)]
enum CopyOp {
    /// Push `value` at `time_ns`, or add one copy to the most recent push
    /// when that is still queued at `time_ns` with the same value.
    Push { time_ns: u64, value: u32 },
    /// Take one copy: decrement the head in place while it holds several.
    PopOne,
    /// Pop the head entry with all its copies.
    PopWhole,
    /// Cancel the n-th live entry (modulo live count) with all its copies.
    Cancel(usize),
}

/// A few instants and values, so pushes keep landing behind an equal one.
fn copy_op_strategy() -> impl Strategy<Value = CopyOp> {
    prop_oneof![
        6 => ((0u64..6).prop_map(|t| t * 1_000), 0u32..2)
            .prop_map(|(time_ns, value)| CopyOp::Push { time_ns, value }),
        3 => Just(CopyOp::PopOne),
        1 => Just(CopyOp::PopWhole),
        1 => (0usize..16).prop_map(CopyOp::Cancel),
    ]
}

/// One live entry of the copy-counting queue and the oracle ids of its
/// copies, earliest first.
struct Copies {
    id: EventId,
    oracle: VecDeque<HeapEventId>,
}

/// Retire the copy the oracle popped from its entry; true if the entry went
/// with it.
fn retire(live: &mut Vec<Copies>, popped: HeapEventId) -> bool {
    let i = live
        .iter()
        .position(|e| e.oracle.front() == Some(&popped))
        .expect("the oracle pops an entry's earliest copy");
    live[i].oracle.pop_front();
    let emptied = live[i].oracle.is_empty();
    if emptied {
        live.remove(i);
    }
    emptied
}

/// Drive a queue of `(value, copies)` entries — grown through
/// `last_push_mut`, split through `peek_mut` — against the oracle holding
/// every copy as a push of its own: the oracle must pop exactly the copies
/// the queue hands out, in the same order.
fn run_copy_lockstep(ops: Vec<CopyOp>) -> Result<(), TestCaseError> {
    let mut queue: EventQueue<(u32, u32)> = EventQueue::new();
    let mut heap = HeapEventQueue::new();
    let mut live: Vec<Copies> = Vec::new();
    let mut newest: Option<EventId> = None;
    for op in ops {
        match op {
            CopyOp::Push { time_ns, value } => {
                let time = SimTime::from_nanos(time_ns);
                let copy = heap.push(time, value);
                match queue.last_push_mut(time) {
                    Some((v, copies)) if *v == value => {
                        *copies += 1;
                        let entry = live
                            .iter_mut()
                            .find(|e| Some(e.id) == newest)
                            .expect("only the most recent push, still queued, can grow");
                        entry.oracle.push_back(copy);
                    }
                    _ => {
                        let id = queue.push(time, (value, 1));
                        newest = Some(id);
                        live.push(Copies {
                            id,
                            oracle: [copy].into(),
                        });
                    }
                }
            }
            CopyOp::PopOne => {
                let (got, whole) = match queue.peek_mut() {
                    Some((t, (v, copies))) if *copies > 1 => {
                        *copies -= 1;
                        (Some((t, *v)), false)
                    }
                    _ => (queue.pop().map(|(t, (v, _))| (t, v)), true),
                };
                let seq = heap.peek_time_seq().map(|(_, seq)| HeapEventId(seq));
                prop_assert_eq!(got, heap.pop(), "one copy pops like one push");
                if let Some(seq) = seq {
                    prop_assert_eq!(retire(&mut live, seq), whole);
                }
            }
            CopyOp::PopWhole => {
                if let Some((t, (v, copies))) = queue.pop() {
                    for k in 1..=copies {
                        let seq = heap.peek_time_seq().map(|(_, seq)| HeapEventId(seq));
                        prop_assert_eq!(Some((t, v)), heap.pop(), "every copy, in a row");
                        let emptied = retire(&mut live, seq.unwrap());
                        prop_assert_eq!(emptied, k == copies, "the entry held its copies");
                    }
                } else {
                    prop_assert_eq!(heap.pop(), None);
                }
            }
            CopyOp::Cancel(n) => {
                if !live.is_empty() {
                    let entry = live.remove(n % live.len());
                    prop_assert!(queue.cancel(entry.id));
                    for copy in entry.oracle {
                        prop_assert!(heap.cancel(copy));
                    }
                }
            }
        }
        prop_assert_eq!(queue.peek_time(), heap.peek_time());
        prop_assert_eq!(queue.len(), live.len());
        prop_assert_eq!(
            heap.len(),
            live.iter().map(|e| e.oracle.len()).sum::<usize>()
        );
    }
    loop {
        let q = queue.pop();
        let Some((t, (v, copies))) = q else {
            prop_assert_eq!(heap.pop(), None);
            break;
        };
        for _ in 0..copies {
            prop_assert_eq!(Some((t, v)), heap.pop(), "drain must agree");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Growing the most recent push by one copy pops exactly like pushing
    /// the copy with the next seq, and taking one copy off the head in place
    /// keeps the rest at the head's place in line.
    #[test]
    fn copy_counts_match_expanded_reference(
        ops in prop::collection::vec(copy_op_strategy(), 0..200)
    ) {
        run_copy_lockstep(ops)?;
    }

    /// The queue and the heap oracle, driven in lockstep.
    #[test]
    fn queue_matches_heap_reference(ops in prop::collection::vec(op_strategy(), 0..250)) {
        run_lockstep(ops)?;
    }

    /// The same lockstep over workload-shaped ops: same-instant bursts, runs
    /// reopened at an instant after pushes elsewhere, and cancels at a
    /// burst's head, middle and tail.
    #[test]
    fn workload_shaped_ops_match_reference(
        ops in prop::collection::vec(workload_op_strategy(), 0..120)
    ) {
        run_lockstep(ops)?;
    }

    /// Same-instant bursts: strict FIFO at every colliding timestamp, in
    /// both implementations.
    #[test]
    fn same_instant_fifo_matches_reference(
        burst in prop::collection::vec((0u64..4, any::<u32>()), 1..200)
    ) {
        let mut queue = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        for &(slot, value) in &burst {
            // Four distinct instants, many collisions per instant.
            let t = SimTime::from_nanos(slot * 1_000);
            queue.push(t, value);
            heap.push(t, value);
        }
        loop {
            let q = queue.pop();
            let h = heap.pop();
            prop_assert_eq!(&q, &h);
            if q.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pops_are_monotone_in_time(times in prop::collection::vec(time_strategy(), 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t.as_nanos() >= last);
            last = t.as_nanos();
        }
    }

    #[test]
    fn peek_agrees_with_pop(times in prop::collection::vec(time_strategy(), 0..50)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        while let Some(peek) = q.peek_time() {
            let (t, _) = q.pop().unwrap();
            prop_assert_eq!(peek, t);
        }
        prop_assert!(q.pop().is_none());
    }

    /// Pushing behind the already-popped minimum (events "in the past") must
    /// keep exact (time, seq) order against the reference.
    #[test]
    fn past_pushes_match_reference(
        future in prop::collection::vec(500u64..1000, 1..20),
        past in prop::collection::vec(0u64..600, 1..20),
    ) {
        let mut queue = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        for (i, &t) in future.iter().enumerate() {
            queue.push(SimTime::from_nanos(t), i);
            heap.push(SimTime::from_nanos(t), i);
        }
        prop_assert_eq!(queue.pop(), heap.pop());
        for (i, &t) in past.iter().enumerate() {
            queue.push(SimTime::from_nanos(t), 1000 + i);
            heap.push(SimTime::from_nanos(t), 1000 + i);
        }
        loop {
            prop_assert_eq!(queue.peek_time(), heap.peek_time());
            let q = queue.pop();
            prop_assert_eq!(&q, &heap.pop());
            if q.is_none() {
                break;
            }
        }
    }
}
