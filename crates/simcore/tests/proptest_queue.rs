//! Model-based property tests: `EventQueue` must behave exactly like a
//! binary-heap oracle (the pre-runs event core, kept here as the executable
//! specification) under arbitrary push / pop / peek interleavings: same
//! winners, same order, same `peek_time_seq`, including `u64::MAX` and
//! same-instant FIFO bursts.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use proptest::prelude::*;
use simcore::{EventQueue, SimTime};

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

/// The oracle: a binary heap with the same `(time, seq)` FIFO semantics.
struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> HeapEventQueue<E> {
    fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Push `event`; returns its push ordinal.
    fn push(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        seq
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|entry| (entry.time, entry.event))
    }

    /// `(time, push ordinal)` of the entry `pop` would return next.
    fn peek_time_seq(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|top| (top.time, top.seq))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.peek_time_seq().map(|(time, _)| time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
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
        4 => Just(Op::Pop),
        2 => Just(Op::Peek),
    ]
}

/// Shaped like the simulator's queues: bursts of 2–50 pushes at a few
/// recurring instants (wakeup chains re-armed 1 s ahead), single pushes at
/// other instants (a PacketIn's outputs), and pops.
fn workload_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => ((0u64..8).prop_map(|s| s * 1_000_000_000), 2usize..=50)
            .prop_map(|(time_ns, len)| Op::Burst { time_ns, len }),
        4 => (0u64..8_000_000_000, any::<u32>())
            .prop_map(|(time_ns, value)| Op::Push { time_ns, value }),
        8 => Just(Op::Pop),
        1 => Just(Op::Peek),
    ]
}

/// Drive `EventQueue` and the oracle in lockstep through `ops`, checking
/// `peek_time_seq`, `len` and `scheduled_total` after every op, then drain.
fn run_lockstep(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut queue = EventQueue::new();
    let mut heap = HeapEventQueue::new();
    for op in ops {
        match op {
            Op::Push { time_ns, value } => {
                queue.push(SimTime::from_nanos(time_ns), value);
                heap.push(SimTime::from_nanos(time_ns), value);
            }
            Op::Burst { time_ns, len } => {
                for i in 0..len as u32 {
                    queue.push(SimTime::from_nanos(time_ns), i);
                    heap.push(SimTime::from_nanos(time_ns), i);
                }
            }
            Op::Pop => {
                prop_assert_eq!(queue.pop(), heap.pop(), "pop must agree");
            }
            Op::Peek => {
                prop_assert_eq!(queue.peek_time(), heap.peek_time(), "peek_time must agree");
            }
        }
        prop_assert_eq!(
            queue.peek_time_seq(),
            heap.peek_time_seq(),
            "peek_time_seq must name the next entry's (time, push ordinal)"
        );
        prop_assert_eq!(queue.len(), heap.len(), "live counts must agree");
        prop_assert_eq!(queue.is_empty(), heap.len() == 0);
        prop_assert_eq!(queue.scheduled_total(), heap.scheduled_total());
    }

    // Drain both: remaining orders must agree completely.
    loop {
        prop_assert_eq!(queue.peek_time_seq(), heap.peek_time_seq());
        let q = queue.pop();
        let h = heap.pop();
        prop_assert_eq!(&q, &h, "drain must agree");
        if q.is_none() {
            break;
        }
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
}

/// A few instants and values, so pushes keep landing behind an equal one.
fn copy_op_strategy() -> impl Strategy<Value = CopyOp> {
    prop_oneof![
        6 => ((0u64..6).prop_map(|t| t * 1_000), 0u32..2)
            .prop_map(|(time_ns, value)| CopyOp::Push { time_ns, value }),
        3 => Just(CopyOp::PopOne),
        1 => Just(CopyOp::PopWhole),
    ]
}

/// One live entry of the copy-counting queue — its queue push ordinal —
/// and the oracle push ordinals of its copies, earliest first.
struct Copies {
    push: u64,
    oracle: VecDeque<u64>,
}

/// Retire the copy the oracle popped from its entry; true if the entry went
/// with it.
fn retire(live: &mut Vec<Copies>, popped: u64) -> bool {
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
    // Queue push ordinal of the most recent push.
    let mut pushes = 0u64;
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
                            .find(|e| e.push + 1 == pushes)
                            .expect("only the most recent push, still queued, can grow");
                        entry.oracle.push_back(copy);
                    }
                    _ => {
                        queue.push(time, (value, 1));
                        live.push(Copies {
                            push: pushes,
                            oracle: [copy].into(),
                        });
                        pushes += 1;
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
                let seq = heap.peek_time_seq().map(|(_, seq)| seq);
                prop_assert_eq!(got, heap.pop(), "one copy pops like one push");
                if let Some(seq) = seq {
                    prop_assert_eq!(retire(&mut live, seq), whole);
                }
            }
            CopyOp::PopWhole => {
                if let Some((t, (v, copies))) = queue.pop() {
                    for k in 1..=copies {
                        let seq = heap.peek_time_seq().map(|(_, seq)| seq);
                        prop_assert_eq!(Some((t, v)), heap.pop(), "every copy, in a row");
                        let emptied = retire(&mut live, seq.unwrap());
                        prop_assert_eq!(emptied, k == copies, "the entry held its copies");
                    }
                } else {
                    prop_assert_eq!(heap.pop(), None);
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

    /// The same lockstep over workload-shaped ops: same-instant bursts and
    /// runs reopened at an instant after pushes elsewhere.
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
