//! The future-event list: a hierarchical timing wheel of `(SimTime, event)`
//! pairs with **deterministic FIFO tie-breaking** and O(1) push/cancel.
//!
//! Determinism is the load-bearing property here. Two events scheduled for the
//! same instant pop in the order they were pushed, so a simulation run is a pure
//! function of `(config, seed)` — which the test suite and the experiment runner
//! both rely on.
//!
//! # Wheel layout
//!
//! Nanosecond timestamps are treated as eleven 6-bit digits (66 bits cover the
//! full `u64` range, so arbitrarily far-future events — up to
//! `SimTime::FAR_FUTURE` — live in the top-level overflow slots). A cursor
//! `cur` tracks the last instant the wheel popped. A live event with time `t`
//! is linked into the bucket at `(level, slot)` where `level` is the most
//! significant 6-bit digit in which `t` differs from `cur` and `slot` is that
//! digit of `t`. Each bucket is a FIFO linked list threaded through a slab, so
//! same-instant events preserve strict `(time, seq)` order; buckets at level 0
//! pin an exact timestamp, buckets at higher levels are cascaded — re-binned
//! one level down relative to the advanced cursor, preserving list order —
//! when the minimum enters their range. Each event cascades at most once per
//! level, so `push`, `cancel` and (amortized) `pop` are O(1) with no per-op
//! hashing; slots are found with bitmap `trailing_zeros`.
//!
//! Events pushed *behind* the cursor (allowed: a handler may schedule work at
//! or before `now`) go to a small `overdue` binary heap keyed by `(time, seq)`;
//! everything in it is strictly earlier than every wheel entry, so ordering
//! stays exact while the wheel's monotone-cursor invariant is preserved.
//!
//! The queue eagerly maintains the index of its minimum entry, which makes
//! [`EventQueue::peek_time`] a true O(1) `&self` accessor.
//!
//! Cancellation marks the slab node dead and bumps its generation:
//! [`EventId`]s are generation-tagged, so a stale id (already fired or already
//! cancelled) is a no-op returning `false` even after the slab slot has been
//! reused. Dead nodes are unlinked lazily when their bucket is next visited.
//!
//! The previous `BinaryHeap` + tombstone-set implementation is retained in
//! [`mod@reference`] as the executable specification; a model-based proptest
//! (`tests/proptest_queue.rs`) proves the wheel equivalent to it over
//! thousands of push/cancel/pop/peek interleavings.

use crate::time::SimTime;

/// Number of 6-bit digit levels (11 × 6 = 66 bits ≥ 64).
const LEVELS: usize = 11;
/// Slots per level (one 6-bit digit).
const SLOTS: usize = 64;
const DIGIT_BITS: u32 = 6;
const NIL: u32 = u32::MAX;

/// Identifies a scheduled event so it can be cancelled before it fires.
///
/// Generation-tagged: once the event fires or is cancelled the id goes stale,
/// and [`EventQueue::cancel`] on a stale id returns `false` — even if the
/// internal slot has since been reused for a new event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    index: u32,
    generation: u32,
}

struct Node<E> {
    time: SimTime,
    seq: u64,
    generation: u32,
    /// Next node in the same bucket (FIFO), or `NIL`.
    next: u32,
    /// `None` once fired or cancelled (and while on the free list).
    event: Option<E>,
}

/// One FIFO bucket: slab indices of its first and last node.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// `(level, slot)` of time `t` relative to cursor `cur`, for `t >= cur`.
#[inline]
fn level_slot(cur: u64, t: u64) -> (usize, usize) {
    let x = cur ^ t;
    if x == 0 {
        (0, (t & (SLOTS as u64 - 1)) as usize)
    } else {
        let level = ((63 - x.leading_zeros()) / DIGIT_BITS) as usize;
        let slot = ((t >> (DIGIT_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize;
        (level, slot)
    }
}

/// A deterministic future-event list.
///
/// ```
/// use simcore::{EventQueue, SimTime, SimDuration};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(10), "b");
/// q.push(SimTime::from_nanos(5), "a");
/// let id = q.push(SimTime::from_nanos(7), "dropped");
/// q.cancel(id);
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(5), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "b")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Slab of event nodes; `free` holds reusable indices.
    nodes: Vec<Node<E>>,
    free: Vec<u32>,
    /// `LEVELS × SLOTS` FIFO buckets, indexed `level * SLOTS + slot`.
    buckets: Vec<Bucket>,
    /// Per-level bitmap of non-empty slots.
    occupied: [u64; LEVELS],
    /// Events pushed behind the cursor, exact `(time, seq)` order.
    overdue: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>>,
    /// Time of the last wheel pop; wheel entries are all `>= cur`, overdue
    /// entries all `< cur`.
    cur: u64,
    /// Slab index of the live minimum (`NIL` when empty). Kept normalized:
    /// either the overdue heap's top or the head of a level-0 bucket.
    min: u32,
    live: usize,
    peak: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: Vec::new(),
            buckets: vec![EMPTY_BUCKET; LEVELS * SLOTS],
            occupied: [0; LEVELS],
            overdue: std::collections::BinaryHeap::new(),
            cur: 0,
            min: NIL,
            live: 0,
            peak: 0,
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at `time`. Returns an id usable with
    /// [`EventQueue::cancel`]. Times at or before the last popped instant are
    /// fine: the queue is a strict `(time, seq)` priority queue, so an event
    /// pushed "in the past" simply becomes the next minimum.
    pub fn push(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let index = self.alloc(time, seq, event);
        let generation = self.nodes[index as usize].generation;

        let t = time.as_nanos();
        if t < self.cur {
            self.overdue.push(std::cmp::Reverse((t, seq, index)));
        } else {
            let (level, slot) = level_slot(self.cur, t);
            self.link(level, slot, index);
        }

        self.live += 1;
        if self.live > self.peak {
            self.peak = self.live;
        }
        // A fresh push has the largest seq, so it only becomes the minimum on
        // a strictly earlier time.
        if self.min == NIL || t < self.nodes[self.min as usize].time.as_nanos() {
            self.min = index;
        }
        EventId { index, generation }
    }

    /// Cancel a scheduled event. Returns `true` if the event was still pending
    /// (i.e. had not fired and had not already been cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(node) = self.nodes.get_mut(id.index as usize) else {
            return false;
        };
        if node.generation != id.generation || node.event.is_none() {
            return false;
        }
        node.event = None;
        node.generation = node.generation.wrapping_add(1);
        self.live -= 1;
        // The node stays linked in its bucket (or overdue heap) and is
        // reclaimed when that container is next visited.
        if self.min == id.index {
            self.advance_min();
        }
        true
    }

    /// Pop the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.min == NIL {
            return None;
        }
        let index = self.min;
        let t = self.nodes[index as usize].time.as_nanos();
        if t < self.cur {
            // The minimum lives in the overdue heap, and cancellations of its
            // top are cleaned eagerly, so the live top is exactly `index`.
            let top = self.overdue.pop();
            debug_assert_eq!(top.map(|std::cmp::Reverse((_, _, i))| i), Some(index));
        } else {
            // A push may have left the minimum in a higher-level bucket;
            // cascade until it sits in a level-0 bucket. The cursor only
            // advances up to the bucket base (≤ t), so `index` stays the min.
            if level_slot(self.cur, t).0 != 0 {
                self.advance_min();
                debug_assert_eq!(self.min, index);
            }
            let slot = level_slot(self.cur, t).1;
            // Cancelled same-instant predecessors may still be linked ahead
            // of the minimum; reclaim them, then unlink the minimum itself.
            loop {
                let head = self.buckets[slot].head;
                if head == index {
                    break;
                }
                debug_assert!(self.nodes[head as usize].event.is_none());
                self.unlink_head(0, slot, head);
                self.free.push(head);
            }
            self.unlink_head(0, slot, index);
            self.cur = t;
        }
        let node = &mut self.nodes[index as usize];
        let time = node.time;
        let event = node.event.take().expect("minimum node is live");
        node.generation = node.generation.wrapping_add(1);
        self.free.push(index);
        self.live -= 1;
        self.advance_min();
        Some((time, event))
    }

    /// The timestamp of the earliest live event, if any. O(1), `&self`.
    pub fn peek_time(&self) -> Option<SimTime> {
        (self.min != NIL).then(|| self.nodes[self.min as usize].time)
    }

    /// `(time, seq)` of the earliest live event, if any. O(1), `&self`.
    ///
    /// The sequence number totally orders same-instant events (FIFO push
    /// order), which lets a caller merging an *external* sorted stream with
    /// the queue decide ties exactly: an external item ranks before the queue
    /// head iff it would have been pushed with a smaller seq.
    pub fn peek_time_seq(&self) -> Option<(SimTime, u64)> {
        (self.min != NIL).then(|| {
            let node = &self.nodes[self.min as usize];
            (node.time, node.seq)
        })
    }

    /// Pre-size the node slab for `additional` more live events, avoiding
    /// incremental slab growth on the hot path.
    pub fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total events ever scheduled (diagnostic; monotone).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// High-water mark of live entries over the queue's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    fn alloc(&mut self, time: SimTime, seq: u64, event: E) -> u32 {
        if let Some(index) = self.free.pop() {
            let node = &mut self.nodes[index as usize];
            node.time = time;
            node.seq = seq;
            node.next = NIL;
            node.event = Some(event);
            index
        } else {
            let index = u32::try_from(self.nodes.len()).expect("slab fits in u32 indices");
            assert_ne!(index, NIL, "event slab full");
            self.nodes.push(Node {
                time,
                seq,
                generation: 0,
                next: NIL,
                event: Some(event),
            });
            index
        }
    }

    /// Append `index` to bucket `(level, slot)` and mark it occupied.
    fn link(&mut self, level: usize, slot: usize, index: u32) {
        let b = &mut self.buckets[level * SLOTS + slot];
        if b.head == NIL {
            b.head = index;
        } else {
            self.nodes[b.tail as usize].next = index;
        }
        b.tail = index;
        self.occupied[level] |= 1 << slot;
    }

    /// Unlink the head node of bucket `(level, slot)` (must be `index`).
    fn unlink_head(&mut self, level: usize, slot: usize, index: u32) {
        let next = self.nodes[index as usize].next;
        self.nodes[index as usize].next = NIL;
        let b = &mut self.buckets[level * SLOTS + slot];
        debug_assert_eq!(b.head, index);
        b.head = next;
        if next == NIL {
            b.tail = NIL;
            self.occupied[level] &= !(1 << slot);
        }
    }

    /// Re-establish the normalized minimum after the old one was removed:
    /// drain dead overdue tops, free dead bucket heads, and cascade
    /// higher-level buckets down until the minimum is a level-0 head (or the
    /// overdue top, which is always strictly earlier than any wheel entry).
    fn advance_min(&mut self) {
        // Clean cancelled entries off the overdue top.
        while let Some(&std::cmp::Reverse((_, seq, index))) = self.overdue.peek() {
            let node = &self.nodes[index as usize];
            debug_assert_eq!(node.seq, seq, "overdue entry outlived its node");
            if node.event.is_some() {
                break;
            }
            self.overdue.pop();
            self.free.push(index);
        }

        loop {
            // Everything overdue precedes everything on the wheel.
            if let Some(&std::cmp::Reverse((_, _, index))) = self.overdue.peek() {
                self.min = index;
                return;
            }
            let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) else {
                self.min = NIL;
                return;
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            if level == 0 {
                // Free dead heads; the first live node is the minimum.
                let mut head = self.buckets[slot].head;
                while head != NIL && self.nodes[head as usize].event.is_none() {
                    self.unlink_head(0, slot, head);
                    self.free.push(head);
                    head = self.buckets[slot].head;
                }
                if head != NIL {
                    self.min = head;
                    return;
                }
                continue; // bucket was all tombstones; bitmap bit now clear
            }
            // Cascade: advance the cursor to the bucket's base time and
            // re-bin its nodes one or more levels down, preserving FIFO
            // order (which is seq order; equal-time nodes stay adjacent).
            let shift = DIGIT_BITS as usize * (level + 1);
            let high = if shift >= 64 { 0 } else { !0u64 << shift };
            self.cur = (self.cur & high) | ((slot as u64) << (DIGIT_BITS as usize * level));
            let mut node = self.buckets[level * SLOTS + slot].head;
            self.buckets[level * SLOTS + slot] = EMPTY_BUCKET;
            self.occupied[level] &= !(1 << slot);
            while node != NIL {
                let next = self.nodes[node as usize].next;
                self.nodes[node as usize].next = NIL;
                if self.nodes[node as usize].event.is_none() {
                    self.free.push(node);
                } else {
                    let t = self.nodes[node as usize].time.as_nanos();
                    debug_assert!(t >= self.cur);
                    let (l, s) = level_slot(self.cur, t);
                    debug_assert!(l < level);
                    self.link(l, s, node);
                }
                node = next;
            }
        }
    }
}

/// The retained heap-based reference implementation — the executable
/// specification the timing wheel is proven equivalent to (see
/// `tests/proptest_queue.rs`). Not used on the hot path.
pub mod reference {
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashSet};

    use crate::time::SimTime;

    /// Identifies an event scheduled on a [`HeapEventQueue`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct HeapEventId(pub u64);

    struct Entry<E> {
        time: SimTime,
        seq: u64,
        event: E,
    }

    // BinaryHeap is a max-heap; invert the ordering to get earliest-first,
    // with the insertion sequence number as the tie-breaker.
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

    /// The pre-wheel `EventQueue`: binary heap plus a tombstone set for
    /// cancellation, with identical `(time, seq)` FIFO semantics.
    pub struct HeapEventQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
        pending: HashSet<u64>,
    }

    impl<E> Default for HeapEventQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapEventQueue<E> {
        pub fn new() -> Self {
            HeapEventQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                pending: HashSet::new(),
            }
        }

        pub fn push(&mut self, time: SimTime, event: E) -> HeapEventId {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, event });
            self.pending.insert(seq);
            HeapEventId(seq)
        }

        pub fn cancel(&mut self, id: HeapEventId) -> bool {
            self.pending.remove(&id.0)
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            while let Some(entry) = self.heap.pop() {
                if !self.pending.remove(&entry.seq) {
                    continue; // tombstoned by cancel()
                }
                return Some((entry.time, entry.event));
            }
            None
        }

        /// The timestamp of the earliest live event (drains tombstones, so
        /// `&mut` — the API wart the wheel fixes).
        pub fn peek_time(&mut self) -> Option<SimTime> {
            while let Some(top) = self.heap.peek() {
                if self.pending.contains(&top.seq) {
                    return Some(top.time);
                }
                self.heap.pop();
            }
            None
        }

        pub fn len(&self) -> usize {
            self.pending.len()
        }

        pub fn is_empty(&self) -> bool {
            self.pending.is_empty()
        }

        pub fn scheduled_total(&self) -> u64 {
            self.next_seq
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 3);
        q.push(t(10), 1);
        q.push(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(42), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(42), i)));
        }
    }

    #[test]
    fn mass_same_instant_fifo_10k() {
        // Satellite: 10k events at one tick pop in exact push order, even
        // when the tick sits far enough out to start life in a high level.
        let mut q = EventQueue::new();
        let tick = t(123_456_789_000);
        for i in 0..10_000u32 {
            q.push(tick, i);
        }
        assert_eq!(q.peek_time(), Some(tick));
        for i in 0..10_000u32 {
            assert_eq!(q.pop(), Some((tick, i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        let b = q.push(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(!q.cancel(b), "cancel after fire reports false");
    }

    #[test]
    fn cancel_of_fired_generation_is_false_even_after_slot_reuse() {
        // Satellite: a stale EventId stays a no-op `false` after its slab
        // slot has been recycled for a newer event.
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert!(!q.cancel(a), "cancel of fired generation");
        let b = q.push(t(2), "b"); // reuses a's slab slot
        assert!(!q.cancel(a), "stale id must not cancel the reused slot");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn events_in_the_past_and_at_now_still_fire_in_order() {
        // Satellite: after popping at t=100 the "cursor" sits at 100; events
        // pushed at or before 100 are still delivered, in (time, seq) order.
        let mut q = EventQueue::new();
        q.push(t(100), "now");
        assert_eq!(q.pop(), Some((t(100), "now")));
        q.push(t(100), "at-now-1");
        q.push(t(40), "past");
        q.push(t(100), "at-now-2");
        q.push(t(101), "future");
        assert_eq!(q.peek_time(), Some(t(40)));
        assert_eq!(q.pop(), Some((t(40), "past")));
        assert_eq!(q.pop(), Some((t(100), "at-now-1")));
        assert_eq!(q.pop(), Some((t(100), "at-now-2")));
        assert_eq!(q.pop(), Some((t(101), "future")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_in_overdue_region() {
        let mut q = EventQueue::new();
        q.push(t(1000), "a");
        assert_eq!(q.pop(), Some((t(1000), "a")));
        let past = q.push(t(10), "past");
        q.push(t(2000), "b");
        assert!(q.cancel(past));
        assert_eq!(q.peek_time(), Some(t(2000)));
        assert_eq!(q.pop(), Some((t(2000), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_cascade_boundaries() {
        // Satellite: times straddling 64^k digit boundaries cascade through
        // multiple levels and still pop in exact order, including u64::MAX
        // (SimTime::FAR_FUTURE) in the top overflow slots.
        let mut q = EventQueue::new();
        let times: &[u64] = &[
            0,
            63,               // level-0 boundary
            64,               // first level-1 slot
            64 * 64 - 1,      // level-1 boundary
            64 * 64,          // first level-2 slot
            64u64.pow(5) - 1, // deep boundary
            64u64.pow(5),
            u64::MAX - 1,
            u64::MAX, // far-future overflow slot
        ];
        // Push in scrambled order.
        for (i, &tm) in times.iter().enumerate().rev() {
            q.push(t(tm), i);
        }
        let mut got = Vec::new();
        while let Some((time, _)) = q.pop() {
            got.push(time.as_nanos());
        }
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        // An id from a different queue instance (valid index, wrong
        // generation / empty slab) must not cancel anything.
        let mut other: EventQueue<()> = EventQueue::new();
        let foreign = other.push(t(5), ());
        assert!(!q.cancel(foreign));
        // And one whose slot index was never allocated here either.
        let id = q.push(t(1), ());
        q.pop();
        assert!(!q.cancel(id));
    }

    #[test]
    fn peek_time_skips_tombstones() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(5), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(5)));
        assert_eq!(q.pop(), Some((t(5), "b")));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_is_a_shared_reference_accessor() {
        let mut q = EventQueue::new();
        q.push(t(9), ());
        let r1 = &q;
        let r2 = &q;
        assert_eq!(r1.peek_time(), r2.peek_time()); // compiles: &self peek
    }

    #[test]
    fn len_tracks_live_entries() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.push(t(1), 1);
        q.push(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 2);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = EventQueue::new();
        let base = SimTime::ZERO;
        q.push(base + SimDuration::from_millis(10), 10u64);
        q.push(base + SimDuration::from_millis(5), 5);
        assert_eq!(q.pop().unwrap().1, 5);
        q.push(base + SimDuration::from_millis(7), 7);
        q.push(base + SimDuration::from_millis(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 7);
        assert_eq!(q.pop().unwrap().1, 10);
    }
}
