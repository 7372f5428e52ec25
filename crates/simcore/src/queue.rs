//! The future-event list: a binary min-heap of *runs* — FIFOs of events due
//! at one instant — with **deterministic FIFO tie-breaking**.
//!
//! Determinism is the load-bearing property here. Two events scheduled for the
//! same instant pop in the order they were pushed, so a simulation run is a pure
//! function of `(config, seed)` — which the test suite and the experiment runner
//! both rely on.
//!
//! # Layout
//!
//! Every push gets a sequence number `seq`; the queue pops in `(time, seq)`
//! order. A push that names the same instant as the most recently opened run
//! appends to that run's FIFO; any other push opens a new run, which enters
//! the heap keyed by `(time, seq of its first event)`. Appending only to the
//! newest run is what keeps the order exact: every run opened later starts
//! with a larger seq than anything already appended, so runs at one instant
//! hold disjoint, increasing seq ranges and the heap key ranks them correctly
//! even after their heads have popped. A pop takes the head of the top run;
//! the run leaves the heap when it empties.
//!
//! The simulator's queues are bursty at one instant — a PacketIn's FlowMods
//! and release, a mesh shard's re-armed wakeup chains — so most pushes are an
//! O(1) append and most pops leave the heap untouched. Pushes of distinct
//! instants pay O(log runs); the queue holds only the live control-plane
//! horizon (SYNs are fed lazily), which keeps that heap shallow.
//!
//! Keys live in the heap, payloads out of line: the heap holds
//! `(time, seq, run)`, a run record is `(time, head, tail)`, a per-slot lane
//! holds `(seq, next)` and the payloads sit in their own lane (`None` once
//! fired), so sifting and linking never move an event. A pop frees the head's
//! slot at once, so the top run's head is always a queued event, which makes
//! [`EventQueue::peek_time`] a true O(1) `&self` accessor.
//!
//! Two accessors edit a queued payload where it stands, so an event that
//! stands for several can be split or grown without moving in the order:
//! [`EventQueue::peek_mut`] reaches the head, which keeps its seq, and
//! [`EventQueue::last_push_mut`] the most recent push while it is still
//! queued at a given instant, which a push at that instant would follow
//! with no seq in between. The ingress core stores a chain of duplicate
//! controller wakeups as one entry with a copy count through these two.
//!
//! The queue has no cancel: nothing in the simulator withdraws an event
//! (ROADMAP item 6(a) adds one with its first caller).
//!
//! A model-based proptest (`tests/proptest_queue.rs`) holds the queue to a
//! binary-heap oracle over thousands of push / pop / peek interleavings,
//! including same-instant bursts, and holds entries grown and split through
//! the two accessors to the oracle with every copy pushed on its own.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

const NIL: u32 = u32::MAX;

/// Ordering of one event slot; its payload sits in `events`.
struct Slot {
    seq: u64,
    /// Next slot in the same run (FIFO), or `NIL`.
    next: u32,
}

/// The FIFO of events due at one instant.
struct Run {
    time: SimTime,
    head: u32,
    tail: u32,
}

/// A deterministic future-event list.
///
/// ```
/// use simcore::{EventQueue, SimTime, SimDuration};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(10), "b");
/// q.push(SimTime::from_nanos(5), "a");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(5), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "b")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Min-heap of open runs by `(time, seq of the run's first event)`.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    runs: Vec<Run>,
    free_runs: Vec<u32>,
    /// The most recently opened run still in the heap (`NIL` if none): the
    /// only run a push may append to.
    last_run: u32,
    slots: Vec<Slot>,
    /// Payload lane, parallel to `slots`: `None` once fired (while the slot
    /// is on the free list).
    events: Vec<Option<E>>,
    free: Vec<u32>,
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
            heap: BinaryHeap::new(),
            runs: Vec::new(),
            free_runs: Vec::new(),
            last_run: NIL,
            slots: Vec::new(),
            events: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak: 0,
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at `time`. Times at or before the last
    /// popped instant are fine: the queue is a strict `(time, seq)` priority
    /// queue, so an event pushed "in the past" simply becomes the next
    /// minimum.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let index = self.alloc(seq, event);

        match self.runs.get_mut(self.last_run as usize) {
            Some(run) if run.time == time => {
                self.slots[run.tail as usize].next = index;
                run.tail = index;
            }
            _ => {
                let record = Run {
                    time,
                    head: index,
                    tail: index,
                };
                let run = match self.free_runs.pop() {
                    Some(run) => {
                        self.runs[run as usize] = record;
                        run
                    }
                    None => {
                        self.runs.push(record);
                        (self.runs.len() - 1) as u32
                    }
                };
                self.heap.push(Reverse((time, seq, run)));
                self.last_run = run;
            }
        }

        self.live += 1;
        self.peak = self.peak.max(self.live);
    }

    /// Pop the earliest event. Its slot is freed; an emptied run leaves the
    /// heap.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let run = self.top_run()?;
        let record = &mut self.runs[run as usize];
        let (time, head) = (record.time, record.head);
        let event = self.events[head as usize]
            .take()
            .expect("the top run's head is queued");
        self.live -= 1;
        self.free.push(head);
        let next = self.slots[head as usize].next;
        if next == NIL {
            self.heap.pop();
            self.free_runs.push(run);
            if self.last_run == run {
                self.last_run = NIL;
            }
        } else {
            record.head = next;
        }
        Some((time, event))
    }

    /// The timestamp of the earliest event, if any. O(1), `&self`.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.top_run().map(|run| self.runs[run as usize].time)
    }

    /// `(time, seq)` of the earliest event, if any. O(1), `&self`.
    ///
    /// The sequence number totally orders same-instant events (FIFO push
    /// order), which lets a caller merging an *external* sorted stream with
    /// the queue decide ties exactly: an external item ranks before the queue
    /// head iff it would have been pushed with a smaller seq.
    pub fn peek_time_seq(&self) -> Option<(SimTime, u64)> {
        self.top_run().map(|run| {
            let run = &self.runs[run as usize];
            (run.time, self.slots[run.head as usize].seq)
        })
    }

    /// The earliest event's time and payload, the payload to edit in
    /// place: the event keeps its `(time, seq)` place in line. O(1).
    pub fn peek_mut(&mut self) -> Option<(SimTime, &mut E)> {
        let run = &self.runs[self.top_run()? as usize];
        Some((run.time, self.events[run.head as usize].as_mut()?))
    }

    /// The payload of the most recent push, if it is still queued (not
    /// popped) and due at `time`. O(1).
    ///
    /// A push at `time` now would take the next seq, so no event can pop
    /// between that push and this one: a caller may fold the new event into
    /// this payload instead of pushing it, and the pop order is exact.
    pub fn last_push_mut(&mut self, time: SimTime) -> Option<&mut E> {
        // The most recent push is the tail of the newest open run; that run
        // leaves `last_run` only by emptying, which pops its tail.
        let run = self
            .runs
            .get(self.last_run as usize)
            .filter(|run| run.time == time)?;
        self.events[run.tail as usize].as_mut()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    #[doc(hidden)] // clippy pairs it with `len`
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total events ever scheduled (diagnostic; monotone).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// High-water mark of pending entries over the queue's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    fn top_run(&self) -> Option<u32> {
        self.heap.peek().map(|&Reverse((_, _, run))| run)
    }

    fn alloc(&mut self, seq: u64, event: E) -> u32 {
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            slot.seq = seq;
            slot.next = NIL;
            self.events[index as usize] = Some(event);
            index
        } else {
            let index = u32::try_from(self.slots.len()).expect("slots fit in u32 indices");
            assert_ne!(index, NIL, "event slots full");
            self.slots.push(Slot { seq, next: NIL });
            self.events.push(Some(event));
            index
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
        // 10k events at one tick pop in exact push order from one run.
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
    fn runs_at_one_instant_keep_push_order() {
        // Two runs open at t=5 (a push at t=7 sits between them); a push at
        // t=5 appends to the newer one, so FIFO order holds across both.
        let mut q = EventQueue::new();
        q.push(t(5), "a1");
        q.push(t(5), "a2");
        q.push(t(7), "x");
        q.push(t(5), "b1");
        assert_eq!(q.pop(), Some((t(5), "a1")));
        q.push(t(5), "b2");
        assert_eq!(q.peek_time_seq(), Some((t(5), 1)));
        assert_eq!(q.pop(), Some((t(5), "a2")));
        assert_eq!(q.pop(), Some((t(5), "b1")));
        assert_eq!(q.pop(), Some((t(5), "b2")));
        assert_eq!(q.pop(), Some((t(7), "x")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn last_push_mut_names_only_the_most_recent_push_while_queued() {
        let mut q = EventQueue::new();
        q.push(t(5), 1);
        assert_eq!(q.last_push_mut(t(5)), Some(&mut 1));
        assert_eq!(q.last_push_mut(t(6)), None, "due at another instant");
        q.push(t(7), 2);
        assert_eq!(q.last_push_mut(t(5)), None, "no longer the most recent");
        *q.last_push_mut(t(7)).unwrap() += 10;
        q.push(t(9), 4);
        assert_eq!(q.pop(), Some((t(5), 1)));
        assert_eq!(q.pop(), Some((t(7), 12)));
        assert_eq!(q.pop(), Some((t(9), 4)));
        assert_eq!(q.last_push_mut(t(9)), None, "popped");
    }

    #[test]
    fn peek_mut_edits_the_head_in_place() {
        let mut q = EventQueue::new();
        q.push(t(5), 1);
        q.push(t(5), 2);
        let (time, head) = q.peek_mut().unwrap();
        assert_eq!(time, t(5));
        *head = 10;
        q.push(t(5), 3);
        assert_eq!(q.peek_time_seq(), Some((t(5), 0)));
        assert_eq!(q.pop(), Some((t(5), 10)));
        assert_eq!(q.pop(), Some((t(5), 2)));
        assert_eq!(q.pop(), Some((t(5), 3)));
        assert_eq!(q.peek_mut(), None);
    }

    #[test]
    fn events_in_the_past_and_at_now_still_fire_in_order() {
        // After popping at t=100, events pushed at or before 100 are still
        // delivered, in (time, seq) order.
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
    fn extreme_times_pop_in_order() {
        // Times from zero to u64::MAX (SimTime::FAR_FUTURE), pushed in
        // scrambled order, pop sorted.
        let mut q = EventQueue::new();
        let times: &[u64] = &[
            0,
            63,
            64,
            64 * 64 - 1,
            64 * 64,
            64u64.pow(5) - 1,
            64u64.pow(5),
            u64::MAX - 1,
            u64::MAX,
        ];
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
        q.push(t(1), 1);
        q.push(t(2), 2);
        assert_eq!(q.len(), 2);
        q.pop();
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
