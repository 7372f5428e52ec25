//! A lazy index over keyed deadlines whose minimum is an exact O(1) peek.
//!
//! Flow tables, FlowMemory, the controller's due lists and the dispatcher
//! all hold entries that each carry one deadline, are touched far more often
//! than they come due, and must answer "when is the next one due?" exactly
//! on every event. A [`DeadlineIndex`] is that answer, written once: a
//! min-heap of `(deadline, key)` *records* beside an owner that keeps the
//! truth — each entry's current deadline, or that the entry is gone. The
//! index never sees the entries; the owner passes the truth to
//! [`DeadlineIndex::settle`] as a closure.
//!
//! Two invariants hold whenever the owner has settled after a change:
//!
//! * **Covered.** Every live entry has a record at or before its current
//!   deadline. [`file`](DeadlineIndex::file) one when the entry is born.
//!   A deadline that moves *later* (the common touch) needs nothing: the old
//!   record still covers it. A deadline that moves *earlier* — the
//!   backwards-touch rule, which windowed PDES re-stamping makes real —
//!   needs a second record at the new instant; [`moved`](DeadlineIndex::moved)
//!   files it in exactly that case and the old record stays behind.
//!   Removing an entry needs nothing either.
//! * **Accurate top.** The top record's entry is live and is due at exactly
//!   the record's instant. `settle` restores this: it drops a top whose key
//!   is gone and re-keys in place (one sift-down, no push) a top whose
//!   deadline has moved, until the top tells the truth or nothing is left.
//!
//! Together they make the top the minimum `(deadline, key)` over all live
//! entries — every entry's record sorts at or before the entry's truth, and
//! the top *is* a truth — so [`next`](DeadlineIndex::next) and
//! [`peek`](DeadlineIndex::peek) are plain reads, entries due at one
//! instant surface in key order, and [`pop_due`](DeadlineIndex::pop_due)
//! hands out due entries smallest first provided the owner settles between
//! pops.
//!
//! Records below the top may be early (their entry was touched since), dead
//! (their entry was removed) or duplicates; each is fixed when it surfaces.
//! So [`len`](DeadlineIndex::len) is bounded by live entries + entries
//! removed whose record has not surfaced yet + backwards moves, whatever the
//! number of forward touches.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::SimTime;

/// See the [module documentation](self). `K`'s order breaks deadline ties.
#[derive(Debug)]
pub struct DeadlineIndex<K> {
    heap: BinaryHeap<Reverse<(SimTime, K)>>,
}

impl<K: Ord> Default for DeadlineIndex<K> {
    fn default() -> Self {
        DeadlineIndex {
            heap: BinaryHeap::new(),
        }
    }
}

impl<K: Ord + Copy> DeadlineIndex<K> {
    /// Add a record: `key` is due at `at` (or earlier than its true deadline).
    pub fn file(&mut self, at: SimTime, key: K) {
        self.heap.push(Reverse((at, key)));
    }

    /// `key`'s deadline changed from `from` to `to`. Files a record only
    /// when it moved earlier; a later deadline is covered already.
    pub fn moved(&mut self, key: K, from: SimTime, to: SimTime) {
        if to < from {
            self.file(to, key);
        }
    }

    /// The earliest deadline. Exact once settled.
    pub fn next(&self) -> Option<SimTime> {
        self.peek().map(|(at, _)| at)
    }

    /// The earliest `(deadline, key)`. Exact once settled.
    pub fn peek(&self) -> Option<(SimTime, K)> {
        self.heap.peek().map(|&Reverse(record)| record)
    }

    /// Remove and return the top record if it is due at or before `now`.
    /// The owner removes (or re-deadlines) the entry, then settles.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, K)> {
        let top = self.heap.peek_mut().filter(|top| top.0 .0 <= now)?;
        Some(PeekMut::pop(top).0)
    }

    /// Restore *accurate top* against the owner's truth: `current(&key)` is
    /// the key's deadline now, `None` once its entry is gone.
    pub fn settle(&mut self, mut current: impl FnMut(&K) -> Option<SimTime>) {
        while let Some(mut top) = self.heap.peek_mut() {
            let Reverse((at, key)) = *top;
            match current(&key) {
                Some(deadline) if deadline == at => break,
                // The record sifts to its new place when `top` drops.
                Some(deadline) => *top = Reverse((deadline, key)),
                None => {
                    PeekMut::pop(top);
                }
            }
        }
    }

    /// Every record, in no particular order (tests and diagnostics).
    pub fn records(&self) -> impl Iterator<Item = (SimTime, K)> + '_ {
        self.heap.iter().map(|&Reverse(record)| record)
    }

    /// How many records are held; see the module doc for the bound.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}
