//! The two deadline schedules behind every timeout and due list: a lazy
//! index over keyed deadlines and a touch-ordered list of idle timeouts,
//! each with an exact next-due answer.
//!
//! Flow tables, FlowMemory, the controller's due lists and the dispatcher
//! all hold entries that each carry one deadline, are touched far more often
//! than they come due, and must answer "when is the next one due?" exactly
//! on every event. Which of the two applies depends on how the deadline is
//! made:
//!
//! * An entry that idles out — due a fixed `timeout` after its last touch —
//!   goes in an [`IdleOrder`]. Entries that share a timeout come due in the
//!   order they were last touched, so a list per timeout *class*, kept in
//!   touch order, has its oldest entry at the head: a touch is a
//!   move-to-tail, a removal an unlink, the next deadline the minimum over
//!   class heads. No record is ever left behind.
//! * Any other deadline — a hard timeout, a due time computed by a policy —
//!   goes in a [`DeadlineIndex`].
//!
//! # `IdleOrder`
//!
//! One doubly-linked list of `u32` handles per idle timeout, threaded through
//! a links array indexed by handle; the owner keeps each entry's last-touch
//! stamp and lends it through a closure when the order needs to compare.
//! Invariant: **sorted** — every list runs in non-decreasing stamp order,
//! head first, and holds exactly the owner's entries of its class. A class
//! exists while it has members, and knows the stamps of its two ends, so
//! [`next`](IdleOrder::next) and [`first_due`](IdleOrder::first_due) read no
//! owner state and an append compares against the tail without one.
//!
//! A touch stamped at or after the tail's stamp is an O(1) move to the tail.
//! One stamped *earlier* — the backwards-touch rule, which windowed PDES
//! re-stamping makes real — walks back from the tail to its sorted place,
//! past exactly the members stamped after it. A shard re-stamps only inside
//! one lookahead window, so the walk is bounded by one window's touches.
//! Entries stamped at one instant stay in touch order.
//!
//! # `DeadlineIndex`
//!
//! A min-heap of `(deadline, key)` *records* beside an owner that keeps the
//! truth — each entry's current deadline, or that the entry is gone. The
//! index never sees the entries; the owner passes the truth to
//! [`DeadlineIndex::settle`] as a closure.
//!
//! Two invariants hold whenever the owner has settled after a change:
//!
//! * **Covered.** Every live entry has a record at or before its current
//!   deadline. [`file`](DeadlineIndex::file) one when the entry is born.
//!   A deadline that moves *later* (the common touch) needs nothing: the old
//!   record still covers it. A deadline that moves *earlier* (the
//!   backwards-touch rule again) needs a second record at the new instant;
//!   [`moved`](DeadlineIndex::moved) files it in exactly that case and the
//!   old record stays behind. Removing an entry needs nothing either.
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

use crate::{SimDuration, SimTime};

/// No handle: the end of a list.
const NIL: u32 = u32::MAX;

/// A handle's neighbours in its class's list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Link {
    prev: u32,
    next: u32,
}

impl Link {
    const UNLINKED: Link = Link {
        prev: NIL,
        next: NIL,
    };
}

/// The members that idle out `timeout` after their last touch, with the
/// stamps of the two ends — a member's stamp is the `at` of its last `link` /
/// `touch`, so the ends' are known without asking the owner.
#[derive(Debug, Clone, Copy)]
struct Class {
    timeout: SimDuration,
    head: u32,
    tail: u32,
    head_at: SimTime,
    tail_at: SimTime,
}

/// See the [module documentation](self). The owner stamps an entry with the
/// same instant it passes to [`link`](Self::link) / [`touch`](Self::touch);
/// the operations that may need another member's stamp take `stamp`, the
/// owner's last-touch instant of a handle, and never ask it for the handle
/// being placed or removed.
#[derive(Debug, Default)]
pub struct IdleOrder {
    /// Indexed by handle; a handle in no list reads [`Link::UNLINKED`].
    links: Vec<Link>,
    /// One per timeout with members, in order of creation.
    classes: Vec<Class>,
    len: usize,
}

impl IdleOrder {
    /// Add `handle`, touched at `at`, to the list of `timeout`.
    pub fn link(
        &mut self,
        handle: u32,
        timeout: SimDuration,
        at: SimTime,
        stamp: impl Fn(u32) -> SimTime,
    ) {
        assert!(handle != NIL, "handle {NIL} is reserved");
        let h = handle as usize;
        if h >= self.links.len() {
            self.links.resize(h + 1, Link::UNLINKED);
        }
        let class = self.class_of(timeout).unwrap_or_else(|| {
            self.classes.push(Class {
                timeout,
                head: NIL,
                tail: NIL,
                head_at: at,
                tail_at: at,
            });
            self.classes.len() - 1
        });
        self.place(class, handle, at, stamp);
        self.len += 1;
    }

    /// `handle`, a member of the list of `timeout` last touched at `from`,
    /// was touched again at `at`. A touch at the same instant keeps its place.
    pub fn touch(
        &mut self,
        handle: u32,
        timeout: SimDuration,
        from: SimTime,
        at: SimTime,
        stamp: impl Fn(u32) -> SimTime,
    ) {
        if at == from {
            return;
        }
        let class = self.member_class(timeout);
        let c = &mut self.classes[class];
        // The tail touched again no earlier than its last touch stays put.
        if c.tail == handle && at >= c.tail_at {
            c.tail_at = at;
            if c.head == handle {
                c.head_at = at;
            }
            return;
        }
        self.detach(class, handle, &stamp);
        self.place(class, handle, at, stamp);
    }

    /// Take `handle` out of the list of `timeout`.
    pub fn unlink(&mut self, handle: u32, timeout: SimDuration, stamp: impl Fn(u32) -> SimTime) {
        let class = self.member_class(timeout);
        self.detach(class, handle, stamp);
        self.len -= 1;
        if self.classes[class].head == NIL {
            self.classes.swap_remove(class);
        }
    }

    /// The least recently touched member of the list of `timeout`.
    pub fn front(&self, timeout: SimDuration) -> Option<u32> {
        self.class_of(timeout).map(|c| self.classes[c].head)
    }

    /// The earliest deadline: the minimum over class heads of the head's
    /// stamp plus its class's timeout. O(classes), no owner read.
    pub fn next(&self) -> Option<SimTime> {
        self.classes.iter().map(|c| c.head_at + c.timeout).min()
    }

    /// A class head due at or before `now`, if any; the owner unlinks it.
    pub fn first_due(&self, now: SimTime) -> Option<u32> {
        self.classes
            .iter()
            .find(|c| c.head_at + c.timeout <= now)
            .map(|c| c.head)
    }

    /// The members of the list of `timeout`, head first (tests and
    /// diagnostics).
    pub fn iter(&self, timeout: SimDuration) -> impl Iterator<Item = u32> + '_ {
        let mut at = self.front(timeout).unwrap_or(NIL);
        std::iter::from_fn(move || {
            let handle = (at != NIL).then_some(at)?;
            at = self.links[handle as usize].next;
            Some(handle)
        })
    }

    /// Pre-size the links for handles up to `additional` past the largest
    /// seen so far.
    pub fn reserve(&mut self, additional: usize) {
        self.links.reserve(additional);
    }

    /// How many handles are linked, over all classes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn class_of(&self, timeout: SimDuration) -> Option<usize> {
        self.classes.iter().position(|c| c.timeout == timeout)
    }

    fn member_class(&self, timeout: SimDuration) -> usize {
        self.class_of(timeout)
            .expect("a linked handle's class exists")
    }

    /// Insert an unlinked `handle` after the last member of `class` stamped
    /// at or before `at` — the tail, unless the touch is stamped in the past.
    fn place(&mut self, class: usize, handle: u32, at: SimTime, stamp: impl Fn(u32) -> SimTime) {
        let c = self.classes[class];
        let mut prev = c.tail;
        if prev != NIL && c.tail_at > at {
            prev = self.links[prev as usize].prev;
            while prev != NIL && stamp(prev) > at {
                prev = self.links[prev as usize].prev;
            }
        }
        let next = match prev {
            NIL => c.head,
            p => self.links[p as usize].next,
        };
        self.links[handle as usize] = Link { prev, next };
        let c = &mut self.classes[class];
        match prev {
            NIL => (c.head, c.head_at) = (handle, at),
            p => self.links[p as usize].next = handle,
        }
        match next {
            NIL => (c.tail, c.tail_at) = (handle, at),
            n => self.links[n as usize].prev = handle,
        }
    }

    /// Take `handle` out of `class`'s list, leaving the class in place; a new
    /// end's stamp is read from the owner.
    fn detach(&mut self, class: usize, handle: u32, stamp: impl Fn(u32) -> SimTime) {
        let Link { prev, next } =
            std::mem::replace(&mut self.links[handle as usize], Link::UNLINKED);
        let c = &mut self.classes[class];
        match prev {
            NIL => {
                c.head = next;
                if next != NIL {
                    c.head_at = stamp(next);
                }
            }
            p => self.links[p as usize].next = next,
        }
        match next {
            NIL => {
                c.tail = prev;
                if prev != NIL {
                    c.tail_at = stamp(prev);
                }
            }
            n => self.links[n as usize].prev = prev,
        }
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    const IDLE: SimDuration = SimDuration::from_nanos(10);

    /// Mutation: an unlink of the tail that leaves the class's `tail` naming
    /// the departed handle. The next member linked hangs off the dead handle
    /// instead of the list, and the forward walk — what `front` and every
    /// eviction read — loses it. Without the corruption the same ops keep
    /// the list whole.
    #[test]
    fn an_unlink_that_leaves_a_stale_tail_is_caught() {
        let stamps = [1u64, 2, 3, 4];
        let stamp = |h: u32| SimTime::from_nanos(stamps[h as usize]);
        let run = |stale_tail: bool| -> Vec<u32> {
            let mut order = IdleOrder::default();
            for h in 0..3 {
                order.link(h, IDLE, stamp(h), stamp);
            }
            order.unlink(2, IDLE, stamp);
            if stale_tail {
                order.classes[0].tail = 2;
            }
            order.link(3, IDLE, stamp(3), stamp);
            order.iter(IDLE).collect()
        };
        assert_eq!(run(false), vec![0, 1, 3]);
        assert_eq!(run(true), vec![0, 1], "the member linked after is lost");
    }
}
