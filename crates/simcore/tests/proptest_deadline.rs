//! Model tests of the two schedules in `simcore::deadline`, each against a
//! `BTreeMap` truth driven at **non-monotone** instants (every op draws its
//! own instant — a windowed PDES shard re-stamps entries behind the latest
//! touch).
//!
//! [`DeadlineIndex`]: births, deadline moves, removals and due-pops; after
//! every op `next()` / `peek()` are the brute-force minimum, every live key
//! is *covered*, and `len()` stays within live keys + removed keys whose
//! record has not surfaced + backwards moves. Two mutated owners — one whose
//! `moved` never files, one whose `moved` files on every move — must each
//! fail it.
//!
//! [`IdleOrder`]: links, touches, unlinks and due-pops over several timeout
//! classes; after every op each class's list holds exactly its members in
//! touch order, `front` is the brute-force oldest, `next` the brute-force
//! earliest deadline. An owner that stamps a touch without relinking must
//! fail it. (The other mutation, an unlink that leaves a stale tail, needs
//! the list's insides and is a unit test in `deadline.rs`.)

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use simcore::{DeadlineIndex, IdleOrder, SimDuration, SimTime};

#[derive(Debug, Clone)]
enum Op {
    /// A new key (the next ordinal) is born with this deadline.
    File { at: u64 },
    /// The n-th live key's deadline moves here — earlier as often as later.
    Move { n: usize, to: u64 },
    /// The n-th live key is removed; its record stays behind.
    Remove { n: usize },
    /// Everything due at or before this instant is popped.
    PopDue { now: u64 },
}

/// What the owner does when a deadline moves.
#[derive(Clone, Copy)]
enum Owner {
    /// Calls `moved(key, from, to)`.
    Honest,
    /// Mutation: `moved` as if it ignored `to < from` and never filed.
    NeverFiles,
    /// Mutation: `moved` as if it ignored `to < from` and always filed.
    AlwaysFiles,
}

fn t(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

#[derive(Default)]
struct Model {
    truth: BTreeMap<u32, SimTime>,
    index: DeadlineIndex<u32>,
    born: u32,
    backwards_moves: usize,
}

impl Model {
    fn settle(&mut self) {
        let truth = &self.truth;
        self.index.settle(|key| truth.get(key).copied());
    }

    fn nth_live(&self, n: usize) -> Option<u32> {
        let live = self.truth.len();
        (live > 0).then(|| *self.truth.keys().nth(n % live).expect("n % live < live"))
    }

    fn minimum(&self) -> Option<(SimTime, u32)> {
        self.truth.iter().map(|(&key, &at)| (at, key)).min()
    }

    fn apply(&mut self, op: &Op, owner: Owner) -> Result<(), String> {
        match *op {
            Op::File { at } => {
                let key = self.born;
                self.born += 1;
                self.truth.insert(key, t(at));
                self.index.file(t(at), key);
            }
            Op::Move { n, to } => {
                if let Some(key) = self.nth_live(n) {
                    let from = self.truth.insert(key, t(to)).expect("live key");
                    self.backwards_moves += usize::from(t(to) < from);
                    match owner {
                        Owner::Honest => self.index.moved(key, from, t(to)),
                        Owner::NeverFiles => {}
                        Owner::AlwaysFiles => self.index.file(t(to), key),
                    }
                }
            }
            Op::Remove { n } => {
                if let Some(key) = self.nth_live(n) {
                    self.truth.remove(&key);
                }
            }
            Op::PopDue { now } => {
                self.settle();
                while let Some(popped) = self.index.pop_due(t(now)) {
                    if Some(popped) != self.minimum() {
                        return Err(format!(
                            "pop_due({now}) gave {popped:?}, the minimum is {:?}",
                            self.minimum()
                        ));
                    }
                    self.truth.remove(&popped.1);
                    self.settle();
                }
                if let Some(left) = self.minimum().filter(|&(at, _)| at <= t(now)) {
                    return Err(format!("pop_due({now}) left {left:?} behind"));
                }
            }
        }
        self.settle();
        self.check()
    }

    fn check(&self) -> Result<(), String> {
        if self.index.peek() != self.minimum() {
            return Err(format!(
                "peek() = {:?}, brute force {:?}",
                self.index.peek(),
                self.minimum()
            ));
        }
        if self.index.next() != self.minimum().map(|(at, _)| at) {
            return Err(format!("next() = {:?}", self.index.next()));
        }
        for (&key, &at) in &self.truth {
            if !self.index.records().any(|(r, k)| k == key && r <= at) {
                return Err(format!("key {key} due {at:?} is not covered"));
            }
        }
        let unsurfaced: BTreeSet<u32> = self
            .index
            .records()
            .map(|(_, key)| key)
            .filter(|key| !self.truth.contains_key(key))
            .collect();
        let bound = self.truth.len() + unsurfaced.len() + self.backwards_moves;
        if self.index.len() > bound {
            return Err(format!(
                "{} records for {} live + {} unsurfaced + {} backwards moves",
                self.index.len(),
                self.truth.len(),
                unsurfaced.len(),
                self.backwards_moves
            ));
        }
        Ok(())
    }
}

fn run(ops: &[Op], owner: Owner) -> Result<(), String> {
    let mut model = Model::default();
    ops.iter().try_for_each(|op| model.apply(op, owner))
}

/// A narrow band of instants, so deadlines tie and the key order matters.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..48).prop_map(|at| Op::File { at }),
        6 => (0usize..16, 0u64..48).prop_map(|(n, to)| Op::Move { n, to }),
        2 => (0usize..16).prop_map(|n| Op::Remove { n }),
        2 => (0u64..48).prop_map(|now| Op::PopDue { now }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn index_matches_brute_force_under_non_monotone_time(
        ops in prop::collection::vec(op_strategy(), 0..120),
    ) {
        let outcome = run(&ops, Owner::Honest);
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }
}

#[test]
fn a_moved_that_never_files_loses_the_minimum() {
    // Key 1 moves in front of key 0 without being the top.
    let ops = [
        Op::File { at: 10 },
        Op::File { at: 20 },
        Op::Move { n: 1, to: 5 },
    ];
    run(&ops, Owner::Honest).unwrap();
    let err = run(&ops, Owner::NeverFiles).unwrap_err();
    assert!(err.contains("brute force Some((SimTime(5), 1))"), "{err}");
}

#[test]
fn a_moved_that_always_files_breaks_the_record_bound() {
    let ops = [Op::File { at: 10 }, Op::Move { n: 0, to: 20 }];
    run(&ops, Owner::Honest).unwrap();
    let err = run(&ops, Owner::AlwaysFiles).unwrap_err();
    assert!(err.starts_with("2 records for 1 live"), "{err}");
}

/// What an [`IdleOrder`] owner does on a touch.
#[derive(Clone, Copy)]
enum Toucher {
    /// Stamps the handle and calls `touch`.
    Honest,
    /// Mutation: stamps the handle and leaves the list as it was.
    StampsOnly,
}

/// Three timeout classes, in ns, on the same narrow band of instants.
const CLASSES: [u64; 3] = [10, 20, 35];

#[derive(Debug, Clone)]
enum IdleOp {
    /// Handle `h`, unless already linked, joins a class touched at `at`.
    Link { h: u32, class: usize, at: u64 },
    /// Handle `h`, if linked, is touched at `at` — before its last touch as
    /// often as after.
    Touch { h: u32, at: u64 },
    /// Handle `h`, if linked, leaves.
    Unlink { h: u32 },
    /// Every member due at or before this instant leaves, one `first_due`
    /// at a time.
    Expire { now: u64 },
}

#[derive(Default)]
struct IdleModel {
    /// Handle → its class's timeout and its last touch.
    truth: BTreeMap<u32, (SimDuration, SimTime)>,
    order: IdleOrder,
}

fn timeout(class: usize) -> SimDuration {
    SimDuration::from_nanos(CLASSES[class])
}

impl IdleModel {
    fn stamp(&self, h: u32) -> SimTime {
        self.truth.get(&h).expect("only live handles are listed").1
    }

    fn apply(&mut self, op: &IdleOp, toucher: Toucher) -> Result<(), String> {
        match *op {
            IdleOp::Link { h, class, at } => {
                if let Entry::Vacant(vacant) = self.truth.entry(h) {
                    vacant.insert((timeout(class), t(at)));
                    let truth = &self.truth;
                    self.order.link(h, timeout(class), t(at), |x| truth[&x].1);
                }
            }
            IdleOp::Touch { h, at } => {
                if let Some(&(idle, from)) = self.truth.get(&h) {
                    if let Toucher::Honest = toucher {
                        let truth = &self.truth;
                        self.order.touch(h, idle, from, t(at), |x| truth[&x].1);
                    }
                    self.truth.insert(h, (idle, t(at)));
                }
            }
            IdleOp::Unlink { h } => {
                if let Some((idle, _)) = self.truth.remove(&h) {
                    let truth = &self.truth;
                    self.order.unlink(h, idle, |x| truth[&x].1);
                }
            }
            IdleOp::Expire { now } => {
                while let Some(h) = self.order.first_due(t(now)) {
                    let (idle, at) = self.truth[&h];
                    if at + idle > t(now) {
                        return Err(format!("first_due({now}) gave {h}, due {:?}", at + idle));
                    }
                    self.truth.remove(&h);
                    let truth = &self.truth;
                    self.order.unlink(h, idle, |x| truth[&x].1);
                }
                if let Some(h) = self
                    .truth
                    .iter()
                    .find(|(_, &(idle, at))| at + idle <= t(now))
                {
                    return Err(format!("expire({now}) left {h:?} behind"));
                }
            }
        }
        self.check()
    }

    fn check(&self) -> Result<(), String> {
        for class in 0..CLASSES.len() {
            let idle = timeout(class);
            let listed: Vec<u32> = self.order.iter(idle).collect();
            let mut sorted = listed.clone();
            sorted.sort_unstable();
            let members: Vec<u32> = self
                .truth
                .iter()
                .filter(|(_, &(of, _))| of == idle)
                .map(|(&h, _)| h)
                .collect();
            if sorted != members {
                return Err(format!(
                    "class {idle:?} lists {listed:?}, members {members:?}"
                ));
            }
            let stamps: Vec<SimTime> = listed.iter().map(|&h| self.stamp(h)).collect();
            if stamps.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("class {idle:?} out of touch order: {stamps:?}"));
            }
            let oldest = stamps.iter().min().copied();
            let front = self.order.front(idle).map(|h| self.stamp(h));
            if front != oldest {
                return Err(format!(
                    "front of {idle:?} stamped {front:?}, brute force {oldest:?}"
                ));
            }
        }
        let earliest = self.truth.values().map(|&(idle, at)| at + idle).min();
        if self.order.next() != earliest {
            return Err(format!("next() differs from brute force {earliest:?}"));
        }
        if self.order.len() != self.truth.len() {
            return Err(format!(
                "len() = {} for {} members",
                self.order.len(),
                self.truth.len()
            ));
        }
        Ok(())
    }
}

fn run_idle(ops: &[IdleOp], toucher: Toucher) -> Result<(), String> {
    let mut model = IdleModel::default();
    ops.iter().try_for_each(|op| model.apply(op, toucher))
}

fn idle_op_strategy() -> impl Strategy<Value = IdleOp> {
    prop_oneof![
        4 => (0u32..12, 0..CLASSES.len(), 0u64..48).prop_map(|(h, class, at)| IdleOp::Link { h, class, at }),
        6 => (0u32..12, 0u64..48).prop_map(|(h, at)| IdleOp::Touch { h, at }),
        2 => (0u32..12).prop_map(|h| IdleOp::Unlink { h }),
        2 => (0u64..80).prop_map(|now| IdleOp::Expire { now }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn idle_order_matches_brute_force_under_non_monotone_time(
        ops in prop::collection::vec(idle_op_strategy(), 0..120),
    ) {
        let outcome = run_idle(&ops, Toucher::Honest);
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }
}

#[test]
fn a_touch_that_stamps_without_relinking_is_caught() {
    // Handle 0, the head, is touched after handle 1 and must move behind it.
    let ops = [
        IdleOp::Link {
            h: 0,
            class: 0,
            at: 10,
        },
        IdleOp::Link {
            h: 1,
            class: 0,
            at: 20,
        },
        IdleOp::Touch { h: 0, at: 30 },
    ];
    run_idle(&ops, Toucher::Honest).unwrap();
    let err = run_idle(&ops, Toucher::StampsOnly).unwrap_err();
    assert!(err.contains("out of touch order"), "{err}");
}
