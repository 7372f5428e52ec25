//! Model test of [`simcore::DeadlineIndex`]: an owner holding the truth in a
//! `BTreeMap<key, deadline>` drives births, deadline moves, removals and
//! due-pops at **non-monotone** instants (every op draws its own instant —
//! a windowed PDES shard re-stamps entries behind the latest touch), and
//! after every op the index must agree with a brute-force scan of the
//! truth: `next()` / `peek()` are the minimum, every live key is *covered*,
//! and `len()` stays within live keys + removed keys whose record has not
//! surfaced + backwards moves. Two mutated owners — one whose `moved`
//! never files, one whose `moved` files on every move — must each fail it.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use simcore::{DeadlineIndex, SimTime};

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
