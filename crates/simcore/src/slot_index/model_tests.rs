//! Model test of `SlotIndex` against a `BTreeMap` truth. The owner
//! is a slab of keys with a free list, as the flow table's is; each case
//! draws every key's hash from a narrow band, so keys collide, share homes,
//! and run past the end of the array and wrap. Inserts, repoints, removals,
//! lookups and `reserve` come in any order. After every op each key the
//! model holds is found at its slot, every other key of the universe is
//! absent, and the load is at most ½.
//!
//! Two mutations of `remove_at` each fail it: emptying the bucket without
//! the backward shift (a key further along the run becomes unreachable), and
//! a shift that ignores the entry's home (a key lands before its home, where
//! no probe looks).

use std::collections::BTreeMap;

use crate::slot_index::{Probe, SlotIndex};
use proptest::prelude::*;

/// Keys `0..KEYS`.
const KEYS: u16 = 40;

#[derive(Debug, Clone)]
enum Op {
    /// Insert `key`, or, if stored, point it at a fresh slot.
    Insert {
        key: u16,
    },
    Remove {
        key: u16,
    },
    Get {
        key: u16,
    },
    /// `reserve(additional)`.
    Grow {
        additional: usize,
    },
}

struct Owner {
    /// Each key's hash, drawn per case.
    hashes: Vec<u32>,
    /// Slot → the key its record holds.
    records: Vec<Option<u16>>,
    free: Vec<u32>,
    index: SlotIndex,
    truth: BTreeMap<u16, u32>,
}

impl Owner {
    fn new(hashes: Vec<u32>) -> Owner {
        Owner {
            hashes,
            records: Vec::new(),
            free: Vec::new(),
            index: SlotIndex::default(),
            truth: BTreeMap::new(),
        }
    }

    fn probe(&self, key: u16) -> Probe {
        let records = &self.records;
        self.index.probe(self.hashes[key as usize], |s| {
            records[s as usize] == Some(key)
        })
    }

    fn alloc(&mut self, key: u16) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.records[slot as usize] = Some(key);
                slot
            }
            None => {
                self.records.push(Some(key));
                (self.records.len() - 1) as u32
            }
        }
    }

    fn release(&mut self, slot: u32) {
        self.records[slot as usize] = None;
        self.free.push(slot);
    }

    fn apply(&mut self, op: &Op) -> Result<(), String> {
        match *op {
            Op::Insert { key } => {
                let hash = self.hashes[key as usize];
                match (self.probe(key), self.truth.get(&key).copied()) {
                    (Probe::Vacant { bucket }, None) => {
                        let slot = self.alloc(key);
                        self.index.insert_at(bucket, hash, slot);
                        self.truth.insert(key, slot);
                    }
                    (Probe::Found { bucket, slot }, Some(want)) if slot == want => {
                        let fresh = self.alloc(key);
                        self.index.set(bucket, fresh);
                        self.release(slot);
                        self.truth.insert(key, fresh);
                    }
                    (probe, want) => {
                        return Err(format!("insert {key}: probe {probe:?}, model {want:?}"))
                    }
                }
            }
            Op::Remove { key } => match (self.probe(key), self.truth.get(&key).copied()) {
                (Probe::Found { bucket, slot }, Some(want)) if slot == want => {
                    self.index.remove_at(bucket);
                    self.release(slot);
                    self.truth.remove(&key);
                }
                (Probe::Vacant { .. }, None) => {}
                (probe, want) => {
                    return Err(format!("remove {key}: probe {probe:?}, model {want:?}"))
                }
            },
            Op::Get { key } => {
                let got = match self.probe(key) {
                    Probe::Found { slot, .. } => Some(slot),
                    Probe::Vacant { .. } => None,
                };
                if got != self.truth.get(&key).copied() {
                    return Err(format!(
                        "probe({key}) = {got:?}, model {:?}",
                        self.truth.get(&key)
                    ));
                }
            }
            Op::Grow { additional } => self.index.reserve(additional),
        }
        self.check()
    }

    fn check(&self) -> Result<(), String> {
        for key in 0..KEYS {
            let records = &self.records;
            let got = self.index.get(self.hashes[key as usize], |s| {
                records[s as usize] == Some(key)
            });
            let want = self.truth.get(&key).copied();
            if got != want {
                return Err(format!("get({key}) = {got:?}, model {want:?}"));
            }
        }
        if self.index.len() != self.truth.len() || self.index.entries().count() != self.truth.len()
        {
            return Err(format!(
                "len() = {}, {} entries, model {}",
                self.index.len(),
                self.index.entries().count(),
                self.truth.len()
            ));
        }
        if 2 * self.index.len() > self.index.capacity() {
            return Err(format!(
                "{} keys in {} buckets",
                self.index.len(),
                self.index.capacity()
            ));
        }
        Ok(())
    }
}

fn run(hashes: Vec<u32>, ops: &[Op]) -> Result<(), String> {
    let mut owner = Owner::new(hashes);
    ops.iter().try_for_each(|op| owner.apply(op))
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..KEYS).prop_map(|key| Op::Insert { key }),
        4 => (0..KEYS).prop_map(|key| Op::Remove { key }),
        2 => (0..KEYS).prop_map(|key| Op::Get { key }),
        1 => (0usize..40).prop_map(|additional| Op::Grow { additional }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn slot_index_matches_a_btreemap_under_colliding_hashes(
        // Hashes in 0..48: homes collide in the 16- and 32-bucket arrays,
        // and a run that starts near the end wraps to the front.
        hashes in prop::collection::vec(0u32..48, KEYS as usize),
        ops in prop::collection::vec(op_strategy(), 0..160),
    ) {
        let outcome = run(hashes, &ops);
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }
}

#[test]
fn a_full_array_of_one_hash_wraps_and_drains() {
    // Eight keys on one home at the array's last bucket, then removed in an
    // order that shifts every run member back across the wrap.
    let hashes = vec![15; KEYS as usize];
    let mut ops: Vec<Op> = (0..8).map(|key| Op::Insert { key }).collect();
    ops.extend([3, 0, 7, 1, 2, 6, 5, 4].map(|key| Op::Remove { key }));
    run(hashes, &ops).unwrap();
}
