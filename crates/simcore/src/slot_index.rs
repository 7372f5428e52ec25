//! An open-addressing index from an owner's keys to `u32` slots, eight bytes
//! a bucket: the structure a flow table finds its exact-match records by.
//!
//! The index never sees a key. Each bucket holds a key's 32-bit hash and the
//! slot of the owner's record that stores the key; every lookup takes the
//! hash and an `eq(slot)` test that compares the wanted key against that
//! record. A probe compares hashes first and calls `eq` only on a hash
//! match, so a hit reads one owner record and a miss usually none.
//!
//! * **Layout.** A power-of-two array of `(hash, slot)` buckets; a key's
//!   *home* is bucket `hash & mask`, and a probe walks forward from it,
//!   wrapping at the end. The load stays at or below ½: an insert that
//!   would pass it doubles the array and re-places every bucket by its
//!   stored hash, without asking the owner.
//! * **Invariant (probe run).** Every entry sits at or after its home, and no
//!   empty bucket lies between the two. So a probe stops at the first empty
//!   bucket, and a key absent from the index belongs in that bucket:
//!   [`SlotIndex::probe`] returns it, and [`SlotIndex::insert_at`] fills it
//!   with no second walk.
//! * **Deletion by backward shift.** Removing an entry leaves a hole. The walk
//!   continues past it: an entry whose home lies cyclically outside
//!   `(hole, here]` may move back into the hole (its run stays unbroken), and
//!   the hole moves to where it was; an entry whose home lies inside must stay,
//!   because moving it would put it before its home. The walk stops at an
//!   empty bucket. No tombstone is ever left, so a table of constant
//!   residency never grows, however many keys pass through it.
//!
//! [`Probe`] names a bucket by position; a position is valid until the next
//! `&mut` call.

/// No slot: an empty bucket.
const EMPTY: u32 = u32::MAX;
/// The smallest array an insert allocates.
const MIN_BUCKETS: usize = 16;

/// One bucket: a stored key's hash and its owner's slot, or `EMPTY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bucket {
    hash: u32,
    slot: u32,
}

impl Bucket {
    const VACANT: Bucket = Bucket {
        hash: 0,
        slot: EMPTY,
    };
}

/// What a [`SlotIndex::probe`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The key is stored at `bucket`, naming `slot`.
    Found { bucket: usize, slot: u32 },
    /// The key is absent; `bucket` is where [`SlotIndex::insert_at`] puts
    /// it.
    Vacant { bucket: usize },
}

/// See the [module documentation](self).
#[derive(Debug, Default)]
pub struct SlotIndex {
    buckets: Vec<Bucket>,
    len: usize,
}

impl SlotIndex {
    /// Find the key hashed to `hash` for which `eq(slot)` holds.
    pub fn probe(&self, hash: u32, mut eq: impl FnMut(u32) -> bool) -> Probe {
        if self.buckets.is_empty() {
            return Probe::Vacant { bucket: 0 };
        }
        let mask = self.buckets.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let b = self.buckets[at];
            if b.slot == EMPTY {
                return Probe::Vacant { bucket: at };
            }
            if b.hash == hash && eq(b.slot) {
                return Probe::Found {
                    bucket: at,
                    slot: b.slot,
                };
            }
            at = (at + 1) & mask;
        }
    }

    /// The slot of the key hashed to `hash` for which `eq(slot)` holds.
    pub fn get(&self, hash: u32, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        match self.probe(hash, eq) {
            Probe::Found { slot, .. } => Some(slot),
            Probe::Vacant { .. } => None,
        }
    }

    /// Store `slot` under `hash` in the bucket a [`Probe::Vacant`] for the
    /// same hash named, with no `&mut` call in between. Doubles the array
    /// when the load would pass ½.
    pub fn insert_at(&mut self, bucket: usize, hash: u32, slot: u32) {
        assert!(slot != EMPTY, "slot {EMPTY} is reserved");
        let bucket = if self.buckets.is_empty() {
            self.buckets = vec![Bucket::VACANT; MIN_BUCKETS];
            self.vacant_from(hash)
        } else {
            bucket
        };
        debug_assert_eq!(
            self.buckets[bucket].slot, EMPTY,
            "insert into a full bucket"
        );
        self.buckets[bucket] = Bucket { hash, slot };
        self.len += 1;
        if 2 * self.len > self.buckets.len() {
            self.resize(2 * self.buckets.len());
        }
    }

    /// Point the entry a [`Probe::Found`] named at another slot; its key is
    /// unchanged.
    pub fn set(&mut self, bucket: usize, slot: u32) {
        assert!(slot != EMPTY, "slot {EMPTY} is reserved");
        debug_assert_ne!(
            self.buckets[bucket].slot, EMPTY,
            "repoint of an empty bucket"
        );
        self.buckets[bucket].slot = slot;
    }

    /// Remove the entry a [`Probe::Found`] named, shifting the entries after
    /// it back over the hole (see the module documentation).
    pub fn remove_at(&mut self, bucket: usize) {
        debug_assert_ne!(
            self.buckets[bucket].slot, EMPTY,
            "remove of an empty bucket"
        );
        let mask = self.buckets.len() - 1;
        let mut hole = bucket;
        let mut at = bucket;
        loop {
            at = (at + 1) & mask;
            let b = self.buckets[at];
            if b.slot == EMPTY {
                break;
            }
            // The entry may fill the hole iff its home is no later in its run
            // than the hole: the distance home → here covers hole → here.
            let home = b.hash as usize & mask;
            if (at.wrapping_sub(home) & mask) >= (at.wrapping_sub(hole) & mask) {
                self.buckets[hole] = b;
                hole = at;
            }
        }
        self.buckets[hole] = Bucket::VACANT;
        self.len -= 1;
    }

    /// Pre-size for `additional` more keys, so that many inserts neither
    /// grow nor re-place the array.
    pub fn reserve(&mut self, additional: usize) {
        let want = 2 * (self.len + additional);
        if want > self.buckets.len() {
            self.resize(want.next_power_of_two().max(MIN_BUCKETS));
        }
    }

    /// How many keys are stored.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// How many buckets the array has.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buckets.len()
    }

    /// Every `(hash, slot)` stored, in bucket order.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.buckets
            .iter()
            .filter(|b| b.slot != EMPTY)
            .map(|b| (b.hash, b.slot))
    }

    /// The first empty bucket at or after `hash`'s home.
    fn vacant_from(&self, hash: u32) -> usize {
        let mask = self.buckets.len() - 1;
        let mut at = hash as usize & mask;
        while self.buckets[at].slot != EMPTY {
            at = (at + 1) & mask;
        }
        at
    }

    fn resize(&mut self, buckets: usize) {
        debug_assert!(buckets.is_power_of_two() && buckets >= 2 * self.len);
        let old = std::mem::replace(&mut self.buckets, vec![Bucket::VACANT; buckets]);
        for b in old.into_iter().filter(|b| b.slot != EMPTY) {
            let at = self.vacant_from(b.hash);
            self.buckets[at] = b;
        }
    }
}

#[cfg(test)]
mod model_tests;

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys are their own slots here; every key hashes to `hash(key)`.
    fn index_of(keys: &[u32], hash: impl Fn(u32) -> u32) -> SlotIndex {
        let mut index = SlotIndex::default();
        for &k in keys {
            let Probe::Vacant { bucket } = index.probe(hash(k), |s| s == k) else {
                panic!("{k} inserted twice");
            };
            index.insert_at(bucket, hash(k), k);
        }
        index
    }

    #[test]
    fn a_run_that_wraps_the_array_end_stays_reachable() {
        // Three keys homed at the last bucket: two wrap to the front.
        let hash = |_k: u32| 15;
        let mut index = index_of(&[1, 2, 3], hash);
        assert_eq!(index.capacity(), 16);
        for k in [1, 2, 3] {
            assert_eq!(index.get(hash(k), |s| s == k), Some(k));
        }
        let Probe::Found { bucket, .. } = index.probe(15, |s| s == 1) else {
            panic!("1 is stored");
        };
        index.remove_at(bucket);
        assert_eq!(index.get(15, |s| s == 1), None);
        for k in [2, 3] {
            assert_eq!(index.get(hash(k), |s| s == k), Some(k));
        }
    }

    /// Mutation, by hand: empty a bucket without the backward shift. The key
    /// the probe run carried past it is lost — what the model test in
    /// `slot_index/model_tests.rs` catches when the shift is deleted from
    /// `remove_at`.
    #[test]
    fn a_hole_left_in_a_run_loses_the_keys_after_it() {
        let hash = |_k: u32| 3;
        let mut index = index_of(&[7, 8], hash);
        let Probe::Found { bucket, .. } = index.probe(3, |s| s == 7) else {
            panic!("7 is stored");
        };
        index.buckets[bucket] = Bucket::VACANT;
        assert_eq!(index.get(3, |s| s == 8), None, "8 sits past the hole");
    }

    #[test]
    fn an_entry_homed_inside_the_gap_stays_put() {
        // 1 and 2 homed at 4, 3 homed at 5: removing 1 moves 2 back to 4,
        // and 3 (home 5) back to 5 — never before its home.
        let hash = |k: u32| if k == 3 { 5 } else { 4 };
        let mut index = index_of(&[1, 2, 3], hash);
        let Probe::Found { bucket, .. } = index.probe(4, |s| s == 1) else {
            panic!("1 is stored");
        };
        index.remove_at(bucket);
        let placed: Vec<(u32, u32)> = index.entries().collect();
        assert_eq!(placed, vec![(4, 2), (5, 3)]);
        let Probe::Found { bucket, .. } = index.probe(4, |s| s == 2) else {
            panic!("2 is stored");
        };
        index.remove_at(bucket);
        assert_eq!(index.entries().collect::<Vec<_>>(), vec![(5, 3)]);
        assert_eq!(index.get(5, |s| s == 3), Some(3));
    }

    #[test]
    fn load_stays_at_or_below_half() {
        let mut index = SlotIndex::default();
        for k in 0..1000u32 {
            let h = k.wrapping_mul(0x9e37_79b9);
            let Probe::Vacant { bucket } = index.probe(h, |s| s == k) else {
                panic!("{k} inserted twice");
            };
            index.insert_at(bucket, h, k);
            assert!(2 * index.len() <= index.capacity());
        }
        assert_eq!(index.capacity(), 2048);
        index.reserve(1000);
        assert_eq!(index.capacity(), 4096);
    }
}
