//! Model-based lockstep test of the lease table: random interleavings of
//! acquire/release across four shards, checked against a trivially-correct
//! `BTreeMap` reference model at every step.

use std::collections::BTreeMap;

use edgectl::{ClusterId, DeployGate, ServiceId};
use proptest::prelude::*;
use simcore::SimTime;

use crate::LeaseTable;

const SHARDS: usize = 4;

/// Decode one op from a raw `u32`:
/// bit 0 = acquire (1) / release (0), bits 1..3 = shard,
/// bits 3..5 = cluster, bits 5..7 = service.
fn decode(op: u32) -> (bool, usize, ClusterId, ServiceId) {
    let acquire = op & 1 == 1;
    let shard = ((op >> 1) & 0b11) as usize;
    let cluster = ClusterId(((op >> 3) & 0b11) as usize % 3);
    let service = ServiceId(((op >> 5) & 0b11) % 3);
    (acquire, shard, cluster, service)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lease_table_matches_reference_model(ops in prop::collection::vec(any::<u32>(), 1..200)) {
        let table = LeaseTable::new();
        let mut handles: Vec<_> = (0..SHARDS).map(|s| table.handle(s)).collect();
        // The reference model: holder per (cluster, service), first
        // acquirer wins, only the holder can release.
        let mut model: BTreeMap<(ClusterId, ServiceId), usize> = BTreeMap::new();

        for op in ops {
            let (acquire, shard, cluster, service) = decode(op);
            let now = SimTime::ZERO;
            if acquire {
                let got = handles[shard].try_acquire(now, cluster, service);
                let expect = match model.get(&(cluster, service)) {
                    Some(&holder) => holder == shard,
                    None => {
                        model.insert((cluster, service), shard);
                        true
                    }
                };
                prop_assert_eq!(got, expect, "acquire by shard {} diverged", shard);
            } else {
                handles[shard].release(now, cluster, service);
                if model.get(&(cluster, service)) == Some(&shard) {
                    model.remove(&(cluster, service));
                }
            }
            prop_assert_eq!(table.held(), model.len());
            for (&(c, s), &holder) in &model {
                prop_assert_eq!(table.holder(c, s), Some(holder));
            }
        }
    }
}
