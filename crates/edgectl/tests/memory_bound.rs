//! What FlowMemory's slab buys, in live heap bytes: a flow costs under a
//! hundred bytes whatever the number of services, and the memory's size
//! follows the flows alive at once, not the flows ever seen.
//!
//! One `#[test]` in a binary of its own: the byte counter is process-wide,
//! so nothing else may allocate while a reading is taken.

use edgectl::{ClusterId, FlowKey, FlowMemory, ServiceId};
use simcore::alloc_count::live_bytes;
use simcore::{SimDuration, SimTime};
use simnet::{IpAddr, SocketAddr};

const SERVICES: usize = 4_200;
const IDLE: SimDuration = SimDuration::from_secs(60);
/// One slab page: 4 096 records of 48 bytes.
const PAGE_BYTES: u64 = 4_096 * 48;

fn key(i: usize) -> FlowKey {
    let service = i % SERVICES;
    FlowKey {
        client_ip: IpAddr(0x0a00_0000 + i as u32),
        service_addr: SocketAddr::new(
            IpAddr::new(93, 184, (service >> 8) as u8, service as u8),
            80,
        ),
    }
}

fn remember(memory: &mut FlowMemory, now: SimTime, flows: std::ops::Range<usize>) {
    let target = SocketAddr::new(IpAddr::new(10, 0, 0, 100), 8000);
    for i in flows {
        let service = ServiceId((i % SERVICES) as u32);
        memory.remember(now, key(i), service, target, Some(ClusterId(0)));
    }
}

#[test]
fn flow_memory_costs_bytes_per_active_flow() {
    // 200 000 distinct flows over 4 200 services: 48 B of record, 17 B per
    // index bucket, 8 B of expiry-order links, the chain heads — and the
    // slack of the two doubling tables. The map of structs the slab replaced
    // took ≈ 150 B per flow, the slab with an expiry heap of 16-B records 93.
    const FLOWS: usize = 200_000;
    let empty = live_bytes();
    let mut memory = FlowMemory::new(IDLE).expect("non-zero idle timeout");
    remember(&mut memory, SimTime::ZERO, 0..FLOWS);
    let per_flow = (live_bytes() - empty) / FLOWS as u64;
    assert!(per_flow <= 83, "{per_flow} live bytes per flow");
    assert_eq!(memory.len(), FLOWS);
    drop(memory);
    assert!(
        live_bytes().abs_diff(empty) < 4_096,
        "dropping the memory frees all of it"
    );

    // Ten rounds of the same 50 000 flows, each round expired before the
    // next, then ten rounds of 50 000 flows never seen before: freed slots
    // are reused and the expiry links keep their size, so every round peaks
    // within a slab page of the first. The one thing that may grow is the
    // key index, once: removals leave tombstones in the hash table, and when
    // fresh keys run it out of room while more than half full it doubles
    // instead of rehashing in place — after which it never has to again.
    const ROUND: usize = 50_000;
    const INDEX_DOUBLING: u64 = 65_536 * 17;
    let mut memory = FlowMemory::new(IDLE).expect("non-zero idle timeout");
    let mut first_round = None;
    for round in 0..20usize {
        let now = SimTime::ZERO + IDLE * round as u64 * 2;
        // Rounds 0–9 replay key range 0; rounds 10–19 take ranges 1–10.
        let fresh = round.saturating_sub(9);
        remember(&mut memory, now, fresh * ROUND..(fresh + 1) * ROUND);
        let full = live_bytes() - empty;
        let first = *first_round.get_or_insert(full);
        let slack = if fresh == 0 { 0 } else { INDEX_DOUBLING };
        assert!(
            full.abs_diff(first) <= PAGE_BYTES + slack,
            "round {round}: {full} live bytes against {first} in round one"
        );
        assert_eq!(memory.expire(now + IDLE).len(), ROUND);
        assert!(memory.is_empty());
        assert_eq!(memory.expiry_records(), 0);
    }
}
