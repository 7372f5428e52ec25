//! FlowMemory's expiry schedule costs per flow, not per recall: however many
//! recalls refresh it, it holds one record per flow, a sweep takes exactly
//! the records it evicts, and a forgotten flow leaves no record behind.

use edgectl::{ClusterId, FlowKey, FlowMemory, ServiceId};
use simcore::{SimDuration, SimTime};
use simnet::{IpAddr, SocketAddr};

const FLOWS: usize = 1_680;
const SERVICES: usize = 42;
const IDLE: SimDuration = SimDuration::from_secs(60);

fn key(i: usize) -> FlowKey {
    FlowKey {
        client_ip: IpAddr::new(10, 1, (i / 250) as u8, (i % 250) as u8),
        service_addr: SocketAddr::new(IpAddr::new(93, 184, 0, (i % SERVICES) as u8), 80),
    }
}

fn at(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

fn filled() -> FlowMemory {
    let mut memory = FlowMemory::new(IDLE).expect("non-zero idle timeout");
    let target = SocketAddr::new(IpAddr::new(10, 0, 0, 100), 8000);
    for i in 0..FLOWS {
        memory.remember(
            SimTime::ZERO,
            key(i),
            ServiceId((i % SERVICES) as u32),
            target,
            Some(ClusterId(0)),
        );
    }
    assert_eq!(memory.expiry_records(), FLOWS);
    memory
}

#[test]
fn a_million_recalls_leave_one_record_per_flow() {
    let mut memory = filled();
    let mut now = SimTime::ZERO;
    for n in 0..1_000_000usize {
        now = at(5 * n as u64);
        assert!(memory.recall(now, key(n * 7919 % FLOWS)).is_some());
        assert_eq!(memory.expiry_records(), FLOWS);
    }
    // A refreshing `remember` is a touch too.
    let target = SocketAddr::new(IpAddr::new(10, 0, 0, 100), 8001);
    for i in 0..FLOWS {
        memory.remember(
            now,
            key(i),
            ServiceId((i % SERVICES) as u32),
            target,
            Some(ClusterId(0)),
        );
    }
    assert_eq!(memory.expiry_records(), FLOWS);

    // Nothing is due a timeout after the *first* remember …
    assert!(memory.expire(SimTime::ZERO + IDLE).is_empty());
    assert_eq!(memory.expiry_records(), FLOWS);
    // … and the sweep that evicts every flow pops those records and no
    // other: as many records as flows before it, none of either after.
    assert_eq!(memory.expire(now + IDLE).len(), FLOWS);
    assert!(memory.is_empty());
    assert_eq!(memory.expiry_records(), 0);
    assert_eq!(memory.next_expiry(), None);
}

#[test]
fn forgotten_flows_leave_no_record_behind() {
    let mut memory = filled();
    for n in 0..10_000usize {
        memory.recall(at(n as u64), key(n % FLOWS));
    }

    assert!(memory.forget(key(100)).is_some());
    let of_service = memory.forget_service(ServiceId(7), Some(ClusterId(0)));
    assert_eq!(of_service, FLOWS / SERVICES);
    let live = FLOWS - 1 - of_service;
    assert_eq!(memory.len(), live);
    assert_eq!(memory.expiry_records(), live);

    // Keep the survivors alive past every forgotten flow's deadline: nothing
    // is due, and nothing but the survivors is held.
    let later = SimTime::ZERO + IDLE - SimDuration::from_millis(1);
    for i in 0..FLOWS {
        memory.recall(later, key(i));
    }
    assert!(memory.expire(at(20_000) + IDLE).is_empty());
    assert_eq!(memory.len(), live);
    assert_eq!(memory.expiry_records(), live);
}
