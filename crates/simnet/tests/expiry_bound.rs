//! The flow table's expiry schedule costs per flow, not per hit: however many
//! packets hit the table it holds one record per entry, a sweep takes exactly
//! the records it evicts, and an idle-timeout entry removed another way
//! leaves no record behind.

use simcore::{SimDuration, SimTime};
use simnet::openflow::{Action, FlowMatch, FlowSpec, FlowTable, PortId};
use simnet::{IpAddr, Packet, SocketAddr};

const FLOWS: usize = 1_680;
const IDLE: SimDuration = SimDuration::from_secs(10);

fn client(i: usize) -> IpAddr {
    IpAddr::new(10, 1, (i / 250) as u8, (i % 250) as u8)
}

fn service(i: usize) -> SocketAddr {
    SocketAddr::new(IpAddr::new(93, 184, 0, (i % 42) as u8), 80)
}

fn spec(i: usize) -> FlowSpec {
    FlowSpec::new(FlowMatch::client_to_service(client(i), service(i)))
        .priority(100)
        .action(Action::Output(PortId(1)))
        .idle(IDLE)
        .cookie((i % 42) as u64)
}

fn packet(i: usize) -> Packet {
    Packet::syn(SocketAddr::new(client(i), 40000), service(i), 0)
}

fn at(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

fn filled() -> FlowTable {
    let mut table = FlowTable::new();
    for i in 0..FLOWS {
        table.install(SimTime::ZERO, spec(i));
    }
    assert_eq!(table.expiry_records(), FLOWS);
    table
}

#[test]
fn a_million_hits_leave_one_record_per_flow() {
    let mut table = filled();
    // 10⁶ hits spread over the flows, 5 µs apart — 5 s in all, so every
    // flow is hit again well inside its idle timeout.
    let mut now = SimTime::ZERO;
    for n in 0..1_000_000usize {
        now = at(5 * n as u64);
        assert!(table.lookup(now, &packet(n * 7919 % FLOWS)).is_some());
        assert_eq!(table.expiry_records(), FLOWS);
    }
    assert_eq!(table.len(), FLOWS);

    // Nothing is due while any flow has been hit within the timeout …
    table.expire_discard(SimTime::ZERO + IDLE);
    assert_eq!(table.len(), FLOWS);
    assert_eq!(table.expiry_records(), FLOWS);
    // … and the sweep that evicts them pops those records and no other:
    // as many records as entries before it, none of either after.
    let evicted = table.expire(now + IDLE);
    assert_eq!(evicted.len(), FLOWS);
    assert!(table.is_empty());
    assert_eq!(table.expiry_records(), 0);
    assert_eq!(table.next_expiry(), None);
}

#[test]
fn removed_entries_leave_no_record_behind() {
    let mut table = filled();
    for n in 0..10_000usize {
        table.lookup(at(n as u64), &packet(n % FLOWS));
    }

    // Same-rule replacement: the old entry's record goes with it, the new
    // entry brings its own.
    for i in 0..10 {
        table.install(at(20_000), spec(i));
    }
    assert_eq!(table.len(), FLOWS);
    assert_eq!(table.expiry_records(), FLOWS);

    // Strict delete and cookie delete.
    let by_matcher = table.delete_matching(at(20_000), &spec(100).matcher).len();
    assert_eq!(by_matcher, 1);
    let by_cookie = table.delete_by_cookie(at(20_000), 7).len();
    assert_eq!(by_cookie, FLOWS / 42);
    let live = FLOWS - by_matcher - by_cookie;
    assert_eq!(table.len(), live);
    assert_eq!(table.expiry_records(), live);

    // Keep the survivors alive past every removed entry's deadline: nothing
    // is due, and nothing but the survivors is held.
    let later = SimTime::ZERO + IDLE - SimDuration::from_millis(1);
    for i in 0..FLOWS {
        table.lookup(later, &packet(i));
    }
    table.expire_discard(at(20_000) + IDLE);
    assert_eq!(table.len(), live);
    assert_eq!(table.expiry_records(), live);
}
