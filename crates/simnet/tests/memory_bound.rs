//! What the compact flow table buys, in live heap bytes: a controller-installed
//! entry costs one 64-byte record, a 16-byte cold lane, its idle-order links
//! and its share of an index at load ≤ ½ — and the table's size follows the
//! entries alive at once, not the entries ever installed.
//!
//! One `#[test]` in a binary of its own: the byte counter is process-wide,
//! so nothing else may allocate while a reading is taken.

use simcore::alloc_count::live_bytes;
use simcore::{SimDuration, SimTime};
use simnet::openflow::{Action, FlowMatch, FlowSpec, FlowTable, PortId};
use simnet::{IpAddr, Protocol, SocketAddr};

const IDLE: SimDuration = SimDuration::from_secs(10);
const SERVICES: usize = 420;

fn client(i: usize) -> IpAddr {
    IpAddr(0x0a00_0000 + i as u32)
}

fn service(i: usize) -> SocketAddr {
    let s = i % SERVICES;
    SocketAddr::new(IpAddr::new(93, 184, (s >> 8) as u8, s as u8), 80)
}

fn edge(i: usize) -> SocketAddr {
    SocketAddr::new(IpAddr::new(10, 200, 0, (i % SERVICES % 250) as u8), 8_000)
}

/// The redirect pair the controller installs for client `i`: the forward
/// rewrite to the edge instance and the reverse rewrite back to the cloud
/// address.
fn pair(i: usize) -> [FlowSpec; 2] {
    let forward = FlowSpec::new(FlowMatch::client_to_service(client(i), service(i)))
        .priority(100)
        .action(Action::SetDstIp(edge(i).ip))
        .action(Action::SetDstPort(edge(i).port))
        .action(Action::Output(PortId(2)))
        .idle(IDLE)
        .cookie(i as u64);
    let reverse = FlowSpec::new(FlowMatch {
        protocol: Some(Protocol::Tcp),
        src_ip: Some(edge(i).ip),
        src_port: Some(edge(i).port),
        dst_ip: Some(client(i)),
        ..FlowMatch::default()
    })
    .priority(100)
    .action(Action::SetSrcIp(service(i).ip))
    .action(Action::SetSrcPort(service(i).port))
    .action(Action::Output(PortId(1)))
    .idle(IDLE)
    .cookie(i as u64);
    [forward, reverse]
}

fn install(table: &mut FlowTable, now: SimTime, clients: std::ops::Range<usize>) {
    for i in clients {
        for spec in pair(i) {
            table.install(now, spec);
        }
    }
}

#[test]
fn switch_entries_cost_bytes_per_entry() {
    // 120 000 entries, `city_1000x`'s switch at the end of a run: 64 B of
    // record, 16 B of cold lane, 8 B of idle-order links and 2^18 8-byte
    // index buckets (17.5 B an entry). The `Option<FlowEntry>` slab with a
    // map of 40-byte buckets it replaced took ≈ 300.
    const PAIRS: usize = 60_000;
    let empty = live_bytes();
    let mut table = FlowTable::new();
    table.reserve(2 * PAIRS);
    install(&mut table, SimTime::ZERO, 0..PAIRS);
    assert_eq!(table.len(), 2 * PAIRS);
    let per_entry = (live_bytes() - empty) / (2 * PAIRS) as u64;
    assert!(per_entry <= 112, "{per_entry} live bytes per entry");
    drop(table);
    assert!(
        live_bytes().abs_diff(empty) < 4_096,
        "dropping the table frees all of it"
    );

    // Ten rounds of 20 000 pairs never installed before, each round evicted
    // before the next: freed slots are reused, and deletion leaves the index
    // no tombstones, so nothing grows after round one — the bound allows one
    // doubling of the index (2^17 buckets of 8 B) all the same.
    const ROUND: usize = 20_000;
    const INDEX_DOUBLING: u64 = 131_072 * 8;
    let mut table = FlowTable::new();
    let mut first_round = None;
    for round in 0..10usize {
        let now = SimTime::ZERO + IDLE * round as u64 * 2;
        install(&mut table, now, round * ROUND..(round + 1) * ROUND);
        let full = live_bytes() - empty;
        let first = *first_round.get_or_insert(full);
        assert!(
            full.abs_diff(first) <= INDEX_DOUBLING,
            "round {round}: {full} live bytes against {first} in round one"
        );
        table.expire_discard(now + IDLE);
        assert!(table.is_empty());
        assert_eq!(table.expiry_records(), 0);
    }
}
