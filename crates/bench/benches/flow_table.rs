//! Micro-benchmarks of the OpenFlow flow table — the controller's data-plane
//! hot path: lookup under varying table occupancy, install/replace, the
//! timeout sweep, and the whole life of a redirect entry at city scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simcore::{SimDuration, SimTime};
use simnet::openflow::{Action, FlowMatch, FlowSpec, FlowTable, PortId};
use simnet::{IpAddr, Packet, SocketAddr};

fn sa(a: u8, b: u8, port: u16) -> SocketAddr {
    SocketAddr::new(IpAddr::new(10, a, 0, b), port)
}

fn filled_table(n: usize) -> FlowTable {
    let mut table = FlowTable::new();
    for i in 0..n {
        let client = IpAddr::new(10, 1, (i / 250) as u8, (i % 250) as u8);
        let dst = sa(2, (i % 200) as u8, 80);
        table.install(
            SimTime::ZERO,
            FlowSpec::new(FlowMatch::client_to_service(client, dst))
                .priority(100)
                .actions(vec![
                    Action::SetDstIp(IpAddr::new(10, 0, 0, 100)),
                    Action::Output(PortId(1)),
                ])
                .idle(SimDuration::from_secs(10))
                .cookie(i as u64),
        );
    }
    table
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_table_lookup");
    for &n in &[16usize, 256, 1024, 2048] {
        group.bench_with_input(BenchmarkId::new("hit_last", n), &n, |b, &n| {
            let mut table = filled_table(n);
            // match the last-installed (worst-case scan position at equal prio)
            let client = IpAddr::new(10, 1, ((n - 1) / 250) as u8, ((n - 1) % 250) as u8);
            let packet = Packet::syn(
                SocketAddr::new(client, 40000),
                sa(2, ((n - 1) % 200) as u8, 80),
                0,
            );
            b.iter(|| {
                let hit = table.lookup(SimTime::ZERO + SimDuration::from_secs(1), &packet);
                std::hint::black_box(hit.is_some())
            });
        });
        group.bench_with_input(BenchmarkId::new("miss", n), &n, |b, &n| {
            let mut table = filled_table(n);
            let packet = Packet::syn(sa(9, 9, 9999), sa(9, 8, 7), 0);
            b.iter(|| {
                let hit = table.lookup(SimTime::ZERO, &packet);
                std::hint::black_box(hit.is_none())
            });
        });
        // Reference point for the indexed fast path: the pre-index
        // implementation's priority-ordered linear scan over the same rules.
        group.bench_with_input(
            BenchmarkId::new("hit_last_linear_reference", n),
            &n,
            |b, &n| {
                let rules: Vec<(FlowMatch, u64)> = (0..n)
                    .map(|i| {
                        let client = IpAddr::new(10, 1, (i / 250) as u8, (i % 250) as u8);
                        (
                            FlowMatch::client_to_service(client, sa(2, (i % 200) as u8, 80)),
                            i as u64,
                        )
                    })
                    .collect();
                let client = IpAddr::new(10, 1, ((n - 1) / 250) as u8, ((n - 1) % 250) as u8);
                let packet = Packet::syn(
                    SocketAddr::new(client, 40000),
                    sa(2, ((n - 1) % 200) as u8, 80),
                    0,
                );
                b.iter(|| {
                    let hit = rules
                        .iter()
                        .find(|(m, _)| m.matches(&packet))
                        .map(|&(_, c)| c);
                    std::hint::black_box(hit)
                });
            },
        );
    }
    group.finish();
}

fn bench_install(c: &mut Criterion) {
    c.bench_function("flow_table_install_into_1k", |b| {
        b.iter_batched(
            || filled_table(1024),
            |mut table| {
                table.install(
                    SimTime::ZERO,
                    FlowSpec::new(FlowMatch::client_to_service(
                        IpAddr::new(99, 0, 0, 1),
                        sa(2, 1, 80),
                    ))
                    .priority(100)
                    .action(Action::Output(PortId(0)))
                    .idle(SimDuration::from_secs(10)),
                );
                table
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

fn bench_expire_sweep(c: &mut Criterion) {
    c.bench_function("flow_table_sweep_1k_half_expired", |b| {
        b.iter_batched(
            || {
                let mut table = filled_table(1024);
                // touch half the entries so they survive the sweep
                for i in 0..512 {
                    let client = IpAddr::new(10, 1, (i / 250) as u8, (i % 250) as u8);
                    let packet = Packet::syn(
                        SocketAddr::new(client, 40000),
                        sa(2, (i % 200) as u8, 80),
                        0,
                    );
                    table.lookup(SimTime::ZERO + SimDuration::from_secs(8), &packet);
                }
                table
            },
            |mut table| {
                let removed = table.expire(SimTime::ZERO + SimDuration::from_secs(10));
                std::hint::black_box(removed.len())
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

/// One `city_*` redirect's life in the switch: installed by a `FlowMod`, hit
/// once by the `PacketOut` that releases the held SYN, evicted by the idle
/// sweep. The table holds `resident` entries throughout — `city_100x`'s and
/// `city_1000x`'s switch sizes at the end of a run (12 035 / 120 965) — so
/// each iteration's sweep evicts exactly the entry installed `resident`
/// iterations earlier, the way the testbed's sweep-before-event does.
fn bench_lifecycle(c: &mut Criterion) {
    const STEP: SimDuration = SimDuration::from_micros(1);
    let mut group = c.benchmark_group("flow_table/lifecycle");
    for resident in [12_000usize, 120_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(resident),
            &resident,
            |b, &resident| {
                let idle = STEP * resident as u64;
                let service = |n: usize| sa(2, (n % 200) as u8, 80);
                let client = |n: usize| SocketAddr::new(IpAddr(n as u32), 40_000);
                let spec = |n: usize| {
                    FlowSpec::new(FlowMatch::client_to_service(client(n).ip, service(n)))
                        .priority(100)
                        .actions(vec![
                            Action::SetDstIp(IpAddr::new(10, 0, 0, 100)),
                            Action::Output(PortId(1)),
                        ])
                        .idle(idle)
                        .cookie((n % 42) as u64)
                };
                let mut table = FlowTable::new();
                let mut n = 0usize;
                let mut life = |table: &mut FlowTable| {
                    let now = SimTime::ZERO + STEP * n as u64;
                    if table.next_expiry().is_some_and(|t| t <= now) {
                        table.expire_discard(now);
                    }
                    table.install(now, spec(n));
                    let released = table.lookup(now, &Packet::syn(client(n), service(n), 0));
                    n += 1;
                    released.is_some()
                };
                for _ in 0..resident {
                    life(&mut table);
                }
                assert_eq!(table.len(), resident);
                b.iter(|| std::hint::black_box(life(&mut table)));
                assert_eq!(table.len(), resident);
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lookup,
    bench_install,
    bench_expire_sweep,
    bench_lifecycle
);
criterion_main!(benches);
