//! The table-hit path as a released request pays for it, layer by layer: a
//! `Switch::receive` hit and a `FlowMemory::recall` on 1 680 flows after
//! 0 / 10⁵ / 10⁶ earlier hits, and a whole reuse trace (840 client-service
//! pairs) through `Testbed::run_trace`, where nearly every request is a
//! table hit followed by one `FlowModel` release. The expiry schedules hold
//! one record per flow whatever came before, so the rows should be flat in
//! the number of prior hits. Hits land on flows drawn uniformly; the
//! `rotation` rows hit the flows in install order instead, so every hit
//! lands on the flow next to expire — the schedule's worst case.
//!
//! `flowmemory_remember_new` is the other side of FlowMemory: the path a
//! request takes when its pair was never seen (99 % of a `city_*` trace) —
//! one fresh flow remembered into a memory already holding the paper's
//! 1 680 or the 1000× tier's 1.64 M.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use edgectl::{ClusterId, FlowKey, FlowMemory, ServiceId};
use simcore::{SimDuration, SimRng, SimTime};
use simnet::openflow::{Action, FlowMatch, FlowSpec, PortId, Switch};
use simnet::{IpAddr, Packet, SocketAddr};
use testbed::{ScenarioConfig, Testbed};
use workload::{Trace, TraceConfig};

const FLOWS: usize = 1_680;
const PRIOR_HITS: [usize; 3] = [0, 100_000, 1_000_000];

fn client(i: usize) -> IpAddr {
    IpAddr::new(10, 1, (i / 250) as u8, (i % 250) as u8)
}

fn service(i: usize) -> SocketAddr {
    SocketAddr::new(IpAddr::new(93, 184, 0, (i % 42) as u8), 80)
}

fn packet(i: usize) -> Packet {
    Packet::syn(SocketAddr::new(client(i), 40_000), service(i), 0)
}

fn key(i: usize) -> FlowKey {
    FlowKey {
        client_ip: client(i),
        service_addr: service(i),
    }
}

/// Which flow each hit lands on.
#[derive(Clone, Copy)]
enum Draw {
    /// Uniformly, like the pairs of a reuse trace.
    Uniform,
    /// In install order: every hit on the flow next to expire.
    Rotation,
}

/// The bench rows: every prior-hit count with uniform draws, under the
/// parameter alone as before, and with a strict rotation.
fn rows() -> impl Iterator<Item = (BenchmarkId, Draw, usize)> {
    PRIOR_HITS
        .iter()
        .map(|&prior| (BenchmarkId::from_parameter(prior), Draw::Uniform, prior))
        .chain(
            PRIOR_HITS
                .iter()
                .map(|&prior| (BenchmarkId::new("rotation", prior), Draw::Rotation, prior)),
        )
}

/// When hit `n` happens (1 µs after the one before) and which flow it lands
/// on.
fn nth(n: usize, draw: Draw, rng: &mut SimRng) -> (SimTime, usize) {
    let flow = match draw {
        Draw::Uniform => rng.index(FLOWS),
        Draw::Rotation => n % FLOWS,
    };
    (SimTime::ZERO + SimDuration::from_micros(n as u64), flow)
}

fn bench_switch_hit(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_hit_path/switch_receive_hit");
    for (id, draw, prior) in rows() {
        group.bench_function(id, |b| {
            let mut switch = Switch::new(2);
            for i in 0..FLOWS {
                switch.flow_mod(
                    SimTime::ZERO,
                    FlowSpec::new(FlowMatch::client_to_service(client(i), service(i)))
                        .priority(100)
                        .actions(vec![
                            Action::SetDstIp(IpAddr::new(10, 0, 0, 100)),
                            Action::Output(PortId(1)),
                        ])
                        .idle(SimDuration::from_secs(10))
                        .cookie((i % 42) as u64),
                );
            }
            let mut rng = SimRng::seed_from_u64(7);
            for n in 0..prior {
                let (at, flow) = nth(n, draw, &mut rng);
                switch.receive(at, packet(flow));
            }
            let mut n = prior;
            b.iter(|| {
                let (at, flow) = nth(n, draw, &mut rng);
                n += 1;
                std::hint::black_box(switch.receive(at, packet(flow)))
            });
        });
    }
    group.finish();
}

fn bench_memory_recall(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_hit_path/flowmemory_recall");
    for (id, draw, prior) in rows() {
        group.bench_function(id, |b| {
            let mut memory = FlowMemory::new(SimDuration::from_secs(60)).expect("non-zero");
            let target = SocketAddr::new(IpAddr::new(10, 0, 0, 100), 8000);
            for i in 0..FLOWS {
                memory.remember(
                    SimTime::ZERO,
                    key(i),
                    ServiceId((i % 42) as u32),
                    target,
                    Some(ClusterId(0)),
                );
            }
            let mut rng = SimRng::seed_from_u64(7);
            for n in 0..prior {
                let (at, flow) = nth(n, draw, &mut rng);
                memory.recall(at, key(flow));
            }
            let mut n = prior;
            b.iter(|| {
                let (at, flow) = nth(n, draw, &mut rng);
                n += 1;
                std::hint::black_box(memory.recall(at, key(flow)).is_some())
            });
        });
    }
    group.finish();
}

fn bench_memory_remember_new(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_hit_path/flowmemory_remember_new");
    for (resident, services) in [(1_680usize, 42usize), (1_640_000, 42_000)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(resident),
            &resident,
            |b, &resident| {
                let wide = |n: usize| FlowKey {
                    client_ip: IpAddr(0x0a00_0000 + n as u32),
                    service_addr: SocketAddr::new(IpAddr(0x5db8_0000 + (n % services) as u32), 80),
                };
                let at = |n: usize| SimTime::ZERO + SimDuration::from_micros(n as u64);
                let target = SocketAddr::new(IpAddr::new(10, 0, 0, 100), 8000);
                let mut memory = FlowMemory::new(SimDuration::from_secs(60)).expect("non-zero");
                let remember = |memory: &mut FlowMemory, n: usize| {
                    let service = ServiceId((n % services) as u32);
                    memory.remember(at(n), wide(n), service, target, Some(ClusterId(0)));
                };
                for n in 0..resident {
                    remember(&mut memory, n);
                }
                // Each fresh flow is paid for by forgetting the oldest, so
                // the memory stays at `resident` however long the timer
                // runs; the reading is one insert plus one forget.
                let mut n = resident;
                b.iter(|| {
                    remember(&mut memory, n);
                    let evicted = memory.forget(wide(n - resident)).is_some();
                    n += 1;
                    std::hint::black_box(evicted)
                });
            },
        );
    }
    group.finish();
}

fn bench_reuse_trace(c: &mut Criterion) {
    // The paper's 42 services and 20 clients with 100× the requests: 840
    // pairs, so all but the first request of each pair is a table hit.
    let config = TraceConfig {
        total_requests: TraceConfig::default().total_requests * 100,
        ..TraceConfig::default()
    };
    let trace = Trace::generate(config, &mut SimRng::seed_from_u64(42 ^ 0xB16F_1085));
    let mut group = c.benchmark_group("flow_hit_path/testbed_run_trace");
    group.sample_size(10);
    group.bench_function(
        BenchmarkId::new("reuse_840_pairs", trace.requests.len()),
        |b| {
            b.iter(|| {
                let cfg = ScenarioConfig {
                    seed: 42,
                    clients: trace.config.clients,
                    ..ScenarioConfig::default()
                };
                let result = Testbed::build(cfg, trace.service_addrs.to_vec()).run_trace(&trace);
                std::hint::black_box(result.records.len())
            });
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_switch_hit,
    bench_memory_recall,
    bench_memory_remember_new,
    bench_reuse_trace
);
criterion_main!(benches);
