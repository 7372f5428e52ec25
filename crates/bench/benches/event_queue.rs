//! `simcore::EventQueue` under the shapes the simulator pushes, one pop plus
//! (on average) one push per iteration, with a payload as wide as a
//! `ControllerOutput`:
//!
//! - `distinct/{52,359,2500}`: every pending event at its own instant, each
//!   pop re-pushed at a random instant ahead (the single-controller horizon
//!   reaches 49–1 416 events);
//! - `same_instant/2500`: 2 500 events at one instant, each re-armed 1 s
//!   ahead when it pops (a mesh shard's superseded-wakeup chains);
//! - `fanout_1to3/52`: 52 PacketIns at distinct instants, each popping into
//!   three outputs at one instant, the last of which schedules the next
//!   PacketIn (a PacketIn's FlowMod, FlowMod and release).
//!
//! The queue is a heap of same-instant runs, so a push at a new instant is
//! O(log runs) while a push at the newest run's instant is an append. The
//! deep distinct-instant rows are that design's worst case and read slower
//! than the timing wheel it replaced (medians of four runs per side on a
//! shared 2-core x86-64 host: `distinct/2500` 93 → 113 ns, `distinct/359`
//! 85 → 104 ns), `same_instant/2500` reads faster (64 → 46 ns), and
//! `distinct/52` (81 → 75 ns) and `fanout_1to3/52` (52 → 47 ns) slightly
//! faster. No edgebench workload keeps a deep distinct-instant queue.

use std::mem::size_of;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use edgectl::ControllerOutput;
use simcore::{EventQueue, SimDuration, SimRng, SimTime};

/// An event as wide as the controller's output, the largest payload the
/// ingress loop queues. Byte 0 tags the fan-out role.
type Payload = [u8; size_of::<ControllerOutput>()];

const PACKET_IN: u8 = 0;
const LAST_OUTPUT: u8 = 3;

fn payload(tag: u8) -> Payload {
    let mut p = [0; size_of::<ControllerOutput>()];
    p[0] = tag;
    p
}

/// `depth` events at distinct instants within the first `depth` ms.
fn distinct_queue(depth: usize, rng: &mut SimRng) -> EventQueue<Payload> {
    let mut q = EventQueue::new();
    for _ in 0..depth {
        q.push(
            SimTime::from_nanos(rng.below(depth as u64 * 1_000_000)),
            payload(PACKET_IN),
        );
    }
    q
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    let mut rng = SimRng::seed_from_u64(7);

    for depth in [52usize, 359, 2_500] {
        let mut q = distinct_queue(depth, &mut rng);
        let span = 2 * depth as u64 * 1_000_000;
        group.bench_function(BenchmarkId::new("distinct", depth), |b| {
            b.iter(|| {
                let (t, p) = q.pop().expect("the queue holds its depth");
                q.push(t + SimDuration::from_nanos(1 + rng.below(span)), p);
            });
        });
    }

    let mut q = EventQueue::new();
    for _ in 0..2_500 {
        q.push(SimTime::from_nanos(1_000_000_000), payload(PACKET_IN));
    }
    group.bench_function(BenchmarkId::new("same_instant", 2_500), |b| {
        b.iter(|| {
            let (t, p) = q.pop().expect("the queue holds 2 500 events");
            q.push(t + SimDuration::from_secs(1), p);
        });
    });

    let mut q = distinct_queue(52, &mut rng);
    group.bench_function(BenchmarkId::new("fanout_1to3", 52), |b| {
        b.iter(|| {
            let (t, p) = q.pop().expect("the queue holds its depth");
            match p[0] {
                PACKET_IN => {
                    let at = t + SimDuration::from_micros(100);
                    for tag in 1..=LAST_OUTPUT {
                        q.push(at, payload(tag));
                    }
                }
                LAST_OUTPUT => {
                    let ahead = SimDuration::from_nanos(1 + rng.below(104_000_000));
                    q.push(t + ahead, payload(PACKET_IN));
                }
                _ => {}
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
