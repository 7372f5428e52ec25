//! Benchmarks of the workload substrate: trace generation and the
//! statistics used by the harness.
//!
//! `bigflows_trace_generate` is the paper's 1 708-request trace;
//! `bigflows_trace_generate_100x` is `TraceConfig::scaled(100)` (the
//! `city_100x` trace shape, 170 800 requests), large enough for the final
//! sort into trace order to show.

use criterion::{criterion_group, criterion_main, Criterion};
use simcore::{Percentiles, SimRng};
use workload::{Trace, TraceConfig};

fn bench_trace_generation(c: &mut Criterion) {
    for (name, scale) in [
        ("bigflows_trace_generate", 1),
        ("bigflows_trace_generate_100x", 100),
    ] {
        let config = TraceConfig::scaled(scale);
        c.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let trace = Trace::generate(config.clone(), &mut SimRng::seed_from_u64(seed));
                std::hint::black_box(trace.requests.len())
            });
        });
    }
}

fn bench_percentiles(c: &mut Criterion) {
    c.bench_function("percentiles_median_10k", |b| {
        let mut rng = SimRng::seed_from_u64(7);
        let values: Vec<f64> = (0..10_000).map(|_| rng.f64() * 1000.0).collect();
        b.iter_batched(
            || {
                let mut p = Percentiles::new();
                for &v in &values {
                    p.record(v);
                }
                p
            },
            |mut p| std::hint::black_box(p.median()),
            criterion::BatchSize::SmallInput,
        );
    });
}

criterion_group!(benches, bench_trace_generation, bench_percentiles);
criterion_main!(benches);
