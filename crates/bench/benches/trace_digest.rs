//! The determinism digest per trace record, on the paper run's 1 708 request
//! records tiled to 100 000 (so the run's few header lines weigh < 0.1 %):
//!
//! - `byte_fold`: `RunResult::write_metrics` into an `FnvStream` behind the
//!   default `TraceSink` methods, so every literal and decimal reaches the
//!   hash byte by byte through `fmt::Write`;
//! - `lit_fold`: `RunResult::metrics_hash`, which folds each of a request
//!   line's five literals in one step through its precomputed table and each
//!   decimal's digits without a UTF-8 check.
//!
//! Both compute the same digest (asserted before timing). The report's
//! ns/elem column is ns per record.

use std::fmt;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use simcore::{FnvStream, TraceSink};
use testbed::{run_bigflows, ScenarioConfig};

const RECORDS: usize = 100_000;

/// An `FnvStream` that only knows how to fold bytes.
struct ByteFold(FnvStream);

impl fmt::Write for ByteFold {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.update(s.as_bytes());
        Ok(())
    }
}

impl TraceSink for ByteFold {}

fn bench_trace_digest(c: &mut Criterion) {
    let (_, mut result) = run_bigflows(ScenarioConfig::default());
    result.records = result.records.iter().cycle().take(RECORDS).collect();
    let byte_fold = || {
        let mut h = ByteFold(FnvStream::new());
        result.write_metrics(&mut h);
        h.0.finish()
    };
    assert_eq!(byte_fold(), result.metrics_hash());

    let mut group = c.benchmark_group("trace_digest");
    group.throughput(Throughput::Elements(RECORDS as u64));
    group.bench_function(BenchmarkId::new("byte_fold", RECORDS), |b| {
        b.iter(byte_fold)
    });
    group.bench_function(BenchmarkId::new("lit_fold", RECORDS), |b| {
        b.iter(|| result.metrics_hash())
    });
    group.finish();
}

criterion_group!(benches, bench_trace_digest);
criterion_main!(benches);
