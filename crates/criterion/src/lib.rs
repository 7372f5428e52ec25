//! Offline stand-in for the crates.io `criterion` bench harness.
//!
//! The build container cannot reach a cargo registry, so the workspace vendors
//! the slice of the criterion API its benches use: [`Criterion`],
//! [`BenchmarkGroup`], [`Bencher::iter`] / [`Bencher::iter_batched`],
//! [`BenchmarkId`], [`Throughput`], [`black_box`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros. Statistics are
//! deliberately simple — each benchmark is warmed up briefly, then timed over
//! a fixed number of batches and reported as median ns/iter on stdout (plus
//! ns/elem under a group's [`Throughput`]). That is enough to compare
//! before/after on the same machine, which is all this repo's acceptance
//! criteria need; it does not attempt criterion's outlier analysis or HTML
//! reports.

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How many timed batches we collect per benchmark (median is reported).
const BATCHES: usize = 15;
/// Target wall time per batch during calibration.
const BATCH_TARGET: Duration = Duration::from_millis(40);
/// Warm-up budget per benchmark.
const WARMUP: Duration = Duration::from_millis(60);

/// Strategy for `iter_batched` setup/teardown batching. The shim times each
/// routine invocation individually, so the variants only exist for API
/// compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Identifier combining a function name and a parameter, e.g. `lookup/1024`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new<S: Into<String>, P: fmt::Display>(function_name: S, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    pub fn from_parameter<P: fmt::Display>(parameter: P) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Work one iteration does, mirroring `criterion::Throughput`: a group that
/// declares it also reports the median ns per element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    Elements(u64),
}

/// Timing loop handle passed to the closure given to `bench_function` et al.
pub struct Bencher {
    /// Median nanoseconds per iteration, filled in by the timing loop.
    ns_per_iter: f64,
}

impl Bencher {
    /// Time `routine` repeatedly and record the median ns per call.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and calibrate how many calls fit in one batch.
        let mut iters_per_batch = 1u64;
        let warm_start = Instant::now();
        while warm_start.elapsed() < WARMUP {
            let t = Instant::now();
            for _ in 0..iters_per_batch {
                black_box(routine());
            }
            let elapsed = t.elapsed();
            if elapsed < BATCH_TARGET {
                let grow = if elapsed.as_nanos() == 0 {
                    16
                } else {
                    ((BATCH_TARGET.as_nanos() / elapsed.as_nanos()) as u64).clamp(2, 16)
                };
                iters_per_batch = iters_per_batch.saturating_mul(grow).min(1 << 24);
            }
        }

        let mut samples = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let t = Instant::now();
            for _ in 0..iters_per_batch {
                black_box(routine());
            }
            samples.push(t.elapsed().as_nanos() as f64 / iters_per_batch as f64);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        self.ns_per_iter = samples[samples.len() / 2];
    }

    /// `iter` with a per-call setup closure whose cost is excluded from the
    /// reported time.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut samples = Vec::with_capacity(BATCHES * 4);
        let warm_start = Instant::now();
        while warm_start.elapsed() < WARMUP {
            let input = setup();
            black_box(routine(input));
        }
        // Time each routine call individually; setup runs outside the clock.
        let target_samples = BATCHES * 8;
        for _ in 0..target_samples {
            let input = setup();
            let t = Instant::now();
            let out = routine(input);
            let elapsed = t.elapsed();
            black_box(out);
            samples.push(elapsed.as_nanos() as f64);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        self.ns_per_iter = samples[samples.len() / 2];
    }
}

fn report(name: &str, ns: f64, throughput: Option<Throughput>) {
    let per_elem = match throughput {
        Some(Throughput::Elements(n)) => format!(" {:>10.1} ns/elem", ns / n.max(1) as f64),
        None => String::new(),
    };
    if ns >= 1_000_000.0 {
        println!("{name:<60} {:>12.3} ms/iter{per_elem}", ns / 1_000_000.0);
    } else if ns >= 1_000.0 {
        println!("{name:<60} {:>12.3} us/iter{per_elem}", ns / 1_000.0);
    } else {
        println!("{name:<60} {:>12.1} ns/iter{per_elem}", ns);
    }
}

/// Top-level harness handle, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, None, f);
        self
    }

    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            throughput: None,
        }
    }

    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }
}

fn run_one<F: FnMut(&mut Bencher)>(name: &str, throughput: Option<Throughput>, mut f: F) {
    let mut b = Bencher { ns_per_iter: 0.0 };
    f(&mut b);
    report(name, b.ns_per_iter, throughput);
}

/// Named group of related benchmarks, mirroring `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Report the benchmarks that follow per element as well as per iteration.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function<I: fmt::Display, F>(&mut self, id: I, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&format!("{}/{}", self.name, id), self.throughput, f);
        self
    }

    pub fn bench_with_input<I: fmt::Display, P: ?Sized, F>(
        &mut self,
        id: I,
        input: &P,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &P),
    {
        run_one(&format!("{}/{}", self.name, id), self.throughput, |b| {
            f(b, input)
        });
        self
    }

    pub fn finish(self) {}
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_id_formats_like_criterion() {
        assert_eq!(BenchmarkId::new("lookup", 1024).to_string(), "lookup/1024");
        assert_eq!(BenchmarkId::from_parameter(7).to_string(), "7");
    }

    #[test]
    fn group_chain_compiles_and_runs() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(10);
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        g.throughput(Throughput::Elements(4));
        g.bench_with_input(BenchmarkId::new("sq", 3), &3u64, |b, &n| b.iter(|| n * n));
        g.finish();
    }

    #[test]
    fn iter_batched_times_routine_only() {
        let mut b = Bencher { ns_per_iter: 0.0 };
        b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput);
        assert!(b.ns_per_iter >= 0.0);
    }
}
