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
//!
//! Like criterion, a bench binary takes a name filter: `cargo bench --bench
//! NAME -- cold_catalog` runs only the benchmarks whose full name (`group/id`)
//! contains `cold_catalog` (see [`Criterion::with_args`]).

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
    /// Run only the benchmarks whose full name contains this.
    filter: Option<String>,
}

impl Criterion {
    /// The harness [`criterion_main!`] builds from the bench binary's
    /// arguments: the first one that does not start with `-` is a substring
    /// filter on benchmark names, so `cargo bench`'s own `--bench` flag is
    /// skipped. With no such argument every benchmark runs.
    pub fn with_args<I: IntoIterator<Item = String>>(args: I) -> Criterion {
        Criterion {
            filter: args.into_iter().find(|a| !a.starts_with('-')),
        }
    }

    /// Does the filter select the benchmark named `name`?
    fn selects(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if self.selects(name) {
            run_one(name, None, f);
        }
        self
    }

    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
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
    parent: &'a mut Criterion,
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
        let name = format!("{}/{}", self.name, id);
        if self.parent.selects(&name) {
            run_one(&name, self.throughput, f);
        }
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
        self.bench_function(id, |b| f(b, input))
    }

    pub fn finish(self) {}
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// The bench binary's `main`: one [`Criterion`] built by
/// [`Criterion::with_args`] from the command line, handed to every group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::with_args(::std::env::args().skip(1));
            $( $group(&mut c); )+
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
    fn the_first_positional_argument_filters_benchmark_names() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let mut c = Criterion::with_args(args(&["--bench", "cold", "warm"]));
        assert_eq!(c.filter.as_deref(), Some("cold"));
        let mut ran = Vec::new();
        c.bench_function("packet_in_cold", |b| {
            ran.push("packet_in_cold");
            b.iter(|| 1)
        });
        c.bench_function("packet_in_warm", |b| {
            ran.push("packet_in_warm");
            b.iter(|| 1)
        });
        let mut g = c.benchmark_group("cold_catalog");
        g.bench_with_input("n", &2u64, |b, &n| {
            ran.push("cold_catalog/n");
            b.iter(|| n)
        });
        g.bench_function("m", |b| {
            ran.push("cold_catalog/m");
            b.iter(|| 1)
        });
        g.finish();
        assert_eq!(ran, ["packet_in_cold", "cold_catalog/n", "cold_catalog/m"]);

        // `cargo bench` with no filter passes only its own flag.
        assert_eq!(Criterion::with_args(args(&["--bench"])).filter, None);
        assert!(Criterion::with_args(Vec::new()).selects("anything"));
    }

    #[test]
    fn iter_batched_times_routine_only() {
        let mut b = Bencher { ns_per_iter: 0.0 };
        b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput);
        assert!(b.ns_per_iter >= 0.0);
    }
}
