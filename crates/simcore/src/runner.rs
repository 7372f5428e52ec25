//! Parallel experiment fan-out.
//!
//! Simulations in this workspace are deterministic single-threaded functions of
//! `(config, seed)`. To get confidence intervals we run many seeds; this module
//! spreads those runs over a crossbeam scoped thread pool and returns results
//! **in seed order**, so the output of an experiment is itself deterministic
//! regardless of thread scheduling.

// edgelint: allow(threading) — cross-run fan-out, not within-run state: each
// seed's simulation is single-threaded and results return in seed order
use std::sync::atomic::{AtomicUsize, Ordering};

/// How a seed fan-out actually executed — returned alongside results so
/// experiment reports can record the parallelism they ran under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerMeta {
    /// Worker threads actually used, after clamping the request to the seed
    /// count and the machine's available parallelism.
    pub effective_threads: usize,
    /// Seeds claimed per atomic cursor bump.
    pub chunk_size: usize,
}

impl RunnerMeta {
    /// The meta a `run_seeds(seeds, threads, _)` call of this shape executes
    /// under. Pure — no threads are spawned; `run_seeds_meta` uses the same
    /// computation, so a plan always matches the actual execution.
    pub fn plan(threads: usize, jobs: usize) -> RunnerMeta {
        let threads = effective_threads(threads, jobs);
        RunnerMeta {
            effective_threads: threads,
            chunk_size: chunk_size(jobs, threads),
        }
    }
}

/// Run `f(seed)` for every seed, in parallel, preserving input order.
///
/// `threads = 0` means "number of available CPUs". Work is distributed by
/// atomic work-stealing over the seed list, so uneven run times don't leave
/// threads idle.
///
/// ```
/// let results = simcore::run_seeds(&[1, 2, 3], 0, |seed| seed * 10);
/// assert_eq!(results, vec![10, 20, 30]);
/// ```
pub fn run_seeds<R, F>(seeds: &[u64], threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    run_seeds_meta(seeds, threads, f).0
}

/// [`run_seeds`], plus [`RunnerMeta`] describing the execution.
///
/// Threads claim seeds in chunks (one `fetch_add` per chunk, not per seed):
/// neighbouring seeds stay on one core and the shared cursor line is touched
/// `n / chunk` times instead of `n`.
pub(crate) fn run_seeds_meta<R, F>(seeds: &[u64], threads: usize, f: F) -> (Vec<R>, RunnerMeta)
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let n = seeds.len();
    let meta = RunnerMeta::plan(threads, n);
    let threads = meta.effective_threads;
    let chunk = meta.chunk_size;
    if n == 0 {
        return (Vec::new(), meta);
    }
    if threads <= 1 {
        return (seeds.iter().map(|&s| f(s)).collect(), meta);
    }

    // edgelint: allow(threading) — work-stealing cursor orders only which
    // thread claims a chunk; each result carries its input index and is
    // sorted back by it, so the output is schedule-independent
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = crossbeam::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|_| {
                    let mut done = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            return done;
                        }
                        let end = (start + chunk).min(n);
                        for (i, &seed) in seeds[start..end].iter().enumerate() {
                            done.push((start + i, f(seed)));
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("runner thread panicked"))
            .collect()
    })
    .expect("runner thread panicked");

    assert_eq!(done.len(), n, "every seed ran once");
    done.sort_unstable_by_key(|&(i, _)| i);
    (done.into_iter().map(|(_, r)| r).collect(), meta)
}

fn effective_threads(requested: usize, jobs: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let t = if requested == 0 { hw } else { requested };
    t.min(jobs).max(1)
}

/// Seeds per cursor bump: big enough to amortize the atomic, small enough
/// that uneven run times still balance (aim for ≥ 8 claims per thread).
fn chunk_size(jobs: usize, threads: usize) -> usize {
    (jobs / (threads.max(1) * 8)).clamp(1, 16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_seed_order() {
        let seeds: Vec<u64> = (0..100).collect();
        let out = run_seeds(&seeds, 8, |s| s * s);
        let want: Vec<u64> = seeds.iter().map(|s| s * s).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn runs_every_seed_exactly_once() {
        let seeds: Vec<u64> = (0..257).collect();
        let out = run_seeds(&seeds, 4, |s| s);
        let set: HashSet<u64> = out.iter().copied().collect();
        assert_eq!(set.len(), 257);
    }

    #[test]
    fn single_thread_path() {
        let out = run_seeds(&[5, 6], 1, |s| s + 1);
        assert_eq!(out, vec![6, 7]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = run_seeds(&[], 4, |s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn actually_parallel_when_asked() {
        // All threads must observe work; count distinct claims.
        let calls = AtomicU64::new(0);
        let seeds: Vec<u64> = (0..64).collect();
        let out = run_seeds(&seeds, 0, |s| {
            calls.fetch_add(1, Ordering::Relaxed);
            s
        });
        assert_eq!(out.len(), 64);
        assert_eq!(calls.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let seeds: Vec<u64> = (0..50).collect();
        let a = run_seeds(&seeds, 1, |s| s.wrapping_mul(0x9E3779B9));
        let b = run_seeds(&seeds, 7, |s| s.wrapping_mul(0x9E3779B9));
        assert_eq!(a, b);
    }

    #[test]
    fn chunked_claiming_is_exhaustive_and_ordered() {
        // Exercise chunk sizes > 1 (1000 seeds / 4 threads → chunk 16) and a
        // final partial chunk (1000 % 16 != 0).
        let seeds: Vec<u64> = (0..1000).collect();
        let (out, meta) = run_seeds_meta(&seeds, 4, |s| s + 7);
        let want: Vec<u64> = seeds.iter().map(|s| s + 7).collect();
        assert_eq!(out, want);
        assert_eq!(meta.effective_threads, effective_threads(4, 1000));
        assert!(meta.chunk_size > 1);
    }

    #[test]
    fn meta_reports_clamped_threads() {
        // More threads than seeds: clamped to the job count.
        let (_, meta) = run_seeds_meta(&[1, 2, 3], 64, |s| s);
        assert_eq!(meta.effective_threads, 3);
        assert_eq!(meta.chunk_size, 1);
        // Empty input still reports a sane meta.
        let (out, meta) = run_seeds_meta(&[], 4, |s| s);
        assert!(out.is_empty());
        assert_eq!(meta.effective_threads, 1);
    }
}
