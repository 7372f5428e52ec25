//! One pass of a workload through the real pipeline — generate → build →
//! run → hash — timed from outside, plus everything read off the result:
//! the correctness invariants, the sim-clock request metrics and the
//! counters the per-layer report and the replay drivers start from.

use std::time::Instant;

use edgemesh::MeshRunResult;
use simcore::alloc_count;
use testbed::{RunResult, ScenarioConfig, Testbed};
use workload::Trace;

use crate::host;
use crate::span::Spans;
use crate::stats;
use crate::workloads::Workload;

/// A request slower than this misses the edge-latency SLO
/// (`BENCH_sched.json`'s limit: cloud round trips and deployment-blocked
/// first requests violate it, edge-served requests meet it comfortably).
pub const SLO_MS: f64 = 100.0;

/// What the modelled system did, in `SimTime` — exact for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimMetrics {
    pub req_ms_mean: f64,
    pub req_ms_p50: f64,
    pub req_ms_p99: f64,
    pub first_req_ms_p50: f64,
    pub slo_miss_ratio: f64,
    /// Completed requests the percentiles are taken over.
    pub samples: usize,
}

/// Counters of the real run, from `RunResult` or `MeshRunResult`. A field a
/// result type does not expose stays 0 (`MeshRunResult` carries no switch
/// statistics; `RunResult` has no windows).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Counters {
    pub requests: u64,
    pub completed: u64,
    pub lost: u64,
    pub events: u64,
    pub peak_queue_depth: u64,
    pub packets: u64,
    pub table_hits: u64,
    pub table_misses: u64,
    pub memory_hits: u64,
    pub held: u64,
    pub detoured: u64,
    pub cloud_forwards: u64,
    pub retargets: u64,
    pub admission_rejections: u64,
    pub capacity_violations: u64,
    pub deployments: u64,
    pub scale_downs: u64,
    pub removes: u64,
    pub deploy_sim_ms_p50: f64,
    pub first_req_flag_ms_p50: f64,
    pub alloc_prewarm: u64,
    pub alloc_schedule: u64,
    pub alloc_event_loop: u64,
    pub windows: u64,
    pub barrier_stalls: u64,
    pub deltas_sent: u64,
    pub duplicates_avoided: u64,
    pub duplicate_deployments: u64,
    pub lease_rejections: u64,
}

impl Counters {
    /// Table misses for the replay drivers to reproduce. Without switch
    /// statistics (the mesh result exposes none) every request stands for
    /// one — true of 99% of them on the mesh workload's trace.
    pub fn misses_to_replay(&self) -> u64 {
        if self.packets == 0 {
            self.requests
        } else {
            self.table_misses
        }
    }

    /// Requests that were attempted and did not complete.
    pub fn failed(&self) -> u64 {
        self.requests - self.completed.min(self.requests)
    }
}

/// One pass through the pipeline.
#[derive(Debug)]
pub struct Rep {
    pub generate_s: f64,
    /// Scenario construction plus `Testbed::build` (mesh: config only — its
    /// shards are built inside the run call).
    pub build_s: f64,
    pub run_s: f64,
    pub hash_s: f64,
    /// CPU seconds (all threads) consumed across the run call.
    pub run_cpu_s: f64,
    /// CPU seconds consumed from the start of generation to the end of the
    /// hash — the CPU side of [`Rep::wall_s`].
    pub cpu_s: f64,
    pub alloc_build: u64,
    pub alloc_run: u64,
    pub alloc_hash: u64,
    pub hash: u64,
    pub counters: Counters,
    pub sim: SimMetrics,
}

impl Rep {
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s
    }

    /// What `edgesim run` costs a user: set-up, the run call and the hash.
    pub fn wall_s(&self) -> f64 {
        self.setup_s() + self.run_s + self.hash_s
    }
}

/// Time `f`, as a span when the pass is traced.
fn timed<R>(spans: &mut Option<&mut Spans>, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    match spans {
        Some(spans) => spans.time(name, |_| f()),
        None => {
            let t0 = Instant::now();
            let result = f();
            (result, t0.elapsed().as_secs_f64())
        }
    }
}

/// `f`'s result, seconds and heap allocations.
fn timed_counting<R>(
    spans: &mut Option<&mut Spans>,
    name: &str,
    f: impl FnOnce() -> R,
) -> (R, f64, u64) {
    let before = alloc_count::total();
    let (result, secs) = timed(spans, name, f);
    (result, secs, alloc_count::total() - before)
}

/// Run `workload` once. Returns the measurements together with the trace and
/// scenario, which the traced pass sizes its replay drivers from.
pub fn run_once(
    workload: &Workload,
    seed: u64,
    quick: bool,
    mut spans: Option<&mut Spans>,
) -> (Rep, Trace, ScenarioConfig) {
    let cpu_start = host::cpu_seconds();
    let (trace, generate_s) = timed(&mut spans, "workload.generate", || {
        workload.generate(seed, quick)
    });
    let cfg = workload.scenario(seed, quick, &trace);
    let kept_cfg = cfg.clone();
    let mesh = cfg.mesh.shards > 1;

    enum Built {
        Single(Box<Testbed>),
        Mesh(Box<ScenarioConfig>),
    }
    let (built, build_s, alloc_build) = timed_counting(&mut spans, "testbed.build", || {
        if mesh {
            Built::Mesh(Box::new(cfg))
        } else {
            Built::Single(Box::new(Testbed::build(cfg, trace.service_addrs.clone())))
        }
    });

    enum Ran {
        Single(RunResult),
        Mesh(MeshRunResult),
    }
    let cpu_before = host::cpu_seconds();
    let (ran, run_s, alloc_run) = timed_counting(&mut spans, "testbed.run", || match built {
        Built::Single(testbed) => Ran::Single(testbed.run_trace(&trace)),
        Built::Mesh(cfg) => Ran::Mesh(edgemesh::run_mesh_scenario(*cfg, &trace)),
    });
    let run_cpu_s = host::cpu_seconds() - cpu_before;

    let (hash, hash_s, alloc_hash) =
        timed_counting(&mut spans, "simcore.fnv.hash", || match &ran {
            Ran::Single(r) => r.metrics_hash(),
            Ran::Mesh(r) => r.mesh_hash(),
        });

    let cpu_s = host::cpu_seconds() - cpu_start;

    let (counters, sim) = match &ran {
        Ran::Single(r) => {
            let c = single_counters(r, &trace);
            (c, single_sim(r, &trace, c.failed()))
        }
        Ran::Mesh(r) => {
            let c = mesh_counters(r, &trace);
            (c, mesh_sim(r, &trace, c.failed()))
        }
    };
    let rep = Rep {
        generate_s,
        build_s,
        run_s,
        hash_s,
        run_cpu_s,
        cpu_s,
        alloc_build,
        alloc_run,
        alloc_hash,
        hash,
        counters,
        sim,
    };
    (rep, trace, kept_cfg)
}

fn single_counters(r: &RunResult, trace: &Trace) -> Counters {
    let mut deploy_ms: Vec<f64> = r
        .deployments
        .iter()
        .map(|d| d.total().as_millis_f64())
        .collect();
    stats::sort(&mut deploy_ms);
    let alloc = r.alloc_profile.unwrap_or_default();
    Counters {
        requests: trace.requests.len() as u64,
        completed: r.records.len() as u64,
        lost: r.lost,
        events: r.events_scheduled,
        peak_queue_depth: r.peak_queue_depth as u64,
        packets: r.switch_stats.packets,
        table_hits: r.switch_stats.table_hits,
        table_misses: r.switch_stats.table_misses,
        memory_hits: r.memory_hits,
        held: r.held_requests,
        detoured: r.detoured_requests,
        cloud_forwards: r.cloud_forwards,
        retargets: r.retargets,
        admission_rejections: r.admission_rejections,
        capacity_violations: r.capacity_violations,
        deployments: r.deployments.len() as u64,
        scale_downs: r.scale_downs,
        removes: r.removes,
        deploy_sim_ms_p50: if deploy_ms.is_empty() {
            0.0
        } else {
            stats::percentile(&deploy_ms, 0.5)
        },
        first_req_flag_ms_p50: r.median_first_request_ms(),
        alloc_prewarm: alloc.prewarm,
        alloc_schedule: alloc.schedule,
        alloc_event_loop: alloc.event_loop,
        ..Counters::default()
    }
}

fn mesh_counters(r: &MeshRunResult, trace: &Trace) -> Counters {
    let sum = |f: fn(&edgemesh::ShardSummary) -> u64| r.shard_stats.iter().map(f).sum::<u64>();
    Counters {
        requests: trace.requests.len() as u64,
        completed: r.completed,
        lost: r.lost,
        events: r.events,
        memory_hits: sum(|s| s.memory_hits),
        held: sum(|s| s.held_requests),
        detoured: sum(|s| s.detoured_requests),
        cloud_forwards: sum(|s| s.cloud_forwards),
        retargets: r.retargets,
        deployments: r.deployments,
        scale_downs: r.scale_downs,
        removes: r.removes,
        windows: r.windows,
        barrier_stalls: r.barrier_stalls,
        deltas_sent: r.deltas_sent,
        duplicates_avoided: r.duplicate_deployments_avoided,
        duplicate_deployments: r.duplicate_deployments,
        lease_rejections: sum(|s| s.lease_rejections),
        ..Counters::default()
    }
}

/// Request metrics from `(start_ns, service, latency_ms)` of every completed
/// request; `failed` requests count as SLO misses.
fn sim_metrics(
    completed: impl Iterator<Item = (u64, usize, f64)> + Clone,
    trace: &Trace,
    failed: u64,
) -> SimMetrics {
    let mut ms: Vec<f64> = completed.clone().map(|(_, _, ms)| ms).collect();
    if ms.is_empty() {
        return SimMetrics {
            slo_miss_ratio: 1.0,
            ..SimMetrics::default()
        };
    }
    stats::sort(&mut ms);
    let slow = ms.len() - ms.partition_point(|&x| x <= SLO_MS);
    SimMetrics {
        req_ms_mean: ms.iter().sum::<f64>() / ms.len() as f64,
        req_ms_p50: stats::percentile(&ms, 0.5),
        req_ms_p99: stats::percentile(&ms, 0.99),
        first_req_ms_p50: stats::first_request_median(completed, trace.service_addrs.len()),
        slo_miss_ratio: (slow as u64 + failed) as f64 / trace.requests.len() as f64,
        samples: ms.len(),
    }
}

/// Client-perceived `time_total` of every completed request.
fn single_sim(r: &RunResult, trace: &Trace, failed: u64) -> SimMetrics {
    let completed = r.records.iter().map(|rec| {
        (
            rec.started.as_nanos(),
            rec.service,
            rec.time_total().as_millis_f64(),
        )
    });
    sim_metrics(completed, trace, failed)
}

/// `MeshRecord` carries the instant a request's SYN was released into the
/// fabric and no response time, so on the mesh a request's latency is its
/// ingress delay: release instant minus trace arrival, less the smallest
/// such difference in the run (which removes the engine's internal trace
/// offset — a constant the result does not expose).
fn mesh_sim(r: &MeshRunResult, trace: &Trace, failed: u64) -> SimMetrics {
    let raw = |rec: &edgemesh::MeshRecord| {
        rec.released.as_nanos() - trace.requests[rec.tag as usize].at.as_nanos()
    };
    let base = r.records.iter().map(raw).min().unwrap_or(0);
    let completed = r.records.iter().map(|rec| {
        let req = &trace.requests[rec.tag as usize];
        (
            req.at.as_nanos(),
            req.service,
            (raw(rec) - base) as f64 / 1e6,
        )
    });
    sim_metrics(completed, trace, failed)
}

/// The invariants every run must hold, whatever the seed. `Err` lists what
/// broke.
pub fn check_invariants(c: &Counters) -> Result<(), String> {
    let mut broken = Vec::new();
    if c.completed + c.lost != c.requests {
        broken.push(format!(
            "completed {} + lost {} != requests {}",
            c.completed, c.lost, c.requests
        ));
    }
    if c.lost != 0 {
        broken.push(format!("lost = {}", c.lost));
    }
    if c.capacity_violations != 0 {
        broken.push(format!("capacity_violations = {}", c.capacity_violations));
    }
    if c.duplicate_deployments != 0 {
        broken.push(format!(
            "duplicate_deployments = {}",
            c.duplicate_deployments
        ));
    }
    if broken.is_empty() {
        Ok(())
    } else {
        Err(broken.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariants_name_every_breach() {
        let ok = Counters {
            requests: 10,
            completed: 10,
            ..Counters::default()
        };
        assert_eq!(check_invariants(&ok), Ok(()));
        let bad = Counters {
            requests: 10,
            completed: 8,
            lost: 1,
            capacity_violations: 2,
            duplicate_deployments: 3,
            ..Counters::default()
        };
        let msg = check_invariants(&bad).unwrap_err();
        for part in [
            "!= requests 10",
            "lost = 1",
            "capacity_violations = 2",
            "duplicate_deployments = 3",
        ] {
            assert!(msg.contains(part), "{msg}");
        }
        assert_eq!(bad.failed(), 2);
    }

    #[test]
    fn slow_and_failed_requests_both_miss_the_slo() {
        let trace = crate::workloads::by_name("city_100x")
            .unwrap()
            .generate(1, true);
        let n = trace.requests.len();
        // Every request completes in 1 ms except three slow ones; two more
        // never complete.
        let completed = (0..n - 2).map(|i| (i as u64, 0usize, if i < 3 { 250.0 } else { 1.0 }));
        let m = sim_metrics(completed, &trace, 2);
        assert_eq!(m.samples, n - 2);
        assert_eq!(m.req_ms_p50, 1.0);
        assert_eq!(
            m.req_ms_mean,
            (3.0 * 250.0 + (n - 5) as f64) / (n - 2) as f64
        );
        assert_eq!(m.first_req_ms_p50, 250.0);
        assert_eq!(m.slo_miss_ratio, 5.0 / n as f64);
        // Nothing completed: every request misses.
        let none = sim_metrics(std::iter::empty(), &trace, n as u64);
        assert_eq!(none.slo_miss_ratio, 1.0);
    }
}
