//! The two kinds of run the contract asks for. The **timed** pass repeats the
//! pipeline with tracing off for the requested time and reports the
//! end-to-end metrics; the **traced** pass runs it once inside spans, reads
//! the layer counters, runs the replay drivers and reports the per-layer
//! metrics. Both check the run's outputs.

use std::collections::BTreeMap;
use std::time::Instant;

use cluster::ClusterKind;
use testbed::Testbed;

use crate::contract::{END_TO_END, PER_LAYER};
use crate::host;
use crate::json::Json;
use crate::measure::{check_invariants, run_once, Rep};
use crate::replay;
use crate::span::Spans;
use crate::stats;
use crate::workloads::{by_name, Kind, Workload, PIN_SEED};

/// How long the timed pass keeps starting reps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Start another rep while it is expected to end nearer this many
    /// seconds into the pass than stopping would: a pass lasts about this
    /// long whatever a rep costs, and never twice as long.
    Seconds(f64),
    /// Exactly this many reps.
    Reps(usize),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// `C`/`S`/`R` for a per-layer metric, empty for an end-to-end one.
    pub source: &'static str,
}

/// What one run of the benchmark reports.
#[derive(Debug)]
pub struct PassResult {
    pub metrics: Vec<Metric>,
    /// Requests the measured reps attempted, and how many did not complete.
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness check that failed; empty = correct.
    pub problems: Vec<String>,
    /// Context lines for people (rep count, quartiles, sample count).
    pub notes: Vec<String>,
    /// Seconds in the run call: the median over the timed pass's reps, or
    /// the traced pass's single reading. Their ratio is the tracing overhead.
    pub run_s: f64,
}

impl PassResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line of the contract: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let value = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
            (m.name, value)
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Checks shared by both passes: the invariants, and at the pinned seed and
/// full size the hash the defining commit produced. `seed` is the run's
/// `--seed`, not the input seed derived from it.
fn check_rep(workload: &Workload, seed: u64, quick: bool, rep: &Rep, problems: &mut Vec<String>) {
    if let Err(broken) = check_invariants(&rep.counters) {
        problems.push(broken);
    }
    if seed == PIN_SEED && !quick && rep.hash != workload.pin_seed42 {
        problems.push(format!(
            "seed-{PIN_SEED} hash {:#018x} != pinned {:#018x}",
            rep.hash, workload.pin_seed42
        ));
    }
}

/// A non-finite value has no JSON form and a metric that cannot be computed
/// is a failed run, not a zero.
fn check_finite(metrics: &[Metric], problems: &mut Vec<String>) {
    for m in metrics {
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not finite", m.name));
        }
    }
}

pub fn timed_pass(workload: &Workload, seed: u64, quick: bool, budget: Budget) -> PassResult {
    let started = Instant::now();
    let input = workload.input_seed(seed, quick);
    let screening_s = started.elapsed().as_secs_f64();
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss_mib = 0.0;
    loop {
        reps.push(run_once(workload, input, quick, None).0);
        if reps.len() == 1 {
            // Read after the first rep: on a pristine heap the peak repeats
            // from run to run, while later reps add allocator history that
            // depends on how many of them the time budget admits.
            peak_rss_mib = host::peak_rss_mib();
        }
        let done = match budget {
            Budget::Seconds(s) => {
                let elapsed = started.elapsed().as_secs_f64();
                let per_rep = (elapsed - screening_s) / reps.len() as f64;
                elapsed + per_rep / 2.0 >= s
            }
            Budget::Reps(n) => reps.len() >= n,
        };
        if done {
            break;
        }
    }

    let mut problems = Vec::new();
    for rep in &reps {
        check_rep(workload, seed, quick, rep, &mut problems);
    }
    let first = &reps[0];
    if reps
        .iter()
        .any(|r| r.hash != first.hash || r.sim != first.sim)
    {
        problems.push("reps of one seed disagree on the metrics hash".into());
    }
    problems.dedup();

    let column = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let requests = first.counters.requests as f64;
    let setup = column(Rep::setup_s);
    let wall = column(Rep::wall_s);
    let run = column(|r| r.run_s);
    let value = |name: &str| match name {
        "setup_s" => stats::median(&setup),
        "wall_s" => stats::median(&wall),
        "sim_req_per_s" => requests / stats::median(&run),
        "cpu_s" => stats::median(&column(|r| r.cpu_s)),
        "peak_rss_mib" => peak_rss_mib,
        "allocs_per_req" => stats::median(&column(|r| r.alloc_run as f64)) / requests,
        "req_ms_mean" => first.sim.req_ms_mean,
        "req_ms_p99" => first.sim.req_ms_p99,
        "first_req_ms_p50" => first.sim.first_req_ms_p50,
        "slo_miss_ratio" => first.sim.slo_miss_ratio,
        other => unreachable!("end-to-end metric `{other}` has no definition"),
    };
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: value(m.name),
            unit: m.unit,
            source: "",
        })
        .collect();
    check_finite(&metrics, &mut problems);

    let quartile_note = |name: &str, v: &[f64]| {
        let (q1, med, q3) = stats::quartiles(v);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        format!(
            "{name}: median {med:.4} s, q1 {q1:.4} s, q3 {q3:.4} s, min {min:.4} s over {} reps",
            v.len()
        )
    };
    let mut notes = vec![
        quartile_note("setup", &setup),
        quartile_note("run call", &run),
        quartile_note("wall", &wall),
        format!(
            "request times over {} completed requests; {} events; hash {:#018x}",
            first.sim.samples, first.counters.events, first.hash
        ),
    ];
    if workload.kind == Kind::ChurnK8s {
        notes.push(format!(
            "inputs from seed {input}, screened in {screening_s:.4} s"
        ));
    }
    PassResult {
        metrics,
        attempted: reps.iter().map(|r| r.counters.requests).sum(),
        failed: reps.iter().map(|r| r.counters.failed()).sum(),
        problems,
        notes,
        run_s: stats::median(&run),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn traced_pass(workload: &Workload, seed: u64, quick: bool) -> PassResult {
    let mut spans = Spans::new(workload.name);
    let mut problems = Vec::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    let (input, _) = spans.time("workload.input_seed", |_| workload.input_seed(seed, quick));
    let ((rep, trace, cfg), _) =
        spans.time("pipeline", |s| run_once(workload, input, quick, Some(s)));
    check_rep(workload, seed, quick, &rep, &mut problems);
    // From here on every generator takes the input seed.
    let seed = input;
    let c = rep.counters;
    let requests = c.requests as f64;
    let mesh = cfg.mesh.shards > 1;

    m.insert("workload.generate_s", rep.generate_s);
    m.insert(
        "workload.generate_ns_per_req",
        rep.generate_s * 1e9 / requests,
    );
    m.insert("testbed.build_s", rep.build_s);
    m.insert("testbed.run_s", rep.run_s);
    m.insert("testbed.events", c.events as f64);
    m.insert("testbed.events_per_req", c.events as f64 / requests);
    m.insert("testbed.events_per_s", c.events as f64 / rep.run_s);
    m.insert("testbed.peak_queue_depth", c.peak_queue_depth as f64);
    m.insert("testbed.alloc.build", rep.alloc_build as f64);
    m.insert("testbed.alloc.prewarm", c.alloc_prewarm as f64);
    m.insert("testbed.alloc.schedule", c.alloc_schedule as f64);
    m.insert("testbed.alloc.event_loop", c.alloc_event_loop as f64);
    m.insert("testbed.alloc.hash", rep.alloc_hash as f64);
    m.insert("testbed.req_ms_p50", rep.sim.req_ms_p50);
    m.insert("testbed.first_req_flag_ms_p50", c.first_req_flag_ms_p50);
    m.insert("simcore.fnv.hash_s", rep.hash_s);
    m.insert(
        "simcore.fnv.ns_per_record",
        rep.hash_s * 1e9 / c.completed.max(1) as f64,
    );
    m.insert("simnet.switch.packets", c.packets as f64);
    m.insert("simnet.switch.table_hits", c.table_hits as f64);
    m.insert("simnet.switch.table_misses", c.table_misses as f64);
    // Misses per request, the issue's reading (169 334 misses for 170 800
    // requests): a released packet's second pass through the table counts
    // among `table_hits`, so misses ÷ packets would halve it.
    m.insert("simnet.switch.miss_ratio", c.table_misses as f64 / requests);
    // Every first-pass miss raises one PacketIn; with nothing lost there
    // are no second-pass misses to subtract.
    m.insert("edgectl.controller.packet_ins", c.table_misses as f64);
    m.insert("edgectl.controller.held", c.held as f64);
    m.insert("edgectl.controller.detoured", c.detoured as f64);
    m.insert("edgectl.controller.cloud_forwards", c.cloud_forwards as f64);
    m.insert("edgectl.controller.retargets", c.retargets as f64);
    m.insert(
        "edgectl.controller.admission_rejections",
        c.admission_rejections as f64,
    );
    m.insert("edgectl.flowmemory.hits", c.memory_hits as f64);
    m.insert(
        "edgectl.flowmemory.hit_ratio",
        ratio(c.memory_hits as f64, c.table_misses as f64),
    );
    m.insert("edgectl.dispatcher.deployments", c.deployments as f64);
    m.insert("edgectl.dispatcher.scale_downs", c.scale_downs as f64);
    m.insert("edgectl.dispatcher.removes", c.removes as f64);
    m.insert("edgectl.dispatcher.deploy_sim_ms_p50", c.deploy_sim_ms_p50);
    m.insert("harness.cpu_util", rep.run_cpu_s / rep.run_s);
    m.insert("harness.host_cpus", host::host_cpus() as f64);

    // The mesh engine: its counters, the same run on one thread (which must
    // hash the same) and the single-controller run of the same trace.
    for layer in PER_LAYER
        .iter()
        .filter(|l| l.name.starts_with("edgemesh.par."))
    {
        m.insert(layer.name, 0.0);
    }
    if mesh {
        let mut one_thread = cfg.clone();
        one_thread.mesh.threads = 1;
        let (t1, run_s_t1) = spans.time("edgemesh.par.run_t1", |_| {
            edgemesh::run_mesh_scenario(one_thread, &trace)
        });
        if t1.mesh_hash() != rep.hash {
            problems.push(format!(
                "threads=1 hash {:#018x} != threads={} hash {:#018x}",
                t1.mesh_hash(),
                cfg.mesh.threads,
                rep.hash
            ));
        }
        let single_cfg = by_name("city_100x")
            .expect("city_100x is the mesh trace's single-controller workload")
            .scenario(seed, quick, &trace);
        let single = Testbed::build(single_cfg, trace.service_addrs.clone());
        let (_, single_run_s) = spans.time("edgemesh.par.single_run", |_| single.run_trace(&trace));
        m.insert("edgemesh.par.events", c.events as f64);
        m.insert("edgemesh.par.events_per_req", c.events as f64 / requests);
        m.insert("edgemesh.par.windows", c.windows as f64);
        m.insert(
            "edgemesh.par.events_per_window",
            ratio(c.events as f64, c.windows as f64),
        );
        m.insert(
            "edgemesh.par.stalls_per_window",
            ratio(c.barrier_stalls as f64, c.windows as f64),
        );
        m.insert("edgemesh.par.deltas_sent", c.deltas_sent as f64);
        m.insert(
            "edgemesh.par.duplicates_avoided",
            c.duplicates_avoided as f64,
        );
        m.insert(
            "edgemesh.par.duplicate_deployments",
            c.duplicate_deployments as f64,
        );
        m.insert("edgemesh.par.lease_rejections", c.lease_rejections as f64);
        m.insert("edgemesh.par.run_s_t1", run_s_t1);
        m.insert("edgemesh.par.speedup_t2", run_s_t1 / rep.run_s);
        m.insert("edgemesh.par.single_ratio", rep.run_s / single_run_s);
    }

    // The verifier riding along costs minutes at full size (its final audit
    // walks clients × services), so it is timed on the workload at `--quick`
    // size: an audited run against a plain one.
    let (mut audit_s, mut violations) = (0.0, 0.0);
    if matches!(workload.kind, Kind::City100x | Kind::Spill3Tier) {
        let small = workload.generate(seed, true);
        let build = || {
            Testbed::build(
                workload.scenario(seed, true, &small),
                small.service_addrs.clone(),
            )
        };
        let (plain, audited) = (build(), build());
        let (_, plain_s) = spans.time("edgeverify.plain_run", |_| plain.run_trace(&small));
        let ((_, report), audited_s) = spans.time("edgeverify.audited_run", |_| {
            audited.run_trace_audited(&small)
        });
        audit_s = audited_s - plain_s;
        violations = report.violations().count() as f64;
        if !report.is_clean() {
            problems.push(format!("edgeverify found {violations} violations"));
        }
    }
    m.insert("edgeverify.audit_s", audit_s);
    m.insert("edgeverify.violations", violations);

    // Replay drivers, sized from this pass's counters.
    let (shards, threads) = (cfg.mesh.shards, cfg.mesh.threads);
    spans.time("replay", |spans| {
        // `MeshRunResult` reports no queue depth; each shard's runner is
        // seeded with its whole share of the trace's SYNs up front.
        let depth = if mesh {
            c.requests / shards as u64
        } else {
            c.peak_queue_depth
        };
        let queue_ns = replay::queue(spans, c.events, depth, trace.config.duration, seed);
        let crew_ns = replay::shard_crew(spans, c.windows, shards, threads);
        let path = replay::control_path(spans, &c, &cfg, &trace);
        let memory = replay::flow_memory(spans, &c, &cfg, &trace);
        let docker_ns = replay::cluster_deploy(spans, ClusterKind::Docker, c.deployments, &cfg);
        let k8s_ns = replay::cluster_deploy(spans, ClusterKind::Kubernetes, c.deployments, &cfg);
        let lease_ns = if mesh {
            replay::lease(spans, c.deployments, shards, trace.service_addrs.len())
        } else {
            0.0
        };

        // Shares of the CPU time of the run call (wall × threads kept busy).
        let run_cpu_ns = rep.run_cpu_s.max(rep.run_s) * 1e9;
        let queue_share = queue_ns * c.events as f64 / run_cpu_ns;
        let switch_share = (path.ns_per_hit * c.table_hits as f64
            + path.ns_per_miss * c.table_misses as f64
            // A redirect installs a forward and a reverse rule.
            + path.ns_per_install * 2.0 * c.table_misses as f64)
            / run_cpu_ns;
        let controller_share = path.ns_per_packet_in * c.table_misses as f64 / run_cpu_ns;
        let site_kind = cfg.resolved_sites()[0].1;
        let deploy_ns = if site_kind == ClusterKind::Kubernetes {
            k8s_ns
        } else {
            docker_ns
        };
        let deploy_share = deploy_ns * c.deployments as f64 / run_cpu_ns;

        m.insert("simcore.queue.ns_per_event", queue_ns);
        m.insert("simcore.queue.share_est", queue_share);
        m.insert("simcore.shard_crew.ns_per_window", crew_ns);
        m.insert("simnet.switch.ns_per_hit", path.ns_per_hit);
        m.insert("simnet.switch.ns_per_miss", path.ns_per_miss);
        m.insert("simnet.switch.ns_per_install", path.ns_per_install);
        m.insert(
            "simnet.switch.ns_per_expire_sweep",
            path.ns_per_expire_sweep,
        );
        m.insert("simnet.switch.share_est", switch_share);
        m.insert("edgectl.controller.ns_per_packet_in", path.ns_per_packet_in);
        m.insert("edgectl.controller.ns_per_wakeup", path.ns_per_wakeup);
        m.insert("edgectl.controller.share_est", controller_share);
        m.insert("edgectl.catalog.ns_per_lookup", path.ns_per_catalog_lookup);
        m.insert("edgectl.flowmemory.ns_per_recall", memory.ns_per_recall);
        m.insert("edgectl.flowmemory.ns_per_remember", memory.ns_per_remember);
        m.insert("edgectl.flowmemory.ns_per_expire", memory.ns_per_expire);
        m.insert("edgectl.scheduler.ns_per_decide", path.ns_per_decide);
        m.insert("cluster.docker.ns_per_deploy", docker_ns);
        m.insert("cluster.k8s.ns_per_deploy", k8s_ns);
        m.insert("cluster.deploy_share_est", deploy_share);
        m.insert("edgemesh.lease.ns_per_acquire", lease_ns);
        m.insert(
            "testbed.unattributed_share",
            1.0 - queue_share - switch_share - controller_share - deploy_share,
        );
    });

    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|l| Metric {
            name: l.name,
            value: m
                .remove(l.name)
                .unwrap_or_else(|| panic!("per-layer metric `{}` was not measured", l.name)),
            unit: l.unit,
            source: l.source.tag(),
        })
        .collect();
    assert!(
        m.is_empty(),
        "measured metrics missing from the contract: {m:?}"
    );
    check_finite(&metrics, &mut problems);

    let trace_path = format!("target/edgebench/trace-{}.json", workload.name);
    let written = std::fs::create_dir_all("target/edgebench")
        .and_then(|()| std::fs::write(&trace_path, spans.chrome_trace().pretty()));
    let notes = vec![match written {
        Ok(()) => format!("spans written to {trace_path}"),
        Err(e) => format!("spans not written to {trace_path}: {e}"),
    }];
    PassResult {
        metrics,
        attempted: c.requests,
        failed: c.failed(),
        problems,
        notes,
        run_s: rep.run_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let pass = PassResult {
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
                source: "",
            }],
            attempted: 1000,
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
            run_s: 0.5,
        };
        let line = pass.result_line();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.to_string(),
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
        let failing = PassResult {
            problems: vec!["lost = 1".into()],
            ..pass
        };
        assert_eq!(
            failing.result_line().get("correct"),
            Some(&Json::Bool(false))
        );
    }

    /// The smoke test `--quick` exists for: every workload, both passes, at
    /// a tenth of the size — every metric of the contract is reported, is
    /// finite, and the run checks out.
    #[test]
    fn quick_passes_report_every_metric_of_the_contract() {
        for workload in &WORKLOADS {
            let timed = timed_pass(workload, 7, true, Budget::Reps(2));
            assert_eq!(timed.problems, Vec::<String>::new(), "{}", workload.name);
            let names: Vec<&str> = timed.metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, want);
            for metric in &timed.metrics {
                assert!(
                    metric.value > 0.0,
                    "{} {} is never 0",
                    workload.name,
                    metric.name
                );
            }
            assert_eq!(timed.failed, 0);
            assert_eq!(
                timed.attempted,
                2 * workload.trace_config(true).total_requests as u64
            );

            let traced = traced_pass(workload, 7, true);
            assert_eq!(traced.problems, Vec::<String>::new(), "{}", workload.name);
            let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, want);
            let get = |name: &str| {
                traced
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap()
                    .value
            };
            let shares = get("simcore.queue.share_est")
                + get("simnet.switch.share_est")
                + get("edgectl.controller.share_est")
                + get("cluster.deploy_share_est")
                + get("testbed.unattributed_share");
            assert!(
                (shares - 1.0).abs() < 1e-9,
                "{} shares sum to {shares}",
                workload.name
            );
            assert_eq!(get("edgeverify.violations"), 0.0);
        }
    }
}
