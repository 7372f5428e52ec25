//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. port-probe interval — wait-time quantization vs controller load,
//! 2. registry layer-download concurrency — pull-time sensitivity,
//! 3. kubelet sync period & watch latency — what actually makes K8s slow,
//! 4. FlowMemory idle timeout — scale-downs/redeploys vs kept-warm instances,
//! 5. with-waiting vs without-waiting vs hybrid on the bigFlows trace
//!    (also in `all_experiments --only hybrid`, repeated here for the
//!    side-by-side view).

use bench::report::{fmt_ms, Table};
use cluster::ClusterKind;
use simcore::{run_seeds, Percentiles, SimDuration};
use testbed::{measure_first_request, run_bigflows, PhaseSetup, ScenarioConfig, SchedulerSpec};
use workload::ServiceKind;

fn median(samples: Vec<f64>) -> f64 {
    let mut p = Percentiles::new();
    for s in samples {
        p.record(s);
    }
    p.median()
}

fn seeds() -> Vec<u64> {
    (1..=15).collect()
}

fn probe_interval_ablation() {
    println!("== Ablation 1: port-probe interval (Docker, Nginx, scale-up only) ==\n");
    let mut t = Table::new([
        "probe interval",
        "median total",
        "median wait",
        "probes/deploy (est.)",
    ]);
    for ms in [5u64, 20, 50, 100, 250, 500] {
        let rows: Vec<(f64, f64)> = run_seeds(&seeds(), 0, |seed| {
            let mut cfg = ScenarioConfig::default()
                .with_phase(PhaseSetup::Created)
                .with_seed(seed);
            cfg.controller.probe_interval = SimDuration::from_millis(ms);
            let (total, dep) = measure_first_request(cfg);
            let wait = dep
                .map(|d| d.wait_time().as_millis_f64())
                .unwrap_or(f64::NAN);
            (total, wait)
        });
        let total = median(rows.iter().map(|r| r.0).collect());
        let wait = median(rows.iter().map(|r| r.1).collect());
        t.row([
            format!("{ms} ms"),
            fmt_ms(total),
            fmt_ms(wait),
            format!("{:.0}", wait / ms as f64),
        ]);
    }
    println!("{}", t.render());
    println!(
        "  * Coarser probing quantizes readiness detection: total time grows by ~interval/2.\n"
    );
}

fn kubelet_ablation() {
    use cluster::K8sTimings;
    use simcore::DurationDist;

    println!("== Ablation 2: what makes Kubernetes slow (Nginx, scale-up only) ==\n");
    let mut t = Table::new(["K8s control-plane variant", "median total", "vs stock"]);
    let measure = |timings: Option<K8sTimings>| -> f64 {
        median(run_seeds(&seeds(), 0, |seed| {
            let mut cfg = ScenarioConfig::default()
                .with_backend(ClusterKind::Kubernetes)
                .with_phase(PhaseSetup::Created)
                .with_seed(seed);
            cfg.k8s_timings = timings.clone();
            measure_first_request(cfg).0
        }))
    };
    let stock = measure(None);
    t.row([
        "stock (calibrated EGS)".to_string(),
        fmt_ms(stock),
        "-".to_string(),
    ]);
    let cases: Vec<(&str, K8sTimings)> = vec![
        (
            "instant readiness probes (period → 0.1 s)",
            K8sTimings {
                readiness_probe_period: SimDuration::from_millis(100),
                ..K8sTimings::egs()
            },
        ),
        (
            "fast kubelet sync (380 → 50 ms)",
            K8sTimings {
                kubelet_sync: DurationDist::log_normal_ms(50.0, 0.25),
                ..K8sTimings::egs()
            },
        ),
        (
            "fast watches (85 → 10 ms)",
            K8sTimings {
                watch_latency: DurationDist::log_normal_ms(10.0, 0.3),
                ..K8sTimings::egs()
            },
        ),
        (
            "dedicated scheduler (260 → 60 ms)",
            K8sTimings {
                scheduler_latency: DurationDist::log_normal_ms(60.0, 0.3),
                ..K8sTimings::egs()
            },
        ),
        (
            "fast endpoints propagation (230 → 30 ms)",
            K8sTimings {
                endpoints_propagation: DurationDist::log_normal_ms(30.0, 0.3),
                ..K8sTimings::egs()
            },
        ),
        (
            "all of the above",
            K8sTimings {
                readiness_probe_period: SimDuration::from_millis(100),
                kubelet_sync: DurationDist::log_normal_ms(50.0, 0.25),
                watch_latency: DurationDist::log_normal_ms(10.0, 0.3),
                scheduler_latency: DurationDist::log_normal_ms(60.0, 0.3),
                endpoints_propagation: DurationDist::log_normal_ms(30.0, 0.3),
                ..K8sTimings::egs()
            },
        ),
    ];
    for (name, timings) in cases {
        let ms = measure(Some(timings));
        t.row([
            name.to_string(),
            fmt_ms(ms),
            format!("{:+.0} ms", ms - stock),
        ]);
    }
    let docker: f64 = median(run_seeds(&seeds(), 0, |seed| {
        let cfg = ScenarioConfig::default()
            .with_phase(PhaseSetup::Created)
            .with_seed(seed);
        measure_first_request(cfg).0
    }));
    t.row([
        "same containerd, no control plane (Docker)".to_string(),
        fmt_ms(docker),
        format!("{:+.0} ms", docker - stock),
    ]);
    println!("{}", t.render());
    println!("  * No single knob explains the ~3 s: the gap is the *sum* of watches, scheduler,\n    kubelet sync, readiness probing and endpoints propagation — tuning them all\n    brings K8s close to raw containerd (the Docker row).\n");
}

fn idle_timeout_ablation() {
    println!(
        "== Ablation 3: FlowMemory idle timeout → scale-downs and redeploys (bigFlows trace) ==\n"
    );
    let mut t = Table::new([
        "idle timeout",
        "scale-downs",
        "deployments",
        "median first-request",
        "median all",
    ]);
    for secs in [15u64, 30, 60, 120, 600] {
        let rows: Vec<(u64, usize, f64, f64)> =
            run_seeds(&(1..=5).collect::<Vec<_>>(), 0, |seed| {
                let mut cfg = ScenarioConfig::default().with_seed(seed);
                cfg.controller.scale_down_idle = true;
                cfg.controller.memory_idle_timeout = SimDuration::from_secs(secs);
                let (_, r) = run_bigflows(cfg);
                (
                    r.scale_downs,
                    r.deployments.len(),
                    r.median_first_request_ms(),
                    r.median_time_total_ms(),
                )
            });
        let sd = rows.iter().map(|r| r.0).sum::<u64>() / rows.len() as u64;
        let deps = rows.iter().map(|r| r.1).sum::<usize>() / rows.len();
        let first = median(rows.iter().map(|r| r.2).collect());
        let all = median(rows.iter().map(|r| r.3).collect());
        t.row([
            format!("{secs} s"),
            sd.to_string(),
            deps.to_string(),
            fmt_ms(first),
            fmt_ms(all),
        ]);
    }
    println!("{}", t.render());
    println!("  * Short timeouts reclaim idle instances aggressively but pay redeployments; the paper's 5-minute run sees exactly 42 deployments (no reclaim).\n");
}

fn strategy_ablation() {
    println!("== Ablation 4: deployment strategy (bigFlows trace, Nginx) ==\n");
    let mut t = Table::new(["strategy", "held", "cloud detours", "p99 all requests"]);
    let cases: Vec<(&str, ScenarioConfig)> = vec![
        ("with waiting (Docker)", ScenarioConfig::default()),
        (
            "without waiting",
            ScenarioConfig {
                scheduler: SchedulerSpec::nearest_ready_first(),
                ..ScenarioConfig::default()
            },
        ),
        (
            "hybrid Docker+K8s",
            ScenarioConfig {
                scheduler: SchedulerSpec::hybrid_docker_first(),
                backends: vec![ClusterKind::Docker, ClusterKind::Kubernetes],
                ..ScenarioConfig::default()
            },
        ),
    ];
    for (name, cfg) in cases {
        let rows: Vec<(u64, u64, f64)> = run_seeds(&(1..=5).collect::<Vec<_>>(), 0, |seed| {
            let (_, r) = run_bigflows(cfg.clone().with_seed(seed));
            let mut p = Percentiles::new();
            for rec in &r.records {
                p.record_duration(rec.time_total());
            }
            (r.held_requests, r.cloud_forwards, p.p99())
        });
        let held = rows.iter().map(|r| r.0).sum::<u64>() / rows.len() as u64;
        let cloud = rows.iter().map(|r| r.1).sum::<u64>() / rows.len() as u64;
        let p99 = median(rows.iter().map(|r| r.2).collect());
        t.row([
            name.to_string(),
            held.to_string(),
            cloud.to_string(),
            fmt_ms(p99),
        ]);
    }
    println!("{}", t.render());
    println!("  * Waiting concentrates latency in few held requests (high p99); detouring spreads a small WAN penalty over the first requests.\n");
}

fn resnet_waiting_ablation() {
    println!("== Ablation 5: which service types tolerate on-demand waiting ==\n");
    let mut t = Table::new([
        "service",
        "first-request total (Docker)",
        "verdict vs 1 s budget",
    ]);
    for kind in ServiceKind::ALL {
        let total = median(run_seeds(&seeds(), 0, |seed| {
            let cfg = ScenarioConfig::default()
                .with_service(kind)
                .with_phase(PhaseSetup::Created)
                .with_seed(seed);
            measure_first_request(cfg).0
        }));
        let verdict = if total < 1000.0 {
            "OK for most apps"
        } else {
            "needs without-waiting / pre-deploy"
        };
        t.row([kind.to_string(), fmt_ms(total), verdict.to_string()]);
    }
    println!("{}", t.render());
}

fn main() {
    probe_interval_ablation();
    kubelet_ablation();
    idle_timeout_ablation();
    strategy_ablation();
    resnet_waiting_ablation();
}
