//! End-to-end tests: the full C³ simulation reproduces the qualitative
//! results of the paper's evaluation section.

use cluster::ClusterKind;
use simcore::run_seeds;
use testbed::{measure_first_request, run_bigflows, PhaseSetup, ScenarioConfig, SchedulerSpec};
use workload::ServiceKind;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn scale_up_median_ms(service: ServiceKind, backend: ClusterKind) -> f64 {
    let samples = run_seeds(&(0..15).collect::<Vec<u64>>(), 0, |seed| {
        let cfg = ScenarioConfig::default()
            .with_service(service)
            .with_backend(backend)
            .with_phase(PhaseSetup::Created)
            .with_seed(seed);
        measure_first_request(cfg).0
    });
    median(samples)
}

#[test]
fn fig11_docker_under_one_second_k8s_about_three() {
    let docker = scale_up_median_ms(ServiceKind::Nginx, ClusterKind::Docker);
    let k8s = scale_up_median_ms(ServiceKind::Nginx, ClusterKind::Kubernetes);
    assert!(
        (350.0..1000.0).contains(&docker),
        "Docker nginx scale-up total {docker} ms (paper: <1 s)"
    );
    assert!(
        (2200.0..3900.0).contains(&k8s),
        "K8s nginx scale-up total {k8s} ms (paper: ~3 s)"
    );
    assert!(k8s / docker > 3.0, "K8s must be several times slower");
}

#[test]
fn fig11_asm_and_nginx_indistinguishable_resnet_much_slower() {
    // "there is no notable difference between starting the tiny Assembler
    // web server and the far larger Nginx instance. As expected, ResNet
    // takes significantly longer to start."
    let asm = scale_up_median_ms(ServiceKind::Asm, ClusterKind::Docker);
    let nginx = scale_up_median_ms(ServiceKind::Nginx, ClusterKind::Docker);
    let resnet = scale_up_median_ms(ServiceKind::ResNet, ClusterKind::Docker);
    assert!(
        (asm - nginx).abs() < 250.0,
        "asm {asm} vs nginx {nginx}: no notable difference expected"
    );
    assert!(resnet > nginx + 1500.0, "resnet {resnet} vs nginx {nginx}");
}

#[test]
fn fig12_create_adds_roughly_100ms() {
    let scale_only = scale_up_median_ms(ServiceKind::Nginx, ClusterKind::Docker);
    let with_create = {
        let samples = run_seeds(&(0..15).collect::<Vec<u64>>(), 0, |seed| {
            let cfg = ScenarioConfig::default()
                .with_phase(PhaseSetup::ImagesCached)
                .with_seed(seed);
            measure_first_request(cfg).0
        });
        median(samples)
    };
    let overhead = with_create - scale_only;
    assert!(
        (30.0..350.0).contains(&overhead),
        "create overhead {overhead} ms (paper: ~100 ms)"
    );
}

#[test]
fn fig16_running_instance_serves_in_milliseconds() {
    let cfg = ScenarioConfig::default().with_phase(PhaseSetup::Running);
    let (ms, dep) = measure_first_request(cfg);
    assert!(dep.is_none(), "no deployment needed");
    assert!(ms < 5.0, "running nginx answered in {ms} ms (paper: ~1 ms)");

    // ResNet inference is orders of magnitude slower even when running.
    let cfg = ScenarioConfig::default()
        .with_service(ServiceKind::ResNet)
        .with_phase(PhaseSetup::Running);
    let (resnet_ms, _) = measure_first_request(cfg);
    assert!(
        resnet_ms > 100.0,
        "resnet inference {resnet_ms} ms must dominate"
    );
}

#[test]
fn cold_start_includes_pull_and_dominates() {
    let cfg = ScenarioConfig::default()
        .with_phase(PhaseSetup::Cold)
        .with_seed(3);
    let (ms, dep) = measure_first_request(cfg);
    let dep = dep.expect("cold start deploys");
    assert!(dep.pull.is_some(), "cold start pulls the image");
    let (p0, p1) = dep.pull.unwrap();
    let pull_ms = (p1 - p0).as_millis_f64();
    assert!(
        pull_ms > 1000.0,
        "nginx pull takes seconds, got {pull_ms} ms"
    );
    assert!(ms > pull_ms, "total {ms} includes the pull {pull_ms}");
}

#[test]
fn bigflows_replay_matches_paper_marginals() {
    let (trace, result) = run_bigflows(ScenarioConfig::default().with_seed(7));
    assert_eq!(trace.requests.len(), 1708);
    // every request completes
    assert_eq!(result.records.len(), 1708);
    assert_eq!(result.lost, 0);
    // exactly 42 deployments: one per service, no re-deployments (Fig. 10)
    assert_eq!(result.deployments.len(), 42);
    // Every service deployed once; requests during deployment piggyback.
    assert!(result.held_requests >= 42);
    // The vast majority of requests hit an already-running instance and are
    // served in milliseconds.
    let totals = result.time_totals_ms();
    let fast = totals.iter().filter(|&&t| t < 10.0).count();
    assert!(
        fast as f64 > 0.9 * totals.len() as f64,
        "{fast}/{} requests fast",
        totals.len()
    );
    // Deployment-triggering requests pay the on-demand cost.
    let first_ms = result.median_first_request_ms();
    assert!(
        (350.0..1500.0).contains(&first_ms),
        "median first-request total {first_ms} ms on Docker"
    );
}

#[test]
fn bigflows_deterministic_per_seed() {
    let (_, a) = run_bigflows(ScenarioConfig::default().with_seed(11));
    let (_, b) = run_bigflows(ScenarioConfig::default().with_seed(11));
    assert_eq!(a.records, b.records);
    assert_eq!(a.switch_stats, b.switch_stats);
    let (_, c) = run_bigflows(ScenarioConfig::default().with_seed(12));
    assert_ne!(a.records, c.records);
}

#[test]
fn without_waiting_policy_first_requests_fast_via_cloud() {
    let mut cfg = ScenarioConfig::default().with_seed(5);
    cfg.scheduler = SchedulerSpec::nearest_ready_first();
    let (_, result) = run_bigflows(cfg);
    assert_eq!(result.records.len(), 1708);
    // First requests are *not* held: they detour to the cloud while the edge
    // deploys, so no request waits for a container start...
    assert_eq!(result.held_requests, 0);
    assert!(result.cloud_forwards > 0);
    // ...but cloud detours pay the WAN RTT (~50 ms), far below the ~600 ms
    // deployment wait.
    let slow = result
        .time_totals_ms()
        .iter()
        .copied()
        .fold(0.0_f64, f64::max);
    assert!(slow < 600.0, "worst request {slow} ms without waiting");
    // deployments still happen in the background
    assert_eq!(result.deployments.len(), 42);
    assert!(result.retargets > 0, "flows move to the edge once ready");
}

#[test]
fn hybrid_scheduler_uses_docker_then_k8s() {
    let mut cfg = ScenarioConfig::default().with_seed(6);
    cfg.scheduler = SchedulerSpec::hybrid_docker_first();
    cfg.backends = vec![ClusterKind::Docker, ClusterKind::Kubernetes];
    let (_, result) = run_bigflows(cfg);
    assert_eq!(result.records.len(), 1708);
    // Both backends deploy every service: 42 on Docker (waiting) + 42 on K8s
    // (background).
    assert_eq!(result.deployments.len(), 84);
    let docker_deps = result
        .deployments
        .iter()
        .filter(|d| d.kind == ClusterKind::Docker)
        .count();
    assert_eq!(docker_deps, 42);
    assert!(result.retargets > 0, "K8s takes over once ready");
    // First responses come from Docker: median first-request well under K8s'
    // ~3 s.
    let first_ms = result.median_first_request_ms();
    assert!(
        first_ms < 1500.0,
        "hybrid first-request median {first_ms} ms must be Docker-fast"
    );
}

#[test]
fn idle_scale_down_reclaims_instances() {
    let mut cfg = ScenarioConfig::default().with_seed(8);
    cfg.controller.scale_down_idle = true;
    cfg.controller.memory_idle_timeout = simcore::SimDuration::from_secs(30);
    let (_, result) = run_bigflows(cfg);
    assert!(result.scale_downs > 0, "idle instances must be reclaimed");
    // Scale-down causes re-deployments: more than 42 total.
    assert!(
        result.deployments.len() > 42,
        "re-deployments after scale-down, got {}",
        result.deployments.len()
    );
    assert_eq!(result.records.len(), 1708, "every request still answered");
}

#[test]
fn private_registry_speeds_up_cold_start() {
    let cold = |private: bool| {
        let samples = run_seeds(&(0..9).collect::<Vec<u64>>(), 0, |seed| {
            let mut cfg = ScenarioConfig::default()
                .with_phase(PhaseSetup::Cold)
                .with_seed(seed);
            cfg.private_registry = private;
            measure_first_request(cfg).0
        });
        median(samples)
    };
    let wan = cold(false);
    let lan = cold(true);
    assert!(
        wan - lan > 800.0,
        "private registry saves seconds: wan={wan} lan={lan}"
    );
}

#[test]
fn hierarchy_warm_far_edge_beats_cloud_detour() {
    use simcore::SimDuration;
    use testbed::topology::SiteSpec;

    // Near Pi-class edge (cold) + far EGS edge with the service running:
    // paper §IV-A2 — the without-waiting detour goes to the farther edge,
    // not the cloud, and is several times faster.
    let mut with_far = ScenarioConfig::default().with_seed(3);
    with_far.sites = vec![
        (
            SiteSpec::pi("near-edge", SimDuration::from_micros(300)),
            ClusterKind::Docker,
        ),
        (
            SiteSpec {
                latency: SimDuration::from_millis(8),
                ..SiteSpec::egs("far-edge")
            },
            ClusterKind::Docker,
        ),
    ];
    with_far.scheduler = SchedulerSpec::nearest_ready_first();
    with_far.phase_setup = PhaseSetup::Running;
    with_far.prewarm_sites = Some(vec![1]);
    let (_, far) = run_bigflows(with_far);

    let mut cloud_only = ScenarioConfig::default().with_seed(3);
    cloud_only.sites = vec![(
        SiteSpec::pi("near-edge", SimDuration::from_micros(300)),
        ClusterKind::Docker,
    )];
    cloud_only.scheduler = SchedulerSpec::nearest_ready_first();
    let (_, cloud) = run_bigflows(cloud_only);

    assert_eq!(far.cloud_forwards, 0, "warm far edge absorbs the detours");
    assert!(
        cloud.cloud_forwards > 0,
        "without it, detours go to the cloud"
    );
    let far_first = far.median_first_request_ms();
    let cloud_first = cloud.median_first_request_ms();
    assert!(
        far_first < cloud_first / 2.0,
        "edge detour ({far_first} ms) must be far cheaper than cloud ({cloud_first} ms)"
    );
    assert!(
        far.retargets > 0,
        "flows flip to the near edge once it is up"
    );
    // steady state: both serve from the near edge in milliseconds
    assert!(far.median_time_total_ms() < 10.0);
}

#[test]
fn pi_class_edge_is_slower_to_deploy_than_egs() {
    use simcore::SimDuration;
    use testbed::topology::SiteSpec;

    let run = |site: SiteSpec| {
        let mut cfg = ScenarioConfig::default()
            .with_seed(4)
            .with_phase(PhaseSetup::Created);
        cfg.sites = vec![(site, ClusterKind::Docker)];
        measure_first_request(cfg).0
    };
    let pi = run(SiteSpec::pi("pi-edge", SimDuration::from_micros(300)));
    let egs = run(SiteSpec::egs("egs-edge"));
    assert!(
        pi > egs * 2.0,
        "Pi-class containerd ({pi} ms) must be ~3.5x slower than EGS ({egs} ms)"
    );
}

#[test]
fn hot_resnet_requests_queue_on_the_instance() {
    // ResNet inference takes ~190 ms per request; the most popular trace
    // service receives bursts, so requests serialize on the single instance
    // and tail latency grows well beyond one inference time.
    let mut cfg = ScenarioConfig::default().with_seed(9);
    cfg.service = ServiceKind::ResNet;
    let (_, result) = run_bigflows(cfg);
    let mut p = simcore::Percentiles::new();
    for r in result.records.iter().filter(|r| !r.triggered_deployment) {
        p.record_duration(r.time_total());
    }
    let p50 = p.median();
    let p99 = p.p99();
    // one inference (~190 ms) + upload + typically some queueing behind
    // earlier requests on the popular services
    assert!(
        (120.0..600.0).contains(&p50),
        "steady-state median ≈ one-or-two inferences: {p50} ms"
    );
    // At this load (~0.6 req/s against 190 ms service time) utilization is
    // light; bursts still queue at least half an extra inference in the tail.
    assert!(
        p99 > p50 + 100.0,
        "queueing must inflate the tail: p50={p50} p99={p99}"
    );
}

#[test]
fn wasm_backend_runs_the_full_trace() {
    let mut cfg = ScenarioConfig::default().with_seed(10);
    cfg.service = ServiceKind::WasmWeb;
    cfg.backends = vec![ClusterKind::Wasm];
    let (_, result) = run_bigflows(cfg);
    assert_eq!(result.records.len(), 1708);
    assert_eq!(result.deployments.len(), 42);
    assert_eq!(result.lost, 0);
    // first requests complete in tens of ms (instantiation, not container start)
    let first = result.median_first_request_ms();
    assert!(first < 200.0, "wasm first-request median {first} ms");
    // well below Docker's ~470 ms
    let (_, docker) = run_bigflows(ScenarioConfig::default().with_seed(10));
    assert!(first < docker.median_first_request_ms() / 2.0);
}

#[test]
fn wasm_first_hybrid_serves_fast_then_hands_over_to_containers() {
    // §VIII side-by-side: the wasm runtime answers first requests after a
    // tiny instantiation wait; a Docker cluster (running the same module in
    // a container wrapper) is deployed as BEST and takes over.
    let mut cfg = ScenarioConfig::default().with_seed(21);
    cfg.service = ServiceKind::WasmWeb;
    cfg.backends = vec![ClusterKind::Wasm, ClusterKind::Docker];
    cfg.scheduler = SchedulerSpec::named("hybrid-wasm-first");
    let (_, result) = run_bigflows(cfg);
    assert_eq!(result.records.len(), 1708);
    assert_eq!(result.lost, 0);
    // every service deploys on the wasm runtime (FAST, with tiny waiting)
    // and on Docker (BEST, in background)
    assert_eq!(result.deployments.len(), 84);
    assert!(result.retargets > 0, "containers take over once up");
    // even the held first requests are fast — that is the wasm win
    let first = result.median_first_request_ms();
    assert!(
        first < 200.0,
        "wasm-first held requests must be fast, got {first} ms"
    );
}

#[test]
fn trace_survives_instance_crashes() {
    // Crashes every ~20 s on a Docker-only edge: the cluster does not
    // self-heal, so the controller must redeploy on the next request to the
    // crashed service. Every request still completes.
    let mut cfg = ScenarioConfig::default().with_seed(13);
    cfg.crash_mtbf = Some(simcore::SimDuration::from_secs(20));
    let (_, result) = run_bigflows(cfg);
    assert!(
        result.crashes_injected > 5,
        "crashes: {}",
        result.crashes_injected
    );
    assert_eq!(result.records.len(), 1708, "every request answered");
    assert_eq!(result.lost, 0);
    // recovery redeployments on top of the 42 first-time deployments
    assert!(
        result.deployments.len() > 42,
        "deployments {} must include crash recoveries",
        result.deployments.len()
    );

    // On Kubernetes the kubelet self-heals: far fewer controller-driven
    // redeployments for the same crash schedule.
    let mut cfg = ScenarioConfig::default()
        .with_seed(13)
        .with_backend(ClusterKind::Kubernetes);
    cfg.crash_mtbf = Some(simcore::SimDuration::from_secs(20));
    let (_, k8s) = run_bigflows(cfg);
    assert_eq!(k8s.records.len(), 1708);
    assert!(
        k8s.deployments.len() < result.deployments.len(),
        "K8s self-healing ({}) should beat Docker+controller ({})",
        k8s.deployments.len(),
        result.deployments.len()
    );
}

#[test]
fn service_backend_matrix_smoke() {
    // Every Table I service on both container backends completes its first
    // request with a sane total; the wasm service on the wasm runtime.
    for service in ServiceKind::ALL {
        for backend in [ClusterKind::Docker, ClusterKind::Kubernetes] {
            let cfg = ScenarioConfig::default()
                .with_service(service)
                .with_backend(backend)
                .with_phase(PhaseSetup::Created)
                .with_seed(2);
            let (ms, dep) = measure_first_request(cfg);
            assert!(ms.is_finite() && ms > 0.0, "{service}/{backend}: {ms}");
            assert!(ms < 30_000.0, "{service}/{backend}: {ms} ms");
            assert!(dep.is_some(), "{service}/{backend}: must deploy");
        }
    }
    let cfg = ScenarioConfig::default()
        .with_service(ServiceKind::WasmWeb)
        .with_backend(ClusterKind::Wasm)
        .with_phase(PhaseSetup::Created)
        .with_seed(2);
    let (ms, _) = measure_first_request(cfg);
    assert!(ms.is_finite() && ms < 1000.0, "wasm: {ms} ms");
}

#[test]
fn wasm_trace_absorbs_crashes_invisibly() {
    // On the wasm runtime a crashed instance re-instantiates in
    // milliseconds: even with frequent crashes, no controller redeployments
    // are needed and the latency profile stays flat.
    let mut cfg = ScenarioConfig::default().with_seed(19);
    cfg.service = ServiceKind::WasmWeb;
    cfg.backends = vec![ClusterKind::Wasm];
    cfg.crash_mtbf = Some(simcore::SimDuration::from_secs(10));
    let (_, r) = run_bigflows(cfg);
    assert!(r.crashes_injected > 10);
    assert_eq!(r.records.len(), 1708);
    assert_eq!(r.lost, 0);
    assert_eq!(
        r.deployments.len(),
        42,
        "no crash-recovery redeployments needed"
    );
    assert!(r.median_time_total_ms() < 10.0);
}
