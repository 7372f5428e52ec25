//! The experiments behind every table and figure of the paper's evaluation
//! (§VI). Each function returns a rendered [`Table`] plus commentary;
//! the `fig*` binaries print them individually and `all_experiments`
//! assembles EXPERIMENTS.md from the lot.
//!
//! Medians are taken over independent seeded replicas (the paper medians over
//! 42 deployments per test run); replicas run in parallel via
//! [`simcore::run_seeds`].

use cluster::ClusterKind;
use containers::ImageStore;
use simcore::time::SimDuration;
use simcore::{run_seeds, Percentiles, SimRng, SimTime, TimeSeries};
use testbed::{measure_first_request, run_bigflows, PhaseSetup, ScenarioConfig, SchedulerSpec};
use workload::{ServiceKind, ServiceProfile, Trace, TraceConfig};

use crate::report::{fmt_ms, Table};

/// Seeds used for replicated measurements.
pub(crate) fn default_seeds() -> Vec<u64> {
    (1..=31).collect()
}

fn median(samples: Vec<f64>) -> f64 {
    let mut p = Percentiles::new();
    for s in samples {
        p.record(s);
    }
    p.median()
}

/// One experiment's output: a title, the regenerated table, and the
/// paper-comparison notes that go into EXPERIMENTS.md.
pub struct Experiment {
    pub id: &'static str,
    pub title: &'static str,
    pub table: Table,
    pub notes: Vec<String>,
    /// Worker threads the replicated measurements fanned out over
    /// ([`simcore::RunnerMeta::effective_threads`]); `None` for single-run
    /// tables.
    pub effective_threads: Option<usize>,
}

impl Experiment {
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} — {} ==\n\n{}",
            self.id,
            self.title,
            self.table.render()
        );
        if !self.notes.is_empty() || self.effective_threads.is_some() {
            out.push('\n');
            for n in &self.notes {
                out.push_str(&format!("  * {n}\n"));
            }
            if let Some(t) = self.effective_threads {
                out.push_str(&format!("  * replicas fanned out over {t} threads.\n"));
            }
        }
        out
    }
}

/// Parallelism metadata for a replicated experiment over `seeds` (all
/// replicated experiments request `threads = 0`, i.e. all CPUs).
fn fanout_threads(seeds: &[u64]) -> Option<usize> {
    Some(simcore::RunnerMeta::plan(0, seeds.len()).effective_threads)
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// Table I: the four edge services.
pub fn table1() -> Experiment {
    let mut t = Table::new([
        "Service",
        "Image(s)",
        "Size",
        "Layers",
        "Containers",
        "HTTP",
    ]);
    for p in ServiceProfile::catalog() {
        let images: Vec<String> = p.manifests.iter().map(|m| m.reference.0.clone()).collect();
        let size = p.image_bytes();
        let size_str = if size < 1 << 20 {
            format!("{:.2} KiB", size as f64 / 1024.0)
        } else {
            format!("{:.0} MiB", size as f64 / (1 << 20) as f64)
        };
        t.row([
            p.kind.to_string(),
            images.join(" + "),
            size_str,
            p.layer_count().to_string(),
            p.container_count().to_string(),
            p.http_method.to_string(),
        ]);
    }
    Experiment {
        id: "Table I",
        effective_threads: None,
        title: "Edge services used in this work",
        table: t,
        notes: vec![
            "Paper: 6.18 KiB/1 (Asm), 135 MiB/6 (Nginx), 308 MiB/9 (ResNet), 181 MiB/7 (Nginx+Py) — reproduced exactly.".into(),
        ],
    }
}

// ---------------------------------------------------------------------------
// Fig. 9 / Fig. 10 — the workload and the deployments it causes
// ---------------------------------------------------------------------------

/// Fig. 9: distribution of 1708 requests to 42 services over five minutes.
pub fn fig09(seed: u64) -> Experiment {
    let trace = Trace::generate(TraceConfig::default(), &mut SimRng::seed_from_u64(seed));
    let mut ts = TimeSeries::new(SimDuration::from_secs(10), trace.config.duration);
    for r in &trace.requests {
        ts.record(r.at);
    }
    let mut t = Table::new(["t [s]", "requests / 10 s"]);
    for (start, count) in ts.points() {
        t.row([format!("{start:>3.0}"), format!("{count}")]);
    }
    let counts = trace.per_service_counts();
    let max = counts.iter().max().copied().unwrap_or(0);
    let min = counts.iter().min().copied().unwrap_or(0);
    Experiment {
        id: "Fig. 9",
        effective_threads: None,
        title: "Distribution of 1708 requests to 42 edge services over five minutes",
        table: t,
        notes: vec![format!(
            "{} requests to {} services; per-service counts {}..{} (paper: every service ≥ 20).",
            trace.requests.len(),
            trace.service_addrs.len(),
            min,
            max
        )],
    }
}

/// Fig. 10: distribution of the 42 deployments over five minutes.
pub fn fig10(seed: u64) -> Experiment {
    let (_, result) = run_bigflows(ScenarioConfig::default().with_seed(seed));
    let mut ts = TimeSeries::new(SimDuration::from_secs(1), SimDuration::from_secs(300));
    for d in &result.deployments {
        ts.record(SimTime::ZERO + (d.triggered_at - (SimTime::ZERO + result.trace_offset)));
    }
    let mut t = Table::new(["t [s]", "deployments / s"]);
    for (start, count) in ts.points().filter(|(_, c)| *c > 0) {
        t.row([format!("{start:>3.0}"), format!("{count}")]);
    }
    Experiment {
        id: "Fig. 10",
        effective_threads: None,
        title: "Distribution of 42 edge service deployments over five minutes",
        table: t,
        notes: vec![format!(
            "{} deployments, peak {}/s (paper: 42 deployments, up to 8/s in the beginning).",
            result.deployments.len(),
            ts.peak()
        )],
    }
}

// ---------------------------------------------------------------------------
// Figs. 11/12 — scale-up and create+scale-up totals
// ---------------------------------------------------------------------------

fn first_request_samples(
    service: ServiceKind,
    backend: ClusterKind,
    phase: PhaseSetup,
    seeds: &[u64],
) -> Percentiles {
    let mut p = Percentiles::new();
    for v in run_seeds(seeds, 0, |seed| {
        let cfg = ScenarioConfig::default()
            .with_service(service)
            .with_backend(backend)
            .with_phase(phase)
            .with_seed(seed);
        measure_first_request(cfg).0
    }) {
        p.record(v);
    }
    p
}

fn first_request_median_ms(
    service: ServiceKind,
    backend: ClusterKind,
    phase: PhaseSetup,
    seeds: &[u64],
) -> f64 {
    first_request_samples(service, backend, phase, seeds).median()
}

/// Median plus interquartile range, mirroring the paper's boxplots.
fn fmt_box(p: &mut Percentiles) -> String {
    format!(
        "{} [{}..{}]",
        fmt_ms(p.median()),
        fmt_ms(p.p25()),
        fmt_ms(p.p75())
    )
}

fn phase_table(phase: PhaseSetup, seeds: &[u64]) -> Table {
    let mut t = Table::new([
        "Service",
        "Docker  median [IQR]",
        "K8s  median [IQR]",
        "K8s / Docker",
    ]);
    for kind in ServiceKind::ALL {
        let mut d = first_request_samples(kind, ClusterKind::Docker, phase, seeds);
        let mut k = first_request_samples(kind, ClusterKind::Kubernetes, phase, seeds);
        let ratio = k.median() / d.median();
        t.row([
            kind.to_string(),
            fmt_box(&mut d),
            fmt_box(&mut k),
            format!("{ratio:.1}x"),
        ]);
    }
    t
}

/// Fig. 11: total time (median) to *scale up* the four services on the two
/// clusters — images cached, service created, request held while the
/// instance starts.
pub fn fig11(seeds: &[u64]) -> Experiment {
    Experiment {
        id: "Fig. 11",
        effective_threads: fanout_threads(seeds),
        title: "Total time (median) to scale up four services on two clusters",
        table: phase_table(PhaseSetup::Created, seeds),
        notes: vec![
            "Paper anchors: Docker < 1 s, Kubernetes ≈ 3 s for Asm/Nginx; no notable Asm-vs-Nginx difference; ResNet significantly slower.".into(),
        ],
    }
}

/// Fig. 12: total time (median) to *create + scale up*.
pub(crate) fn fig12(seeds: &[u64]) -> Experiment {
    Experiment {
        id: "Fig. 12",
        effective_threads: fanout_threads(seeds),
        title: "Total time (median) to create + scale up four services on two clusters",
        table: phase_table(PhaseSetup::ImagesCached, seeds),
        notes: vec![
            "Paper: creating the containers adds ≈ 100 ms over Fig. 11 — except ResNet, where the overhead disappears in its long start time.".into(),
        ],
    }
}

// ---------------------------------------------------------------------------
// Fig. 13 — pull times
// ---------------------------------------------------------------------------

/// Median time to pull all images of `profile` into a fresh store.
fn pull_median_ms(profile: &ServiceProfile, private: bool, seeds: &[u64]) -> f64 {
    let samples = run_seeds(seeds, 0, |seed| {
        let regs = workload::services::standard_registries(private);
        let mut store = ImageStore::new();
        let mut rng = SimRng::seed_from_u64(seed ^ 0x00F1_6013);
        let mut t = SimTime::ZERO;
        for m in &profile.manifests {
            let reg = regs.route(&m.reference).expect("image published");
            t = reg
                .pull(t, &m.reference, &mut store, &mut rng)
                .expect("pull succeeds")
                .completed_at;
        }
        (t - SimTime::ZERO).as_millis_f64()
    });
    median(samples)
}

/// Fig. 13: total pull time per service image set, from the home registry
/// (Docker Hub / GCR) vs the private LAN registry.
pub fn fig13(seeds: &[u64]) -> Experiment {
    let mut t = Table::new(["Service", "Hub/GCR", "Private registry", "Saved"]);
    let mut notes = Vec::new();
    for p in ServiceProfile::catalog() {
        let wan = pull_median_ms(&p, false, seeds);
        let lan = pull_median_ms(&p, true, seeds);
        t.row([
            p.kind.to_string(),
            fmt_ms(wan),
            fmt_ms(lan),
            fmt_ms(wan - lan),
        ]);
        if p.kind == ServiceKind::Nginx {
            notes.push(format!(
                "Nginx saves {} by pulling from the LAN registry (paper: about 1.5–2 s).",
                fmt_ms(wan - lan)
            ));
        }
    }
    notes.push("Pull time grows with size *and* layer count; the 6 KiB Asm image is near-instant (paper §VI).".into());
    Experiment {
        id: "Fig. 13",
        effective_threads: fanout_threads(seeds),
        title: "Total time to pull the service container images",
        table: t,
        notes,
    }
}

// ---------------------------------------------------------------------------
// Figs. 14/15 — wait-until-ready after the scale-up API returned
// ---------------------------------------------------------------------------

fn wait_median_ms(
    service: ServiceKind,
    backend: ClusterKind,
    phase: PhaseSetup,
    seeds: &[u64],
) -> f64 {
    median(run_seeds(seeds, 0, |seed| {
        let cfg = ScenarioConfig::default()
            .with_service(service)
            .with_backend(backend)
            .with_phase(phase)
            .with_seed(seed);
        let (_, dep) = measure_first_request(cfg);
        dep.expect("first request deploys")
            .wait_time()
            .as_millis_f64()
    }))
}

fn wait_table(phase: PhaseSetup, seeds: &[u64]) -> Table {
    let mut t = Table::new(["Service", "Docker", "K8s"]);
    for kind in ServiceKind::ALL {
        let d = wait_median_ms(kind, ClusterKind::Docker, phase, seeds);
        let k = wait_median_ms(kind, ClusterKind::Kubernetes, phase, seeds);
        t.row([kind.to_string(), fmt_ms(d), fmt_ms(k)]);
    }
    t
}

/// Fig. 14: wait time (median) until the services are ready after being
/// scaled up (the controller's port polling; included in Fig. 11).
pub(crate) fn fig14(seeds: &[u64]) -> Experiment {
    Experiment {
        id: "Fig. 14",
        effective_threads: fanout_threads(seeds),
        title: "Wait time (median) until services are ready after scale-up",
        table: wait_table(PhaseSetup::Created, seeds),
        notes: vec![
            "Paper: the controller polls the port before installing flows; for ResNet the wait alone exceeds a fourth of the total time.".into(),
        ],
    }
}

/// Fig. 15: wait time (median) after create + scale-up (included in Fig. 12).
pub(crate) fn fig15(seeds: &[u64]) -> Experiment {
    Experiment {
        id: "Fig. 15",
        effective_threads: fanout_threads(seeds),
        title: "Wait time (median) until services are ready after create + scale-up",
        table: wait_table(PhaseSetup::ImagesCached, seeds),
        notes: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Fig. 16 — instance already running
// ---------------------------------------------------------------------------

/// Fig. 16: total time (median) for requests when the instance is running.
pub fn fig16(seeds: &[u64]) -> Experiment {
    let mut t = Table::new(["Service", "Docker", "K8s"]);
    for kind in ServiceKind::ALL {
        let d = first_request_median_ms(kind, ClusterKind::Docker, PhaseSetup::Running, seeds);
        let k = first_request_median_ms(kind, ClusterKind::Kubernetes, PhaseSetup::Running, seeds);
        t.row([kind.to_string(), fmt_ms(d), fmt_ms(k)]);
    }
    Experiment {
        id: "Fig. 16",
        effective_threads: fanout_threads(seeds),
        title: "Total time (median) for client requests when the instance is already running",
        table: t,
        notes: vec![
            "Paper: ~1 ms for the web servers with no notable cluster difference; ResNet significantly longer (inference).".into(),
        ],
    }
}

// ---------------------------------------------------------------------------
// §VII — the hybrid Docker-then-Kubernetes strategy
// ---------------------------------------------------------------------------

/// §VII: compare deployment strategies on the bigFlows trace.
pub(crate) fn hybrid(seeds: &[u64]) -> Experiment {
    let mut t = Table::new([
        "Strategy",
        "median first-request",
        "median all",
        "held",
        "cloud",
        "deployments",
    ]);
    let strategies: Vec<(&str, ScenarioConfig)> = vec![
        ("Docker, with waiting", ScenarioConfig::default()),
        (
            "K8s, with waiting",
            ScenarioConfig::default().with_backend(ClusterKind::Kubernetes),
        ),
        (
            "without waiting (cloud detour)",
            ScenarioConfig {
                scheduler: SchedulerSpec::nearest_ready_first(),
                ..ScenarioConfig::default()
            },
        ),
        (
            "hybrid Docker-first + K8s",
            ScenarioConfig {
                scheduler: SchedulerSpec::hybrid_docker_first(),
                backends: vec![ClusterKind::Docker, ClusterKind::Kubernetes],
                ..ScenarioConfig::default()
            },
        ),
    ];
    for (name, cfg) in strategies {
        let runs: Vec<(f64, f64, u64, u64, usize)> = run_seeds(seeds, 0, |seed| {
            let (_, r) = run_bigflows(cfg.clone().with_seed(seed));
            (
                r.median_first_request_ms(),
                r.median_time_total_ms(),
                r.held_requests,
                r.cloud_forwards,
                r.deployments.len(),
            )
        });
        let first = median(runs.iter().map(|r| r.0).collect());
        let all = median(runs.iter().map(|r| r.1).collect());
        let held = runs.iter().map(|r| r.2).sum::<u64>() / runs.len() as u64;
        let cloud = runs.iter().map(|r| r.3).sum::<u64>() / runs.len() as u64;
        let deps = runs.iter().map(|r| r.4).sum::<usize>() / runs.len();
        t.row([
            name.to_string(),
            fmt_ms(first),
            fmt_ms(all),
            held.to_string(),
            cloud.to_string(),
            deps.to_string(),
        ]);
    }
    Experiment {
        id: "§VII",
        effective_threads: fanout_threads(seeds),
        title: "Deployment strategies on the bigFlows trace (Nginx service)",
        table: t,
        notes: vec![
            "Paper §VII: launch via Docker for a fast first response, deploy to Kubernetes for future requests — 'the best of both worlds'.".into(),
            "NaN in 'median first-request' means no request was held (without-waiting strategies).".into(),
        ],
    }
}

// ---------------------------------------------------------------------------
// Beyond the paper: §IV-A2 hierarchy, §VII prediction, §VIII serverless
// ---------------------------------------------------------------------------

/// §IV-A2: the hierarchical edge continuum — a warm farther edge turns the
/// without-waiting detour from a cloud round trip into an edge round trip.
pub fn hierarchy(seeds: &[u64]) -> Experiment {
    use simcore::time::SimDuration;
    use testbed::topology::SiteSpec;

    let near_pi = || SiteSpec::pi("near-edge", SimDuration::from_micros(300));
    let far_egs = || SiteSpec {
        latency: SimDuration::from_millis(8),
        ..SiteSpec::egs("far-edge")
    };
    let mut t = Table::new([
        "layout",
        "median first-request",
        "p99 all",
        "held",
        "cloud detours",
        "retargets",
    ]);
    let cases: Vec<(&str, ScenarioConfig)> = vec![
        (
            "near Pi edge, with waiting",
            ScenarioConfig {
                sites: vec![(near_pi(), ClusterKind::Docker)],
                ..ScenarioConfig::default()
            },
        ),
        (
            "near Pi + far EGS (running), without waiting",
            ScenarioConfig {
                sites: vec![
                    (near_pi(), ClusterKind::Docker),
                    (far_egs(), ClusterKind::Docker),
                ],
                scheduler: SchedulerSpec::nearest_ready_first(),
                phase_setup: PhaseSetup::Running,
                prewarm_sites: Some(vec![1]),
                ..ScenarioConfig::default()
            },
        ),
        (
            "near Pi edge only, without waiting (cloud detour)",
            ScenarioConfig {
                sites: vec![(near_pi(), ClusterKind::Docker)],
                scheduler: SchedulerSpec::nearest_ready_first(),
                ..ScenarioConfig::default()
            },
        ),
    ];
    for (name, cfg) in cases {
        let rows: Vec<(f64, f64, u64, u64, u64)> = run_seeds(seeds, 0, |seed| {
            let (_, r) = testbed::run_bigflows(cfg.clone().with_seed(seed));
            let mut p = Percentiles::new();
            for rec in &r.records {
                p.record_duration(rec.time_total());
            }
            (
                r.median_first_request_ms(),
                p.p99(),
                r.held_requests,
                r.cloud_forwards,
                r.retargets,
            )
        });
        let med = |f: fn(&(f64, f64, u64, u64, u64)) -> f64| -> f64 {
            median(rows.iter().map(f).filter(|v| v.is_finite()).collect())
        };
        t.row([
            name.to_string(),
            fmt_ms(med(|r| r.0)),
            fmt_ms(med(|r| r.1)),
            format!(
                "{}",
                rows.iter().map(|r| r.2).sum::<u64>() / rows.len() as u64
            ),
            format!(
                "{}",
                rows.iter().map(|r| r.3).sum::<u64>() / rows.len() as u64
            ),
            format!(
                "{}",
                rows.iter().map(|r| r.4).sum::<u64>() / rows.len() as u64
            ),
        ]);
    }
    Experiment {
        id: "§IV-A2",
        effective_threads: fanout_threads(seeds),
        title: "Hierarchical edge continuum (bigFlows trace, Nginx)",
        table: t,
        notes: vec![
            "A warm farther edge turns the without-waiting detour from a ~50 ms cloud round trip into a ~16 ms edge round trip; flows retarget to the near edge once it is up.".into(),
        ],
    }
}

/// §VII outlook: proactive deployment vs pure on-demand.
pub fn proactive(seeds: &[u64]) -> Experiment {
    use testbed::PredictorKind;

    let mut t = Table::new([
        "predictor",
        "held",
        "proactive",
        "median first-request",
        "p99 all",
    ]);
    let cases: Vec<(&str, PredictorKind, bool)> = vec![
        ("none (paper baseline)", PredictorKind::None, false),
        ("oracle (perfect foresight)", PredictorKind::Oracle, false),
        ("none + 30 s idle scale-down", PredictorKind::None, true),
        (
            "popularity + 30 s idle scale-down",
            PredictorKind::Popularity,
            true,
        ),
    ];
    for (name, kind, scale_down) in cases {
        let rows: Vec<(u64, u64, f64, f64)> = run_seeds(seeds, 0, |seed| {
            let mut cfg = ScenarioConfig::default().with_seed(seed);
            cfg.predictor = kind;
            if scale_down {
                cfg.controller.scale_down_idle = true;
                cfg.controller.memory_idle_timeout = simcore::SimDuration::from_secs(30);
            }
            let (_, r) = testbed::run_bigflows(cfg);
            let mut p = Percentiles::new();
            for rec in &r.records {
                p.record_duration(rec.time_total());
            }
            (
                r.held_requests,
                r.proactive_deployments,
                r.median_first_request_ms(),
                p.p99(),
            )
        });
        let med = |f: fn(&(u64, u64, f64, f64)) -> f64| {
            median(rows.iter().map(f).filter(|v| v.is_finite()).collect())
        };
        t.row([
            name.to_string(),
            format!(
                "{}",
                rows.iter().map(|r| r.0).sum::<u64>() / rows.len() as u64
            ),
            format!(
                "{}",
                rows.iter().map(|r| r.1).sum::<u64>() / rows.len() as u64
            ),
            fmt_ms(med(|r| r.2)),
            fmt_ms(med(|r| r.3)),
        ]);
    }
    Experiment {
        id: "§VII-pred",
        effective_threads: fanout_threads(seeds),
        title: "Proactive deployment vs pure on-demand (bigFlows trace, Nginx)",
        table: t,
        notes: vec![
            "The oracle pre-deploys just in time (nothing held); the popularity predictor only prevents re-deployment holds — a service's *first* request always needs the on-demand path, the paper's core argument.".into(),
        ],
    }
}

/// §VIII future work: containers vs serverless WebAssembly.
pub fn futurework_wasm(seeds: &[u64]) -> Experiment {
    let mut t = Table::new(["stage", "Docker (nginx)", "K8s (nginx)", "Wasm (function)"]);
    for (label, phase) in [
        ("cold (incl. pull)", PhaseSetup::Cold),
        ("create + scale-up", PhaseSetup::ImagesCached),
        ("scale-up only", PhaseSetup::Created),
        ("already running", PhaseSetup::Running),
    ] {
        t.row([
            label.to_string(),
            fmt_ms(first_request_median_ms(
                ServiceKind::Nginx,
                ClusterKind::Docker,
                phase,
                seeds,
            )),
            fmt_ms(first_request_median_ms(
                ServiceKind::Nginx,
                ClusterKind::Kubernetes,
                phase,
                seeds,
            )),
            fmt_ms(first_request_median_ms(
                ServiceKind::WasmWeb,
                ClusterKind::Wasm,
                phase,
                seeds,
            )),
        ]);
    }
    Experiment {
        id: "§VIII",
        effective_threads: fanout_threads(seeds),
        title: "Future work: containers vs serverless WebAssembly, same controller",
        table: t,
        notes: vec![
            "Wasm instantiation removes the namespace-setup cost that dominates container starts: on-demand-with-waiting becomes a ~100 ms event (vs ~0.5 s Docker, ~3 s K8s), at a slightly higher warm per-request time.".into(),
        ],
    }
}

/// The seed sets one `all_experiments` run replicates over.
struct Seeds {
    /// Per-deployment replicas (Fig. 11–16, §VIII).
    replicas: Vec<u64>,
    /// Whole-trace replays (§VII, §IV-A2, §VII-pred).
    traces: Vec<u64>,
}

impl Seeds {
    fn new(quick: bool) -> Seeds {
        if quick {
            Seeds {
                replicas: (1..=7).collect(),
                traces: (1..=3).collect(),
            }
        } else {
            Seeds {
                replicas: default_seeds(),
                traces: (1..=9).collect(),
            }
        }
    }
}

type Constructor = fn(&Seeds) -> Experiment;

/// Every experiment — paper order, then the beyond-the-paper extensions —
/// under the id `all_experiments --only` selects it by.
const EXPERIMENTS: &[(&str, Constructor)] = &[
    ("table1", |_| table1()),
    ("fig09", |_| fig09(1)),
    ("fig10", |_| fig10(1)),
    ("fig11", |s| fig11(&s.replicas)),
    ("fig12", |s| fig12(&s.replicas)),
    ("fig13", |s| fig13(&s.replicas)),
    ("fig14", |s| fig14(&s.replicas)),
    ("fig15", |s| fig15(&s.replicas)),
    ("fig16", |s| fig16(&s.replicas)),
    ("hybrid", |s| hybrid(&s.traces)),
    ("hierarchy", |s| hierarchy(&s.traces)),
    ("proactive", |s| proactive(&s.traces)),
    ("futurework_wasm", |s| futurework_wasm(&s.replicas)),
];

/// The ids [`only`] accepts, in report order.
pub fn ids() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|&(id, _)| id)
}

/// Build every experiment (`quick` trims the seed counts).
pub fn all(quick: bool) -> Vec<Experiment> {
    let seeds = Seeds::new(quick);
    EXPERIMENTS.iter().map(|(_, build)| build(&seeds)).collect()
}

/// Build just the experiment `id` names; `None` if there is none.
pub fn only(id: &str, quick: bool) -> Option<Experiment> {
    let (_, build) = EXPERIMENTS.iter().find(|&&(known, _)| known == id)?;
    Some(build(&Seeds::new(quick)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_renders_four_services() {
        let e = table1();
        let s = e.table.render();
        assert!(s.contains("Nginx+Py"));
        assert!(s.contains("6.18 KiB"));
        assert!(s.contains("308 MiB"));
    }

    #[test]
    fn fig11_shape_holds_on_small_seed_set() {
        let seeds: Vec<u64> = (1..=5).collect();
        let e = fig11(&seeds);
        let s = e.table.render();
        // Docker column should be sub-second for nginx, K8s in seconds.
        assert!(s.contains("Nginx"));
        assert!(s.lines().count() >= 6);
    }

    #[test]
    fn fig13_private_saves_time() {
        let seeds: Vec<u64> = (1..=5).collect();
        let p = ServiceProfile::of(ServiceKind::Nginx);
        let wan = pull_median_ms(&p, false, &seeds);
        let lan = pull_median_ms(&p, true, &seeds);
        assert!(wan > lan);
    }

    #[test]
    fn experiment_render_contains_notes() {
        let e = table1();
        let s = e.render();
        assert!(s.contains("Table I"));
        assert!(s.contains("reproduced exactly"));
    }
}
