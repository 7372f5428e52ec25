//! Regression net over the experiment harness: every table/figure generator
//! runs and its shape assertions hold on a small seed set. Keeps the
//! committed EXPERIMENTS.md reproducible as the model evolves.

fn seeds() -> Vec<u64> {
    (1..=5).collect()
}

#[test]
fn table1_matches_paper_exactly() {
    let t = bench::experiments::table1().table.render();
    for needle in [
        "6.18 KiB", "135 MiB", "308 MiB", "181 MiB", "POST", "Nginx+Py",
    ] {
        assert!(t.contains(needle), "Table I missing {needle}:\n{t}");
    }
}

#[test]
fn fig09_and_fig10_marginals() {
    let e9 = bench::experiments::fig09(1);
    assert!(
        e9.notes[0].contains("1708 requests to 42 services"),
        "{:?}",
        e9.notes
    );
    let e10 = bench::experiments::fig10(1);
    assert!(e10.notes[0].contains("42 deployments"), "{:?}", e10.notes);
}

fn parse_first_ms(cell: &str) -> f64 {
    // "462.3 ms [..]" or "2.814 s [..]"
    let mut parts = cell.split_whitespace();
    let v: f64 = parts.next().unwrap().parse().unwrap();
    match parts.next().unwrap() {
        "s" => v * 1000.0,
        _ => v,
    }
}

#[test]
fn fig11_shape_docker_fast_k8s_slow() {
    let e = bench::experiments::fig11(&seeds());
    let rendered = e.table.render();
    let nginx_row: Vec<&str> = rendered
        .lines()
        .find(|l| l.starts_with("Nginx "))
        .expect("nginx row")
        .split("  ")
        .filter(|c| !c.trim().is_empty())
        .collect();
    let docker_ms = parse_first_ms(nginx_row[1].trim());
    let k8s_ms = parse_first_ms(nginx_row[2].trim());
    assert!(
        docker_ms < 1000.0,
        "Docker {docker_ms} ms must stay under 1 s"
    );
    assert!(
        (2000.0..4000.0).contains(&k8s_ms),
        "K8s {k8s_ms} ms must stay ~3 s"
    );
}

#[test]
fn fig13_private_registry_saves_seconds() {
    let e = bench::experiments::fig13(&seeds());
    let rendered = e.table.render();
    let nginx_row = rendered.lines().find(|l| l.starts_with("Nginx ")).unwrap();
    assert!(
        nginx_row.contains("s"),
        "pull times are in seconds: {nginx_row}"
    );
    assert!(
        e.notes[0].contains("saves"),
        "saving note present: {:?}",
        e.notes
    );
}

#[test]
fn fig16_running_instance_is_milliseconds() {
    let e = bench::experiments::fig16(&seeds());
    let rendered = e.table.render();
    let asm_row = rendered.lines().find(|l| l.starts_with("Asm ")).unwrap();
    // both columns must render as sub-10ms values
    assert!(asm_row.contains("ms"), "{asm_row}");
    let resnet_row = rendered.lines().find(|l| l.starts_with("ResNet ")).unwrap();
    assert!(resnet_row.contains("ms"), "{resnet_row}");
}

/// The canonical metrics hash of the seed-42 bigFlows replay at 1× — the
/// same constant (`bench::artifact::SEED_42_HASH`) the `cityscale` bin's
/// `pin` gate checks. A change here means
/// the simulation's observable behaviour changed, which a pure performance
/// PR must not do.
const CITYSCALE_1X_HASH: u64 = 0x66cc06e4f4d26b1a;

/// Exactly the `cityscale` benchmark's 1× run (same trace rng, same site
/// scaling).
fn cityscale_run(scale: usize) -> testbed::RunResult {
    use cluster::ClusterKind;
    use testbed::{ScenarioConfig, SiteSpec, Testbed};
    use workload::{Trace, TraceConfig};

    const SEED: u64 = 42;
    let mut trace_rng = simcore::SimRng::seed_from_u64(SEED ^ 0xB16F_1085);
    let trace = Trace::generate(TraceConfig::scaled(scale), &mut trace_rng);
    let cfg = ScenarioConfig {
        seed: SEED,
        clients: trace.config.clients,
        sites: vec![(
            SiteSpec::egs("egs-0").with_nodes(scale),
            ClusterKind::Docker,
        )],
        ..ScenarioConfig::default()
    };
    let testbed = Testbed::build(cfg, trace.service_addrs.to_vec());
    testbed.run_trace(&trace)
}

#[test]
fn bigflows_seed42_replay_is_bit_identical() {
    // Pinned hash: the event queue, ServiceId interning and the
    // allocation-lean packet path must not change a single observable metric.
    assert_eq!(
        cityscale_run(1).metrics_hash(),
        CITYSCALE_1X_HASH,
        "1x determinism hash drifted — observable simulation behaviour changed"
    );
}

#[test]
fn bigflows_replay_identical_across_thread_counts() {
    // Each run is a pure function of (config, seed); the chunked-claiming
    // runner must return byte-identical traces for threads ∈ {1, 8}.
    let replay = |threads: usize| {
        simcore::run_seeds(&[42, 43, 44], threads, |seed| {
            let (_, r) = testbed::run_bigflows(testbed::ScenarioConfig::default().with_seed(seed));
            r.metrics_trace()
        })
    };
    let one = replay(1);
    let eight = replay(8);
    assert_eq!(one, eight, "metrics traces differ across thread counts");
    // And the seed-42 single run through run_seeds equals the direct run.
    let (_, direct) = testbed::run_bigflows(testbed::ScenarioConfig::default().with_seed(42));
    assert_eq!(one[0], direct.metrics_trace());
}

#[test]
fn extension_experiments_render() {
    let seeds: Vec<u64> = (1..=2).collect();
    for e in [
        bench::experiments::hierarchy(&seeds),
        bench::experiments::proactive(&seeds),
        bench::experiments::futurework_wasm(&seeds),
    ] {
        let s = e.render();
        assert!(s.contains(e.id), "{s}");
        assert!(s.lines().count() > 5, "{s}");
    }
}
