//! `edgesim` — the command-line front end to the transparent-edge simulator.
//!
//! ```text
//! edgesim run <scenario.yaml>            replay the bigFlows trace under a scenario
//! edgesim first-request <scenario.yaml>  measure one on-demand first request
//! edgesim annotate <service.yaml> --name <svc> --port <p> [--scheduler <name>]
//!                                        print the annotated Deployment + Service
//! edgesim verify <file.yaml>             statically verify a scenario (runs it with
//!                                        the edgeverify auditor) or a service
//!                                        definition (annotate + lint)
//! edgesim trace [--seed N]               print the generated workload trace summary
//! edgesim workloads                      list the workload arrival models
//! ```
//!
//! Scenario files are documented in `testbed::config`; an empty file runs the
//! paper's default setup (Nginx on Docker, with waiting, 20 clients).

use std::process::ExitCode;

use edgectl::{annotate_documents, AnnotateOptions, SchedulerRegistry, SchedulerSpec};
use simcore::{Percentiles, SimRng};
use testbed::{
    run_bigflows, run_bigflows_audited, run_trace_scenario, scenario_from_yaml, ScenarioConfig,
    Testbed,
};
use workload::{Trace, TraceConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("first-request") => cmd_first_request(&args[1..]),
        Some("annotate") => cmd_annotate(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("fabric") => cmd_fabric(&args[1..]),
        Some("schedulers") => cmd_schedulers(),
        Some("workloads") => cmd_workloads(),
        Some("lint") => cmd_lint(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprintln!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("edgesim: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  edgesim run <scenario.yaml> [--trace <trace.csv>] [--scheduler <name>]
              [--dump-trace <path>] [--threads <n>]
  edgesim first-request <scenario.yaml>
  edgesim annotate <service.yaml> --name <svc> --port <port> [--scheduler <name>]
  edgesim verify <scenario-or-service.yaml> [--name <svc>] [--port <port>]
  edgesim trace [--seed N]
  edgesim fabric [--switches N] [--no-roam]
  edgesim schedulers                      list the global-scheduler policies
  edgesim workloads                       list the workload arrival models
  edgesim lint [--root <dir>]             determinism lint over the sim crates";

fn load_scenario(args: &[String]) -> Result<ScenarioConfig, String> {
    let path = args.first().ok_or("missing scenario file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = yamlite::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    scenario_from_yaml(&doc)
}

fn cmd_schedulers() -> Result<(), String> {
    let registry = SchedulerRegistry::builtin();
    let width = registry
        .entries()
        .iter()
        .map(|e| e.name.len())
        .max()
        .unwrap_or(0);
    for entry in registry.entries() {
        let aliases = if entry.aliases.is_empty() {
            String::new()
        } else {
            format!(" (aliases: {})", entry.aliases.join(", "))
        };
        println!(
            "{:width$}  {}{aliases}",
            entry.name,
            entry.description,
            width = width
        );
    }
    Ok(())
}

/// `edgesim workloads` — list the arrival models the workload engine ships,
/// exactly as the `workload:` scenario block accepts them (both go through
/// [`workload::WorkloadRegistry`], so this listing can never drift).
fn cmd_workloads() -> Result<(), String> {
    let registry = workload::WorkloadRegistry::builtin();
    let width = registry
        .entries()
        .iter()
        .map(|e| e.name.len())
        .max()
        .unwrap_or(0);
    for entry in registry.entries() {
        let aliases = if entry.aliases.is_empty() {
            String::new()
        } else {
            format!(" (aliases: {})", entry.aliases.join(", "))
        };
        println!(
            "{:width$}  {}{aliases}",
            entry.name,
            entry.description,
            width = width
        );
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let mut cfg = load_scenario(args)?;
    if let Some(i) = args.iter().position(|a| a == "--scheduler") {
        let name = args.get(i + 1).ok_or("--scheduler needs a policy name")?;
        SchedulerRegistry::builtin()
            .resolve(name)
            .map_err(|e| e.to_string())?;
        cfg.scheduler = SchedulerSpec::named(name);
    }
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1));
    // `--dump-trace <path>`: write the canonical metrics trace (the byte
    // stream behind every pinned hash) to a file. The replay-determinism
    // harness diffs this against an in-process run to catch ambient-state
    // nondeterminism that only shows across process boundaries.
    let dump_path = args
        .iter()
        .position(|a| a == "--dump-trace")
        .map(|i| args.get(i + 1).ok_or("--dump-trace needs a file path"))
        .transpose()?;
    // `--threads <n>`: worker threads for the windowed mesh engine,
    // overriding the scenario's `mesh.threads`. The mesh trace hash is
    // identical for every accepted value; values above `mesh.shards` are
    // rejected (extra workers could only idle).
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let n: usize = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or("--threads needs a positive integer")?;
        cfg.mesh.threads =
            edgemesh::validate_threads(n, cfg.mesh.shards).map_err(|e| e.to_string())?;
    }
    if cfg.mesh.shards > 1 {
        if trace_path.is_some() {
            return Err("--trace is not supported for mesh (shards > 1) scenarios yet".into());
        }
        return run_mesh(cfg, dump_path);
    }
    let (trace, result) = match trace_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let trace = Trace::from_csv(&text, cfg.clients)?;
            let result = run_trace_scenario(cfg, &trace);
            (trace, result)
        }
        None => run_bigflows(cfg),
    };
    if let Some(path) = dump_path {
        std::fs::write(path, result.metrics_trace()).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "metrics trace written to {path} (hash {:#018x})",
            result.metrics_hash()
        );
    }
    let mut p = Percentiles::new();
    for r in &result.records {
        p.record_duration(r.time_total());
    }
    println!(
        "requests: {} ({} lost) over {}s, services: {}",
        result.records.len(),
        result.lost,
        trace.config.duration.as_secs(),
        trace.service_addrs.len()
    );
    println!(
        "deployments: {} ({} proactive), held: {}, detoured: {}, cloud: {}, scale-downs: {}, retargets: {}",
        result.deployments.len(),
        result.proactive_deployments,
        result.held_requests,
        result.detoured_requests,
        result.cloud_forwards,
        result.scale_downs,
        result.retargets
    );
    if result.handovers > 0 {
        println!(
            "handovers: {} (mid-session ingress moves)",
            result.handovers
        );
    }
    if result.admission_rejections > 0 || result.capacity_violations > 0 {
        println!(
            "admission: {} rejections, {} capacity violations",
            result.admission_rejections, result.capacity_violations
        );
    }
    println!(
        "time_total: median {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
        p.median(),
        p.p90(),
        p.p99(),
        p.max()
    );
    let first = result.median_first_request_ms();
    if first.is_finite() {
        println!("deployment-triggering requests: median {first:.2} ms");
    }
    println!(
        "switch: {} packets, {} hits, {} misses; controller memory hits: {}",
        result.switch_stats.packets,
        result.switch_stats.table_hits,
        result.switch_stats.table_misses,
        result.memory_hits
    );
    Ok(())
}

/// `edgesim run` for a federated scenario (`mesh.shards > 1`): replay the
/// bigFlows trace through the sharded mesh and report the coordination
/// metrics alongside the usual counters.
fn run_mesh(cfg: ScenarioConfig, dump_path: Option<&String>) -> Result<(), String> {
    let (trace, result) = edgemesh::run_mesh_bigflows(cfg);
    if let Some(path) = dump_path {
        std::fs::write(path, result.mesh_trace()).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "mesh trace written to {path} (hash {:#018x})",
            result.mesh_hash()
        );
    }
    println!(
        "mesh: {} shards on {} worker thread{}, leases {}; {} windows ({:.2} barrier stalls/window), {} events",
        result.shards,
        result.threads,
        if result.threads == 1 { "" } else { "s" },
        if result.leases { "on" } else { "off" },
        result.windows,
        result.stalls_per_window(),
        result.events
    );
    println!(
        "requests: {} ({} lost) over {}s, services: {}",
        result.completed,
        result.lost,
        trace.config.duration.as_secs(),
        trace.service_addrs.len()
    );
    println!(
        "deployments: {} ({} duplicates, {} avoided by leases), scale-downs: {}, removes: {}, retargets: {}",
        result.deployments,
        result.duplicate_deployments,
        result.duplicate_deployments_avoided,
        result.scale_downs,
        result.removes,
        result.retargets
    );
    if result.handovers > 0 {
        println!(
            "handovers: {} (mid-session ingress moves)",
            result.handovers
        );
    }
    println!(
        "gossip: {} deltas sent ({} lost on link), {} delivered; staleness mean {:.2} ms, convergence mean {:.2} ms",
        result.deltas_sent,
        result.deltas_lost,
        result.delta_deliveries,
        result.mean_staleness_ms(),
        result.mean_convergence_ms()
    );
    for (i, s) in result.shard_stats.iter().enumerate() {
        println!(
            "shard {i}: deployments {}, memory hits {}, cloud {}, held {}, detoured {}, retargets {}, lease rejections {}, remote deltas {}",
            s.deployments,
            s.memory_hits,
            s.cloud_forwards,
            s.held_requests,
            s.detoured_requests,
            s.retargets,
            s.lease_rejections,
            s.remote_deltas
        );
    }
    Ok(())
}

/// `edgesim lint` — the determinism linter over the simulation crates (the
/// same pass as `cargo run -p edgelint`; see DESIGN.md §5h).
fn cmd_lint(args: &[String]) -> Result<(), String> {
    let mut root = String::from(".");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                root = args.get(i + 1).ok_or("--root needs a directory")?.clone();
                i += 2;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let violations = edgelint::check_workspace(std::path::Path::new(&root))
        .map_err(|e| format!("{root}: {e}"))?;
    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        println!(
            "lint: clean ({} crates checked)",
            edgelint::DETERMINISM_CRATES.len()
        );
        Ok(())
    } else {
        Err(format!(
            "{} determinism violation(s); annotate provably-safe sites with \
             `// edgelint: allow(<lint>) — <reason>`",
            violations.len()
        ))
    }
}

fn cmd_first_request(args: &[String]) -> Result<(), String> {
    let cfg = load_scenario(args)?;
    let addr = simnet::SocketAddr::new(simnet::IpAddr::new(93, 184, 0, 1), 80);
    let testbed = Testbed::build(cfg, vec![addr]);
    let result = testbed.run_single_request();
    match result.records.first() {
        Some(r) => println!("time_total: {}", r.time_total()),
        None => return Err("request was lost (deployment failed?)".into()),
    }
    if let Some(dep) = result.deployments.first() {
        if let Some((a, b)) = dep.pull {
            println!("  pull:     {}", b - a);
        }
        if let Some((a, b)) = dep.create {
            println!("  create:   {}", b - a);
        }
        if let Some((issue, accepted, _)) = dep.scale_up {
            println!("  scale-up: {} (API)", accepted - issue);
        }
        println!("  wait:     {}", dep.wait_time());
        println!("  total:    {}", dep.total());
    } else {
        println!("  (no deployment was needed)");
    }
    Ok(())
}

fn cmd_annotate(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing service definition file")?;
    let mut name = None;
    let mut port = None;
    let mut scheduler = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--name" => {
                name = args.get(i + 1).cloned();
                i += 2;
            }
            "--port" => {
                port = args.get(i + 1).and_then(|p| p.parse::<u16>().ok());
                i += 2;
            }
            "--scheduler" => {
                scheduler = args.get(i + 1).cloned();
                i += 2;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let name = name.ok_or("missing --name")?;
    let port = port.ok_or("missing or invalid --port")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let docs = yamlite::parse_all(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut opts = AnnotateOptions::new(name, port);
    opts.local_scheduler = scheduler;
    let out = annotate_documents(&docs, &opts).map_err(|e| e.to_string())?;
    print!("{}", yamlite::to_string_all(&[out.deployment, out.service]));
    Ok(())
}

/// `edgesim verify <file>` — the static flow-rule / service-definition
/// checker. Scenario files are run through the audited testbed (every flow
/// install checked, final fabric + FlowMemory state verified); service
/// definitions are annotated and linted. Exits non-zero on any violation.
fn cmd_verify(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing file to verify")?;
    let mut name = None;
    let mut port = 80u16;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--name" => {
                name = args.get(i + 1).cloned();
                i += 2;
            }
            "--port" => {
                port = args
                    .get(i + 1)
                    .and_then(|p| p.parse().ok())
                    .ok_or("bad --port")?;
                i += 2;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let docs = yamlite::parse_all(&text).map_err(|e| format!("{path}: {e}"))?;

    // Kubernetes-shaped documents carry `kind`/`image`/`spec.template`;
    // scenario files carry none of these.
    let is_service_definition = docs.iter().any(|d| {
        d.get("kind").is_some() || d.get("image").is_some() || d.at("spec.template").is_some()
    });

    let violations: Vec<String> = if is_service_definition {
        verify_service_definition(path, &docs, name, port)?
    } else {
        verify_scenario(&docs)?
    };
    for v in &violations {
        println!("violation: {v}");
    }
    if violations.is_empty() {
        println!("verify: {path}: clean");
        Ok(())
    } else {
        Err(format!("{path}: {} violation(s)", violations.len()))
    }
}

fn verify_service_definition(
    path: &str,
    docs: &[yamlite::Yaml],
    name: Option<String>,
    port: u16,
) -> Result<Vec<String>, String> {
    // Default service name: the file stem, as the deployment pipeline would.
    let name = name.unwrap_or_else(|| {
        std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "edge-service".into())
    });
    // A stream that already carries `edge.service` labels is the annotated
    // form — lint it as-is (re-annotating would silently repair defects).
    // Anything else goes through the annotation pipeline first, so the lint
    // sees what the platform would actually deploy.
    let already_annotated = docs.iter().any(|d| {
        [
            "metadata.labels",
            "spec.template.metadata.labels",
            "spec.selector",
        ]
        .iter()
        .any(|p| d.at(p).and_then(|m| m.get("edge.service")).is_some())
    });
    let to_lint = if already_annotated {
        docs.to_vec()
    } else {
        let opts = AnnotateOptions::new(name, port);
        // An annotation failure is itself a verification finding, not a crash.
        match annotate_documents(docs, &opts) {
            Ok(out) => vec![out.deployment, out.service],
            Err(e) => return Ok(vec![format!("lint: {e}")]),
        }
    };
    Ok(edgeverify::lint_annotated(&to_lint)
        .iter()
        .map(|v| v.to_string())
        .collect())
}

fn verify_scenario(docs: &[yamlite::Yaml]) -> Result<Vec<String>, String> {
    let doc = docs.first().ok_or("empty scenario file")?;
    let cfg = scenario_from_yaml(doc)?;
    if cfg.mesh.shards > 1 {
        let (_, result, violations) = edgemesh::run_mesh_bigflows_audited(cfg);
        println!(
            "audited: {} shards, {} requests ({} lost), {} duplicate deployments \
             ({} avoided by leases)",
            result.shards,
            result.completed,
            result.lost,
            result.duplicate_deployments,
            result.duplicate_deployments_avoided
        );
        return Ok(violations.iter().map(|v| v.to_string()).collect());
    }
    let (_, result, report) = run_bigflows_audited(cfg);
    println!(
        "audited: {} requests ({} lost), {} flow installs checked",
        result.records.len(),
        result.lost,
        report.checked_installs
    );
    Ok(report.violations().map(|v| v.to_string()).collect())
}

fn cmd_fabric(args: &[String]) -> Result<(), String> {
    let mut cfg = testbed::FabricConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--switches" => {
                cfg.switches = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("bad --switches")?;
                i += 2;
            }
            "--no-roam" => {
                cfg.roam_at = None;
                i += 1;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if cfg.switches < 2 {
        return Err(format!(
            "--switches {}: a fabric needs at least 2 switches",
            cfg.switches
        ));
    }
    let r = testbed::run_mobility(cfg);
    println!(
        "fabric run: {} requests ({} lost), deployments per site {:?}",
        r.records.len(),
        r.lost,
        r.deployments_per_site
    );
    println!(
        "median time_total before roam: {:.2} ms, after: {:.2} ms",
        r.median_before_ms, r.median_after_ms
    );
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let seed = match args {
        [flag, value] if flag == "--seed" => value.parse().map_err(|_| "bad --seed")?,
        [] => 1,
        _ => return Err(format!("unexpected arguments\n{USAGE}")),
    };
    let trace = Trace::generate(TraceConfig::default(), &mut SimRng::seed_from_u64(seed));
    let counts = trace.per_service_counts();
    println!(
        "trace: {} requests to {} services over {}s (seed {seed})",
        trace.requests.len(),
        trace.service_addrs.len(),
        trace.config.duration.as_secs()
    );
    let mut by_count: Vec<(usize, usize)> = counts.iter().copied().enumerate().collect();
    by_count.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    println!("top services:");
    for &(svc, count) in by_count.iter().take(5) {
        println!("  {} — {count} requests", trace.service_addrs[svc]);
    }
    println!(
        "per-service counts: min {}, max {}",
        counts.iter().min().unwrap(),
        counts.iter().max().unwrap()
    );
    Ok(())
}
