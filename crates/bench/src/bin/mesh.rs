//! Federation sweep — the trajectory artifact for the `edgemesh` subsystem
//! (`BENCH_mesh.json`).
//!
//! Replays the paper's bigFlows workload through the sharded controller
//! mesh at {1, 2, 4, 8} ingress shards (same seed, same trace) and records,
//! per shard count: wall-clock, completions, deployments, split-brain
//! duplicates observed vs. avoided by the lease protocol, gossip volume,
//! mean delta staleness and mean convergence time. The 1-shard run is the
//! plain single-controller testbed by construction, so its hash is the
//! pinned seed-42 metrics hash.
//!
//! A second sweep (`"churn"` rows) re-runs the sharded mesh with idle
//! scale-down and the Remove phase enabled (30 s idle timeout, 60 s Remove
//! deadline) so the federation is exercised under instance churn: `Gone`
//! deltas, revived services, lease traffic on redeploys. A third sweep
//! (`"threads_sweep"` rows) times the windowed parallel engine on a heavier
//! workload at threads ∈ {1, 2, 4, 8} ≤ shards. The artifact's gates
//! (`bench::artifact::mesh::gates`) exit 1 after it is written.
//!
//! Usage:
//!   mesh [--quick] [--shards 1,2,4,8] [--threads N] [--out BENCH_mesh.json]

use std::time::Instant;

use bench::artifact::mesh::{gates, shard_row, sweep_row, LAYOUT};
use bench::artifact::{publish, Doc, Flags, SEED};
use edgemesh::{run_mesh_bigflows, run_mesh_scenario, validate_threads};
use simcore::{SimDuration, SimRng};
use testbed::ScenarioConfig;
use workload::{Trace, TraceConfig};

/// Churn sweep knobs (mirrored by `examples/scenarios/mesh_scaledown.yaml`
/// and `crates/edgemesh/tests/scaledown.rs`).
const CHURN_IDLE_TIMEOUT_S: u64 = 30;
const CHURN_REMOVE_AFTER_S: u64 = 60;
/// Workload multiplier for the threads sweep ([`TraceConfig::scaled`]):
/// the 1× bigFlows trace finishes in milliseconds, far too little work for
/// barrier overheads and speedup to mean anything.
const THREADS_SWEEP_SCALE: usize = 10;
/// One-way gossip latency for the threads sweep: the conservative engine's
/// lookahead IS the link latency, so a metro-WAN 50 ms link yields fat
/// windows; the default 500 µs LAN link would measure synchronization.
const THREADS_SWEEP_LINK_MS: u64 = 50;

fn mesh_cfg(shards: usize, threads: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig {
        seed: SEED,
        ..ScenarioConfig::default()
    };
    (cfg.mesh.shards, cfg.mesh.threads) = (shards, threads);
    cfg
}

fn churn_cfg(shards: usize, threads: usize) -> ScenarioConfig {
    let mut cfg = mesh_cfg(shards, threads);
    cfg.controller.scale_down_idle = true;
    cfg.controller.memory_idle_timeout = SimDuration::from_secs(CHURN_IDLE_TIMEOUT_S);
    cfg.controller.remove_after = Some(SimDuration::from_secs(CHURN_REMOVE_AFTER_S));
    cfg
}

fn main() {
    let mut flags = Flags::from_env("mesh");
    let quick = flags.switch("--quick");
    let default: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let shard_counts = flags.list("--shards").unwrap_or_else(|| default.to_vec());
    let threads: usize = flags.value("--threads").unwrap_or(1);
    let out_path = flags.value("--out");
    // `--threads` applies to every swept run; a value no shard count in the
    // sweep can host is a usage error (the same typed rejection `edgesim run
    // --threads` gives). Single-shard rows always run the plain testbed, so
    // they are exempt from the check and ignore the knob.
    let sharded = shard_counts.iter().filter(|&&s| s >= 2);
    let invalid = |&s: &usize| validate_threads(threads, s).err();
    if let Some(e) = sharded.clone().find_map(invalid) {
        flags.usage(e);
    }
    flags.finish();

    let mut doc = Doc::new(&LAYOUT);
    // Parallel speedup is only meaningful relative to the cores the host
    // actually had; a single-core runner measures ~1.0x by construction.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    doc.header
        .set("churn_idle_timeout_s", CHURN_IDLE_TIMEOUT_S)
        .set("churn_remove_after_s", CHURN_REMOVE_AFTER_S)
        .set("threads_sweep_scale", THREADS_SWEEP_SCALE)
        .set("threads_sweep_link_ms", THREADS_SWEEP_LINK_MS)
        .set("host_cpus", host_cpus);

    // Churn rows are sharded only — the point is churn *through the
    // federation*; the plain 1-shard lifecycle is covered by cityscale and
    // the testbed tests.
    let plain = shard_counts
        .iter()
        .map(|&s| ("shards", mesh_cfg(s, threads.min(s))));
    let churn = sharded.map(|&s| ("churn", churn_cfg(s, threads.min(s))));
    for (section, cfg) in plain.chain(churn) {
        let shards = cfg.mesh.shards;
        eprintln!("mesh: running {section} at {shards} shard(s) ...");
        let t0 = Instant::now();
        let (trace, result) = run_mesh_bigflows(cfg);
        let row = shard_row(trace.requests.len(), &result, t0.elapsed().as_secs_f64());
        eprintln!("mesh: {row}");
        doc.rows_mut(section).push(row);
    }

    // Threads sweep: the windowed engine's own scaling artifact. Quick mode
    // trims to one shard group at {1, 2} threads so the hash-equality gate
    // still runs without paying for the full matrix.
    let sweep_shards: &[usize] = if quick { &[2] } else { &[2, 4, 8] };
    let sweep_threads: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let mut rng = SimRng::seed_from_u64(SEED ^ 0xB16F_1085);
    let trace = Trace::generate(TraceConfig::scaled(THREADS_SWEEP_SCALE), &mut rng);
    let requests = trace.requests.len();
    eprintln!("mesh: threads sweep over {requests} requests ({THREADS_SWEEP_SCALE}x workload)");
    for &shards in sweep_shards {
        let mut base_wall = 0.0;
        for &t in sweep_threads.iter().filter(|&&t| t <= shards) {
            let mut cfg = mesh_cfg(shards, t);
            cfg.clients = trace.config.clients;
            cfg.mesh.link_latency = SimDuration::from_millis(THREADS_SWEEP_LINK_MS);
            let t0 = Instant::now();
            let result = run_mesh_scenario(cfg, &trace);
            let wall_s = t0.elapsed().as_secs_f64();
            if t == 1 {
                base_wall = wall_s;
            }
            let row = sweep_row(t, &result, wall_s, base_wall / wall_s);
            eprintln!("mesh: {row}");
            doc.rows_mut("threads_sweep").push(row);
        }
    }

    let out_path = out_path.unwrap_or_else(|| "BENCH_mesh.json".to_string());
    publish(&doc, &out_path, |doc| gates(doc, &shard_counts, threads));
}
