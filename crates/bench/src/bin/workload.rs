//! Workload-engine sweep — the trajectory artifact for the arrival-model
//! subsystem (`BENCH_workload.json`). Two sweeps over the seed-42 scenario:
//!
//! * **Model × shards** — every builtin arrival model through the mesh at
//!   {1, 2, 4} ingress shards, recording completions, losses, deployments,
//!   split-brain duplicates observed vs avoided, wall-clock and the hash.
//! * **Mobility** — the bigflows and diurnal models with
//!   `handovers_per_client = 2` on a 2-shard mesh, run audited (the
//!   session-continuity analysis rides along) at threads 1 and 2.
//!
//! The artifact's gates (`bench::artifact::workload::gates`) exit 1 after
//! it is written.
//!
//! Usage:
//!   workload [--quick] [--shards 1,2,4] [--out BENCH_workload.json]

use std::time::Instant;

use bench::artifact::workload::{gates, row, LAYOUT};
use bench::artifact::{publish, Doc, Flags, SEED};
use edgemesh::run_mesh_bigflows;
use testbed::ScenarioConfig;
use workload::WorkloadRegistry;

const MOBILITY_HANDOVERS: f64 = 2.0;

fn scenario(model: &str, shards: usize, threads: usize, handovers: f64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig {
        seed: SEED,
        ..ScenarioConfig::default()
    };
    (cfg.mesh.shards, cfg.mesh.threads) = (shards, threads);
    cfg.workload.model = model.to_string();
    cfg.workload.handovers_per_client = handovers;
    cfg
}

fn main() {
    let mut flags = Flags::from_env("workload");
    let quick = flags.switch("--quick");
    let default: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let shard_counts = flags.list("--shards").unwrap_or_else(|| default.to_vec());
    let out_path = flags.value("--out");
    flags.finish();

    let mut doc = Doc::new(&LAYOUT);
    let handovers = MOBILITY_HANDOVERS;
    doc.header.set("mobility_handovers_per_client", handovers);
    for model in WorkloadRegistry::builtin().names() {
        for &shards in &shard_counts {
            let t0 = Instant::now();
            let (trace, r) = run_mesh_bigflows(scenario(model, shards, 2.min(shards), 0.0));
            let wall_s = t0.elapsed().as_secs_f64();
            let row = row(model, 0.0, trace.requests.len(), &r, wall_s);
            eprintln!("workload: {row}");
            doc.rows_mut("models").push(row);
        }
    }

    // Mobility sweep: audited 2-shard runs at 1 and 2 threads; the
    // continuity analysis is part of the audit. Quick mode keeps one model;
    // the thread pair stays — hash equality across threads is the cheapest
    // strong determinism signal we have.
    let mobility_models = &["bigflows", "diurnal"][..if quick { 1 } else { 2 }];
    for model in mobility_models {
        for threads in [1usize, 2] {
            let cfg = scenario(model, 2, threads, MOBILITY_HANDOVERS);
            let t0 = Instant::now();
            let trace = testbed::generate_workload(&cfg);
            let (r, violations) = edgemesh::run_windowed_audited(cfg, &trace, threads);
            let wall_s = t0.elapsed().as_secs_f64();
            let mut row = row(model, MOBILITY_HANDOVERS, trace.requests.len(), &r, wall_s);
            row.set("continuity_violations", violations.len());
            eprintln!("workload: {row}");
            doc.rows_mut("mobility").push(row);
        }
    }

    let out_path = out_path.unwrap_or_else(|| "BENCH_workload.json".to_string());
    publish(&doc, &out_path, gates);
}
