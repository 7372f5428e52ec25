//! The committed `BENCH_mesh.json` hashes, pinned inside `cargo test`.
//!
//! `MeshRunResult::mesh_trace` hashes the windowed engine's own diagnostics
//! (`windows=`, `stalls=`, `events=`) next to the workload counters, so these
//! constants pin the executed-event count and the window sequence of every
//! multi-shard run — not just that thread counts agree with each other.
//! Each case is built exactly as `crates/bench/src/bin/mesh.rs` builds its
//! row (seed 42): the plain and churn sweeps through `run_mesh_bigflows`,
//! the threads sweep over the 10× trace on a 50 ms link through
//! `run_mesh_scenario`.

use edgemesh::{run_mesh_bigflows, run_mesh_scenario};
use simcore::{SimDuration, SimRng};
use testbed::{MeshParams, ScenarioConfig};
use workload::{Trace, TraceConfig};

const SEED: u64 = 42;

fn mesh_cfg(shards: usize, threads: usize) -> ScenarioConfig {
    ScenarioConfig {
        seed: SEED,
        mesh: MeshParams {
            shards,
            threads,
            ..MeshParams::default()
        },
        ..ScenarioConfig::default()
    }
}

#[test]
fn plain_sweep_hashes_match_bench_mesh_json() {
    for (shards, pinned) in [
        (2, 0xa085_6231_d40d_4f62_u64),
        (4, 0x777c_1fff_5d82_d3f7),
        (8, 0x6728_5707_bafa_1665),
    ] {
        let (_, result) = run_mesh_bigflows(mesh_cfg(shards, 1));
        assert_eq!(
            result.mesh_hash(),
            pinned,
            "plain {shards}-shard hash {:#018x} drifted from BENCH_mesh.json",
            result.mesh_hash()
        );
    }
}

#[test]
fn churn_sweep_hashes_match_bench_mesh_json() {
    for (shards, pinned) in [
        (2, 0x31a3_1dbe_4492_c5b7_u64),
        (4, 0xa7e4_8cec_b477_12df),
        (8, 0xcdb0_64fe_a8fc_e6a7),
    ] {
        let mut cfg = mesh_cfg(shards, 1);
        cfg.controller.scale_down_idle = true;
        cfg.controller.memory_idle_timeout = SimDuration::from_secs(30);
        cfg.controller.remove_after = Some(SimDuration::from_secs(60));
        let (_, result) = run_mesh_bigflows(cfg);
        assert_eq!(
            result.mesh_hash(),
            pinned,
            "churn {shards}-shard hash {:#018x} drifted from BENCH_mesh.json",
            result.mesh_hash()
        );
    }
}

/// The threads-sweep rows: 10× workload, 50 ms link, at threads 1 and
/// 2. Slow unoptimized, so plain `cargo test` skips it; CI runs it in
/// the release-profile step (`cargo test --release -- --include-ignored`).
#[test]
#[cfg_attr(debug_assertions, ignore = "10x workload: run in the release profile")]
fn threads_sweep_hashes_match_bench_mesh_json() {
    let trace = Trace::generate(
        TraceConfig::scaled(10),
        &mut SimRng::seed_from_u64(SEED ^ 0xB16F_1085),
    );
    for (shards, pinned) in [
        (2, 0xe1d1_536a_7185_c858_u64),
        (4, 0x898e_6923_bbf2_cdc7),
        (8, 0xb765_0021_bc2a_71d3),
    ] {
        for threads in [1, 2] {
            let mut cfg = mesh_cfg(shards, threads);
            cfg.clients = trace.config.clients;
            cfg.mesh.link_latency = SimDuration::from_millis(50);
            let result = run_mesh_scenario(cfg, &trace);
            assert_eq!(
                result.mesh_hash(),
                pinned,
                "10x {shards}-shard / {threads}-thread hash {:#018x} drifted from BENCH_mesh.json",
                result.mesh_hash()
            );
        }
    }
}
