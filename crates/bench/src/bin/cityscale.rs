//! City-scale bigFlows throughput sweep — the trajectory artifact for perf
//! PRs (`BENCH_cityscale.json`).
//!
//! Replays the paper's bigFlows workload at {1×, 10×, 100×, 1000×} the
//! paper's scale (clients, services and requests all multiplied; marginals
//! at 1× are exactly the paper's trace) through the full testbed and
//! records, per scale: wall-clock, events/sec, peak future-event-list depth,
//! heap allocations per request and the peak of live heap bytes (both from
//! simcore's counting allocator; the peak covers the tier's whole process
//! and, counting requested bytes, repeats exactly for a seed where RSS does
//! not). `--repeat N` measures every scale N times, each in its own child
//! process, and keeps the fastest row: the metrics are identical across
//! runs and only the wall clock varies. The artifact's gates
//! (`bench::artifact::cityscale::gates`) exit 1 after it is written.
//!
//! Usage:
//!   cityscale [--quick] [--scales 1,10,100,1000] [--out BENCH_cityscale.json]
//!             [--repeat N]

use std::num::NonZeroUsize;
use std::process::{Command, Stdio};
use std::time::Instant;

use bench::artifact::cityscale::{gates, tier_row, LAYOUT};
use bench::artifact::{publish, Doc, Flags, Row, SEED};
use cluster::ClusterKind;
use simcore::{alloc_count, SimRng};
use testbed::{ScenarioConfig, SiteSpec, Testbed};
use workload::{Trace, TraceConfig};

fn run_scale(scale: usize) -> Row {
    let mut rng = SimRng::seed_from_u64(SEED ^ 0xB16F_1085);
    let trace = Trace::generate(TraceConfig::scaled(scale), &mut rng);
    // The default scenario with the edge site's hardware scaled alongside
    // the workload (one aggregate runtime backed by `scale` EGS nodes), so
    // deployments succeed at every multiplier. At 1× this is exactly
    // `ScenarioConfig { seed: 42, ..default }`.
    let egs = SiteSpec::egs("egs-0").with_nodes(scale);
    let cfg = ScenarioConfig {
        seed: SEED,
        clients: trace.config.clients,
        sites: vec![(egs, ClusterKind::Docker)],
        ..ScenarioConfig::default()
    };
    let testbed = Testbed::build(cfg, trace.service_addrs.clone());
    let allocs_before = alloc_count::total();
    let t0 = Instant::now();
    let result = testbed.run_trace(&trace);
    let wall_s = t0.elapsed().as_secs_f64();
    let allocs = alloc_count::total() - allocs_before;
    tier_row(scale, &trace, &result, wall_s, allocs)
}

/// Run one scale in a fresh child process so every tier is measured on a
/// pristine heap: the big tiers are sensitive to allocator/page state left
/// behind by earlier runs in the same process (~10% wall on the 100x tier
/// after a 1x+10x warm-up — the artifact should report per-scale cost, not
/// heap-history cost). The child prints a one-row artifact; falls back to
/// in-process measurement if the binary cannot re-exec itself.
fn run_scale_isolated(scale: usize) -> Row {
    let scale_arg = scale.to_string();
    let mut cmd = Command::new(std::env::current_exe().unwrap_or_default());
    cmd.args(["--scale-row", &scale_arg]);
    cmd.stderr(Stdio::inherit());
    match cmd.output() {
        Ok(out) if out.status.success() => {
            let text = String::from_utf8(out.stdout).expect("child artifact is UTF-8");
            let doc = LAYOUT.parse(&text).expect("a one-row artifact");
            doc.rows("scales")[0].clone()
        }
        Ok(out) => panic!("scale {scale} child failed with {}", out.status),
        Err(_) => run_scale(scale),
    }
}

fn main() {
    let mut flags = Flags::from_env("cityscale");
    let quick = flags.switch("--quick");
    let scales = flags.list("--scales");
    let out_path = flags.value("--out");
    let repeat = flags.value("--repeat").map_or(1, NonZeroUsize::get);
    // Child mode of `run_scale_isolated`: measure one scale and print it.
    let scale_row = flags.value("--scale-row");
    flags.finish();

    let mut doc = Doc::new(&LAYOUT);
    if let Some(scale) = scale_row {
        doc.rows_mut("scales").push(run_scale(scale));
        print!("{}", doc.render().expect("tier row matches its columns"));
        return;
    }
    let default: &[usize] = if quick { &[1] } else { &[1, 10, 100, 1000] };
    for scale in scales.unwrap_or_else(|| default.to_vec()) {
        let runs = (1..=repeat).map(|rep| {
            eprintln!("cityscale: running {scale}x ({rep}/{repeat}) ...");
            let row = run_scale_isolated(scale);
            eprintln!("cityscale: {row}");
            row
        });
        let best = runs.min_by(|a, b| a.float("wall_s").total_cmp(&b.float("wall_s")));
        doc.rows_mut("scales").extend(best);
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_cityscale.json".to_string());
    publish(&doc, &out_path, gates);
}
