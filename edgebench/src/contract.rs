//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository root
//! is this table rendered by `edgebench --contract`; a unit test keeps the
//! two identical.

use crate::json::Json;

/// How long one run measures, in seconds (`run_seconds` in the contract and
/// the default for `--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Counter the real run already exposes (`RunResult`, `MeshRunResult`,
    /// `SwitchStats`) or a ratio of such counters — exact for a seed.
    Counter,
    /// Host-clock span the harness records around a pipeline call.
    Span,
    /// Host-clock span around a replay driver: the layer's public API driven
    /// alone at the op count and state size the run's counters report.
    Replay,
}

impl Source {
    pub fn tag(self) -> &'static str {
        match self {
            Source::Counter => "C",
            Source::Span => "S",
            Source::Replay => "R",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Milliseconds of `SimTime`, not of the host clock.
const SIM_MS: &str = "sim_ms";

/// Host-clock metrics time the simulator (median over the run's reps);
/// sim-clock metrics are what the modelled system did in `SimTime` and are
/// exact for a seed, so their bounds only have to cover seed-to-seed spread.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_s", "s", "lower", 0.25),
    e2e("sim_req_per_s", "1/s", "higher", 0.25),
    e2e("cpu_s", "s", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.15),
    e2e("allocs_per_req", "allocs/req", "lower", 0.08),
    e2e("req_ms_mean", SIM_MS, "lower", 0.08),
    e2e("req_ms_p99", SIM_MS, "lower", 0.05),
    e2e("first_req_ms_p50", SIM_MS, "lower", 0.20),
    e2e("slo_miss_ratio", "ratio", "lower", 0.20),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

use Source::{Counter as C, Replay as R, Span as S};

pub const PER_LAYER: &[PerLayer] = &[
    layer("workload.generate_s", "s", "lower", S),
    layer("workload.generate_ns_per_req", "ns", "lower", S),
    layer("testbed.build_s", "s", "lower", S),
    layer("testbed.run_s", "s", "lower", S),
    layer("testbed.events", "count", "lower", C),
    layer("testbed.events_per_req", "1/req", "lower", C),
    layer("testbed.events_per_s", "1/s", "higher", C),
    layer("testbed.peak_queue_depth", "count", "lower", C),
    layer("testbed.alloc.build", "count", "lower", C),
    layer("testbed.alloc.prewarm", "count", "lower", C),
    layer("testbed.alloc.schedule", "count", "lower", C),
    layer("testbed.alloc.event_loop", "count", "lower", C),
    layer("testbed.alloc.hash", "count", "lower", C),
    layer("testbed.req_ms_p50", SIM_MS, "lower", C),
    layer("testbed.first_req_flag_ms_p50", SIM_MS, "lower", C),
    layer("testbed.unattributed_share", "ratio", "lower", R),
    layer("simcore.queue.ns_per_event", "ns", "lower", R),
    layer("simcore.queue.share_est", "ratio", "lower", R),
    layer("simcore.fnv.hash_s", "s", "lower", S),
    layer("simcore.fnv.ns_per_record", "ns", "lower", S),
    layer("simcore.shard_crew.ns_per_window", "ns", "lower", R),
    layer("simnet.switch.packets", "count", "lower", C),
    layer("simnet.switch.table_hits", "count", "higher", C),
    layer("simnet.switch.table_misses", "count", "lower", C),
    layer("simnet.switch.miss_ratio", "ratio", "lower", C),
    layer("simnet.switch.ns_per_hit", "ns", "lower", R),
    layer("simnet.switch.ns_per_miss", "ns", "lower", R),
    layer("simnet.switch.ns_per_install", "ns", "lower", R),
    layer("simnet.switch.ns_per_expire_sweep", "ns", "lower", R),
    layer("simnet.switch.share_est", "ratio", "lower", R),
    layer("edgectl.controller.packet_ins", "count", "lower", C),
    layer("edgectl.controller.held", "count", "lower", C),
    layer("edgectl.controller.detoured", "count", "lower", C),
    layer("edgectl.controller.cloud_forwards", "count", "lower", C),
    layer("edgectl.controller.retargets", "count", "lower", C),
    layer(
        "edgectl.controller.admission_rejections",
        "count",
        "lower",
        C,
    ),
    layer("edgectl.controller.ns_per_packet_in", "ns", "lower", R),
    layer("edgectl.controller.ns_per_wakeup", "ns", "lower", R),
    layer("edgectl.controller.share_est", "ratio", "lower", R),
    layer("edgectl.catalog.ns_per_lookup", "ns", "lower", R),
    layer("edgectl.flowmemory.hits", "count", "higher", C),
    layer("edgectl.flowmemory.hit_ratio", "ratio", "higher", C),
    layer("edgectl.flowmemory.ns_per_recall", "ns", "lower", R),
    layer("edgectl.flowmemory.ns_per_remember", "ns", "lower", R),
    layer("edgectl.flowmemory.ns_per_expire", "ns", "lower", R),
    layer("edgectl.scheduler.ns_per_decide", "ns", "lower", R),
    layer("edgectl.dispatcher.deployments", "count", "lower", C),
    layer("edgectl.dispatcher.scale_downs", "count", "lower", C),
    layer("edgectl.dispatcher.removes", "count", "lower", C),
    layer("edgectl.dispatcher.deploy_sim_ms_p50", SIM_MS, "lower", C),
    layer("cluster.docker.ns_per_deploy", "ns", "lower", R),
    layer("cluster.k8s.ns_per_deploy", "ns", "lower", R),
    layer("cluster.deploy_share_est", "ratio", "lower", R),
    layer("edgemesh.par.events", "count", "lower", C),
    layer("edgemesh.par.events_per_req", "1/req", "lower", C),
    layer("edgemesh.par.windows", "count", "lower", C),
    layer("edgemesh.par.events_per_window", "count", "higher", C),
    layer("edgemesh.par.stalls_per_window", "ratio", "lower", C),
    layer("edgemesh.par.deltas_sent", "count", "lower", C),
    layer("edgemesh.par.duplicates_avoided", "count", "higher", C),
    layer("edgemesh.par.duplicate_deployments", "count", "lower", C),
    layer("edgemesh.par.lease_rejections", "count", "lower", C),
    layer("edgemesh.par.run_s_t1", "s", "lower", S),
    layer("edgemesh.par.speedup_t2", "ratio", "higher", S),
    layer("edgemesh.par.single_ratio", "ratio", "lower", S),
    layer("edgemesh.lease.ns_per_acquire", "ns", "lower", R),
    layer("edgeverify.audit_s", "s", "lower", S),
    layer("edgeverify.violations", "count", "lower", C),
    layer("harness.cpu_util", "ratio", "higher", S),
    layer("harness.host_cpus", "count", "higher", C),
];

/// A name in the contract: starts with a letter or digit, then letters,
/// digits, `_`, `.` and `-`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit in the contract: letters, digits, `_`, `/`, `%`, `.` and `-`, at
/// most 16 characters.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Check a vocabulary against the contract's limits; `Err` names the first
/// rule broken.
pub fn validate(
    workloads: &[(&str, &str)],
    end_to_end: &[EndToEnd],
    per_layer: &[PerLayer],
) -> Result<(), String> {
    if !(2..=8).contains(&workloads.len()) {
        return Err(format!("{} workloads (want 2 to 8)", workloads.len()));
    }
    if !(1..=16).contains(&end_to_end.len()) {
        return Err(format!(
            "{} end-to-end metrics (want 1 to 16)",
            end_to_end.len()
        ));
    }
    if !(1..=128).contains(&per_layer.len()) {
        return Err(format!(
            "{} per-layer metrics (want 1 to 128)",
            per_layer.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = workloads
        .iter()
        .map(|w| w.0)
        .chain(end_to_end.iter().map(|m| m.name))
        .chain(per_layer.iter().map(|m| m.name));
    for name in names {
        if !valid_name(name) {
            return Err(format!("bad name `{name}`"));
        }
        if !seen.insert(name) {
            return Err(format!("name `{name}` used twice"));
        }
    }
    for (name, why) in workloads {
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "workload `{name}`: why must be one line of at most 200 characters"
            ));
        }
    }
    let units = end_to_end
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(per_layer.iter().map(|m| (m.name, m.unit, m.better)));
    for (name, unit, better) in units {
        if !valid_unit(unit) {
            return Err(format!("metric `{name}`: bad unit `{unit}`"));
        }
        if !matches!(better, "lower" | "higher") {
            return Err(format!("metric `{name}`: better must be lower or higher"));
        }
    }
    for m in end_to_end {
        if !(0.0..=0.25).contains(&m.bound) {
            return Err(format!(
                "metric `{}`: bound {} outside 0..=0.25",
                m.name, m.bound
            ));
        }
    }
    if !end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower")
    {
        return Err("no `setup_s` metric in seconds, lower is better".into());
    }
    Ok(())
}

/// `BENCHMARK.json` rendered from the tables above.
pub fn benchmark_json(workloads: &[(&str, &str)]) -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "edgebench/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("edgebench")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workloads
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn workload_pairs() -> Vec<(&'static str, &'static str)> {
        WORKLOADS.iter().map(|w| (w.name, w.why)).collect()
    }

    #[test]
    fn the_shipped_vocabulary_is_valid() {
        assert_eq!(validate(&workload_pairs(), END_TO_END, PER_LAYER), Ok(()));
    }

    #[test]
    fn names_and_units_follow_the_contract() {
        for good in [
            "setup_s",
            "edgectl.controller.ns_per_packet_in",
            "4x2",
            "a-b",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "1/s", "allocs/req", "%", "MiB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "req per s", "seventeen-letters", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn counts_and_duplicates_are_rejected() {
        let w = workload_pairs();
        assert!(validate(&w[..1], END_TO_END, PER_LAYER).is_err());
        let nine: Vec<(&str, &str)> = (0..9).map(|_| ("w", "why")).collect();
        assert!(validate(&nine, END_TO_END, PER_LAYER).is_err());
        assert!(validate(&w, &[], PER_LAYER).is_err());
        let seventeen = vec![END_TO_END[0]; 17];
        assert!(validate(&w, &seventeen, PER_LAYER).is_err());
        let too_many = vec![PER_LAYER[0]; 129];
        assert!(validate(&w, END_TO_END, &too_many).is_err());
        let twice = [PER_LAYER[0], PER_LAYER[0]];
        assert!(validate(&w, END_TO_END, &twice).is_err());
        let wide = [e2e("setup_s", "s", "lower", 0.3)];
        assert!(validate(&w, &wide, PER_LAYER).is_err());
        let no_setup = [e2e("wall_s", "s", "lower", 0.1)];
        assert!(validate(&w, &no_setup, PER_LAYER).is_err());
    }

    #[test]
    fn benchmark_json_on_disk_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(on_disk.len() <= 64 * 1024);
        assert_eq!(
            Json::parse(&on_disk),
            Ok(benchmark_json(&workload_pairs())),
            "regenerate with `edgebench --contract > BENCHMARK.json`"
        );
    }
}
