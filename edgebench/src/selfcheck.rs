//! `--selfcheck`: the benchmark measuring its own noise, by the acceptance
//! rule of its contract. Two sets of runs of the same code — every workload
//! at ten seeds, each run a fresh process, workload order alternating — give
//! per metric the spread (interquartile distance over median) within each
//! set and how much worse the second set's median is than the first's. Both
//! must stay within the metric's bound (`setup_s`'s spread is exempt), and
//! the sim-clock metrics must repeat exactly for a seed. One traced run per
//! workload at the pinned seed adds the hash pins and the tracing overhead.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::contract::END_TO_END;
use crate::json::Json;
use crate::passes::Budget;
use crate::stats;
use crate::workloads::{Workload, PIN_SEED};
use crate::Args;

const SEEDS: std::ops::RangeInclusive<u64> = 1..=10;
/// Metrics in `SimTime`: a seed fixes them exactly.
const SIM_CLOCK: [&str; 4] = [
    "req_ms_mean",
    "req_ms_p99",
    "first_req_ms_p50",
    "slo_miss_ratio",
];

/// Run this binary as the driver would and parse its result line.
fn child(args: &Args, workload: &Workload, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    match args.budget {
        Budget::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
        Budget::Reps(n) => cmd.args(["--reps", &n.to_string()]),
    };
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(line).map_err(|e| format!("bad result line `{line}`: {e}"))?;
    if !out.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{} seed {seed} trace {}: {} — {line}",
            workload.name,
            u8::from(trace),
            out.status
        ));
    }
    Ok(result)
}

fn metric(result: &Json, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("result line has no metric `{name}`"))
}

/// By what share of `first` the median `second` is worse, given the metric's
/// direction; negative when it is better.
fn worsening(better: &str, first: f64, second: f64) -> f64 {
    let delta = if better == "higher" {
        first - second
    } else {
        second - first
    };
    delta / first.abs()
}

pub fn run(args: &Args) -> ExitCode {
    match check(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("edgebench --selfcheck: {e}");
            ExitCode::FAILURE
        }
    }
}

fn check(args: &Args) -> Result<bool, String> {
    // values[set][(workload, metric)] = one value per seed, in seed order.
    let mut values: [BTreeMap<(&str, &str), Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    for (set, set_values) in values.iter_mut().enumerate() {
        for seed in SEEDS {
            // A B B A: the order of workloads flips from seed to seed and
            // starts opposite in the second set.
            let mut order: Vec<&Workload> = args.workloads.clone();
            if (seed as usize + set) % 2 == 1 {
                order.reverse();
            }
            for workload in order {
                eprintln!(
                    "selfcheck: set {} seed {seed} {}",
                    ["A", "B"][set],
                    workload.name
                );
                let result = child(args, workload, seed, false)?;
                for m in END_TO_END {
                    set_values
                        .entry((workload.name, m.name))
                        .or_default()
                        .push(metric(&result, m.name)?);
                }
            }
        }
    }

    let mut ok = true;
    let mut rows = Vec::new();
    println!("workload metric bound spread_a spread_b second_median_worse_by verdict");
    for workload in &args.workloads {
        for m in END_TO_END {
            let key = (workload.name, m.name);
            let (a, b) = (&values[0][&key], &values[1][&key]);
            let (spread_a, spread_b) = (stats::spread(a), stats::spread(b));
            let worse = worsening(m.better, stats::median(a), stats::median(b));
            let steady = m.name == "setup_s" || spread_a.max(spread_b) <= m.bound;
            let exact = !SIM_CLOCK.contains(&m.name) || a == b;
            let pass = steady && worse <= m.bound && exact;
            ok &= pass;
            let verdict = match (pass, exact) {
                (true, _) => "ok",
                (false, false) => "NOT-EXACT",
                (false, true) => "OVER-BOUND",
            };
            println!(
                "{} {} {} {spread_a:.4} {spread_b:.4} {worse:+.4} {verdict}",
                workload.name, m.name, m.bound
            );
            rows.push(Json::obj([
                ("workload", Json::str(workload.name)),
                ("metric", Json::str(m.name)),
                ("bound", Json::Num(m.bound)),
                ("median_a", Json::Num(stats::median(a))),
                ("median_b", Json::Num(stats::median(b))),
                ("spread_a", Json::Num(spread_a)),
                ("spread_b", Json::Num(spread_b)),
                ("second_median_worse_by", Json::Num(worse)),
                ("verdict", Json::str(verdict)),
            ]));
        }
    }

    // One traced run per workload: pins, thread-count equality and the cost
    // of the spans around the run call.
    let mut overheads = Vec::new();
    for workload in &args.workloads {
        eprintln!("selfcheck: traced {}", workload.name);
        let traced = child(args, workload, PIN_SEED, true)?;
        let traced_run_s = metric(&traced, "testbed.run_s")?;
        let requests = workload.trace_config(args.quick).total_requests as f64;
        let untraced: Vec<f64> = values
            .iter()
            .flat_map(|set| &set[&(workload.name, "sim_req_per_s")])
            .map(|rate| requests / rate)
            .collect();
        let overhead = traced_run_s / stats::median(&untraced);
        println!(
            "{} harness.trace_overhead_ratio {overhead:.4}",
            workload.name
        );
        overheads.push((workload.name, Json::Num(overhead)));
    }

    if let Some(path) = &args.out {
        let report = Json::obj([
            (
                "seeds",
                Json::Arr(SEEDS.map(|s| Json::Num(s as f64)).collect()),
            ),
            ("quick", Json::Bool(args.quick)),
            ("host_cpus", Json::Num(crate::host::host_cpus() as f64)),
            ("passed", Json::Bool(ok)),
            ("noise", Json::Arr(rows)),
            ("trace_overhead_ratio", Json::obj(overheads)),
        ]);
        std::fs::write(path, report.pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("selfcheck: {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert_eq!(worsening("lower", 10.0, 11.0), 0.1);
        assert_eq!(worsening("lower", 10.0, 9.0), -0.1);
        assert_eq!(worsening("higher", 100.0, 90.0), 0.1);
        assert_eq!(worsening("higher", 100.0, 110.0), -0.1);
    }

    #[test]
    fn metric_reads_the_result_line() {
        let line =
            Json::parse(r#"{"correct": true, "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}"#)
                .unwrap();
        assert_eq!(metric(&line, "wall_s"), Ok(0.5));
        assert!(metric(&line, "cpu_s").is_err());
    }
}
