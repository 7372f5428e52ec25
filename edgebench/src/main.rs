//! `edgebench` — the repository's benchmark (contract: `../BENCHMARK.json`,
//! guide: `README.md` beside this package).
//!
//! ```text
//! edgebench [--workload NAME[,NAME]] [--seed N] [--seconds S | --reps N]
//!           [--trace 0|1] [--quick] [--out PATH]
//! edgebench --selfcheck [--workload ..] [--seconds S] [--quick] [--out PATH]
//! edgebench --contract
//! ```
//!
//! Every run prints each metric as `workload metric value unit` and ends
//! with the contract's result line. Without `--workload` all six workloads
//! run; without `--trace` both the timed pass (end-to-end metrics, tracing
//! off) and the traced pass (per-layer metrics) run. The benchmark driver
//! passes `--workload W --seed N --seconds S --trace T`.

mod contract;
mod host;
mod json;
mod measure;
mod passes;
mod replay;
mod selfcheck;
mod span;
mod stats;
mod workloads;

use std::process::ExitCode;

use json::Json;
use passes::{Budget, PassResult};
use workloads::{Workload, WORKLOADS};

#[derive(Debug)]
struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    budget: Budget,
    /// `Some(false)` timed only, `Some(true)` traced only, `None` both.
    trace: Option<bool>,
    quick: bool,
    out: Option<String>,
    mode: Mode,
}

#[derive(Debug, PartialEq)]
enum Mode {
    Run,
    Selfcheck,
    Contract,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: workloads::PIN_SEED,
        budget: Budget::Seconds(contract::RUN_SECONDS as f64),
        trace: None,
        quick: false,
        out: None,
        mode: Mode::Run,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{arg}` needs a value"));
        match arg.as_str() {
            "--workload" => {
                parsed.workloads = value()?
                    .split(',')
                    .map(|name| {
                        workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                parsed.budget = Budget::Seconds(s);
            }
            "--reps" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|_| "--reps takes a whole number")?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                parsed.budget = Budget::Reps(n);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value()?.clone()),
            "--selfcheck" => parsed.mode = Mode::Selfcheck,
            "--contract" => parsed.mode = Mode::Contract,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Print a pass for people, then its result line.
fn print_pass(workload: &Workload, pass: &PassResult) {
    for m in &pass.metrics {
        let tag = if m.source.is_empty() {
            String::new()
        } else {
            format!(" [{}]", m.source)
        };
        println!("{} {} {} {}{tag}", workload.name, m.name, m.value, m.unit);
    }
    for note in &pass.notes {
        println!("# {}: {note}", workload.name);
    }
    for problem in &pass.problems {
        println!("# {}: INCORRECT: {problem}", workload.name);
    }
    println!("{}", pass.result_line());
}

fn run(args: &Args) -> ExitCode {
    let mut report = Vec::new();
    let mut correct = true;
    for workload in &args.workloads {
        let mut sections = Vec::new();
        let mut untraced_run_s = None;
        if args.trace != Some(true) {
            let pass = passes::timed_pass(workload, args.seed, args.quick, args.budget);
            print_pass(workload, &pass);
            correct &= pass.correct();
            untraced_run_s = Some(pass.run_s);
            sections.push(("end_to_end", pass.result_line()));
        }
        if args.trace != Some(false) {
            let pass = passes::traced_pass(workload, args.seed, args.quick);
            print_pass(workload, &pass);
            correct &= pass.correct();
            // Both passes in one invocation: the run call under spans
            // against the untraced median is the tracing overhead.
            if let Some(untraced) = untraced_run_s {
                println!(
                    "{} harness.trace_overhead_ratio {} ratio [S]",
                    workload.name,
                    pass.run_s / untraced
                );
            }
            sections.push(("per_layer", pass.result_line()));
        }
        report.push((workload.name, Json::obj(sections)));
    }
    if let Some(path) = &args.out {
        let report = Json::obj([
            ("seed", Json::Num(args.seed as f64)),
            ("quick", Json::Bool(args.quick)),
            ("workloads", Json::obj(report)),
        ]);
        if let Err(e) = std::fs::write(path, report.pretty()) {
            eprintln!("edgebench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("edgebench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::Contract => {
            let pairs: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
            if let Err(e) = contract::validate(&pairs, contract::END_TO_END, contract::PER_LAYER) {
                eprintln!("edgebench: the metric tables break the contract: {e}");
                return ExitCode::FAILURE;
            }
            print!("{}", contract::benchmark_json(&pairs).pretty());
            ExitCode::SUCCESS
        }
        Mode::Selfcheck => selfcheck::run(&args),
        Mode::Run => run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_invocation_parses() {
        let args = parse(&[
            "--workload",
            "flow_reuse",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workloads.len(), 1);
        assert_eq!(args.workloads[0].name, "flow_reuse");
        assert_eq!(args.seed, 7);
        assert_eq!(args.budget, Budget::Seconds(10.0));
        assert_eq!(args.trace, Some(true));
        assert_eq!(args.mode, Mode::Run);
    }

    #[test]
    fn defaults_are_every_workload_both_passes_at_the_pinned_seed() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.workloads.len(), 6);
        assert_eq!(args.seed, 42);
        assert_eq!(args.trace, None);
        assert_eq!(args.budget, Budget::Seconds(contract::RUN_SECONDS as f64));
        assert!(!args.quick);
    }

    #[test]
    fn lists_reps_and_modes_parse() {
        let args = parse(&["--workload", "city_100x,mesh_4x2", "--reps", "3", "--quick"]).unwrap();
        let names: Vec<&str> = args.workloads.iter().map(|w| w.name).collect();
        assert_eq!(names, ["city_100x", "mesh_4x2"]);
        assert_eq!(args.budget, Budget::Reps(3));
        assert!(args.quick);
        assert_eq!(parse(&["--selfcheck"]).unwrap().mode, Mode::Selfcheck);
        assert_eq!(parse(&["--contract"]).unwrap().mode, Mode::Contract);
        assert_eq!(
            parse(&["--out", "x.json"]).unwrap().out.as_deref(),
            Some("x.json")
        );
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            &["--bogus"][..],
            &["--workload"],
            &["--workload", "city_10x"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "-1"],
            &["--reps", "0"],
            &["--trace", "2"],
            &["extra"],
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
