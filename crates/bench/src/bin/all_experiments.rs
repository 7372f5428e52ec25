//! Run every table/figure experiment and (optionally) write EXPERIMENTS.md.
//!
//! Usage:
//!   all_experiments [--quick] [--only ID] [--write-md PATH]
//!
//! `--quick` trims the seed count (used by CI); `--only` builds and prints
//! one experiment (`table1`, `fig09` … `fig16`, `hybrid`, `hierarchy`,
//! `proactive`, `futurework_wasm`); `--write-md` regenerates the
//! per-experiment paper-vs-measured record. Its cityscale, mesh, scheduler
//! and workload rows and the two ablation sections are rendered from the
//! committed `BENCH_*.json` artifacts, read through `bench::artifact`.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use bench::artifact::{cityscale, mesh, sched, workload, Doc, Layout, Row, SEED_42_HASH};
use bench::{fmt_ms, Table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let md_path = args
        .iter()
        .position(|a| a == "--write-md")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let only = args
        .iter()
        .position(|a| a == "--only")
        .map(|i| args.get(i + 1).map_or("", String::as_str));
    if let Some(id) = only {
        match bench::experiments::only(id, quick) {
            Some(e) => println!("{}", e.render()),
            None => {
                let known: Vec<&str> = bench::experiments::ids().collect();
                eprintln!(
                    "all_experiments: --only `{id}`: expected one of {}",
                    known.join(", ")
                );
                std::process::exit(2);
            }
        }
        return;
    }

    let experiments = bench::experiments::all(quick);
    for e in &experiments {
        println!("{}", e.render());
    }

    if let Some(path) = md_path {
        let city = committed(
            &cityscale::LAYOUT,
            include_str!("../../../../BENCH_cityscale.json"),
        );
        let mesh = committed(&mesh::LAYOUT, include_str!("../../../../BENCH_mesh.json"));
        let sched = committed(&sched::LAYOUT, include_str!("../../../../BENCH_sched.json"));
        let work = committed(
            &workload::LAYOUT,
            include_str!("../../../../BENCH_workload.json"),
        );
        let mut md = String::new();
        md.push_str("# EXPERIMENTS — paper vs. measured\n\n");
        md.push_str(
            "Every table and figure of the paper's evaluation (§VI) regenerated by this \
             repository's simulation. Absolute numbers come from a calibrated model (see \
             DESIGN.md §2); the *shape* — who wins, by what factor, where the crossovers \
             are — is the reproduction target. Regenerate with:\n\n\
             ```\ncargo run --release -p bench --bin all_experiments -- --write-md EXPERIMENTS.md\n```\n\n\
             One experiment at a time: `cargo run --release -p bench --bin all_experiments -- --only fig11` etc.\n\n",
        );
        md.push_str("| Experiment | Paper | This reproduction |\n|---|---|---|\n");
        md.push_str("| Table I | 4 services: 6.18 KiB/1L, 135 MiB/6L, 308 MiB/9L, 181 MiB/7L | identical (synthesized layer sets) |\n");
        md.push_str("| Fig. 9 | 1708 requests / 42 services / 5 min, ≥20 each | identical marginals, Zipf-with-floor popularity |\n");
        md.push_str(
            "| Fig. 10 | 42 deployments, ≤8/s at start | 42 deployments, front-loaded burst |\n",
        );
        md.push_str(
            "| Fig. 11 | Docker <1 s, K8s ≈3 s; Asm≈Nginx; ResNet slowest | see table below |\n",
        );
        md.push_str(
            "| Fig. 12 | ≈ Fig. 11 + ~100 ms create (invisible for ResNet) | see table below |\n",
        );
        md.push_str("| Fig. 13 | pulls scale with size+layers; private registry saves 1.5–2 s | nginx saves ≈1.8 s |\n");
        md.push_str("| Fig. 14 | wait dominates for ResNet (>¼ of total) | ResNet wait ≈2.4 s of ≈2.9 s total (Docker) |\n");
        md.push_str("| Fig. 15 | included in Fig. 12 | see table below |\n");
        md.push_str("| Fig. 16 | ≈1 ms web servers, both clusters equal; ResNet ≫ | ≈2 ms / equal / ResNet ≈185 ms |\n");
        md.push_str("| §VII hybrid | Docker-fast first response + K8s management | hybrid matches Docker first-request latency, K8s serves steady state |\n");
        md.push_str("| §IV-A2 hierarchy (extension) | farther edges more likely warm | warm far edge detour ≈3x faster than cloud detour |\n");
        md.push_str("| §VII prediction (extension) | on-demand + good prediction | oracle removes all holds; popularity only prevents re-deploy holds |\n");
        md.push_str("| §VIII serverless (extension) | wasm cold starts ≪ containers | ~100 ms wasm vs ~0.5 s Docker vs ~3 s K8s |\n");
        md.push_str(&cityscale_summary(&city));
        md.push_str(&mesh_summary(&mesh));
        md.push_str(&sched_summary(&sched));
        md.push_str(&workload_summary(&work));
        md.push('\n');
        for e in &experiments {
            let _ = write!(
                md,
                "## {} — {}\n\n```\n{}```\n",
                e.id,
                e.title,
                e.table.render()
            );
            for n in &e.notes {
                let _ = writeln!(md, "- {n}");
            }
            md.push('\n');
        }
        md.push_str(&sched_section(&sched));
        md.push('\n');
        md.push_str(&workload_section(&work));
        std::fs::write(&path, md).expect("write EXPERIMENTS.md");
        eprintln!("wrote {path}");
    }
}

/// A committed artifact, read through the harness.
fn committed(layout: &'static Layout, text: &str) -> Doc {
    layout
        .parse(text)
        .unwrap_or_else(|e| panic!("committed {e}"))
}

/// `lo–hi` of the values at `decimals` places, or one value when they agree.
fn span(values: impl IntoIterator<Item = f64>, decimals: usize) -> String {
    let (lo, hi) = values
        .into_iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        });
    let (lo, hi) = (format!("{lo:.decimals$}"), format!("{hi:.decimals$}"));
    if lo == hi {
        lo
    } else {
        format!("{lo}–{hi}")
    }
}

/// The distinct values `show` gives the rows, in row order.
fn distinct(rows: &[Row], show: impl Fn(&Row) -> String) -> Vec<String> {
    let mut seen = Vec::new();
    for v in rows.iter().map(show) {
        if !seen.contains(&v) {
            seen.push(v);
        }
    }
    seen
}

/// `{a, b, c}` of an integer column's distinct values.
fn set_of(rows: &[Row], col: &str) -> String {
    format!(
        "{{{}}}",
        distinct(rows, |r| r.int(col).to_string()).join(", ")
    )
}

fn ints<'r>(rows: impl IntoIterator<Item = &'r Row>, col: &str) -> Vec<f64> {
    rows.into_iter().map(|r| r.int(col) as f64).collect()
}

/// `n` with its thousands apart: `170 800`.
fn grouped(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, d) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(' ');
        }
        out.push(d);
    }
    out
}

fn pinned(hash: u64) -> &'static str {
    if hash == SEED_42_HASH {
        "="
    } else {
        "≠"
    }
}

fn cityscale_summary(doc: &Doc) -> String {
    let rows = doc.rows("scales");
    let tiers: Vec<String> = rows
        .iter()
        .rev()
        .take(2)
        .rev()
        .map(|r| {
            format!(
                "{}× ({} requests, {:.2} M events) replays in {:.2} s at {:.2} M events/s and {:.1} MiB peak live heap",
                r.int("scale"),
                grouped(r.int("requests")),
                r.int("events_scheduled") as f64 / 1e6,
                r.float("wall_s"),
                r.float("events_per_sec") / 1e6,
                r.float("peak_live_mib"),
            )
        })
        .collect();
    format!(
        "| cityscale (perf artifact) | — (not in paper) | bigFlows ×{}, one thread, best of 3 on a 2-core shared host: {}; {} allocations/request; metrics hash pinned at every tier — `bench --bin cityscale`, BENCH_cityscale.json |\n",
        set_of(rows, "scale"),
        tiers.join(", "),
        span(rows.iter().map(|r| r.float("allocs_per_request")), 1),
    )
}

fn mesh_summary(doc: &Doc) -> String {
    let rows = doc.rows("shards");
    let sharded: Vec<&Row> = rows.iter().filter(|r| r.int("shards") >= 2).collect();
    let sweep = doc.rows("threads_sweep");
    let one_shard = rows.iter().find(|r| r.int("shards") == 1);
    format!(
        "| mesh federation (extension) | — (title's \"Distributed\", not evaluated) | ingress sharded over {} controllers: {}/{} served at every count, {} deployments ({} split-brain duplicates, {} avoided by leases at N≥2), {} ms mean delta staleness at the default 500 µs link; 1-shard hash {} pinned cityscale hash; the {}× threads sweep (`host_cpus: {}`, single-shot rows) runs {} shards at {} M events/s, 2-thread speedup {} — `bench --bin mesh`, BENCH_mesh.json |\n",
        set_of(rows, "shards"),
        span(ints(rows, "completed"), 0),
        span(ints(rows, "requests"), 0),
        match span(ints(rows, "deployments"), 0) {
            one if !one.contains('–') => format!("exactly {one}"),
            range => range,
        },
        rows.iter().map(|r| r.int("duplicate_deployments")).sum::<u64>(),
        span(ints(sharded.iter().copied(), "duplicate_deployments_avoided"), 0),
        span(sharded.iter().map(|r| r.float("mean_staleness_ms")), 1),
        pinned(one_shard.map_or(0, |r| r.int("mesh_hash"))),
        doc.header.int("threads_sweep_scale"),
        doc.header.int("host_cpus"),
        distinct(sweep, |r| r.int("shards").to_string()).join("/"),
        span(sweep.iter().map(|r| r.float("events_per_sec") / 1e6), 2),
        span(sweep.iter().filter(|r| r.int("threads") == 2).map(|r| r.float("speedup")), 2),
    )
}

fn sched_summary(doc: &Doc) -> String {
    let rows = doc.rows("rows");
    let workloads = distinct(rows, |r| r.str("workload").to_string());
    let first = |r: &&Row| r.str("workload") == workloads[0];
    let spill = rows
        .iter()
        .filter(first)
        .find(|r| r.str("policy") == "tier-spill");
    let blind: Vec<&Row> = rows
        .iter()
        .filter(first)
        .filter(|r| r.str("policy") != "tier-spill")
        .collect();
    let bounded: Vec<String> = rows
        .iter()
        .filter(|r| r.str("policy") == "bounded-cost")
        .map(|r| r.int("deployments").to_string())
        .collect();
    let policies: BTreeSet<&str> = rows.iter().map(|r| r.str("policy")).collect();
    format!(
        "| scheduler ablation (extension) | — (Scheduler pluggable §IV-B, not evaluated) | {} policies × {{{}}} bigFlows on a capacity-constrained 3-tier continuum: tier-spill {:.1} ms mean / {} SLO misses vs {} ms / {} for the capacity-blind policies; bounded-cost crosses its ski-rental break-even only at 2× ({} deployments); {} capacity violations in every row; default-policy hash {} pinned cityscale hash — `bench --bin sched`, BENCH_sched.json |\n",
        policies.len(),
        workloads.iter().map(|w| w.replace("bigflows-", "").replace('x', "×")).collect::<Vec<_>>().join(", "),
        spill.map_or(f64::NAN, |r| r.float("mean_ms")),
        spill.map_or(0, |r| r.int("slo_violations")),
        span(blind.iter().map(|r| r.float("mean_ms")), 0),
        span(ints(blind.iter().copied(), "slo_violations"), 0),
        bounded.join(" → "),
        rows.iter().map(|r| r.int("capacity_violations")).sum::<u64>(),
        pinned(doc.header.int("baseline_hash")),
    )
}

fn workload_summary(doc: &Doc) -> String {
    let (models, mobility) = (doc.rows("models"), doc.rows("mobility"));
    let at = |model: &str, shards: u64| {
        models
            .iter()
            .find(|r| r.str("model") == model && r.int("shards") == shards)
    };
    let widest = models.iter().map(|r| r.int("shards")).max().unwrap_or(0);
    let avoided = |model| at(model, widest).map_or(0, |r| r.int("duplicate_deployments_avoided"));
    format!(
        "| workload ablation (extension) | — (one trace in the paper; mobility in §IV-A2 prose only) | {} arrival models × {} ingress shards, same 42-service mix: every row serves {}/{} with {} deployments and {} split-brain; flash-crowd forces peak lease contention ({} avoided at {} shards vs {} for bigFlows); audited mobility ({} handovers/client, {} total) completes every session with {} continuity violations and thread-invariant hashes; bigflows×1-shard {} pinned cityscale hash — `bench --bin workload`, BENCH_workload.json |\n",
        models.iter().map(|r| r.str("model")).collect::<BTreeSet<_>>().len(),
        set_of(models, "shards"),
        span(ints(models, "completed"), 0),
        span(ints(models, "requests"), 0),
        span(ints(models, "deployments"), 0),
        models.iter().chain(mobility).map(|r| r.int("duplicate_deployments")).sum::<u64>(),
        avoided("flash-crowd"),
        widest,
        avoided("bigflows"),
        doc.header.float("mobility_handovers_per_client"),
        span(ints(mobility, "handovers"), 0),
        mobility.iter().map(|r| r.int("continuity_violations")).sum::<u64>(),
        pinned(at("bigflows", 1).map_or(0, |r| r.int("hash"))),
    )
}

fn sched_section(doc: &Doc) -> String {
    let mut t = Table::new([
        "policy", "workload", "mean", "p95", "SLO miss", "deploys", "rejected",
    ]);
    for r in doc.rows("rows") {
        t.row([
            r.str("policy").to_string(),
            r.str("workload").to_string(),
            fmt_ms(r.float("mean_ms")),
            fmt_ms(r.float("p95_ms")),
            r.int("slo_violations").to_string(),
            r.int("deployments").to_string(),
            r.int("admission_rejections").to_string(),
        ]);
    }
    format!(
        "## Scheduler ablation — provisioning policies on a capacity-constrained continuum

Three Docker tiers, each with declared `SiteCapacity` (near edge 2 000 m /
10 replicas at 0.2 ms, metro EGS 8 000 m / 40 replicas at 2 ms, regional DC
64 000 m at 8 ms; cloud ≈40 ms behind the WAN), bigFlows at 1× and 2×,
SLO = {} ms `time_total` (cloud round trips and deployment-blocked first
requests miss it, edge-served requests meet it). Every row of
`BENCH_sched.json`:

```
{}```

- The paper's nearest-* policies are capacity-blind: they keep nominating
  the full near edge, admission rejects them (536 / 1763 times), and the
  overflow rides the cloud — the hierarchy's spare metro/regional capacity
  goes unused.
- `tier-spill` (arXiv:2312.11187) asks \"lowest-latency tier with room for
  the demand\" and deploys all 42 (84 at 2×) services across the tiers:
  25–35 ms means, ~97 % fewer SLO misses, zero rejections.
- `bounded-cost` (arXiv:2202.08903) rents the cloud until a service's
  accrued latency cost reaches the deploy cost (break-even ≈25 misses per
  service): at 1× no service crosses it (pure cloud, the rent-forever arm
  of ski-rental); at 2× the popular services buy their deployment
  (20 deploys) and mean drops 104 → 82 ms.
- `capacity_violations` is 0 in all 10 rows (the bench exits non-zero
  otherwise), and the default policy reproduces the pinned seed-42 hash —
  capacity awareness costs the paper scenarios nothing.
",
        doc.header.float("slo_ms"),
        t.render(),
    )
}

fn workload_section(doc: &Doc) -> String {
    let mut t = Table::new([
        "model",
        "shards",
        "completed",
        "deployments",
        "dup",
        "avoided",
        "handovers",
        "continuity",
    ]);
    let models = doc.rows("models").iter().map(|r| (r, String::new()));
    let mobile = doc
        .rows("mobility")
        .iter()
        .map(|r| (r, format!(" (mobile, t={})", r.int("threads"))));
    for (r, mode) in models.chain(mobile) {
        t.row([
            r.str("model").to_string(),
            format!("{}{mode}", r.int("shards")),
            format!("{}/{}", r.int("completed"), r.int("requests")),
            r.int("deployments").to_string(),
            r.int("duplicate_deployments").to_string(),
            r.int("duplicate_deployments_avoided").to_string(),
            r.int("handovers").to_string(),
            r.int("continuity_violations").to_string(),
        ]);
    }
    format!(
        "## Workload ablation — arrival models & client mobility on the sharded mesh

The same 42-service / 1708-request mix (Fig. 9 marginals, pinned) driven
by five arrival processes through the mesh at {} ingress shards,
plus audited mobility runs (2 handovers/client on 2 shards, threads 1 vs
2). Every row of `BENCH_workload.json`:

```
{}```

- Arrival shape never costs correctness: every model × shard row serves
  all 1708 requests with exactly 42 deployments and zero split-brain.
- Flash crowd is the lease protocol's stress case: concentrating 60 % of
  requests on one cold service in a 5 s spike across 4 shards triples the
  concurrent-PacketIn contention (16 duplicates avoided vs 5 for the
  paper trace) — and the protocol wins every race.
- Mobility (40 mid-session ingress handovers) completes every session
  exactly once — the continuity analysis (DESIGN.md §5k) reports zero
  blackholed and zero double-served sessions — and the threads=1 /
  threads=2 hashes are byte-identical per model.
- `bigflows` at 1 shard reproduces the pinned cityscale hash
  (`0x66cc06e4f4d26b1a`): the workload engine's default path is
  byte-for-byte the original trace generator.
",
        set_of(doc.rows("models"), "shards"),
        t.render(),
    )
}
