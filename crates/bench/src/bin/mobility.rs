//! Client mobility across a distributed multi-switch fabric (paper §IV-B's
//! location tracking + the Follow-Me-Edge related work \[12\], \[13\]).
//!
//! Half the clients roam from switch 0 to the far switch mid-run. With
//! Follow-Me-Edge re-decisions, their flows move to the site local to the new
//! switch; without it they would hairpin across the trunk for the rest of
//! the run.
//!
//! Gate: every request of every row is served; a lost request exits 1 after
//! the table is printed.

use bench::report::{fmt_ms, Table};
use simcore::SimDuration;
use testbed::{run_mobility, FabricConfig};

fn main() {
    let mut lost = 0;
    let mut t = Table::new([
        "scenario",
        "requests",
        "deployments/site",
        "median before roam",
        "median after roam",
    ]);
    for (name, cfg) in [
        (
            "no roaming",
            FabricConfig {
                roam_at: None,
                seed: 3,
                ..FabricConfig::default()
            },
        ),
        (
            "roam at t=60 s (2 switches)",
            FabricConfig {
                seed: 3,
                ..FabricConfig::default()
            },
        ),
        (
            "roam at t=60 s (3-switch chain)",
            FabricConfig {
                switches: 3,
                seed: 3,
                roam_at: Some(SimDuration::from_secs(60)),
                ..FabricConfig::default()
            },
        ),
    ] {
        let r = run_mobility(cfg);
        lost += r.lost;
        t.row([
            name.to_string(),
            format!("{} ({} lost)", r.records.len(), r.lost),
            format!("{:?}", r.deployments_per_site),
            fmt_ms(r.median_before_ms),
            fmt_ms(r.median_after_ms),
        ]);
    }
    println!("== Mobility across a distributed switch fabric ==\n");
    println!("{}", t.render());
    println!(
        "  * After the roam, the Dispatcher sees the clients behind the far switch and\n    Follow-Me-Edge re-decisions keep them on the local site — post-roam medians\n    stay at local-edge latency instead of paying trunk hairpins."
    );
    if lost > 0 {
        eprintln!("gate failed: {lost} requests lost");
        std::process::exit(1);
    }
}
