//! Quickstart: register an edge service from a Kubernetes-style YAML
//! definition, run the simulated C³ testbed, and watch the first request
//! trigger an on-demand deployment.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use edgectl::{annotate, AnnotateOptions};
use simnet::{IpAddr, SocketAddr};
use testbed::{PhaseSetup, ScenarioConfig, Testbed};

fn main() {
    // 1. A developer writes a minimal service definition — "the only
    //    mandatory data is the name of the image" (paper §V).
    let definition = "image: nginx:1.23.2\n";
    let doc = yamlite::parse(definition).expect("valid YAML");

    // 2. The platform annotates it: unique name, matchLabels, edge.service
    //    label, replicas: 0, and a generated Service object.
    let opts = AnnotateOptions::new("edge-nginx-web-000", 80);
    let annotated = annotate(&doc, &opts).expect("annotation succeeds");
    println!("--- annotated Deployment ---");
    println!("{}", yamlite::to_string(&annotated.deployment));
    println!("--- generated Service ---");
    println!("{}", yamlite::to_string(&annotated.service));

    // 3. Build the simulated testbed (EGS + OVS + 20 Raspberry Pi clients)
    //    with a Docker backend; nothing is deployed yet (Cold setup means
    //    the first request pays Pull + Create + Scale-Up).
    let cloud_addr: SocketAddr = SocketAddr::new(IpAddr::new(93, 184, 0, 1), 80);
    let cfg = ScenarioConfig::default()
        .with_phase(PhaseSetup::Cold)
        .with_seed(42);
    let testbed = Testbed::build(cfg, vec![cloud_addr]);

    // 4. One client sends one request to the *cloud* address. The switch has
    //    no flow, the controller deploys on demand, the request waits.
    let result = testbed.run_single_request();
    let record = &result.records[0];
    println!("--- first request (client-perceived, timecurl semantics) ---");
    println!("time_total: {}", record.time_total());
    println!("triggered deployment: {}", record.triggered_deployment);

    let dep = &result.deployments[0];
    if let Some((a, b)) = dep.pull {
        println!("  Pull:      {}", b - a);
    }
    if let Some((a, b)) = dep.create {
        println!("  Create:    {}", b - a);
    }
    if let Some((issue, accepted, _)) = dep.scale_up {
        println!("  Scale-Up:  {} (API)", accepted - issue);
    }
    println!("  Wait:      {} (port polling)", dep.wait_time());
    println!("  Total:     {} from trigger to ready", dep.total());
    println!();
    println!(
        "With the image cached, the same service starts in well under a second on \
         Docker — run `cargo run -p bench --bin all_experiments -- --only fig11` to sweep all four paper services."
    );
}
