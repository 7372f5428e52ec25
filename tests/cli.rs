//! Integration tests of the `edgesim` binary itself (spawned as a real
//! process, like a downstream user would run it).

use std::io::Write;
use std::process::Command;

fn edgesim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_edgesim"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("transparent-edge-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

#[test]
fn help_prints_usage() {
    let out = edgesim().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("edgesim run"), "{text}");
}

#[test]
fn unknown_command_fails() {
    let out = edgesim().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn trace_command_reports_paper_marginals() {
    let out = edgesim().args(["trace", "--seed", "2"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1708 requests to 42 services"), "{text}");
}

#[test]
fn run_command_with_scenario_file() {
    let scenario = write_temp("scenario.yaml", "seed: 3\nservice: Nginx\nphase: created\n");
    let out = edgesim().arg("run").arg(&scenario).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("requests: 1708 (0 lost)"), "{text}");
    assert!(text.contains("deployments: 42"), "{text}");
}

#[test]
fn run_command_rejects_bad_scenario() {
    let scenario = write_temp("bad.yaml", "sevice: Nginx\n");
    let out = edgesim().arg("run").arg(&scenario).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown scenario key"), "{err}");
}

#[test]
fn run_command_rejects_hostile_timeouts_and_seed_flows() {
    // Each of these used to run: a zero switch idle timeout lost every
    // request and exited 0, a zero memory idle timeout and an output port
    // past the switch's last panicked mid-run.
    for (name, yaml, key) in [
        (
            "zero-switch-idle.yaml",
            "seed: 3\ncontroller:\n  switch_idle_timeout_s: 0\n",
            "switch_idle_timeout_s",
        ),
        (
            "zero-memory-idle.yaml",
            "seed: 3\ncontroller:\n  memory_idle_timeout_s: 0\n",
            "memory_idle_timeout_s",
        ),
        (
            "negative-seed-idle.yaml",
            "seed: 3\nseed_flows:\n  - actions: [drop]\n    idle_s: -1\n",
            "idle_s",
        ),
        (
            "far-output.yaml",
            "seed: 3\nseed_flows:\n  - actions: [\"output:999\"]\n",
            "output:999",
        ),
    ] {
        let scenario = write_temp(name, yaml);
        let out = edgesim().arg("run").arg(&scenario).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(err.contains(key), "{name}: {err}");
        assert!(!err.contains("panicked"), "{name}: {err}");
    }
}

#[test]
fn run_command_with_csv_trace() {
    let scenario = write_temp("s2.yaml", "seed: 1\n");
    let trace = write_temp(
        "t.csv",
        "time_s,service,client\n0.5,0,0\n1.0,0,1\n2.0,1,2\n",
    );
    let out = edgesim()
        .arg("run")
        .arg(&scenario)
        .arg("--trace")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("requests: 3 (0 lost)"), "{text}");
}

#[test]
fn annotate_command_emits_two_documents() {
    let svc = write_temp("svc.yaml", "image: nginx:1.23.2\n");
    let out = edgesim()
        .arg("annotate")
        .arg(&svc)
        .args(["--name", "edge-web", "--port", "80"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("kind: Deployment"), "{text}");
    assert!(text.contains("kind: Service"), "{text}");
    assert!(text.contains("edge.service: edge-web"), "{text}");
    assert!(text.contains("replicas: 0"), "{text}");
    // the output is itself a valid two-document stream
    let docs = yamlite::parse_all(&text).unwrap();
    assert_eq!(docs.len(), 2);
}

#[test]
fn annotate_requires_name_and_port() {
    let svc = write_temp("svc2.yaml", "image: nginx:1.23.2\n");
    let out = edgesim().arg("annotate").arg(&svc).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn fabric_command_runs() {
    let out = edgesim().args(["fabric", "--no-roam"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("deployments per site"), "{text}");
}

#[test]
fn fabric_rejects_fewer_than_two_switches() {
    for switches in ["0", "1"] {
        let out = edgesim()
            .args(["fabric", "--switches", switches])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(err.contains("at least 2 switches"), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn first_request_breakdown() {
    let scenario = write_temp("s3.yaml", "seed: 4\nphase: cold\n");
    let out = edgesim()
        .arg("first-request")
        .arg(&scenario)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("time_total:"), "{text}");
    assert!(text.contains("pull:"), "{text}");
    assert!(text.contains("scale-up:"), "{text}");
}

#[test]
fn annotate_with_custom_scheduler_flag() {
    let svc = write_temp("svc3.yaml", "image: nginx:1.23.2\n");
    let out = edgesim()
        .arg("annotate")
        .arg(&svc)
        .args([
            "--name",
            "edge-web",
            "--port",
            "80",
            "--scheduler",
            "edge-matcher",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("schedulerName: edge-matcher"), "{text}");
}

#[test]
fn run_hierarchical_scenario_from_yaml() {
    let scenario = write_temp(
        "hier.yaml",
        "seed: 5\nscheduler: without-waiting\nsites:\n  - name: near\n    class: pi\n    latency_ms: 0.3\n    nodes: 8\n    backend: docker\n  - name: far\n    class: egs\n    latency_ms: 8\n    backend: docker\nphase: running\nprewarm_sites: [1]\n",
    );
    let out = edgesim().arg("run").arg(&scenario).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("cloud: 0"),
        "warm far edge absorbs detours: {text}"
    );
    assert!(text.contains("retargets:"), "{text}");
}

#[test]
fn verify_clean_scenario_exits_zero() {
    let scenario = write_temp(
        "verify-clean.yaml",
        "seed: 3\nservice: Nginx\nphase: created\n",
    );
    let out = edgesim().arg("verify").arg(&scenario).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("flow installs checked"), "{text}");
    assert!(text.contains("clean"), "{text}");
}

#[test]
fn verify_seeded_shadowed_rule_exits_nonzero_and_names_the_rule() {
    // The /16 punt at priority 50 fully covers the priority-40 exact match:
    // the second pre-provisioned rule can never fire.
    let scenario = write_temp(
        "verify-shadowed.yaml",
        "seed: 3\nphase: created\nseed_flows:\n  - priority: 50\n    match:\n      dst_net: 93.184.0.0/16\n    actions: [to-controller]\n  - priority: 40\n    match:\n      protocol: tcp\n      dst_ip: 93.184.0.1\n      dst_port: 80\n    actions: [to-controller]\n",
    );
    let out = edgesim().arg("verify").arg(&scenario).output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("violation: shadowed:"), "{text}");
    assert!(text.contains("flow #"), "{text}");
}

#[test]
fn verify_service_definition_clean_and_broken() {
    let svc = write_temp("verify-svc.yaml", "image: nginx:1.23.2\n");
    let out = edgesim().arg("verify").arg(&svc).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));

    // An already-annotated Deployment pinning replicas to 3 violates the
    // scale-to-zero lint (and is linted as-is, not silently re-annotated).
    let bad = write_temp(
        "verify-svc-bad.yaml",
        "kind: Deployment\nmetadata:\n  name: edge-web\n  labels:\n    edge.service: edge-web\nspec:\n  replicas: 3\n  selector:\n    matchLabels:\n      edge.service: edge-web\n  template:\n    metadata:\n      labels:\n        edge.service: edge-web\n    spec:\n      containers:\n        - image: nginx:1.23.2\n",
    );
    let out = edgesim().arg("verify").arg(&bad).output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("violation: lint:"), "{text}");
    assert!(text.contains("spec.replicas"), "{text}");
}
