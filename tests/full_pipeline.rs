//! Cross-crate integration: a YAML service definition travels the whole
//! pipeline — parse → annotate → register → on-demand deploy → measured
//! client request — across both backends.

use transparent_edge::*;

use cluster::ClusterKind;
use edgectl::{annotate, AnnotateOptions};
use simnet::{IpAddr, SocketAddr};
use testbed::{PhaseSetup, ScenarioConfig, Testbed};

#[test]
fn yaml_definition_to_served_request() {
    // Definition with explicit resources and a container port.
    let src = r#"
spec:
  template:
    spec:
      containers:
        - name: web
          image: nginx:1.23.2
          ports:
            - containerPort: 80
          resources:
            requests:
              cpu: 250m
              memory: 128Mi
"#;
    let doc = yamlite::parse(src).unwrap();
    let annotated = annotate(&doc, &AnnotateOptions::new("edge-nginx-it", 80)).unwrap();
    assert_eq!(annotated.template.name, "edge-nginx-it");
    assert_eq!(annotated.template.port, 80);

    // Run it through a testbed manually: build with one address, then
    // verify the first request deploys and completes.
    let addr = SocketAddr::new(IpAddr::new(93, 184, 0, 7), 80);
    let cfg = ScenarioConfig::default()
        .with_phase(PhaseSetup::ImagesCached)
        .with_seed(99);
    let testbed = Testbed::build(cfg, vec![addr]);
    let result = testbed.run_single_request();
    assert_eq!(result.records.len(), 1);
    assert_eq!(result.deployments.len(), 1);
    let dep = &result.deployments[0];
    assert!(dep.pull.is_none(), "images pre-cached");
    assert!(dep.create.is_some());
    assert!(dep.scale_up.is_some());
}

#[test]
fn annotated_yaml_survives_emit_parse_annotate_again() {
    // Annotation must be idempotent through serialization: emit the
    // annotated deployment, parse it back, annotate again with the same
    // options — nothing changes.
    let doc = yamlite::parse("image: nginx:1.23.2\n").unwrap();
    let opts = AnnotateOptions::new("edge-idem", 80);
    let once = annotate(&doc, &opts).unwrap();
    let text = yamlite::to_string(&once.deployment);
    let reparsed = yamlite::parse(&text).unwrap();
    let twice = annotate(&reparsed, &opts).unwrap();
    assert_eq!(once.deployment, twice.deployment);
    assert_eq!(once.service, twice.service);
}

#[test]
fn same_definition_deploys_on_both_backends() {
    for backend in [ClusterKind::Docker, ClusterKind::Kubernetes] {
        let addr = SocketAddr::new(IpAddr::new(93, 184, 0, 8), 80);
        let cfg = ScenarioConfig::default()
            .with_backend(backend)
            .with_phase(PhaseSetup::ImagesCached)
            .with_seed(5);
        let testbed = Testbed::build(cfg, vec![addr]);
        let result = testbed.run_single_request();
        assert_eq!(result.records.len(), 1, "{backend}: request answered");
        assert_eq!(result.deployments.len(), 1, "{backend}: one deployment");
        assert_eq!(result.lost, 0, "{backend}: nothing lost");
    }
}

#[test]
fn deployment_totals_ordered_docker_faster_than_k8s() {
    let run = |backend| {
        let addr = SocketAddr::new(IpAddr::new(93, 184, 0, 9), 80);
        let cfg = ScenarioConfig::default()
            .with_backend(backend)
            .with_phase(PhaseSetup::Created)
            .with_seed(11);
        let result = Testbed::build(cfg, vec![addr]).run_single_request();
        result.records.get(0).unwrap().time_total()
    };
    let docker = run(ClusterKind::Docker);
    let k8s = run(ClusterKind::Kubernetes);
    assert!(
        k8s > docker * 3,
        "K8s ({k8s}) must be several times slower than Docker ({docker})"
    );
}

#[test]
fn workspace_reexports_compile_and_link() {
    // The umbrella crate exposes every subsystem.
    let _ = simcore::SimTime::ZERO;
    let _ = simnet::IpAddr::new(1, 2, 3, 4);
    let _ = containers::ImageRef::new("x");
    let _ = registry::RegistryProfile::private_lan();
    let _ = workload::ServiceKind::Nginx;
    let _ = yamlite::parse("a: 1").unwrap();
}
