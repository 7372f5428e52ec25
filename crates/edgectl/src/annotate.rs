//! Automated annotation of service definition files (paper §V).
//!
//! Developers register an edge service with a *Kubernetes Deployment*-style
//! YAML file in which "the only mandatory data is the name of the image". The
//! controller then annotates it:
//!
//! 1. sets a **unique worldwide name** for the service,
//! 2. adds the `matchLabels` Kubernetes requires,
//! 3. adds an **`edge.service` label** so edge services can be addressed and
//!    queried distinctly,
//! 4. sets **`replicas: 0`** ("scale to zero") by default,
//! 5. writes the configured **Local Scheduler** into `schedulerName`,
//! 6. **generates a `Service` definition** (unique name, labels, exposed
//!    port, target port, TCP) unless the developer already included one.
//!
//! The same annotated definition drives both the Docker and the Kubernetes
//! backend; for Docker only a subset of the fields is interpreted, exactly as
//! in the paper's prototype. The output of this module is both the annotated
//! YAML documents and the backend-neutral [`ServiceTemplate`].

use cluster::{ContainerTemplate, DeploymentRequirements, ServiceTemplate};
use containers::ImageRef;
use simcore::DurationDist;
use yamlite::Yaml;

/// Label key the controller adds to address edge services distinctly.
pub const EDGE_SERVICE_LABEL: &str = "edge.service";
/// Optional annotation carrying the service's measured app-init median (ms);
/// used by the simulation to model readiness.
pub(crate) const APP_INIT_ANNOTATION: &str = "edge.service/app-init-ms";
/// Optional annotation: comma-separated site labels the service *requires*
/// (affinity); compiled into [`DeploymentRequirements::label_match_all`].
pub(crate) const AFFINITY_ANNOTATION: &str = "edge.service/affinity";
/// Optional annotation: comma-separated site labels the service *refuses*
/// (anti-affinity); compiled into [`DeploymentRequirements::label_match_none`].
pub(crate) const ANTI_AFFINITY_ANNOTATION: &str = "edge.service/anti-affinity";

/// Controller-side inputs to annotation.
#[derive(Debug, Clone)]
pub struct AnnotateOptions {
    /// The unique worldwide service name the platform assigns.
    pub service_name: String,
    /// The port the registered (cloud) service exposes.
    pub exposed_port: u16,
    /// Local Scheduler configured for the target cluster, if any
    /// (written into `spec.template.spec.schedulerName`).
    pub local_scheduler: Option<String>,
    /// Initial replica count; the paper's default is 0 ("scale to zero").
    pub replicas: i64,
}

impl AnnotateOptions {
    pub fn new(service_name: impl Into<String>, exposed_port: u16) -> AnnotateOptions {
        AnnotateOptions {
            service_name: service_name.into(),
            exposed_port,
            local_scheduler: None,
            replicas: 0,
        }
    }
}

/// The annotation result.
#[derive(Debug, Clone)]
pub struct AnnotatedService {
    /// The annotated Deployment document.
    pub deployment: Yaml,
    /// The (possibly generated) Service document.
    pub service: Yaml,
    /// Backend-neutral template compiled from the definition.
    pub template: ServiceTemplate,
}

/// Annotation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnotateError {
    /// No container image could be found in the definition.
    MissingImage,
    /// A structural element was present but of the wrong shape.
    BadStructure(String),
    /// A resource quantity (cpu/memory) failed to parse.
    BadQuantity(String),
}

impl std::fmt::Display for AnnotateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnnotateError::MissingImage => f.write_str("service definition contains no image"),
            AnnotateError::BadStructure(s) => write!(f, "bad structure: {s}"),
            AnnotateError::BadQuantity(s) => write!(f, "bad quantity: {s}"),
        }
    }
}
impl std::error::Error for AnnotateError {}

/// Annotate a multi-document service definition file (`---`-separated): the
/// Deployment is annotated as in [`annotate`]; if the developer already
/// included a `Service` document, it is kept (with the unique name and
/// `edge.service` selector enforced) instead of generating one — paper §V:
/// "unless the developer already included one in the YAML file".
pub fn annotate_documents(
    docs: &[Yaml],
    opts: &AnnotateOptions,
) -> Result<AnnotatedService, AnnotateError> {
    let mut deployment_doc = None;
    let mut service_doc = None;
    for doc in docs {
        match doc.get("kind").and_then(Yaml::as_str) {
            Some("Service") => service_doc = Some(doc.clone()),
            _ => deployment_doc = Some(doc.clone()),
        }
    }
    let deployment_doc = deployment_doc.ok_or(AnnotateError::MissingImage)?;
    let mut out = annotate(&deployment_doc, opts)?;
    if let Some(mut svc) = service_doc {
        // Enforce the platform-assigned identity on the user's Service.
        svc.set_path("metadata.name", Yaml::str(opts.service_name.clone()));
        let labels = ensure_map_at(&mut svc, "metadata.labels")?;
        labels.insert(EDGE_SERVICE_LABEL, Yaml::str(opts.service_name.clone()));
        let selector = ensure_map_at(&mut svc, "spec.selector")?;
        selector.insert(EDGE_SERVICE_LABEL, Yaml::str(opts.service_name.clone()));
        out.service = svc;
    }
    Ok(out)
}

/// Annotate a service definition (see module docs). `doc` may be
///
/// * a full or partial Deployment (`spec.template.spec.containers[...]`),
/// * or the minimal form: a mapping with just `image: <ref>`.
///
/// ```
/// use edgectl::{annotate, AnnotateOptions};
///
/// let doc = yamlite::parse("image: nginx:1.23.2").unwrap();
/// let out = annotate(&doc, &AnnotateOptions::new("edge-web-001", 80)).unwrap();
/// assert_eq!(out.deployment.at("spec.replicas"), Some(&yamlite::Yaml::Int(0)));
/// assert_eq!(out.service.get("kind").and_then(yamlite::Yaml::as_str), Some("Service"));
/// assert_eq!(out.template.name, "edge-web-001");
/// ```
pub fn annotate(doc: &Yaml, opts: &AnnotateOptions) -> Result<AnnotatedService, AnnotateError> {
    let mut deployment = normalize_deployment(doc, opts)?;

    // (1) unique worldwide name
    deployment.set_path("metadata.name", Yaml::str(opts.service_name.clone()));
    // (2)+(3) labels and matchLabels, including edge.service (a literal key
    // containing a dot — inserted directly, not via the dotted-path helper)
    for path in [
        "metadata.labels",
        "spec.selector.matchLabels",
        "spec.template.metadata.labels",
    ] {
        let labels = ensure_map_at(&mut deployment, path)?;
        labels.insert("app", Yaml::str(opts.service_name.clone()));
        labels.insert(EDGE_SERVICE_LABEL, Yaml::str(opts.service_name.clone()));
    }
    // (4) scale to zero
    deployment.set_path("spec.replicas", Yaml::Int(opts.replicas));
    // (5) local scheduler
    if let Some(ls) = &opts.local_scheduler {
        deployment.set_path("spec.template.spec.schedulerName", Yaml::str(ls.clone()));
    }

    let template = build_template(&deployment, opts)?;
    let service = generate_service(&template, opts)?;

    Ok(AnnotatedService {
        deployment,
        service,
        template,
    })
}

/// Navigate to a mapping at a dotted path of *simple* segments, creating
/// intermediate maps as needed. A scalar already sitting anywhere on the path
/// (e.g. `metadata: 3`) is a structural error in the user's document, not a
/// panic: it is reported via [`AnnotateError::BadStructure`] so malformed
/// definitions lint instead of crash.
fn ensure_map_at<'a>(doc: &'a mut Yaml, path: &str) -> Result<&'a mut Yaml, AnnotateError> {
    let mut cur = doc;
    let mut walked = String::new();
    for seg in path.split('.') {
        if !matches!(cur, Yaml::Map(_)) {
            return Err(AnnotateError::BadStructure(format!(
                "`{walked}` must be a mapping, got {}",
                cur.type_name()
            )));
        }
        if !walked.is_empty() {
            walked.push('.');
        }
        walked.push_str(seg);
        match cur.get(seg) {
            // `key:` with no value reads as null; treat it as an empty map.
            None | Some(Yaml::Null) => cur.insert(seg, Yaml::map()),
            Some(Yaml::Map(_)) => {}
            Some(other) => {
                return Err(AnnotateError::BadStructure(format!(
                    "`{walked}` must be a mapping, got {}",
                    other.type_name()
                )))
            }
        }
        cur = cur
            .get_mut(seg)
            .expect("segment exists: just checked or inserted");
    }
    Ok(cur)
}

/// Bring the user document into Deployment shape, synthesizing the scaffold
/// around a bare `image:` if needed.
fn normalize_deployment(doc: &Yaml, opts: &AnnotateOptions) -> Result<Yaml, AnnotateError> {
    let mut out = match doc {
        Yaml::Map(_) => doc.clone(),
        Yaml::Null => Yaml::map(),
        other => {
            return Err(AnnotateError::BadStructure(format!(
                "definition must be a mapping, got {}",
                other.type_name()
            )))
        }
    };
    if out.get("apiVersion").is_none() {
        out.insert("apiVersion", Yaml::str("apps/v1"));
    }
    if out.get("kind").is_none() {
        out.insert("kind", Yaml::str("Deployment"));
    }

    // Minimal form: `image: nginx:1.23.2` at top level.
    if let Some(img) = out.get("image").and_then(Yaml::as_str).map(str::to_string) {
        out.remove("image");
        let mut container = Yaml::map();
        container.insert("name", Yaml::str(opts.service_name.clone()));
        container.insert("image", Yaml::str(img));
        out.set_path("spec.template.spec.containers", Yaml::Seq(vec![container]));
    }

    let containers = out.at("spec.template.spec.containers");
    match containers {
        Some(Yaml::Seq(seq)) if !seq.is_empty() => {}
        Some(other) => {
            return Err(AnnotateError::BadStructure(format!(
                "spec.template.spec.containers must be a non-empty sequence, got {}",
                other.type_name()
            )))
        }
        None => return Err(AnnotateError::MissingImage),
    }

    // Give unnamed containers deterministic names derived from their image.
    let n = out
        .at("spec.template.spec.containers")
        .and_then(Yaml::as_seq)
        .ok_or_else(|| {
            AnnotateError::BadStructure("spec.template.spec.containers is not a sequence".into())
        })?
        .len();
    for i in 0..n {
        let base = format!("spec.template.spec.containers.{i}");
        let image = out
            .at(&format!("{base}.image"))
            .and_then(Yaml::as_str)
            .ok_or(AnnotateError::MissingImage)?
            .to_string();
        if out.at(&format!("{base}.name")).is_none() {
            let short = image
                .rsplit('/')
                .next()
                .unwrap_or(&image)
                .split(':')
                .next()
                .unwrap_or("container")
                .to_string();
            out.set_path(&format!("{base}.name"), Yaml::str(format!("{short}-{i}")));
        }
    }
    Ok(out)
}

/// Compile the deployment into the backend-neutral template.
fn build_template(
    deployment: &Yaml,
    opts: &AnnotateOptions,
) -> Result<ServiceTemplate, AnnotateError> {
    let containers_yaml = deployment
        .at("spec.template.spec.containers")
        .and_then(Yaml::as_seq)
        .ok_or_else(|| {
            AnnotateError::BadStructure("spec.template.spec.containers is not a sequence".into())
        })?;

    let annotations = deployment.at("metadata.annotations");
    let app_init_ms = annotations
        .and_then(|a| a.get(APP_INIT_ANNOTATION))
        .and_then(Yaml::as_f64);
    let requirements = DeploymentRequirements {
        label_match_all: parse_label_list(annotations, AFFINITY_ANNOTATION)?,
        label_match_none: parse_label_list(annotations, ANTI_AFFINITY_ANNOTATION)?,
    };

    let mut containers = Vec::with_capacity(containers_yaml.len());
    for c in containers_yaml {
        let image = c
            .get("image")
            .and_then(Yaml::as_str)
            .ok_or(AnnotateError::MissingImage)?;
        let name = c
            .get("name")
            .and_then(Yaml::as_str)
            .unwrap_or("container")
            .to_string();
        let cpu = match c.at("resources.requests.cpu") {
            Some(v) => parse_cpu_millis(v)?,
            None => 250,
        };
        let mem = match c.at("resources.requests.memory") {
            Some(v) => parse_mem_bytes(v)?,
            None => 128 << 20,
        };
        containers.push(ContainerTemplate {
            name,
            image: ImageRef::new(image),
            app_init: match app_init_ms {
                Some(ms) if ms > 0.0 => DurationDist::log_normal_ms(ms, 0.2),
                _ => DurationDist::log_normal_ms(100.0, 0.2),
            },
            cpu_millis: cpu,
            mem_bytes: mem,
        });
    }

    // Target port: the first container's first containerPort, else the
    // exposed port.
    let port = deployment
        .at("spec.template.spec.containers.0.ports.0.containerPort")
        .and_then(Yaml::as_i64)
        .map(|p| p as u16)
        .unwrap_or(opts.exposed_port);

    Ok(ServiceTemplate {
        name: opts.service_name.clone(),
        containers,
        port,
        scheduler_name: opts.local_scheduler.clone(),
        requirements,
    })
}

/// Read a comma-separated label list annotation; absent → empty. A non-string
/// value is a structural error (lint, don't crash).
fn parse_label_list(annotations: Option<&Yaml>, key: &str) -> Result<Vec<String>, AnnotateError> {
    match annotations.and_then(|a| a.get(key)) {
        None | Some(Yaml::Null) => Ok(Vec::new()),
        Some(Yaml::Str(s)) => Ok(s
            .split(',')
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(str::to_string)
            .collect()),
        Some(other) => Err(AnnotateError::BadStructure(format!(
            "`{key}` must be a comma-separated string, got {}",
            other.type_name()
        ))),
    }
}

/// Build the Kubernetes `Service` document the paper generates automatically.
fn generate_service(
    template: &ServiceTemplate,
    opts: &AnnotateOptions,
) -> Result<Yaml, AnnotateError> {
    let mut svc = Yaml::map();
    svc.insert("apiVersion", Yaml::str("v1"));
    svc.insert("kind", Yaml::str("Service"));
    svc.set_path("metadata.name", Yaml::str(opts.service_name.clone()));
    let labels = ensure_map_at(&mut svc, "metadata.labels")?;
    labels.insert("app", Yaml::str(opts.service_name.clone()));
    labels.insert(EDGE_SERVICE_LABEL, Yaml::str(opts.service_name.clone()));
    let selector = ensure_map_at(&mut svc, "spec.selector")?;
    selector.insert(EDGE_SERVICE_LABEL, Yaml::str(opts.service_name.clone()));
    let mut port = Yaml::map();
    port.insert("port", Yaml::Int(opts.exposed_port as i64));
    port.insert("targetPort", Yaml::Int(template.port as i64));
    port.insert("protocol", Yaml::str("TCP"));
    svc.set_path("spec.ports", Yaml::Seq(vec![port]));
    Ok(svc)
}

/// Parse a Kubernetes CPU quantity: `"250m"` → 250 milli-cores, `1` / `"2"` →
/// whole cores.
fn parse_cpu_millis(v: &Yaml) -> Result<u32, AnnotateError> {
    match v {
        Yaml::Int(cores) if *cores >= 0 => Ok((*cores as u32) * 1000),
        Yaml::Float(cores) if *cores >= 0.0 => Ok((cores * 1000.0).round() as u32),
        Yaml::Str(s) => {
            if let Some(m) = s.strip_suffix('m') {
                m.parse::<u32>()
                    .map_err(|_| AnnotateError::BadQuantity(s.clone()))
            } else {
                s.parse::<f64>()
                    .map(|c| (c * 1000.0).round() as u32)
                    .map_err(|_| AnnotateError::BadQuantity(s.clone()))
            }
        }
        other => Err(AnnotateError::BadQuantity(format!("{other:?}"))),
    }
}

/// Parse a Kubernetes memory quantity: `"128Mi"`, `"1Gi"`, `"512Ki"`, or raw
/// bytes.
fn parse_mem_bytes(v: &Yaml) -> Result<u64, AnnotateError> {
    match v {
        Yaml::Int(bytes) if *bytes >= 0 => Ok(*bytes as u64),
        Yaml::Str(s) => {
            let (num, mult) = if let Some(n) = s.strip_suffix("Gi") {
                (n, 1u64 << 30)
            } else if let Some(n) = s.strip_suffix("Mi") {
                (n, 1 << 20)
            } else if let Some(n) = s.strip_suffix("Ki") {
                (n, 1 << 10)
            } else {
                (s.as_str(), 1)
            };
            num.trim()
                .parse::<u64>()
                .map(|n| n * mult)
                .map_err(|_| AnnotateError::BadQuantity(s.clone()))
        }
        other => Err(AnnotateError::BadQuantity(format!("{other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yamlite::parse;

    fn opts() -> AnnotateOptions {
        AnnotateOptions::new("edge-nginx-web-001", 80)
    }

    #[test]
    fn minimal_image_only_definition() {
        let doc = parse("image: nginx:1.23.2\n").unwrap();
        let out = annotate(&doc, &opts()).unwrap();
        assert_eq!(
            out.deployment.at("metadata.name").and_then(Yaml::as_str),
            Some("edge-nginx-web-001")
        );
        assert_eq!(
            out.deployment
                .at("spec.template.spec.containers.0.image")
                .and_then(Yaml::as_str),
            Some("nginx:1.23.2")
        );
        assert_eq!(out.template.containers.len(), 1);
        assert_eq!(out.template.port, 80);
    }

    #[test]
    fn sets_unique_name_and_all_labels() {
        let doc = parse("image: nginx:1.23.2\n").unwrap();
        let out = annotate(&doc, &opts()).unwrap();
        for path in [
            "metadata.labels",
            "spec.selector.matchLabels",
            "spec.template.metadata.labels",
        ] {
            let labels = out.deployment.at(path).expect(path);
            assert_eq!(
                labels.get("app").and_then(Yaml::as_str),
                Some("edge-nginx-web-001")
            );
            assert_eq!(
                labels.get(EDGE_SERVICE_LABEL).and_then(Yaml::as_str),
                Some("edge-nginx-web-001"),
                "edge.service label at {path}"
            );
        }
    }

    #[test]
    fn scale_to_zero_by_default() {
        let doc = parse("image: nginx:1.23.2\nspec:\n  replicas: 5\n").unwrap();
        let out = annotate(&doc, &opts()).unwrap();
        assert_eq!(out.deployment.at("spec.replicas"), Some(&Yaml::Int(0)));
    }

    #[test]
    fn local_scheduler_written_when_configured() {
        let doc = parse("image: nginx:1.23.2\n").unwrap();
        let mut o = opts();
        o.local_scheduler = Some("edge-matching-scheduler".into());
        let out = annotate(&doc, &o).unwrap();
        assert_eq!(
            out.deployment
                .at("spec.template.spec.schedulerName")
                .and_then(Yaml::as_str),
            Some("edge-matching-scheduler")
        );
        // absent when not configured
        let out2 = annotate(&doc, &opts()).unwrap();
        assert!(out2
            .deployment
            .at("spec.template.spec.schedulerName")
            .is_none());
    }

    #[test]
    fn generated_service_has_ports_and_selector() {
        let doc = parse(
            "spec:\n  template:\n    spec:\n      containers:\n        - image: nginx:1.23.2\n          ports:\n            - containerPort: 8080\n",
        )
        .unwrap();
        let out = annotate(&doc, &opts()).unwrap();
        assert_eq!(
            out.service.get("kind").and_then(Yaml::as_str),
            Some("Service")
        );
        assert_eq!(out.service.at("spec.ports.0.port"), Some(&Yaml::Int(80)));
        assert_eq!(
            out.service.at("spec.ports.0.targetPort"),
            Some(&Yaml::Int(8080))
        );
        assert_eq!(
            out.service
                .at("spec.ports.0.protocol")
                .and_then(Yaml::as_str),
            Some("TCP")
        );
        assert_eq!(
            out.service
                .at("spec.selector")
                .and_then(|s| s.get(EDGE_SERVICE_LABEL))
                .and_then(Yaml::as_str),
            Some("edge-nginx-web-001")
        );
        assert_eq!(out.template.port, 8080);
    }

    #[test]
    fn full_deployment_preserved_and_annotated() {
        let src = r#"
apiVersion: apps/v1
kind: Deployment
metadata:
  name: will-be-replaced
spec:
  template:
    spec:
      containers:
        - name: web
          image: nginx:1.23.2
          resources:
            requests:
              cpu: 500m
              memory: 256Mi
          volumeMounts:
            - mountPath: /usr/share/nginx/html
              name: html
      volumes:
        - name: html
          hostPath:
            path: /srv/html
"#;
        let doc = parse(src).unwrap();
        let out = annotate(&doc, &opts()).unwrap();
        // user content preserved
        assert_eq!(
            out.deployment
                .at("spec.template.spec.volumes.0.hostPath.path")
                .and_then(Yaml::as_str),
            Some("/srv/html")
        );
        // name replaced with the unique one
        assert_eq!(
            out.deployment.at("metadata.name").and_then(Yaml::as_str),
            Some("edge-nginx-web-001")
        );
        // resources parsed into the template
        assert_eq!(out.template.containers[0].cpu_millis, 500);
        assert_eq!(out.template.containers[0].mem_bytes, 256 << 20);
        assert_eq!(out.template.containers[0].name, "web");
    }

    #[test]
    fn two_container_definition() {
        let src = r#"
spec:
  template:
    spec:
      containers:
        - image: nginx:1.23.2
        - image: josefhammer/env-writer-py
"#;
        let out = annotate(&parse(src).unwrap(), &opts()).unwrap();
        assert_eq!(out.template.containers.len(), 2);
        // auto-named from their images
        assert_eq!(out.template.containers[0].name, "nginx-0");
        assert_eq!(out.template.containers[1].name, "env-writer-py-1");
    }

    #[test]
    fn app_init_annotation_respected() {
        let src = format!(
            "image: slow/app:1\nmetadata:\n  annotations:\n    {APP_INIT_ANNOTATION}: 2300\n"
        );
        let out = annotate(&parse(&src).unwrap(), &opts()).unwrap();
        let mean = out.template.containers[0].app_init.0.mean().unwrap();
        assert!(mean > 2000.0, "annotation median 2300 ms, mean={mean}");
    }

    #[test]
    fn affinity_annotations_compile_into_requirements() {
        let src = format!(
            "image: nginx:1.23.2\nmetadata:\n  annotations:\n    {AFFINITY_ANNOTATION}: \"gpu, zone-a\"\n    {ANTI_AFFINITY_ANNOTATION}: far-edge\n"
        );
        let out = annotate(&parse(&src).unwrap(), &opts()).unwrap();
        assert_eq!(
            out.template.requirements.label_match_all,
            vec!["gpu", "zone-a"]
        );
        assert_eq!(out.template.requirements.label_match_none, vec!["far-edge"]);
        // absent annotations → no constraints
        let plain = annotate(&parse("image: nginx:1.23.2\n").unwrap(), &opts()).unwrap();
        assert_eq!(plain.template.requirements, DeploymentRequirements::none());
        // a non-string value lints
        let bad = format!("image: nginx:1.23.2\nmetadata:\n  annotations:\n    {AFFINITY_ANNOTATION}:\n      - gpu\n");
        assert!(matches!(
            annotate(&parse(&bad).unwrap(), &opts()).unwrap_err(),
            AnnotateError::BadStructure(_)
        ));
    }

    #[test]
    fn missing_image_rejected() {
        assert_eq!(
            annotate(&parse("").unwrap(), &opts()).unwrap_err(),
            AnnotateError::MissingImage
        );
        let doc = parse("spec:\n  template:\n    spec:\n      containers: []\n").unwrap();
        assert!(matches!(
            annotate(&doc, &opts()).unwrap_err(),
            AnnotateError::BadStructure(_)
        ));
    }

    #[test]
    fn scalar_document_rejected() {
        assert!(matches!(
            annotate(&Yaml::Int(3), &opts()).unwrap_err(),
            AnnotateError::BadStructure(_)
        ));
    }

    #[test]
    fn scalar_on_label_path_errors_instead_of_panicking() {
        // `metadata: 3` used to panic inside ensure_map_at; it must lint.
        let doc = parse("image: nginx:1.23.2\nmetadata: 3\n").unwrap();
        let err = annotate(&doc, &opts()).unwrap_err();
        match err {
            AnnotateError::BadStructure(msg) => {
                assert!(msg.contains("metadata"), "{msg}");
                assert!(msg.contains("int"), "{msg}");
            }
            other => panic!("expected BadStructure, got {other:?}"),
        }
        // a scalar one level deeper (the final path element) as well
        let doc = parse("image: nginx:1.23.2\nmetadata:\n  labels: oops\n").unwrap();
        assert!(matches!(
            annotate(&doc, &opts()).unwrap_err(),
            AnnotateError::BadStructure(_)
        ));
    }

    #[test]
    fn null_intermediate_becomes_map() {
        // `metadata:` with no value is null, not an error — it reads as an
        // empty mapping like kubectl treats it.
        let doc = parse("image: nginx:1.23.2\nmetadata:\n").unwrap();
        let out = annotate(&doc, &opts()).unwrap();
        assert_eq!(
            out.deployment
                .at("metadata.labels")
                .and_then(|l| l.get(EDGE_SERVICE_LABEL))
                .and_then(Yaml::as_str),
            Some("edge-nginx-web-001")
        );
    }

    #[test]
    fn scalar_metadata_in_user_service_errors_instead_of_panicking() {
        let docs = yamlite::parse_all("image: nginx:1.23.2\n---\nkind: Service\nmetadata: nope\n")
            .unwrap();
        assert!(matches!(
            annotate_documents(&docs, &opts()).unwrap_err(),
            AnnotateError::BadStructure(_)
        ));
    }

    #[test]
    fn quantities_parse() {
        assert_eq!(parse_cpu_millis(&Yaml::str("250m")).unwrap(), 250);
        assert_eq!(parse_cpu_millis(&Yaml::str("2")).unwrap(), 2000);
        assert_eq!(parse_cpu_millis(&Yaml::Int(1)).unwrap(), 1000);
        assert_eq!(parse_cpu_millis(&Yaml::Float(0.5)).unwrap(), 500);
        assert!(parse_cpu_millis(&Yaml::str("abc")).is_err());

        assert_eq!(parse_mem_bytes(&Yaml::str("128Mi")).unwrap(), 128 << 20);
        assert_eq!(parse_mem_bytes(&Yaml::str("2Gi")).unwrap(), 2 << 30);
        assert_eq!(parse_mem_bytes(&Yaml::str("512Ki")).unwrap(), 512 << 10);
        assert_eq!(parse_mem_bytes(&Yaml::Int(4096)).unwrap(), 4096);
        assert!(parse_mem_bytes(&Yaml::str("lots")).is_err());
    }

    #[test]
    fn multi_document_keeps_user_service() {
        let docs = yamlite::parse_all(
            "image: nginx:1.23.2\n---\nkind: Service\nspec:\n  ports:\n    - port: 8443\n      targetPort: 443\n",
        )
        .unwrap();
        let out = annotate_documents(&docs, &opts()).unwrap();
        // the user's port mapping survives…
        assert_eq!(out.service.at("spec.ports.0.port"), Some(&Yaml::Int(8443)));
        // …but identity is enforced
        assert_eq!(
            out.service.at("metadata.name").and_then(Yaml::as_str),
            Some("edge-nginx-web-001")
        );
        assert_eq!(
            out.service
                .at("spec.selector")
                .and_then(|s| s.get(EDGE_SERVICE_LABEL))
                .and_then(Yaml::as_str),
            Some("edge-nginx-web-001")
        );
    }

    #[test]
    fn multi_document_without_service_generates_one() {
        let docs = yamlite::parse_all("image: nginx:1.23.2\n").unwrap();
        let out = annotate_documents(&docs, &opts()).unwrap();
        assert_eq!(
            out.service.get("kind").and_then(Yaml::as_str),
            Some("Service")
        );
        assert_eq!(out.service.at("spec.ports.0.port"), Some(&Yaml::Int(80)));
    }

    #[test]
    fn multi_document_service_only_is_an_error() {
        let docs = yamlite::parse_all("kind: Service\n").unwrap();
        assert_eq!(
            annotate_documents(&docs, &opts()).unwrap_err(),
            AnnotateError::MissingImage
        );
    }

    #[test]
    fn annotated_yaml_roundtrips_through_emitter() {
        let doc = parse("image: nginx:1.23.2\n").unwrap();
        let out = annotate(&doc, &opts()).unwrap();
        let dep_text = yamlite::to_string(&out.deployment);
        let svc_text = yamlite::to_string(&out.service);
        assert_eq!(parse(&dep_text).unwrap(), out.deployment);
        assert_eq!(parse(&svc_text).unwrap(), out.service);
    }
}
