//! # yamlite — a minimal YAML subset for Kubernetes-style manifests
//!
//! The paper's controller consumes *Kubernetes Deployment* definition files and
//! auto-annotates them (unique names, `matchLabels`, the `edge.service` label,
//! `replicas: 0`, a generated `Service` object). The offline crate set has no
//! YAML implementation, so this crate provides the subset those files actually
//! use:
//!
//! * block mappings and block sequences with 2-space-style indentation
//!   (any consistent indentation is accepted),
//! * plain / single-quoted / double-quoted scalars with `null`/bool/int/float
//!   resolution per YAML core-schema conventions,
//! * `# comments` and blank lines,
//! * simple one-line flow collections (`[a, b]`, `{k: v}`),
//! * `---` document separators ([`parse_all`]),
//! * a block-style emitter whose output round-trips through the parser,
//! * dotted-path accessors ([`Yaml::at`] / [`Yaml::set_path`]) used by the
//!   annotation engine.
//!
//! Not supported (and not needed by the manifests in this workspace): anchors,
//! aliases, tags, block scalars (`|`/`>`), multi-line flow collections, and
//! complex (non-string) mapping keys.

mod emitter;
mod parser;
mod value;

pub use emitter::{to_string, to_string_all};
pub use parser::{parse, parse_all};
pub use value::Yaml;

#[cfg(test)]
mod roundtrip_tests {
    use super::*;

    #[test]
    fn parse_emit_parse_is_identity_on_k8s_style_doc() {
        let src = r#"
apiVersion: apps/v1
kind: Deployment
metadata:
  name: nginx-deployment
  labels:
    app: nginx
spec:
  replicas: 3
  selector:
    matchLabels:
      app: nginx
  template:
    metadata:
      labels:
        app: nginx
    spec:
      containers:
        - name: nginx
          image: nginx:1.23.2
          ports:
            - containerPort: 80
          env:
            - name: MODE
              value: "edge"
"#;
        let doc = parse(src).unwrap();
        let emitted = to_string(&doc);
        let reparsed = parse(&emitted).unwrap();
        assert_eq!(doc, reparsed, "emitted:\n{emitted}");
    }

    #[test]
    fn multi_document() {
        let src = "a: 1\n---\nb: 2\n";
        let docs = parse_all(src).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].at("a").and_then(Yaml::as_i64), Some(1));
        assert_eq!(docs[1].at("b").and_then(Yaml::as_i64), Some(2));
    }
}
