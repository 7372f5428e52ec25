//! The YAML value tree.

use std::fmt;

/// A parsed YAML value.
///
/// Mappings preserve insertion order (Kubernetes manifests are written for
/// humans; reordering keys on every annotation pass would produce noisy diffs),
/// and keys are plain strings — the only key type the supported subset allows.
#[derive(Debug, Clone, PartialEq)]
pub enum Yaml {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Seq(Vec<Yaml>),
    /// Insertion-ordered mapping.
    Map(Vec<(String, Yaml)>),
}

impl Yaml {
    /// An empty mapping.
    pub fn map() -> Yaml {
        Yaml::Map(Vec::new())
    }

    pub fn str(s: impl Into<String>) -> Yaml {
        Yaml::Str(s.into())
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Yaml::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Yaml::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Yaml::Float(f) => Some(*f),
            Yaml::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Yaml::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_seq(&self) -> Option<&[Yaml]> {
        match self {
            Yaml::Seq(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_map(&self) -> Option<&[(String, Yaml)]> {
        match self {
            Yaml::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Look up a key in a mapping.
    pub fn get(&self, key: &str) -> Option<&Yaml> {
        match self {
            Yaml::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn get_mut(&mut self, key: &str) -> Option<&mut Yaml> {
        match self {
            Yaml::Map(m) => m.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Insert or replace `key` in a mapping. Panics if `self` is not a map —
    /// caller bugs should fail loudly during manifest manipulation.
    pub fn insert(&mut self, key: impl Into<String>, value: Yaml) {
        let key = key.into();
        match self {
            Yaml::Map(m) => {
                if let Some(slot) = m.iter_mut().find(|(k, _)| *k == key) {
                    slot.1 = value;
                } else {
                    m.push((key, value));
                }
            }
            other => panic!("insert into non-map Yaml value: {other:?}"),
        }
    }

    /// Remove `key` from a mapping, returning the removed value.
    pub fn remove(&mut self, key: &str) -> Option<Yaml> {
        match self {
            Yaml::Map(m) => {
                let idx = m.iter().position(|(k, _)| k == key)?;
                Some(m.remove(idx).1)
            }
            _ => None,
        }
    }

    /// Navigate a dotted path through nested mappings; sequence elements are
    /// addressed with numeric segments: `spec.containers.0.image`.
    pub fn at(&self, path: &str) -> Option<&Yaml> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = match cur {
                Yaml::Map(_) => cur.get(seg)?,
                Yaml::Seq(v) => v.get(seg.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Mutable [`Yaml::at`].
    #[doc(hidden)] // edgeverify's `verify` tests edit parsed documents with it
    pub fn at_mut(&mut self, path: &str) -> Option<&mut Yaml> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = match cur {
                Yaml::Map(_) => cur.get_mut(seg)?,
                Yaml::Seq(v) => v.get_mut(seg.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Set a value at a dotted path, creating intermediate **mappings** as
    /// needed. Numeric segments index existing sequences but never create them.
    /// Returns `false` (without modifying anything else) if an intermediate
    /// exists and is not a collection.
    pub fn set_path(&mut self, path: &str, value: Yaml) -> bool {
        let segs: Vec<&str> = path.split('.').collect();
        let mut cur = self;
        for (i, seg) in segs.iter().enumerate() {
            let last = i == segs.len() - 1;
            match cur {
                Yaml::Map(_) => {
                    if last {
                        cur.insert(*seg, value);
                        return true;
                    }
                    if cur.get(seg).is_none() {
                        cur.insert(*seg, Yaml::map());
                    }
                    cur = cur.get_mut(seg).unwrap();
                }
                Yaml::Seq(v) => {
                    let Ok(idx) = seg.parse::<usize>() else {
                        return false;
                    };
                    let Some(slot) = v.get_mut(idx) else {
                        return false;
                    };
                    if last {
                        *slot = value;
                        return true;
                    }
                    cur = slot;
                }
                _ => return false,
            }
        }
        false
    }

    /// A short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Yaml::Null => "null",
            Yaml::Bool(_) => "bool",
            Yaml::Int(_) => "int",
            Yaml::Float(_) => "float",
            Yaml::Str(_) => "string",
            Yaml::Seq(_) => "sequence",
            Yaml::Map(_) => "mapping",
        }
    }
}

impl fmt::Display for Yaml {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::emitter::to_string(self))
    }
}

impl From<&str> for Yaml {
    fn from(s: &str) -> Yaml {
        Yaml::Str(s.to_string())
    }
}
impl From<String> for Yaml {
    fn from(s: String) -> Yaml {
        Yaml::Str(s)
    }
}
impl From<i64> for Yaml {
    fn from(i: i64) -> Yaml {
        Yaml::Int(i)
    }
}
impl From<bool> for Yaml {
    fn from(b: bool) -> Yaml {
        Yaml::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Yaml {
        let mut root = Yaml::map();
        root.insert("kind", Yaml::str("Deployment"));
        let mut meta = Yaml::map();
        meta.insert("name", Yaml::str("web"));
        root.insert("metadata", meta);
        let mut spec = Yaml::map();
        spec.insert("replicas", Yaml::Int(3));
        let mut c0 = Yaml::map();
        c0.insert("image", Yaml::str("nginx:1.23.2"));
        spec.insert("containers", Yaml::Seq(vec![c0]));
        root.insert("spec", spec);
        root
    }

    #[test]
    fn get_and_at() {
        let y = sample();
        assert_eq!(y.get("kind").and_then(Yaml::as_str), Some("Deployment"));
        assert_eq!(y.at("metadata.name").and_then(Yaml::as_str), Some("web"));
        assert_eq!(
            y.at("spec.containers.0.image").and_then(Yaml::as_str),
            Some("nginx:1.23.2")
        );
        assert!(y.at("spec.containers.1").is_none());
        assert!(y.at("nope.deep").is_none());
    }

    #[test]
    fn insert_replaces_in_place() {
        let mut y = sample();
        y.insert("kind", Yaml::str("Service"));
        assert_eq!(y.get("kind").and_then(Yaml::as_str), Some("Service"));
        // order preserved: kind still first
        assert_eq!(y.as_map().unwrap()[0].0, "kind");
    }

    #[test]
    fn set_path_creates_intermediates() {
        let mut y = sample();
        assert!(y.set_path("metadata.labels.app", Yaml::str("web")));
        assert_eq!(
            y.at("metadata.labels.app").and_then(Yaml::as_str),
            Some("web")
        );
    }

    #[test]
    fn set_path_through_sequence_index() {
        let mut y = sample();
        assert!(y.set_path("spec.containers.0.image", Yaml::str("nginx:2")));
        assert_eq!(
            y.at("spec.containers.0.image").and_then(Yaml::as_str),
            Some("nginx:2")
        );
        // out-of-range index fails without side effects
        assert!(!y.set_path("spec.containers.7.image", Yaml::Null));
    }

    #[test]
    fn set_path_refuses_scalar_intermediate() {
        let mut y = sample();
        assert!(!y.set_path("kind.sub.key", Yaml::Null));
    }

    #[test]
    fn remove_returns_value() {
        let mut y = sample();
        let v = y.remove("kind");
        assert_eq!(v, Some(Yaml::str("Deployment")));
        assert!(y.get("kind").is_none());
        assert_eq!(y.remove("kind"), None);
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Yaml::Int(5).as_f64(), Some(5.0));
        assert_eq!(Yaml::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Yaml::Str("5".into()).as_i64(), None);
    }

    #[test]
    #[should_panic(expected = "insert into non-map")]
    fn insert_into_scalar_panics() {
        let mut y = Yaml::Int(1);
        y.insert("k", Yaml::Null);
    }
}
