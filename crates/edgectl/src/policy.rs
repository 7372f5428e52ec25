//! Configuration-driven scheduler selection.
//!
//! Replaces the ad-hoc string matching scenario parsers used to do with a
//! single [`SchedulerRegistry`]: every global-scheduler policy registers a
//! canonical name, aliases and a factory, scenario YAML / CLI flags carry a
//! [`SchedulerSpec`], and unknown names fail with a typed [`UnknownPolicy`]
//! that lists what *is* available.

use std::fmt;

use crate::provisioning::{BoundedCostProvisioning, TierSpillPlacement};
use crate::scheduler::{
    GlobalScheduler, HybridDockerFirst, HybridWasmFirst, LeastLoaded, NearestReadyFirst,
    NearestWaiting,
};

/// Which global scheduler a scenario wants, by canonical name or alias.
/// `Default` is the paper's with-waiting policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerSpec {
    name: String,
}

impl SchedulerSpec {
    /// A spec for `name` (canonical or alias); validated when the registry
    /// resolves it, not here — parsing stays infallible.
    pub fn named(name: impl Into<String>) -> SchedulerSpec {
        SchedulerSpec { name: name.into() }
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    pub fn nearest_waiting() -> SchedulerSpec {
        SchedulerSpec::named("nearest-waiting")
    }
    pub fn nearest_ready_first() -> SchedulerSpec {
        SchedulerSpec::named("nearest-ready-first")
    }
    pub fn hybrid_docker_first() -> SchedulerSpec {
        SchedulerSpec::named("hybrid-docker-first")
    }
    pub fn least_loaded() -> SchedulerSpec {
        SchedulerSpec::named("least-loaded")
    }
    pub fn bounded_cost() -> SchedulerSpec {
        SchedulerSpec::named("bounded-cost")
    }
    pub fn tier_spill() -> SchedulerSpec {
        SchedulerSpec::named("tier-spill")
    }
}

impl Default for SchedulerSpec {
    fn default() -> Self {
        SchedulerSpec::nearest_waiting()
    }
}

impl fmt::Display for SchedulerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// A scheduler name no registry entry answers to. Lists the canonical names
/// that would have worked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPolicy {
    pub requested: String,
    pub available: Vec<&'static str>,
}

impl fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown scheduler `{}` (available: {})",
            self.requested,
            self.available.join(", ")
        )
    }
}

impl std::error::Error for UnknownPolicy {}

/// One registered policy: identity, docs and a factory.
pub struct RegistryEntry {
    /// Canonical name ([`SchedulerSpec`]s resolve against this first).
    pub name: &'static str,
    /// Accepted alternative spellings (legacy scenario files).
    pub aliases: &'static [&'static str],
    /// One-line description for `edgesim schedulers`.
    pub description: &'static str,
    factory: fn() -> Box<dyn GlobalScheduler>,
}

impl RegistryEntry {
    pub(crate) fn create(&self) -> Box<dyn GlobalScheduler> {
        (self.factory)()
    }
}

/// The global-scheduler policy registry.
pub struct SchedulerRegistry {
    entries: Vec<RegistryEntry>,
}

impl SchedulerRegistry {
    /// Every in-tree policy: the paper's four, the load-aware ablation, and
    /// the two Cohen et al. provisioning ports.
    pub fn builtin() -> SchedulerRegistry {
        SchedulerRegistry {
            entries: vec![
                RegistryEntry {
                    name: "nearest-waiting",
                    aliases: &["waiting"],
                    description: "paper Fig. 5: deploy at the nearest cluster, hold the request",
                    factory: || Box::new(NearestWaiting),
                },
                RegistryEntry {
                    name: "nearest-ready-first",
                    aliases: &["without-waiting"],
                    description:
                        "paper Fig. 3: serve from a ready instance or the cloud, deploy at the nearest",
                    factory: || Box::new(NearestReadyFirst),
                },
                RegistryEntry {
                    name: "hybrid-docker-first",
                    aliases: &["hybrid"],
                    description: "paper §VII: Docker answers first, Kubernetes takes over",
                    factory: || Box::new(HybridDockerFirst),
                },
                RegistryEntry {
                    name: "hybrid-wasm-first",
                    aliases: &[],
                    description: "paper §VIII: a wasm function answers first, containers take over",
                    factory: || Box::new(HybridWasmFirst),
                },
                RegistryEntry {
                    name: "least-loaded",
                    aliases: &[],
                    description: "load-aware ablation: distance inflated by CPU load",
                    factory: || Box::new(LeastLoaded::default()),
                },
                RegistryEntry {
                    name: "bounded-cost",
                    aliases: &["ski-rental"],
                    description:
                        "Cohen et al. arXiv:2202.08903: rent-or-buy provisioning, 2-competitive cost",
                    factory: || Box::new(BoundedCostProvisioning::default()),
                },
                RegistryEntry {
                    name: "tier-spill",
                    aliases: &["multi-tier"],
                    description:
                        "Cohen et al. arXiv:2312.11187: lowest latency tier with room, cloud on overflow",
                    factory: || Box::new(TierSpillPlacement),
                },
            ],
        }
    }

    /// The registered entries, in listing order.
    pub fn entries(&self) -> &[RegistryEntry] {
        &self.entries
    }

    /// Canonical policy names, in listing order.
    pub(crate) fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// Find the entry answering to `name` (canonical or alias).
    pub fn resolve(&self, name: &str) -> Result<&RegistryEntry, UnknownPolicy> {
        self.entries
            .iter()
            .find(|e| e.name == name || e.aliases.contains(&name))
            .ok_or_else(|| UnknownPolicy {
                requested: name.to_owned(),
                available: self.names(),
            })
    }

    /// Instantiate the policy a spec names.
    pub fn create(&self, spec: &SchedulerSpec) -> Result<Box<dyn GlobalScheduler>, UnknownPolicy> {
        Ok(self.resolve(spec.name())?.create())
    }
}

impl Default for SchedulerRegistry {
    fn default() -> Self {
        SchedulerRegistry::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_has_all_policies() {
        let reg = SchedulerRegistry::builtin();
        assert_eq!(
            reg.names(),
            vec![
                "nearest-waiting",
                "nearest-ready-first",
                "hybrid-docker-first",
                "hybrid-wasm-first",
                "least-loaded",
                "bounded-cost",
                "tier-spill",
            ]
        );
    }

    #[test]
    fn create_resolves_canonical_names_and_aliases() {
        let reg = SchedulerRegistry::builtin();
        for (spec, want) in [
            (SchedulerSpec::default(), "nearest-waiting"),
            (SchedulerSpec::named("waiting"), "nearest-waiting"),
            (
                SchedulerSpec::named("without-waiting"),
                "nearest-ready-first",
            ),
            (SchedulerSpec::named("hybrid"), "hybrid-docker-first"),
            (SchedulerSpec::bounded_cost(), "bounded-cost"),
            (SchedulerSpec::named("multi-tier"), "tier-spill"),
        ] {
            let policy = reg.create(&spec).expect(want);
            assert_eq!(policy.name(), want, "spec {spec}");
        }
    }

    #[test]
    fn unknown_policy_lists_available_names() {
        let reg = SchedulerRegistry::builtin();
        let err = match reg.create(&SchedulerSpec::named("magic")) {
            Err(err) => err,
            Ok(_) => panic!("`magic` must not resolve"),
        };
        assert_eq!(err.requested, "magic");
        let msg = err.to_string();
        assert!(msg.contains("unknown scheduler `magic`"), "{msg}");
        assert!(msg.contains("nearest-waiting"), "{msg}");
        assert!(msg.contains("tier-spill"), "{msg}");
    }

    #[test]
    fn every_entry_factory_matches_its_name() {
        let reg = SchedulerRegistry::builtin();
        for entry in reg.entries() {
            assert_eq!(entry.create().name(), entry.name);
            assert!(!entry.description.is_empty());
        }
    }
}
