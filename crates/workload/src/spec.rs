//! The workload engine's front door: a named-model registry (the same shape
//! as `edgectl::SchedulerRegistry`) plus [`WorkloadConfig`], the full
//! description of a generated workload — which arrival model, the service
//! mix, the model knobs, and the client-mobility rate.
//!
//! `WorkloadConfig::default()` is the paper's bigFlows replay with no
//! mobility: generating it consumes the RNG byte-identically to the
//! historical `Trace::generate`, so every pinned hash replays unchanged.

use simcore::{SimDuration, SimRng};

use crate::arrival::{self, ArrivalModel};
use crate::bigflows::{sort_requests, Trace, TraceConfig};
use crate::mix::ServiceMix;
use crate::mobility::{generate_handovers, MOBILITY_STREAM};

/// A workload description: model name (resolved through
/// [`WorkloadRegistry`]), the service mix, per-model knobs, and mobility.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Registry name or alias of the arrival model.
    pub model: String,
    /// The service population and popularity law (services, requests,
    /// window, clients, Zipf exponent, per-service floor).
    pub mix: TraceConfig,
    /// Expected handovers per client over the window; `0` = static clients.
    pub handovers_per_client: f64,
    /// Flash crowd: when the spike starts.
    pub spike_at: SimDuration,
    /// Flash crowd: how long the spike lasts.
    pub spike_window: SimDuration,
    /// Flash crowd: fraction of all requests concentrated in the spike.
    pub spike_fraction: f64,
    /// MMPP: ON-phase length.
    pub burst_on: SimDuration,
    /// MMPP: OFF-phase length.
    pub burst_off: SimDuration,
    /// MMPP: ON-phase rate multiplier (≥ 1).
    pub burst_ratio: f64,
    /// Diurnal: peak position as a fraction of the window, in `[0, 1)`.
    pub diurnal_peak: f64,
    /// Diurnal: rate swing around the mean, in `[0, 1)`.
    pub diurnal_amplitude: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            model: "bigflows".into(),
            mix: TraceConfig::default(),
            handovers_per_client: 0.0,
            spike_at: SimDuration::from_secs(10),
            spike_window: SimDuration::from_secs(5),
            spike_fraction: 0.5,
            burst_on: SimDuration::from_secs(5),
            burst_off: SimDuration::from_secs(20),
            burst_ratio: 9.0,
            diurnal_peak: 0.5,
            diurnal_amplitude: 0.8,
        }
    }
}

impl WorkloadConfig {
    /// Generate the trace this config describes. Deterministic in
    /// `(self, rng seed)`; fails only on an unknown model name (validated
    /// earlier by scenario parsing — see `testbed::scenario_from_yaml`).
    ///
    /// RNG discipline: arrival draws consume `rng` directly (byte-identical
    /// to the historical bigFlows path for the default config); the mobility
    /// schedule runs on the derived `MOBILITY_STREAM`, which never
    /// advances `rng` — the same seed gives the same requests with mobility
    /// on or off.
    pub fn generate(&self, rng: &mut SimRng) -> Result<Trace, UnknownModel> {
        let model = WorkloadRegistry::builtin().create(self)?;
        let config = self.mix.clone();
        assert!(config.services > 0 && config.clients > 0);
        assert!(
            config.total_requests >= config.services * config.min_per_service,
            "total_requests cannot satisfy the per-service floor"
        );
        let mix = ServiceMix::new(&config);
        let counts = model.reshape_counts(mix.counts(rng), &mix);
        debug_assert_eq!(counts.iter().sum::<usize>(), config.total_requests);
        let service_addrs = mix.service_addrs();
        let mut requests = Vec::with_capacity(config.total_requests);
        for (svc, &count) in counts.iter().enumerate() {
            model.generate_service(svc, count, &mix, rng, &mut requests);
        }
        sort_requests(&mut requests);
        let handovers = if self.handovers_per_client > 0.0 {
            let mut mobility_rng = rng.stream(MOBILITY_STREAM);
            generate_handovers(
                config.clients,
                config.duration,
                self.handovers_per_client,
                &mut mobility_rng,
            )
        } else {
            Vec::new()
        };
        Ok(Trace {
            requests,
            service_addrs,
            config,
            handovers,
        })
    }
}

/// Typed "no such workload model" error — the same shape as
/// `edgectl::UnknownPolicy`, listing what the registry does know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownModel {
    pub requested: String,
    pub available: Vec<&'static str>,
}

impl std::fmt::Display for UnknownModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown workload model `{}` (available: {})",
            self.requested,
            self.available.join(", ")
        )
    }
}

impl std::error::Error for UnknownModel {}

/// One registered arrival model.
#[derive(Debug)]
pub struct ModelEntry {
    pub name: &'static str,
    pub aliases: &'static [&'static str],
    pub description: &'static str,
    factory: fn(&WorkloadConfig) -> Box<dyn ArrivalModel>,
}

/// Name → arrival-model registry. `builtin()` lists every model the engine
/// ships; scenario YAML and the `edgesim workloads` listing both go through
/// it, so the two can never disagree.
pub struct WorkloadRegistry {
    entries: Vec<ModelEntry>,
}

impl WorkloadRegistry {
    pub fn builtin() -> WorkloadRegistry {
        WorkloadRegistry {
            entries: vec![
                ModelEntry {
                    name: "bigflows",
                    aliases: &["big-flows", "paper"],
                    description:
                        "the paper's bigFlows replay shape (front-loaded first-seen, default)",
                    factory: arrival::bigflows_factory,
                },
                ModelEntry {
                    name: "poisson",
                    aliases: &[],
                    description: "homogeneous Poisson arrivals over the whole window",
                    factory: arrival::poisson_factory,
                },
                ModelEntry {
                    name: "mmpp",
                    aliases: &["bursty"],
                    description: "Markov-modulated Poisson: ON/OFF bursts per service",
                    factory: arrival::mmpp_factory,
                },
                ModelEntry {
                    name: "diurnal",
                    aliases: &["diurnal-curve"],
                    description: "sinusoidal diurnal rate curve (a compressed day)",
                    factory: arrival::diurnal_factory,
                },
                ModelEntry {
                    name: "flash-crowd",
                    aliases: &["flashcrowd", "spike"],
                    description: "thousands of clients slam one cold service in a short window",
                    factory: arrival::flash_crowd_factory,
                },
            ],
        }
    }

    pub fn entries(&self) -> &[ModelEntry] {
        &self.entries
    }

    /// Canonical model names, in registry order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// Look a model up by name or alias.
    pub fn resolve(&self, name: &str) -> Result<&ModelEntry, UnknownModel> {
        self.entries
            .iter()
            .find(|e| e.name == name || e.aliases.contains(&name))
            .ok_or_else(|| UnknownModel {
                requested: name.to_string(),
                available: self.names(),
            })
    }

    /// Build the arrival model `cfg.model` names, configured by `cfg`.
    pub(crate) fn create(
        &self,
        cfg: &WorkloadConfig,
    ) -> Result<Box<dyn ArrivalModel>, UnknownModel> {
        Ok((self.resolve(&cfg.model)?.factory)(cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_names_and_aliases() {
        let r = WorkloadRegistry::builtin();
        assert_eq!(r.resolve("bigflows").unwrap().name, "bigflows");
        assert_eq!(r.resolve("paper").unwrap().name, "bigflows");
        assert_eq!(r.resolve("bursty").unwrap().name, "mmpp");
        assert_eq!(r.resolve("spike").unwrap().name, "flash-crowd");
        assert_eq!(
            r.names(),
            vec!["bigflows", "poisson", "mmpp", "diurnal", "flash-crowd"]
        );
    }

    #[test]
    fn unknown_model_lists_available() {
        let err = WorkloadRegistry::builtin().resolve("tsunami").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown workload model `tsunami`"), "{msg}");
        assert!(msg.contains("flash-crowd"), "{msg}");
        assert!(msg.contains("diurnal"), "{msg}");
    }

    #[test]
    fn default_config_generates_paper_marginals() {
        let trace = WorkloadConfig::default()
            .generate(&mut SimRng::seed_from_u64(1))
            .unwrap();
        assert_eq!(trace.requests.len(), 1708);
        assert_eq!(trace.service_addrs.len(), 42);
        assert!(trace.handovers.is_empty());
    }

    /// The workload engine's default path and the historical
    /// `Trace::generate` must be the same byte stream — the pinned seed-42
    /// metrics hash depends on it.
    #[test]
    fn default_matches_legacy_generate() {
        let a = WorkloadConfig::default()
            .generate(&mut SimRng::seed_from_u64(42))
            .unwrap();
        let b = Trace::generate(TraceConfig::default(), &mut SimRng::seed_from_u64(42));
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.service_addrs, b.service_addrs);
    }

    #[test]
    fn mobility_never_perturbs_arrivals() {
        let without = WorkloadConfig::default()
            .generate(&mut SimRng::seed_from_u64(5))
            .unwrap();
        let with = WorkloadConfig {
            handovers_per_client: 2.0,
            ..WorkloadConfig::default()
        }
        .generate(&mut SimRng::seed_from_u64(5))
        .unwrap();
        assert_eq!(without.requests, with.requests);
        assert!(without.handovers.is_empty());
        assert_eq!(with.handovers.len(), 40, "2 handovers x 20 clients");
    }

    #[test]
    fn every_model_generates_exact_totals() {
        for name in WorkloadRegistry::builtin().names() {
            let cfg = WorkloadConfig {
                model: name.into(),
                ..WorkloadConfig::default()
            };
            let trace = cfg.generate(&mut SimRng::seed_from_u64(3)).unwrap();
            assert_eq!(trace.requests.len(), 1708, "{name}");
            assert_eq!(trace.service_addrs.len(), 42, "{name}");
            let horizon = trace.config.duration.as_secs_f64();
            assert!(
                trace
                    .requests
                    .iter()
                    .all(|r| r.at.as_secs_f64() <= horizon && r.client < 20),
                "{name}: request out of range"
            );
            assert!(
                trace.requests.windows(2).all(|w| w[0].at <= w[1].at),
                "{name}: not time-sorted"
            );
        }
    }

    #[test]
    fn unknown_model_fails_generation() {
        let cfg = WorkloadConfig {
            model: "nope".into(),
            ..WorkloadConfig::default()
        };
        let err = cfg.generate(&mut SimRng::seed_from_u64(1)).unwrap_err();
        assert_eq!(err.requested, "nope");
    }
}
