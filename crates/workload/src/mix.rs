//! Service-mix model: the popularity law, decoupled from the bigFlows
//! generator so every arrival model ([`crate::arrival`]) shares one notion
//! of "which services exist and how much traffic each gets".
//!
//! The popularity allocation is byte-for-byte the historical bigFlows one
//! (Zipf weights over a per-service floor, exact total), so the default
//! workload pipeline reproduces the paper's 42-service / 1708-request
//! marginals and the pinned seed-42 trace hash.

use simcore::{dist::Zipf, SimRng};
use simnet::{IpAddr, SocketAddr};

use crate::bigflows::TraceConfig;

/// The service population and its traffic split. Plain borrowed view over a
/// [`TraceConfig`] — the mix is a *law*, the config carries the numbers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServiceMix<'a> {
    pub config: &'a TraceConfig,
}

impl<'a> ServiceMix<'a> {
    pub(crate) fn new(config: &'a TraceConfig) -> ServiceMix<'a> {
        ServiceMix { config }
    }

    /// Allocate per-service request counts: Zipf weights with a floor,
    /// exact sum. Identical RNG consumption to the historical bigFlows
    /// `popularity_counts` — the pinned trace hashes depend on it.
    pub(crate) fn counts(&self, rng: &mut SimRng) -> Vec<usize> {
        let c = self.config;
        let zipf = Zipf::new(c.services, c.zipf_exponent);
        let spare = c.total_requests - c.services * c.min_per_service;
        // Distribute the non-floor mass by expected Zipf share, then hand
        // out the rounding remainder one by one to random (weighted)
        // services.
        let mut counts: Vec<usize> = (0..c.services)
            .map(|i| c.min_per_service + (zipf.probability(i) * spare as f64).floor() as usize)
            .collect();
        let mut assigned: usize = counts.iter().sum();
        while assigned < c.total_requests {
            counts[zipf.sample(rng)] += 1;
            assigned += 1;
        }
        counts
    }

    /// Synthetic public addresses: 93.184.x.y:80 (TEST-NET-ish), one per
    /// service, in popularity-rank order.
    pub(crate) fn service_addrs(&self) -> Vec<SocketAddr> {
        (0..self.config.services)
            .map(|i| {
                SocketAddr::new(
                    IpAddr::new(93, 184, (i / 250 + 1) as u8, (i % 250 + 1) as u8),
                    80,
                )
            })
            .collect()
    }

    /// The trace window in seconds.
    pub(crate) fn horizon(&self) -> f64 {
        self.config.duration.as_secs_f64()
    }

    /// Mean of the front-loaded "service first seen" offset, seconds.
    pub(crate) fn first_seen_mean(&self) -> f64 {
        self.config.first_seen_mean.as_secs_f64()
    }

    pub(crate) fn clients(&self) -> usize {
        self.config.clients
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TraceConfig {
        TraceConfig::default()
    }

    #[test]
    fn counts_sum_exactly_and_respect_floor() {
        let c = cfg();
        let mix = ServiceMix::new(&c);
        let counts = mix.counts(&mut SimRng::seed_from_u64(1));
        assert_eq!(counts.len(), 42);
        assert_eq!(counts.iter().sum::<usize>(), 1708);
        assert!(counts.iter().all(|&n| n >= 20));
    }

    #[test]
    fn counts_deterministic_per_seed() {
        let c = cfg();
        let mix = ServiceMix::new(&c);
        let a = mix.counts(&mut SimRng::seed_from_u64(7));
        let b = mix.counts(&mut SimRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn addrs_are_distinct_port_80() {
        let c = cfg();
        let mix = ServiceMix::new(&c);
        let mut addrs = mix.service_addrs();
        assert!(addrs.iter().all(|a| a.port == 80));
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 42);
    }
}
