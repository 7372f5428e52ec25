//! Proactive deployment prediction.
//!
//! The paper's introduction concedes that "prediction algorithms could be
//! used to pre-deploy the required services just in time. However, a hundred
//! percent correct prediction rate is impossible" — on-demand deployment is
//! the answer for the misses, and the discussion (§VII) closes with
//! "more so when combined with good prediction for proactive deployment."
//! This module supplies that combination: a [`Predictor`] observes the
//! request stream and nominates services to pre-deploy; the controller
//! deploys nominations in the background exactly like a BEST choice.
//!
//! Implementations:
//!
//! * `NoPrediction` — the paper's evaluated baseline (pure on-demand),
//! * [`PopularityPredictor`] — exponentially-decayed request counts; predicts
//!   the services most likely to be requested again (captures re-deployment
//!   after scale-down and steady popularity),
//! * [`OraclePredictor`] — fed the future request schedule; the upper bound
//!   a perfect ML model could reach (the "100 % correct prediction" that the
//!   paper argues is unattainable in practice — useful to bound the benefit).

use std::collections::BTreeMap;

use simcore::{SimDuration, SimTime};
use simnet::SocketAddr;

/// Observes requests and nominates services for proactive deployment.
pub trait Predictor: Send {
    fn name(&self) -> &'static str;

    /// Called for every request the controller dispatches.
    fn observe(&mut self, now: SimTime, service_addr: SocketAddr);

    /// Services (by registered cloud address) that should be running within
    /// the given `horizon`; the controller pre-deploys any that are not.
    fn predict(&mut self, now: SimTime, horizon: SimDuration) -> Vec<SocketAddr>;
}

// Boxed predictors stay usable where an `impl Predictor` is expected
// (e.g. `ControllerBuilder::predictor`).
impl Predictor for Box<dyn Predictor> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn observe(&mut self, now: SimTime, service_addr: SocketAddr) {
        (**self).observe(now, service_addr)
    }

    fn predict(&mut self, now: SimTime, horizon: SimDuration) -> Vec<SocketAddr> {
        (**self).predict(now, horizon)
    }
}

/// The no-op baseline: pure on-demand deployment (the paper's setting).
#[derive(Debug, Default, Clone)]
pub(crate) struct NoPrediction;

impl Predictor for NoPrediction {
    fn name(&self) -> &'static str {
        "none"
    }
    fn observe(&mut self, _now: SimTime, _service: SocketAddr) {}
    fn predict(&mut self, _now: SimTime, _horizon: SimDuration) -> Vec<SocketAddr> {
        Vec::new()
    }
}

/// Exponentially-decayed popularity scores; predicts the top-`k` services
/// whose score exceeds `threshold`.
#[derive(Debug, Clone)]
pub struct PopularityPredictor {
    /// Score half-life.
    pub half_life: SimDuration,
    /// Nominate at most this many services per prediction.
    pub top_k: usize,
    /// Minimum decayed score to qualify.
    pub threshold: f64,
    // BTreeMap: `predict` iterates to rank candidates; address order keeps
    // the scan deterministic (ties already break on the address).
    scores: BTreeMap<SocketAddr, (f64, SimTime)>,
}

impl PopularityPredictor {
    pub fn new(half_life: SimDuration, top_k: usize, threshold: f64) -> PopularityPredictor {
        assert!(!half_life.is_zero());
        PopularityPredictor {
            half_life,
            top_k,
            threshold,
            scores: BTreeMap::new(),
        }
    }

    fn decayed(&self, score: f64, since: SimDuration) -> f64 {
        let half_lives = since.as_secs_f64() / self.half_life.as_secs_f64();
        score * 0.5_f64.powf(half_lives)
    }
}

impl Predictor for PopularityPredictor {
    fn name(&self) -> &'static str {
        "popularity"
    }

    fn observe(&mut self, now: SimTime, service: SocketAddr) {
        let (score, last) = self.scores.get(&service).copied().unwrap_or((0.0, now));
        let decayed = self.decayed(score, now.since(last));
        self.scores.insert(service, (decayed + 1.0, now));
    }

    fn predict(&mut self, now: SimTime, _horizon: SimDuration) -> Vec<SocketAddr> {
        let mut scored: Vec<(SocketAddr, f64)> = self
            .scores
            .iter()
            .map(|(&addr, &(s, at))| (addr, self.decayed(s, now.since(at))))
            .filter(|&(_, s)| s >= self.threshold)
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(self.top_k);
        scored.into_iter().map(|(a, _)| a).collect()
    }
}

/// Perfect foresight: knows the full request schedule and nominates every
/// service with a request inside the horizon. Bounds the achievable benefit.
#[derive(Debug, Clone, Default)]
pub struct OraclePredictor {
    /// (request time, service) pairs, sorted by time.
    schedule: Vec<(SimTime, SocketAddr)>,
}

impl OraclePredictor {
    pub fn with_schedule(mut schedule: Vec<(SimTime, SocketAddr)>) -> OraclePredictor {
        schedule.sort_by_key(|&(t, a)| (t, a));
        OraclePredictor { schedule }
    }
}

impl Predictor for OraclePredictor {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn observe(&mut self, _now: SimTime, _service: SocketAddr) {}

    fn predict(&mut self, now: SimTime, horizon: SimDuration) -> Vec<SocketAddr> {
        let end = now + horizon;
        let mut out: Vec<SocketAddr> = self
            .schedule
            .iter()
            .filter(|&&(t, _)| t >= now && t <= end)
            .map(|&(_, a)| a)
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::IpAddr;

    /// The decayed score `predict` ranks by.
    fn score(p: &PopularityPredictor, now: SimTime, service: SocketAddr) -> f64 {
        p.scores
            .get(&service)
            .map(|&(s, at)| p.decayed(s, now.since(at)))
            .unwrap_or(0.0)
    }

    fn addr(d: u8) -> SocketAddr {
        SocketAddr::new(IpAddr::new(93, 184, 0, d), 80)
    }
    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn no_prediction_predicts_nothing() {
        let mut p = NoPrediction;
        p.observe(t(0), addr(1));
        assert!(p.predict(t(1), SimDuration::from_secs(60)).is_empty());
    }

    #[test]
    fn popularity_ranks_by_frequency() {
        let mut p = PopularityPredictor::new(SimDuration::from_secs(60), 2, 0.5);
        for _ in 0..10 {
            p.observe(t(1), addr(1));
        }
        for _ in 0..3 {
            p.observe(t(1), addr(2));
        }
        p.observe(t(1), addr(3));
        let pred = p.predict(t(2), SimDuration::from_secs(60));
        assert_eq!(pred, vec![addr(1), addr(2)], "top-2 by score");
    }

    #[test]
    fn popularity_decays_over_time() {
        let mut p = PopularityPredictor::new(SimDuration::from_secs(10), 5, 0.9);
        for _ in 0..4 {
            p.observe(t(0), addr(1));
        }
        assert!((score(&p, t(0), addr(1)) - 4.0).abs() < 1e-9);
        assert!(
            (score(&p, t(10), addr(1)) - 2.0).abs() < 1e-9,
            "one half-life"
        );
        assert!(
            (score(&p, t(20), addr(1)) - 1.0).abs() < 1e-9,
            "two half-lives"
        );
        // after enough decay the service drops below threshold
        assert!(p.predict(t(40), SimDuration::from_secs(60)).is_empty());
    }

    #[test]
    fn popularity_observation_accumulates_with_decay() {
        let mut p = PopularityPredictor::new(SimDuration::from_secs(10), 5, 0.0);
        p.observe(t(0), addr(1));
        p.observe(t(10), addr(1)); // old score halved, +1
        assert!((score(&p, t(10), addr(1)) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn oracle_sees_only_horizon() {
        let mut o = OraclePredictor::with_schedule(vec![
            (t(10), addr(1)),
            (t(20), addr(2)),
            (t(500), addr(3)),
            (t(25), addr(1)),
        ]);
        let pred = o.predict(t(5), SimDuration::from_secs(30));
        assert_eq!(pred, vec![addr(1), addr(2)]);
        let pred = o.predict(t(490), SimDuration::from_secs(30));
        assert_eq!(pred, vec![addr(3)]);
        assert!(o.predict(t(600), SimDuration::from_secs(30)).is_empty());
    }

    #[test]
    fn unknown_service_scores_zero() {
        let p = PopularityPredictor::new(SimDuration::from_secs(10), 5, 0.0);
        assert_eq!(score(&p, t(0), addr(9)), 0.0);
    }
}
