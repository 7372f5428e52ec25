//! Probability distributions for service-time, latency and workload modelling.
//!
//! [`Dist`] is a small closed enum rather than a trait object: every model in
//! this workspace needs `Clone + Send + Sync + Debug` configs, and an enum keeps
//! configuration values plain data that can be built in const-ish tables.
//!
//! [`DurationDist`] wraps a `Dist` whose samples are interpreted as
//! **milliseconds** (the natural unit of the paper's figures) and clamps
//! negatives to zero.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// A scalar distribution. Samples are `f64`; the interpretation (ms, bytes,
/// count, …) is up to the caller.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always `value`.
    Constant(f64),
    /// Uniform on `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
    /// Exponential with the given mean (not rate).
    Exponential { mean: f64 },
    /// Normal via Box–Muller.
    Normal { mean: f64, std_dev: f64 },
    /// Log-normal parameterised by the *underlying* normal's mu/sigma.
    LogNormal { mu: f64, sigma: f64 },
    /// Pareto (Lomax-style, `x_min * U^{-1/alpha}`); heavy-tailed sizes.
    Pareto { x_min: f64, alpha: f64 },
    /// Discrete distribution over `(value, weight)` pairs.
    Empirical(Vec<(f64, f64)>),
    /// Shifted copy of another distribution: `offset + inner`.
    Shifted { offset: f64, inner: Box<Dist> },
}

impl Dist {
    /// Log-normal with a given **median** and coefficient of variation of the
    /// underlying normal's sigma expressed directly. `median = e^mu`.
    ///
    /// This is the calibration-friendly constructor: the paper reports medians,
    /// so model configs specify the median and a spread (`sigma`) and the
    /// distribution lands the median exactly.
    pub(crate) fn log_normal_median(median: f64, sigma: f64) -> Dist {
        assert!(median > 0.0, "log-normal median must be positive");
        Dist::LogNormal {
            mu: median.ln(),
            sigma,
        }
    }

    /// Draw one sample.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> f64 {
        match self {
            Dist::Constant(v) => *v,
            Dist::Uniform { lo, hi } => rng.range_f64(*lo, *hi),
            Dist::Exponential { mean } => {
                // Inverse CDF; guard against ln(0).
                let u = 1.0 - rng.f64();
                -mean * u.ln()
            }
            Dist::Normal { mean, std_dev } => mean + std_dev * sample_standard_normal(rng),
            Dist::LogNormal { mu, sigma } => (mu + sigma * sample_standard_normal(rng)).exp(),
            Dist::Pareto { x_min, alpha } => {
                let u = 1.0 - rng.f64();
                x_min / u.powf(1.0 / alpha)
            }
            Dist::Empirical(pairs) => {
                assert!(!pairs.is_empty(), "empty empirical distribution");
                let total: f64 = pairs.iter().map(|(_, w)| *w).sum();
                let mut x = rng.f64() * total;
                for (v, w) in pairs {
                    if x < *w {
                        return *v;
                    }
                    x -= *w;
                }
                pairs.last().unwrap().0
            }
            Dist::Shifted { offset, inner } => offset + inner.sample(rng),
        }
    }

    /// The theoretical mean, where a closed form exists.
    #[doc(hidden)] // tests in registry, edgectl and workload hold sample means to it
    pub fn mean(&self) -> Option<f64> {
        match self {
            Dist::Constant(v) => Some(*v),
            Dist::Uniform { lo, hi } => Some((lo + hi) / 2.0),
            Dist::Exponential { mean } => Some(*mean),
            Dist::Normal { mean, .. } => Some(*mean),
            Dist::LogNormal { mu, sigma } => Some((mu + sigma * sigma / 2.0).exp()),
            Dist::Pareto { x_min, alpha } if *alpha > 1.0 => Some(alpha * x_min / (alpha - 1.0)),
            Dist::Pareto { .. } => None,
            Dist::Empirical(pairs) => {
                let total: f64 = pairs.iter().map(|(_, w)| *w).sum();
                Some(pairs.iter().map(|(v, w)| v * w).sum::<f64>() / total)
            }
            Dist::Shifted { offset, inner } => inner.mean().map(|m| m + offset),
        }
    }
}

/// One standard-normal draw via Box–Muller (the non-cached variant: one draw
/// per call keeps the generator stream aligned regardless of call sites).
fn sample_standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = (1.0 - rng.f64()).max(f64::MIN_POSITIVE);
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A distribution over [`SimDuration`]s; samples are **milliseconds**, negatives
/// clamp to zero.
#[derive(Debug, Clone, PartialEq)]
pub struct DurationDist(pub Dist);

impl DurationDist {
    /// A fixed delay of `ms` milliseconds.
    pub fn constant_ms(ms: f64) -> Self {
        DurationDist(Dist::Constant(ms))
    }

    /// Log-normal in milliseconds landing exactly on `median_ms`.
    pub fn log_normal_ms(median_ms: f64, sigma: f64) -> Self {
        DurationDist(Dist::log_normal_median(median_ms, sigma))
    }

    pub fn zero() -> Self {
        DurationDist(Dist::Constant(0.0))
    }

    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_millis_f64(self.0.sample(rng).max(0.0))
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`; used to model
/// service popularity in the bigFlows-like trace (a few services receive most
/// of the requests).
#[derive(Debug, Clone)]
pub struct Zipf {
    /// cumulative weights, cum[i] = sum of 1/(k^s) for k in 1..=i+1
    cum: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over empty support");
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cum.push(acc);
        }
        Zipf { cum }
    }

    /// Sample a 0-based rank (0 = most popular).
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let total = *self.cum.last().unwrap();
        self.rank_at(rng.f64() * total)
    }

    /// The rank whose cumulative-weight interval `[cum[i-1], cum[i])` holds
    /// `x`, clamped to the support. An exact hit on `cum[i]` belongs to the
    /// interval that starts there.
    fn rank_at(&self, x: f64) -> usize {
        let last = self.cum.len() - 1;
        match self.cum.binary_search_by(|c| c.total_cmp(&x)) {
            Ok(i) => (i + 1).min(last),
            Err(i) => i.min(last),
        }
    }

    /// The expected probability of rank `i` (0-based).
    pub fn probability(&self, i: usize) -> f64 {
        let total = *self.cum.last().unwrap();
        let lo = if i == 0 { 0.0 } else { self.cum[i - 1] };
        (self.cum[i] - lo) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(0xDECAF)
    }

    fn sample_mean(d: &Dist, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Dist::Constant(3.5);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 3.5);
        }
    }

    #[test]
    fn uniform_within_bounds_and_mean() {
        let d = Dist::Uniform { lo: 2.0, hi: 4.0 };
        let mut r = rng();
        for _ in 0..1000 {
            let x = d.sample(&mut r);
            assert!((2.0..4.0).contains(&x));
        }
        assert!((sample_mean(&d, 50_000) - 3.0).abs() < 0.02);
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Dist::Exponential { mean: 7.0 };
        assert!((sample_mean(&d, 200_000) - 7.0).abs() < 0.15);
    }

    #[test]
    fn normal_mean_and_spread() {
        let d = Dist::Normal {
            mean: 10.0,
            std_dev: 2.0,
        };
        let mut r = rng();
        let xs: Vec<f64> = (0..100_000).map(|_| d.sample(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean={mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sd={}", var.sqrt());
    }

    #[test]
    fn log_normal_median_lands() {
        let d = Dist::log_normal_median(500.0, 0.25);
        let mut r = rng();
        let mut xs: Vec<f64> = (0..100_001).map(|_| d.sample(&mut r)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!(
            (median - 500.0).abs() / 500.0 < 0.02,
            "median={median}, want ~500"
        );
    }

    #[test]
    fn log_normal_mean_formula() {
        let d = Dist::LogNormal {
            mu: 1.0,
            sigma: 0.5,
        };
        let want = d.mean().unwrap();
        assert!((sample_mean(&d, 300_000) - want).abs() / want < 0.02);
    }

    #[test]
    fn pareto_heavy_tail() {
        let d = Dist::Pareto {
            x_min: 1.0,
            alpha: 2.0,
        };
        let mut r = rng();
        let xs: Vec<f64> = (0..100_000).map(|_| d.sample(&mut r)).collect();
        assert!(xs.iter().all(|&x| x >= 1.0));
        // mean = alpha*xmin/(alpha-1) = 2
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 2.0).abs() < 0.25, "mean={mean}");
    }

    #[test]
    fn empirical_respects_weights() {
        let d = Dist::Empirical(vec![(1.0, 1.0), (2.0, 3.0)]);
        let mut r = rng();
        let n = 40_000;
        let twos = (0..n).filter(|_| d.sample(&mut r) == 2.0).count();
        let frac = twos as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn shifted_offsets() {
        let d = Dist::Shifted {
            offset: 100.0,
            inner: Box::new(Dist::Constant(5.0)),
        };
        let mut r = rng();
        assert_eq!(d.sample(&mut r), 105.0);
        assert_eq!(d.mean(), Some(105.0));
    }

    #[test]
    fn duration_dist_clamps_negative() {
        let d = DurationDist(Dist::Constant(-10.0));
        let mut r = rng();
        assert_eq!(d.sample(&mut r), SimDuration::ZERO);
    }

    #[test]
    fn duration_dist_ms_unit() {
        let d = DurationDist::constant_ms(250.0);
        let mut r = rng();
        assert_eq!(d.sample(&mut r), SimDuration::from_millis(250));
    }

    #[test]
    fn zipf_rank0_most_popular() {
        let z = Zipf::new(42, 1.1);
        let mut r = rng();
        let mut counts = [0u32; 42];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[41]);
        // empirical frequency of rank 0 tracks theory
        let p0 = z.probability(0);
        let f0 = counts[0] as f64 / 100_000.0;
        assert!((f0 - p0).abs() < 0.01, "f0={f0} p0={p0}");
    }

    #[test]
    fn zipf_exact_hit_on_a_cumulative_weight_stays_in_support() {
        // s = 0: weights are exactly 1.0 each, so cum = [1, 2, 3, 4].
        let z = Zipf::new(4, 0.0);
        assert_eq!(z.rank_at(0.5), 0);
        assert_eq!(z.rank_at(2.0), 2, "interior hit opens the next interval");
        assert_eq!(z.rank_at(2.5), 2);
        assert_eq!(z.rank_at(4.0), 3, "hit on the last weight is clamped");
        assert_eq!(z.rank_at(5.0), 3);
    }

    #[test]
    fn zipf_one_rank_support_always_samples_it() {
        let z = Zipf::new(1, 1.1);
        assert_eq!(z.rank_at(0.0), 0);
        assert_eq!(z.rank_at(1.0), 0, "exact hit on the only weight");
        let mut r = rng();
        assert!((0..100).all(|_| z.sample(&mut r) == 0));
    }

    #[test]
    fn zipf_probabilities_sum_to_one() {
        let z = Zipf::new(10, 0.9);
        let total: f64 = (0..10).map(|i| z.probability(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
