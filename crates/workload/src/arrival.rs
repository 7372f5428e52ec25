//! Pluggable arrival processes — the workload engine's core abstraction.
//!
//! An `ArrivalModel` decides *when* each service's requests arrive and
//! *which client* issues each one; the `crate::mix::ServiceMix` decides how
//! many requests each service gets. The split means every model stresses the
//! same service population, so runs across models differ only in temporal
//! shape:
//!
//! * `Bigflows` — the paper's replay shape: front-loaded first-seen offsets
//!   plus uniform order statistics. Byte-identical to the historical
//!   `Trace::generate`, so it is the default model and keeps every pinned
//!   hash.
//! * `Poisson` — homogeneous Poisson (uniform order statistics over the
//!   whole window, no front-loading): the stationary baseline.
//! * `Mmpp` — a two-state Markov-modulated Poisson process: each service
//!   alternates ON/OFF phases (random phase offset) and arrives
//!   `burst_ratio`× faster while ON. Bursty but stationary in the mean.
//! * `Diurnal` — a sinusoidal rate curve over the window (a compressed
//!   day): arrivals concentrate around the configured peak.
//! * `FlashCrowd` — thousands of clients slam one cold service inside a
//!   short window: the on-demand deployment race the paper motivates, and
//!   the lease-contention stressor for the controller mesh.
//!
//! Every model draws from the caller's [`SimRng`] only — identical
//! `(config, seed)` yields byte-identical traces.

use simcore::{SimRng, SimTime};

use crate::bigflows::TraceRequest;
use crate::mix::ServiceMix;
use crate::spec::WorkloadConfig;

/// A named arrival process. Implementations must be deterministic in the
/// provided RNG: no ambient state, no iteration-order dependence.
pub(crate) trait ArrivalModel {
    /// Redistribute the mix's per-service request counts before placement.
    /// The default keeps the popularity law untouched; [`FlashCrowd`]
    /// concentrates mass on the spike target. Implementations must preserve
    /// the total and the mix's per-service floor.
    fn reshape_counts(&self, counts: Vec<usize>, _mix: &ServiceMix<'_>) -> Vec<usize> {
        counts
    }

    /// Emit `count` requests for service `svc` into `out`. Called once per
    /// service in index order; the caller sorts the combined trace.
    fn generate_service(
        &self,
        svc: usize,
        count: usize,
        mix: &ServiceMix<'_>,
        rng: &mut SimRng,
        out: &mut Vec<TraceRequest>,
    );
}

fn push(out: &mut Vec<TraceRequest>, at_s: f64, svc: usize, client: usize) {
    out.push(TraceRequest {
        at: SimTime::from_secs_f64(at_s),
        service: svc,
        client,
    });
}

/// The paper's bigFlows replay shape (the default model). The draw order —
/// one first-seen offset, then per request an arrival time and a client —
/// must stay byte-identical to the historical `Trace::generate` loop: the
/// pinned seed-42 metrics hash replays through it.
pub(crate) struct Bigflows;

impl ArrivalModel for Bigflows {
    fn generate_service(
        &self,
        svc: usize,
        count: usize,
        mix: &ServiceMix<'_>,
        rng: &mut SimRng,
        out: &mut Vec<TraceRequest>,
    ) {
        let horizon = mix.horizon();
        // Front-loaded first-seen offset, truncated so every service fits
        // its requests into the remaining window.
        let mean = mix.first_seen_mean();
        let first_seen = (-mean * (1.0 - rng.f64()).ln()).min(horizon * 0.5);
        // Uniform order statistics over [first_seen, horizon) ≈ Poisson
        // process conditioned on the count.
        for _ in 0..count {
            let at = first_seen + (horizon - first_seen) * rng.f64();
            push(out, at, svc, rng.index(mix.clients()));
        }
    }
}

/// Homogeneous Poisson: uniform order statistics over the full window.
pub(crate) struct Poisson;

impl ArrivalModel for Poisson {
    fn generate_service(
        &self,
        svc: usize,
        count: usize,
        mix: &ServiceMix<'_>,
        rng: &mut SimRng,
        out: &mut Vec<TraceRequest>,
    ) {
        let horizon = mix.horizon();
        for _ in 0..count {
            push(out, horizon * rng.f64(), svc, rng.index(mix.clients()));
        }
    }
}

/// Two-state MMPP: the service alternates ON (`burst_on` long, rate
/// `burst_ratio`) and OFF (`burst_off` long, rate 1) phases; each service
/// gets a random phase offset so bursts decorrelate across services.
/// Arrivals are placed by inverting the piecewise-linear cumulative rate.
pub(crate) struct Mmpp {
    pub burst_on_s: f64,
    pub burst_off_s: f64,
    pub burst_ratio: f64,
}

impl Mmpp {
    /// Map a point `target` in cumulative-rate space back to a wall-clock
    /// instant, walking the ON/OFF phase schedule from `phase0` (the offset
    /// into the period at t = 0).
    fn invert(&self, target: f64, phase0: f64, horizon: f64) -> f64 {
        let mut t = 0.0;
        let mut cursor = phase0;
        let mut remaining = target;
        while t < horizon {
            let (rate, phase_left) = if cursor < self.burst_on_s {
                (self.burst_ratio, self.burst_on_s - cursor)
            } else {
                (1.0, self.burst_on_s + self.burst_off_s - cursor)
            };
            let span = phase_left.min(horizon - t);
            let weight = rate * span;
            if remaining <= weight {
                return t + remaining / rate;
            }
            remaining -= weight;
            t += span;
            cursor += span;
            if cursor >= self.burst_on_s + self.burst_off_s {
                cursor = 0.0;
            }
        }
        horizon
    }

    /// Total cumulative rate over `[0, horizon)` starting at `phase0`.
    fn total_weight(&self, phase0: f64, horizon: f64) -> f64 {
        let mut t = 0.0;
        let mut cursor = phase0;
        let mut total = 0.0;
        while t < horizon {
            let (rate, phase_left) = if cursor < self.burst_on_s {
                (self.burst_ratio, self.burst_on_s - cursor)
            } else {
                (1.0, self.burst_on_s + self.burst_off_s - cursor)
            };
            let span = phase_left.min(horizon - t);
            total += rate * span;
            t += span;
            cursor += span;
            if cursor >= self.burst_on_s + self.burst_off_s {
                cursor = 0.0;
            }
        }
        total
    }
}

impl ArrivalModel for Mmpp {
    fn generate_service(
        &self,
        svc: usize,
        count: usize,
        mix: &ServiceMix<'_>,
        rng: &mut SimRng,
        out: &mut Vec<TraceRequest>,
    ) {
        let horizon = mix.horizon();
        let period = self.burst_on_s + self.burst_off_s;
        let phase0 = rng.f64() * period;
        let total = self.total_weight(phase0, horizon);
        for _ in 0..count {
            let at = self.invert(rng.f64() * total, phase0, horizon);
            push(out, at.min(horizon), svc, rng.index(mix.clients()));
        }
    }
}

/// Sinusoidal diurnal curve: rate(t) = 1 + amplitude·cos(2π(t/horizon −
/// peak)), a compressed day whose rush hour sits at `peak` (a fraction of
/// the window). Inverted through a fixed cumulative grid — deterministic,
/// no transcendental-accumulation drift across platforms beyond the libm
/// guarantees the rest of the sim already relies on.
pub(crate) struct Diurnal {
    /// Peak position as a fraction of the window, in `[0, 1)`.
    pub peak: f64,
    /// Rate swing around the mean, in `[0, 1)`. 0 degenerates to Poisson.
    pub amplitude: f64,
}

/// Cumulative-rate grid resolution for [`Diurnal`] inversion. 4096 bins over
/// a 300 s window place arrivals within ~75 ms of the exact inverse — far
/// below the controller's probe granularity.
const DIURNAL_BINS: usize = 4096;

impl ArrivalModel for Diurnal {
    fn generate_service(
        &self,
        svc: usize,
        count: usize,
        mix: &ServiceMix<'_>,
        rng: &mut SimRng,
        out: &mut Vec<TraceRequest>,
    ) {
        let horizon = mix.horizon();
        // Cumulative rate at each bin edge; cum[0] = 0, cum[BINS] = total.
        let mut cum = [0.0f64; DIURNAL_BINS + 1];
        for i in 0..DIURNAL_BINS {
            let mid = (i as f64 + 0.5) / DIURNAL_BINS as f64;
            let rate = 1.0 + self.amplitude * (std::f64::consts::TAU * (mid - self.peak)).cos();
            cum[i + 1] = cum[i] + rate;
        }
        let total = cum[DIURNAL_BINS];
        for _ in 0..count {
            let target = rng.f64() * total;
            // Binary search for the bin containing `target`.
            let mut lo = 0usize;
            let mut hi = DIURNAL_BINS;
            while hi - lo > 1 {
                let midpt = (lo + hi) / 2;
                if cum[midpt] <= target {
                    lo = midpt;
                } else {
                    hi = midpt;
                }
            }
            let span = cum[lo + 1] - cum[lo];
            let frac = if span > 0.0 {
                (target - cum[lo]) / span
            } else {
                0.0
            };
            let at = (lo as f64 + frac) / DIURNAL_BINS as f64 * horizon;
            push(out, at.min(horizon), svc, rng.index(mix.clients()));
        }
    }
}

/// Flash crowd: `spike_fraction` of the whole trace slams the most popular
/// service inside `[spike_at, spike_at + spike_window)` — the target stays
/// cold until the spike, then thousands of clients hit it at once. The
/// remaining services run Poisson background traffic.
pub(crate) struct FlashCrowd {
    pub spike_at_s: f64,
    pub spike_window_s: f64,
    pub spike_fraction: f64,
}

/// The flash crowd always targets the popularity-rank-0 service.
pub(crate) const FLASH_CROWD_TARGET: usize = 0;

impl ArrivalModel for FlashCrowd {
    /// Drain background services down to (at most) the mix floor until the
    /// spike target holds `spike_fraction` of the total. Deterministic — no
    /// RNG: the donors are visited in descending-popularity order so the
    /// spike drains the head of the law first.
    fn reshape_counts(&self, mut counts: Vec<usize>, mix: &ServiceMix<'_>) -> Vec<usize> {
        let total: usize = counts.iter().sum();
        let want = ((total as f64 * self.spike_fraction) as usize).max(counts[FLASH_CROWD_TARGET]);
        let floor = mix.config.min_per_service;
        let mut need = want - counts[FLASH_CROWD_TARGET];
        while need > 0 {
            let mut moved = false;
            for svc in (FLASH_CROWD_TARGET + 1)..counts.len() {
                if need == 0 {
                    break;
                }
                if counts[svc] > floor {
                    counts[svc] -= 1;
                    counts[FLASH_CROWD_TARGET] += 1;
                    need -= 1;
                    moved = true;
                }
            }
            if !moved {
                break; // every donor is at the floor; spike takes what it can
            }
        }
        counts
    }

    fn generate_service(
        &self,
        svc: usize,
        count: usize,
        mix: &ServiceMix<'_>,
        rng: &mut SimRng,
        out: &mut Vec<TraceRequest>,
    ) {
        let horizon = mix.horizon();
        if svc == FLASH_CROWD_TARGET {
            // The spike: every request lands inside the short window.
            let start = self.spike_at_s.min(horizon);
            let window = self
                .spike_window_s
                .min(horizon - start)
                .max(f64::MIN_POSITIVE);
            for _ in 0..count {
                push(
                    out,
                    start + window * rng.f64(),
                    svc,
                    rng.index(mix.clients()),
                );
            }
        } else {
            // Background: plain Poisson over the whole window.
            for _ in 0..count {
                push(out, horizon * rng.f64(), svc, rng.index(mix.clients()));
            }
        }
    }
}

/// Build the model a [`WorkloadConfig`]'s knobs describe, by registry name.
/// Factories for [`crate::spec::WorkloadRegistry`].
pub(crate) fn bigflows_factory(_cfg: &WorkloadConfig) -> Box<dyn ArrivalModel> {
    Box::new(Bigflows)
}

pub(crate) fn poisson_factory(_cfg: &WorkloadConfig) -> Box<dyn ArrivalModel> {
    Box::new(Poisson)
}

pub(crate) fn mmpp_factory(cfg: &WorkloadConfig) -> Box<dyn ArrivalModel> {
    Box::new(Mmpp {
        burst_on_s: cfg.burst_on.as_secs_f64(),
        burst_off_s: cfg.burst_off.as_secs_f64(),
        burst_ratio: cfg.burst_ratio,
    })
}

pub(crate) fn diurnal_factory(cfg: &WorkloadConfig) -> Box<dyn ArrivalModel> {
    Box::new(Diurnal {
        peak: cfg.diurnal_peak,
        amplitude: cfg.diurnal_amplitude,
    })
}

pub(crate) fn flash_crowd_factory(cfg: &WorkloadConfig) -> Box<dyn ArrivalModel> {
    Box::new(FlashCrowd {
        spike_at_s: cfg.spike_at.as_secs_f64(),
        spike_window_s: cfg.spike_window.as_secs_f64(),
        spike_fraction: cfg.spike_fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigflows::TraceConfig;

    fn gen(model: &dyn ArrivalModel, cfg: &TraceConfig, seed: u64) -> Vec<TraceRequest> {
        let mix = ServiceMix::new(cfg);
        let mut rng = SimRng::seed_from_u64(seed);
        let counts = model.reshape_counts(mix.counts(&mut rng), &mix);
        assert_eq!(counts.iter().sum::<usize>(), cfg.total_requests);
        let mut out = Vec::new();
        for (svc, &count) in counts.iter().enumerate() {
            model.generate_service(svc, count, &mix, &mut rng, &mut out);
        }
        out
    }

    #[test]
    fn poisson_spreads_over_window() {
        let cfg = TraceConfig::default();
        let reqs = gen(&Poisson, &cfg, 3);
        assert_eq!(reqs.len(), 1708);
        let horizon = cfg.duration.as_secs_f64();
        let late = reqs
            .iter()
            .filter(|r| r.at.as_secs_f64() > horizon * 0.5)
            .count();
        // A front-loaded model puts ~75% in the first half; Poisson ~50%.
        assert!(
            (700..=1000).contains(&late),
            "poisson second-half count {late}"
        );
    }

    #[test]
    fn mmpp_bursts_concentrate_arrivals() {
        let cfg = TraceConfig::default();
        let model = Mmpp {
            burst_on_s: 5.0,
            burst_off_s: 20.0,
            burst_ratio: 9.0,
        };
        // Phases decorrelate across services, so the aggregate smooths out;
        // concentration shows per service. ON phases cover 20% of time but
        // carry 9·5/(9·5+20) ≈ 69% of a service's mass, so its busiest fifth
        // of seconds must hold well over the uniform share.
        let mix = ServiceMix::new(&cfg);
        let mut rng = SimRng::seed_from_u64(4);
        let mut reqs = Vec::new();
        model.generate_service(0, 1000, &mix, &mut rng, &mut reqs);
        assert_eq!(reqs.len(), 1000);
        let mut per_sec = vec![0usize; 301];
        for r in &reqs {
            per_sec[r.at.as_secs_f64() as usize] += 1;
        }
        per_sec.sort_unstable_by(|a, b| b.cmp(a));
        let busy: usize = per_sec[..60].iter().sum();
        assert!(busy > 600, "busiest 20% of seconds hold {busy}/1000");
    }

    #[test]
    fn diurnal_peaks_where_configured() {
        let cfg = TraceConfig::default();
        let model = Diurnal {
            peak: 0.5,
            amplitude: 0.9,
        };
        let reqs = gen(&model, &cfg, 5);
        let horizon = cfg.duration.as_secs_f64();
        let mid = reqs
            .iter()
            .filter(|r| {
                let f = r.at.as_secs_f64() / horizon;
                (0.25..0.75).contains(&f)
            })
            .count();
        // Middle half of the window should hold well over half the mass.
        assert!(mid > 1708 * 6 / 10, "mid-window arrivals {mid}/1708");
    }

    #[test]
    fn flash_crowd_concentrates_on_target() {
        let cfg = TraceConfig::default();
        let model = FlashCrowd {
            spike_at_s: 10.0,
            spike_window_s: 5.0,
            spike_fraction: 0.5,
        };
        let reqs = gen(&model, &cfg, 6);
        assert_eq!(reqs.len(), 1708);
        let spike: Vec<_> = reqs
            .iter()
            .filter(|r| r.service == FLASH_CROWD_TARGET)
            .collect();
        assert!(
            spike.len() >= 1708 / 2,
            "spike holds {}/1708 requests",
            spike.len()
        );
        assert!(spike
            .iter()
            .all(|r| (10.0..15.0001).contains(&r.at.as_secs_f64())));
    }

    #[test]
    fn flash_crowd_respects_floor() {
        let cfg = TraceConfig::default();
        let model = FlashCrowd {
            spike_at_s: 10.0,
            spike_window_s: 5.0,
            spike_fraction: 0.99,
        };
        let mix = ServiceMix::new(&cfg);
        let counts = model.reshape_counts(mix.counts(&mut SimRng::seed_from_u64(1)), &mix);
        assert_eq!(counts.iter().sum::<usize>(), 1708);
        // Donors drained exactly to the floor; the spike absorbs the rest.
        assert!(counts[1..].iter().all(|&n| n == 20), "{counts:?}");
        assert_eq!(counts[0], 1708 - 41 * 20);
    }

    #[test]
    fn models_deterministic_per_seed() {
        let cfg = TraceConfig::default();
        let models: Vec<Box<dyn ArrivalModel>> = vec![
            Box::new(Bigflows),
            Box::new(Poisson),
            Box::new(Mmpp {
                burst_on_s: 5.0,
                burst_off_s: 20.0,
                burst_ratio: 9.0,
            }),
            Box::new(Diurnal {
                peak: 0.5,
                amplitude: 0.8,
            }),
            Box::new(FlashCrowd {
                spike_at_s: 10.0,
                spike_window_s: 5.0,
                spike_fraction: 0.5,
            }),
        ];
        for (i, model) in models.iter().enumerate() {
            let a = gen(model.as_ref(), &cfg, 11);
            let b = gen(model.as_ref(), &cfg, 11);
            assert_eq!(a, b, "model {i} not deterministic");
        }
    }

    #[test]
    fn mmpp_inversion_is_monotone() {
        let m = Mmpp {
            burst_on_s: 5.0,
            burst_off_s: 20.0,
            burst_ratio: 9.0,
        };
        let total = m.total_weight(3.0, 300.0);
        let mut prev = -1.0;
        for i in 0..100 {
            let at = m.invert(total * i as f64 / 100.0, 3.0, 300.0);
            assert!(at >= prev, "inversion not monotone at step {i}");
            assert!((0.0..=300.0).contains(&at));
            prev = at;
        }
    }
}
