//! Client mobility: sessions hand over between ingress switches/shards
//! mid-flight (the transparent session-continuity scenario of
//! arXiv:2009.01716). A handover moves every *future* request of the client
//! to its next ingress shard and makes the departing controller tear down
//! the client's installed redirect flows — forcing flow re-installation and
//! a fresh FAST/BEST evaluation at the new ingress. Requests already in
//! flight stay anchored at the old ingress until they resolve
//! (make-before-break), which is what the edgeverify session-continuity
//! analysis checks.
//!
//! The schedule is generated on a **dedicated RNG stream**
//! (`"workload-mobility"`) so enabling mobility never perturbs the arrival
//! draws: the same `(config, seed)` yields the same request trace with and
//! without handovers.

use simcore::{SimDuration, SimRng, SimTime};

/// One handover: at `at`, `client`'s ingress advances to the next shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handover {
    pub at: SimTime,
    pub client: usize,
}

/// The label of the dedicated mobility RNG stream, derived from the trace
/// seed root. Kept public so tests can reproduce the schedule.
pub(crate) const MOBILITY_STREAM: &str = "workload-mobility";

/// Generate a sorted handover schedule: each client performs
/// `per_client` expected handovers (the fractional part is a Bernoulli
/// extra), uniformly placed over the window. Deterministic in `rng`.
pub(crate) fn generate_handovers(
    clients: usize,
    duration: SimDuration,
    per_client: f64,
    rng: &mut SimRng,
) -> Vec<Handover> {
    assert!(per_client >= 0.0, "handovers_per_client must be >= 0");
    if per_client == 0.0 {
        return Vec::new();
    }
    let horizon = duration.as_secs_f64();
    let base = per_client.floor() as usize;
    let extra_p = per_client.fract();
    let mut out = Vec::new();
    for client in 0..clients {
        let n = base + usize::from(extra_p > 0.0 && rng.f64() < extra_p);
        for _ in 0..n {
            out.push(Handover {
                at: SimTime::from_secs_f64(horizon * rng.f64()),
                client,
            });
        }
    }
    out.sort_unstable_by_key(|h| (h.at, h.client));
    out
}

/// Which ingress shard serves `client` at instant `at`: the home shard
/// (`client % shards`) advanced by one for every handover at or before
/// `at`. A request arriving exactly at a handover instant uses the *new*
/// ingress. With a single shard every client is always at shard 0 — the
/// plain testbed — but handovers still trigger flow teardown there.
pub fn ingress_at(handovers: &[Handover], client: usize, at: SimTime, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let past = handovers
        .iter()
        .filter(|h| h.client == client && h.at <= at)
        .count();
    (client + past) % shards
}

/// Each handover paired with the shard the client is *leaving* — the shard
/// whose controller must tear down the client's flows. Returned in schedule
/// order.
pub fn departures(handovers: &[Handover], shards: usize) -> Vec<(usize, Handover)> {
    let mut seen: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    handovers
        .iter()
        .map(|&h| {
            let prior = seen.entry(h.client).or_insert(0);
            let old = if shards <= 1 {
                0
            } else {
                (h.client + *prior) % shards
            };
            *prior += 1;
            (old, h)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn zero_rate_yields_empty_schedule() {
        let mut rng = SimRng::seed_from_u64(1);
        let hs = generate_handovers(100, d(300.0), 0.0, &mut rng);
        assert!(hs.is_empty());
    }

    #[test]
    fn integer_rate_is_exact_per_client() {
        let mut rng = SimRng::seed_from_u64(2);
        let hs = generate_handovers(50, d(300.0), 2.0, &mut rng);
        assert_eq!(hs.len(), 100);
        for c in 0..50 {
            assert_eq!(hs.iter().filter(|h| h.client == c).count(), 2);
        }
        assert!(hs.windows(2).all(|w| w[0].at <= w[1].at), "sorted");
        assert!(hs.iter().all(|h| h.at.as_secs_f64() <= 300.0));
    }

    #[test]
    fn fractional_rate_averages_out() {
        let mut rng = SimRng::seed_from_u64(3);
        let hs = generate_handovers(1000, d(300.0), 0.5, &mut rng);
        assert!((380..=620).contains(&hs.len()), "got {}", hs.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_handovers(40, d(100.0), 1.5, &mut SimRng::seed_from_u64(9));
        let b = generate_handovers(40, d(100.0), 1.5, &mut SimRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn ingress_advances_per_handover() {
        let hs = vec![
            Handover {
                at: t(10.0),
                client: 1,
            },
            Handover {
                at: t(20.0),
                client: 1,
            },
            Handover {
                at: t(15.0),
                client: 2,
            },
        ];
        // client 1, 4 shards: home 1, then 2 after t=10, then 3 after t=20.
        assert_eq!(ingress_at(&hs, 1, t(5.0), 4), 1);
        assert_eq!(
            ingress_at(&hs, 1, t(10.0), 4),
            2,
            "boundary uses new ingress"
        );
        assert_eq!(ingress_at(&hs, 1, t(19.9), 4), 2);
        assert_eq!(ingress_at(&hs, 1, t(25.0), 4), 3);
        // wraps modulo shards
        assert_eq!(ingress_at(&hs, 2, t(300.0), 3), 0);
        // single shard is always 0
        assert_eq!(ingress_at(&hs, 1, t(25.0), 1), 0);
        // untouched client stays home
        assert_eq!(ingress_at(&hs, 3, t(300.0), 4), 3);
    }

    #[test]
    fn departures_track_the_old_shard() {
        let hs = vec![
            Handover {
                at: t(10.0),
                client: 1,
            },
            Handover {
                at: t(15.0),
                client: 2,
            },
            Handover {
                at: t(20.0),
                client: 1,
            },
        ];
        let d = departures(&hs, 4);
        assert_eq!(d.len(), 3);
        assert_eq!(d[0], (1, hs[0])); // client 1 leaves home shard 1
        assert_eq!(d[1], (2, hs[1])); // client 2 leaves home shard 2
        assert_eq!(d[2], (2, hs[2])); // client 1's second handover leaves shard 2
    }
}
