//! A synthetic stand-in for the paper's `bigFlows.pcap` workload.
//!
//! The paper extracts TCP conversations to public port-80 addresses from a
//! five-minute real traffic capture and keeps destinations receiving ≥ 20
//! requests: **42 services, 1708 requests** (Fig. 9), which — replayed through
//! the controller — produce 42 deployments with up to ~8 deployments/s in the
//! first seconds (Fig. 10).
//!
//! The generator reproduces those marginals: a Zipf-ish popularity law with a
//! 20-request floor, per-service Poisson arrivals over the window, and
//! service "first seen" times drawn from a front-loaded distribution so early
//! seconds see a burst of fresh services, as in real captures where popular
//! flows appear immediately.

use simcore::{SimDuration, SimRng, SimTime};
use simnet::{IpAddr, SocketAddr};

use crate::mobility::Handover;
use crate::spec::WorkloadConfig;

/// Trace shape parameters, defaulting to the paper's numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    pub services: usize,
    pub total_requests: usize,
    pub duration: SimDuration,
    pub min_per_service: usize,
    /// Zipf exponent of the popularity law.
    pub zipf_exponent: f64,
    /// Number of client hosts issuing the requests (the 20 Raspberry Pis).
    pub clients: usize,
    /// Mean of the exponential "service first seen" offset. Small values
    /// front-load deployments (Fig. 10's early burst).
    pub first_seen_mean: SimDuration,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            services: 42,
            total_requests: 1708,
            duration: SimDuration::from_secs(300),
            min_per_service: 20,
            zipf_exponent: 0.9,
            clients: 20,
            first_seen_mean: SimDuration::from_secs(18),
        }
    }
}

impl TraceConfig {
    /// The paper's trace scaled by an integer multiplier: `scale`× the
    /// clients, services and total requests over the same five-minute
    /// window. `scaled(1)` is exactly [`TraceConfig::default`], so all the
    /// paper-calibrated marginals are unchanged at 1×; larger multipliers
    /// keep the per-service floor and popularity law while widening the
    /// service and client populations (the city-scale benchmark dimension).
    pub fn scaled(scale: usize) -> TraceConfig {
        assert!(scale > 0, "scale multiplier must be >= 1");
        let base = TraceConfig::default();
        TraceConfig {
            services: base.services * scale,
            total_requests: base.total_requests * scale,
            clients: base.clients * scale,
            ..base
        }
    }
}

/// One request in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRequest {
    pub at: SimTime,
    /// Index into [`Trace::service_addrs`].
    pub service: usize,
    /// Which client host issues it.
    pub client: usize,
}

/// Put `requests` in trace order, `(at, service, client)`. A `TraceRequest`
/// is exactly that key, so requests with equal keys are identical and the
/// unstable sort returns the same `Vec` a stable one would. The key
/// destructures every field without `..`: adding a field fails to compile
/// here, where that argument is made.
pub(crate) fn sort_requests(requests: &mut [TraceRequest]) {
    requests.sort_unstable_by_key(
        |&TraceRequest {
             at,
             service,
             client,
         }| (at, service, client),
    );
}

/// A generated trace: time-sorted requests plus the synthetic public
/// addresses standing in for the capture's destination IPs.
///
/// ```
/// use simcore::SimRng;
/// use workload::{Trace, TraceConfig};
///
/// let trace = Trace::generate(TraceConfig::default(), &mut SimRng::seed_from_u64(1));
/// assert_eq!(trace.requests.len(), 1708);      // paper Fig. 9
/// assert_eq!(trace.service_addrs.len(), 42);
/// assert!(trace.per_service_counts().iter().all(|&c| c >= 20));
/// ```
#[derive(Debug, Clone)]
pub struct Trace {
    pub requests: Vec<TraceRequest>,
    pub service_addrs: Vec<SocketAddr>,
    pub config: TraceConfig,
    /// Client-mobility schedule (empty for the paper's static replay). See
    /// [`crate::mobility`].
    pub handovers: Vec<Handover>,
}

impl Trace {
    /// Generate a trace. Deterministic in `(config, rng seed)`.
    ///
    /// Thin wrapper over the workload engine's default pipeline
    /// ([`WorkloadConfig::generate`] with the `bigflows` model and no
    /// mobility) — the RNG consumption is byte-identical to the historical
    /// inline generator, so every pinned hash replays unchanged.
    pub fn generate(config: TraceConfig, rng: &mut SimRng) -> Trace {
        WorkloadConfig {
            mix: config,
            ..WorkloadConfig::default()
        }
        .generate(rng)
        .expect("bigflows is a builtin workload model")
    }

    /// Load a trace from CSV text with a `time_s,service,client` header —
    /// the format `edgesim` accepts for replaying externally extracted
    /// captures (the paper extracts its workload from bigFlows.pcap with
    /// tshark; that extraction's output maps 1:1 onto this).
    ///
    /// `service` may be an index (assigned synthetic addresses) and `client`
    /// an index below `clients`.
    pub fn from_csv(text: &str, clients: usize) -> Result<Trace, String> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or("empty trace file")?;
        let cols: Vec<&str> = header.split(',').map(str::trim).collect();
        if cols != ["time_s", "service", "client"] {
            return Err(format!("bad header {cols:?}, want time_s,service,client"));
        }
        let mut requests = Vec::new();
        let mut max_service = 0usize;
        let mut max_time = 0.0f64;
        for (no, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split(',').map(str::trim).collect();
            if parts.len() != 3 {
                return Err(format!("line {}: expected 3 fields", no + 1));
            }
            let at: f64 = parts[0]
                .parse()
                .map_err(|_| format!("line {}: bad time", no + 1))?;
            let service: usize = parts[1]
                .parse()
                .map_err(|_| format!("line {}: bad service", no + 1))?;
            let client: usize = parts[2]
                .parse()
                .map_err(|_| format!("line {}: bad client", no + 1))?;
            if at < 0.0 {
                return Err(format!("line {}: negative time", no + 1));
            }
            if client >= clients {
                return Err(format!("line {}: client {} out of range", no + 1, client));
            }
            max_service = max_service.max(service);
            max_time = max_time.max(at);
            requests.push(TraceRequest {
                at: SimTime::from_secs_f64(at),
                service,
                client,
            });
        }
        if requests.is_empty() {
            return Err("trace has no requests".into());
        }
        sort_requests(&mut requests);
        let services = max_service + 1;
        let service_addrs: Vec<SocketAddr> = (0..services)
            .map(|i| {
                SocketAddr::new(
                    IpAddr::new(93, 184, (i / 250 + 1) as u8, (i % 250 + 1) as u8),
                    80,
                )
            })
            .collect();
        let total = requests.len();
        Ok(Trace {
            requests,
            service_addrs,
            config: TraceConfig {
                services,
                total_requests: total,
                duration: SimDuration::from_secs_f64(max_time.ceil()),
                min_per_service: 0,
                clients,
                ..TraceConfig::default()
            },
            handovers: Vec::new(),
        })
    }

    /// Count of requests per service.
    pub fn per_service_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.config.services];
        for r in &self.requests {
            counts[r.service] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(seed: u64) -> Trace {
        Trace::generate(TraceConfig::default(), &mut SimRng::seed_from_u64(seed))
    }

    #[test]
    fn paper_marginals_hold() {
        let t = trace(1);
        assert_eq!(t.requests.len(), 1708);
        assert_eq!(t.service_addrs.len(), 42);
        let counts = t.per_service_counts();
        assert!(
            counts.iter().all(|&c| c >= 20),
            "floor violated: {counts:?}"
        );
        assert_eq!(counts.iter().sum::<usize>(), 1708);
    }

    #[test]
    fn popularity_is_skewed() {
        let t = trace(2);
        let mut counts = t.per_service_counts();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // top service well above the floor; tail at/near the floor
        assert!(counts[0] > 80, "top={}", counts[0]);
        assert!(counts[41] >= 20 && counts[41] < 40, "tail={}", counts[41]);
    }

    #[test]
    fn requests_sorted_and_within_window() {
        let t = trace(3);
        let horizon = t.config.duration.as_secs_f64();
        let mut prev = SimTime::ZERO;
        for r in &t.requests {
            assert!(r.at >= prev);
            assert!(r.at.as_secs_f64() <= horizon);
            assert!(r.client < 20);
            prev = r.at;
        }
    }

    #[test]
    fn deployments_front_loaded() {
        // Fig. 10: most services appear early; a burst in the first seconds.
        let t = trace(4);
        let mut first = vec![SimTime::FAR_FUTURE; t.config.services];
        for r in &t.requests {
            first[r.service] = first[r.service].min(r.at);
        }
        let early = first.iter().filter(|t| t.as_secs_f64() < 60.0).count();
        assert!(
            early >= 28,
            "only {early}/42 services appear in the first minute"
        );
        // all 42 deployments happen (every service is requested)
        assert!(first.iter().all(|&f| f != SimTime::FAR_FUTURE));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = trace(9);
        let b = trace(9);
        assert_eq!(a.requests, b.requests);
        let c = trace(10);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn distinct_service_addresses() {
        let t = trace(5);
        let mut addrs = t.service_addrs.clone();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 42);
        assert!(t.service_addrs.iter().all(|a| a.port == 80));
    }

    #[test]
    fn clients_all_participate() {
        let t = trace(6);
        let mut seen = [false; 20];
        for r in &t.requests {
            seen[r.client] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 20 Pis issue requests");
    }

    #[test]
    fn custom_config_respected() {
        let cfg = TraceConfig {
            services: 5,
            total_requests: 200,
            duration: SimDuration::from_secs(60),
            min_per_service: 10,
            clients: 3,
            ..TraceConfig::default()
        };
        let t = Trace::generate(cfg, &mut SimRng::seed_from_u64(7));
        assert_eq!(t.requests.len(), 200);
        assert_eq!(t.service_addrs.len(), 5);
        assert!(t.per_service_counts().iter().all(|&c| c >= 10));
    }

    #[test]
    fn csv_roundtrip() {
        let csv = "time_s,service,client\n0.5,0,1\n1.25,1,0\n0.1,0,2\n";
        let t = Trace::from_csv(csv, 4).unwrap();
        assert_eq!(t.requests.len(), 3);
        assert_eq!(t.service_addrs.len(), 2);
        // sorted by time
        assert!(t.requests[0].at < t.requests[1].at);
        assert_eq!(t.requests[0].client, 2);
        assert_eq!(t.config.clients, 4);
        assert_eq!(t.config.duration, SimDuration::from_secs(2));
    }

    /// Duplicate rows stay, and rows tied on `time_s` fall into service
    /// order, then client order, whatever their order in the file.
    #[test]
    fn csv_orders_ties_by_service_then_client() {
        let csv = "time_s,service,client\n\
                   1.0,2,1\n\
                   1.0,0,3\n\
                   0.5,4,0\n\
                   1.0,2,0\n\
                   1.0,0,3\n\
                   1.0,2,1\n";
        let t = Trace::from_csv(csv, 4).unwrap();
        let order: Vec<(f64, usize, usize)> = t
            .requests
            .iter()
            .map(|r| (r.at.as_secs_f64(), r.service, r.client))
            .collect();
        assert_eq!(
            order,
            [
                (0.5, 4, 0),
                (1.0, 0, 3),
                (1.0, 0, 3),
                (1.0, 2, 0),
                (1.0, 2, 1),
                (1.0, 2, 1),
            ]
        );
    }

    #[test]
    fn csv_roundtrips_generated_trace() {
        let t = Trace::generate(TraceConfig::default(), &mut SimRng::seed_from_u64(4));
        let mut csv = String::from("time_s,service,client\n");
        for r in &t.requests {
            let at = r.at.as_secs_f64();
            csv.push_str(&format!("{at:.6},{},{}\n", r.service, r.client));
        }
        let back = Trace::from_csv(&csv, t.config.clients).unwrap();
        assert_eq!(back.requests.len(), t.requests.len());
        assert_eq!(back.service_addrs, t.service_addrs);
        // times survive to microsecond precision
        for (a, b) in t.requests.iter().zip(&back.requests) {
            assert!((a.at.as_secs_f64() - b.at.as_secs_f64()).abs() < 1e-5);
            assert_eq!(a.service, b.service);
            assert_eq!(a.client, b.client);
        }
    }

    #[test]
    fn csv_rejects_bad_input() {
        assert!(Trace::from_csv("", 1).is_err());
        assert!(Trace::from_csv("a,b,c\n", 1).is_err());
        assert!(Trace::from_csv("time_s,service,client\n", 1).is_err());
        assert!(Trace::from_csv("time_s,service,client\nx,0,0\n", 1).is_err());
        assert!(
            Trace::from_csv("time_s,service,client\n1.0,0,5\n", 2).is_err(),
            "client range"
        );
        assert!(Trace::from_csv("time_s,service,client\n-1,0,0\n", 2).is_err());
    }

    #[test]
    #[should_panic(expected = "floor")]
    fn impossible_floor_panics() {
        let cfg = TraceConfig {
            services: 50,
            total_requests: 100,
            min_per_service: 20,
            ..TraceConfig::default()
        };
        Trace::generate(cfg, &mut SimRng::seed_from_u64(1));
    }
}
