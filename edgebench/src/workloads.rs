//! The six workloads: how each derives its trace and scenario from the seed.
//!
//! Every trace comes from `SimRng::seed_from_u64(seed ^ 0xB16F_1085)` — the
//! cityscale bench's derivation, so `city_100x` / `city_1000x` at seed 42
//! reproduce the hashes committed in `BENCH_cityscale.json` — and covers
//! 300 s of `SimTime`. The simulator is a batch job, so every workload is a
//! closed replay of its generated trace: "rate" is requests simulated per
//! host second at the stated input size.

use cluster::{ClusterKind, SiteCapacity};
use simcore::{SimDuration, SimRng};
use testbed::{MeshParams, PhaseSetup, ScenarioConfig, SchedulerSpec, SiteSpec, Testbed};
use workload::{Trace, TraceConfig};

/// `--quick` divides every workload's scale by this.
const QUICK_DIVISOR: usize = 10;

/// Seeds `churn_k8s` may draw its inputs from, per `--seed`
/// (see [`Workload::input_seed`]).
const CHURN_CANDIDATES: u64 = 8;
/// How much of a candidate's trace, from its first request on, the screening
/// run replays: the race that sets the number of wakeup chains is over within
/// the first second.
const CHURN_SCREEN: SimDuration = SimDuration::from_secs(10);
/// A candidate whose screening run schedules at most this many times the
/// events of the leanest one is as lean: at full size two-chain candidates
/// schedule 88 000 to 105 000 events there, three-chain ones 134 000 and up.
const CHURN_SCREEN_SLACK: f64 = 1.3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    City100x,
    City1000x,
    FlowReuse,
    ChurnK8s,
    Spill3Tier,
    Mesh4x2,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the long form.
    pub why: &'static str,
    /// Metrics hash of the full-size run at seed 42, as the commit that
    /// defined the benchmark produced it.
    pub pin_seed42: u64,
}

pub const PIN_SEED: u64 = 42;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        kind: Kind::City100x,
        name: "city_100x",
        why: "slow path at cache-resident size: 99% of 170800 requests miss the switch table and take PacketIn -> controller -> FlowMod; 5.1 events/request",
        pin_seed42: 0x05ac_1606_1e33_b71f,
    },
    Workload {
        kind: Kind::City1000x,
        name: "city_1000x",
        why: "same layers as city_100x with state ten times larger than the caches (1.708M requests, 42000 services); its req/s against city_100x is the ROADMAP cliff",
        pin_seed42: 0x1fe0_eecc_8e31_547b,
    },
    Workload {
        kind: Kind::FlowReuse,
        name: "flow_reuse",
        why: "fast path the paper aims for: 1.708M requests over 840 client-service pairs, 99.8% switch-table hits, 1.0 events/request; controller changes must not move it",
        pin_seed42: 0x46cc_0a03_c3c3_9e4e,
    },
    Workload {
        kind: Kind::ChurnK8s,
        name: "churn_k8s",
        why: "deployment machinery does the work: cold Kubernetes site, 30 s idle scale-down, 60 s remove; 8892 deployments and 13 events/request on the city_100x trace",
        pin_seed42: 0x93e9_c835_86e0_d530,
    },
    Workload {
        kind: Kind::Spill3Tier,
        name: "spill_3tier",
        why: "scheduler snapshot and tier-spill decide over three capacity-constrained Docker tiers with admission bookings on every PacketIn; same trace as city_100x",
        pin_seed42: 0x323e_4b0f_4db9_6060,
    },
    Workload {
        kind: Kind::Mesh4x2,
        name: "mesh_4x2",
        why: "conservative-PDES mesh: 4 shards on 2 threads, 50 ms link; window barriers, gossip, leases and replica replay at 131 events/request on the city_100x trace",
        pin_seed42: 0x9dbd_a66d_dd47_1022,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The paper-trace multiplier of this workload (`flow_reuse` multiplies
    /// only the request count, not the service and client populations).
    fn scale(&self, quick: bool) -> usize {
        let full = if self.kind == Kind::City1000x {
            1000
        } else {
            100
        };
        if quick {
            full / QUICK_DIVISOR
        } else {
            full
        }
    }

    pub fn trace_config(&self, quick: bool) -> TraceConfig {
        let scale = self.scale(quick);
        match self.kind {
            Kind::FlowReuse => TraceConfig {
                total_requests: TraceConfig::default().total_requests * 10 * scale,
                ..TraceConfig::default()
            },
            _ => TraceConfig::scaled(scale),
        }
    }

    /// The seed the generators receive for `--seed seed`: the seed itself,
    /// except on `churn_k8s`.
    ///
    /// With `scale_down_idle` the controller always has a FlowMemory expiry
    /// ahead, so the testbed's wakeup chain never ends — and every time a new
    /// deployment's first step undercuts the armed wakeup, the superseded
    /// event stays queued and becomes one more chain that re-arms itself to
    /// the end of the run. How often that happens is settled by which of the
    /// first few deployments steps first: at full size 2 chains at 27 of
    /// seeds 1 to 40, 3 at 11 and 4 at 2, each extra one costing 680 000 no-op
    /// wakeups and a quarter of the run's wall time. Runs at different seeds
    /// would then time different amounts of work, so the workload draws its
    /// inputs from the first of [`CHURN_CANDIDATES`] seed-derived candidates
    /// that is as lean as the leanest, judged by the events a replay of the
    /// trace's first [`CHURN_SCREEN`] schedules. Once the testbed stops
    /// duplicating chains every candidate is as lean and this is `seed`.
    pub fn input_seed(&self, seed: u64, quick: bool) -> u64 {
        if self.kind != Kind::ChurnK8s {
            return seed;
        }
        let candidates: Vec<u64> = (0..CHURN_CANDIDATES)
            .map(|j| seed.wrapping_add(j << 32))
            .collect();
        let events: Vec<u64> = candidates
            .iter()
            .map(|&candidate| self.screening_events(candidate, quick))
            .collect();
        let leanest = events.iter().copied().min().unwrap_or(0);
        let lean = |&e: &u64| e as f64 <= leanest as f64 * CHURN_SCREEN_SLACK;
        candidates[events.iter().position(lean).unwrap_or(0)]
    }

    /// Events the testbed schedules replaying the first [`CHURN_SCREEN`] of
    /// the trace generated from `candidate`.
    fn screening_events(&self, candidate: u64, quick: bool) -> u64 {
        let mut trace = self.generate(candidate, quick);
        let Some(first) = trace.requests.first().map(|r| r.at) else {
            return 0;
        };
        let kept = trace
            .requests
            .partition_point(|r| r.at < first + CHURN_SCREEN);
        trace.requests.truncate(kept);
        let cfg = self.scenario(candidate, quick, &trace);
        Testbed::build(cfg, trace.service_addrs.clone())
            .run_trace(&trace)
            .events_scheduled
    }

    /// `seed` (an [`Workload::input_seed`]) reaches only this generator and
    /// `ScenarioConfig::seed`.
    pub fn generate(&self, seed: u64, quick: bool) -> Trace {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xB16F_1085);
        Trace::generate(self.trace_config(quick), &mut rng)
    }

    pub fn scenario(&self, seed: u64, quick: bool, trace: &Trace) -> ScenarioConfig {
        let scale = self.scale(quick);
        let one_site = |kind| vec![(SiteSpec::egs("egs-0").with_nodes(scale), kind)];
        let mut cfg = ScenarioConfig {
            seed,
            clients: trace.config.clients,
            ..ScenarioConfig::default()
        };
        match self.kind {
            Kind::City100x | Kind::City1000x => cfg.sites = one_site(ClusterKind::Docker),
            // The default scenario: one single-node Docker EGS.
            Kind::FlowReuse => {}
            Kind::ChurnK8s => {
                cfg.sites = one_site(ClusterKind::Kubernetes);
                cfg.phase_setup = PhaseSetup::Cold;
                cfg.controller.scale_down_idle = true;
                cfg.controller.memory_idle_timeout = SimDuration::from_secs(30);
                cfg.controller.remove_after = Some(SimDuration::from_secs(60));
            }
            Kind::Spill3Tier => {
                cfg.sites = constrained_tiers(scale);
                cfg.scheduler = SchedulerSpec::tier_spill();
            }
            Kind::Mesh4x2 => {
                cfg.sites = one_site(ClusterKind::Docker);
                cfg.mesh = MeshParams {
                    shards: 4,
                    // Two threads = this host's core count; never more.
                    threads: 2,
                    link_latency: SimDuration::from_millis(50),
                    ..MeshParams::default()
                };
            }
        }
        cfg
    }
}

/// `bench --bin sched`'s capacity-constrained continuum (small near edge,
/// mid-size metro EGS, large regional site) with node counts and capacities
/// multiplied by the workload scale.
fn constrained_tiers(scale: usize) -> Vec<(SiteSpec, ClusterKind)> {
    let cpu = |millis: u32| millis * scale as u32;
    let mem = |mib: u64| mib * scale as u64;
    let mut near = SiteSpec::pi("near-edge", SimDuration::from_micros(200))
        .with_nodes(2 * scale)
        .with_capacity(
            SiteCapacity::new(cpu(2_000), mem(3_072)).with_max_replicas(10 * scale as u32),
        );
    near.labels = vec!["tier:near".into()];
    let mut metro = SiteSpec::egs("metro-egs").with_nodes(scale).with_capacity(
        SiteCapacity::new(cpu(8_000), mem(16_384)).with_max_replicas(40 * scale as u32),
    );
    metro.latency = SimDuration::from_millis(2);
    metro.labels = vec!["tier:metro".into()];
    let mut regional = SiteSpec::egs("regional-dc")
        .with_nodes(4 * scale)
        .with_capacity(SiteCapacity::new(cpu(64_000), mem(131_072)));
    regional.latency = SimDuration::from_millis(8);
    regional.labels = vec!["tier:regional".into()];
    [near, metro, regional]
        .into_iter()
        .map(|site| (site, ClusterKind::Docker))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_the_issue() {
        let size = |name: &str, quick| {
            let c = by_name(name).unwrap().trace_config(quick);
            (c.total_requests, c.services, c.clients)
        };
        assert_eq!(size("city_100x", false), (170_800, 4_200, 2_000));
        assert_eq!(size("city_1000x", false), (1_708_000, 42_000, 20_000));
        assert_eq!(size("flow_reuse", false), (1_708_000, 42, 20));
        assert_eq!(size("mesh_4x2", false), (170_800, 4_200, 2_000));
        assert_eq!(size("city_100x", true), (17_080, 420, 200));
        assert_eq!(size("flow_reuse", true), (170_800, 42, 20));
    }

    #[test]
    fn same_seed_same_trace() {
        let w = by_name("city_100x").unwrap();
        assert_eq!(w.generate(7, true).requests, w.generate(7, true).requests);
        assert_ne!(w.generate(7, true).requests, w.generate(8, true).requests);
    }

    #[test]
    fn only_churn_screens_its_seed_and_picks_a_candidate_of_it() {
        for w in WORKLOADS.iter().filter(|w| w.kind != Kind::ChurnK8s) {
            assert_eq!(w.input_seed(7, true), 7, "{}", w.name);
        }
        let churn = by_name("churn_k8s").unwrap();
        let chosen = churn.input_seed(7, true);
        assert_eq!(chosen, churn.input_seed(7, true));
        assert_eq!(chosen & 0xFFFF_FFFF, 7);
        assert!(chosen >> 32 < CHURN_CANDIDATES);
        // The chosen candidate is as lean as any of the eight.
        let events = |seed| churn.screening_events(seed, true) as f64;
        let leanest = (0..CHURN_CANDIDATES)
            .map(|j| events(7 + (j << 32)))
            .fold(f64::INFINITY, f64::min);
        assert!(events(chosen) <= leanest * CHURN_SCREEN_SLACK);
    }

    #[test]
    fn unknown_workload_is_none() {
        assert!(by_name("city_10x").is_none());
    }
}
