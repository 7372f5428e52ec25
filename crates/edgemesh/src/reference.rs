//! The interleaved reference engine: `N` ingress shards stepped one instant
//! at a time over one set of shared edge sites.
//!
//! Clients are partitioned statically — client `i` enters the fabric through
//! ingress shard `i % N`, advanced by its handovers (a 5G UPF pins a UE's N6
//! traffic to one ingress the same way). Each shard is one
//! [`testbed::ingress::IngressShard`] driven by the windowed engine's
//! `MeshEngine`: the data path — SYN, PacketIn, FlowMod, release, wakeups,
//! handover teardown — is the one every engine runs. The driver picks the
//! shard whose next activity is earliest (ties by shard index), runs that
//! instant of that shard, sends the status deltas it drained, and scans the
//! mesh for split-brain. What makes this a second, independent statement of
//! the cross-shard protocol is what it does *not* have:
//!
//! * **no windows**: gossip goes out the instant a step drains it, through
//!   the same `Gossip` link as the windowed engine (losses pre-rolled at
//!   send time from the `"mesh-gossip"` stream), so a lossy mesh replays
//!   byte-identically. No core closes a window, so every horizon stays at
//!   zero and an output stamped in the past applies at its stamp, as in the
//!   testbed;
//! * **no replicas and no replay**: each site's backend exists once, behind
//!   a [`SharedHandle`], pre-warmed once, and every shard steers it through
//!   a plain [`SharedBackend`] view — the un-leased duplicate-deployment race
//!   is an observable interleaving instead of a data race;
//! * **no optimistic acquire and no revocation**: the deployment gate is a
//!   synchronous [`LeaseTable`] handle, so a loser is rejected at once
//!   (Cohen et al.'s first-acquirer-wins lease, arXiv:2312.11187);
//! * **a duplicate scan after every step**: a `(service, cluster)` deploying
//!   on two shards at once is a duplicate deployment, recorded for
//!   [`MeshRunResult`] and the mesh audit.
//!
//! The lockstep suite holds the windowed engine ([`crate::par`]) to this one.
//! `shards = 1` never builds a [`MeshSim`] at all:
//! [`crate::run_mesh_scenario`] delegates to [`testbed::Testbed`], keeping
//! pinned traces byte-identical.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use cluster::ClusterBackend;
use edgectl::StatusDelta;
use edgeverify::Violation;
use simcore::{SimDuration, SimTime};
use simnet::SocketAddr;
use testbed::ingress::IngressShard;
use testbed::{bringup, ScenarioConfig};
use workload::Trace;

use crate::lease::LeaseTable;
use crate::par::{
    assemble, shard_core, start_offset, Gossip, MeshEngine, Outbox, ShardFinal, SplitBrain,
};
use crate::result::MeshRunResult;
use crate::shared::{share, SharedBackend, SharedHandle};

/// The assembled mesh.
pub struct MeshSim {
    cfg: ScenarioConfig,
    cores: Vec<IngressShard<StatusDelta>>,
    /// One shared backend per edge site, in site order.
    sites: Vec<SharedHandle>,
    /// Where the trace's t = 0 lies.
    offset: SimDuration,
}

impl MeshSim {
    /// Build a mesh for `cfg` over the given cloud service addresses.
    /// `cfg.mesh.shards` must be ≥ 2 — one controller is the plain
    /// [`testbed::Testbed`] (see [`crate::run_mesh_scenario`]).
    pub fn build(cfg: ScenarioConfig, service_addrs: Vec<SocketAddr>) -> MeshSim {
        let n = cfg.mesh.shards;
        assert!(
            n >= 2,
            "MeshSim needs >= 2 shards; one controller is the plain Testbed"
        );
        let c3 = bringup::topology(&cfg);
        let mut backends = bringup::site_backends(&cfg, &c3);
        let templates = bringup::service_templates(&cfg, service_addrs.len());
        // Pre-warm every shared site once (not once per shard — the sites
        // are shared).
        let setup_end = bringup::prewarm(&cfg, &templates, backends.iter_mut().map(|b| b.as_mut()));
        let sites: Vec<SharedHandle> = backends.into_iter().map(share).collect();
        let lease = cfg.mesh.leases.then(LeaseTable::new);
        let cores = (0..n)
            .map(|s| {
                let views = sites
                    .iter()
                    .map(|h| Box::new(SharedBackend::new(h.clone())) as Box<dyn ClusterBackend>);
                let gate = lease.as_ref().map(|table| table.handle(s));
                let c3 = bringup::topology(&cfg);
                shard_core(&cfg, c3, &service_addrs, templates.clone(), views, gate)
            })
            .collect();
        MeshSim {
            cfg,
            cores,
            sites,
            offset: start_offset(setup_end),
        }
    }

    /// Run a full trace through the mesh.
    pub fn run_trace(self, trace: &Trace) -> MeshRunResult {
        self.run(trace).0
    }

    /// Like [`MeshSim::run_trace`], plus the mesh-coherence audit over the
    /// final state and the split-brain duplicates observed during the run.
    pub fn run_trace_audited(self, trace: &Trace) -> (MeshRunResult, Vec<Violation>) {
        self.run(trace)
    }

    fn run(self, trace: &Trace) -> (MeshRunResult, Vec<Violation>) {
        let MeshSim {
            cfg,
            mut cores,
            sites,
            offset,
        } = self;
        assert_eq!(
            trace.service_addrs, cores[0].service_addrs,
            "mesh must be built with the trace's addresses"
        );
        let leases = cfg.mesh.leases;
        let mut gossip = Gossip::new(&cfg);
        let input = Arc::new((cfg, trace.clone()));
        let requests = &input.1.requests;
        let outbox = Rc::new(RefCell::new(Outbox::default()));
        let mut engines: Vec<MeshEngine> = (0..cores.len())
            .map(|s| MeshEngine::new(s, &input, &outbox))
            .collect();
        for (core, engine) in cores.iter_mut().zip(&mut engines) {
            engine.start(core, offset);
            // An empty run reads the SYN feed ahead, so `next_time` sees it.
            core.run_until(SimTime::ZERO, requests, engine);
        }

        let mut duplicates = SplitBrain::default();
        let mut now = SimTime::ZERO;
        // One step is one instant of one shard, in `(time, shard)` order.
        while let Some((t, s)) = cores
            .iter()
            .enumerate()
            .filter_map(|(s, core)| Some((core.next_time()?, s)))
            .min()
        {
            now = t;
            cores[s].run_until(t + SimDuration::from_nanos(1), requests, &mut engines[s]);
            let deltas = std::mem::take(&mut outbox.borrow_mut().deltas);
            for d in &deltas {
                gossip.fan_out(
                    d,
                    0..cores.len(),
                    |_| SimTime::ZERO,
                    |r, at| cores[r].schedule(at, d.delta),
                );
            }
            duplicates.scan(cores.iter().enumerate().flat_map(|(s, core)| {
                let in_flight = core.controller.in_flight_deployments();
                in_flight.into_iter().map(move |key| (s, key))
            }));
        }

        let finals = cores
            .iter()
            .zip(engines)
            .map(|(core, engine)| ShardFinal::new(core, engine, &sites, now, 0, 0))
            .collect();
        assemble(finals, 1, leases, &gossip, &duplicates, 0)
    }
}
