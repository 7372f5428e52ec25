//! The results of a mesh run ([`crate::par`], or the plain testbed for
//! `shards = 1`).
//!
//! [`MeshRunResult::mesh_trace`] is the canonical determinism artifact: a
//! textual rendering of everything a run produced, hashed by
//! [`MeshRunResult::mesh_hash`]. The trace deliberately contains **no
//! thread-dependent quantity** — window counts, barrier stalls and event
//! totals are pure functions of the scenario and seed, and the effective
//! thread count is carried outside the trace — so the windowed engine's hash
//! is byte-identical for any thread count by construction.

use simcore::{Lit, SimTime, TraceSink};

/// A completed request: which shard released it, when, and through which
/// switch port (cloud, a site, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshRecord {
    pub tag: u64,
    pub shard: usize,
    pub released: SimTime,
    pub port: usize,
}

/// Per-shard controller counters at the end of a run.
#[derive(Debug, Clone, Default)]
pub struct ShardSummary {
    pub deployments: u64,
    pub memory_hits: u64,
    pub cloud_forwards: u64,
    pub held_requests: u64,
    pub detoured_requests: u64,
    pub retargets: u64,
    pub scale_downs: u64,
    pub removes: u64,
    /// Deployment starts this shard abandoned because another shard held
    /// the lease — duplicate deployments avoided, from this shard's side.
    pub lease_rejections: u64,
    /// Deployment machines this shard aborted because the window-boundary
    /// merge awarded the lease to another shard.
    pub lease_revocations: u64,
    /// Remote status deltas applied.
    pub remote_deltas: u64,
}

impl ShardSummary {
    /// One shard's counters: its controller's stats plus the machines it
    /// aborted on a lease revocation.
    pub(crate) fn of(st: &edgectl::ControllerStats, lease_revocations: u64) -> ShardSummary {
        ShardSummary {
            deployments: st.deployments.len() as u64,
            memory_hits: st.memory_hits,
            cloud_forwards: st.cloud_forwards,
            held_requests: st.held_requests,
            detoured_requests: st.detoured_requests,
            retargets: st.retargets,
            scale_downs: st.scale_downs,
            removes: st.removals,
            lease_rejections: st.lease_rejections,
            lease_revocations,
            remote_deltas: st.remote_deltas,
        }
    }
}

/// Everything a mesh run produces.
#[derive(Debug)]
pub struct MeshRunResult {
    pub shards: usize,
    /// Threads that executed the run, the calling thread included (1 for
    /// the `shards = 1` delegation). Deliberately absent from the trace: the
    /// hash must not depend on it.
    pub threads: usize,
    pub leases: bool,
    /// Requests whose SYN was released into the fabric.
    pub completed: u64,
    pub lost: u64,
    /// Deployment machines completed, summed over shards.
    pub deployments: u64,
    /// Distinct `(service, cluster)` pairs observed deploying on two or more
    /// shards concurrently — split-brain duplicates that actually happened.
    pub duplicate_deployments: u64,
    /// Deployment duplicates the protocol prevented: starts abandoned at the
    /// lease gate plus machines aborted by a window-boundary revocation.
    pub duplicate_deployments_avoided: u64,
    /// Machines aborted by lease revocation, summed over shards.
    pub lease_revocations: u64,
    pub deltas_sent: u64,
    /// Deliveries lost on the mesh link (each one cost one `gossip_interval`
    /// of extra staleness before its retransmission).
    pub deltas_lost: u64,
    pub delta_deliveries: u64,
    /// Σ (delivery instant − delta origin) over all deliveries, ns.
    pub staleness_ns_total: u128,
    /// Σ (last delivery instant − delta origin) over fully-propagated
    /// deltas, ns — how long the mesh took to converge on each fact.
    pub convergence_ns_total: u128,
    pub converged_deltas: u64,
    pub scale_downs: u64,
    pub removes: u64,
    pub retargets: u64,
    /// Client handovers processed across all shards: a mobile client left
    /// one ingress for another and the departing controller tore its flows
    /// down. In the trace only when non-zero, so every pinned static-client
    /// hash stays byte-identical.
    pub handovers: u64,
    /// Synchronization windows executed (0 for `shards = 1`).
    pub windows: u64,
    /// Shard-windows that executed zero events — the shard only waited at
    /// the barrier (0 for `shards = 1`).
    pub barrier_stalls: u64,
    /// Total events executed across all shards.
    pub events: u64,
    pub shard_stats: Vec<ShardSummary>,
    /// Completion records (empty for the `shards = 1` delegation, which
    /// keeps its full single-controller records in `single`).
    pub records: Vec<MeshRecord>,
    /// Sorted tags of requests accounted as lost — the session-continuity
    /// analysis's loss ledger (a tag neither completed nor listed here was
    /// blackholed). Deliberately NOT part of [`MeshRunResult::mesh_trace`]:
    /// `lost` already carries the count.
    pub lost_tags: Vec<u64>,
    /// The plain testbed result backing a `shards = 1` run.
    pub single: Option<Box<testbed::RunResult>>,
}

impl MeshRunResult {
    /// Wrap a single-controller [`testbed::RunResult`] so `shards = 1` mesh
    /// runs are the plain testbed, byte for byte.
    pub(crate) fn from_single(result: testbed::RunResult) -> MeshRunResult {
        MeshRunResult {
            shards: 1,
            threads: 1,
            leases: true,
            completed: result.records.len() as u64,
            lost: result.lost,
            deployments: result.deployments.len() as u64,
            duplicate_deployments: 0,
            duplicate_deployments_avoided: 0,
            lease_revocations: 0,
            deltas_sent: 0,
            deltas_lost: 0,
            delta_deliveries: 0,
            staleness_ns_total: 0,
            convergence_ns_total: 0,
            converged_deltas: 0,
            scale_downs: result.scale_downs,
            removes: result.removes,
            retargets: result.retargets,
            handovers: result.handovers,
            windows: 0,
            barrier_stalls: 0,
            events: result.events_scheduled,
            shard_stats: Vec::new(),
            records: Vec::new(),
            lost_tags: Vec::new(),
            single: Some(Box::new(result)),
        }
    }

    /// Mean delta staleness (delivery lag behind the fact) in milliseconds.
    pub fn mean_staleness_ms(&self) -> f64 {
        if self.delta_deliveries == 0 {
            return 0.0;
        }
        self.staleness_ns_total as f64 / 1e6 / self.delta_deliveries as f64
    }

    /// Mean time for a delta to reach every shard, in milliseconds.
    pub fn mean_convergence_ms(&self) -> f64 {
        if self.converged_deltas == 0 {
            return 0.0;
        }
        self.convergence_ns_total as f64 / 1e6 / self.converged_deltas as f64
    }

    /// Barrier stalls per window, averaged over the run (0 when the run had
    /// no windows, as with `shards = 1`).
    pub fn stalls_per_window(&self) -> f64 {
        if self.windows == 0 {
            return 0.0;
        }
        self.barrier_stalls as f64 / self.windows as f64
    }

    /// Canonical textual trace — the mesh determinism artifact, same role as
    /// `RunResult::metrics_trace`. A `shards = 1` run returns the inner
    /// testbed trace verbatim, so its hash equals the pinned
    /// single-controller hash by construction.
    pub fn mesh_trace(&self) -> String {
        let mut out = String::with_capacity(48 * self.records.len() + 1024);
        self.write_trace(&mut out);
        out
    }

    /// FNV-1a over [`MeshRunResult::mesh_trace`], streamed into the hash
    /// state without materializing the trace (see `simcore::FnvStream`).
    pub fn mesh_hash(&self) -> u64 {
        let mut h = simcore::FnvStream::new();
        self.write_trace(&mut h);
        h.finish()
    }

    /// The one formatter behind [`MeshRunResult::mesh_trace`] and
    /// [`MeshRunResult::mesh_hash`].
    fn write_trace<W: TraceSink>(&self, out: &mut W) {
        if let Some(single) = &self.single {
            return single.write_metrics(out);
        }
        let _ = writeln!(
            out,
            "mesh shards={} leases={} completed={} lost={} duplicates={} avoided={} \
             revocations={} deltas_sent={} deltas_lost={} deliveries={} staleness_ns={} \
             convergence_ns={} converged={} windows={} stalls={} events={}",
            self.shards,
            self.leases,
            self.completed,
            self.lost,
            self.duplicate_deployments,
            self.duplicate_deployments_avoided,
            self.lease_revocations,
            self.deltas_sent,
            self.deltas_lost,
            self.delta_deliveries,
            self.staleness_ns_total,
            self.convergence_ns_total,
            self.converged_deltas,
            self.windows,
            self.barrier_stalls,
            self.events,
        );
        // Mobility line only when live: static-client hashes predate it and
        // must stay byte-identical.
        if self.handovers > 0 {
            let _ = writeln!(out, "handovers={}", self.handovers);
        }
        for (i, s) in self.shard_stats.iter().enumerate() {
            let _ = writeln!(
                out,
                "shard={i} deployments={} memory_hits={} cloud={} held={} detoured={} \
                 retargets={} scale_downs={} removes={} lease_rejections={} \
                 lease_revocations={} remote_deltas={}",
                s.deployments,
                s.memory_hits,
                s.cloud_forwards,
                s.held_requests,
                s.detoured_requests,
                s.retargets,
                s.scale_downs,
                s.removes,
                s.lease_rejections,
                s.lease_revocations,
                s.remote_deltas,
            );
        }
        for r in &self.records {
            write_record_line(out, r);
        }
    }
}

static REQ_TAG: Lit = Lit::new("req tag=");
static SHARD: Lit = Lit::new(" shard=");
static RELEASED_NS: Lit = Lit::new(" released_ns=");
static PORT: Lit = Lit::new(" port=");
static NEWLINE: Lit = Lit::new("\n");

/// One `req tag=… shard=… released_ns=… port=…` line of the mesh trace: five
/// literals and four decimals, the bytes of the `writeln!` it replaces
/// (`mesh_line_equals_fmt`).
fn write_record_line<W: TraceSink>(out: &mut W, r: &MeshRecord) {
    out.lit(&REQ_TAG);
    out.decimal(r.tag);
    out.lit(&SHARD);
    out.decimal(r.shard as u64);
    out.lit(&RELEASED_NS);
    out.decimal(r.released.as_nanos());
    out.lit(&PORT);
    out.decimal(r.port as u64);
    out.lit(&NEWLINE);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::fmt::Write as _;

    fn record_strategy() -> impl Strategy<Value = MeshRecord> {
        // Magnitudes from one digit to all twenty, not only large values.
        let wide = || (0u32..64, any::<u64>()).prop_map(|(shift, v)| v >> shift);
        (wide(), wide(), wide(), wide()).prop_map(|(tag, shard, released, port)| MeshRecord {
            tag,
            shard: shard as usize,
            released: SimTime::from_nanos(released),
            port: port as usize,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The per-record line written field by field is, byte for byte, the
        /// `writeln!` it replaced — into a `String` and into the hash.
        #[test]
        fn mesh_line_equals_fmt(records in prop::collection::vec(record_strategy(), 0..8)) {
            let mut reference = String::new();
            let mut fast = String::new();
            let mut hashed = simcore::FnvStream::new();
            for r in &records {
                writeln!(
                    reference,
                    "req tag={} shard={} released_ns={} port={}",
                    r.tag,
                    r.shard,
                    r.released.as_nanos(),
                    r.port,
                )
                .unwrap();
                write_record_line(&mut fast, r);
                write_record_line(&mut hashed, r);
            }
            prop_assert_eq!(&fast, &reference);
            prop_assert_eq!(
                hashed.finish(),
                simcore::FnvStream::hash_bytes(reference.as_bytes())
            );
        }
    }
}
