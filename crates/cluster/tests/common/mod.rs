//! The observation-contract rig (DESIGN.md §5i), shared by
//! `observe_exactness.rs` here and `edgemesh/tests/shared_exactness.rs`.
//!
//! The property: a reader that keeps a [`ClusterBackend::observe`] result and
//! reuses it under the controller's validity rule — same
//! [`ClusterBackend::epoch`], `snapped_at <= now < stable_until` — returns
//! status and ready endpoints bit-identical to a fresh read, under any
//! sequence of mutations and at any read instant, including instants earlier
//! than the previous read (which PDES re-stamping produces).

use cluster::{ClusterBackend, ServiceSnapshot, ServiceStatus, ServiceTemplate};
use containers::image::synthesize_layers;
use containers::{ImageManifest, ImageRef};
use proptest::prelude::*;
use registry::{Registry, RegistryProfile, RegistrySet};
use simcore::{DurationDist, SimDuration, SimTime};
use simnet::SocketAddr;

const IMAGE: &str = "nginx:1.23.2";
/// Two services on one backend: the epoch is backend-global, so a mutation
/// of one must also make the held read of the other be taken again.
const SERVICES: [&str; 2] = ["svc-a", "svc-b"];

/// The `&mut` methods of [`ClusterBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Pull,
    Create,
    ScaleUp,
    ScaleDown,
    Remove,
    DeleteImage,
    InjectCrash,
}

#[derive(Debug, Clone)]
pub enum Op {
    /// One backend mutation at the clock, on service `svc`, through the
    /// rig's mutation route `via`.
    Mutate {
        call: Call,
        replicas: u32,
        svc: usize,
        via: usize,
    },
    /// Move the clock forward by this many microseconds.
    Advance(u64),
    /// Read every service through every view at the clock plus this many
    /// microseconds — negative lands before earlier reads.
    Read(i64),
}

pub fn ops() -> impl Strategy<Value = Vec<Op>> {
    let call = prop_oneof![
        2 => Just(Call::Pull),
        3 => Just(Call::Create),
        4 => Just(Call::ScaleUp),
        2 => Just(Call::ScaleDown),
        1 => Just(Call::Remove),
        1 => Just(Call::DeleteImage),
        2 => Just(Call::InjectCrash),
    ];
    // Wasm instantiates in milliseconds, Docker starts in hundreds of them,
    // Kubernetes takes seconds: mix the scales so reads land on both sides
    // of every backend's breakpoints.
    let advance = prop_oneof![0u64..20_000, 0u64..1_000_000, 0u64..10_000_000];
    let offset = prop_oneof![
        -20_000i64..20_000,
        -1_000_000i64..1_000_000,
        -10_000_000i64..10_000_000
    ];
    prop::collection::vec(
        prop_oneof![
            5 => (call, 0u32..4, 0usize..SERVICES.len(), 0usize..3).prop_map(
                |(call, replicas, svc, via)| Op::Mutate { call, replicas, svc, via }
            ),
            3 => advance.prop_map(Op::Advance),
            4 => offset.prop_map(Op::Read),
        ],
        0..60,
    )
}

/// What the property drives: one backend, reached for mutation through
/// `via`-selected routes and read through one or more views.
pub trait Rig {
    fn mutate<R>(&mut self, via: usize, f: impl FnOnce(&mut dyn ClusterBackend) -> R) -> R;
    fn views(&self) -> usize;
    fn view(&self, i: usize) -> &dyn ClusterBackend;
}

/// A bare backend is its own only route and only view.
impl<B: ClusterBackend> Rig for B {
    fn mutate<R>(&mut self, _via: usize, f: impl FnOnce(&mut dyn ClusterBackend) -> R) -> R {
        f(self)
    }
    fn views(&self) -> usize {
        1
    }
    fn view(&self, _i: usize) -> &dyn ClusterBackend {
        self
    }
}

/// A reader applying the controller's validity rule
/// (`edgectl`'s `AttachedCluster::snapshot`).
#[derive(Default)]
struct CachedReader {
    held: Option<Held>,
}

struct Held {
    epoch: u64,
    snapped_at: SimTime,
    snap: ServiceSnapshot,
    endpoints: Vec<SocketAddr>,
}

impl CachedReader {
    fn read(
        &mut self,
        backend: &dyn ClusterBackend,
        now: SimTime,
        service: &str,
    ) -> (&ServiceStatus, &[SocketAddr]) {
        let epoch = backend.epoch();
        let held = match self.held.take() {
            Some(h) if h.epoch == epoch && h.snapped_at <= now && now < h.snap.stable_until => h,
            _ => {
                let mut endpoints = Vec::new();
                let snap = backend.observe(now, service, Some(&mut endpoints));
                Held {
                    epoch,
                    snapped_at: now,
                    snap,
                    endpoints,
                }
            }
        };
        let held = self.held.insert(held);
        (&held.snap.status, &held.endpoints)
    }
}

fn registries() -> RegistrySet {
    let mut hub = Registry::new(RegistryProfile::docker_hub());
    hub.publish(ImageManifest::new(
        IMAGE,
        synthesize_layers(1, 10_000_000, 3),
    ));
    let mut s = RegistrySet::new();
    s.add(hub);
    s
}

/// Every view's cached read of every service at `at` equals a fresh one, and
/// the provided `status` / `is_ready` / `replica_endpoints` agree with it.
fn check(rig: &impl Rig, readers: &mut [CachedReader], at: SimTime) -> Result<(), String> {
    for v in 0..rig.views() {
        let view = rig.view(v);
        for (s, name) in SERVICES.iter().enumerate() {
            let mut endpoints = Vec::new();
            let fresh = view.observe(at, name, Some(&mut endpoints));
            if fresh.stable_until <= at {
                return Err(format!(
                    "{name}@{at}: stable_until {} is not in the future",
                    fresh.stable_until
                ));
            }
            if view.status(at, name) != fresh.status
                || view.is_ready(at, name) != fresh.status.is_ready()
                || view.replica_endpoints(at, name) != endpoints
                || endpoints.len() > fresh.status.ready_replicas as usize
                || endpoints.is_empty() != (fresh.status.ready_replicas == 0)
            {
                return Err(format!(
                    "{name}@{at}: the provided reads disagree with observe"
                ));
            }
            let (status, cached) = readers[v * SERVICES.len() + s].read(view, at, name);
            if *status != fresh.status || cached != endpoints {
                return Err(format!(
                    "{name}@{at} view {v}: cached ({status:?}, {cached:?}) != fresh ({:?}, {endpoints:?})",
                    fresh.status
                ));
            }
        }
    }
    Ok(())
}

/// Run `ops` against `rig`, checking the property at every `Read` and — so
/// that no mutation can slip between two reads unobserved — at the clock
/// right before and right after every mutation.
pub fn drive(rig: &mut impl Rig, ops: &[Op]) -> Result<(), String> {
    let regs = registries();
    let templates = SERVICES
        .map(|name| ServiceTemplate::single(name, IMAGE, 80, DurationDist::constant_ms(50.0)));
    let mut readers: Vec<CachedReader> = (0..rig.views() * SERVICES.len())
        .map(|_| CachedReader::default())
        .collect();
    let mut now = SimTime::ZERO;
    for op in ops {
        match *op {
            Op::Advance(us) => now += SimDuration::from_micros(us),
            Op::Read(offset_us) => {
                let at = now.as_nanos().saturating_add_signed(offset_us * 1_000);
                check(rig, &mut readers, SimTime::from_nanos(at))?;
            }
            Op::Mutate {
                call,
                replicas,
                svc,
                via,
            } => {
                check(rig, &mut readers, now)?;
                let (tpl, name) = (&templates[svc], SERVICES[svc]);
                // A call's completion instant moves the clock, as the
                // controller's own pacing does; a failed call leaves it.
                let done = rig.mutate(via, |b| match call {
                    Call::Pull => b.pull(now, tpl, &regs).ok(),
                    Call::Create => b.create(now, tpl).ok(),
                    Call::ScaleUp => b.scale_up(now, name, replicas).ok().map(|r| r.accepted_at),
                    Call::ScaleDown => b.scale_down(now, name, replicas).ok(),
                    Call::Remove => b.remove(now, name).ok(),
                    Call::DeleteImage => {
                        b.delete_image(now, &ImageRef::new(IMAGE));
                        None
                    }
                    Call::InjectCrash => {
                        b.inject_crash(now, name);
                        None
                    }
                });
                check(rig, &mut readers, now)?;
                now = now.max(done.unwrap_or(now));
            }
        }
    }
    Ok(())
}
