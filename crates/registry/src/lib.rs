//! # registry — simulated container image registries
//!
//! Models the Pull phase of the paper's deployment pipeline (Fig. 4, evaluated
//! in Fig. 13): fetching an image manifest and downloading/extracting the
//! missing layers from a registry, where the registry can be
//!
//! * **Docker Hub** — WAN round trips, token auth, moderate bandwidth,
//! * **Google Container Registry** — the ResNet image's home,
//! * **a private LAN registry** — the paper's alternative that improves pull
//!   times by ~1.5–2 s.
//!
//! The pull-time model accounts for what the paper highlights: total size
//! *and* layer count both matter (per-layer request/verify overhead, bounded
//! download concurrency), and layers already on disk — even from *other*
//! images — are skipped entirely.

pub mod profile;
pub mod pull;
pub mod set;

pub use profile::RegistryProfile;
pub use pull::{PullError, Registry};
pub use set::RegistrySet;
