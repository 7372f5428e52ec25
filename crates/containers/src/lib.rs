//! # containers — the simulated container substrate
//!
//! Models the pieces of containerd/runc that the paper's deployment phases
//! (Pull → Create → Scale-Up, Fig. 4) exercise:
//!
//! * [`image`] — references, layers and manifests. Images are *layered*;
//!   pull cost depends on total size **and** layer count, and layers shared
//!   between images are fetched/stored once (paper §IV-C and Fig. 13),
//! * [`store`] — a content-addressed layer store plus per-node image catalog
//!   with reference-counted layers, so deleting an image keeps layers that
//!   other images still use,
//! * [`runtime`] — a containerd-like runtime: container lifecycle
//!   (create → start → running → ready → stopped → removed) with a cost model
//!   in which **namespace setup dominates start time** (Mohan et al. \[23\]:
//!   ~90 % of container startup), plus app-init time until the service port
//!   opens — the quantity the controller's readiness polling observes.

pub mod image;
pub mod runtime;
pub mod store;

pub use image::{ImageManifest, ImageRef, Layer};
pub use runtime::{ContainerId, ContainerSpec, ContainerState, CostModel, Runtime, RuntimeError};
pub use store::ImageStore;
