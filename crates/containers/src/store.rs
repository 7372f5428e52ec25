//! Per-node image storage: a content-addressed layer store with reference
//! counting, plus the catalog of complete images present on the node.
//!
//! Behaviours from the paper this reproduces:
//!
//! * "Ideally, the required service image is cached already" — presence checks
//!   gate the Pull phase;
//! * "Even if a container image is deleted, some of its layers may be used by
//!   other images. Therefore, the next time the system pulls the same image
//!   again, it may no longer have to pull all layers" — layers are
//!   ref-counted and [`ImageStore::missing_layers`] reports only what must
//!   actually be downloaded.

use simcore::DetHashMap;

use crate::image::{ImageManifest, ImageRef, Layer, LayerDigest};

/// Occupancy counters for a node's store.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct StoreStats {
    pub(crate) images: usize,
    pub(crate) layers: usize,
    pub(crate) disk_bytes: u64,
}

/// The image/layer store of a single node.
#[derive(Debug, Default, Clone)]
pub struct ImageStore {
    /// Layers on disk with the number of stored images referencing each.
    layers: DetHashMap<LayerDigest, (Layer, usize)>,
    /// Complete images present (manifest pinned). Probed by every
    /// controller-side readiness check, so a fast deterministic hasher
    /// (DESIGN.md §5i) rather than std's SipHash.
    images: DetHashMap<ImageRef, ImageManifest>,
}

impl ImageStore {
    pub fn new() -> ImageStore {
        ImageStore::default()
    }

    /// Is the complete image present (all layers extracted, manifest known)?
    pub fn has_image(&self, image: &ImageRef) -> bool {
        self.images.contains_key(image)
    }

    /// Layers of `manifest` that are *not* on disk — the actual pull set.
    pub fn missing_layers(&self, manifest: &ImageManifest) -> Vec<Layer> {
        manifest
            .layers
            .iter()
            .filter(|l| !self.layers.contains_key(&l.digest))
            .copied()
            .collect()
    }

    /// Record a completed pull: all layers present, image catalogued.
    /// Idempotent — re-adding an existing image does not double-count refs.
    pub fn add_image(&mut self, manifest: ImageManifest) {
        if self.images.contains_key(&manifest.reference) {
            return;
        }
        for layer in &manifest.layers {
            let slot = self.layers.entry(layer.digest).or_insert((*layer, 0));
            slot.1 += 1;
        }
        self.images.insert(manifest.reference.clone(), manifest);
    }

    /// Delete an image; layers still referenced by other images stay on disk.
    /// Returns `true` if the image was present.
    pub fn remove_image(&mut self, image: &ImageRef) -> bool {
        let Some(manifest) = self.images.remove(image) else {
            return false;
        };
        for layer in &manifest.layers {
            if let Some(slot) = self.layers.get_mut(&layer.digest) {
                slot.1 -= 1;
                if slot.1 == 0 {
                    self.layers.remove(&layer.digest);
                }
            }
        }
        true
    }

    #[cfg(test)]
    pub(crate) fn stats(&self) -> StoreStats {
        StoreStats {
            images: self.images.len(),
            layers: self.layers.len(),
            disk_bytes: self
                .layers
                .values()
                .map(|(l, _)| l.uncompressed_bytes)
                .sum(),
        }
    }
}

#[cfg(test)]
mod model_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::synthesize_layers;

    fn nginx() -> ImageManifest {
        ImageManifest::new("nginx:1.23.2", synthesize_layers(1, 141_000_000, 6))
    }

    /// Shares nginx's base layers (paper: "popular base layers … might also be
    /// included in other cached images").
    fn nginx_py() -> ImageManifest {
        let mut layers = nginx().layers;
        layers.extend(synthesize_layers(2, 46_000_000, 1));
        ImageManifest::new("josefhammer/env-writer-py", layers)
    }

    #[test]
    fn empty_store_misses_everything() {
        let s = ImageStore::new();
        let m = nginx();
        assert!(!s.has_image(&m.reference));
        assert_eq!(s.missing_layers(&m).len(), 6);
        assert_eq!(s.stats(), StoreStats::default());
    }

    #[test]
    fn add_then_all_layers_present() {
        let mut s = ImageStore::new();
        let m = nginx();
        s.add_image(m.clone());
        assert!(s.has_image(&m.reference));
        assert!(s.missing_layers(&m).is_empty());
        assert_eq!(s.stats().images, 1);
        assert_eq!(s.stats().layers, 6);
    }

    #[test]
    fn shared_layers_reduce_pull_set() {
        let mut s = ImageStore::new();
        s.add_image(nginx());
        let missing = s.missing_layers(&nginx_py());
        assert_eq!(missing.len(), 1, "only the python layer is missing");
    }

    #[test]
    fn remove_keeps_shared_layers() {
        let mut s = ImageStore::new();
        s.add_image(nginx());
        s.add_image(nginx_py());
        assert!(s.remove_image(&nginx().reference));
        // nginx gone as an image, but its 6 layers live on via nginx_py
        assert!(!s.has_image(&nginx().reference));
        assert_eq!(s.stats().layers, 7);
        assert!(
            s.missing_layers(&nginx()).is_empty(),
            "re-pull needs zero layers"
        );
        // dropping nginx_py now clears the store
        assert!(s.remove_image(&nginx_py().reference));
        assert_eq!(s.stats().layers, 0);
        assert_eq!(s.stats().disk_bytes, 0);
    }

    #[test]
    fn add_is_idempotent() {
        let mut s = ImageStore::new();
        s.add_image(nginx());
        s.add_image(nginx());
        assert_eq!(s.stats().images, 1);
        assert!(s.remove_image(&nginx().reference));
        assert_eq!(s.stats().layers, 0, "no leaked refcounts");
    }

    #[test]
    fn remove_absent_is_false() {
        let mut s = ImageStore::new();
        assert!(!s.remove_image(&ImageRef::new("ghost:latest")));
    }

    #[test]
    fn disk_bytes_counts_uncompressed() {
        let mut s = ImageStore::new();
        let m = nginx();
        let want: u64 = m.layers.iter().map(|l| l.uncompressed_bytes).sum();
        s.add_image(m);
        assert_eq!(s.stats().disk_bytes, want);
    }
}
