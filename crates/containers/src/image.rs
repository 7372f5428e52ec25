//! Container images: references, layers, manifests.

use std::fmt;

/// Content digest of a layer (stands in for a sha256).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerDigest(pub u64);

impl fmt::Display for LayerDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sha256:{:016x}", self.0)
    }
}

/// One image layer: compressed wire size (what gets pulled) and uncompressed
/// size (what gets extracted to disk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    pub digest: LayerDigest,
    pub compressed_bytes: u64,
    pub uncompressed_bytes: u64,
}

impl Layer {
    /// A layer with a typical ~2.5x compression ratio.
    pub(crate) fn new(digest: u64, compressed_bytes: u64) -> Layer {
        Layer {
            digest: LayerDigest(digest),
            compressed_bytes,
            uncompressed_bytes: compressed_bytes.saturating_mul(5) / 2,
        }
    }
}

/// An image reference, e.g. `nginx:1.23.2` or
/// `gcr.io/tensorflow-serving/resnet`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ImageRef(pub String);

impl ImageRef {
    pub fn new(s: impl Into<String>) -> ImageRef {
        ImageRef(s.into())
    }

    /// The registry host implied by the reference (everything before the
    /// first `/` if it looks like a host, else the default registry).
    pub fn registry_host(&self) -> &str {
        match self.0.split_once('/') {
            Some((first, _))
                if first.contains('.') || first.contains(':') || first == "localhost" =>
            {
                first
            }
            _ => "registry-1.docker.io",
        }
    }
}

impl fmt::Display for ImageRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// An image manifest: the ordered layer list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageManifest {
    pub reference: ImageRef,
    pub layers: Vec<Layer>,
}

impl ImageManifest {
    pub fn new(reference: impl Into<String>, layers: Vec<Layer>) -> ImageManifest {
        ImageManifest {
            reference: ImageRef::new(reference),
            layers,
        }
    }

    /// Total compressed size (the "Size" column of Table I).
    pub fn compressed_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.compressed_bytes).sum()
    }

    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }
}

/// Deterministically split `total_bytes` into `n` layers whose sizes follow a
/// typical image shape: one large base layer and progressively smaller
/// app/config layers. Digests are derived from `seed` so distinct images get
/// distinct layers while equal inputs are bit-identical across runs.
pub fn synthesize_layers(seed: u64, total_bytes: u64, n: usize) -> Vec<Layer> {
    assert!(n > 0, "image must have at least one layer");
    // Geometric weights 2^(n-1) .. 1: base layer holds about half the bytes.
    let weight_sum: u64 = (0..n).map(|i| 1u64 << i).sum();
    let mut layers = Vec::with_capacity(n);
    let mut assigned = 0u64;
    for i in 0..n {
        let w = 1u64 << (n - 1 - i);
        let bytes = if i == n - 1 {
            total_bytes - assigned // remainder so sizes sum exactly
        } else {
            total_bytes * w / weight_sum
        };
        assigned += bytes;
        // digest derived from (seed, index) via splitmix-like mixing
        let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        layers.push(Layer::new(z ^ (z >> 31), bytes));
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_sizes_sum() {
        let m = ImageManifest::new("nginx:1.23.2", vec![Layer::new(1, 100), Layer::new(2, 50)]);
        assert_eq!(m.compressed_bytes(), 150);
        assert_eq!(m.layer_count(), 2);
    }

    #[test]
    fn registry_host_inference() {
        assert_eq!(
            ImageRef::new("nginx:1.23.2").registry_host(),
            "registry-1.docker.io"
        );
        assert_eq!(
            ImageRef::new("gcr.io/tensorflow-serving/resnet").registry_host(),
            "gcr.io"
        );
        assert_eq!(
            ImageRef::new("registry.local:5000/web-asm").registry_host(),
            "registry.local:5000"
        );
        assert_eq!(
            ImageRef::new("josefhammer/web-asm:amd64").registry_host(),
            "registry-1.docker.io"
        );
    }

    #[test]
    fn synthesized_layers_sum_exactly() {
        for n in 1..=9 {
            let layers = synthesize_layers(7, 141_557_760, n);
            assert_eq!(layers.len(), n);
            let total: u64 = layers.iter().map(|l| l.compressed_bytes).sum();
            assert_eq!(total, 141_557_760, "n={n}");
        }
    }

    #[test]
    fn synthesized_layers_base_is_largest() {
        let layers = synthesize_layers(7, 1_000_000, 6);
        assert!(layers[0].compressed_bytes >= layers[5].compressed_bytes * 8);
    }

    #[test]
    fn synthesized_digests_unique_and_deterministic() {
        let a = synthesize_layers(1, 1000, 5);
        let b = synthesize_layers(1, 1000, 5);
        let c = synthesize_layers(2, 1000, 5);
        assert_eq!(a, b);
        let mut digests: Vec<u64> = a.iter().chain(&c).map(|l| l.digest.0).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(
            digests.len(),
            10,
            "digests must be distinct across seeds and indices"
        );
    }

    #[test]
    fn layer_display() {
        let l = Layer::new(0xabcd, 10);
        assert!(l.digest.to_string().starts_with("sha256:"));
    }
}
