//! The pull operation: manifest fetch, bounded-concurrency layer downloads,
//! extraction, and the image-store update.

use std::collections::HashMap;

use containers::{ImageManifest, ImageRef, ImageStore, Layer};
use simcore::{SimDuration, SimRng, SimTime};

use crate::profile::RegistryProfile;

/// A registry: a catalog of published images behind a connection profile.
#[derive(Debug, Clone)]
pub struct Registry {
    pub profile: RegistryProfile,
    images: HashMap<ImageRef, ImageManifest>,
}

/// Result of a completed pull.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PullOutcome {
    /// When the image is fully present on disk and usable.
    pub completed_at: SimTime,
    /// Compressed bytes actually downloaded (skips cached layers).
    pub bytes_downloaded: u64,
    /// Layers actually downloaded.
    pub layers_downloaded: usize,
    /// Layers skipped because they were already on disk.
    pub layers_cached: usize,
}

/// Pull failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PullError {
    /// The registry does not serve this image.
    UnknownImage(ImageRef),
}

impl std::fmt::Display for PullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PullError::UnknownImage(i) => write!(f, "image {i} not found in registry"),
        }
    }
}
impl std::error::Error for PullError {}

impl Registry {
    pub fn new(profile: RegistryProfile) -> Registry {
        Registry {
            profile,
            images: HashMap::new(),
        }
    }

    /// Publish an image so nodes can pull it.
    pub fn publish(&mut self, manifest: ImageManifest) {
        self.images.insert(manifest.reference.clone(), manifest);
    }

    pub(crate) fn has(&self, image: &ImageRef) -> bool {
        self.images.contains_key(image)
    }

    /// Pull `image` into `store`, starting at `now`.
    ///
    /// Timing model (see crate docs):
    /// 1. manifest fetch (auth + HTTP) — once;
    /// 2. missing layers download in waves of at most
    ///    `max_concurrent_layers`; concurrent downloads share the bottleneck
    ///    bandwidth, so body time is `serialization(total bytes)`, while
    ///    per-layer request/verify overheads parallelize across the window;
    /// 3. extraction of downloaded layers is sequential (containerd applies
    ///    layers in order) at `extract_bytes_per_sec`, overlapped with the
    ///    tail of the download except for the final layer.
    ///
    /// If every layer is already on disk, only the manifest check is paid
    /// (the "image cached" fast path of Fig. 4).
    ///
    /// The image becomes visible in `store` immediately, but is only truly
    /// usable at `completed_at`; callers must sequence container creation
    /// after that instant (the cluster control planes do).
    pub fn pull(
        &self,
        now: SimTime,
        image: &ImageRef,
        store: &mut ImageStore,
        rng: &mut SimRng,
    ) -> Result<PullOutcome, PullError> {
        let manifest = self
            .images
            .get(image)
            .ok_or_else(|| PullError::UnknownImage(image.clone()))?;

        if store.has_image(image) {
            // Image already present: no network activity at all.
            return Ok(PullOutcome {
                completed_at: now,
                bytes_downloaded: 0,
                layers_downloaded: 0,
                layers_cached: manifest.layer_count(),
            });
        }

        let missing = store.missing_layers(manifest);
        let cached = manifest.layer_count() - missing.len();
        let mut elapsed = self.profile.manifest_fetch.sample(rng);

        if !missing.is_empty() {
            elapsed += self.download_time(&missing, rng);
            elapsed += self.extract_tail_time(&missing);
        }

        store.add_image(manifest.clone());
        Ok(PullOutcome {
            completed_at: now + elapsed,
            bytes_downloaded: missing.iter().map(|l| l.compressed_bytes).sum(),
            layers_downloaded: missing.len(),
            layers_cached: cached,
        })
    }

    /// Body + per-layer overhead time for the missing set.
    fn download_time(&self, missing: &[Layer], rng: &mut SimRng) -> SimDuration {
        let total_bytes: u64 = missing.iter().map(|l| l.compressed_bytes).sum();
        let conc = self.profile.max_concurrent_layers.max(1);
        // Overheads parallelize across the concurrency window: sum of waves,
        // where each wave pays its largest overhead.
        let mut overheads: Vec<SimDuration> = missing
            .iter()
            .map(|_| self.profile.per_layer_overhead.sample(rng))
            .collect();
        overheads.sort_unstable();
        overheads.reverse();
        let wave_overhead: SimDuration = overheads.chunks(conc).map(|w| w[0]).sum();
        // Connection setup + slow start happen per wave too; approximate with
        // one connect per wave plus body serialization of everything.
        let waves = missing.len().div_ceil(conc) as u64;
        let handshakes = self.profile.tcp.connect_time() * waves;
        let body = self.profile.tcp.serialization(total_bytes)
            + self.profile.tcp.rtt * slow_start_rtts(total_bytes.min(1 << 22));
        handshakes + wave_overhead + body
    }

    /// Only the final layer's extraction is exposed; earlier layers extract
    /// while later ones download.
    fn extract_tail_time(&self, missing: &[Layer]) -> SimDuration {
        let last = missing.last().map(|l| l.uncompressed_bytes).unwrap_or(0);
        SimDuration::from_secs_f64(last as f64 / self.profile.extract_bytes_per_sec as f64)
    }
}

/// Rough count of slow-start round trips to open the congestion window for a
/// transfer of `bytes` (capped by the caller at the point where the pipe is
/// full).
fn slow_start_rtts(bytes: u64) -> u64 {
    const IW_BYTES: u64 = 14_600; // 10 segments
    let mut window = IW_BYTES;
    let mut sent = 0;
    let mut rtts = 0;
    while sent + window < bytes {
        sent += window;
        window *= 2;
        rtts += 1;
    }
    rtts
}

#[cfg(test)]
mod tests {
    use super::*;
    use containers::image::synthesize_layers;

    fn hub() -> Registry {
        let mut r = Registry::new(crate::profile::RegistryProfile::docker_hub());
        r.publish(ImageManifest::new(
            "nginx:1.23.2",
            synthesize_layers(1, 141_000_000, 6),
        ));
        r.publish(ImageManifest::new(
            "josefhammer/web-asm:amd64",
            synthesize_layers(2, 6330, 1),
        ));
        r
    }

    fn lan() -> Registry {
        Registry {
            profile: crate::profile::RegistryProfile::private_lan(),
            images: hub().images,
        }
    }

    fn rng() -> SimRng {
        SimRng::seed_from_u64(42)
    }

    fn pull_secs(reg: &Registry, image: &str, store: &mut ImageStore) -> f64 {
        let out = reg
            .pull(SimTime::ZERO, &ImageRef::new(image), store, &mut rng())
            .unwrap();
        out.completed_at.as_secs_f64()
    }

    #[test]
    fn unknown_image_fails() {
        let reg = hub();
        let mut store = ImageStore::new();
        let err = reg
            .pull(
                SimTime::ZERO,
                &ImageRef::new("ghost:latest"),
                &mut store,
                &mut rng(),
            )
            .unwrap_err();
        assert!(matches!(err, PullError::UnknownImage(_)));
    }

    #[test]
    fn tiny_image_pulls_fast_large_image_slow() {
        // Fig. 13 shape: asmttpd ≪ nginx.
        let reg = hub();
        let asm = pull_secs(&reg, "josefhammer/web-asm:amd64", &mut ImageStore::new());
        let nginx = pull_secs(&reg, "nginx:1.23.2", &mut ImageStore::new());
        assert!(asm < 1.5, "asm pull {asm} s");
        assert!(nginx > asm + 1.0, "nginx {nginx} s vs asm {asm} s");
        assert!(nginx < 15.0, "nginx {nginx} s unreasonably slow");
    }

    #[test]
    fn private_registry_saves_one_to_three_seconds_on_nginx() {
        // Paper: "pull times improve by about 1.5 to 2 seconds".
        let wan = pull_secs(&hub(), "nginx:1.23.2", &mut ImageStore::new());
        let lan = pull_secs(&lan(), "nginx:1.23.2", &mut ImageStore::new());
        let gap = wan - lan;
        assert!((0.8..4.0).contains(&gap), "wan={wan} lan={lan} gap={gap}");
    }

    #[test]
    fn cached_image_is_free() {
        let reg = hub();
        let mut store = ImageStore::new();
        let image = ImageRef::new("nginx:1.23.2");
        reg.pull(SimTime::ZERO, &image, &mut store, &mut rng())
            .unwrap();
        let again = reg
            .pull(
                SimTime::from_secs_f64(100.0),
                &image,
                &mut store,
                &mut rng(),
            )
            .unwrap();
        assert_eq!(again.layers_downloaded, 0);
        assert_eq!(again.completed_at, SimTime::from_secs_f64(100.0));
        assert_eq!(again.layers_cached, 6);
    }

    #[test]
    fn shared_layers_shrink_second_pull() {
        let mut reg = hub();
        // nginx+py = nginx layers + one extra
        let mut layers = synthesize_layers(1, 141_000_000, 6);
        layers.extend(synthesize_layers(9, 46_000_000, 1));
        reg.publish(ImageManifest::new("nginx-py:combo", layers));

        let mut store = ImageStore::new();
        let mut r = rng();
        let first = reg
            .pull(
                SimTime::ZERO,
                &ImageRef::new("nginx:1.23.2"),
                &mut store,
                &mut r,
            )
            .unwrap();
        let second = reg
            .pull(
                first.completed_at,
                &ImageRef::new("nginx-py:combo"),
                &mut store,
                &mut r,
            )
            .unwrap();
        assert_eq!(second.layers_downloaded, 1, "only the py layer transfers");
        assert_eq!(second.layers_cached, 6);
        assert!(second.bytes_downloaded < first.bytes_downloaded / 2);
    }

    #[test]
    fn pull_time_grows_with_layer_count_at_equal_size() {
        // Same bytes, more layers → more per-layer overhead (paper §VI).
        let mut reg = hub();
        reg.publish(ImageManifest::new(
            "fat-1layer",
            synthesize_layers(11, 6_000_000, 1),
        ));
        reg.publish(ImageManifest::new(
            "fat-9layer",
            synthesize_layers(12, 6_000_000, 9),
        ));
        let one = pull_secs(&reg, "fat-1layer", &mut ImageStore::new());
        let nine = pull_secs(&reg, "fat-9layer", &mut ImageStore::new());
        assert!(nine > one, "nine={nine} one={one}");
    }

    #[test]
    fn outcome_accounting_consistent() {
        let reg = hub();
        let mut store = ImageStore::new();
        let out = reg
            .pull(
                SimTime::ZERO,
                &ImageRef::new("nginx:1.23.2"),
                &mut store,
                &mut rng(),
            )
            .unwrap();
        assert_eq!(out.layers_downloaded, 6);
        assert_eq!(out.layers_cached, 0);
        assert_eq!(out.bytes_downloaded, 141_000_000);
        assert!(store.has_image(&ImageRef::new("nginx:1.23.2")));
    }
}
