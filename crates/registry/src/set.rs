//! A set of registries with image-based routing: images pull from the
//! registry that publishes them (Docker Hub for `nginx`, GCR for the ResNet
//! image), unless a *mirror* is configured — the paper's private LAN registry
//! scenario, where all images pull locally.

use containers::ImageRef;

use crate::pull::Registry;

/// Routes pulls to the right registry.
#[derive(Debug, Clone, Default)]
pub struct RegistrySet {
    registries: Vec<Registry>,
    /// Index of a registry that mirrors everything (preferred when it has
    /// the image).
    mirror: Option<usize>,
}

impl RegistrySet {
    pub fn new() -> RegistrySet {
        RegistrySet::default()
    }

    /// Add a registry; returns its index.
    pub fn add(&mut self, registry: Registry) -> usize {
        self.registries.push(registry);
        self.registries.len() - 1
    }

    /// Add a registry and prefer it for every image it carries (the private
    /// LAN registry of Fig. 13's "private registry" series).
    pub fn add_mirror(&mut self, registry: Registry) -> usize {
        let idx = self.add(registry);
        self.mirror = Some(idx);
        idx
    }

    /// The registry a pull of `image` will hit: the mirror if it has the
    /// image, else the first registry that publishes it.
    pub fn route(&self, image: &ImageRef) -> Option<&Registry> {
        if let Some(m) = self.mirror {
            if self.registries[m].has(image) {
                return Some(&self.registries[m]);
            }
        }
        self.registries.iter().find(|r| r.has(image))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::RegistryProfile;
    use containers::image::synthesize_layers;
    use containers::ImageManifest;

    fn set() -> RegistrySet {
        let mut hub = Registry::new(RegistryProfile::docker_hub());
        hub.publish(ImageManifest::new(
            "nginx:1.23.2",
            synthesize_layers(1, 1000, 2),
        ));
        let mut gcr = Registry::new(RegistryProfile::gcr());
        gcr.publish(ImageManifest::new(
            "gcr.io/tensorflow-serving/resnet",
            synthesize_layers(2, 5000, 3),
        ));
        let mut s = RegistrySet::new();
        s.add(hub);
        s.add(gcr);
        s
    }

    #[test]
    fn routes_by_catalog() {
        let s = set();
        assert_eq!(
            s.route(&ImageRef::new("nginx:1.23.2"))
                .unwrap()
                .profile
                .name,
            "docker-hub"
        );
        assert_eq!(
            s.route(&ImageRef::new("gcr.io/tensorflow-serving/resnet"))
                .unwrap()
                .profile
                .name,
            "gcr"
        );
        assert!(s.route(&ImageRef::new("ghost")).is_none());
    }

    #[test]
    fn mirror_preferred_when_it_has_the_image() {
        let mut s = set();
        let mut lan = Registry::new(RegistryProfile::private_lan());
        lan.publish(ImageManifest::new(
            "nginx:1.23.2",
            synthesize_layers(1, 1000, 2),
        ));
        s.add_mirror(lan);
        assert_eq!(
            s.route(&ImageRef::new("nginx:1.23.2"))
                .unwrap()
                .profile
                .name,
            "private-lan"
        );
        // mirror lacks resnet → falls through to gcr
        assert_eq!(
            s.route(&ImageRef::new("gcr.io/tensorflow-serving/resnet"))
                .unwrap()
                .profile
                .name,
            "gcr"
        );
    }
}
