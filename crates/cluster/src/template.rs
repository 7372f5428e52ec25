//! Backend-neutral service templates.
//!
//! The controller's annotation engine (in `edgectl`) turns a user-provided
//! Kubernetes-style YAML definition into one of these; the same template
//! drives both the Docker and the Kubernetes backend — the paper's "it does
//! not matter whether the edge cluster is running Docker or Kubernetes – we
//! use the same service definition for both".

use containers::ImageRef;
use simcore::DurationDist;

use crate::capacity::{DeploymentRequirements, ResourceRequest};

/// One container of a service.
#[derive(Debug, Clone)]
pub struct ContainerTemplate {
    pub name: String,
    pub image: ImageRef,
    /// Time from process start until the container's port accepts
    /// connections; sampled per instance.
    pub app_init: DurationDist,
    pub cpu_millis: u32,
    pub mem_bytes: u64,
}

/// A deployable edge service: one or more containers plus the service port.
#[derive(Debug, Clone)]
pub struct ServiceTemplate {
    /// Worldwide-unique service name (the controller's annotation step
    /// guarantees uniqueness).
    pub name: String,
    pub containers: Vec<ContainerTemplate>,
    /// The port the service listens on inside its (main) container.
    pub port: u16,
    /// Custom Kubernetes scheduler to use for this service's pods
    /// (`spec.template.spec.schedulerName`, paper §V and \[26\]/\[27\]);
    /// `None` = the default kube-scheduler.
    pub scheduler_name: Option<String>,
    /// Placement constraints (affinity/anti-affinity site labels); empty by
    /// default — every site qualifies.
    pub requirements: DeploymentRequirements,
}

impl ServiceTemplate {
    /// A single-container template with sane defaults — the common case in
    /// tests and examples.
    pub fn single(
        name: impl Into<String>,
        image: impl Into<String>,
        port: u16,
        app_init: DurationDist,
    ) -> ServiceTemplate {
        let name = name.into();
        ServiceTemplate {
            containers: vec![ContainerTemplate {
                name: name.clone(),
                image: ImageRef::new(image),
                app_init,
                cpu_millis: 250,
                mem_bytes: 256 << 20,
            }],
            name,
            port,
            scheduler_name: None,
            requirements: DeploymentRequirements::none(),
        }
    }

    pub(crate) fn images(&self) -> impl Iterator<Item = &ImageRef> {
        self.containers.iter().map(|c| &c.image)
    }

    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    pub(crate) fn total_cpu_millis(&self) -> u32 {
        self.containers.iter().map(|c| c.cpu_millis).sum()
    }

    pub(crate) fn total_mem_bytes(&self) -> u64 {
        self.containers.iter().map(|c| c.mem_bytes).sum()
    }

    /// The per-replica resource demand the scheduler and admission control
    /// reason about: the sum of the container requests, memory rounded up to
    /// whole MiB.
    pub fn resource_request(&self) -> ResourceRequest {
        ResourceRequest::new(
            self.total_cpu_millis(),
            self.total_mem_bytes().div_ceil(1 << 20),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_builder() {
        let t =
            ServiceTemplate::single("web", "nginx:1.23.2", 80, DurationDist::constant_ms(100.0));
        assert_eq!(t.container_count(), 1);
        assert_eq!(t.port, 80);
        assert_eq!(t.images().next().unwrap().0, "nginx:1.23.2");
        assert!(t.total_cpu_millis() > 0);
        assert!(t.total_mem_bytes() > 0);
        let req = t.resource_request();
        assert_eq!(req.cpu_millis, 250);
        assert_eq!(req.memory_mib, 256);
        assert_eq!(req.replicas, 1);
        assert_eq!(t.requirements, DeploymentRequirements::none());
    }
}
