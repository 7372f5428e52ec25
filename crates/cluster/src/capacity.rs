//! Site capacity and service resource demands.
//!
//! The paper's Scheduler (§IV-B, Fig. 6) is deliberately pluggable but its
//! evaluation treats every Edge Gateway Server as infinitely large. Real
//! provisioning policies (Cohen et al., arXiv:2202.08903 / arXiv:2312.11187)
//! are only meaningful when sites can *fill up*, so this module gives a site
//! a [`SiteCapacity`], a service a [`ResourceRequest`] derived from its
//! container templates, and placement [`DeploymentRequirements`]
//! (affinity/anti-affinity label constraints in the style of edgeless's
//! deployment requirements).
//!
//! The default capacity is [`SiteCapacity::UNLIMITED`] — every admission
//! check trivially passes and the paper scenarios stay byte-identical.

use std::fmt;

/// What a site can hold. Each dimension uses its type's `MAX` as the
/// "unlimited" sentinel, and [`SiteCapacity::UNLIMITED`] (the `Default`) is
/// unlimited in every dimension — the paper's implicit setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteCapacity {
    /// Total CPU across the site's nodes, in milli-cores.
    pub cpu_millis: u32,
    /// Total memory across the site's nodes, in MiB.
    pub memory_mib: u64,
    /// Hard cap on concurrently placed replicas (API-object budget).
    pub max_replicas: u32,
}

impl SiteCapacity {
    /// No limit in any dimension.
    pub const UNLIMITED: SiteCapacity = SiteCapacity {
        cpu_millis: u32::MAX,
        memory_mib: u64::MAX,
        max_replicas: u32::MAX,
    };

    /// A concrete budget; replicas stay unlimited unless capped separately.
    pub fn new(cpu_millis: u32, memory_mib: u64) -> SiteCapacity {
        SiteCapacity {
            cpu_millis,
            memory_mib,
            max_replicas: u32::MAX,
        }
    }

    pub fn with_max_replicas(mut self, max_replicas: u32) -> SiteCapacity {
        self.max_replicas = max_replicas;
        self
    }

    /// Is every dimension unlimited (admission can never fail)?
    pub fn is_unlimited(&self) -> bool {
        *self == SiteCapacity::UNLIMITED
    }

    /// Would granting `request` on top of `allocated` stay within budget?
    /// Unlimited dimensions always admit.
    pub fn admits(
        &self,
        allocated: &ResourceAllocation,
        request: &ResourceRequest,
    ) -> Result<(), CapacityShortfall> {
        let replicas = request.replicas;
        if self.max_replicas != u32::MAX {
            let free = self.max_replicas.saturating_sub(allocated.replicas);
            if replicas > free {
                return Err(CapacityShortfall::Replicas {
                    requested: replicas,
                    free,
                });
            }
        }
        if self.cpu_millis != u32::MAX {
            let want = u64::from(request.cpu_millis) * u64::from(replicas);
            let free = u64::from(self.cpu_millis).saturating_sub(allocated.cpu_millis);
            if want > free {
                return Err(CapacityShortfall::Cpu {
                    requested_millis: want,
                    free_millis: free,
                });
            }
        }
        if self.memory_mib != u64::MAX {
            let want = request.memory_mib.saturating_mul(u64::from(replicas));
            let free = self.memory_mib.saturating_sub(allocated.memory_mib);
            if want > free {
                return Err(CapacityShortfall::Memory {
                    requested_mib: want,
                    free_mib: free,
                });
            }
        }
        Ok(())
    }
}

impl Default for SiteCapacity {
    fn default() -> Self {
        SiteCapacity::UNLIMITED
    }
}

/// Which dimension ran out when an admission check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityShortfall {
    Cpu {
        requested_millis: u64,
        free_millis: u64,
    },
    Memory {
        requested_mib: u64,
        free_mib: u64,
    },
    Replicas {
        requested: u32,
        free: u32,
    },
}

impl fmt::Display for CapacityShortfall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapacityShortfall::Cpu {
                requested_millis,
                free_millis,
            } => write!(f, "cpu: need {requested_millis}m, {free_millis}m free"),
            CapacityShortfall::Memory {
                requested_mib,
                free_mib,
            } => write!(f, "memory: need {requested_mib}Mi, {free_mib}Mi free"),
            CapacityShortfall::Replicas { requested, free } => {
                write!(f, "replicas: need {requested}, {free} free")
            }
        }
    }
}

/// What one deployment of a service asks for: per-replica demand times the
/// initial replica count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceRequest {
    /// CPU demand per replica, milli-cores (sum over the pod's containers).
    pub cpu_millis: u32,
    /// Memory demand per replica, MiB (sum over the pod's containers).
    pub memory_mib: u64,
    /// Replicas this deployment starts with.
    pub replicas: u32,
}

impl ResourceRequest {
    pub fn new(cpu_millis: u32, memory_mib: u64) -> ResourceRequest {
        ResourceRequest {
            cpu_millis,
            memory_mib,
            replicas: 1,
        }
    }
}

/// Running total of what has been admitted onto one site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceAllocation {
    pub cpu_millis: u64,
    pub memory_mib: u64,
    pub replicas: u32,
}

impl ResourceAllocation {
    /// Book `replicas` instances of the per-replica demand in `request`.
    pub fn add(&mut self, request: &ResourceRequest, replicas: u32) {
        self.cpu_millis = self
            .cpu_millis
            .saturating_add(u64::from(request.cpu_millis) * u64::from(replicas));
        self.memory_mib = self
            .memory_mib
            .saturating_add(request.memory_mib.saturating_mul(u64::from(replicas)));
        self.replicas = self.replicas.saturating_add(replicas);
    }

    /// Release `replicas` instances of the per-replica demand in `request`.
    pub fn remove(&mut self, request: &ResourceRequest, replicas: u32) {
        self.cpu_millis = self
            .cpu_millis
            .saturating_sub(u64::from(request.cpu_millis) * u64::from(replicas));
        self.memory_mib = self
            .memory_mib
            .saturating_sub(request.memory_mib.saturating_mul(u64::from(replicas)));
        self.replicas = self.replicas.saturating_sub(replicas);
    }

    /// Does this total exceed `capacity` in any (limited) dimension?
    pub fn exceeds(&self, capacity: &SiteCapacity) -> bool {
        (capacity.cpu_millis != u32::MAX && self.cpu_millis > u64::from(capacity.cpu_millis))
            || (capacity.memory_mib != u64::MAX && self.memory_mib > capacity.memory_mib)
            || (capacity.max_replicas != u32::MAX && self.replicas > capacity.max_replicas)
    }
}

/// Placement constraints of a service (edgeless-style deployment
/// requirements): the target site must carry every label in
/// `label_match_all` and none in `label_match_none`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeploymentRequirements {
    /// Affinity: labels the site must have.
    pub label_match_all: Vec<String>,
    /// Anti-affinity: labels the site must *not* have.
    pub label_match_none: Vec<String>,
}

impl DeploymentRequirements {
    /// No constraints — every site qualifies.
    pub fn none() -> DeploymentRequirements {
        DeploymentRequirements::default()
    }

    /// First constraint `labels` fails to satisfy, if any.
    pub fn first_unmet<'a>(&'a self, labels: &[String]) -> Option<&'a str> {
        for want in &self.label_match_all {
            if !labels.iter().any(|l| l == want) {
                return Some(want.as_str());
            }
        }
        for forbid in &self.label_match_none {
            if labels.iter().any(|l| l == forbid) {
                return Some(forbid.as_str());
            }
        }
        None
    }

    /// Do the site `labels` satisfy every constraint?
    pub fn satisfied_by(&self, labels: &[String]) -> bool {
        self.first_unmet(labels).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_admits_everything() {
        let cap = SiteCapacity::default();
        assert!(cap.is_unlimited());
        let mut alloc = ResourceAllocation::default();
        let req = ResourceRequest::new(u32::MAX - 1, u64::MAX - 1);
        for _ in 0..4 {
            assert!(cap.admits(&alloc, &req).is_ok());
            alloc.add(&req, 1);
        }
        assert!(!alloc.exceeds(&cap));
    }

    #[test]
    fn cpu_shortfall_reported() {
        let cap = SiteCapacity::new(1000, u64::MAX);
        let mut alloc = ResourceAllocation::default();
        alloc.add(&ResourceRequest::new(900, 64), 1);
        let err = cap
            .admits(&alloc, &ResourceRequest::new(200, 64))
            .unwrap_err();
        assert_eq!(
            err,
            CapacityShortfall::Cpu {
                requested_millis: 200,
                free_millis: 100
            }
        );
        assert!(err.to_string().contains("cpu"));
    }

    #[test]
    fn memory_and_replica_limits() {
        let cap = SiteCapacity::new(u32::MAX, 512).with_max_replicas(2);
        let alloc = ResourceAllocation::default();
        assert!(matches!(
            cap.admits(&alloc, &ResourceRequest::new(100, 600)),
            Err(CapacityShortfall::Memory { .. })
        ));
        let mut req = ResourceRequest::new(1, 1);
        req.replicas = 3;
        assert!(matches!(
            cap.admits(&alloc, &req),
            Err(CapacityShortfall::Replicas { .. })
        ));
    }

    #[test]
    fn allocation_add_remove_roundtrip() {
        let req = ResourceRequest::new(250, 128);
        let mut alloc = ResourceAllocation::default();
        alloc.add(&req, 3);
        assert_eq!(alloc.cpu_millis, 750);
        assert_eq!(alloc.memory_mib, 384);
        assert_eq!(alloc.replicas, 3);
        alloc.remove(&req, 3);
        assert_eq!(alloc, ResourceAllocation::default());
    }

    #[test]
    fn exceeds_detects_overshoot() {
        let cap = SiteCapacity::new(100, 100).with_max_replicas(1);
        let mut alloc = ResourceAllocation::default();
        alloc.add(&ResourceRequest::new(150, 10), 1);
        assert!(alloc.exceeds(&cap));
    }

    #[test]
    fn requirements_matching() {
        let labels = vec!["gpu".to_owned(), "zone-a".to_owned()];
        let mut reqs = DeploymentRequirements::none();
        assert_eq!(reqs, DeploymentRequirements::default());
        assert!(reqs.satisfied_by(&labels));
        reqs.label_match_all.push("gpu".to_owned());
        assert!(reqs.satisfied_by(&labels));
        reqs.label_match_all.push("zone-b".to_owned());
        assert_eq!(reqs.first_unmet(&labels), Some("zone-b"));
        reqs.label_match_all.pop();
        reqs.label_match_none.push("zone-a".to_owned());
        assert_eq!(reqs.first_unmet(&labels), Some("zone-a"));
    }
}
