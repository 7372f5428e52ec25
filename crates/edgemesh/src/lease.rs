//! The deployment-lease table: mutual exclusion over `(cluster, service)`
//! deployment decisions across controller shards.
//!
//! Models the linearizable coordination service every production controller
//! cluster already operates (ONOS/etcd, Kubernetes leader-election leases):
//! one compare-and-set per deployment decision, far off the per-packet hot
//! path. Linearizability is an ordering contract. In the windowed engine
//! ([`crate::par`]) shards acquire *tentatively* against a canonical
//! snapshot and log every operation; at each window boundary the
//! coordinator commits all logged operations through one `LeaseTable` in
//! the merge order `(time, origin_shard, seq)`. That commit is the
//! linearization point of every acquire and release — first committed
//! acquirer wins, a tentative holder whose acquire the table rejects is
//! revoked and aborts its machine. The merge key is a total order on
//! operations that is independent of worker-thread schedule, which is
//! exactly why the lease outcome (and the mesh trace hash) cannot depend on
//! the thread count.
//!
//! So the acquire/release rule is written once, here; the shard-local
//! optimistic view lives in `par` as `WindowGate`, and a bounded-exhaustive
//! model in `par`'s tests holds the two to first-acquirer-wins.
//!
//! Each shard's [`LeaseHandle`] plugs into the controller through
//! [`edgectl::DeployGate`]: the dispatcher calls `try_acquire` immediately
//! before starting a deployment machine and `release` when the machine
//! finalizes or fails. Re-acquisition by the holder is idempotent (the
//! dispatcher may retry a cluster after a transient backend fault without
//! re-coordinating).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use edgectl::{ClusterId, DeployGate, ServiceId};
use simcore::SimTime;

#[derive(Debug, Default)]
struct LeaseState {
    /// Current holder (shard index) per `(cluster, service)`.
    held: BTreeMap<(ClusterId, ServiceId), usize>,
}

/// The shared lease table. Clone-cheap handles ([`LeaseTable::handle`]) are
/// what individual controllers hold; the table itself is the test/metrics
/// view.
#[derive(Debug, Clone, Default)]
pub struct LeaseTable {
    state: Rc<RefCell<LeaseState>>,
}

impl LeaseTable {
    pub fn new() -> LeaseTable {
        LeaseTable::default()
    }

    /// The [`DeployGate`] for controller shard `shard`.
    pub fn handle(&self, shard: usize) -> LeaseHandle {
        LeaseHandle {
            shard,
            state: Rc::clone(&self.state),
        }
    }

    /// Number of leases currently held.
    pub fn held(&self) -> usize {
        self.state.borrow().held.len()
    }

    /// Every held lease as `(cluster, service, holder)`, in key order.
    pub(crate) fn holders(&self) -> Vec<(ClusterId, ServiceId, usize)> {
        let st = self.state.borrow();
        st.held.iter().map(|(&(c, s), &h)| (c, s, h)).collect()
    }

    /// The shard currently holding the lease on `(cluster, service)`.
    #[cfg(test)]
    pub(crate) fn holder(&self, cluster: ClusterId, service: ServiceId) -> Option<usize> {
        self.state.borrow().held.get(&(cluster, service)).copied()
    }
}

/// One shard's handle on the shared [`LeaseTable`].
#[derive(Debug, Clone)]
pub struct LeaseHandle {
    shard: usize,
    state: Rc<RefCell<LeaseState>>,
}

impl DeployGate for LeaseHandle {
    fn try_acquire(&mut self, _now: SimTime, cluster: ClusterId, service: ServiceId) -> bool {
        let mut st = self.state.borrow_mut();
        match st.held.get(&(cluster, service)).copied() {
            Some(holder) if holder == self.shard => true,
            Some(_) => false,
            None => {
                st.held.insert((cluster, service), self.shard);
                true
            }
        }
    }

    fn release(&mut self, _now: SimTime, cluster: ClusterId, service: ServiceId) {
        let mut st = self.state.borrow_mut();
        if st.held.get(&(cluster, service)).copied() == Some(self.shard) {
            st.held.remove(&(cluster, service));
        }
    }
}

#[cfg(test)]
mod model_tests;

#[cfg(test)]
mod tests {
    use super::*;

    const C0: ClusterId = ClusterId(0);
    const S0: ServiceId = ServiceId(0);
    const S1: ServiceId = ServiceId(1);

    #[test]
    fn first_acquirer_wins_and_release_frees() {
        let table = LeaseTable::new();
        let mut a = table.handle(0);
        let mut b = table.handle(1);
        assert!(a.try_acquire(SimTime::ZERO, C0, S0));
        assert!(!b.try_acquire(SimTime::ZERO, C0, S0));
        assert_eq!(table.holder(C0, S0), Some(0));
        a.release(SimTime::ZERO, C0, S0);
        assert!(b.try_acquire(SimTime::ZERO, C0, S0));
        assert_eq!(table.holder(C0, S0), Some(1));
    }

    #[test]
    fn holder_reacquires_idempotently() {
        let table = LeaseTable::new();
        let mut a = table.handle(3);
        assert!(a.try_acquire(SimTime::ZERO, C0, S0));
        assert!(a.try_acquire(SimTime::ZERO, C0, S0));
        assert_eq!(table.held(), 1);
    }

    #[test]
    fn non_holder_release_is_a_no_op() {
        let table = LeaseTable::new();
        let mut a = table.handle(0);
        let mut b = table.handle(1);
        assert!(a.try_acquire(SimTime::ZERO, C0, S1));
        b.release(SimTime::ZERO, C0, S1);
        assert_eq!(table.holder(C0, S1), Some(0), "only the holder can release");
    }

    #[test]
    fn leases_are_per_cluster_and_service() {
        let table = LeaseTable::new();
        let mut a = table.handle(0);
        let mut b = table.handle(1);
        assert!(a.try_acquire(SimTime::ZERO, C0, S0));
        assert!(b.try_acquire(SimTime::ZERO, ClusterId(1), S0));
        assert!(b.try_acquire(SimTime::ZERO, C0, S1));
        assert_eq!(table.held(), 3);
    }
}
