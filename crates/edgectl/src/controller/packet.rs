//! The PacketIn path — the Dispatcher algorithm of paper Fig. 7 — and client
//! handover, plus the builders of the flows and packet releases it emits.

use simcore::{SimDuration, SimTime};
use simnet::openflow::{Action, BufferId, FlowMatch, FlowSpec, PortId};
use simnet::{IpAddr, Packet, Protocol, SocketAddr};

use super::{Controller, ControllerOutput, SwitchId};
use crate::catalog::{cookie_for, ServiceId};
use crate::dispatcher::Waiter;
use crate::flowmemory::FlowKey;
use crate::scheduler::ClusterId;

/// Priority of installed redirect flows; host routes sit one below, so a
/// redirect always wins over the plain route to the same client.
const REDIRECT_PRIORITY: u16 = 100;

/// Cookies of the flows that belong to no registered service.
const CLOUD_COOKIE: u64 = cookie_for("cloud");
const HOST_ROUTE_COOKIE: u64 = cookie_for("host-route");

impl Controller {
    /// The client moved to another ingress. Forget its memorized flows and
    /// tear down the matching switch entries on the ingress it is leaving,
    /// so its next request table-misses at the new ingress and re-runs the
    /// Dispatcher (fresh FAST/BEST evaluation) there. Pending placeholders
    /// are kept: a request held on an in-flight deployment stays anchored
    /// here until it resolves (make-before-break), which is what the
    /// session-continuity analysis verifies.
    pub fn on_client_handover(&mut self, now: SimTime, client: IpAddr) -> Vec<ControllerOutput> {
        self.stats.handovers += 1;
        let Some(switch) = self.client_switch(client) else {
            // Never seen here — nothing installed, nothing to tear down.
            return Vec::new();
        };
        // Sorted for deterministic teardown order (FlowKey orders by client
        // ip then service address).
        let mut departing: Vec<(FlowKey, SocketAddr)> = self
            .memory
            .iter()
            .filter(|f| f.key.client_ip == client && !f.pending)
            .map(|f| (f.key, f.target))
            .collect();
        departing.sort_unstable();
        let mut out = Vec::with_capacity(departing.len() * 2);
        for (key, target) in departing {
            self.memory.forget(key);
            out.push(ControllerOutput::FlowDelete {
                at: now,
                switch,
                matcher: FlowMatch::client_to_service(client, key.service_addr),
            });
            out.push(ControllerOutput::FlowDelete {
                at: now,
                switch,
                matcher: reply_match(Protocol::Tcp, target, client),
            });
        }
        // Forget the stale location too: if the client returns to this
        // ingress later, its first packet re-registers it.
        self.client_ports.remove(&client);
        out
    }

    /// Handle a table-miss PacketIn from switch `sw` (the single-switch
    /// setup's is [`INGRESS`](super::INGRESS)), appending the answer to
    /// `out`: the caller owns the buffer, so the event loops reuse one and
    /// allocate nothing per PacketIn.
    pub fn on_packet_in_at_into(
        &mut self,
        now: SimTime,
        sw: SwitchId,
        packet: Packet,
        buffer_id: BufferId,
        in_port: PortId,
        out: &mut Vec<ControllerOutput>,
    ) {
        self.client_ports.insert(packet.src.ip, (sw, in_port));
        // The request as the switch buffered it; every answer below releases
        // it at `decide_at`, or holds it on a deployment until one does.
        let w = Waiter {
            key: FlowKey {
                client_ip: packet.src.ip,
                service_addr: packet.dst,
            },
            sw,
            in_port,
            buffer_id,
            decide_at: now + self.config.processing_delay,
            packet,
        };

        // 1. Memorized flow? Re-install immediately (the fast path that lets
        //    switch idle timeouts stay low).
        if let Some(flow) = self.memory.recall(now, w.key) {
            let (target, cluster, sid) = (flow.target, flow.cluster, flow.service);
            let Some(cluster) = cluster else {
                // Memorized as served by the cloud (no edge cluster).
                self.stats.memory_hits += 1;
                return self.cloud_outputs(w.decide_at, &w, Some(sid), out);
            };
            // Follow-Me-Edge (related work [12], [13]): if the client has
            // moved and a strictly nearer cluster now has a ready instance,
            // fall through to a fresh scheduling decision instead of
            // re-installing the stale redirect (which would hairpin traffic
            // across the fabric).
            let name = self.catalog.name_of(sid);
            let cur_dist = self.clusters[cluster.0].distances[sw.0];
            let nearer_ready = self.clusters.iter_mut().enumerate().any(|(i, c)| {
                i != cluster.0
                    && c.distances[sw.0] < cur_dist
                    && c.status_of(now, sid, name).is_ready()
            });
            // The remembered instance may have been scaled down meanwhile.
            if !nearer_ready
                && self.clusters[cluster.0]
                    .status_of(now, sid, name)
                    .is_ready()
            {
                self.stats.memory_hits += 1;
                return self.redirect_outputs(w.decide_at, &w, sid, target, cluster, out);
            }
            self.memory.forget(w.key);
        }

        // 2. Registered service? Unregistered destinations pass through to
        //    the cloud untouched. This is the request's one address probe:
        //    from here on the service is its id.
        let Some(sid) = self.catalog.lookup(packet.dst) else {
            return self.cloud_outputs(w.decide_at, &w, None, out);
        };
        self.predictor.observe(now, packet.dst);

        // 3. Feed the Global Scheduler the Dispatcher's system view.
        let decision = self.decide(now, sid, sw);

        // 4. Kick off the BEST deployment first (without waiting it runs in
        //    parallel with serving the current request elsewhere).
        if let Some(best) = decision.best {
            if decision.fast != Some(best) {
                self.request_best_deployment(now, best, sid);
            }
        }

        // 5. Serve the current request.
        match decision.fast {
            // The view built for the scheduler already holds this cluster's
            // status at `now` (nothing between the snapshot and here mutates
            // `fast` — BEST-side deployment only runs when it targets a
            // *different* cluster), so reuse it instead of re-querying the
            // backend on the per-request path.
            Some(fast) if self.views_scratch[fast.0].status.is_ready() => {
                // Redirect immediately (possibly a detour to a farther
                // cluster while BEST deploys).
                if decision.is_without_waiting() {
                    self.stats.detoured_requests += 1;
                }
                // Local Scheduler: pick the instance within the cluster.
                let target = self.pick_instance(now, fast, sid);
                self.redirect_outputs(w.decide_at, &w, sid, target, fast, out)
            }
            // On-demand deployment WITH waiting (paper Fig. 5): hold the
            // buffered packet until the port opens.
            Some(fast) => self.hold_on_deployment(now, fast, sid, &w, out),
            None => self.cloud_outputs(w.decide_at, &w, Some(sid), out),
        };
        // Advance any machine whose step is already due (e.g. the scale-up a
        // request just triggered) before returning to the event loop, so the
        // phases due at `now` reach the backend before any later event does.
        self.pump_machines(now, out);
    }

    /// BEST-side deployment request (never holds the current request).
    fn request_best_deployment(&mut self, now: SimTime, best: ClusterId, sid: ServiceId) {
        // Admission control: a BEST decision targeting a site that cannot
        // take the deployment is dropped — the caller already serves the
        // request at FAST or the cloud, which *is* the fall-through.
        if !self.deployment_exists(now, best, sid) && !self.admit(best, sid) {
            return;
        }
        if let Some(m) = self.dispatcher.find_mut(best, sid) {
            // Piggyback: the in-flight deployment will retarget when ready.
            m.wants_retarget = true;
            return;
        }
        if self.clusters[best.0]
            .status_of(now, sid, self.catalog.name_of(sid))
            .is_ready()
        {
            self.schedule_retarget(now, best, sid);
            return;
        }
        if !self.gate_acquire(now, best, sid) {
            // A mesh peer holds the deployment lease for this instance. The
            // caller already serves the request at FAST (or the cloud); the
            // lease holder's Ready delta will retarget it later.
            self.stats.lease_rejections += 1;
            return;
        }
        self.start_machine(now, best, sid, false, false)
            .wants_retarget = true;
    }

    /// FAST-side with-waiting path: hold the buffered request `w` until the
    /// deployment's port opens (joining an in-flight deployment if one
    /// exists), or fall back to the cloud on failure.
    fn hold_on_deployment(
        &mut self,
        now: SimTime,
        fast: ClusterId,
        sid: ServiceId,
        w: &Waiter,
        out: &mut Vec<ControllerOutput>,
    ) {
        // Admission control: the scheduler picked a with-waiting deployment
        // at `fast`, but the site may not take it (capacity / labels). Fall
        // through to the nearest other ready instance, else the cloud.
        if !self.deployment_exists(now, fast, sid) && !self.admit(fast, sid) {
            let name = self.catalog.name_of(sid);
            let fallback = self
                .clusters
                .iter_mut()
                .enumerate()
                .filter_map(|(i, c)| {
                    (ClusterId(i) != fast && c.status_of(now, sid, name).is_ready())
                        .then(|| (c.distances[w.sw.0], i))
                })
                .min()
                .map(|(_, i)| ClusterId(i));
            return match fallback {
                Some(cluster) => {
                    self.stats.detoured_requests += 1;
                    let target = self.pick_instance(now, cluster, sid);
                    self.redirect_outputs(w.decide_at, w, sid, target, cluster, out)
                }
                None => self.cloud_outputs(w.decide_at, w, Some(sid), out),
            };
        }
        // Pending placeholder: keeps the held flow visible to idle
        // scale-down protection and the coherence audit without serving the
        // fast path (it converts to a real entry when the redirect installs).
        self.memory.remember_pending(now, w.key, sid, Some(fast));
        if self.dispatcher.find(fast, sid).is_none() {
            if !self.gate_acquire(now, fast, sid) {
                // Lease lost to a mesh peer: there is no local machine to
                // hold this request on, so fall back to the cloud
                // (accepted with-waiting divergence, DESIGN.md §5f). The
                // flow is memorized cloud-bound so the holder's Ready
                // delta retargets it to the edge instance.
                self.stats.lease_rejections += 1;
                self.memory.forget(w.key);
                return self.cloud_outputs(w.decide_at, w, Some(sid), out);
            }
            self.start_machine(now, fast, sid, true, false);
        }
        self.dispatcher
            .find_mut(fast, sid)
            .expect("found or just started")
            .waiters
            .push(w.clone());
    }

    /// Local-Scheduler instance selection: pick one ready replica endpoint
    /// of `service` on `cluster` (paper Fig. 6's Local Scheduler; for
    /// Kubernetes the Service VIP balances internally, so one endpoint is
    /// returned and the choice is a no-op).
    pub(super) fn pick_instance(
        &mut self,
        now: SimTime,
        cluster: ClusterId,
        service: ServiceId,
    ) -> SocketAddr {
        let (_, endpoints) =
            self.clusters[cluster.0].snapshot(now, service, self.catalog.name_of(service));
        assert!(
            !endpoints.is_empty(),
            "pick_instance on a service with no ready replica"
        );
        let idx = self.local.pick(service, endpoints.len() as u32) as usize;
        endpoints[idx.min(endpoints.len() - 1)]
    }

    /// Redirect the held request `w` to `target` on `cluster` at `at`:
    /// install forward+reverse rewrite flows on the client's ingress switch
    /// (plus host routes on the other switches so responses find a roamed
    /// client) and release the buffered packet.
    pub(super) fn redirect_outputs(
        &mut self,
        at: SimTime,
        w: &Waiter,
        service: ServiceId,
        target: SocketAddr,
        cluster: ClusterId,
        out: &mut Vec<ControllerOutput>,
    ) {
        self.memory
            .remember(at, w.key, service, target, Some(cluster));
        let pair = flow_pair(
            w.key,
            target,
            self.clusters[cluster.0].ports[w.sw.0],
            w.in_port,
            self.config.switch_idle_timeout,
            self.catalog.cookie_of(service),
        );
        out.extend(pair.into_iter().map(|spec| ControllerOutput::FlowMod {
            at,
            switch: w.sw,
            spec,
        }));
        self.host_route_outputs(at, w.sw, w.key.client_ip, out);
        out.push(ControllerOutput::ReleaseViaTable {
            at,
            switch: w.sw,
            buffer_id: w.buffer_id,
        });
    }

    /// Host routes steering traffic for `client_ip` toward its current
    /// ingress switch from every other switch (needed once clients roam
    /// between switches; no-ops in single-switch setups).
    pub(super) fn host_route_outputs(
        &self,
        at: SimTime,
        client_sw: SwitchId,
        client_ip: IpAddr,
        outputs: &mut Vec<ControllerOutput>,
    ) {
        for s in 0..self.switch_count() {
            if s == client_sw.0 {
                continue;
            }
            // Toward the client's switch: in the chain fabric the trunk in
            // the client's direction is the same port that leads to any
            // destination behind that switch; we reuse the cloud-or-trunk
            // port toward switch `client_sw` — which, for a chain rooted at
            // switch 0, is port 1 when client_sw > s, else port 0.
            let port = if client_sw.0 > s {
                PortId(1)
            } else {
                PortId(0)
            };
            let matcher = FlowMatch {
                dst_ip: Some(client_ip),
                ..FlowMatch::default()
            };
            outputs.push(ControllerOutput::FlowMod {
                at,
                switch: SwitchId(s),
                spec: FlowSpec::new(matcher)
                    .priority(REDIRECT_PRIORITY - 1)
                    .action(Action::Output(port))
                    .idle(self.config.switch_idle_timeout)
                    .cookie(HOST_ROUTE_COOKIE),
            });
        }
    }

    /// Pass the held request `w` through to the cloud at `at`: forward
    /// unchanged, bring responses back. For *registered* services the
    /// decision is memorized (with no edge cluster) so a later BEST
    /// deployment can retarget it.
    pub(super) fn cloud_outputs(
        &mut self,
        at: SimTime,
        w: &Waiter,
        service: Option<ServiceId>,
        outputs: &mut Vec<ControllerOutput>,
    ) {
        let (packet, sw) = (&w.packet, w.sw);
        self.stats.cloud_forwards += 1;
        if let Some(service) = service {
            self.memory.remember(at, w.key, service, packet.dst, None);
        }
        outputs.push(ControllerOutput::FlowMod {
            at,
            switch: sw,
            spec: FlowSpec::new(FlowMatch::client_to_service(packet.src.ip, packet.dst))
                .priority(REDIRECT_PRIORITY)
                .action(Action::Output(self.cloud_ports[sw.0]))
                .idle(self.config.switch_idle_timeout)
                .cookie(CLOUD_COOKIE),
        });
        outputs.push(ControllerOutput::FlowMod {
            at,
            switch: sw,
            spec: FlowSpec::new(reply_match(packet.protocol, packet.dst, packet.src.ip))
                .priority(REDIRECT_PRIORITY)
                .action(Action::Output(w.in_port))
                .idle(self.config.switch_idle_timeout)
                .cookie(CLOUD_COOKIE),
        });
        self.host_route_outputs(at, sw, packet.src.ip, outputs);
        outputs.push(ControllerOutput::ReleaseViaTable {
            at,
            switch: sw,
            buffer_id: w.buffer_id,
        });
    }
}

/// Forward + reverse rewrite rules for one client↔service redirect on the
/// client's ingress switch (paper Fig. 2: the rewrite must be transparent in
/// both directions). Returns bare [`FlowSpec`]s; the caller stamps them with
/// the emission time and target switch.
pub(super) fn flow_pair(
    key: FlowKey,
    target: SocketAddr,
    cluster_port: PortId,
    client_port: PortId,
    idle_timeout: SimDuration,
    cookie: u64,
) -> [FlowSpec; 2] {
    let forward = FlowSpec::new(FlowMatch::client_to_service(
        key.client_ip,
        key.service_addr,
    ))
    .priority(REDIRECT_PRIORITY)
    // Chained `.action()` stays in the ActionList's inline storage — no
    // heap allocation on the per-request install path.
    .action(Action::SetDstIp(target.ip))
    .action(Action::SetDstPort(target.port))
    .action(Action::Output(cluster_port))
    .idle(idle_timeout)
    .cookie(cookie);
    // Response path: rewrite the edge instance's address back to the cloud
    // address the client thinks it is talking to.
    let reverse = FlowSpec::new(reply_match(Protocol::Tcp, target, key.client_ip))
        .priority(REDIRECT_PRIORITY)
        .action(Action::SetSrcIp(key.service_addr.ip))
        .action(Action::SetSrcPort(key.service_addr.port))
        .action(Action::Output(client_port))
        .idle(idle_timeout)
        .cookie(cookie);
    let pair = [forward, reverse];
    #[cfg(debug_assertions)]
    debug_check_flow_pair(&pair, key, target);
    pair
}

/// The reverse half of a client↔service flow: replies from `from` to
/// `client`.
fn reply_match(protocol: Protocol, from: SocketAddr, client: IpAddr) -> FlowMatch {
    FlowMatch {
        protocol: Some(protocol),
        src_ip: Some(from.ip),
        src_port: Some(from.port),
        dst_ip: Some(client),
        ..FlowMatch::default()
    }
}

/// Check-on-install hook (debug builds): the forward/reverse pair must be a
/// transparent mirror — the client's packet reaches `target`, and the reply
/// leaves re-addressed as the cloud service. A pair that fails this would
/// break the paper's transparency invariant silently, so it is a programming
/// error worth an assert rather than a runtime `Violation`.
#[cfg(debug_assertions)]
fn debug_check_flow_pair(pair: &[FlowSpec; 2], key: FlowKey, target: SocketAddr) {
    let client = SocketAddr::new(key.client_ip, 40000);
    let syn = Packet::syn(client, key.service_addr, 0);
    debug_assert!(
        pair[0].matcher.matches(&syn),
        "forward rule must match the client's service-addressed packet"
    );
    let mut p = syn;
    for a in &pair[0].actions {
        match a {
            Action::SetDstIp(ip) => p.dst.ip = *ip,
            Action::SetDstPort(port) => p.dst.port = *port,
            _ => {}
        }
    }
    debug_assert_eq!(p.dst, target, "forward rule must rewrite to the target");

    let reply = Packet::syn(target, client, 0);
    debug_assert!(
        pair[1].matcher.matches(&reply),
        "reverse rule must match the instance's reply"
    );
    let mut r = reply;
    for a in &pair[1].actions {
        match a {
            Action::SetSrcIp(ip) => r.src.ip = *ip,
            Action::SetSrcPort(port) => r.src.port = *port,
            _ => {}
        }
    }
    debug_assert_eq!(
        r.src, key.service_addr,
        "reverse rule must restore the cloud service address"
    );
}
