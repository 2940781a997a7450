//! Per-device submission queues, scheduling policies and admission QoS.
//!
//! Each served device owns one [`Lane`]: a queue of pending requests plus,
//! under deficit round-robin, the per-session rotation state that policy
//! needs. The queue has no bound of its own (the front-end's reservation
//! bounds it), and the rotation drops a session when it finds the
//! session's queue empty, so closing a session sends the lane nothing. The lane never executes
//! anything itself — the service drains batches out of it and hands them
//! to the coalescer.
//!
//! [`Admission`] sits *in front of* the lanes: per-tenant token buckets
//! (sustained rate + burst, refilled on the virtual clock) and weighted
//! max-min in-flight shares, both enforced before a request ever reserves
//! queue depth. A flooding tenant is throttled at its own budget while its
//! victims keep admitting into the capacity the flooder can no longer
//! monopolise.
//!
//! Since the multi-core refactor, batches are **arrival-gated**: a lane
//! executes on its own clock, and a batch dispatched at lane time `t` may
//! only contain requests whose (virtual) *admission* time
//! ([`Pending::arrived_ns`] — the per-call SMC's return, or the doorbell
//! that drained the submission ring) is `<= t` — a core cannot serve a
//! request the TEE has not seen yet. Queues are FIFO in admission time,
//! so gating is a prefix under FIFO and a per-session prefix under
//! deficit round-robin.

use std::collections::VecDeque;

use crate::coalesce::{direction, Arrival};
use crate::{Device, IdMap, Request, RequestId, SessionId};

/// Virtual nanoseconds per second (token-bucket rate conversions).
const NS_PER_SEC: u64 = 1_000_000_000;

/// Backoff hint carried in a weighted-share rejection when the tenant has
/// no token-bucket rate to derive one from: roughly one short replay's
/// virtual service time, so the tenant retries after one of its own
/// in-flight requests has had a chance to complete.
const SHARE_RETRY_HINT_NS: u64 = 10_000;

/// Per-tenant QoS parameters, set via
/// [`crate::DriverletService::set_session_qos`] (sessions without one use
/// [`QosConfig::default_qos`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionQos {
    /// Sustained admission rate in requests per virtual second. `0` means
    /// no rate limit (the token bucket is bypassed).
    pub rate_rps: u64,
    /// Token-bucket depth in requests: how far above the sustained rate a
    /// burst may go before throttling starts.
    pub burst: u64,
    /// Weighted max-min share weight: the tenant's in-flight bound on a
    /// device is `fleet_capacity * weight / Σ active weights` (idle
    /// tenants' shares redistribute to backlogged ones).
    pub weight: u64,
}

impl Default for SessionQos {
    fn default() -> Self {
        SessionQos { rate_rps: 0, burst: 16, weight: 1 }
    }
}

/// Admission-QoS knobs ([`crate::ServeConfig::qos`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QosConfig {
    /// Master switch. Off (the default) preserves the pre-QoS admission
    /// behaviour exactly: no token buckets, no share bounds.
    pub enabled: bool,
    /// QoS applied to sessions that never called
    /// [`crate::DriverletService::set_session_qos`].
    pub default_qos: SessionQos,
}

/// One tenant's token bucket, denominated in virtual nanoseconds of
/// credit: a request costs `NS_PER_SEC / rate_rps` credit, the bucket
/// caps at `burst` requests' worth, and credit accrues 1:1 with the
/// virtual clock — so refill is a subtraction, not a background task.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    credit_ns: u64,
    last_refill_ns: u64,
}

/// One tenant's admission state: its QoS override, token bucket and
/// per-device in-flight counts.
#[derive(Debug, Default)]
struct Tenant {
    qos: Option<SessionQos>,
    bucket: Option<Bucket>,
    inflight: [u64; Device::COUNT],
}

/// The admission-QoS gate the front-end consults before reserving queue
/// depth. Single-owner state (the service front-end), so plain maps — the
/// lanes never touch this.
///
/// The weighted share is O(1): `active` keeps, per device, the summed
/// weight of the tenants with a request in flight there, updated on each
/// tenant's 0 ↔ 1 in-flight edge, on a weight change and when a tenant is
/// forgotten, instead of rescanning every `(session, device)` pair on
/// every admit.
#[derive(Debug, Default)]
pub struct Admission {
    config: QosConfig,
    tenants: IdMap<SessionId, Tenant>,
    active: [u64; Device::COUNT],
}

impl Admission {
    /// A gate under `config`.
    pub fn new(config: QosConfig) -> Admission {
        Admission { config, ..Admission::default() }
    }

    /// Whether the gate enforces anything at all.
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// Install `qos` for `session` (replacing the config default).
    pub fn set_session(&mut self, session: SessionId, qos: SessionQos) {
        let default = self.config.default_qos;
        let t = self.tenants.entry(session).or_default();
        let old = t.qos.unwrap_or(default).weight.max(1);
        t.qos = Some(qos);
        for d in (0..Device::COUNT).filter(|&d| t.inflight[d] > 0) {
            self.active[d] = self.active[d] - old + qos.weight.max(1);
        }
    }

    /// Drop a closed session's QoS state.
    pub fn forget_session(&mut self, session: SessionId) {
        if let Some(t) = self.tenants.remove(&session) {
            let w = t.qos.unwrap_or(self.config.default_qos).weight.max(1);
            for d in (0..Device::COUNT).filter(|&d| t.inflight[d] > 0) {
                self.active[d] -= w;
            }
        }
    }

    fn qos_of(&self, session: SessionId) -> SessionQos {
        self.tenants.get(&session).and_then(|t| t.qos).unwrap_or(self.config.default_qos)
    }

    /// Credit cost of one request under `qos` (`None` when unlimited).
    fn cost_ns(qos: SessionQos) -> Option<u64> {
        (qos.rate_rps > 0).then(|| NS_PER_SEC / qos.rate_rps)
    }

    /// The tenant's weighted max-min in-flight bound on a device fleet of
    /// `fleet_capacity` total queue slots: idle tenants drop out of the
    /// denominator, so a lone backlogged tenant may use the whole fleet
    /// and the bound only bites while competitors are actually in flight.
    fn share_of(&self, session: SessionId, device: Device, fleet_capacity: usize) -> u64 {
        let w = self.qos_of(session).weight.max(1);
        let mine = self.tenants.get(&session).map_or(0, |t| t.inflight[device.index()]);
        // `active` counts this tenant's own weight once it is in flight.
        let others = self.active[device.index()] - if mine > 0 { w } else { 0 };
        ((fleet_capacity as u64).saturating_mul(w) / (others + w)).max(1)
    }

    /// Gate one request from `session` to `device` at virtual time
    /// `now_ns`, against the device fleet's total queue capacity. `Ok`
    /// charges the token bucket and provisionally counts the request in
    /// flight — pair it with [`Admission::on_done`] when the request
    /// leaves the service, or [`Admission::rollback`] if the submit fails
    /// downstream (queue full, routing reject). `Err` carries the
    /// `retry_after_ns` backoff hint for [`crate::ServeError::Throttled`].
    pub fn admit(
        &mut self,
        session: SessionId,
        device: Device,
        fleet_capacity: usize,
        now_ns: u64,
    ) -> Result<(), u64> {
        if !self.config.enabled {
            return Ok(());
        }
        let share = self.share_of(session, device, fleet_capacity);
        let qos = self.qos_of(session);
        let cost = Admission::cost_ns(qos);
        let t = self.tenants.entry(session).or_default();
        if let Some(cost) = cost {
            let cap = cost.saturating_mul(qos.burst.max(1));
            let bucket = t.bucket.get_or_insert(Bucket { credit_ns: cap, last_refill_ns: now_ns });
            let elapsed = now_ns.saturating_sub(bucket.last_refill_ns);
            bucket.credit_ns = cap.min(bucket.credit_ns.saturating_add(elapsed));
            bucket.last_refill_ns = now_ns;
            if bucket.credit_ns < cost {
                return Err(cost - bucket.credit_ns);
            }
        }
        let mine = &mut t.inflight[device.index()];
        if *mine >= share {
            return Err(cost.unwrap_or(SHARE_RETRY_HINT_NS));
        }
        if let (Some(cost), Some(bucket)) = (cost, t.bucket.as_mut()) {
            bucket.credit_ns -= cost;
        }
        *mine += 1;
        if *mine == 1 {
            self.active[device.index()] += qos.weight.max(1);
        }
        Ok(())
    }

    /// The admitted request left the service (its completion was posted).
    pub fn on_done(&mut self, session: SessionId, device: Device) {
        let default = self.config.default_qos;
        let Some(t) = self.tenants.get_mut(&session) else { return };
        let n = &mut t.inflight[device.index()];
        if *n > 0 {
            *n -= 1;
            if *n == 0 {
                self.active[device.index()] -= t.qos.unwrap_or(default).weight.max(1);
            }
        }
    }

    /// The admitted request never made it into a queue (downstream
    /// rejection): refund the token and the in-flight slot, so QoS
    /// accounting stays exact and a `QueueFull` burst does not also eat
    /// the tenant's rate budget.
    pub fn rollback(&mut self, session: SessionId, device: Device) {
        let qos = self.qos_of(session);
        let bucket = self.tenants.get_mut(&session).and_then(|t| t.bucket.as_mut());
        if let (Some(cost), Some(bucket)) = (Admission::cost_ns(qos), bucket) {
            let cap = cost.saturating_mul(qos.burst.max(1));
            bucket.credit_ns = cap.min(bucket.credit_ns.saturating_add(cost));
        }
        self.on_done(session, device);
    }
}

/// Scheduling policy for draining a device's submission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Serve strictly in arrival order across all sessions.
    #[default]
    Fifo,
    /// Deficit round-robin across sessions: each session's deficit grows
    /// by `quantum_blocks` per scheduling round and pays per request in
    /// block-equivalents ([`Request::cost_blocks`]), so a session issuing
    /// large requests cannot starve sessions issuing small ones.
    DeficitRoundRobin {
        /// Deficit added to each backlogged session per round.
        quantum_blocks: u64,
    },
}

/// One queued request.
#[derive(Debug)]
pub struct Pending {
    /// Request id (unique per service).
    pub id: RequestId,
    /// Owning session.
    pub session: SessionId,
    /// The request itself.
    pub req: Request,
    /// Virtual (control-clock) time the client *initiated* the request —
    /// latency is measured from here, so it includes whatever the submit
    /// path itself cost (the per-call SMC, or the wait for a doorbell).
    pub submitted_ns: u64,
    /// Virtual (control-clock) time the TEE *admitted* the request — the
    /// per-call SMC's return, or the doorbell that drained it out of the
    /// submission ring. A lane may not serve the request before this
    /// instant (`arrived_ns >= submitted_ns` by construction).
    pub arrived_ns: u64,
}

/// A device's submission queue. It is unbounded: the front-end's
/// reservation, which rejects a submit with [`crate::ServeError::QueueFull`],
/// is the lane's only capacity check, so every request that reaches the
/// lane fits.
pub struct Lane {
    queue: VecDeque<Pending>,
    policy: Policy,
    /// DRR state: deficit per backlogged session (empty under FIFO).
    deficits: IdMap<SessionId, u64>,
    /// Round-robin order: sessions in first-backlog order (empty under
    /// FIFO). A session leaves it, with its deficit, when the rotation
    /// finds its queue empty, so a closed session needs no notice.
    rr_order: Vec<SessionId>,
    rr_cursor: usize,
}

impl Lane {
    /// An empty lane scheduled under `policy`.
    pub fn new(policy: Policy) -> Self {
        Lane {
            queue: VecDeque::new(),
            policy,
            deficits: IdMap::default(),
            rr_order: Vec::new(),
            rr_cursor: 0,
        }
    }

    /// Queue depth.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the lane has no queued work.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The queue as the plug planner sees it: (session, arrival,
    /// direction) in arrival order. Lazy — the planner runs on the event
    /// loop's hot path and only inspects the prefix up to its hold
    /// deadline, so nothing is materialised.
    pub fn arrivals(&self) -> impl Iterator<Item = Arrival> + '_ {
        self.queue.iter().map(|p| Arrival {
            session: p.session,
            arrival_ns: p.arrived_ns,
            direction: direction(&p.req),
        })
    }

    /// Enqueue.
    pub fn push(&mut self, p: Pending) {
        if matches!(self.policy, Policy::DeficitRoundRobin { .. })
            && !self.rr_order.contains(&p.session)
        {
            self.rr_order.push(p.session);
        }
        self.queue.push_back(p);
    }

    /// Take *every* queued request out of the lane and reset the DRR
    /// bookkeeping — the quarantine drain. The evicted requests keep
    /// their stamps; the supervisor re-routes them (clean reads to
    /// healthy siblings, the rest back here after the soft reset).
    pub fn evict_all(&mut self) -> Vec<Pending> {
        self.deficits.clear();
        self.rr_order.clear();
        self.rr_cursor = 0;
        self.queue.drain(..).collect()
    }

    /// Drain the next batch (at most `window` requests) under the lane's
    /// policy into `batch` (emptied first; the caller reuses it across
    /// batches), taking only requests that have arrived by lane time
    /// `arrived_by`.
    pub fn next_batch(&mut self, window: usize, arrived_by: u64, batch: &mut Vec<Pending>) {
        batch.clear();
        match self.policy {
            Policy::Fifo => {
                // FIFO in admission time: the arrived set is a prefix.
                let n = self
                    .queue
                    .iter()
                    .take(window)
                    .take_while(|p| p.arrived_ns <= arrived_by)
                    .count();
                batch.extend(self.queue.drain(..n));
            }
            Policy::DeficitRoundRobin { quantum_blocks } => {
                self.drr_batch(quantum_blocks.max(1), window, arrived_by, batch)
            }
        }
    }

    fn pop_for_session(&mut self, session: SessionId) -> Option<Pending> {
        let idx = self.queue.iter().position(|p| p.session == session)?;
        self.queue.remove(idx)
    }

    fn session_has_work(&self, session: SessionId) -> bool {
        self.queue.iter().any(|p| p.session == session)
    }

    /// The cost of the session's *next* request, provided it has arrived.
    /// Per-session order is submission order, so an unarrived front
    /// request blocks the session's later requests too.
    fn arrived_front_cost(&self, session: SessionId, arrived_by: u64) -> Option<u64> {
        self.queue
            .iter()
            .find(|p| p.session == session)
            .filter(|p| p.arrived_ns <= arrived_by)
            .map(|p| p.req.cost_blocks())
    }

    fn drr_batch(
        &mut self,
        quantum: u64,
        window: usize,
        arrived_by: u64,
        batch: &mut Vec<Pending>,
    ) {
        // Iterate sessions round-robin from the saved cursor; stop after a
        // full rotation that contributed nothing (deficits keep
        // accumulating across calls, so large requests are served
        // eventually) or when the batch window fills.
        let mut barren_rotations = 0usize;
        while batch.len() < window
            && self.queue.iter().any(|p| p.arrived_ns <= arrived_by)
            && !self.rr_order.is_empty()
        {
            self.rr_cursor %= self.rr_order.len();
            let session = self.rr_order[self.rr_cursor];
            if !self.session_has_work(session) {
                // Active-list DRR: an idle session forfeits its deficit and
                // leaves the rotation (it rejoins on its next submit) — so
                // a long-lived lane never accumulates dead sessions.
                self.deficits.remove(&session);
                self.rr_order.remove(self.rr_cursor);
                continue;
            }
            let mut took_any = false;
            if self.arrived_front_cost(session, arrived_by).is_some() {
                let deficit = self.deficits.entry(session).or_insert(0);
                *deficit += quantum;
                while batch.len() < window {
                    let Some(front_cost) = self.arrived_front_cost(session, arrived_by) else {
                        break;
                    };
                    let deficit = self.deficits.entry(session).or_insert(0);
                    if *deficit < front_cost {
                        break;
                    }
                    *deficit -= front_cost;
                    let p = self.pop_for_session(session).expect("front cost implies presence");
                    batch.push(p);
                    took_any = true;
                }
            }
            // A session whose work has not arrived yet keeps its rotation
            // slot (and deficit) but earns no quantum this round.
            self.rr_cursor += 1;
            barren_rotations = if took_any { 0 } else { barren_rotations + 1 };
            if barren_rotations >= self.rr_order.len() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::Device;

    fn batch_of(lane: &mut Lane, window: usize, arrived_by: u64) -> Vec<Pending> {
        let mut batch = Vec::new();
        lane.next_batch(window, arrived_by, &mut batch);
        batch
    }

    fn rd(session: SessionId, id: RequestId, blkid: u32, blkcnt: u32) -> Pending {
        Pending {
            id,
            session,
            req: Request::Read { device: Device::Mmc, blkid, blkcnt },
            submitted_ns: 0,
            arrived_ns: 0,
        }
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut lane = Lane::new(Policy::Fifo);
        for i in 0..3u64 {
            lane.push(rd(1, i, i as u32, 1));
        }
        let batch = batch_of(&mut lane, 10, u64::MAX);
        assert_eq!(batch.iter().map(|p| p.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(lane.is_empty());
    }

    #[test]
    fn batches_are_arrival_gated_under_both_policies() {
        let mk = |session: SessionId, id: RequestId, submitted_ns: u64| Pending {
            id,
            session,
            req: Request::Read { device: Device::Mmc, blkid: id as u32, blkcnt: 1 },
            submitted_ns,
            arrived_ns: submitted_ns,
        };
        // FIFO: only the prefix that has arrived by lane time 150 drains.
        let mut lane = Lane::new(Policy::Fifo);
        lane.push(mk(1, 0, 100));
        lane.push(mk(1, 1, 150));
        lane.push(mk(2, 2, 900));
        let batch = batch_of(&mut lane, 8, 150);
        assert_eq!(batch.iter().map(|p| p.id).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(
            lane.arrivals().map(|a| a.arrival_ns).collect::<Vec<_>>(),
            vec![900],
            "the future request stays queued"
        );

        // DRR: a session whose work has not arrived earns no quantum and
        // blocks nothing; the arrived session's requests drain in order.
        let mut lane = Lane::new(Policy::DeficitRoundRobin { quantum_blocks: 8 });
        lane.push(mk(1, 0, 100));
        lane.push(mk(2, 1, 500));
        lane.push(mk(1, 2, 120));
        let batch = batch_of(&mut lane, 8, 200);
        assert_eq!(batch.iter().map(|p| p.id).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(lane.len(), 1);
    }

    #[test]
    fn drr_interleaves_sessions_fairly() {
        // A 256-block quantum lets each session take one large request (or
        // many small ones) per rotation.
        let mut lane = Lane::new(Policy::DeficitRoundRobin { quantum_blocks: 256 });
        // Session 1 floods with large reads; session 2 issues small ones.
        let mut id = 0u64;
        for i in 0..4 {
            lane.push(rd(1, id, i * 256, 256));
            id += 1;
        }
        for i in 0..4 {
            lane.push(rd(2, id, 10_000 + i, 1));
            id += 1;
        }
        let batch = batch_of(&mut lane, 4, u64::MAX);
        let sessions: Vec<SessionId> = batch.iter().map(|p| p.session).collect();
        assert!(
            sessions.contains(&1) && sessions.contains(&2),
            "both sessions must appear in the first batch, got {sessions:?}"
        );
        // Per-session order is preserved.
        let s2: Vec<RequestId> = batch.iter().filter(|p| p.session == 2).map(|p| p.id).collect();
        let mut sorted = s2.clone();
        sorted.sort_unstable();
        assert_eq!(s2, sorted);
    }

    #[test]
    fn evict_all_empties_the_queue_and_resets_drr_state() {
        let mut lane = Lane::new(Policy::DeficitRoundRobin { quantum_blocks: 1 });
        for i in 0..3u64 {
            lane.push(rd(1, i, i as u32, 1));
        }
        lane.push(rd(2, 9, 100, 1));
        // Prime some DRR state before the drain.
        let _ = batch_of(&mut lane, 1, u64::MAX);
        let evicted = lane.evict_all();
        assert_eq!(evicted.len(), 3, "everything still queued comes out");
        assert!(lane.is_empty());
        // The lane is immediately usable again.
        lane.push(rd(3, 20, 0, 1));
        let batch = batch_of(&mut lane, 4, u64::MAX);
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn lanes_keep_no_rotation_state_for_sessions_without_queued_work() {
        // DRR: session 1's only request drains in the first batch. The
        // next rotation finds its queue empty and drops its slot and
        // deficit, with no notice from the front-end.
        let mut lane = Lane::new(Policy::DeficitRoundRobin { quantum_blocks: 1 });
        lane.push(rd(1, 0, 0, 1));
        for i in 1..4u64 {
            lane.push(rd(2, i, i as u32, 1));
        }
        let first = batch_of(&mut lane, 2, u64::MAX);
        assert_eq!(first.iter().map(|p| p.session).collect::<Vec<_>>(), vec![1, 2]);
        assert!(lane.rr_order.contains(&1), "the rotation has not come round to session 1");
        let _ = batch_of(&mut lane, 1, u64::MAX);
        assert!(!lane.rr_order.contains(&1) && !lane.deficits.contains_key(&1));
        // Session 2 drains too. Once new work arrives, the rotation comes
        // round to it and drops it the same way.
        while !lane.is_empty() {
            let _ = batch_of(&mut lane, 4, u64::MAX);
        }
        lane.push(rd(3, 8, 8, 1));
        lane.push(rd(3, 9, 9, 1));
        for _ in 0..2 {
            assert_eq!(batch_of(&mut lane, 1, u64::MAX).len(), 1);
        }
        assert_eq!(lane.rr_order, vec![3]);
        assert!(!lane.deficits.contains_key(&2));

        // FIFO never reads rotation state, so pushes keep none.
        let mut lane = Lane::new(Policy::Fifo);
        for session in 0..64u32 {
            lane.push(rd(session, u64::from(session), session, 1));
        }
        assert_eq!(batch_of(&mut lane, 64, u64::MAX).len(), 64);
        assert!(lane.rr_order.is_empty() && lane.deficits.is_empty());
    }

    #[test]
    fn disabled_admission_gates_nothing() {
        let mut gate = Admission::new(QosConfig::default());
        assert!(!gate.is_enabled());
        for _ in 0..10_000 {
            assert!(gate.admit(1, Device::Mmc, 1, 0).is_ok());
        }
    }

    #[test]
    fn token_bucket_caps_a_flooder_and_refills_on_the_virtual_clock() {
        let mut gate = Admission::new(QosConfig {
            enabled: true,
            default_qos: SessionQos { rate_rps: 1_000, burst: 4, weight: 1 },
        });
        // Burst of 4 admits from a full bucket; the 5th throttles with the
        // exact time-to-next-token hint (cost = 1e6 ns at 1000 rps).
        for _ in 0..4 {
            assert!(gate.admit(1, Device::Mmc, 1_000, 0).is_ok());
        }
        let retry = gate.admit(1, Device::Mmc, 1_000, 0).unwrap_err();
        assert_eq!(retry, 1_000_000);
        // Half a token's worth of virtual time later the hint shrinks …
        assert_eq!(gate.admit(1, Device::Mmc, 1_000, 500_000).unwrap_err(), 500_000);
        // … and one full token later the submit goes through.
        assert!(gate.admit(1, Device::Mmc, 1_000, 1_000_000).is_ok());
        // The bucket caps at `burst`: a long idle gap does not bank more.
        for _ in 0..5 {
            gate.on_done(1, Device::Mmc);
        }
        for _ in 0..4 {
            assert!(gate.admit(1, Device::Mmc, 1_000, NS_PER_SEC * 60).is_ok());
        }
        assert!(gate.admit(1, Device::Mmc, 1_000, NS_PER_SEC * 60).is_err());
    }

    #[test]
    fn weighted_shares_are_max_min_and_rollback_refunds() {
        let mut gate = Admission::new(QosConfig {
            enabled: true,
            default_qos: SessionQos { rate_rps: 0, burst: 16, weight: 1 },
        });
        gate.set_session(1, SessionQos { rate_rps: 0, burst: 16, weight: 3 });
        // Alone on the device, session 2 may fill the whole fleet
        // (max-min: idle tenants' shares redistribute).
        for _ in 0..8 {
            assert!(gate.admit(2, Device::Mmc, 8, 0).is_ok());
        }
        assert!(gate.admit(2, Device::Mmc, 8, 0).is_err(), "fleet capacity still bounds");
        // Session 1 (weight 3) now competes: its share is 8·3/4 = 6.
        for _ in 0..6 {
            assert!(gate.admit(1, Device::Mmc, 8, 0).is_ok());
        }
        let hint = gate.admit(1, Device::Mmc, 8, 0).unwrap_err();
        assert!(hint > 0, "share rejection carries a backoff hint");
        // Draining one of session 1's requests reopens its share;
        // a rollback (downstream QueueFull) does the same.
        gate.on_done(1, Device::Mmc);
        assert!(gate.admit(1, Device::Mmc, 8, 0).is_ok());
        gate.rollback(1, Device::Mmc);
        assert!(gate.admit(1, Device::Mmc, 8, 0).is_ok());
        // Shares are per device: the USB fleet is unaffected.
        assert!(gate.admit(1, Device::Usb, 8, 0).is_ok());
        // forget_session clears the tenant's footprint entirely.
        gate.forget_session(2);
        assert!(gate.admit(2, Device::Mmc, 8, 0).is_ok());
    }

    /// The scan-based gate the incremental share replaced, kept as the
    /// reference: every admit rescans each `(session, device)` pair.
    struct ScanAdmission {
        config: QosConfig,
        qos: HashMap<SessionId, SessionQos>,
        buckets: HashMap<SessionId, Bucket>,
        inflight: HashMap<(SessionId, Device), u64>,
    }

    impl ScanAdmission {
        fn qos_of(&self, session: SessionId) -> SessionQos {
            self.qos.get(&session).copied().unwrap_or(self.config.default_qos)
        }

        fn share_of(&self, session: SessionId, device: Device, fleet_capacity: usize) -> u64 {
            let w = self.qos_of(session).weight.max(1);
            let mut active_weight = w;
            for (&(s, d), &inflight) in &self.inflight {
                if d == device && s != session && inflight > 0 {
                    active_weight += self.qos_of(s).weight.max(1);
                }
            }
            ((fleet_capacity as u64).saturating_mul(w) / active_weight).max(1)
        }

        fn admit(
            &mut self,
            session: SessionId,
            device: Device,
            cap: usize,
            now_ns: u64,
        ) -> Result<(), u64> {
            let qos = self.qos_of(session);
            let cost = Admission::cost_ns(qos);
            if let Some(cost) = cost {
                let full = cost.saturating_mul(qos.burst.max(1));
                let bucket = self
                    .buckets
                    .entry(session)
                    .or_insert(Bucket { credit_ns: full, last_refill_ns: now_ns });
                let elapsed = now_ns.saturating_sub(bucket.last_refill_ns);
                bucket.credit_ns = full.min(bucket.credit_ns.saturating_add(elapsed));
                bucket.last_refill_ns = now_ns;
                if bucket.credit_ns < cost {
                    return Err(cost - bucket.credit_ns);
                }
            }
            let mine = self.inflight.get(&(session, device)).copied().unwrap_or(0);
            if mine >= self.share_of(session, device, cap) {
                return Err(cost.unwrap_or(SHARE_RETRY_HINT_NS));
            }
            if let Some(cost) = cost {
                self.buckets.get_mut(&session).expect("bucket created above").credit_ns -= cost;
            }
            *self.inflight.entry((session, device)).or_insert(0) += 1;
            Ok(())
        }

        fn on_done(&mut self, session: SessionId, device: Device) {
            if let Some(n) = self.inflight.get_mut(&(session, device)) {
                *n = n.saturating_sub(1);
            }
        }

        fn rollback(&mut self, session: SessionId, device: Device) {
            let qos = self.qos_of(session);
            if let (Some(cost), Some(bucket)) =
                (Admission::cost_ns(qos), self.buckets.get_mut(&session))
            {
                let full = cost.saturating_mul(qos.burst.max(1));
                bucket.credit_ns = full.min(bucket.credit_ns.saturating_add(cost));
            }
            self.on_done(session, device);
        }
    }

    #[test]
    fn incremental_fair_share_matches_the_reference_scan() {
        const DEVICES: [Device; 3] = [Device::Mmc, Device::Usb, Device::Vchiq];
        const CAPS: [usize; 4] = [1, 3, 8, 64];
        for seed in 0..300u64 {
            let mut state = seed;
            let mut next = |n: u64| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % n
            };
            let qos = |next: &mut dyn FnMut(u64) -> u64| SessionQos {
                rate_rps: [0, 0, 50_000, 1_000_000][next(4) as usize],
                burst: 1 + next(6),
                weight: next(5),
            };
            let config = QosConfig { enabled: true, default_qos: qos(&mut next) };
            let mut gate = Admission::new(config);
            let mut scan = ScanAdmission {
                config,
                qos: HashMap::new(),
                buckets: HashMap::new(),
                inflight: HashMap::new(),
            };
            // Admitted requests not yet done or rolled back.
            let mut flying: Vec<(SessionId, Device)> = Vec::new();
            let mut now_ns = 0u64;
            for step in 0..200 {
                now_ns += next(20_000);
                let session = 1 + next(5) as SessionId;
                let device = DEVICES[next(3) as usize];
                let what = match next(10) {
                    0..=3 => {
                        let cap = CAPS[next(4) as usize];
                        let got = gate.admit(session, device, cap, now_ns);
                        let want = scan.admit(session, device, cap, now_ns);
                        assert_eq!(
                            got, want,
                            "seed {seed} step {step}: admit({session}, {device})"
                        );
                        // A third of the admitted submits hit QueueFull
                        // downstream and roll back.
                        if got.is_ok() && next(3) == 0 {
                            gate.rollback(session, device);
                            scan.rollback(session, device);
                        } else if got.is_ok() {
                            flying.push((session, device));
                        }
                        "admit"
                    }
                    4..=5 if !flying.is_empty() => {
                        let (s, d) = flying.swap_remove(next(flying.len() as u64) as usize);
                        gate.on_done(s, d);
                        scan.on_done(s, d);
                        "on_done"
                    }
                    6 if !flying.is_empty() => {
                        let (s, d) = flying.swap_remove(next(flying.len() as u64) as usize);
                        gate.rollback(s, d);
                        scan.rollback(s, d);
                        "rollback"
                    }
                    7..=8 => {
                        // Weight changes land while requests are in flight.
                        let q = qos(&mut next);
                        gate.set_session(session, q);
                        scan.qos.insert(session, q);
                        "set_session"
                    }
                    _ => {
                        // In-flight requests of a forgotten session still
                        // complete later: their on_done must be inert.
                        gate.forget_session(session);
                        scan.qos.remove(&session);
                        scan.buckets.remove(&session);
                        scan.inflight.retain(|(s, _), _| *s != session);
                        "forget_session"
                    }
                };
                for s in 1..=6 {
                    for d in DEVICES {
                        for cap in CAPS {
                            assert_eq!(
                                gate.share_of(s, d, cap),
                                scan.share_of(s, d, cap),
                                "seed {seed} step {step} after {what}: share of session {s} \
                                 on {d} at capacity {cap}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn drr_small_quantum_still_serves_large_requests_eventually() {
        let mut lane = Lane::new(Policy::DeficitRoundRobin { quantum_blocks: 8 });
        lane.push(rd(7, 1, 0, 256));
        // Quantum far below the request cost: deficits must accumulate
        // across rounds rather than deadlock.
        let mut batches = Vec::new();
        for _ in 0..40 {
            let b = batch_of(&mut lane, 4, u64::MAX);
            if !b.is_empty() {
                batches.push(b);
                break;
            }
        }
        assert_eq!(batches.len(), 1, "the large request must eventually be served");
    }
}
