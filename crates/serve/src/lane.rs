//! Per-lane execution engine: the worker that owns one device lane's TEE
//! core (platform, virtual clock, replayer) and queue, plus the shared
//! state that connects it to the service front-end.
//!
//! The same [`LaneWorker`] runs in **both** execution modes
//! ([`crate::service::ExecMode`]):
//!
//! * **Sequential** — the front-end keeps the worker inline and steps it
//!   from the single-threaded event loop, preserving the exact virtual-time
//!   behaviour of the pre-threading service (every PR 3–6 gate replays
//!   bit-identically).
//! * **Threaded** — the worker is moved onto its own OS thread (one host
//!   thread per TEE core, the paper's one-core-per-lane model made
//!   physical). The front-end talks to it only through three channels. A
//!   worker that runs dry polls for [`IDLE_POLL`] before it parks, and is
//!   unparked by doorbells, per-call admissions, control messages and
//!   shutdown.
//!
//! # One bound, one outbox
//!
//! Per lane there are three channels and one count:
//!
//! * `admit` (front-end → worker, a lock-free SPSC ring, [`crate::spsc`]):
//!   requests the TEE admitted (per-call SMC or doorbell), already stamped
//!   with `arrived_ns`. The front-end's reservation
//!   ([`LaneShared::reserve`]) is the lane's only capacity check, so the
//!   push never exceeds the ring and `QueueFull` carries one coherent
//!   depth snapshot.
//! * `cq` (worker → front-end, an unbounded `std::sync::mpsc` channel):
//!   completions in post order. Posting never blocks and never fails, so
//!   the worker keeps nothing back.
//! * `ctrl` (front-end → worker, mpsc): fault injection, health checks,
//!   quarantine eviction, stop. Handled strictly **between batches**,
//!   never mid-replay — that is the mid-flight safety contract
//!   `dlt-explore` relies on.
//!
//! The count is the lane's metrics series of admitted requests whose
//! completion is not yet posted (`LaneMetrics::in_queue`): the reservation
//! raises it and the worker lowers it, with `Release`, after the
//! completion is in the channel. Posting releases the reservation, so a
//! client that never reaps still makes progress. A worker wakes a parked
//! drain through [`DrainSignal`] on one edge only, its count reaching
//! zero (see [`LaneWorker::run`]). The worker publishes its clock through
//! the lock-free [`ClockCell`], so the front-end's pointwise-max
//! `now_ns()` join never takes a lane lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

use dlt_core::{replay_cam, ReplayError, Replayer, ResponseMutator};
use dlt_hw::{ClockCell, Platform};
use dlt_obs::metrics::LaneMetrics;
use dlt_obs::trace::{EventKind, TraceHandle};
use dlt_obs::{obs_event, obs_event_at};

use crate::coalesce::{self, plan_dispatch, Dispatch, DispatchReason, ExecPlan, Plan};
use crate::sched::{Lane, Pending};
use crate::spsc::SpscConsumer;
use crate::{Completion, Device, LaneHealth, Payload, Request, ServeError, BLOCK};

/// First block of the scratch extent `lane_health_check` overwrites on
/// block lanes (it stays clear of the low extents the tests and workloads
/// address).
pub(crate) const HEALTH_PROBE_BLKID: u32 = 1024;

/// The `rw` argument of a block replay that reads.
pub(crate) const READ: u64 = 0x1;
/// The `rw` argument of a block replay that writes.
pub(crate) const WRITE: u64 = 0x10;

pub(crate) fn block_args(rw: u64, blkcnt: u32, blkid: u32) -> [(&'static str, u64); 4] {
    [("rw", rw), ("blkcnt", u64::from(blkcnt)), ("blkid", u64::from(blkid)), ("flag", 0)]
}

/// How long a threaded lane that ran dry, or a threaded drain still
/// waiting for its lanes, keeps polling before it parks. In a closed loop
/// the next admission (or the last completion) usually lands well inside
/// it, so neither side pays a futex sleep and wake per round; each poll
/// yields the CPU, so on one core the peer thread still runs.
pub(crate) const IDLE_POLL: Duration = Duration::from_micros(300);

/// Liveness floor on every park: the unpark-token protocol already makes
/// each wait race-free, so this only bounds the damage of a missed edge.
pub(crate) const PARK_FLOOR: Duration = Duration::from_millis(1);

/// Whether an idle poll dry for `dry_for` polls again: it polls for
/// [`IDLE_POLL`], then parks.
pub(crate) fn keep_polling(dry_for: Duration) -> bool {
    dry_for < IDLE_POLL
}

/// One idle-poll episode of a lane worker or a threaded drain: when it
/// started.
pub(crate) struct IdlePoll(Instant);

impl IdlePoll {
    pub fn new() -> IdlePoll {
        IdlePoll(Instant::now())
    }

    /// Yield the CPU once and return `true`, or return `false` when the
    /// caller should park instead (see [`keep_polling`]).
    pub fn yield_once(&self) -> bool {
        if !keep_polling(self.0.elapsed()) {
            return false;
        }
        std::thread::yield_now();
        true
    }
}

/// The line lane workers wake a parked threaded drain on. The drain
/// [`registers`](DrainSignal::register) its thread before it first checks
/// quiescence; a worker [`notify`](DrainSignal::notify)s only on the edge
/// that check waits for — its `in_queue` count reaching zero — never per
/// batch. A notify that lands between the drain's check and its park
/// pre-pays the thread's unpark token, so the park returns at once and no
/// edge is lost.
#[derive(Debug, Default)]
pub(crate) struct DrainSignal {
    /// The thread of the most recent drain. Each update is one store, so a
    /// poisoned lock still holds a valid handle.
    waiter: Mutex<Option<Thread>>,
    /// Edges signalled so far.
    sent: AtomicU64,
}

impl DrainSignal {
    /// Make the calling thread the one [`DrainSignal::notify`] wakes.
    pub fn register(&self) {
        let me = std::thread::current();
        let mut waiter = self.waiter.lock().unwrap_or_else(PoisonError::into_inner);
        if waiter.as_ref().map(Thread::id) != Some(me.id()) {
            *waiter = Some(me);
        }
    }

    /// Wake the registered drain, or pre-pay its unpark token.
    pub fn notify(&self) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.waiter.lock().unwrap_or_else(PoisonError::into_inner).as_ref() {
            t.unpark();
        }
    }

    /// How many edges the lanes have signalled.
    #[cfg(test)]
    pub fn sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }
}

/// Lane state both sides read: the admission bound, the lane clock's
/// lock-free cell, and the worker thread's unpark handle.
#[derive(Debug)]
pub(crate) struct LaneShared {
    pub device: Device,
    /// The lane bound ([`crate::service::ServeConfig::queue_capacity`]):
    /// the most admitted requests whose completion is not yet posted.
    pub capacity: usize,
    /// The lane virtual clock's lock-free published view.
    pub clock: Arc<ClockCell>,
    /// The worker thread's handle, set once after spawn (threaded mode
    /// only); [`LaneShared::unpark`] is a no-op before it is set and in
    /// sequential mode.
    pub thread: OnceLock<std::thread::Thread>,
    /// The service's drain wake-up line.
    pub drain: Arc<DrainSignal>,
    /// The metrics plane's per-lane series: every lane counter the service
    /// reports ([`LaneHealth`], `ServeStats`, a full lane queue's
    /// `QueueFull` high water) is read from here. Its `in_queue` counts
    /// the requests admitted on [`LaneShared::reserve`] whose completion
    /// the worker has not yet posted.
    pub metrics: Arc<LaneMetrics>,
    /// The host-monotonic epoch `last_event_host_ns` stamps count from
    /// (shared with the recorder/registry so all host stamps align).
    pub obs_epoch: Instant,
}

impl LaneShared {
    pub fn new(
        device: Device,
        capacity: usize,
        clock: Arc<ClockCell>,
        drain: Arc<DrainSignal>,
        metrics: Arc<LaneMetrics>,
        obs_epoch: Instant,
    ) -> Self {
        LaneShared { device, capacity, clock, thread: OnceLock::new(), drain, metrics, obs_epoch }
    }

    /// Host-monotonic nanoseconds since the observability epoch.
    pub fn host_now_ns(&self) -> u64 {
        self.obs_epoch.elapsed().as_nanos() as u64
    }

    /// Wake the lane thread (no-op inline/sequential).
    pub fn unpark(&self) {
        if let Some(t) = self.thread.get() {
            t.unpark();
        }
    }

    /// Signal a drain edge (no-op inline/sequential, where the drain runs
    /// the worker itself and never parks).
    fn signal_drain(&self) {
        if self.thread.get().is_some() {
            self.drain.notify();
        }
    }

    /// Reserve one admission slot, or reject with a **single-snapshot**
    /// [`ServeError::QueueFull`]: the reported depth is the one atomic
    /// load the rejection decision was made on — never a second racy
    /// re-read — so a rejection raced against a draining worker still
    /// reports `depth <= capacity` consistently. `host_ns` is the
    /// admitting doorbell's host stamp.
    pub fn reserve(&self, host_ns: u64) -> Result<(), ServeError> {
        let depth = self.metrics.in_queue();
        if depth >= self.capacity as u64 {
            return Err(ServeError::QueueFull {
                device: self.device,
                depth: depth as usize,
                capacity: self.capacity,
                high_water: self.metrics.occupancy_high_water() as usize,
                fleet: Vec::new(),
            });
        }
        // Only the front-end thread reserves, so load-then-add cannot
        // overshoot: concurrent worker decrements only free slots.
        self.metrics.on_admit(depth + 1, host_ns);
        Ok(())
    }
}

/// The worker-relevant slice of the service configuration.
#[derive(Debug, Clone)]
pub(crate) struct LaneConfig {
    pub coalesce: bool,
    pub coalesce_window: usize,
    pub hold_budget_ns: u64,
    /// Sorted largest first, as [`coalesce::decompose`] takes them.
    pub block_granularities: Vec<u32>,
    pub camera_bursts: Vec<u32>,
}

/// Control-plane requests delivered to the worker between batches.
pub(crate) enum CtrlReq {
    /// Install (`Some`) or clear (`None`) a response mutator on the lane
    /// replayer — fault injection's entry point.
    SetMutator(Option<Box<dyn ResponseMutator>>),
    /// Run the lane health probe.
    HealthCheck,
    /// Quarantine drain: hand every queued (not yet dispatched) request
    /// back to the front-end for re-routing. The evicted requests keep
    /// their front-end reservations — the supervisor settles the
    /// in-flight accounting as it re-places each one.
    Evict,
    /// Exit the worker loop (threaded mode shutdown).
    Stop,
}

/// What a successful control request returns.
pub(crate) enum CtrlReply {
    /// The request had no payload to report.
    Done,
    /// [`CtrlReq::HealthCheck`]'s structured report.
    Health(LaneHealth),
    /// [`CtrlReq::Evict`]'s drained queue, in queue order.
    Evicted(Vec<Pending>),
}

pub(crate) struct CtrlMsg {
    pub req: CtrlReq,
    pub reply: mpsc::Sender<Result<CtrlReply, ServeError>>,
}

/// One device lane's execution engine (see the module docs).
pub(crate) struct LaneWorker {
    pub device: Device,
    pub lane: Lane,
    /// The lane's own TEE core: a full platform whose clock is the lane
    /// timeline every replay charges into.
    pub platform: Platform,
    pub replayer: Replayer,
    pub entry: &'static str,
    pub admit_rx: SpscConsumer<Pending>,
    pub cq_tx: mpsc::Sender<Completion>,
    pub ctrl_rx: mpsc::Receiver<CtrlMsg>,
    pub shared: Arc<LaneShared>,
    pub config: LaneConfig,
    /// Flight-recorder channel for this lane thread (`None` unless
    /// [`dlt_obs::ObsConfig::Full`]).
    pub tracer: Option<TraceHandle>,
    /// Buffers reused by every batch: the drained requests, their plan,
    /// their completions and a merged span's bytes.
    pub bufs: BatchBufs,
}

/// A lane worker's per-batch scratch, emptied and refilled each batch so
/// a warm lane allocates only the payloads it hands back.
#[derive(Default)]
pub(crate) struct BatchBufs {
    batch: Vec<Pending>,
    plan: Plan,
    done: Vec<Completion>,
    span: Vec<u8>,
}

impl LaneWorker {
    /// Lane-local time. The lane clock publishes every advance to its
    /// cell, and only this worker advances it, so the lock-free read is
    /// exact.
    pub fn now_ns(&self) -> u64 {
        self.shared.clock.now_ns()
    }

    /// The anticipatory-hold budget effective for this lane (holding is an
    /// optimisation of coalescing, so it follows the coalesce gates).
    fn hold_budget(&self) -> u64 {
        if self.config.coalesce && self.device != Device::Vchiq {
            self.config.hold_budget_ns
        } else {
            0
        }
    }

    /// Move every admitted request from the SPSC ring into the local
    /// queue. Returns how many were moved.
    pub fn pump_admissions(&mut self) -> usize {
        let mut moved = 0;
        while let Some(p) = self.admit_rx.try_pop() {
            self.lane.push(p);
            moved += 1;
        }
        moved
    }

    /// When this lane would next dispatch a batch, and why then.
    pub fn next_dispatch(&self) -> Option<Dispatch> {
        if self.lane.is_empty() {
            return None;
        }
        // The plug's fill cap is the smaller of the queue bound and the
        // dispatch window: once a batch's worth of requests has arrived,
        // holding longer cannot merge anything more into *this* dispatch.
        let fill_cap = self.shared.capacity.min(self.config.coalesce_window);
        Some(plan_dispatch(self.lane.arrivals(), self.now_ns(), self.hold_budget(), fill_cap))
    }

    /// Fast-forward to the dispatch instant, drain one arrival-gated batch
    /// and execute it. Returns the number of completions posted (0 when
    /// DRR deficits are still accumulating — the caller retries, exactly
    /// like the sequential event loop always has).
    pub fn run_one_batch(&mut self, dispatch: Dispatch) -> usize {
        // The core fast-forwards over its idle gap to the dispatch instant
        // (arrival or plug deadline)...
        self.platform.bus.lock().clock.advance_idle_to(dispatch.at_ns);
        // ...then unplugs and batches everything that arrived by then.
        let mut bufs = std::mem::take(&mut self.bufs);
        self.lane.next_batch(self.config.coalesce_window, dispatch.at_ns, &mut bufs.batch);
        let batch = &bufs.batch;
        if batch.is_empty() {
            self.bufs = bufs;
            return 0;
        }
        // One host stamp covers the whole dispatch cluster (plug marks plus
        // one `Dispatched` per request): the events are back-to-back and the
        // clock read is the dominant emit cost.
        let host_ns = self.tracer.is_some().then(|| self.shared.host_now_ns());
        if dispatch.held() {
            let expired = dispatch.reason == DispatchReason::HoldExpired;
            self.shared.metrics.on_hold(!expired);
            if let Some(host_ns) = host_ns {
                obs_event_at!(
                    self.tracer,
                    host_ns,
                    EventKind::Plug,
                    dispatch.at_ns,
                    0,
                    0,
                    batch.len() as u64
                );
                obs_event_at!(
                    self.tracer,
                    host_ns,
                    EventKind::Unplug,
                    dispatch.at_ns,
                    0,
                    0,
                    u64::from(expired)
                );
            }
        }
        if let Some(host_ns) = host_ns {
            for p in batch {
                obs_event_at!(
                    self.tracer,
                    host_ns,
                    EventKind::Dispatched,
                    dispatch.at_ns,
                    p.session,
                    p.id,
                    batch.len() as u64
                );
            }
        }
        self.execute_batch(&mut bufs);
        bufs.batch.clear();
        // One host stamp for the batch's completions: the metrics stamp
        // and the recorder share one epoch (see
        // `DriverletService::with_driverlets`), so it serves both planes.
        let host_ns = self.shared.host_now_ns();
        let n = bufs.done.len();
        for c in bufs.done.drain(..) {
            self.post(c, host_ns);
        }
        self.bufs = bufs;
        n
    }

    /// Post one completion towards the front-end: into the cq channel
    /// (unbounded, so never dropped and never blocking), then classify it
    /// in the metrics plane, whose `Release` decrement of `in_queue` lets
    /// quiescence observers see the completion before the count. Signals
    /// the drain when the lane's last in-flight request completes.
    fn post(&mut self, completion: Completion, host_ns: u64) {
        let ok = completion.result.is_ok();
        let diverged =
            matches!(completion.result, Err(ServeError::Replay(ReplayError::Diverged(_))));
        let latency_ns = completion.latency_ns();
        // A terminal error other than a divergence is still a `Completed`
        // span endpoint, tagged failed via the arg.
        let (kind, arg) = match (ok, diverged) {
            (true, _) => (EventKind::Completed, u64::from(completion.coalesced)),
            (false, true) => (EventKind::Diverged, 0),
            (false, false) => (EventKind::Completed, 2),
        };
        obs_event_at!(
            self.tracer,
            host_ns,
            kind,
            completion.completed_ns,
            completion.session,
            completion.id,
            arg
        );
        // The receiver goes only with the service, which stops the worker
        // first; a completion nobody can reap is dropped.
        let _ = self.cq_tx.send(completion);
        // Terminal metrics classification — deliberately at a different
        // site than admission (the front-end's reserve), so the snapshot
        // reconciliation invariant checks real instrumentation consistency.
        let metrics = &self.shared.metrics;
        let in_queue = match (ok, diverged) {
            (true, _) => metrics.on_complete(latency_ns, host_ns),
            (false, true) => metrics.on_diverge(host_ns),
            (false, false) => metrics.on_fail(host_ns),
        };
        if in_queue == 1 {
            self.shared.signal_drain();
        }
    }

    /// Handle one control request. Returns `false` on [`CtrlReq::Stop`].
    pub fn handle_ctrl(&mut self, msg: CtrlMsg) -> bool {
        let (result, keep_running) = match msg.req {
            CtrlReq::SetMutator(Some(mutator)) => {
                let now = self.now_ns();
                obs_event!(self.tracer, EventKind::FaultInject, now, 0, 0, 0);
                self.replayer.set_response_mutator(mutator);
                (Ok(CtrlReply::Done), true)
            }
            CtrlReq::SetMutator(None) => {
                let now = self.now_ns();
                obs_event!(self.tracer, EventKind::FaultClear, now, 0, 0, 0);
                self.replayer.clear_response_mutator();
                (Ok(CtrlReply::Done), true)
            }
            CtrlReq::HealthCheck => (self.health_check().map(CtrlReply::Health), true),
            CtrlReq::Evict => {
                // Pull everything the TEE already admitted into the local
                // queue first, so the eviction is complete — nothing stays
                // hidden in the admit ring to execute after the drain.
                self.pump_admissions();
                let evicted = self.lane.evict_all();
                (Ok(CtrlReply::Evicted(evicted)), true)
            }
            CtrlReq::Stop => (Ok(CtrlReply::Done), false),
        };
        // A dropped reply receiver is fine (e.g. the service gave up).
        let _ = msg.reply.send(result);
        keep_running
    }

    /// The lane thread's event loop (threaded mode).
    ///
    /// The worker never signals per batch. It notifies the front-end's
    /// [`DrainSignal`] on one edge only, which is what a parked drain
    /// waits for: its `in_queue` count reaching zero (every completion is
    /// in the cq channel).
    ///
    /// A worker with no admitted work and no control traffic polls both
    /// for [`IDLE_POLL`], yielding the CPU between polls so that on one
    /// core the producer it waits for still runs, then parks. In a closed
    /// loop the next round's first admission lands inside the window, so
    /// the front-end's unpark is one atomic swap rather than a futex wake.
    /// The park is race-free through the unpark token: any producer that
    /// pushed after the checks above also unparks the worker, which either
    /// wakes the park or pre-pays its token.
    pub fn run(mut self) {
        // Park/unpark are traced per idle *episode*, not per timed-out
        // park, so an idle lane does not fill its trace ring.
        let mut parked = false;
        // The idle poll since the worker last ran dry (`None` while it has
        // work).
        let mut idle: Option<IdlePoll> = None;
        loop {
            let mut progress = 0usize;
            while let Ok(msg) = self.ctrl_rx.try_recv() {
                if !self.handle_ctrl(msg) {
                    return;
                }
                progress += 1;
            }
            progress += self.pump_admissions();
            let dispatch = self.next_dispatch();
            if progress > 0 || dispatch.is_some() {
                idle = None;
                if parked {
                    parked = false;
                    let now = self.now_ns();
                    obs_event!(self.tracer, EventKind::Unpark, now, 0, 0, 0);
                }
            }
            if let Some(dispatch) = dispatch {
                // An empty batch still advanced DRR deficits; loop and
                // re-plan (terminates exactly as in sequential mode).
                self.run_one_batch(dispatch);
                continue;
            }
            if progress > 0 {
                continue;
            }
            if idle.get_or_insert_with(IdlePoll::new).yield_once() {
                continue;
            }
            if !parked {
                parked = true;
                let now = self.now_ns();
                obs_event!(self.tracer, EventKind::Park, now, 0, 0, 0);
            }
            if self.admit_rx.is_empty() {
                std::thread::park_timeout(PARK_FLOOR);
            }
        }
    }

    /// Execute the planned batch in `bufs.batch`, pushing one completion
    /// per request to `bufs.done`. A request's payload moves through the
    /// lane: a single read replays into the buffer its completion returns,
    /// and a single write replays from the request's own buffer; a merged
    /// span goes through `bufs.span` and copies out (its fan-out or
    /// concatenation).
    fn execute_batch(&mut self, bufs: &mut BatchBufs) {
        let BatchBufs { batch, plan, done, span } = bufs;
        plan.build(batch, self.config.coalesce && self.device != Device::Vchiq);
        for step in &plan.steps {
            let (blkid, members, rw) = match step {
                ExecPlan::Single(i) => {
                    self.shared.metrics.on_replay(1);
                    let result = self.execute_single(&mut batch[*i].req);
                    done.push(self.complete(&batch[*i], result, false));
                    continue;
                }
                ExecPlan::MergedRead { blkid, blkcnt, members } => {
                    span.clear();
                    span.resize(*blkcnt as usize * BLOCK, 0);
                    (*blkid, plan.members(members), READ)
                }
                ExecPlan::BatchedWrite { blkid, members } => {
                    span.clear();
                    for &m in plan.members(members) {
                        let Request::Write { data, .. } = &batch[m].req else {
                            unreachable!("batched write members are writes");
                        };
                        span.extend_from_slice(data);
                    }
                    (*blkid, plan.members(members), WRITE)
                }
            };
            self.shared.metrics.on_replay(members.len() as u64);
            if self.replay_span(rw, blkid, span).is_err() {
                // The merged span failed (e.g. one member is out of
                // recorded coverage). Fall back to member-by-member
                // execution so every request gets exactly the outcome the
                // serial order would have produced: a partially executed
                // batched write is re-issued per member in order, which
                // matches the serial outcome because writes are idempotent
                // per extent, from the members' own intact buffers.
                for &m in members {
                    let result = self.execute_single(&mut batch[m].req);
                    done.push(self.complete(&batch[m], result, false));
                }
                continue;
            }
            self.shared.metrics.on_merged(members.len() as u64);
            for &m in members {
                let p = &batch[m];
                let payload = match p.req {
                    Request::Read { blkid: rb, blkcnt: rc, .. } => {
                        let off = (rb - blkid) as usize * BLOCK;
                        Payload::Read(span[off..off + rc as usize * BLOCK].to_vec())
                    }
                    Request::Write { ref data, .. } => {
                        Payload::Written { blocks: (data.len() / BLOCK) as u32 }
                    }
                    Request::Capture { .. } => unreachable!("captures never merge"),
                };
                done.push(self.complete(p, Ok(payload), true));
            }
        }
    }

    fn complete(
        &self,
        p: &Pending,
        result: Result<Payload, ServeError>,
        coalesced: bool,
    ) -> Completion {
        Completion {
            id: p.id,
            session: p.session,
            device: self.device,
            result,
            submitted_ns: p.submitted_ns,
            // Lane-local completion time: the request finished on its own
            // core's timeline (>= submitted_ns, because the lane never
            // dispatches a request before it arrived).
            completed_ns: self.now_ns(),
            coalesced,
        }
    }

    /// Execute one request as-is. A read replays into the buffer its
    /// payload returns; a write replays from the request's own buffer:
    /// the request is spent once it executes.
    fn execute_single(&mut self, req: &mut Request) -> Result<Payload, ServeError> {
        match req {
            Request::Read { blkid, blkcnt, .. } => {
                let mut buf = vec![0u8; *blkcnt as usize * BLOCK];
                self.replay_span(READ, *blkid, &mut buf).map(|()| Payload::Read(buf))
            }
            Request::Write { blkid, data, .. } => {
                let blocks = (data.len() / BLOCK) as u32;
                self.replay_span(WRITE, *blkid, data).map(|()| Payload::Written { blocks })
            }
            Request::Capture { frames, resolution } => {
                let mut buf = vec![0u8; 2 << 20];
                let size = replay_cam(&mut self.replayer, *frames, *resolution, &mut buf)?;
                self.shared.metrics.on_invocation(0);
                buf.truncate(size as usize);
                Ok(Payload::Image { data: buf })
            }
        }
    }

    /// One (possibly merged or batched) block span in direction `rw`
    /// ([`READ`] into `buf`, [`WRITE`] from it), decomposed over the
    /// recorded granularities.
    fn replay_span(&mut self, rw: u64, blkid: u32, buf: &mut [u8]) -> Result<(), ServeError> {
        let mut done = 0u32;
        for part in
            coalesce::decompose((buf.len() / BLOCK) as u32, &self.config.block_granularities)
        {
            let start = done as usize * BLOCK;
            let end = (done + part) as usize * BLOCK;
            self.replayer.invoke_args(
                self.entry,
                &block_args(rw, part, blkid + done),
                &mut buf[start..end],
            )?;
            self.shared.metrics.on_invocation(u64::from(part));
            done += part;
        }
        Ok(())
    }

    /// The lane health probe (see
    /// [`crate::service::DriverletService::lane_health_check`]): the
    /// active write/read-back (or capture) probe, then a structured
    /// [`LaneHealth`] report built from the metrics plane.
    pub fn health_check(&mut self) -> Result<LaneHealth, ServeError> {
        let gran = self.config.block_granularities.iter().copied().min().unwrap_or(1);
        let frames = self.config.camera_bursts.first().copied().unwrap_or(1);
        match self.device {
            Device::Mmc | Device::Usb => {
                let pattern: Vec<u8> =
                    (0..gran as usize * BLOCK).map(|i| (i as u8) ^ 0xA5).collect();
                let mut buf = pattern.clone();
                self.replayer.invoke_args(
                    self.entry,
                    &block_args(WRITE, gran, HEALTH_PROBE_BLKID),
                    &mut buf,
                )?;
                let mut readback = vec![0u8; gran as usize * BLOCK];
                self.replayer.invoke_args(
                    self.entry,
                    &block_args(READ, gran, HEALTH_PROBE_BLKID),
                    &mut readback,
                )?;
                if readback != pattern {
                    return Err(ServeError::Invalid(format!(
                        "lane {} failed its health probe: read-back differs from the \
                         written pattern",
                        self.device
                    )));
                }
            }
            Device::Vchiq => {
                let mut buf = vec![0u8; 2 << 20];
                let size = replay_cam(&mut self.replayer, frames, 720, &mut buf)?;
                if size == 0 {
                    return Err(ServeError::Invalid(
                        "lane vchiq failed its health probe: empty capture".into(),
                    ));
                }
            }
        }
        let metrics = &self.shared.metrics;
        metrics.touch(self.shared.host_now_ns());
        Ok(LaneHealth {
            device: self.device,
            state: crate::LaneState::from_gauge(metrics.state()),
            queued: self.lane.len() as u64,
            inflight: self.shared.metrics.in_queue(),
            completed: metrics.completed(),
            diverged: metrics.diverged(),
            last_event_host_ns: metrics.last_event_host_ns(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_idle_poll_parks_at_the_window() {
        assert!(keep_polling(Duration::ZERO));
        assert!(keep_polling(Duration::from_micros(299)));
        assert!(!keep_polling(IDLE_POLL));
    }
}
