//! Plane 2: the metrics registry.
//!
//! Allocation-free on the hot path: every series is a plain atomic — a
//! counter, a gauge, or one of 64 fixed log₂ [`Histogram`] buckets — and
//! recording is a single `fetch_add`/`fetch_max` with relaxed ordering.
//! The registry is the serve layer's one counter plane: counters and
//! gauges always record (they back `ServeStats`, `LaneHealth`, the SMC
//! counts and `QueueFull`'s high-water report), and only the histograms
//! are switched by the observability level.
//! Series are keyed structurally (one [`LaneMetrics`] per lane, one
//! [`SmcMetrics`] array slot per [`SmcKind`], one [`SessionMetrics`] per
//! open session); the only lock in the plane guards the session map, which
//! is touched on open/close and snapshot, never per-request by the lanes.
//!
//! [`MetricsRegistry::snapshot`] freezes everything into a
//! [`MetricsSnapshot`] — a serde-serialisable value the bench artifacts
//! (`BENCH_obs.json`) and the `report -- obs` pretty-printer consume.
//!
//! The **reconciliation invariant** (property-tested in the serve suite):
//! for every lane, `admitted == completed + diverged + failed + in_queue`.
//! The four counters are bumped at *independent* instrumentation sites
//! (admission in the front-end's reserve, terminal classification in the
//! lane worker's completion post), so the invariant genuinely checks that
//! the instrumentation is consistent — it cannot hold by construction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::trace::SmcKind;

/// Number of log₂ buckets: bucket `i` counts values whose bit length is
/// `i` (bucket 0 holds the value 0), so the upper bound of bucket `i > 0`
/// is `2^i − 1` and 64 buckets cover the whole `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket log₂ histogram: 64 atomic counters, no allocation and no
/// locking to record. A histogram built with `recording = false` ignores
/// observations — the observability level's one switch on this plane.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    recording: bool,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(true)
    }
}

impl Histogram {
    /// An empty histogram that records observations iff `recording`.
    pub fn new(recording: bool) -> Histogram {
        Histogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)), recording }
    }

    /// Index of the bucket covering `value`: its bit length, clamped into
    /// the table.
    pub fn bucket_index(value: u64) -> usize {
        ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Count one observation (a no-op unless the histogram records).
    pub fn record(&self, value: u64) {
        if self.recording {
            self.buckets[Histogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Freeze the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// A frozen [`Histogram`]: the per-bucket counts, serialisable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// One count per log₂ bucket (see [`HISTOGRAM_BUCKETS`]).
    pub counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Upper bound (inclusive) of bucket `i`: the largest value the bucket
    /// can hold.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// The upper bound of the bucket containing the `q`-quantile
    /// observation (`q` in `[0, 1]`), or `None` when empty. Log₂ buckets
    /// make this an upper estimate within 2x — the resolution the p50/p99
    /// acceptance summaries need without per-sample storage.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(HistogramSnapshot::bucket_upper_bound(i));
            }
        }
        Some(u64::MAX)
    }
}

/// Per-lane counters and gauges. Every counter records unconditionally;
/// the latency histogram records only when the registry was built with
/// histograms on.
///
/// `in_queue` is also the serve layer's quiescence count. One front-end
/// thread increments it; every decrement is a `Release` that the lane
/// makes only once the request's completion is visible to the front-end,
/// so an `Acquire` read of 0 ([`LaneMetrics::in_queue`]) proves that
/// every admitted request's completion has been posted. The increment
/// may be `Relaxed`: the lane decrements only for a request it took off
/// the admission channel, whose `Release`/`Acquire` hand-off orders the
/// decrement after the increment.
#[derive(Debug)]
pub struct LaneMetrics {
    device: String,
    submitted: AtomicU64,
    rejected: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    diverged: AtomicU64,
    failed: AtomicU64,
    in_queue: AtomicU64,
    occupancy_high_water: AtomicU64,
    replays: AtomicU64,
    coalesced_requests: AtomicU64,
    invocations: AtomicU64,
    merged: AtomicU64,
    blocks_moved: AtomicU64,
    holds: AtomicU64,
    early_unplugs: AtomicU64,
    doorbell_batches: AtomicU64,
    last_event_host_ns: AtomicU64,
    /// Supervision state gauge (see [`LANE_STATE_HEALTHY`] and friends).
    state: AtomicU64,
    latency_ns: Histogram,
}

/// [`LaneMetrics`] state gauge value: the lane is serving normally.
pub const LANE_STATE_HEALTHY: u64 = 0;
/// [`LaneMetrics`] state gauge value: the supervisor quarantined the lane.
pub const LANE_STATE_QUARANTINED: u64 = 1;
/// [`LaneMetrics`] state gauge value: the lane is on probation after a
/// soft reset, serving again but still watched.
pub const LANE_STATE_PROBATION: u64 = 2;

impl LaneMetrics {
    /// A zeroed series set for one lane over `device`; the latency
    /// histogram records iff `histograms`.
    pub fn new(device: impl Into<String>, histograms: bool) -> LaneMetrics {
        LaneMetrics {
            device: device.into(),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            diverged: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            in_queue: AtomicU64::new(0),
            occupancy_high_water: AtomicU64::new(0),
            replays: AtomicU64::new(0),
            coalesced_requests: AtomicU64::new(0),
            invocations: AtomicU64::new(0),
            merged: AtomicU64::new(0),
            blocks_moved: AtomicU64::new(0),
            holds: AtomicU64::new(0),
            early_unplugs: AtomicU64::new(0),
            doorbell_batches: AtomicU64::new(0),
            last_event_host_ns: AtomicU64::new(0),
            state: AtomicU64::new(LANE_STATE_HEALTHY),
            latency_ns: Histogram::new(histograms),
        }
    }

    /// The device this lane serves.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// A request was accepted for this lane: staged in its submission ring
    /// or handed straight to admission (fan-out members count singly).
    pub fn on_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// A request for this lane was refused with `QueueFull` backpressure.
    pub fn on_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Admission: the front-end accepted a request at queue `depth`.
    pub fn on_admit(&self, depth: u64, host_ns: u64) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.in_queue.fetch_add(1, Ordering::Relaxed);
        self.occupancy_high_water.fetch_max(depth, Ordering::Relaxed);
        self.touch(host_ns);
    }

    /// Terminal classification: success. `latency_ns` is the request's
    /// virtual submit→complete latency. Like every terminal call, it
    /// returns the `in_queue` count before the request left it.
    pub fn on_complete(&self, latency_ns: u64, host_ns: u64) -> u64 {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency_ns.record(latency_ns);
        self.touch(host_ns);
        self.in_queue.fetch_sub(1, Ordering::Release)
    }

    /// Terminal classification: replay divergence.
    pub fn on_diverge(&self, host_ns: u64) -> u64 {
        self.diverged.fetch_add(1, Ordering::Relaxed);
        self.touch(host_ns);
        self.in_queue.fetch_sub(1, Ordering::Release)
    }

    /// Terminal classification: any other error.
    pub fn on_fail(&self, host_ns: u64) -> u64 {
        self.failed.fetch_add(1, Ordering::Relaxed);
        self.touch(host_ns);
        self.in_queue.fetch_sub(1, Ordering::Release)
    }

    /// Un-admit: the request left this lane *without* a terminal outcome
    /// here — a quarantine eviction or a failover retry moved it to a
    /// sibling, whose own [`LaneMetrics::on_admit`] counts it next. Rolls
    /// back both sides of the admission so the reconciliation invariant
    /// (`admitted == completed + diverged + failed + in_queue`) holds
    /// per lane, not just fleet-wide.
    pub fn on_requeue(&self, host_ns: u64) {
        self.admitted.fetch_sub(1, Ordering::Relaxed);
        self.touch(host_ns);
        self.in_queue.fetch_sub(1, Ordering::Release);
    }

    /// Set the supervision state gauge (one of [`LANE_STATE_HEALTHY`],
    /// [`LANE_STATE_QUARANTINED`], [`LANE_STATE_PROBATION`]).
    pub fn set_state(&self, state: u64, host_ns: u64) {
        self.state.store(state, Ordering::Relaxed);
        self.touch(host_ns);
    }

    /// Current supervision state gauge value.
    pub fn state(&self) -> u64 {
        self.state.load(Ordering::Relaxed)
    }

    /// One replay batch executed, folding `merged` requests into it.
    pub fn on_replay(&self, merged: u64) {
        self.replays.fetch_add(1, Ordering::Relaxed);
        self.coalesced_requests.fetch_add(merged, Ordering::Relaxed);
    }

    /// One replayer invocation (a recorded-granularity block part or a
    /// capture) moving `blocks` blocks.
    pub fn on_invocation(&self, blocks: u64) {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        self.blocks_moved.fetch_add(blocks, Ordering::Relaxed);
    }

    /// `members` requests were served by one merged or batched replay.
    pub fn on_merged(&self, members: u64) {
        self.merged.fetch_add(members, Ordering::Relaxed);
    }

    /// A dispatch held its queue open past the ready instant; `early` when
    /// the plug released before its budget expired.
    pub fn on_hold(&self, early: bool) {
        self.holds.fetch_add(1, Ordering::Relaxed);
        self.early_unplugs.fetch_add(u64::from(early), Ordering::Relaxed);
    }

    /// One doorbell batch flushed on this lane.
    pub fn on_doorbell(&self) {
        self.doorbell_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Refresh the last-activity stamp without counting anything.
    pub fn touch(&self, host_ns: u64) {
        self.last_event_host_ns.fetch_max(host_ns, Ordering::Relaxed);
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Requests completed successfully.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Requests that ended in a replay divergence.
    pub fn diverged(&self) -> u64 {
        self.diverged.load(Ordering::Relaxed)
    }

    /// Requests that ended in a non-divergence error.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Requests admitted but not yet terminally classified.
    pub fn in_queue(&self) -> u64 {
        self.in_queue.load(Ordering::Acquire)
    }

    /// Deepest admission-time queue occupancy ever observed.
    pub fn occupancy_high_water(&self) -> u64 {
        self.occupancy_high_water.load(Ordering::Relaxed)
    }

    /// Host-monotonic stamp of the lane's most recent recorded event.
    pub fn last_event_host_ns(&self) -> u64 {
        self.last_event_host_ns.load(Ordering::Relaxed)
    }

    /// Freeze this lane's series, labelling it `lane`.
    pub fn snapshot(&self, lane: usize) -> LaneSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let (replays, coalesced) = (load(&self.replays), load(&self.coalesced_requests));
        LaneSnapshot {
            lane,
            device: self.device.clone(),
            submitted: load(&self.submitted),
            rejected: load(&self.rejected),
            admitted: self.admitted(),
            completed: self.completed(),
            diverged: self.diverged(),
            failed: self.failed(),
            in_queue: self.in_queue(),
            occupancy_high_water: self.occupancy_high_water(),
            replays,
            coalesced_requests: coalesced,
            coalesce_ratio: if replays == 0 { 0.0 } else { coalesced as f64 / replays as f64 },
            invocations: load(&self.invocations),
            merged: load(&self.merged),
            blocks_moved: load(&self.blocks_moved),
            holds: load(&self.holds),
            early_unplugs: load(&self.early_unplugs),
            doorbell_batches: load(&self.doorbell_batches),
            last_event_host_ns: self.last_event_host_ns(),
            state: self.state(),
            latency_ns: self.latency_ns.snapshot(),
        }
    }
}

/// A frozen [`LaneMetrics`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LaneSnapshot {
    /// Lane index within the service.
    pub lane: usize,
    /// Device the lane serves.
    pub device: String,
    /// Requests accepted for the lane (staged or handed to admission).
    pub submitted: u64,
    /// Requests refused with `QueueFull` backpressure.
    pub rejected: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests ending in replay divergence.
    pub diverged: u64,
    /// Requests ending in a non-divergence error.
    pub failed: u64,
    /// Requests still queued or in flight at snapshot time.
    pub in_queue: u64,
    /// Deepest admission-time queue occupancy observed.
    pub occupancy_high_water: u64,
    /// Replay batches executed.
    pub replays: u64,
    /// Requests folded into those batches.
    pub coalesced_requests: u64,
    /// Mean requests merged per replay (`coalesced_requests / replays`).
    pub coalesce_ratio: f64,
    /// Replayer invocations (block parts at recorded granularities and
    /// captures).
    pub invocations: u64,
    /// Requests served by a merged or batched replay.
    pub merged: u64,
    /// Blocks moved by block invocations.
    pub blocks_moved: u64,
    /// Dispatches that held the queue open (plug engaged).
    pub holds: u64,
    /// Holds released before their budget expired.
    pub early_unplugs: u64,
    /// Doorbell batches flushed on this lane.
    pub doorbell_batches: u64,
    /// Host stamp of the lane's most recent event.
    pub last_event_host_ns: u64,
    /// Supervision state gauge: [`LANE_STATE_HEALTHY`] (0),
    /// [`LANE_STATE_QUARANTINED`] (1) or [`LANE_STATE_PROBATION`] (2).
    pub state: u64,
    /// Virtual submit→complete latency histogram.
    pub latency_ns: HistogramSnapshot,
}

impl LaneSnapshot {
    /// Median virtual completion latency (log₂ bucket upper bound), µs.
    pub fn p50_us(&self) -> Option<u64> {
        self.latency_ns.quantile(0.50).map(|ns| ns / 1_000)
    }

    /// 99th-percentile virtual completion latency, µs.
    pub fn p99_us(&self) -> Option<u64> {
        self.latency_ns.quantile(0.99).map(|ns| ns / 1_000)
    }
}

/// SMC accounting by [`SmcKind`] — the only SMC counts there are, shared
/// with the TEE kernel that pays the switches — plus the ring protocol's
/// counters: doorbell entries (and their batch-size histogram) and CQ
/// overflow posts.
#[derive(Debug, Default)]
pub struct SmcMetrics {
    by_kind: [AtomicU64; SmcKind::COUNT],
    doorbell_entries: AtomicU64,
    cq_overflows: AtomicU64,
    doorbell_batch: Histogram,
}

impl SmcMetrics {
    /// A zeroed series set; the batch-size histogram records iff
    /// `histograms`.
    pub fn new(histograms: bool) -> SmcMetrics {
        SmcMetrics { doorbell_batch: Histogram::new(histograms), ..SmcMetrics::default() }
    }

    /// Count one world switch of `kind`.
    pub fn record(&self, kind: SmcKind) {
        self.by_kind[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one doorbell admitting `batch` staged entries.
    pub fn record_doorbell_batch(&self, batch: u64) {
        self.doorbell_entries.fetch_add(batch, Ordering::Relaxed);
        self.doorbell_batch.record(batch);
    }

    /// Count one completion that spilled to a session's CQ overflow list.
    pub fn on_cq_overflow(&self) {
        self.cq_overflows.fetch_add(1, Ordering::Relaxed);
    }

    /// Calls of `kind` so far.
    pub fn calls(&self, kind: SmcKind) -> u64 {
        self.by_kind[kind as usize].load(Ordering::Relaxed)
    }

    /// Total world switches across all kinds.
    pub fn total(&self) -> u64 {
        self.by_kind.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// Per-session lifecycle counters (written by the front-end only).
#[derive(Debug, Default)]
pub struct SessionMetrics {
    submitted: AtomicU64,
    completed: AtomicU64,
    diverged: AtomicU64,
    throttled: AtomicU64,
}

impl SessionMetrics {
    /// Count one submission.
    pub fn on_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one successful completion reaped by this session.
    pub fn on_complete(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one divergence reaped by this session.
    pub fn on_diverge(&self) {
        self.diverged.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one submit rejected at admission by QoS throttling.
    pub fn on_throttle(&self) {
        self.throttled.fetch_add(1, Ordering::Relaxed);
    }
}

/// Fleet-wide robustness counters: admission throttling, replica
/// failover, lane quarantine and the orphan aggregate (terminal outcomes
/// whose session closed before the completion was reaped — counted here
/// instead of resurrecting a dead per-session series).
#[derive(Debug, Default)]
pub struct RobustnessMetrics {
    throttled: AtomicU64,
    failovers: AtomicU64,
    failover_exhausted: AtomicU64,
    quarantines: AtomicU64,
    lane_restores: AtomicU64,
    orphan_outcomes: AtomicU64,
    retired_outcomes: AtomicU64,
}

impl RobustnessMetrics {
    /// Count one submit rejected at admission by QoS throttling.
    pub fn on_throttle(&self) {
        self.throttled.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one failover retry dispatched to a sibling replica.
    pub fn on_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request whose retry budget ran out.
    pub fn on_exhausted(&self) {
        self.failover_exhausted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one lane tripping into quarantine.
    pub fn on_quarantine(&self) {
        self.quarantines.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one quarantined lane passing probation back to healthy.
    pub fn on_lane_restore(&self) {
        self.lane_restores.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one terminal outcome delivered after its session closed.
    pub fn on_orphan_outcome(&self) {
        self.orphan_outcomes.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold `outcomes` terminal outcomes from a retired per-session
    /// series into the aggregate, so dropping the series on session close
    /// does not lose its history from fleet-wide conservation
    /// (`Σ session terminal + orphans + retired == Σ lane terminal`).
    pub fn on_session_retired(&self, outcomes: u64) {
        self.retired_outcomes.fetch_add(outcomes, Ordering::Relaxed);
    }

    /// Freeze the counters.
    pub fn snapshot(&self) -> RobustnessSnapshot {
        RobustnessSnapshot {
            throttled: self.throttled.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            failover_exhausted: self.failover_exhausted.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            lane_restores: self.lane_restores.load(Ordering::Relaxed),
            orphan_outcomes: self.orphan_outcomes.load(Ordering::Relaxed),
            retired_outcomes: self.retired_outcomes.load(Ordering::Relaxed),
        }
    }
}

/// A frozen [`RobustnessMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobustnessSnapshot {
    /// Submits rejected at admission by QoS throttling.
    pub throttled: u64,
    /// Failover retries dispatched to sibling replicas.
    pub failovers: u64,
    /// Requests whose retry budget ran out.
    pub failover_exhausted: u64,
    /// Lane quarantine trips.
    pub quarantines: u64,
    /// Lanes restored to healthy after probation.
    pub lane_restores: u64,
    /// Terminal outcomes delivered after their session closed.
    pub orphan_outcomes: u64,
    /// Terminal outcomes folded in from per-session series retired on
    /// session close (closed sessions drop their series; their counted
    /// history moves here so fleet-wide conservation still holds).
    pub retired_outcomes: u64,
}

/// Fleet-routing counters (written by the serve layer's front-end
/// router only): placement decisions, saturated-home spills and stripe
/// fan-outs across replica lanes.
#[derive(Debug, Default)]
pub struct RouteMetrics {
    decisions: AtomicU64,
    spills: AtomicU64,
    stripe_fanouts: AtomicU64,
    stripe_parts: AtomicU64,
}

impl RouteMetrics {
    /// Count one routed submit planned into `parts` parts, `spilled` of
    /// which were shed off their saturated home lane.
    pub fn on_plan(&self, parts: u64, spilled: u64) {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        self.spills.fetch_add(spilled, Ordering::Relaxed);
        if parts > 1 {
            self.stripe_fanouts.fetch_add(1, Ordering::Relaxed);
            self.stripe_parts.fetch_add(parts, Ordering::Relaxed);
        }
    }

    /// Freeze the counters.
    pub fn snapshot(&self) -> RouteSnapshot {
        RouteSnapshot {
            decisions: self.decisions.load(Ordering::Relaxed),
            spills: self.spills.load(Ordering::Relaxed),
            stripe_fanouts: self.stripe_fanouts.load(Ordering::Relaxed),
            stripe_parts: self.stripe_parts.load(Ordering::Relaxed),
        }
    }
}

/// A frozen [`RouteMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteSnapshot {
    /// Routed submits planned (route decisions).
    pub decisions: u64,
    /// Route parts shed off a saturated home lane to a sibling replica.
    pub spills: u64,
    /// Routed submits split across two or more replicas.
    pub stripe_fanouts: u64,
    /// Total parts those fan-outs produced.
    pub stripe_parts: u64,
}

/// A frozen [`SessionMetrics`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// The session id.
    pub session: u32,
    /// Requests submitted by the session.
    pub submitted: u64,
    /// Successful completions reaped.
    pub completed: u64,
    /// Divergences reaped.
    pub diverged: u64,
    /// Submits rejected at admission by QoS throttling.
    pub throttled: u64,
}

/// One SMC kind's call count, labelled for the JSON/Prometheus exports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmcKindCount {
    /// [`SmcKind::name`] label.
    pub kind: String,
    /// World switches of this kind.
    pub calls: u64,
}

/// The whole metrics plane, frozen and serialisable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Per-lane series.
    pub lanes: Vec<LaneSnapshot>,
    /// World switches by kind.
    pub smc_by_kind: Vec<SmcKindCount>,
    /// Doorbell batch-size histogram.
    pub doorbell_batch: HistogramSnapshot,
    /// Submission-ring entries admitted across all doorbells.
    pub doorbell_entries: u64,
    /// Completions that spilled to a session's CQ overflow list.
    pub cq_overflows: u64,
    /// Per-session series, sorted by session id.
    pub sessions: Vec<SessionSnapshot>,
    /// Fleet-routing counters. Snapshots persisted before the shard
    /// router existed fail to parse (the workspace serde stand-in has no
    /// field defaulting); consumers treat that as a stale artifact and
    /// regenerate, like every other schema extension here.
    pub route: RouteSnapshot,
    /// Robustness-plane counters (throttle/failover/quarantine), a schema
    /// extension under the same stale-artifact rule as `route`.
    pub robustness: RobustnessSnapshot,
}

impl MetricsSnapshot {
    /// Total world switches across all kinds.
    pub fn smc_total(&self) -> u64 {
        self.smc_by_kind.iter().map(|k| k.calls).sum()
    }
}

/// The registry: owns the per-lane, SMC and per-session series and freezes
/// them into [`MetricsSnapshot`]s.
#[derive(Debug)]
pub struct MetricsRegistry {
    histograms: bool,
    epoch: Instant,
    lanes: Mutex<Vec<Arc<LaneMetrics>>>,
    smc: Arc<SmcMetrics>,
    route: RouteMetrics,
    robustness: RobustnessMetrics,
    sessions: Mutex<HashMap<u32, Arc<SessionMetrics>>>,
}

impl MetricsRegistry {
    /// A registry. Its counters always record; its histograms record iff
    /// `histograms`.
    pub fn new(histograms: bool) -> MetricsRegistry {
        MetricsRegistry::with_epoch(histograms, Instant::now())
    }

    /// [`MetricsRegistry::new`] with an explicit host epoch, shared with
    /// the flight recorder so `last_event_host_ns` and trace stamps live
    /// in one domain.
    pub fn with_epoch(histograms: bool, epoch: Instant) -> MetricsRegistry {
        MetricsRegistry {
            histograms,
            epoch,
            lanes: Mutex::new(Vec::new()),
            smc: Arc::new(SmcMetrics::new(histograms)),
            route: RouteMetrics::default(),
            robustness: RobustnessMetrics::default(),
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// Host-monotonic nanoseconds since the registry was built (the stamp
    /// domain of `last_event_host_ns`).
    pub fn host_now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The registry's host-monotonic epoch, shared with callers that stamp
    /// into the same domain off-registry (e.g. the serve layer's lanes).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Add a lane series and return its shared handle. Lane indices are
    /// assigned in registration order.
    pub fn register_lane(&self, device: impl Into<String>) -> Arc<LaneMetrics> {
        let lane = Arc::new(LaneMetrics::new(device, self.histograms));
        self.lanes.lock().expect("metrics lane registry poisoned").push(Arc::clone(&lane));
        lane
    }

    /// The shared SMC series.
    pub fn smc(&self) -> Arc<SmcMetrics> {
        Arc::clone(&self.smc)
    }

    /// The fleet-routing series.
    pub fn route(&self) -> &RouteMetrics {
        &self.route
    }

    /// The robustness-plane series.
    pub fn robustness(&self) -> &RobustnessMetrics {
        &self.robustness
    }

    /// The series for `session`, created on first use.
    pub fn session(&self, session: u32) -> Arc<SessionMetrics> {
        Arc::clone(
            self.sessions
                .lock()
                .expect("metrics session registry poisoned")
                .entry(session)
                .or_default(),
        )
    }

    /// Drop `session`'s series. Called on session close so thousands of
    /// open/close cycles do not grow the registry without bound; a
    /// completion that lands after the drop is counted in the robustness
    /// orphan aggregate instead of resurrecting the series.
    pub fn forget_session(&self, session: u32) {
        let removed =
            self.sessions.lock().expect("metrics session registry poisoned").remove(&session);
        if let Some(m) = removed {
            let terminal = m.completed.load(Ordering::Relaxed) + m.diverged.load(Ordering::Relaxed);
            if terminal > 0 {
                self.robustness.on_session_retired(terminal);
            }
        }
    }

    /// Number of live per-session series (the churn suites assert this
    /// returns to baseline after open/close storms).
    pub fn session_series_count(&self) -> usize {
        self.sessions.lock().expect("metrics session registry poisoned").len()
    }

    /// Freeze every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let lanes = self
            .lanes
            .lock()
            .expect("metrics lane registry poisoned")
            .iter()
            .enumerate()
            .map(|(i, lane)| lane.snapshot(i))
            .collect();
        let smc_by_kind = SmcKind::ALL
            .iter()
            .map(|&kind| SmcKindCount {
                kind: kind.name().to_string(),
                calls: self.smc.calls(kind),
            })
            .collect();
        let mut sessions: Vec<SessionSnapshot> = self
            .sessions
            .lock()
            .expect("metrics session registry poisoned")
            .iter()
            .map(|(&session, m)| SessionSnapshot {
                session,
                submitted: m.submitted.load(Ordering::Relaxed),
                completed: m.completed.load(Ordering::Relaxed),
                diverged: m.diverged.load(Ordering::Relaxed),
                throttled: m.throttled.load(Ordering::Relaxed),
            })
            .collect();
        sessions.sort_by_key(|s| s.session);
        MetricsSnapshot {
            lanes,
            smc_by_kind,
            doorbell_batch: self.smc.doorbell_batch.snapshot(),
            doorbell_entries: self.smc.doorbell_entries.load(Ordering::Relaxed),
            cq_overflows: self.smc.cq_overflows.load(Ordering::Relaxed),
            sessions,
            route: self.route.snapshot(),
            robustness: self.robustness.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);

        let h = Histogram::new(true);
        for v in [0, 3, 3, 900, 900, 900, 70_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.total(), 7);
        let off = Histogram::new(false);
        off.record(900);
        assert_eq!(off.snapshot().total(), 0, "a non-recording histogram stays empty");
        // Rank 4 of 7 lands in the 900 bucket: upper bound 2^10 - 1.
        assert_eq!(snap.quantile(0.5), Some(1023));
        assert_eq!(snap.quantile(0.99), Some(131_071));
        assert_eq!(snap.quantile(0.0), Some(0));
        assert_eq!(HistogramSnapshot { counts: vec![0; HISTOGRAM_BUCKETS] }.quantile(0.5), None);
    }

    #[test]
    fn lane_metrics_reconcile_and_snapshot() {
        let lane = LaneMetrics::new("mmc", true);
        lane.on_admit(1, 10);
        lane.on_admit(2, 20);
        lane.on_admit(2, 30);
        lane.on_complete(1_500, 40);
        lane.on_diverge(50);
        assert_eq!(lane.admitted(), 3);
        assert_eq!(lane.completed() + lane.diverged() + lane.failed() + lane.in_queue(), 3);
        assert_eq!(lane.occupancy_high_water(), 2);
        assert_eq!(lane.last_event_host_ns(), 50);
        lane.on_replay(4);
        let snap = lane.snapshot(0);
        assert_eq!(snap.device, "mmc");
        assert_eq!(snap.in_queue, 1);
        assert_eq!(snap.coalesce_ratio, 4.0);
        assert_eq!(snap.latency_ns.total(), 1);
        assert_eq!(snap.p50_us(), Some(2047 / 1_000));
    }

    #[test]
    fn registry_snapshot_serialises_and_round_trips() {
        let registry = MetricsRegistry::new(true);
        let lane = registry.register_lane("usb");
        lane.on_admit(1, 5);
        lane.on_complete(2_000, 9);
        registry.smc().record(SmcKind::Invoke);
        registry.smc().record(SmcKind::Doorbell);
        registry.smc().record_doorbell_batch(16);
        registry.session(3).on_submit();
        registry.session(3).on_complete();

        let snap = registry.snapshot();
        assert_eq!(snap.lanes.len(), 1);
        assert_eq!(snap.smc_total(), 2);
        assert_eq!(
            snap.sessions,
            vec![SessionSnapshot {
                session: 3,
                submitted: 1,
                completed: 1,
                diverged: 0,
                throttled: 0
            }]
        );

        let json = serde_json::to_string(&snap).expect("snapshot serialises");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("snapshot parses");
        assert_eq!(back.lanes[0].admitted, 1);
        assert_eq!(back.smc_total(), 2);
        assert_eq!(back.doorbell_batch.total(), 1);
    }

    #[test]
    fn forget_session_bounds_the_registry_and_orphans_aggregate() {
        let registry = MetricsRegistry::new(true);
        for id in 1..=100u32 {
            registry.session(id).on_submit();
        }
        assert_eq!(registry.session_series_count(), 100);
        for id in 1..=100u32 {
            registry.forget_session(id);
        }
        assert_eq!(registry.session_series_count(), 0);
        // A straggler completion after close lands in the orphan aggregate,
        // not a resurrected per-session series.
        registry.robustness().on_orphan_outcome();
        assert_eq!(registry.session_series_count(), 0);
        assert_eq!(registry.snapshot().robustness.orphan_outcomes, 1);
    }

    #[test]
    fn lane_state_and_requeue_keep_the_reconciliation_invariant() {
        let lane = LaneMetrics::new("mmc", false);
        lane.on_admit(1, 10);
        lane.on_admit(2, 20);
        // Quarantine evicts one queued request back to the router.
        lane.set_state(LANE_STATE_QUARANTINED, 30);
        lane.on_requeue(30);
        assert_eq!(lane.admitted(), 1);
        assert_eq!(lane.completed() + lane.diverged() + lane.failed() + lane.in_queue(), 1);
        lane.set_state(LANE_STATE_PROBATION, 40);
        lane.on_complete(500, 50);
        lane.set_state(LANE_STATE_HEALTHY, 60);
        let snap = lane.snapshot(0);
        assert_eq!(snap.state, LANE_STATE_HEALTHY);
        assert_eq!(snap.admitted, snap.completed + snap.diverged + snap.failed + snap.in_queue);
    }
}
