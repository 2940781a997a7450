//! # dlt-serve — a multi-tenant service layer over the driverlet replayer
//!
//! The paper's replayer serves one trustlet invocation at a time: every
//! caller owns a [`dlt_core::Replayer`] exclusively. Production TrustZone
//! deployments instead multiplex many trusted applications over few secure
//! devices (OP-TEE's session/command model), which needs admission,
//! fairness, batching and backpressure. This crate adds that layer:
//!
//! * **Sessions** ([`DriverletService::open_session`]): N concurrent
//!   clients admitted through the `dlt-tee` trustlet/session framework.
//!   Each client holds a session id — a *handle* — rather than a replayer.
//! * **One admission path, two charge tables** ([`SubmitMode`]): every
//!   submit stages its request and the TEE admits staged entries through
//!   one spine. **Per-call** doorbells each stage at once, priced as a GP
//!   command invocation (one SMC plus the invoke marshalling), exactly
//!   like OP-TEE, and every completion reap is another SMC. **Ring mode**
//!   ([`ring`]) stages entries in a per-lane submission ring without
//!   entering the TEE, one [`DriverletService::ring_doorbell`] SMC admits
//!   the whole staged batch, and completions are reaped from per-session
//!   completion rings SMC-free. World switches are the dominant fixed cost
//!   of TEE I/O (Amacher & Schiavoni), so amortising one doorbell over N
//!   requests is the serve layer's biggest hot-path win; since the modes
//!   differ only in when the switch is paid, the serial-equivalence
//!   properties check both against the same interpreted reference.
//! * **Addressing** ([`Target`]): submit and control calls take a
//!   [`Device`], which the shard router places across the device's replica
//!   lanes (control calls address replica 0), or a [`LaneId`], which pins
//!   one replica.
//! * **One counter plane**: every count the service reports —
//!   [`DriverletService::stats`], [`LaneHealth`], the SMC counts — is a
//!   view over the `dlt-obs` metrics registry, whose counters are always
//!   on; [`ObsConfig`] switches only the histograms and the trace.
//! * **One TEE core per device lane** ([`service`]): every served device
//!   owns a full simulated platform — devices, interrupt controller and,
//!   crucially, its **own virtual clock** — so device time overlaps across
//!   lanes the way it does across real TrustZone cores. A camera burst on
//!   the VCHIQ lane no longer stalls MMC/USB progress. The service merges
//!   lane timelines with a pointwise-max rule (see
//!   [`DriverletService::now_ns`]); completions carry lane-local times.
//! * **Event-driven scheduling** ([`sched`]): [`DriverletService::drain`]
//!   executes **one batch per call** on the lane with the smallest
//!   next-event time; each lane drains its queue, bounded by the
//!   front-end's reservation, under a configurable policy — FIFO or
//!   deficit round-robin across sessions. A full lane rejects the submit
//!   with [`ServeError::QueueFull`] (which
//!   names the device and lane depth, so backpressure is per-device)
//!   instead of growing without bound.
//! * **Request coalescing** ([`coalesce`]): adjacent or overlapping block
//!   reads merge into one multi-block replay, and runs of strictly
//!   adjacent same-direction writes batch into a single larger replay —
//!   both decomposed over the *recorded* granularities, because the
//!   replayer can only execute recorded paths (§3.3). Completions fan back
//!   out per request with byte-identical payloads.
//! * **Anticipatory coalescing** ([`coalesce::plan_dispatch`]): under
//!   light load a lane *plugs* — holds its queue open for a configurable
//!   [`ServeConfig::hold_budget_ns`] latency budget after the first
//!   request arrives — so requests that used to straddle batch boundaries
//!   merge into one replay. The plug unplugs early on a direction change,
//!   on queue-full, or the moment a competing session's unmergeable
//!   request is waiting (kernel block-layer plug/unplug, bounded by the
//!   budget so p50 stays close to the no-hold baseline).
//!
//! The scheduler executes each lane's batches in queue order (reads within
//! one merge group commute), so any concurrent interleaving is equivalent
//! to *some* serial order of the submitted requests — property-tested
//! differentially against the tree-walking interpreter in
//! `tests/serial_equivalence.rs`, with per-lane clocks and anticipatory
//! hold enabled.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod coalesce;
pub(crate) mod lane;
pub mod ring;
pub mod route;
pub mod sched;
pub mod service;

/// The lock-free SPSC ring under each lane's admission channel from the
/// front-end to its lane thread — owned by `dlt-obs` (the flight recorder
/// shares the same core), re-exported here so `dlt_serve::spsc` paths keep
/// working.
pub use dlt_obs::spsc;

/// Re-exported so service users can set [`ServeConfig::obs`] without
/// depending on `dlt-obs` directly.
pub use dlt_obs::ObsConfig;

pub use adapter::ServedBlockDev;
pub use route::{LaneId, ReplicaDepth, RouteConfig, RoutePolicy, Target};
pub use sched::{Policy, QosConfig, SessionQos};
pub use service::{
    DriverletService, ExecMode, FailoverConfig, ServeConfig, ServeStats, SessionBlockIo,
    SubmitMode, SuperviseConfig, HEALTH_PROBE_BLKID,
};

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use dlt_core::ReplayError;
use dlt_tee::TeeError;

/// A secure device the service can serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// The secure SD card behind the SDHOST controller.
    Mmc,
    /// The secure USB mass-storage stick behind the DWC2 controller.
    Usb,
    /// The VC4 camera behind the VCHIQ transport.
    Vchiq,
}

impl Device {
    /// Number of device classes: the size of a per-device table.
    pub(crate) const COUNT: usize = 3;

    /// Dense index of the device class, for per-device tables.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// A hash map keyed by an id the service assigns (session and request
/// ids), hashed with one multiply instead of SipHash: such ids are not
/// client-chosen, so collision resistance buys nothing. Keys derived from
/// client input (the router's dirty-chunk set) keep SipHash.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHash>>;
/// The set form of [`IdMap`].
pub(crate) type IdSet<K> = HashSet<K, BuildHasherDefault<IdHash>>;

/// Fibonacci hashing of an integer id: the [`IdMap`] hasher.
#[derive(Default)]
pub(crate) struct IdHash(u64);

impl Hasher for IdHash {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }
    fn write_u32(&mut self, id: u32) {
        self.write_u64(u64::from(id));
    }
    fn write_u64(&mut self, id: u64) {
        self.0 = (self.0 ^ id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl std::fmt::Display for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Device::Mmc => write!(f, "mmc"),
            Device::Usb => write!(f, "usb"),
            Device::Vchiq => write!(f, "vchiq"),
        }
    }
}

/// A client session handle (the id handed out by the TEE session layer).
pub type SessionId = u32;

/// A per-service unique request id.
pub type RequestId = u64;

/// One request submitted into a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read `blkcnt` 512-byte blocks starting at `blkid`.
    Read {
        /// Target block device.
        device: Device,
        /// First block.
        blkid: u32,
        /// Number of blocks.
        blkcnt: u32,
    },
    /// Write whole blocks starting at `blkid`.
    Write {
        /// Target block device.
        device: Device,
        /// First block.
        blkid: u32,
        /// Data, a whole number of 512-byte blocks.
        data: Vec<u8>,
    },
    /// Capture `frames` camera frames at `resolution` (720/1080/1440).
    Capture {
        /// Burst length.
        frames: u32,
        /// Resolution code.
        resolution: u32,
    },
}

impl Request {
    /// The device this request targets.
    pub fn device(&self) -> Device {
        match self {
            Request::Read { device, .. } | Request::Write { device, .. } => *device,
            Request::Capture { .. } => Device::Vchiq,
        }
    }

    /// Scheduling cost in block-equivalents (the DRR quantum currency).
    pub fn cost_blocks(&self) -> u64 {
        match self {
            Request::Read { blkcnt, .. } => u64::from(*blkcnt).max(1),
            Request::Write { data, .. } => ((data.len() / BLOCK) as u64).max(1),
            // A frame is far heavier than a block; weigh it like a 32 KiB
            // transfer so camera sessions cannot starve block sessions.
            Request::Capture { frames, .. } => 64 * u64::from(*frames).max(1),
        }
    }
}

/// Block size in bytes (the service speaks the paper's 512-byte blocks).
pub const BLOCK: usize = dlt_core::MMC_BLOCK_SIZE;

/// Largest single block request (and largest coalesced span) the service
/// accepts, in blocks (2 MiB). Bounds the span buffer one tenant can
/// demand; the recorded-coverage check still applies at replay time.
pub const MAX_REQUEST_BLOCKS: u32 = 4096;

/// Successful result data of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Bytes read from the device.
    Read(Vec<u8>),
    /// Blocks written to the device.
    Written {
        /// Number of blocks written.
        blocks: u32,
    },
    /// A captured camera frame.
    Image {
        /// JPEG bytes (trimmed to the device-assigned size).
        data: Vec<u8>,
    },
}

/// Completion of one submitted request, fanned out of whatever (possibly
/// merged) replay served it.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The request this completes.
    pub id: RequestId,
    /// Session the request belonged to.
    pub session: SessionId,
    /// Device that served it.
    pub device: Device,
    /// Result payload or error.
    pub result: Result<Payload, ServeError>,
    /// Virtual time at submission.
    pub submitted_ns: u64,
    /// Virtual time at completion.
    pub completed_ns: u64,
    /// Whether the request was served by a merged/batched replay.
    pub coalesced: bool,
}

impl Completion {
    /// Queueing + service latency in virtual nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.completed_ns.saturating_sub(self.submitted_ns)
    }
}

/// A lane's supervision state, maintained by the front-end watchdog and
/// exported as the `dlt_lane_state` gauge.
///
/// The state machine: `Healthy → Quarantined` when the divergence-rate or
/// stall threshold trips; `Quarantined → Probation` when the soft reset's
/// health probe passes; `Probation → Healthy` after a probation window of
/// clean completions; `Probation → Quarantined` if the lane diverges again
/// while on probation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneState {
    /// Serving normally.
    #[default]
    Healthy,
    /// Tripped by the watchdog: clean queued work was drained back through
    /// the router and routed admission avoids the lane until a soft reset
    /// probe passes.
    Quarantined,
    /// Soft reset passed; serving again but still watched, restored to
    /// [`LaneState::Healthy`] after a clean probation window.
    Probation,
}

impl LaneState {
    /// The `dlt_lane_state` gauge encoding of this state.
    pub fn as_gauge(self) -> u64 {
        match self {
            LaneState::Healthy => dlt_obs::LANE_STATE_HEALTHY,
            LaneState::Quarantined => dlt_obs::LANE_STATE_QUARANTINED,
            LaneState::Probation => dlt_obs::LANE_STATE_PROBATION,
        }
    }

    /// Recover a state from its gauge encoding (unknown values read as
    /// [`LaneState::Healthy`], the zero state).
    pub fn from_gauge(gauge: u64) -> LaneState {
        match gauge {
            dlt_obs::LANE_STATE_QUARANTINED => LaneState::Quarantined,
            dlt_obs::LANE_STATE_PROBATION => LaneState::Probation,
            _ => LaneState::Healthy,
        }
    }
}

impl std::fmt::Display for LaneState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaneState::Healthy => write!(f, "healthy"),
            LaneState::Quarantined => write!(f, "quarantined"),
            LaneState::Probation => write!(f, "probation"),
        }
    }
}

/// One failover attempt in a [`ServeError::Exhausted`] trail: which
/// replica was tried and the virtual time the retry was charged at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverAttempt {
    /// Replica index within the device's lane fleet.
    pub replica: usize,
    /// Virtual-clock stamp the attempt was dispatched at (includes the
    /// exponential backoff charged against the request's timeline).
    pub at_ns: u64,
}

/// A structured lane health report, returned by
/// [`DriverletService::lane_health_check`] alongside the active probe
/// (write/read-back on block lanes, a one-frame capture on the camera
/// lane). The counters come from the metrics plane's per-lane series, so
/// the report is exact even while other sessions keep the lane busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneHealth {
    /// The probed device.
    pub device: Device,
    /// The lane's supervision state at probe time.
    pub state: LaneState,
    /// Requests sitting in the lane's local queue at probe time.
    pub queued: u64,
    /// Requests admitted but not yet posted (reservation count).
    pub inflight: u64,
    /// Requests completed successfully over the lane's lifetime.
    pub completed: u64,
    /// Requests that ended in replay divergence.
    pub diverged: u64,
    /// Host-monotonic stamp (ns since service start) of the lane's most
    /// recent recorded event — a stalled lane stops advancing this.
    pub last_event_host_ns: u64,
}

/// Errors raised by the service layer.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The device's submission queue — or, in [`SubmitMode::Ring`], its
    /// submission *ring* — is full: backpressure, never a silent drop.
    /// The error carries the rejecting device and the saturated queue's
    /// depth/capacity (the lane queue on the per-call path, the SQ ring
    /// on the ring path) so callers can back off **per device** (e.g.
    /// [`DriverletService::drain_device`] on just the saturated lane,
    /// preceded by a [`DriverletService::ring_doorbell`] in ring mode)
    /// instead of stalling every lane globally.
    QueueFull {
        /// Device whose queue rejected the submit.
        device: Device,
        /// The backlog at rejection time. Under the current bound-only
        /// admission rule this always equals `capacity`; it is carried
        /// separately so admission policies that reject earlier
        /// (per-session quotas, load shedding) can report the true depth
        /// without an API break.
        depth: usize,
        /// The configured bound (queue capacity or SQ ring depth).
        capacity: usize,
        /// The deepest occupancy the queue has ever reached (the metrics
        /// plane's admission-time high-water mark) — tells a backed-off
        /// caller whether saturation is chronic (`high_water` pinned at
        /// `capacity` for the run) or a one-off burst.
        high_water: usize,
        /// Per-replica depth snapshot of the device's whole lane fleet at
        /// rejection time, so a routed caller can tell "one hot shard"
        /// (back off briefly — spill is already shedding clean reads)
        /// from "fleet saturated" (drain the device). Empty when the
        /// rejection came from a directly addressed lane rather than the
        /// router.
        fleet: Vec<ReplicaDepth>,
    },
    /// Admission QoS rejected the submit before it could reserve queue
    /// depth: the session's token bucket is empty or its weighted share of
    /// the lane fleet is already in flight. Like [`ServeError::QueueFull`]
    /// this is backpressure, never a silent drop — but it is *per tenant*,
    /// so a flooding session throttles while its victims keep admitting.
    Throttled {
        /// The throttled session.
        session: SessionId,
        /// Device the rejected request targeted.
        device: Device,
        /// Virtual nanoseconds until the token bucket refills enough to
        /// admit a request of this cost — the caller's backoff hint.
        retry_after_ns: u64,
    },
    /// A clean read's failover retry budget ran out: every attempt ended
    /// in a divergence (or found no healthy sibling with queue room). The
    /// trail names each replica tried and the virtual time the attempt was
    /// charged at, so callers can see the backoff schedule that failed.
    Exhausted {
        /// Device whose lane fleet exhausted the budget.
        device: Device,
        /// Every attempt, in dispatch order (the first entry is the
        /// original placement, later entries the failover retries).
        attempts: Vec<FailoverAttempt>,
    },
    /// The session-admission limit was reached.
    SessionLimit {
        /// The configured maximum number of sessions.
        max: usize,
    },
    /// No such session (never opened, or already closed).
    InvalidSession(SessionId),
    /// The service was not configured to serve this device.
    DeviceNotServed(Device),
    /// The replay itself failed; the wrapped [`ReplayError`] is the
    /// [`std::error::Error::source`].
    Replay(ReplayError),
    /// A TEE service failed; the wrapped [`TeeError`] is the
    /// [`std::error::Error::source`].
    Tee(TeeError),
    /// Malformed request (zero-length, ragged write buffer, ...).
    Invalid(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { device, depth, capacity, high_water, fleet } => {
                write!(
                    f,
                    "submission queue for {device} is full ({depth} of {capacity} entries, \
                     high water {high_water})"
                )?;
                if !fleet.is_empty() {
                    write!(f, "; fleet")?;
                    for r in fleet {
                        write!(f, " {}:{}/{}", r.replica, r.depth, r.capacity)?;
                    }
                }
                Ok(())
            }
            ServeError::Throttled { session, device, retry_after_ns } => {
                write!(
                    f,
                    "session {session} throttled at admission for {device}: QoS budget \
                     exhausted, retry after {retry_after_ns} ns"
                )
            }
            ServeError::Exhausted { device, attempts } => {
                write!(
                    f,
                    "failover retry budget for {device} exhausted after {} attempt{}",
                    attempts.len(),
                    if attempts.len() == 1 { "" } else { "s" }
                )?;
                if !attempts.is_empty() {
                    write!(f, "; trail")?;
                    for a in attempts {
                        write!(f, " {}@{}", a.replica, a.at_ns)?;
                    }
                }
                Ok(())
            }
            ServeError::SessionLimit { max } => {
                write!(f, "session limit reached ({max} concurrent sessions)")
            }
            ServeError::InvalidSession(s) => write!(f, "invalid session {s}"),
            ServeError::DeviceNotServed(d) => write!(f, "device {d} is not served"),
            ServeError::Replay(e) => write!(f, "replay failed: {e}"),
            ServeError::Tee(e) => write!(f, "TEE failure: {e}"),
            ServeError::Invalid(s) => write!(f, "invalid request: {s}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Replay(e) => Some(e),
            ServeError::Tee(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ReplayError> for ServeError {
    fn from(e: ReplayError) -> Self {
        ServeError::Replay(e)
    }
}

impl From<TeeError> for ServeError {
    fn from(e: TeeError) -> Self {
        ServeError::Tee(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_and_devices_are_sane() {
        let r = Request::Read { device: Device::Mmc, blkid: 0, blkcnt: 8 };
        assert_eq!(r.device(), Device::Mmc);
        assert_eq!(r.cost_blocks(), 8);
        let c = Request::Capture { frames: 2, resolution: 720 };
        assert_eq!(c.device(), Device::Vchiq);
        assert!(c.cost_blocks() > r.cost_blocks());
    }

    #[test]
    fn error_sources_chain_across_crates() {
        use std::error::Error;
        let e = ServeError::Replay(ReplayError::UnknownEntry("replay_mmc".into()));
        assert!(e.source().is_some(), "ServeError must expose the ReplayError source");
        assert!(e.to_string().contains("replay_mmc"));
        let q = ServeError::QueueFull {
            device: Device::Usb,
            depth: 4,
            capacity: 4,
            high_water: 4,
            fleet: Vec::new(),
        };
        assert!(q.source().is_none(), "backpressure is a leaf error: nothing to chain");
        assert!(q.to_string().contains("usb"), "callers back off per device");
        assert!(q.to_string().contains('4'), "the lane depth is visible to callers");
        assert!(q.to_string().contains("high water 4"), "chronic saturation is distinguishable");
        assert!(!q.to_string().contains("fleet"), "a direct lane rejection has no fleet view");
        let routed = ServeError::QueueFull {
            device: Device::Mmc,
            depth: 8,
            capacity: 8,
            high_water: 8,
            fleet: vec![
                ReplicaDepth { replica: 0, depth: 8, capacity: 8 },
                ReplicaDepth { replica: 1, depth: 1, capacity: 8 },
            ],
        };
        let text = routed.to_string();
        assert!(
            text.contains("fleet 0:8/8 1:1/8"),
            "a routed rejection shows every replica's depth, got: {text}"
        );
    }

    #[test]
    fn throttled_and_exhausted_are_leaf_errors_in_queue_full_style() {
        use std::error::Error;
        let t = ServeError::Throttled { session: 7, device: Device::Mmc, retry_after_ns: 12_800 };
        assert!(t.source().is_none(), "throttling is backpressure: a leaf error");
        let text = t.to_string();
        assert!(text.contains("session 7"), "the throttled tenant is named");
        assert!(text.contains("mmc"), "callers back off per device");
        assert!(text.contains("12800 ns"), "the retry hint is visible, got: {text}");

        let e = ServeError::Exhausted {
            device: Device::Usb,
            attempts: vec![
                FailoverAttempt { replica: 0, at_ns: 1_000 },
                FailoverAttempt { replica: 2, at_ns: 3_000 },
                FailoverAttempt { replica: 1, at_ns: 7_000 },
            ],
        };
        assert!(e.source().is_none(), "budget exhaustion is a leaf error");
        let text = e.to_string();
        assert!(text.contains("usb"));
        assert!(text.contains("3 attempts"));
        assert!(
            text.contains("trail 0@1000 2@3000 1@7000"),
            "the whole attempt trail with backoff stamps is visible, got: {text}"
        );
    }

    #[test]
    fn lane_state_round_trips_through_the_gauge_encoding() {
        for state in [LaneState::Healthy, LaneState::Quarantined, LaneState::Probation] {
            assert_eq!(LaneState::from_gauge(state.as_gauge()), state);
        }
        assert_eq!(LaneState::from_gauge(99), LaneState::Healthy);
        assert_eq!(LaneState::Quarantined.to_string(), "quarantined");
    }
}
