//! The multi-tenant driverlet service.
//!
//! One [`DriverletService`] owns a **control-plane platform** (the
//! normal-world CPU plus the [`dlt_tee::TeeKernel`] that admits sessions
//! and charges SMCs) and **one TEE core per served secure device**: each
//! device lane is a full simulated platform — its device, interrupt
//! controller and its *own virtual clock* — with a compiled-program
//! [`Replayer`] executing against that lane clock. Clients open sessions,
//! submit requests, and collect completions after draining.
//!
//! # One admission spine
//!
//! Every request reaches its lane the same way.
//! [`DriverletService::submit_to`] resolves a [`Target`] — a device is
//! placed by the shard router and admission QoS, a [`LaneId`] is pinned —
//! and stages the planned parts; the TEE admits staged entries through one
//! private function that reserves a lane slot, pushes the lane's admission
//! ring and wakes the lane. [`SubmitMode`] only decides when the world
//! switch is paid: a ring stage waits for the next
//! [`DriverletService::ring_doorbell`], a per-call stage is doorbelled at
//! once and priced as a GP invoke. Failover retries and quarantine
//! re-placement admit through the same function. Every count the service
//! reports — [`DriverletService::stats`], [`LaneHealth`], the SMC counts —
//! is a read-only view over the `dlt-obs` metrics registry, whose counters
//! are always on.
//!
//! # The multi-core time model
//!
//! All clocks start at epoch zero. The control clock is the normal-world
//! CPU: it advances on SMCs (open/submit/close), on
//! [`DriverletService::client_think_ns`], and — the causal merge rule —
//! when a client **observes** completions via
//! [`DriverletService::take_completions`], which fast-forwards it to the
//! latest lane-local completion time taken. Submits are stamped with
//! control time, so arrival stamps are globally monotone (one serialised
//! normal-world CPU) yet never dragged forward by lane work nobody has
//! waited on: block tenants keep overlapping a camera burst they did not
//! submit. A lane may only execute requests that have *arrived* on its own
//! timeline (an idle core fast-forwards to the arrival, booking idle time;
//! a busy core batches whatever arrived while it worked), and every
//! completion carries its lane-local `completed_ns`, which is
//! `>= submitted_ns` by construction. [`DriverletService::now_ns`] — the
//! pointwise max across every clock — is the joined service timeline that
//! elapsed-time (makespan) measurements read. Device time therefore
//! overlaps across lanes: a multi-second camera burst on the VCHIQ core no
//! longer inflates MMC completion latency.
//!
//! # Lane execution modes
//!
//! The per-lane TEE core is driven by a `LaneWorker` (`lane.rs`), and
//! [`ExecMode`] selects who runs it:
//!
//! * [`ExecMode::Sequential`] (default) keeps every worker inline and
//!   steps it from a single-threaded event-loop:
//!   [`DriverletService::drain`] picks the lane with the smallest
//!   next-event time (its anticipatory-hold deadline, or the instant it
//!   can start its earliest arrived request), executes **one batch**
//!   there, and returns that batch's completions. Fully deterministic —
//!   the differential and property tests pin this mode's behaviour.
//! * [`ExecMode::Threaded`] moves each worker onto its own OS thread (the
//!   paper's one-TEE-core-per-device model made physical), connected to
//!   the front-end only by a lock-free SPSC admission ring
//!   ([`crate::spsc`]), an unbounded completion channel and a control
//!   mailbox. Admission is bounded by a per-lane atomic reservation taken
//!   front-end side — the lane's only capacity check — so `QueueFull`
//!   keeps one coherent depth snapshot even against a concurrently
//!   draining lane thread.
//!   Virtual-time semantics are unchanged (each lane still executes its
//!   own timeline and the causal merge rule still joins them); what
//!   threading adds is **wall-clock** overlap of the real replay work —
//!   and what it costs is batch determinism: a lane thread may dispatch
//!   the moment a request is admitted rather than waiting for traffic the
//!   sequential loop would have seen first, so batching (not payloads,
//!   not per-session order) can differ. `drain`, `drain_all` and
//!   `drain_device` all run to quiescence in this mode: unpark the lane
//!   threads, then reap until a reap that followed a read of zero on
//!   every selected lane's in-flight count admitted no new work, polling
//!   briefly before parking until a lane signals that it went quiet.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use dlt_core::{
    ConstraintFlipper, FaultPlan, FlipOutcome, ReplayConfig, ReplayError, ReplayMode, Replayer,
    SecureBlockIo,
};
use dlt_dev_mmc::MmcSubsystem;
use dlt_dev_usb::UsbSubsystem;
use dlt_dev_vchiq::VchiqSubsystem;
use dlt_hw::{ClockCell, Platform};
use dlt_obs::metrics::{LaneSnapshot, MetricsRegistry, MetricsSnapshot, SessionMetrics};
use dlt_obs::trace::{EventKind, Recorder, TraceHandle};
use dlt_obs::{obs_event, obs_event_at, ObsConfig};
use dlt_recorder::campaign::{
    record_camera_driverlet_subset, record_mmc_driverlet_subset, record_usb_driverlet_subset,
    DEV_KEY,
};
use dlt_tee::{secure_core, SecureIo, TeeError, TeeKernel, Trustlet};

use crate::coalesce::Dispatch;
use crate::lane::{
    CtrlMsg, CtrlReply, CtrlReq, DrainSignal, IdlePoll, LaneConfig, LaneShared, LaneWorker,
    PARK_FLOOR,
};
use crate::ring::{CompletionRing, SqEntry, SubmissionRing};
use crate::route::{
    least_loaded_sibling, LaneId, LaneLoad, RouteConfig, RoutePart, RouteReject, Router, Target,
};
use crate::sched::{Admission, Lane, Pending, Policy, QosConfig, SessionQos};
use crate::spsc::{self, SpscProducer};
use crate::{
    Completion, Device, FailoverAttempt, IdMap, IdSet, LaneHealth, LaneState, Payload, Request,
    RequestId, ServeError, SessionId, BLOCK, MAX_REQUEST_BLOCKS,
};

/// How requests cross from the normal world into the TEE. Both modes
/// stage a submit and admit it through the same spine; the mode picks only
/// when the world switch is paid (the charge table in DESIGN.md §3) and
/// the occupancy the router plans against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubmitMode {
    /// One SMC per operation: every [`DriverletService::submit`] is a
    /// stage plus an immediate doorbell priced as a GP command invocation
    /// (world switch + invoke marshalling), planned against each lane's
    /// admitted in-flight count; every completion reap is another SMC —
    /// the OP-TEE baseline.
    #[default]
    PerCall,
    /// Shared-memory rings: submits stage entries in a per-lane
    /// [`SubmissionRing`] without entering the TEE, planned against its
    /// staged depth; one [`DriverletService::ring_doorbell`] SMC admits
    /// the whole staged batch, and [`DriverletService::take_completions`]
    /// reaps the per-session [`CompletionRing`] SMC-free (a world switch
    /// is charged only on the doorbell, on an empty-CQ blocking wait, and
    /// on a CQ overflow flush).
    Ring,
}

/// Who drives each lane's TEE core (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Deterministic single-threaded event loop: lane workers stay inline
    /// and execute only inside `drain*` calls on the caller's thread.
    #[default]
    Sequential,
    /// One OS thread per device lane, running concurrently with the
    /// caller; the front-end communicates through lock-free SPSC rings.
    Threaded,
}

/// Replica-failover knobs ([`ServeConfig::failover`]): what the service
/// does when a **clean** read (replica-independent bytes — no routed
/// write ever dirtied its chunks) comes back from a lane as a replay
/// divergence. Instead of delivering the divergence, the front-end
/// re-admits the *same* [`RequestId`] on the least-loaded healthy
/// sibling, charging an exponential backoff to the request's virtual
/// arrival stamp, until the retry budget runs out — at which point the
/// client gets the typed [`ServeError::Exhausted`] attempt trail.
/// Writes and dirty reads never fail over (the sibling's bytes would
/// silently diverge); they deliver their error as before.
#[derive(Debug, Clone, Copy)]
pub struct FailoverConfig {
    /// Master switch. Off (the default) delivers every divergence to the
    /// submitting session exactly as before.
    pub enabled: bool,
    /// Failed executions allowed beyond the first: a request diverges at
    /// most `retry_budget + 1` times before [`ServeError::Exhausted`].
    pub retry_budget: u32,
    /// Backoff charged to the retry's virtual arrival stamp: attempt `n`
    /// (1-based) arrives at the divergence's completion stamp plus
    /// `backoff_base_ns << (n - 1)`.
    pub backoff_base_ns: u64,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig { enabled: false, retry_budget: 2, backoff_base_ns: 50_000 }
    }
}

/// Lane-supervision knobs ([`ServeConfig::supervise`]): the watchdog that
/// trips a persistently diverging lane into [`LaneState::Quarantined`],
/// drains its queued work back through the router, soft-resets the lane
/// (clears any installed response mutator, re-probes health), and walks
/// it back to [`LaneState::Healthy`] through a clean-completion
/// probation window. Lane state is published as the `dlt_lane_state`
/// gauge, and a quarantined lane sheds routed clean reads while still
/// executing writes and dirty reads (placement correctness first).
#[derive(Debug, Clone, Copy)]
pub struct SuperviseConfig {
    /// Master switch. Off (the default): no outcome windows are kept and
    /// no lane ever leaves [`LaneState::Healthy`].
    pub enabled: bool,
    /// Divergences within [`SuperviseConfig::window`] recent completions
    /// that trip quarantine.
    pub divergence_threshold: u32,
    /// Size of the sliding completion window the threshold is evaluated
    /// over.
    pub window: u32,
    /// Clean completions a probation lane must serve (without a single
    /// divergence) before it is restored to [`LaneState::Healthy`].
    pub probation_ok: u32,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig { enabled: false, divergence_threshold: 3, window: 16, probation_ok: 8 }
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum concurrent sessions admitted.
    pub max_sessions: usize,
    /// Per-device submission-queue capacity (backpressure bound).
    pub queue_capacity: usize,
    /// Submission path: per-operation SMCs or shared-memory rings.
    pub submit_mode: SubmitMode,
    /// Lane execution: inline deterministic event loop, or one OS thread
    /// per lane.
    pub exec_mode: ExecMode,
    /// Slots in each per-lane submission ring ([`SubmitMode::Ring`]): how
    /// many requests a client can stage between doorbells before the ring
    /// pushes back with [`ServeError::QueueFull`].
    pub sq_depth: usize,
    /// Reapable slots in each per-session completion ring. Posts beyond
    /// this spill to the never-drop overflow list; flushing it costs the
    /// ring-mode reader one world switch.
    pub cq_depth: usize,
    /// Scheduling policy for every device lane.
    pub policy: Policy,
    /// Whether to coalesce adjacent/overlapping requests.
    pub coalesce: bool,
    /// Largest batch drained per scheduling round.
    pub coalesce_window: usize,
    /// Anticipatory-coalescing latency budget: how long an idle lane holds
    /// its queue open (plugs) after a request arrives, hoping to merge the
    /// requests that follow. When the bet loses — nothing else arrives in
    /// the window — the request pays the full budget as added latency;
    /// that bounded lost-bet cost is inherent to anticipation and is what
    /// this knob caps (single-op closed-loop clients may prefer 0).
    /// 0 disables holding; holding is also disabled when
    /// [`ServeConfig::coalesce`] is off and on the camera lane.
    pub hold_budget_ns: u64,
    /// Block granularities to record for MMC/USB (Table 3's campaign).
    pub block_granularities: Vec<u32>,
    /// Camera burst lengths to record.
    pub camera_bursts: Vec<u32>,
    /// Replay engine the per-device replayers run.
    pub mode: ReplayMode,
    /// Shard routing across replica lanes: placement policy plus the
    /// spill switch (see [`crate::route`]). With a single lane per device
    /// the router is an identity and this knob is inert.
    pub route: RouteConfig,
    /// Admission QoS: per-tenant token-bucket rate limits plus weighted
    /// max-min in-flight shares, enforced **before** a request reserves
    /// queue depth (see [`crate::sched::Admission`]). Disabled by
    /// default; per-session overrides via
    /// [`DriverletService::set_session_qos`].
    pub qos: QosConfig,
    /// Replica failover for diverging clean reads (see
    /// [`FailoverConfig`]). Disabled by default; inert on single-replica
    /// fleets.
    pub failover: FailoverConfig,
    /// Lane supervision: the divergence watchdog, quarantine and
    /// probation cycle (see [`SuperviseConfig`]). Disabled by default.
    pub supervise: SuperviseConfig,
    /// Observability on top of the always-on counters: `Off` (counters
    /// only), `MetricsOnly` (plus the latency and batch-size histograms),
    /// or `Full` (plus the per-thread flight recorder). Defaults from the
    /// `DLT_OBS` environment variable (`off` / `metrics` / `full`) so CI
    /// can rerun an unmodified suite under full observability.
    pub obs: ObsConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 64,
            queue_capacity: 128,
            submit_mode: SubmitMode::PerCall,
            exec_mode: ExecMode::Sequential,
            sq_depth: 64,
            cq_depth: 256,
            policy: Policy::Fifo,
            coalesce: true,
            coalesce_window: 32,
            hold_budget_ns: 100_000,
            block_granularities: vec![1, 8, 32, 128, 256],
            camera_bursts: vec![1],
            mode: ReplayMode::Compiled,
            route: RouteConfig::default(),
            qos: QosConfig::default(),
            failover: FailoverConfig::default(),
            supervise: SuperviseConfig::default(),
            obs: std::env::var("DLT_OBS")
                .ok()
                .and_then(|s| ObsConfig::from_env_str(&s))
                .unwrap_or_default(),
        }
    }
}

impl ServeConfig {
    /// A reduced configuration recording only small block granularities —
    /// fast to set up, used by tests.
    pub fn quick() -> Self {
        ServeConfig { block_granularities: vec![1, 8, 32], ..ServeConfig::default() }
    }
}

/// Cumulative service statistics: a view over the metrics registry's
/// counters (see [`DriverletService::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted into a queue.
    pub submitted: u64,
    /// Completions produced (success or error).
    pub completed: u64,
    /// Submits rejected with queue-full backpressure.
    pub rejected: u64,
    /// Replay invocations issued to devices.
    pub replays: u64,
    /// Requests served by a merged or batched replay.
    pub coalesced_requests: u64,
    /// Blocks moved by block replays.
    pub blocks_moved: u64,
    /// Dispatches that anticipated: the lane held its queue open past the
    /// ready instant (plug engaged).
    pub holds: u64,
    /// Holds released before the budget expired (direction change,
    /// queue-full, or a competing session's unmergeable request).
    pub early_unplugs: u64,
    /// Doorbell SMCs rung on the ring submit path.
    pub doorbells: u64,
    /// Submission-ring entries admitted across all doorbells.
    pub doorbell_entries: u64,
    /// Completions that spilled to a session's CQ overflow list.
    pub cq_overflows: u64,
    /// Submits that went through the replica router (every
    /// device-addressed submit; lane-pinned submits bypass the router and
    /// are not counted).
    pub routed: u64,
    /// Routed parts shed off a saturated home lane to a sibling replica.
    pub route_spills: u64,
    /// Routed submits that fanned out to two or more replica lanes.
    pub stripe_fanouts: u64,
    /// Member parts those fan-outs produced (`stripe_parts /
    /// stripe_fanouts` is the mean fan-out width).
    pub stripe_parts: u64,
    /// Submits refused at the admission-QoS gate with
    /// [`ServeError::Throttled`] (no queue depth was ever reserved).
    pub throttled: u64,
    /// Diverged clean reads swallowed and re-admitted on a sibling
    /// replica.
    pub failovers: u64,
    /// Requests whose failover retry budget ran out
    /// ([`ServeError::Exhausted`]).
    pub failover_exhausted: u64,
    /// Watchdog trips into [`LaneState::Quarantined`].
    pub quarantines: u64,
    /// Lanes restored to [`LaneState::Healthy`] after a clean probation
    /// window.
    pub lane_restores: u64,
}

impl ServeStats {
    /// Mean requests folded into one replay — the coalescing ratio the
    /// bench reports (1.0 = no coalescing benefit).
    pub fn coalescing_ratio(&self) -> f64 {
        if self.replays == 0 {
            return 1.0;
        }
        self.completed as f64 / self.replays as f64
    }

    /// Mean submission-ring entries admitted per doorbell SMC — the
    /// world-switch amortisation factor of the ring path (0.0 when no
    /// doorbell ever rang).
    pub fn mean_doorbell_batch(&self) -> f64 {
        if self.doorbells == 0 {
            return 0.0;
        }
        self.doorbell_entries as f64 / self.doorbells as f64
    }
}

/// Gate command: one per-call submit (legacy path).
const GATE_SUBMIT: u32 = 0;
/// Gate command: drain every rung submission ring (`params[0]` = staged
/// entry count, charged per entry inside the one doorbell switch).
const GATE_DOORBELL: u32 = 1;
/// Gate command: one per-call completion reap (legacy path) — a full GP
/// invoke, priced exactly like a per-call submit.
const GATE_REAP: u32 = 2;

/// The session-admission gate: a minimal trusted application registered
/// with the TEE kernel. Opening a service session opens a TEE session to
/// this gate. On the per-call path every submit invokes it (one SMC plus
/// the GP invoke marshalling overhead each); on the ring path one
/// batch-invoke per doorbell validates every staged entry — so both
/// admission paths are accounted by the same `dlt-tee` machinery every
/// other trustlet uses.
struct ServeGate;

impl Trustlet for ServeGate {
    fn name(&self) -> &'static str {
        "dlt-serve"
    }
    fn invoke(
        &mut self,
        command: u32,
        params: &[u64; 4],
        _buf: &mut [u8],
        tee: &mut SecureIo,
    ) -> Result<u64, TeeError> {
        // Admission only: the scheduler does the device work. What the
        // gate *does* charge is the admission software cost — per call on
        // the legacy path, per staged entry on the doorbell path.
        match command {
            GATE_DOORBELL => {
                let entries = params[0];
                let validate_ns = entries.saturating_mul(tee.ring_entry_validate_ns());
                tee.hold().charge_ns(validate_ns);
                Ok(entries)
            }
            _ => {
                let invoke_ns = tee.smc_invoke_overhead_ns();
                tee.hold().charge_ns(invoke_ns);
                Ok(0)
            }
        }
    }
}

/// The front-end's handle on one device lane. The execution state (queue,
/// platform, replayer) lives in the [`LaneWorker`] — held inline in
/// sequential mode, moved onto its own OS thread in threaded mode — and
/// the front-end keeps the lane's submission ring, the communication
/// endpoints and the shared atomics.
struct LaneFrontEnd {
    device: Device,
    /// The lane's normal-world submission ring ([`SubmitMode::Ring`]):
    /// entries staged here are invisible to the TEE until a doorbell
    /// drains them into the lane queue.
    sq: SubmissionRing,
    /// Admission channel: TEE-admitted requests travel to the worker here.
    admit_tx: SpscProducer<Pending>,
    /// Completion channel: the worker posts executed completions here.
    cq_rx: mpsc::Receiver<Completion>,
    /// Control mailbox (fault injection, health checks, shutdown).
    ctrl_tx: mpsc::Sender<CtrlMsg>,
    shared: Arc<LaneShared>,
    /// `Some` in sequential mode (the event loop steps it inline), `None`
    /// once the worker moved onto its own thread.
    worker: Option<Box<LaneWorker>>,
    /// The lane thread (threaded mode), joined on drop.
    join: Option<JoinHandle<()>>,
}

/// A snapshot of one lane's timeline and queue state (multi-core
/// observability: per-device utilisation and backlog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStatus {
    /// The lane's device.
    pub device: Device,
    /// Lane-local virtual time.
    pub now_ns: u64,
    /// Nanoseconds the lane core actually spent executing.
    pub busy_ns: u64,
    /// Requests currently queued (admitted but not yet completed into the
    /// completion path).
    pub queued: usize,
    /// Deepest the queue has been.
    pub high_water: usize,
}

/// Shape checks only — one bad request must never take down the service
/// (the bound keeps a single tenant from demanding an unbounded span
/// buffer, and the end check keeps block arithmetic in range). Whether the
/// extent is *recorded* is the replayer's coverage check at execution
/// time.
fn validate_request(req: &Request) -> Result<(), ServeError> {
    let check_span = |blkid: u32, blkcnt: u32| -> Result<(), ServeError> {
        if blkcnt == 0 {
            return Err(ServeError::Invalid("zero-length request".into()));
        }
        if blkcnt > MAX_REQUEST_BLOCKS {
            return Err(ServeError::Invalid(format!(
                "request of {blkcnt} blocks exceeds the {MAX_REQUEST_BLOCKS}-block limit"
            )));
        }
        if blkid.checked_add(blkcnt).is_none() {
            return Err(ServeError::Invalid(format!(
                "request extent {blkid}+{blkcnt} exceeds the block address space"
            )));
        }
        Ok(())
    };
    match req {
        Request::Read { blkid, blkcnt, .. } => check_span(*blkid, *blkcnt)?,
        Request::Write { blkid, data, .. } => {
            if data.is_empty() || data.len() % BLOCK != 0 {
                return Err(ServeError::Invalid(
                    "write payload must be a whole number of blocks".into(),
                ));
            }
            check_span(*blkid, (data.len() / BLOCK) as u32)?;
        }
        Request::Capture { frames, .. } => {
            if *frames == 0 {
                return Err(ServeError::Invalid("zero-frame capture".into()));
            }
        }
    }
    Ok(())
}

/// Front-end state for one open session: its completion ring plus the
/// cached per-session metrics series. The series is resolved from the
/// registry's locked map **once**, at `open_session`, so the per-request
/// submit/reap paths bump plain relaxed atomics instead of paying a
/// mutex + hash lookup + `Arc` clone each time.
struct SessionEntry {
    cq: CompletionRing,
    obs: Arc<SessionMetrics>,
}

/// Reassembly state for one routed submit that fanned out across replica
/// lanes. The client holds the *parent* [`RequestId`]; each member part
/// executes on its lane like any other request, and the front-end folds
/// member completions in here as it reaps them. When the last member
/// lands, one synthesized parent [`Completion`] — offset-ordered read
/// bytes, the latest member `completed_ns` — is posted to the session.
struct StripeParent {
    session: SessionId,
    device: Device,
    /// Members not yet folded in.
    outstanding: usize,
    /// Read reassembly buffer (member payloads land at their byte
    /// offsets); `None` for writes.
    buf: Option<Vec<u8>>,
    /// Total blocks the parent wrote (the `Payload::Written` count).
    blocks: u32,
    submitted_ns: u64,
    /// Running max over member completion stamps: a striped request is
    /// done when its *slowest* part is.
    completed_ns: u64,
    /// Whether any member rode a merged/batched replay.
    coalesced: bool,
    /// Lowest-offset member error, if any — the error serial execution
    /// would have hit first.
    error: Option<(usize, ServeError)>,
}

/// Failover state for one in-flight retryable request: a routed,
/// unsplit, **clean** read on a multi-replica fleet. Registered at
/// submit time; consulted when its completion reaps as a divergence;
/// dropped when any terminal completion posts.
struct RetryCtx {
    session: SessionId,
    device: Device,
    blkid: u32,
    blkcnt: u32,
    /// Executions that diverged so far, in order — the
    /// [`ServeError::Exhausted`] trail.
    attempts: Vec<FailoverAttempt>,
}

/// Front-end supervision bookkeeping for one lane. The lane's *state*
/// lives in its shared [`dlt_obs::LaneMetrics`] gauge (the router and
/// health checks read it there); these are the watchdog's private
/// counters.
#[derive(Default)]
struct LaneSupervision {
    /// Sliding outcome window over recent completions (`true` =
    /// diverged).
    window: VecDeque<bool>,
    /// Divergences currently inside the window.
    divergences: u32,
    /// Clean completions served since the lane entered probation.
    probation_clean: u32,
}

/// What [`DriverletService::absorb_member`] made of one reaped
/// completion.
enum Absorbed {
    /// Not a stripe member — deliver it unchanged.
    Direct(Completion),
    /// A member folded into a parent that is still waiting on siblings.
    Pending,
    /// The last member landed: deliver the synthesized parent.
    Parent(Completion),
}

/// The multi-tenant driverlet service (see the crate docs).
///
/// # Example
///
/// Two clients share the secure SD card through one scheduler — their
/// requests queue, coalesce where adjacent, and complete independently:
///
/// ```
/// use dlt_serve::{Device, DriverletService, Payload, Request, ServeConfig};
///
/// let mut service = DriverletService::new(&[Device::Mmc], ServeConfig::quick())?;
/// let alice = service.open_session()?; // one SMC each, via the TEE session layer
/// let bob = service.open_session()?;
///
/// service.submit(
///     alice,
///     Request::Write { device: Device::Mmc, blkid: 64, data: vec![7u8; 512] },
/// )?;
/// service.submit(bob, Request::Read { device: Device::Mmc, blkid: 64, blkcnt: 1 })?;
/// service.drain_all(); // event loop: holds, batches, coalesces, replays, fans out
///
/// let read = service.take_completions(bob).pop().unwrap();
/// assert!(matches!(read.result?, Payload::Read(bytes) if bytes[0] == 7));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct DriverletService {
    /// The control plane: the normal-world CPU and the TEE session layer.
    /// Its clock advances on SMCs and client think time, never on device
    /// work — device work belongs to the lane cores.
    control: Platform,
    /// The control clock's lock-free published view (submit stamps and
    /// the QoS gate read it without the control platform's bus lock).
    control_cell: Arc<ClockCell>,
    tee: TeeKernel,
    lanes: Vec<LaneFrontEnd>,
    /// Lane indices per device class (indexed by [`Device::index`]), in
    /// construction (replica) order — the O(1) routing table behind
    /// [`DriverletService::submit`] and the [`LaneId`] address space
    /// (`lane_table[device.index()][replica]`).
    lane_table: [Arc<[usize]>; Device::COUNT],
    /// The shard router: placement policy plus the dirtied-chunk set that
    /// gates spilling (see [`crate::route`]).
    router: Router,
    /// Placement scratch the submit path reuses: the fleet's loads and
    /// the planned parts.
    loads: Vec<LaneLoad>,
    parts: Vec<RoutePart>,
    /// Member request id → (parent id, byte offset into the parent span)
    /// for in-flight routed fan-outs.
    stripe_members: IdMap<RequestId, (RequestId, usize)>,
    /// Parent id → reassembly state for in-flight routed fan-outs.
    stripe_parents: IdMap<RequestId, StripeParent>,
    config: ServeConfig,
    sessions: IdMap<SessionId, SessionEntry>,
    /// The admission-QoS gate (token buckets + weighted shares),
    /// consulted by routed submits before any queue depth is reserved.
    /// Lane-pinned submits bypass it, exactly as they bypass the router.
    /// A charged request's ticket is the `(session, device)` its
    /// completion carries: posting the completion the client observes
    /// releases the tenant's in-flight share slot.
    admission: Admission,
    /// While QoS is on, the ids the gate did not charge (lane-pinned
    /// submits), whose completions release nothing.
    uncharged: IdSet<RequestId>,
    /// Request id → failover state for in-flight retryable clean reads.
    retryable: IdMap<RequestId, RetryCtx>,
    /// Per-lane watchdog counters, indexed like `lanes`.
    supervision: Vec<LaneSupervision>,
    /// The next request id to hand out (ids are dense and increase in
    /// submit order).
    next_request: RequestId,
    /// Requests [`DriverletService::admit`] has put on lanes so far. A
    /// threaded drain compares it across a reap to see whether the reap
    /// re-admitted work.
    admissions: u64,
    /// Ids in the order their replays executed (the serial-order witness
    /// for the differential property test). Appended as completions are
    /// reaped from each lane's cq channel — which is per-lane execution
    /// order; cross-lane interleaving in threaded mode follows reap order.
    exec_log: Vec<RequestId>,
    /// What a threaded drain parks on; lane workers signal it.
    drain_signal: Arc<DrainSignal>,
    /// The flight recorder (disabled unless [`ObsConfig::Full`]); lane
    /// workers, replayers, the TEE kernel and the front-end all emit into
    /// their own lock-free rings registered here.
    recorder: Arc<Recorder>,
    /// The metrics registry: the one counter plane every count the
    /// service reports is read from. Its histograms record only when
    /// [`ObsConfig::histograms_enabled`].
    metrics: Arc<MetricsRegistry>,
    /// The front-end thread's own trace ring (submit/doorbell events).
    tracer: Option<TraceHandle>,
}

impl Drop for DriverletService {
    fn drop(&mut self) {
        for lane in &mut self.lanes {
            if let Some(join) = lane.join.take() {
                let (reply, _keep) = mpsc::channel();
                let _ = lane.ctrl_tx.send(CtrlMsg { req: CtrlReq::Stop, reply });
                lane.shared.unpark();
                let _ = join.join();
            }
        }
    }
}

impl DriverletService {
    /// Record the driverlets for `devices`, then stand the service up via
    /// [`DriverletService::with_driverlets`].
    pub fn new(devices: &[Device], config: ServeConfig) -> Result<Self, ServeError> {
        let mut bundles = Vec::new();
        for device in devices {
            let bundle = match device {
                Device::Mmc => record_mmc_driverlet_subset(&config.block_granularities)
                    .map_err(|e| ServeError::Invalid(e.to_string()))?,
                Device::Usb => record_usb_driverlet_subset(&config.block_granularities)
                    .map_err(|e| ServeError::Invalid(e.to_string()))?,
                Device::Vchiq => record_camera_driverlet_subset(&config.camera_bursts)
                    .map_err(|e| ServeError::Invalid(e.to_string()))?,
            };
            bundles.push((*device, bundle));
        }
        Self::with_driverlets(&bundles, config)
    }

    /// Stand up the control-plane platform plus **one TEE core (platform +
    /// clock + replayer) per entry** in `bundles`, each loaded with its
    /// (already recorded, signed) bundle. A production deployment records
    /// once and serves many service restarts from the same signed bundles.
    ///
    /// A device may appear more than once: each occurrence becomes its own
    /// **replica lane** with an independent core and queue. The
    /// device-routed [`DriverletService::submit`] shards block addresses
    /// across the replicas under [`ServeConfig::route`]; a [`LaneId`]
    /// passed to [`DriverletService::submit_to`] pins one replica. In
    /// [`ExecMode::Threaded`] each lane's worker is spawned onto its own
    /// OS thread here and joined on drop.
    pub fn with_driverlets(
        bundles: &[(Device, dlt_template::Driverlet)],
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        let control = Platform::new();
        let control_cell = control.bus.lock().clock.cell();
        let mut tee = TeeKernel::install(&control, &[])?;
        tee.load_trustlet(Box::new(ServeGate));
        let drain_signal = Arc::new(DrainSignal::default());
        // One host epoch for both observability planes: trace stamps and
        // `last_event_host_ns` live in the same domain, so hot paths that
        // already computed a metrics stamp can hand it to `emit_at`.
        let obs_epoch = Instant::now();
        let metrics =
            Arc::new(MetricsRegistry::with_epoch(config.obs.histograms_enabled(), obs_epoch));
        let recorder = Arc::new(if config.obs.tracing_enabled() {
            Recorder::with_epoch(
                dlt_obs::trace::DEFAULT_RING_CAPACITY,
                dlt_obs::trace::DEFAULT_FLIGHT_CAPACITY,
                obs_epoch,
            )
        } else {
            Recorder::disabled()
        });
        // Track 0 carries both normal-world emitters (the front-end and
        // the TEE kernel); each lane's worker and replayer share track
        // `index + 1` — one Perfetto track per lane thread.
        let tracer = recorder.register("front-end", 0);
        tee.set_tracer(recorder.register("tee", 0));
        tee.set_smc_metrics(metrics.smc());
        let mut block_granularities = config.block_granularities.clone();
        block_granularities.sort_unstable_by(|a, b| b.cmp(a));
        let lane_config = LaneConfig {
            coalesce: config.coalesce,
            coalesce_window: config.coalesce_window,
            hold_budget_ns: config.hold_budget_ns,
            block_granularities,
            camera_bursts: config.camera_bursts.clone(),
        };

        let mut lanes = Vec::new();
        for (index, (device, bundle)) in bundles.iter().enumerate() {
            let platform = Platform::new();
            let (entry, secure): (_, &[&str]) = match device {
                Device::Mmc => {
                    MmcSubsystem::attach(&platform).map_err(TeeError::from)?;
                    ("replay_mmc", &["sdhost", "dma"])
                }
                Device::Usb => {
                    UsbSubsystem::attach(&platform).map_err(TeeError::from)?;
                    ("replay_usb", &["dwc2"])
                }
                Device::Vchiq => {
                    VchiqSubsystem::attach(&platform).map_err(TeeError::from)?;
                    ("replay_cam", &["vchiq"])
                }
            };
            let io = secure_core(&platform, secure)?;
            let mut replayer = Replayer::with_config(io, ReplayConfig { mode: config.mode });
            replayer.load_driverlet(bundle.clone(), DEV_KEY)?;
            // Register the worker's ring first: the first name on a track
            // labels its Perfetto track, and `lane-N-dev` is the thread
            // name the spans belong to. The replayer shares the track.
            let track = (index + 1) as u16;
            let lane_tracer = recorder.register(&format!("lane-{index}-{device}"), track);
            if let Some(t) = recorder.register(&format!("replayer-{index}-{device}"), track) {
                replayer.set_tracer(t);
            }
            let shared = Arc::new(LaneShared::new(
                *device,
                config.queue_capacity,
                platform.bus.lock().clock.cell(),
                Arc::clone(&drain_signal),
                metrics.register_lane(device.to_string()),
                metrics.epoch(),
            ));
            // The front-end reservation caps admitted, unposted work at the
            // queue capacity, so the admit ring never rejects. Completions
            // need an unbounded channel: a posted completion frees its
            // reservation before the front-end reaps it, so a lane may post
            // any number of completions nobody has reaped yet.
            let (admit_tx, admit_rx) = spsc::channel(config.queue_capacity);
            let (cq_tx, cq_rx) = mpsc::channel();
            let (ctrl_tx, ctrl_rx) = mpsc::channel();
            let worker = Box::new(LaneWorker {
                device: *device,
                lane: Lane::new(config.policy),
                platform,
                replayer,
                entry,
                admit_rx,
                cq_tx,
                ctrl_rx,
                shared: Arc::clone(&shared),
                config: lane_config.clone(),
                tracer: lane_tracer,
                bufs: Default::default(),
            });
            let (worker, join) = match config.exec_mode {
                ExecMode::Sequential => (Some(worker), None),
                ExecMode::Threaded => {
                    let handle = std::thread::Builder::new()
                        .name(format!("dlt-lane-{index}-{device}"))
                        .spawn(move || worker.run())
                        .map_err(|e| {
                            ServeError::Invalid(format!("failed to spawn lane thread: {e}"))
                        })?;
                    shared
                        .thread
                        .set(handle.thread().clone())
                        .expect("lane thread handle is set exactly once");
                    (None, Some(handle))
                }
            };
            lanes.push(LaneFrontEnd {
                device: *device,
                sq: SubmissionRing::new(config.sq_depth),
                admit_tx,
                cq_rx,
                ctrl_tx,
                shared,
                worker,
                join,
            });
        }
        let mut lane_table: [Vec<usize>; Device::COUNT] = Default::default();
        for (index, lane) in lanes.iter().enumerate() {
            lane_table[lane.device.index()].push(index);
        }
        let router = Router::new(config.route);
        let supervision = (0..lanes.len()).map(|_| LaneSupervision::default()).collect();
        let admission = Admission::new(config.qos);
        Ok(DriverletService {
            control,
            control_cell,
            tee,
            lanes,
            lane_table: lane_table.map(Arc::from),
            router,
            loads: Vec::new(),
            parts: Vec::new(),
            stripe_members: IdMap::default(),
            stripe_parents: IdMap::default(),
            config,
            sessions: IdMap::default(),
            admission,
            uncharged: IdSet::default(),
            retryable: IdMap::default(),
            supervision,
            next_request: 1,
            admissions: 0,
            exec_log: Vec::new(),
            drain_signal,
            recorder,
            metrics,
            tracer,
        })
    }

    /// Current **service time**: the pointwise max of the control-plane
    /// clock and every lane clock — the join that merges the per-core
    /// timelines into one monotonic service timeline. Elapsed-time
    /// (makespan) measurements read this; submission stamps instead read
    /// the control clock (see the module docs for the causal rules).
    ///
    /// Lock-free: every clock publishes each advance into its
    /// [`ClockCell`] with release ordering, and this max-scan only takes
    /// acquire loads — it is safe (and non-blocking) to call while lane
    /// threads execute. Each cell is a monotone lower bound of its lane's
    /// live clock, so the join is itself a monotone lower bound of the
    /// true service time, exact at quiescence.
    pub fn now_ns(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.shared.clock.now_ns())
            .fold(self.control_cell.now_ns(), u64::max)
    }

    /// Model normal-world client think time: advance the control-plane
    /// clock by `ns`, so the next submit's arrival stamp is spaced
    /// accordingly. Benchmarks use this to shape open-loop arrival
    /// processes (e.g. the anticipatory-hold sweep).
    pub fn client_think_ns(&mut self, ns: u64) {
        self.control.bus.lock().clock.advance_ns(ns);
    }

    /// Per-lane timeline and queue snapshots (device, lane-local time,
    /// busy/idle split, backlog). Reads only published atomics, so it is
    /// safe against running lane threads.
    pub fn lane_status(&self) -> Vec<LaneStatus> {
        self.lanes
            .iter()
            .map(|l| LaneStatus {
                device: l.device,
                now_ns: l.shared.clock.now_ns(),
                busy_ns: l.shared.clock.busy_ns(),
                queued: l.shared.metrics.in_queue() as usize,
                high_water: l.shared.metrics.occupancy_high_water() as usize,
            })
            .collect()
    }

    /// Cumulative statistics: a view over the metrics registry's lane,
    /// SMC, routing and robustness counters (relaxed reads; exact once the
    /// service is quiescent).
    pub fn stats(&self) -> ServeStats {
        let snap = self.metrics.snapshot();
        let sum = |f: fn(&LaneSnapshot) -> u64| -> u64 { snap.lanes.iter().map(f).sum() };
        ServeStats {
            submitted: sum(|l| l.submitted),
            completed: sum(|l| l.completed + l.diverged + l.failed),
            rejected: sum(|l| l.rejected),
            replays: sum(|l| l.invocations),
            coalesced_requests: sum(|l| l.merged),
            blocks_moved: sum(|l| l.blocks_moved),
            holds: sum(|l| l.holds),
            early_unplugs: sum(|l| l.early_unplugs),
            doorbells: self.smc_doorbells(),
            doorbell_entries: snap.doorbell_entries,
            cq_overflows: snap.cq_overflows,
            routed: snap.route.decisions,
            route_spills: snap.route.spills,
            stripe_fanouts: snap.route.stripe_fanouts,
            stripe_parts: snap.route.stripe_parts,
            throttled: snap.robustness.throttled,
            failovers: snap.robustness.failovers,
            failover_exhausted: snap.robustness.failover_exhausted,
            quarantines: snap.robustness.quarantines,
            lane_restores: snap.robustness.lane_restores,
        }
    }

    /// Number of open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// World switches (SMCs) the session layer has performed, doorbells
    /// included. `smc_calls() / stats().completed` is the
    /// SMCs-per-request metric the serve bench gates on.
    pub fn smc_calls(&self) -> u64 {
        self.tee.smc_calls()
    }

    /// World switches that were ring doorbells.
    pub fn smc_doorbells(&self) -> u64 {
        self.tee.smc_doorbells()
    }

    /// World switches on the legacy per-call path (open/submit/reap/close).
    pub fn smc_legacy(&self) -> u64 {
        self.tee.smc_legacy()
    }

    /// The normal-world (control-plane) clock. Benchmarks read this to
    /// separate submission-path time from lane (device) time: the control
    /// clock is where per-call SMC overhead accumulates and what the ring
    /// path amortises.
    pub fn control_now_ns(&self) -> u64 {
        // Exact without the bus lock: the control clock publishes every
        // advance to its cell, and only this thread advances it.
        self.control_cell.now_ns()
    }

    /// How many device lanes the service runs (replica lanes included).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The device served by lane `lane`, if it exists.
    pub fn lane_device(&self, lane: usize) -> Option<Device> {
        self.lanes.get(lane).map(|l| l.device)
    }

    /// Admit a new client (one SMC through the TEE session layer).
    pub fn open_session(&mut self) -> Result<SessionId, ServeError> {
        if self.sessions.len() >= self.config.max_sessions {
            return Err(ServeError::SessionLimit { max: self.config.max_sessions });
        }
        let id = self.tee.open_session("dlt-serve")?;
        let obs = self.metrics.session(id);
        self.sessions
            .insert(id, SessionEntry { cq: CompletionRing::new(self.config.cq_depth), obs });
        Ok(id)
    }

    /// Close a session. Queued requests still execute, but their
    /// completions are dropped.
    ///
    /// Every per-session series is released here: the TEE session, the
    /// completion ring, the QoS bucket, and the metrics registry's session
    /// series — so churning sessions (open → close, thousands of times)
    /// leaves the registry at its live-session size instead of growing one
    /// series per session ever opened. Outcomes of requests still in
    /// flight at close time count into the aggregate `orphan_outcomes`
    /// robustness counter. The lanes are not told: a DRR lane drops a
    /// session's rotation slot once its queue is empty, and a FIFO lane
    /// keeps none.
    pub fn close_session(&mut self, session: SessionId) {
        self.tee.close_session(session);
        self.sessions.remove(&session);
        self.admission.forget_session(session);
        self.metrics.forget_session(session);
    }

    /// Install a per-session QoS override (rate, burst, weight) on the
    /// admission gate, replacing [`QosConfig::default_qos`] for
    /// `session`. Takes effect on the next routed submit; inert while
    /// [`QosConfig::enabled`] is off.
    pub fn set_session_qos(
        &mut self,
        session: SessionId,
        qos: SessionQos,
    ) -> Result<(), ServeError> {
        if !self.sessions.contains_key(&session) {
            return Err(ServeError::InvalidSession(session));
        }
        self.admission.set_session(session, qos);
        Ok(())
    }

    /// How many replica lanes serve `device` (0 when it is not served).
    pub fn replica_count(&self, device: Device) -> usize {
        self.lane_table[device.index()].len()
    }

    /// The fleet address of lane `lane`, if it exists.
    pub fn lane_id(&self, lane: usize) -> Option<LaneId> {
        let device = self.lanes.get(lane)?.device;
        let replica = self.lane_table[device.index()].iter().position(|&i| i == lane)?;
        Some(LaneId { device, replica })
    }

    /// The raw lane index behind a fleet address, if it exists.
    pub fn lane_of(&self, id: LaneId) -> Option<usize> {
        self.lane_table[id.device.index()].get(id.replica).copied()
    }

    /// Submit a request into a session on its device's replica fleet:
    /// [`DriverletService::submit_to`] with `req.device()` as the target.
    pub fn submit(&mut self, session: SessionId, req: Request) -> Result<RequestId, ServeError> {
        self.submit_to(req.device(), session, req)
    }

    /// Submit a request into a session at `target`, along the configured
    /// [`SubmitMode`]: an SMC-free stage into the lane's submission ring
    /// (admitted by the next [`DriverletService::ring_doorbell`]), or a
    /// stage admitted at once by one per-call SMC.
    ///
    /// A [`Device`] target is the **routed** path: admission QoS charges
    /// the tenant first, then the request's block span is placed across
    /// the device's replica lanes under [`ServeConfig::route`] —
    /// deterministically (same block → same replica), splitting a span
    /// that crosses chunk homes into member parts whose completions
    /// reassemble, in offset order, into the one completion this call's
    /// [`RequestId`] names. When a home lane is saturated, a clean read
    /// spills to the least-loaded sibling instead of failing.
    /// [`ServeError::QueueFull`] from this path carries the **fleet** depth
    /// snapshot, so callers can tell one hot shard from a saturated fleet.
    ///
    /// A [`LaneId`] target pins the whole request to that replica lane,
    /// bypassing the router and admission QoS; its `QueueFull` carries no
    /// fleet view.
    pub fn submit_to(
        &mut self,
        target: impl Into<Target>,
        session: SessionId,
        req: Request,
    ) -> Result<RequestId, ServeError> {
        if !self.sessions.contains_key(&session) {
            return Err(ServeError::InvalidSession(session));
        }
        validate_request(&req)?;
        let target = target.into();
        let (lane_id, routed) = (target.lane_id(), matches!(target, Target::Device(_)));
        let device = req.device();
        if lane_id.device != device {
            return Err(ServeError::Invalid(format!(
                "request for {device} submitted to a {} lane",
                lane_id.device
            )));
        }
        let table = match &self.lane_table[device.index()] {
            t if lane_id.replica < t.len() => Arc::clone(t),
            _ if routed => return Err(ServeError::DeviceNotServed(device)),
            _ => return Err(ServeError::Invalid(format!("no replica lane {lane_id} is served"))),
        };
        // Admission QoS first — before any queue depth is reserved, so a
        // throttled flooder never occupies a slot a victim could have
        // used. The charge is provisional: rolled back on any downstream
        // rejection, released by the completion's QoS ticket otherwise.
        let charged = routed && self.admission.is_enabled();
        if charged {
            let per_lane = match self.config.submit_mode {
                SubmitMode::PerCall => self.config.queue_capacity,
                SubmitMode::Ring => self.config.sq_depth,
            };
            let now_ns = self.control_cell.now_ns();
            if let Err(retry_after_ns) =
                self.admission.admit(session, device, table.len() * per_lane, now_ns)
            {
                self.metrics.robustness().on_throttle();
                self.sessions[&session].obs.on_throttle();
                obs_event!(self.tracer, EventKind::Throttled, now_ns, session, 0, retry_after_ns);
                return Err(ServeError::Throttled { session, device, retry_after_ns });
            }
        }
        let staged = self.config.submit_mode == SubmitMode::Ring;
        self.loads.clear();
        self.loads.extend(lane_loads(&self.lanes, &table, staged));
        let plan = if routed {
            self.router.plan(session, &req, &mut self.loads, &mut self.parts)
        } else if self.loads[lane_id.replica].fits() {
            self.parts.clear();
            let part = RoutePart { replica: lane_id.replica, blkid: 0, blkcnt: 0, spilled: false };
            self.parts.push(part);
            Ok(())
        } else {
            Err(RouteReject::at(lane_id.replica, &self.loads, false))
        };
        if let Err(reject) = plan {
            if charged {
                self.admission.rollback(session, device);
            }
            let home = reject.home;
            self.lanes[table[home.replica]].shared.metrics.on_reject();
            return Err(ServeError::QueueFull {
                device,
                depth: home.depth,
                capacity: home.capacity,
                high_water: self.loads[home.replica].high_water,
                fleet: reject.fleet,
            });
        }
        let parts = std::mem::take(&mut self.parts);
        // Failover eligibility is decided at plan time: an unsplit clean
        // read on a multi-replica fleet may retry on a sibling, because
        // its bytes are replica-independent by the cleanliness invariant.
        let retry_span =
            (routed && self.config.failover.enabled && table.len() > 1 && parts.len() == 1)
                .then(|| match &req {
                    Request::Read { blkid, blkcnt, .. }
                        if self.router.span_is_clean(device, *blkid, *blkcnt) =>
                    {
                        Some((*blkid, *blkcnt))
                    }
                    _ => None,
                })
                .flatten();
        let spilled = parts.iter().filter(|p| p.spilled).count() as u64;
        let staged = self.stage(session, req, &table, &parts, charged);
        let n_parts = parts.len() as u64;
        self.parts = parts;
        let id = match staged {
            Ok(id) => id,
            Err(e) => {
                if charged {
                    self.admission.rollback(session, device);
                }
                return Err(e);
            }
        };
        if let Some((blkid, blkcnt)) = retry_span {
            self.retryable
                .insert(id, RetryCtx { session, device, blkid, blkcnt, attempts: Vec::new() });
        }
        if routed {
            self.metrics.route().on_plan(n_parts, spilled);
        }
        Ok(id)
    }

    /// Stage `req`'s planned parts under one client-visible id — the
    /// request's own, or the parent of a fan-out whose member parts
    /// reassemble into it. Ring mode leaves the entries in the lanes'
    /// submission rings for the next doorbell; per-call mode doorbells
    /// them at once through one gate SMC (a GP invoke however many parts
    /// there are: the client made one call). An id the QoS gate did not
    /// `charge` is remembered as such while QoS is on.
    fn stage(
        &mut self,
        session: SessionId,
        req: Request,
        table: &[usize],
        parts: &[RoutePart],
        charged: bool,
    ) -> Result<RequestId, ServeError> {
        let ring = self.config.submit_mode == SubmitMode::Ring;
        // Submission stamp: the instant the client initiated the call, so
        // client-observed latency includes what the submit path costs (the
        // per-call SMC, or the wait for a doorbell). The control clock
        // advances on SMCs, client think time and completion observations
        // ([`DriverletService::take_completions`]) — never on unobserved
        // lane progress — so independent sessions keep overlapping with a
        // slow lane they are not waiting on.
        let submitted_ns = self.control_cell.now_ns();
        if !ring {
            self.tee
                .invoke(session, GATE_SUBMIT, &[0; 4], &mut [])
                .map_err(|_| ServeError::InvalidSession(session))?;
        }
        let id = self.next_request_id();
        if !charged && self.admission.is_enabled() {
            self.uncharged.insert(id);
        }
        obs_event!(self.tracer, EventKind::Submitted, submitted_ns, session, id, 0);
        // Session accounting is parent-granular: the client sees one
        // submit and will see one completion.
        self.sessions[&session].obs.on_submit();
        // Admission stamp (per-call): the SMC's return. The target lanes
        // serve the entries no earlier than this.
        let arrived_ns = self.control_cell.now_ns();
        let host_ns = if ring { 0 } else { self.metrics.host_now_ns() };
        let enter = |this: &mut Self, replica: usize, e: SqEntry| {
            let idx = table[replica];
            this.lanes[idx].shared.metrics.on_submit();
            if ring {
                this.lanes[idx].sq.try_push(e).expect("the plan checked the ring's staged depth");
            } else {
                this.admit_entry(idx, e, arrived_ns, host_ns);
            }
        };
        match parts {
            [part] => {
                let entry = SqEntry { id, session, req, enqueued_ns: submitted_ns };
                enter(self, part.replica, entry);
            }
            _ => self.fan_out(id, session, req, parts, submitted_ns, enter),
        }
        Ok(id)
    }

    /// Hand out the next request id.
    fn next_request_id(&mut self) -> RequestId {
        let id = self.next_request;
        self.next_request += 1;
        id
    }

    /// Register a routed fan-out's parent and cut `req` into its member
    /// entries, one per planned part, handing each to `enter` with its
    /// replica. Members execute like any other request;
    /// [`DriverletService::absorb_member`] reassembles their completions
    /// into the parent the session observes.
    fn fan_out(
        &mut self,
        parent: RequestId,
        session: SessionId,
        req: Request,
        parts: &[RoutePart],
        submitted_ns: u64,
        enter: impl Fn(&mut Self, usize, SqEntry),
    ) {
        let device = req.device();
        let (blkid, buf, data) = match req {
            Request::Read { blkid, blkcnt, .. } => {
                (blkid, Some(vec![0u8; blkcnt as usize * BLOCK]), None)
            }
            Request::Write { blkid, data, .. } => (blkid, None, Some(data)),
            // The planner never splits a capture.
            Request::Capture { .. } => unreachable!("captures route as a single part"),
        };
        self.stripe_parents.insert(
            parent,
            StripeParent {
                session,
                device,
                outstanding: parts.len(),
                buf,
                blocks: parts.iter().map(|p| p.blkcnt).sum(),
                submitted_ns,
                completed_ns: 0,
                coalesced: false,
                error: None,
            },
        );
        for part in parts {
            let offset = (part.blkid - blkid) as usize * BLOCK;
            let req = match &data {
                Some(bytes) => Request::Write {
                    device,
                    blkid: part.blkid,
                    data: bytes[offset..offset + part.blkcnt as usize * BLOCK].to_vec(),
                },
                None => Request::Read { device, blkid: part.blkid, blkcnt: part.blkcnt },
            };
            let member = self.next_request_id();
            self.stripe_members.insert(member, (parent, offset));
            obs_event!(self.tracer, EventKind::Submitted, submitted_ns, session, member, 0);
            let entry = SqEntry { id: member, session, req, enqueued_ns: submitted_ns };
            enter(self, part.replica, entry);
        }
    }

    /// Feed one member completion through reassembly and post the parent
    /// if it was the last.
    fn finish_member(&mut self, c: Completion) {
        match self.absorb_member(c) {
            Absorbed::Direct(c) | Absorbed::Parent(c) => self.post_completion(c),
            Absorbed::Pending => {}
        }
    }

    /// Fold one reaped completion into its stripe parent, if it is a
    /// member of a routed fan-out; pass it through otherwise. Member
    /// read bytes land at their byte offset in the parent buffer, the
    /// parent's completion stamp is the max over members (a striped
    /// request is done when its slowest part is), and the surviving
    /// error — if any member failed — is the lowest-offset one, the
    /// error serial execution would have hit first.
    fn absorb_member(&mut self, c: Completion) -> Absorbed {
        let Some((parent_id, offset)) = self.stripe_members.remove(&c.id) else {
            return Absorbed::Direct(c);
        };
        let p = self
            .stripe_parents
            .get_mut(&parent_id)
            .expect("a stripe member always has a live parent");
        p.outstanding -= 1;
        p.completed_ns = p.completed_ns.max(c.completed_ns);
        p.coalesced |= c.coalesced;
        match c.result {
            Ok(Payload::Read(bytes)) => {
                if let Some(buf) = &mut p.buf {
                    buf[offset..offset + bytes.len()].copy_from_slice(&bytes);
                }
            }
            Ok(_) => {}
            Err(e) => {
                if p.error.as_ref().is_none_or(|(at, _)| offset < *at) {
                    p.error = Some((offset, e));
                }
            }
        }
        if p.outstanding > 0 {
            return Absorbed::Pending;
        }
        let p = self.stripe_parents.remove(&parent_id).expect("checked present above");
        let result = match p.error {
            Some((_, e)) => Err(e),
            None => Ok(match p.buf {
                Some(buf) => Payload::Read(buf),
                None => Payload::Written { blocks: p.blocks },
            }),
        };
        Absorbed::Parent(Completion {
            id: parent_id,
            session: p.session,
            device: p.device,
            result,
            submitted_ns: p.submitted_ns,
            completed_ns: p.completed_ns,
            coalesced: p.coalesced,
        })
    }

    /// Put one TEE-admitted request on lane `idx` — the admission spine
    /// every path shares (per-call submits, doorbells, failover retries,
    /// quarantine re-placement): reserve a lane slot, push the admission
    /// ring, trace the admission (stamped `host_ns`) and wake the lane. A
    /// full lane rejects with a single-snapshot `QueueFull`.
    fn admit(&mut self, idx: usize, p: Pending, host_ns: u64) -> Result<(), ServeError> {
        let lane = &mut self.lanes[idx];
        // The reservation enforces the lane bound front-end side, so the
        // push below cannot fail and a rejection reports one coherent
        // depth even while the lane thread drains concurrently.
        lane.shared.reserve(host_ns)?;
        let depth = lane.shared.metrics.in_queue();
        obs_event_at!(
            self.tracer,
            host_ns,
            EventKind::Admitted,
            p.arrived_ns,
            p.session,
            p.id,
            depth
        );
        if lane.admit_tx.try_push(p).is_err() {
            // Unreachable: the admit ring holds `capacity` entries and the
            // reservation bounds in-flight work at `capacity`. Settle the
            // reservation and report typed backpressure, never a loss.
            debug_assert!(false, "reservation bounds the admit ring");
            lane.shared.metrics.on_fail(host_ns);
            return Err(ServeError::QueueFull {
                device: lane.device,
                depth: lane.shared.capacity,
                capacity: lane.shared.capacity,
                high_water: lane.shared.metrics.occupancy_high_water() as usize,
                fleet: Vec::new(),
            });
        }
        lane.shared.unpark();
        self.admissions += 1;
        Ok(())
    }

    /// Admit one staged entry on lane `idx` at `arrived_ns` (`host_ns`
    /// is the doorbell's host stamp). An entry whose lane queue is full is
    /// not dropped: it completes with its typed `QueueFull` in its
    /// session's completion ring — through stripe reassembly when it is a
    /// fan-out member.
    fn admit_entry(&mut self, idx: usize, e: SqEntry, arrived_ns: u64, host_ns: u64) {
        let (id, session, submitted_ns) = (e.id, e.session, e.enqueued_ns);
        let p = Pending { id, session, req: e.req, submitted_ns, arrived_ns };
        if let Err(err) = self.admit(idx, p, host_ns) {
            self.lanes[idx].shared.metrics.on_reject();
            self.finish_member(Completion {
                id,
                session,
                device: self.lanes[idx].device,
                result: Err(err),
                submitted_ns,
                completed_ns: arrived_ns,
                coalesced: false,
            });
        }
    }

    /// Ring the doorbell: **one** SMC (a batch invoke of the gate
    /// trustlet) admits every entry currently staged in every lane's
    /// submission ring. The gate validates each entry under the same
    /// admission checks as a per-call stage — that per-entry cost plus
    /// the doorbell switch are the only control-clock charges, however
    /// large the batch. Admitted entries join their lane queues with
    /// `arrived_ns` = the doorbell's return; an entry whose lane queue is
    /// full is *not* dropped — it completes with
    /// [`ServeError::QueueFull`] in its session's completion ring.
    /// Returns the number of entries admitted (0 when nothing was staged:
    /// no switch is paid for an empty doorbell).
    pub fn ring_doorbell(&mut self) -> Result<usize, ServeError> {
        let staged: usize = self.lanes.iter().map(|l| l.sq.len()).sum();
        if staged == 0 {
            return Ok(0);
        }
        self.tee.invoke_batch("dlt-serve", GATE_DOORBELL, &[staged as u64, 0, 0, 0], &mut [])?;
        let arrived_ns = self.control_cell.now_ns();
        // One host stamp covers the doorbell and every admission it
        // unlocks, in the metrics and the trace alike: they are
        // back-to-back and the clock read dominates their cost.
        let host_ns = self.metrics.host_now_ns();
        obs_event_at!(self.tracer, host_ns, EventKind::Doorbell, arrived_ns, 0, 0, staged as u64);
        self.metrics.smc().record_doorbell_batch(staged as u64);
        for idx in 0..self.lanes.len() {
            if self.lanes[idx].sq.is_empty() {
                continue;
            }
            self.lanes[idx].shared.metrics.on_doorbell();
            while let Some(e) = self.lanes[idx].sq.pop() {
                self.admit_entry(idx, e, arrived_ns, host_ns);
            }
        }
        Ok(staged)
    }

    /// Admit whatever is staged before the event loop looks for work (a
    /// no-op when nothing is staged).
    fn flush_doorbell(&mut self) {
        // The only failure mode is a missing gate trustlet, which
        // `with_driverlets` installed; treat it as unreachable.
        self.ring_doorbell().expect("the serve gate is always installed");
    }

    /// Post one completion into its session's completion ring (dropped
    /// when the session is gone). Every terminal completion passes through
    /// here exactly once, so this is also where the per-session metrics
    /// classify outcomes.
    fn post_completion(&mut self, c: Completion) {
        // Terminal for this request id: release the tenant's QoS
        // in-flight slot and drop any failover state.
        if self.admission.is_enabled() && !self.uncharged.remove(&c.id) {
            self.admission.on_done(c.session, c.device);
        }
        self.retryable.remove(&c.id);
        let Some(entry) = self.sessions.get_mut(&c.session) else {
            // The session is gone (closed with this request in flight):
            // count the outcome into the bounded aggregate instead of
            // re-creating a per-session series the registry would keep
            // forever — session churn must not grow the registry.
            self.metrics.robustness().on_orphan_outcome();
            return;
        };
        match &c.result {
            Err(ServeError::Replay(ReplayError::Diverged(_))) => entry.obs.on_diverge(),
            // Success and typed failures are both terminal completions
            // from the session's point of view.
            _ => entry.obs.on_complete(),
        }
        if entry.cq.post(c) {
            self.metrics.smc().on_cq_overflow();
        }
    }

    /// Reap lane `idx`'s completion channel into the session rings and
    /// the exec log; collects clones when `collect` is set (drain return
    /// value).
    fn reap_lane(&mut self, idx: usize, collect: bool, out: &mut Vec<Completion>) {
        while let Ok(c) = self.lanes[idx].cq_rx.try_recv() {
            let diverged = matches!(c.result, Err(ServeError::Replay(ReplayError::Diverged(_))));
            // The watchdog sees every outcome on its origin lane, even
            // ones failover will swallow — a lane that keeps diverging
            // must trip regardless of where its victims retry.
            self.observe_outcome(idx, diverged);
            // Replica failover: a diverged retryable clean read is
            // swallowed here and re-admitted on a sibling — the session
            // never sees the divergence unless the budget runs out.
            let Some(c) = self.failover_or_deliver(idx, c) else { continue };
            // The exec log records what the lanes actually *delivered*:
            // member ids for routed fan-outs (the parent id never reaches
            // a lane), everything else by its own id. Swallowed diverged
            // executions are retries in flight, not deliveries.
            self.exec_log.push(c.id);
            match self.absorb_member(c) {
                Absorbed::Direct(c) | Absorbed::Parent(c) => {
                    if collect {
                        out.push(c.clone());
                    }
                    self.post_completion(c);
                }
                Absorbed::Pending => {}
            }
        }
    }

    /// Attempt replica failover for one reaped completion. Returns the
    /// completion to deliver — untouched when it is not a retryable
    /// divergence, or rewritten into the typed [`ServeError::Exhausted`]
    /// trail when the budget (or the fleet) ran out — or `None` when the
    /// request was swallowed and re-admitted on a sibling lane under the
    /// same [`RequestId`].
    fn failover_or_deliver(&mut self, idx: usize, c: Completion) -> Option<Completion> {
        let diverged = matches!(c.result, Err(ServeError::Replay(ReplayError::Diverged(_))));
        if !self.config.failover.enabled || !diverged || !self.retryable.contains_key(&c.id) {
            return Some(c);
        }
        let origin = self.lane_id(idx).expect("reaped lanes exist").replica;
        let (attempt, device, session, blkid, blkcnt) = {
            let ctx = self.retryable.get_mut(&c.id).expect("checked present above");
            ctx.attempts.push(FailoverAttempt { replica: origin, at_ns: c.completed_ns });
            (ctx.attempts.len() as u32, ctx.device, ctx.session, ctx.blkid, ctx.blkcnt)
        };
        let table = Arc::clone(&self.lane_table[device.index()]);
        // The front-end is the sole in-flight incrementer, so room found
        // here cannot vanish before the admission below.
        let target = (attempt <= self.config.failover.retry_budget)
            .then(|| {
                let loads: Vec<_> = lane_loads(&self.lanes, &table, false).collect();
                least_loaded_sibling(&loads, origin)
            })
            .flatten();
        let Some(replica) = target else {
            let ctx = self.retryable.remove(&c.id).expect("checked present above");
            self.metrics.robustness().on_exhausted();
            return Some(Completion {
                result: Err(ServeError::Exhausted { device, attempts: ctx.attempts }),
                ..c
            });
        };
        // Exponential backoff charged to the virtual clock: the retry
        // arrives on the sibling no earlier than the divergence's
        // completion stamp plus base << (attempt - 1).
        let backoff = self.config.failover.backoff_base_ns << (attempt - 1).min(20);
        let arrived_ns = c.completed_ns.saturating_add(backoff);
        let req = Request::Read { device, blkid, blkcnt };
        let retry = Pending { id: c.id, session, req, submitted_ns: c.submitted_ns, arrived_ns };
        if self.admit(table[replica], retry, self.metrics.host_now_ns()).is_err() {
            // Unreachable (the sibling was picked with room); deliver the
            // original divergence rather than lose the request.
            self.retryable.remove(&c.id);
            return Some(c);
        }
        self.metrics.robustness().on_failover();
        obs_event!(self.tracer, EventKind::Failover, arrived_ns, session, c.id, u64::from(attempt));
        None
    }

    /// Feed one completion outcome on lane `idx` into the watchdog:
    /// divergence-window accounting while healthy, probation progress
    /// otherwise. No-op unless supervision is enabled.
    fn observe_outcome(&mut self, idx: usize, diverged: bool) {
        let cfg = self.config.supervise;
        if !cfg.enabled {
            return;
        }
        match self.lane_state(idx) {
            LaneState::Healthy => {
                let sup = &mut self.supervision[idx];
                sup.window.push_back(diverged);
                if diverged {
                    sup.divergences += 1;
                }
                while sup.window.len() > cfg.window as usize {
                    if sup.window.pop_front() == Some(true) {
                        sup.divergences -= 1;
                    }
                }
                if sup.divergences >= cfg.divergence_threshold.max(1) {
                    self.quarantine_lane(idx);
                }
            }
            LaneState::Probation => {
                if diverged {
                    // Re-diverging on probation is an immediate re-trip.
                    self.quarantine_lane(idx);
                } else {
                    let sup = &mut self.supervision[idx];
                    sup.probation_clean += 1;
                    if sup.probation_clean >= cfg.probation_ok.max(1) {
                        self.restore_lane(idx);
                    }
                }
            }
            LaneState::Quarantined => {}
        }
    }

    /// The supervision state of lane `idx`, read from its shared gauge —
    /// the single source of truth the router's availability check and
    /// [`LaneHealth`] read too.
    fn lane_state(&self, idx: usize) -> LaneState {
        LaneState::from_gauge(self.lanes[idx].shared.metrics.state())
    }

    fn set_lane_state(&mut self, idx: usize, state: LaneState) {
        let host_ns = self.metrics.host_now_ns();
        self.lanes[idx].shared.metrics.set_state(state.as_gauge(), host_ns);
    }

    /// Trip lane `idx` into quarantine: publish the state (the router
    /// stops sending it clean reads at once), move its staged and queued
    /// work back through the router, soft-reset the replayer (clear any
    /// installed response mutator), and probe — a passing probe moves the
    /// lane straight to probation, a failing one leaves it quarantined.
    fn quarantine_lane(&mut self, idx: usize) {
        self.set_lane_state(idx, LaneState::Quarantined);
        self.supervision[idx] = LaneSupervision::default();
        self.metrics.robustness().on_quarantine();
        let virt_ns = self.lanes[idx].shared.clock.now_ns();
        obs_event!(self.tracer, EventKind::Quarantine, virt_ns, 0, idx as u64, 1);
        self.restage_quarantined_sq(idx);
        if let Ok(CtrlReply::Evicted(evicted)) = self.lane_ctrl(idx, CtrlReq::Evict) {
            self.replace_evicted(idx, evicted);
        }
        let _ = self.lane_ctrl(idx, CtrlReq::SetMutator(None));
        if matches!(self.lane_ctrl(idx, CtrlReq::HealthCheck), Ok(CtrlReply::Health(_))) {
            self.enter_probation(idx);
        }
    }

    /// A quarantined lane's health probe passed: put it on probation
    /// (watchdog arg 2 in the trace).
    fn enter_probation(&mut self, idx: usize) {
        self.set_lane_state(idx, LaneState::Probation);
        self.supervision[idx].probation_clean = 0;
        let virt_ns = self.lanes[idx].shared.clock.now_ns();
        obs_event!(self.tracer, EventKind::Quarantine, virt_ns, 0, idx as u64, 2);
    }

    /// A probation lane served its clean window: restore it.
    fn restore_lane(&mut self, idx: usize) {
        self.set_lane_state(idx, LaneState::Healthy);
        self.supervision[idx] = LaneSupervision::default();
        self.metrics.robustness().on_lane_restore();
        let virt_ns = self.lanes[idx].shared.clock.now_ns();
        obs_event!(self.tracer, EventKind::LaneRestored, virt_ns, 0, idx as u64, 0);
    }

    /// Where work moved off a quarantined lane `origin` goes: a clean read
    /// to the least-loaded available sibling (`staged`: by submission-ring
    /// occupancy, else by admitted in-flight), anything else — writes and
    /// dirty reads, since only replica-independent work may move — back
    /// to `origin`, which still executes.
    fn replacement(&self, origin: usize, req: &Request, staged: bool) -> usize {
        let id = self.lane_id(origin).expect("quarantined lanes exist");
        let table = &self.lane_table[id.device.index()];
        let movable = matches!(req, Request::Read { blkid, blkcnt, .. }
                if self.router.span_is_clean(id.device, *blkid, *blkcnt));
        movable
            .then(|| {
                let loads: Vec<_> = lane_loads(&self.lanes, table, staged).collect();
                least_loaded_sibling(&loads, id.replica)
            })
            .flatten()
            .map_or(origin, |r| table[r])
    }

    /// Re-place the requests a quarantine eviction handed back (see
    /// [`DriverletService::replacement`]). The evicted requests kept
    /// their front-end reservations, so each first settles the origin's
    /// accounting (un-admit) and is then admitted on its target.
    fn replace_evicted(&mut self, origin: usize, evicted: Vec<Pending>) {
        for p in evicted {
            self.lanes[origin].shared.metrics.on_requeue(self.metrics.host_now_ns());
            let target = self.replacement(origin, &p.req, false);
            self.admit(target, p, self.metrics.host_now_ns())
                .expect("the eviction or the room check freed a slot");
        }
    }

    /// Pull staged-but-undoorbelled entries off a quarantined lane's
    /// submission ring and re-stage them (see
    /// [`DriverletService::replacement`]), so the next doorbell does not
    /// admit clean reads onto the sick lane.
    fn restage_quarantined_sq(&mut self, origin: usize) {
        for e in self.lanes[origin].sq.drain_staged() {
            let target = self.replacement(origin, &e.req, true);
            self.lanes[target]
                .sq
                .try_push(e)
                .expect("the target ring was selected non-full or just drained");
        }
    }

    /// Reap every lane `filter` selects.
    fn reap_lanes(&mut self, filter: Option<Device>, collect: bool, out: &mut Vec<Completion>) {
        for idx in 0..self.lanes.len() {
            if filter.is_some_and(|d| self.lanes[idx].device != d) {
                continue;
            }
            self.reap_lane(idx, collect, out);
        }
    }

    /// Whether every selected lane has posted every admitted request's
    /// completion. The `Acquire` load pairs with the worker's `Release`
    /// decrement, so a reap after a `true` finds every completion.
    fn lanes_quiescent(&self, filter: Option<Device>) -> bool {
        self.lanes
            .iter()
            .all(|l| filter.is_some_and(|d| l.device != d) || l.shared.metrics.in_queue() == 0)
    }

    /// Threaded-mode drain: unpark the selected lane threads, then reap
    /// until they are quiescent. The rule is one check: a reap that
    /// followed a read of zero on every selected lane admitted nothing.
    /// The reap itself can re-admit work, through failover or a
    /// quarantine's re-placement, on a lane it already reaped; that lane
    /// can finish the work and read zero again before the reap ends, so
    /// re-reading the counts would miss the completion.
    ///
    /// Like a lane that ran dry, the drain first polls: it checks, reaps
    /// and yields the CPU, for [`crate::lane::IDLE_POLL`]. In
    /// a closed loop the lanes finish inside that window, so the front-end
    /// never sleeps. Past it, the drain parks until a lane signals the edge
    /// quiescence waits for (see [`LaneWorker::run`]), leaving the CPU to
    /// the lanes through a long drain; the completions wait in the cq
    /// channels. No signal can be lost: the drain registers its thread
    /// before its first check, and a signal that lands between a check and
    /// the park pre-pays the unpark token, so the park returns at once.
    fn drain_threaded(&mut self, filter: Option<Device>) -> Vec<Completion> {
        let mut all = Vec::new();
        self.drain_signal.register();
        for lane in &self.lanes {
            if filter.is_some_and(|d| lane.device != d) {
                continue;
            }
            lane.shared.unpark();
        }
        let idle = IdlePoll::new();
        loop {
            let quiet = self.lanes_quiescent(filter);
            let admissions = self.admissions;
            self.reap_lanes(filter, true, &mut all);
            if quiet && self.admissions == admissions {
                return all;
            }
            if !idle.yield_once() {
                std::thread::park_timeout(PARK_FLOOR);
            }
        }
    }

    /// Run the event loop's step function.
    ///
    /// # Contract
    ///
    /// **Sequential mode** (the default): one step — pick the lane with
    /// the smallest next-event time (its plug deadline, or the instant it
    /// can start its earliest arrived request), execute one batch there,
    /// and return that batch's completions; `drain` **yields per batch**,
    /// and an empty return means every lane is idle. **Threaded mode**:
    /// per-batch stepping has no meaning against free-running lane
    /// threads, so `drain` runs to quiescence — it is `drain_all`.
    /// Completions are also retrievable per session via
    /// [`DriverletService::take_completions`]. Call
    /// [`DriverletService::drain_all`] to run the loop to quiescence, or
    /// [`DriverletService::drain_device`] to flush a single saturated lane
    /// (per-device backpressure relief).
    pub fn drain(&mut self) -> Vec<Completion> {
        self.flush_doorbell();
        match self.config.exec_mode {
            ExecMode::Sequential => self.step(None),
            ExecMode::Threaded => self.drain_threaded(None),
        }
    }

    /// Run the event loop until every lane is empty and return all
    /// completions produced (the old `drain` contract).
    pub fn drain_all(&mut self) -> Vec<Completion> {
        self.drain_until_idle(None)
    }

    /// Run the event loop restricted to `device` until that lane is empty
    /// — the per-device backoff a caller applies after
    /// [`ServeError::QueueFull`] names the saturated device, leaving every
    /// other lane's queue (and hold) untouched.
    pub fn drain_device(&mut self, device: Device) -> Vec<Completion> {
        self.drain_until_idle(Some(device))
    }

    /// Step the lanes `filter` selects until they are idle (threaded: run
    /// them to quiescence) and return every completion produced.
    fn drain_until_idle(&mut self, filter: Option<Device>) -> Vec<Completion> {
        self.flush_doorbell();
        if self.config.exec_mode == ExecMode::Threaded {
            return self.drain_threaded(filter);
        }
        let mut all = Vec::new();
        loop {
            let step = self.step(filter);
            if step.is_empty() {
                return all;
            }
            all.extend(step);
        }
    }

    /// One sequential event-loop step over the lanes `filter` selects.
    fn step(&mut self, filter: Option<Device>) -> Vec<Completion> {
        loop {
            // Admissions first, so planning sees every arrival (the
            // pre-threading submit pushed straight into the lane queue).
            let mut next: Option<(usize, Dispatch)> = None;
            for (idx, lane) in self.lanes.iter_mut().enumerate() {
                if filter.is_some_and(|d| lane.device != d) {
                    continue;
                }
                let w = lane.worker.as_mut().expect("sequential lanes keep their worker inline");
                w.pump_admissions();
                if let Some(d) = w.next_dispatch() {
                    if next.is_none_or(|(_, best)| d.at_ns < best.at_ns) {
                        next = Some((idx, d));
                    }
                }
            }
            let Some((idx, dispatch)) = next else {
                return Vec::new();
            };
            let posted = {
                let w = self.lanes[idx]
                    .worker
                    .as_mut()
                    .expect("sequential lanes keep their worker inline");
                w.run_one_batch(dispatch)
            };
            if posted == 0 {
                // DRR with deficits still accumulating: retry — each call
                // grows the eligible sessions' deficits, so this
                // terminates.
                continue;
            }
            let mut out = Vec::with_capacity(posted);
            self.reap_lane(idx, true, &mut out);
            if out.is_empty() {
                // Every completion in the batch folded into a routed
                // stripe parent still waiting on sibling lanes: keep
                // stepping so those siblings execute — an empty return
                // must keep meaning "every lane is idle".
                continue;
            }
            return out;
        }
    }

    /// Take the completions accumulated for one session.
    ///
    /// World-switch accounting follows the submit mode. **Per-call**: the
    /// reap is a command invocation — one SMC every call, completions or
    /// not (the baseline the issue's motivation counts as "one SMC per
    /// completion reap"). **Ring**: the client reads its completion ring
    /// directly — no world switch at all, except when the ring is empty
    /// (a blocking wait must enter the kernel to sleep) or when posts
    /// spilled to the overflow list (flushing it is a kernel entry).
    ///
    /// This is also the client's **observation point**: the caller
    /// blocked until these completions existed, so the normal-world
    /// (control) clock fast-forwards to the latest lane-local completion
    /// time taken. Sessions that never wait on a lane (e.g. block clients
    /// running beside a camera burst they did not submit) keep their own,
    /// earlier timeline — this is what lets independent tenants overlap
    /// device time across lanes.
    ///
    /// In threaded mode this first reaps whatever the lane threads have
    /// posted so far (non-blocking — it does **not** wait for in-flight
    /// requests; drain first for that).
    pub fn take_completions(&mut self, session: SessionId) -> Vec<Completion> {
        if self.config.exec_mode == ExecMode::Threaded {
            self.reap_lanes(None, false, &mut Vec::new());
        }
        let Some(entry) = self.sessions.get_mut(&session) else {
            return Vec::new();
        };
        let (taken, flushed_overflow) = entry.cq.take_all();
        let latest = taken.iter().map(|c| c.completed_ns).max();
        self.charge_reap(session, taken.is_empty() || flushed_overflow, latest);
        taken
    }

    /// Take the completion of request `id` alone, under the same charges
    /// and clock rule as [`DriverletService::take_completions`]; the
    /// session's other completions stay queued in post order.
    fn take_completion(&mut self, session: SessionId, id: RequestId) -> Option<Completion> {
        let taken = self.sessions.get_mut(&session)?.cq.take(id);
        let ring_switch = taken.as_ref().is_none_or(|(_, flushed_overflow)| *flushed_overflow);
        self.charge_reap(session, ring_switch, taken.as_ref().map(|(c, _)| c.completed_ns));
        taken.map(|(c, _)| c)
    }

    /// Charge one reap's world switch and fast-forward the control clock
    /// to the latest completion it took. `ring_switch`: a ring-mode reap
    /// that found nothing or flushed the overflow list enters the kernel.
    fn charge_reap(&mut self, session: SessionId, ring_switch: bool, latest: Option<u64>) {
        match self.config.submit_mode {
            // The per-call reap is a full GP command invocation of the
            // gate, priced exactly like a per-call submit (world switch +
            // invoke marshalling).
            SubmitMode::PerCall => {
                let _ = self.tee.invoke(session, GATE_REAP, &[0; 4], &mut []);
            }
            SubmitMode::Ring if ring_switch => self.tee.smc_yield(),
            SubmitMode::Ring => {}
        }
        if let Some(latest) = latest {
            self.control.bus.lock().clock.advance_to(latest);
        }
    }

    /// The ids of every executed request in device-dispatch order — the
    /// witness serial order for the scheduler's equivalence property
    /// (per-lane execution order exactly; threaded cross-lane interleave
    /// follows reap order).
    pub fn take_exec_log(&mut self) -> Vec<RequestId> {
        if self.config.exec_mode == ExecMode::Threaded {
            self.reap_lanes(None, false, &mut Vec::new());
        }
        std::mem::take(&mut self.exec_log)
    }

    /// A [`SecureBlockIo`] view of one session bound to one block device:
    /// the handle trustlets hold instead of a replayer.
    pub fn session_io(&mut self, session: SessionId, device: Device) -> SessionBlockIo<'_> {
        SessionBlockIo { service: self, session, device }
    }

    /// Apply one control request to lane `idx`: directly on the inline
    /// worker (sequential), or via the control mailbox (threaded) — the
    /// worker handles mailbox messages strictly **between batches**, never
    /// mid-replay, so these operations are safe against a lane thread
    /// actively draining its queue. The call blocks until the worker
    /// replies.
    fn lane_ctrl(&mut self, idx: usize, req: CtrlReq) -> Result<CtrlReply, ServeError> {
        let (reply, result) = mpsc::channel();
        if let Some(w) = self.lanes[idx].worker.as_mut() {
            w.handle_ctrl(CtrlMsg { req, reply });
        } else {
            self.lanes[idx]
                .ctrl_tx
                .send(CtrlMsg { req, reply })
                .map_err(|_| ServeError::Invalid(format!("lane {idx} thread exited")))?;
            self.lanes[idx].shared.unpark();
        }
        result
            .recv()
            .map_err(|_| ServeError::Invalid(format!("lane {idx} dropped the control reply")))?
    }

    /// The lane a control operation on `target` addresses: replica 0 of a
    /// device, or the pinned lane.
    fn control_lane(&self, target: impl Into<Target>) -> Result<usize, ServeError> {
        let id = target.into().lane_id();
        self.lane_of(id)
            .ok_or_else(|| ServeError::Invalid(format!("no replica lane {id} is served")))
    }

    /// Install a solver-driven device fault on `target`'s lane (replica 0
    /// of a device, or one pinned replica — the adversarial fault-storm
    /// experiments fault one replica and watch failover carry its
    /// traffic): every replay the lane runs from now on passes through a
    /// [`ConstraintFlipper`] following `plan` — it falsifies the targeted
    /// constraint with concolically solved register/DMA observations, so
    /// the lane behaves exactly like a misbehaving device at that point of
    /// the recorded trace. Returns the shared [`FlipOutcome`] handle the
    /// caller observes the campaign through. Replaces any previously
    /// installed fault. Safe mid-flight: a threaded lane installs the
    /// fault at its next batch boundary (never mid-replay), and this call
    /// waits for that hand-off.
    pub fn inject_fault(
        &mut self,
        target: impl Into<Target>,
        plan: FaultPlan,
    ) -> Result<Arc<Mutex<FlipOutcome>>, ServeError> {
        let idx = self.control_lane(target)?;
        let (flipper, outcome) = ConstraintFlipper::new(plan);
        self.lane_ctrl(idx, CtrlReq::SetMutator(Some(Box::new(flipper))))?;
        Ok(outcome)
    }

    /// Remove any fault installed on `target`'s lane; subsequent replays
    /// see the real device again. Same batch-boundary hand-off as
    /// [`DriverletService::inject_fault`].
    pub fn clear_fault(&mut self, target: impl Into<Target>) -> Result<(), ServeError> {
        let idx = self.control_lane(target)?;
        self.lane_ctrl(idx, CtrlReq::SetMutator(None)).map(|_| ())
    }

    /// Verify `target`'s lane is still serviceable — the post-divergence
    /// invariant the explore harness gates on. Block lanes write a pattern
    /// over the scratch probe extent at [`HEALTH_PROBE_BLKID`] and must
    /// read it back byte-identically; the camera lane must complete a
    /// one-frame capture. The probe goes straight at the lane replayer —
    /// no session, no queue — so a sick replayer cannot hide behind
    /// scheduling, and it **clobbers** the probe extent. On a threaded
    /// lane the probe runs on the lane thread between batches, so it never
    /// interleaves with a request's replay. Returns the lane's structured
    /// [`LaneHealth`] snapshot (queue depth, in-flight count, lifetime
    /// completion/divergence counters, last-activity host stamp) taken at
    /// the probe's batch boundary.
    ///
    /// Under supervision, a **passing** probe on a quarantined lane
    /// doubles as the operator-invoked recovery step: the lane moves to
    /// [`LaneState::Probation`] exactly as if the watchdog's own
    /// post-quarantine probe had passed, and the returned snapshot
    /// reflects the new state.
    pub fn lane_health_check(
        &mut self,
        target: impl Into<Target>,
    ) -> Result<LaneHealth, ServeError> {
        let idx = self.control_lane(target)?;
        match self.lane_ctrl(idx, CtrlReq::HealthCheck)? {
            CtrlReply::Health(mut health) => {
                if self.config.supervise.enabled && self.lane_state(idx) == LaneState::Quarantined {
                    self.enter_probation(idx);
                    health.state = LaneState::Probation;
                }
                Ok(health)
            }
            _ => Err(ServeError::Invalid("health check returned no health snapshot".into())),
        }
    }

    /// The flight recorder — live when [`ObsConfig::Full`], a disabled
    /// stub otherwise. Collectors call [`Recorder::drain`] /
    /// [`Recorder::dropped_events`] on it directly.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Drain the flight recorder and render it as Chrome `trace_event`
    /// JSON — one Perfetto track per registered lane thread. `None` unless
    /// the service runs [`ObsConfig::Full`].
    pub fn chrome_trace(&self) -> Option<String> {
        if !self.recorder.is_enabled() {
            return None;
        }
        let events = self.recorder.drain();
        Some(dlt_obs::trace::chrome_trace_json(&events, &self.recorder.track_names()))
    }

    /// A point-in-time snapshot of the metrics plane (per-lane counters
    /// and latency histograms, SMC-by-kind, per-session reconciliation
    /// counters). The counters are always live; the histograms stay empty
    /// under [`ObsConfig::Off`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

/// Each of `table`'s lanes' occupancy for placement: admitted in-flight
/// requests against the lane queue bound, or — `staged`, ring mode —
/// staged entries against the submission ring. A quarantined lane is
/// unavailable.
fn lane_loads<'a>(
    lanes: &'a [LaneFrontEnd],
    table: &'a [usize],
    staged: bool,
) -> impl Iterator<Item = LaneLoad> + 'a {
    table.iter().map(move |&idx| {
        let l = &lanes[idx];
        let available = LaneState::from_gauge(l.shared.metrics.state()) != LaneState::Quarantined;
        if staged {
            LaneLoad {
                depth: l.sq.len(),
                capacity: l.sq.depth(),
                high_water: l.sq.high_water(),
                available,
            }
        } else {
            LaneLoad {
                depth: l.shared.metrics.in_queue() as usize,
                capacity: l.shared.capacity,
                high_water: l.shared.metrics.occupancy_high_water() as usize,
                available,
            }
        }
    })
}

/// First block of the scratch extent [`DriverletService::lane_health_check`]
/// overwrites on block lanes (it stays clear of the low extents the tests
/// and workloads address).
pub const HEALTH_PROBE_BLKID: u32 = crate::lane::HEALTH_PROBE_BLKID;

/// A session-scoped block-IO handle (implements [`SecureBlockIo`], so the
/// trustlets in `dlt-trustlets` run over the shared service unchanged).
pub struct SessionBlockIo<'a> {
    service: &'a mut DriverletService,
    session: SessionId,
    device: Device,
}

impl SessionBlockIo<'_> {
    fn roundtrip(&mut self, req: Request) -> Result<Payload, dlt_core::ReplayError> {
        let invalid = |e: ServeError| dlt_core::ReplayError::Invalid(e.to_string());
        let id = self.service.submit(self.session, req).map_err(invalid)?;
        self.service.drain_all();
        let completion = self
            .service
            .take_completion(self.session, id)
            .ok_or_else(|| dlt_core::ReplayError::Invalid("completion lost".into()))?;
        completion.result.map_err(|e| match e {
            ServeError::Replay(r) => r,
            other => dlt_core::ReplayError::Invalid(other.to_string()),
        })
    }
}

impl SecureBlockIo for SessionBlockIo<'_> {
    fn read_blocks(
        &mut self,
        blkid: u32,
        blkcnt: u32,
        buf: &mut [u8],
    ) -> Result<(), dlt_core::ReplayError> {
        // Same contract as the bare-replayer implementation of this trait:
        // an undersized buffer is the caller's error, never a panic.
        if buf.len() < blkcnt as usize * BLOCK {
            return Err(dlt_core::ReplayError::Invalid(
                "buffer smaller than the requested blocks".into(),
            ));
        }
        let payload = self.roundtrip(Request::Read { device: self.device, blkid, blkcnt })?;
        match payload {
            Payload::Read(bytes) => {
                buf[..bytes.len()].copy_from_slice(&bytes);
                Ok(())
            }
            _ => Err(dlt_core::ReplayError::Invalid("unexpected payload".into())),
        }
    }

    fn write_blocks(&mut self, blkid: u32, data: &[u8]) -> Result<(), dlt_core::ReplayError> {
        self.roundtrip(Request::Write { device: self.device, blkid, data: data.to_vec() })
            .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::lane::IDLE_POLL;
    use crate::route::RoutePolicy;

    fn mmc_service(config: ServeConfig) -> DriverletService {
        DriverletService::new(&[Device::Mmc], config).expect("build service")
    }

    /// A replica fleet: `replicas` MMC lanes, every one loaded from the
    /// **same** recorded bundle (the replica premise: clean blocks read
    /// byte-identically fleet-wide).
    fn mmc_fleet(replicas: usize, config: ServeConfig) -> DriverletService {
        let bundle =
            record_mmc_driverlet_subset(&config.block_granularities).expect("record bundle");
        let bundles: Vec<(Device, dlt_template::Driverlet)> =
            (0..replicas).map(|_| (Device::Mmc, bundle.clone())).collect();
        DriverletService::with_driverlets(&bundles, config).expect("build fleet")
    }

    #[test]
    fn routed_writes_read_back_on_every_submit_mode() {
        // Deterministic placement is a data-consistency property here:
        // if a read could land on a different replica than the write
        // that produced its bytes, it would return the bundle's initial
        // content instead. Round-tripping six extents through a 3-replica
        // fleet on both submit paths is therefore the placement witness.
        let policy = RoutePolicy::HashShard { chunk_blocks: 16 };
        for mode in [SubmitMode::PerCall, SubmitMode::Ring] {
            let mut s = mmc_fleet(
                3,
                ServeConfig {
                    submit_mode: mode,
                    route: RouteConfig { policy, spill: true },
                    block_granularities: vec![1, 8],
                    ..ServeConfig::default()
                },
            );
            let sess = s.open_session().unwrap();
            let data = |e: u32| -> Vec<u8> {
                (0..8 * BLOCK).map(|i| ((i as u32 ^ (e * 37)) % 251) as u8).collect()
            };
            for extent in 0..6u32 {
                s.submit(
                    sess,
                    Request::Write { device: Device::Mmc, blkid: extent * 16, data: data(extent) },
                )
                .unwrap();
            }
            s.drain_all();
            s.take_completions(sess);
            let ids: Vec<RequestId> = (0..6u32)
                .map(|extent| {
                    s.submit(
                        sess,
                        Request::Read { device: Device::Mmc, blkid: extent * 16, blkcnt: 8 },
                    )
                    .unwrap()
                })
                .collect();
            s.drain_all();
            let done = s.take_completions(sess);
            assert_eq!(done.len(), 6);
            for (extent, id) in ids.iter().enumerate() {
                let c = done.iter().find(|c| c.id == *id).unwrap();
                match c.result.clone().expect("read ok") {
                    Payload::Read(bytes) => assert_eq!(
                        bytes,
                        data(extent as u32),
                        "the read of extent {extent} must land on the replica holding its write"
                    ),
                    other => panic!("unexpected payload {other:?}"),
                }
            }
            assert_eq!(s.stats().routed, 12, "every default submit went through the router");
            // The placement function actually spreads these extents.
            let homes: std::collections::HashSet<usize> =
                (0..6u32).map(|e| policy.replica_for(e * 16, 3)).collect();
            assert!(homes.len() >= 2, "six extents over three replicas must share the work");
        }
    }

    #[test]
    fn striped_span_fans_out_and_reassembles_byte_identically() {
        for mode in [SubmitMode::PerCall, SubmitMode::Ring] {
            let mut s = mmc_fleet(
                3,
                ServeConfig {
                    submit_mode: mode,
                    coalesce: false,
                    hold_budget_ns: 0,
                    route: RouteConfig {
                        policy: RoutePolicy::Stripe { stripe_blocks: 8 },
                        spill: true,
                    },
                    block_granularities: vec![1, 8],
                    ..ServeConfig::default()
                },
            );
            let sess = s.open_session().unwrap();
            let data: Vec<u8> = (0..24 * BLOCK).map(|i| (i % 241) as u8).collect();
            let w = s
                .submit(sess, Request::Write { device: Device::Mmc, blkid: 0, data: data.clone() })
                .unwrap();
            let done = s.drain_all();
            assert_eq!(done.len(), 1, "members reassemble: the session sees one completion");
            assert_eq!(done[0].id, w);
            match done[0].result.clone().expect("write ok") {
                Payload::Written { blocks } => assert_eq!(blocks, 24),
                other => panic!("unexpected payload {other:?}"),
            }
            let r = s
                .submit(sess, Request::Read { device: Device::Mmc, blkid: 0, blkcnt: 24 })
                .unwrap();
            let done = s.drain_all();
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].id, r);
            assert!(done[0].completed_ns >= done[0].submitted_ns);
            match done[0].result.clone().expect("read ok") {
                Payload::Read(bytes) => {
                    assert_eq!(bytes, data, "stripe reassembly must be offset-ordered")
                }
                other => panic!("unexpected payload {other:?}"),
            }
            let st = s.stats();
            assert_eq!(st.stripe_fanouts, 2);
            assert_eq!(st.stripe_parts, 6, "24 blocks over 8-block stripes hit all 3 replicas");
            assert_eq!(st.routed, 2);
            assert_eq!(s.take_exec_log().len(), 6, "the exec log records the member executions");
        }
    }

    #[test]
    fn saturated_home_spills_clean_reads_and_writes_see_the_fleet() {
        // Blocks 0..=255 share chunk 0, hence one home replica.
        let mut s = mmc_fleet(
            2,
            ServeConfig {
                queue_capacity: 2,
                coalesce: false,
                hold_budget_ns: 0,
                route: RouteConfig {
                    policy: RoutePolicy::HashShard { chunk_blocks: 256 },
                    spill: true,
                },
                block_granularities: vec![1, 8],
                ..ServeConfig::default()
            },
        );
        let sess = s.open_session().unwrap();
        let rd = |i: u32| Request::Read { device: Device::Mmc, blkid: i, blkcnt: 1 };
        s.submit(sess, rd(0)).unwrap();
        s.submit(sess, rd(1)).unwrap();
        // The home lane is saturated: the third (clean) read sheds to the
        // sibling instead of failing.
        s.submit(sess, rd(2)).unwrap();
        assert_eq!(s.stats().route_spills, 1);
        // A write may never spill (the sibling would silently diverge):
        // typed backpressure carrying the whole fleet's depths, so the
        // caller can tell one hot shard from a saturated fleet.
        match s.submit(sess, Request::Write { device: Device::Mmc, blkid: 3, data: vec![9; BLOCK] })
        {
            Err(ServeError::QueueFull { fleet, .. }) => {
                assert_eq!(fleet.len(), 2, "the reject reports every replica's depth");
                assert_eq!(fleet.iter().map(|f| f.depth).sum::<usize>(), 3);
                assert!(fleet.iter().all(|f| f.capacity == 2));
            }
            other => panic!("expected fleet-view backpressure, got {other:?}"),
        }
        assert_eq!(s.stats().rejected, 1);
        let done = s.drain_all();
        assert_eq!(done.len(), 3);
        assert!(done.iter().all(|c| c.result.is_ok()), "the spilled read reads clean bytes");
    }

    #[test]
    fn lane_ids_address_the_fleet() {
        let mut s = mmc_fleet(2, ServeConfig::quick());
        assert_eq!(s.replica_count(Device::Mmc), 2);
        assert_eq!(s.replica_count(Device::Usb), 0);
        assert_eq!(s.lane_id(1), Some(LaneId { device: Device::Mmc, replica: 1 }));
        assert_eq!(s.lane_of(LaneId { device: Device::Mmc, replica: 1 }), Some(1));
        assert_eq!(s.lane_of(LaneId { device: Device::Mmc, replica: 2 }), None);
        let sess = s.open_session().unwrap();
        let id = s
            .submit_to(
                LaneId { device: Device::Mmc, replica: 1 },
                sess,
                Request::Read { device: Device::Mmc, blkid: 5, blkcnt: 1 },
            )
            .unwrap();
        let done = s.drain_all();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(s.stats().routed, 0, "explicit lane addressing bypasses the router");
        assert!(matches!(
            s.submit_to(
                LaneId { device: Device::Usb, replica: 0 },
                sess,
                Request::Read { device: Device::Usb, blkid: 5, blkcnt: 1 },
            ),
            Err(ServeError::Invalid(_))
        ));
    }

    #[test]
    fn sessions_are_admitted_and_bounded() {
        let mut s = mmc_service(ServeConfig {
            max_sessions: 2,
            block_granularities: vec![1],
            ..ServeConfig::default()
        });
        let a = s.open_session().unwrap();
        let b = s.open_session().unwrap();
        assert_ne!(a, b);
        assert!(matches!(s.open_session(), Err(ServeError::SessionLimit { max: 2 })));
        s.close_session(a);
        assert_eq!(s.session_count(), 1);
        let _c = s.open_session().unwrap();
        // Submitting into a closed session fails.
        assert!(matches!(
            s.submit(a, Request::Read { device: Device::Mmc, blkid: 0, blkcnt: 1 }),
            Err(ServeError::InvalidSession(_))
        ));
        assert!(s.smc_calls() >= 3, "admission must cross the world boundary");
    }

    #[test]
    fn queue_full_is_backpressure_not_growth() {
        let mut s = mmc_service(ServeConfig {
            queue_capacity: 2,
            block_granularities: vec![1],
            ..ServeConfig::default()
        });
        let sess = s.open_session().unwrap();
        let rd = |i: u32| Request::Read { device: Device::Mmc, blkid: i, blkcnt: 1 };
        s.submit(sess, rd(0)).unwrap();
        s.submit(sess, rd(1)).unwrap();
        assert!(matches!(s.submit(sess, rd(2)), Err(ServeError::QueueFull { .. })));
        assert_eq!(s.stats().rejected, 1);
        // After a drain the queue has room again.
        let done = s.drain_all();
        assert_eq!(done.len(), 2);
        s.submit(sess, rd(2)).unwrap();
        assert_eq!(s.drain_all().len(), 1);
    }

    #[test]
    fn write_then_read_round_trips_through_two_sessions() {
        let mut s =
            mmc_service(ServeConfig { block_granularities: vec![1, 8], ..ServeConfig::default() });
        let writer = s.open_session().unwrap();
        let reader = s.open_session().unwrap();
        let data: Vec<u8> = (0..8 * BLOCK).map(|i| (i % 251) as u8).collect();
        s.submit(writer, Request::Write { device: Device::Mmc, blkid: 64, data: data.clone() })
            .unwrap();
        s.submit(reader, Request::Read { device: Device::Mmc, blkid: 64, blkcnt: 8 }).unwrap();
        let done = s.drain_all();
        assert_eq!(done.len(), 2);
        let read = s.take_completions(reader).pop().expect("reader completion");
        match read.result.expect("read ok") {
            Payload::Read(bytes) => assert_eq!(bytes, data),
            other => panic!("unexpected payload {other:?}"),
        }
        assert!(read.completed_ns >= read.submitted_ns);
    }

    #[test]
    fn adjacent_single_block_reads_coalesce_into_one_replay() {
        let mut s =
            mmc_service(ServeConfig { block_granularities: vec![1, 8], ..ServeConfig::default() });
        let sessions: Vec<SessionId> = (0..8).map(|_| s.open_session().unwrap()).collect();
        for (i, sess) in sessions.iter().enumerate() {
            s.submit(
                *sess,
                Request::Read { device: Device::Mmc, blkid: 100 + i as u32, blkcnt: 1 },
            )
            .unwrap();
        }
        let r0 = s.stats().replays;
        let done = s.drain_all();
        assert_eq!(done.len(), 8);
        assert!(done.iter().all(|c| c.coalesced), "all eight reads rode one merged span");
        assert_eq!(s.stats().replays - r0, 1, "one rd_8 replay served all eight requests");
        assert!(s.stats().coalescing_ratio() > 1.0);
    }

    #[test]
    fn merged_reads_return_byte_identical_buffers_to_unmerged_ones() {
        // The same overlapping read mix, coalescing on vs off: every
        // completion payload must match byte for byte.
        let run = |coalesce: bool| -> Vec<(RequestId, Vec<u8>)> {
            let mut s = mmc_service(ServeConfig {
                coalesce,
                block_granularities: vec![1, 8],
                ..ServeConfig::default()
            });
            let writer = s.open_session().unwrap();
            let data: Vec<u8> = (0..32 * BLOCK).map(|i| (i % 253) as u8).collect();
            s.submit(writer, Request::Write { device: Device::Mmc, blkid: 96, data }).unwrap();
            s.drain_all();
            let readers: Vec<SessionId> = (0..4).map(|_| s.open_session().unwrap()).collect();
            // Overlapping and adjacent extents across four sessions.
            for (i, (blkid, blkcnt)) in
                [(96u32, 8u32), (100, 8), (104, 8), (112, 16)].iter().enumerate()
            {
                s.submit(
                    readers[i],
                    Request::Read { device: Device::Mmc, blkid: *blkid, blkcnt: *blkcnt },
                )
                .unwrap();
            }
            let mut out: Vec<(RequestId, Vec<u8>)> = s
                .drain_all()
                .into_iter()
                .map(|c| match c.result.expect("read ok") {
                    Payload::Read(bytes) => (c.id, bytes),
                    other => panic!("unexpected payload {other:?}"),
                })
                .collect();
            out.sort_by_key(|(id, _)| *id);
            out
        };
        let merged = run(true);
        let unmerged = run(false);
        assert_eq!(merged.len(), unmerged.len());
        for ((id_m, bytes_m), (id_u, bytes_u)) in merged.iter().zip(&unmerged) {
            assert_eq!(id_m, id_u);
            assert_eq!(bytes_m, bytes_u, "request {id_m}: merged read diverged from unmerged");
        }
    }

    #[test]
    fn uncoalesced_baseline_issues_one_replay_per_request() {
        let mut s = mmc_service(ServeConfig {
            coalesce: false,
            block_granularities: vec![1, 8],
            ..ServeConfig::default()
        });
        let sess = s.open_session().unwrap();
        for i in 0..4u32 {
            s.submit(sess, Request::Read { device: Device::Mmc, blkid: 200 + i, blkcnt: 1 })
                .unwrap();
        }
        let done = s.drain_all();
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|c| !c.coalesced));
        assert_eq!(s.stats().replays, 4);
    }

    #[test]
    fn unserved_devices_and_bad_requests_fail_fast() {
        let mut s =
            mmc_service(ServeConfig { block_granularities: vec![1], ..ServeConfig::default() });
        let sess = s.open_session().unwrap();
        assert!(matches!(
            s.submit(sess, Request::Capture { frames: 1, resolution: 720 }),
            Err(ServeError::DeviceNotServed(Device::Vchiq))
        ));
        assert!(matches!(
            s.submit(sess, Request::Read { device: Device::Mmc, blkid: 0, blkcnt: 0 }),
            Err(ServeError::Invalid(_))
        ));
        assert!(matches!(
            s.submit(sess, Request::Write { device: Device::Mmc, blkid: 0, data: vec![1, 2, 3] }),
            Err(ServeError::Invalid(_))
        ));
    }

    #[test]
    fn merged_span_failure_falls_back_to_member_outcomes() {
        // An in-coverage read merged with an out-of-coverage neighbour must
        // still succeed — exactly what serial execution would produce.
        let mut s =
            mmc_service(ServeConfig { block_granularities: vec![1], ..ServeConfig::default() });
        let a = s.open_session().unwrap();
        let b = s.open_session().unwrap();
        let last = (dlt_dev_mmc::CARD_BLOCKS - 1) as u32;
        let good =
            s.submit(a, Request::Read { device: Device::Mmc, blkid: last, blkcnt: 1 }).unwrap();
        let bad =
            s.submit(b, Request::Read { device: Device::Mmc, blkid: last + 1, blkcnt: 1 }).unwrap();
        let done = s.drain_all();
        assert_eq!(done.len(), 2);
        let by_id = |id| done.iter().find(|c| c.id == id).unwrap();
        assert!(by_id(good).result.is_ok(), "the in-coverage member must not inherit the error");
        assert!(matches!(by_id(bad).result, Err(ServeError::Replay(_))));
    }

    #[test]
    fn oversized_and_overflowing_requests_are_rejected_at_submit() {
        let mut s =
            mmc_service(ServeConfig { block_granularities: vec![1], ..ServeConfig::default() });
        let sess = s.open_session().unwrap();
        assert!(matches!(
            s.submit(sess, Request::Read { device: Device::Mmc, blkid: u32::MAX, blkcnt: 2 }),
            Err(ServeError::Invalid(_))
        ));
        assert!(matches!(
            s.submit(
                sess,
                Request::Read {
                    device: Device::Mmc,
                    blkid: 0,
                    blkcnt: crate::MAX_REQUEST_BLOCKS + 1
                }
            ),
            Err(ServeError::Invalid(_))
        ));
    }

    #[test]
    fn drain_yields_one_batch_per_call() {
        // Hold disabled: the first read dispatches alone the instant it
        // arrived; the two that arrived while it was in flight form the
        // second batch. Each drain() call yields exactly one batch.
        let mut s = mmc_service(ServeConfig {
            hold_budget_ns: 0,
            block_granularities: vec![1, 8],
            ..ServeConfig::default()
        });
        let sess = s.open_session().unwrap();
        for i in 0..3u32 {
            s.submit(sess, Request::Read { device: Device::Mmc, blkid: 300 + i, blkcnt: 1 })
                .unwrap();
        }
        let first = s.drain_all();
        // drain_all is drain() to quiescence; redo the same traffic with
        // per-step drains to observe the batching.
        assert_eq!(first.len(), 3);
        // Observe the completions so the client's next submits are stamped
        // after the lane's current time (a closed-loop client).
        s.take_completions(sess);
        for i in 0..3u32 {
            s.submit(sess, Request::Read { device: Device::Mmc, blkid: 300 + i, blkcnt: 1 })
                .unwrap();
        }
        let step1 = s.drain();
        let step2 = s.drain();
        let step3 = s.drain();
        assert_eq!(step1.len(), 1, "the first arrival dispatches alone");
        assert_eq!(step2.len(), 2, "arrivals during service batch together");
        assert!(step3.is_empty(), "an empty vector signals quiescence");
    }

    #[test]
    fn a_threaded_drain_is_signalled_per_edge_not_per_request() {
        // One request per batch. Completions leave the lane through its
        // unbounded completion channel, which raises no edge of its own,
        // so the only edge a drain can see is the lane's in-flight count
        // reaching zero.
        let mut s = mmc_service(ServeConfig {
            exec_mode: ExecMode::Threaded,
            queue_capacity: 64,
            coalesce_window: 1,
            hold_budget_ns: 0,
            block_granularities: vec![1],
            ..ServeConfig::default()
        });
        let sess = s.open_session().unwrap();
        for i in 0..64u32 {
            s.submit(sess, Request::Read { device: Device::Mmc, blkid: 2 * i, blkcnt: 1 }).unwrap();
        }
        let before = s.drain_signal.sent();
        assert_eq!(s.drain_all().len(), 64);
        let during = s.drain_signal.sent() - before;
        assert!(during <= 1, "the drain was signalled {during} times, not once at quiescence");
        // Before the drain, the lane signals only when it catches up with
        // the submitter, never once per request.
        let total = s.drain_signal.sent();
        assert!(total <= 16, "64 requests raised {total} drain signals");
    }

    #[test]
    fn an_idle_polling_lane_serves_control_and_shutdown_from_the_poll() {
        // Right after a drain the lane thread is inside its idle poll. A
        // health check or a shutdown sent then must be served at the next
        // poll, not after the window: at best it costs no more than the
        // same call on a lane that already parked and must be woken. On a
        // busy host a polling lane can wait a scheduler slice for the CPU
        // that a woken one gets at once, so the best times accumulate over
        // up to three rounds of eight tries; a lane that waits out the
        // window is slower on every try and fails all three.
        let bundle = record_mmc_driverlet_subset(&[1]).expect("record bundle");
        let config = ServeConfig {
            exec_mode: ExecMode::Threaded,
            block_granularities: vec![1],
            ..ServeConfig::default()
        };
        let read = |blkid| Request::Read { device: Device::Mmc, blkid, blkcnt: 1 };
        // One try of each kind: [polling, parked] times of a health check
        // and of a shutdown.
        let try_once = |slot: usize| {
            let settle = || {
                if slot == 1 {
                    std::thread::sleep(4 * IDLE_POLL);
                }
            };
            let mut s =
                DriverletService::with_driverlets(&[(Device::Mmc, bundle.clone())], config.clone())
                    .expect("build service");
            let sess = s.open_session().unwrap();
            s.submit(sess, read(7)).unwrap();
            assert_eq!(s.drain_all().len(), 1);
            settle();
            let t = Instant::now();
            s.lane_health_check(Device::Mmc).expect("health check");
            let check = t.elapsed();
            s.submit(sess, read(9)).unwrap();
            assert_eq!(s.drain_all().len(), 1);
            settle();
            let t = Instant::now();
            drop(s);
            (check, t.elapsed())
        };
        let mut check = [Duration::MAX; 2];
        let mut shutdown = [Duration::MAX; 2];
        let served_from_the_poll = |check: [Duration; 2], shutdown: [Duration; 2]| {
            [check, shutdown].iter().all(|&[polling, parked]| polling < parked + IDLE_POLL / 2)
        };
        for _round in 0..3 {
            for _ in 0..8 {
                for slot in 0..2 {
                    let (c, d) = try_once(slot);
                    check[slot] = check[slot].min(c);
                    shutdown[slot] = shutdown[slot].min(d);
                }
            }
            if served_from_the_poll(check, shutdown) {
                return;
            }
        }
        for (what, [polling, parked]) in [("health check", check), ("shutdown", shutdown)] {
            assert!(
                polling < parked + IDLE_POLL / 2,
                "{what} on an idle-polling lane took {polling:?} against {parked:?} on a parked \
                 one: it waited out the {IDLE_POLL:?} poll window"
            );
        }
    }

    #[test]
    fn anticipatory_hold_merges_one_sessions_stream_and_is_counted() {
        let mut s =
            mmc_service(ServeConfig { block_granularities: vec![1, 8], ..ServeConfig::default() });
        let sess = s.open_session().unwrap();
        for i in 0..8u32 {
            s.submit(sess, Request::Read { device: Device::Mmc, blkid: 400 + i, blkcnt: 1 })
                .unwrap();
        }
        let r0 = s.stats().replays;
        let done = s.drain_all();
        assert_eq!(done.len(), 8);
        assert_eq!(s.stats().replays - r0, 1, "the held window folds the stream into one rd_8");
        assert!(s.stats().holds >= 1, "the plug engaged");
        assert_eq!(s.stats().early_unplugs, 0, "nothing forced an early unplug");
    }

    #[test]
    fn camera_bursts_do_not_stall_the_mmc_lane() {
        // The multi-core acceptance scenario in miniature: a capture takes
        // seconds of VCHIQ-lane time, but block completions ride the MMC
        // lane's own clock and stay in the sub-millisecond range.
        let mut s = DriverletService::new(
            &[Device::Mmc, Device::Vchiq],
            ServeConfig { block_granularities: vec![1, 8], ..ServeConfig::default() },
        )
        .expect("build service");
        let cam = s.open_session().unwrap();
        let blk = s.open_session().unwrap();
        s.submit(cam, Request::Capture { frames: 1, resolution: 720 }).unwrap();
        for i in 0..8u32 {
            s.submit(blk, Request::Read { device: Device::Mmc, blkid: 500 + i, blkcnt: 1 })
                .unwrap();
        }
        let done = s.drain_all();
        assert_eq!(done.len(), 9);
        let mut cap_latency = 0;
        for c in &done {
            c.result.as_ref().expect("all requests in coverage");
            match c.device {
                Device::Vchiq => cap_latency = c.latency_ns(),
                _ => assert!(
                    c.latency_ns() < 5_000_000,
                    "block read must not queue behind the capture (latency {} ns)",
                    c.latency_ns()
                ),
            }
        }
        assert!(cap_latency > 1_000_000_000, "the capture itself takes seconds");
        // The merge rule: service time is the max over lanes, i.e. the
        // camera lane here; the MMC lane's own clock stays far behind.
        let status = s.lane_status();
        let vchiq = status.iter().find(|l| l.device == Device::Vchiq).unwrap();
        let mmc = status.iter().find(|l| l.device == Device::Mmc).unwrap();
        assert_eq!(s.now_ns(), vchiq.now_ns, "service time joins to the furthest lane");
        assert!(vchiq.now_ns > mmc.now_ns, "lane clocks advance independently");
        assert!(mmc.busy_ns <= mmc.now_ns, "a lane cannot be busy longer than it has run");
    }

    #[test]
    fn drain_device_flushes_only_the_saturated_lane() {
        let mut s = DriverletService::new(
            &[Device::Mmc, Device::Usb],
            ServeConfig { block_granularities: vec![1, 8], ..ServeConfig::default() },
        )
        .expect("build service");
        let sess = s.open_session().unwrap();
        s.submit(sess, Request::Read { device: Device::Mmc, blkid: 10, blkcnt: 1 }).unwrap();
        s.submit(sess, Request::Read { device: Device::Usb, blkid: 10, blkcnt: 1 }).unwrap();
        let usb_only = s.drain_device(Device::Usb);
        assert_eq!(usb_only.len(), 1);
        assert!(usb_only.iter().all(|c| c.device == Device::Usb));
        let rest = s.drain_all();
        assert_eq!(rest.len(), 1);
        assert!(rest.iter().all(|c| c.device == Device::Mmc), "the MMC lane kept its queue");
    }

    #[test]
    fn client_think_time_spaces_arrivals() {
        let mut s =
            mmc_service(ServeConfig { block_granularities: vec![1], ..ServeConfig::default() });
        let sess = s.open_session().unwrap();
        let a = s.submit(sess, Request::Read { device: Device::Mmc, blkid: 1, blkcnt: 1 }).unwrap();
        s.client_think_ns(5_000_000);
        let b = s.submit(sess, Request::Read { device: Device::Mmc, blkid: 2, blkcnt: 1 }).unwrap();
        let done = s.drain_all();
        let at = |id| done.iter().find(|c| c.id == id).unwrap().submitted_ns;
        assert!(at(b) >= at(a) + 5_000_000, "think time separates the arrival stamps");
    }

    fn ring_config() -> ServeConfig {
        ServeConfig {
            submit_mode: SubmitMode::Ring,
            block_granularities: vec![1, 8],
            ..ServeConfig::default()
        }
    }

    /// Run `op` and report the one SMC kind it charged (if any) and how far
    /// it moved the control clock.
    fn charged(
        s: &mut DriverletService,
        op: impl FnOnce(&mut DriverletService),
    ) -> (Option<dlt_obs::trace::SmcKind>, u64) {
        use dlt_obs::trace::SmcKind;
        let smc = s.metrics.smc();
        let before: Vec<u64> = SmcKind::ALL.iter().map(|&k| smc.calls(k)).collect();
        let t0 = s.control_now_ns();
        op(s);
        let grown: Vec<SmcKind> = SmcKind::ALL
            .iter()
            .zip(before)
            .filter(|(&k, b)| smc.calls(k) > *b)
            .map(|(&k, b)| {
                assert_eq!(smc.calls(k), b + 1, "at most one world switch per operation");
                k
            })
            .collect();
        assert!(grown.len() <= 1, "one operation charged several SMC kinds: {grown:?}");
        (grown.first().copied(), s.control_now_ns() - t0)
    }

    /// Move the control clock past every lane clock, so a reap's
    /// observation fast-forward is a no-op and only its charge shows.
    fn observe_everything(s: &mut DriverletService) {
        let lag = s.now_ns() - s.control_now_ns();
        s.client_think_ns(lag + 1);
    }

    #[test]
    fn charge_table_prices_each_world_switch_exactly() {
        use dlt_obs::trace::SmcKind;
        let cost = dlt_hw::CostModel::default();
        let invoke = cost.world_switch_ns + cost.smc_invoke_ns;
        let rd = |b: u32| Request::Read { device: Device::Mmc, blkid: b, blkcnt: 1 };
        for mode in [SubmitMode::PerCall, SubmitMode::Ring] {
            let per_call = mode == SubmitMode::PerCall;
            let mut s = mmc_service(ServeConfig {
                submit_mode: mode,
                cq_depth: 2,
                obs: ObsConfig::MetricsOnly,
                block_granularities: vec![1],
                ..ServeConfig::default()
            });
            let sess = s.open_session().unwrap();

            let submit = charged(&mut s, |s| {
                s.submit(sess, rd(1)).unwrap();
            });
            let expect = if per_call { (Some(SmcKind::Invoke), invoke) } else { (None, 0) };
            assert_eq!(submit, expect, "{mode:?} submit");

            s.drain_all();
            observe_everything(&mut s);
            let waiting = charged(&mut s, |s| assert_eq!(s.take_completions(sess).len(), 1));
            assert_eq!(waiting, expect, "{mode:?} reap with completions waiting");

            let empty = charged(&mut s, |s| assert!(s.take_completions(sess).is_empty()));
            let blocking = if per_call {
                (SmcKind::Invoke, invoke)
            } else {
                (SmcKind::Yield, cost.world_switch_ns)
            };
            assert_eq!(empty, (Some(blocking.0), blocking.1), "{mode:?} empty reap");

            let overflows = s.stats().cq_overflows;
            for b in 0..3 {
                s.submit(sess, rd(b)).unwrap();
            }
            s.drain_all();
            assert_eq!(s.stats().cq_overflows, overflows + 1, "a depth-2 CQ overflows once");
            observe_everything(&mut s);
            let flush = charged(&mut s, |s| assert_eq!(s.take_completions(sess).len(), 3));
            assert_eq!(flush, (Some(blocking.0), blocking.1), "{mode:?} reap after CQ overflow");

            // Five ring submits leave exactly five entries for one
            // doorbell; per-call submits were each doorbelled at once, so
            // an explicit doorbell finds nothing and charges nothing.
            for b in 0..5 {
                s.submit(sess, rd(b)).unwrap();
            }
            let staged = if per_call { 0 } else { 5 };
            let doorbell = charged(&mut s, |s| assert_eq!(s.ring_doorbell().unwrap(), staged));
            let expect = if per_call {
                (None, 0)
            } else {
                (Some(SmcKind::Doorbell), cost.ring_doorbell_ns + 5 * cost.ring_entry_validate_ns)
            };
            assert_eq!(doorbell, expect, "{mode:?} doorbell of {staged} entries");
        }
    }

    #[test]
    fn a_session_io_round_trip_takes_only_its_own_completion() {
        use dlt_obs::trace::SmcKind;
        let cost = dlt_hw::CostModel::default();
        for mode in [SubmitMode::PerCall, SubmitMode::Ring] {
            let per_call = mode == SubmitMode::PerCall;
            let mut s = mmc_service(ServeConfig { submit_mode: mode, ..ServeConfig::quick() });
            let sess = s.open_session().unwrap();
            let first =
                s.submit(sess, Request::Read { device: Device::Mmc, blkid: 8, blkcnt: 1 }).unwrap();
            let calls = |s: &DriverletService| {
                let smc = s.metrics.smc();
                SmcKind::ALL.map(|k| smc.calls(k))
            };
            let before = calls(&s);
            let mut buf = vec![0u8; BLOCK];
            s.session_io(sess, Device::Mmc).read_blocks(16, 1, &mut buf).unwrap();
            // Submit and reap each cost one invoke per call; in ring mode
            // the drain's doorbell is the round trip's only switch.
            let grown: Vec<u64> = calls(&s).iter().zip(before).map(|(a, b)| a - b).collect();
            let expect = |k: SmcKind| match (per_call, k) {
                (true, SmcKind::Invoke) => 2,
                (false, SmcKind::Doorbell) => 1,
                _ => 0,
            };
            assert_eq!(grown, SmcKind::ALL.map(expect), "{mode:?} round-trip charges");

            // The earlier submit's completion is still queued, and the
            // round trip already observed past its stamp: reaping it is
            // an ordinary reap that does not move the control clock.
            let rest = charged(&mut s, |s| {
                let rest = s.take_completions(sess);
                assert_eq!(rest.iter().map(|c| c.id).collect::<Vec<_>>(), [first], "{mode:?}");
                assert!(rest[0].result.is_ok());
            });
            let invoke = cost.world_switch_ns + cost.smc_invoke_ns;
            let reap = if per_call { (Some(SmcKind::Invoke), invoke) } else { (None, 0) };
            assert_eq!(rest, reap, "{mode:?} reap of the remaining completion");
        }
    }

    #[test]
    fn doorbell_admits_a_whole_batch_in_one_world_switch() {
        let mut s = mmc_service(ring_config());
        let sess = s.open_session().unwrap();
        let smc0 = s.smc_calls();
        for i in 0..16u32 {
            s.submit(sess, Request::Read { device: Device::Mmc, blkid: 600 + i, blkcnt: 1 })
                .unwrap();
        }
        assert_eq!(s.smc_calls(), smc0, "staging 16 entries must not enter the TEE");
        let admitted = s.ring_doorbell().unwrap();
        assert_eq!(admitted, 16);
        assert_eq!(s.smc_calls() - smc0, 1, "one doorbell switch admits the whole batch");
        assert_eq!(s.smc_doorbells(), 1);
        let done = s.drain_all();
        assert_eq!(done.len(), 16);
        // Reaping a non-empty completion ring is SMC-free.
        let before = s.smc_calls();
        let taken = s.take_completions(sess);
        assert_eq!(taken.len(), 16);
        assert_eq!(s.smc_calls(), before, "a non-empty CQ reap never crosses worlds");
        // An empty reap is a blocking wait: one world switch.
        s.take_completions(sess);
        assert_eq!(s.smc_calls(), before + 1);
        assert_eq!(s.stats().doorbells, 1);
        assert_eq!(s.stats().doorbell_entries, 16);
        assert!((s.stats().mean_doorbell_batch() - 16.0).abs() < f64::EPSILON);
    }

    #[test]
    fn sq_ring_full_is_typed_backpressure_not_a_silent_drop() {
        // The satellite regression test: a full submission ring surfaces
        // as the same typed QueueFull error the lane queue uses, carrying
        // the device, the ring depth and its capacity.
        let mut s = mmc_service(ServeConfig { sq_depth: 2, ..ring_config() });
        let sess = s.open_session().unwrap();
        let rd = |i: u32| Request::Read { device: Device::Mmc, blkid: 700 + i, blkcnt: 1 };
        s.submit(sess, rd(0)).unwrap();
        s.submit(sess, rd(1)).unwrap();
        match s.submit(sess, rd(2)) {
            Err(ServeError::QueueFull { device, depth, capacity, high_water, fleet }) => {
                assert_eq!(device, Device::Mmc);
                assert_eq!(depth, 2);
                assert_eq!(capacity, 2);
                assert_eq!(high_water, 2, "the ring saturated at its full depth");
                assert_eq!(fleet.len(), 1, "the routed reject reports the whole (1-lane) fleet");
            }
            other => panic!("expected ring-full backpressure, got {other:?}"),
        }
        assert_eq!(s.stats().rejected, 1);
        // Nothing staged was lost: a doorbell + drain completes exactly
        // the two accepted requests, and the ring has room again.
        let done = s.drain_all();
        assert_eq!(done.len(), 2);
        s.submit(sess, rd(2)).unwrap();
        assert_eq!(s.drain_all().len(), 1);
        assert_eq!(s.stats().submitted, 3);
    }

    #[test]
    fn doorbell_lane_overflow_completes_with_queue_full_errors() {
        // The lane queue (not the ring) is the saturated bound: admitted
        // entries that do not fit complete with a typed error in the
        // session's CQ instead of disappearing.
        let mut s = mmc_service(ServeConfig { queue_capacity: 1, sq_depth: 4, ..ring_config() });
        let sess = s.open_session().unwrap();
        for i in 0..3u32 {
            s.submit(sess, Request::Read { device: Device::Mmc, blkid: 710 + i, blkcnt: 1 })
                .unwrap();
        }
        assert_eq!(s.ring_doorbell().unwrap(), 3);
        assert_eq!(s.stats().rejected, 2);
        let done = s.drain_all();
        assert_eq!(done.len(), 1, "only the admitted request executes");
        let taken = s.take_completions(sess);
        assert_eq!(taken.len(), 3, "rejected entries still surface to the client");
        let errors =
            taken.iter().filter(|c| matches!(c.result, Err(ServeError::QueueFull { .. }))).count();
        assert_eq!(errors, 2);
    }

    #[test]
    fn ring_and_per_call_submits_produce_identical_payloads() {
        // The same write-then-read program down both submission paths
        // must read back byte-identical data.
        let run = |mode: SubmitMode| -> Vec<u8> {
            let mut s = mmc_service(ServeConfig { submit_mode: mode, ..ring_config() });
            let sess = s.open_session().unwrap();
            let data: Vec<u8> = (0..8 * BLOCK).map(|i| (i % 249) as u8).collect();
            s.submit(sess, Request::Write { device: Device::Mmc, blkid: 800, data }).unwrap();
            s.submit(sess, Request::Read { device: Device::Mmc, blkid: 800, blkcnt: 8 }).unwrap();
            let done = s.drain_all();
            assert_eq!(done.len(), 2);
            let read = s.take_completions(sess).pop().expect("read completion");
            match read.result.expect("read ok") {
                Payload::Read(bytes) => bytes,
                other => panic!("unexpected payload {other:?}"),
            }
        };
        assert_eq!(run(SubmitMode::Ring), run(SubmitMode::PerCall));
    }

    #[test]
    fn ring_latency_includes_the_wait_for_the_doorbell() {
        // Entries are stamped at enqueue but only become servable at the
        // doorbell: completed >= arrived-at-doorbell >= submitted.
        let mut s = mmc_service(ring_config());
        let sess = s.open_session().unwrap();
        s.submit(sess, Request::Read { device: Device::Mmc, blkid: 900, blkcnt: 1 }).unwrap();
        let staged_at = s.control_now_ns();
        s.client_think_ns(2_000_000); // the client dawdles before ringing
        s.ring_doorbell().unwrap();
        let done = s.drain_all();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].submitted_ns, staged_at, "latency counts from the enqueue");
        assert!(
            done[0].completed_ns >= staged_at + 2_000_000,
            "the lane cannot serve an entry the TEE has not seen"
        );
    }

    #[test]
    fn mid_coalesce_divergence_fails_only_the_merged_sessions_and_lane_recovers() {
        use dlt_core::ReplayError;
        let config = || ServeConfig { block_granularities: vec![1, 8], ..ServeConfig::default() };
        let seed: Vec<u8> = (0..16 * BLOCK).map(|i| (i % 241) as u8).collect();
        // A never-faulted reference service running the same seed write
        // and the same final read.
        let mut fresh = mmc_service(config());
        let fw = fresh.open_session().unwrap();
        fresh
            .submit(fw, Request::Write { device: Device::Mmc, blkid: 100, data: seed.clone() })
            .unwrap();
        fresh.drain_all();

        let mut s = mmc_service(config());
        let writer = s.open_session().unwrap();
        s.submit(writer, Request::Write { device: Device::Mmc, blkid: 100, data: seed.clone() })
            .unwrap();
        s.drain_all();

        // Sticky read-template fault: the merged span diverges, and so
        // does every member fallback — the whole coalesced run must fail
        // with typed divergences, never a panic or a wedged lane.
        let outcome = s
            .inject_fault(
                Device::Mmc,
                FaultPlan { template: Some("_rd_".into()), sticky: true, ..FaultPlan::default() },
            )
            .unwrap();
        let victims: Vec<SessionId> = (0..4).map(|_| s.open_session().unwrap()).collect();
        for (i, v) in victims.iter().enumerate() {
            s.submit(
                *v,
                Request::Read { device: Device::Mmc, blkid: 100 + 2 * i as u32, blkcnt: 2 },
            )
            .unwrap();
        }
        let failed = s.drain_all();
        assert_eq!(failed.len(), 4);
        for c in &failed {
            assert!(
                matches!(&c.result, Err(ServeError::Replay(ReplayError::Diverged(_)))),
                "expected a typed divergence, got {:?}",
                c.result
            );
            assert!(
                c.completed_ns >= c.submitted_ns,
                "the lane clock stayed monotone through the divergence"
            );
        }
        assert!(outcome.lock().unwrap().engaged_invocations >= 1, "the fault actually fired");

        // Clear the fault: the lane must verify healthy and then serve an
        // untouched session byte-identically to the never-faulted lane.
        s.clear_fault(Device::Mmc).unwrap();
        s.lane_health_check(Device::Mmc).unwrap();
        let untouched = s.open_session().unwrap();
        s.submit(untouched, Request::Read { device: Device::Mmc, blkid: 100, blkcnt: 16 }).unwrap();
        let healthy = s.drain_all();
        assert_eq!(healthy.len(), 1);

        let fr = fresh.open_session().unwrap();
        fresh.submit(fr, Request::Read { device: Device::Mmc, blkid: 100, blkcnt: 16 }).unwrap();
        let reference = fresh.drain_all();
        let bytes = |c: &Completion| match c.result.clone().expect("read ok") {
            Payload::Read(b) => b,
            other => panic!("unexpected payload {other:?}"),
        };
        assert_eq!(
            bytes(&healthy[0]),
            bytes(&reference[0]),
            "post-divergence lane reads diverged from a fresh lane"
        );
        assert_eq!(bytes(&healthy[0]), seed);
        assert_eq!(s.lane_status()[0].queued, 0, "the lane queue drained");
    }

    #[test]
    fn admission_qos_throttles_the_flooder_and_keeps_queue_full_coherent() {
        let mut s = mmc_service(ServeConfig {
            queue_capacity: 4,
            coalesce: false,
            hold_budget_ns: 0,
            qos: QosConfig { enabled: true, default_qos: SessionQos::default() },
            block_granularities: vec![1],
            ..ServeConfig::default()
        });
        let flooder = s.open_session().unwrap();
        let victim = s.open_session().unwrap();
        s.set_session_qos(flooder, SessionQos { rate_rps: 1_000, burst: 2, weight: 1 }).unwrap();
        s.set_session_qos(victim, SessionQos { rate_rps: 0, burst: 16, weight: 6 }).unwrap();
        let rd = |i: u32| Request::Read { device: Device::Mmc, blkid: i, blkcnt: 1 };
        s.submit(flooder, rd(0)).unwrap();
        s.submit(flooder, rd(1)).unwrap();
        match s.submit(flooder, rd(2)) {
            Err(ServeError::Throttled { session, device, retry_after_ns }) => {
                assert_eq!(session, flooder);
                assert_eq!(device, Device::Mmc);
                assert!(retry_after_ns > 0, "the bucket names its refill horizon");
            }
            other => panic!("expected Throttled, got {other:?}"),
        }
        assert_eq!(s.stats().throttled, 1);
        assert_eq!(s.stats().rejected, 0, "throttling is not queue backpressure");
        // The satellite regression: a throttled submit reserved nothing,
        // so saturating the queue afterwards reports the same coherent
        // fleet snapshot QueueFull always carried.
        s.submit(victim, rd(3)).unwrap();
        s.submit(victim, rd(4)).unwrap();
        match s.submit(victim, rd(5)) {
            Err(ServeError::QueueFull { depth, capacity, fleet, .. }) => {
                assert_eq!((depth, capacity), (4, 4));
                assert_eq!(fleet.len(), 1, "the routed reject reports the whole fleet");
                assert_eq!(fleet[0].depth, 4, "throttled submits never occupied a slot");
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // The QueueFull rollback refunded the victim's QoS charge; after
        // a drain both the depth and the share are free again.
        let done = s.drain_all();
        assert_eq!(done.len(), 4);
        s.take_completions(victim);
        s.submit(victim, rd(6)).unwrap();
        assert_eq!(s.stats().throttled, 1, "only the flooder was ever throttled");
    }

    #[test]
    fn diverged_clean_reads_fail_over_to_a_healthy_sibling() {
        let policy = RoutePolicy::HashShard { chunk_blocks: 16 };
        let mut s = mmc_fleet(
            2,
            ServeConfig {
                coalesce: false,
                hold_budget_ns: 0,
                route: RouteConfig { policy, spill: true },
                failover: FailoverConfig {
                    enabled: true,
                    retry_budget: 2,
                    backoff_base_ns: 50_000,
                },
                block_granularities: vec![1],
                ..ServeConfig::default()
            },
        );
        let sess = s.open_session().unwrap();
        let outcome = s
            .inject_fault(
                LaneId { device: Device::Mmc, replica: 0 },
                FaultPlan { template: Some("_rd_".into()), sticky: true, ..FaultPlan::default() },
            )
            .unwrap();
        let homed0: Vec<u32> =
            (0..200u32).filter(|b| policy.replica_for(*b, 2) == 0).take(4).collect();
        let ids: Vec<RequestId> = homed0
            .iter()
            .map(|&b| {
                s.submit(sess, Request::Read { device: Device::Mmc, blkid: b, blkcnt: 1 }).unwrap()
            })
            .collect();
        let done = s.drain_all();
        assert_eq!(done.len(), 4, "every read completes exactly once — zero lost, zero doubled");
        for id in &ids {
            let c = done.iter().find(|c| c.id == *id).unwrap();
            assert!(c.result.is_ok(), "the sibling retry served clean bytes: {:?}", c.result);
            assert!(c.completed_ns >= c.submitted_ns, "the backoff kept virtual time monotone");
        }
        assert!(s.stats().failovers >= 4, "each faulted read was swallowed and re-admitted");
        assert_eq!(s.stats().failover_exhausted, 0);
        assert!(outcome.lock().unwrap().engaged_invocations >= 1, "the fault actually fired");
    }

    #[test]
    fn failover_budget_exhausts_into_a_typed_attempt_trail() {
        let mut s = mmc_fleet(
            2,
            ServeConfig {
                coalesce: false,
                hold_budget_ns: 0,
                route: RouteConfig {
                    policy: RoutePolicy::HashShard { chunk_blocks: 16 },
                    spill: true,
                },
                failover: FailoverConfig {
                    enabled: true,
                    retry_budget: 1,
                    backoff_base_ns: 50_000,
                },
                block_granularities: vec![1],
                ..ServeConfig::default()
            },
        );
        let sess = s.open_session().unwrap();
        for replica in 0..2 {
            s.inject_fault(
                LaneId { device: Device::Mmc, replica },
                FaultPlan { template: Some("_rd_".into()), sticky: true, ..FaultPlan::default() },
            )
            .unwrap();
        }
        let id =
            s.submit(sess, Request::Read { device: Device::Mmc, blkid: 7, blkcnt: 1 }).unwrap();
        let done = s.drain_all();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        match &done[0].result {
            Err(ServeError::Exhausted { device, attempts }) => {
                assert_eq!(*device, Device::Mmc);
                assert_eq!(attempts.len(), 2, "budget 1 = the home execution plus one retry");
                assert_ne!(attempts[0].replica, attempts[1].replica);
                assert!(attempts[0].at_ns <= attempts[1].at_ns, "the trail is chronological");
            }
            other => panic!("expected the Exhausted trail, got {other:?}"),
        }
        assert_eq!(s.stats().failovers, 1);
        assert_eq!(s.stats().failover_exhausted, 1);
    }

    #[test]
    fn watchdog_quarantines_a_diverging_lane_and_restores_it_after_probation() {
        let policy = RoutePolicy::HashShard { chunk_blocks: 16 };
        let mut s = mmc_fleet(
            2,
            ServeConfig {
                coalesce: false,
                hold_budget_ns: 0,
                route: RouteConfig { policy, spill: true },
                failover: FailoverConfig {
                    enabled: true,
                    retry_budget: 2,
                    backoff_base_ns: 50_000,
                },
                supervise: SuperviseConfig {
                    enabled: true,
                    divergence_threshold: 2,
                    window: 8,
                    probation_ok: 2,
                },
                block_granularities: vec![1],
                ..ServeConfig::default()
            },
        );
        let sess = s.open_session().unwrap();
        s.inject_fault(
            LaneId { device: Device::Mmc, replica: 0 },
            FaultPlan { template: Some("_rd_".into()), sticky: true, ..FaultPlan::default() },
        )
        .unwrap();
        let homed0: Vec<u32> =
            (0..200u32).filter(|b| policy.replica_for(*b, 2) == 0).take(4).collect();
        // Exactly threshold-many faulted reads: both diverge, the second
        // trips the watchdog, and both are served by the sibling.
        for &b in &homed0[..2] {
            s.submit(sess, Request::Read { device: Device::Mmc, blkid: b, blkcnt: 1 }).unwrap();
        }
        let stormed = s.drain_all();
        assert_eq!(stormed.len(), 2, "the storm's reads completed via failover — zero lost");
        assert!(stormed.iter().all(|c| c.result.is_ok()));
        assert_eq!(s.stats().quarantines, 1, "the threshold tripped exactly once");
        // The quarantine's soft reset cleared the fault and the probe
        // passed: the lane is on probation, serving traffic again.
        let health = s.lane_health_check(LaneId { device: Device::Mmc, replica: 0 }).unwrap();
        assert_eq!(health.state, crate::LaneState::Probation);
        // probation_ok clean completions on the lane restore it.
        s.take_completions(sess);
        for &b in &homed0[..2] {
            s.submit(sess, Request::Read { device: Device::Mmc, blkid: b, blkcnt: 1 }).unwrap();
        }
        let probation = s.drain_all();
        assert_eq!(probation.len(), 2);
        assert!(probation.iter().all(|c| c.result.is_ok()));
        assert_eq!(s.stats().lane_restores, 1, "the clean window restored the lane");
        let health = s.lane_health_check(LaneId { device: Device::Mmc, replica: 0 }).unwrap();
        assert_eq!(health.state, crate::LaneState::Healthy);
        assert_eq!(s.stats().failover_exhausted, 0);
    }

    #[test]
    fn session_churn_releases_the_registry_series() {
        let mut s = mmc_service(ServeConfig {
            obs: ObsConfig::MetricsOnly,
            block_granularities: vec![1],
            ..ServeConfig::default()
        });
        let keeper = s.open_session().unwrap();
        for i in 0..50u32 {
            let sess = s.open_session().unwrap();
            s.submit(sess, Request::Read { device: Device::Mmc, blkid: i % 8, blkcnt: 1 }).unwrap();
            s.drain_all();
            s.take_completions(sess);
            s.close_session(sess);
        }
        // Only the live sessions keep a series; churned ones are gone.
        assert_eq!(s.metrics.session_series_count(), 1, "closed sessions left no series behind");
        let snap = s.metrics_snapshot();
        assert_eq!(snap.sessions.len(), 1);
        let _ = keeper;
    }

    /// The count fields of a snapshot — everything but histograms and host
    /// stamps.
    fn snapshot_counters(snap: &MetricsSnapshot) -> impl PartialEq + std::fmt::Debug {
        let lanes: Vec<[u64; 17]> = snap
            .lanes
            .iter()
            .map(|l| {
                [
                    l.submitted,
                    l.rejected,
                    l.admitted,
                    l.completed,
                    l.diverged,
                    l.failed,
                    l.in_queue,
                    l.occupancy_high_water,
                    l.replays,
                    l.coalesced_requests,
                    l.invocations,
                    l.merged,
                    l.blocks_moved,
                    l.holds,
                    l.early_unplugs,
                    l.doorbell_batches,
                    l.state,
                ]
            })
            .collect();
        (
            lanes,
            snap.smc_by_kind.clone(),
            [snap.doorbell_entries, snap.cq_overflows],
            snap.sessions.clone(),
            snap.route.clone(),
            snap.robustness.clone(),
        )
    }

    #[test]
    fn counters_do_not_depend_on_the_observability_level() {
        let policy = RoutePolicy::HashShard { chunk_blocks: 16 };
        // Never-written blocks homed on the replica the fault will hit.
        let homed0: Vec<u32> =
            (256..512u32).filter(|b| policy.replica_for(*b, 2) == 0).take(3).collect();
        let run = |obs: ObsConfig, submit_mode: SubmitMode| {
            let mut s = mmc_fleet(
                2,
                ServeConfig {
                    submit_mode,
                    obs,
                    cq_depth: 4,
                    route: RouteConfig { policy, spill: true },
                    failover: FailoverConfig { enabled: true, ..FailoverConfig::default() },
                    block_granularities: vec![1, 8],
                    ..ServeConfig::default()
                },
            );
            let sess = s.open_session().unwrap();
            let data = vec![5u8; 8 * BLOCK];
            s.submit(sess, Request::Write { device: Device::Mmc, blkid: 64, data }).unwrap();
            for b in 0..8 {
                s.submit(sess, Request::Read { device: Device::Mmc, blkid: 100 + b, blkcnt: 1 })
                    .unwrap();
            }
            s.drain_all();
            s.take_completions(sess);
            let fault =
                FaultPlan { template: Some("_rd_".into()), sticky: true, ..FaultPlan::default() };
            s.inject_fault(LaneId { device: Device::Mmc, replica: 0 }, fault).unwrap();
            for &b in &homed0 {
                s.submit(sess, Request::Read { device: Device::Mmc, blkid: b, blkcnt: 1 }).unwrap();
            }
            assert!(s.drain_all().iter().all(|c| c.result.is_ok()), "failover served every read");
            s.take_completions(sess);
            let smc = [s.smc_calls(), s.smc_doorbells(), s.smc_legacy()];
            (s.stats(), s.lane_status(), smc, s.metrics_snapshot())
        };
        for mode in [SubmitMode::PerCall, SubmitMode::Ring] {
            let (stats, lanes, smc, snap) = run(ObsConfig::Off, mode);
            assert!(stats.failovers >= 1, "{mode:?}: the injected fault failed over");
            assert!(stats.cq_overflows >= 1, "{mode:?}: the depth-4 CQ overflowed");
            assert!(
                snap.lanes.iter().all(|l| l.latency_ns.total() == 0)
                    && snap.doorbell_batch.total() == 0,
                "{mode:?}: Off records no histograms"
            );
            for obs in [ObsConfig::MetricsOnly, ObsConfig::Full] {
                let (stats_at, lanes_at, smc_at, snap_at) = run(obs, mode);
                assert_eq!(stats_at, stats, "{mode:?} {obs:?}: stats()");
                assert_eq!(lanes_at, lanes, "{mode:?} {obs:?}: lane_status()");
                assert_eq!(smc_at, smc, "{mode:?} {obs:?}: SMC counts");
                assert_eq!(
                    snapshot_counters(&snap_at),
                    snapshot_counters(&snap),
                    "{mode:?} {obs:?}: snapshot counters"
                );
                assert!(
                    snap_at.lanes.iter().any(|l| l.latency_ns.total() > 0),
                    "{mode:?} {obs:?}: the latency histograms record"
                );
            }
        }
    }

    #[test]
    fn out_of_coverage_requests_fan_error_completions() {
        let mut s =
            mmc_service(ServeConfig { block_granularities: vec![1], ..ServeConfig::default() });
        let sess = s.open_session().unwrap();
        // Far beyond the recorded blkid coverage.
        s.submit(sess, Request::Read { device: Device::Mmc, blkid: u32::MAX - 8, blkcnt: 1 })
            .unwrap();
        let done = s.drain_all();
        assert_eq!(done.len(), 1);
        match &done[0].result {
            Err(ServeError::Replay(e)) => {
                assert!(e.to_string().contains("coverage"), "got: {e}");
            }
            other => panic!("expected a replay error, got {other:?}"),
        }
    }
}
