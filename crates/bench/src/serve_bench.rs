//! Service-layer throughput measurement and the `BENCH_serve.json` emitter.
//!
//! Four experiments over `dlt-serve` (all numbers are **virtual time**, so
//! reruns reproduce them exactly):
//!
//! 1. **Coalescing speedup** — 8 concurrent sessions issue striped
//!    single-block reads over one MMC device. The coalesced arm drains
//!    them through the scheduler (the anticipatory hold captures each
//!    stripe, which merges into one 8-block replay); the serial arm issues
//!    the same requests one at a time with coalescing disabled. The
//!    acceptance bar is coalesced ≥ 2x the serial requests/s.
//! 2. **Mixed traffic under LongBurst camera load** — block sessions
//!    drive MMC + USB while a camera session runs a LongBurst capture on
//!    the VCHIQ lane. Per-lane clocks keep the block lanes' completion
//!    latency on their own timelines: the report carries per-device
//!    p50/p99 and the block-read p99, which must stay **under 1 s** even
//!    though the capture takes tens of virtual seconds (the single-clock
//!    service inflated it to 4.7 s).
//! 3. **Device scaling** — weak scaling from 1 lane (MMC) over 2
//!    (MMC+USB) to 3 (MMC+USB+VCHIQ): every block lane is filled with
//!    coalescible stripes up to the same per-lane busy-time budget, the
//!    camera lane captures within that budget, and the metric is total
//!    requests per second of *makespan* (the service-time merge rule).
//!    Acceptance: 3-device throughput ≥ 1.8x the 1-device run.
//! 4. **Anticipatory-hold sweep** — one session issues 8-block bursts
//!    separated by client think time, swept over hold budgets. The merge
//!    ratio rises with the budget while p50 must stay within 10% of the
//!    no-hold baseline at the default budget (the knob's whole point).
//! 5. **Ring vs legacy submission** — one heterogeneous open-loop
//!    schedule (per-session Poisson arrivals over hot-range readers,
//!    sequential streamers and a bursty camera tenant on MMC+USB+VCHIQ)
//!    driven down both submit modes. Acceptance: ring-mode block request
//!    rate ≥ 1.5x legacy at doorbell batch 16, SMCs-per-request ≤ 0.25,
//!    and closed-loop batch-1 p50 no worse than the per-call path.
//! 6. **Wall-clock lane parallelism** — the one experiment measured in
//!    *host* time, not virtual time: N replica MMC lanes each replay the
//!    same uncoalesced read workload, sequential vs per-lane OS threads
//!    ([`ExecMode::Threaded`]), at 1/2/4/8 lanes. Acceptance (CI, when
//!    the host has ≥ 4 cores): threaded ≥ 2x sequential at 4 lanes.
//! 7. **Adversarial isolation** — the robustness plane's SLO section:
//!    a flooder tenant hammers the shared MMC lane under admission QoS
//!    while two victims run a fixed workload. Acceptance: victim p99
//!    under attack ≤ 2x the flooder-free baseline, zero victim
//!    rejections, flooder visibly throttled. Two sub-experiments ride
//!    along: a **failover storm** (sticky read fault on one replica of a
//!    3-lane fleet; ≥ 99% of clean reads must still complete via retries
//!    on siblings, the sick lane must quarantine and return to Healthy)
//!    and a **session-churn** sweep (open/close cycles must leak zero
//!    metrics series). All numbers virtual time.

use dlt_core::FaultPlan;
use dlt_obs::ObsConfig;
use dlt_recorder::campaign::{
    record_camera_driverlet_subset, record_mmc_driverlet_subset, record_usb_driverlet_subset,
};
use dlt_serve::{
    Completion, Device, DriverletService, ExecMode, FailoverConfig, LaneId, LaneState, Policy,
    QosConfig, Request, RouteConfig, RoutePolicy, ServeConfig, ServeError, SessionId, SessionQos,
    SubmitMode, SuperviseConfig, BLOCK,
};
use serde::{Deserialize, Serialize};

use crate::arrivals::{
    heterogeneous_schedule, mixed_tenant_specs, replica_fleet_specs, ArrivalEvent,
};

/// Result of the 8-session coalescing experiment (the acceptance metric).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoalescingSample {
    /// Concurrent sessions.
    pub sessions: usize,
    /// Requests issued per arm.
    pub requests: u64,
    /// Requests per second of virtual time, serial uncoalesced arm.
    pub serial_rps: f64,
    /// Requests per second of virtual time, coalesced scheduler arm.
    pub coalesced_rps: f64,
    /// `coalesced_rps / serial_rps` — must be ≥ 2.0.
    pub speedup: f64,
    /// Mean requests folded into one replay on the coalesced arm.
    pub coalescing_ratio: f64,
}

/// Latency percentiles of one completion population (virtual microseconds).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencySample {
    /// Median completion latency.
    pub p50_us: u64,
    /// 99th-percentile completion latency.
    pub p99_us: u64,
    /// Worst completion latency.
    pub max_us: u64,
}

/// Per-device completion-latency percentiles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceLatency {
    /// Device name (`mmc`, `usb`, `vchiq`).
    pub device: String,
    /// Completions on this device.
    pub completions: u64,
    /// Latency percentiles for this device.
    pub latency: LatencySample,
}

/// Result of the mixed-traffic experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MixedTrafficSample {
    /// Concurrent sessions.
    pub sessions: usize,
    /// Total requests completed.
    pub requests: u64,
    /// Requests per second of virtual time.
    pub rps: f64,
    /// Completion-latency percentiles over every request.
    pub latency: LatencySample,
    /// Per-device completion-latency percentiles (the multi-core payoff:
    /// block lanes no longer inherit camera time).
    pub per_device: Vec<DeviceLatency>,
    /// p99 of block (MMC+USB) completions while the LongBurst capture ran
    /// — the acceptance metric: must be < 1 s (was 4.7 s on one clock).
    pub block_p99_us: u64,
    /// Frames in the concurrent LongBurst capture.
    pub long_burst_frames: u32,
    /// Mean requests folded into one replay.
    pub coalescing_ratio: f64,
    /// Submits rejected by queue-full backpressure (each retried after a
    /// per-device drain).
    pub backpressure_rejections: u64,
}

/// One point of the device-scaling experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Number of served devices (lanes / TEE cores).
    pub devices: usize,
    /// Requests completed.
    pub requests: u64,
    /// Virtual makespan of the run (service-time delta).
    pub elapsed_ms: f64,
    /// Requests per second of virtual makespan.
    pub rps: f64,
}

/// Result of the 1→3-device scaling experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingSample {
    /// Per-lane busy-time fill budget (milliseconds).
    pub lane_budget_ms: f64,
    /// Throughput at 1, 2 and 3 devices.
    pub points: Vec<ScalingPoint>,
    /// `rps(3 devices) / rps(1 device)` — must be ≥ 1.8.
    pub ratio_3v1: f64,
}

/// One point of the anticipatory-hold sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HoldSweepPoint {
    /// Hold budget in microseconds (0 = holding disabled).
    pub hold_budget_us: u64,
    /// Whether this is the service default budget.
    pub is_default: bool,
    /// Completion-latency percentiles.
    pub latency: LatencySample,
    /// Mean requests folded into one replay.
    pub coalescing_ratio: f64,
    /// Dispatches that anticipated (plug engaged).
    pub holds: u64,
}

/// One arm (submit mode) of the ring-vs-legacy comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RingArmSample {
    /// Submit mode label (`per-call` or `ring`).
    pub mode: String,
    /// Requests completed (block + camera).
    pub requests: u64,
    /// Block (MMC+USB) requests completed — the throughput numerator.
    pub block_requests: u64,
    /// Block-plane makespan in virtual milliseconds: the max of the
    /// control (submission) clock and the block lanes' clocks. The camera
    /// lane is excluded — its multi-second sensor-init floor is identical
    /// in both modes and overlaps the block plane by the multi-core model,
    /// so including it would only mask the submission-spine difference
    /// under comparison.
    pub elapsed_ms: f64,
    /// Block requests per second of block-plane makespan.
    pub rps: f64,
    /// World switches performed over the run (doorbells, per-call
    /// invokes, reaps and waits — everything).
    pub smcs: u64,
    /// `smcs / requests` — the amortisation acceptance metric.
    pub smcs_per_request: f64,
    /// Doorbell SMCs rung (0 on the per-call arm).
    pub doorbells: u64,
    /// Mean submission-ring entries admitted per doorbell.
    pub mean_doorbell_batch: f64,
    /// Peak submission-ring occupancy across lanes (high-water / depth).
    pub sq_occupancy: f64,
    /// Block-request completion-latency percentiles.
    pub block_latency: LatencySample,
    /// Mean requests folded into one replay.
    pub coalescing_ratio: f64,
}

/// Closed-loop p50 submit latency at doorbell batch 1 — the "rings must
/// not tax the latency-sensitive client" check.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitLatencySample {
    /// Closed-loop single-block reads issued per arm.
    pub requests: u64,
    /// p50 request latency on the per-call path (microseconds).
    pub legacy_p50_us: u64,
    /// p50 request latency with a doorbell after every enqueue.
    pub ring_p50_us: u64,
}

/// The ring-vs-legacy submission-spine comparison over one heterogeneous
/// open-loop schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RingComparisonSample {
    /// Entries staged between doorbells on the ring arm.
    pub doorbell_batch: usize,
    /// The one-SMC-per-operation arm.
    pub legacy: RingArmSample,
    /// The shared-memory-ring arm (same schedule, same bundles).
    pub ring: RingArmSample,
    /// `ring.rps / legacy.rps` — must be ≥ 1.5.
    pub speedup: f64,
    /// The batch-1 closed-loop latency check (ring p50 must not exceed
    /// legacy p50).
    pub batch1: SubmitLatencySample,
}

/// One lane count of the wall-clock lane-parallelism experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WallClockPoint {
    /// Replica MMC lanes (each its own TEE core; on the threaded arm,
    /// each its own OS thread).
    pub lanes: usize,
    /// Total requests completed per arm (`lanes * requests_per_lane`).
    pub requests: u64,
    /// Host wall-clock makespan of the sequential arm (milliseconds).
    pub sequential_ms: f64,
    /// Host wall-clock makespan of the threaded arm (milliseconds).
    pub threaded_ms: f64,
    /// `sequential_ms / threaded_ms` — the CI gate demands ≥ 2.0 at 4
    /// lanes when the host has ≥ 4 cores.
    pub speedup: f64,
}

/// The wall-clock lane-parallelism experiment. Unlike every other section
/// of this report these numbers are **host time** (`std::time::Instant`),
/// so they vary run to run and machine to machine; `host_cores` records
/// how much hardware parallelism the measurement had, and the ≥ 2x gate
/// at 4 lanes only applies when `host_cores >= 4`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WallClockSample {
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_cores: usize,
    /// Uncoalesced 8-block reads issued per lane, per arm.
    pub requests_per_lane: u64,
    /// One point per lane count (1, 2, 4, 8).
    pub points: Vec<WallClockPoint>,
}

/// One lane count of the routed weak-scaling experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoutedScalingPoint {
    /// Replica MMC lanes behind the shard router.
    pub lanes: usize,
    /// Open-loop tenant sessions offered (three per lane).
    pub sessions: usize,
    /// Requests completed (scales with the lane count: weak scaling).
    pub requests: u64,
    /// Host wall-clock makespan in milliseconds.
    pub elapsed_ms: f64,
    /// Requests per second of host time.
    pub rps: f64,
    /// Clean reads shed from a saturated home shard to a sibling.
    pub spills: u64,
    /// Spans split across more than one replica.
    pub stripe_fanouts: u64,
}

/// The deterministic spill experiment: four replicas behind tiny queues,
/// a balanced arm (each tenant on its own home shard) vs a skewed arm
/// (every tenant hammering one shard's extent), all numbers virtual time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoutedSpillSample {
    /// Replica lanes in the fleet.
    pub replicas: usize,
    /// Per-lane queue capacity (kept tiny so the hot shard saturates).
    pub queue_capacity: usize,
    /// Reads completed per arm.
    pub requests: u64,
    /// p99 completion latency of the balanced arm (virtual microseconds).
    pub balanced_p99_us: u64,
    /// p99 of the skewed arm, spill enabled.
    pub skewed_p99_us: u64,
    /// `skewed_p99_us / balanced_p99_us` — the acceptance gate demands
    /// ≤ 2.0: shedding must keep the victim's tail near the balanced
    /// baseline instead of serialising on the hot shard.
    pub p99_ratio: f64,
    /// Clean reads shed to siblings on the skewed arm (must be > 0).
    pub spills: u64,
    /// Fleet-wide rejections on the skewed arm.
    pub rejections: u64,
}

/// The routed replica-fleet section: host-time weak scaling out to 8–16
/// lanes plus the spill experiment. Scaling numbers are **host time**
/// (like [`WallClockSample`]); `host_cores` in the wall-clock section
/// records how much hardware parallelism they had, and the ≥ 1.7x gate at
/// 8 vs 4 lanes only applies when it is ≥ 8.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoutedSample {
    /// Placement policy of the scaling curve (`stripe` — consecutive hot
    /// chunks round-robin exactly one tenant group per replica).
    pub policy: String,
    /// Requests each open-loop session submits.
    pub requests_per_session: u32,
    /// One point per lane count (1/2/4/8, plus 16 on full runs).
    pub points: Vec<RoutedScalingPoint>,
    /// `rps(8 lanes) / rps(4 lanes)` — near-linear weak scaling wants
    /// 2.0; the gate (on ≥ 8-core hosts) demands ≥ 1.7.
    pub ratio_8v4: f64,
    /// The deterministic spill experiment.
    pub spill: RoutedSpillSample,
}

/// The failover-storm sub-experiment: a sticky read fault on one replica
/// of a 3-lane MMC fleet, failover + supervision enabled. Clean reads
/// homed on the sick shard must retry on siblings, the watchdog must
/// quarantine and then restore the lane, and nothing may be lost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailoverSample {
    /// Replica lanes in the fleet.
    pub replicas: usize,
    /// Clean single-block reads submitted (storm + recovery phases).
    pub clean_reads: u64,
    /// Completions that carried a successful payload.
    pub completed_ok: u64,
    /// `completed_ok / clean_reads` — the gate demands ≥ 0.99.
    pub completion_rate: f64,
    /// Reads that never produced a completion at all — must be 0.
    pub lost: u64,
    /// Diverged executions retried on a healthy sibling (must be > 0).
    pub failovers: u64,
    /// Watchdog quarantine trips (must be ≥ 1; stale pre-reset
    /// divergences reaped during probation may legitimately re-trip it).
    pub quarantines: u64,
    /// Whether the faulted lane finished the run back in
    /// [`LaneState::Healthy`] after serving its probation.
    pub lane_restored: bool,
}

/// The session-churn sub-experiment: open/submit/close cycles against a
/// long-lived resident. The gate demands zero leaked per-session metrics
/// series once the churn quiesces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnSample {
    /// Ephemeral open/close cycles driven through the gate trustlet.
    pub cycles: u64,
    /// Metrics series still alive beyond the resident baseline — must
    /// be 0.
    pub leaked_series: u64,
}

/// The adversarial-isolation experiment: a flooder tenant vs two victims
/// on one MMC lane under admission QoS, plus the failover-storm and
/// session-churn sub-experiments. All numbers are virtual time, so the
/// sample reproduces exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IsolationSample {
    /// Victim sessions sharing the lane with the flooder.
    pub victims: usize,
    /// Victim reads completed per arm.
    pub victim_requests: u64,
    /// Victim p99 completion latency with no flooder (virtual
    /// microseconds).
    pub baseline_p99_us: u64,
    /// Victim p99 with the flooder hammering the same lane under QoS.
    pub attack_p99_us: u64,
    /// `attack_p99_us / baseline_p99_us` — the gate demands ≤ 2.0: the
    /// admission gate must keep the flood from reaching the victims'
    /// tail.
    pub p99_ratio: f64,
    /// Victim submits rejected or throttled on the attack arm — must
    /// be 0 (the whole point of per-tenant admission).
    pub victim_rejections: u64,
    /// Flooder submits turned away with [`ServeError::Throttled`]
    /// (must be > 0: the flood is real and the gate visibly bites).
    pub flooder_throttled: u64,
    /// Flooder requests that were admitted and completed.
    pub flooder_completed: u64,
    /// The failover-storm sub-experiment.
    pub failover: FailoverSample,
    /// The session-churn sub-experiment.
    pub churn: ChurnSample,
}

/// The persisted `BENCH_serve.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// Workload description.
    pub workload: String,
    /// The 8-session coalescing acceptance experiment.
    pub coalescing: CoalescingSample,
    /// The mixed-traffic experiment (per-device latency under camera load).
    pub mixed: MixedTrafficSample,
    /// The 1→3-device scaling experiment.
    pub scaling: ScalingSample,
    /// The anticipatory-hold budget sweep.
    pub hold_sweep: Vec<HoldSweepPoint>,
    /// The ring-vs-legacy submission comparison (world-switch
    /// amortisation).
    pub ring: RingComparisonSample,
    /// The sequential-vs-threaded wall-clock comparison (host time).
    pub wall_clock: WallClockSample,
    /// The routed replica-fleet weak-scaling and spill experiments.
    /// Reports persisted before the shard router existed fail to parse
    /// (this field is required); consumers treat that as a stale artifact
    /// and regenerate.
    pub routed: RoutedSample,
    /// The adversarial-isolation experiment (admission QoS, failover
    /// storm, session churn). Required for the same reason as `routed`:
    /// artifacts persisted before the robustness plane fail to parse and
    /// get regenerated.
    pub isolation: IsolationSample,
}

fn mmc_config(coalesce: bool) -> ServeConfig {
    ServeConfig {
        coalesce,
        policy: Policy::Fifo,
        block_granularities: vec![1, 8, 32],
        ..ServeConfig::default()
    }
}

/// The coalescing experiment: `sessions` clients read a striped sequential
/// range (session i reads block `base + round*sessions + i`), `rounds`
/// times.
pub fn run_coalescing_bench(sessions: usize, rounds: u32) -> CoalescingSample {
    // Coalesced arm: all sessions submit, then one drain per round; the
    // anticipatory hold captures the whole stripe, which merges into a
    // single multi-block replay.
    let mut service =
        DriverletService::new(&[Device::Mmc], mmc_config(true)).expect("build coalesced service");
    let ids: Vec<u32> = (0..sessions).map(|_| service.open_session().unwrap()).collect();
    let t0 = service.now_ns();
    let mut completed = 0u64;
    for round in 0..rounds {
        for (i, session) in ids.iter().enumerate() {
            let blkid = 1024 + round * sessions as u32 + i as u32;
            service
                .submit(*session, Request::Read { device: Device::Mmc, blkid, blkcnt: 1 })
                .expect("submit");
        }
        completed += service.drain_all().len() as u64;
    }
    let coalesced_elapsed = service.now_ns() - t0;
    let coalescing_ratio = service.stats().coalescing_ratio();

    // Serial arm: the same requests, one submit + drain at a time, no
    // coalescing — each read pays its own replay.
    let mut service =
        DriverletService::new(&[Device::Mmc], mmc_config(false)).expect("build serial service");
    let ids: Vec<u32> = (0..sessions).map(|_| service.open_session().unwrap()).collect();
    let t0 = service.now_ns();
    let mut serial_completed = 0u64;
    for round in 0..rounds {
        for (i, session) in ids.iter().enumerate() {
            let blkid = 1024 + round * sessions as u32 + i as u32;
            service
                .submit(*session, Request::Read { device: Device::Mmc, blkid, blkcnt: 1 })
                .expect("submit");
            serial_completed += service.drain_all().len() as u64;
        }
    }
    let serial_elapsed = service.now_ns() - t0;

    assert_eq!(completed, serial_completed, "both arms must serve every request");
    let secs = |ns: u64| (ns as f64 / 1e9).max(1e-12);
    let coalesced_rps = completed as f64 / secs(coalesced_elapsed);
    let serial_rps = serial_completed as f64 / secs(serial_elapsed);
    CoalescingSample {
        sessions,
        requests: completed,
        serial_rps,
        coalesced_rps,
        speedup: coalesced_rps / serial_rps.max(1e-12),
        coalescing_ratio,
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

fn latency_sample(latencies_us: &mut [u64]) -> LatencySample {
    latencies_us.sort_unstable();
    LatencySample {
        p50_us: percentile(latencies_us, 0.50),
        p99_us: percentile(latencies_us, 0.99),
        max_us: latencies_us.last().copied().unwrap_or(0),
    }
}

/// The mixed-traffic experiment: block sessions on MMC and USB race a
/// LongBurst camera capture on VCHIQ, all multiplexed through one service
/// under deficit round-robin. Per-lane clocks keep block latency on the
/// block lanes' own timelines.
pub fn run_mixed_bench(rounds: u32, long_burst_frames: u32) -> MixedTrafficSample {
    let config = ServeConfig {
        policy: Policy::DeficitRoundRobin { quantum_blocks: 64 },
        block_granularities: vec![1, 8, 32],
        camera_bursts: vec![1, long_burst_frames],
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let mut service = DriverletService::new(&[Device::Mmc, Device::Usb, Device::Vchiq], config)
        .expect("build mixed service");

    // 4 MMC + 4 USB block sessions and 2 camera sessions.
    let mmc: Vec<u32> = (0..4).map(|_| service.open_session().unwrap()).collect();
    let usb: Vec<u32> = (0..4).map(|_| service.open_session().unwrap()).collect();
    let cam: Vec<u32> = (0..2).map(|_| service.open_session().unwrap()).collect();

    let mut all_us: Vec<u64> = Vec::new();
    let mut block_us: Vec<u64> = Vec::new();
    let mut per_device: Vec<(String, Vec<u64>)> = Vec::new();
    let mut completed = 0u64;
    let mut record =
        |completions: &[Completion], all_us: &mut Vec<u64>, block_us: &mut Vec<u64>| {
            for c in completions {
                c.result.as_ref().expect("mixed traffic stays in coverage");
                let us = c.latency_ns() / 1_000;
                all_us.push(us);
                if c.device != Device::Vchiq {
                    block_us.push(us);
                }
                let name = c.device.to_string();
                match per_device.iter_mut().find(|(d, _)| *d == name) {
                    Some((_, v)) => v.push(us),
                    None => per_device.push((name, vec![us])),
                }
            }
        };
    // Closed-loop block clients: each round they *observe* (take) their
    // own completions — which syncs their normal-world timeline to the
    // block lanes — while never waiting on the camera session's burst.
    let block_sessions: Vec<u32> = mmc.iter().chain(usb.iter()).copied().collect();

    let t0 = service.now_ns();
    // The LongBurst capture starts first: every block completion below
    // races it on the camera lane's timeline.
    service
        .submit(cam[0], Request::Capture { frames: long_burst_frames, resolution: 720 })
        .expect("submit long burst");

    // A deterministic xorshift stream decides each session's next request.
    let mut rng = crate::arrivals::Rng::new(0x243f_6a88_85a3_08d3);
    let mut next = move || rng.next();
    for round in 0..rounds {
        for (lane, sessions) in [(Device::Mmc, &mmc), (Device::Usb, &usb)] {
            for (i, session) in sessions.iter().enumerate() {
                let r = next();
                // Hot range per session with frequent adjacency.
                let blkid = 2048 + (i as u32) * 64 + (r % 48) as u32;
                let blkcnt = [1u32, 1, 8, 8, 32][(r >> 8) as usize % 5];
                let req = if r % 4 == 0 {
                    Request::Write {
                        device: lane,
                        blkid,
                        data: vec![(r >> 16) as u8; blkcnt as usize * BLOCK],
                    }
                } else {
                    Request::Read { device: lane, blkid, blkcnt }
                };
                // Backpressure: the error names the saturated device, so
                // back off by draining only that lane, then retry.
                if let Err(ServeError::QueueFull { device, .. }) =
                    service.submit(*session, req.clone())
                {
                    service.drain_device(device);
                    service.submit(*session, req).expect("submit after device drain");
                }
            }
        }
        if round == rounds / 2 {
            // A OneShot capture midway keeps the second camera session live.
            service
                .submit(cam[1], Request::Capture { frames: 1, resolution: 720 })
                .expect("submit capture");
        }
        // Drain the block lanes this round; the camera lane keeps its
        // burst in flight on its own core.
        service.drain_device(Device::Mmc);
        service.drain_device(Device::Usb);
        for session in &block_sessions {
            let done = service.take_completions(*session);
            record(&done, &mut all_us, &mut block_us);
            completed += done.len() as u64;
        }
    }
    // Finally join on the camera lane and observe its captures.
    service.drain_all();
    for session in &cam {
        let done = service.take_completions(*session);
        record(&done, &mut all_us, &mut block_us);
        completed += done.len() as u64;
    }
    let elapsed = service.now_ns() - t0;

    let per_device = per_device
        .into_iter()
        .map(|(device, mut us)| DeviceLatency {
            device,
            completions: us.len() as u64,
            latency: latency_sample(&mut us),
        })
        .collect();
    MixedTrafficSample {
        sessions: mmc.len() + usb.len() + cam.len(),
        requests: completed,
        rps: completed as f64 / (elapsed as f64 / 1e9).max(1e-12),
        latency: latency_sample(&mut all_us),
        per_device,
        block_p99_us: percentile(
            &{
                block_us.sort_unstable();
                block_us
            },
            0.99,
        ),
        long_burst_frames,
        coalescing_ratio: service.stats().coalescing_ratio(),
        backpressure_rejections: service.stats().rejected,
    }
}

/// The scaling experiment: fill every block lane with coalescible stripes
/// up to `lane_budget_ns` of lane busy time (weak scaling), let the camera
/// lane capture within the same budget, and measure total requests per
/// second of makespan at 1, 2 and 3 devices.
pub fn run_scaling_bench(lane_budget_ns: u64) -> ScalingSample {
    let device_sets: [&[Device]; 3] =
        [&[Device::Mmc], &[Device::Mmc, Device::Usb], &[Device::Mmc, Device::Usb, Device::Vchiq]];
    let mut points = Vec::new();
    for devices in device_sets {
        let config = ServeConfig {
            policy: Policy::Fifo,
            block_granularities: vec![1, 8, 32],
            camera_bursts: vec![1],
            ..ServeConfig::default()
        };
        let mut service = DriverletService::new(devices, config).expect("build scaling service");
        let sessions: Vec<SessionId> = (0..8).map(|_| service.open_session().unwrap()).collect();
        let block_devices: Vec<Device> =
            devices.iter().copied().filter(|d| *d != Device::Vchiq).collect();
        let has_camera = devices.contains(&Device::Vchiq);

        let t0 = service.now_ns();
        let mut completed = 0u64;
        // The camera lane contributes a capture only when it fits inside
        // the same busy budget as the block lanes (OneShot ≈ 2.3 s of
        // virtual time — sensor init dominates); a capture larger than the
        // budget would turn weak scaling into a camera-latency benchmark.
        if has_camera && lane_budget_ns >= 2_400_000_000 {
            service
                .submit(sessions[0], Request::Capture { frames: 1, resolution: 720 })
                .expect("submit capture");
        }
        let busy = |service: &DriverletService, d: Device| {
            service.lane_status().iter().find(|l| l.device == d).map(|l| l.busy_ns).unwrap_or(0)
        };
        let mut round = 0u32;
        loop {
            let open: Vec<Device> = block_devices
                .iter()
                .copied()
                .filter(|d| busy(&service, *d) < lane_budget_ns)
                .collect();
            if open.is_empty() {
                break;
            }
            for device in open {
                for (i, session) in sessions.iter().enumerate() {
                    let blkid = 1024 + round * 8 + i as u32;
                    service
                        .submit(*session, Request::Read { device, blkid, blkcnt: 1 })
                        .expect("submit stripe read");
                }
            }
            completed += service.drain_all().len() as u64;
            round += 1;
        }
        completed += service.drain_all().len() as u64;
        let elapsed = service.now_ns() - t0;
        points.push(ScalingPoint {
            devices: devices.len(),
            requests: completed,
            elapsed_ms: elapsed as f64 / 1e6,
            rps: completed as f64 / (elapsed as f64 / 1e9).max(1e-12),
        });
    }
    let ratio_3v1 = points[2].rps / points[0].rps.max(1e-12);
    ScalingSample { lane_budget_ms: lane_budget_ns as f64 / 1e6, points, ratio_3v1 }
}

/// The anticipatory-hold sweep: one session issues `bursts` bursts of 8
/// adjacent single-block reads (back-to-back submits) separated by 2 ms of
/// client think time, at each hold budget. Holding captures a whole burst
/// in one plug window and serves it as a single 8-block replay; without
/// holding the first read of each burst dispatches alone and the rest
/// fragment into single-block replays.
pub fn run_hold_sweep(bursts: u32, budgets_us: &[u64]) -> Vec<HoldSweepPoint> {
    let bundle = record_mmc_driverlet_subset(&[1, 8]).expect("record mmc");
    let default_us = ServeConfig::default().hold_budget_ns / 1_000;
    let mut out = Vec::new();
    for &budget_us in budgets_us {
        let config = ServeConfig {
            policy: Policy::Fifo,
            hold_budget_ns: budget_us * 1_000,
            block_granularities: vec![1, 8],
            queue_capacity: (bursts as usize + 1) * 8,
            ..ServeConfig::default()
        };
        let mut service =
            DriverletService::with_driverlets(&[(Device::Mmc, bundle.clone())], config)
                .expect("build sweep service");
        let session = service.open_session().unwrap();
        for burst in 0..bursts {
            for i in 0..8u32 {
                service
                    .submit(
                        session,
                        Request::Read {
                            device: Device::Mmc,
                            blkid: 512 + burst * 8 + i,
                            blkcnt: 1,
                        },
                    )
                    .expect("submit burst read");
            }
            service.client_think_ns(2_000_000);
        }
        let done = service.drain_all();
        assert_eq!(done.len(), bursts as usize * 8);
        let mut us: Vec<u64> = done.iter().map(|c| c.latency_ns() / 1_000).collect();
        out.push(HoldSweepPoint {
            hold_budget_us: budget_us,
            is_default: budget_us == default_us,
            latency: latency_sample(&mut us),
            coalescing_ratio: service.stats().coalescing_ratio(),
            holds: service.stats().holds,
        });
    }
    out
}

/// Drive one heterogeneous open-loop schedule through the service in one
/// submit mode. Both arms share the schedule and the recorded bundles, so
/// the only variable is the submission spine.
fn drive_mixed_arm(
    mode: SubmitMode,
    doorbell_batch: usize,
    schedule: &[ArrivalEvent],
    bundles: &[(Device, dlt_template::Driverlet)],
    session_count: usize,
) -> RingArmSample {
    let config = ServeConfig {
        policy: Policy::Fifo,
        submit_mode: mode,
        sq_depth: 64.max(doorbell_batch),
        // The arms drain at the end of the run (virtual-time lanes replay
        // the whole arrival timeline regardless), so the lane queues must
        // hold the full backlog: this bench measures the submission spine,
        // not admission-control backpressure.
        queue_capacity: schedule.len().max(128),
        // Wide dispatch windows: a saturated lane must be able to fold a
        // deep backlog of overlapping hot reads into few spans, otherwise
        // per-span device overheads — identical in both arms — cap the
        // lane rate below the arrival rate and mask the submission spine.
        coalesce_window: 256,
        max_sessions: session_count.max(64),
        block_granularities: vec![1, 8, 32],
        camera_bursts: vec![1],
        ..ServeConfig::default()
    };
    let mut service =
        DriverletService::with_driverlets(bundles, config).expect("build ring-arm service");
    let ids: Vec<SessionId> = (0..session_count).map(|_| service.open_session().unwrap()).collect();
    let mut staged = 0usize;
    for ev in schedule {
        service.client_think_ns(ev.gap_ns);
        service.submit(ids[ev.session_idx], ev.req.clone()).expect("open-loop submit");
        if mode == SubmitMode::Ring {
            staged += 1;
            if staged >= doorbell_batch {
                service.ring_doorbell().expect("doorbell");
                staged = 0;
            }
        }
    }
    let done = service.drain_all();
    // Block-plane makespan, captured before any completion observation
    // fast-forwards the control clock to lane time.
    let status = service.lane_status();
    let block_lane_ns =
        status.iter().filter(|l| l.device != Device::Vchiq).map(|l| l.now_ns).max().unwrap_or(0);
    let elapsed_ns = service.control_now_ns().max(block_lane_ns);
    let sq_occupancy =
        status.iter().map(|l| l.sq_high_water as f64 / l.sq_depth as f64).fold(0.0f64, f64::max);
    let mut block_us: Vec<u64> = Vec::new();
    let mut block_requests = 0u64;
    for c in &done {
        c.result.as_ref().expect("mixed schedule stays in coverage");
        if c.device != Device::Vchiq {
            block_requests += 1;
            block_us.push(c.latency_ns() / 1_000);
        }
    }
    // The clients reap their completions (per-call reaps pay their SMC;
    // ring reaps are free) so the world-switch count covers the whole
    // submit→reap round trip.
    for id in &ids {
        service.take_completions(*id);
    }
    let stats = service.stats();
    let smcs = service.smc_calls();
    RingArmSample {
        mode: match mode {
            SubmitMode::PerCall => "per-call".into(),
            SubmitMode::Ring => "ring".into(),
        },
        requests: done.len() as u64,
        block_requests,
        elapsed_ms: elapsed_ns as f64 / 1e6,
        rps: block_requests as f64 / (elapsed_ns as f64 / 1e9).max(1e-12),
        smcs,
        smcs_per_request: smcs as f64 / (done.len() as f64).max(1.0),
        doorbells: stats.doorbells,
        mean_doorbell_batch: stats.mean_doorbell_batch(),
        sq_occupancy,
        block_latency: latency_sample(&mut block_us),
        coalescing_ratio: stats.coalescing_ratio(),
    }
}

/// Closed-loop single-block reads, one at a time: the p50 a
/// latency-sensitive client sees when every enqueue is followed by its own
/// doorbell (batch 1). Holding is disabled — a single-op closed-loop
/// client keeps `hold_budget_ns` at 0, as the config documents.
fn submit_latency_p50(mode: SubmitMode, bundle: &dlt_template::Driverlet, requests: u32) -> u64 {
    let config = ServeConfig {
        submit_mode: mode,
        hold_budget_ns: 0,
        block_granularities: vec![1, 8],
        ..ServeConfig::default()
    };
    let mut service = DriverletService::with_driverlets(&[(Device::Mmc, bundle.clone())], config)
        .expect("build latency service");
    let session = service.open_session().unwrap();
    let mut us: Vec<u64> = Vec::new();
    for i in 0..requests {
        service
            .submit(session, Request::Read { device: Device::Mmc, blkid: 512 + i, blkcnt: 1 })
            .expect("closed-loop submit");
        let done = service.drain_all();
        assert_eq!(done.len(), 1);
        us.push(done[0].latency_ns() / 1_000);
        // Observe the completion so the next submit is stamped after it
        // (a closed-loop client).
        service.take_completions(session);
    }
    us.sort_unstable();
    percentile(&us, 0.50)
}

/// The ring-vs-legacy comparison: one heterogeneous open-loop schedule
/// (per-session Poisson arrivals, hot-range readers, streamers, a bursty
/// camera tenant) driven down both submission paths, plus the batch-1
/// closed-loop latency check.
pub fn run_ring_bench(requests_per_session: u32, doorbell_batch: usize) -> RingComparisonSample {
    let specs = mixed_tenant_specs(requests_per_session, 60_000);
    let schedule = heterogeneous_schedule(&specs, 0x5eed);
    let bundles = vec![
        (Device::Mmc, record_mmc_driverlet_subset(&[1, 8, 32]).expect("record mmc")),
        (Device::Usb, record_usb_driverlet_subset(&[1, 8, 32]).expect("record usb")),
        (Device::Vchiq, record_camera_driverlet_subset(&[1]).expect("record camera")),
    ];
    let legacy =
        drive_mixed_arm(SubmitMode::PerCall, doorbell_batch, &schedule, &bundles, specs.len());
    let ring = drive_mixed_arm(SubmitMode::Ring, doorbell_batch, &schedule, &bundles, specs.len());
    assert_eq!(legacy.requests, ring.requests, "both arms must complete the identical schedule");
    let speedup = ring.rps / legacy.rps.max(1e-12);
    let latency_requests = 64;
    let batch1 = SubmitLatencySample {
        requests: latency_requests as u64,
        legacy_p50_us: submit_latency_p50(SubmitMode::PerCall, &bundles[0].1, latency_requests),
        ring_p50_us: submit_latency_p50(SubmitMode::Ring, &bundles[0].1, latency_requests),
    };
    RingComparisonSample { doorbell_batch, legacy, ring, speedup, batch1 }
}

/// One arm of the wall-clock experiment: `lanes` replica MMC lanes, each
/// fed `requests_per_lane` uncoalesced 8-block reads, measured in host
/// time from first submit to quiescence (`drain_all`).
fn wall_clock_arm(
    exec_mode: ExecMode,
    bundle: &dlt_template::Driverlet,
    lanes: usize,
    requests_per_lane: u64,
) -> f64 {
    let devices: Vec<_> = (0..lanes).map(|_| (Device::Mmc, bundle.clone())).collect();
    let config = ServeConfig {
        exec_mode,
        // Coalescing and anticipation off: every request pays its own
        // replay, so the workload is pure per-lane compute and the only
        // variable between the arms is where that compute runs.
        coalesce: false,
        hold_budget_ns: 0,
        queue_capacity: requests_per_lane as usize,
        block_granularities: vec![1, 8],
        ..ServeConfig::default()
    };
    let mut service = DriverletService::with_driverlets(&devices, config).expect("build service");
    let session = service.open_session().unwrap();
    let expected = requests_per_lane * lanes as u64;
    let start = std::time::Instant::now();
    // Round-robin across the lanes so threaded workers start chewing on
    // their backlog while the front-end is still submitting.
    for i in 0..requests_per_lane {
        for lane in 0..lanes {
            let blkid = 1024 + (i % 48) as u32 * 8;
            service
                .submit_to(
                    LaneId { device: Device::Mmc, replica: lane },
                    session,
                    Request::Read { device: Device::Mmc, blkid, blkcnt: 8 },
                )
                .expect("wall-clock submit");
        }
    }
    let completed = service.drain_all().len() as u64;
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(completed, expected, "every wall-clock request must complete");
    elapsed_ms
}

/// The wall-clock lane-parallelism experiment: sequential vs threaded
/// execution of identical replica-lane workloads at each lane count.
pub fn run_wall_clock_bench(lane_counts: &[usize], requests_per_lane: u64) -> WallClockSample {
    let bundle = record_mmc_driverlet_subset(&[1, 8]).expect("record mmc");
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let points = lane_counts
        .iter()
        .map(|&lanes| {
            let sequential_ms =
                wall_clock_arm(ExecMode::Sequential, &bundle, lanes, requests_per_lane);
            let threaded_ms = wall_clock_arm(ExecMode::Threaded, &bundle, lanes, requests_per_lane);
            WallClockPoint {
                lanes,
                requests: requests_per_lane * lanes as u64,
                sequential_ms,
                threaded_ms,
                speedup: sequential_ms / threaded_ms.max(1e-9),
            }
        })
        .collect();
    WallClockSample { host_cores, requests_per_lane, points }
}

/// The deterministic spill experiment: four MMC replicas behind
/// `queue_capacity`-deep lanes under hash placement. Each round submits
/// exactly one fleet's worth of single-block reads (replicas x capacity).
/// The balanced arm gives every tenant its own home shard (extents found
/// with the public placement probe); the skewed arm points every tenant
/// at shard 0's extent, so after the home fills, every further clean read
/// must spill to the least-loaded sibling. All numbers are virtual time,
/// so the sample reproduces exactly.
fn run_spill_experiment() -> RoutedSpillSample {
    const REPLICAS: usize = 4;
    const CAPACITY: usize = 8;
    const ROUNDS: u32 = 6;
    let bundle = record_mmc_driverlet_subset(&[1, 8]).expect("record mmc");
    let policy = RoutePolicy::HashShard { chunk_blocks: 256 };
    // One never-written extent homed on each replica, by probing
    // consecutive chunks until every shard owns one.
    let mut extents: Vec<Option<u32>> = vec![None; REPLICAS];
    let mut chunk = 4u32;
    while extents.iter().any(Option::is_none) {
        let blkid = chunk * 256;
        let home = policy.replica_for(blkid, REPLICAS);
        extents[home].get_or_insert(blkid);
        chunk += 1;
    }
    let extents: Vec<u32> = extents.into_iter().map(|e| e.expect("probed")).collect();

    let arm = |skewed: bool| -> (Vec<u64>, u64, u64) {
        let devices: Vec<_> = (0..REPLICAS).map(|_| (Device::Mmc, bundle.clone())).collect();
        let config = ServeConfig {
            policy: Policy::Fifo,
            coalesce: false,
            hold_budget_ns: 0,
            queue_capacity: CAPACITY,
            route: RouteConfig { policy, spill: true },
            block_granularities: vec![1, 8],
            ..ServeConfig::default()
        };
        let mut service =
            DriverletService::with_driverlets(&devices, config).expect("build spill service");
        let sessions: Vec<SessionId> =
            (0..REPLICAS).map(|_| service.open_session().unwrap()).collect();
        let mut us: Vec<u64> = Vec::new();
        for round in 0..ROUNDS {
            for burst in 0..CAPACITY as u32 {
                for (s, session) in sessions.iter().enumerate() {
                    let extent = if skewed { extents[0] } else { extents[s] };
                    let blkid = extent + (round * CAPACITY as u32 + burst) % 64;
                    service
                        .submit(*session, Request::Read { device: Device::Mmc, blkid, blkcnt: 1 })
                        .expect("spill-arm submit (one fleet's worth per round fits exactly)");
                }
            }
            us.extend(service.drain_all().iter().map(|c| c.latency_ns() / 1_000));
        }
        let stats = service.stats();
        (us, stats.route_spills, stats.rejected)
    };

    let (mut balanced_us, _, _) = arm(false);
    let (mut skewed_us, spills, rejections) = arm(true);
    assert_eq!(balanced_us.len(), skewed_us.len(), "both arms complete every read");
    let balanced_p99_us = latency_sample(&mut balanced_us).p99_us;
    let skewed_p99_us = latency_sample(&mut skewed_us).p99_us;
    RoutedSpillSample {
        replicas: REPLICAS,
        queue_capacity: CAPACITY,
        requests: skewed_us.len() as u64,
        balanced_p99_us,
        skewed_p99_us,
        p99_ratio: skewed_p99_us as f64 / (balanced_p99_us as f64).max(1e-9),
        spills,
        rejections,
    }
}

/// The routed weak-scaling experiment: at each lane count, a fleet of
/// replica MMC lanes (per-lane OS threads) serves `replica_fleet_specs`'
/// open-loop schedule through the default routed `submit()` under stripe
/// placement, measured in **host** time from first submit to quiescence.
/// The tenant population scales with the fleet (three read-only sessions
/// per lane), so near-linear scaling holds rps growing with the lane
/// count.
pub fn run_routed_bench(lane_counts: &[usize], requests_per_session: u32) -> RoutedSample {
    let bundle = record_mmc_driverlet_subset(&[1, 8]).expect("record mmc");
    let mut points = Vec::new();
    for &lanes in lane_counts {
        let specs = replica_fleet_specs(lanes, requests_per_session);
        let schedule = heterogeneous_schedule(&specs, 0x10c4_7e50 ^ lanes as u64);
        let devices: Vec<_> = (0..lanes).map(|_| (Device::Mmc, bundle.clone())).collect();
        let config = ServeConfig {
            policy: Policy::Fifo,
            exec_mode: ExecMode::Threaded,
            // Uncoalesced, so the workload is pure per-lane replay compute
            // and the curve measures where that compute runs.
            coalesce: false,
            hold_budget_ns: 0,
            queue_capacity: schedule.len().max(128),
            max_sessions: specs.len().max(64),
            route: RouteConfig { policy: RoutePolicy::Stripe { stripe_blocks: 256 }, spill: true },
            block_granularities: vec![1, 8],
            ..ServeConfig::default()
        };
        let mut service =
            DriverletService::with_driverlets(&devices, config).expect("build routed service");
        let ids: Vec<SessionId> =
            (0..specs.len()).map(|_| service.open_session().unwrap()).collect();
        let start = std::time::Instant::now();
        for ev in &schedule {
            service.client_think_ns(ev.gap_ns);
            service.submit(ids[ev.session_idx], ev.req.clone()).expect("routed open-loop submit");
        }
        let completed = service.drain_all().len() as u64;
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(completed, schedule.len() as u64, "every routed request must complete");
        let stats = service.stats();
        assert_eq!(stats.routed, completed, "every default submit rides the router");
        points.push(RoutedScalingPoint {
            lanes,
            sessions: specs.len(),
            requests: completed,
            elapsed_ms,
            rps: completed as f64 / (elapsed_ms / 1e3).max(1e-9),
            spills: stats.route_spills,
            stripe_fanouts: stats.stripe_fanouts,
        });
    }
    let rps_at = |lanes: usize| {
        points.iter().find(|p: &&RoutedScalingPoint| p.lanes == lanes).map(|p| p.rps)
    };
    let ratio_8v4 = match (rps_at(8), rps_at(4)) {
        (Some(eight), Some(four)) => eight / four.max(1e-12),
        _ => 0.0,
    };
    RoutedSample {
        policy: "stripe".into(),
        requests_per_session,
        points,
        ratio_8v4,
        spill: run_spill_experiment(),
    }
}

/// The failover-storm sub-experiment: three replica MMC lanes behind the
/// hash-shard router, failover and supervision on, a sticky read fault on
/// replica 0. The storm submits clean single-block reads across the whole
/// fleet; reads homed on the sick shard diverge, retry on a sibling under
/// the retry budget, and the watchdog quarantines the lane (its soft
/// reset clears the fault, so a recovery phase of homed reads then walks
/// it through probation back to [`LaneState::Healthy`]). Sequential exec
/// mode keeps the whole storm deterministic virtual time.
fn run_failover_experiment() -> FailoverSample {
    const REPLICAS: usize = 3;
    const STORM_READS: u32 = 72;
    const RECOVERY_READS: usize = 8;
    let bundle = record_mmc_driverlet_subset(&[1, 8]).expect("record mmc");
    let policy = RoutePolicy::HashShard { chunk_blocks: 16 };
    let devices: Vec<_> = (0..REPLICAS).map(|_| (Device::Mmc, bundle.clone())).collect();
    let config = ServeConfig {
        policy: Policy::Fifo,
        coalesce: false,
        hold_budget_ns: 0,
        queue_capacity: 128,
        route: RouteConfig { policy, spill: true },
        failover: FailoverConfig { enabled: true, retry_budget: 2, backoff_base_ns: 50_000 },
        supervise: SuperviseConfig {
            enabled: true,
            divergence_threshold: 2,
            window: 16,
            probation_ok: 4,
        },
        block_granularities: vec![1, 8],
        ..ServeConfig::default()
    };
    let mut service =
        DriverletService::with_driverlets(&devices, config).expect("build failover service");
    let session = service.open_session().expect("open session");
    service
        .inject_fault(
            LaneId { device: Device::Mmc, replica: 0 },
            FaultPlan { template: Some("_rd_".into()), sticky: true, ..FaultPlan::default() },
        )
        .expect("inject fault");

    // Storm: never-written (clean) extents spread over every shard, so a
    // fixed fraction homes on the faulted replica and must fail over.
    let mut submitted = 0u64;
    let mut completions: Vec<Completion> = Vec::new();
    for blkid in 0..STORM_READS {
        service
            .submit(session, Request::Read { device: Device::Mmc, blkid, blkcnt: 1 })
            .expect("storm read");
        submitted += 1;
    }
    completions.extend(service.drain_all());

    // Recovery: clean reads homed on the reset shard serve its probation.
    let homed: Vec<u32> =
        (0..4096).filter(|b| policy.replica_for(*b, REPLICAS) == 0).take(RECOVERY_READS).collect();
    for blkid in homed {
        service
            .submit(session, Request::Read { device: Device::Mmc, blkid, blkcnt: 1 })
            .expect("recovery read");
        submitted += 1;
    }
    completions.extend(service.drain_all());

    let completed_ok = completions.iter().filter(|c| c.result.is_ok()).count() as u64;
    let lost = submitted - completions.len() as u64;
    let stats = service.stats();
    let health = service
        .lane_health_check(LaneId { device: Device::Mmc, replica: 0 })
        .expect("health check");
    FailoverSample {
        replicas: REPLICAS,
        clean_reads: submitted,
        completed_ok,
        completion_rate: completed_ok as f64 / (submitted as f64).max(1.0),
        lost,
        failovers: stats.failovers,
        quarantines: stats.quarantines,
        lane_restored: stats.lane_restores >= 1 && health.state == LaneState::Healthy,
    }
}

/// The session-churn sub-experiment: `cycles` ephemeral sessions open,
/// touch the device and close against one long-lived resident; half close
/// with the read still in flight (orphan path), half reap first. The
/// sample records how many per-session metrics series outlived their
/// session.
fn run_churn_experiment(cycles: u64) -> ChurnSample {
    let config = ServeConfig {
        obs: ObsConfig::MetricsOnly,
        block_granularities: vec![1],
        ..ServeConfig::default()
    };
    let mut service = DriverletService::new(&[Device::Mmc], config).expect("build churn service");
    let resident = service.open_session().expect("resident session");
    let baseline = service.metrics_snapshot().sessions.len() as u64;
    for i in 0..cycles {
        let s = service.open_session().expect("churn session");
        service
            .submit(s, Request::Read { device: Device::Mmc, blkid: (i % 32) as u32, blkcnt: 1 })
            .expect("churn read");
        if i % 2 == 0 {
            service.close_session(s);
            service.drain_all();
        } else {
            service.drain_all();
            service.take_completions(s);
            service.close_session(s);
        }
    }
    service.drain_all();
    service.take_completions(resident);
    let series = service.metrics_snapshot().sessions.len() as u64;
    ChurnSample { cycles, leaked_series: series.saturating_sub(baseline) }
}

/// The adversarial-isolation experiment: two victim tenants run a fixed
/// read workload on one MMC lane; the attack arm adds a flooder that
/// bursts 12 submits per round against a per-tenant token bucket and a
/// 1/9 max-min share. Victim latency is compared across the arms — with
/// admission QoS doing its job, the flood lands on the flooder
/// ([`ServeError::Throttled`]) instead of the victims' tail.
pub fn run_isolation_bench(rounds: u32, churn_cycles: u64) -> IsolationSample {
    const VICTIMS: usize = 2;
    const VICTIM_READS_PER_ROUND: u32 = 4;
    const FLOOD_PER_ROUND: u32 = 12;
    let bundle = record_mmc_driverlet_subset(&[1, 8]).expect("record mmc");

    // (victim latencies, victim rejections, flooder throttled, flooder
    // completed) for one arm.
    let arm = |with_flooder: bool| -> (Vec<u64>, u64, u64, u64) {
        let config = ServeConfig {
            policy: Policy::Fifo,
            coalesce: false,
            hold_budget_ns: 0,
            queue_capacity: 16,
            qos: QosConfig {
                enabled: true,
                default_qos: SessionQos { rate_rps: 0, burst: 16, weight: 4 },
            },
            block_granularities: vec![1, 8],
            ..ServeConfig::default()
        };
        let mut service =
            DriverletService::with_driverlets(&[(Device::Mmc, bundle.clone())], config)
                .expect("build isolation service");
        let victims: Vec<SessionId> =
            (0..VICTIMS).map(|_| service.open_session().unwrap()).collect();
        let flooder = service.open_session().unwrap();
        service
            .set_session_qos(flooder, SessionQos { rate_rps: 200, burst: 4, weight: 1 })
            .expect("flooder qos");

        let mut victim_us: Vec<u64> = Vec::new();
        let mut victim_rejections = 0u64;
        let mut throttled = 0u64;
        let mut flooder_completed = 0u64;
        for round in 0..rounds {
            if with_flooder {
                // The flood goes first each round: whatever the gate
                // admits lands *ahead* of the victims in the FIFO queue,
                // so any leak through admission shows up in victim p99.
                for burst in 0..FLOOD_PER_ROUND {
                    let blkid = 4096 + (round * FLOOD_PER_ROUND + burst) % 64;
                    match service
                        .submit(flooder, Request::Read { device: Device::Mmc, blkid, blkcnt: 1 })
                    {
                        Ok(_) => {}
                        Err(ServeError::Throttled { .. }) => throttled += 1,
                        Err(e) => panic!("unexpected flooder submit error: {e}"),
                    }
                }
            }
            for (v, session) in victims.iter().enumerate() {
                for r in 0..VICTIM_READS_PER_ROUND {
                    let blkid = (round * VICTIM_READS_PER_ROUND + r) % 64 + 64 * (v as u32 + 1);
                    if service
                        .submit(*session, Request::Read { device: Device::Mmc, blkid, blkcnt: 1 })
                        .is_err()
                    {
                        victim_rejections += 1;
                    }
                }
            }
            for c in service.drain_all() {
                if c.session == flooder {
                    flooder_completed += 1;
                } else {
                    victim_us.push(c.latency_ns() / 1_000);
                }
            }
        }
        (victim_us, victim_rejections, throttled, flooder_completed)
    };

    let (mut baseline_us, baseline_rejections, _, _) = arm(false);
    let (mut attack_us, victim_rejections, flooder_throttled, flooder_completed) = arm(true);
    assert_eq!(baseline_rejections, 0, "the flooder-free arm must admit every victim read");
    assert_eq!(baseline_us.len(), attack_us.len(), "both arms complete every victim read");
    let baseline_p99_us = latency_sample(&mut baseline_us).p99_us;
    let attack_p99_us = latency_sample(&mut attack_us).p99_us;
    IsolationSample {
        victims: VICTIMS,
        victim_requests: attack_us.len() as u64,
        baseline_p99_us,
        attack_p99_us,
        p99_ratio: attack_p99_us as f64 / (baseline_p99_us as f64).max(1e-9),
        victim_rejections,
        flooder_throttled,
        flooder_completed,
        failover: run_failover_experiment(),
        churn: run_churn_experiment(churn_cycles),
    }
}

/// Run all the experiments.
pub fn run_serve_bench(quick: bool) -> ServeBenchReport {
    // The scaling lane budget stays at 2.4 s even in quick mode: a OneShot
    // capture costs ~2.3 s of camera-lane time (sensor init dominates), so
    // a smaller budget would leave the third lane idle and the CI
    // acceptance gate on ratio_3v1 would only measure 1→2-device scaling.
    // wall_requests stays modest even in full mode: the wall-clock arms
    // retain every 8-block read payload until the final reap, and past
    // ~16k in-flight requests the footprint (>64 MB of payloads) starts
    // measuring the allocator rather than lane parallelism.
    let (rounds, mixed_rounds, frames, budget_ns, bursts, ring_requests, wall_requests) = if quick {
        (6, 4, 10, 2_400_000_000, 30, 64, 512)
    } else {
        (24, 12, 100, 2_400_000_000, 200, 192, 1024)
    };
    let (routed_lanes, routed_requests): (&[usize], u32) =
        if quick { (&[1, 2, 4, 8], 48) } else { (&[1, 2, 4, 8, 16], 128) };
    let (isolation_rounds, churn_cycles) = if quick { (12, 60) } else { (40, 200) };
    let coalescing = run_coalescing_bench(8, rounds);
    let mixed = run_mixed_bench(mixed_rounds, frames);
    let scaling = run_scaling_bench(budget_ns);
    let hold_sweep = run_hold_sweep(bursts, &[0, 25, 100, 400, 3200]);
    let ring = run_ring_bench(ring_requests, 16);
    let wall_clock = run_wall_clock_bench(&[1, 2, 4, 8], wall_requests);
    let routed = run_routed_bench(routed_lanes, routed_requests);
    let isolation = run_isolation_bench(isolation_rounds, churn_cycles);
    ServeBenchReport {
        workload: format!(
            "serve layer: 8-session striped reads x {rounds} rounds (MMC); 10-session mixed \
             MMC+USB+VCHIQ x {mixed_rounds} rounds vs a {frames}-frame LongBurst; 1->3 device \
             weak scaling at {:.0} ms/lane; hold sweep over {bursts} bursts; ring-vs-legacy \
             open-loop Poisson mix at {ring_requests} requests/session, doorbell batch 16; \
             wall-clock sequential-vs-threaded at 1/2/4/8 replica MMC lanes x {wall_requests} \
             8-block reads/lane; routed replica-fleet weak scaling at {routed_requests} \
             requests/session plus the 4-replica spill experiment; adversarial isolation \
             (flooder vs 2 victims under QoS x {isolation_rounds} rounds, 3-replica failover \
             storm, {churn_cycles}-cycle session churn)",
            budget_ns as f64 / 1e6
        ),
        coalescing,
        mixed,
        scaling,
        hold_sweep,
        ring,
        wall_clock,
        routed,
        isolation,
    }
}

/// Serialise the report as pretty JSON.
pub fn report_json(report: &ServeBenchReport) -> String {
    serde_json::to_string_pretty(report).expect("report serialisation cannot fail")
}

/// Parse a previously persisted report.
pub fn parse_report(json: &str) -> Result<ServeBenchReport, String> {
    serde_json::from_str(json).map_err(|e| e.to_string())
}

/// Write the report to `path` (default artifact name: `BENCH_serve.json`).
pub fn emit_report(report: &ServeBenchReport, path: &str) -> std::io::Result<()> {
    std::fs::write(path, report_json(report))
}

/// Render the human-readable summary the bench prints.
pub fn describe(report: &ServeBenchReport) -> String {
    let c = &report.coalescing;
    let m = &report.mixed;
    let s = &report.scaling;
    let mut out = String::new();
    out.push_str(&format!("workload: {}\n", report.workload));
    out.push_str(&format!(
        "coalescing: {} sessions, {} requests: {:.0} req/s serial -> {:.0} req/s coalesced \
         ({:.2}x, {:.2} requests/replay)\n",
        c.sessions, c.requests, c.serial_rps, c.coalesced_rps, c.speedup, c.coalescing_ratio
    ));
    out.push_str(&format!(
        "mixed ({}-frame LongBurst racing): {} sessions, {} requests, {:.0} req/s, \
         block p99 {} us, {:.2} requests/replay, {} backpressure rejections\n",
        m.long_burst_frames,
        m.sessions,
        m.requests,
        m.rps,
        m.block_p99_us,
        m.coalescing_ratio,
        m.backpressure_rejections
    ));
    for d in &m.per_device {
        out.push_str(&format!(
            "  {:<6} {} completions: p50 {} us, p99 {} us, max {} us\n",
            d.device, d.completions, d.latency.p50_us, d.latency.p99_us, d.latency.max_us
        ));
    }
    for p in &s.points {
        out.push_str(&format!(
            "scaling: {} device(s): {} requests in {:.1} ms -> {:.0} req/s\n",
            p.devices, p.requests, p.elapsed_ms, p.rps
        ));
    }
    out.push_str(&format!("scaling ratio 3 vs 1 devices: {:.2}x\n", s.ratio_3v1));
    let r = &report.ring;
    for arm in [&r.legacy, &r.ring] {
        out.push_str(&format!(
            "submit {:<8}: {} block requests in {:.1} ms -> {:.0} req/s, {:.3} SMCs/request \
             ({} SMCs, {} doorbells, mean batch {:.1}, SQ occupancy {:.2}), p50 {} us, p99 {} us, \
             {:.2} requests/replay\n",
            arm.mode,
            arm.block_requests,
            arm.elapsed_ms,
            arm.rps,
            arm.smcs_per_request,
            arm.smcs,
            arm.doorbells,
            arm.mean_doorbell_batch,
            arm.sq_occupancy,
            arm.block_latency.p50_us,
            arm.block_latency.p99_us,
            arm.coalescing_ratio
        ));
    }
    out.push_str(&format!(
        "ring vs legacy at doorbell batch {}: {:.2}x request rate; closed-loop batch-1 p50 \
         {} us (ring) vs {} us (per-call)\n",
        r.doorbell_batch, r.speedup, r.batch1.ring_p50_us, r.batch1.legacy_p50_us
    ));
    for h in &report.hold_sweep {
        out.push_str(&format!(
            "hold {:>5} us{}: p50 {} us, p99 {} us, {:.2} requests/replay, {} holds\n",
            h.hold_budget_us,
            if h.is_default { " (default)" } else { "" },
            h.latency.p50_us,
            h.latency.p99_us,
            h.coalescing_ratio,
            h.holds
        ));
    }
    let w = &report.wall_clock;
    out.push_str(&format!(
        "wall-clock (host time, {} core(s), {} reads/lane):\n",
        w.host_cores, w.requests_per_lane
    ));
    for p in &w.points {
        out.push_str(&format!(
            "  {} lane(s): {} requests, sequential {:.1} ms vs threaded {:.1} ms -> {:.2}x\n",
            p.lanes, p.requests, p.sequential_ms, p.threaded_ms, p.speedup
        ));
    }
    let rt = &report.routed;
    out.push_str(&format!(
        "routed weak scaling ({} placement, host time, {} requests/session):\n",
        rt.policy, rt.requests_per_session
    ));
    for p in &rt.points {
        out.push_str(&format!(
            "  {} lane(s): {} sessions, {} requests in {:.1} ms -> {:.0} req/s \
             ({} spills, {} fan-outs)\n",
            p.lanes, p.sessions, p.requests, p.elapsed_ms, p.rps, p.spills, p.stripe_fanouts
        ));
    }
    out.push_str(&format!("routed scaling ratio 8 vs 4 lanes: {:.2}x\n", rt.ratio_8v4));
    let sp = &rt.spill;
    out.push_str(&format!(
        "spill ({} replicas, capacity {}): balanced p99 {} us vs skewed p99 {} us \
         ({:.2}x, {} spills, {} rejections over {} reads/arm)\n",
        sp.replicas,
        sp.queue_capacity,
        sp.balanced_p99_us,
        sp.skewed_p99_us,
        sp.p99_ratio,
        sp.spills,
        sp.rejections,
        sp.requests
    ));
    let iso = &report.isolation;
    out.push_str(&format!(
        "isolation ({} victims, {} victim reads/arm): baseline p99 {} us vs under-attack p99 \
         {} us ({:.2}x); {} victim rejections, flooder throttled {} / completed {}\n",
        iso.victims,
        iso.victim_requests,
        iso.baseline_p99_us,
        iso.attack_p99_us,
        iso.p99_ratio,
        iso.victim_rejections,
        iso.flooder_throttled,
        iso.flooder_completed
    ));
    let fo = &iso.failover;
    out.push_str(&format!(
        "failover storm ({} replicas, sticky read fault on replica 0): {}/{} clean reads \
         completed ({:.1}%), {} lost, {} failovers, {} quarantine(s), lane restored: {}\n",
        fo.replicas,
        fo.completed_ok,
        fo.clean_reads,
        fo.completion_rate * 100.0,
        fo.lost,
        fo.failovers,
        fo.quarantines,
        fo.lane_restored
    ));
    out.push_str(&format!(
        "session churn: {} open/close cycles, {} leaked metrics series\n",
        iso.churn.cycles, iso.churn.leaked_series
    ));
    out
}

/// One-line record for log scraping.
pub fn summary_line(report: &ServeBenchReport) -> String {
    let wall_4 =
        report.wall_clock.points.iter().find(|p| p.lanes == 4).map(|p| p.speedup).unwrap_or(0.0);
    format!(
        "serve_throughput coalesced={:.0} serial={:.0} speedup={:.2} scaling_3v1={:.2} \
         block_p99_us={} ring_speedup={:.2} ring_smcs_per_req={:.3} wall_4lane={:.2} cores={} \
         routed_8v4={:.2} spill_p99_ratio={:.2} spills={} iso_p99_ratio={:.2} \
         iso_victim_rejections={} failover_rate={:.3} quarantines={} churn_leaked={}",
        report.coalescing.coalesced_rps,
        report.coalescing.serial_rps,
        report.coalescing.speedup,
        report.scaling.ratio_3v1,
        report.mixed.block_p99_us,
        report.ring.speedup,
        report.ring.ring.smcs_per_request,
        wall_4,
        report.wall_clock.host_cores,
        report.routed.ratio_8v4,
        report.routed.spill.p99_ratio,
        report.routed.spill.spills,
        report.isolation.p99_ratio,
        report.isolation.victim_rejections,
        report.isolation.failover.completion_rate,
        report.isolation.failover.quarantines,
        report.isolation.churn.leaked_series
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_coalesced_sessions_double_the_serial_request_rate() {
        // The PR 3 acceptance bar, preserved across the multi-core
        // refactor: 8 concurrent sessions over one MMC device reach ≥ 2x
        // the requests/s of the same sessions issuing serially without
        // coalescing (the anticipatory hold captures each stripe).
        let sample = run_coalescing_bench(8, 4);
        assert_eq!(sample.requests, 32);
        assert!(
            sample.speedup >= 2.0,
            "coalesced {:.0} req/s vs serial {:.0} req/s is only {:.2}x",
            sample.coalesced_rps,
            sample.serial_rps,
            sample.speedup
        );
        assert!(sample.coalescing_ratio > 4.0, "stripes of 8 should fold into few replays");
    }

    #[test]
    fn block_p99_stays_in_lane_under_camera_load() {
        let m = run_mixed_bench(2, 10);
        assert!(m.requests > 0);
        assert!(m.latency.p99_us >= m.latency.p50_us);
        for d in ["mmc", "usb", "vchiq"] {
            assert!(m.per_device.iter().any(|l| l.device == d), "missing device {d}");
        }
        // The multi-core acceptance metric: block completions never
        // inherit the camera lane's burst time.
        assert!(
            m.block_p99_us < 1_000_000,
            "block p99 {} us must stay under 1 s despite the LongBurst",
            m.block_p99_us
        );
    }

    #[test]
    fn three_lanes_scale_mixed_throughput() {
        let s = run_scaling_bench(300_000_000);
        assert_eq!(s.points.len(), 3);
        assert!(
            s.ratio_3v1 >= 1.8,
            "3-device throughput must scale >= 1.8x over 1 device, got {:.2}x",
            s.ratio_3v1
        );
    }

    #[test]
    fn hold_budget_trades_latency_for_merge_ratio() {
        let sweep = run_hold_sweep(12, &[0, 100, 3200]);
        let baseline = &sweep[0];
        let default = &sweep[1];
        let greedy = &sweep[2];
        assert!(default.is_default);
        assert!(
            default.coalescing_ratio > baseline.coalescing_ratio * 2.0,
            "the default hold must merge far more than no-hold ({:.2} vs {:.2})",
            default.coalescing_ratio,
            baseline.coalescing_ratio
        );
        let p50_limit = baseline.latency.p50_us as f64 * 1.10;
        assert!(
            (default.latency.p50_us as f64) <= p50_limit,
            "default-budget p50 {} us must stay within 10% of the no-hold baseline {} us",
            default.latency.p50_us,
            baseline.latency.p50_us
        );
        assert!(greedy.holds > 0 && default.holds > 0);
        assert!(
            greedy.latency.p50_us > default.latency.p50_us,
            "an oversized budget should visibly trade p50 for ratio"
        );
    }

    #[test]
    fn rings_amortise_world_switches_into_throughput() {
        let r = run_ring_bench(48, 16);
        assert_eq!(r.legacy.requests, r.ring.requests);
        assert!(r.ring.doorbells > 0 && r.legacy.doorbells == 0);
        assert!(
            r.ring.mean_doorbell_batch >= 8.0,
            "doorbells must amortise several entries, got {:.1}",
            r.ring.mean_doorbell_batch
        );
        assert!(
            r.ring.smcs_per_request <= 0.25,
            "ring mode must stay under 0.25 SMCs/request at batch 16, got {:.3}",
            r.ring.smcs_per_request
        );
        assert!(
            r.legacy.smcs_per_request >= 1.0,
            "the per-call arm pays at least one switch per request, got {:.3}",
            r.legacy.smcs_per_request
        );
        assert!(
            r.speedup >= 1.5,
            "ring mode must reach >= 1.5x the legacy request rate, got {:.2}x \
             ({:.0} vs {:.0} req/s)",
            r.speedup,
            r.ring.rps,
            r.legacy.rps
        );
        assert!(
            r.batch1.ring_p50_us <= r.batch1.legacy_p50_us,
            "batch-1 ring p50 ({} us) must be no worse than per-call ({} us)",
            r.batch1.ring_p50_us,
            r.batch1.legacy_p50_us
        );
    }

    #[test]
    fn wall_clock_points_complete_every_request_on_both_arms() {
        // The wall-clock experiment measures host time, so no speedup
        // assertion here (the dev container may have one core — the
        // conditional ≥ 2x gate lives in the serve_throughput bench).
        // What must hold anywhere: both arms finish the full workload at
        // every lane count and report positive makespans.
        let sample = run_wall_clock_bench(&[1, 2], 48);
        assert!(sample.host_cores >= 1);
        assert_eq!(sample.points.len(), 2);
        for p in &sample.points {
            assert_eq!(p.requests, 48 * p.lanes as u64);
            assert!(p.sequential_ms > 0.0 && p.threaded_ms > 0.0);
            assert!(p.speedup > 0.0);
        }
    }

    #[test]
    fn routed_fleet_completes_and_spill_stays_bounded() {
        // Small lane counts keep this unit-sized; the 4/8/16-lane curve
        // (and its conditional ≥ 1.7x gate) lives in the serve_throughput
        // bench. What must hold anywhere: every request completes through
        // the router, the skewed arm actually sheds load, nothing is
        // rejected (one fleet's worth per round fits exactly), and the
        // victim's virtual-time p99 stays within 2x the balanced baseline.
        let sample = run_routed_bench(&[1, 2], 12);
        assert_eq!(sample.points.len(), 2);
        for p in &sample.points {
            assert_eq!(p.sessions, 3 * p.lanes, "three read-only sessions per lane");
            assert_eq!(p.requests, 3 * 12 * p.lanes as u64, "weak scaling: load grows with lanes");
            assert!(p.elapsed_ms > 0.0 && p.rps > 0.0);
        }
        let sp = &sample.spill;
        assert!(sp.spills > 0, "the skewed arm must shed clean reads to siblings");
        assert_eq!(sp.rejections, 0, "one fleet's worth per round never overflows the fleet");
        assert!(
            sp.p99_ratio <= 2.0,
            "spill must keep the hot shard's p99 within 2x balanced, got {:.2}x \
             ({} us vs {} us)",
            sp.p99_ratio,
            sp.skewed_p99_us,
            sp.balanced_p99_us
        );
    }

    #[test]
    fn isolation_gates_hold() {
        // The robustness-plane SLOs at unit scale; the CI-sized run (and
        // its gates) lives in the serve_throughput bench. All virtual
        // time, so the sample reproduces exactly.
        let iso = run_isolation_bench(8, 24);
        assert_eq!(
            iso.victim_rejections, 0,
            "admission QoS must never turn the victims away while the flooder hammers the lane"
        );
        assert!(iso.flooder_throttled > 0, "the gate must visibly throttle the flooder");
        assert!(
            iso.p99_ratio <= 2.0,
            "victim p99 under attack must stay within 2x the flooder-free baseline, got {:.2}x \
             ({} us vs {} us)",
            iso.p99_ratio,
            iso.attack_p99_us,
            iso.baseline_p99_us
        );
        let fo = &iso.failover;
        assert!(
            fo.completion_rate >= 0.99,
            "failover must carry >= 99% of clean reads past the sticky fault, got {:.3}",
            fo.completion_rate
        );
        assert_eq!(fo.lost, 0, "no read may vanish during the storm");
        assert!(fo.failovers >= 1, "reads homed on the sick shard must retry on a sibling");
        assert!(fo.quarantines >= 1, "the watchdog must trip the diverging lane");
        assert!(fo.lane_restored, "the lane must serve its probation back to Healthy");
        assert_eq!(iso.churn.leaked_series, 0, "session churn must leak no metrics series");
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = run_serve_bench(true);
        let json = report_json(&report);
        assert!(json.contains("coalescing"));
        assert!(json.contains("block_p99_us"));
        assert!(json.contains("ratio_3v1"));
        assert!(json.contains("wall_clock"));
        assert!(json.contains("routed"));
        assert!(json.contains("p99_ratio"));
        assert!(json.contains("isolation"));
        assert!(json.contains("flooder_throttled"));
        assert!(json.contains("leaked_series"));
        let parsed = parse_report(&json).expect("parse persisted report");
        assert_eq!(parsed.scaling.points.len(), report.scaling.points.len());
        assert!((parsed.scaling.ratio_3v1 - report.scaling.ratio_3v1).abs() < 1e-9);
        assert_eq!(parsed.wall_clock.points.len(), report.wall_clock.points.len());
        assert_eq!(parsed.wall_clock.host_cores, report.wall_clock.host_cores);
        assert_eq!(parsed.routed.points.len(), report.routed.points.len());
        assert_eq!(parsed.routed.spill.spills, report.routed.spill.spills);
        assert_eq!(parsed.isolation.victim_rejections, report.isolation.victim_rejections);
        assert_eq!(parsed.isolation.failover.quarantines, report.isolation.failover.quarantines);
        // A pre-robustness artifact (no `isolation` section) must fail to
        // parse the same way, so stale SLO numbers never get reprinted.
        let stale_iso = json.replace("\"isolation\"", "\"isolation_gone\"");
        assert!(parse_report(&stale_iso).is_err(), "pre-robustness schema must be rejected");
        // A pre-router artifact (no `routed` section) must fail to parse,
        // so the report binary regenerates instead of printing stale data.
        let stale = json.replace("\"routed\"", "\"routed_gone\"");
        assert!(parse_report(&stale).is_err(), "stale schema must be rejected");
    }
}
