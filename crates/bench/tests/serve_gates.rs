//! The serve layer's virtual-time gates, each checked once and pinned.
//!
//! Every experiment here runs in virtual time (the simulator's
//! deterministic clock), so the integers behind each gate are exact. Each
//! test asserts the bounds the serve layer claims and pins those integers,
//! one `label key=value` row per number, in the style of the workspace's
//! `tests/virtual_behaviour_pin.rs`. A change that moves a value inside its
//! bound still fails here. Ratios (speedups, SMCs per request, p99 ratios)
//! are computed from the pinned integers. Latencies are microseconds,
//! makespans nanoseconds.
//!
//! When a change moves a value on purpose, rerun the failing test, copy the
//! "current values" it prints into that test's `PINNED_*` table and record
//! the moved rows in CHANGES.md.
//!
//! The host-time halves of the serve bench (wall-clock lane parallelism and
//! routed weak scaling) stay in `benches/serve_throughput.rs`.

use dlt_bench::arrivals::{heterogeneous_schedule, mixed_tenant_specs, ArrivalEvent};
use dlt_core::FaultPlan;
use dlt_obs::ObsConfig;
use dlt_recorder::campaign::{
    record_camera_driverlet_subset, record_mmc_driverlet_subset, record_usb_driverlet_subset,
};
use dlt_serve::{
    Completion, Device, DriverletService, FailoverConfig, LaneId, LaneState, Policy, QosConfig,
    Request, RouteConfig, RoutePolicy, ServeConfig, ServeError, SessionId, SessionQos, SubmitMode,
    SuperviseConfig, BLOCK,
};
use dlt_template::Driverlet;

/// The pinned rows of one experiment, built in measurement order.
#[derive(Default)]
struct Rows(Vec<String>);

impl Rows {
    /// Record `label key=value`.
    fn pin(&mut self, label: &str, key: &str, value: u64) {
        self.0.push(format!("{label} {key}={value}"));
    }

    /// Fail, listing every row that differs from `pinned` and then all
    /// current rows, unless they match exactly.
    fn check(&self, experiment: &str, pinned: &[&str]) {
        let rows = &self.0;
        let changed: Vec<String> = (0..rows.len().max(pinned.len()))
            .map(|i| (rows.get(i).map(String::as_str), pinned.get(i).copied()))
            .filter(|(got, want)| got != want)
            .map(|(got, want)| {
                format!(
                    "  got  {}\n  want {}",
                    got.unwrap_or("<missing>"),
                    want.unwrap_or("<missing>")
                )
            })
            .collect();
        assert!(
            changed.is_empty(),
            "the {experiment} experiment's virtual-time values changed. A pin may change only \
             with an intended serve-layer or cost-model change recorded in CHANGES.md.\n{}\n\
             current values:\n{:#?}",
            changed.join("\n"),
            rows
        );
    }
}

/// The value at quantile `p` of `us` (nearest rank on the sorted values).
fn percentile(us: &mut [u64], p: f64) -> u64 {
    us.sort_unstable();
    us.get(((us.len().saturating_sub(1)) as f64 * p).round() as usize).copied().unwrap_or(0)
}

fn latency_us(c: &Completion) -> u64 {
    c.latency_ns() / 1_000
}

fn read(device: Device, blkid: u32) -> Request {
    Request::Read { device, blkid, blkcnt: 1 }
}

/// `replicas` MMC lanes loaded from one bundle, under `config`.
fn mmc_fleet(bundle: &Driverlet, replicas: usize, config: ServeConfig) -> DriverletService {
    let devices: Vec<_> = (0..replicas).map(|_| (Device::Mmc, bundle.clone())).collect();
    DriverletService::with_driverlets(&devices, config).expect("build service")
}

/// One arm of the coalescing experiment.
struct CoalescingArm {
    requests: u64,
    makespan_ns: u64,
    replays: u64,
}

/// 8 sessions read a striped sequential range (session i reads block
/// `1024 + round * 8 + i`) for 6 rounds. The coalesced arm submits each
/// whole stripe and then drains, so the anticipatory hold folds it into one
/// replay. The serial arm drains after every submit with coalescing off.
fn coalescing_arm(coalesce: bool) -> CoalescingArm {
    const SESSIONS: u32 = 8;
    const ROUNDS: u32 = 6;
    let config = ServeConfig {
        coalesce,
        policy: Policy::Fifo,
        block_granularities: vec![1, 8, 32],
        ..ServeConfig::default()
    };
    let mut service = DriverletService::new(&[Device::Mmc], config).expect("build service");
    let ids: Vec<SessionId> = (0..SESSIONS).map(|_| service.open_session().unwrap()).collect();
    let t0 = service.now_ns();
    let mut requests = 0u64;
    for round in 0..ROUNDS {
        for (i, session) in (0..).zip(&ids) {
            service.submit(*session, read(Device::Mmc, 1024 + round * SESSIONS + i)).unwrap();
            if !coalesce {
                requests += service.drain_all().len() as u64;
            }
        }
        if coalesce {
            requests += service.drain_all().len() as u64;
        }
    }
    CoalescingArm { requests, makespan_ns: service.now_ns() - t0, replays: service.stats().replays }
}

#[test]
fn coalescing_doubles_the_serial_request_rate() {
    let coalesced = coalescing_arm(true);
    let serial = coalescing_arm(false);
    assert_eq!(coalesced.requests, serial.requests, "both arms must serve every request");

    let mut rows = Rows::default();
    rows.pin("coalescing", "requests", coalesced.requests);
    rows.pin("coalescing/coalesced", "makespan_ns", coalesced.makespan_ns);
    rows.pin("coalescing/coalesced", "replays", coalesced.replays);
    rows.pin("coalescing/serial", "makespan_ns", serial.makespan_ns);
    rows.pin("coalescing/serial", "replays", serial.replays);
    rows.check("coalescing", PINNED_COALESCING);

    // Equal request counts, so the request-rate ratio is the makespan ratio.
    let speedup = serial.makespan_ns as f64 / coalesced.makespan_ns as f64;
    assert!(
        speedup >= 2.0,
        "coalesced must reach >= 2x the serial request rate, got {speedup:.2}x"
    );
    let per_replay = coalesced.requests as f64 / coalesced.replays as f64;
    assert!(per_replay > 4.0, "stripes of 8 must fold into few replays, got {per_replay:.2}");
}

const PINNED_COALESCING: &[&str] = &[
    "coalescing requests=48",
    "coalescing/coalesced makespan_ns=3923964",
    "coalescing/coalesced replays=6",
    "coalescing/serial makespan_ns=11454416",
    "coalescing/serial replays=48",
];

/// What the mixed-traffic experiment observed.
struct MixedRun {
    /// Latency of every completion, by device.
    latencies: Vec<(Device, u64)>,
    makespan_ns: u64,
    /// Submits refused with `QueueFull` (each retried after a drain).
    rejected: u64,
}

/// 4 MMC and 4 USB block sessions run 4 rounds of reads and writes under
/// deficit round-robin while a 10-frame LongBurst capture runs on the
/// camera lane, and a second camera session takes one frame midway. The
/// block clients observe their own completions each round but never wait
/// on the camera, so per-lane clocks keep block latency on the block lanes.
fn mixed_traffic() -> MixedRun {
    const ROUNDS: u32 = 4;
    const LONG_BURST_FRAMES: u32 = 10;
    let config = ServeConfig {
        policy: Policy::DeficitRoundRobin { quantum_blocks: 64 },
        block_granularities: vec![1, 8, 32],
        camera_bursts: vec![1, LONG_BURST_FRAMES],
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let mut service = DriverletService::new(&[Device::Mmc, Device::Usb, Device::Vchiq], config)
        .expect("build service");
    let mut open =
        |n: usize| -> Vec<SessionId> { (0..n).map(|_| service.open_session().unwrap()).collect() };
    let (mmc, usb, cam) = (open(4), open(4), open(2));
    let mut latencies = Vec::new();
    let mut observe = |service: &mut DriverletService, session: SessionId| {
        for c in service.take_completions(session) {
            c.result.as_ref().expect("mixed traffic stays in coverage");
            latencies.push((c.device, latency_us(&c)));
        }
    };

    let t0 = service.now_ns();
    // The LongBurst starts first, so every block completion races it.
    service
        .submit(cam[0], Request::Capture { frames: LONG_BURST_FRAMES, resolution: 720 })
        .unwrap();
    // xorshift64*: a fixed stream decides each session's next request.
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    for round in 0..ROUNDS {
        for (device, sessions) in [(Device::Mmc, &mmc), (Device::Usb, &usb)] {
            for (i, session) in (0..).zip(sessions) {
                let r = next();
                // A hot range per session, with frequent adjacency.
                let blkid = 2048 + i * 64 + (r % 48) as u32;
                let blkcnt = [1u32, 1, 8, 8, 32][(r >> 8) as usize % 5];
                let req = if r % 4 == 0 {
                    let data = vec![(r >> 16) as u8; blkcnt as usize * BLOCK];
                    Request::Write { device, blkid, data }
                } else {
                    Request::Read { device, blkid, blkcnt }
                };
                // Backpressure names the saturated device: drain only
                // that lane, then retry.
                if let Err(e) = service.submit(*session, req.clone()) {
                    let ServeError::QueueFull { device, .. } = e else { panic!("submit: {e}") };
                    service.drain_device(device);
                    service.submit(*session, req).expect("submit after a device drain");
                }
            }
        }
        if round == ROUNDS / 2 {
            service.submit(cam[1], Request::Capture { frames: 1, resolution: 720 }).unwrap();
        }
        service.drain_device(Device::Mmc);
        service.drain_device(Device::Usb);
        for session in mmc.iter().chain(&usb) {
            observe(&mut service, *session);
        }
    }
    // Join on the camera lane last.
    service.drain_all();
    for session in &cam {
        observe(&mut service, *session);
    }
    MixedRun { latencies, makespan_ns: service.now_ns() - t0, rejected: service.stats().rejected }
}

#[test]
fn block_p99_stays_in_lane_beside_a_long_burst() {
    let run = mixed_traffic();
    let mut rows = Rows::default();
    rows.pin("mixed", "requests", run.latencies.len() as u64);
    rows.pin("mixed", "makespan_ns", run.makespan_ns);
    rows.pin("mixed", "rejections", run.rejected);
    let of = |keep: &dyn Fn(Device) -> bool| -> Vec<u64> {
        run.latencies.iter().filter(|(d, _)| keep(*d)).map(|(_, us)| *us).collect()
    };
    for device in [Device::Mmc, Device::Usb, Device::Vchiq] {
        let mut us = of(&|d| d == device);
        assert!(!us.is_empty(), "no {device} completions");
        rows.pin(&format!("mixed/{device}"), "requests", us.len() as u64);
        rows.pin(&format!("mixed/{device}"), "p50_us", percentile(&mut us, 0.50));
        rows.pin(&format!("mixed/{device}"), "p99_us", percentile(&mut us, 0.99));
    }
    let block_p99_us = percentile(&mut of(&|d| d != Device::Vchiq), 0.99);
    rows.pin("mixed/block", "p99_us", block_p99_us);
    rows.check("mixed traffic", PINNED_MIXED);

    // Block completions never inherit the camera lane's burst time.
    assert!(block_p99_us < 1_000_000, "block p99 {block_p99_us} us must stay under 1 s");
}

const PINNED_MIXED: &[&str] = &[
    "mixed requests=34",
    "mixed makespan_ns=7786625668",
    "mixed rejections=0",
    "mixed/mmc requests=16",
    "mixed/mmc p50_us=1801",
    "mixed/mmc p99_us=3388",
    "mixed/usb requests=16",
    "mixed/usb p50_us=3347",
    "mixed/usb p99_us=6450",
    "mixed/vchiq requests=2",
    "mixed/vchiq p50_us=7774794",
    "mixed/vchiq p99_us=7774794",
    "mixed/block p99_us=6450",
];

/// One point of the scaling experiment.
struct ScalingPoint {
    requests: u64,
    makespan_ns: u64,
}

/// Weak scaling from 1 lane (MMC) over 2 (MMC+USB) to 3 (MMC+USB+VCHIQ):
/// 8 sessions fill every block lane with coalescible stripes until its
/// busy time reaches 2.4 s, and the camera lane takes one OneShot capture
/// (about 2.3 s of sensor init) inside the same budget.
fn scaling_point(devices: &[Device]) -> ScalingPoint {
    const LANE_BUDGET_NS: u64 = 2_400_000_000;
    let config = ServeConfig {
        policy: Policy::Fifo,
        block_granularities: vec![1, 8, 32],
        camera_bursts: vec![1],
        ..ServeConfig::default()
    };
    let mut service = DriverletService::new(devices, config).expect("build service");
    let sessions: Vec<SessionId> = (0..8).map(|_| service.open_session().unwrap()).collect();
    let t0 = service.now_ns();
    if devices.contains(&Device::Vchiq) {
        service.submit(sessions[0], Request::Capture { frames: 1, resolution: 720 }).unwrap();
    }
    let mut requests = 0u64;
    for round in 0.. {
        let open: Vec<Device> = service
            .lane_status()
            .iter()
            .filter(|l| l.device != Device::Vchiq && l.busy_ns < LANE_BUDGET_NS)
            .map(|l| l.device)
            .collect();
        if open.is_empty() {
            break;
        }
        for device in open {
            for (i, session) in (0..).zip(&sessions) {
                service.submit(*session, read(device, 1024 + round * 8 + i)).unwrap();
            }
        }
        requests += service.drain_all().len() as u64;
    }
    requests += service.drain_all().len() as u64;
    ScalingPoint { requests, makespan_ns: service.now_ns() - t0 }
}

#[test]
fn three_lanes_scale_throughput_and_overlap_the_camera() {
    let sets: [&[Device]; 3] =
        [&[Device::Mmc], &[Device::Mmc, Device::Usb], &[Device::Mmc, Device::Usb, Device::Vchiq]];
    let points: Vec<ScalingPoint> = sets.iter().map(|d| scaling_point(d)).collect();
    let mut rows = Rows::default();
    for (n, p) in (1..).zip(&points) {
        rows.pin(&format!("scaling/{n}-device"), "requests", p.requests);
        rows.pin(&format!("scaling/{n}-device"), "makespan_ns", p.makespan_ns);
    }
    rows.check("scaling", PINNED_SCALING);

    let rps = |p: &ScalingPoint| p.requests as f64 / p.makespan_ns as f64;
    let ratio = rps(&points[2]) / rps(&points[0]);
    assert!(ratio >= 1.8, "3 lanes must scale >= 1.8x over 1, got {ratio:.2}x");
    // The third lane's evidence is makespan invariance: its capture rides
    // inside the block lanes' makespan instead of adding to it.
    assert!(
        points[2].makespan_ns as f64 <= points[1].makespan_ns as f64 * 1.05,
        "the camera capture must overlap the block lanes"
    );
}

const PINNED_SCALING: &[&str] = &[
    "scaling/1-device requests=30240",
    "scaling/1-device makespan_ns=2400391320",
    "scaling/2-device requests=59496",
    "scaling/2-device makespan_ns=2400827080",
    "scaling/3-device requests=59497",
    "scaling/3-device makespan_ns=2400841080",
];

/// One budget of the hold sweep.
struct HoldPoint {
    budget_us: u64,
    requests: u64,
    p50_us: u64,
    p99_us: u64,
    replays: u64,
    holds: u64,
}

/// One session issues 30 bursts of 8 adjacent single-block reads, 2 ms of
/// client think time apart. A hold captures a whole burst in one plug
/// window and serves it as one 8-block replay; without one, the first read
/// of each burst dispatches alone and the rest fragment.
fn hold_point(bundle: &Driverlet, budget_us: u64) -> HoldPoint {
    const BURSTS: u32 = 30;
    let config = ServeConfig {
        policy: Policy::Fifo,
        hold_budget_ns: budget_us * 1_000,
        block_granularities: vec![1, 8],
        queue_capacity: (BURSTS as usize + 1) * 8,
        ..ServeConfig::default()
    };
    let mut service = mmc_fleet(bundle, 1, config);
    let session = service.open_session().unwrap();
    for burst in 0..BURSTS {
        for i in 0..8 {
            service.submit(session, read(Device::Mmc, 512 + burst * 8 + i)).unwrap();
        }
        service.client_think_ns(2_000_000);
    }
    let mut us: Vec<u64> = service.drain_all().iter().map(latency_us).collect();
    assert_eq!(us.len(), BURSTS as usize * 8, "every burst read completes");
    let stats = service.stats();
    HoldPoint {
        budget_us,
        requests: us.len() as u64,
        p50_us: percentile(&mut us, 0.50),
        p99_us: percentile(&mut us, 0.99),
        replays: stats.replays,
        holds: stats.holds,
    }
}

#[test]
fn the_default_hold_merges_bursts_without_raising_p50() {
    let bundle = record_mmc_driverlet_subset(&[1, 8]).expect("record mmc");
    let default_us = ServeConfig::default().hold_budget_ns / 1_000;
    let sweep: Vec<HoldPoint> =
        [0, 25, 100, 400, 3200].into_iter().map(|us| hold_point(&bundle, us)).collect();
    let mut rows = Rows::default();
    rows.pin("hold", "default_budget_us", default_us);
    for p in &sweep {
        let label = format!("hold/{}us", p.budget_us);
        rows.pin(&label, "requests", p.requests);
        rows.pin(&label, "p50_us", p.p50_us);
        rows.pin(&label, "p99_us", p.p99_us);
        rows.pin(&label, "replays", p.replays);
        rows.pin(&label, "holds", p.holds);
    }
    rows.check("hold sweep", PINNED_HOLD);

    let at = |us: u64| sweep.iter().find(|p| p.budget_us == us).expect("swept budget");
    let (none, default, greedy) = (at(0), at(default_us), at(3200));
    assert!(
        default.p50_us as f64 <= none.p50_us as f64 * 1.10,
        "the default hold must keep p50 within 10% of no hold ({} vs {} us)",
        default.p50_us,
        none.p50_us
    );
    // Equal request counts, so the merge-ratio ratio is the replay ratio.
    assert!(
        none.replays > 2 * default.replays,
        "the default hold must merge more than twice as much as no hold"
    );
    assert!(default.holds > 0 && greedy.holds > 0, "both budgets must hold");
    assert!(greedy.p50_us > default.p50_us, "an oversized budget must trade p50 for merging");
}

const PINNED_HOLD: &[&str] = &[
    "hold default_budget_us=100",
    "hold/0us requests=240",
    "hold/0us p50_us=1864",
    "hold/0us p99_us=1906",
    "hold/0us replays=240",
    "hold/0us holds=0",
    "hold/25us requests=240",
    "hold/25us p50_us=1875",
    "hold/25us p99_us=1917",
    "hold/25us replays=240",
    "hold/25us holds=30",
    "hold/100us requests=240",
    "hold/100us p50_us=706",
    "hold/100us p99_us=748",
    "hold/100us replays=30",
    "hold/100us holds=30",
    "hold/400us requests=240",
    "hold/400us p50_us=1006",
    "hold/400us p99_us=1048",
    "hold/400us replays=30",
    "hold/400us holds=30",
    "hold/3200us requests=240",
    "hold/3200us p50_us=2329",
    "hold/3200us p99_us=4483",
    "hold/3200us replays=30",
    "hold/3200us holds=10",
];

/// One submit mode's run over the shared open-loop schedule.
struct RingArm {
    requests: u64,
    block_requests: u64,
    /// Makespan of the block plane: the control clock and the block lanes.
    makespan_ns: u64,
    smcs: u64,
    doorbells: u64,
    doorbell_entries: u64,
    replays: u64,
    block_p50_us: u64,
    block_p99_us: u64,
}

/// Entries staged between doorbells on the ring arm.
const DOORBELL_BATCH: usize = 16;

/// Drive the heterogeneous open-loop schedule (hot-range readers,
/// streamers and a bursty camera tenant) down one submit mode. Both arms
/// share the schedule and the bundles, so only the submission path
/// differs. The lane queues hold the whole backlog and the dispatch
/// window is wide, so admission backpressure and per-span device costs do
/// not mask the submission path.
fn ring_arm(
    mode: SubmitMode,
    schedule: &[ArrivalEvent],
    bundles: &[(Device, Driverlet)],
) -> RingArm {
    let sessions = 1 + schedule.iter().map(|ev| ev.session_idx).max().unwrap_or(0);
    let config = ServeConfig {
        policy: Policy::Fifo,
        submit_mode: mode,
        sq_depth: 64,
        queue_capacity: schedule.len().max(128),
        coalesce_window: 256,
        max_sessions: sessions.max(64),
        block_granularities: vec![1, 8, 32],
        camera_bursts: vec![1],
        ..ServeConfig::default()
    };
    let mut service = DriverletService::with_driverlets(bundles, config).expect("build service");
    let ids: Vec<SessionId> = (0..sessions).map(|_| service.open_session().unwrap()).collect();
    for (n, ev) in (1..).zip(schedule) {
        service.client_think_ns(ev.gap_ns);
        service.submit(ids[ev.session_idx], ev.req.clone()).expect("open-loop submit");
        if mode == SubmitMode::Ring && n % DOORBELL_BATCH == 0 {
            service.ring_doorbell().expect("doorbell");
        }
    }
    let done = service.drain_all();
    // Read the block plane's makespan before any reap fast-forwards the
    // control clock to lane time. The camera lane's sensor-init floor is
    // the same in both modes, so it is left out.
    let block_lanes_ns = service
        .lane_status()
        .iter()
        .filter(|l| l.device != Device::Vchiq)
        .map(|l| l.now_ns)
        .max()
        .unwrap_or(0);
    let makespan_ns = service.control_now_ns().max(block_lanes_ns);
    let mut block_us: Vec<u64> = Vec::new();
    for c in &done {
        c.result.as_ref().expect("the schedule stays in coverage");
        if c.device != Device::Vchiq {
            block_us.push(latency_us(c));
        }
    }
    // Clients reap their completions, so the SMC count covers the whole
    // submit-to-reap round trip (per-call reaps pay a switch, ring reaps
    // do not).
    for id in &ids {
        service.take_completions(*id);
    }
    let stats = service.stats();
    RingArm {
        requests: done.len() as u64,
        block_requests: block_us.len() as u64,
        makespan_ns,
        smcs: service.smc_calls(),
        doorbells: stats.doorbells,
        doorbell_entries: stats.doorbell_entries,
        replays: stats.replays,
        block_p50_us: percentile(&mut block_us, 0.50),
        block_p99_us: percentile(&mut block_us, 0.99),
    }
}

/// p50 latency of 64 closed-loop single-block reads, each submitted,
/// drained and reaped before the next (a doorbell per enqueue on the ring
/// path). Holding is off, as for any single-op closed-loop client.
fn batch1_p50_us(mode: SubmitMode, bundle: &Driverlet) -> u64 {
    let config = ServeConfig {
        submit_mode: mode,
        hold_budget_ns: 0,
        block_granularities: vec![1, 8],
        ..ServeConfig::default()
    };
    let mut service = mmc_fleet(bundle, 1, config);
    let session = service.open_session().unwrap();
    let mut us: Vec<u64> = (0..64)
        .map(|i| {
            service.submit(session, read(Device::Mmc, 512 + i)).unwrap();
            let done = service.drain_all();
            assert_eq!(done.len(), 1);
            service.take_completions(session);
            latency_us(&done[0])
        })
        .collect();
    percentile(&mut us, 0.50)
}

#[test]
fn rings_amortise_world_switches_into_throughput() {
    let schedule = heterogeneous_schedule(&mixed_tenant_specs(64, 60_000), 0x5eed);
    let bundles = vec![
        (Device::Mmc, record_mmc_driverlet_subset(&[1, 8, 32]).expect("record mmc")),
        (Device::Usb, record_usb_driverlet_subset(&[1, 8, 32]).expect("record usb")),
        (Device::Vchiq, record_camera_driverlet_subset(&[1]).expect("record camera")),
    ];
    let per_call = ring_arm(SubmitMode::PerCall, &schedule, &bundles);
    let ring = ring_arm(SubmitMode::Ring, &schedule, &bundles);
    assert_eq!(per_call.requests, ring.requests, "both arms complete the same schedule");
    assert_eq!(per_call.block_requests, ring.block_requests);
    let batch1_per_call_us = batch1_p50_us(SubmitMode::PerCall, &bundles[0].1);
    let batch1_ring_us = batch1_p50_us(SubmitMode::Ring, &bundles[0].1);

    let mut rows = Rows::default();
    for (label, arm) in [("ring/per-call", &per_call), ("ring/ring", &ring)] {
        rows.pin(label, "requests", arm.requests);
        rows.pin(label, "block_requests", arm.block_requests);
        rows.pin(label, "makespan_ns", arm.makespan_ns);
        rows.pin(label, "smcs", arm.smcs);
        rows.pin(label, "doorbells", arm.doorbells);
        rows.pin(label, "doorbell_entries", arm.doorbell_entries);
        rows.pin(label, "replays", arm.replays);
        rows.pin(label, "p50_us", arm.block_p50_us);
        rows.pin(label, "p99_us", arm.block_p99_us);
    }
    rows.pin("ring/batch1-per-call", "p50_us", batch1_per_call_us);
    rows.pin("ring/batch1-ring", "p50_us", batch1_ring_us);
    rows.check("ring", PINNED_RING);

    // Equal block request counts, so the rate ratio is the makespan ratio.
    let speedup = per_call.makespan_ns as f64 / ring.makespan_ns as f64;
    assert!(speedup >= 1.5, "rings must reach >= 1.5x the per-call rate, got {speedup:.2}x");
    let smcs_per_request = |arm: &RingArm| arm.smcs as f64 / arm.requests as f64;
    assert!(smcs_per_request(&ring) <= 0.25, "rings must stay at <= 0.25 SMCs per request");
    assert!(smcs_per_request(&per_call) >= 1.0, "per-call pays a switch per request");
    assert!(ring.doorbells > 0 && per_call.doorbells == 0);
    assert!(
        ring.doorbell_entries >= 8 * ring.doorbells,
        "each doorbell must admit at least 8 entries on average"
    );
    assert!(batch1_ring_us <= batch1_per_call_us, "a batch-1 doorbell must not tax latency");
}

const PINNED_RING: &[&str] = &[
    "ring/per-call requests=802",
    "ring/per-call block_requests=800",
    "ring/per-call makespan_ns=17895204",
    "ring/per-call smcs=832",
    "ring/per-call doorbells=0",
    "ring/per-call doorbell_entries=0",
    "ring/per-call replays=91",
    "ring/per-call p50_us=1601",
    "ring/per-call p99_us=3797",
    "ring/ring requests=802",
    "ring/ring block_requests=800",
    "ring/ring makespan_ns=8531324",
    "ring/ring smcs=66",
    "ring/ring doorbells=51",
    "ring/ring doorbell_entries=802",
    "ring/ring replays=40",
    "ring/ring p50_us=2903",
    "ring/ring p99_us=6338",
    "ring/batch1-per-call p50_us=252",
    "ring/batch1-ring p50_us=243",
];

/// A 4-replica MMC fleet behind 8-deep lanes under hash placement. Each of
/// 6 rounds submits one fleet's worth of single-block reads. The balanced
/// arm gives each of the 4 tenants an extent homed on its own replica; the
/// skewed arm points them all at replica 0's extent, so once its queue is
/// full every further clean read must spill to a sibling. Returns the
/// latencies, spills and rejections of one arm.
fn spill_arm(bundle: &Driverlet, skewed: bool) -> (Vec<u64>, u64, u64) {
    const REPLICAS: usize = 4;
    const CAPACITY: u32 = 8;
    let policy = RoutePolicy::HashShard { chunk_blocks: 256 };
    // One never-written extent per replica, found by probing chunks.
    let mut extents: Vec<Option<u32>> = vec![None; REPLICAS];
    for chunk in 4.. {
        if extents.iter().all(Option::is_some) {
            break;
        }
        extents[policy.replica_for(chunk * 256, REPLICAS)].get_or_insert(chunk * 256);
    }
    let config = ServeConfig {
        policy: Policy::Fifo,
        coalesce: false,
        hold_budget_ns: 0,
        queue_capacity: CAPACITY as usize,
        route: RouteConfig { policy, spill: true },
        block_granularities: vec![1, 8],
        ..ServeConfig::default()
    };
    let mut service = mmc_fleet(bundle, REPLICAS, config);
    let sessions: Vec<SessionId> = (0..REPLICAS).map(|_| service.open_session().unwrap()).collect();
    let mut us = Vec::new();
    for round in 0..6 {
        for burst in 0..CAPACITY {
            for (s, session) in sessions.iter().enumerate() {
                let extent = extents[if skewed { 0 } else { s }].unwrap();
                let blkid = extent + (round * CAPACITY + burst) % 64;
                service.submit(*session, read(Device::Mmc, blkid)).expect("one fleet's worth fits");
            }
        }
        us.extend(service.drain_all().iter().map(latency_us));
    }
    let stats = service.stats();
    (us, stats.route_spills, stats.rejected)
}

#[test]
fn spill_keeps_a_hot_shard_near_the_balanced_tail() {
    let bundle = record_mmc_driverlet_subset(&[1, 8]).expect("record mmc");
    let (mut balanced_us, _, _) = spill_arm(&bundle, false);
    let (mut skewed_us, spills, rejections) = spill_arm(&bundle, true);
    assert_eq!(balanced_us.len(), skewed_us.len(), "both arms complete every read");
    let balanced_p99_us = percentile(&mut balanced_us, 0.99);
    let skewed_p99_us = percentile(&mut skewed_us, 0.99);

    let mut rows = Rows::default();
    rows.pin("spill", "requests", skewed_us.len() as u64);
    rows.pin("spill/balanced", "p99_us", balanced_p99_us);
    rows.pin("spill/skewed", "p99_us", skewed_p99_us);
    rows.pin("spill/skewed", "spills", spills);
    rows.pin("spill/skewed", "rejections", rejections);
    rows.check("spill", PINNED_SPILL);

    assert!(spills > 0, "the skewed arm must shed clean reads to siblings");
    assert_eq!(rejections, 0, "one fleet's worth per round never overflows the fleet");
    assert!(
        skewed_p99_us as f64 <= balanced_p99_us as f64 * 2.0,
        "spill must keep the hot shard's p99 within 2x balanced"
    );
}

const PINNED_SPILL: &[&str] = &[
    "spill requests=192",
    "spill/balanced p99_us=8822",
    "spill/skewed p99_us=8920",
    "spill/skewed spills=144",
    "spill/skewed rejections=0",
];

/// What the victims and the flooder saw on one isolation arm.
struct IsolationArm {
    victim_us: Vec<u64>,
    victim_rejections: u64,
    flooder_throttled: u64,
    flooder_completed: u64,
}

/// Two victims read 4 blocks each per round for 12 rounds on one MMC lane
/// under admission QoS. On the attack arm a flooder first bursts 12
/// submits per round against a 200 req/s token bucket and a 1/9 max-min
/// share, so whatever the gate admits lands ahead of the victims.
fn isolation_arm(bundle: &Driverlet, with_flooder: bool) -> IsolationArm {
    const FLOOD_PER_ROUND: u32 = 12;
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
    let mut service = mmc_fleet(bundle, 1, config);
    let victims: Vec<SessionId> = (0..2).map(|_| service.open_session().unwrap()).collect();
    let flooder = service.open_session().unwrap();
    service.set_session_qos(flooder, SessionQos { rate_rps: 200, burst: 4, weight: 1 }).unwrap();
    let mut arm = IsolationArm {
        victim_us: Vec::new(),
        victim_rejections: 0,
        flooder_throttled: 0,
        flooder_completed: 0,
    };
    for round in 0..12 {
        for burst in 0..FLOOD_PER_ROUND * u32::from(with_flooder) {
            let blkid = 4096 + (round * FLOOD_PER_ROUND + burst) % 64;
            match service.submit(flooder, read(Device::Mmc, blkid)) {
                Ok(_) => {}
                Err(ServeError::Throttled { .. }) => arm.flooder_throttled += 1,
                Err(e) => panic!("unexpected flooder submit error: {e}"),
            }
        }
        for (v, session) in (1..).zip(&victims) {
            for r in 0..4 {
                let blkid = (round * 4 + r) % 64 + 64 * v;
                if service.submit(*session, read(Device::Mmc, blkid)).is_err() {
                    arm.victim_rejections += 1;
                }
            }
        }
        for c in service.drain_all() {
            if c.session == flooder {
                arm.flooder_completed += 1;
            } else {
                arm.victim_us.push(latency_us(&c));
            }
        }
    }
    arm
}

#[test]
fn admission_qos_keeps_a_flooder_off_the_victims_tail() {
    let bundle = record_mmc_driverlet_subset(&[1, 8]).expect("record mmc");
    let mut baseline = isolation_arm(&bundle, false);
    let mut attack = isolation_arm(&bundle, true);
    assert_eq!(baseline.victim_rejections, 0, "the flooder-free arm admits every victim read");
    assert_eq!(baseline.victim_us.len(), attack.victim_us.len(), "both arms complete every read");
    let baseline_p99_us = percentile(&mut baseline.victim_us, 0.99);
    let attack_p99_us = percentile(&mut attack.victim_us, 0.99);

    let mut rows = Rows::default();
    rows.pin("isolation", "victim_requests", attack.victim_us.len() as u64);
    rows.pin("isolation/baseline", "p99_us", baseline_p99_us);
    rows.pin("isolation/attack", "p99_us", attack_p99_us);
    rows.pin("isolation/attack", "victim_rejections", attack.victim_rejections);
    rows.pin("isolation/attack", "flooder_throttled", attack.flooder_throttled);
    rows.pin("isolation/attack", "flooder_completed", attack.flooder_completed);
    rows.check("isolation", PINNED_ISOLATION);

    assert_eq!(attack.victim_rejections, 0, "QoS must never turn a victim away");
    assert!(attack.flooder_throttled > 0, "the gate must visibly throttle the flooder");
    assert!(
        attack_p99_us as f64 <= baseline_p99_us as f64 * 2.0,
        "victim p99 under attack must stay within 2x the baseline"
    );
}

const PINNED_ISOLATION: &[&str] = &[
    "isolation victim_requests=96",
    "isolation/baseline p99_us=21340",
    "isolation/attack p99_us=22237",
    "isolation/attack victim_rejections=0",
    "isolation/attack flooder_throttled=140",
    "isolation/attack flooder_completed=4",
];

#[test]
fn failover_carries_clean_reads_past_a_faulted_replica() {
    // Three MMC replicas behind the hash router with failover and the
    // watchdog on, and a sticky read fault on replica 0. Storm reads homed
    // on the sick shard diverge and retry on a sibling; the watchdog
    // quarantines the lane (its soft reset clears the fault), and homed
    // recovery reads then serve its probation back to Healthy.
    const REPLICAS: usize = 3;
    let sick = LaneId { device: Device::Mmc, replica: 0 };
    let policy = RoutePolicy::HashShard { chunk_blocks: 16 };
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
    let bundle = record_mmc_driverlet_subset(&[1, 8]).expect("record mmc");
    let mut service = mmc_fleet(&bundle, REPLICAS, config);
    let session = service.open_session().unwrap();
    let fault = FaultPlan { template: Some("_rd_".into()), sticky: true, ..FaultPlan::default() };
    service.inject_fault(sick, fault).unwrap();
    let storm: Vec<u32> = (0..72).collect();
    let recovery: Vec<u32> =
        (0..4096).filter(|b| policy.replica_for(*b, REPLICAS) == 0).take(8).collect();
    let mut completions = Vec::new();
    for phase in [storm, recovery] {
        for blkid in &phase {
            service.submit(session, read(Device::Mmc, *blkid)).unwrap();
        }
        completions.extend(service.drain_all());
    }
    let submitted = 72 + 8;
    let completed_ok = completions.iter().filter(|c| c.result.is_ok()).count() as u64;
    let lost = submitted - completions.len() as u64;
    let stats = service.stats();
    let health = service.lane_health_check(sick).unwrap();

    let mut rows = Rows::default();
    rows.pin("failover", "requests", submitted);
    rows.pin("failover", "completed_ok", completed_ok);
    rows.pin("failover", "lost", lost);
    rows.pin("failover", "failovers", stats.failovers);
    rows.pin("failover", "quarantines", stats.quarantines);
    rows.pin("failover", "lane_restores", stats.lane_restores);
    rows.check("failover storm", PINNED_FAILOVER);

    assert!(100 * completed_ok >= 99 * submitted, "failover must complete >= 99% of reads");
    assert_eq!(lost, 0, "no read may vanish during the storm");
    assert!(stats.failovers >= 1, "reads homed on the sick shard must retry on a sibling");
    assert!(stats.quarantines >= 1, "the watchdog must trip the diverging lane");
    assert!(stats.lane_restores >= 1 && health.state == LaneState::Healthy, "lane restored");
}

const PINNED_FAILOVER: &[&str] = &[
    "failover requests=80",
    "failover completed_ok=80",
    "failover lost=0",
    "failover failovers=11",
    "failover quarantines=10",
    "failover lane_restores=1",
];

#[test]
fn session_churn_leaks_no_metrics_series() {
    // 60 ephemeral sessions open, read one block and close beside a
    // long-lived resident: even cycles close with the read in flight (the
    // orphan path), odd ones reap first.
    let config = ServeConfig {
        obs: ObsConfig::MetricsOnly,
        block_granularities: vec![1],
        ..ServeConfig::default()
    };
    let mut service = DriverletService::new(&[Device::Mmc], config).expect("build service");
    let resident = service.open_session().unwrap();
    let baseline = service.metrics_snapshot().sessions.len() as u64;
    for i in 0..60 {
        let s = service.open_session().unwrap();
        service.submit(s, read(Device::Mmc, i % 32)).unwrap();
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
    let leaked = (service.metrics_snapshot().sessions.len() as u64).saturating_sub(baseline);

    let mut rows = Rows::default();
    rows.pin("churn", "cycles", 60);
    rows.pin("churn", "leaked_series", leaked);
    rows.check("session churn", PINNED_CHURN);
    assert_eq!(leaked, 0, "session churn must leak no metrics series");
}

const PINNED_CHURN: &[&str] = &["churn cycles=60", "churn leaked_series=0"];
