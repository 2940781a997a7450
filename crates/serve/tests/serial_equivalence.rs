//! Scheduler equivalence property: any interleaving of concurrent
//! sessions — any policy, coalescing on, **per-lane clocks and
//! anticipatory hold enabled** — produces the same device state and the
//! same read payloads as *some* serial order of the submitted requests,
//! and that serial order respects every session's submission order. The
//! witness order is the service's own dispatch log, and the serial
//! reference executes it on a fresh rig running the tree-walking
//! interpreter ([`ReplayMode::Interpreted`]) — so the property is also a
//! differential test across the two replay engines.
//!
//! Each generated program runs twice: once with the anticipatory-hold
//! default budget and once with holding disabled, because the plug changes
//! *when* batches dispatch (and therefore how requests merge) but must
//! never change any payload or violate per-session ordering.
//!
//! The `*_ring_batches_*` properties run the same generated programs down
//! the shared-memory ring path ([`SubmitMode::Ring`]) with random doorbell
//! batch sizes, interleaved with per-call submits from a legacy session —
//! proving the batched submission spine behaviour-identical to the
//! one-SMC-per-operation baseline.

use std::collections::HashMap;
use std::sync::OnceLock;

use dlt_core::{replay_cam, FaultPlan, ReplayConfig, ReplayError, Replayer};
use dlt_dev_mmc::MmcSubsystem;
use dlt_dev_usb::UsbSubsystem;
use dlt_dev_vchiq::VchiqSubsystem;
use dlt_hw::Platform;
use dlt_recorder::campaign::{
    record_camera_driverlet_subset, record_mmc_driverlet_subset, record_usb_driverlet_subset,
    DEV_KEY,
};
use dlt_serve::{
    Completion, Device, DriverletService, ExecMode, FailoverConfig, LaneId, LaneState, Payload,
    Policy, QosConfig, Request, RequestId, RouteConfig, RoutePolicy, ServeConfig, ServeError,
    SessionQos, SubmitMode, SuperviseConfig,
};
use dlt_tee::{SecureIo, TeeKernel};
use dlt_template::Driverlet;
use proptest::prelude::*;

const BLOCK: usize = 512;
/// Recorded granularities for the property rigs (kept small for speed).
const GRANULARITIES: [u32; 2] = [1, 8];

fn mmc_bundle() -> &'static Driverlet {
    static BUNDLE: OnceLock<Driverlet> = OnceLock::new();
    BUNDLE.get_or_init(|| record_mmc_driverlet_subset(&GRANULARITIES).expect("record mmc"))
}

fn usb_bundle() -> &'static Driverlet {
    static BUNDLE: OnceLock<Driverlet> = OnceLock::new();
    BUNDLE.get_or_init(|| record_usb_driverlet_subset(&GRANULARITIES).expect("record usb"))
}

fn cam_bundle() -> &'static Driverlet {
    static BUNDLE: OnceLock<Driverlet> = OnceLock::new();
    BUNDLE.get_or_init(|| record_camera_driverlet_subset(&[1]).expect("record camera"))
}

fn bundle_for(device: Device) -> &'static Driverlet {
    match device {
        Device::Mmc => mmc_bundle(),
        Device::Usb => usb_bundle(),
        Device::Vchiq => cam_bundle(),
    }
}

/// A serial reference rig: one interpreted replayer over a fresh platform.
fn serial_rig(device: Device) -> Replayer {
    let platform = Platform::new();
    let secure: &[&str] = match device {
        Device::Mmc => {
            MmcSubsystem::attach(&platform).expect("attach mmc");
            &["sdhost", "dma"]
        }
        Device::Usb => {
            UsbSubsystem::attach(&platform).expect("attach usb");
            &["dwc2"]
        }
        Device::Vchiq => {
            VchiqSubsystem::attach(&platform).expect("attach vchiq");
            &["vchiq"]
        }
    };
    TeeKernel::install(&platform, secure).expect("install tee");
    let mut replayer =
        Replayer::with_config(SecureIo::new(platform.bus.clone()), ReplayConfig::interpreted());
    replayer.load_driverlet(bundle_for(device).clone(), DEV_KEY).expect("load driverlet");
    replayer
}

fn entry_for(device: Device) -> &'static str {
    match device {
        Device::Mmc => "replay_mmc",
        Device::Usb => "replay_usb",
        Device::Vchiq => "replay_cam",
    }
}

/// Execute one block request serially on the reference rig, returning read
/// payloads.
fn serial_execute(replayer: &mut Replayer, device: Device, req: &Request) -> Option<Vec<u8>> {
    let entry = entry_for(device);
    match req {
        Request::Read { blkid, blkcnt, .. } => {
            let mut buf = vec![0u8; *blkcnt as usize * BLOCK];
            let mut done = 0u32;
            for part in decompose(*blkcnt) {
                let args = [
                    ("rw", 0x1u64),
                    ("blkcnt", u64::from(part)),
                    ("blkid", u64::from(blkid + done)),
                    ("flag", 0),
                ];
                let start = done as usize * BLOCK;
                let end = (done + part) as usize * BLOCK;
                replayer.invoke_args(entry, &args, &mut buf[start..end]).expect("serial read");
                done += part;
            }
            Some(buf)
        }
        Request::Write { blkid, data, .. } => {
            let mut scratch = data.clone();
            let blkcnt = (data.len() / BLOCK) as u32;
            let mut done = 0u32;
            for part in decompose(blkcnt) {
                let args = [
                    ("rw", 0x10u64),
                    ("blkcnt", u64::from(part)),
                    ("blkid", u64::from(blkid + done)),
                    ("flag", 0),
                ];
                let start = done as usize * BLOCK;
                let end = (done + part) as usize * BLOCK;
                replayer.invoke_args(entry, &args, &mut scratch[start..end]).expect("serial write");
                done += part;
            }
            None
        }
        Request::Capture { frames, resolution } => {
            let mut buf = vec![0u8; 2 << 20];
            let size =
                replay_cam(replayer, *frames, *resolution, &mut buf).expect("serial capture");
            buf.truncate(size as usize);
            Some(buf)
        }
    }
}

fn decompose(mut blkcnt: u32) -> Vec<u32> {
    let mut parts = Vec::new();
    while blkcnt > 0 {
        let g = if blkcnt >= 8 { 8 } else { 1 };
        parts.push(g);
        blkcnt -= g;
    }
    parts
}

/// Pattern data unique per (request, block) so stale writes are detectable.
fn pattern(tag: u64, blocks: u32) -> Vec<u8> {
    let mut data = vec![0u8; blocks as usize * BLOCK];
    for (i, b) in data.iter_mut().enumerate() {
        *b = ((tag as usize).wrapping_mul(131) ^ i.wrapping_mul(7)) as u8;
    }
    data
}

/// Drive the service with generated per-session traffic and check the
/// serial-equivalence property for one block device, at one
/// anticipatory-hold budget.
fn check_block_device_with_hold(
    device: Device,
    policy: Policy,
    choices: &[u8],
    hold_budget_ns: u64,
) {
    let config = ServeConfig {
        policy,
        coalesce: true,
        hold_budget_ns,
        block_granularities: GRANULARITIES.to_vec(),
        ..ServeConfig::default()
    };
    let mut service =
        DriverletService::with_driverlets(&[(device, bundle_for(device).clone())], config)
            .expect("build service");
    let sessions: Vec<u32> = (0..3).map(|_| service.open_session().unwrap()).collect();

    // Interpret the generated bytes as an interleaved request program over
    // a small hot range of the disk, so reads, writes, overlaps and
    // adjacency all occur. Every fourth request is preceded by client
    // think time so arrivals land both inside and outside hold windows.
    let mut requests: HashMap<RequestId, Request> = HashMap::new();
    let mut session_of: HashMap<RequestId, u32> = HashMap::new();
    for (i, &choice) in choices.iter().enumerate() {
        let session = sessions[i % sessions.len()];
        if i % 4 == 3 {
            service.client_think_ns(u64::from(choice) * 2_000);
        }
        let blkid = 64 + u32::from(choice % 48);
        let blkcnt = 1 + u32::from(choice % 8);
        let req = if choice % 3 == 0 {
            Request::Write { device, blkid, data: pattern(i as u64, blkcnt) }
        } else {
            Request::Read { device, blkid, blkcnt }
        };
        let id = service.submit(session, req.clone()).expect("submit");
        requests.insert(id, req);
        session_of.insert(id, session);
    }

    let completions = service.drain_all();
    let witness = service.take_exec_log();
    assert_eq!(completions.len(), choices.len());
    assert_eq!(witness.len(), choices.len());

    // Per-session ordering: within a session, the witness serial order may
    // reorder *reads among reads* (they commute inside a merged span), but
    // any pair involving a write must dispatch in submission order — ids
    // are handed out in submission order, so an inversion involving a
    // write would let a session observe its own operations out of order.
    let mut per_session: HashMap<u32, Vec<RequestId>> = HashMap::new();
    for id in &witness {
        per_session.entry(session_of[id]).or_default().push(*id);
    }
    for (session, order) in &per_session {
        for (i, &a) in order.iter().enumerate() {
            for &b in &order[i + 1..] {
                if a > b {
                    let both_reads = matches!(requests[&a], Request::Read { .. })
                        && matches!(requests[&b], Request::Read { .. });
                    assert!(
                        both_reads,
                        "session {session}: request {a} dispatched before earlier request {b} \
                         and at least one is a write (per-lane clocks or hold broke per-session \
                         ordering)"
                    );
                }
            }
        }
    }

    // Completions must carry a coherent lane timeline: never completed
    // before submitted.
    for c in &completions {
        assert!(
            c.completed_ns >= c.submitted_ns,
            "request {} completed at {} before its arrival {}",
            c.id,
            c.completed_ns,
            c.submitted_ns
        );
    }

    // Serial reference: execute the witness order on the interpreted rig.
    let mut rig = serial_rig(device);
    let mut serial_reads: HashMap<RequestId, Vec<u8>> = HashMap::new();
    for id in &witness {
        let req = &requests[id];
        if let Some(bytes) = serial_execute(&mut rig, device, req) {
            serial_reads.insert(*id, bytes);
        }
    }

    // Every read the service answered must be byte-identical to the serial
    // execution — merged spans included.
    for c in &completions {
        if let Ok(Payload::Read(bytes)) = &c.result {
            prop_assert_eq_bytes(&serial_reads[&c.id], bytes, c.id);
        } else {
            c.result.as_ref().expect("writes succeed");
        }
    }

    // Final device state: both rigs read back the whole hot range.
    let readback = Request::Read { device, blkid: 64, blkcnt: 56 };
    let session = sessions[0];
    let id = service.submit(session, readback.clone()).expect("submit readback");
    let final_completion =
        service.drain_all().into_iter().find(|c| c.id == id).expect("readback completion");
    let Ok(Payload::Read(service_state)) = final_completion.result else {
        panic!("readback failed");
    };
    let serial_state = serial_execute(&mut rig, device, &readback).expect("serial readback");
    prop_assert_eq_bytes(&serial_state, &service_state, id);
}

/// The property at both hold settings: anticipatory hold changes batch
/// boundaries, never payloads or ordering.
fn check_block_device(device: Device, policy: Policy, choices: &[u8]) {
    check_block_device_with_hold(device, policy, choices, ServeConfig::default().hold_budget_ns);
    check_block_device_with_hold(device, policy, choices, 0);
}

/// The ring-batched flavour of the property: the same generated program
/// driven through [`SubmitMode::Ring`], with doorbell batch sizes drawn
/// from the generated bytes. Ring batching changes **when** requests become
/// visible to the TEE — whole doorbell batches share one admission stamp —
/// but must never change any payload, violate per-session ordering, or
/// complete a request before it was submitted.
fn check_ring_batches(device: Device, policy: Policy, choices: &[u8]) {
    let config = ServeConfig {
        policy,
        coalesce: true,
        submit_mode: SubmitMode::Ring,
        block_granularities: GRANULARITIES.to_vec(),
        ..ServeConfig::default()
    };
    let mut service =
        DriverletService::with_driverlets(&[(device, bundle_for(device).clone())], config)
            .expect("build service");
    // Both sessions stage into the submission ring, which admits entries
    // in enqueue order, so the per-session ordering assertion below must
    // survive any doorbell batching.
    let sessions: Vec<u32> = (0..2).map(|_| service.open_session().unwrap()).collect();

    let mut requests: HashMap<RequestId, Request> = HashMap::new();
    let mut session_of: HashMap<RequestId, u32> = HashMap::new();
    let mut staged_since_doorbell = 0usize;
    for (i, &choice) in choices.iter().enumerate() {
        let session = sessions[i % sessions.len()];
        if i % 4 == 3 {
            service.client_think_ns(u64::from(choice) * 2_000);
        }
        let blkid = 64 + u32::from(choice % 48);
        let blkcnt = 1 + u32::from(choice % 8);
        let req = if choice % 3 == 0 {
            Request::Write { device, blkid, data: pattern(i as u64, blkcnt) }
        } else {
            Request::Read { device, blkid, blkcnt }
        };
        let id = service.submit(session, req.clone()).expect("ring enqueue");
        staged_since_doorbell += 1;
        // Random doorbell batch sizes: ring after 1..=5 staged entries.
        if staged_since_doorbell > usize::from(choice % 5) {
            service.ring_doorbell().expect("doorbell");
            staged_since_doorbell = 0;
        }
        requests.insert(id, req);
        session_of.insert(id, session);
    }

    // drain_all flushes the final (partial) doorbell batch itself.
    let completions = service.drain_all();
    let witness = service.take_exec_log();
    assert_eq!(completions.len(), choices.len());
    assert_eq!(witness.len(), choices.len());
    assert!(
        service.stats().completed >= service.stats().submitted,
        "every admitted request must complete ({} completed < {} submitted)",
        service.stats().completed,
        service.stats().submitted
    );

    // Per-session ordering: same invariant as the per-call property —
    // reads may commute within a session, anything involving a write must
    // dispatch in submission (id) order.
    let mut per_session: HashMap<u32, Vec<RequestId>> = HashMap::new();
    for id in &witness {
        per_session.entry(session_of[id]).or_default().push(*id);
    }
    for (session, order) in &per_session {
        for (i, &a) in order.iter().enumerate() {
            for &b in &order[i + 1..] {
                if a > b {
                    let both_reads = matches!(requests[&a], Request::Read { .. })
                        && matches!(requests[&b], Request::Read { .. });
                    assert!(
                        both_reads,
                        "session {session}: request {a} dispatched before earlier request {b} \
                         and at least one is a write (doorbell batching broke per-session \
                         ordering)"
                    );
                }
            }
        }
    }
    for c in &completions {
        assert!(
            c.completed_ns >= c.submitted_ns,
            "request {} completed at {} before its submission {}",
            c.id,
            c.completed_ns,
            c.submitted_ns
        );
    }

    // Byte identity against the interpreted serial reference, exactly as
    // on the per-call path.
    let mut rig = serial_rig(device);
    let mut serial_reads: HashMap<RequestId, Vec<u8>> = HashMap::new();
    for id in &witness {
        if let Some(bytes) = serial_execute(&mut rig, device, &requests[id]) {
            serial_reads.insert(*id, bytes);
        }
    }
    for c in &completions {
        if let Ok(Payload::Read(bytes)) = &c.result {
            prop_assert_eq_bytes(&serial_reads[&c.id], bytes, c.id);
        } else {
            c.result.as_ref().expect("writes succeed");
        }
    }

    // Final device state matches the serial reference too.
    let readback = Request::Read { device, blkid: 64, blkcnt: 56 };
    let id = service.submit(sessions[0], readback.clone()).expect("submit readback");
    let final_completion =
        service.drain_all().into_iter().find(|c| c.id == id).expect("readback completion");
    let Ok(Payload::Read(service_state)) = final_completion.result else {
        panic!("readback failed");
    };
    let serial_state = serial_execute(&mut rig, device, &readback).expect("serial readback");
    prop_assert_eq_bytes(&serial_state, &service_state, id);
}

/// The divergence-robustness flavour of the property: a **sticky
/// read-template fault** ([`FaultPlan`] over `"_rd_"`) engages after a
/// proptest-chosen number of read replays. From then on every read request
/// must surface as a typed [`ReplayError::Diverged`] completion — never a
/// panic, a hang, or a lost completion — while writes keep succeeding.
/// `completed + diverged == submitted` holds exactly, per-session ordering
/// survives, and after clearing the fault the lane passes its health check
/// and the written device state reads back byte-identical to the
/// interpreted serial reference.
fn check_block_device_with_divergences(
    device: Device,
    policy: Policy,
    choices: &[u8],
    skip: u64,
    submit_mode: SubmitMode,
) {
    let config = ServeConfig {
        policy,
        coalesce: true,
        submit_mode,
        block_granularities: GRANULARITIES.to_vec(),
        ..ServeConfig::default()
    };
    let mut service =
        DriverletService::with_driverlets(&[(device, bundle_for(device).clone())], config)
            .expect("build service");
    let sessions: Vec<u32> = (0..3).map(|_| service.open_session().unwrap()).collect();
    let outcome = service
        .inject_fault(
            device,
            FaultPlan {
                template: Some("_rd_".into()),
                skip_invocations: skip,
                sticky: true,
                ..FaultPlan::default()
            },
        )
        .expect("inject fault");

    let mut requests: HashMap<RequestId, Request> = HashMap::new();
    let mut session_of: HashMap<RequestId, u32> = HashMap::new();
    for (i, &choice) in choices.iter().enumerate() {
        let session = sessions[i % sessions.len()];
        if i % 4 == 3 {
            service.client_think_ns(u64::from(choice) * 2_000);
        }
        let blkid = 64 + u32::from(choice % 48);
        let blkcnt = 1 + u32::from(choice % 8);
        let req = if choice % 3 == 0 {
            Request::Write { device, blkid, data: pattern(i as u64, blkcnt) }
        } else {
            Request::Read { device, blkid, blkcnt }
        };
        let id = service.submit(session, req.clone()).expect("submit");
        requests.insert(id, req);
        session_of.insert(id, session);
    }

    let completions = service.drain_all();
    let witness = service.take_exec_log();
    assert_eq!(
        completions.len(),
        choices.len(),
        "every submitted request must surface exactly once, diverged or not"
    );

    let mut ok = 0usize;
    let mut diverged = 0usize;
    for c in &completions {
        match &c.result {
            Ok(_) => ok += 1,
            Err(ServeError::Replay(ReplayError::Diverged(_))) => {
                diverged += 1;
                assert!(
                    matches!(requests[&c.id], Request::Read { .. }),
                    "request {}: only reads can diverge under a read-template fault",
                    c.id
                );
            }
            other => panic!("request {} must complete or diverge typed, got {other:?}", c.id),
        }
        assert!(
            c.completed_ns >= c.submitted_ns,
            "request {} completed at {} before its submission {}",
            c.id,
            c.completed_ns,
            c.submitted_ns
        );
    }
    assert_eq!(ok + diverged, choices.len(), "completed + diverged == submitted");
    if diverged > 0 {
        assert!(
            outcome.lock().unwrap().engaged_invocations > 0,
            "divergences can only come from the injected fault"
        );
    }

    // Per-session ordering survives the fault: reads commute among reads,
    // any pair involving a write dispatches in submission order.
    let mut per_session: HashMap<u32, Vec<RequestId>> = HashMap::new();
    for id in &witness {
        per_session.entry(session_of[id]).or_default().push(*id);
    }
    for (session, order) in &per_session {
        for (i, &a) in order.iter().enumerate() {
            for &b in &order[i + 1..] {
                if a > b {
                    let both_reads = matches!(requests[&a], Request::Read { .. })
                        && matches!(requests[&b], Request::Read { .. });
                    assert!(
                        both_reads,
                        "session {session}: request {a} dispatched before earlier request {b} \
                         and at least one is a write (fault injection broke per-session ordering)"
                    );
                }
            }
        }
    }

    // Surviving reads keep byte identity with the interpreted serial
    // reference (diverged reads left no trace on device state, so the
    // reference executes the full witness order).
    let mut rig = serial_rig(device);
    let mut serial_reads: HashMap<RequestId, Vec<u8>> = HashMap::new();
    for id in &witness {
        if let Some(bytes) = serial_execute(&mut rig, device, &requests[id]) {
            serial_reads.insert(*id, bytes);
        }
    }
    for c in &completions {
        if let Ok(Payload::Read(bytes)) = &c.result {
            prop_assert_eq_bytes(&serial_reads[&c.id], bytes, c.id);
        }
    }

    // The lane recovers: fault cleared, health probe passes, and the whole
    // hot range — every surviving write included — reads back identical to
    // the serial reference.
    service.clear_fault(device).expect("clear fault");
    service.lane_health_check(device).expect("post-divergence lane health");
    let readback = Request::Read { device, blkid: 64, blkcnt: 56 };
    let id = service.submit(sessions[0], readback.clone()).expect("submit readback");
    let final_completion =
        service.drain_all().into_iter().find(|c| c.id == id).expect("readback completion");
    let Ok(Payload::Read(service_state)) = final_completion.result else {
        panic!("readback failed");
    };
    let serial_state = serial_execute(&mut rig, device, &readback).expect("serial readback");
    prop_assert_eq_bytes(&serial_state, &service_state, id);
}

/// The **parallel-lanes** flavour of the property: the same kind of random
/// traffic driven through [`ExecMode::Threaded`] — MMC and USB lanes each on
/// a real OS thread, executing concurrently with the submitting thread.
/// Sessions are pinned to one device each, so per-session ordering and byte
/// identity stay decidable: within a lane the scheduler is unchanged, and
/// the witness log filtered per device is that lane's execution order.
/// Threading may change batching (a lane may dispatch the moment work is
/// admitted) but must never change payloads, violate per-session ordering,
/// lose a completion, or complete before submission. With a fault injected
/// (`with_fault`), `completed + diverged == submitted` must hold exactly.
fn check_parallel_lanes(policy: Policy, choices: &[u8], fault_skip: Option<u64>) {
    let config = ServeConfig {
        policy,
        coalesce: true,
        exec_mode: ExecMode::Threaded,
        block_granularities: GRANULARITIES.to_vec(),
        ..ServeConfig::default()
    };
    let mut service = DriverletService::with_driverlets(
        &[(Device::Mmc, mmc_bundle().clone()), (Device::Usb, usb_bundle().clone())],
        config,
    )
    .expect("build service");
    // Two sessions per device, pinned: a session only ever talks to one
    // lane, so its ordering invariant is confined to that lane's timeline.
    let sessions: Vec<(u32, Device)> = vec![
        (service.open_session().unwrap(), Device::Mmc),
        (service.open_session().unwrap(), Device::Usb),
        (service.open_session().unwrap(), Device::Mmc),
        (service.open_session().unwrap(), Device::Usb),
    ];
    let outcome = fault_skip.map(|skip| {
        service
            .inject_fault(
                Device::Mmc,
                FaultPlan {
                    template: Some("_rd_".into()),
                    skip_invocations: skip,
                    sticky: true,
                    ..FaultPlan::default()
                },
            )
            .expect("inject fault")
    });

    let mut requests: HashMap<RequestId, Request> = HashMap::new();
    let mut session_of: HashMap<RequestId, u32> = HashMap::new();
    for (i, &choice) in choices.iter().enumerate() {
        let (session, device) = sessions[i % sessions.len()];
        if i % 4 == 3 {
            service.client_think_ns(u64::from(choice) * 2_000);
        }
        let blkid = 64 + u32::from(choice % 48);
        let blkcnt = 1 + u32::from(choice % 8);
        let req = if choice % 3 == 0 {
            Request::Write { device, blkid, data: pattern(i as u64, blkcnt) }
        } else {
            Request::Read { device, blkid, blkcnt }
        };
        let id = service.submit(session, req.clone()).expect("submit");
        requests.insert(id, req);
        session_of.insert(id, session);
    }

    let completions = service.drain_all();
    let witness = service.take_exec_log();
    assert_eq!(completions.len(), choices.len(), "no completion lost across lane threads");
    assert_eq!(witness.len(), choices.len());

    let mut ok = 0usize;
    let mut diverged = 0usize;
    for c in &completions {
        match &c.result {
            Ok(_) => ok += 1,
            Err(ServeError::Replay(ReplayError::Diverged(_))) if fault_skip.is_some() => {
                diverged += 1;
                assert!(
                    matches!(requests[&c.id], Request::Read { device: Device::Mmc, .. }),
                    "request {}: only MMC reads can diverge under this fault",
                    c.id
                );
            }
            other => panic!("request {} must complete (or diverge typed), got {other:?}", c.id),
        }
        assert!(
            c.completed_ns >= c.submitted_ns,
            "request {} completed at {} before its submission {}",
            c.id,
            c.completed_ns,
            c.submitted_ns
        );
    }
    assert_eq!(ok + diverged, choices.len(), "completed + diverged == submitted");
    if diverged > 0 {
        assert!(outcome.as_ref().unwrap().lock().unwrap().engaged_invocations > 0);
    }

    // Per-session ordering under real interleaving: a session is pinned to
    // one lane, so its dispatches appear in the witness in that lane's
    // execution order. Reads commute among reads; any pair involving a
    // write must dispatch in submission (id) order.
    let mut per_session: HashMap<u32, Vec<RequestId>> = HashMap::new();
    for id in &witness {
        per_session.entry(session_of[id]).or_default().push(*id);
    }
    for (session, order) in &per_session {
        for (i, &a) in order.iter().enumerate() {
            for &b in &order[i + 1..] {
                if a > b {
                    let both_reads = matches!(requests[&a], Request::Read { .. })
                        && matches!(requests[&b], Request::Read { .. });
                    assert!(
                        both_reads,
                        "session {session}: request {a} dispatched before earlier request {b} \
                         and at least one is a write (lane threading broke per-session ordering)"
                    );
                }
            }
        }
    }

    // Byte identity per lane: the witness filtered by device is that lane's
    // serial execution order; replay it on a fresh interpreted rig.
    for device in [Device::Mmc, Device::Usb] {
        let mut rig = serial_rig(device);
        let mut serial_reads: HashMap<RequestId, Vec<u8>> = HashMap::new();
        for id in witness.iter().filter(|id| requests[id].device() == device) {
            if let Some(bytes) = serial_execute(&mut rig, device, &requests[id]) {
                serial_reads.insert(*id, bytes);
            }
        }
        for c in completions.iter().filter(|c| c.device == device) {
            if let Ok(Payload::Read(bytes)) = &c.result {
                prop_assert_eq_bytes(&serial_reads[&c.id], bytes, c.id);
            }
        }
        // Final device state matches the per-lane serial reference.
        if fault_skip.is_some() {
            service.clear_fault(device).expect("clear fault");
            service.lane_health_check(device).expect("post-divergence lane health");
        }
        let readback = Request::Read { device, blkid: 64, blkcnt: 56 };
        let session = sessions.iter().find(|(_, d)| *d == device).unwrap().0;
        let id = service.submit(session, readback.clone()).expect("submit readback");
        let final_completion =
            service.drain_all().into_iter().find(|c| c.id == id).expect("readback completion");
        let Ok(Payload::Read(service_state)) = final_completion.result else {
            panic!("readback failed");
        };
        let serial_state = serial_execute(&mut rig, device, &readback).expect("serial readback");
        prop_assert_eq_bytes(&serial_state, &service_state, id);
    }
}

fn block_device_of(req: &Request) -> Device {
    match req {
        Request::Read { device, .. } | Request::Write { device, .. } => *device,
        Request::Capture { .. } => Device::Vchiq,
    }
}

/// The **routed-replica** flavour of the property: 2–4 MMC replica lanes plus
/// a 2-replica USB fleet, with the default `submit()` riding the shard
/// router (hash or stripe placement, spill enabled). Each block address has
/// one deterministic home shard, and FIFO lanes execute their queue in
/// admission order, so per block address the executed order **is** the
/// submission order; spilled reads only ever touch never-written chunks,
/// whose bytes equal the recorded bundle's state on every replica. A single
/// interpreted rig per device class executing the submissions in submission
/// order is therefore a valid serial reference — every reassembled read
/// payload must match it byte for byte, fan-outs and spills included.
fn check_routed_replicas(
    mmc_replicas: usize,
    policy: RoutePolicy,
    choices: &[u8],
    submit_mode: SubmitMode,
    exec_mode: ExecMode,
    fault_skip: Option<u64>,
) {
    let config = ServeConfig {
        policy: Policy::Fifo,
        coalesce: true,
        submit_mode,
        exec_mode,
        route: RouteConfig { policy, spill: true },
        block_granularities: GRANULARITIES.to_vec(),
        ..ServeConfig::default()
    };
    let mut fleet: Vec<(Device, Driverlet)> =
        (0..mmc_replicas).map(|_| (Device::Mmc, mmc_bundle().clone())).collect();
    fleet.push((Device::Usb, usb_bundle().clone()));
    fleet.push((Device::Usb, usb_bundle().clone()));
    let mut service = DriverletService::with_driverlets(&fleet, config).expect("build service");
    let sessions: Vec<u32> = (0..3).map(|_| service.open_session().unwrap()).collect();
    let outcome = fault_skip.map(|skip| {
        service
            .inject_fault(
                Device::Mmc,
                FaultPlan {
                    template: Some("_rd_".into()),
                    skip_invocations: skip,
                    sticky: true,
                    ..FaultPlan::default()
                },
            )
            .expect("inject fault")
    });

    let mut program: Vec<(RequestId, Request)> = Vec::new();
    for (i, &choice) in choices.iter().enumerate() {
        let session = sessions[i % sessions.len()];
        let device = if i % 3 == 2 { Device::Usb } else { Device::Mmc };
        if i % 4 == 3 {
            service.client_think_ns(u64::from(choice) * 2_000);
        }
        let blkid = 64 + u32::from(choice % 48);
        let blkcnt = 1 + u32::from(choice % 8);
        let req = if choice % 3 == 0 {
            Request::Write { device, blkid, data: pattern(i as u64, blkcnt) }
        } else {
            Request::Read { device, blkid, blkcnt }
        };
        let id = service.submit(session, req.clone()).expect("routed submit");
        program.push((id, req));
    }

    let completions = service.drain_all();
    assert_eq!(
        completions.len(),
        program.len(),
        "every routed submit surfaces exactly one reassembled completion"
    );
    assert_eq!(
        service.stats().routed as usize,
        program.len(),
        "every default submit rode the router"
    );

    let requests: HashMap<RequestId, &Request> =
        program.iter().map(|(id, req)| (*id, req)).collect();
    let mut ok = 0usize;
    let mut diverged = 0usize;
    for c in &completions {
        match &c.result {
            Ok(_) => ok += 1,
            Err(ServeError::Replay(ReplayError::Diverged(_))) if fault_skip.is_some() => {
                diverged += 1;
                let req = requests[&c.id];
                assert!(
                    matches!(req, Request::Read { .. }) && block_device_of(req) == Device::Mmc,
                    "request {}: only MMC reads can diverge under the injected read fault",
                    c.id
                );
            }
            other => panic!("request {} must complete or diverge typed, got {other:?}", c.id),
        }
        assert!(
            c.completed_ns >= c.submitted_ns,
            "request {} completed at {} before its submission {}",
            c.id,
            c.completed_ns,
            c.submitted_ns
        );
    }
    assert_eq!(ok + diverged, program.len(), "completed + diverged == submitted");
    if diverged > 0 {
        assert!(
            outcome.as_ref().unwrap().lock().unwrap().engaged_invocations > 0,
            "divergences can only come from the injected fault"
        );
    }

    if fault_skip.is_some() {
        service.clear_fault(Device::Mmc).expect("clear fault");
        service.lane_health_check(Device::Mmc).expect("post-divergence lane health");
    }

    // Serial reference per device class, in submission order (see above for
    // why that order is the right one), then a full hot-range readback
    // through the router — reassembled across however many shards the
    // policy splits it over — against the same rig.
    for device in [Device::Mmc, Device::Usb] {
        let mut rig = serial_rig(device);
        let mut serial_reads: HashMap<RequestId, Vec<u8>> = HashMap::new();
        for (id, req) in program.iter().filter(|(_, req)| block_device_of(req) == device) {
            if let Some(bytes) = serial_execute(&mut rig, device, req) {
                serial_reads.insert(*id, bytes);
            }
        }
        for c in completions.iter().filter(|c| c.device == device) {
            if let Ok(Payload::Read(bytes)) = &c.result {
                prop_assert_eq_bytes(&serial_reads[&c.id], bytes, c.id);
            }
        }
        let readback = Request::Read { device, blkid: 64, blkcnt: 56 };
        let id = service.submit(sessions[0], readback.clone()).expect("submit readback");
        let final_completion =
            service.drain_all().into_iter().find(|c| c.id == id).expect("readback completion");
        let Ok(Payload::Read(service_state)) = final_completion.result else {
            panic!("routed readback failed on {device:?}");
        };
        let serial_state = serial_execute(&mut rig, device, &readback).expect("serial readback");
        prop_assert_eq_bytes(&serial_state, &service_state, id);
    }
}

/// The **spill** flavour: three MMC replicas behind tiny per-lane queues and
/// read-heavy traffic, so saturated home shards shed clean reads to their
/// least-loaded siblings mid-run. Routed rejects must carry the whole
/// fleet's depth snapshot, and — spills or not — every read stays
/// byte-identical to the serial reference in submission order.
fn check_routed_spill(choices: &[u8]) {
    const REPLICAS: usize = 3;
    let config = ServeConfig {
        policy: Policy::Fifo,
        coalesce: true,
        queue_capacity: 4,
        route: RouteConfig { policy: RoutePolicy::HashShard { chunk_blocks: 16 }, spill: true },
        block_granularities: GRANULARITIES.to_vec(),
        ..ServeConfig::default()
    };
    let fleet: Vec<(Device, Driverlet)> =
        (0..REPLICAS).map(|_| (Device::Mmc, mmc_bundle().clone())).collect();
    let mut service = DriverletService::with_driverlets(&fleet, config).expect("build service");
    let sessions: Vec<u32> = (0..3).map(|_| service.open_session().unwrap()).collect();

    let mut program: Vec<(RequestId, Request)> = Vec::new();
    let mut completions: Vec<Completion> = Vec::new();
    for (i, &choice) in choices.iter().enumerate() {
        let session = sessions[i % sessions.len()];
        let blkid = 64 + u32::from(choice % 48);
        let blkcnt = 1 + u32::from(choice % 8);
        let req = if choice % 7 == 0 {
            Request::Write { device: Device::Mmc, blkid, data: pattern(i as u64, blkcnt) }
        } else {
            Request::Read { device: Device::Mmc, blkid, blkcnt }
        };
        let id = match service.submit(session, req.clone()) {
            Ok(id) => id,
            Err(ServeError::QueueFull { fleet, .. }) => {
                assert_eq!(fleet.len(), REPLICAS, "a routed reject reports every replica's depth");
                assert!(
                    fleet.iter().any(|r| r.depth >= r.capacity),
                    "a routed reject implies some saturated shard"
                );
                completions.extend(service.drain_all());
                service.submit(session, req.clone()).expect("submit after drain")
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        };
        program.push((id, req));
    }
    completions.extend(service.drain_all());
    assert_eq!(completions.len(), program.len(), "drained mid-run or not, nothing is lost");
    assert_eq!(service.stats().routed as usize, program.len());

    let mut rig = serial_rig(Device::Mmc);
    let mut serial_reads: HashMap<RequestId, Vec<u8>> = HashMap::new();
    for (id, req) in &program {
        if let Some(bytes) = serial_execute(&mut rig, Device::Mmc, req) {
            serial_reads.insert(*id, bytes);
        }
    }
    for c in &completions {
        match &c.result {
            Ok(Payload::Read(bytes)) => prop_assert_eq_bytes(&serial_reads[&c.id], bytes, c.id),
            Ok(_) => {}
            Err(other) => panic!("request {} failed under spill pressure: {other}", c.id),
        }
    }
    let readback = Request::Read { device: Device::Mmc, blkid: 64, blkcnt: 56 };
    let id = service.submit(sessions[0], readback.clone()).expect("submit readback");
    let final_completion =
        service.drain_all().into_iter().find(|c| c.id == id).expect("readback completion");
    let Ok(Payload::Read(service_state)) = final_completion.result else {
        panic!("readback failed");
    };
    let serial_state = serial_execute(&mut rig, Device::Mmc, &readback).expect("serial readback");
    prop_assert_eq_bytes(&serial_state, &service_state, id);
}

/// The **adversarial multi-tenancy** flavour of the property: a flooding
/// tenant capped by admission QoS, a mid-batch divergence storm on one
/// replica, failover retries across a 2–4-replica fleet, and the watchdog
/// quarantining and restoring the victimised lane — all in one run. The
/// invariants:
///
/// * the flooder's burst overflows its token bucket into typed
///   [`ServeError::Throttled`] rejects; victims are **never** rejected
///   (their submits `expect`, so any throttle or queue-full fails here);
/// * client-side conservation: every accepted request surfaces exactly one
///   completion (`ok + diverged/exhausted == accepted`), throttled submits
///   never got an id — `completed + diverged + throttled == submitted`;
/// * the storm's clean single-chunk reads complete `Ok` via sibling
///   failover, the sticky fault notwithstanding;
/// * every successful read stays byte-identical to the interpreted serial
///   reference executing the submissions in submission order (clean
///   retried reads touch never-written chunks, so the replica premise
///   keeps the single-rig reference valid);
/// * the watchdog trips on the storm, and post-storm traffic passes the
///   lane through probation back to `Healthy`.
fn check_adversarial_fleet(mmc_replicas: usize, choices: &[u8], skip: u64, exec_mode: ExecMode) {
    let route_policy = RoutePolicy::HashShard { chunk_blocks: 16 };
    let config = ServeConfig {
        policy: Policy::Fifo,
        coalesce: true,
        exec_mode,
        route: RouteConfig { policy: route_policy, spill: true },
        qos: QosConfig { enabled: true, default_qos: SessionQos::default() },
        failover: FailoverConfig { enabled: true, retry_budget: 2, backoff_base_ns: 50_000 },
        supervise: SuperviseConfig {
            enabled: true,
            divergence_threshold: 2,
            window: 16,
            probation_ok: 2,
        },
        block_granularities: GRANULARITIES.to_vec(),
        ..ServeConfig::default()
    };
    let fleet: Vec<(Device, Driverlet)> =
        (0..mmc_replicas).map(|_| (Device::Mmc, mmc_bundle().clone())).collect();
    let mut service = DriverletService::with_driverlets(&fleet, config).expect("build service");
    let flooder = service.open_session().unwrap();
    let victims: Vec<u32> = (0..2).map(|_| service.open_session().unwrap()).collect();
    // A tight bucket: 10 rps (one token per 100 virtual ms), burst 2.
    service
        .set_session_qos(flooder, SessionQos { rate_rps: 10, burst: 2, weight: 1 })
        .expect("flooder qos");

    let mut program: Vec<(RequestId, Request)> = Vec::new();
    let mut throttled = 0usize;

    // Phase 1 — the flood: back-to-back flooder reads, four times the
    // bucket's burst, with no virtual time for refill in between.
    for i in 0..8u32 {
        let req = Request::Read { device: Device::Mmc, blkid: i % 16, blkcnt: 1 };
        match service.submit(flooder, req.clone()) {
            Ok(id) => program.push((id, req)),
            Err(ServeError::Throttled { session, retry_after_ns, .. }) => {
                assert_eq!(session, flooder, "the throttle names the offending tenant");
                assert!(retry_after_ns > 0, "the throttle names its refill horizon");
                throttled += 1;
            }
            Err(other) => panic!("the flooder can only be throttled, got {other}"),
        }
    }
    assert!(throttled >= 1, "an 8-deep burst must overflow a burst-2 bucket");

    // Phase 2 — victim traffic with a mid-batch fault storm: halfway
    // through, replica 0 grows a sticky read fault and the storm reads
    // (clean, single-chunk, homed there) must survive via failover.
    let half = choices.len() / 2;
    let homed0: Vec<u32> =
        (0..64u32).filter(|b| route_policy.replica_for(*b, mmc_replicas) == 0).take(6).collect();
    let mut storm_ids: Vec<RequestId> = Vec::new();
    for (i, &choice) in choices.iter().enumerate() {
        if i == half {
            service
                .inject_fault(
                    LaneId { device: Device::Mmc, replica: 0 },
                    FaultPlan {
                        template: Some("_rd_".into()),
                        skip_invocations: skip,
                        sticky: true,
                        ..FaultPlan::default()
                    },
                )
                .expect("inject storm fault");
            for &b in &homed0 {
                let req = Request::Read { device: Device::Mmc, blkid: b, blkcnt: 1 };
                let id = service.submit(victims[0], req.clone()).expect("storm read accepted");
                storm_ids.push(id);
                program.push((id, req));
            }
        }
        let session = victims[i % victims.len()];
        let blkid = 64 + u32::from(choice % 48);
        let blkcnt = 1 + u32::from(choice % 8);
        let req = if choice % 3 == 0 {
            Request::Write { device: Device::Mmc, blkid, data: pattern(i as u64, blkcnt) }
        } else {
            Request::Read { device: Device::Mmc, blkid, blkcnt }
        };
        let id = service.submit(session, req.clone()).expect("victims are never rejected");
        program.push((id, req));
    }

    let completions = service.drain_all();
    let requests: HashMap<RequestId, &Request> =
        program.iter().map(|(id, req)| (*id, req)).collect();
    let mut seen_ids = std::collections::HashSet::new();
    for c in &completions {
        assert!(seen_ids.insert(c.id), "request {} delivered twice ({:?})", c.id, c.result);
        assert!(requests.contains_key(&c.id), "unknown completion {} ({:?})", c.id, c.result);
    }
    assert_eq!(completions.len(), program.len(), "accepted == delivered: zero lost");
    let mut ok = 0usize;
    let mut failed = 0usize;
    for c in &completions {
        match &c.result {
            Ok(_) => ok += 1,
            Err(ServeError::Replay(ReplayError::Diverged(_)))
            | Err(ServeError::Exhausted { .. }) => {
                assert!(
                    matches!(requests[&c.id], Request::Read { .. }),
                    "request {}: only reads can fail under a read-template fault",
                    c.id
                );
                failed += 1;
            }
            other => panic!("request {} must complete or fail typed, got {other:?}", c.id),
        }
        assert!(
            c.completed_ns >= c.submitted_ns,
            "request {} completed at {} before its submission {}",
            c.id,
            c.completed_ns,
            c.submitted_ns
        );
    }
    // Client-side conservation: completed + diverged + throttled ==
    // submitted (throttled submits never received an id).
    assert_eq!(ok + failed, program.len());
    assert_eq!(service.stats().throttled as usize, throttled);
    // The storm's retryable reads all completed Ok via the sibling.
    for id in &storm_ids {
        let c = completions.iter().find(|c| c.id == *id).unwrap();
        assert!(c.result.is_ok(), "storm read {id} must survive via failover: {:?}", c.result);
    }
    assert!(service.stats().failovers >= 1, "the storm must have exercised failover");
    assert!(service.stats().quarantines >= 1, "the storm must trip the watchdog");

    // Byte identity for every successful read against the interpreted
    // serial reference executing the submissions in submission order
    // (valid for routed fleets — each block address has one FIFO home
    // shard, and moved reads only touch never-written chunks; see
    // `check_routed_replicas`).
    let mut rig = serial_rig(Device::Mmc);
    let mut serial_reads: HashMap<RequestId, Vec<u8>> = HashMap::new();
    for (id, req) in &program {
        if let Some(bytes) = serial_execute(&mut rig, Device::Mmc, req) {
            serial_reads.insert(*id, bytes);
        }
    }
    for c in &completions {
        if let Ok(Payload::Read(bytes)) = &c.result {
            prop_assert_eq_bytes(&serial_reads[&c.id], bytes, c.id);
        }
    }

    // Phase 3 — recovery: the watchdog's soft reset cleared the sticky
    // fault; post-storm traffic homed on the victimised replica passes it
    // through probation back to healthy.
    for &b in &homed0 {
        service
            .submit(victims[1], Request::Read { device: Device::Mmc, blkid: b, blkcnt: 1 })
            .expect("post-storm read");
    }
    let tail = service.drain_all();
    assert_eq!(tail.len(), homed0.len());
    assert!(tail.iter().all(|c| c.result.is_ok()), "the fleet serves cleanly after the storm");
    assert!(service.stats().lane_restores >= 1, "probation restored the quarantined lane");
    let health = service
        .lane_health_check(LaneId { device: Device::Mmc, replica: 0 })
        .expect("post-probation health");
    assert_eq!(health.state, LaneState::Healthy);
}

fn prop_assert_eq_bytes(expected: &[u8], got: &[u8], id: RequestId) {
    assert_eq!(expected.len(), got.len(), "length mismatch for request {id}");
    if expected != got {
        let first = expected.iter().zip(got).position(|(a, b)| a != b).unwrap();
        panic!("request {id}: payload diverges from the serial order at byte {first}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn mmc_interleavings_match_a_serial_order_fifo(
        choices in proptest::collection::vec(any::<u8>(), 6..18)
    ) {
        check_block_device(Device::Mmc, Policy::Fifo, &choices);
    }

    #[test]
    fn mmc_interleavings_match_a_serial_order_drr(
        choices in proptest::collection::vec(any::<u8>(), 6..18)
    ) {
        check_block_device(
            Device::Mmc,
            Policy::DeficitRoundRobin { quantum_blocks: 16 },
            &choices,
        );
    }

    #[test]
    fn mmc_ring_batches_match_a_serial_order_fifo(
        choices in proptest::collection::vec(any::<u8>(), 6..18)
    ) {
        check_ring_batches(Device::Mmc, Policy::Fifo, &choices);
    }

    #[test]
    fn mmc_ring_batches_match_a_serial_order_drr(
        choices in proptest::collection::vec(any::<u8>(), 6..18)
    ) {
        check_ring_batches(
            Device::Mmc,
            Policy::DeficitRoundRobin { quantum_blocks: 16 },
            &choices,
        );
    }

    #[test]
    fn usb_ring_batches_match_a_serial_order_fifo(
        choices in proptest::collection::vec(any::<u8>(), 6..12)
    ) {
        check_ring_batches(Device::Usb, Policy::Fifo, &choices);
    }

    #[test]
    fn usb_interleavings_match_a_serial_order_fifo(
        choices in proptest::collection::vec(any::<u8>(), 6..12)
    ) {
        check_block_device(Device::Usb, Policy::Fifo, &choices);
    }

    #[test]
    fn mmc_interleavings_with_divergences_keep_surviving_sessions_identical(
        choices in proptest::collection::vec(any::<u8>(), 6..18),
        skip in 0u64..6,
    ) {
        check_block_device_with_divergences(
            Device::Mmc,
            Policy::Fifo,
            &choices,
            skip,
            SubmitMode::PerCall,
        );
    }

    #[test]
    fn mmc_ring_batches_with_divergences_keep_surviving_sessions_identical(
        choices in proptest::collection::vec(any::<u8>(), 6..18),
        skip in 0u64..6,
    ) {
        check_block_device_with_divergences(
            Device::Mmc,
            Policy::Fifo,
            &choices,
            skip,
            SubmitMode::Ring,
        );
    }

    #[test]
    fn usb_interleavings_with_divergences_keep_surviving_sessions_identical(
        choices in proptest::collection::vec(any::<u8>(), 6..12),
        skip in 0u64..4,
    ) {
        check_block_device_with_divergences(
            Device::Usb,
            Policy::DeficitRoundRobin { quantum_blocks: 8 },
            &choices,
            skip,
            SubmitMode::PerCall,
        );
    }

    #[test]
    fn mmc_usb_parallel_lanes_match_a_serial_order_fifo(
        choices in proptest::collection::vec(any::<u8>(), 8..20)
    ) {
        check_parallel_lanes(Policy::Fifo, &choices, None);
    }

    #[test]
    fn mmc_usb_parallel_lanes_match_a_serial_order_drr(
        choices in proptest::collection::vec(any::<u8>(), 8..20)
    ) {
        check_parallel_lanes(
            Policy::DeficitRoundRobin { quantum_blocks: 16 },
            &choices,
            None,
        );
    }

    #[test]
    fn mmc_usb_parallel_lanes_with_divergences_balance_exactly(
        choices in proptest::collection::vec(any::<u8>(), 8..20),
        skip in 0u64..6,
    ) {
        check_parallel_lanes(Policy::Fifo, &choices, Some(skip));
    }

    #[test]
    fn usb_interleavings_match_a_serial_order_drr(
        choices in proptest::collection::vec(any::<u8>(), 6..14)
    ) {
        check_block_device(
            Device::Usb,
            Policy::DeficitRoundRobin { quantum_blocks: 8 },
            &choices,
        );
    }

    #[test]
    fn mmc_usb_routed_replicas_hash_match_a_serial_order(
        choices in proptest::collection::vec(any::<u8>(), 8..20),
        replicas in 2usize..5,
    ) {
        // Small chunks so spans regularly straddle a chunk boundary and
        // fan out across shards.
        check_routed_replicas(
            replicas,
            RoutePolicy::HashShard { chunk_blocks: 16 },
            &choices,
            SubmitMode::PerCall,
            ExecMode::Sequential,
            None,
        );
    }

    #[test]
    fn mmc_usb_routed_replicas_stripe_ring_match_a_serial_order(
        choices in proptest::collection::vec(any::<u8>(), 8..20),
        replicas in 2usize..5,
    ) {
        check_routed_replicas(
            replicas,
            RoutePolicy::Stripe { stripe_blocks: 8 },
            &choices,
            SubmitMode::Ring,
            ExecMode::Sequential,
            None,
        );
    }

    #[test]
    fn mmc_usb_routed_replicas_threaded_match_a_serial_order(
        choices in proptest::collection::vec(any::<u8>(), 8..20),
        replicas in 2usize..4,
    ) {
        check_routed_replicas(
            replicas,
            RoutePolicy::HashShard { chunk_blocks: 16 },
            &choices,
            SubmitMode::PerCall,
            ExecMode::Threaded,
            None,
        );
    }

    #[test]
    fn mmc_usb_routed_replicas_with_divergences_keep_survivors_identical(
        choices in proptest::collection::vec(any::<u8>(), 8..20),
        replicas in 2usize..4,
        skip in 0u64..6,
    ) {
        check_routed_replicas(
            replicas,
            RoutePolicy::Stripe { stripe_blocks: 8 },
            &choices,
            SubmitMode::PerCall,
            ExecMode::Sequential,
            Some(skip),
        );
    }

    #[test]
    fn mmc_routed_spill_keeps_reads_byte_identical(
        choices in proptest::collection::vec(any::<u8>(), 10..24)
    ) {
        check_routed_spill(&choices);
    }

    #[test]
    fn mmc_adversarial_flood_storm_failover_matches_a_serial_order(
        choices in proptest::collection::vec(any::<u8>(), 8..20),
        replicas in 2usize..5,
        skip in 0u64..2,
    ) {
        check_adversarial_fleet(replicas, &choices, skip, ExecMode::Sequential);
    }

    #[test]
    fn mmc_adversarial_threaded_flood_storm_failover_matches_a_serial_order(
        choices in proptest::collection::vec(any::<u8>(), 8..16),
        replicas in 2usize..4,
        skip in 0u64..2,
    ) {
        check_adversarial_fleet(replicas, &choices, skip, ExecMode::Threaded);
    }
}

/// The camera lane: concurrent capture sessions produce exactly the frames
/// the serial interpreted replay produces, in dispatch order.
#[test]
fn vchiq_captures_match_the_serial_order() {
    let config =
        ServeConfig { policy: Policy::Fifo, camera_bursts: vec![1], ..ServeConfig::default() };
    let mut service =
        DriverletService::with_driverlets(&[(Device::Vchiq, cam_bundle().clone())], config)
            .expect("build service");
    let a = service.open_session().unwrap();
    let b = service.open_session().unwrap();
    let mut requests = HashMap::new();
    for (i, resolution) in [720u32, 1080, 720, 1440].iter().enumerate() {
        let session = if i % 2 == 0 { a } else { b };
        let req = Request::Capture { frames: 1, resolution: *resolution };
        let id = service.submit(session, req.clone()).unwrap();
        requests.insert(id, req);
    }
    let completions = service.drain_all();
    let witness = service.take_exec_log();
    assert_eq!(completions.len(), 4);

    let mut rig = serial_rig(Device::Vchiq);
    let mut serial_frames = HashMap::new();
    for id in &witness {
        serial_frames.insert(*id, serial_execute(&mut rig, Device::Vchiq, &requests[id]).unwrap());
    }
    for c in &completions {
        let Ok(Payload::Image { data }) = &c.result else {
            panic!("capture failed: {:?}", c.result);
        };
        assert!(dlt_dev_vchiq::msg::is_valid_jpeg(data));
        assert_eq!(
            &serial_frames[&c.id], data,
            "frame for request {} must match the serial interpreted replay",
            c.id
        );
    }
}
