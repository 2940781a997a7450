//! Trace-plane integration: the flight recorder under real (threaded)
//! traffic.
//!
//! * Random two-session traffic on a live lane thread with
//!   [`ObsConfig::Full`] must reconstruct one fully ordered span per
//!   completed request — submit ≤ admit ≤ dispatch ≤ complete in virtual
//!   time — with **zero** events dropped at the default ring size.
//! * The Chrome export must name every registered track and emit one
//!   complete (`"X"`) span per request.
//! * `Off` and `MetricsOnly` keep the recorder dark: no events and no
//!   Chrome trace; the counters run at every level, and `Off` leaves the
//!   histograms empty.

use std::collections::HashSet;

use dlt_obs::trace::{chrome_trace_json, reconstruct_spans, EventKind, SmcKind};
use dlt_obs::ObsConfig;
use dlt_serve::{Device, DriverletService, ExecMode, Payload, Request, ServeConfig, SubmitMode};

fn full_config() -> ServeConfig {
    ServeConfig {
        exec_mode: ExecMode::Threaded,
        obs: ObsConfig::Full,
        block_granularities: vec![1, 8, 32],
        ..ServeConfig::default()
    }
}

/// Deterministic mixed read/write traffic: the xorshift decides extent,
/// direction and which session submits.
fn mixed_traffic(service: &mut DriverletService, sessions: &[u32], n: u32) -> Vec<u64> {
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut ids = Vec::new();
    for i in 0..n {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let session = sessions[(rng % sessions.len() as u64) as usize];
        let blkid = 32 + (rng >> 8) as u32 % 64;
        let req = if rng.is_multiple_of(3) {
            Request::Write { device: Device::Mmc, blkid, data: vec![i as u8; 512] }
        } else {
            Request::Read { device: Device::Mmc, blkid, blkcnt: 1 + (rng >> 16) as u32 % 4 }
        };
        ids.push(service.submit(session, req).expect("submit"));
    }
    ids
}

#[test]
fn threaded_traffic_reconstructs_fully_ordered_spans_with_zero_loss() {
    let mut service = DriverletService::new(&[Device::Mmc], full_config()).expect("build service");
    let a = service.open_session().unwrap();
    let b = service.open_session().unwrap();
    let ids = mixed_traffic(&mut service, &[a, b], 120);
    let done = service.drain_all();
    assert_eq!(done.len(), ids.len());
    for c in &done {
        assert!(matches!(c.result, Ok(Payload::Read(_)) | Ok(Payload::Written { .. })));
    }

    let events = service.recorder().drain();
    assert_eq!(
        service.recorder().dropped_events(),
        0,
        "the default ring size must absorb this workload without loss"
    );
    let spans = reconstruct_spans(&events);
    let spanned: HashSet<u64> = spans.iter().map(|s| s.request).collect();
    for id in &ids {
        assert!(spanned.contains(id), "request {id} left no span");
    }
    for span in &spans {
        assert!(
            span.is_fully_ordered(),
            "span for request {} lost its stage order: {span:?}",
            span.request
        );
        assert!(!span.diverged, "no faults were injected");
        assert!(span.track >= 1, "dispatch must stamp a lane track, got {}", span.track);
    }

    // Host stamps in the merged log are sorted (the drain contract).
    assert!(events.windows(2).all(|w| w[0].host_ns <= w[1].host_ns));
    // The workload ran through a live lane thread, so the lane parked at
    // least once (at startup) and worker dispatch events exist.
    assert!(events.iter().any(|e| e.kind == EventKind::Dispatched));
}

#[test]
fn ring_mode_traces_doorbells_and_balanced_smc_brackets() {
    let config = ServeConfig { submit_mode: SubmitMode::Ring, ..full_config() };
    let mut service = DriverletService::new(&[Device::Mmc], config).expect("build service");
    let session = service.open_session().unwrap();
    for i in 0..24u32 {
        service
            .submit(session, Request::Read { device: Device::Mmc, blkid: i % 16, blkcnt: 1 })
            .expect("stage");
        if i % 8 == 7 {
            service.ring_doorbell().expect("doorbell");
        }
    }
    let done = service.drain_all();
    assert_eq!(done.len(), 24);
    service.take_completions(session);

    let events = service.recorder().drain();
    let doorbells = events.iter().filter(|e| e.kind == EventKind::Doorbell).count();
    assert!(doorbells >= 3, "three explicit doorbells rang, traced {doorbells}");
    let enters = events.iter().filter(|e| e.kind == EventKind::SmcEnter).count();
    let exits = events.iter().filter(|e| e.kind == EventKind::SmcExit).count();
    assert_eq!(enters, exits, "every SMC bracket must close");
    assert!(enters > 0);
    for e in events.iter().filter(|e| e.kind == EventKind::SmcEnter) {
        assert!(SmcKind::from_arg(e.arg).is_some(), "SMC event carries an unknown kind {}", e.arg);
    }
    assert!(
        events.iter().any(|e| e.kind == EventKind::SmcEnter && e.arg == SmcKind::Doorbell as u64),
        "the doorbell SMC kind must appear"
    );
}

#[test]
fn chrome_export_names_every_track_and_spans_every_request() {
    let mut service = DriverletService::new(&[Device::Mmc], full_config()).expect("build service");
    let session = service.open_session().unwrap();
    let ids = mixed_traffic(&mut service, &[session], 40);
    service.drain_all();

    // Render from one drain so the events feed both checks.
    let events = service.recorder().drain();
    let json = chrome_trace_json(&events, &service.recorder().track_names());
    assert!(json.contains("\"front-end\""), "track 0 metadata missing");
    assert!(json.contains("lane-0-mmc"), "lane track metadata missing");
    assert!(json.contains("\"ph\":\"X\""), "no complete spans rendered");
    for id in ids.iter().take(5) {
        assert!(json.contains(&format!("\"request\":{id}")), "request {id} absent");
    }
    // Balanced braces/brackets — the cheap structural validity check the
    // obs unit tests also apply.
    let depth = json.chars().fold(0i64, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "unbalanced JSON structure");
}

#[test]
fn off_and_metrics_only_keep_the_recorder_dark() {
    for obs in [ObsConfig::Off, ObsConfig::MetricsOnly] {
        let config = ServeConfig { obs, ..full_config() };
        let mut service = DriverletService::new(&[Device::Mmc], config).expect("build service");
        let session = service.open_session().unwrap();
        mixed_traffic(&mut service, &[session], 20);
        service.drain_all();
        assert!(service.recorder().drain().is_empty(), "{obs:?} must not record events");
        assert!(service.chrome_trace().is_none(), "{obs:?} must not export a trace");
        let snap = service.metrics_snapshot();
        assert_eq!(snap.lanes[0].completed, 20, "{obs:?}: the counters are always on");
        let recorded = snap.lanes[0].latency_ns.total();
        assert_eq!(recorded, if obs == ObsConfig::Off { 0 } else { 20 }, "{obs:?}: histograms");
    }
}
