//! Session-churn stress: thousands of open/close cycles through the gate
//! trustlet, interleaved with live traffic on long-lived sessions.
//!
//! The leak surfaces this pins:
//!
//! * **session ids are never reused** — the gate's id counter only moves
//!   forward, so a stale id held by a dead client can never alias a new
//!   session's completion queue;
//! * **completion queues do not leak** — `session_count` returns to the
//!   live baseline after every churn wave;
//! * **the metrics registry does not leak** — closed sessions drop their
//!   per-session series (`MetricsSnapshot::sessions` returns to baseline),
//!   while outcomes for requests whose session died in flight are folded
//!   into the robustness plane's `orphan_outcomes` aggregate instead of
//!   resurrecting a series.

use std::collections::HashSet;

use dlt_obs::ObsConfig;
use dlt_serve::{Device, DriverletService, ExecMode, Request, ServeConfig, SessionId, SubmitMode};

fn churn_config(exec_mode: ExecMode) -> ServeConfig {
    ServeConfig {
        exec_mode,
        obs: ObsConfig::Full,
        block_granularities: vec![1],
        ..ServeConfig::default()
    }
}

fn run_churn(exec_mode: ExecMode, waves: usize, churn_per_wave: usize) {
    let mut service =
        DriverletService::new(&[Device::Mmc], churn_config(exec_mode)).expect("build service");

    // Two long-lived tenants keep real traffic flowing through every wave.
    let residents: Vec<SessionId> =
        (0..2).map(|_| service.open_session().expect("resident session")).collect();
    let baseline_sessions = service.session_count();

    let mut seen = HashSet::new();
    for s in &residents {
        assert!(seen.insert(*s));
    }

    let mut resident_submitted = 0u64;
    let mut resident_completed = 0u64;
    for wave in 0..waves {
        // A burst of ephemeral sessions: open, touch the device, close.
        // Half close *before* reaping (their in-flight completions become
        // orphans), half reap first — both must leave nothing behind.
        let mut ephemerals = Vec::with_capacity(churn_per_wave);
        for i in 0..churn_per_wave {
            let s = service.open_session().expect("churn session");
            assert!(seen.insert(s), "session id {s} was reused — stale handles could alias it");
            service
                .submit(s, Request::Read { device: Device::Mmc, blkid: (i % 32) as u32, blkcnt: 1 })
                .expect("churn read");
            ephemerals.push(s);
        }
        // Interleaved resident traffic in the same wave.
        for (k, r) in residents.iter().enumerate() {
            service
                .submit(
                    *r,
                    Request::Read {
                        device: Device::Mmc,
                        blkid: ((wave + k) % 32) as u32,
                        blkcnt: 1,
                    },
                )
                .expect("resident read");
            resident_submitted += 1;
        }
        for (i, s) in ephemerals.iter().enumerate() {
            if i % 2 == 0 {
                // Close with the read still (possibly) in flight: its
                // completion is an orphan and must not resurrect a series.
                service.close_session(*s);
            } else {
                service.drain_all();
                let reaped = service.take_completions(*s);
                assert!(
                    reaped.iter().all(|c| c.session == *s),
                    "a session must only ever reap its own completions"
                );
                service.close_session(*s);
            }
        }
        service.drain_all();
        for r in &residents {
            resident_completed += service.take_completions(*r).len() as u64;
        }

        // Quiescent point: the gate's table and the registry are back to
        // the live baseline — no CQ leak, no metrics-series leak.
        assert_eq!(service.session_count(), baseline_sessions, "completion queues leaked");
        let snap = service.metrics_snapshot();
        assert_eq!(
            snap.sessions.len(),
            baseline_sessions,
            "closed sessions left metrics series behind (wave {wave})"
        );
        assert!(
            snap.sessions.iter().all(|s| residents.contains(&s.session)),
            "only resident sessions may hold a series"
        );
    }

    assert_eq!(resident_completed, resident_submitted, "resident traffic lost completions");
    let opened = seen.len();
    assert_eq!(opened, baseline_sessions + waves * churn_per_wave);
    // Ids are strictly monotone: the largest id equals the number handed
    // out (the gate starts at 1 and never recycles).
    let max_id = seen.iter().copied().max().unwrap_or(0);
    assert_eq!(max_id as usize, opened, "gate session ids must be dense and monotone");

    // Nothing went missing from fleet-wide accounting: outcomes reaped by
    // live sessions, outcomes folded in from retired series, and orphans
    // delivered after a close together cover every lane-side terminal.
    let snap = service.metrics_snapshot();
    let accounted = snap.sessions.iter().map(|s| s.completed + s.diverged).sum::<u64>()
        + snap.robustness.orphan_outcomes
        + snap.robustness.retired_outcomes;
    let lane_terminal = snap.lanes.iter().map(|l| l.completed + l.diverged + l.failed).sum::<u64>();
    assert_eq!(accounted, lane_terminal, "an outcome went missing during churn");
}

/// Sequential mode: a thousand-session churn with deterministic
/// interleaving. Every wave must return the service to its baseline.
#[test]
fn sequential_session_churn_leaks_nothing() {
    run_churn(ExecMode::Sequential, 50, 20);
}

/// Threaded mode: the same churn racing a live lane thread — closes land
/// while the worker is mid-batch, so orphan completions genuinely occur.
#[test]
fn threaded_session_churn_leaks_nothing() {
    run_churn(ExecMode::Threaded, 25, 20);
}

/// Ring mode churns through the doorbell path: ephemeral sessions stage
/// into the shared SQ, ring, then die; their staged-but-unreaped work must
/// still be admitted, executed, and retired as orphans.
#[test]
fn ring_session_churn_leaks_nothing() {
    let mut service = DriverletService::new(
        &[Device::Mmc],
        ServeConfig { submit_mode: SubmitMode::Ring, ..churn_config(ExecMode::Sequential) },
    )
    .expect("build service");
    let resident = service.open_session().expect("resident");
    let baseline = service.session_count();
    let mut seen = HashSet::new();
    seen.insert(resident);
    for wave in 0..40 {
        let mut ephemerals = Vec::new();
        for i in 0..10u32 {
            let s = service.open_session().expect("churn session");
            assert!(seen.insert(s), "session id {s} was reused");
            service
                .submit(s, Request::Read { device: Device::Mmc, blkid: i % 16, blkcnt: 1 })
                .expect("stage");
            ephemerals.push(s);
        }
        service.ring_doorbell().expect("doorbell");
        // Close every ephemeral immediately: all their completions orphan.
        for s in ephemerals {
            service.close_session(s);
        }
        service.drain_all();
        service.take_completions(resident);
        assert_eq!(service.session_count(), baseline, "CQ leak in wave {wave}");
        let snap = service.metrics_snapshot();
        assert_eq!(snap.sessions.len(), baseline, "series leak in wave {wave}");
    }
    let snap = service.metrics_snapshot();
    assert!(snap.robustness.orphan_outcomes > 0, "ring churn must have produced orphans");
}
