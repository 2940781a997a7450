//! Metrics-plane reconciliation property: under random threaded traffic —
//! faults injected and cleared mid-run — the [`MetricsSnapshot`] counters
//! must reconcile exactly at every quiescent point:
//!
//! * per lane: `admitted == completed + diverged + failed` and
//!   `in_queue == 0` once drained (mid-run, `in_queue` is the difference);
//! * per service: the per-session `submitted` total equals the terminal
//!   total (`completed + diverged`) — every accepted request reaches
//!   exactly one terminal classification, whatever path it took.

use dlt_core::FaultPlan;
use dlt_obs::metrics::MetricsSnapshot;
use dlt_obs::ObsConfig;
use dlt_serve::{Device, DriverletService, ExecMode, Request, ServeConfig, SubmitMode};
use proptest::prelude::*;

fn reconcile_lanes(snap: &MetricsSnapshot) {
    for lane in &snap.lanes {
        prop_assert_eq!(lane.in_queue, 0, "lane {} drained but holds work", lane.lane);
        prop_assert_eq!(
            lane.admitted,
            lane.completed + lane.diverged + lane.failed,
            "lane {} ({}) leaked a request between admission and its terminal event",
            lane.lane,
            &lane.device
        );
    }
}

fn run_case(choices: &[u8], mode: SubmitMode) {
    let config = ServeConfig {
        submit_mode: mode,
        exec_mode: ExecMode::Threaded,
        obs: ObsConfig::Full,
        block_granularities: vec![1, 8],
        ..ServeConfig::default()
    };
    let mut service =
        DriverletService::new(&[Device::Mmc, Device::Usb], config).expect("build service");
    let sessions: Vec<u32> = (0..3).map(|_| service.open_session().unwrap()).collect();

    let mut faulted = false;
    for (i, byte) in choices.iter().enumerate() {
        let session = sessions[*byte as usize % sessions.len()];
        let device = if byte % 2 == 0 { Device::Mmc } else { Device::Usb };
        match byte % 7 {
            // Flip the fault state on the MMC lane: replays from here on
            // diverge (sticky) until the next flip clears it.
            0 => {
                if faulted {
                    service.clear_fault(Device::Mmc).expect("clear fault");
                } else {
                    service
                        .inject_fault(
                            Device::Mmc,
                            FaultPlan {
                                template: Some("_rd_".to_string()),
                                sticky: true,
                                ..FaultPlan::default()
                            },
                        )
                        .expect("inject fault");
                }
                faulted = !faulted;
            }
            // A quiescent checkpoint mid-run: the invariants must already
            // hold here, not only at the end.
            1 => {
                service.drain_all();
                for s in &sessions {
                    service.take_completions(*s);
                }
                let snap = service.metrics_snapshot();
                reconcile_lanes(&snap);
            }
            2 | 3 => {
                let data = vec![*byte; 512];
                let _ = service.submit(
                    session,
                    Request::Write { device, blkid: 64 + u32::from(*byte % 32), data },
                );
            }
            _ => {
                let _ = service.submit(
                    session,
                    Request::Read {
                        device,
                        blkid: 64 + u32::from(*byte % 32),
                        blkcnt: 1 + u32::from(i as u8 % 4),
                    },
                );
            }
        }
        if mode == SubmitMode::Ring && byte % 5 == 0 {
            service.ring_doorbell().expect("doorbell");
        }
    }
    service.drain_all();
    for s in &sessions {
        service.take_completions(*s);
    }

    let snap = service.metrics_snapshot();
    reconcile_lanes(&snap);

    let submitted: u64 = snap.sessions.iter().map(|s| s.submitted).sum();
    let terminal: u64 = snap.sessions.iter().map(|s| s.completed + s.diverged).sum();
    prop_assert_eq!(
        submitted,
        terminal,
        "sessions saw {} submissions but {} terminal completions",
        submitted,
        terminal
    );

    // The faulted phases produced real divergences exactly when a fault
    // was live; the lane counter and the session counters agree on them.
    let lane_diverged: u64 = snap.lanes.iter().map(|l| l.diverged).sum();
    let session_diverged: u64 = snap.sessions.iter().map(|s| s.diverged).sum();
    prop_assert_eq!(lane_diverged, session_diverged);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn per_call_metrics_reconcile_under_faulted_threaded_traffic(
        choices in proptest::collection::vec(any::<u8>(), 24..64)
    ) {
        run_case(&choices, SubmitMode::PerCall);
    }

    #[test]
    fn ring_metrics_reconcile_under_faulted_threaded_traffic(
        choices in proptest::collection::vec(any::<u8>(), 24..64)
    ) {
        run_case(&choices, SubmitMode::Ring);
    }
}
