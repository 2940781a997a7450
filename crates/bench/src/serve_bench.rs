//! Service-layer host-time measurement and the `BENCH_serve.json` emitter.
//!
//! Two experiments over `dlt-serve`, both measured in **host** time
//! (`std::time::Instant`), so they vary run to run and machine to machine:
//!
//! 1. **Wall-clock lane parallelism** — N replica MMC lanes each replay the
//!    same uncoalesced read workload, sequential vs per-lane OS threads
//!    ([`ExecMode::Threaded`]), at 1/2/4/8 lanes. Acceptance (CI, when the
//!    host has ≥ 4 cores): threaded ≥ 2x sequential at 4 lanes.
//! 2. **Routed weak scaling** — a replica fleet behind the shard router
//!    serves an open-loop schedule whose tenant population grows with the
//!    lane count. Acceptance (when the host has ≥ 8 cores): 8 lanes reach
//!    ≥ 1.7x the 4-lane request rate.
//!
//! The serve layer's virtual-time gates (coalescing, per-lane clocks, the
//! hold sweep, rings, spill, isolation, failover and churn) are exact, so
//! they are asserted and pinned once, in `tests/serve_gates.rs`.

use dlt_recorder::campaign::record_mmc_driverlet_subset;
use dlt_serve::{
    Device, DriverletService, ExecMode, LaneId, Policy, Request, RouteConfig, RoutePolicy,
    ServeConfig, SessionId,
};
use serde::{Deserialize, Serialize};

use crate::arrivals::{heterogeneous_schedule, replica_fleet_specs};

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

/// The wall-clock lane-parallelism experiment. `host_cores` records how
/// much hardware parallelism the measurement had; the ≥ 2x gate at 4
/// lanes only applies when `host_cores >= 4`.
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

/// The routed replica-fleet weak-scaling curve out to 8–16 lanes.
/// `host_cores` in the wall-clock section records how much hardware
/// parallelism it had; the ≥ 1.7x gate at 8 vs 4 lanes only applies when
/// it is ≥ 8.
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
}

/// The persisted `BENCH_serve.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// Workload description.
    pub workload: String,
    /// The sequential-vs-threaded wall-clock comparison.
    pub wall_clock: WallClockSample,
    /// The routed replica-fleet weak-scaling curve.
    pub routed: RoutedSample,
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
    RoutedSample { policy: "stripe".into(), requests_per_session, points, ratio_8v4 }
}

/// Run both experiments.
pub fn run_serve_bench(quick: bool) -> ServeBenchReport {
    // wall_requests stays modest even in full mode: the wall-clock arms
    // retain every 8-block read payload until the final reap, and past
    // ~16k in-flight requests the footprint (>64 MB of payloads) starts
    // measuring the allocator rather than lane parallelism.
    let wall_requests = if quick { 512 } else { 1024 };
    let (routed_lanes, routed_requests): (&[usize], u32) =
        if quick { (&[1, 2, 4, 8], 48) } else { (&[1, 2, 4, 8, 16], 128) };
    ServeBenchReport {
        workload: format!(
            "serve layer, host time: wall-clock sequential-vs-threaded at 1/2/4/8 replica MMC \
             lanes x {wall_requests} 8-block reads/lane; routed replica-fleet weak scaling at \
             {routed_requests} requests/session"
        ),
        wall_clock: run_wall_clock_bench(&[1, 2, 4, 8], wall_requests),
        routed: run_routed_bench(routed_lanes, routed_requests),
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

/// Write the report to `path`.
pub fn emit_report(report: &ServeBenchReport, path: &str) -> std::io::Result<()> {
    std::fs::write(path, report_json(report))
}

/// Render the human-readable summary the bench and `report -- serve` print.
pub fn describe(report: &ServeBenchReport) -> String {
    let mut out = format!("workload: {}\n", report.workload);
    let w = &report.wall_clock;
    out.push_str(&format!(
        "wall-clock ({} core(s), {} reads/lane):\n",
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
        "routed weak scaling ({} placement, {} requests/session):\n",
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
    out
}

/// One-line record for log scraping.
pub fn summary_line(report: &ServeBenchReport) -> String {
    let wall_4 =
        report.wall_clock.points.iter().find(|p| p.lanes == 4).map(|p| p.speedup).unwrap_or(0.0);
    format!(
        "serve_throughput wall_4lane={:.2} cores={} routed_8v4={:.2}",
        wall_4, report.wall_clock.host_cores, report.routed.ratio_8v4
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn routed_fleet_completes_every_request_and_round_trips_through_json() {
        // Small lane counts keep this unit-sized; the 4/8/16-lane curve
        // (and its conditional ≥ 1.7x gate) lives in the serve_throughput
        // bench. What must hold anywhere: every request completes through
        // the router, and weak scaling grows the load with the lanes.
        let routed = run_routed_bench(&[1, 2], 12);
        assert_eq!(routed.points.len(), 2);
        for p in &routed.points {
            assert_eq!(p.sessions, 3 * p.lanes, "three read-only sessions per lane");
            assert_eq!(p.requests, 3 * 12 * p.lanes as u64, "weak scaling: load grows with lanes");
            assert!(p.elapsed_ms > 0.0 && p.rps > 0.0);
        }
        // The persisted schema round-trips, and an artifact without one
        // of its sections fails to parse, so `report` regenerates it
        // instead of printing stale numbers.
        let report = ServeBenchReport {
            workload: "unit".into(),
            wall_clock: run_wall_clock_bench(&[1], 8),
            routed,
        };
        let json = report_json(&report);
        let parsed = parse_report(&json).expect("parse persisted report");
        assert_eq!(report_json(&parsed), json);
        for section in ["\"wall_clock\"", "\"routed\""] {
            assert!(parse_report(&json.replace(section, "\"gone\"")).is_err(), "{section}");
        }
    }
}
