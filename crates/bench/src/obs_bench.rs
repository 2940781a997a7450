//! Observability-overhead measurement and the `BENCH_obs.json` emitter.
//!
//! One workload, three arms: the same ring-mode threaded traffic (two
//! block lanes, two sessions, a doorbell every 16 staged entries, every
//! request paying its own uncoalesced replay) driven under
//! [`ObsConfig::Off`], [`ObsConfig::MetricsOnly`] and [`ObsConfig::Full`].
//! Unlike the rest of the bench suite these numbers are **host
//! wall-clock**: the whole point is what the flight recorder and the
//! metrics registry cost on the real hot path, and virtual time cannot
//! see an atomic `fetch_add` or an SPSC push. The arms run interleaved,
//! one trial of each per round, and each arm also reports its best
//! (least-noise) makespan.
//!
//! The CI acceptance gate: `Full` must retain ≥ 0.9x the `Off` request
//! rate — observability may tax the service at most 10%. It is judged on
//! the median of the per-round `off_ms / full_ms` ratios: a round's two
//! trials ran back to back under the same host conditions, and no single
//! lucky or unlucky trial decides the median of nine such ratios, as one
//! decides the ratio of two best-of-nine minimums.
//!
//! The `Full` arm additionally harvests the artifacts the `report -- obs`
//! pretty-printer consumes: the frozen [`MetricsSnapshot`] (per-lane log₂
//! latency histograms, SMC calls by kind, the doorbell batch histogram)
//! and the Chrome `trace_event` JSON written next to `BENCH_obs.json` as
//! `trace.json` (load it in `chrome://tracing` or Perfetto: one track per
//! lane thread).

use dlt_obs::metrics::{HistogramSnapshot, MetricsSnapshot};
use dlt_obs::trace::chrome_trace_json;
use dlt_obs::ObsConfig;
use dlt_recorder::campaign::{record_mmc_driverlet_subset, record_usb_driverlet_subset};
use dlt_serve::{Device, DriverletService, ExecMode, Request, ServeConfig, SubmitMode};
use serde::{Deserialize, Serialize};

/// One observability level driven over the common workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsArmSample {
    /// Arm label (`off`, `metrics`, `full`).
    pub mode: String,
    /// Requests completed per trial.
    pub requests: u64,
    /// Host wall-clock makespan of every trial (milliseconds).
    pub trials_ms: Vec<f64>,
    /// Best (minimum) trial makespan — the number the ratios use, since
    /// the minimum is the least scheduler-noise estimate of the true cost.
    pub best_ms: f64,
    /// Requests per second of host time at the best trial.
    pub rate_rps: f64,
}

/// The persisted `BENCH_obs.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsBenchReport {
    /// Workload description.
    pub workload: String,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_cores: usize,
    /// The recorder-dark, registry-dark baseline.
    pub off: ObsArmSample,
    /// Counters/gauges/histograms on, flight recorder off.
    pub metrics_only: ObsArmSample,
    /// Both planes on: every lane thread traces into its own ring.
    pub full: ObsArmSample,
    /// `metrics_only.rate_rps / off.rate_rps`.
    pub metrics_vs_off: f64,
    /// `full.rate_rps / off.rate_rps`, the ratio of the best trials.
    pub full_vs_off: f64,
    /// Median of the per-round `off_ms / full_ms` ratios — the CI gate
    /// demands ≥ 0.9.
    pub full_vs_off_median: f64,
    /// First quartile of the per-round ratios.
    pub full_vs_off_q1: f64,
    /// Third quartile of the per-round ratios: with the first, their
    /// interquartile range.
    pub full_vs_off_q3: f64,
    /// Trace events drained from the `Full` arm's final trial.
    pub trace_events: u64,
    /// Events the flight recorder dropped on ring overflow (counted,
    /// never blocking).
    pub dropped_events: u64,
    /// The `Full` arm's frozen metrics plane: per-lane latency
    /// histograms, SMC-by-kind, doorbell batches, per-session counters.
    pub snapshot: MetricsSnapshot,
}

/// A finished run: the serialisable report plus the Chrome trace JSON
/// (kept out of the report document — it is its own artifact).
#[derive(Debug, Clone)]
pub struct ObsBenchRun {
    /// The `BENCH_obs.json` payload.
    pub report: ObsBenchReport,
    /// Chrome `trace_event` JSON from the `Full` arm (`trace.json`).
    pub chrome_trace: String,
}

impl ObsBenchReport {
    /// The acceptance check: observability must keep ≥ 90% of the
    /// baseline request rate, in the median round.
    pub fn gate(&self) -> Result<(), String> {
        if self.full_vs_off_median >= 0.9 {
            Ok(())
        } else {
            Err(format!(
                "ObsConfig::Full retains only {:.2}x of the Off request rate in the median \
                 round (IQR {:.2}-{:.2}, best-of {:.2}x); the budget is >= 0.9x",
                self.full_vs_off_median, self.full_vs_off_q1, self.full_vs_off_q3, self.full_vs_off
            ))
        }
    }
}

fn mode_label(obs: ObsConfig) -> &'static str {
    match obs {
        ObsConfig::Off => "off",
        ObsConfig::MetricsOnly => "metrics",
        ObsConfig::Full => "full",
    }
}

/// Drive the common workload once under `obs` and return the host
/// makespan plus the service (so the caller can harvest trace events and
/// the metrics snapshot from the `Full` arm's final trial).
fn drive_once(
    obs: ObsConfig,
    bundles: &[(Device, dlt_template::Driverlet)],
    requests: u64,
) -> (f64, DriverletService) {
    let config = ServeConfig {
        obs,
        exec_mode: ExecMode::Threaded,
        submit_mode: SubmitMode::Ring,
        sq_depth: 64,
        queue_capacity: requests as usize,
        // Coalescing and anticipation off: every request pays its own
        // replay, so the per-request instrumentation (trace events,
        // counter bumps, histogram records) is the only variable between
        // the arms relative to a fixed compute baseline.
        coalesce: false,
        hold_budget_ns: 0,
        block_granularities: vec![1, 8],
        ..ServeConfig::default()
    };
    let mut service =
        DriverletService::with_driverlets(bundles, config).expect("build obs-arm service");
    let a = service.open_session().unwrap();
    let b = service.open_session().unwrap();
    let start = std::time::Instant::now();
    let mut staged = 0u32;
    for i in 0..requests {
        let session = if i % 2 == 0 { a } else { b };
        let device = if i % 2 == 0 { Device::Mmc } else { Device::Usb };
        let blkid = 64 + (i % 48) as u32;
        let req = if i % 5 == 4 {
            Request::Write { device, blkid, data: vec![i as u8; 512] }
        } else {
            // Mixed read sizes: both recorded granularities replay, like
            // real block traffic (a pure 1-block stream would leave the
            // 8-block templates cold).
            Request::Read { device, blkid, blkcnt: if i % 3 == 0 { 8 } else { 1 } }
        };
        service.submit(session, req).expect("obs-arm submit");
        staged += 1;
        if staged >= 16 {
            service.ring_doorbell().expect("obs-arm doorbell");
            staged = 0;
        }
        // Pump the flight recorder the way a live deployment would (a
        // periodic collector thread): move ring contents into the flight
        // buffer so per-thread rings never wrap however long the run is.
        // The pump cost is part of observability's bill and stays inside
        // the timed region.
        if i % 1024 == 1023 {
            service.recorder().collect();
        }
    }
    let done = service.drain_all().len() as u64;
    service.take_completions(a);
    service.take_completions(b);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(done, requests, "every request must complete on the {} arm", mode_label(obs));
    (elapsed_ms, service)
}

fn sample_from(obs: ObsConfig, requests: u64, trials_ms: Vec<f64>) -> ObsArmSample {
    let best_ms = trials_ms.iter().copied().fold(f64::INFINITY, f64::min);
    ObsArmSample {
        mode: mode_label(obs).to_string(),
        requests,
        trials_ms,
        best_ms,
        rate_rps: requests as f64 / (best_ms / 1e3).max(1e-12),
    }
}

/// Drive one arm for `trials` back-to-back runs (the module test's
/// harness; the bench proper interleaves arms via [`run_obs_bench`]).
#[cfg(test)]
fn run_arm(
    obs: ObsConfig,
    bundles: &[(Device, dlt_template::Driverlet)],
    requests: u64,
    trials: usize,
) -> (ObsArmSample, DriverletService) {
    let mut trials_ms = Vec::with_capacity(trials);
    let mut last = None;
    for _ in 0..trials {
        let (ms, service) = drive_once(obs, bundles, requests);
        trials_ms.push(ms);
        last = Some(service);
    }
    (sample_from(obs, requests, trials_ms), last.expect("at least one trial ran"))
}

/// Run the three-arm overhead comparison.
pub fn run_obs_bench(quick: bool) -> ObsBenchRun {
    // Two noise defences, both load-bearing on a busy single-core host:
    // each trial must run long enough (several ms) that scheduler jitter
    // cannot move the ratio by 10%, and the arms are interleaved
    // round-robin rather than run in blocks so slow drift (CPU frequency,
    // a neighbouring build) taxes every arm equally instead of whichever
    // arm happened to run during the bad stretch. The gate then compares
    // the arms within each round and takes the median round.
    let (requests, trials) = if quick { (2_000u64, 9usize) } else { (4_000, 9) };
    let bundles = vec![
        (Device::Mmc, record_mmc_driverlet_subset(&[1, 8]).expect("record mmc")),
        (Device::Usb, record_usb_driverlet_subset(&[1, 8]).expect("record usb")),
    ];
    let arms = [ObsConfig::Off, ObsConfig::MetricsOnly, ObsConfig::Full];
    // One discarded warmup pass per arm pays the one-time costs (lazy
    // allocation, cold branch predictors, thread-spawn page faults).
    for &obs in &arms {
        drive_once(obs, &bundles, requests.min(256));
    }
    let mut trials_ms: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut full_service = None;
    for _ in 0..trials {
        for (slot, &obs) in arms.iter().enumerate() {
            let (ms, service) = drive_once(obs, &bundles, requests);
            trials_ms[slot].push(ms);
            if matches!(obs, ObsConfig::Full) {
                full_service = Some(service);
            }
        }
    }
    let [off_ms, metrics_ms, full_ms] = trials_ms;
    let off = sample_from(ObsConfig::Off, requests, off_ms);
    let metrics_only = sample_from(ObsConfig::MetricsOnly, requests, metrics_ms);
    let full = sample_from(ObsConfig::Full, requests, full_ms);
    let service = full_service.expect("at least one Full trial ran");
    let [q1, q2, q3] = round_ratio_quartiles(&full, &off);

    // Harvest the Full arm's artifacts from its final trial: one drain
    // feeds both the event count and the Chrome export.
    let events = service.recorder().drain();
    let dropped_events = service.recorder().dropped_events();
    let chrome_trace = chrome_trace_json(&events, &service.recorder().track_names());
    let snapshot = service.metrics_snapshot();

    let report = ObsBenchReport {
        workload: format!(
            "obs overhead (host wall-clock): {requests} uncoalesced ring-mode requests (80% \
             mixed 1/8-block reads, 20% 1-block writes) over MMC+USB lane threads, 2 sessions, \
             doorbell batch 16, {trials} interleaved rounds of one trial per arm"
        ),
        host_cores: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        metrics_vs_off: full_ratio(&metrics_only, &off),
        full_vs_off: full_ratio(&full, &off),
        full_vs_off_median: q2,
        full_vs_off_q1: q1,
        full_vs_off_q3: q3,
        off,
        metrics_only,
        full,
        trace_events: events.len() as u64,
        dropped_events,
        snapshot,
    };
    ObsBenchRun { report, chrome_trace }
}

fn full_ratio(arm: &ObsArmSample, off: &ObsArmSample) -> f64 {
    arm.rate_rps / off.rate_rps.max(1e-12)
}

/// Quartiles `[q1, median, q3]` of the per-round `off_ms / arm_ms` rate
/// ratios (linear interpolation between order statistics).
fn round_ratio_quartiles(arm: &ObsArmSample, off: &ObsArmSample) -> [f64; 3] {
    let mut ratios: Vec<f64> =
        off.trials_ms.iter().zip(&arm.trials_ms).map(|(o, a)| o / a.max(1e-12)).collect();
    ratios.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|p| {
        let k = (ratios.len() - 1) as f64 * p;
        let (lo, hi) = (k.floor() as usize, k.ceil() as usize);
        ratios[lo] + (ratios[hi] - ratios[lo]) * (k - lo as f64)
    })
}

/// Serialise the report as pretty JSON.
pub fn report_json(report: &ObsBenchReport) -> String {
    serde_json::to_string_pretty(report).expect("report serialisation cannot fail")
}

/// Parse a previously persisted report.
pub fn parse_report(json: &str) -> Result<ObsBenchReport, String> {
    serde_json::from_str(json).map_err(|e| e.to_string())
}

/// Write the report to `path` (default artifact name: `BENCH_obs.json`).
pub fn emit_report(report: &ObsBenchReport, path: &str) -> std::io::Result<()> {
    std::fs::write(path, report_json(report))
}

/// Render one log₂ histogram: a line per occupied bucket with its upper
/// bound (in the given unit), count and a proportional bar.
fn histogram_lines(h: &HistogramSnapshot, indent: &str, unit_div: u64, unit: &str) -> String {
    let total = h.total();
    if total == 0 {
        return format!("{indent}(empty)\n");
    }
    let mut out = String::new();
    for (i, &count) in h.counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let bound = HistogramSnapshot::bucket_upper_bound(i);
        let bar = "#".repeat(((count as f64 / total as f64) * 40.0).ceil() as usize);
        out.push_str(&format!(
            "{indent}<= {:>12} {unit}: {:>8}  {bar}\n",
            if bound == u64::MAX {
                "inf".to_string()
            } else {
                (bound / unit_div.max(1)).to_string()
            },
            count
        ));
    }
    out
}

/// Render the human-readable summary the bench and `report -- obs` print:
/// the three-arm rate table, the gate verdict, per-lane latency
/// histograms and the SMC-by-kind table.
pub fn describe(report: &ObsBenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("workload: {}\n", report.workload));
    out.push_str(&format!("host cores: {}\n", report.host_cores));
    for (arm, ratio) in [
        (&report.off, 1.0),
        (&report.metrics_only, report.metrics_vs_off),
        (&report.full, report.full_vs_off),
    ] {
        out.push_str(&format!(
            "arm {:<8}: {} requests, best {:>7.1} ms of {:?} -> {:>8.0} req/s ({:.2}x of off)\n",
            arm.mode,
            arm.requests,
            arm.best_ms,
            arm.trials_ms.iter().map(|ms| (ms * 10.0).round() / 10.0).collect::<Vec<_>>(),
            arm.rate_rps,
            ratio
        ));
    }
    out.push_str(&format!(
        "full/off per round: median {:.2}x, IQR {:.2}-{:.2}x (best-of {:.2}x)\n",
        report.full_vs_off_median, report.full_vs_off_q1, report.full_vs_off_q3, report.full_vs_off
    ));
    out.push_str(&format!(
        "overhead gate (median round full >= 0.9x off): {}\n",
        match report.gate() {
            Ok(()) => format!("PASS ({:.2}x)", report.full_vs_off_median),
            Err(why) => format!("FAIL — {why}"),
        }
    ));
    out.push_str(&format!(
        "flight recorder: {} events drained, {} dropped on overflow\n",
        report.trace_events, report.dropped_events
    ));
    for lane in &report.snapshot.lanes {
        out.push_str(&format!(
            "lane {} ({}): admitted {}, completed {}, diverged {}, failed {}, replays {} \
             (ratio {:.2}), occupancy high-water {}, p50 {} us, p99 {} us\n",
            lane.lane,
            lane.device,
            lane.admitted,
            lane.completed,
            lane.diverged,
            lane.failed,
            lane.replays,
            lane.coalesce_ratio,
            lane.occupancy_high_water,
            lane.p50_us().unwrap_or(0),
            lane.p99_us().unwrap_or(0)
        ));
        out.push_str("  virtual submit->complete latency (log2 buckets, us):\n");
        out.push_str(&histogram_lines(&lane.latency_ns, "    ", 1_000, "us"));
    }
    out.push_str("SMC world switches by kind:\n");
    for kind in &report.snapshot.smc_by_kind {
        if kind.calls > 0 {
            out.push_str(&format!("  {:<14} {:>8}\n", kind.kind, kind.calls));
        }
    }
    out.push_str(&format!("  {:<14} {:>8}\n", "total", report.snapshot.smc_total()));
    out.push_str(&format!(
        "doorbell batch sizes ({} doorbells):\n",
        report.snapshot.doorbell_batch.total()
    ));
    out.push_str(&histogram_lines(&report.snapshot.doorbell_batch, "  ", 1, "entries"));
    out.push_str(&format!(
        "sessions: {} tracked, {} submitted / {} terminal\n",
        report.snapshot.sessions.len(),
        report.snapshot.sessions.iter().map(|s| s.submitted).sum::<u64>(),
        report.snapshot.sessions.iter().map(|s| s.completed + s.diverged).sum::<u64>()
    ));
    out
}

/// One-line record for log scraping.
pub fn summary_line(report: &ObsBenchReport) -> String {
    format!(
        "obs_overhead off={:.0} metrics={:.0} full={:.0} metrics_vs_off={:.2} full_vs_off={:.2} \
         full_vs_off_median={:.2} full_vs_off_iqr={:.2}-{:.2} events={} dropped={} cores={}",
        report.off.rate_rps,
        report.metrics_only.rate_rps,
        report.full.rate_rps,
        report.metrics_vs_off,
        report.full_vs_off,
        report.full_vs_off_median,
        report.full_vs_off_q1,
        report.full_vs_off_q3,
        report.trace_events,
        report.dropped_events,
        report.host_cores
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_bench_report_is_complete_and_round_trips() {
        // A tiny run: no ratio assertion (host wall-clock on a loaded CI
        // box is noisy at this size — the gate lives in the obs_overhead
        // bench, which runs nine rounds at real sizes), but the structure
        // must be complete: both arms finish, the Full arm traces and
        // snapshots, and the JSON round-trips.
        let run = {
            let bundles = vec![
                (Device::Mmc, record_mmc_driverlet_subset(&[1, 8]).expect("record mmc")),
                (Device::Usb, record_usb_driverlet_subset(&[1, 8]).expect("record usb")),
            ];
            let (off, _) = run_arm(ObsConfig::Off, &bundles, 48, 1);
            let (full, service) = run_arm(ObsConfig::Full, &bundles, 48, 1);
            let events = service.recorder().drain();
            let chrome = chrome_trace_json(&events, &service.recorder().track_names());
            let snapshot = service.metrics_snapshot();
            let [q1, q2, q3] = round_ratio_quartiles(&full, &off);
            ObsBenchRun {
                report: ObsBenchReport {
                    workload: "test".into(),
                    host_cores: 1,
                    metrics_vs_off: 1.0,
                    full_vs_off: full_ratio(&full, &off),
                    full_vs_off_median: q2,
                    full_vs_off_q1: q1,
                    full_vs_off_q3: q3,
                    metrics_only: off.clone(),
                    off,
                    full,
                    trace_events: events.len() as u64,
                    dropped_events: service.recorder().dropped_events(),
                    snapshot,
                },
                chrome_trace: chrome,
            }
        };
        let r = &run.report;
        assert!(r.off.rate_rps > 0.0 && r.full.rate_rps > 0.0);
        assert!(r.full_vs_off > 0.0);
        assert!(r.trace_events > 0, "the Full arm must record events");
        assert_eq!(r.snapshot.lanes.len(), 2);
        let lane_completed: u64 = r.snapshot.lanes.iter().map(|l| l.completed).sum();
        assert_eq!(lane_completed, 48, "the snapshot covers the final Full trial");
        assert!(run.chrome_trace.contains("lane-0-mmc"), "trace names the lane tracks");

        let json = report_json(r);
        let back = parse_report(&json).expect("parse persisted report");
        assert_eq!(back.snapshot.lanes.len(), 2);
        assert_eq!(back.trace_events, r.trace_events);
        let text = describe(&back);
        assert!(text.contains("overhead gate"));
        assert!(text.contains("SMC world switches by kind"));
        assert!(summary_line(&back).starts_with("obs_overhead"));
    }
}
