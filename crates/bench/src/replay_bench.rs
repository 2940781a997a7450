//! Replay-throughput measurement and the `BENCH_replay.json` emitter.
//!
//! The figures in the paper are virtual-time numbers; this module instead
//! measures the **host CPU cost of the replay engine itself** — the thing
//! the compiled-program refactor targets. Both engines charge identical
//! virtual-time costs (asserted by the differential tests in `dlt-core`),
//! so wall-clock events/sec on the same fig7 micro path isolates the
//! execution strategy: tree-walking interpretation with `HashMap` symbol
//! resolution versus the flat branch-on-opcode replay program.
//!
//! `emit_report` persists the numbers to `BENCH_replay.json` so the speedup
//! and the §8.3.4 bundle-size ratio are tracked trajectory values (CI
//! uploads the file as an artifact).

use std::time::Instant;

use dlt_core::{replay_mmc, ReplayConfig, ReplayMode, Replayer};
use dlt_dev_mmc::MmcSubsystem;
use dlt_hw::Platform;
use dlt_recorder::campaign::{record_mmc_driverlet_subset, DEV_KEY};
use dlt_tee::{SecureIo, TeeKernel};
use dlt_template::Driverlet;
use serde::Serialize;

/// Wall-clock throughput of one engine on the fig7 micro path.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputSample {
    /// Engine that ran (`"compiled"` / `"interpreted"`).
    pub mode: String,
    /// Replay invocations performed.
    pub invocations: u64,
    /// Template events executed (poll iterations count as one event).
    pub events: u64,
    /// Wall-clock nanoseconds summed over all measurement rounds.
    pub wall_ns: u64,
    /// Events per wall-clock second — the headline metric; the peak of the
    /// interleaved measurement rounds (least-disturbed observation).
    pub events_per_sec: f64,
    /// Invocations per wall-clock second (mean over all rounds).
    pub invocations_per_sec: f64,
}

/// Serialised bundle sizes for one device (§8.3.4).
#[derive(Debug, Clone, Serialize)]
pub struct BundleSizeSample {
    /// Device label.
    pub device: String,
    /// Pretty-printed JSON document bytes.
    pub pretty_json: usize,
    /// Compact (non-pretty) JSON bytes — the canonical JSON encoding.
    pub compact_json: usize,
    /// Compact binary bundle bytes.
    pub binary: usize,
    /// `compact_json / binary` — the headline shrink factor.
    pub ratio: f64,
}

/// The persisted `BENCH_replay.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct ReplayBenchReport {
    /// Workload description.
    pub workload: String,
    /// Compiled-engine sample.
    pub compiled: ThroughputSample,
    /// Interpreted-engine sample.
    pub interpreted: ThroughputSample,
    /// `compiled.events_per_sec / interpreted.events_per_sec`.
    pub speedup: f64,
    /// Bundle-size comparison per device.
    pub bundle_sizes: Vec<BundleSizeSample>,
}

/// Build the fig7 micro rig (secure MMC + replayer) for one engine. The
/// record campaign runs once per rig and stays outside the measured window.
fn build_rig(mode: ReplayMode, granularity: u32) -> (Platform, Replayer) {
    let driverlet = record_mmc_driverlet_subset(&[granularity]).expect("record mmc");
    let platform = Platform::new();
    MmcSubsystem::attach(&platform).expect("attach mmc");
    TeeKernel::install(&platform, &["sdhost", "dma"]).expect("install tee");
    let mut replayer =
        Replayer::with_config(SecureIo::new(platform.bus.clone()), ReplayConfig { mode });
    replayer.load_driverlet(driverlet, DEV_KEY).expect("load driverlet");
    (platform, replayer)
}

/// Number of interleaved measurement rounds per engine. Rounds alternate
/// between the engines and the best (peak) round is reported, which rejects
/// scheduler / frequency-scaling noise the two engines would otherwise
/// absorb unevenly.
const ROUNDS: u64 = 5;

struct Rig {
    _platform: Platform,
    replayer: Replayer,
    buf: Vec<u8>,
    granularity: u32,
    /// Per-round (events, wall_ns).
    rounds: Vec<(u64, u64)>,
}

impl Rig {
    fn new(mode: ReplayMode, granularity: u32) -> Self {
        let (_platform, mut replayer) = build_rig(mode, granularity);
        let mut buf = vec![0u8; granularity as usize * 512];
        // Warm-up: fault in code paths and size the scratch arena.
        for i in 0..8u32 {
            replay_mmc(&mut replayer, 0x1, granularity, i * granularity, 0, &mut buf)
                .expect("warm-up read");
        }
        Rig { _platform, replayer, buf, granularity, rounds: Vec::new() }
    }

    fn round(&mut self, invocations: u64) {
        let ev0 = self.replayer.stats().events_executed;
        let start = Instant::now();
        for i in 0..invocations {
            let blkid = ((i * u64::from(self.granularity)) % 100_000) as u32;
            replay_mmc(&mut self.replayer, 0x1, self.granularity, blkid, 0, &mut self.buf)
                .expect("measured read");
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        self.rounds.push((self.replayer.stats().events_executed - ev0, wall_ns));
    }

    fn sample(&self, mode: &str, invocations_per_round: u64) -> ThroughputSample {
        let events: u64 = self.rounds.iter().map(|r| r.0).sum();
        let wall_ns: u64 = self.rounds.iter().map(|r| r.1).sum();
        // Peak round rate: the least-disturbed observation of the engine.
        let peak = self
            .rounds
            .iter()
            .map(|(ev, ns)| *ev as f64 / (*ns as f64 / 1e9).max(1e-12))
            .fold(0.0f64, f64::max);
        let total_secs = (wall_ns as f64 / 1e9).max(1e-12);
        ThroughputSample {
            mode: mode.to_string(),
            invocations: invocations_per_round * self.rounds.len() as u64,
            events,
            wall_ns,
            events_per_sec: peak,
            invocations_per_sec: (invocations_per_round * self.rounds.len() as u64) as f64
                / total_secs,
        }
    }
}

/// Bundle-size sample for one driverlet.
pub fn bundle_size_sample(device: &str, d: &Driverlet) -> BundleSizeSample {
    let binary = d.binary_size();
    let compact = d.compact_size();
    BundleSizeSample {
        device: device.to_string(),
        pretty_json: d.serialized_size(),
        compact_json: compact,
        binary,
        ratio: compact as f64 / binary.max(1) as f64,
    }
}

/// Run the full measurement: both engines on the same workload plus bundle
/// sizes for the supplied driverlets.
pub fn run_replay_bench(
    granularity: u32,
    invocations: u64,
    bundles: &[(&str, &Driverlet)],
) -> ReplayBenchReport {
    // Interleave the engines round by round so both see the same host
    // conditions; report each engine's peak round.
    let mut interp = Rig::new(ReplayMode::Interpreted, granularity);
    let mut comp = Rig::new(ReplayMode::Compiled, granularity);
    let per_round = (invocations / ROUNDS).max(1);
    for _ in 0..ROUNDS {
        interp.round(per_round);
        comp.round(per_round);
    }
    let interpreted = interp.sample("interpreted", per_round);
    let compiled = comp.sample("compiled", per_round);
    let speedup = compiled.events_per_sec / interpreted.events_per_sec.max(1e-12);
    ReplayBenchReport {
        workload: format!("fig7 micro path: MMC read, {granularity} blocks x {invocations}"),
        compiled,
        interpreted,
        speedup,
        bundle_sizes: bundles.iter().map(|(n, d)| bundle_size_sample(n, d)).collect(),
    }
}

/// Serialise the report as pretty JSON.
pub fn report_json(report: &ReplayBenchReport) -> String {
    serde_json::to_string_pretty(report).expect("report serialisation cannot fail")
}

/// Write the report to `path` (default artifact name: `BENCH_replay.json`).
pub fn emit_report(report: &ReplayBenchReport, path: &str) -> std::io::Result<()> {
    std::fs::write(path, report_json(report))
}

/// Render the human-readable summary the bench prints.
pub fn describe(report: &ReplayBenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("workload: {}\n", report.workload));
    for s in [&report.interpreted, &report.compiled] {
        out.push_str(&format!(
            "{:<12} {:>12.0} events/s {:>12.0} invocations/s ({} events in {:.1} ms)\n",
            s.mode,
            s.events_per_sec,
            s.invocations_per_sec,
            s.events,
            s.wall_ns as f64 / 1e6
        ));
    }
    out.push_str(&format!("speedup (compiled / interpreted): {:.2}x\n", report.speedup));
    for b in &report.bundle_sizes {
        out.push_str(&format!(
            "bundle {:<8} {:>9} B binary {:>9} B compact JSON {:>9} B pretty ({:.1}x smaller)\n",
            b.device, b.binary, b.compact_json, b.pretty_json, b.ratio
        ));
    }
    out
}

/// One-line CSV-ish record for log scraping.
pub fn summary_line(report: &ReplayBenchReport) -> String {
    format!(
        "replay_throughput compiled={:.0} interpreted={:.0} speedup={:.2}",
        report.compiled.events_per_sec, report.interpreted.events_per_sec, report.speedup
    )
}

/// Convenience used by tests and the quick CI path: a throughput report
/// without any bundle-size section.
pub fn run_throughput_only(granularity: u32, invocations: u64) -> ReplayBenchReport {
    run_replay_bench(granularity, invocations, &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_measures_both_engines() {
        let report = run_throughput_only(1, 40);
        assert_eq!(report.compiled.invocations, 40);
        assert_eq!(report.interpreted.invocations, 40);
        assert!(report.compiled.events > 0);
        assert_eq!(
            report.compiled.events, report.interpreted.events,
            "both engines must execute identical event counts"
        );
        assert!(report.speedup > 0.0);
        let json = report_json(&report);
        assert!(json.contains("events_per_sec"));
        assert!(describe(&report).contains("speedup"));
        assert!(summary_line(&report).starts_with("replay_throughput"));
    }
}
