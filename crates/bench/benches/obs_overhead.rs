//! Observability overhead: the same ring-mode threaded workload under
//! `ObsConfig::Off`, `MetricsOnly` and `Full`, measured in host
//! wall-clock (best of N trials per arm); persisted to `BENCH_obs.json`
//! with the Full arm's Chrome trace next to it as `trace.json`. CI runs
//! this with `--quick` and fails the build when `Full` keeps less than
//! 0.9x of the `Off` request rate.
//!
//! Run with:
//!
//! ```text
//! cargo bench -p dlt-bench --bench obs_overhead            # full
//! cargo bench -p dlt-bench --bench obs_overhead -- --quick # CI smoke
//! ```
//!
//! Artifact paths default to `BENCH_obs.json` (`BENCH_obs.quick.json`
//! with `--quick`) and `trace.json` in the working directory; override
//! with the `BENCH_OBS_OUT` and `TRACE_OUT` environment variables.

use dlt_bench::obs_bench::{describe, emit_report, run_obs_bench, summary_line};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("== obs_overhead: flight recorder + metrics plane (host wall-clock) ==");
    println!(
        "recording driverlets and driving the three arms ({} mode)...",
        if quick { "quick" } else { "full" }
    );
    let run = run_obs_bench(quick);
    let report = &run.report;
    print!("{}", describe(report));
    println!("{}", summary_line(report));

    assert_eq!(
        report.off.requests, report.full.requests,
        "all arms must drive the identical workload"
    );
    assert!(report.trace_events > 0, "acceptance: the Full arm must record trace events");
    assert_eq!(
        report.dropped_events, 0,
        "acceptance: the default ring size must absorb this workload without loss"
    );
    // The tentpole gate: both observability planes on may cost at most
    // 10% of the baseline request rate.
    if let Err(why) = report.gate() {
        panic!("acceptance: {why}");
    }

    let default = if quick { "BENCH_obs.quick.json" } else { "BENCH_obs.json" };
    let out = std::env::var("BENCH_OBS_OUT").unwrap_or_else(|_| default.into());
    emit_report(report, &out).expect("write the obs artifact");
    println!("wrote {out}");
    let trace_out = std::env::var("TRACE_OUT").unwrap_or_else(|_| "trace.json".into());
    std::fs::write(&trace_out, &run.chrome_trace).expect("write trace.json");
    println!("wrote {trace_out} (load in chrome://tracing or Perfetto: one track per lane)");
}
