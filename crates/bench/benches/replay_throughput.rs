//! Replay-engine throughput: compiled replay program vs tree-walking
//! interpreter on the fig7 micro path, persisted to `BENCH_replay.json`.
//!
//! Run with:
//!
//! ```text
//! cargo bench -p dlt-bench --bench replay_throughput            # full
//! cargo bench -p dlt-bench --bench replay_throughput -- --quick # CI smoke
//! ```
//!
//! The artifact path defaults to `BENCH_replay.json` (`BENCH_replay.quick.json`
//! with `--quick`) in the working directory and can be overridden with the
//! `BENCH_REPLAY_OUT` environment variable.

use dlt_bench::replay_bench::{describe, emit_report, run_replay_bench, summary_line};
use dlt_recorder::campaign::{
    record_camera_driverlet, record_camera_driverlet_subset, record_mmc_driverlet,
    record_mmc_driverlet_subset, record_usb_driverlet, record_usb_driverlet_subset,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (granularity, invocations) = if quick { (8, 300) } else { (8, 2_000) };

    println!("== replay_throughput: compiled vs interpreted engine ==");
    println!("recording driverlet bundles for the size report...");
    let (mmc, usb, cam) = if quick {
        (
            record_mmc_driverlet_subset(&[1]).expect("record mmc"),
            record_usb_driverlet_subset(&[1]).expect("record usb"),
            record_camera_driverlet_subset(&[1]).expect("record camera"),
        )
    } else {
        (
            record_mmc_driverlet().expect("record mmc"),
            record_usb_driverlet().expect("record usb"),
            record_camera_driverlet().expect("record camera"),
        )
    };
    println!("measuring {invocations} invocations per engine (MMC read, {granularity} blocks)...");
    let report = run_replay_bench(
        granularity,
        invocations,
        &[("MMC", &mmc), ("USB", &usb), ("VCHIQ", &cam)],
    );
    print!("{}", describe(&report));
    println!("{}", summary_line(&report));

    let default = if quick { "BENCH_replay.quick.json" } else { "BENCH_replay.json" };
    let out = std::env::var("BENCH_REPLAY_OUT").unwrap_or_else(|_| default.into());
    emit_report(&report, &out).expect("write the replay artifact");
    println!("wrote {out}");
}
