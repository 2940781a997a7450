//! Service-layer host time: the sequential-vs-threaded wall-clock
//! lane-parallelism curve and the routed replica-fleet weak-scaling curve;
//! persisted to `BENCH_serve.json` (`BENCH_serve.quick.json` with
//! `--quick`). CI runs this with `--quick` and fails on any of the
//! acceptance assertions below. The virtual-time serve gates live in
//! `tests/serve_gates.rs`.
//!
//! Run with:
//!
//! ```text
//! cargo bench -p dlt-bench --bench serve_throughput            # full
//! cargo bench -p dlt-bench --bench serve_throughput -- --quick # CI smoke
//! ```
//!
//! The artifact lands in the working directory; the `BENCH_SERVE_OUT`
//! environment variable overrides its path.

use dlt_bench::serve_bench::{describe, emit_report, run_serve_bench, summary_line};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("== serve_throughput: multi-session service layer (host time) ==");
    println!(
        "recording driverlets and serving traffic ({} mode)...",
        if quick { "quick" } else { "full" }
    );
    let report = run_serve_bench(quick);
    print!("{}", describe(&report));
    println!("{}", summary_line(&report));

    // The wall-clock lane-parallelism gate. Structure holds anywhere:
    // both arms finish every request at every lane count. The ≥ 2x
    // speedup bar needs real hardware parallelism, so it only applies
    // when the measuring host has at least 4 cores (CI does; a 1-core dev
    // container records the curve without gating it).
    let wc = &report.wall_clock;
    for p in &wc.points {
        assert!(
            p.requests > 0 && p.sequential_ms > 0.0 && p.threaded_ms > 0.0,
            "acceptance: wall-clock point at {} lane(s) must complete work on both arms",
            p.lanes
        );
    }
    let four = wc.points.iter().find(|p| p.lanes == 4).expect("4-lane wall-clock point");
    if wc.host_cores >= 4 {
        assert!(
            four.speedup >= 2.0,
            "acceptance: threaded lanes must cut 4-lane wall clock >= 2x over sequential on a \
             {}-core host, got {:.2}x ({:.1} ms vs {:.1} ms)",
            wc.host_cores,
            four.speedup,
            four.sequential_ms,
            four.threaded_ms
        );
    } else {
        println!(
            "(skipping the 4-lane >= 2x wall-clock gate: host exposes only {} core(s); \
             measured {:.2}x)",
            wc.host_cores, four.speedup
        );
    }

    // The routed weak-scaling gates. Every point completes its whole
    // schedule through the router anywhere; the ≥ 1.7x bar at 8 vs 4
    // lanes needs 8 hardware threads, so smaller hosts record the curve
    // without gating it.
    let rt = &report.routed;
    for p in &rt.points {
        assert!(
            p.requests == 3 * u64::from(rt.requests_per_session) * p.lanes as u64,
            "acceptance: the {}-lane routed point must complete its whole schedule",
            p.lanes
        );
    }
    if wc.host_cores >= 8 {
        assert!(
            rt.ratio_8v4 >= 1.7,
            "acceptance: routed weak scaling must reach >= 1.7x rps at 8 vs 4 lanes on a \
             {}-core host, got {:.2}x",
            wc.host_cores,
            rt.ratio_8v4
        );
    } else {
        println!(
            "(skipping the 8-vs-4-lane >= 1.7x routed scaling gate: host exposes only {} \
             core(s); measured {:.2}x)",
            wc.host_cores, rt.ratio_8v4
        );
    }

    let default = if quick { "BENCH_serve.quick.json" } else { "BENCH_serve.json" };
    let out = std::env::var("BENCH_SERVE_OUT").unwrap_or_else(|_| default.into());
    emit_report(&report, &out).expect("write the serve artifact");
    println!("wrote {out}");
}
