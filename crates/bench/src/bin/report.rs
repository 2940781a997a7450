//! `report` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! cargo run -p dlt-bench --bin report --release            # everything
//! cargo run -p dlt-bench --bin report --release -- table3  # one artifact
//! ```
//!
//! Artifacts: table3 table4 table5 table6 table7 table8 table9 fig5 fig6 fig7
//! memory replay serve explore obs. Numbers are virtual-time measurements of
//! the simulated platform, except `replay`, `serve` and `obs`, which report
//! host wall-clock; EXPERIMENTS.md records a reference run next to the
//! paper's numbers. `serve` and `obs` read the bench artifacts
//! (`BENCH_<name>.json`, or `BENCH_<name>.quick.json` with `--quick`).

use dlt_bench::{breakdown_table, constraints_table, figure5_panel, memory_report};
use dlt_gold_drivers::stats::{measured_table7, measured_table8, paper_table7, paper_table8};
use dlt_recorder::campaign::{record_camera_driverlet, record_mmc_driverlet, record_usb_driverlet};
use dlt_workloads::block::{StorageKind, StoragePath};
use dlt_workloads::camera::run_camera_sweep;
use dlt_workloads::micro::run_micro_sweep;
use dlt_workloads::suite::{run_benchmark, SqliteBenchmark};

fn want(selected: &str, name: &str) -> bool {
    selected == "all" || selected == name
}

/// A persisted artifact: the path in the `env` variable if it is set, else
/// `name` in the working directory (a bench writes it in the package root;
/// `cargo run` keeps the invocation directory, so try both). `None` when it
/// is missing or from an older schema.
fn load<T>(env: &str, name: &str, parse: impl Fn(&str) -> Result<T, String>) -> Option<T> {
    let candidates =
        [std::env::var(env).unwrap_or_else(|_| name.into()), format!("crates/bench/{name}")];
    candidates.iter().find_map(|path| {
        let report = parse(&std::fs::read_to_string(path).ok()?).ok()?;
        println!("(loaded from {path})");
        Some(report)
    })
}

fn main() {
    let selected = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let quick = std::env::args().any(|a| a == "--quick");
    let queries: u64 = if quick { 20 } else { 60 };

    println!("== driverlets reproduction report (virtual-time measurements) ==\n");

    if want(&selected, "table3") || want(&selected, "table4") || want(&selected, "memory") {
        println!("recording the MMC driverlet (10 templates)...");
        let mmc = record_mmc_driverlet().expect("record mmc");
        if want(&selected, "table3") {
            println!(
                "\n--- Table 3: MMC template event breakdown (paper: 24-150 events/template) ---"
            );
            println!("{}", breakdown_table(&mmc));
        }
        if want(&selected, "table4") {
            println!("\n--- Table 4: MMC constraints & taint sinks (RW_1 read template) ---");
            println!("{}", constraints_table(&mmc, "mmc_rd_1"));
            println!("paper: rw->SDCMD, blkcnt->SDHBLC, blkid->SDARG (&~0x7); blkid <= 0x1df77f8");
        }
        if want(&selected, "memory") {
            println!("recording the USB and camera driverlets for the memory report...");
            let usb = record_usb_driverlet().expect("record usb");
            let cam = record_camera_driverlet().expect("record camera");
            println!("\n--- Memory overhead (§8.3.4) ---");
            println!("{}", memory_report(&mmc, &usb, &cam));
        }
    }

    if want(&selected, "table5") || want(&selected, "table6") {
        println!("\nrecording the camera driverlet (OneShot/ShortBurst/LongBurst)...");
        let cam = record_camera_driverlet().expect("record camera");
        if want(&selected, "table5") {
            println!("\n--- Table 5: camera template event breakdown (paper: 75-680 events) ---");
            println!("{}", breakdown_table(&cam));
        }
        if want(&selected, "table6") {
            println!("\n--- Table 6: camera constraints & taint sinks (OneShot) ---");
            println!("{}", constraints_table(&cam, "camera_oneshot"));
            println!("paper: resolution/buf_size/img_size/pg_list/queue constraints; MBOX_WRITE = queue & ~0x3fff");
        }
    }

    if want(&selected, "table7") {
        println!("\n--- Table 7: build-from-scratch effort (paper vs this reproduction's device models) ---");
        println!(
            "{:<8} {:>6} {:>11} {:>10} {:>7} {:>12} {:>12}",
            "driver", "CMDs", "proto pages", "dev pages", "paths", "regs/fields", "desc/fields"
        );
        for (p, m) in paper_table7().iter().zip(measured_table7().iter()) {
            let fmt = |e: &dlt_gold_drivers::stats::ScratchEffort| {
                format!(
                    "{:<8} {:>6} {:>11} {:>10} {:>7} {:>12} {:>12}",
                    e.name,
                    e.commands,
                    e.protocol_spec_pages.map(|v| v.to_string()).unwrap_or_else(|| "n/a".into()),
                    e.device_spec_pages.map(|v| v.to_string()).unwrap_or_else(|| "n/a".into()),
                    e.transition_paths,
                    format!("{}/{}", e.registers.0, e.registers.1),
                    format!("{}/{}", e.descriptors.0, e.descriptors.1),
                )
            };
            println!("paper:    {}", fmt(p));
            println!("measured: {}", fmt(m));
        }
    }

    if want(&selected, "table8") {
        println!("\n--- Table 8: porting effort (paper Linux drivers vs this reproduction's gold drivers) ---");
        println!(
            "{:<8} {:>10} {:>10} {:>8} {:>10} {:>8}",
            "driver", "functions", "dev conf", "macros", "callbacks", "SLoC"
        );
        for (p, m) in paper_table8().iter().zip(measured_table8().iter()) {
            println!(
                "paper:    {:<8} {:>10} {:>10} {:>8} {:>10} {:>8}",
                p.name, p.functions, p.device_configs, p.macros, p.callbacks, p.sloc
            );
            println!(
                "measured: {:<8} {:>10} {:>10} {:>8} {:>10} {:>8}",
                m.name, m.functions, m.device_configs, m.macros, m.callbacks, m.sloc
            );
        }
    }

    if want(&selected, "table9") {
        println!("\n--- Table 9: SQLite benchmarks — template-invocation breakdown (driverlet path, MMC) ---");
        println!(
            "{:<10} {:>6} {:>6} {:>6} {:>8} {:>8} {:>6}",
            "benchmark", "RW_1", "RW_8", "RW_32", "RW_128", "RW_256", "R:W"
        );
        for bench in SqliteBenchmark::all() {
            let r = run_benchmark(bench, StorageKind::Mmc, StoragePath::Driverlet, queries)
                .expect("driverlet benchmark");
            let g = |n: u32| r.breakdown.get(&n).copied().unwrap_or(0);
            let (rd, wr) = bench.rw_ratio();
            println!(
                "{:<10} {:>6} {:>6} {:>6} {:>8} {:>8} {:>6}",
                bench.name(),
                g(1),
                g(8),
                g(32),
                g(128),
                g(256),
                format!("{rd}:{wr}")
            );
        }
    }

    if want(&selected, "fig5") {
        for (kind, label) in
            [(StorageKind::Mmc, "5a SQLite-MMC"), (StorageKind::Usb, "5b SQLite-USB")]
        {
            println!("\n--- Figure {label}: IOPS (native / native-sync / ours) ---");
            println!(
                "{:<10} {:>10} {:>12} {:>10} {:>18}",
                "benchmark", "native", "native-sync", "ours", "ours vs native"
            );
            let rows = figure5_panel(kind, queries);
            let mut native_sum = 0.0;
            let mut ours_sum = 0.0;
            for (name, row) in &rows {
                let native = row["native"];
                let sync = row["native-sync"];
                let ours = row["ours"];
                native_sum += native;
                ours_sum += ours;
                println!(
                    "{:<10} {:>10.0} {:>12.0} {:>10.0} {:>17.2}x",
                    name,
                    native,
                    sync,
                    ours,
                    native / ours
                );
            }
            println!(
                "average driverlet slowdown vs native: {:.2}x (paper: 1.8x for MMC, 1.5x for USB)",
                native_sum / ours_sum
            );
        }
    }

    if want(&selected, "fig6") {
        println!("\n--- Figure 6: camera capture latency (seconds, virtual time) ---");
        let bursts: &[u32] = if quick { &[1, 10] } else { &[1, 10, 100] };
        let results = run_camera_sweep(bursts);
        println!(
            "{:<12} {:>6} {:>12} {:>12} {:>10}",
            "burst", "res", "ours (s)", "native (s)", "ours/nat"
        );
        for burst in bursts {
            for res in [720u32, 1080, 1440] {
                let ours = results
                    .iter()
                    .find(|r| r.burst == *burst && r.resolution == res && r.driverlet)
                    .unwrap();
                let native = results
                    .iter()
                    .find(|r| r.burst == *burst && r.resolution == res && !r.driverlet)
                    .unwrap();
                println!(
                    "{:<12} {:>6} {:>12.2} {:>12.2} {:>9.2}x",
                    ours.burst_name(),
                    res,
                    ours.latency_ns as f64 / 1e9,
                    native.latency_ns as f64 / 1e9,
                    ours.latency_ns as f64 / native.latency_ns as f64
                );
            }
        }
        println!("paper: 11% slower for one frame, up to 2.7x for 100-frame bursts");
    }

    if want(&selected, "fig7") {
        println!("\n--- Figure 7: read/write latency per request (microseconds, virtual time) ---");
        let grans: &[u32] = if quick { &[1, 32, 256] } else { &[1, 8, 32, 128, 256] };
        for (kind, label) in [(StorageKind::Mmc, "MMC"), (StorageKind::Usb, "USB")] {
            println!("{label}:");
            println!(
                "{:<6} {:<6} {:>12} {:>12} {:>10}",
                "blocks", "op", "ours (us)", "native (us)", "ours/nat"
            );
            for r in run_micro_sweep(kind, grans) {
                println!(
                    "{:<6} {:<6} {:>12} {:>12} {:>9.2}x",
                    r.blkcnt,
                    if r.write { "write" } else { "read" },
                    r.driverlet_ns / 1_000,
                    r.native_ns / 1_000,
                    r.relative()
                );
            }
        }
        println!("paper: near-native latency; large USB writes up to 40% faster than native");
    }

    if want(&selected, "replay") {
        println!(
            "\n--- Replay-engine throughput (compiled program vs interpreter, wall clock) ---"
        );
        let invocations = if quick { 200 } else { 1_000 };
        let report = dlt_bench::replay_bench::run_throughput_only(8, invocations);
        print!("{}", dlt_bench::replay_bench::describe(&report));
        println!("(persisted trajectory numbers come from the replay_throughput bench)");
    }

    if want(&selected, "serve") {
        println!(
            "\n--- Service layer, host time (wall-clock lane parallelism, routed scaling) ---"
        );
        let name = if quick { "BENCH_serve.quick.json" } else { "BENCH_serve.json" };
        let report = load("BENCH_SERVE_OUT", name, dlt_bench::serve_bench::parse_report)
            .unwrap_or_else(|| {
                println!("({name} missing or stale: rerunning the serve bench)");
                dlt_bench::serve_bench::run_serve_bench(quick)
            });
        print!("{}", dlt_bench::serve_bench::describe(&report));
        println!(
            "refresh {name} with the serve_throughput bench; the virtual-time serve gates are \
             pinned in crates/bench/tests/serve_gates.rs"
        );
    }

    if want(&selected, "explore") {
        println!("\n--- Divergence-robustness coverage (concolic constraint flipping) ---");
        // The dlt-explore binary writes the ledger; regenerate with the
        // quick campaign when it is missing or from an older schema.
        let report = load("BENCH_EXPLORE_OUT", "BENCH_explore.json", dlt_explore::parse_report)
            .unwrap_or_else(|| {
                println!("(BENCH_explore.json missing or stale: rerunning the quick campaign)");
                dlt_explore::run_explore(true)
            });
        print!("{}", dlt_explore::describe(&report));
        match report.gate() {
            Ok(()) => println!(
                "gate: every falsifiable constraint flipped and rejected with a typed error"
            ),
            Err(problems) => println!("gate FAILED:\n{problems}"),
        }
    }

    if want(&selected, "obs") {
        println!("\n--- Observability overhead (flight recorder + metrics plane, host time) ---");
        let name = if quick { "BENCH_obs.quick.json" } else { "BENCH_obs.json" };
        let report = load("BENCH_OBS_OUT", name, dlt_bench::obs_bench::parse_report)
            .unwrap_or_else(|| {
                println!("({name} missing or stale: rerunning the quick obs bench)");
                dlt_bench::obs_bench::run_obs_bench(true).report
            });
        print!("{}", dlt_bench::obs_bench::describe(&report));
        println!(
            "refresh {name} (and trace.json, the Perfetto timeline) with the obs_overhead bench"
        );
    }

    // Always print a tiny summary of what was requested so log scrapers know
    // the run completed.
    let known = [
        "table3", "table4", "table5", "table6", "table7", "table8", "table9", "fig5", "fig6",
        "fig7", "memory", "replay", "serve", "explore", "obs", "all",
    ];
    if !known.contains(&selected.as_str()) {
        eprintln!("unknown artifact `{selected}`; known: {known:?}");
        std::process::exit(2);
    }
    println!("\nreport complete ({selected}).");
}
