//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's host fingerprint, settings and every metric with its
//! unit, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`). Exits with 1 when an output
//! mismatched, and with 2 on a bad command line or a failed set-up.

use dlt_e2ebench::{run, RunConfig};

fn parse() -> Result<RunConfig, String> {
    let mut cfg = RunConfig { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cfg)
}

fn main() {
    let report = parse().and_then(|cfg| run(&cfg));
    match report {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.json());
            // A wrong output fails the run.
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                dlt_e2ebench::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    }
}
