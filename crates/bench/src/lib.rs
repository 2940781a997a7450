//! # dlt-bench — harness that regenerates every table and figure of the paper
//!
//! The `report` binary prints paper-vs-measured numbers for Tables 3-9 and
//! Figures 5-7 plus the §8.3.4 memory-overhead numbers. The benches under
//! `benches/` measure host wall-clock time: the replay engines, the serve
//! layer and the observability plane. See EXPERIMENTS.md for the recorded
//! outcomes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod obs_bench;
pub mod replay_bench;
pub mod serve_bench;

use std::collections::HashMap;

use dlt_template::Driverlet;
use dlt_workloads::block::{StorageKind, StoragePath};
use dlt_workloads::suite::{run_benchmark, SqliteBenchmark};

/// Render a driverlet's per-template event breakdown (Tables 3 and 5).
pub fn breakdown_table(driverlet: &Driverlet) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>8} {:>8} {:>8} {:>8}\n",
        "template", "input", "output", "meta", "total"
    ));
    for t in &driverlet.templates {
        let b = t.breakdown();
        out.push_str(&format!(
            "{:<20} {:>8} {:>8} {:>8} {:>8}\n",
            t.name,
            b.input,
            b.output,
            b.meta,
            b.total()
        ));
    }
    out
}

/// Render a driverlet's parameter constraints and taint sinks (Tables 4 / 6):
/// for every template, the parameter constraints plus each symbolic output
/// event (the discovered taint sinks).
pub fn constraints_table(driverlet: &Driverlet, template: &str) -> String {
    let mut out = String::new();
    let Some(t) = driverlet.templates.iter().find(|t| t.name == template) else {
        return format!("no template named {template}\n");
    };
    out.push_str(&format!("template {}\n", t.name));
    out.push_str("  parameter constraints:\n");
    for p in &t.params {
        out.push_str(&format!("    {:<12} {}\n", p.name, p.constraint.describe()));
    }
    out.push_str("  symbolic taint sinks (parameterised outputs):\n");
    for re in &t.events {
        if let dlt_template::Event::Write { iface, value } = &re.event {
            if value.is_symbolic() {
                out.push_str(&format!("    {:<24} = {}\n", iface.describe(), value.describe()));
            }
        }
    }
    out.push_str("  captured device-assigned inputs:\n");
    for re in &t.events {
        if let dlt_template::Event::Read {
            iface,
            sink: dlt_template::ReadSink::Capture(name),
            ..
        } = &re.event
        {
            out.push_str(&format!("    {:<24} -> ${}\n", iface.describe(), name));
        }
    }
    out
}

/// One Figure-5 panel: IOPS per benchmark per path.
pub fn figure5_panel(kind: StorageKind, queries: u64) -> Vec<(String, HashMap<&'static str, f64>)> {
    let mut rows = Vec::new();
    for bench in SqliteBenchmark::all() {
        let mut row = HashMap::new();
        for (label, path) in [
            ("native", StoragePath::Native),
            ("native-sync", StoragePath::NativeSync),
            ("ours", StoragePath::Driverlet),
        ] {
            let r = run_benchmark(bench, kind, path, queries).expect("benchmark run");
            row.insert(label, r.iops);
        }
        rows.push((bench.name().to_string(), row));
    }
    rows
}

/// Memory-overhead report (§8.3.4): serialised driverlet sizes in the JSON
/// document forms and the compact binary deployment encoding, with the
/// shrink ratio of binary versus the canonical (compact) JSON.
pub fn memory_report(mmc: &Driverlet, usb: &Driverlet, cam: &Driverlet) -> String {
    let mut out = String::new();
    out.push_str("driverlet bundle sizes (serialised templates)\n");
    out.push_str(&format!(
        "{:<8} {:>14} {:>14} {:>14} {:>8} {:>10}\n",
        "device", "pretty bytes", "compact bytes", "binary bytes", "ratio", "events"
    ));
    for (name, d) in [("MMC", mmc), ("USB", usb), ("VCHIQ", cam)] {
        let s = replay_bench::bundle_size_sample(name, d);
        out.push_str(&format!(
            "{:<8} {:>14} {:>14} {:>14} {:>7.1}x {:>10}\n",
            name,
            s.pretty_json,
            s.compact_json,
            s.binary,
            s.ratio,
            d.total_events()
        ));
    }
    out.push_str("ratio = compact JSON / binary (paper's binary executables: MMC 6 KB, USB 26 KB, VCHIQ 19 KB)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_recorder::campaign::record_mmc_driverlet_subset;

    #[test]
    fn tables_render_for_a_small_campaign() {
        let d = record_mmc_driverlet_subset(&[1]).unwrap();
        let t3 = breakdown_table(&d);
        assert!(t3.contains("mmc_rd_1"));
        assert!(t3.contains("input"));
        let t4 = constraints_table(&d, "mmc_rd_1");
        assert!(t4.contains("blkid"));
        assert!(t4.contains("SDARG") || t4.contains("taint"));
        let mem = memory_report(&d, &d, &d);
        assert!(mem.contains("MMC"));
        assert!(mem.contains("binary bytes"));
    }

    #[test]
    fn binary_bundles_beat_canonical_json_by_5x() {
        // The §8.3.4 acceptance bar, checked on a reduced campaign (the
        // report binary prints the same ratio for the full ones).
        let d = record_mmc_driverlet_subset(&[1]).unwrap();
        let s = replay_bench::bundle_size_sample("MMC", &d);
        assert!(
            s.ratio >= 5.0,
            "binary must be >= 5x smaller than canonical JSON, got {:.2}x",
            s.ratio
        );
        assert!(s.binary < s.compact_json && s.compact_json < s.pretty_json);
    }
}
