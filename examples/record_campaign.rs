//! Walk through a record campaign the way a driverlet developer would (§4
//! "How to use"): record templates, inspect the discovered constraints and
//! taint sinks, check the cumulative coverage, and emit the signed
//! human-readable bundle.
//!
//! Run with `cargo run --example record_campaign`.

use dlt_recorder::campaign::{record_mmc_driverlet_subset, DEV_KEY};
use dlt_template::Event;

fn main() {
    println!("[campaign] recording MMC read/write templates for 1 and 8 blocks...");
    let driverlet = record_mmc_driverlet_subset(&[1, 8]).expect("record campaign");

    for t in &driverlet.templates {
        let b = t.breakdown();
        println!(
            "\ntemplate {:<12} events: {} input / {} output / {} meta",
            t.name, b.input, b.output, b.meta
        );
        println!("  parameter constraints:");
        for p in &t.params {
            println!("    {:<8} {}", p.name, p.constraint.describe());
        }
        println!("  first ten events:");
        for re in t.events.iter().take(10) {
            println!("    {:<60} [{}:{}]", re.event.describe(), re.site.file, re.site.line);
        }
        let symbolic = t
            .events
            .iter()
            .filter(|re| matches!(&re.event, Event::Write { value, .. } if value.is_symbolic()))
            .count();
        println!("  parameterised output events (taint sinks): {symbolic}");
    }

    println!("\ncumulative input-space coverage:\n{}", driverlet.coverage.describe());
    println!("\nsignature verifies: {}", driverlet.verify(DEV_KEY).is_ok());
    let binary = driverlet.to_binary();
    println!(
        "bundle size: {} bytes pretty JSON / {} bytes compact / {} bytes binary ({} events total)",
        driverlet.serialized_size(),
        driverlet.compact_size(),
        binary.len(),
        driverlet.total_events()
    );
    let back = dlt_template::Driverlet::from_binary(&binary).expect("binary round trip");
    println!(
        "binary bundle round-trips: {} (signature verifies: {})",
        back == driverlet,
        back.verify(DEV_KEY).is_ok()
    );

    // Emit the human-readable document the paper describes (§6.2).
    let json = driverlet.to_json();
    println!("\nfirst lines of the emitted driverlet document:");
    for line in json.lines().take(12) {
        println!("  {line}");
    }
    println!("record campaign example complete.");
}
