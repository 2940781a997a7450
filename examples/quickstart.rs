//! Quickstart: record an MMC driverlet, load it into the TEE, and perform
//! secure block IO that the untrusted OS can neither see nor reach.
//!
//! Run with `cargo run --example quickstart`.

use dlt_core::{replay_mmc, Replayer};
use dlt_dev_mmc::{MmcController, MmcSubsystem};
use dlt_hw::Platform;
use dlt_recorder::campaign::{record_mmc_driverlet_subset, DEV_KEY};
use dlt_tee::{SecureIo, TeeKernel};

fn main() {
    // 1. On the developer machine: exercise the full driver and distil a
    //    driverlet (here restricted to 1- and 8-block templates for speed).
    println!("[record] running the MMC record campaign...");
    let driverlet = record_mmc_driverlet_subset(&[1, 8]).expect("record campaign");
    println!(
        "[record] {} templates, {} events, coverage:\n{}",
        driverlet.templates.len(),
        driverlet.total_events(),
        driverlet.coverage.describe()
    );

    // 2. On the target device: build the platform, assign the MMC controller
    //    and DMA engine to the TEE, and load the signed driverlet.
    let platform = Platform::new();
    MmcSubsystem::attach(&platform).expect("attach MMC");
    TeeKernel::install(&platform, &["sdhost", "dma"]).expect("install TEE");
    let mut replayer = Replayer::new(SecureIo::new(platform.bus.clone()));
    replayer.load_driverlet(driverlet, DEV_KEY).expect("verify + load driverlet");

    // 3. A trustlet writes and reads back a secret, entirely inside the TEE.
    let secret = b"driverlets: minimum viable drivers for TrustZone";
    let mut block = vec![0u8; 512];
    block[..secret.len()].copy_from_slice(secret);
    replay_mmc(&mut replayer, 0x10, 1, 42, 0, &mut block).expect("secure write");

    let mut back = vec![0u8; 512];
    replay_mmc(&mut replayer, 0x1, 1, 42, 0, &mut back).expect("secure read");
    assert_eq!(&back[..secret.len()], secret);
    println!(
        "[replay] round-tripped {} bytes through block 42 of the secure SD card",
        secret.len()
    );

    // 4. The card really holds the data, and the normal world really cannot
    //    reach the controller.
    let stored = platform
        .bus
        .lock()
        .device::<MmcController>()
        .expect("MMC attached above")
        .sdhost
        .card()
        .peek_block(42);
    assert_eq!(&stored[..secret.len()], secret);
    let blocked = platform.bus.lock().mmio_read32(
        dlt_dev_mmc::SDHOST_BASE,
        dlt_hw::World::NonSecure,
        dlt_hw::bus::MmioAttr::Cached,
    );
    assert!(blocked.is_err());
    println!("[tzasc]  normal-world access to the MMC controller faults, as expected");
    println!(
        "[stats]  replayer: {} invocations, {} events, {} resets, {} divergences",
        replayer.stats().invocations,
        replayer.stats().events_executed,
        replayer.stats().resets,
        replayer.stats().divergences
    );
    println!("quickstart complete.");
}
