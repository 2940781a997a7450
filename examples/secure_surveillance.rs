//! The paper's Figure 8 end-to-end use case: a trusted-perception trustlet
//! that periodically captures camera frames and stores them on the secure SD
//! card — with both devices owned by the TEE and the OS completely out of the
//! IO path.
//!
//! Run with `cargo run --example secure_surveillance --release` (recording
//! the two driverlets takes a few seconds in debug builds).

use dlt_dev_mmc::{MmcController, MmcSubsystem};
use dlt_dev_vchiq::VchiqSubsystem;
use dlt_hw::Platform;
use dlt_recorder::campaign::{
    record_camera_driverlet_subset, record_mmc_driverlet_subset, DEV_KEY,
};
use dlt_tee::{SecureIo, TeeKernel};
use dlt_trustlets::SurveillanceTrustlet;

fn main() {
    println!("[record] recording camera (OneShot) and MMC (256-block write) driverlets...");
    let camera_driverlet = record_camera_driverlet_subset(&[1]).expect("record camera");
    let mmc_driverlet = record_mmc_driverlet_subset(&[256]).expect("record mmc");

    // Target platform: camera + SD card assigned to the TEE.
    let platform = Platform::new();
    MmcSubsystem::attach(&platform).expect("attach mmc");
    VchiqSubsystem::attach(&platform).expect("attach vchiq");
    TeeKernel::install(&platform, &["sdhost", "dma", "vchiq"]).expect("install tee");
    let mut replayer = dlt_core::Replayer::new(SecureIo::new(platform.bus.clone()));
    replayer.load_driverlet(camera_driverlet, DEV_KEY).expect("load camera driverlet");
    replayer.load_driverlet(mmc_driverlet, DEV_KEY).expect("load mmc driverlet");

    // The ~50-line trustlet: capture a frame, store it in 256-block chunks.
    let mut trustlet = SurveillanceTrustlet::new(1080, 4096);
    for i in 0..3 {
        let t0 = platform.now_ns();
        let frame = trustlet.capture_and_store(&mut replayer).expect("capture and store");
        let elapsed_ms = (platform.now_ns() - t0) / 1_000_000;
        println!(
            "[frame {i}] {} bytes captured at 1080p, stored at block {} ({} blocks), {} ms of device time",
            frame.img_size, frame.first_block, frame.blocks, elapsed_ms
        );
        // Verify the stored image straight off the card.
        let jpeg = trustlet.verify_stored(&mut replayer, frame).expect("verify stored frame");
        assert!(dlt_dev_vchiq::msg::is_valid_jpeg(&jpeg));
    }
    println!(
        "[done] {} frames stored; card now holds {} written blocks; OS saw none of it",
        trustlet.frames_stored(),
        platform
            .bus
            .lock()
            .device::<MmcController>()
            .expect("MMC attached above")
            .sdhost
            .card()
            .blocks_written()
    );
}
