//! End-to-end record → replay integration tests (§8.2.1 correctness
//! validation): the record campaign runs against one platform ("the developer
//! machine"); the resulting driverlet is then replayed inside the TEE of a
//! *different* platform ("the target device") and the IO it performs is
//! checked against what the native driver would have done.

use std::collections::HashMap;

use dlt_core::{replay_cam, replay_mmc, replay_usb, ReplayError, Replayer};
use dlt_dev_mmc::{MmcController, MmcSubsystem, SdCard};
use dlt_dev_usb::{UsbHostController, UsbSubsystem};
use dlt_dev_vchiq::msg::is_valid_jpeg;
use dlt_dev_vchiq::VchiqSubsystem;
use dlt_hw::Platform;
use dlt_recorder::campaign::{
    pattern_buf, record_camera_driverlet_subset, record_mmc_driverlet_subset,
    record_usb_driverlet_subset, DEV_KEY,
};
use dlt_tee::{SecureIo, TeeKernel};

/// A fresh "target device": platform + MMC + USB + VC4 with the TEE owning
/// all three, plus a replayer.
struct Target {
    platform: Platform,
    replayer: Replayer,
}

fn target() -> Target {
    let platform = Platform::new();
    MmcSubsystem::attach(&platform).unwrap();
    UsbSubsystem::attach(&platform).unwrap();
    VchiqSubsystem::attach(&platform).unwrap();
    let _tee = TeeKernel::install(&platform, &["sdhost", "dma", "dwc2", "vchiq"]).unwrap();
    let replayer = Replayer::new(SecureIo::new(platform.bus.clone()));
    Target { platform, replayer }
}

impl Target {
    /// Run `f` on the SD card behind the target's MMC controller.
    fn card<R>(&self, f: impl FnOnce(&mut SdCard) -> R) -> R {
        f(self.platform.bus.lock().device::<MmcController>().unwrap().sdhost.card_mut())
    }
}

#[test]
fn mmc_write_then_read_replay_round_trip() {
    let driverlet = record_mmc_driverlet_subset(&[8]).unwrap();
    let mut t = target();
    t.replayer.load_driverlet(driverlet, DEV_KEY).unwrap();

    // Write 8 blocks at block 4096 through the driverlet.
    let payload = pattern_buf(8 * 512, 0xd00d);
    let mut buf = payload.clone();
    replay_mmc(&mut t.replayer, 0x10, 8, 4096, 0, &mut buf).unwrap();

    // The card holds exactly the written data.
    for b in 0..8u64 {
        assert_eq!(
            t.card(|c| c.peek_block(4096 + b)),
            payload[(b as usize) * 512..(b as usize + 1) * 512].to_vec(),
            "block {b} mismatch"
        );
    }

    // Read it back through the driverlet (including the 3-word PIO tail).
    let mut back = vec![0u8; 8 * 512];
    replay_mmc(&mut t.replayer, 0x1, 8, 4096, 0, &mut back).unwrap();
    assert_eq!(back, payload);
    assert!(t.replayer.stats().resets >= 2);
    assert_eq!(t.replayer.stats().divergences, 0);
}

#[test]
fn mmc_replay_matches_native_driver_results() {
    // Validation of IO data integrity (§8.2.1): values read by driverlets
    // match those read by the native driver.
    let driverlet = record_mmc_driverlet_subset(&[8]).unwrap();
    let mut t = target();
    t.replayer.load_driverlet(driverlet, DEV_KEY).unwrap();

    // Populate the card directly (fixture).
    let fixture = pattern_buf(8 * 512, 0xcafe);
    for b in 0..8u64 {
        t.card(|c| c.poke_block(128 + b, &fixture[(b as usize) * 512..(b as usize + 1) * 512]));
    }
    let mut via_driverlet = vec![0u8; 8 * 512];
    replay_mmc(&mut t.replayer, 0x1, 8, 128, 0, &mut via_driverlet).unwrap();
    assert_eq!(via_driverlet, fixture);
}

#[test]
fn mmc_out_of_coverage_requests_are_rejected() {
    let driverlet = record_mmc_driverlet_subset(&[8]).unwrap();
    let mut t = target();
    t.replayer.load_driverlet(driverlet, DEV_KEY).unwrap();
    let mut buf = vec![0u8; 32 * 512];
    // 32-block requests were not recorded in this subset.
    let err = replay_mmc(&mut t.replayer, 0x1, 32, 0, 0, &mut buf).unwrap_err();
    assert!(matches!(err, ReplayError::OutOfCoverage { .. }));
    // Block ids beyond the card are out of coverage too.
    let mut buf = vec![0u8; 8 * 512];
    let err =
        replay_mmc(&mut t.replayer, 0x1, 8, (dlt_dev_mmc::CARD_BLOCKS - 2) as u32, 0, &mut buf)
            .unwrap_err();
    assert!(matches!(err, ReplayError::OutOfCoverage { .. }));
}

#[test]
fn tampered_driverlets_are_rejected() {
    let mut driverlet = record_mmc_driverlet_subset(&[1]).unwrap();
    // Flip a constraint after signing.
    driverlet.templates[0].params[0].constraint = dlt_template::Constraint::Any;
    let mut t = target();
    let err = t.replayer.load_driverlet(driverlet, DEV_KEY).unwrap_err();
    assert!(matches!(err, ReplayError::Signature(_)));
}

#[test]
fn usb_write_then_read_replay_round_trip() {
    let driverlet = record_usb_driverlet_subset(&[8]).unwrap();
    let mut t = target();
    t.replayer.load_driverlet(driverlet, DEV_KEY).unwrap();

    let payload = pattern_buf(8 * 512, 0x1337);
    let mut buf = payload.clone();
    replay_usb(&mut t.replayer, 0x10, 8, 2000, 0, &mut buf).unwrap();
    let stored = t
        .platform
        .bus
        .lock()
        .device::<UsbHostController>()
        .unwrap()
        .device()
        .disk()
        .peek_block(2000);
    assert_eq!(stored, payload[..512].to_vec());
    let mut back = vec![0u8; 8 * 512];
    replay_usb(&mut t.replayer, 0x1, 8, 2000, 0, &mut back).unwrap();
    assert_eq!(back, payload);
}

#[test]
fn camera_replay_produces_valid_jpeg_frames_at_all_resolutions() {
    let driverlet = record_camera_driverlet_subset(&[1]).unwrap();
    let mut t = target();
    t.replayer.load_driverlet(driverlet, DEV_KEY).unwrap();

    for (code, expected) in [(720u32, 311_296u32), (1080, 622_592), (1440, 1_048_576)] {
        let mut buf = vec![0u8; 2 << 20];
        let img = replay_cam(&mut t.replayer, 1, code, &mut buf).unwrap();
        assert_eq!(img, expected, "resolution {code}");
        assert!(is_valid_jpeg(&buf[..img as usize]), "resolution {code} frame is not a JPEG");
    }
    assert_eq!(t.replayer.stats().divergences, 0);
}

#[test]
fn camera_rejects_unrecorded_resolutions_and_small_buffers() {
    let driverlet = record_camera_driverlet_subset(&[1]).unwrap();
    let mut t = target();
    t.replayer.load_driverlet(driverlet, DEV_KEY).unwrap();
    let mut buf = vec![0u8; 2 << 20];
    assert!(matches!(
        replay_cam(&mut t.replayer, 1, 480, &mut buf),
        Err(ReplayError::OutOfCoverage { .. })
    ));
    let mut small = vec![0u8; 64 * 1024];
    assert!(matches!(
        replay_cam(&mut t.replayer, 1, 720, &mut small),
        Err(ReplayError::OutOfCoverage { .. })
    ));
}

#[test]
fn tzasc_keeps_the_normal_world_out_while_the_replayer_works() {
    let driverlet = record_mmc_driverlet_subset(&[1]).unwrap();
    let mut t = target();
    t.replayer.load_driverlet(driverlet, DEV_KEY).unwrap();
    // Normal world cannot reach the secured MMC controller...
    let err = t
        .platform
        .bus
        .lock()
        .mmio_read32(
            dlt_dev_mmc::SDHOST_BASE,
            dlt_hw::World::NonSecure,
            dlt_hw::bus::MmioAttr::Cached,
        )
        .unwrap_err();
    assert!(matches!(err, dlt_hw::HwError::PermissionDenied { .. }));
    // ...while the driverlet path works fine.
    let mut buf = vec![0u8; 512];
    replay_mmc(&mut t.replayer, 0x1, 1, 0, 0, &mut buf).unwrap();
}

#[test]
fn fault_injection_unplugging_the_card_aborts_with_a_divergence_report() {
    let driverlet = record_mmc_driverlet_subset(&[8]).unwrap();
    let mut t = target();
    t.replayer.load_driverlet(driverlet, DEV_KEY).unwrap();
    // A few good requests first.
    let mut buf = vec![0u8; 8 * 512];
    replay_mmc(&mut t.replayer, 0x1, 8, 0, 0, &mut buf).unwrap();
    // Unplug the medium (§8.2.1 fault injection).
    t.card(|c| c.remove());
    let err = replay_mmc(&mut t.replayer, 0x1, 8, 64, 0, &mut buf).unwrap_err();
    match err {
        ReplayError::Diverged(report) => {
            assert!(report.attempts >= 2, "the replayer must retry with reset before giving up");
            assert!(!report.failure.site.file.is_empty());
            assert!(
                report.failure.event.contains("SDCMD")
                    || report.failure.event.contains("SDHSTS")
                    || report.failure.event.contains("irq")
                    || report.failure.event.contains("poll"),
                "failure should point at a status register or interrupt wait, got {}",
                report.failure.event
            );
        }
        other => panic!("expected a divergence report, got {other}"),
    }
    assert!(t.replayer.stats().divergences >= 2);
    // Re-inserting the medium lets replay recover after resets.
    t.card(|c| c.reinsert());
    replay_mmc(&mut t.replayer, 0x1, 8, 64, 0, &mut buf).unwrap();
}

#[test]
fn replay_requests_beyond_the_recorded_inputs_still_work() {
    // Expressiveness (§3.3): the recorded runs used specific block ids; the
    // driverlet serves any block id within coverage.
    let driverlet = record_mmc_driverlet_subset(&[1]).unwrap();
    let mut t = target();
    t.replayer.load_driverlet(driverlet, DEV_KEY).unwrap();
    let mut args_checked = 0;
    for blkid in [0u32, 7, 1_000_000, 20_000_000, (dlt_dev_mmc::CARD_BLOCKS - 1) as u32] {
        let payload = pattern_buf(512, u64::from(blkid) ^ 0x5a5a);
        let mut buf = payload.clone();
        replay_mmc(&mut t.replayer, 0x10, 1, blkid, 0, &mut buf).unwrap();
        let mut back = vec![0u8; 512];
        replay_mmc(&mut t.replayer, 0x1, 1, blkid, 0, &mut back).unwrap();
        assert_eq!(back, payload, "blkid {blkid}");
        args_checked += 1;
    }
    assert_eq!(args_checked, 5);
}

#[test]
fn driverlet_coverage_report_reflects_the_campaign() {
    let driverlet = record_mmc_driverlet_subset(&[1, 8]).unwrap();
    let report = driverlet.coverage.describe();
    assert!(report.contains("blkcnt"));
    assert!(report.contains("blkid"));
    let mut args: HashMap<String, u64> = [
        ("rw".to_string(), 1u64),
        ("blkcnt".to_string(), 8),
        ("blkid".to_string(), 5),
        ("flag".to_string(), 0),
    ]
    .into_iter()
    .collect();
    assert!(driverlet.coverage.covers(&args));
    args.insert("blkcnt".into(), 999);
    assert!(!driverlet.coverage.covers(&args));
}
