//! Trustlet end-to-end tests (Figure 8) and reduced-scale versions of the
//! §8.2.1 stress/vetting validation.

use dlt_core::{replay_mmc, Replayer, SecureBlockIo};
use dlt_dev_mmc::{MmcController, MmcSubsystem, SdCard};
use dlt_dev_vchiq::VchiqSubsystem;
use dlt_hw::Platform;
use dlt_recorder::campaign::{
    pattern_buf, record_camera_driverlet_subset, record_mmc_driverlet_subset, DEV_KEY,
};
use dlt_serve::{Device, DriverletService, ServeConfig, SubmitMode};
use dlt_tee::{SecureIo, TeeKernel};
use dlt_trustlets::{CredentialStore, SurveillanceTrustlet};

/// Run `f` on the SD card behind the platform's MMC controller.
fn card<R>(platform: &Platform, f: impl FnOnce(&mut SdCard) -> R) -> R {
    f(platform.bus.lock().device::<MmcController>().unwrap().sdhost.card_mut())
}

#[test]
fn surveillance_trustlet_stores_verifiable_frames() {
    let camera_driverlet = record_camera_driverlet_subset(&[1]).unwrap();
    let mmc_driverlet = record_mmc_driverlet_subset(&[256]).unwrap();

    let platform = Platform::new();
    MmcSubsystem::attach(&platform).unwrap();
    VchiqSubsystem::attach(&platform).unwrap();
    TeeKernel::install(&platform, &["sdhost", "dma", "vchiq"]).unwrap();
    let mut replayer = Replayer::new(SecureIo::new(platform.bus.clone()));
    replayer.load_driverlet(camera_driverlet, DEV_KEY).unwrap();
    replayer.load_driverlet(mmc_driverlet, DEV_KEY).unwrap();

    let mut ta = SurveillanceTrustlet::new(720, 8192);
    let f0 = ta.capture_and_store(&mut replayer).unwrap();
    let f1 = ta.capture_and_store(&mut replayer).unwrap();
    assert_eq!(ta.frames_stored(), 2);
    assert_ne!(f0.first_block, f1.first_block);
    // The frames read back from the card are valid JPEGs.
    let jpeg0 = ta.verify_stored(&mut replayer, f0).unwrap();
    let jpeg1 = ta.verify_stored(&mut replayer, f1).unwrap();
    assert_eq!(jpeg0.len(), f0.img_size as usize);
    assert_eq!(jpeg1.len(), f1.img_size as usize);
    // The card actually holds the blocks (written by the driverlet, not the OS).
    assert!(card(&platform, |c| c.blocks_written()) >= u64::from(f0.blocks + f1.blocks));
}

#[test]
fn credential_store_round_trips_and_detects_corruption() {
    let driverlet = record_mmc_driverlet_subset(&[1]).unwrap();
    let platform = Platform::new();
    MmcSubsystem::attach(&platform).unwrap();
    TeeKernel::install(&platform, &["sdhost", "dma"]).unwrap();
    let mut replayer = Replayer::new(SecureIo::new(platform.bus.clone()));
    replayer.load_driverlet(driverlet.clone(), DEV_KEY).unwrap();

    let store = CredentialStore::new(100, 8);
    store.store(&mut replayer, 3, b"totp-seed-123456").unwrap();
    assert_eq!(store.load(&mut replayer, 3).unwrap(), b"totp-seed-123456".to_vec());
    assert!(matches!(store.load(&mut replayer, 4), Err(dlt_trustlets::TrustletError::NotFound)));
    // Corrupt the stored block behind the trustlet's back: the checksum
    // catches it on the next load.
    let mut raw = card(&platform, |c| c.peek_block(103));
    raw[20] ^= 0xff;
    card(&platform, |c| c.poke_block(103, &raw));
    assert!(matches!(store.load(&mut replayer, 3), Err(dlt_trustlets::TrustletError::Corrupt(_))));

    // The same trustlet runs unchanged over the shared service, through the
    // session handles `session_io` lends, in both submit modes.
    for submit_mode in [SubmitMode::PerCall, SubmitMode::Ring] {
        let config = ServeConfig { submit_mode, ..ServeConfig::default() };
        let mut service =
            DriverletService::with_driverlets(&[(Device::Mmc, driverlet.clone())], config).unwrap();
        let (writer, reader) = (service.open_session().unwrap(), service.open_session().unwrap());
        store.store(&mut service.session_io(writer, Device::Mmc), 3, b"totp-seed-123456").unwrap();
        let mut io = service.session_io(reader, Device::Mmc);
        assert_eq!(
            store.load(&mut io, 3).unwrap(),
            b"totp-seed-123456".to_vec(),
            "{submit_mode:?}"
        );
        assert!(matches!(store.load(&mut io, 4), Err(dlt_trustlets::TrustletError::NotFound)));
        // A raw write through a session handle flips one stored byte.
        let mut raw = vec![0u8; 512];
        io.read_blocks(103, 1, &mut raw).unwrap();
        raw[20] ^= 0xff;
        io.write_blocks(103, &raw).unwrap();
        assert!(matches!(store.load(&mut io, 3), Err(dlt_trustlets::TrustletError::Corrupt(_))));
    }
}

#[test]
fn stress_many_replays_produce_no_divergences_and_full_integrity() {
    // Reduced-scale version of the paper's stress validation (the paper
    // enumerates templates over >31M blocks and 10K camera runs; the CI-sized
    // version covers dozens of scattered block ids across the whole card).
    let driverlet = record_mmc_driverlet_subset(&[1, 8]).unwrap();
    let platform = Platform::new();
    MmcSubsystem::attach(&platform).unwrap();
    TeeKernel::install(&platform, &["sdhost", "dma"]).unwrap();
    let mut replayer = Replayer::new(SecureIo::new(platform.bus.clone()));
    replayer.load_driverlet(driverlet, DEV_KEY).unwrap();

    let mut rounds = 0;
    for i in 0u64..40 {
        // Spread accesses across the whole 31M-block range.
        let blkid = ((i * 786_431) % (dlt_dev_mmc::CARD_BLOCKS - 8)) as u32;
        let blkcnt = if i % 2 == 0 { 1 } else { 8 };
        let payload = pattern_buf(blkcnt as usize * 512, i ^ 0xabcdef);
        let mut buf = payload.clone();
        replay_mmc(&mut replayer, 0x10, blkcnt, blkid, 0, &mut buf).unwrap();
        let mut back = vec![0u8; blkcnt as usize * 512];
        replay_mmc(&mut replayer, 0x1, blkcnt, blkid, 0, &mut back).unwrap();
        assert_eq!(back, payload, "round {i} at block {blkid}");
        rounds += 1;
    }
    assert_eq!(rounds, 40);
    assert_eq!(replayer.stats().divergences, 0);
    assert_eq!(replayer.stats().invocations, 80);
}

#[test]
fn static_vetting_passes_for_all_recorded_templates() {
    // §8.2.1 "statically vetting of templates": every bundled template passes
    // validation, declares the expected device, and contains the
    // state-changing events the record campaign requested.
    let driverlet = record_mmc_driverlet_subset(&[1, 8]).unwrap();
    assert!(driverlet.validate().is_ok());
    for t in &driverlet.templates {
        assert_eq!(t.device, "sdhost");
        assert!(t.state_changing_count() > 10, "{} has too few state-changing events", t.name);
        assert!(t.irq_line.is_some());
        // Each template's recorded sample input satisfies its own constraints.
        assert!(t.matches(&t.meta.recorded_with), "{} does not cover its own recording", t.name);
    }
}

#[test]
fn secure_memory_stays_within_the_reserved_pool_during_replay() {
    // The paper reserves 3 MB of TEE RAM; the largest recorded template
    // (256 blocks = 32 descriptor/page pairs) must fit comfortably.
    let driverlet = record_mmc_driverlet_subset(&[256]).unwrap();
    let platform = Platform::new();
    MmcSubsystem::attach(&platform).unwrap();
    TeeKernel::install(&platform, &["sdhost", "dma"]).unwrap();
    let mut replayer = Replayer::new(SecureIo::new(platform.bus.clone()));
    replayer.load_driverlet(driverlet, DEV_KEY).unwrap();
    let mut buf = vec![0u8; 256 * 512];
    replay_mmc(&mut replayer, 0x1, 256, 0, 0, &mut buf).unwrap();
    let high_water = replayer.io_mut().dma_high_water();
    assert!(high_water > 0);
    assert!(
        high_water <= dlt_tee::TEE_DMA_POOL_BYTES as u64,
        "replay used {high_water} bytes, more than the reserved pool"
    );
}
