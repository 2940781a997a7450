//! Record campaigns for the three devices.
//!
//! A campaign (§4 "How to use") exercises the gold driver with a set of
//! sample invocations — each on a fresh, freshly-booted platform so every run
//! starts from the same device state — synthesises one template per sample,
//! reports cumulative coverage and signs the resulting driverlet.
//!
//! The sample sets mirror the paper's: read/write of 1, 8, 32, 128 and 256
//! blocks for MMC and USB mass storage (Table 3), and captures of 1, 10 and
//! 100 frames for the camera (Table 5).

use std::collections::HashMap;

use dlt_dev_mmc::{MmcController, MmcSubsystem, CARD_BLOCKS, SDHOST_BASE};
use dlt_dev_usb::{UsbHostController, UsbSubsystem, USB_BASE, USB_DISK_BLOCKS};
use dlt_dev_vchiq::msg::CameraResolution;
use dlt_dev_vchiq::{VchiqSubsystem, VCHIQ_BASE};
use dlt_gold_drivers::kenv::{BusIo, IoFlags, Rw};
use dlt_gold_drivers::mmc::MmcHost;
use dlt_gold_drivers::usb::{UsbHcd, UsbStorageDriver};
use dlt_gold_drivers::vchiq::VchiqDriver;
use dlt_hw::irq::lines;
use dlt_hw::{DmaRegion, Platform};
use dlt_template::{Constraint, DataDirection, Driverlet, ParamSpec, SymExpr, Template};

use crate::analyze::{synthesize_template, ProbeOutcome, RecordRun, TemplateSpec};
use crate::trace::TracingIo;
use crate::RecorderError;

/// The developer signing key used by the bundled campaigns. On a real
/// deployment this lives on the (trusted) developer machine; here it is a
/// constant so the replayer side can verify the bundles in tests and
/// examples.
pub const DEV_KEY: &[u8] = b"driverlet-developer-signing-key-v1";

/// Normal-world DMA window used by the gold drivers during recording.
const RECORD_DMA_BASE: u64 = 0x0200_0000;
const RECORD_DMA_LEN: usize = 0x0100_0000;

/// Fill a payload buffer with a pattern whose 8-byte windows are unique, so
/// payload copies can be located in the buffer unambiguously.
pub fn pattern_buf(len: usize, seed: u64) -> Vec<u8> {
    let mut out = vec![0u8; len];
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        let word = ((i as u64) ^ seed.wrapping_mul(0x00ff_51af_d7ed_558d))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let bytes = word.to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&bytes[..n]);
    }
    out
}

fn mmc_reg_names() -> HashMap<u64, String> {
    let mut m: HashMap<u64, String> = dlt_dev_mmc::regs::SDHOST_REGISTERS
        .iter()
        .map(|(off, name)| (SDHOST_BASE + off, (*name).to_string()))
        .collect();
    for (off, name) in dlt_dev_mmc::regs::dmareg::DMA_REGISTERS {
        m.insert(dlt_dev_mmc::DMA_BASE + off, (*name).to_string());
    }
    m
}

fn usb_reg_names() -> HashMap<u64, String> {
    dlt_dev_usb::regs::USB_REGISTERS
        .iter()
        .map(|(off, name)| (USB_BASE + off, (*name).to_string()))
        .collect()
}

fn vchiq_reg_names() -> HashMap<u64, String> {
    dlt_dev_vchiq::regs::VCHIQ_REGISTERS
        .iter()
        .map(|(off, name)| (VCHIQ_BASE + off, (*name).to_string()))
        .collect()
}

// ---------------------------------------------------------------------------
// MMC
// ---------------------------------------------------------------------------

fn mmc_run(
    rw: Rw,
    blkcnt: u32,
    blkid: u32,
    dma_skew: u64,
    seed: u64,
) -> Result<RecordRun, RecorderError> {
    let platform = Platform::new();
    MmcSubsystem::attach(&platform).map_err(|e| RecorderError::DriverFailed(e.to_string()))?;
    let total = blkcnt as usize * dlt_dev_mmc::BLOCK_SIZE;

    // For reads, pre-populate the card so payload-sink discovery has unique
    // data to match against.
    if matches!(rw, Rw::Read) {
        let fixture = pattern_buf(total, seed ^ 0xfeed);
        let mut bus = platform.bus.lock();
        let card = bus.device::<MmcController>().expect("attached above").sdhost.card_mut();
        for b in 0..blkcnt as usize {
            card.poke_block(
                u64::from(blkid) + b as u64,
                &fixture[b * dlt_dev_mmc::BLOCK_SIZE..(b + 1) * dlt_dev_mmc::BLOCK_SIZE],
            );
        }
    }

    let io = BusIo::normal_world(
        platform.bus.clone(),
        DmaRegion::new(RECORD_DMA_BASE + dma_skew, RECORD_DMA_LEN),
    );
    let tio = TracingIo::new(io, mmc_reg_names(), "bcm2835-sdhost.c");
    let mut host = MmcHost::new(tio);
    host.set_record_mode(true);
    host.probe().map_err(|e| RecorderError::DriverFailed(e.to_string()))?;

    let mut buf = match rw {
        Rw::Write => pattern_buf(total, seed),
        Rw::Read => vec![0u8; total],
    };
    let input_buf = buf.clone();
    host.io_mut().set_enabled(true);
    host.do_io(rw, blkcnt, blkid, IoFlags::none(), &mut buf)
        .map_err(|e| RecorderError::DriverFailed(e.to_string()))?;
    host.io_mut().set_enabled(false);
    let trace = host.into_io().into_trace();
    let mut params: HashMap<String, u64> = HashMap::new();
    params.insert("rw".into(), rw.encode());
    params.insert("blkcnt".into(), u64::from(blkcnt));
    params.insert("blkid".into(), u64::from(blkid));
    params.insert("flag".into(), 0);
    Ok(RecordRun { params, input_buf, output_buf: buf, trace })
}

/// Record one MMC template (one read/write granularity).
pub fn record_mmc_template(rw: Rw, blkcnt: u32) -> Result<Template, RecorderError> {
    let base = mmc_run(rw, blkcnt, 1024, 0, 1)?;
    let variants =
        vec![mmc_run(rw, blkcnt, 8192, 0x4000, 2)?, mmc_run(rw, blkcnt, 262_144, 0x8000, 3)?];

    // Boundary probing: the last block id that stays on the recorded path.
    let candidate = CARD_BLOCKS - u64::from(blkcnt);
    let probe = |blkid: u64| -> ProbeOutcome {
        match mmc_run(rw, blkcnt, blkid as u32, 0, 9) {
            Ok(run) if run.trace.same_shape(&base.trace) => ProbeOutcome::SamePath,
            _ => ProbeOutcome::Diverged,
        }
    };
    let upper = match probe(candidate) {
        ProbeOutcome::SamePath => candidate,
        ProbeOutcome::Diverged => crate::analyze::bisect_upper_bound(262_144, candidate, probe),
    };

    let dir = match rw {
        Rw::Read => DataDirection::DeviceToUser,
        Rw::Write => DataDirection::UserToDevice,
    };
    let spec = TemplateSpec {
        name: format!("mmc_{}_{}", if matches!(rw, Rw::Read) { "rd" } else { "wr" }, blkcnt),
        entry: "replay_mmc".into(),
        device: "sdhost".into(),
        params: vec![
            ParamSpec { name: "rw".into(), constraint: Constraint::eq_const(rw.encode()) },
            ParamSpec {
                name: "blkcnt".into(),
                constraint: Constraint::eq_const(u64::from(blkcnt)),
            },
            ParamSpec {
                name: "blkid".into(),
                constraint: Constraint::InRange { min: 0, max: upper },
            },
            ParamSpec { name: "flag".into(), constraint: Constraint::Any },
        ],
        direction: dir,
        data_len: SymExpr::Const(u64::from(blkcnt) * 512),
        irq_line: Some(lines::MMC),
        reg_names: mmc_reg_names(),
        driver_tag: "bcm2835-sdhost.c".into(),
    };
    synthesize_template(&spec, &base, &variants)
}

/// Record the full MMC driverlet: read/write of 1, 8, 32, 128, 256 blocks
/// (the paper's ten-template campaign, Table 3), signed with [`DEV_KEY`].
pub fn record_mmc_driverlet() -> Result<Driverlet, RecorderError> {
    record_mmc_driverlet_subset(&[1, 8, 32, 128, 256])
}

/// Record an MMC driverlet restricted to the given block granularities
/// (useful for fast tests; the full campaign uses all five).
pub fn record_mmc_driverlet_subset(granularities: &[u32]) -> Result<Driverlet, RecorderError> {
    let mut templates = Vec::new();
    for &blkcnt in granularities {
        templates.push(record_mmc_template(Rw::Read, blkcnt)?);
        templates.push(record_mmc_template(Rw::Write, blkcnt)?);
    }
    let mut d = Driverlet::new("sdhost", "replay_mmc", templates);
    d.sign(DEV_KEY);
    Ok(d)
}

// ---------------------------------------------------------------------------
// USB mass storage
// ---------------------------------------------------------------------------

fn usb_run(
    rw: Rw,
    blkcnt: u32,
    blkid: u32,
    dma_skew: u64,
    seed: u64,
) -> Result<RecordRun, RecorderError> {
    let platform = Platform::new();
    UsbSubsystem::attach(&platform).map_err(|e| RecorderError::DriverFailed(e.to_string()))?;
    let total = blkcnt as usize * dlt_dev_usb::USB_BLOCK_SIZE;
    if matches!(rw, Rw::Read) {
        let fixture = pattern_buf(total, seed ^ 0xbeef);
        let mut bus = platform.bus.lock();
        let disk =
            bus.device::<UsbHostController>().expect("attached above").device_mut().disk_mut();
        for b in 0..blkcnt as usize {
            disk.poke_block(
                u64::from(blkid) + b as u64,
                &fixture[b * dlt_dev_usb::USB_BLOCK_SIZE..(b + 1) * dlt_dev_usb::USB_BLOCK_SIZE],
            );
        }
    }

    let io = BusIo::normal_world(
        platform.bus.clone(),
        DmaRegion::new(RECORD_DMA_BASE + dma_skew, RECORD_DMA_LEN),
    );
    let tio = TracingIo::new(io, usb_reg_names(), "dwc2-hcd.c");
    let mut drv = UsbStorageDriver::new(UsbHcd::new(tio));
    drv.init().map_err(|e| RecorderError::DriverFailed(e.to_string()))?;

    let mut buf = match rw {
        Rw::Write => pattern_buf(total, seed),
        Rw::Read => vec![0u8; total],
    };
    let input_buf = buf.clone();
    drv.hcd_mut().io_mut().set_enabled(true);
    drv.do_io(rw, blkcnt, blkid, IoFlags::none(), &mut buf)
        .map_err(|e| RecorderError::DriverFailed(e.to_string()))?;
    drv.hcd_mut().io_mut().set_enabled(false);
    let trace = {
        let hcd = drv.hcd_mut();
        std::mem::replace(
            hcd.io_mut(),
            TracingIo::new(
                BusIo::normal_world(platform.bus.clone(), DmaRegion::new(0x0700_0000, 0x1000)),
                HashMap::new(),
                "dwc2-hcd.c",
            ),
        )
        .into_trace()
    };
    let mut params: HashMap<String, u64> = HashMap::new();
    params.insert("rw".into(), rw.encode());
    params.insert("blkcnt".into(), u64::from(blkcnt));
    params.insert("blkid".into(), u64::from(blkid));
    params.insert("flag".into(), 0);
    Ok(RecordRun { params, input_buf, output_buf: buf, trace })
}

/// Record one USB mass-storage template.
pub fn record_usb_template(rw: Rw, blkcnt: u32) -> Result<Template, RecorderError> {
    let base = usb_run(rw, blkcnt, 2048, 0, 11)?;
    let variants =
        vec![usb_run(rw, blkcnt, 65_536, 0x4000, 12)?, usb_run(rw, blkcnt, 500_000, 0x8000, 13)?];
    let candidate = USB_DISK_BLOCKS - u64::from(blkcnt);
    let probe = |blkid: u64| -> ProbeOutcome {
        match usb_run(rw, blkcnt, blkid as u32, 0, 19) {
            Ok(run) if run.trace.same_shape(&base.trace) => ProbeOutcome::SamePath,
            _ => ProbeOutcome::Diverged,
        }
    };
    let upper = match probe(candidate) {
        ProbeOutcome::SamePath => candidate,
        ProbeOutcome::Diverged => crate::analyze::bisect_upper_bound(500_000, candidate, probe),
    };
    let dir = match rw {
        Rw::Read => DataDirection::DeviceToUser,
        Rw::Write => DataDirection::UserToDevice,
    };
    let spec = TemplateSpec {
        name: format!("usb_{}_{}", if matches!(rw, Rw::Read) { "rd" } else { "wr" }, blkcnt),
        entry: "replay_usb".into(),
        device: "dwc2".into(),
        params: vec![
            ParamSpec { name: "rw".into(), constraint: Constraint::eq_const(rw.encode()) },
            ParamSpec {
                name: "blkcnt".into(),
                constraint: Constraint::eq_const(u64::from(blkcnt)),
            },
            ParamSpec {
                name: "blkid".into(),
                constraint: Constraint::InRange { min: 0, max: upper },
            },
            ParamSpec { name: "flag".into(), constraint: Constraint::Any },
        ],
        direction: dir,
        data_len: SymExpr::Const(u64::from(blkcnt) * 512),
        irq_line: Some(lines::USB),
        reg_names: usb_reg_names(),
        driver_tag: "dwc2-hcd.c".into(),
    };
    synthesize_template(&spec, &base, &variants)
}

/// Record the full USB mass-storage driverlet (ten templates), signed.
pub fn record_usb_driverlet() -> Result<Driverlet, RecorderError> {
    record_usb_driverlet_subset(&[1, 8, 32, 128, 256])
}

/// Record a USB driverlet restricted to the given block granularities.
pub fn record_usb_driverlet_subset(granularities: &[u32]) -> Result<Driverlet, RecorderError> {
    let mut templates = Vec::new();
    for &blkcnt in granularities {
        templates.push(record_usb_template(Rw::Read, blkcnt)?);
        templates.push(record_usb_template(Rw::Write, blkcnt)?);
    }
    let mut d = Driverlet::new("dwc2", "replay_usb", templates);
    d.sign(DEV_KEY);
    Ok(d)
}

// ---------------------------------------------------------------------------
// Camera (VCHIQ / MMAL)
// ---------------------------------------------------------------------------

fn camera_run(
    frames: u32,
    resolution: CameraResolution,
    buf_size: usize,
    dma_skew: u64,
) -> Result<RecordRun, RecorderError> {
    let platform = Platform::new();
    VchiqSubsystem::attach(&platform).map_err(|e| RecorderError::DriverFailed(e.to_string()))?;
    let io = BusIo::normal_world(
        platform.bus.clone(),
        DmaRegion::new(RECORD_DMA_BASE + dma_skew, RECORD_DMA_LEN),
    );
    let tio = TracingIo::new(io, vchiq_reg_names(), "vchiq-mmal.c");
    let mut drv = VchiqDriver::new(tio);
    // Record with per-frame port re-arming so every frame of a burst starts
    // from an identical device state (and the replayed template pays the
    // paper's per-frame re-initialisation, §8.3.2).
    drv.set_record_mode(true);

    let mut buf = vec![0u8; buf_size];
    let input_buf = buf.clone();
    drv.io_mut().set_enabled(true);
    drv.capture(frames, resolution, &mut buf)
        .map_err(|e| RecorderError::DriverFailed(e.to_string()))?;
    drv.io_mut().set_enabled(false);
    let trace = std::mem::replace(
        drv.io_mut(),
        TracingIo::new(
            BusIo::normal_world(platform.bus.clone(), DmaRegion::new(0x0700_0000, 0x1000)),
            HashMap::new(),
            "vchiq-mmal.c",
        ),
    )
    .into_trace();
    let mut params: HashMap<String, u64> = HashMap::new();
    params.insert("frames".into(), u64::from(frames));
    params.insert("resolution".into(), u64::from(resolution.code()));
    params.insert("buf_size".into(), buf_size as u64);
    Ok(RecordRun { params, input_buf, output_buf: buf, trace })
}

/// Record one camera template (OneShot = 1 frame, ShortBurst = 10,
/// LongBurst = 100).
pub fn record_camera_template(frames: u32) -> Result<Template, RecorderError> {
    let buf_bytes = 2 << 20;
    let base = camera_run(frames, CameraResolution::R720p, buf_bytes, 0)?;
    let variants = vec![
        camera_run(frames, CameraResolution::R1080p, buf_bytes, 0x4000)?,
        camera_run(frames, CameraResolution::R1440p, buf_bytes, 0x8000)?,
        camera_run(frames, CameraResolution::R720p, buf_bytes + 0x1000, 0xc000)?,
    ];
    let name = match frames {
        1 => "camera_oneshot".to_string(),
        10 => "camera_shortburst".to_string(),
        100 => "camera_longburst".to_string(),
        n => format!("camera_burst_{n}"),
    };
    let spec = TemplateSpec {
        name,
        entry: "replay_cam".into(),
        device: "vchiq".into(),
        params: vec![
            ParamSpec {
                name: "frames".into(),
                constraint: Constraint::eq_const(u64::from(frames)),
            },
            ParamSpec {
                name: "resolution".into(),
                constraint: Constraint::OneOf(
                    CameraResolution::all().iter().map(|r| u64::from(r.code())).collect(),
                ),
            },
            ParamSpec {
                name: "buf_size".into(),
                constraint: Constraint::InRange {
                    min: u64::from(CameraResolution::R1440p.frame_bytes()),
                    max: u64::from(u32::MAX),
                },
            },
        ],
        direction: DataDirection::DeviceToUser,
        data_len: SymExpr::Const(0),
        irq_line: Some(lines::VCHIQ),
        reg_names: vchiq_reg_names(),
        driver_tag: "vchiq-mmal.c".into(),
    };
    synthesize_template(&spec, &base, &variants)
}

/// Record the camera driverlet (OneShot, ShortBurst, LongBurst), signed.
pub fn record_camera_driverlet() -> Result<Driverlet, RecorderError> {
    record_camera_driverlet_subset(&[1, 10, 100])
}

/// Record a camera driverlet restricted to the given burst sizes.
pub fn record_camera_driverlet_subset(bursts: &[u32]) -> Result<Driverlet, RecorderError> {
    let mut templates = Vec::new();
    for &frames in bursts {
        templates.push(record_camera_template(frames)?);
    }
    let mut d = Driverlet::new("vchiq", "replay_cam", templates);
    d.sign(DEV_KEY);
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_template::{Event, ReadSink};

    #[test]
    fn pattern_buffers_have_unique_windows() {
        let b = pattern_buf(4096, 7);
        let mut seen = std::collections::HashSet::new();
        for chunk in b.chunks(8) {
            assert!(seen.insert(chunk.to_vec()));
        }
        assert_ne!(pattern_buf(64, 1), pattern_buf(64, 2));
    }

    #[test]
    fn mmc_read_template_generalises_blkid_and_finds_the_payload_tail() {
        let t = record_mmc_template(Rw::Read, 8).unwrap();
        assert_eq!(t.device, "sdhost");
        assert!(t.validate().is_ok());
        let b = t.breakdown();
        assert!(b.input >= 5, "expected several input events, got {b:?}");
        assert!(b.output >= 10, "expected many output events, got {b:?}");
        assert!(b.meta >= 2, "expected poll/delay meta events, got {b:?}");
        // SDARG must have been generalised to the blkid parameter.
        let sdarg_addr = SDHOST_BASE + dlt_dev_mmc::regs::SDARG;
        let generalised = t.events.iter().any(|re| match &re.event {
            Event::Write { iface: dlt_template::Iface::Reg { addr, .. }, value } => {
                *addr == sdarg_addr && *value == SymExpr::Param("blkid".into())
            }
            _ => false,
        });
        assert!(generalised, "SDARG write was not parameterised on blkid");
        // The last three words of the read arrive via SDDATA as user data.
        let tail_reads = t
            .events
            .iter()
            .filter(|re| matches!(&re.event, Event::Read { sink: ReadSink::UserData { .. }, .. }))
            .count();
        assert_eq!(tail_reads, 3, "expected the 3-word PIO tail to be user data");
        // blkid coverage reaches (almost) the whole card.
        let blkid = t.params.iter().find(|p| p.name == "blkid").unwrap();
        match &blkid.constraint {
            Constraint::InRange { min, max } => {
                assert_eq!(*min, 0);
                assert_eq!(*max, CARD_BLOCKS - 8);
            }
            other => panic!("unexpected constraint {other:?}"),
        }
    }

    #[test]
    fn mmc_write_template_copies_user_data_into_dma_pages() {
        let t = record_mmc_template(Rw::Write, 8).unwrap();
        let copies: Vec<_> = t
            .events
            .iter()
            .filter_map(|re| match &re.event {
                Event::CopyUserToDma { user_offset, .. } => Some(*user_offset),
                _ => None,
            })
            .collect();
        assert_eq!(copies, vec![0], "one 4 KiB page copied from offset 0");
        assert_eq!(t.direction, DataDirection::UserToDevice);
    }

    #[test]
    fn usb_template_parameterises_the_cbw_lba_field() {
        let t = record_usb_template(Rw::Read, 8).unwrap();
        assert_eq!(t.device, "dwc2");
        assert!(t.validate().is_ok());
        // Some shared-memory write (a CBW word) must reference blkid.
        let cbw_param = t.events.iter().any(|re| match &re.event {
            Event::Write { iface: dlt_template::Iface::Shm { .. }, value } => {
                value.referenced_params().contains(&"blkid".to_string())
            }
            _ => false,
        });
        assert!(cbw_param, "no CBW word was parameterised on blkid");
        // The bulk data lands in the user buffer via a DMA copy.
        assert!(t.events.iter().any(|re| matches!(&re.event, Event::CopyDmaToUser { .. })));
    }

    #[test]
    fn camera_oneshot_template_captures_img_size_and_covers_all_resolutions() {
        let t = record_camera_template(1).unwrap();
        assert_eq!(t.device, "vchiq");
        assert!(t.validate().is_ok());
        // The device-assigned image size is captured...
        let captured = t
            .events
            .iter()
            .any(|re| matches!(&re.event, Event::Read { sink: ReadSink::Capture(_), .. }));
        assert!(captured, "img_size was not captured");
        // ...and echoed back in a later shared-memory write.
        let echoed = t.events.iter().any(|re| match &re.event {
            Event::Write { iface: dlt_template::Iface::Shm { .. }, value } => {
                matches!(value, SymExpr::Captured(_))
                    || matches!(value, SymExpr::Add(a, _) if matches!(**a, SymExpr::Captured(_)))
            }
            _ => false,
        });
        assert!(echoed, "captured img_size is not echoed to the device");
        // Resolution coverage.
        let res = t.params.iter().find(|p| p.name == "resolution").unwrap();
        assert_eq!(res.constraint, Constraint::OneOf(vec![720, 1080, 1440]));
    }

    #[test]
    fn campaigns_emit_binary_bundles_that_round_trip() {
        let d = record_mmc_driverlet_subset(&[1]).unwrap();
        let bytes = d.to_binary();
        let back = dlt_template::Driverlet::from_binary(&bytes).unwrap();
        assert_eq!(back, d);
        assert!(back.verify(DEV_KEY).is_ok(), "signature must survive the binary round trip");
        assert!(
            bytes.len() * 5 <= d.compact_size(),
            "binary bundle ({} B) should be at least 5x smaller than compact JSON ({} B)",
            bytes.len(),
            d.compact_size()
        );
    }

    #[test]
    fn driverlet_bundles_are_signed_and_select_by_granularity() {
        let d = record_mmc_driverlet_subset(&[1, 8]).unwrap();
        assert!(d.verify(DEV_KEY).is_ok());
        assert_eq!(d.templates.len(), 4);
        let args: HashMap<String, u64> = [
            ("rw".to_string(), Rw::Read.encode()),
            ("blkcnt".to_string(), 8),
            ("blkid".to_string(), 4096),
            ("flag".to_string(), 0),
        ]
        .into_iter()
        .collect();
        assert_eq!(d.select(&args).unwrap().name, "mmc_rd_8");
        let mut oob = args.clone();
        oob.insert("blkid".to_string(), CARD_BLOCKS);
        assert!(d.select(&oob).is_none(), "out-of-coverage blkid must not select");
    }
}
