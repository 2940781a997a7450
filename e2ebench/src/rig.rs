//! Set-up and read-out shared by the workloads: recording the bundles,
//! standing up bare replayers, the reference reads the serve workloads'
//! outputs are checked against, and the per-layer counters read from the
//! service's public statistics.

use std::collections::BTreeMap;
use std::time::Instant;

use dlt_core::{replay_cam, replay_mmc, replay_usb, ReplayConfig, ReplayMode, Replayer};
use dlt_dev_mmc::MmcSubsystem;
use dlt_dev_usb::UsbSubsystem;
use dlt_dev_vchiq::VchiqSubsystem;
use dlt_hw::Platform;
use dlt_recorder::campaign::{
    record_camera_driverlet_subset, record_mmc_driverlet_subset, record_usb_driverlet_subset,
    DEV_KEY,
};
use dlt_serve::{Device, DriverletService, BLOCK};
use dlt_tee::{SecureIo, TeeKernel};
use dlt_template::Driverlet;

use crate::common::{Pass, Virt};

/// Block granularities the serve workloads record (and configure the
/// coalescer to decompose over).
pub const SERVE_GRANULARITIES: [u32; 3] = [1, 8, 32];

/// A signed bundle in its binary deployment form, with its device class.
pub type Bundle = (Device, Vec<u8>);

/// Run the record campaigns for `devices`; returns one bundle per device
/// and the milliseconds spent recording.
pub fn record(devices: &[Device]) -> Result<(Vec<Bundle>, f64), String> {
    let t = Instant::now();
    let mut bundles = Vec::new();
    for &device in devices {
        let d = match device {
            Device::Mmc => record_mmc_driverlet_subset(&SERVE_GRANULARITIES),
            Device::Usb => record_usb_driverlet_subset(&SERVE_GRANULARITIES),
            Device::Vchiq => record_camera_driverlet_subset(&[1]),
        }
        .map_err(|e| e.to_string())?;
        bundles.push((device, d.to_binary()));
    }
    Ok((bundles, t.elapsed().as_secs_f64() * 1e3))
}

/// A bare replayer on a fresh platform: the reference every served read is
/// checked against.
pub struct RefReader {
    replayer: Replayer,
    device: Device,
}

/// Stand up a fresh platform with `device` attached and handed to the TEE,
/// and a compiled-mode replayer on it loaded from the binary `bundle`.
/// Returns them with the milliseconds the load took (decode, signature
/// check, vetting, compilation).
pub fn bare_replayer(device: Device, bundle: &[u8]) -> Result<(Platform, Replayer, f64), String> {
    let platform = Platform::new();
    let secure: &[&str] = match device {
        Device::Mmc => {
            MmcSubsystem::attach(&platform).map_err(|e| e.to_string())?;
            &["sdhost", "dma"]
        }
        Device::Usb => {
            UsbSubsystem::attach(&platform).map_err(|e| e.to_string())?;
            &["dwc2"]
        }
        Device::Vchiq => {
            VchiqSubsystem::attach(&platform).map_err(|e| e.to_string())?;
            &["vchiq"]
        }
    };
    TeeKernel::install(&platform, secure).map_err(|e| e.to_string())?;
    let mut replayer = Replayer::with_config(
        SecureIo::new(platform.bus.clone()),
        ReplayConfig { mode: ReplayMode::Compiled, ..ReplayConfig::default() },
    );
    let t = Instant::now();
    let driverlet = Driverlet::from_binary(bundle).map_err(|e| e.to_string())?;
    replayer.load_driverlet(driverlet, DEV_KEY).map_err(|e| e.to_string())?;
    Ok((platform, replayer, t.elapsed().as_secs_f64() * 1e3))
}

impl RefReader {
    /// A reference reader for `device`; returns it with the milliseconds
    /// the bundle load took.
    pub fn new(device: Device, bundle: &[u8]) -> Result<(Self, f64), String> {
        let (_platform, replayer, load_ms) = bare_replayer(device, bundle)?;
        Ok((RefReader { replayer, device }, load_ms))
    }

    /// Read `blkcnt` blocks at `blkid` in recorded 32-block (and smaller)
    /// pieces.
    pub fn read(&mut self, blkid: u32, blkcnt: u32) -> Result<Vec<u8>, String> {
        let mut out = vec![0u8; blkcnt as usize * BLOCK];
        let mut done = 0u32;
        while done < blkcnt {
            let part = [32u32, 8, 1].into_iter().find(|g| *g <= blkcnt - done).unwrap_or(1);
            let buf = &mut out[done as usize * BLOCK..(done + part) as usize * BLOCK];
            match self.device {
                Device::Mmc => replay_mmc(&mut self.replayer, 0x1, part, blkid + done, 0, buf),
                Device::Usb => replay_usb(&mut self.replayer, 0x1, part, blkid + done, 0, buf),
                Device::Vchiq => return Err("the camera has no blocks".into()),
            }
            .map_err(|e| e.to_string())?;
            done += part;
        }
        Ok(out)
    }

    /// Capture one frame at `resolution`.
    pub fn capture(&mut self, resolution: u32) -> Result<Vec<u8>, String> {
        let mut buf = vec![0u8; 2 << 20];
        let size =
            replay_cam(&mut self.replayer, 1, resolution, &mut buf).map_err(|e| e.to_string())?;
        buf.truncate(size as usize);
        Ok(buf)
    }
}

/// Per-layer counters of one finished pass, from the service's public
/// statistics, lane status and SMC counters.
pub fn serve_counts(service: &DriverletService, completed: u64) -> BTreeMap<&'static str, f64> {
    let stats = service.stats();
    let lanes = service.lane_status();
    let per = |n: u64| n as f64 / completed.max(1) as f64;
    let block_lanes: Vec<_> = lanes.iter().filter(|l| l.device != Device::Vchiq).collect();
    let busy: u64 = block_lanes.iter().map(|l| l.busy_ns).sum();
    let alive: u64 = block_lanes.iter().map(|l| l.now_ns).sum();
    let mut c = BTreeMap::new();
    c.insert("tee.smc_doorbell_per_req", per(service.smc_doorbells()));
    c.insert("tee.smc_legacy_per_req", per(service.smc_legacy()));
    c.insert("route.fanouts", stats.stripe_fanouts as f64);
    c.insert("route.spills", stats.route_spills as f64);
    c.insert("admit.refused", (stats.rejected + stats.throttled) as f64);
    c.insert("ring.cq_overflows", stats.cq_overflows as f64);
    c.insert("ring.doorbell_batch", stats.mean_doorbell_batch());
    c.insert("coalesce.req_per_replay", stats.coalescing_ratio());
    c.insert("coalesce.holds", stats.holds as f64);
    c.insert("coalesce.early_unplugs", stats.early_unplugs as f64);
    c.insert("lane.busy_frac", busy as f64 / alive.max(1) as f64);
    c.insert("lane.queue_high_water", lanes.iter().map(|l| l.high_water).max().unwrap_or(0) as f64);
    c
}

/// Finish a pass of a workload that starts every pass on a fresh service:
/// a set-up error fails the pass, and virtual results that differ from the
/// first pass's are a mismatch, since the same inputs must give the same
/// virtual timeline.
pub fn repeat_check(pass: Result<Pass, String>, first: &mut Option<Virt>) -> Pass {
    let mut pass = pass.unwrap_or_else(|e| {
        let mut pass = Pass { attempted: 1, failed: 1, ..Pass::default() };
        pass.mismatch(|| e);
        pass
    });
    let first = first.get_or_insert_with(|| pass.virt.clone());
    if pass.virt != *first {
        let (now, then) = (pass.virt.mean_us, first.mean_us);
        pass.mismatch(|| {
            format!("virtual results differ between passes: mean {now} us vs {then} us")
        });
    }
    pass
}
