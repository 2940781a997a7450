//! The trustlet-facing driverlet interfaces (`driverlet.h` in Figure 8).

use crate::replayer::{ReplayError, ReplayOutcome, Replayer};

/// MMC block size in bytes.
pub const MMC_BLOCK_SIZE: usize = 512;

fn block_args(rw: u64, blkcnt: u32, blkid: u32, flag: u64) -> [(&'static str, u64); 4] {
    [("rw", rw), ("blkcnt", u64::from(blkcnt)), ("blkid", u64::from(blkid)), ("flag", flag)]
}

/// `replay_mmc(rw, blkcnt, blkid, flag, buf)` — read or write `blkcnt`
/// 512-byte blocks starting at `blkid` on the secure SD card.
///
/// `rw` uses the paper's encoding: `0x1` = read, `0x10` = write.
///
/// # Example
///
/// Record a driverlet in the normal world, hand the controller to the TEE,
/// then round-trip a block through the secure SD card:
///
/// ```
/// use dlt_core::{replay_mmc, Replayer};
/// use dlt_dev_mmc::MmcSubsystem;
/// use dlt_hw::Platform;
/// use dlt_recorder::campaign::{record_mmc_driverlet_subset, DEV_KEY};
/// use dlt_tee::{SecureIo, TeeKernel};
///
/// let driverlet = record_mmc_driverlet_subset(&[1]).expect("record campaign");
///
/// let platform = Platform::new();
/// MmcSubsystem::attach(&platform).expect("attach MMC");
/// TeeKernel::install(&platform, &["sdhost", "dma"]).expect("install TEE");
/// let mut replayer = Replayer::new(SecureIo::new(platform.bus.clone()));
/// replayer.load_driverlet(driverlet, DEV_KEY).expect("verify + load");
///
/// let mut block = vec![0u8; 512];
/// block[..5].copy_from_slice(b"hello");
/// replay_mmc(&mut replayer, 0x10, 1, 42, 0, &mut block).expect("secure write");
///
/// let mut back = vec![0u8; 512];
/// replay_mmc(&mut replayer, 0x1, 1, 42, 0, &mut back).expect("secure read");
/// assert_eq!(&back[..5], b"hello");
/// ```
pub fn replay_mmc(
    replayer: &mut Replayer,
    rw: u64,
    blkcnt: u32,
    blkid: u32,
    flag: u64,
    buf: &mut [u8],
) -> Result<ReplayOutcome, ReplayError> {
    if buf.len() < blkcnt as usize * MMC_BLOCK_SIZE {
        return Err(ReplayError::Invalid("buffer smaller than the requested blocks".into()));
    }
    replayer.invoke_args("replay_mmc", &block_args(rw, blkcnt, blkid, flag), buf)
}

/// `replay_usb(rw, blkcnt, blkid, flag, buf)` — read or write `blkcnt`
/// 512-byte blocks on the secure USB mass-storage stick.
///
/// # Example
///
/// Same record-then-replay flow as [`replay_mmc`], against the DWC2 host
/// controller and its bulk-only-transport flash drive:
///
/// ```
/// use dlt_core::{replay_usb, Replayer};
/// use dlt_dev_usb::UsbSubsystem;
/// use dlt_hw::Platform;
/// use dlt_recorder::campaign::{record_usb_driverlet_subset, DEV_KEY};
/// use dlt_tee::{SecureIo, TeeKernel};
///
/// let driverlet = record_usb_driverlet_subset(&[8]).expect("record campaign");
///
/// let platform = Platform::new();
/// UsbSubsystem::attach(&platform).expect("attach USB");
/// TeeKernel::install(&platform, &["dwc2"]).expect("install TEE");
/// let mut replayer = Replayer::new(SecureIo::new(platform.bus.clone()));
/// replayer.load_driverlet(driverlet, DEV_KEY).expect("verify + load");
///
/// let mut buf = vec![0xabu8; 8 * 512];
/// replay_usb(&mut replayer, 0x10, 8, 2000, 0, &mut buf).expect("secure write");
/// let mut back = vec![0u8; 8 * 512];
/// replay_usb(&mut replayer, 0x1, 8, 2000, 0, &mut back).expect("secure read");
/// assert_eq!(back, buf);
/// ```
pub fn replay_usb(
    replayer: &mut Replayer,
    rw: u64,
    blkcnt: u32,
    blkid: u32,
    flag: u64,
    buf: &mut [u8],
) -> Result<ReplayOutcome, ReplayError> {
    if buf.len() < blkcnt as usize * MMC_BLOCK_SIZE {
        return Err(ReplayError::Invalid("buffer smaller than the requested blocks".into()));
    }
    replayer.invoke_args("replay_usb", &block_args(rw, blkcnt, blkid, flag), buf)
}

/// Block-granular secure IO, independent of who executes the replay.
///
/// Trustlets written against this trait hold *a handle* rather than a
/// [`Replayer`]: a bare replayer implements it directly (exclusive
/// ownership, as in the paper's single-trustlet deployments), and
/// `dlt-serve`'s session handles implement it by submitting into the
/// shared per-device scheduler — so the same trustlet code runs standalone
/// or multiplexed without changes.
pub trait SecureBlockIo {
    /// Read `blkcnt` 512-byte blocks starting at `blkid` into `buf`.
    fn read_blocks(&mut self, blkid: u32, blkcnt: u32, buf: &mut [u8]) -> Result<(), ReplayError>;
    /// Write whole 512-byte blocks from `data` starting at `blkid`.
    fn write_blocks(&mut self, blkid: u32, data: &[u8]) -> Result<(), ReplayError>;
}

/// A bare replayer serves block IO through whichever block entry it has
/// loaded (`replay_mmc` or `replay_usb`) — the paper's exclusive-ownership
/// model.
impl SecureBlockIo for Replayer {
    fn read_blocks(&mut self, blkid: u32, blkcnt: u32, buf: &mut [u8]) -> Result<(), ReplayError> {
        let entry = self
            .entries()
            .into_iter()
            .find(|e| e == "replay_mmc" || e == "replay_usb")
            .ok_or_else(|| ReplayError::UnknownEntry("no block driverlet loaded".into()))?;
        if buf.len() < blkcnt as usize * MMC_BLOCK_SIZE {
            return Err(ReplayError::Invalid("buffer smaller than the requested blocks".into()));
        }
        self.invoke_args(&entry, &block_args(0x1, blkcnt, blkid, 0), buf).map(|_| ())
    }

    fn write_blocks(&mut self, blkid: u32, data: &[u8]) -> Result<(), ReplayError> {
        if data.is_empty() || !data.len().is_multiple_of(MMC_BLOCK_SIZE) {
            return Err(ReplayError::Invalid(
                "write payload must be a whole number of blocks".into(),
            ));
        }
        let entry = self
            .entries()
            .into_iter()
            .find(|e| e == "replay_mmc" || e == "replay_usb")
            .ok_or_else(|| ReplayError::UnknownEntry("no block driverlet loaded".into()))?;
        let blkcnt = (data.len() / MMC_BLOCK_SIZE) as u32;
        let mut scratch = data.to_vec();
        self.invoke_args(&entry, &block_args(0x10, blkcnt, blkid, 0), &mut scratch).map(|_| ())
    }
}

/// `replay_cam(frames, resolution, buf, buf_size, &size)` — capture `frames`
/// images at `resolution` (720, 1080 or 1440); the last frame lands in `buf`.
///
/// Returns the image size in bytes (the paper's `size` out-parameter).
///
/// # Example
///
/// Capture one 720p frame through the VCHIQ driverlet; the returned size is
/// the device-assigned image length the template captured at record time:
///
/// ```
/// use dlt_core::{replay_cam, Replayer};
/// use dlt_dev_vchiq::VchiqSubsystem;
/// use dlt_hw::Platform;
/// use dlt_recorder::campaign::{record_camera_driverlet_subset, DEV_KEY};
/// use dlt_tee::{SecureIo, TeeKernel};
///
/// let driverlet = record_camera_driverlet_subset(&[1]).expect("record campaign");
///
/// let platform = Platform::new();
/// VchiqSubsystem::attach(&platform).expect("attach VCHIQ");
/// TeeKernel::install(&platform, &["vchiq"]).expect("install TEE");
/// let mut replayer = Replayer::new(SecureIo::new(platform.bus.clone()));
/// replayer.load_driverlet(driverlet, DEV_KEY).expect("verify + load");
///
/// let mut buf = vec![0u8; 2 << 20];
/// let img = replay_cam(&mut replayer, 1, 720, &mut buf).expect("secure capture");
/// assert!(img > 0);
/// assert!(dlt_dev_vchiq::msg::is_valid_jpeg(&buf[..img as usize]));
/// ```
pub fn replay_cam(
    replayer: &mut Replayer,
    frames: u32,
    resolution: u32,
    buf: &mut [u8],
) -> Result<u32, ReplayError> {
    let args = [
        ("frames", u64::from(frames)),
        ("resolution", u64::from(resolution)),
        ("buf_size", buf.len() as u64),
    ];
    let outcome = replayer.invoke_args("replay_cam", &args, buf)?;
    // The image size is the device-assigned value the template captured; the
    // copy into the trustlet buffer is exactly that long.
    let img = outcome
        .captured
        .values()
        .copied()
        .filter(|v| *v > 0 && *v <= buf.len() as u64)
        .max()
        .unwrap_or(outcome.payload_bytes);
    Ok(img as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_tee::SecureIo;

    #[test]
    fn buffer_size_validation_happens_before_selection() {
        let platform = dlt_hw::Platform::new();
        let io = SecureIo::new(platform.bus.clone());
        let mut r = Replayer::new(io);
        let mut tiny = [0u8; 16];
        assert!(matches!(
            replay_mmc(&mut r, 0x1, 8, 0, 0, &mut tiny),
            Err(ReplayError::Invalid(_))
        ));
        assert!(matches!(
            replay_usb(&mut r, 0x1, 8, 0, 0, &mut tiny),
            Err(ReplayError::Invalid(_))
        ));
    }

    #[test]
    fn ragged_and_empty_block_writes_are_rejected_and_leave_the_medium_alone() {
        use dlt_recorder::campaign::{record_mmc_driverlet_subset, DEV_KEY};
        let platform = dlt_hw::Platform::new();
        dlt_dev_mmc::MmcSubsystem::attach(&platform).unwrap();
        dlt_tee::TeeKernel::install(&platform, &["sdhost", "dma"]).unwrap();
        let mut r = Replayer::new(SecureIo::new(platform.bus.clone()));
        r.load_driverlet(record_mmc_driverlet_subset(&[1]).unwrap(), DEV_KEY).unwrap();
        let old = [0xaau8; MMC_BLOCK_SIZE];
        r.write_blocks(42, &old).unwrap();
        let ragged = r.write_blocks(42, &[0x55u8; 700]);
        let empty = r.write_blocks(42, &[]);
        let mut back = [0u8; MMC_BLOCK_SIZE];
        r.read_blocks(42, 1, &mut back).unwrap();
        assert!(
            back == old,
            "a rejected write reached the medium: block 42 is {:02x?}..",
            &back[..4]
        );
        assert!(matches!(ragged, Err(ReplayError::Invalid(_))), "700 bytes: {ragged:?}");
        assert!(matches!(empty, Err(ReplayError::Invalid(_))), "0 bytes: {empty:?}");
    }
}
