//! USB mass-storage class driver: bulk-only transport over the HCD.
//!
//! Reproduces the behaviours the paper observed in the full Linux stack
//! (§7.2.3): the CBW/CSW descriptors are the primary driver/device
//! conversation, the driver picks READ(10)/WRITE(10) among the five SCSI
//! read/write variants, and the CBW tag is a monotonically increasing serial
//! number.

use dlt_dev_usb::device::{
    BULK_IN_EP, BULK_OUT_EP, CBW_LEN, CBW_SIGNATURE, CSW_LEN, CSW_SIGNATURE,
};
use dlt_dev_usb::scsi::{opcode, Cdb};
use dlt_dev_usb::USB_BLOCK_SIZE;
use dlt_hw::DmaRegion;

use crate::kenv::{DriverError, HwIo, IoFlags, Rw};
use crate::usb::hcd::{EpType, UsbHcd};

/// Mass-storage statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// SCSI commands issued.
    pub scsi_commands: u64,
    /// CSW status failures observed.
    pub csw_failures: u64,
}

/// The mass-storage class driver.
pub struct UsbStorageDriver<I: HwIo> {
    hcd: UsbHcd<I>,
    tag: u32,
    capacity_blocks: u64,
    initialized: bool,
    stats: StorageStats,
}

impl<I: HwIo> UsbStorageDriver<I> {
    /// Wrap an HCD.
    pub fn new(hcd: UsbHcd<I>) -> Self {
        UsbStorageDriver {
            hcd,
            tag: 1,
            capacity_blocks: 0,
            initialized: false,
            stats: StorageStats::default(),
        }
    }

    /// Access the HCD (tests).
    pub fn hcd_mut(&mut self) -> &mut UsbHcd<I> {
        &mut self.hcd
    }

    /// Statistics.
    pub fn stats(&self) -> StorageStats {
        self.stats
    }

    /// Device capacity in 512-byte blocks (valid after [`Self::init`]).
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// Whether initialisation completed.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Bring up the controller, enumerate the device and read its capacity.
    pub fn init(&mut self) -> Result<(), DriverError> {
        self.hcd.core_init()?;
        self.hcd.port_init()?;
        self.hcd.enumerate()?;
        // Class request: Get Max LUN.
        let _ = self.hcd.control([0xa1, 0xfe, 0, 0, 0, 0, 1, 0], 1)?;
        // TEST UNIT READY.
        self.scsi_no_data(&[opcode::TEST_UNIT_READY, 0, 0, 0, 0, 0])?;
        // READ CAPACITY(10).
        let cap = self.scsi_data_in(&[opcode::READ_CAPACITY_10, 0, 0, 0, 0, 0, 0, 0, 0, 0], 8)?;
        let last = u32::from_be_bytes([cap[0], cap[1], cap[2], cap[3]]);
        self.capacity_blocks = u64::from(last) + 1;
        self.initialized = true;
        Ok(())
    }

    fn next_tag(&mut self) -> u32 {
        let t = self.tag;
        self.tag = self.tag.wrapping_add(1);
        t
    }

    /// Write the 31-byte CBW into a DMA region word by word (the recorded
    /// shared-memory output events of a USB template).
    fn build_cbw(&mut self, region: DmaRegion, tag: u32, data_len: u32, dir_in: bool, cdb: &[u8]) {
        self.hcd.io_mut().shm_write32(region, 0, CBW_SIGNATURE);
        self.hcd.io_mut().shm_write32(region, 4, tag);
        self.hcd.io_mut().shm_write32(region, 8, data_len);
        let flags_lun_len =
            u32::from(if dir_in { 0x80u8 } else { 0 }) | (u32::from(cdb.len() as u8) << 16);
        self.hcd.io_mut().shm_write32(region, 12, flags_lun_len);
        // CDB bytes, packed little-endian into words 4..8.
        let mut padded = [0u8; 16];
        padded[..cdb.len().min(16)].copy_from_slice(&cdb[..cdb.len().min(16)]);
        for w in 0..4 {
            let word = u32::from_le_bytes([
                padded[w * 4],
                padded[w * 4 + 1],
                padded[w * 4 + 2],
                padded[w * 4 + 3],
            ]);
            self.hcd.io_mut().shm_write32(region, 16 + (w as u64) * 4, word);
        }
    }

    /// Check the CSW: signature, echoed tag, status byte.
    fn check_csw(&mut self, region: DmaRegion, expected_tag: u32) -> Result<(), DriverError> {
        let sig = self.hcd.io_mut().shm_read32(region, 0);
        let tag = self.hcd.io_mut().shm_read32(region, 4);
        let _residue = self.hcd.io_mut().shm_read32(region, 8);
        let status = self.hcd.io_mut().shm_read32(region, 12) & 0xff;
        if sig != CSW_SIGNATURE || tag != expected_tag {
            self.stats.csw_failures += 1;
            return Err(DriverError::Device(format!("bad CSW (sig={sig:#x}, tag={tag})")));
        }
        if status != 0 {
            self.stats.csw_failures += 1;
            return Err(DriverError::Device(format!("CSW status {status}")));
        }
        Ok(())
    }

    fn scsi_transaction(
        &mut self,
        cdb: &[u8],
        dir_in: bool,
        data_len: usize,
        data_out: Option<&[u8]>,
    ) -> Result<Vec<u8>, DriverError> {
        self.stats.scsi_commands += 1;
        let tag = self.next_tag();
        let cbw_buf = self.hcd.io_mut().dma_alloc(CBW_LEN + 1)?;
        let csw_buf = self.hcd.io_mut().dma_alloc(CSW_LEN + 3)?;
        // Clear the status area so stale bytes from earlier transactions can
        // never be mistaken for a CSW (the device only writes 13 bytes).
        for off in [0u64, 4, 8, 12] {
            self.hcd.io_mut().shm_write32(csw_buf, off, 0);
        }
        self.build_cbw(cbw_buf, tag, data_len as u32, dir_in, cdb);
        self.hcd.submit(EpType::Bulk, BULK_OUT_EP, false, cbw_buf, CBW_LEN, false)?;

        let mut data = Vec::new();
        if data_len > 0 {
            let data_buf = self.hcd.io_mut().dma_alloc(data_len)?;
            if dir_in {
                self.hcd.submit(EpType::Bulk, BULK_IN_EP, true, data_buf, data_len, false)?;
                data = vec![0u8; data_len];
                self.hcd.io_mut().copy_from_dma(data_buf, 0, &mut data);
            } else {
                self.hcd.io_mut().copy_to_dma(data_buf, 0, data_out.unwrap_or(&[]));
                self.hcd.submit(EpType::Bulk, BULK_OUT_EP, false, data_buf, data_len, false)?;
            }
        }

        self.hcd.submit(EpType::Bulk, BULK_IN_EP, true, csw_buf, CSW_LEN, false)?;
        self.check_csw(csw_buf, tag)?;
        self.hcd.io_mut().dma_release_all();
        Ok(data)
    }

    fn scsi_no_data(&mut self, cdb: &[u8]) -> Result<(), DriverError> {
        self.scsi_transaction(cdb, false, 0, None).map(|_| ())
    }

    fn scsi_data_in(&mut self, cdb: &[u8], len: usize) -> Result<Vec<u8>, DriverError> {
        self.scsi_transaction(cdb, true, len, None)
    }

    /// The record entry: one block IO job, mirroring the MMC signature.
    pub fn do_io(
        &mut self,
        rw: Rw,
        blkcnt: u32,
        blkid: u32,
        _flags: IoFlags,
        buf: &mut [u8],
    ) -> Result<(), DriverError> {
        if !self.initialized {
            return Err(DriverError::Invalid("storage driver not initialised".into()));
        }
        if blkcnt == 0 || blkcnt > 1024 {
            return Err(DriverError::Invalid(format!("unsupported block count {blkcnt}")));
        }
        let total = blkcnt as usize * USB_BLOCK_SIZE;
        if buf.len() < total {
            return Err(DriverError::Invalid("buffer smaller than the request".into()));
        }
        self.hcd.prepare_request();
        // The driver selects READ(10)/WRITE(10): shortest variant that can
        // encode the LBA range of this stick (§7.2.3).
        let cdb = Cdb::encode_rw10(matches!(rw, Rw::Write), blkid, blkcnt as u16);
        match rw {
            Rw::Read => {
                let data = self.scsi_transaction(&cdb, true, total, None)?;
                buf[..total].copy_from_slice(&data);
            }
            Rw::Write => {
                self.scsi_transaction(&cdb, false, total, Some(&buf[..total]))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kenv::BusIo;
    use dlt_dev_usb::{UsbHostController, UsbSubsystem};
    use dlt_hw::Platform;

    fn rig() -> (Platform, UsbStorageDriver<BusIo>) {
        let p = Platform::new();
        UsbSubsystem::attach(&p).unwrap();
        let io = BusIo::normal_world(p.bus.clone(), DmaRegion::new(0x200_0000, 0x100_0000));
        let mut drv = UsbStorageDriver::new(UsbHcd::new(io));
        drv.init().unwrap();
        (p, drv)
    }

    /// Run `f` on the platform's USB host controller.
    fn hostctrl<R>(p: &Platform, f: impl FnOnce(&mut UsbHostController) -> R) -> R {
        f(p.bus.lock().device::<UsbHostController>().unwrap())
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(13).wrapping_add(seed)).collect()
    }

    #[test]
    fn init_reads_capacity() {
        let (_p, drv) = rig();
        assert!(drv.is_initialized());
        assert_eq!(drv.capacity_blocks(), dlt_dev_usb::USB_DISK_BLOCKS);
    }

    #[test]
    fn write_read_round_trip_various_sizes() {
        let (p, mut drv) = rig();
        for &blkcnt in &[1u32, 8, 32, 128] {
            let total = blkcnt as usize * USB_BLOCK_SIZE;
            let payload = pattern(total, blkcnt as u8);
            let mut buf = payload.clone();
            drv.do_io(Rw::Write, blkcnt, 64, IoFlags::none(), &mut buf).unwrap();
            let mut back = vec![0u8; total];
            drv.do_io(Rw::Read, blkcnt, 64, IoFlags::none(), &mut back).unwrap();
            assert_eq!(back, payload, "blkcnt={blkcnt}");
        }
        assert_eq!(hostctrl(&p, |hc| hc.device().disk().peek_block(64))[0], pattern(1, 128)[0]);
    }

    #[test]
    fn tags_are_monotonic_serial_numbers() {
        let (_p, mut drv) = rig();
        let before = drv.tag;
        let mut buf = vec![0u8; USB_BLOCK_SIZE];
        drv.do_io(Rw::Read, 1, 0, IoFlags::none(), &mut buf).unwrap();
        drv.do_io(Rw::Read, 1, 0, IoFlags::none(), &mut buf).unwrap();
        assert_eq!(drv.tag, before + 2);
    }

    #[test]
    fn unplug_mid_io_fails_cleanly() {
        let (p, mut drv) = rig();
        hostctrl(&p, |hc| hc.unplug());
        let mut buf = vec![0u8; USB_BLOCK_SIZE];
        let err = drv.do_io(Rw::Read, 1, 0, IoFlags::none(), &mut buf).unwrap_err();
        assert!(matches!(
            err,
            DriverError::NoMedium | DriverError::Device(_) | DriverError::Timeout(_)
        ));
    }
}
