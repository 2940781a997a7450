//! # dlt-dev-usb — DWC2-class USB host controller and mass-storage device
//!
//! Substrate for the paper's USB driverlet case study (§7.2). It models:
//!
//! * [`hostctrl::UsbHostController`] — a DWC2-style host controller: core
//!   registers (`GINTSTS`, `GAHBCFG`, `HPRT`, `HFNUM`, ...), one host
//!   transmission channel (the record campaign reserves the first channel),
//!   DMA-based IN/OUT transfers and interrupt generation.
//! * [`device::UsbMassStorage`] — a USB flash drive implementing the
//!   bulk-only transport (CBW/CSW descriptors) over a SCSI disk
//!   ([`scsi::ScsiDisk`]): INQUIRY, TEST UNIT READY, READ CAPACITY,
//!   READ(10)/WRITE(10), REQUEST SENSE and MODE SENSE.
//!
//! The paper's observations reproduced here: the driver/device conversation
//! is descriptor-centric (CBW/CSW live in DMA memory, not registers); the
//! `HFNUM` frame counter and the monotonically increasing CBW tag are
//! time-dependent inputs that are *not* state-changing; unplugging the stick
//! mid-transfer surfaces as an unexpected `GINTSTS` value (§8.2.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod hostctrl;
pub mod regs;
pub mod scsi;

pub use device::UsbMassStorage;
pub use hostctrl::UsbHostController;
pub use scsi::ScsiDisk;

/// Physical base address of the USB host controller register window.
pub const USB_BASE: u64 = 0x3f98_0000;
/// Size of the USB register window (the paper quotes a 64 KB range).
pub const USB_LEN: u64 = 0x1_0000;

/// Logical block size of the USB disk in bytes.
pub const USB_BLOCK_SIZE: usize = 512;
/// Number of logical blocks on the simulated stick (~8 GB, the paper's
/// templates cover "the whole 15M blocks of the USB storage").
pub const USB_DISK_BLOCKS: u64 = 15_728_640;
/// Flash-translation-layer page size: sub-page writes trigger the
/// read-modify-write behaviour the paper observed (§7.2.3).
pub const USB_FTL_PAGE: usize = 4096;

use dlt_hw::Platform;

/// The USB path wired onto a platform bus. Reach the host controller (the
/// mass-storage device plugs into its root port) with
/// `platform.bus.lock().device::<UsbHostController>()`.
pub struct UsbSubsystem;

impl UsbSubsystem {
    /// Build the host controller with an attached mass-storage device and
    /// attach it to the platform's bus.
    pub fn attach(platform: &Platform) -> dlt_hw::HwResult<Self> {
        let device = UsbMassStorage::new(ScsiDisk::new(USB_DISK_BLOCKS));
        platform.attach(Box::new(UsbHostController::new(device, platform.cost())))?;
        Ok(UsbSubsystem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsystem_attaches() {
        let p = Platform::new();
        UsbSubsystem::attach(&p).unwrap();
        let mut bus = p.bus.lock();
        assert!(bus.device_names().contains(&"dwc2"));
        let hostctrl = bus.device::<UsbHostController>().unwrap();
        assert!(hostctrl.device().disk().total_blocks() == USB_DISK_BLOCKS);
    }
}
