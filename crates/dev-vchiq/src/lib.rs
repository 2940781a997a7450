//! # dlt-dev-vchiq — VC4 multimedia accelerator with VCHIQ message queue
//!
//! Substrate for the paper's camera driverlet case study (§7.3). The VC4
//! accelerator owns the CSI camera; the ARM cores talk to it almost entirely
//! through a shared-memory message queue (VCHIQ) plus three registers: a
//! mailbox register that publishes the queue's base address and a pair of
//! doorbells (§7.3.3). The MMAL camera service rides on top of VCHIQ.
//!
//! Model inventory:
//!
//! * [`queue`] — the slot-based shared-memory queue layout (slot 0 metadata,
//!   a CPU→VC4 slot area and a VC4→CPU slot area) used by both the device
//!   model and the gold driver.
//! * [`msg`] — MMAL-style message encoding: component create, port format
//!   (resolution), port enable, buffer-from-host (capture request) and
//!   buffer-to-host (capture completion), plus the camera resolutions and
//!   their frame sizes.
//! * [`vc4::Vc4Vchiq`] — the accelerator device model: parses messages on the
//!   CPU→VC4 doorbell, produces synthetic JPEG frames into the host-supplied
//!   page list after a per-resolution exposure+ISP latency, replies on the
//!   VC4→CPU slot area and raises the VCHIQ interrupt.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod msg;
pub mod queue;
pub mod vc4;

pub use msg::{CameraResolution, MmalMessage, MsgType};
pub use vc4::Vc4Vchiq;

/// Physical base address of the VCHIQ doorbell/mailbox register window.
pub const VCHIQ_BASE: u64 = 0x3f00_b800;
/// Size of the register window.
pub const VCHIQ_LEN: u64 = 0x100;

/// Register offsets inside the window (the paper's three registers).
pub mod regs {
    /// Mailbox write: the CPU publishes the queue base address here
    /// (`MBOX_WRITE = queue & !0x3fff`, Table 6).
    pub const MBOX_WRITE: u64 = 0x00;
    /// Doorbell 0: VC4 -> CPU notification (read to see, write 1 to ack).
    pub const BELL0: u64 = 0x40;
    /// Doorbell 2: CPU -> VC4 notification (write 1 to ring).
    pub const BELL2: u64 = 0x48;
    /// Firmware version (read-only, not used by templates).
    pub const VERSION: u64 = 0x50;

    /// Register names for the Table 7 analysis.
    pub const VCHIQ_REGISTERS: &[(u64, &str)] = &[
        (MBOX_WRITE, "MBOX_WRITE"),
        (BELL0, "BELL0"),
        (BELL2, "BELL2"),
        (VERSION, "VCHIQ_VERSION"),
    ];
}

use dlt_hw::Platform;

/// The VC4/VCHIQ path wired onto a platform bus. Reach the accelerator with
/// `platform.bus.lock().device::<Vc4Vchiq>()`.
pub struct VchiqSubsystem;

impl VchiqSubsystem {
    /// Build the accelerator and attach it to the platform's bus.
    pub fn attach(platform: &Platform) -> dlt_hw::HwResult<Self> {
        platform.attach(Box::new(Vc4Vchiq::new(platform.cost())))?;
        Ok(VchiqSubsystem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsystem_attaches() {
        let p = Platform::new();
        VchiqSubsystem::attach(&p).unwrap();
        assert!(p.bus.lock().device_names().contains(&"vchiq"));
    }

    #[test]
    fn register_window_has_the_three_paper_registers() {
        assert_eq!(regs::VCHIQ_REGISTERS.len(), 4);
        assert!(regs::VCHIQ_REGISTERS.iter().any(|(_, n)| *n == "MBOX_WRITE"));
        assert!(regs::VCHIQ_REGISTERS.iter().any(|(_, n)| *n == "BELL0"));
        assert!(regs::VCHIQ_REGISTERS.iter().any(|(_, n)| *n == "BELL2"));
    }
}
