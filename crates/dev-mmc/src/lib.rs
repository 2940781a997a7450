//! # dlt-dev-mmc — SDHOST-class MMC controller, SD card and DMA engine models
//!
//! This crate is the substrate for the paper's MMC driverlet case study
//! (§7.1). It models the three hardware blocks the Raspberry Pi 3 MMC path
//! involves:
//!
//! * [`card::SdCard`] — the SD card itself: command set, card state machine,
//!   CID/CSD/OCR registers and a sparse block store, plus a `removed` switch
//!   for the paper's fault-injection experiment (§8.2.1, unplugging the
//!   medium mid-transfer).
//! * [`sdhost::SdHost`] — a BCM2835-SDHOST-style controller: command issue
//!   registers, response registers, a data FIFO, status/EDM registers,
//!   interrupt generation, and the SoC quirk the paper calls out (the DMA
//!   engine cannot move the last three words of a read transfer; the driver
//!   must fetch them from the data register by PIO).
//! * [`dma::DmaEngine`] — a control-block-chained system DMA engine used by
//!   the full driver for multi-block transfers (Figure 4's descriptor
//!   topology: one 4 KiB page and one descriptor per eight 512-byte blocks).
//!
//! [`MmcController`] owns the controller and the DMA engine and serves both
//! register windows on the bus, so the data FIFO they share has one owner.
//!
//! The device FSMs are strictly data-independent (the paper's design
//! prerequisite, §3.1): the state transition path depends only on the request
//! shape (read vs write, block count), never on block contents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod card;
pub mod dma;
pub mod fifo;
pub mod regs;
pub mod sdhost;

pub use card::SdCard;
pub use dma::DmaEngine;
pub use fifo::{FifoDir, FifoLink};
pub use sdhost::SdHost;

/// Physical base address of the SDHOST controller register window.
pub const SDHOST_BASE: u64 = 0x3f20_2000;
/// Size of the SDHOST register window.
pub const SDHOST_LEN: u64 = 0x100;
/// Physical base address of the system DMA engine (channel 15, the channel
/// the paper reserves for recording).
pub const DMA_BASE: u64 = 0x3f00_7f00;
/// Size of one DMA channel register window.
pub const DMA_LEN: u64 = 0x100;
/// Peripheral bus address of the SDHOST data FIFO as seen by the DMA engine.
pub const SDHOST_DATA_BUS_ADDR: u64 = SDHOST_BASE + regs::SDDATA;

/// Block size in bytes used throughout (standard SD block).
pub const BLOCK_SIZE: usize = 512;

/// Number of addressable blocks on the simulated card.
///
/// The paper's card exposes ~31 M blocks (a 16 GB class-10 card); the store
/// is sparse so the full range is addressable without allocating 16 GB.
pub const CARD_BLOCKS: u64 = 31_457_280;

use dlt_hw::device::{DeviceCtx, MmioDevice, Window};
use dlt_hw::irq::lines;
use dlt_hw::{CostModel, Platform};

/// The MMC path's one bus device: the SDHOST controller (with its card and
/// data FIFO) and the system DMA engine that drains and fills that FIFO. It
/// serves both register windows, so the FIFO has a single owner.
pub struct MmcController {
    /// The SDHOST controller and its card.
    pub sdhost: SdHost,
    /// The system DMA engine.
    pub dma: DmaEngine,
}

/// Index of the SDHOST window in [`MmcController`]'s windows.
const SDHOST_WINDOW: usize = 0;

const WINDOWS: &[Window] = &[
    Window { name: "sdhost", base: SDHOST_BASE, len: SDHOST_LEN, irq_line: Some(lines::MMC) },
    Window { name: "dma", base: DMA_BASE, len: DMA_LEN, irq_line: Some(lines::DMA) },
];

impl MmcController {
    /// A controller wrapping `card`, with an idle DMA engine.
    pub fn new(card: SdCard, cost: CostModel) -> Self {
        MmcController { dma: DmaEngine::new(cost.clone()), sdhost: SdHost::new(card, cost) }
    }
}

impl MmioDevice for MmcController {
    fn windows(&self) -> &'static [Window] {
        WINDOWS
    }

    fn read32(&mut self, window: usize, offset: u64, ctx: &mut DeviceCtx<'_>) -> u32 {
        match window {
            SDHOST_WINDOW => self.sdhost.read32(offset, ctx),
            _ => self.dma.read32(offset, &mut self.sdhost.fifo, ctx),
        }
    }

    fn write32(&mut self, window: usize, offset: u64, val: u32, ctx: &mut DeviceCtx<'_>) {
        match window {
            SDHOST_WINDOW => self.sdhost.write32(offset, val, ctx),
            _ => self.dma.write32(offset, val, &mut self.sdhost.fifo, ctx),
        }
    }

    fn tick(&mut self, ctx: &mut DeviceCtx<'_>) {
        self.sdhost.tick(ctx);
        self.dma.tick(&mut self.sdhost.fifo, ctx);
    }

    fn soft_reset(&mut self, window: usize, _ctx: &mut DeviceCtx<'_>) {
        match window {
            SDHOST_WINDOW => self.sdhost.soft_reset(),
            _ => self.dma.soft_reset(),
        }
    }

    fn next_deadline_ns(&self) -> Option<u64> {
        let dma = self.dma.next_deadline_ns(&self.sdhost.fifo);
        self.sdhost.next_deadline_ns().into_iter().chain(dma).min()
    }
}

/// The MMC path wired onto a platform bus. Reach the controller, its card
/// and the DMA engine with `platform.bus.lock().device::<MmcController>()`.
pub struct MmcSubsystem;

impl MmcSubsystem {
    /// Build the MMC controller, card and DMA engine and attach them to the
    /// platform's bus.
    pub fn attach(platform: &Platform) -> dlt_hw::HwResult<Self> {
        let controller = MmcController::new(SdCard::formatted(CARD_BLOCKS), platform.cost());
        platform.attach(Box::new(controller))?;
        Ok(MmcSubsystem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsystem_attaches_both_devices() {
        let p = Platform::new();
        MmcSubsystem::attach(&p).unwrap();
        let mut bus = p.bus.lock();
        let names = bus.device_names();
        assert!(names.contains(&"sdhost"));
        assert!(names.contains(&"dma"));
        let mmc = bus.device::<MmcController>().unwrap();
        assert!(mmc.sdhost.is_idle());
        assert!(mmc.dma.is_idle());
    }

    #[test]
    fn double_attach_fails_due_to_window_overlap() {
        let p = Platform::new();
        MmcSubsystem::attach(&p).unwrap();
        assert!(MmcSubsystem::attach(&p).is_err());
    }
}
