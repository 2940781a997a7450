//! # dlt-hw — hardware substrate for the driverlet reproduction
//!
//! This crate models the SoC-level hardware that the paper's record/replay
//! machinery sits on top of:
//!
//! * a [`clock::VirtualClock`] with a calibrated [`cost::CostModel`] so that
//!   every experiment runs in deterministic virtual time,
//! * a flat [`mem::PhysMem`] physical memory used for DMA descriptors, data
//!   pages and shared-memory message queues,
//! * an [`irq::IrqController`] with per-line assertion deadlines,
//! * the [`device::MmioDevice`] trait implemented by every device simulator
//!   (MMC controller, USB host controller, VC4/VCHIQ accelerator), and
//! * a [`bus::SystemBus`] that maps devices into the physical address space,
//!   charges access costs, and enforces secure-world-only assignment the way
//!   a TZASC does on a real TrustZone SoC, and
//! * a [`block::BlockStore`], the sparse medium behind the SD card and the
//!   USB disk.
//!
//! Everything is single-threaded and deterministic: devices make progress when
//! they are accessed, ticked, or when the bus advances virtual time while a
//! driver polls or waits for an interrupt. This mirrors the paper's system
//! model (§3.1): devices are reactive FSMs that never initiate requests on
//! their own.
//!
//! Each simulated platform has one owner. The [`SystemBus`] holds the
//! clock, memory, interrupt controller and devices by value and lends a
//! [`device::DeviceCtx`] (current time, memory, interrupt controller) to a
//! device on every access, tick and reset, so no device holds a handle to
//! anything. The only lock is around the bus itself ([`Shared`]), because a
//! [`Platform`], the TEE's secure services and a gold driver's IO layer all
//! reach the same bus. A replay takes it once per invocation and holds the
//! [`BusGuard`] while it runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod bus;
pub mod clock;
pub mod cost;
pub mod device;
pub mod error;
pub mod irq;
pub mod mem;

use std::sync::Arc;

/// The handle through which a [`Platform`], its secure services and a gold
/// driver's IO layer share one [`SystemBus`]. The platform is driven by one
/// thread; the mutex keeps the handle `Send` so a platform can move to the
/// thread that drives it.
pub type Shared<T> = Arc<parking_lot::Mutex<T>>;

/// A held lock on a [`Shared`] bus. The lock is a spinlock: while a guard is
/// alive, the same thread must not lock the bus again.
pub type BusGuard<'a> = parking_lot::MutexGuard<'a, SystemBus>;

pub use block::BlockStore;
pub use bus::{Platform, SystemBus, World};
pub use clock::{ClockCell, VirtualClock};
pub use cost::CostModel;
pub use device::{DeviceCtx, MmioDevice, Window};
pub use error::HwError;
pub use irq::IrqController;
pub use mem::{DmaRegion, PhysMem};

/// Result alias used throughout the hardware substrate.
pub type HwResult<T> = Result<T, HwError>;
