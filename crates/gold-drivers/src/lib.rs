//! # dlt-gold-drivers — full-featured ("gold") drivers for the simulated devices
//!
//! These are the drivers the paper assumes already exist in a commodity OS
//! (§3.1 "the gold driver"): feature-rich, performance-oriented, and far too
//! entangled with kernel services to port into a TEE. The record step
//! exercises them with concrete sample requests; the driverlets then reuse
//! their *interactions*, not their code.
//!
//! Structure:
//!
//! * [`kenv`] — the kernel-environment interface ([`kenv::HwIo`]) every gold
//!   driver uses for register access, shared-memory access, interrupts, DMA
//!   allocation, randomness, timestamps and delays. This is exactly the
//!   three-interface surface the recorder interposes on (§4.1:
//!   Program↔Driver, Environment↔Driver, Device↔Driver).
//! * [`mmc`] — the MMC stack: a SDHOST host-controller driver (card
//!   initialisation, command issue, PIO and DMA data paths, the last-3-words
//!   PIO quirk, periodic bus re-tuning).
//! * [`usb`] — the USB stack: a DWC2 host-controller driver (core init, port
//!   reset, enumeration via control transfers, bulk channel scheduling) and a
//!   mass-storage class driver (bulk-only transport, CBW/CSW, SCSI command
//!   selection).
//! * [`vchiq`] — the VCHIQ/MMAL stack: queue setup, message send/receive,
//!   camera component lifecycle and frame capture.
//! * [`stats`] — static effort metadata backing the Table 7/8 reproduction.
//!
//! The kernel block layer above the storage drivers (page cache, write-back
//! and request merging: the "native" and O_SYNC "native-sync" behaviour of
//! §8.3.1) is not a gold driver; `dlt_workloads::block::NativeDev` models it
//! on top of [`mmc::MmcHost`] and [`usb::UsbStorageDriver`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kenv;
pub mod mmc;
pub mod stats;
pub mod usb;
pub mod vchiq;

pub use kenv::{BusIo, DriverError, HwIo, IoFlags, Rw};
