//! The MMC gold-driver stack.
//!
//! Mirrors the host-controller half of the Linux MMC framework the paper
//! describes (§7.1.1): [`host::MmcHost`] knows the SDHOST register
//! programming model. The block layer above it, with the request merging and
//! write-back cache that make the *native* driver fast and asynchronous and
//! that the driverlet deliberately forgoes (§8.3.2), is
//! `dlt_workloads::block::NativeDev`.

pub mod host;

pub use host::{HostStats, MmcHost};
