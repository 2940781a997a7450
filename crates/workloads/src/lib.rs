//! # dlt-workloads — benchmark workloads and measurement harnesses
//!
//! Everything the paper's evaluation (§8.3) runs on top of the drivers:
//!
//! * [`block`] — a block-device abstraction with three execution paths per
//!   storage device: **native** (full gold driver behind a write-back cache
//!   and the kernel block layer), **native-sync** (same, but every write
//!   waits for the medium), and **driverlet** (the in-TEE replayer, composing
//!   requests from the recorded granularities).
//! * [`microdb`] — a small page-based embedded database standing in for
//!   SQLite: keyed records in 4 KiB bucket pages over any [`block::BlockDev`].
//! * [`suite`] — the six SQLite-derived benchmarks of Table 9 (select3,
//!   delete, idxby, io, selectG, insert3) with the paper's read/write ratios,
//!   the per-benchmark IOPS harness behind Figure 5 and the Table 9
//!   template-invocation breakdown.
//! * [`camera`] — the Figure 6 capture-latency workloads (OneShot /
//!   ShortBurst / LongBurst at 720p/1080p/1440p).
//! * [`micro`] — the Figure 7 single-request latency microbenchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod camera;
pub mod micro;
pub mod microdb;
pub mod suite;

pub use block::{BlockDev, DriverletDev, NativeDev, StorageKind, StoragePath};
pub use microdb::MicroDb;
pub use suite::{BenchmarkResult, SqliteBenchmark};
