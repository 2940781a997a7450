//! Proof that a warm compiled replay on the real MMC and USB device models
//! does not allocate.
//!
//! `zero_alloc.rs` covers the replay engine over a stub device. This file
//! records the MMC and USB driverlets and counts allocations per warm replay
//! with the device models in the loop: the SD card and the USB disk keep
//! their blocks in place and lend them on reads, and the SDHOST read and
//! write paths move blocks between the card and its FIFO without a
//! temporary buffer. The USB bulk-only transport parses the CBW's command
//! into a fixed array, keeps the CSW in one, and stages the data phase and
//! each bulk OUT transfer in buffers it reuses across transfers.
//!
//! Warm MMC and USB reads and writes allocate nothing at 1, 8 and 32
//! blocks.
//!
//! This file holds a single `#[test]` so no sibling test thread can disturb
//! the allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dlt_core::{replay_mmc, replay_usb, ReplayError, ReplayOutcome, Replayer};
use dlt_dev_mmc::MmcSubsystem;
use dlt_dev_usb::UsbSubsystem;
use dlt_hw::Platform;
use dlt_recorder::campaign::{
    pattern_buf, record_mmc_driverlet_subset, record_usb_driverlet_subset, DEV_KEY,
};
use dlt_tee::{SecureIo, TeeKernel};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

const BLOCK_COUNTS: [u32; 3] = [1, 8, 32];

type Replay =
    fn(&mut Replayer, u64, u32, u32, u64, &mut [u8]) -> Result<ReplayOutcome, ReplayError>;

/// Allocations of one warm write and one warm read replay at each block
/// count, as `(blocks, write, read)`.
fn allocations_per_replay(replay: Replay, mut r: Replayer) -> Vec<(u32, u64, u64)> {
    let mut rows = Vec::new();
    for (i, n) in BLOCK_COUNTS.into_iter().enumerate() {
        let lba = 4_096 + 64 * i as u32;
        let mut data = pattern_buf(n as usize * 512, u64::from(n));
        let mut out = vec![0u8; data.len()];
        let mut count = |rw: u64, buf: &mut [u8]| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            replay(&mut r, rw, n, lba, 0, buf).unwrap();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        };
        // Warm twice: the first write allocates the blocks it lands on and
        // the first replays size the scratch arena and device buffers.
        for _ in 0..2 {
            count(0x10, &mut data);
            count(0x1, &mut out);
        }
        let write = count(0x10, &mut data);
        let read = count(0x1, &mut out);
        assert_eq!(out, data, "the read returns what the write stored");
        rows.push((n, write, read));
    }
    rows
}

fn replayer(platform: &Platform, secure: &[&str], bundle: dlt_template::Driverlet) -> Replayer {
    TeeKernel::install(platform, secure).unwrap();
    let mut r = Replayer::new(SecureIo::new(platform.bus.clone()));
    r.load_driverlet(bundle, DEV_KEY).unwrap();
    r
}

#[test]
fn warm_device_replays_do_not_allocate_per_block() {
    let mmc = Platform::new();
    MmcSubsystem::attach(&mmc).unwrap();
    let bundle = record_mmc_driverlet_subset(&BLOCK_COUNTS).unwrap();
    let rows = allocations_per_replay(replay_mmc, replayer(&mmc, &["sdhost", "dma"], bundle));
    for (n, write, read) in rows {
        assert_eq!((write, read), (0, 0), "MMC allocations at {n} blocks (write, read)");
    }

    let usb = Platform::new();
    UsbSubsystem::attach(&usb).unwrap();
    let bundle = record_usb_driverlet_subset(&BLOCK_COUNTS).unwrap();
    let rows = allocations_per_replay(replay_usb, replayer(&usb, &["dwc2"], bundle));
    for (n, write, read) in rows {
        assert_eq!((write, read), (0, 0), "USB allocations at {n} blocks (write, read)");
    }
}
