//! Block-device abstraction and the three execution paths of §8.3.1.

use std::collections::HashMap;

use dlt_core::{replay_mmc, replay_usb, Replayer};
use dlt_dev_mmc::MmcSubsystem;
use dlt_dev_usb::UsbSubsystem;
use dlt_gold_drivers::kenv::{BusIo, HwIo, IoFlags, Rw};
use dlt_gold_drivers::mmc::MmcHost;
use dlt_gold_drivers::usb::{UsbHcd, UsbStorageDriver};
use dlt_hw::{DmaRegion, Platform};
use dlt_recorder::campaign::{record_mmc_driverlet, record_usb_driverlet, DEV_KEY};
use dlt_tee::{SecureIo, TeeKernel};

/// Block size in bytes.
pub const BLOCK: usize = 512;
/// Block granularities the record campaigns cover (Table 3).
pub const GRANULARITIES: [u32; 5] = [256, 128, 32, 8, 1];

/// Which storage device a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// The MMC / SD card path.
    Mmc,
    /// The USB mass-storage path.
    Usb,
}

/// Which execution path serves the IO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoragePath {
    /// Full gold driver, asynchronous write-back behaviour ("native").
    Native,
    /// Full gold driver with O_SYNC semantics ("native-sync").
    NativeSync,
    /// The in-TEE driverlet replayer ("ours").
    Driverlet,
}

/// A block device a workload can talk to.
pub trait BlockDev {
    /// Read `blkcnt` blocks starting at `blkid`.
    fn read_blocks(&mut self, blkid: u32, blkcnt: u32, buf: &mut [u8]) -> Result<(), String>;
    /// Write whole blocks starting at `blkid`.
    fn write_blocks(&mut self, blkid: u32, data: &[u8]) -> Result<(), String>;
    /// Flush any deferred writes.
    fn flush(&mut self) -> Result<(), String>;
    /// Current virtual time (for IOPS/latency measurement).
    fn now_ns(&self) -> u64;
    /// Device operations per recorded granularity (Table 9 breakdown); only
    /// meaningful for the driverlet path.
    fn invocation_breakdown(&self) -> HashMap<u32, u64> {
        HashMap::new()
    }
}

// ---------------------------------------------------------------------------
// Native paths
// ---------------------------------------------------------------------------

enum NativeInner {
    Mmc(MmcHost<BusIo>),
    Usb(UsbStorageDriver<BusIo>),
}

/// Page-cache capacity of the modelled kernel in blocks (44 pages of 4 KiB).
/// Clean extents are evicted LRU-first once the cache fills. The driverlet
/// path never sees this cache: replayed IO always reaches the device, which
/// is one of the paper's driverlet overheads on read-heavy workloads
/// (§8.3.2).
pub const PAGE_CACHE_BLOCKS: usize = 352;

/// One cached extent: `blkid..blkid + data.len()/BLOCK`, clean or dirty.
struct CacheEntry {
    blkid: u32,
    data: Vec<u8>,
    dirty: bool,
}

impl CacheEntry {
    fn blocks(&self) -> u32 {
        (self.data.len() / BLOCK) as u32
    }
    fn end(&self) -> u32 {
        self.blkid + self.blocks()
    }
    fn covers(&self, blkid: u32, blkcnt: u32) -> bool {
        self.blkid <= blkid && blkid + blkcnt <= self.end()
    }
    fn overlaps(&self, blkid: u32, blkcnt: u32) -> bool {
        blkid < self.end() && self.blkid < blkid + blkcnt
    }
}

/// The native / native-sync path: the gold driver behind a (modelled) kernel
/// block layer.
///
/// The asynchronous path models the kernel's page cache (clean extents in
/// LRU order plus dirty write-back extents) and write-behind: device time
/// spent draining queued background writes overlaps with subsequent
/// CPU-side kernel work. The sync path is the durability baseline — O_SYNC
/// semantics with direct IO, so every request pays the full device round
/// trip and nothing is cached.
pub struct NativeDev {
    platform: Platform,
    inner: NativeInner,
    sync: bool,
    /// Kernel per-request cost and per-page scheduling cost, cached off the
    /// platform cost model at construction (they sit on every request).
    kernel_ns: u64,
    sched_page_ns: u64,
    /// Unified page cache in LRU order (least recently used first).
    cache: Vec<CacheEntry>,
    max_dirty_extents: usize,
    /// Queued background-write device time the CPU may still overlap with.
    overlap_credit_ns: u64,
}

impl NativeDev {
    /// Build a native MMC or USB stack on a fresh platform.
    pub fn new(kind: StorageKind, path: StoragePath) -> Self {
        assert!(path != StoragePath::Driverlet, "use DriverletDev for the driverlet path");
        let platform = Platform::new();
        let io =
            BusIo::normal_world(platform.bus.clone(), DmaRegion::new(0x0200_0000, 0x0100_0000));
        let inner = match kind {
            StorageKind::Mmc => {
                MmcSubsystem::attach(&platform).expect("attach mmc");
                let mut host = MmcHost::new(io);
                host.probe().expect("probe mmc");
                NativeInner::Mmc(host)
            }
            StorageKind::Usb => {
                UsbSubsystem::attach(&platform).expect("attach usb");
                let mut drv = UsbStorageDriver::new(UsbHcd::new(io));
                drv.init().expect("init usb");
                NativeInner::Usb(drv)
            }
        };
        let cost = platform.cost();
        let sched_page_ns = match kind {
            StorageKind::Mmc => cost.native_sched_per_page_ns,
            // The USB stack runs transfer scheduling for every data page
            // (§8.3.3 explains the large-write gap with this cost).
            StorageKind::Usb => cost.usb_sched_per_page_ns,
        };
        NativeDev {
            platform,
            inner,
            sync: path == StoragePath::NativeSync,
            kernel_ns: cost.kernel_block_layer_ns,
            sched_page_ns,
            cache: Vec::new(),
            max_dirty_extents: 16,
            overlap_credit_ns: 0,
        }
    }

    fn delay_ns(&mut self, ns: u64) {
        let us = ns.div_ceil(1000);
        match &mut self.inner {
            NativeInner::Mmc(h) => h.io_mut().delay_us(us),
            NativeInner::Usb(d) => d.hcd_mut().io_mut().delay_us(us),
        }
    }

    fn charge_kernel_path(&mut self, blkcnt: u32) {
        // Kernel block layer + filesystem + per-page scheduling, which the
        // driverlet path does not pay (§8.3.2). On the asynchronous path
        // this CPU work overlaps with device time spent draining queued
        // background writes (write-behind), so it consumes overlap credit
        // before advancing the clock.
        let pages = u64::from(blkcnt.div_ceil(8));
        let mut ns = self.kernel_ns + self.sched_page_ns * pages;
        if !self.sync {
            let overlapped = ns.min(self.overlap_credit_ns);
            self.overlap_credit_ns -= overlapped;
            ns -= overlapped;
        }
        self.delay_ns(ns);
    }

    /// Drop or demote every cached extent overlapping the range: dirty
    /// overlaps are written out first (they hold newer data than the
    /// device), clean overlaps are simply discarded.
    fn drop_overlapping(&mut self, blkid: u32, blkcnt: u32) -> Result<(), String> {
        if self.cache.iter().any(|e| e.dirty && e.overlaps(blkid, blkcnt)) {
            self.writeback(false)?;
        }
        self.cache.retain(|e| !e.overlaps(blkid, blkcnt));
        Ok(())
    }

    /// Insert a clean extent at the most-recently-used end and evict clean
    /// LRU extents beyond the page-cache capacity.
    fn insert_clean(&mut self, blkid: u32, data: Vec<u8>) {
        self.cache.push(CacheEntry { blkid, data, dirty: false });
        self.enforce_capacity();
    }

    fn enforce_capacity(&mut self) {
        let mut total: usize = self.cache.iter().map(|e| e.blocks() as usize).sum();
        let mut i = 0;
        while total > PAGE_CACHE_BLOCKS && i < self.cache.len() {
            if self.cache[i].dirty {
                i += 1;
                continue;
            }
            total -= self.cache[i].blocks() as usize;
            self.cache.remove(i);
        }
    }

    /// Write out every dirty extent (largest-run chunking as the block
    /// layer would), leaving the data cached clean. Background writebacks
    /// (`background = true`) bank the device time as overlap credit —
    /// write-behind lets the CPU keep working while the device drains;
    /// explicit flushes model fsync, which the caller waits out.
    fn writeback(&mut self, background: bool) -> Result<(), String> {
        let t0 = self.platform.now_ns();
        let mut dirty: Vec<(u32, Vec<u8>)> = Vec::new();
        for e in &mut self.cache {
            if e.dirty {
                dirty.push((e.blkid, e.data.clone()));
                e.dirty = false;
            }
        }
        for (blkid, data) in dirty {
            // Split big merged extents into device-sized chunks.
            let mut off = 0usize;
            let mut id = blkid;
            while off < data.len() {
                let blocks = (((data.len() - off) / BLOCK) as u32).min(256);
                self.device_write(id, &data[off..off + blocks as usize * BLOCK])?;
                off += blocks as usize * BLOCK;
                id += blocks;
            }
        }
        // A background writeback leaves the device draining this batch: the
        // CPU work that follows may hide behind it, up to the drain time
        // itself. Any older credit has lapsed — this writeback waited on
        // the device serially, closing the previous overlap window. An
        // explicit flush is an fsync: the caller waits for the full drain,
        // so no overlap remains at all.
        self.overlap_credit_ns =
            if background && !self.sync { self.platform.now_ns() - t0 } else { 0 };
        self.enforce_capacity();
        Ok(())
    }

    fn device_write(&mut self, blkid: u32, data: &[u8]) -> Result<(), String> {
        let blkcnt = (data.len() / BLOCK) as u32;
        let mut copy = data.to_vec();
        match &mut self.inner {
            NativeInner::Mmc(h) => h
                .do_io(Rw::Write, blkcnt, blkid, IoFlags::none(), &mut copy)
                .map_err(|e| e.to_string()),
            NativeInner::Usb(d) => d
                .do_io(Rw::Write, blkcnt, blkid, IoFlags::none(), &mut copy)
                .map_err(|e| e.to_string()),
        }
    }

    fn device_read(&mut self, blkid: u32, blkcnt: u32, buf: &mut [u8]) -> Result<(), String> {
        match &mut self.inner {
            NativeInner::Mmc(h) => {
                h.do_io(Rw::Read, blkcnt, blkid, IoFlags::none(), buf).map_err(|e| e.to_string())
            }
            NativeInner::Usb(d) => {
                d.do_io(Rw::Read, blkcnt, blkid, IoFlags::none(), buf).map_err(|e| e.to_string())
            }
        }
    }
}

impl BlockDev for NativeDev {
    fn read_blocks(&mut self, blkid: u32, blkcnt: u32, buf: &mut [u8]) -> Result<(), String> {
        self.charge_kernel_path(blkcnt);
        if self.sync {
            // Direct IO: no page cache on the durability baseline.
            return self.device_read(blkid, blkcnt, buf);
        }
        // Serve fully-covering extents (clean or dirty) from the page
        // cache; extents never overlap, so a covering extent is unique.
        if let Some(i) = (0..self.cache.len()).rev().find(|i| self.cache[*i].covers(blkid, blkcnt))
        {
            let e = &self.cache[i];
            let off = (blkid - e.blkid) as usize * BLOCK;
            buf[..blkcnt as usize * BLOCK]
                .copy_from_slice(&e.data[off..off + blkcnt as usize * BLOCK]);
            // LRU touch: move the hit extent to the most-recently-used end.
            let e = self.cache.remove(i);
            self.cache.push(e);
            return Ok(());
        }
        // Partial overlaps: push newer dirty data out and drop stale clean
        // copies before going to the device.
        self.drop_overlapping(blkid, blkcnt)?;
        self.device_read(blkid, blkcnt, buf)?;
        self.insert_clean(blkid, buf[..blkcnt as usize * BLOCK].to_vec());
        Ok(())
    }

    fn write_blocks(&mut self, blkid: u32, data: &[u8]) -> Result<(), String> {
        let blkcnt = (data.len() / BLOCK) as u32;
        self.charge_kernel_path(blkcnt);
        if self.sync {
            return self.device_write(blkid, data);
        }
        // Invariant: cached extents never overlap one another, so lookups
        // and writeback order are independent of the LRU order. An update
        // fully inside one dirty extent is applied in place; any other
        // overlap is resolved by writing the dirty data out and dropping
        // the stale (then clean) copies before the new extent lands.
        if let Some(e) = self.cache.iter_mut().find(|e| e.dirty && e.covers(blkid, blkcnt)) {
            let off = (blkid - e.blkid) as usize * BLOCK;
            e.data[off..off + data.len()].copy_from_slice(data);
        } else {
            if self.cache.iter().any(|e| e.dirty && e.overlaps(blkid, blkcnt)) {
                self.writeback(true)?;
            }
            self.cache.retain(|e| !e.overlaps(blkid, blkcnt));
            // Extend an end-adjacent dirty extent (sequential writes merge
            // into one device transaction chain); the overlap purge above
            // guarantees the extension cannot collide with another extent.
            if let Some(e) = self.cache.iter_mut().find(|e| e.dirty && e.end() == blkid) {
                e.data.extend_from_slice(data);
            } else {
                self.cache.push(CacheEntry { blkid, data: data.to_vec(), dirty: true });
            }
        }
        if self.cache.iter().filter(|e| e.dirty).count() > self.max_dirty_extents {
            self.writeback(true)?;
        }
        self.enforce_capacity();
        Ok(())
    }

    fn flush(&mut self) -> Result<(), String> {
        self.writeback(false)
    }

    fn now_ns(&self) -> u64 {
        self.platform.now_ns()
    }
}

// ---------------------------------------------------------------------------
// Driverlet path
// ---------------------------------------------------------------------------

/// The driverlet path: a TEE-resident replayer serving block IO by composing
/// template invocations of the recorded granularities.
pub struct DriverletDev {
    platform: Platform,
    replayer: Replayer,
    kind: StorageKind,
    breakdown: HashMap<u32, u64>,
}

impl DriverletDev {
    /// Record the driverlet for `kind` and set up a TEE-owned device plus a
    /// replayer on a fresh platform.
    pub fn new(kind: StorageKind) -> Self {
        let platform = Platform::new();
        let (driverlet, secure) = match kind {
            StorageKind::Mmc => {
                MmcSubsystem::attach(&platform).expect("attach mmc");
                (record_mmc_driverlet().expect("record mmc"), vec!["sdhost", "dma"])
            }
            StorageKind::Usb => {
                UsbSubsystem::attach(&platform).expect("attach usb");
                (record_usb_driverlet().expect("record usb"), vec!["dwc2"])
            }
        };
        TeeKernel::install(&platform, &secure).expect("install tee");
        let mut replayer = Replayer::new(SecureIo::new(platform.bus.clone()));
        replayer.load_driverlet(driverlet, DEV_KEY).expect("load driverlet");
        DriverletDev { platform, replayer, kind, breakdown: HashMap::new() }
    }

    /// Access the replayer (stats, additional driverlets).
    pub fn replayer_mut(&mut self) -> &mut Replayer {
        &mut self.replayer
    }

    /// Decompose an arbitrary request into recorded granularities (the
    /// driverlet "must access the data in ways specified by the recorded
    /// paths", §3.3).
    pub fn decompose(mut blkcnt: u32) -> Vec<u32> {
        let mut parts = Vec::new();
        while blkcnt > 0 {
            let g = GRANULARITIES.iter().copied().find(|g| *g <= blkcnt).unwrap_or(1);
            parts.push(g);
            blkcnt -= g;
        }
        parts
    }

    fn one(&mut self, rw: u64, blkcnt: u32, blkid: u32, buf: &mut [u8]) -> Result<(), String> {
        *self.breakdown.entry(blkcnt).or_insert(0) += 1;
        let r = match self.kind {
            StorageKind::Mmc => replay_mmc(&mut self.replayer, rw, blkcnt, blkid, 0, buf),
            StorageKind::Usb => replay_usb(&mut self.replayer, rw, blkcnt, blkid, 0, buf),
        };
        r.map(|_| ()).map_err(|e| e.to_string())
    }
}

impl BlockDev for DriverletDev {
    fn read_blocks(&mut self, blkid: u32, blkcnt: u32, buf: &mut [u8]) -> Result<(), String> {
        let mut done = 0u32;
        for part in Self::decompose(blkcnt) {
            let start = done as usize * BLOCK;
            let end = (done + part) as usize * BLOCK;
            self.one(0x1, part, blkid + done, &mut buf[start..end])?;
            done += part;
        }
        Ok(())
    }

    fn write_blocks(&mut self, blkid: u32, data: &[u8]) -> Result<(), String> {
        let blkcnt = (data.len() / BLOCK) as u32;
        let mut done = 0u32;
        let mut scratch = data.to_vec();
        for part in Self::decompose(blkcnt) {
            let start = done as usize * BLOCK;
            let end = (done + part) as usize * BLOCK;
            self.one(0x10, part, blkid + done, &mut scratch[start..end])?;
            done += part;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), String> {
        // Driverlet IO is always synchronous (§8.3.2): nothing to flush.
        Ok(())
    }

    fn now_ns(&self) -> u64 {
        self.platform.now_ns()
    }

    fn invocation_breakdown(&self) -> HashMap<u32, u64> {
        self.breakdown.clone()
    }
}

impl BlockDev for Box<dyn BlockDev> {
    fn read_blocks(&mut self, blkid: u32, blkcnt: u32, buf: &mut [u8]) -> Result<(), String> {
        (**self).read_blocks(blkid, blkcnt, buf)
    }
    fn write_blocks(&mut self, blkid: u32, data: &[u8]) -> Result<(), String> {
        (**self).write_blocks(blkid, data)
    }
    fn flush(&mut self) -> Result<(), String> {
        (**self).flush()
    }
    fn now_ns(&self) -> u64 {
        (**self).now_ns()
    }
    fn invocation_breakdown(&self) -> HashMap<u32, u64> {
        (**self).invocation_breakdown()
    }
}

/// Build a block device for the given kind and path.
pub fn make_storage(kind: StorageKind, path: StoragePath) -> Box<dyn BlockDev> {
    match path {
        StoragePath::Driverlet => Box::new(DriverletDev::new(kind)),
        _ => Box::new(NativeDev::new(kind, path)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_prefers_large_recorded_granularities() {
        assert_eq!(DriverletDev::decompose(256), vec![256]);
        assert_eq!(DriverletDev::decompose(40), vec![32, 8]);
        assert_eq!(DriverletDev::decompose(3), vec![1, 1, 1]);
        assert_eq!(DriverletDev::decompose(300), vec![256, 32, 8, 1, 1, 1, 1]);
        assert_eq!(DriverletDev::decompose(300).iter().sum::<u32>(), 300);
    }

    #[test]
    fn native_mmc_round_trip_and_sync_is_slower() {
        let mut native = NativeDev::new(StorageKind::Mmc, StoragePath::Native);
        let data = vec![7u8; 8 * BLOCK];
        let t0 = native.now_ns();
        native.write_blocks(0, &data).unwrap();
        let native_write = native.now_ns() - t0;
        let mut out = vec![0u8; 8 * BLOCK];
        native.read_blocks(0, 8, &mut out).unwrap();
        assert_eq!(out, data);

        let mut sync = NativeDev::new(StorageKind::Mmc, StoragePath::NativeSync);
        let t0 = sync.now_ns();
        sync.write_blocks(0, &data).unwrap();
        let sync_write = sync.now_ns() - t0;
        assert!(sync_write > native_write * 2, "sync {sync_write} vs native {native_write}");
    }

    #[test]
    fn overlapping_writes_with_interleaved_read_hits_stay_coherent() {
        // Regression: overlapping dirty extents plus an LRU-touching read
        // must not let a stale extent shadow newer data (in cache or on the
        // device after writeback).
        let mut dev = NativeDev::new(StorageKind::Mmc, StoragePath::Native);
        let a = vec![0xaau8; 4 * BLOCK];
        let b = vec![0xbbu8; 4 * BLOCK];
        dev.write_blocks(0, &a).unwrap(); // dirty [0..4)
        dev.write_blocks(2, &b).unwrap(); // overlaps: [2..6) supersedes
                                          // LRU-touch whatever covers block 0.
        let mut one = vec![0u8; BLOCK];
        dev.read_blocks(0, 1, &mut one).unwrap();
        assert_eq!(one, vec![0xaau8; BLOCK]);
        // Block 2 must be B's data, from cache...
        dev.read_blocks(2, 1, &mut one).unwrap();
        assert_eq!(one, vec![0xbbu8; BLOCK], "newest write must win in cache");
        // ...and from the device after an fsync plus cache-busting traffic.
        dev.flush().unwrap();
        let mut filler = vec![0u8; 8 * BLOCK];
        for i in 0..PAGE_CACHE_BLOCKS as u32 / 8 + 2 {
            dev.read_blocks(10_000 + i * 8, 8, &mut filler).unwrap();
        }
        let mut back = vec![0u8; 4 * BLOCK];
        dev.read_blocks(2, 4, &mut back).unwrap();
        assert_eq!(back, b, "newest write must win on the device");
    }

    #[test]
    fn native_usb_round_trip() {
        let mut dev = NativeDev::new(StorageKind::Usb, StoragePath::NativeSync);
        let data: Vec<u8> = (0..8 * BLOCK).map(|i| (i % 200) as u8).collect();
        dev.write_blocks(100, &data).unwrap();
        let mut out = vec![0u8; 8 * BLOCK];
        dev.read_blocks(100, 8, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn driverlet_mmc_round_trip_with_breakdown() {
        let mut dev = DriverletDev::new(StorageKind::Mmc);
        let data: Vec<u8> = (0..40 * BLOCK).map(|i| (i % 251) as u8).collect();
        dev.write_blocks(64, &data).unwrap();
        let mut out = vec![0u8; 40 * BLOCK];
        dev.read_blocks(64, 40, &mut out).unwrap();
        assert_eq!(out, data);
        let bd = dev.invocation_breakdown();
        assert_eq!(bd.get(&32), Some(&2), "one 32-block read and one 32-block write");
        assert_eq!(bd.get(&8), Some(&2));
    }
}
