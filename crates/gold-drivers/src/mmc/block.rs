//! The block layer above the MMC host driver.
//!
//! This is what makes the *native* configuration of §8.3.1 fast: requests
//! pass through a (modelled) kernel block layer, adjacent writes are merged,
//! and a write-back cache lets writes complete before the medium commits
//! them. `native-sync` forces every write through to the medium, which the
//! paper measures as slower than the driverlet because the kernel-layer
//! overhead remains (§8.3.2).

use dlt_dev_mmc::BLOCK_SIZE;

use crate::kenv::{DriverError, HwIo, IoFlags, Rw};
use crate::mmc::host::MmcHost;

/// Caching behaviour of the block layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Native: write-back caching with request merging.
    WriteBack,
    /// Native-sync (`O_SYNC`): every write goes straight to the medium.
    WriteThrough,
}

/// One dirty extent in the write-back cache.
#[derive(Debug, Clone)]
struct Extent {
    blkid: u32,
    data: Vec<u8>,
}

impl Extent {
    fn blocks(&self) -> u32 {
        (self.data.len() / BLOCK_SIZE) as u32
    }
    fn end(&self) -> u32 {
        self.blkid + self.blocks()
    }
    fn overlaps(&self, blkid: u32, blkcnt: u32) -> bool {
        blkid < self.end() && self.blkid < blkid + blkcnt
    }
    fn covers(&self, blkid: u32, blkcnt: u32) -> bool {
        self.blkid <= blkid && blkid + blkcnt <= self.end()
    }
}

/// Block-layer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Read requests served.
    pub reads: u64,
    /// Write requests accepted.
    pub writes: u64,
    /// Reads fully served from the write-back cache.
    pub cache_hits: u64,
    /// Write extents merged before hitting the device.
    pub merges: u64,
    /// Flush operations (cache drains).
    pub flushes: u64,
    /// Device commands actually issued by flushes and reads.
    pub device_ios: u64,
}

/// The block driver: caching, merging, and kernel-path cost accounting.
pub struct MmcBlockDriver<I: HwIo> {
    host: MmcHost<I>,
    mode: CacheMode,
    cache: Vec<Extent>,
    max_dirty_extents: usize,
    stats: BlockStats,
}

impl<I: HwIo> MmcBlockDriver<I> {
    /// Wrap a probed host.
    pub fn new(host: MmcHost<I>, mode: CacheMode) -> Self {
        MmcBlockDriver {
            host,
            mode,
            cache: Vec::new(),
            max_dirty_extents: 16,
            stats: BlockStats::default(),
        }
    }

    /// Block-layer statistics.
    pub fn stats(&self) -> BlockStats {
        self.stats
    }

    /// Charge the kernel block-layer / filesystem path cost the native driver
    /// pays per request (§8.3.2: the driverlet "forgoes complex kernel layers
    /// such as filesystems and driver frameworks").
    fn charge_kernel_path(&mut self, blkcnt: u32) {
        let pages = blkcnt.div_ceil(8) as u64;
        let ns = {
            let io = self.host.io_mut();
            let _ = io; // cost knobs live in the shared clock via delay below
            0u64
        };
        let _ = ns;
        // Approximate: 120 us block-layer fixed cost + 18 us scheduling per page.
        self.host.io_mut().delay_us(120 + 18 * pages);
    }

    /// Read `blkcnt` blocks starting at `blkid`.
    pub fn read(&mut self, blkid: u32, blkcnt: u32, buf: &mut [u8]) -> Result<(), DriverError> {
        self.stats.reads += 1;
        self.charge_kernel_path(blkcnt);
        // Fast path: a single dirty extent fully covers the read.
        if let Some(ext) = self.cache.iter().find(|e| e.covers(blkid, blkcnt)) {
            let off = (blkid - ext.blkid) as usize * BLOCK_SIZE;
            let len = blkcnt as usize * BLOCK_SIZE;
            buf[..len].copy_from_slice(&ext.data[off..off + len]);
            self.stats.cache_hits += 1;
            return Ok(());
        }
        // Otherwise flush anything overlapping, then hit the device.
        if self.cache.iter().any(|e| e.overlaps(blkid, blkcnt)) {
            self.flush()?;
        }
        self.stats.device_ios += 1;
        self.host.do_io(Rw::Read, blkcnt, blkid, IoFlags::none(), buf)
    }

    /// Write whole blocks starting at `blkid`. `data` must be a multiple of
    /// the block size.
    pub fn write(&mut self, blkid: u32, data: &[u8], flags: IoFlags) -> Result<(), DriverError> {
        if data.is_empty() || !data.len().is_multiple_of(BLOCK_SIZE) {
            return Err(DriverError::Invalid("write must be whole blocks".into()));
        }
        let blkcnt = (data.len() / BLOCK_SIZE) as u32;
        self.stats.writes += 1;
        self.charge_kernel_path(blkcnt);

        if self.mode == CacheMode::WriteThrough || flags.sync {
            self.stats.device_ios += 1;
            let mut copy = data.to_vec();
            return self.host.do_io(Rw::Write, blkcnt, blkid, IoFlags::sync(), &mut copy);
        }

        // Write-back: coalesce with an adjacent or overlapping extent.
        if let Some(ext) = self
            .cache
            .iter_mut()
            .find(|e| e.overlaps(blkid, blkcnt) || e.end() == blkid || blkid + blkcnt == e.blkid)
        {
            let new_start = ext.blkid.min(blkid);
            let new_end = ext.end().max(blkid + blkcnt);
            let mut merged = vec![0u8; ((new_end - new_start) as usize) * BLOCK_SIZE];
            let old_off = ((ext.blkid - new_start) as usize) * BLOCK_SIZE;
            merged[old_off..old_off + ext.data.len()].copy_from_slice(&ext.data);
            let new_off = ((blkid - new_start) as usize) * BLOCK_SIZE;
            merged[new_off..new_off + data.len()].copy_from_slice(data);
            ext.blkid = new_start;
            ext.data = merged;
            self.stats.merges += 1;
        } else {
            self.cache.push(Extent { blkid, data: data.to_vec() });
        }

        if self.cache.len() > self.max_dirty_extents {
            self.flush()?;
        }
        Ok(())
    }

    /// Drain the write-back cache to the medium.
    pub fn flush(&mut self) -> Result<(), DriverError> {
        if self.cache.is_empty() {
            return Ok(());
        }
        self.stats.flushes += 1;
        let mut extents = std::mem::take(&mut self.cache);
        extents.sort_by_key(|e| e.blkid);
        for ext in extents {
            // Large merged extents are split into device-sized transfers.
            let mut off = 0usize;
            let mut blkid = ext.blkid;
            while off < ext.data.len() {
                let blocks = (((ext.data.len() - off) / BLOCK_SIZE) as u32).min(256);
                let len = blocks as usize * BLOCK_SIZE;
                let mut chunk = ext.data[off..off + len].to_vec();
                self.stats.device_ios += 1;
                self.host.do_io(Rw::Write, blocks, blkid, IoFlags::none(), &mut chunk)?;
                off += len;
                blkid += blocks;
            }
        }
        Ok(())
    }

    /// Number of dirty extents currently cached.
    pub fn dirty_extents(&self) -> usize {
        self.cache.len()
    }
}

impl<I: HwIo> Drop for MmcBlockDriver<I> {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kenv::BusIo;
    use dlt_dev_mmc::{MmcController, MmcSubsystem, SdCard};
    use dlt_hw::{DmaRegion, Platform};

    fn rig(mode: CacheMode) -> (Platform, MmcBlockDriver<BusIo>) {
        let p = Platform::new();
        MmcSubsystem::attach(&p).unwrap();
        let io = BusIo::normal_world(p.bus.clone(), DmaRegion::new(0x200_0000, 0x100_0000));
        let mut host = MmcHost::new(io);
        host.probe().unwrap();
        let blk = MmcBlockDriver::new(host, mode);
        (p, blk)
    }

    /// Run `f` on the platform's SD card.
    fn card<R>(p: &Platform, f: impl FnOnce(&SdCard) -> R) -> R {
        f(p.bus.lock().device::<MmcController>().unwrap().sdhost.card())
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
    }

    #[test]
    fn writeback_defers_the_medium_and_serves_reads_from_cache() {
        let (p, mut blk) = rig(CacheMode::WriteBack);
        let data = pattern(8 * BLOCK_SIZE, 1);
        blk.write(16, &data, IoFlags::none()).unwrap();
        // The card has not seen the data yet.
        assert_eq!(card(&p, |c| c.blocks_written()), 0);
        // But reads observe it.
        let mut out = vec![0u8; 8 * BLOCK_SIZE];
        blk.read(16, 8, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(blk.stats().cache_hits, 1);
        // Flush persists it.
        blk.flush().unwrap();
        assert_eq!(card(&p, |c| c.blocks_written()), 8);
        assert_eq!(card(&p, |c| c.peek_block(16))[..32], data[..32]);
    }

    #[test]
    fn writethrough_hits_the_medium_immediately() {
        let (p, mut blk) = rig(CacheMode::WriteThrough);
        let data = pattern(BLOCK_SIZE, 2);
        blk.write(5, &data, IoFlags::none()).unwrap();
        assert_eq!(card(&p, |c| c.blocks_written()), 1);
        assert_eq!(blk.dirty_extents(), 0);
    }

    #[test]
    fn adjacent_writes_are_merged_into_one_device_io() {
        let (_p, mut blk) = rig(CacheMode::WriteBack);
        for i in 0..4u32 {
            blk.write(100 + i * 8, &pattern(8 * BLOCK_SIZE, i as u8), IoFlags::none()).unwrap();
        }
        assert_eq!(blk.stats().merges, 3);
        assert_eq!(blk.dirty_extents(), 1);
        blk.flush().unwrap();
        assert_eq!(blk.stats().device_ios, 1, "one merged 32-block write");
    }

    #[test]
    fn partially_overlapping_read_forces_a_flush() {
        let (p, mut blk) = rig(CacheMode::WriteBack);
        blk.write(10, &pattern(4 * BLOCK_SIZE, 7), IoFlags::none()).unwrap();
        let mut out = vec![0u8; 8 * BLOCK_SIZE];
        blk.read(8, 8, &mut out).unwrap();
        // The dirty data was flushed before the device read.
        assert_eq!(card(&p, |c| c.blocks_written()), 4);
        assert_eq!(&out[2 * BLOCK_SIZE..3 * BLOCK_SIZE], &pattern(4 * BLOCK_SIZE, 7)[..BLOCK_SIZE]);
    }

    #[test]
    fn sync_flag_overrides_writeback() {
        let (p, mut blk) = rig(CacheMode::WriteBack);
        blk.write(3, &pattern(BLOCK_SIZE, 9), IoFlags::sync()).unwrap();
        assert_eq!(card(&p, |c| c.blocks_written()), 1);
    }

    #[test]
    fn cache_pressure_triggers_automatic_flush() {
        let (p, mut blk) = rig(CacheMode::WriteBack);
        // 17 disjoint (non-mergeable) extents exceed the 16-extent cap.
        for i in 0..17u32 {
            blk.write(i * 100, &pattern(BLOCK_SIZE, i as u8), IoFlags::none()).unwrap();
        }
        assert!(blk.stats().flushes >= 1);
        assert!(card(&p, |c| c.blocks_written()) >= 16);
    }

    #[test]
    fn misaligned_write_length_is_rejected() {
        let (_p, mut blk) = rig(CacheMode::WriteBack);
        assert!(matches!(blk.write(0, &[0u8; 100], IoFlags::none()), Err(DriverError::Invalid(_))));
    }

    #[test]
    fn native_write_latency_is_lower_than_sync_write_latency() {
        // The virtual-time shape behind Figure 5: a cached write returns much
        // faster than a synchronous one.
        let (p_native, mut native) = rig(CacheMode::WriteBack);
        let data = pattern(8 * BLOCK_SIZE, 3);
        let t0 = p_native.now_ns();
        native.write(0, &data, IoFlags::none()).unwrap();
        let native_ns = p_native.now_ns() - t0;

        let (p_sync, mut sync) = rig(CacheMode::WriteThrough);
        let t0 = p_sync.now_ns();
        sync.write(0, &data, IoFlags::none()).unwrap();
        let sync_ns = p_sync.now_ns() - t0;
        assert!(
            sync_ns > native_ns * 3,
            "sync write ({sync_ns} ns) should dwarf the cached write ({native_ns} ns)"
        );
    }
}
