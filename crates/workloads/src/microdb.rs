//! microdb — a small page-based embedded database over a block device.
//!
//! SQLite is not available in the reproduction environment, so the Figure-5
//! workloads run on this stand-in: keyed 48-byte records stored in 4 KiB
//! bucket pages (8 blocks each) with a superblock, per-page headers and a
//! deterministic hash layout. The important property for the experiment is
//! that queries generate realistic mixes of 4 KiB-aligned block reads and
//! writes over the [`crate::block::BlockDev`] API.

use crate::block::{BlockDev, BLOCK};

/// Bytes per database page.
pub const PAGE_BYTES: usize = 4096;
/// Blocks per page.
pub const BLOCKS_PER_PAGE: u32 = (PAGE_BYTES / BLOCK) as u32;
/// Bytes of a record's value.
pub const VALUE_BYTES: usize = 48;
/// Records per bucket page (header of 16 bytes, 56 bytes per slot).
pub const SLOTS_PER_PAGE: usize = (PAGE_BYTES - 16) / (8 + VALUE_BYTES + 1);

const MAGIC: u32 = 0x6d64_6231; // "mdb1"

/// Errors from the database layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// The underlying block device failed.
    Io(String),
    /// The bucket page for this key is full.
    PageFull,
    /// The database has not been formatted.
    NotFormatted,
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Io(s) => write!(f, "io: {s}"),
            DbError::PageFull => write!(f, "bucket page full"),
            DbError::NotFormatted => write!(f, "database not formatted"),
        }
    }
}

impl std::error::Error for DbError {}

/// The database handle.
pub struct MicroDb<D: BlockDev> {
    dev: D,
    buckets: u32,
    base_block: u32,
    /// Statistics: page reads / page writes issued.
    page_reads: u64,
    page_writes: u64,
}

impl<D: BlockDev> MicroDb<D> {
    /// Format a new database with `buckets` bucket pages starting at
    /// `base_block` on the device.
    pub fn format(mut dev: D, base_block: u32, buckets: u32) -> Result<Self, DbError> {
        let mut superblock = vec![0u8; PAGE_BYTES];
        superblock[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        superblock[4..8].copy_from_slice(&buckets.to_le_bytes());
        dev.write_blocks(base_block, &superblock).map_err(DbError::Io)?;
        // Zero every bucket page so record counts start at zero.
        let empty = vec![0u8; PAGE_BYTES];
        for b in 0..buckets {
            dev.write_blocks(base_block + (b + 1) * BLOCKS_PER_PAGE, &empty)
                .map_err(DbError::Io)?;
        }
        dev.flush().map_err(DbError::Io)?;
        Ok(MicroDb { dev, buckets, base_block, page_reads: 0, page_writes: 0 })
    }

    /// Open an existing database (reads the superblock).
    pub fn open(mut dev: D, base_block: u32) -> Result<Self, DbError> {
        let mut superblock = vec![0u8; PAGE_BYTES];
        dev.read_blocks(base_block, BLOCKS_PER_PAGE, &mut superblock).map_err(DbError::Io)?;
        if u32::from_le_bytes([superblock[0], superblock[1], superblock[2], superblock[3]]) != MAGIC
        {
            return Err(DbError::NotFormatted);
        }
        let buckets =
            u32::from_le_bytes([superblock[4], superblock[5], superblock[6], superblock[7]]);
        Ok(MicroDb { dev, buckets, base_block, page_reads: 0, page_writes: 0 })
    }

    /// The underlying device (to read the virtual clock / breakdowns).
    pub fn dev(&self) -> &D {
        &self.dev
    }

    /// (page reads, page writes) issued so far.
    pub fn io_counts(&self) -> (u64, u64) {
        (self.page_reads, self.page_writes)
    }

    fn bucket_of(&self, key: u64) -> u32 {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33) as u32 % self.buckets
    }

    fn page_block(&self, bucket: u32) -> u32 {
        self.base_block + (bucket + 1) * BLOCKS_PER_PAGE
    }

    fn load_page(&mut self, bucket: u32) -> Result<Vec<u8>, DbError> {
        let mut page = vec![0u8; PAGE_BYTES];
        self.page_reads += 1;
        self.dev
            .read_blocks(self.page_block(bucket), BLOCKS_PER_PAGE, &mut page)
            .map_err(DbError::Io)?;
        Ok(page)
    }

    fn store_page(&mut self, bucket: u32, page: &[u8]) -> Result<(), DbError> {
        self.page_writes += 1;
        self.dev.write_blocks(self.page_block(bucket), page).map_err(DbError::Io)
    }

    fn slot_range(slot: usize) -> (usize, usize) {
        let start = 16 + slot * (8 + VALUE_BYTES + 1);
        (start, start + 8 + VALUE_BYTES + 1)
    }

    fn find_slot(page: &[u8], key: u64) -> Option<usize> {
        for slot in 0..SLOTS_PER_PAGE {
            let (start, _) = Self::slot_range(slot);
            let occupied = page[start + 8 + VALUE_BYTES] == 1;
            if occupied {
                let k = u64::from_le_bytes(page[start..start + 8].try_into().unwrap());
                if k == key {
                    return Some(slot);
                }
            }
        }
        None
    }

    fn free_slot(page: &[u8]) -> Option<usize> {
        (0..SLOTS_PER_PAGE).find(|slot| {
            let (start, _) = Self::slot_range(*slot);
            page[start + 8 + VALUE_BYTES] == 0
        })
    }

    /// Insert or update a record.
    pub fn put(&mut self, key: u64, value: &[u8]) -> Result<(), DbError> {
        let bucket = self.bucket_of(key);
        let mut page = self.load_page(bucket)?;
        let slot = match Self::find_slot(&page, key) {
            Some(s) => s,
            None => Self::free_slot(&page).ok_or(DbError::PageFull)?,
        };
        let (start, _) = Self::slot_range(slot);
        page[start..start + 8].copy_from_slice(&key.to_le_bytes());
        let mut v = [0u8; VALUE_BYTES];
        let n = value.len().min(VALUE_BYTES);
        v[..n].copy_from_slice(&value[..n]);
        page[start + 8..start + 8 + VALUE_BYTES].copy_from_slice(&v);
        page[start + 8 + VALUE_BYTES] = 1;
        self.store_page(bucket, &page)
    }

    /// Fetch a record.
    pub fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>, DbError> {
        let bucket = self.bucket_of(key);
        let page = self.load_page(bucket)?;
        Ok(Self::find_slot(&page, key).map(|slot| {
            let (start, _) = Self::slot_range(slot);
            page[start + 8..start + 8 + VALUE_BYTES].to_vec()
        }))
    }

    /// Delete a record. Returns whether it existed.
    pub fn delete(&mut self, key: u64) -> Result<bool, DbError> {
        let bucket = self.bucket_of(key);
        let mut page = self.load_page(bucket)?;
        match Self::find_slot(&page, key) {
            Some(slot) => {
                let (start, _) = Self::slot_range(slot);
                page[start + 8 + VALUE_BYTES] = 0;
                self.store_page(bucket, &page)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Scan every bucket, folding record values (the `selectG` / group-by
    /// style workload). Returns the number of live records visited.
    pub fn scan<F: FnMut(u64, &[u8])>(&mut self, mut f: F) -> Result<u64, DbError> {
        let mut visited = 0;
        for bucket in 0..self.buckets {
            let page = self.load_page(bucket)?;
            for slot in 0..SLOTS_PER_PAGE {
                let (start, _) = Self::slot_range(slot);
                if page[start + 8 + VALUE_BYTES] == 1 {
                    let k = u64::from_le_bytes(page[start..start + 8].try_into().unwrap());
                    f(k, &page[start + 8..start + 8 + VALUE_BYTES]);
                    visited += 1;
                }
            }
        }
        Ok(visited)
    }

    /// Flush deferred writes on the underlying device.
    pub fn flush(&mut self) -> Result<(), DbError> {
        self.dev.flush().map_err(DbError::Io)
    }
}

// Allow `&mut MemDev`-style borrowed devices in tests and harnesses.
impl<D: BlockDev + ?Sized> BlockDev for &mut D {
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
    fn invocation_breakdown(&self) -> std::collections::HashMap<u32, u64> {
        (**self).invocation_breakdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// An in-memory block device for fast unit tests of the DB layer.
    #[derive(Default)]
    struct MemDev {
        blocks: HashMap<u32, Vec<u8>>,
        now: u64,
    }

    impl BlockDev for MemDev {
        fn read_blocks(&mut self, blkid: u32, blkcnt: u32, buf: &mut [u8]) -> Result<(), String> {
            for i in 0..blkcnt {
                let src =
                    self.blocks.get(&(blkid + i)).cloned().unwrap_or_else(|| vec![0u8; BLOCK]);
                buf[i as usize * BLOCK..(i as usize + 1) * BLOCK].copy_from_slice(&src);
            }
            self.now += 100;
            Ok(())
        }
        fn write_blocks(&mut self, blkid: u32, data: &[u8]) -> Result<(), String> {
            for (i, chunk) in data.chunks(BLOCK).enumerate() {
                self.blocks.insert(blkid + i as u32, chunk.to_vec());
            }
            self.now += 300;
            Ok(())
        }
        fn flush(&mut self) -> Result<(), String> {
            Ok(())
        }
        fn now_ns(&self) -> u64 {
            self.now
        }
    }

    #[test]
    fn put_get_delete_round_trip() {
        let mut db = MicroDb::format(MemDev::default(), 0, 16).unwrap();
        for k in 0..100u64 {
            db.put(k, format!("value-{k}").as_bytes()).unwrap();
        }
        for k in 0..100u64 {
            let v = db.get(k).unwrap().unwrap();
            assert!(v.starts_with(format!("value-{k}").as_bytes()));
        }
        assert!(db.delete(42).unwrap());
        assert!(db.get(42).unwrap().is_none());
        assert!(!db.delete(42).unwrap());
        assert!(db.get(41).unwrap().is_some());
    }

    #[test]
    fn updates_overwrite_in_place() {
        let mut db = MicroDb::format(MemDev::default(), 0, 4).unwrap();
        db.put(7, b"first").unwrap();
        db.put(7, b"second").unwrap();
        let v = db.get(7).unwrap().unwrap();
        assert!(v.starts_with(b"second"));
        // Only one live record exists.
        let count = db.scan(|_, _| {}).unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn scan_visits_all_records() {
        let mut db = MicroDb::format(MemDev::default(), 8, 32).unwrap();
        for k in 0..200u64 {
            db.put(k, &k.to_le_bytes()).unwrap();
        }
        let mut sum = 0u64;
        let count = db.scan(|k, _| sum += k).unwrap();
        assert_eq!(count, 200);
        assert_eq!(sum, (0..200).sum::<u64>());
    }

    #[test]
    fn open_rejects_unformatted_devices_and_reopens_formatted_ones() {
        assert!(matches!(MicroDb::open(MemDev::default(), 0), Err(DbError::NotFormatted)));
        let mut dev = MemDev::default();
        {
            let db = MicroDb::format(&mut dev, 0, 8);
            let mut db = db.unwrap();
            db.put(1, b"x").unwrap();
        }
        let mut db = MicroDb::open(&mut dev, 0).unwrap();
        assert!(db.get(1).unwrap().is_some());
    }

    #[test]
    fn bucket_page_capacity_is_enforced() {
        let mut db = MicroDb::format(MemDev::default(), 0, 1).unwrap();
        let mut inserted = 0;
        let mut hit_full = false;
        for k in 0..200u64 {
            match db.put(k, b"v") {
                Ok(()) => inserted += 1,
                Err(DbError::PageFull) => {
                    hit_full = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(hit_full);
        assert_eq!(inserted, SLOTS_PER_PAGE);
    }

    #[test]
    fn io_counters_track_page_accesses() {
        let mut db = MicroDb::format(MemDev::default(), 0, 4).unwrap();
        db.put(1, b"a").unwrap();
        db.get(1).unwrap();
        let (r, w) = db.io_counts();
        assert_eq!(r, 2, "one page read for put, one for get");
        assert_eq!(w, 1);
    }
}
