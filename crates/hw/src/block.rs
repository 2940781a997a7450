//! The sparse block store behind the simulated storage media (the SD card
//! and the USB disk).

use std::collections::HashMap;

/// Size of one stored block in bytes.
pub const BLOCK_BYTES: usize = 512;

/// What a block that was never written reads as.
static ZERO_BLOCK: [u8; BLOCK_BYTES] = [0; BLOCK_BYTES];

/// A medium of `total_blocks` 512-byte blocks in which only blocks that were
/// ever written occupy memory. A block is allocated on its first write and
/// overwritten in place after that; reads lend the stored bytes, or a shared
/// zero block for an unwritten address, so neither allocates.
#[derive(Debug, Clone)]
pub struct BlockStore {
    blocks: HashMap<u64, Box<[u8; BLOCK_BYTES]>>,
    total_blocks: u64,
}

impl BlockStore {
    /// An all-zero medium of `total_blocks` blocks.
    pub fn new(total_blocks: u64) -> Self {
        BlockStore { blocks: HashMap::new(), total_blocks }
    }

    /// Number of addressable blocks.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Whether the `count` blocks from `lba` all lie on the medium. A range
    /// whose end overflows does not.
    pub fn contains(&self, lba: u64, count: u64) -> bool {
        lba.checked_add(count).is_some_and(|end| end <= self.total_blocks)
    }

    /// The contents of block `lba`.
    pub fn block(&self, lba: u64) -> &[u8; BLOCK_BYTES] {
        self.blocks.get(&lba).map_or(&ZERO_BLOCK, |b| b)
    }

    /// The `count` blocks from `lba`, in order.
    pub fn blocks(&self, lba: u64, count: u64) -> impl Iterator<Item = &[u8; BLOCK_BYTES]> {
        (0..count).map(move |i| self.block(lba + i))
    }

    /// Overwrite block `lba` with `data`: its first block's worth of bytes,
    /// zero-filled to the block size.
    pub fn put(&mut self, lba: u64, data: &[u8]) {
        let block = self.blocks.entry(lba).or_insert_with(|| Box::new([0; BLOCK_BYTES]));
        let n = data.len().min(BLOCK_BYTES);
        block[..n].copy_from_slice(&data[..n]);
        block[n..].fill(0);
    }

    /// Overwrite the whole blocks of `data` in order from `lba`.
    pub fn put_blocks(&mut self, lba: u64, data: &[u8]) {
        for (i, chunk) in data.chunks_exact(BLOCK_BYTES).enumerate() {
            self.put(lba + i as u64, chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_blocks_read_zero_and_writes_land_in_place() {
        let mut s = BlockStore::new(16);
        assert_eq!(s.block(3), &[0; BLOCK_BYTES]);
        s.put(3, &[7; 16]);
        assert_eq!(&s.block(3)[..16], &[7; 16]);
        assert!(s.block(3)[16..].iter().all(|b| *b == 0), "short data is zero-filled");
        let before: *const [u8; BLOCK_BYTES] = s.block(3);
        s.put_blocks(2, &[9; 2 * BLOCK_BYTES]);
        assert!(std::ptr::eq(before, s.block(3)), "a rewrite reuses the block");
        let all: Vec<u8> = s.blocks(1, 3).flatten().copied().collect();
        assert_eq!(all[..BLOCK_BYTES], [0; BLOCK_BYTES]);
        assert!(all[BLOCK_BYTES..].iter().all(|b| *b == 9));
    }

    #[test]
    fn ranges_that_overflow_are_out_of_range() {
        let s = BlockStore::new(1024);
        assert!(s.contains(1020, 4));
        assert!(s.contains(1024, 0));
        assert!(!s.contains(1021, 4));
        assert!(!s.contains(u64::MAX - 1, 4));
    }
}
