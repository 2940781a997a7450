//! Physical memory and DMA regions.
//!
//! A single flat [`PhysMem`] backs everything a device can reach over the
//! AXI bus: DMA descriptors, data pages, and the VCHIQ shared-memory message
//! queue. Gold drivers allocate from it through the kernel-env interface; the
//! TEE reserves a contiguous CMA-style pool out of it for the replayer
//! (the paper reserves 3 MB of TEE RAM, §8.3.1).

use crate::error::HwError;
use crate::HwResult;

/// A contiguous physical memory region handed out by a DMA allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DmaRegion {
    /// Physical base address of the region.
    pub base: u64,
    /// Length in bytes.
    pub len: usize,
}

impl DmaRegion {
    /// Create a region descriptor.
    pub fn new(base: u64, len: usize) -> Self {
        DmaRegion { base, len }
    }

    /// Physical address one past the end of the region.
    pub fn end(&self) -> u64 {
        self.base + self.len as u64
    }

    /// Whether `addr..addr+len` lies fully inside this region.
    pub fn contains(&self, addr: u64, len: usize) -> bool {
        addr >= self.base && addr.saturating_add(len as u64) <= self.end()
    }
}

/// Flat, bounds-checked physical memory.
#[derive(Debug, Clone)]
pub struct PhysMem {
    base: u64,
    data: Vec<u8>,
}

impl PhysMem {
    /// Create `size` bytes of zeroed physical memory starting at `base`.
    pub fn new(base: u64, size: usize) -> Self {
        PhysMem { base, data: vec![0u8; size] }
    }

    /// Physical base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Physical address one past the end.
    pub fn end(&self) -> u64 {
        self.base + self.data.len() as u64
    }

    fn offset(&self, addr: u64, len: usize) -> HwResult<usize> {
        if addr < self.base || addr.saturating_add(len as u64) > self.end() {
            return Err(HwError::OutOfBounds { addr, len });
        }
        Ok((addr - self.base) as usize)
    }

    /// Read a single byte.
    pub fn read8(&self, addr: u64) -> HwResult<u8> {
        let off = self.offset(addr, 1)?;
        Ok(self.data[off])
    }

    /// Read a little-endian 32-bit value.
    pub fn read32(&self, addr: u64) -> HwResult<u32> {
        let off = self.offset(addr, 4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.data[off..off + 4]);
        Ok(u32::from_le_bytes(b))
    }

    /// Write a little-endian 32-bit value.
    pub fn write32(&mut self, addr: u64, val: u32) -> HwResult<()> {
        let off = self.offset(addr, 4)?;
        self.data[off..off + 4].copy_from_slice(&val.to_le_bytes());
        Ok(())
    }

    /// Copy `out.len()` bytes starting at `addr` into `out`.
    pub fn read_bytes(&self, addr: u64, out: &mut [u8]) -> HwResult<()> {
        let off = self.offset(addr, out.len())?;
        out.copy_from_slice(&self.data[off..off + out.len()]);
        Ok(())
    }

    /// Copy `src` into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, src: &[u8]) -> HwResult<()> {
        let off = self.offset(addr, src.len())?;
        self.data[off..off + src.len()].copy_from_slice(src);
        Ok(())
    }

    /// Fill `len` bytes starting at `addr` with `val`.
    pub fn fill(&mut self, addr: u64, len: usize, val: u8) -> HwResult<()> {
        let off = self.offset(addr, len)?;
        self.data[off..off + len].fill(val);
        Ok(())
    }

    /// Return a copy of `len` bytes starting at `addr`.
    pub fn snapshot(&self, addr: u64, len: usize) -> HwResult<Vec<u8>> {
        let mut v = vec![0u8; len];
        self.read_bytes(addr, &mut v)?;
        Ok(v)
    }
}

/// A trivially simple, first-fit contiguous allocator over a [`DmaRegion`].
///
/// This is what backs both the normal-world `dma_alloc` kernel API and the
/// TEE's CMA pool. Allocations are 64-byte aligned (cache-line), matching the
/// alignment the gold drivers assume for descriptors.
#[derive(Debug, Clone)]
pub struct BumpDmaAllocator {
    region: DmaRegion,
    next: u64,
    allocations: Vec<DmaRegion>,
    high_water: u64,
}

impl BumpDmaAllocator {
    /// Alignment (bytes) applied to every allocation.
    pub const ALIGN: u64 = 64;

    /// Create an allocator managing `region`.
    pub fn new(region: DmaRegion) -> Self {
        BumpDmaAllocator { region, next: region.base, allocations: Vec::new(), high_water: 0 }
    }

    /// The region under management.
    pub fn region(&self) -> DmaRegion {
        self.region
    }

    /// Alignment applied to allocations of 16 KiB and larger (CMA-style), so
    /// that large shared structures such as the VCHIQ queue land on the
    /// 16 KiB boundary their publication register assumes.
    pub const BIG_ALIGN: u64 = 0x4000;

    /// Allocate `len` bytes of physically contiguous memory.
    pub fn alloc(&mut self, len: usize) -> HwResult<DmaRegion> {
        let align = if len as u64 >= Self::BIG_ALIGN { Self::BIG_ALIGN } else { Self::ALIGN };
        let aligned = (self.next + align - 1) & !(align - 1);
        let end = aligned.saturating_add(len as u64);
        if end > self.region.end() {
            return Err(HwError::OutOfBounds { addr: aligned, len });
        }
        self.next = end;
        let r = DmaRegion::new(aligned, len);
        self.allocations.push(r);
        self.high_water = self.high_water.max(end - self.region.base);
        Ok(r)
    }

    /// Release every allocation (the replayer frees all DMA memory between
    /// template executions; the gold drivers free per request).
    pub fn release_all(&mut self) {
        self.next = self.region.base;
        self.allocations.clear();
    }

    /// Number of live allocations.
    pub fn live(&self) -> usize {
        self.allocations.len()
    }

    /// Bytes currently allocated (including alignment padding).
    pub fn used(&self) -> u64 {
        self.next - self.region.base
    }

    /// Highest number of bytes ever in use.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// All live allocations, in allocation order.
    pub fn allocations(&self) -> &[DmaRegion] {
        &self.allocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_read_write_round_trip() {
        let mut m = PhysMem::new(0x1000, 4096);
        m.write32(0x1004, 0xdead_beef).unwrap();
        assert_eq!(m.read32(0x1004).unwrap(), 0xdead_beef);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = PhysMem::new(0, 16);
        m.write32(0, 0x0102_0304).unwrap();
        assert_eq!(m.read8(0).unwrap(), 0x04);
        assert_eq!(m.read8(3).unwrap(), 0x01);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut m = PhysMem::new(0x1000, 64);
        assert!(matches!(m.read32(0x0ffc), Err(HwError::OutOfBounds { .. })));
        assert!(matches!(m.read32(0x1000 + 61), Err(HwError::OutOfBounds { .. })));
        assert!(matches!(m.write_bytes(0x1000 + 60, &[0; 8]), Err(HwError::OutOfBounds { .. })));
        assert!(m.write_bytes(0x1000 + 60, &[0; 4]).is_ok());
    }

    #[test]
    fn bulk_read_write_round_trip() {
        let mut m = PhysMem::new(0, 1024);
        let src: Vec<u8> = (0..=255u8).collect();
        m.write_bytes(100, &src).unwrap();
        let mut out = vec![0u8; 256];
        m.read_bytes(100, &mut out).unwrap();
        assert_eq!(out, src);
        m.fill(100, 256, 0xff).unwrap();
        assert_eq!(m.read8(100).unwrap(), 0xff);
        assert_eq!(m.read8(355).unwrap(), 0xff);
    }

    #[test]
    fn dma_region_containment() {
        let r = DmaRegion::new(0x4000, 0x1000);
        assert!(r.contains(0x4000, 0x1000));
        assert!(r.contains(0x4800, 0x100));
        assert!(!r.contains(0x3fff, 2));
        assert!(!r.contains(0x4f00, 0x200));
        assert_eq!(r.end(), 0x5000);
    }

    #[test]
    fn bump_allocator_aligns_and_tracks() {
        let mut a = BumpDmaAllocator::new(DmaRegion::new(0x10_0000, 0x1_0000));
        let r1 = a.alloc(31).unwrap();
        assert_eq!(r1.base % BumpDmaAllocator::ALIGN, 0);
        let r2 = a.alloc(31).unwrap();
        assert!(r2.base >= r1.end());
        assert_eq!(r2.base % BumpDmaAllocator::ALIGN, 0);
        assert_eq!(a.live(), 2);
        let used = a.used();
        assert!(used >= 62);
        a.release_all();
        assert_eq!(a.live(), 0);
        assert_eq!(a.used(), 0);
        assert!(a.high_water() >= used);
    }

    #[test]
    fn bump_allocator_exhaustion() {
        let mut a = BumpDmaAllocator::new(DmaRegion::new(0, 256));
        assert!(a.alloc(200).is_ok());
        assert!(matches!(a.alloc(200), Err(HwError::OutOfBounds { .. })));
    }
}
