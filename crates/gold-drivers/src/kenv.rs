//! The kernel-environment interface gold drivers are written against.
//!
//! Everything a driver does to the outside world goes through [`HwIo`]:
//! register reads/writes, shared-memory (descriptor) accesses, interrupt
//! waits, DMA allocation, random bytes, timestamps and delays. The concrete
//! implementation ([`BusIo`]) talks to the simulated SoC from the normal
//! world; the recorder in `dlt-recorder` wraps any [`HwIo`] and logs every
//! call — the equivalent of the paper's DBT-based tracing (§6.1).

use dlt_hw::bus::MmioAttr;
use dlt_hw::mem::BumpDmaAllocator;
use dlt_hw::{DmaRegion, HwError, Shared, SystemBus, World};

/// Read or write direction of a block request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rw {
    /// Read from the device.
    Read,
    /// Write to the device.
    Write,
}

impl Rw {
    /// Encode as the paper's `rw` parameter (0x1 = read, 0x10 = write,
    /// Table 4).
    pub fn encode(self) -> u64 {
        match self {
            Rw::Read => 0x1,
            Rw::Write => 0x10,
        }
    }

    /// Decode the paper's `rw` encoding.
    pub fn decode(v: u64) -> Option<Rw> {
        match v {
            0x1 => Some(Rw::Read),
            0x10 => Some(Rw::Write),
            _ => None,
        }
    }
}

/// Request flags understood by the block drivers' `do_io`. Only the MMC
/// host driver reads them; every gold-driver request is synchronous (it
/// returns once the medium has the data), and the kernel block layer's
/// write-back caching is modelled above the drivers by
/// `dlt_workloads::block::NativeDev`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoFlags {
    /// Bypass the DMA engine and move data by PIO (`O_DIRECT` in §7.1.3).
    pub direct: bool,
}

impl IoFlags {
    /// Plain DMA-capable request.
    pub fn none() -> Self {
        IoFlags::default()
    }

    /// `O_DIRECT` request.
    pub fn direct() -> Self {
        IoFlags { direct: true }
    }
}

/// Errors surfaced by gold drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// A register/IRQ wait timed out.
    Timeout(String),
    /// The device reported an error status.
    Device(String),
    /// The request was malformed (bad length, out of range).
    Invalid(String),
    /// The medium is gone.
    NoMedium,
    /// Ran out of DMA memory.
    NoMemory,
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Timeout(s) => write!(f, "timeout: {s}"),
            DriverError::Device(s) => write!(f, "device error: {s}"),
            DriverError::Invalid(s) => write!(f, "invalid request: {s}"),
            DriverError::NoMedium => write!(f, "no medium"),
            DriverError::NoMemory => write!(f, "out of DMA memory"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<HwError> for DriverError {
    fn from(e: HwError) -> Self {
        match e {
            HwError::Timeout { what, waited_us } => {
                DriverError::Timeout(format!("{what} after {waited_us} us"))
            }
            other => DriverError::Device(other.to_string()),
        }
    }
}

/// The kernel-environment interface.
///
/// Every method is `#[track_caller]`-annotated in the tracing implementation
/// so recorded events carry the gold-driver source location the paper's
/// failure reports print (§5, §8.2.1).
pub trait HwIo {
    /// Read a 32-bit device register.
    fn readl(&mut self, addr: u64) -> u32;

    /// Write a 32-bit device register.
    fn writel(&mut self, addr: u64, val: u32);

    /// Poll a register until `(value & mask) == expect`, waiting `delay_us`
    /// between reads, for at most `timeout_us`. The standard
    /// `readl_poll_timeout` helper of the Linux driver framework; recorded
    /// directly as a `poll` meta event.
    fn readl_poll(
        &mut self,
        addr: u64,
        mask: u32,
        expect: u32,
        delay_us: u64,
        timeout_us: u64,
    ) -> Result<u32, DriverError>;

    /// Block until interrupt `line` is pending (and acknowledge delivery).
    fn wait_for_irq(&mut self, line: u32, timeout_us: u64) -> Result<(), DriverError>;

    /// Read a 32-bit word from a DMA region (descriptors, message queues).
    fn shm_read32(&mut self, region: DmaRegion, offset: u64) -> u32;

    /// Write a 32-bit word to a DMA region.
    fn shm_write32(&mut self, region: DmaRegion, offset: u64, val: u32);

    /// Allocate physically contiguous DMA memory.
    fn dma_alloc(&mut self, len: usize) -> Result<DmaRegion, DriverError>;

    /// Release every DMA allocation made since the last release (gold drivers
    /// free per request; the replayer frees per template).
    fn dma_release_all(&mut self);

    /// Obtain `len` random bytes from the environment.
    fn get_rand_bytes(&mut self, len: usize) -> Vec<u8>;

    /// Obtain a timestamp (nanoseconds of the environment's clock).
    fn get_ts(&mut self) -> u64;

    /// Busy-wait for `us` microseconds.
    fn delay_us(&mut self, us: u64);

    /// Copy payload bytes into a DMA region (data movement, not an
    /// interaction event).
    fn copy_to_dma(&mut self, region: DmaRegion, offset: u64, data: &[u8]);

    /// Copy payload bytes out of a DMA region.
    fn copy_from_dma(&mut self, region: DmaRegion, offset: u64, out: &mut [u8]);
}

/// Concrete [`HwIo`] implementation used by the normal-world gold drivers.
/// Each call takes the bus lock once.
pub struct BusIo {
    bus: Shared<SystemBus>,
    world: World,
    attr: MmioAttr,
    dma: BumpDmaAllocator,
    rng_state: u64,
}

impl BusIo {
    /// Normal-world IO over `bus`, allocating DMA memory from `dma_region`.
    pub fn normal_world(bus: Shared<SystemBus>, dma_region: DmaRegion) -> Self {
        BusIo {
            bus,
            world: World::NonSecure,
            attr: MmioAttr::Cached,
            dma: BumpDmaAllocator::new(dma_region),
            rng_state: 0x853c_49e6_748f_ea9b,
        }
    }

    /// Peak DMA usage (bytes) — used by memory-overhead reporting.
    pub fn dma_high_water(&self) -> u64 {
        self.dma.high_water()
    }
}

impl HwIo for BusIo {
    fn readl(&mut self, addr: u64) -> u32 {
        self.bus.lock().mmio_read32(addr, self.world, self.attr).unwrap_or(0xffff_ffff)
    }

    fn writel(&mut self, addr: u64, val: u32) {
        let _ = self.bus.lock().mmio_write32(addr, val, self.world, self.attr);
    }

    fn readl_poll(
        &mut self,
        addr: u64,
        mask: u32,
        expect: u32,
        delay_us: u64,
        timeout_us: u64,
    ) -> Result<u32, DriverError> {
        let mut bus = self.bus.lock();
        let mut waited = 0u64;
        loop {
            let v = bus.mmio_read32(addr, self.world, self.attr).unwrap_or(0xffff_ffff);
            if v & mask == expect {
                return Ok(v);
            }
            if waited >= timeout_us {
                return Err(DriverError::Timeout(format!(
                    "poll of {addr:#x} for mask {mask:#x} == {expect:#x}"
                )));
            }
            bus.delay_us(delay_us.max(1));
            waited += delay_us.max(1);
        }
    }

    fn wait_for_irq(&mut self, line: u32, timeout_us: u64) -> Result<(), DriverError> {
        self.bus.lock().wait_for_irq(line, timeout_us, self.world)?;
        Ok(())
    }

    fn shm_read32(&mut self, region: DmaRegion, offset: u64) -> u32 {
        self.bus.lock().ram_read32(region.base + offset, self.world).unwrap_or(0xffff_ffff)
    }

    fn shm_write32(&mut self, region: DmaRegion, offset: u64, val: u32) {
        let _ = self.bus.lock().ram_write32(region.base + offset, val, self.world);
    }

    fn dma_alloc(&mut self, len: usize) -> Result<DmaRegion, DriverError> {
        self.dma.alloc(len).map_err(|_| DriverError::NoMemory)
    }

    fn dma_release_all(&mut self) {
        self.dma.release_all();
    }

    fn get_rand_bytes(&mut self, len: usize) -> Vec<u8> {
        // xorshift* is plenty for nonce-style driver uses; the TEE variant in
        // dlt-tee uses the platform RNG service instead.
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            self.rng_state ^= self.rng_state >> 12;
            self.rng_state ^= self.rng_state << 25;
            self.rng_state ^= self.rng_state >> 27;
            let word = self.rng_state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    fn get_ts(&mut self) -> u64 {
        self.bus.lock().clock.now_ns()
    }

    fn delay_us(&mut self, us: u64) {
        self.bus.lock().delay_us(us);
    }

    fn copy_to_dma(&mut self, region: DmaRegion, offset: u64, data: &[u8]) {
        let _ = self.bus.lock().ram_write(region.base + offset, data, self.world);
    }

    fn copy_from_dma(&mut self, region: DmaRegion, offset: u64, out: &mut [u8]) {
        let _ = self.bus.lock().ram_read(region.base + offset, out, self.world);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_hw::Platform;

    fn rig() -> (Platform, BusIo) {
        let p = Platform::new();
        let io = BusIo::normal_world(p.bus.clone(), DmaRegion::new(0x100_000, 0x100_000));
        (p, io)
    }

    #[test]
    fn rw_encoding_matches_table4() {
        assert_eq!(Rw::Read.encode(), 0x1);
        assert_eq!(Rw::Write.encode(), 0x10);
        assert_eq!(Rw::decode(0x1), Some(Rw::Read));
        assert_eq!(Rw::decode(0x10), Some(Rw::Write));
        assert_eq!(Rw::decode(0x3), None);
    }

    #[test]
    fn dma_alloc_and_shm_round_trip() {
        let (_p, mut io) = rig();
        let r = io.dma_alloc(4096).unwrap();
        io.shm_write32(r, 0x10, 0xfeed_beef);
        assert_eq!(io.shm_read32(r, 0x10), 0xfeed_beef);
        io.copy_to_dma(r, 0x100, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut out = [0u8; 8];
        io.copy_from_dma(r, 0x100, &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
        io.dma_release_all();
        let r2 = io.dma_alloc(64).unwrap();
        assert_eq!(r2.base, r.base, "allocator restarts after release_all");
    }

    #[test]
    fn unmapped_register_reads_all_ones() {
        let (_p, mut io) = rig();
        assert_eq!(io.readl(0x3fff_0000), 0xffff_ffff);
    }

    #[test]
    fn delays_and_timestamps_advance_virtual_time() {
        let (p, mut io) = rig();
        let t0 = io.get_ts();
        io.delay_us(100);
        let t1 = io.get_ts();
        assert!(t1 >= t0 + 100_000);
        assert_eq!(p.now_ns(), t1);
    }

    #[test]
    fn random_bytes_vary_and_fill_the_request() {
        let (_p, mut io) = rig();
        let a = io.get_rand_bytes(16);
        let b = io.get_rand_bytes(16);
        assert_eq!(a.len(), 16);
        assert_ne!(a, b);
        assert_eq!(io.get_rand_bytes(3).len(), 3);
    }

    #[test]
    fn readl_poll_times_out_on_unmapped_register() {
        let (_p, mut io) = rig();
        let err = io.readl_poll(0x3fff_0000, 0xffff_ffff, 0, 10, 100).unwrap_err();
        assert!(matches!(err, DriverError::Timeout(_)));
    }

    #[test]
    fn io_flags_constructors() {
        assert!(IoFlags::direct().direct);
        assert!(!IoFlags::none().direct);
    }

    #[test]
    fn driver_error_from_hw_error() {
        let e: DriverError = HwError::Timeout { what: "irq 9".into(), waited_us: 55 }.into();
        assert!(matches!(e, DriverError::Timeout(_)));
        let e: DriverError = HwError::Unmapped { addr: 0x10 }.into();
        assert!(matches!(e, DriverError::Device(_)));
    }
}
