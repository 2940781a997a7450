//! System bus, TZASC-style security filtering, and the [`Platform`] bundle.
//!
//! The bus maps device register windows and RAM into one physical address
//! space, charges virtual-time costs for every access, and enforces the
//! secure-world device assignment that a TZASC provides on real TrustZone
//! silicon (the paper modifies the Arm trusted firmware to assign the MMC and
//! VC4 instances to the TEE, §8.3.1).

use std::any::Any;
use std::sync::Arc;

use crate::clock::VirtualClock;
use crate::cost::CostModel;
use crate::device::{DeviceCtx, MmioDevice, Window};
use crate::error::HwError;
use crate::irq::IrqController;
use crate::mem::{DmaRegion, PhysMem};
use crate::{HwResult, Shared};

/// Which world issued a bus access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum World {
    /// The untrusted rich OS (Linux in the paper).
    NonSecure,
    /// The TrustZone TEE (OP-TEE in the paper).
    Secure,
}

/// Mapping attribute for MMIO accesses. The replayer maps device memory
/// uncached (§6.2) which is slightly slower than the cached normal-world
/// mapping; the cost model charges accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmioAttr {
    /// Normal-world cacheable device mapping.
    Cached,
    /// TEE strongly-ordered / uncached device mapping.
    Uncached,
}

/// One mapped register window and the device serving it.
struct WindowSlot {
    window: Window,
    /// Index of the serving device in `SystemBus::devices`.
    dev: usize,
    /// Index of this window among the device's own windows.
    idx: usize,
    secure_only: bool,
}

impl WindowSlot {
    fn end(&self) -> u64 {
        self.window.base + self.window.len
    }
}

/// The system interconnect, and the single owner of one simulated
/// platform's state: its clock, memory, interrupt controller and devices.
pub struct SystemBus {
    /// The platform's virtual clock.
    pub clock: VirtualClock,
    /// The platform's physical memory.
    pub mem: PhysMem,
    /// The platform's interrupt controller.
    pub irqs: IrqController,
    devices: Vec<Box<dyn MmioDevice>>,
    windows: Vec<WindowSlot>,
    secure_ram: Vec<DmaRegion>,
    access_count: u64,
}

impl SystemBus {
    /// Create a bus over the given clock and memory, with an idle interrupt
    /// controller and no devices.
    pub fn new(clock: VirtualClock, mem: PhysMem) -> Self {
        SystemBus {
            clock,
            mem,
            irqs: IrqController::new(),
            devices: Vec::new(),
            windows: Vec::new(),
            secure_ram: Vec::new(),
            access_count: 0,
        }
    }

    /// Attach a device. Its register windows must not overlap existing ones.
    pub fn attach(&mut self, dev: Box<dyn MmioDevice>) -> HwResult<()> {
        for w in dev.windows() {
            let overlapping =
                self.windows.iter().find(|s| w.base < s.end() && s.window.base < w.base + w.len);
            if let Some(s) = overlapping {
                return Err(HwError::DeviceError {
                    device: w.name.to_string(),
                    reason: format!("register window overlaps {}", s.window.name),
                });
            }
        }
        let dev_idx = self.devices.len();
        self.windows.extend(dev.windows().iter().enumerate().map(|(idx, &window)| WindowSlot {
            window,
            dev: dev_idx,
            idx,
            secure_only: false,
        }));
        self.devices.push(dev);
        Ok(())
    }

    /// The attached device of type `T` (e.g. to unplug the SD card
    /// mid-transfer, §8.2.1, or to inspect what reached the medium).
    pub fn device<T: MmioDevice>(&mut self) -> Option<&mut T> {
        self.devices.iter_mut().find_map(|d| (d.as_mut() as &mut dyn Any).downcast_mut::<T>())
    }

    fn slot_named(&self, name: &str) -> HwResult<&WindowSlot> {
        self.windows
            .iter()
            .find(|s| s.window.name == name)
            .ok_or_else(|| HwError::NoSuchDevice { name: name.to_string() })
    }

    /// Assign a device exclusively to the secure world (TZASC programming).
    pub fn set_device_secure(&mut self, name: &str, secure_only: bool) -> HwResult<()> {
        let slot = self
            .windows
            .iter_mut()
            .find(|s| s.window.name == name)
            .ok_or_else(|| HwError::NoSuchDevice { name: name.to_string() })?;
        slot.secure_only = secure_only;
        Ok(())
    }

    /// Mark a RAM window as secure-world-only (the TEE's reserved CMA pool).
    pub fn protect_ram(&mut self, region: DmaRegion) {
        self.secure_ram.push(region);
    }

    /// Whether `name` is currently assigned to the secure world.
    pub fn is_device_secure(&self, name: &str) -> bool {
        self.windows.iter().any(|s| s.window.name == name && s.secure_only)
    }

    /// Names of all attached register windows.
    pub fn device_names(&self) -> Vec<&'static str> {
        self.windows.iter().map(|s| s.window.name).collect()
    }

    /// The secure-world device whose register window fully contains
    /// `addr..addr+len`, if any. Used by the replayer's load-time hardening:
    /// a template may touch a second secure device (e.g. the system DMA
    /// engine next to the MMC host) and any secure window qualifies.
    pub fn secure_device_containing(&self, addr: u64, len: u64) -> Option<&'static str> {
        self.windows
            .iter()
            .find(|s| s.secure_only && addr >= s.window.base && addr.saturating_add(len) <= s.end())
            .map(|s| s.window.name)
    }

    /// MMIO register window of an attached device.
    pub fn device_window(&self, name: &str) -> HwResult<DmaRegion> {
        self.slot_named(name).map(|s| DmaRegion::new(s.window.base, s.window.len as usize))
    }

    /// Total number of MMIO accesses routed so far.
    pub fn access_count(&self) -> u64 {
        self.access_count
    }

    /// Check, charge and count one register access. Returns the serving
    /// device, its window index and the offset into the window. A
    /// misaligned access fails here, so devices only see word-aligned
    /// offsets.
    fn route(&mut self, addr: u64, world: World, attr: MmioAttr) -> HwResult<(usize, usize, u64)> {
        if !addr.is_multiple_of(4) {
            return Err(HwError::Misaligned { addr, align: 4 });
        }
        let slot = self
            .windows
            .iter()
            .find(|s| addr >= s.window.base && addr < s.end())
            .ok_or(HwError::Unmapped { addr })?;
        if slot.secure_only && world == World::NonSecure {
            return Err(HwError::PermissionDenied { addr, world });
        }
        let routed = (slot.dev, slot.idx, addr - slot.window.base);
        self.clock.charge_mmio(attr == MmioAttr::Uncached);
        self.access_count += 1;
        Ok(routed)
    }

    fn check_ram_access(&self, addr: u64, len: usize, world: World) -> HwResult<()> {
        if world == World::Secure {
            return Ok(());
        }
        for r in &self.secure_ram {
            let end = addr.saturating_add(len as u64);
            if addr < r.end() && r.base < end {
                return Err(HwError::PermissionDenied { addr, world });
            }
        }
        Ok(())
    }

    /// Read a 32-bit device register.
    pub fn mmio_read32(&mut self, addr: u64, world: World, attr: MmioAttr) -> HwResult<u32> {
        let (dev, window, off) = self.route(addr, world, attr)?;
        let mut ctx =
            DeviceCtx { now_ns: self.clock.now_ns(), mem: &mut self.mem, irqs: &mut self.irqs };
        Ok(self.devices[dev].read32(window, off, &mut ctx))
    }

    /// Write a 32-bit device register.
    pub fn mmio_write32(
        &mut self,
        addr: u64,
        val: u32,
        world: World,
        attr: MmioAttr,
    ) -> HwResult<()> {
        let (dev, window, off) = self.route(addr, world, attr)?;
        let mut ctx =
            DeviceCtx { now_ns: self.clock.now_ns(), mem: &mut self.mem, irqs: &mut self.irqs };
        self.devices[dev].write32(window, off, val, &mut ctx);
        Ok(())
    }

    /// Read bytes from RAM (charged as word copies).
    pub fn ram_read(&mut self, addr: u64, out: &mut [u8], world: World) -> HwResult<()> {
        self.check_ram_access(addr, out.len(), world)?;
        self.clock.charge_pio_words((out.len() as u64).div_ceil(4));
        self.mem.read_bytes(addr, out)
    }

    /// Write bytes to RAM (charged as word copies).
    pub fn ram_write(&mut self, addr: u64, src: &[u8], world: World) -> HwResult<()> {
        self.check_ram_access(addr, src.len(), world)?;
        self.clock.charge_pio_words((src.len() as u64).div_ceil(4));
        self.mem.write_bytes(addr, src)
    }

    /// Read a 32-bit little-endian word from RAM.
    pub fn ram_read32(&mut self, addr: u64, world: World) -> HwResult<u32> {
        self.check_ram_access(addr, 4, world)?;
        self.clock.charge_pio_words(1);
        self.mem.read32(addr)
    }

    /// Write a 32-bit little-endian word to RAM.
    pub fn ram_write32(&mut self, addr: u64, val: u32, world: World) -> HwResult<()> {
        self.check_ram_access(addr, 4, world)?;
        self.clock.charge_pio_words(1);
        self.mem.write32(addr, val)
    }

    /// Tick the interrupt controller and every attached device up to the
    /// current time.
    fn tick_all(&mut self) {
        let now = self.clock.now_ns();
        self.irqs.tick(now);
        let mut ctx = DeviceCtx { now_ns: now, mem: &mut self.mem, irqs: &mut self.irqs };
        for dev in &mut self.devices {
            dev.tick(&mut ctx);
        }
    }

    /// Busy-wait (advancing virtual time) for `us` microseconds, ticking
    /// devices as time passes. Models `udelay`.
    pub fn delay_us(&mut self, us: u64) {
        self.clock.advance_us(us);
        self.tick_all();
    }

    /// The earliest exact-time event on this bus — an IRQ assertion
    /// deadline or a device's [`MmioDevice::next_deadline_ns`] — if any.
    /// `wait_for_irq` jumps straight to it when it falls inside the wait.
    /// Devices without a deadline are sampled on the polling quantum and
    /// do not show up here. (The serve layer's event loop does *not* read
    /// this: its next-event times come from queued arrival stamps and hold
    /// deadlines, because a lane's devices only make progress while a
    /// replay drives them.)
    pub fn next_event_ns(&self) -> Option<u64> {
        let next_irq = self.irqs.earliest_deadline();
        let next_dev = self.devices.iter().filter_map(|d| d.next_deadline_ns()).min();
        match (next_irq, next_dev) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Wait for interrupt `line` to become pending, advancing virtual time.
    ///
    /// Time moves in two ways. When an exact-time event
    /// ([`SystemBus::next_event_ns`]) falls inside the wait, the bus jumps
    /// to it. Otherwise it samples the devices once per polling quantum
    /// (`CostModel::poll_delay_ns`), skipping in one step every quantum
    /// before the first one at which the timeout expires or a device's
    /// [`MmioDevice::quiet_until_ns`] says a tick could change it. Those
    /// skipped samples would have been no-ops, so the result and the
    /// virtual time are the same as stepping one quantum at a time.
    ///
    /// Returns the number of virtual microseconds waited. Fails with
    /// [`HwError::Timeout`] after `timeout_us` (saturating: a timeout
    /// beyond the end of virtual time waits until the clock saturates).
    pub fn wait_for_irq(&mut self, line: u32, timeout_us: u64, _world: World) -> HwResult<u64> {
        let start = self.clock.now_ns();
        let deadline = self.clock.deadline_after_us(timeout_us);
        let quantum_ns = self.clock.cost().poll_delay_ns.max(1);
        loop {
            self.tick_all();
            let now = self.clock.now_ns();
            if self.irqs.is_pending(line, now) {
                // Charge the delivery latency once.
                let delivery = self.clock.cost().irq_delivery_ns;
                self.clock.advance_ns(delivery);
                return Ok((self.clock.now_ns() - start) / 1_000);
            }
            if now >= deadline {
                return Err(HwError::Timeout {
                    what: format!("irq {line}"),
                    waited_us: (now - start) / 1_000,
                });
            }
            // Jump straight to the next scheduled event when one exists,
            // otherwise advance by whole polling quanta.
            let next = self.next_event_ns();
            match next {
                Some(d) if d > now && d <= deadline => self.clock.advance_to(d),
                _ => {
                    // Every sample before the horizon would tick only no-op
                    // devices and see no interrupt: an exact event inside
                    // the wait was taken above, and one already due pins
                    // the horizon to now.
                    let first = next.map_or(deadline, |d| d.min(deadline));
                    let horizon = self
                        .devices
                        .iter()
                        .try_fold(first, |h, dev| dev.quiet_until_ns().map(|q| h.min(q)));
                    let quanta = match horizon {
                        Some(h) if h > now => (h - now).div_ceil(quantum_ns),
                        _ => 1,
                    };
                    self.clock.advance_ns(quanta.saturating_mul(quantum_ns));
                }
            }
        }
    }

    /// Acknowledge (clear) an interrupt line.
    pub fn ack_irq(&mut self, line: u32) {
        self.irqs.clear(line);
    }

    /// Whether an interrupt line is pending right now.
    pub fn irq_pending(&self, line: u32) -> bool {
        self.irqs.is_pending(line, self.clock.now_ns())
    }

    /// Soft-reset a device by name and clear its interrupt line.
    pub fn soft_reset_device(&mut self, name: &str) -> HwResult<()> {
        let cost = self.clock.cost().soft_reset_ns;
        self.clock.advance_ns(cost);
        let slot = self.slot_named(name)?;
        let (dev, window, irq_line) = (slot.dev, slot.idx, slot.window.irq_line);
        let mut ctx =
            DeviceCtx { now_ns: self.clock.now_ns(), mem: &mut self.mem, irqs: &mut self.irqs };
        self.devices[dev].soft_reset(window, &mut ctx);
        if let Some(line) = irq_line {
            self.irqs.reset_line(line);
        }
        Ok(())
    }
}

/// Convenience bundle that builds a bus with the standard memory map of the
/// simulated SoC.
///
/// One `Platform` models **one TEE core**: everything attached to it shares
/// its clock, and its timeline advances independently of every other
/// platform. Single-core experiments build one; the `dlt-serve` multi-core
/// service builds one per device lane (all starting from epoch zero) and
/// merges their timelines with a pointwise-max rule.
pub struct Platform {
    /// The system bus, which owns the clock, memory, interrupt controller
    /// and devices. The platform, its `SecureIo` and a gold driver's `BusIo`
    /// share it on one thread. Each of their calls takes this one lock, and
    /// a replay takes it once per invocation and holds it throughout.
    pub bus: Shared<SystemBus>,
}

impl Platform {
    /// Physical base address of system RAM.
    pub const RAM_BASE: u64 = 0x0000_0000;
    /// Size of system RAM (64 MiB is plenty for descriptors, data pages and
    /// the VCHIQ queue).
    pub const RAM_SIZE: usize = 64 * 1024 * 1024;
    /// Base of the MMIO peripheral window (BCM2835-style).
    pub const PERIPH_BASE: u64 = 0x3f00_0000;

    /// Create a platform with the default cost model.
    pub fn new() -> Self {
        Self::with_cost(CostModel::default())
    }

    /// Create a platform with a custom cost model.
    pub fn with_cost(cost: CostModel) -> Self {
        let mem = PhysMem::new(Self::RAM_BASE, Self::RAM_SIZE);
        let bus = SystemBus::new(VirtualClock::new(cost), mem);
        Platform { bus: Arc::new(parking_lot::Mutex::new(bus)) }
    }

    /// Attach a device to the platform's bus (see [`SystemBus::attach`]).
    pub fn attach(&self, dev: Box<dyn MmioDevice>) -> HwResult<()> {
        self.bus.lock().attach(dev)
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.bus.lock().clock.now_ns()
    }

    /// The cost model in use.
    pub fn cost(&self) -> CostModel {
        self.bus.lock().clock.cost().clone()
    }
}

impl Default for Platform {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial device: one status register at +0x0 that reads back the last
    /// written value, and a "completion" register at +0x4 that schedules an
    /// IRQ 100 us after being written.
    struct ToyDevice {
        last: u32,
        resets: u32,
    }

    const TOY: &[Window] = &[Window {
        name: "toy",
        base: 0x3f00_1000,
        len: 0x100,
        irq_line: Some(crate::irq::lines::MMC),
    }];

    impl MmioDevice for ToyDevice {
        fn windows(&self) -> &'static [Window] {
            TOY
        }
        fn read32(&mut self, _window: usize, offset: u64, _ctx: &mut DeviceCtx<'_>) -> u32 {
            match offset {
                0x0 => self.last,
                0x8 => self.resets,
                _ => 0,
            }
        }
        fn write32(&mut self, _window: usize, offset: u64, val: u32, ctx: &mut DeviceCtx<'_>) {
            match offset {
                0x0 => self.last = val,
                0x4 => ctx.irqs.assert_at(crate::irq::lines::MMC, ctx.now_ns + 100_000),
                _ => {}
            }
        }
        fn tick(&mut self, _ctx: &mut DeviceCtx<'_>) {}
        fn soft_reset(&mut self, _window: usize, _ctx: &mut DeviceCtx<'_>) {
            self.last = 0;
            self.resets += 1;
        }
    }

    fn toy_platform() -> Platform {
        let p = Platform::new();
        p.bus.lock().attach(Box::new(ToyDevice { last: 0, resets: 0 })).unwrap();
        p
    }

    #[test]
    fn mmio_round_trip_and_cost() {
        let p = toy_platform();
        let mut bus = p.bus.lock();
        bus.mmio_write32(0x3f00_1000, 0xabcd, World::NonSecure, MmioAttr::Cached).unwrap();
        let v = bus.mmio_read32(0x3f00_1000, World::NonSecure, MmioAttr::Cached).unwrap();
        assert_eq!(v, 0xabcd);
        drop(bus);
        let cost = p.cost();
        assert_eq!(p.now_ns(), 2 * cost.mmio_access_ns);
    }

    #[test]
    fn uncached_access_costs_more() {
        let p = toy_platform();
        let cost = p.cost();
        p.bus.lock().mmio_read32(0x3f00_1000, World::Secure, MmioAttr::Uncached).unwrap();
        assert_eq!(p.now_ns(), cost.mmio_uncached_ns);
    }

    #[test]
    fn unmapped_and_misaligned_accesses_fault() {
        let p = toy_platform();
        let mut bus = p.bus.lock();
        assert!(matches!(
            bus.mmio_read32(0x3f99_0000, World::Secure, MmioAttr::Cached),
            Err(HwError::Unmapped { .. })
        ));
        assert!(matches!(
            bus.mmio_read32(0x3f00_1002, World::Secure, MmioAttr::Cached),
            Err(HwError::Misaligned { .. })
        ));
    }

    #[test]
    fn tzasc_blocks_normal_world_on_secure_device() {
        let p = toy_platform();
        let mut bus = p.bus.lock();
        bus.set_device_secure("toy", true).unwrap();
        assert!(matches!(
            bus.mmio_read32(0x3f00_1000, World::NonSecure, MmioAttr::Cached),
            Err(HwError::PermissionDenied { .. })
        ));
        assert!(bus.mmio_read32(0x3f00_1000, World::Secure, MmioAttr::Uncached).is_ok());
        assert!(bus.is_device_secure("toy"));
    }

    #[test]
    fn secure_ram_window_is_protected() {
        let p = toy_platform();
        let mut bus = p.bus.lock();
        bus.protect_ram(DmaRegion::new(0x10_0000, 0x30_0000));
        assert!(bus.ram_write32(0x10_0040, 7, World::Secure).is_ok());
        assert!(matches!(
            bus.ram_write32(0x10_0040, 7, World::NonSecure),
            Err(HwError::PermissionDenied { .. })
        ));
        // Outside the window the normal world is fine.
        assert!(bus.ram_write32(0x40_0000, 7, World::NonSecure).is_ok());
    }

    #[test]
    fn wait_for_irq_advances_time_to_the_assertion() {
        let p = toy_platform();
        let mut bus = p.bus.lock();
        bus.mmio_write32(0x3f00_1004, 1, World::Secure, MmioAttr::Uncached).unwrap();
        let waited = bus.wait_for_irq(crate::irq::lines::MMC, 10_000, World::Secure).unwrap();
        assert!(waited >= 99, "should have waited about 100 us, got {waited}");
        bus.ack_irq(crate::irq::lines::MMC);
        assert!(!bus.irq_pending(crate::irq::lines::MMC));
    }

    #[test]
    fn wait_for_irq_times_out() {
        let p = toy_platform();
        let mut bus = p.bus.lock();
        let err = bus.wait_for_irq(crate::irq::lines::USB, 500, World::Secure).unwrap_err();
        assert!(matches!(err, HwError::Timeout { .. }));
    }

    #[test]
    fn soft_reset_reaches_the_device_and_charges_time() {
        let p = toy_platform();
        let before = p.now_ns();
        {
            let mut bus = p.bus.lock();
            bus.mmio_write32(0x3f00_1000, 5, World::Secure, MmioAttr::Uncached).unwrap();
            bus.soft_reset_device("toy").unwrap();
            let v = bus.mmio_read32(0x3f00_1000, World::Secure, MmioAttr::Uncached).unwrap();
            assert_eq!(v, 0);
            let resets = bus.mmio_read32(0x3f00_1008, World::Secure, MmioAttr::Uncached).unwrap();
            assert_eq!(resets, 1);
        }
        assert!(p.now_ns() > before + p.cost().soft_reset_ns);
    }

    #[test]
    fn overlapping_windows_are_rejected() {
        let p = toy_platform();
        let dup = Box::new(ToyDevice { last: 0, resets: 0 });
        let err = p.bus.lock().attach(dup).unwrap_err();
        assert!(matches!(err, HwError::DeviceError { .. }));
    }

    #[test]
    fn ram_round_trip_through_bus() {
        let p = toy_platform();
        let mut bus = p.bus.lock();
        bus.ram_write(0x1000, &[1, 2, 3, 4, 5], World::NonSecure).unwrap();
        let mut out = [0u8; 5];
        bus.ram_read(0x1000, &mut out, World::NonSecure).unwrap();
        assert_eq!(out, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn typed_accessor_reaches_the_attached_device() {
        let p = toy_platform();
        p.bus.lock().device::<ToyDevice>().unwrap().last = 0x5a;
        let v = p.bus.lock().mmio_read32(0x3f00_1000, World::Secure, MmioAttr::Uncached).unwrap();
        assert_eq!(v, 0x5a);
        assert!(p.bus.lock().device::<AbsentDevice>().is_none());
    }

    /// A device type that is never attached.
    struct AbsentDevice;

    impl MmioDevice for AbsentDevice {
        fn windows(&self) -> &'static [Window] {
            &[]
        }
        fn read32(&mut self, _window: usize, _offset: u64, _ctx: &mut DeviceCtx<'_>) -> u32 {
            0
        }
        fn write32(&mut self, _: usize, _: u64, _: u32, _: &mut DeviceCtx<'_>) {}
        fn tick(&mut self, _ctx: &mut DeviceCtx<'_>) {}
        fn soft_reset(&mut self, _window: usize, _ctx: &mut DeviceCtx<'_>) {}
    }

    #[test]
    fn device_window_lookup() {
        let p = toy_platform();
        let w = p.bus.lock().device_window("toy").unwrap();
        assert_eq!(w.base, 0x3f00_1000);
        assert_eq!(w.len, 0x100);
        assert!(p.bus.lock().device_window("nope").is_err());
    }

    /// A device sampled on the polling quantum: the first tick at or after
    /// `due_ns` asserts `line` and records when it fired. It reports no
    /// exact deadline, only how long it stays quiet, unless `hide_quiet`
    /// makes it answer "unknown" so the bus steps one quantum at a time.
    #[derive(Debug, Clone, PartialEq)]
    struct Sampled {
        slot: usize,
        line: u32,
        due_ns: Option<u64>,
        fired_ns: Option<u64>,
        hide_quiet: bool,
    }

    const SAMPLED: &[Window] = &[
        Window { name: "sampled0", base: 0x3f00_2000, len: 0x100, irq_line: None },
        Window { name: "sampled1", base: 0x3f00_3000, len: 0x100, irq_line: None },
    ];

    impl MmioDevice for Sampled {
        fn windows(&self) -> &'static [Window] {
            &SAMPLED[self.slot..=self.slot]
        }
        fn read32(&mut self, _window: usize, _offset: u64, _ctx: &mut DeviceCtx<'_>) -> u32 {
            0
        }
        fn write32(&mut self, _: usize, _: u64, _: u32, _: &mut DeviceCtx<'_>) {}
        fn tick(&mut self, ctx: &mut DeviceCtx<'_>) {
            if self.due_ns.is_some_and(|d| ctx.now_ns >= d) {
                self.due_ns = None;
                self.fired_ns = Some(ctx.now_ns);
                ctx.irqs.assert_now(self.line);
            }
        }
        fn soft_reset(&mut self, _window: usize, _ctx: &mut DeviceCtx<'_>) {}
        fn quiet_until_ns(&self) -> Option<u64> {
            (!self.hide_quiet).then(|| self.due_ns.unwrap_or(u64::MAX))
        }
    }

    const WAITED: u32 = crate::irq::lines::USB;
    const OTHER: u32 = crate::irq::lines::DMA;

    /// One `wait_for_irq` scenario; times are absolute virtual ns.
    #[derive(Debug)]
    struct WaitCase {
        quantum_ns: u64,
        start_ns: u64,
        devices: Vec<Sampled>,
        /// An exact IRQ assertion deadline and its line.
        exact: Option<(u64, u32)>,
        timeout_us: u64,
    }

    /// What a wait leaves behind: its result, the clock, the sampled
    /// devices and the interrupt controller.
    type WaitOutcome = (HwResult<u64>, u64, Vec<Sampled>, String);

    fn run_wait(case: &WaitCase, stepped: bool) -> WaitOutcome {
        let cost = CostModel { poll_delay_ns: case.quantum_ns, ..CostModel::default() };
        let mut bus = SystemBus::new(VirtualClock::new(cost), PhysMem::new(0, 4096));
        for dev in &case.devices {
            bus.attach(Box::new(Sampled { hide_quiet: stepped, ..dev.clone() })).unwrap();
        }
        bus.clock.advance_ns(case.start_ns);
        if let Some((at, line)) = case.exact {
            bus.irqs.assert_at(line, at);
        }
        let result = bus.wait_for_irq(WAITED, case.timeout_us, World::Secure);
        let devices = bus
            .devices
            .iter()
            .map(|d| {
                let d = (d.as_ref() as &dyn Any).downcast_ref::<Sampled>().unwrap();
                Sampled { hide_quiet: false, ..d.clone() }
            })
            .collect();
        (result, bus.clock.now_ns(), devices, format!("{:?}", bus.irqs))
    }

    /// splitmix64: a seeded generator, so a failing case replays.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n.max(1)
        }
    }

    fn random_case(rng: &mut Rng) -> WaitCase {
        let quantum_ns = [7, 250, 1_000, 3_333, 10_000][rng.below(5) as usize];
        let start_ns = rng.below(10 * quantum_ns);
        // About 300 quanta of interesting time after the start.
        let span_ns = (300 * quantum_ns).max(3_000);
        let timeout_us = rng.below(span_ns / 1_000 + 1);
        let timeout_end = start_ns + timeout_us * 1_000;
        let line = |rng: &mut Rng| if rng.below(3) == 0 { OTHER } else { WAITED };
        let devices = (0..1 + rng.below(2) as usize)
            .map(|slot| Sampled {
                slot,
                line: line(rng),
                // Idle, or due anywhere from before the start to past the
                // timeout.
                due_ns: (rng.below(4) != 0).then(|| rng.below(start_ns + span_ns * 5 / 4)),
                fired_ns: None,
                hide_quiet: false,
            })
            .collect();
        let exact = match rng.below(3) {
            0 => None,
            1 => Some((start_ns + 1 + rng.below(span_ns), line(rng))),
            _ => Some((timeout_end + 1 + rng.below(span_ns), line(rng))),
        };
        WaitCase { quantum_ns, start_ns, devices, exact, timeout_us }
    }

    #[test]
    fn skipping_quiet_quanta_is_indistinguishable_from_stepping() {
        let mut rng = Rng(0x5eed_0016);
        let mut outcomes = [0u32; 2];
        for i in 0..400 {
            let case = random_case(&mut rng);
            let skipped = run_wait(&case, false);
            let stepped = run_wait(&case, true);
            assert_eq!(skipped, stepped, "case {i}: {case:?}");
            outcomes[usize::from(skipped.0.is_err())] += 1;
        }
        // Both outcomes are well represented.
        assert!(outcomes.iter().all(|&n| n >= 50), "delivered/timed out: {outcomes:?}");
    }

    #[test]
    fn an_unbounded_timeout_saturates_instead_of_overflowing() {
        for timeout_us in [u64::MAX / 999, u64::MAX] {
            let idle =
                Sampled { slot: 0, line: WAITED, due_ns: None, fired_ns: None, hide_quiet: false };
            let mut bus = SystemBus::new(VirtualClock::default(), PhysMem::new(0, 4096));
            bus.attach(Box::new(idle)).unwrap();
            let err = bus.wait_for_irq(WAITED, timeout_us, World::Secure).unwrap_err();
            assert!(matches!(err, HwError::Timeout { .. }), "{err:?}");
            assert_eq!(bus.clock.now_ns(), u64::MAX);
        }
    }
}
