//! The device-model trait implemented by every simulated IO device.
//!
//! The paper's system model (§3.1) assumes a device is a reactive FSM driven
//! purely through its register/shared-memory/interrupt interface, whose state
//! transitions are independent of the IO data content. The [`MmioDevice`]
//! trait captures exactly that interface; the MMC, USB and VC4/VCHIQ
//! simulators in `dlt-dev-*` implement it.

use std::any::Any;

use crate::irq::IrqController;
use crate::mem::PhysMem;

/// One register window a device serves on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Stable bus name, e.g. `"sdhost"`, `"dma"`, `"dwc2"`, `"vchiq"`.
    pub name: &'static str,
    /// Physical base address.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
    /// The interrupt line the block behind this window asserts, if any.
    pub irq_line: Option<u32>,
}

/// What a device may touch while the bus drives it: the current virtual
/// time, physical memory (DMA, shared-memory queues) and the interrupt
/// controller. The bus lends it for one access, tick or reset; devices hold
/// no handle to any of it between calls.
pub struct DeviceCtx<'a> {
    /// Current virtual time in nanoseconds.
    pub now_ns: u64,
    /// The platform's physical memory.
    pub mem: &'a mut PhysMem,
    /// The platform's interrupt controller.
    pub irqs: &'a mut IrqController,
}

/// A memory-mapped device on the simulated SoC.
///
/// The bus owns every device by value and passes a [`DeviceCtx`] into each
/// call, so a device model is plain state with no shared handles. A device
/// may serve several register windows (the MMC controller serves the SDHOST
/// and system DMA windows, which share a data FIFO); `window` indexes
/// [`MmioDevice::windows`]. Tests reach the concrete type through
/// [`crate::SystemBus::device`].
pub trait MmioDevice: Any + Send {
    /// The register windows this device serves.
    fn windows(&self) -> &'static [Window];

    /// Read a 32-bit register at `offset` from the window base.
    fn read32(&mut self, window: usize, offset: u64, ctx: &mut DeviceCtx<'_>) -> u32;

    /// Write a 32-bit register at `offset` from the window base.
    fn write32(&mut self, window: usize, offset: u64, val: u32, ctx: &mut DeviceCtx<'_>);

    /// Let the device make forward progress up to `ctx.now_ns` (complete
    /// DMA, assert interrupts whose deadlines passed, etc.).
    fn tick(&mut self, ctx: &mut DeviceCtx<'_>);

    /// Soft reset the block behind `window`: return it to the clean
    /// post-initialisation state, as if it had just finished its boot-time
    /// bring-up. This is the recovery primitive the replayer uses between
    /// templates and on divergence (§5).
    fn soft_reset(&mut self, window: usize, ctx: &mut DeviceCtx<'_>);

    /// The next virtual time at which this device will make progress on its
    /// own (an internal completion deadline such as media latency), if one
    /// is known. [`crate::SystemBus::wait_for_irq`] jumps straight to it:
    /// the device is ticked at exactly that time, not at the next polling
    /// quantum, so reporting a deadline is part of the device's timing
    /// model and moves virtual time. Returning `None` (the default) leaves
    /// the device sampled on the polling quantum.
    fn next_deadline_ns(&self) -> Option<u64> {
        None
    }

    /// The earliest virtual time at which [`MmioDevice::tick`] could change
    /// this device: before it, every tick is a no-op and raises no
    /// interrupt. `Some(u64::MAX)` means nothing is pending; a time at or
    /// before now means the next tick may act. `None` (the default) means
    /// unknown.
    ///
    /// Unlike [`MmioDevice::next_deadline_ns`] this does not change when the
    /// device is sampled. [`crate::SystemBus::wait_for_irq`] uses it only to
    /// skip polling quanta at which no tick could do anything, and still
    /// lands on the quantum at which stepping would first have seen the
    /// change, so virtual time is the same with or without it.
    fn quiet_until_ns(&self) -> Option<u64> {
        None
    }
}

/// A tiny sparse register bank helper for device models.
///
/// Most simulated devices keep their architectural registers here and overlay
/// side effects in their `read32`/`write32` implementations.
///
/// Register access sits on the replay hot path (every simulated MMIO access
/// and most device state machines go through it), so the bank is a sorted
/// vector with binary search rather than a tree map — a few dozen registers
/// fit in one or two cache lines — and [`RegBank::reset`] restores in place
/// without reallocating.
#[derive(Debug, Clone, Default)]
pub struct RegBank {
    /// `(offset, value)` sorted by offset.
    regs: Vec<(u64, u32)>,
    /// `(offset, reset value)` sorted by offset; only defined registers.
    reset_values: Vec<(u64, u32)>,
}

fn sorted_set(v: &mut Vec<(u64, u32)>, offset: u64, val: u32) {
    match v.binary_search_by_key(&offset, |e| e.0) {
        Ok(i) => v[i].1 = val,
        Err(i) => v.insert(i, (offset, val)),
    }
}

impl RegBank {
    /// Empty register bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a register with a reset value.
    pub fn define(&mut self, offset: u64, reset_value: u32) {
        sorted_set(&mut self.reset_values, offset, reset_value);
        sorted_set(&mut self.regs, offset, reset_value);
    }

    /// Read a register (undefined registers read as zero, like reserved
    /// addresses on most SoCs).
    pub fn get(&self, offset: u64) -> u32 {
        match self.regs.binary_search_by_key(&offset, |e| e.0) {
            Ok(i) => self.regs[i].1,
            Err(_) => 0,
        }
    }

    /// Write a register.
    pub fn set(&mut self, offset: u64, val: u32) {
        sorted_set(&mut self.regs, offset, val);
    }

    /// Set bits in a register.
    pub fn set_bits(&mut self, offset: u64, bits: u32) {
        let v = self.get(offset) | bits;
        self.set(offset, v);
    }

    /// Clear bits in a register.
    pub fn clear_bits(&mut self, offset: u64, bits: u32) {
        let v = self.get(offset) & !bits;
        self.set(offset, v);
    }

    /// Whether all of `bits` are set.
    pub fn has_bits(&self, offset: u64, bits: u32) -> bool {
        self.get(offset) & bits == bits
    }

    /// Restore every defined register to its reset value and drop the rest.
    /// Reuses the existing allocation (soft resets happen before every
    /// template execution).
    pub fn reset(&mut self) {
        self.regs.clone_from(&self.reset_values);
    }

    /// Number of defined (architected) registers.
    pub fn defined_count(&self) -> usize {
        self.reset_values.len()
    }

    /// Offsets of all registers that have ever been written or defined.
    pub fn offsets(&self) -> Vec<u64> {
        self.regs.iter().map(|e| e.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regbank_defaults_to_zero() {
        let bank = RegBank::new();
        assert_eq!(bank.get(0x40), 0);
    }

    #[test]
    fn regbank_define_and_reset() {
        let mut bank = RegBank::new();
        bank.define(0x0, 0x1234);
        bank.define(0x4, 0x0);
        bank.set(0x0, 0xdead);
        bank.set(0x100, 0xbeef); // undefined scratch register
        assert_eq!(bank.get(0x0), 0xdead);
        bank.reset();
        assert_eq!(bank.get(0x0), 0x1234);
        assert_eq!(bank.get(0x100), 0, "undefined registers are dropped on reset");
        assert_eq!(bank.defined_count(), 2);
    }

    #[test]
    fn regbank_bit_operations() {
        let mut bank = RegBank::new();
        bank.define(0x8, 0);
        bank.set_bits(0x8, 0b1010);
        assert!(bank.has_bits(0x8, 0b1000));
        assert!(!bank.has_bits(0x8, 0b0100));
        bank.clear_bits(0x8, 0b0010);
        assert_eq!(bank.get(0x8), 0b1000);
    }

    #[test]
    fn regbank_offsets_listing() {
        let mut bank = RegBank::new();
        bank.define(0x0, 0);
        bank.define(0x8, 0);
        bank.set(0x4, 7);
        let offs = bank.offsets();
        assert_eq!(offs, vec![0x0, 0x4, 0x8]);
    }
}
