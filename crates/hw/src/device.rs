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

/// A dense register bank helper for device models.
///
/// Most simulated devices keep their architectural registers here and overlay
/// side effects in their `read32`/`write32` implementations.
///
/// Register access sits on the replay hot path (every simulated MMIO access
/// and most device state machines go through it), so the bank is a vector
/// indexed by `offset / 4` and a read is one indexed load. Offsets are word
/// aligned: the bus rejects misaligned accesses before they reach a device.
/// A reset image of the same length holds each defined register's reset
/// value and 0 everywhere else, so [`RegBank::reset`] is one copy. An
/// undefined register reads 0, keeps a written value until the next reset
/// and reads 0 again after it.
#[derive(Debug, Clone, Default)]
pub struct RegBank {
    /// Current values, indexed by `offset / 4`.
    regs: Vec<u32>,
    /// Reset values, as long as `regs`; 0 for undefined registers.
    reset_image: Vec<u32>,
}

/// The bank index of a word-aligned register offset.
fn word_index(offset: u64) -> usize {
    debug_assert!(offset.is_multiple_of(4), "misaligned register offset {offset:#x}");
    (offset / 4) as usize
}

impl RegBank {
    /// Empty register bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index of `offset`, growing the bank on its first write past the
    /// end.
    fn slot(&mut self, offset: u64) -> usize {
        let i = word_index(offset);
        if i >= self.regs.len() {
            self.regs.resize(i + 1, 0);
            self.reset_image.resize(i + 1, 0);
        }
        i
    }

    /// Define a register with a reset value.
    pub fn define(&mut self, offset: u64, reset_value: u32) {
        let i = self.slot(offset);
        self.reset_image[i] = reset_value;
        self.regs[i] = reset_value;
    }

    /// Read a register (undefined registers read as zero, like reserved
    /// addresses on most SoCs).
    pub fn get(&self, offset: u64) -> u32 {
        self.regs.get(word_index(offset)).copied().unwrap_or(0)
    }

    /// Write a register.
    pub fn set(&mut self, offset: u64, val: u32) {
        let i = self.slot(offset);
        self.regs[i] = val;
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

    /// Restore every defined register to its reset value and every other
    /// register to 0, in place (soft resets happen before every template
    /// execution).
    pub fn reset(&mut self) {
        self.regs.copy_from_slice(&self.reset_image);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

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
        assert_eq!(bank.get(0x100), 0xbeef, "an undefined register keeps a write");
        bank.reset();
        assert_eq!(bank.get(0x0), 0x1234);
        assert_eq!(bank.get(0x4), 0);
        assert_eq!(bank.get(0x100), 0, "undefined registers read 0 again after reset");
        assert_eq!(bank.get(0x2000), 0, "reads past the end read 0");
    }

    #[test]
    fn regbank_bit_operations() {
        let mut bank = RegBank::new();
        bank.define(0x8, 0);
        bank.set_bits(0x8, 0b1010);
        assert_eq!(bank.get(0x8), 0b1010);
        bank.clear_bits(0x8, 0b0010);
        assert_eq!(bank.get(0x8), 0b1000);
    }

    /// The bank against a map model of the old sparse semantics: defined
    /// registers reset to their value, undefined ones are dropped on reset.
    #[test]
    fn regbank_matches_a_map_model_on_random_sequences() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        for _ in 0..300 {
            let mut bank = RegBank::new();
            let mut regs = BTreeMap::new();
            let mut resets = BTreeMap::new();
            for _ in 0..64 {
                // Offsets up to 0x200, past the defined ones at 0x100 and
                // beyond; undefined offsets fall between them.
                let off = 4 * next(0x80);
                let val = next(1 << 32) as u32;
                match next(6) {
                    0 if off < 0x100 => {
                        bank.define(off, val);
                        resets.insert(off, val);
                        regs.insert(off, val);
                    }
                    0 | 1 => {
                        bank.set(off, val);
                        regs.insert(off, val);
                    }
                    2 => {
                        bank.set_bits(off, val);
                        *regs.entry(off).or_insert(0) |= val;
                    }
                    3 => {
                        bank.clear_bits(off, val);
                        *regs.entry(off).or_insert(0) &= !val;
                    }
                    4 => {
                        bank.reset();
                        regs.clone_from(&resets);
                    }
                    _ => {}
                }
                let probe = 4 * next(0x90);
                assert_eq!(bank.get(probe), regs.get(&probe).copied().unwrap_or(0));
                assert_eq!(bank.get(off), regs.get(&off).copied().unwrap_or(0));
            }
        }
    }
}
