//! System DMA engine (one channel), control-block chained.
//!
//! The full MMC driver builds the Figure-4 descriptor topology in DMA memory:
//! one control block per 4 KiB data page, chained through the `NEXTCONBK`
//! field, with the head address written to `CONBLK_AD` and the channel kicked
//! through `CS.ACTIVE`. The engine walks the chain, moving bytes between
//! physical memory and the SDHOST data FIFO, which the owning
//! [`crate::MmcController`] lends it on every call.

use dlt_hw::device::{DeviceCtx, RegBank};
use dlt_hw::irq::lines;
use dlt_hw::{CostModel, PhysMem};

use crate::fifo::FifoLink;
use crate::regs::{dmacb, dmacs, dmareg, dmati};
use crate::SDHOST_DATA_BUS_ADDR;

/// One decoded control block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlBlock {
    /// Transfer information flags.
    pub ti: u32,
    /// Source physical address.
    pub source: u32,
    /// Destination physical address.
    pub dest: u32,
    /// Length in bytes.
    pub len: u32,
    /// Next control block physical address (0 terminates).
    pub next: u32,
}

impl ControlBlock {
    /// Decode a control block from physical memory.
    pub fn load(mem: &PhysMem, addr: u64) -> Option<ControlBlock> {
        Some(ControlBlock {
            ti: mem.read32(addr + dmacb::TI).ok()?,
            source: mem.read32(addr + dmacb::SOURCE_AD).ok()?,
            dest: mem.read32(addr + dmacb::DEST_AD).ok()?,
            len: mem.read32(addr + dmacb::TXFR_LEN).ok()?,
            next: mem.read32(addr + dmacb::NEXTCONBK).ok()?,
        })
    }
}

/// The DMA engine device model (a single channel, which is all the MMC
/// record campaign reserves — "the 15-th DMA channel", §7.1.2).
pub struct DmaEngine {
    regs: RegBank,
    cost: CostModel,
    /// Completion deadline of the in-flight chain walk.
    busy_until_ns: Option<u64>,
    /// Whether the chain still has data waiting on the FIFO (read path where
    /// the card has not produced data yet).
    pending_kick_ns: Option<u64>,
    /// Cached pre-flight FIFO demand of the pending chain. While a read
    /// chain waits for the card to fill the FIFO, the engine is ticked every
    /// delay quantum; re-walking the control blocks in memory on each tick
    /// dominated the replay hot path. Any register write or reset
    /// invalidates the cache.
    preflight_need: Option<u64>,
    /// Reusable transfer buffer (FIFO <-> memory staging).
    xfer: Vec<u8>,
    chains_executed: u64,
    bytes_transferred: u64,
}

impl DmaEngine {
    /// Create the engine.
    pub fn new(cost: CostModel) -> Self {
        let mut regs = RegBank::new();
        for (off, _) in dmareg::DMA_REGISTERS {
            regs.define(*off, 0);
        }
        DmaEngine {
            regs,
            cost,
            busy_until_ns: None,
            pending_kick_ns: None,
            preflight_need: None,
            xfer: Vec::new(),
            chains_executed: 0,
            bytes_transferred: 0,
        }
    }

    /// Number of control-block chains executed.
    pub fn chains_executed(&self) -> u64 {
        self.chains_executed
    }

    /// Total bytes moved by the engine.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    fn is_fifo_addr(addr: u32) -> bool {
        u64::from(addr) == SDHOST_DATA_BUS_ADDR
    }

    /// Attempt to execute the whole chain. Returns `false` if the chain needs
    /// FIFO data that is not available yet (the card is still reading media),
    /// in which case the walk is retried on a later tick.
    fn try_run_chain(&mut self, fifo: &mut FifoLink, ctx: &mut DeviceCtx<'_>) -> bool {
        let now_ns = ctx.now_ns;
        let head = u64::from(self.regs.get(dmareg::CONBLK_AD));
        if head == 0 {
            self.regs.set_bits(dmareg::DEBUG, 1); // "read error" style flag
            self.finish(now_ns, false);
            return true;
        }

        // Pre-flight: if any CB pulls from the FIFO, the FIFO must be ready
        // and contain enough bytes for the whole chain. The walked demand is
        // cached as a *negative* gate across retry ticks (any register write
        // or reset invalidates it): while the FIFO is still short of the
        // cached demand the engine skips the memory walk entirely — that
        // walk per tick dominated the replay hot path. Once the gate
        // passes, the demand is re-walked fresh so software that rewrote the
        // control blocks in place is still honoured before any side effect.
        if let Some(cached) = self.preflight_need {
            if cached > 0 && (!fifo.data_ready(now_ns) || (fifo.level() as u64) < cached) {
                return false;
            }
        }
        let need_from_fifo = {
            let mut addr = head;
            let mut need: u64 = 0;
            let mut hops = 0;
            while addr != 0 && hops < 4096 {
                let Some(cb) = ControlBlock::load(ctx.mem, addr) else {
                    self.regs.set_bits(dmareg::DEBUG, 1);
                    self.finish(now_ns, false);
                    return true;
                };
                if Self::is_fifo_addr(cb.source) {
                    need += u64::from(cb.len);
                }
                addr = u64::from(cb.next);
                hops += 1;
            }
            need
        };
        if need_from_fifo > 0
            && (!fifo.data_ready(now_ns) || (fifo.level() as u64) < need_from_fifo)
        {
            self.preflight_need = Some(need_from_fifo);
            return false;
        }
        self.preflight_need = None;

        // Execute the chain.
        let mut addr = head;
        let mut total: u64 = 0;
        let mut hops = 0;
        let mut want_irq = false;
        while addr != 0 && hops < 4096 {
            let Some(cb) = ControlBlock::load(ctx.mem, addr) else { break };
            self.regs.set(dmareg::TI, cb.ti);
            self.regs.set(dmareg::SOURCE_AD, cb.source);
            self.regs.set(dmareg::DEST_AD, cb.dest);
            self.regs.set(dmareg::TXFR_LEN, cb.len);
            self.regs.set(dmareg::NEXTCONBK, cb.next);
            want_irq |= cb.ti & dmati::INTEN != 0;

            let len = cb.len as usize;
            if self.xfer.len() < len {
                self.xfer.resize(len, 0);
            }
            match (Self::is_fifo_addr(cb.source), Self::is_fifo_addr(cb.dest)) {
                (true, false) => {
                    // Peripheral -> memory (read path), staged through the
                    // reusable transfer buffer.
                    let taken = fifo.pop_into(&mut self.xfer[..len]);
                    let _ = ctx.mem.write_bytes(u64::from(cb.dest), &self.xfer[..taken]);
                }
                (false, true) => {
                    // Memory -> peripheral (write path). A failed source
                    // read yields zeros, like the fresh buffer it replaced.
                    if ctx.mem.read_bytes(u64::from(cb.source), &mut self.xfer[..len]).is_err() {
                        self.xfer[..len].fill(0);
                    }
                    fifo.push_bytes(&self.xfer[..len]);
                }
                (false, false) => {
                    // Memory -> memory copy (unused by the MMC path but
                    // architecturally valid).
                    if ctx.mem.read_bytes(u64::from(cb.source), &mut self.xfer[..len]).is_err() {
                        self.xfer[..len].fill(0);
                    }
                    let _ = ctx.mem.write_bytes(u64::from(cb.dest), &self.xfer[..len]);
                }
                (true, true) => {
                    self.regs.set_bits(dmareg::DEBUG, 2);
                }
            }
            total += u64::from(cb.len);
            addr = u64::from(cb.next);
            hops += 1;
        }

        self.bytes_transferred += total;
        self.chains_executed += 1;
        let pages = total.div_ceil(4096).max(1);
        let done_ns = now_ns + self.cost.dma_transfer(pages);
        self.busy_until_ns = Some(done_ns);
        if want_irq {
            ctx.irqs.assert_at(lines::DMA, done_ns);
        }
        true
    }

    fn finish(&mut self, _now_ns: u64, ok: bool) {
        let mut cs = self.regs.get(dmareg::CS);
        cs &= !dmacs::ACTIVE;
        cs |= dmacs::END | dmacs::INT;
        if !ok {
            cs |= dmacs::ERROR;
        }
        self.regs.set(dmareg::CS, cs);
    }

    fn progress(&mut self, fifo: &mut FifoLink, ctx: &mut DeviceCtx<'_>) {
        let now_ns = ctx.now_ns;
        if let Some(kick) = self.pending_kick_ns {
            if now_ns >= kick && self.try_run_chain(fifo, ctx) {
                self.pending_kick_ns = None;
            }
        }
        if let Some(done) = self.busy_until_ns {
            if now_ns >= done {
                self.busy_until_ns = None;
                self.finish(now_ns, true);
            }
        }
    }

    /// Read a register at `offset` from the DMA window base.
    pub fn read32(&mut self, offset: u64, fifo: &mut FifoLink, ctx: &mut DeviceCtx<'_>) -> u32 {
        self.progress(fifo, ctx);
        self.regs.get(offset)
    }

    /// Write a register at `offset` from the DMA window base.
    pub fn write32(&mut self, offset: u64, val: u32, fifo: &mut FifoLink, ctx: &mut DeviceCtx<'_>) {
        self.progress(fifo, ctx);
        // Software may be rewriting the chain: drop the pre-flight cache.
        self.preflight_need = None;
        match offset {
            dmareg::CS => {
                if val & dmacs::RESET != 0 {
                    self.soft_reset();
                    return;
                }
                let mut cs = self.regs.get(dmareg::CS);
                // Write-1-to-clear for END / INT.
                cs &= !(val & (dmacs::END | dmacs::INT));
                if val & dmacs::ABORT != 0 {
                    self.busy_until_ns = None;
                    self.pending_kick_ns = None;
                    cs &= !dmacs::ACTIVE;
                }
                if val & dmacs::ACTIVE != 0 {
                    cs |= dmacs::ACTIVE;
                    self.regs.set(dmareg::CS, cs);
                    self.pending_kick_ns = Some(ctx.now_ns);
                    self.progress(fifo, ctx);
                    return;
                }
                self.regs.set(dmareg::CS, cs);
            }
            _ => self.regs.set(offset, val),
        }
        self.progress(fifo, ctx);
    }

    /// Make progress up to `ctx.now_ns`.
    pub fn tick(&mut self, fifo: &mut FifoLink, ctx: &mut DeviceCtx<'_>) {
        self.progress(fifo, ctx);
    }

    /// Soft reset: an idle channel with reset registers.
    pub fn soft_reset(&mut self) {
        self.regs.reset();
        self.busy_until_ns = None;
        self.pending_kick_ns = None;
        self.preflight_need = None;
    }

    /// Whether no chain is pending or running.
    pub fn is_idle(&self) -> bool {
        self.busy_until_ns.is_none() && self.pending_kick_ns.is_none()
    }

    /// The engine's next time-driven transition, if any.
    pub fn next_deadline_ns(&self, fifo: &FifoLink) -> Option<u64> {
        // A pending read chain becomes runnable once the card's FIFO data is
        // valid; a running chain completes at its transfer deadline.
        let kick = self.pending_kick_ns.map(|_| fifo.ready_at());
        match (self.busy_until_ns, kick) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::FifoDir;
    use dlt_hw::IrqController;

    /// An engine with the FIFO, memory and interrupt controller its owner
    /// and the bus would lend it.
    struct Rig {
        dma: DmaEngine,
        fifo: FifoLink,
        mem: PhysMem,
        irqs: IrqController,
    }

    impl Rig {
        fn new() -> Self {
            Rig {
                dma: DmaEngine::new(CostModel::default()),
                fifo: FifoLink::new(),
                mem: PhysMem::new(0, 1 << 20),
                irqs: IrqController::new(),
            }
        }

        fn ctx(&mut self, now_ns: u64) -> (&mut DmaEngine, &mut FifoLink, DeviceCtx<'_>) {
            let ctx = DeviceCtx { now_ns, mem: &mut self.mem, irqs: &mut self.irqs };
            (&mut self.dma, &mut self.fifo, ctx)
        }

        fn read32(&mut self, offset: u64, now: u64) -> u32 {
            let (dma, fifo, mut ctx) = self.ctx(now);
            dma.read32(offset, fifo, &mut ctx)
        }

        fn write32(&mut self, offset: u64, val: u32, now: u64) {
            let (dma, fifo, mut ctx) = self.ctx(now);
            dma.write32(offset, val, fifo, &mut ctx)
        }

        fn tick(&mut self, now: u64) {
            let (dma, fifo, mut ctx) = self.ctx(now);
            dma.tick(fifo, &mut ctx)
        }
    }

    fn write_cb(m: &mut PhysMem, addr: u64, cb: &ControlBlock) {
        m.write32(addr + dmacb::TI, cb.ti).unwrap();
        m.write32(addr + dmacb::SOURCE_AD, cb.source).unwrap();
        m.write32(addr + dmacb::DEST_AD, cb.dest).unwrap();
        m.write32(addr + dmacb::TXFR_LEN, cb.len).unwrap();
        m.write32(addr + dmacb::STRIDE, 0).unwrap();
        m.write32(addr + dmacb::NEXTCONBK, cb.next).unwrap();
    }

    #[test]
    fn memory_to_memory_copy() {
        let mut rig = Rig::new();
        rig.mem.write_bytes(0x2000, &[7u8; 64]).unwrap();
        write_cb(
            &mut rig.mem,
            0x1000,
            &ControlBlock { ti: dmati::INTEN, source: 0x2000, dest: 0x3000, len: 64, next: 0 },
        );
        rig.write32(dmareg::CONBLK_AD, 0x1000, 0);
        rig.write32(dmareg::CS, dmacs::ACTIVE, 0);
        rig.tick(10_000_000);
        let mut out = [0u8; 64];
        rig.mem.read_bytes(0x3000, &mut out).unwrap();
        assert_eq!(out, [7u8; 64]);
        assert!(rig.read32(dmareg::CS, 10_000_000) & dmacs::END != 0);
        assert_eq!(rig.dma.chains_executed(), 1);
    }

    #[test]
    fn fifo_to_memory_waits_for_data_readiness() {
        let mut rig = Rig::new();
        // Card data appears at t=1ms.
        rig.fifo.begin(FifoDir::CardToHost, 1_000_000);
        rig.fifo.push_bytes(&[0xcd; 512]);
        write_cb(
            &mut rig.mem,
            0x1000,
            &ControlBlock {
                ti: dmati::INTEN | dmati::SRC_DREQ,
                source: SDHOST_DATA_BUS_ADDR as u32,
                dest: 0x4000,
                len: 512,
                next: 0,
            },
        );
        rig.write32(dmareg::CONBLK_AD, 0x1000, 0);
        rig.write32(dmareg::CS, dmacs::ACTIVE, 0);
        // Before the data is ready nothing moves.
        rig.tick(500_000);
        assert_eq!(rig.mem.read8(0x4000).unwrap(), 0);
        assert!(rig.read32(dmareg::CS, 500_000) & dmacs::END == 0);
        // After readiness the chain runs.
        rig.tick(1_100_000);
        rig.tick(20_000_000);
        assert_eq!(rig.mem.read8(0x4000).unwrap(), 0xcd);
        assert!(rig.read32(dmareg::CS, 20_000_000) & dmacs::END != 0);
    }

    #[test]
    fn chained_blocks_all_execute_and_raise_irq() {
        let mut rig = Rig::new();
        rig.fifo.begin(FifoDir::HostToCard, 0);
        rig.mem.write_bytes(0x8000, &[1u8; 4096]).unwrap();
        rig.mem.write_bytes(0x9000, &[2u8; 4096]).unwrap();
        write_cb(
            &mut rig.mem,
            0x1000,
            &ControlBlock {
                ti: 0,
                source: 0x8000,
                dest: SDHOST_DATA_BUS_ADDR as u32,
                len: 4096,
                next: 0x1020,
            },
        );
        write_cb(
            &mut rig.mem,
            0x1020,
            &ControlBlock {
                ti: dmati::INTEN,
                source: 0x9000,
                dest: SDHOST_DATA_BUS_ADDR as u32,
                len: 4096,
                next: 0,
            },
        );
        rig.write32(dmareg::CONBLK_AD, 0x1000, 0);
        rig.write32(dmareg::CS, dmacs::ACTIVE, 0);
        rig.tick(50_000_000);
        assert_eq!(rig.fifo.level(), 8192);
        assert_eq!(rig.dma.bytes_transferred(), 8192);
        assert!(rig.irqs.assert_count() > 0);
    }

    #[test]
    fn abort_stops_a_pending_chain() {
        let mut rig = Rig::new();
        rig.fifo.begin(FifoDir::CardToHost, u64::MAX); // never ready
        write_cb(
            &mut rig.mem,
            0x1000,
            &ControlBlock {
                ti: 0,
                source: SDHOST_DATA_BUS_ADDR as u32,
                dest: 0x4000,
                len: 512,
                next: 0,
            },
        );
        rig.write32(dmareg::CONBLK_AD, 0x1000, 0);
        rig.write32(dmareg::CS, dmacs::ACTIVE, 0);
        assert!(!rig.dma.is_idle());
        rig.write32(dmareg::CS, dmacs::ABORT, 10);
        assert!(rig.dma.is_idle());
        assert!(rig.read32(dmareg::CS, 10) & dmacs::ACTIVE == 0);
    }

    #[test]
    fn null_head_is_an_error() {
        let mut rig = Rig::new();
        rig.write32(dmareg::CONBLK_AD, 0, 0);
        rig.write32(dmareg::CS, dmacs::ACTIVE, 0);
        rig.tick(1_000);
        assert!(rig.read32(dmareg::DEBUG, 1_000) & 1 != 0);
        assert!(rig.read32(dmareg::CS, 1_000) & dmacs::ERROR != 0);
    }

    #[test]
    fn cs_end_and_int_are_write_one_to_clear() {
        let mut rig = Rig::new();
        write_cb(
            &mut rig.mem,
            0x1000,
            &ControlBlock { ti: 0, source: 0x2000, dest: 0x3000, len: 16, next: 0 },
        );
        rig.write32(dmareg::CONBLK_AD, 0x1000, 0);
        rig.write32(dmareg::CS, dmacs::ACTIVE, 0);
        rig.tick(10_000_000);
        assert!(rig.read32(dmareg::CS, 10_000_000) & (dmacs::END | dmacs::INT) != 0);
        rig.write32(dmareg::CS, dmacs::END | dmacs::INT, 10_000_000);
        assert_eq!(rig.read32(dmareg::CS, 10_000_000) & (dmacs::END | dmacs::INT), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut rig = Rig::new();
        rig.write32(dmareg::CONBLK_AD, 0x1234, 0);
        rig.write32(dmareg::CS, dmacs::RESET, 0);
        assert_eq!(rig.read32(dmareg::CONBLK_AD, 0), 0);
        assert!(rig.dma.is_idle());
    }
}
