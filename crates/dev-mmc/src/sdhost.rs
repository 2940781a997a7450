//! BCM2835-SDHOST-style MMC controller model.
//!
//! The controller sits between the driver-visible register file and the
//! [`crate::card::SdCard`]. Data moves through a FIFO which is either drained
//! by PIO accesses to `SDDATA` or by the system DMA engine
//! ([`crate::dma::DmaEngine`]), which borrows the controller's
//! [`crate::fifo::FifoLink`] from the [`crate::MmcController`] owning both.
//!
//! The model reproduces the behaviours the paper's templates depend on:
//!
//! * command execution is signalled by the `NEW_FLAG` bit in `SDCMD`
//!   clearing (the full driver polls for this — the polling loop the recorder
//!   lifts into a `poll` meta event),
//! * block/busy completion raises `SDHSTS` bits and, when enabled in
//!   `SDHCFG`, the MMC interrupt line,
//! * on the read path the last three words of a transfer are only available
//!   through `SDDATA` PIO (the SoC quirk from §7.1.3),
//! * `SDEDM` exposes the internal FSM state and FIFO occupancy — the register
//!   the paper's fault-injection experiment sees diverge when the medium is
//!   unplugged (§8.2.1).

use dlt_hw::device::{DeviceCtx, RegBank};
use dlt_hw::irq::lines;
use dlt_hw::CostModel;

use crate::card::{CmdResult, SdCard};
use crate::fifo::{FifoDir, FifoLink};
use crate::regs::{self, sdcmd, sdedm, sdhcfg, sdhsts};
use crate::BLOCK_SIZE;

/// An in-flight data operation.
#[derive(Debug, Clone)]
struct DataOp {
    read: bool,
    lba: u32,
    blocks: u32,
    block_size: usize,
    /// Virtual time when the card finishes the media access.
    media_deadline_ns: u64,
    /// Whether completion status/interrupt has been posted.
    completed: bool,
    /// Write path: whether the host data has been committed to the card.
    committed: bool,
}

/// The SDHOST controller with its SD card and data FIFO.
pub struct SdHost {
    regs: RegBank,
    card: SdCard,
    pub(crate) fifo: FifoLink,
    cost: CostModel,
    /// Deadline at which the currently issued command's NEW_FLAG clears.
    cmd_done_ns: Option<u64>,
    op: Option<DataOp>,
    powered: bool,
    commands_issued: u64,
    irqs_raised: u64,
}

impl SdHost {
    /// Create a controller wrapping `card`.
    pub fn new(card: SdCard, cost: CostModel) -> Self {
        let mut regs = RegBank::new();
        for (off, _) in regs::SDHOST_REGISTERS {
            regs.define(*off, 0);
        }
        regs.define(regs::SDVER, 0x2835_0001);
        regs.define(regs::SDEDM, sdedm::FSM_IDENTMODE);
        SdHost {
            regs,
            card,
            fifo: FifoLink::new(),
            cost,
            cmd_done_ns: None,
            op: None,
            powered: false,
            commands_issued: 0,
            irqs_raised: 0,
        }
    }

    /// Immutable access to the card (validation scripts).
    pub fn card(&self) -> &SdCard {
        &self.card
    }

    /// Mutable access to the card (fault injection, fixture preparation).
    pub fn card_mut(&mut self) -> &mut SdCard {
        &mut self.card
    }

    /// Number of commands issued since creation.
    pub fn commands_issued(&self) -> u64 {
        self.commands_issued
    }

    /// Number of interrupts raised since creation.
    pub fn irqs_raised(&self) -> u64 {
        self.irqs_raised
    }

    fn irq_enabled_for(&self, sts_bits: u32) -> bool {
        let cfg = self.regs.get(regs::SDHCFG);
        (sts_bits & sdhsts::BLOCK_IRPT != 0 && cfg & sdhcfg::BLOCK_IRPT_EN != 0)
            || (sts_bits & sdhsts::BUSY_IRPT != 0 && cfg & sdhcfg::BUSY_IRPT_EN != 0)
            || (sts_bits & sdhsts::SDIO_IRPT != 0 && cfg & sdhcfg::SDIO_IRPT_EN != 0)
    }

    fn post_status(&mut self, bits: u32, ctx: &mut DeviceCtx<'_>) {
        self.regs.set_bits(regs::SDHSTS, bits);
        if self.irq_enabled_for(bits) {
            ctx.irqs.assert_at(lines::MMC, ctx.now_ns + self.cost.irq_delivery_ns);
            self.irqs_raised += 1;
        }
    }

    fn set_fsm(&mut self, fsm: u32) {
        let level = self.fifo.level_words() as u32;
        let edm = (fsm & sdedm::FSM_MASK)
            | ((level.min(sdedm::FIFO_LEVEL_MASK)) << sdedm::FIFO_LEVEL_SHIFT);
        self.regs.set(regs::SDEDM, edm);
    }

    fn issue_command(&mut self, cmdreg: u32, ctx: &mut DeviceCtx<'_>) {
        let now_ns = ctx.now_ns;
        self.commands_issued += 1;
        let index = (cmdreg & sdcmd::INDEX_MASK) as u8;
        let arg = self.regs.get(regs::SDARG);
        let result = if self.powered { self.card.execute(index, arg) } else { CmdResult::Timeout };

        // Responses land in SDRSP0..3.
        match &result {
            CmdResult::R1(v)
            | CmdResult::R1Busy(v)
            | CmdResult::R3(v)
            | CmdResult::R6(v)
            | CmdResult::R7(v) => {
                self.regs.set(regs::SDRSP0, *v);
            }
            CmdResult::R2(words) => {
                self.regs.set(regs::SDRSP0, words[3]);
                self.regs.set(regs::SDRSP1, words[2]);
                self.regs.set(regs::SDRSP2, words[1]);
                self.regs.set(regs::SDRSP3, words[0]);
            }
            CmdResult::NoResponse => {}
            CmdResult::Timeout => {}
        }

        let mut newcmd = cmdreg;
        if matches!(result, CmdResult::Timeout) {
            newcmd |= sdcmd::FAIL_FLAG;
            self.post_status(sdhsts::CMD_TIME_OUT, ctx);
            // The command never really executes; NEW clears after the timeout
            // interval so the polling driver observes the failure.
            self.cmd_done_ns = Some(now_ns + self.cost.sd_cmd_ns);
            self.regs.set(regs::SDCMD, newcmd);
            self.set_fsm(sdedm::FSM_IDENTMODE);
            return;
        }

        self.regs.set(regs::SDCMD, newcmd);
        self.cmd_done_ns = Some(now_ns + self.cost.sd_cmd_ns);

        let is_read = cmdreg & sdcmd::READ_CMD != 0;
        let is_write = cmdreg & sdcmd::WRITE_CMD != 0;
        if is_read || is_write {
            let blocks = self.regs.get(regs::SDHBLC).max(1);
            let block_size = (self.regs.get(regs::SDHBCT) as usize).max(BLOCK_SIZE);
            let media_ns = if is_read {
                self.cost.sd_transaction_overhead_ns
                    + u64::from(blocks) * self.cost.sd_read_block_ns
            } else {
                self.cost.sd_transaction_overhead_ns
                    + u64::from(blocks) * self.cost.sd_write_block_ns
            };
            let media_deadline_ns = now_ns + self.cost.sd_cmd_ns + media_ns;

            if is_read {
                // Stream the data out of the card now; it becomes visible to
                // the FIFO consumers only once the media deadline passes.
                self.fifo.begin(FifoDir::CardToHost, media_deadline_ns);
                if let Some(data) = self.card.read_blocks(u64::from(arg), blocks) {
                    for block in data {
                        self.fifo.push_bytes(block);
                    }
                }
                self.set_fsm(sdedm::FSM_READDATA);
            } else {
                self.fifo.begin(FifoDir::HostToCard, now_ns);
                self.set_fsm(sdedm::FSM_WRITEDATA);
            }

            self.op = Some(DataOp {
                read: is_read,
                lba: arg,
                blocks,
                block_size,
                media_deadline_ns,
                completed: false,
                committed: false,
            });
        } else {
            self.set_fsm(sdedm::FSM_DATAMODE);
        }
    }

    fn progress(&mut self, ctx: &mut DeviceCtx<'_>) {
        let now_ns = ctx.now_ns;
        // Command-done: clear NEW_FLAG so pollers observe completion.
        if let Some(done) = self.cmd_done_ns {
            if now_ns >= done {
                let v = self.regs.get(regs::SDCMD) & !sdcmd::NEW_FLAG;
                self.regs.set(regs::SDCMD, v);
                self.cmd_done_ns = None;
            }
        }

        let Some(mut op) = self.op.take() else { return };

        if op.read {
            if !op.completed && now_ns >= op.media_deadline_ns {
                op.completed = true;
                self.post_status(sdhsts::DATA_FLAG | sdhsts::BLOCK_IRPT, ctx);
                self.set_fsm(sdedm::FSM_READDATA);
            }
            // The read op retires once the FIFO has been fully drained.
            if op.completed && self.fifo.level() == 0 {
                self.fifo.finish();
                self.set_fsm(sdedm::FSM_DATAMODE);
                self.op = None;
                return;
            }
        } else {
            let expected = op.blocks as usize * op.block_size;
            if !op.committed {
                let level = self.fifo.level();
                if level >= expected
                    && now_ns
                        >= op
                            .media_deadline_ns
                            .saturating_sub(u64::from(op.blocks) * self.cost.sd_write_block_ns)
                {
                    let lba = u64::from(op.lba);
                    let ok = self
                        .fifo
                        .pop_contiguous(expected, |data| self.card.write_blocks(lba, data));
                    op.committed = true;
                    if !ok {
                        self.post_status(sdhsts::REW_TIME_OUT, ctx);
                        self.set_fsm(sdedm::FSM_IDENTMODE);
                        self.fifo.finish();
                        self.op = None;
                        return;
                    }
                    self.set_fsm(sdedm::FSM_WRITEWAIT1);
                }
            }
            if op.committed && !op.completed && now_ns >= op.media_deadline_ns {
                self.post_status(sdhsts::BUSY_IRPT | sdhsts::BLOCK_IRPT, ctx);
                self.fifo.finish();
                self.set_fsm(sdedm::FSM_DATAMODE);
                self.op = None;
                return;
            }
        }
        self.op = Some(op);
    }

    /// Read a register at `offset` from the SDHOST window base.
    pub fn read32(&mut self, offset: u64, ctx: &mut DeviceCtx<'_>) -> u32 {
        self.progress(ctx);
        match offset {
            regs::SDDATA => {
                if self.fifo.data_ready(ctx.now_ns) && self.fifo.level() > 0 {
                    let w = self.fifo.pop_word();
                    self.progress(ctx);
                    w
                } else {
                    self.regs.set_bits(regs::SDHSTS, sdhsts::FIFO_ERROR);
                    0
                }
            }
            regs::SDEDM => {
                // Recompute the FIFO level field on every read: this is the
                // "time-dependent, not state-changing" input the paper uses
                // as its motivating example for constraint discovery (§4.2).
                let fsm = self.regs.get(regs::SDEDM) & sdedm::FSM_MASK;
                self.set_fsm(fsm);
                self.regs.get(regs::SDEDM)
            }
            _ => self.regs.get(offset),
        }
    }

    /// Write a register at `offset` from the SDHOST window base.
    pub fn write32(&mut self, offset: u64, val: u32, ctx: &mut DeviceCtx<'_>) {
        self.progress(ctx);
        match offset {
            regs::SDVDD => {
                self.powered = val & 1 != 0;
                self.regs.set(regs::SDVDD, val);
            }
            regs::SDHSTS => {
                // Write-1-to-clear.
                let cur = self.regs.get(regs::SDHSTS);
                self.regs.set(regs::SDHSTS, cur & !val);
                if val != 0 {
                    ctx.irqs.clear(lines::MMC);
                }
            }
            regs::SDCMD => {
                if val & sdcmd::NEW_FLAG != 0 {
                    self.issue_command(val, ctx);
                } else {
                    self.regs.set(regs::SDCMD, val);
                }
            }
            regs::SDDATA => {
                self.fifo.push_word(val);
                self.progress(ctx);
            }
            _ => self.regs.set(offset, val),
        }
        self.progress(ctx);
    }

    /// Make progress up to `ctx.now_ns`.
    pub fn tick(&mut self, ctx: &mut DeviceCtx<'_>) {
        self.progress(ctx);
    }

    /// Soft reset: a clean, initialised controller and card.
    pub fn soft_reset(&mut self) {
        self.regs.reset();
        self.regs.set(regs::SDVER, 0x2835_0001);
        self.fifo.finish();
        self.cmd_done_ns = None;
        self.op = None;
        self.powered = true;
        self.card.fast_init();
        self.set_fsm(sdedm::FSM_DATAMODE);
    }

    /// Whether no command or data operation is in flight.
    pub fn is_idle(&self) -> bool {
        self.op.is_none() && self.cmd_done_ns.is_none()
    }

    /// The controller's next time-driven transition, if any.
    pub fn next_deadline_ns(&self) -> Option<u64> {
        // Command completion and media latency are the host's only
        // time-driven transitions; FIFO drain is event-driven (the DMA
        // engine reports its own deadline).
        let media = self.op.as_ref().filter(|op| !op.completed).map(|op| op.media_deadline_ns);
        match (self.cmd_done_ns, media) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_hw::{IrqController, PhysMem};

    /// A controller with the memory and interrupt controller a bus would
    /// lend it.
    struct Rig {
        host: SdHost,
        mem: PhysMem,
        irqs: IrqController,
    }

    impl Rig {
        fn new() -> Self {
            let host = SdHost::new(SdCard::formatted(4096), CostModel::default());
            Rig { host, mem: PhysMem::new(0, 0), irqs: IrqController::new() }
        }

        fn ctx(&mut self, now_ns: u64) -> (&mut SdHost, DeviceCtx<'_>) {
            (&mut self.host, DeviceCtx { now_ns, mem: &mut self.mem, irqs: &mut self.irqs })
        }

        fn read32(&mut self, offset: u64, now: u64) -> u32 {
            let (host, mut ctx) = self.ctx(now);
            host.read32(offset, &mut ctx)
        }

        fn write32(&mut self, offset: u64, val: u32, now: u64) {
            let (host, mut ctx) = self.ctx(now);
            host.write32(offset, val, &mut ctx)
        }

        fn tick(&mut self, now: u64) {
            let (host, mut ctx) = self.ctx(now);
            host.tick(&mut ctx)
        }
    }

    /// Bring the controller+card to the transfer state the way the full
    /// driver's probe path would, but condensed (the gold driver in
    /// dlt-gold-drivers performs the full sequence; here we only need the
    /// card usable).
    fn power_and_init(rig: &mut Rig) {
        rig.write32(regs::SDVDD, 1, 0);
        rig.write32(regs::SDHCFG, sdhcfg::BLOCK_IRPT_EN | sdhcfg::BUSY_IRPT_EN, 0);
        rig.write32(regs::SDHBCT, BLOCK_SIZE as u32, 0);
        rig.host.card_mut().fast_init();
    }

    fn issue(rig: &mut Rig, index: u8, arg: u32, flags: u32, now: u64) {
        rig.write32(regs::SDARG, arg, now);
        rig.write32(regs::SDCMD, sdcmd::NEW_FLAG | flags | u32::from(index), now);
    }

    #[test]
    fn command_new_flag_clears_after_latency() {
        let mut rig = Rig::new();
        power_and_init(&mut rig);
        issue(&mut rig, 13, 0x4567 << 16, 0, 1_000);
        assert!(rig.read32(regs::SDCMD, 1_000) & sdcmd::NEW_FLAG != 0);
        let done = 1_000 + CostModel::default().sd_cmd_ns + 1;
        assert!(rig.read32(regs::SDCMD, done) & sdcmd::NEW_FLAG == 0);
    }

    #[test]
    fn unpowered_controller_times_out_commands() {
        let mut rig = Rig::new();
        issue(&mut rig, 13, 0, 0, 0);
        assert!(rig.read32(regs::SDCMD, 0) & sdcmd::FAIL_FLAG != 0);
        assert!(rig.read32(regs::SDHSTS, 0) & sdhsts::CMD_TIME_OUT != 0);
    }

    #[test]
    fn pio_read_of_one_block() {
        let mut rig = Rig::new();
        power_and_init(&mut rig);
        rig.host.card_mut().poke_block(3, &[0x5a; BLOCK_SIZE]);
        rig.write32(regs::SDHBLC, 1, 0);
        issue(&mut rig, 17, 3, sdcmd::READ_CMD, 0);
        // Data is not ready before the media deadline.
        assert_eq!(rig.read32(regs::SDDATA, 1_000), 0);
        assert!(rig.read32(regs::SDHSTS, 1_000) & sdhsts::FIFO_ERROR != 0);
        rig.write32(regs::SDHSTS, sdhsts::FIFO_ERROR, 1_000);
        // After the deadline, BLOCK_IRPT is posted and data flows.
        let cost = CostModel::default();
        let t = cost.sd_cmd_ns + cost.sd_transaction_overhead_ns + cost.sd_read_block_ns + 10;
        rig.tick(t);
        assert!(rig.read32(regs::SDHSTS, t) & sdhsts::BLOCK_IRPT != 0);
        let mut words = Vec::new();
        for _ in 0..BLOCK_SIZE / 4 {
            words.push(rig.read32(regs::SDDATA, t));
        }
        assert!(words.iter().all(|w| *w == 0x5a5a_5a5a));
        assert!(rig.host.is_idle());
    }

    #[test]
    fn pio_write_of_one_block_reaches_the_card() {
        let mut rig = Rig::new();
        power_and_init(&mut rig);
        rig.write32(regs::SDHBLC, 1, 0);
        issue(&mut rig, 24, 9, sdcmd::WRITE_CMD, 0);
        for i in 0..BLOCK_SIZE as u32 / 4 {
            rig.write32(regs::SDDATA, 0x0101_0101u32.wrapping_mul(i % 3 + 1), 10);
        }
        let cost = CostModel::default();
        let t = cost.sd_cmd_ns + cost.sd_transaction_overhead_ns + cost.sd_write_block_ns + 10;
        rig.tick(t);
        assert!(rig.read32(regs::SDHSTS, t) & sdhsts::BUSY_IRPT != 0);
        let blk = rig.host.card().peek_block(9);
        assert_eq!(&blk[0..4], &[1, 1, 1, 1]);
        assert!(rig.host.card().blocks_written() == 1);
        assert!(rig.irqs.assert_count() > 0);
        assert!(rig.host.is_idle());
    }

    #[test]
    fn block_irq_asserts_only_when_enabled() {
        let mut rig = Rig::new();
        power_and_init(&mut rig);
        // Disable interrupts.
        rig.write32(regs::SDHCFG, 0, 0);
        rig.write32(regs::SDHBLC, 1, 0);
        issue(&mut rig, 17, 0, sdcmd::READ_CMD, 0);
        rig.tick(10_000_000);
        assert_eq!(rig.irqs.assert_count(), 0);
        // Status bit is still visible for polling drivers.
        assert!(rig.read32(regs::SDHSTS, 10_000_000) & sdhsts::BLOCK_IRPT != 0);
    }

    #[test]
    fn sdedm_reports_fsm_and_fifo_level() {
        let mut rig = Rig::new();
        power_and_init(&mut rig);
        rig.host.card_mut().poke_block(0, &[1; BLOCK_SIZE]);
        rig.write32(regs::SDHBLC, 1, 0);
        issue(&mut rig, 17, 0, sdcmd::READ_CMD, 0);
        let edm = rig.read32(regs::SDEDM, 100);
        assert_eq!(edm & sdedm::FSM_MASK, sdedm::FSM_READDATA);
        let level = (edm >> sdedm::FIFO_LEVEL_SHIFT) & sdedm::FIFO_LEVEL_MASK;
        assert!(level > 0, "FIFO level field should be non-zero during a read");
    }

    #[test]
    fn removing_the_card_mid_sequence_shows_up_in_status() {
        let mut rig = Rig::new();
        power_and_init(&mut rig);
        rig.host.card_mut().remove();
        issue(&mut rig, 17, 0, sdcmd::READ_CMD, 0);
        assert!(rig.read32(regs::SDCMD, 0) & sdcmd::FAIL_FLAG != 0);
        assert!(rig.read32(regs::SDHSTS, 0) & sdhsts::CMD_TIME_OUT != 0);
    }

    #[test]
    fn soft_reset_restores_a_clean_initialised_state() {
        let mut rig = Rig::new();
        power_and_init(&mut rig);
        rig.write32(regs::SDHBLC, 4, 0);
        issue(&mut rig, 18, 0, sdcmd::READ_CMD, 0);
        assert!(!rig.host.is_idle());
        rig.host.soft_reset();
        assert!(rig.host.is_idle());
        assert_eq!(rig.host.fifo.level(), 0);
        assert_eq!(rig.read32(regs::SDHSTS, 1), 0);
        // The card is usable again without a full re-init.
        rig.write32(regs::SDVDD, 1, 1);
        rig.write32(regs::SDHBLC, 1, 1);
        issue(&mut rig, 17, 0, sdcmd::READ_CMD, 1);
        assert!(rig.read32(regs::SDCMD, 1) & sdcmd::FAIL_FLAG == 0);
    }

    #[test]
    fn status_write_one_to_clear() {
        let mut rig = Rig::new();
        power_and_init(&mut rig);
        rig.write32(regs::SDHBLC, 1, 0);
        issue(&mut rig, 17, 0, sdcmd::READ_CMD, 0);
        rig.tick(10_000_000);
        let sts = rig.read32(regs::SDHSTS, 10_000_000);
        assert!(sts & sdhsts::BLOCK_IRPT != 0);
        rig.write32(regs::SDHSTS, sdhsts::BLOCK_IRPT, 10_000_000);
        assert_eq!(rig.read32(regs::SDHSTS, 10_000_000) & sdhsts::BLOCK_IRPT, 0);
    }
}
