//! SDHOST host-controller driver (the `bcm2835-sdhost` analogue).
//!
//! This is the driver the record campaign exercises: `do_io` is the record
//! entry (`replay_mmc` in the paper's terms). It implements:
//!
//! * full card initialisation (CMD0/8/55+ACMD41/2/3/9/7/55+ACMD6/16),
//! * command issue with the standard `readl_poll` completion loop,
//! * a DMA data path that chains one control block and one 4 KiB page per
//!   eight blocks (Figure 4), uses CMD23 on the read path only, and fetches
//!   the last three words of every read by PIO (the SoC quirk of §7.1.3),
//! * a PIO (`O_DIRECT`) data path with an ad-hoc status polling loop,
//! * periodic bus re-tuning (disabled in record mode, §3.2).

use dlt_dev_mmc::card::cmd;
use dlt_dev_mmc::regs::{self, dmacb, dmacs, dmareg, dmati, sdcmd, sdhcfg, sdhsts};
use dlt_dev_mmc::{BLOCK_SIZE, DMA_BASE, SDHOST_BASE, SDHOST_DATA_BUS_ADDR};
use dlt_hw::irq::lines;
use dlt_hw::DmaRegion;

use crate::kenv::{DriverError, HwIo, IoFlags, Rw};

/// Blocks carried by one DMA descriptor / data page.
pub const BLOCKS_PER_PAGE: u32 = 8;
/// Bytes the DMA engine cannot move at the end of a read (the quirk).
pub const READ_TAIL_BYTES: usize = 12;
/// Bus re-tune period in nanoseconds (1 second, the Linux default).
const RETUNE_PERIOD_NS: u64 = 1_000_000_000;

const fn reg(offset: u64) -> u64 {
    SDHOST_BASE + offset
}

const fn dmareg_addr(offset: u64) -> u64 {
    DMA_BASE + offset
}

/// Cumulative statistics, used by tests and the Table 8 effort analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Commands issued to the card.
    pub commands: u64,
    /// DMA transfers performed.
    pub dma_transfers: u64,
    /// PIO transfers performed.
    pub pio_transfers: u64,
    /// Bus re-tune operations.
    pub retunes: u64,
    /// Requests that failed and were retried by the error-recovery FSM.
    pub recoveries: u64,
}

/// The SDHOST host-controller driver.
pub struct MmcHost<I: HwIo> {
    io: I,
    initialized: bool,
    rca: u32,
    record_mode: bool,
    last_tune_ns: u64,
    stats: HostStats,
}

impl<I: HwIo> MmcHost<I> {
    /// Wrap an IO environment. The card is not initialised until
    /// [`MmcHost::probe`] runs.
    pub fn new(io: I) -> Self {
        MmcHost {
            io,
            initialized: false,
            rca: 0,
            record_mode: false,
            last_tune_ns: 0,
            stats: HostStats::default(),
        }
    }

    /// Enable record mode: constrains the device state space by disabling
    /// periodic re-tuning and other background behaviours (§3.2).
    pub fn set_record_mode(&mut self, on: bool) {
        self.record_mode = on;
    }

    /// Driver statistics.
    pub fn stats(&self) -> HostStats {
        self.stats
    }

    /// Access the underlying IO environment (used by the block layer to
    /// charge kernel-path costs and by tests).
    pub fn io_mut(&mut self) -> &mut I {
        &mut self.io
    }

    /// Consume the host and return the IO environment.
    pub fn into_io(self) -> I {
        self.io
    }

    /// Whether probe has completed.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    fn send_command(&mut self, index: u8, arg: u32, flags: u32) -> Result<u32, DriverError> {
        self.stats.commands += 1;
        self.io.writel(reg(regs::SDARG), arg);
        self.io.writel(reg(regs::SDCMD), sdcmd::NEW_FLAG | flags | u32::from(index));
        // Standard polling loop: wait for NEW_FLAG to clear.
        self.io.readl_poll(reg(regs::SDCMD), sdcmd::NEW_FLAG, 0, 10, 500_000)?;
        let cmdreg = self.io.readl(reg(regs::SDCMD));
        if cmdreg & sdcmd::FAIL_FLAG != 0 {
            let sts = self.io.readl(reg(regs::SDHSTS));
            self.io.writel(reg(regs::SDHSTS), sts & sdhsts::ERROR_MASK);
            return Err(DriverError::Device(format!(
                "CMD{index} failed, SDHSTS={sts:#x} (cmd timeout: {})",
                sts & sdhsts::CMD_TIME_OUT != 0
            )));
        }
        Ok(self.io.readl(reg(regs::SDRSP0)))
    }

    fn send_app_command(&mut self, index: u8, arg: u32, flags: u32) -> Result<u32, DriverError> {
        self.send_command(cmd::APP_CMD, self.rca << 16, 0)?;
        self.send_command(index, arg, flags)
    }

    /// Power up the controller and run the full card-initialisation sequence.
    pub fn probe(&mut self) -> Result<(), DriverError> {
        // Controller bring-up.
        self.io.writel(reg(regs::SDVDD), 1);
        self.io.writel(reg(regs::SDCDIV), 0x148);
        self.io.writel(reg(regs::SDTOUT), 0x00f0_0000);
        self.io.writel(
            reg(regs::SDHCFG),
            sdhcfg::BLOCK_IRPT_EN | sdhcfg::BUSY_IRPT_EN | sdhcfg::SLOW_CARD,
        );
        self.io.writel(reg(regs::SDHBCT), BLOCK_SIZE as u32);
        self.io.delay_us(100);

        // Card identification.
        self.send_command(cmd::GO_IDLE, 0, sdcmd::NO_RESPONSE)?;
        self.send_command(cmd::SEND_IF_COND, 0x1aa, 0)?;
        let mut ready = false;
        for _ in 0..5 {
            let ocr = self.send_app_command(cmd::ACMD_SEND_OP_COND, 0x4000_0000, 0)?;
            if ocr & 0x8000_0000 != 0 {
                ready = true;
                break;
            }
            self.io.delay_us(1_000);
        }
        if !ready {
            return Err(DriverError::Device("card never reported power-up".into()));
        }
        self.send_command(cmd::ALL_SEND_CID, 0, sdcmd::LONG_RESPONSE)?;
        let r6 = self.send_command(cmd::SEND_RELATIVE_ADDR, 0, 0)?;
        self.rca = r6 >> 16;
        self.send_command(cmd::SEND_CSD, self.rca << 16, sdcmd::LONG_RESPONSE)?;
        self.send_command(cmd::SELECT_CARD, self.rca << 16, sdcmd::BUSYWAIT)?;
        // 4-bit bus.
        self.send_app_command(cmd::ACMD_SET_BUS_WIDTH, 2, 0)?;
        let cfg = self.io.readl(reg(regs::SDHCFG));
        self.io.writel(
            reg(regs::SDHCFG),
            (cfg | sdhcfg::WIDE_EXT_BUS | sdhcfg::WIDE_INT_BUS) & !sdhcfg::SLOW_CARD,
        );
        self.io.writel(reg(regs::SDCDIV), 0x4);
        self.send_command(cmd::SET_BLOCKLEN, BLOCK_SIZE as u32, 0)?;
        self.initialized = true;
        self.last_tune_ns = self.io.get_ts();
        Ok(())
    }

    /// Periodic bus tuning: the full driver "tunes bus parameters
    /// periodically (by default every second)" (§2.2). Skipped in record
    /// mode.
    fn maybe_retune(&mut self) {
        if self.record_mode {
            return;
        }
        let now = self.io.get_ts();
        if now.saturating_sub(self.last_tune_ns) >= RETUNE_PERIOD_NS {
            self.last_tune_ns = now;
            self.stats.retunes += 1;
            // Probe the bus with a status command and nudge the divider.
            let div = self.io.readl(reg(regs::SDCDIV));
            let _ = self.send_command(cmd::SEND_STATUS, self.rca << 16, 0);
            self.io.writel(reg(regs::SDCDIV), div);
        }
    }

    /// The record entry: perform one block IO job (the paper's
    /// `replay_mmc(rw, blkcnt, blkid, flag, buf)` signature).
    pub fn do_io(
        &mut self,
        rw: Rw,
        blkcnt: u32,
        blkid: u32,
        flags: IoFlags,
        buf: &mut [u8],
    ) -> Result<(), DriverError> {
        if !self.initialized {
            return Err(DriverError::Invalid("probe has not run".into()));
        }
        if blkcnt == 0 || blkcnt > 1024 {
            return Err(DriverError::Invalid(format!("unsupported block count {blkcnt}")));
        }
        let total = blkcnt as usize * BLOCK_SIZE;
        if buf.len() < total {
            return Err(DriverError::Invalid("buffer smaller than the request".into()));
        }
        self.maybe_retune();
        // (Re)program the controller configuration for this request. The Linux
        // driver performs an equivalent set_ios on every request; recording it
        // makes each template self-contained, so the replayer's soft reset
        // (which clears the host configuration) is sufficient preparation.
        self.io.writel(reg(regs::SDVDD), 1);
        self.io.writel(reg(regs::SDCDIV), 0x4);
        self.io.writel(reg(regs::SDTOUT), 0x00f0_0000);
        self.io.writel(
            reg(regs::SDHCFG),
            sdhcfg::BLOCK_IRPT_EN
                | sdhcfg::BUSY_IRPT_EN
                | sdhcfg::WIDE_EXT_BUS
                | sdhcfg::WIDE_INT_BUS,
        );

        let result = if flags.direct {
            self.stats.pio_transfers += 1;
            match rw {
                Rw::Read => self.pio_read(blkcnt, blkid, &mut buf[..total]),
                Rw::Write => self.pio_write(blkcnt, blkid, &buf[..total]),
            }
        } else {
            self.stats.dma_transfers += 1;
            match rw {
                Rw::Read => self.dma_read(blkcnt, blkid, &mut buf[..total]),
                Rw::Write => self.dma_write(blkcnt, blkid, &buf[..total]),
            }
        };

        if result.is_err() {
            // Error-recovery FSM: clear status, stop any open transmission and
            // retry once — the corner-case handling a full driver carries.
            self.stats.recoveries += 1;
            let sts = self.io.readl(reg(regs::SDHSTS));
            self.io.writel(reg(regs::SDHSTS), sts);
            let _ = self.send_command(cmd::STOP_TRANSMISSION, 0, sdcmd::BUSYWAIT);
        }
        self.io.dma_release_all();
        result
    }

    fn configure_block_counts(&mut self, blkcnt: u32) {
        self.io.writel(reg(regs::SDHBCT), BLOCK_SIZE as u32);
        self.io.writel(reg(regs::SDHBLC), blkcnt);
    }

    /// Build the Figure-4 descriptor chain: one control block and one 4 KiB
    /// page per [`BLOCKS_PER_PAGE`] blocks. Returns (descriptors, pages).
    fn build_dma_chain(
        &mut self,
        blkcnt: u32,
        to_device: bool,
    ) -> Result<(Vec<DmaRegion>, Vec<DmaRegion>), DriverError> {
        let total = blkcnt as usize * BLOCK_SIZE;
        let pages = blkcnt.div_ceil(BLOCKS_PER_PAGE) as usize;
        let mut descs = Vec::with_capacity(pages);
        let mut data_pages = Vec::with_capacity(pages);
        for _ in 0..pages {
            descs.push(self.io.dma_alloc(dmacb::SIZE)?);
            data_pages.push(self.io.dma_alloc(4096)?);
        }
        let dma_total = if to_device { total } else { total - READ_TAIL_BYTES };
        let mut remaining = dma_total;
        for i in 0..pages {
            let chunk = remaining.min(4096);
            remaining -= chunk;
            let last = i == pages - 1;
            let ti = if to_device {
                dmati::DEST_DREQ | dmati::SRC_INC | dmati::WAIT_RESP | dmati::PERMAP_SDHOST
            } else {
                dmati::SRC_DREQ | dmati::DEST_INC | dmati::WAIT_RESP | dmati::PERMAP_SDHOST
            } | if last { dmati::INTEN } else { 0 };
            let (src, dst) = if to_device {
                (data_pages[i].base as u32, SDHOST_DATA_BUS_ADDR as u32)
            } else {
                (SDHOST_DATA_BUS_ADDR as u32, data_pages[i].base as u32)
            };
            let next = if last { 0 } else { descs[i + 1].base as u32 };
            self.io.shm_write32(descs[i], dmacb::TI, ti);
            self.io.shm_write32(descs[i], dmacb::SOURCE_AD, src);
            self.io.shm_write32(descs[i], dmacb::DEST_AD, dst);
            self.io.shm_write32(descs[i], dmacb::TXFR_LEN, chunk as u32);
            self.io.shm_write32(descs[i], dmacb::STRIDE, 0);
            self.io.shm_write32(descs[i], dmacb::NEXTCONBK, next);
        }
        Ok((descs, data_pages))
    }

    fn kick_dma(&mut self, head: DmaRegion) {
        self.io.writel(dmareg_addr(dmareg::CS), dmacs::END | dmacs::INT);
        self.io.writel(dmareg_addr(dmareg::CONBLK_AD), head.base as u32);
        self.io.writel(dmareg_addr(dmareg::CS), dmacs::ACTIVE);
    }

    fn wait_dma_done(&mut self) -> Result<(), DriverError> {
        self.io.readl_poll(dmareg_addr(dmareg::CS), dmacs::END, dmacs::END, 10, 1_000_000)?;
        let cs = self.io.readl(dmareg_addr(dmareg::CS));
        self.io.writel(dmareg_addr(dmareg::CS), dmacs::END | dmacs::INT);
        if cs & dmacs::ERROR != 0 {
            return Err(DriverError::Device("DMA engine reported an error".into()));
        }
        Ok(())
    }

    fn enable_dma_mode(&mut self, on: bool) {
        let cfg = self.io.readl(reg(regs::SDHCFG));
        let cfg = if on { cfg | sdhcfg::DMA_EN } else { cfg & !sdhcfg::DMA_EN };
        self.io.writel(reg(regs::SDHCFG), cfg);
    }

    fn wait_transfer_irq(&mut self, expect: u32) -> Result<(), DriverError> {
        self.io.wait_for_irq(lines::MMC, 2_000_000)?;
        let sts = self.io.readl(reg(regs::SDHSTS));
        if sts & sdhsts::ERROR_MASK != 0 {
            self.io.writel(reg(regs::SDHSTS), sts);
            return Err(DriverError::Device(format!("transfer error, SDHSTS={sts:#x}")));
        }
        if sts & expect == 0 {
            return Err(DriverError::Device(format!(
                "unexpected SDHSTS={sts:#x}, wanted {expect:#x}"
            )));
        }
        self.io.writel(reg(regs::SDHSTS), expect | sdhsts::DATA_FLAG);
        Ok(())
    }

    fn dma_read(&mut self, blkcnt: u32, blkid: u32, buf: &mut [u8]) -> Result<(), DriverError> {
        let total = blkcnt as usize * BLOCK_SIZE;
        let (descs, pages) = self.build_dma_chain(blkcnt, false)?;
        self.configure_block_counts(blkcnt);
        self.enable_dma_mode(true);
        self.kick_dma(descs[0]);
        // CMD23 (set block count) is used on the read path only (§7.1.3).
        if blkcnt > 1 {
            self.send_command(cmd::SET_BLOCK_COUNT, blkcnt, 0)?;
            self.send_command(cmd::READ_MULTIPLE, blkid, sdcmd::READ_CMD)?;
        } else {
            self.send_command(cmd::READ_SINGLE, blkid, sdcmd::READ_CMD)?;
        }
        self.wait_transfer_irq(sdhsts::BLOCK_IRPT)?;
        self.wait_dma_done()?;
        // The DMA engine cannot move the final three words; fetch them from
        // the FIFO by PIO (the undocumented SoC quirk, §7.1.3).
        let dma_bytes = total - READ_TAIL_BYTES;
        for w in 0..READ_TAIL_BYTES / 4 {
            let word = self.io.readl(reg(regs::SDDATA));
            buf[dma_bytes + w * 4..dma_bytes + w * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        // Copy the DMA'd portion out of the data pages.
        let mut copied = 0usize;
        for page in &pages {
            if copied >= dma_bytes {
                break;
            }
            let chunk = (dma_bytes - copied).min(4096);
            self.io.copy_from_dma(*page, 0, &mut buf[copied..copied + chunk]);
            copied += chunk;
        }
        self.enable_dma_mode(false);
        Ok(())
    }

    fn dma_write(&mut self, blkcnt: u32, blkid: u32, buf: &[u8]) -> Result<(), DriverError> {
        let total = blkcnt as usize * BLOCK_SIZE;
        let (descs, pages) = self.build_dma_chain(blkcnt, true)?;
        // Stage the payload into the DMA pages.
        let mut copied = 0usize;
        for page in &pages {
            if copied >= total {
                break;
            }
            let chunk = (total - copied).min(4096);
            self.io.copy_to_dma(*page, 0, &buf[copied..copied + chunk]);
            copied += chunk;
        }
        self.configure_block_counts(blkcnt);
        self.enable_dma_mode(true);
        // No CMD23 on the write path (§7.1.3). The command opens the card's
        // receive window; only then is the DMA engine kicked, mirroring the
        // DREQ-gated ordering of the real controller.
        if blkcnt > 1 {
            self.send_command(cmd::WRITE_MULTIPLE, blkid, sdcmd::WRITE_CMD | sdcmd::BUSYWAIT)?;
        } else {
            self.send_command(cmd::WRITE_SINGLE, blkid, sdcmd::WRITE_CMD | sdcmd::BUSYWAIT)?;
        }
        self.kick_dma(descs[0]);
        self.wait_transfer_irq(sdhsts::BUSY_IRPT)?;
        self.wait_dma_done()?;
        self.enable_dma_mode(false);
        Ok(())
    }

    fn pio_read(&mut self, blkcnt: u32, blkid: u32, buf: &mut [u8]) -> Result<(), DriverError> {
        self.configure_block_counts(blkcnt);
        self.enable_dma_mode(false);
        if blkcnt > 1 {
            self.send_command(cmd::READ_MULTIPLE, blkid, sdcmd::READ_CMD)?;
        } else {
            self.send_command(cmd::READ_SINGLE, blkid, sdcmd::READ_CMD)?;
        }
        // Ad-hoc polling loop (a "short while loop" in the original driver):
        // wait for the FIFO to signal readable data.
        let mut spins = 0u32;
        while self.io.readl(reg(regs::SDHSTS)) & sdhsts::DATA_FLAG == 0 {
            self.io.delay_us(10);
            spins += 1;
            if spins > 1_000_000 {
                return Err(DriverError::Timeout("PIO read data flag".into()));
            }
        }
        for w in 0..buf.len() / 4 {
            let word = self.io.readl(reg(regs::SDDATA));
            buf[w * 4..w * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        let sts = self.io.readl(reg(regs::SDHSTS));
        self.io.writel(reg(regs::SDHSTS), sts & (sdhsts::BLOCK_IRPT | sdhsts::DATA_FLAG));
        Ok(())
    }

    fn pio_write(&mut self, blkcnt: u32, blkid: u32, buf: &[u8]) -> Result<(), DriverError> {
        self.configure_block_counts(blkcnt);
        self.enable_dma_mode(false);
        if blkcnt > 1 {
            self.send_command(cmd::WRITE_MULTIPLE, blkid, sdcmd::WRITE_CMD | sdcmd::BUSYWAIT)?;
        } else {
            self.send_command(cmd::WRITE_SINGLE, blkid, sdcmd::WRITE_CMD | sdcmd::BUSYWAIT)?;
        }
        for w in 0..buf.len() / 4 {
            let word =
                u32::from_le_bytes([buf[w * 4], buf[w * 4 + 1], buf[w * 4 + 2], buf[w * 4 + 3]]);
            self.io.writel(reg(regs::SDDATA), word);
        }
        self.wait_transfer_irq(sdhsts::BUSY_IRPT)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kenv::BusIo;
    use dlt_dev_mmc::{MmcController, MmcSubsystem};
    use dlt_hw::Platform;

    fn rig() -> (Platform, MmcHost<BusIo>) {
        let p = Platform::new();
        MmcSubsystem::attach(&p).unwrap();
        let io = BusIo::normal_world(p.bus.clone(), DmaRegion::new(0x200_0000, 0x100_0000));
        let mut host = MmcHost::new(io);
        host.probe().unwrap();
        (p, host)
    }

    /// Run `f` on the platform's MMC controller.
    fn mmc<R>(p: &Platform, f: impl FnOnce(&mut MmcController) -> R) -> R {
        f(p.bus.lock().device::<MmcController>().unwrap())
    }

    fn card_blocks(p: &Platform, lba: u64, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..n {
            out.extend_from_slice(&mmc(p, |m| m.sdhost.card().peek_block(lba + i as u64)));
        }
        out
    }

    #[test]
    fn probe_initialises_the_card() {
        let (p, host) = rig();
        assert!(host.is_initialized());
        assert!(host.stats().commands >= 10);
        assert!(mmc(&p, |m| m.sdhost.commands_issued()) >= 10);
    }

    #[test]
    fn dma_write_then_read_round_trip_multiple_sizes() {
        let (p, mut host) = rig();
        host.set_record_mode(true);
        for &blkcnt in &[1u32, 8, 32] {
            let total = blkcnt as usize * BLOCK_SIZE;
            let payload: Vec<u8> =
                (0..total).map(|i| ((i * 7 + blkcnt as usize) % 251) as u8).collect();
            let mut buf = payload.clone();
            host.do_io(Rw::Write, blkcnt, 100, IoFlags::none(), &mut buf).unwrap();
            assert_eq!(card_blocks(&p, 100, blkcnt as usize), payload, "blkcnt={blkcnt}");
            let mut back = vec![0u8; total];
            host.do_io(Rw::Read, blkcnt, 100, IoFlags::none(), &mut back).unwrap();
            assert_eq!(back, payload, "blkcnt={blkcnt}");
        }
        assert!(host.stats().dma_transfers >= 6);
    }

    #[test]
    fn pio_path_round_trip() {
        let (_p, mut host) = rig();
        let payload: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 199) as u8).collect();
        let mut buf = payload.clone();
        host.do_io(Rw::Write, 1, 7, IoFlags::direct(), &mut buf).unwrap();
        let mut back = vec![0u8; BLOCK_SIZE];
        host.do_io(Rw::Read, 1, 7, IoFlags::direct(), &mut back).unwrap();
        assert_eq!(back, payload);
        assert!(host.stats().pio_transfers == 2);
    }

    #[test]
    fn read_of_unwritten_blocks_is_zero() {
        let (_p, mut host) = rig();
        let mut buf = vec![0xaau8; 4 * BLOCK_SIZE];
        host.do_io(Rw::Read, 4, 5000, IoFlags::none(), &mut buf).unwrap();
        assert!(buf.iter().all(|b| *b == 0));
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let (_p, mut host) = rig();
        let mut buf = vec![0u8; 512];
        assert!(matches!(
            host.do_io(Rw::Read, 0, 0, IoFlags::none(), &mut buf),
            Err(DriverError::Invalid(_))
        ));
        assert!(matches!(
            host.do_io(Rw::Read, 4, 0, IoFlags::none(), &mut buf),
            Err(DriverError::Invalid(_))
        ));
        let mut small = vec![0u8; 16];
        assert!(host.do_io(Rw::Read, 1, 0, IoFlags::none(), &mut small).is_err());
    }

    #[test]
    fn card_removal_surfaces_as_a_device_error_and_recovery_attempt() {
        let (p, mut host) = rig();
        mmc(&p, |m| m.sdhost.card_mut().remove());
        let mut buf = vec![0u8; 512];
        let err = host.do_io(Rw::Read, 1, 0, IoFlags::none(), &mut buf).unwrap_err();
        assert!(matches!(err, DriverError::Device(_) | DriverError::Timeout(_)));
        assert!(host.stats().recoveries >= 1);
    }

    #[test]
    fn retune_runs_outside_record_mode_only() {
        let (p, mut host) = rig();
        host.set_record_mode(true);
        p.bus.lock().clock.advance_ns(2 * RETUNE_PERIOD_NS);
        let mut buf = vec![0u8; 512];
        host.do_io(Rw::Read, 1, 0, IoFlags::none(), &mut buf).unwrap();
        assert_eq!(host.stats().retunes, 0);
        host.set_record_mode(false);
        p.bus.lock().clock.advance_ns(2 * RETUNE_PERIOD_NS);
        host.do_io(Rw::Read, 1, 0, IoFlags::none(), &mut buf).unwrap();
        assert_eq!(host.stats().retunes, 1);
    }

    #[test]
    fn large_transfers_use_one_descriptor_pair_per_eight_blocks() {
        let (p, mut host) = rig();
        let mut buf = vec![0u8; 256 * BLOCK_SIZE];
        host.do_io(Rw::Read, 256, 0, IoFlags::none(), &mut buf).unwrap();
        // 256 blocks -> 32 pages -> 32 control blocks chained on the engine.
        assert!(mmc(&p, |m| m.dma.chains_executed()) >= 1);
        assert!(
            mmc(&p, |m| m.dma.bytes_transferred()) >= (256 * BLOCK_SIZE - READ_TAIL_BYTES) as u64
        );
    }
}
