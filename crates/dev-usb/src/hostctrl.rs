//! DWC2-style USB host controller model.
//!
//! The controller exposes the core/host/channel registers the full driver
//! programs, executes one transaction per channel enable, moves data between
//! physical memory (`HCDMA`) and the attached [`UsbMassStorage`] device, and
//! raises the USB interrupt on channel completion, port events and
//! disconnects.

use dlt_hw::device::{DeviceCtx, MmioDevice, RegBank, Window};
use dlt_hw::irq::lines;
use dlt_hw::CostModel;

use crate::device::UsbMassStorage;
use crate::regs::{self, gahbcfg, gintsts, grstctl, hcchar, hcint, hctsiz, hprt};
use crate::{USB_BASE, USB_LEN};

/// A transaction scheduled on the (single modelled) host channel.
#[derive(Debug, Clone)]
struct PendingXfer {
    /// Completion deadline in virtual time.
    done_ns: u64,
    /// HCINT bits to post at completion.
    int_bits: u32,
}

/// The host controller with its attached mass-storage device.
pub struct UsbHostController {
    regs: RegBank,
    device: UsbMassStorage,
    cost: CostModel,
    /// Pending SETUP data-in stage bytes (from the last control SETUP).
    control_data: Vec<u8>,
    /// The bulk OUT transfer's bytes, read from memory into one buffer
    /// reused across transfers.
    bulk_out: Vec<u8>,
    pending: Option<PendingXfer>,
    device_present: bool,
    /// A port change (an unplug) whose interrupt is raised the next time
    /// the bus clocks the controller.
    port_irq: bool,
    /// Statistics.
    transactions: u64,
    irqs_raised: u64,
}

impl UsbHostController {
    /// Create the controller with `device` attached to the root port.
    pub fn new(device: UsbMassStorage, cost: CostModel) -> Self {
        let mut regs = RegBank::new();
        for (off, _) in regs::USB_REGISTERS {
            regs.define(*off, 0);
        }
        regs.define(regs::GHWCFG2, (regs::NUM_CHANNELS as u32 - 1) << 14);
        regs.define(regs::GHWCFG3, 0x0ff0_0020);
        regs.define(regs::GRSTCTL, grstctl::AHB_IDLE);
        let mut this = UsbHostController {
            regs,
            device,
            cost,
            control_data: Vec::new(),
            bulk_out: Vec::new(),
            pending: None,
            device_present: true,
            port_irq: false,
            transactions: 0,
            irqs_raised: 0,
        };
        this.update_port_status(true);
        this
    }

    /// The attached device (validation / fault injection).
    pub fn device(&self) -> &UsbMassStorage {
        &self.device
    }

    /// Mutable handle to the attached device.
    pub fn device_mut(&mut self) -> &mut UsbMassStorage {
        &mut self.device
    }

    /// Whether no channel transaction is in flight.
    pub fn is_idle(&self) -> bool {
        self.pending.is_none()
    }

    /// Number of channel transactions executed.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Number of interrupts raised.
    pub fn irqs_raised(&self) -> u64 {
        self.irqs_raised
    }

    /// Unplug the stick: the port drops, `GINTSTS.DISCINT` is raised and any
    /// in-flight transaction fails (§8.2.1 fault injection). The interrupt
    /// is asserted the next time the bus clocks the controller.
    pub fn unplug(&mut self) {
        self.device_present = false;
        self.device.disk_mut().remove();
        self.update_port_status(false);
        self.regs.set_bits(regs::GINTSTS, gintsts::DISCINT | gintsts::PRTINT);
        if let Some(p) = &mut self.pending {
            p.int_bits = hcint::XACTERR | hcint::CHHLTD;
        }
        self.port_irq = true;
    }

    fn update_port_status(&mut self, connected: bool) {
        let mut v = hprt::PWR | hprt::SPD_HIGH;
        if connected {
            v |= hprt::CONN_STS | hprt::CONN_DET | hprt::ENA;
        }
        self.regs.set(regs::HPRT, v);
    }

    fn irq_enabled(&self, bits: u32) -> bool {
        self.regs.get(regs::GAHBCFG) & gahbcfg::GLBL_INTR_EN != 0
            && self.regs.get(regs::GINTMSK) & bits != 0
    }

    fn maybe_raise_irq(&mut self, ctx: &mut DeviceCtx<'_>) {
        let sts = self.regs.get(regs::GINTSTS);
        if self.irq_enabled(sts) {
            ctx.irqs.assert_at(lines::USB, ctx.now_ns + self.cost.irq_delivery_ns);
            self.irqs_raised += 1;
        }
    }

    fn start_channel(&mut self, charval: u32, ctx: &mut DeviceCtx<'_>) {
        let now_ns = ctx.now_ns;
        self.transactions += 1;
        let ch = regs::CHANNEL;
        let tsiz = self.regs.get(regs::hctsiz(ch));
        let xfersize = (tsiz & hctsiz::XFERSIZE_MASK) as usize;
        let pid = tsiz & (3 << hctsiz::PID_SHIFT);
        let dma_addr = u64::from(self.regs.get(regs::hcdma(ch)));
        let is_in = charval & hcchar::EPDIR_IN != 0;
        let eptype = (charval >> hcchar::EPTYPE_SHIFT) & 0x3;

        if !self.device_present {
            self.pending = Some(PendingXfer {
                done_ns: now_ns + self.cost.usb_control_ns,
                int_bits: hcint::XACTERR | hcint::CHHLTD,
            });
            return;
        }

        let mut extra_ns = 0u64;
        let mut int_bits = hcint::XFERCOMPL | hcint::CHHLTD;

        if eptype == 0 {
            // Control transfer.
            if pid == hctsiz::PID_SETUP {
                let mut setup = [0u8; 8];
                let _ = ctx.mem.read_bytes(dma_addr, &mut setup);
                self.control_data = self.device.handle_control(&setup);
            } else if is_in {
                let n = xfersize.min(self.control_data.len());
                let data: Vec<u8> = self.control_data.drain(..n).collect();
                let _ = ctx.mem.write_bytes(dma_addr, &data);
            }
            extra_ns += self.cost.usb_control_ns;
        } else {
            // Bulk transfer.
            if is_in {
                let data = self.device.bulk_in(xfersize);
                if data.is_empty() {
                    int_bits = hcint::NAK | hcint::CHHLTD;
                } else {
                    let _ = ctx.mem.write_bytes(dma_addr, data);
                }
                extra_ns += self.bulk_cost(xfersize);
            } else {
                // Zeroed first, so a failed read hands the device zeros.
                self.bulk_out.clear();
                self.bulk_out.resize(xfersize, 0);
                let _ = ctx.mem.read_bytes(dma_addr, &mut self.bulk_out);
                extra_ns += self.bulk_cost(xfersize);
                extra_ns += self.device.bulk_out(&self.bulk_out, self.cost.usb_lba_program_ns);
            }
        }

        self.pending = Some(PendingXfer { done_ns: now_ns + extra_ns, int_bits });
    }

    fn bulk_cost(&self, len: usize) -> u64 {
        let blocks = (len as u64).div_ceil(512).max(1);
        self.cost.usb_bot_overhead_ns / 4 + blocks * self.cost.usb_bulk_block_ns
    }

    fn progress(&mut self, ctx: &mut DeviceCtx<'_>) {
        if std::mem::take(&mut self.port_irq) {
            self.maybe_raise_irq(ctx);
        }
        if let Some(p) = &self.pending {
            if ctx.now_ns >= p.done_ns {
                let bits = p.int_bits;
                self.pending = None;
                let ch = regs::CHANNEL;
                self.regs.set_bits(regs::hcint(ch), bits);
                self.regs.set_bits(regs::HAINT, 1 << ch);
                self.regs.set_bits(regs::GINTSTS, gintsts::HCHINT);
                // Channel enable clears on halt.
                let charval = self.regs.get(regs::hcchar(ch)) & !hcchar::CHENA;
                self.regs.set(regs::hcchar(ch), charval);
                self.maybe_raise_irq(ctx);
            }
        }
    }
}

const WINDOWS: &[Window] =
    &[Window { name: "dwc2", base: USB_BASE, len: USB_LEN, irq_line: Some(lines::USB) }];

impl MmioDevice for UsbHostController {
    fn windows(&self) -> &'static [Window] {
        WINDOWS
    }

    fn read32(&mut self, _window: usize, offset: u64, ctx: &mut DeviceCtx<'_>) -> u32 {
        self.progress(ctx);
        match offset {
            regs::HFNUM => {
                // Micro-frame counter: 125 us per micro-frame, 14 bits.
                ((ctx.now_ns / 125_000) & 0x3fff) as u32 | 0x7fff_0000
            }
            regs::GINTSTS => self.regs.get(regs::GINTSTS) | gintsts::CURMOD_HOST,
            _ => self.regs.get(offset),
        }
    }

    fn write32(&mut self, _window: usize, offset: u64, val: u32, ctx: &mut DeviceCtx<'_>) {
        self.progress(ctx);
        match offset {
            regs::GRSTCTL => {
                if val & grstctl::CSFT_RST != 0 {
                    // Core soft reset: self-clearing, drops pending work.
                    self.pending = None;
                    self.control_data.clear();
                    self.regs.set(regs::GRSTCTL, grstctl::AHB_IDLE);
                } else {
                    self.regs.set(regs::GRSTCTL, val | grstctl::AHB_IDLE);
                }
            }
            regs::GINTSTS => {
                // Write-1-to-clear.
                let cur = self.regs.get(regs::GINTSTS);
                self.regs.set(regs::GINTSTS, cur & !val);
                if val != 0 {
                    ctx.irqs.clear(lines::USB);
                }
            }
            regs::HPRT => {
                let mut cur = self.regs.get(regs::HPRT);
                // CONN_DET is write-1-to-clear; RST bit toggled by software.
                if val & hprt::CONN_DET != 0 {
                    cur &= !hprt::CONN_DET;
                }
                if val & hprt::RST != 0 {
                    cur |= hprt::RST;
                } else {
                    cur &= !hprt::RST;
                    if self.device_present {
                        cur |= hprt::ENA;
                    }
                }
                cur |= val & hprt::PWR;
                self.regs.set(regs::HPRT, cur);
            }
            o if o == regs::hcint(regs::CHANNEL) => {
                let cur = self.regs.get(o);
                self.regs.set(o, cur & !val);
                if val != 0 {
                    // Clearing all channel interrupts also drops HAINT/HCHINT.
                    if self.regs.get(o) == 0 {
                        self.regs.clear_bits(regs::HAINT, 1 << regs::CHANNEL);
                        self.regs.clear_bits(regs::GINTSTS, gintsts::HCHINT);
                    }
                    ctx.irqs.clear(lines::USB);
                }
            }
            o if o == regs::hcchar(regs::CHANNEL) => {
                self.regs.set(o, val);
                if val & hcchar::CHENA != 0 && val & hcchar::CHDIS == 0 {
                    self.start_channel(val, ctx);
                }
            }
            _ => self.regs.set(offset, val),
        }
        self.progress(ctx);
    }

    fn tick(&mut self, ctx: &mut DeviceCtx<'_>) {
        self.progress(ctx);
    }

    fn soft_reset(&mut self, _window: usize, _ctx: &mut DeviceCtx<'_>) {
        self.regs.reset();
        self.regs.set(regs::GRSTCTL, grstctl::AHB_IDLE);
        self.pending = None;
        self.port_irq = false;
        self.control_data.clear();
        self.update_port_status(self.device_present);
        if self.device_present {
            self.device.fast_init();
        }
    }

    fn quiet_until_ns(&self) -> Option<u64> {
        // A port change raises its interrupt at the very next tick.
        if self.port_irq {
            return Some(0);
        }
        Some(self.pending.as_ref().map_or(u64::MAX, |p| p.done_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Cbw, BULK_IN_EP, BULK_OUT_EP, CSW_LEN};
    use crate::scsi::{Cdb, ScsiDisk};
    use dlt_hw::{IrqController, PhysMem};

    const CBW_BUF: u64 = 0x1000;
    const DATA_BUF: u64 = 0x2000;
    const CSW_BUF: u64 = 0x8000;

    /// A controller with the memory and interrupt controller a bus would
    /// lend it.
    struct Rig {
        hc: UsbHostController,
        mem: PhysMem,
        irqs: IrqController,
        now: u64,
    }

    impl Rig {
        fn new() -> Self {
            let mut device = UsbMassStorage::new(ScsiDisk::new(4096));
            device.fast_init();
            let hc = UsbHostController::new(device, CostModel::default());
            Rig { hc, mem: PhysMem::new(0, 1 << 20), irqs: IrqController::new(), now: 0 }
        }

        fn ctx(&mut self, now_ns: u64) -> (&mut UsbHostController, DeviceCtx<'_>) {
            (&mut self.hc, DeviceCtx { now_ns, mem: &mut self.mem, irqs: &mut self.irqs })
        }

        fn read32(&mut self, offset: u64, now: u64) -> u32 {
            let (hc, mut ctx) = self.ctx(now);
            hc.read32(0, offset, &mut ctx)
        }

        fn write32(&mut self, offset: u64, val: u32, now: u64) {
            let (hc, mut ctx) = self.ctx(now);
            hc.write32(0, offset, val, &mut ctx)
        }

        fn tick(&mut self, now: u64) {
            let (hc, mut ctx) = self.ctx(now);
            hc.tick(&mut ctx)
        }

        fn enable_irqs(&mut self) {
            self.write32(regs::GAHBCFG, gahbcfg::GLBL_INTR_EN | gahbcfg::DMA_EN, self.now);
            self.write32(regs::GINTMSK, gintsts::HCHINT | gintsts::DISCINT, self.now);
        }

        /// Run one bulk transaction and wait for its completion.
        fn bulk(&mut self, ep: u32, dir_in: bool, buf: u64, len: usize) {
            let ch = regs::CHANNEL;
            self.write32(regs::hctsiz(ch), len as u32 | (1 << hctsiz::PKTCNT_SHIFT), self.now);
            self.write32(regs::hcdma(ch), buf as u32, self.now);
            let mut charval = 512
                | (ep << hcchar::EPNUM_SHIFT)
                | hcchar::EPTYPE_BULK
                | (1 << hcchar::DEVADDR_SHIFT)
                | hcchar::CHENA;
            if dir_in {
                charval |= hcchar::EPDIR_IN;
            }
            self.write32(regs::hcchar(ch), charval, self.now);
            // Advance time until the channel halts.
            for _ in 0..10_000 {
                self.now += 100_000;
                self.tick(self.now);
                if self.read32(regs::hcint(ch), self.now) & hcint::CHHLTD != 0 {
                    break;
                }
            }
            assert!(
                self.read32(regs::hcint(ch), self.now) & hcint::CHHLTD != 0,
                "channel never halted"
            );
            self.write32(regs::hcint(ch), 0xffff_ffff, self.now);
        }

        fn scsi_read(&mut self, lba: u32, blocks: u16, tag: u32) -> Vec<u8> {
            let cdb = Cdb::encode_rw10(false, lba, blocks);
            let cbw = Cbw::encode(tag, u32::from(blocks) * 512, true, &cdb);
            self.mem.write_bytes(CBW_BUF, &cbw).unwrap();
            self.bulk(BULK_OUT_EP, false, CBW_BUF, cbw.len());
            self.bulk(BULK_IN_EP, true, DATA_BUF, blocks as usize * 512);
            self.bulk(BULK_IN_EP, true, CSW_BUF, CSW_LEN);
            let mut csw = [0u8; CSW_LEN];
            self.mem.read_bytes(CSW_BUF, &mut csw).unwrap();
            assert_eq!(csw[12], 0);
            let mut data = vec![0u8; blocks as usize * 512];
            self.mem.read_bytes(DATA_BUF, &mut data).unwrap();
            data
        }

        fn scsi_write(&mut self, lba: u32, payload: &[u8], tag: u32) -> u8 {
            let blocks = (payload.len() / 512) as u16;
            let cdb = Cdb::encode_rw10(true, lba, blocks);
            let cbw = Cbw::encode(tag, payload.len() as u32, false, &cdb);
            self.mem.write_bytes(CBW_BUF, &cbw).unwrap();
            self.mem.write_bytes(DATA_BUF, payload).unwrap();
            self.bulk(BULK_OUT_EP, false, CBW_BUF, cbw.len());
            self.bulk(BULK_OUT_EP, false, DATA_BUF, payload.len());
            self.bulk(BULK_IN_EP, true, CSW_BUF, CSW_LEN);
            let mut csw = [0u8; CSW_LEN];
            self.mem.read_bytes(CSW_BUF, &mut csw).unwrap();
            csw[12]
        }
    }

    #[test]
    fn port_reports_a_connected_device() {
        let mut rig = Rig::new();
        let p = rig.read32(regs::HPRT, 0);
        assert!(p & hprt::CONN_STS != 0);
        assert!(p & hprt::CONN_DET != 0);
        rig.write32(regs::HPRT, hprt::CONN_DET, 0);
        assert!(rig.read32(regs::HPRT, 0) & hprt::CONN_DET == 0);
    }

    #[test]
    fn core_soft_reset_is_self_clearing() {
        let mut rig = Rig::new();
        rig.write32(regs::GRSTCTL, grstctl::CSFT_RST, 0);
        let v = rig.read32(regs::GRSTCTL, 0);
        assert_eq!(v & grstctl::CSFT_RST, 0);
        assert!(v & grstctl::AHB_IDLE != 0);
    }

    #[test]
    fn hfnum_is_time_dependent_and_not_sticky() {
        let mut rig = Rig::new();
        let a = rig.read32(regs::HFNUM, 0) & 0x3fff;
        let b = rig.read32(regs::HFNUM, 125_000 * 10) & 0x3fff;
        assert_ne!(a, b, "frame number must advance with time");
    }

    #[test]
    fn full_scsi_write_read_round_trip_through_dma() {
        let mut rig = Rig::new();
        rig.enable_irqs();
        let payload: Vec<u8> = (0..2048).map(|i| (i % 13) as u8).collect();
        assert_eq!(rig.scsi_write(20, &payload, 1), 0);
        let back = rig.scsi_read(20, 4, 2);
        assert_eq!(back, payload);
        assert!(rig.hc.transactions() >= 6);
        assert!(rig.irqs.assert_count() > 0);
        assert_eq!(rig.hc.device().disk().blocks_written(), 4);
    }

    #[test]
    fn irq_requires_global_enable_and_mask() {
        let mut rig = Rig::new();
        // No GAHBCFG/GINTMSK programming: completion must not interrupt.
        let payload = vec![3u8; 512];
        rig.scsi_write(0, &payload, 5);
        assert_eq!(rig.irqs.assert_count(), 0);
    }

    #[test]
    fn unplug_mid_everything_raises_disconnect_and_fails_transfers() {
        let mut rig = Rig::new();
        rig.enable_irqs();
        rig.hc.unplug();
        assert!(rig.read32(regs::GINTSTS, 0) & gintsts::DISCINT != 0);
        assert!(rig.read32(regs::HPRT, 0) & hprt::CONN_STS == 0);
        // A transaction attempted now fails with XACTERR instead of XFERCOMPL.
        let ch = regs::CHANNEL;
        rig.write32(regs::hctsiz(ch), 31 | (1 << hctsiz::PKTCNT_SHIFT), 0);
        rig.write32(regs::hcdma(ch), CBW_BUF as u32, 0);
        rig.write32(
            regs::hcchar(ch),
            512 | (BULK_OUT_EP << hcchar::EPNUM_SHIFT) | hcchar::EPTYPE_BULK | hcchar::CHENA,
            0,
        );
        rig.tick(10_000_000_000);
        let int = rig.read32(regs::hcint(ch), 10_000_000_000);
        assert!(int & hcint::XACTERR != 0);
        assert!(int & hcint::XFERCOMPL == 0);
    }

    #[test]
    fn quiet_until_tracks_the_channel_and_port_changes() {
        let mut rig = Rig::new();
        rig.enable_irqs();
        assert_eq!(rig.hc.quiet_until_ns(), Some(u64::MAX), "idle");
        let ch = regs::CHANNEL;
        rig.write32(regs::hctsiz(ch), 512 | (1 << hctsiz::PKTCNT_SHIFT), 1_000);
        rig.write32(regs::hcdma(ch), DATA_BUF as u32, 1_000);
        let charval = 512
            | (BULK_IN_EP << hcchar::EPNUM_SHIFT)
            | hcchar::EPTYPE_BULK
            | hcchar::EPDIR_IN
            | hcchar::CHENA;
        rig.write32(regs::hcchar(ch), charval, 1_000);
        let done = rig.hc.quiet_until_ns().unwrap();
        assert!(done > 1_000);
        // Quiet means quiet: one ns early the tick does nothing.
        rig.tick(done - 1);
        assert_eq!(rig.irqs.assert_count(), 0);
        assert_eq!(rig.hc.quiet_until_ns(), Some(done));
        rig.tick(done);
        assert!(rig.irqs.assert_count() > 0, "completion raises the interrupt");
        assert_eq!(rig.hc.quiet_until_ns(), Some(u64::MAX));
        rig.hc.unplug();
        assert!(rig.hc.quiet_until_ns().unwrap() <= done, "the port change is due now");
        rig.tick(done);
        assert_eq!(rig.hc.quiet_until_ns(), Some(u64::MAX));
    }

    #[test]
    fn soft_reset_returns_to_enumerated_state() {
        let mut rig = Rig::new();
        let (hc, mut ctx) = rig.ctx(0);
        hc.soft_reset(0, &mut ctx);
        assert!(rig.hc.device().is_configured());
        assert!(rig.hc.is_idle());
        let data = rig.scsi_read(1, 1, 3);
        assert_eq!(data.len(), 512);
    }
}
