//! DWC2 host-controller driver: core init, port reset, channel transfers.
//!
//! The full Linux counterpart implements dynamic channel scheduling across
//! many endpoints and devices; this driver keeps that structure (a channel
//! submission API with NAK retry and per-transfer interrupt handling) while
//! serving the single mass-storage device the platform exposes.

use dlt_dev_usb::regs::{self, gahbcfg, gintsts, grstctl, hcchar, hcint, hctsiz, hprt};
use dlt_dev_usb::USB_BASE;
use dlt_hw::irq::lines;
use dlt_hw::DmaRegion;

use crate::kenv::{DriverError, HwIo};

const fn reg(offset: u64) -> u64 {
    USB_BASE + offset
}

/// Endpoint type for a channel submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpType {
    /// Control endpoint (endpoint 0).
    Control,
    /// Bulk endpoint.
    Bulk,
}

/// Statistics for the Table 8 effort analysis and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HcdStats {
    /// Channel submissions.
    pub transfers: u64,
    /// NAK retries performed.
    pub nak_retries: u64,
    /// Transaction errors observed.
    pub xact_errors: u64,
}

/// The host-controller driver.
pub struct UsbHcd<I: HwIo> {
    io: I,
    device_address: u8,
    initialized: bool,
    stats: HcdStats,
}

impl<I: HwIo> UsbHcd<I> {
    /// Wrap an IO environment.
    pub fn new(io: I) -> Self {
        UsbHcd { io, device_address: 0, initialized: false, stats: HcdStats::default() }
    }

    /// Access the underlying IO environment.
    pub fn io_mut(&mut self) -> &mut I {
        &mut self.io
    }

    /// Statistics.
    pub fn stats(&self) -> HcdStats {
        self.stats
    }

    /// Whether core init and enumeration have completed.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Address assigned to the mass-storage device during enumeration.
    pub fn device_address(&self) -> u8 {
        self.device_address
    }

    /// Reset and configure the controller core.
    pub fn core_init(&mut self) -> Result<(), DriverError> {
        self.io.writel(reg(regs::GRSTCTL), grstctl::CSFT_RST);
        self.io.readl_poll(
            reg(regs::GRSTCTL),
            grstctl::AHB_IDLE,
            grstctl::AHB_IDLE,
            10,
            100_000,
        )?;
        self.io.writel(reg(regs::GAHBCFG), gahbcfg::GLBL_INTR_EN | gahbcfg::DMA_EN);
        self.io.writel(reg(regs::GINTMSK), gintsts::HCHINT | gintsts::DISCINT | gintsts::PRTINT);
        self.io.writel(reg(regs::HCFG), 0);
        self.io.writel(reg(regs::HFIR), 0xea60);
        Ok(())
    }

    /// Reset the root port and confirm a device is attached.
    pub fn port_init(&mut self) -> Result<(), DriverError> {
        let p = self.io.readl(reg(regs::HPRT));
        if p & hprt::CONN_STS == 0 {
            return Err(DriverError::NoMedium);
        }
        // Power + reset pulse.
        self.io.writel(reg(regs::HPRT), p | hprt::PWR | hprt::RST);
        self.io.delay_us(50_000);
        self.io.writel(reg(regs::HPRT), (p | hprt::PWR) & !hprt::RST);
        self.io.delay_us(10_000);
        // Clear the connect-detected latch.
        self.io.writel(reg(regs::HPRT), hprt::CONN_DET | hprt::PWR);
        self.io.readl_poll(reg(regs::HPRT), hprt::ENA, hprt::ENA, 100, 100_000)?;
        Ok(())
    }

    /// (Re)program the interrupt routing for a request. Mirrors the per-URB
    /// preparation of the full driver and makes every recorded template
    /// self-contained with respect to a soft-reset controller.
    pub fn prepare_request(&mut self) {
        self.io.writel(reg(regs::GAHBCFG), gahbcfg::GLBL_INTR_EN | gahbcfg::DMA_EN);
        self.io.writel(reg(regs::GINTMSK), gintsts::HCHINT | gintsts::DISCINT | gintsts::PRTINT);
        self.io.writel(reg(regs::hcintmsk(regs::CHANNEL)), 0xffff_ffff);
    }

    /// Submit one transfer on the reserved channel and wait for completion.
    ///
    /// `pid_setup` marks the SETUP stage of a control transfer.
    pub fn submit(
        &mut self,
        ep_type: EpType,
        ep_num: u32,
        dir_in: bool,
        buf: DmaRegion,
        len: usize,
        pid_setup: bool,
    ) -> Result<(), DriverError> {
        let ch = regs::CHANNEL;
        for attempt in 0..4 {
            self.stats.transfers += 1;
            let mut tsiz = (len as u32) & hctsiz::XFERSIZE_MASK;
            tsiz |= 1 << hctsiz::PKTCNT_SHIFT;
            tsiz |= if pid_setup { hctsiz::PID_SETUP } else { hctsiz::PID_DATA1 };
            self.io.writel(reg(regs::hctsiz(ch)), tsiz);
            self.io.writel(reg(regs::hcdma(ch)), buf.base as u32);
            let mut charval = 512
                | (ep_num << hcchar::EPNUM_SHIFT)
                | (u32::from(self.device_address) << hcchar::DEVADDR_SHIFT)
                | hcchar::CHENA;
            charval |= match ep_type {
                EpType::Control => hcchar::EPTYPE_CONTROL,
                EpType::Bulk => hcchar::EPTYPE_BULK,
            };
            if dir_in {
                charval |= hcchar::EPDIR_IN;
            }
            self.io.writel(reg(regs::hcchar(ch)), charval);

            self.io.wait_for_irq(lines::USB, 2_000_000)?;
            let gint = self.io.readl(reg(regs::GINTSTS));
            if gint & gintsts::DISCINT != 0 {
                self.io.writel(reg(regs::GINTSTS), gintsts::DISCINT);
                return Err(DriverError::NoMedium);
            }
            let hci = self.io.readl(reg(regs::hcint(ch)));
            self.io.writel(reg(regs::hcint(ch)), hci);
            self.io.writel(reg(regs::GINTSTS), gintsts::HCHINT);
            if hci & hcint::XFERCOMPL != 0 {
                return Ok(());
            }
            if hci & hcint::XACTERR != 0 {
                self.stats.xact_errors += 1;
                return Err(DriverError::Device("USB transaction error".into()));
            }
            if hci & hcint::NAK != 0 {
                self.stats.nak_retries += 1;
                self.io.delay_us(100 * (attempt + 1));
                continue;
            }
            return Err(DriverError::Device(format!("unexpected HCINT {hci:#x}")));
        }
        Err(DriverError::Timeout("channel NAKed too many times".into()))
    }

    /// Perform a complete control transfer (SETUP / optional DATA-IN /
    /// STATUS). Returns the data-stage bytes.
    pub fn control(&mut self, setup: [u8; 8], data_in_len: usize) -> Result<Vec<u8>, DriverError> {
        let setup_buf = self.io.dma_alloc(8)?;
        self.io.copy_to_dma(setup_buf, 0, &setup);
        self.submit(EpType::Control, 0, false, setup_buf, 8, true)?;
        let mut data = Vec::new();
        if data_in_len > 0 {
            let data_buf = self.io.dma_alloc(data_in_len.max(64))?;
            self.submit(EpType::Control, 0, true, data_buf, data_in_len, false)?;
            data = vec![0u8; data_in_len];
            self.io.copy_from_dma(data_buf, 0, &mut data);
        }
        // Status stage (zero-length, opposite direction).
        let status_buf = self.io.dma_alloc(4)?;
        self.submit(EpType::Control, 0, data_in_len == 0, status_buf, 0, false)?;
        Ok(data)
    }

    /// Enumerate the attached device: descriptors, address, configuration.
    pub fn enumerate(&mut self) -> Result<(), DriverError> {
        // GET_DESCRIPTOR(device) at address 0.
        let dev_desc = self.control([0x80, 6, 0, 1, 0, 0, 18, 0], 18)?;
        if dev_desc.len() < 18 || dev_desc[1] != 1 {
            return Err(DriverError::Device("bad device descriptor".into()));
        }
        // SET_ADDRESS(1).
        self.control([0x00, 5, 1, 0, 0, 0, 0, 0], 0)?;
        self.device_address = 1;
        // GET_DESCRIPTOR(configuration).
        let cfg = self.control([0x80, 6, 0, 2, 0, 0, 64, 0], 32)?;
        if cfg.len() < 9 || cfg[1] != 2 {
            return Err(DriverError::Device("bad configuration descriptor".into()));
        }
        // SET_CONFIGURATION(1).
        self.control([0x00, 9, 1, 0, 0, 0, 0, 0], 0)?;
        self.initialized = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kenv::BusIo;
    use dlt_dev_usb::{UsbHostController, UsbSubsystem};
    use dlt_hw::Platform;

    fn rig() -> (Platform, UsbHcd<BusIo>) {
        let p = Platform::new();
        UsbSubsystem::attach(&p).unwrap();
        let io = BusIo::normal_world(p.bus.clone(), DmaRegion::new(0x200_0000, 0x100_0000));
        let hcd = UsbHcd::new(io);
        (p, hcd)
    }

    /// Run `f` on the platform's USB host controller.
    fn hostctrl<R>(p: &Platform, f: impl FnOnce(&mut UsbHostController) -> R) -> R {
        f(p.bus.lock().device::<UsbHostController>().unwrap())
    }

    #[test]
    fn core_and_port_init_then_enumeration() {
        let (p, mut hcd) = rig();
        hcd.core_init().unwrap();
        hcd.port_init().unwrap();
        hcd.enumerate().unwrap();
        assert!(hcd.is_initialized());
        assert_eq!(hcd.device_address(), 1);
        assert!(hostctrl(&p, |hc| hc.device().is_configured()));
        assert!(hcd.stats().transfers >= 8);
    }

    #[test]
    fn port_init_fails_with_no_device() {
        let (p, mut hcd) = rig();
        hcd.core_init().unwrap();
        hostctrl(&p, |hc| hc.unplug());
        assert!(matches!(hcd.port_init(), Err(DriverError::NoMedium)));
    }

    #[test]
    fn unplug_mid_enumeration_is_detected() {
        let (p, mut hcd) = rig();
        hcd.core_init().unwrap();
        hcd.port_init().unwrap();
        hostctrl(&p, |hc| hc.unplug());
        let err = hcd.enumerate().unwrap_err();
        assert!(matches!(err, DriverError::NoMedium | DriverError::Device(_)));
    }
}
