//! Calibrated virtual-time cost model.
//!
//! Every performance experiment in the paper (Figures 5-7) is reproduced on a
//! deterministic virtual clock. The costs below are calibrated so that the
//! *relative* behaviour of the paper holds: driverlets pay uncached MMIO,
//! synchronous completion and per-template device resets; native drivers
//! enjoy write-behind, IRQ coalescing and transfer scheduling but pay the
//! kernel block-layer and scheduling overheads the paper calls out in §8.3.
//!
//! The absolute values are in the ballpark of a Raspberry Pi 3 class SoC with
//! a class-10 SD card and a USB 2.0 flash drive, but we make no claim of
//! matching the authors' testbed cycle-for-cycle.

use serde::{Deserialize, Serialize};

/// Cost model in nanoseconds of virtual time.
///
/// The model is intentionally a plain data struct: device simulators, gold
/// drivers and the replayer all read the same instance (owned by the
/// [`crate::clock::VirtualClock`]), so experiments can perturb a single knob
/// for ablations (see the ablation rows of `tests/virtual_behaviour_pin.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cached (normal-world driver) MMIO register access.
    pub mmio_access_ns: u64,
    /// Uncached (TEE replayer) MMIO register access. The paper's replayer maps
    /// device memory uncached to guarantee coherence (§6.2), which is slower.
    pub mmio_uncached_ns: u64,
    /// One SMC world switch (entry + exit). Driverlets do *not* pay this per
    /// IO (§8.3.1: "driverlets do not incur world-switch overheads"), but
    /// delegation-based baselines would.
    pub world_switch_ns: u64,
    /// Software overhead of a full GlobalPlatform command invocation on top
    /// of the raw SMC: message marshalling, session lookup and TA
    /// scheduling in OP-TEE. Amacher & Schiavoni measure complete OP-TEE
    /// invocations at tens of microseconds even though the bare world
    /// switch is a few; the per-call serve gate pays this once per submit,
    /// which is exactly what the shared-memory ring path amortises away.
    pub smc_invoke_ns: u64,
    /// One doorbell SMC on the ring submission path: a world switch plus
    /// the gate's fetch of the submission-ring indices. Charged **once per
    /// doorbell batch**, not per request.
    pub ring_doorbell_ns: u64,
    /// The gate trustlet's per-entry cost while draining a rung submission
    /// ring: copy-in of one ring slot plus the admission checks. Charged
    /// per entry inside one doorbell's world switch.
    pub ring_entry_validate_ns: u64,
    /// DRAM copy cost per 32-bit word (PIO data movement).
    pub dram_word_copy_ns: u64,
    /// Fixed cost to set up one DMA transfer (program the engine).
    pub dma_setup_ns: u64,
    /// DMA transfer cost per 4 KiB page moved.
    pub dma_per_page_ns: u64,
    /// Latency for the SD card to execute one command (CMD line round trip).
    pub sd_cmd_ns: u64,
    /// SD card single 512-byte block read latency (media + transfer).
    pub sd_read_block_ns: u64,
    /// SD card single 512-byte block program (write) latency.
    pub sd_write_block_ns: u64,
    /// Extra latency the SD card charges once per multi-block transaction.
    pub sd_transaction_overhead_ns: u64,
    /// USB control transfer (setup/status stages) latency.
    pub usb_control_ns: u64,
    /// USB bulk transfer latency per 512-byte block.
    pub usb_bulk_block_ns: u64,
    /// USB bulk-only-transport per-command overhead (CBW + CSW round trip).
    pub usb_bot_overhead_ns: u64,
    /// Flash translation layer program cost per 4 KiB LBA on the USB stick.
    pub usb_lba_program_ns: u64,
    /// Camera pipeline: one-time component/port initialisation (sensor
    /// power-up, firmware tuner load). Charged by VC4 on component creation.
    pub cam_init_ns: u64,
    /// Camera pipeline: capture-port (re-)arming — sensor mode switch plus
    /// AGC/AWB re-convergence. Charged by VC4 on every port enable; burst
    /// templates that re-arm the port per frame pay it per frame (§8.3.2).
    pub cam_port_setup_ns: u64,
    /// Camera pipeline: sensor exposure + readout per frame.
    pub cam_exposure_ns: u64,
    /// Camera pipeline: ISP/encode cost per megapixel.
    pub cam_isp_per_mp_ns: u64,
    /// VCHIQ message round trip (enqueue + doorbell + parse on VC4).
    pub vchiq_msg_ns: u64,
    /// Interrupt delivery latency (device assert -> CPU observes).
    pub irq_delivery_ns: u64,
    /// Extra latency when the native driver coalesces interrupts: the cost of
    /// *not* coalescing, charged per extra IRQ a driverlet must wait for.
    pub irq_wait_overhead_ns: u64,
    /// Linux block-layer + filesystem + driver-framework overhead charged per
    /// request by the native path (absent in the driverlet path, §8.3.2).
    pub kernel_block_layer_ns: u64,
    /// Native driver request scheduling/merging work per 4 KiB page
    /// (absent in the driverlet path; explains the Fig. 7 large-write win).
    pub native_sched_per_page_ns: u64,
    /// USB-stack transfer scheduling per 4 KiB page on the native path
    /// (§8.3.3 explains the large-write gap with this cost).
    pub usb_sched_per_page_ns: u64,
    /// Cost of a device soft reset (driverlets reset between templates, §5).
    pub soft_reset_ns: u64,
    /// Polling loop delay quantum used by `udelay`-style busy waits.
    pub poll_delay_ns: u64,
    /// TEE template instantiation (constraint check + binding) per event.
    pub replay_event_dispatch_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            mmio_access_ns: 120,
            mmio_uncached_ns: 190,
            world_switch_ns: 4_000,
            smc_invoke_ns: 10_000,
            ring_doorbell_ns: 4_500,
            ring_entry_validate_ns: 300,
            dram_word_copy_ns: 12,
            dma_setup_ns: 2_500,
            dma_per_page_ns: 3_200,
            sd_cmd_ns: 42_000,
            sd_read_block_ns: 46_000,
            sd_write_block_ns: 130_000,
            sd_transaction_overhead_ns: 60_000,
            usb_control_ns: 250_000,
            usb_bulk_block_ns: 36_000,
            usb_bot_overhead_ns: 180_000,
            usb_lba_program_ns: 220_000,
            cam_init_ns: 1_750_000_000,
            cam_port_setup_ns: 230_000_000,
            cam_exposure_ns: 70_000_000,
            cam_isp_per_mp_ns: 50_000_000,
            vchiq_msg_ns: 350_000,
            irq_delivery_ns: 8_000,
            irq_wait_overhead_ns: 55_000,
            kernel_block_layer_ns: 220_000,
            native_sched_per_page_ns: 18_000,
            usb_sched_per_page_ns: 55_000,
            soft_reset_ns: 30_000,
            poll_delay_ns: 10_000,
            replay_event_dispatch_ns: 1_200,
        }
    }
}

impl CostModel {
    /// Cost of one MMIO access for the given mapping attribute.
    pub fn mmio(&self, uncached: bool) -> u64 {
        if uncached {
            self.mmio_uncached_ns
        } else {
            self.mmio_access_ns
        }
    }

    /// Total DMA cost for a transfer covering `pages` 4 KiB pages.
    pub fn dma_transfer(&self, pages: u64) -> u64 {
        self.dma_setup_ns + pages * self.dma_per_page_ns
    }

    /// Camera frame cost at a resolution of `megapixels_x100` (megapixels
    /// scaled by 100 to stay in integer arithmetic, e.g. 1080p ≈ 207).
    pub fn cam_frame(&self, megapixels_x100: u64) -> u64 {
        self.cam_exposure_ns + self.cam_isp_per_mp_ns * megapixels_x100 / 100
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = CostModel::default();
        // Uncached MMIO must be more expensive than cached: this asymmetry is
        // one of the sources of driverlet overhead in §8.3.
        assert!(c.mmio_uncached_ns > c.mmio_access_ns);
        // SD writes are slower than reads on real flash.
        assert!(c.sd_write_block_ns > c.sd_read_block_ns);
        // Camera init dominates single-frame capture (paper §8.3.2: most of
        // the 3.7 s per frame is camera initialisation), and the full
        // component bring-up dwarfs a port re-arm.
        assert!(c.cam_init_ns > c.cam_frame(207));
        assert!(c.cam_init_ns > c.cam_port_setup_ns);
        assert!(c.cam_port_setup_ns > c.cam_exposure_ns);
        // The full GP invoke path costs more software time than the raw
        // switch (Amacher & Schiavoni); a doorbell is one switch plus an
        // index fetch; validating one already-shared ring entry is far
        // cheaper than crossing the world for it.
        assert!(c.smc_invoke_ns > c.world_switch_ns);
        assert!(c.ring_doorbell_ns >= c.world_switch_ns);
        assert!(c.ring_entry_validate_ns < c.world_switch_ns);
    }

    #[test]
    fn dma_cost_is_linear_in_pages() {
        let c = CostModel::default();
        let one = c.dma_transfer(1);
        let four = c.dma_transfer(4);
        assert_eq!(four - one, 3 * c.dma_per_page_ns);
    }

    #[test]
    fn cam_frame_grows_with_resolution() {
        let c = CostModel::default();
        assert!(c.cam_frame(92) < c.cam_frame(207));
        assert!(c.cam_frame(207) < c.cam_frame(368));
    }

    #[test]
    fn serde_round_trip() {
        let c = CostModel::default();
        let json = serde_json::to_string(&c);
        // serde_json is only a dev/test aid here; dlt-hw itself doesn't depend
        // on it, so just verify the Serialize impl compiles via serde's
        // in-memory token check instead when unavailable.
        if let Ok(j) = json {
            let back: CostModel = serde_json::from_str(&j).unwrap();
            assert_eq!(back, c);
        }
    }
}
