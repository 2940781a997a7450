//! # dlt-tee — TrustZone / OP-TEE environment model
//!
//! Models the TEE half of the paper's system (§5, §6.2, §8.3.1):
//!
//! * **World partitioning**: devices and the TEE's reserved RAM pool are
//!   assigned to the secure world through the platform bus's TZASC emulation,
//!   so the untrusted normal world faults when it touches them.
//! * **Secure services** ([`HeldIo`], the view [`SecureIo::hold`] returns;
//!   it holds the bus lock for a whole replay): uncached MMIO, interrupt waits,
//!   shared-memory access, a CMA-style contiguous DMA pool carved out of the
//!   3 MB the paper reserves, a hardware RNG, timestamps obtained via an RPC
//!   to the normal world (each RPC pays a world switch), and delays. These
//!   are exactly the environment dependencies the replayer needs — nothing
//!   more.
//! * **Trustlet framework** ([`Trustlet`], [`TeeKernel`]): a minimal trusted
//!   application model with sessions and command invocation, used by
//!   `dlt-trustlets` for the end-to-end use cases (§8.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::Arc;

use dlt_hw::bus::MmioAttr;
use dlt_hw::mem::BumpDmaAllocator;
use dlt_hw::{BusGuard, CostModel, DmaRegion, HwError, Platform, Shared, SystemBus, World};
use dlt_obs::metrics::SmcMetrics;
use dlt_obs::trace::{EventKind, SmcKind, TraceHandle};

/// Size of the TEE's reserved DMA pool (the paper reserves 3 MB, §8.3.1).
pub const TEE_DMA_POOL_BYTES: usize = 3 * 1024 * 1024;
/// Physical base of the TEE's reserved RAM window.
pub const TEE_DMA_POOL_BASE: u64 = 0x3c0_0000;
/// Largest single hardware-RNG request the TEE services (the SoC RNG FIFO;
/// see [`HeldIo::fill_rand_bytes`]).
pub const RNG_MAX_REQUEST: usize = 4096;

/// The error [`HeldIo::fill_rand_bytes`] returns for a request of `len`
/// bytes, checked up front so a caller can refuse an oversized request
/// before it sizes a buffer for it.
pub fn check_rng_request(len: usize) -> Result<(), TeeError> {
    if len > RNG_MAX_REQUEST {
        return Err(TeeError::Hw(HwError::DeviceError {
            device: "rng".into(),
            reason: format!("request of {len} bytes exceeds the {RNG_MAX_REQUEST}-byte FIFO"),
        }));
    }
    Ok(())
}

/// Errors raised by the TEE layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeeError {
    /// A hardware access failed (fault, timeout); the wrapped [`HwError`]
    /// is preserved as the [`std::error::Error::source`].
    Hw(HwError),
    /// The requested device is not assigned to the secure world.
    NotSecured(String),
    /// The secure DMA pool is exhausted.
    OutOfSecureMemory,
    /// Trustlet/session errors.
    Trustlet(String),
}

impl std::fmt::Display for TeeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeeError::Hw(e) => write!(f, "hardware: {e}"),
            TeeError::NotSecured(d) => write!(f, "device {d} is not assigned to the TEE"),
            TeeError::OutOfSecureMemory => write!(f, "secure DMA pool exhausted"),
            TeeError::Trustlet(s) => write!(f, "trustlet: {s}"),
        }
    }
}

impl std::error::Error for TeeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TeeError::Hw(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HwError> for TeeError {
    fn from(e: HwError) -> Self {
        TeeError::Hw(e)
    }
}

/// Secure-world IO services available to the replayer.
///
/// This is deliberately *not* the gold drivers' kernel-environment trait: the
/// replayer's dependencies are the short list of primitives in §6.2 (uncached
/// register access, poll/delay loops, contiguous DMA from the reserved pool,
/// the platform RNG, and normal-world RPC for timestamps).
///
/// The services live on [`HeldIo`], a view that holds the bus lock;
/// [`SecureIo::hold`] takes it, and a replay holds one view for a whole
/// invocation. What stays here needs no view: cost lookups (a copy of the
/// platform's cost model, no lock), pool and world-switch bookkeeping, and
/// a few device queries that take the lock once each.
pub struct SecureIo {
    bus: Shared<SystemBus>,
    /// The platform's cost model, copied at construction: it never changes
    /// afterwards, and cost lookups sit on the replay hot path.
    cost: CostModel,
    pool: BumpDmaAllocator,
    rng_state: u64,
    world_switches: u64,
}

/// The physical address of `len` bytes at `offset` into `region`, or
/// [`HwError::OutOfBounds`] when they do not lie inside the allocation.
fn dma_addr(region: DmaRegion, offset: u64, len: usize) -> Result<u64, TeeError> {
    let addr = region.base.saturating_add(offset);
    if region.contains(addr, len) {
        Ok(addr)
    } else {
        Err(TeeError::Hw(HwError::OutOfBounds { addr, len }))
    }
}

impl SecureIo {
    /// Build the secure IO services over the platform bus.
    pub fn new(bus: Shared<SystemBus>) -> Self {
        let cost = bus.lock().clock.cost().clone();
        SecureIo {
            bus,
            cost,
            pool: BumpDmaAllocator::new(DmaRegion::new(TEE_DMA_POOL_BASE, TEE_DMA_POOL_BYTES)),
            rng_state: 0x9e37_79b9_7f4a_7c15,
            world_switches: 0,
        }
    }

    /// Take the bus lock and return the services as a view that holds it
    /// until dropped.
    pub fn hold(&mut self) -> HeldIo<'_> {
        HeldIo {
            bus: self.bus.lock(),
            cost: &self.cost,
            pool: &mut self.pool,
            rng_state: &mut self.rng_state,
            world_switches: &mut self.world_switches,
        }
    }

    /// Peak pool usage in bytes.
    pub fn dma_high_water(&self) -> u64 {
        self.pool.high_water()
    }

    /// The secure pool window (needed to program the TZASC RAM protection).
    pub fn pool_region(&self) -> DmaRegion {
        self.pool.region()
    }

    /// Hardware RNG (OP-TEE exposes the SoC RNG to the TEE, §6.2).
    ///
    /// Allocates and transparently splits oversized requests into FIFO-sized
    /// reads; replay hot paths use [`HeldIo::fill_rand_bytes`] (one FIFO
    /// request, fallible, no allocation) with a reusable scratch buffer.
    pub fn get_rand_bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let mut io = self.hold();
        for chunk in out.chunks_mut(RNG_MAX_REQUEST) {
            io.fill_rand_bytes(chunk).expect("chunks are FIFO-sized");
        }
        out
    }

    /// The per-event dispatch cost from the platform cost model.
    pub fn replay_dispatch_cost_ns(&self) -> u64 {
        self.cost.replay_event_dispatch_ns
    }

    /// The per-IRQ wait overhead from the platform cost model.
    pub fn irq_wait_overhead_ns(&self) -> u64 {
        self.cost.irq_wait_overhead_ns
    }

    /// The software overhead of one full GP command invocation beyond the
    /// raw world switch (marshalling, session lookup, TA scheduling) —
    /// charged by gate-style trustlets on the per-call submit path.
    pub fn smc_invoke_overhead_ns(&self) -> u64 {
        self.cost.smc_invoke_ns
    }

    /// The gate's per-entry cost for validating one shared-memory
    /// submission-ring slot while draining a rung ring.
    pub fn ring_entry_validate_ns(&self) -> u64 {
        self.cost.ring_entry_validate_ns
    }

    /// A copy of the platform cost model (for replayer accounting).
    pub fn cost_model(&self) -> CostModel {
        self.cost.clone()
    }

    /// Acknowledge an interrupt line.
    pub fn ack_irq(&mut self, line: u32) {
        self.bus.lock().ack_irq(line);
    }

    /// Register window of a device (for the replayer's bounds hardening).
    pub fn device_window(&self, name: &str) -> Result<DmaRegion, TeeError> {
        Ok(self.bus.lock().device_window(name)?)
    }

    /// Whether a device is assigned to the secure world.
    pub fn is_device_secure(&self, name: &str) -> bool {
        self.bus.lock().is_device_secure(name)
    }

    /// The secure device whose register window contains `addr..addr+len`,
    /// if any (the replayer's generalised second-window hardening check).
    pub fn secure_device_containing(&self, addr: u64, len: u64) -> Option<&'static str> {
        self.bus.lock().secure_device_containing(addr, len)
    }

    /// Number of world switches performed by RPCs.
    pub fn world_switches(&self) -> u64 {
        self.world_switches
    }

    /// Current virtual time.
    pub fn now_ns(&self) -> u64 {
        self.bus.lock().clock.now_ns()
    }
}

/// The secure services with the bus lock held: every call goes straight to
/// the bus. Built by [`SecureIo::hold`]; the lock is released on drop.
///
/// The lock is a spinlock, so while a view is alive nothing on its thread
/// may call a [`Platform`] or [`SecureIo`] method, or lock the bus.
pub struct HeldIo<'a> {
    bus: BusGuard<'a>,
    cost: &'a CostModel,
    pool: &'a mut BumpDmaAllocator,
    rng_state: &'a mut u64,
    world_switches: &'a mut u64,
}

impl HeldIo<'_> {
    /// Uncached 32-bit register read.
    pub fn readl(&mut self, addr: u64) -> Result<u32, TeeError> {
        Ok(self.bus.mmio_read32(addr, World::Secure, MmioAttr::Uncached)?)
    }

    /// Uncached 32-bit register write.
    pub fn writel(&mut self, addr: u64, val: u32) -> Result<(), TeeError> {
        Ok(self.bus.mmio_write32(addr, val, World::Secure, MmioAttr::Uncached)?)
    }

    /// Wait for an interrupt (the replayer's interrupt context trigger).
    pub fn wait_for_irq(&mut self, line: u32, timeout_us: u64) -> Result<u64, TeeError> {
        Ok(self.bus.wait_for_irq(line, timeout_us, World::Secure)?)
    }

    /// Read a word at `offset` into a secure DMA allocation.
    pub fn shm_read32(&mut self, region: DmaRegion, offset: u64) -> Result<u32, TeeError> {
        let addr = dma_addr(region, offset, 4)?;
        Ok(self.bus.ram_read32(addr, World::Secure)?)
    }

    /// Write a word at `offset` into a secure DMA allocation.
    pub fn shm_write32(
        &mut self,
        region: DmaRegion,
        offset: u64,
        val: u32,
    ) -> Result<(), TeeError> {
        let addr = dma_addr(region, offset, 4)?;
        Ok(self.bus.ram_write32(addr, val, World::Secure)?)
    }

    /// Copy payload into a secure DMA allocation at `offset`.
    pub fn copy_to_dma(
        &mut self,
        region: DmaRegion,
        offset: u64,
        data: &[u8],
    ) -> Result<(), TeeError> {
        let addr = dma_addr(region, offset, data.len())?;
        Ok(self.bus.ram_write(addr, data, World::Secure)?)
    }

    /// Copy payload out of a secure DMA allocation at `offset`.
    ///
    /// This is the zero-copy path for device→trustlet payload: the replayer
    /// hands a sub-slice of the trustlet buffer directly, so DMA contents
    /// land in place without an intermediate heap buffer.
    pub fn copy_from_dma(
        &mut self,
        region: DmaRegion,
        offset: u64,
        out: &mut [u8],
    ) -> Result<(), TeeError> {
        let addr = dma_addr(region, offset, out.len())?;
        Ok(self.bus.ram_read(addr, out, World::Secure)?)
    }

    /// Allocate from the TEE's contiguous pool (the stock OP-TEE allocator
    /// already hands out contiguous pages, §6.2).
    pub fn dma_alloc(&mut self, len: usize) -> Result<DmaRegion, TeeError> {
        self.pool.alloc(len).map_err(|_| TeeError::OutOfSecureMemory)
    }

    /// Release all pool allocations (between template executions).
    pub fn dma_release_all(&mut self) {
        self.pool.release_all();
    }

    /// Fill `out` from the hardware RNG without allocating.
    ///
    /// Fails when the request exceeds [`RNG_MAX_REQUEST`]: the SoC RNG FIFO
    /// is small and OP-TEE's RNG PTA rejects oversized reads rather than
    /// blocking the TEE for the refill time. Replay consumers must propagate
    /// this instead of discarding it.
    pub fn fill_rand_bytes(&mut self, out: &mut [u8]) -> Result<(), TeeError> {
        check_rng_request(out.len())?;
        let rng = &mut *self.rng_state;
        for chunk in out.chunks_mut(8) {
            *rng ^= *rng >> 12;
            *rng ^= *rng << 25;
            *rng ^= *rng >> 27;
            let word = rng.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
        Ok(())
    }

    /// Timestamp via RPC to the normal world (OP-TEE obtains wall-clock time
    /// through an RPC, which costs a world switch each way).
    pub fn get_ts_rpc(&mut self) -> u64 {
        *self.world_switches += 2;
        self.bus.clock.charge_world_switch();
        self.bus.clock.charge_world_switch();
        self.bus.clock.now_ns()
    }

    /// Busy-wait, advancing virtual time and ticking devices.
    pub fn delay_us(&mut self, us: u64) {
        self.bus.delay_us(us);
    }

    /// Charge CPU time spent inside the TEE (e.g. the replayer's per-event
    /// dispatch cost) without ticking devices.
    pub fn charge_ns(&mut self, ns: u64) {
        self.bus.clock.advance_ns(ns);
    }

    /// Soft-reset a device by bus name.
    pub fn soft_reset_device(&mut self, name: &str) -> Result<(), TeeError> {
        Ok(self.bus.soft_reset_device(name)?)
    }

    /// Current virtual time.
    pub fn now_ns(&self) -> u64 {
        self.bus.clock.now_ns()
    }

    /// The platform cost model (for replayer accounting).
    pub fn cost(&self) -> &CostModel {
        self.cost
    }
}

/// Program one platform's TZASC for the TEE — assign `secure_devices` to
/// the secure world, protect the TEE's DMA pool window — and return the
/// core's [`SecureIo`] services.
///
/// This is the per-core half of [`TeeKernel::install`]: a multi-core
/// deployment (the `dlt-serve` lane-per-device model) calls it once per
/// lane platform so each replayer core gets its own secure services and
/// its own clock, while a single control-plane [`TeeKernel`] keeps owning
/// sessions and SMC accounting.
pub fn secure_core(platform: &Platform, secure_devices: &[&str]) -> Result<SecureIo, TeeError> {
    let io = SecureIo::new(platform.bus.clone());
    {
        let mut bus = platform.bus.lock();
        for dev in secure_devices {
            bus.set_device_secure(dev, true)?;
        }
        bus.protect_ram(io.pool_region());
    }
    Ok(io)
}

/// A trusted application.
pub trait Trustlet {
    /// Stable UUID-like name.
    fn name(&self) -> &'static str;
    /// Handle one command invocation. `params` are the four OP-TEE style
    /// value parameters; `buf` is the shared memory parameter.
    fn invoke(
        &mut self,
        command: u32,
        params: &[u64; 4],
        buf: &mut [u8],
        tee: &mut SecureIo,
    ) -> Result<u64, TeeError>;
}

/// The secure-world kernel: owns the secure services and the installed
/// trustlets, and models the SMC entry path from the normal world.
pub struct TeeKernel {
    io: SecureIo,
    trustlets: Vec<Box<dyn Trustlet>>,
    sessions: HashMap<u32, usize>,
    next_session: u32,
    /// Optional flight-recorder handle: every world switch is bracketed by
    /// `SmcEnter`/`SmcExit` events carrying the SMC kind in `arg`.
    tracer: Option<TraceHandle>,
    /// The kernel's SMC counts by kind — its own, or a set shared with the
    /// serving layer's metrics registry.
    smc_metrics: Arc<SmcMetrics>,
}

impl TeeKernel {
    /// Create the secure kernel on a platform, assigning `secure_devices` to
    /// the TEE (TZASC programming via Arm trusted firmware in the paper) and
    /// protecting the TEE's DMA pool from the normal world.
    pub fn install(platform: &Platform, secure_devices: &[&str]) -> Result<Self, TeeError> {
        let io = secure_core(platform, secure_devices)?;
        Ok(TeeKernel {
            io,
            trustlets: Vec::new(),
            sessions: HashMap::new(),
            next_session: 1,
            tracer: None,
            smc_metrics: Arc::default(),
        })
    }

    /// Install (or remove) a flight-recorder handle for SMC entry/exit
    /// events. `None` restores the untraced fast path.
    pub fn set_tracer(&mut self, tracer: Option<TraceHandle>) {
        self.tracer = tracer;
    }

    /// Count this kernel's SMCs in a shared counter set (replacing its
    /// own); every subsequent world switch bumps the counter for its kind.
    pub fn set_smc_metrics(&mut self, metrics: Arc<SmcMetrics>) {
        self.smc_metrics = metrics;
    }

    /// Count one world switch of `kind` and, when tracing, emit the
    /// `SmcEnter` instant. Pairs with [`Self::smc_exit`].
    fn smc_enter(&mut self, kind: SmcKind, session: u32) {
        self.smc_metrics.record(kind);
        if let Some(t) = self.tracer.as_mut() {
            let now = self.io.now_ns();
            t.emit(EventKind::SmcEnter, now, session, 0, kind as u64);
        }
    }

    /// Emit the `SmcExit` instant closing an [`Self::smc_enter`] bracket.
    fn smc_exit(&mut self, kind: SmcKind, session: u32) {
        if let Some(t) = self.tracer.as_mut() {
            let now = self.io.now_ns();
            t.emit(EventKind::SmcExit, now, session, 0, kind as u64);
        }
    }

    /// Install a trustlet.
    pub fn load_trustlet(&mut self, ta: Box<dyn Trustlet>) {
        self.trustlets.push(ta);
    }

    /// Open a session to a trustlet by name (one SMC).
    pub fn open_session(&mut self, name: &str) -> Result<u32, TeeError> {
        self.smc_enter(SmcKind::OpenSession, 0);
        self.smc();
        let idx = match self.trustlets.iter().position(|t| t.name() == name) {
            Some(idx) => idx,
            None => {
                self.smc_exit(SmcKind::OpenSession, 0);
                return Err(TeeError::Trustlet(format!("no trustlet named {name}")));
            }
        };
        let id = self.next_session;
        self.next_session += 1;
        self.sessions.insert(id, idx);
        self.smc_exit(SmcKind::OpenSession, id);
        Ok(id)
    }

    /// Invoke a command in an open session (one SMC round trip).
    pub fn invoke(
        &mut self,
        session: u32,
        command: u32,
        params: &[u64; 4],
        buf: &mut [u8],
    ) -> Result<u64, TeeError> {
        self.smc_enter(SmcKind::Invoke, session);
        self.smc();
        let idx = match self.sessions.get(&session) {
            Some(idx) => *idx,
            None => {
                self.smc_exit(SmcKind::Invoke, session);
                return Err(TeeError::Trustlet("invalid session".into()));
            }
        };
        let out = self.trustlets[idx].invoke(command, params, buf, &mut self.io);
        self.smc_exit(SmcKind::Invoke, session);
        out
    }

    /// Invoke a trustlet **by name, once for a whole batch** — the
    /// doorbell entry of the shared-memory submission-ring protocol. The
    /// normal world stages any number of requests in pre-registered shared
    /// memory (Göttel et al.'s OP-TEE pattern), then rings the doorbell:
    /// exactly **one** world switch (charged at the cheaper
    /// [`dlt_hw::CostModel::ring_doorbell_ns`], since no per-call message
    /// marshalling happens) admits them all. The trustlet is addressed by
    /// name rather than session because one doorbell admits entries from
    /// many sessions. Accounted separately from per-call SMCs — see
    /// [`TeeKernel::smc_doorbells`].
    pub fn invoke_batch(
        &mut self,
        name: &str,
        command: u32,
        params: &[u64; 4],
        buf: &mut [u8],
    ) -> Result<u64, TeeError> {
        self.smc_enter(SmcKind::Doorbell, 0);
        let doorbell_ns = self.io.cost.ring_doorbell_ns;
        self.io.hold().charge_ns(doorbell_ns);
        let idx = match self.trustlets.iter().position(|t| t.name() == name) {
            Some(idx) => idx,
            None => {
                self.smc_exit(SmcKind::Doorbell, 0);
                return Err(TeeError::Trustlet(format!("no trustlet named {name}")));
            }
        };
        let out = self.trustlets[idx].invoke(command, params, buf, &mut self.io);
        self.smc_exit(SmcKind::Doorbell, 0);
        out
    }

    /// One world switch that invokes nothing: the normal world blocking in
    /// the TEE for an event (an empty completion ring, an overflow flush).
    /// Counted in [`TeeKernel::smc_calls`] as a legacy (non-doorbell) SMC.
    pub fn smc_yield(&mut self) {
        self.smc_enter(SmcKind::Yield, 0);
        self.smc();
        self.smc_exit(SmcKind::Yield, 0);
    }

    /// Close a session.
    pub fn close_session(&mut self, session: u32) {
        self.smc_enter(SmcKind::CloseSession, session);
        self.smc();
        self.sessions.remove(&session);
        self.smc_exit(SmcKind::CloseSession, session);
    }

    /// Direct access to the secure services (used by the replayer, which
    /// lives inside the TEE and therefore does not cross worlds, §8.3.1).
    pub fn io_mut(&mut self) -> &mut SecureIo {
        &mut self.io
    }

    /// Number of SMCs (world switches into the TEE) performed, doorbells
    /// included.
    pub fn smc_calls(&self) -> u64 {
        self.smc_metrics.total()
    }

    /// World switches that were ring doorbells ([`TeeKernel::invoke_batch`]).
    pub fn smc_doorbells(&self) -> u64 {
        self.smc_metrics.calls(SmcKind::Doorbell)
    }

    /// World switches on the legacy per-call path (open/invoke/close/yield).
    pub fn smc_legacy(&self) -> u64 {
        self.smc_calls() - self.smc_doorbells()
    }

    /// Charge one world switch to the control clock (counted by
    /// [`Self::smc_enter`]).
    fn smc(&mut self) {
        self.io.bus.lock().clock.charge_world_switch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_hw::device::{DeviceCtx, MmioDevice, Window};
    use dlt_hw::Platform;

    struct StubDev {
        reg: u32,
    }

    const STUB: &[Window] =
        &[Window { name: "stub", base: 0x3f30_0000, len: 0x100, irq_line: Some(7) }];

    impl MmioDevice for StubDev {
        fn windows(&self) -> &'static [Window] {
            STUB
        }
        fn read32(&mut self, _window: usize, offset: u64, _ctx: &mut DeviceCtx<'_>) -> u32 {
            if offset == 0 {
                self.reg
            } else {
                0
            }
        }
        fn write32(&mut self, _window: usize, offset: u64, val: u32, ctx: &mut DeviceCtx<'_>) {
            if offset == 0 {
                self.reg = val;
            } else if offset == 4 {
                ctx.irqs.assert_at(7, ctx.now_ns + 50_000);
            }
        }
        fn tick(&mut self, _ctx: &mut DeviceCtx<'_>) {}
        fn soft_reset(&mut self, _window: usize, _ctx: &mut DeviceCtx<'_>) {
            self.reg = 0;
        }
    }

    fn rig() -> (Platform, TeeKernel) {
        let p = Platform::new();
        p.bus.lock().attach(Box::new(StubDev { reg: 0 })).unwrap();
        let tee = TeeKernel::install(&p, &["stub"]).unwrap();
        (p, tee)
    }

    #[test]
    fn tzasc_isolation_blocks_the_normal_world() {
        let (p, mut tee) = rig();
        // Normal world faults on the secured device and the protected pool.
        assert!(p.bus.lock().mmio_read32(0x3f30_0000, World::NonSecure, MmioAttr::Cached).is_err());
        assert!(p.bus.lock().ram_write32(TEE_DMA_POOL_BASE + 64, 1, World::NonSecure).is_err());
        // The TEE does not.
        tee.io_mut().hold().writel(0x3f30_0000, 0xabcd).unwrap();
        assert_eq!(tee.io_mut().hold().readl(0x3f30_0000).unwrap(), 0xabcd);
        let r = tee.io_mut().hold().dma_alloc(128).unwrap();
        tee.io_mut().hold().shm_write32(r, 0, 7).unwrap();
        assert_eq!(tee.io_mut().hold().shm_read32(r, 0).unwrap(), 7);
    }

    #[test]
    fn dma_accesses_stay_inside_their_allocation() {
        let (_p, mut tee) = rig();
        let io = tee.io_mut();
        let a = io.hold().dma_alloc(128).unwrap();
        let b = io.hold().dma_alloc(128).unwrap();
        assert_eq!(b.base, a.end(), "the two allocations are adjacent");
        let oob =
            |r: Result<(), TeeError>| matches!(r, Err(TeeError::Hw(HwError::OutOfBounds { .. })));
        assert!(oob(io.hold().shm_write32(a, 128, 0xdead_beef)));
        assert!(oob(io.hold().copy_to_dma(a, 64, &[0xab; 96])));
        assert!(oob(io.hold().shm_read32(a, 126).map(|_| ())));
        assert!(oob(io.hold().copy_from_dma(a, 0, &mut [0u8; 129])));
        assert!(oob(io.hold().shm_write32(a, u64::MAX, 1)));
        let mut untouched = [0xffu8; 128];
        io.hold().copy_from_dma(b, 0, &mut untouched).unwrap();
        assert_eq!(untouched, [0u8; 128], "b must be unchanged");
        // The last word and the whole allocation are still in bounds.
        io.hold().shm_write32(a, 124, 7).unwrap();
        assert_eq!(io.hold().shm_read32(a, 124).unwrap(), 7);
        io.hold().copy_to_dma(a, 0, &[1; 128]).unwrap();
    }

    #[test]
    fn secure_pool_is_bounded_to_three_megabytes() {
        let (_p, mut tee) = rig();
        assert!(tee.io_mut().hold().dma_alloc(2 << 20).is_ok());
        assert!(matches!(tee.io_mut().hold().dma_alloc(2 << 20), Err(TeeError::OutOfSecureMemory)));
        tee.io_mut().hold().dma_release_all();
        assert!(tee.io_mut().hold().dma_alloc(2 << 20).is_ok());
        assert!(tee.io_mut().dma_high_water() >= (2 << 20));
    }

    #[test]
    fn irq_wait_and_rng_and_rpc_timestamp() {
        let (_p, mut tee) = rig();
        tee.io_mut().hold().writel(0x3f30_0004, 1).unwrap();
        let waited = tee.io_mut().hold().wait_for_irq(7, 1_000_000).unwrap();
        assert!(waited >= 49);
        tee.io_mut().ack_irq(7);
        let r1 = tee.io_mut().get_rand_bytes(8);
        let r2 = tee.io_mut().get_rand_bytes(8);
        assert_ne!(r1, r2);
        let t1 = tee.io_mut().hold().get_ts_rpc();
        let t2 = tee.io_mut().hold().get_ts_rpc();
        assert!(t2 > t1, "each RPC pays world switches");
        assert_eq!(tee.io_mut().world_switches(), 4);
    }

    #[test]
    fn trustlet_sessions_and_invocation() {
        struct Echo;
        impl Trustlet for Echo {
            fn name(&self) -> &'static str {
                "echo"
            }
            fn invoke(
                &mut self,
                command: u32,
                params: &[u64; 4],
                buf: &mut [u8],
                _tee: &mut SecureIo,
            ) -> Result<u64, TeeError> {
                if !buf.is_empty() {
                    buf[0] = command as u8;
                }
                Ok(params[0] + params[1])
            }
        }
        let (_p, mut tee) = rig();
        tee.load_trustlet(Box::new(Echo));
        let s = tee.open_session("echo").unwrap();
        let mut buf = [0u8; 4];
        let r = tee.invoke(s, 9, &[2, 3, 0, 0], &mut buf).unwrap();
        assert_eq!(r, 5);
        assert_eq!(buf[0], 9);
        tee.close_session(s);
        assert!(tee.invoke(s, 9, &[0; 4], &mut buf).is_err());
        assert!(tee.open_session("missing").is_err());
        assert!(tee.smc_calls() >= 3);
    }

    #[test]
    fn doorbell_smcs_are_split_from_legacy_smcs_and_cost_one_switch() {
        struct Counter(u64);
        impl Trustlet for Counter {
            fn name(&self) -> &'static str {
                "counter"
            }
            fn invoke(
                &mut self,
                _command: u32,
                params: &[u64; 4],
                _buf: &mut [u8],
                _tee: &mut SecureIo,
            ) -> Result<u64, TeeError> {
                self.0 += params[0];
                Ok(self.0)
            }
        }
        let (_p, mut tee) = rig();
        tee.load_trustlet(Box::new(Counter(0)));
        let s = tee.open_session("counter").unwrap();
        tee.invoke(s, 0, &[1, 0, 0, 0], &mut []).unwrap();
        let t0 = tee.io_mut().now_ns();
        // A 16-entry doorbell: one batch invoke, one (doorbell-priced)
        // world switch, accounted in its own bucket.
        let r = tee.invoke_batch("counter", 1, &[16, 0, 0, 0], &mut []).unwrap();
        assert_eq!(r, 17);
        let doorbell_ns = tee.io_mut().now_ns() - t0;
        assert_eq!(doorbell_ns, dlt_hw::CostModel::default().ring_doorbell_ns);
        assert_eq!(tee.smc_doorbells(), 1);
        assert_eq!(tee.smc_legacy(), 2, "open + invoke stay in the legacy bucket");
        assert_eq!(tee.smc_calls(), 3);
        tee.smc_yield();
        assert_eq!(tee.smc_legacy(), 3, "a blocking yield is a legacy world switch");
        assert!(tee.invoke_batch("missing", 1, &[0; 4], &mut []).is_err());
    }

    #[test]
    fn soft_reset_and_device_window_queries() {
        let (_p, mut tee) = rig();
        tee.io_mut().hold().writel(0x3f30_0000, 5).unwrap();
        tee.io_mut().hold().soft_reset_device("stub").unwrap();
        assert_eq!(tee.io_mut().hold().readl(0x3f30_0000).unwrap(), 0);
        let w = tee.io_mut().device_window("stub").unwrap();
        assert_eq!(w.base, 0x3f30_0000);
        assert!(tee.io_mut().is_device_secure("stub"));
        assert!(tee.io_mut().device_window("nope").is_err());
    }
}
