//! Deterministic virtual clock.
//!
//! Every platform (one simulated TEE core) owns one [`VirtualClock`]; all
//! devices, drivers, the TEE and the replayer attached to that platform
//! share it. Time only advances when someone spends it: an MMIO access, a
//! DMA transfer, a flash program, a polling delay, a world switch. This
//! makes every experiment bit-for-bit reproducible while still producing
//! meaningful throughput/latency numbers for the Figure 5-7 reproductions.
//!
//! Multi-core setups (the `dlt-serve` lane-per-device model) run one
//! platform — and therefore one clock — per core, all starting from the
//! same epoch zero. A core that sits idle between batches of work is
//! fast-forwarded to the next event with [`VirtualClock::advance_idle_to`],
//! which books the skipped span as *idle* rather than busy time, so lane
//! utilisation can be reported as `busy_ns / now_ns`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cost::CostModel;

/// Lock-free published view of one [`VirtualClock`].
///
/// The clock itself lives in its platform's bus and is mutated only by the
/// thread driving that platform; every advance also stores the new
/// `now`/`idle` values here with `Release` ordering, so *other* threads
/// (the `dlt-serve` front-end computing the pointwise-max clock join, lane
/// status snapshots) can read a consistent recent value with an `Acquire`
/// load and **no lock**. Readers may observe a value that is a few
/// advances stale — never torn, never retreating — which is exactly the
/// monotone-lower-bound semantics a max-join needs.
#[derive(Debug, Default)]
pub struct ClockCell {
    now_ns: AtomicU64,
    idle_ns: AtomicU64,
}

impl ClockCell {
    /// Last published virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Acquire)
    }

    /// Last published idle span in nanoseconds.
    pub fn idle_ns(&self) -> u64 {
        self.idle_ns.load(Ordering::Acquire)
    }

    /// Last published busy span: `now_ns - idle_ns`.
    pub fn busy_ns(&self) -> u64 {
        // Load idle first: if the writer advances between the two loads the
        // subtraction can only *under*-report busy time, never go negative
        // past the saturation guard.
        let idle = self.idle_ns();
        self.now_ns().saturating_sub(idle)
    }
}

/// A monotonically increasing virtual clock measured in nanoseconds.
#[derive(Debug)]
pub struct VirtualClock {
    now_ns: u64,
    cost: CostModel,
    /// Nanoseconds skipped via [`VirtualClock::advance_idle_to`] — time the
    /// owning core spent waiting for work rather than doing it.
    idle_ns: u64,
    /// Lock-free mirror of `now_ns`/`idle_ns` for cross-thread readers.
    cell: Arc<ClockCell>,
}

impl Clone for VirtualClock {
    fn clone(&self) -> Self {
        // A cloned clock is an independent timeline: it publishes into its
        // own cell, never the original's.
        let cell = Arc::new(ClockCell::default());
        cell.now_ns.store(self.now_ns, Ordering::Release);
        cell.idle_ns.store(self.idle_ns, Ordering::Release);
        VirtualClock { now_ns: self.now_ns, cost: self.cost.clone(), idle_ns: self.idle_ns, cell }
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new(CostModel::default())
    }
}

impl VirtualClock {
    /// Create a clock starting at time zero with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        VirtualClock { now_ns: 0, cost, idle_ns: 0, cell: Arc::new(ClockCell::default()) }
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The lock-free published view of this clock. Cross-thread readers
    /// (the serve front-end's max-scan clock join) hold this handle and
    /// never take the lock of the bus the clock itself lives in.
    pub fn cell(&self) -> Arc<ClockCell> {
        Arc::clone(&self.cell)
    }

    /// Publish the current `now`/`idle` values into the lock-free cell.
    fn publish(&self) {
        self.cell.now_ns.store(self.now_ns, Ordering::Release);
        self.cell.idle_ns.store(self.idle_ns, Ordering::Release);
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Advance time by `ns` nanoseconds.
    pub fn advance_ns(&mut self, ns: u64) {
        self.now_ns = self.now_ns.saturating_add(ns);
        self.publish();
    }

    /// Advance time by `us` microseconds.
    pub fn advance_us(&mut self, us: u64) {
        self.advance_ns(us.saturating_mul(1_000));
    }

    /// Advance the clock to `deadline_ns` if it is in the future; do nothing
    /// if the deadline has already passed.
    pub fn advance_to(&mut self, deadline_ns: u64) {
        if deadline_ns > self.now_ns {
            self.now_ns = deadline_ns;
            self.publish();
        }
    }

    /// Fast-forward to `deadline_ns`, booking the skipped span as idle
    /// time. This is the multi-core scheduler's "the core had nothing to do
    /// until the next request arrived" transition: the clock jumps, but the
    /// span does not count as busy time in [`VirtualClock::busy_ns`].
    pub fn advance_idle_to(&mut self, deadline_ns: u64) {
        if deadline_ns > self.now_ns {
            self.idle_ns += deadline_ns - self.now_ns;
            self.now_ns = deadline_ns;
            self.publish();
        }
    }

    /// Total nanoseconds skipped as idle via
    /// [`VirtualClock::advance_idle_to`].
    pub fn idle_ns(&self) -> u64 {
        self.idle_ns
    }

    /// Nanoseconds actually spent doing work: `now_ns - idle_ns`.
    pub fn busy_ns(&self) -> u64 {
        self.now_ns.saturating_sub(self.idle_ns)
    }

    /// A deadline `us` microseconds from now.
    pub fn deadline_after_us(&self, us: u64) -> u64 {
        self.now_ns.saturating_add(us.saturating_mul(1_000))
    }

    /// Charge the cost of one MMIO access (cached or uncached mapping).
    pub fn charge_mmio(&mut self, uncached: bool) {
        self.advance_ns(self.cost.mmio(uncached));
    }

    /// Charge one world switch (SMC entry + exit).
    pub fn charge_world_switch(&mut self) {
        self.advance_ns(self.cost.world_switch_ns);
    }

    /// Charge a PIO copy of `words` 32-bit words.
    pub fn charge_pio_words(&mut self, words: u64) {
        self.advance_ns(self.cost.dram_word_copy_ns.saturating_mul(words));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let mut c = VirtualClock::default();
        assert_eq!(c.now_ns(), 0);
        c.advance_ns(1_500);
        assert_eq!(c.now_ns(), 1_500);
        c.advance_us(10);
        assert_eq!(c.now_ns(), 11_500);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let mut c = VirtualClock::default();
        c.advance_ns(100);
        c.advance_to(50); // in the past -> no-op
        assert_eq!(c.now_ns(), 100);
        c.advance_to(400);
        assert_eq!(c.now_ns(), 400);
    }

    #[test]
    fn deadlines_are_relative_to_now() {
        let mut c = VirtualClock::default();
        c.advance_us(5);
        assert_eq!(c.deadline_after_us(10), 15_000);
    }

    #[test]
    fn charging_uses_the_cost_model() {
        let mut c = VirtualClock::default();
        let cached = c.cost().mmio_access_ns;
        let uncached = c.cost().mmio_uncached_ns;
        c.charge_mmio(false);
        assert_eq!(c.now_ns(), cached);
        c.charge_mmio(true);
        assert_eq!(c.now_ns(), cached + uncached);
    }

    #[test]
    fn idle_skips_are_booked_separately_from_busy_time() {
        let mut c = VirtualClock::default();
        c.advance_ns(1_000); // busy
        c.advance_idle_to(5_000); // core waits for the next arrival
        c.advance_ns(2_000); // busy again
        assert_eq!(c.now_ns(), 7_000);
        assert_eq!(c.idle_ns(), 4_000);
        assert_eq!(c.busy_ns(), 3_000);
        // Idle skips into the past are no-ops.
        c.advance_idle_to(6_000);
        assert_eq!(c.idle_ns(), 4_000);
    }

    #[test]
    fn published_cell_tracks_every_advance_kind() {
        let mut c = VirtualClock::default();
        let cell = c.cell();
        assert_eq!(cell.now_ns(), 0);
        c.advance_ns(1_000);
        assert_eq!(cell.now_ns(), 1_000);
        c.advance_idle_to(5_000);
        assert_eq!((cell.now_ns(), cell.idle_ns(), cell.busy_ns()), (5_000, 4_000, 1_000));
        c.advance_to(9_000);
        assert_eq!(cell.now_ns(), 9_000);
        // A clone publishes into its own cell, not the original's.
        let mut fork = c.clone();
        let fork_cell = fork.cell();
        assert_eq!(fork_cell.now_ns(), 9_000);
        fork.advance_ns(1);
        assert_eq!(fork_cell.now_ns(), 9_001);
        assert_eq!(cell.now_ns(), 9_000);
    }

    #[test]
    fn saturating_never_overflows() {
        let mut c = VirtualClock::default();
        c.advance_ns(u64::MAX);
        c.advance_ns(u64::MAX);
        assert_eq!(c.now_ns(), u64::MAX);
    }
}
