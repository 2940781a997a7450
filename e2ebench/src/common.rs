//! Pieces every workload shares: the seeded generator, the span tracer, the
//! per-pass result and the summary statistics.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Deterministic xorshift64* stream: every input of every workload is drawn
/// from one of these, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so one seed can feed
    /// many independent generators.
    pub fn new(seed: u64, stream: u64) -> Self {
        // splitmix64 of (seed, stream): distinct pairs give distinct,
        // non-zero states.
        let mut z = seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fill `buf` with pseudo-random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// The layers the benchmark's spans attribute host time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `dlt-workloads`: microdb queries, minus the replays they issue.
    Workloads,
    /// `dlt-core`: replay invocations on a bare replayer.
    Core,
    /// `dlt-serve`: building and tearing down a service.
    ServeBuild,
    /// `dlt-serve`: one submit (with the client's think-time advance).
    ServeSubmit,
    /// `dlt-serve`: one doorbell.
    ServeDoorbell,
    /// `dlt-serve`: one completion reap.
    ServeReap,
    /// `dlt-serve`: stepping the sequential event loop.
    ServeDrain,
    /// `dlt-serve`: the front-end blocked until threaded lanes go quiet.
    ServeWait,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 8;

/// Span tracer over the benchmark's own calls into each layer.
///
/// A span's *self* time is its duration minus the time its child spans
/// cover, so nested spans (a microdb query around the replays it issues)
/// attribute every nanosecond to exactly one layer. Disabled, a span is one
/// branch around the call.
#[derive(Default)]
struct Tracer {
    enabled: bool,
    /// Open spans: (start, nanoseconds covered by children).
    stack: Vec<(Instant, u64)>,
    /// Per layer: (self nanoseconds, calls).
    totals: [(u64, u64); LAYERS],
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
    /// Host nanoseconds spent in [`untimed`] since the last
    /// [`take_untimed`].
    static UNTIMED_NS: Cell<u64> = const { Cell::new(0) };
}

/// Run `f` outside the timed region: output checks run here, at points
/// where the system under test is idle, so host metrics measure the system
/// and not the benchmark's own verification.
pub fn untimed<T>(f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    UNTIMED_NS.with(|u| u.set(u.get() + ns));
    out
}

/// Take the host nanoseconds spent in [`untimed`] on this thread.
pub fn take_untimed() -> u64 {
    UNTIMED_NS.with(|u| u.replace(0))
}

/// Turn span recording on or off for the calling thread and clear its totals.
pub fn trace_reset(enabled: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.enabled = enabled;
        t.stack.clear();
        t.totals = [(0, 0); LAYERS];
    });
}

/// Take the calling thread's per-layer totals: (self ns, calls) per layer.
pub fn trace_take() -> [(u64, u64); LAYERS] {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().totals))
}

/// Run `f` inside a span attributed to `layer`.
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    let enabled = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.enabled {
            t.stack.push((Instant::now(), 0));
        }
        t.enabled
    });
    if !enabled {
        return f();
    }
    let out = f();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let (start, children) = t.stack.pop().expect("span stack is balanced");
        let total = start.elapsed().as_nanos() as u64;
        if let Some(parent) = t.stack.last_mut() {
            parent.1 += total;
        }
        let entry = &mut t.totals[layer as usize];
        entry.0 += total.saturating_sub(children);
        entry.1 += 1;
    });
    out
}

/// What one pass of a workload produced. A pass is the workload's unit of
/// work: the same seed gives the same sequence of passes. The serve
/// workloads start every pass on a fresh service, so every pass repeats the
/// first; `sqlite_direct` keeps its databases, so its later passes run the
/// same query streams on the state the earlier passes left.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Ops handed to the system under test.
    pub attempted: u64,
    /// Ops that ended in a typed error or a refusal.
    pub failed: u64,
    /// Output mismatches (a wrong byte, a stale value): any makes the run
    /// incorrect.
    pub mismatches: u64,
    /// First mismatch, for the report.
    pub first_mismatch: Option<String>,
    /// Virtual-time and count results (identical for identical seeds).
    pub virt: Virt,
    /// Per-layer counters (identical for identical seeds).
    pub counts: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// Record an output mismatch.
    pub fn mismatch(&mut self, what: impl FnOnce() -> String) {
        self.mismatches += 1;
        if self.first_mismatch.is_none() {
            self.first_mismatch = Some(what());
        }
    }
}

/// The virtual-time results of a pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Virt {
    /// Ops per virtual second of makespan.
    pub rps: f64,
    /// Mean virtual submit→complete latency, µs.
    pub mean_us: f64,
    /// Median virtual submit→complete latency, µs.
    pub p50_us: f64,
    /// 99th-percentile virtual latency, µs.
    pub p99_us: f64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// World switches per completed request (`None`: the workload makes
    /// none by design).
    pub smc_per_req: Option<f64>,
    /// Highest offered rate of the ladder that meets the latency limit
    /// (`tenants_ring` only).
    pub slo_rps: Option<f64>,
    /// Driverlet ÷ native virtual time for the same query stream
    /// (`sqlite_direct` only).
    pub vs_native: Option<f64>,
}

/// Nearest-rank percentile of an ascending slice, in the slice's unit.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a sample (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Latency summary of virtual nanosecond samples: mean, p50 and p99 in µs
/// plus the sample count. Sorts `ns`.
pub fn latency_summary(ns: &mut [u64]) -> (f64, f64, f64, u64) {
    ns.sort_unstable();
    let mean = ns.iter().map(|v| *v as f64).sum::<f64>() / ns.len().max(1) as f64;
    (
        mean / 1e3,
        percentile(ns, 0.50) as f64 / 1e3,
        percentile(ns, 0.99) as f64 / 1e3,
        ns.len() as u64,
    )
}
