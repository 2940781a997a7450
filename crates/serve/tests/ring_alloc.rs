//! Allocation gate for the per-request ring path: submit → route → doorbell
//! → step → reap on a warm `ExecMode::Sequential` ring service with two
//! striped MMC replicas, a USB stick, admission QoS and coalescing on.
//!
//! A counting global allocator wraps the system allocator. After a warm-up
//! round (which sizes the service's reusable buffers, maps and rings), the
//! measured rounds must average at most [`MAX_ALLOCS_PER_REQUEST`] heap
//! allocations per request, counting everything: the client's write
//! buffers, the read payloads, the drain's copy of every completion, the
//! completion vectors the service returns and the replays themselves.
//!
//! This file holds a single `#[test]` so no sibling test thread can disturb
//! the allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dlt_serve::{
    Device, DriverletService, ExecMode, ObsConfig, Payload, QosConfig, Request, RouteConfig,
    RoutePolicy, ServeConfig, SessionId, SubmitMode, BLOCK,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// The gate: heap allocations per request, averaged over the mix.
const MAX_ALLOCS_PER_REQUEST: f64 = 3.0;

/// Stripe unit across the two MMC replicas, in blocks.
const STRIPE: u32 = 32;

/// Ring the doorbell after this many staged entries.
const DOORBELL_BATCH: usize = 8;

/// Requests per session per round.
const ROUND: u32 = 64;

fn config() -> ServeConfig {
    ServeConfig {
        submit_mode: SubmitMode::Ring,
        exec_mode: ExecMode::Sequential,
        route: RouteConfig { policy: RoutePolicy::Stripe { stripe_blocks: STRIPE }, spill: true },
        qos: QosConfig { enabled: true, ..QosConfig::default() },
        coalesce: true,
        obs: ObsConfig::Off,
        ..ServeConfig::quick()
    }
}

/// One kind of request in the measured mix. Every span a lane replays is
/// a recorded granularity, so the count is the serve path's and not the
/// USB model's (which allocates per replayer invocation; see the test's
/// row for each kind).
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// Hot-range reads of one 8-block extent, on MMC and USB: a
    /// doorbell's reads of a device merge into one replay.
    Read,
    /// 8-block appends to a log per device that the sessions share: a
    /// doorbell's writes to a device abut and batch into one replay.
    Write,
    /// 12-block spans that straddle a stripe boundary, read and written:
    /// each fans out over both MMC replicas.
    FanOut,
}

/// The `i`th request of `kind` from session number `s` of `n`.
fn request(kind: Kind, s: u32, n: u32, i: u32) -> Request {
    let device = if i.is_multiple_of(2) { Device::Mmc } else { Device::Usb };
    match kind {
        Kind::Read => Request::Read { device, blkid: 64, blkcnt: 8 },
        Kind::Write => {
            let blkid = 512 + ((i / 2) * n + s) * 8;
            Request::Write { device, blkid, data: vec![s as u8; 8 * BLOCK] }
        }
        Kind::FanOut => {
            let blkid = (4 + s) * STRIPE - 4;
            if i.is_multiple_of(2) {
                Request::Read { device: Device::Mmc, blkid, blkcnt: 12 }
            } else {
                Request::Write { device: Device::Mmc, blkid, data: vec![s as u8; 12 * BLOCK] }
            }
        }
    }
}

/// Submit `per_session` requests of `kind` from every session, ringing the
/// doorbell and stepping the lanes the way an open-loop client does, then
/// drain and reap everything. Returns the number of requests completed.
fn round(
    service: &mut DriverletService,
    sessions: &[SessionId],
    kind: Kind,
    per_session: u32,
) -> u64 {
    let mut staged = 0;
    let mut completed = 0u64;
    for i in 0..per_session {
        for (s, &session) in sessions.iter().enumerate() {
            let n = sessions.len() as u32;
            service.submit(session, request(kind, s as u32, n, i)).expect("submit");
            staged += 1;
            if staged == DOORBELL_BATCH {
                service.ring_doorbell().expect("doorbell");
                staged = 0;
                loop {
                    let step = service.drain();
                    if step.is_empty() {
                        break;
                    }
                    completed += step.len() as u64;
                }
            }
        }
    }
    completed += service.drain_all().len() as u64;
    let mut taken = 0u64;
    for &session in sessions {
        for c in service.take_completions(session) {
            match c.result.expect("every request succeeds") {
                Payload::Read(bytes) => assert!(!bytes.is_empty()),
                Payload::Written { blocks } => assert!(blocks > 0),
                Payload::Image { .. } => unreachable!("no captures in the mix"),
            }
            taken += 1;
        }
    }
    assert_eq!(taken, completed, "every drained completion is also reaped");
    completed
}

#[test]
fn the_warm_ring_path_allocates_at_most_three_times_per_request() {
    let mut service = DriverletService::new(&[Device::Mmc, Device::Mmc, Device::Usb], config())
        .expect("build service");
    let sessions: Vec<SessionId> =
        (0..4).map(|_| service.open_session().expect("open session")).collect();

    // Warm-up: the measured rounds once, so maps, rings, reusable buffers
    // and the devices' block stores are sized before counting.
    for kind in [Kind::Read, Kind::Write, Kind::FanOut] {
        round(&mut service, &sessions, kind, ROUND);
    }

    let (mut allocs, mut requests) = (0u64, 0u64);
    let mut rows = Vec::new();
    for kind in [Kind::Read, Kind::Write, Kind::FanOut] {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let n = round(&mut service, &sessions, kind, ROUND);
        let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
        rows.push(format!(
            "{kind:?}: {:.2} per request ({delta} over {n})",
            delta as f64 / n as f64
        ));
        allocs += delta;
        requests += n;
    }
    let per_request = allocs as f64 / requests as f64;
    println!("allocations per request: {per_request:.2} ({})", rows.join(", "));
    assert!(
        per_request <= MAX_ALLOCS_PER_REQUEST,
        "the warm ring path allocates {per_request:.2} times per request, more than \
         {MAX_ALLOCS_PER_REQUEST}: {}",
        rows.join(", ")
    );
}
