//! Cross-thread stress tests for the lock-free SPSC core ([`dlt_serve::spsc`],
//! each lane's admission ring) and the concurrent behaviours of the channels
//! that link the service front-end to its lane threads: consistent
//! `QueueFull` depth snapshots against a live draining lane thread (the
//! front-end's reservation is each lane's only bound), session
//! completion-ring overflow while lane threads post through their unbounded
//! completion channels, and the `drain_all` quiescence rule under park/unpark
//! cycles. The submission and completion rings themselves belong to the
//! front-end thread alone; their unit tests live in `ring.rs`.
//!
//! Everything here must pass on a single-core host: the tests use bounded
//! retry loops with `yield_now` (never busy-wait without yielding), so the
//! scheduler can always interleave the two sides.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use dlt_serve::spsc;
use dlt_serve::{Device, DriverletService, ExecMode, Request, ServeConfig, ServeError};

/// Push `n` items through a ring of the given capacity from a real producer
/// thread and assert the consumer sees every item exactly once, in order.
fn cross_thread_order(capacity: usize, n: u64) {
    let (mut tx, mut rx) = spsc::channel::<u64>(capacity);
    let producer = thread::spawn(move || {
        for i in 0..n {
            let mut item = i;
            loop {
                match tx.try_push(item) {
                    Ok(_) => break,
                    Err(back) => {
                        assert!(tx.len() <= capacity, "occupancy exceeds capacity");
                        item = back;
                        thread::yield_now();
                    }
                }
            }
        }
    });
    let mut expected = 0u64;
    while expected < n {
        match rx.try_pop() {
            Some(v) => {
                assert_eq!(v, expected, "items must arrive exactly once, in push order");
                expected += 1;
            }
            None => thread::yield_now(),
        }
    }
    producer.join().unwrap();
    assert!(rx.try_pop().is_none(), "nothing may remain after {n} pops");
}

#[test]
fn spsc_preserves_order_across_threads_at_every_capacity() {
    // Capacity 1 forces a full handoff per item (maximum full/empty racing);
    // 2 and 3 exercise wraparound with non-power-of-two moduli; 64 lets the
    // producer run ahead in bursts.
    for capacity in [1usize, 2, 3, 8, 64] {
        cross_thread_order(capacity, 10_000);
    }
}

#[test]
fn spsc_wraparound_indices_survive_many_cycles() {
    // A tiny ring cycled far past its capacity: monotone head/tail must
    // never confuse occupancy across wraps.
    cross_thread_order(2, 20_000);
}

#[test]
fn spsc_full_and_empty_races_lose_nothing() {
    // The consumer randomly stalls (coarse-grained via a shared flag) so the
    // ring oscillates between full and empty; the checksum proves no item is
    // lost or duplicated even when every push races a pop.
    let (mut tx, mut rx) = spsc::channel::<u64>(4);
    const N: u64 = 10_000;
    let stall = Arc::new(AtomicBool::new(false));
    let stall_producer = Arc::clone(&stall);
    let producer = thread::spawn(move || {
        for i in 0..N {
            if i % 97 == 0 {
                stall_producer.store(i % 194 == 0, Ordering::Relaxed);
            }
            let mut item = i;
            while let Err(back) = tx.try_push(item) {
                item = back;
                thread::yield_now();
            }
        }
    });
    let mut sum = 0u64;
    let mut count = 0u64;
    while count < N {
        if stall.load(Ordering::Relaxed) {
            thread::yield_now();
        }
        match rx.try_pop() {
            Some(v) => {
                sum += v;
                count += 1;
            }
            None => thread::yield_now(),
        }
    }
    producer.join().unwrap();
    assert_eq!(sum, N * (N - 1) / 2, "checksum: every item exactly once");
}

#[test]
fn spsc_drops_in_flight_values_cleanly_when_both_ends_die() {
    // Kill the consumer with items still queued; the ring's drop glue must
    // release them (leak checks are what the Arc counts are for).
    let value = Arc::new(());
    let (mut tx, rx) = spsc::channel::<Arc<()>>(8);
    let handles: Vec<_> = (0..5).map(|_| Arc::clone(&value)).collect();
    let producer = thread::spawn(move || {
        for h in handles {
            let mut item = h;
            while let Err(back) = tx.try_push(item) {
                item = back;
                thread::yield_now();
            }
        }
    });
    producer.join().unwrap();
    drop(rx);
    assert_eq!(Arc::strong_count(&value), 1, "queued values must not leak");
}

fn quick_config(exec_mode: ExecMode) -> ServeConfig {
    ServeConfig { exec_mode, block_granularities: vec![1, 8], ..ServeConfig::default() }
}

/// Satellite regression: a `QueueFull` raced against a concurrently draining
/// lane thread must report one coherent snapshot — `depth <= capacity`, and
/// under the bound-only admission rule exactly `depth == capacity`, because
/// the depth reported is the single atomic load the rejection was decided
/// on, never a second racy re-read.
#[test]
fn queue_full_depth_is_a_consistent_snapshot_under_a_draining_lane_thread() {
    let config = ServeConfig { queue_capacity: 4, ..quick_config(ExecMode::Threaded) };
    let capacity = config.queue_capacity;
    let mut service = DriverletService::new(&[Device::Mmc], config).expect("build service");
    let session = service.open_session().unwrap();

    // Keep submitting against the live lane thread; every rejection must
    // carry the exact snapshot. The lane drains concurrently, so accepted
    // and rejected submissions interleave arbitrarily.
    let mut accepted = 0u64;
    let mut rejections = 0u64;
    let mut attempts = 0u64;
    while accepted < 300 && attempts < 1_000_000 {
        attempts += 1;
        let req = Request::Read { device: Device::Mmc, blkid: accepted as u32 % 32, blkcnt: 1 };
        match service.submit(session, req) {
            Ok(_) => accepted += 1,
            Err(ServeError::QueueFull { device, depth, capacity: cap, high_water, fleet }) => {
                rejections += 1;
                assert_eq!(device, Device::Mmc);
                assert_eq!(fleet.len(), 1, "a routed reject reports the whole (1-lane) fleet");
                assert_eq!(cap, capacity);
                assert_eq!(high_water, capacity, "a full queue has saturated its high-water mark");
                assert_eq!(
                    depth, capacity,
                    "the reported depth must be the atomic load the rejection was decided on \
                     (== capacity under bound-only admission), not a racy re-read"
                );
                thread::yield_now();
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    assert_eq!(accepted, 300, "the lane thread must keep draining so submits make progress");
    let done = service.drain_all();
    assert_eq!(done.len() as u64, accepted);
    assert_eq!(service.stats().rejected, rejections);
}

/// Completion-ring overflow against lane threads: a tiny per-session CQ
/// forces posts onto the overflow list mid-drain, and every completion must
/// still be delivered exactly once.
#[test]
fn cq_overflow_under_lane_threads_delivers_every_completion() {
    let config = ServeConfig { cq_depth: 2, ..quick_config(ExecMode::Threaded) };
    let mut service = DriverletService::new(&[Device::Mmc], config).expect("build service");
    let session = service.open_session().unwrap();
    let mut submitted = 0u64;
    for i in 0..60u32 {
        service
            .submit(session, Request::Read { device: Device::Mmc, blkid: i % 32, blkcnt: 1 })
            .expect("submit");
        submitted += 1;
    }
    service.drain_all();
    let taken = service.take_completions(session);
    assert_eq!(taken.len() as u64, submitted, "overflow must spill, never drop");
    assert!(taken.iter().all(|c| c.result.is_ok()));
    assert!(
        service.stats().cq_overflows > 0,
        "a depth-2 session ring under 60 completions must have overflowed"
    );
}

/// The park/unpark protocol and the `drain_all` quiescence contract, cycled:
/// after every `drain_all`, all submitted work is complete and the stats
/// balance; idle lane threads park rather than spin, so repeated cycles work
/// even on one core.
#[test]
fn drain_all_quiesces_across_repeated_park_wake_cycles() {
    let mut service =
        DriverletService::new(&[Device::Mmc, Device::Usb], quick_config(ExecMode::Threaded))
            .expect("build service");
    let session = service.open_session().unwrap();
    let mut total = 0u64;
    for cycle in 0..10u32 {
        for i in 0..12u32 {
            let device = if i % 2 == 0 { Device::Mmc } else { Device::Usb };
            let req = if i % 3 == 0 {
                Request::Write { device, blkid: 64 + (cycle % 8), data: vec![cycle as u8; 512] }
            } else {
                Request::Read { device, blkid: 64 + (i % 16), blkcnt: 1 }
            };
            service.submit(session, req).expect("submit");
            total += 1;
        }
        // Let the lanes go idle (park) between cycles: the next cycle's
        // submits must unpark them.
        let batch = service.drain_all();
        assert_eq!(batch.len(), 12, "cycle {cycle}: drain_all returns the cycle's completions");
        let stats = service.stats();
        assert_eq!(stats.submitted, total);
        assert_eq!(stats.completed, total, "cycle {cycle}: quiescence means all work is done");
    }
    let taken = service.take_completions(session);
    assert_eq!(taken.len() as u64, total);
}
