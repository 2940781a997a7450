//! A lock-free single-producer/single-consumer bounded ring.
//!
//! This is the concurrency primitive under the per-lane admission channels
//! from the serve layer's front-end to its lane threads and under this
//! crate's per-thread trace rings ([`crate::trace`]) — it lives here, at
//! the bottom of the dependency graph, so every layer above (tee, core,
//! serve) can ride the same core. The protocol is the classic Lamport
//! SPSC queue with io_uring-flavoured monotone indices:
//!
//! * `head` and `tail` are monotonically increasing [`AtomicU64`]s; the
//!   occupied span is `tail - head`, and slot `i` lives at `i % capacity`.
//! * The **producer** owns `tail`: it reads `head` with `Acquire` (to
//!   learn how far the consumer has drained), writes the slot, then
//!   publishes the new `tail` with `Release` — the slot write
//!   happens-before any consumer that observes the new tail.
//! * The **consumer** owns `head`: it reads `tail` with `Acquire` (so the
//!   producer's slot write is visible), takes the slot, then publishes the
//!   new `head` with `Release` — the slot is provably vacated before any
//!   producer that observes the new head reuses it.
//!
//! Single ownership of each index is enforced **statically**: [`channel`]
//! returns exactly one [`SpscProducer`] and one [`SpscConsumer`], neither
//! of which is `Clone`, and the mutating operations take `&mut self`. That
//! is what makes the two `unsafe` slot accesses below sound — at any
//! instant a slot is reachable by at most one side, and the acquire/release
//! pair on the index transfers it.
//!
//! The head/tail indices are cache-line padded (`CachePadded`) so the
//! producer and consumer do not false-share a line: each side spins only
//! on the line the other side writes at most once per operation.

// The crate denies `unsafe_code`; this module is the single, carefully
// argued exception (see the soundness notes above and on each block).
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Pads (and aligns) a value to a 64-byte cache line so two adjacent
/// atomics never share a line (the producer's `tail` store would otherwise
/// invalidate the consumer's `head` line on every push, and vice versa).
#[derive(Debug, Default)]
#[repr(align(64))]
struct CachePadded<T>(T);

struct Inner<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    capacity: u64,
    /// Consumer index: everything below `head` has been popped.
    head: CachePadded<AtomicU64>,
    /// Producer index: everything below `tail` has been pushed.
    tail: CachePadded<AtomicU64>,
}

// SAFETY: the ring moves `T` values between the producer and the consumer
// thread; the index protocol above guarantees each slot is accessed by one
// side at a time, so `T: Send` is exactly the bound required (the same
// bound a mutex-based channel would need). No `&T` is ever shared across
// threads, so no `T: Sync` requirement.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // By the time `Inner` drops, both handles are gone: no concurrent
        // access. Drop every still-occupied slot.
        let head = self.head.0.load(Ordering::Acquire);
        let tail = self.tail.0.load(Ordering::Acquire);
        for i in head..tail {
            let slot = &self.slots[(i % self.capacity) as usize];
            // SAFETY: slots in [head, tail) were written by the producer
            // and never popped; we have exclusive access in drop.
            unsafe { (*slot.get()).assume_init_drop() };
        }
    }
}

impl<T> Inner<T> {
    fn len_from(&self, head: u64, tail: u64) -> usize {
        (tail - head) as usize
    }
}

/// Create a bounded SPSC ring with `capacity` slots (minimum 1), returning
/// the two single-owner endpoints.
pub fn channel<T>(capacity: usize) -> (SpscProducer<T>, SpscConsumer<T>) {
    let capacity = capacity.max(1);
    let slots: Box<[UnsafeCell<MaybeUninit<T>>]> =
        (0..capacity).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
    let inner = Arc::new(Inner {
        slots,
        capacity: capacity as u64,
        head: CachePadded(AtomicU64::new(0)),
        tail: CachePadded(AtomicU64::new(0)),
    });
    (SpscProducer { inner: Arc::clone(&inner), cached_head: 0 }, SpscConsumer { inner })
}

/// The producing endpoint of an SPSC ring (not `Clone`: single producer).
pub struct SpscProducer<T> {
    inner: Arc<Inner<T>>,
    /// The consumer's `head` as last observed. The push fast path checks
    /// capacity against this cache and only re-reads the shared `head`
    /// (an `Acquire` load of a line the consumer writes — a cross-core
    /// miss under load) when the ring *appears* full; a drained ring is
    /// then re-checked exactly. This is Lamport's classic SPSC
    /// optimisation: one shared-index read per wraparound, not per push.
    cached_head: u64,
}

impl<T> std::fmt::Debug for SpscProducer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpscProducer").field("len", &self.len()).finish()
    }
}

impl<T> SpscProducer<T> {
    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.inner.capacity as usize
    }

    /// Occupancy as the producer sees it (exact for the producer: only the
    /// consumer can concurrently shrink it).
    pub fn len(&self) -> usize {
        let head = self.inner.head.0.load(Ordering::Acquire);
        let tail = self.inner.tail.0.load(Ordering::Relaxed);
        self.inner.len_from(head, tail)
    }

    /// Whether the ring is empty from the producer's side.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the ring is full from the producer's side.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity()
    }

    /// Push one value, or hand it back when the ring is full. A ring that
    /// looks full from the cached `head` re-reads the shared one first, so
    /// a rejection means the ring was full at that instant.
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        let tail = self.inner.tail.0.load(Ordering::Relaxed);
        if self.inner.len_from(self.cached_head, tail) >= self.capacity() {
            self.cached_head = self.inner.head.0.load(Ordering::Acquire);
            if self.inner.len_from(self.cached_head, tail) >= self.capacity() {
                return Err(value);
            }
        }
        let slot = &self.inner.slots[(tail % self.inner.capacity) as usize];
        // SAFETY: `tail - cached_head < capacity` means slot
        // `tail % capacity` is vacant: `cached_head` was Acquire-read from
        // the consumer's `head` publication (here or on an earlier push),
        // `head` only grows, and the producer owns `tail` exclusively
        // (`&mut self`, non-Clone handle) — so the consumer finished with
        // this slot and nobody else can write it.
        unsafe { (*slot.get()).write(value) };
        self.inner.tail.0.store(tail + 1, Ordering::Release);
        Ok(())
    }
}

/// The consuming endpoint of an SPSC ring (not `Clone`: single consumer).
pub struct SpscConsumer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> std::fmt::Debug for SpscConsumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpscConsumer").field("len", &self.len()).finish()
    }
}

impl<T> SpscConsumer<T> {
    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.inner.capacity as usize
    }

    /// Occupancy as the consumer sees it (exact for the consumer: only the
    /// producer can concurrently grow it).
    pub fn len(&self) -> usize {
        let head = self.inner.head.0.load(Ordering::Relaxed);
        let tail = self.inner.tail.0.load(Ordering::Acquire);
        self.inner.len_from(head, tail)
    }

    /// Whether nothing is currently poppable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pop the oldest value, if any.
    pub fn try_pop(&mut self) -> Option<T> {
        let head = self.inner.head.0.load(Ordering::Relaxed);
        let tail = self.inner.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &self.inner.slots[(head % self.inner.capacity) as usize];
        // SAFETY: `head < tail` and the Acquire load of `tail` make the
        // producer's write of this slot visible; the producer will not
        // reuse the slot until it observes the `head` store below, and no
        // other consumer exists (`&mut self`, non-Clone handle).
        let value = unsafe { (*slot.get()).assume_init_read() };
        self.inner.head.0.store(head + 1, Ordering::Release);
        Some(value)
    }

    /// Pop everything currently visible, in push order.
    pub fn drain(&mut self) -> Vec<T> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Pop everything currently visible into `out`, in push order, with
    /// one index publication for the whole batch (a per-event `try_pop`
    /// loop would pay an `Acquire`/`Release` pair per element; a bulk
    /// drain of an N-event ring pays one).
    pub fn drain_into(&mut self, out: &mut Vec<T>) {
        let head = self.inner.head.0.load(Ordering::Relaxed);
        let tail = self.inner.tail.0.load(Ordering::Acquire);
        out.reserve((tail - head) as usize);
        for i in head..tail {
            let slot = &self.inner.slots[(i % self.inner.capacity) as usize];
            // SAFETY: `i < tail` and the Acquire load of `tail` make the
            // producer's writes of every slot in `[head, tail)` visible;
            // the producer will not reuse any of them until it observes
            // the single `head` store below, and no other consumer exists
            // (`&mut self`, non-Clone handle).
            out.push(unsafe { (*slot.get()).assume_init_read() });
        }
        self.inner.head.0.store(tail, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_preserves_order_and_bounds() {
        let (mut tx, mut rx) = channel::<u32>(2);
        assert_eq!(tx.try_push(1), Ok(()));
        assert_eq!(tx.try_push(2), Ok(()));
        assert_eq!(tx.try_push(3), Err(3), "a full ring hands the value back");
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.try_pop(), Some(1));
        assert_eq!(tx.try_push(3), Ok(()), "a pop frees exactly one slot");
        assert_eq!(tx.try_push(4), Err(4), "and no more");
        assert_eq!(rx.drain(), vec![2, 3]);
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn wraps_around_many_times_with_a_tiny_capacity() {
        let (mut tx, mut rx) = channel::<u64>(3);
        for i in 0..1_000u64 {
            tx.try_push(i).unwrap();
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert!(rx.is_empty() && tx.is_empty());
    }

    #[test]
    fn dropping_a_non_empty_ring_drops_the_values() {
        let value = Arc::new(());
        let (mut tx, rx) = channel::<Arc<()>>(4);
        tx.try_push(Arc::clone(&value)).unwrap();
        tx.try_push(Arc::clone(&value)).unwrap();
        assert_eq!(Arc::strong_count(&value), 3);
        drop((tx, rx));
        assert_eq!(Arc::strong_count(&value), 1, "queued values must not leak");
    }
}
