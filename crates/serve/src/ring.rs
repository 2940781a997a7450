//! io_uring-style submission/completion rings in normal-world shared
//! memory.
//!
//! The ring submit path replaces "one SMC per operation" with two bounded
//! single-producer/single-consumer rings that both worlds can see:
//!
//! * a per-lane **submission ring** ([`SubmissionRing`]) the client fills
//!   without entering the TEE — only the **doorbell** SMC that follows a
//!   batch of enqueues crosses the world boundary, and it admits every
//!   staged entry at once;
//! * a per-session **completion ring** ([`CompletionRing`]) the service
//!   posts into and the client reaps without any SMC at all. When the ring
//!   is full the service never drops a completion: it spills to a
//!   kernel-side overflow list (io_uring's `CQ_OVERFLOW` behaviour), and
//!   flushing that list back costs the reader one world switch.
//!
//! Since the lane-threading refactor both rings sit on the genuinely
//! concurrent lock-free SPSC core in [`crate::spsc`]: monotone `AtomicU64`
//! head/tail indices with acquire/release publication and cache-line
//! padding, exactly the protocol a mapped io_uring SQ/CQ pair uses. A
//! [`SubmissionRing`]'s producing endpoint can be **detached**
//! ([`SubmissionRing::take_producer`]) and moved to another thread — that
//! is how [`crate::service::LaneSubmitter`] stages entries concurrently
//! with the front-end draining doorbells — while the consuming endpoint
//! stays with the service front-end. The per-session [`CompletionRing`]
//! keeps both endpoints (the front-end demultiplexes lane completions into
//! it and the same thread reaps it), plus the unbounded never-drop
//! overflow list that cannot live inside a fixed ring.

use std::collections::VecDeque;

use crate::spsc::{self, SpscConsumer, SpscProducer};
use crate::{Completion, Request, RequestId, SessionId};

/// One staged submission-ring slot: everything the gate trustlet needs to
/// admit the request at doorbell time.
#[derive(Debug, Clone)]
pub struct SqEntry {
    /// Request id assigned at enqueue (ids are handed out in enqueue
    /// order, exactly like the per-call path hands them out per SMC).
    pub id: RequestId,
    /// Session that staged the entry.
    pub session: SessionId,
    /// The request itself.
    pub req: Request,
    /// Normal-world (control-clock) time at which the client staged the
    /// entry — the stamp client-observed latency is measured from.
    pub enqueued_ns: u64,
}

/// A bounded submission ring (one per device lane).
#[derive(Debug)]
pub struct SubmissionRing {
    /// `None` once detached to a [`crate::service::LaneSubmitter`] living
    /// on another thread.
    producer: Option<SpscProducer<SqEntry>>,
    consumer: SpscConsumer<SqEntry>,
}

impl SubmissionRing {
    /// An empty ring with `depth` slots.
    pub fn new(depth: usize) -> Self {
        let (producer, consumer) = spsc::channel(depth.max(1));
        SubmissionRing { producer: Some(producer), consumer }
    }

    /// Entries currently staged (tail - head).
    pub fn len(&self) -> usize {
        self.consumer.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.consumer.is_empty()
    }

    /// Whether every slot is in use (the producer must ring the doorbell
    /// — or back off — before staging more).
    pub fn is_full(&self) -> bool {
        self.len() >= self.depth()
    }

    /// The ring bound.
    pub fn depth(&self) -> usize {
        self.consumer.capacity()
    }

    /// Deepest the ring has been (occupancy high-water mark).
    pub fn high_water(&self) -> usize {
        self.consumer.high_water()
    }

    /// Whether the producing endpoint is still attached (it moves out via
    /// [`SubmissionRing::take_producer`]).
    pub fn producer_attached(&self) -> bool {
        self.producer.is_some()
    }

    /// Detach the producing endpoint so another thread can stage entries
    /// concurrently with the front-end's doorbell drain. Returns `None` if
    /// it was already taken.
    pub fn take_producer(&mut self) -> Option<SpscProducer<SqEntry>> {
        self.producer.take()
    }

    /// Stage one entry. When the ring is full the entry is handed back —
    /// never dropped — together with the occupancy observed at rejection
    /// time (one coherent snapshot for the typed `QueueFull` error).
    ///
    /// # Panics
    ///
    /// Panics if the producing endpoint was detached; callers staging
    /// through the service check [`SubmissionRing::producer_attached`].
    pub fn try_push(&mut self, entry: SqEntry) -> Result<(), (SqEntry, usize)> {
        let producer = self.producer.as_mut().expect("submission-ring producer detached");
        producer.try_push(entry).map(|_| ())
    }

    /// Consume the oldest staged entry. The doorbell pops exactly the
    /// count it snapshotted: under a concurrent producer it charges for
    /// that count, so entries that land mid-drain wait for the next one.
    pub fn pop(&mut self) -> Option<SqEntry> {
        self.consumer.try_pop()
    }

    /// Consume every currently staged entry in enqueue order. Besides
    /// full doorbell drains, this is the quarantine path's SQ rescue:
    /// entries staged on a lane the watchdog just quarantined are pulled
    /// off here and re-staged on available sibling rings, so they are
    /// not admitted onto the sick lane by the next doorbell.
    pub fn drain_staged(&mut self) -> Vec<SqEntry> {
        (0..self.len()).map_while(|_| self.pop()).collect()
    }
}

/// A bounded completion ring (one per session) with a never-drop overflow
/// list.
#[derive(Debug)]
pub struct CompletionRing {
    producer: SpscProducer<Completion>,
    consumer: SpscConsumer<Completion>,
    overflow: VecDeque<Completion>,
}

impl CompletionRing {
    /// An empty ring with `depth` reapable slots.
    pub fn new(depth: usize) -> Self {
        let (producer, consumer) = spsc::channel(depth.max(1));
        CompletionRing { producer, consumer, overflow: VecDeque::new() }
    }

    /// Completions waiting to be reaped (ring plus overflow list).
    pub fn len(&self) -> usize {
        self.consumer.len() + self.overflow.len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Post one completion. Returns `true` when the ring was full and the
    /// completion went to the overflow list instead (the reader's next
    /// reap must enter the kernel to flush it) — the service aggregates
    /// these into `ServeStats::cq_overflows`.
    pub fn post(&mut self, completion: Completion) -> bool {
        match self.producer.try_push(completion) {
            Ok(_) => false,
            Err((completion, _)) => {
                self.overflow.push_back(completion);
                true
            }
        }
    }

    /// Reap everything in post order. The boolean is `true` when the
    /// overflow list had to be flushed (which costs the ring-mode reader a
    /// world switch; in-ring entries are free to read).
    pub fn take_all(&mut self) -> (Vec<Completion>, bool) {
        let mut taken = self.consumer.drain();
        let flushed = !self.overflow.is_empty();
        taken.extend(self.overflow.drain(..));
        (taken, flushed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Device, ServeError};

    fn entry(id: RequestId) -> SqEntry {
        SqEntry {
            id,
            session: 1,
            req: Request::Read { device: Device::Mmc, blkid: id as u32, blkcnt: 1 },
            enqueued_ns: id,
        }
    }

    fn completion(id: RequestId) -> Completion {
        Completion {
            id,
            session: 1,
            device: Device::Mmc,
            result: Err(ServeError::Invalid("test".into())),
            submitted_ns: 0,
            completed_ns: id,
            coalesced: false,
        }
    }

    #[test]
    fn sq_bounds_and_preserves_enqueue_order() {
        let mut sq = SubmissionRing::new(2);
        sq.try_push(entry(1)).unwrap();
        sq.try_push(entry(2)).unwrap();
        let (rejected, observed) = sq.try_push(entry(3)).unwrap_err();
        assert_eq!(rejected.id, 3, "a full ring hands the entry back, never drops it");
        assert_eq!(observed, 2, "rejection snapshots the occupancy it saw");
        assert!(sq.is_full());
        assert_eq!(sq.high_water(), 2);
        let drained = sq.drain_staged();
        assert_eq!(drained.iter().map(|e| e.id).collect::<Vec<_>>(), vec![1, 2]);
        assert!(sq.is_empty());
        // Indices keep rising across drain cycles (io_uring-style
        // monotone head/tail, never reset).
        sq.try_push(entry(4)).unwrap();
        assert_eq!(sq.len(), 1);
        assert_eq!(sq.drain_staged().len(), 1);
    }

    #[test]
    fn sq_pop_respects_the_doorbell_snapshot_bound() {
        let mut sq = SubmissionRing::new(8);
        for id in 1..=5 {
            sq.try_push(entry(id)).unwrap();
        }
        let first: Vec<SqEntry> = (0..3).map_while(|_| sq.pop()).collect();
        assert_eq!(first.iter().map(|e| e.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(sq.len(), 2, "entries beyond the snapshot wait for the next doorbell");
        assert_eq!(sq.drain_staged().len(), 2);
    }

    #[test]
    fn sq_producer_detaches_for_cross_thread_staging() {
        let mut sq = SubmissionRing::new(4);
        let mut producer = sq.take_producer().expect("first take succeeds");
        assert!(!sq.producer_attached());
        assert!(sq.take_producer().is_none());
        let worker = std::thread::spawn(move || {
            for id in 1..=4 {
                producer.try_push(entry(id)).unwrap();
            }
        });
        worker.join().unwrap();
        assert_eq!(sq.drain_staged().iter().map(|e| e.id).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn cq_overflow_spills_without_dropping_and_flags_the_flush() {
        let mut cq = CompletionRing::new(2);
        assert!(!cq.post(completion(1)));
        assert!(!cq.post(completion(2)));
        assert!(cq.post(completion(3)), "the third post overflows a depth-2 ring");
        assert_eq!(cq.len(), 3);
        let (taken, flushed) = cq.take_all();
        assert!(flushed, "reaping past an overflow costs the reader a kernel entry");
        assert_eq!(taken.iter().map(|c| c.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(cq.is_empty());
        // In-ring reaps after the flush are free again.
        assert!(!cq.post(completion(4)));
        let (taken, flushed) = cq.take_all();
        assert_eq!(taken.len(), 1);
        assert!(!flushed);
    }
}
