//! io_uring-style submission/completion rings in normal-world shared
//! memory.
//!
//! The ring submit path replaces "one SMC per operation" with two bounded
//! queues that both worlds can see:
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
//! Both rings belong to the service front-end, which is the only thread
//! that stages, doorbells, posts and reaps them, so each is a plain
//! bounded [`VecDeque`]. The queues that do cross threads — a lane's
//! admission and completion channels — sit on the lock-free SPSC core in
//! [`crate::spsc`].

use std::collections::VecDeque;

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
    entries: VecDeque<SqEntry>,
    depth: usize,
    high_water: usize,
}

impl SubmissionRing {
    /// An empty ring with `depth` slots (at least one).
    pub fn new(depth: usize) -> Self {
        let depth = depth.max(1);
        SubmissionRing { entries: VecDeque::with_capacity(depth), depth, high_water: 0 }
    }

    /// Entries currently staged.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether every slot is in use (the producer must ring the doorbell
    /// — or back off — before staging more).
    pub fn is_full(&self) -> bool {
        self.len() >= self.depth
    }

    /// The ring bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Most entries the ring has held at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Stage one entry. A full ring hands the entry back — never drops
    /// it.
    pub fn try_push(&mut self, entry: SqEntry) -> Result<(), SqEntry> {
        if self.is_full() {
            return Err(entry);
        }
        self.entries.push_back(entry);
        self.high_water = self.high_water.max(self.entries.len());
        Ok(())
    }

    /// Consume the oldest staged entry.
    pub fn pop(&mut self) -> Option<SqEntry> {
        self.entries.pop_front()
    }

    /// Consume every staged entry in enqueue order. This is the
    /// quarantine path's SQ rescue: entries staged on a lane the watchdog
    /// just quarantined are pulled off here and re-staged on available
    /// sibling rings, so they are not admitted onto the sick lane by the
    /// next doorbell.
    pub fn drain_staged(&mut self) -> Vec<SqEntry> {
        self.entries.drain(..).collect()
    }
}

/// A bounded completion ring (one per session) with a never-drop overflow
/// list. Both drain together on a reap, so they are one queue in post
/// order: the first `depth` entries are the ring, the rest the overflow.
#[derive(Debug)]
pub struct CompletionRing {
    entries: VecDeque<Completion>,
    depth: usize,
}

impl CompletionRing {
    /// An empty ring with `depth` reapable slots (at least one).
    pub fn new(depth: usize) -> Self {
        CompletionRing { entries: VecDeque::new(), depth: depth.max(1) }
    }

    /// Post one completion. Returns `true` when the ring was full and the
    /// completion went to the overflow list instead (the reader's next
    /// reap must enter the kernel to flush it) — the service aggregates
    /// these into `ServeStats::cq_overflows`.
    pub fn post(&mut self, completion: Completion) -> bool {
        let overflowed = self.entries.len() >= self.depth;
        self.entries.push_back(completion);
        overflowed
    }

    /// Reap everything in post order. The boolean is `true` when the
    /// overflow list had to be flushed (which costs the ring-mode reader a
    /// world switch; in-ring entries are free to read).
    pub fn take_all(&mut self) -> (Vec<Completion>, bool) {
        let flushed = self.entries.len() > self.depth;
        (self.entries.drain(..).collect(), flushed)
    }

    /// Reap only the completion of request `id`, leaving the rest in post
    /// order. The boolean is `true` when it sat in the overflow list.
    pub fn take(&mut self, id: RequestId) -> Option<(Completion, bool)> {
        let at = self.entries.iter().position(|c| c.id == id)?;
        self.entries.remove(at).map(|c| (c, at >= self.depth))
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
        let rejected = sq.try_push(entry(3)).unwrap_err();
        assert_eq!(rejected.id, 3, "a full ring hands the entry back, never drops it");
        assert!(sq.is_full());
        assert_eq!(sq.high_water(), 2);
        let drained = sq.drain_staged();
        assert_eq!(drained.iter().map(|e| e.id).collect::<Vec<_>>(), vec![1, 2]);
        assert!(sq.is_empty());
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
        assert_eq!(sq.len(), 2, "entries that were not popped stay staged, in order");
        assert_eq!(sq.drain_staged().iter().map(|e| e.id).collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn sq_high_water_is_the_most_ever_staged_at_once() {
        // Twenty rounds of eight staged entries, each round drained before
        // the next: the ring never held more than eight, however many
        // passed through it.
        let mut sq = SubmissionRing::new(64);
        for round in 0..20u64 {
            for i in 0..8 {
                sq.try_push(entry(round * 8 + i)).unwrap();
            }
            while sq.pop().is_some() {}
        }
        assert_eq!(sq.high_water(), 8);
    }

    #[test]
    fn cq_overflow_spills_without_dropping_and_flags_the_flush() {
        let mut cq = CompletionRing::new(2);
        assert!(!cq.post(completion(1)));
        assert!(!cq.post(completion(2)));
        assert!(cq.post(completion(3)), "the third post overflows a depth-2 ring");
        let (taken, flushed) = cq.take_all();
        assert!(flushed, "reaping past an overflow costs the reader a kernel entry");
        assert_eq!(taken.iter().map(|c| c.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(cq.take_all().0.is_empty(), "a reap takes everything");
        // In-ring reaps after the flush are free again.
        assert!(!cq.post(completion(4)));
        let (taken, flushed) = cq.take_all();
        assert_eq!(taken.len(), 1);
        assert!(!flushed);
    }

    #[test]
    fn cq_take_reaps_one_completion_and_keeps_the_rest_in_post_order() {
        let mut cq = CompletionRing::new(2);
        for id in 1..=4 {
            cq.post(completion(id));
        }
        let (taken, flushed) = cq.take(2).unwrap();
        assert_eq!((taken.id, flushed), (2, false), "an in-ring completion is free to read");
        let (taken, flushed) = cq.take(4).unwrap();
        assert_eq!((taken.id, flushed), (4, true), "an overflowed one costs the flush");
        assert!(cq.take(2).is_none(), "a completion is reaped once");
        let (rest, _) = cq.take_all();
        assert_eq!(rest.iter().map(|c| c.id).collect::<Vec<_>>(), vec![1, 3]);
    }
}
