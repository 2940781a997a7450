//! Request coalescing: plan a drained batch into merged replays.
//!
//! The planner walks the batch **in queue order** and groups maximal runs
//! of same-direction block requests:
//!
//! * within a read run, adjacent or overlapping extents merge into maximal
//!   contiguous spans (reads commute with reads, so reordering inside one
//!   run cannot change any result);
//! * within a write run, only strictly adjacent, non-overlapping writes
//!   chain into one larger write (overlapping writes must keep their
//!   submission order, so an overlap breaks the chain);
//! * a direction change (or a camera request) closes the current group, so
//!   a read never moves across a write it raced with.
//!
//! Executing the resulting plans in order is therefore equivalent to
//! executing the batch serially in queue order — the invariant the
//! differential property test in `tests/serial_equivalence.rs` checks.

use std::ops::Range;

use crate::sched::Pending;
use crate::{Request, SessionId, BLOCK};

/// One executable unit of a planned batch. Member ranges select a slice
/// of [`Plan::members`]; the slice holds indices into the batch the plan
/// was computed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecPlan {
    /// Execute the request at this batch index as-is (a request nothing
    /// merged with, or one that never merges).
    Single(usize),
    /// One read replay covering `blkid..blkid+blkcnt`, fanned out to its
    /// two or more members afterwards.
    MergedRead {
        /// First block of the merged span.
        blkid: u32,
        /// Length of the merged span in blocks.
        blkcnt: u32,
        /// The members served by this span.
        members: Range<usize>,
    },
    /// One write replay of the concatenated payloads of two or more
    /// members (strictly adjacent extents, in order).
    BatchedWrite {
        /// First block of the batched write.
        blkid: u32,
        /// The members folded into this write, in submission order.
        members: Range<usize>,
    },
}

/// A planned batch: its executable units in order plus the batch indices
/// their member ranges select. Its owner rebuilds it for every batch, so
/// once warm, planning allocates nothing.
#[derive(Debug, Default)]
pub struct Plan {
    /// The executable units, in execution order.
    pub steps: Vec<ExecPlan>,
    members: Vec<usize>,
}

impl Plan {
    /// The batch indices a unit's member range selects.
    pub fn members(&self, range: &Range<usize>) -> &[usize] {
        &self.members[range.clone()]
    }

    /// Plan a drained batch, borrowing it: the units name members by
    /// index, so the batch's payloads never move or copy here. With
    /// `coalesce` off, every request is a [`ExecPlan::Single`] in queue
    /// order (the uncoalesced baseline).
    pub fn build(&mut self, batch: &[Pending], coalesce: bool) {
        self.steps.clear();
        self.members.clear();
        let mut i = 0;
        while i < batch.len() {
            let k = direction(&batch[i].req);
            let j = (i + 1..batch.len())
                .find(|&j| !coalesce || direction(&batch[j].req) != k)
                .unwrap_or(batch.len());
            match k {
                Direction::Other => self.steps.extend((i..j).map(ExecPlan::Single)),
                _ => self.plan_run(batch, i..j, k == Direction::Read),
            }
            i = j;
        }
    }

    /// Plan a run of same-direction requests (batch indices): reads merge
    /// into maximal spans over adjacent or overlapping extents (they
    /// commute, so they are swept in block order); writes chain only over
    /// strictly adjacent extents, in queue order.
    fn plan_run(&mut self, batch: &[Pending], run: Range<usize>, read: bool) {
        let extent = |i: usize| match &batch[i].req {
            Request::Read { blkid, blkcnt, .. } => (*blkid, *blkid + *blkcnt),
            Request::Write { blkid, data, .. } => (*blkid, *blkid + (data.len() / BLOCK) as u32),
            Request::Capture { .. } => unreachable!("captures never merge"),
        };
        let start = self.members.len();
        self.members.extend(run);
        if read {
            // Ties keep queue order.
            self.members[start..].sort_unstable_by_key(|&i| (extent(i).0, i));
        }
        let (mut first, (mut lo, mut hi)) = (start, extent(self.members[start]));
        for pos in start + 1..=self.members.len() {
            let next = self.members.get(pos).map(|&i| extent(i));
            match next {
                Some((s, e))
                    if (if read { s <= hi } else { s == hi })
                        && hi.max(e) - lo <= crate::MAX_REQUEST_BLOCKS =>
                {
                    hi = hi.max(e);
                }
                _ => {
                    let members = first..pos;
                    self.steps.push(match () {
                        _ if members.len() == 1 => ExecPlan::Single(self.members[first]),
                        _ if read => ExecPlan::MergedRead { blkid: lo, blkcnt: hi - lo, members },
                        _ => ExecPlan::BatchedWrite { blkid: lo, members },
                    });
                    if let Some((s, e)) = next {
                        (first, lo, hi) = (pos, s, e);
                    }
                }
            }
        }
    }
}

/// Decompose an arbitrary block count into the recorded granularities
/// (largest first) — the replayer "must access the data in ways specified
/// by the recorded paths" (§3.3). `granularities` must be sorted largest
/// first and contain 1.
pub fn decompose(mut blkcnt: u32, granularities: &[u32]) -> impl Iterator<Item = u32> + '_ {
    std::iter::from_fn(move || {
        (blkcnt > 0).then(|| {
            let g = granularities.iter().copied().find(|g| *g <= blkcnt).unwrap_or(1);
            blkcnt -= g;
            g
        })
    })
}

/// Transfer direction of a pending request, as the plug state machine and
/// the run planner see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// A block read.
    Read,
    /// A block write.
    Write,
    /// Anything that never merges (camera captures).
    Other,
}

/// The direction of a request.
pub fn direction(req: &Request) -> Direction {
    match req {
        Request::Read { .. } => Direction::Read,
        Request::Write { .. } => Direction::Write,
        Request::Capture { .. } => Direction::Other,
    }
}

/// One pending request as the plug planner sees it: who submitted it, when
/// it arrived (virtual service time), and which way it moves data.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Owning session.
    pub session: SessionId,
    /// Virtual arrival (submission) time.
    pub arrival_ns: u64,
    /// Transfer direction.
    pub direction: Direction,
}

/// Why a planned dispatch fires when it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchReason {
    /// No hold: the lane had a backlog (requests — possibly from several
    /// competing sessions — were already waiting when the lane became
    /// free), holds are disabled, or the request never merges (captures).
    Immediate,
    /// The plug held the full latency budget and no unplug trigger fired.
    HoldExpired,
    /// Unplugged early: the plugging session changed transfer direction.
    UnplugDirection,
    /// Unplugged early: the fill cap was reached — the queue is full (no
    /// further request can arrive) or a whole dispatch window's worth has
    /// arrived (nothing more can join this batch), so holding buys
    /// nothing.
    UnplugQueueFull,
    /// Unplugged early: a competing session's request that cannot join the
    /// held run (opposite direction) arrived — the plug never makes
    /// another tenant wait for work it cannot merge.
    UnplugCompetitor,
}

/// A planned dispatch instant for one lane.
#[derive(Debug, Clone, Copy)]
pub struct Dispatch {
    /// Virtual time at which the lane unplugs and executes a batch.
    pub at_ns: u64,
    /// What ended (or prevented) the hold.
    pub reason: DispatchReason,
}

impl Dispatch {
    /// Whether this dispatch actually held the queue open past the ready
    /// instant (anticipatory behaviour, as opposed to immediate issue).
    pub fn held(&self) -> bool {
        self.reason != DispatchReason::Immediate
    }
}

/// The anticipatory plug/unplug state machine (kernel block-layer style),
/// evaluated over a lane's pending queue in virtual time.
///
/// `pending` yields the lane's queue in arrival order (per-lane queues
/// are FIFO in submission time, so this is also sorted by `arrival_ns`);
/// it is an iterator — the planner sits on the event loop's hot path and
/// only ever inspects the prefix up to the hold deadline, so the lane
/// hands it a lazy view rather than materialising its queue. `lane_now`
/// is the lane clock; `hold_budget_ns` the anticipation budget (0
/// disables holding); `capacity` the fill cap — the queue bound or the
/// dispatch window, whichever is smaller, since holding past either
/// cannot merge anything more into this dispatch.
///
/// Rules, replayed deterministically against the stamped arrivals:
///
/// * **No hold on a backlog.** If the first pending request arrived while
///   the lane was still busy (`arrival <= lane_now`), requests are already
///   waiting — possibly from competing sessions — and the batch dispatches
///   immediately. A plug only ever opens on an *idle* lane the moment a
///   request arrives.
/// * **Hold.** Otherwise the lane plugs at the first arrival and holds its
///   queue open until `arrival + hold_budget_ns`, merging every
///   same-direction request (any session — cross-tenant adjacent reads are
///   cooperating, not competing) that arrives inside the window.
/// * **Early unplug.** The plug releases before the budget expires when a
///   request of the opposite direction arrives ([`DispatchReason::UnplugDirection`]
///   from the plugging session, [`DispatchReason::UnplugCompetitor`] from
///   any other — the plug never holds while a competing session waits with
///   unmergeable work), or when the queue fills to capacity
///   ([`DispatchReason::UnplugQueueFull`]).
pub fn plan_dispatch(
    pending: impl IntoIterator<Item = Arrival>,
    lane_now: u64,
    hold_budget_ns: u64,
    capacity: usize,
) -> Dispatch {
    let mut pending = pending.into_iter();
    let first = pending.next().expect("plan_dispatch needs a non-empty queue");
    let ready = lane_now.max(first.arrival_ns);
    let immediate = Dispatch { at_ns: ready, reason: DispatchReason::Immediate };
    if hold_budget_ns == 0 || first.direction == Direction::Other {
        return immediate;
    }
    if first.arrival_ns <= lane_now {
        // Backlog: the request (and anything behind it) was already
        // waiting when the lane became free.
        return immediate;
    }
    let deadline = first.arrival_ns.saturating_add(hold_budget_ns);
    for (held, p) in std::iter::once(first).chain(pending).enumerate() {
        if p.arrival_ns > deadline {
            break;
        }
        if p.direction != first.direction {
            let reason = if p.session == first.session {
                DispatchReason::UnplugDirection
            } else {
                DispatchReason::UnplugCompetitor
            };
            return Dispatch { at_ns: p.arrival_ns, reason };
        }
        if held + 1 >= capacity {
            return Dispatch { at_ns: p.arrival_ns, reason: DispatchReason::UnplugQueueFull };
        }
    }
    Dispatch { at_ns: deadline, reason: DispatchReason::HoldExpired }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Device;

    fn pending(req: Request) -> Pending {
        Pending { id: 0, session: 1, req, submitted_ns: 0, arrived_ns: 0 }
    }

    fn rd(blkid: u32, blkcnt: u32) -> Pending {
        pending(Request::Read { device: Device::Mmc, blkid, blkcnt })
    }

    fn wr(blkid: u32, blocks: u32) -> Pending {
        pending(Request::Write {
            device: Device::Mmc,
            blkid,
            data: vec![0u8; blocks as usize * BLOCK],
        })
    }

    /// Plan `batch` and pair each unit with the batch indices it serves.
    fn plan(batch: &[Pending], coalesce: bool) -> Vec<(ExecPlan, Vec<usize>)> {
        let mut plan = Plan::default();
        plan.build(batch, coalesce);
        // Plan twice: a reused plan must not carry the last batch over.
        plan.build(batch, coalesce);
        let members = |p: &ExecPlan| match p {
            ExecPlan::Single(i) => vec![*i],
            ExecPlan::MergedRead { members, .. } | ExecPlan::BatchedWrite { members, .. } => {
                plan.members(members).to_vec()
            }
        };
        plan.steps.iter().map(|p| (p.clone(), members(p))).collect()
    }

    #[test]
    fn adjacent_reads_from_many_sessions_merge_into_one_span() {
        let batch: Vec<Pending> = (0..8).map(|i| rd(100 + i, 1)).collect();
        let plans = plan(&batch, true);
        assert_eq!(
            plans,
            vec![(
                ExecPlan::MergedRead { blkid: 100, blkcnt: 8, members: 0..8 },
                (0..8).collect::<Vec<_>>()
            )]
        );
    }

    #[test]
    fn overlapping_reads_merge_and_holes_split_spans() {
        let batch = vec![rd(10, 4), rd(12, 4), rd(30, 2)];
        let plans = plan(&batch, true);
        assert_eq!(plans.len(), 2);
        assert_eq!(
            plans[0],
            (ExecPlan::MergedRead { blkid: 10, blkcnt: 6, members: 0..2 }, vec![0, 1])
        );
        assert_eq!(plans[1], (ExecPlan::Single(2), vec![2]));
    }

    #[test]
    fn writes_chain_only_when_strictly_adjacent() {
        let batch = vec![wr(0, 8), wr(8, 8), wr(8, 8), wr(24, 8)];
        let plans = plan(&batch, true);
        // 0 and 1 chain; 2 overlaps 1 (same extent) so it breaks the chain;
        // 3 is not adjacent to 2's end (16) so it stands alone.
        assert_eq!(
            plans,
            vec![
                (ExecPlan::BatchedWrite { blkid: 0, members: 0..2 }, vec![0, 1]),
                (ExecPlan::Single(2), vec![2]),
                (ExecPlan::Single(3), vec![3]),
            ]
        );
    }

    #[test]
    fn direction_changes_fence_the_runs() {
        // The read of block 8 must not merge across the write to block 8.
        let batch = vec![rd(8, 1), wr(8, 1), rd(8, 1)];
        let plans = plan(&batch, true);
        assert_eq!(plans.len(), 3);
        assert!(plans.iter().all(|p| matches!(p.0, ExecPlan::Single(_))));
    }

    #[test]
    fn disabled_coalescing_is_all_singles() {
        let batch: Vec<Pending> = (0..4).map(|i| rd(i, 1)).collect();
        let plans = plan(&batch, false);
        assert_eq!(plans, (0..4).map(|i| (ExecPlan::Single(i), vec![i])).collect::<Vec<_>>());
    }

    fn arr(session: SessionId, arrival_ns: u64, direction: Direction) -> Arrival {
        Arrival { session, arrival_ns, direction }
    }

    #[test]
    fn hold_expires_on_the_latency_budget() {
        // One session streams same-direction reads into an idle lane: the
        // plug holds the full budget, capturing every arrival inside it.
        let pending = [
            arr(1, 1_000, Direction::Read),
            arr(1, 5_000, Direction::Read),
            arr(1, 40_000, Direction::Read), // outside the window
        ];
        let d = plan_dispatch(pending, 0, 20_000, 64);
        assert_eq!(d.at_ns, 21_000, "dispatch at first arrival + budget");
        assert_eq!(d.reason, DispatchReason::HoldExpired);
        assert!(d.held());
    }

    #[test]
    fn hold_unplugs_early_on_direction_change() {
        let pending = [
            arr(1, 1_000, Direction::Read),
            arr(1, 4_000, Direction::Write), // same session turns around
        ];
        let d = plan_dispatch(pending, 0, 20_000, 64);
        assert_eq!(d.at_ns, 4_000, "unplug the moment the direction changes");
        assert_eq!(d.reason, DispatchReason::UnplugDirection);
    }

    #[test]
    fn hold_unplugs_early_when_the_queue_fills() {
        // Capacity 3: the third arrival fills the queue; waiting longer
        // cannot merge anything more, so the plug releases right there.
        let pending = [
            arr(1, 1_000, Direction::Read),
            arr(1, 2_000, Direction::Read),
            arr(1, 3_000, Direction::Read),
        ];
        let d = plan_dispatch(pending, 0, 50_000, 3);
        assert_eq!(d.at_ns, 3_000);
        assert_eq!(d.reason, DispatchReason::UnplugQueueFull);
    }

    #[test]
    fn never_holds_when_a_competing_session_is_waiting() {
        // Backlog case: both sessions' requests were already waiting when
        // the lane became free (lane_now past their arrivals) — no hold at
        // all, the batch issues immediately.
        let pending = [arr(1, 1_000, Direction::Read), arr(2, 2_000, Direction::Read)];
        let d = plan_dispatch(pending, 10_000, 50_000, 64);
        assert_eq!(d.at_ns, 10_000);
        assert_eq!(d.reason, DispatchReason::Immediate);
        assert!(!d.held());

        // Mid-hold case: a competing session arrives with unmergeable
        // (opposite-direction) work — the plug releases at that arrival
        // instead of making the competitor wait out the budget.
        let pending = [arr(1, 1_000, Direction::Read), arr(2, 6_000, Direction::Write)];
        let d = plan_dispatch(pending, 0, 50_000, 64);
        assert_eq!(d.at_ns, 6_000);
        assert_eq!(d.reason, DispatchReason::UnplugCompetitor);
    }

    #[test]
    fn cooperating_sessions_join_a_hold_and_captures_never_plug() {
        // Same-direction arrivals from *other* sessions ride the plug —
        // cross-tenant adjacent reads are the coalescer's bread and butter.
        let pending = [
            arr(1, 1_000, Direction::Read),
            arr(2, 2_000, Direction::Read),
            arr(3, 3_000, Direction::Read),
        ];
        let d = plan_dispatch(pending, 0, 20_000, 64);
        assert_eq!(d.reason, DispatchReason::HoldExpired);

        // Camera captures never anticipate.
        let pending = [arr(1, 1_000, Direction::Other)];
        let d = plan_dispatch(pending, 0, 20_000, 64);
        assert_eq!(d.at_ns, 1_000);
        assert_eq!(d.reason, DispatchReason::Immediate);

        // Budget 0 disables holding outright.
        let pending = [arr(1, 1_000, Direction::Read)];
        let d = plan_dispatch(pending, 0, 0, 64);
        assert_eq!(d.reason, DispatchReason::Immediate);
    }

    #[test]
    fn decompose_prefers_large_recorded_granularities() {
        let g = [256, 128, 32, 8, 1];
        assert_eq!(decompose(300, &g).collect::<Vec<_>>(), vec![256, 32, 8, 1, 1, 1, 1]);
        assert_eq!(decompose(300, &g).sum::<u32>(), 300);
        assert_eq!(decompose(40, &[8, 1]).collect::<Vec<_>>(), vec![8, 8, 8, 8, 8]);
    }
}
