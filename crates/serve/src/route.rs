//! Shard routing across replica lanes.
//!
//! The threaded-lane refactor made replica fleets real — N independent
//! simulated devices of the same class, each on its own TEE core — but
//! the front-end still sent every [`DriverletService::submit`] to the
//! *first* lane of a device class, so an N-replica fleet served traffic
//! at 1-replica throughput. This module is the routing layer in front of
//! the fleet:
//!
//! * [`LaneId`] — fleet addressing beyond the closed [`Device`] enum: a
//!   `(device class, replica ordinal)` pair — and [`Target`], the one
//!   address type the service's submit and control calls take: a device
//!   routes, a lane id pins.
//! * [`RoutePolicy`] — pluggable placement over fixed-size block
//!   *chunks*: hash sharding (the default — deterministic, same block →
//!   same replica) or RAID0-style striping (round-robin chunks, so one
//!   hot tenant's large span fans out across the whole fleet).
//! * Replica-aware **spill** admission: when a home lane is saturated, a
//!   *clean* read sheds to its least-loaded sibling instead of failing
//!   with `QueueFull` — the power-of-two-choices idea, generalised to
//!   d-choices because scanning a ≤16-replica fleet is cheaper than
//!   sampling it.
//!
//! ## Why placement must be deterministic
//!
//! Replicas are not views of one datastore: each lane owns an
//! independent simulated device initialised from the same recorded
//! bundle. Blocks that were never written read byte-identically on every
//! replica, but a write exists only on the lane that executed it. Serial
//! equivalence therefore requires every request touching a block to land
//! on that block's *home* lane, where per-lane FIFO admission preserves
//! the block's write/read order. Both shipping policies are pure
//! functions of the block's chunk id, so the home is identical across
//! runs, submit modes and execution modes.
//!
//! ## Why spilling is restricted to clean reads
//!
//! A read may legally execute on *any* replica iff every chunk it
//! touches is **clean** — no write was ever routed into it — because
//! clean chunks are byte-identical fleet-wide (same bundle, fresh
//! platform) and a read of them commutes with every legal serial order.
//! The router tracks dirtied chunks at routing time, which is submission
//! order (the front-end is single-threaded), so the check is exact, and
//! marking is conservative: a staged write that is later rejected at the
//! doorbell leaves its chunks marked dirty, which only forfeits future
//! spill opportunities, never correctness. Writes never spill.
//!
//! [`DriverletService::submit`]: crate::DriverletService::submit

use std::collections::HashSet;

use crate::{Device, Request, SessionId, BLOCK};

/// One replica lane of a device class — fleet addressing beyond the
/// closed [`Device`] enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneId {
    /// Device class the lane serves.
    pub device: Device,
    /// Replica ordinal within the class (0-based, in construction
    /// order).
    pub replica: usize,
}

impl std::fmt::Display for LaneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.device, self.replica)
    }
}

/// Where a submit or control operation goes
/// ([`DriverletService::submit_to`], `inject_fault`, `clear_fault`,
/// `lane_health_check`).
///
/// [`DriverletService::submit_to`]: crate::DriverletService::submit_to
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// The device's replica fleet: requests are placed by the router and
    /// admission QoS; control operations address replica 0.
    Device(Device),
    /// One replica lane, pinned: the router and admission QoS are
    /// bypassed.
    Lane(LaneId),
}

impl Target {
    /// The lane a control operation on this target addresses.
    pub fn lane_id(self) -> LaneId {
        match self {
            Target::Device(device) => LaneId { device, replica: 0 },
            Target::Lane(id) => id,
        }
    }
}

impl From<Device> for Target {
    fn from(device: Device) -> Self {
        Target::Device(device)
    }
}

impl From<LaneId> for Target {
    fn from(id: LaneId) -> Self {
        Target::Lane(id)
    }
}

/// Placement policy: which replica owns each fixed-size chunk of the
/// block address space. Both variants are pure functions of the chunk id,
/// so placement is deterministic across runs and submit modes. A caller
/// that wants one replica addresses its lane with a [`LaneId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Hash sharding: chunk `k` lives on replica `hash(k) % n`. Large
    /// chunks keep a tenant's working set on one lane (coalescing still
    /// merges inside a chunk) while distinct extents spread fleet-wide.
    HashShard {
        /// Chunk size in blocks (placement granularity).
        chunk_blocks: u32,
    },
    /// RAID0-style striping: chunk `k` lives on replica `k % n`, so one
    /// hot tenant's large span fans out across every replica and its
    /// completions are reassembled in offset order.
    Stripe {
        /// Stripe unit in blocks.
        stripe_blocks: u32,
    },
}

impl RoutePolicy {
    /// Placement granularity in blocks.
    fn chunk_blocks(&self) -> u64 {
        match self {
            RoutePolicy::HashShard { chunk_blocks } => u64::from((*chunk_blocks).max(1)),
            RoutePolicy::Stripe { stripe_blocks } => u64::from((*stripe_blocks).max(1)),
        }
    }

    /// Home replica of chunk `chunk` in an `replicas`-wide fleet.
    fn replica_for_chunk(&self, chunk: u64, replicas: usize) -> usize {
        let n = replicas.max(1) as u64;
        match self {
            RoutePolicy::HashShard { .. } => (splitmix64(chunk) % n) as usize,
            RoutePolicy::Stripe { .. } => (chunk % n) as usize,
        }
    }

    /// Home replica of block `blkid` in an `replicas`-wide fleet — the
    /// pure placement function (what "same block → same replica" means).
    pub fn replica_for(&self, blkid: u32, replicas: usize) -> usize {
        self.replica_for_chunk(u64::from(blkid) / self.chunk_blocks(), replicas)
    }
}

/// Router configuration ([`ServeConfig::route`]).
///
/// [`ServeConfig::route`]: crate::ServeConfig::route
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteConfig {
    /// Placement policy.
    pub policy: RoutePolicy,
    /// Shed clean reads from a saturated home lane to its least-loaded
    /// sibling instead of returning `QueueFull`.
    pub spill: bool,
}

impl Default for RouteConfig {
    fn default() -> Self {
        // 256-block (128 KiB) chunks: big enough that the coalescer's
        // merge window stays on one lane, small enough that distinct
        // tenant extents spread across the fleet. With one replica every
        // chunk maps to lane 0 and the router is an identity.
        RouteConfig { policy: RoutePolicy::HashShard { chunk_blocks: 256 }, spill: true }
    }
}

/// One replica lane's queue depth in a fleet backpressure snapshot
/// (carried by `ServeError::QueueFull` from routed submits, so callers
/// can tell "one hot shard" from "fleet saturated").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaDepth {
    /// Replica ordinal within the device class.
    pub replica: usize,
    /// Queue occupancy at rejection time (lane queue per-call, SQ ring
    /// in ring mode).
    pub depth: usize,
    /// The replica's configured bound.
    pub capacity: usize,
}

/// One replica's occupancy as the planner sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneLoad {
    /// Current queue depth (admitted in-flight per-call; staged SQ
    /// entries in ring mode).
    pub depth: usize,
    /// The bound the depth is admitted against.
    pub capacity: usize,
    /// The deepest `depth` has been, reported by `QueueFull`.
    pub high_water: usize,
    /// Whether new work may be placed here by choice. An unavailable
    /// (quarantined) home sheds its *clean reads* to available siblings
    /// exactly like a saturated one; writes and dirty reads still go home
    /// (placement determinism outranks avoidance — the lane keeps
    /// executing through quarantine, and failover catches what still
    /// diverges).
    pub available: bool,
}

impl LaneLoad {
    /// Whether one more entry fits under the bound.
    pub fn fits(&self) -> bool {
        self.depth < self.capacity
    }
}

/// The least-loaded available replica other than `home` with room for one
/// more entry — the one sibling rule spill, failover, quarantine eviction
/// and SQ re-staging share (the first such replica wins a tie).
pub(crate) fn least_loaded_sibling(loads: &[LaneLoad], home: usize) -> Option<usize> {
    (0..loads.len())
        .filter(|&r| r != home && loads[r].available && loads[r].fits())
        .min_by_key(|&r| loads[r].depth)
}

/// One contiguous piece of a routed request. A plan with a single part
/// spanning the whole request routes unsplit; two or more parts fan out
/// and reassemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RoutePart {
    /// Replica ordinal (index into the device's lane table).
    pub replica: usize,
    /// First block of the part (equals the request's `blkid` for
    /// captures, which carry no span).
    pub blkid: u32,
    /// Blocks in the part (0 for captures).
    pub blkcnt: u32,
    /// Whether the part was shed off its saturated home lane.
    pub spilled: bool,
}

/// Rejection: some part could not be admitted on its home lane nor
/// legally spilled. Carries the fleet-wide depth snapshot.
#[derive(Debug, Clone)]
pub(crate) struct RouteReject {
    /// The saturated home replica of the unroutable part, with the depth
    /// it was rejected at.
    pub home: ReplicaDepth,
    /// Per-replica depth snapshot at rejection time (empty for a pinned
    /// request, which never saw the fleet).
    pub fleet: Vec<ReplicaDepth>,
}

impl RouteReject {
    /// Reject a request at replica `home` of `loads`, attaching the fleet
    /// view iff `routed`.
    pub fn at(home: usize, loads: &[LaneLoad], routed: bool) -> RouteReject {
        let depth = |replica: usize| ReplicaDepth {
            replica,
            depth: loads[replica].depth,
            capacity: loads[replica].capacity,
        };
        let fleet = if routed { (0..loads.len()).map(depth).collect() } else { Vec::new() };
        RouteReject { home: depth(home), fleet }
    }
}

/// The front-end's routing state: the placement policy plus the dirtied
/// chunk set that gates spilling. Lives behind `&mut DriverletService`,
/// so updates happen in submission order.
pub(crate) struct Router {
    policy: RoutePolicy,
    spill: bool,
    /// Chunks a write was ever routed into, per device class.
    dirty: HashSet<(Device, u64)>,
}

impl Router {
    pub(crate) fn new(config: RouteConfig) -> Self {
        Router { policy: config.policy, spill: config.spill, dirty: HashSet::new() }
    }

    /// Plan `req` across a fleet of `loads.len()` replicas into `parts`
    /// (emptied first; the caller reuses it). All-or-nothing: on `Err` no
    /// chunk was dirtied. Each placed part counts towards its lane's
    /// `depth` in `loads`, so a fan-out cannot overcommit one lane.
    pub(crate) fn plan(
        &mut self,
        session: SessionId,
        req: &Request,
        loads: &mut [LaneLoad],
        parts: &mut Vec<RoutePart>,
    ) -> Result<(), RouteReject> {
        parts.clear();
        let n = loads.len().max(1);
        let device = req.device();
        let (blkid, blkcnt, is_write) = match req {
            Request::Read { blkid, blkcnt, .. } => (*blkid, *blkcnt, false),
            Request::Write { blkid, data, .. } => (*blkid, (data.len() / BLOCK) as u32, true),
            Request::Capture { .. } => {
                // Captures carry no block span: place by session hash
                // (deterministic, keeps one tenant's frames — and their
                // lane-local capture history — on one camera). Never
                // spilled: frame content may depend on that history.
                let replica = (splitmix64(u64::from(session)) % n as u64) as usize;
                if !loads[replica].fits() {
                    return Err(RouteReject::at(replica, loads, true));
                }
                parts.push(RoutePart { replica, blkid: 0, blkcnt: 0, spilled: false });
                return Ok(());
            }
        };

        // Split the span at chunk boundaries, merging adjacent chunks
        // that share a home into one part.
        let end = u64::from(blkid) + u64::from(blkcnt.max(1)) - 1;
        let cb = self.policy.chunk_blocks();
        let (first, last) = (u64::from(blkid) / cb, end / cb);
        for chunk in first..=last {
            let home = self.policy.replica_for_chunk(chunk, n);
            let lo = (chunk * cb).max(u64::from(blkid));
            let hi = ((chunk + 1) * cb - 1).min(end);
            match parts.last_mut() {
                Some(prev) if prev.replica == home => {
                    prev.blkcnt += (hi - lo + 1) as u32;
                }
                _ => parts.push(RoutePart {
                    replica: home,
                    blkid: lo as u32,
                    blkcnt: (hi - lo + 1) as u32,
                    spilled: false,
                }),
            }
        }

        // Admission with spill: each part goes home unless home is
        // saturated — or quarantined — in which case a clean read sheds
        // to the least-loaded *available* sibling with room (d-choices
        // over the whole fleet — at ≤16 replicas the scan is cheaper
        // than sampling).
        for part in parts.iter_mut() {
            let spillable = self.spill && !is_write && n > 1 && self.part_is_clean(device, part);
            let home_fits = loads[part.replica].fits();
            if !home_fits || (!loads[part.replica].available && spillable) {
                match least_loaded_sibling(loads, part.replica).filter(|_| spillable) {
                    Some(alt) => {
                        part.spilled = true;
                        part.replica = alt;
                    }
                    // No available sibling has room: fall back to the home
                    // lane if only its availability (not its depth) was
                    // the problem — a quarantined lane still executes, and
                    // the failover path covers what diverges there.
                    None if home_fits => {}
                    None => return Err(RouteReject::at(part.replica, loads, true)),
                }
            }
            loads[part.replica].depth += 1;
        }

        if is_write {
            for chunk in first..=last {
                self.dirty.insert((device, chunk));
            }
        }
        Ok(())
    }

    /// Whether a read span's bytes are replica-independent: no chunk it
    /// touches was ever dirtied by a routed write. This is the failover
    /// and eviction precondition — only such reads may re-execute on a
    /// sibling replica without silently changing their bytes.
    pub fn span_is_clean(&self, device: Device, blkid: u32, blkcnt: u32) -> bool {
        self.part_is_clean(device, &RoutePart { replica: 0, blkid, blkcnt, spilled: false })
    }

    /// Whether every chunk the part touches is clean (never dirtied by a
    /// routed write) — the condition under which the part's bytes are
    /// identical on every replica.
    fn part_is_clean(&self, device: Device, part: &RoutePart) -> bool {
        let cb = self.policy.chunk_blocks();
        let end = u64::from(part.blkid) + u64::from(part.blkcnt.max(1)) - 1;
        ((u64::from(part.blkid) / cb)..=(end / cb))
            .all(|chunk| !self.dirty.contains(&(device, chunk)))
    }
}

/// SplitMix64 — the avalanche permutation behind the hash shard. Chosen
/// over a modulo of the raw chunk id so sequential extents spread
/// instead of landing on consecutive replicas in lockstep with stripe
/// placement.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads(depths: &[usize], capacity: usize) -> Vec<LaneLoad> {
        depths
            .iter()
            .map(|&depth| LaneLoad { depth, capacity, high_water: depth, available: true })
            .collect()
    }

    /// Plan against a copy of `loads`, returning the parts.
    fn plan(
        router: &mut Router,
        session: SessionId,
        req: &Request,
        loads: &[LaneLoad],
    ) -> Result<Vec<RoutePart>, RouteReject> {
        let mut parts = Vec::new();
        router.plan(session, req, &mut loads.to_vec(), &mut parts).map(|()| parts)
    }

    fn rd(blkid: u32, blkcnt: u32) -> Request {
        Request::Read { device: Device::Mmc, blkid, blkcnt }
    }

    fn wr(blkid: u32, blocks: usize) -> Request {
        Request::Write { device: Device::Mmc, blkid, data: vec![0xa5; blocks * BLOCK] }
    }

    #[test]
    fn placement_is_deterministic_and_chunk_granular() {
        for policy in
            [RoutePolicy::HashShard { chunk_blocks: 64 }, RoutePolicy::Stripe { stripe_blocks: 64 }]
        {
            for blkid in 0..512u32 {
                let a = policy.replica_for(blkid, 4);
                let b = policy.replica_for(blkid, 4);
                assert_eq!(a, b, "same block must always land on the same replica");
                assert!(a < 4);
                // Every block of a chunk shares the chunk's home.
                assert_eq!(a, policy.replica_for(blkid / 64 * 64, 4));
            }
        }
        // Stripe is round-robin by construction.
        let stripe = RoutePolicy::Stripe { stripe_blocks: 8 };
        for chunk in 0..16u32 {
            assert_eq!(stripe.replica_for(chunk * 8, 4), (chunk % 4) as usize);
        }
    }

    #[test]
    fn hash_shard_spreads_distinct_extents() {
        let policy = RoutePolicy::HashShard { chunk_blocks: 64 };
        let homes: std::collections::HashSet<usize> =
            (0..32u32).map(|extent| policy.replica_for(extent * 64, 4)).collect();
        assert!(homes.len() >= 3, "32 extents over 4 replicas must hit most of the fleet");
    }

    #[test]
    fn spans_split_at_chunk_boundaries_and_reassemble_contiguously() {
        let mut router = Router::new(RouteConfig {
            policy: RoutePolicy::Stripe { stripe_blocks: 4 },
            spill: false,
        });
        let parts = plan(&mut router, 1, &rd(6, 10), &loads(&[0, 0, 0], 8)).unwrap();
        // Blocks 6..=15 over 4-block stripes: [6,7] -> chunk 1, [8..=11]
        // -> chunk 2, [12..=15] -> chunk 3; chunk k -> replica k % 3.
        assert_eq!(parts.len(), 3);
        assert_eq!(
            parts,
            vec![
                RoutePart { replica: 1, blkid: 6, blkcnt: 2, spilled: false },
                RoutePart { replica: 2, blkid: 8, blkcnt: 4, spilled: false },
                RoutePart { replica: 0, blkid: 12, blkcnt: 4, spilled: false },
            ]
        );
        // The parts partition the span in offset order.
        let total: u32 = parts.iter().map(|p| p.blkcnt).sum();
        assert_eq!(total, 10);
        assert_eq!(parts[0].blkid, 6);
        for w in parts.windows(2) {
            assert_eq!(w[0].blkid + w[0].blkcnt, w[1].blkid);
        }
    }

    #[test]
    fn adjacent_chunks_with_one_home_stay_one_part() {
        let mut router = Router::new(RouteConfig {
            policy: RoutePolicy::Stripe { stripe_blocks: 4 },
            spill: false,
        });
        // One replica: every chunk homes on 0, so nothing ever splits.
        let parts = plan(&mut router, 1, &rd(0, 64), &loads(&[0], 128)).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!((parts[0].blkid, parts[0].blkcnt), (0, 64));
    }

    #[test]
    fn clean_reads_spill_to_the_least_loaded_sibling() {
        let mut router = Router::new(RouteConfig {
            policy: RoutePolicy::Stripe { stripe_blocks: 64 },
            spill: true,
        });
        // Chunk 0 homes on replica 0, which is saturated; replica 2 is
        // the least loaded sibling.
        let parts = plan(&mut router, 1, &rd(0, 8), &loads(&[4, 2, 1, 3], 4)).unwrap();
        assert_eq!(parts.len(), 1);
        assert!(parts[0].spilled);
        assert_eq!(parts[0].replica, 2);

        // A write to the same saturated home never spills: fleet view.
        let err = plan(&mut router, 1, &wr(0, 1), &loads(&[4, 2, 1, 3], 4)).unwrap_err();
        assert_eq!(err.home, ReplicaDepth { replica: 0, depth: 4, capacity: 4 });
        assert_eq!(err.fleet.len(), 4);
        assert_eq!(err.fleet[0], ReplicaDepth { replica: 0, depth: 4, capacity: 4 });
        assert_eq!(err.fleet[2].depth, 1);
    }

    #[test]
    fn dirty_chunks_pin_reads_to_their_home() {
        let mut router = Router::new(RouteConfig {
            policy: RoutePolicy::Stripe { stripe_blocks: 64 },
            spill: true,
        });
        // Route a write through chunk 0 (home replica 0) while there is
        // room, dirtying it.
        plan(&mut router, 1, &wr(8, 2), &loads(&[0, 0], 4)).unwrap();
        // Now saturate the home: the read of the dirtied chunk must NOT
        // spill (the sibling never saw the write) — fleet-view reject.
        let err = plan(&mut router, 1, &rd(8, 2), &loads(&[4, 0], 4)).unwrap_err();
        assert_eq!(err.home.replica, 0);
        // A read of a *different, clean* chunk still spills fine.
        let parts = plan(&mut router, 1, &rd(64, 2), &loads(&[4, 0], 4)).unwrap();
        assert!(parts[0].spilled || parts[0].replica == 1);
    }

    #[test]
    fn fanout_accounts_for_its_own_occupancy() {
        let mut router = Router::new(RouteConfig {
            policy: RoutePolicy::Stripe { stripe_blocks: 1 },
            spill: false,
        });
        // 4 single-block chunks round-robin over 2 replicas: 2 parts per
        // replica... but each lane has room for only 1 more entry, and
        // the merged parts (2 chunks each... stripe_blocks 1 alternates,
        // so 4 chunks -> 4 parts) overcommit: the plan must reject
        // rather than plan two parts into one slot.
        let err = plan(&mut router, 1, &rd(0, 4), &loads(&[3, 3], 4)).unwrap_err();
        assert_eq!(err.fleet.iter().map(|f| f.depth).max(), Some(4));
    }

    #[test]
    fn quarantined_homes_shed_clean_reads_but_keep_writes() {
        let mut router = Router::new(RouteConfig {
            policy: RoutePolicy::Stripe { stripe_blocks: 64 },
            spill: true,
        });
        let mut fleet = loads(&[0, 2, 1], 4);
        fleet[0].available = false;
        // Chunk 0 homes on the (empty but quarantined) replica 0: a clean
        // read sheds to the least-loaded available sibling.
        let parts = plan(&mut router, 1, &rd(0, 8), &fleet).unwrap();
        assert!(parts[0].spilled);
        assert_eq!(parts[0].replica, 2);
        // A write still goes home — placement determinism outranks
        // avoidance, and the quarantined lane keeps executing.
        let parts = plan(&mut router, 1, &wr(0, 1), &fleet).unwrap();
        assert!(!parts[0].spilled);
        assert_eq!(parts[0].replica, 0);
        // Now the dirty chunk pins reads home too, quarantine or not.
        let parts = plan(&mut router, 1, &rd(0, 8), &fleet).unwrap();
        assert!(!parts[0].spilled);
        assert_eq!(parts[0].replica, 0);
        // With every sibling also unavailable, a clean read of another
        // chunk falls back to its home rather than rejecting.
        let mut all_down = loads(&[0, 0, 0], 4);
        for l in &mut all_down {
            l.available = false;
        }
        let parts = plan(&mut router, 1, &rd(64, 8), &all_down).unwrap();
        assert!(!parts[0].spilled);
        assert_eq!(parts[0].replica, RoutePolicy::Stripe { stripe_blocks: 64 }.replica_for(64, 3));
    }

    #[test]
    fn captures_place_by_session_and_never_split() {
        let mut router = Router::new(RouteConfig::default());
        let cap = Request::Capture { frames: 1, resolution: 720 };
        let a = plan(&mut router, 7, &cap, &loads(&[0, 0, 0], 4)).unwrap();
        let b = plan(&mut router, 7, &cap, &loads(&[1, 1, 1], 4)).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].replica, b[0].replica, "a session's captures stay on one camera");
    }

    #[test]
    fn lane_ids_render_class_and_ordinal() {
        let id = LaneId { device: Device::Mmc, replica: 2 };
        assert_eq!(id.to_string(), "mmc/2");
    }
}
