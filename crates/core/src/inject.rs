//! Device-response fault injection for divergence-robustness testing.
//!
//! The paper's safety argument (§5, §8.2.1) is that the replayer rejects
//! any run that strays from the recorded trace. This module provides the
//! hook that *makes* runs stray, deliberately and precisely: a
//! [`ResponseMutator`] installed on a [`crate::Replayer`] sees every
//! constrained device observation the compiled engine makes — `Read` ops
//! and each `Poll` iteration, register and DMA-word reads alike — and may
//! replace the observed value before the constraint check runs. The
//! replayer's behaviour under mutation is exactly its behaviour under a
//! misbehaving device: soft reset, re-execution, and a typed
//! [`crate::ReplayError::Diverged`] once its three attempts are exhausted.
//!
//! [`ConstraintFlipper`] is the standard mutator: pointed at a constraint
//! site (or left free-roaming) it solves for a violating observation with
//! `dlt-template`'s concolic solver *at mutation time*, against the live
//! register file — so symbolic constraints (`Eq(blkcnt << 9)`, capture-
//! relative checks) are falsified with the exact values the replayer would
//! have accepted. The interpreted baseline engine never consults the
//! mutator; fault injection targets the production (compiled) path.

use std::sync::{Arc, Mutex};

use dlt_template::program::{EvalScratch, OpRange, ReplayProgram};
use dlt_template::Violation;

/// Everything a mutator may inspect at one constrained observation.
pub struct MutationCtx<'a> {
    /// The program being replayed.
    pub program: &'a ReplayProgram,
    /// Index of the current op in [`ReplayProgram::ops`].
    pub op_index: usize,
    /// The op's root constraint range (the site).
    pub cons: OpRange,
    /// The value the device actually produced.
    pub observed: u64,
    /// The live register file (parameters and captures bound so far).
    pub regs: &'a [u64],
    /// Bound flags, parallel to `regs`.
    pub bound: &'a [bool],
    /// `Some(i)` when the observation is the `i`-th read of a poll loop,
    /// `None` for a plain `Read` op.
    pub poll_iteration: Option<u64>,
}

/// A hook on the compiled replayer's device-read path.
///
/// `begin_invocation` runs once per invocation, after template selection
/// and before the first attempt; returning `false` leaves every read of
/// that invocation untouched. An engaged mutator is consulted on *every
/// attempt* of the invocation — a mutation that persists across the
/// replayer's soft-reset retries is what turns a transient fault into a
/// typed persistent divergence.
pub trait ResponseMutator: Send {
    /// Decide whether to engage for this invocation of `program`.
    fn begin_invocation(&mut self, program: &ReplayProgram) -> bool;

    /// Optionally replace one constrained observation. Returning `None`
    /// passes the device's real value through.
    fn mutate(&mut self, ctx: &MutationCtx<'_>) -> Option<u64>;
}

/// Where and when a [`ConstraintFlipper`] strikes.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Engage only on programs whose template name contains this substring
    /// (e.g. `"_rd_"` hits every read template). `None` matches all.
    pub template: Option<String>,
    /// Target op index in the selected program. `None` mutates the first
    /// constrained observation the solver can actually falsify.
    pub op_index: Option<usize>,
    /// Target `ConsOp` index (absolute, into `cons_ops`) within the target
    /// op's site — the concolic per-leaf flip. `None` flips the site root.
    pub cons_index: Option<usize>,
    /// Number of matching invocations to let through untouched before
    /// engaging (mid-batch injection).
    pub skip_invocations: u64,
    /// `true` keeps mutating every subsequent matching invocation until the
    /// mutator is cleared (the fault persists through coalescing fallbacks
    /// and retries); `false` engages exactly one invocation.
    pub sticky: bool,
}

/// What a [`ConstraintFlipper`] actually did, shared with the test harness
/// through an `Arc<Mutex<..>>` so outcomes survive the replayer owning the
/// mutator box.
#[derive(Debug, Clone, Default)]
pub struct FlipOutcome {
    /// Invocations the flipper engaged on.
    pub engaged_invocations: u64,
    /// Observations it replaced.
    pub mutated_reads: u64,
    /// Op index of the last mutation.
    pub last_op: Option<usize>,
    /// Value it last injected.
    pub last_value: Option<u64>,
    /// `true` when the last mutation only flipped a shadowed leaf (the site
    /// root stayed satisfied, so the replay should still succeed).
    pub last_shadowed: bool,
    /// Engaged observations the solver found unfalsifiable.
    pub unsolved: u64,
}

/// A [`ResponseMutator`] that falsifies one constraint with solver-derived
/// values (see [`FaultPlan`] for targeting).
pub struct ConstraintFlipper {
    plan: FaultPlan,
    outcome: Arc<Mutex<FlipOutcome>>,
    scratch: EvalScratch,
    skipped: u64,
    fired: bool,
    engaged: bool,
}

impl ConstraintFlipper {
    /// Build a flipper and the shared outcome handle to observe it by.
    pub fn new(plan: FaultPlan) -> (Self, Arc<Mutex<FlipOutcome>>) {
        let outcome = Arc::new(Mutex::new(FlipOutcome::default()));
        let flipper = ConstraintFlipper {
            plan,
            outcome: outcome.clone(),
            scratch: EvalScratch::default(),
            skipped: 0,
            fired: false,
            engaged: false,
        };
        (flipper, outcome)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FlipOutcome> {
        // A panicking replay attempt is itself a test failure; the outcome
        // counters stay meaningful either way.
        self.outcome.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl ResponseMutator for ConstraintFlipper {
    fn begin_invocation(&mut self, program: &ReplayProgram) -> bool {
        self.engaged = false;
        if let Some(t) = &self.plan.template {
            if !program.name.contains(t.as_str()) {
                return false;
            }
        }
        if self.skipped < self.plan.skip_invocations {
            self.skipped += 1;
            return false;
        }
        if !self.plan.sticky && self.fired {
            return false;
        }
        self.engaged = true;
        self.fired = true;
        self.lock().engaged_invocations += 1;
        true
    }

    fn mutate(&mut self, ctx: &MutationCtx<'_>) -> Option<u64> {
        if !self.engaged {
            return None;
        }
        match self.plan.op_index {
            Some(op) if op != ctx.op_index => return None,
            _ => {}
        }
        let root = (ctx.cons.start + ctx.cons.len - 1) as usize;
        let target = self.plan.cons_index.unwrap_or(root);
        if !ctx.cons.bounds().contains(&target) {
            return None;
        }
        let sol =
            ctx.program.solve_violation(ctx.cons, target, ctx.regs, ctx.bound, &mut self.scratch);
        match sol {
            Violation::Violates { value } | Violation::Shadowed { value } => {
                let mut o = self.lock();
                o.mutated_reads += 1;
                o.last_op = Some(ctx.op_index);
                o.last_value = Some(value);
                o.last_shadowed = matches!(sol, Violation::Shadowed { .. });
                Some(value)
            }
            Violation::Unfalsifiable => {
                // Free-roaming plans move on to the next observation; a
                // pinned op that cannot be falsified is recorded.
                if self.plan.op_index.is_some() || self.plan.cons_index.is_some() {
                    self.lock().unsolved += 1;
                }
                None
            }
        }
    }
}
