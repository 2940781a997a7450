//! Load-time compilation of templates into flat **replay programs**.
//!
//! The tree-shaped [`crate::Template`] is the recorder's artefact: readable,
//! signable, diffable. It is a poor execution format — every invocation of
//! the naive interpreter clones the event tree, resolves parameter and
//! capture names through `HashMap`s, and recursively walks [`SymExpr`] /
//! [`Constraint`] trees per event. This module lowers a vetted template
//! *once, at driverlet load time* into a [`ReplayProgram`]:
//!
//! * every parameter, capture name and DMA base is **interned to a fixed
//!   slot index** into a flat `u64` register file,
//! * every [`SymExpr`] is flattened into **index-addressed postfix ops**
//!   ([`ExprOp`]) evaluated on a reusable value stack,
//! * every [`Constraint`] is flattened the same way ([`ConsOp`]) on a
//!   reusable boolean stack, with `OneOf` constants pooled,
//! * every event becomes one fixed-size [`Op`] whose interfaces are
//!   pre-resolved (register address or allocation index + offset — the
//!   unreplayable `Env` interfaces are rejected at compile time),
//! * poll bodies are folded into a precomputed per-iteration delay (the
//!   replayer only ever honoured `delay` events inside poll bodies),
//! * the human-readable renderings the divergence reports need are
//!   precomputed per op ([`OpMeta`]), so the hot loop never formats strings.
//!
//! The result is that the replayer's `execute_once` runs a branch-on-opcode
//! loop with **zero heap allocation** on the divergence-free path: the
//! register file, evaluation stacks and DMA table live in a scratch arena
//! owned by the replayer and are reused across invocations.

use std::collections::HashMap;

use crate::constraint::Constraint;
use crate::event::{Event, Iface, ReadSink, SourceSite};
use crate::expr::SymExpr;
use crate::template::Template;

/// A slot index into the program's register file.
pub type Slot = u32;

/// A range of ops inside one of the program's flat pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRange {
    /// First op index.
    pub start: u32,
    /// Number of ops.
    pub len: u32,
}

impl OpRange {
    fn of(start: usize, end: usize) -> OpRange {
        OpRange { start: start as u32, len: (end - start) as u32 }
    }

    /// The range as usize bounds.
    pub fn bounds(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One postfix expression op. Operands are pushed onto a value stack;
/// operators pop their arguments and push the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprOp {
    /// Push a constant.
    Const(u64),
    /// Push the value of a register-file slot (parameter, capture or DMA
    /// base). Evaluation fails if the slot is unbound.
    Slot(Slot),
    /// Pop two, push bitwise AND.
    And,
    /// Pop two, push bitwise OR.
    Or,
    /// Pop two, push bitwise XOR.
    Xor,
    /// Pop two, push wrapping sum.
    Add,
    /// Pop two, push wrapping difference.
    Sub,
    /// Pop two, push wrapping product.
    Mul,
    /// Pop one, push logical shift left by the constant.
    Shl(u32),
    /// Pop one, push logical shift right by the constant.
    Shr(u32),
    /// Pop one, push bitwise NOT.
    Not,
}

/// One postfix constraint op over the observed value. Leaf checks push a
/// boolean; `All`/`AnyOf` pop `n` booleans and push the combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsOp {
    /// Always true (`Constraint::Any`).
    True,
    /// Value equals the expression (false if the expression is unbound).
    Eq(OpRange),
    /// Value differs from the expression (false if unbound).
    Ne(OpRange),
    /// Value lies in `[min, max]`.
    InRange {
        /// Inclusive lower bound.
        min: u64,
        /// Inclusive upper bound.
        max: u64,
    },
    /// Value is one of the pooled constants.
    OneOf(OpRange),
    /// `(value & mask) == expected`.
    MaskEq {
        /// Bits to test.
        mask: u64,
        /// Required masked value.
        expected: u64,
    },
    /// `(value & mask) == 0`.
    MaskClear {
        /// Bits that must all be clear.
        mask: u64,
    },
    /// Pop `n` booleans, push their conjunction.
    All(u16),
    /// Pop `n` booleans, push their disjunction.
    AnyOf(u16),
}

/// Pre-resolved interface: where an op reads from / writes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CIface {
    /// A device register at an absolute physical address (window-checked at
    /// load time).
    Reg(u64),
    /// A word inside the `alloc`-th DMA allocation.
    Shm {
        /// Allocation index (in `dma_alloc` op order).
        alloc: u32,
        /// Byte offset within the allocation.
        offset: u64,
    },
}

/// Pre-resolved read sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CSink {
    /// Check the constraint, discard the value.
    Discard,
    /// Bind the value to a capture slot.
    Capture(Slot),
    /// Store the value as IO payload at this trustlet-buffer byte offset.
    UserData(u64),
}

/// One compiled replay op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read the interface, check the constraint, route the value.
    Read {
        /// Source interface.
        iface: CIface,
        /// Compiled constraint on the observed value.
        cons: OpRange,
        /// Where the value goes.
        sink: CSink,
    },
    /// Evaluate the expression and write it to the interface.
    Write {
        /// Destination interface.
        iface: CIface,
        /// Compiled value expression.
        value: OpRange,
    },
    /// Allocate DMA memory and bind its base to a slot.
    DmaAlloc {
        /// Compiled allocation-size expression.
        len: OpRange,
        /// Register-file slot receiving the base address.
        slot: Slot,
    },
    /// Obtain `len` random bytes from the environment.
    GetRandBytes {
        /// Number of bytes.
        len: u32,
    },
    /// Obtain a timestamp, optionally binding it to a capture slot.
    GetTs {
        /// Capture slot, or `u32::MAX` for discard.
        slot: Slot,
    },
    /// Wait for an interrupt.
    WaitForIrq {
        /// Interrupt line.
        line: u32,
        /// Give-up timeout in microseconds.
        timeout_us: u64,
    },
    /// Delay for `us` microseconds.
    Delay {
        /// Microseconds.
        us: u64,
    },
    /// Poll the interface until the constraint holds.
    Poll {
        /// Polled interface.
        iface: CIface,
        /// Termination condition.
        cons: OpRange,
        /// Pre-folded delay per iteration (body delays + inter-iteration
        /// delay) in microseconds.
        iter_delay_us: u64,
        /// Iteration bound before divergence.
        max_iters: u64,
    },
    /// Copy payload from the trustlet buffer into a DMA allocation.
    CopyUserToDma {
        /// Destination allocation index.
        alloc: u32,
        /// Offset within the allocation.
        offset: u64,
        /// Source offset in the trustlet buffer.
        user_offset: u64,
        /// Compiled length expression.
        len: OpRange,
    },
    /// Copy device-produced payload from a DMA allocation to the trustlet
    /// buffer.
    CopyDmaToUser {
        /// Source allocation index.
        alloc: u32,
        /// Offset within the allocation.
        offset: u64,
        /// Destination offset in the trustlet buffer.
        user_offset: u64,
        /// Compiled length expression.
        len: OpRange,
    },
}

/// Sentinel slot for "no capture".
pub const NO_SLOT: Slot = u32::MAX;

/// Divergence-report metadata for one op, precomputed at compile time so the
/// hot loop never formats strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpMeta {
    /// Index of the originating event in the source template.
    pub src_index: u32,
    /// Gold-driver recording site of the originating event.
    pub site: SourceSite,
    /// Rendered event (`Event::describe`).
    pub desc: String,
    /// Rendered constraint (`Constraint::describe`), empty when the op
    /// carries none.
    pub cons_desc: String,
}

/// One compiled parameter-selection check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamCheck {
    /// Register-file slot of the parameter.
    pub slot: Slot,
    /// Compiled constraint.
    pub cons: OpRange,
    /// Whether the constraint restricts anything (unbound parameters are
    /// accepted only for non-constraining checks, mirroring
    /// [`Template::matches`]).
    pub constraining: bool,
}

/// A template lowered to its flat, pre-resolved execution form.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayProgram {
    /// Template name (for reports).
    pub name: String,
    /// Device the program drives.
    pub device: String,
    /// Parameter names; parameter `i` lives in register-file slot `i`.
    pub param_names: Vec<String>,
    /// Capture names; capture `i` lives in slot `param_names.len() + i`.
    pub capture_names: Vec<String>,
    /// Number of DMA allocations; base `i` lives in slot
    /// `param_names.len() + capture_names.len() + i`.
    pub num_dma: u32,
    /// Compiled parameter-selection checks.
    pub param_checks: Vec<ParamCheck>,
    /// The flat op sequence.
    pub ops: Vec<Op>,
    /// Shared postfix expression pool.
    pub expr_ops: Vec<ExprOp>,
    /// Shared postfix constraint pool.
    pub cons_ops: Vec<ConsOp>,
    /// Pooled `OneOf` constants.
    pub pool: Vec<u64>,
    /// Worst-case expression value-stack depth (for scratch pre-sizing).
    pub max_value_stack: usize,
    /// Worst-case constraint boolean-stack depth.
    pub max_bool_stack: usize,
    /// Largest `get_rand_bytes` request in the program.
    pub max_rand_len: usize,
    /// Per-op divergence metadata, parallel to `ops`.
    pub meta: Vec<OpMeta>,
}

impl ReplayProgram {
    /// Total register-file size.
    pub fn num_slots(&self) -> usize {
        self.param_names.len() + self.capture_names.len() + self.num_dma as usize
    }

    /// Bind trustlet arguments into a register file. `regs`/`bound` must be
    /// at least [`ReplayProgram::num_slots`] long; capture and DMA slots are
    /// reset to unbound.
    pub fn bind_args(&self, args: &HashMap<String, u64>, regs: &mut [u64], bound: &mut [bool]) {
        for b in bound[..self.num_slots()].iter_mut() {
            *b = false;
        }
        for (slot, name) in self.param_names.iter().enumerate() {
            if let Some(v) = args.get(name) {
                regs[slot] = *v;
                bound[slot] = true;
            }
        }
    }

    /// Bind trustlet arguments supplied as a borrowed slice — the zero-
    /// allocation entry path (`replay_mmc(rw, blkcnt, blkid, flag, buf)`
    /// style calls never build a name-keyed map; a linear scan over a
    /// handful of pairs beats hashing).
    pub fn bind_arg_slice(&self, args: &[(&str, u64)], regs: &mut [u64], bound: &mut [bool]) {
        for b in bound[..self.num_slots()].iter_mut() {
            *b = false;
        }
        for (slot, name) in self.param_names.iter().enumerate() {
            if let Some((_, v)) = args.iter().find(|(n, _)| *n == name.as_str()) {
                regs[slot] = *v;
                bound[slot] = true;
            }
        }
    }

    /// Whether a bound register file satisfies every parameter check —
    /// the compiled form of [`Template::matches`].
    pub fn matches_regs(&self, regs: &[u64], bound: &[bool], scratch: &mut EvalScratch) -> bool {
        self.param_checks.iter().all(|pc| {
            if bound[pc.slot as usize] {
                self.check_cons(pc.cons, regs[pc.slot as usize], regs, bound, scratch)
            } else {
                !pc.constraining
            }
        })
    }

    /// Evaluate a compiled expression against the register file. Returns
    /// `None` if the expression references an unbound slot.
    pub fn eval_expr(
        &self,
        range: OpRange,
        regs: &[u64],
        bound: &[bool],
        scratch: &mut EvalScratch,
    ) -> Option<u64> {
        let stack = &mut scratch.values;
        stack.clear();
        for op in &self.expr_ops[range.bounds()] {
            match op {
                ExprOp::Const(c) => stack.push(*c),
                ExprOp::Slot(s) => {
                    if !bound[*s as usize] {
                        return None;
                    }
                    stack.push(regs[*s as usize]);
                }
                ExprOp::And => bin(stack, |a, b| a & b),
                ExprOp::Or => bin(stack, |a, b| a | b),
                ExprOp::Xor => bin(stack, |a, b| a ^ b),
                ExprOp::Add => bin(stack, |a, b| a.wrapping_add(b)),
                ExprOp::Sub => bin(stack, |a, b| a.wrapping_sub(b)),
                ExprOp::Mul => bin(stack, |a, b| a.wrapping_mul(b)),
                ExprOp::Shl(n) => un(stack, |a| a.wrapping_shl(*n)),
                ExprOp::Shr(n) => un(stack, |a| a.wrapping_shr(*n)),
                ExprOp::Not => un(stack, |a| !a),
            }
        }
        stack.pop()
    }

    /// Check a compiled constraint against an observed value.
    pub fn check_cons(
        &self,
        range: OpRange,
        value: u64,
        regs: &[u64],
        bound: &[bool],
        scratch: &mut EvalScratch,
    ) -> bool {
        // The boolean stack is taken out of the scratch arena so expression
        // sub-evaluations can reuse `scratch.values` without aliasing.
        let mut bools = std::mem::take(&mut scratch.bools);
        bools.clear();
        for i in range.bounds() {
            let op = self.cons_ops[i];
            let r = match op {
                ConsOp::True => true,
                ConsOp::Eq(e) => {
                    self.eval_expr(e, regs, bound, scratch).map(|v| v == value).unwrap_or(false)
                }
                ConsOp::Ne(e) => {
                    self.eval_expr(e, regs, bound, scratch).map(|v| v != value).unwrap_or(false)
                }
                ConsOp::InRange { min, max } => value >= min && value <= max,
                ConsOp::OneOf(p) => self.pool[p.bounds()].contains(&value),
                ConsOp::MaskEq { mask, expected } => value & mask == expected,
                ConsOp::MaskClear { mask } => value & mask == 0,
                ConsOp::All(n) => {
                    let at = bools.len() - n as usize;
                    let r = bools[at..].iter().all(|b| *b);
                    bools.truncate(at);
                    r
                }
                ConsOp::AnyOf(n) => {
                    let at = bools.len() - n as usize;
                    let r = bools[at..].iter().any(|b| *b);
                    bools.truncate(at);
                    r
                }
            };
            bools.push(r);
        }
        let out = bools.pop().unwrap_or(true);
        scratch.bools = bools;
        out
    }
}

#[inline]
fn bin(stack: &mut Vec<u64>, f: impl Fn(u64, u64) -> u64) {
    // Compilation guarantees the stack discipline; a malformed pool would
    // only underflow into the safe `unwrap_or(0)` defaults.
    let b = stack.pop().unwrap_or(0);
    let a = stack.pop().unwrap_or(0);
    stack.push(f(a, b));
}

#[inline]
fn un(stack: &mut Vec<u64>, f: impl Fn(u64) -> u64) {
    let a = stack.pop().unwrap_or(0);
    stack.push(f(a));
}

/// Reusable evaluation stacks. Owned by the replayer's scratch arena and
/// pre-sized at load time so the hot path never reallocates.
#[derive(Debug, Default, Clone)]
pub struct EvalScratch {
    /// Value stack for expression evaluation.
    pub values: Vec<u64>,
    /// Boolean stack for constraint evaluation.
    pub bools: Vec<bool>,
}

impl EvalScratch {
    /// Reserve capacity for a program's worst-case stack depths.
    /// (`Vec::reserve` is relative to the length, and the stacks are always
    /// drained between uses, so reserving the full depth is exact.)
    pub fn reserve_for(&mut self, prog: &ReplayProgram) {
        if self.values.capacity() < prog.max_value_stack {
            self.values.reserve(prog.max_value_stack);
        }
        if self.bools.capacity() < prog.max_bool_stack {
            self.bools.reserve(prog.max_bool_stack);
        }
    }
}

/// Errors raised when lowering a template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The template references an environment interface in a replayable
    /// position (env interfaces are not readable/writable at replay time).
    EnvInterface(String),
    /// An expression references a parameter/capture the template does not
    /// declare or produce (should have been caught by static vetting).
    UnknownSymbol(String),
    /// Structural limits exceeded (slot or op counts beyond `u32`).
    TooLarge(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::EnvInterface(s) => write!(f, "env interface not replayable: {s}"),
            CompileError::UnknownSymbol(s) => write!(f, "unknown symbol: {s}"),
            CompileError::TooLarge(s) => write!(f, "template too large to compile: {s}"),
        }
    }
}

impl std::error::Error for CompileError {}

struct Compiler<'t> {
    template: &'t Template,
    param_names: Vec<String>,
    capture_names: Vec<String>,
    num_dma: u32,
    ops: Vec<Op>,
    expr_ops: Vec<ExprOp>,
    cons_ops: Vec<ConsOp>,
    pool: Vec<u64>,
    max_value_stack: usize,
    max_bool_stack: usize,
    max_rand_len: usize,
    meta: Vec<OpMeta>,
}

impl<'t> Compiler<'t> {
    fn slot_of_param(&self, name: &str) -> Option<Slot> {
        self.param_names.iter().position(|p| p == name).map(|i| i as Slot)
    }

    fn slot_of_capture(&self, name: &str) -> Option<Slot> {
        self.capture_names
            .iter()
            .position(|c| c == name)
            .map(|i| (self.param_names.len() + i) as Slot)
    }

    fn dma_slot(&self, idx: usize) -> Slot {
        (self.param_names.len() + self.capture_names.len() + idx) as Slot
    }

    /// Flatten a `SymExpr` tree into postfix ops; returns the range and
    /// tracks the worst-case stack depth.
    fn compile_expr(&mut self, expr: &SymExpr) -> Result<OpRange, CompileError> {
        let start = self.expr_ops.len();
        let depth = self.emit_expr(expr)?;
        self.max_value_stack = self.max_value_stack.max(depth);
        Ok(OpRange::of(start, self.expr_ops.len()))
    }

    fn emit_expr(&mut self, expr: &SymExpr) -> Result<usize, CompileError> {
        Ok(match expr {
            SymExpr::Const(c) => {
                self.expr_ops.push(ExprOp::Const(*c));
                1
            }
            SymExpr::Param(name) => {
                let slot = self
                    .slot_of_param(name)
                    .ok_or_else(|| CompileError::UnknownSymbol(format!("parameter `{name}`")))?;
                self.expr_ops.push(ExprOp::Slot(slot));
                1
            }
            SymExpr::Captured(name) => {
                let slot = self
                    .slot_of_capture(name)
                    .ok_or_else(|| CompileError::UnknownSymbol(format!("capture `{name}`")))?;
                self.expr_ops.push(ExprOp::Slot(slot));
                1
            }
            SymExpr::DmaBase(idx) => {
                if *idx >= self.num_dma as usize {
                    return Err(CompileError::UnknownSymbol(format!("dma[{idx}]")));
                }
                self.expr_ops.push(ExprOp::Slot(self.dma_slot(*idx)));
                1
            }
            SymExpr::And(a, b)
            | SymExpr::Or(a, b)
            | SymExpr::Xor(a, b)
            | SymExpr::Add(a, b)
            | SymExpr::Sub(a, b)
            | SymExpr::Mul(a, b) => {
                let da = self.emit_expr(a)?;
                let db = self.emit_expr(b)?;
                self.expr_ops.push(match expr {
                    SymExpr::And(..) => ExprOp::And,
                    SymExpr::Or(..) => ExprOp::Or,
                    SymExpr::Xor(..) => ExprOp::Xor,
                    SymExpr::Add(..) => ExprOp::Add,
                    SymExpr::Sub(..) => ExprOp::Sub,
                    SymExpr::Mul(..) => ExprOp::Mul,
                    _ => unreachable!(),
                });
                // Left operand stays on the stack while the right evaluates.
                da.max(1 + db)
            }
            SymExpr::Shl(a, n) => {
                let d = self.emit_expr(a)?;
                self.expr_ops.push(ExprOp::Shl(*n));
                d
            }
            SymExpr::Shr(a, n) => {
                let d = self.emit_expr(a)?;
                self.expr_ops.push(ExprOp::Shr(*n));
                d
            }
            SymExpr::Not(a) => {
                let d = self.emit_expr(a)?;
                self.expr_ops.push(ExprOp::Not);
                d
            }
        })
    }

    fn compile_cons(&mut self, cons: &Constraint) -> Result<OpRange, CompileError> {
        let start = self.cons_ops.len();
        let depth = self.emit_cons(cons)?;
        self.max_bool_stack = self.max_bool_stack.max(depth);
        Ok(OpRange::of(start, self.cons_ops.len()))
    }

    fn emit_cons(&mut self, cons: &Constraint) -> Result<usize, CompileError> {
        Ok(match cons {
            Constraint::Any => {
                self.cons_ops.push(ConsOp::True);
                1
            }
            Constraint::Eq(e) => {
                let r = self.compile_expr(e)?;
                self.cons_ops.push(ConsOp::Eq(r));
                1
            }
            Constraint::Ne(e) => {
                let r = self.compile_expr(e)?;
                self.cons_ops.push(ConsOp::Ne(r));
                1
            }
            Constraint::InRange { min, max } => {
                self.cons_ops.push(ConsOp::InRange { min: *min, max: *max });
                1
            }
            Constraint::OneOf(vals) => {
                let start = self.pool.len();
                self.pool.extend_from_slice(vals);
                self.cons_ops.push(ConsOp::OneOf(OpRange::of(start, self.pool.len())));
                1
            }
            Constraint::MaskEq { mask, expected } => {
                self.cons_ops.push(ConsOp::MaskEq { mask: *mask, expected: *expected });
                1
            }
            Constraint::MaskClear { mask } => {
                self.cons_ops.push(ConsOp::MaskClear { mask: *mask });
                1
            }
            Constraint::All(cs) | Constraint::AnyOf(cs) => {
                if cs.len() > u16::MAX as usize {
                    return Err(CompileError::TooLarge("constraint fan-in".into()));
                }
                let mut depth = 0usize;
                for (i, c) in cs.iter().enumerate() {
                    depth = depth.max(i + self.emit_cons(c)?);
                }
                self.cons_ops.push(match cons {
                    Constraint::All(_) => ConsOp::All(cs.len() as u16),
                    _ => ConsOp::AnyOf(cs.len() as u16),
                });
                depth.max(1)
            }
        })
    }

    fn compile_iface(&self, iface: &Iface, what: &str) -> Result<CIface, CompileError> {
        match iface {
            Iface::Reg { addr, .. } => Ok(CIface::Reg(*addr)),
            Iface::Shm { alloc, offset } => {
                Ok(CIface::Shm { alloc: *alloc as u32, offset: *offset })
            }
            Iface::Env(api) => Err(CompileError::EnvInterface(format!("{what} on env:{api:?}"))),
        }
    }

    fn compile_sink(&self, sink: &ReadSink) -> Result<CSink, CompileError> {
        Ok(match sink {
            ReadSink::Discard => CSink::Discard,
            ReadSink::Capture(name) => CSink::Capture(
                self.slot_of_capture(name)
                    .ok_or_else(|| CompileError::UnknownSymbol(format!("capture `{name}`")))?,
            ),
            ReadSink::UserData { offset } => CSink::UserData(*offset),
        })
    }

    fn push_op(
        &mut self,
        op: Op,
        src_index: usize,
        site: &SourceSite,
        desc: String,
        cons_desc: String,
    ) {
        self.ops.push(op);
        self.meta.push(OpMeta { src_index: src_index as u32, site: site.clone(), desc, cons_desc });
    }

    fn run(mut self) -> Result<ReplayProgram, CompileError> {
        if self.template.events.len() > u32::MAX as usize {
            return Err(CompileError::TooLarge("event count".into()));
        }
        let mut dma_seen = 0usize;
        // `self.template` is a shared reference; copy it out so iterating the
        // events does not pin a borrow of `self` across the `&mut self` calls.
        let template = self.template;
        for (idx, re) in template.events.iter().enumerate() {
            let (event, site, idx) = (&re.event, &re.site, &idx);
            let desc = event.describe();
            match event {
                Event::Read { iface, constraint, sink, .. } => {
                    let ci = self.compile_iface(iface, "read")?;
                    let cr = self.compile_cons(constraint)?;
                    let cs = self.compile_sink(sink)?;
                    let cd = constraint.describe();
                    self.push_op(Op::Read { iface: ci, cons: cr, sink: cs }, *idx, site, desc, cd);
                }
                Event::Write { iface, value } => {
                    let ci = self.compile_iface(iface, "write")?;
                    let vr = self.compile_expr(value)?;
                    self.push_op(
                        Op::Write { iface: ci, value: vr },
                        *idx,
                        site,
                        desc,
                        String::new(),
                    );
                }
                Event::DmaAlloc { len, .. } => {
                    let lr = self.compile_expr(len)?;
                    let slot = self.dma_slot(dma_seen);
                    dma_seen += 1;
                    self.push_op(Op::DmaAlloc { len: lr, slot }, *idx, site, desc, String::new());
                }
                Event::GetRandBytes { len, .. } => {
                    self.max_rand_len = self.max_rand_len.max(*len as usize);
                    self.push_op(Op::GetRandBytes { len: *len }, *idx, site, desc, String::new());
                }
                Event::GetTs { sink, .. } => {
                    let slot = match sink {
                        ReadSink::Capture(name) => self.slot_of_capture(name).ok_or_else(|| {
                            CompileError::UnknownSymbol(format!("capture `{name}`"))
                        })?,
                        _ => NO_SLOT,
                    };
                    self.push_op(Op::GetTs { slot }, *idx, site, desc, String::new());
                }
                Event::WaitForIrq { line, timeout_us } => {
                    self.push_op(
                        Op::WaitForIrq { line: *line, timeout_us: *timeout_us },
                        *idx,
                        site,
                        desc,
                        String::new(),
                    );
                }
                Event::Delay { us } => {
                    self.push_op(Op::Delay { us: *us }, *idx, site, desc, String::new());
                }
                Event::Poll { iface, body, cond, delay_us, max_iters } => {
                    let ci = self.compile_iface(iface, "poll")?;
                    let cr = self.compile_cons(cond)?;
                    // The interpreter only ever honoured `delay` events inside
                    // poll bodies; fold them into one per-iteration delay.
                    let body_us: u64 = body
                        .iter()
                        .map(|e| if let Event::Delay { us } = e { *us } else { 0 })
                        .sum();
                    let cd = cond.describe();
                    self.push_op(
                        Op::Poll {
                            iface: ci,
                            cons: cr,
                            iter_delay_us: body_us + (*delay_us).max(1),
                            max_iters: *max_iters,
                        },
                        *idx,
                        site,
                        desc,
                        cd,
                    );
                }
                Event::CopyUserToDma { alloc, offset, user_offset, len } => {
                    let lr = self.compile_expr(len)?;
                    self.push_op(
                        Op::CopyUserToDma {
                            alloc: *alloc as u32,
                            offset: *offset,
                            user_offset: *user_offset,
                            len: lr,
                        },
                        *idx,
                        site,
                        desc,
                        String::new(),
                    );
                }
                Event::CopyDmaToUser { alloc, offset, user_offset, len } => {
                    let lr = self.compile_expr(len)?;
                    self.push_op(
                        Op::CopyDmaToUser {
                            alloc: *alloc as u32,
                            offset: *offset,
                            user_offset: *user_offset,
                            len: lr,
                        },
                        *idx,
                        site,
                        desc,
                        String::new(),
                    );
                }
            }
        }

        // Compile the parameter-selection checks last: they may reference
        // other parameters (e.g. `Eq(Param(..))`) but share the same pools.
        let mut param_checks = Vec::with_capacity(template.params.len());
        for (i, p) in template.params.iter().enumerate() {
            let cons = self.compile_cons(&p.constraint)?;
            param_checks.push(ParamCheck {
                slot: i as Slot,
                cons,
                constraining: p.constraint.is_constraining(),
            });
        }

        Ok(ReplayProgram {
            name: self.template.name.clone(),
            device: self.template.device.clone(),
            param_names: self.param_names,
            capture_names: self.capture_names,
            num_dma: self.num_dma,
            param_checks,
            ops: self.ops,
            expr_ops: self.expr_ops,
            cons_ops: self.cons_ops,
            pool: self.pool,
            max_value_stack: self.max_value_stack.max(1),
            max_bool_stack: self.max_bool_stack.max(1),
            max_rand_len: self.max_rand_len,
            meta: self.meta,
        })
    }
}

/// Collect capture names in first-definition order, including sinks inside
/// poll bodies (never executed, but validation accepts them; the slots simply
/// stay unbound at run time, exactly like the tree-walking interpreter).
fn collect_captures<'a>(events: impl Iterator<Item = &'a Event>, out: &mut Vec<String>) {
    for e in events {
        match e {
            Event::Read { sink: ReadSink::Capture(name), .. }
            | Event::GetRandBytes { sink: ReadSink::Capture(name), .. }
            | Event::GetTs { sink: ReadSink::Capture(name), .. }
                if !out.contains(name) =>
            {
                out.push(name.clone());
            }
            Event::Poll { body, .. } => collect_captures(body.iter(), out),
            _ => {}
        }
    }
}

/// Lower a vetted template into its flat replay program.
///
/// The template should already have passed [`Template::validate`]; compilation
/// re-checks symbol resolution as a defence in depth and additionally rejects
/// templates that read/write environment interfaces (which the replayer could
/// never execute).
pub fn compile(template: &Template) -> Result<ReplayProgram, CompileError> {
    let param_names: Vec<String> = template.params.iter().map(|p| p.name.clone()).collect();
    let mut capture_names = Vec::new();
    collect_captures(template.events.iter().map(|re| &re.event), &mut capture_names);
    let num_dma = template.dma_plan().len();
    if param_names.len() + capture_names.len() + num_dma >= NO_SLOT as usize {
        return Err(CompileError::TooLarge("register file".into()));
    }
    let compiler = Compiler {
        template,
        param_names,
        capture_names,
        num_dma: num_dma as u32,
        ops: Vec::new(),
        expr_ops: Vec::new(),
        cons_ops: Vec::new(),
        pool: Vec::new(),
        max_value_stack: 0,
        max_bool_stack: 0,
        max_rand_len: 0,
        meta: Vec::new(),
    };
    compiler.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DataDirection, DmaRole, RecordedEvent};
    use crate::template::{ParamSpec, TemplateMeta};

    fn reg(name: &str, addr: u64) -> Iface {
        Iface::Reg { addr, name: name.to_string() }
    }

    fn mini_template() -> Template {
        Template {
            name: "mini".into(),
            entry: "replay_mini".into(),
            device: "dev".into(),
            params: vec![
                ParamSpec { name: "rw".into(), constraint: Constraint::eq_const(1) },
                ParamSpec {
                    name: "blkcnt".into(),
                    constraint: Constraint::InRange { min: 1, max: 8 },
                },
            ],
            direction: DataDirection::UserToDevice,
            data_len: SymExpr::Param("blkcnt".into()).shl(9),
            irq_line: None,
            events: vec![
                RecordedEvent::bare(Event::DmaAlloc {
                    len: SymExpr::Const(4096),
                    role: DmaRole::DataOut,
                }),
                RecordedEvent::bare(Event::Write {
                    iface: reg("ARG", 0x100),
                    value: SymExpr::Param("blkcnt".into()).shl(9).or_const(0x8000),
                }),
                RecordedEvent::bare(Event::Read {
                    iface: reg("STS", 0x104),
                    constraint: Constraint::All(vec![
                        Constraint::MaskClear { mask: 0x1 },
                        Constraint::InRange { min: 0, max: 0xffff },
                    ]),
                    len: 4,
                    sink: ReadSink::Capture("sts".into()),
                }),
                RecordedEvent::bare(Event::Write {
                    iface: reg("ECHO", 0x108),
                    value: SymExpr::Captured("sts".into()).plus(1),
                }),
                RecordedEvent::bare(Event::Poll {
                    iface: reg("BUSY", 0x10c),
                    body: vec![Event::Delay { us: 3 }],
                    cond: Constraint::MaskClear { mask: 0x8000 },
                    delay_us: 7,
                    max_iters: 100,
                }),
            ],
            meta: TemplateMeta::default(),
        }
    }

    #[test]
    fn compiles_slots_and_ops() {
        let prog = compile(&mini_template()).unwrap();
        assert_eq!(prog.param_names, vec!["rw".to_string(), "blkcnt".to_string()]);
        assert_eq!(prog.capture_names, vec!["sts".to_string()]);
        assert_eq!(prog.num_dma, 1);
        assert_eq!(prog.num_slots(), 4);
        assert_eq!(prog.ops.len(), 5);
        // Poll body delay folded: 3 (body) + 7 (delay_us) per iteration.
        assert!(matches!(prog.ops[4], Op::Poll { iter_delay_us: 10, max_iters: 100, .. }));
        assert_eq!(prog.meta[4].src_index, 4);
        assert!(prog.meta[4].cons_desc.contains("0x8000"));
    }

    #[test]
    fn expr_eval_matches_tree_walk() {
        let t = mini_template();
        let prog = compile(&t).unwrap();
        let mut regs = vec![0u64; prog.num_slots()];
        let mut bound = vec![false; prog.num_slots()];
        let args: HashMap<String, u64> =
            [("rw".to_string(), 1u64), ("blkcnt".to_string(), 4)].into_iter().collect();
        prog.bind_args(&args, &mut regs, &mut bound);
        let mut scratch = EvalScratch::default();
        // Op 1 is the parameterised write: (blkcnt << 9) | 0x8000.
        let Op::Write { value, .. } = prog.ops[1] else { panic!("expected write") };
        assert_eq!(prog.eval_expr(value, &regs, &bound, &mut scratch), Some((4 << 9) | 0x8000));
        // The capture is unbound until executed.
        let Op::Write { value, .. } = prog.ops[3] else { panic!("expected write") };
        assert_eq!(prog.eval_expr(value, &regs, &bound, &mut scratch), None);
        // Bind the capture slot and re-evaluate.
        let cap_slot = prog.param_names.len();
        regs[cap_slot] = 41;
        bound[cap_slot] = true;
        assert_eq!(prog.eval_expr(value, &regs, &bound, &mut scratch), Some(42));
    }

    #[test]
    fn compiled_constraints_match_tree_walk() {
        let t = mini_template();
        let prog = compile(&t).unwrap();
        let regs = vec![0u64; prog.num_slots()];
        let bound = vec![true; prog.num_slots()];
        let mut scratch = EvalScratch::default();
        let Op::Read { cons, .. } = prog.ops[2] else { panic!("expected read") };
        // All([MaskClear(1), InRange(0..=0xffff)]).
        assert!(prog.check_cons(cons, 0x10, &regs, &bound, &mut scratch));
        assert!(!prog.check_cons(cons, 0x11, &regs, &bound, &mut scratch), "mask bit set");
        assert!(!prog.check_cons(cons, 0x1_0000, &regs, &bound, &mut scratch), "out of range");
    }

    #[test]
    fn compiled_matches_agrees_with_template_matches() {
        let t = mini_template();
        let prog = compile(&t).unwrap();
        let mut regs = vec![0u64; prog.num_slots()];
        let mut bound = vec![false; prog.num_slots()];
        let mut scratch = EvalScratch::default();
        for (rw, blkcnt) in [(1u64, 4u64), (1, 9), (0, 4), (1, 1), (2, 8)] {
            let args: HashMap<String, u64> =
                [("rw".to_string(), rw), ("blkcnt".to_string(), blkcnt)].into_iter().collect();
            prog.bind_args(&args, &mut regs, &mut bound);
            assert_eq!(
                prog.matches_regs(&regs, &bound, &mut scratch),
                t.matches(&args),
                "disagreement at rw={rw} blkcnt={blkcnt}"
            );
        }
    }

    #[test]
    fn env_interfaces_are_rejected_at_compile_time() {
        let mut t = mini_template();
        t.events.push(RecordedEvent::bare(Event::Read {
            iface: Iface::Env(crate::event::EnvApi::GetTs),
            constraint: Constraint::Any,
            len: 4,
            sink: ReadSink::Discard,
        }));
        assert!(matches!(compile(&t), Err(CompileError::EnvInterface(_))));
    }

    #[test]
    fn unknown_symbols_are_rejected() {
        let mut t = mini_template();
        t.events.push(RecordedEvent::bare(Event::Write {
            iface: reg("X", 0x110),
            value: SymExpr::Param("ghost".into()),
        }));
        assert!(matches!(compile(&t), Err(CompileError::UnknownSymbol(_))));
    }

    #[test]
    fn scratch_reservation_grows_across_programs() {
        // Regression: reserving for a small program first must not cap the
        // scratch below a later, deeper program's needs (`Vec::reserve` is
        // relative to the length, not the capacity).
        let small = compile(&mini_template()).unwrap();
        let mut deep = mini_template();
        // Right-nested additions: depth grows linearly with the chain.
        let expr = (0..12).fold(SymExpr::Const(1), |acc, i| {
            SymExpr::Add(Box::new(SymExpr::Const(i)), Box::new(acc))
        });
        deep.events
            .push(RecordedEvent::bare(Event::Write { iface: reg("DEEP", 0x110), value: expr }));
        let big = compile(&deep).unwrap();
        assert!(big.max_value_stack > small.max_value_stack);
        let mut s = EvalScratch::default();
        s.reserve_for(&small);
        s.reserve_for(&big);
        assert!(s.values.capacity() >= big.max_value_stack);
        assert!(s.bools.capacity() >= big.max_bool_stack);
    }

    #[test]
    fn oneof_constants_are_pooled() {
        let mut t = mini_template();
        t.params.push(ParamSpec {
            name: "res".into(),
            constraint: Constraint::OneOf(vec![720, 1080, 1440]),
        });
        let prog = compile(&t).unwrap();
        assert!(prog.pool.len() >= 3);
        let mut regs = vec![0u64; prog.num_slots()];
        let mut bound = vec![false; prog.num_slots()];
        let mut scratch = EvalScratch::default();
        let args: HashMap<String, u64> =
            [("rw".to_string(), 1u64), ("blkcnt".to_string(), 4), ("res".to_string(), 1080)]
                .into_iter()
                .collect();
        prog.bind_args(&args, &mut regs, &mut bound);
        assert!(prog.matches_regs(&regs, &bound, &mut scratch));
        regs[2] = 999; // res slot
        assert!(!prog.matches_regs(&regs, &bound, &mut scratch));
    }
}
