//! The interaction template: a callable, parameterised recording.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::constraint::Constraint;
use crate::event::{DataDirection, DmaRole, Event, EventKind, Iface, ReadSink, RecordedEvent};
use crate::expr::{EvalEnv, SymExpr};

/// The largest iteration bound a template's `Poll` may carry. A poll whose
/// condition the device never meets runs to its bound, so without a cap a
/// validly signed template could hang the replayer; the recorder bounds
/// each poll at eight times its observed iterations plus 64, far below
/// this.
pub const MAX_POLL_ITERS: u64 = 1 << 20;

/// A replay-entry parameter and the constraint the recorder derived for it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamSpec {
    /// Parameter name (e.g. `blkcnt`).
    pub name: String,
    /// Constraint the supplied value must satisfy for this template to be
    /// selectable (the path condition of the recorded run).
    pub constraint: Constraint,
}

/// A DMA allocation the template performs, in event order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmaSpec {
    /// Allocation size expression.
    pub len: SymExpr,
    /// Role of the allocation.
    pub role: DmaRole,
}

/// Record-time metadata.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TemplateMeta {
    /// The concrete sample input the template was recorded with.
    pub recorded_with: HashMap<String, u64>,
    /// Free-form notes from the recorder (merged runs, quirks observed, ...).
    pub notes: String,
}

/// Per-kind event counts (the rows of Tables 3 and 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct EventBreakdown {
    /// Number of input events.
    pub input: usize,
    /// Number of output events.
    pub output: usize,
    /// Number of meta events.
    pub meta: usize,
}

impl EventBreakdown {
    /// Total number of events.
    pub fn total(&self) -> usize {
        self.input + self.output + self.meta
    }
}

/// An interaction template.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Template {
    /// Template name, e.g. `mmc_rd_32`.
    pub name: String,
    /// Replay entry this template serves, e.g. `replay_mmc`.
    pub entry: String,
    /// Device the template drives (bus device name, e.g. `sdhost`).
    pub device: String,
    /// Parameters and their selection constraints.
    pub params: Vec<ParamSpec>,
    /// Direction of the IO payload.
    pub direction: DataDirection,
    /// Number of payload bytes the template moves (symbolic, e.g.
    /// `blkcnt * 512`), or `Const(0)`.
    pub data_len: SymExpr,
    /// Interrupt line the template waits on, if any.
    pub irq_line: Option<u32>,
    /// The recorded event sequence.
    pub events: Vec<RecordedEvent>,
    /// Record-time metadata.
    pub meta: TemplateMeta,
}

impl Template {
    /// Whether the supplied arguments satisfy every parameter constraint.
    pub fn matches(&self, args: &HashMap<String, u64>) -> bool {
        let env = EvalEnv::with_params(args.clone());
        self.params.iter().all(|p| match args.get(&p.name) {
            Some(v) => p.constraint.check(*v, &env),
            None => !p.constraint.is_constraining(),
        })
    }

    /// Event breakdown in the paper's input/output/meta taxonomy. Events
    /// inside poll bodies are counted individually in their own categories,
    /// with the poll itself counted as one meta event.
    pub fn breakdown(&self) -> EventBreakdown {
        fn walk(events: &[RecordedEvent], b: &mut EventBreakdown) {
            for re in events {
                match &re.event {
                    Event::Poll { body, .. } => {
                        b.meta += 1;
                        let wrapped: Vec<RecordedEvent> =
                            body.iter().cloned().map(RecordedEvent::bare).collect();
                        walk(&wrapped, b);
                    }
                    e => match e.kind() {
                        EventKind::Input => b.input += 1,
                        EventKind::Output => b.output += 1,
                        EventKind::Meta => b.meta += 1,
                    },
                }
            }
        }
        let mut b = EventBreakdown::default();
        walk(&self.events, &mut b);
        b
    }

    /// The DMA allocations the template performs, in order.
    pub fn dma_plan(&self) -> Vec<DmaSpec> {
        self.events
            .iter()
            .filter_map(|re| match &re.event {
                Event::DmaAlloc { len, role } => Some(DmaSpec { len: len.clone(), role: *role }),
                _ => None,
            })
            .collect()
    }

    /// Number of state-changing events (§3.1).
    pub fn state_changing_count(&self) -> usize {
        self.events.iter().filter(|re| re.event.is_state_changing()).count()
    }

    /// Registers touched by the template (unique absolute addresses).
    pub fn registers_touched(&self) -> Vec<u64> {
        fn collect(events: &[Event], out: &mut Vec<u64>) {
            for e in events {
                match e {
                    Event::Read { iface: Iface::Reg { addr, .. }, .. }
                    | Event::Write { iface: Iface::Reg { addr, .. }, .. }
                    | Event::Poll { iface: Iface::Reg { addr, .. }, .. } => out.push(*addr),
                    Event::Poll { body, .. } => collect(body, out),
                    _ => {}
                }
                if let Event::Poll { body, iface, .. } = e {
                    if matches!(iface, Iface::Reg { .. }) {
                        // already pushed above
                    }
                    collect(body, out);
                }
            }
        }
        let mut out = Vec::new();
        let events: Vec<Event> = self.events.iter().map(|re| re.event.clone()).collect();
        collect(&events, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Static vetting of the template (the paper's §8.2.1 "statically vetting
    /// of templates" validation): every referenced parameter is declared,
    /// every shared-memory access refers to a DMA allocation the template
    /// actually makes, every captured value is produced before it is used,
    /// and no poll is bounded above [`MAX_POLL_ITERS`].
    pub fn validate(&self) -> Result<(), String> {
        let declared: Vec<&str> = self.params.iter().map(|p| p.name.as_str()).collect();
        let num_allocs = self.dma_plan().len();
        let mut captures: Vec<String> = Vec::new();

        let mut check_expr = |expr: &SymExpr, captures: &Vec<String>| -> Result<(), String> {
            for p in expr.referenced_params() {
                if !declared.contains(&p.as_str()) {
                    return Err(format!("expression references undeclared parameter `{p}`"));
                }
            }
            // Captured and DmaBase references checked structurally below via
            // a conservative re-walk.
            let _ = captures;
            Ok(())
        };

        type ExprCheck<'c> = dyn FnMut(&SymExpr, &Vec<String>) -> Result<(), String> + 'c;
        fn walk_events(
            events: &[Event],
            num_allocs: usize,
            captures: &mut Vec<String>,
            check_expr: &mut ExprCheck<'_>,
        ) -> Result<(), String> {
            for e in events {
                match e {
                    Event::Read { iface, constraint, sink, .. } => {
                        if let Iface::Shm { alloc, .. } = iface {
                            if *alloc >= num_allocs {
                                return Err(format!(
                                    "read references dma[{alloc}] but template only allocates {num_allocs}"
                                ));
                            }
                        }
                        if let Constraint::Eq(expr) | Constraint::Ne(expr) = constraint {
                            check_expr(expr, captures)?;
                        }
                        if let ReadSink::Capture(name) = sink {
                            captures.push(name.clone());
                        }
                    }
                    Event::Write { iface, value } => {
                        if let Iface::Shm { alloc, .. } = iface {
                            if *alloc >= num_allocs {
                                return Err(format!(
                                    "write references dma[{alloc}] but template only allocates {num_allocs}"
                                ));
                            }
                        }
                        check_expr(value, captures)?;
                    }
                    Event::CopyUserToDma { alloc, len, .. }
                    | Event::CopyDmaToUser { alloc, len, .. } => {
                        if *alloc >= num_allocs {
                            return Err(format!(
                                "data copy references dma[{alloc}] but template only allocates {num_allocs}"
                            ));
                        }
                        check_expr(len, captures)?;
                    }
                    Event::DmaAlloc { len, .. } => check_expr(len, captures)?,
                    Event::GetRandBytes { sink, .. } | Event::GetTs { sink, .. } => {
                        if let ReadSink::Capture(name) = sink {
                            captures.push(name.clone());
                        }
                    }
                    Event::Poll { body, cond, max_iters, .. } => {
                        if *max_iters > MAX_POLL_ITERS {
                            return Err(format!(
                                "poll bound of {max_iters} iterations exceeds the \
                                 {MAX_POLL_ITERS}-iteration limit"
                            ));
                        }
                        if let Constraint::Eq(expr) | Constraint::Ne(expr) = cond {
                            check_expr(expr, captures)?;
                        }
                        walk_events(body, num_allocs, captures, check_expr)?;
                    }
                    Event::WaitForIrq { .. } | Event::Delay { .. } => {}
                }
            }
            Ok(())
        }

        let events: Vec<Event> = self.events.iter().map(|re| re.event.clone()).collect();
        walk_events(&events, num_allocs, &mut captures, &mut check_expr)?;

        // Re-walk expressions to check Captured references resolve to a
        // capture that exists *somewhere* in the template (exact ordering is
        // enforced dynamically by the replayer).
        fn exprs_of(e: &Event, out: &mut Vec<SymExpr>) {
            match e {
                Event::Write { value, .. } => out.push(value.clone()),
                Event::Read { constraint: Constraint::Eq(x) | Constraint::Ne(x), .. } => {
                    out.push(x.clone());
                }
                Event::DmaAlloc { len, .. }
                | Event::CopyUserToDma { len, .. }
                | Event::CopyDmaToUser { len, .. } => out.push(len.clone()),
                Event::Poll { body, cond, .. } => {
                    if let Constraint::Eq(x) | Constraint::Ne(x) = cond {
                        out.push(x.clone());
                    }
                    for b in body {
                        exprs_of(b, out);
                    }
                }
                _ => {}
            }
        }
        let mut all_exprs = Vec::new();
        for e in &events {
            exprs_of(e, &mut all_exprs);
        }
        for expr in &all_exprs {
            let mut stack = vec![expr.clone()];
            while let Some(x) = stack.pop() {
                match x {
                    SymExpr::Captured(name) if !captures.contains(&name) => {
                        return Err(format!("expression references unknown capture `{name}`"));
                    }
                    SymExpr::DmaBase(i) if i >= num_allocs => {
                        return Err(format!(
                                "expression references dma[{i}] but template only allocates {num_allocs}"
                            ));
                    }
                    SymExpr::And(a, b)
                    | SymExpr::Or(a, b)
                    | SymExpr::Xor(a, b)
                    | SymExpr::Add(a, b)
                    | SymExpr::Sub(a, b)
                    | SymExpr::Mul(a, b) => {
                        stack.push(*a);
                        stack.push(*b);
                    }
                    SymExpr::Shl(a, _) | SymExpr::Shr(a, _) | SymExpr::Not(a) => stack.push(*a),
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SourceSite;

    fn reg(name: &str, addr: u64) -> Iface {
        Iface::Reg { addr, name: name.to_string() }
    }

    /// A miniature but structurally faithful MMC write template.
    fn sample_template() -> Template {
        Template {
            name: "mmc_wr_1".into(),
            entry: "replay_mmc".into(),
            device: "sdhost".into(),
            params: vec![
                ParamSpec { name: "rw".into(), constraint: Constraint::eq_const(1) },
                ParamSpec {
                    name: "blkcnt".into(),
                    constraint: Constraint::InRange { min: 1, max: 8 },
                },
                ParamSpec {
                    name: "blkid".into(),
                    constraint: Constraint::InRange { min: 0, max: 0x1df_77f8 },
                },
            ],
            direction: DataDirection::UserToDevice,
            data_len: SymExpr::Param("blkcnt".into()).shl(9),
            irq_line: Some(56),
            events: vec![
                RecordedEvent::new(
                    Event::DmaAlloc { len: SymExpr::Const(4096), role: DmaRole::DataOut },
                    SourceSite::new("bcm2835-sdhost.c", 500),
                ),
                RecordedEvent::bare(Event::CopyUserToDma {
                    alloc: 0,
                    offset: 0,
                    user_offset: 0,
                    len: SymExpr::Param("blkcnt".into()).shl(9),
                }),
                RecordedEvent::new(
                    Event::Write {
                        iface: reg("SDHBLC", 0x3f20_2050),
                        value: SymExpr::Param("blkcnt".into()),
                    },
                    SourceSite::new("bcm2835-sdhost.c", 610),
                ),
                RecordedEvent::new(
                    Event::Write {
                        iface: reg("SDARG", 0x3f20_2004),
                        value: SymExpr::Param("blkid".into()).masked(!0x7u64),
                    },
                    SourceSite::new("bcm2835-sdhost.c", 612),
                ),
                RecordedEvent::bare(Event::Poll {
                    iface: reg("SDCMD", 0x3f20_2000),
                    body: vec![Event::Delay { us: 10 }],
                    cond: Constraint::MaskClear { mask: 0x8000 },
                    delay_us: 10,
                    max_iters: 1000,
                }),
                RecordedEvent::bare(Event::WaitForIrq { line: 56, timeout_us: 500_000 }),
                RecordedEvent::bare(Event::Read {
                    iface: reg("SDHSTS", 0x3f20_2020),
                    constraint: Constraint::MaskEq { mask: 0x400, expected: 0x400 },
                    len: 4,
                    sink: ReadSink::Discard,
                }),
                RecordedEvent::bare(Event::Write {
                    iface: reg("SDHSTS", 0x3f20_2020),
                    value: SymExpr::Const(0x400),
                }),
            ],
            meta: TemplateMeta {
                recorded_with: [("blkcnt".to_string(), 1u64)].into_iter().collect(),
                notes: String::new(),
            },
        }
    }

    #[test]
    fn matching_respects_constraints() {
        let t = sample_template();
        let mut args: HashMap<String, u64> =
            [("rw", 1u64), ("blkcnt", 4), ("blkid", 42)].map(|(k, v)| (k.to_string(), v)).into();
        assert!(t.matches(&args));
        args.insert("blkcnt".into(), 32);
        assert!(!t.matches(&args), "blkcnt out of this template's path condition");
        args.insert("blkcnt".into(), 4);
        args.insert("rw".into(), 0);
        assert!(!t.matches(&args), "a write template does not match a read request");
    }

    #[test]
    fn breakdown_counts_inputs_outputs_meta() {
        let t = sample_template();
        let b = t.breakdown();
        // Inputs: DmaAlloc, WaitForIrq, Read = 3. Outputs: CopyUserToDma + 4
        // writes... (3 writes) = 4. Meta: Poll + inner Delay = 2.
        assert_eq!(b.input, 3);
        assert_eq!(b.output, 4);
        assert_eq!(b.meta, 2);
        assert_eq!(b.total(), 9);
    }

    #[test]
    fn dma_plan_and_registers() {
        let t = sample_template();
        let plan = t.dma_plan();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].role, DmaRole::DataOut);
        let regs = t.registers_touched();
        assert!(regs.contains(&0x3f20_2050));
        assert!(regs.contains(&0x3f20_2000));
        assert!(t.state_changing_count() >= 6);
    }

    #[test]
    fn validation_accepts_the_sample() {
        assert!(sample_template().validate().is_ok());
    }

    #[test]
    fn validation_rejects_undeclared_parameters() {
        let mut t = sample_template();
        t.events.push(RecordedEvent::bare(Event::Write {
            iface: reg("SDARG", 0x3f20_2004),
            value: SymExpr::Param("ghost".into()),
        }));
        let err = t.validate().unwrap_err();
        assert!(err.contains("ghost"));
    }

    #[test]
    fn validation_rejects_out_of_range_dma_references() {
        let mut t = sample_template();
        t.events.push(RecordedEvent::bare(Event::Write {
            iface: Iface::Shm { alloc: 7, offset: 0 },
            value: SymExpr::Const(1),
        }));
        assert!(t.validate().is_err());
        let mut t = sample_template();
        t.events.push(RecordedEvent::bare(Event::Write {
            iface: reg("SDARG", 4),
            value: SymExpr::DmaBase(9),
        }));
        assert!(t.validate().is_err());
    }

    #[test]
    fn validation_rejects_unknown_captures() {
        let mut t = sample_template();
        t.events.push(RecordedEvent::bare(Event::Write {
            iface: reg("SDARG", 4),
            value: SymExpr::Captured("never_captured".into()),
        }));
        let err = t.validate().unwrap_err();
        assert!(err.contains("never_captured"));
    }

    #[test]
    fn serde_round_trip_preserves_everything() {
        let t = sample_template();
        let json = serde_json::to_string_pretty(&t).unwrap();
        let back: Template = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        assert!(json.contains("SDARG"), "emitted document is human readable");
    }
}
