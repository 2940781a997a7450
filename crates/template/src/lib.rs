//! # dlt-template — the interaction-template intermediate representation
//!
//! This crate defines the artefact the paper's recorder produces and the
//! replayer consumes: the **interaction template** (§4.1) and the signed
//! bundle of templates that constitutes a **driverlet**.
//!
//! A template is a linear sequence of events in the vocabulary of Table 1:
//!
//! | kind   | events |
//! |--------|--------|
//! | input  | `read(I, C, A)`, `dma_alloc(A)`, `get_rand_bytes(A)`, `get_ts(A)`, `wait_for_irq(A)` |
//! | output | `write(I, V)` |
//! | meta   | `delay(A)`, `poll(I, E, Cond)` |
//!
//! Inputs carry [`constraint::Constraint`]s (the path conditions the recorder
//! discovered); output values are [`expr::SymExpr`]s over the replay-entry
//! parameters, earlier captured inputs and DMA base addresses (the taint
//! sinks of Tables 4 and 6). The bundle serialises two ways: to the
//! human-readable JSON document the paper's recorder emits for review
//! (§8.3.4), and to the compact varint/string-table [`codec`] binary used
//! for deployment, which the developer signature binds (§5).
//!
//! For execution, [`program`] lowers a vetted template into a flat
//! [`program::ReplayProgram`] — interned slots, postfix expression ops, and
//! pre-resolved interfaces — which the replayer runs with zero heap
//! allocation on the divergence-free path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod constraint;
pub mod event;
pub mod expr;
pub mod introspect;
pub mod package;
pub mod program;
pub mod template;

pub use constraint::Constraint;
pub use event::{
    DataDirection, DmaRole, EnvApi, Event, Iface, ReadSink, RecordedEvent, SourceSite,
};
pub use expr::{EvalEnv, SymExpr};
pub use introspect::{ConstraintSite, SiteKind, Violation};
pub use package::{CoverageReport, Driverlet, SignError, Signature};
pub use program::{compile, CompileError, EvalScratch, Op, OpMeta, ReplayProgram};
pub use template::{DmaSpec, EventBreakdown, ParamSpec, Template, TemplateMeta, MAX_POLL_ITERS};
