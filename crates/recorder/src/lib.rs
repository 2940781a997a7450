//! # dlt-recorder — the record half of the driverlet toolkit
//!
//! The paper's recorder instruments QEMU's dynamic binary translation with
//! S2E to (a) log every driver/device interaction, (b) discover which input
//! values change the device's state-transition path (selective symbolic
//! execution), and (c) discover how output values derive from earlier inputs
//! (dynamic taint tracking), plus a static pass that lifts polling loops into
//! meta events (§4, §6.1).
//!
//! No DBT or symbolic-execution engine is available in this reproduction, so
//! the same three questions are answered observationally — the substitution
//! DESIGN.md documents:
//!
//! * [`trace::TracingIo`] interposes on the gold drivers' kernel-environment
//!   interface and logs every register access, shared-memory access, DMA
//!   allocation, interrupt wait, delay and payload copy (the DBT substitute).
//! * [`analyze`] performs **differential concolic analysis**: the same record
//!   entry is executed several times with perturbed parameters and a skewed
//!   DMA allocator; aligning the traces reveals which values are constant
//!   (→ constraints), which follow a parameter or an earlier device-produced
//!   value (→ taint expressions / captures), and which are payload
//!   (→ user-data sinks). Runs that change the *shape* of the trace mark
//!   path boundaries and become parameter constraints.
//! * [`analyze::fold_adhoc_loops`] folds ad-hoc polling loops in a raw trace
//!   into `poll` meta events; `readl_poll`-style helpers are recorded as poll
//!   events directly (the static-loop-analysis substitute).
//! * [`campaign`] packages record campaigns for the three devices (MMC, USB
//!   mass storage, VCHIQ camera) into signed [`dlt_template::Driverlet`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod campaign;
pub mod trace;

pub use analyze::{synthesize_template, RecordRun, TemplateSpec};
pub use campaign::{record_camera_driverlet, record_mmc_driverlet, record_usb_driverlet, DEV_KEY};
pub use trace::{Trace, TraceOp, TracingIo};

/// Errors produced by the recording toolkit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecorderError {
    /// A gold-driver run failed while recording.
    DriverFailed(String),
    /// Perturbed runs could not be aligned with the base run.
    Misaligned(String),
    /// Expression synthesis failed for a value that must be generalised.
    Unsynthesizable(String),
    /// The generated template failed static vetting.
    Invalid(String),
}

impl std::fmt::Display for RecorderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecorderError::DriverFailed(s) => write!(f, "gold driver failed during recording: {s}"),
            RecorderError::Misaligned(s) => write!(f, "trace alignment failed: {s}"),
            RecorderError::Unsynthesizable(s) => write!(f, "cannot synthesize expression: {s}"),
            RecorderError::Invalid(s) => write!(f, "generated template invalid: {s}"),
        }
    }
}

impl std::error::Error for RecorderError {}
