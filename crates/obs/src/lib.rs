//! # dlt-obs — the observability plane under the driverlet service
//!
//! The paper's driverlet argument is ultimately a performance argument:
//! world-switch counts, replay dispatch cost and poll delays decide
//! whether a minimum viable driver is viable. This crate is the layer
//! that makes those costs visible on a *live* service instead of only in
//! post-hoc bench JSON. It has two planes:
//!
//! * **Plane 1 — the flight recorder** ([`trace`]): every lane thread
//!   (and the service front-end) writes fixed-size binary
//!   [`trace::TraceEvent`]s into its own lock-free SPSC ring ([`spsc`] —
//!   the same Lamport core the serve layer's shared-memory rings run on),
//!   stamped with **both** the lane's virtual clock and host monotonic
//!   time. A collector drains the rings into a bounded flight buffer and
//!   exports Chrome `trace_event` JSON (lane threads render as timeline
//!   tracks in `chrome://tracing`/Perfetto) plus per-request span
//!   reconstruction (submit → admit → queue → replay → complete, with
//!   per-phase durations). Overflow is a counted drop, never a block and
//!   never a panic: tracing must not perturb the lane it observes.
//! * **Plane 2 — the metrics registry** ([`metrics`]): atomic
//!   counters/gauges plus fixed-bucket log₂ latency histograms — no
//!   allocation, no locks on the hot path — keyed by lane, device,
//!   session and SMC kind, with a JSON-exportable
//!   [`metrics::MetricsSnapshot`].
//!
//! The registry's counters and gauges are always on: they are the serve
//! layer's only counters. [`ObsConfig`] switches the rest: `Off` records
//! no histograms and installs no trace handles (instrumentation points are
//! wrapped in [`obs_event!`], which compiles to a single `Option` check),
//! `MetricsOnly` adds the histograms, and `Full` adds the flight
//! recorder.

// `deny`, not `forbid`: the lock-free SPSC core in [`spsc`] is the one
// carefully argued exception and scopes its own `#![allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod spsc;
pub mod trace;

pub use metrics::{
    HistogramSnapshot, LaneMetrics, LaneSnapshot, MetricsRegistry, MetricsSnapshot,
    RobustnessMetrics, RobustnessSnapshot, SessionSnapshot, SmcMetrics, LANE_STATE_HEALTHY,
    LANE_STATE_PROBATION, LANE_STATE_QUARANTINED,
};
pub use trace::{
    chrome_trace_json, reconstruct_spans, EventKind, Recorder, RequestSpan, SmcKind, TraceEvent,
    TraceHandle,
};

/// How much observability the service threads through its hot paths, on
/// top of the always-on counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsConfig {
    /// Counters and gauges only: no histograms, no recorder — every trace
    /// point is a `None` check.
    #[default]
    Off,
    /// Counters plus the latency and batch-size histograms; the flight
    /// recorder stays off (no trace handles are installed).
    MetricsOnly,
    /// Histograms plus the flight recorder: every lane thread traces into
    /// its own ring.
    Full,
}

impl ObsConfig {
    /// Whether the registry's histograms record.
    pub fn histograms_enabled(self) -> bool {
        !matches!(self, ObsConfig::Off)
    }

    /// Whether trace handles are installed.
    pub fn tracing_enabled(self) -> bool {
        matches!(self, ObsConfig::Full)
    }

    /// Parse the `DLT_OBS` environment override used by CI to rerun the
    /// serve suites under `Full` without code changes: `off`, `metrics`,
    /// `full` (anything else → `None`).
    pub fn from_env_str(s: &str) -> Option<ObsConfig> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Some(ObsConfig::Off),
            "metrics" | "metricsonly" | "metrics-only" => Some(ObsConfig::MetricsOnly),
            "full" => Some(ObsConfig::Full),
            _ => None,
        }
    }
}

/// Emit one trace event through an `Option<TraceHandle>`-typed slot.
///
/// The macro is the instrumentation point the serve/core/tee hot paths
/// use: when observability is [`ObsConfig::Off`] (or `MetricsOnly`) the
/// slot is `None` and the expansion is a single branch — none of the
/// stamp arguments are evaluated.
///
/// ```
/// use dlt_obs::{obs_event, EventKind, Recorder};
///
/// let recorder = Recorder::new(16, 64);
/// let mut handle = recorder.register("lane-0", 1);
/// obs_event!(handle, EventKind::Dispatched, 1_000, 7, 42, 0);
/// assert_eq!(recorder.drain().len(), 1);
/// ```
#[macro_export]
macro_rules! obs_event {
    ($handle:expr, $kind:expr, $virt_ns:expr, $session:expr, $request:expr, $arg:expr) => {
        if let Some(h) = ($handle).as_mut() {
            h.emit($kind, $virt_ns, $session, $request, $arg);
        }
    };
}

/// [`obs_event!`] with a caller-supplied host stamp ([`trace::TraceHandle::emit_at`]).
///
/// The clock read is the most expensive part of an emit, so sites that
/// record several events back-to-back — or that already computed a
/// same-epoch stamp for the metrics plane — read once and reuse it.
#[macro_export]
macro_rules! obs_event_at {
    ($handle:expr, $host_ns:expr, $kind:expr, $virt_ns:expr, $session:expr, $request:expr, $arg:expr) => {
        if let Some(h) = ($handle).as_mut() {
            h.emit_at($host_ns, $kind, $virt_ns, $session, $request, $arg);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_config_gates_and_env_parse() {
        assert!(!ObsConfig::Off.histograms_enabled() && !ObsConfig::Off.tracing_enabled());
        assert!(
            ObsConfig::MetricsOnly.histograms_enabled()
                && !ObsConfig::MetricsOnly.tracing_enabled()
        );
        assert!(ObsConfig::Full.histograms_enabled() && ObsConfig::Full.tracing_enabled());
        assert_eq!(ObsConfig::from_env_str("full"), Some(ObsConfig::Full));
        assert_eq!(ObsConfig::from_env_str(" Metrics "), Some(ObsConfig::MetricsOnly));
        assert_eq!(ObsConfig::from_env_str("off"), Some(ObsConfig::Off));
        assert_eq!(ObsConfig::from_env_str("loud"), None);
    }

    #[test]
    fn obs_event_macro_is_a_no_op_on_none() {
        let mut handle: Option<TraceHandle> = None;
        // Must not evaluate into anything that panics or allocates.
        obs_event!(handle, EventKind::Park, 0, 0, 0, 0);
        assert!(handle.is_none());
    }
}
