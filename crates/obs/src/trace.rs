//! Plane 1: the flight recorder.
//!
//! Every instrumented thread (the service front-end, each lane worker, the
//! TEE kernel, the replayer) owns a [`TraceHandle`] — the producing end of
//! a private [`crate::spsc`] ring of fixed-size [`TraceEvent`]s. Emitting
//! is one `Instant::elapsed` read plus one lock-free push; when the ring is
//! full the event is **dropped and counted**, never blocked on and never
//! panicked over, because tracing must not perturb the lane it observes.
//!
//! The [`Recorder`] is the collecting side: it keeps the consumer half of
//! every registered ring, drains them into a bounded flight buffer on
//! demand, and exports either Chrome `trace_event` JSON
//! ([`chrome_trace_json`], one timeline track per registered thread) or
//! per-request spans ([`reconstruct_spans`], submit → admit → queue →
//! replay → complete with per-phase durations).
//!
//! ## Ordering argument
//!
//! Each ring is written by exactly one thread, so events within a track are
//! in that thread's program order (the SPSC push publishes with `Release`,
//! the drain reads with `Acquire`). *Across* tracks the merged stream is
//! ordered by the stamps instead: the virtual clock is causally monotone
//! along each request's lifecycle (admission, dispatch and completion all
//! read-then-advance the same per-lane `ClockCell`-derived timeline), so
//! span reconstruction sorts by virtual time and the fully-ordered
//! submit ≤ admit ≤ dispatch ≤ complete invariant is checkable per request
//! regardless of drain interleaving.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::spsc::{self, SpscConsumer, SpscProducer};

/// What happened. The discriminant is part of the binary event layout, so
/// the variants are explicitly numbered and append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A request arrived at the service front-end (pre-admission).
    Submitted = 0,
    /// The lane accepted the request into its submission queue; `arg` is
    /// the queue depth after admission.
    Admitted = 1,
    /// A doorbell SMC flushed staged ring entries; `arg` is the batch size.
    Doorbell = 2,
    /// The lane worker pulled the request (or the batch containing it) for
    /// execution.
    Dispatched = 3,
    /// The replayer selected a template and began replaying; `arg` is the
    /// attempt ordinal (1-based).
    ReplayStart = 4,
    /// The replay finished; `arg` is the attempts consumed.
    ReplayEnd = 5,
    /// The request completed successfully.
    Completed = 6,
    /// The request completed with a divergence.
    Diverged = 7,
    /// Secure-world entry; `arg` is the [`SmcKind`] discriminant.
    SmcEnter = 8,
    /// Secure-world exit; `arg` is the [`SmcKind`] discriminant.
    SmcExit = 9,
    /// The scheduler plugged (held) a lane anticipating a merge.
    Plug = 10,
    /// The scheduler released a hold early; `arg` is 1 if the hold expired
    /// without a merge.
    Unplug = 11,
    /// The lane worker parked (no admissions, no dispatchable work).
    Park = 12,
    /// The lane worker was woken.
    Unpark = 13,
    /// A fault was injected into the lane's device model.
    FaultInject = 14,
    /// The injected fault was cleared.
    FaultClear = 15,
    /// Admission QoS rejected a submit; `arg` is the advised
    /// `retry_after_ns`.
    Throttled = 16,
    /// A clean-read completion was retried on a sibling replica; `arg` is
    /// the attempt ordinal (1-based) charged against the retry budget.
    Failover = 17,
    /// The lane supervisor changed a lane's state; `arg` is 1 when the
    /// lane entered quarantine, 2 when it entered probation.
    Quarantine = 18,
    /// A quarantined lane passed probation and returned to healthy.
    LaneRestored = 19,
}

impl EventKind {
    /// Stable lower-case name, used as the Chrome-trace event name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Submitted => "submitted",
            EventKind::Admitted => "admitted",
            EventKind::Doorbell => "doorbell",
            EventKind::Dispatched => "dispatched",
            EventKind::ReplayStart => "replay_start",
            EventKind::ReplayEnd => "replay_end",
            EventKind::Completed => "completed",
            EventKind::Diverged => "diverged",
            EventKind::SmcEnter => "smc_enter",
            EventKind::SmcExit => "smc_exit",
            EventKind::Plug => "plug",
            EventKind::Unplug => "unplug",
            EventKind::Park => "park",
            EventKind::Unpark => "unpark",
            EventKind::FaultInject => "fault_inject",
            EventKind::FaultClear => "fault_clear",
            EventKind::Throttled => "throttled",
            EventKind::Failover => "failover",
            EventKind::Quarantine => "quarantine",
            EventKind::LaneRestored => "lane_restored",
        }
    }
}

/// Which SMC gate a [`EventKind::SmcEnter`]/[`EventKind::SmcExit`] pair (or
/// a metrics-plane counter) refers to. Carried in [`TraceEvent::arg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SmcKind {
    /// `open_session`: install a trustlet session.
    OpenSession = 0,
    /// `invoke`: one legacy per-call world switch.
    Invoke = 1,
    /// `invoke_batch`: one doorbell ringing a shared-memory ring.
    Doorbell = 2,
    /// `smc_yield`: a secure-world poll/yield slice.
    Yield = 3,
    /// `close_session`: tear a session down.
    CloseSession = 4,
}

impl SmcKind {
    /// Number of kinds (fixed-size metric arrays are indexed by this).
    pub const COUNT: usize = 5;

    /// All kinds, in discriminant order.
    pub const ALL: [SmcKind; SmcKind::COUNT] = [
        SmcKind::OpenSession,
        SmcKind::Invoke,
        SmcKind::Doorbell,
        SmcKind::Yield,
        SmcKind::CloseSession,
    ];

    /// Stable lower-case name, used in metric labels and trace args.
    pub fn name(self) -> &'static str {
        match self {
            SmcKind::OpenSession => "open_session",
            SmcKind::Invoke => "invoke",
            SmcKind::Doorbell => "doorbell",
            SmcKind::Yield => "yield",
            SmcKind::CloseSession => "close_session",
        }
    }

    /// Recover a kind from a [`TraceEvent::arg`] discriminant.
    pub fn from_arg(arg: u64) -> Option<SmcKind> {
        SmcKind::ALL.get(arg as usize).copied()
    }
}

/// One fixed-size binary trace record. `Copy` and field-only — the hot
/// path moves 48 bytes into a preallocated ring slot and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Host monotonic nanoseconds since the recorder's epoch.
    pub host_ns: u64,
    /// Virtual-clock nanoseconds (the emitting side's timeline).
    pub virt_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Which timeline track (thread) emitted this.
    pub track: u16,
    /// Session the event belongs to (0 when not applicable).
    pub session: u32,
    /// Request the event belongs to (0 when not applicable).
    pub request: u64,
    /// Kind-specific argument (queue depth, batch size, SMC kind, …).
    pub arg: u64,
}

/// The producing end of one thread's trace ring. Owned exclusively by the
/// emitting thread (the SPSC producer is not `Clone`); emission is
/// wait-free and overflow is a counted drop.
#[derive(Debug)]
pub struct TraceHandle {
    producer: SpscProducer<TraceEvent>,
    track: u16,
    epoch: Instant,
    dropped: Arc<AtomicU64>,
}

impl TraceHandle {
    /// Timeline track this handle stamps onto.
    pub fn track(&self) -> u16 {
        self.track
    }

    /// Host-monotonic nanoseconds since the recorder's epoch — the stamp
    /// domain of [`TraceEvent::host_ns`]. Sites that emit several events
    /// back-to-back read this once and pass it to [`TraceHandle::emit_at`]
    /// (the clock read is the most expensive part of an emit).
    pub fn host_now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record one event. Never blocks, never panics: a full ring bumps the
    /// recorder-wide drop counter and the event is lost (by design — the
    /// flight recorder must not perturb the lane it observes).
    pub fn emit(&mut self, kind: EventKind, virt_ns: u64, session: u32, request: u64, arg: u64) {
        let host_ns = self.host_now_ns();
        self.emit_at(host_ns, kind, virt_ns, session, request, arg);
    }

    /// [`TraceHandle::emit`] with the host stamp supplied by the caller —
    /// must come from this handle's own [`TraceHandle::host_now_ns`] (or a
    /// clock sharing the recorder epoch) so the merged stream still sorts.
    pub fn emit_at(
        &mut self,
        host_ns: u64,
        kind: EventKind,
        virt_ns: u64,
        session: u32,
        request: u64,
        arg: u64,
    ) {
        let event = TraceEvent { host_ns, virt_ns, kind, track: self.track, session, request, arg };
        if self.producer.try_push(event).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One registered ring: the consumer half plus its track identity.
struct Channel {
    name: String,
    track: u16,
    consumer: SpscConsumer<TraceEvent>,
}

/// The collector: hands out [`TraceHandle`]s and drains their rings into a
/// bounded flight buffer.
pub struct Recorder {
    enabled: bool,
    ring_capacity: usize,
    flight_capacity: usize,
    epoch: Instant,
    channels: Mutex<Vec<Channel>>,
    /// Events that did not fit an emitter's ring (shared with every handle).
    dropped: Arc<AtomicU64>,
    /// Events evicted from the flight buffer because it was full.
    evicted: AtomicU64,
    flight: Mutex<Vec<TraceEvent>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled)
            .field("ring_capacity", &self.ring_capacity)
            .field("flight_capacity", &self.flight_capacity)
            .finish()
    }
}

/// Default per-thread ring size: deep enough that the serve concurrency
/// suites drain with zero loss (asserted by test), small enough to stay
/// resident in cache.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Default flight-buffer bound across all rings.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 65_536;

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(DEFAULT_RING_CAPACITY, DEFAULT_FLIGHT_CAPACITY)
    }
}

impl Recorder {
    /// An enabled recorder: per-thread rings of `ring_capacity` events, a
    /// flight buffer bounded at `flight_capacity` events (oldest evicted
    /// first, eviction counted).
    pub fn new(ring_capacity: usize, flight_capacity: usize) -> Recorder {
        Recorder::with_epoch(ring_capacity, flight_capacity, Instant::now())
    }

    /// [`Recorder::new`] with an explicit host epoch, so co-located stamp
    /// domains (e.g. a metrics registry built alongside) can share it and
    /// stamps taken off-recorder stay directly comparable.
    pub fn with_epoch(ring_capacity: usize, flight_capacity: usize, epoch: Instant) -> Recorder {
        Recorder {
            enabled: true,
            ring_capacity: ring_capacity.max(1),
            flight_capacity: flight_capacity.max(1),
            epoch,
            channels: Mutex::new(Vec::new()),
            dropped: Arc::new(AtomicU64::new(0)),
            evicted: AtomicU64::new(0),
            flight: Mutex::new(Vec::new()),
        }
    }

    /// A recorder that registers nothing: [`Recorder::register`] returns
    /// `None`, so every `obs_event!` site stays a single branch.
    pub fn disabled() -> Recorder {
        Recorder { enabled: false, ..Recorder::new(1, 1) }
    }

    /// Whether this recorder hands out live handles.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Register a new emitting thread under `name` on timeline `track` and
    /// return its handle (`None` when the recorder is disabled). Multiple
    /// rings may share a track — e.g. a lane worker and the replayer it
    /// drives are one thread and render on one timeline.
    pub fn register(&self, name: &str, track: u16) -> Option<TraceHandle> {
        if !self.enabled {
            return None;
        }
        let (producer, consumer) = spsc::channel(self.ring_capacity);
        self.channels.lock().expect("recorder channel registry poisoned").push(Channel {
            name: name.to_string(),
            track,
            consumer,
        });
        Some(TraceHandle { producer, track, epoch: self.epoch, dropped: Arc::clone(&self.dropped) })
    }

    /// Track names registered so far, as `(track, name)` pairs in
    /// registration order (a track registered twice keeps its first name).
    pub fn track_names(&self) -> Vec<(u16, String)> {
        let channels = self.channels.lock().expect("recorder channel registry poisoned");
        let mut out: Vec<(u16, String)> = Vec::new();
        for ch in channels.iter() {
            if !out.iter().any(|(t, _)| *t == ch.track) {
                out.push((ch.track, ch.name.clone()));
            }
        }
        out.sort_by_key(|(t, _)| *t);
        out
    }

    /// Pull everything currently visible in the per-thread rings into the
    /// flight buffer, evicting the oldest events beyond the bound.
    pub fn collect(&self) {
        let mut channels = self.channels.lock().expect("recorder channel registry poisoned");
        let mut flight = self.flight.lock().expect("recorder flight buffer poisoned");
        for ch in channels.iter_mut() {
            ch.consumer.drain_into(&mut flight);
        }
        if flight.len() > self.flight_capacity {
            let excess = flight.len() - self.flight_capacity;
            // Oldest-first within the merged buffer: drain order preserved
            // per ring, so dropping the front loses the stalest records.
            flight.drain(..excess);
            self.evicted.fetch_add(excess as u64, Ordering::Relaxed);
        }
    }

    /// Collect, then take the whole flight buffer, sorted by host time so
    /// the merged stream reads chronologically across tracks.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.collect();
        let mut events =
            std::mem::take(&mut *self.flight.lock().expect("recorder flight buffer poisoned"));
        events.sort_by_key(|e| e.host_ns);
        events
    }

    /// Events lost to full per-thread rings (exact: each failed push adds
    /// exactly one).
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events evicted from the flight buffer by the bound.
    pub fn evicted_events(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

/// A virtual/host timestamp pair for one lifecycle stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Virtual-clock nanoseconds.
    pub virt_ns: u64,
    /// Host monotonic nanoseconds since the recorder epoch.
    pub host_ns: u64,
}

/// One request's reconstructed lifecycle: submit → admit → queue →
/// replay → complete, with per-phase durations in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpan {
    /// The request id the span belongs to.
    pub request: u64,
    /// The session that submitted it.
    pub session: u32,
    /// The lane track it was dispatched on (0 until dispatched).
    pub track: u16,
    /// Front-end arrival (pre-admission SMC).
    pub submitted: Option<Stamp>,
    /// Lane queue acceptance.
    pub admitted: Option<Stamp>,
    /// Lane worker pickup.
    pub dispatched: Option<Stamp>,
    /// Terminal completion (success or divergence).
    pub completed: Option<Stamp>,
    /// Whether the terminal event was [`EventKind::Diverged`].
    pub diverged: bool,
}

impl RequestSpan {
    /// admit → dispatch (time spent queued) in virtual ns.
    pub fn queue_ns(&self) -> Option<u64> {
        phase(self.admitted, self.dispatched)
    }

    /// dispatch → complete (replay/service time) in virtual ns.
    pub fn service_ns(&self) -> Option<u64> {
        phase(self.dispatched, self.completed)
    }

    /// submit → complete in virtual ns.
    pub fn total_ns(&self) -> Option<u64> {
        phase(self.submitted, self.completed)
    }

    /// Whether all four stages are present and causally ordered
    /// (submit ≤ admit ≤ dispatch ≤ complete in virtual time).
    pub fn is_fully_ordered(&self) -> bool {
        match (self.submitted, self.admitted, self.dispatched, self.completed) {
            (Some(s), Some(a), Some(d), Some(c)) => {
                s.virt_ns <= a.virt_ns && a.virt_ns <= d.virt_ns && d.virt_ns <= c.virt_ns
            }
            _ => false,
        }
    }
}

/// Keep the *earliest* stamp for a stage: a retried stage (e.g. a second
/// dispatch after a soft reset) must not rewrite history.
fn stamp_first(slot: &mut Option<Stamp>, stamp: Stamp) {
    if slot.is_none() {
        *slot = Some(stamp);
    }
}

fn phase(from: Option<Stamp>, to: Option<Stamp>) -> Option<u64> {
    match (from, to) {
        (Some(f), Some(t)) => Some(t.virt_ns.saturating_sub(f.virt_ns)),
        _ => None,
    }
}

/// Rebuild per-request spans from a drained event stream. Events with
/// `request == 0` (SMC pairs, park/unpark, plug decisions, …) do not open
/// spans. Output is sorted by request id.
pub fn reconstruct_spans(events: &[TraceEvent]) -> Vec<RequestSpan> {
    use std::collections::HashMap;
    let mut spans: HashMap<u64, RequestSpan> = HashMap::new();
    for ev in events {
        if ev.request == 0 {
            continue;
        }
        let stamp = Stamp { virt_ns: ev.virt_ns, host_ns: ev.host_ns };
        let span = spans.entry(ev.request).or_insert(RequestSpan {
            request: ev.request,
            session: ev.session,
            track: 0,
            submitted: None,
            admitted: None,
            dispatched: None,
            completed: None,
            diverged: false,
        });
        if ev.session != 0 {
            span.session = ev.session;
        }
        match ev.kind {
            EventKind::Submitted => stamp_first(&mut span.submitted, stamp),
            EventKind::Admitted => stamp_first(&mut span.admitted, stamp),
            EventKind::Dispatched => {
                stamp_first(&mut span.dispatched, stamp);
                span.track = ev.track;
            }
            EventKind::Completed => stamp_first(&mut span.completed, stamp),
            EventKind::Diverged => {
                stamp_first(&mut span.completed, stamp);
                span.diverged = true;
            }
            _ => {}
        }
    }
    let mut out: Vec<RequestSpan> = spans.into_values().collect();
    out.sort_by_key(|s| s.request);
    out
}

/// Render a drained event stream as Chrome `trace_event` JSON (the
/// "JSON array format"): one `thread_name` metadata record per track, an
/// instant (`"ph":"i"`) per event, and a complete (`"ph":"X"`) slice per
/// reconstructed request span using its host-time dispatch→complete
/// window. Load the output in `chrome://tracing` or
/// <https://ui.perfetto.dev> — each registered thread renders as its own
/// timeline track.
pub fn chrome_trace_json(events: &[TraceEvent], tracks: &[(u16, String)]) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 256);
    out.push_str("[\n");
    let mut first = true;
    for (track, name) in tracks {
        push_record(&mut out, &mut first, &format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{track},\"args\":{{\"name\":\"{}\"}}}}",
            escape_json(name)
        ));
    }
    for ev in events {
        let ts = micros(ev.host_ns);
        push_record(&mut out, &mut first, &format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{ts},\"args\":{{\"virt_ns\":{},\"session\":{},\"request\":{},\"arg\":{}}}}}",
            ev.kind.name(),
            ev.track,
            ev.virt_ns,
            ev.session,
            ev.request,
            ev.arg
        ));
    }
    for span in reconstruct_spans(events) {
        let (Some(d), Some(c)) = (span.dispatched, span.completed) else { continue };
        let ts = micros(d.host_ns);
        let dur = micros(c.host_ns.saturating_sub(d.host_ns));
        push_record(&mut out, &mut first, &format!(
            "{{\"name\":\"request {}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts},\"dur\":{dur},\"args\":{{\"session\":{},\"diverged\":{},\"queue_virt_ns\":{},\"service_virt_ns\":{}}}}}",
            span.request,
            span.track,
            span.session,
            span.diverged,
            span.queue_ns().unwrap_or(0),
            span.service_ns().unwrap_or(0)
        ));
    }
    out.push_str("\n]\n");
    out
}

fn push_record(out: &mut String, first: &mut bool, record: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(record);
}

/// Nanoseconds → Chrome-trace microseconds with sub-µs precision kept.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(handle: &mut TraceHandle, kind: EventKind, virt: u64, req: u64) {
        handle.emit(kind, virt, 7, req, 0);
    }

    #[test]
    fn disabled_recorder_hands_out_no_handles() {
        let recorder = Recorder::disabled();
        assert!(recorder.register("lane-0", 1).is_none());
        assert!(recorder.drain().is_empty());
    }

    #[test]
    fn spans_reconstruct_across_two_tracks() {
        let recorder = Recorder::new(64, 256);
        let mut front = recorder.register("front-end", 0).unwrap();
        let mut lane = recorder.register("lane-0-mmc", 1).unwrap();
        stamp(&mut front, EventKind::Submitted, 100, 1);
        stamp(&mut front, EventKind::Admitted, 150, 1);
        stamp(&mut lane, EventKind::Dispatched, 200, 1);
        stamp(&mut lane, EventKind::Completed, 900, 1);
        stamp(&mut front, EventKind::Submitted, 110, 2);
        stamp(&mut front, EventKind::Admitted, 160, 2);
        stamp(&mut lane, EventKind::Dispatched, 900, 2);
        stamp(&mut lane, EventKind::Diverged, 1_400, 2);
        // Non-request events must not open spans.
        lane.emit(EventKind::Park, 1_400, 0, 0, 0);

        let events = recorder.drain();
        assert_eq!(events.len(), 9);
        let spans = reconstruct_spans(&events);
        assert_eq!(spans.len(), 2);
        assert!(spans[0].is_fully_ordered() && spans[1].is_fully_ordered());
        assert_eq!(spans[0].queue_ns(), Some(50));
        assert_eq!(spans[0].service_ns(), Some(700));
        assert_eq!(spans[0].total_ns(), Some(800));
        assert!(!spans[0].diverged);
        assert!(spans[1].diverged);
        assert_eq!(spans[1].track, 1, "span lands on the dispatching lane's track");
        assert_eq!(recorder.dropped_events(), 0);
        assert!(recorder.drain().is_empty(), "drain consumes the flight buffer");
    }

    #[test]
    fn ring_overflow_drops_are_counted_exactly_and_never_panic() {
        let recorder = Recorder::new(8, 1_024);
        let mut handle = recorder.register("lane-0", 1).unwrap();
        for i in 0..100u64 {
            handle.emit(EventKind::Dispatched, i, 1, i + 1, 0);
        }
        // 8 fit the ring; the other 92 must be counted, one each, exactly.
        assert_eq!(recorder.dropped_events(), 92);
        assert_eq!(recorder.drain().len(), 8);
        // The ring is drained now: emission resumes losslessly.
        handle.emit(EventKind::Completed, 200, 1, 1, 0);
        assert_eq!(recorder.dropped_events(), 92);
        assert_eq!(recorder.drain().len(), 1);
    }

    #[test]
    fn flight_buffer_eviction_is_bounded_and_counted() {
        let recorder = Recorder::new(64, 16);
        let mut handle = recorder.register("lane-0", 1).unwrap();
        for i in 0..40u64 {
            handle.emit(EventKind::Dispatched, i, 1, i + 1, 0);
        }
        recorder.collect();
        assert_eq!(recorder.evicted_events(), 24);
        let events = recorder.drain();
        assert_eq!(events.len(), 16);
        assert_eq!(events[0].virt_ns, 24, "oldest events are the ones evicted");
    }

    #[test]
    fn chrome_export_names_every_track_and_span() {
        let recorder = Recorder::new(64, 256);
        let mut front = recorder.register("front-end", 0).unwrap();
        let mut lane = recorder.register("lane-0-mmc", 1).unwrap();
        stamp(&mut front, EventKind::Submitted, 100, 1);
        stamp(&mut front, EventKind::Admitted, 150, 1);
        stamp(&mut lane, EventKind::Dispatched, 200, 1);
        stamp(&mut lane, EventKind::Completed, 900, 1);
        let events = recorder.drain();
        let json = chrome_trace_json(&events, &recorder.track_names());
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"lane-0-mmc\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"request 1\""));
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        // Balanced braces ⇒ structurally plausible JSON without a parser.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn smc_kind_round_trips_through_arg() {
        for kind in SmcKind::ALL {
            assert_eq!(SmcKind::from_arg(kind as u64), Some(kind));
        }
        assert_eq!(SmcKind::from_arg(99), None);
    }
}
