//! # dlt-e2ebench — the repository's end-to-end benchmark
//!
//! One command runs a named workload against the public APIs of
//! `dlt-workloads`, `dlt-core`, `dlt-serve` and `dlt-recorder`, checks every
//! output, and reports end-to-end metrics on both clocks: *virtual* time
//! (the paper's argument, deterministic per seed) and *host* time (how fast
//! the simulator and the service run). A traced run times the benchmark's
//! own calls into each layer for the per-layer breakdown. See `README.md`.

pub mod common;
pub mod percall;
pub mod rig;
pub mod sqlite;
pub mod tenants;

use std::collections::BTreeMap;
use std::time::Instant;

use common::{median, take_untimed, trace_reset, trace_take, Layer, Pass, Virt, LAYERS};

/// One workload after set-up.
pub trait Workload {
    /// The workload's parameters, printed with every result.
    fn settings(&self) -> Vec<(&'static str, String)>;
    /// Milliseconds each set-up layer took.
    fn setup_ms(&self) -> BTreeMap<&'static str, f64>;
    /// Run pass `index`: the workload's unit of work (see [`Pass`]).
    fn pass(&mut self, index: u64) -> Pass;
    /// Work after the timed region (the offered-rate ladder); returns report
    /// lines and output mismatches.
    fn finish(&mut self, _virt: &mut Virt) -> (Vec<String>, u64) {
        (Vec::new(), 0)
    }
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["sqlite_direct", "tenants_ring", "rw_percall_threaded"];

/// Set a workload up from its seed, with the parameters the benchmark
/// reports.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sqlite_direct" => {
            Box::new(sqlite::SqliteDirect::setup(seed, sqlite::SqliteParams::standard())?)
        }
        "tenants_ring" => {
            Box::new(tenants::TenantsRing::setup(seed, tenants::TenantsParams::standard())?)
        }
        "rw_percall_threaded" => {
            Box::new(percall::RwPercall::setup(seed, percall::PercallParams::standard())?)
        }
        other => {
            return Err(format!("unknown workload {other:?}; known: {}", WORKLOADS.join(", ")))
        }
    })
}

/// End-to-end metrics, reported with tracing off: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("host_rps", "ops/s"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MiB"),
    ("vt_rps", "ops/s"),
    ("vt_mean_us", "us"),
];

/// Per-layer metrics, reported by the traced run: (name, unit). Times
/// ending in `_ms` are per pass; counts are per pass unless the unit says
/// otherwise; 0 means the workload does not call into that layer.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("workloads.self_ms", "ms"),
    ("workloads.ios_per_query", "ios/query"),
    ("core.replay_ms", "ms"),
    ("core.ns_per_event", "ns"),
    ("core.events_per_replay", "events"),
    ("core.irq_waits_per_replay", "waits"),
    ("core.useful_ratio", "1"),
    ("hw.mmio_per_event", "accesses"),
    ("tee.smc_doorbell_per_req", "switches/op"),
    ("tee.smc_legacy_per_req", "switches/op"),
    ("serve.build_ms", "ms"),
    ("serve.submit_ns", "ns"),
    ("serve.doorbell_ns", "ns"),
    ("serve.reap_ns", "ns"),
    ("serve.drain_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("route.fanouts", "count"),
    ("route.spills", "count"),
    ("admit.refused", "count"),
    ("ring.cq_overflows", "count"),
    ("ring.doorbell_batch", "entries"),
    ("coalesce.req_per_replay", "req/replay"),
    ("coalesce.holds", "count"),
    ("coalesce.early_unplugs", "count"),
    ("lane.busy_frac", "1"),
    ("lane.queue_high_water", "entries"),
    ("recorder.record_ms", "ms"),
    ("template.load_ms", "ms"),
    ("gold.native_ms", "ms"),
    ("other.self_ms", "ms"),
    ("trace.coverage", "1"),
    ("trace.overhead", "x"),
];

/// Span layers and the per-layer metric each feeds: per-pass
/// milliseconds, or mean nanoseconds per call.
const SPAN_METRICS: [(Layer, &str, bool); LAYERS] = [
    (Layer::Workloads, "workloads.self_ms", false),
    (Layer::Core, "core.replay_ms", false),
    (Layer::ServeBuild, "serve.build_ms", false),
    (Layer::ServeSubmit, "serve.submit_ns", true),
    (Layer::ServeDoorbell, "serve.doorbell_ns", true),
    (Layer::ServeReap, "serve.reap_ns", true),
    (Layer::ServeDrain, "serve.drain_ms", false),
    (Layer::ServeWait, "serve.wait_ms", false),
];

/// Segments of the timed region, each opened by a fresh set-up; `setup_s`
/// is the median of the segments' set-up times.
pub const SETUP_RUNS: usize = 5;

/// A segment repeats its set-up until this many host seconds have passed
/// (at least once) and takes the mean, so a set-up of a few milliseconds is
/// timed over enough work to be steady.
pub const SETUP_MIN_S: f64 = 0.3;

/// What one invocation of the benchmark asks for.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Human-readable lines: host, settings, every metric with its unit.
    pub lines: Vec<String>,
    /// No output mismatched.
    pub correct: bool,
    /// Ops attempted over the timed passes.
    pub attempted: u64,
    /// Ops that failed or were refused.
    pub failed: u64,
    /// (name, value, unit) of every reported metric.
    pub metrics: Vec<(String, f64, String)>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Host fingerprint: cores, CPU model, compiler.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\"", env!("E2EBENCH_RUSTC"))
}

/// The timed passes of a run.
#[derive(Default)]
struct Timed {
    /// Each pass with its host seconds and whether it was traced.
    passes: Vec<(Pass, f64, bool)>,
    /// Host seconds of all passes so far.
    seconds: f64,
    /// Span totals over the traced passes: (self ns, calls) per layer.
    spans: [(u64, u64); LAYERS],
}

impl Timed {
    /// Run passes of `w` until the run's passes add up to `until` host
    /// seconds, and at least `min` of them ran on `w`. With `trace`, every
    /// other pass of the run is traced. A pass's host time leaves out what
    /// it ran under [`common::untimed`].
    fn extend(&mut self, w: &mut dyn Workload, until: f64, min: usize, trace: bool) {
        let mut index = 0;
        while index < min || self.seconds < until {
            let traced = trace && self.passes.len() % 2 == 1;
            trace_reset(traced);
            take_untimed();
            let t = Instant::now();
            let pass = w.pass(index as u64);
            let dt = t.elapsed().as_secs_f64() - take_untimed() as f64 / 1e9;
            for (total, (ns, calls)) in self.spans.iter_mut().zip(trace_take()) {
                total.0 += ns;
                total.1 += calls;
            }
            self.passes.push((pass, dt, traced));
            self.seconds += dt;
            index += 1;
        }
        trace_reset(false);
    }
}

fn rate(pass: &Pass, dt: f64) -> f64 {
    (pass.attempted - pass.failed) as f64 / dt
}

/// Set up (several times), run the timed passes and report.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let mut lines = vec![
        format!(
            "# workload={} seed={} seconds={} trace={}",
            cfg.workload,
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace)
        ),
        format!("# host {}", host_fingerprint()),
    ];
    // Set-ups open each of SETUP_RUNS equal segments of the timed region,
    // so set-up times sample the same host conditions as the passes. The
    // previous set-up is dropped first: peak RSS holds one.
    // A traced run alternates untraced and traced passes so both arms see
    // the same host conditions; their rate ratio is the tracing overhead.
    let mut setup_s = Vec::new();
    let mut setups = 0;
    let mut run = Timed::default();
    let mut w: Option<Box<dyn Workload>> = None;
    for segment in 1..=SETUP_RUNS {
        let (mut spent, mut n) = (0.0, 0);
        let mut rig = loop {
            drop(w.take());
            let t = Instant::now();
            let rig = setup(&cfg.workload, cfg.seed)?;
            spent += t.elapsed().as_secs_f64();
            n += 1;
            if spent >= SETUP_MIN_S {
                break rig;
            }
            w = Some(rig);
        };
        setup_s.push(spent / n as f64);
        setups += n;
        let until = cfg.seconds * segment as f64 / SETUP_RUNS as f64;
        run.extend(rig.as_mut(), until, if cfg.trace { 2 } else { 1 }, cfg.trace);
        w = Some(rig);
    }
    let mut w = w.expect("at least one set-up ran");
    let settings: Vec<String> = w.settings().into_iter().map(|(k, v)| format!("{k}={v}")).collect();
    lines.push(format!("# settings obs=off {}", settings.join("; ")));
    lines.push(format!("# setup runs={setups} segment means setup_s={setup_s:?}"));

    let first = &run.passes[0].0;
    let mut virt = first.virt.clone();
    let (finish_lines, finish_mismatches) = w.finish(&mut virt);
    lines.extend(finish_lines.into_iter().map(|l| format!("# {l}")));

    let attempted: u64 = run.passes.iter().map(|(p, _, _)| p.attempted).sum();
    let failed: u64 = run.passes.iter().map(|(p, _, _)| p.failed).sum();
    let mismatches: u64 =
        run.passes.iter().map(|(p, _, _)| p.mismatches).sum::<u64>() + finish_mismatches;
    if let Some(m) = run.passes.iter().find_map(|(p, _, _)| p.first_mismatch.clone()) {
        lines.push(format!("# MISMATCH {m}"));
    }
    lines.push(format!("# passes={} timed_s={:.3}", run.passes.len(), run.seconds));
    let opt = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |v| format!("{v:.4}"));
    lines.push(format!(
        "# virtual latency p50={:.3} us p99={:.3} us over {} samples",
        virt.p50_us, virt.p99_us, virt.samples
    ));
    lines.push(format!(
        "# also smc_per_req={} switches/op; fail_ratio={:.6}; vt_slo_rps={} req/s; vt_vs_native={} x",
        opt(virt.smc_per_req),
        failed as f64 / attempted.max(1) as f64,
        opt(virt.slo_rps),
        opt(virt.vs_native),
    ));
    let mut metrics = Vec::new();
    if !cfg.trace {
        let rates: Vec<f64> = run.passes.iter().map(|(p, dt, _)| rate(p, *dt)).collect();
        let values = [median(&rates), median(&setup_s), rss_peak_mb(), virt.rps, virt.mean_us];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), v, unit.to_string()));
        }
    } else {
        let traced: Vec<&(Pass, f64, bool)> = run.passes.iter().filter(|p| p.2).collect();
        let plain: Vec<f64> =
            run.passes.iter().filter(|p| !p.2).map(|(p, dt, _)| rate(p, *dt)).collect();
        let traced_rates: Vec<f64> = traced.iter().map(|(p, dt, _)| rate(p, *dt)).collect();
        let n = traced.len().max(1) as f64;
        let traced_ns: f64 = traced.iter().map(|(_, dt, _)| dt * 1e9).sum();
        let spans_ns: f64 = run.spans.iter().map(|(ns, _)| *ns as f64).sum();
        let events: f64 = traced
            .iter()
            .map(|(p, _, _)| p.counts.get("core.events").copied().unwrap_or(0.0))
            .sum();
        let mut values: BTreeMap<&str, f64> = first.counts.iter().map(|(k, v)| (*k, *v)).collect();
        for (layer, metric, per_call) in SPAN_METRICS {
            let (ns, calls) = run.spans[layer as usize];
            let v = if per_call { ns as f64 / calls.max(1) as f64 } else { ns as f64 / n / 1e6 };
            values.insert(metric, v);
        }
        let core_ns = run.spans[Layer::Core as usize].0 as f64;
        values.insert("core.ns_per_event", if events > 0.0 { core_ns / events } else { 0.0 });
        for (k, v) in w.setup_ms() {
            values.insert(k, v);
        }
        values.insert("other.self_ms", (traced_ns - spans_ns).max(0.0) / n / 1e6);
        values.insert("trace.coverage", spans_ns / traced_ns.max(1.0));
        values.insert("trace.overhead", median(&plain) / median(&traced_rates).max(1e-12));
        for (name, unit) in PER_LAYER {
            metrics.push((
                name.to_string(),
                values.get(name).copied().unwrap_or(0.0),
                unit.to_string(),
            ));
        }
    }
    for (name, v, unit) in &metrics {
        lines.push(format!("metric {name:<26} {v:>16.4} {unit}"));
    }
    Ok(Report { lines, correct: mismatches == 0, attempted, failed, metrics })
}
