//! # dlt-explore — concolic divergence-input generation for driverlets
//!
//! The paper's safety argument (§5, §8.2.1) is a *rejection* argument: a
//! replayed driverlet is safe because the replayer refuses any run that
//! strays from the recorded trace. That argument is only as strong as the
//! constraint pool it rests on — every `ConsOp` the compiler emitted must
//! actually fire when violated, and a violation must surface as a *typed*
//! error, never a panic, a hang, or a corrupted device lane.
//!
//! This crate turns that obligation into an exhaustive, gateable campaign:
//!
//! 1. **Enumerate** — every compiled [`dlt_template::ReplayProgram`] exposes
//!    its constraint pool through
//!    [`dlt_template::program::ReplayProgram::constraint_sites`]: parameter
//!    coverage checks, `Read`-op response constraints and `Poll`-op exit
//!    conditions, each with its register/slot provenance.
//! 2. **Solve** — for every single `ConsOp` (site roots *and* every leaf of
//!    compound trees) the concolic solver
//!    ([`dlt_template::program::ReplayProgram::solve_violation`]) synthesises
//!    a concrete violating observation against the live register file:
//!    invoke-argument values for parameter checks, device response
//!    register/DMA words for reads, and never-satisfied poll words that
//!    overrun the recorded iteration bound.
//! 3. **Drive** — each mutation runs through the full stack. Parameter
//!    violations are invoked as real arguments and must come back as
//!    [`dlt_core::ReplayError::OutOfCoverage`]. Response and poll violations
//!    are injected with a [`dlt_core::ConstraintFlipper`] on the replayer's
//!    device-read path and must come back as
//!    [`dlt_core::ReplayError::Diverged`]. A serve-layer gauntlet injects
//!    the same faults mid-batch through `dlt-serve`'s per-call and ring
//!    submission paths and asserts typed CQ errors plus post-divergence
//!    lane health: an untouched session's bytes must survive unchanged.
//! 4. **Gate** — the [`ExploreReport`] ledger (persisted as
//!    `BENCH_explore.json`) counts constraints total vs flipped vs
//!    confirmed-rejected; [`ExploreReport::gate`] fails unless every
//!    falsifiable constraint was flipped, every flip was rejected with the
//!    right type, and no case panicked, hung or left a lane unhealthy.
//!
//! Every case is deadline-wrapped (worker thread + `recv_timeout`) and
//! panic-wrapped (`catch_unwind`), so "no hang" and "no panic" are measured
//! properties, not hopes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use dlt_core::{ConstraintFlipper, FaultPlan, ReplayError, Replayer};
use dlt_dev_mmc::MmcSubsystem;
use dlt_dev_usb::UsbSubsystem;
use dlt_dev_vchiq::VchiqSubsystem;
use dlt_hw::Platform;
use dlt_recorder::campaign::{
    record_camera_driverlet_subset, record_mmc_driverlet_subset, record_usb_driverlet_subset,
    DEV_KEY,
};
use dlt_serve::{Device, DriverletService, Payload, Request, ServeConfig, ServeError, SubmitMode};
use dlt_tee::{SecureIo, TeeKernel};
use dlt_template::program::EvalScratch;
use dlt_template::{compile, Driverlet, SiteKind, Violation};
use serde::{Deserialize, Serialize};

/// Wall-clock deadline for a single divergence case (one solve plus the
/// replayer's three attempts). Generous: a healthy case is milliseconds;
/// only a genuine hang ever reaches this.
const CASE_DEADLINE: Duration = Duration::from_secs(60);

/// Wall-clock deadline for one serve-layer gauntlet case (service build,
/// seed traffic, faulted batch, health probe).
const SERVE_DEADLINE: Duration = Duration::from_secs(120);

/// The three gold drivers the campaign explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreDevice {
    /// SDHOST + secure SD card (templates `mmc_{rd,wr}_{blkcnt}`).
    Mmc,
    /// DWC2 + USB mass storage (templates `usb_{rd,wr}_{blkcnt}`).
    Usb,
    /// VCHIQ + VC4 camera (capture templates).
    Cam,
}

impl ExploreDevice {
    fn name(self) -> &'static str {
        match self {
            ExploreDevice::Mmc => "mmc",
            ExploreDevice::Usb => "usb",
            ExploreDevice::Cam => "vchiq",
        }
    }
}

/// Per-device constraint-coverage ledger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceLedger {
    /// Device name (`mmc`/`usb`/`vchiq`).
    pub device: String,
    /// Templates in the recorded bundle.
    pub templates: usize,
    /// Total enumerated `ConsOp` cases across all compiled programs.
    pub constraints_total: usize,
    /// Cases where the solver synthesised a violating input and the harness
    /// injected it into a live replay.
    pub flipped: usize,
    /// Flipped cases the stack rejected with the expected typed error
    /// (`OutOfCoverage` for parameter flips, `Diverged` for response and
    /// poll flips).
    pub confirmed_rejected: usize,
    /// Cases whose flip is absorbed by a sibling disjunct or sibling
    /// template (the site root stays satisfiable) — verified to *succeed*.
    pub shadowed: usize,
    /// Cases the solver could not falsify from leaf candidates.
    pub unfalsifiable: usize,
    /// Cases that panicked (caught by the harness).
    pub panics: usize,
    /// Cases that exceeded the per-case deadline.
    pub hangs: usize,
    /// Cases with any other unexpected outcome (wrong error type, silent
    /// acceptance of a violating input, ...).
    pub anomalies: usize,
    /// Human-readable descriptions of every panic/hang/anomaly.
    pub notes: Vec<String>,
}

impl DeviceLedger {
    fn new(device: &str) -> Self {
        DeviceLedger {
            device: device.to_string(),
            templates: 0,
            constraints_total: 0,
            flipped: 0,
            confirmed_rejected: 0,
            shadowed: 0,
            unfalsifiable: 0,
            panics: 0,
            hangs: 0,
            anomalies: 0,
            notes: Vec::new(),
        }
    }
}

/// Serve-layer gauntlet ledger: mid-batch fault injection through the
/// multi-tenant service, per-call and ring submission paths.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeLedger {
    /// Gauntlet cases run (device × submission mode).
    pub cases: usize,
    /// Completions that surfaced as typed `Replay(Diverged)` CQ errors.
    pub cq_errors: usize,
    /// Cases whose lane passed the post-divergence health check *and*
    /// returned an untouched session's bytes unchanged.
    pub healthy_lanes: usize,
    /// Cases that panicked.
    pub panics: usize,
    /// Cases that exceeded the deadline.
    pub hangs: usize,
    /// Cases with any other unexpected outcome.
    pub anomalies: usize,
    /// Human-readable descriptions of every panic/hang/anomaly.
    pub notes: Vec<String>,
}

impl ServeLedger {
    fn new() -> Self {
        ServeLedger {
            cases: 0,
            cq_errors: 0,
            healthy_lanes: 0,
            panics: 0,
            hangs: 0,
            anomalies: 0,
            notes: Vec::new(),
        }
    }
}

/// The whole campaign's result: the artefact behind `BENCH_explore.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExploreReport {
    /// Whether the reduced (`--quick`) campaign produced this report.
    pub quick: bool,
    /// One ledger per gold driver.
    pub devices: Vec<DeviceLedger>,
    /// The serve-layer gauntlet ledger.
    pub serve: ServeLedger,
}

impl ExploreReport {
    /// The divergence-robustness gate: every falsifiable constraint flipped,
    /// every flip confirmed-rejected with the right type, zero
    /// panics/hangs/anomalies, and every gauntlet lane healthy after
    /// injected divergence. Returns the full list of violations on failure.
    pub fn gate(&self) -> Result<(), String> {
        let mut problems = Vec::new();
        if self.devices.is_empty() {
            problems.push("no devices explored".to_string());
        }
        for d in &self.devices {
            let falsifiable = d.constraints_total.saturating_sub(d.shadowed + d.unfalsifiable);
            if d.constraints_total == 0 {
                problems.push(format!("{}: no constraints enumerated", d.device));
            }
            if d.flipped != falsifiable {
                problems.push(format!(
                    "{}: flipped {} of {} falsifiable constraints",
                    d.device, d.flipped, falsifiable
                ));
            }
            if d.confirmed_rejected != d.flipped {
                problems.push(format!(
                    "{}: only {} of {} flips were rejected with a typed error",
                    d.device, d.confirmed_rejected, d.flipped
                ));
            }
            if d.panics + d.hangs + d.anomalies > 0 {
                problems.push(format!(
                    "{}: {} panics, {} hangs, {} anomalies: {:?}",
                    d.device, d.panics, d.hangs, d.anomalies, d.notes
                ));
            }
        }
        let s = &self.serve;
        if s.cases == 0 {
            problems.push("serve gauntlet ran no cases".to_string());
        }
        if s.cq_errors == 0 {
            problems.push("serve gauntlet produced no typed CQ errors".to_string());
        }
        if s.healthy_lanes != s.cases {
            problems.push(format!(
                "serve gauntlet: only {} of {} lanes healthy after divergence",
                s.healthy_lanes, s.cases
            ));
        }
        if s.panics + s.hangs + s.anomalies > 0 {
            problems.push(format!(
                "serve gauntlet: {} panics, {} hangs, {} anomalies: {:?}",
                s.panics, s.hangs, s.anomalies, s.notes
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("\n"))
        }
    }
}

/// Serialize a report as pretty JSON (the `BENCH_explore.json` format).
pub fn to_json(report: &ExploreReport) -> String {
    serde_json::to_string_pretty(report).expect("explore report serializes")
}

/// Parse a previously persisted `BENCH_explore.json`.
pub fn parse_report(json: &str) -> Result<ExploreReport, String> {
    serde_json::from_str(json).map_err(|e| format!("malformed explore report: {e}"))
}

/// Write the report next to the other bench artefacts. Honours the
/// `BENCH_EXPLORE_OUT` environment variable; defaults to
/// `crates/bench/BENCH_explore.json` when run from the workspace root.
pub fn persist(report: &ExploreReport) -> std::io::Result<String> {
    let path = std::env::var("BENCH_EXPLORE_OUT").unwrap_or_else(|_| {
        if std::path::Path::new("crates/bench").is_dir() {
            "crates/bench/BENCH_explore.json".to_string()
        } else {
            "BENCH_explore.json".to_string()
        }
    });
    std::fs::write(&path, to_json(report))?;
    Ok(path)
}

/// Render the ledger as the table the `report` binary prints.
pub fn describe(report: &ExploreReport) -> String {
    let mut out = String::new();
    let mode = if report.quick { "quick" } else { "full" };
    out.push_str(&format!("== dlt-explore divergence-robustness ledger ({mode}) ==\n"));
    out.push_str(
        "device  templates  constraints  flipped  rejected  shadowed  unfalsifiable  \
         panics  hangs  anomalies\n",
    );
    for d in &report.devices {
        out.push_str(&format!(
            "{:<7} {:>9} {:>12} {:>8} {:>9} {:>9} {:>14} {:>7} {:>6} {:>10}\n",
            d.device,
            d.templates,
            d.constraints_total,
            d.flipped,
            d.confirmed_rejected,
            d.shadowed,
            d.unfalsifiable,
            d.panics,
            d.hangs,
            d.anomalies
        ));
    }
    let s = &report.serve;
    out.push_str(&format!(
        "serve gauntlet: {} cases, {} typed CQ errors, {}/{} lanes healthy after divergence, \
         {} panics, {} hangs, {} anomalies\n",
        s.cases, s.cq_errors, s.healthy_lanes, s.cases, s.panics, s.hangs, s.anomalies
    ));
    out
}

/// One case's classified outcome.
enum CaseOutcome {
    /// Violating input synthesised *and* rejected with the expected type.
    Confirmed,
    /// The flip is absorbed (sibling disjunct / sibling template) and the
    /// replay correctly still succeeds.
    Shadowed,
    /// The solver found no falsifying value for this leaf.
    Unfalsifiable,
    /// Anything unexpected. `injected` records whether a violating input
    /// made it into the stack (it counts as flipped but not confirmed).
    Anomaly {
        /// Whether a violating input was actually driven into the stack.
        injected: bool,
        /// What went wrong.
        msg: String,
    },
    /// The case panicked (caught by the per-case `catch_unwind`).
    Panicked(String),
}

/// Messages a template worker streams back to the campaign driver.
enum CaseMsg {
    /// Announced first: how many cases this template will run.
    Plan(usize),
    /// One finished case.
    Case { desc: String, outcome: CaseOutcome },
    /// The worker could not even start (compile failure etc.).
    Fatal(String),
}

fn attach_and_install(dev: ExploreDevice) -> Platform {
    let platform = Platform::new();
    let secure: &[&str] = match dev {
        ExploreDevice::Mmc => {
            MmcSubsystem::attach(&platform).expect("attach mmc");
            &["sdhost", "dma"]
        }
        ExploreDevice::Usb => {
            UsbSubsystem::attach(&platform).expect("attach usb");
            &["dwc2"]
        }
        ExploreDevice::Cam => {
            VchiqSubsystem::attach(&platform).expect("attach vchiq");
            &["vchiq"]
        }
    };
    TeeKernel::install(&platform, secure).expect("install tee");
    platform
}

/// A production rig: compiled-mode replayer over a fresh simulated platform
/// with the bundle loaded and verified.
fn build_rig(dev: ExploreDevice, bundle: &Driverlet) -> Replayer {
    let platform = attach_and_install(dev);
    let mut replayer = Replayer::new(SecureIo::new(platform.bus.clone()));
    replayer.load_driverlet(bundle.clone(), DEV_KEY).expect("load driverlet");
    replayer
}

/// Run every constraint case of one template, streaming results over `tx`.
fn template_worker(
    dev: ExploreDevice,
    bundle: Driverlet,
    tmpl_index: usize,
    tx: mpsc::Sender<CaseMsg>,
) {
    let template = &bundle.templates[tmpl_index];
    let name = template.name.clone();
    let entry = bundle.entry.clone();
    let prog = match compile(template) {
        Ok(p) => p,
        Err(e) => {
            let _ = tx.send(CaseMsg::Fatal(format!("{name}: compile failed: {e}")));
            return;
        }
    };
    let base = template.meta.recorded_with.clone();
    let sites = prog.constraint_sites();
    let total: usize = sites.iter().map(|s| s.cons.bounds().len()).sum();
    if tx.send(CaseMsg::Plan(total)).is_err() {
        return;
    }
    // Bind the recorded arguments — guaranteed in coverage — so symbolic
    // constraints solve against the exact register file the replay will run
    // with.
    let mut regs = vec![0u64; prog.num_slots()];
    let mut bound = vec![false; prog.num_slots()];
    prog.bind_args(&base, &mut regs, &mut bound);
    let mut scratch = EvalScratch::default();
    // The trustlet buffer: large enough for any block template; exactly the
    // recorded size for the camera (whose `buf_size` is itself a parameter).
    let buf_len = base.get("buf_size").map(|v| *v as usize).unwrap_or(0).max(2 << 20);
    let mut replayer = build_rig(dev, &bundle);

    for site in &sites {
        for index in site.cons.bounds() {
            let desc = format!("{name}: {} site at cons[{index}] ({})", site.kind.tag(), site.desc);
            let result = catch_unwind(AssertUnwindSafe(|| match site.kind {
                SiteKind::Param { slot, .. } => run_param_case(
                    &mut replayer,
                    &bundle,
                    &prog,
                    &entry,
                    &base,
                    site.cons,
                    index,
                    slot,
                    &regs,
                    &bound,
                    &mut scratch,
                    buf_len,
                ),
                SiteKind::Read { op, .. } | SiteKind::Poll { op, .. } => {
                    run_response_case(&mut replayer, &name, &entry, &base, op, index, buf_len)
                }
            }));
            let outcome = match result {
                Ok(o) => o,
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic payload".to_string());
                    // The rig may be mid-transaction after a panic; rebuild
                    // it so one bad case cannot poison the rest.
                    replayer = build_rig(dev, &bundle);
                    CaseOutcome::Panicked(msg)
                }
            };
            if tx.send(CaseMsg::Case { desc, outcome }).is_err() {
                return; // the driver gave up on us (deadline)
            }
        }
    }
}

/// A parameter-check case: solve for a violating *invoke argument* and
/// demand a typed `OutOfCoverage` from the real entry point.
#[allow(clippy::too_many_arguments)]
fn run_param_case(
    replayer: &mut Replayer,
    bundle: &Driverlet,
    prog: &dlt_template::ReplayProgram,
    entry: &str,
    base: &HashMap<String, u64>,
    cons: dlt_template::program::OpRange,
    index: usize,
    slot: dlt_template::program::Slot,
    regs: &[u64],
    bound: &[bool],
    scratch: &mut EvalScratch,
    buf_len: usize,
) -> CaseOutcome {
    match prog.solve_violation(cons, index, regs, bound, scratch) {
        Violation::Unfalsifiable => CaseOutcome::Unfalsifiable,
        Violation::Shadowed { .. } => CaseOutcome::Shadowed,
        Violation::Violates { value } => {
            let pname = prog.param_names[slot as usize].clone();
            let mut crafted = base.clone();
            crafted.insert(pname, value);
            // The violating value falsifies *this template's* check, but a
            // sibling template may legitimately cover it (e.g. a different
            // recorded granularity): that is shadowing, not a hole.
            if bundle.select(&crafted).is_some() {
                return CaseOutcome::Shadowed;
            }
            let pairs: Vec<(&str, u64)> = crafted.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            let mut buf = vec![0u8; buf_len];
            match replayer.invoke_args(entry, &pairs, &mut buf) {
                Err(ReplayError::OutOfCoverage { .. }) => CaseOutcome::Confirmed,
                Ok(_) => CaseOutcome::Anomaly {
                    injected: true,
                    msg: "violating arguments replayed successfully".to_string(),
                },
                Err(e) => CaseOutcome::Anomaly {
                    injected: true,
                    msg: format!("expected OutOfCoverage, got: {e}"),
                },
            }
        }
    }
}

/// A device-response case (`Read` op or `Poll` iteration): install a
/// [`ConstraintFlipper`] pinned to exactly this op and `ConsOp`, replay with
/// the recorded arguments, and demand a typed `Diverged`.
fn run_response_case(
    replayer: &mut Replayer,
    name: &str,
    entry: &str,
    base: &HashMap<String, u64>,
    op: usize,
    index: usize,
    buf_len: usize,
) -> CaseOutcome {
    let plan = FaultPlan {
        template: Some(name.to_string()),
        op_index: Some(op),
        cons_index: Some(index),
        skip_invocations: 0,
        sticky: true,
    };
    let (flipper, outcome) = ConstraintFlipper::new(plan);
    replayer.set_response_mutator(Box::new(flipper));
    let pairs: Vec<(&str, u64)> = base.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut buf = vec![0u8; buf_len];
    let result = replayer.invoke_args(entry, &pairs, &mut buf);
    replayer.clear_response_mutator();
    let o = outcome.lock().unwrap_or_else(|e| e.into_inner()).clone();
    match result {
        Err(ReplayError::Diverged(_)) if o.mutated_reads > 0 && !o.last_shadowed => {
            CaseOutcome::Confirmed
        }
        Err(ReplayError::Diverged(_)) => CaseOutcome::Anomaly {
            injected: o.mutated_reads > 0,
            msg: "diverged without a non-shadowed mutation".to_string(),
        },
        Ok(_) if o.mutated_reads > 0 && o.last_shadowed => CaseOutcome::Shadowed,
        Ok(_) if o.mutated_reads == 0 && o.unsolved > 0 => CaseOutcome::Unfalsifiable,
        Ok(_) if o.mutated_reads == 0 => CaseOutcome::Anomaly {
            injected: false,
            msg: "mutator never reached the target observation".to_string(),
        },
        Ok(_) => CaseOutcome::Anomaly {
            injected: true,
            msg: "mutated a live constraint yet the replay succeeded".to_string(),
        },
        Err(e) => CaseOutcome::Anomaly {
            injected: o.mutated_reads > 0,
            msg: format!("expected Diverged, got: {e}"),
        },
    }
}

/// Explore every template of one recorded bundle: enumerate, solve, drive,
/// classify. Each template runs on its own worker thread so the driver can
/// enforce the per-case deadline without trusting the replayer to
/// terminate.
pub fn explore_device(dev: ExploreDevice, bundle: &Driverlet) -> DeviceLedger {
    let mut ledger = DeviceLedger::new(dev.name());
    ledger.templates = bundle.templates.len();
    for (i, template) in bundle.templates.iter().enumerate() {
        let tname = template.name.clone();
        let (tx, rx) = mpsc::channel();
        let worker_bundle = bundle.clone();
        let handle = thread::Builder::new()
            .name(format!("explore-{tname}"))
            .spawn(move || template_worker(dev, worker_bundle, i, tx))
            .expect("spawn explore worker");
        let mut expected: Option<usize> = None;
        let mut received = 0usize;
        let mut abandoned = false;
        loop {
            match rx.recv_timeout(CASE_DEADLINE) {
                Ok(CaseMsg::Plan(cases)) => {
                    ledger.constraints_total += cases;
                    expected = Some(cases);
                    if cases == 0 {
                        break;
                    }
                }
                Ok(CaseMsg::Case { desc, outcome }) => {
                    received += 1;
                    match outcome {
                        CaseOutcome::Confirmed => {
                            ledger.flipped += 1;
                            ledger.confirmed_rejected += 1;
                        }
                        CaseOutcome::Shadowed => ledger.shadowed += 1,
                        CaseOutcome::Unfalsifiable => ledger.unfalsifiable += 1,
                        CaseOutcome::Anomaly { injected, msg } => {
                            if injected {
                                ledger.flipped += 1;
                            }
                            ledger.anomalies += 1;
                            ledger.notes.push(format!("{desc}: {msg}"));
                        }
                        CaseOutcome::Panicked(msg) => {
                            ledger.panics += 1;
                            ledger.notes.push(format!("{desc}: panicked: {msg}"));
                        }
                    }
                    if Some(received) == expected {
                        break;
                    }
                }
                Ok(CaseMsg::Fatal(msg)) => {
                    ledger.anomalies += 1;
                    ledger.notes.push(msg);
                    break;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    ledger.hangs += 1;
                    ledger.notes.push(format!(
                        "{tname}: case deadline ({CASE_DEADLINE:?}) exceeded after {received} cases"
                    ));
                    abandoned = true;
                    break;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Worker died outside a case (rig construction etc.).
                    ledger.panics += 1;
                    ledger.notes.push(format!(
                        "{tname}: worker died after {received} cases without reporting"
                    ));
                    abandoned = true;
                    break;
                }
            }
        }
        if !abandoned {
            let _ = handle.join();
        }
        // An abandoned handle leaks a detached thread; the process-level
        // gate already failed, so correctness is preserved.
    }
    ledger
}

/// Per-(request,block) pattern data so stale bytes are detectable.
fn pattern(tag: u64, blocks: usize) -> Vec<u8> {
    let mut data = vec![0u8; blocks * dlt_serve::BLOCK];
    for (i, b) in data.iter_mut().enumerate() {
        *b = ((tag as usize).wrapping_mul(131) ^ i.wrapping_mul(7)) as u8;
    }
    data
}

/// One serve-layer gauntlet case: inject a sticky read fault mid-batch
/// (skipping the first read invocation), assert exactly the faulted reads
/// surface as typed CQ errors, then prove the lane recovered: health probe
/// passes and an untouched session's seeded bytes read back unchanged.
fn run_serve_case(
    device: Device,
    mode: SubmitMode,
    bundle: Driverlet,
    grans: Vec<u32>,
) -> Result<usize, String> {
    let config = ServeConfig {
        submit_mode: mode,
        coalesce: false,
        hold_budget_ns: 0,
        block_granularities: grans,
        ..ServeConfig::default()
    };
    let mut service = DriverletService::with_driverlets(&[(device, bundle)], config)
        .map_err(|e| format!("build service: {e}"))?;
    let untouched = service.open_session().map_err(|e| format!("open session: {e}"))?;
    let victim = service.open_session().map_err(|e| format!("open session: {e}"))?;

    // Seed: the untouched session writes a recognisable pattern.
    let seed = pattern(0xE5, 16);
    service
        .submit(untouched, Request::Write { device, blkid: 300, data: seed.clone() })
        .map_err(|e| format!("seed write: {e}"))?;
    service.drain_all();

    // Mid-batch: the first read invocation passes, every later one is hit.
    let fault = service
        .inject_fault(
            device,
            FaultPlan {
                template: Some("_rd_".to_string()),
                skip_invocations: 1,
                sticky: true,
                ..FaultPlan::default()
            },
        )
        .map_err(|e| format!("inject fault: {e}"))?;
    for i in 0..3u32 {
        service
            .submit(victim, Request::Read { device, blkid: 600 + 8 * i, blkcnt: 8 })
            .map_err(|e| format!("victim submit: {e}"))?;
    }
    let completions = service.drain_all();
    if completions.len() != 3 {
        return Err(format!("expected 3 victim completions, got {}", completions.len()));
    }
    let mut ok = 0usize;
    let mut cq = 0usize;
    for c in &completions {
        match &c.result {
            Ok(_) => ok += 1,
            Err(ServeError::Replay(ReplayError::Diverged(_))) => cq += 1,
            Err(e) => return Err(format!("untyped completion error: {e}")),
        }
        if c.completed_ns < c.submitted_ns {
            return Err(format!("request {} completed before submission", c.id));
        }
    }
    if ok != 1 || cq != 2 {
        return Err(format!(
            "mid-batch fault: expected 1 ok + 2 diverged, got {ok} ok + {cq} diverged"
        ));
    }
    let engaged = fault.lock().map(|o| o.engaged_invocations).unwrap_or(0);
    if engaged < 2 {
        return Err(format!("fault engaged only {engaged} invocations"));
    }

    // Recovery: fault cleared, lane healthy, untouched bytes intact. The
    // structured report must corroborate what this harness observed from
    // the completions: a drained queue, the seed write plus the lone
    // surviving read completed, both divergences counted, and a
    // last-activity stamp proving the probe itself registered.
    service.clear_fault(device).map_err(|e| format!("clear fault: {e}"))?;
    let health = service
        .lane_health_check(device)
        .map_err(|e| format!("lane unhealthy after divergence: {e}"))?;
    if health.device != device {
        return Err(format!("health report for {} from a {device} probe", health.device));
    }
    if health.queued != 0 || health.inflight != 0 {
        return Err(format!(
            "lane not quiescent after drain: {} queued, {} in flight",
            health.queued, health.inflight
        ));
    }
    if health.completed < 2 {
        return Err(format!("health reports {} completions, expected >= 2", health.completed));
    }
    if health.diverged != cq as u64 {
        return Err(format!(
            "health reports {} divergences, the CQ surfaced {cq}",
            health.diverged
        ));
    }
    if health.last_event_host_ns == 0 {
        return Err("health probe left no last-activity stamp".to_string());
    }
    let id = service
        .submit(untouched, Request::Read { device, blkid: 300, blkcnt: 16 })
        .map_err(|e| format!("readback submit: {e}"))?;
    let c = service
        .drain_all()
        .into_iter()
        .find(|c| c.id == id)
        .ok_or_else(|| "missing readback completion".to_string())?;
    match c.result {
        Ok(Payload::Read(bytes)) if bytes == seed => Ok(cq),
        Ok(Payload::Read(_)) => {
            Err("untouched session's bytes changed after divergence".to_string())
        }
        Ok(_) => Err("readback returned a non-read payload".to_string()),
        Err(e) => Err(format!("readback failed: {e}")),
    }
}

/// Run the serve gauntlet over the given bundles: each (device, bundle)
/// pair runs once per submission path, deadline- and panic-wrapped.
pub fn serve_gauntlet(bundles: &[(Device, Driverlet)], grans: &[u32]) -> ServeLedger {
    let mut ledger = ServeLedger::new();
    for (device, bundle) in bundles {
        for mode in [SubmitMode::PerCall, SubmitMode::Ring] {
            ledger.cases += 1;
            let desc = format!("{device} via {mode:?}");
            let (tx, rx) = mpsc::channel();
            let case_bundle = bundle.clone();
            let case_grans = grans.to_vec();
            let dev = *device;
            let handle = thread::Builder::new()
                .name(format!("gauntlet-{desc}"))
                .spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        run_serve_case(dev, mode, case_bundle, case_grans)
                    }));
                    let _ = tx.send(result);
                })
                .expect("spawn gauntlet worker");
            match rx.recv_timeout(SERVE_DEADLINE) {
                Ok(Ok(Ok(cq))) => {
                    ledger.cq_errors += cq;
                    ledger.healthy_lanes += 1;
                    let _ = handle.join();
                }
                Ok(Ok(Err(msg))) => {
                    ledger.anomalies += 1;
                    ledger.notes.push(format!("{desc}: {msg}"));
                    let _ = handle.join();
                }
                Ok(Err(_panic)) => {
                    ledger.panics += 1;
                    ledger.notes.push(format!("{desc}: panicked"));
                    let _ = handle.join();
                }
                Err(_) => {
                    ledger.hangs += 1;
                    ledger.notes.push(format!("{desc}: deadline ({SERVE_DEADLINE:?}) exceeded"));
                }
            }
        }
    }
    ledger
}

/// Run the whole campaign: record the three gold-driver bundles, explore
/// every compiled constraint, then run the serve gauntlet. `quick` trims
/// the recorded granularities/bursts (CI-sized); the full campaign records
/// the paper's complete Table 3 granularity set.
pub fn run_explore(quick: bool) -> ExploreReport {
    let grans: Vec<u32> = if quick { vec![1, 8] } else { vec![1, 8, 32, 128, 256] };
    let bursts: Vec<u32> = if quick { vec![1] } else { vec![1, 10] };

    let mmc = record_mmc_driverlet_subset(&grans).expect("record mmc bundle");
    let usb = record_usb_driverlet_subset(&grans).expect("record usb bundle");
    let cam = record_camera_driverlet_subset(&bursts).expect("record camera bundle");

    let devices = vec![
        explore_device(ExploreDevice::Mmc, &mmc),
        explore_device(ExploreDevice::Usb, &usb),
        explore_device(ExploreDevice::Cam, &cam),
    ];

    let mut gauntlet: Vec<(Device, Driverlet)> = vec![(Device::Mmc, mmc)];
    if !quick {
        gauntlet.push((Device::Usb, usb));
    }
    let serve = serve_gauntlet(&gauntlet, &grans);

    ExploreReport { quick, devices, serve }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_block_mmc_exploration_flips_every_falsifiable_constraint() {
        let bundle = record_mmc_driverlet_subset(&[1]).expect("record mmc");
        let ledger = explore_device(ExploreDevice::Mmc, &bundle);
        assert!(ledger.constraints_total > 0, "mmc programs must expose constraints");
        assert_eq!(
            ledger.flipped,
            ledger.constraints_total - ledger.shadowed - ledger.unfalsifiable,
            "every falsifiable constraint must be flipped; notes: {:?}",
            ledger.notes
        );
        assert_eq!(
            ledger.confirmed_rejected, ledger.flipped,
            "every flip must be rejected typed; notes: {:?}",
            ledger.notes
        );
        assert_eq!(
            ledger.panics + ledger.hangs + ledger.anomalies,
            0,
            "no case may panic, hang or misbehave; notes: {:?}",
            ledger.notes
        );
        assert!(ledger.flipped > 0, "at least one constraint must actually flip");
    }

    #[test]
    fn serve_gauntlet_confirms_typed_cq_errors_and_lane_health() {
        let grans = [1u32, 8];
        let bundle = record_mmc_driverlet_subset(&grans).expect("record mmc");
        let ledger = serve_gauntlet(&[(Device::Mmc, bundle)], &grans);
        assert_eq!(ledger.cases, 2, "per-call and ring paths");
        assert_eq!(
            ledger.healthy_lanes, ledger.cases,
            "every lane must recover; notes: {:?}",
            ledger.notes
        );
        assert_eq!(ledger.cq_errors, 4, "two typed CQ errors per case; notes: {:?}", ledger.notes);
        assert_eq!(ledger.panics + ledger.hangs + ledger.anomalies, 0, "{:?}", ledger.notes);
    }

    #[test]
    fn ledger_json_roundtrips_and_gates() {
        let mut report = ExploreReport {
            quick: true,
            devices: vec![DeviceLedger {
                templates: 2,
                constraints_total: 10,
                flipped: 7,
                confirmed_rejected: 7,
                shadowed: 2,
                unfalsifiable: 1,
                ..DeviceLedger::new("mmc")
            }],
            serve: ServeLedger { cases: 2, cq_errors: 4, healthy_lanes: 2, ..ServeLedger::new() },
        };
        report.gate().expect("a complete ledger passes the gate");
        let parsed = parse_report(&to_json(&report)).expect("roundtrip");
        assert_eq!(parsed.devices[0].flipped, 7);
        parsed.gate().expect("parsed ledger still passes");

        report.devices[0].confirmed_rejected = 6;
        let err = report.gate().expect_err("an unconfirmed flip must fail the gate");
        assert!(err.contains("6 of 7"), "gate names the shortfall: {err}");
        report.devices[0].confirmed_rejected = 7;
        report.serve.healthy_lanes = 1;
        assert!(report.gate().is_err(), "an unhealthy lane must fail the gate");
        assert!(parse_report("not json").is_err(), "malformed ledgers are typed errors");
    }
}
