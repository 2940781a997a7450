//! The transactional template replayer.
//!
//! Loading a driverlet compiles every vetted template into a flat
//! [`ReplayProgram`] (`dlt_template::program`): parameter/capture names are
//! interned to register-file slots, expression and constraint trees are
//! flattened to postfix ops, interfaces are pre-resolved and register
//! windows are checked once. Invocation then runs a branch-on-opcode loop
//! against a reusable scratch arena — no template clone, no argument-map
//! clone, no per-event allocation on the divergence-free path (payload
//! copies land directly in the trustlet buffer and random bytes fill a
//! pre-sized scratch buffer) — on one [`HeldIo`] view, so an invocation
//! takes the platform's bus lock once, after template selection.
//!
//! The pre-compilation tree-walking interpreter survives as
//! [`ReplayMode::Interpreted`] (the private `interp` module); both paths
//! charge identical virtual-time costs, so the `replay_throughput` bench
//! isolates the host-CPU cost of the execution strategy.

use std::collections::HashMap;

use dlt_hw::DmaRegion;
use dlt_obs::trace::{EventKind, TraceHandle};
use dlt_tee::{HeldIo, SecureIo, TeeError};
use dlt_template::program::{CIface, CSink, EvalScratch, Op, ReplayProgram, NO_SLOT};
use dlt_template::{compile, Driverlet, SignError, SourceSite};

use crate::inject::{MutationCtx, ResponseMutator};

/// Replay errors surfaced to the trustlet.
#[derive(Debug, Clone)]
pub enum ReplayError {
    /// The trustlet's arguments fall outside the recorded input-space
    /// coverage (no template matches).
    OutOfCoverage {
        /// The replay entry invoked.
        entry: String,
    },
    /// The driverlet bundle failed signature verification; the wrapped
    /// [`SignError`] is preserved as the [`std::error::Error::source`].
    Signature(SignError),
    /// A template failed static vetting, hardening checks or compilation at
    /// load time.
    InvalidTemplate(String),
    /// No driverlet is loaded for the requested entry.
    UnknownEntry(String),
    /// Replay kept diverging despite resets; the report pinpoints the
    /// failing event and its gold-driver recording site.
    Diverged(Box<DivergenceReport>),
    /// A TEE service failed (secure memory exhausted, bus fault, ...); the
    /// wrapped [`TeeError`] is preserved as the
    /// [`std::error::Error::source`].
    Tee(TeeError),
    /// Malformed trustlet request (bad buffer size etc.).
    Invalid(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::OutOfCoverage { entry } => {
                write!(f, "request to {entry} is outside the recorded input coverage")
            }
            ReplayError::Signature(s) => write!(f, "driverlet signature: {s}"),
            ReplayError::InvalidTemplate(s) => write!(f, "invalid template: {s}"),
            ReplayError::UnknownEntry(e) => write!(f, "no driverlet loaded for entry {e}"),
            ReplayError::Diverged(r) => write!(
                f,
                "replay of {} diverged after {} attempts at event {} ({} @ {}:{}): {}",
                r.template,
                r.attempts,
                r.failure.event_index,
                r.failure.event,
                r.failure.site.file,
                r.failure.site.line,
                r.failure.reason
            ),
            ReplayError::Tee(e) => write!(f, "TEE service failure: {e}"),
            ReplayError::Invalid(s) => write!(f, "invalid request: {s}"),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Tee(e) => Some(e),
            ReplayError::Signature(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TeeError> for ReplayError {
    fn from(e: TeeError) -> Self {
        ReplayError::Tee(e)
    }
}

/// Description of one divergence occurrence.
#[derive(Debug, Clone)]
pub struct DivergenceEvent {
    /// Index of the failing event within the template.
    pub event_index: usize,
    /// Gold-driver recording site of the failing event.
    pub site: SourceSite,
    /// Rendered event.
    pub event: String,
    /// Observed value (if the failure was a constraint violation).
    pub observed: Option<u64>,
    /// Human-readable reason.
    pub reason: String,
}

/// Report returned when replay fails persistently.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// Template that failed.
    pub template: String,
    /// Number of execution attempts (including re-executions after reset).
    pub attempts: u32,
    /// Number of events that executed successfully in the last attempt.
    pub executed_before_failure: usize,
    /// The failing event of the last attempt.
    pub failure: DivergenceEvent,
}

/// Which execution engine serves invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayMode {
    /// The flat compiled replay program (production path).
    #[default]
    Compiled,
    /// The reference tree-walking interpreter (baseline for the
    /// `replay_throughput` bench and differential tests).
    Interpreted,
}

/// Template executions per invocation: the first try plus two
/// re-executions after a soft reset (§5).
const MAX_ATTEMPTS: u32 = 3;

/// Replayer configuration.
#[derive(Debug, Clone, Default)]
pub struct ReplayConfig {
    /// Execution engine.
    pub mode: ReplayMode,
}

impl ReplayConfig {
    /// The configuration running the interpreted baseline.
    pub fn interpreted() -> Self {
        ReplayConfig { mode: ReplayMode::Interpreted }
    }
}

/// Cumulative replayer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Trustlet invocations served.
    pub invocations: u64,
    /// Template executions (including retries).
    pub executions: u64,
    /// Device soft resets issued.
    pub resets: u64,
    /// Divergences observed (including recovered ones).
    pub divergences: u64,
    /// Events executed.
    pub events_executed: u64,
    /// Interrupt waits performed (interrupt-context switches).
    pub irq_waits: u64,
    /// Payload bytes moved to/from trustlet buffers.
    pub payload_bytes: u64,
}

/// Outcome of a successful invocation.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutcome {
    /// Payload bytes copied into or out of the trustlet buffer.
    pub payload_bytes: u64,
    /// Values captured from the device during the replay (e.g. the image
    /// size the camera assigned).
    pub captured: HashMap<String, u64>,
    /// Number of events executed.
    pub events: usize,
    /// Whether a divergence was recovered by reset + re-execution.
    pub recovered_divergence: bool,
}

/// A loaded bundle: the signed artefact plus its compiled programs (one per
/// template, in template order).
struct LoadedDriverlet {
    bundle: Driverlet,
    programs: Vec<ReplayProgram>,
}

/// Reusable execution scratch. Sized at load time for the largest loaded
/// program so the hot path never grows it.
#[derive(Default)]
struct Scratch {
    /// Register file: `[params.. | captures.. | dma bases..]`.
    regs: Vec<u64>,
    /// Bound flags, parallel to `regs`.
    bound: Vec<bool>,
    /// Expression/constraint evaluation stacks.
    eval: EvalScratch,
    /// DMA allocations of the running attempt.
    dma: Vec<DmaRegion>,
    /// Random-byte fill buffer.
    rand: Vec<u8>,
}

impl Scratch {
    fn reserve_for(&mut self, prog: &ReplayProgram) {
        if self.regs.len() < prog.num_slots() {
            self.regs.resize(prog.num_slots(), 0);
            self.bound.resize(prog.num_slots(), false);
        }
        self.eval.reserve_for(prog);
        // `reserve` is relative to the length and the table is cleared
        // between attempts, so reserving the full count is exact.
        if self.dma.capacity() < prog.num_dma as usize {
            self.dma.reserve(prog.num_dma as usize);
        }
        // A larger request fails before it reaches this buffer, so a
        // hostile bundle cannot size it past the RNG FIFO.
        let rand_len = prog.max_rand_len.min(dlt_tee::RNG_MAX_REQUEST);
        if self.rand.len() < rand_len {
            self.rand.resize(rand_len, 0);
        }
    }
}

/// The driverlet replayer.
pub struct Replayer {
    io: SecureIo,
    driverlets: HashMap<String, LoadedDriverlet>,
    config: ReplayConfig,
    stats: ReplayStats,
    scratch: Scratch,
    /// Optional device-response fault injector (test harnesses only); the
    /// compiled engine consults it on every constrained observation.
    mutator: Option<Box<dyn ResponseMutator>>,
    /// Optional flight-recorder handle; emits `ReplayStart`/`ReplayEnd`
    /// around every compiled invocation when the serving layer runs with
    /// tracing enabled.
    tracer: Option<TraceHandle>,
}

pub(crate) enum ExecFailure {
    Divergence(DivergenceEvent, usize),
    Tee(TeeError),
}

impl Replayer {
    /// Create a replayer over the TEE's secure services.
    pub fn new(io: SecureIo) -> Self {
        Self::with_config(io, ReplayConfig::default())
    }

    /// Create a replayer with an explicit configuration.
    pub fn with_config(io: SecureIo, config: ReplayConfig) -> Self {
        Replayer {
            io,
            driverlets: HashMap::new(),
            config,
            stats: ReplayStats::default(),
            scratch: Scratch::default(),
            mutator: None,
            tracer: None,
        }
    }

    /// Install a device-response mutator. Every subsequent compiled
    /// invocation offers the mutator its constrained observations (`Read`
    /// ops and poll iterations); the interpreted baseline never consults
    /// it. Used by the divergence-robustness harnesses (`dlt-explore`).
    pub fn set_response_mutator(&mut self, mutator: Box<dyn ResponseMutator>) {
        self.mutator = Some(mutator);
    }

    /// Remove any installed response mutator, restoring faithful replay.
    pub fn clear_response_mutator(&mut self) {
        self.mutator = None;
    }

    /// Install a flight-recorder handle. Every subsequent compiled
    /// invocation brackets its replay with `ReplayStart`/`ReplayEnd`
    /// events stamped in this replayer's virtual time.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = Some(tracer);
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }

    /// Direct access to the TEE services (trustlets share them).
    pub fn io_mut(&mut self) -> &mut SecureIo {
        &mut self.io
    }

    /// Current virtual time of the core this replayer executes on. Every
    /// replayer charges all of its work to its own platform's clock, so in
    /// a multi-core deployment this is the *lane-local* timeline (the
    /// serve layer reads lane time through this).
    pub fn now_ns(&self) -> u64 {
        self.io.now_ns()
    }

    /// Entries currently served.
    pub fn entries(&self) -> Vec<String> {
        self.driverlets.keys().cloned().collect()
    }

    /// Load a driverlet bundle: verify the developer signature, statically
    /// vet every template, harden against templates that reference registers
    /// outside secure device windows, and lower each template into its flat
    /// replay program.
    pub fn load_driverlet(&mut self, bundle: Driverlet, key: &[u8]) -> Result<(), ReplayError> {
        bundle.verify(key).map_err(ReplayError::Signature)?;
        bundle.validate().map_err(ReplayError::InvalidTemplate)?;
        let mut programs = Vec::with_capacity(bundle.templates.len());
        for t in &bundle.templates {
            let window = self
                .io
                .device_window(&t.device)
                .map_err(|e| ReplayError::InvalidTemplate(format!("{}: {e}", t.name)))?;
            if !self.io.is_device_secure(&t.device) {
                return Err(ReplayError::InvalidTemplate(format!(
                    "{}: device {} is not assigned to the TEE",
                    t.name, t.device
                )));
            }
            for addr in t.registers_touched() {
                if !window.contains(addr, 4) {
                    // Templates may legitimately touch a second secure device
                    // (the MMC templates drive the system DMA engine); accept
                    // registers that fall inside *any* secure device window.
                    if self.io.secure_device_containing(addr, 4).is_none() {
                        return Err(ReplayError::InvalidTemplate(format!(
                            "{}: register {addr:#x} is outside every secure device window",
                            t.name
                        )));
                    }
                }
            }
            let prog =
                compile(t).map_err(|e| ReplayError::InvalidTemplate(format!("{}: {e}", t.name)))?;
            self.scratch.reserve_for(&prog);
            programs.push(prog);
        }
        self.driverlets.insert(bundle.entry.clone(), LoadedDriverlet { bundle, programs });
        Ok(())
    }

    /// Invoke a replay entry with borrowed `(name, value)` argument pairs
    /// and a payload buffer — the zero-allocation trustlet entry path
    /// (`replay_mmc(..)` and friends). The compiled engine binds the pairs
    /// straight into its register file; the interpreted baseline builds the
    /// name-keyed map it always needed.
    pub fn invoke_args(
        &mut self,
        entry: &str,
        args: &[(&str, u64)],
        buf: &mut [u8],
    ) -> Result<ReplayOutcome, ReplayError> {
        self.stats.invocations += 1;
        match self.config.mode {
            ReplayMode::Compiled => self.invoke_compiled(entry, args, buf),
            ReplayMode::Interpreted => {
                let map: HashMap<String, u64> =
                    args.iter().map(|(k, v)| (k.to_string(), *v)).collect();
                self.invoke_interpreted(entry, &map, buf)
            }
        }
    }

    fn invoke_compiled(
        &mut self,
        entry: &str,
        args: &[(&str, u64)],
        buf: &mut [u8],
    ) -> Result<ReplayOutcome, ReplayError> {
        let this = &mut *self;
        let ld = this
            .driverlets
            .get(entry)
            .ok_or_else(|| ReplayError::UnknownEntry(entry.to_string()))?;
        // Template selection on the compiled parameter checks: bind the
        // arguments into the scratch register file and test each program.
        let mut selected = None;
        for prog in &ld.programs {
            prog.bind_arg_slice(args, &mut this.scratch.regs, &mut this.scratch.bound);
            if prog.matches_regs(&this.scratch.regs, &this.scratch.bound, &mut this.scratch.eval) {
                selected = Some(prog);
                break;
            }
        }
        let prog =
            selected.ok_or_else(|| ReplayError::OutOfCoverage { entry: entry.to_string() })?;
        // One bus acquisition serves the whole invocation: resets, attempts
        // and trace stamps all run on this view.
        let mut io = this.io.hold();
        if let Some(t) = this.tracer.as_mut() {
            t.emit(EventKind::ReplayStart, io.now_ns(), 0, 0, prog.ops.len() as u64);
        }

        // A mutator engages once per invocation and is then consulted on
        // every attempt — a persisting fault exhausts the retry budget and
        // surfaces as a typed `Diverged`, exactly like a broken device.
        let engaged = match this.mutator.as_mut() {
            Some(m) => m.begin_invocation(prog),
            None => false,
        };

        let mut last_failure: Option<(DivergenceEvent, usize)> = None;
        let mut attempts = 0u32;
        while attempts < MAX_ATTEMPTS {
            attempts += 1;
            this.stats.executions += 1;
            // Soft reset before every execution and between retries (§5).
            io.soft_reset_device(&prog.device)?;
            io.dma_release_all();
            this.stats.resets += 1;
            // Re-bind: clears capture and DMA slots from the prior attempt.
            prog.bind_arg_slice(args, &mut this.scratch.regs, &mut this.scratch.bound);
            this.scratch.dma.clear();
            let mutator = if engaged {
                this.mutator.as_mut().map(|m| &mut **m as &mut dyn ResponseMutator)
            } else {
                None
            };
            match exec_program(&mut io, &mut this.stats, &mut this.scratch, prog, buf, mutator) {
                Ok(payload_bytes) => {
                    let mut captured = HashMap::new();
                    for (i, name) in prog.capture_names.iter().enumerate() {
                        let slot = prog.param_names.len() + i;
                        if this.scratch.bound[slot] {
                            captured.insert(name.clone(), this.scratch.regs[slot]);
                        }
                    }
                    this.stats.payload_bytes += payload_bytes;
                    if let Some(t) = this.tracer.as_mut() {
                        t.emit(EventKind::ReplayEnd, io.now_ns(), 0, 0, u64::from(attempts));
                    }
                    return Ok(ReplayOutcome {
                        payload_bytes,
                        captured,
                        events: prog.ops.len(),
                        recovered_divergence: last_failure.is_some(),
                    });
                }
                Err(ExecFailure::Divergence(event, executed)) => {
                    this.stats.divergences += 1;
                    last_failure = Some((event, executed));
                }
                Err(ExecFailure::Tee(e)) => return Err(ReplayError::Tee(e)),
            }
        }
        let (failure, executed) = last_failure.expect("at least one attempt must have run");
        if let Some(t) = this.tracer.as_mut() {
            t.emit(EventKind::ReplayEnd, io.now_ns(), 0, 0, u64::from(attempts));
        }
        Err(ReplayError::Diverged(Box::new(DivergenceReport {
            template: prog.name.clone(),
            attempts,
            executed_before_failure: executed,
            failure,
        })))
    }

    fn invoke_interpreted(
        &mut self,
        entry: &str,
        args: &HashMap<String, u64>,
        buf: &mut [u8],
    ) -> Result<ReplayOutcome, ReplayError> {
        let bundle = &self
            .driverlets
            .get(entry)
            .ok_or_else(|| ReplayError::UnknownEntry(entry.to_string()))?
            .bundle;
        let template = bundle
            .select(args)
            .ok_or_else(|| ReplayError::OutOfCoverage { entry: entry.to_string() })?
            .clone();
        let mut io = self.io.hold();

        let mut last_failure: Option<(DivergenceEvent, usize)> = None;
        let mut attempts = 0u32;
        while attempts < MAX_ATTEMPTS {
            attempts += 1;
            self.stats.executions += 1;
            io.soft_reset_device(&template.device)?;
            io.dma_release_all();
            self.stats.resets += 1;
            match crate::interp::execute_once(&mut io, &mut self.stats, &template, args, buf) {
                Ok(mut outcome) => {
                    outcome.recovered_divergence = last_failure.is_some();
                    self.stats.payload_bytes += outcome.payload_bytes;
                    return Ok(outcome);
                }
                Err(ExecFailure::Divergence(event, executed)) => {
                    self.stats.divergences += 1;
                    last_failure = Some((event, executed));
                }
                Err(ExecFailure::Tee(e)) => return Err(ReplayError::Tee(e)),
            }
        }
        let (failure, executed) = last_failure.expect("at least one attempt must have run");
        Err(ReplayError::Diverged(Box::new(DivergenceReport {
            template: template.name.clone(),
            attempts,
            executed_before_failure: executed,
            failure,
        })))
    }
}

/// Build a divergence failure from precompiled op metadata (cold path: the
/// only formatting the compiled engine ever does).
#[cold]
fn diverge(
    prog: &ReplayProgram,
    op_idx: usize,
    observed: Option<u64>,
    reason: String,
) -> ExecFailure {
    let m = &prog.meta[op_idx];
    ExecFailure::Divergence(
        DivergenceEvent {
            event_index: m.src_index as usize,
            site: m.site.clone(),
            event: m.desc.clone(),
            observed,
            reason,
        },
        m.src_index as usize,
    )
}

#[cold]
fn unbound(prog: &ReplayProgram, op_idx: usize, what: &str) -> ExecFailure {
    diverge(prog, op_idx, None, format!("{what} references an unbound symbol"))
}

#[cold]
fn missing_dma(alloc: u32) -> ExecFailure {
    ExecFailure::Tee(TeeError::Hw(dlt_hw::HwError::DeviceError {
        device: "dma".into(),
        reason: format!("dma[{alloc}] not allocated"),
    }))
}

fn read_ciface(io: &mut HeldIo<'_>, iface: CIface, dma: &[DmaRegion]) -> Result<u32, ExecFailure> {
    match iface {
        CIface::Reg(addr) => io.readl(addr).map_err(ExecFailure::Tee),
        CIface::Shm { alloc, offset } => {
            let region = *dma.get(alloc as usize).ok_or_else(|| missing_dma(alloc))?;
            io.shm_read32(region, offset).map_err(ExecFailure::Tee)
        }
    }
}

/// Execute one attempt of a compiled program. The divergence-free path
/// performs no heap allocation: all dynamic state lives in `scratch`.
fn exec_program(
    io: &mut HeldIo<'_>,
    stats: &mut ReplayStats,
    scratch: &mut Scratch,
    prog: &ReplayProgram,
    buf: &mut [u8],
    mut mutator: Option<&mut dyn ResponseMutator>,
) -> Result<u64, ExecFailure> {
    let dispatch_ns = io.cost().replay_event_dispatch_ns;
    let mut payload_bytes = 0u64;

    for (op_idx, op) in prog.ops.iter().enumerate() {
        stats.events_executed += 1;
        // Polls charge per iteration below; everything else is one dispatch.
        if !matches!(op, Op::Poll { .. }) {
            io.charge_ns(dispatch_ns);
        }
        match *op {
            Op::Read { iface, cons, sink } => {
                let mut value = read_ciface(io, iface, &scratch.dma)? as u64;
                if let Some(m) = mutator.as_deref_mut() {
                    let ctx = MutationCtx {
                        program: prog,
                        op_index: op_idx,
                        cons,
                        observed: value,
                        regs: &scratch.regs,
                        bound: &scratch.bound,
                        poll_iteration: None,
                    };
                    if let Some(v) = m.mutate(&ctx) {
                        value = v;
                    }
                }
                if !prog.check_cons(cons, value, &scratch.regs, &scratch.bound, &mut scratch.eval) {
                    return Err(diverge(
                        prog,
                        op_idx,
                        Some(value),
                        format!("constraint \"{}\" violated", prog.meta[op_idx].cons_desc),
                    ));
                }
                match sink {
                    CSink::Discard => {}
                    CSink::Capture(slot) => {
                        scratch.regs[slot as usize] = value;
                        scratch.bound[slot as usize] = true;
                    }
                    CSink::UserData(offset) => {
                        let off = offset as usize;
                        if off.checked_add(4).is_none_or(|end| end > buf.len()) {
                            return Err(diverge(
                                prog,
                                op_idx,
                                Some(value),
                                "user-data sink outside the trustlet buffer".into(),
                            ));
                        }
                        buf[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes());
                        payload_bytes += 4;
                    }
                }
            }
            Op::Write { iface, value } => {
                let v = prog
                    .eval_expr(value, &scratch.regs, &scratch.bound, &mut scratch.eval)
                    .ok_or_else(|| unbound(prog, op_idx, "output expression"))?;
                match iface {
                    CIface::Reg(addr) => {
                        io.writel(addr, v as u32).map_err(ExecFailure::Tee)?;
                    }
                    CIface::Shm { alloc, offset } => {
                        let region =
                            *scratch.dma.get(alloc as usize).ok_or_else(|| missing_dma(alloc))?;
                        io.shm_write32(region, offset, v as u32).map_err(ExecFailure::Tee)?;
                    }
                }
            }
            Op::DmaAlloc { len, slot } => {
                let n = prog
                    .eval_expr(len, &scratch.regs, &scratch.bound, &mut scratch.eval)
                    .ok_or_else(|| unbound(prog, op_idx, "allocation size"))?
                    as usize;
                let region = io.dma_alloc(n).map_err(ExecFailure::Tee)?;
                scratch.regs[slot as usize] = region.base;
                scratch.bound[slot as usize] = true;
                scratch.dma.push(region);
            }
            Op::GetRandBytes { len } => {
                // Propagate RNG failures instead of discarding them: an
                // entropy shortfall is a TEE service failure, not a
                // divergence.
                dlt_tee::check_rng_request(len as usize).map_err(ExecFailure::Tee)?;
                io.fill_rand_bytes(&mut scratch.rand[..len as usize]).map_err(ExecFailure::Tee)?;
            }
            Op::GetTs { slot } => {
                let v = io.get_ts_rpc();
                if slot != NO_SLOT {
                    scratch.regs[slot as usize] = v;
                    scratch.bound[slot as usize] = true;
                }
            }
            Op::WaitForIrq { line, timeout_us } => {
                stats.irq_waits += 1;
                // Templates wait for every individual interrupt; the gold
                // driver would have coalesced them (§8.3.2). Charge the
                // per-IRQ handling overhead the native path avoids.
                let irq_overhead = io.cost().irq_wait_overhead_ns;
                io.charge_ns(irq_overhead);
                if io.wait_for_irq(line, timeout_us).is_err() {
                    return Err(diverge(
                        prog,
                        op_idx,
                        None,
                        format!("interrupt {line} did not arrive within {timeout_us} us"),
                    ));
                }
            }
            Op::Delay { us } => io.delay_us(us),
            Op::Poll { iface, cons, iter_delay_us, max_iters } => {
                // Each iteration is one register read from the TEE and pays
                // one dispatch (constraint check + binding). The dispatch
                // cost is accumulated and charged when the poll concludes so
                // the reads keep the recorded delay cadence the device
                // timing was calibrated against.
                let mut reads = 0u64;
                let mut iters = 0u64;
                loop {
                    reads += 1;
                    let mut value = read_ciface(io, iface, &scratch.dma)? as u64;
                    if let Some(m) = mutator.as_deref_mut() {
                        let ctx = MutationCtx {
                            program: prog,
                            op_index: op_idx,
                            cons,
                            observed: value,
                            regs: &scratch.regs,
                            bound: &scratch.bound,
                            poll_iteration: Some(iters),
                        };
                        if let Some(v) = m.mutate(&ctx) {
                            value = v;
                        }
                    }
                    if prog.check_cons(
                        cons,
                        value,
                        &scratch.regs,
                        &scratch.bound,
                        &mut scratch.eval,
                    ) {
                        break;
                    }
                    iters += 1;
                    if iters > max_iters {
                        io.charge_ns(dispatch_ns * reads);
                        return Err(diverge(
                            prog,
                            op_idx,
                            Some(value),
                            format!(
                                "poll condition \"{}\" not met after {max_iters} iterations",
                                prog.meta[op_idx].cons_desc
                            ),
                        ));
                    }
                    io.delay_us(iter_delay_us);
                }
                io.charge_ns(dispatch_ns * reads);
            }
            Op::CopyUserToDma { alloc, offset, user_offset, len } => {
                let n = prog
                    .eval_expr(len, &scratch.regs, &scratch.bound, &mut scratch.eval)
                    .ok_or_else(|| unbound(prog, op_idx, "copy length"))?
                    as usize;
                let uo = user_offset as usize;
                if uo.checked_add(n).is_none_or(|end| end > buf.len()) {
                    return Err(diverge(
                        prog,
                        op_idx,
                        None,
                        "copy source outside the trustlet buffer".into(),
                    ));
                }
                let region = *scratch.dma.get(alloc as usize).ok_or_else(|| missing_dma(alloc))?;
                io.copy_to_dma(region, offset, &buf[uo..uo + n]).map_err(ExecFailure::Tee)?;
                payload_bytes += n as u64;
            }
            Op::CopyDmaToUser { alloc, offset, user_offset, len } => {
                let n = prog
                    .eval_expr(len, &scratch.regs, &scratch.bound, &mut scratch.eval)
                    .ok_or_else(|| unbound(prog, op_idx, "copy length"))?
                    as usize;
                let uo = user_offset as usize;
                if uo.checked_add(n).is_none_or(|end| end > buf.len()) {
                    return Err(diverge(
                        prog,
                        op_idx,
                        None,
                        "copy target outside the trustlet buffer".into(),
                    ));
                }
                let region = *scratch.dma.get(alloc as usize).ok_or_else(|| missing_dma(alloc))?;
                // Zero-copy: DMA contents land directly in the trustlet
                // buffer slice, no intermediate heap buffer.
                io.copy_from_dma(region, offset, &mut buf[uo..uo + n]).map_err(ExecFailure::Tee)?;
                payload_bytes += n as u64;
            }
        }
    }

    Ok(payload_bytes)
}

// The serve layer moves whole lane replayers onto per-lane OS threads
// (`dlt-serve`'s `ExecMode::Threaded`); losing `Send` here — e.g. by
// adding an `Rc` or a raw pointer to the replayer state — would silently
// break that, so pin it at compile time.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Replayer>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_hw::device::{DeviceCtx, MmioDevice, Window};
    use dlt_hw::Platform;
    use dlt_template::{
        Constraint, DataDirection, DmaRole, Event, Iface, ParamSpec, ReadSink, RecordedEvent,
        SymExpr, Template, TemplateMeta,
    };

    /// Constraint helpers for the synthetic template used below.
    fn synthetic_driverlet() -> Driverlet {
        // A template against a nonexistent device: only used for load-time
        // hardening tests (it must be rejected because the device is absent).
        let t = Template {
            name: "ghost".into(),
            entry: "replay_ghost".into(),
            device: "ghost-dev".into(),
            params: vec![ParamSpec { name: "x".into(), constraint: Constraint::Any }],
            direction: DataDirection::None,
            data_len: SymExpr::Const(0),
            irq_line: None,
            events: vec![RecordedEvent::bare(Event::Write {
                iface: Iface::Reg { addr: 0x3f99_0000, name: "GHOST".into() },
                value: SymExpr::Const(1),
            })],
            meta: TemplateMeta::default(),
        };
        let mut d = Driverlet::new("ghost-dev", "replay_ghost", vec![t]);
        d.sign(b"k");
        d
    }

    #[test]
    fn unknown_devices_and_bad_signatures_are_rejected_at_load() {
        let platform = dlt_hw::Platform::new();
        let tee = dlt_tee::TeeKernel::install(&platform, &[]).unwrap();
        let io = SecureIo::new(platform.bus.clone());
        drop(tee);
        let mut r = Replayer::new(io);
        let d = synthetic_driverlet();
        assert!(matches!(r.load_driverlet(d.clone(), b"wrong"), Err(ReplayError::Signature(_))));
        assert!(
            matches!(r.load_driverlet(d, b"k"), Err(ReplayError::InvalidTemplate(_))),
            "a template for an unknown device must not load"
        );
        assert!(r.entries().is_empty());
    }

    #[test]
    fn invoking_an_unknown_entry_fails_cleanly() {
        let platform = dlt_hw::Platform::new();
        let io = SecureIo::new(platform.bus.clone());
        let mut r = Replayer::new(io);
        let mut buf = [0u8; 4];
        let err = r.invoke_args("replay_nothing", &[], &mut buf).unwrap_err();
        assert!(matches!(err, ReplayError::UnknownEntry(_)));
        assert_eq!(r.stats().invocations, 1);
    }

    // -----------------------------------------------------------------------
    // A small synthetic rig: one secure device with a handful of registers,
    // enough to exercise every op kind on both engines.
    // -----------------------------------------------------------------------

    const RIG_BASE: u64 = 0x3f40_0000;
    const RIG_IRQ: u32 = 49;

    struct RigDev {
        status: u32,
        arg: u32,
        busy_until: u64,
    }

    const RIG_WINDOWS: &[Window] =
        &[Window { name: "rig", base: RIG_BASE, len: 0x100, irq_line: Some(RIG_IRQ) }];

    impl MmioDevice for RigDev {
        fn windows(&self) -> &'static [Window] {
            RIG_WINDOWS
        }
        fn read32(&mut self, _window: usize, offset: u64, ctx: &mut DeviceCtx<'_>) -> u32 {
            match offset {
                0x0 => self.status,
                0x4 => self.arg,
                0x8 => u32::from(ctx.now_ns < self.busy_until), // BUSY flag
                0xc => 0x2a,                                    // constant ID register
                _ => 0,
            }
        }
        fn write32(&mut self, _window: usize, offset: u64, val: u32, ctx: &mut DeviceCtx<'_>) {
            match offset {
                0x0 => self.status = val,
                0x4 => {
                    self.arg = val;
                    // Kick: busy for 30 us, then raise the IRQ.
                    self.busy_until = ctx.now_ns + 30_000;
                    ctx.irqs.assert_at(RIG_IRQ, self.busy_until);
                }
                _ => {}
            }
        }
        fn tick(&mut self, _ctx: &mut DeviceCtx<'_>) {}
        fn soft_reset(&mut self, _window: usize, _ctx: &mut DeviceCtx<'_>) {
            self.status = 0;
            self.arg = 0;
            self.busy_until = 0;
        }
    }

    fn rig_platform() -> Platform {
        let p = Platform::new();
        p.bus.lock().attach(Box::new(RigDev { status: 0, arg: 0, busy_until: 0 })).unwrap();
        p.bus.lock().set_device_secure("rig", true).unwrap();
        p
    }

    fn reg(name: &str, off: u64) -> Iface {
        Iface::Reg { addr: RIG_BASE + off, name: name.to_string() }
    }

    /// A template exercising writes, symbolic expressions, polls, IRQ waits,
    /// constrained reads, captures, DMA and payload copies.
    fn rig_template(rand_len: u32) -> Template {
        Template {
            name: "rig_io".into(),
            entry: "replay_rig".into(),
            device: "rig".into(),
            params: vec![
                ParamSpec {
                    name: "val".into(),
                    constraint: Constraint::InRange { min: 0, max: 0xffff },
                },
                ParamSpec { name: "flag".into(), constraint: Constraint::Any },
            ],
            direction: DataDirection::DeviceToUser,
            data_len: SymExpr::Const(8),
            irq_line: Some(RIG_IRQ),
            events: vec![
                RecordedEvent::bare(Event::DmaAlloc {
                    len: SymExpr::Const(64),
                    role: DmaRole::DataIn,
                }),
                RecordedEvent::bare(Event::GetRandBytes { len: rand_len, sink: ReadSink::Discard }),
                // Write the parameterised argument; the device goes busy and
                // later interrupts.
                RecordedEvent::bare(Event::Write {
                    iface: reg("ARG", 0x4),
                    value: SymExpr::Param("val".into()).or_const(0x1_0000),
                }),
                // Poll the BUSY flag down.
                RecordedEvent::bare(Event::Poll {
                    iface: reg("BUSY", 0x8),
                    body: vec![Event::Delay { us: 2 }],
                    cond: Constraint::eq_const(0),
                    delay_us: 5,
                    max_iters: 100,
                }),
                RecordedEvent::bare(Event::WaitForIrq { line: RIG_IRQ, timeout_us: 500_000 }),
                // Constrained read of the constant ID register, captured.
                RecordedEvent::bare(Event::Read {
                    iface: reg("ID", 0xc),
                    constraint: Constraint::eq_const(0x2a),
                    len: 4,
                    sink: ReadSink::Capture("id".into()),
                }),
                // Echo the captured value (symbolic over a capture).
                RecordedEvent::bare(Event::Write {
                    iface: reg("STATUS", 0x0),
                    value: SymExpr::Captured("id".into()).plus(1),
                }),
                // Read it back into the user buffer, constrained against the
                // capture-derived value.
                RecordedEvent::bare(Event::Read {
                    iface: reg("STATUS", 0x0),
                    constraint: Constraint::Eq(SymExpr::Captured("id".into()).plus(1)),
                    len: 4,
                    sink: ReadSink::UserData { offset: 0 },
                }),
                // Shared-memory round trip through the DMA allocation.
                RecordedEvent::bare(Event::Write {
                    iface: Iface::Shm { alloc: 0, offset: 0x10 },
                    value: SymExpr::Param("val".into()),
                }),
                RecordedEvent::bare(Event::Read {
                    iface: Iface::Shm { alloc: 0, offset: 0x10 },
                    constraint: Constraint::eq_param("val"),
                    len: 4,
                    sink: ReadSink::Discard,
                }),
                RecordedEvent::bare(Event::CopyDmaToUser {
                    alloc: 0,
                    offset: 0x10,
                    user_offset: 4,
                    len: SymExpr::Const(4),
                }),
                RecordedEvent::bare(Event::Delay { us: 3 }),
            ],
            meta: TemplateMeta::default(),
        }
    }

    fn rig_driverlet(rand_len: u32) -> Driverlet {
        let mut d = Driverlet::new("rig", "replay_rig", vec![rig_template(rand_len)]);
        d.sign(b"rigkey");
        d
    }

    fn rig_args(val: u64) -> [(&'static str, u64); 2] {
        [("val", val), ("flag", 0)]
    }

    fn run_mode(mode: ReplayMode, val: u64, rand_len: u32) -> (ReplayOutcome, [u8; 8], u64, u64) {
        let platform = rig_platform();
        let io = SecureIo::new(platform.bus.clone());
        let mut r = Replayer::with_config(io, ReplayConfig { mode });
        r.load_driverlet(rig_driverlet(rand_len), b"rigkey").unwrap();
        let t0 = platform.now_ns();
        let mut buf = [0u8; 8];
        let outcome = r.invoke_args("replay_rig", &rig_args(val), &mut buf).unwrap();
        let elapsed = platform.now_ns() - t0;
        (outcome, buf, elapsed, r.stats().events_executed)
    }

    #[test]
    fn compiled_executes_the_full_event_vocabulary() {
        let (outcome, buf, _, _) = run_mode(ReplayMode::Compiled, 0x1234, 16);
        assert_eq!(outcome.captured.get("id"), Some(&0x2a));
        assert_eq!(outcome.payload_bytes, 8);
        assert_eq!(u32::from_le_bytes(buf[0..4].try_into().unwrap()), 0x2b);
        assert_eq!(u32::from_le_bytes(buf[4..8].try_into().unwrap()), 0x1234);
        assert!(!outcome.recovered_divergence);
    }

    #[test]
    fn compiled_and_interpreted_agree_exactly() {
        let (co, cbuf, ct, cev) = run_mode(ReplayMode::Compiled, 0x0beb, 8);
        let (io_, ibuf, it, iev) = run_mode(ReplayMode::Interpreted, 0x0beb, 8);
        assert_eq!(co.payload_bytes, io_.payload_bytes);
        assert_eq!(co.captured, io_.captured);
        assert_eq!(co.events, io_.events);
        assert_eq!(cbuf, ibuf, "payload buffers must match bit for bit");
        assert_eq!(ct, it, "virtual-time cost must be identical across engines");
        assert_eq!(cev, iev, "event accounting must be identical across engines");
    }

    #[test]
    fn out_of_coverage_and_divergence_reporting() {
        let platform = rig_platform();
        let io = SecureIo::new(platform.bus.clone());
        let mut r = Replayer::new(io);
        r.load_driverlet(rig_driverlet(8), b"rigkey").unwrap();
        let mut buf = [0u8; 8];
        // val outside the recorded range: no template matches.
        let err = r.invoke_args("replay_rig", &rig_args(0x10_0000), &mut buf).unwrap_err();
        assert!(matches!(err, ReplayError::OutOfCoverage { .. }));
    }

    #[test]
    fn rng_failures_are_propagated_not_discarded() {
        // A template whose get_rand_bytes request exceeds the RNG FIFO must
        // fail with a TEE service error (regression: the old interpreter
        // silently discarded the error).
        let platform = rig_platform();
        let io = SecureIo::new(platform.bus.clone());
        let mut r = Replayer::new(io);
        let oversized = (dlt_tee::RNG_MAX_REQUEST + 1) as u32;
        r.load_driverlet(rig_driverlet(oversized), b"rigkey").unwrap();
        let mut buf = [0u8; 8];
        let err = r.invoke_args("replay_rig", &rig_args(7), &mut buf).unwrap_err();
        match &err {
            ReplayError::Tee(e) => {
                assert!(e.to_string().contains("rng"), "unexpected tee error: {e}");
            }
            other => panic!("expected a TEE error, got {other:?}"),
        }
        // The full chain is preserved: ReplayError -> TeeError -> HwError.
        use std::error::Error;
        let tee = err.source().expect("TEE source");
        assert!(tee.source().is_some(), "TeeError::Hw must expose the HwError source");
        let platform2 = rig_platform();
        let io2 = SecureIo::new(platform2.bus.clone());
        let mut r2 = Replayer::with_config(io2, ReplayConfig::interpreted());
        r2.load_driverlet(rig_driverlet(oversized), b"rigkey").unwrap();
        assert!(matches!(
            r2.invoke_args("replay_rig", &rig_args(7), &mut buf),
            Err(ReplayError::Tee(_))
        ));
    }

    #[test]
    fn hostile_rng_lengths_fail_typed_without_a_buffer_of_that_size() {
        // A validly signed bundle asking for u32::MAX random bytes used to
        // size the compiled engine's RNG buffer at 4 GiB on load, and made
        // the interpreter allocate 4 GiB on every invocation.
        for mode in [ReplayMode::Compiled, ReplayMode::Interpreted] {
            let platform = rig_platform();
            let io = SecureIo::new(platform.bus.clone());
            let mut r = Replayer::with_config(io, ReplayConfig { mode });
            r.load_driverlet(rig_driverlet(u32::MAX), b"rigkey").unwrap();
            assert!(r.scratch.rand.len() <= dlt_tee::RNG_MAX_REQUEST, "{mode:?}");
            let mut buf = [0u8; 8];
            for _ in 0..2 {
                match r.invoke_args("replay_rig", &rig_args(7), &mut buf) {
                    Err(ReplayError::Tee(e)) => assert!(
                        e.to_string().contains("request of 4294967295 bytes exceeds"),
                        "{mode:?}: unexpected tee error: {e}"
                    ),
                    other => panic!("{mode:?}: expected a TEE error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn hostile_poll_bounds_fail_typed_at_load() {
        // A validly signed bundle whose poll never ends (a condition the
        // device never meets, bounded at u64::MAX iterations) used to load
        // and then spin forever on its first invocation.
        let hostile = |max_iters: u64| {
            let mut t = rig_template(8);
            for re in &mut t.events {
                if let Event::Poll { cond, max_iters: bound, .. } = &mut re.event {
                    *cond = Constraint::eq_const(2); // BUSY reads 0 or 1
                    *bound = max_iters;
                }
            }
            let mut d = Driverlet::new("rig", "replay_rig", vec![t]);
            d.sign(b"rigkey");
            d
        };
        for mode in [ReplayMode::Compiled, ReplayMode::Interpreted] {
            let platform = rig_platform();
            let io = SecureIo::new(platform.bus.clone());
            let mut r = Replayer::with_config(io, ReplayConfig { mode });
            match r.load_driverlet(hostile(u64::MAX), b"rigkey") {
                Err(ReplayError::InvalidTemplate(e)) => {
                    assert!(e.contains("exceeds the 1048576-iteration limit"), "{mode:?}: {e}")
                }
                other => panic!("{mode:?}: expected InvalidTemplate, got {other:?}"),
            }
            assert!(r.entries().is_empty(), "{mode:?}");
            // The limit itself is a valid bound.
            r.load_driverlet(hostile(dlt_template::MAX_POLL_ITERS), b"rigkey").unwrap();
        }
    }

    #[test]
    fn poll_charges_dispatch_per_iteration() {
        // Direct unit check on the accounting: a poll that performs k
        // register reads charges k * dispatch_ns (plus its delays), not the
        // single dispatch the old cost model charged per poll event.
        let platform = rig_platform();
        let io = SecureIo::new(platform.bus.clone());
        let mut r = Replayer::new(io);
        let t = Template {
            name: "poll_only".into(),
            entry: "replay_poll".into(),
            device: "rig".into(),
            params: vec![],
            direction: DataDirection::None,
            data_len: SymExpr::Const(0),
            irq_line: None,
            events: vec![
                // Kick the device so BUSY rises for 30 us...
                RecordedEvent::bare(Event::Write {
                    iface: reg("ARG", 0x4),
                    value: SymExpr::Const(1),
                }),
                // ...then poll it down with a 5 us step: ~6+ iterations.
                RecordedEvent::bare(Event::Poll {
                    iface: reg("BUSY", 0x8),
                    body: vec![],
                    cond: Constraint::eq_const(0),
                    delay_us: 5,
                    max_iters: 1000,
                }),
            ],
            meta: TemplateMeta::default(),
        };
        let mut d = Driverlet::new("rig", "replay_poll", vec![t]);
        d.sign(b"rigkey");
        r.load_driverlet(d, b"rigkey").unwrap();
        let dispatch = r.io_mut().replay_dispatch_cost_ns();
        let cost = r.io_mut().cost_model();
        let t0 = platform.now_ns();
        let mut buf = [0u8; 4];
        r.invoke_args("replay_poll", &[], &mut buf).unwrap();
        let elapsed = platform.now_ns() - t0;
        // The device stays busy for 30 us and the poll steps every 5 us:
        // 7 reads (6 delay quanta) before BUSY clears. Per-read dispatch
        // accounting must therefore charge at least reset + delays + 8
        // dispatches (1 write + 7 polled reads); the old once-per-poll-event
        // model stops 6 dispatches short of this bound.
        let floor = cost.soft_reset_ns + 6 * 5_000 + 8 * dispatch;
        assert!(
            elapsed >= floor,
            "poll reads must each be charged a dispatch (elapsed {elapsed} ns < floor {floor} ns)"
        );
    }

    #[test]
    fn second_secure_window_generalises_beyond_dma() {
        // Two secure devices; the template's home device is `rig`, but it
        // also touches `aux` registers. Under the old hardcoded rule only a
        // device literally named "dma" qualified.
        struct AuxDev;
        impl MmioDevice for AuxDev {
            fn windows(&self) -> &'static [Window] {
                &[Window { name: "aux-engine", base: 0x3f50_0000, len: 0x100, irq_line: None }]
            }
            fn read32(&mut self, _window: usize, _offset: u64, _ctx: &mut DeviceCtx<'_>) -> u32 {
                0
            }
            fn write32(&mut self, _: usize, _: u64, _: u32, _: &mut DeviceCtx<'_>) {}
            fn tick(&mut self, _ctx: &mut DeviceCtx<'_>) {}
            fn soft_reset(&mut self, _window: usize, _ctx: &mut DeviceCtx<'_>) {}
        }
        let platform = rig_platform();
        platform.bus.lock().attach(Box::new(AuxDev)).unwrap();
        let mut t = rig_template(8);
        t.events.push(RecordedEvent::bare(Event::Write {
            iface: Iface::Reg { addr: 0x3f50_0010, name: "AUXCTL".into() },
            value: SymExpr::Const(1),
        }));
        let mut d = Driverlet::new("rig", "replay_rig", vec![t]);
        d.sign(b"rigkey");

        // Not secure yet: the load must fail.
        let io = SecureIo::new(platform.bus.clone());
        let mut r = Replayer::new(io);
        assert!(matches!(
            r.load_driverlet(d.clone(), b"rigkey"),
            Err(ReplayError::InvalidTemplate(_))
        ));

        // Assign the second device to the TEE: the same bundle now loads.
        platform.bus.lock().set_device_secure("aux-engine", true).unwrap();
        let io = SecureIo::new(platform.bus.clone());
        let mut r = Replayer::new(io);
        r.load_driverlet(d, b"rigkey").unwrap();
        assert_eq!(r.entries(), vec!["replay_rig".to_string()]);
    }

    #[test]
    fn divergence_reports_point_at_the_failing_event() {
        // Make the constrained ID read fail by poking a template expecting a
        // different constant.
        let platform = rig_platform();
        let io = SecureIo::new(platform.bus.clone());
        let mut r = Replayer::new(io);
        let mut t = rig_template(8);
        // Event 5 is the constrained ID read; expect the wrong value.
        if let Event::Read { constraint, .. } = &mut t.events[5].event {
            *constraint = Constraint::eq_const(0x99);
        } else {
            panic!("event 5 should be the ID read");
        }
        let mut d = Driverlet::new("rig", "replay_rig", vec![t]);
        d.sign(b"rigkey");
        r.load_driverlet(d, b"rigkey").unwrap();
        let mut buf = [0u8; 8];
        let err = r.invoke_args("replay_rig", &rig_args(3), &mut buf).unwrap_err();
        assert!(err.to_string().contains("rig_io"), "the report names the source site: {err}");
        match err {
            ReplayError::Diverged(report) => {
                assert_eq!(report.failure.event_index, 5);
                assert_eq!(report.failure.observed, Some(0x2a));
                assert_eq!(report.attempts, 3);
                assert!(report.failure.event.contains("read"));
            }
            other => panic!("expected divergence, got {other:?}"),
        }
        assert_eq!(r.stats().divergences, 3);
    }

    /// Signed rig bundles whose trustlet-buffer ranges wrap a `usize`: a
    /// copy of `u64::MAX` bytes from user offset 1, in both directions,
    /// and a 4-byte user-data sink at offset `u64::MAX - 1`. Each loads,
    /// and each must replay to a typed divergence at that event.
    fn wrapping_user_range_driverlets() -> Vec<(&'static str, Driverlet, usize)> {
        let wrap = SymExpr::Const(u64::MAX);
        let cases: [(&str, usize, Event); 3] = [
            (
                "copy to user",
                10,
                Event::CopyDmaToUser { alloc: 0, offset: 0x10, user_offset: 1, len: wrap.clone() },
            ),
            (
                "copy from user",
                10,
                Event::CopyUserToDma { alloc: 0, offset: 0x10, user_offset: 1, len: wrap },
            ),
            (
                "user-data sink",
                7,
                Event::Read {
                    iface: reg("STATUS", 0x0),
                    constraint: Constraint::Any,
                    len: 4,
                    sink: ReadSink::UserData { offset: u64::MAX - 1 },
                },
            ),
        ];
        cases
            .into_iter()
            .map(|(what, index, event)| {
                let mut t = rig_template(8);
                t.events[index].event = event;
                let mut d = Driverlet::new("rig", "replay_rig", vec![t]);
                d.sign(b"rigkey");
                (what, d, index)
            })
            .collect()
    }

    fn wrapping_user_ranges_diverge(mode: ReplayMode) {
        for (what, d, index) in wrapping_user_range_driverlets() {
            let platform = rig_platform();
            let io = SecureIo::new(platform.bus.clone());
            let mut r = Replayer::with_config(io, ReplayConfig { mode });
            r.load_driverlet(d, b"rigkey").unwrap();
            let mut buf = [0u8; 8];
            match r.invoke_args("replay_rig", &rig_args(3), &mut buf) {
                Err(ReplayError::Diverged(report)) => {
                    assert_eq!(report.failure.event_index, index, "{what}");
                    assert!(report.failure.reason.contains("trustlet buffer"), "{what}");
                }
                other => panic!("{what}: expected a typed divergence, got {other:?}"),
            }
        }
    }

    #[test]
    fn compiled_engine_diverges_on_wrapping_user_buffer_ranges() {
        wrapping_user_ranges_diverge(ReplayMode::Compiled);
    }

    #[test]
    fn interpreted_engine_diverges_on_wrapping_user_buffer_ranges() {
        wrapping_user_ranges_diverge(ReplayMode::Interpreted);
    }

    // -----------------------------------------------------------------------
    // Response-mutator fault injection (crate::inject).
    // -----------------------------------------------------------------------

    use crate::inject::{ConstraintFlipper, FaultPlan, MutationCtx, ResponseMutator};

    fn rig_replayer() -> (Platform, Replayer) {
        let platform = rig_platform();
        let io = SecureIo::new(platform.bus.clone());
        let mut r = Replayer::new(io);
        r.load_driverlet(rig_driverlet(8), b"rigkey").unwrap();
        (platform, r)
    }

    #[test]
    fn free_roaming_flipper_forces_a_typed_divergence() {
        let (_p, mut r) = rig_replayer();
        let (flipper, outcome) =
            ConstraintFlipper::new(FaultPlan { sticky: true, ..FaultPlan::default() });
        r.set_response_mutator(Box::new(flipper));
        let mut buf = [0u8; 8];
        let err = r.invoke_args("replay_rig", &rig_args(3), &mut buf).unwrap_err();
        match err {
            ReplayError::Diverged(report) => {
                // The first falsifiable observation is the BUSY poll
                // (event 3, cond eq_const(0)): the flip keeps it nonzero
                // until max_iters overruns.
                assert_eq!(report.failure.event_index, 3);
                assert!(
                    report.failure.reason.contains("poll condition"),
                    "unexpected reason: {}",
                    report.failure.reason
                );
                assert_eq!(report.attempts, 3, "the fault must persist across resets");
            }
            other => panic!("expected divergence, got {other:?}"),
        }
        assert_eq!(r.stats().divergences, 3);
        let o = outcome.lock().unwrap();
        assert_eq!(o.engaged_invocations, 1);
        assert!(o.mutated_reads > 0);

        // Clearing the mutator restores faithful replay on the same lane.
        r.clear_response_mutator();
        let ok = r.invoke_args("replay_rig", &rig_args(3), &mut buf).unwrap();
        assert!(!ok.recovered_divergence);
        assert_eq!(ok.captured.get("id"), Some(&0x2a));
    }

    #[test]
    fn targeted_leaf_flip_diverges_at_exactly_that_site() {
        // Target the constrained ID read (event 5, Eq(0x2a)) by its op and
        // cons indices, derived from the program's own introspection API.
        let prog = compile(&rig_template(8)).unwrap();
        let site = prog
            .constraint_sites()
            .into_iter()
            .find(|s| s.desc.contains("0x2a"))
            .expect("ID read site");
        let dlt_template::SiteKind::Read { op, .. } = site.kind else {
            panic!("expected a read site")
        };
        let (_p, mut r) = rig_replayer();
        let (flipper, outcome) = ConstraintFlipper::new(FaultPlan {
            op_index: Some(op),
            cons_index: Some((site.cons.start + site.cons.len - 1) as usize),
            sticky: true,
            ..FaultPlan::default()
        });
        r.set_response_mutator(Box::new(flipper));
        let mut buf = [0u8; 8];
        let err = r.invoke_args("replay_rig", &rig_args(3), &mut buf).unwrap_err();
        match err {
            ReplayError::Diverged(report) => {
                assert_eq!(report.failure.event_index, 5, "must fail at the ID read");
                assert!(report.failure.reason.contains("constraint"));
                let injected = outcome.lock().unwrap().last_value;
                assert_eq!(report.failure.observed, injected, "report shows the mutated value");
                assert_ne!(injected, Some(0x2a));
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn one_shot_mutation_is_recovered_by_reset_and_retry() {
        /// Mutates exactly one observation ever: the first constrained read
        /// of the first engaged invocation. Attempt 1 diverges; attempt 2
        /// replays cleanly, so the invocation *succeeds* with
        /// `recovered_divergence` set.
        struct OneShot {
            fired: bool,
        }
        impl ResponseMutator for OneShot {
            fn begin_invocation(&mut self, _program: &dlt_template::ReplayProgram) -> bool {
                true
            }
            fn mutate(&mut self, ctx: &MutationCtx<'_>) -> Option<u64> {
                if self.fired || ctx.poll_iteration.is_some() {
                    return None;
                }
                self.fired = true;
                Some(!ctx.observed)
            }
        }
        let (_p, mut r) = rig_replayer();
        r.set_response_mutator(Box::new(OneShot { fired: false }));
        let mut buf = [0u8; 8];
        let out = r.invoke_args("replay_rig", &rig_args(3), &mut buf).unwrap();
        assert!(out.recovered_divergence, "the transient fault must be recovered");
        assert_eq!(r.stats().divergences, 1);
        assert_eq!(out.captured.get("id"), Some(&0x2a));
    }

    #[test]
    fn non_sticky_plans_engage_exactly_one_invocation() {
        let (_p, mut r) = rig_replayer();
        let (flipper, outcome) =
            ConstraintFlipper::new(FaultPlan { skip_invocations: 1, ..FaultPlan::default() });
        r.set_response_mutator(Box::new(flipper));
        let mut buf = [0u8; 8];
        // Invocation 1 is skipped, invocation 2 diverges, invocation 3 is
        // clean again without any clearing.
        r.invoke_args("replay_rig", &rig_args(3), &mut buf).unwrap();
        assert!(matches!(
            r.invoke_args("replay_rig", &rig_args(3), &mut buf),
            Err(ReplayError::Diverged(_))
        ));
        r.invoke_args("replay_rig", &rig_args(3), &mut buf).unwrap();
        assert_eq!(outcome.lock().unwrap().engaged_invocations, 1);
    }
}
