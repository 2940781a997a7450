//! The reference tree-walking interpreter.
//!
//! This is the pre-compilation execution path: it walks the
//! [`Template`] event tree directly, resolving parameter and capture names
//! through the [`EvalEnv`] hash maps and recursively evaluating
//! `SymExpr`/`Constraint` trees per event. It allocates on every invocation
//! (argument-map clone, capture inserts, per-copy temporaries).
//!
//! The production path is the compiled one (`dlt_template::program` +
//! [`crate::replayer`]); this interpreter is retained as
//! [`crate::replayer::ReplayMode::Interpreted`] because it is the living
//! baseline: the `replay_throughput` bench measures the compiled speedup
//! against it, and the differential tests in `replayer.rs` hold the two
//! executions to identical outcomes and identical virtual-time cost.

use std::collections::HashMap;

use dlt_hw::{DmaRegion, HwError};
use dlt_tee::{HeldIo, TeeError};
use dlt_template::{EvalEnv, Event, Iface, ReadSink, Template};

use crate::replayer::{DivergenceEvent, ExecFailure, ReplayOutcome, ReplayStats};

fn env_fault(reason: &str) -> TeeError {
    TeeError::Hw(HwError::DeviceError { device: "env".into(), reason: reason.into() })
}

fn missing_dma(alloc: usize) -> TeeError {
    TeeError::Hw(HwError::DeviceError {
        device: "dma".into(),
        reason: format!("dma[{alloc}] not allocated"),
    })
}

fn read_iface(
    io: &mut HeldIo<'_>,
    iface: &Iface,
    allocations: &[DmaRegion],
) -> Result<u32, TeeError> {
    match iface {
        Iface::Reg { addr, .. } => io.readl(*addr),
        Iface::Shm { alloc, offset } => {
            let region = allocations.get(*alloc).copied().ok_or_else(|| missing_dma(*alloc))?;
            io.shm_read32(region, *offset)
        }
        Iface::Env(_) => Err(env_fault("environment interfaces are not readable")),
    }
}

fn write_iface(
    io: &mut HeldIo<'_>,
    iface: &Iface,
    value: u32,
    allocations: &[DmaRegion],
) -> Result<(), TeeError> {
    match iface {
        Iface::Reg { addr, .. } => io.writel(*addr, value),
        Iface::Shm { alloc, offset } => {
            let region = allocations.get(*alloc).copied().ok_or_else(|| missing_dma(*alloc))?;
            io.shm_write32(region, *offset, value)
        }
        Iface::Env(_) => Err(env_fault("environment interfaces are not writable")),
    }
}

/// Execute one template attempt by walking the event tree.
pub(crate) fn execute_once(
    io: &mut HeldIo<'_>,
    stats: &mut ReplayStats,
    template: &Template,
    args: &HashMap<String, u64>,
    buf: &mut [u8],
) -> Result<ReplayOutcome, ExecFailure> {
    let dispatch_ns = io.cost().replay_event_dispatch_ns;
    let mut env = EvalEnv::with_params(args.clone());
    let mut allocations: Vec<DmaRegion> = Vec::new();
    let mut payload_bytes = 0u64;

    let diverge =
        |idx: usize, re: &dlt_template::RecordedEvent, observed: Option<u64>, reason: String| {
            ExecFailure::Divergence(
                DivergenceEvent {
                    event_index: idx,
                    site: re.site.clone(),
                    event: re.event.describe(),
                    observed,
                    reason,
                },
                idx,
            )
        };

    for (idx, re) in template.events.iter().enumerate() {
        stats.events_executed += 1;
        // Polls charge per iteration below; everything else is one dispatch.
        if !matches!(re.event, Event::Poll { .. }) {
            io.charge_ns(dispatch_ns);
        }
        match &re.event {
            Event::Read { iface, constraint, sink, .. } => {
                let value = read_iface(io, iface, &allocations).map_err(ExecFailure::Tee)? as u64;
                if !constraint.check(value, &env) {
                    return Err(diverge(
                        idx,
                        re,
                        Some(value),
                        format!("constraint \"{}\" violated", constraint.describe()),
                    ));
                }
                match sink {
                    ReadSink::Discard => {}
                    ReadSink::Capture(name) => {
                        env.captured.insert(name.clone(), value);
                    }
                    ReadSink::UserData { offset } => {
                        let off = *offset as usize;
                        if off.checked_add(4).is_none_or(|end| end > buf.len()) {
                            return Err(diverge(
                                idx,
                                re,
                                Some(value),
                                "user-data sink outside the trustlet buffer".into(),
                            ));
                        }
                        buf[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes());
                        payload_bytes += 4;
                    }
                }
            }
            Event::Write { iface, value } => {
                let v = value.eval(&env).ok_or_else(|| {
                    diverge(idx, re, None, "output expression references an unbound symbol".into())
                })?;
                write_iface(io, iface, v as u32, &allocations).map_err(ExecFailure::Tee)?;
            }
            Event::DmaAlloc { len, .. } => {
                let n = len.eval(&env).ok_or_else(|| {
                    diverge(idx, re, None, "allocation size references an unbound symbol".into())
                })? as usize;
                let region = io.dma_alloc(n).map_err(ExecFailure::Tee)?;
                env.dma_bases.push(region.base);
                allocations.push(region);
            }
            Event::GetRandBytes { len, .. } => {
                // Refuse an oversized request before sizing a buffer for it.
                dlt_tee::check_rng_request(*len as usize).map_err(ExecFailure::Tee)?;
                let mut tmp = [0u8; dlt_tee::RNG_MAX_REQUEST];
                io.fill_rand_bytes(&mut tmp[..*len as usize]).map_err(ExecFailure::Tee)?;
            }
            Event::GetTs { sink, .. } => {
                let v = io.get_ts_rpc();
                if let ReadSink::Capture(name) = sink {
                    env.captured.insert(name.clone(), v);
                }
            }
            Event::WaitForIrq { line, timeout_us } => {
                stats.irq_waits += 1;
                // Templates wait for every individual interrupt; the gold
                // driver would have coalesced them (§8.3.2). Charge the
                // per-IRQ handling overhead the native path avoids.
                let irq_overhead = io.cost().irq_wait_overhead_ns;
                io.charge_ns(irq_overhead);
                if io.wait_for_irq(*line, *timeout_us).is_err() {
                    return Err(diverge(
                        idx,
                        re,
                        None,
                        format!("interrupt {line} did not arrive within {timeout_us} us"),
                    ));
                }
            }
            Event::Delay { us } => io.delay_us(*us),
            Event::Poll { iface, cond, delay_us, max_iters, body } => {
                // Each iteration is one register read from the TEE and pays
                // one dispatch (constraint check + binding); the cost is
                // accumulated and charged when the poll concludes so the
                // reads keep the recorded delay cadence (see the compiled
                // engine in `replayer.rs`).
                let mut reads = 0u64;
                let mut iters = 0u64;
                loop {
                    reads += 1;
                    let value =
                        read_iface(io, iface, &allocations).map_err(ExecFailure::Tee)? as u64;
                    if cond.check(value, &env) {
                        break;
                    }
                    iters += 1;
                    if iters > *max_iters {
                        io.charge_ns(dispatch_ns * reads);
                        return Err(diverge(
                            idx,
                            re,
                            Some(value),
                            format!(
                                "poll condition \"{}\" not met after {max_iters} iterations",
                                cond.describe()
                            ),
                        ));
                    }
                    for inner in body {
                        if let Event::Delay { us } = inner {
                            io.delay_us(*us);
                        }
                    }
                    io.delay_us((*delay_us).max(1));
                }
                io.charge_ns(dispatch_ns * reads);
            }
            Event::CopyUserToDma { alloc, offset, user_offset, len } => {
                let n = len.eval(&env).ok_or_else(|| {
                    diverge(idx, re, None, "copy length references an unbound symbol".into())
                })? as usize;
                let uo = *user_offset as usize;
                if uo.checked_add(n).is_none_or(|end| end > buf.len()) {
                    return Err(diverge(
                        idx,
                        re,
                        None,
                        "copy source outside the trustlet buffer".into(),
                    ));
                }
                let region = *allocations
                    .get(*alloc)
                    .ok_or_else(|| diverge(idx, re, None, format!("dma[{alloc}] not allocated")))?;
                io.copy_to_dma(region, *offset, &buf[uo..uo + n]).map_err(ExecFailure::Tee)?;
                payload_bytes += n as u64;
            }
            Event::CopyDmaToUser { alloc, offset, user_offset, len } => {
                let n = len.eval(&env).ok_or_else(|| {
                    diverge(idx, re, None, "copy length references an unbound symbol".into())
                })? as usize;
                let uo = *user_offset as usize;
                if uo.checked_add(n).is_none_or(|end| end > buf.len()) {
                    return Err(diverge(
                        idx,
                        re,
                        None,
                        "copy target outside the trustlet buffer".into(),
                    ));
                }
                let region = *allocations
                    .get(*alloc)
                    .ok_or_else(|| diverge(idx, re, None, format!("dma[{alloc}] not allocated")))?;
                io.copy_from_dma(region, *offset, &mut buf[uo..uo + n])
                    .map_err(ExecFailure::Tee)?;
                payload_bytes += n as u64;
            }
        }
    }

    Ok(ReplayOutcome {
        payload_bytes,
        captured: env.captured,
        events: template.events.len(),
        recovered_divergence: false,
    })
}
