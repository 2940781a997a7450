//! `tenants_ring`: an open loop in virtual time over the ring submit path.
//!
//! Hot-range readers, sequential streamers (one walks in 12-block steps, so
//! it straddles stripe boundaries) and a bursty camera tenant arrive on
//! `arrivals::heterogeneous_schedule`'s per-session Poisson clocks. Two MMC
//! replicas under `RoutePolicy::Stripe`, a USB stick and the camera serve
//! them through `SubmitMode::Ring` doorbell batches, in the deterministic
//! `ExecMode::Sequential` event loop, with coalescing and anticipatory hold
//! on. Several requests fold into each replay (about six at the nominal
//! rung), so host time goes to the front-end (route, admit, ring, coalesce,
//! fan-out, reap) more than to replay.
//!
//! The open-loop stepping rule: after each doorbell, step lanes with
//! `drain()` only while a lane with queued work is behind the control
//! clock. Draining everything after every doorbell starves the coalescer;
//! draining only at the end lets the backlog, and p99, grow with run length.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

use dlt_bench::arrivals::{heterogeneous_schedule, ArrivalEvent, SessionSpec, TrafficKind};
use dlt_serve::{
    Completion, Device, DriverletService, ExecMode, ObsConfig, Payload, Policy, QosConfig, Request,
    RouteConfig, RoutePolicy, ServeConfig, ServeError, SessionId, SessionQos, SubmitMode, BLOCK,
};
use dlt_template::Driverlet;

use crate::common::{latency_summary, span, untimed, Layer, Pass, Virt};
use crate::rig::{record, repeat_check, serve_counts, RefReader, SERVE_GRANULARITIES};
use crate::Workload;

/// Workload parameters (printed with every result).
#[derive(Debug, Clone)]
pub struct TenantsParams {
    /// Requests each block session submits per rung.
    pub requests_per_session: u32,
    /// The offered-rate ladder as mean per-session inter-arrival gaps (ns),
    /// from the lightest rung to the heaviest.
    pub ladder_gap_ns: Vec<u64>,
    /// Index of the nominal rung (below saturation) whose latencies are
    /// reported and whose pass is timed.
    pub nominal: usize,
    /// Block p99 limit a rung must meet, µs.
    pub p99_limit_us: u64,
    /// Ring the doorbell after this many staged entries...
    pub doorbell_batch: usize,
    /// ...or once the oldest staged entry has waited this long (virtual ns).
    pub doorbell_wait_ns: u64,
    /// Anticipatory-hold budget (virtual ns).
    pub hold_budget_ns: u64,
    /// Stripe unit across the MMC replicas, blocks.
    pub stripe_blocks: u32,
}

impl TenantsParams {
    /// The benchmark's run length.
    pub fn standard() -> Self {
        TenantsParams {
            requests_per_session: 2000,
            ladder_gap_ns: vec![400_000, 280_000, 200_000, 140_000, 100_000, 70_000],
            nominal: 2,
            p99_limit_us: 10_000,
            doorbell_batch: 8,
            doorbell_wait_ns: 20_000,
            hold_budget_ns: 100_000,
            stripe_blocks: 256,
        }
    }
}

/// The tenant population at one per-session mean gap.
fn specs(p: &TenantsParams, mean_gap_ns: u64) -> Vec<SessionSpec> {
    let n = p.requests_per_session;
    let mut specs = Vec::new();
    let mut push = |kind| specs.push(SessionSpec { kind, mean_gap_ns, requests: n });
    // Hot-range readers on an 8-block extent homed on each MMC replica and
    // on the USB stick: overlap-heavy, the coalescer's best case.
    for hot_base in [1024, 1024 + p.stripe_blocks] {
        for _ in 0..3 {
            push(TrafficKind::HotReader {
                device: Device::Mmc,
                hot_base,
                hot_len: 8,
                write_every: 0,
            });
        }
    }
    for _ in 0..4 {
        push(TrafficKind::HotReader {
            device: Device::Usb,
            hot_base: 1024,
            hot_len: 8,
            write_every: 0,
        });
    }
    // Streamers: 8-block steps stay inside a stripe unit; 12-block steps
    // periodically straddle one and fan out across both replicas.
    // They arrive at a tenth of the readers' rate and stop a little before
    // them, so their bandwidth stays within what the media sustain and the
    // makespan is set by the readers.
    for (device, base, blkcnt) in
        [(Device::Mmc, 65_536, 8), (Device::Mmc, 98_304, 12), (Device::Usb, 65_536, 8)]
    {
        specs.push(SessionSpec {
            kind: TrafficKind::Streamer { device, base, blkcnt },
            mean_gap_ns: mean_gap_ns * 10,
            requests: n / 12,
        });
    }
    // One bursty camera tenant, early in the run.
    specs.push(SessionSpec {
        kind: TrafficKind::BurstyCamera { burst: 2, gap_ns: 2_000_000, resolution: 720 },
        mean_gap_ns: 200_000,
        requests: 2,
    });
    specs
}

/// What one rung produced.
#[derive(Debug, Clone)]
pub struct Rung {
    /// The pass (ops, failures, latencies, counters).
    pub pass: Pass,
    /// Offered rate, requests per virtual second.
    pub offered_rps: f64,
    /// Requests outstanding at half and at the end of the arrivals.
    pub backlog: (u64, u64),
    /// Virtual ns the generator ran behind its schedule: the control clock
    /// also pays the doorbell SMCs.
    pub late_ns: u64,
}

impl Rung {
    /// Meets the block p99 limit with zero refusals and a backlog that does
    /// not grow.
    pub fn meets(&self, limit_us: u64) -> bool {
        self.pass.virt.p99_us <= limit_us as f64
            && self.pass.failed == 0
            && self.backlog.1 as f64 <= 1.5 * self.backlog.0 as f64 + 64.0
    }
}

/// Marks a request slot with no schedule event behind it.
const NO_EVENT: u32 = u32::MAX;

/// The `tenants_ring` workload after set-up.
pub struct TenantsRing {
    params: TenantsParams,
    bundles: Vec<(Device, Driverlet)>,
    schedules: Vec<Vec<ArrivalEvent>>,
    sessions: usize,
    /// Bare-replayer reads of every extent the schedules read, end to end.
    reference: Vec<u8>,
    /// Per rung, per event: the byte offset of a read's expected contents
    /// in `reference`.
    ref_offset: Vec<Vec<usize>>,
    /// The bare-replayer reference capture.
    frame: Vec<u8>,
    /// Virtual results of the first pass, which every pass must repeat.
    first: Option<Virt>,
    setup_ms: BTreeMap<&'static str, f64>,
}

impl TenantsRing {
    /// Record, load, generate every rung's schedule and read the reference
    /// contents of everything the schedules read.
    pub fn setup(seed: u64, params: TenantsParams) -> Result<Self, String> {
        let mut setup_ms = BTreeMap::new();
        let (recorded, record_ms) = record(&[Device::Mmc, Device::Usb, Device::Vchiq])?;
        setup_ms.insert("recorder.record_ms", record_ms);
        // Decoded here; the service verifies and compiles each bundle when
        // it loads it into a lane.
        let t = Instant::now();
        let bundles = recorded
            .iter()
            .map(|(d, b)| Ok((*d, Driverlet::from_binary(b).map_err(|e| e.to_string())?)))
            .collect::<Result<Vec<_>, String>>()?;
        let mut load_ms = t.elapsed().as_secs_f64() * 1e3;

        let schedules: Vec<_> = params
            .ladder_gap_ns
            .iter()
            .map(|gap| heterogeneous_schedule(&specs(&params, *gap), seed))
            .collect();
        let sessions = specs(&params, 1).len();

        // Every block the schedules read, merged into extents per device and
        // read once through a bare replayer.
        let mut blocks: HashMap<Device, BTreeSet<u32>> = HashMap::new();
        for ev in schedules.iter().flatten() {
            if let Request::Read { device, blkid, blkcnt } = ev.req {
                blocks.entry(device).or_default().extend(blkid..blkid + blkcnt);
            }
        }
        let mut reference = Vec::new();
        let mut extent_at: HashMap<Device, BTreeMap<u32, usize>> = HashMap::new();
        let mut frame = Vec::new();
        for (device, bundle) in &recorded {
            let (mut reader, ms) = RefReader::new(*device, bundle)?;
            load_ms += ms;
            if *device == Device::Vchiq {
                frame = reader.capture(720)?;
                continue;
            }
            let mut extents: Vec<(u32, u32)> = Vec::new();
            for b in blocks.get(device).into_iter().flatten() {
                match extents.last_mut() {
                    Some((start, len)) if *start + *len == *b => *len += 1,
                    _ => extents.push((*b, 1)),
                }
            }
            for (start, len) in extents {
                extent_at.entry(*device).or_default().insert(start, reference.len());
                reference.extend(reader.read(start, len)?);
            }
        }
        let ref_offset = schedules
            .iter()
            .map(|schedule| {
                schedule
                    .iter()
                    .map(|ev| match ev.req {
                        Request::Read { device, blkid, .. } => {
                            let (start, off) = extent_at[&device]
                                .range(..=blkid)
                                .next_back()
                                .expect("every read block has a reference extent");
                            off + (blkid - start) as usize * BLOCK
                        }
                        _ => 0,
                    })
                    .collect()
            })
            .collect();
        setup_ms.insert("template.load_ms", load_ms);
        Ok(TenantsRing {
            params,
            bundles,
            schedules,
            sessions,
            reference,
            ref_offset,
            frame,
            first: None,
            setup_ms,
        })
    }

    fn config(&self) -> ServeConfig {
        let p = &self.params;
        ServeConfig {
            max_sessions: 64,
            queue_capacity: 2048,
            submit_mode: SubmitMode::Ring,
            exec_mode: ExecMode::Sequential,
            // Deep rings: under `SubmitMode::Ring` the weighted in-flight
            // shares divide the fleet's ring slots, and no tenant may be
            // throttled below saturation.
            sq_depth: 1024,
            // Completions are reaped once, at the end of the rung: every
            // session's whole output fits its completion ring.
            cq_depth: p.requests_per_session as usize + 16,
            policy: Policy::Fifo,
            coalesce: true,
            coalesce_window: 64,
            hold_budget_ns: p.hold_budget_ns,
            block_granularities: SERVE_GRANULARITIES.to_vec(),
            camera_bursts: vec![1],
            mode: dlt_core::ReplayMode::Compiled,
            route: RouteConfig {
                policy: RoutePolicy::Stripe { stripe_blocks: p.stripe_blocks },
                spill: true,
            },
            qos: QosConfig {
                enabled: true,
                default_qos: SessionQos { rate_rps: 0, burst: 16, weight: 1 },
            },
            failover: Default::default(),
            supervise: Default::default(),
            obs: ObsConfig::Off,
        }
    }

    /// Run rung `r` on a fresh service.
    pub fn run_rung(&self, r: usize) -> Result<Rung, String> {
        let schedule = &self.schedules[r];
        let p = &self.params;
        let mut service = span(Layer::ServeBuild, || {
            // Two MMC replicas, then USB and the camera.
            let mut devices = vec![self.bundles[0].clone()];
            devices.extend(self.bundles.iter().cloned());
            DriverletService::with_driverlets(&devices, self.config())
        })
        .map_err(|e| e.to_string())?;
        let ids: Vec<SessionId> = span(Layer::ServeBuild, || {
            (0..self.sessions).map(|_| service.open_session()).collect::<Result<_, _>>()
        })
        .map_err(|e| e.to_string())?;

        let mut pass = Pass::default();
        // Request id (minus the first) → schedule event. Ids are handed out
        // in submit order, with stripe members taking ids in between.
        let mut event_of: Vec<u32> = Vec::with_capacity(2 * schedule.len());
        let mut first_id = None;
        let mut admitted = 0u64;
        let mut lat = Lat::default();
        let mut staged = 0usize;
        let mut oldest_staged_ns = 0u64;
        let mut backlog_mid = 0u64;
        let mut due_ns = 0u64;

        for (i, ev) in schedule.iter().enumerate() {
            if staged > 0
                && service.control_now_ns() + ev.gap_ns - oldest_staged_ns > p.doorbell_wait_ns
            {
                doorbell_and_step(&mut service, &mut lat)?;
                staged = 0;
            }
            due_ns += ev.gap_ns;
            pass.attempted += 1;
            let (submitted, now_ns) = span(Layer::ServeSubmit, || {
                service.client_think_ns(ev.gap_ns);
                let r = service.submit(ids[ev.session_idx], ev.req.clone());
                (r, service.control_now_ns())
            });
            match submitted {
                Ok(id) => {
                    let slot = (id - *first_id.get_or_insert(id)) as usize;
                    if event_of.len() <= slot {
                        event_of.resize(slot + 1, NO_EVENT);
                    }
                    event_of[slot] = i as u32;
                    admitted += 1;
                    if staged == 0 {
                        oldest_staged_ns = now_ns;
                    }
                    staged += 1;
                }
                Err(_) => pass.failed += 1,
            }
            if staged >= p.doorbell_batch {
                doorbell_and_step(&mut service, &mut lat)?;
                staged = 0;
            }
            if i + 1 == schedule.len() / 2 {
                backlog_mid = admitted - lat.completed;
            }
        }
        let late_ns = service.control_now_ns().saturating_sub(due_ns);
        doorbell_and_step(&mut service, &mut lat)?;
        let backlog_end = admitted - lat.completed;
        let done = span(Layer::ServeDrain, || service.drain_all());
        lat.absorb(done);

        // Reap every session's completion ring and check every output.
        let mut seen = vec![false; event_of.len()];
        let mut delivered = 0u64;
        for id in &ids {
            let done = span(Layer::ServeReap, || service.take_completions(*id));
            untimed(|| {
                for c in done {
                    let slot = c.id.checked_sub(first_id.unwrap_or(0)).map(|s| s as usize);
                    let Some(slot) =
                        slot.filter(|s| event_of.get(*s).is_some_and(|e| *e != NO_EVENT))
                    else {
                        pass.mismatch(|| format!("completion for unknown request {}", c.id));
                        continue;
                    };
                    if std::mem::replace(&mut seen[slot], true) {
                        pass.mismatch(|| format!("request {} completed twice", c.id));
                    }
                    delivered += 1;
                    let idx = event_of[slot] as usize;
                    self.check(&schedule[idx].req, self.ref_offset[r][idx], c.result, &mut pass);
                }
            });
        }
        if delivered != admitted {
            pass.mismatch(|| format!("{admitted} requests admitted, {delivered} completed"));
        }

        let (mean_us, p50_us, p99_us, samples) = latency_summary(&mut lat.block_ns);
        let span_ns = lat.last_block_ns.saturating_sub(lat.first_block_submit_ns).max(1);
        pass.virt = Virt {
            rps: samples as f64 / (span_ns as f64 / 1e9),
            mean_us,
            p50_us,
            p99_us,
            samples,
            smc_per_req: Some(service.smc_calls() as f64 / lat.completed.max(1) as f64),
            slo_rps: None,
            vs_native: None,
        };
        pass.counts = serve_counts(&service, lat.completed);
        span(Layer::ServeBuild, || drop(service));
        let offered_rps = schedule.len() as f64 / (due_ns.max(1) as f64 / 1e9);
        Ok(Rung { pass, offered_rps, backlog: (backlog_mid, backlog_end), late_ns })
    }

    /// Check one completion against the reference: a typed error counts as
    /// a failure, a wrong byte as a mismatch.
    fn check(
        &self,
        req: &Request,
        offset: usize,
        result: Result<Payload, ServeError>,
        pass: &mut Pass,
    ) {
        match (req, result) {
            (_, Err(_)) => pass.failed += 1,
            (Request::Read { device, blkid, blkcnt }, Ok(Payload::Read(bytes))) => {
                if self.reference.get(offset..offset + bytes.len()) != Some(&bytes[..])
                    || bytes.len() != *blkcnt as usize * BLOCK
                {
                    pass.mismatch(|| {
                        format!("{device} read {blkid}+{blkcnt} differs from the reference")
                    });
                }
            }
            (Request::Capture { .. }, Ok(Payload::Image { data })) => {
                if data != self.frame {
                    pass.mismatch(|| "captured frame differs from the reference capture".into());
                }
            }
            _ => pass.mismatch(|| "completion payload does not match the request".into()),
        }
    }
}

/// Virtual latencies gathered from the completions the event loop returns.
#[derive(Default)]
struct Lat {
    completed: u64,
    /// Block-request latencies. The camera lane runs for seconds of its own
    /// virtual time, so virtual metrics are over the block plane.
    block_ns: Vec<u64>,
    first_block_submit_ns: u64,
    last_block_ns: u64,
}

impl Lat {
    fn absorb(&mut self, done: Vec<Completion>) {
        for c in done {
            self.completed += 1;
            if c.device != Device::Vchiq {
                if self.block_ns.is_empty() || c.submitted_ns < self.first_block_submit_ns {
                    self.first_block_submit_ns = c.submitted_ns;
                }
                self.block_ns.push(c.latency_ns());
                self.last_block_ns = self.last_block_ns.max(c.completed_ns);
            }
        }
    }
}

/// Ring the doorbell, then step lanes while a lane with queued work is
/// behind the control clock.
fn doorbell_and_step(service: &mut DriverletService, lat: &mut Lat) -> Result<(), String> {
    span(Layer::ServeDoorbell, || service.ring_doorbell()).map_err(|e| e.to_string())?;
    span(Layer::ServeDrain, || loop {
        let now = service.control_now_ns();
        if !service.lane_status().iter().any(|l| l.queued > 0 && l.now_ns < now) {
            break;
        }
        let step = service.drain();
        if step.is_empty() {
            break;
        }
        lat.absorb(step);
    });
    Ok(())
}

impl Workload for TenantsRing {
    fn settings(&self) -> Vec<(&'static str, String)> {
        let p = &self.params;
        vec![
            ("loop", "open in virtual time, 1 thread (ExecMode::Sequential)".into()),
            ("devices", "mmc x2 (Stripe), usb, vchiq".into()),
            ("sessions", self.sessions.to_string()),
            ("requests_per_session", p.requests_per_session.to_string()),
            ("ladder_gap_ns", format!("{:?}", p.ladder_gap_ns)),
            ("nominal_rung", format!("{} (gap {} ns)", p.nominal, p.ladder_gap_ns[p.nominal])),
            ("p99_limit_us", p.p99_limit_us.to_string()),
            ("doorbell", format!("batch {} or wait {} ns", p.doorbell_batch, p.doorbell_wait_ns)),
            ("hold_budget_ns", p.hold_budget_ns.to_string()),
            ("stripe_blocks", p.stripe_blocks.to_string()),
            ("submit_mode", "ring".into()),
            ("replay_mode", "compiled".into()),
        ]
    }

    fn setup_ms(&self) -> BTreeMap<&'static str, f64> {
        self.setup_ms.clone()
    }

    fn pass(&mut self, _index: u64) -> Pass {
        let pass = self.run_rung(self.params.nominal).map(|rung| rung.pass);
        repeat_check(pass, &mut self.first)
    }

    fn finish(&mut self, virt: &mut Virt) -> (Vec<String>, u64) {
        let mut lines = Vec::new();
        let mut mismatches = 0;
        let mut best = None;
        for r in 0..self.params.ladder_gap_ns.len() {
            match self.run_rung(r) {
                Ok(rung) => {
                    let ok = rung.meets(self.params.p99_limit_us);
                    mismatches += rung.pass.mismatches;
                    lines.push(format!(
                        "rung {r}: offered {:.0} req/s, block p99 {:.1} us, refused {}, backlog {} -> {}, \
                         generator late {} ns, {}",
                        rung.offered_rps,
                        rung.pass.virt.p99_us,
                        rung.pass.failed,
                        rung.backlog.0,
                        rung.backlog.1,
                        rung.late_ns,
                        if ok { "meets" } else { "misses" }
                    ));
                    if ok {
                        best = Some(rung.offered_rps);
                    }
                }
                Err(e) => {
                    mismatches += 1;
                    lines.push(format!("rung {r}: {e}"));
                }
            }
        }
        virt.slo_rps = Some(best.unwrap_or(0.0));
        (lines, mismatches)
    }
}
