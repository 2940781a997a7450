//! `rw_percall_threaded`: a closed loop over the per-call submit path with
//! the lane on its own thread.
//!
//! A few sessions each keep a small window of requests outstanding: 30%
//! writes, 1/8/32-block sizes over a wide address range. No two requests
//! outstanding together touch or abut, so coalescing stays at 1.0 and every
//! read has one serial answer. `SubmitMode::PerCall` pays one SMC per submit
//! and per reap; one MMC lane runs under `ExecMode::Threaded`, so the
//! front-end and the lane make two threads.

use std::collections::BTreeMap;

use dlt_serve::{
    Device, DriverletService, ExecMode, ObsConfig, Payload, Policy, QosConfig, Request,
    RouteConfig, ServeConfig, SessionId, SubmitMode, BLOCK,
};
use dlt_template::Driverlet;

use crate::common::{latency_summary, span, untimed, Layer, Pass, Rng, Virt};
use crate::rig::{record, repeat_check, serve_counts, RefReader, SERVE_GRANULARITIES};
use crate::Workload;

/// Workload parameters (printed with every result).
#[derive(Debug, Clone)]
pub struct PercallParams {
    /// Client sessions.
    pub sessions: usize,
    /// Requests each session keeps outstanding.
    pub window: usize,
    /// Closed-loop rounds per pass (each round fills every window, waits
    /// for it to drain and reaps every session).
    pub rounds: usize,
    /// Percentage of requests that are writes.
    pub write_pct: u64,
    /// Addresses are drawn from `0..span_blocks`.
    pub span_blocks: u32,
}

impl PercallParams {
    /// The benchmark's run length.
    pub fn standard() -> Self {
        PercallParams { sessions: 4, window: 4, rounds: 600, write_pct: 30, span_blocks: 16_384 }
    }
}

/// One generated request: its session and extent.
#[derive(Debug, Clone, Copy)]
struct Op {
    session: usize,
    write: bool,
    blkid: u32,
    blkcnt: u32,
}

/// Generate `rounds` rounds of `sessions * window` requests whose extents
/// neither overlap nor abut within a round.
fn generate(p: &PercallParams, rng: &mut Rng) -> Vec<Vec<Op>> {
    (0..p.rounds)
        .map(|_| {
            let mut round: Vec<Op> = Vec::new();
            for session in 0..p.sessions {
                for _ in 0..p.window {
                    loop {
                        let blkcnt = [1u32, 8, 32][rng.below(3) as usize];
                        let blkid = rng.below(u64::from(p.span_blocks - blkcnt)) as u32;
                        let clear = round
                            .iter()
                            .all(|o| blkid + blkcnt < o.blkid || o.blkid + o.blkcnt < blkid);
                        if clear {
                            let write = rng.below(100) < p.write_pct;
                            round.push(Op { session, write, blkid, blkcnt });
                            break;
                        }
                    }
                }
            }
            round
        })
        .collect()
}

/// The `rw_percall_threaded` workload after set-up.
pub struct RwPercall {
    params: PercallParams,
    bundle: Driverlet,
    rounds: Vec<Vec<Op>>,
    /// The card as a bare replayer read it in set-up.
    reference: Vec<u8>,
    /// Working copy of `reference` a pass updates with its writes.
    image: Vec<u8>,
    /// Random bytes write stamps are cut from.
    pool: Vec<u8>,
    /// Virtual results of the first pass, which every pass must repeat.
    first: Option<Virt>,
    setup_ms: BTreeMap<&'static str, f64>,
}

impl RwPercall {
    /// Record, load, generate the request stream and read the reference
    /// image of the address range.
    pub fn setup(seed: u64, params: PercallParams) -> Result<Self, String> {
        let mut setup_ms = BTreeMap::new();
        let (recorded, record_ms) = record(&[Device::Mmc])?;
        setup_ms.insert("recorder.record_ms", record_ms);
        let binary = &recorded[0].1;
        let t = std::time::Instant::now();
        let bundle = Driverlet::from_binary(binary).map_err(|e| e.to_string())?;
        let decode_ms = t.elapsed().as_secs_f64() * 1e3;
        let (mut reader, load_ms) = RefReader::new(Device::Mmc, binary)?;
        setup_ms.insert("template.load_ms", decode_ms + load_ms);
        let reference = reader.read(0, params.span_blocks)?;
        let mut rng = Rng::new(seed, 0);
        let rounds = generate(&params, &mut rng);
        let mut pool = vec![0u8; 64 * BLOCK];
        rng.fill(&mut pool);
        let image = reference.clone();
        Ok(RwPercall { params, bundle, rounds, reference, image, pool, first: None, setup_ms })
    }

    fn config() -> ServeConfig {
        ServeConfig {
            max_sessions: 64,
            queue_capacity: 64,
            submit_mode: SubmitMode::PerCall,
            exec_mode: ExecMode::Threaded,
            sq_depth: 64,
            cq_depth: 64,
            policy: Policy::Fifo,
            coalesce: true,
            // One request per dispatch: batch composition would otherwise
            // follow the lane thread's wake-up timing, and with it the
            // execution order inside a batch and every virtual stamp.
            coalesce_window: 1,
            // A closed-loop client gains nothing from anticipation.
            hold_budget_ns: 0,
            block_granularities: SERVE_GRANULARITIES.to_vec(),
            camera_bursts: vec![1],
            mode: dlt_core::ReplayMode::Compiled,
            route: RouteConfig::default(),
            qos: QosConfig::default(),
            failover: Default::default(),
            supervise: Default::default(),
            obs: ObsConfig::Off,
        }
    }

    /// Stamp write `n` of the pass into `out`: the head of every block gets
    /// the write number, the block index and pool bytes, so every write's
    /// blocks differ from every earlier content of the card.
    fn stamp(&self, n: u64, out: &mut [u8]) {
        for (b, block) in out.chunks_mut(BLOCK).enumerate() {
            let off = (n as usize * 7 + b) % 63 * BLOCK;
            block[..8].copy_from_slice(&n.to_le_bytes());
            block[8..12].copy_from_slice(&(b as u32).to_le_bytes());
            block[12..64].copy_from_slice(&self.pool[off..off + 52]);
        }
    }

    fn run(&mut self) -> Result<Pass, String> {
        let mut service = span(Layer::ServeBuild, || {
            DriverletService::with_driverlets(&[(Device::Mmc, self.bundle.clone())], Self::config())
        })
        .map_err(|e| e.to_string())?;
        let ids: Vec<SessionId> = span(Layer::ServeBuild, || {
            (0..self.params.sessions).map(|_| service.open_session()).collect::<Result<_, _>>()
        })
        .map_err(|e| e.to_string())?;
        let start_ns = service.now_ns();
        // `image` is the card as the run should see it: the set-up reference
        // plus every write so far. No two requests of a round overlap, so a
        // write lands in the image when it is submitted.
        let mut image = std::mem::take(&mut self.image);
        let mut written: Vec<(u32, u32)> = Vec::new();
        let mut pass = Pass::default();
        let mut lat =
            Vec::with_capacity(self.rounds.len() * self.params.sessions * self.params.window);
        let mut completed = 0u64;
        let mut writes = 0u64;
        for round in &self.rounds {
            // Request id (minus the round's first) → op; one lane, so the
            // round's ids are consecutive.
            let mut inflight: Vec<Option<Op>> = vec![None; round.len()];
            let mut first_id = None;
            for op in round {
                let range = op.blkid as usize * BLOCK..(op.blkid + op.blkcnt) as usize * BLOCK;
                let req = if op.write {
                    writes += 1;
                    self.stamp(writes, &mut image[range.clone()]);
                    written.push((op.blkid, op.blkcnt));
                    Request::Write {
                        device: Device::Mmc,
                        blkid: op.blkid,
                        data: image[range].to_vec(),
                    }
                } else {
                    Request::Read { device: Device::Mmc, blkid: op.blkid, blkcnt: op.blkcnt }
                };
                pass.attempted += 1;
                match span(Layer::ServeSubmit, || service.submit(ids[op.session], req)) {
                    Ok(id) => {
                        let slot = (id - *first_id.get_or_insert(id)) as usize;
                        if let Some(entry) = inflight.get_mut(slot) {
                            *entry = Some(*op);
                        } else {
                            pass.mismatch(|| format!("request id {id} outside its round"));
                        }
                    }
                    Err(_) => pass.failed += 1,
                }
            }
            span(Layer::ServeWait, || drop(service.drain_all()));
            for id in &ids {
                let done = span(Layer::ServeReap, || service.take_completions(*id));
                completed += done.len() as u64;
                untimed(|| {
                    for c in done {
                        lat.push(c.latency_ns());
                        let slot = c.id.checked_sub(first_id.unwrap_or(0)).map(|s| s as usize);
                        let Some(op) =
                            slot.and_then(|s| inflight.get_mut(s)).and_then(Option::take)
                        else {
                            pass.mismatch(|| format!("completion for unknown request {}", c.id));
                            continue;
                        };
                        let range =
                            op.blkid as usize * BLOCK..(op.blkid + op.blkcnt) as usize * BLOCK;
                        match c.result {
                            Err(_) => pass.failed += 1,
                            Ok(Payload::Written { blocks }) if op.write && blocks == op.blkcnt => {}
                            Ok(Payload::Read(bytes)) if !op.write => {
                                if bytes[..] != image[range] {
                                    pass.mismatch(|| {
                                        format!(
                                            "read {}+{} differs from the last write or the reference",
                                            op.blkid, op.blkcnt
                                        )
                                    });
                                }
                            }
                            _ => pass.mismatch(|| {
                                "completion payload does not match the request".into()
                            }),
                        }
                    }
                });
            }
            let lost = inflight.iter().filter(|o| o.is_some()).count();
            if lost > 0 {
                pass.mismatch(|| format!("{lost} admitted requests never completed"));
            }
        }
        // Back to the reference for the next pass's fresh card.
        for (blkid, blkcnt) in written {
            let range = blkid as usize * BLOCK..(blkid + blkcnt) as usize * BLOCK;
            image[range.clone()].copy_from_slice(&self.reference[range]);
        }
        self.image = image;
        let span_ns = service.now_ns() - start_ns;
        let (mean_us, p50_us, p99_us, samples) = latency_summary(&mut lat);
        pass.virt = Virt {
            rps: completed as f64 / (span_ns as f64 / 1e9),
            mean_us,
            p50_us,
            p99_us,
            samples,
            smc_per_req: Some(service.smc_calls() as f64 / completed.max(1) as f64),
            slo_rps: None,
            vs_native: None,
        };
        pass.counts = serve_counts(&service, completed);
        span(Layer::ServeBuild, || drop(service));
        Ok(pass)
    }
}

impl Workload for RwPercall {
    fn settings(&self) -> Vec<(&'static str, String)> {
        let p = &self.params;
        vec![
            ("loop", format!("closed, {} sessions x window {}", p.sessions, p.window)),
            ("threads", "2 (front-end + one MMC lane, ExecMode::Threaded)".into()),
            ("rounds_per_pass", p.rounds.to_string()),
            ("write_pct", p.write_pct.to_string()),
            ("sizes_blocks", "1 8 32".into()),
            ("span_blocks", p.span_blocks.to_string()),
            ("submit_mode", "per-call".into()),
            ("replay_mode", "compiled".into()),
        ]
    }

    fn setup_ms(&self) -> BTreeMap<&'static str, f64> {
        self.setup_ms.clone()
    }

    fn pass(&mut self, _index: u64) -> Pass {
        let pass = self.run();
        repeat_check(pass, &mut self.first)
    }
}
