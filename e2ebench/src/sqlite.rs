//! `sqlite_direct`: the paper's own workload (Fig 5).
//!
//! A closed loop with one client on one thread runs the six microdb
//! benchmarks on MMC and on USB. Block IO goes straight into a bare
//! [`Replayer`] loaded with the full recorded granularity set, so nearly all
//! host time is in the replay engine and the bus/device simulation. The same
//! query streams run once through the native gold drivers in set-up; their
//! virtual time is the denominator of `vt_vs_native`.
//!
//! The databases carry over from pass to pass: pass 0 runs on the freshly
//! formatted databases the native pass also started from, and later passes
//! run the same query streams on what the earlier passes left (a delete
//! that found its key in pass 0 finds nothing later). The virtual metrics
//! come from pass 0; later passes only add host-time samples.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::Instant;

use dlt_core::{replay_mmc, replay_usb, Replayer};
use dlt_hw::Platform;
use dlt_recorder::campaign::{record_mmc_driverlet, record_usb_driverlet};
use dlt_serve::Device;
use dlt_workloads::block::{BlockDev, DriverletDev, NativeDev, StorageKind, StoragePath};
use dlt_workloads::microdb::{DbError, MicroDb, VALUE_BYTES};
use dlt_workloads::suite::SqliteBenchmark;

use crate::common::{latency_summary, span, Layer, Pass, Rng, Virt};
use crate::rig::bare_replayer;
use crate::Workload;

/// Workload parameters (printed with every result).
#[derive(Debug, Clone)]
pub struct SqliteParams {
    /// Logical queries per (benchmark, device) cell in one pass.
    pub queries: u64,
    /// Keys are drawn uniformly from `0..keyspace`.
    pub keyspace: u64,
    /// Bucket pages per database.
    pub buckets: u32,
    /// Records inserted before the first pass.
    pub prepopulate: u64,
}

impl SqliteParams {
    /// The benchmark's run length.
    pub fn standard() -> Self {
        SqliteParams { queries: 300, keyspace: 1024, buckets: 64, prepopulate: 512 }
    }
}

/// One microdb operation of a query stream.
#[derive(Debug, Clone, Copy)]
enum Query {
    Put(u64),
    Delete(u64),
    Get(u64),
}

/// The query stream of one benchmark, following `SqliteBenchmark::step`'s
/// read:write mix with seeded keys: per ten logical queries, `writes` of
/// them start with a mutation, and each issues `reads / 3 + 1` lookups.
fn query_stream(bench: SqliteBenchmark, queries: u64, keyspace: u64, rng: &mut Rng) -> Vec<Query> {
    let (reads, writes) = bench.rw_ratio();
    let mut out = Vec::new();
    for i in 0..queries {
        if i % 10 < u64::from(writes) {
            let key = rng.below(keyspace);
            out.push(match bench {
                SqliteBenchmark::Delete => Query::Delete(key),
                _ => Query::Put(key),
            });
        }
        for _ in 0..u64::from(reads).max(1) / 3 + 1 {
            out.push(Query::Get(rng.below(keyspace)));
        }
    }
    out
}

/// A bare replayer serving one block device, shared by the databases on it.
struct ReplayRig {
    platform: Platform,
    replayer: Replayer,
    kind: StorageKind,
    /// Virtual latency of every op while `record` is set.
    lat: Vec<u64>,
    record: bool,
    ops: u64,
    failed: u64,
}

impl ReplayRig {
    fn new(kind: StorageKind, bundle: &[u8]) -> Result<(Self, f64), String> {
        let device = match kind {
            StorageKind::Mmc => Device::Mmc,
            StorageKind::Usb => Device::Usb,
        };
        let (platform, replayer, load_ms) = bare_replayer(device, bundle)?;
        let rig = ReplayRig {
            platform,
            replayer,
            kind,
            lat: Vec::new(),
            record: false,
            ops: 0,
            failed: 0,
        };
        Ok((rig, load_ms))
    }

    fn io(&mut self, rw: u64, blkid: u32, buf: &mut [u8]) -> Result<(), String> {
        let blkcnt = (buf.len() / dlt_workloads::block::BLOCK) as u32;
        let t0 = self.platform.now_ns();
        let mut done = 0u32;
        let result = span(Layer::Core, || {
            for part in DriverletDev::decompose(blkcnt) {
                let range = done as usize * 512..(done + part) as usize * 512;
                let r = match self.kind {
                    StorageKind::Mmc => {
                        replay_mmc(&mut self.replayer, rw, part, blkid + done, 0, &mut buf[range])
                    }
                    StorageKind::Usb => {
                        replay_usb(&mut self.replayer, rw, part, blkid + done, 0, &mut buf[range])
                    }
                };
                r.map_err(|e| e.to_string())?;
                done += part;
            }
            Ok(())
        });
        self.ops += 1;
        if result.is_err() {
            self.failed += 1;
        }
        if self.record {
            self.lat.push(self.platform.now_ns() - t0);
        }
        result
    }
}

/// Block-device handle onto a shared [`ReplayRig`].
#[derive(Clone)]
struct RigDev(Rc<RefCell<ReplayRig>>);

impl BlockDev for RigDev {
    fn read_blocks(&mut self, blkid: u32, blkcnt: u32, buf: &mut [u8]) -> Result<(), String> {
        self.0.borrow_mut().io(0x1, blkid, &mut buf[..blkcnt as usize * 512])
    }
    fn write_blocks(&mut self, blkid: u32, data: &[u8]) -> Result<(), String> {
        let mut scratch = data.to_vec();
        self.0.borrow_mut().io(0x10, blkid, &mut scratch)
    }
    fn flush(&mut self) -> Result<(), String> {
        Ok(())
    }
    fn now_ns(&self) -> u64 {
        self.0.borrow().platform.now_ns()
    }
}

/// Block-device handle onto a shared native gold-driver stack.
#[derive(Clone)]
struct NativeHandle(Rc<RefCell<NativeDev>>);

impl BlockDev for NativeHandle {
    fn read_blocks(&mut self, blkid: u32, blkcnt: u32, buf: &mut [u8]) -> Result<(), String> {
        self.0.borrow_mut().read_blocks(blkid, blkcnt, buf)
    }
    fn write_blocks(&mut self, blkid: u32, data: &[u8]) -> Result<(), String> {
        self.0.borrow_mut().write_blocks(blkid, data)
    }
    fn flush(&mut self) -> Result<(), String> {
        self.0.borrow_mut().flush()
    }
    fn now_ns(&self) -> u64 {
        self.0.borrow().now_ns()
    }
}

/// One (benchmark, device) cell: its database, query stream and the model
/// of what every key holds.
struct Cell {
    bench: SqliteBenchmark,
    kind: StorageKind,
    db: MicroDb<RigDev>,
    stream: Vec<Query>,
    model: HashMap<u64, [u8; VALUE_BYTES]>,
}

/// The value a put stores: unique per (pass, cell, position), so a stale
/// page read cannot pass the model check.
fn value_for(pass: u64, cell: usize, pos: usize) -> [u8; VALUE_BYTES] {
    let mut v = [0u8; VALUE_BYTES];
    v[..8].copy_from_slice(&pass.to_le_bytes());
    v[8..16].copy_from_slice(&(cell as u64).to_le_bytes());
    v[16..24].copy_from_slice(&(pos as u64).to_le_bytes());
    v
}

fn initial_value(key: u64) -> [u8; VALUE_BYTES] {
    let mut v = [0u8; VALUE_BYTES];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8] = 0xa5;
    v
}

fn db_base(cell: usize) -> u32 {
    4096 * (cell as u32 + 1)
}

/// Format a database at `base` and insert the first `n` keys.
fn format_db<D: BlockDev>(dev: D, base: u32, p: &SqliteParams) -> Result<MicroDb<D>, String> {
    let mut db = MicroDb::format(dev, base, p.buckets).map_err(|e| e.to_string())?;
    for k in 0..p.prepopulate {
        db.put(k % p.keyspace, &initial_value(k % p.keyspace)).map_err(|e| e.to_string())?;
    }
    db.flush().map_err(|e| e.to_string())?;
    Ok(db)
}

/// The `sqlite_direct` workload after set-up.
pub struct SqliteDirect {
    params: SqliteParams,
    rigs: Vec<Rc<RefCell<ReplayRig>>>,
    cells: Vec<Cell>,
    /// Native virtual time of the whole stream (set-up's reference pass).
    native_ns: u64,
    setup_ms: BTreeMap<&'static str, f64>,
}

impl SqliteDirect {
    /// Record, load, build the rigs, format the databases and run the
    /// native reference pass.
    pub fn setup(seed: u64, params: SqliteParams) -> Result<Self, String> {
        let mut setup_ms = BTreeMap::new();
        let t = Instant::now();
        let mmc = record_mmc_driverlet().map_err(|e| e.to_string())?.to_binary();
        let usb = record_usb_driverlet().map_err(|e| e.to_string())?.to_binary();
        setup_ms.insert("recorder.record_ms", t.elapsed().as_secs_f64() * 1e3);

        let mut load_ms = 0.0;
        let mut rigs = Vec::new();
        for (kind, bundle) in [(StorageKind::Mmc, &mmc), (StorageKind::Usb, &usb)] {
            let (rig, ms) = ReplayRig::new(kind, bundle)?;
            load_ms += ms;
            rigs.push(Rc::new(RefCell::new(rig)));
        }
        setup_ms.insert("template.load_ms", load_ms);

        let mut cells = Vec::new();
        for (r, kind) in [StorageKind::Mmc, StorageKind::Usb].into_iter().enumerate() {
            for bench in SqliteBenchmark::all() {
                let idx = cells.len();
                let mut rng = Rng::new(seed, idx as u64);
                let stream = query_stream(bench, params.queries, params.keyspace, &mut rng);
                let db = format_db(RigDev(Rc::clone(&rigs[r])), db_base(idx), &params)?;
                let model = (0..params.prepopulate)
                    .map(|k| (k % params.keyspace, initial_value(k % params.keyspace)))
                    .collect();
                cells.push(Cell { bench, kind, db, stream, model });
            }
        }

        // Native reference: the same databases and streams through the gold
        // drivers behind the modelled kernel block layer and page cache.
        let t = Instant::now();
        let mut native_ns = 0;
        for kind in [StorageKind::Mmc, StorageKind::Usb] {
            let dev =
                NativeHandle(Rc::new(RefCell::new(NativeDev::new(kind, StoragePath::Native))));
            for (idx, cell) in cells.iter().enumerate().filter(|(_, c)| c.kind == kind) {
                let mut db = format_db(dev.clone(), db_base(idx), &params)?;
                let start = dev.now_ns();
                for (pos, q) in cell.stream.iter().enumerate() {
                    run_query(&mut db, *q, &value_for(0, idx, pos)).map_err(|e| e.to_string())?;
                }
                db.flush().map_err(|e| e.to_string())?;
                native_ns += dev.now_ns() - start;
            }
        }
        setup_ms.insert("gold.native_ms", t.elapsed().as_secs_f64() * 1e3);
        Ok(SqliteDirect { params, rigs, cells, native_ns, setup_ms })
    }
}

/// Execute one query; a get returns what the database held.
fn run_query<D: BlockDev>(
    db: &mut MicroDb<D>,
    q: Query,
    value: &[u8; VALUE_BYTES],
) -> Result<QueryOut, DbError> {
    Ok(match q {
        Query::Put(k) => {
            db.put(k, value)?;
            QueryOut::Done
        }
        Query::Delete(k) => QueryOut::Deleted(db.delete(k)?),
        Query::Get(k) => QueryOut::Got(db.get(k)?),
    })
}

enum QueryOut {
    Done,
    Deleted(bool),
    Got(Option<Vec<u8>>),
}

impl Workload for SqliteDirect {
    fn settings(&self) -> Vec<(&'static str, String)> {
        let p = &self.params;
        vec![
            ("loop", "closed, 1 client, 1 thread".into()),
            ("devices", "mmc, usb (bare Replayer, granularities 1/8/32/128/256)".into()),
            ("benchmarks", "select3 delete idxby io selectG insert3".into()),
            ("queries_per_cell", p.queries.to_string()),
            ("keyspace", p.keyspace.to_string()),
            ("buckets", p.buckets.to_string()),
            ("prepopulate", p.prepopulate.to_string()),
            ("replay_mode", "compiled".into()),
        ]
    }

    fn setup_ms(&self) -> BTreeMap<&'static str, f64> {
        self.setup_ms.clone()
    }

    fn pass(&mut self, index: u64) -> Pass {
        let mut pass = Pass::default();
        let before: Vec<_> = self
            .rigs
            .iter()
            .map(|r| {
                let mut r = r.borrow_mut();
                r.lat.clear();
                r.record = true;
                r.ops = 0;
                r.failed = 0;
                let bus = r.platform.bus.lock().access_count();
                (r.replayer.stats(), bus)
            })
            .collect();
        let io_before: u64 =
            self.cells.iter().map(|c| c.db.io_counts().0 + c.db.io_counts().1).sum();
        let mut vt_ns = 0u64;
        let mut queries = 0u64;
        for (idx, cell) in self.cells.iter_mut().enumerate() {
            let start = cell.db.dev().now_ns();
            for (pos, q) in cell.stream.iter().enumerate() {
                let value = value_for(index, idx, pos);
                let out = span(Layer::Workloads, || run_query(&mut cell.db, *q, &value));
                match (q, out) {
                    // A failed block IO is counted by the rig, as an op.
                    (_, Err(DbError::Io(_))) => {}
                    (_, Err(_)) => pass.failed += 1,
                    (Query::Put(k), Ok(_)) => {
                        cell.model.insert(*k, value);
                    }
                    (Query::Delete(k), Ok(QueryOut::Deleted(existed))) => {
                        if cell.model.remove(k).is_some() != existed {
                            pass.mismatch(|| {
                                format!("{} delete({k}) existed={existed}", cell.bench.name())
                            });
                        }
                    }
                    (Query::Get(k), Ok(QueryOut::Got(got))) => {
                        let want = cell.model.get(k);
                        if got.as_deref() != want.map(|v| &v[..]) {
                            pass.mismatch(|| {
                                format!(
                                    "{} on {:?}: get({k}) returned a value other than the last put",
                                    cell.bench.name(),
                                    cell.kind
                                )
                            });
                        }
                    }
                    _ => pass.mismatch(|| "query returned the wrong kind of result".into()),
                }
            }
            queries += self.params.queries;
            vt_ns += cell.db.dev().now_ns() - start;
        }
        let io_after: u64 =
            self.cells.iter().map(|c| c.db.io_counts().0 + c.db.io_counts().1).sum();

        let mut lat = Vec::new();
        let (mut events, mut irq_waits, mut invocations, mut executions, mut mmio) =
            (0, 0, 0, 0, 0);
        for (rig, (stats, bus)) in self.rigs.iter().zip(before) {
            let mut rig = rig.borrow_mut();
            rig.record = false;
            lat.append(&mut rig.lat);
            pass.attempted += rig.ops;
            pass.failed += rig.failed;
            let now = rig.replayer.stats();
            events += now.events_executed - stats.events_executed;
            irq_waits += now.irq_waits - stats.irq_waits;
            invocations += now.invocations - stats.invocations;
            executions += now.executions - stats.executions;
            let bus_now = rig.platform.bus.lock().access_count();
            mmio += bus_now - bus;
        }
        let (mean_us, p50_us, p99_us, samples) = latency_summary(&mut lat);
        pass.virt = Virt {
            rps: pass.attempted as f64 / (vt_ns as f64 / 1e9),
            mean_us,
            p50_us,
            p99_us,
            samples,
            smc_per_req: None,
            slo_rps: None,
            vs_native: Some(vt_ns as f64 / self.native_ns as f64),
        };
        let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
        pass.counts.insert("workloads.ios_per_query", per(io_after - io_before, queries));
        pass.counts.insert("core.events", events as f64);
        pass.counts.insert("core.events_per_replay", per(events, invocations));
        pass.counts.insert("core.irq_waits_per_replay", per(irq_waits, invocations));
        pass.counts.insert("core.useful_ratio", per(invocations, executions));
        pass.counts.insert("hw.mmio_per_event", per(mmio, events));
        pass
    }
}
