//! The SQLite-derived benchmark suite (Table 9) and the per-benchmark
//! harness behind Figure 5 (`dlt_bench::figure5_panel` runs the panels).

use std::collections::HashMap;

use crate::block::{make_storage, BlockDev, StorageKind, StoragePath};
use crate::microdb::MicroDb;

/// The six benchmarks the paper picks from the SQLite test suite "to
/// diversify read/write ratios" (Table 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqliteBenchmark {
    /// Read-only point queries (R:W 10:0).
    Select3,
    /// Mostly reads with occasional deletes (9:1).
    Delete,
    /// Index-style lookups with occasional updates (9:1).
    Idxby,
    /// Mixed IO (8:2).
    Io,
    /// Grouped selects with updates (6:4).
    SelectG,
    /// Insert-heavy (5:5).
    Insert3,
}

impl SqliteBenchmark {
    /// All six benchmarks in the paper's order.
    pub fn all() -> [SqliteBenchmark; 6] {
        [
            SqliteBenchmark::Select3,
            SqliteBenchmark::Delete,
            SqliteBenchmark::Idxby,
            SqliteBenchmark::Io,
            SqliteBenchmark::SelectG,
            SqliteBenchmark::Insert3,
        ]
    }

    /// Benchmark name as printed in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            SqliteBenchmark::Select3 => "select3",
            SqliteBenchmark::Delete => "delete",
            SqliteBenchmark::Idxby => "idxby",
            SqliteBenchmark::Io => "io",
            SqliteBenchmark::SelectG => "selectG",
            SqliteBenchmark::Insert3 => "insert3",
        }
    }

    /// Approximate read:write ratio (Table 9's R:W column).
    pub fn rw_ratio(&self) -> (u32, u32) {
        match self {
            SqliteBenchmark::Select3 => (10, 0),
            SqliteBenchmark::Delete => (9, 1),
            SqliteBenchmark::Idxby => (9, 1),
            SqliteBenchmark::Io => (8, 2),
            SqliteBenchmark::SelectG => (6, 4),
            SqliteBenchmark::Insert3 => (5, 5),
        }
    }

    /// Execute one logical query of this benchmark against the database.
    pub fn step<D: BlockDev>(&self, db: &mut MicroDb<D>, i: u64) -> Result<(), String> {
        let key = |j: u64| (i * 31 + j) % 4096;
        let val = i.to_le_bytes();
        let map_err = |e: crate::microdb::DbError| e.to_string();
        let (reads, writes) = self.rw_ratio();
        // Issue `reads` point lookups and `writes` mutations per ten logical
        // steps, interleaved deterministically.
        let slot = i % 10;
        if slot < u64::from(writes) {
            match self {
                SqliteBenchmark::Delete => {
                    db.delete(key(0)).map_err(map_err)?;
                }
                SqliteBenchmark::Insert3
                | SqliteBenchmark::Io
                | SqliteBenchmark::SelectG
                | SqliteBenchmark::Idxby => {
                    db.put(key(0), &val).map_err(map_err)?;
                }
                SqliteBenchmark::Select3 => {}
            }
        }
        for j in 0..u64::from(reads).max(1) / 3 + 1 {
            db.get(key(j)).map_err(map_err)?;
        }
        Ok(())
    }
}

/// Result of one benchmark on one storage configuration.
#[derive(Debug, Clone)]
pub struct BenchmarkResult {
    /// Which benchmark ran.
    pub benchmark: SqliteBenchmark,
    /// Storage device.
    pub kind: StorageKind,
    /// Execution path.
    pub path: StoragePath,
    /// Logical queries executed.
    pub queries: u64,
    /// Database page IOs issued (reads, writes).
    pub page_io: (u64, u64),
    /// Elapsed virtual time in nanoseconds.
    pub elapsed_ns: u64,
    /// IO operations per second of virtual time (the Figure 5 metric).
    pub iops: f64,
    /// Queries per second of virtual time.
    pub qps: f64,
    /// Driverlet template-invocation breakdown (Table 9), empty for native.
    pub breakdown: HashMap<u32, u64>,
}

/// Run one benchmark for `queries` logical queries on a fresh database over
/// the given storage configuration.
pub fn run_benchmark(
    benchmark: SqliteBenchmark,
    kind: StorageKind,
    path: StoragePath,
    queries: u64,
) -> Result<BenchmarkResult, String> {
    run_benchmark_on(make_storage(kind, path), benchmark, kind, path, queries)
}

/// Run one benchmark on a caller-supplied block device — the hook that
/// lets alternative execution paths (e.g. `dlt-serve`'s session-routed
/// device) reuse the whole Figure-5 suite unchanged.
pub fn run_benchmark_on<D: BlockDev>(
    dev: D,
    benchmark: SqliteBenchmark,
    kind: StorageKind,
    path: StoragePath,
    queries: u64,
) -> Result<BenchmarkResult, String> {
    let mut db = MicroDb::format(dev, 0, 64).map_err(|e| e.to_string())?;
    // Pre-populate so reads hit real records.
    for k in 0..512u64 {
        db.put(k % 4096, &k.to_le_bytes()).map_err(|e| e.to_string())?;
    }
    db.flush().map_err(|e| e.to_string())?;
    let (r0, w0) = db.io_counts();
    let start = db.dev().now_ns();

    for i in 0..queries {
        benchmark.step(&mut db, i)?;
    }
    db.flush().map_err(|e| e.to_string())?;

    let elapsed_ns = db.dev().now_ns() - start;
    let (r1, w1) = db.io_counts();
    let page_io = (r1 - r0, w1 - w0);
    let total_io = page_io.0 + page_io.1;
    let secs = elapsed_ns as f64 / 1e9;
    Ok(BenchmarkResult {
        benchmark,
        kind,
        path,
        queries,
        page_io,
        elapsed_ns,
        iops: total_io as f64 / secs,
        qps: queries as f64 / secs,
        breakdown: db.dev().invocation_breakdown(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_match_table9() {
        assert_eq!(SqliteBenchmark::Select3.rw_ratio(), (10, 0));
        assert_eq!(SqliteBenchmark::Insert3.rw_ratio(), (5, 5));
        assert_eq!(SqliteBenchmark::all().len(), 6);
        assert_eq!(SqliteBenchmark::Io.name(), "io");
    }

    #[test]
    fn figure5_shape_native_beats_driverlet_beats_native_sync_on_writes() {
        // A reduced-size run of the insert3 (write-heavy) benchmark on MMC:
        // the paper's ordering is native > driverlet > native-sync.
        let queries = 40;
        let native =
            run_benchmark(SqliteBenchmark::Insert3, StorageKind::Mmc, StoragePath::Native, queries)
                .unwrap();
        let sync = run_benchmark(
            SqliteBenchmark::Insert3,
            StorageKind::Mmc,
            StoragePath::NativeSync,
            queries,
        )
        .unwrap();
        let ours = run_benchmark(
            SqliteBenchmark::Insert3,
            StorageKind::Mmc,
            StoragePath::Driverlet,
            queries,
        )
        .unwrap();
        assert!(
            native.qps > ours.qps,
            "native ({:.0} qps) must beat the driverlet ({:.0} qps)",
            native.qps,
            ours.qps
        );
        assert!(
            ours.qps > sync.qps,
            "the driverlet ({:.0} qps) must beat native-sync ({:.0} qps)",
            ours.qps,
            sync.qps
        );
        assert!(!ours.breakdown.is_empty(), "driverlet runs report a template breakdown");
        assert!(native.breakdown.is_empty());
    }

    #[test]
    fn driverlets_are_slower_than_native_across_the_read_write_spectrum() {
        // Figure 5's calibrated sign: the driverlet path is slower than
        // native on *every* benchmark (paper: 1.8x on average for MMC).
        // Native reads ride the kernel page cache and native writes are
        // queued behind write-behind — both benefits the in-TEE replayer
        // forgoes (§8.3.2) — so the overhead is largest on the read-heavy
        // end and the average lands near the paper's headline number.
        let queries = 30;
        let mut overheads = Vec::new();
        for bench in [SqliteBenchmark::Select3, SqliteBenchmark::Insert3] {
            let native =
                run_benchmark(bench, StorageKind::Mmc, StoragePath::Native, queries).unwrap();
            let ours =
                run_benchmark(bench, StorageKind::Mmc, StoragePath::Driverlet, queries).unwrap();
            let overhead = native.qps / ours.qps;
            assert!(
                overhead > 1.0,
                "{}: driverlet ({:.0} qps) must be slower than native ({:.0} qps)",
                bench.name(),
                ours.qps,
                native.qps
            );
            overheads.push(overhead);
        }
        let avg = overheads.iter().sum::<f64>() / overheads.len() as f64;
        assert!(
            (1.2..=2.6).contains(&avg),
            "average driverlet slowdown {avg:.2}x strayed from the paper's 1.8x ballpark"
        );
    }
}
