//! Pins the simulator's virtual behaviour to fixed constants.
//!
//! Virtual time is deterministic, so a refactor of the simulator (bus,
//! devices, TEE services, gold drivers) must leave every number below
//! bit-identical: the binary encoding of the three recorded bundles, and,
//! for each block size and camera resolution on both the driverlet path and
//! the native gold-driver path, the virtual nanoseconds an operation takes,
//! the MMIO accesses the bus routes for it and a hash of the payload a read
//! returns.
//!
//! The native rows drive the gold drivers over `BusIo` directly: the same
//! driver stacks `dlt_workloads::block::make_storage` wraps, without its
//! modelled page cache, so the bus access count stays reachable.
//!
//! The ablation rows price three driverlet-specific costs (DESIGN.md §1):
//! one 8-block MMC read on a fresh platform with the per-template soft
//! reset, uncached MMIO or per-event dispatch removed from the cost model.
//! The stock-model row is `mmc/driverlet/read/8`.

use dlt_core::{replay_cam, replay_mmc, replay_usb, Replayer};
use dlt_dev_mmc::MmcSubsystem;
use dlt_dev_usb::UsbSubsystem;
use dlt_dev_vchiq::msg::CameraResolution;
use dlt_dev_vchiq::VchiqSubsystem;
use dlt_gold_drivers::kenv::{BusIo, IoFlags, Rw};
use dlt_gold_drivers::mmc::MmcHost;
use dlt_gold_drivers::usb::{UsbHcd, UsbStorageDriver};
use dlt_gold_drivers::vchiq::VchiqDriver;
use dlt_hw::{CostModel, DmaRegion, Platform};
use dlt_recorder::campaign::{
    pattern_buf, record_camera_driverlet_subset, record_mmc_driverlet, record_usb_driverlet,
    DEV_KEY,
};
use dlt_tee::{SecureIo, TeeKernel};
use dlt_template::Driverlet;

/// Block sizes of the record campaigns.
const BLOCKS: [u32; 5] = [1, 8, 32, 128, 256];

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
}

/// Measures one operation on a platform: virtual ns and bus accesses spent.
struct Meter<'a> {
    platform: &'a Platform,
    rows: &'a mut Vec<String>,
}

impl Meter<'_> {
    /// Run `op`, which returns the hash of the payload it read, if any.
    fn run(&mut self, label: String, op: impl FnOnce() -> Option<u64>) {
        let (t0, a0) = (self.platform.now_ns(), self.platform.bus.lock().access_count());
        let hash = op().map(|h| format!(" hash={h:#018x}")).unwrap_or_default();
        let ns = self.platform.now_ns() - t0;
        let mmio = self.platform.bus.lock().access_count() - a0;
        self.rows.push(format!("{label} ns={ns} mmio={mmio}{hash}"));
    }
}

#[derive(Clone, Copy)]
enum Storage {
    Mmc,
    Usb,
}

impl Storage {
    fn name(self) -> &'static str {
        match self {
            Storage::Mmc => "mmc",
            Storage::Usb => "usb",
        }
    }

    fn attach(self, platform: &Platform) -> &'static [&'static str] {
        match self {
            Storage::Mmc => {
                MmcSubsystem::attach(platform).unwrap();
                &["sdhost", "dma"]
            }
            Storage::Usb => {
                UsbSubsystem::attach(platform).unwrap();
                &["dwc2"]
            }
        }
    }
}

/// Write then read back every block size through a replayer loaded with
/// `bundle`, on a fresh platform.
fn driverlet_rows(storage: Storage, bundle: &Driverlet, rows: &mut Vec<String>) {
    let platform = Platform::new();
    let secure = storage.attach(&platform);
    TeeKernel::install(&platform, secure).unwrap();
    let mut replayer = Replayer::new(SecureIo::new(platform.bus.clone()));
    replayer.load_driverlet(bundle.clone(), DEV_KEY).unwrap();
    let mut meter = Meter { platform: &platform, rows };
    for (i, n) in BLOCKS.into_iter().enumerate() {
        let lba = 1_000 + 512 * i as u32;
        let len = n as usize * 512;
        let replay = match storage {
            Storage::Mmc => replay_mmc,
            Storage::Usb => replay_usb,
        };
        let mut data = pattern_buf(len, u64::from(n));
        meter.run(format!("{}/driverlet/write/{n}", storage.name()), || {
            replay(&mut replayer, 0x10, n, lba, 0, &mut data).unwrap();
            None
        });
        let mut out = vec![0u8; len];
        meter.run(format!("{}/driverlet/read/{n}", storage.name()), || {
            replay(&mut replayer, 0x1, n, lba, 0, &mut out).unwrap();
            Some(fnv1a(&out))
        });
    }
}

/// The same operations through the native gold driver, on a fresh platform.
fn native_rows(storage: Storage, rows: &mut Vec<String>) {
    let platform = Platform::new();
    storage.attach(&platform);
    let io = BusIo::normal_world(platform.bus.clone(), DmaRegion::new(0x0200_0000, 0x0100_0000));
    let mut meter = Meter { platform: &platform, rows };
    let mut mmc = None;
    let mut usb = None;
    meter.run(format!("{}/native/probe", storage.name()), || {
        match storage {
            Storage::Mmc => {
                let mut host = MmcHost::new(io);
                host.probe().unwrap();
                mmc = Some(host);
            }
            Storage::Usb => {
                let mut drv = UsbStorageDriver::new(UsbHcd::new(io));
                drv.init().unwrap();
                usb = Some(drv);
            }
        }
        None
    });
    let mut do_io = |rw: Rw, n: u32, lba: u32, buf: &mut [u8]| match (&mut mmc, &mut usb) {
        (Some(h), _) => h.do_io(rw, n, lba, IoFlags::none(), buf).unwrap(),
        (_, Some(d)) => d.do_io(rw, n, lba, IoFlags::none(), buf).unwrap(),
        _ => unreachable!(),
    };
    for (i, n) in BLOCKS.into_iter().enumerate() {
        let lba = 1_000 + 512 * i as u32;
        let len = n as usize * 512;
        let mut data = pattern_buf(len, u64::from(n));
        meter.run(format!("{}/native/write/{n}", storage.name()), || {
            do_io(Rw::Write, n, lba, &mut data);
            None
        });
        let mut out = vec![0u8; len];
        meter.run(format!("{}/native/read/{n}", storage.name()), || {
            do_io(Rw::Read, n, lba, &mut out);
            Some(fnv1a(&out))
        });
    }
}

/// One-frame captures at 720 and 1080 on both camera paths.
fn camera_rows(bundle: &Driverlet, rows: &mut Vec<String>) {
    let resolutions = [CameraResolution::R720p, CameraResolution::R1080p];

    let platform = Platform::new();
    VchiqSubsystem::attach(&platform).unwrap();
    TeeKernel::install(&platform, &["vchiq"]).unwrap();
    let mut replayer = Replayer::new(SecureIo::new(platform.bus.clone()));
    replayer.load_driverlet(bundle.clone(), DEV_KEY).unwrap();
    let mut meter = Meter { platform: &platform, rows: &mut *rows };
    for res in resolutions {
        meter.run(format!("cam/driverlet/capture/{}", res.code()), || {
            let mut buf = vec![0u8; 2 << 20];
            let size = replay_cam(&mut replayer, 1, res.code(), &mut buf).unwrap();
            Some(fnv1a(&buf[..size as usize]))
        });
    }

    let platform = Platform::new();
    VchiqSubsystem::attach(&platform).unwrap();
    let io = BusIo::normal_world(platform.bus.clone(), DmaRegion::new(0x0200_0000, 0x0100_0000));
    let mut drv = VchiqDriver::new(io);
    let mut meter = Meter { platform: &platform, rows };
    for res in resolutions {
        meter.run(format!("cam/native/capture/{}", res.code()), || {
            let mut buf = vec![0u8; 2 << 20];
            let size = drv.capture(1, res, &mut buf).unwrap();
            Some(fnv1a(&buf[..size as usize]))
        });
    }
}

/// One 8-block MMC read on a fresh platform under each ablated cost model.
fn ablation_rows(bundle: &Driverlet, rows: &mut Vec<String>) {
    let stock = CostModel::default();
    let no_reset = CostModel { soft_reset_ns: 0, ..stock.clone() };
    let cached_mmio = CostModel { mmio_uncached_ns: stock.mmio_access_ns, ..stock.clone() };
    let free_dispatch = CostModel { replay_event_dispatch_ns: 0, ..stock };
    for (label, cost) in [
        ("no-soft-reset", no_reset),
        ("cached-mmio", cached_mmio),
        ("free-dispatch", free_dispatch),
    ] {
        let platform = Platform::with_cost(cost);
        TeeKernel::install(&platform, Storage::Mmc.attach(&platform)).unwrap();
        let mut replayer = Replayer::new(SecureIo::new(platform.bus.clone()));
        replayer.load_driverlet(bundle.clone(), DEV_KEY).unwrap();
        let mut out = vec![0u8; 8 * 512];
        Meter { platform: &platform, rows: &mut *rows }.run(
            format!("ablation/mmc/read/8/{label}"),
            || {
                replay_mmc(&mut replayer, 0x1, 8, 0, 0, &mut out).unwrap();
                Some(fnv1a(&out))
            },
        );
    }
}

/// The values the simulator produced when this pin was written. Virtual
/// times are nanoseconds on the default `CostModel`.
const PINNED: &[&str] = &[
    "bundle/mmc hash=0x2b0a5c0292830e4e",
    "bundle/usb hash=0xbe3988d27ec7bfc3",
    "bundle/cam hash=0x16fc1f43c50f7f7d",
    "mmc/driverlet/write/1 ns=314038 mmio=28",
    "mmc/driverlet/read/1 ns=238342 mmio=31 hash=0x035ce5358526d7df",
    "mmc/driverlet/write/8 ns=1234790 mmio=28",
    "mmc/driverlet/read/8 ns=634994 mmio=41 hash=0x72da2251b449da35",
    "mmc/driverlet/write/32 ns=4424270 mmio=28",
    "mmc/driverlet/read/32 ns=1808474 mmio=41 hash=0x791ace3f09fd91d1",
    "mmc/driverlet/write/128 ns=17182190 mmio=28",
    "mmc/driverlet/read/128 ns=6547954 mmio=45 hash=0xc269b5d1a178d502",
    "mmc/driverlet/write/256 ns=34192750 mmio=28",
    "mmc/driverlet/read/256 ns=12863464 mmio=50 hash=0xf81d6f37cacc5e96",
    "mmc/native/probe ns=664160 mmio=118",
    "mmc/native/write/1 ns=251648 mmio=28",
    "mmc/native/read/1 ns=168332 mmio=31 hash=0x035ce5358526d7df",
    "mmc/native/write/8 ns=1172400 mmio=28",
    "mmc/native/read/8 ns=552284 mmio=41 hash=0x72da2251b449da35",
    "mmc/native/write/32 ns=4329480 mmio=28",
    "mmc/native/read/32 ns=1693364 mmio=41 hash=0x791ace3f09fd91d1",
    "mmc/native/write/128 ns=16957800 mmio=28",
    "mmc/native/read/128 ns=6298164 mmio=45 hash=0xc269b5d1a178d502",
    "mmc/native/write/256 ns=33795560 mmio=28",
    "mmc/native/read/256 ns=12434524 mmio=50 hash=0xf81d6f37cacc5e96",
    "usb/driverlet/write/1 ns=615688 mmio=24",
    "usb/driverlet/read/1 ns=395688 mmio=24 hash=0x035ce5358526d7df",
    "usb/driverlet/write/8 ns=876440 mmio=24",
    "usb/driverlet/read/8 ns=656440 mmio=24 hash=0x72da2251b449da35",
    "usb/driverlet/write/32 ns=2443304 mmio=24",
    "usb/driverlet/read/32 ns=1563304 mmio=24 hash=0x791ace3f09fd91d1",
    "usb/driverlet/write/128 ns=8680760 mmio=24",
    "usb/driverlet/read/128 ns=5160760 mmio=24 hash=0xc269b5d1a178d502",
    "usb/driverlet/write/256 ns=17007368 mmio=24",
    "usb/driverlet/read/256 ns=9967368 mmio=24 hash=0xf81d6f37cacc5e96",
    "usb/native/probe ns=64005136 mmio=137",
    "usb/native/write/1 ns=542608 mmio=24",
    "usb/native/read/1 ns=322608 mmio=24 hash=0x035ce5358526d7df",
    "usb/native/write/8 ns=803360 mmio=24",
    "usb/native/read/8 ns=583360 mmio=24 hash=0x72da2251b449da35",
    "usb/native/write/32 ns=2360224 mmio=24",
    "usb/native/read/32 ns=1480224 mmio=24 hash=0x791ace3f09fd91d1",
    "usb/native/write/128 ns=8607680 mmio=24",
    "usb/native/read/128 ns=5087680 mmio=24 hash=0xc269b5d1a178d502",
    "usb/native/write/256 ns=16934288 mmio=24",
    "usb/native/read/256 ns=9894288 mmio=24 hash=0xf81d6f37cacc5e96",
    "cam/driverlet/capture/720 ns=2330893468 mmio=34 hash=0xa7c793d505084758",
    "cam/driverlet/capture/1080 ns=2389327356 mmio=34 hash=0xafee2a1805f91318",
    "cam/native/capture/720 ns=2099515896 mmio=25 hash=0xa7c793d505084758",
    "cam/native/capture/1080 ns=2157949784 mmio=25 hash=0x591ba669027ba884",
    "ablation/mmc/read/8/no-soft-reset ns=604994 mmio=41 hash=0xb93a0c83ce3b6325",
    "ablation/mmc/read/8/cached-mmio ns=632684 mmio=41 hash=0xb93a0c83ce3b6325",
    "ablation/mmc/read/8/free-dispatch ns=584594 mmio=41 hash=0xb93a0c83ce3b6325",
];

#[test]
fn virtual_time_counts_and_bundles_match_the_pinned_constants() {
    let mmc = record_mmc_driverlet().unwrap();
    let usb = record_usb_driverlet().unwrap();
    let cam = record_camera_driverlet_subset(&[1]).unwrap();
    let mut rows = vec![
        format!("bundle/mmc hash={:#018x}", fnv1a(&mmc.to_binary())),
        format!("bundle/usb hash={:#018x}", fnv1a(&usb.to_binary())),
        format!("bundle/cam hash={:#018x}", fnv1a(&cam.to_binary())),
    ];
    for (storage, bundle) in [(Storage::Mmc, &mmc), (Storage::Usb, &usb)] {
        driverlet_rows(storage, bundle, &mut rows);
        native_rows(storage, &mut rows);
    }
    camera_rows(&cam, &mut rows);
    ablation_rows(&mmc, &mut rows);

    let changed: Vec<String> = rows
        .iter()
        .zip(PINNED.iter().map(|s| Some(*s)).chain(std::iter::repeat(None)))
        .filter(|(got, want)| Some(got.as_str()) != *want)
        .map(|(got, want)| format!("  got  {got}\n  want {}", want.unwrap_or("<missing>")))
        .collect();
    assert!(
        changed.is_empty() && rows.len() == PINNED.len(),
        "the simulator's virtual behaviour changed. These constants may change only together \
         with a cost-model change recorded in CHANGES.md; a refactor must keep them \
         bit-identical.\n{}\ncurrent values:\n{:#?}",
        changed.join("\n"),
        rows
    );
}
