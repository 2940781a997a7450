//! Proof that the compiled replay path performs **no heap allocation** on
//! the divergence-free path once warm.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! invocation (which sizes the replayer's scratch arena and the device
//! model's reusable buffers), repeated invocations of a compiled template
//! covering the full event vocabulary must allocate exactly zero times.
//!
//! The template deliberately has no `Capture` sinks: captured values are
//! returned to the trustlet through `ReplayOutcome::captured`, a name-keyed
//! map whose construction necessarily allocates (documented in DESIGN.md);
//! every other event kind — register and shared-memory IO, constraints,
//! symbolic expressions, polls, IRQ waits, delays, DMA allocation, random
//! bytes and payload copies in both directions — is exercised here.
//!
//! This file holds a single `#[test]` so no sibling test thread can disturb
//! the allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dlt_core::Replayer;
use dlt_hw::device::{DeviceCtx, MmioDevice, Window};
use dlt_hw::Platform;
use dlt_tee::SecureIo;
use dlt_template::{
    Constraint, DataDirection, DmaRole, Driverlet, Event, Iface, ParamSpec, ReadSink,
    RecordedEvent, SymExpr, Template, TemplateMeta,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

const BASE: u64 = 0x3f42_0000;
const IRQ: u32 = 51;

/// A stub device that never allocates in its access/tick/reset paths.
struct NullDev {
    value: u32,
    busy_until: u64,
}

const WINDOWS: &[Window] =
    &[Window { name: "null-dev", base: BASE, len: 0x100, irq_line: Some(IRQ) }];

impl MmioDevice for NullDev {
    fn windows(&self) -> &'static [Window] {
        WINDOWS
    }
    fn read32(&mut self, _window: usize, offset: u64, ctx: &mut DeviceCtx<'_>) -> u32 {
        match offset {
            0x0 => self.value,
            0x4 => u32::from(ctx.now_ns < self.busy_until),
            _ => 0,
        }
    }
    fn write32(&mut self, _window: usize, offset: u64, val: u32, ctx: &mut DeviceCtx<'_>) {
        match offset {
            0x0 => self.value = val,
            0x8 => {
                self.busy_until = ctx.now_ns + 20_000;
                ctx.irqs.assert_at(IRQ, self.busy_until);
            }
            _ => {}
        }
    }
    fn tick(&mut self, _ctx: &mut DeviceCtx<'_>) {}
    fn soft_reset(&mut self, _window: usize, _ctx: &mut DeviceCtx<'_>) {
        self.value = 0;
        self.busy_until = 0;
    }
    fn next_deadline_ns(&self) -> Option<u64> {
        (self.busy_until > 0).then_some(self.busy_until)
    }
}

fn reg(name: &str, off: u64) -> Iface {
    Iface::Reg { addr: BASE + off, name: name.to_string() }
}

fn full_vocabulary_template() -> Template {
    Template {
        name: "alloc_free".into(),
        entry: "replay_alloc_free".into(),
        device: "null-dev".into(),
        params: vec![
            ParamSpec {
                name: "val".into(),
                constraint: Constraint::InRange { min: 0, max: 1 << 20 },
            },
            ParamSpec { name: "flag".into(), constraint: Constraint::Any },
        ],
        direction: DataDirection::DeviceToUser,
        data_len: SymExpr::Const(8),
        irq_line: Some(IRQ),
        events: vec![
            RecordedEvent::bare(Event::DmaAlloc {
                len: SymExpr::Const(256),
                role: DmaRole::DataIn,
            }),
            RecordedEvent::bare(Event::GetRandBytes { len: 32, sink: ReadSink::Discard }),
            RecordedEvent::bare(Event::GetTs { len: 8, sink: ReadSink::Discard }),
            RecordedEvent::bare(Event::Write {
                iface: reg("VAL", 0x0),
                value: SymExpr::Param("val".into()).masked(0xffff).or_const(0x10_0000),
            }),
            RecordedEvent::bare(Event::Read {
                iface: reg("VAL", 0x0),
                constraint: Constraint::All(vec![
                    Constraint::MaskEq { mask: 0x10_0000, expected: 0x10_0000 },
                    Constraint::Eq(SymExpr::Param("val".into()).masked(0xffff).or_const(0x10_0000)),
                ]),
                len: 4,
                sink: ReadSink::UserData { offset: 0 },
            }),
            // Kick the device busy, poll it down, then take the interrupt.
            RecordedEvent::bare(Event::Write { iface: reg("KICK", 0x8), value: SymExpr::Const(1) }),
            RecordedEvent::bare(Event::Poll {
                iface: reg("BUSY", 0x4),
                body: vec![Event::Delay { us: 2 }],
                cond: Constraint::eq_const(0),
                delay_us: 5,
                max_iters: 100,
            }),
            RecordedEvent::bare(Event::WaitForIrq { line: IRQ, timeout_us: 200_000 }),
            RecordedEvent::bare(Event::Delay { us: 1 }),
            // Shared-memory traffic plus payload copies both ways.
            RecordedEvent::bare(Event::Write {
                iface: Iface::Shm { alloc: 0, offset: 0x20 },
                value: SymExpr::Param("val".into()),
            }),
            RecordedEvent::bare(Event::Read {
                iface: Iface::Shm { alloc: 0, offset: 0x20 },
                constraint: Constraint::eq_param("val"),
                len: 4,
                sink: ReadSink::Discard,
            }),
            RecordedEvent::bare(Event::CopyUserToDma {
                alloc: 0,
                offset: 0x40,
                user_offset: 0,
                len: SymExpr::Const(8),
            }),
            RecordedEvent::bare(Event::CopyDmaToUser {
                alloc: 0,
                offset: 0x40,
                user_offset: 0,
                len: SymExpr::Const(8),
            }),
        ],
        meta: TemplateMeta::default(),
    }
}

#[test]
fn compiled_replay_is_allocation_free_when_warm() {
    let platform = Platform::new();
    platform.bus.lock().attach(Box::new(NullDev { value: 0, busy_until: 0 })).unwrap();
    platform.bus.lock().set_device_secure("null-dev", true).unwrap();

    let mut d = Driverlet::new("null-dev", "replay_alloc_free", vec![full_vocabulary_template()]);
    d.sign(b"zero");
    let mut r = Replayer::new(SecureIo::new(platform.bus.clone()));
    r.load_driverlet(d, b"zero").unwrap();

    let mut buf = [0u8; 16];
    let args = [("val", 0x1234u64), ("flag", 0u64)];

    // Warm up: sizes the scratch arena, the IRQ controller's line table and
    // the device models' reusable buffers.
    for _ in 0..3 {
        let outcome = r.invoke_args("replay_alloc_free", &args, &mut buf).unwrap();
        // 4 B user-data read + 8 B copy-in + 8 B copy-out.
        assert_eq!(outcome.payload_bytes, 20);
        assert!(outcome.captured.is_empty());
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..50u64 {
        let args = [("val", 0x1000 + i), ("flag", 0u64)];
        r.invoke_args("replay_alloc_free", &args, &mut buf).unwrap();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "the warm compiled replay path must not allocate (observed {} allocations \
         across 50 invocations)",
        after - before
    );

    // Sanity: the interpreted baseline *does* allocate on the same workload,
    // so the counter demonstrably observes this code path.
    let platform2 = Platform::new();
    platform2.bus.lock().attach(Box::new(NullDev { value: 0, busy_until: 0 })).unwrap();
    platform2.bus.lock().set_device_secure("null-dev", true).unwrap();
    let mut d2 = Driverlet::new("null-dev", "replay_alloc_free", vec![full_vocabulary_template()]);
    d2.sign(b"zero");
    let mut ri = Replayer::with_config(
        SecureIo::new(platform2.bus.clone()),
        dlt_core::ReplayConfig::interpreted(),
    );
    ri.load_driverlet(d2, b"zero").unwrap();
    let args = [("val", 7u64), ("flag", 0u64)];
    for _ in 0..3 {
        ri.invoke_args("replay_alloc_free", &args, &mut buf).unwrap();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ri.invoke_args("replay_alloc_free", &args, &mut buf).unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(
        after - before > 10,
        "the interpreted baseline should allocate per invocation (observed {})",
        after - before
    );
}
