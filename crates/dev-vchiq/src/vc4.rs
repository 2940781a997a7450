//! The VC4 accelerator device model.
//!
//! The accelerator parses CPU→VC4 messages when doorbell 2 rings, runs the
//! MMAL camera service state machine, produces synthetic JPEG frames into the
//! host page list after the per-resolution exposure + ISP latency, writes its
//! replies into the VC4→CPU slot area and rings doorbell 0 (which is wired to
//! the VCHIQ interrupt line).

use dlt_hw::device::{DeviceCtx, MmioDevice, RegBank, Window};
use dlt_hw::irq::lines;
use dlt_hw::{CostModel, PhysMem};

use crate::msg::{synth_jpeg, CameraResolution, MmalMessage, MsgType};
use crate::queue::{self, pagelist, RX_AREA_OFF, TX_AREA_OFF};
use crate::regs;
use crate::{VCHIQ_BASE, VCHIQ_LEN};

/// Error codes carried in [`MsgType::Error`] replies.
pub mod error_code {
    /// The capture port is not enabled / component missing.
    pub const BAD_STATE: u32 = 1;
    /// The echoed image size does not match what VC4 assigned.
    pub const SIZE_MISMATCH: u32 = 2;
    /// The supplied buffer is too small for a frame.
    pub const BUFFER_TOO_SMALL: u32 = 3;
    /// The camera sensor is not responding (fault injection).
    pub const SENSOR_LOST: u32 = 4;
    /// Malformed message.
    pub const BAD_MESSAGE: u32 = 5;
}

/// MMAL service handle handed out on OpenService.
const SERVICE_HANDLE: u32 = 0x6d6d_616c; // "mmal"
/// Component handle handed out on ComponentCreate.
const CAMERA_COMPONENT: u32 = 0x0052_494c; // "RIL"

#[derive(Debug, Clone)]
struct PendingReply {
    due_ns: u64,
    msg: MmalMessage,
    /// For capture completions: where to materialise the frame.
    capture: Option<CaptureJob>,
}

#[derive(Debug, Clone)]
struct CaptureJob {
    pg_list: u64,
    buf_size: u32,
    resolution: CameraResolution,
    frame_no: u32,
}

/// The VC4/VCHIQ device.
pub struct Vc4Vchiq {
    regs: RegBank,
    cost: CostModel,
    queue_base: Option<u64>,
    /// How far into the TX area the device has parsed.
    tx_read_pos: u32,
    /// Where the device will write its next reply in the RX area.
    rx_write_pos: u32,
    connected: bool,
    service_open: bool,
    component_created: bool,
    resolution: Option<CameraResolution>,
    port_enabled: bool,
    sensor_present: bool,
    frame_counter: u32,
    pending: Vec<PendingReply>,
    bell0_pending: bool,
    /// Statistics.
    messages_handled: u64,
    frames_produced: u64,
    errors_signalled: u64,
}

impl Vc4Vchiq {
    /// Create the accelerator.
    pub fn new(cost: CostModel) -> Self {
        let mut regbank = RegBank::new();
        for (off, _) in regs::VCHIQ_REGISTERS {
            regbank.define(*off, 0);
        }
        regbank.define(regs::VERSION, 0x0001_0007);
        Vc4Vchiq {
            regs: regbank,
            cost,
            queue_base: None,
            tx_read_pos: 0,
            rx_write_pos: 0,
            connected: false,
            service_open: false,
            component_created: false,
            resolution: None,
            port_enabled: false,
            sensor_present: true,
            frame_counter: 0,
            pending: Vec::new(),
            bell0_pending: false,
            messages_handled: 0,
            frames_produced: 0,
            errors_signalled: 0,
        }
    }

    /// Total messages handled.
    pub fn messages_handled(&self) -> u64 {
        self.messages_handled
    }

    /// Frames produced so far.
    pub fn frames_produced(&self) -> u64 {
        self.frames_produced
    }

    /// Error replies signalled so far.
    pub fn errors_signalled(&self) -> u64 {
        self.errors_signalled
    }

    /// Whether no reply is waiting to be delivered.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// Whether the capture port is currently enabled.
    pub fn port_enabled(&self) -> bool {
        self.port_enabled
    }

    /// Disconnect the image sensor (fault injection: the paper's "media
    /// accelerator loses the connection to the image sensor", §3.3).
    pub fn disconnect_sensor(&mut self) {
        self.sensor_present = false;
    }

    fn queue_reply(&mut self, due_ns: u64, msg: MmalMessage, capture: Option<CaptureJob>) {
        if matches!(msg.mtype, MsgType::Error) {
            self.errors_signalled += 1;
        }
        self.pending.push(PendingReply { due_ns, msg, capture });
        self.pending.sort_by_key(|p| p.due_ns);
    }

    fn handle_message(&mut self, msg: MmalMessage, now_ns: u64) {
        self.messages_handled += 1;
        let ack_at = now_ns + self.cost.vchiq_msg_ns;
        match msg.mtype {
            MsgType::Connect => {
                self.connected = true;
                self.queue_reply(ack_at, MmalMessage::new(MsgType::ConnectAck, 0, vec![]), None);
            }
            MsgType::OpenService => {
                if self.connected {
                    self.service_open = true;
                    self.queue_reply(
                        ack_at,
                        MmalMessage::new(
                            MsgType::OpenServiceAck,
                            SERVICE_HANDLE,
                            vec![SERVICE_HANDLE],
                        ),
                        None,
                    );
                } else {
                    self.queue_reply(
                        ack_at,
                        MmalMessage::new(MsgType::Error, 0, vec![error_code::BAD_STATE]),
                        None,
                    );
                }
            }
            MsgType::ComponentCreate => {
                if self.service_open && self.sensor_present {
                    self.component_created = true;
                    // Component creation powers the sensor and loads the
                    // firmware tuner: the ack only arrives after the full
                    // initialisation latency (the dominant share of the
                    // paper's 3.7 s single-frame capture, §8.3.2).
                    self.queue_reply(
                        ack_at + self.cost.cam_init_ns,
                        MmalMessage::new(
                            MsgType::ComponentCreateAck,
                            SERVICE_HANDLE,
                            vec![CAMERA_COMPONENT],
                        ),
                        None,
                    );
                } else {
                    let code = if self.sensor_present {
                        error_code::BAD_STATE
                    } else {
                        error_code::SENSOR_LOST
                    };
                    self.queue_reply(
                        ack_at,
                        MmalMessage::new(MsgType::Error, SERVICE_HANDLE, vec![code]),
                        None,
                    );
                }
            }
            MsgType::PortSetFormat => {
                let res = msg.payload.first().copied().and_then(CameraResolution::from_code);
                match (self.component_created, res) {
                    (true, Some(r)) => {
                        self.resolution = Some(r);
                        self.queue_reply(
                            ack_at,
                            MmalMessage::new(
                                MsgType::PortSetFormatAck,
                                SERVICE_HANDLE,
                                vec![r.frame_bytes()],
                            ),
                            None,
                        );
                    }
                    _ => self.queue_reply(
                        ack_at,
                        MmalMessage::new(
                            MsgType::Error,
                            SERVICE_HANDLE,
                            vec![error_code::BAD_MESSAGE],
                        ),
                        None,
                    ),
                }
            }
            MsgType::PortEnable => {
                if self.resolution.is_some() {
                    self.port_enabled = true;
                    // Arming the capture port switches the sensor mode and
                    // waits for AGC/AWB re-convergence before the first
                    // frame is usable; the ack arrives after that settle
                    // time. Recorded burst templates that re-arm the port
                    // per frame therefore pay this per frame (§8.3.2).
                    self.queue_reply(
                        ack_at + self.cost.cam_port_setup_ns,
                        MmalMessage::new(MsgType::PortEnableAck, SERVICE_HANDLE, vec![]),
                        None,
                    );
                } else {
                    self.queue_reply(
                        ack_at,
                        MmalMessage::new(
                            MsgType::Error,
                            SERVICE_HANDLE,
                            vec![error_code::BAD_STATE],
                        ),
                        None,
                    );
                }
            }
            MsgType::BufferFromHost => {
                self.handle_capture(&msg, now_ns);
            }
            MsgType::PortDisable => {
                self.port_enabled = false;
                self.queue_reply(
                    ack_at,
                    MmalMessage::new(MsgType::PortDisableAck, SERVICE_HANDLE, vec![]),
                    None,
                );
            }
            MsgType::ComponentDestroy => {
                self.component_created = false;
                self.port_enabled = false;
                self.resolution = None;
                self.queue_reply(
                    ack_at,
                    MmalMessage::new(MsgType::ComponentDestroyAck, SERVICE_HANDLE, vec![]),
                    None,
                );
            }
            // Replies and unknown traffic from the CPU are protocol errors.
            _ => {
                self.queue_reply(
                    ack_at,
                    MmalMessage::new(MsgType::Error, SERVICE_HANDLE, vec![error_code::BAD_MESSAGE]),
                    None,
                );
            }
        }
    }

    fn handle_capture(&mut self, msg: &MmalMessage, now_ns: u64) {
        let ack_at = now_ns + self.cost.vchiq_msg_ns;
        let (pg_list, buf_size, img_echo) = match msg.payload.as_slice() {
            [p, b, i, ..] => (u64::from(*p), *b, *i),
            _ => {
                self.queue_reply(
                    ack_at,
                    MmalMessage::new(MsgType::Error, SERVICE_HANDLE, vec![error_code::BAD_MESSAGE]),
                    None,
                );
                return;
            }
        };
        let Some(resolution) = self.resolution else {
            self.queue_reply(
                ack_at,
                MmalMessage::new(MsgType::Error, SERVICE_HANDLE, vec![error_code::BAD_STATE]),
                None,
            );
            return;
        };
        if !self.port_enabled || !self.component_created {
            self.queue_reply(
                ack_at,
                MmalMessage::new(MsgType::Error, SERVICE_HANDLE, vec![error_code::BAD_STATE]),
                None,
            );
            return;
        }
        if !self.sensor_present {
            self.queue_reply(
                ack_at,
                MmalMessage::new(MsgType::Error, SERVICE_HANDLE, vec![error_code::SENSOR_LOST]),
                None,
            );
            return;
        }
        let expected = resolution.frame_bytes();
        if img_echo != expected {
            self.queue_reply(
                ack_at,
                MmalMessage::new(MsgType::Error, SERVICE_HANDLE, vec![error_code::SIZE_MISMATCH]),
                None,
            );
            return;
        }
        if buf_size < expected || pg_list == 0 {
            self.queue_reply(
                ack_at,
                MmalMessage::new(
                    MsgType::Error,
                    SERVICE_HANDLE,
                    vec![error_code::BUFFER_TOO_SMALL],
                ),
                None,
            );
            return;
        }
        let frame_no = self.frame_counter;
        self.frame_counter += 1;
        let latency = self.cost.cam_frame(resolution.megapixels_x100());
        self.queue_reply(
            now_ns + latency,
            MmalMessage::new(MsgType::BufferToHost, SERVICE_HANDLE, vec![expected, frame_no]),
            Some(CaptureJob { pg_list, buf_size, resolution, frame_no }),
        );
    }

    fn materialise_frame(&mut self, job: &CaptureJob, mem: &mut PhysMem) {
        let frame = synth_jpeg(job.resolution, job.frame_no);
        let to_write = frame.len().min(job.buf_size as usize);
        let num_pages = mem.read32(job.pg_list + pagelist::NUM_PAGES).unwrap_or(0) as usize;
        // The page list describes a physically contiguous span starting at the
        // first page entry (the host allocator hands out contiguous buffers);
        // VC4 streams the frame into it, honouring the page count as an upper
        // bound on the span it may touch.
        let first_page = mem.read32(job.pg_list + pagelist::FIRST_PAGE).unwrap_or(0);
        let mut written = 0usize;
        if first_page != 0 && num_pages > 0 {
            let span = to_write;
            let _ = mem.write_bytes(u64::from(first_page), &frame[..span]);
            written = span;
        }
        // Record how many bytes actually landed in the buffer.
        let _ = mem.write32(job.pg_list + pagelist::TOTAL_LEN, written as u32);
        self.frames_produced += 1;
    }

    fn process_doorbell(&mut self, ctx: &mut DeviceCtx<'_>) {
        let now_ns = ctx.now_ns;
        let Some(base) = self.queue_base else { return };
        loop {
            let tx_pos = ctx.mem.read32(base + queue::slot0::TX_POS).unwrap_or(0);
            if self.tx_read_pos >= tx_pos {
                break;
            }
            let parsed =
                queue::read_message(ctx.mem, base, TX_AREA_OFF, self.tx_read_pos).unwrap_or(None);
            match parsed {
                Some((msg, next)) => {
                    self.tx_read_pos = next;
                    self.handle_message(msg, now_ns);
                }
                None => {
                    // Corrupt slot contents: skip to the position the CPU
                    // advertised so we do not spin forever.
                    self.tx_read_pos = tx_pos;
                    self.queue_reply(
                        now_ns + self.cost.vchiq_msg_ns,
                        MmalMessage::new(
                            MsgType::Error,
                            SERVICE_HANDLE,
                            vec![error_code::BAD_MESSAGE],
                        ),
                        None,
                    );
                }
            }
        }
    }

    fn deliver_due_replies(&mut self, ctx: &mut DeviceCtx<'_>) {
        let now_ns = ctx.now_ns;
        let Some(base) = self.queue_base else { return };
        while let Some(first) = self.pending.first() {
            if first.due_ns > now_ns {
                break;
            }
            let reply = self.pending.remove(0);
            if let Some(job) = &reply.capture {
                self.materialise_frame(job, ctx.mem);
            }
            let written =
                queue::write_message(ctx.mem, base, RX_AREA_OFF, self.rx_write_pos, &reply.msg);
            if let Ok(next) = written {
                let _ = ctx.mem.write32(base + queue::slot0::RX_POS, next);
                self.rx_write_pos = next;
            }
            self.bell0_pending = true;
            ctx.irqs.assert_at(lines::VCHIQ, now_ns + self.cost.irq_delivery_ns);
        }
    }
}

const WINDOWS: &[Window] =
    &[Window { name: "vchiq", base: VCHIQ_BASE, len: VCHIQ_LEN, irq_line: Some(lines::VCHIQ) }];

impl MmioDevice for Vc4Vchiq {
    fn windows(&self) -> &'static [Window] {
        WINDOWS
    }

    fn read32(&mut self, _window: usize, offset: u64, ctx: &mut DeviceCtx<'_>) -> u32 {
        self.tick(ctx);
        match offset {
            regs::BELL0 => {
                if self.bell0_pending {
                    1
                } else {
                    0
                }
            }
            regs::MBOX_WRITE => self.regs.get(regs::MBOX_WRITE),
            _ => self.regs.get(offset),
        }
    }

    fn write32(&mut self, _window: usize, offset: u64, val: u32, ctx: &mut DeviceCtx<'_>) {
        match offset {
            regs::MBOX_WRITE => {
                // The published address must be queue-aligned; the low bits
                // are reserved for channel numbers on real hardware.
                let base = u64::from(val) & !(queue::QUEUE_ALIGN - 1);
                self.regs.set(regs::MBOX_WRITE, val);
                self.queue_base = if base == 0 { None } else { Some(base) };
                self.tx_read_pos = 0;
                self.rx_write_pos = 0;
            }
            regs::BELL2 => {
                if val & 1 != 0 {
                    self.process_doorbell(ctx);
                }
            }
            regs::BELL0 => {
                if val & 1 != 0 {
                    self.bell0_pending = false;
                    ctx.irqs.clear(lines::VCHIQ);
                }
            }
            _ => self.regs.set(offset, val),
        }
        self.tick(ctx);
    }

    fn tick(&mut self, ctx: &mut DeviceCtx<'_>) {
        self.deliver_due_replies(ctx);
    }

    fn soft_reset(&mut self, _window: usize, _ctx: &mut DeviceCtx<'_>) {
        self.regs.reset();
        self.regs.set(regs::VERSION, 0x0001_0007);
        self.queue_base = None;
        self.tx_read_pos = 0;
        self.rx_write_pos = 0;
        self.connected = false;
        self.service_open = false;
        self.component_created = false;
        self.resolution = None;
        self.port_enabled = false;
        self.frame_counter = 0;
        self.pending.clear();
        self.bell0_pending = false;
        // The sensor stays in whatever physical state it is in; a soft reset
        // cannot re-attach a lost sensor (matches the paper's unrecoverable
        // fault-injection outcome).
    }

    fn quiet_until_ns(&self) -> Option<u64> {
        // Replies are only delivered into a published queue.
        let due = self.pending.first().filter(|_| self.queue_base.is_some());
        Some(due.map_or(u64::MAX, |p| p.due_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::is_valid_jpeg;
    use dlt_hw::IrqController;

    const QUEUE_BASE: u64 = 0x10_0000;
    const PG_LIST: u64 = 0x20_0000;
    const FRAME_PAGES: u64 = 0x30_0000;

    struct Rig {
        vc4: Vc4Vchiq,
        mem: PhysMem,
        irqs: IrqController,
        now: u64,
        tx_pos: u32,
        rx_read: u32,
    }

    impl Rig {
        fn new() -> Self {
            let mem = PhysMem::new(0, 16 << 20);
            let irqs = IrqController::new();
            let vc4 = Vc4Vchiq::new(CostModel::default());
            let mut rig = Rig { vc4, mem, irqs, now: 0, tx_pos: 0, rx_read: 0 };
            // CPU initialises slot 0 and publishes the queue address.
            for (off, w) in queue::slot0_init_words() {
                rig.mem.write32(QUEUE_BASE + off, w).unwrap();
            }
            rig.write32(regs::MBOX_WRITE, QUEUE_BASE as u32, 0);
            rig
        }

        fn ctx(&mut self, now_ns: u64) -> (&mut Vc4Vchiq, DeviceCtx<'_>) {
            (&mut self.vc4, DeviceCtx { now_ns, mem: &mut self.mem, irqs: &mut self.irqs })
        }

        fn read32(&mut self, offset: u64, now: u64) -> u32 {
            let (vc4, mut ctx) = self.ctx(now);
            vc4.read32(0, offset, &mut ctx)
        }

        fn write32(&mut self, offset: u64, val: u32, now: u64) {
            let (vc4, mut ctx) = self.ctx(now);
            vc4.write32(0, offset, val, &mut ctx)
        }

        fn tick(&mut self, now: u64) {
            let (vc4, mut ctx) = self.ctx(now);
            vc4.tick(&mut ctx)
        }

        fn soft_reset(&mut self) {
            let (vc4, mut ctx) = self.ctx(self.now);
            vc4.soft_reset(0, &mut ctx)
        }

        fn send(&mut self, msg: MmalMessage) {
            let (words, new_pos) = queue::tx_message_words(self.tx_pos, &msg);
            for (off, w) in words {
                self.mem.write32(QUEUE_BASE + off, w).unwrap();
            }
            self.tx_pos = new_pos;
            self.write32(regs::BELL2, 1, self.now);
        }

        /// Advance time until a reply is available and return it.
        fn recv(&mut self) -> MmalMessage {
            for _ in 0..100_000 {
                self.now += 1_000_000; // 1 ms steps
                self.tick(self.now);
                let rx_pos = self.mem.read32(QUEUE_BASE + queue::slot0::RX_POS).unwrap();
                if self.rx_read < rx_pos {
                    let (msg, next) =
                        queue::read_message(&self.mem, QUEUE_BASE, RX_AREA_OFF, self.rx_read)
                            .unwrap()
                            .unwrap();
                    self.rx_read = next;
                    assert_eq!(self.read32(regs::BELL0, self.now), 1);
                    self.write32(regs::BELL0, 1, self.now);
                    return msg;
                }
            }
            panic!("no reply from VC4");
        }

        fn init_camera(&mut self, res: CameraResolution) -> u32 {
            self.send(MmalMessage::new(MsgType::Connect, 0, vec![]));
            assert_eq!(self.recv().mtype, MsgType::ConnectAck);
            self.send(MmalMessage::new(MsgType::OpenService, 0, vec![0x6d6d_616c]));
            assert_eq!(self.recv().mtype, MsgType::OpenServiceAck);
            self.send(MmalMessage::new(MsgType::ComponentCreate, SERVICE_HANDLE, vec![]));
            assert_eq!(self.recv().mtype, MsgType::ComponentCreateAck);
            self.send(MmalMessage::new(MsgType::PortSetFormat, SERVICE_HANDLE, vec![res.code()]));
            let ack = self.recv();
            assert_eq!(ack.mtype, MsgType::PortSetFormatAck);
            let img_size = ack.payload[0];
            self.send(MmalMessage::new(MsgType::PortEnable, SERVICE_HANDLE, vec![]));
            assert_eq!(self.recv().mtype, MsgType::PortEnableAck);
            img_size
        }

        fn build_page_list(&mut self, bytes: u32) {
            let pages = (bytes as usize).div_ceil(pagelist::PAGE_BYTES);
            let mem = &mut self.mem;
            mem.write32(PG_LIST + pagelist::TOTAL_LEN, bytes).unwrap();
            mem.write32(PG_LIST + pagelist::NUM_PAGES, pages as u32).unwrap();
            for i in 0..pages {
                let addr = FRAME_PAGES + (i as u64) * pagelist::PAGE_BYTES as u64;
                mem.write32(PG_LIST + pagelist::FIRST_PAGE + (i as u64) * 4, addr as u32).unwrap();
            }
        }

        fn read_frame(&self, bytes: usize) -> Vec<u8> {
            let mut out = vec![0u8; bytes];
            let mem = &self.mem;
            let mut read = 0;
            let mut page = 0u64;
            while read < bytes {
                let chunk = (bytes - read).min(pagelist::PAGE_BYTES);
                mem.read_bytes(
                    FRAME_PAGES + page * pagelist::PAGE_BYTES as u64,
                    &mut out[read..read + chunk],
                )
                .unwrap();
                read += chunk;
                page += 1;
            }
            out
        }
    }

    #[test]
    fn full_capture_sequence_produces_a_valid_jpeg() {
        let mut rig = Rig::new();
        let img_size = rig.init_camera(CameraResolution::R720p);
        assert_eq!(img_size, CameraResolution::R720p.frame_bytes());
        rig.build_page_list(2 << 20);
        rig.send(MmalMessage::new(
            MsgType::BufferFromHost,
            SERVICE_HANDLE,
            vec![PG_LIST as u32, 2 << 20, img_size],
        ));
        let done = rig.recv();
        assert_eq!(done.mtype, MsgType::BufferToHost);
        assert_eq!(done.payload[0], img_size);
        let frame = rig.read_frame(img_size as usize);
        assert!(is_valid_jpeg(&frame));
        assert_eq!(rig.vc4.frames_produced(), 1);
        assert!(rig.irqs.assert_count() > 0);
    }

    #[test]
    fn capture_latency_scales_with_resolution() {
        let mut a = Rig::new();
        let sa = a.init_camera(CameraResolution::R720p);
        a.build_page_list(2 << 20);
        let t0 = a.now;
        a.send(MmalMessage::new(
            MsgType::BufferFromHost,
            SERVICE_HANDLE,
            vec![PG_LIST as u32, 2 << 20, sa],
        ));
        a.recv();
        let lat_720 = a.now - t0;

        let mut b = Rig::new();
        let sb = b.init_camera(CameraResolution::R1440p);
        b.build_page_list(2 << 20);
        let t0 = b.now;
        b.send(MmalMessage::new(
            MsgType::BufferFromHost,
            SERVICE_HANDLE,
            vec![PG_LIST as u32, 2 << 20, sb],
        ));
        b.recv();
        let lat_1440 = b.now - t0;
        assert!(lat_1440 > lat_720, "higher resolution must take longer");
    }

    #[test]
    fn img_size_mismatch_is_rejected() {
        let mut rig = Rig::new();
        let img_size = rig.init_camera(CameraResolution::R1080p);
        rig.build_page_list(2 << 20);
        rig.send(MmalMessage::new(
            MsgType::BufferFromHost,
            SERVICE_HANDLE,
            vec![PG_LIST as u32, 2 << 20, img_size - 4],
        ));
        let reply = rig.recv();
        assert_eq!(reply.mtype, MsgType::Error);
        assert_eq!(reply.payload[0], error_code::SIZE_MISMATCH);
        assert_eq!(rig.vc4.frames_produced(), 0);
    }

    #[test]
    fn too_small_buffer_is_rejected() {
        let mut rig = Rig::new();
        let img_size = rig.init_camera(CameraResolution::R1080p);
        rig.build_page_list(1024);
        rig.send(MmalMessage::new(
            MsgType::BufferFromHost,
            SERVICE_HANDLE,
            vec![PG_LIST as u32, 1024, img_size],
        ));
        let reply = rig.recv();
        assert_eq!(reply.mtype, MsgType::Error);
        assert_eq!(reply.payload[0], error_code::BUFFER_TOO_SMALL);
    }

    #[test]
    fn capture_without_port_enable_is_a_state_error() {
        let mut rig = Rig::new();
        rig.send(MmalMessage::new(MsgType::Connect, 0, vec![]));
        rig.recv();
        rig.send(MmalMessage::new(
            MsgType::BufferFromHost,
            SERVICE_HANDLE,
            vec![PG_LIST as u32, 2 << 20, 311_296],
        ));
        let reply = rig.recv();
        assert_eq!(reply.mtype, MsgType::Error);
        assert_eq!(reply.payload[0], error_code::BAD_STATE);
    }

    #[test]
    fn sensor_loss_fails_captures_even_after_soft_reset() {
        let mut rig = Rig::new();
        let img_size = rig.init_camera(CameraResolution::R720p);
        rig.build_page_list(2 << 20);
        rig.vc4.disconnect_sensor();
        rig.send(MmalMessage::new(
            MsgType::BufferFromHost,
            SERVICE_HANDLE,
            vec![PG_LIST as u32, 2 << 20, img_size],
        ));
        let reply = rig.recv();
        assert_eq!(reply.mtype, MsgType::Error);
        assert_eq!(reply.payload[0], error_code::SENSOR_LOST);
        // Soft reset cannot bring the sensor back.
        rig.soft_reset();
        assert!(!rig.vc4.port_enabled());
    }

    #[test]
    fn consecutive_frames_are_distinct() {
        let mut rig = Rig::new();
        let img_size = rig.init_camera(CameraResolution::R720p);
        rig.build_page_list(2 << 20);
        let mut frames = Vec::new();
        for _ in 0..3 {
            rig.send(MmalMessage::new(
                MsgType::BufferFromHost,
                SERVICE_HANDLE,
                vec![PG_LIST as u32, 2 << 20, img_size],
            ));
            let done = rig.recv();
            assert_eq!(done.mtype, MsgType::BufferToHost);
            frames.push(rig.read_frame(img_size as usize));
        }
        assert_ne!(frames[0], frames[1]);
        assert_ne!(frames[1], frames[2]);
        assert_eq!(rig.vc4.frames_produced(), 3);
    }

    #[test]
    fn quiet_until_is_the_first_reply_due_in_a_published_queue() {
        let cost = CostModel::default();
        assert_eq!(Vc4Vchiq::new(cost.clone()).quiet_until_ns(), Some(u64::MAX), "no queue");
        let mut rig = Rig::new();
        assert_eq!(rig.vc4.quiet_until_ns(), Some(u64::MAX), "nothing queued");
        rig.send(MmalMessage::new(MsgType::Connect, 0, vec![]));
        let due = rig.now + cost.vchiq_msg_ns;
        assert_eq!(rig.vc4.quiet_until_ns(), Some(due));
        rig.tick(due - 1);
        assert_eq!(rig.irqs.assert_count(), 0, "quiet means quiet");
        rig.tick(due);
        assert_eq!(rig.irqs.assert_count(), 1, "the reply is delivered");
        assert_eq!(rig.vc4.quiet_until_ns(), Some(u64::MAX));
    }

    #[test]
    fn soft_reset_requires_requeueing_the_mailbox() {
        let mut rig = Rig::new();
        rig.init_camera(CameraResolution::R720p);
        rig.soft_reset();
        // Doorbells without a published queue are ignored rather than crashing.
        rig.write32(regs::BELL2, 1, rig.now);
        assert!(rig.vc4.is_idle());
        assert_eq!(rig.read32(regs::MBOX_WRITE, rig.now), 0);
    }
}
