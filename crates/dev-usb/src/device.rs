//! USB mass-storage device: control endpoint plus bulk-only transport (BOT).
//!
//! The device speaks the standard enumeration protocol on endpoint 0 and the
//! mass-storage bulk-only transport on the bulk endpoint pair: the host sends
//! a 31-byte command block wrapper (CBW), optionally exchanges a data phase,
//! then reads a 13-byte command status wrapper (CSW). These are exactly the
//! two descriptors the paper highlights as the primary driver/device
//! communication vehicle for USB (§7.2.3).

use crate::scsi::{Cdb, ScsiDisk, ScsiResponse};
use crate::USB_FTL_PAGE;

/// CBW signature ("USBC").
pub const CBW_SIGNATURE: u32 = 0x4342_5355;
/// CSW signature ("USBS").
pub const CSW_SIGNATURE: u32 = 0x5342_5355;
/// CBW length in bytes.
pub const CBW_LEN: usize = 31;
/// CSW length in bytes.
pub const CSW_LEN: usize = 13;

/// Bulk OUT endpoint number (host -> device).
pub const BULK_OUT_EP: u32 = 2;
/// Bulk IN endpoint number (device -> host).
pub const BULK_IN_EP: u32 = 1;

/// Standard USB request codes (subset).
mod request {
    pub const GET_DESCRIPTOR: u8 = 6;
    pub const SET_ADDRESS: u8 = 5;
    pub const SET_CONFIGURATION: u8 = 9;
    /// Mass-storage class: get max LUN.
    pub const GET_MAX_LUN: u8 = 0xfe;
    /// Mass-storage class: bulk-only reset.
    pub const BOT_RESET: u8 = 0xff;
}

/// Descriptor types.
mod desc {
    pub const DEVICE: u8 = 1;
    pub const CONFIGURATION: u8 = 2;
    pub const STRING: u8 = 3;
}

/// Bulk-only transport state machine. The data phase's bytes live in the
/// device's reused [`UsbMassStorage::data`] buffer and the status wrapper
/// in its `csw` array, so a warm transfer allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BotState {
    /// Waiting for a CBW.
    Idle,
    /// Data-in phase pending: the host will read `data[sent..]`, then the
    /// CSW.
    DataIn { sent: usize, tag: u32, residue: u32 },
    /// Data-out phase pending: `data` gathers the `expect` bytes of a
    /// WRITE at `lba`.
    DataOut { lba: u64, expect: usize, tag: u32 },
    /// Command finished; `csw` waiting to be read.
    CswReady,
}

/// A parsed command block wrapper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cbw {
    /// Host-assigned tag, echoed in the CSW.
    pub tag: u32,
    /// Expected data-transfer length.
    pub data_len: u32,
    /// Direction flag: true if data flows device -> host.
    pub dir_in: bool,
    /// Logical unit number.
    pub lun: u8,
    /// The SCSI CDB bytes: the first `cdb_len` are the command.
    cdb: [u8; 15],
    cdb_len: usize,
}

impl Cbw {
    /// Parse a raw 31-byte CBW.
    pub fn parse(raw: &[u8]) -> Option<Cbw> {
        if raw.len() < CBW_LEN {
            return None;
        }
        let sig = u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]);
        if sig != CBW_SIGNATURE {
            return None;
        }
        let tag = u32::from_le_bytes([raw[4], raw[5], raw[6], raw[7]]);
        let data_len = u32::from_le_bytes([raw[8], raw[9], raw[10], raw[11]]);
        let dir_in = raw[12] & 0x80 != 0;
        let lun = raw[13] & 0xf;
        let cb_len = (raw[14] & 0x1f) as usize;
        // The CDB is carried word-aligned at offset 16 in this model (the gold
        // driver emits the CBW as 32-bit shared-memory writes).
        let cdb_len = cb_len.min(15);
        let mut cdb = [0u8; 15];
        cdb[..cdb_len].copy_from_slice(&raw[16..16 + cdb_len]);
        Some(Cbw { tag, data_len, dir_in, lun, cdb, cdb_len })
    }

    /// The SCSI CDB bytes.
    pub fn cdb(&self) -> &[u8] {
        &self.cdb[..self.cdb_len]
    }

    /// Encode a CBW (used by the gold driver).
    pub fn encode(tag: u32, data_len: u32, dir_in: bool, cdb: &[u8]) -> [u8; CBW_LEN] {
        let mut raw = [0u8; CBW_LEN];
        raw[0..4].copy_from_slice(&CBW_SIGNATURE.to_le_bytes());
        raw[4..8].copy_from_slice(&tag.to_le_bytes());
        raw[8..12].copy_from_slice(&data_len.to_le_bytes());
        raw[12] = if dir_in { 0x80 } else { 0x00 };
        raw[13] = 0;
        raw[14] = cdb.len().min(15) as u8;
        raw[16..16 + cdb.len().min(15)].copy_from_slice(&cdb[..cdb.len().min(15)]);
        raw
    }
}

/// The USB flash drive.
pub struct UsbMassStorage {
    disk: ScsiDisk,
    address: u8,
    configured: bool,
    bot: BotState,
    /// The data phase's bytes, reused across transfers: a command's
    /// data-in response, or a WRITE's data-out payload as it arrives.
    data: Vec<u8>,
    /// The status wrapper of the last finished command.
    csw: [u8; CSW_LEN],
    cbws_processed: u64,
    stalls: u64,
}

impl UsbMassStorage {
    /// Create a device around `disk`.
    pub fn new(disk: ScsiDisk) -> Self {
        UsbMassStorage {
            disk,
            address: 0,
            configured: false,
            bot: BotState::Idle,
            data: Vec::new(),
            csw: [0; CSW_LEN],
            cbws_processed: 0,
            stalls: 0,
        }
    }

    /// Finish the current command: its CSW is ready to be read.
    fn finish(&mut self, tag: u32, residue: u32, status: u8) {
        self.csw[0..4].copy_from_slice(&CSW_SIGNATURE.to_le_bytes());
        self.csw[4..8].copy_from_slice(&tag.to_le_bytes());
        self.csw[8..12].copy_from_slice(&residue.to_le_bytes());
        self.csw[12] = status;
        self.bot = BotState::CswReady;
    }

    /// Backing disk (validation / fault injection).
    pub fn disk(&self) -> &ScsiDisk {
        &self.disk
    }

    /// Mutable backing disk.
    pub fn disk_mut(&mut self) -> &mut ScsiDisk {
        &mut self.disk
    }

    /// Whether the device has been addressed and configured.
    pub fn is_configured(&self) -> bool {
        self.configured
    }

    /// Assigned USB address.
    pub fn address(&self) -> u8 {
        self.address
    }

    /// Number of CBWs processed.
    pub fn cbws_processed(&self) -> u64 {
        self.cbws_processed
    }

    /// Number of protocol stalls (malformed CBWs etc.).
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Skip enumeration: as-if-just-initialised state used by the host
    /// controller's soft reset (§5: soft reset returns the device to its
    /// post-boot-initialisation state).
    pub fn fast_init(&mut self) {
        self.address = 1;
        self.configured = true;
        self.bot = BotState::Idle;
    }

    fn device_descriptor() -> Vec<u8> {
        vec![
            18,
            desc::DEVICE,
            0x00,
            0x02, // USB 2.0
            0x00,
            0x00,
            0x00,
            64, // class/sub/proto, max packet 64
            0x44,
            0x86,
            0x03,
            0x80, // VID 0x8644 PID 0x8003 (the paper's stick)
            0x00,
            0x01,
            1,
            2,
            3,
            1, // bcdDevice, strings, 1 config
        ]
    }

    fn config_descriptor() -> Vec<u8> {
        // Configuration + interface (mass storage, SCSI, BOT) + 2 bulk EPs.
        let mut v = vec![
            9,
            desc::CONFIGURATION,
            32,
            0,
            1,
            1,
            0,
            0x80,
            50, // config
            9,
            4,
            0,
            0,
            2,
            0x08,
            0x06,
            0x50,
            0, // interface: MSC/SCSI/BOT
            7,
            5,
            0x80 | BULK_IN_EP as u8,
            2,
            0x00,
            0x02,
            0, // EP IN, bulk, 512
            7,
            5,
            BULK_OUT_EP as u8,
            2,
            0x00,
            0x02,
            0, // EP OUT, bulk, 512
        ];
        v[2] = v.len() as u8;
        v
    }

    /// Handle a SETUP packet on endpoint 0. Returns the data-in stage bytes
    /// (possibly empty for OUT/status-only requests).
    pub fn handle_control(&mut self, setup: &[u8; 8]) -> Vec<u8> {
        let bm_request_type = setup[0];
        let b_request = setup[1];
        let w_value = u16::from_le_bytes([setup[2], setup[3]]);
        let w_length = u16::from_le_bytes([setup[6], setup[7]]) as usize;

        match b_request {
            request::SET_ADDRESS => {
                self.address = (w_value & 0x7f) as u8;
                Vec::new()
            }
            request::SET_CONFIGURATION => {
                self.configured = w_value != 0;
                Vec::new()
            }
            request::GET_DESCRIPTOR => {
                let dtype = (w_value >> 8) as u8;
                let mut data = match dtype {
                    desc::DEVICE => Self::device_descriptor(),
                    desc::CONFIGURATION => Self::config_descriptor(),
                    desc::STRING => vec![4, desc::STRING, 0x09, 0x04],
                    _ => Vec::new(),
                };
                data.truncate(w_length);
                data
            }
            request::GET_MAX_LUN if bm_request_type & 0x60 == 0x20 => vec![0],
            request::BOT_RESET if bm_request_type & 0x60 == 0x20 => {
                self.bot = BotState::Idle;
                Vec::new()
            }
            _ => {
                self.stalls += 1;
                Vec::new()
            }
        }
    }

    /// Receive a bulk OUT transfer (CBW or data-out payload).
    ///
    /// Returns extra processing latency in nanoseconds that the host
    /// controller should add before completing the transaction (flash
    /// programming time for writes).
    pub fn bulk_out(&mut self, data: &[u8], lba_program_ns: u64) -> u64 {
        match std::mem::replace(&mut self.bot, BotState::Idle) {
            BotState::Idle | BotState::CswReady => {
                let Some(cbw) = Cbw::parse(data) else {
                    self.stalls += 1;
                    return 0;
                };
                self.cbws_processed += 1;
                let Some(cdb) = Cdb::parse(cbw.cdb()) else {
                    self.finish(cbw.tag, cbw.data_len, 1);
                    return 0;
                };
                match self.disk.execute(&cdb, &mut self.data) {
                    ScsiResponse::DataIn => {
                        self.data.truncate(cbw.data_len as usize);
                        let residue = cbw.data_len - self.data.len() as u32;
                        self.bot = BotState::DataIn { sent: 0, tag: cbw.tag, residue };
                    }
                    ScsiResponse::NeedsDataOut(expect) => {
                        self.bot = BotState::DataOut { lba: cdb.lba, expect, tag: cbw.tag };
                    }
                    ScsiResponse::Good => self.finish(cbw.tag, 0, 0),
                    ScsiResponse::CheckCondition { .. } => self.finish(cbw.tag, cbw.data_len, 1),
                }
                0
            }
            BotState::DataOut { lba, expect, tag } => {
                self.data.extend_from_slice(data);
                if self.data.len() >= expect {
                    self.data.truncate(expect);
                    let ok = self.disk.write_data(lba, &self.data);
                    let pages = (expect.div_ceil(USB_FTL_PAGE)) as u64;
                    self.finish(tag, 0, if ok { 0 } else { 1 });
                    pages * lba_program_ns
                } else {
                    self.bot = BotState::DataOut { lba, expect, tag };
                    0
                }
            }
            BotState::DataIn { .. } => {
                // Host violated the protocol: sending OUT during a data-in
                // phase. Stall and resynchronise.
                self.stalls += 1;
                self.bot = BotState::Idle;
                0
            }
        }
    }

    /// Serve a bulk IN transfer (data-in payload or CSW), up to `maxlen`
    /// bytes, lent from the device's own buffers.
    pub fn bulk_in(&mut self, maxlen: usize) -> &[u8] {
        match std::mem::replace(&mut self.bot, BotState::Idle) {
            BotState::DataIn { sent, tag, residue } => {
                let end = self.data.len().min(sent.saturating_add(maxlen));
                if end == self.data.len() {
                    self.finish(tag, residue, 0);
                } else {
                    self.bot = BotState::DataIn { sent: end, tag, residue };
                }
                &self.data[sent..end]
            }
            BotState::CswReady => &self.csw[..maxlen.min(CSW_LEN)],
            other => {
                // Nothing to send: NAK equivalent (empty).
                self.stalls += 1;
                self.bot = other;
                &[]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scsi::opcode;

    fn configured_device(blocks: u64) -> UsbMassStorage {
        let mut d = UsbMassStorage::new(ScsiDisk::new(blocks));
        // Enumerate the long way to exercise the control path.
        let get_dev = [0x80, request::GET_DESCRIPTOR, 0, desc::DEVICE, 0, 0, 18, 0];
        assert_eq!(d.handle_control(&get_dev).len(), 18);
        let set_addr = [0x00, request::SET_ADDRESS, 3, 0, 0, 0, 0, 0];
        d.handle_control(&set_addr);
        assert_eq!(d.address(), 3);
        let get_cfg = [0x80, request::GET_DESCRIPTOR, 0, desc::CONFIGURATION, 0, 0, 64, 0];
        let cfg = d.handle_control(&get_cfg);
        assert!(cfg.len() >= 32);
        let set_cfg = [0x00, request::SET_CONFIGURATION, 1, 0, 0, 0, 0, 0];
        d.handle_control(&set_cfg);
        assert!(d.is_configured());
        d
    }

    fn do_read(d: &mut UsbMassStorage, lba: u32, blocks: u16, tag: u32) -> Vec<u8> {
        let cdb = Cdb::encode_rw10(false, lba, blocks);
        let cbw = Cbw::encode(tag, u32::from(blocks) * 512, true, &cdb);
        d.bulk_out(&cbw, 0);
        let data = d.bulk_in(blocks as usize * 512).to_vec();
        let csw = d.bulk_in(CSW_LEN);
        assert_eq!(csw.len(), CSW_LEN);
        assert_eq!(u32::from_le_bytes([csw[4], csw[5], csw[6], csw[7]]), tag);
        assert_eq!(csw[12], 0, "CSW status must be GOOD");
        data
    }

    fn do_write(d: &mut UsbMassStorage, lba: u32, payload: &[u8], tag: u32) -> u8 {
        let blocks = (payload.len() / 512) as u16;
        let cdb = Cdb::encode_rw10(true, lba, blocks);
        let cbw = Cbw::encode(tag, payload.len() as u32, false, &cdb);
        d.bulk_out(&cbw, 0);
        d.bulk_out(payload, 1_000);
        let csw = d.bulk_in(CSW_LEN);
        csw[12]
    }

    #[test]
    fn enumeration_produces_mass_storage_descriptors() {
        let d = configured_device(100);
        assert_eq!(d.address(), 3);
        assert!(d.is_configured());
    }

    #[test]
    fn cbw_encode_parse_round_trip() {
        let cdb = Cdb::encode_rw10(false, 42, 8);
        let raw = Cbw::encode(0xdead, 4096, true, &cdb);
        let cbw = Cbw::parse(&raw).unwrap();
        assert_eq!(cbw.tag, 0xdead);
        assert_eq!(cbw.data_len, 4096);
        assert!(cbw.dir_in);
        assert_eq!(cbw.cdb(), &cdb[..]);
    }

    #[test]
    fn bot_read_write_round_trip() {
        let mut d = configured_device(1000);
        let payload: Vec<u8> = (0..1024).map(|i| (i * 3 % 255) as u8).collect();
        assert_eq!(do_write(&mut d, 5, &payload, 1), 0);
        let back = do_read(&mut d, 5, 2, 2);
        assert_eq!(back, payload);
        assert_eq!(d.cbws_processed(), 2);
    }

    #[test]
    fn csw_echoes_the_tag_monotonically() {
        let mut d = configured_device(100);
        for tag in [7u32, 8, 9, 100] {
            let _ = do_read(&mut d, 0, 1, tag);
        }
    }

    #[test]
    fn write_returns_flash_programming_latency() {
        let mut d = configured_device(1000);
        let cdb = Cdb::encode_rw10(true, 0, 16);
        let cbw = Cbw::encode(1, 8192, false, &cdb);
        assert_eq!(d.bulk_out(&cbw, 123), 0);
        let extra = d.bulk_out(&vec![0u8; 8192], 1_000_000);
        assert_eq!(extra, 2_000_000, "two 4 KiB pages at 1 ms each");
    }

    #[test]
    fn malformed_cbw_stalls() {
        let mut d = configured_device(100);
        d.bulk_out(&[0u8; 31], 0);
        assert_eq!(d.stalls(), 1);
        // A NAK (empty read) follows since there is nothing queued.
        assert!(d.bulk_in(512).is_empty());
    }

    #[test]
    fn failed_command_reports_in_csw_status() {
        let mut d = configured_device(10);
        // Read far out of range.
        let cdb = Cdb::encode_rw10(false, 1000, 1);
        let cbw = Cbw::encode(9, 512, true, &cdb);
        d.bulk_out(&cbw, 0);
        let csw = d.bulk_in(CSW_LEN).to_vec();
        assert_eq!(csw[12], 1, "CHECK CONDITION maps to CSW status 1");
        // REQUEST SENSE explains it.
        let cdb = [opcode::REQUEST_SENSE, 0, 0, 0, 18, 0];
        let cbw = Cbw::encode(10, 18, true, &cdb);
        d.bulk_out(&cbw, 0);
        let sense = d.bulk_in(18);
        assert_eq!(sense[2] & 0xf, crate::scsi::sense::ILLEGAL_REQUEST);
    }

    #[test]
    fn partial_data_in_reads_are_supported() {
        let mut d = configured_device(100);
        d.disk_mut().poke_block(0, &[0xaa; 512]);
        let cdb = Cdb::encode_rw10(false, 0, 1);
        let cbw = Cbw::encode(3, 512, true, &cdb);
        d.bulk_out(&cbw, 0);
        let first = d.bulk_in(256).to_vec();
        let second = d.bulk_in(256).to_vec();
        assert_eq!(first.len(), 256);
        assert_eq!(second.len(), 256);
        assert!(first.iter().chain(second.iter()).all(|b| *b == 0xaa));
        let csw = d.bulk_in(CSW_LEN);
        assert_eq!(csw[12], 0);
    }

    #[test]
    fn bot_reset_class_request_resets_the_state_machine() {
        let mut d = configured_device(100);
        let cdb = Cdb::encode_rw10(false, 0, 1);
        let cbw = Cbw::encode(3, 512, true, &cdb);
        d.bulk_out(&cbw, 0);
        // Abandon mid-transfer, then class-reset.
        let reset = [0x21, request::BOT_RESET, 0, 0, 0, 0, 0, 0];
        d.handle_control(&reset);
        assert!(d.bulk_in(512).is_empty(), "after reset nothing is queued");
    }

    #[test]
    fn fast_init_skips_enumeration() {
        let mut d = UsbMassStorage::new(ScsiDisk::new(10));
        assert!(!d.is_configured());
        d.fast_init();
        assert!(d.is_configured());
        let _ = do_read(&mut d, 0, 1, 1);
    }
}
