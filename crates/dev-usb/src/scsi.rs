//! SCSI command set and the backing disk of the USB flash drive.
//!
//! The USB mass-storage class driver translates block requests into SCSI
//! commands; the paper notes that the full Linux driver selects among five
//! READ/WRITE command variants and picks READ(10)/WRITE(10) as "just long
//! enough to encode the requested LBA addresses" (§7.2.3). The disk model
//! implements the command subset a Linux-class stack needs plus the FTL-ish
//! behaviour (4 KiB program granularity: a sub-page write still programs a
//! whole page).

use dlt_hw::BlockStore;

use crate::{USB_BLOCK_SIZE, USB_FTL_PAGE};

/// SCSI operation codes understood by the disk.
pub mod opcode {
    /// TEST UNIT READY.
    pub const TEST_UNIT_READY: u8 = 0x00;
    /// REQUEST SENSE.
    pub const REQUEST_SENSE: u8 = 0x03;
    /// INQUIRY.
    pub const INQUIRY: u8 = 0x12;
    /// MODE SENSE (6).
    pub const MODE_SENSE_6: u8 = 0x1a;
    /// READ CAPACITY (10).
    pub const READ_CAPACITY_10: u8 = 0x25;
    /// READ (10).
    pub const READ_10: u8 = 0x28;
    /// WRITE (10).
    pub const WRITE_10: u8 = 0x2a;
    /// READ (6) — defined but unused by the gold driver (it picks READ(10)).
    pub const READ_6: u8 = 0x08;
    /// WRITE (6) — defined but unused by the gold driver.
    pub const WRITE_6: u8 = 0x0a;
    /// READ (16) — defined but unused by the gold driver.
    pub const READ_16: u8 = 0x88;
    /// WRITE (16) — defined but unused by the gold driver.
    pub const WRITE_16: u8 = 0x8a;
    /// SYNCHRONIZE CACHE (10).
    pub const SYNCHRONIZE_CACHE: u8 = 0x35;
}

/// Outcome of executing a SCSI command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScsiResponse {
    /// Command succeeded and left its data-in bytes for the host in the
    /// buffer [`ScsiDisk::execute`] was given.
    DataIn,
    /// Command succeeded and expects `len` bytes from the host (data-out).
    NeedsDataOut(usize),
    /// Command succeeded with no data phase.
    Good,
    /// Command failed; sense data describes why (CHECK CONDITION).
    CheckCondition {
        /// Sense key.
        key: u8,
        /// Additional sense code.
        asc: u8,
    },
}

/// A parsed command descriptor block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cdb {
    /// Operation code.
    pub opcode: u8,
    /// Logical block address (for READ/WRITE).
    pub lba: u64,
    /// Number of blocks (for READ/WRITE) or allocation length otherwise.
    pub blocks: u32,
}

impl Cdb {
    /// Parse a raw CDB (6/10/16-byte forms of the commands we support).
    pub fn parse(raw: &[u8]) -> Option<Cdb> {
        if raw.is_empty() {
            return None;
        }
        let opcode = raw[0];
        match opcode {
            opcode::READ_10 | opcode::WRITE_10 => {
                if raw.len() < 10 {
                    return None;
                }
                let lba = u32::from_be_bytes([raw[2], raw[3], raw[4], raw[5]]) as u64;
                let blocks = u16::from_be_bytes([raw[7], raw[8]]) as u32;
                Some(Cdb { opcode, lba, blocks })
            }
            opcode::READ_6 | opcode::WRITE_6 => {
                if raw.len() < 6 {
                    return None;
                }
                let lba =
                    (u64::from(raw[1] & 0x1f) << 16) | (u64::from(raw[2]) << 8) | u64::from(raw[3]);
                let blocks = if raw[4] == 0 { 256 } else { u32::from(raw[4]) };
                Some(Cdb { opcode, lba, blocks })
            }
            opcode::READ_16 | opcode::WRITE_16 => {
                if raw.len() < 16 {
                    return None;
                }
                let lba = u64::from_be_bytes([
                    raw[2], raw[3], raw[4], raw[5], raw[6], raw[7], raw[8], raw[9],
                ]);
                let blocks = u32::from_be_bytes([raw[10], raw[11], raw[12], raw[13]]);
                Some(Cdb { opcode, lba, blocks })
            }
            opcode::INQUIRY | opcode::MODE_SENSE_6 | opcode::REQUEST_SENSE => {
                let alloc = raw.get(4).copied().unwrap_or(0);
                Some(Cdb { opcode, lba: 0, blocks: u32::from(alloc) })
            }
            _ => Some(Cdb { opcode, lba: 0, blocks: 0 }),
        }
    }

    /// Encode a READ(10) or WRITE(10) CDB for the given LBA/length — the
    /// variant the gold driver selects.
    pub fn encode_rw10(write: bool, lba: u32, blocks: u16) -> [u8; 10] {
        let mut cdb = [0u8; 10];
        cdb[0] = if write { opcode::WRITE_10 } else { opcode::READ_10 };
        cdb[2..6].copy_from_slice(&lba.to_be_bytes());
        cdb[7..9].copy_from_slice(&blocks.to_be_bytes());
        cdb
    }
}

/// Sense keys.
pub mod sense {
    /// No sense: everything fine.
    pub const NO_SENSE: u8 = 0x0;
    /// Not ready (e.g. medium removed).
    pub const NOT_READY: u8 = 0x2;
    /// Illegal request (bad opcode / LBA out of range).
    pub const ILLEGAL_REQUEST: u8 = 0x5;
}

/// The flash disk behind the SCSI interface.
#[derive(Debug, Clone)]
pub struct ScsiDisk {
    blocks: BlockStore,
    removed: bool,
    sense_key: u8,
    sense_asc: u8,
    reads: u64,
    writes: u64,
    /// Count of 4 KiB FTL pages programmed (write amplification statistic).
    pages_programmed: u64,
}

impl ScsiDisk {
    /// A blank disk with `total_blocks` 512-byte logical blocks.
    pub fn new(total_blocks: u64) -> Self {
        ScsiDisk {
            blocks: BlockStore::new(total_blocks),
            removed: false,
            sense_key: sense::NO_SENSE,
            sense_asc: 0,
            reads: 0,
            writes: 0,
            pages_programmed: 0,
        }
    }

    /// Number of logical blocks.
    pub fn total_blocks(&self) -> u64 {
        self.blocks.total_blocks()
    }

    /// Whether the medium is removed.
    pub fn is_removed(&self) -> bool {
        self.removed
    }

    /// Unplug the stick (fault injection).
    pub fn remove(&mut self) {
        self.removed = true;
    }

    /// Plug the stick back in.
    pub fn reinsert(&mut self) {
        self.removed = false;
        self.sense_key = sense::NO_SENSE;
    }

    /// Blocks read so far.
    pub fn blocks_read(&self) -> u64 {
        self.reads
    }

    /// Blocks written so far.
    pub fn blocks_written(&self) -> u64 {
        self.writes
    }

    /// FTL pages programmed so far.
    pub fn pages_programmed(&self) -> u64 {
        self.pages_programmed
    }

    /// Peek a block for validation (zero if never written).
    pub fn peek_block(&self, lba: u64) -> Vec<u8> {
        self.blocks.block(lba).to_vec()
    }

    /// Poke a block for fixtures.
    pub fn poke_block(&mut self, lba: u64, data: &[u8]) {
        self.blocks.put(lba, data);
    }

    fn set_sense(&mut self, key: u8, asc: u8) {
        self.sense_key = key;
        self.sense_asc = asc;
    }

    /// Execute the command phase of a SCSI command. A command with a
    /// data-in phase replaces the contents of `data_in` with its bytes (the
    /// caller reuses the buffer, so a warm READ allocates nothing). For
    /// WRITEs the caller must follow up with [`ScsiDisk::write_data`] once
    /// the data-out phase delivered the payload.
    pub fn execute(&mut self, cdb: &Cdb, data_in: &mut Vec<u8>) -> ScsiResponse {
        data_in.clear();
        if self.removed && cdb.opcode != opcode::REQUEST_SENSE && cdb.opcode != opcode::INQUIRY {
            self.set_sense(sense::NOT_READY, 0x3a);
            return ScsiResponse::CheckCondition { key: sense::NOT_READY, asc: 0x3a };
        }
        match cdb.opcode {
            opcode::TEST_UNIT_READY | opcode::SYNCHRONIZE_CACHE => {
                self.set_sense(sense::NO_SENSE, 0);
                ScsiResponse::Good
            }
            opcode::INQUIRY => {
                let data = data_in;
                data.resize(36, 0);
                data[0] = 0x00; // direct-access block device
                data[1] = 0x80; // removable
                data[2] = 0x04; // SPC-2
                data[4] = 31; // additional length
                data[8..16].copy_from_slice(b"Intenso ");
                data[16..32].copy_from_slice(b"Micro Line 8GB  ");
                data[32..36].copy_from_slice(b"1.00");
                data.truncate((cdb.blocks as usize).clamp(5, 36));
                ScsiResponse::DataIn
            }
            opcode::REQUEST_SENSE => {
                let data = data_in;
                data.resize(18, 0);
                data[0] = 0x70;
                data[2] = self.sense_key;
                data[7] = 10;
                data[12] = self.sense_asc;
                ScsiResponse::DataIn
            }
            opcode::MODE_SENSE_6 => {
                // Minimal mode parameter header: not write protected.
                data_in.extend_from_slice(&[3, 0, 0, 0]);
                ScsiResponse::DataIn
            }
            opcode::READ_CAPACITY_10 => {
                let last = (self.total_blocks() - 1) as u32;
                data_in.extend_from_slice(&last.to_be_bytes());
                data_in.extend_from_slice(&(USB_BLOCK_SIZE as u32).to_be_bytes());
                ScsiResponse::DataIn
            }
            opcode::READ_10 | opcode::READ_6 | opcode::READ_16 => {
                if !self.blocks.contains(cdb.lba, u64::from(cdb.blocks)) {
                    self.set_sense(sense::ILLEGAL_REQUEST, 0x21);
                    return ScsiResponse::CheckCondition { key: sense::ILLEGAL_REQUEST, asc: 0x21 };
                }
                for block in self.blocks.blocks(cdb.lba, u64::from(cdb.blocks)) {
                    data_in.extend_from_slice(block);
                }
                self.reads += u64::from(cdb.blocks);
                self.set_sense(sense::NO_SENSE, 0);
                ScsiResponse::DataIn
            }
            opcode::WRITE_10 | opcode::WRITE_6 | opcode::WRITE_16 => {
                if !self.blocks.contains(cdb.lba, u64::from(cdb.blocks)) {
                    self.set_sense(sense::ILLEGAL_REQUEST, 0x21);
                    return ScsiResponse::CheckCondition { key: sense::ILLEGAL_REQUEST, asc: 0x21 };
                }
                self.set_sense(sense::NO_SENSE, 0);
                ScsiResponse::NeedsDataOut(cdb.blocks as usize * USB_BLOCK_SIZE)
            }
            _ => {
                self.set_sense(sense::ILLEGAL_REQUEST, 0x20);
                ScsiResponse::CheckCondition { key: sense::ILLEGAL_REQUEST, asc: 0x20 }
            }
        }
    }

    /// Commit the data-out payload of a WRITE command.
    pub fn write_data(&mut self, lba: u64, data: &[u8]) -> bool {
        if self.removed || !data.len().is_multiple_of(USB_BLOCK_SIZE) {
            return false;
        }
        let count = (data.len() / USB_BLOCK_SIZE) as u64;
        if !self.blocks.contains(lba, count) {
            return false;
        }
        self.blocks.put_blocks(lba, data);
        self.writes += count;
        // FTL programs whole 4 KiB pages regardless of how few blocks change.
        let blocks_per_page = (USB_FTL_PAGE / USB_BLOCK_SIZE) as u64;
        let first_page = lba / blocks_per_page;
        let last_page = (lba + count - 1) / blocks_per_page;
        self.pages_programmed += last_page - first_page + 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdb_rw10_round_trip() {
        let raw = Cdb::encode_rw10(false, 0x1234_5678, 64);
        let cdb = Cdb::parse(&raw).unwrap();
        assert_eq!(cdb.opcode, opcode::READ_10);
        assert_eq!(cdb.lba, 0x1234_5678);
        assert_eq!(cdb.blocks, 64);

        let raw = Cdb::encode_rw10(true, 7, 1);
        let cdb = Cdb::parse(&raw).unwrap();
        assert_eq!(cdb.opcode, opcode::WRITE_10);
        assert_eq!(cdb.lba, 7);
        assert_eq!(cdb.blocks, 1);
    }

    #[test]
    fn cdb_read6_and_read16_forms() {
        let cdb = Cdb::parse(&[opcode::READ_6, 0x01, 0x02, 0x03, 0, 0]).unwrap();
        assert_eq!(cdb.lba, 0x010203);
        assert_eq!(cdb.blocks, 256, "a zero length field means 256 blocks in READ(6)");
        let mut raw16 = [0u8; 16];
        raw16[0] = opcode::WRITE_16;
        raw16[2..10].copy_from_slice(&0x1_0000_0000u64.to_be_bytes());
        raw16[10..14].copy_from_slice(&8u32.to_be_bytes());
        let cdb = Cdb::parse(&raw16).unwrap();
        assert_eq!(cdb.lba, 0x1_0000_0000);
        assert_eq!(cdb.blocks, 8);
    }

    #[test]
    fn inquiry_and_capacity() {
        let mut d = ScsiDisk::new(1000);
        let mut data = Vec::new();
        match d.execute(&Cdb { opcode: opcode::INQUIRY, lba: 0, blocks: 36 }, &mut data) {
            ScsiResponse::DataIn => {
                assert_eq!(data.len(), 36);
                assert_eq!(&data[8..16], b"Intenso ");
            }
            other => panic!("unexpected {other:?}"),
        }
        match d.execute(&Cdb { opcode: opcode::READ_CAPACITY_10, lba: 0, blocks: 0 }, &mut data) {
            ScsiResponse::DataIn => {
                let last = u32::from_be_bytes([data[0], data[1], data[2], data[3]]);
                let bs = u32::from_be_bytes([data[4], data[5], data[6], data[7]]);
                assert_eq!(last, 999);
                assert_eq!(bs, 512);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn read_write_round_trip() {
        let mut d = ScsiDisk::new(1000);
        let payload: Vec<u8> = (0..1024).map(|i| (i % 7) as u8).collect();
        let mut data = Vec::new();
        match d.execute(&Cdb { opcode: opcode::WRITE_10, lba: 10, blocks: 2 }, &mut data) {
            ScsiResponse::NeedsDataOut(n) => assert_eq!(n, 1024),
            other => panic!("unexpected {other:?}"),
        }
        assert!(d.write_data(10, &payload));
        match d.execute(&Cdb { opcode: opcode::READ_10, lba: 10, blocks: 2 }, &mut data) {
            ScsiResponse::DataIn => assert_eq!(data, payload),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(d.blocks_written(), 2);
        assert_eq!(d.blocks_read(), 2);
    }

    #[test]
    fn out_of_range_access_sets_sense() {
        let mut d = ScsiDisk::new(100);
        let mut data = Vec::new();
        match d.execute(&Cdb { opcode: opcode::READ_10, lba: 99, blocks: 2 }, &mut data) {
            ScsiResponse::CheckCondition { key, .. } => assert_eq!(key, sense::ILLEGAL_REQUEST),
            other => panic!("unexpected {other:?}"),
        }
        // REQUEST SENSE reports it.
        match d.execute(&Cdb { opcode: opcode::REQUEST_SENSE, lba: 0, blocks: 18 }, &mut data) {
            ScsiResponse::DataIn => assert_eq!(data[2], sense::ILLEGAL_REQUEST),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lba_ranges_that_wrap_past_u64_are_out_of_range() {
        let mut d = ScsiDisk::new(1024);
        let mut raw16 = [0u8; 16];
        raw16[0] = opcode::READ_16;
        raw16[2..10].copy_from_slice(&(u64::MAX - 1).to_be_bytes());
        raw16[10..14].copy_from_slice(&4u32.to_be_bytes());
        let read = Cdb::parse(&raw16).unwrap();
        let refused = ScsiResponse::CheckCondition { key: sense::ILLEGAL_REQUEST, asc: 0x21 };
        let mut data = Vec::new();
        assert!(
            d.execute(&read, &mut data) == refused,
            "a READ(16) whose range wraps must be refused"
        );
        raw16[0] = opcode::WRITE_16;
        let write = Cdb::parse(&raw16).unwrap();
        assert!(
            d.execute(&write, &mut data) == refused,
            "a WRITE(16) whose range wraps must be refused"
        );
        assert!(!d.write_data(u64::MAX - 1, &[0xee; 4 * USB_BLOCK_SIZE]));
        assert_eq!(d.peek_block(0), vec![0u8; USB_BLOCK_SIZE], "block 0 is untouched");
        assert_eq!(d.blocks_written(), 0);
    }

    #[test]
    fn removed_medium_reports_not_ready() {
        let mut d = ScsiDisk::new(100);
        d.remove();
        let mut data = Vec::new();
        match d.execute(&Cdb { opcode: opcode::TEST_UNIT_READY, lba: 0, blocks: 0 }, &mut data) {
            ScsiResponse::CheckCondition { key, .. } => assert_eq!(key, sense::NOT_READY),
            other => panic!("unexpected {other:?}"),
        }
        assert!(!d.write_data(0, &vec![0u8; 512]));
        d.reinsert();
        assert!(matches!(
            d.execute(&Cdb { opcode: opcode::TEST_UNIT_READY, lba: 0, blocks: 0 }, &mut data),
            ScsiResponse::Good
        ));
    }

    #[test]
    fn ftl_page_accounting_shows_write_amplification() {
        let mut d = ScsiDisk::new(1000);
        // One 512-byte block still programs one whole 4 KiB page.
        d.execute(&Cdb { opcode: opcode::WRITE_10, lba: 0, blocks: 1 }, &mut Vec::new());
        assert!(d.write_data(0, &vec![1u8; 512]));
        assert_eq!(d.pages_programmed(), 1);
        // Eight contiguous blocks on one page boundary -> one page.
        d.execute(&Cdb { opcode: opcode::WRITE_10, lba: 8, blocks: 8 }, &mut Vec::new());
        assert!(d.write_data(8, &vec![1u8; 4096]));
        assert_eq!(d.pages_programmed(), 2);
        // A straddling write programs two pages.
        d.execute(&Cdb { opcode: opcode::WRITE_10, lba: 6, blocks: 4 }, &mut Vec::new());
        assert!(d.write_data(6, &vec![1u8; 2048]));
        assert_eq!(d.pages_programmed(), 4);
    }

    #[test]
    fn unknown_opcode_is_illegal_request() {
        let mut d = ScsiDisk::new(10);
        match d.execute(&Cdb { opcode: 0xff, lba: 0, blocks: 0 }, &mut Vec::new()) {
            ScsiResponse::CheckCondition { key, asc } => {
                assert_eq!(key, sense::ILLEGAL_REQUEST);
                assert_eq!(asc, 0x20);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
