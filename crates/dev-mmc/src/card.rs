//! SD card model: command set, card-state machine and a sparse block store.
//!
//! The card is the FSM the paper's "design prerequisite" talks about: it
//! always walks the same state-transition path for a given request shape and
//! its transitions never depend on block contents. The model implements the
//! subset of the SD physical-layer command set that a Linux-class MMC stack
//! exercises during initialisation and block IO.

use dlt_hw::block::{BlockStore, BLOCK_BYTES};

use crate::BLOCK_SIZE;

/// SD card states (SD physical layer spec, simplified).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CardState {
    /// Power-on idle (after CMD0).
    Idle,
    /// Ready (after ACMD41 completes).
    Ready,
    /// Identification (after CMD2).
    Ident,
    /// Standby (addressed, not selected).
    Standby,
    /// Transfer (selected, ready for data commands).
    Transfer,
    /// Sending data to the host.
    SendingData,
    /// Receiving data from the host.
    ReceiveData,
    /// Programming flash after a write.
    Programming,
    /// Card is disconnected / removed.
    Inactive,
}

/// Result of executing one command on the card.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmdResult {
    /// No response expected (e.g. CMD0).
    NoResponse,
    /// Short (32-bit) response.
    R1(u32),
    /// Short response with busy signalling (R1b).
    R1Busy(u32),
    /// 136-bit response (CID/CSD), as four 32-bit words, most significant first.
    R2([u32; 4]),
    /// OCR response (ACMD41).
    R3(u32),
    /// Published RCA response (CMD3).
    R6(u32),
    /// Interface condition response (CMD8).
    R7(u32),
    /// The card did not answer (wrong state, removed, unknown command).
    Timeout,
}

/// Card status register bits (subset of the SD status field).
pub mod status {
    /// The card is ready for new data.
    pub const READY_FOR_DATA: u32 = 1 << 8;
    /// Current state shift (bits 9..12).
    pub const CURRENT_STATE_SHIFT: u32 = 9;
    /// An illegal command was received.
    pub const ILLEGAL_COMMAND: u32 = 1 << 22;
    /// The card expects an application command next (after CMD55).
    pub const APP_CMD: u32 = 1 << 5;
    /// Address out of range.
    pub const OUT_OF_RANGE: u32 = 1 << 31;
}

fn state_code(state: CardState) -> u32 {
    match state {
        CardState::Idle => 0,
        CardState::Ready => 1,
        CardState::Ident => 2,
        CardState::Standby => 3,
        CardState::Transfer => 4,
        CardState::SendingData => 5,
        CardState::ReceiveData => 6,
        CardState::Programming => 7,
        CardState::Inactive => 8,
    }
}

/// The SD card.
#[derive(Debug, Clone)]
pub struct SdCard {
    state: CardState,
    rca: u32,
    app_cmd_armed: bool,
    block_len: usize,
    /// Pre-set block count from CMD23 for the next multi-block command.
    preset_block_count: Option<u32>,
    /// The medium: a sparse store of the card's blocks.
    blocks: BlockStore,
    /// Physically removed (fault injection).
    removed: bool,
    /// Cumulative counters for validation.
    blocks_read: u64,
    blocks_written: u64,
}

/// Commands the card understands (the Table 7 "CMDs" population plus the
/// initialisation set).
pub mod cmd {
    /// GO_IDLE_STATE.
    pub const GO_IDLE: u8 = 0;
    /// ALL_SEND_CID.
    pub const ALL_SEND_CID: u8 = 2;
    /// SEND_RELATIVE_ADDR.
    pub const SEND_RELATIVE_ADDR: u8 = 3;
    /// SELECT_CARD.
    pub const SELECT_CARD: u8 = 7;
    /// SEND_IF_COND.
    pub const SEND_IF_COND: u8 = 8;
    /// SEND_CSD.
    pub const SEND_CSD: u8 = 9;
    /// STOP_TRANSMISSION.
    pub const STOP_TRANSMISSION: u8 = 12;
    /// SEND_STATUS.
    pub const SEND_STATUS: u8 = 13;
    /// SET_BLOCKLEN.
    pub const SET_BLOCKLEN: u8 = 16;
    /// READ_SINGLE_BLOCK.
    pub const READ_SINGLE: u8 = 17;
    /// READ_MULTIPLE_BLOCK.
    pub const READ_MULTIPLE: u8 = 18;
    /// SET_BLOCK_COUNT.
    pub const SET_BLOCK_COUNT: u8 = 23;
    /// WRITE_BLOCK.
    pub const WRITE_SINGLE: u8 = 24;
    /// WRITE_MULTIPLE_BLOCK.
    pub const WRITE_MULTIPLE: u8 = 25;
    /// APP_CMD prefix.
    pub const APP_CMD: u8 = 55;
    /// ACMD41 — SD_SEND_OP_COND (only valid after CMD55).
    pub const ACMD_SEND_OP_COND: u8 = 41;
    /// ACMD6 — SET_BUS_WIDTH (only valid after CMD55).
    pub const ACMD_SET_BUS_WIDTH: u8 = 6;
    /// ACMD51 — SEND_SCR (only valid after CMD55).
    pub const ACMD_SEND_SCR: u8 = 51;
}

impl SdCard {
    /// A blank (all-zero) card with `total_blocks` addressable 512-byte blocks.
    pub fn formatted(total_blocks: u64) -> Self {
        SdCard {
            state: CardState::Idle,
            rca: 0,
            app_cmd_armed: false,
            block_len: BLOCK_SIZE,
            preset_block_count: None,
            blocks: BlockStore::new(total_blocks),
            removed: false,
            blocks_read: 0,
            blocks_written: 0,
        }
    }

    /// Current card state.
    pub fn state(&self) -> CardState {
        self.state
    }

    /// Number of addressable blocks.
    pub fn total_blocks(&self) -> u64 {
        self.blocks.total_blocks()
    }

    /// Whether the medium has been removed (fault injection).
    pub fn is_removed(&self) -> bool {
        self.removed
    }

    /// Remove the medium mid-operation (the §8.2.1 fault-injection case).
    pub fn remove(&mut self) {
        self.removed = true;
        self.state = CardState::Inactive;
    }

    /// Re-insert the medium. The card returns to the idle state and must be
    /// re-initialised, as on real hardware.
    pub fn reinsert(&mut self) {
        self.removed = false;
        self.state = CardState::Idle;
        self.rca = 0;
        self.preset_block_count = None;
    }

    /// Total number of blocks read since creation.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read
    }

    /// Total number of blocks written since creation.
    pub fn blocks_written(&self) -> u64 {
        self.blocks_written
    }

    /// Direct block access for validation scripts (bypasses the bus; not part
    /// of the device interface).
    pub fn peek_block(&self, lba: u64) -> Vec<u8> {
        self.blocks.block(lba).to_vec()
    }

    /// Direct block write for test-fixture preparation.
    pub fn poke_block(&mut self, lba: u64, data: &[u8]) {
        self.blocks.put(lba, data);
    }

    fn card_status(&self) -> u32 {
        let mut s =
            status::READY_FOR_DATA | (state_code(self.state) << status::CURRENT_STATE_SHIFT);
        if self.app_cmd_armed {
            s |= status::APP_CMD;
        }
        s
    }

    /// Execute a command. Data movement for read/write commands is modelled
    /// separately by [`SdCard::read_blocks`] / [`SdCard::write_blocks`]; this
    /// method performs the state transition and produces the response.
    pub fn execute(&mut self, index: u8, arg: u32) -> CmdResult {
        if self.removed {
            return CmdResult::Timeout;
        }

        let app = std::mem::take(&mut self.app_cmd_armed);
        if app {
            return self.execute_app(index, arg);
        }

        match index {
            cmd::GO_IDLE => {
                self.state = CardState::Idle;
                self.rca = 0;
                self.preset_block_count = None;
                CmdResult::NoResponse
            }
            cmd::SEND_IF_COND => {
                // Echo the check pattern and voltage window (2.7-3.6 V).
                CmdResult::R7(arg & 0xfff)
            }
            cmd::ALL_SEND_CID => {
                if self.state == CardState::Ready {
                    self.state = CardState::Ident;
                    CmdResult::R2(self.cid())
                } else {
                    CmdResult::Timeout
                }
            }
            cmd::SEND_RELATIVE_ADDR => {
                if self.state == CardState::Ident || self.state == CardState::Standby {
                    self.rca = 0x4567;
                    self.state = CardState::Standby;
                    CmdResult::R6((self.rca << 16) | (self.card_status() & 0xffff))
                } else {
                    CmdResult::Timeout
                }
            }
            cmd::SEND_CSD => {
                if self.state == CardState::Standby && (arg >> 16) == self.rca {
                    CmdResult::R2(self.csd())
                } else {
                    CmdResult::Timeout
                }
            }
            cmd::SELECT_CARD => {
                if (arg >> 16) == self.rca && self.state == CardState::Standby {
                    self.state = CardState::Transfer;
                    CmdResult::R1Busy(self.card_status())
                } else {
                    CmdResult::Timeout
                }
            }
            cmd::SEND_STATUS => CmdResult::R1(self.card_status()),
            cmd::SET_BLOCKLEN => {
                self.block_len = (arg as usize).clamp(1, 2048);
                CmdResult::R1(self.card_status())
            }
            cmd::SET_BLOCK_COUNT => {
                self.preset_block_count = Some(arg & 0xffff);
                CmdResult::R1(self.card_status())
            }
            cmd::READ_SINGLE | cmd::READ_MULTIPLE => {
                if self.state != CardState::Transfer {
                    return CmdResult::Timeout;
                }
                if u64::from(arg) >= self.total_blocks() {
                    return CmdResult::R1(self.card_status() | status::OUT_OF_RANGE);
                }
                self.state = CardState::SendingData;
                CmdResult::R1(self.card_status())
            }
            cmd::WRITE_SINGLE | cmd::WRITE_MULTIPLE => {
                if self.state != CardState::Transfer {
                    return CmdResult::Timeout;
                }
                if u64::from(arg) >= self.total_blocks() {
                    return CmdResult::R1(self.card_status() | status::OUT_OF_RANGE);
                }
                self.state = CardState::ReceiveData;
                CmdResult::R1(self.card_status())
            }
            cmd::STOP_TRANSMISSION => {
                self.state = CardState::Transfer;
                self.preset_block_count = None;
                CmdResult::R1Busy(self.card_status())
            }
            cmd::APP_CMD => {
                self.app_cmd_armed = true;
                CmdResult::R1(self.card_status() | status::APP_CMD)
            }
            _ => CmdResult::R1(self.card_status() | status::ILLEGAL_COMMAND),
        }
    }

    fn execute_app(&mut self, index: u8, arg: u32) -> CmdResult {
        match index {
            cmd::ACMD_SEND_OP_COND => {
                // Report powered-up + SDHC (CCS) once the host asks with HCS.
                if arg & 0x4000_0000 != 0 {
                    self.state = CardState::Ready;
                    CmdResult::R3(0xc0ff_8000)
                } else {
                    CmdResult::R3(0x00ff_8000)
                }
            }
            cmd::ACMD_SET_BUS_WIDTH => CmdResult::R1(self.card_status()),
            cmd::ACMD_SEND_SCR => CmdResult::R1(self.card_status()),
            _ => CmdResult::R1(self.card_status() | status::ILLEGAL_COMMAND),
        }
    }

    /// Read `count` blocks starting at `lba`, lent in order from the store.
    ///
    /// The card must be in the sending-data state (a read command must have
    /// been accepted first).
    pub fn read_blocks(
        &mut self,
        lba: u64,
        count: u32,
    ) -> Option<impl Iterator<Item = &[u8; BLOCK_BYTES]>> {
        if self.removed || self.state != CardState::SendingData {
            return None;
        }
        self.blocks_read += u64::from(count);
        self.state = CardState::Transfer;
        Some(self.blocks.blocks(lba, u64::from(count)))
    }

    /// Write blocks starting at `lba`. `data` must be a whole number of
    /// blocks. The card transitions through Programming back to Transfer.
    pub fn write_blocks(&mut self, lba: u64, data: &[u8]) -> bool {
        if self.removed || self.state != CardState::ReceiveData {
            return false;
        }
        if data.is_empty() || !data.len().is_multiple_of(BLOCK_SIZE) {
            return false;
        }
        let count = (data.len() / BLOCK_SIZE) as u64;
        if !self.blocks.contains(lba, count) {
            return false;
        }
        self.blocks.put_blocks(lba, data);
        self.blocks_written += count;
        self.state = CardState::Transfer;
        true
    }

    /// Bring an initialised card directly to the transfer state. Used by the
    /// controller's soft-reset path: the paper's soft reset returns the device
    /// to "a clean-slate state — as if the device just finishes initialization
    /// in the boot up process" (§5), which for the card means selected and
    /// ready for data commands.
    pub fn fast_init(&mut self) {
        if self.removed {
            return;
        }
        self.state = CardState::Transfer;
        self.rca = 0x4567;
        self.block_len = BLOCK_SIZE;
        self.preset_block_count = None;
        self.app_cmd_armed = false;
    }

    fn cid(&self) -> [u32; 4] {
        // Manufacturer 0x74 ("Transcend"-like), product "DLTSD", serial 42.
        [0x7445_4c54, 0x5344_0010, 0x0000_002a, 0x0000_d100]
    }

    fn csd(&self) -> [u32; 4] {
        // CSD v2 (SDHC); C_SIZE encodes (total_blocks / 1024 - 1).
        let c_size = (self.total_blocks() / 1024).saturating_sub(1) as u32;
        [0x400e_0032, 0x5b59_0000 | (c_size >> 16), (c_size << 16) | 0x7f80, 0x0a40_0000]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn init_card() -> SdCard {
        let mut c = SdCard::formatted(1024);
        assert_eq!(c.execute(cmd::GO_IDLE, 0), CmdResult::NoResponse);
        assert!(matches!(c.execute(cmd::SEND_IF_COND, 0x1aa), CmdResult::R7(_)));
        assert!(matches!(c.execute(cmd::APP_CMD, 0), CmdResult::R1(_)));
        assert!(matches!(c.execute(cmd::ACMD_SEND_OP_COND, 0x4000_0000), CmdResult::R3(_)));
        assert!(matches!(c.execute(cmd::ALL_SEND_CID, 0), CmdResult::R2(_)));
        let rca = match c.execute(cmd::SEND_RELATIVE_ADDR, 0) {
            CmdResult::R6(r) => r >> 16,
            other => panic!("unexpected {other:?}"),
        };
        assert!(matches!(c.execute(cmd::SEND_CSD, rca << 16), CmdResult::R2(_)));
        assert!(matches!(c.execute(cmd::SELECT_CARD, rca << 16), CmdResult::R1Busy(_)));
        assert_eq!(c.state(), CardState::Transfer);
        c
    }

    #[test]
    fn full_initialisation_sequence() {
        let c = init_card();
        assert_eq!(c.state(), CardState::Transfer);
    }

    #[test]
    fn read_write_round_trip() {
        let mut c = init_card();
        let payload: Vec<u8> = (0..BLOCK_SIZE * 2).map(|i| (i % 251) as u8).collect();
        assert!(matches!(c.execute(cmd::WRITE_MULTIPLE, 7), CmdResult::R1(_)));
        assert!(c.write_blocks(7, &payload));
        assert_eq!(c.state(), CardState::Transfer);
        assert!(matches!(c.execute(cmd::READ_MULTIPLE, 7), CmdResult::R1(_)));
        let back: Vec<u8> = c.read_blocks(7, 2).unwrap().flatten().copied().collect();
        assert_eq!(back, payload);
        assert_eq!(c.blocks_written(), 2);
        assert_eq!(c.blocks_read(), 2);
    }

    #[test]
    fn unwritten_blocks_read_as_zero() {
        let mut c = init_card();
        assert!(matches!(c.execute(cmd::READ_SINGLE, 900), CmdResult::R1(_)));
        let data: Vec<&[u8; BLOCK_BYTES]> = c.read_blocks(900, 1).unwrap().collect();
        assert_eq!(data, [&[0u8; BLOCK_SIZE]]);
    }

    #[test]
    fn data_commands_require_transfer_state() {
        let mut c = SdCard::formatted(64);
        // Card is still idle: a read command must time out.
        assert_eq!(c.execute(cmd::READ_SINGLE, 0), CmdResult::Timeout);
        assert!(c.read_blocks(0, 1).is_none());
    }

    #[test]
    fn out_of_range_is_flagged_in_status() {
        let mut c = init_card();
        match c.execute(cmd::READ_SINGLE, 5000) {
            CmdResult::R1(s) => assert!(s & status::OUT_OF_RANGE != 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn removal_makes_the_card_unresponsive() {
        let mut c = init_card();
        c.remove();
        assert_eq!(c.execute(cmd::SEND_STATUS, 0), CmdResult::Timeout);
        assert!(c.read_blocks(0, 1).is_none());
        c.reinsert();
        assert_eq!(c.state(), CardState::Idle);
        // Needs re-initialisation before data commands work again.
        assert_eq!(c.execute(cmd::READ_SINGLE, 0), CmdResult::Timeout);
    }

    #[test]
    fn app_cmd_gates_acmd_interpretation() {
        let mut c = init_card();
        // ACMD6 without a preceding CMD55 must be treated as illegal CMD6.
        match c.execute(cmd::ACMD_SET_BUS_WIDTH, 2) {
            CmdResult::R1(s) => assert!(s & status::ILLEGAL_COMMAND != 0),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(c.execute(cmd::APP_CMD, 0), CmdResult::R1(_)));
        match c.execute(cmd::ACMD_SET_BUS_WIDTH, 2) {
            CmdResult::R1(s) => assert_eq!(s & status::ILLEGAL_COMMAND, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn set_block_count_is_consumed_by_stop() {
        let mut c = init_card();
        assert!(matches!(c.execute(cmd::SET_BLOCK_COUNT, 8), CmdResult::R1(_)));
        assert!(matches!(c.execute(cmd::STOP_TRANSMISSION, 0), CmdResult::R1Busy(_)));
        assert_eq!(c.preset_block_count, None);
    }

    #[test]
    fn fast_init_restores_transfer_state() {
        let mut c = SdCard::formatted(64);
        c.fast_init();
        assert_eq!(c.state(), CardState::Transfer);
        assert!(matches!(c.execute(cmd::READ_SINGLE, 0), CmdResult::R1(_)));
    }

    #[test]
    fn poke_and_peek_bypass_the_bus_for_validation() {
        let mut c = SdCard::formatted(64);
        c.poke_block(3, &[9u8; 16]);
        let b = c.peek_block(3);
        assert_eq!(&b[..16], &[9u8; 16]);
        assert_eq!(b.len(), BLOCK_SIZE);
        assert_eq!(c.peek_block(4), vec![0u8; BLOCK_SIZE]);
    }

    #[test]
    fn csd_encodes_capacity() {
        let c = SdCard::formatted(2048 * 1024);
        let csd = c.csd();
        // C_SIZE low bits land in word 2; capacity 2M blocks -> c_size 2047.
        assert_eq!((csd[2] >> 16) & 0xffff, 2047);
    }

    #[test]
    fn write_rejects_partial_blocks_and_overflow() {
        let mut c = init_card();
        assert!(matches!(c.execute(cmd::WRITE_SINGLE, 0), CmdResult::R1(_)));
        assert!(!c.write_blocks(0, &[0u8; 100]));
        // State was consumed by the failed attempt? No: failure leaves state.
        assert_eq!(c.state(), CardState::ReceiveData);
        assert!(!c.write_blocks(1023, &vec![0u8; 2 * BLOCK_SIZE]));
        assert!(c.write_blocks(1022, &vec![1u8; 2 * BLOCK_SIZE]));
    }
}
