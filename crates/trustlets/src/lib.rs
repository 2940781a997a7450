//! # dlt-trustlets — example trusted applications built on driverlets
//!
//! The paper's motivation (§2.1) and end-to-end use case (§8.4): trustlets
//! that perform secure IO without ever leaving the TEE. Each trustlet here is
//! deliberately tiny — the surveillance TA of Figure 8 is ~50 lines in the
//! paper and stays in that ballpark here — because the driverlet replayer
//! does all the device work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dlt_core::{replay_cam, replay_mmc, Replayer, SecureBlockIo};
use dlt_dev_vchiq::msg::is_valid_jpeg;

/// Errors surfaced by the example trustlets.
#[derive(Debug, Clone)]
pub enum TrustletError {
    /// The driverlet replay failed.
    Replay(String),
    /// The requested item does not exist.
    NotFound,
    /// The stored data failed an integrity check.
    Corrupt(String),
}

impl std::fmt::Display for TrustletError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrustletError::Replay(s) => write!(f, "replay failed: {s}"),
            TrustletError::NotFound => write!(f, "not found"),
            TrustletError::Corrupt(s) => write!(f, "stored data corrupt: {s}"),
        }
    }
}

impl std::error::Error for TrustletError {}

/// A secure credential store: fixed-size slots on the TEE-owned SD card.
///
/// Each credential occupies one 512-byte block: a 16-byte header (magic,
/// length, checksum) followed by the secret. The OS never sees the data —
/// it cannot even reach the controller (TZASC).
///
/// The store is written against [`SecureBlockIo`], so it runs identically
/// over an exclusively-owned [`Replayer`] (the paper's deployment) or a
/// `dlt-serve` session handle sharing the device with other trustlets.
pub struct CredentialStore {
    /// First block of the store's on-card region.
    pub base_block: u32,
    /// Number of credential slots.
    pub slots: u32,
}

const CRED_MAGIC: u32 = 0x4352_4544; // "CRED"

fn checksum(data: &[u8]) -> u32 {
    data.iter().fold(0x811c_9dc5u32, |h, b| (h ^ u32::from(*b)).wrapping_mul(0x0100_0193))
}

impl CredentialStore {
    /// Create a store descriptor.
    pub fn new(base_block: u32, slots: u32) -> Self {
        CredentialStore { base_block, slots }
    }

    /// Store a credential in `slot` through any secure block handle.
    pub fn store<B: SecureBlockIo>(
        &self,
        io: &mut B,
        slot: u32,
        secret: &[u8],
    ) -> Result<(), TrustletError> {
        assert!(slot < self.slots, "slot out of range");
        let mut block = vec![0u8; 512];
        let len = secret.len().min(512 - 16);
        block[0..4].copy_from_slice(&CRED_MAGIC.to_le_bytes());
        block[4..8].copy_from_slice(&(len as u32).to_le_bytes());
        block[8..12].copy_from_slice(&checksum(&secret[..len]).to_le_bytes());
        block[16..16 + len].copy_from_slice(&secret[..len]);
        io.write_blocks(self.base_block + slot, &block)
            .map_err(|e| TrustletError::Replay(e.to_string()))?;
        Ok(())
    }

    /// Load the credential from `slot` through any secure block handle.
    pub fn load<B: SecureBlockIo>(&self, io: &mut B, slot: u32) -> Result<Vec<u8>, TrustletError> {
        assert!(slot < self.slots, "slot out of range");
        let mut block = vec![0u8; 512];
        io.read_blocks(self.base_block + slot, 1, &mut block)
            .map_err(|e| TrustletError::Replay(e.to_string()))?;
        if u32::from_le_bytes([block[0], block[1], block[2], block[3]]) != CRED_MAGIC {
            return Err(TrustletError::NotFound);
        }
        let len = u32::from_le_bytes([block[4], block[5], block[6], block[7]]) as usize;
        let stored_sum = u32::from_le_bytes([block[8], block[9], block[10], block[11]]);
        let secret = block[16..16 + len.min(512 - 16)].to_vec();
        if checksum(&secret) != stored_sum {
            return Err(TrustletError::Corrupt("credential checksum mismatch".into()));
        }
        Ok(secret)
    }
}

/// The trusted-perception trustlet of Figure 8: periodically capture a frame
/// from the TEE-owned camera and store it on the TEE-owned SD card in
/// 256-block chunks.
pub struct SurveillanceTrustlet {
    /// Resolution code to capture at.
    pub resolution: u32,
    /// First block of the on-card frame log.
    pub log_base_block: u32,
    frames_stored: u32,
}

/// Result of storing one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredFrame {
    /// First block of the frame on the card.
    pub first_block: u32,
    /// Image size in bytes.
    pub img_size: u32,
    /// Blocks occupied (rounded up to 256-block chunks).
    pub blocks: u32,
}

impl SurveillanceTrustlet {
    /// Create the trustlet.
    pub fn new(resolution: u32, log_base_block: u32) -> Self {
        SurveillanceTrustlet { resolution, log_base_block, frames_stored: 0 }
    }

    /// Number of frames stored so far.
    pub fn frames_stored(&self) -> u32 {
        self.frames_stored
    }

    /// Capture one frame and store it (the paper's Figure 8 loop body:
    /// `replay_cam` then `replay_mmc` in 256-block chunks).
    pub fn capture_and_store(
        &mut self,
        replayer: &mut Replayer,
    ) -> Result<StoredFrame, TrustletError> {
        let buf_size = 2 << 20;
        let mut img = vec![0u8; buf_size];
        // Capture one image at the configured resolution.
        let size = replay_cam(replayer, 1, self.resolution, &mut img)
            .map_err(|e| TrustletError::Replay(e.to_string()))?;
        if !is_valid_jpeg(&img[..size as usize]) {
            return Err(TrustletError::Corrupt("captured frame is not a valid JPEG".into()));
        }
        // Store the image in 256-block chunks starting at the next free slot.
        const CHUNK_BLOCKS: u32 = 256;
        const CHUNK_BYTES: usize = CHUNK_BLOCKS as usize * 512;
        let chunks = (size as usize).div_ceil(CHUNK_BYTES) as u32;
        let first_block = self.log_base_block + self.frames_stored * chunks.max(1) * CHUNK_BLOCKS;
        for i in 0..chunks {
            let start = (i as usize) * CHUNK_BYTES;
            let mut chunk = vec![0u8; CHUNK_BYTES];
            let n = (size as usize - start).min(CHUNK_BYTES);
            chunk[..n].copy_from_slice(&img[start..start + n]);
            replay_mmc(replayer, 0x10, CHUNK_BLOCKS, first_block + i * CHUNK_BLOCKS, 0, &mut chunk)
                .map_err(|e| TrustletError::Replay(e.to_string()))?;
        }
        self.frames_stored += 1;
        Ok(StoredFrame { first_block, img_size: size, blocks: chunks * CHUNK_BLOCKS })
    }

    /// Read a stored frame back from the card and verify it is a JPEG.
    pub fn verify_stored(
        &self,
        replayer: &mut Replayer,
        frame: StoredFrame,
    ) -> Result<Vec<u8>, TrustletError> {
        let mut out = vec![0u8; frame.blocks as usize * 512];
        let mut read = 0u32;
        while read < frame.blocks {
            let chunk = 256.min(frame.blocks - read);
            let start = read as usize * 512;
            let end = (read + chunk) as usize * 512;
            replay_mmc(replayer, 0x1, chunk, frame.first_block + read, 0, &mut out[start..end])
                .map_err(|e| TrustletError::Replay(e.to_string()))?;
            read += chunk;
        }
        out.truncate(frame.img_size as usize);
        if !is_valid_jpeg(&out) {
            return Err(TrustletError::Corrupt("stored frame is not a valid JPEG".into()));
        }
        Ok(out)
    }
}
