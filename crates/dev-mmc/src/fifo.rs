//! The data FIFO link shared by the SDHOST controller and the DMA engine.
//!
//! On the real SoC the DMA engine issues reads/writes against the SDDATA
//! register using the DREQ handshake. In the simulation the controller owns
//! this byte FIFO and fills it with card data (reads) or drains it into the
//! card (writes); the DMA engine borrows it to move bytes between the FIFO
//! and physical memory according to its control blocks.

use std::collections::VecDeque;

/// Direction of the transfer currently owning the FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FifoDir {
    /// No transfer in flight.
    Idle,
    /// Card -> host (a read command).
    CardToHost,
    /// Host -> card (a write command).
    HostToCard,
}

/// The data FIFO.
#[derive(Debug)]
pub struct FifoLink {
    buf: VecDeque<u8>,
    dir: FifoDir,
    /// Virtual time at which data in the FIFO becomes valid (models the card
    /// access latency of the in-flight command).
    ready_ns: u64,
    /// Total bytes that have passed through, for statistics.
    bytes_moved: u64,
}

impl Default for FifoLink {
    fn default() -> Self {
        Self::new()
    }
}

impl FifoLink {
    /// An empty, idle FIFO.
    pub fn new() -> Self {
        FifoLink { buf: VecDeque::new(), dir: FifoDir::Idle, ready_ns: 0, bytes_moved: 0 }
    }

    /// Current direction.
    pub fn dir(&self) -> FifoDir {
        self.dir
    }

    /// Begin a transfer in `dir`; any stale bytes are discarded.
    pub fn begin(&mut self, dir: FifoDir, ready_ns: u64) {
        self.buf.clear();
        self.dir = dir;
        self.ready_ns = ready_ns;
    }

    /// End the transfer and return to idle, discarding residual bytes.
    ///
    /// Returns the number of residual bytes discarded — a non-zero value is
    /// exactly the "residual state left from prior IO jobs" divergence source
    /// the paper lists in §3.3.
    pub fn finish(&mut self) -> usize {
        let residual = self.buf.len();
        self.buf.clear();
        self.dir = FifoDir::Idle;
        residual
    }

    /// Whether data queued for a read is valid at `now_ns`.
    pub fn data_ready(&self, now_ns: u64) -> bool {
        now_ns >= self.ready_ns
    }

    /// Virtual time at which queued data becomes valid.
    pub fn ready_at(&self) -> u64 {
        self.ready_ns
    }

    /// Number of bytes currently queued.
    pub fn level(&self) -> usize {
        self.buf.len()
    }

    /// Number of 32-bit words currently queued (for the SDEDM FIFO field).
    pub fn level_words(&self) -> usize {
        self.buf.len() / 4
    }

    /// Queue bytes (card data on reads, DMA/PIO data on writes).
    pub fn push_bytes(&mut self, data: &[u8]) {
        self.buf.extend(data);
        self.bytes_moved += data.len() as u64;
    }

    /// Queue one little-endian word.
    pub fn push_word(&mut self, word: u32) {
        self.push_bytes(&word.to_le_bytes());
    }

    /// Dequeue up to `out.len()` bytes into `out` without allocating (the
    /// DMA engine's hot path). Returns the number of bytes dequeued.
    pub fn pop_into(&mut self, out: &mut [u8]) -> usize {
        let take = out.len().min(self.buf.len());
        let (a, b) = self.buf.as_slices();
        let na = take.min(a.len());
        out[..na].copy_from_slice(&a[..na]);
        if take > na {
            out[na..take].copy_from_slice(&b[..take - na]);
        }
        self.buf.drain(..take);
        take
    }

    /// Dequeue up to `n` bytes, lending them to `f` as one contiguous slice
    /// of the FIFO's own storage (the write commit's path into the card).
    pub fn pop_contiguous<R>(&mut self, n: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        let take = n.min(self.buf.len());
        let out = f(&self.buf.make_contiguous()[..take]);
        self.buf.drain(..take);
        out
    }

    /// Dequeue one little-endian word (missing bytes read as zero, which is
    /// what an underrun looks like to software on the real part).
    pub fn pop_word(&mut self) -> u32 {
        let mut w = [0u8; 4];
        self.pop_into(&mut w);
        u32::from_le_bytes(w)
    }

    /// Total bytes ever pushed through the FIFO.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_finish_lifecycle() {
        let mut f = FifoLink::new();
        assert_eq!(f.dir(), FifoDir::Idle);
        f.begin(FifoDir::CardToHost, 500);
        assert_eq!(f.dir(), FifoDir::CardToHost);
        assert!(!f.data_ready(499));
        assert!(f.data_ready(500));
        f.push_bytes(&[1, 2, 3, 4]);
        assert_eq!(f.finish(), 4, "residual bytes are reported");
        assert_eq!(f.dir(), FifoDir::Idle);
        assert_eq!(f.level(), 0);
    }

    #[test]
    fn word_round_trip_is_little_endian() {
        let mut f = FifoLink::new();
        f.push_word(0xdead_beef);
        assert_eq!(f.level_words(), 1);
        assert_eq!(f.pop_word(), 0xdead_beef);
    }

    #[test]
    fn underrun_reads_zero_padded() {
        let mut f = FifoLink::new();
        f.push_bytes(&[0xaa, 0xbb]);
        assert_eq!(f.pop_word(), 0x0000_bbaa);
        assert_eq!(f.pop_word(), 0);
    }

    #[test]
    fn pop_contiguous_never_exceeds_level() {
        let mut f = FifoLink::new();
        f.push_bytes(&[1, 2, 3]);
        assert_eq!(f.pop_contiguous(2, |d| d.to_vec()), vec![1, 2]);
        assert_eq!(f.pop_contiguous(10, |d| d.to_vec()), vec![3]);
        assert_eq!(f.level(), 0);
    }

    #[test]
    fn begin_discards_stale_bytes() {
        let mut f = FifoLink::new();
        f.push_bytes(&[9; 12]);
        f.begin(FifoDir::HostToCard, 0);
        assert_eq!(f.level(), 0);
    }

    #[test]
    fn statistics_accumulate() {
        let mut f = FifoLink::new();
        f.push_bytes(&[0; 100]);
        f.pop_contiguous(50, |_| ());
        f.push_bytes(&[0; 28]);
        assert_eq!(f.bytes_moved(), 128);
    }
}
