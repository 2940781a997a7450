//! MMAL-style message encoding carried over the VCHIQ queue.
//!
//! Real VCHIQ/MMAL messages range from 28 to 306 bytes and come in tens of
//! types (§7.3.3). The model keeps the same shape — a fixed header followed
//! by a type-specific payload, padded to a 64-byte multiple in the slot —
//! while restricting the type population to what the camera path needs.

/// Camera resolutions the record campaign covers (Table 5/6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CameraResolution {
    /// 1280x720.
    R720p,
    /// 1920x1080.
    R1080p,
    /// 2560x1440.
    R1440p,
}

impl CameraResolution {
    /// Encode as the wire word used in PORT_SET_FORMAT.
    pub fn code(self) -> u32 {
        match self {
            CameraResolution::R720p => 720,
            CameraResolution::R1080p => 1080,
            CameraResolution::R1440p => 1440,
        }
    }

    /// Decode from the wire word.
    pub fn from_code(code: u32) -> Option<Self> {
        match code {
            720 => Some(CameraResolution::R720p),
            1080 => Some(CameraResolution::R1080p),
            1440 => Some(CameraResolution::R1440p),
            _ => None,
        }
    }

    /// Pixel dimensions.
    pub fn dims(self) -> (u32, u32) {
        match self {
            CameraResolution::R720p => (1280, 720),
            CameraResolution::R1080p => (1920, 1080),
            CameraResolution::R1440p => (2560, 1440),
        }
    }

    /// Megapixels scaled by 100 (for the cost model).
    pub fn megapixels_x100(self) -> u64 {
        let (w, h) = self.dims();
        u64::from(w) * u64::from(h) / 10_000
    }

    /// The encoded (JPEG) frame size VC4 produces at this resolution.
    ///
    /// Deterministic by design: the device FSM and the frame size depend only
    /// on the configured resolution, never on scene content — the
    /// data-independence prerequisite of §3.1.
    pub fn frame_bytes(self) -> u32 {
        match self {
            CameraResolution::R720p => 311_296,    // 304 KiB
            CameraResolution::R1080p => 622_592,   // 608 KiB
            CameraResolution::R1440p => 1_048_576, // 1 MiB
        }
    }

    /// All supported resolutions.
    pub fn all() -> [CameraResolution; 3] {
        [CameraResolution::R720p, CameraResolution::R1080p, CameraResolution::R1440p]
    }
}

/// Message types carried over the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum MsgType {
    /// CPU -> VC4 connection handshake.
    Connect = 1,
    /// VC4 -> CPU handshake acknowledgement.
    ConnectAck = 2,
    /// Open an MMAL service port (payload: fourcc).
    OpenService = 3,
    /// Service opened (payload: service handle).
    OpenServiceAck = 4,
    /// Create a component (payload: component name).
    ComponentCreate = 5,
    /// Component created (payload: component handle).
    ComponentCreateAck = 6,
    /// Set the capture port format (payload: resolution code).
    PortSetFormat = 7,
    /// Format accepted (payload: expected image size for this format).
    PortSetFormatAck = 8,
    /// Enable the capture port.
    PortEnable = 9,
    /// Port enabled.
    PortEnableAck = 10,
    /// Hand a host buffer to VC4 and trigger a capture
    /// (payload: page-list address, buffer size, expected image size).
    BufferFromHost = 11,
    /// Capture finished; the buffer now holds `img_size` bytes.
    BufferToHost = 12,
    /// Disable the capture port.
    PortDisable = 13,
    /// Port disabled.
    PortDisableAck = 14,
    /// Destroy the component.
    ComponentDestroy = 15,
    /// Component destroyed.
    ComponentDestroyAck = 16,
    /// VC4 signals a protocol error (payload: error code).
    Error = 255,
}

impl MsgType {
    /// Decode from the wire word.
    pub fn from_u32(v: u32) -> Option<MsgType> {
        use MsgType::*;
        Some(match v {
            1 => Connect,
            2 => ConnectAck,
            3 => OpenService,
            4 => OpenServiceAck,
            5 => ComponentCreate,
            6 => ComponentCreateAck,
            7 => PortSetFormat,
            8 => PortSetFormatAck,
            9 => PortEnable,
            10 => PortEnableAck,
            11 => BufferFromHost,
            12 => BufferToHost,
            13 => PortDisable,
            14 => PortDisableAck,
            15 => ComponentDestroy,
            16 => ComponentDestroyAck,
            255 => Error,
            _ => return None,
        })
    }
}

/// Message header size in bytes: type, service handle, payload length.
pub const HEADER_BYTES: usize = 12;
/// Messages are padded to this granularity inside a slot.
pub const MSG_ALIGN: usize = 64;
/// Maximum payload words a message can carry.
pub const MAX_PAYLOAD_WORDS: usize = 72;

/// A decoded VCHIQ/MMAL message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MmalMessage {
    /// Message type.
    pub mtype: MsgType,
    /// Service handle (0 before OpenServiceAck).
    pub service: u32,
    /// Payload words.
    pub payload: Vec<u32>,
}

impl MmalMessage {
    /// Construct a message.
    pub fn new(mtype: MsgType, service: u32, payload: Vec<u32>) -> Self {
        MmalMessage { mtype, service, payload }
    }

    /// Encoded length in bytes before slot padding.
    pub fn wire_len(&self) -> usize {
        HEADER_BYTES + self.payload.len() * 4
    }

    /// Encoded length in bytes after padding to [`MSG_ALIGN`].
    pub fn padded_len(&self) -> usize {
        self.wire_len().div_ceil(MSG_ALIGN) * MSG_ALIGN
    }

    /// Encode to wire words (header + payload). The caller writes these words
    /// into the slot area.
    pub fn encode(&self) -> Vec<u32> {
        let mut words = Vec::with_capacity(3 + self.payload.len());
        words.push(self.mtype as u32);
        words.push(self.service);
        words.push((self.payload.len() * 4) as u32);
        words.extend_from_slice(&self.payload);
        words
    }

    /// Decode from wire words.
    pub fn decode(words: &[u32]) -> Option<MmalMessage> {
        if words.len() < 3 {
            return None;
        }
        let mtype = MsgType::from_u32(words[0])?;
        let service = words[1];
        let payload_len = (words[2] as usize) / 4;
        if payload_len > MAX_PAYLOAD_WORDS || words.len() < 3 + payload_len {
            return None;
        }
        Some(MmalMessage { mtype, service, payload: words[3..3 + payload_len].to_vec() })
    }
}

/// Deterministic synthetic JPEG frame produced by the modelled ISP.
///
/// The content carries valid SOI/EOI markers so the paper's "captured images
/// are in the valid JPEG format" validation (§8.2.1) has something real to
/// check, and a frame counter + resolution tag so tests can verify that
/// distinct captures yield distinct images.
pub fn synth_jpeg(resolution: CameraResolution, frame_no: u32) -> Vec<u8> {
    let len = resolution.frame_bytes() as usize;
    let mut out = vec![0u8; len];
    // SOI marker.
    out[0] = 0xff;
    out[1] = 0xd8;
    // APP0 header carrying the frame number and resolution for validation.
    out[2] = 0xff;
    out[3] = 0xe0;
    out[4..8].copy_from_slice(&frame_no.to_le_bytes());
    out[8..12].copy_from_slice(&resolution.code().to_le_bytes());
    // Deterministic pseudo-random body (xorshift seeded by frame + resolution).
    let mut state =
        (u64::from(frame_no) << 32) ^ u64::from(resolution.code()) ^ 0x9e37_79b9_7f4a_7c15;
    let body = &mut out[12..len - 2];
    for chunk in body.chunks_mut(8) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let bytes = state.to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&bytes[..n]);
    }
    // Avoid accidental EOI markers in the body would be overkill; just ensure
    // the real EOI terminates the stream.
    out[len - 2] = 0xff;
    out[len - 1] = 0xd9;
    out
}

/// Check that a byte buffer looks like one of our synthetic JPEG frames.
pub fn is_valid_jpeg(data: &[u8]) -> bool {
    data.len() >= 4
        && data[0] == 0xff
        && data[1] == 0xd8
        && data[data.len() - 2] == 0xff
        && data[data.len() - 1] == 0xd9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_codes_round_trip() {
        for r in CameraResolution::all() {
            assert_eq!(CameraResolution::from_code(r.code()), Some(r));
        }
        assert_eq!(CameraResolution::from_code(480), None);
    }

    #[test]
    fn frame_sizes_grow_with_resolution() {
        assert!(CameraResolution::R720p.frame_bytes() < CameraResolution::R1080p.frame_bytes());
        assert!(CameraResolution::R1080p.frame_bytes() < CameraResolution::R1440p.frame_bytes());
        assert!(
            CameraResolution::R720p.megapixels_x100() < CameraResolution::R1440p.megapixels_x100()
        );
    }

    #[test]
    fn message_encode_decode_round_trip() {
        let m = MmalMessage::new(MsgType::BufferFromHost, 7, vec![0x1000, 2 << 20, 311_296]);
        let words = m.encode();
        let back = MmalMessage::decode(&words).unwrap();
        assert_eq!(back, m);
        assert_eq!(m.wire_len(), 12 + 12);
        assert_eq!(m.padded_len(), 64);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(MmalMessage::decode(&[]).is_none());
        assert!(MmalMessage::decode(&[999, 0, 0]).is_none());
        assert!(MmalMessage::decode(&[1, 0, 400]).is_none(), "payload longer than provided");
    }

    #[test]
    fn all_message_types_decode() {
        for v in [1u32, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 255] {
            assert!(MsgType::from_u32(v).is_some());
        }
        assert!(MsgType::from_u32(42).is_none());
    }

    #[test]
    fn synthetic_jpeg_is_well_formed_and_distinct() {
        let a = synth_jpeg(CameraResolution::R720p, 0);
        let b = synth_jpeg(CameraResolution::R720p, 1);
        assert_eq!(a.len(), CameraResolution::R720p.frame_bytes() as usize);
        assert!(is_valid_jpeg(&a));
        assert!(is_valid_jpeg(&b));
        assert_ne!(a, b, "frames with different numbers must differ");
        // Deterministic: the same frame number reproduces bit-for-bit.
        assert_eq!(a, synth_jpeg(CameraResolution::R720p, 0));
    }

    #[test]
    fn invalid_jpeg_is_detected() {
        assert!(!is_valid_jpeg(&[0, 1, 2, 3]));
        let mut good = synth_jpeg(CameraResolution::R720p, 3);
        let n = good.len();
        good[n - 1] = 0;
        assert!(!is_valid_jpeg(&good));
    }

    #[test]
    fn padded_len_is_a_multiple_of_the_alignment() {
        for payload_words in 0..40 {
            let m = MmalMessage::new(MsgType::Connect, 0, vec![0; payload_words]);
            assert_eq!(m.padded_len() % MSG_ALIGN, 0);
            assert!(m.padded_len() >= m.wire_len());
        }
    }
}
