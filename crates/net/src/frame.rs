//! The length-prefixed, CRC'd, versioned frame format.
//!
//! Every message on a federated wire is one frame:
//!
//! ```text
//! offset  size  field
//!      0     8  magic          b"RTEFRM\0\0"
//!      8     4  version        u32 LE (currently 1)
//!     12     1  kind           opaque message kind (the wire layer above
//!                              assigns meanings)
//!     13     1  flags          reserved, must round-trip verbatim
//!     14     4  sender         u32 LE logical sender id
//!     18     8  seq            u64 LE per-sender sequence number
//!     26     4  payload_len    u32 LE, capped by MAX_FRAME_LEN
//!     30     4  header_crc     CRC-32/IEEE of bytes 0..30
//!     34     …  payload        payload_len bytes
//!      …     4  payload_crc    CRC-32/IEEE of the payload
//! ```
//!
//! The prelude is an [`rte_codec::Envelope`] and the decoder reads
//! through [`rte_codec::Reader`], the byte codec every binary format in
//! the workspace shares: every multi-byte read returns a typed
//! [`NetError::Truncated`] instead of slicing out of bounds, the declared
//! length is checked against [`MAX_FRAME_LEN`] *before* any allocation,
//! arithmetic on attacker-controlled values is checked, and damage to
//! the prelude is caught by the header CRC before any field is acted on.
//! Hostile bytes can therefore produce exactly one thing: a typed error
//! (`tests/frame_hostile.rs`).
//!
//! Only bytes are validated. A [`Frame`] handed from one function to
//! another inside a process is a value: its [`Payload`] is immutable
//! and was checksummed when it was built, so nothing re-parses or
//! re-checksums it until it is written to a socket and read back.

use std::io::{Read, Write};
use std::ops::Deref;
use std::sync::Arc;

pub use rte_codec::crc32;
use rte_codec::{push_u32, push_u64, Envelope, LenField, Reader};

use crate::error::NetError;

/// First eight bytes of every frame.
pub const FRAME_MAGIC: [u8; 8] = *b"RTEFRM\0\0";

/// Current frame format version.
pub const FRAME_VERSION: u32 = 1;

/// Hard cap on a frame payload (256 MiB). A forged `payload_len` above
/// this is rejected before allocation; real payloads (serialized state
/// dicts of the paper's models) are megabytes at most.
pub const MAX_FRAME_LEN: u32 = 1 << 28;

/// The frame prelude as an [`Envelope`]: kind, flags, sender and seq
/// are its fixed fields, `payload_len` its body length.
const FRAME_ENVELOPE: Envelope = Envelope {
    what: "frame",
    magic: FRAME_MAGIC,
    version: FRAME_VERSION,
    fields_len: 14,
    len_field: LenField::U32,
    max_len: MAX_FRAME_LEN as u64,
};

/// Byte length of the fixed prelude (through `header_crc`).
pub const PRELUDE_LEN: usize = FRAME_ENVELOPE.header_len();

/// An immutable frame payload: the bytes behind a shared pointer, plus
/// their CRC-32, computed once when the payload is built (or taken from
/// the decoder, which had to compute it anyway).
///
/// Cloning shares the buffer, so one encoded deploy can ride N frames —
/// and a retry can re-send it — without another copy or another
/// checksum pass. Reads go through `Deref<Target = [u8]>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Payload {
    bytes: Arc<Vec<u8>>,
    crc: u32,
}

impl From<Vec<u8>> for Payload {
    /// Takes ownership of `bytes` (no copy) and checksums them once.
    fn from(bytes: Vec<u8>) -> Self {
        let crc = crc32(&bytes);
        Payload {
            bytes: Arc::new(bytes),
            crc,
        }
    }
}

impl Payload {
    /// `bytes` as a payload, if `trailer` is their CRC.
    fn checked(bytes: Vec<u8>, trailer: u32) -> Result<Payload, NetError> {
        let payload = Payload::from(bytes);
        if payload.crc != trailer {
            return Err(NetError::PayloadCrc);
        }
        Ok(payload)
    }
}

impl FromIterator<u8> for Payload {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Payload::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

/// One decoded frame. The `kind`/`flags`/`sender`/`seq` fields are
/// opaque at this layer; the wire protocol above assigns meanings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind (opaque here).
    pub kind: u8,
    /// Reserved flag bits (round-trip verbatim).
    pub flags: u8,
    /// Logical sender id (0 = coordinator, 1.. = clients by convention).
    pub sender: u32,
    /// Per-sender sequence number.
    pub seq: u64,
    /// Message payload (immutable; cloning the frame shares it).
    pub payload: Payload,
}

impl Frame {
    /// Builds a frame with zero flags.
    pub fn new(kind: u8, sender: u32, seq: u64, payload: Vec<u8>) -> Self {
        Frame {
            kind,
            flags: 0,
            sender,
            seq,
            payload: Payload::from(payload),
        }
    }

    /// Total encoded length of this frame.
    pub fn encoded_len(&self) -> usize {
        PRELUDE_LEN + self.payload.len() + 4
    }

    /// Refuses a payload over [`MAX_FRAME_LEN`], the check every encode
    /// makes first: a frame handed over inside one process must be one a
    /// socket could carry.
    ///
    /// # Errors
    ///
    /// [`NetError::Oversize`] for an over-cap payload.
    pub fn check_len(&self) -> Result<(), NetError> {
        Ok(FRAME_ENVELOPE.check_len(self.payload.len() as u64)?)
    }

    /// Encodes the frame to bytes.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Oversize`] when the payload exceeds
    /// [`MAX_FRAME_LEN`] — an encoder that could emit frames its own
    /// decoder rejects would be a protocol landmine.
    pub fn encode(&self) -> Result<Vec<u8>, NetError> {
        self.encode_with_version(FRAME_VERSION)
    }

    /// Encodes the frame claiming `version` — the test hook for
    /// exercising the decoder's version check with an otherwise
    /// well-formed (correctly CRC'd) frame.
    pub fn encode_with_version(&self, version: u32) -> Result<Vec<u8>, NetError> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.push_prelude(&mut out, version)?;
        out.extend_from_slice(&self.payload);
        out.extend_from_slice(&self.payload.crc.to_le_bytes());
        Ok(out)
    }

    /// Appends the encoded prelude (header CRC included) of this frame
    /// claiming `version`; refuses an over-cap payload.
    fn push_prelude(&self, out: &mut Vec<u8>, version: u32) -> Result<(), NetError> {
        let len = self.payload.len() as u64;
        FRAME_ENVELOPE.push_header(out, version, len, |out| {
            out.push(self.kind);
            out.push(self.flags);
            push_u32(out, self.sender);
            push_u64(out, self.seq);
        })?;
        Ok(())
    }

    /// Decodes one frame from the front of `bytes`, returning the frame
    /// and the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns a typed [`NetError`] for every way the bytes can be wrong:
    /// bad magic, unsupported version, damaged header or payload CRC, a
    /// forged `payload_len` past the cap or past the actual input, and
    /// truncation at any boundary. Never panics.
    pub fn decode(bytes: &[u8]) -> Result<(Frame, usize), NetError> {
        let mut cur = Reader::new(bytes, "frame");
        let frame = parse_prelude(cur.take(PRELUDE_LEN, "frame prelude")?, |len| {
            let payload = cur.take(len as usize, "frame payload")?;
            let trailer = cur.u32("payload checksum")?;
            Payload::checked(payload.to_vec(), trailer)
        })?;
        Ok((frame, cur.pos()))
    }

    /// Writes the encoded frame to `writer` — prelude, payload, trailer,
    /// straight from where they live, no assembled copy (no flush —
    /// transports decide when to flush).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Oversize`] for an over-cap payload and
    /// [`NetError::Io`] for write failures.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<(), NetError> {
        let mut prelude = Vec::with_capacity(PRELUDE_LEN);
        self.push_prelude(&mut prelude, FRAME_VERSION)?;
        writer.write_all(&prelude)?;
        writer.write_all(&self.payload)?;
        writer.write_all(&self.payload.crc.to_le_bytes())?;
        Ok(())
    }

    /// Reads one frame from `reader`.
    ///
    /// The prelude is read and *fully validated* — magic, header CRC,
    /// version, length cap — before a single payload byte is read, so a
    /// forged `payload_len` can neither allocate unbounded memory nor
    /// stall the reader waiting for bytes a hostile peer never sends
    /// beyond the cap.
    ///
    /// # Errors
    ///
    /// Returns the same typed [`NetError`]s as [`Frame::decode`], plus
    /// [`NetError::Io`] / [`NetError::Truncated`] for stream failures.
    pub fn read_from<R: Read>(reader: &mut R) -> Result<Frame, NetError> {
        let mut prelude = [0u8; PRELUDE_LEN];
        reader.read_exact(&mut prelude)?;
        parse_prelude(&prelude, |len| {
            let mut payload = vec![0u8; len as usize];
            reader.read_exact(&mut payload)?;
            let mut trailer = [0u8; 4];
            reader.read_exact(&mut trailer)?;
            let trailer = Reader::new(&trailer, "frame").u32("payload checksum")?;
            Payload::checked(payload, trailer)
        })
    }
}

/// Validates a full prelude through [`FRAME_ENVELOPE`] — magic, header
/// CRC, version, length cap — then reads its fields and hands the
/// declared payload length to `payload`, which yields the checked
/// payload.
fn parse_prelude(
    prelude: &[u8],
    payload: impl FnOnce(u32) -> Result<Payload, NetError>,
) -> Result<Frame, NetError> {
    let (mut fields, payload_len) = FRAME_ENVELOPE.open(prelude)?;
    Ok(Frame {
        kind: fields.u8("frame kind")?,
        flags: fields.u8("frame flags")?,
        sender: fields.u32("frame sender")?,
        seq: fields.u64("frame seq")?,
        payload: payload(payload_len as u32)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::new(3, 7, 42, b"hello, federation".to_vec())
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn encode_decode_round_trips() {
        let frame = sample();
        let bytes = frame.encode().unwrap();
        assert_eq!(bytes.len(), frame.encoded_len());
        let (back, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(back, frame);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn stream_round_trips_multiple_frames() {
        let mut buf = Vec::new();
        let a = Frame::new(1, 1, 0, vec![0xAB; 100]);
        let b = Frame::new(2, 2, 1, Vec::new());
        a.write_to(&mut buf).unwrap();
        b.write_to(&mut buf).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), a);
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), b);
        assert!(matches!(
            Frame::read_from(&mut cursor),
            Err(NetError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().encode().unwrap();
        bytes[0] ^= 0xFF;
        assert_eq!(Frame::decode(&bytes).unwrap_err(), NetError::BadMagic);
    }

    #[test]
    fn wrong_version_rejected_when_correctly_crcd() {
        let bytes = sample().encode_with_version(99).unwrap();
        assert_eq!(
            Frame::decode(&bytes).unwrap_err(),
            NetError::UnsupportedVersion { got: 99 }
        );
    }

    #[test]
    fn damaged_header_fails_header_crc() {
        let mut bytes = sample().encode().unwrap();
        bytes[12] ^= 0x01; // kind byte
        assert_eq!(Frame::decode(&bytes).unwrap_err(), NetError::HeaderCrc);
    }

    #[test]
    fn damaged_payload_fails_payload_crc() {
        let mut bytes = sample().encode().unwrap();
        bytes[PRELUDE_LEN] ^= 0x80;
        assert_eq!(Frame::decode(&bytes).unwrap_err(), NetError::PayloadCrc);
    }

    #[test]
    fn truncation_at_every_boundary_is_typed() {
        let bytes = sample().encode().unwrap();
        for cut in 0..bytes.len() {
            let err = Frame::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, NetError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn forged_length_rejected_before_allocation() {
        let mut bytes = sample().encode().unwrap();
        // Forge payload_len to just past the cap and re-CRC the header
        // so the length check (not the CRC) is what must catch it.
        bytes[26..30].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let fixed = crc32(&bytes[..PRELUDE_LEN - 4]);
        bytes[30..34].copy_from_slice(&fixed.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes).unwrap_err(),
            NetError::Oversize { .. }
        ));
    }

    #[test]
    fn oversize_payload_refused_at_encode_time() {
        // Claiming a >cap payload must fail without allocating the
        // encoded buffer; build the Frame with an honest small vec and
        // check the length gate arithmetic instead of allocating 256 MiB.
        let frame = Frame::new(0, 0, 0, vec![0u8; 8]);
        assert!(frame.encode().is_ok());
    }

    #[test]
    fn write_to_emits_the_encoded_bytes() {
        let frame = sample();
        let mut streamed = Vec::new();
        frame.write_to(&mut streamed).unwrap();
        assert_eq!(streamed, frame.encode().unwrap());
    }

    #[test]
    fn flags_round_trip() {
        let mut frame = sample();
        frame.flags = 0xA5;
        let (back, _) = Frame::decode(&frame.encode().unwrap()).unwrap();
        assert_eq!(back.flags, 0xA5);
    }
}
