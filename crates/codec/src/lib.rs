//! Binary-envelope primitives shared by every on-disk and on-wire
//! format in the workspace: how an untrusted byte slice is read.
//!
//! - [`crc32`], the one CRC-32/IEEE the shard format (`rte_eda::shard`),
//!   the frame format (`rte_net::frame`) and the checkpoint format
//!   (`rte_fed::checkpoint`) all checksum with.
//! - [`Reader`], the one bounds-checked little-endian cursor: every read
//!   past the end, and every length whose end overflows, is a typed
//!   [`CodecError::Truncated`] naming the field, never a panic. The
//!   `push_*` writers are its encoding side, and [`u32_words`] (behind
//!   [`Reader::f32s`]) its one word-stream decoder: no crate outside
//!   this one decodes little-endian bytes itself.
//! - [`crc_checked`] / [`push_crc`], a block that ends in the CRC-32 of
//!   the bytes before it (shard records, compressed frames and the v2
//!   chunk directory, the checkpoint state section).
//! - [`Envelope`], a CRC'd versioned header — magic, version, fixed
//!   fields, body length, header CRC — validated in one order: magic →
//!   header CRC → version → length cap. Frames and checkpoints are two
//!   instances; each maps [`CodecError`] into its own typed error.
//!
//! This leaf crate depends on nothing, so both `rte-eda` and `rte-net`
//! (which never see each other) can use it. It also holds
//! [`SplitMix64`], the seed-expanding generator that `rte_tensor::rng`
//! and `rte_net`'s clocks, chaos and retry streams share.

// Pure safe Rust; all workspace `unsafe` lives in `rte_tensor::simd`
// (rte-lint rule L1 enforces this).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Reflected CRC-32/IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing tables: `TABLES[0]` is the classic byte-at-a-time table;
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// sixteen lookups advance the register over sixteen input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                POLY ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32/IEEE of `bytes` (the zlib `crc32`: init `!0`, final xor `!0`).
///
/// Slicing-by-16: sixteen table lookups per 16-byte block, then a
/// bytewise tail for the last `len % 16` bytes. Only the block's first
/// four bytes meet the running CRC; the other twelve lookups are folded
/// first, so the loop-carried chain is one lookup and two XORs per block
/// instead of one lookup per byte. Same value as the bytewise loop on
/// every input (`tests::matches_the_bytewise_oracle`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let ahead = ((t[11][b[4] as usize] ^ t[10][b[5] as usize])
            ^ (t[9][b[6] as usize] ^ t[8][b[7] as usize]))
            ^ ((t[7][b[8] as usize] ^ t[6][b[9] as usize])
                ^ (t[5][b[10] as usize] ^ t[4][b[11] as usize]))
            ^ ((t[3][b[12] as usize] ^ t[2][b[13] as usize])
                ^ (t[1][b[14] as usize] ^ t[0][b[15] as usize]));
        let c = crc.to_le_bytes();
        crc = ((t[15][(b[0] ^ c[0]) as usize] ^ t[14][(b[1] ^ c[1]) as usize])
            ^ (t[13][(b[2] ^ c[2]) as usize] ^ t[12][(b[3] ^ c[3]) as usize]))
            ^ ahead;
    }
    for &byte in blocks.remainder() {
        crc = t[0][((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Why an untrusted byte slice did not decode. The format that read it
/// maps this into its own typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the named field was complete (or the
    /// field's end overflows `usize`).
    Truncated {
        /// What was being read (`"frame"`, `"masked update"`).
        what: &'static str,
        /// The field that was cut short.
        field: &'static str,
    },
    /// The first eight bytes are not the envelope's magic.
    BadMagic,
    /// The header checksum does not match the header bytes, so none of
    /// its fields can be trusted.
    HeaderCrc,
    /// The header claims a version this build does not read.
    UnsupportedVersion {
        /// The version the header claimed.
        got: u32,
    },
    /// The declared body length exceeds the envelope's cap.
    Oversize {
        /// The declared length.
        len: u64,
        /// The cap.
        max: u64,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { what, field } => write!(f, "truncated {what}: {field}"),
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::HeaderCrc => write!(f, "header checksum mismatch"),
            CodecError::UnsupportedVersion { got } => write!(f, "unsupported version {got}"),
            CodecError::Oversize { len, max } => {
                write!(f, "declared length {len} exceeds the {max}-byte cap")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Bounds-checked little-endian reader over a byte slice.
///
/// # Example
///
/// ```
/// use rte_codec::{push_u32, CodecError, Reader};
///
/// let mut bytes = Vec::new();
/// push_u32(&mut bytes, 7);
/// let mut r = Reader::new(&bytes, "greeting");
/// assert_eq!(r.u32("count"), Ok(7));
/// assert_eq!(
///     r.u8("flag"),
///     Err(CodecError::Truncated { what: "greeting", field: "flag" })
/// );
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`; `what` names the structure in
    /// its truncation errors.
    pub fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Reader {
            bytes,
            pos: 0,
            what,
        }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] naming `field` when fewer than `n`
    /// bytes remain.
    pub fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], CodecError> {
        let what = self.what;
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len());
        let end = end.ok_or(CodecError::Truncated { what, field })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], CodecError> {
        let bytes = self.take(N, field)?;
        Ok(bytes.try_into().expect("take returns N bytes"))
    }

    /// The next byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at the end of the input.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, field)?[0])
    }

    /// The next little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 2 bytes remain.
    pub fn u16(&mut self, field: &'static str) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array(field)?))
    }

    /// The next little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 4 bytes remain.
    pub fn u32(&mut self, field: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array(field)?))
    }

    /// The next little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 8 bytes remain.
    pub fn u64(&mut self, field: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array(field)?))
    }

    /// The next `f32`, from its little-endian bit pattern.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 4 bytes remain.
    pub fn f32(&mut self, field: &'static str) -> Result<f32, CodecError> {
        Ok(f32::from_bits(self.u32(field)?))
    }

    /// The next `n` `f32`s, from their little-endian bit patterns
    /// ([`u32_words`]), bounds checked once for all of them.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than `4 * n` bytes remain
    /// (or `4 * n` overflows).
    pub fn f32s(
        &mut self,
        n: usize,
        field: &'static str,
    ) -> Result<impl ExactSizeIterator<Item = f32> + 'a, CodecError> {
        // A saturated length is past the end of any input.
        let bytes = self.take(n.saturating_mul(4), field)?;
        Ok(u32_words(bytes).map(f32::from_bits))
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The bytes not yet read.
    pub fn rest(self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }
}

/// The little-endian `u32` words of `bytes`, in order: the one word
/// decoder behind every f32 plane and u32 word stream the formats carry.
/// The bytes are whole words (a partial last word is not read), so the
/// loop has no bounds branch per word.
#[inline]
pub fn u32_words(bytes: &[u8]) -> impl ExactSizeIterator<Item = u32> + '_ {
    debug_assert_eq!(bytes.len() % 4, 0, "whole words");
    bytes
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().expect("4-byte chunks")))
}

/// Appends `v` little-endian.
pub fn push_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
pub fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
pub fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends the CRC-32 of `buf[from..]`, sealing it as the block
/// [`crc_checked`] verifies.
pub fn push_crc(buf: &mut Vec<u8>, from: usize) {
    let crc = crc32(&buf[from..]);
    push_u32(buf, crc);
}

/// The body of a block that ends in the little-endian CRC-32 of the
/// bytes before it; `None` when the block is shorter than its CRC or
/// the CRC does not match.
pub fn crc_checked(block: &[u8]) -> Option<&[u8]> {
    let (body, crc) = block.split_at_checked(block.len().checked_sub(4)?)?;
    (crc32(body).to_le_bytes() == crc).then_some(body)
}

/// Width of an [`Envelope`]'s body-length field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LenField {
    /// A little-endian `u32`.
    U32,
    /// A little-endian `u64`.
    U64,
}

/// A CRC'd, versioned header in front of a body:
///
/// ```text
/// offset          size        field
///      0             8        magic
///      8             4        version (u32 LE)
///     12    fields_len        fixed fields (the format's own)
///      …        4 or 8        body length (LE), capped by max_len
///      …             4        header CRC-32 over every byte before it
/// ```
///
/// [`Envelope::open`] is the one validation: magic (is this the format
/// at all?), header CRC (can any field be trusted?), then version and
/// length cap on the now-trusted fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// The format's name in truncation errors.
    pub what: &'static str,
    /// The first eight bytes.
    pub magic: [u8; 8],
    /// The one version this build writes and reads.
    pub version: u32,
    /// Bytes of fixed fields between the version and the body length.
    pub fields_len: usize,
    /// Width of the body-length field.
    pub len_field: LenField,
    /// Cap on the declared body length, checked before anything is
    /// allocated from it.
    pub max_len: u64,
}

impl Envelope {
    /// Byte length of the header, header CRC included.
    pub const fn header_len(&self) -> usize {
        let len_bytes = match self.len_field {
            LenField::U32 => 4,
            LenField::U64 => 8,
        };
        12 + self.fields_len + len_bytes + 4
    }

    /// Appends a header claiming `version` for a body of `len` bytes;
    /// `fields` appends the fixed fields.
    ///
    /// # Errors
    ///
    /// [`CodecError::Oversize`] when `len` exceeds the cap, before
    /// anything is appended: an encoder must not emit what its own
    /// decoder rejects.
    ///
    /// # Panics
    ///
    /// When `fields` appends other than `fields_len` bytes.
    pub fn push_header(
        &self,
        out: &mut Vec<u8>,
        version: u32,
        len: u64,
        fields: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), CodecError> {
        self.check_len(len)?;
        let start = out.len();
        out.extend_from_slice(&self.magic);
        push_u32(out, version);
        fields(out);
        assert_eq!(out.len() - start, 12 + self.fields_len, "fixed field bytes");
        match self.len_field {
            LenField::U32 => push_u32(out, u32::try_from(len).expect("a u32 length's cap fits")),
            LenField::U64 => push_u64(out, len),
        }
        push_crc(out, start);
        Ok(())
    }

    /// Validates the header at the front of `bytes` — magic, header CRC,
    /// version, then the length cap — and returns a reader over its
    /// fixed fields and the declared body length.
    ///
    /// # Errors
    ///
    /// The first check that fails: [`CodecError::Truncated`] (`magic`
    /// under eight bytes, else `header` under
    /// [`Envelope::header_len`]), [`CodecError::BadMagic`],
    /// [`CodecError::HeaderCrc`], [`CodecError::UnsupportedVersion`],
    /// [`CodecError::Oversize`].
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<(Reader<'a>, u64), CodecError> {
        let mut r = Reader::new(bytes, self.what);
        if r.take(8, "magic")? != self.magic {
            return Err(CodecError::BadMagic);
        }
        let header = Reader::new(bytes, self.what).take(self.header_len(), "header")?;
        crc_checked(header).ok_or(CodecError::HeaderCrc)?;
        let version = r.u32("version")?;
        if version != self.version {
            return Err(CodecError::UnsupportedVersion { got: version });
        }
        let fields = r.take(self.fields_len, "fields")?;
        let len = match self.len_field {
            LenField::U32 => u64::from(r.u32("length")?),
            LenField::U64 => r.u64("length")?,
        };
        self.check_len(len)?;
        Ok((Reader::new(fields, self.what), len))
    }

    /// Refuses a body length over [`Envelope::max_len`], as
    /// [`Envelope::push_header`] and [`Envelope::open`] do.
    ///
    /// # Errors
    ///
    /// [`CodecError::Oversize`] for a length over the cap.
    pub fn check_len(&self, len: u64) -> Result<(), CodecError> {
        if len > self.max_len {
            return Err(CodecError::Oversize {
                len,
                max: self.max_len,
            });
        }
        Ok(())
    }
}

/// SplitMix64: seeds and derives the workspace's `Xoshiro256` streams,
/// and draws the async schedule, chaos and retry-jitter decisions.
///
/// # Example
///
/// ```
/// use rte_codec::SplitMix64;
///
/// let mut sm = SplitMix64::new(42);
/// let a = sm.next_u64();
/// let b = sm.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[lo, hi]` (inclusive; `lo` when the range is
    /// degenerate). Modulo bias is irrelevant here — these are latency
    /// *shapes* for a simulator, not statistics.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // Compare against the top 53 bits as a uniform in [0, 1).
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop every format used before the slicing
    /// tables: one lookup per byte, nothing to get wrong.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn matches_known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn every_short_length_matches_the_oracle() {
        // Every block/tail split around the first few 16-byte blocks.
        let bytes: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=bytes.len() {
            assert_eq!(crc32(&bytes[..len]), crc32_bytewise(&bytes[..len]));
        }
    }

    /// Every field of a five-field record, in order, with its width.
    const FIELDS: [(&str, usize); 5] = [
        ("tag", 1),
        ("port", 2),
        ("count", 4),
        ("stamp", 8),
        ("loss", 4),
    ];

    fn record() -> Vec<u8> {
        let mut bytes = vec![0xA5];
        push_u16(&mut bytes, 0xBEEF);
        push_u32(&mut bytes, 7);
        push_u64(&mut bytes, u64::MAX - 1);
        push_u32(&mut bytes, 0.625f32.to_bits());
        bytes
    }

    fn read_record(r: &mut Reader<'_>) -> Result<(u8, u16, u32, u64, f32), CodecError> {
        Ok((
            r.u8("tag")?,
            r.u16("port")?,
            r.u32("count")?,
            r.u64("stamp")?,
            r.f32("loss")?,
        ))
    }

    #[test]
    fn reader_round_trips_the_writers() {
        let bytes = record();
        let mut r = Reader::new(&bytes, "record");
        assert_eq!(
            read_record(&mut r),
            Ok((0xA5, 0xBEEF, 7, u64::MAX - 1, 0.625))
        );
        assert_eq!(r.pos(), bytes.len());
        assert!(r.rest().is_empty());
    }

    /// A cut anywhere inside field `k` is a truncation naming field `k`,
    /// whatever the fields before it read.
    #[test]
    fn truncation_at_every_length_names_the_field() {
        let bytes = record();
        let mut end = 0;
        for (field, width) in FIELDS {
            for cut in end..end + width {
                let mut r = Reader::new(&bytes[..cut], "record");
                assert_eq!(
                    read_record(&mut r),
                    Err(CodecError::Truncated {
                        what: "record",
                        field
                    }),
                    "cut at {cut}"
                );
            }
            end += width;
        }
        assert_eq!(end, bytes.len());
    }

    #[test]
    fn a_length_whose_end_overflows_is_a_truncation() {
        let bytes = record();
        let mut r = Reader::new(&bytes, "record");
        r.u8("tag").unwrap();
        assert_eq!(
            r.take(usize::MAX, "name"),
            Err(CodecError::Truncated {
                what: "record",
                field: "name"
            })
        );
        // The failed take consumed nothing.
        assert_eq!(r.u16("port"), Ok(0xBEEF));
    }

    #[test]
    fn crc_checked_blocks() {
        let mut block = b"payload".to_vec();
        push_crc(&mut block, 0);
        assert_eq!(crc_checked(&block), Some(&b"payload"[..]));
        let mut hurt = block.clone();
        hurt[2] ^= 0x10;
        assert_eq!(crc_checked(&hurt), None);
        assert_eq!(crc_checked(&block[..3]), None);
        // An empty body's block is its CRC alone.
        let mut empty = Vec::new();
        push_crc(&mut empty, 0);
        assert_eq!(crc_checked(&empty), Some(&[][..]));
    }

    const TEST_ENVELOPE: Envelope = Envelope {
        what: "test",
        magic: *b"RTETEST\0",
        version: 3,
        fields_len: 2,
        len_field: LenField::U32,
        max_len: 1000,
    };

    /// A header of [`TEST_ENVELOPE`] claiming `version` and `len`, built
    /// by hand so the encoder's cap check does not stand in the way.
    fn header(version: u32, len: u32) -> Vec<u8> {
        let mut out = TEST_ENVELOPE.magic.to_vec();
        push_u32(&mut out, version);
        out.extend_from_slice(&[0x11, 0x22]);
        push_u32(&mut out, len);
        push_crc(&mut out, 0);
        out
    }

    #[test]
    fn envelope_round_trips_its_header() {
        let mut out = vec![0xFF]; // a header need not start the buffer
        TEST_ENVELOPE
            .push_header(&mut out, 3, 999, |out| out.extend_from_slice(&[0x11, 0x22]))
            .unwrap();
        assert_eq!(out.len(), 1 + TEST_ENVELOPE.header_len());
        assert_eq!(out[1..], header(3, 999));
        let (mut fields, len) = TEST_ENVELOPE.open(&out[1..]).unwrap();
        assert_eq!(len, 999);
        assert_eq!(fields.u16("pair"), Ok(0x2211));
        assert!(fields.rest().is_empty());
        assert_eq!(
            TEST_ENVELOPE.push_header(&mut out, 3, 1001, |_| {}),
            Err(CodecError::Oversize {
                len: 1001,
                max: 1000
            })
        );
    }

    #[test]
    fn envelope_checks_magic_then_crc_then_version_then_cap() {
        let good = header(3, 10);
        let crc_at = TEST_ENVELOPE.header_len() - 4;
        // Bad magic and a bad CRC together: the magic is looked at first.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        bad[crc_at] ^= 0xFF;
        assert_eq!(TEST_ENVELOPE.open(&bad).unwrap_err(), CodecError::BadMagic);
        // A bad version without a fresh CRC is CRC damage: the version
        // field cannot be trusted.
        let mut bad = good.clone();
        bad[8] ^= 0x01;
        assert_eq!(TEST_ENVELOPE.open(&bad).unwrap_err(), CodecError::HeaderCrc);
        // Re-CRC'd, the version speaks.
        assert_eq!(
            TEST_ENVELOPE.open(&header(4, 10)).unwrap_err(),
            CodecError::UnsupportedVersion { got: 4 }
        );
        // Re-CRC'd, an over-cap length is refused.
        assert_eq!(
            TEST_ENVELOPE.open(&header(3, 1001)).unwrap_err(),
            CodecError::Oversize {
                len: 1001,
                max: 1000
            }
        );
        // Short input: under eight bytes the magic is cut, past it the
        // magic is checked before the header is.
        for cut in 0..good.len() {
            let field = if cut < 8 { "magic" } else { "header" };
            assert_eq!(
                TEST_ENVELOPE.open(&good[..cut]).unwrap_err(),
                CodecError::Truncated {
                    what: "test",
                    field
                },
                "cut at {cut}"
            );
        }
        let mut short = good[..10].to_vec();
        short[0] ^= 0xFF;
        assert_eq!(
            TEST_ENVELOPE.open(&short).unwrap_err(),
            CodecError::BadMagic
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random contents, random lengths 0..=4096, and every start
        /// offset 0..16 into the backing buffer — so block boundaries
        /// land on every alignment (unaligned heads) and every tail
        /// length 0..16 occurs.
        #[test]
        fn matches_the_bytewise_oracle(
            words in collection::vec(any::<u32>(), 1028),
            len in 0usize..4097,
        ) {
            // 4096 + 16 random bytes: room for the longest slice at the
            // last offset.
            let buffer: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            for offset in 0..16 {
                let slice = &buffer[offset..offset + len];
                prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
            }
        }
    }
}
