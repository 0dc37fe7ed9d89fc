//! Streaming binary corpus shards — the out-of-core data substrate.
//!
//! The paper's clients train on placement corpora that in a real
//! deployment far exceed any single machine's memory; this module stores
//! a generated corpus as one **shard file per `(client, split)`** so
//! training and evaluation can stream bounded-memory chunks instead of
//! materializing every tensor up front:
//!
//! - [`ShardWriter`] / [`ShardReader`] — one shard file: a versioned,
//!   CRC'd header carrying full provenance (master seed, client, split,
//!   family, grid, placement scale, design-name table) followed by
//!   **fixed-size sample records**, so record `i` lives at a computable
//!   offset and any chunk is one read away. The reader serves its bytes
//!   from one of two stores, the file (`seek` + `read`) or a read-only
//!   memory map of it ([`ShardReader::mapped`]); open, validation and
//!   decoding are written once, so both stores return the same bits and
//!   reject damage alike.
//! - [`CorpusWriter`] — generates the Table 2 corpus *directly into
//!   shard files* with bounded memory: placement jobs run on the
//!   [`rte_tensor::parallel`] pool at most `chunk` ahead of the writer
//!   and are appended in fixed `(client, split, design, placement)`
//!   order. A netlist lives from just before its first placement to its
//!   last, and a shard is open only from its first record to its last,
//!   so peak memory is set by the chunk size and the worker count, not
//!   the corpus, and the bytes written are **identical for every thread
//!   count and chunk size**.
//! - [`CorpusReader`] — opens a shard directory back into per-client
//!   [`ShardReader`] pairs, validating that the files form one coherent
//!   corpus (same seed, grid and channel count everywhere).
//!
//! # Shard file layout (version 1, all integers little-endian)
//!
//! ```text
//! offset 0   magic      "RTESHRD\0"                      8 bytes
//!        8   version    u32 = 1
//!       12   header_len u32   (length of the header body)
//!       16   header_crc u32   (CRC-32/IEEE of the header body)
//!       20   header body:
//!              seed u64 · client u32 · split u8 · family u8
//!              grid_w u32 · grid_h u32 · channels u32
//!              placement_scale f64 · n_samples u64
//!              n_designs u32 · (name_len u16 + utf-8 name)*
//!       20+header_len   records, each exactly record_len bytes:
//!              design_idx u32
//!              features   channels·H·W f32
//!              label      H·W f32
//!              record_crc u32   (CRC-32 of the record bytes above)
//! ```
//!
//! The header is written twice: once at create time with `n_samples = 0`
//! and once at [`ShardWriter::finish`] with the real count (a single
//! seek-back — the header length never changes because the design table
//! is fixed at create time). A shard that was never finished therefore
//! fails to open with a typed error instead of yielding partial data.
//!
//! # Shard file layout (version 2, compressed)
//!
//! Version 2 replaces the raw record region with compressed frames; the
//! header body gains a codec tag (u8) and a records-per-frame count
//! (u32), and a CRC'd chunk directory maps frames to file offsets:
//!
//! ```text
//! prelude (version = 2) · header body (v1 fields + codec + chunk)
//! chunk directory: n_frames x comp_len u64, then dir_crc u32
//! frames: each = delta+bitpacked payload, then frame_crc u32
//! ```
//!
//! Frames hold `chunk` records each (the last may be shorter); the
//! codec ([`compress_shard`]) is exact, so decompressed record bytes —
//! per-record CRCs included — are bit-identical to the raw layout.
//! [`ShardWriter`] always emits version 1; version 2 is produced by
//! [`compress_shard`] / [`compact_dir`] and read transparently by
//! [`ShardReader`], on either store.
//!
//! Every failure mode is a typed [`ShardError`] — truncation, wrong
//! magic, unknown version, CRC mismatch, zero samples — never a panic;
//! `crates/eda/tests/shard_format.rs` pins each one. Hostile inputs are
//! the design center: every length field a reader consumes is bounded
//! by a documented validation limit ([`MAX_HEADER_LEN`],
//! [`MAX_GRID_DIM`], [`MAX_CHANNELS`], [`MAX_DESIGNS`],
//! [`MAX_COMPRESS_CHUNK`]) or by the real on-disk file length *before*
//! it is used to allocate or do arithmetic.
//!
//! Every field is read through [`rte_codec::Reader`] — the prelude, the
//! header body, the chunk directory, a record's design index and planes,
//! and the v2 codec's word count, group widths and groups — and records,
//! compressed frames and the chunk directory are
//! [`rte_codec::crc_checked`] blocks, the byte codec the frame,
//! checkpoint and state-dict formats share; a codec error gets its file
//! path only when it becomes a [`ShardError`], so a clean read builds no
//! path string. The 20-byte prelude is not an [`rte_codec::Envelope`]:
//! its CRC covers the header body after it, not the prelude.

use std::borrow::Cow;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rte_tensor::parallel::Parallelism;
use rte_tensor::Tensor;

use crate::corpus::{build_jobs, design_name, generate_samples, PlacementJob};
use crate::corpus::{ClientSpec, CorpusConfig, Split, PAPER_CLIENTS};
use crate::dataset::Sample;
use crate::mmap::Mapping;
use crate::placement::GridDims;
use crate::{EdaError, Family, ShardError};

/// First eight bytes of every shard file.
pub const SHARD_MAGIC: [u8; 8] = *b"RTESHRD\0";

/// The raw (uncompressed, fixed-size-record) shard format version.
/// [`ShardWriter`] always writes this version; readers accept it and
/// [`SHARD_VERSION_COMPRESSED`].
pub const SHARD_VERSION: u32 = 1;

/// The compressed shard format version: the same header fields plus a
/// codec tag and frame size, a CRC'd chunk directory, and delta+bitpacked
/// record frames instead of raw fixed-size records. Produced by
/// [`compress_shard`] / [`compact_dir`], never by [`ShardWriter`].
pub const SHARD_VERSION_COMPRESSED: u32 = 2;

/// File extension of shard files (`client03.train.rtes`).
pub const SHARD_EXTENSION: &str = "rtes";

/// Default samples per streamed chunk, and generated ahead of the sink
/// by every generator — small enough that a chunk of 16×16×6-channel
/// samples stays well under a megabyte, large enough that a worker
/// rarely waits for a slower placement ahead of it.
pub const DEFAULT_CHUNK: usize = 64;

/// Records per lazy-CRC chunk of a mapped raw shard: the first read
/// that touches a chunk verifies the record CRCs of all of it, once.
pub const LAZY_CRC_CHUNK: usize = 64;

/// Default records per compressed frame: large enough for the bitpacker
/// to amortize its group headers, small enough that decompressing one
/// frame to serve a minibatch stays cheap.
pub const DEFAULT_COMPRESS_CHUNK: usize = 256;

// -----------------------------------------------------------------
// Validation limits — the "never trust a length field" contract.
//
// Every size a reader takes from the file is checked against one of
// these documented caps (or against the real on-disk file length)
// *before* it is used to allocate, multiply, or divide, so a hostile
// or damaged shard yields a typed `ShardError` instead of a wrapped
// size check, a multi-GB allocation, or a panic. The caps are listed
// in the "validation limits" table of docs/ARCHITECTURE.md.
// -----------------------------------------------------------------

/// Upper bound on the header body length claimed by the prelude. The
/// header is ~50 fixed bytes plus the design-name table, so even a
/// maximal table ([`MAX_DESIGNS`] short names) fits comfortably; the
/// prelude field is read *before* the header CRC can be checked, so it
/// must be capped before the header buffer is allocated.
pub const MAX_HEADER_LEN: u32 = 1 << 20;

/// Upper bound on either gcell grid dimension (the paper uses 16×16).
pub const MAX_GRID_DIM: usize = 1024;

/// Upper bound on feature channels per sample.
pub const MAX_CHANNELS: usize = 64;

/// Upper bound on design-table entries per shard.
pub const MAX_DESIGNS: usize = 65_536;

/// Upper bound on records per compressed frame.
pub const MAX_COMPRESS_CHUNK: usize = 1 << 20;

const PRELUDE_LEN: usize = 20;

/// Compressed frames decoded by every [`ShardReader`] in this process.
static FRAMES_DECODED: AtomicU64 = AtomicU64::new(0);

/// Compressed frames every [`ShardReader`] in this process has decoded
/// so far — a statistic for benchmarks; no output depends on it.
pub fn frames_decoded() -> u64 {
    FRAMES_DECODED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib polynomial): the workspace's one
// implementation, shared with the frame and checkpoint formats.
// ---------------------------------------------------------------------

pub use rte_codec::crc32;
use rte_codec::{crc_checked, push_crc, push_u16, push_u32, push_u64, CodecError, Reader};

fn family_code(family: Family) -> u8 {
    match family {
        Family::Iscas89 => 0,
        Family::Itc99 => 1,
        Family::Iwls05 => 2,
        Family::Ispd15 => 3,
    }
}

fn family_from_code(code: u8) -> Option<Family> {
    match code {
        0 => Some(Family::Iscas89),
        1 => Some(Family::Itc99),
        2 => Some(Family::Iwls05),
        3 => Some(Family::Ispd15),
        _ => None,
    }
}

fn split_code(split: Split) -> u8 {
    match split {
        Split::Train => 0,
        Split::Test => 1,
    }
}

fn split_from_code(code: u8) -> Option<Split> {
    match code {
        0 => Some(Split::Train),
        1 => Some(Split::Test),
        _ => None,
    }
}

/// A codec failure in the file at `path`: the one place a codec error
/// gets its path, so a read that succeeds builds no path string.
fn codec_err(path: &Path, e: CodecError) -> ShardError {
    match e {
        CodecError::Truncated { field, .. } => truncated(path, field),
        other => corrupt(path, other.to_string()),
    }
}

fn corrupt(path: &Path, reason: impl Into<String>) -> ShardError {
    ShardError::Corrupt {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

fn truncated(path: &Path, context: impl Into<String>) -> ShardError {
    ShardError::Truncated {
        path: path.display().to_string(),
        context: context.into(),
    }
}

fn crc_mismatch(path: &Path, what: impl Into<String>) -> ShardError {
    ShardError::CrcMismatch {
        path: path.display().to_string(),
        what: what.into(),
    }
}

fn io_err(path: &Path, e: &std::io::Error) -> ShardError {
    ShardError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

// ---------------------------------------------------------------------
// Shard metadata (the provenance header).
// ---------------------------------------------------------------------

/// Provenance carried by every shard header: enough to regenerate the
/// shard from scratch and to verify a directory of shards belongs to one
/// corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMeta {
    /// Master corpus seed the samples derive from.
    pub seed: u64,
    /// 1-based client index (Table 2 numbering).
    pub client_index: usize,
    /// Which split of the client's data this shard holds.
    pub split: Split,
    /// Benchmark family of the client's designs.
    pub family: Family,
    /// Gcell grid of every sample.
    pub grid: GridDims,
    /// Feature channels per sample (currently
    /// [`crate::features::FEATURE_CHANNELS`]).
    pub channels: usize,
    /// Placement-count scale the corpus was generated at.
    pub placement_scale: f64,
    /// Design-name table; records reference designs by index into this
    /// list, keeping records fixed-size.
    pub designs: Vec<String>,
}

impl ShardMeta {
    /// Bytes of one sample record (design index + features + label +
    /// record CRC). Cannot overflow for any metadata a reader accepts:
    /// `ShardMeta::decode_body` bounds the geometry by
    /// [`MAX_GRID_DIM`] / [`MAX_CHANNELS`] first.
    pub fn record_len(&self) -> usize {
        let cells = self.grid.width * self.grid.height;
        4 + (self.channels * cells + cells) * 4 + 4
    }

    /// The canonical shard file name for this meta:
    /// `client{NN}.{split}.rtes`.
    pub fn file_name(&self) -> String {
        format!(
            "client{:02}.{}.{}",
            self.client_index,
            self.split.token(),
            SHARD_EXTENSION
        )
    }

    /// The metadata [`ShardWriter::create`] refuses: no designs, a
    /// zero-sized sample, a geometry beyond the readers' validation
    /// limits, or a design name longer than a `u16` length field.
    fn check(&self) -> Result<(), EdaError> {
        if self.designs.is_empty() {
            return Err(EdaError::InvalidConfig {
                reason: "shard with an empty design table".into(),
            });
        }
        if self.grid.width == 0 || self.grid.height == 0 || self.channels == 0 {
            return Err(EdaError::InvalidConfig {
                reason: "shard with zero-sized sample geometry".into(),
            });
        }
        if self.grid.width > MAX_GRID_DIM
            || self.grid.height > MAX_GRID_DIM
            || self.channels > MAX_CHANNELS
            || self.designs.len() > MAX_DESIGNS
        {
            return Err(EdaError::InvalidConfig {
                reason: format!(
                    "shard geometry {}x{}x{} / {} designs exceeds the format's validation \
                     limits (readers would reject it)",
                    self.channels,
                    self.grid.height,
                    self.grid.width,
                    self.designs.len()
                ),
            });
        }
        if let Some(name) = self.designs.iter().find(|n| n.len() > u16::MAX as usize) {
            return Err(EdaError::InvalidConfig {
                reason: format!(
                    "design name of {} bytes exceeds the format limit",
                    name.len()
                ),
            });
        }
        Ok(())
    }

    fn encode_body(&self, n_samples: u64) -> Vec<u8> {
        let mut body = Vec::new();
        push_u64(&mut body, self.seed);
        push_u32(&mut body, self.client_index as u32);
        body.push(split_code(self.split));
        body.push(family_code(self.family));
        push_u32(&mut body, self.grid.width as u32);
        push_u32(&mut body, self.grid.height as u32);
        push_u32(&mut body, self.channels as u32);
        push_u64(&mut body, self.placement_scale.to_bits());
        push_u64(&mut body, n_samples);
        push_u32(&mut body, self.designs.len() as u32);
        for name in &self.designs {
            push_u16(&mut body, name.len() as u16);
            body.extend_from_slice(name.as_bytes());
        }
        body
    }

    /// The version-2 header body: the version-1 fields followed by the
    /// codec tag and the records-per-frame count.
    fn encode_body_compressed(&self, n_samples: u64, compression: CompressionInfo) -> Vec<u8> {
        let mut body = self.encode_body(n_samples);
        body.push(CODEC_DELTA_BITPACK);
        push_u32(&mut body, compression.chunk_records as u32);
        body
    }

    fn decode_body(
        bytes: &[u8],
        path: &Path,
        version: u32,
    ) -> Result<(ShardMeta, u64, Option<CompressionInfo>), ShardError> {
        let cut = |e| codec_err(path, e);
        let mut c = Reader::new(bytes, "shard header");
        let seed = c.u64("header seed").map_err(cut)?;
        let client_index = c.u32("header client index").map_err(cut)? as usize;
        let split_byte = c.u8("header split").map_err(cut)?;
        let split = split_from_code(split_byte)
            .ok_or_else(|| corrupt(path, format!("unknown split code {split_byte}")))?;
        let family_byte = c.u8("header family").map_err(cut)?;
        let family = family_from_code(family_byte)
            .ok_or_else(|| corrupt(path, format!("unknown family code {family_byte}")))?;
        let width = c.u32("header grid width").map_err(cut)? as usize;
        let height = c.u32("header grid height").map_err(cut)? as usize;
        let channels = c.u32("header channels").map_err(cut)? as usize;
        let placement_scale = f64::from_bits(c.u64("header placement scale").map_err(cut)?);
        let n_samples = c.u64("header sample count").map_err(cut)?;
        let n_designs = c.u32("header design count").map_err(cut)? as usize;
        if width == 0 || height == 0 || channels == 0 {
            return Err(corrupt(
                path,
                format!("degenerate geometry {channels}x{height}x{width}"),
            ));
        }
        if width > MAX_GRID_DIM || height > MAX_GRID_DIM || channels > MAX_CHANNELS {
            return Err(corrupt(
                path,
                format!(
                    "geometry {channels}x{height}x{width} exceeds the validation limits \
                 ({MAX_CHANNELS} channels, {MAX_GRID_DIM}x{MAX_GRID_DIM} grid)"
                ),
            ));
        }
        if n_designs == 0 {
            return Err(corrupt(path, "empty design table"));
        }
        if n_designs > MAX_DESIGNS {
            return Err(corrupt(
                path,
                format!("design table of {n_designs} entries exceeds the {MAX_DESIGNS} limit"),
            ));
        }
        let mut designs = Vec::with_capacity(n_designs.min(4096));
        for i in 0..n_designs {
            let len = c.u16("design name length").map_err(cut)? as usize;
            let raw = c.take(len, "design name").map_err(cut)?;
            let name = std::str::from_utf8(raw)
                .map_err(|_| corrupt(path, format!("design name {i} is not utf-8")))?;
            designs.push(name.to_owned());
        }
        let compression = if version == SHARD_VERSION_COMPRESSED {
            let codec = c.u8("header codec").map_err(cut)?;
            if codec != CODEC_DELTA_BITPACK {
                return Err(corrupt(path, format!("unknown compression codec {codec}")));
            }
            let chunk_records = c.u32("header frame size").map_err(cut)? as usize;
            if chunk_records == 0 || chunk_records > MAX_COMPRESS_CHUNK {
                return Err(corrupt(
                    path,
                    format!(
                        "frame size of {chunk_records} records outside 1..={MAX_COMPRESS_CHUNK}"
                    ),
                ));
            }
            Some(CompressionInfo { chunk_records })
        } else {
            None
        };
        let trailing = c.rest().len();
        if trailing != 0 {
            return Err(corrupt(path, format!("{trailing} trailing header bytes")));
        }
        Ok((
            ShardMeta {
                seed,
                client_index,
                split,
                family,
                grid: GridDims::new(width, height),
                channels,
                placement_scale,
                designs,
            },
            n_samples,
            compression,
        ))
    }
}

/// Compression parameters carried by a version-2 shard header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionInfo {
    /// Records per compressed frame (the final frame may be shorter).
    pub chunk_records: usize,
}

/// The only codec tag defined so far: XOR-delta over little-endian u32
/// words, bitpacked in 32-word groups. Exact by construction — the
/// decoder reproduces the raw record bytes bit for bit.
const CODEC_DELTA_BITPACK: u8 = 1;

fn prelude_and_body(version: u32, body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(PRELUDE_LEN + body.len());
    out.extend_from_slice(&SHARD_MAGIC);
    push_u32(&mut out, version);
    push_u32(&mut out, body.len() as u32);
    push_u32(&mut out, crc32(&body));
    out.extend_from_slice(&body);
    out
}

fn encode_file_header(meta: &ShardMeta, n_samples: u64) -> Vec<u8> {
    prelude_and_body(SHARD_VERSION, meta.encode_body(n_samples))
}

// ---------------------------------------------------------------------
// Open-time validation and record decoding, whichever store serves the
// bytes.
// ---------------------------------------------------------------------

/// Everything a reader learns from a validated prelude + header body.
#[derive(Debug)]
struct ValidatedHeader {
    meta: ShardMeta,
    n_samples: u64,
    /// Bytes per raw record (derived from validated geometry, so the
    /// arithmetic cannot have wrapped).
    record_len: u64,
    /// First byte after the header body: raw records (v1) or the chunk
    /// directory (v2).
    data_offset: u64,
    compression: Option<CompressionInfo>,
}

/// Validates the fixed 20-byte prelude: magic, supported version, and —
/// *before anything is allocated from it* — the header-length cap and
/// its fit inside the real file. Returns `(version, header_len,
/// header_crc)`.
fn parse_prelude(
    prelude: &[u8],
    file_len: u64,
    path: &Path,
) -> Result<(u32, u32, u32), ShardError> {
    let cut = |e| codec_err(path, e);
    let mut r = Reader::new(prelude, "shard prelude");
    if r.take(8, "magic").map_err(cut)? != SHARD_MAGIC {
        return Err(ShardError::WrongMagic {
            path: path.display().to_string(),
        });
    }
    let version = r.u32("version").map_err(cut)?;
    if version != SHARD_VERSION && version != SHARD_VERSION_COMPRESSED {
        return Err(ShardError::UnsupportedVersion {
            path: path.display().to_string(),
            found: version,
        });
    }
    let header_len = r.u32("header length").map_err(cut)?;
    let header_crc = r.u32("header CRC").map_err(cut)?;
    // The cap comes first: this field is attacker-controlled until the
    // header CRC is checked, and the CRC cannot be checked without
    // first allocating a buffer of this very size.
    if header_len > MAX_HEADER_LEN {
        return Err(corrupt(
            path,
            format!("header length {header_len} exceeds the {MAX_HEADER_LEN}-byte limit"),
        ));
    }
    if file_len < PRELUDE_LEN as u64 + u64::from(header_len) {
        return Err(truncated(path, "header body"));
    }
    Ok((version, header_len, header_crc))
}

/// Validates a header body (CRC, decoded fields, geometry limits) and —
/// for raw shards — the advertised sample count against the real file
/// length, with overflow-checked arithmetic throughout.
fn validate_header(
    version: u32,
    body: &[u8],
    header_crc: u32,
    file_len: u64,
    path: &Path,
) -> Result<ValidatedHeader, ShardError> {
    if crc32(body) != header_crc {
        return Err(crc_mismatch(path, "header"));
    }
    let (meta, n_samples, compression) = ShardMeta::decode_body(body, path, version)?;
    if n_samples == 0 {
        return Err(ShardError::EmptyShard {
            path: path.display().to_string(),
        });
    }
    let record_len = meta.record_len() as u64;
    let data_offset = PRELUDE_LEN as u64 + body.len() as u64;
    if compression.is_none() {
        // Raw layout: the records span the rest of the file exactly.
        // A huge claimed count must not wrap the multiply into passing
        // the size check.
        let expected = n_samples
            .checked_mul(record_len)
            .and_then(|bytes| data_offset.checked_add(bytes))
            .ok_or_else(|| {
                corrupt(
                    path,
                    format!(
                        "sample count {n_samples} x record length {record_len} overflows the \
                     file-size check"
                    ),
                )
            })?;
        if file_len < expected {
            return Err(truncated(
                path,
                format!(
                    "sample records ({} of {n_samples} present)",
                    (file_len.saturating_sub(data_offset)) / record_len
                ),
            ));
        }
        if file_len > expected {
            return Err(corrupt(
                path,
                format!(
                    "{} trailing bytes after the last record",
                    file_len - expected
                ),
            ));
        }
    }
    Ok(ValidatedHeader {
        meta,
        n_samples,
        record_len,
        data_offset,
        compression,
    })
}

/// Verifies one raw record's trailing CRC-32.
fn check_record_crc(raw: &[u8], index: usize, path: &Path) -> Result<(), ShardError> {
    if crc_checked(raw).is_none() {
        return Err(crc_mismatch(path, format!("record {index}")));
    }
    Ok(())
}

/// Decodes one raw record's planes (CRC already checked by the caller):
/// bounds-checks the design reference, appends the f32 feature and label
/// planes, and returns the design index.
fn decode_record_planes(
    raw: &[u8],
    meta: &ShardMeta,
    index: usize,
    path: &Path,
    features: &mut Vec<f32>,
    labels: &mut Vec<f32>,
) -> Result<usize, ShardError> {
    let cut = |e| codec_err(path, e);
    let mut r = Reader::new(raw, "record");
    let design_idx = r.u32("design index").map_err(cut)? as usize;
    if design_idx >= meta.designs.len() {
        return Err(corrupt(
            path,
            format!(
                "record {index} references design {design_idx} of {}",
                meta.designs.len()
            ),
        ));
    }
    let cells = meta.grid.width * meta.grid.height;
    features.extend(r.f32s(meta.channels * cells, "features").map_err(cut)?);
    labels.extend(r.f32s(cells, "label").map_err(cut)?);
    Ok(design_idx)
}

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

/// Appends fixed-size sample records to one shard file.
///
/// Created with the full design table up front (so the header length is
/// fixed), appended to sample by sample, and sealed with
/// [`ShardWriter::finish`], which patches the real sample count into the
/// header. Dropping a writer without finishing leaves a file that
/// [`ShardReader::open`] rejects — a half-written shard can never be
/// mistaken for data.
#[derive(Debug)]
pub struct ShardWriter {
    file: BufWriter<File>,
    path: PathBuf,
    meta: ShardMeta,
    n_samples: u64,
}

impl ShardWriter {
    /// Creates (truncating) the shard file and writes a provisional
    /// header with a zero sample count.
    ///
    /// # Errors
    ///
    /// [`ShardError::Io`] on filesystem failures; [`EdaError::InvalidConfig`]
    /// for degenerate metadata (no designs, zero-sized grid, a design
    /// name longer than a `u16` length field).
    pub fn create(path: impl Into<PathBuf>, meta: ShardMeta) -> Result<Self, EdaError> {
        let path = path.into();
        meta.check()?;
        let file = File::create(&path).map_err(|e| io_err(&path, &e))?;
        let mut writer = ShardWriter {
            file: BufWriter::new(file),
            path,
            meta,
            n_samples: 0,
        };
        let header = encode_file_header(&writer.meta, 0);
        writer
            .file
            .write_all(&header)
            .map_err(|e| io_err(&writer.path, &e))?;
        Ok(writer)
    }

    /// The provenance this shard was created with.
    pub fn meta(&self) -> &ShardMeta {
        &self.meta
    }

    /// Samples appended so far.
    pub fn len(&self) -> usize {
        self.n_samples as usize
    }

    /// True before the first [`ShardWriter::append`].
    pub fn is_empty(&self) -> bool {
        self.n_samples == 0
    }

    /// Appends one sample record.
    ///
    /// # Errors
    ///
    /// [`EdaError::InvalidConfig`] when the sample's geometry disagrees
    /// with the header or its design name is not in the design table;
    /// [`ShardError::Io`] on write failures.
    pub fn append(&mut self, sample: &Sample) -> Result<(), EdaError> {
        let (h, w) = (self.meta.grid.height, self.meta.grid.width);
        let fdims = sample.features.shape().dims();
        let ldims = sample.label.shape().dims();
        if fdims != [self.meta.channels, h, w] || ldims != [1, h, w] {
            return Err(EdaError::InvalidConfig {
                reason: format!(
                    "sample geometry {fdims:?}/{ldims:?} disagrees with shard header \
                     ({}x{h}x{w})",
                    self.meta.channels
                ),
            });
        }
        let design_idx = self
            .meta
            .designs
            .iter()
            .position(|n| *n == sample.design)
            .ok_or_else(|| EdaError::InvalidConfig {
                reason: format!(
                    "design {} missing from the shard design table",
                    sample.design
                ),
            })?;
        let mut record = Vec::with_capacity(self.meta.record_len());
        push_u32(&mut record, design_idx as u32);
        for v in sample.features.data().iter().chain(sample.label.data()) {
            push_u32(&mut record, v.to_bits());
        }
        push_crc(&mut record, 0);
        debug_assert_eq!(record.len(), self.meta.record_len());
        self.file
            .write_all(&record)
            .map_err(|e| io_err(&self.path, &e))?;
        self.n_samples += 1;
        Ok(())
    }

    /// Seals the shard: flushes the records and rewrites the header with
    /// the final sample count. Returns the number of samples written.
    ///
    /// The bytes are handed to the operating system, not forced to the
    /// disk: durability is one directory sync per corpus write
    /// ([`CorpusWriter::write_specs`], [`compact_dir`]), and a shard a
    /// power cut left short or zero-filled fails its length or CRC
    /// checks on open or read.
    ///
    /// # Errors
    ///
    /// [`ShardError::Io`] on flush/seek failures.
    pub fn finish(mut self) -> Result<u64, EdaError> {
        self.file.flush().map_err(|e| io_err(&self.path, &e))?;
        let file = self.file.get_mut();
        file.seek(SeekFrom::Start(0))
            .map_err(|e| io_err(&self.path, &e))?;
        let header = encode_file_header(&self.meta, self.n_samples);
        file.write_all(&header)
            .map_err(|e| io_err(&self.path, &e))?;
        Ok(self.n_samples)
    }
}

// ---------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------

/// Where a [`ShardReader`]'s bytes come from.
#[derive(Debug)]
enum Store {
    /// The open file, read with `seek` + `read`; the lock guards the
    /// cursor, so concurrent reads interleave cleanly.
    File(Mutex<File>),
    /// A read-only memory map of the whole file.
    Map(Mapping),
}

impl Store {
    /// The `len` bytes at `offset`: a slice of the map, or a buffer read
    /// from the file. `what` names them in a truncation error.
    fn bytes_at(
        &self,
        offset: u64,
        len: usize,
        path: &Path,
        what: impl FnOnce() -> String,
    ) -> Result<Cow<'_, [u8]>, ShardError> {
        let truncated = |e: String| truncated(path, format!("{}{e}", what()));
        match self {
            Store::Map(map) => usize::try_from(offset)
                .ok()
                .and_then(|at| map.bytes().get(at..)?.get(..len))
                .map(Cow::Borrowed)
                .ok_or_else(|| truncated(String::new())),
            Store::File(file) => {
                let mut buf = vec![0u8; len];
                let mut file = file.lock().expect("shard file lock poisoned");
                file.seek(SeekFrom::Start(offset))
                    .map_err(|e| io_err(path, &e))?;
                file.read_exact(&mut buf)
                    .map_err(|e| truncated(format!(": {e}")))?;
                Ok(Cow::Owned(buf))
            }
        }
    }
}

/// Random-access reader over one sealed shard file, raw or compressed,
/// on either of two byte stores: the file itself (`seek` + `read`, the
/// default) or a read-only memory map of it ([`ShardReader::mapped`]).
///
/// Opening validates magic, version, header CRC, the advertised sample
/// count against the file size (or, compressed, the frame directory),
/// and rejects zero-sample shards — all as typed [`ShardError`]s.
/// Raw records are fixed-size, so any sample or contiguous range is one
/// read from the store. Record CRCs are checked on every read, except
/// that a mapped raw shard checks each chunk of records once, on first
/// touch; compressed frames are CRC-checked on every decode. Reads take
/// `&self`, so one reader can feed several worker threads, and return
/// the same bits from either store.
#[derive(Debug)]
pub struct ShardReader {
    store: Store,
    /// The length `open` validated the layout against.
    file_len: u64,
    path: PathBuf,
    meta: ShardMeta,
    n_samples: usize,
    data_offset: u64,
    record_len: usize,
    compression: Option<CompressionInfo>,
    /// Per-frame `(file offset, compressed payload length)` for
    /// compressed shards; empty for raw shards.
    frames: Vec<(u64, usize)>,
    /// One bit per [`LAZY_CRC_CHUNK`]-record chunk, set once the chunk's
    /// record CRCs verified clean; empty unless the shard is mapped and
    /// raw.
    verified: Vec<AtomicU64>,
}

impl ShardReader {
    /// Opens and validates a shard file, reading it with `seek` + `read`.
    ///
    /// # Errors
    ///
    /// [`ShardError::WrongMagic`] / [`ShardError::UnsupportedVersion`]
    /// for foreign files, [`ShardError::Truncated`] when the file ends
    /// early, [`ShardError::CrcMismatch`] for a corrupted header,
    /// [`ShardError::EmptyShard`] for zero samples, and
    /// [`ShardError::Corrupt`] for structural violations.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, EdaError> {
        Self::open_on(path.into(), false)
    }

    /// [`ShardReader::open`] on the file store, or with `map` on a
    /// memory map of the file, which then also serves the validation.
    pub(crate) fn open_on(path: PathBuf, map: bool) -> Result<Self, EdaError> {
        let file = File::open(&path).map_err(|e| io_err(&path, &e))?;
        let file_len = file.metadata().map_err(|e| io_err(&path, &e))?.len();
        if file_len < PRELUDE_LEN as u64 {
            return Err(truncated(&path, "file prelude").into());
        }
        let store = if map {
            // The mapping outlives the file.
            Store::Map(Mapping::map(&file, &path)?)
        } else {
            Store::File(Mutex::new(file))
        };
        let prelude = store.bytes_at(0, PRELUDE_LEN, &path, || "file prelude".into())?;
        let (version, header_len, header_crc) = parse_prelude(&prelude, file_len, &path)?;
        // Allocation is safe here: `parse_prelude` capped `header_len`.
        let body = store.bytes_at(PRELUDE_LEN as u64, header_len as usize, &path, || {
            "header body".into()
        })?;
        let header = validate_header(version, &body, header_crc, file_len, &path)?;
        let frames = match header.compression {
            None => Vec::new(),
            Some(info) => frame_directory(&store, &header, info, file_len, &path)?,
        };
        Ok(ShardReader {
            store,
            file_len,
            path,
            meta: header.meta,
            n_samples: header.n_samples as usize,
            data_offset: header.data_offset,
            record_len: header.record_len as usize,
            compression: header.compression,
            frames,
            verified: Vec::new(),
        })
    }

    /// The same shard served from a read-only memory map of its file:
    /// what [`ShardReader::open`] validated is kept, not checked again,
    /// and a record read borrows the mapped pages instead of copying
    /// them into a buffer. A raw shard's record CRCs are then checked
    /// once per [`LAZY_CRC_CHUNK`] records, on the first read that
    /// touches them. Reads return the same bits as before.
    ///
    /// # Errors
    ///
    /// [`ShardError::Io`] if the file cannot be mapped (or the platform
    /// maps no files).
    pub fn mapped(mut self) -> Result<Self, EdaError> {
        if let Store::File(file) = &self.store {
            let file = file.lock().expect("shard file lock poisoned");
            let map = Mapping::map(&file, &self.path)?;
            drop(file);
            // The mapping outlives the file, which closes here.
            self.store = Store::Map(map);
        }
        if !self.is_compressed() {
            let n_chunks = self.n_samples.div_ceil(LAZY_CRC_CHUNK);
            self.verified = (0..n_chunks.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect();
        }
        Ok(self)
    }

    /// True when the reader serves a memory map ([`ShardReader::mapped`]).
    pub fn is_mapped(&self) -> bool {
        matches!(self.store, Store::Map(_))
    }

    /// How many lazy-CRC chunks a mapped raw shard has verified so far —
    /// the observability hook the laziness tests pin (0 elsewhere).
    pub fn verified_chunks(&self) -> usize {
        self.verified
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// True when the shard stores delta+bitpacked frames (version 2)
    /// instead of raw fixed-size records.
    pub fn is_compressed(&self) -> bool {
        self.compression.is_some()
    }

    /// The compression parameters, for compressed shards.
    pub fn compression(&self) -> Option<CompressionInfo> {
        self.compression
    }

    /// The provenance header.
    pub fn meta(&self) -> &ShardMeta {
        &self.meta
    }

    /// The shard file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of sample records (always ≥ 1 after a successful open).
    pub fn len(&self) -> usize {
        self.n_samples
    }

    /// Always false: zero-sample shards fail to open.
    pub fn is_empty(&self) -> bool {
        self.n_samples == 0
    }

    /// `(channels, height, width)` of every sample.
    pub fn geometry(&self) -> (usize, usize, usize) {
        (
            self.meta.channels,
            self.meta.grid.height,
            self.meta.grid.width,
        )
    }

    /// The raw bytes of records `range`. Raw shards: one read from the
    /// store. Compressed shards: decompresses the frames the range spans
    /// and concatenates the covered record bytes (bit-identical to the
    /// raw layout by codec construction). Record CRCs are not checked.
    fn records(&self, range: Range<usize>) -> Result<Cow<'_, [u8]>, EdaError> {
        let Some(info) = self.compression else {
            let offset = self.data_offset + (range.start * self.record_len) as u64;
            let len = range.len() * self.record_len;
            return Ok(self.store.bytes_at(offset, len, &self.path, || {
                format!("records {}..{}", range.start, range.end)
            })?);
        };
        let chunk = info.chunk_records;
        let mut out = Vec::with_capacity(range.len() * self.record_len);
        for frame_i in range.start / chunk..=(range.end - 1) / chunk {
            let frame_start = frame_i * chunk;
            let frame_records = chunk.min(self.n_samples - frame_start);
            let raw = self.read_frame(frame_i, frame_records)?;
            let lo = range.start.max(frame_start) - frame_start;
            let hi = range.end.min(frame_start + frame_records) - frame_start;
            out.extend_from_slice(&raw[lo * self.record_len..hi * self.record_len]);
        }
        Ok(Cow::Owned(out))
    }

    /// Reads and decompresses one frame of a compressed shard, verifying
    /// the frame CRC before the codec touches the payload.
    fn read_frame(&self, frame_i: usize, frame_records: usize) -> Result<Vec<u8>, EdaError> {
        let (offset, comp_len) = self.frames[frame_i];
        let buf = self.store.bytes_at(offset, comp_len + 4, &self.path, || {
            format!("compressed frame {frame_i}")
        })?;
        let payload = crc_checked(&buf)
            .ok_or_else(|| crc_mismatch(&self.path, format!("compressed frame {frame_i}")))?;
        let raw = pack::decompress(payload, frame_records * self.record_len, &self.path)?;
        FRAMES_DECODED.fetch_add(1, Ordering::Relaxed);
        Ok(raw)
    }

    /// Checks the record CRCs of `range`, whose bytes are `raw`. A
    /// mapped raw shard checks each [`LAZY_CRC_CHUNK`]-record chunk once and
    /// remembers it in `verified` (a bit is set only after its chunk
    /// verified clean, so a racing first touch verifies twice, never
    /// skips); every other read checks every record.
    fn check_crcs(&self, range: Range<usize>, raw: &[u8]) -> Result<(), EdaError> {
        let check = |first: usize, raw: &[u8]| {
            raw.chunks_exact(self.record_len)
                .enumerate()
                .try_for_each(|(i, record)| check_record_crc(record, first + i, &self.path))
        };
        if self.verified.is_empty() {
            return Ok(check(range.start, raw)?);
        }
        for chunk_i in range.start / LAZY_CRC_CHUNK..=(range.end - 1) / LAZY_CRC_CHUNK {
            let word = &self.verified[chunk_i / 64];
            let bit = 1u64 << (chunk_i % 64);
            if word.load(Ordering::Acquire) & bit != 0 {
                continue;
            }
            let lo = chunk_i * LAZY_CRC_CHUNK;
            let hi = (lo + LAZY_CRC_CHUNK).min(self.n_samples);
            check(lo, &self.records(lo..hi)?)?;
            word.fetch_or(bit, Ordering::AcqRel);
        }
        Ok(())
    }

    fn check_range(&self, range: &Range<usize>) -> Result<(), EdaError> {
        if range.start >= range.end || range.end > self.n_samples {
            return Err(EdaError::InvalidConfig {
                reason: format!(
                    "record range {range:?} invalid for shard of {} samples",
                    self.n_samples
                ),
            });
        }
        Ok(())
    }

    /// Decodes records `range`, CRC-checked, appending their planes to
    /// `features` / `labels` and handing each record's design index to
    /// `design`.
    fn decode(
        &self,
        range: Range<usize>,
        features: &mut Vec<f32>,
        labels: &mut Vec<f32>,
        mut design: impl FnMut(usize),
    ) -> Result<(), EdaError> {
        self.check_range(&range)?;
        let raw = self.records(range.clone())?;
        self.check_crcs(range.clone(), &raw)?;
        for (i, record) in raw.chunks_exact(self.record_len).enumerate() {
            let index = range.start + i;
            design(decode_record_planes(
                record, &self.meta, index, &self.path, features, labels,
            )?);
        }
        Ok(())
    }

    /// Reads records `range`, appending their feature and label planes
    /// (flat row-major f32s, record-major) to the output vectors — the
    /// zero-copy-into-`Tensor` path the streaming client set feeds on.
    ///
    /// # Errors
    ///
    /// [`EdaError::InvalidConfig`] for an empty or out-of-bounds range,
    /// [`ShardError::CrcMismatch`] / [`ShardError::Corrupt`] for damaged
    /// records, [`ShardError::Io`] on filesystem failures.
    pub fn read_batch_into(
        &self,
        range: Range<usize>,
        features: &mut Vec<f32>,
        labels: &mut Vec<f32>,
    ) -> Result<(), EdaError> {
        self.decode(range, features, labels, |_| {})
    }

    /// Reads the records at `rows`, appending their planes in `rows`
    /// order exactly as [`ShardReader::read_batch_into`] would one row
    /// at a time. Raw shards read each run of consecutive rows with one
    /// read; compressed shards visit the rows frame by frame, so a
    /// frame that several rows share is decoded once per call and only
    /// one decoded frame is held at a time.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ShardReader::read_batch_into`].
    pub fn read_rows_into(
        &self,
        rows: &[usize],
        features: &mut Vec<f32>,
        labels: &mut Vec<f32>,
    ) -> Result<(), EdaError> {
        for &row in rows {
            self.check_range(&(row..row + 1))?;
        }
        let Some(info) = self.compression else {
            let mut i = 0usize;
            while i < rows.len() {
                let start = rows[i];
                let mut j = i + 1;
                while j < rows.len() && rows[j] == start + (j - i) {
                    j += 1;
                }
                self.read_batch_into(start..start + (j - i), features, labels)?;
                i = j;
            }
            return Ok(());
        };
        let chunk = info.chunk_records;
        let (c, h, w) = self.geometry();
        let (xs, ys) = (c * h * w, h * w);
        let (f0, l0) = (features.len(), labels.len());
        features.resize(f0 + rows.len() * xs, 0.0);
        labels.resize(l0 + rows.len() * ys, 0.0);
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&k| rows[k]);
        let mut frame: Option<(usize, Vec<u8>)> = None;
        let (mut f, mut l) = (Vec::with_capacity(xs), Vec::with_capacity(ys));
        for k in order {
            let (row, frame_i) = (rows[k], rows[k] / chunk);
            let raw = match &frame {
                Some((i, raw)) if *i == frame_i => raw,
                _ => {
                    let frame_records = chunk.min(self.n_samples - frame_i * chunk);
                    let raw = self.read_frame(frame_i, frame_records)?;
                    &frame.insert((frame_i, raw)).1
                }
            };
            let at = (row - frame_i * chunk) * self.record_len;
            let record = &raw[at..at + self.record_len];
            self.check_crcs(row..row + 1, record)?;
            f.clear();
            l.clear();
            decode_record_planes(record, &self.meta, row, &self.path, &mut f, &mut l)?;
            features[f0 + k * xs..f0 + (k + 1) * xs].copy_from_slice(&f);
            labels[l0 + k * ys..l0 + (k + 1) * ys].copy_from_slice(&l);
        }
        Ok(())
    }

    /// Reads records `range` as full [`Sample`]s (design names resolved
    /// through the header's table).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ShardReader::read_batch_into`].
    pub fn read_range(&self, range: Range<usize>) -> Result<Vec<Sample>, EdaError> {
        let (c, h, w) = self.geometry();
        let (mut features, mut labels, mut designs) = (Vec::new(), Vec::new(), Vec::new());
        self.decode(range, &mut features, &mut labels, |d| designs.push(d))?;
        features
            .chunks_exact(c * h * w)
            .zip(labels.chunks_exact(h * w))
            .zip(designs)
            .map(|((f, l), design)| -> Result<Sample, EdaError> {
                Ok(Sample {
                    features: Tensor::from_vec(f.to_vec(), &[c, h, w])?,
                    label: Tensor::from_vec(l.to_vec(), &[1, h, w])?,
                    design: self.meta.designs[design].clone(),
                })
            })
            .collect()
    }

    /// Reads one sample record.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ShardReader::read_range`].
    pub fn read_sample(&self, index: usize) -> Result<Sample, EdaError> {
        let mut samples = self.read_range(index..index + 1)?;
        Ok(samples.pop().expect("one-record range"))
    }
}

/// Reads and validates a compressed shard's chunk directory, returning
/// per-frame `(offset, compressed payload length)` pairs. Every size is
/// bounded by the real file length before it is allocated or summed.
fn frame_directory(
    store: &Store,
    header: &ValidatedHeader,
    info: CompressionInfo,
    file_len: u64,
    path: &Path,
) -> Result<Vec<(u64, usize)>, ShardError> {
    let n_frames = header.n_samples.div_ceil(info.chunk_records as u64);
    let dir_len = n_frames
        .checked_mul(8)
        .and_then(|b| b.checked_add(4))
        .ok_or_else(|| corrupt(path, "chunk directory size overflows"))?;
    let dir_end = header
        .data_offset
        .checked_add(dir_len)
        .ok_or_else(|| corrupt(path, "chunk directory offset overflows"))?;
    if dir_end > file_len {
        return Err(truncated(path, "chunk directory"));
    }
    // Allocation is safe: `dir_len` fits inside the real file.
    let dir = store.bytes_at(header.data_offset, dir_len as usize, path, || {
        "chunk directory".into()
    })?;
    let lens = crc_checked(&dir).ok_or_else(|| crc_mismatch(path, "chunk directory"))?;
    let mut frames = Vec::with_capacity(n_frames as usize);
    let mut offset = dir_end;
    let mut lens = Reader::new(lens, "chunk directory");
    for i in 0..n_frames {
        let comp_len = lens.u64("frame length").map_err(|e| codec_err(path, e))?;
        let end = comp_len
            .checked_add(4)
            .and_then(|f| offset.checked_add(f))
            .ok_or_else(|| corrupt(path, format!("frame {i} length overflows")))?;
        if end > file_len {
            return Err(truncated(path, format!("compressed frame {i}")));
        }
        frames.push((offset, comp_len as usize));
        offset = end;
    }
    if offset != file_len {
        return Err(corrupt(
            path,
            format!("{} trailing bytes after the last frame", file_len - offset),
        ));
    }
    Ok(frames)
}

// ---------------------------------------------------------------------
// The delta+bitpack codec (shard format version 2).
// ---------------------------------------------------------------------

/// XOR-delta + bitpack codec over little-endian u32 words.
///
/// Record bytes are a stream of u32 words (design index, f32 bit
/// patterns, CRCs — `record_len` is always a multiple of four). Each
/// word is XORed with its predecessor, then deltas are packed in groups
/// of 32 at the group's maximum significant width. Neighbouring feature
/// cells share sign/exponent/high-mantissa bits, so deltas are narrow;
/// all-zero runs (macro planes, cold label tiles) pack to a single
/// header byte per group. The transform is exact: decoding reproduces
/// the input bit for bit, which is what lets compressed shards keep the
/// byte-identity contract.
mod pack {
    use std::path::Path;

    use rte_codec::{push_u32, u32_words, CodecError, Reader};

    use super::{corrupt, ShardError};

    const GROUP: usize = 32;

    /// Compresses raw record bytes (length must be a multiple of 4).
    pub(super) fn compress(raw: &[u8]) -> Vec<u8> {
        let mut words = u32_words(raw);
        let n_words = words.len();
        let mut out = Vec::with_capacity(8 + raw.len() / 2);
        push_u32(&mut out, n_words as u32);
        let mut prev = 0u32;
        let mut deltas = [0u32; GROUP];
        let mut remaining = n_words;
        while remaining > 0 {
            let g = remaining.min(GROUP);
            let mut width = 0u32;
            for delta in deltas.iter_mut().take(g) {
                let w = words.next().expect("word count verified");
                *delta = w ^ prev;
                prev = w;
                width = width.max(32 - delta.leading_zeros());
            }
            out.push(width as u8);
            let mut acc = 0u64;
            let mut nbits = 0u32;
            for &d in deltas.iter().take(g) {
                acc |= u64::from(d) << nbits;
                nbits += width;
                while nbits >= 8 {
                    out.push(acc as u8);
                    acc >>= 8;
                    nbits -= 8;
                }
            }
            if nbits > 0 {
                out.push(acc as u8);
            }
            remaining -= g;
        }
        out
    }

    /// Decompresses a frame payload back to exactly `raw_len` record
    /// bytes. Every length field is read through a [`Reader`]; corrupt
    /// payloads yield typed [`ShardError::Corrupt`]s, never a panic or
    /// an oversized allocation.
    pub(super) fn decompress(
        payload: &[u8],
        raw_len: usize,
        path: &Path,
    ) -> Result<Vec<u8>, ShardError> {
        let cut = |e: CodecError| corrupt(path, e.to_string());
        let mut r = Reader::new(payload, "compressed frame");
        let n_words = r.u32("word count").map_err(cut)? as usize;
        if n_words * 4 != raw_len {
            return Err(corrupt(
                path,
                format!(
                    "compressed frame advertises {n_words} words, expected {}",
                    raw_len / 4
                ),
            ));
        }
        let mut out = Vec::with_capacity(raw_len);
        let mut prev = 0u32;
        let mut remaining = n_words;
        while remaining > 0 {
            let g = remaining.min(GROUP);
            let width = u32::from(r.u8("group header").map_err(cut)?);
            if width > 32 {
                return Err(corrupt(
                    path,
                    format!("group width {width} exceeds 32 bits"),
                ));
            }
            let packed = r
                .take((g * width as usize).div_ceil(8), "group")
                .map_err(cut)?;
            let mask = if width == 0 {
                0
            } else {
                u64::MAX >> (64 - width)
            };
            let mut acc = 0u64;
            let mut nbits = 0u32;
            let mut bytes = packed.iter();
            for _ in 0..g {
                while nbits < width {
                    acc |= u64::from(*bytes.next().expect("the group's bytes")) << nbits;
                    nbits += 8;
                }
                let delta = (acc & mask) as u32;
                acc >>= width;
                nbits -= width;
                let word = delta ^ prev;
                prev = word;
                push_u32(&mut out, word);
            }
            remaining -= g;
        }
        let trailing = r.rest().len();
        if trailing != 0 {
            return Err(corrupt(
                path,
                format!("{trailing} trailing bytes in a compressed frame"),
            ));
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Shard compression and directory compaction.
// ---------------------------------------------------------------------

/// Byte accounting from compressing one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionStats {
    /// Records in the shard.
    pub samples: u64,
    /// Bytes of the raw (version-1) file.
    pub raw_bytes: u64,
    /// Bytes of the compressed (version-2) file.
    pub compressed_bytes: u64,
}

/// Rewrites a raw shard as a version-2 compressed shard at `dst`,
/// streaming `chunk_records` records at a time (peak memory is one
/// frame, not the shard). The decompressed bytes are bit-identical to
/// the source records, so reads through the compressed shard preserve
/// the corpus byte-identity contract.
///
/// Like [`ShardWriter::finish`], it flushes and patches the chunk
/// directory but does not force the file to the disk; [`compact_dir`]
/// syncs its directory once after its renames.
///
/// # Errors
///
/// [`EdaError::InvalidConfig`] for a zero/oversized frame size or an
/// already-compressed source; any [`ShardReader::open`] error for the
/// source; [`ShardError::Io`] on write failures.
pub fn compress_shard(
    src: impl AsRef<Path>,
    dst: impl AsRef<Path>,
    chunk_records: usize,
) -> Result<CompressionStats, EdaError> {
    let reader = ShardReader::open(src.as_ref())?;
    compress_from(&reader, dst.as_ref(), chunk_records)
}

/// [`compress_shard`] from a source that is already open, so that
/// [`compact_dir`] compresses through the reader it validated with.
fn compress_from(
    reader: &ShardReader,
    dst: &Path,
    chunk_records: usize,
) -> Result<CompressionStats, EdaError> {
    if chunk_records == 0 || chunk_records > MAX_COMPRESS_CHUNK {
        return Err(EdaError::InvalidConfig {
            reason: format!(
                "compression frame size {chunk_records} outside 1..={MAX_COMPRESS_CHUNK}"
            ),
        });
    }
    if reader.is_compressed() {
        return Err(EdaError::InvalidConfig {
            reason: format!("{} is already compressed", reader.path().display()),
        });
    }
    let info = CompressionInfo { chunk_records };
    let n_samples = reader.n_samples as u64;
    let n_frames = reader.n_samples.div_ceil(chunk_records);
    let header = prelude_and_body(
        SHARD_VERSION_COMPRESSED,
        reader.meta.encode_body_compressed(n_samples, info),
    );
    let file = File::create(dst).map_err(|e| io_err(dst, &e))?;
    let mut out = BufWriter::new(file);
    out.write_all(&header).map_err(|e| io_err(dst, &e))?;
    // Directory placeholder, patched once the frame lengths are known.
    let dir_offset = header.len() as u64;
    out.write_all(&vec![0u8; n_frames * 8 + 4])
        .map_err(|e| io_err(dst, &e))?;
    let mut dir = Vec::with_capacity(n_frames * 8 + 4);
    // Bytes written: header, directory, then each frame and its CRC.
    let mut compressed_bytes = dir_offset + (n_frames * 12 + 4) as u64;
    for frame_i in 0..n_frames {
        let start = frame_i * chunk_records;
        let end = (start + chunk_records).min(reader.n_samples);
        let raw = reader.records(start..end)?;
        let payload = pack::compress(&raw);
        out.write_all(&payload).map_err(|e| io_err(dst, &e))?;
        out.write_all(&crc32(&payload).to_le_bytes())
            .map_err(|e| io_err(dst, &e))?;
        push_u64(&mut dir, payload.len() as u64);
        compressed_bytes += payload.len() as u64;
    }
    out.flush().map_err(|e| io_err(dst, &e))?;
    push_crc(&mut dir, 0);
    let file = out.get_mut();
    file.seek(SeekFrom::Start(dir_offset))
        .map_err(|e| io_err(dst, &e))?;
    file.write_all(&dir).map_err(|e| io_err(dst, &e))?;
    Ok(CompressionStats {
        samples: n_samples,
        raw_bytes: reader.file_len,
        compressed_bytes,
    })
}

/// Result of compacting a shard directory with [`compact_dir`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionSummary {
    /// Shards rewritten into compressed form.
    pub compressed: usize,
    /// Shards that were already compressed and left untouched.
    pub skipped: usize,
    /// Raw bytes of the shards before compaction (already-compressed
    /// shards contribute their current size).
    pub raw_bytes: u64,
    /// Bytes on disk after compaction.
    pub compressed_bytes: u64,
}

/// Compacts a corpus directory accumulated across generations: every
/// raw `.rtes` shard is rewritten in place (via a `.tmp` + rename) as a
/// version-2 compressed shard; already-compressed shards are skipped.
/// [`CorpusReader::open`] reads the result exactly as before — readers
/// are version-agnostic.
///
/// Each shard is opened once, and compressed from that reader. A failed
/// compression or rename removes its `.tmp` file. After the last rename
/// the directory is synced once (on unix), so the renames reach the
/// disk together; a pass that rewrote nothing syncs nothing.
///
/// # Errors
///
/// See [`compress_shard`]; directory scan and sync failures surface as
/// [`ShardError::Io`].
pub fn compact_dir(
    dir: impl AsRef<Path>,
    chunk_records: usize,
) -> Result<CompactionSummary, EdaError> {
    let dir = dir.as_ref();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, &e))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(SHARD_EXTENSION))
        .collect();
    paths.sort();
    let mut summary = CompactionSummary::default();
    for path in paths {
        let reader = ShardReader::open(&path)?;
        if reader.is_compressed() {
            summary.skipped += 1;
            summary.raw_bytes += reader.file_len;
            summary.compressed_bytes += reader.file_len;
            continue;
        }
        let tmp = path.with_extension("tmp");
        let compressed = compress_from(&reader, &tmp, chunk_records);
        drop(reader);
        let renamed = compressed.and_then(|stats| {
            std::fs::rename(&tmp, &path).map_err(|e| io_err(&tmp, &e))?;
            Ok(stats)
        });
        if renamed.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        let stats = renamed?;
        summary.compressed += 1;
        summary.raw_bytes += stats.raw_bytes;
        summary.compressed_bytes += stats.compressed_bytes;
    }
    // One durability barrier for every rename above.
    #[cfg(unix)]
    if summary.compressed > 0 {
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err(dir, &e))?;
    }
    Ok(summary)
}

// ---------------------------------------------------------------------
// Corpus-level writer: streaming generation straight to shards.
// ---------------------------------------------------------------------

/// One shard file a [`CorpusWriter`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// Where the shard was written.
    pub path: PathBuf,
    /// 1-based client index.
    pub client_index: usize,
    /// The split the shard holds.
    pub split: Split,
    /// Samples written.
    pub samples: u64,
}

/// Generates a corpus *directly into shard files* with bounded memory.
///
/// Unlike [`crate::corpus::generate_corpus`], which materializes every
/// client's tensors before returning, this writer walks the same fixed
/// `(client, split, design, placement)` job list on the corpus
/// generation driver: samples are generated on the
/// [`rte_tensor::parallel`] pool at most [`CorpusWriter::with_chunk`]
/// ahead of the writer, appended in job order, then dropped. A design's
/// netlist lives from just before its first placement to its last, and
/// a `(client, split)` shard is open from its first record to its last,
/// so at most `chunk` samples, one netlist per worker plus two and one
/// open shard are resident — never the corpus. Because every placement's RNG stream is a pure function
/// of its coordinates, **the shard bytes are identical for every thread
/// count and every chunk size**.
#[derive(Debug, Clone)]
pub struct CorpusWriter {
    dir: PathBuf,
    chunk: usize,
    parallelism: Parallelism,
}

impl CorpusWriter {
    /// A writer targeting `dir` with the default chunk size and the
    /// process-global thread budget.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CorpusWriter {
            dir: dir.into(),
            chunk: DEFAULT_CHUNK,
            parallelism: rte_tensor::parallel::global(),
        }
    }

    /// Sets the most samples generated (and resident) ahead of the
    /// writer. The netlists resident at once are bounded by the worker
    /// count, not by this.
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// Sets the worker-thread budget (a pure wall-clock knob — the
    /// output bytes do not change).
    #[must_use]
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }

    /// Writes the full nine-client Table 2 corpus.
    ///
    /// # Errors
    ///
    /// See [`CorpusWriter::write_specs`].
    pub fn write(&self, config: &CorpusConfig) -> Result<Vec<ShardSummary>, EdaError> {
        self.write_specs(&PAPER_CLIENTS, config)
    }

    /// Writes shards for an explicit client list (one train + one test
    /// shard per spec), creating the directory if needed.
    ///
    /// The configuration is validated before anything touches the disk.
    /// Shards are written under temporary `.tmp` names and renamed to
    /// their final `.rtes` names only after *every* shard has been
    /// sealed, so an interrupted or failed generation leaves no files
    /// that [`CorpusReader::open`] would try to treat as a corpus. A
    /// failed write removes every `.tmp` file it created, and stale
    /// `.tmp` leftovers from a previous crash are removed first. No
    /// shard file is synced on its own: after the last rename the
    /// directory is synced once (on unix), the write's one durability
    /// barrier.
    ///
    /// # Errors
    ///
    /// [`EdaError::InvalidConfig`] for a zero chunk size, an empty spec
    /// list, a grid smaller than 4×4, or a spec the shard format cannot
    /// hold (e.g. a split without designs); generation errors from the
    /// placement/labelling pipeline, or [`ShardError::Io`] on
    /// filesystem failures.
    pub fn write_specs(
        &self,
        specs: &[ClientSpec],
        config: &CorpusConfig,
    ) -> Result<Vec<ShardSummary>, EdaError> {
        if self.chunk == 0 {
            return Err(EdaError::InvalidConfig {
                reason: "streaming chunk size must be positive".into(),
            });
        }
        let jobs = build_jobs(specs, config)?;
        // One header per (client, split), in job order, design tables by
        // name: every one is checked before the first file is created.
        let metas: Vec<ShardMeta> = specs
            .iter()
            .enumerate()
            .flat_map(|(spec_i, spec)| {
                Split::ALL.map(|split| ShardMeta {
                    seed: config.seed,
                    client_index: spec.index,
                    split,
                    family: spec.family,
                    grid: config.grid,
                    channels: crate::features::FEATURE_CHANNELS,
                    placement_scale: config.placement_scale,
                    designs: jobs
                        .iter()
                        .filter(|job| job.placement == 0 && job.spec_i == spec_i)
                        .filter(|job| job.split == split)
                        .map(|job| design_name(specs, config, job))
                        .collect(),
                })
            })
            .collect();
        for meta in &metas {
            meta.check()?;
        }
        std::fs::create_dir_all(&self.dir).map_err(|e| io_err(&self.dir, &e))?;
        // Sweep debris from a previously interrupted generation.
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.filter_map(Result::ok) {
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) == Some("tmp") {
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        let mut created = Vec::with_capacity(metas.len());
        let written = self
            .seal_shards(specs, config, &jobs, &metas, &mut created)
            .and_then(|sealed| {
                // Every shard is sealed before the first rename: a
                // failure before this point never leaves a half-corpus
                // of valid-looking shards.
                for (tmp_path, summary) in created.iter().zip(&sealed) {
                    std::fs::rename(tmp_path, &summary.path).map_err(|e| io_err(tmp_path, &e))?;
                }
                // The write's one durability barrier: the renames above
                // reach the disk together.
                #[cfg(unix)]
                File::open(&self.dir)
                    .and_then(|d| d.sync_all())
                    .map_err(|e| io_err(&self.dir, &e))?;
                Ok(sealed)
            });
        if written.is_err() {
            // A renamed shard is no longer under its temp name.
            for tmp_path in &created {
                let _ = std::fs::remove_file(tmp_path);
            }
        }
        written
    }

    /// Generates every shard under its `.tmp` name and seals it, in job
    /// order. A shard's writer is created at its first record and sealed
    /// after its last; each temp path is pushed onto `created` before
    /// its file is, so `created[i]` belongs to the `i`-th summary.
    fn seal_shards(
        &self,
        specs: &[ClientSpec],
        config: &CorpusConfig,
        jobs: &[PlacementJob],
        metas: &[ShardMeta],
        created: &mut Vec<PathBuf>,
    ) -> Result<Vec<ShardSummary>, EdaError> {
        let seal = |writer: ShardWriter| -> Result<ShardSummary, EdaError> {
            Ok(ShardSummary {
                path: self.dir.join(writer.meta.file_name()),
                client_index: writer.meta.client_index,
                split: writer.meta.split,
                samples: writer.finish()?,
            })
        };
        let mut sealed = Vec::with_capacity(metas.len());
        let mut open: Option<ShardWriter> = None;
        generate_samples(
            specs,
            config,
            jobs,
            self.parallelism,
            self.chunk,
            |job, sample| {
                // Every shard has a record, so shards open in order.
                let shard = 2 * job.spec_i + usize::from(split_code(job.split));
                if shard == created.len() {
                    sealed.extend(open.take().map(seal).transpose()?);
                    let meta = metas[shard].clone();
                    let path = self.dir.join(format!("{}.tmp", meta.file_name()));
                    created.push(path.clone());
                    open = Some(ShardWriter::create(path, meta)?);
                }
                open.as_mut().expect("opened above").append(&sample)
            },
        )?;
        sealed.extend(open.map(seal).transpose()?);
        Ok(sealed)
    }
}

// ---------------------------------------------------------------------
// Corpus-level reader.
// ---------------------------------------------------------------------

/// One client's pair of shard readers.
#[derive(Debug)]
pub struct ClientShards {
    /// 1-based client index (Table 2 numbering).
    pub client_index: usize,
    /// Benchmark family of the client's designs.
    pub family: Family,
    /// Training-split shard.
    pub train: ShardReader,
    /// Testing-split shard.
    pub test: ShardReader,
}

/// Opens a directory of shard files back into per-client reader pairs.
///
/// Validates that the directory is one coherent corpus: every client has
/// both splits, and every shard agrees on seed, grid and channel count.
#[derive(Debug)]
pub struct CorpusReader {
    clients: Vec<ClientShards>,
    grid: GridDims,
    seed: u64,
    placement_scale: f64,
}

impl CorpusReader {
    /// Opens every `client*.{train,test}.rtes` file under `dir`.
    ///
    /// # Errors
    ///
    /// [`ShardError::Layout`] when the directory holds no shards, a
    /// client is missing a split, or shards disagree on provenance; any
    /// [`ShardReader::open`] error for individual files.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, EdaError> {
        let dir = dir.as_ref();
        let dir_str = dir.display().to_string();
        let layout_err = |reason: String| ShardError::Layout {
            dir: dir_str.clone(),
            reason,
        };
        let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, &e))?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(SHARD_EXTENSION))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(layout_err("no shard files found".into()).into());
        }
        let mut pairs: std::collections::BTreeMap<
            usize,
            (Option<ShardReader>, Option<ShardReader>),
        > = std::collections::BTreeMap::new();
        for path in paths {
            let reader = ShardReader::open(&path)?;
            let slot = pairs.entry(reader.meta().client_index).or_default();
            let split = reader.meta().split;
            let cell = match split {
                Split::Train => &mut slot.0,
                Split::Test => &mut slot.1,
            };
            if cell.is_some() {
                return Err(layout_err(format!(
                    "duplicate {split} shard for client {}",
                    reader.meta().client_index
                ))
                .into());
            }
            *cell = Some(reader);
        }
        let mut clients = Vec::with_capacity(pairs.len());
        for (client_index, (train, test)) in pairs {
            let train = train
                .ok_or_else(|| layout_err(format!("client {client_index} lacks a train shard")))?;
            let test = test
                .ok_or_else(|| layout_err(format!("client {client_index} lacks a test shard")))?;
            if train.meta().family != test.meta().family {
                return Err(layout_err(format!(
                    "client {client_index} train/test shards disagree on family"
                ))
                .into());
            }
            clients.push(ClientShards {
                client_index,
                family: train.meta().family,
                train,
                test,
            });
        }
        let first = &clients[0].train.meta().clone();
        for c in &clients {
            for shard in [&c.train, &c.test] {
                let m = shard.meta();
                if m.seed != first.seed
                    || m.grid != first.grid
                    || m.channels != first.channels
                    || m.placement_scale.to_bits() != first.placement_scale.to_bits()
                {
                    return Err(layout_err(format!(
                        "{} disagrees with the corpus provenance \
                         (seed/grid/channels/placement scale)",
                        shard.path().display()
                    ))
                    .into());
                }
            }
        }
        Ok(CorpusReader {
            grid: first.grid,
            seed: first.seed,
            placement_scale: first.placement_scale,
            clients,
        })
    }

    /// Per-client shard pairs, ordered by client index.
    pub fn clients(&self) -> &[ClientShards] {
        &self.clients
    }

    /// Consumes the reader into its per-client shard pairs (so callers
    /// can move the [`ShardReader`]s into long-lived streaming sources).
    pub fn into_clients(self) -> Vec<ClientShards> {
        self.clients
    }

    /// The gcell grid every shard was generated on.
    pub fn grid(&self) -> GridDims {
        self.grid
    }

    /// The master corpus seed every shard derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The placement-count scale every shard was generated at.
    pub fn placement_scale(&self) -> f64 {
        self.placement_scale
    }

    /// Total samples across all clients and splits.
    pub fn total_samples(&self) -> usize {
        self.clients
            .iter()
            .map(|c| c.train.len() + c.test.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn family_and_split_codes_round_trip() {
        for family in Family::ALL {
            assert_eq!(family_from_code(family_code(family)), Some(family));
        }
        for split in Split::ALL {
            assert_eq!(split_from_code(split_code(split)), Some(split));
        }
        assert_eq!(family_from_code(9), None);
        assert_eq!(split_from_code(9), None);
    }

    #[test]
    fn meta_record_len_counts_every_field() {
        let meta = ShardMeta {
            seed: 1,
            client_index: 1,
            split: Split::Train,
            family: Family::Itc99,
            grid: GridDims::new(4, 4),
            channels: 2,
            placement_scale: 0.0,
            designs: vec!["d".into()],
        };
        // 4 (design idx) + (2*16 + 16)*4 (planes) + 4 (crc).
        assert_eq!(meta.record_len(), 4 + 48 * 4 + 4);
        assert_eq!(meta.file_name(), "client01.train.rtes");
    }

    #[test]
    fn header_encode_decode_round_trips() {
        let meta = ShardMeta {
            seed: 0xDEAD_BEEF,
            client_index: 7,
            split: Split::Test,
            family: Family::Ispd15,
            grid: GridDims::new(8, 16),
            channels: 6,
            placement_scale: 0.25,
            designs: vec!["alpha".into(), "beta".into()],
        };
        let body = meta.encode_body(42);
        let (back, n, compression) =
            ShardMeta::decode_body(&body, Path::new("mem"), SHARD_VERSION).unwrap();
        assert_eq!(back, meta);
        assert_eq!(n, 42);
        assert_eq!(compression, None);
    }

    #[test]
    fn compressed_header_round_trips() {
        let meta = ShardMeta {
            seed: 5,
            client_index: 2,
            split: Split::Train,
            family: Family::Itc99,
            grid: GridDims::new(4, 4),
            channels: 2,
            placement_scale: 1.0,
            designs: vec!["d0".into()],
        };
        let info = CompressionInfo { chunk_records: 128 };
        let body = meta.encode_body_compressed(9, info);
        let (back, n, compression) =
            ShardMeta::decode_body(&body, Path::new("mem"), SHARD_VERSION_COMPRESSED).unwrap();
        assert_eq!(back, meta);
        assert_eq!(n, 9);
        assert_eq!(compression, Some(info));
        // The same bytes under version 1 have trailing fields → Corrupt.
        let err = ShardMeta::decode_body(&body, Path::new("mem"), SHARD_VERSION).unwrap_err();
        assert!(matches!(err, ShardError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn decode_body_rejects_pathological_geometry() {
        let mut meta = ShardMeta {
            seed: 1,
            client_index: 1,
            split: Split::Train,
            family: Family::Itc99,
            grid: GridDims::new(4, 4),
            channels: 2,
            placement_scale: 0.0,
            designs: vec!["d".into()],
        };
        meta.grid = GridDims::new(MAX_GRID_DIM + 1, 4);
        let body = meta.encode_body(1);
        let err = ShardMeta::decode_body(&body, Path::new("mem"), SHARD_VERSION).unwrap_err();
        assert!(matches!(err, ShardError::Corrupt { .. }), "{err}");

        meta.grid = GridDims::new(4, 4);
        meta.channels = MAX_CHANNELS + 1;
        let body = meta.encode_body(1);
        let err = ShardMeta::decode_body(&body, Path::new("mem"), SHARD_VERSION).unwrap_err();
        assert!(matches!(err, ShardError::Corrupt { .. }), "{err}");

        meta.channels = 2;
        meta.designs.clear();
        let body = meta.encode_body(1);
        let err = ShardMeta::decode_body(&body, Path::new("mem"), SHARD_VERSION).unwrap_err();
        assert!(matches!(err, ShardError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn pack_codec_round_trips_exactly() {
        // Word patterns exercising all widths: zeros, small deltas, full
        // 32-bit noise, and a partial final group.
        let mut raw = Vec::new();
        for i in 0..133u32 {
            let word = match i % 4 {
                0 => 0u32,
                1 => i,
                2 => 0xDEAD_BEEF ^ i.rotate_left(13),
                _ => 1.0f32.to_bits() + i,
            };
            raw.extend_from_slice(&word.to_le_bytes());
        }
        let payload = pack::compress(&raw);
        let back = pack::decompress(&payload, raw.len(), Path::new("mem")).unwrap();
        assert_eq!(back, raw);
        // Runs of equal words compress far below raw size.
        let flat: Vec<u8> = std::iter::repeat_n(0.5f32.to_bits().to_le_bytes(), 512)
            .flatten()
            .collect();
        let packed = pack::compress(&flat);
        assert!(
            packed.len() * 10 < flat.len(),
            "{} vs {}",
            packed.len(),
            flat.len()
        );
        assert_eq!(
            pack::decompress(&packed, flat.len(), Path::new("mem")).unwrap(),
            flat
        );
    }

    /// Only these tests reach `decompress`'s own checks: through a shard,
    /// the frame CRC refuses damaged payloads first.
    #[test]
    fn pack_codec_rejects_hostile_payloads() {
        let raw: Vec<u8> = (0..64u8).collect();
        let good = pack::compress(&raw);
        let corrupt = |payload: &[u8], raw_len: usize| {
            let err = pack::decompress(payload, raw_len, Path::new("mem")).unwrap_err();
            assert!(matches!(err, ShardError::Corrupt { .. }), "{err}");
        };
        // Wrong advertised length.
        corrupt(&good, raw.len() + 4);
        // Truncated payload, cut at every length.
        for cut in 0..good.len() {
            corrupt(&good[..cut], raw.len());
        }
        // Oversized group width, every one a byte can claim.
        for width in 33..=255u8 {
            let mut bad = good.clone();
            bad[4] = width;
            corrupt(&bad, raw.len());
        }
        // Trailing garbage.
        let mut bad = good;
        bad.push(0);
        corrupt(&bad, raw.len());
    }
}
