//! Versioned, CRC'd coordinator checkpoints — kill a run, resume it,
//! get the same bits.
//!
//! A [`Checkpoint`] captures everything the resilient round loop needs
//! to continue from a completed round: the round index (which *is* the
//! RNG stream position — participant selection and per-`(round, client)`
//! training streams are derived statelessly from the config seed, so no
//! generator state needs saving), the coordinator frame sequence, a
//! digest of the aggregation-relevant config (so a checkpoint cannot be
//! resumed under a different experiment), and the global state dict in
//! the `rte_nn::serialize` format.
//!
//! # On-disk layout (version 1)
//!
//! ```text
//! offset  size  field
//!      0     8  magic "RTECKPT\0"
//!      8     4  version (u32 LE, = 1)
//!     12     8  completed round (u64 LE)
//!     20     8  coordinator frame sequence (u64 LE)
//!     28     8  config digest (u64 LE, FNV-1a over canonical fields)
//!     36     8  state length N (u64 LE, capped at 1 GiB)
//!     44     4  header CRC-32 over bytes 0..44
//!     48     N  global state (`rte_nn::serialize` bytes, magic RTESD1)
//!   48+N     4  state CRC-32 over the N state bytes (the last bytes)
//! ```
//!
//! The header is an [`rte_codec::Envelope`], validated by the same
//! function as the frame prelude: magic → header CRC → version → length
//! cap, all before a single state byte is trusted; then state CRC → the
//! file ends there → digest → the hardened state-dict parser. Every
//! failure is a typed [`CheckpointError`] — a damaged, truncated or
//! appended-to file can never panic the coordinator or resume silently
//! (`checkpoint_hostile.rs` drives this with byte flips, truncation at
//! every boundary and appended tails).
//!
//! Files are written atomically — temp name, then `rename` — the same
//! idiom as the corpus shard writer, so a crash mid-write leaves the
//! previous checkpoint intact and never a half-written latest.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};

use rte_codec::{crc_checked, push_crc, push_u64, CodecError, Envelope, LenField, Reader};
use rte_nn::serialize::{append_state_dict, read_state_dict_slice, state_dict_encoded_len};
use rte_nn::StateDict;

use crate::{Client, FedConfig, FedError};

/// First eight bytes of every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"RTECKPT\0";
/// The format version this build writes and accepts.
pub const CHECKPOINT_VERSION: u32 = 1;
/// Hard cap on the serialized state section (defensive, like
/// `MAX_FRAME_LEN`): rejected before any allocation.
pub const MAX_STATE_LEN: u64 = 1 << 30;
/// The header as an [`Envelope`]: round, frame sequence and config
/// digest are its fixed fields, the state length its body length.
const CHECKPOINT_ENVELOPE: Envelope = Envelope {
    what: "checkpoint",
    magic: CHECKPOINT_MAGIC,
    version: CHECKPOINT_VERSION,
    fields_len: 24,
    len_field: LenField::U64,
    max_len: MAX_STATE_LEN,
};
/// Fixed byte length of the header, CRC included.
pub const HEADER_LEN: usize = CHECKPOINT_ENVELOPE.header_len();

/// Everything a resumed run needs from a completed round.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Rounds completed when the checkpoint was taken (training resumes
    /// at `round + 1`). This is also the RNG stream position: every
    /// per-round stream is derived statelessly from `(seed, round)`.
    pub round: u64,
    /// Coordinator frame sequence counter to continue from.
    pub seq: u64,
    /// [`config_digest`] of the experiment this checkpoint belongs to.
    pub digest: u64,
    /// The aggregated global state after `round`.
    pub state: StateDict,
}

/// Typed failure modes of checkpoint encode/decode/IO — one variant per
/// hostile-bytes condition, mirroring [`rte_net::NetError`]'s
/// discipline: never a panic, never a silent partial resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The first eight bytes are not the checkpoint magic.
    BadMagic,
    /// The file speaks a format version this build does not.
    UnsupportedVersion {
        /// The version the file claimed.
        got: u32,
    },
    /// The file ended before the structure it promised was complete.
    Truncated {
        /// Which section was cut short.
        context: &'static str,
    },
    /// The header checksum does not match the header bytes: none of the
    /// header fields can be trusted.
    HeaderCrc,
    /// The state checksum does not match the state bytes.
    StateCrc,
    /// Bytes follow the state checksum: the file is not one checkpoint
    /// (two writes run together, or another file's tail).
    TrailingBytes {
        /// How many bytes follow the checksum.
        extra: usize,
    },
    /// The declared state length exceeds the documented cap.
    Oversize {
        /// The declared length.
        len: u64,
        /// The documented maximum.
        max: u64,
    },
    /// The checkpoint belongs to a different experiment configuration.
    DigestMismatch {
        /// The digest stored in the file.
        got: u64,
        /// The digest of the running experiment.
        want: u64,
    },
    /// The state section passed its CRC but the hardened state-dict
    /// parser rejected it.
    State {
        /// The parser's message.
        reason: String,
    },
    /// An underlying filesystem operation failed.
    Io {
        /// The OS-level message.
        reason: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "bad checkpoint magic"),
            CheckpointError::UnsupportedVersion { got } => {
                write!(f, "unsupported checkpoint version {got}")
            }
            CheckpointError::Truncated { context } => {
                write!(f, "truncated checkpoint: {context}")
            }
            CheckpointError::HeaderCrc => write!(f, "checkpoint header checksum mismatch"),
            CheckpointError::StateCrc => write!(f, "checkpoint state checksum mismatch"),
            CheckpointError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the checkpoint state")
            }
            CheckpointError::Oversize { len, max } => {
                write!(f, "declared state length {len} exceeds the {max}-byte cap")
            }
            CheckpointError::DigestMismatch { got, want } => write!(
                f,
                "checkpoint config digest {got:#018x} does not match this experiment ({want:#018x})"
            ),
            CheckpointError::State { reason } => write!(f, "checkpoint state rejected: {reason}"),
            CheckpointError::Io { reason } => write!(f, "checkpoint I/O error: {reason}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            return CheckpointError::Truncated {
                context: "file ended mid-section",
            };
        }
        CheckpointError::Io {
            reason: e.to_string(),
        }
    }
}

/// The shared codec's failures keep their checkpoint variants and
/// messages.
impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { field, .. } => CheckpointError::Truncated { context: field },
            CodecError::BadMagic => CheckpointError::BadMagic,
            CodecError::HeaderCrc => CheckpointError::HeaderCrc,
            CodecError::UnsupportedVersion { got } => CheckpointError::UnsupportedVersion { got },
            CodecError::Oversize { len, max } => CheckpointError::Oversize { len, max },
        }
    }
}

impl From<CheckpointError> for FedError {
    fn from(e: CheckpointError) -> Self {
        FedError::Checkpoint {
            reason: e.to_string(),
        }
    }
}

/// FNV-1a, the dependency-free 64-bit digest.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Digest of every config field a resumed run's remaining rounds depend
/// on, plus the fleet shape (client count and weights). Parallelism is
/// deliberately excluded — results must not depend on it (rule 2) — and
/// so a checkpoint taken at `RTE_THREADS=1` resumes bit-identically at
/// `RTE_THREADS=4`.
pub fn config_digest(config: &FedConfig, clients: &[Client]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325; // FNV offset basis
    for v in [
        config.rounds as u64,
        config.local_steps as u64,
        config.batch_size as u64,
        u64::from(config.lr.to_bits()),
        u64::from(config.weight_decay.to_bits()),
        u64::from(config.mu.to_bits()),
        u64::from(config.participation.to_bits()),
        config.eval_every as u64,
        config.seed,
        aggregation_tag(config),
        u64::from(config.scenario.is_some()),
        clients.len() as u64,
    ] {
        h = fnv1a(&v.to_le_bytes(), h);
    }
    for client in clients {
        h = fnv1a(&(client.weight() as u64).to_le_bytes(), h);
    }
    h
}

/// A stable numeric tag for the aggregation rule (the trim ratio's bits
/// ride in the upper half so two trimmed means with different ratios
/// digest differently).
fn aggregation_tag(config: &FedConfig) -> u64 {
    match config.aggregation {
        crate::Aggregation::WeightedMean => 1,
        crate::Aggregation::Median => 2,
        crate::Aggregation::TrimmedMean { trim_ratio } => {
            3 | (u64::from(trim_ratio.to_bits()) << 32)
        }
    }
}

/// Encodes a checkpoint into its on-disk bytes.
///
/// # Errors
///
/// [`CheckpointError::Oversize`] when the state section exceeds the
/// cap.
pub fn encode_checkpoint(checkpoint: &Checkpoint) -> Result<Vec<u8>, CheckpointError> {
    let state_len = state_dict_encoded_len(&checkpoint.state);
    let mut out = Vec::with_capacity(HEADER_LEN + state_len + 4);
    CHECKPOINT_ENVELOPE.push_header(&mut out, CHECKPOINT_VERSION, state_len as u64, |out| {
        push_u64(out, checkpoint.round);
        push_u64(out, checkpoint.seq);
        push_u64(out, checkpoint.digest);
    })?;
    // The state is serialized in place, after the header it was sized
    // for, and checksummed where it lies.
    append_state_dict(&mut out, &checkpoint.state);
    push_crc(&mut out, HEADER_LEN);
    Ok(out)
}

/// Decodes and fully validates checkpoint bytes. With
/// `expected_digest`, a checkpoint from a different experiment is a
/// typed [`CheckpointError::DigestMismatch`].
///
/// # Errors
///
/// A [`CheckpointError`] naming the first validation step that failed;
/// no partial state ever escapes.
pub fn decode_checkpoint(
    bytes: &[u8],
    expected_digest: Option<u64>,
) -> Result<Checkpoint, CheckpointError> {
    let (mut fields, state_len) = CHECKPOINT_ENVELOPE.open(bytes)?;
    let round = fields.u64("round")?;
    let seq = fields.u64("seq")?;
    let digest = fields.u64("digest")?;
    // The cap keeps `state_len + 4` far from overflowing.
    let mut body = Reader::new(&bytes[HEADER_LEN..], "checkpoint");
    let state_block = body.take(state_len as usize + 4, "state")?;
    let state_bytes = crc_checked(state_block).ok_or(CheckpointError::StateCrc)?;
    let extra = body.rest().len();
    if extra > 0 {
        return Err(CheckpointError::TrailingBytes { extra });
    }
    if let Some(want) = expected_digest {
        if digest != want {
            return Err(CheckpointError::DigestMismatch { got: digest, want });
        }
    }
    let state = read_state_dict_slice(state_bytes).map_err(|e| CheckpointError::State {
        reason: e.to_string(),
    })?;
    Ok(Checkpoint {
        round,
        seq,
        digest,
        state,
    })
}

/// The file name a round's checkpoint is written under (zero-padded so
/// lexicographic order is round order).
pub fn checkpoint_file_name(round: u64) -> String {
    format!("ckpt-{round:010}.rteckpt")
}

/// Writes `checkpoint` into `dir` atomically: encode, write to a temp
/// name, `rename` into place. Returns the final path. A failed write or
/// rename removes the temp file. Nothing is synced: a checkpoint a power
/// cut left short or zero-filled fails [`read_checkpoint`] with a typed
/// error instead of resuming.
///
/// # Errors
///
/// Encoding failures and [`CheckpointError::Io`] for filesystem errors.
pub fn write_checkpoint(dir: &Path, checkpoint: &Checkpoint) -> Result<PathBuf, CheckpointError> {
    let bytes = encode_checkpoint(checkpoint)?;
    fs::create_dir_all(dir)?;
    let final_path = dir.join(checkpoint_file_name(checkpoint.round));
    let tmp_path = dir.join(format!(
        ".{}.tmp-{}",
        checkpoint_file_name(checkpoint.round),
        std::process::id()
    ));
    if let Err(e) = fs::write(&tmp_path, &bytes).and_then(|()| fs::rename(&tmp_path, &final_path)) {
        let _ = fs::remove_file(&tmp_path);
        return Err(e.into());
    }
    Ok(final_path)
}

/// Reads and validates the checkpoint at `path`.
///
/// # Errors
///
/// Any [`CheckpointError`] from I/O or validation.
pub fn read_checkpoint(
    path: &Path,
    expected_digest: Option<u64>,
) -> Result<Checkpoint, CheckpointError> {
    let mut bytes = Vec::new();
    fs::File::open(path)?.read_to_end(&mut bytes)?;
    decode_checkpoint(&bytes, expected_digest)
}

/// Finds the newest checkpoint in `dir` — the lexicographically largest
/// `*.rteckpt` name, which by construction is the highest round. A
/// missing or empty directory is `Ok(None)`, not an error (a fresh run
/// with `--resume` simply starts from round one).
///
/// # Errors
///
/// [`CheckpointError::Io`] for directory read failures other than
/// "not found".
pub fn latest_checkpoint(dir: &Path) -> Result<Option<PathBuf>, CheckpointError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut best: Option<PathBuf> = None;
    for entry in entries {
        let path = entry?.path();
        let is_ckpt = path.extension().is_some_and(|ext| ext == "rteckpt")
            && path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-"));
        if !is_ckpt {
            continue;
        }
        // Lexicographic max over zero-padded names = numeric max.
        if best.as_ref().is_none_or(|b| path > *b) {
            best = Some(path);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rte_codec::crc32;
    use rte_tensor::Tensor;

    fn sample_state() -> StateDict {
        vec![
            (
                "layer.w".to_string(),
                Tensor::from_fn(&[2, 3], |i| i as f32),
            ),
            (
                "layer.b".to_string(),
                Tensor::from_fn(&[3], |i| -(i as f32)),
            ),
        ]
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            round: 7,
            seq: 42,
            digest: 0xDEAD_BEEF_CAFE_F00D,
            state: sample_state(),
        }
    }

    #[test]
    fn round_trips_bitwise() {
        let ckpt = sample();
        let bytes = encode_checkpoint(&ckpt).unwrap();
        let back = decode_checkpoint(&bytes, Some(ckpt.digest)).unwrap();
        assert_eq!(back.round, 7);
        assert_eq!(back.seq, 42);
        assert_eq!(back.digest, ckpt.digest);
        assert_eq!(back.state.len(), 2);
        for ((na, ta), (nb, tb)) in ckpt.state.iter().zip(back.state.iter()) {
            assert_eq!(na, nb);
            let a: Vec<u32> = ta.data().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = tb.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "state survives bit-for-bit");
        }
        // Encoding is deterministic: same checkpoint, same bytes.
        assert_eq!(bytes, encode_checkpoint(&ckpt).unwrap());
    }

    #[test]
    fn digest_mismatch_is_typed() {
        let ckpt = sample();
        let bytes = encode_checkpoint(&ckpt).unwrap();
        let err = decode_checkpoint(&bytes, Some(1)).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::DigestMismatch {
                got: ckpt.digest,
                want: 1
            }
        );
        // Without an expectation the digest is returned, not checked.
        assert!(decode_checkpoint(&bytes, None).is_ok());
    }

    #[test]
    fn atomic_write_and_latest_selection() {
        let dir = std::env::temp_dir().join(format!("rte-ckpt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(latest_checkpoint(&dir).unwrap(), None);
        let mut ckpt = sample();
        for round in [3u64, 12, 7] {
            ckpt.round = round;
            write_checkpoint(&dir, &ckpt).unwrap();
        }
        let latest = latest_checkpoint(&dir).unwrap().unwrap();
        assert!(latest.ends_with(checkpoint_file_name(12)));
        let back = read_checkpoint(&latest, Some(ckpt.digest)).unwrap();
        assert_eq!(back.round, 12);
        // No temp files left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A write that fails half-way (here: the temp name is a link to a
    /// device that is always full) removes its temp file and leaves no
    /// checkpoint behind.
    #[cfg(unix)]
    #[test]
    fn failed_write_leaves_no_temp_file() {
        let full = Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let dir = std::env::temp_dir().join(format!("rte-ckpt-full-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let ckpt = sample();
        let name = checkpoint_file_name(ckpt.round);
        let tmp = dir.join(format!(".{name}.tmp-{}", std::process::id()));
        std::os::unix::fs::symlink(full, &tmp).unwrap();
        assert!(write_checkpoint(&dir, &ckpt).is_err());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "debris left");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_digest_separates_experiments() {
        use crate::methods::test_support::clients;
        let fleet = clients(3);
        let config = FedConfig::tiny();
        let a = config_digest(&config, &fleet);
        assert_eq!(a, config_digest(&config, &fleet), "digest is stable");
        let mut other = config.clone();
        other.seed ^= 1;
        assert_ne!(a, config_digest(&other, &fleet));
        let mut other = config.clone();
        other.rounds += 1;
        assert_ne!(a, config_digest(&other, &fleet));
        let mut other = config.clone();
        other.aggregation = crate::Aggregation::Median;
        assert_ne!(a, config_digest(&other, &fleet));
        assert_ne!(a, config_digest(&config, &fleet[..2]));
    }

    #[test]
    fn hostile_headers_are_typed() {
        let bytes = encode_checkpoint(&sample()).unwrap();
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            decode_checkpoint(&bad, None).unwrap_err(),
            CheckpointError::BadMagic
        );
        // Version flip is caught by the header CRC first (the field
        // cannot be trusted), exactly like the frame decoder.
        let mut bad = bytes.clone();
        bad[8] ^= 0x01;
        assert_eq!(
            decode_checkpoint(&bad, None).unwrap_err(),
            CheckpointError::HeaderCrc
        );
        // A *consistently re-CRC'd* future version is the version error.
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        let crc = crc32(&bad[..HEADER_LEN - 4]);
        bad[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_checkpoint(&bad, None).unwrap_err(),
            CheckpointError::UnsupportedVersion { got: 99 }
        );
        // State byte flip.
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 3] ^= 0x10;
        assert_eq!(
            decode_checkpoint(&bad, None).unwrap_err(),
            CheckpointError::StateCrc
        );
        // Truncations at a few obvious boundaries.
        for cut in [0, 4, 8, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            let err = decode_checkpoint(&bytes[..cut], None).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Truncated { .. }),
                "cut at {cut} gave {err}"
            );
        }
        // Oversize state length, re-CRC'd so it reaches the cap check.
        let mut bad = bytes.clone();
        bad[36..44].copy_from_slice(&(MAX_STATE_LEN + 1).to_le_bytes());
        let crc = crc32(&bad[..HEADER_LEN - 4]);
        bad[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_checkpoint(&bad, None).unwrap_err(),
            CheckpointError::Oversize { .. }
        ));
    }
}
