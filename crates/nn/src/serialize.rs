//! State-dict persistence.
//!
//! A minimal, dependency-free binary format for saving trained models
//! (e.g. the FedProx global model a developer would ship to clients) and
//! loading them back. Little-endian, versioned:
//!
//! ```text
//! magic  b"RTESD1\0\0"           (8 bytes)
//! count  u64                     number of entries
//! entry: name_len u64, name utf-8 bytes,
//!        rank u64, dims u64 × rank,
//!        data f32-le × numel
//! ```
//!
//! A state dict is the last thing in its input: a deploy's or update's
//! payload, a checkpoint's state section, a file. The one decoder,
//! [`read_state_dict_slice`], reads it through [`rte_codec::Reader`], so
//! every declared size is checked against the bytes actually left before
//! anything is allocated for it, and a byte after the last entry is a
//! typed error, not ignored. [`read_state_dict`] reads a stream to its
//! end and decodes that.

use std::io::{self, Read, Write};

use rte_codec::{CodecError, Reader};
use rte_tensor::Tensor;

use crate::{NnError, StateDict};

const MAGIC: &[u8; 8] = b"RTESD1\0\0";

/// Tensor data is written this many `f32`s at a time: one 4 KiB stack
/// buffer per `write_all` instead of one call per value.
const CHUNK_ELEMS: usize = 1024;

/// Defensive caps on declared sizes: no model in this workspace comes
/// near them, and a corrupt field must not drive a huge allocation.
const MAX_ENTRIES: u64 = 1 << 20;
const MAX_NAME_LEN: u64 = 1 << 16;
const MAX_RANK: u64 = 8;
const MAX_NUMEL: u64 = 1 << 28;

/// Exact byte length [`write_state_dict`] produces for `sd`.
pub fn state_dict_encoded_len(sd: &StateDict) -> usize {
    16 + sd
        .iter()
        .map(|(name, tensor)| {
            8 + name.len() + 8 + 8 * tensor.shape().dims().len() + 4 * tensor.data().len()
        })
        .sum::<usize>()
}

/// Appends the encoding of `sd` to `buf`, reserving its exact size
/// first — the way to serialize into a buffer that already holds a
/// message or checkpoint header, with no staging copy.
pub fn append_state_dict(buf: &mut Vec<u8>, sd: &StateDict) {
    buf.reserve_exact(state_dict_encoded_len(sd));
    write_state_dict(&mut *buf, sd).expect("writing to a Vec cannot fail");
}

/// Writes a state dict to `writer` (pass `&mut file` — any `io::Write`
/// works by value or by mutable reference).
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_state_dict<W: Write>(mut writer: W, sd: &StateDict) -> io::Result<()> {
    writer.write_all(MAGIC)?;
    writer.write_all(&(sd.len() as u64).to_le_bytes())?;
    let mut chunk = [0u8; 4 * CHUNK_ELEMS];
    for (name, tensor) in sd {
        let name_bytes = name.as_bytes();
        writer.write_all(&(name_bytes.len() as u64).to_le_bytes())?;
        writer.write_all(name_bytes)?;
        let dims = tensor.shape().dims();
        writer.write_all(&(dims.len() as u64).to_le_bytes())?;
        for &d in dims {
            writer.write_all(&(d as u64).to_le_bytes())?;
        }
        for values in tensor.data().chunks(CHUNK_ELEMS) {
            let bytes = &mut chunk[..4 * values.len()];
            for (dst, v) in bytes.chunks_exact_mut(4).zip(values) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
            writer.write_all(bytes)?;
        }
    }
    Ok(())
}

/// Reads a state dict written by [`write_state_dict`] (pass `&mut file` —
/// any `io::Read` works by value or by mutable reference). The input is
/// read to its end, so its buffer grows only as bytes actually arrive,
/// and then decoded by [`read_state_dict_slice`].
///
/// # Errors
///
/// [`NnError::StateDictMismatch`] for an I/O failure (with its message)
/// and for everything [`read_state_dict_slice`] refuses.
pub fn read_state_dict<R: Read>(mut reader: R) -> Result<StateDict, NnError> {
    let mut bytes = Vec::new();
    reader
        .read_to_end(&mut bytes)
        .map_err(|e| fail(format!("reading: {e}")))?;
    read_state_dict_slice(&bytes)
}

/// Decodes the state dict that `bytes` holds, and nothing else: every
/// declared size is checked against what is actually left in `bytes`
/// before anything is allocated for it, and an honest tensor gets its
/// exact size in one allocation.
///
/// # Errors
///
/// [`NnError::StateDictMismatch`] for a bad magic, an implausible
/// count, name length, rank or element count, a name that is not UTF-8,
/// truncation, and bytes after the last entry.
pub fn read_state_dict_slice(bytes: &[u8]) -> Result<StateDict, NnError> {
    let mut r = Reader::new(bytes, "state dict");
    if r.take(8, "magic").map_err(|e| fail(e.to_string()))? != MAGIC {
        return Err(fail("bad magic: not an RTESD1 state dict".into()));
    }
    let count = r.u64("count").map_err(|e| fail(e.to_string()))?;
    if count > MAX_ENTRIES {
        return Err(fail(format!("implausible entry count {count}")));
    }
    // An in-cap count is still only a claim: start small and let the
    // entries that actually parse grow the list.
    let mut sd = StateDict::with_capacity((count as usize).min(256));
    for i in 0..count {
        let cut = |e: CodecError| fail(format!("entry {i}: {e}"));
        let name_len = r.u64("name len").map_err(cut)?;
        if name_len > MAX_NAME_LEN {
            return Err(fail(format!(
                "entry {i}: implausible name length {name_len}"
            )));
        }
        let name = r
            .take(name_len as usize, "name")
            .map_err(|e| fail(format!("entry {i} name: {e}")))?;
        let name = String::from_utf8(name.to_vec())
            .map_err(|e| fail(format!("entry {i} name not utf-8: {e}")))?;
        let rank = r.u64("rank").map_err(cut)?;
        if rank > MAX_RANK {
            return Err(fail(format!("entry {i}: implausible rank {rank}")));
        }
        let mut dims = Vec::with_capacity(rank as usize);
        // Product of the extents with zeros counted as one: capping it
        // caps the element count and every stride, with no overflow.
        let mut bound = Some(1u64);
        for d in 0..rank {
            let dim = r
                .u64("dim")
                .map_err(|e| fail(format!("entry {i} dim {d}: {e}")))?;
            bound = bound.and_then(|b| b.checked_mul(dim.max(1)));
            dims.push(dim);
        }
        if bound.is_none_or(|b| b > MAX_NUMEL) {
            return Err(fail(format!(
                "entry {i}: implausible element count (dims {dims:?})"
            )));
        }
        let dims: Vec<usize> = dims.iter().map(|&d| d as usize).collect();
        let data = r.f32s(dims.iter().product(), "data").map_err(cut)?;
        let tensor = Tensor::from_vec(data.collect(), &dims).map_err(NnError::Tensor)?;
        sd.push((name, tensor));
    }
    let trailing = r.rest().len();
    if trailing > 0 {
        return Err(fail(format!(
            "{trailing} trailing bytes after the last entry"
        )));
    }
    Ok(sd)
}

fn fail(reason: String) -> NnError {
    NnError::StateDictMismatch { reason }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{FlNet, FlNetConfig};
    use crate::state_dict;
    use rte_tensor::rng::Xoshiro256;

    fn sample_dict() -> StateDict {
        let mut rng = Xoshiro256::seed_from(1);
        let mut model = FlNet::new(
            FlNetConfig {
                in_channels: 2,
                hidden: 4,
                kernel: 3,
                depth: 2,
            },
            &mut rng,
        );
        state_dict(&mut model)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let sd = sample_dict();
        let mut buf = Vec::new();
        write_state_dict(&mut buf, &sd).unwrap();
        let loaded = read_state_dict(buf.as_slice()).unwrap();
        assert_eq!(sd, loaded);
    }

    #[test]
    fn empty_dict_round_trips() {
        let sd = StateDict::new();
        let mut buf = Vec::new();
        write_state_dict(&mut buf, &sd).unwrap();
        assert_eq!(read_state_dict(buf.as_slice()).unwrap(), sd);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_state_dict(&b"NOTMAGIC\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn truncated_stream_rejected() {
        let sd = sample_dict();
        let mut buf = Vec::new();
        write_state_dict(&mut buf, &sd).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_state_dict(buf.as_slice()).is_err());
    }

    #[test]
    fn corrupt_count_rejected_without_huge_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_state_dict(buf.as_slice()).is_err());
    }

    #[test]
    fn loaded_dict_drives_identical_model() {
        let mut rng = Xoshiro256::seed_from(2);
        let cfg = FlNetConfig {
            in_channels: 2,
            hidden: 4,
            kernel: 3,
            depth: 2,
        };
        let mut trained = FlNet::new(cfg, &mut rng);
        let sd = state_dict(&mut trained);
        let mut buf = Vec::new();
        write_state_dict(&mut buf, &sd).unwrap();
        let loaded = read_state_dict(buf.as_slice()).unwrap();
        let mut fresh = FlNet::new(cfg, &mut Xoshiro256::seed_from(99));
        crate::load_state_dict(&mut fresh, &loaded).unwrap();
        use crate::Layer;
        let x = rte_tensor::Tensor::ones(&[1, 2, 6, 6]);
        assert_eq!(
            trained.forward(&x, false).unwrap(),
            fresh.forward(&x, false).unwrap()
        );
    }
}
