//! Hostile-bytes property tests for the checkpoint format: every class
//! of damage a crash, a flaky disk, or an attacker can inflict on a
//! checkpoint file must surface as a *typed* [`CheckpointError`] —
//! never a panic, never a silent partial resume. Mirrors
//! `frame_hostile.rs` in `rte_net`.

use proptest::prelude::*;

use rte_fed::checkpoint::{
    decode_checkpoint, encode_checkpoint, Checkpoint, CheckpointError, HEADER_LEN, MAX_STATE_LEN,
};
use rte_net::crc32;
use rte_tensor::Tensor;

/// Offset of the header CRC within the header (covers bytes 0..44).
const HEADER_CRC_OFFSET: usize = HEADER_LEN - 4;

/// Builds a checkpoint whose state shape and values are drawn from the
/// proptest inputs (the vendored proptest has no composite strategies,
/// so the narrowing happens here).
fn mk_checkpoint(round: u64, seq: u64, digest: u64, planes: &[u32]) -> Checkpoint {
    let state = planes
        .iter()
        .enumerate()
        .map(|(i, &raw)| {
            let len = (raw % 7 + 1) as usize;
            let base = raw as f32;
            (
                format!("plane{i}.w"),
                Tensor::from_fn(&[len], |j| base + j as f32),
            )
        })
        .collect();
    Checkpoint {
        round,
        seq,
        digest,
        state,
    }
}

/// Re-CRCs the header after a deliberate edit, so the field validators
/// — not the CRC — are what the decoder must rely on.
fn fix_header_crc(bytes: &mut [u8]) {
    let crc = crc32(&bytes[..HEADER_CRC_OFFSET]);
    bytes[HEADER_CRC_OFFSET..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A single flipped byte anywhere in an encoded checkpoint is
    /// always caught, by the layer responsible for that region: magic
    /// damage → `BadMagic`, other header damage → `HeaderCrc`, state
    /// or trailer damage → `StateCrc`.
    #[test]
    fn any_single_byte_flip_is_rejected_with_the_right_error(
        round in any::<u64>(),
        seq in any::<u64>(),
        digest in any::<u64>(),
        planes in collection::vec(any::<u32>(), 1..6),
        at_raw in any::<u64>(),
        mask_raw in any::<u32>(),
    ) {
        let ckpt = mk_checkpoint(round, seq, digest, &planes);
        let mut bytes = encode_checkpoint(&ckpt).unwrap();
        let at = (at_raw % bytes.len() as u64) as usize;
        let mask = (mask_raw % 255 + 1) as u8; // any non-zero flip
        bytes[at] ^= mask;
        let err = decode_checkpoint(&bytes, Some(digest)).unwrap_err();
        if at < 8 {
            prop_assert_eq!(err, CheckpointError::BadMagic);
        } else if at < HEADER_LEN {
            prop_assert_eq!(err, CheckpointError::HeaderCrc);
        } else {
            prop_assert_eq!(err, CheckpointError::StateCrc);
        }
    }

    /// Truncation at *every* byte boundary — including every section
    /// boundary (magic end, header end, state end) — is a typed
    /// `Truncated`; the decoder never slices out of bounds and never
    /// returns partial state.
    #[test]
    fn truncation_at_every_boundary_is_typed(
        round in any::<u64>(),
        seq in any::<u64>(),
        digest in any::<u64>(),
        planes in collection::vec(any::<u32>(), 1..5),
    ) {
        let bytes = encode_checkpoint(&mk_checkpoint(round, seq, digest, &planes)).unwrap();
        for cut in 0..bytes.len() {
            let err = decode_checkpoint(&bytes[..cut], Some(digest)).unwrap_err();
            prop_assert!(
                matches!(err, CheckpointError::Truncated { .. }),
                "cut at {} of {} gave {:?}",
                cut,
                bytes.len(),
                err
            );
        }
        // The untruncated original still decodes (the loop above did
        // not depend on a damaged input).
        prop_assert!(decode_checkpoint(&bytes, Some(digest)).is_ok());
    }

    /// A consistently re-CRC'd wrong version is the typed version
    /// error, and a wrong digest expectation is the typed mismatch —
    /// both *after* CRC validation, so the fields can be trusted.
    #[test]
    fn version_and_digest_mismatches_are_typed(
        round in any::<u64>(),
        seq in any::<u64>(),
        digest in any::<u64>(),
        planes in collection::vec(any::<u32>(), 1..4),
        version_raw in any::<u32>(),
        other_digest in any::<u64>(),
    ) {
        let bytes = encode_checkpoint(&mk_checkpoint(round, seq, digest, &planes)).unwrap();

        let bad_version = version_raw.max(2); // anything but 1 (and 0 for clarity)
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&bad_version.to_le_bytes());
        fix_header_crc(&mut bad);
        prop_assert_eq!(
            decode_checkpoint(&bad, Some(digest)).unwrap_err(),
            CheckpointError::UnsupportedVersion { got: bad_version }
        );

        if other_digest != digest {
            prop_assert_eq!(
                decode_checkpoint(&bytes, Some(other_digest)).unwrap_err(),
                CheckpointError::DigestMismatch { got: digest, want: other_digest }
            );
        }
    }

    /// An oversized declared state length — consistently re-CRC'd so it
    /// reaches the cap check — is rejected before any allocation, and a
    /// shrunk declared length makes the state section fail its CRC
    /// (never a silent partial parse).
    #[test]
    fn hostile_state_lengths_are_typed(
        round in any::<u64>(),
        seq in any::<u64>(),
        digest in any::<u64>(),
        planes in collection::vec(any::<u32>(), 1..4),
        shrink_raw in any::<u32>(),
    ) {
        let bytes = encode_checkpoint(&mk_checkpoint(round, seq, digest, &planes)).unwrap();
        let state_len = bytes.len() - HEADER_LEN - 4;

        let mut huge = bytes.clone();
        huge[36..44].copy_from_slice(&(MAX_STATE_LEN + 1).to_le_bytes());
        fix_header_crc(&mut huge);
        prop_assert!(matches!(
            decode_checkpoint(&huge, Some(digest)).unwrap_err(),
            CheckpointError::Oversize { .. }
        ));

        if state_len > 1 {
            let shrunk_len = (shrink_raw as usize % (state_len - 1)) as u64;
            let mut shrunk = bytes.clone();
            shrunk[36..44].copy_from_slice(&shrunk_len.to_le_bytes());
            fix_header_crc(&mut shrunk);
            let err = decode_checkpoint(&shrunk, Some(digest)).unwrap_err();
            prop_assert!(
                matches!(err, CheckpointError::StateCrc | CheckpointError::State { .. }),
                "shrunk length {} of {} gave {:?}",
                shrunk_len,
                state_len,
                err
            );
        }
    }
}

/// The state CRC ends the file: one appended byte, or seven, is the
/// typed trailing-bytes error — checked after the state CRC, so it names
/// an intact checkpoint with a tail — while the untouched bytes decode.
#[test]
fn appended_tails_are_typed() {
    let ckpt = mk_checkpoint(3, 17, 0xD1, &[5, 9, 2]);
    let bytes = encode_checkpoint(&ckpt).unwrap();
    assert_eq!(decode_checkpoint(&bytes, Some(0xD1)).unwrap(), ckpt);
    for tail in [&[0u8][..], &[0xAB, 1, 2, 3, 4, 5, 6][..]] {
        let mut appended = bytes.clone();
        appended.extend_from_slice(tail);
        assert_eq!(
            decode_checkpoint(&appended, Some(0xD1)).unwrap_err(),
            CheckpointError::TrailingBytes { extra: tail.len() },
            "{}-byte tail",
            tail.len()
        );
    }
}
