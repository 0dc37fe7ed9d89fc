//! Hostile-bytes property tests for the state-dict codec — the one
//! payload format every deploy, update and checkpoint carries, and the
//! one that sits *inside* the CRC'd envelopes: a peer that checksums
//! its lies correctly reaches this parser with whatever bytes it likes.
//! Every class of damage must surface as a *typed* [`NnError`] — never
//! a panic, never an allocation the input does not pay for. Same
//! discipline as `frame_hostile.rs` in `rte_net`; both readers (the
//! stream one and the slice one) are held to it and to each other.

use proptest::prelude::*;

use rte_nn::serialize::{read_state_dict, read_state_dict_slice, write_state_dict};
use rte_nn::{NnError, StateDict};
use rte_tensor::Tensor;

/// Builds a state dict whose entry count, names, ranks and extents are
/// drawn from the proptest inputs (the vendored proptest has no
/// composite strategies, so the narrowing happens here). Extents run
/// from 0, so empty tensors are in the mix.
fn mk_dict(entries: &[u32]) -> StateDict {
    entries
        .iter()
        .enumerate()
        .map(|(i, &raw)| {
            let dims: Vec<usize> = (0..raw % 4)
                .map(|axis| ((raw >> (8 * axis + 2)) % 6) as usize)
                .collect();
            let base = raw as f32;
            (
                format!("layer{i}/{}", "w".repeat((raw % 5) as usize)),
                Tensor::from_fn(&dims, |j| base - j as f32),
            )
        })
        .collect()
}

fn encode(sd: &StateDict) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_state_dict(&mut bytes, sd).unwrap();
    bytes
}

/// Runs both readers over `bytes`, insists they agree, and returns
/// their common verdict.
fn decode(bytes: &[u8]) -> Result<StateDict, NnError> {
    let streamed = read_state_dict(bytes);
    let sliced = read_state_dict_slice(bytes);
    match (&streamed, &sliced) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "readers decoded different dicts"),
        (Err(_), Err(_)) => {}
        _ => panic!("readers disagree: stream {streamed:?}, slice {sliced:?}"),
    }
    sliced
}

/// One entry's header: `name_len`, name, `rank`, `dims` — everything
/// before the data, with each field forgeable.
fn forged_entry(name_len: u64, name: &[u8], rank: u64, dims: &[u64]) -> Vec<u8> {
    let mut bytes = b"RTESD1\0\0".to_vec();
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&name_len.to_le_bytes());
    bytes.extend_from_slice(name);
    bytes.extend_from_slice(&rank.to_le_bytes());
    for d in dims {
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    bytes
}

fn assert_typed(err: &NnError, needle: &str) {
    assert!(
        matches!(err, NnError::StateDictMismatch { reason } if reason.contains(needle)),
        "expected a StateDictMismatch mentioning {needle:?}, got {err:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A flipped byte anywhere either fails with a typed error or
    /// decodes to a dict that re-encodes to exactly the damaged bytes
    /// (there is no checksum at this layer: a flipped weight *is* a
    /// valid, different dict). Nothing in between, and never a panic.
    #[test]
    fn any_single_byte_flip_is_typed_or_self_consistent(
        entries in collection::vec(any::<u32>(), 0..6),
        at_raw in any::<u64>(),
        mask_raw in any::<u32>(),
    ) {
        let mut bytes = encode(&mk_dict(&entries));
        let at = (at_raw % bytes.len() as u64) as usize;
        bytes[at] ^= (mask_raw % 255 + 1) as u8; // any non-zero flip
        match decode(&bytes) {
            Ok(sd) => {
                let again = encode(&sd);
                prop_assert!(bytes.starts_with(&again), "flip at {} decoded inconsistently", at);
            }
            Err(e) => prop_assert!(
                matches!(e, NnError::StateDictMismatch { .. }),
                "flip at {}: {:?}", at, e
            ),
        }
    }

    /// Truncation at *every* byte boundary of an arbitrary dict is a
    /// typed error; the full length decodes.
    #[test]
    fn truncation_at_every_boundary_is_typed(entries in collection::vec(any::<u32>(), 0..6)) {
        let sd = mk_dict(&entries);
        let bytes = encode(&sd);
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).unwrap_err();
            prop_assert!(
                matches!(err, NnError::StateDictMismatch { .. }),
                "cut at {}: {:?}", cut, err
            );
        }
        prop_assert_eq!(decode(&bytes).unwrap(), sd);
    }

    /// A forged entry count is refused: past the cap by the cap, under
    /// it by running out of entries.
    #[test]
    fn forged_count_is_rejected(
        entries in collection::vec(any::<u32>(), 0..6),
        forged in any::<u64>(),
    ) {
        prop_assume!(forged > entries.len() as u64);
        let mut bytes = encode(&mk_dict(&entries));
        bytes[8..16].copy_from_slice(&forged.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        if forged > 1 << 20 {
            assert_typed(&err, "implausible entry count");
        } else {
            assert_typed(&err, "name len");
        }
    }

    /// Forged `name_len`, `rank` and `dims`: each over-cap value is
    /// refused by name, and an in-cap lie runs into the end of input.
    #[test]
    fn forged_entry_fields_are_rejected(
        name_len in any::<u64>(),
        rank in any::<u64>(),
        dim in any::<u64>(),
    ) {
        let err = decode(&forged_entry(name_len, b"w", 0, &[])).unwrap_err();
        if name_len > 1 << 16 {
            assert_typed(&err, "implausible name length");
        } else if name_len > 9 {
            assert_typed(&err, "name:");
        }
        let err = decode(&forged_entry(1, b"w", rank, &[])).unwrap_err();
        if rank > 8 {
            assert_typed(&err, "implausible rank");
        } else if rank > 0 {
            assert_typed(&err, "dim 0");
        }
        // Two extents whose product overflows, exceeds the cap, or is
        // simply more than the (empty) data section holds.
        match decode(&forged_entry(1, b"w", 2, &[dim, dim])) {
            Ok(sd) => prop_assert!(dim == 0 && sd[0].1.data().is_empty()),
            Err(e) if dim > 1 << 14 => assert_typed(&e, "implausible element count"),
            Err(e) => assert_typed(&e, "data"),
        }
    }
}

/// Extent lists chosen to break unchecked arithmetic: wrapping
/// products, a zero hiding an overflow, the cap plus one.
#[test]
fn overflowing_dims_are_typed_not_panics() {
    let cases: [&[u64]; 6] = [
        &[u64::MAX, 2],
        &[1 << 32, 1 << 32],
        &[0, u64::MAX, u64::MAX],
        &[u64::MAX, u64::MAX, 0],
        &[(1 << 28) + 1],
        &[3, 3, 3, 3, 3, 3, 3, 1 << 60],
    ];
    for dims in cases {
        let err = decode(&forged_entry(1, b"w", dims.len() as u64, dims)).unwrap_err();
        assert_typed(&err, "implausible element count");
    }
}

/// A state dict is the last thing in its input: one appended byte, or
/// seven, is a typed trailing-bytes error from both readers, while the
/// untouched bytes decode (the same tails `checkpoint_hostile.rs`
/// appends to a checkpoint).
#[test]
fn appended_tails_are_typed() {
    let sd = mk_dict(&[7, 0x0102_0305, 42]);
    let bytes = encode(&sd);
    assert_eq!(decode(&bytes).unwrap(), sd);
    for tail in [&[0u8][..], &[0xAB, 1, 2, 3, 4, 5, 6][..]] {
        let mut appended = bytes.clone();
        appended.extend_from_slice(tail);
        assert_typed(&decode(&appended).unwrap_err(), "trailing");
    }
}

/// Peak virtual size of this process, in KiB.
#[cfg(target_os = "linux")]
fn vm_peak_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmPeak:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// A ~60-byte input claiming the largest in-cap tensor (2^28 elements,
/// 1 GiB) or the largest in-cap entry list must not get the memory it
/// asks for. An untouched reservation never shows in RSS, so the check
/// is on the address-space high-water mark, which a 1 GiB
/// `Vec::with_capacity` moves whether or not a page is touched.
#[cfg(target_os = "linux")]
#[test]
fn in_cap_lies_reserve_nothing() {
    let big_tensor = forged_entry(1, b"w", 2, &[1 << 14, 1 << 14]);
    let mut big_list = b"RTESD1\0\0".to_vec();
    big_list.extend_from_slice(&(1u64 << 20).to_le_bytes());
    let before = vm_peak_kib();
    for bytes in [&big_tensor, &big_list] {
        assert!(bytes.len() < 64);
        assert!(read_state_dict(&bytes[..]).is_err());
        assert!(read_state_dict_slice(bytes).is_err());
    }
    let grown_mib = (vm_peak_kib() - before) / 1024;
    // Far below the 1 GiB asked for; far above what a test thread's
    // stack or allocator arena can add meanwhile.
    assert!(
        grown_mib < 256,
        "address space grew by {grown_mib} MiB on 64-byte inputs"
    );
}
