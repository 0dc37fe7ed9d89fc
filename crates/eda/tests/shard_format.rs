//! Robustness tests for the binary shard format: every way a shard file
//! can be damaged — truncation at any stage, foreign magic, unknown
//! version, header or record CRC corruption, zero samples — must surface
//! as a typed [`ShardError`], never a panic; and a property test pins
//! the write→read round trip to bitwise tensor equality.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use rte_eda::corpus::Split;
use rte_eda::dataset::Sample;
use rte_eda::mmap::MmapShardReader;
use rte_eda::placement::GridDims;
use rte_eda::shard::{
    compact_dir, compress_shard, CorpusReader, ShardMeta, ShardReader, ShardWriter, LAZY_CRC_CHUNK,
};
use rte_eda::{EdaError, Family, ShardError};
use rte_tensor::rng::Xoshiro256;
use rte_tensor::Tensor;

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch directory under cargo's per-target tmp dir.
fn scratch_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "shard-format-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn meta(designs: &[&str]) -> ShardMeta {
    ShardMeta {
        seed: 0xC0FFEE,
        client_index: 3,
        split: Split::Train,
        family: Family::Iwls05,
        grid: GridDims::new(4, 4),
        channels: 2,
        placement_scale: 0.5,
        designs: designs.iter().map(|s| s.to_string()).collect(),
    }
}

/// A deterministic sample for design `design` with seeded f32 content
/// (including values that exercise full mantissas, not just round ones).
fn sample(design: &str, seed: u64) -> Sample {
    let mut rng = Xoshiro256::seed_from(seed);
    Sample {
        features: Tensor::from_fn(&[2, 4, 4], |_| rng.normal()),
        label: Tensor::from_fn(&[1, 4, 4], |_| f32::from(u8::from(rng.bernoulli(0.3)))),
        design: design.to_string(),
    }
}

/// Writes a small valid shard and returns its path.
fn valid_shard(dir: &std::path::Path, n_samples: usize) -> PathBuf {
    let path = dir.join("client03.train.rtes");
    let mut writer = ShardWriter::create(&path, meta(&["d0", "d1"])).unwrap();
    for i in 0..n_samples {
        writer
            .append(&sample(if i % 2 == 0 { "d0" } else { "d1" }, 40 + i as u64))
            .unwrap();
    }
    writer.finish().unwrap();
    path
}

fn shard_err(result: Result<ShardReader, EdaError>) -> ShardError {
    match result {
        Err(EdaError::Shard(e)) => e,
        Err(other) => panic!("expected a ShardError, got {other}"),
        Ok(_) => panic!("expected an error, file opened"),
    }
}

/// Opens `path` on the file store, or on the memory map (which then
/// serves the validation too).
fn open_on(path: &std::path::Path, mapped: bool) -> Result<ShardReader, EdaError> {
    if mapped {
        MmapShardReader::open(path)
    } else {
        ShardReader::open(path)
    }
}

/// CRC-32 (IEEE), bit-by-bit — the tests forge header CRCs so hostile
/// *field values* (not CRC damage) reach the validation logic.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Mutates the header body through `f`, then re-forges the prelude's
/// header CRC so the crafted field values pass the integrity check.
fn patch_header(bytes: &mut [u8], f: impl FnOnce(&mut [u8])) {
    let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    f(&mut bytes[20..20 + header_len]);
    let crc = crc32(&bytes[20..20 + header_len]);
    bytes[16..20].copy_from_slice(&crc.to_le_bytes());
}

fn tensor_bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn round_trip_preserves_samples_and_meta() {
    let dir = scratch_dir();
    let path = valid_shard(&dir, 5);
    let reader = ShardReader::open(&path).unwrap();
    assert_eq!(reader.len(), 5);
    assert_eq!(reader.geometry(), (2, 4, 4));
    assert_eq!(reader.meta().seed, 0xC0FFEE);
    assert_eq!(reader.meta().split, Split::Train);
    assert_eq!(reader.meta().designs, vec!["d0", "d1"]);
    for i in 0..5 {
        let got = reader.read_sample(i).unwrap();
        let want = sample(if i % 2 == 0 { "d0" } else { "d1" }, 40 + i as u64);
        assert_eq!(got, want, "sample {i}");
    }
    // Range reads agree with single reads.
    let range = reader.read_range(1..4).unwrap();
    assert_eq!(range.len(), 3);
    assert_eq!(range[0], reader.read_sample(1).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncation_at_every_stage_is_a_typed_error() {
    let dir = scratch_dir();
    let path = valid_shard(&dir, 3);
    let bytes = std::fs::read(&path).unwrap();
    // Cut inside the prelude, inside the header body, at a partial
    // record, and one byte short of complete.
    for cut in [0, 5, 12, 25, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = shard_err(ShardReader::open(&path));
        assert!(
            matches!(err, ShardError::Truncated { .. }),
            "cut at {cut}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wrong_magic_is_a_typed_error() {
    let dir = scratch_dir();
    let path = valid_shard(&dir, 1);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] = b'X';
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        shard_err(ShardReader::open(&path)),
        ShardError::WrongMagic { .. }
    ));
    // A completely foreign file is also WrongMagic, not a panic.
    std::fs::write(&path, b"this is not a shard file at all....").unwrap();
    assert!(matches!(
        shard_err(ShardReader::open(&path)),
        ShardError::WrongMagic { .. }
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_version_is_a_typed_error() {
    let dir = scratch_dir();
    let path = valid_shard(&dir, 1);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = shard_err(ShardReader::open(&path));
    assert!(
        matches!(err, ShardError::UnsupportedVersion { found: 99, .. }),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn header_corruption_fails_the_header_crc() {
    let dir = scratch_dir();
    let path = valid_shard(&dir, 2);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[24] ^= 0xFF; // inside the header body (the seed field)
    std::fs::write(&path, &bytes).unwrap();
    let err = shard_err(ShardReader::open(&path));
    assert!(
        matches!(&err, ShardError::CrcMismatch { what, .. } if what == "header"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn record_corruption_fails_that_record_crc_only() {
    let dir = scratch_dir();
    let path = valid_shard(&dir, 3);
    let bytes = std::fs::read(&path).unwrap();
    let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let data_offset = 20 + header_len;
    let record_len = (bytes.len() - data_offset) / 3;
    // Flip a feature byte in record 1.
    let mut corrupt = bytes.clone();
    corrupt[data_offset + record_len + 10] ^= 0x01;
    std::fs::write(&path, &corrupt).unwrap();
    let reader = ShardReader::open(&path).unwrap(); // header is fine
    assert!(reader.read_sample(0).is_ok(), "record 0 untouched");
    assert!(reader.read_sample(2).is_ok(), "record 2 untouched");
    let err = reader.read_sample(1).unwrap_err();
    assert!(
        matches!(
            &err,
            EdaError::Shard(ShardError::CrcMismatch { what, .. }) if what == "record 1"
        ),
        "{err}"
    );
    // Range reads crossing the bad record fail too.
    assert!(reader.read_range(0..3).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zero_sample_shard_is_a_typed_error() {
    let dir = scratch_dir();
    let path = dir.join("client03.train.rtes");
    let writer = ShardWriter::create(&path, meta(&["d0"])).unwrap();
    assert!(writer.is_empty());
    writer.finish().unwrap();
    assert!(matches!(
        shard_err(ShardReader::open(&path)),
        ShardError::EmptyShard { .. }
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unfinished_shard_cannot_be_opened() {
    let dir = scratch_dir();
    let path = dir.join("client03.train.rtes");
    let mut writer = ShardWriter::create(&path, meta(&["d0"])).unwrap();
    writer.append(&sample("d0", 1)).unwrap();
    // Dropped without finish(): the header still advertises 0 samples,
    // and the file carries record bytes — trailing garbage.
    drop(writer);
    let err = shard_err(ShardReader::open(&path));
    assert!(
        matches!(
            err,
            ShardError::EmptyShard { .. } | ShardError::Corrupt { .. }
        ),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn writer_validates_geometry_and_design_table() {
    let dir = scratch_dir();
    let path = dir.join("client03.train.rtes");
    let mut writer = ShardWriter::create(&path, meta(&["d0"])).unwrap();
    // Unknown design name.
    assert!(writer.append(&sample("nope", 1)).is_err());
    // Wrong geometry.
    let bad = Sample {
        features: Tensor::zeros(&[2, 8, 8]),
        label: Tensor::zeros(&[1, 8, 8]),
        design: "d0".into(),
    };
    assert!(writer.append(&bad).is_err());
    // Empty design table is rejected at create time.
    assert!(ShardWriter::create(dir.join("x.rtes"), meta(&[])).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corpus_reader_validates_directory_layout() {
    let dir = scratch_dir();
    // Empty directory: typed layout error.
    assert!(matches!(
        CorpusReader::open(&dir),
        Err(EdaError::Shard(ShardError::Layout { .. }))
    ));
    // A train shard without its test sibling: layout error.
    valid_shard(&dir, 2);
    let err = CorpusReader::open(&dir).unwrap_err();
    assert!(
        matches!(&err, EdaError::Shard(ShardError::Layout { reason, .. })
            if reason.contains("lacks a test shard")),
        "{err}"
    );
    // Add the sibling: the pair opens.
    let test_path = dir.join("client03.test.rtes");
    let mut m = meta(&["t0"]);
    m.split = Split::Test;
    let mut writer = ShardWriter::create(&test_path, m).unwrap();
    writer.append(&sample("t0", 9)).unwrap();
    writer.finish().unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    assert_eq!(reader.clients().len(), 1);
    assert_eq!(reader.clients()[0].client_index, 3);
    assert_eq!(reader.total_samples(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corpus_writer_leaves_no_tmp_files_and_sweeps_stale_ones() {
    use rte_eda::corpus::CorpusConfig;
    use rte_eda::shard::CorpusWriter;
    let dir = scratch_dir();
    // Debris from a hypothetical interrupted generation: must be swept,
    // must not count as shards, and must not confuse the reader.
    std::fs::write(dir.join("client01.train.rtes.tmp"), b"half-written junk").unwrap();
    assert!(matches!(
        CorpusReader::open(&dir),
        Err(EdaError::Shard(ShardError::Layout { .. })),
    ));
    let summaries = CorpusWriter::new(&dir)
        .with_chunk(4)
        .write(&CorpusConfig::tiny())
        .unwrap();
    assert_eq!(summaries.len(), 18, "9 clients × 2 splits");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("tmp"))
        .collect();
    assert!(leftovers.is_empty(), "tmp debris left: {leftovers:?}");
    // Every summary points at a final, openable .rtes file.
    for summary in &summaries {
        assert_eq!(
            summary.path.extension().and_then(|e| e.to_str()),
            Some("rtes")
        );
        assert!(ShardReader::open(&summary.path).is_ok());
    }
    assert!(CorpusReader::open(&dir).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A config error is refused before the first file exists, and a write
/// that fails after creating its shards removes every `.tmp` file it
/// created.
#[test]
fn failed_corpus_write_leaves_no_tmp_files() {
    use rte_eda::corpus::CorpusConfig;
    use rte_eda::shard::CorpusWriter;
    let dir = scratch_dir();
    let files = |dir: &PathBuf| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let mut small = CorpusConfig::tiny();
    small.grid = GridDims::new(2, 2);
    let err = CorpusWriter::new(&dir).write(&small).unwrap_err();
    assert!(
        matches!(&err, EdaError::InvalidConfig { reason } if reason.contains("too small")),
        "{err}"
    );
    assert!(files(&dir).is_empty(), "{:?}", files(&dir));
    // Every shard is sealed, then a directory squatting on one final
    // name fails its rename.
    std::fs::create_dir(dir.join("client05.test.rtes")).unwrap();
    let err = CorpusWriter::new(&dir)
        .with_chunk(4)
        .write(&CorpusConfig::tiny())
        .unwrap_err();
    assert!(
        matches!(err, EdaError::Shard(ShardError::Io { .. })),
        "{err}"
    );
    let debris: Vec<String> = files(&dir)
        .into_iter()
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(debris.is_empty(), "tmp debris left: {debris:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Write→read round-trips arbitrary tensor content bitwise: for a
    /// random sample count, geometry and seed, every f32 read back has
    /// exactly the bit pattern written.
    #[test]
    fn shard_round_trip_is_bitwise(
        n_samples in 1usize..6,
        channels in 1usize..4,
        height in 2usize..6,
        width in 2usize..6,
        seed in 0u64..1_000_000,
    ) {
        let dir = scratch_dir();
        let path = dir.join("client01.train.rtes");
        let m = ShardMeta {
            seed,
            client_index: 1,
            split: Split::Train,
            family: Family::Itc99,
            grid: GridDims::new(width, height),
            channels,
            placement_scale: 1.0,
            designs: vec!["a".into(), "b".into()],
        };
        let mut rng = Xoshiro256::seed_from(seed);
        let samples: Vec<Sample> = (0..n_samples)
            .map(|i| Sample {
                // normal() exercises full mantissas; mix in exact zeros
                // and negatives.
                features: Tensor::from_fn(&[channels, height, width], |_| {
                    if rng.bernoulli(0.1) { 0.0 } else { rng.normal() }
                }),
                label: Tensor::from_fn(&[1, height, width], |_| {
                    f32::from(u8::from(rng.bernoulli(0.4)))
                }),
                design: if i % 2 == 0 { "a".into() } else { "b".into() },
            })
            .collect();
        let mut writer = ShardWriter::create(&path, m).unwrap();
        for s in &samples {
            writer.append(s).unwrap();
        }
        prop_assert_eq!(writer.finish().unwrap(), n_samples as u64);
        let reader = ShardReader::open(&path).unwrap();
        prop_assert_eq!(reader.len(), n_samples);
        let back = reader.read_range(0..n_samples).unwrap();
        for (got, want) in back.iter().zip(&samples) {
            prop_assert_eq!(&got.design, &want.design);
            let got_bits: Vec<u32> = got.features.data().iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = want.features.data().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got_bits, want_bits);
            let got_bits: Vec<u32> = got.label.data().iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = want.label.data().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got_bits, want_bits);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ---------------------------------------------------------------------
// Hostile-header regressions: crafted field values behind a valid CRC.
// ---------------------------------------------------------------------

/// A forged sample count of 2^63 wraps `n_samples * record_len` to 0 in
/// unchecked u64 arithmetic — which would make the crafted header *pass*
/// the file-size check. Both readers must surface a typed `Corrupt`.
#[test]
fn huge_sample_count_cannot_wrap_the_size_check() {
    let dir = scratch_dir();
    let path = valid_shard(&dir, 3);
    let mut bytes = std::fs::read(&path).unwrap();
    // n_samples lives at header-body offset 34 (after seed, client,
    // split, family, grid dims, channels, placement scale).
    patch_header(&mut bytes, |body| {
        body[34..42].copy_from_slice(&(1u64 << 63).to_le_bytes());
    });
    std::fs::write(&path, &bytes).unwrap();
    let err = shard_err(ShardReader::open(&path));
    assert!(
        matches!(&err, ShardError::Corrupt { reason, .. } if reason.contains("overflows")),
        "{err}"
    );
    let err = shard_err(MmapShardReader::open(&path));
    assert!(
        matches!(&err, ShardError::Corrupt { reason, .. } if reason.contains("overflows")),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A prelude claiming a 4 GiB header must be rejected by the documented
/// cap *before* any buffer of that size is allocated — the length field
/// is attacker-controlled until the header CRC is checked, and the CRC
/// cannot be checked without first trusting the length.
#[test]
fn four_gib_header_claim_is_rejected_before_allocation() {
    let dir = scratch_dir();
    let path = valid_shard(&dir, 1);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    for err in [
        shard_err(ShardReader::open(&path)),
        shard_err(MmapShardReader::open(&path)),
    ] {
        assert!(
            matches!(&err, ShardError::Corrupt { reason, .. }
                if reason.contains("header length") && reason.contains("limit")),
            "{err}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Pathological geometry behind a valid CRC (a 2000-cell grid axis,
/// over the documented limit) is rejected before any record-length
/// arithmetic or division can see it.
#[test]
fn oversized_grid_claim_is_rejected() {
    let dir = scratch_dir();
    let path = valid_shard(&dir, 1);
    let mut bytes = std::fs::read(&path).unwrap();
    patch_header(&mut bytes, |body| {
        body[18..22].copy_from_slice(&2000u32.to_le_bytes()); // grid width
    });
    std::fs::write(&path, &bytes).unwrap();
    for err in [
        shard_err(ShardReader::open(&path)),
        shard_err(MmapShardReader::open(&path)),
    ] {
        assert!(
            matches!(&err, ShardError::Corrupt { reason, .. }
                if reason.contains("validation limits")),
            "{err}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Compression (version-2 shards).
// ---------------------------------------------------------------------

/// compress → open → read returns exactly the bits of the raw shard,
/// with frames that do not align with the sample count.
#[test]
fn compressed_shard_round_trips_bitwise() {
    let dir = scratch_dir();
    let path = valid_shard(&dir, 7);
    let cpath = dir.join("client03.train.c.rtes");
    let stats = compress_shard(&path, &cpath, 3).unwrap();
    assert_eq!(stats.samples, 7);
    assert!(stats.compressed_bytes > 0);

    let raw = ShardReader::open(&path).unwrap();
    let comp = ShardReader::open(&cpath).unwrap();
    assert!(comp.is_compressed());
    assert_eq!(comp.len(), 7);
    assert_eq!(comp.meta(), raw.meta());
    let want = raw.read_range(0..7).unwrap();
    let got = comp.read_range(0..7).unwrap();
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(tensor_bits(&g.features), tensor_bits(&w.features));
        assert_eq!(tensor_bits(&g.label), tensor_bits(&w.label));
        assert_eq!(g.design, w.design);
    }
    // Single reads land mid-frame and across frame boundaries.
    for i in [0, 2, 3, 5, 6] {
        assert_eq!(comp.read_sample(i).unwrap(), want[i]);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Row gathers return exactly the one-record reads, in the order asked
/// for, on raw and compressed shards: out of order, repeated, inside a
/// frame and across frame boundaries.
#[test]
fn row_reads_match_one_record_reads_in_batch_order() {
    let dir = scratch_dir();
    let path = valid_shard(&dir, 7);
    let cpath = dir.join("client03.train.c.rtes");
    compress_shard(&path, &cpath, 3).unwrap();
    let rows = [5, 0, 6, 2, 3, 3, 1, 4];
    for reader in [
        ShardReader::open(&path).unwrap(),
        ShardReader::open(&cpath).unwrap(),
    ] {
        let (mut want_f, mut want_l) = (Vec::new(), Vec::new());
        for &r in &rows {
            reader
                .read_batch_into(r..r + 1, &mut want_f, &mut want_l)
                .unwrap();
        }
        // Rows append after what the buffers already hold.
        let (mut f, mut l) = (vec![7.0f32], vec![7.0f32]);
        reader.read_rows_into(&rows, &mut f, &mut l).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&f[1..]), bits(&want_f));
        assert_eq!(bits(&l[1..]), bits(&want_l));
        assert!(reader.read_rows_into(&[1, 7], &mut f, &mut l).is_err());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// compact_dir rewrites raw shards in place, skips already-compressed
/// ones on a second pass, and the directory keeps opening cleanly.
#[test]
fn compact_dir_is_idempotent_and_readable() {
    let dir = scratch_dir();
    valid_shard(&dir, 4);
    let mut m = meta(&["t0"]);
    m.split = Split::Test;
    let mut writer = ShardWriter::create(dir.join("client03.test.rtes"), m).unwrap();
    writer.append(&sample("t0", 9)).unwrap();
    writer.finish().unwrap();
    let before: Vec<Sample> = {
        let reader = CorpusReader::open(&dir).unwrap();
        let c = &reader.clients()[0];
        (0..c.train.len())
            .map(|i| c.train.read_sample(i).unwrap())
            .collect()
    };

    let summary = compact_dir(&dir, 2).unwrap();
    assert_eq!((summary.compressed, summary.skipped), (2, 0));
    assert!(summary.raw_bytes > 0);
    let again = compact_dir(&dir, 2).unwrap();
    assert_eq!((again.compressed, again.skipped), (0, 2));

    let reader = CorpusReader::open(&dir).unwrap();
    let c = &reader.clients()[0];
    assert!(c.train.is_compressed());
    for (i, want) in before.iter().enumerate() {
        assert_eq!(&c.train.read_sample(i).unwrap(), want);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A compaction whose write fails half-way (here: the temp name is a
/// link to a device that is always full) removes its `.tmp` file and
/// leaves the raw shard in place and readable.
#[cfg(unix)]
#[test]
fn failed_compaction_leaves_no_tmp_file() {
    let full = std::path::Path::new("/dev/full");
    if !full.exists() {
        return;
    }
    let dir = scratch_dir();
    let path = valid_shard(&dir, 3);
    let want = read_all(&path);
    std::os::unix::fs::symlink(full, dir.join("client03.train.tmp")).unwrap();
    assert!(compact_dir(&dir, 2).is_err());
    let names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, ["client03.train.rtes"], "debris left");
    let reader = ShardReader::open(&path).unwrap();
    assert!(!reader.is_compressed());
    assert_eq!(read_all(&path), want);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// The memory-mapped store.
// ---------------------------------------------------------------------

/// The mapped store returns bit-identical planes to the file store, and
/// its per-chunk CRC bitmap verifies lazily: chunks are checked on
/// first touch only. The shard spans three lazy-CRC chunks, the last
/// one record long.
#[test]
fn mmap_reader_is_bitwise_identical_and_lazy() {
    let n = 2 * LAZY_CRC_CHUNK + 1;
    let dir = scratch_dir();
    let path = valid_shard(&dir, n);
    let read = ShardReader::open(&path).unwrap();
    assert_eq!(read.verified_chunks(), 0);
    let mapped = open_on(&path, true).unwrap();
    assert!(mapped.is_mapped() && !read.is_mapped());
    assert_eq!(mapped.len(), n);
    assert_eq!(mapped.geometry(), read.geometry());
    assert_eq!(mapped.meta(), read.meta());
    assert_eq!(mapped.verified_chunks(), 0, "open must not touch data");

    let mut mf = Vec::new();
    let mut ml = Vec::new();
    mapped.read_batch_into(0..1, &mut mf, &mut ml).unwrap();
    assert_eq!(mapped.verified_chunks(), 1, "first touch verifies chunk 0");
    mapped
        .read_batch_into(0..1, &mut Vec::new(), &mut Vec::new())
        .unwrap();
    assert_eq!(mapped.verified_chunks(), 1, "re-reads skip verification");

    mf.clear();
    ml.clear();
    mapped.read_batch_into(0..n, &mut mf, &mut ml).unwrap();
    assert_eq!(
        mapped.verified_chunks(),
        3,
        "2 chunks and 1 record = 3 chunks"
    );
    let want = read.read_range(0..n).unwrap();
    let want_f: Vec<u32> = want.iter().flat_map(|s| tensor_bits(&s.features)).collect();
    let want_l: Vec<u32> = want.iter().flat_map(|s| tensor_bits(&s.label)).collect();
    assert_eq!(mf.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want_f);
    assert_eq!(ml.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want_l);
    for (i, want) in want.iter().enumerate() {
        assert_eq!(&mapped.read_sample(i).unwrap(), want);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A compressed shard on the mapped store gives the bits of the file
/// store: range reads inside and across frames, row gathers out of
/// order, and single samples. Frames are CRC-checked on every decode,
/// so no lazy chunk is ever recorded.
#[test]
fn mapped_compressed_shard_is_bitwise_identical() {
    let dir = scratch_dir();
    let path = valid_shard(&dir, 7);
    let cpath = dir.join("c.rtes");
    compress_shard(&path, &cpath, 3).unwrap();
    let read = ShardReader::open(&cpath).unwrap();
    let mapped = MmapShardReader::open(&cpath).unwrap();
    assert!(mapped.is_mapped() && mapped.is_compressed());
    assert_eq!(mapped.meta(), read.meta());
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for range in [0..7, 1..2, 2..4, 3..6, 6..7] {
        let (mut want_f, mut want_l) = (Vec::new(), Vec::new());
        read.read_batch_into(range.clone(), &mut want_f, &mut want_l)
            .unwrap();
        let (mut f, mut l) = (Vec::new(), Vec::new());
        mapped
            .read_batch_into(range.clone(), &mut f, &mut l)
            .unwrap();
        assert_eq!(bits(&f), bits(&want_f), "{range:?}");
        assert_eq!(bits(&l), bits(&want_l), "{range:?}");
    }
    let rows = [6, 1, 4, 0, 4, 2];
    let (mut want_f, mut want_l) = (Vec::new(), Vec::new());
    read.read_rows_into(&rows, &mut want_f, &mut want_l)
        .unwrap();
    let (mut f, mut l) = (Vec::new(), Vec::new());
    mapped.read_rows_into(&rows, &mut f, &mut l).unwrap();
    assert_eq!(bits(&f), bits(&want_f));
    assert_eq!(bits(&l), bits(&want_l));
    for i in 0..7 {
        assert_eq!(mapped.read_sample(i).unwrap(), read.read_sample(i).unwrap());
    }
    assert_eq!(mapped.verified_chunks(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A flipped record byte is caught by the lazy CRC on first touch of
/// that record's chunk, and only that chunk: the shard spans three
/// lazy-CRC chunks and the damage is in the middle one.
#[test]
fn mmap_detects_record_corruption_per_chunk() {
    let n = 3 * LAZY_CRC_CHUNK;
    let dir = scratch_dir();
    let path = valid_shard(&dir, n);
    let bytes = std::fs::read(&path).unwrap();
    let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let data_offset = 20 + header_len;
    let record_len = (bytes.len() - data_offset) / n;
    let damaged = LAZY_CRC_CHUNK + 1;
    let mut corrupt = bytes.clone();
    corrupt[data_offset + damaged * record_len + 10] ^= 0x01;
    std::fs::write(&path, &corrupt).unwrap();
    let mapped = ShardReader::open(&path).unwrap().mapped().unwrap();
    let (mut f, mut l) = (Vec::new(), Vec::new());
    assert!(mapped.read_batch_into(0..1, &mut f, &mut l).is_ok());
    assert!(mapped.read_batch_into(n - 1..n, &mut f, &mut l).is_ok());
    let err = mapped
        .read_batch_into(LAZY_CRC_CHUNK..LAZY_CRC_CHUNK + 1, &mut f, &mut l)
        .unwrap_err();
    let want = format!("record {damaged}");
    assert!(
        matches!(
            &err,
            EdaError::Shard(ShardError::CrcMismatch { what, .. }) if *what == want
        ),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Torn writes: what a crash or a lost write can leave under a shard's
// final name. Every cut length, the tail zero-filled from every offset
// at full length (what a lost write leaves on ext4), and so the
// all-zero file: each is a typed error from `open` or from a read —
// never a panic, never different bits.
// ---------------------------------------------------------------------

/// Every torn form of `clean` with a label: each proper prefix, then the
/// full-length file zero-filled from each offset (offset 0 is the
/// all-zero file). A form equal to `clean` — a tail that was zero
/// already — is not damage and is skipped.
fn torn_forms(clean: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let cuts = (0..clean.len()).map(|n| (format!("cut to {n} bytes"), clean[..n].to_vec()));
    let zeroed = (0..clean.len()).map(|at| {
        let mut bytes = clean.to_vec();
        bytes[at..].fill(0);
        (format!("zero-filled from byte {at}"), bytes)
    });
    cuts.chain(zeroed).filter(move |(_, bytes)| bytes != clean)
}

/// Every sample of the shard at `path`, read before it is damaged.
fn read_all(path: &std::path::Path) -> Vec<Sample> {
    let reader = ShardReader::open(path).unwrap();
    (0..reader.len())
        .map(|i| reader.read_sample(i).unwrap())
        .collect()
}

/// Writes `torn` at `path`, then requires a typed [`ShardError`] from
/// `open` (on the file store, or `mapped`) or from at least one
/// `read_sample`, and the original bits from every read that succeeds.
fn assert_torn_is_typed(
    path: &std::path::Path,
    torn: &[u8],
    want: &[Sample],
    what: &str,
    mapped: bool,
) {
    std::fs::write(path, torn).unwrap();
    let reader = match open_on(path, mapped) {
        Err(EdaError::Shard(_)) => return,
        Err(other) => panic!("{what}: open gave an untyped error: {other}"),
        Ok(reader) => reader,
    };
    assert_eq!(reader.len(), want.len(), "{what}: the header survived");
    let mut typed = false;
    for (i, w) in want.iter().enumerate() {
        match reader.read_sample(i) {
            Ok(got) => {
                assert_eq!(got.design, w.design, "{what}: sample {i}");
                assert_eq!(
                    tensor_bits(&got.features),
                    tensor_bits(&w.features),
                    "{what}"
                );
                assert_eq!(tensor_bits(&got.label), tensor_bits(&w.label), "{what}");
            }
            Err(EdaError::Shard(_)) => typed = true,
            Err(other) => panic!("{what}: sample {i} gave an untyped error: {other}"),
        }
    }
    assert!(typed, "{what}: every sample read back without an error");
}

/// The all-zero file of a shard's length carries no magic: `WrongMagic`.
fn assert_all_zero_is_wrong_magic(path: &std::path::Path, len: usize) {
    std::fs::write(path, vec![0u8; len]).unwrap();
    assert!(matches!(
        shard_err(ShardReader::open(path)),
        ShardError::WrongMagic { .. }
    ));
}

#[test]
fn torn_raw_shards_are_typed_errors() {
    let dir = scratch_dir();
    let path = valid_shard(&dir, 3);
    let want = read_all(&path);
    let clean = std::fs::read(&path).unwrap();
    for (what, torn) in torn_forms(&clean) {
        assert_torn_is_typed(&path, &torn, &want, &what, false);
        // The mapped store validates the same bytes through the same
        // header path and its own lazy record CRCs.
        if let Ok(mapped) = open_on(&path, true) {
            let (mut f, mut l) = (Vec::new(), Vec::new());
            let err = mapped.read_batch_into(0..3, &mut f, &mut l).unwrap_err();
            assert!(matches!(err, EdaError::Shard(_)), "{what}: {err}");
        }
    }
    assert_all_zero_is_wrong_magic(&path, clean.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_compressed_shards_are_typed_errors() {
    let dir = scratch_dir();
    let raw = valid_shard(&dir, 5);
    let path = dir.join("c.rtes");
    // Three frames, the last one short.
    compress_shard(&raw, &path, 2).unwrap();
    let want = read_all(&path);
    let clean = std::fs::read(&path).unwrap();
    for (what, torn) in torn_forms(&clean) {
        for mapped in [false, true] {
            assert_torn_is_typed(&path, &torn, &want, &what, mapped);
        }
    }
    assert_all_zero_is_wrong_magic(&path, clean.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Hostile-bytes property tests: flip any byte of a valid file.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mutating any single byte of a valid raw shard must yield, from
    /// BOTH readers, either a typed error or bitwise-original data —
    /// never a panic, never garbage. (The allocation cap is pinned
    /// separately by `four_gib_header_claim_is_rejected_before_allocation`.)
    #[test]
    fn hostile_byte_flips_are_typed_errors_or_clean_reads(
        index in 0usize..1_000_000,
        xor_m1 in 0u8..255,
    ) {
        let dir = scratch_dir();
        let path = valid_shard(&dir, 4);
        let clean = std::fs::read(&path).unwrap();
        let want: Vec<Sample> = {
            let reader = ShardReader::open(&path).unwrap();
            (0..4).map(|i| reader.read_sample(i).unwrap()).collect()
        };
        let mut bytes = clean.clone();
        let at = index % bytes.len();
        bytes[at] ^= xor_m1.wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();

        // Read-based path: open may fail (typed); reads may fail
        // (typed); whatever succeeds must be bit-identical.
        if let Ok(reader) = ShardReader::open(&path) {
            for (i, w) in want.iter().enumerate() {
                if let Ok(got) = reader.read_sample(i) {
                    prop_assert_eq!(tensor_bits(&got.features), tensor_bits(&w.features));
                    prop_assert_eq!(tensor_bits(&got.label), tensor_bits(&w.label));
                }
            }
        }
        // Mapped store: same contract, same validation core.
        if let Ok(mapped) = open_on(&path, true) {
            let (mut f, mut l) = (Vec::new(), Vec::new());
            if mapped.read_batch_into(0..4, &mut f, &mut l).is_ok() {
                let want_f: Vec<u32> =
                    want.iter().flat_map(|s| tensor_bits(&s.features)).collect();
                prop_assert_eq!(
                    f.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want_f
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The same contract holds for compressed (version-2) shards on
    /// both stores: any single-byte flip in the header, chunk directory
    /// or frame payloads is a typed error or a bitwise-clean read.
    #[test]
    fn hostile_byte_flips_on_compressed_shards(
        index in 0usize..1_000_000,
        xor_m1 in 0u8..255,
    ) {
        let dir = scratch_dir();
        let raw = valid_shard(&dir, 4);
        let path = dir.join("c.rtes");
        compress_shard(&raw, &path, 3).unwrap();
        let want: Vec<Sample> = {
            let reader = ShardReader::open(&raw).unwrap();
            (0..4).map(|i| reader.read_sample(i).unwrap()).collect()
        };
        let clean = std::fs::read(&path).unwrap();
        let mut bytes = clean.clone();
        let at = index % bytes.len();
        bytes[at] ^= xor_m1.wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        for mapped in [false, true] {
            if let Ok(reader) = open_on(&path, mapped) {
                for (i, w) in want.iter().enumerate() {
                    if let Ok(got) = reader.read_sample(i) {
                        prop_assert_eq!(tensor_bits(&got.features), tensor_bits(&w.features));
                        prop_assert_eq!(tensor_bits(&got.label), tensor_bits(&w.label));
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
