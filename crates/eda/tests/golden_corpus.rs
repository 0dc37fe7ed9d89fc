//! Golden pins for the corpus generator: a digest of every bit it
//! produces, compared across commits rather than across thread counts.
//!
//! The determinism suites pin "same seed, same bytes" within one build;
//! nothing else pins the generator's bytes from one commit to the next,
//! which is what a refactor of netlist synthesis, placement, the demand
//! maps or the DRC oracle has to hold. The constants below and the two
//! shard fixtures under `tests/fixtures/` were produced by commit
//! `3098423` (PR 19); a change that moves any of them changes every
//! experiment downstream and has to say so.
//!
//! Everything here goes through API that predates the pins
//! (`generate_corpus_*`, `place`, `CorpusWriter`, `compact_dir`), so
//! this file compiles unchanged on both sides of a generator change.
//! `write_design`, the text form the netlist digests hash, lived in the
//! library's former `interchange` module and is kept here byte for
//! byte, so the digests do not move. To regenerate after a deliberate change: the
//! assertion messages print the new digests, and the fixture test
//! leaves the new shard bytes under `CARGO_TARGET_TMPDIR`.

use std::io::{self, Write};
use std::path::{Path, PathBuf};

use rte_eda::corpus::{
    generate_corpus_for_specs_with, generate_corpus_with, universe_specs, Corpus, CorpusConfig,
    UniverseConfig, PAPER_CLIENTS,
};
use rte_eda::dataset::Sample;
use rte_eda::netlist::{generate_netlist, Netlist};
use rte_eda::placement::{place, GridDims, Placement, PlacementConfig};
use rte_eda::shard::{compact_dir, CorpusWriter, ShardReader, DEFAULT_COMPRESS_CHUNK};
use rte_eda::Family;
use rte_tensor::parallel::Parallelism;

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    /// Shape, every element's bit pattern, and the design name.
    fn sample(&mut self, s: &Sample) {
        for t in [&s.features, &s.label] {
            for &d in t.shape().dims() {
                self.word(d as u64);
            }
            self.f32s(t.data());
        }
        self.word(s.design.len() as u64);
        self.bytes(s.design.as_bytes());
    }
}

/// One digest per client: train samples, then test samples, in order.
fn client_digests(corpus: &Corpus) -> Vec<u64> {
    corpus
        .clients
        .iter()
        .map(|c| {
            let mut h = Fnv::new();
            h.word(c.train.len() as u64);
            h.word(c.test.len() as u64);
            for s in c.train.samples().iter().chain(c.test.samples()) {
                h.sample(s);
            }
            h.0
        })
        .collect()
}

fn hex(digests: &[u64]) -> String {
    let body: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
    format!("[{}]", body.join(", "))
}

const TABLE2_TINY: [u64; 9] = [
    0xefee4f9d9f692c92,
    0x1f0d28a5cb8e7d7f,
    0xbb5260f389db5a55,
    0x049cd91e94a497e9,
    0x30e9ec1e83d9ccdf,
    0xd73e1857d0888ad7,
    0x3da3ca63dec4a849,
    0x042ec917bef6d26b,
    0x4e810f5caa075108,
];

const TABLE2_SCALED: [u64; 9] = [
    0xa5492a6d4c061358,
    0x6e4dcc8c88767244,
    0xe5e694b72ef3e791,
    0xea494a5f8d031a30,
    0xfff75600863dfa30,
    0xe22494bee83df776,
    0x8f2f6f56125ff886,
    0x74cfcdc7399a7c5a,
    0x8267e249bb1dd3e1,
];

/// All 100 clients of the quick universe folded into one digest.
const UNIVERSE_100C_400D: u64 = 0x82c2f07711f0c3d0;

/// Per family (`Family::ALL` order), over design seeds `0..8`.
const NETLISTS: [u64; 4] = [
    0xa17c96047f32a76a,
    0x256eabaa5e171720,
    0x4e69ad02659cb8bb,
    0x5ea3cba0f3ea3561,
];

/// Per family, per grid of [`PLACE_GRIDS`].
const PLACEMENTS: [[u64; 3]; 4] = [
    [0xd5fcc6c702b4367c, 0x0c82169af98a1cda, 0x0dde3309efd4ec58],
    [0x6da3f727c55aff5e, 0x973fe7347908c6ac, 0x8e0769b7f4fd4dfe],
    [0xbca791b770cd6cc6, 0x68d951cf0377af5d, 0xf5ed8fbbc5f69089],
    [0x0e7b127dd10f286f, 0xbc08bbc9b9ebb9d5, 0x950ff26d694cce4e],
];

const PLACE_GRIDS: [(usize, usize); 3] = [(4, 4), (12, 20), (16, 16)];

#[test]
fn table2_tiny_corpus_is_golden() {
    let corpus = generate_corpus_with(&CorpusConfig::tiny(), Parallelism::new(2)).unwrap();
    let got = client_digests(&corpus);
    assert_eq!(got, TABLE2_TINY, "tiny corpus moved: {}", hex(&got));
}

#[test]
fn table2_scaled_corpus_is_golden() {
    let corpus = generate_corpus_with(&CorpusConfig::scaled(), Parallelism::new(2)).unwrap();
    assert_eq!(corpus.total_train() + corpus.total_test(), 595);
    let got = client_digests(&corpus);
    assert_eq!(got, TABLE2_SCALED, "scaled corpus moved: {}", hex(&got));
}

#[test]
fn quick_universe_is_golden() {
    let config = CorpusConfig::tiny();
    let specs = universe_specs(&config, &UniverseConfig::new(100, 400)).unwrap();
    let corpus = generate_corpus_for_specs_with(&specs, &config, Parallelism::new(2)).unwrap();
    assert_eq!(corpus.total_train() + corpus.total_test(), 400);
    let mut h = Fnv::new();
    for d in client_digests(&corpus) {
        h.word(d);
    }
    assert_eq!(h.0, UNIVERSE_100C_400D, "universe moved: {:#018x}", h.0);
}

fn family_token(family: Family) -> &'static str {
    match family {
        Family::Iscas89 => "ISCAS89",
        Family::Itc99 => "ITC99",
        Family::Iwls05 => "IWLS05",
        Family::Ispd15 => "ISPD15",
    }
}

/// Writes a design (and optionally its placement) in the interchange
/// format. Pass `&mut writer` to keep using the writer afterwards.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_design<W: Write>(
    mut writer: W,
    netlist: &Netlist,
    placement: Option<&Placement>,
) -> io::Result<()> {
    writeln!(writer, "rtedesign 1")?;
    writeln!(writer, "name {}", netlist.name)?;
    writeln!(writer, "family {}", family_token(netlist.family))?;
    writeln!(writer, "clusters {}", netlist.cluster_count)?;
    writeln!(writer, "cells {}", netlist.cells.len())?;
    for cell in &netlist.cells {
        writeln!(
            writer,
            "c {} {} {}",
            cell.pins,
            u8::from(cell.is_macro),
            cell.cluster
        )?;
    }
    writeln!(writer, "nets {}", netlist.nets.len())?;
    for net in netlist.nets.iter() {
        write!(writer, "n")?;
        for c in net.cells {
            write!(writer, " {}", c.0)?;
        }
        writeln!(writer)?;
    }
    if let Some(p) = placement {
        writeln!(writer, "grid {} {}", p.grid.width, p.grid.height)?;
        for i in 0..p.x.len() {
            writeln!(writer, "p {} {}", p.x[i], p.y[i])?;
        }
        writeln!(writer, "macros {}", p.macro_rects.len())?;
        for r in &p.macro_rects {
            writeln!(writer, "m {} {} {} {}", r.x0, r.y0, r.x1, r.y1)?;
        }
    }
    writeln!(writer, "end")?;
    Ok(())
}

/// Every field of a netlist: the interchange text carries name, family,
/// cluster count, each cell's pins / macro flag / cluster and each net's
/// pins in order (ids are positions); the derived counts ride along.
#[test]
fn netlists_are_golden() {
    let got: Vec<u64> = Family::ALL
        .iter()
        .map(|&family| {
            let mut h = Fnv::new();
            for seed in 0..8u64 {
                let nl = generate_netlist(family, seed).unwrap();
                let mut text = Vec::new();
                write_design(&mut text, &nl, None).unwrap();
                h.bytes(&text);
                h.word(nl.cells.len() as u64);
                h.word(nl.total_pins() as u64);
                h.word(nl.macro_count() as u64);
                h.word(nl.avg_net_degree().to_bits());
            }
            h.0
        })
        .collect();
    assert_eq!(got, NETLISTS, "netlists moved: {}", hex(&got));
}

/// `place` on three grids (the smallest legal, a non-square one, the
/// corpus's) under three settings each: the default, a loose low-effort
/// run and a tight high-effort one.
#[test]
fn placements_are_golden() {
    let mut got = [[0u64; 3]; 4];
    for (fi, &family) in Family::ALL.iter().enumerate() {
        let nl = generate_netlist(family, 3).unwrap();
        for (gi, &(w, h)) in PLACE_GRIDS.iter().enumerate() {
            let mut digest = Fnv::new();
            for (seed, density, effort) in [(1u64, 0.7f32, 4usize), (2, 0.45, 0), (3, 0.95, 7)] {
                let config = PlacementConfig {
                    grid: GridDims::new(w, h),
                    seed,
                    target_density: density,
                    spread_iterations: effort,
                };
                let p = place(&nl, &config).unwrap();
                assert_eq!(p.grid, config.grid);
                for (&x, &y) in p.x.iter().zip(&p.y) {
                    digest.word(u64::from(x) << 16 | u64::from(y));
                }
                digest.word(p.macro_rects.len() as u64);
                for r in &p.macro_rects {
                    for v in [r.x0, r.y0, r.x1, r.y1] {
                        digest.word(v as u64);
                    }
                }
            }
            got[fi][gi] = digest.0;
        }
    }
    let rows: Vec<String> = got.iter().map(|r| hex(r)).collect();
    assert_eq!(got, PLACEMENTS, "placements moved: [{}]", rows.join(", "));
}

const RAW_SHARD: &[u8] = include_bytes!("fixtures/client02.train.raw.rtes");
const COMPACTED_SHARD: &[u8] = include_bytes!("fixtures/client02.train.v2.rtes");

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("golden-corpus-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_file_is(path: &Path, golden: &[u8], what: &str) {
    let got = std::fs::read(path).unwrap();
    assert!(
        got == golden,
        "{what} moved ({} bytes, fixture {}); the new bytes are at {}",
        got.len(),
        golden.len(),
        path.display()
    );
}

/// Client 2's training shard of the tiny corpus as the writer streams
/// it, then as `compact_dir` rewrites it — generator, record layout and
/// codec in one pair of files — and both read back to the in-memory
/// generator's samples.
#[test]
fn shard_fixtures_are_golden() {
    let dir = scratch_dir("shards");
    let config = CorpusConfig::tiny();
    let spec = PAPER_CLIENTS[1];
    let summaries = CorpusWriter::new(&dir)
        .with_chunk(8)
        .with_parallelism(Parallelism::new(2))
        .write_specs(&[spec], &config)
        .unwrap();
    let train = summaries[0].path.clone();
    assert!(
        train.ends_with("client02.train.rtes"),
        "{}",
        train.display()
    );
    assert_file_is(&train, RAW_SHARD, "raw shard");
    compact_dir(&dir, DEFAULT_COMPRESS_CHUNK).unwrap();
    assert_file_is(&train, COMPACTED_SHARD, "compacted shard");

    let corpus = generate_corpus_for_specs_with(&[spec], &config, Parallelism::serial()).unwrap();
    let expect = corpus.clients[0].train.samples();
    for (name, bytes) in [("raw", RAW_SHARD), ("v2", COMPACTED_SHARD)] {
        let path = dir.join(format!("fixture.{name}.rtes"));
        std::fs::write(&path, bytes).unwrap();
        let reader = ShardReader::open(&path).unwrap();
        assert_eq!(reader.is_compressed(), name == "v2");
        assert_eq!(
            reader.read_range(0..reader.len()).unwrap(),
            expect,
            "{name}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
