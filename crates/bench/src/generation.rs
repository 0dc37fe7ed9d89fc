//! The corpus-generation micro rows: one per benchmark family for each
//! stage of a sample, plus the corpus every default run starts with.
//!
//! Defined once so that `benches/eda.rs` (criterion, for a developer at
//! a terminal) and `bench_corpus` (the tracked `BENCH_corpus.json`)
//! measure the same work under the same names.

use std::hint::black_box;

use rte_eda::congestion::analyse;
use rte_eda::corpus::{generate_corpus_with, CorpusConfig};
use rte_eda::dataset::generate_sample;
use rte_eda::netlist::generate_netlist;
use rte_eda::placement::{place, PlacementConfig};
use rte_eda::Family;
use rte_tensor::parallel::Parallelism;

/// Families in ascending design size, with the slug their rows carry.
const FAMILIES: [(Family, &str); 4] = [
    (Family::Iscas89, "iscas89"),
    (Family::Itc99, "itc99"),
    (Family::Iwls05, "iwls05"),
    (Family::Ispd15, "ispd15"),
];

/// One named unit of generation work; each call does it once.
pub type Row = (String, Box<dyn FnMut()>);

/// Every generation row, single-threaded, on the 16×16 grid all corpus
/// configs use.
///
/// No row does the same work twice in a row: seeds advance, and
/// `analyse_*` takes 32 placements in turn. Generation never sees a
/// placement twice either, and much of its cost is branches on where
/// cells and pins fell — shown one input over and over, the predictor
/// learns it and the row reads a third low.
pub fn rows() -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    for (family, slug) in FAMILIES {
        let mut seed = 0u64;
        rows.push((
            format!("generate_netlist_{slug}"),
            Box::new(move || {
                seed += 1;
                black_box(generate_netlist(family, black_box(seed)).expect("netlist"));
            }),
        ));
    }
    for (family, slug) in FAMILIES {
        let netlist = generate_netlist(family, 7).expect("netlist");
        let mut seed = 0u64;
        rows.push((
            format!("place_{slug}"),
            Box::new(move || {
                seed += 1;
                let config = PlacementConfig::new(16, 16, black_box(seed));
                black_box(place(&netlist, &config).expect("placement"));
            }),
        ));
    }
    for (family, slug) in FAMILIES {
        let netlist = generate_netlist(family, 7).expect("netlist");
        let placements: Vec<_> = (0..32)
            .map(|seed| place(&netlist, &PlacementConfig::new(16, 16, seed)).expect("placement"))
            .collect();
        let mut turn = 0;
        rows.push((
            format!("analyse_{slug}"),
            Box::new(move || {
                turn = (turn + 1) % placements.len();
                black_box(analyse(black_box(&netlist), black_box(&placements[turn])));
            }),
        ));
    }
    for (family, slug) in FAMILIES {
        let netlist = generate_netlist(family, 3).expect("netlist");
        let mut seed = 0u64;
        rows.push((
            format!("generate_sample_{slug}"),
            Box::new(move || {
                seed += 1;
                let config = PlacementConfig::new(16, 16, black_box(seed));
                black_box(generate_sample(&netlist, &config).expect("sample"));
            }),
        ));
    }
    // What every default run starts with: 595 placements of 74 designs.
    let scaled = CorpusConfig::scaled();
    rows.push((
        "generate_corpus_table2_scaled_1thread".to_string(),
        Box::new(move || {
            black_box(
                generate_corpus_with(black_box(&scaled), Parallelism::serial()).expect("corpus"),
            );
        }),
    ));
    rows
}
