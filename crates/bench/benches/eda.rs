//! Criterion micro-benchmarks for the EDA data substrate: the generation
//! rows of [`rte_bench::generation`] (netlist synthesis, placement, the
//! one-pass analysis and the whole sample for each benchmark family,
//! and the Table-2 scaled corpus on one thread), and a miniature corpus
//! on 1 thread vs all cores (byte-identical output, only wall-clock
//! differs).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rte_eda::corpus::{generate_corpus_with, CorpusConfig};
use rte_tensor::parallel::Parallelism;

fn bench_generation(c: &mut Criterion) {
    for (name, mut row) in rte_bench::generation::rows() {
        c.bench_function(&name, |b| b.iter(&mut row));
    }
}

fn bench_sharded_corpus(c: &mut Criterion) {
    // A miniature of the paper-scale Table 2 build (~190 placements at
    // scale 1/38): generation shards over designs and placements, so the
    // all-cores run shows the corpus-build speedup while producing
    // byte-identical tensors.
    let mut config = CorpusConfig::tiny();
    config.placement_scale = 1.0 / 38.0;
    for (name, par) in [
        ("generate_corpus_1thread", Parallelism::serial()),
        ("generate_corpus_all_cores", Parallelism::auto()),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| generate_corpus_with(black_box(&config), par).unwrap())
        });
    }
}

criterion_group!(benches, bench_generation, bench_sharded_corpus);
criterion_main!(benches);
