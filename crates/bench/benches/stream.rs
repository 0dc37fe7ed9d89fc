//! Criterion benchmarks for the streaming corpus pipeline: out-of-core
//! corpus generation (write-to-shards vs materialize-in-memory), and
//! evaluation fed from streamed chunks vs in-memory tensors. A streamed
//! split reads at most `chunk` records per source call and keeps
//! nothing between calls; the eval rows print that bound next to the
//! corpus size.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::PathBuf;

use rte_core::{build_clients, shard_client_set, ExperimentConfig};
use rte_eda::corpus::{generate_corpus_with, CorpusConfig};
use rte_eda::shard::{CorpusReader, CorpusWriter};
use rte_fed::{Client, Evaluator, ModelFactory, Parallelism};
use rte_nn::models::{FlNet, FlNetConfig};
use rte_nn::state_dict;
use rte_tensor::rng::Xoshiro256;

/// A miniature of the Table 2 build (~190 placements at scale 1/38) —
/// the same workload the `eda` bench uses for the in-memory generator.
fn bench_config() -> CorpusConfig {
    let mut config = CorpusConfig::tiny();
    config.placement_scale = 1.0 / 38.0;
    config
}

fn scratch_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("stream-bench-{tag}"))
}

fn factory() -> ModelFactory {
    Box::new(|seed| {
        let mut rng = Xoshiro256::seed_from(seed);
        Box::new(FlNet::new(
            FlNetConfig {
                in_channels: 6,
                hidden: 8,
                kernel: 3,
                depth: 2,
            },
            &mut rng,
        ))
    })
}

/// Corpus generation: materializing every tensor in memory vs streaming
/// straight to shard files (chunked, bounded memory). Same bytes, very
/// different peak footprint.
fn bench_corpus_write(c: &mut Criterion) {
    let config = bench_config();
    c.bench_function("corpus_generate_in_memory", |b| {
        b.iter(|| generate_corpus_with(black_box(&config), Parallelism::auto()).unwrap())
    });
    for chunk in [16usize, 64] {
        let dir = scratch_dir(&format!("write-{chunk}"));
        c.bench_function(&format!("corpus_write_shards_chunk{chunk}"), |b| {
            b.iter(|| {
                let _ = std::fs::remove_dir_all(&dir);
                CorpusWriter::new(&dir)
                    .with_chunk(chunk)
                    .with_parallelism(Parallelism::auto())
                    .write(black_box(&config))
                    .unwrap()
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Builds the nine Table 2 clients streaming from shards with the given
/// chunk size.
fn streaming_clients(dir: &PathBuf, config: &CorpusConfig, chunk: usize) -> Vec<Client> {
    if CorpusReader::open(dir).is_err() {
        let _ = std::fs::remove_dir_all(dir);
        CorpusWriter::new(dir).write(config).unwrap();
    }
    CorpusReader::open(dir)
        .unwrap()
        .into_clients()
        .into_iter()
        .map(|shards| {
            Client::new(
                shards.client_index,
                shard_client_set(shards.train, chunk).unwrap(),
                shard_client_set(shards.test, chunk).unwrap(),
            )
        })
        .collect()
}

/// Nine-client generalized evaluation: in-memory tensors vs streamed
/// chunks at two chunk sizes. Outcomes are bit-identical; the streamed
/// variants read at most one chunk per source call.
fn bench_streamed_eval(c: &mut Criterion) {
    let config = bench_config();
    let corpus = generate_corpus_with(&config, Parallelism::auto()).unwrap();
    let in_memory = build_clients(&corpus).unwrap();
    let factory = factory();
    let global = state_dict(factory(7).as_mut());
    let evaluator = Evaluator::new(Parallelism::auto(), 16);
    c.bench_function("eval_9_clients_in_memory", |b| {
        b.iter(|| {
            evaluator
                .eval_global(&factory, 7, black_box(&in_memory), black_box(&global))
                .unwrap()
        })
    });
    let dir = scratch_dir("eval");
    let corpus_samples: usize = in_memory.iter().map(|c| c.train.len() + c.test.len()).sum();
    for chunk in [8usize, 32] {
        let clients = streaming_clients(&dir, &config, chunk);
        c.bench_function(&format!("eval_9_clients_streamed_chunk{chunk}"), |b| {
            b.iter(|| {
                evaluator
                    .eval_global(&factory, 7, black_box(&clients), black_box(&global))
                    .unwrap()
            })
        });
        println!(
            "info:  streamed eval chunk {chunk:>3}: at most {chunk} records per source read, \
             none kept between reads (corpus holds {corpus_samples})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end table cell out-of-core: FedProx on streamed clients via
/// the `ExperimentConfig` plumbing (`--corpus-dir` / `--stream-chunk`),
/// vs the same run in memory.
fn bench_streamed_table(c: &mut Criterion) {
    use rte_nn::models::ModelKind;
    let base = {
        let mut config = ExperimentConfig::tiny();
        config.corpus.placement_scale = 1.0 / 38.0;
        config.methods = vec![rte_fed::Method::FedProx];
        config
    };
    c.bench_function("fedprox_table_in_memory", |b| {
        b.iter(|| rte_core::run_table(ModelKind::FlNet, black_box(&base)).unwrap())
    });
    let dir = scratch_dir("table");
    let _ = std::fs::remove_dir_all(&dir);
    let streamed = base.clone().with_corpus_dir(&dir).with_stream_chunk(16);
    c.bench_function("fedprox_table_streamed_chunk16", |b| {
        b.iter(|| rte_core::run_table(ModelKind::FlNet, black_box(&streamed)).unwrap())
    });
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_corpus_write,
    bench_streamed_eval,
    bench_streamed_table
);
criterion_main!(benches);
