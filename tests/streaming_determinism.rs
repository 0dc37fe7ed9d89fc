//! The streaming determinism contract: training and evaluation fed from
//! on-disk corpus shards must be **bit-identical** to the in-memory
//! path, across worker-thread counts (the existing `RTE_THREADS={1,4}`
//! guarantee) *and* across streaming chunk sizes (the new axis). Four
//! layers are pinned:
//!
//! - the shard *files* themselves: streamed generation writes the same
//!   bytes at every `(threads, chunk)` combination,
//! - the shard *contents*: samples read back equal the in-memory
//!   generator's tensors bit for bit,
//! - full federated training (`MethodOutcome` including every
//!   `EvalReport` in the history) on streamed clients vs in-memory
//!   clients, at 1 and 4 threads and two chunk sizes,
//! - the parallel `Evaluator` on streamed clients vs in-memory clients.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use decentralized_routability::core::{
    build_clients, build_experiment_clients, ExperimentConfig, ShardBackend,
};
use decentralized_routability::eda::corpus::{
    generate_corpus, universe_specs, CorpusConfig, UniverseConfig, PAPER_CLIENTS,
};
use decentralized_routability::eda::shard::CorpusWriter;
use decentralized_routability::fed::{
    methods, Client, ClientSet, EvalReport, Evaluator, FedError, Method, MethodOutcome,
    Parallelism, RecordSource, StreamingClientSet,
};
use decentralized_routability::nn::state_dict;

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "stream-det-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A corpus small enough for debug test runs but with several
/// placements per design, so chunk boundaries actually cut through
/// splits.
fn corpus_config() -> CorpusConfig {
    let mut config = CorpusConfig::tiny();
    config.placement_scale = 0.02;
    config
}

/// A client split's record source that remembers the widest range any
/// one read asked it for.
struct WidestRead {
    inner: Arc<dyn RecordSource>,
    widest: Arc<AtomicUsize>,
}

impl RecordSource for WidestRead {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn geometry(&self) -> (usize, usize, usize) {
        self.inner.geometry()
    }

    fn read_into(
        &self,
        range: Range<usize>,
        features: &mut Vec<f32>,
        labels: &mut Vec<f32>,
    ) -> Result<(), FedError> {
        self.widest.fetch_max(range.len(), Ordering::Relaxed);
        self.inner.read_into(range, features, labels)
    }

    fn descriptor(&self) -> String {
        self.inner.descriptor()
    }
}

/// `clients` with every split re-wrapped in a [`WidestRead`] that
/// reports into `widest`.
fn watch_reads(clients: &[Client], chunk: usize, widest: &Arc<AtomicUsize>) -> Vec<Client> {
    let watch = |set: &ClientSet| {
        let source = WidestRead {
            inner: Arc::clone(set.source()),
            widest: Arc::clone(widest),
        };
        ClientSet::streaming(StreamingClientSet::new(Arc::new(source), chunk).unwrap())
    };
    clients
        .iter()
        .map(|c| Client::new(c.id, watch(&c.train), watch(&c.test)))
        .collect()
}

/// Every [`EvalReport`] field, compared bit for bit.
fn assert_reports_bitwise_equal(a: &[EvalReport], b: &[EvalReport], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: report count");
    for (k, (ra, rb)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            ra.auc.to_bits(),
            rb.auc.to_bits(),
            "{what}: client {k} AUC: {} vs {}",
            ra.auc,
            rb.auc
        );
        assert_eq!(
            ra.average_precision.to_bits(),
            rb.average_precision.to_bits(),
            "{what}: client {k} AP"
        );
        assert_eq!(ra.confusion, rb.confusion, "{what}: client {k} confusion");
        assert_eq!(ra.histogram, rb.histogram, "{what}: client {k} histogram");
    }
}

fn assert_outcomes_bitwise_equal(a: &MethodOutcome, b: &MethodOutcome, what: &str) {
    assert_eq!(a.average_auc.to_bits(), b.average_auc.to_bits(), "{what}");
    for (k, (x, y)) in a
        .per_client_auc
        .iter()
        .zip(b.per_client_auc.iter())
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: client {k}: {x} vs {y}");
    }
    assert_reports_bitwise_equal(&a.per_client, &b.per_client, what);
    assert_eq!(a.history.len(), b.history.len(), "{what}: history length");
    for (ra, rb) in a.history.iter().zip(b.history.iter()) {
        assert_eq!(ra.round, rb.round, "{what}");
        assert_eq!(
            ra.mean_train_loss.to_bits(),
            rb.mean_train_loss.to_bits(),
            "{what}: round {} training loss",
            ra.round
        );
        assert_reports_bitwise_equal(
            &ra.per_client,
            &rb.per_client,
            &format!("{what}: round {}", ra.round),
        );
    }
}

/// Streamed generation writes byte-identical shard files at every
/// `(threads, chunk)` combination — the on-disk analogue of the
/// in-memory thread-invariance guarantee, with the chunk-size axis on
/// top. Two corpora: Table 2 with several placements per design, and a
/// quick-profile universe with one, where a chunk of several placements
/// spans designs and shards.
#[test]
fn shard_files_are_thread_and_chunk_invariant() {
    let quick = CorpusConfig::tiny();
    let universe = universe_specs(&quick, &UniverseConfig::new(10, 40)).unwrap();
    let all = usize::MAX;
    let cases = [
        (
            &PAPER_CLIENTS[..],
            corpus_config(),
            vec![(1, 7), (4, 1), (4, 7), (4, 1000)],
        ),
        (
            &universe[..],
            quick,
            vec![(1, 3), (1, 8), (1, all), (4, 1), (4, 3), (4, 8), (4, all)],
        ),
    ];
    for (specs, config, cells) in cases {
        let write = |threads: usize, chunk: usize| {
            let dir = scratch_dir(&format!("{}c-t{threads}c{chunk}", specs.len()));
            CorpusWriter::new(&dir)
                .with_chunk(chunk)
                .with_parallelism(Parallelism::new(threads))
                .write_specs(specs, &config)
                .unwrap();
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| {
                    let path = e.unwrap().path();
                    (
                        path.file_name().unwrap().to_string_lossy().into_owned(),
                        std::fs::read(&path).unwrap(),
                    )
                })
                .collect();
            files.sort();
            std::fs::remove_dir_all(&dir).unwrap();
            files
        };
        let reference = write(1, 1);
        assert_eq!(reference.len(), 2 * specs.len(), "one shard per split");
        for (threads, chunk) in cells {
            let files = write(threads, chunk);
            assert_eq!(files.len(), reference.len());
            for ((name, bytes), (ref_name, ref_bytes)) in files.iter().zip(&reference) {
                assert_eq!(name, ref_name);
                assert!(
                    bytes == ref_bytes,
                    "{name} of {} clients drifted at threads={threads} chunk={chunk}",
                    specs.len()
                );
            }
        }
    }
}

/// Samples streamed back from shards equal the in-memory generator's
/// tensors bit for bit (write→read round trip at corpus scale).
#[test]
fn shard_contents_match_in_memory_corpus_bitwise() {
    let config = corpus_config();
    let dir = scratch_dir("contents");
    CorpusWriter::new(&dir)
        .with_chunk(5)
        .write(&config)
        .unwrap();
    let corpus = generate_corpus(&config).unwrap();
    let reader = decentralized_routability::eda::shard::CorpusReader::open(&dir).unwrap();
    assert_eq!(reader.clients().len(), corpus.clients.len());
    for (shards, client) in reader.clients().iter().zip(&corpus.clients) {
        assert_eq!(shards.client_index, client.spec.index);
        for (shard, dataset) in [(&shards.train, &client.train), (&shards.test, &client.test)] {
            assert_eq!(shard.len(), dataset.len());
            let streamed = shard.read_range(0..shard.len()).unwrap();
            for (i, (got, want)) in streamed.iter().zip(dataset.samples()).enumerate() {
                assert_eq!(got.design, want.design);
                let got_bits: Vec<u32> = got.features.data().iter().map(|v| v.to_bits()).collect();
                let want_bits: Vec<u32> =
                    want.features.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    got_bits, want_bits,
                    "client {} sample {i} features drifted",
                    client.spec.index
                );
                let got_bits: Vec<u32> = got.label.data().iter().map(|v| v.to_bits()).collect();
                let want_bits: Vec<u32> = want.label.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got_bits, want_bits);
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Builds the experiment clients both ways from one config.
fn both_client_sets(config: &ExperimentConfig) -> (Vec<Client>, Vec<Client>) {
    let corpus = generate_corpus(&config.corpus).unwrap();
    let in_memory = build_clients(&corpus).unwrap();
    let streamed = build_experiment_clients(config).unwrap();
    (in_memory, streamed)
}

/// Full federated training on streamed clients is bit-identical to the
/// in-memory path — every `MethodOutcome` field including the per-round
/// `EvalReport` history — across `RTE_THREADS`-style thread counts and
/// two chunk sizes.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs 8 real federated experiments; release only"
)]
fn streamed_training_is_bitwise_identical_to_in_memory() {
    let dir = scratch_dir("train");
    for chunk in [2usize, 9] {
        let mut config = ExperimentConfig::tiny()
            .with_corpus_dir(&dir)
            .with_stream_chunk(chunk);
        config.corpus = corpus_config();
        config.fed.eval_every = 1; // record every round's reports
        let (in_memory, streamed) = both_client_sets(&config);
        for threads in [1usize, 4] {
            let mut fed = config.fed.clone();
            fed.parallelism = Parallelism::new(threads);
            let factory = decentralized_routability::core::model_factory(
                decentralized_routability::nn::models::ModelKind::FlNet,
                config.model_scale,
            );
            let a = methods::run_method(Method::FedProx, &in_memory, &factory, &fed).unwrap();
            let b = methods::run_method(Method::FedProx, &streamed, &factory, &fed).unwrap();
            assert_outcomes_bitwise_equal(
                &a,
                &b,
                &format!("fedprox threads={threads} chunk={chunk}"),
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The parallel evaluator produces bit-identical `EvalReport`s from
/// streamed and in-memory clients at both thread counts and two chunk
/// sizes.
#[test]
fn streamed_evaluation_is_bitwise_identical_to_in_memory() {
    let dir = scratch_dir("eval");
    for chunk in [1usize, 6] {
        let mut config = ExperimentConfig::tiny()
            .with_corpus_dir(&dir)
            .with_stream_chunk(chunk);
        config.corpus = corpus_config();
        let (in_memory, streamed) = both_client_sets(&config);
        let widest = Arc::new(AtomicUsize::new(0));
        let streamed = watch_reads(&streamed, chunk, &widest);
        let factory = decentralized_routability::core::model_factory(
            decentralized_routability::nn::models::ModelKind::FlNet,
            config.model_scale,
        );
        let global = state_dict(factory(11).as_mut());
        for threads in [1usize, 4] {
            let evaluator = Evaluator::new(Parallelism::new(threads), 3);
            let a = evaluator
                .eval_global(&factory, 11, &in_memory, &global)
                .unwrap();
            let b = evaluator
                .eval_global(&factory, 11, &streamed, &global)
                .unwrap();
            assert_reports_bitwise_equal(
                &a,
                &b,
                &format!("evaluator threads={threads} chunk={chunk}"),
            );
        }
        // No read of the streamed pass asked for more than one chunk.
        let widest = widest.load(Ordering::Relaxed);
        assert!(
            (1..=chunk).contains(&widest),
            "widest read {widest} records, chunk {chunk}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The memory-mapped backend serves the same bits as the read backend
/// and the in-memory generator at every `RTE_THREADS × chunk` cell, on
/// raw and on compressed shards: batches bitwise, and the parallel
/// evaluator's full `EvalReport`s at 1 and 4 threads.
#[test]
fn mmap_backend_is_bitwise_identical_at_every_cell() {
    let raw_dir = scratch_dir("mmap");
    let compressed_dir = scratch_dir("mmap-compressed");
    for (chunk, compressed) in [(1usize, false), (6, false), (1, true), (6, true)] {
        let dir = if compressed {
            &compressed_dir
        } else {
            &raw_dir
        };
        let mut config = ExperimentConfig::tiny()
            .with_corpus_dir(dir)
            .with_stream_chunk(chunk);
        if compressed {
            config = config.with_compressed_shards();
        }
        config.corpus = corpus_config();
        let (in_memory, streamed) = both_client_sets(&config);
        let mapped =
            build_experiment_clients(&config.clone().with_shard_backend(ShardBackend::Mmap))
                .unwrap();
        for ((m, s), p) in in_memory.iter().zip(&streamed).zip(&mapped) {
            let source = p.train.source();
            assert!(
                source.descriptor().starts_with("mmap:"),
                "mmap source selected"
            );
            let want = m.test.minibatch_range(0..m.test.len());
            assert_eq!(want, p.test.minibatch_range(0..p.test.len()));
            assert_eq!(
                s.test.minibatch_range(0..s.test.len()),
                p.test.minibatch_range(0..p.test.len())
            );
        }
        let factory = decentralized_routability::core::model_factory(
            decentralized_routability::nn::models::ModelKind::FlNet,
            config.model_scale,
        );
        let global = state_dict(factory(11).as_mut());
        for threads in [1usize, 4] {
            let evaluator = Evaluator::new(Parallelism::new(threads), 3);
            let a = evaluator
                .eval_global(&factory, 11, &in_memory, &global)
                .unwrap();
            let b = evaluator
                .eval_global(&factory, 11, &mapped, &global)
                .unwrap();
            assert_reports_bitwise_equal(
                &a,
                &b,
                &format!("mmap evaluator threads={threads} chunk={chunk} compressed={compressed}"),
            );
        }
    }
    std::fs::remove_dir_all(&raw_dir).unwrap();
    std::fs::remove_dir_all(&compressed_dir).unwrap();
}

/// Full federated training on memory-mapped clients is bit-identical to
/// the in-memory path, at 1 and 4 threads.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs 4 real federated experiments; release only"
)]
fn mmap_training_is_bitwise_identical_to_in_memory() {
    let dir = scratch_dir("mmap-train");
    let mut config = ExperimentConfig::tiny()
        .with_corpus_dir(&dir)
        .with_stream_chunk(3)
        .with_shard_backend(ShardBackend::Mmap);
    config.corpus = corpus_config();
    config.fed.eval_every = 1;
    let (in_memory, mapped) = both_client_sets(&config);
    for threads in [1usize, 4] {
        let mut fed = config.fed.clone();
        fed.parallelism = Parallelism::new(threads);
        let factory = decentralized_routability::core::model_factory(
            decentralized_routability::nn::models::ModelKind::FlNet,
            config.model_scale,
        );
        let a = methods::run_method(Method::FedProx, &in_memory, &factory, &fed).unwrap();
        let b = methods::run_method(Method::FedProx, &mapped, &factory, &fed).unwrap();
        assert_outcomes_bitwise_equal(&a, &b, &format!("mmap fedprox threads={threads}"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Chunk-codec-compressed shards stream the same bits as the raw files
/// and the in-memory generator (the on-disk encoding is invisible to
/// training).
#[test]
fn compressed_shards_stream_bitwise_identical_samples() {
    let dir = scratch_dir("packed");
    let mut config = ExperimentConfig::tiny()
        .with_corpus_dir(&dir)
        .with_stream_chunk(4);
    config.corpus = corpus_config();
    let (in_memory, raw) = both_client_sets(&config);
    let packed = build_experiment_clients(&config.clone().with_compressed_shards()).unwrap();
    for ((m, r), p) in in_memory.iter().zip(&raw).zip(&packed) {
        assert_eq!(m.id, p.id);
        let want = m.test.minibatch_range(0..m.test.len());
        assert_eq!(want, p.test.minibatch_range(0..p.test.len()));
        assert_eq!(
            r.train.minibatch_range(0..r.train.len()),
            p.train.minibatch_range(0..p.train.len())
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Centralized training pools streamed splits through `ConcatSource`
/// without materializing them — and still matches the in-memory pooled
/// result bit for bit.
#[test]
fn streamed_centralized_pooling_matches_in_memory() {
    let dir = scratch_dir("central");
    let mut config = ExperimentConfig::tiny()
        .with_corpus_dir(&dir)
        .with_stream_chunk(4);
    config.corpus = corpus_config();
    let (in_memory, streamed) = both_client_sets(&config);
    let factory = decentralized_routability::core::model_factory(
        decentralized_routability::nn::models::ModelKind::FlNet,
        config.model_scale,
    );
    let a = methods::run_method(Method::Centralized, &in_memory, &factory, &config.fed).unwrap();
    let b = methods::run_method(Method::Centralized, &streamed, &factory, &config.fed).unwrap();
    assert_outcomes_bitwise_equal(&a, &b, "centralized");
    std::fs::remove_dir_all(&dir).unwrap();
}
