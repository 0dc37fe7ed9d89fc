//! Experiment configuration and the corpus → clients → methods pipeline.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rte_eda::corpus::{
    generate_fleet_with, universe_specs, ClientSpec, ClientTensors, Corpus, CorpusConfig,
    UniverseConfig, PAPER_CLIENTS,
};
use rte_eda::features::FEATURE_CHANNELS;
use rte_eda::shard::{
    compact_dir, CorpusReader, CorpusWriter, ShardReader, DEFAULT_CHUNK, DEFAULT_COMPRESS_CHUNK,
    SHARD_EXTENSION,
};
use rte_fed::stream::RecordSource;
use rte_fed::{
    methods, Client, ClientSet, FedConfig, FedError, Method, MethodOutcome, ModelFactory,
    Parallelism, StreamingClientSet,
};
use rte_nn::models::{build_model, ModelKind, ModelScale};
use rte_tensor::rng::Xoshiro256;

use crate::CoreError;

/// Everything one experiment needs: data generation settings, federated
/// hyper-parameters, model capacity scale and the method list.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Table 2 corpus generation settings.
    pub corpus: CorpusConfig,
    /// Worker-thread budget for sharded corpus generation (`0` = all
    /// cores; constructors read `RTE_THREADS`). Output is byte-identical
    /// for every value.
    pub corpus_parallelism: Parallelism,
    /// When set, the experiment runs **out-of-core**: the corpus is
    /// generated straight into shard files under this directory (reusing
    /// existing shards whose provenance matches) and every client streams
    /// bounded-memory chunks instead of materializing its tensors.
    /// `None` (the default) keeps the in-memory path. Outcomes are
    /// bit-identical either way.
    pub corpus_dir: Option<PathBuf>,
    /// Samples per streamed chunk when `corpus_dir` is set, and
    /// placements per generated chunk when the shards are written (a
    /// chunk holds at most this many netlists): peak memory on both
    /// sides is proportional to this, never to the corpus size. A pure
    /// memory/wall-clock knob — results do not change.
    pub stream_chunk: usize,
    /// Which reader serves shard files when `corpus_dir` is set. A pure
    /// wall-clock knob — every backend yields bit-identical outcomes
    /// (`tests/streaming_determinism.rs`).
    pub shard_backend: ShardBackend,
    /// When `true` (and `corpus_dir` is set), shard files are compacted
    /// in place with the delta+bitpack chunk codec before clients open
    /// them. The codec round-trips bitwise, so this is a pure disk-size
    /// knob, on either [`ShardBackend`].
    pub compress_shards: bool,
    /// When set, the experiment trains a synthesized client universe of
    /// this shape (`--clients N --designs D`) instead of the Table 2
    /// fleet. Use [`ExperimentConfig::with_population`] so the cluster
    /// assignment is regenerated to match the population size.
    pub population: Option<UniverseConfig>,
    /// Federated training hyper-parameters (§5.1).
    pub fed: FedConfig,
    /// Model capacity (paper filter counts vs CPU-scaled).
    pub model_scale: ModelScale,
    /// Training methods to run, in table row order.
    pub methods: Vec<Method>,
}

impl ExperimentConfig {
    /// The paper's full settings (hours of CPU time).
    pub fn paper() -> Self {
        ExperimentConfig {
            corpus: CorpusConfig::paper(),
            corpus_parallelism: Parallelism::from_env(),
            corpus_dir: None,
            stream_chunk: DEFAULT_CHUNK,
            shard_backend: ShardBackend::Read,
            compress_shards: false,
            population: None,
            fed: FedConfig::paper(),
            model_scale: ModelScale::Paper,
            methods: Method::ALL.to_vec(),
        }
    }

    /// CPU-scale settings preserving the experiment structure (default for
    /// the benchmark binaries).
    pub fn scaled() -> Self {
        ExperimentConfig {
            corpus: CorpusConfig::scaled(),
            corpus_parallelism: Parallelism::from_env(),
            corpus_dir: None,
            stream_chunk: DEFAULT_CHUNK,
            shard_backend: ShardBackend::Read,
            compress_shards: false,
            population: None,
            fed: FedConfig::scaled(),
            model_scale: ModelScale::Scaled,
            methods: Method::ALL.to_vec(),
        }
    }

    /// Sets the worker-thread budget for the whole pipeline this config
    /// drives: sharded corpus generation, parallel client training within
    /// each federated round, and parallel per-client evaluation (`0` =
    /// all cores). Pure: only config values change. To also retune the
    /// process-global default for the batched tensor kernels, call
    /// `rte_tensor::parallel::set_global` at your entry point (the bench
    /// binaries do, via `--threads`). Outcomes are bit-identical for
    /// every value (`tests/determinism.rs`,
    /// `tests/parallel_determinism.rs`); only wall-clock changes.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.corpus_parallelism = Parallelism::new(threads);
        self.fed.parallelism = Parallelism::new(threads);
        self
    }

    /// Switches the experiment to the out-of-core path: the corpus lives
    /// as shard files under `dir` and clients stream bounded-memory
    /// chunks. Outcomes are bit-identical to the in-memory default
    /// (`tests/streaming_determinism.rs`).
    #[must_use]
    pub fn with_corpus_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.corpus_dir = Some(dir.into());
        self
    }

    /// Sets the samples per streamed chunk (only meaningful together
    /// with [`ExperimentConfig::with_corpus_dir`]). A pure memory knob —
    /// results do not change.
    #[must_use]
    pub fn with_stream_chunk(mut self, chunk: usize) -> Self {
        self.stream_chunk = chunk;
        self
    }

    /// Selects the shard reader backend (only meaningful together with
    /// [`ExperimentConfig::with_corpus_dir`]). A pure wall-clock knob —
    /// outcomes are bit-identical across backends.
    #[must_use]
    pub fn with_shard_backend(mut self, backend: ShardBackend) -> Self {
        self.shard_backend = backend;
        self
    }

    /// Compacts shard files with the chunk codec before clients open
    /// them (only meaningful together with
    /// [`ExperimentConfig::with_corpus_dir`]). The codec round-trips
    /// bitwise, so outcomes do not change — only bytes on disk do.
    #[must_use]
    pub fn with_compressed_shards(mut self) -> Self {
        self.compress_shards = true;
        self
    }

    /// Switches the experiment to a synthesized client universe
    /// (`--clients N --designs D`) and regenerates the cluster
    /// assignment to cover the population: clusters keep their count
    /// (capped at the client count) and clients are assigned round-robin
    /// (`client i → cluster i mod clusters`), which is a partition for
    /// any population size.
    #[must_use]
    pub fn with_population(mut self, universe: UniverseConfig) -> Self {
        let clusters = self.fed.clusters.clamp(1, universe.clients.max(1));
        self.fed.clusters = clusters;
        self.fed.assigned_clusters = (0..clusters)
            .map(|j| {
                (0..universe.clients)
                    .filter(|i| i % clusters == j)
                    .collect()
            })
            .collect();
        self.population = Some(universe);
        self
    }

    /// The client specs this config trains: the synthesized universe
    /// when [`ExperimentConfig::population`] is set, otherwise the
    /// paper's Table 2 fleet.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Eda`] for an invalid universe shape.
    pub fn client_specs(&self) -> Result<Vec<ClientSpec>, CoreError> {
        match &self.population {
            Some(universe) => Ok(universe_specs(&self.corpus, universe)?),
            None => Ok(PAPER_CLIENTS.to_vec()),
        }
    }

    /// Minimal settings for tests.
    pub fn tiny() -> Self {
        let mut fed = FedConfig::tiny();
        // The tiny FedConfig targets 2 synthetic clients; the Table 2
        // corpus always has 9, so use the paper's cluster structure.
        fed.clusters = 4;
        fed.assigned_clusters = FedConfig::paper_assignment();
        ExperimentConfig {
            corpus: CorpusConfig::tiny(),
            corpus_parallelism: Parallelism::from_env(),
            corpus_dir: None,
            stream_chunk: DEFAULT_CHUNK,
            shard_backend: ShardBackend::Read,
            compress_shards: false,
            population: None,
            fed,
            model_scale: ModelScale::Scaled,
            methods: vec![Method::LocalOnly, Method::FedProx],
        }
    }
}

/// Which byte store the shard reader serves out-of-core clients from.
/// Both run the same open-time validation, raw or compressed, and
/// deliver the same bytes; they differ only in *how* records reach the
/// trainer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardBackend {
    /// `seek`+`read` straight into each batch (the default).
    #[default]
    Read,
    /// Reads from a memory map of the shard: raw records are decoded
    /// from the mapped pages with a lazy per-chunk CRC, compressed
    /// frames are decoded from them.
    Mmap,
}

/// Result of one table (one model kind × all requested methods).
#[derive(Debug, Clone)]
pub struct TableResult {
    /// Which estimator this table evaluates.
    pub model: ModelKind,
    /// One outcome per requested method, in order.
    pub rows: Vec<MethodOutcome>,
    /// Number of clients (columns before the average).
    pub n_clients: usize,
}

impl TableResult {
    /// The outcome of a specific method, if it was run.
    pub fn row(&self, method: Method) -> Option<&MethodOutcome> {
        self.rows.iter().find(|r| r.method == method)
    }
}

/// Converts a generated corpus into federated clients (features/labels
/// become private per-client tensors).
///
/// # Errors
///
/// Propagates batching errors (e.g. an empty split).
pub fn build_clients(corpus: &Corpus) -> Result<Vec<Client>, CoreError> {
    corpus
        .clients
        .iter()
        .map(|data| {
            build_client(ClientTensors {
                spec: data.spec,
                train: data.train.full_batch()?,
                test: data.test.full_batch()?,
            })
        })
        .collect()
}

/// One generated client's stacked splits as its private tensors.
fn build_client(tensors: ClientTensors) -> Result<Client, CoreError> {
    let ((train_x, train_y), (test_x, test_y)) = (tensors.train, tensors.test);
    Ok(Client::new(
        tensors.spec.index,
        ClientSet::new(train_x, train_y)?,
        ClientSet::new(test_x, test_y)?,
    ))
}

/// The in-memory fleet of `specs`, each sample generated straight into
/// its client's tensors.
fn generate_fleet(
    specs: &[ClientSpec],
    config: &ExperimentConfig,
) -> Result<Vec<Client>, CoreError> {
    generate_fleet_with(specs, &config.corpus, config.corpus_parallelism)?
        .into_iter()
        .map(build_client)
        .collect()
}

/// [`RecordSource`] over one EDA shard file, on either of the reader's
/// stores — the adapter that lets `rte-fed`'s streaming client sets
/// feed on `rte-eda`'s on-disk format without either crate depending on
/// the other. Its descriptor is the path, prefixed with `mmap:` when
/// the reader serves a memory map.
struct ShardSource {
    reader: ShardReader,
}

impl RecordSource for ShardSource {
    fn len(&self) -> usize {
        self.reader.len()
    }

    fn geometry(&self) -> (usize, usize, usize) {
        self.reader.geometry()
    }

    fn read_into(
        &self,
        range: std::ops::Range<usize>,
        features: &mut Vec<f32>,
        labels: &mut Vec<f32>,
    ) -> Result<(), FedError> {
        self.reader
            .read_batch_into(range, features, labels)
            .map_err(|e| FedError::Stream {
                reason: e.to_string(),
            })
    }

    fn read_rows_into(
        &self,
        rows: &[usize],
        features: &mut Vec<f32>,
        labels: &mut Vec<f32>,
    ) -> Result<(), FedError> {
        self.reader
            .read_rows_into(rows, features, labels)
            .map_err(|e| FedError::Stream {
                reason: e.to_string(),
            })
    }

    fn descriptor(&self) -> String {
        let path = self.reader.path().display();
        if self.reader.is_mapped() {
            format!("mmap:{path}")
        } else {
            path.to_string()
        }
    }
}

/// Wraps one shard file as a streaming client split.
///
/// # Errors
///
/// Returns [`CoreError::Fed`] for a zero chunk size.
pub fn shard_client_set(reader: ShardReader, chunk: usize) -> Result<ClientSet, CoreError> {
    let source = Arc::new(ShardSource { reader });
    Ok(ClientSet::streaming(StreamingClientSet::new(
        source, chunk,
    )?))
}

/// Builds one client split on the configured [`ShardBackend`].
fn backend_client_set(
    reader: ShardReader,
    config: &ExperimentConfig,
) -> Result<ClientSet, CoreError> {
    let reader = match config.shard_backend {
        ShardBackend::Read => reader,
        ShardBackend::Mmap => reader.mapped()?,
    };
    shard_client_set(reader, config.stream_chunk)
}

/// True when `dir` exists and holds at least one shard file.
fn has_shards(dir: &Path) -> bool {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .any(|e| e.path().extension().and_then(|x| x.to_str()) == Some(SHARD_EXTENSION))
        })
        .unwrap_or(false)
}

/// Materializes the experiment's corpus as shard files (generating them
/// streamingly if the directory holds none) and builds clients that
/// stream bounded-memory chunks from them.
///
/// Existing shards are reused only when their full provenance (seed,
/// grid, placement scale) matches the config; a mismatch is an error
/// rather than a silent run on stale data.
///
/// # Errors
///
/// Returns [`CoreError`] on generation/validation failures, when the
/// directory's shards belong to a different corpus, or when the
/// directory holds damaged shards (the error says how to recover).
fn build_streaming_clients(config: &ExperimentConfig) -> Result<Vec<Client>, CoreError> {
    let dir = config
        .corpus_dir
        .as_ref()
        .ok_or_else(|| CoreError::InvalidConfig {
            reason: "build_streaming_clients requires corpus_dir".into(),
        })?;
    let specs = config.client_specs()?;
    if !has_shards(dir) {
        CorpusWriter::new(dir)
            .with_chunk(config.stream_chunk)
            .with_parallelism(config.corpus_parallelism)
            .write_specs(&specs, &config.corpus)?;
    }
    // Shard files are present (writes are temp-name + rename, so these
    // are sealed shards, not generation debris) — if they still fail to
    // open, or a power cut left one short, tell the operator how to get
    // unstuck instead of failing identically forever.
    let unusable = |e: rte_eda::EdaError| CoreError::InvalidConfig {
        reason: format!(
            "corpus dir {} is unusable ({e}); delete the directory (or point \
             --corpus-dir elsewhere) to regenerate",
            dir.display()
        ),
    };
    let mut reader = CorpusReader::open(dir).map_err(unusable)?;
    let raw = reader
        .clients()
        .iter()
        .any(|c| !c.train.is_compressed() || !c.test.is_compressed());
    if config.compress_shards && raw {
        // Only a directory holding a raw shard is compacted and
        // reopened; a reused, compacted one is opened once.
        drop(reader);
        compact_dir(dir, DEFAULT_COMPRESS_CHUNK).map_err(unusable)?;
        reader = CorpusReader::open(dir).map_err(unusable)?;
    }
    if reader.seed() != config.corpus.seed
        || reader.grid() != config.corpus.grid
        || reader.placement_scale().to_bits() != config.corpus.placement_scale.to_bits()
    {
        return Err(CoreError::InvalidConfig {
            reason: format!(
                "corpus dir {} holds shards for a different corpus \
                 (seed {:#x} scale {} vs requested seed {:#x} scale {}); \
                 regenerate or point elsewhere",
                dir.display(),
                reader.seed(),
                reader.placement_scale(),
                config.corpus.seed,
                config.corpus.placement_scale
            ),
        });
    }
    // The streaming path always materializes the configured fleet; a
    // coherent-but-partial directory (e.g. files deleted by hand) must
    // not silently run the experiment on a subset of clients.
    let expected: Vec<usize> = specs.iter().map(|s| s.index).collect();
    let found: Vec<usize> = reader.clients().iter().map(|c| c.client_index).collect();
    if found != expected {
        return Err(CoreError::InvalidConfig {
            reason: format!(
                "corpus dir {} holds clients {found:?} but this experiment needs \
                 {expected:?}; delete the directory to regenerate",
                dir.display()
            ),
        });
    }
    reader
        .into_clients()
        .into_iter()
        .map(|shards| {
            Ok(Client::new(
                shards.client_index,
                backend_client_set(shards.train, config)?,
                backend_client_set(shards.test, config)?,
            ))
        })
        .collect()
}

/// Builds the experiment's clients on whichever path the config selects:
/// streaming from `corpus_dir` when set, otherwise generating the fleet
/// in memory, every sample straight into its client's tensors (the same
/// bits as [`build_clients`] over the generated corpus, each sample held
/// once).
///
/// # Errors
///
/// Propagates generation and batching errors.
pub fn build_experiment_clients(config: &ExperimentConfig) -> Result<Vec<Client>, CoreError> {
    if config.corpus_dir.is_some() {
        build_streaming_clients(config)
    } else {
        generate_fleet(&config.client_specs()?, config)
    }
}

/// The client at fleet position `me` of [`build_experiment_clients`]'s
/// fleet, bit for bit, without anybody else's data: an in-memory corpus
/// synthesizes that one party's designs (every client's seed stream is
/// its own), a `corpus_dir` opens the fleet's shards and keeps one.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for a position outside the
/// fleet; otherwise as [`build_experiment_clients`].
pub fn build_experiment_client(config: &ExperimentConfig, me: usize) -> Result<Client, CoreError> {
    let specs = config.client_specs()?;
    let spec = specs.get(me).ok_or_else(|| CoreError::InvalidConfig {
        reason: format!("client index {me} out of range for {} clients", specs.len()),
    })?;
    if config.corpus_dir.is_some() {
        return Ok(build_streaming_clients(config)?.swap_remove(me));
    }
    Ok(generate_fleet(std::slice::from_ref(spec), config)?.swap_remove(0))
}

/// Builds a deterministic [`ModelFactory`] for the given estimator.
pub fn model_factory(kind: ModelKind, scale: ModelScale) -> ModelFactory {
    Box::new(move |seed| {
        let mut rng = Xoshiro256::seed_from(seed);
        build_model(kind, FEATURE_CHANNELS, scale, &mut rng)
    })
}

/// Runs one method against pre-built clients (used by the benches that
/// sweep methods without regenerating data).
///
/// # Errors
///
/// Propagates federated training failures.
pub fn run_method_on_clients(
    method: Method,
    clients: &[Client],
    kind: ModelKind,
    config: &ExperimentConfig,
) -> Result<MethodOutcome, CoreError> {
    let factory = model_factory(kind, config.model_scale);
    Ok(methods::run_method(method, clients, &factory, &config.fed)?)
}

/// Generates the corpus and runs every requested method for one estimator
/// — i.e. regenerates one of the paper's Tables 3-5. With
/// [`ExperimentConfig::corpus_dir`] set, the whole run is out-of-core:
/// the corpus streams to shards and clients stream chunks back, with
/// bit-identical outcomes.
///
/// # Errors
///
/// Returns [`CoreError`] on generation or training failures, or when
/// `config.methods` is empty.
pub fn run_table(kind: ModelKind, config: &ExperimentConfig) -> Result<TableResult, CoreError> {
    if config.methods.is_empty() {
        return Err(CoreError::InvalidConfig {
            reason: "no methods requested".into(),
        });
    }
    let clients = build_experiment_clients(config)?;
    let rows = config
        .methods
        .iter()
        .map(|&m| run_method_on_clients(m, &clients, kind, config))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TableResult {
        model: kind,
        rows,
        n_clients: clients.len(),
    })
}

/// The experiment configuration the `rte-coordinator` and `rte-client`
/// binaries (and the release-gated multi-process test) share. Every
/// process rebuilds the identical fleet from `(clients, seed, quick)`
/// alone — that is the whole trick behind running one federated round
/// across process boundaries bit-identically: data never crosses the
/// wire, only parameters do, because each side regenerates its private
/// split from the public config.
///
/// Mirrors the `rte-bench` `--quick --seed N --clients K` semantics so
/// a coordinator table can be compared byte-for-byte against the
/// in-process bench path.
pub fn transport_config(clients: usize, seed: u64, quick: bool) -> ExperimentConfig {
    transport_config_with_rounds(clients, seed, quick, None)
}

/// [`transport_config`] with an explicit round-count override — what
/// `rte-coordinator --rounds N` builds, so checkpoint/resume and chaos
/// runs can be long enough to kill midway. `None` keeps the profile's
/// default (2 rounds under `--quick`).
///
/// The round count feeds the checkpoint config digest: a checkpoint
/// taken under `--rounds 6` cannot be resumed into a `--rounds 4` run.
pub fn transport_config_with_rounds(
    clients: usize,
    seed: u64,
    quick: bool,
    rounds: Option<usize>,
) -> ExperimentConfig {
    let mut config = ExperimentConfig::scaled();
    if quick {
        config.corpus.placement_scale = 0.0; // one placement per design
        config.fed.rounds = 2;
        config.fed.local_steps = 4;
        config.fed.finetune_steps = 8;
    }
    if let Some(rounds) = rounds {
        config.fed.rounds = rounds.max(1);
    }
    config.corpus.seed = seed;
    config.fed.seed = seed ^ 0xFED5;
    config = config.with_population(UniverseConfig::new(clients, 4 * clients));
    config.methods = vec![Method::FedProx];
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_clients_reflects_table2() {
        let corpus = rte_eda::corpus::generate_corpus(&CorpusConfig::tiny()).unwrap();
        let clients = build_clients(&corpus).unwrap();
        assert_eq!(clients.len(), 9);
        assert_eq!(clients[0].id, 1);
        assert_eq!(clients[0].weight(), 4); // 4 train designs × 1 placement
        assert_eq!(clients[8].weight(), 9);
    }

    #[test]
    fn one_client_alone_is_the_fleet_member_bitwise() {
        for config in [
            ExperimentConfig::tiny(),
            transport_config_with_rounds(3, 11, true, None),
        ] {
            let fleet = build_experiment_clients(&config).unwrap();
            for (me, member) in fleet.iter().enumerate() {
                let alone = build_experiment_client(&config, me).unwrap();
                assert_eq!(alone.id, member.id);
                for (got, want) in [(&alone.train, &member.train), (&alone.test, &member.test)] {
                    assert_eq!(
                        got.minibatch_range(0..got.len()),
                        want.minibatch_range(0..want.len())
                    );
                }
            }
            assert!(build_experiment_client(&config, fleet.len()).is_err());
        }
    }

    #[test]
    fn the_fleet_refuses_an_empty_split_as_build_clients_does() {
        let config = ExperimentConfig::tiny();
        let mut spec = PAPER_CLIENTS[1];
        spec.test_designs = 0;
        let corpus = rte_eda::corpus::generate_corpus_for_specs_with(
            &[spec],
            &config.corpus,
            config.corpus_parallelism,
        )
        .unwrap();
        let refused = build_clients(&corpus).err();
        assert!(refused.is_some());
        assert_eq!(generate_fleet(&[spec], &config).err(), refused);
    }

    #[test]
    fn factory_is_deterministic() {
        let f = model_factory(ModelKind::FlNet, ModelScale::Scaled);
        let mut a = f(3);
        let mut b = f(3);
        assert_eq!(
            rte_nn::state_dict(a.as_mut()),
            rte_nn::state_dict(b.as_mut())
        );
    }

    #[test]
    fn tiny_table_runs_end_to_end() {
        let config = ExperimentConfig::tiny();
        let table = run_table(ModelKind::FlNet, &config).unwrap();
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.n_clients, 9);
        assert!(table.row(Method::FedProx).is_some());
        assert!(table.row(Method::Ifca).is_none());
        for row in &table.rows {
            assert_eq!(row.per_client_auc.len(), 9);
            assert!(row.per_client_auc.iter().all(|a| a.is_finite()));
        }
    }

    #[test]
    fn with_threads_plumbs_parallelism() {
        let before = rte_tensor::parallel::global();
        let config = ExperimentConfig::tiny().with_threads(2);
        assert_eq!(config.fed.parallelism, Parallelism::new(2));
        assert_eq!(config.corpus_parallelism, Parallelism::new(2));
        // Pure builder: the process-global kernel default is untouched.
        assert_eq!(rte_tensor::parallel::global(), before);
    }

    #[test]
    fn empty_method_list_rejected() {
        let mut config = ExperimentConfig::tiny();
        config.methods.clear();
        assert!(run_table(ModelKind::FlNet, &config).is_err());
    }

    /// A unique scratch dir under the system temp root (unit tests have
    /// no `CARGO_TARGET_TMPDIR`).
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rte-core-{tag}-{}", std::process::id()))
    }

    #[test]
    fn streaming_clients_mirror_in_memory_clients() {
        let dir = scratch_dir("stream");
        let _ = std::fs::remove_dir_all(&dir);
        let config = ExperimentConfig::tiny()
            .with_corpus_dir(&dir)
            .with_stream_chunk(3);
        // First call generates shards, second reuses them.
        let streamed = build_experiment_clients(&config).unwrap();
        let streamed_again = build_experiment_clients(&config).unwrap();
        let corpus = rte_eda::corpus::generate_corpus(&config.corpus).unwrap();
        let in_memory = build_clients(&corpus).unwrap();
        assert_eq!(streamed.len(), in_memory.len());
        for (s, m) in streamed.iter().zip(&in_memory) {
            assert_eq!(s.id, m.id);
            assert_eq!(s.weight(), m.weight());
            assert!(s.train.source().descriptor().ends_with(SHARD_EXTENSION));
            // Same bytes behind the streaming facade.
            assert_eq!(
                s.test.minibatch_range(0..s.test.len()),
                m.test.minibatch_range(0..m.test.len())
            );
        }
        assert_eq!(streamed_again.len(), streamed.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mmap_clients_mirror_read_clients() {
        let dir = scratch_dir("mmap");
        let _ = std::fs::remove_dir_all(&dir);
        let read_config = ExperimentConfig::tiny()
            .with_corpus_dir(&dir)
            .with_stream_chunk(3);
        let mmap_config = read_config.clone().with_shard_backend(ShardBackend::Mmap);
        let read_clients = build_experiment_clients(&read_config).unwrap();
        let mapped_clients = build_experiment_clients(&mmap_config).unwrap();
        assert_eq!(read_clients.len(), mapped_clients.len());
        for (r, m) in read_clients.iter().zip(&mapped_clients) {
            assert_eq!(r.id, m.id);
            assert_eq!(r.weight(), m.weight());
            let source = m.train.source();
            assert!(source.descriptor().starts_with("mmap:"));
            // Same bytes behind both backends.
            assert_eq!(
                r.test.minibatch_range(0..r.test.len()),
                m.test.minibatch_range(0..m.test.len())
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compressed_shards_serve_identical_clients() {
        let dir = scratch_dir("compress");
        let _ = std::fs::remove_dir_all(&dir);
        let raw_config = ExperimentConfig::tiny()
            .with_corpus_dir(&dir)
            .with_stream_chunk(3);
        let raw = build_experiment_clients(&raw_config).unwrap();
        let packed_config = raw_config.clone().with_compressed_shards();
        let packed = build_experiment_clients(&packed_config).unwrap();
        for (r, p) in raw.iter().zip(&packed) {
            assert_eq!(
                r.test.minibatch_range(0..r.test.len()),
                p.test.minibatch_range(0..p.test.len())
            );
        }
        // A second compressed build reuses the compacted directory.
        let again = build_experiment_clients(&packed_config).unwrap();
        assert_eq!(again.len(), packed.len());
        // Mmap serves the compressed shards with the same bits.
        let mapped =
            build_experiment_clients(&packed_config.clone().with_shard_backend(ShardBackend::Mmap))
                .unwrap();
        for (r, m) in raw.iter().zip(&mapped) {
            assert!(m.test.source().descriptor().starts_with("mmap:"));
            assert_eq!(
                r.test.minibatch_range(0..r.test.len()),
                m.test.minibatch_range(0..m.test.len())
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn population_replaces_the_table2_fleet() {
        let config = ExperimentConfig::tiny().with_population(UniverseConfig::new(5, 12));
        // Cluster assignment was regenerated to partition the universe.
        config.fed.validate_assignment(5).unwrap();
        let specs = config.client_specs().unwrap();
        assert_eq!(specs.len(), 5);
        assert_eq!(
            specs.iter().map(|s| s.index).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        let clients = build_experiment_clients(&config).unwrap();
        assert_eq!(clients.len(), 5);
        assert!(clients.iter().all(|c| c.weight() >= 1));
    }

    #[test]
    fn population_streams_through_shards_identically() {
        let dir = scratch_dir("universe");
        let _ = std::fs::remove_dir_all(&dir);
        let config = ExperimentConfig::tiny().with_population(UniverseConfig::new(3, 7));
        let in_memory = build_experiment_clients(&config).unwrap();
        let streamed =
            build_experiment_clients(&config.clone().with_corpus_dir(&dir).with_stream_chunk(2))
                .unwrap();
        assert_eq!(in_memory.len(), streamed.len());
        for (m, s) in in_memory.iter().zip(&streamed) {
            assert_eq!(m.id, s.id);
            assert_eq!(
                m.test.minibatch_range(0..m.test.len()),
                s.test.minibatch_range(0..s.test.len())
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_corpus_dir_is_rejected() {
        let dir = scratch_dir("stale");
        let _ = std::fs::remove_dir_all(&dir);
        let config = ExperimentConfig::tiny().with_corpus_dir(&dir);
        build_experiment_clients(&config).unwrap();
        // Different seed: stale.
        let mut other = config.clone();
        other.corpus.seed ^= 1;
        let err = build_experiment_clients(&other).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }), "{err}");
        // Same seed, different placement scale: also stale (would
        // silently train on the wrong corpus size otherwise).
        let mut other = config.clone();
        other.corpus.placement_scale = 0.5;
        let err = build_experiment_clients(&other).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_corpus_dir_is_rejected_not_subset_run() {
        let dir = scratch_dir("partial");
        let _ = std::fs::remove_dir_all(&dir);
        let config = ExperimentConfig::tiny().with_corpus_dir(&dir);
        build_experiment_clients(&config).unwrap();
        // Hand-delete one client's pair: still a coherent directory,
        // but no longer the nine-client Table 2 corpus.
        std::fs::remove_file(dir.join("client05.train.rtes")).unwrap();
        std::fs::remove_file(dir.join("client05.test.rtes")).unwrap();
        let err = build_experiment_clients(&config).unwrap_err();
        match err {
            CoreError::InvalidConfig { reason } => {
                assert!(reason.contains("needs"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_corpus_dir_error_says_how_to_recover() {
        let dir = scratch_dir("damaged");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A lone garbage .rtes file: has_shards() is true, so generation
        // is skipped and the open fails — the error must point at the
        // recovery path instead of being a bare decode failure.
        std::fs::write(dir.join("client01.train.rtes"), b"garbage").unwrap();
        let config = ExperimentConfig::tiny().with_corpus_dir(&dir);
        let err = build_experiment_clients(&config).unwrap_err();
        match err {
            CoreError::InvalidConfig { reason } => {
                assert!(reason.contains("delete the directory"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_shard_in_a_compacted_dir_says_how_to_recover() {
        let dir = scratch_dir("torn");
        let _ = std::fs::remove_dir_all(&dir);
        let config = ExperimentConfig::tiny().with_corpus_dir(&dir);
        CorpusWriter::new(&dir)
            .write_specs(&config.client_specs().unwrap(), &config.corpus)
            .unwrap();
        compact_dir(&dir, DEFAULT_COMPRESS_CHUNK).unwrap();
        // A renamed shard whose data never reached the disk.
        std::fs::write(dir.join("client04.test.rtes"), b"").unwrap();
        // With compression on, the idempotent compaction meets the torn
        // shard first: the same recovery error, not a bare decode error.
        for config in [config.clone(), config.with_compressed_shards()] {
            match build_experiment_clients(&config).unwrap_err() {
                CoreError::InvalidConfig { reason } => {
                    assert!(reason.contains("delete the directory"), "{reason}");
                }
                other => panic!("expected InvalidConfig, got {other}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
