//! `stream_100c`: the 100-client round on the bounded-memory path.
//!
//! A synthesized 100-client universe on the quick data profile, trained
//! out of core. Set-up is the **write** side of the shard layer:
//! `CorpusWriter::write_specs` into a fresh directory, then
//! `compact_dir`. The run is the **read** side: `build_experiment_clients`
//! opens and validates the 200 compressed shards on the read backend
//! and FedProx streams them back in 8-sample chunks through 100-way
//! training, aggregation and evaluation. Its `peak_rss_mb` is the
//! number that must stay flat when the shard readers are merged.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use decentralized_routability::core::{
    build_experiment_clients, model_factory, run_method_on_clients, ExperimentConfig,
};
use decentralized_routability::eda::corpus::UniverseConfig;
use decentralized_routability::eda::shard::{
    compact_dir, CorpusReader, CorpusWriter, ShardReader, DEFAULT_COMPRESS_CHUNK,
};
use decentralized_routability::fed::{Client, ClientSet, Method, RecordSource, StreamingClientSet};
use decentralized_routability::nn::models::{ModelKind, ModelScale};

use super::{
    outcome_bits, quick_profile, score_count, settle_seed, totals_are, IterCtx, Iteration,
    PhaseTimer, Workload,
};
use crate::replica;
use crate::trace::Tracer;
use crate::wrap::{ReadCounters, TracedShardSource};

const THREADS: usize = 1;
const CLIENTS: usize = 100;
const DESIGNS: usize = 4 * CLIENTS;
const STREAM_CHUNK: usize = 8;
/// Rounds × the quick profile's 4 local steps × 100 clients: sized so
/// one iteration's run is about a second and a half on its one thread.
const ROUNDS: usize = 1;
const KIND: ModelKind = ModelKind::FlNet;
/// The universe's size: its 400 designs split 275 to 125 on one seed in
/// seven (270 to 280 training samples on the rest).
const TRAIN_SAMPLES: usize = 275;
const TEST_SAMPLES: usize = 125;

/// Where the traced iteration leaves an uncompressed copy of the
/// shards for the read-pass probes.
pub const RAW_COPY_DIR: &str = "corpus-raw";
/// Where every iteration writes (and the run reads) the shards.
pub const CORPUS_DIR: &str = "corpus";

/// The first training sample of every client, as bits — the currency of
/// the raw-versus-compacted round-trip check.
fn first_sample_bits(dir: &Path) -> Result<Vec<Vec<u32>>, String> {
    let reader = CorpusReader::open(dir).map_err(|e| e.to_string())?;
    reader
        .clients()
        .iter()
        .map(|c| {
            let sample = c.train.read_sample(0).map_err(|e| e.to_string())?;
            Ok(sample.features.data().iter().map(|v| v.to_bits()).collect())
        })
        .collect()
}

fn copy_shards(src: &Path, dst: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let path = entry?.path();
        if let (true, Some(name)) = (path.is_file(), path.file_name()) {
            std::fs::copy(&path, dst.join(name))?;
        }
    }
    Ok(())
}

/// See the module docs.
pub struct Stream100c {
    /// Without `corpus_dir`: the scratch directory is only known per
    /// iteration.
    base: ExperimentConfig,
}

impl Stream100c {
    /// The workload for `seed`; `smoke` shrinks the universe to 10
    /// clients.
    ///
    /// # Errors
    ///
    /// See [`settle_seed`].
    pub fn new(seed: u64, smoke: bool) -> Result<Self, String> {
        let (clients, designs) = if smoke { (10, 40) } else { (CLIENTS, DESIGNS) };
        let mut base = ExperimentConfig::scaled().with_threads(THREADS);
        quick_profile(&mut base);
        base.fed.rounds = if smoke { 1 } else { ROUNDS };
        base.methods = vec![Method::FedProx];
        let mut base = base
            .with_population(UniverseConfig::new(clients, designs))
            .with_stream_chunk(STREAM_CHUNK)
            .with_compressed_shards();
        // The smoke universe is there to run every check once, at
        // whatever size its seed gives.
        settle_seed(&mut base, seed, |fleet| {
            smoke || totals_are(fleet, TRAIN_SAMPLES, TEST_SAMPLES)
        })?;
        Ok(Stream100c { base })
    }

    /// What `build_experiment_clients` does for a streaming config whose
    /// shards exist, from its public pieces, with spans and counters.
    fn open_traced(
        dir: &Path,
        tracer: &Arc<Tracer>,
        counters: &Arc<ReadCounters>,
    ) -> Result<Vec<Client>, String> {
        {
            // Idempotent on a compacted directory, but it still opens
            // every shard to find that out — as the untraced path does.
            let _span = tracer.span("eda.compact_check");
            compact_dir(dir, DEFAULT_COMPRESS_CHUNK).map_err(|e| e.to_string())?;
        }
        let reader = {
            let _span = tracer.span("eda.open_validate");
            CorpusReader::open(dir).map_err(|e| e.to_string())?
        };
        let _span = tracer.span("core.build_clients");
        let split = |reader: ShardReader| -> Result<ClientSet, String> {
            let source: Arc<dyn RecordSource> = Arc::new(TracedShardSource::new(
                reader,
                Arc::clone(tracer),
                Arc::clone(counters),
            ));
            StreamingClientSet::new(source, STREAM_CHUNK)
                .map(ClientSet::streaming)
                .map_err(|e| e.to_string())
        };
        reader
            .into_clients()
            .into_iter()
            .map(|shards| {
                Ok(Client::new(
                    shards.client_index,
                    split(shards.train)?,
                    split(shards.test)?,
                ))
            })
            .collect()
    }
}

impl Workload for Stream100c {
    fn threads(&self) -> usize {
        THREADS
    }

    fn model(&self) -> (ModelKind, ModelScale) {
        (KIND, self.base.model_scale)
    }

    fn sizes(&self) -> Vec<(&'static str, f64)> {
        let universe = self.base.population.expect("population set in new()");
        vec![
            ("clients", universe.clients as f64),
            ("designs", universe.designs as f64),
            ("settled_seed", self.base.corpus.seed as f64),
            ("rounds", self.base.fed.rounds as f64),
            ("local_steps", self.base.fed.local_steps as f64),
            ("stream_chunk", STREAM_CHUNK as f64),
            ("placement_scale", self.base.corpus.placement_scale),
        ]
    }

    fn iterate(&mut self, ctx: &IterCtx<'_>) -> Result<Iteration, String> {
        let tracer = ctx.tracer.map(|t| t.as_ref());
        let dir: PathBuf = ctx.scratch.join(CORPUS_DIR);
        let _ = std::fs::remove_dir_all(&dir);
        let config = self.base.clone().with_corpus_dir(&dir);
        let specs = config.client_specs().map_err(|e| e.to_string())?;
        let mut failed_checks = Vec::new();

        // Set-up: the write side.
        let mut timer = PhaseTimer::start(tracer)?;
        {
            let _span = tracer.map(|t| t.span("eda.shard_write"));
            CorpusWriter::new(&dir)
                .with_chunk(config.stream_chunk)
                .with_parallelism(config.corpus_parallelism)
                .write_specs(&specs, &config.corpus)
                .map_err(|e| e.to_string())?;
        }
        let raw_bits = timer.untimed(|| -> Result<_, String> {
            if ctx.tracer.is_some() {
                copy_shards(&dir, &ctx.scratch.join(RAW_COPY_DIR)).map_err(|e| e.to_string())?;
            }
            first_sample_bits(&dir)
        })??;
        let compaction = {
            let _span = tracer.map(|t| t.span("eda.compact"));
            compact_dir(&dir, DEFAULT_COMPRESS_CHUNK).map_err(|e| e.to_string())?
        };
        if timer.untimed(|| first_sample_bits(&dir))?? != raw_bits {
            failed_checks.push("sample bits differ raw vs compacted".to_string());
        }
        timer.setup_done();

        // Run: the read side.
        let counters = Arc::new(ReadCounters::default());
        let (outcome, consumed, clients) = match ctx.tracer {
            None => {
                let clients = build_experiment_clients(&config).map_err(|e| e.to_string())?;
                let outcome = run_method_on_clients(Method::FedProx, &clients, KIND, &config)
                    .map_err(|e| e.to_string())?;
                (outcome, 0, clients)
            }
            Some(tracer) => {
                let clients = Self::open_traced(&dir, tracer, &counters)?;
                let factory = model_factory(KIND, config.model_scale);
                let run = replica::fedprox(&clients, &factory, &config.fed, tracer)
                    .map_err(|e| e.to_string())?;
                (run.outcome, run.samples_consumed, clients)
            }
        };
        let mut it = timer.finish()?;

        it.failed_checks = failed_checks;
        it.fingerprint = outcome_bits(&outcome);
        let decoded = counters.samples.load(std::sync::atomic::Ordering::Relaxed);
        it.facts.insert("rounds", config.fed.rounds as f64);
        it.facts
            .insert("steps_per_slot", config.fed.local_steps as f64);
        it.facts.insert(
            "compress_ratio",
            compaction.raw_bytes as f64 / compaction.compressed_bytes.max(1) as f64,
        );
        it.facts.insert("samples_consumed", consumed as f64);
        it.facts.insert("samples_decoded", decoded as f64);
        it.facts.insert("score_count", score_count(&clients));
        Ok(it)
    }
}
