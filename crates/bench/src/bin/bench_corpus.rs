//! **Corpus-scale benchmark**: measures corpus generation and the three
//! data-path knobs added for out-of-core scaling, and dumps a
//! machine-readable `BENCH_corpus.json` trajectory next to
//! `BENCH_kernels.json`, every record carrying its thread count, SIMD
//! arm and commit:
//!
//! - streamed shard generation: wall time and, on Linux, the write
//!   side's peak resident set (`VmHWM` right after the write, which is
//!   the binary's first stage),
//! - the generation rows of [`rte_bench::generation`] (netlist,
//!   placement, one-pass analysis and whole sample per benchmark family,
//!   the Table-2 scaled corpus), one thread each,
//! - full-pass shard read throughput, `seek`+`read` backend vs the
//!   memory-mapped zero-copy backend (same bytes, different plumbing),
//! - shard compaction with the delta+bitpack chunk codec, raw vs
//!   compressed bytes on disk plus a bitwise round-trip check,
//! - an end-to-end FedProx round on a synthesized client universe
//!   (`--clients`, default 100) — the population-scale smoke the CI
//!   matrix runs with `--quick`,
//! - one FedProx run per client-data backend on the scaled Table-2
//!   fleet (3 rounds, 1 thread, `--seed` applies): in memory, `read` on
//!   raw shards, `read` on compressed shards, and `mmap` on raw shards,
//!   with the compressed frames each run decoded.
//!
//! The data-path knobs are pure wall-clock/disk knobs: the determinism
//! suites pin every one of them to bit-identical outcomes.

use std::path::Path;
use std::time::Instant;

use rte_bench::{generation, BenchArgs};
use rte_core::{build_experiment_clients, run_method_on_clients, ExperimentConfig, ShardBackend};
use rte_eda::corpus::UniverseConfig;
use rte_eda::mmap::MmapShardReader;
use rte_eda::shard::{
    compact_dir, frames_decoded, CorpusReader, CorpusWriter, DEFAULT_COMPRESS_CHUNK,
};
use rte_fed::Method;
use rte_nn::models::ModelKind;

/// One flat JSON record, kernels-dump style.
struct Entry {
    metric: &'static str,
    fields: Vec<(&'static str, String)>,
}

impl Entry {
    fn new(metric: &'static str) -> Self {
        Entry {
            metric,
            fields: Vec::new(),
        }
    }

    fn num(mut self, key: &'static str, value: f64) -> Self {
        self.fields.push((key, format!("{value:.3}")));
        self
    }

    fn int(mut self, key: &'static str, value: u64) -> Self {
        self.fields.push((key, value.to_string()));
        self
    }

    fn text(mut self, key: &'static str, value: &str) -> Self {
        self.fields.push((key, format!("\"{value}\"")));
        self
    }
}

/// Renders the records, each closed with the provenance every number
/// here needs: the SIMD arm and the commit measured.
fn render_json(entries: &[Entry]) -> String {
    let provenance = format!(
        ", \"arm\": \"{}\", \"commit\": \"{}\"",
        rte_tensor::simd::global().name(),
        rte_bench::commit()
    );
    let mut json = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!("  {{\"metric\": \"{}\"", e.metric));
        for (k, v) in &e.fields {
            json.push_str(&format!(", \"{k}\": {v}"));
        }
        json.push_str(&provenance);
        json.push_str(if i + 1 == entries.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    json.push_str("]\n");
    json
}

/// Mean microseconds per call of `row`: three warm-up calls, then at
/// least five timed ones and as many more as fit in half a second.
fn mean_us(row: &mut dyn FnMut()) -> f64 {
    for _ in 0..3 {
        row();
    }
    let start = Instant::now();
    let mut calls = 0u32;
    while calls < 5 || start.elapsed().as_secs_f64() < 0.5 {
        row();
        calls += 1;
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}

/// The process's peak resident set so far (`VmHWM`), in MB of 1024 kB;
/// `None` where `/proc/self/status` does not exist (non-Linux).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Full sequential pass over every shard via `seek`+`read`; returns
/// `(samples, seconds)`.
fn read_pass(dir: &Path) -> (u64, f64) {
    let reader = CorpusReader::open(dir).expect("corpus dir readable");
    let mut features = Vec::new();
    let mut labels = Vec::new();
    let mut samples = 0u64;
    let start = Instant::now();
    for client in reader.clients() {
        for shard in [&client.train, &client.test] {
            shard
                .read_batch_into(0..shard.len(), &mut features, &mut labels)
                .expect("shard pass");
            samples += shard.len() as u64;
        }
    }
    (samples, start.elapsed().as_secs_f64())
}

/// The same pass through the memory-mapped backend.
fn mmap_pass(dir: &Path) -> (u64, f64) {
    let reader = CorpusReader::open(dir).expect("corpus dir readable");
    let paths: Vec<_> = reader
        .clients()
        .iter()
        .flat_map(|c| [c.train.path().to_path_buf(), c.test.path().to_path_buf()])
        .collect();
    let mut features = Vec::new();
    let mut labels = Vec::new();
    let mut samples = 0u64;
    let start = Instant::now();
    for path in paths {
        let shard = MmapShardReader::open(&path).expect("mmap open");
        shard
            .read_batch_into(0..shard.len(), &mut features, &mut labels)
            .expect("mmap pass");
        samples += shard.len() as u64;
    }
    (samples, start.elapsed().as_secs_f64())
}

/// Copies every file of `src` into `dst` (fresh directory).
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read corpus dir") {
        let path = entry.expect("dir entry").path();
        if path.is_file() {
            std::fs::copy(&path, dst.join(path.file_name().expect("file name")))
                .expect("copy shard");
        }
    }
}

/// First training sample of every client, as raw bits (the round-trip
/// verification currency).
fn first_sample_bits(dir: &Path) -> Vec<Vec<u32>> {
    let reader = CorpusReader::open(dir).expect("corpus dir readable");
    reader
        .clients()
        .iter()
        .map(|c| {
            let s = c.train.read_sample(0).expect("sample 0");
            s.features.data().iter().map(|v| v.to_bits()).collect()
        })
        .collect()
}

/// One FedProx run per client-data backend on the scaled Table-2 fleet,
/// 3 rounds on 1 thread; only the run is timed, not the client build.
/// Every backend must reach the same average AUC bit for bit.
fn backend_rows(seed: Option<u64>, scratch: &Path) -> Vec<Entry> {
    let mut flags = vec!["--rounds", "3", "--threads", "1"]
        .into_iter()
        .map(String::from)
        .collect::<Vec<_>>();
    if let Some(seed) = seed {
        flags.extend(["--seed".to_string(), seed.to_string()]);
    }
    let base = BenchArgs::parse_from(flags)
        .expect("fixed flags parse")
        .experiment_config();
    let raw_dir = scratch.join("table2-raw");
    let backends = [
        ("memory", base.clone()),
        ("read", base.clone().with_corpus_dir(&raw_dir)),
        (
            "read_compressed",
            base.clone()
                .with_corpus_dir(scratch.join("table2-packed"))
                .with_compressed_shards(),
        ),
        (
            "mmap",
            base.clone()
                .with_corpus_dir(&raw_dir)
                .with_shard_backend(ShardBackend::Mmap),
        ),
    ];
    let mut auc_bits = None;
    let mut entries = Vec::new();
    for (backend, config) in backends {
        let clients = build_experiment_clients(&config).expect("client build");
        let frames_before = frames_decoded();
        let start = Instant::now();
        let outcome = run_method_on_clients(Method::FedProx, &clients, ModelKind::FlNet, &config)
            .expect("fedprox run");
        let secs = start.elapsed().as_secs_f64();
        let frames = frames_decoded() - frames_before;
        assert_eq!(
            *auc_bits.get_or_insert(outcome.average_auc.to_bits()),
            outcome.average_auc.to_bits(),
            "backend {backend} must reproduce the in-memory outcome"
        );
        println!(
            "bench: fedprox table2 {backend:<16} {:>9.1} ms  {frames:>6} frames decoded",
            secs * 1e3
        );
        entries.push(
            Entry::new("fedprox_backend")
                .text("backend", backend)
                .int("rounds", config.fed.rounds as u64)
                .num("average_auc", outcome.average_auc)
                .num("elapsed_ms", secs * 1e3)
                .int("frames_decoded", frames)
                .int("threads", config.fed.parallelism.resolve() as u64),
        );
    }
    entries
}

fn main() {
    let args = BenchArgs::parse();
    let mut config: ExperimentConfig = args.experiment_config();
    if args.clients.is_none() {
        // The benchmark's reason to exist is population scale: default
        // to a 100-client universe rather than the 9-client Table 2.
        config = config.with_population(UniverseConfig::new(100, 400));
    }
    let specs = config.client_specs().expect("universe shape");
    let scratch = std::env::temp_dir().join(format!("rte-bench-corpus-{}", std::process::id()));
    let raw_dir = scratch.join("raw");
    let packed_dir = scratch.join("packed");
    let _ = std::fs::remove_dir_all(&scratch);

    eprintln!(
        "generating {} clients ({} shard files) …",
        specs.len(),
        2 * specs.len()
    );
    let gen_start = Instant::now();
    CorpusWriter::new(&raw_dir)
        .with_chunk(config.stream_chunk)
        .with_parallelism(config.corpus_parallelism)
        .write_specs(&specs, &config.corpus)
        .expect("shard generation");
    let gen_secs = gen_start.elapsed().as_secs_f64();
    // The write is the first stage, so the peak so far is its own.
    let write_peak = peak_rss_mb();

    let threads = config.corpus_parallelism.resolve() as u64;
    let mut generate = Entry::new("shard_generate")
        .int("clients", specs.len() as u64)
        .num("elapsed_ms", gen_secs * 1e3);
    if let Some(mb) = write_peak {
        generate = generate.num("peak_rss_mb", mb);
    }
    let mut entries = vec![generate.int("threads", threads)];

    for (name, mut row) in generation::rows() {
        let us = mean_us(&mut row);
        println!("bench: {name:<40} {us:>12.1} us");
        entries.push(
            Entry::new("generate")
                .text("row", &name)
                .num("us_per_iter", us)
                .int("threads", 1),
        );
    }

    // Read-backend vs mmap-backend full pass (warm once to take file
    // creation out of the first-measured arm).
    let _ = read_pass(&raw_dir);
    let (read_samples, read_secs) = read_pass(&raw_dir);
    let (mmap_samples, mmap_secs) = mmap_pass(&raw_dir);
    assert_eq!(
        read_samples, mmap_samples,
        "backends must see equal corpora"
    );
    for (backend, samples, secs) in [
        ("read", read_samples, read_secs),
        ("mmap", mmap_samples, mmap_secs),
    ] {
        println!(
            "bench: full pass {backend:<5} {samples:>8} samples  {:>10.1} samples/s",
            samples as f64 / secs
        );
        entries.push(
            Entry::new("shard_pass")
                .text("backend", backend)
                .int("samples", samples)
                .num("elapsed_ms", secs * 1e3)
                .num("samples_per_sec", samples as f64 / secs)
                .int("threads", 1),
        );
    }

    // Compression: compact a copy, compare bytes, verify bitwise.
    copy_dir(&raw_dir, &packed_dir);
    let pack_start = Instant::now();
    let summary = compact_dir(&packed_dir, DEFAULT_COMPRESS_CHUNK).expect("compaction");
    let pack_secs = pack_start.elapsed().as_secs_f64();
    assert_eq!(
        first_sample_bits(&raw_dir),
        first_sample_bits(&packed_dir),
        "codec must round-trip bitwise"
    );
    println!(
        "bench: compaction {} shards  {} -> {} bytes ({:.2}x)",
        summary.compressed,
        summary.raw_bytes,
        summary.compressed_bytes,
        summary.raw_bytes as f64 / summary.compressed_bytes as f64
    );
    entries.push(
        Entry::new("compression")
            .int("shards", summary.compressed as u64)
            .int("raw_bytes", summary.raw_bytes)
            .int("compressed_bytes", summary.compressed_bytes)
            .num(
                "ratio",
                summary.raw_bytes as f64 / summary.compressed_bytes as f64,
            )
            .num("elapsed_ms", pack_secs * 1e3)
            .int("threads", 1),
    );

    // End-to-end: one FedProx run over the full universe on whichever
    // path the flags picked (in-memory by default; --corpus-dir,
    // --mmap, --compress-shards all apply).
    let e2e_start = Instant::now();
    let clients = build_experiment_clients(&config).expect("client build");
    let outcome = run_method_on_clients(Method::FedProx, &clients, ModelKind::FlNet, &config)
        .expect("fedprox run");
    let e2e_secs = e2e_start.elapsed().as_secs_f64();
    println!(
        "bench: fedprox {} clients {} rounds  avg AUC {:.4}  {:.1}s",
        clients.len(),
        config.fed.rounds,
        outcome.average_auc,
        e2e_secs
    );
    entries.push(
        Entry::new("fedprox_round")
            .int("clients", clients.len() as u64)
            .int("rounds", config.fed.rounds as u64)
            .num("average_auc", outcome.average_auc)
            .num("elapsed_ms", e2e_secs * 1e3)
            .int("threads", rte_tensor::parallel::global().resolve() as u64),
    );

    // Last, because its `--threads 1` retunes the process-wide kernel
    // default.
    entries.extend(backend_rows(args.seed, &scratch));

    let json = render_json(&entries);
    // Same convention as the kernels dump: workspace root by default,
    // `RTE_BENCH_CORPUS_JSON` overrides.
    let path = rte_tensor::knobs::raw("RTE_BENCH_CORPUS_JSON").unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_corpus.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench: wrote corpus trajectory to {path}"),
        Err(e) => eprintln!("bench: could not write {path}: {e}"),
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
