//! Shared support for the benchmark harness binaries.
//!
//! Each paper table/figure has a dedicated binary under `src/bin/`; this
//! library provides their common pieces: a tiny CLI parser, the paper's
//! published numbers (so every run prints *paper vs measured* side by
//! side), and comparison rendering.
//!
//! Run e.g.:
//!
//! ```text
//! cargo run -p rte-bench --release --bin table3_flnet
//! cargo run -p rte-bench --release --bin table3_flnet -- --paper-scale
//! cargo run -p rte-bench --release --bin fig1_convergence -- --rounds 20
//! ```

// Pure safe Rust; all workspace `unsafe` lives in `rte_tensor::simd`
// (rte-lint rule L1 enforces this).
#![forbid(unsafe_code)]

pub mod generation;
pub mod reference;

use rte_core::ExperimentConfig;
use rte_eda::corpus::UniverseConfig;
use rte_fed::MethodOutcome;

/// `git describe --always --dirty` of the checkout being measured, so a
/// benchmark record says which code produced it (the parent commit plus
/// `-dirty` when run before committing).
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Command-line options shared by the harness binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Use the paper's full hyper-parameters and data counts (hours of
    /// CPU) instead of the CPU-scaled defaults.
    pub paper_scale: bool,
    /// Override the experiment seed.
    pub seed: Option<u64>,
    /// Override the number of federated rounds.
    pub rounds: Option<usize>,
    /// Override the placement-count scale factor.
    pub data_scale: Option<f64>,
    /// Extra-fast smoke-test settings (used by integration tests).
    pub quick: bool,
    /// Worker-thread budget for parallel client training and batched
    /// kernels (`0` = all cores). `None` keeps the `RTE_THREADS`
    /// environment default. Results are bit-identical for any value.
    pub threads: Option<usize>,
    /// Run the experiment out-of-core: generate/reuse corpus shards in
    /// this directory and stream every client's data in bounded-memory
    /// chunks. `None` keeps the in-memory default. Results are
    /// bit-identical either way.
    pub corpus_dir: Option<std::path::PathBuf>,
    /// Samples per streamed chunk (refused without `--corpus-dir`).
    pub stream_chunk: Option<usize>,
    /// Serve shards, raw or compressed, from a memory map of each file
    /// (refused without `--corpus-dir`). Results are bit-identical.
    pub mmap: bool,
    /// Compact shard files with the delta+bitpack chunk codec before
    /// training (refused without `--corpus-dir`). Results are
    /// bit-identical.
    pub compress_shards: bool,
    /// Train a synthesized client universe of this size instead of the
    /// Table 2 fleet.
    pub clients: Option<usize>,
    /// Design pool size for `--clients` (default `4 × clients`).
    pub designs: Option<usize>,
}

/// Every flag [`BenchArgs`] parses.
pub const FLAGS: &[&str] = &[
    "--paper-scale",
    "--quick",
    "--seed",
    "--rounds",
    "--data-scale",
    "--threads",
    "--corpus-dir",
    "--stream-chunk",
    "--mmap",
    "--compress-shards",
    "--clients",
    "--designs",
];

/// The flags each harness binary under `src/bin` refuses, because
/// nothing it prints depends on them; every other flag changes the
/// configuration its run reads. A binary without a row refuses to start.
pub const REFUSED_FLAGS: &[(&str, &[&str])] = &[
    ("ablation_batchnorm", &[]),
    ("ablation_features", &[]),
    ("ablation_flnet_arch", &[]),
    ("ablation_mu", &[]),
    // Analytic costs: only the fleet size and the fed schedule count.
    (
        "analysis_comm_cost",
        &[
            "--seed",
            "--data-scale",
            "--threads",
            "--corpus-dir",
            "--stream-chunk",
            "--mmap",
            "--compress-shards",
            "--designs",
        ],
    ),
    ("analysis_heterogeneity", &["--rounds"]),
    ("bench_corpus", &[]),
    ("fig1_convergence", &[]),
    ("fig2_personalization", &[]),
    // The architecture table is a constant of the code.
    ("table1_flnet_arch", FLAGS),
    (
        "table2_data_setup",
        &[
            "--rounds",
            "--corpus-dir",
            "--stream-chunk",
            "--mmap",
            "--compress-shards",
        ],
    ),
    ("table3_flnet", &[]),
    ("table4_routenet", &[]),
    ("table5_pros", &[]),
    ("table6_robustness", &[]),
    ("table7_async", &[]),
    ("table8_chaos", &[]),
];

impl BenchArgs {
    /// Parses from an explicit iterator (testable), refusing no flag a
    /// binary could not honour: binaries parse with
    /// [`BenchArgs::parse_for`].
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags, malformed values and flags
    /// that contradict each other or need one that is missing, so a typo
    /// cannot silently run the wrong experiment.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        Self::parse_refusing("", &[], args)
    }

    /// Parses `binary`'s arguments, refusing the flags its row of
    /// [`REFUSED_FLAGS`] names as soon as they appear.
    ///
    /// # Errors
    ///
    /// As [`BenchArgs::parse_from`], plus a message naming `binary` and
    /// the flag for a refused flag, and one for a binary without a row.
    pub fn parse_for<I: IntoIterator<Item = String>>(
        binary: &str,
        args: I,
    ) -> Result<Self, String> {
        let refused = REFUSED_FLAGS
            .iter()
            .find(|(name, _)| *name == binary)
            .ok_or_else(|| format!("{binary} has no row in rte_bench::REFUSED_FLAGS"))?
            .1;
        Self::parse_refusing(binary, refused, args)
    }

    fn parse_refusing<I: IntoIterator<Item = String>>(
        binary: &str,
        refused: &[&str],
        args: I,
    ) -> Result<Self, String> {
        let mut out = BenchArgs {
            paper_scale: false,
            seed: None,
            rounds: None,
            data_scale: None,
            quick: false,
            threads: None,
            corpus_dir: None,
            stream_chunk: None,
            mmap: false,
            compress_shards: false,
            clients: None,
            designs: None,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if refused.contains(&arg.as_str()) {
                return Err(format!("{binary} cannot honour {arg}, so it refuses it"));
            }
            match arg.as_str() {
                "--paper-scale" => out.paper_scale = true,
                "--quick" => out.quick = true,
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    out.seed = Some(v.parse().map_err(|_| format!("bad seed {v}"))?);
                }
                "--rounds" => {
                    let v = it.next().ok_or("--rounds needs a value")?;
                    out.rounds = Some(v.parse().map_err(|_| format!("bad rounds {v}"))?);
                }
                "--data-scale" => {
                    let v = it.next().ok_or("--data-scale needs a value")?;
                    out.data_scale = Some(v.parse().map_err(|_| format!("bad data scale {v}"))?);
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    out.threads = Some(v.parse().map_err(|_| format!("bad thread count {v}"))?);
                }
                "--corpus-dir" => {
                    let v = it.next().ok_or("--corpus-dir needs a path")?;
                    out.corpus_dir = Some(std::path::PathBuf::from(v));
                }
                "--stream-chunk" => {
                    let v = it.next().ok_or("--stream-chunk needs a value")?;
                    let chunk: usize = v.parse().map_err(|_| format!("bad chunk size {v}"))?;
                    if chunk == 0 {
                        return Err("--stream-chunk must be positive".into());
                    }
                    out.stream_chunk = Some(chunk);
                }
                "--mmap" => out.mmap = true,
                "--compress-shards" => out.compress_shards = true,
                "--clients" => {
                    let v = it.next().ok_or("--clients needs a value")?;
                    let n: usize = v.parse().map_err(|_| format!("bad client count {v}"))?;
                    if n == 0 {
                        return Err("--clients must be positive".into());
                    }
                    out.clients = Some(n);
                }
                "--designs" => {
                    let v = it.next().ok_or("--designs needs a value")?;
                    out.designs = Some(v.parse().map_err(|_| format!("bad design count {v}"))?);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if out.corpus_dir.is_none() {
            let shard_flags = [
                ("--stream-chunk", out.stream_chunk.is_some()),
                ("--mmap", out.mmap),
                ("--compress-shards", out.compress_shards),
            ];
            if let Some((flag, _)) = shard_flags.iter().find(|(_, given)| *given) {
                return Err(format!("{flag} only works together with --corpus-dir"));
            }
        }
        if out.designs.is_some() && out.clients.is_none() {
            return Err("--designs only makes sense together with --clients".into());
        }
        if let (Some(c), Some(d)) = (out.clients, out.designs) {
            if d < 2 * c {
                return Err(format!("--designs {d} is too small: need at least 2 × {c}"));
            }
        }
        Ok(out)
    }

    /// Parses `binary`'s process arguments ([`BenchArgs::parse_for`]),
    /// exiting with status 2 and usage on error, before any work starts.
    pub fn parse(binary: &str) -> Self {
        Self::parse_for(binary, std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(&e))
    }

    /// Builds the experiment configuration these options select.
    pub fn experiment_config(&self) -> ExperimentConfig {
        let mut config = if self.paper_scale {
            ExperimentConfig::paper()
        } else {
            ExperimentConfig::scaled()
        };
        if self.quick {
            config.corpus.placement_scale = 0.0; // one placement per design
            config.fed.rounds = 2;
            config.fed.local_steps = 4;
            config.fed.finetune_steps = 8;
        }
        if let Some(seed) = self.seed {
            config.corpus.seed = seed;
            config.fed.seed = seed ^ 0xFED5;
        }
        if let Some(rounds) = self.rounds {
            config.fed.rounds = rounds;
        }
        if let Some(scale) = self.data_scale {
            config.corpus.placement_scale = scale;
        }
        if let Some(threads) = self.threads {
            // Parallel client training + the kernel-level process default
            // (this is binary startup, the sanctioned place to retune the
            // global); outcomes are bit-identical either way.
            config = config.with_threads(threads);
            rte_tensor::parallel::set_global(rte_fed::Parallelism::new(threads));
        }
        if let Some(dir) = &self.corpus_dir {
            config = config.with_corpus_dir(dir);
        }
        if let Some(chunk) = self.stream_chunk {
            config = config.with_stream_chunk(chunk);
        }
        if self.mmap {
            config = config.with_shard_backend(rte_core::ShardBackend::Mmap);
        }
        if self.compress_shards {
            config = config.with_compressed_shards();
        }
        if let Some(clients) = self.clients {
            let designs = self.designs.unwrap_or(4 * clients);
            config = config.with_population(UniverseConfig::new(clients, designs));
        }
        config
    }
}

/// Prints `error` and the shared usage line to stderr and exits with
/// status 2 (the harness binaries' answer to arguments they refuse).
pub fn usage_exit(error: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!(
        "usage: [--paper-scale] [--quick] [--seed N] [--rounds N] [--data-scale F] \
         [--threads N] [--corpus-dir PATH [--stream-chunk N] [--mmap] [--compress-shards]] \
         [--clients N [--designs D]]"
    );
    std::process::exit(2);
}

/// Renders a *paper vs measured* comparison for one table.
pub fn render_comparison(measured: &[MethodOutcome], paper: &reference::PaperTable) -> String {
    let mut out = String::new();
    out.push_str(&format!("{}\n", paper.caption));
    out.push_str(&format!(
        "{:<34} {:>7} {:>9} {:>7}\n",
        "Method", "paper", "measured", "delta"
    ));
    out.push_str(&"-".repeat(62));
    out.push('\n');
    for row in measured {
        let label = row.method.label();
        match paper.row(label) {
            Some(p) => {
                let delta = row.average_auc - p.average;
                out.push_str(&format!(
                    "{label:<34} {:>7.2} {:>9.2} {:>+7.2}\n",
                    p.average, row.average_auc, delta
                ));
            }
            None => {
                out.push_str(&format!(
                    "{label:<34} {:>7} {:>9.2}\n",
                    "n/a", row.average_auc
                ));
            }
        }
    }
    out
}

/// Checks the qualitative orderings a table must reproduce; returns a list
/// of human-readable verdicts (`true` = the ordering holds in the
/// measured data). Each check is `(higher_label, lower_label, why)`.
pub fn ordering_checks(
    measured: &[MethodOutcome],
    checks: &[(&str, &str, &str)],
) -> Vec<(String, bool)> {
    use rte_fed::Method;
    let find = |label: &str| -> Option<f64> {
        Method::ALL
            .iter()
            .find(|m| m.label() == label)
            .and_then(|m| measured.iter().find(|r| r.method == *m))
            .map(|r| r.average_auc)
    };
    checks
        .iter()
        .filter_map(|(hi, lo, why)| {
            let a = find(hi)?;
            let b = find(lo)?;
            Some((format!("{why}: {hi} ({a:.2}) > {lo} ({b:.2})"), a > b))
        })
        .collect()
}

/// Full main body for a table binary: parse `binary`'s args, run the experiment
/// matrix for `kind`, print the measured table, the paper comparison and
/// the qualitative ordering checks.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn table_main(
    binary: &str,
    kind: rte_nn::models::ModelKind,
    paper: &reference::PaperTable,
    checks: &[(&str, &str, &str)],
) -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(binary);
    let config = args.experiment_config();
    eprintln!(
        "running {} experiment matrix ({} methods, {} rounds, scale {:.3}) …",
        kind,
        config.methods.len(),
        config.fed.rounds,
        config.corpus.placement_scale
    );
    let start = std::time::Instant::now();
    let table = rte_core::run_table(kind, &config)?;
    println!("{}", rte_core::report::render_table(&table));
    // Companion metrics from the per-client EvalReports (not in the
    // paper's tables, but what a deployment would actually monitor).
    println!(
        "{}",
        rte_core::report::render_metric_table(&table, "Average precision per client", |r| r
            .average_precision)
    );
    println!(
        "{}",
        rte_core::report::render_metric_table(
            &table,
            "Accuracy at the 0.5 deployment threshold per client",
            |r| r.confusion.accuracy()
        )
    );
    println!("{}", render_comparison(&table.rows, paper));
    println!("Qualitative ordering checks (shape of the paper's result):");
    for (desc, holds) in ordering_checks(&table.rows, checks) {
        println!("  [{}] {desc}", if holds { "ok" } else { "MISS" });
    }
    eprintln!("elapsed: {:.1?}", start.elapsed());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse_from(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parse_defaults() {
        let a = args(&[]).unwrap();
        assert!(!a.paper_scale);
        assert!(!a.quick);
        assert_eq!(a.seed, None);
    }

    #[test]
    fn parse_all_flags() {
        let a = args(&[
            "--paper-scale",
            "--quick",
            "--seed",
            "42",
            "--rounds",
            "7",
            "--data-scale",
            "0.25",
            "--threads",
            "4",
        ])
        .unwrap();
        assert!(a.paper_scale);
        assert!(a.quick);
        assert_eq!(a.seed, Some(42));
        assert_eq!(a.rounds, Some(7));
        assert_eq!(a.data_scale, Some(0.25));
        assert_eq!(a.threads, Some(4));
    }

    #[test]
    fn threads_flag_plumbs_into_fed_config() {
        let before = rte_tensor::parallel::global();
        let a = args(&["--quick", "--threads", "3"]).unwrap();
        let c = a.experiment_config();
        assert_eq!(c.fed.parallelism, rte_fed::Parallelism::new(3));
        assert_eq!(rte_tensor::parallel::global(), rte_fed::Parallelism::new(3));
        rte_tensor::parallel::set_global(before); // don't leak into other tests
        assert!(args(&["--threads", "x"]).is_err());
        assert!(args(&["--threads"]).is_err());
    }

    #[test]
    fn parse_rejects_unknown_and_malformed() {
        assert!(args(&["--frobnicate"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "abc"]).is_err());
    }

    #[test]
    fn streaming_flags_plumb_into_config() {
        let a = args(&[
            "--quick",
            "--corpus-dir",
            "/tmp/corpus",
            "--stream-chunk",
            "16",
        ])
        .unwrap();
        assert_eq!(
            a.corpus_dir.as_deref(),
            Some(std::path::Path::new("/tmp/corpus"))
        );
        assert_eq!(a.stream_chunk, Some(16));
        let c = a.experiment_config();
        assert_eq!(
            c.corpus_dir.as_deref(),
            Some(std::path::Path::new("/tmp/corpus"))
        );
        assert_eq!(c.stream_chunk, 16);
        // Omitting the flags keeps the in-memory default.
        let c = args(&["--quick"]).unwrap().experiment_config();
        assert!(c.corpus_dir.is_none());
        // Malformed values are rejected loudly.
        assert!(args(&["--corpus-dir"]).is_err());
        assert!(args(&["--stream-chunk"]).is_err());
        assert!(args(&["--stream-chunk", "0"]).is_err());
        assert!(args(&["--stream-chunk", "x"]).is_err());
    }

    #[test]
    fn corpus_scale_flags_plumb_into_config() {
        let a = args(&[
            "--quick",
            "--corpus-dir",
            "/tmp/corpus",
            "--mmap",
            "--clients",
            "100",
            "--designs",
            "400",
        ])
        .unwrap();
        assert!(a.mmap);
        assert_eq!(a.clients, Some(100));
        assert_eq!(a.designs, Some(400));
        let c = a.experiment_config();
        assert_eq!(c.shard_backend, rte_core::ShardBackend::Mmap);
        let universe = c.population.expect("population set");
        assert_eq!((universe.clients, universe.designs), (100, 400));
        // --designs defaults to 4 × clients.
        let c = args(&["--quick", "--clients", "10"])
            .unwrap()
            .experiment_config();
        assert_eq!(c.population.expect("population").designs, 40);
        // Compression plumbs through; default keeps raw shards.
        let c = args(&[
            "--quick",
            "--corpus-dir",
            "/tmp/corpus",
            "--compress-shards",
        ])
        .unwrap()
        .experiment_config();
        assert!(c.compress_shards);
        assert!(
            !args(&["--quick"])
                .unwrap()
                .experiment_config()
                .compress_shards
        );
        // Compressed shards are read through the memory map too.
        let c = args(&["--corpus-dir", "d", "--mmap", "--compress-shards"])
            .unwrap()
            .experiment_config();
        assert_eq!(c.shard_backend, rte_core::ShardBackend::Mmap);
        assert!(c.compress_shards);
        // The shard flags only work together with --corpus-dir.
        assert!(args(&["--quick", "--mmap"]).is_err());
        assert!(args(&["--quick", "--compress-shards"]).is_err());
        assert!(args(&["--quick", "--stream-chunk", "16"]).is_err());
        assert!(args(&["--designs", "40"]).is_err());
        assert!(args(&["--clients", "0"]).is_err());
        assert!(args(&["--clients", "10", "--designs", "5"]).is_err());
        assert!(args(&["--clients"]).is_err());
        assert!(args(&["--clients", "x"]).is_err());
    }

    #[test]
    fn config_overrides_apply() {
        let a = args(&["--quick", "--rounds", "3", "--seed", "9"]).unwrap();
        let c = a.experiment_config();
        assert_eq!(c.fed.rounds, 3);
        assert_eq!(c.corpus.seed, 9);
        assert_eq!(c.corpus.placement_scale, 0.0);
    }

    #[test]
    fn paper_scale_selects_paper_config() {
        let a = args(&["--paper-scale"]).unwrap();
        let c = a.experiment_config();
        assert_eq!(c.fed.rounds, 50);
        assert_eq!(c.corpus.placement_scale, 1.0);
    }
}
