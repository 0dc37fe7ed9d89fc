//! One workload, in this process: the iteration loops and the result.
//!
//! The untraced run gives the end-to-end metrics: one warm-up
//! iteration, then timed iterations for the requested seconds, each
//! reported as the median over iterations, with every iteration's
//! times restated at the reference clock. The traced run gives the
//! per-layer metrics: untraced and traced iterations take turns (their
//! ratio is the tracing overhead), then the probes run.
//!
//! An iteration **fails** on any error of the program under test, on
//! any output check the workload makes, and when its output bits differ
//! from the first iteration's — the traced replica and wrappers must
//! reproduce the untraced run's average-AUC bits.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use decentralized_routability::fed::Parallelism;
use decentralized_routability::tensor::simd::{self, SimdBackend};

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::cli::Args;
use crate::clock::{core_ghz, now_ns, secs_between};
use crate::json::Value;
use crate::ledger::{self, TracedIteration};
use crate::probes;
use crate::procfs::peak_rss_mb;
use crate::stats::{summarize, Summary};
use crate::trace::{to_json_lines, Tracer};
use crate::workloads::{self, IterCtx, Iteration, Workload};

/// Fewest timed iterations a median is taken over, however slow the
/// machine.
const MIN_ITERATIONS: usize = 3;
/// Most iterations of one run — bounds a run whose iterations fail at
/// once.
const MAX_ITERATIONS: usize = 500;
/// Share of a traced run's seconds spent on iterations; the rest is
/// left for the probes.
const TRACED_ITERATION_SHARE: f64 = 0.75;

/// A directory under the build directory that is removed when the
/// process ends, on success and on failure alike.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `<out_dir>/tmp-<pid>`.
    pub fn create(out_dir: &Path) -> Result<Self, String> {
        let path = out_dir.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where results, traces and scratch directories go: `bench_e2e_out`
/// in the build directory this binary was built into — inside the
/// checkout, never the system temp directory. Returned relative to the
/// working directory when it lies below it, which keeps the Unix socket
/// path of `wire_uds_2proc` far under the 108-byte `sun_path` limit.
pub fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let build_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("benchmark binary is not inside a build directory")?;
    let dir = build_dir.join("bench_e2e_out");
    let cwd = std::env::current_dir().map_err(|e| format!("current_dir: {e}"))?;
    Ok(match dir.strip_prefix(&cwd) {
        Ok(relative) => relative.to_path_buf(),
        Err(_) => dir,
    })
}

/// `(name, value, unit, distribution over iterations)`.
type MetricRow = (&'static str, f64, &'static str, Option<Summary>);

/// What a run of one workload produced.
pub struct RunResult {
    /// Iterations run, warm-up included.
    pub attempted: usize,
    /// Iterations that failed.
    pub failed: usize,
    /// Why they failed, one line each.
    pub failures: Vec<String>,
    /// One row per metric, in catalogue order.
    pub metrics: Vec<MetricRow>,
    /// Provenance: sizes, threads, SIMD arm.
    pub provenance: Value,
}

impl RunResult {
    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|(name, value, unit, _)| {
                    (
                        *name,
                        Value::obj([("value", Value::Num(*value)), ("unit", Value::str(*unit))]),
                    )
                })),
            ),
        ])
    }

    /// The longer record the full run collects: distributions,
    /// failures, provenance.
    pub fn detail(&self) -> Value {
        let metrics = self.metrics.iter().map(|(name, value, unit, summary)| {
            let mut fields = vec![
                ("value".to_string(), Value::Num(*value)),
                ("unit".to_string(), Value::str(*unit)),
            ];
            if let Some(s) = summary {
                for (key, v) in [
                    ("n", s.n as f64),
                    ("min", s.min),
                    ("q1", s.q1),
                    ("median", s.median),
                    ("q3", s.q3),
                    ("max", s.max),
                ] {
                    fields.push((key.to_string(), Value::Num(v)));
                }
            }
            (*name, Value::Obj(fields))
        });
        Value::obj([
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "failures",
                Value::Arr(self.failures.iter().map(Value::str).collect()),
            ),
            ("provenance", self.provenance.clone()),
            ("metrics", Value::obj(metrics)),
        ])
    }
}

/// Runs iterations and keeps score.
struct Loop<'a> {
    workload: &'a mut dyn Workload,
    scratch: &'a Path,
    reference: Option<Vec<u64>>,
    attempted: usize,
    failures: Vec<String>,
    failed: usize,
}

impl Loop<'_> {
    /// Runs one iteration; `None` when it failed.
    fn step(&mut self, tracer: Option<&Arc<Tracer>>) -> Option<Iteration> {
        self.attempted += 1;
        let ctx = IterCtx {
            tracer,
            scratch: self.scratch,
        };
        // The clock moves within seconds, so it is read on both sides of
        // every iteration, with as many cores awake as the workload uses.
        let cores = self.workload.busy_cores();
        let before_ghz = core_ghz(cores);
        let iterated = self.workload.iterate(&ctx);
        let ghz = (before_ghz + core_ghz(cores)) / 2.0;
        let problems = match iterated {
            Err(e) => vec![e],
            Ok(mut it) => {
                it.at_reference_clock(ghz);
                let mut problems = std::mem::take(&mut it.failed_checks);
                let reference = self.reference.get_or_insert_with(|| it.fingerprint.clone());
                if *reference != it.fingerprint {
                    problems.push("output bits differ from iteration 1".into());
                }
                if problems.is_empty() {
                    return Some(it);
                }
                problems
            }
        };
        self.failed += 1;
        let label = format!(
            "iteration {}{}",
            self.attempted,
            if tracer.is_some() { " (traced)" } else { "" }
        );
        self.failures
            .extend(problems.into_iter().map(|p| format!("{label}: {p}")));
        None
    }
}

fn provenance(workload: &dyn Workload, args: &Args) -> Value {
    Value::obj([
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("threads", Value::Num(workload.threads() as f64)),
        ("simd", Value::str(simd::global().name())),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        (
            "sizes",
            Value::obj(
                workload
                    .sizes()
                    .into_iter()
                    .map(|(k, v)| (k, Value::Num(v))),
            ),
        ),
    ])
}

/// When a run's loop stops: never before `min` rounds, then as soon as
/// another round as long as the last one no longer fits in `seconds`.
/// A smoke run takes exactly one round.
struct Budget {
    started_ns: u64,
    seconds: f64,
    min: usize,
    last_s: f64,
}

impl Budget {
    fn start(args: &Args, share: f64, min: usize) -> Self {
        let (seconds, min) = if args.smoke {
            (0.0, 1)
        } else {
            (args.seconds * share, min)
        };
        Budget {
            started_ns: now_ns(),
            seconds,
            min,
            last_s: 0.0,
        }
    }

    fn fits(&self, done: usize) -> bool {
        done < self.min
            || (done < MAX_ITERATIONS
                && secs_between(self.started_ns, now_ns()) + self.last_s <= self.seconds)
    }

    /// Runs one round and remembers how long it took.
    fn round<R>(&mut self, round: impl FnOnce() -> R) -> R {
        let before = now_ns();
        let out = round();
        self.last_s = secs_between(before, now_ns());
        out
    }
}

/// The untraced run: end-to-end metrics.
fn end_to_end(lp: &mut Loop<'_>, args: &Args) -> Result<Vec<MetricRow>, String> {
    if !args.smoke {
        // Warm-up: page cache, allocator arenas, lazily built tables.
        // It also sets the output bits every later iteration must match.
        lp.step(None);
    }
    let mut budget = Budget::start(args, 1.0, MIN_ITERATIONS);
    let mut done = Vec::new();
    let mut children_rss_mb = 0.0f64;
    while budget.fits(done.len()) {
        if let Some(it) = budget.round(|| lp.step(None)) {
            children_rss_mb = children_rss_mb.max(it.children_rss_mb);
            done.push(it);
        } else if lp.failed > MIN_ITERATIONS && done.is_empty() {
            break; // nothing works; do not spin until the budget ends
        }
    }
    let column = |pick: fn(&Iteration) -> f64| -> Vec<f64> { done.iter().map(pick).collect() };
    let peak = peak_rss_mb(None)? + children_rss_mb;
    Ok(END_TO_END
        .iter()
        .map(|m| {
            let samples = match m.name {
                "run_s" => column(|it| it.run_s),
                "cpu_s" => column(|it| it.cpu_s),
                "setup_s" => column(|it| it.setup_s),
                "peak_rss_mb" => vec![peak],
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            let summary = summarize(&samples);
            (m.name, summary.map_or(0.0, |s| s.median), m.unit, summary)
        })
        .collect())
}

/// The traced run: per-layer metrics.
fn traced(
    lp: &mut Loop<'_>,
    args: &Args,
    workload_name: &str,
    trace_out: &Path,
) -> Result<Vec<MetricRow>, String> {
    if !args.smoke {
        lp.step(None);
    }
    // Untraced and traced iterations take turns, so both see the same
    // machine; at least two pairs.
    let mut budget = Budget::start(args, TRACED_ITERATION_SHARE, 2);
    let mut overheads = Vec::new();
    let mut iterations = Vec::new();
    let mut jsonl = String::new();
    let mut score_count = 0.0;
    while budget.fits(iterations.len()) {
        let tracer = Arc::new(Tracer::new());
        let (plain, traced) = budget.round(|| (lp.step(None), lp.step(Some(&tracer))));
        if let Some(it) = traced {
            // Pair by pair, so a slow stretch of the machine hits both
            // sides of a ratio alike.
            overheads.extend(plain.map(|plain| it.run_s / plain.run_s - 1.0));
            score_count = it.facts.get("score_count").copied().unwrap_or(0.0);
            let spans = tracer.finish();
            jsonl.push_str(&to_json_lines(&spans, workload_name, lp.attempted));
            iterations.push(TracedIteration {
                spans,
                facts: it.facts,
            });
        } else if lp.failed > 2 * MIN_ITERATIONS && iterations.is_empty() {
            break;
        }
    }
    if let Some(parent) = trace_out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(trace_out, jsonl).map_err(|e| format!("{}: {e}", trace_out.display()))?;

    let threads = lp.workload.threads();
    let mut values = ledger::per_layer(&iterations, threads, &overheads);
    // The probes time one function, not the pool: inside a train slot the
    // kernels run serially too (nested parallel regions degrade to one
    // thread), so that is the cost a slot pays.
    decentralized_routability::tensor::parallel::set_global(Parallelism::serial());
    let (kind, scale) = lp.workload.model();
    let effort = if args.smoke {
        probes::Effort::SMOKE
    } else {
        probes::Effort::FULL
    };
    probes::run(effort, kind, scale, score_count as usize, &mut values);
    // Only a workload that writes shards leaves directories to pass over.
    let raw = lp.scratch.join(workloads::RAW_COPY_DIR);
    let compacted = lp.scratch.join(workloads::CORPUS_DIR);
    if raw.is_dir() && compacted.is_dir() {
        probes::shard_probes(effort, &raw, &compacted, &mut values)?;
    }
    Ok(PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name,
                values.get(m.name).copied().unwrap_or(0.0),
                m.unit,
                None,
            )
        })
        .collect())
}

/// Runs the workload `args` selects and returns what it measured.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let name = args.workload.as_deref().ok_or("no workload selected")?;
    let mut workload = workloads::by_name(name, args.seed, args.smoke)?;
    // Threads and SIMD arm are pinned by the benchmark, not by whatever
    // RTE_THREADS / RTE_SIMD happen to be in the environment.
    decentralized_routability::tensor::parallel::set_global(Parallelism::new(workload.threads()));
    simd::set_global(SimdBackend::detect());
    let provenance = provenance(workload.as_ref(), args);

    let out_dir = out_dir()?;
    let scratch = Scratch::create(&out_dir)?;
    let mut lp = Loop {
        workload: workload.as_mut(),
        scratch: scratch.path(),
        reference: None,
        attempted: 0,
        failures: Vec::new(),
        failed: 0,
    };
    let metrics = if args.trace {
        let trace_out = args
            .trace_out
            .clone()
            .unwrap_or_else(|| out_dir.join(format!("trace-{name}.jsonl")));
        traced(&mut lp, args, name, &trace_out)?
    } else {
        end_to_end(&mut lp, args)?
    };
    Ok(RunResult {
        attempted: lp.attempted,
        failed: lp.failed,
        failures: lp.failures,
        metrics,
        provenance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            attempted: 8,
            failed: 0,
            failures: vec![],
            metrics: vec![
                ("run_s", 1.25, "s", summarize(&[1.0, 1.25, 1.5])),
                ("peak_rss_mb", 80.5, "MB", None),
            ],
            provenance: Value::Null,
        };
        assert_eq!(
            result.result_line().render(),
            "{\"correct\": true, \"attempted\": 8, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 80.5, \"unit\": \"MB\"}}}"
        );
        let detail = result.detail();
        let run_s = detail.get("metrics").unwrap().get("run_s").unwrap();
        assert_eq!(run_s.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(run_s.get("q1").unwrap().as_f64(), Some(1.0));
        let failing = RunResult {
            failed: 1,
            ..result
        };
        assert_eq!(
            failing.result_line().get("correct").unwrap().as_bool(),
            Some(false)
        );
    }

    #[test]
    fn scratch_is_per_pid_and_removed_on_drop() {
        let base = std::env::temp_dir().join(format!("bench-e2e-test-{}", std::process::id()));
        let path = {
            let scratch = Scratch::create(&base).unwrap();
            assert!(scratch.path().is_dir());
            assert!(scratch
                .path()
                .ends_with(format!("tmp-{}", std::process::id())));
            scratch.path().to_path_buf()
        };
        assert!(!path.exists());
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn the_loop_always_takes_its_minimum_and_then_watches_the_clock() {
        let args = |list: &[&str]| Args::parse_from(list.iter().map(|s| s.to_string())).unwrap();
        let mut budget = Budget::start(&args(&["--seconds", "0"]), 1.0, 3);
        budget.last_s = 100.0;
        assert!(budget.fits(0) && budget.fits(2));
        assert!(!budget.fits(3));
        let mut budget = Budget::start(&args(&["--seconds", "60"]), 1.0, 3);
        budget.last_s = 1.0;
        assert!(budget.fits(3));
        assert!(!budget.fits(MAX_ITERATIONS));
        budget.last_s = 61.0;
        assert!(!budget.fits(3));
        // The traced run spends only its share on iterations.
        let mut budget = Budget::start(&args(&["--seconds", "60"]), 0.5, 2);
        budget.last_s = 31.0;
        assert!(!budget.fits(2));
        // Smoke: exactly one round, whatever the seconds.
        let budget = Budget::start(&args(&["--seconds", "60", "--smoke"]), 1.0, 3);
        assert!(budget.fits(0) && !budget.fits(1));
        let mut budget = budget;
        assert_eq!(budget.round(|| 7), 7);
        assert!(budget.last_s >= 0.0);
    }
}
