//! Determinism contract rule 8: buffered-async federated training on the
//! *seeded virtual clock* is a replay, not a race. One seed fixes the
//! whole arrival trace — stragglers, dropouts, rejoins, buffer fills —
//! so the staleness-weighted aggregates (and the rendered schedule
//! table) must be byte-identical across repeated runs, worker-thread
//! counts, and SIMD arms. Wall-clock async (`--async wall`) is the
//! documented opt-out and is exactly as unreproducible as it sounds.

use std::sync::Mutex;

use decentralized_routability::fed::{
    local_links, render_async_history, run_fedasync, AsyncConfig, AsyncRoundRecord, Client,
    ClientSet, EvalReport, FaultPolicy, FedConfig, MethodOutcome, ModelFactory, Parallelism,
};
use decentralized_routability::nn::models::{FlNet, FlNetConfig};
use decentralized_routability::tensor::rng::Xoshiro256;
use decentralized_routability::tensor::simd::{self, SimdBackend};
use decentralized_routability::tensor::Tensor;

/// Tests that mutate the process-global SIMD arm serialize on this lock
/// (same pattern as `tests/simd_determinism.rs`).
static GLOBAL_ARM: Mutex<()> = Mutex::new(());

/// A small heterogeneous client: labels keyed to channel 0 with a
/// per-client threshold shift.
fn synthetic_client(id: usize, n_train: usize, n_test: usize, seed: u64) -> Client {
    let threshold = 0.45 + 0.1 * (id as f32 % 3.0) / 3.0;
    let make = |n: usize, salt: u64| -> ClientSet {
        let mut rng = Xoshiro256::seed_from(seed ^ salt);
        let mut x = Tensor::from_fn(&[n, 2, 8, 8], |_| rng.uniform());
        let mut y = Tensor::zeros(&[n, 1, 8, 8]);
        for ni in 0..n {
            for i in 0..64 {
                let v = x.data()[ni * 128 + i];
                y.data_mut()[ni * 64 + i] = if v > threshold { 1.0 } else { 0.0 };
            }
            for i in 0..64 {
                x.data_mut()[ni * 128 + 64 + i] = rng.uniform();
            }
        }
        ClientSet::new(x, y).unwrap()
    };
    Client::new(id, make(n_train, 0xAAAA), make(n_test, 0xBBBB))
}

fn clients(n: usize) -> Vec<Client> {
    (0..n)
        .map(|k| synthetic_client(k + 1, 5, 3, 8600 + k as u64))
        .collect()
}

fn factory() -> ModelFactory {
    Box::new(|seed| {
        let mut rng = Xoshiro256::seed_from(seed);
        Box::new(FlNet::new(
            FlNetConfig {
                in_channels: 2,
                hidden: 4,
                kernel: 3,
                depth: 2,
            },
            &mut rng,
        ))
    })
}

fn fed_config(threads: usize) -> FedConfig {
    let mut config = FedConfig::tiny();
    config.local_steps = 2;
    config.batch_size = 2;
    config.seed = 8861;
    config.parallelism = Parallelism::new(threads);
    config
}

/// A schedule with everything the replay must pin: straggler spread
/// (latency up to 7 ticks), mid-training dropout, rejoins, and a buffer
/// smaller than the fleet so staleness actually accrues.
fn async_config(dropout: f64) -> AsyncConfig {
    let mut cfg = AsyncConfig::new(6, 2);
    cfg.max_latency = 7;
    cfg.dropout = dropout;
    cfg.rejoin_delay = 3;
    cfg.eval_every = 2;
    cfg.seed = 0xD15_7A7C;
    cfg
}

/// The pinned schedule, every dispatch a deploy/update exchange over
/// `local_links`.
fn run_schedule(threads: usize, dropout: f64) -> (MethodOutcome, Vec<AsyncRoundRecord>, String) {
    let fleet = clients(4);
    let factory = factory();
    let config = fed_config(threads);
    let mut links = local_links(&fleet, &factory, &config, None).unwrap();
    let policy = FaultPolicy::default();
    let (run, records) = run_fedasync(
        &fleet,
        &factory,
        &config,
        &async_config(dropout),
        &mut links,
        &policy,
    )
    .unwrap();
    assert!(run.events.is_empty(), "faultless links log no events");
    let rendered = render_async_history("replay", &records);
    (run.outcome, records, rendered)
}

/// FNV-1a over `to_bits`, as in `crates/fed/tests/method_golden.rs`.
struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn report(&mut self, r: &EvalReport) {
        self.f64(r.auc);
        self.f64(r.average_precision);
        let c = &r.confusion;
        for n in [
            c.true_positives,
            c.false_positives,
            c.true_negatives,
            c.false_negatives,
        ] {
            self.u64(n as u64);
        }
        let h = &r.histogram;
        self.u64(h.bins() as u64);
        for i in 0..=h.bins() {
            self.u64(u64::from(h.edge(i).to_bits()));
        }
        for &n in h.positives().iter().chain(h.negatives()) {
            self.u64(n);
        }
    }
}

/// One digest over the outcome's reports, every `AsyncRoundRecord`
/// and the rendered history bytes.
fn digest(outcome: &MethodOutcome, records: &[AsyncRoundRecord], rendered: &str) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    h.u64(outcome.per_client.len() as u64);
    outcome.per_client.iter().for_each(|r| h.report(r));
    outcome.per_client_auc.iter().for_each(|&a| h.f64(a));
    h.f64(outcome.average_auc);
    h.u64(outcome.history.len() as u64);
    h.u64(records.len() as u64);
    for r in records {
        h.u64(r.aggregation as u64);
        h.u64(r.tick);
        h.u64(r.arrivals.len() as u64);
        for &(client, staleness) in &r.arrivals {
            h.u64(client as u64);
            h.u64(staleness);
        }
        h.f64(r.average_auc);
        h.f64(r.mean_train_loss);
    }
    h.u64(rendered.len() as u64);
    rendered.bytes().for_each(|b| h.u64(u64::from(b)));
    h.0
}

/// `(dropout, digest)` of the pinned schedule, computed before the
/// virtual-clock and wall-clock drivers became one loop. They must not
/// change: the driver may be restructured, its bits may not.
const GOLDEN: [(f64, u64); 2] = [(0.25, 0x1034a14ddc2b5cf6), (0.0, 0x6138351002785784)];

/// Both dropout schedules, in every thread count × SIMD arm cell, match
/// their golden digest. The digests were taken with training both in
/// process and over `local_links`; the driver now has the link path only.
#[test]
fn async_outcomes_match_their_golden_digests() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();
    let mut got = Vec::new();
    for (dropout, _) in GOLDEN {
        let mut cells = Vec::new();
        for threads in [1usize, 4] {
            for arm in [SimdBackend::Scalar, SimdBackend::detect()] {
                simd::set_global(arm);
                let (outcome, records, rendered) = run_schedule(threads, dropout);
                cells.push(digest(&outcome, &records, &rendered));
            }
        }
        assert!(
            cells.iter().all(|&d| d == cells[0]),
            "dropout {dropout}: digests differ across paths and cells: {cells:#018x?}"
        );
        got.push((dropout, cells[0]));
    }
    simd::set_global(before);
    let table: String = got
        .iter()
        .map(|(p, d)| format!("({p:?}, {d:#018x}), "))
        .collect();
    assert_eq!(got, GOLDEN, "today's digests: {table}");
}

/// `AsyncRoundRecord` carries a NaN sentinel in `average_auc` on
/// non-eval aggregations, so equality goes through `to_bits`.
fn assert_records_bitwise_equal(a: &[AsyncRoundRecord], b: &[AsyncRoundRecord], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: aggregation count");
    for (ra, rb) in a.iter().zip(b.iter()) {
        assert_eq!(ra.aggregation, rb.aggregation, "{what}: aggregation index");
        assert_eq!(ra.tick, rb.tick, "{what}: agg {} tick", ra.aggregation);
        assert_eq!(
            ra.arrivals, rb.arrivals,
            "{what}: agg {} arrival trace",
            ra.aggregation
        );
        assert_eq!(
            ra.average_auc.to_bits(),
            rb.average_auc.to_bits(),
            "{what}: agg {} AUC bits",
            ra.aggregation
        );
        assert_eq!(
            ra.mean_train_loss.to_bits(),
            rb.mean_train_loss.to_bits(),
            "{what}: agg {} loss bits",
            ra.aggregation
        );
    }
}

/// The seeded trace — with stragglers, dropout, and rejoins in play —
/// must replay byte-for-byte: same arrival order, same ticks, same
/// staleness-weighted aggregates, same rendered table, across repeated
/// runs and every thread count × SIMD arm cell.
#[test]
fn seeded_async_schedule_replays_bitwise_across_threads_and_simd() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();

    simd::set_global(SimdBackend::Scalar);
    let (ref_outcome, ref_records, ref_rendered) = run_schedule(1, 0.25);
    assert_eq!(ref_records.len(), 6, "every aggregation must be recorded");
    assert!(
        ref_records
            .iter()
            .flat_map(|r| &r.arrivals)
            .any(|&(_, staleness)| staleness > 0),
        "the schedule must actually contain stale arrivals: {ref_rendered}"
    );

    for run in 0..2 {
        for threads in [1usize, 4] {
            for arm in [SimdBackend::Scalar, SimdBackend::detect()] {
                simd::set_global(arm);
                let what = format!("run {run} / {threads} threads / {arm} arm");
                let (outcome, records, rendered) = run_schedule(threads, 0.25);
                assert_eq!(outcome, ref_outcome, "{what}: outcome drifted");
                assert_records_bitwise_equal(&ref_records, &records, &what);
                assert_eq!(
                    ref_rendered, rendered,
                    "{what}: rendered schedule bytes drifted"
                );
            }
        }
    }
    simd::set_global(before);
}

/// Dropout must be doing real work in that pinned trace: the same seed
/// with dropout disabled yields a *different* arrival trace (the dropped
/// dispatches and delayed rejoins are observable), while staying just as
/// reproducible.
#[test]
fn dropout_changes_the_trace_but_not_its_reproducibility() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();
    simd::set_global(SimdBackend::Scalar);

    let (_, with_dropout, _) = run_schedule(1, 0.25);
    let (_, without, _) = run_schedule(1, 0.0);
    let trace = |records: &[AsyncRoundRecord]| -> Vec<(u64, Vec<(usize, u64)>)> {
        records
            .iter()
            .map(|r| (r.tick, r.arrivals.clone()))
            .collect()
    };
    assert_ne!(
        trace(&with_dropout),
        trace(&without),
        "25% dropout must perturb the arrival schedule"
    );

    let (_, with_dropout_again, _) = run_schedule(1, 0.25);
    assert_records_bitwise_equal(&with_dropout, &with_dropout_again, "dropout replay");
    simd::set_global(before);
}

/// The documented opt-out runs to a table: `--async wall` over real
/// sockets applies every aggregation, each of a full buffer. Its ticks
/// and arrival order are wall-clock and deliberately not checked.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: a full coordinator run over sockets"
)]
fn wall_clock_async_runs_to_a_table() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rte-coordinator"))
        .args(["--clients", "4", "--quick", "--async", "wall"])
        .args(["--aggregations", "8", "--buffer", "2"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let rows: Vec<&str> = stdout
        .lines()
        .skip_while(|line| !line.starts_with("agg "))
        .skip(1)
        .take_while(|line| !line.is_empty())
        .collect();
    assert_eq!(rows.len(), 8, "one history row per aggregation:\n{stdout}");
    for row in rows {
        let arrivals = row.split_whitespace().filter(|t| t.contains(':')).count();
        assert_eq!(arrivals, 2, "a full buffer per aggregation: {row}");
    }
    assert!(stdout.contains("FedProx"), "the table follows:\n{stdout}");
}
