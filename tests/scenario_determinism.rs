//! Determinism and robustness guards for the hostile-client scenario
//! harness (contract rule 6):
//!
//! - a full robustness grid — attacks × defenses through `run_scenario`,
//!   rendered with `render_robustness_grid` — must be **byte-identical**
//!   across worker-thread counts and SIMD arms, exactly like the honest
//!   pipeline,
//! - the headline robustness claim must hold: a sign-flip attack that
//!   diverges clients under the weighted mean (typed
//!   `FedError::ClientDiverged` cells, never a panic) leaves the
//!   coordinate-wise median standing.

use std::sync::Mutex;

use decentralized_routability::core::report::render_robustness_grid;
use decentralized_routability::fed::{
    run_scenario, Aggregation, Attack, Client, ClientSet, FedConfig, FedError, Method,
    ModelFactory, Parallelism, ScenarioConfig, ScenarioOutcome,
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
    let threshold = 0.4 + 0.15 * (id as f32 % 3.0) / 3.0;
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
        .map(|k| synthetic_client(k + 1, 4, 2, 7100 + k as u64))
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

fn config() -> FedConfig {
    let mut config = FedConfig::tiny();
    config.rounds = 2;
    config.local_steps = 2;
    config.batch_size = 2;
    config.seed = 42;
    config
}

/// Runs the miniature table6 grid — every injection path (clean, data
/// poisoning, Byzantine corruption, dropout) × every defense — and
/// renders it, returning the outcomes plus the exact bytes a bench run
/// would print.
fn run_grid(threads: usize) -> (Vec<ScenarioOutcome>, String) {
    let clients = clients(4);
    let factory = factory();
    let mut config = config();
    config.parallelism = Parallelism::new(threads);
    let attacks = [
        Attack::None,
        Attack::LabelNoise { rate: 0.3 },
        Attack::SignFlip { scale: 4.0 },
        Attack::ScaledNoise { sigma: 0.5 },
    ];
    let defenses = [
        Aggregation::WeightedMean,
        Aggregation::Median,
        Aggregation::TrimmedMean { trim_ratio: 0.25 },
    ];
    let mut outcomes = Vec::new();
    let mut rendered = String::new();
    for attack in attacks {
        let scenario = ScenarioConfig::honest(11, clients.len())
            .hostile_tail(1, attack)
            .with_dropout(0.2);
        let mut rows = Vec::new();
        for defense in defenses {
            let mut fed = config.clone();
            fed.aggregation = defense;
            rows.push(run_scenario(Method::FedProx, &clients, &factory, &fed, &scenario).unwrap());
        }
        rendered.push_str(&render_robustness_grid(
            attack.label(),
            clients.len(),
            &rows,
        ));
        outcomes.extend(rows);
    }
    (outcomes, rendered)
}

fn assert_outcomes_bitwise_equal(a: &[ScenarioOutcome], b: &[ScenarioOutcome], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: grid size");
    for (i, (oa, ob)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(oa.method, ob.method, "{what}: row {i} method");
        assert_eq!(oa.aggregation, ob.aggregation, "{what}: row {i} defense");
        assert_eq!(oa.diverged(), ob.diverged(), "{what}: row {i} divergence");
        for (k, (ca, cb)) in oa.cells.iter().zip(ob.cells.iter()).enumerate() {
            match (ca, cb) {
                (Ok(ra), Ok(rb)) => {
                    assert_eq!(
                        ra.auc.to_bits(),
                        rb.auc.to_bits(),
                        "{what}: row {i} client {k} AUC: {} vs {}",
                        ra.auc,
                        rb.auc
                    );
                    assert_eq!(
                        ra.average_precision.to_bits(),
                        rb.average_precision.to_bits(),
                        "{what}: row {i} client {k} AP"
                    );
                    assert_eq!(ra.confusion, rb.confusion, "{what}: row {i} client {k}");
                    assert_eq!(ra.histogram, rb.histogram, "{what}: row {i} client {k}");
                }
                (Err(ea), Err(eb)) => {
                    assert_eq!(ea, eb, "{what}: row {i} client {k} error");
                }
                _ => panic!("{what}: row {i} client {k}: healthy/diverged disagree"),
            }
        }
    }
}

/// The full attack × defense grid, trained and evaluated end to end,
/// must not drift by a single bit (nor a single output byte) across
/// `RTE_THREADS`-style worker budgets and `RTE_SIMD` arms.
#[test]
fn table6_grid_is_bitwise_invariant_across_threads_and_simd() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();

    simd::set_global(SimdBackend::Scalar);
    let (reference, reference_text) = run_grid(1);
    assert!(!reference.is_empty());

    for threads in [1usize, 4] {
        for arm in SimdBackend::supported() {
            simd::set_global(arm);
            let (grid, text) = run_grid(threads);
            assert_outcomes_bitwise_equal(
                &reference,
                &grid,
                &format!("{threads} threads / {arm} arm"),
            );
            assert_eq!(
                reference_text, text,
                "rendered grid bytes drifted at {threads} threads / {arm} arm"
            );
        }
    }
    simd::set_global(before);
}

/// The headline claim: an amplified sign-flip from one hostile client
/// destroys the weighted mean — surfacing as typed per-client
/// `ClientDiverged` cells, not a worker panic — while the same run under
/// the coordinate-wise median completes with every client healthy.
#[test]
fn sign_flip_diverges_mean_but_median_survives() {
    let clients = clients(4);
    let factory = factory();
    let mut config = config();
    config.rounds = 4;
    config.local_steps = 8;
    // The scale must push corrupted coordinates far enough that the
    // products of two conv layers overflow f32 (inf − inf → NaN); a
    // merely-huge scale only saturates the sigmoid to a degenerate 0.5.
    let scenario =
        ScenarioConfig::honest(11, clients.len()).hostile_tail(1, Attack::SignFlip { scale: 1e38 });

    let mut mean_cfg = config.clone();
    mean_cfg.aggregation = Aggregation::WeightedMean;
    let mean = run_scenario(Method::FedProx, &clients, &factory, &mean_cfg, &scenario).unwrap();
    assert!(
        !mean.diverged().is_empty(),
        "sign-flip must blow up the weighted mean: {:?}",
        mean.cell_aucs()
    );
    for k in mean.diverged() {
        assert!(
            matches!(
                mean.cells[k],
                Err(FedError::ClientDiverged { client, .. }) if client == k
            ),
            "cell {k} must be a typed divergence: {:?}",
            mean.cells[k]
        );
    }

    let mut median_cfg = config;
    median_cfg.aggregation = Aggregation::Median;
    let median = run_scenario(Method::FedProx, &clients, &factory, &median_cfg, &scenario).unwrap();
    assert_eq!(
        median.diverged(),
        Vec::<usize>::new(),
        "the median must reject the minority sign-flip"
    );
    assert!(
        median.healthy_average_auc().unwrap() > 0.5,
        "median must keep learning: {:?}",
        median.cell_aucs()
    );
}
