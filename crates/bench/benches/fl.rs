//! Criterion micro-benchmarks for the federated-learning plumbing:
//! state-dict aggregation, ROC AUC, one client training step, the
//! parallel round loop, the parallel nine-client evaluator (each
//! 1 thread vs all cores), and an end-to-end FedProx experiment per
//! SIMD arm — outcomes are bit-identical across thread counts *and*
//! arms, only wall-clock differs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rte_tensor::simd::{self, SimdBackend};

use rte_fed::params::weighted_average;
use rte_fed::{
    methods, Client, ClientSet, Evaluator, FedConfig, LocalTrainer, Method, ModelFactory,
    Parallelism,
};
use rte_metrics::roc_auc;
use rte_nn::models::{FlNet, FlNetConfig};
use rte_nn::state_dict;
use rte_tensor::rng::Xoshiro256;
use rte_tensor::Tensor;

fn model(seed: u64) -> FlNet {
    let mut rng = Xoshiro256::seed_from(seed);
    FlNet::new(
        FlNetConfig {
            in_channels: 6,
            hidden: 16,
            kernel: 9,
            depth: 2,
        },
        &mut rng,
    )
}

fn bench_aggregation(c: &mut Criterion) {
    // Nine clients' FLNet state dicts, weighted like Table 2.
    let dicts: Vec<_> = (0..9).map(|k| state_dict(&mut model(k))).collect();
    let weights = [
        462.0, 231.0, 231.0, 812.0, 812.0, 697.0, 656.0, 742.0, 175.0,
    ];
    c.bench_function("weighted_average_9_clients", |b| {
        b.iter(|| {
            let refs: Vec<_> = dicts
                .iter()
                .zip(weights.iter())
                .map(|(d, &w)| (d, w))
                .collect();
            weighted_average(black_box(&refs)).unwrap()
        })
    });
}

fn bench_roc_auc(c: &mut Criterion) {
    let mut rng = Xoshiro256::seed_from(1);
    let n = 16 * 16 * 64; // one client's test tiles at scaled counts
    let scores: Vec<f32> = (0..n).map(|_| rng.uniform()).collect();
    let labels: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.15)).collect();
    c.bench_function("roc_auc_16k_tiles", |b| {
        b.iter(|| roc_auc(black_box(&scores), black_box(&labels)).unwrap())
    });
}

fn bench_local_step(c: &mut Criterion) {
    let mut rng = Xoshiro256::seed_from(2);
    let x = Tensor::from_fn(&[8, 6, 16, 16], |_| rng.uniform());
    let y = Tensor::from_fn(
        &[8, 1, 16, 16],
        |_| if rng.bernoulli(0.15) { 1.0 } else { 0.0 },
    );
    let data = ClientSet::new(x, y).unwrap();
    let trainer = LocalTrainer::new(2e-3, 1e-5, 1e-4, 4);
    c.bench_function("local_train_step_flnet", |b| {
        let mut net = model(3);
        let reference = state_dict(&mut net);
        let mut step_rng = Xoshiro256::seed_from(4);
        b.iter(|| {
            trainer
                .train(&mut net, &data, Some(&reference), 1, &mut step_rng)
                .unwrap()
        })
    });
}

/// Nine synthetic clients shaped like the Table 2 fleet (8×8 tiles keep
/// the bench runtime sane while still dominating in conv time).
fn synthetic_clients(n: usize) -> Vec<Client> {
    (0..n)
        .map(|k| {
            let make = |seed: u64, count: usize| {
                let mut rng = Xoshiro256::seed_from(seed);
                let x = Tensor::from_fn(&[count, 6, 8, 8], |_| rng.uniform());
                let y = Tensor::from_fn(&[count, 1, 8, 8], |_| {
                    if rng.bernoulli(0.15) {
                        1.0
                    } else {
                        0.0
                    }
                });
                ClientSet::new(x, y).unwrap()
            };
            Client::new(k + 1, make(1000 + k as u64, 8), make(2000 + k as u64, 4))
        })
        .collect()
}

fn bench_parallel_rounds(c: &mut Criterion) {
    // One FedProx experiment (2 rounds × 9 clients × 4 local steps), run
    // serial vs all-cores. The outcomes are bit-identical; only the
    // wall-clock differs — this is the headline speedup of the parallel
    // round loop.
    let clients = synthetic_clients(9);
    let factory: ModelFactory = Box::new(|seed| {
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
    });
    let mut config = FedConfig::scaled();
    config.rounds = 2;
    config.local_steps = 4;
    config.batch_size = 4;
    for (name, par) in [
        ("fedprox_2rounds_9clients_1thread", Parallelism::serial()),
        ("fedprox_2rounds_9clients_all_cores", Parallelism::auto()),
    ] {
        config.parallelism = par;
        let cfg = config.clone();
        c.bench_function(name, |b| {
            b.iter(|| {
                methods::run_method(Method::FedProx, black_box(&clients), &factory, &cfg).unwrap()
            })
        });
    }
}

fn bench_parallel_eval(c: &mut Criterion) {
    // The nine-client generalized evaluation every round records: one
    // shared state dict scored on every client's private test split.
    // Per-client work is independent, so this scales with cores while
    // staying bit-identical.
    let clients = synthetic_clients(9);
    let factory: ModelFactory = Box::new(|seed| {
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
    });
    let global = state_dict(factory(7).as_mut());
    for (name, par) in [
        ("eval_9_clients_1thread", Parallelism::serial()),
        ("eval_9_clients_all_cores", Parallelism::auto()),
    ] {
        let evaluator = Evaluator::new(par, 16);
        c.bench_function(name, |b| {
            b.iter(|| {
                evaluator
                    .eval_global(&factory, 7, black_box(&clients), black_box(&global))
                    .unwrap()
            })
        });
    }
}

fn bench_simd_arms_round(c: &mut Criterion) {
    // The tentpole's end-to-end claim: one FedProx experiment
    // (2 rounds × 9 clients × 4 local steps, serial threading so the
    // kernel arm is the only variable) per SIMD arm. The MethodOutcome
    // is bit-identical across arms (pinned by tests/simd_determinism.rs);
    // the wall-clock gap here is the whole-round speedup.
    let clients = synthetic_clients(9);
    let factory: ModelFactory = Box::new(|seed| {
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
    });
    let mut config = FedConfig::scaled();
    config.rounds = 2;
    config.local_steps = 4;
    config.batch_size = 4;
    config.parallelism = Parallelism::serial();
    let before = simd::global();
    let arms = SimdBackend::supported();
    for arm in arms {
        simd::set_global(arm);
        c.bench_function(&format!("fedprox_round_simd_{arm}"), |b| {
            b.iter(|| {
                methods::run_method(Method::FedProx, black_box(&clients), &factory, &config)
                    .unwrap()
            })
        });
    }
    simd::set_global(before);
}

criterion_group!(
    benches,
    bench_aggregation,
    bench_roc_auc,
    bench_local_step,
    bench_parallel_rounds,
    bench_parallel_eval,
    bench_simd_arms_round
);
criterion_main!(benches);
