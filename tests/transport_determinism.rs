//! Transport-boundary determinism guards (contract rule 7 extended to
//! the wire, plus the new rule 8 machinery's sync baseline):
//!
//! - a FedProx run (and its FedAvg special case, `mu = 0`) must produce
//!   **bitwise-identical** `MethodOutcome`s — per-client AUCs *and* the
//!   full round history — whether the fleet lives in-process, behind
//!   in-process channel transports, or behind real Unix-domain sockets
//!   served by per-client threads,
//! - the equality must hold at every `RTE_THREADS` × `RTE_SIMD` cell,
//!   because both endpoints re-derive the same per-`(round, client)`
//!   minibatch streams regardless of schedule,
//! - (release-gated) the `rte-coordinator` binary driving 8 real
//!   `rte-client` *processes* over UDS must print the same table bytes
//!   as the in-process bench path for the same `(clients, seed, quick)`
//!   config.

use std::sync::Mutex;

use decentralized_routability::fed::methods::run_method;
use decentralized_routability::fed::{
    local_links, run_link_rounds, Client, ClientSession, ClientSet, FaultPolicy, FedConfig, Method,
    MethodOutcome, ModelFactory, Parallelism, SecureConfig,
};
use decentralized_routability::net::{UdsListener, UdsTransport};
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
        .map(|k| synthetic_client(k + 1, 5, 3, 9300 + k as u64))
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

fn config(mu: f32, threads: usize) -> FedConfig {
    let mut config = FedConfig::tiny();
    config.rounds = 2;
    config.local_steps = 2;
    config.batch_size = 2;
    config.eval_every = 1;
    config.mu = mu;
    config.seed = 4207;
    config.parallelism = Parallelism::new(threads);
    config
}

/// Leg 1: the in-process harness (`run_method`), no wire anywhere.
fn run_in_process(config: &FedConfig) -> MethodOutcome {
    run_method(Method::FedProx, &clients(4), &factory(), config).unwrap()
}

/// Leg 2: every parameter set crosses the frame codec through in-process
/// channel transports.
fn run_channel(config: &FedConfig, secure: Option<SecureConfig>) -> MethodOutcome {
    let fleet = clients(4);
    let factory = factory();
    let mut links = local_links(&fleet, &factory, config, secure).unwrap();
    run_link_rounds(
        &fleet,
        &factory,
        config,
        &mut links,
        secure,
        &FaultPolicy::default(),
        None,
        None,
    )
    .unwrap()
    .outcome
}

/// Leg 3: every parameter set crosses a real Unix-domain socket; each
/// client runs `ClientSession::serve` on its own thread, rebuilding its
/// private fleet view locally exactly like the `rte-client` binary.
fn run_uds(config: &FedConfig, secure: Option<SecureConfig>, tag: &str) -> MethodOutcome {
    let dir = std::env::temp_dir().join(format!("rte-transport-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.sock"));
    let listener = UdsListener::bind(&path).unwrap();

    let fleet = clients(4);
    let n = fleet.len();
    let servers: Vec<_> = (0..n)
        .map(|me| {
            let path = path.clone();
            let config = config.clone();
            std::thread::spawn(move || {
                let fleet = clients(4);
                let factory = factory();
                let mut session =
                    ClientSession::new(&fleet, me, &factory, &config, secure).unwrap();
                let mut transport = UdsTransport::connect(&path).unwrap();
                session.hello(&mut transport).unwrap();
                session.serve(&mut transport).unwrap();
            })
        })
        .collect();

    // Order the accepted links by the fleet index each hello announces —
    // connection order is scheduler-dependent, the round schedule is not.
    let mut slots: Vec<Option<UdsTransport>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        let mut link = listener.accept().unwrap();
        let (_, message) = decentralized_routability::fed::wire::recv_message(&mut link).unwrap();
        let decentralized_routability::fed::wire::Message::Hello { client, .. } = message else {
            panic!("client did not open with a hello");
        };
        assert!(
            slots[client as usize].replace(link).is_none(),
            "duplicate hello"
        );
    }
    let mut links: Vec<UdsTransport> = slots.into_iter().map(Option::unwrap).collect();

    let factory = factory();
    let outcome = run_link_rounds(
        &fleet,
        &factory,
        config,
        &mut links,
        secure,
        &FaultPolicy::default(),
        None,
        None,
    )
    .unwrap()
    .outcome;
    for server in servers {
        server.join().unwrap();
    }
    let _ = std::fs::remove_file(&path);
    outcome
}

fn assert_bitwise_equal(a: &MethodOutcome, b: &MethodOutcome, what: &str) {
    // `MethodOutcome: PartialEq` compares every f32/f64 by value; equal
    // NaNs or -0.0 would mask drift, so pin the bit patterns too.
    assert_eq!(a, b, "{what}: outcome drifted");
    assert_eq!(
        a.per_client.len(),
        b.per_client.len(),
        "{what}: client count"
    );
    for (k, (ra, rb)) in a.per_client.iter().zip(b.per_client.iter()).enumerate() {
        assert_eq!(
            ra.auc.to_bits(),
            rb.auc.to_bits(),
            "{what}: client {k} AUC bits"
        );
    }
    assert_eq!(a.history.len(), b.history.len(), "{what}: history length");
    for (ha, hb) in a.history.iter().zip(b.history.iter()) {
        assert_eq!(ha.round, hb.round, "{what}: history round");
        assert_eq!(
            ha.average_auc.to_bits(),
            hb.average_auc.to_bits(),
            "{what}: round {} AUC bits",
            ha.round
        );
        assert_eq!(
            ha.mean_train_loss.to_bits(),
            hb.mean_train_loss.to_bits(),
            "{what}: round {} loss bits",
            ha.round
        );
    }
}

/// FedProx (and FedAvg as its `mu = 0` special case) must not drift by a
/// bit between the in-process harness, the channel transport, and real
/// Unix-domain sockets — at every thread count × SIMD arm cell.
#[test]
fn transports_are_bitwise_identical_across_threads_and_simd() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();

    for (label, mu) in [("fedprox", 0.1f32), ("fedavg", 0.0f32)] {
        simd::set_global(SimdBackend::Scalar);
        let reference = run_in_process(&config(mu, 1));
        assert!(
            reference.history.iter().all(|r| r.average_auc.is_finite()),
            "{label}: reference run must stay finite"
        );

        for threads in [1usize, 4] {
            for arm in SimdBackend::supported() {
                simd::set_global(arm);
                let cell = config(mu, threads);
                let what = format!("{label} / {threads} threads / {arm} arm");
                assert_bitwise_equal(
                    &reference,
                    &run_in_process(&cell),
                    &format!("{what} / in-process"),
                );
                assert_bitwise_equal(
                    &reference,
                    &run_channel(&cell, None),
                    &format!("{what} / channel"),
                );
                assert_bitwise_equal(
                    &reference,
                    &run_uds(&cell, None, &format!("{label}-{threads}-{arm}")),
                    &format!("{what} / uds"),
                );
            }
        }
    }
    simd::set_global(before);
}

/// Pairwise-masked secure aggregation over a real socket must be
/// bitwise-identical to the same secure run over the channel transport
/// (the masks and the wire add zero nondeterminism), and must agree with
/// the plain run on every rank-based metric. The training losses are
/// *not* compared bit-for-bit against plain: secure aggregation
/// quantizes to `2^-20` fixed point (its documented approximation), so
/// later rounds train from a global that differs from plain by ~1e-6 —
/// invisible to AUC/confusion/histograms, visible to a float loss. Mask
/// cancellation itself is exact; `crates/fed/tests/secure_aggregation.rs`
/// pins masked == unmasked-quantized bit-for-bit.
#[test]
fn secure_aggregation_over_uds_is_reproducible_and_rank_identical_to_plain() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();
    simd::set_global(SimdBackend::Scalar);

    let cfg = config(0.1, 1);
    let secure_channel = run_channel(&cfg, Some(SecureConfig::default()));
    let secure_uds = run_uds(&cfg, Some(SecureConfig::default()), "secure-masked");
    assert_bitwise_equal(&secure_channel, &secure_uds, "secure: channel vs uds");

    let plain = run_uds(&cfg, None, "secure-plain");
    assert_eq!(
        plain.per_client, secure_uds.per_client,
        "secure must not change any final rank-based metric"
    );
    for (hp, hs) in plain.history.iter().zip(secure_uds.history.iter()) {
        assert_eq!(hp.per_client, hs.per_client, "round {} reports", hp.round);
        assert!(
            (hp.mean_train_loss - hs.mean_train_loss).abs() < 1e-5,
            "round {}: quantization error exceeded its budget: {} vs {}",
            hp.round,
            hp.mean_train_loss,
            hs.mean_train_loss
        );
    }

    simd::set_global(before);
}

/// Release-gated end-to-end pin: the `rte-coordinator` binary driving 8
/// real `rte-client` processes over UDS must print byte-for-byte the
/// table the in-process bench path computes for the same config. CI runs
/// this via `--release -- --include-ignored`; it is `#[ignore]`d by
/// default because 9 unoptimized processes are needlessly slow.
#[test]
#[ignore = "release-only: spawns 8 client processes (CI runs with --include-ignored)"]
fn coordinator_with_eight_client_processes_matches_in_process_table() {
    use decentralized_routability::core::report::render_table;
    use decentralized_routability::core::{
        build_experiment_clients, run_method_on_clients, transport_config, TableResult,
    };
    use decentralized_routability::nn::models::ModelKind;

    let config = transport_config(8, 42, true);
    let fleet = build_experiment_clients(&config).unwrap();
    let outcome =
        run_method_on_clients(Method::FedProx, &fleet, ModelKind::FlNet, &config).unwrap();
    let expected = format!(
        "{}\n",
        render_table(&TableResult {
            model: ModelKind::FlNet,
            n_clients: fleet.len(),
            rows: vec![outcome],
        })
    );

    let socket =
        std::env::temp_dir().join(format!("rte-transport-e2e-{}.sock", std::process::id()));
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_rte-coordinator"))
        .args([
            "--clients",
            "8",
            "--clients-procs",
            "8",
            "--quick",
            "--seed",
            "42",
        ])
        .arg("--socket")
        .arg(&socket)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "coordinator failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert_eq!(
        stdout, expected,
        "8-process UDS table must be byte-identical to the in-process table"
    );
}
