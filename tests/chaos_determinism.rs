//! Determinism contract rule 9 guards: a federated run under seeded
//! fault injection must replay **bit for bit** — the same `--chaos-seed`
//! produces the same drops, the same retries, the same survivor sets,
//! and therefore the same aggregated bits — at every `RTE_THREADS` ×
//! `RTE_SIMD` cell. Plus the satellite regressions: injected corruption
//! is always caught by the frame CRCs as *typed* errors, and a client
//! that goes silent mid-run can delay a round by at most its deadline ×
//! retry budget — never wedge the coordinator.

use std::sync::Mutex;

use decentralized_routability::fed::{
    local_links, run_fedasync, run_rounds_resilient, AsyncConfig, AsyncRoundRecord, Client,
    ClientSession, ClientSet, FaultPolicy, FedConfig, LocalLink, ModelFactory, Parallelism,
    ResilientOutcome, RoundEvent,
};
use decentralized_routability::net::{
    ChaosConfig, ChaosTransport, RetryPolicy, Transport, UdsListener, UdsTransport,
};
use decentralized_routability::nn::models::{FlNet, FlNetConfig};
use decentralized_routability::tensor::rng::Xoshiro256;
use decentralized_routability::tensor::simd::{self, SimdBackend};
use decentralized_routability::tensor::Tensor;

/// Tests that mutate the process-global SIMD arm serialize on this lock
/// (same pattern as `tests/transport_determinism.rs`).
static GLOBAL_ARM: Mutex<()> = Mutex::new(());

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

fn config(threads: usize) -> FedConfig {
    let mut config = FedConfig::tiny();
    config.rounds = 3;
    config.local_steps = 2;
    config.batch_size = 2;
    config.seed = 4207;
    config.parallelism = Parallelism::new(threads);
    config
}

/// The shared chaos palette: every fault class armed at rates that fire
/// several times in a 3-round run without starving a quorum of 1.
fn palette(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        drop_p: 0.25,
        dup_p: 0.1,
        reorder_p: 0.15,
        reorder_window: 2,
        corrupt_p: 0.1,
        latency_min: 1,
        latency_max: 5,
    }
}

/// `local_links` to `fleet`, each behind a seeded `ChaosTransport`
/// (lane = fleet index).
fn chaos_links<'a>(
    fleet: &'a [Client],
    factory: &ModelFactory,
    config: &'a FedConfig,
    chaos: &ChaosConfig,
) -> Vec<ChaosTransport<LocalLink<'a>>> {
    local_links(fleet, factory, config, None)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(lane, link)| ChaosTransport::new(link, chaos.clone(), lane as u64).unwrap())
        .collect()
}

fn run_chaos(config: &FedConfig, chaos: &ChaosConfig, policy: &FaultPolicy) -> ResilientOutcome {
    let fleet = clients(3);
    let factory = factory();
    let mut links = chaos_links(&fleet, &factory, config, chaos);
    run_rounds_resilient(&fleet, &factory, config, &mut links, policy, None, None).unwrap()
}

/// One async record with its float fields as bits (a non-eval
/// aggregation carries a NaN AUC, which `==` never matches).
type RecordBits = (usize, u64, Vec<(usize, u64)>, u64, u64);

/// The buffered async schedule over the chaos links: stragglers,
/// dropout and rejoins on the virtual clock, every dispatch one collect
/// under `policy`.
fn run_async_chaos(
    config: &FedConfig,
    chaos: &ChaosConfig,
    policy: &FaultPolicy,
) -> (ResilientOutcome, Vec<RecordBits>) {
    let fleet = clients(3);
    let factory = factory();
    let mut links = chaos_links(&fleet, &factory, config, chaos);
    let mut schedule = AsyncConfig::new(4, 2);
    schedule.dropout = 0.2;
    schedule.eval_every = 2;
    let (run, records) =
        run_fedasync(&fleet, &factory, config, &schedule, &mut links, policy).unwrap();
    let bits = |r: &AsyncRoundRecord| {
        let (auc, loss) = (r.average_auc.to_bits(), r.mean_train_loss.to_bits());
        (r.aggregation, r.tick, r.arrivals.clone(), auc, loss)
    };
    (run, records.iter().map(bits).collect())
}

/// Rule 9 core: the whole faulty run — outcome bits, event log, retry
/// counts — is a pure function of `(config seed, chaos seed)`,
/// independent of thread count and SIMD arm.
#[test]
fn chaos_schedule_replays_bitwise_across_threads_and_simd() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();
    let policy = FaultPolicy {
        retry: RetryPolicy::immediate(4),
        min_quorum: 1,
        ..FaultPolicy::default()
    };

    simd::set_global(SimdBackend::Scalar);
    let reference = run_chaos(&config(1), &palette(0xC0FFEE), &policy);
    assert!(
        reference.retries > 0 || !reference.events.is_empty(),
        "the palette never fired — raise the rates"
    );

    for threads in [1usize, 4] {
        for arm in SimdBackend::supported() {
            simd::set_global(arm);
            let cell = run_chaos(&config(threads), &palette(0xC0FFEE), &policy);
            assert_eq!(
                cell, reference,
                "chaos run drifted at {threads} threads / {arm} arm"
            );
            for (a, b) in cell
                .outcome
                .per_client
                .iter()
                .zip(reference.outcome.per_client.iter())
            {
                assert_eq!(a.auc.to_bits(), b.auc.to_bits(), "AUC bits drifted");
            }
        }
    }
    simd::set_global(before);
}

/// A different chaos seed must change the fault schedule (the palette
/// is seeded, not vestigial), while the *training* problem stays fixed.
#[test]
fn chaos_seed_selects_the_fault_schedule() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();
    simd::set_global(SimdBackend::Scalar);
    let policy = FaultPolicy {
        retry: RetryPolicy::immediate(4),
        min_quorum: 1,
        ..FaultPolicy::default()
    };
    let a = run_chaos(&config(1), &palette(1), &policy);
    let b = run_chaos(&config(1), &palette(2), &policy);
    assert_ne!(
        (&a.events, a.retries),
        (&b.events, b.retries),
        "different chaos seeds must give different fault schedules"
    );
    simd::set_global(before);
}

/// Rule 9 on the async driver: under the same palette, its records,
/// outcome and event log replay bit for bit in every thread count ×
/// SIMD arm cell, and another chaos seed changes the events.
#[test]
fn async_chaos_replays_bitwise_and_follows_the_chaos_seed() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();
    let policy = FaultPolicy {
        retry: RetryPolicy::immediate(4),
        min_quorum: 1,
        ..FaultPolicy::default()
    };

    simd::set_global(SimdBackend::Scalar);
    let reference = run_async_chaos(&config(1), &palette(0xC0FFEE), &policy);
    assert!(
        !reference.0.events.is_empty(),
        "the palette never fired — raise the rates"
    );
    assert_eq!(reference.1.len(), 4, "every aggregation is recorded");

    for threads in [1usize, 4] {
        for arm in SimdBackend::supported() {
            simd::set_global(arm);
            let cell = run_async_chaos(&config(threads), &palette(0xC0FFEE), &policy);
            assert_eq!(
                cell, reference,
                "async chaos run drifted at {threads} threads / {arm} arm"
            );
        }
    }

    simd::set_global(SimdBackend::Scalar);
    let other = run_async_chaos(&config(1), &palette(0xBEEF), &policy);
    assert_ne!(
        other.0.events, reference.0.events,
        "different chaos seeds must give different fault schedules"
    );
    simd::set_global(before);
}

/// Injected byte corruption is always caught by the frame CRCs and
/// surfaces as a typed retry reason — never as silently wrong bits
/// reaching the aggregator.
#[test]
fn corruption_is_always_caught_by_frame_crcs() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();
    simd::set_global(SimdBackend::Scalar);
    let chaos = ChaosConfig {
        seed: 33,
        corrupt_p: 0.5,
        ..ChaosConfig::default()
    };
    let policy = FaultPolicy {
        retry: RetryPolicy::immediate(6),
        min_quorum: 1,
        ..FaultPolicy::default()
    };
    let run = run_chaos(&config(1), &chaos, &policy);
    let crc_retries: Vec<&RoundEvent> = run
        .events
        .iter()
        .filter(|e| matches!(e, RoundEvent::Retry { reason, .. } if reason.contains("checksum")))
        .collect();
    assert!(
        !crc_retries.is_empty(),
        "a 50% corruption rate produced no CRC-typed retries: {:?}",
        run.events
    );
    simd::set_global(before);
}

/// Quorum degradation is deterministic: with one link deterministically
/// dead, two runs agree on the survivor set, the reweighted aggregate
/// bits, and the full miss log.
#[test]
fn quorum_reweighting_replays_bitwise() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();
    simd::set_global(SimdBackend::Scalar);
    let policy = FaultPolicy {
        retry: RetryPolicy::immediate(2),
        min_quorum: 2,
        ..FaultPolicy::default()
    };
    let run = |_tag: &str| {
        let fleet = clients(3);
        let factory = factory();
        let config = config(1);
        let lethal = ChaosConfig {
            seed: 5,
            drop_p: 1.0,
            ..ChaosConfig::default()
        };
        let mut links: Vec<ChaosTransport<_>> = local_links(&fleet, &factory, &config, None)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(lane, link)| {
                let cfg = if lane == 1 {
                    lethal.clone()
                } else {
                    ChaosConfig::default()
                };
                ChaosTransport::new(link, cfg, lane as u64).unwrap()
            })
            .collect();
        run_rounds_resilient(&fleet, &factory, &config, &mut links, &policy, None, None).unwrap()
    };
    let a = run("a");
    let b = run("b");
    assert_eq!(a, b, "degraded runs must replay bitwise");
    let missed = a
        .events
        .iter()
        .filter(|e| matches!(e, RoundEvent::Missed { client: 1, .. }))
        .count();
    assert_eq!(missed, config(1).rounds, "client 1 missed every round");
    simd::set_global(before);
}

/// Satellite regression: a client that connects, says hello, and then
/// never answers a deploy must cost the coordinator at most `deadline ×
/// attempts` per round — the run completes with the silent client
/// recorded as missed, instead of wedging in a blocking read forever.
#[test]
fn silent_client_over_uds_cannot_wedge_the_coordinator() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();
    simd::set_global(SimdBackend::Scalar);

    let path = std::env::temp_dir().join(format!("rte-silent-{}.sock", std::process::id()));
    let listener = UdsListener::bind(&path).unwrap();
    let fleet = clients(3);
    let config = config(1);

    // Clients 0 and 1 serve normally on their own threads; client 2
    // hellos and then reads without ever replying (the silent peer).
    let mut servers = Vec::new();
    for me in 0..2usize {
        let path = path.clone();
        let config = config.clone();
        servers.push(std::thread::spawn(move || {
            let fleet = clients(3);
            let factory = factory();
            let mut session = ClientSession::new(&fleet, me, &factory, &config, None).unwrap();
            let mut transport = UdsTransport::connect(&path).unwrap();
            session.hello(&mut transport).unwrap();
            session.serve(&mut transport).unwrap();
        }));
    }
    {
        let path = path.clone();
        let config = config.clone();
        servers.push(std::thread::spawn(move || {
            let fleet = clients(3);
            let factory = factory();
            let mut session = ClientSession::new(&fleet, 2, &factory, &config, None).unwrap();
            let mut transport = UdsTransport::connect(&path).unwrap();
            session.hello(&mut transport).unwrap();
            // Swallow every deploy without answering until the
            // coordinator hangs up.
            while transport.recv().is_ok() {}
        }));
    }

    let mut slots: Vec<Option<UdsTransport>> = (0..3).map(|_| None).collect();
    for _ in 0..3 {
        let mut link = listener.accept().unwrap();
        let (_, message) = decentralized_routability::fed::wire::recv_message(&mut link).unwrap();
        let decentralized_routability::fed::wire::Message::Hello { client, .. } = message else {
            panic!("client did not open with a hello");
        };
        assert!(slots[client as usize].replace(link).is_none());
    }
    let mut links: Vec<UdsTransport> = slots.into_iter().map(Option::unwrap).collect();

    let factory = factory();
    let policy = FaultPolicy {
        deadline: std::time::Duration::from_millis(100),
        retry: RetryPolicy::immediate(2),
        min_quorum: 2,
    };
    let run =
        run_rounds_resilient(&fleet, &factory, &config, &mut links, &policy, None, None).unwrap();
    assert_eq!(run.completed_rounds, config.rounds);
    let missed = run
        .events
        .iter()
        .filter(|e| matches!(e, RoundEvent::Missed { client: 2, .. }))
        .count();
    assert_eq!(
        missed, config.rounds,
        "the silent client missed every round"
    );

    drop(links);
    for server in servers {
        server.join().unwrap();
    }
    let _ = std::fs::remove_file(&path);
    simd::set_global(before);
}
