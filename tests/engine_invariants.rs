//! Protocol invariants of the synchronous round engine, checked over a
//! sweep of chaos seeds against oracles instead of a handful of cells.
//!
//! Every seed runs a tiny fleet over `local_links` wrapped in a seeded
//! `ChaosTransport` under `RetryPolicy::immediate`, so no wall clock is
//! touched, on three aggregation stages: the weighted mean, a robust
//! rule, and the masked (secure) stage. A [`Tap`] between the engine
//! and the chaos layer records what actually crossed the wire, which
//! makes the survivor sets an observation independent of the engine's
//! own event log. Per seed and stage:
//!
//! - the run returns — `Ok`, or a typed `QuorumLost` /
//!   `SecureAggregation` — and never reads a link without a deadline,
//! - per `(round, client)`: at most one `Missed`, `Retry.attempt`
//!   strictly increasing and below the attempt budget, `Missed` exactly
//!   where the wire shows no delivery, and `QuorumLost { got, need }`
//!   exactly when a round's deliveries fall below the stage's floor,
//! - plain stages: the outcome equals, bit for bit, a recomputation from
//!   public pieces (`ClientSession::train_slot` + `params::aggregate`)
//!   over exactly the survivors the wire shows — no update counted
//!   twice, survivor weights renormalised — and a run with an empty
//!   event log equals `run_method(Method::FedProx, …)`,
//! - masked stage: every `Ok` run equals the faultless masked run bit
//!   for bit, whatever the seed dropped, duplicated, reordered or
//!   corrupted.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use decentralized_routability::fed::methods::run_method;
use decentralized_routability::fed::params::aggregate;
use decentralized_routability::fed::wire::Message;
use decentralized_routability::fed::{
    local_links, run_link_rounds, Aggregation, Client, ClientSession, ClientSet, Evaluator,
    FaultPolicy, FedConfig, FedError, Method, MethodOutcome, ModelFactory, ResilientOutcome,
    RoundEvent, SecureConfig,
};
use decentralized_routability::net::{
    ChaosConfig, ChaosTransport, Frame, NetError, RetryPolicy, Transport,
};
use decentralized_routability::nn::models::{FlNet, FlNetConfig};
use decentralized_routability::nn::{state_dict, StateDict};
use decentralized_routability::tensor::rng::Xoshiro256;
use decentralized_routability::tensor::Tensor;

/// Chaos seeds swept per stage.
const SEEDS: u64 = if cfg!(debug_assertions) { 64 } else { 2_000 };
const FLEET: usize = 4;
const ATTEMPTS: u32 = 3;
/// The plain stages' `min_quorum`: half the fleet, so a sweep sees
/// degraded rounds and quorum aborts alike.
const PLAIN_FLOOR: usize = 2;
/// `methods::EVAL_BATCH`, which is not public.
const EVAL_BATCH: usize = 16;

fn synthetic_client(id: usize, seed: u64) -> Client {
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
    // Unequal sample counts, so renormalised survivor weights matter.
    Client::new(id, make(3 + id % 3, 0xAAAA), make(3, 0xBBBB))
}

fn fleet() -> Vec<Client> {
    (0..FLEET)
        .map(|k| synthetic_client(k + 1, 7100 + k as u64))
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

/// The aggregation stage under test.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Stage {
    Plain(Aggregation),
    Masked,
}

impl Stage {
    fn config(self) -> FedConfig {
        let mut config = FedConfig::tiny();
        config.rounds = 3;
        config.local_steps = 1;
        config.seed = 5113;
        if let Stage::Plain(rule) = self {
            config.aggregation = rule;
        }
        config
    }

    fn secure(self) -> Option<SecureConfig> {
        (self == Stage::Masked).then(SecureConfig::default)
    }

    /// The fewest deliveries a round may aggregate: the masks cancel
    /// only over the full participant set.
    fn floor(self) -> usize {
        match self {
            Stage::Plain(_) => PLAIN_FLOOR,
            Stage::Masked => FLEET,
        }
    }
}

/// Fault rates by `seed % 4`, from "usually nothing fires" to "most
/// slots retry", every fault class armed.
fn palette(seed: u64) -> ChaosConfig {
    let rate = [0.01, 0.05, 0.15, 0.3][(seed % 4) as usize];
    ChaosConfig {
        seed,
        drop_p: rate,
        dup_p: rate / 2.0,
        reorder_p: rate / 2.0,
        reorder_window: 2,
        corrupt_p: rate / 2.0,
        latency_min: 1,
        latency_max: 5,
    }
}

/// What the engine put on, and took off, one link.
#[derive(Clone, Copy)]
enum Seen {
    Deployed(u64),
    Delivered(u64),
}

/// Sits between the engine and the chaos layer and records the rounds
/// of the deploys sent and the updates received.
struct Tap<T> {
    inner: T,
    seen: Vec<Seen>,
}

impl<T: Transport> Transport for Tap<T> {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        if let Ok(Message::Deploy { round, .. }) = Message::from_frame(frame) {
            self.seen.push(Seen::Deployed(round));
        }
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Frame, NetError> {
        panic!("the engine read a link without a deadline");
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, NetError> {
        let frame = self.inner.recv_timeout(timeout)?;
        if let Ok(Message::Update { round, .. } | Message::SecureUpdate { round, .. }) =
            Message::from_frame(&frame)
        {
            self.seen.push(Seen::Delivered(round));
        }
        Ok(frame)
    }
}

/// `delivered[round - 1][client]`: whether the round's own update came
/// off that client's link while the round was being collected.
fn deliveries<T>(links: &[Tap<T>], rounds: usize) -> Vec<Vec<bool>> {
    let mut delivered = vec![vec![false; links.len()]; rounds];
    for (k, link) in links.iter().enumerate() {
        let mut current = 0u64;
        for seen in &link.seen {
            match *seen {
                Seen::Deployed(round) => current = round,
                Seen::Delivered(round) if round == current => {
                    delivered[round as usize - 1][k] = true;
                }
                Seen::Delivered(_) => {}
            }
        }
    }
    delivered
}

struct Run {
    result: Result<ResilientOutcome, FedError>,
    delivered: Vec<Vec<bool>>,
}

fn run(stage: Stage, fleet: &[Client], factory: &ModelFactory, chaos: &ChaosConfig) -> Run {
    let config = stage.config();
    let policy = FaultPolicy {
        retry: RetryPolicy::immediate(ATTEMPTS),
        min_quorum: match stage {
            Stage::Plain(_) => PLAIN_FLOOR,
            Stage::Masked => 1,
        },
        ..FaultPolicy::default()
    };
    let mut links: Vec<Tap<_>> = local_links(fleet, factory, &config, stage.secure())
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(lane, link)| Tap {
            inner: ChaosTransport::new(link, chaos.clone(), lane as u64).unwrap(),
            seen: Vec::new(),
        })
        .collect();
    let result = run_link_rounds(
        fleet,
        factory,
        &config,
        &mut links,
        stage.secure(),
        &policy,
        None,
        None,
    );
    Run {
        result,
        delivered: deliveries(&links, config.rounds),
    }
}

/// FedProx recomputed from public pieces over the given survivor sets.
fn recompute(
    fleet: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
    survivors: &[Vec<usize>],
) -> MethodOutcome {
    let mut global = state_dict(factory(config.seed).as_mut());
    for (i, alive) in survivors.iter().enumerate() {
        let updates: Vec<(StateDict, f64)> = alive
            .iter()
            .map(|&k| {
                let (state, _) = ClientSession::new(fleet, k, factory, config, None)
                    .unwrap()
                    .train_slot(i as u64 + 1, config.local_steps, &global)
                    .unwrap();
                (state, fleet[k].weight() as f64)
            })
            .collect();
        let refs: Vec<(&StateDict, f64)> = updates.iter().map(|(s, w)| (s, *w)).collect();
        global = aggregate(&refs, config.aggregation).unwrap();
    }
    let per_client = Evaluator::new(config.parallelism, EVAL_BATCH)
        .eval_global(factory, config.seed, fleet, &global)
        .unwrap();
    MethodOutcome::new(Method::FedProx, per_client, Vec::new())
}

fn assert_same_bits(got: &MethodOutcome, want: &MethodOutcome, what: &str) {
    assert_eq!(got, want, "{what}");
    assert_eq!(
        got.average_auc.to_bits(),
        want.average_auc.to_bits(),
        "{what}"
    );
}

/// Checks the event log of an `Ok` run against the wire.
fn check_events(events: &[RoundEvent], delivered: &[Vec<bool>], what: &str) {
    let mut retries: BTreeMap<(usize, usize), Vec<u32>> = BTreeMap::new();
    let mut missed: BTreeMap<(usize, usize), u32> = BTreeMap::new();
    for event in events {
        match *event {
            RoundEvent::Retry {
                round,
                client,
                attempt,
                ..
            } => retries.entry((round, client)).or_default().push(attempt),
            RoundEvent::Missed { round, client, .. } => {
                *missed.entry((round, client)).or_default() += 1;
            }
            RoundEvent::Stale {
                round, got_round, ..
            } => assert!(got_round < round as u64, "{what}: stale from the future"),
        }
    }
    for (slot, attempts) in &retries {
        assert!(
            attempts.windows(2).all(|w| w[0] < w[1]) && attempts.iter().all(|&a| a < ATTEMPTS),
            "{what}: slot {slot:?} retried as {attempts:?}"
        );
    }
    for (round, row) in delivered.iter().enumerate() {
        for (client, &arrived) in row.iter().enumerate() {
            let times = missed.get(&(round + 1, client)).copied().unwrap_or(0);
            assert_eq!(
                times,
                u32::from(!arrived),
                "{what}: round {} client {client} delivered={arrived} but missed {times}×",
                round + 1
            );
        }
    }
}

/// What a sweep saw, so a palette that stops exercising a branch fails
/// the test instead of passing vacuously.
#[derive(Default, Debug)]
struct Tally {
    quiet: u64,
    degraded: u64,
    recovered: u64,
    aborted: u64,
}

fn sweep(stage: Stage) -> Tally {
    let fleet = fleet();
    let factory = factory();
    let config = stage.config();
    let floor = stage.floor();
    let faultless = run(stage, &fleet, &factory, &ChaosConfig::default())
        .result
        .unwrap();
    assert!(faultless.events.is_empty());
    if let Stage::Plain(_) = stage {
        let in_process = run_method(Method::FedProx, &fleet, &factory, &config).unwrap();
        assert_same_bits(&faultless.outcome, &in_process, "faultless vs run_method");
    }
    let mut recomputed: HashMap<Vec<Vec<usize>>, MethodOutcome> = HashMap::new();
    let mut tally = Tally::default();

    for seed in 0..SEEDS {
        let what = format!("{stage:?} seed {seed}");
        let Run { result, delivered } = run(stage, &fleet, &factory, &palette(seed));
        let counts: Vec<usize> = delivered
            .iter()
            .map(|row| row.iter().filter(|&&d| d).count())
            .collect();
        let run = match result {
            Ok(run) => run,
            Err(FedError::QuorumLost { round, got, need }) => {
                assert_eq!(need, floor, "{what}");
                assert_eq!(got, counts[round - 1], "{what}: got vs the wire");
                assert!(got < need, "{what}");
                assert!(
                    counts[..round - 1].iter().all(|&c| c >= floor),
                    "{what}: an earlier round was already below the floor: {counts:?}"
                );
                tally.aborted += 1;
                continue;
            }
            Err(FedError::SecureAggregation { .. }) if stage == Stage::Masked => {
                tally.aborted += 1;
                continue;
            }
            Err(other) => panic!("{what}: untyped failure {other}"),
        };
        assert!(
            counts.iter().all(|&c| c >= floor),
            "{what}: completed below the floor: {counts:?}"
        );
        check_events(&run.events, &delivered, &what);
        if run.events.is_empty() {
            assert_same_bits(&run.outcome, &faultless.outcome, &what);
            tally.quiet += 1;
        } else if counts.iter().all(|&c| c == FLEET) {
            tally.recovered += 1;
        } else {
            tally.degraded += 1;
        }
        match stage {
            Stage::Masked => assert_same_bits(&run.outcome, &faultless.outcome, &what),
            Stage::Plain(_) => {
                let survivors: Vec<Vec<usize>> = delivered
                    .iter()
                    .map(|row| (0..FLEET).filter(|&k| row[k]).collect())
                    .collect();
                let want = recomputed
                    .entry(survivors)
                    .or_insert_with_key(|alive| recompute(&fleet, &factory, &config, alive));
                assert_same_bits(&run.outcome, want, &what);
            }
        }
    }
    assert!(
        tally.quiet > 0 && tally.recovered > 0,
        "{stage:?}: the palette no longer covers quiet and recovered runs: {tally:?}"
    );
    tally
}

#[test]
fn weighted_mean_survives_the_seed_sweep() {
    let tally = sweep(Stage::Plain(Aggregation::WeightedMean));
    assert!(tally.degraded > 0, "{tally:?}");
    // Losing three of four clients in one round is rare: only the full
    // sweep is sure to see it.
    assert!(cfg!(debug_assertions) || tally.aborted > 0, "{tally:?}");
}

#[test]
fn median_survives_the_seed_sweep() {
    let tally = sweep(Stage::Plain(Aggregation::Median));
    assert!(tally.degraded > 0, "{tally:?}");
}

#[test]
fn masked_stage_recovers_bitwise_or_aborts_typed() {
    let tally = sweep(Stage::Masked);
    assert_eq!(
        tally.degraded, 0,
        "a masked round never degrades: {tally:?}"
    );
    assert!(tally.aborted > 0, "{tally:?}");
}
