//! Fault-tolerant coordinator rounds: deadlines, retries, and
//! quorum-based graceful degradation.
//!
//! [`run_rounds_resilient`] is [`crate::run_rounds_over`]'s hardened
//! sibling: every client read goes through
//! [`Transport::recv_timeout`], a failed slot is re-deployed under a
//! seeded [`RetryPolicy`], and a round may complete with a *subset* of
//! its participants — survivors are reweighted deterministically (the
//! weighted aggregate normalizes by the surviving weight sum), missing
//! clients become typed [`RoundEvent`]s, and only falling below
//! `min_quorum` aborts the run (as [`FedError::QuorumLost`]).
//!
//! Determinism under chaos (contract rule 9): re-training a re-deployed
//! slot is bit-identical to the first attempt (the per-`(round, client)`
//! RNG stream is derived statelessly), every fault decision comes from
//! the chaos wrapper's seeded streams, and [`crate::LocalLink`]'s
//! `recv_timeout` reports an empty queue as an immediate timeout — so a
//! whole faulty run over the channel backend touches no wall clock and
//! replays bit for bit.
//!
//! The loop is plain-aggregation only: secure aggregation's pairwise
//! masks cancel only over the *full* mask set, so a quorum shortfall
//! would make the sum garbage — the combination is rejected up front.

use std::fmt;
use std::time::Duration;

use rte_net::{NetError, RetryPolicy, Transport};
use rte_nn::StateDict;

use crate::federation::COORDINATOR;
use crate::methods::{mean_loss, ClientUpdate, Harness, MethodOutcome, RoundRecord};
use crate::params::aggregate;
use crate::wire::{deploy_frame, net_err, send_message, Message};
use crate::{Client, FedConfig, FedError, Method, ModelFactory};

/// How many stale or duplicate frames one client slot may drain in one
/// round before the slot is declared missed — bounds the loop when a
/// duplicating link floods the queue.
const STALE_BUDGET: u32 = 64;

/// Deadlines, retry budget, and the survival threshold for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPolicy {
    /// Per-attempt deadline on a client's update. Over a `LocalLink`
    /// this is consulted but never slept on (an empty queue times out
    /// immediately); over a socket it is the real read deadline.
    pub deadline: Duration,
    /// Attempts per client slot per round (deploy + collect counts as
    /// one attempt), with seeded-jitter backoff between them.
    pub retry: RetryPolicy,
    /// Minimum surviving updates a round needs; fewer aborts the run
    /// with [`FedError::QuorumLost`]. Clamped to at least 1.
    pub min_quorum: usize,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            deadline: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            min_quorum: 1,
        }
    }
}

/// One observed fault, attributed to a `(round, client)` slot — the
/// typed record that replaces aborting on a missing client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundEvent {
    /// An attempt failed and the slot was re-deployed.
    Retry {
        /// Round the slot belongs to.
        round: usize,
        /// Fleet index of the client.
        client: usize,
        /// 0-based attempt number that failed.
        attempt: u32,
        /// The typed error's rendering (timeout, payload checksum
        /// mismatch, …).
        reason: String,
    },
    /// Every attempt failed; the round proceeded without this client.
    Missed {
        /// Round the slot belongs to.
        round: usize,
        /// Fleet index of the client.
        client: usize,
        /// Attempts that were made.
        attempts: u32,
    },
    /// A stale or duplicate frame (an earlier round's update surfacing
    /// late) was drained and discarded.
    Stale {
        /// Round being collected when the frame surfaced.
        round: usize,
        /// Fleet index of the link it surfaced on.
        client: usize,
        /// The round the frame claimed.
        got_round: u64,
    },
}

impl fmt::Display for RoundEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoundEvent::Retry {
                round,
                client,
                attempt,
                reason,
            } => write!(
                f,
                "round {round} client {client}: attempt {attempt} failed ({reason}), retrying"
            ),
            RoundEvent::Missed {
                round,
                client,
                attempts,
            } => write!(
                f,
                "round {round} client {client}: missed after {attempts} attempts"
            ),
            RoundEvent::Stale {
                round,
                client,
                got_round,
            } => write!(
                f,
                "round {round} client {client}: discarded stale frame from round {got_round}"
            ),
        }
    }
}

/// Where a resumed run picks up: the last completed round, the
/// coordinator frame sequence, and the global state at that point —
/// exactly what a [`crate::checkpoint::Checkpoint`] carries.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumePoint {
    /// Rounds already completed (training restarts at `round + 1`).
    pub round: usize,
    /// Coordinator frame sequence counter to continue from.
    pub seq: u64,
    /// The aggregated global state after `round`.
    pub state: StateDict,
}

/// What a resilient run produces: the usual outcome plus the fault log.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientOutcome {
    /// The trained outcome (same shape as the non-resilient path).
    pub outcome: MethodOutcome,
    /// Every fault, in the deterministic order it was observed.
    pub events: Vec<RoundEvent>,
    /// Total re-deploy attempts across the run.
    pub retries: u64,
    /// Rounds that completed (always `config.rounds` on `Ok`).
    pub completed_rounds: usize,
}

/// Per-round observer: fired after each aggregated round with
/// `(round, seq, global state)` — the checkpoint writer's shape.
pub type RoundHook<'a> = dyn FnMut(usize, u64, &StateDict) -> Result<(), FedError> + 'a;

/// Runs the FedProx round loop with per-client deadlines, seeded
/// retries, and quorum degradation. `on_round` fires after every
/// completed round with `(round, seq, global state)` — the checkpoint
/// writer's hook; an error from it aborts the run.
///
/// With `resume`, rounds `1..=resume.round` are skipped and the global
/// state starts from the resume point: because participant selection
/// and per-`(round, client)` training streams are derived statelessly
/// from the config seed, the remaining rounds are bit-identical to the
/// uninterrupted run's (round history before the resume point is not
/// re-recorded — resumed runs are for final-table workloads).
///
/// # Errors
///
/// - [`FedError::InvalidConfig`] for link/fleet mismatches, a quorum
///   larger than the fleet, or a resume point past the end.
/// - [`FedError::QuorumLost`] when a round's survivors fall below
///   `min_quorum`.
/// - [`FedError::Transport`] for protocol violations no retry can fix.
pub fn run_rounds_resilient<T: Transport>(
    clients: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
    links: &mut [T],
    policy: &FaultPolicy,
    resume: Option<ResumePoint>,
    mut on_round: Option<&mut RoundHook<'_>>,
) -> Result<ResilientOutcome, FedError> {
    if links.len() != clients.len() {
        return Err(FedError::InvalidConfig {
            reason: format!("{} links for {} clients", links.len(), clients.len()),
        });
    }
    let min_quorum = policy.min_quorum.max(1);
    if min_quorum > clients.len() {
        return Err(FedError::InvalidConfig {
            reason: format!(
                "min_quorum {} exceeds the fleet of {}",
                min_quorum,
                clients.len()
            ),
        });
    }

    let mut harness = Harness::new(clients, factory, config)?;
    let (start_round, mut seq, mut global) = match resume {
        Some(point) => {
            if point.round >= config.rounds {
                return Err(FedError::InvalidConfig {
                    reason: format!(
                        "resume point at round {} but the run has only {} rounds",
                        point.round, config.rounds
                    ),
                });
            }
            (point.round + 1, point.seq, point.state)
        }
        None => (1, 0u64, harness.initial_state()),
    };

    let mut history = Vec::new();
    let mut events = Vec::new();
    let mut retries = 0u64;
    let mut completed = start_round.saturating_sub(1);
    let attempts = policy.retry.max_attempts.max(1);

    for round in start_round..=config.rounds {
        let participants = harness.participants(round);
        let part_ids: Vec<u32> = participants.iter().map(|&k| k as u32).collect();
        // The round's deploy, encoded and checksummed once: every send
        // below — first wave and retries — shares this payload and
        // differs only in `seq`.
        let mut deploy = deploy_frame(
            round as u64,
            config.local_steps as u64,
            &part_ids,
            &global,
            COORDINATOR,
            seq,
        );
        // First deploy wave, in fixed participant order. A send that
        // fails outright marks the slot dead for this round (the
        // collect phase records the miss).
        let mut send_failed = vec![false; clients.len()];
        for &k in &participants {
            deploy.seq = seq;
            if let Err(e) = links[k].send(&deploy).map_err(net_err) {
                events.push(RoundEvent::Retry {
                    round,
                    client: k,
                    attempt: 0,
                    reason: e.to_string(),
                });
                send_failed[k] = true;
            }
            seq += 1;
        }
        // Collect phase, same fixed order: each slot gets `attempts`
        // tries; a failed try re-deploys (re-training the slot is
        // bit-identical, so a retried update equals the lost one).
        let mut updates: Vec<ClientUpdate> = Vec::with_capacity(participants.len());
        for &k in &participants {
            let mut attempt = 0u32;
            let mut stale_budget = STALE_BUDGET;
            let collected = loop {
                if send_failed[k] {
                    send_failed[k] = false;
                    // The deploy never left: skip straight to a retry.
                    attempt += 1;
                    if attempt >= attempts {
                        break None;
                    }
                }
                match recv_update(&mut links[k], policy.deadline) {
                    Ok((got_round, got_client, loss, state)) => {
                        if got_round == round as u64 && got_client == k as u32 {
                            break Some(ClientUpdate {
                                client: k,
                                state,
                                loss,
                            });
                        }
                        if got_client != k as u32 {
                            return Err(FedError::Transport {
                                reason: format!(
                                    "link {k} delivered an update claiming client {got_client}"
                                ),
                            });
                        }
                        // An earlier round's update surfacing late
                        // (duplicate or reorder): drain and discard.
                        events.push(RoundEvent::Stale {
                            round,
                            client: k,
                            got_round,
                        });
                        if stale_budget == 0 {
                            break None;
                        }
                        stale_budget -= 1;
                    }
                    Err(RecvFailure::Fatal(e)) => return Err(e),
                    Err(RecvFailure::Slot(reason)) => {
                        events.push(RoundEvent::Retry {
                            round,
                            client: k,
                            attempt,
                            reason,
                        });
                        attempt += 1;
                        if attempt >= attempts {
                            break None;
                        }
                        retries += 1;
                        policy.retry.sleep(attempt - 1, k as u64);
                        deploy.seq = seq;
                        if links[k].send(&deploy).is_err() {
                            send_failed[k] = true;
                        }
                        seq += 1;
                    }
                }
            };
            match collected {
                Some(update) => updates.push(update),
                None => events.push(RoundEvent::Missed {
                    round,
                    client: k,
                    attempts: attempt.max(1),
                }),
            }
        }
        if updates.len() < min_quorum {
            return Err(FedError::QuorumLost {
                round,
                got: updates.len(),
                need: min_quorum,
            });
        }
        // Survivors only: the weighted aggregate normalizes by the
        // surviving weight sum, which *is* the deterministic reweighting
        // — same survivors, same weights, same bits.
        let refs: Vec<(&StateDict, f64)> = updates
            .iter()
            .map(|u| (&u.state, clients[u.client].weight() as f64))
            .collect();
        global = aggregate(&refs, config.aggregation)?;
        completed = round;
        if harness.should_record(round) {
            let reports = harness.eval_global(&global)?;
            history.push(RoundRecord::new(round, reports, mean_loss(&updates)));
        }
        if let Some(hook) = on_round.as_deref_mut() {
            hook(round, seq, &global)?;
        }
    }
    for link in links.iter_mut() {
        // A client that already hung up is fine — the run is over.
        let _ = send_message(link, Message::Shutdown, COORDINATOR, seq);
        seq += 1;
    }
    let per_client = harness.eval_global(&global)?;
    Ok(ResilientOutcome {
        outcome: MethodOutcome::new(Method::FedProx, per_client, history),
        events,
        retries,
        completed_rounds: completed,
    })
}

/// Why one receive attempt did not produce a usable update.
enum RecvFailure {
    /// Worth retrying the slot: timeout, frame damage, short hang-up.
    Slot(String),
    /// Not a fault-injection survivor: abort the run.
    Fatal(FedError),
}

/// Receives one frame under a deadline and parses it as a plain update.
fn recv_update<T: Transport>(
    link: &mut T,
    deadline: Duration,
) -> Result<(u64, u32, f32, StateDict), RecvFailure> {
    let frame = match link.recv_timeout(deadline) {
        Ok(frame) => frame,
        // Every injected fault surfaces here as a typed error —
        // timeouts for drops, CRC errors for corruption, `Closed` for a
        // dead peer — and all of them are slot-level, not run-level.
        Err(e @ (NetError::Timeout | NetError::Closed)) => {
            return Err(RecvFailure::Slot(e.to_string()))
        }
        Err(
            e @ (NetError::BadMagic
            | NetError::HeaderCrc
            | NetError::PayloadCrc
            | NetError::Truncated { .. }
            | NetError::Oversize { .. }
            | NetError::UnsupportedVersion { .. }),
        ) => return Err(RecvFailure::Slot(e.to_string())),
        Err(e) => return Err(RecvFailure::Fatal(net_err(e))),
    };
    let message = match Message::from_frame(&frame) {
        Ok(m) => m,
        Err(e) => return Err(RecvFailure::Slot(e.to_string())),
    };
    match message {
        Message::Update {
            round,
            client,
            loss,
            state,
        } => Ok((round, client, loss, state)),
        other => Err(RecvFailure::Fatal(FedError::Transport {
            reason: format!(
                "resilient rounds are plain-only, got message kind {}",
                other.kind()
            ),
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::{local_links, run_rounds_over};
    use crate::methods::test_support::{clients, factory};
    use crate::WireStats;
    use rte_net::{ChaosConfig, ChaosTransport, Frame};

    fn chaos_links<'a>(
        clients: &'a [Client],
        factory: &'a ModelFactory,
        config: &'a FedConfig,
        chaos: &ChaosConfig,
    ) -> Vec<ChaosTransport<crate::LocalLink<'a>>> {
        local_links(clients, factory, config, None)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(lane, link)| ChaosTransport::new(link, chaos.clone(), lane as u64).unwrap())
            .collect()
    }

    /// A `LocalLink` that keeps every frame the coordinator sent and
    /// can lose one reply on the way back.
    struct Recording<'a> {
        inner: crate::LocalLink<'a>,
        sent: Vec<Frame>,
        lose_next_reply: bool,
    }

    impl Transport for Recording<'_> {
        fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
            self.sent.push(frame.clone());
            self.inner.send(frame)
        }

        fn recv(&mut self) -> Result<Frame, NetError> {
            self.inner.recv()
        }

        fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, NetError> {
            let frame = self.inner.recv_timeout(timeout)?;
            if std::mem::take(&mut self.lose_next_reply) {
                return Err(NetError::Timeout);
            }
            Ok(frame)
        }
    }

    #[test]
    fn a_round_encodes_its_deploy_once_and_retries_resend_it() {
        let clients = clients(3);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.rounds = 1;
        let mut links: Vec<Recording<'_>> = local_links(&clients, &factory, &config, None)
            .unwrap()
            .into_iter()
            .map(|inner| Recording {
                inner,
                sent: Vec::new(),
                lose_next_reply: false,
            })
            .collect();
        links[1].lose_next_reply = true;
        let policy = FaultPolicy {
            retry: RetryPolicy::immediate(2),
            min_quorum: 3,
            ..FaultPolicy::default()
        };
        let run =
            run_rounds_resilient(&clients, &factory, &config, &mut links, &policy, None, None)
                .unwrap();
        assert_eq!(run.retries, 1);

        // Three first-wave deploys and link 1's retry: one payload
        // buffer between them, and nothing but `seq` tells them apart.
        let deploys: Vec<&Frame> = links
            .iter()
            .flat_map(|link| &link.sent)
            .filter(|frame| frame.kind == crate::wire::KIND_DEPLOY)
            .collect();
        assert_eq!(deploys.len(), 4);
        assert_eq!(links[1].sent[0].kind, crate::wire::KIND_DEPLOY);
        assert_eq!(links[1].sent[1].kind, crate::wire::KIND_DEPLOY);
        for deploy in &deploys {
            assert!(
                std::ptr::eq(deploy.payload.as_ptr(), deploys[0].payload.as_ptr()),
                "deploy seq {} carries its own copy of the payload",
                deploy.seq
            );
            assert_eq!(
                (deploy.kind, deploy.flags, deploy.sender),
                (deploys[0].kind, deploys[0].flags, deploys[0].sender)
            );
        }
        let mut seqs: Vec<u64> = deploys.iter().map(|frame| frame.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, [0, 1, 2, 3]);

        // The same frames and bytes cross each link as before the
        // payload was shared (counts taken at the parent commit).
        let stats: Vec<WireStats> = links.iter().map(|link| link.inner.stats).collect();
        let quiet = WireStats {
            frames_sent: 2,
            frames_received: 1,
            bytes_sent: 1014,
            bytes_received: 956,
        };
        let retried = WireStats {
            frames_sent: 3,
            frames_received: 2,
            bytes_sent: 1990,
            bytes_received: 1912,
        };
        assert_eq!(stats, [quiet, retried, quiet]);
    }

    #[test]
    fn faultless_resilient_run_matches_the_plain_loop_bitwise() {
        let clients = clients(3);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.eval_every = 1;
        let mut links = local_links(&clients, &factory, &config, None).unwrap();
        let reference = run_rounds_over(
            Method::FedProx,
            &clients,
            &factory,
            &config,
            &mut links,
            None,
        )
        .unwrap();
        let mut links = local_links(&clients, &factory, &config, None).unwrap();
        let policy = FaultPolicy {
            retry: RetryPolicy::immediate(2),
            min_quorum: 3,
            ..FaultPolicy::default()
        };
        let resilient =
            run_rounds_resilient(&clients, &factory, &config, &mut links, &policy, None, None)
                .unwrap();
        assert_eq!(resilient.outcome, reference);
        assert!(resilient.events.is_empty());
        assert_eq!(resilient.retries, 0);
        assert_eq!(resilient.completed_rounds, config.rounds);
    }

    #[test]
    fn chaos_run_replays_bitwise_and_faults_are_typed() {
        let clients = clients(3);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.rounds = 4;
        let chaos = ChaosConfig {
            seed: 0xDAC2022,
            drop_p: 0.25,
            dup_p: 0.15,
            reorder_p: 0.2,
            reorder_window: 2,
            corrupt_p: 0.1,
            latency_min: 1,
            latency_max: 7,
        };
        let policy = FaultPolicy {
            retry: RetryPolicy::immediate(4),
            min_quorum: 1,
            ..FaultPolicy::default()
        };
        let run = |seed_offset: u64| {
            let chaos = ChaosConfig {
                seed: chaos.seed + seed_offset,
                ..chaos.clone()
            };
            let mut links = chaos_links(&clients, &factory, &config, &chaos);
            run_rounds_resilient(&clients, &factory, &config, &mut links, &policy, None, None)
        };
        let a = run(0).unwrap();
        let b = run(0).unwrap();
        assert_eq!(a, b, "same chaos seed → identical outcome and event log");
        assert!(
            a.retries > 0 || !a.events.is_empty(),
            "the palette never fired — raise the rates"
        );
        let c = run(1).unwrap();
        assert_ne!(
            (&a.events, a.retries),
            (&c.events, c.retries),
            "different chaos seed → different fault schedule"
        );
    }

    #[test]
    fn quorum_shortfall_is_typed_and_survivors_reweight() {
        let clients = clients(3);
        let factory = factory();
        let config = FedConfig::tiny();
        // Deterministically kill client 2's link by dropping everything.
        let lethal = ChaosConfig {
            seed: 1,
            drop_p: 1.0,
            ..ChaosConfig::default()
        };
        let benign = ChaosConfig::default();
        let mut links: Vec<ChaosTransport<crate::LocalLink<'_>>> =
            local_links(&clients, &factory, &config, None)
                .unwrap()
                .into_iter()
                .enumerate()
                .map(|(lane, link)| {
                    let cfg = if lane == 2 {
                        lethal.clone()
                    } else {
                        benign.clone()
                    };
                    ChaosTransport::new(link, cfg, lane as u64).unwrap()
                })
                .collect();
        let policy = FaultPolicy {
            retry: RetryPolicy::immediate(2),
            min_quorum: 2,
            ..FaultPolicy::default()
        };
        let run =
            run_rounds_resilient(&clients, &factory, &config, &mut links, &policy, None, None)
                .unwrap();
        // Client 2 is missed every round, and the run still completes.
        let missed: Vec<&RoundEvent> = run
            .events
            .iter()
            .filter(|e| matches!(e, RoundEvent::Missed { client: 2, .. }))
            .collect();
        assert_eq!(missed.len(), config.rounds);
        assert_eq!(run.completed_rounds, config.rounds);

        // With min_quorum = 3 the same schedule is a typed abort.
        let mut links: Vec<ChaosTransport<crate::LocalLink<'_>>> =
            local_links(&clients, &factory, &config, None)
                .unwrap()
                .into_iter()
                .enumerate()
                .map(|(lane, link)| {
                    let cfg = if lane == 2 {
                        lethal.clone()
                    } else {
                        benign.clone()
                    };
                    ChaosTransport::new(link, cfg, lane as u64).unwrap()
                })
                .collect();
        let strict = FaultPolicy {
            retry: RetryPolicy::immediate(2),
            min_quorum: 3,
            ..FaultPolicy::default()
        };
        let err =
            run_rounds_resilient(&clients, &factory, &config, &mut links, &strict, None, None)
                .unwrap_err();
        assert_eq!(
            err,
            FedError::QuorumLost {
                round: 1,
                got: 2,
                need: 3
            }
        );
    }

    #[test]
    fn resume_midway_matches_the_uninterrupted_run_bitwise() {
        let clients = clients(3);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.rounds = 4;
        let policy = FaultPolicy {
            retry: RetryPolicy::immediate(2),
            min_quorum: 3,
            ..FaultPolicy::default()
        };
        // Uninterrupted run, capturing the round-2 state via the hook.
        let mut snapshot: Option<ResumePoint> = None;
        let mut links = local_links(&clients, &factory, &config, None).unwrap();
        let mut hook = |round: usize, seq: u64, state: &StateDict| {
            if round == 2 {
                snapshot = Some(ResumePoint {
                    round,
                    seq,
                    state: state.clone(),
                });
            }
            Ok(())
        };
        let full = run_rounds_resilient(
            &clients,
            &factory,
            &config,
            &mut links,
            &policy,
            None,
            Some(&mut hook),
        )
        .unwrap();
        // Resume from the captured round-2 state: rounds 3..4 only.
        let mut links = local_links(&clients, &factory, &config, None).unwrap();
        let resumed = run_rounds_resilient(
            &clients, &factory, &config, &mut links, &policy, snapshot, None,
        )
        .unwrap();
        assert_eq!(
            resumed.outcome.per_client_auc, full.outcome.per_client_auc,
            "resumed final table must be bit-identical"
        );
        assert_eq!(
            resumed.outcome.average_auc.to_bits(),
            full.outcome.average_auc.to_bits()
        );
        assert_eq!(resumed.completed_rounds, 4);
    }

    #[test]
    fn invalid_setups_are_rejected() {
        let clients = clients(2);
        let factory = factory();
        let config = FedConfig::tiny();
        let policy = FaultPolicy {
            min_quorum: 5,
            ..FaultPolicy::default()
        };
        let mut links = local_links(&clients, &factory, &config, None).unwrap();
        assert!(matches!(
            run_rounds_resilient(&clients, &factory, &config, &mut links, &policy, None, None),
            Err(FedError::InvalidConfig { .. })
        ));
        let policy = FaultPolicy::default();
        let resume = ResumePoint {
            round: 99,
            seq: 0,
            state: rte_nn::StateDict::new(),
        };
        let mut links = local_links(&clients, &factory, &config, None).unwrap();
        assert!(matches!(
            run_rounds_resilient(
                &clients,
                &factory,
                &config,
                &mut links,
                &policy,
                Some(resume),
                None
            ),
            Err(FedError::InvalidConfig { .. })
        ));
    }
}
