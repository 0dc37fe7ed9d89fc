//! The fault vocabulary of a link-side run, and its plain-stage entry.
//!
//! Over transport links the round engine ([`crate::engine`]) reads every
//! client reply through [`Transport::recv_timeout`], re-deploys a failed
//! slot under a seeded [`RetryPolicy`], and lets a round complete with a
//! *subset* of its participants — survivors are reweighted
//! deterministically (the weighted aggregate normalizes by the surviving
//! weight sum), missing clients become typed [`RoundEvent`]s, and only
//! falling below `min_quorum` aborts the run (as
//! [`FedError::QuorumLost`]). This module holds what a caller configures
//! and reads back — [`FaultPolicy`], [`RoundEvent`], [`ResumePoint`],
//! [`RoundHook`], [`ResilientOutcome`] — and [`run_rounds_resilient`],
//! the engine's link-side entry on the plain aggregation stage.

use std::fmt;
use std::time::Duration;

use rte_net::{RetryPolicy, Transport};
use rte_nn::StateDict;

use crate::engine::run_link_rounds;
use crate::methods::MethodOutcome;
use crate::{Client, FedConfig, FedError, ModelFactory};

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
    /// with [`FedError::QuorumLost`]. Clamped to at least 1 — and, under
    /// secure aggregation, raised to every participant of the round.
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

/// [`run_link_rounds`] on the plain aggregation stage: the FedProx
/// round loop over `links` with per-client deadlines, seeded retries,
/// quorum degradation, resume and the per-round hook.
///
/// # Errors
///
/// As [`run_link_rounds`].
pub fn run_rounds_resilient<T: Transport>(
    clients: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
    links: &mut [T],
    policy: &FaultPolicy,
    resume: Option<ResumePoint>,
    on_round: Option<&mut RoundHook<'_>>,
) -> Result<ResilientOutcome, FedError> {
    run_link_rounds(
        clients, factory, config, links, None, policy, resume, on_round,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::local_links;
    use crate::methods::test_support::{clients, factory};
    use crate::WireStats;
    use rte_net::{ChaosConfig, ChaosTransport, Frame, NetError};

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

    /// A `LocalLink` whose next `send` can fail outright, and which
    /// refuses to be waited on while its latest deploy never left.
    struct FlakySend<'a> {
        inner: crate::LocalLink<'a>,
        fail_next_send: bool,
        deploy_left: bool,
    }

    impl Transport for FlakySend<'_> {
        fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
            self.deploy_left = !std::mem::take(&mut self.fail_next_send);
            if !self.deploy_left {
                return Err(NetError::Closed);
            }
            self.inner.send(frame)
        }

        fn recv(&mut self) -> Result<Frame, NetError> {
            self.inner.recv()
        }

        fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, NetError> {
            assert!(
                self.deploy_left,
                "waited a deadline for the reply to a deploy that never left"
            );
            self.inner.recv_timeout(timeout)
        }
    }

    #[test]
    fn a_deploy_that_failed_to_send_is_resent_before_it_is_waited_on() {
        let clients = clients(3);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.rounds = 1;
        let policy = FaultPolicy {
            retry: RetryPolicy::immediate(2),
            min_quorum: 3,
            ..FaultPolicy::default()
        };
        let mut quiet = local_links(&clients, &factory, &config, None).unwrap();
        let reference =
            run_rounds_resilient(&clients, &factory, &config, &mut quiet, &policy, None, None)
                .unwrap();
        let mut links: Vec<FlakySend<'_>> = local_links(&clients, &factory, &config, None)
            .unwrap()
            .into_iter()
            .map(|inner| FlakySend {
                inner,
                fail_next_send: false,
                deploy_left: false,
            })
            .collect();
        links[1].fail_next_send = true;
        let run =
            run_rounds_resilient(&clients, &factory, &config, &mut links, &policy, None, None)
                .unwrap();
        // One retry re-sent the deploy and the slot was collected: with
        // two attempts the client is not missed, and the round's
        // aggregate is the faultless one.
        assert_eq!(run.retries, 1);
        assert!(
            matches!(
                run.events[..],
                [RoundEvent::Retry {
                    round: 1,
                    client: 1,
                    attempt: 0,
                    ..
                }]
            ),
            "{:?}",
            run.events
        );
        assert_eq!(run.outcome, reference.outcome);
    }

    #[test]
    fn faultless_resilient_run_matches_the_plain_loop_bitwise() {
        let clients = clients(3);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.eval_every = 1;
        let mut links = local_links(&clients, &factory, &config, None).unwrap();
        let reference = run_link_rounds(
            &clients,
            &factory,
            &config,
            &mut links,
            None,
            &FaultPolicy::default(),
            None,
            None,
        )
        .unwrap()
        .outcome;
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
