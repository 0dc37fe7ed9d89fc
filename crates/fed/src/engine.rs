//! The synchronous round engine: the paper's collaborative flow (§4.1)
//! written once.
//!
//! Every synchronous run of a round-based method in the workspace is
//! `run_rounds`: select the round's participants → *exchange* each
//! slot's start state for its update, folding each update into the next
//! coordinator state as it arrives → record → fire the hook. The three
//! seams that really differ are parameters:
//!
//! - the `Exchange` — `InProcess` trains the participants on worker
//!   threads and every update is present; `Links` deploys one shared
//!   frame per distinct start state over `links[k]: Transport` and
//!   collects in fixed participant order under a [`FaultPolicy`]
//!   (deadline, seeded retries, stale-frame drain, quorum), logging
//!   typed [`RoundEvent`]s. Both hand each update over in participant
//!   order as soon as every earlier participant's is in,
//! - the `Stage` — `Plain` aggregates `Message::Update`s under
//!   `FedConfig::aggregation`; `Masked` sums pairwise-masked
//!   `Message::SecureUpdate`s ([`crate::secure`]),
//! - the `Deployment` — which state slot `k` starts from, which running
//!   aggregates a round's updates fold into, and the per-client view
//!   that is recorded and finally deployed. FedProx's one global state
//!   is the one-state case; FedProx-LG, IFCA, assigned clustering and
//!   α-sync keep one state per client or per cluster
//!   ([`crate::methods`]).
//!
//! A round folds: the weights `n_k` of `W^{r+1} = Σ_k (n_k/n)·w_k` are
//! fixed once the participants (and, for clusters, the pick) are, so
//! the coordinator holds one running aggregate per state it advances,
//! not the round's K updates. A round still holds its updates until the
//! set is complete where the arithmetic needs the whole set: the
//! order-statistic rules (`Median`, `TrimmedMean`), a link round that
//! may degrade (its `min_quorum` is below its participant count, and
//! the survivors' weight sum is unknown until the last slot resolves),
//! and α-sync, whose every blend mixes all other clients' updates.
//!
//! [`crate::methods::fedprox_rounds`] is the in-process configuration
//! and [`run_link_rounds`] the link-side one; faultless they are
//! bit-identical (`tests/transport_determinism.rs`), and under seeded
//! chaos the link side replays bit for bit (contract rule 9). Resume,
//! the per-round hook (checkpoints) and the masked stage are properties
//! of the one-state deployment only.

use std::time::Duration;

use rte_net::{Frame, NetError, Transport};
use rte_nn::StateDict;

use crate::eval::EvalReport;
use crate::federation::COORDINATOR;
use crate::methods::{ClientUpdate, Harness, LossMean, MethodOutcome, RoundRecord, TrainJob};
use crate::params::{aggregate, WeightedMean};
use crate::resilient::{FaultPolicy, ResilientOutcome, ResumePoint, RoundEvent, RoundHook};
use crate::secure::{MaskedSum, MaskedUpdate, SecureConfig};
use crate::wire::{deploy_frame, net_err, send_message, Message};
use crate::{Aggregation, Client, FedConfig, FedError, Method, ModelFactory};

/// How many stale or duplicate frames one client slot may drain in one
/// round before the slot is declared missed — bounds the loop when a
/// duplicating link floods the queue.
const STALE_BUDGET: u32 = 64;

/// The aggregation seam: what one participant sends back and how a
/// round's updates fold into the next global state.
pub(crate) trait Stage {
    /// One participant's contribution.
    type Update;

    /// The running aggregate of one member set.
    type Sum;

    /// Takes this stage's `(round, client, loss, update)` out of a
    /// reply, or hands the message back when it is another kind.
    fn parse(message: Message) -> Result<(u64, u32, f32, Self::Update), Message>;

    /// Whether a round can only aggregate its *full* participant set
    /// (every participant is then the quorum, whatever the policy asks).
    const FULL_SET: bool;

    /// Opens the aggregate of `members` (a round's participants, or one
    /// cluster's share of them, in participant order). With `held` the
    /// round may end with a subset of `members`, so their weight sum is
    /// unknown until its last slot resolves.
    fn open(&self, harness: &Harness<'_>, members: &[usize], held: bool) -> Self::Sum;

    /// Folds one member's update into `sum`.
    fn add(
        &self,
        harness: &Harness<'_>,
        sum: &mut Self::Sum,
        update: ClientUpdate<Self::Update>,
    ) -> Result<(), FedError>;

    /// The aggregate, or `None` when no member's update arrived.
    fn finish(&self, harness: &Harness<'_>, sum: Self::Sum) -> Result<Option<StateDict>, FedError>;
}

/// Raw parameters under `FedConfig::aggregation`. A round may complete
/// with a subset of its participants: the weighted rules normalize by
/// the surviving weight sum, which *is* the deterministic reweighting —
/// same survivors, same weights, same bits.
pub(crate) struct Plain;

/// [`Plain`]'s aggregate of one member set.
pub(crate) enum PlainSum {
    /// The weighted mean, folded as the updates arrive.
    Running(WeightedMean),
    /// Every update, kept until the set is complete.
    Held(Vec<ClientUpdate>),
}

fn weight(harness: &Harness<'_>, k: usize) -> f64 {
    harness.clients[k].weight() as f64
}

impl Stage for Plain {
    type Update = StateDict;
    type Sum = PlainSum;

    fn parse(message: Message) -> Result<(u64, u32, f32, StateDict), Message> {
        match message {
            Message::Update {
                round,
                client,
                loss,
                state,
            } => Ok((round, client, loss, state)),
            other => Err(other),
        }
    }

    const FULL_SET: bool = false;

    /// The weighted mean folds each update as it arrives, its total the
    /// members' weight sum. Two cases hold every update until the set is
    /// complete instead: the order statistics (`Median`, `TrimmedMean`)
    /// need all values of a coordinate at once, and a round that may
    /// degrade normalizes by the *surviving* weight sum.
    fn open(&self, harness: &Harness<'_>, members: &[usize], held: bool) -> PlainSum {
        if held || harness.config.aggregation != Aggregation::WeightedMean {
            return PlainSum::Held(Vec::new());
        }
        let total = members.iter().map(|&k| weight(harness, k)).sum();
        PlainSum::Running(WeightedMean::new(total))
    }

    fn add(
        &self,
        harness: &Harness<'_>,
        sum: &mut PlainSum,
        update: ClientUpdate,
    ) -> Result<(), FedError> {
        match sum {
            PlainSum::Running(mean) => mean.add(&update.state, weight(harness, update.client)),
            PlainSum::Held(updates) => {
                updates.push(update);
                Ok(())
            }
        }
    }

    fn finish(&self, harness: &Harness<'_>, sum: PlainSum) -> Result<Option<StateDict>, FedError> {
        match sum {
            PlainSum::Running(mean) => Ok(mean.finish()),
            PlainSum::Held(updates) if updates.is_empty() => Ok(None),
            PlainSum::Held(updates) => {
                let refs: Vec<(&StateDict, f64)> = updates
                    .iter()
                    .map(|u| (&u.state, weight(harness, u.client)))
                    .collect();
                aggregate(&refs, harness.config.aggregation).map(Some)
            }
        }
    }
}

/// Pairwise-masked quantized updates: the coordinator recovers only the
/// sum. The masks cancel only over the round's *full* participant set,
/// so every participant is this stage's quorum — a slot still gets its
/// deadline, its retries (re-masking a `(round, client)` slot is as
/// stateless as re-training it) and its stale-frame drain, but a slot
/// missed after its last attempt ends the run with
/// [`FedError::QuorumLost`] instead of degrading.
pub(crate) struct Masked(pub SecureConfig);

impl Stage for Masked {
    type Update = MaskedUpdate;
    /// The wrapping sum and the members' weight sum.
    type Sum = (MaskedSum, f64);

    fn parse(message: Message) -> Result<(u64, u32, f32, MaskedUpdate), Message> {
        match message {
            Message::SecureUpdate {
                round,
                client,
                loss,
                masked,
            } => Ok((round, client, loss, masked)),
            other => Err(other),
        }
    }

    const FULL_SET: bool = true;

    /// Never held: the full set is the quorum, so the weight sum is
    /// known before the round.
    fn open(&self, harness: &Harness<'_>, members: &[usize], _held: bool) -> Self::Sum {
        let ids: Vec<u32> = members.iter().map(|&k| k as u32).collect();
        let weight_sum = members.iter().map(|&k| weight(harness, k)).sum();
        (MaskedSum::new(&ids), weight_sum)
    }

    fn add(
        &self,
        _harness: &Harness<'_>,
        (sum, _): &mut Self::Sum,
        update: ClientUpdate<MaskedUpdate>,
    ) -> Result<(), FedError> {
        sum.add(&update.state)
    }

    fn finish(
        &self,
        _harness: &Harness<'_>,
        (sum, weight_sum): Self::Sum,
    ) -> Result<Option<StateDict>, FedError> {
        sum.finish(weight_sum, &self.0).map(Some)
    }
}

/// One round as a deployment folds it: the stage, the round's
/// participants, and whether the round may end with a subset of them.
pub(crate) struct Round<'r, S> {
    stage: &'r S,
    pub harness: &'r Harness<'r>,
    pub participants: &'r [usize],
    held: bool,
}

impl<S: Stage> Round<'_, S> {
    /// Opens the aggregate of `members`, before the round's first update.
    pub(crate) fn open(&self, members: &[usize]) -> S::Sum {
        self.stage.open(self.harness, members, self.held)
    }

    /// Folds one member's update into `sum`.
    pub(crate) fn add(
        &self,
        sum: &mut S::Sum,
        update: ClientUpdate<S::Update>,
    ) -> Result<(), FedError> {
        self.stage.add(self.harness, sum, update)
    }

    /// The aggregate, or `None` when no member's update arrived.
    pub(crate) fn finish(&self, sum: S::Sum) -> Result<Option<StateDict>, FedError> {
        self.stage.finish(self.harness, sum)
    }
}

/// A round's exchange as a deployment runs it: deploys each
/// participant's [`Deployment::state`] of the deployment passed in and
/// hands every update that comes back to the sink, in participant order,
/// as soon as the updates before it are in. The first error the sink
/// returns is the round's, once the exchange itself has succeeded.
pub(crate) type Exchanged<'r, S> = dyn FnMut(
        &dyn Deployment<S>,
        &mut dyn FnMut(ClientUpdate<<S as Stage>::Update>) -> Result<(), FedError>,
    ) -> Result<(), FedError>
    + 'r;

/// The deployment seam: the coordinator state a run carries between
/// rounds, seen one client at a time.
pub(crate) trait Deployment<S: Stage = Plain> {
    /// Re-derives which state each client takes — before every round
    /// and once more before the final deploy — and says whether any
    /// client's view moved. Only IFCA re-picks.
    fn pick(&mut self, _harness: &Harness<'_>) -> Result<bool, FedError> {
        Ok(false)
    }

    /// The state client `k` holds: where its next slot starts (and its
    /// proximal reference), and its view — what a record evaluates on
    /// its test split and what it is finally deployed with.
    fn state(&self, k: usize) -> &StateDict;

    /// Runs one round: opens the aggregates the round folds into, runs
    /// `exchange` from `self`, folds each update as it arrives, and
    /// turns the aggregates into the next coordinator state (a client
    /// absent from the round sends none).
    fn advance(
        &mut self,
        round: &Round<'_, S>,
        exchange: &mut Exchanged<'_, S>,
    ) -> Result<(), FedError>;
}

/// The one-state deployment: every client trains from, and is evaluated
/// with, the one global state the stage aggregates — one running
/// aggregate over the round's participants.
impl<S: Stage> Deployment<S> for StateDict {
    fn state(&self, _k: usize) -> &StateDict {
        self
    }

    fn advance(
        &mut self,
        round: &Round<'_, S>,
        exchange: &mut Exchanged<'_, S>,
    ) -> Result<(), FedError> {
        let mut sum = round.open(round.participants);
        exchange(&*self, &mut |update| round.add(&mut sum, update))?;
        if let Some(next) = round.finish(sum)? {
            *self = next;
        }
        Ok(())
    }
}

/// The per-client view of `deployment`, in client order.
fn view<S: Stage>(deployment: &(impl Deployment<S> + ?Sized), clients: usize) -> Vec<&StateDict> {
    (0..clients).map(|k| deployment.state(k)).collect()
}

/// The exchange seam: how one round's start states reach the
/// participants and which of stage `S`'s updates come back.
pub(crate) trait Exchange<S: Stage> {
    /// Whether a round of `participants` may complete with a subset of
    /// them.
    fn degrades(&self, participants: usize) -> bool;

    /// Deploys `starts[i]` to `participants[i]` and hands each update
    /// that makes it to `sink`, in participant order.
    fn round(
        &mut self,
        round: usize,
        participants: &[usize],
        starts: &[&StateDict],
        sink: &mut dyn FnMut(ClientUpdate<S::Update>),
    ) -> Result<(), FedError>;

    /// The coordinator's frame sequence counter after the last exchange
    /// (what a checkpoint carries; 0 when no frames are involved).
    fn seq(&self) -> u64;
}

/// A per-round observer of deployment `D`; on the one-state deployment
/// it is exactly a [`RoundHook`].
pub(crate) type Hook<'a, D> = dyn FnMut(usize, u64, &D) -> Result<(), FedError> + 'a;

/// The one synchronous round loop. Rounds `1..=done` are skipped and
/// `deployment` is the state after them: participant selection and the
/// per-`(round, client)` training streams are derived statelessly from
/// the config seed, so the remaining rounds are bit-identical to an
/// uninterrupted run's. `on_round` fires after every round with
/// `(round, seq, deployment)`; an error from it aborts the run.
pub(crate) fn run_rounds<S: Stage, D: Deployment<S> + ?Sized>(
    harness: &Harness<'_>,
    stage: &S,
    exchange: &mut impl Exchange<S>,
    deployment: &mut D,
    done: usize,
    mut on_round: Option<&mut Hook<'_, D>>,
) -> Result<Vec<RoundRecord>, FedError> {
    let mut history = Vec::new();
    for round in done + 1..=harness.config.rounds {
        deployment.pick(harness)?;
        let participants = harness.participants(round);
        let fold = Round {
            stage,
            harness,
            participants: &participants,
            held: exchange.degrades(participants.len()),
        };
        let mut loss = LossMean::default();
        let mut exchanged =
            |from: &dyn Deployment<S>,
             sink: &mut dyn FnMut(ClientUpdate<S::Update>) -> Result<(), FedError>| {
                let starts: Vec<&StateDict> = participants.iter().map(|&k| from.state(k)).collect();
                let mut folded = Ok(());
                exchange.round(round, &participants, &starts, &mut |update| {
                    loss.add(update.loss);
                    if folded.is_ok() {
                        folded = sink(update);
                    }
                })?;
                folded
            };
        deployment.advance(&fold, &mut exchanged)?;
        if harness.should_record(round) {
            let reports = harness.eval_states(&view(deployment, harness.clients.len()))?;
            history.push(RoundRecord::new(round, reports, loss.mean()));
        }
        if let Some(hook) = on_round.as_deref_mut() {
            hook(round, exchange.seq(), deployment)?;
        }
    }
    Ok(history)
}

/// Evaluates what a finished run deploys, one cell per client (a
/// diverged client is a [`FedError::ClientDiverged`] cell): each
/// client's view after a last [`Deployment::pick`]. A run that recorded
/// its final round with that same view has already evaluated it — the
/// last record *is* that evaluation — so it is reused.
pub(crate) fn deploy<S: Stage>(
    harness: &Harness<'_>,
    deployment: &mut (impl Deployment<S> + ?Sized),
    history: &[RoundRecord],
) -> Result<Vec<Result<EvalReport, FedError>>, FedError> {
    let moved = deployment.pick(harness)?;
    match history.last() {
        Some(last) if last.round == harness.config.rounds && !moved => {
            Ok(last.per_client.iter().cloned().map(Ok).collect())
        }
        _ => harness.eval_cells(&view(deployment, harness.clients.len())),
    }
}

/// The in-process exchange: participants train concurrently on the
/// harness' worker threads, each from its own deployed copy of its
/// start state; every update is present, and each reaches the sink
/// while later participants may still be training.
pub(crate) struct InProcess<'h, 'a>(pub &'h Harness<'a>);

impl Exchange<Plain> for InProcess<'_, '_> {
    fn degrades(&self, _participants: usize) -> bool {
        false
    }

    fn round(
        &mut self,
        round: usize,
        participants: &[usize],
        starts: &[&StateDict],
        sink: &mut dyn FnMut(ClientUpdate),
    ) -> Result<(), FedError> {
        let jobs: Vec<TrainJob<'_>> = participants
            .iter()
            .zip(starts)
            .map(|(&client, &start)| TrainJob {
                client,
                start,
                reference: Some(start),
            })
            .collect();
        self.0
            .train_clients(&jobs, round, self.0.config.local_steps, sink)
    }

    fn seq(&self) -> u64 {
        0
    }
}

/// The link-side exchange: `links[k]` speaks to fleet client `k`. The
/// async driver ([`crate::fedasync`]) dispatches and collects one slot
/// at a time through it.
pub(crate) struct Links<'l, T> {
    links: &'l mut [T],
    policy: &'l FaultPolicy,
    steps: u64,
    seq: u64,
    events: Vec<RoundEvent>,
    retries: u64,
}

impl<'l, T: Transport> Links<'l, T> {
    /// Wraps one link per fleet client, each slot trained for `steps`
    /// under `policy`, with frame sequence numbers continuing from `seq`.
    ///
    /// # Errors
    ///
    /// [`FedError::InvalidConfig`] when there is not one link per client.
    pub(crate) fn new(
        links: &'l mut [T],
        clients: usize,
        policy: &'l FaultPolicy,
        steps: usize,
        seq: u64,
    ) -> Result<Self, FedError> {
        if links.len() != clients {
            return Err(FedError::InvalidConfig {
                reason: format!("{} links for {clients} clients", links.len()),
            });
        }
        Ok(Links {
            links,
            policy,
            steps: steps as u64,
            seq,
            events: Vec::new(),
            retries: 0,
        })
    }

    /// Sends client `k` alone a deploy of `start` for `round`; returns
    /// the frame (for [`Links::collect`]'s retries) and the error's
    /// rendering when it did not leave.
    pub(crate) fn dispatch(
        &mut self,
        round: u64,
        k: usize,
        start: &StateDict,
    ) -> (Frame, Option<String>) {
        let mut deploy = deploy_frame(round, self.steps, &[], start, COORDINATOR, self.seq);
        let failure = self.deploy(k, &mut deploy);
        (deploy, failure)
    }

    /// Sends every client a shutdown — one that already hung up is
    /// fine, the run is over — and returns the run's fault log and
    /// retry count.
    pub(crate) fn shutdown(mut self) -> (Vec<RoundEvent>, u64) {
        for link in self.links.iter_mut() {
            let _ = send_message(link, Message::Shutdown, COORDINATOR, self.seq);
            self.seq += 1;
        }
        (self.events, self.retries)
    }

    /// Sends the round's deploy to client `k` under the next sequence
    /// number; returns the error's rendering when it did not leave.
    fn deploy(&mut self, k: usize, deploy: &mut Frame) -> Option<String> {
        deploy.seq = self.seq;
        self.seq += 1;
        let sent = self.links[k].send(deploy);
        sent.err().map(|e| net_err(e).to_string())
    }

    /// Collects client `k`'s update for `round`: each slot gets the
    /// policy's attempts, and a failed attempt — a deploy that did not
    /// leave (`failure` on entry) or a reply that did not arrive —
    /// re-deploys after the backoff before anything is waited on.
    /// Re-training the slot is bit-identical, so a retried update
    /// equals the lost one. `None` is a slot missed after its last
    /// attempt (or flooded past the stale budget).
    pub(crate) fn collect<S: Stage>(
        &mut self,
        round: usize,
        k: usize,
        deploy: &mut Frame,
        mut failure: Option<String>,
    ) -> Result<Option<ClientUpdate<S::Update>>, FedError> {
        let attempts = self.policy.retry.max_attempts.max(1);
        let mut attempt = 0u32;
        let mut stale_budget = STALE_BUDGET;
        loop {
            if let Some(reason) = failure.take() {
                self.events.push(RoundEvent::Retry {
                    round,
                    client: k,
                    attempt,
                    reason,
                });
                attempt += 1;
                if attempt >= attempts {
                    break;
                }
                self.retries += 1;
                self.policy.retry.sleep(attempt - 1, k as u64);
                failure = self.deploy(k, deploy);
                continue;
            }
            match recv_update::<T, S>(&mut self.links[k], self.policy.deadline) {
                Ok((got_round, got_client, loss, state)) => {
                    if got_client != k as u32 {
                        return Err(FedError::Transport {
                            reason: format!(
                                "link {k} delivered an update claiming client {got_client}"
                            ),
                        });
                    }
                    if got_round == round as u64 {
                        return Ok(Some(ClientUpdate {
                            client: k,
                            state,
                            loss,
                        }));
                    }
                    // An earlier round's update surfacing late
                    // (duplicate or reorder): drain and discard.
                    self.events.push(RoundEvent::Stale {
                        round,
                        client: k,
                        got_round,
                    });
                    if stale_budget == 0 {
                        break;
                    }
                    stale_budget -= 1;
                }
                Err(RecvFailure::Fatal(e)) => return Err(e),
                Err(RecvFailure::Slot(reason)) => failure = Some(reason),
            }
        }
        self.events.push(RoundEvent::Missed {
            round,
            client: k,
            attempts: attempt.max(1),
        });
        Ok(None)
    }
}

/// How many of a round's `participants` must be collected under
/// `policy` for stage `S` to aggregate.
fn quorum<S: Stage>(policy: &FaultPolicy, participants: usize) -> usize {
    let need = policy.min_quorum.max(1);
    if S::FULL_SET {
        need.max(participants)
    } else {
        need
    }
}

impl<T: Transport, S: Stage> Exchange<S> for Links<'_, T> {
    fn degrades(&self, participants: usize) -> bool {
        quorum::<S>(self.policy, participants) < participants
    }

    fn round(
        &mut self,
        round: usize,
        participants: &[usize],
        starts: &[&StateDict],
        sink: &mut dyn FnMut(ClientUpdate<S::Update>),
    ) -> Result<(), FedError> {
        let part_ids: Vec<u32> = participants.iter().map(|&k| k as u32).collect();
        // One deploy per distinct start state (a global round has one),
        // encoded and checksummed once: every send of it — first wave
        // and retries — shares the payload and differs only in `seq`.
        let mut deploys: Vec<(&StateDict, Frame)> = Vec::new();
        let mut slot_deploy = Vec::with_capacity(starts.len());
        for &start in starts {
            let known = deploys.iter().position(|(s, _)| std::ptr::eq(*s, start));
            slot_deploy.push(known.unwrap_or_else(|| {
                let frame = deploy_frame(
                    round as u64,
                    self.steps,
                    &part_ids,
                    start,
                    COORDINATOR,
                    self.seq,
                );
                deploys.push((start, frame));
                deploys.len() - 1
            }));
        }
        // First deploy wave, then the collect phase, both in fixed
        // participant order.
        let unsent: Vec<Option<String>> = participants
            .iter()
            .zip(&slot_deploy)
            .map(|(&k, &i)| self.deploy(k, &mut deploys[i].1))
            .collect();
        let mut got = 0;
        for ((&k, &i), failure) in participants.iter().zip(&slot_deploy).zip(unsent) {
            if let Some(update) = self.collect::<S>(round, k, &mut deploys[i].1, failure)? {
                got += 1;
                sink(update);
            }
        }
        let need = quorum::<S>(self.policy, participants.len());
        if got < need {
            return Err(FedError::QuorumLost { round, got, need });
        }
        Ok(())
    }

    fn seq(&self) -> u64 {
        self.seq
    }
}

/// Why one receive attempt did not produce a usable update.
enum RecvFailure {
    /// Worth retrying the slot: timeout, frame damage, short hang-up.
    Slot(String),
    /// Not a fault-injection survivor: abort the run.
    Fatal(FedError),
}

/// Receives one frame under a deadline and parses it as stage `S`'s
/// update.
fn recv_update<T: Transport, S: Stage>(
    link: &mut T,
    deadline: Duration,
) -> Result<(u64, u32, f32, S::Update), RecvFailure> {
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
    S::parse(message).map_err(|other| {
        RecvFailure::Fatal(FedError::Transport {
            reason: format!(
                "expected this run's update kind, got message kind {}",
                other.kind()
            ),
        })
    })
}

/// Runs the FedProx round loop with every client behind a transport
/// link: `links[k]` speaks to fleet client `k`. Participants are
/// deployed to and collected from in a fixed order, each slot under
/// `policy`'s deadline, seeded retries and stale-frame drain, so a
/// faultless run is bit-identical to [`crate::methods::run_method`]
/// (`tests/transport_determinism.rs`). A round may complete with a
/// subset of its participants — survivors reweight deterministically,
/// missing clients become typed [`RoundEvent`]s — and only falling
/// below `policy.min_quorum` aborts the run.
///
/// With `secure`, clients return pairwise-masked quantized updates and
/// the aggregate is the exact masked weighted mean ([`crate::secure`]):
/// privacy-preserving but quantized, so *not* bit-identical to the
/// plain path, and every participant is the round's quorum (a lost
/// slot is still retried; a missed one ends the run).
///
/// With `resume`, rounds `1..=resume.round` are skipped (their history
/// is not re-recorded) and the rest are bit-identical to the
/// uninterrupted run's. `on_round` — the checkpoint writer's hook —
/// fires after every completed round with `(round, seq, global state)`.
///
/// # Errors
///
/// - [`FedError::InvalidConfig`] for a link/fleet size mismatch, a
///   quorum larger than the fleet, a resume point past the end, or
///   `secure` with a non-weighted-mean rule.
/// - [`FedError::QuorumLost`] when a round's survivors fall below the
///   quorum.
/// - [`FedError::Transport`] for protocol violations no retry can fix.
/// - [`FedError::SecureAggregation`] when masked updates cannot cancel.
pub fn run_link_rounds<T: Transport>(
    clients: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
    links: &mut [T],
    secure: Option<SecureConfig>,
    policy: &FaultPolicy,
    resume: Option<ResumePoint>,
    on_round: Option<&mut RoundHook<'_>>,
) -> Result<ResilientOutcome, FedError> {
    if policy.min_quorum > clients.len() {
        return Err(FedError::InvalidConfig {
            reason: format!(
                "min_quorum {} exceeds the fleet of {}",
                policy.min_quorum,
                clients.len()
            ),
        });
    }
    if secure.is_some() && config.aggregation != Aggregation::WeightedMean {
        return Err(FedError::InvalidConfig {
            reason: "secure aggregation supports only the weighted mean \
                     (robust rules need individual updates)"
                .into(),
        });
    }
    let mut harness = Harness::new(clients, factory, config)?;
    let (done, seq, mut global) = match resume {
        Some(point) if point.round >= config.rounds => {
            return Err(FedError::InvalidConfig {
                reason: format!(
                    "resume point at round {} but the run has only {} rounds",
                    point.round, config.rounds
                ),
            });
        }
        Some(point) => (point.round, point.seq, point.state),
        None => (0, 0, harness.initial_state()),
    };
    let mut exchange = Links::new(links, clients.len(), policy, config.local_steps, seq)?;
    let history = match secure {
        None => run_rounds(&harness, &Plain, &mut exchange, &mut global, done, on_round)?,
        Some(cfg) => run_rounds(
            &harness,
            &Masked(cfg),
            &mut exchange,
            &mut global,
            done,
            on_round,
        )?,
    };
    let (events, retries) = exchange.shutdown();
    let per_client = deploy::<Plain>(&harness, &mut global, &history)?
        .into_iter()
        .collect::<Result<_, _>>()?;
    Ok(ResilientOutcome {
        outcome: MethodOutcome::new(Method::FedProx, per_client, history),
        events,
        retries,
        completed_rounds: config.rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::local_links;
    use crate::methods::test_support::{clients, factory};
    use crate::methods::{deployment, run_method};
    use crate::wire::KIND_DEPLOY;
    use crate::LocalLink;

    /// A `LocalLink` that keeps every frame the coordinator sent it.
    struct Recording<'a> {
        inner: LocalLink<'a>,
        sent: Vec<Frame>,
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
            self.inner.recv_timeout(timeout)
        }
    }

    /// `method`'s deployment through the engine over recording links,
    /// deployed like [`run_method`] deploys it.
    fn over_links<'a>(
        method: Method,
        clients: &'a [Client],
        factory: &ModelFactory,
        config: &'a FedConfig,
    ) -> (MethodOutcome, Vec<Recording<'a>>) {
        let mut links: Vec<Recording<'_>> = local_links(clients, factory, config, None)
            .unwrap()
            .into_iter()
            .map(|inner| Recording {
                inner,
                sent: Vec::new(),
            })
            .collect();
        let mut harness = Harness::new(clients, factory, config).unwrap();
        let mut deployment = deployment(method, &mut harness).unwrap();
        let policy = FaultPolicy::default();
        let mut exchange =
            Links::new(&mut links, clients.len(), &policy, config.local_steps, 0).unwrap();
        let history = run_rounds(
            &harness,
            &Plain,
            &mut exchange,
            deployment.as_mut(),
            0,
            None,
        )
        .unwrap();
        let cells = deploy(&harness, deployment.as_mut(), &history).unwrap();
        let per_client = cells.into_iter().collect::<Result<_, _>>().unwrap();
        (MethodOutcome::new(method, per_client, history), links)
    }

    /// Personalization over a wire: a per-client and a per-cluster
    /// deployment run through the link exchange bit for bit like in
    /// process, every round's record included, with every client present
    /// and with clients sitting rounds out.
    #[test]
    fn personalized_deployments_over_links_match_in_process_bitwise() {
        let clients = clients(4);
        let factory = factory();
        for participation in [1.0, 0.5] {
            let mut config = FedConfig::tiny();
            (config.rounds, config.eval_every) = (3, 1);
            config.participation = participation;
            config.assigned_clusters = vec![vec![0, 2], vec![1, 3]];
            for method in [Method::AssignedClustering, Method::AlphaSync] {
                let (wired, _) = over_links(method, &clients, &factory, &config);
                let in_process = run_method(method, &clients, &factory, &config).unwrap();
                assert_eq!(wired.history.len(), config.rounds);
                assert_eq!(wired, in_process, "{method}, participation {participation}");
            }
        }
    }

    /// Two clusters, two start states a round: two deploy payloads are
    /// encoded, and each cluster's members share theirs.
    #[test]
    fn two_clusters_encode_two_deploy_payloads_a_round() {
        let clients = clients(4);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.assigned_clusters = vec![vec![0, 2], vec![1, 3]];
        let (_, links) = over_links(Method::AssignedClustering, &clients, &factory, &config);
        for link in &links {
            assert_eq!(link.sent.len(), config.rounds);
            assert!(link.sent.iter().all(|frame| frame.kind == KIND_DEPLOY));
        }
        for round in 0..config.rounds {
            let payload = |k: usize| links[k].sent[round].payload.as_ptr();
            assert_eq!(payload(0), payload(2), "round {round}: cluster 0");
            assert_eq!(payload(1), payload(3), "round {round}: cluster 1");
            assert_ne!(
                payload(0),
                payload(1),
                "round {round}: one payload per cluster"
            );
        }
    }
}
