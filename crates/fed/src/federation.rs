//! Federated rounds as an exchange of serialized deltas over a
//! [`Transport`].
//!
//! This is the seam the paper's deployment story needs: the same
//! FedProx round loop that `methods::fedprox` runs in-process, split
//! into a coordinator half ([`crate::run_link_rounds`], the round
//! engine over links) and a client half ([`ClientSession`]) that only
//! talk through [`crate::wire::Message`]s. This module is the client
//! half plus the in-process [`LocalLink`]. The split is engineered to
//! be *bit-identical* to the in-process path:
//!
//! - both sides derive their RNG streams from the same
//!   `methods::fleet_rng(seed)` root and run the one slot body
//!   (`methods::train_slot`), which draws the `(round, client)` stream,
//! - the coordinator deploys to, and collects from, participants in the
//!   same fixed order `Harness::participants` yields, so aggregation
//!   sees updates in the identical order,
//! - state dicts cross the wire in the lossless `rte_nn::serialize`
//!   format (f32 bits verbatim).
//!
//! `tests/transport_determinism.rs` pins the equivalence across the
//! in-process harness, the channel backend, and the UDS backend.
//!
//! With a [`SecureConfig`], clients send pairwise-masked quantized
//! updates instead of raw parameters ([`crate::secure`]), and the
//! coordinator can only recover the *sum* — never an individual update.

use std::cell::RefCell;
use std::rc::Rc;

use rte_net::{ChannelTransport, Frame, NetError, Transport};
use rte_nn::{Layer, StateDict};
use rte_tensor::rng::Xoshiro256;

use crate::methods::{fleet_rng, train_slot, TrainJob};
use crate::secure::{mask_update, SecureConfig};
use crate::wire::{net_err, send_message, Message};
use crate::{Client, FedConfig, FedError, LocalTrainer, ModelFactory};

/// The coordinator's frame sender id (clients are `1 + fleet index`).
pub const COORDINATOR: u32 = 0;

/// Byte/frame counters a [`LocalLink`] accumulates — the measured
/// communication cost of a federated run over the wire codec.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames the coordinator sent to this client.
    pub frames_sent: u64,
    /// Frames the coordinator received from this client.
    pub frames_received: u64,
    /// Encoded bytes sent (deploys).
    pub bytes_sent: u64,
    /// Encoded bytes received (updates).
    pub bytes_received: u64,
}

/// One client's half of a federated session: rebuilds the fleet-shared
/// RNG streams from the public config and answers deploys with trained
/// updates. Works over any [`Transport`] via [`ClientSession::serve`],
/// or pumped synchronously by a [`LocalLink`].
pub struct ClientSession<'a> {
    client: &'a Client,
    me: usize,
    /// Built once, not per slot: every deploy overwrites all of its
    /// parameters and buffers before training, as a [`crate::Harness`]
    /// worker's model is between jobs. Sessions that take turns on one
    /// thread ([`sessions`]) share one.
    model: Rc<RefCell<Box<dyn Layer>>>,
    config: &'a FedConfig,
    trainer: LocalTrainer,
    root_rng: Xoshiro256,
    secure: Option<SecureConfig>,
    seq: u64,
}

impl<'a> ClientSession<'a> {
    /// Builds the session for fleet position `me` of `clients`, the full
    /// fleet; it only ever touches `clients[me]`
    /// ([`ClientSession::for_client`] takes that client alone).
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] for an out-of-range `me` or
    /// an invalid config.
    pub fn new(
        clients: &'a [Client],
        me: usize,
        factory: &ModelFactory,
        config: &'a FedConfig,
        secure: Option<SecureConfig>,
    ) -> Result<Self, FedError> {
        let client = clients.get(me).ok_or_else(|| FedError::InvalidConfig {
            reason: format!(
                "client index {me} out of range for {} clients",
                clients.len()
            ),
        })?;
        Self::for_client(client, me, factory, config, secure)
    }

    /// Builds the session of the party that holds `client`, fleet
    /// position `me`, and nobody else's data: the position keys its RNG
    /// streams, masks and scenario role, the client supplies the samples
    /// and the aggregation weight.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] for an invalid config.
    pub fn for_client(
        client: &'a Client,
        me: usize,
        factory: &ModelFactory,
        config: &'a FedConfig,
        secure: Option<SecureConfig>,
    ) -> Result<Self, FedError> {
        let model = Rc::new(RefCell::new(factory(config.seed)));
        Self::with_model(client, me, model, config, secure)
    }

    fn with_model(
        client: &'a Client,
        me: usize,
        model: Rc<RefCell<Box<dyn Layer>>>,
        config: &'a FedConfig,
        secure: Option<SecureConfig>,
    ) -> Result<Self, FedError> {
        config.validate_core()?;
        let trainer =
            LocalTrainer::new(config.lr, config.weight_decay, config.mu, config.batch_size);
        Ok(ClientSession {
            client,
            me,
            model,
            config,
            trainer,
            root_rng: fleet_rng(config.seed),
            secure,
            seq: 0,
        })
    }

    /// This session's frame sender id.
    pub fn sender_id(&self) -> u32 {
        self.me as u32 + 1
    }

    /// The client's aggregation weight (its training sample count).
    pub fn weight(&self) -> u64 {
        self.client.weight() as u64
    }

    /// Trains one deployed slot: exactly the computation the in-process
    /// round loop's worker performs for `(round, me)` — the shared
    /// factory's model, deployed start state, the per-`(round, client)`
    /// RNG stream, proximal reference = start, then the scenario's
    /// Byzantine corruption if one is configured.
    ///
    /// # Errors
    ///
    /// Returns any training failure.
    pub fn train_slot(
        &mut self,
        round: u64,
        steps: usize,
        start: &StateDict,
    ) -> Result<(StateDict, f32), FedError> {
        let job = TrainJob {
            client: self.me,
            start,
            reference: Some(start),
        };
        let update = train_slot(
            self.model.borrow_mut().as_mut(),
            &self.trainer,
            self.client,
            self.config,
            &self.root_rng,
            &job,
            round as usize,
            steps,
        )?;
        Ok((update.state, update.loss))
    }

    /// Handles one incoming message, returning the reply to send (or
    /// `None` after a shutdown).
    ///
    /// # Errors
    ///
    /// Returns [`FedError::Transport`] for messages a client must never
    /// receive, or any training failure.
    pub fn handle(&mut self, message: Message) -> Result<Option<Message>, FedError> {
        match message {
            Message::Deploy {
                round,
                steps,
                participants,
                state,
            } => {
                let (out, loss) = self.train_slot(round, steps as usize, &state)?;
                let reply = if let Some(cfg) = self.secure {
                    let masked = mask_update(
                        &out,
                        self.weight() as f64,
                        self.me as u32,
                        &participants,
                        round,
                        &cfg,
                    );
                    Message::SecureUpdate {
                        round,
                        client: self.me as u32,
                        loss,
                        masked,
                    }
                } else {
                    Message::Update {
                        round,
                        client: self.me as u32,
                        loss,
                        state: out,
                    }
                };
                Ok(Some(reply))
            }
            Message::Shutdown => Ok(None),
            other => Err(FedError::Transport {
                reason: format!(
                    "client expected deploy or shutdown, got kind {}",
                    other.kind()
                ),
            }),
        }
    }

    /// Sends the opening [`Message::Hello`].
    ///
    /// # Errors
    ///
    /// Returns [`FedError::Transport`] on wire failures.
    pub fn hello<T: Transport>(&mut self, transport: &mut T) -> Result<(), FedError> {
        let msg = Message::Hello {
            client: self.me as u32,
            weight: self.weight(),
        };
        let seq = self.next_seq();
        send_message(transport, msg, self.sender_id(), seq)
    }

    /// Serves deploys over `transport` until a shutdown arrives or the
    /// peer hangs up (both are clean exits — a coordinator crash should
    /// not strand client processes).
    ///
    /// # Errors
    ///
    /// Returns [`FedError::Transport`] for wire damage or protocol
    /// violations, or any training failure.
    pub fn serve<T: Transport>(&mut self, transport: &mut T) -> Result<(), FedError> {
        self.serve_once(transport).map(|_| ())
    }

    /// Serves deploys over `transport`, distinguishing *how* the session
    /// ended: an explicit [`Message::Shutdown`] versus the peer hanging
    /// up. Reconnect logic needs the distinction — a shutdown is final,
    /// a hang-up is worth dialling again.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::Transport`] for wire damage or protocol
    /// violations, or any training failure.
    fn serve_once<T: Transport>(&mut self, transport: &mut T) -> Result<ServeExit, FedError> {
        loop {
            let frame = match transport.recv() {
                Ok(frame) => frame,
                Err(NetError::Closed) => return Ok(ServeExit::PeerClosed),
                Err(e) => return Err(net_err(e)),
            };
            let message = Message::from_frame(&frame)?;
            match self.handle(message)? {
                Some(reply) => {
                    let seq = self.next_seq();
                    send_message(transport, reply, self.sender_id(), seq)?;
                }
                None => return Ok(ServeExit::Shutdown),
            }
        }
    }

    /// Serves with automatic reconnect: `connect` dials a fresh
    /// transport (attempt number passed in), the session re-handshakes
    /// with [`ClientSession::hello`], and serving resumes. Round resync
    /// is inherent — every deploy carries its own round number and the
    /// session is stateless between deploys, so the next deploy after a
    /// reconnect trains exactly the slot the coordinator re-sent.
    ///
    /// Reconnects (after a hang-up or a wire error) draw from `policy`:
    /// up to `max_attempts` dials total, backing off with the
    /// per-client-salted jitter stream. An explicit
    /// [`Message::Shutdown`] ends the session for good.
    ///
    /// # Errors
    ///
    /// The final connect or serve error once the policy is exhausted,
    /// or immediately for non-transport failures (training errors).
    pub fn serve_with_reconnect<T, F>(
        &mut self,
        policy: &rte_net::RetryPolicy,
        mut connect: F,
    ) -> Result<(), FedError>
    where
        T: Transport,
        F: FnMut(u32) -> Result<T, NetError>,
    {
        let salt = self.me as u64;
        let attempts = policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            let mut transport = match connect(attempt) {
                Ok(t) => t,
                Err(e) => {
                    if attempt + 1 >= attempts {
                        return Err(net_err(e));
                    }
                    policy.sleep(attempt, salt);
                    attempt += 1;
                    continue;
                }
            };
            self.hello(&mut transport)?;
            match self.serve_once(&mut transport) {
                Ok(ServeExit::Shutdown) => return Ok(()),
                Ok(ServeExit::PeerClosed) | Err(FedError::Transport { .. }) => {
                    if attempt + 1 >= attempts {
                        // A hang-up with no budget left is the clean
                        // exit `serve` always treated it as.
                        return Ok(());
                    }
                    policy.sleep(attempt, salt);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }
}

/// How a [`ClientSession::serve_once`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServeExit {
    /// The coordinator sent an explicit shutdown: the run is over.
    Shutdown,
    /// The peer hung up without a shutdown — worth reconnecting.
    PeerClosed,
}

/// An in-process link: the coordinator's [`Transport`] endpoint with the
/// client's [`ClientSession`] attached behind the channel backend.
///
/// Frames still round-trip through the full encoder/decoder — the wire
/// format is on the path — but the client runs synchronously on the
/// coordinator's thread when the coordinator sends, so no threads are
/// involved and the backend stays inside determinism rules 1-7.
pub struct LocalLink<'a> {
    near: ChannelTransport,
    far: ChannelTransport,
    session: ClientSession<'a>,
    /// Accumulated traffic counters for this link.
    pub stats: WireStats,
}

impl<'a> LocalLink<'a> {
    /// Wraps `session` behind a fresh channel pair.
    pub fn new(session: ClientSession<'a>) -> Self {
        let (near, far) = ChannelTransport::pair();
        LocalLink {
            near,
            far,
            session,
            stats: WireStats::default(),
        }
    }

    /// Drains every frame the coordinator queued, letting the session
    /// answer each one.
    fn pump(&mut self) -> Result<(), NetError> {
        while let Some(frame) = self.far.try_recv()? {
            let message = Message::from_frame(&frame).map_err(fed_err_to_net)?;
            match self.session.handle(message).map_err(fed_err_to_net)? {
                Some(reply) => {
                    let seq = self.session.next_seq();
                    let sender = self.session.sender_id();
                    let reply_frame = reply.into_frame(sender, seq).map_err(fed_err_to_net)?;
                    self.stats.frames_received += 1;
                    self.stats.bytes_received += reply_frame.encoded_len() as u64;
                    self.far.send(&reply_frame)?;
                }
                None => break,
            }
        }
        Ok(())
    }
}

/// A client-side failure surfaced through the coordinator's transport.
fn fed_err_to_net(e: FedError) -> NetError {
    NetError::Protocol {
        reason: e.to_string(),
    }
}

impl Transport for LocalLink<'_> {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.encoded_len() as u64;
        self.near.send(frame)?;
        self.pump()
    }

    fn recv(&mut self) -> Result<Frame, NetError> {
        self.near.recv()
    }

    /// A `LocalLink` client answers synchronously at send time, so a
    /// reply is either already queued or never coming: an empty queue
    /// *is* the timeout, reported immediately with zero wall-clock
    /// involvement. This is what keeps chaos + retry schedules over the
    /// channel backend fully deterministic.
    fn recv_timeout(&mut self, _timeout: std::time::Duration) -> Result<Frame, NetError> {
        match self.near.try_recv()? {
            Some(frame) => Ok(frame),
            None => Err(NetError::Timeout),
        }
    }
}

/// One session per fleet client, for a caller that runs them in turn on
/// its own thread: they train in one model between them, which is one
/// model built and one resident however large the fleet.
///
/// # Errors
///
/// Returns [`FedError::InvalidConfig`] for an invalid config.
pub(crate) fn sessions<'a>(
    clients: &'a [Client],
    factory: &ModelFactory,
    config: &'a FedConfig,
    secure: Option<SecureConfig>,
) -> Result<Vec<ClientSession<'a>>, FedError> {
    let model = Rc::new(RefCell::new(factory(config.seed)));
    let session =
        |(me, client)| ClientSession::with_model(client, me, model.clone(), config, secure);
    clients.iter().enumerate().map(session).collect()
}

/// Builds one [`LocalLink`] per fleet client — the channel-backend
/// convenience used by the transport determinism tests and the
/// `--transport channel` bench path.
///
/// # Errors
///
/// Returns [`FedError::InvalidConfig`] for an invalid config.
pub fn local_links<'a>(
    clients: &'a [Client],
    factory: &ModelFactory,
    config: &'a FedConfig,
    secure: Option<SecureConfig>,
) -> Result<Vec<LocalLink<'a>>, FedError> {
    let sessions = sessions(clients, factory, config, secure)?;
    Ok(sessions.into_iter().map(LocalLink::new).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::run_method;
    use crate::methods::test_support::{clients, factory};
    use crate::{run_link_rounds, FaultPolicy, Method};

    #[test]
    fn channel_rounds_match_in_process_bitwise() {
        let clients = clients(3);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.eval_every = 1;
        let reference = run_method(Method::FedProx, &clients, &factory, &config).unwrap();
        let mut links = local_links(&clients, &factory, &config, None).unwrap();
        let wired = run_link_rounds(
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
        assert_eq!(wired, reference);
        assert!(links[0].stats.frames_sent > 0);
        assert!(links[0].stats.bytes_received > 0);
    }

    /// A session trains every slot in the one model it built, so what a
    /// slot leaves behind — BatchNorm running statistics, gradients,
    /// cached activations — must not reach the next: three deploys to one
    /// session of RouteNet at its paper widths (two rounds, then the
    /// second again, as a retry would send it) are answered with the
    /// bytes a fresh session per deploy sends, which are the harness's
    /// update for that `(round, client)`.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "twenty unoptimized paper-width RouteNet steps take half a minute; CI's release matrix runs it"
    )]
    fn a_session_answers_like_a_fresh_one_per_deploy_bytewise() {
        use crate::methods::Harness;
        use crate::ClientSet;
        use rte_nn::models::{RouteNet, RouteNetConfig};
        use rte_tensor::Tensor;

        let fleet: Vec<Client> = (0..2u64)
            .map(|k| {
                let mut rng = Xoshiro256::seed_from(40 + k);
                let mut set = |n: usize| {
                    let x = Tensor::from_fn(&[n, 6, 16, 16], |_| rng.uniform());
                    let y = Tensor::from_fn(&[n, 1, 16, 16], |_| f32::from(rng.bernoulli(0.2)));
                    ClientSet::new(x, y).unwrap()
                };
                Client::new(k as usize + 1, set(5), set(2))
            })
            .collect();
        let factory: ModelFactory = Box::new(|seed| {
            let mut rng = Xoshiro256::seed_from(seed);
            Box::new(RouteNet::new(RouteNetConfig::new(6), &mut rng))
        });
        let mut config = FedConfig::tiny();
        (config.batch_size, config.parallelism) = (4, crate::Parallelism::serial());
        let (me, steps) = (1usize, 2usize);
        let reply_bytes = |session: &mut ClientSession, round: u64, state: &StateDict| {
            let deploy = Message::Deploy {
                round,
                steps: steps as u64,
                participants: vec![0, 1],
                state: state.clone(),
            };
            let reply = session.handle(deploy).unwrap().expect("an update");
            reply
                .into_frame(session.sender_id(), 0)
                .unwrap()
                .encode()
                .unwrap()
        };

        let first = rte_nn::state_dict(factory(config.seed).as_mut());
        let mut session = ClientSession::new(&fleet, me, &factory, &config, None).unwrap();
        let (second, _) = session.train_slot(1, steps, &first).unwrap();
        let harness = Harness::new(&fleet, &factory, &config).unwrap();
        for (round, start) in [(1, &first), (2, &second), (2, &second)] {
            let got = reply_bytes(&mut session, round, start);
            let mut fresh = ClientSession::new(&fleet, me, &factory, &config, None).unwrap();
            assert_eq!(got, reply_bytes(&mut fresh, round, start), "round {round}");
            let job = TrainJob {
                client: me,
                start,
                reference: Some(start),
            };
            let mut trained = None;
            harness
                .train_clients(&[job], round as usize, steps, |u| trained = Some(u))
                .unwrap();
            let update = trained.expect("one job, one update");
            let from_harness = Message::Update {
                round,
                client: me as u32,
                loss: update.loss,
                state: update.state,
            };
            let want = from_harness.into_frame(session.sender_id(), 0).unwrap();
            assert_eq!(got, want.encode().unwrap(), "round {round} vs harness");
        }
    }

    #[test]
    fn secure_rounds_complete_and_learn_nothing_individually() {
        let clients = clients(3);
        let factory = factory();
        let config = FedConfig::tiny();
        let secure = Some(SecureConfig::default());
        let mut links = local_links(&clients, &factory, &config, secure).unwrap();
        let outcome = run_link_rounds(
            &clients,
            &factory,
            &config,
            &mut links,
            secure,
            &FaultPolicy::default(),
            None,
            None,
        )
        .unwrap()
        .outcome;
        assert_eq!(outcome.per_client_auc.len(), 3);
        assert!(outcome.average_auc.is_finite());
    }

    #[test]
    fn link_count_mismatch_is_rejected() {
        let clients = clients(2);
        let factory = factory();
        let config = FedConfig::tiny();
        let mut links = local_links(&clients[..1], &factory, &config, None).unwrap();
        assert!(run_link_rounds(
            &clients,
            &factory,
            &config,
            &mut links,
            None,
            &FaultPolicy::default(),
            None,
            None
        )
        .is_err());
    }
}
