//! Buffered asynchronous federated rounds on a seeded virtual clock.
//!
//! Synchronous FedProx waits for the slowest participant each round; an
//! asynchronous coordinator instead aggregates whenever a *buffer* of
//! `B` updates has arrived (FedBuff-style), weighting each arrival down
//! by its staleness `s` — the number of aggregations applied since the
//! client was dispatched — as `n_k · (1 + s)^{-decay}`, then mixing the
//! buffered mean into the global model with weight `mix` (FedAsync's
//! `η`).
//!
//! Determinism contract rule 8: async outcomes are pinned by running
//! the schedule on a **seeded virtual clock**. Client latencies,
//! dropout draws, and rejoin times come from a [`SplitMix64`] stream
//! seeded by [`AsyncConfig::seed`], and events replay through an
//! [`EventQueue`] ordered by `(tick, lane, seq)` — so the arrival
//! order, staleness values, and every aggregate are byte-identical
//! across runs, thread counts, and machines
//! (`tests/fedasync_replay.rs` pins this). The documented opt-out is
//! [`run_fedasync_wall`], which takes true wall-clock arrival order
//! from a [`rte_net::FanIn`] and is *not* reproducible — CI never runs
//! it beyond a smoke check.

use rte_net::{EventQueue, SplitMix64, Transport, VirtualClock, WallClock};
use rte_nn::StateDict;

use crate::engine::COLLECT_DEADLINE;
use crate::federation::{sessions, ClientSession, COORDINATOR};
use crate::methods::{Harness, MethodOutcome};
use crate::params::aggregate;
use crate::wire::{deploy_frame, net_err, recv_message_within, send_message, Message};
use crate::{Aggregation, Client, FedConfig, FedError, Method, ModelFactory};

/// Hyper-parameters of the asynchronous schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncConfig {
    /// Number of buffered aggregations to apply (the async analogue of
    /// `FedConfig::rounds`).
    pub aggregations: usize,
    /// Buffer size `B`: aggregate whenever this many updates arrived.
    pub buffer: usize,
    /// Server mixing weight `η ∈ (0, 1]`: how far the global model moves
    /// towards each buffered mean (1.0 = replace).
    pub mix: f64,
    /// Staleness discount exponent: arrival weight is
    /// `n_k · (1 + staleness)^{-staleness_decay}`.
    pub staleness_decay: f64,
    /// Per-dispatch probability that a client drops out mid-training and
    /// its update never arrives, in `[0, 1)`.
    pub dropout: f64,
    /// Virtual ticks a dropped client stays offline before rejoining.
    pub rejoin_delay: u64,
    /// Training latencies are drawn uniformly from `[1, max_latency]`
    /// virtual ticks — the straggler spread.
    pub max_latency: u64,
    /// Seed for the latency/dropout trace (independent of the training
    /// seed, so the same fleet can replay different schedules).
    pub seed: u64,
    /// Evaluate and record every this many aggregations (0 = final
    /// only; the last aggregation is always recorded).
    pub eval_every: usize,
}

impl AsyncConfig {
    /// A small default schedule: moderate buffering, mild staleness
    /// discount, visible straggler spread, no dropout.
    pub fn new(aggregations: usize, buffer: usize) -> Self {
        AsyncConfig {
            aggregations,
            buffer,
            mix: 0.5,
            staleness_decay: 0.5,
            dropout: 0.0,
            rejoin_delay: 8,
            max_latency: 10,
            seed: 0xA57C_10C4,
            eval_every: 0,
        }
    }

    /// Validates the schedule against a fleet size.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] for an empty schedule, a
    /// buffer larger than the fleet, or out-of-range rates.
    pub fn validate(&self, n_clients: usize) -> Result<(), FedError> {
        if self.aggregations == 0 || self.buffer == 0 {
            return Err(FedError::InvalidConfig {
                reason: "aggregations and buffer must be positive".into(),
            });
        }
        if self.buffer > n_clients {
            return Err(FedError::InvalidConfig {
                reason: format!(
                    "buffer {} exceeds fleet size {n_clients} (would deadlock)",
                    self.buffer
                ),
            });
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(FedError::InvalidConfig {
                reason: format!("dropout {} outside [0, 1)", self.dropout),
            });
        }
        if !(self.mix > 0.0 && self.mix <= 1.0) {
            return Err(FedError::InvalidConfig {
                reason: format!("mix {} outside (0, 1]", self.mix),
            });
        }
        if self.staleness_decay < 0.0 {
            return Err(FedError::InvalidConfig {
                reason: format!("negative staleness decay {}", self.staleness_decay),
            });
        }
        if self.max_latency == 0 {
            return Err(FedError::InvalidConfig {
                reason: "max_latency must be at least one tick".into(),
            });
        }
        Ok(())
    }
}

/// One applied buffered aggregation (the async analogue of
/// [`crate::methods::RoundRecord`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncRoundRecord {
    /// 1-based index of this aggregation.
    pub aggregation: usize,
    /// Virtual tick (or wall milliseconds in the opt-out) at which the
    /// buffer filled.
    pub tick: u64,
    /// The buffered arrivals as `(client, staleness)`, in arrival order.
    pub arrivals: Vec<(usize, u64)>,
    /// Mean ROC AUC of the post-aggregation global model over all
    /// clients (`NAN` when this aggregation was not an eval point —
    /// compare through [`crate::fedasync::render_async_history`] or the
    /// `arrivals`/`tick` fields, not through float equality on this).
    pub average_auc: f64,
    /// Mean training loss reported by the buffered arrivals.
    pub mean_train_loss: f64,
}

/// Produces one `(client, dispatch)` update — the training half of an
/// async slot. Implemented in-process ([`LocalExecutor`]) and over
/// transport links ([`LinkExecutor`]); both compute the identical slot,
/// which is what lets the replay test pin one against the other.
pub trait TrainExecutor {
    /// Trains `client` from `start` for `steps`, where `dispatch` is the
    /// globally unique dispatch id feeding the per-slot RNG stream.
    ///
    /// # Errors
    ///
    /// Returns any training or transport failure.
    fn train(
        &mut self,
        client: usize,
        dispatch: u64,
        start: &StateDict,
        steps: usize,
    ) -> Result<(StateDict, f32), FedError>;

    /// Releases the executor's clients once the schedule completes —
    /// transport-backed executors send each link a shutdown so remote
    /// serve loops exit cleanly instead of dying on a closed socket.
    /// The in-process default is a no-op.
    ///
    /// # Errors
    ///
    /// Returns any transport failure.
    fn shutdown(&mut self) -> Result<(), FedError> {
        Ok(())
    }
}

/// In-process executor: one [`ClientSession`] per fleet client, trained
/// on the coordinator thread in event order.
pub struct LocalExecutor<'a> {
    sessions: Vec<ClientSession<'a>>,
}

impl<'a> LocalExecutor<'a> {
    /// Builds one session per fleet client.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] for an invalid config.
    pub fn new(
        clients: &'a [Client],
        factory: &'a ModelFactory,
        config: &'a FedConfig,
    ) -> Result<Self, FedError> {
        let sessions = sessions(clients, factory, config, None)?;
        Ok(LocalExecutor { sessions })
    }
}

impl TrainExecutor for LocalExecutor<'_> {
    fn train(
        &mut self,
        client: usize,
        dispatch: u64,
        start: &StateDict,
        steps: usize,
    ) -> Result<(StateDict, f32), FedError> {
        self.sessions[client].train_slot(dispatch, steps, start)
    }
}

/// Transport-backed executor: each slot is a synchronous deploy/update
/// exchange on the client's link, with the dispatch id carried in the
/// deploy's `round` field.
pub struct LinkExecutor<'a, T: Transport> {
    links: &'a mut [T],
    seq: u64,
}

impl<'a, T: Transport> LinkExecutor<'a, T> {
    /// Wraps `links`, where `links[k]` speaks to fleet client `k`.
    pub fn new(links: &'a mut [T]) -> Self {
        LinkExecutor { links, seq: 0 }
    }
}

impl<T: Transport> TrainExecutor for LinkExecutor<'_, T> {
    fn train(
        &mut self,
        client: usize,
        dispatch: u64,
        start: &StateDict,
        steps: usize,
    ) -> Result<(StateDict, f32), FedError> {
        let seq = self.seq;
        self.seq += 1;
        let deploy = deploy_frame(dispatch, steps as u64, &[], start, COORDINATOR, seq);
        self.links[client].send(&deploy).map_err(net_err)?;
        let (_, message) = recv_message_within(&mut self.links[client], COLLECT_DEADLINE)?;
        match message {
            Message::Update {
                round,
                client: got,
                loss,
                state,
            } => {
                if round != dispatch || got != client as u32 {
                    return Err(FedError::Transport {
                        reason: format!(
                            "expected dispatch {dispatch} update from client {client}, \
                             got dispatch {round} from client {got}"
                        ),
                    });
                }
                Ok((state, loss))
            }
            other => Err(FedError::Transport {
                reason: format!("expected async update, got kind {}", other.kind()),
            }),
        }
    }

    fn shutdown(&mut self) -> Result<(), FedError> {
        for link in self.links.iter_mut() {
            let seq = self.seq;
            self.seq += 1;
            send_message(link, Message::Shutdown, COORDINATOR, seq)?;
        }
        Ok(())
    }
}

/// The staleness-weighted buffered aggregation core, shared by the
/// virtual-clock and wall-clock drivers so the opt-out cannot drift
/// from the pinned semantics.
struct Buffered<'h, 'a> {
    harness: &'h Harness<'a>,
    cfg: AsyncConfig,
    global: StateDict,
    version: usize,
    buffer: Vec<(StateDict, f64, usize, u64, f32)>,
    records: Vec<AsyncRoundRecord>,
}

impl<'h, 'a> Buffered<'h, 'a> {
    fn new(harness: &'h Harness<'a>, cfg: AsyncConfig, global: StateDict) -> Self {
        Buffered {
            harness,
            cfg,
            global,
            version: 0,
            buffer: Vec::new(),
            records: Vec::new(),
        }
    }

    fn done(&self) -> bool {
        self.version >= self.cfg.aggregations
    }

    /// Accepts one arrival; when the buffer fills, applies the buffered
    /// aggregation and records it.
    fn offer(
        &mut self,
        client: usize,
        dispatched_version: usize,
        state: StateDict,
        loss: f32,
        tick: u64,
    ) -> Result<(), FedError> {
        let staleness = (self.version - dispatched_version) as u64;
        let weight = self.harness.clients[client].weight() as f64
            * (1.0 + staleness as f64).powf(-self.cfg.staleness_decay);
        self.buffer.push((state, weight, client, staleness, loss));
        if self.buffer.len() < self.cfg.buffer {
            return Ok(());
        }
        let refs: Vec<(&StateDict, f64)> =
            self.buffer.iter().map(|(s, w, _, _, _)| (s, *w)).collect();
        let mean = aggregate(&refs, Aggregation::WeightedMean)?;
        // Server mixing in f64: g ← (1 − η)·g + η·mean, coordinate-wise
        // on the coordinator thread (determinism rule 6).
        let mix = self.cfg.mix;
        for ((_, g), (_, m)) in self.global.iter_mut().zip(&mean) {
            for (gv, mv) in g.data_mut().iter_mut().zip(m.data()) {
                *gv = ((1.0 - mix) * (*gv as f64) + mix * (*mv as f64)) as f32;
            }
        }
        self.version += 1;
        let record_point = self.version == self.cfg.aggregations
            || (self.cfg.eval_every > 0 && self.version % self.cfg.eval_every == 0);
        let average_auc = if record_point {
            let reports = self.harness.eval_global(&self.global)?;
            crate::eval::mean_auc(&reports)
        } else {
            f64::NAN
        };
        let mean_train_loss = self
            .buffer
            .iter()
            .map(|(_, _, _, _, l)| *l as f64)
            .sum::<f64>()
            / self.buffer.len() as f64;
        self.records.push(AsyncRoundRecord {
            aggregation: self.version,
            tick,
            arrivals: self.buffer.iter().map(|(_, _, c, s, _)| (*c, *s)).collect(),
            average_auc,
            mean_train_loss,
        });
        self.buffer.clear();
        Ok(())
    }
}

/// One pending virtual-clock event.
enum Event {
    /// A client's trained update lands.
    Arrival {
        client: usize,
        dispatched_version: usize,
        state: StateDict,
        loss: f32,
    },
    /// A dropped client comes back online and can be redispatched.
    Rejoin { client: usize },
}

/// Runs the buffered async schedule on the seeded virtual clock
/// (determinism rule 8's pinned mode), returning the final outcome and
/// the per-aggregation records.
///
/// Every client is dispatched at tick 0 and redispatched as soon as its
/// update arrives (or after `rejoin_delay` when a dropout draw eats the
/// update). Training executes in event order through `executor`, so
/// in-process and over-the-wire runs produce byte-identical traces.
///
/// # Errors
///
/// Returns [`FedError::InvalidConfig`] for an invalid schedule, or any
/// training/transport failure.
pub fn run_fedasync<E: TrainExecutor>(
    clients: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
    async_cfg: &AsyncConfig,
    executor: &mut E,
) -> Result<(MethodOutcome, Vec<AsyncRoundRecord>), FedError> {
    async_cfg.validate(clients.len())?;
    let mut harness = Harness::new(clients, factory, config)?;
    let global = harness.initial_state();
    let mut state = Buffered::new(&harness, async_cfg.clone(), global);
    let mut schedule_rng = SplitMix64::new(async_cfg.seed);
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut clock = VirtualClock::new();
    let mut dispatches: u64 = 0;

    let dispatch = |client: usize,
                    now: u64,
                    version: usize,
                    global: &StateDict,
                    rng: &mut SplitMix64,
                    queue: &mut EventQueue<Event>,
                    dispatches: &mut u64,
                    executor: &mut E|
     -> Result<(), FedError> {
        let latency = rng.next_range(1, async_cfg.max_latency);
        let dropped = async_cfg.dropout > 0.0 && rng.bernoulli(async_cfg.dropout);
        if dropped {
            queue.push(
                now + latency + async_cfg.rejoin_delay,
                client as u64,
                Event::Rejoin { client },
            );
            return Ok(());
        }
        let id = *dispatches;
        *dispatches += 1;
        let (trained, loss) = executor.train(client, id, global, config.local_steps)?;
        queue.push(
            now + latency,
            client as u64,
            Event::Arrival {
                client,
                dispatched_version: version,
                state: trained,
                loss,
            },
        );
        Ok(())
    };

    for client in 0..clients.len() {
        dispatch(
            client,
            0,
            0,
            &state.global,
            &mut schedule_rng,
            &mut queue,
            &mut dispatches,
            executor,
        )?;
    }

    while !state.done() {
        let Some((tick, _, event)) = queue.pop() else {
            return Err(FedError::InvalidConfig {
                reason: "async schedule starved: every client is offline \
                         and none will rejoin"
                    .into(),
            });
        };
        clock.advance_to(tick);
        match event {
            Event::Arrival {
                client,
                dispatched_version,
                state: trained,
                loss,
            } => {
                state.offer(client, dispatched_version, trained, loss, tick)?;
                if !state.done() {
                    dispatch(
                        client,
                        tick,
                        state.version,
                        &state.global,
                        &mut schedule_rng,
                        &mut queue,
                        &mut dispatches,
                        executor,
                    )?;
                }
            }
            Event::Rejoin { client } => {
                dispatch(
                    client,
                    tick,
                    state.version,
                    &state.global,
                    &mut schedule_rng,
                    &mut queue,
                    &mut dispatches,
                    executor,
                )?;
            }
        }
    }

    executor.shutdown()?;
    let per_client = harness.eval_global(&state.global)?;
    let outcome = MethodOutcome::new(Method::FedProx, per_client, Vec::new());
    Ok((outcome, state.records))
}

/// The documented **non-deterministic** opt-out: buffered async driven
/// by true wall-clock arrival order from a [`rte_net::FanIn`].
///
/// `send_links[k]` must be the write side of the connection whose read
/// side went into `fan` at index `k`. Dropout/rejoin simulation is a
/// virtual-clock feature and does not apply here — real clients are as
/// slow as they really are. Record `tick`s are wall milliseconds.
/// Nothing about this mode is reproducible; CI only smoke-checks it.
///
/// # Errors
///
/// Returns [`FedError::InvalidConfig`] for an invalid schedule, or any
/// training/transport failure.
pub fn run_fedasync_wall<S: Transport>(
    clients: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
    async_cfg: &AsyncConfig,
    send_links: &mut [S],
    fan: &mut rte_net::FanIn,
) -> Result<(MethodOutcome, Vec<AsyncRoundRecord>), FedError> {
    async_cfg.validate(clients.len())?;
    if send_links.len() != clients.len() || fan.links() != clients.len() {
        return Err(FedError::InvalidConfig {
            reason: format!(
                "{} send links / {} fan links for {} clients",
                send_links.len(),
                fan.links(),
                clients.len()
            ),
        });
    }
    let mut harness = Harness::new(clients, factory, config)?;
    let global = harness.initial_state();
    let mut state = Buffered::new(&harness, async_cfg.clone(), global);
    let clock = WallClock::new();
    let mut seq = 0u64;
    let mut dispatched_at = vec![0usize; clients.len()];

    let deploy = |client: usize,
                  version: usize,
                  global: &StateDict,
                  seq: &mut u64,
                  dispatched_at: &mut [usize],
                  send_links: &mut [S]|
     -> Result<(), FedError> {
        dispatched_at[client] = version;
        let s = *seq;
        *seq += 1;
        let frame = deploy_frame(s, config.local_steps as u64, &[], global, COORDINATOR, s);
        send_links[client].send(&frame).map_err(net_err)
    };

    for client in 0..clients.len() {
        deploy(
            client,
            0,
            &state.global,
            &mut seq,
            &mut dispatched_at,
            send_links,
        )?;
    }
    while !state.done() {
        let (index, frame) = fan.recv_any().map_err(net_err)?;
        let message = Message::from_frame(&frame)?;
        let Message::Update {
            client,
            loss,
            state: trained,
            ..
        } = message
        else {
            return Err(FedError::Transport {
                reason: format!("expected async update, got kind {}", message.kind()),
            });
        };
        if client as usize != index {
            return Err(FedError::Transport {
                reason: format!("client {client} answered on link {index}"),
            });
        }
        let landed = clock.elapsed_ms();
        state.offer(index, dispatched_at[index], trained, loss, landed)?;
        if !state.done() {
            deploy(
                index,
                state.version,
                &state.global,
                &mut seq,
                &mut dispatched_at,
                send_links,
            )?;
        }
    }
    for link in send_links.iter_mut() {
        let _ = send_message(link, Message::Shutdown, COORDINATOR, seq);
        seq += 1;
    }
    let per_client = harness.eval_global(&state.global)?;
    let outcome = MethodOutcome::new(Method::FedProx, per_client, Vec::new());
    Ok((outcome, state.records))
}

/// Renders an async history as a fixed-format table (one line per
/// aggregation) — the byte string the replay test pins.
pub fn render_async_history(label: &str, records: &[AsyncRoundRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{label}\n"));
    out.push_str("agg   tick    loss     auc      arrivals (client:staleness)\n");
    for r in records {
        let arrivals = r
            .arrivals
            .iter()
            .map(|(c, s)| format!("{c}:{s}"))
            .collect::<Vec<_>>()
            .join(" ");
        let auc = if r.average_auc.is_nan() {
            "   -  ".to_string()
        } else {
            format!("{:<6.4}", r.average_auc)
        };
        out.push_str(&format!(
            "{:<5} {:<7} {:<8.4} {auc}   {arrivals}\n",
            r.aggregation, r.tick, r.mean_train_loss
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::local_links;
    use crate::methods::test_support::{clients, factory};

    fn async_cfg() -> AsyncConfig {
        AsyncConfig {
            aggregations: 3,
            buffer: 2,
            eval_every: 1,
            dropout: 0.2,
            ..AsyncConfig::new(3, 2)
        }
    }

    #[test]
    fn virtual_clock_schedule_is_reproducible() {
        let clients = clients(3);
        let factory = factory();
        let config = FedConfig::tiny();
        let cfg = async_cfg();
        let run = || {
            let mut exec = LocalExecutor::new(&clients, &factory, &config).unwrap();
            run_fedasync(&clients, &factory, &config, &cfg, &mut exec).unwrap()
        };
        let (a, ra) = run();
        let (b, rb) = run();
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        assert_eq!(ra.len(), 3);
        assert!(ra.iter().all(|r| r.arrivals.len() == 2));
    }

    #[test]
    fn link_executor_matches_local_executor_bitwise() {
        let clients = clients(3);
        let factory = factory();
        let config = FedConfig::tiny();
        let cfg = async_cfg();
        let mut local = LocalExecutor::new(&clients, &factory, &config).unwrap();
        let (a, ra) = run_fedasync(&clients, &factory, &config, &cfg, &mut local).unwrap();
        let mut links = local_links(&clients, &factory, &config, None).unwrap();
        let mut wired = LinkExecutor::new(&mut links);
        let (b, rb) = run_fedasync(&clients, &factory, &config, &cfg, &mut wired).unwrap();
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }

    /// A peer that accepts a deploy and then never answers.
    struct Silent;

    impl Transport for Silent {
        fn send(&mut self, _frame: &rte_net::Frame) -> Result<(), rte_net::NetError> {
            Ok(())
        }

        fn recv(&mut self) -> Result<rte_net::Frame, rte_net::NetError> {
            panic!("the link executor blocked on an unbounded read");
        }

        fn recv_timeout(
            &mut self,
            _timeout: std::time::Duration,
        ) -> Result<rte_net::Frame, rte_net::NetError> {
            Err(rte_net::NetError::Timeout)
        }
    }

    #[test]
    fn link_executor_times_out_on_a_silent_peer_instead_of_wedging() {
        let mut links = [Silent];
        let mut exec = LinkExecutor::new(&mut links);
        let err = exec.train(0, 0, &StateDict::new(), 1).unwrap_err();
        assert!(matches!(err, FedError::Transport { .. }), "{err}");
    }

    #[test]
    fn oversized_buffer_is_rejected() {
        let clients = clients(2);
        let factory = factory();
        let config = FedConfig::tiny();
        let cfg = AsyncConfig::new(2, 5);
        let mut exec = LocalExecutor::new(&clients, &factory, &config).unwrap();
        let err = run_fedasync(&clients, &factory, &config, &cfg, &mut exec).unwrap_err();
        assert!(matches!(err, FedError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn rendered_history_is_stable() {
        let records = vec![AsyncRoundRecord {
            aggregation: 1,
            tick: 7,
            arrivals: vec![(0, 0), (2, 1)],
            average_auc: 0.75,
            mean_train_loss: 0.5,
        }];
        let s = render_async_history("demo", &records);
        assert!(s.contains("demo\n"));
        assert!(s.contains("0:0 2:1"));
    }
}
