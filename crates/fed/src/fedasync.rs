//! Buffered asynchronous federated rounds: one loop on two clocks.
//!
//! Synchronous FedProx waits for the slowest participant each round; an
//! asynchronous coordinator instead aggregates whenever a *buffer* of
//! `B` updates has arrived (FedBuff-style), weighting each arrival down
//! by its staleness `s` — the number of aggregations applied since the
//! client was dispatched — as `n_k · (1 + s)^{-decay}`, then mixing the
//! buffered mean into the global model with weight `mix` (FedAsync's
//! `η`).
//!
//! One private loop drives both entries: dispatch every client, take
//! the next arrival, offer it to the buffer, redispatch its client. The
//! arrivals come from one of two sources. [`run_fedasync`] is
//! determinism rule 8's pinned mode, a **seeded virtual clock**: client
//! latencies, dropout draws and rejoin times come from a [`SplitMix64`]
//! stream seeded by [`AsyncConfig::seed`], events replay through an
//! [`EventQueue`] ordered by `(tick, lane, seq)`, and each dispatch is
//! one deploy-and-collect over the round engine's link exchange under
//! the caller's [`FaultPolicy`] — so the arrival order, staleness values
//! and every aggregate are byte-identical across runs, thread counts and
//! machines (`tests/fedasync_replay.rs`), and replay bit for bit under
//! seeded chaos (`tests/chaos_determinism.rs`). A dispatch the links
//! still miss after the policy's last attempt takes the dropout path:
//! its client rejoins `rejoin_delay` ticks later. [`run_fedasync_wall`]
//! is the documented opt-out: true wall-clock arrival order from a
//! [`FanIn`], *not* reproducible, checked only to run to a table.

use rte_net::{EventQueue, FanIn, SplitMix64, Transport, VirtualClock, WallClock};
use rte_nn::StateDict;

use crate::engine::{Links, Plain, Stage};
use crate::methods::{ClientUpdate, Harness, LossMean, MethodOutcome};
use crate::params::aggregate;
use crate::resilient::{FaultPolicy, ResilientOutcome};
use crate::wire::{net_err, Message};
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
        let reason = if self.aggregations == 0 || self.buffer == 0 {
            "aggregations and buffer must be positive".to_string()
        } else if self.buffer > n_clients {
            let buffer = self.buffer;
            format!("buffer {buffer} exceeds fleet size {n_clients} (would deadlock)")
        } else if !(0.0..1.0).contains(&self.dropout) {
            format!("dropout {} outside [0, 1)", self.dropout)
        } else if !(self.mix > 0.0 && self.mix <= 1.0) {
            format!("mix {} outside (0, 1]", self.mix)
        } else if !(0.0..).contains(&self.staleness_decay) {
            format!("staleness decay {} is not >= 0", self.staleness_decay)
        } else if self.max_latency == 0 {
            "max_latency must be at least one tick".to_string()
        } else {
            return Ok(());
        };
        Err(FedError::InvalidConfig { reason })
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

/// The staleness-weighted buffered aggregation core.
struct Buffered<'h, 'a> {
    harness: &'h Harness<'a>,
    cfg: &'h AsyncConfig,
    global: StateDict,
    version: usize,
    /// The version each client's latest dispatch started from.
    dispatched: Vec<usize>,
    buffer: Vec<ClientUpdate>,
    weights: Vec<f64>,
    arrivals: Vec<(usize, u64)>,
    records: Vec<AsyncRoundRecord>,
}

impl Buffered<'_, '_> {
    fn done(&self) -> bool {
        self.version >= self.cfg.aggregations
    }

    /// Accepts one arrival; when the buffer fills, applies the buffered
    /// aggregation and records it. Returns the arrival's client.
    fn offer(&mut self, update: ClientUpdate, tick: u64) -> Result<usize, FedError> {
        let client = update.client;
        let staleness = (self.version - self.dispatched[client]) as u64;
        self.weights.push(
            self.harness.clients[client].weight() as f64
                * (1.0 + staleness as f64).powf(-self.cfg.staleness_decay),
        );
        self.arrivals.push((client, staleness));
        self.buffer.push(update);
        if self.buffer.len() < self.cfg.buffer {
            return Ok(client);
        }
        let refs: Vec<(&StateDict, f64)> = self
            .buffer
            .iter()
            .map(|u| &u.state)
            .zip(self.weights.drain(..))
            .collect();
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
            || (self.cfg.eval_every > 0 && self.version.is_multiple_of(self.cfg.eval_every));
        let average_auc = if record_point {
            crate::eval::mean_auc(&self.harness.eval_global(&self.global)?)
        } else {
            f64::NAN
        };
        let mut loss = LossMean::default();
        self.buffer.iter().for_each(|u| loss.add(u.loss));
        self.records.push(AsyncRoundRecord {
            aggregation: self.version,
            tick,
            arrivals: std::mem::take(&mut self.arrivals),
            average_auc,
            mean_train_loss: loss.mean(),
        });
        self.buffer.clear();
        Ok(client)
    }
}

/// What becomes of one dispatch, at the tick it pops.
enum Event {
    /// A client's trained update lands.
    Arrival(ClientUpdate),
    /// A client that dropped out, or whose dispatch was missed, comes
    /// back online and can be redispatched.
    Rejoin(usize),
}

/// Where the loop's arrivals come from: the seeded virtual clock
/// ([`Virtual`]) or real arrival order ([`Wall`]).
trait Arrivals<T> {
    /// Dispatches `global` to `client` over `links`.
    fn dispatch(
        &mut self,
        links: &mut Links<'_, T>,
        client: usize,
        global: &StateDict,
    ) -> Result<(), FedError>;

    /// The next event and its tick (virtual ticks or wall milliseconds).
    fn next(&mut self) -> Result<(u64, Event), FedError>;
}

/// Determinism rule 8's source: each dispatch draws a latency and a
/// dropout from the seeded schedule stream and, unless it dropped out,
/// is one deploy-and-collect over the links; the update lands `latency`
/// ticks later. A dropout — or a dispatch still missed after the fault
/// policy's last attempt — rejoins `rejoin_delay` ticks after that.
struct Virtual<'c> {
    cfg: &'c AsyncConfig,
    rng: SplitMix64,
    queue: EventQueue<Event>,
    clock: VirtualClock,
    dispatches: u64,
    /// Whether each client's latest dispatch was missed on its link.
    missed: Vec<bool>,
}

impl<T: Transport> Arrivals<T> for Virtual<'_> {
    fn dispatch(
        &mut self,
        links: &mut Links<'_, T>,
        client: usize,
        global: &StateDict,
    ) -> Result<(), FedError> {
        let lands = self.clock.now() + self.rng.next_range(1, self.cfg.max_latency);
        let dropped = self.cfg.dropout > 0.0 && self.rng.bernoulli(self.cfg.dropout);
        let mut update = None;
        if !dropped {
            let id = self.dispatches;
            self.dispatches += 1;
            let (mut deploy, failure) = links.dispatch(id, client, global);
            update = links.collect::<Plain>(id as usize, client, &mut deploy, failure)?;
            self.missed[client] = update.is_none();
            if self.missed.iter().all(|&m| m) {
                return Err(FedError::QuorumLost {
                    round: id as usize,
                    got: 0,
                    need: 1,
                });
            }
        }
        let (tick, event) = match update {
            Some(update) => (lands, Event::Arrival(update)),
            None => (lands + self.cfg.rejoin_delay, Event::Rejoin(client)),
        };
        self.queue.push(tick, client as u64, event);
        Ok(())
    }

    fn next(&mut self) -> Result<(u64, Event), FedError> {
        let (tick, _, event) = self.queue.pop().ok_or_else(|| FedError::InvalidConfig {
            reason: "async schedule starved: every client is offline \
                     and none will rejoin"
                .into(),
        })?;
        self.clock.advance_to(tick);
        Ok((tick, event))
    }
}

/// The documented opt-out's source: deploys go out on write-only links
/// and updates are taken in the order a [`FanIn`] delivers them, stamped
/// with [`WallClock`] milliseconds. Real clients are as slow as they
/// really are, so there is no latency or dropout draw.
struct Wall<'f> {
    fan: &'f mut FanIn,
    clock: WallClock,
    dispatches: u64,
}

impl<T: Transport> Arrivals<T> for Wall<'_> {
    fn dispatch(
        &mut self,
        links: &mut Links<'_, T>,
        client: usize,
        global: &StateDict,
    ) -> Result<(), FedError> {
        let (_, failure) = links.dispatch(self.dispatches, client, global);
        self.dispatches += 1;
        match failure {
            Some(reason) => Err(FedError::Transport {
                reason: format!("deploy to client {client}: {reason}"),
            }),
            None => Ok(()),
        }
    }

    fn next(&mut self) -> Result<(u64, Event), FedError> {
        let (index, frame) = self.fan.recv_any().map_err(net_err)?;
        match Plain::parse(Message::from_frame(&frame)?) {
            Ok((_, client, loss, state)) if client as usize == index => {
                let update = ClientUpdate {
                    client: index,
                    state,
                    loss,
                };
                Ok((self.clock.elapsed_ms(), Event::Arrival(update)))
            }
            _ => Err(FedError::Transport {
                reason: format!("link {index} sent other than its client's update"),
            }),
        }
    }
}

/// The one buffered-async loop, on either clock: dispatch every client,
/// then take the next arrival, offer it to the buffer and redispatch
/// its client; after the last aggregation, shut the clients down and
/// evaluate the global state.
fn drive<T: Transport>(
    clients: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
    cfg: &AsyncConfig,
    mut links: Links<'_, T>,
    arrivals: &mut impl Arrivals<T>,
) -> Result<(ResilientOutcome, Vec<AsyncRoundRecord>), FedError> {
    cfg.validate(clients.len())?;
    let mut harness = Harness::new(clients, factory, config)?;
    let mut state = Buffered {
        global: harness.initial_state(),
        harness: &harness,
        cfg,
        version: 0,
        dispatched: vec![0; clients.len()],
        buffer: Vec::new(),
        weights: Vec::new(),
        arrivals: Vec::new(),
        records: Vec::new(),
    };
    for client in 0..clients.len() {
        arrivals.dispatch(&mut links, client, &state.global)?;
    }
    while !state.done() {
        let (tick, event) = arrivals.next()?;
        let client = match event {
            Event::Arrival(update) => state.offer(update, tick)?,
            Event::Rejoin(client) => client,
        };
        if !state.done() {
            state.dispatched[client] = state.version;
            arrivals.dispatch(&mut links, client, &state.global)?;
        }
    }
    let (events, retries) = links.shutdown();
    let outcome = ResilientOutcome {
        outcome: MethodOutcome::new(
            Method::FedProx,
            harness.eval_global(&state.global)?,
            Vec::new(),
        ),
        events,
        retries,
        completed_rounds: cfg.aggregations,
    };
    Ok((outcome, state.records))
}

/// Runs the buffered async schedule on the seeded virtual clock
/// (determinism rule 8's pinned mode) over `links`, where `links[k]`
/// speaks to fleet client `k`, returning the outcome with its fault log
/// and the per-aggregation records.
///
/// Every client is dispatched at tick 0 and redispatched as soon as its
/// update arrives, or after `rejoin_delay` when a dropout draw eats the
/// dispatch or the link misses it. Each dispatch is one deploy-and-
/// collect under `policy` — deadline, seeded retries, stale-frame drain
/// — whose faults are logged as [`crate::RoundEvent`]s keyed by the
/// dispatch id. So over `local_links` the trace is byte-identical at
/// every thread count, and under seeded chaos it replays bit for bit.
///
/// # Errors
///
/// Returns [`FedError::InvalidConfig`] for an invalid schedule or a
/// link/fleet size mismatch, [`FedError::QuorumLost`] when every
/// client's latest dispatch was missed, or any training/transport
/// failure.
pub fn run_fedasync<T: Transport>(
    clients: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
    async_cfg: &AsyncConfig,
    links: &mut [T],
    policy: &FaultPolicy,
) -> Result<(ResilientOutcome, Vec<AsyncRoundRecord>), FedError> {
    let links = Links::new(links, clients.len(), policy, config.local_steps, 0)?;
    let mut arrivals = Virtual {
        cfg: async_cfg,
        rng: SplitMix64::new(async_cfg.seed),
        queue: EventQueue::new(),
        clock: VirtualClock::new(),
        dispatches: 0,
        missed: vec![false; clients.len()],
    };
    drive(clients, factory, config, async_cfg, links, &mut arrivals)
}

/// The documented **non-deterministic** opt-out: the same loop driven
/// by true wall-clock arrival order from a [`FanIn`].
///
/// `send_links[k]` must be the write side of the connection whose read
/// side went into `fan` at index `k`. Dropout/rejoin simulation and the
/// fault policy are virtual-clock features and do not apply here. Record
/// `tick`s are wall milliseconds. Nothing about this mode is
/// reproducible; CI and one release-gated test only check that it runs
/// to a table.
///
/// # Errors
///
/// Returns [`FedError::InvalidConfig`] for an invalid schedule or a
/// link/fleet size mismatch, or any training/transport failure.
pub fn run_fedasync_wall<S: Transport>(
    clients: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
    async_cfg: &AsyncConfig,
    send_links: &mut [S],
    fan: &mut FanIn,
) -> Result<(ResilientOutcome, Vec<AsyncRoundRecord>), FedError> {
    if fan.links() != clients.len() {
        return Err(FedError::InvalidConfig {
            reason: format!("{} fan links for {} clients", fan.links(), clients.len()),
        });
    }
    // Never consulted: the wall source only sends on these links.
    let policy = FaultPolicy::default();
    let links = Links::new(send_links, clients.len(), &policy, config.local_steps, 0)?;
    let mut arrivals = Wall {
        fan,
        clock: WallClock::new(),
        dispatches: 0,
    };
    drive(clients, factory, config, async_cfg, links, &mut arrivals)
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
    use crate::RoundEvent;
    use rte_net::{ChaosConfig, ChaosTransport, RetryPolicy};

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
            let mut links = local_links(&clients, &factory, &config, None).unwrap();
            let policy = FaultPolicy::default();
            run_fedasync(&clients, &factory, &config, &cfg, &mut links, &policy).unwrap()
        };
        let (a, ra) = run();
        let (b, rb) = run();
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        assert!(a.events.is_empty());
        assert_eq!(ra.len(), 3);
        assert!(ra.iter().all(|r| r.arrivals.len() == 2));
    }

    /// A dispatch missed after its last attempt takes the dropout path:
    /// with client 1's link dead, the run completes without it, and
    /// every one of its dispatches is a typed miss.
    #[test]
    fn a_missed_dispatch_rejoins_like_a_dropout() {
        let clients = clients(3);
        let factory = factory();
        let config = FedConfig::tiny();
        let mut links: Vec<_> = local_links(&clients, &factory, &config, None)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(lane, link)| {
                let chaos = ChaosConfig {
                    seed: 3,
                    drop_p: if lane == 1 { 1.0 } else { 0.0 },
                    ..ChaosConfig::default()
                };
                ChaosTransport::new(link, chaos, lane as u64).unwrap()
            })
            .collect();
        let policy = FaultPolicy {
            retry: RetryPolicy::immediate(2),
            ..FaultPolicy::default()
        };
        let (run, records) = run_fedasync(
            &clients,
            &factory,
            &config,
            &async_cfg(),
            &mut links,
            &policy,
        )
        .unwrap();
        assert_eq!(records.len(), 3);
        assert!(records
            .iter()
            .flat_map(|r| &r.arrivals)
            .all(|&(c, _)| c != 1));
        let missed = |e: &&RoundEvent| matches!(e, RoundEvent::Missed { client: 1, .. });
        assert!(
            run.events.iter().filter(missed).count() > 1,
            "{:?}",
            run.events
        );
        assert_eq!(
            run.retries as usize,
            run.events.iter().filter(missed).count()
        );
    }

    /// A peer that accepts a deploy and then never answers.
    struct Silent;

    impl Transport for Silent {
        fn send(&mut self, _frame: &rte_net::Frame) -> Result<(), rte_net::NetError> {
            Ok(())
        }

        fn recv(&mut self) -> Result<rte_net::Frame, rte_net::NetError> {
            panic!("the async driver blocked on an unbounded read");
        }

        fn recv_timeout(
            &mut self,
            _timeout: std::time::Duration,
        ) -> Result<rte_net::Frame, rte_net::NetError> {
            Err(rte_net::NetError::Timeout)
        }
    }

    #[test]
    fn silent_peers_end_the_run_typed_instead_of_wedging() {
        let clients = clients(2);
        let factory = factory();
        let config = FedConfig::tiny();
        let policy = FaultPolicy {
            retry: RetryPolicy::immediate(2),
            ..FaultPolicy::default()
        };
        let cfg = AsyncConfig::new(2, 1);
        let err = run_fedasync(
            &clients,
            &factory,
            &config,
            &cfg,
            &mut [Silent, Silent],
            &policy,
        )
        .unwrap_err();
        assert!(matches!(err, FedError::QuorumLost { got: 0, .. }), "{err}");
    }

    #[test]
    fn oversized_buffer_is_rejected() {
        let clients = clients(2);
        let factory = factory();
        let config = FedConfig::tiny();
        let cfg = AsyncConfig::new(2, 5);
        let mut links = local_links(&clients, &factory, &config, None).unwrap();
        let policy = FaultPolicy::default();
        let err = run_fedasync(&clients, &factory, &config, &cfg, &mut links, &policy).unwrap_err();
        assert!(matches!(err, FedError::InvalidConfig { .. }), "{err}");
    }

    /// `decay < 0.0` is false for NaN, which would make every arrival
    /// weight NaN.
    #[test]
    fn nan_staleness_decay_is_rejected() {
        let cfg = AsyncConfig {
            staleness_decay: f64::NAN,
            ..AsyncConfig::new(2, 1)
        };
        assert!(matches!(
            cfg.validate(2),
            Err(FedError::InvalidConfig { .. })
        ));
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
