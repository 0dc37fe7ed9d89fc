//! `wire_channel_routenet`: the communication-dominated workload.
//!
//! Eight clients on the quick data profile, one local step per round,
//! RouteNet at paper scale (a 1.2 MB state dict), every client behind
//! an in-process link, the real `run_rounds_resilient` loop with a
//! round hook that writes a checkpoint after every round. Per
//! client-round there is one train step against two serialize and two
//! deserialize passes and four CRC passes over 1.2 MB, plus the
//! checkpoint stall — so a `net` / `nn::serialize` / `fed::wire` /
//! `fed::checkpoint` change shows here and a kernel win shows only by
//! its train share. One thread, no sockets: it repeats tightly.

use std::path::Path;

use decentralized_routability::core::{
    model_factory, transport_config_with_rounds, ExperimentConfig,
};
use decentralized_routability::eda::Family;
use decentralized_routability::fed::{
    config_digest, latest_checkpoint, local_links, read_checkpoint, run_rounds_resilient,
    write_checkpoint, Checkpoint, Client, ClientSession, FaultPolicy, FedConfig, FedError,
    MethodOutcome, ModelFactory, RoundHook,
};
use decentralized_routability::net::Transport;
use decentralized_routability::nn::models::{ModelKind, ModelScale};
use decentralized_routability::nn::StateDict;

use super::{
    build_fleet, clients_of, score_count, settle_seed, state_bits, totals_are, wire_totals,
    InProcessTable, IterCtx, Iteration, PhaseTimer, Workload,
};
use crate::wrap::{Seam, TracedLink};

const THREADS: usize = 1;
const CLIENTS: usize = 8;
/// Rounds of one local step each: sized so one iteration's run is
/// about a second.
const ROUNDS: usize = 4;
const KIND: ModelKind = ModelKind::RouteNet;
/// The fleet's size: the 32 designs of the quick profile split 22 to 10
/// on about half of all seeds (21 to 24 training samples on the rest).
const TRAIN_SAMPLES: usize = 22;
const TEST_SAMPLES: usize = 10;
/// … and its family mix, the likeliest one for eight clients (one seed
/// in fifty has both), so that set-up generates designs of the same
/// four size ranges on every seed.
const FAMILIES: [(Family, usize); 4] = [
    (Family::Iscas89, 3),
    (Family::Itc99, 3),
    (Family::Iwls05, 2),
    (Family::Ispd15, 0),
];

/// What the last round's hook saw, for the read-back check.
#[derive(Default)]
struct LastCheckpoint {
    round: u64,
    seq: u64,
    state_bits: u64,
    bytes: u64,
}

/// See the module docs.
pub struct WireChannelRoutenet {
    config: ExperimentConfig,
    rule7: InProcessTable,
}

impl WireChannelRoutenet {
    /// The workload for `seed`; `smoke` shrinks it to one round.
    ///
    /// # Errors
    ///
    /// See [`settle_seed`].
    pub fn new(seed: u64, smoke: bool) -> Result<Self, String> {
        let rounds = if smoke { 1 } else { ROUNDS };
        let mut config =
            transport_config_with_rounds(CLIENTS, seed, true, Some(rounds)).with_threads(THREADS);
        settle_seed(&mut config, seed, |fleet| {
            totals_are(fleet, TRAIN_SAMPLES, TEST_SAMPLES)
                && FAMILIES
                    .iter()
                    .all(|&(family, clients)| clients_of(fleet, family) == clients)
        })?;
        config.fed.local_steps = 1;
        config.model_scale = ModelScale::Paper;
        Ok(WireChannelRoutenet {
            config,
            rule7: InProcessTable::default(),
        })
    }
}

/// Runs the real resilient loop over `links` with a hook that writes a
/// checkpoint after every round.
fn run_rounds<T: Transport>(
    fed: &FedConfig,
    clients: &[Client],
    factory: &ModelFactory,
    links: &mut [T],
    ckpt_dir: &Path,
    seam: Option<&Seam<'_>>,
) -> Result<(MethodOutcome, LastCheckpoint), FedError> {
    let digest = config_digest(fed, clients);
    let rounds = fed.rounds;
    let mut last = LastCheckpoint::default();
    let mut hook = |round: usize, seq: u64, state: &StateDict| -> Result<(), FedError> {
        if let Some(seam) = seam {
            seam.hook_entered();
        }
        let path = {
            let _span = seam.map(|s| s.tracer().span("fed.checkpoint_write").round(round));
            let checkpoint = Checkpoint {
                round: round as u64,
                seq,
                digest,
                state: state.clone(),
            };
            write_checkpoint(ckpt_dir, &checkpoint).map_err(|e| FedError::Transport {
                reason: format!("checkpoint: {e}"),
            })?
        };
        if round == rounds {
            last = LastCheckpoint {
                round: round as u64,
                seq,
                state_bits: state_bits(state),
                bytes: std::fs::metadata(&path).map_or(0, |m| m.len()),
            };
        }
        if let Some(seam) = seam {
            seam.hook_done(round, rounds);
        }
        Ok(())
    };
    let hook: &mut RoundHook<'_> = &mut hook;
    let policy = FaultPolicy::default();
    let result = run_rounds_resilient(clients, factory, fed, links, &policy, None, Some(hook))?;
    if let Some(seam) = seam {
        seam.run_returned();
    }
    if result.retries > 0 || !result.events.is_empty() {
        return Err(FedError::Transport {
            reason: format!("faultless links reported {} events", result.events.len()),
        });
    }
    Ok((result.outcome, last))
}

impl Workload for WireChannelRoutenet {
    fn threads(&self) -> usize {
        THREADS
    }

    fn model(&self) -> (ModelKind, ModelScale) {
        (KIND, self.config.model_scale)
    }

    fn sizes(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("clients", CLIENTS as f64),
            ("train_samples", TRAIN_SAMPLES as f64),
            ("test_samples", TEST_SAMPLES as f64),
            ("settled_seed", self.config.corpus.seed as f64),
            ("rounds", self.config.fed.rounds as f64),
            ("local_steps", self.config.fed.local_steps as f64),
            ("placement_scale", self.config.corpus.placement_scale),
        ]
    }

    fn iterate(&mut self, ctx: &IterCtx<'_>) -> Result<Iteration, String> {
        let tracer = ctx.tracer.map(|t| t.as_ref());
        let ckpt_dir = ctx.scratch.join("checkpoints");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let fed = &self.config.fed;

        let mut timer = PhaseTimer::start(tracer)?;
        let clients = build_fleet(&self.config, tracer)?;
        let factory = model_factory(KIND, self.config.model_scale);
        let ((outcome, last), (frames, bytes), mut it) = match tracer {
            None => {
                let mut links =
                    local_links(&clients, &factory, fed, None).map_err(|e| e.to_string())?;
                timer.setup_done();
                let ran = run_rounds(fed, &clients, &factory, &mut links, &ckpt_dir, None)
                    .map_err(|e| e.to_string())?;
                (
                    ran,
                    wire_totals(links.iter().map(|l| l.stats)),
                    timer.finish()?,
                )
            }
            Some(tracer) => {
                let sessions = (0..clients.len())
                    .map(|me| ClientSession::new(&clients, me, &factory, fed, None))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                timer.setup_done();
                let seam = Seam::begin(tracer);
                let mut links: Vec<_> = sessions
                    .into_iter()
                    .enumerate()
                    .map(|(me, session)| TracedLink::new(session, me, &seam))
                    .collect();
                let ran = run_rounds(fed, &clients, &factory, &mut links, &ckpt_dir, Some(&seam))
                    .map_err(|e| e.to_string())?;
                (
                    ran,
                    wire_totals(links.iter().map(|l| l.stats)),
                    timer.finish()?,
                )
            }
        };

        self.rule7
            .check(KIND, &clients, &self.config, outcome, &mut it)?;
        // The newest checkpoint reads back as what the last hook saw.
        let digest = config_digest(fed, &clients);
        let read_back = match latest_checkpoint(&ckpt_dir) {
            Ok(Some(path)) => read_checkpoint(&path, Some(digest)).map_err(|e| e.to_string()),
            Ok(None) => Err("none written".to_string()),
            Err(e) => Err(e.to_string()),
        };
        match read_back {
            Ok(ckpt)
                if ckpt.round == last.round
                    && ckpt.seq == last.seq
                    && state_bits(&ckpt.state) == last.state_bits => {}
            Ok(_) => it
                .failed_checks
                .push("checkpoint read back a different state".into()),
            Err(why) => it.failed_checks.push(format!("checkpoint: {why}")),
        }
        let _ = std::fs::remove_dir_all(&ckpt_dir);

        it.facts.insert("rounds", fed.rounds as f64);
        it.facts.insert("steps_per_slot", fed.local_steps as f64);
        it.facts.insert("wire_frames", frames as f64);
        it.facts.insert("wire_bytes", bytes as f64);
        it.facts.insert("checkpoint_bytes", last.bytes as f64);
        it.facts.insert("score_count", score_count(&clients));
        Ok(it)
    }
}
