//! `fedprox_inproc`: the paper's method on the parallel in-process loop.
//!
//! Table-2 fleet (9 clients), `ExperimentConfig::scaled()`, FLNet,
//! FedProx through `run_method_on_clients` on 2 threads. Set-up builds
//! the fleet in memory. Almost all of the run is train steps — no wire,
//! no disk — so a `tensor`/`nn` kernel win must show here and a wire or
//! reader change must not.

use decentralized_routability::core::{model_factory, run_method_on_clients, ExperimentConfig};
use decentralized_routability::fed::Method;
use decentralized_routability::nn::models::{ModelKind, ModelScale};

use super::{
    build_fleet, outcome_bits, score_count, seed_config, IterCtx, Iteration, PhaseTimer, Workload,
};
use crate::replica;

const THREADS: usize = 2;
/// Rounds × the scaled profile's 20 local steps × 9 clients: sized so
/// one iteration's run is about a second on two threads.
const ROUNDS: usize = 3;

/// See the module docs.
pub struct FedproxInproc {
    config: ExperimentConfig,
}

impl FedproxInproc {
    /// The workload for `seed`; `smoke` shrinks it to one round.
    pub fn new(seed: u64, smoke: bool) -> Self {
        let mut config = ExperimentConfig::scaled().with_threads(THREADS);
        seed_config(&mut config, seed);
        config.fed.rounds = if smoke { 1 } else { ROUNDS };
        config.methods = vec![Method::FedProx];
        FedproxInproc { config }
    }
}

impl Workload for FedproxInproc {
    fn threads(&self) -> usize {
        THREADS
    }

    fn model(&self) -> (ModelKind, ModelScale) {
        (ModelKind::FlNet, self.config.model_scale)
    }

    fn sizes(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("clients", 9.0),
            ("rounds", self.config.fed.rounds as f64),
            ("local_steps", self.config.fed.local_steps as f64),
            ("batch_size", self.config.fed.batch_size as f64),
            ("placement_scale", self.config.corpus.placement_scale),
        ]
    }

    fn iterate(&mut self, ctx: &IterCtx<'_>) -> Result<Iteration, String> {
        let tracer = ctx.tracer.map(|t| t.as_ref());
        let mut timer = PhaseTimer::start(tracer)?;
        let clients = build_fleet(&self.config, tracer)?;
        timer.setup_done();
        let (kind, scale) = self.model();
        let (outcome, consumed) = match tracer {
            None => (
                run_method_on_clients(Method::FedProx, &clients, kind, &self.config)
                    .map_err(|e| e.to_string())?,
                0,
            ),
            Some(tracer) => {
                let factory = model_factory(kind, scale);
                let run = replica::fedprox(&clients, &factory, &self.config.fed, tracer)
                    .map_err(|e| e.to_string())?;
                (run.outcome, run.samples_consumed)
            }
        };
        let mut it = timer.finish()?;
        it.fingerprint = outcome_bits(&outcome);
        it.facts.insert("rounds", self.config.fed.rounds as f64);
        it.facts
            .insert("steps_per_slot", self.config.fed.local_steps as f64);
        it.facts.insert("samples_consumed", consumed as f64);
        it.facts.insert("score_count", score_count(&clients));
        Ok(it)
    }
}
