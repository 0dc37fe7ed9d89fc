//! `table3_quick`: the `table3_flnet --quick` run, the one CI and users
//! start most.
//!
//! Set-up builds the quick corpus (one placement per design); the run
//! executes all of `Method::ALL` one by one and renders the table. It
//! is the only workload on the seven non-FedProx loops (local, central,
//! LG, IFCA's forward-only selection, fine-tuning, assigned clusters,
//! α-sync) and the one that leans on `Evaluator`/`metrics`, so a change
//! that collapses the round loops has a guard here.

use decentralized_routability::core::report::render_table;
use decentralized_routability::core::{run_method_on_clients, ExperimentConfig, TableResult};
use decentralized_routability::fed::Method;
use decentralized_routability::nn::models::{ModelKind, ModelScale};

use super::{
    build_fleet, fnv1a, outcome_bits, quick_profile, score_count, seed_config, IterCtx, Iteration,
    PhaseTimer, Workload,
};

const THREADS: usize = 1;

/// Span name of one method's run.
fn method_span(method: Method) -> &'static str {
    match method {
        Method::LocalOnly => "core.method.local",
        Method::Centralized => "core.method.central",
        Method::FedProx => "core.method.fedprox",
        Method::FedProxLg => "core.method.fedprox_lg",
        Method::Ifca => "core.method.ifca",
        Method::FedProxFinetune => "core.method.finetune",
        Method::AssignedClustering => "core.method.assigned",
        Method::AlphaSync => "core.method.alpha_sync",
    }
}

/// See the module docs.
pub struct Table3Quick {
    config: ExperimentConfig,
}

impl Table3Quick {
    /// The workload for `seed`; `smoke` shrinks it to one round.
    pub fn new(seed: u64, smoke: bool) -> Self {
        let mut config = ExperimentConfig::scaled().with_threads(THREADS);
        quick_profile(&mut config);
        seed_config(&mut config, seed);
        if smoke {
            config.fed.rounds = 1;
        }
        Table3Quick { config }
    }
}

impl Workload for Table3Quick {
    fn threads(&self) -> usize {
        THREADS
    }

    fn model(&self) -> (ModelKind, ModelScale) {
        (ModelKind::FlNet, self.config.model_scale)
    }

    fn sizes(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("clients", 9.0),
            ("methods", self.config.methods.len() as f64),
            ("rounds", self.config.fed.rounds as f64),
            ("local_steps", self.config.fed.local_steps as f64),
            ("finetune_steps", self.config.fed.finetune_steps as f64),
            ("placement_scale", self.config.corpus.placement_scale),
        ]
    }

    fn iterate(&mut self, ctx: &IterCtx<'_>) -> Result<Iteration, String> {
        let tracer = ctx.tracer.map(|t| t.as_ref());
        let mut timer = PhaseTimer::start(tracer)?;
        let clients = build_fleet(&self.config, tracer)?;
        timer.setup_done();
        let (kind, _) = self.model();
        let mut rows = Vec::with_capacity(self.config.methods.len());
        for &method in &self.config.methods {
            let _span = tracer.map(|t| t.span(method_span(method)));
            rows.push(
                run_method_on_clients(method, &clients, kind, &self.config)
                    .map_err(|e| format!("{method}: {e}"))?,
            );
        }
        let table = TableResult {
            model: kind,
            rows,
            n_clients: clients.len(),
        };
        let text = {
            let _span = tracer.map(|t| t.span("core.render_table"));
            render_table(&table)
        };
        let mut it = timer.finish()?;
        it.fingerprint = table.rows.iter().flat_map(outcome_bits).collect();
        it.fingerprint.push(fnv1a(text.bytes()));
        it.facts.insert("rounds", self.config.fed.rounds as f64);
        it.facts.insert("score_count", score_count(&clients));
        Ok(it)
    }
}
