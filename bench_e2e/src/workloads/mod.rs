//! The five workloads and what they share: the iteration record, the
//! phase timer, and fleet construction.
//!
//! An **iteration** is *set-up* then *run*, each timed, both from the
//! same seed, so every iteration of a process does bit-identical work.
//! The driver loop in `main.rs` repeats iterations and reports medians.

mod fedprox_inproc;
mod stream_100c;
mod table3_quick;
mod wire_channel_routenet;
mod wire_uds_2proc;

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use decentralized_routability::core::report::render_table;
use decentralized_routability::core::{
    build_clients, build_experiment_clients, run_method_on_clients, ExperimentConfig, TableResult,
};
use decentralized_routability::eda::corpus::generate_corpus_for_specs_with;
use decentralized_routability::eda::Family;
use decentralized_routability::fed::{Client, Method, MethodOutcome, WireStats};
use decentralized_routability::nn::models::{ModelKind, ModelScale};
use decentralized_routability::nn::StateDict;

use crate::clock::{now_ns, REFERENCE_GHZ};
use crate::procfs::self_cpu_seconds;
use crate::trace::{SpanGuard, Tracer};

pub use fedprox_inproc::FedproxInproc;
pub use stream_100c::{Stream100c, CORPUS_DIR, RAW_COPY_DIR};
pub use table3_quick::Table3Quick;
pub use wire_channel_routenet::WireChannelRoutenet;
pub use wire_uds_2proc::WireUds2proc;

/// What one iteration is handed.
pub struct IterCtx<'a> {
    /// Set for a traced iteration: record spans here.
    pub tracer: Option<&'a Arc<Tracer>>,
    /// This process's scratch directory (exists, inside the checkout's
    /// build directory, removed when the process ends).
    pub scratch: &'a Path,
}

/// What one iteration reports. A workload fills the three timings in
/// as measured; the driver loop then restates them at the reference
/// clock ([`Iteration::at_reference_clock`]).
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Wall-clock of the set-up phase.
    pub setup_s: f64,
    /// Wall-clock of the run phase.
    pub run_s: f64,
    /// User + system CPU of both phases, this process and the children
    /// it reaped.
    pub cpu_s: f64,
    /// Peak resident memory of spawned client processes, summed.
    pub children_rss_mb: f64,
    /// Output bits every iteration of the process must reproduce
    /// (average AUC, per-client AUCs, table bytes).
    pub fingerprint: Vec<u64>,
    /// Output checks this iteration failed, by name.
    pub failed_checks: Vec<String>,
    /// Exact counts and sizes spans cannot carry (`rounds`,
    /// `wire_bytes`, `checkpoint_bytes`, …).
    pub facts: BTreeMap<&'static str, f64>,
}

impl Iteration {
    /// Restates the timings as if the cores had run at
    /// [`REFERENCE_GHZ`] instead of the `ghz` they were measured at —
    /// the same cycles, a steady clock — and keeps `ghz` as the fact
    /// `clock_ghz`.
    pub fn at_reference_clock(&mut self, ghz: f64) {
        let factor = ghz / REFERENCE_GHZ;
        self.setup_s *= factor;
        self.run_s *= factor;
        self.cpu_s *= factor;
        self.facts.insert("clock_ghz", ghz);
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Worker threads the workload pins (`rte_tensor::parallel` global
    /// and the experiment config alike).
    fn threads(&self) -> usize;

    /// Cores the workload keeps busy at once — its threads, unless the
    /// work is done by processes it spawns. The clock is read with this
    /// many cores awake.
    fn busy_cores(&self) -> usize {
        self.threads()
    }

    /// The model the workload trains — probes use its shapes.
    fn model(&self) -> (ModelKind, ModelScale);

    /// Workload sizes for the provenance record.
    fn sizes(&self) -> Vec<(&'static str, f64)>;

    /// Runs one iteration: set-up, run, output checks.
    ///
    /// # Errors
    ///
    /// Any failure of the program under test, as text; the driver loop
    /// counts the iteration as failed.
    fn iterate(&mut self, ctx: &IterCtx<'_>) -> Result<Iteration, String>;
}

/// Instantiates the workload called `name`.
///
/// # Errors
///
/// An unknown name, or a seed from which no fleet of the workload's
/// size can be reached.
pub fn by_name(name: &str, seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "fedprox_inproc" => Box::new(FedproxInproc::new(seed, smoke)),
        "table3_quick" => Box::new(Table3Quick::new(seed, smoke)),
        "wire_channel_routenet" => Box::new(WireChannelRoutenet::new(seed, smoke)?),
        "wire_uds_2proc" => Box::new(WireUds2proc::new(seed, smoke)?),
        "stream_100c" => Box::new(Stream100c::new(seed, smoke)?),
        _ => return Err(format!("unknown workload {name}")),
    })
}

/// Applies the benchmark seed the way the bench binaries' `--seed` does.
pub fn seed_config(config: &mut ExperimentConfig, seed: u64) {
    config.corpus.seed = seed;
    config.fed.seed = seed ^ 0xFED5;
}

/// One client of a synthesized fleet, by what its cost depends on: the
/// benchmark family its designs come from and its training and test
/// sample counts.
pub type ClientSize = (Family, usize, usize);

/// Distance between the seeds [`settle_seed`] tries.
const SEED_STRIDE: u64 = 1_000_003;
/// Seeds [`settle_seed`] tries: at 5 µs each, at most a few seconds; the
/// rarest fleet a workload asks for turns up once in about 10 000.
const SEED_WALK: u64 = 1 << 20;

/// A synthesized fleet draws its clients' families and design counts
/// from the seed, so two seeds give fleets of different sizes — a
/// 2-client fleet has anything from 10 to 44 training samples — and a
/// run on another seed would measure another amount of work. This walks
/// from the benchmark seed (`seed`, `seed + SEED_STRIDE`, …) to the
/// first seed whose fleet `fits` the size the workload is defined at,
/// seeds `config` with it and returns it. The fleet's designs,
/// placements and labels still all come from the seed; only its size
/// is held still.
///
/// # Errors
///
/// When no seed of the walk fits, or the population is invalid.
pub fn settle_seed(
    config: &mut ExperimentConfig,
    seed: u64,
    fits: impl Fn(&[ClientSize]) -> bool,
) -> Result<u64, String> {
    for step in 0..SEED_WALK {
        let candidate = seed.wrapping_add(step.wrapping_mul(SEED_STRIDE));
        seed_config(config, candidate);
        let sizes: Vec<ClientSize> = config
            .client_specs()
            .map_err(|e| e.to_string())?
            .iter()
            .map(|spec| {
                let (train, test) = spec.scaled_counts(config.corpus.placement_scale);
                (spec.family, train, test)
            })
            .collect();
        if fits(&sizes) {
            return Ok(candidate);
        }
    }
    Err(format!(
        "no seed within {SEED_WALK} steps of {seed} gives a fleet of the workload's size"
    ))
}

/// How many clients draw their designs from `family` — generating a
/// design costs by its cell count, and the family sets that count's
/// range (220–700 cells for ISCAS'89, 1200–2600 for ISPD'15).
pub fn clients_of(sizes: &[ClientSize], family: Family) -> usize {
    sizes.iter().filter(|(f, _, _)| *f == family).count()
}

/// True when the fleet has `train` training and `test` test samples in
/// all — what the cost of a many-client fleet depends on.
pub fn totals_are(sizes: &[ClientSize], train: usize, test: usize) -> bool {
    sizes
        .iter()
        .fold((0, 0), |(a, b), (_, tr, te)| (a + tr, b + te))
        == (train, test)
}

/// The `--quick` profile of the bench binaries: one placement per
/// design, 2 rounds × 4 steps, 8 fine-tuning steps.
pub fn quick_profile(config: &mut ExperimentConfig) {
    config.corpus.placement_scale = 0.0;
    config.fed.rounds = 2;
    config.fed.local_steps = 4;
    config.fed.finetune_steps = 8;
}

/// Times the two phases of an iteration (wall and CPU) and, when
/// tracing, keeps the `bench.setup` / `bench.run` root span open.
pub struct PhaseTimer<'t> {
    tracer: Option<&'t Tracer>,
    root: Option<SpanGuard<'t>>,
    cpu_start: f64,
    phase_start_ns: u64,
    excluded_ns: u64,
    excluded_cpu: f64,
    setup_s: Option<f64>,
}

impl<'t> PhaseTimer<'t> {
    /// Starts the set-up phase.
    pub fn start(tracer: Option<&'t Tracer>) -> Result<Self, String> {
        Ok(PhaseTimer {
            tracer,
            cpu_start: self_cpu_seconds()?,
            root: tracer.map(|t| t.span("bench.setup")),
            phase_start_ns: now_ns(),
            excluded_ns: 0,
            excluded_cpu: 0.0,
            setup_s: None,
        })
    }

    fn phase_elapsed(&mut self) -> f64 {
        let end = now_ns();
        let elapsed = end.saturating_sub(self.phase_start_ns + self.excluded_ns);
        self.excluded_ns = 0;
        self.phase_start_ns = end;
        elapsed as f64 / 1e9
    }

    /// Runs an output check that belongs to neither phase: its wall
    /// and CPU time are taken out of the measurement.
    pub fn untimed<R>(&mut self, check: impl FnOnce() -> R) -> Result<R, String> {
        let (wall, cpu) = (now_ns(), self_cpu_seconds()?);
        let out = check();
        self.excluded_ns += now_ns().saturating_sub(wall);
        self.excluded_cpu += self_cpu_seconds()? - cpu;
        Ok(out)
    }

    /// Ends set-up, starts the run.
    pub fn setup_done(&mut self) {
        self.root = None;
        self.setup_s = Some(self.phase_elapsed());
        self.root = self.tracer.map(|t| t.span("bench.run"));
        self.phase_start_ns = now_ns();
    }

    /// Ends the run and fills the timing fields of an [`Iteration`].
    pub fn finish(mut self) -> Result<Iteration, String> {
        self.root = None;
        let run_s = self.phase_elapsed();
        let cpu_s = self_cpu_seconds()? - self.cpu_start - self.excluded_cpu;
        Ok(Iteration {
            setup_s: self.setup_s.ok_or("PhaseTimer::finish before setup_done")?,
            run_s,
            cpu_s,
            ..Iteration::default()
        })
    }
}

/// Builds the in-memory fleet `config` describes. Untraced, this is
/// `build_experiment_clients`; traced, the two public steps it is made
/// of, each under a span.
pub fn build_fleet(
    config: &ExperimentConfig,
    tracer: Option<&Tracer>,
) -> Result<Vec<Client>, String> {
    let Some(tracer) = tracer else {
        return build_experiment_clients(config).map_err(|e| e.to_string());
    };
    let specs = config.client_specs().map_err(|e| e.to_string())?;
    let corpus = {
        let _span = tracer.span("eda.generate");
        generate_corpus_for_specs_with(&specs, &config.corpus, config.corpus_parallelism)
            .map_err(|e| e.to_string())?
    };
    let _span = tracer.span("core.build_clients");
    build_clients(&corpus).map_err(|e| e.to_string())
}

/// `(frames, bytes)` both ways over all of a run's links.
pub fn wire_totals(stats: impl Iterator<Item = WireStats>) -> (u64, u64) {
    stats.fold((0, 0), |(frames, bytes), s| {
        (
            frames + s.frames_sent + s.frames_received,
            bytes + s.bytes_sent + s.bytes_received,
        )
    })
}

/// Contract rule 7 for the wire workloads: a FedProx run over links
/// must print the same table bytes as the in-process run of the same
/// config. The in-process table is computed once per process, outside
/// the timed phases.
#[derive(Default)]
pub struct InProcessTable(Option<String>);

impl InProcessTable {
    /// Records the wire outcome's bits in `it` and fails the iteration
    /// when its table differs from the in-process one.
    pub fn check(
        &mut self,
        kind: ModelKind,
        clients: &[Client],
        config: &ExperimentConfig,
        wire: MethodOutcome,
        it: &mut Iteration,
    ) -> Result<(), String> {
        let table = |outcome: MethodOutcome| {
            render_table(&TableResult {
                model: kind,
                rows: vec![outcome],
                n_clients: clients.len(),
            })
        };
        it.fingerprint = outcome_bits(&wire);
        let wire_table = table(wire);
        it.fingerprint.push(fnv1a(wire_table.bytes()));
        if self.0.is_none() {
            let outcome = run_method_on_clients(Method::FedProx, clients, kind, config)
                .map_err(|e| e.to_string())?;
            self.0 = Some(table(outcome));
        }
        if self.0.as_ref() != Some(&wire_table) {
            it.failed_checks
                .push("wire table differs from the in-process table".into());
        }
        Ok(())
    }
}

/// The bits of an outcome every iteration must reproduce.
pub fn outcome_bits(outcome: &MethodOutcome) -> Vec<u64> {
    std::iter::once(outcome.average_auc)
        .chain(outcome.per_client_auc.iter().copied())
        .map(f64::to_bits)
        .collect()
}

/// Scores one client's evaluation ranks: test samples × grid tiles.
pub fn score_count(clients: &[Client]) -> f64 {
    let (_, h, w) = clients[0].test.geometry();
    (clients[0].test.len() * h * w) as f64
}

/// FNV-1a over bytes — a fingerprint for table text and state dicts,
/// not a checksum anything depends on for safety.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Fingerprint of a state dict: names and every parameter's bits.
pub fn state_bits(state: &StateDict) -> u64 {
    fnv1a(state.iter().flat_map(|(name, tensor)| {
        name.bytes()
            .chain(tensor.data().iter().flat_map(|v| v.to_bits().to_le_bytes()))
    }))
}

#[cfg(test)]
mod tests {
    use decentralized_routability::core::transport_config_with_rounds;

    use super::*;

    #[test]
    fn every_catalogued_workload_instantiates() {
        for def in &crate::catalogue::WORKLOADS {
            let w = by_name(def.name, 42, true).unwrap_or_else(|e| panic!("{}: {e}", def.name));
            assert!((1..=2).contains(&w.threads()), "{}", def.name);
            assert!(!w.sizes().is_empty(), "{}", def.name);
        }
        assert!(by_name("no_such_workload", 42, true).is_err());
    }

    #[test]
    fn phase_timer_splits_and_excludes() {
        let mut timer = PhaseTimer::start(None).unwrap();
        timer
            .untimed(|| std::thread::sleep(std::time::Duration::from_millis(30)))
            .unwrap();
        timer.setup_done();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let it = timer.finish().unwrap();
        assert!(it.setup_s < 0.025, "excluded sleep leaked: {}", it.setup_s);
        assert!(it.run_s >= 0.010, "{}", it.run_s);
        assert!(it.cpu_s >= 0.0);
    }

    #[test]
    fn timings_are_restated_at_the_reference_clock() {
        let mut it = Iteration {
            setup_s: 0.5,
            run_s: 2.0,
            cpu_s: 4.0,
            ..Iteration::default()
        };
        it.at_reference_clock(2.0 * REFERENCE_GHZ);
        assert_eq!((it.setup_s, it.run_s, it.cpu_s), (1.0, 4.0, 8.0));
        assert_eq!(it.facts["clock_ghz"], 2.0 * REFERENCE_GHZ);
    }

    #[test]
    fn a_settled_seed_gives_a_fleet_of_the_size_asked_for() {
        let mut config = transport_config_with_rounds(8, 0, true, Some(1));
        let fits = |fleet: &[ClientSize]| totals_are(fleet, 22, 10);
        let settled = settle_seed(&mut config, 7, fits).unwrap();
        assert_eq!(config.corpus.seed, settled);
        assert_eq!(config.fed.seed, settled ^ 0xFED5);
        assert_eq!((settled - 7) % SEED_STRIDE, 0);
        let samples: (usize, usize) = config
            .client_specs()
            .unwrap()
            .iter()
            .map(|spec| spec.scaled_counts(config.corpus.placement_scale))
            .fold((0, 0), |(a, b), (train, test)| (a + train, b + test));
        assert_eq!(samples, (22, 10));
        // The same seed settles on the same fleet; a size no seed gives
        // is an error, not a hang.
        assert_eq!(settle_seed(&mut config, 7, fits), Ok(settled));
        assert!(settle_seed(&mut config, 7, |fleet| fleet.is_empty()).is_err());
        assert_eq!(clients_of(&[(Family::Itc99, 1, 1)], Family::Itc99), 1);
    }

    #[test]
    fn fingerprints_separate_different_bits() {
        assert_ne!(fnv1a(*b"table a"), fnv1a(*b"table b"));
        assert_eq!(fnv1a(*b""), 0xCBF2_9CE4_8422_2325);
    }
}
