//! The paper's Table 2 data setup: nine clients, four benchmark families,
//! disjoint designs, 70/30 train/test splits by design.
//!
//! [`PAPER_CLIENTS`] transcribes Table 2 verbatim (design counts and
//! placement counts). [`CorpusConfig::placement_scale`] shrinks placement
//! counts proportionally for CPU-scale runs (design counts are always kept
//! — they are the unit of the train/test and client disjointness
//! guarantees).
//!
//! # Sharded generation
//!
//! Every placement's RNG stream is derived purely from
//! `(seed, client, split, design, placement)`, so samples are independent
//! work items. One driver walks the placement jobs of *all* clients in
//! fixed `(client, split, design, placement)` order in one parallel
//! region, each design synthesized once by the worker that first needs
//! it and dropped after its last placement, and hands every sample to a
//! sink on the caller's thread in job order. Generation memory is
//! O(workers): at most one design per worker plus two are live, and at
//! most a window of samples run or wait ahead of the sink, whatever the
//! corpus size. [`generate_corpus`] and [`generate_client`] push each
//! sample onto its client's dataset; [`generate_fleet_with`] copies it
//! into its rows of the clients' stacked tensors;
//! [`crate::shard::CorpusWriter`] appends it to its shard. The output is
//! **byte-identical to the serial path at every thread count** — the
//! parallelism budget (explicit via the `_with` variants, otherwise the
//! process-global `rte_tensor::parallel` default) is a pure wall-clock
//! knob, exactly like training and evaluation.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rte_tensor::parallel::{self, map_ordered_within, Parallelism};
use rte_tensor::rng::Xoshiro256;
use rte_tensor::Tensor;

use crate::dataset::{sample_with, Dataset, GenScratch, Sample};
use crate::drc::design_h_affinity;
use crate::features::FEATURE_CHANNELS;
use crate::netlist::{generate_netlist, Netlist};
use crate::placement::{check_grid, GridDims, PlacementConfig};
use crate::shard::DEFAULT_CHUNK;
use crate::{EdaError, Family, FamilyMix};

/// Cap on the placements one corpus holds, and on the design pool of a
/// synthesized universe (every design has at least one placement):
/// 2^24, about 2,350× the paper's 7,131. A count above it is refused
/// before the job list is allocated.
pub const MAX_PLACEMENTS: usize = 1 << 24;

/// One row of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientSpec {
    /// 1-based client index as the paper numbers them.
    pub index: usize,
    /// Benchmark family the client's designs come from.
    pub family: Family,
    /// Number of training designs.
    pub train_designs: usize,
    /// Number of testing designs (disjoint from training designs).
    pub test_designs: usize,
    /// Paper's training placement count.
    pub train_placements: usize,
    /// Paper's testing placement count.
    pub test_placements: usize,
}

impl ClientSpec {
    /// Placement counts after applying `scale`, with at least one
    /// placement per design.
    pub fn scaled_counts(&self, scale: f64) -> (usize, usize) {
        let train =
            ((self.train_placements as f64 * scale).round() as usize).max(self.train_designs);
        let test = ((self.test_placements as f64 * scale).round() as usize).max(self.test_designs);
        (train, test)
    }
}

/// Table 2 of the paper, verbatim.
pub const PAPER_CLIENTS: [ClientSpec; 9] = [
    ClientSpec {
        index: 1,
        family: Family::Itc99,
        train_designs: 4,
        test_designs: 2,
        train_placements: 462,
        test_placements: 230,
    },
    ClientSpec {
        index: 2,
        family: Family::Itc99,
        train_designs: 2,
        test_designs: 1,
        train_placements: 231,
        test_placements: 114,
    },
    ClientSpec {
        index: 3,
        family: Family::Itc99,
        train_designs: 2,
        test_designs: 2,
        train_placements: 231,
        test_placements: 232,
    },
    ClientSpec {
        index: 4,
        family: Family::Iscas89,
        train_designs: 7,
        test_designs: 3,
        train_placements: 812,
        test_placements: 348,
    },
    ClientSpec {
        index: 5,
        family: Family::Iscas89,
        train_designs: 7,
        test_designs: 3,
        train_placements: 812,
        test_placements: 348,
    },
    ClientSpec {
        index: 6,
        family: Family::Iscas89,
        train_designs: 6,
        test_designs: 3,
        train_placements: 697,
        test_placements: 348,
    },
    ClientSpec {
        index: 7,
        family: Family::Iwls05,
        train_designs: 6,
        test_designs: 3,
        train_placements: 656,
        test_placements: 280,
    },
    ClientSpec {
        index: 8,
        family: Family::Iwls05,
        train_designs: 7,
        test_designs: 3,
        train_placements: 742,
        test_placements: 329,
    },
    ClientSpec {
        index: 9,
        family: Family::Ispd15,
        train_designs: 9,
        test_designs: 4,
        train_placements: 175,
        test_placements: 84,
    },
];

/// Corpus generation settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusConfig {
    /// Master seed; every design, placement and label derives from it.
    pub seed: u64,
    /// Gcell grid of every die.
    pub grid: GridDims,
    /// Multiplier on Table 2 placement counts (1.0 = the paper's 7,131
    /// placements).
    pub placement_scale: f64,
}

impl CorpusConfig {
    /// Paper-scale counts (7,131 placements) on a 16×16 grid.
    pub fn paper() -> Self {
        CorpusConfig {
            seed: 0xDAC2_2022,
            grid: GridDims::new(16, 16),
            placement_scale: 1.0,
        }
    }

    /// CPU-friendly default: ~1/12 of the paper's placement counts
    /// (roughly 600 placements total).
    pub fn scaled() -> Self {
        CorpusConfig {
            placement_scale: 1.0 / 12.0,
            ..CorpusConfig::paper()
        }
    }

    /// Minimal corpus for tests: one placement per design.
    pub fn tiny() -> Self {
        CorpusConfig {
            placement_scale: 0.0,
            ..CorpusConfig::paper()
        }
    }
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig::scaled()
    }
}

/// One client's generated data.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientData {
    /// The Table 2 row this client realizes.
    pub spec: ClientSpec,
    /// Training split.
    pub train: Dataset,
    /// Testing split (designs disjoint from training).
    pub test: Dataset,
}

/// The full nine-client corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    /// Per-client data, ordered by client index.
    pub clients: Vec<ClientData>,
    /// The grid every sample uses.
    pub grid: GridDims,
}

impl Corpus {
    /// Total number of training placements across clients.
    pub fn total_train(&self) -> usize {
        self.clients.iter().map(|c| c.train.len()).sum()
    }

    /// Total number of testing placements across clients.
    pub fn total_test(&self) -> usize {
        self.clients.iter().map(|c| c.test.len()).sum()
    }
}

/// Which half of a client's data a design (or shard file) belongs to.
/// The split decides the design's seed stream, so train and test data
/// can never collide even when design indices repeat across splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Split {
    /// Training split (70% of a client's designs in Table 2).
    Train,
    /// Testing split (designs disjoint from training).
    Test,
}

impl Split {
    /// Both splits, in the fixed `(train, test)` generation order.
    pub const ALL: [Split; 2] = [Split::Train, Split::Test];

    /// Lower-case token used in shard file names (`train` / `test`).
    pub fn token(&self) -> &'static str {
        match self {
            Split::Train => "train",
            Split::Test => "test",
        }
    }
}

impl std::fmt::Display for Split {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// The RNG stream of one `(client, split, design)` triple — the only
/// place it is derived. Both netlist synthesis and every placement of
/// the design replay this derivation, so a placement's randomness is a
/// pure function of its coordinates and sharding cannot change a byte.
fn design_stream(
    config: &CorpusConfig,
    spec: &ClientSpec,
    split: Split,
    design: usize,
) -> Xoshiro256 {
    Xoshiro256::seed_from(config.seed)
        .derive(spec.index as u64)
        .derive(match split {
            Split::Train => 0,
            Split::Test => 1,
        })
        .derive(design as u64)
}

/// One placement to generate. Its first three fields are its design's
/// coordinates, so any placement job of a design names the design.
pub(crate) struct PlacementJob {
    pub(crate) spec_i: usize,
    pub(crate) split: Split,
    pub(crate) design: usize,
    /// The design's index over all clients, in job order.
    pub(crate) netlist: usize,
    pub(crate) placement: usize,
}

/// Expands specs into the flat, fixed-order work list both the
/// in-memory and the streaming generators walk: placement jobs in
/// `(client, split, design, placement)` order, every design with at
/// least one. This ordering IS the byte-identity contract — every
/// consumer assembles results by walking this list front to back.
///
/// # Errors
///
/// [`EdaError::InvalidConfig`] for an empty spec list, a grid smaller
/// than 4×4, a negative or non-finite `placement_scale`, or more than
/// [`MAX_PLACEMENTS`] placements, so every generator refuses them before
/// any design is synthesized or the list is allocated.
pub(crate) fn build_jobs(
    specs: &[ClientSpec],
    config: &CorpusConfig,
) -> Result<Vec<PlacementJob>, EdaError> {
    if specs.is_empty() {
        return Err(EdaError::InvalidConfig {
            reason: "corpus generation needs at least one client spec".into(),
        });
    }
    check_grid(config.grid)?;
    let scale = config.placement_scale;
    if !(scale.is_finite() && scale >= 0.0) {
        return Err(EdaError::InvalidConfig {
            reason: format!("placement scale {scale} must be finite and non-negative"),
        });
    }
    let total = specs
        .iter()
        .try_fold(0usize, |sum, spec| {
            let (train, test) = spec.scaled_counts(scale);
            sum.checked_add(train)?.checked_add(test)
        })
        .filter(|&total| total <= MAX_PLACEMENTS)
        .ok_or_else(|| EdaError::InvalidConfig {
            reason: format!("the corpus would hold more than {MAX_PLACEMENTS} placements"),
        })?;
    let (mut jobs, mut netlist) = (Vec::with_capacity(total), 0);
    for (spec_i, spec) in specs.iter().enumerate() {
        let (n_train, n_test) = spec.scaled_counts(config.placement_scale);
        for (split, n_designs, n_placements) in [
            (Split::Train, spec.train_designs, n_train),
            (Split::Test, spec.test_designs, n_test),
        ] {
            for d in 0..n_designs {
                // Distribute placements round-robin so every design gets
                // ⌈n/designs⌉ or ⌊n/designs⌋ placements.
                let share = n_placements / n_designs + usize::from(d < n_placements % n_designs);
                for p in 0..share {
                    jobs.push(PlacementJob {
                        spec_i,
                        split,
                        design: d,
                        netlist,
                        placement: p,
                    });
                }
                netlist += 1;
            }
        }
    }
    Ok(jobs)
}

/// Phase-1 output: a design's netlist and the constant the DRC oracle
/// derives from its name, computed once for all of its placements.
pub(crate) struct Design {
    pub(crate) netlist: Netlist,
    h_affinity: f64,
    #[cfg(test)]
    _live: tests::Live,
}

/// The seed the netlist of a job's design is synthesized from.
fn design_seed(specs: &[ClientSpec], config: &CorpusConfig, job: &PlacementJob) -> u64 {
    design_stream(config, &specs[job.spec_i], job.split, job.design).next_u64()
}

/// The name [`synthesize_design`] gives a design job's netlist, without
/// synthesizing it: a shard header lists its designs before the first
/// of them exists.
pub(crate) fn design_name(
    specs: &[ClientSpec],
    config: &CorpusConfig,
    job: &PlacementJob,
) -> String {
    crate::netlist::design_name(specs[job.spec_i].family, design_seed(specs, config, job))
}

/// Phase-1 work: synthesizes the netlist of one design job, replaying
/// the job's seed stream from scratch.
pub(crate) fn synthesize_design(
    specs: &[ClientSpec],
    config: &CorpusConfig,
    job: &PlacementJob,
) -> Result<Design, EdaError> {
    let netlist = generate_netlist(specs[job.spec_i].family, design_seed(specs, config, job))?;
    Ok(Design {
        h_affinity: design_h_affinity(&netlist),
        netlist,
        #[cfg(test)]
        _live: tests::Live::new(config.seed),
    })
}

/// Phase-2 work: generates one placement sample of `design`, replaying
/// the design's seed stream up to the placement's derivation point so
/// the output is a pure function of
/// `(seed, client, split, design, placement)`.
pub(crate) fn placement_sample(
    specs: &[ClientSpec],
    config: &CorpusConfig,
    design: &Design,
    job: &PlacementJob,
    scratch: &mut GenScratch,
) -> Result<Sample, EdaError> {
    let spec = &specs[job.spec_i];
    let mut stream = design_stream(config, spec, job.split, job.design);
    // The design seed was consumed by phase 1; drawing (and discarding)
    // it here keeps the stream state identical to the serial schedule's
    // at the point placements were derived.
    let _ = stream.next_u64();
    let mut p_stream = stream.derive(job.placement as u64 + 1);
    let placement_seed = p_stream.next_u64();
    let profile = spec.family.profile();
    let density = profile.target_density.0
        + (profile.target_density.1 - profile.target_density.0) * p_stream.uniform();
    let placement_config = PlacementConfig {
        grid: config.grid,
        seed: placement_seed,
        target_density: density,
        spread_iterations: 2 + p_stream.range_usize(0, 5),
    };
    sample_with(
        &design.netlist,
        design.h_affinity,
        &placement_config,
        scratch,
    )
}

/// The generation driver: one [`map_ordered_within`] region over
/// [`build_jobs`]' placement list that hands each sample to `sink` on
/// the calling thread, in job order, with at most `window` samples
/// running or waiting ahead of it.
///
/// A worker synthesizes each design once, before its first placement:
/// the worker that takes a design's first placement also synthesizes the
/// next design, so the next worker rarely waits on one. A design is
/// dropped as soon as its last placement is done. Placements are taken
/// in job order, so the designs held at once are those with a placement
/// running — at most one per worker — plus the design at the front and
/// the one after it, whatever the corpus size.
///
/// # Errors
///
/// The first error in job order, from synthesis, a placement or `sink`;
/// no sample after it reaches `sink`, and no placement starts after it
/// is seen.
pub(crate) fn generate_samples(
    specs: &[ClientSpec],
    config: &CorpusConfig,
    jobs: &[PlacementJob],
    par: Parallelism,
    window: usize,
    mut sink: impl FnMut(&PlacementJob, Sample) -> Result<(), EdaError>,
) -> Result<(), EdaError> {
    let synthesize = |job: &PlacementJob| synthesize_design(specs, config, job);
    let shelf = Shelf::new(jobs);
    let (quit, mut failed) = (AtomicBool::new(false), None);
    map_ordered_within(
        par,
        jobs,
        window,
        GenScratch::new,
        |scratch, _, job| {
            #[cfg(test)]
            tests::ahead(config.seed, true);
            if quit.load(Relaxed) {
                return None;
            }
            if job.placement == 0 {
                shelf.make_ahead(job.netlist + 1, &synthesize);
            }
            let design = shelf.get(job.netlist, &synthesize);
            let sample =
                design.and_then(|design| placement_sample(specs, config, &design, job, scratch));
            shelf.placed(job.netlist);
            Some(sample)
        },
        |i, sample| {
            #[cfg(test)]
            tests::ahead(config.seed, false);
            if failed.is_none() {
                if let Some(Err(e)) = sample.map(|s| s.and_then(|s| sink(&jobs[i], s))) {
                    failed = Some(e);
                    quit.store(true, Relaxed);
                }
            }
        },
    );
    failed.map_or(Ok(()), Err)
}

/// The designs of one [`generate_samples`] pass: per design, the
/// placements it has left, its first placement job, and the design once
/// made. A design is made under its own lock, so a worker that needs it
/// meanwhile waits for it and for nothing else.
struct Shelf<'a>(Vec<Mutex<(usize, &'a PlacementJob, Option<Made>)>>);

type Made = Result<Arc<Design>, EdaError>;

type Synthesize<'s> = &'s dyn Fn(&PlacementJob) -> Result<Design, EdaError>;

impl<'a> Shelf<'a> {
    fn new(jobs: &'a [PlacementJob]) -> Self {
        let mut designs = Vec::new();
        for job in jobs {
            if job.placement == 0 {
                designs.push(Mutex::new((0, job, None)));
            }
            designs[job.netlist].get_mut().expect("not shared yet").0 += 1;
        }
        Shelf(designs)
    }

    fn slot(&self, design: usize) -> MutexGuard<'_, (usize, &'a PlacementJob, Option<Made>)> {
        self.0[design]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// `design`, made here unless a worker made it already. A worker
    /// whose synthesis panicked leaves the design unmade, so the next
    /// one to need it makes it (and panics alike) instead of waiting.
    fn get(&self, design: usize, synthesize: Synthesize<'_>) -> Made {
        let (_, job, made) = &mut *self.slot(design);
        made.get_or_insert_with(|| synthesize(job).map(Arc::new))
            .clone()
    }

    /// Makes `design` ahead of its first placement, unless it is out of
    /// range, placed to the end, or taken by another worker.
    fn make_ahead(&self, design: usize, synthesize: Synthesize<'_>) {
        if let Some(Ok(mut slot)) = self.0.get(design).map(Mutex::try_lock) {
            if let (1.., job, made @ None) = &mut *slot {
                *made = Some(synthesize(job).map(Arc::new));
            }
        }
    }

    /// Counts a placement of `design` done, letting the design go after
    /// its last.
    fn placed(&self, design: usize) {
        let (left, _, made) = &mut *self.slot(design);
        *left -= 1;
        if *left == 0 {
            *made = None;
        }
    }
}

/// Generates one client's data per its Table 2 spec, sharding placement
/// generation over the process-global
/// [`rte_tensor::parallel`] thread budget.
///
/// # Errors
///
/// Propagates placement/labelling errors (e.g. a grid smaller than 4×4).
pub fn generate_client(spec: &ClientSpec, config: &CorpusConfig) -> Result<ClientData, EdaError> {
    generate_client_with(spec, config, parallel::global())
}

/// [`generate_client`] with an explicit thread budget. Output is
/// byte-identical for every budget.
///
/// # Errors
///
/// Same conditions as [`generate_client`].
pub fn generate_client_with(
    spec: &ClientSpec,
    config: &CorpusConfig,
    par: Parallelism,
) -> Result<ClientData, EdaError> {
    let mut corpus = generate_corpus_for_specs_with(std::slice::from_ref(spec), config, par)?;
    Ok(corpus.clients.pop().expect("one spec in, one client out"))
}

/// Generates the full nine-client corpus of the paper's Table 2,
/// sharding generation over designs and placements on the process-global
/// [`rte_tensor::parallel`] thread budget.
///
/// # Errors
///
/// Propagates per-client generation errors.
///
/// # Example
///
/// ```
/// use rte_eda::corpus::{generate_corpus, CorpusConfig};
///
/// let corpus = generate_corpus(&CorpusConfig::tiny())?;
/// assert_eq!(corpus.clients.len(), 9);
/// // Table 2: client 9 holds ISPD'15 designs.
/// assert_eq!(corpus.clients[8].spec.family.name(), "ISPD'15");
/// # Ok::<(), rte_eda::EdaError>(())
/// ```
pub fn generate_corpus(config: &CorpusConfig) -> Result<Corpus, EdaError> {
    generate_corpus_with(config, parallel::global())
}

/// [`generate_corpus`] with an explicit thread budget. Output is
/// byte-identical for every budget
/// (`tests/parallel_determinism.rs` pins corpus tensors between 1 and 4
/// threads).
///
/// # Errors
///
/// Same conditions as [`generate_corpus`].
pub fn generate_corpus_with(config: &CorpusConfig, par: Parallelism) -> Result<Corpus, EdaError> {
    generate_corpus_for_specs_with(&PAPER_CLIENTS, config, par)
}

/// Generates a corpus for an explicit client list (e.g. a synthesized
/// universe from [`universe_specs`]) with an explicit thread budget.
/// Output is byte-identical for every budget, exactly like
/// [`generate_corpus_with`]: the generation driver pushes each sample
/// onto its client's split on the caller's thread, in fixed
/// `(client, split, design, placement)` order.
///
/// # Errors
///
/// [`EdaError::InvalidConfig`] for an empty spec list; otherwise the
/// same conditions as [`generate_corpus`].
pub fn generate_corpus_for_specs_with(
    specs: &[ClientSpec],
    config: &CorpusConfig,
    par: Parallelism,
) -> Result<Corpus, EdaError> {
    let mut clients: Vec<ClientData> = specs
        .iter()
        .map(|spec| ClientData {
            spec: *spec,
            train: Dataset::new(),
            test: Dataset::new(),
        })
        .collect();
    let jobs = build_jobs(specs, config)?;
    generate_samples(specs, config, &jobs, par, DEFAULT_CHUNK, |job, sample| {
        let client = &mut clients[job.spec_i];
        match job.split {
            Split::Train => client.train.push(sample),
            Split::Test => client.test.push(sample),
        }
        Ok(())
    })?;
    Ok(Corpus {
        clients,
        grid: config.grid,
    })
}

/// One client's splits as the stacked tensors a trainer consumes:
/// features `(N, FEATURE_CHANNELS, H, W)` and labels `(N, 1, H, W)`,
/// rows in `(design, placement)` order, exactly as
/// [`Dataset::full_batch`] stacks the client's [`ClientData`] split.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientTensors {
    /// The spec this client realizes.
    pub spec: ClientSpec,
    /// Training split as `(features, labels)`.
    pub train: (Tensor, Tensor),
    /// Testing split as `(features, labels)`.
    pub test: (Tensor, Tensor),
}

/// Generates every spec's splits straight into their stacked tensors:
/// bit for bit [`generate_corpus_for_specs_with`] followed by
/// [`Dataset::full_batch`] on every split, for every budget, but each
/// sample is held once. Every `(client, split)`'s two tensors are sized
/// from the placement job list before generation starts, and the
/// driver's sink copies each sample into the rows of its job and drops
/// it, so no `Vec<Sample>` of the fleet, no second copy and no more than
/// a design per worker plus two ever exist.
///
/// # Errors
///
/// [`EdaError::InvalidConfig`] for an empty spec list, a grid smaller
/// than 4×4, or a spec with a split without designs (refused as the
/// `"empty batch"` [`Dataset::full_batch`] refuses), all before any
/// design is synthesized; otherwise the same conditions as
/// [`generate_corpus`].
pub fn generate_fleet_with(
    specs: &[ClientSpec],
    config: &CorpusConfig,
    par: Parallelism,
) -> Result<Vec<ClientTensors>, EdaError> {
    let jobs = build_jobs(specs, config)?;
    if specs
        .iter()
        .any(|spec| spec.train_designs == 0 || spec.test_designs == 0)
    {
        return Err(EdaError::InvalidConfig {
            reason: "empty batch".into(),
        });
    }
    let (h, w) = (config.grid.height, config.grid.width);
    let (x_len, y_len) = (FEATURE_CHANNELS * h * w, h * w);
    // Rows of `(client, split)` at `2 × client + split`: the order the
    // jobs visit them in.
    let mut rows = vec![0; 2 * specs.len()];
    for job in &jobs {
        rows[2 * job.spec_i + usize::from(job.split == Split::Test)] += 1;
    }
    let mut buffers: Vec<(Vec<f32>, Vec<f32>)> = rows
        .iter()
        .map(|&n| (vec![0.0; n * x_len], vec![0.0; n * y_len]))
        .collect();
    // Each split's jobs are one contiguous run in job order, so the
    // samples arrive in the order of the buffers' rows.
    let mut slots = buffers
        .iter_mut()
        .flat_map(|(x, y)| x.chunks_exact_mut(x_len).zip(y.chunks_exact_mut(y_len)));
    generate_samples(specs, config, &jobs, par, DEFAULT_CHUNK, |_, sample| {
        let (x, y) = slots.next().expect("one row a placement");
        x.copy_from_slice(sample.features.data());
        y.copy_from_slice(sample.label.data());
        Ok(())
    })?;
    let mut splits = rows.into_iter().zip(buffers).map(|(n, (x, y))| {
        Ok::<_, EdaError>((
            Tensor::from_vec(x, &[n, FEATURE_CHANNELS, h, w])?,
            Tensor::from_vec(y, &[n, 1, h, w])?,
        ))
    });
    specs
        .iter()
        .map(|spec| {
            let mut next = || splits.next().expect("two splits a spec");
            Ok(ClientTensors {
                spec: *spec,
                train: next()?,
                test: next()?,
            })
        })
        .collect()
}

/// Settings of a synthesized client universe (the `--clients N
/// --designs D` scaling mode): how many clients to invent, how many
/// designs the population shares, and the family mix heterogeneity is
/// drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniverseConfig {
    /// Number of clients to synthesize (1-based indices `1..=clients`).
    pub clients: usize,
    /// Total designs across the population (train + test, all clients).
    /// Every client owns at least one train and one test design, so this
    /// must be at least `2 × clients`.
    pub designs: usize,
    /// Family sampling weights — the source of inter-client
    /// heterogeneity and label skew.
    pub mix: FamilyMix,
}

impl UniverseConfig {
    /// A universe with the paper's family proportions.
    pub fn new(clients: usize, designs: usize) -> Self {
        UniverseConfig {
            clients,
            designs,
            mix: FamilyMix::paper(),
        }
    }
}

/// Salt separating the universe-synthesis RNG stream from every
/// generation stream (clients derive `seed → client → split → design`;
/// this must never collide with a client index).
const UNIVERSE_SALT: u64 = 0x5EED_u64 << 32;

/// Synthesizes `universe.clients` client specs from the seeded
/// heterogeneity model: per-client families drawn from the mix,
/// design counts skewed by per-client weight draws (largest-remainder
/// allocation of the shared design pool), ~70/30 train/test splits, and
/// per-client placement intensities echoing Table 2's spread.
///
/// The result is a pure function of `(config.seed, universe)` — every
/// draw comes from one salted stream consumed in fixed client order —
/// so the same universe can be regenerated for provenance checks, and
/// corpora built from it inherit the full determinism contract.
///
/// # Errors
///
/// [`EdaError::InvalidConfig`] for zero clients, fewer than
/// `2 × clients` designs, more than [`MAX_PLACEMENTS`] designs, or an
/// unusable mix.
pub fn universe_specs(
    config: &CorpusConfig,
    universe: &UniverseConfig,
) -> Result<Vec<ClientSpec>, EdaError> {
    if universe.clients == 0 {
        return Err(EdaError::InvalidConfig {
            reason: "universe needs at least one client".into(),
        });
    }
    if universe.designs > MAX_PLACEMENTS {
        return Err(EdaError::InvalidConfig {
            reason: format!(
                "universe of {} designs exceeds the cap of {MAX_PLACEMENTS}",
                universe.designs
            ),
        });
    }
    let floor_total = universe
        .clients
        .checked_mul(2)
        .filter(|&floor| floor <= universe.designs)
        .ok_or_else(|| EdaError::InvalidConfig {
            reason: format!(
                "universe of {} clients needs at least 2 × {} designs (1 train + 1 test \
                 each), got {}",
                universe.clients, universe.clients, universe.designs
            ),
        })?;
    if !universe.mix.is_valid() {
        return Err(EdaError::InvalidConfig {
            reason: "family mix weights must be finite, non-negative and not all zero".into(),
        });
    }
    let mut stream = Xoshiro256::seed_from(config.seed).derive(UNIVERSE_SALT);
    // Per-client draws, in fixed client order: family, design-count
    // weight, placement intensity. One loop = one derivation point.
    let mut families = Vec::with_capacity(universe.clients);
    let mut weights = Vec::with_capacity(universe.clients);
    let mut intensities = Vec::with_capacity(universe.clients);
    for _ in 0..universe.clients {
        families.push(universe.mix.sample(stream.uniform_f64()));
        // Design-count skew: a 3× spread between the lightest and
        // heaviest clients, echoing Table 2 (3 designs vs 13).
        weights.push(0.5 + stream.uniform_f64());
        // Placements per design, echoing Table 2's ~20 (ISPD'15) to
        // ~115 (ITC'99/ISCAS'89) per-design placement intensities.
        intensities.push(20 + stream.range_usize(0, 96));
    }
    // Largest-remainder allocation of the design pool over the weight
    // draws, with a floor of 2 designs per client.
    let spare = universe.designs - floor_total;
    let weight_sum: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights
        .iter()
        .map(|w| spare as f64 * w / weight_sum)
        .collect();
    let mut extra: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let assigned: usize = extra.iter().sum();
    // Hand the leftovers to the largest fractional parts; ties resolve
    // to the lower client index (sort_by on the residual only is stable).
    let mut order: Vec<usize> = (0..universe.clients).collect();
    order.sort_by(|&a, &b| {
        let ra = quotas[a] - quotas[a].floor();
        let rb = quotas[b] - quotas[b].floor();
        rb.partial_cmp(&ra).expect("finite residuals")
    });
    for &i in order.iter().take(spare - assigned) {
        extra[i] += 1;
    }
    let specs = (0..universe.clients)
        .map(|i| {
            let designs = 2 + extra[i];
            // ~30% of designs test, at least one on each side.
            let test_designs = ((designs as f64 * 0.3).round() as usize).clamp(1, designs - 1);
            let train_designs = designs - test_designs;
            ClientSpec {
                index: i + 1,
                family: families[i],
                train_designs,
                test_designs,
                train_placements: train_designs * intensities[i],
                test_placements: test_designs * intensities[i].div_ceil(2),
            }
        })
        .collect();
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashSet};

    #[test]
    fn table2_totals_match_paper() {
        let train: usize = PAPER_CLIENTS.iter().map(|c| c.train_placements).sum();
        let test: usize = PAPER_CLIENTS.iter().map(|c| c.test_placements).sum();
        assert_eq!(train + test, 7131, "paper reports 7,131 placements");
        let designs: usize = PAPER_CLIENTS
            .iter()
            .map(|c| c.train_designs + c.test_designs)
            .sum();
        assert_eq!(designs, 74, "paper reports 74 designs");
    }

    #[test]
    fn family_assignment_matches_paper() {
        assert!(PAPER_CLIENTS[..3].iter().all(|c| c.family == Family::Itc99));
        assert!(PAPER_CLIENTS[3..6]
            .iter()
            .all(|c| c.family == Family::Iscas89));
        assert!(PAPER_CLIENTS[6..8]
            .iter()
            .all(|c| c.family == Family::Iwls05));
        assert_eq!(PAPER_CLIENTS[8].family, Family::Ispd15);
    }

    #[test]
    fn scaled_counts_floor_at_design_count() {
        let c9 = PAPER_CLIENTS[8];
        let (train, test) = c9.scaled_counts(0.0);
        assert_eq!(train, c9.train_designs);
        assert_eq!(test, c9.test_designs);
        let (train, _) = c9.scaled_counts(1.0);
        assert_eq!(train, 175);
    }

    #[test]
    fn tiny_corpus_generates_all_clients() {
        let corpus = generate_corpus(&CorpusConfig::tiny()).unwrap();
        assert_eq!(corpus.clients.len(), 9);
        for (client, spec) in corpus.clients.iter().zip(PAPER_CLIENTS.iter()) {
            assert_eq!(client.spec, *spec);
            assert_eq!(client.train.len(), spec.train_designs);
            assert_eq!(client.test.len(), spec.test_designs);
            assert!(client.train.hotspot_rate() > 0.0);
        }
    }

    #[test]
    fn designs_are_disjoint_across_clients_and_splits() {
        let corpus = generate_corpus(&CorpusConfig::tiny()).unwrap();
        let mut seen: HashSet<String> = HashSet::new();
        for client in &corpus.clients {
            for s in client
                .train
                .samples()
                .iter()
                .chain(client.test.samples().iter())
            {
                // Every design name may repeat within a split (several
                // placements) but never across splits or clients. In the
                // tiny corpus each design appears exactly once.
                assert!(seen.insert(s.design.clone()), "design {} reused", s.design);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate_client(&PAPER_CLIENTS[1], &CorpusConfig::tiny()).unwrap();
        let b = generate_client(&PAPER_CLIENTS[1], &CorpusConfig::tiny()).unwrap();
        assert_eq!(a, b);
        let mut other = CorpusConfig::tiny();
        other.seed ^= 1;
        let c = generate_client(&PAPER_CLIENTS[1], &other).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn placement_distribution_is_balanced() {
        let mut config = CorpusConfig::tiny();
        config.placement_scale = 0.02; // a handful of placements
        let client = generate_client(&PAPER_CLIENTS[0], &config).unwrap();
        // 462 × 0.02 ≈ 9 placements over 4 designs → shares of 2 or 3.
        let mut per_design: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        for s in client.train.samples() {
            *per_design.entry(s.design.clone()).or_insert(0) += 1;
        }
        assert_eq!(per_design.len(), 4);
        let max = per_design.values().max().unwrap();
        let min = per_design.values().min().unwrap();
        assert!(max - min <= 1, "unbalanced shares {per_design:?}");
    }

    #[test]
    fn sharded_generation_is_byte_identical_to_serial() {
        let mut config = CorpusConfig::tiny();
        config.placement_scale = 0.02; // several placements per design
        let spec = &PAPER_CLIENTS[3];
        let serial = generate_client_with(spec, &config, Parallelism::serial()).unwrap();
        for threads in [2, 3, 8] {
            let sharded = generate_client_with(spec, &config, Parallelism::new(threads)).unwrap();
            assert_eq!(serial, sharded, "{threads} threads");
        }
    }

    #[test]
    fn design_names_match_the_synthesized_netlists() {
        let config = CorpusConfig::tiny();
        let universe = universe_specs(&config, &UniverseConfig::new(10, 40)).unwrap();
        for specs in [&PAPER_CLIENTS[..], &universe] {
            for job in build_jobs(specs, &config)
                .unwrap()
                .iter()
                .filter(|j| j.placement == 0)
            {
                let design = synthesize_design(specs, &config, job).unwrap();
                assert_eq!(design_name(specs, &config, job), design.netlist.name);
            }
        }
    }

    /// Per corpus seed: the designs live (now, at peak), the samples
    /// running or waiting ahead of the sink (now, at peak), and the
    /// designs synthesized. A test that owns a seed reads its own counts
    /// while the other tests run.
    #[derive(Default)]
    struct Counts {
        live: (usize, usize),
        ahead: (usize, usize),
        made: usize,
    }

    static COUNTS: Mutex<BTreeMap<u64, Counts>> = Mutex::new(BTreeMap::new());

    fn count(seed: u64, update: impl FnOnce(&mut Counts)) {
        update(COUNTS.lock().unwrap().entry(seed).or_default());
    }

    fn step((now, peak): &mut (usize, usize), up: bool) {
        *now = if up { *now + 1 } else { *now - 1 };
        *peak = (*peak).max(*now);
    }

    /// Counts a placement starting (`up`) or its sample leaving the sink.
    pub(super) fn ahead(seed: u64, up: bool) {
        count(seed, |c| step(&mut c.ahead, up));
    }

    /// A guard each design holds: counts it live until it is dropped.
    pub(super) struct Live(u64);

    impl Live {
        pub(super) fn new(seed: u64) -> Self {
            count(seed, |c| {
                c.made += 1;
                step(&mut c.live, true);
            });
            Live(seed)
        }
    }

    impl Drop for Live {
        fn drop(&mut self) {
            count(self.0, |c| step(&mut c.live, false));
        }
    }

    /// `(live designs at peak, samples ahead at peak)` of a seed's runs,
    /// after checking that every design was synthesized exactly once and
    /// none is left.
    fn peaks(seed: u64, designs: usize, what: &str) -> (usize, usize) {
        let counts = &COUNTS.lock().unwrap()[&seed];
        assert_eq!(counts.made, designs, "{what}: designs synthesized");
        assert_eq!(counts.live.0, 0, "{what}: designs left live");
        (counts.live.1, counts.ahead.1)
    }

    #[test]
    fn driver_synthesizes_each_design_once_and_holds_at_most_chunk() {
        let mut table2 = CorpusConfig::tiny();
        table2.placement_scale = 0.02; // several placements per design
        let universe = universe_specs(&table2, &UniverseConfig::new(100, 400)).unwrap();
        let mut seed = 0xD21F_0000;
        for specs in [&PAPER_CLIENTS[..], &universe] {
            for (chunk, threads) in [(1, 1), (7, 1), (7, 3), (64, 1), (64, 3)] {
                seed += 1;
                let config = CorpusConfig {
                    seed,
                    placement_scale: if specs.len() == 9 { 0.02 } else { 0.0 },
                    ..table2
                };
                let jobs = build_jobs(specs, &config).unwrap();
                let designs = jobs.iter().filter(|j| j.placement == 0).count();
                let what = format!("{designs} designs, chunk {chunk}, {threads} threads");
                let mut placed = 0;
                let par = Parallelism::new(threads);
                generate_samples(specs, &config, &jobs, par, chunk, |job, sample| {
                    // The job list front to back, each its own design's.
                    assert!(std::ptr::eq(job, &jobs[placed]), "{what}");
                    assert_eq!(sample.design, design_name(specs, &config, job), "{what}");
                    placed += 1;
                    Ok(())
                })
                .unwrap();
                assert_eq!(placed, jobs.len(), "{what}");
                let (live, samples) = peaks(seed, designs, &what);
                assert!(live <= threads + 2, "{what}: {live} designs live");
                assert!(samples <= chunk, "{what}: {samples} samples ahead");
            }
        }
    }

    /// A sink that fails mid-pass ends the pass with its error at every
    /// budget: here the writer cannot create the fourth shard, whose
    /// temp name a directory holds, and leaves no file of its own.
    #[test]
    fn generation_stops_at_the_first_error() {
        let config = CorpusConfig {
            placement_scale: 0.02,
            ..CorpusConfig::tiny()
        };
        for threads in [1, 2, 4, 7] {
            let dir = std::env::temp_dir()
                .join(format!("rte_first_error_{}_{threads}", std::process::id()));
            let blocked = dir.join("client02.test.rtes.tmp");
            std::fs::create_dir_all(blocked.join("occupied")).unwrap();
            let err = crate::shard::CorpusWriter::new(&dir)
                .with_chunk(4)
                .with_parallelism(Parallelism::new(threads))
                .write_specs(&PAPER_CLIENTS[..3], &config)
                .unwrap_err();
            assert!(
                matches!(&err, EdaError::Shard(crate::ShardError::Io { path, .. }) if path.ends_with("client02.test.rtes.tmp")),
                "{threads} threads: {err}"
            );
            let left: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            assert_eq!(left, [blocked], "{threads} threads");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Every generator on a 40-design universe holds at most a design per
    /// worker and two more, however many designs it places, and at most
    /// its window of samples ahead of its sink.
    #[test]
    fn generation_holds_o_workers_designs() {
        type Run<'a> = Box<dyn Fn(&CorpusConfig) + 'a>;
        let base = CorpusConfig::tiny();
        let specs = &universe_specs(&base, &UniverseConfig::new(10, 40)).unwrap();
        let dir = std::env::temp_dir().join(format!("rte_residency_{}", std::process::id()));
        let mut seed = 0x4E51_DE00;
        for threads in [1, 2, 4, 7] {
            let par = Parallelism::new(threads);
            let mut runs: Vec<(&str, usize, Run)> = vec![
                (
                    "fleet",
                    DEFAULT_CHUNK,
                    Box::new(|c| {
                        generate_fleet_with(specs, c, par).unwrap();
                    }),
                ),
                (
                    "dataset",
                    DEFAULT_CHUNK,
                    Box::new(|c| {
                        generate_corpus_for_specs_with(specs, c, par).unwrap();
                    }),
                ),
            ];
            for chunk in [1, 8, 64] {
                let writer = crate::shard::CorpusWriter::new(&dir)
                    .with_chunk(chunk)
                    .with_parallelism(par);
                runs.push((
                    "writer",
                    chunk,
                    Box::new(move |c| {
                        writer.write_specs(specs, c).unwrap();
                    }),
                ));
            }
            for (path, window, run) in runs {
                seed += 1;
                let config = CorpusConfig {
                    seed,
                    placement_scale: 0.05,
                    ..base
                };
                run(&config);
                let what = format!("{path}, window {window}, {threads} threads");
                let (designs, samples) = peaks(seed, 40, &what);
                assert!(
                    designs <= threads + 2,
                    "{what}: {designs} of 40 designs live"
                );
                assert!(samples <= window, "{what}: {samples} samples ahead");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_is_the_stacked_corpus_at_every_budget() {
        let mut config = CorpusConfig::tiny();
        config.placement_scale = 0.02; // several placements per design
        let specs = &PAPER_CLIENTS[2..5];
        let corpus = generate_corpus_for_specs_with(specs, &config, Parallelism::serial()).unwrap();
        for threads in [1, 3] {
            let fleet = generate_fleet_with(specs, &config, Parallelism::new(threads)).unwrap();
            assert_eq!(fleet.len(), specs.len());
            for (got, want) in fleet.iter().zip(&corpus.clients) {
                assert_eq!(got.spec, want.spec);
                assert_eq!(got.train, want.train.full_batch().unwrap(), "{threads}");
                assert_eq!(got.test, want.test.full_batch().unwrap(), "{threads}");
            }
        }
    }

    #[test]
    fn fleet_refuses_what_it_cannot_stack() {
        let config = CorpusConfig::tiny();
        let serial = Parallelism::serial();
        let mut spec = PAPER_CLIENTS[0];
        spec.test_designs = 0;
        assert_eq!(
            generate_fleet_with(&[PAPER_CLIENTS[1], spec], &config, serial).unwrap_err(),
            Dataset::new().full_batch().unwrap_err()
        );
        assert!(generate_fleet_with(&[], &config, serial).is_err());
        let mut small = config;
        small.grid = GridDims::new(3, 16);
        assert!(generate_fleet_with(&PAPER_CLIENTS[..1], &small, serial).is_err());
    }

    #[test]
    fn universe_specs_are_deterministic_and_well_formed() {
        let config = CorpusConfig::tiny();
        let universe = UniverseConfig::new(100, 400);
        let specs = universe_specs(&config, &universe).unwrap();
        assert_eq!(specs.len(), 100);
        assert_eq!(specs, universe_specs(&config, &universe).unwrap());
        let total: usize = specs.iter().map(|s| s.train_designs + s.test_designs).sum();
        assert_eq!(total, 400, "design pool fully allocated");
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.index, i + 1);
            assert!(s.train_designs >= 1 && s.test_designs >= 1);
            assert!(s.train_placements >= s.train_designs);
            assert!(s.test_placements >= s.test_designs);
        }
        // Heterogeneity actually materializes: multiple families, spread
        // design counts.
        let families: HashSet<Family> = specs.iter().map(|s| s.family).collect();
        assert!(families.len() >= 3, "{families:?}");
        let counts: Vec<usize> = specs.iter().map(|s| s.train_designs).collect();
        assert!(counts.iter().max() > counts.iter().min());
        // A different seed synthesizes a different universe.
        let mut other = config;
        other.seed ^= 1;
        assert_ne!(specs, universe_specs(&other, &universe).unwrap());
    }

    #[test]
    fn universe_specs_validate_inputs() {
        let config = CorpusConfig::tiny();
        assert!(universe_specs(&config, &UniverseConfig::new(0, 10)).is_err());
        assert!(universe_specs(&config, &UniverseConfig::new(6, 11)).is_err());
        let mut bad = UniverseConfig::new(2, 8);
        bad.mix = FamilyMix { weights: [0.0; 4] };
        assert!(universe_specs(&config, &bad).is_err());
        // The minimal universe (2 designs each) is fine.
        let specs = universe_specs(&config, &UniverseConfig::new(6, 12)).unwrap();
        assert!(specs
            .iter()
            .all(|s| s.train_designs == 1 && s.test_designs == 1));
    }

    /// Every bound is checked before the job list is allocated: a run
    /// without the checks allocates without bound here.
    #[test]
    fn corpus_size_is_bounded_before_allocation() {
        let mut config = CorpusConfig::tiny();
        for scale in [f64::INFINITY, f64::NAN, -1.0, 1e9] {
            config.placement_scale = scale;
            assert!(
                matches!(
                    build_jobs(&PAPER_CLIENTS, &config),
                    Err(EdaError::InvalidConfig { .. })
                ),
                "scale {scale}"
            );
        }
        config.placement_scale = 1.0;
        let mut over = PAPER_CLIENTS[0];
        over.train_placements = MAX_PLACEMENTS + 1 - over.test_placements;
        assert!(build_jobs(&[over], &config).is_err(), "one over the cap");
        for (clients, designs) in [(2, MAX_PLACEMENTS + 1), (usize::MAX, usize::MAX)] {
            let universe = UniverseConfig::new(clients, designs);
            assert!(
                matches!(
                    universe_specs(&config, &universe),
                    Err(EdaError::InvalidConfig { .. })
                ),
                "{clients} clients, {designs} designs"
            );
        }
    }

    #[test]
    fn universe_corpus_generates_end_to_end() {
        let config = CorpusConfig::tiny();
        let universe = UniverseConfig::new(5, 12);
        let specs = universe_specs(&config, &universe).unwrap();
        let corpus =
            generate_corpus_for_specs_with(&specs, &config, Parallelism::serial()).unwrap();
        assert_eq!(corpus.clients.len(), 5);
        for (c, spec) in corpus.clients.iter().zip(&specs) {
            assert_eq!(c.spec, *spec);
            // tiny scale: one placement per design.
            assert_eq!(c.train.len(), spec.train_designs);
            assert_eq!(c.test.len(), spec.test_designs);
        }
        assert!(generate_corpus_for_specs_with(&[], &config, Parallelism::serial()).is_err());
    }

    #[test]
    fn corpus_totals_scale() {
        let corpus = generate_corpus(&CorpusConfig::tiny()).unwrap();
        assert_eq!(corpus.total_train(), 50); // Σ train designs
        assert_eq!(corpus.total_test(), 24); // Σ test designs
    }
}
