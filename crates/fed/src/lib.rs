//! Federated-learning framework for the decentralized routability
//! estimation reproduction.
//!
//! Implements the paper's §4 training machinery on top of `rte-nn`:
//!
//! - [`params`] — weighted state-dict aggregation (the developer's
//!   server-side step in Fig. 1) plus the partition/arithmetic helpers the
//!   personalization methods need,
//! - [`LocalTrainer`] — client-side minibatch Adam with the FedProx
//!   proximal term of Eq. 1,
//! - [`eval`] — the parallel multi-metric evaluation subsystem:
//!   [`EvalReport`] (ROC AUC + average precision + confusion at the 0.5
//!   deployment threshold + score histograms) and the [`Evaluator`] that
//!   fans per-client evaluation out to worker threads,
//! - [`methods`] — the eight training methods of Tables 3-5:
//!   local baselines, centralized training, FedProx, FedProx-LG, IFCA,
//!   FedProx + fine-tuning, assigned clustering and α-portion sync; the
//!   six round-based ones are configurations of the [`engine`],
//! - [`scenario`] — hostile-client scenario injection: per-client data
//!   poisoning and Byzantine update corruption, per-round availability
//!   traces, and the tolerant [`run_scenario`] grid runner whose robust
//!   defenses ([`Aggregation::Median`], [`Aggregation::TrimmedMean`])
//!   live in [`params`],
//! - [`stream`] — bounded-memory data feeding: every [`ClientSet`] is a
//!   [`StreamingClientSet`] over a [`RecordSource`] (tensors in memory,
//!   or shard files), so every method trains and evaluates a corpus
//!   that never fits in memory bit-identically to one that does,
//! - [`engine`] — the one synchronous round loop (select → exchange →
//!   advance the deployment → record → hook), parameterized by the
//!   exchange (in process, or over links under a [`FaultPolicy`]), the
//!   aggregation stage (plain or masked) and the deployment (FedProx's
//!   one global state, or one state per client or per cluster for the
//!   personalized methods): [`methods::fedprox_rounds`] in process,
//!   [`run_link_rounds`] over any `rte_net` [`rte_net::Transport`],
//!   bit-identical to each other when nothing fails,
//! - [`wire`] / [`federation`] — the client half of a link-side round:
//!   typed [`wire::Message`]s on hardened frames, the [`ClientSession`]
//!   that answers deploys with trained updates, and the in-process
//!   [`LocalLink`],
//! - [`secure`] — pairwise-masked secure aggregation with exact
//!   fixed-point arithmetic (the coordinator recovers only the sum),
//! - [`fedasync`] — buffered staleness-weighted asynchronous rounds
//!   over the engine's link collect, on a seeded virtual clock
//!   (determinism rule 8) or, as the opt-out, on the wall clock,
//! - [`resilient`] — what a link-side run is configured with and
//!   reports: [`FaultPolicy`] (per-client deadlines, seeded retries,
//!   quorum), typed [`RoundEvent`]s for missing clients (survivors
//!   reweight deterministically), [`ResumePoint`] / [`RoundHook`] —
//!   built to pair with `rte_net`'s seeded [`rte_net::ChaosTransport`]
//!   (determinism rule 9),
//! - [`checkpoint`] — versioned CRC'd coordinator checkpoints written
//!   atomically, so a killed run resumes bit-identically.
//!
//! The default simulation is single-process: clients are [`Client`]
//! values holding private train/test splits (each read from its own
//! record source), and "communication" is the movement of
//! [`rte_nn::StateDict`]s — mirroring the restriction that only model
//! parameters, never data, leave a client. The `rte-coordinator` /
//! `rte-client` binaries run the same rounds across real process
//! boundaries over Unix-domain sockets.
//!
//! # Example: a minimal end-to-end federated run
//!
//! Two clients with learnable synthetic data, a tiny FLNet, and two
//! FedProx communication rounds — the full pipeline in miniature:
//!
//! ```
//! use rte_fed::{methods, Client, ClientSet, FedConfig, Method, ModelFactory};
//! use rte_nn::models::{FlNet, FlNetConfig};
//! use rte_tensor::rng::Xoshiro256;
//! use rte_tensor::Tensor;
//!
//! // A client whose labels depend on feature channel 0 (so there is
//! // something to learn and both label classes are present).
//! fn client(id: usize, seed: u64) -> Result<Client, rte_fed::FedError> {
//!     let make = |salt: u64| -> Result<ClientSet, rte_fed::FedError> {
//!         let mut rng = Xoshiro256::seed_from(seed ^ salt);
//!         let x = Tensor::from_fn(&[4, 2, 8, 8], |_| rng.uniform());
//!         let mut y = Tensor::zeros(&[4, 1, 8, 8]);
//!         for n in 0..4 {
//!             for i in 0..64 {
//!                 let hot = x.data()[n * 128 + i] > 0.5;
//!                 y.data_mut()[n * 64 + i] = f32::from(u8::from(hot));
//!             }
//!         }
//!         ClientSet::new(x, y)
//!     };
//!     Ok(Client::new(id, make(0xA)?, make(0xB)?))
//! }
//!
//! let clients = vec![client(1, 7)?, client(2, 8)?];
//! let factory: ModelFactory = Box::new(|seed| {
//!     let mut rng = Xoshiro256::seed_from(seed);
//!     let config = FlNetConfig { in_channels: 2, hidden: 4, kernel: 3, depth: 2 };
//!     Box::new(FlNet::new(config, &mut rng))
//! });
//! let outcome = methods::run_method(
//!     Method::FedProx,
//!     &clients,
//!     &factory,
//!     &FedConfig::tiny(), // 2 rounds × 3 local steps
//! )?;
//! assert_eq!(outcome.per_client.len(), 2);
//! assert!(outcome.average_auc.is_finite());
//! # Ok::<(), rte_fed::FedError>(())
//! ```
//!
//! To stream the same run out-of-core, back each split with a
//! [`StreamingClientSet`] over another [`RecordSource`]
//! (`ClientSet::streaming`) — every method, and the example above,
//! behaves identically.

// Pure safe Rust; all workspace `unsafe` lives in `rte_tensor::simd`
// (rte-lint rule L1 enforces this).
#![forbid(unsafe_code)]
// Belt and braces: the workspace lint table already warns on missing
// docs, but this crate is the public federated API surface, so the
// requirement is restated locally.
#![warn(missing_docs)]

pub mod checkpoint;
mod client;
mod config;
pub mod cost;
pub mod engine;
mod error;
pub mod eval;
pub mod fedasync;
pub mod federation;
pub mod methods;
pub mod params;
pub mod resilient;
pub mod scenario;
pub mod secure;
pub mod stream;
mod trainer;
pub mod wire;

pub use checkpoint::{
    config_digest, latest_checkpoint, read_checkpoint, write_checkpoint, Checkpoint,
    CheckpointError,
};
pub use client::{Client, ClientSet};
pub use config::{Aggregation, FedConfig, Method};
pub use engine::run_link_rounds;
pub use error::FedError;
pub use eval::{evaluate_auc, evaluate_report, EvalReport, Evaluator};
pub use fedasync::{
    render_async_history, run_fedasync, run_fedasync_wall, AsyncConfig, AsyncRoundRecord,
};
pub use federation::{local_links, ClientSession, LocalLink, WireStats};
pub use methods::{MethodOutcome, RoundRecord};
pub use resilient::{
    run_rounds_resilient, FaultPolicy, ResilientOutcome, ResumePoint, RoundEvent, RoundHook,
};
pub use rte_tensor::parallel::Parallelism;
pub use scenario::{run_scenario, Attack, ScenarioConfig, ScenarioOutcome};
pub use secure::{aggregate_masked, mask_update, plain_update, MaskedUpdate, SecureConfig};
pub use stream::{RecordSource, StreamingClientSet};
pub use trainer::LocalTrainer;

use rte_nn::Layer;

/// Deterministic model constructor: maps a seed to a freshly initialized
/// model. All training methods build their models through one of these so
/// every client (and every cluster in IFCA) starts from an agreed
/// initialization.
///
/// `Send + Sync` because the round loop invokes the factory from worker
/// threads (one scratch model per worker) when
/// [`FedConfig::parallelism`] allows more than one thread.
pub type ModelFactory = Box<dyn Fn(u64) -> Box<dyn Layer> + Send + Sync>;
