//! High-level experiment orchestration for the decentralized routability
//! estimation reproduction (DAC 2022).
//!
//! Glues the workspace together: generates the Table 2 corpus
//! (`rte-eda`), converts it into federated clients (`rte-fed`), builds the
//! requested estimator (`rte-nn`), runs any subset of the paper's eight
//! training methods, and renders the per-client ROC AUC tables in the
//! paper's layout.
//!
//! # Example
//!
//! ```no_run
//! use rte_core::{ExperimentConfig, run_table};
//! use rte_nn::models::ModelKind;
//!
//! let config = ExperimentConfig::scaled();
//! let table = run_table(ModelKind::FlNet, &config)?;
//! println!("{}", rte_core::report::render_table(&table));
//! # Ok::<(), rte_core::CoreError>(())
//! ```

// Pure safe Rust; all workspace `unsafe` lives in `rte_tensor::simd`
// and `rte_eda::mmap` (rte-lint rule L1 enforces this).
#![forbid(unsafe_code)]

mod error;
mod experiment;
pub mod report;

pub use error::CoreError;
pub use experiment::{
    build_clients, build_experiment_client, build_experiment_clients, build_streaming_clients,
    mmap_shard_client_set, model_factory, run_method_on_clients, run_table, shard_client_set,
    transport_config, transport_config_with_rounds, ExperimentConfig, ShardBackend, TableResult,
};
