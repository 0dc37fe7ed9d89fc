//! Synthetic EDA data substrate for the decentralized routability
//! estimation reproduction.
//!
//! The paper trains on 7,131 placements of 74 real designs (ISCAS'89,
//! ITC'99, IWLS'05, ISPD'15) pushed through Design Compiler + Innovus on
//! NanGate45. Neither the commercial flow nor the resulting label data is
//! redistributable, so this crate synthesizes the closest statistical
//! equivalent end to end:
//!
//! 1. [`Family`] — per-benchmark-suite generation profiles with
//!    deliberately *different* distributions (cell counts, Rent exponent,
//!    fanout, macro fraction, routing capacity). Inter-family difference is
//!    the source of the client-level data heterogeneity the paper's
//!    federated experiments exercise.
//! 2. [`netlist`] — clustered random netlists honoring the family profile.
//! 3. [`placement`] — a seeded anchor-plus-spreading placer; different
//!    [`placement::PlacementConfig`]s yield the "multiple placement
//!    solutions per design" of the paper's §5.1.
//! 4. [`congestion`] — probabilistic L-shape global routing demand plus
//!    RUDY, the supply/demand model behind both features and labels.
//! 5. [`features`] — the c-channel input tensor (cell density, pin
//!    density, macro blockage, RUDY, fly-lines), following the feature
//!    menu of §4.4.
//! 6. [`drc`] — ground-truth hotspot maps from capacity overflow with
//!    family-specific capacity and noise.
//! 7. [`dataset`] / [`corpus`] — per-client datasets reproducing the
//!    paper's Table 2 design/placement assignment.
//! 8. [`shard`] — the streaming out-of-core path: the same corpus
//!    generated straight into versioned, CRC'd binary shard files (one
//!    per `(client, split)`) with bounded memory, and read back in
//!    seekable chunks.
//!
//! # Example: in-memory generation
//!
//! ```
//! use rte_eda::corpus::{CorpusConfig, generate_corpus};
//!
//! let mut config = CorpusConfig::tiny(); // minimal counts for tests
//! config.seed = 7;
//! let corpus = generate_corpus(&config)?;
//! assert_eq!(corpus.clients.len(), 9);
//! # Ok::<(), rte_eda::EdaError>(())
//! ```
//!
//! # Example: corpus write → stream read round trip
//!
//! The streaming path writes the *same bytes* the in-memory generator
//! would produce — here client 2's first training sample is read back
//! from disk and compared bit for bit:
//!
//! ```
//! use rte_eda::corpus::{generate_corpus, CorpusConfig};
//! use rte_eda::shard::{CorpusReader, CorpusWriter};
//!
//! let dir = std::env::temp_dir().join(format!("rte-doc-{}", std::process::id()));
//! let config = CorpusConfig::tiny();
//!
//! // Stream the Table 2 corpus to per-(client, split) shard files,
//! // holding at most 8 placements in memory at a time.
//! CorpusWriter::new(&dir).with_chunk(8).write(&config)?;
//!
//! // Open the directory and stream a chunk back.
//! let reader = CorpusReader::open(&dir)?;
//! assert_eq!(reader.clients().len(), 9);
//! let first = reader.clients()[1].train.read_sample(0)?;
//!
//! // Bit-identical to the in-memory generator's output.
//! let corpus = generate_corpus(&config)?;
//! assert_eq!(first, corpus.clients[1].train.samples()[0]);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), rte_eda::EdaError>(())
//! ```

// The workspace denies `unsafe_code`; the single scoped exception in
// this crate is [`mmap`], which carries its own `#![allow]` plus the
// rte-lint L1 allowlist entry and per-site SAFETY comments.
// Belt and braces: the workspace lint table already warns on missing
// docs, but this crate's public surface is the streaming format other
// tools must interoperate with, so the requirement is restated locally.
#![warn(missing_docs)]

pub mod congestion;
pub mod corpus;
pub mod dataset;
pub mod drc;
mod error;
mod family;
pub mod features;
pub mod mmap;
pub mod netlist;
pub mod placement;
pub mod shard;

pub use error::{EdaError, ShardError};
pub use family::{Family, FamilyMix, FamilyProfile};
