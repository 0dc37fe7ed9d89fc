//! Wire layer for decentralized federated training.
//!
//! The paper's premise is *decentralized private data*; this crate is
//! the part that actually moves bytes between parties:
//!
//! - [`frame`] — a length-prefixed, CRC'd, versioned frame format with
//!   the same hostile-bytes hardening discipline as `rte_eda::shard`
//!   (magic, header CRC, documented caps, typed errors, no panics),
//! - [`transport`] — the [`Transport`] trait with an in-process channel
//!   backend and a Unix-domain-socket backend, plus the wall-clock
//!   [`FanIn`] used only by the non-deterministic async opt-out,
//! - [`clock`] — the seeded [`VirtualClock`] / [`EventQueue`] machinery
//!   behind determinism contract rule 8, and the sanctioned
//!   [`WallClock`] opt-out,
//! - [`chaos`] — the seeded fault-injection decorator behind
//!   determinism contract rule 9: [`ChaosTransport`] drops, duplicates,
//!   reorders, corrupts, and delays frames from per-`(direction, seq)`
//!   RNG streams, so a failure schedule replays bitwise,
//! - [`retry`] — [`RetryPolicy`], seeded-jitter exponential backoff for
//!   the callers who must survive that chaos,
//! - [`error`] — typed [`NetError`]s for every failure mode.
//!
//! The crate depends only on the `rte-codec` leaf (the CRC-32 it shares
//! with the shard format) — it cannot even see tensors; `rte_fed::wire`
//! layers the federated message vocabulary on top of these frames.

// Pure safe Rust; all workspace `unsafe` lives in `rte_tensor::simd`
// (rte-lint rule L1 enforces this).
#![forbid(unsafe_code)]
// This crate is a public API surface; restate the workspace doc lint.
#![warn(missing_docs)]

pub mod chaos;
pub mod clock;
pub mod error;
pub mod frame;
pub mod retry;
pub mod transport;

pub use chaos::{ChaosConfig, ChaosStats, ChaosTransport};
pub use clock::{EventQueue, SplitMix64, VirtualClock, WallClock};
pub use error::NetError;
pub use frame::{crc32, Frame, Payload, FRAME_MAGIC, FRAME_VERSION, MAX_FRAME_LEN, PRELUDE_LEN};
pub use retry::RetryPolicy;
pub use transport::{ChannelTransport, FanIn, Transport};
#[cfg(unix)]
pub use transport::{UdsListener, UdsTransport};
