//! Error type for the federated-learning framework.

use std::error::Error;
use std::fmt;

use rte_codec::CodecError;
use rte_metrics::MetricsError;
use rte_nn::NnError;
use rte_tensor::TensorError;

/// Error produced by federated training or evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FedError {
    /// A model operation failed.
    Nn(NnError),
    /// A tensor operation failed.
    Tensor(TensorError),
    /// A metric computation failed (e.g. single-class test split).
    Metrics(MetricsError),
    /// A federated configuration was invalid.
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// State dicts to aggregate were structurally incompatible.
    AggregationMismatch {
        /// Human-readable reason.
        reason: String,
    },
    /// A streaming data source failed mid-read (I/O error, checksum
    /// mismatch, out-of-range chunk).
    Stream {
        /// Human-readable reason (carries the storage layer's message).
        reason: String,
    },
    /// A wire-layer operation failed: frame damage, a closed peer, or a
    /// protocol violation (unexpected kind, wrong round, bad client id).
    /// Carries the transport layer's typed message.
    Transport {
        /// Human-readable reason (the `NetError`'s rendering).
        reason: String,
    },
    /// Secure aggregation could not complete exactly: the received
    /// update set differs from the participant set the pairwise masks
    /// were generated over, so the masks do not cancel. Surfaced as a
    /// typed error instead of a silently-wrong aggregate.
    SecureAggregation {
        /// What went wrong (which clients are missing or unexpected).
        reason: String,
    },
    /// A resilient round ended with fewer surviving updates than the
    /// configured quorum — the coordinator refuses to aggregate a
    /// minority and aborts with the shortfall spelled out.
    QuorumLost {
        /// The round that fell short.
        round: usize,
        /// Updates that actually arrived.
        got: usize,
        /// The round's quorum: the configured `min_quorum`, or every
        /// participant under secure aggregation.
        need: usize,
    },
    /// A checkpoint file could not be written, read, or validated.
    /// Carries the checkpoint layer's typed message ([`crate::checkpoint`]).
    Checkpoint {
        /// Human-readable reason (the `CheckpointError`'s rendering).
        reason: String,
    },
    /// One client's deployed model produced degenerate test scores
    /// (typically NaN logits after training blew up under attack). The
    /// federation as a whole is fine — tolerant callers render this as a
    /// "diverged" grid cell instead of aborting the run.
    ClientDiverged {
        /// Position of the diverged client in the harness' client list.
        client: usize,
        /// What the metrics layer rejected (e.g. "scores contain NaN").
        reason: String,
    },
}

impl fmt::Display for FedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FedError::Nn(e) => write!(f, "model error: {e}"),
            FedError::Tensor(e) => write!(f, "tensor error: {e}"),
            FedError::Metrics(e) => write!(f, "metrics error: {e}"),
            FedError::InvalidConfig { reason } => write!(f, "invalid config: {reason}"),
            FedError::AggregationMismatch { reason } => {
                write!(f, "aggregation mismatch: {reason}")
            }
            FedError::Stream { reason } => write!(f, "streaming error: {reason}"),
            FedError::Transport { reason } => write!(f, "transport error: {reason}"),
            FedError::SecureAggregation { reason } => {
                write!(f, "secure aggregation failed: {reason}")
            }
            FedError::QuorumLost { round, got, need } => {
                write!(
                    f,
                    "round {round} lost quorum: {got} of {need} required updates arrived"
                )
            }
            FedError::Checkpoint { reason } => write!(f, "checkpoint error: {reason}"),
            FedError::ClientDiverged { client, reason } => {
                write!(f, "client {client} diverged: {reason}")
            }
        }
    }
}

impl Error for FedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FedError::Nn(e) => Some(e),
            FedError::Tensor(e) => Some(e),
            FedError::Metrics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for FedError {
    fn from(e: NnError) -> Self {
        FedError::Nn(e)
    }
}

impl From<TensorError> for FedError {
    fn from(e: TensorError) -> Self {
        FedError::Tensor(e)
    }
}

impl From<MetricsError> for FedError {
    fn from(e: MetricsError) -> Self {
        FedError::Metrics(e)
    }
}

/// A message payload that failed the shared byte codec: a wire error
/// with the codec's rendering (`truncated masked update: word`).
impl From<CodecError> for FedError {
    fn from(e: CodecError) -> Self {
        FedError::Transport {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: FedError = NnError::StateDictMismatch { reason: "x".into() }.into();
        assert!(e.to_string().contains("model error"));
        assert!(Error::source(&e).is_some());

        let e: FedError = MetricsError::NanScore.into();
        assert!(e.to_string().contains("metrics"));

        let e = FedError::InvalidConfig {
            reason: "rounds = 0".into(),
        };
        assert!(e.to_string().contains("rounds = 0"));
        assert!(Error::source(&e).is_none());

        let e = FedError::ClientDiverged {
            client: 3,
            reason: "scores contain NaN".into(),
        };
        assert_eq!(e.to_string(), "client 3 diverged: scores contain NaN");
        assert!(Error::source(&e).is_none());

        let e = FedError::QuorumLost {
            round: 4,
            got: 1,
            need: 3,
        };
        assert_eq!(
            e.to_string(),
            "round 4 lost quorum: 1 of 3 required updates arrived"
        );

        let e = FedError::Checkpoint {
            reason: "bad magic".into(),
        };
        assert!(e.to_string().contains("checkpoint"));
    }
}
