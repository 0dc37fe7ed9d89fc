//! Typed errors for the wire layer.
//!
//! Every hostile-bytes condition the frame decoder can meet maps to one
//! of these variants — the decoder never panics, hangs, or silently
//! accepts a damaged frame (`tests/frame_hostile.rs` drives this with
//! random corruption).

use std::error::Error;
use std::fmt;

use rte_codec::CodecError;

/// Error produced by frame encoding/decoding or a transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The first eight bytes are not the frame magic — this is not a
    /// frame stream (or the stream lost sync).
    BadMagic,
    /// The frame speaks a format version this build does not.
    UnsupportedVersion {
        /// The version the frame claimed.
        got: u32,
    },
    /// The header checksum does not match the header bytes: the prelude
    /// was damaged in flight, so none of its fields can be trusted.
    HeaderCrc,
    /// The payload checksum does not match the payload bytes.
    PayloadCrc,
    /// The input ended before the structure it promised was complete.
    Truncated {
        /// Which part of the frame was cut short.
        context: &'static str,
    },
    /// A declared length exceeds the documented cap — rejected before
    /// any allocation is attempted.
    Oversize {
        /// The declared length.
        len: u64,
        /// The documented maximum.
        max: u64,
    },
    /// An underlying I/O operation failed (socket error, reset peer).
    Io {
        /// The OS-level message.
        reason: String,
    },
    /// The peer hung up: the channel or socket is closed.
    Closed,
    /// A deadline elapsed before the operation completed. The peer may
    /// still be alive — callers decide whether to retry, re-send, or
    /// give the slot up (quorum degradation).
    Timeout,
    /// The bytes were structurally valid but violated the conversation's
    /// protocol (unexpected kind, wrong round, duplicate hello).
    Protocol {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::BadMagic => write!(f, "bad frame magic"),
            NetError::UnsupportedVersion { got } => {
                write!(f, "unsupported frame version {got}")
            }
            NetError::HeaderCrc => write!(f, "frame header checksum mismatch"),
            NetError::PayloadCrc => write!(f, "frame payload checksum mismatch"),
            NetError::Truncated { context } => write!(f, "truncated frame: {context}"),
            NetError::Oversize { len, max } => {
                write!(f, "declared length {len} exceeds the {max}-byte cap")
            }
            NetError::Io { reason } => write!(f, "transport I/O error: {reason}"),
            NetError::Closed => write!(f, "transport closed by peer"),
            NetError::Timeout => write!(f, "deadline elapsed before the operation completed"),
            NetError::Protocol { reason } => write!(f, "protocol violation: {reason}"),
        }
    }
}

impl Error for NetError {}

/// The shared codec's failures keep their frame variants and messages.
impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { field, .. } => NetError::Truncated { context: field },
            CodecError::BadMagic => NetError::BadMagic,
            CodecError::HeaderCrc => NetError::HeaderCrc,
            CodecError::UnsupportedVersion { got } => NetError::UnsupportedVersion { got },
            CodecError::Oversize { len, max } => NetError::Oversize { len, max },
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => NetError::Truncated {
                context: "stream ended mid-frame",
            },
            // A socket read/write deadline elapsing surfaces as either
            // kind depending on the platform; both mean "deadline", not
            // "peer gone".
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => NetError::Timeout,
            _ => NetError::Io {
                reason: e.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_every_variant() {
        let cases: Vec<(NetError, &str)> = vec![
            (NetError::BadMagic, "magic"),
            (NetError::UnsupportedVersion { got: 9 }, "version 9"),
            (NetError::HeaderCrc, "header"),
            (NetError::PayloadCrc, "payload"),
            (NetError::Truncated { context: "prelude" }, "prelude"),
            (NetError::Oversize { len: 10, max: 5 }, "cap"),
            (NetError::Io { reason: "x".into() }, "I/O"),
            (NetError::Closed, "closed"),
            (NetError::Timeout, "deadline"),
            (NetError::Protocol { reason: "y".into() }, "protocol"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn eof_maps_to_truncated() {
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(NetError::from(eof), NetError::Truncated { .. }));
        let other = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe");
        assert!(matches!(NetError::from(other), NetError::Io { .. }));
    }

    #[test]
    fn socket_deadline_kinds_map_to_timeout() {
        for kind in [std::io::ErrorKind::WouldBlock, std::io::ErrorKind::TimedOut] {
            let e = std::io::Error::new(kind, "deadline");
            assert_eq!(NetError::from(e), NetError::Timeout);
        }
    }
}
