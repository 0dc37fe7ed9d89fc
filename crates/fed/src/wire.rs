//! The federated message vocabulary on top of [`rte_net`] frames.
//!
//! A federated round is an exchange of serialized parameter sets: the
//! coordinator deploys the global state, clients answer with trained
//! updates (plain or secure-masked), and a shutdown closes the session.
//! This module owns the mapping between typed [`Message`]s and opaque
//! [`Frame`]s — kinds, payload codecs, and the typed errors for every
//! way a structurally-valid frame can still be the wrong message.
//!
//! State dicts travel in the `rte_nn::serialize` format (magic,
//! defensive caps), so the payload codec inherits the same hardening as
//! the rest of the workspace's binary surfaces.

use rte_codec::{push_u32, push_u64, Reader};
use rte_net::{Frame, NetError, Transport};
use rte_nn::serialize::{append_state_dict, read_state_dict_slice, state_dict_encoded_len};
use rte_nn::StateDict;

use crate::secure::MaskedUpdate;
use crate::FedError;

/// Frame kind: client introduces itself (`client`, `weight`).
pub const KIND_HELLO: u8 = 1;
/// Frame kind: coordinator deploys a global state for local training.
pub const KIND_DEPLOY: u8 = 2;
/// Frame kind: client returns a plain trained update.
pub const KIND_UPDATE: u8 = 3;
/// Frame kind: client returns a secure-masked quantized update.
pub const KIND_SECURE_UPDATE: u8 = 4;
/// Frame kind: coordinator ends the session.
pub const KIND_SHUTDOWN: u8 = 5;

/// One typed federated message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client's opening message: who it is and its aggregation weight.
    Hello {
        /// Fleet position (0-based index into the client list).
        client: u32,
        /// Aggregation weight `n_k` (training sample count).
        weight: u64,
    },
    /// Coordinator → client: train from this state.
    Deploy {
        /// Dispatch identifier: the communication round in sync mode,
        /// the dispatch sequence number in async mode. Feeds the
        /// per-`(round, client)` training RNG stream on the client.
        round: u64,
        /// Local gradient steps to run.
        steps: u64,
        /// This round's participant set, in coordinator order (0-based
        /// fleet indices). Secure aggregation derives pairwise masks
        /// over exactly this set.
        participants: Vec<u32>,
        /// The global parameters to start from.
        state: StateDict,
    },
    /// Client → coordinator: a plain trained update.
    Update {
        /// Echo of the deploy's `round`.
        round: u64,
        /// Fleet position of the sender.
        client: u32,
        /// Mean local training loss.
        loss: f32,
        /// The locally trained parameters.
        state: StateDict,
    },
    /// Client → coordinator: a secure-masked quantized update.
    SecureUpdate {
        /// Echo of the deploy's `round`.
        round: u64,
        /// Fleet position of the sender.
        client: u32,
        /// Mean local training loss (losses are not masked — the paper's
        /// privacy boundary is the parameters).
        loss: f32,
        /// The masked fixed-point planes.
        masked: MaskedUpdate,
    },
    /// Coordinator → client: the run is over.
    Shutdown,
}

/// Cap on a wire participant list — no real fleet is larger, and a
/// forged count must not drive allocation.
const MAX_PARTICIPANTS: u64 = 1 << 20;

fn decode_state(bytes: &[u8]) -> Result<StateDict, FedError> {
    read_state_dict_slice(bytes).map_err(|e| FedError::Transport {
        reason: format!("state dict decode failed: {e}"),
    })
}

/// A deploy's payload, serialized straight into its final buffer.
fn deploy_payload(round: u64, steps: u64, participants: &[u32], state: &StateDict) -> Vec<u8> {
    let mut buf = Vec::with_capacity(24 + 4 * participants.len() + state_dict_encoded_len(state));
    push_u64(&mut buf, round);
    push_u64(&mut buf, steps);
    push_u64(&mut buf, participants.len() as u64);
    for p in participants {
        push_u32(&mut buf, *p);
    }
    append_state_dict(&mut buf, state);
    buf
}

/// Encodes a deploy from borrowed parts — no `Message`, so no clone of
/// the state. The round engines build one of these per round and send
/// it to every participant (and again on a retry) with only `seq`
/// changed: the frame's payload is shared, not copied or re-checksummed.
pub fn deploy_frame(
    round: u64,
    steps: u64,
    participants: &[u32],
    state: &StateDict,
    sender: u32,
    seq: u64,
) -> Frame {
    let payload = deploy_payload(round, steps, participants, state);
    Frame::new(KIND_DEPLOY, sender, seq, payload)
}

impl Message {
    /// The frame kind this message encodes to.
    pub fn kind(&self) -> u8 {
        match self {
            Message::Hello { .. } => KIND_HELLO,
            Message::Deploy { .. } => KIND_DEPLOY,
            Message::Update { .. } => KIND_UPDATE,
            Message::SecureUpdate { .. } => KIND_SECURE_UPDATE,
            Message::Shutdown => KIND_SHUTDOWN,
        }
    }

    /// Encodes this message into a frame from `sender` with `seq`.
    ///
    /// # Errors
    ///
    /// None today: every payload encodes into memory, and an over-cap
    /// one is refused when a transport encodes the frame. The `Result`
    /// is what callers already handle.
    pub fn into_frame(self, sender: u32, seq: u64) -> Result<Frame, FedError> {
        let kind = self.kind();
        let payload = match self {
            Message::Hello { client, weight } => {
                let mut buf = Vec::with_capacity(12);
                push_u32(&mut buf, client);
                push_u64(&mut buf, weight);
                buf
            }
            Message::Deploy {
                round,
                steps,
                participants,
                state,
            } => deploy_payload(round, steps, &participants, &state),
            Message::Update {
                round,
                client,
                loss,
                state,
            } => {
                let mut buf = Vec::with_capacity(16 + state_dict_encoded_len(&state));
                push_u64(&mut buf, round);
                push_u32(&mut buf, client);
                push_u32(&mut buf, loss.to_bits());
                append_state_dict(&mut buf, &state);
                buf
            }
            Message::SecureUpdate {
                round,
                client,
                loss,
                masked,
            } => {
                let mut buf = Vec::new();
                push_u64(&mut buf, round);
                push_u32(&mut buf, client);
                push_u32(&mut buf, loss.to_bits());
                masked.encode_into(&mut buf);
                buf
            }
            Message::Shutdown => Vec::new(),
        };
        Ok(Frame::new(kind, sender, seq, payload))
    }

    /// Decodes a frame back into a typed message.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::Transport`] for unknown kinds, truncated
    /// payloads, or trailing garbage.
    pub fn from_frame(frame: &Frame) -> Result<Message, FedError> {
        let mut r = Reader::new(&frame.payload, "message payload");
        match frame.kind {
            KIND_HELLO => {
                let client = r.u32("hello client")?;
                let weight = r.u64("hello weight")?;
                expect_empty(r, "hello")?;
                Ok(Message::Hello { client, weight })
            }
            KIND_DEPLOY => {
                let round = r.u64("deploy round")?;
                let steps = r.u64("deploy steps")?;
                let n = r.u64("deploy participant count")?;
                if n > MAX_PARTICIPANTS {
                    return Err(FedError::Transport {
                        reason: format!("deploy claims {n} participants (cap {MAX_PARTICIPANTS})"),
                    });
                }
                let mut participants = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    participants.push(r.u32("deploy participant")?);
                }
                let state = decode_state(r.rest())?;
                Ok(Message::Deploy {
                    round,
                    steps,
                    participants,
                    state,
                })
            }
            KIND_UPDATE => {
                let round = r.u64("update round")?;
                let client = r.u32("update client")?;
                let loss = r.f32("update loss")?;
                let state = decode_state(r.rest())?;
                Ok(Message::Update {
                    round,
                    client,
                    loss,
                    state,
                })
            }
            KIND_SECURE_UPDATE => {
                let round = r.u64("secure update round")?;
                let client = r.u32("secure update client")?;
                let loss = r.f32("secure update loss")?;
                let masked = MaskedUpdate::decode(r.rest())?;
                Ok(Message::SecureUpdate {
                    round,
                    client,
                    loss,
                    masked,
                })
            }
            KIND_SHUTDOWN => {
                expect_empty(r, "shutdown")?;
                Ok(Message::Shutdown)
            }
            other => Err(FedError::Transport {
                reason: format!("unknown frame kind {other}"),
            }),
        }
    }
}

fn expect_empty(r: Reader<'_>, what: &str) -> Result<(), FedError> {
    if r.rest().is_empty() {
        Ok(())
    } else {
        Err(FedError::Transport {
            reason: format!("{what} message carries unexpected trailing bytes"),
        })
    }
}

/// Sends `message` over `transport` as `sender` with `seq`.
///
/// # Errors
///
/// Returns [`FedError::Transport`] for encode or transport failures.
pub fn send_message<T: Transport>(
    transport: &mut T,
    message: Message,
    sender: u32,
    seq: u64,
) -> Result<(), FedError> {
    let frame = message.into_frame(sender, seq)?;
    transport.send(&frame).map_err(net_err)
}

/// Receives and decodes the next message, returning it with the
/// sender's id.
///
/// # Errors
///
/// Returns [`FedError::Transport`] for decode or transport failures.
pub fn recv_message<T: Transport>(transport: &mut T) -> Result<(u32, Message), FedError> {
    let frame = transport.recv().map_err(net_err)?;
    let message = Message::from_frame(&frame)?;
    Ok((frame.sender, message))
}

/// Receives and decodes the next message with a deadline: a peer that
/// stays silent past `deadline` is a typed
/// [`FedError::Transport`] timeout, never an infinite wedge. Every
/// coordinator-side read goes through this path.
///
/// # Errors
///
/// Returns [`FedError::Transport`] for decode, transport, or deadline
/// failures.
pub fn recv_message_within<T: Transport>(
    transport: &mut T,
    deadline: std::time::Duration,
) -> Result<(u32, Message), FedError> {
    let frame = transport.recv_timeout(deadline).map_err(net_err)?;
    let message = Message::from_frame(&frame)?;
    Ok((frame.sender, message))
}

/// Maps a wire-layer error into the federated error space, preserving
/// its typed rendering.
pub fn net_err(e: NetError) -> FedError {
    FedError::Transport {
        reason: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rte_tensor::Tensor;

    fn sd() -> StateDict {
        vec![
            ("conv.weight".into(), Tensor::from_fn(&[2, 3], |i| i as f32)),
            ("conv.bias".into(), Tensor::full(&[2], -0.5)),
        ]
    }

    #[test]
    fn every_message_round_trips() {
        let cases = vec![
            Message::Hello {
                client: 4,
                weight: 17,
            },
            Message::Deploy {
                round: 3,
                steps: 5,
                participants: vec![0, 2, 7],
                state: sd(),
            },
            Message::Update {
                round: 3,
                client: 2,
                loss: 0.625,
                state: sd(),
            },
            Message::Shutdown,
        ];
        for (i, msg) in cases.into_iter().enumerate() {
            let frame = msg.clone().into_frame(9, i as u64).unwrap();
            assert_eq!(frame.sender, 9);
            assert_eq!(frame.seq, i as u64);
            let back = Message::from_frame(&frame).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn unknown_kind_is_typed() {
        let frame = Frame::new(99, 0, 0, Vec::new());
        let err = Message::from_frame(&frame).unwrap_err();
        assert!(matches!(err, FedError::Transport { .. }), "{err}");
        assert!(err.to_string().contains("kind 99"));
    }

    #[test]
    fn truncated_payload_is_typed() {
        let frame = Message::Update {
            round: 1,
            client: 0,
            loss: 0.0,
            state: sd(),
        }
        .into_frame(1, 0)
        .unwrap();
        for cut in [0usize, 4, 11] {
            let hurt = Frame::new(frame.kind, 1, 0, frame.payload[..cut].to_vec());
            let err = Message::from_frame(&hurt).unwrap_err();
            assert!(
                matches!(err, FedError::Transport { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let frame = Message::Hello {
            client: 0,
            weight: 1,
        }
        .into_frame(0, 0)
        .unwrap();
        let mut payload = frame.payload.to_vec();
        payload.push(0xFF);
        let hurt = Frame::new(frame.kind, 0, 0, payload);
        assert!(Message::from_frame(&hurt).is_err());
        // A state dict ends a deploy or an update: bytes after it are
        // refused too.
        let with_state = [
            Message::Deploy {
                round: 3,
                steps: 5,
                participants: vec![0, 2, 7],
                state: sd(),
            },
            Message::Update {
                round: 3,
                client: 2,
                loss: 0.625,
                state: sd(),
            },
        ];
        for message in with_state {
            let frame = message.into_frame(1, 0).unwrap();
            assert!(Message::from_frame(&frame).is_ok());
            let mut payload = frame.payload.to_vec();
            payload.push(0xFF);
            let err = Message::from_frame(&Frame::new(frame.kind, 1, 0, payload)).unwrap_err();
            assert!(err.to_string().contains("trailing"), "{err}");
        }
    }

    #[test]
    fn forged_participant_count_is_capped() {
        let mut buf = Vec::new();
        push_u64(&mut buf, 1);
        push_u64(&mut buf, 1);
        push_u64(&mut buf, u64::MAX); // forged count
        let frame = Frame::new(KIND_DEPLOY, 0, 0, buf);
        let err = Message::from_frame(&frame).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    /// A frame whose CRCs are right says nothing about the state dict
    /// inside it: whatever a peer puts there must come back as a typed
    /// error (or, with no checksum at this layer, a different message) —
    /// never a panic (`rte_nn`'s `state_dict_hostile.rs`, seen through
    /// the message codec).
    #[test]
    fn hostile_state_dicts_are_typed_through_from_frame() {
        let messages = [
            Message::Deploy {
                round: 3,
                steps: 5,
                participants: vec![0, 2, 7],
                state: sd(),
            },
            Message::Update {
                round: 3,
                client: 2,
                loss: 0.625,
                state: sd(),
            },
        ];
        for message in messages {
            let kind = message.kind();
            let good = message.into_frame(1, 0).unwrap().payload.to_vec();
            for cut in 0..good.len() {
                let hurt = Frame::new(kind, 1, 0, good[..cut].to_vec());
                let err = Message::from_frame(&hurt).unwrap_err();
                assert!(
                    matches!(err, FedError::Transport { .. }),
                    "cut {cut}: {err}"
                );
            }
            for at in 0..good.len() {
                for mask in [0x01, 0x80, 0xFF] {
                    let mut bytes = good.clone();
                    bytes[at] ^= mask;
                    match Message::from_frame(&Frame::new(kind, 1, 0, bytes)) {
                        Ok(_) | Err(FedError::Transport { .. }) => {}
                        Err(e) => panic!("flip {mask:#04x} at {at}: {e}"),
                    }
                }
            }
        }
        // A ~70-byte update whose single entry declares extents that
        // overflow, or 2^28 elements it does not carry.
        for dims in [[u64::MAX, 2], [1 << 14, 1 << 14]] {
            let mut buf = Vec::new();
            push_u64(&mut buf, 1); // round
            push_u32(&mut buf, 0); // client
            push_u32(&mut buf, 0); // loss
            buf.extend_from_slice(b"RTESD1\0\0");
            push_u64(&mut buf, 1); // one entry
            push_u64(&mut buf, 1); // name length
            buf.push(b'w');
            push_u64(&mut buf, 2); // rank
            push_u64(&mut buf, dims[0]);
            push_u64(&mut buf, dims[1]);
            let err = Message::from_frame(&Frame::new(KIND_UPDATE, 1, 0, buf)).unwrap_err();
            assert!(
                err.to_string().contains("state dict decode failed"),
                "{err}"
            );
        }
    }

    #[test]
    fn messages_flow_over_a_channel_transport() {
        let (mut a, mut b) = rte_net::ChannelTransport::pair();
        send_message(
            &mut a,
            Message::Hello {
                client: 1,
                weight: 2,
            },
            1,
            0,
        )
        .unwrap();
        let (sender, msg) = recv_message(&mut b).unwrap();
        assert_eq!(sender, 1);
        assert_eq!(
            msg,
            Message::Hello {
                client: 1,
                weight: 2
            }
        );
    }
}
