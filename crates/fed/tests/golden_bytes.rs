//! Golden bytes for every binary envelope the federation puts on a wire
//! or a disk: one encoded frame, one `Deploy`, one `Update` and one
//! `SecureUpdate` payload, one FLNet state dict, one checkpoint.
//!
//! The fixtures under `tests/fixtures/` were written by the encoders of
//! commit `fbcf548` (PR 11, the last one with the bytewise CRC and the
//! staged serializers) from exactly the inputs built below. The tests
//! assert that today's encoders reproduce them byte for byte and that
//! today's decoders read them back — "no byte changed" as a checked
//! property, not a sentence in a PR description. The `SecureUpdate`
//! fixture came later, written by the masked-update encoder of the commit
//! before the shared `rte_codec` reader replaced its decoder. To regenerate after a
//! deliberate format change, write the `*_bytes()` values below to the
//! fixture paths and say so in the change.

use rte_fed::checkpoint::{decode_checkpoint, encode_checkpoint};
use rte_fed::wire::{Message, KIND_DEPLOY, KIND_SECURE_UPDATE, KIND_UPDATE};
use rte_fed::{mask_update, Checkpoint, SecureConfig};
use rte_net::Frame;
use rte_nn::models::{FlNet, FlNetConfig};
use rte_nn::serialize::{read_state_dict, write_state_dict};
use rte_nn::{state_dict, StateDict};
use rte_tensor::rng::Xoshiro256;

const FRAME: &[u8] = include_bytes!("fixtures/frame.bin");
const DEPLOY: &[u8] = include_bytes!("fixtures/deploy_payload.bin");
const UPDATE: &[u8] = include_bytes!("fixtures/update_payload.bin");
const STATE: &[u8] = include_bytes!("fixtures/flnet_state.bin");
const CHECKPOINT: &[u8] = include_bytes!("fixtures/checkpoint.bin");
const SECURE_UPDATE: &[u8] = include_bytes!("fixtures/secure_update_payload.bin");

/// A small FLNet's parameters from a fixed seed: six tensors from 1 to
/// 2304 elements, so the largest spans several of the serializer's
/// 1024-element blocks and ends mid-block.
fn flnet_state() -> StateDict {
    let config = FlNetConfig {
        in_channels: 2,
        hidden: 16,
        kernel: 3,
        depth: 3,
    };
    let mut model = FlNet::new(config, &mut Xoshiro256::seed_from(1));
    state_dict(&mut model)
}

fn frame() -> Frame {
    let mut frame = Frame::new(3, 7, 42, b"hello, federation".to_vec());
    frame.flags = 0xA5;
    frame
}

fn deploy() -> Message {
    Message::Deploy {
        round: 3,
        steps: 5,
        participants: vec![0, 2, 7],
        state: flnet_state(),
    }
}

fn update() -> Message {
    Message::Update {
        round: 3,
        client: 2,
        loss: 0.625,
        state: flnet_state(),
    }
}

/// Client 1 of three, masked against clients 0 and 2: every word is a
/// quantized weight plus one pair stream minus the other.
fn secure_update() -> Message {
    Message::SecureUpdate {
        round: 3,
        client: 1,
        loss: 0.625,
        masked: mask_update(
            &flnet_state(),
            2.0,
            1,
            &[0, 1, 2],
            3,
            &SecureConfig::default(),
        ),
    }
}

fn checkpoint() -> Checkpoint {
    Checkpoint {
        round: 7,
        seq: 99,
        digest: 0x0123_4567_89AB_CDEF,
        state: flnet_state(),
    }
}

#[test]
fn frame_bytes_are_golden() {
    assert_eq!(frame().encode().unwrap(), FRAME);
    let (back, used) = Frame::decode(FRAME).unwrap();
    assert_eq!(used, FRAME.len());
    assert_eq!(back, frame());
    // The stream reader sees the same bytes the slice decoder does.
    assert_eq!(Frame::read_from(&mut &FRAME[..]).unwrap(), frame());
    let mut streamed = Vec::new();
    frame().write_to(&mut streamed).unwrap();
    assert_eq!(streamed, FRAME);
}

#[test]
fn deploy_and_update_payloads_are_golden() {
    for (message, kind, golden) in [
        (deploy(), KIND_DEPLOY, DEPLOY),
        (update(), KIND_UPDATE, UPDATE),
    ] {
        let frame = message.clone().into_frame(0, 11).unwrap();
        assert_eq!(frame.kind, kind);
        assert_eq!(&frame.payload[..], golden);
        let from_disk = Frame::new(kind, 0, 11, golden.to_vec());
        assert_eq!(Message::from_frame(&from_disk).unwrap(), message);
    }
}

#[test]
fn secure_update_payload_is_golden() {
    let frame = secure_update().into_frame(1, 4).unwrap();
    assert_eq!(frame.kind, KIND_SECURE_UPDATE);
    assert_eq!(&frame.payload[..], SECURE_UPDATE);
    let from_disk = Frame::new(KIND_SECURE_UPDATE, 1, 4, SECURE_UPDATE.to_vec());
    assert_eq!(Message::from_frame(&from_disk).unwrap(), secure_update());
}

#[test]
fn state_dict_bytes_are_golden() {
    let mut bytes = Vec::new();
    write_state_dict(&mut bytes, &flnet_state()).unwrap();
    assert_eq!(bytes, STATE);
    assert_eq!(read_state_dict(STATE).unwrap(), flnet_state());
}

#[test]
fn checkpoint_bytes_are_golden() {
    assert_eq!(encode_checkpoint(&checkpoint()).unwrap(), CHECKPOINT);
    assert_eq!(decode_checkpoint(CHECKPOINT, None).unwrap(), checkpoint());
}
