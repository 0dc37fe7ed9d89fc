//! Pairwise-masked secure aggregation with exact fixed-point arithmetic.
//!
//! The paper's clients refuse to share raw data; this module also hides
//! individual *updates*. Each pair of participants `(i, j)` with
//! `i < j` derives a shared mask stream from the public secure seed;
//! client `i` adds the stream to its quantized update and client `j`
//! subtracts it. In the sum over the full participant set every mask
//! appears exactly once with `+` and once with `-`, so they cancel
//! *identically* — not approximately — because the arithmetic is
//! integer, wrapping mod 2^64.
//!
//! Exactness argument: floats are quantized as
//! `q = round(x · w_k · 2^scale_bits)` into `i64` (then reinterpreted
//! `u64`). Wrapping addition mod 2^64 is commutative and associative,
//! so the masked sum equals the unmasked sum for *any* arrival-order
//! permutation and *any* participant subset the masks were generated
//! over. The coordinator dequantizes once, which makes the secure path
//! bit-identical to the plain quantized path. If the received set
//! differs from the mask set (a dropped client), the masks do *not*
//! cancel; the coordinator detects this before summing and surfaces a
//! typed [`FedError::SecureAggregation`] instead of a silently-wrong
//! aggregate.

use rte_codec::{push_u32, push_u64, Reader};
use rte_nn::StateDict;
use rte_tensor::rng::Xoshiro256;
use rte_tensor::Tensor;

use crate::FedError;

/// Configuration for pairwise-masked aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecureConfig {
    /// Public seed the pairwise mask streams derive from. All
    /// participants and the coordinator must agree on it.
    pub seed: u64,
    /// Fixed-point precision: values are scaled by `2^scale_bits`
    /// before rounding. 20 bits keeps |x·w| < 2^43 exact for fleets in
    /// this repo's range while leaving headroom in `i64`.
    pub scale_bits: u32,
}

impl Default for SecureConfig {
    fn default() -> Self {
        SecureConfig {
            seed: 0x5EC0_AEE5,
            scale_bits: 20,
        }
    }
}

impl SecureConfig {
    /// The fixed-point scale factor `2^scale_bits`.
    pub fn scale(&self) -> f64 {
        (1u64 << self.scale_bits) as f64
    }
}

/// One client's quantized (and possibly masked) update planes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedUpdate {
    /// Fleet position of the producing client.
    pub client: u32,
    /// Round the masks were derived for.
    pub round: u64,
    /// Per-parameter planes: name, tensor dims, quantized words in
    /// row-major order.
    pub entries: Vec<(String, Vec<usize>, Vec<u64>)>,
}

/// Caps mirroring `rte_nn::serialize` — a forged header must not drive
/// allocation.
const MAX_ENTRIES: u64 = 1 << 16;
const MAX_NAME_LEN: u64 = 1 << 12;
const MAX_RANK: u64 = 16;
const MAX_WORDS: u64 = 1 << 24;

impl MaskedUpdate {
    /// Appends the wire encoding of this update to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        push_u32(buf, self.client);
        push_u64(buf, self.round);
        push_u64(buf, self.entries.len() as u64);
        for (name, dims, words) in &self.entries {
            push_u64(buf, name.len() as u64);
            buf.extend_from_slice(name.as_bytes());
            push_u64(buf, dims.len() as u64);
            for &d in dims {
                push_u64(buf, d as u64);
            }
            push_u64(buf, words.len() as u64);
            for &w in words {
                push_u64(buf, w);
            }
        }
    }

    /// Decodes an update from `bytes`, rejecting truncation, trailing
    /// garbage, and forged counts with typed errors.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::Transport`] on any structural defect.
    pub fn decode(bytes: &[u8]) -> Result<MaskedUpdate, FedError> {
        fn capped(what: &str, got: u64, cap: u64) -> FedError {
            FedError::Transport {
                reason: format!("masked update {what} {got} exceeds cap {cap}"),
            }
        }
        let mut r = Reader::new(bytes, "masked update");
        let client = r.u32("client id")?;
        let round = r.u64("round")?;
        let n_entries = r.u64("entry count")?;
        if n_entries > MAX_ENTRIES {
            return Err(capped("entry count", n_entries, MAX_ENTRIES));
        }
        let mut entries = Vec::with_capacity(n_entries as usize);
        for _ in 0..n_entries {
            let name_len = r.u64("name length")?;
            if name_len > MAX_NAME_LEN {
                return Err(capped("name length", name_len, MAX_NAME_LEN));
            }
            let name_bytes = r.take(name_len as usize, "name bytes")?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| FedError::Transport {
                    reason: "masked update name is not UTF-8".into(),
                })?
                .to_string();
            let rank = r.u64("rank")?;
            if rank > MAX_RANK {
                return Err(capped("rank", rank, MAX_RANK));
            }
            let mut dims = Vec::with_capacity(rank as usize);
            let mut elems: u64 = 1;
            for _ in 0..rank {
                let d = r.u64("dim")?;
                elems = elems
                    .checked_mul(d)
                    .ok_or_else(|| capped("element count", u64::MAX, MAX_WORDS))?;
                dims.push(d as usize);
            }
            let n_words = r.u64("word count")?;
            if n_words > MAX_WORDS {
                return Err(capped("word count", n_words, MAX_WORDS));
            }
            if n_words != elems {
                return Err(FedError::Transport {
                    reason: format!(
                        "masked update word count {n_words} does not match shape \
                         ({elems} elements)"
                    ),
                });
            }
            let mut words = Vec::with_capacity(n_words as usize);
            for _ in 0..n_words {
                words.push(r.u64("word")?);
            }
            entries.push((name, dims, words));
        }
        if !r.rest().is_empty() {
            return Err(FedError::Transport {
                reason: "masked update carries unexpected trailing bytes".into(),
            });
        }
        Ok(MaskedUpdate {
            client,
            round,
            entries,
        })
    }
}

/// Quantizes one weighted float value into a wrapping word.
fn quantize(x: f32, weight: f64, scale: f64) -> u64 {
    ((x as f64 * weight * scale).round() as i64) as u64
}

/// The shared mask stream for the ordered pair `(i, j)` in `round`.
///
/// Both endpoints derive the identical stream from the public secure
/// seed; `i` adds it, `j` subtracts it, so the pair contributes zero to
/// the sum over the full participant set.
fn pair_stream(cfg: &SecureConfig, round: u64, i: u32, j: u32) -> Xoshiro256 {
    Xoshiro256::seed_from(cfg.seed)
        .derive(round)
        .derive(i as u64)
        .derive(j as u64)
}

/// Quantizes `state` (scaled by `weight`) without masking. This is the
/// reference path: secure aggregation is *exact* when the masked sum
/// equals the sum of these plain updates bit-for-bit.
pub fn plain_update(
    state: &StateDict,
    weight: f64,
    client: u32,
    round: u64,
    cfg: &SecureConfig,
) -> MaskedUpdate {
    let scale = cfg.scale();
    let entries = state
        .iter()
        .map(|(name, tensor)| {
            let words = tensor
                .data()
                .iter()
                .map(|&x| quantize(x, weight, scale))
                .collect();
            (name.clone(), tensor.shape().dims().to_vec(), words)
        })
        .collect();
    MaskedUpdate {
        client,
        round,
        entries,
    }
}

/// Quantizes `state` and applies the pairwise masks for `me` over
/// `participants` (0-based fleet indices, any order; masks are derived
/// per ordered pair, so order does not matter).
pub fn mask_update(
    state: &StateDict,
    weight: f64,
    me: u32,
    participants: &[u32],
    round: u64,
    cfg: &SecureConfig,
) -> MaskedUpdate {
    let mut update = plain_update(state, weight, me, round, cfg);
    for &other in participants {
        if other == me {
            continue;
        }
        let (i, j) = if me < other { (me, other) } else { (other, me) };
        let mut stream = pair_stream(cfg, round, i, j);
        // Client i adds the stream, client j subtracts it.
        let add = me == i;
        for (_, _, words) in &mut update.entries {
            for w in words.iter_mut() {
                let m = stream.next_u64();
                *w = if add {
                    w.wrapping_add(m)
                } else {
                    w.wrapping_sub(m)
                };
            }
        }
    }
    update
}

/// The running sum of one round's masked updates, fed one update at a
/// time. Wrapping addition is commutative and associative, so the fold
/// is the sum over the set whatever order the updates arrive in; the
/// mask-set check waits for [`MaskedSum::finish`], once every update is
/// in. [`aggregate_masked`] is this fold over a slice.
#[derive(Debug, Clone)]
pub struct MaskedSum {
    /// The mask set, sorted.
    expected: Vec<u32>,
    /// The clients added so far, in arrival order.
    received: Vec<u32>,
    /// The first update's round and the running per-plane sums.
    sums: Option<(u64, Planes)>,
}

/// Per-plane name, dims and words, as in [`MaskedUpdate::entries`].
type Planes = Vec<(String, Vec<usize>, Vec<u64>)>;

impl MaskedSum {
    /// An empty sum over updates masked for `participants`.
    pub fn new(participants: &[u32]) -> Self {
        let mut expected = participants.to_vec();
        expected.sort_unstable();
        MaskedSum {
            expected,
            received: Vec::new(),
            sums: None,
        }
    }

    /// Adds `update`'s words to the sum.
    ///
    /// # Errors
    ///
    /// - [`FedError::SecureAggregation`] when its round differs from the
    ///   first update's.
    /// - [`FedError::AggregationMismatch`] when its planes differ from
    ///   the first update's.
    pub fn add(&mut self, update: &MaskedUpdate) -> Result<(), FedError> {
        self.received.push(update.client);
        let Some((round, sums)) = &mut self.sums else {
            self.sums = Some((update.round, update.entries.clone()));
            return Ok(());
        };
        if update.round != *round {
            return Err(FedError::SecureAggregation {
                reason: format!(
                    "mixed rounds in aggregation: client {} sent round {} \
                     (expected {round})",
                    update.client, update.round
                ),
            });
        }
        if update.entries.len() != sums.len() {
            return Err(FedError::AggregationMismatch {
                reason: format!(
                    "client {} sent {} planes, expected {}",
                    update.client,
                    update.entries.len(),
                    sums.len()
                ),
            });
        }
        for ((name, dims, acc), (other_name, other_dims, words)) in
            sums.iter_mut().zip(&update.entries)
        {
            if name != other_name || dims != other_dims {
                return Err(FedError::AggregationMismatch {
                    reason: format!(
                        "client {} plane {other_name} does not match {name}",
                        update.client
                    ),
                });
            }
            for (a, w) in acc.iter_mut().zip(words) {
                *a = a.wrapping_add(*w);
            }
        }
        Ok(())
    }

    /// Dequantizes the sum into a weighted-mean state dict.
    ///
    /// `weight_sum` is the sum of the participating clients' aggregation
    /// weights (the same denominator the plain weighted mean uses).
    ///
    /// # Errors
    ///
    /// [`FedError::SecureAggregation`] when nothing was added, when the
    /// added client set differs from the mask set (unresolved masks), or
    /// for a non-positive weight sum.
    pub fn finish(self, weight_sum: f64, cfg: &SecureConfig) -> Result<StateDict, FedError> {
        let Some((_, sums)) = self.sums else {
            return Err(FedError::SecureAggregation {
                reason: "no updates to aggregate".into(),
            });
        };
        let expected = self.expected;
        let mut received = self.received;
        received.sort_unstable();
        if expected != received {
            let missing: Vec<u32> = expected
                .iter()
                .copied()
                .filter(|c| !received.contains(c))
                .collect();
            let unexpected: Vec<u32> = received
                .iter()
                .copied()
                .filter(|c| !expected.contains(c))
                .collect();
            return Err(FedError::SecureAggregation {
                reason: format!(
                    "received clients {received:?} do not match mask set \
                     {expected:?} (missing {missing:?}, unexpected {unexpected:?}); \
                     pairwise masks cannot cancel"
                ),
            });
        }
        if weight_sum <= 0.0 {
            return Err(FedError::SecureAggregation {
                reason: format!("non-positive weight sum {weight_sum}"),
            });
        }
        let denom = cfg.scale() * weight_sum;
        let mut out = StateDict::with_capacity(sums.len());
        for (name, dims, words) in sums {
            let data: Vec<f32> = words
                .iter()
                .map(|&w| ((w as i64) as f64 / denom) as f32)
                .collect();
            let tensor = Tensor::from_vec(data, &dims)?;
            out.push((name, tensor));
        }
        Ok(out)
    }
}

/// Sums masked updates and dequantizes into a weighted-mean state dict:
/// [`MaskedSum`] fed from a slice.
///
/// `weight_sum` is the sum of the participating clients' aggregation
/// weights (the same denominator the plain weighted mean uses).
///
/// # Errors
///
/// - [`FedError::SecureAggregation`] when the received client set
///   differs from `participants` (unresolved masks), or when the set is
///   empty or rounds disagree.
/// - [`FedError::AggregationMismatch`] when entry structure differs
///   between clients.
pub fn aggregate_masked(
    updates: &[MaskedUpdate],
    participants: &[u32],
    weight_sum: f64,
    cfg: &SecureConfig,
) -> Result<StateDict, FedError> {
    let mut sum = MaskedSum::new(participants);
    for update in updates {
        sum.add(update)?;
    }
    sum.finish(weight_sum, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sd(seed: u64) -> StateDict {
        let mut rng = Xoshiro256::seed_from(seed);
        vec![
            (
                "w".into(),
                Tensor::from_fn(&[3, 2], |_| rng.uniform() - 0.5),
            ),
            ("b".into(), Tensor::from_fn(&[3], |_| rng.uniform() - 0.5)),
        ]
    }

    #[test]
    fn masked_update_codec_round_trips() {
        let cfg = SecureConfig::default();
        let u = mask_update(&sd(1), 2.0, 0, &[0, 1, 2], 5, &cfg);
        let mut buf = Vec::new();
        u.encode_into(&mut buf);
        let back = MaskedUpdate::decode(&buf).unwrap();
        assert_eq!(back, u);
        // Truncation at every byte boundary is a typed error, never a panic.
        for cut in 0..buf.len() {
            assert!(MaskedUpdate::decode(&buf[..cut]).is_err(), "cut {cut}");
        }
        buf.push(0);
        assert!(MaskedUpdate::decode(&buf).is_err());
    }

    #[test]
    fn masks_cancel_exactly() {
        let cfg = SecureConfig::default();
        let parts: Vec<u32> = vec![0, 1, 2, 3];
        let states: Vec<StateDict> = (0..4).map(|k| sd(k as u64 + 10)).collect();
        let weights = [1.0, 3.0, 2.0, 5.0];
        let weight_sum: f64 = weights.iter().sum();

        let masked: Vec<MaskedUpdate> = parts
            .iter()
            .map(|&k| mask_update(&states[k as usize], weights[k as usize], k, &parts, 7, &cfg))
            .collect();
        let plain: Vec<MaskedUpdate> = parts
            .iter()
            .map(|&k| plain_update(&states[k as usize], weights[k as usize], k, 7, &cfg))
            .collect();

        let a = aggregate_masked(&masked, &parts, weight_sum, &cfg).unwrap();
        let b = aggregate_masked(&plain, &parts, weight_sum, &cfg).unwrap();
        assert_eq!(a.len(), b.len());
        for ((an, at), (bn, bt)) in a.iter().zip(&b) {
            assert_eq!(an, bn);
            for (x, y) in at.data().iter().zip(bt.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn dropped_client_is_a_typed_error() {
        let cfg = SecureConfig::default();
        let parts: Vec<u32> = vec![0, 1, 2];
        let masked: Vec<MaskedUpdate> = [0u32, 1]
            .iter()
            .map(|&k| mask_update(&sd(k as u64), 1.0, k, &parts, 0, &cfg))
            .collect();
        let err = aggregate_masked(&masked, &parts, 2.0, &cfg).unwrap_err();
        assert!(matches!(err, FedError::SecureAggregation { .. }), "{err}");
        assert!(err.to_string().contains("missing [2]"), "{err}");
    }
}
