//! State-dict arithmetic: the server side of federated learning.
//!
//! The developer in the paper's Fig. 1 computes
//! `W^{r+1} = Σ_k (n_k / n) · w_k^r`; [`WeightedMean`] implements
//! exactly that over [`StateDict`]s as a fold a round feeds one update
//! at a time, and [`weighted_average`] runs it over a slice. The personalization methods build on
//! the same primitives: [`partition`] splits a dict into global/local
//! parts for FedProx-LG, and [`blend`] mixes a client's own parameters
//! with the rest-of-fleet average for α-portion sync.
//!
//! For federations with clients the server cannot trust,
//! [`coordinate_median`] and [`trimmed_mean`] provide Byzantine-robust
//! alternatives, and [`aggregate`] dispatches on
//! [`Aggregation`]. All reductions here are
//! **fixed-order and coordinator-only** (determinism-contract rule 2):
//! per-coordinate values are gathered in client order and sorted with a
//! NaN-last total order, so results are bit-identical at any thread
//! count and no input — finite, infinite or NaN — can panic the server.

use std::cmp::Ordering;

use rte_nn::StateDict;
use rte_tensor::Tensor;

use crate::config::Aggregation;
use crate::FedError;

fn check_compatible(a: &StateDict, b: &StateDict) -> Result<(), FedError> {
    if a.len() != b.len() {
        return Err(FedError::AggregationMismatch {
            reason: format!("entry counts {} vs {}", a.len(), b.len()),
        });
    }
    for ((na, ta), (nb, tb)) in a.iter().zip(b.iter()) {
        if na != nb {
            return Err(FedError::AggregationMismatch {
                reason: format!("entry names {na} vs {nb}"),
            });
        }
        if ta.shape() != tb.shape() {
            return Err(FedError::AggregationMismatch {
                reason: format!("{na}: shapes {} vs {}", ta.shape(), tb.shape()),
            });
        }
    }
    Ok(())
}

/// The paper's aggregation `Σ_k (w_k / total) · dict_k` as a fold, fed
/// one dict at a time: the one implementation of the weighted mean.
///
/// `total` is the weight sum of every dict the mean will take, known
/// before the first one arrives (a round's weights are fixed by who
/// takes part). Each [`WeightedMean::add`] scales by
/// `alpha_k = (w_k / total) as f32` and accumulates with `axpy` onto a
/// zero-initialized sum, so the same dicts added in the same order give
/// the same bits however they arrive — from a slice
/// ([`weighted_average`]) or one at a time while other clients still
/// train.
#[derive(Debug, Clone)]
pub struct WeightedMean {
    total: f64,
    sum: Option<StateDict>,
}

impl WeightedMean {
    /// An empty mean whose weights will sum to `total`.
    pub fn new(total: f64) -> Self {
        WeightedMean { total, sum: None }
    }

    /// Folds `dict`, with weight `weight`, into the mean.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] for a non-positive total and
    /// [`FedError::AggregationMismatch`] when `dict` disagrees
    /// structurally with the first dict added.
    pub fn add(&mut self, dict: &StateDict, weight: f64) -> Result<(), FedError> {
        if self.total <= 0.0 {
            return Err(FedError::InvalidConfig {
                reason: format!("non-positive total weight {}", self.total),
            });
        }
        let sum = self.sum.get_or_insert_with(|| {
            dict.iter()
                .map(|(name, t)| (name.clone(), Tensor::zeros(t.shape().dims())))
                .collect()
        });
        check_compatible(sum, dict)?;
        let alpha = (weight / self.total) as f32;
        for (acc, (_, t)) in sum.iter_mut().zip(dict) {
            acc.1.axpy(alpha, t)?;
        }
        Ok(())
    }

    /// The mean, or `None` when no dict was added.
    pub fn finish(self) -> Option<StateDict> {
        self.sum
    }
}

/// Weighted average of state dicts: `Σ_i weights[i] · dicts[i]` with the
/// weights normalized to sum to 1 — [`WeightedMean`] fed from a slice.
///
/// # Errors
///
/// Returns [`FedError::AggregationMismatch`] if the dicts disagree
/// structurally, or [`FedError::InvalidConfig`] for empty input or
/// non-positive total weight.
///
/// # Example
///
/// ```
/// use rte_fed::params::weighted_average;
/// use rte_tensor::Tensor;
///
/// let a = vec![("w".to_string(), Tensor::full(&[2], 0.0))];
/// let b = vec![("w".to_string(), Tensor::full(&[2], 1.0))];
/// let avg = weighted_average(&[(&a, 1.0), (&b, 3.0)])?;
/// assert_eq!(avg[0].1.data(), &[0.75, 0.75]);
/// # Ok::<(), rte_fed::FedError>(())
/// ```
pub fn weighted_average(entries: &[(&StateDict, f64)]) -> Result<StateDict, FedError> {
    let mut mean = WeightedMean::new(entries.iter().map(|(_, w)| w).sum());
    for (dict, weight) in entries {
        mean.add(dict, *weight)?;
    }
    mean.finish().ok_or_else(|| FedError::InvalidConfig {
        reason: "weighted_average of zero dicts".into(),
    })
}

/// NaN-last total order for the robust reductions: finite values and
/// ±inf compare by IEEE order, NaN (either sign bit) sorts after
/// everything — so sorting can never panic, and NaN values land at the
/// top end where median/trimming keep them away from the result as long
/// as they are a minority.
fn nan_last(a: f32, b: f32) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        // Both non-NaN: partial_cmp is total.
        (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
    }
}

/// Shared frame of the coordinate-wise reductions: checks structural
/// compatibility, then maps every coordinate's client-ordered value
/// vector through `reduce` (which receives it sorted by [`nan_last`]).
fn coordinate_reduce(
    dicts: &[&StateDict],
    what: &str,
    reduce: impl Fn(&[f32]) -> f32,
) -> Result<StateDict, FedError> {
    let first = dicts.first().ok_or_else(|| FedError::InvalidConfig {
        reason: format!("{what} of zero dicts"),
    })?;
    for dict in dicts.iter().skip(1) {
        check_compatible(first, dict)?;
    }
    let mut column = vec![0.0f32; dicts.len()];
    let mut out = StateDict::with_capacity(first.len());
    for (e, (name, t)) in first.iter().enumerate() {
        let mut acc = Tensor::zeros(t.shape().dims());
        for i in 0..t.data().len() {
            for (j, dict) in dicts.iter().enumerate() {
                column[j] = dict[e].1.data()[i];
            }
            column.sort_by(|a, b| nan_last(*a, *b));
            acc.data_mut()[i] = reduce(&column);
        }
        out.push((name.clone(), acc));
    }
    Ok(out)
}

/// Coordinate-wise median of state dicts — the classic Byzantine-robust
/// aggregation rule. Client weights are deliberately ignored: a hostile
/// client could inflate its sample count, so robust rules treat every
/// update as one vote.
///
/// Each coordinate's values are sorted with a NaN-last total order; odd
/// counts take the middle element, even counts the midpoint of the two
/// middle elements (one fixed expression, so results are bit-identical
/// across runs). As long as strictly more than half of the inputs are
/// finite at a coordinate, the result there is finite.
///
/// # Errors
///
/// Returns [`FedError::InvalidConfig`] for empty input and
/// [`FedError::AggregationMismatch`] for structurally incompatible dicts.
pub fn coordinate_median(dicts: &[&StateDict]) -> Result<StateDict, FedError> {
    coordinate_reduce(dicts, "coordinate_median", |sorted| {
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) * 0.5
        }
    })
}

/// Coordinate-wise trimmed mean: per coordinate, drop the
/// `⌊trim_ratio · K⌋` smallest and largest values (NaN sorts last, so
/// NaN is trimmed first) and average the survivors in ascending sorted
/// order — a fixed-order reduction like everything else in this module.
/// Client weights are ignored, as in [`coordinate_median`].
///
/// The trim count is clamped so at least one value always survives.
///
/// # Errors
///
/// Returns [`FedError::InvalidConfig`] for empty input or a trim ratio
/// outside `[0, 0.5)`, and [`FedError::AggregationMismatch`] for
/// structurally incompatible dicts.
pub fn trimmed_mean(dicts: &[&StateDict], trim_ratio: f32) -> Result<StateDict, FedError> {
    Aggregation::TrimmedMean { trim_ratio }.validate()?;
    let n = dicts.len();
    let trim = ((trim_ratio as f64 * n as f64).floor() as usize).min(n.saturating_sub(1) / 2);
    coordinate_reduce(dicts, "trimmed_mean", |sorted| {
        let kept = &sorted[trim..sorted.len() - trim];
        let mut acc = 0.0f32;
        for &v in kept {
            acc += v;
        }
        acc / kept.len() as f32
    })
}

/// Dispatches one round's server-side aggregation on the configured
/// [`Aggregation`] rule. The weights in `entries` are honored by
/// [`Aggregation::WeightedMean`] and deliberately ignored by the robust
/// rules (see [`coordinate_median`]).
///
/// # Errors
///
/// See [`weighted_average`], [`coordinate_median`] and [`trimmed_mean`].
pub fn aggregate(entries: &[(&StateDict, f64)], rule: Aggregation) -> Result<StateDict, FedError> {
    match rule {
        Aggregation::WeightedMean => weighted_average(entries),
        Aggregation::Median => {
            let dicts: Vec<&StateDict> = entries.iter().map(|(d, _)| *d).collect();
            coordinate_median(&dicts)
        }
        Aggregation::TrimmedMean { trim_ratio } => {
            let dicts: Vec<&StateDict> = entries.iter().map(|(d, _)| *d).collect();
            trimmed_mean(&dicts, trim_ratio)
        }
    }
}

/// Splits a state dict into `(matching, rest)` by a name predicate.
///
/// FedProx-LG uses this with `is_local = |name| name.starts_with("output_conv")`
/// to keep the output layer private per client.
pub fn partition(dict: &StateDict, is_local: impl Fn(&str) -> bool) -> (StateDict, StateDict) {
    let mut local = StateDict::new();
    let mut global = StateDict::new();
    for (name, t) in dict {
        if is_local(name) {
            local.push((name.clone(), t.clone()));
        } else {
            global.push((name.clone(), t.clone()));
        }
    }
    (local, global)
}

/// Overwrites the entries of `dict` whose names appear in `updates`.
///
/// # Errors
///
/// Returns [`FedError::AggregationMismatch`] if an update name is missing
/// from `dict` or shapes disagree.
pub fn apply_updates(dict: &mut StateDict, updates: &StateDict) -> Result<(), FedError> {
    for (name, t) in updates {
        let slot = dict.iter_mut().find(|(n, _)| n == name).ok_or_else(|| {
            FedError::AggregationMismatch {
                reason: format!("no entry named {name}"),
            }
        })?;
        if slot.1.shape() != t.shape() {
            return Err(FedError::AggregationMismatch {
                reason: format!("{name}: shapes {} vs {}", slot.1.shape(), t.shape()),
            });
        }
        slot.1 = t.clone();
    }
    Ok(())
}

/// Convex blend `alpha · a + (1 − alpha) · b`, the α-portion sync update.
///
/// # Errors
///
/// Returns [`FedError::AggregationMismatch`] if the dicts disagree, or
/// [`FedError::InvalidConfig`] if `alpha` is outside `[0, 1]`.
pub fn blend(a: &StateDict, b: &StateDict, alpha: f32) -> Result<StateDict, FedError> {
    if !(0.0..=1.0).contains(&alpha) {
        return Err(FedError::InvalidConfig {
            reason: format!("alpha {alpha} outside [0, 1]"),
        });
    }
    check_compatible(a, b)?;
    Ok(a.iter()
        .zip(b.iter())
        .map(|((name, ta), (_, tb))| {
            (
                name.clone(),
                ta.zip_with(tb, |x, y| alpha * x + (1.0 - alpha) * y),
            )
        })
        .collect())
}

/// Squared L2 distance between two state dicts (the FedProx proximal
/// radius `‖W^r − w_k‖²`).
///
/// # Errors
///
/// Returns [`FedError::AggregationMismatch`] if the dicts disagree.
pub fn l2_distance_sq(a: &StateDict, b: &StateDict) -> Result<f64, FedError> {
    check_compatible(a, b)?;
    let mut total = 0.0f64;
    for ((_, ta), (_, tb)) in a.iter().zip(b.iter()) {
        for (&x, &y) in ta.data().iter().zip(tb.data().iter()) {
            let d = (x - y) as f64;
            total += d * d;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict(v: f32) -> StateDict {
        vec![
            ("a/weight".into(), Tensor::full(&[2, 2], v)),
            ("output_conv/weight".into(), Tensor::full(&[3], v * 2.0)),
        ]
    }

    #[test]
    fn weighted_average_normalizes() {
        let d1 = dict(0.0);
        let d2 = dict(4.0);
        let avg = weighted_average(&[(&d1, 3.0), (&d2, 1.0)]).unwrap();
        assert_eq!(avg[0].1.data(), &[1.0; 4]);
        assert_eq!(avg[1].1.data(), &[2.0; 3]);
    }

    #[test]
    fn weighted_average_single_is_identity() {
        let d = dict(2.5);
        let avg = weighted_average(&[(&d, 7.0)]).unwrap();
        assert_eq!(avg, d);
    }

    #[test]
    fn weighted_average_rejects_mismatch() {
        let d1 = dict(1.0);
        let mut d2 = dict(1.0);
        d2[0].0 = "renamed".into();
        assert!(weighted_average(&[(&d1, 1.0), (&d2, 1.0)]).is_err());
        let mut d3 = dict(1.0);
        d3[0].1 = Tensor::zeros(&[5]);
        assert!(weighted_average(&[(&d1, 1.0), (&d3, 1.0)]).is_err());
        assert!(weighted_average(&[]).is_err());
        assert!(weighted_average(&[(&d1, 0.0)]).is_err());
    }

    /// Client `k`'s update: 37 + 5 values (vector bodies and scalar
    /// tails), seeded noise with −0.0, subnormals, ±inf and NaN planted
    /// at client-dependent coordinates.
    fn hostile_update(k: usize) -> StateDict {
        let specials = [
            -0.0,
            f32::MIN_POSITIVE / 8.0,
            -f32::from_bits(1),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut rng = rte_tensor::rng::Xoshiro256::seed_from(40 + k as u64);
        let mut plane = |len: usize| {
            let mut t = Tensor::from_fn(&[len], |_| rng.uniform() - 0.5);
            for (j, &v) in specials.iter().enumerate() {
                // Most coordinates hold a special value in only some
                // clients' updates, so finite sums meet them too.
                if !(k + j).is_multiple_of(3) {
                    t.data_mut()[(7 * j + k) % len] = v;
                }
            }
            t
        };
        vec![("a/weight".into(), plane(37)), ("b/bias".into(), plane(5))]
    }

    fn bits(dict: &StateDict) -> Vec<u32> {
        dict.iter()
            .flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits()))
            .collect()
    }

    /// A round's fold fed by ordered delivery while the workers still
    /// run gives the bits of the same fold fed serially, and of the
    /// slice form, at every thread count.
    #[test]
    fn fold_fed_from_ordered_delivery_matches_the_serial_fold() {
        use rte_tensor::parallel::{map_ordered, Parallelism};
        use std::sync::atomic::{AtomicUsize, Ordering};
        let clients: Vec<usize> = (0..9).collect();
        let weight = |k: usize| (3 + 5 * k % 7) as f64;
        let total: f64 = clients.iter().map(|&k| weight(k)).sum();
        let updates: Vec<StateDict> = clients.iter().map(|&k| hostile_update(k)).collect();
        let mut serial = WeightedMean::new(total);
        for (k, update) in updates.iter().enumerate() {
            serial.add(update, weight(k)).unwrap();
        }
        let serial = bits(&serial.finish().unwrap());
        let refs: Vec<(&StateDict, f64)> = updates
            .iter()
            .zip(clients.iter().map(|&k| weight(k)))
            .collect();
        assert_eq!(bits(&weighted_average(&refs).unwrap()), serial);
        for threads in [1, 2, 4, 7] {
            let mut folded = WeightedMean::new(total);
            let mut added = Ok(());
            let finished = AtomicUsize::new(0);
            map_ordered(
                Parallelism::new(threads),
                &clients,
                || (),
                |(), _, &k| {
                    // With workers, client 0 finishes last, so every
                    // later update waits for it.
                    if k > 0 {
                        finished.fetch_add(1, Ordering::SeqCst);
                    } else if threads > 1 {
                        while finished.load(Ordering::SeqCst) < clients.len() - 1 {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                    }
                    hostile_update(k)
                },
                |k, update| {
                    if added.is_ok() {
                        added = folded.add(&update, weight(k));
                    }
                },
            );
            added.unwrap();
            assert_eq!(bits(&folded.finish().unwrap()), serial, "{threads} threads");
        }
    }

    /// A degraded round holds its survivors' updates, then folds them
    /// over the survivors' weight sum: bitwise the aggregate the engine
    /// computed over the survivors before the fold existed — zeros, then
    /// `axpy((w / total) as f32, x)` per survivor in order.
    #[test]
    fn held_survivors_fold_to_the_collected_aggregate() {
        let weight = |k: usize| (2 + k) as f64;
        let survivors = [0usize, 2, 3, 6];
        let held: Vec<(StateDict, f64)> = survivors
            .iter()
            .map(|&k| (hostile_update(k), weight(k)))
            .collect();
        let total: f64 = held.iter().map(|(_, w)| w).sum();
        let mut fold = WeightedMean::new(total);
        for (update, w) in &held {
            fold.add(update, *w).unwrap();
        }
        let mut collected: StateDict = (held[0].0.iter())
            .map(|(name, t)| (name.clone(), Tensor::zeros(t.shape().dims())))
            .collect();
        for (update, w) in &held {
            let alpha = (*w / total) as f32;
            for (acc, (_, t)) in collected.iter_mut().zip(update) {
                acc.1.axpy(alpha, t).unwrap();
            }
        }
        let want = bits(&collected);
        assert_eq!(bits(&fold.finish().unwrap()), want);
        let refs: Vec<(&StateDict, f64)> = held.iter().map(|(d, w)| (d, *w)).collect();
        assert_eq!(
            bits(&aggregate(&refs, Aggregation::WeightedMean).unwrap()),
            want
        );
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        let honest1 = dict(1.0);
        let honest2 = dict(2.0);
        let hostile = dict(1e30);
        let med = coordinate_median(&[&honest1, &hostile, &honest2]).unwrap();
        assert_eq!(
            med[0].1.data(),
            &[2.0; 4],
            "outlier must not move the median"
        );
    }

    #[test]
    fn median_even_count_takes_midpoint() {
        let a = dict(1.0);
        let b = dict(3.0);
        let med = coordinate_median(&[&a, &b]).unwrap();
        assert_eq!(med[0].1.data(), &[2.0; 4]);
    }

    #[test]
    fn median_survives_nan_minority() {
        let mut poisoned = dict(5.0);
        for v in poisoned[0].1.data_mut() {
            *v = f32::NAN;
        }
        let a = dict(1.0);
        let b = dict(3.0);
        let med = coordinate_median(&[&poisoned, &a, &b]).unwrap();
        // NaN sorts last: the median of {1, 3, NaN} is 3.
        assert_eq!(med[0].1.data(), &[3.0; 4]);
        assert!(med
            .iter()
            .all(|(_, t)| t.data().iter().all(|v| v.is_finite())));
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let dicts = [dict(1.0), dict(2.0), dict(3.0), dict(-100.0), dict(100.0)];
        let refs: Vec<&StateDict> = dicts.iter().collect();
        let tm = trimmed_mean(&refs, 0.2).unwrap(); // trim 1 each end
        assert_eq!(tm[0].1.data(), &[2.0; 4]);
    }

    #[test]
    fn trimmed_mean_zero_ratio_is_unweighted_mean() {
        let dicts = [dict(1.0), dict(2.0), dict(6.0)];
        let refs: Vec<&StateDict> = dicts.iter().collect();
        let tm = trimmed_mean(&refs, 0.0).unwrap();
        assert_eq!(tm[0].1.data(), &[3.0; 4]);
    }

    #[test]
    fn trimmed_mean_rejects_bad_ratio_and_empty() {
        let d = dict(1.0);
        assert!(trimmed_mean(&[&d], 0.5).is_err());
        assert!(trimmed_mean(&[&d], -0.1).is_err());
        assert!(trimmed_mean(&[], 0.1).is_err());
        assert!(coordinate_median(&[]).is_err());
    }

    #[test]
    fn aggregate_dispatches_on_rule() {
        let a = dict(0.0);
        let b = dict(4.0);
        let entries = [(&a, 3.0), (&b, 1.0)];
        assert_eq!(
            aggregate(&entries, Aggregation::WeightedMean).unwrap(),
            weighted_average(&entries).unwrap()
        );
        // Robust rules ignore weights: median of {0, 4} is 2, not 1.
        let med = aggregate(&entries, Aggregation::Median).unwrap();
        assert_eq!(med[0].1.data(), &[2.0; 4]);
        let tm = aggregate(&entries, Aggregation::TrimmedMean { trim_ratio: 0.0 }).unwrap();
        assert_eq!(tm[0].1.data(), &[2.0; 4]);
    }

    #[test]
    fn robust_rules_reject_mismatched_dicts() {
        let d1 = dict(1.0);
        let mut d2 = dict(1.0);
        d2[0].0 = "renamed".into();
        assert!(coordinate_median(&[&d1, &d2]).is_err());
        assert!(trimmed_mean(&[&d1, &d2], 0.0).is_err());
    }

    #[test]
    fn partition_splits_by_name() {
        let d = dict(1.0);
        let (local, global) = partition(&d, |n| n.starts_with("output_conv"));
        assert_eq!(local.len(), 1);
        assert_eq!(global.len(), 1);
        assert_eq!(local[0].0, "output_conv/weight");
        assert_eq!(global[0].0, "a/weight");
    }

    #[test]
    fn apply_updates_overwrites_named_entries() {
        let mut d = dict(1.0);
        let updates = vec![("a/weight".to_string(), Tensor::full(&[2, 2], 9.0))];
        apply_updates(&mut d, &updates).unwrap();
        assert_eq!(d[0].1.data(), &[9.0; 4]);
        assert_eq!(d[1].1.data()[0], 2.0, "untouched entry");

        let bad = vec![("missing".to_string(), Tensor::zeros(&[1]))];
        assert!(apply_updates(&mut d, &bad).is_err());
    }

    #[test]
    fn blend_is_convex() {
        let a = dict(1.0);
        let b = dict(3.0);
        let mixed = blend(&a, &b, 0.25).unwrap();
        assert!((mixed[0].1.data()[0] - 2.5).abs() < 1e-6);
        assert!(blend(&a, &b, 1.5).is_err());
        assert_eq!(blend(&a, &b, 1.0).unwrap(), a);
        assert_eq!(blend(&a, &b, 0.0).unwrap(), b);
    }

    #[test]
    fn l2_distance() {
        let a = dict(0.0);
        let b = dict(1.0);
        // First entry: 4 elements of diff 1; second: 3 elements of diff 2.
        assert_eq!(l2_distance_sq(&a, &b).unwrap(), 4.0 + 12.0);
        assert_eq!(l2_distance_sq(&a, &a).unwrap(), 0.0);
    }
}
