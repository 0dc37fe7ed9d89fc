//! Thresholded confusion-matrix statistics.

use crate::MetricsError;

/// Binary confusion matrix at a fixed decision threshold.
///
/// # Example
///
/// ```
/// use rte_metrics::ConfusionMatrix;
///
/// let cm = ConfusionMatrix::from_scores(&[0.9, 0.2, 0.7, 0.1],
///                                       &[true, false, false, false], 0.5)?;
/// assert_eq!(cm.true_positives, 1);
/// assert_eq!(cm.false_positives, 1);
/// assert_eq!(cm.accuracy(), 0.75);
/// # Ok::<(), rte_metrics::MetricsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// Positives predicted positive.
    pub true_positives: usize,
    /// Negatives predicted positive.
    pub false_positives: usize,
    /// Negatives predicted negative.
    pub true_negatives: usize,
    /// Positives predicted negative.
    pub false_negatives: usize,
}

impl ConfusionMatrix {
    /// Builds a confusion matrix by thresholding `scores` at `threshold`
    /// (`score >= threshold` ⇒ predicted positive).
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError::LengthMismatch`] or
    /// [`MetricsError::NanScore`].
    pub fn from_scores(
        scores: &[f32],
        labels: &[bool],
        threshold: f32,
    ) -> Result<Self, MetricsError> {
        if scores.len() != labels.len() {
            return Err(MetricsError::LengthMismatch {
                scores: scores.len(),
                labels: labels.len(),
            });
        }
        if scores.iter().any(|s| s.is_nan()) {
            return Err(MetricsError::NanScore);
        }
        let mut cm = ConfusionMatrix::default();
        for (&s, &l) in scores.iter().zip(labels.iter()) {
            match (s >= threshold, l) {
                (true, true) => cm.true_positives += 1,
                (true, false) => cm.false_positives += 1,
                (false, false) => cm.true_negatives += 1,
                (false, true) => cm.false_negatives += 1,
            }
        }
        Ok(cm)
    }

    /// Total number of samples.
    pub fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// Fraction of correct predictions (0 when empty).
    pub fn accuracy(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.true_positives + self.true_negatives) as f64 / t as f64
        }
    }

    /// True-positive rate (recall); 0 when there are no positives.
    pub fn tpr(&self) -> f64 {
        let p = self.true_positives + self.false_negatives;
        if p == 0 {
            0.0
        } else {
            self.true_positives as f64 / p as f64
        }
    }

    /// False-positive rate; 0 when there are no negatives.
    pub fn fpr(&self) -> f64 {
        let n = self.false_positives + self.true_negatives;
        if n == 0 {
            0.0
        } else {
            self.false_positives as f64 / n as f64
        }
    }

    /// Precision; 0 when nothing was predicted positive.
    pub fn precision(&self) -> f64 {
        let pp = self.true_positives + self.false_positives;
        if pp == 0 {
            0.0
        } else {
            self.true_positives as f64 / pp as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_scores_threshold_naturally() {
        // +inf >= t for every finite threshold; -inf never is.
        let cm =
            ConfusionMatrix::from_scores(&[f32::INFINITY, f32::NEG_INFINITY], &[true, false], 0.5)
                .unwrap();
        assert_eq!(cm.true_positives, 1);
        assert_eq!(cm.true_negatives, 1);
    }

    fn sample() -> ConfusionMatrix {
        ConfusionMatrix {
            true_positives: 8,
            false_positives: 2,
            true_negatives: 85,
            false_negatives: 5,
        }
    }

    #[test]
    fn derived_rates() {
        let cm = sample();
        assert_eq!(cm.total(), 100);
        assert!((cm.accuracy() - 0.93).abs() < 1e-12);
        assert!((cm.tpr() - 8.0 / 13.0).abs() < 1e-12);
        assert!((cm.fpr() - 2.0 / 87.0).abs() < 1e-12);
        assert!((cm.precision() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn from_scores_thresholds_inclusively() {
        let cm = ConfusionMatrix::from_scores(&[0.5, 0.49], &[true, true], 0.5).unwrap();
        assert_eq!(cm.true_positives, 1);
        assert_eq!(cm.false_negatives, 1);
    }

    #[test]
    fn empty_is_all_zero() {
        let cm = ConfusionMatrix::from_scores(&[], &[], 0.5).unwrap();
        assert_eq!(cm.total(), 0);
        assert_eq!(cm.accuracy(), 0.0);
    }

    #[test]
    fn errors() {
        assert!(ConfusionMatrix::from_scores(&[0.1], &[], 0.5).is_err());
        assert!(ConfusionMatrix::from_scores(&[f32::NAN], &[true], 0.5).is_err());
    }
}
