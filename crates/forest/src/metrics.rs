//! Detection-quality metrics: AUC and thresholded confusion counts.

use crate::{ForestError, Result};

/// Confusion-matrix counts at a fixed decision threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionCounts {
    /// Positives classified as positive.
    pub true_positives: usize,
    /// Negatives classified as positive.
    pub false_positives: usize,
    /// Negatives classified as negative.
    pub true_negatives: usize,
    /// Positives classified as negative.
    pub false_negatives: usize,
}

impl ConfusionCounts {
    /// True-positive rate (recall); 0 when there are no positives.
    pub fn true_positive_rate(&self) -> f32 {
        let p = self.true_positives + self.false_negatives;
        if p == 0 {
            0.0
        } else {
            self.true_positives as f32 / p as f32
        }
    }

    /// False-positive rate; 0 when there are no negatives.
    pub fn false_positive_rate(&self) -> f32 {
        let n = self.false_positives + self.true_negatives;
        if n == 0 {
            0.0
        } else {
            self.false_positives as f32 / n as f32
        }
    }

    /// Overall accuracy; 0 for an empty sample set.
    pub fn accuracy(&self) -> f32 {
        let total =
            self.true_positives + self.false_positives + self.true_negatives + self.false_negatives;
        if total == 0 {
            0.0
        } else {
            (self.true_positives + self.true_negatives) as f32 / total as f32
        }
    }
}

/// Area under the ROC curve for scores where higher means "more positive".
///
/// Implemented as the rank-based Mann–Whitney U statistic with tie correction, so it
/// matches the usual `roc_auc_score` semantics: 1.0 for perfect separation, 0.5 for
/// chance.
///
/// # Errors
///
/// Returns [`ForestError::InvalidMetricInput`] if the slices differ in length, are
/// empty, contain only one class, or a score is NaN or infinite.
///
/// # Example
///
/// ```
/// use ptolemy_forest::auc;
///
/// # fn main() -> Result<(), ptolemy_forest::ForestError> {
/// let perfect = auc(&[0.9, 0.8, 0.1, 0.2], &[true, true, false, false])?;
/// assert!((perfect - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn auc(scores: &[f32], labels: &[bool]) -> Result<f32> {
    if scores.len() != labels.len() {
        return Err(ForestError::InvalidMetricInput(format!(
            "{} scores but {} labels",
            scores.len(),
            labels.len()
        )));
    }
    if scores.is_empty() {
        return Err(ForestError::InvalidMetricInput("empty score set".into()));
    }
    // The ranking below is a total order only over finite scores.
    if let Some(index) = scores.iter().position(|s| !s.is_finite()) {
        return Err(ForestError::InvalidMetricInput(format!(
            "score {index} is {}",
            scores[index]
        )));
    }
    let positives = labels.iter().filter(|l| **l).count();
    let negatives = labels.len() - positives;
    if positives == 0 || negatives == 0 {
        return Err(ForestError::InvalidMetricInput(
            "AUC requires both positive and negative samples".into(),
        ));
    }

    // Rank the scores (average rank for ties).
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg_rank;
        }
        i = j + 1;
    }

    let positive_rank_sum: f64 = ranks
        .iter()
        .zip(labels)
        .filter(|(_, l)| **l)
        .map(|(r, _)| *r)
        .sum();
    let u = positive_rank_sum - (positives as f64 * (positives as f64 + 1.0)) / 2.0;
    Ok((u / (positives as f64 * negatives as f64)) as f32)
}

/// Confusion counts when classifying `score >= threshold` as positive.
///
/// # Errors
///
/// Returns [`ForestError::InvalidMetricInput`] if the slices differ in length.
pub fn confusion_at_threshold(
    scores: &[f32],
    labels: &[bool],
    threshold: f32,
) -> Result<ConfusionCounts> {
    if scores.len() != labels.len() {
        return Err(ForestError::InvalidMetricInput(format!(
            "{} scores but {} labels",
            scores.len(),
            labels.len()
        )));
    }
    let mut counts = ConfusionCounts::default();
    for (score, label) in scores.iter().zip(labels) {
        let predicted = *score >= threshold;
        match (predicted, *label) {
            (true, true) => counts.true_positives += 1,
            (true, false) => counts.false_positives += 1,
            (false, false) => counts.true_negatives += 1,
            (false, true) => counts.false_negatives += 1,
        }
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auc_perfect_and_inverted() {
        let labels = [true, true, false, false];
        assert!((auc(&[0.9, 0.8, 0.2, 0.1], &labels).unwrap() - 1.0).abs() < 1e-6);
        assert!((auc(&[0.1, 0.2, 0.8, 0.9], &labels).unwrap() - 0.0).abs() < 1e-6);
    }

    #[test]
    fn auc_chance_level_for_identical_scores() {
        let labels = [true, false, true, false];
        let a = auc(&[0.5, 0.5, 0.5, 0.5], &labels).unwrap();
        assert!((a - 0.5).abs() < 1e-6);
    }

    #[test]
    fn auc_handles_partial_overlap() {
        // One inversion among 2x2 pairs -> AUC = 3/4.
        let a = auc(&[0.9, 0.4, 0.6, 0.1], &[true, true, false, false]).unwrap();
        assert!((a - 0.75).abs() < 1e-6);
    }

    #[test]
    fn auc_rejects_bad_input() {
        assert!(auc(&[0.5], &[true, false]).is_err());
        assert!(auc(&[], &[]).is_err());
        assert!(auc(&[0.5, 0.6], &[true, true]).is_err());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let scores = [0.9, bad, 0.1, 0.2];
            assert!(
                matches!(
                    auc(&scores, &[true, true, false, false]),
                    Err(ForestError::InvalidMetricInput(_))
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn confusion_counts_and_rates() {
        let scores = [0.9, 0.7, 0.4, 0.2];
        let labels = [true, false, true, false];
        let counts = confusion_at_threshold(&scores, &labels, 0.5).unwrap();
        assert_eq!(counts.true_positives, 1);
        assert_eq!(counts.false_positives, 1);
        assert_eq!(counts.false_negatives, 1);
        assert_eq!(counts.true_negatives, 1);
        assert!((counts.true_positive_rate() - 0.5).abs() < 1e-6);
        assert!((counts.false_positive_rate() - 0.5).abs() < 1e-6);
        assert!((counts.accuracy() - 0.5).abs() < 1e-6);
        assert!(confusion_at_threshold(&scores, &labels[..2], 0.5).is_err());
    }

    #[test]
    fn empty_confusion_rates_are_zero() {
        let counts = ConfusionCounts::default();
        assert_eq!(counts.true_positive_rate(), 0.0);
        assert_eq!(counts.false_positive_rate(), 0.0);
        assert_eq!(counts.accuracy(), 0.0);
    }
}
