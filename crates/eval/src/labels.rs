//! Gold-labeling fused output under the local closed-world assumption.
//!
//! §5.1 of the paper: every fused triple is labelled against Freebase —
//! **true** if present, **false** if the data item is known with different
//! values, **unknown** (excluded) otherwise. All downstream metrics
//! (calibration curves, PR curves) are computed over the labelled,
//! predicted subset; the sizes of the excluded subsets are reported so a
//! method cannot look better by predicting less.

use kf_types::Label;

/// A fusion output joined with its gold labels: the label counts and the
/// `(probability, is_true)` pairs the metrics are computed over.
#[derive(Debug, Clone, Default)]
pub struct LabeledOutput {
    /// Fused triples, labelled or not.
    pub n_scored: usize,
    /// Labelled true.
    pub n_true: usize,
    /// Labelled false.
    pub n_false: usize,
    /// Unknown to the gold KB (excluded from metrics).
    pub n_unknown: usize,
    /// Labelled (true or false) but with no predicted probability.
    pub n_unpredicted: usize,
    /// Labelled triples that received a prediction, as
    /// `(probability, is_true)`, in output order.
    predictions: Vec<(f64, bool)>,
}

impl LabeledOutput {
    /// Join a run's `probabilities` with `labels`, both indexed by slot:
    /// the output's probability column (`ScoredSlots::probabilities`) and
    /// its claims' label column (`SlotTable::labels`).
    pub fn new(probabilities: &[Option<f64>], labels: &[Label]) -> LabeledOutput {
        assert_eq!(
            labels.len(),
            probabilities.len(),
            "one label per scored triple"
        );
        let mut out = LabeledOutput {
            n_scored: probabilities.len(),
            ..Default::default()
        };
        for (&probability, &label) in probabilities.iter().zip(labels) {
            match label {
                Label::True => out.n_true += 1,
                Label::False => out.n_false += 1,
                Label::Unknown => out.n_unknown += 1,
            }
            match (probability, label.as_bool()) {
                (Some(p), Some(is_true)) => out.predictions.push((p, is_true)),
                (None, Some(_)) => out.n_unpredicted += 1,
                (_, None) => {}
            }
        }
        out
    }

    /// The `(probability, is_true)` pairs metrics are computed over:
    /// labelled triples that received a prediction.
    pub fn predictions(&self) -> &[(f64, bool)] {
        &self.predictions
    }

    /// Labelled triples (true + false).
    pub fn n_labelled(&self) -> usize {
        self.n_true + self.n_false
    }

    /// Fraction of labelled triples that received a prediction — the
    /// paper's coverage axis (91.8%–99.4% across refinement settings).
    pub fn coverage(&self) -> f64 {
        let n = self.n_labelled();
        if n == 0 {
            return 0.0;
        }
        (n - self.n_unpredicted) as f64 / n as f64
    }

    /// Base rate: fraction of labelled triples that are true (the paper's
    /// ~30% headline extraction accuracy).
    pub fn base_rate(&self) -> f64 {
        let n = self.n_labelled();
        if n == 0 {
            return 0.0;
        }
        self.n_true as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_counts() {
        let l = LabeledOutput::new(
            &[Some(0.9), Some(0.2), Some(0.5), None],
            &[Label::True, Label::False, Label::Unknown, Label::False],
        );
        assert_eq!(l.n_true, 1);
        assert_eq!(l.n_false, 2);
        assert_eq!(l.n_unknown, 1);
        assert_eq!(l.n_unpredicted, 1);
        assert_eq!(l.n_labelled(), 3);
        assert!((l.coverage() - 2.0 / 3.0).abs() < 1e-12);
        assert!((l.base_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn predictions_exclude_unknown_and_unpredicted() {
        let labeled = LabeledOutput::new(
            &[Some(0.9), Some(0.5), None],
            &[Label::True, Label::Unknown, Label::False],
        );
        assert_eq!(labeled.predictions(), [(0.9, true)]);
    }

    #[test]
    fn empty_output_is_all_zeros() {
        let l = LabeledOutput::new(&[], &[]);
        assert_eq!(l.n_labelled(), 0);
        assert_eq!(l.coverage(), 0.0);
        assert_eq!(l.base_rate(), 0.0);
        assert!(l.predictions().is_empty());
    }
}
