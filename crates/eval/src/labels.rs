//! Gold-labeling fused output under the local closed-world assumption.
//!
//! §5.1 of the paper: every fused triple is labelled against Freebase —
//! **true** if present, **false** if the data item is known with different
//! values, **unknown** (excluded) otherwise. All downstream metrics
//! (calibration curves, PR curves) are computed over the labelled,
//! predicted subset; the sizes of the excluded subsets are reported so a
//! method cannot look better by predicting less.

use kf_core::FusionOutput;
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
    /// Join `output` with `labels`, the gold label of each scored triple in
    /// output order — for a run over claims, their label column
    /// (`SlotTable::labels`), since `output.scored` is in slot order.
    pub fn new(output: &FusionOutput, labels: &[Label]) -> LabeledOutput {
        assert_eq!(
            labels.len(),
            output.scored.len(),
            "one label per scored triple"
        );
        let mut out = LabeledOutput {
            n_scored: output.scored.len(),
            ..Default::default()
        };
        for (s, &label) in output.scored.iter().zip(labels) {
            match label {
                Label::True => out.n_true += 1,
                Label::False => out.n_false += 1,
                Label::Unknown => out.n_unknown += 1,
            }
            match (s.probability, label.as_bool()) {
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
    use kf_core::ScoredTriple;
    use kf_mapreduce::{JobStats, RoundOutcome};
    use kf_types::{DataItem, EntityId, GoldStandard, PredicateId, Triple, Value};

    fn triple(s: u32, o: u32) -> Triple {
        Triple::new(EntityId(s), PredicateId(0), Value::Entity(EntityId(o)))
    }

    fn scored(s: u32, o: u32, p: Option<f64>) -> ScoredTriple {
        ScoredTriple {
            triple: triple(s, o),
            probability: p,
            n_provenances: 1,
            n_extractors: 1,
            n_pages: 1,
            fallback: false,
        }
    }

    fn output(scored_triples: Vec<ScoredTriple>) -> FusionOutput {
        FusionOutput {
            scored: scored_triples,
            outcome: RoundOutcome::Converged {
                rounds: 1,
                delta: 0.0,
            },
            round_deltas: vec![],
            n_provenances: 0,
            stats: JobStats::default(),
        }
    }

    fn gold() -> GoldStandard {
        // Item (1, 0) accepts object 10 only.
        let mut g = GoldStandard::new();
        g.insert(
            DataItem::new(EntityId(1), PredicateId(0)),
            Value::Entity(EntityId(10)),
        );
        g
    }

    /// `out` joined with `gold()`, one probe per scored triple.
    fn labelled(out: &FusionOutput) -> LabeledOutput {
        let labels: Vec<Label> = out.scored.iter().map(|s| gold().label(&s.triple)).collect();
        LabeledOutput::new(out, &labels)
    }

    #[test]
    fn labels_and_counts() {
        let out = output(vec![
            scored(1, 10, Some(0.9)), // true
            scored(1, 11, Some(0.2)), // false
            scored(2, 10, Some(0.5)), // unknown item
            scored(1, 12, None),      // false, unpredicted
        ]);
        let l = labelled(&out);
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
        let out = output(vec![
            scored(1, 10, Some(0.9)),
            scored(2, 10, Some(0.5)),
            scored(1, 12, None),
        ]);
        let labeled = labelled(&out);
        assert_eq!(labeled.predictions(), [(0.9, true)]);
    }

    #[test]
    fn empty_output_is_all_zeros() {
        let l = labelled(&output(vec![]));
        assert_eq!(l.n_labelled(), 0);
        assert_eq!(l.coverage(), 0.0);
        assert_eq!(l.base_rate(), 0.0);
        assert!(l.predictions().is_empty());
    }
}
