//! The paper's "future directions" (§5) as opt-in post-processing
//! passes over a [`FusionOutput`].
//!
//! These are deliberately separate from the core pipeline: the paper
//! *proposes* them without building them, so we keep the faithful
//! reproduction pure and layer the proposals on top where an ablation
//! can measure their effect.
//!
//! * [`confidence_reweight`] — §5.5: incorporate extraction confidences by
//!   shrinking each triple's probability toward its mean extractor
//!   confidence, after per-extractor recalibration.
//!
//! The §5.3 functionality renormalisation and the §5.4 hierarchy
//! adjustment are not kept: measured at paper scale on their own targets
//! (AUC-PR on non-functional predicates; `WrongButGeneral`
//! false-positive mass), each made its target worse.

use crate::result::FusionOutput;
use kf_types::{ExtractionBatch, FxHashMap, GoldStandard, Triple};

/// Per-extractor confidence recalibration table: maps raw confidence bands
/// to empirical accuracy, learned against the gold standard (§5.5 — raw
/// confidences are *not* calibrated, Fig. 21).
#[derive(Debug, Clone)]
pub struct ConfidenceRecalibration {
    /// `bands[extractor][band] = (sum_true, count)` over labelled triples.
    bands: Vec<Vec<(f64, f64)>>,
    n_bands: usize,
}

impl ConfidenceRecalibration {
    /// Learn a recalibration table from labelled extractions.
    pub fn learn(batch: &ExtractionBatch, gold: &GoldStandard, n_extractors: usize) -> Self {
        let n_bands = 10;
        let mut bands = vec![vec![(0.0, 0.0); n_bands]; n_extractors];
        for e in batch.iter() {
            let Some(conf) = e.confidence else { continue };
            let Some(truth) = gold.label(&e.triple).as_bool() else {
                continue;
            };
            let b = ((conf as f64 * n_bands as f64) as usize).min(n_bands - 1);
            let slot = &mut bands[e.provenance.extractor.index()][b];
            slot.0 += truth as u8 as f64;
            slot.1 += 1.0;
        }
        ConfidenceRecalibration { bands, n_bands }
    }

    /// Empirical accuracy for (extractor, raw confidence); `None` when the
    /// band has no labelled data.
    pub fn recalibrate(&self, extractor: usize, conf: f32) -> Option<f64> {
        let b = ((conf as f64 * self.n_bands as f64) as usize).min(self.n_bands - 1);
        let (sum, count) = self.bands.get(extractor)?[b];
        if count < 5.0 {
            None
        } else {
            Some(sum / count)
        }
    }
}

/// Confidence-aware reweighting (§5.5): shrink each triple's fused
/// probability toward the mean *recalibrated* confidence of its
/// extractions, weighted by `beta`.
pub fn confidence_reweight(
    output: &mut FusionOutput,
    batch: &ExtractionBatch,
    recal: &ConfidenceRecalibration,
    beta: f64,
) {
    let beta = beta.clamp(0.0, 1.0);
    // Mean recalibrated confidence per triple.
    let mut sums: FxHashMap<Triple, (f64, f64)> = FxHashMap::default();
    for e in batch.iter() {
        let Some(conf) = e.confidence else { continue };
        let Some(cal) = recal.recalibrate(e.provenance.extractor.index(), conf) else {
            continue;
        };
        let slot = sums.entry(e.triple).or_default();
        slot.0 += cal;
        slot.1 += 1.0;
    }
    for s in &mut output.scored {
        let Some(p) = s.probability else { continue };
        if let Some((sum, n)) = sums.get(&s.triple) {
            let mean_conf = sum / n;
            s.probability = Some((1.0 - beta) * p + beta * mean_conf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::ScoredTriple;
    use kf_mapreduce::{JobStats, RoundOutcome};
    use kf_types::{DataItem, EntityId, PredicateId, Value};

    fn scored(s: u32, o: u32, p: Option<f64>) -> ScoredTriple {
        ScoredTriple {
            triple: Triple::new(EntityId(s), PredicateId(1), Value::Entity(EntityId(o))),
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

    #[test]
    fn recalibration_learns_band_accuracy() {
        use kf_types::{Extraction, ExtractorId, PageId, PatternId, Provenance, SiteId};
        let mut gold = GoldStandard::new();
        gold.insert(
            DataItem::new(EntityId(0), PredicateId(1)),
            Value::Entity(EntityId(1)),
        );
        let mut batch = ExtractionBatch::new();
        // Extractor 0 at confidence ~0.9: 8 true, 2 false.
        for i in 0..10 {
            let o = if i < 8 { 1 } else { 2 };
            batch.push(Extraction::with_confidence(
                Triple::new(EntityId(0), PredicateId(1), Value::Entity(EntityId(o))),
                Provenance::new(ExtractorId(0), PageId(i), SiteId(0), PatternId::NONE),
                0.9,
            ));
        }
        let recal = ConfidenceRecalibration::learn(&batch, &gold, 1);
        let acc = recal.recalibrate(0, 0.9).unwrap();
        assert!((acc - 0.8).abs() < 1e-12);
        // Unseen band → None.
        assert_eq!(recal.recalibrate(0, 0.1), None);
    }

    #[test]
    fn confidence_reweight_shrinks_toward_recalibrated_confidence() {
        use kf_types::{Extraction, ExtractorId, PageId, PatternId, Provenance, SiteId};
        let mut gold = GoldStandard::new();
        gold.insert(
            DataItem::new(EntityId(0), PredicateId(1)),
            Value::Entity(EntityId(1)),
        );
        let mut batch = ExtractionBatch::new();
        let t = Triple::new(EntityId(0), PredicateId(1), Value::Entity(EntityId(1)));
        for i in 0..10 {
            batch.push(Extraction::with_confidence(
                t,
                Provenance::new(ExtractorId(0), PageId(i), SiteId(0), PatternId::NONE),
                0.95,
            ));
        }
        let recal = ConfidenceRecalibration::learn(&batch, &gold, 1);
        // Band accuracy = 1.0 (all true); triple fused at 0.5 → shifted up.
        let mut out = output(vec![ScoredTriple {
            triple: t,
            probability: Some(0.5),
            n_provenances: 10,
            n_extractors: 1,
            n_pages: 10,
            fallback: false,
        }]);
        confidence_reweight(&mut out, &batch, &recal, 0.4);
        let p = out.scored[0].probability.unwrap();
        assert!((p - (0.6 * 0.5 + 0.4 * 1.0)).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn reweight_beta_zero_is_identity() {
        let batch = ExtractionBatch::new();
        let recal = ConfidenceRecalibration::learn(&batch, &GoldStandard::new(), 1);
        let mut out = output(vec![scored(1, 1, Some(0.42))]);
        confidence_reweight(&mut out, &batch, &recal, 0.0);
        assert_eq!(out.scored[0].probability, Some(0.42));
    }
}
