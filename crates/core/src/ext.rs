//! Extensions implementing the paper's "future directions" (§5) as
//! opt-in post-processing passes over a [`FusionOutput`].
//!
//! These are deliberately separate from the core pipeline: the paper
//! *proposes* them without building them, so we keep the faithful
//! reproduction pure and layer the proposals on top where an ablation
//! can measure their effect.
//!
//! * [`FunctionalityModel`] — §5.3: learn the expected number of true
//!   values per predicate and renormalise multi-truth items so that
//!   additional likely-true values are not crushed by the single-truth
//!   assumption.
//! * [`hierarchy_adjust`] — §5.4: give partial credit to values that are
//!   generalisations/specialisations of a strongly supported value.
//! * [`confidence_reweight`] — §5.5: incorporate extraction confidences by
//!   shrinking each triple's probability toward its mean extractor
//!   confidence, after per-extractor recalibration.

use crate::result::FusionOutput;
use kf_types::{
    DataItem, ExtractionBatch, FxHashMap, GoldStandard, PredicateId, Triple, Value, ValueHierarchy,
};

/// Learned per-predicate functionality: the expected number of true values
/// for a data item of that predicate (§5.3 — spouse ≈ 1, acted-in ≫ 1).
#[derive(Debug, Clone, Default)]
pub struct FunctionalityModel {
    expected_truths: FxHashMap<PredicateId, f64>,
}

impl FunctionalityModel {
    /// Learn functionality from the gold standard: the mean number of
    /// accepted values over known items of each predicate.
    pub fn learn_from_gold(gold: &GoldStandard) -> Self {
        let mut sums: FxHashMap<PredicateId, (f64, f64)> = FxHashMap::default();
        for (item, values) in gold.iter() {
            let slot = sums.entry(item.predicate).or_insert((0.0, 0.0));
            slot.0 += values.len() as f64;
            slot.1 += 1.0;
        }
        FunctionalityModel {
            expected_truths: sums
                .into_iter()
                .map(|(p, (s, n))| (p, (s / n).max(1.0)))
                .collect(),
        }
    }

    /// Expected number of truths for `p` (1.0 when unknown).
    pub fn expected(&self, p: PredicateId) -> f64 {
        self.expected_truths.get(&p).copied().unwrap_or(1.0)
    }

    /// Number of predicates with learned functionality.
    pub fn len(&self) -> usize {
        self.expected_truths.len()
    }

    /// True when nothing was learned.
    pub fn is_empty(&self) -> bool {
        self.expected_truths.is_empty()
    }

    /// Renormalise probabilities of multi-truth items: for a predicate with
    /// expected `m` truths, per-item probabilities may sum up to `m`
    /// (instead of 1) — values are scaled up proportionally without letting
    /// any single probability exceed the method's own cap of 1.
    ///
    /// This directly targets the paper's top false-negative cause (65% of
    /// FNs were "multiple truths" casualties of the single-truth
    /// assumption).
    pub fn apply(&self, output: &mut FusionOutput) {
        // Group slot indices by item.
        let mut by_item: FxHashMap<DataItem, Vec<usize>> = FxHashMap::default();
        for (i, s) in output.scored.iter().enumerate() {
            by_item.entry(s.triple.data_item()).or_default().push(i);
        }
        for (item, slots) in by_item {
            let m = self.expected(item.predicate);
            if m <= 1.0 + 1e-9 {
                continue;
            }
            let current_sum: f64 = slots
                .iter()
                .filter_map(|&i| output.scored[i].probability)
                .sum();
            if current_sum <= 0.0 {
                continue;
            }
            // Allow the item's probability mass to grow toward min(m, k),
            // bounded so no probability exceeds 1.
            let k = slots.len() as f64;
            let target = m.min(k).max(1.0);
            let scale = (target / current_sum).max(1.0);
            if scale <= 1.0 + 1e-12 {
                continue;
            }
            for &i in &slots {
                if let Some(p) = output.scored[i].probability {
                    output.scored[i].probability = Some((p * scale).min(1.0));
                }
            }
        }
    }
}

/// Hierarchy-aware adjustment (§5.4): a value that is an ancestor of a
/// strongly supported value is itself (at least as) true — e.g. *(Steve
/// Jobs, birth place, USA)* when *California* is strongly supported; a
/// descendant gets partial credit.
///
/// For each item, every value's probability is raised to
/// `max(P(v), max_{d: v ancestor of d} P(d), α · max_{a: v descendant of a} P(a))`
/// where `α` discounts the (weaker) evidence a general value gives a
/// specific one.
pub fn hierarchy_adjust<H: ValueHierarchy>(
    output: &mut FusionOutput,
    hierarchy: &H,
    specialization_discount: f64,
) {
    let alpha = specialization_discount.clamp(0.0, 1.0);
    let mut by_item: FxHashMap<DataItem, Vec<usize>> = FxHashMap::default();
    for (i, s) in output.scored.iter().enumerate() {
        by_item.entry(s.triple.data_item()).or_default().push(i);
    }
    for slots in by_item.values() {
        if slots.len() < 2 {
            continue;
        }
        let values: Vec<(Value, Option<f64>)> = slots
            .iter()
            .map(|&i| (output.scored[i].triple.object, output.scored[i].probability))
            .collect();
        for (si, &slot) in slots.iter().enumerate() {
            let (v, p) = values[si];
            let Some(p) = p else { continue };
            let mut best = p;
            for (sj, &(w, q)) in values.iter().enumerate() {
                if si == sj {
                    continue;
                }
                let Some(q) = q else { continue };
                if hierarchy.is_ancestor(v, w) {
                    // v generalises a supported value w: inherits support.
                    best = best.max(q);
                } else if hierarchy.is_ancestor(w, v) {
                    // v specialises w: partial credit.
                    best = best.max(alpha * q);
                }
            }
            output.scored[slot].probability = Some(best);
        }
    }
}

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
    use kf_types::{EntityId, Value};

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
    fn functionality_learned_from_gold() {
        let mut gold = GoldStandard::new();
        // Predicate 1: items with 2 values each (non-functional).
        for s in 0..4u32 {
            gold.insert(
                DataItem::new(EntityId(s), PredicateId(1)),
                Value::Entity(EntityId(10)),
            );
            gold.insert(
                DataItem::new(EntityId(s), PredicateId(1)),
                Value::Entity(EntityId(11)),
            );
        }
        // Predicate 2: single-valued.
        gold.insert(
            DataItem::new(EntityId(0), PredicateId(2)),
            Value::Entity(EntityId(9)),
        );
        let model = FunctionalityModel::learn_from_gold(&gold);
        assert!((model.expected(PredicateId(1)) - 2.0).abs() < 1e-12);
        assert!((model.expected(PredicateId(2)) - 1.0).abs() < 1e-12);
        assert_eq!(model.expected(PredicateId(99)), 1.0);
        assert_eq!(model.len(), 2);
    }

    #[test]
    fn functionality_apply_lifts_multi_truth_items() {
        let mut gold = GoldStandard::new();
        for s in 0..3u32 {
            for o in 0..3u32 {
                gold.insert(
                    DataItem::new(EntityId(s), PredicateId(1)),
                    Value::Entity(EntityId(o)),
                );
            }
        }
        let model = FunctionalityModel::learn_from_gold(&gold);
        // Two values splitting the mass 0.5/0.4 under single-truth.
        let mut out = output(vec![scored(7, 1, Some(0.5)), scored(7, 2, Some(0.4))]);
        model.apply(&mut out);
        let p1 = out.scored[0].probability.unwrap();
        let p2 = out.scored[1].probability.unwrap();
        // Mass may now sum up to min(expected=3, k=2) = 2.
        assert!(p1 > 0.5 && p2 > 0.4, "not lifted: {p1}, {p2}");
        assert!(p1 <= 1.0 && p2 <= 1.0);
        // Relative order preserved.
        assert!(p1 > p2);
    }

    #[test]
    fn functionality_leaves_functional_predicates_alone() {
        let mut gold = GoldStandard::new();
        gold.insert(
            DataItem::new(EntityId(0), PredicateId(1)),
            Value::Entity(EntityId(0)),
        );
        let model = FunctionalityModel::learn_from_gold(&gold);
        let mut out = output(vec![scored(7, 1, Some(0.6)), scored(7, 2, Some(0.3))]);
        model.apply(&mut out);
        assert_eq!(out.scored[0].probability, Some(0.6));
        assert_eq!(out.scored[1].probability, Some(0.3));
    }

    /// Toy hierarchy 1 → 2 → 3 (child → parent) over entity ids.
    struct Chain;
    impl ValueHierarchy for Chain {
        fn parent(&self, v: Value) -> Option<Value> {
            match v {
                Value::Entity(EntityId(1)) => Some(Value::Entity(EntityId(2))),
                Value::Entity(EntityId(2)) => Some(Value::Entity(EntityId(3))),
                _ => None,
            }
        }
    }

    #[test]
    fn hierarchy_lifts_general_values() {
        // Item has leaf (id 1) at 0.9 and its grandparent (id 3) at 0.1:
        // the general value inherits the leaf's support.
        let mut out = output(vec![scored(7, 1, Some(0.9)), scored(7, 3, Some(0.1))]);
        hierarchy_adjust(&mut out, &Chain, 0.5);
        assert_eq!(out.scored[0].probability, Some(0.9));
        assert_eq!(out.scored[1].probability, Some(0.9));
    }

    #[test]
    fn hierarchy_gives_partial_credit_to_specific_values() {
        // General value strong (0.8), leaf weak (0.05) → leaf rises to
        // α·0.8 = 0.4.
        let mut out = output(vec![scored(7, 3, Some(0.8)), scored(7, 1, Some(0.05))]);
        hierarchy_adjust(&mut out, &Chain, 0.5);
        assert_eq!(out.scored[0].probability, Some(0.8));
        assert!((out.scored[1].probability.unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn hierarchy_ignores_unrelated_values() {
        let mut out = output(vec![scored(7, 1, Some(0.7)), scored(7, 99, Some(0.2))]);
        hierarchy_adjust(&mut out, &Chain, 0.5);
        assert_eq!(out.scored[0].probability, Some(0.7));
        assert_eq!(out.scored[1].probability, Some(0.2));
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
