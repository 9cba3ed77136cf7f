//! Fusion output types.

use crate::observation::Grouped;
use kf_mapreduce::{JobStats, RoundOutcome};
use kf_types::{ExtractorId, ProvenanceKey, Triple};
use std::sync::Arc;

/// One unique triple with its estimated truthfulness probability: a row
/// read off a run's slot columns ([`ScoredSlots::iter`],
/// [`ScoredSlots::get`]) on demand. Nothing stores it — the triple and
/// its support counts live once in the claim graph and its
/// [`SlotTable`](crate::SlotTable), the probability and fallback flag in
/// the run's columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredTriple {
    /// The triple.
    pub triple: Triple,
    /// Truthfulness probability in `[0, 1]`; `None` when every provenance
    /// was filtered away and no fallback applied (§4.3.2: "for 8.2% of the
    /// triples, we cannot predict a probability").
    pub probability: Option<f64>,
    /// Provenances supporting the triple at the configured granularity.
    pub n_provenances: u32,
    /// Distinct extractors supporting it.
    pub n_extractors: u16,
    /// Distinct pages supporting it.
    pub n_pages: u32,
    /// True when the probability came from the mean-provenance-accuracy
    /// fallback rather than the Bayesian analysis (accuracy-threshold
    /// compensation, §4.3.2).
    pub fallback: bool,
}

/// A fusion run's per-slot columns over the claim graph it fused: each
/// slot's probability and fallback flag, indexed by slot. Slot order is
/// canonical triple order (§4.2 Stage III: one row per unique triple).
/// A row ([`ScoredTriple`]) is built from these columns and the graph
/// only when asked for.
#[derive(Debug, Clone)]
pub struct ScoredSlots {
    /// The claim graph the run fused over.
    graph: Arc<Grouped>,
    /// Per slot: the probability, `None` when unpredicted.
    probability: Vec<Option<f64>>,
    /// Per slot: whether the probability is the mean-accuracy fallback.
    fallback: Vec<bool>,
}

impl ScoredSlots {
    /// The columns of a run over `graph`: one probability and one
    /// fallback flag per slot.
    pub fn new(graph: Arc<Grouped>, probability: Vec<Option<f64>>, fallback: Vec<bool>) -> Self {
        let n = graph.n_triples();
        assert_eq!(probability.len(), n, "one probability per slot");
        assert_eq!(fallback.len(), n, "one fallback flag per slot");
        ScoredSlots {
            graph,
            probability,
            fallback,
        }
    }

    /// Number of scored triples (slots).
    pub fn len(&self) -> usize {
        self.probability.len()
    }

    /// True when nothing was scored.
    pub fn is_empty(&self) -> bool {
        self.probability.is_empty()
    }

    /// The claim graph the run fused over.
    pub fn graph(&self) -> &Arc<Grouped> {
        &self.graph
    }

    /// The probability column, in slot order.
    pub fn probabilities(&self) -> &[Option<f64>] {
        &self.probability
    }

    /// `slot`'s probability, `None` when unpredicted.
    pub fn probability(&self, slot: usize) -> Option<f64> {
        self.probability[slot]
    }

    /// Whether `slot`'s probability is the mean-accuracy fallback.
    pub fn fallback(&self, slot: usize) -> bool {
        self.fallback[slot]
    }

    /// The row of `slot`, `None` past the last slot.
    pub fn get(&self, slot: usize) -> Option<ScoredTriple> {
        (slot < self.len()).then(|| self.row(self.graph.table().item_of(slot), slot))
    }

    /// Every row, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = ScoredTriple> + '_ {
        let table = self.graph.table();
        (0..table.n_items()).flat_map(move |i| table.item_slots(i).map(move |s| self.row(i, s)))
    }

    /// The row of `slot`, whose data item is item `i`.
    fn row(&self, i: usize, slot: usize) -> ScoredTriple {
        let table = self.graph.table();
        ScoredTriple {
            triple: table.triple(i, slot),
            probability: self.probability[slot],
            n_provenances: self.graph.slot_provs(slot).len() as u32,
            n_extractors: table.n_extractors(slot),
            n_pages: table.n_pages(slot),
            fallback: self.fallback[slot],
        }
    }
}

/// The result of one fusion run: what the run alone knows — its slot
/// columns over the graph it fused — and how the iteration went.
#[derive(Debug, Clone)]
pub struct FusionOutput {
    /// The scored unique triples, as slot columns over the run's graph.
    pub scored: ScoredSlots,
    /// How the iteration terminated.
    pub outcome: RoundOutcome,
    /// Mean absolute provenance-accuracy change after each round.
    pub round_deltas: Vec<f64>,
    /// Merged MapReduce counters across all stages and rounds.
    pub stats: JobStats,
}

impl FusionOutput {
    /// Number of provenances at the configured granularity.
    pub fn n_provenances(&self) -> usize {
        self.scored.graph.n_provenances()
    }

    /// Fraction of triples with a predicted probability (the paper reports
    /// 91.8% → 99.4% across refinement settings).
    pub fn predicted_fraction(&self) -> f64 {
        let probabilities = self.scored.probabilities();
        if probabilities.is_empty() {
            return 0.0;
        }
        probabilities.iter().flatten().count() as f64 / probabilities.len() as f64
    }
}

/// Per-value provenance attribution: which provenances (at the run's
/// granularity) support each scored triple, with their *final* learned
/// accuracies.
///
/// [`FusionOutput`] deliberately keeps only the run's slot columns; the
/// error-taxonomy classifiers of `kf-diagnose` additionally need to know
/// *who* supports a high-confidence false positive (one extractor on many
/// pages is the systematic-error signature) and how much the fusion ended
/// up trusting that support. Obtain one from
/// [`Fuser::run_with_attribution`](crate::Fuser::run_with_attribution) or
/// [`Fuser::run_prebuilt`](crate::Fuser::run_prebuilt): it holds the
/// claim graph the run fused over — the same `Arc` as its output's
/// [`ScoredSlots::graph`] — so index `i` is slot `i` of
/// `FusionOutput::scored` and building it costs nothing.
#[derive(Debug, Clone)]
pub struct ProvenanceAttribution {
    /// The claim graph the run fused over.
    pub(crate) graph: Arc<Grouped>,
    /// Final (post-iteration) accuracy per provenance id.
    pub accuracy: Vec<f64>,
    /// Whether the accuracy was ever re-estimated from data.
    pub evaluated: Vec<bool>,
}

impl ProvenanceAttribution {
    /// The claim graph the run fused over.
    pub fn graph(&self) -> &Arc<Grouped> {
        &self.graph
    }

    /// Provenance keys, indexed by dense provenance id.
    pub fn keys(&self) -> &[ProvenanceKey] {
        self.graph.keys()
    }

    /// Number of attributed triples.
    pub fn len(&self) -> usize {
        self.graph.n_triples()
    }

    /// True when no triples are attributed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dense provenance ids supporting scored triple `i` (sorted).
    pub fn provs(&self, i: usize) -> &[u32] {
        self.graph.slot_provs(i)
    }

    /// Distinct extractors supporting scored triple `i`, in id order.
    /// Empty when the run's granularity excludes the extractor dimension
    /// (e.g. [`Granularity::PageOnly`](kf_types::Granularity::PageOnly)).
    pub fn extractors(&self, i: usize) -> Vec<ExtractorId> {
        let mut out: Vec<ExtractorId> = self
            .provs(i)
            .iter()
            .filter_map(|&pid| self.keys()[pid as usize].extractor)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Mean final accuracy of the provenances supporting scored triple
    /// `i` (`None` for an unsupported triple, which cannot occur for
    /// triples produced by a fusion run).
    pub fn mean_accuracy(&self, i: usize) -> Option<f64> {
        let provs = self.provs(i);
        if provs.is_empty() {
            return None;
        }
        let sum: f64 = provs.iter().map(|&p| self.accuracy[p as usize]).sum();
        Some(sum / provs.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fuser, FusionConfig};
    use kf_mapreduce::MrConfig;
    use kf_types::{
        EntityId, Extraction, ExtractionBatch, Granularity, PageId, PatternId, PredicateId,
        Provenance, SiteId, Value,
    };

    /// Extractor `extractor` claims object `object` of item (1, 0) on
    /// `page`.
    fn claim(object: u32, extractor: u16, page: u32) -> Extraction {
        Extraction::new(
            Triple::new(EntityId(1), PredicateId(0), Value::Entity(EntityId(object))),
            Provenance::new(
                ExtractorId(extractor),
                PageId(page),
                SiteId(0),
                PatternId::NONE,
            ),
        )
    }

    /// A VOTE run over `batch`.
    fn fused(batch: &[Extraction]) -> FusionOutput {
        let batch = ExtractionBatch::from_records(batch.to_vec());
        Fuser::new(FusionConfig::vote()).run(&batch, None)
    }

    #[test]
    fn predicted_fraction_counts_nones() {
        let mut out = fused(&[claim(7, 0, 10), claim(8, 0, 11), claim(9, 2, 12)]);
        let graph = Arc::clone(out.scored.graph());
        out.scored = ScoredSlots::new(graph, vec![Some(0.9), Some(0.2), None], vec![false; 3]);
        assert!((out.predicted_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(out.scored.probabilities().iter().flatten().count(), 2);
    }

    #[test]
    fn empty_output() {
        let out = fused(&[]);
        assert_eq!(out.predicted_fraction(), 0.0);
        assert!(out.scored.probabilities().is_empty());
        assert_eq!(out.scored.iter().count(), 0);
        assert_eq!(out.scored.get(0), None);
    }

    #[test]
    #[should_panic(expected = "one probability per slot")]
    fn scored_slots_need_one_probability_per_slot() {
        let out = fused(&[claim(7, 0, 10), claim(8, 0, 11)]);
        ScoredSlots::new(Arc::clone(out.scored.graph()), vec![None], vec![false; 2]);
    }

    #[test]
    fn attribution_indexing_and_extractor_dedup() {
        // Three provenances: extractor 0 on two pages, extractor 2 on one;
        // the first triple is claimed by all three, the second by the last.
        let batch = [
            claim(7, 0, 10),
            claim(7, 0, 11),
            claim(7, 2, 12),
            claim(8, 2, 12),
        ];
        let grouped = Grouped::build(&batch, Granularity::ExtractorPage, &MrConfig::sequential());
        let attribution = ProvenanceAttribution {
            graph: Arc::new(grouped),
            accuracy: vec![0.9, 0.5, 0.2],
            evaluated: vec![true, true, false],
        };
        assert_eq!(attribution.len(), 2);
        assert_eq!(attribution.provs(0), &[0, 1, 2]);
        assert_eq!(attribution.provs(1), &[2]);
        // Extractor 0 appears via two provenances but is reported once.
        assert_eq!(
            attribution.extractors(0),
            vec![ExtractorId(0), ExtractorId(2)]
        );
        let mean = attribution.mean_accuracy(0).unwrap();
        assert!((mean - (0.9 + 0.5 + 0.2) / 3.0).abs() < 1e-12);
    }
}
