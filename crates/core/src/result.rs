//! Fusion output types.

use crate::observation::Grouped;
use kf_mapreduce::{JobStats, RoundOutcome};
use kf_types::{ExtractorId, FxHashMap, ProvenanceKey, Triple};
use std::sync::Arc;

/// One unique triple with its estimated truthfulness probability.
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

/// The result of one fusion run.
#[derive(Debug, Clone)]
pub struct FusionOutput {
    /// Scored unique triples, sorted by data item.
    pub scored: Vec<ScoredTriple>,
    /// How the iteration terminated.
    pub outcome: RoundOutcome,
    /// Mean absolute provenance-accuracy change after each round.
    pub round_deltas: Vec<f64>,
    /// Number of provenances at the configured granularity.
    pub n_provenances: usize,
    /// Merged MapReduce counters across all stages and rounds.
    pub stats: JobStats,
}

impl FusionOutput {
    /// Fraction of triples with a predicted probability (the paper reports
    /// 91.8% → 99.4% across refinement settings).
    pub fn predicted_fraction(&self) -> f64 {
        if self.scored.is_empty() {
            return 0.0;
        }
        let predicted = self
            .scored
            .iter()
            .filter(|s| s.probability.is_some())
            .count();
        predicted as f64 / self.scored.len() as f64
    }

    /// Look-up table from triple to probability.
    pub fn probability_map(&self) -> FxHashMap<Triple, f64> {
        self.scored
            .iter()
            .filter_map(|s| s.probability.map(|p| (s.triple, p)))
            .collect()
    }

    /// Triples with probability ≥ `threshold` ("trust them and use them
    /// directly", §3.2.2).
    pub fn accepted(&self, threshold: f64) -> impl Iterator<Item = &ScoredTriple> {
        self.scored
            .iter()
            .filter(move |s| s.probability.is_some_and(|p| p >= threshold))
    }

    /// Triples with probability < `threshold` (candidate negative training
    /// examples, §3.2.2).
    pub fn rejected(&self, threshold: f64) -> impl Iterator<Item = &ScoredTriple> {
        self.scored
            .iter()
            .filter(move |s| s.probability.is_some_and(|p| p < threshold))
    }
}

/// Per-value provenance attribution: which provenances (at the run's
/// granularity) support each scored triple, with their *final* learned
/// accuracies.
///
/// [`FusionOutput`] deliberately keeps only support counts per triple; the
/// error-taxonomy classifiers of `kf-diagnose` additionally need to know
/// *who* supports a high-confidence false positive (one extractor on many
/// pages is the systematic-error signature) and how much the fusion ended
/// up trusting that support. Obtain one from
/// [`Fuser::run_with_attribution`](crate::Fuser::run_with_attribution) or
/// [`Fuser::run_prebuilt`](crate::Fuser::run_prebuilt): it holds the
/// claim graph the run fused over, shared rather than copied, so index `i`
/// lines up with `FusionOutput::scored[i]` and building it costs nothing.
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
    use kf_types::{EntityId, PredicateId, Value};

    fn st(s: u32, p: f64) -> ScoredTriple {
        ScoredTriple {
            triple: Triple::new(EntityId(s), PredicateId(0), Value::Entity(EntityId(0))),
            probability: Some(p),
            n_provenances: 1,
            n_extractors: 1,
            n_pages: 1,
            fallback: false,
        }
    }

    fn output(scored: Vec<ScoredTriple>) -> FusionOutput {
        FusionOutput {
            scored,
            outcome: RoundOutcome::Converged {
                rounds: 1,
                delta: 0.0,
            },
            round_deltas: vec![0.0],
            n_provenances: 0,
            stats: JobStats::default(),
        }
    }

    #[test]
    fn predicted_fraction_counts_nones() {
        let mut missing = st(3, 0.0);
        missing.probability = None;
        let out = output(vec![st(1, 0.9), st(2, 0.2), missing]);
        assert!((out.predicted_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(out.probability_map().len(), 2);
    }

    #[test]
    fn accept_reject_partition() {
        let out = output(vec![st(1, 0.95), st(2, 0.5), st(3, 0.05)]);
        let accepted: Vec<u32> = out.accepted(0.9).map(|s| s.triple.subject.0).collect();
        let rejected: Vec<u32> = out.rejected(0.1).map(|s| s.triple.subject.0).collect();
        assert_eq!(accepted, vec![1]);
        assert_eq!(rejected, vec![3]);
    }

    #[test]
    fn empty_output() {
        let out = output(vec![]);
        assert_eq!(out.predicted_fraction(), 0.0);
        assert!(out.probability_map().is_empty());
    }

    #[test]
    fn attribution_indexing_and_extractor_dedup() {
        use kf_mapreduce::MrConfig;
        use kf_types::{
            Extraction, ExtractorId, Granularity, PageId, PatternId, Provenance, SiteId,
        };
        // Three provenances: extractor 0 on two pages, extractor 2 on one;
        // the first triple is claimed by all three, the second by the last.
        let claim = |object: u32, extractor: u16, page: u32| {
            Extraction::new(
                Triple::new(EntityId(1), PredicateId(0), Value::Entity(EntityId(object))),
                Provenance::new(
                    ExtractorId(extractor),
                    PageId(page),
                    SiteId(0),
                    PatternId::NONE,
                ),
            )
        };
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
