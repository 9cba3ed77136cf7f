//! Error-taxonomy types (the paper's Fig. 17 automated error analysis).
//!
//! §3.2.1 / Fig. 17: the paper samples high-confidence false positives and
//! classifies them into **wrong-but-general values** (a correct but less
//! specific value, e.g. *South America* instead of *Chile*), **LCWA
//! artifacts** (true values the gold list simply does not record),
//! **systematic extraction errors** (the same wrong triple produced by one
//! or two extractors on many pages) and **entity / triple-linkage
//! mistakes**. The `kf-diagnose` crate implements heuristic classifiers
//! producing these categories; this module holds the shared vocabulary —
//! the category enum, per-dimension breakdowns, the heuristic-vs-injected
//! confusion matrix, and the assembled [`TaxonomyReport`] that `kf-eval`
//! embeds in `report.json`.
//!
//! Every type implements [`KvCodec`], so taxonomy cells can
//! ride through the MapReduce engine's external shuffle and whole reports
//! serialize to the same hand-rolled binary format as spill files.

use crate::codec::KvCodec;

/// The Fig. 17 error categories, as produced by the heuristic classifiers.
///
/// The same four-way split doubles as the *injected* ground-truth category
/// space: the synthetic corpus tags every extraction with its generator
/// outcome, which `kf-synth` maps onto these categories so the heuristic
/// attribution can be scored against the truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum ErrorCategory {
    /// A correct but more general (or more specific) hierarchy value —
    /// true in the world, false under the gold list (Fig. 17
    /// "specific/general value").
    WrongButGeneral = 0,
    /// A plausibly-true value the gold list does not record — the local
    /// closed-world assumption labelled a missing truth false.
    LcwaArtifact = 1,
    /// A systematic (pattern, data item) extraction breakage: the same
    /// wrong triple produced on many pages by one or two extractors.
    SystematicExtraction = 2,
    /// An entity-linkage, predicate-linkage or triple-identification
    /// mistake: the wrong subject, predicate or junk object.
    LinkageError = 3,
}

impl ErrorCategory {
    /// All categories, in index order.
    pub const ALL: [ErrorCategory; 4] = [
        ErrorCategory::WrongButGeneral,
        ErrorCategory::LcwaArtifact,
        ErrorCategory::SystematicExtraction,
        ErrorCategory::LinkageError,
    ];

    /// Number of categories.
    pub const COUNT: usize = 4;

    /// Stable machine-readable name (used as the `report.json` key).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCategory::WrongButGeneral => "wrong_but_general",
            ErrorCategory::LcwaArtifact => "lcwa_artifact",
            ErrorCategory::SystematicExtraction => "systematic_extraction",
            ErrorCategory::LinkageError => "linkage_error",
        }
    }

    /// Dense index into [`CategoryCounts`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`ErrorCategory::index`]; `None` for out-of-range tags.
    pub fn from_index(i: usize) -> Option<ErrorCategory> {
        ErrorCategory::ALL.get(i).copied()
    }
}

/// How a false positive's support spreads across the provenance
/// dimensions (pages × extractors) — the provenance-granularity axis of
/// the taxonomy. Systematic errors concentrate in
/// [`Spread::FewExtractorsManyPages`]; faithfully extracted
/// (LCWA-artifact) triples sit in the many-extractor class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Spread {
    /// One page, any number of extractors reading it.
    SinglePage = 0,
    /// Several pages, at most two distinct extractors.
    FewExtractorsManyPages = 1,
    /// Several pages, three or more distinct extractors.
    ManyExtractorsManyPages = 2,
}

impl Spread {
    /// All spread classes, in index order.
    pub const ALL: [Spread; 3] = [
        Spread::SinglePage,
        Spread::FewExtractorsManyPages,
        Spread::ManyExtractorsManyPages,
    ];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Spread::SinglePage => "single_page",
            Spread::FewExtractorsManyPages => "few_extractors_many_pages",
            Spread::ManyExtractorsManyPages => "many_extractors_many_pages",
        }
    }

    /// Classify a support shape.
    pub fn of(n_extractors: u16, n_pages: u32) -> Spread {
        if n_pages <= 1 {
            Spread::SinglePage
        } else if n_extractors <= 2 {
            Spread::FewExtractorsManyPages
        } else {
            Spread::ManyExtractorsManyPages
        }
    }
}

/// The hostile-corpus phenomena the generator can inject (`kf-synth`
/// scenario presets). Each phenomenon carries its own ground truth
/// (`Corpus::scenario_truth` in `kf-synth` joins fused triples to the
/// phenomenon that produced them), so the scenario matrix measures method
/// degradation against what was actually injected instead of assuming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum ScenarioPhenomenon {
    /// A record replicated by a correlated (copying) extractor.
    Copied = 0,
    /// A spam claim: one wrong voice per item pushed by many low-quality
    /// pages.
    Spam = 1,
    /// A stale claim from before a mid-corpus truth flip.
    Drift = 2,
    /// A linkage mistake on an inflated confusable-entity surface.
    Linkage = 3,
}

impl ScenarioPhenomenon {
    /// All phenomena, in index order.
    pub const ALL: [ScenarioPhenomenon; 4] = [
        ScenarioPhenomenon::Copied,
        ScenarioPhenomenon::Spam,
        ScenarioPhenomenon::Drift,
        ScenarioPhenomenon::Linkage,
    ];

    /// Stable machine-readable name (used as the `scenarios.json` key).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioPhenomenon::Copied => "copied",
            ScenarioPhenomenon::Spam => "spam",
            ScenarioPhenomenon::Drift => "drift",
            ScenarioPhenomenon::Linkage => "linkage",
        }
    }

    /// Dense index (0..4).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`ScenarioPhenomenon::index`]; `None` when out of range.
    pub fn from_index(i: usize) -> Option<ScenarioPhenomenon> {
        ScenarioPhenomenon::ALL.get(i).copied()
    }
}

/// One count per [`ErrorCategory`], indexed by [`ErrorCategory::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CategoryCounts(pub [u64; ErrorCategory::COUNT]);

impl CategoryCounts {
    /// The count for one category.
    #[inline]
    pub fn get(&self, c: ErrorCategory) -> u64 {
        self.0[c.index()]
    }

    /// Add `n` to a category.
    #[inline]
    pub fn add(&mut self, c: ErrorCategory, n: u64) {
        self.0[c.index()] += n;
    }

    /// Sum over all categories.
    #[inline]
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// Taxonomy of one confidence band `[lo, hi)` (the last band is closed
/// above): how much labelled mass the band holds and how its false
/// positives classify.
#[derive(Debug, Clone, PartialEq)]
pub struct BandBreakdown {
    /// Inclusive lower probability edge.
    pub lo: f64,
    /// Exclusive upper probability edge (`1.0` band is closed above).
    pub hi: f64,
    /// Gold-labelled (true + false) predicted triples in the band.
    pub n_labelled: u64,
    /// Labelled true.
    pub n_true: u64,
    /// False positives by heuristic category. Invariant (pinned by the
    /// `kf-diagnose` proptests): `counts.total() == n_labelled - n_true` —
    /// the categories exactly partition the band's false positives.
    pub counts: CategoryCounts,
}

impl BandBreakdown {
    /// False positives in the band.
    #[inline]
    pub fn n_false(&self) -> u64 {
        self.n_labelled - self.n_true
    }
}

/// Taxonomy of one group along a secondary dimension (a predicate, an
/// extractor, or a [`Spread`] class).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBreakdown {
    /// Raw dimension key (predicate id, extractor id, or spread index).
    pub key: u32,
    /// Human-readable label (predicate/extractor name, spread class name).
    pub label: String,
    /// False positives by heuristic category.
    pub counts: CategoryCounts,
}

/// One cell of the heuristic-vs-injected confusion matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfusionCell {
    /// Category assigned by the heuristic classifier.
    pub heuristic: ErrorCategory,
    /// Ground-truth category injected by the corpus generator (dominant
    /// outcome over the triple's extraction records).
    pub injected: ErrorCategory,
    /// Number of false positives in the cell.
    pub count: u64,
}

/// Attribution accuracy for one injected category: of the false positives
/// the generator tagged with this category, how many the heuristics
/// attributed correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CategoryAccuracy {
    /// Correctly attributed false positives.
    pub correct: u64,
    /// All false positives with this injected category.
    pub total: u64,
}

impl CategoryAccuracy {
    /// `correct / total` (`NaN` when the category is empty).
    pub fn accuracy(&self) -> f64 {
        self.correct as f64 / self.total as f64
    }
}

/// The assembled Fig. 17-style taxonomy of one fusion run's
/// high-confidence false positives.
///
/// Produced by `kf-diagnose`, embedded per method in `kf-eval`'s
/// `report.json`. Everything is deterministic for a fixed corpus and
/// configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaxonomyReport {
    /// Per confidence band, ascending by `lo`.
    pub bands: Vec<BandBreakdown>,
    /// Per predicate (only predicates with at least one false positive),
    /// ascending by key.
    pub predicates: Vec<GroupBreakdown>,
    /// Per supporting extractor (a false positive counts toward every
    /// extractor that produced it), ascending by key.
    pub extractors: Vec<GroupBreakdown>,
    /// Per support-spread class, ascending by key.
    pub spread: Vec<GroupBreakdown>,
    /// Per injected scenario phenomenon (key = [`ScenarioPhenomenon`]
    /// index, only phenomena with at least one false positive), ascending
    /// by key. Empty when no scenario ground truth was supplied — the
    /// default corpus injects none.
    pub scenarios: Vec<GroupBreakdown>,
    /// Heuristic-vs-injected confusion matrix (only non-empty cells),
    /// ordered by (heuristic, injected). Empty when no ground truth was
    /// supplied.
    pub confusion: Vec<ConfusionCell>,
    /// Mean final learned accuracy of the provenances supporting each
    /// category's false positives — systematic errors ride on provenances
    /// the fusion *trusts*. Empty when no attribution was supplied.
    pub mean_prov_accuracy: Vec<(ErrorCategory, f64)>,
    /// Attribution accuracy for injected systematic errors (the CI gate).
    pub systematic_attribution: Option<CategoryAccuracy>,
    /// Attribution accuracy for injected generalized values (the CI gate).
    pub generalized_attribution: Option<CategoryAccuracy>,
    /// All classified false positives across bands.
    pub n_false_positives: u64,
    /// All labelled predicted triples across bands.
    pub n_labelled: u64,
}

impl TaxonomyReport {
    /// Total false-positive mass of one category across all bands.
    pub fn category_mass(&self, c: ErrorCategory) -> u64 {
        self.bands.iter().map(|b| b.counts.get(c)).sum()
    }

    /// Fraction of false-positive mass in one category (`NaN` when there
    /// are no false positives).
    pub fn category_share(&self, c: ErrorCategory) -> f64 {
        self.category_mass(c) as f64 / self.n_false_positives as f64
    }
}

// ---- KvCodec impls -------------------------------------------------------

impl KvCodec for ErrorCategory {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        ErrorCategory::from_index(u8::decode(input)? as usize)
    }
}

impl KvCodec for Spread {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Spread::ALL.get(u8::decode(input)? as usize).copied()
    }
}

impl KvCodec for CategoryCounts {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        for n in &self.0 {
            n.encode(out);
        }
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let mut counts = [0u64; ErrorCategory::COUNT];
        for slot in &mut counts {
            *slot = u64::decode(input)?;
        }
        Some(CategoryCounts(counts))
    }
}

impl KvCodec for BandBreakdown {
    fn encode(&self, out: &mut Vec<u8>) {
        self.lo.encode(out);
        self.hi.encode(out);
        self.n_labelled.encode(out);
        self.n_true.encode(out);
        self.counts.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(BandBreakdown {
            lo: f64::decode(input)?,
            hi: f64::decode(input)?,
            n_labelled: u64::decode(input)?,
            n_true: u64::decode(input)?,
            counts: CategoryCounts::decode(input)?,
        })
    }
}

impl KvCodec for GroupBreakdown {
    fn encode(&self, out: &mut Vec<u8>) {
        self.key.encode(out);
        self.label.encode(out);
        self.counts.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(GroupBreakdown {
            key: u32::decode(input)?,
            label: String::decode(input)?,
            counts: CategoryCounts::decode(input)?,
        })
    }
}

impl KvCodec for ConfusionCell {
    fn encode(&self, out: &mut Vec<u8>) {
        self.heuristic.encode(out);
        self.injected.encode(out);
        self.count.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(ConfusionCell {
            heuristic: ErrorCategory::decode(input)?,
            injected: ErrorCategory::decode(input)?,
            count: u64::decode(input)?,
        })
    }
}

impl KvCodec for CategoryAccuracy {
    fn encode(&self, out: &mut Vec<u8>) {
        self.correct.encode(out);
        self.total.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(CategoryAccuracy {
            correct: u64::decode(input)?,
            total: u64::decode(input)?,
        })
    }
}

impl KvCodec for ScenarioPhenomenon {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        ScenarioPhenomenon::from_index(u8::decode(input)? as usize)
    }
}

impl KvCodec for TaxonomyReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.bands.encode(out);
        self.predicates.encode(out);
        self.extractors.encode(out);
        self.spread.encode(out);
        self.scenarios.encode(out);
        self.confusion.encode(out);
        self.mean_prov_accuracy.encode(out);
        self.systematic_attribution.encode(out);
        self.generalized_attribution.encode(out);
        self.n_false_positives.encode(out);
        self.n_labelled.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(TaxonomyReport {
            bands: Vec::decode(input)?,
            predicates: Vec::decode(input)?,
            extractors: Vec::decode(input)?,
            spread: Vec::decode(input)?,
            scenarios: Vec::decode(input)?,
            confusion: Vec::decode(input)?,
            mean_prov_accuracy: Vec::decode(input)?,
            systematic_attribution: Option::decode(input)?,
            generalized_attribution: Option::decode(input)?,
            n_false_positives: u64::decode(input)?,
            n_labelled: u64::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: KvCodec + PartialEq + std::fmt::Debug>(x: T) {
        let mut buf = Vec::new();
        x.encode(&mut buf);
        let mut input = &buf[..];
        assert_eq!(T::decode(&mut input), Some(x));
        assert!(input.is_empty());
    }

    fn sample_report() -> TaxonomyReport {
        let mut counts = CategoryCounts::default();
        counts.add(ErrorCategory::SystematicExtraction, 7);
        counts.add(ErrorCategory::LcwaArtifact, 3);
        TaxonomyReport {
            bands: vec![BandBreakdown {
                lo: 0.9,
                hi: 1.0,
                n_labelled: 20,
                n_true: 10,
                counts,
            }],
            predicates: vec![GroupBreakdown {
                key: 3,
                label: "predicate_3".into(),
                counts,
            }],
            extractors: vec![GroupBreakdown {
                key: 1,
                label: "TXT2".into(),
                counts,
            }],
            spread: vec![GroupBreakdown {
                key: 1,
                label: Spread::FewExtractorsManyPages.name().into(),
                counts,
            }],
            scenarios: vec![GroupBreakdown {
                key: ScenarioPhenomenon::Spam.index() as u32,
                label: ScenarioPhenomenon::Spam.name().into(),
                counts,
            }],
            confusion: vec![ConfusionCell {
                heuristic: ErrorCategory::SystematicExtraction,
                injected: ErrorCategory::SystematicExtraction,
                count: 6,
            }],
            mean_prov_accuracy: vec![(ErrorCategory::SystematicExtraction, 0.91)],
            systematic_attribution: Some(CategoryAccuracy {
                correct: 6,
                total: 7,
            }),
            generalized_attribution: None,
            n_false_positives: 10,
            n_labelled: 20,
        }
    }

    #[test]
    fn category_names_are_distinct_and_indices_roundtrip() {
        let names: std::collections::HashSet<_> =
            ErrorCategory::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), ErrorCategory::COUNT);
        for c in ErrorCategory::ALL {
            assert_eq!(ErrorCategory::from_index(c.index()), Some(c));
        }
        assert_eq!(ErrorCategory::from_index(4), None);
    }

    #[test]
    fn phenomenon_names_are_distinct_and_indices_roundtrip() {
        let names: std::collections::HashSet<_> =
            ScenarioPhenomenon::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), ScenarioPhenomenon::ALL.len());
        for p in ScenarioPhenomenon::ALL {
            assert_eq!(ScenarioPhenomenon::from_index(p.index()), Some(p));
        }
        assert_eq!(ScenarioPhenomenon::from_index(4), None);
        assert_eq!(ScenarioPhenomenon::decode(&mut &[7u8][..]), None);
        roundtrip(ScenarioPhenomenon::Drift);
    }

    #[test]
    fn spread_classification() {
        assert_eq!(Spread::of(5, 1), Spread::SinglePage);
        assert_eq!(Spread::of(1, 9), Spread::FewExtractorsManyPages);
        assert_eq!(Spread::of(2, 2), Spread::FewExtractorsManyPages);
        assert_eq!(Spread::of(3, 2), Spread::ManyExtractorsManyPages);
    }

    #[test]
    fn counts_partition_arithmetic() {
        let mut c = CategoryCounts::default();
        c.add(ErrorCategory::WrongButGeneral, 2);
        c.add(ErrorCategory::LinkageError, 5);
        assert_eq!(c.total(), 7);
        assert_eq!(c.get(ErrorCategory::LinkageError), 5);
        assert_eq!(c.get(ErrorCategory::LcwaArtifact), 0);
    }

    #[test]
    fn report_masses_and_shares() {
        let r = sample_report();
        assert_eq!(r.category_mass(ErrorCategory::SystematicExtraction), 7);
        assert!((r.category_share(ErrorCategory::SystematicExtraction) - 0.7).abs() < 1e-12);
        assert_eq!(r.bands[0].n_false(), 10);
        assert_eq!(
            r.systematic_attribution.unwrap().accuracy(),
            6.0 / 7.0,
            "attribution accuracy"
        );
    }

    #[test]
    fn taxonomy_types_roundtrip_through_kvcodec() {
        roundtrip(ErrorCategory::LcwaArtifact);
        roundtrip(Spread::ManyExtractorsManyPages);
        roundtrip(CategoryCounts([1, 2, 3, 4]));
        roundtrip(sample_report());
    }

    #[test]
    fn malformed_category_tags_are_rejected() {
        assert_eq!(ErrorCategory::decode(&mut &[9u8][..]), None);
        assert_eq!(Spread::decode(&mut &[3u8][..]), None);
    }

    #[test]
    fn truncated_report_is_rejected() {
        let mut buf = Vec::new();
        sample_report().encode(&mut buf);
        for cut in 0..buf.len() {
            let mut input = &buf[..cut];
            assert_eq!(
                TaxonomyReport::decode(&mut input),
                None,
                "cut at {cut} must fail"
            );
        }
    }
}
