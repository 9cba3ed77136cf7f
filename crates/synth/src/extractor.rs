//! The 12 simulated information extractors (§3.1.3, Table 2).
//!
//! Each extractor reads some content types on some class of sites, misses
//! claims (bounded recall), and corrupts a fraction of what it reads. The
//! corruption mix follows the paper's measured error breakdown (§3.2.1):
//! ~44% triple-identification errors, ~44% entity-linkage errors, ~20%
//! predicate-linkage errors, with only ~4% of false triples coming from the
//! sources themselves (injected upstream in `web.rs`).
//!
//! Two kinds of structure make the errors *realistically correlated* rather
//! than i.i.d. noise:
//!
//! 1. **Systematic pattern errors** — a (pattern, data item) cell can be
//!    deterministically "broken": the extractor then produces the *same*
//!    wrong triple from every page where the claim appears. These are the
//!    "common extraction errors by one or two extractors on a lot of
//!    Webpages" behind 40% of the paper's false positives and the accuracy
//!    cliffs of Figs. 6/7/18.
//! 2. **Shared linkage components** — extractors in the same linkage group
//!    resolve entities with the same (deterministic) confusable map, so
//!    when two of them err on the same entity they agree on the wrong
//!    answer (§3.1.3 "multiple extractors may use the same entity linkage
//!    tool").

use crate::web::{Claim, ContentType, SiteClass};
use crate::world::World;
use kf_types::{hash, ExtractorId, PatternId, SiteId, Triple, Value};
use rand::rngs::SmallRng;
use rand::Rng;

/// Relative mix of the three extraction error kinds (need not sum to 1;
/// normalised at use).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorProfile {
    /// Triple-identification errors: junk object values.
    pub triple_id: f64,
    /// Entity-linkage errors: confusable subject/object entities.
    pub entity_linkage: f64,
    /// Predicate-linkage errors: sibling predicates.
    pub predicate_linkage: f64,
}

impl ErrorProfile {
    /// The paper's measured mix (§3.2.1): 44 / 44 / 20.
    pub fn paper_mix() -> Self {
        ErrorProfile {
            triple_id: 0.44,
            entity_linkage: 0.44,
            predicate_linkage: 0.20,
        }
    }
}

/// How an extractor assigns confidence scores (Fig. 21 shows four shapes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfidenceModel {
    /// Correlated with correctness, centred away from the extremes
    /// (TXT1-style: mass around 0.4–0.7).
    Central,
    /// Correlated with correctness and sharply bimodal (DOM2-style: mass
    /// near 0 and 1).
    BimodalCalibrated,
    /// Bimodal but nearly uncorrelated with correctness (ANO-style: "the
    /// accuracy of the triples stays similar when the confidence
    /// increases").
    BimodalUninformative,
    /// Accuracy peaks at *medium* confidence (TBL1-style: "the peak of the
    /// accuracy occurs when the confidence is medium").
    PeakAtMiddle,
    /// No confidence provided (Table 2 "No conf.": DOM5, TBL2).
    None,
}

/// Which sites an extractor runs on (§3.1.3: TXT2–TXT4 share a framework
/// but run on normal pages / newswire / Wikipedia respectively; DOM5 runs
/// only on Wikipedia).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteFilter {
    /// All sites.
    All,
    /// Only the Wikipedia site.
    WikipediaOnly,
    /// Only newswire sites.
    NewswireOnly,
    /// Everything except Wikipedia ("normal Webpages").
    GeneralOnly,
}

impl SiteFilter {
    /// Does the filter admit a page from `class`?
    pub fn admits(self, class: SiteClass) -> bool {
        match self {
            SiteFilter::All => true,
            SiteFilter::WikipediaOnly => class == SiteClass::Wikipedia,
            SiteFilter::NewswireOnly => class == SiteClass::Newswire,
            SiteFilter::GeneralOnly => class == SiteClass::General,
        }
    }
}

/// Full specification of one simulated extractor.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractorSpec {
    /// Display name (TXT1 … ANO).
    pub name: String,
    /// Content types the extractor reads. DOM extractors also read TBL
    /// sections (web tables are DOM trees, §3.1.3).
    pub sections: Vec<ContentType>,
    /// Site targeting.
    pub site_filter: SiteFilter,
    /// Probability of processing an admitted page at all.
    pub page_coverage: f64,
    /// Probability of extracting a given claim from a processed page.
    pub recall: f64,
    /// Number of learned patterns (0 ⇒ no patterns, Table 2 "No pat.").
    pub n_patterns: u32,
    /// Base per-extraction corruption probability (before the per-pattern
    /// quality multiplier).
    pub base_error: f64,
    /// Spread of per-pattern quality: effective error is
    /// `base_error × m` with `m` log-uniform in `[1/spread, spread]`.
    /// §3.2.1: "in most cases the accuracy ranges from nearly 0 to nearly 1
    /// under the same extractor".
    pub pattern_spread: f64,
    /// Error-kind mix.
    pub profile: ErrorProfile,
    /// Probability that a (pattern, data item) cell is systematically
    /// broken.
    pub systematic_rate: f64,
    /// Probability of reporting a *more general* hierarchy value instead of
    /// the leaf (correct but LCWA-false; Fig. 17 "specific/general value").
    pub generalize_rate: f64,
    /// Confidence model.
    pub confidence: ConfidenceModel,
    /// Extractors sharing a linkage group make identical linkage mistakes.
    pub linkage_group: u8,
}

/// What happened to one claim as it passed through an extractor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractionOutcome {
    /// Faithfully extracted (the triple matches the page claim).
    Faithful,
    /// Corrupted by a random triple-identification error.
    TripleIdError,
    /// Corrupted by an entity-linkage error.
    EntityLinkageError,
    /// Corrupted by a predicate-linkage error.
    PredicateLinkageError,
    /// Systematic (pattern, item) breakage — same wrong triple everywhere.
    SystematicError,
    /// Reported a more general hierarchy value (still true in the world).
    Generalized,
}

impl ExtractionOutcome {
    /// All outcomes, in a stable order (used by per-outcome counters).
    pub const ALL: [ExtractionOutcome; 6] = [
        ExtractionOutcome::Faithful,
        ExtractionOutcome::TripleIdError,
        ExtractionOutcome::EntityLinkageError,
        ExtractionOutcome::PredicateLinkageError,
        ExtractionOutcome::SystematicError,
        ExtractionOutcome::Generalized,
    ];

    /// Dense index into [`ExtractionOutcome::ALL`].
    pub fn index(self) -> usize {
        ExtractionOutcome::ALL
            .iter()
            .position(|&o| o == self)
            .expect("outcome listed in ALL")
    }

    /// The Fig. 17 ground-truth category this generator outcome injects —
    /// the join target for scoring the heuristic classifiers of
    /// `kf-diagnose`. A *faithful* extraction that still ends up labelled
    /// false is, by construction, a gold-list (LCWA) artifact or an
    /// upstream source error — the paper folds both into the
    /// "not-a-real-extraction-error" half of Fig. 17.
    pub fn taxonomy_category(self) -> kf_types::ErrorCategory {
        use kf_types::ErrorCategory;
        match self {
            ExtractionOutcome::Faithful => ErrorCategory::LcwaArtifact,
            ExtractionOutcome::Generalized => ErrorCategory::WrongButGeneral,
            ExtractionOutcome::SystematicError => ErrorCategory::SystematicExtraction,
            ExtractionOutcome::TripleIdError
            | ExtractionOutcome::EntityLinkageError
            | ExtractionOutcome::PredicateLinkageError => ErrorCategory::LinkageError,
        }
    }
}

/// The sections of `sections` as a bit mask (bit [`ContentType::index`]).
pub(crate) fn section_mask(sections: impl IntoIterator<Item = ContentType>) -> u8 {
    sections
        .into_iter()
        .fold(0, |mask, section| mask | 1 << section.index())
}

/// One extractor as corpus generation drives it, holding what every claim
/// read would otherwise recompute: the sections it reads as a bit mask and
/// its [`ExtractorSpec::error_rate`] per pattern, each rate computed (an
/// `ln` and an `exp`) on its pattern's first read. An unheld table, or a
/// pattern set past [`Reader::MAX_PATTERNS`], computes the rate on every
/// read.
pub(crate) struct Reader {
    /// The extractor reading.
    id: ExtractorId,
    /// [`section_mask`] of the spec's sections.
    sections: u8,
    /// Rate per pattern index; NaN until first read.
    rates: Vec<f64>,
}

impl Reader {
    const MAX_PATTERNS: u32 = 1 << 20;

    /// `spec` reading as extractor `id`, with a rate table.
    pub(crate) fn new(spec: &ExtractorSpec, id: ExtractorId) -> Self {
        let n = if spec.n_patterns <= Self::MAX_PATTERNS {
            spec.n_patterns as usize
        } else {
            0
        };
        Reader {
            rates: vec![f64::NAN; n],
            ..Self::unheld(spec, id)
        }
    }

    /// `spec` reading as extractor `id`, holding no rates (no allocation).
    fn unheld(spec: &ExtractorSpec, id: ExtractorId) -> Self {
        Reader {
            id,
            sections: section_mask(spec.sections.iter().copied()),
            rates: Vec::new(),
        }
    }

    /// Does the extractor read some section of `mask`?
    pub(crate) fn reads_any(&self, mask: u8) -> bool {
        self.sections & mask != 0
    }

    /// Does the extractor read `section`?
    pub(crate) fn reads(&self, section: ContentType) -> bool {
        self.reads_any(section_mask([section]))
    }

    /// `spec.error_rate(id, pattern)`, `spec` being the extractor the
    /// reader was built for.
    fn error_rate(&mut self, spec: &ExtractorSpec, pattern: PatternId) -> f64 {
        // `PatternId::NONE` indexes past every table.
        match self.rates.get_mut(pattern.raw() as usize) {
            Some(rate) => {
                if rate.is_nan() {
                    *rate = spec.error_rate(self.id, pattern);
                }
                *rate
            }
            None => spec.error_rate(self.id, pattern),
        }
    }
}

/// One simulated extraction produced by [`ExtractorSpec::extract`].
#[derive(Debug, Clone, Copy)]
pub struct SimulatedExtraction {
    /// The (possibly corrupted) triple.
    pub triple: Triple,
    /// Pattern used.
    pub pattern: PatternId,
    /// Confidence score, if the extractor provides one.
    pub confidence: Option<f32>,
    /// Ground-truth outcome of the extraction step.
    pub outcome: ExtractionOutcome,
}

impl ExtractorSpec {
    /// Deterministic pattern choice for a claim: patterns specialise by
    /// predicate and site, so a pattern's triples share failure modes.
    pub fn pattern_for(&self, id: ExtractorId, claim: &Claim, site: SiteId) -> PatternId {
        if self.n_patterns == 0 {
            return PatternId::NONE;
        }
        let h = hash::hash_u64(
            0x5eed_0000_0000_0000
                ^ ((id.raw() as u64) << 48)
                ^ (claim.item.predicate.raw() as u64) << 20
                ^ (site.raw() as u64),
        );
        PatternId((h % self.n_patterns as u64) as u32)
    }

    /// Per-pattern error multiplier, log-uniform in `[1/spread, spread]`,
    /// deterministic per (extractor, pattern).
    fn pattern_multiplier(&self, id: ExtractorId, pattern: PatternId) -> f64 {
        if self.pattern_spread <= 1.0 || pattern.is_none() {
            return 1.0;
        }
        let h = hash::hash_u64(((id.raw() as u64) << 32) ^ pattern.raw() as u64);
        let u = (h % 1_000_000) as f64 / 1_000_000.0; // [0, 1)
        let ln_s = self.pattern_spread.ln();
        ((2.0 * u - 1.0) * ln_s).exp()
    }

    /// Random-corruption probability of a claim read through `pattern`.
    fn error_rate(&self, id: ExtractorId, pattern: PatternId) -> f64 {
        (self.base_error * self.pattern_multiplier(id, pattern)).clamp(0.0, 0.95)
    }

    /// Simulate this extractor reading one claim. Returns `None` when the
    /// claim is skipped (bounded recall). `rng` drives the *random* error
    /// component; systematic behaviour is hash-derived and independent of
    /// the rng.
    pub fn extract(
        &self,
        id: ExtractorId,
        world: &World,
        claim: &Claim,
        site: SiteId,
        rng: &mut SmallRng,
    ) -> Option<SimulatedExtraction> {
        self.extract_with(
            &mut Reader::unheld(self, id),
            world,
            claim,
            site,
            rng,
            || world.is_true(&claim.triple()),
        )
    }

    /// [`ExtractorSpec::extract`] through `reader`, built for this spec,
    /// taking the claim's world truth from `claim_true`, so corpus
    /// generation repeats no per-extractor or per-claim work per record.
    pub(crate) fn extract_with(
        &self,
        reader: &mut Reader,
        world: &World,
        claim: &Claim,
        site: SiteId,
        rng: &mut SmallRng,
        claim_true: impl FnOnce() -> bool,
    ) -> Option<SimulatedExtraction> {
        let id = reader.id;
        if !reader.reads(claim.section) {
            return None;
        }
        if !rng.gen_bool(self.recall) {
            return None;
        }

        let pattern = self.pattern_for(id, claim, site);
        let base_triple = claim.triple();

        // --- Systematic (pattern, item) breakage --------------------------
        let cell = hash::hash_u64(
            0xbad0_0000_0000_0000
                ^ ((id.raw() as u64) << 40)
                ^ ((pattern.raw() as u64) << 16).rotate_left(17)
                ^ claim.item.encode(),
        );
        let broken = (cell % 1_000_000) as f64 / 1_000_000.0 < self.systematic_rate;
        if broken {
            let triple = self.systematic_corruption(id, world, claim, cell);
            let correct = world.is_true(&triple);
            return Some(SimulatedExtraction {
                triple,
                pattern,
                confidence: self.confidence_for(correct, rng),
                outcome: ExtractionOutcome::SystematicError,
            });
        }

        // --- Hierarchy generalisation -------------------------------------
        if self.generalize_rate > 0.0 && rng.gen_bool(self.generalize_rate) {
            if let Some(parent) = kf_types::ValueHierarchy::parent(world, claim.value) {
                let triple = Triple::new(claim.item.subject, claim.item.predicate, parent);
                let correct = world.is_true(&triple);
                return Some(SimulatedExtraction {
                    triple,
                    pattern,
                    confidence: self.confidence_for(correct, rng),
                    outcome: ExtractionOutcome::Generalized,
                });
            }
        }

        // --- Random corruption ---------------------------------------------
        if rng.gen_bool(reader.error_rate(self, pattern)) {
            let (triple, outcome) = self.random_corruption(world, &base_triple, rng);
            // A triple-identification error carries a junk value, and the
            // junk pool is disjoint from every world fact.
            let correct = outcome != ExtractionOutcome::TripleIdError && world.is_true(&triple);
            debug_assert_eq!(correct, world.is_true(&triple));
            return Some(SimulatedExtraction {
                triple,
                pattern,
                confidence: self.confidence_for(correct, rng),
                outcome,
            });
        }

        // --- Faithful extraction -------------------------------------------
        Some(SimulatedExtraction {
            triple: base_triple,
            pattern,
            confidence: self.confidence_for(claim_true(), rng),
            outcome: ExtractionOutcome::Faithful,
        })
    }

    /// Deterministic corruption for a broken (pattern, item) cell: every
    /// page yields the same wrong triple.
    fn systematic_corruption(
        &self,
        _id: ExtractorId,
        world: &World,
        claim: &Claim,
        cell: u64,
    ) -> Triple {
        let p = self.profile;
        let total = p.triple_id + p.entity_linkage + p.predicate_linkage;
        let pick = ((cell >> 32) % 1_000) as f64 / 1_000.0 * total;
        let subject = claim.item.subject;
        let predicate = claim.item.predicate;
        if pick < p.triple_id {
            // Always the same junk value for this cell.
            Triple::new(subject, predicate, world.noise_value(cell))
        } else if pick < p.triple_id + p.entity_linkage {
            // Linkage component is shared: the confusable map is global.
            match claim.value {
                Value::Entity(e) => match world.confusable(e) {
                    Some(c) => Triple::new(subject, predicate, Value::Entity(c)),
                    None => Triple::new(subject, predicate, world.noise_value(cell)),
                },
                _ => match world.confusable(subject) {
                    Some(c) => Triple::new(c, predicate, claim.value),
                    None => Triple::new(subject, predicate, world.noise_value(cell)),
                },
            }
        } else {
            match world.sibling(predicate) {
                Some(s) => Triple::new(subject, s, claim.value),
                None => Triple::new(subject, predicate, world.noise_value(cell)),
            }
        }
    }

    /// Random per-extraction corruption following the error profile.
    fn random_corruption(
        &self,
        world: &World,
        base: &Triple,
        rng: &mut SmallRng,
    ) -> (Triple, ExtractionOutcome) {
        let p = self.profile;
        let total = p.triple_id + p.entity_linkage + p.predicate_linkage;
        let pick: f64 = rng.gen_range(0.0..total.max(1e-9));
        if pick < p.triple_id {
            (
                Triple::new(base.subject, base.predicate, world.noise_value(rng.gen())),
                ExtractionOutcome::TripleIdError,
            )
        } else if pick < p.triple_id + p.entity_linkage {
            // Object-side confusion when the object is an entity, otherwise
            // subject-side confusion (both occur in the paper's examples).
            let corrupted = match base.object {
                Value::Entity(e) => world
                    .confusable(e)
                    .map(|c| Triple::new(base.subject, base.predicate, Value::Entity(c))),
                _ => world
                    .confusable(base.subject)
                    .map(|c| Triple::new(c, base.predicate, base.object)),
            };
            match corrupted {
                Some(t) => (t, ExtractionOutcome::EntityLinkageError),
                None => (
                    Triple::new(base.subject, base.predicate, world.noise_value(rng.gen())),
                    ExtractionOutcome::TripleIdError,
                ),
            }
        } else {
            match world.sibling(base.predicate) {
                Some(s) => (
                    Triple::new(base.subject, s, base.object),
                    ExtractionOutcome::PredicateLinkageError,
                ),
                None => (
                    Triple::new(base.subject, base.predicate, world.noise_value(rng.gen())),
                    ExtractionOutcome::TripleIdError,
                ),
            }
        }
    }

    /// Sample a confidence score given the extraction's correctness.
    fn confidence_for(&self, correct: bool, rng: &mut SmallRng) -> Option<f32> {
        let clamp = |x: f64| x.clamp(0.01, 1.0) as f32;
        match self.confidence {
            ConfidenceModel::None => None,
            ConfidenceModel::Central => {
                let mu = if correct { 0.62 } else { 0.42 };
                Some(clamp(mu + rng.gen_range(-0.25..0.25)))
            }
            ConfidenceModel::BimodalCalibrated => {
                let high = if correct {
                    rng.gen_bool(0.85)
                } else {
                    rng.gen_bool(0.35)
                };
                let mu = if high { 0.93 } else { 0.08 };
                Some(clamp(mu + rng.gen_range(-0.08..0.08)))
            }
            ConfidenceModel::BimodalUninformative => {
                let high = rng.gen_bool(0.55);
                let mu = if high { 0.9 } else { 0.1 };
                Some(clamp(mu + rng.gen_range(-0.1..0.1)))
            }
            ConfidenceModel::PeakAtMiddle => {
                let mu = if correct {
                    0.5
                } else if rng.gen_bool(0.5) {
                    0.9
                } else {
                    0.15
                };
                Some(clamp(mu + rng.gen_range(-0.12..0.12)))
            }
        }
    }
}

// ---- KvCodec impls (corpus checkpointing; see `crate::persist`) ----------

use kf_types::KvCodec;

impl KvCodec for ErrorProfile {
    fn encode(&self, out: &mut Vec<u8>) {
        self.triple_id.encode(out);
        self.entity_linkage.encode(out);
        self.predicate_linkage.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(ErrorProfile {
            triple_id: f64::decode(input)?,
            entity_linkage: f64::decode(input)?,
            predicate_linkage: f64::decode(input)?,
        })
    }
}

impl KvCodec for ConfidenceModel {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ConfidenceModel::Central => 0,
            ConfidenceModel::BimodalCalibrated => 1,
            ConfidenceModel::BimodalUninformative => 2,
            ConfidenceModel::PeakAtMiddle => 3,
            ConfidenceModel::None => 4,
        });
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(ConfidenceModel::Central),
            1 => Some(ConfidenceModel::BimodalCalibrated),
            2 => Some(ConfidenceModel::BimodalUninformative),
            3 => Some(ConfidenceModel::PeakAtMiddle),
            4 => Some(ConfidenceModel::None),
            _ => None,
        }
    }
}

impl KvCodec for SiteFilter {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            SiteFilter::All => 0,
            SiteFilter::WikipediaOnly => 1,
            SiteFilter::NewswireOnly => 2,
            SiteFilter::GeneralOnly => 3,
        });
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(SiteFilter::All),
            1 => Some(SiteFilter::WikipediaOnly),
            2 => Some(SiteFilter::NewswireOnly),
            3 => Some(SiteFilter::GeneralOnly),
            _ => None,
        }
    }
}

/// Travels as the dense index into [`ExtractionOutcome::ALL`].
impl KvCodec for ExtractionOutcome {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.index() as u8);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        ExtractionOutcome::ALL
            .get(u8::decode(input)? as usize)
            .copied()
    }
}

impl KvCodec for ExtractorSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.sections.encode(out);
        self.site_filter.encode(out);
        self.page_coverage.encode(out);
        self.recall.encode(out);
        self.n_patterns.encode(out);
        self.base_error.encode(out);
        self.pattern_spread.encode(out);
        self.profile.encode(out);
        self.systematic_rate.encode(out);
        self.generalize_rate.encode(out);
        self.confidence.encode(out);
        self.linkage_group.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(ExtractorSpec {
            name: String::decode(input)?,
            sections: Vec::decode(input)?,
            site_filter: SiteFilter::decode(input)?,
            page_coverage: f64::decode(input)?,
            recall: f64::decode(input)?,
            n_patterns: u32::decode(input)?,
            base_error: f64::decode(input)?,
            pattern_spread: f64::decode(input)?,
            profile: ErrorProfile::decode(input)?,
            systematic_rate: f64::decode(input)?,
            generalize_rate: f64::decode(input)?,
            confidence: ConfidenceModel::decode(input)?,
            linkage_group: u8::decode(input)?,
        })
    }
}

/// The 12 default extractors: 4 TXT, 5 DOM, 2 TBL, 1 ANO (Table 2), with
/// quality, coverage, patterns, confidence shapes and correlation structure
/// tuned to reproduce the table's spread (accuracy 0.09–0.78, high variance
/// across patterns, shared linkage components).
pub fn default_extractors() -> Vec<ExtractorSpec> {
    use ContentType::*;
    let mix = ErrorProfile::paper_mix();
    vec![
        // TXT1: own implementation, all pages, huge pattern set, mediocre
        // accuracy (0.36), central confidence.
        ExtractorSpec {
            name: "TXT1".into(),
            sections: vec![Txt],
            site_filter: SiteFilter::All,
            page_coverage: 0.85,
            recall: 0.75,
            n_patterns: 4_000,
            base_error: 0.52,
            pattern_spread: 3.0,
            profile: mix,
            systematic_rate: 0.020,
            generalize_rate: 0.05,
            confidence: ConfidenceModel::Central,
            linkage_group: 0,
        },
        // TXT2: shared framework, normal pages, low accuracy (0.18) but
        // high-confidence subset is good (0.80).
        ExtractorSpec {
            name: "TXT2".into(),
            sections: vec![Txt],
            site_filter: SiteFilter::GeneralOnly,
            page_coverage: 0.55,
            recall: 0.6,
            n_patterns: 3_000,
            base_error: 0.75,
            pattern_spread: 2.5,
            profile: mix,
            systematic_rate: 0.030,
            generalize_rate: 0.04,
            confidence: ConfidenceModel::BimodalCalibrated,
            linkage_group: 0,
        },
        // TXT3: same framework on newswire (0.25 / 0.81).
        ExtractorSpec {
            name: "TXT3".into(),
            sections: vec![Txt],
            site_filter: SiteFilter::NewswireOnly,
            page_coverage: 0.9,
            recall: 0.65,
            n_patterns: 1_200,
            base_error: 0.66,
            pattern_spread: 2.5,
            profile: mix,
            systematic_rate: 0.025,
            generalize_rate: 0.04,
            confidence: ConfidenceModel::BimodalCalibrated,
            linkage_group: 0,
        },
        // TXT4: same framework on Wikipedia — the most accurate extractor
        // (0.78 / 0.91).
        ExtractorSpec {
            name: "TXT4".into(),
            sections: vec![Txt],
            site_filter: SiteFilter::WikipediaOnly,
            page_coverage: 0.95,
            recall: 0.8,
            n_patterns: 120,
            base_error: 0.15,
            pattern_spread: 1.5,
            profile: mix,
            systematic_rate: 0.004,
            generalize_rate: 0.03,
            confidence: ConfidenceModel::BimodalCalibrated,
            linkage_group: 0,
        },
        // DOM1: all pages, biggest contributor, medium accuracy (0.43).
        ExtractorSpec {
            name: "DOM1".into(),
            sections: vec![Dom, Tbl],
            site_filter: SiteFilter::All,
            page_coverage: 0.9,
            recall: 0.85,
            n_patterns: 20_000,
            base_error: 0.44,
            pattern_spread: 3.0,
            profile: mix,
            systematic_rate: 0.018,
            generalize_rate: 0.05,
            confidence: ConfidenceModel::Central,
            linkage_group: 1,
        },
        // DOM2: all pages, different implementation, very low accuracy
        // (0.09) yet decent at high confidence (0.62); bimodal confidence.
        ExtractorSpec {
            name: "DOM2".into(),
            sections: vec![Dom, Tbl],
            site_filter: SiteFilter::All,
            page_coverage: 0.95,
            recall: 0.8,
            n_patterns: 0,
            base_error: 0.87,
            pattern_spread: 1.0,
            profile: mix,
            systematic_rate: 0.040,
            generalize_rate: 0.02,
            confidence: ConfidenceModel::BimodalCalibrated,
            linkage_group: 1,
        },
        // DOM3: entity-type focused, good quality (0.58 / 0.93).
        ExtractorSpec {
            name: "DOM3".into(),
            sections: vec![Dom],
            site_filter: SiteFilter::All,
            page_coverage: 0.35,
            recall: 0.55,
            n_patterns: 0,
            base_error: 0.30,
            pattern_spread: 1.0,
            profile: mix,
            systematic_rate: 0.008,
            generalize_rate: 0.03,
            confidence: ConfidenceModel::BimodalCalibrated,
            linkage_group: 1,
        },
        // DOM4: entity-type focused, poor (0.26 / 0.34).
        ExtractorSpec {
            name: "DOM4".into(),
            sections: vec![Dom],
            site_filter: SiteFilter::All,
            page_coverage: 0.4,
            recall: 0.6,
            n_patterns: 0,
            base_error: 0.68,
            pattern_spread: 1.0,
            profile: mix,
            systematic_rate: 0.035,
            generalize_rate: 0.03,
            confidence: ConfidenceModel::PeakAtMiddle,
            linkage_group: 2,
        },
        // DOM5: Wikipedia only, low accuracy (0.13), no confidence.
        ExtractorSpec {
            name: "DOM5".into(),
            sections: vec![Dom],
            site_filter: SiteFilter::WikipediaOnly,
            page_coverage: 0.85,
            recall: 0.5,
            n_patterns: 0,
            base_error: 0.80,
            pattern_spread: 1.0,
            profile: mix,
            systematic_rate: 0.050,
            generalize_rate: 0.02,
            confidence: ConfidenceModel::None,
            linkage_group: 2,
        },
        // TBL1: web tables, poor schema mapping (0.24), misleading
        // confidence (accuracy peaks at medium confidence).
        ExtractorSpec {
            name: "TBL1".into(),
            sections: vec![Tbl],
            site_filter: SiteFilter::All,
            page_coverage: 0.8,
            recall: 0.75,
            n_patterns: 0,
            base_error: 0.70,
            pattern_spread: 1.0,
            profile: ErrorProfile {
                // Schema-mapping failures are predicate-linkage heavy.
                triple_id: 0.30,
                entity_linkage: 0.25,
                predicate_linkage: 0.45,
            },
            systematic_rate: 0.045,
            generalize_rate: 0.02,
            confidence: ConfidenceModel::PeakAtMiddle,
            linkage_group: 2,
        },
        // TBL2: better schema mapping (0.69), no confidence.
        ExtractorSpec {
            name: "TBL2".into(),
            sections: vec![Tbl],
            site_filter: SiteFilter::All,
            page_coverage: 0.6,
            recall: 0.7,
            n_patterns: 0,
            base_error: 0.22,
            pattern_spread: 1.0,
            profile: ErrorProfile {
                triple_id: 0.30,
                entity_linkage: 0.25,
                predicate_linkage: 0.45,
            },
            systematic_rate: 0.010,
            generalize_rate: 0.02,
            confidence: ConfidenceModel::None,
            linkage_group: 3,
        },
        // ANO: schema.org annotations (0.28), bimodal confidence that is
        // nearly uninformative (Fig. 21).
        ExtractorSpec {
            name: "ANO".into(),
            sections: vec![Ano],
            site_filter: SiteFilter::All,
            page_coverage: 0.9,
            recall: 0.8,
            n_patterns: 0,
            base_error: 0.64,
            pattern_spread: 1.0,
            profile: mix,
            systematic_rate: 0.030,
            generalize_rate: 0.03,
            confidence: ConfidenceModel::BimodalUninformative,
            linkage_group: 0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthConfig;
    use crate::web::Web;
    use kf_types::DataItem;
    use rand::SeedableRng;

    fn setup() -> (World, Web, Vec<ExtractorSpec>) {
        let cfg = SynthConfig::tiny();
        let world = World::generate(&cfg.world, 11);
        let web = Web::generate(&world, &cfg.web, 11);
        (world, web, default_extractors())
    }

    fn first_claim(web: &Web) -> (Claim, SiteId) {
        let page = web
            .pages
            .iter()
            .find(|p| !p.claims.is_empty())
            .expect("a page with claims");
        (page.claims[0], page.site)
    }

    #[test]
    fn twelve_extractors_with_table2_names() {
        let specs = default_extractors();
        assert_eq!(specs.len(), 12);
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "TXT1", "TXT2", "TXT3", "TXT4", "DOM1", "DOM2", "DOM3", "DOM4", "DOM5", "TBL1",
                "TBL2", "ANO"
            ]
        );
    }

    #[test]
    fn section_mix_matches_table2() {
        let specs = default_extractors();
        let txt = specs
            .iter()
            .filter(|s| s.sections.contains(&ContentType::Txt))
            .count();
        let tbl_only = specs
            .iter()
            .filter(|s| s.sections == vec![ContentType::Tbl])
            .count();
        let ano = specs
            .iter()
            .filter(|s| s.sections.contains(&ContentType::Ano))
            .count();
        assert_eq!(txt, 4);
        assert_eq!(tbl_only, 2);
        assert_eq!(ano, 1);
    }

    #[test]
    fn extract_skips_unhandled_sections() {
        let (world, web, specs) = setup();
        let (mut claim, site) = first_claim(&web);
        claim.section = ContentType::Ano;
        let txt1 = &specs[0];
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(txt1
            .extract(ExtractorId(0), &world, &claim, site, &mut rng)
            .is_none());
    }

    #[test]
    fn pattern_assignment_is_deterministic_and_in_range() {
        let (_, web, specs) = setup();
        let (claim, site) = first_claim(&web);
        let spec = &specs[0];
        let a = spec.pattern_for(ExtractorId(0), &claim, site);
        let b = spec.pattern_for(ExtractorId(0), &claim, site);
        assert_eq!(a, b);
        assert!(a.raw() < spec.n_patterns);
        // Pattern-free extractor gets the sentinel.
        let tbl2 = &specs[10];
        assert!(tbl2.pattern_for(ExtractorId(10), &claim, site).is_none());
    }

    #[test]
    fn systematic_cells_always_produce_the_same_triple() {
        let (world, web, _) = setup();
        // Force a spec with systematic_rate 1.0 so every cell is broken.
        let spec = ExtractorSpec {
            systematic_rate: 1.0,
            recall: 1.0,
            ..default_extractors()[0].clone()
        };
        let (mut claim, site) = first_claim(&web);
        claim.section = ContentType::Txt;
        let mut outs = Vec::new();
        for seed in 0..10 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let out = spec
                .extract(ExtractorId(0), &world, &claim, site, &mut rng)
                .expect("recall 1.0 must extract");
            assert_eq!(out.outcome, ExtractionOutcome::SystematicError);
            outs.push(out.triple);
        }
        assert!(
            outs.windows(2).all(|w| w[0] == w[1]),
            "cell not deterministic"
        );
    }

    #[test]
    fn faithful_extractions_preserve_the_claim() {
        let (world, web, _) = setup();
        let spec = ExtractorSpec {
            base_error: 0.0,
            systematic_rate: 0.0,
            generalize_rate: 0.0,
            recall: 1.0,
            sections: ContentType::ALL.to_vec(),
            ..default_extractors()[0].clone()
        };
        let mut rng = SmallRng::seed_from_u64(5);
        for page in web.pages.iter().take(50) {
            for claim in &page.claims {
                let out = spec
                    .extract(ExtractorId(0), &world, claim, page.site, &mut rng)
                    .unwrap();
                assert_eq!(out.outcome, ExtractionOutcome::Faithful);
                assert_eq!(out.triple.object, claim.value);
                assert_eq!(out.triple.data_item(), claim.item);
            }
        }
    }

    #[test]
    fn corruption_changes_the_triple() {
        let (world, web, _) = setup();
        let spec = ExtractorSpec {
            base_error: 0.95, // clamped max
            systematic_rate: 0.0,
            generalize_rate: 0.0,
            recall: 1.0,
            sections: ContentType::ALL.to_vec(),
            pattern_spread: 1.0,
            ..default_extractors()[0].clone()
        };
        let mut rng = SmallRng::seed_from_u64(6);
        let mut corrupted = 0;
        let mut total = 0;
        for page in web.pages.iter().take(100) {
            for claim in &page.claims {
                let out = spec
                    .extract(ExtractorId(0), &world, claim, page.site, &mut rng)
                    .unwrap();
                total += 1;
                if out.outcome != ExtractionOutcome::Faithful {
                    corrupted += 1;
                    let base = Triple::new(claim.item.subject, claim.item.predicate, claim.value);
                    assert_ne!(out.triple, base, "corruption produced the original triple");
                }
            }
        }
        assert!(corrupted as f64 > 0.8 * total as f64);
    }

    #[test]
    fn predicate_linkage_errors_move_the_data_item() {
        let (world, web, _) = setup();
        let spec = ExtractorSpec {
            base_error: 0.95,
            systematic_rate: 0.0,
            generalize_rate: 0.0,
            recall: 1.0,
            sections: ContentType::ALL.to_vec(),
            pattern_spread: 1.0,
            profile: ErrorProfile {
                triple_id: 0.0,
                entity_linkage: 0.0,
                predicate_linkage: 1.0,
            },
            ..default_extractors()[0].clone()
        };
        let mut rng = SmallRng::seed_from_u64(7);
        let mut moved = 0;
        for page in web.pages.iter().take(100) {
            for claim in &page.claims {
                let out = spec
                    .extract(ExtractorId(0), &world, claim, page.site, &mut rng)
                    .unwrap();
                if out.outcome == ExtractionOutcome::PredicateLinkageError {
                    assert_eq!(
                        out.triple.predicate,
                        world.sibling(claim.item.predicate).unwrap()
                    );
                    moved += 1;
                }
            }
        }
        assert!(moved > 0);
    }

    #[test]
    fn confidence_models_produce_expected_support() {
        let (world, web, _) = setup();
        let base = default_extractors()[0].clone();
        let mut rng = SmallRng::seed_from_u64(8);
        let (claim, site) = first_claim(&web);
        let mut claim = claim;
        claim.section = ContentType::Txt;

        let with_model = |m, rng: &mut SmallRng| {
            let spec = ExtractorSpec {
                confidence: m,
                recall: 1.0,
                ..base.clone()
            };
            spec.extract(ExtractorId(0), &world, &claim, site, rng)
                .unwrap()
                .confidence
        };
        assert!(with_model(ConfidenceModel::None, &mut rng).is_none());
        for m in [
            ConfidenceModel::Central,
            ConfidenceModel::BimodalCalibrated,
            ConfidenceModel::BimodalUninformative,
            ConfidenceModel::PeakAtMiddle,
        ] {
            let c = with_model(m, &mut rng).expect("confidence expected");
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn site_filters_admit_expected_classes() {
        assert!(SiteFilter::All.admits(SiteClass::Wikipedia));
        assert!(SiteFilter::WikipediaOnly.admits(SiteClass::Wikipedia));
        assert!(!SiteFilter::WikipediaOnly.admits(SiteClass::General));
        assert!(SiteFilter::NewswireOnly.admits(SiteClass::Newswire));
        assert!(!SiteFilter::NewswireOnly.admits(SiteClass::Wikipedia));
        assert!(SiteFilter::GeneralOnly.admits(SiteClass::General));
        assert!(!SiteFilter::GeneralOnly.admits(SiteClass::Wikipedia));
    }

    #[test]
    fn pattern_multiplier_spreads_quality() {
        let spec = default_extractors()[0].clone();
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for p in 0..1000 {
            let m = spec.pattern_multiplier(ExtractorId(0), PatternId(p));
            lo = lo.min(m);
            hi = hi.max(m);
        }
        assert!(lo < 0.6, "low multiplier {lo}");
        assert!(hi > 1.8, "high multiplier {hi}");
    }

    #[test]
    fn held_error_rates_equal_computed_ones_bit_for_bit() {
        for (i, spec) in default_extractors().iter().enumerate() {
            let id = ExtractorId(i as u16);
            let mut held = Reader::new(spec, id);
            let mut patterns: Vec<PatternId> =
                (0..spec.n_patterns.min(500)).map(PatternId).collect();
            patterns.push(PatternId::NONE);
            // Twice: the first read fills the table, the second reads it.
            for _ in 0..2 {
                for &p in &patterns {
                    let want = spec.error_rate(id, p);
                    assert_eq!(held.error_rate(spec, p).to_bits(), want.to_bits());
                    let unheld = Reader::unheld(spec, id).error_rate(spec, p);
                    assert_eq!(unheld.to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn extract_reads_truth_from_the_world_not_the_source_flag() {
        // A caller's own claim may carry any `source_error` flag; the
        // confidence still follows the claim's world truth.
        let (world, web, specs) = setup();
        let spec = ExtractorSpec {
            sections: ContentType::ALL.to_vec(),
            recall: 1.0,
            systematic_rate: 0.0,
            generalize_rate: 0.0,
            base_error: 0.0,
            confidence: ConfidenceModel::Central,
            ..specs[0].clone()
        };
        let mut checked = 0;
        for page in web.pages.iter().take(100) {
            for claim in &page.claims {
                let flipped = Claim {
                    source_error: !claim.source_error,
                    ..*claim
                };
                let read = |c: &Claim| {
                    let mut rng = SmallRng::seed_from_u64(7);
                    let sim = spec
                        .extract(ExtractorId(0), &world, c, page.site, &mut rng)
                        .expect("full recall");
                    (sim.triple, sim.confidence, sim.outcome)
                };
                assert_eq!(read(claim), read(&flipped));
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn generalization_walks_up_the_hierarchy() {
        let (world, _, _) = setup();
        // Build a claim whose value is a hierarchy leaf.
        let Some((item, leaf)) = world.items().iter().find_map(|item| {
            world
                .truths(item)
                .iter()
                .find_map(|&v| kf_types::ValueHierarchy::parent(&world, v).map(|_| (*item, v)))
        }) else {
            return; // no hierarchy-valued items in this tiny world
        };
        let claim = Claim {
            item,
            value: leaf,
            section: ContentType::Txt,
            source_error: false,
        };
        let spec = ExtractorSpec {
            generalize_rate: 1.0,
            systematic_rate: 0.0,
            recall: 1.0,
            ..default_extractors()[0].clone()
        };
        let mut rng = SmallRng::seed_from_u64(9);
        let out = spec
            .extract(ExtractorId(0), &world, &claim, SiteId(0), &mut rng)
            .unwrap();
        assert_eq!(out.outcome, ExtractionOutcome::Generalized);
        assert_eq!(
            Some(out.triple.object),
            kf_types::ValueHierarchy::parent(&world, leaf)
        );
    }

    #[test]
    fn item_is_unchanged_except_for_linkage_moves() {
        // Entity-linkage on the subject and predicate-linkage change the
        // data item; everything else keeps it.
        let (world, web, _) = setup();
        let spec = default_extractors()[4].clone(); // DOM1
        let mut rng = SmallRng::seed_from_u64(10);
        for page in web.pages.iter().take(200) {
            for claim in &page.claims {
                if let Some(out) = spec.extract(ExtractorId(4), &world, claim, page.site, &mut rng)
                {
                    match out.outcome {
                        ExtractionOutcome::Faithful | ExtractionOutcome::Generalized => {
                            assert_eq!(out.triple.data_item(), claim.item);
                        }
                        _ => {
                            // Data item may or may not move; both fine.
                            let _ = out.triple.data_item();
                        }
                    }
                }
            }
        }
        let _ = DataItem::new(kf_types::EntityId(0), kf_types::PredicateId(0));
    }
}
