//! End-to-end corpus generation: world → web → extractions → gold labels.

use crate::config::SynthConfig;
use crate::extractor::{
    default_extractors, section_mask, ExtractionOutcome, ExtractorSpec, Reader, SimulatedExtraction,
};
use crate::freebase::build_gold;
use crate::web::{ContentType, Web};
use crate::world::World;
use kf_types::{
    hash, DataItem, Extraction, ExtractionBatch, ExtractorId, GoldStandard, Provenance,
    ScenarioPhenomenon, Triple, Value,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A fully generated synthetic corpus: the stand-in for the paper's 1.6B
/// unique triples extracted by 12 extractors from 1B+ pages.
///
/// A corpus can be checkpointed to disk and reloaded without
/// regeneration — see [`Corpus::save`] / [`Corpus::load`] in
/// [`crate::persist`].
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    /// Ground-truth world (full truth; *not* visible to fusion).
    pub world: World,
    /// The simulated web.
    pub web: Web,
    /// The Freebase-style gold standard (partial; visible to evaluation and
    /// to the semi-supervised accuracy initialisation).
    pub gold: GoldStandard,
    /// The extraction records — fusion's input.
    pub batch: ExtractionBatch,
    /// Content-type of each record (parallel to `batch.records`; Fig. 3).
    pub sections: Vec<ContentType>,
    /// Generator-truth outcome of each record (parallel to
    /// `batch.records`); lets tests and the error taxonomy validate
    /// behaviour without re-deriving causes.
    pub outcomes: Vec<ExtractionOutcome>,
    /// The extractor specifications used.
    pub extractors: Vec<ExtractorSpec>,
    /// The seed the corpus was generated from.
    pub seed: u64,
    /// Injected hostile-scenario ground truth (all-empty for an honest
    /// corpus). Persisted with the corpus so scenario gates can run on
    /// checkpoint snapshots.
    pub scenario: ScenarioTruth,
}

/// The per-phenomenon ground truth a hostile corpus carries: exactly what
/// the scenario generators injected, so the scenario matrix measures
/// method degradation against recorded fact rather than assumption.
///
/// Defaults to all-empty; [`Corpus::scenario_truth`] derives the
/// per-triple phenomenon join consumed by `kf-diagnose`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioTruth {
    /// Indices into `batch.records` of records emitted by a copier
    /// replicating its source extractor, ascending.
    pub copied_records: Vec<u32>,
    /// Spam targets: `(item, wrong value)` pushed by the spam campaign,
    /// sorted by item.
    pub spam: Vec<(DataItem, Value)>,
    /// First spam page id (pages `spam_page_start..` are spam; only
    /// meaningful when `spam` is non-empty).
    pub spam_page_start: u32,
    /// Drifted items and their stale pre-flip values, sorted by item.
    pub drift: Vec<(DataItem, Value)>,
    /// Pages with id below this claimed the stale value (0 when drift is
    /// inactive).
    pub drift_flip_page: u32,
    /// Whether the hard-linkage scenario was active (inflated confusable
    /// ring and/or boosted linkage error weights).
    pub linkage_boosted: bool,
}

impl ScenarioTruth {
    /// True when no scenario injected anything.
    pub fn is_empty(&self) -> bool {
        self.copied_records.is_empty()
            && self.spam.is_empty()
            && self.drift.is_empty()
            && !self.linkage_boosted
    }
}

impl Corpus {
    /// Generate a corpus with the default 12 extractors.
    pub fn generate(cfg: &SynthConfig, seed: u64) -> Corpus {
        Self::generate_with_extractors(cfg, default_extractors(), seed)
    }

    /// Generate a corpus with custom extractors (the `custom_extractor`
    /// example plugs in user-defined specs here).
    pub fn generate_with_extractors(
        cfg: &SynthConfig,
        extractors: Vec<ExtractorSpec>,
        seed: u64,
    ) -> Corpus {
        let sc = &cfg.scenarios;
        let world = {
            let _span = kf_telemetry::span("world");
            World::generate_with_confusable_ring(&cfg.world, sc.linkage.confusable_ring, seed)
        };
        let (web, injection) = {
            let _span = kf_telemetry::span("web");
            Web::generate_with_scenarios(&world, &cfg.web, sc, seed)
        };
        let gold = {
            let _span = kf_telemetry::span("gold");
            build_gold(&world, &cfg.gold, seed)
        };
        let _extraction = kf_telemetry::span("extraction");

        // Hard linkage: scale every extractor's linkage error weights (the
        // corruption sampler normalizes, so composition shifts toward
        // linkage mistakes without raising the total error rate).
        let linkage_boosted = sc.linkage.confusable_ring > 2 || sc.linkage.error_boost > 1.0;
        let extractors: Vec<ExtractorSpec> = if sc.linkage.error_boost > 1.0 {
            extractors
                .into_iter()
                .map(|mut spec| {
                    spec.profile.entity_linkage *= sc.linkage.error_boost;
                    spec.profile.predicate_linkage *= sc.linkage.error_boost;
                    spec
                })
                .collect()
        } else {
            extractors
        };

        let copying = sc.copying.dependence > 0.0;
        let dependence = sc.copying.dependence.clamp(0.0, 1.0);

        let mut batch = ExtractionBatch::new();
        let mut sections = Vec::new();
        let mut outcomes = Vec::new();
        let mut copied_records: Vec<u32> = Vec::new();

        // Copying scratch: the source (even-indexed) extractor's per-claim
        // output on the current page, consumed by the copier one index up.
        let mut source_sims: Vec<Option<SimulatedExtraction>> = Vec::new();
        let mut readers: Vec<Reader> = extractors
            .iter()
            .enumerate()
            .map(|(ex_index, spec)| Reader::new(spec, ExtractorId(ex_index as u16)))
            .collect();

        for page in &web.pages {
            let class = Web::site_class(page.site, web.n_sites);
            let page_sections = section_mask(page.claims.iter().map(|c| c.section));
            let mut source_from = usize::MAX;
            for (ex_index, spec) in extractors.iter().enumerate() {
                let ex_id = ExtractorId(ex_index as u16);
                let reader = &mut readers[ex_index];
                let is_source = copying && ex_index % 2 == 0;
                if is_source {
                    // A source that skips the page leaves nothing to copy.
                    source_from = usize::MAX;
                }
                if !spec.site_filter.admits(class) {
                    continue;
                }
                // An extractor that reads none of the page's sections
                // draws nothing and emits nothing (a source among them
                // leaves nothing to copy); only a copier still copies.
                let copier = copying && ex_index % 2 == 1 && source_from == ex_index - 1;
                if !copier && !reader.reads_any(page_sections) {
                    continue;
                }
                // Deterministic per-(page, extractor) randomness: corpus
                // content is independent of iteration order and stable
                // across runs.
                let mut rng = SmallRng::seed_from_u64(hash::hash_u64(
                    seed ^ ((page.id.raw() as u64) << 16) ^ ex_index as u64,
                ));
                if !rng.gen_bool(spec.page_coverage) {
                    continue;
                }
                if is_source {
                    source_sims.clear();
                    source_sims.resize(page.claims.len(), None);
                    source_from = ex_index;
                }
                // The copier's dedicated rng keeps copy decisions out of
                // the extraction stream (same salt shape as the
                // per-(page, extractor) rng, distinct stream).
                let mut copy_rng = copier.then(|| {
                    SmallRng::seed_from_u64(hash::hash_u64(
                        seed ^ 0xc0b1_ed0f_f51e_57a1
                            ^ ((page.id.raw() as u64) << 16)
                            ^ ex_index as u64,
                    ))
                });
                for (ci, claim) in page.claims.iter().enumerate() {
                    if let Some(crng) = copy_rng.as_mut() {
                        if let Some(src) = source_sims[ci] {
                            if crng.gen_bool(dependence) {
                                // Replicate the source's record wholesale —
                                // triple, pattern, confidence, outcome —
                                // under the copier's identity.
                                copied_records.push(batch.len() as u32);
                                batch.push(Extraction {
                                    triple: src.triple,
                                    provenance: Provenance::new(
                                        ex_id,
                                        page.id,
                                        page.site,
                                        src.pattern,
                                    ),
                                    confidence: src.confidence,
                                });
                                sections.push(claim.section);
                                outcomes.push(src.outcome);
                                continue;
                            }
                        }
                    }
                    if !reader.reads(claim.section) {
                        continue;
                    }
                    // A generated claim is world-true exactly when its
                    // source is not in error (wrong values never hit a truth).
                    let claim_true = || {
                        debug_assert_eq!(world.is_true(&claim.triple()), !claim.source_error);
                        !claim.source_error
                    };
                    let Some(sim) =
                        spec.extract_with(reader, &world, claim, page.site, &mut rng, claim_true)
                    else {
                        continue;
                    };
                    if is_source {
                        source_sims[ci] = Some(sim);
                    }
                    let prov = Provenance::new(ex_id, page.id, page.site, sim.pattern);
                    batch.push(Extraction {
                        triple: sim.triple,
                        provenance: prov,
                        confidence: sim.confidence,
                    });
                    sections.push(claim.section);
                    outcomes.push(sim.outcome);
                }
            }
        }

        if copying {
            kf_telemetry::add("synth.scenario.copied_records", copied_records.len() as u64);
        }
        if linkage_boosted {
            kf_telemetry::add("synth.scenario.confusables", world.n_confusables() as u64);
        }

        let scenario = ScenarioTruth {
            copied_records,
            spam: injection.spam,
            spam_page_start: injection.spam_page_start,
            drift: injection.drift,
            drift_flip_page: injection.drift_flip_page,
            linkage_boosted,
        };

        Corpus {
            world,
            web,
            gold,
            batch,
            sections,
            outcomes,
            extractors,
            seed,
            scenario,
        }
    }

    /// Overall extraction accuracy against the *world* (exact-match).
    pub fn world_accuracy(&self) -> f64 {
        if self.batch.is_empty() {
            return 0.0;
        }
        let correct = self
            .batch
            .iter()
            .filter(|e| self.world.is_true(&e.triple))
            .count();
        correct as f64 / self.batch.len() as f64
    }

    /// The generator-truth outcome of each *unique* triple: the dominant
    /// (most frequent) [`ExtractionOutcome`] over the triple's extraction
    /// records, with frequency ties broken by severity (systematic >
    /// generalized > linkage kinds > faithful). This is the join the error
    /// taxonomy (`kf-diagnose`) scores its heuristic classifiers against:
    /// a fused triple is *injected-systematic* when most of the records
    /// that produced it came from a broken (pattern, item) cell.
    pub fn dominant_outcomes(&self) -> kf_types::FxHashMap<Triple, ExtractionOutcome> {
        let mut counts: kf_types::FxHashMap<Triple, [u32; 6]> = kf_types::FxHashMap::default();
        for (e, &outcome) in self.batch.iter().zip(&self.outcomes) {
            counts.entry(e.triple).or_default()[outcome.index()] += 1;
        }
        counts
            .into_iter()
            .map(|(triple, per_outcome)| (triple, dominant(&per_outcome)))
            .collect()
    }

    /// [`Corpus::dominant_outcomes`] mapped onto the Fig. 17 category
    /// space, for each triple the gold standard labels **false** — the
    /// ground-truth side of the heuristic-vs-injected confusion matrix.
    /// Only gold-false triples can be false positives, so they are the
    /// only ones the taxonomy looks up (28 % of the unique triples at
    /// paper scale); true and unlabelled triples are left out.
    ///
    /// One refinement over the raw per-record outcome: Fig. 17's
    /// "systematic extraction error" is a *phenomenon* — "common
    /// extraction errors by one or two extractors on **a lot of
    /// Webpages**" — not a mechanism. A broken (pattern, item) cell whose
    /// claim appears on a single page produces exactly one wrong record,
    /// observationally identical to the one-off linkage / triple-id
    /// corruption it is built from (the cell corruption reuses the same
    /// three error kinds). Such single-page cases are therefore labelled
    /// [`ErrorCategory::LinkageError`](kf_types::ErrorCategory); the
    /// systematic category is reserved for triples whose wrong value was
    /// actually replicated across ≥ 2 distinct pages.
    pub fn taxonomy_truth(&self) -> kf_types::FxHashMap<Triple, kf_types::ErrorCategory> {
        use kf_types::{ErrorCategory, FxHashMap, Label, PageId};
        // One pass over the records, folding each gold-false one: per
        // triple, its per-outcome counts and whether a second distinct
        // page carried it (first page, saw another) — only the ≥ 2
        // distinction matters. The map grows as it fills: the share of
        // gold-false triples is not known up front.
        let mut per_triple: FxHashMap<Triple, ([u32; 6], PageId, bool)> = FxHashMap::default();
        for (e, &outcome) in self.batch.iter().zip(&self.outcomes) {
            if self.gold.label(&e.triple) != Label::False {
                continue;
            }
            let page = e.provenance.page;
            let slot = per_triple.entry(e.triple).or_insert(([0; 6], page, false));
            slot.0[outcome.index()] += 1;
            slot.2 |= slot.1 != page;
        }
        let mut truth = FxHashMap::with_capacity_and_hasher(per_triple.len(), Default::default());
        for (triple, (per_outcome, _, multi_page)) in per_triple {
            let mut cat = dominant(&per_outcome).taxonomy_category();
            if cat == ErrorCategory::SystematicExtraction && !multi_page {
                cat = ErrorCategory::LinkageError;
            }
            truth.insert(triple, cat);
        }
        truth
    }

    /// The per-triple scenario-phenomenon join: which injected hostile
    /// phenomenon, if any, produced each unique triple. This is the
    /// ground-truth side of the scenario matrix — `kf-diagnose` joins it
    /// against a method's false positives so measured degradation traces
    /// back to what was actually injected.
    ///
    /// Precedence for triples touched by several phenomena (later inserts
    /// win): linkage < copied < drift < spam — the more targeted injection
    /// owns the triple. Linkage only joins when the linkage scenario was
    /// active; the honest corpus's background linkage noise is not a
    /// scenario phenomenon. Empty for an honest corpus.
    pub fn scenario_truth(&self) -> kf_types::FxHashMap<Triple, ScenarioPhenomenon> {
        let mut truth: kf_types::FxHashMap<Triple, ScenarioPhenomenon> =
            kf_types::FxHashMap::default();
        if self.scenario.is_empty() {
            return truth;
        }
        if self.scenario.linkage_boosted {
            for (triple, outcome) in self.dominant_outcomes() {
                if matches!(
                    outcome,
                    ExtractionOutcome::EntityLinkageError
                        | ExtractionOutcome::PredicateLinkageError
                ) {
                    truth.insert(triple, ScenarioPhenomenon::Linkage);
                }
            }
        }
        for &i in &self.scenario.copied_records {
            truth.insert(
                self.batch.records[i as usize].triple,
                ScenarioPhenomenon::Copied,
            );
        }
        for &(item, stale) in &self.scenario.drift {
            truth.insert(
                Triple::new(item.subject, item.predicate, stale),
                ScenarioPhenomenon::Drift,
            );
        }
        for &(item, value) in &self.scenario.spam {
            truth.insert(
                Triple::new(item.subject, item.predicate, value),
                ScenarioPhenomenon::Spam,
            );
        }
        truth
    }

    /// Overall extraction accuracy against the gold standard under LCWA
    /// (the paper's ~30% headline number), computed over labelled records.
    pub fn lcwa_accuracy(&self) -> f64 {
        let mut labelled = 0usize;
        let mut correct = 0usize;
        for e in self.batch.iter() {
            if let Some(ok) = self.gold.label(&e.triple).as_bool() {
                labelled += 1;
                correct += ok as usize;
            }
        }
        if labelled == 0 {
            0.0
        } else {
            correct as f64 / labelled as f64
        }
    }
}

/// The most frequent outcome of a triple's records (`per_outcome` is
/// indexed by [`ExtractionOutcome::index`]), frequency ties broken by
/// severity: rarer, more structured error kinds win, so a 50/50 split
/// never degrades to Faithful.
fn dominant(per_outcome: &[u32; 6]) -> ExtractionOutcome {
    fn priority(o: ExtractionOutcome) -> u8 {
        match o {
            ExtractionOutcome::SystematicError => 5,
            ExtractionOutcome::Generalized => 4,
            ExtractionOutcome::EntityLinkageError => 3,
            ExtractionOutcome::PredicateLinkageError => 2,
            ExtractionOutcome::TripleIdError => 1,
            ExtractionOutcome::Faithful => 0,
        }
    }
    ExtractionOutcome::ALL
        .into_iter()
        .max_by_key(|&o| (per_outcome[o.index()], priority(o)))
        .expect("ALL is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthConfig;

    fn corpus() -> Corpus {
        Corpus::generate(&SynthConfig::small(), 17)
    }

    #[test]
    fn corpus_has_substance() {
        let c = corpus();
        assert!(c.batch.len() > 10_000, "only {} records", c.batch.len());
        assert_eq!(c.sections.len(), c.batch.len());
        assert_eq!(c.outcomes.len(), c.batch.len());
        assert!(
            c.batch.unique_triples() < c.batch.len(),
            "no duplicate extraction at all"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(&SynthConfig::tiny(), 5);
        let b = Corpus::generate(&SynthConfig::tiny(), 5);
        assert_eq!(a.batch.len(), b.batch.len());
        for (x, y) in a.batch.iter().zip(b.batch.iter()) {
            assert_eq!(x.triple, y.triple);
            assert_eq!(x.provenance, y.provenance);
            assert_eq!(x.confidence, y.confidence);
        }
    }

    #[test]
    fn different_seeds_give_different_corpora() {
        let a = Corpus::generate(&SynthConfig::tiny(), 1);
        let b = Corpus::generate(&SynthConfig::tiny(), 2);
        assert_ne!(a.batch.len(), b.batch.len());
    }

    #[test]
    fn overall_accuracy_is_paperlike() {
        // Paper: ~30% of extracted triples are correct (LCWA); extractor
        // accuracies range 0.09–0.78. Our corpus should land in a band
        // around that.
        let c = corpus();
        let acc = c.lcwa_accuracy();
        assert!((0.15..0.55).contains(&acc), "LCWA accuracy {acc}");
        let wacc = c.world_accuracy();
        assert!((0.2..0.7).contains(&wacc), "world accuracy {wacc}");
    }

    #[test]
    fn all_extractors_contribute() {
        let c = corpus();
        let mut seen = vec![false; c.extractors.len()];
        for e in c.batch.iter() {
            seen[e.provenance.extractor.index()] = true;
        }
        for (i, s) in seen.iter().enumerate() {
            assert!(*s, "extractor {} produced nothing", c.extractors[i].name);
        }
    }

    #[test]
    fn provenance_sites_match_pages() {
        let c = corpus();
        for e in c.batch.iter().take(5_000) {
            let page = &c.web.pages[e.provenance.page.index()];
            assert_eq!(page.site, e.provenance.site);
        }
    }

    #[test]
    fn most_records_carry_confidence() {
        // Paper: 99.5% of extractions have a confidence; ours is lower
        // because 2 of 12 extractors provide none, but the majority must.
        let c = corpus();
        let with_conf = c.batch.iter().filter(|e| e.confidence.is_some()).count();
        assert!(with_conf as f64 > 0.7 * c.batch.len() as f64);
    }

    #[test]
    fn outcome_bookkeeping_matches_world_truth() {
        let c = corpus();
        for (e, outcome) in c.batch.iter().zip(&c.outcomes).take(20_000) {
            match outcome {
                ExtractionOutcome::Faithful => {
                    // Faithful extraction of a source-error claim can still
                    // be false; faithful extraction of a correct claim must
                    // be world-true.
                    let page = &c.web.pages[e.provenance.page.index()];
                    let claim_true = page
                        .claims
                        .iter()
                        .any(|cl| cl.item == e.triple.data_item() && cl.value == e.triple.object);
                    assert!(claim_true, "faithful extraction not on page");
                }
                ExtractionOutcome::Generalized => {
                    // The object must be the hierarchy parent of some claim
                    // value on the page; hierarchy-truth additionally holds
                    // whenever the underlying claim was not a source error.
                    let page = &c.web.pages[e.provenance.page.index()];
                    let parent_of_claim = page.claims.iter().any(|cl| {
                        cl.item == e.triple.data_item()
                            && kf_types::ValueHierarchy::parent(&c.world, cl.value)
                                == Some(e.triple.object)
                    });
                    assert!(parent_of_claim, "generalized triple not parent of a claim");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn dominant_outcomes_cover_every_unique_triple() {
        let c = Corpus::generate(&SynthConfig::tiny(), 9);
        let dominant = c.dominant_outcomes();
        assert_eq!(dominant.len(), c.batch.unique_triples());
        // Every record's triple has a dominant outcome, and a triple seen
        // only once inherits that record's outcome exactly.
        let mut seen_once: kf_types::FxHashMap<_, Vec<ExtractionOutcome>> =
            kf_types::FxHashMap::default();
        for (e, &o) in c.batch.iter().zip(&c.outcomes) {
            seen_once.entry(e.triple).or_default().push(o);
        }
        for (triple, outcomes) in &seen_once {
            assert!(dominant.contains_key(triple));
            if outcomes.len() == 1 {
                assert_eq!(dominant[triple], outcomes[0]);
            }
        }
        // The truth join covers exactly the gold-false triples and maps
        // them onto the taxonomy categories, except that a dominant
        // systematic outcome without the multi-page phenomenon degrades
        // to the linkage category.
        let truth = c.taxonomy_truth();
        let gold_false = |t: &Triple| c.gold.label(t) == kf_types::Label::False;
        let n_false = dominant.keys().filter(|t| gold_false(t)).count();
        assert!(0 < n_false && n_false < dominant.len());
        assert_eq!(truth.len(), n_false);
        let mut pages: kf_types::FxHashMap<_, std::collections::HashSet<_>> =
            kf_types::FxHashMap::default();
        for e in c.batch.iter() {
            pages.entry(e.triple).or_default().insert(e.provenance.page);
        }
        for (triple, o) in dominant {
            if !gold_false(&triple) {
                assert!(!truth.contains_key(&triple), "{triple:?}");
                continue;
            }
            let expected = match o.taxonomy_category() {
                kf_types::ErrorCategory::SystematicExtraction if pages[&triple].len() < 2 => {
                    kf_types::ErrorCategory::LinkageError
                }
                cat => cat,
            };
            assert_eq!(truth[&triple], expected);
        }
    }

    /// The `small` preset under each scenario of the hostile-corpus matrix
    /// (honest first), with `kf-bench`'s `scenario_config` knobs.
    fn small_under_every_scenario() -> Vec<(&'static str, SynthConfig)> {
        use crate::config::{
            CopyingConfig, DriftConfig, LinkageConfig, ScenarioConfig, SpamConfig,
        };
        let base = SynthConfig::small();
        let scenarios = [
            ("honest", ScenarioConfig::default()),
            (
                "copying",
                ScenarioConfig {
                    copying: CopyingConfig { dependence: 0.6 },
                    ..Default::default()
                },
            ),
            (
                "spam",
                ScenarioConfig {
                    spam: SpamConfig {
                        n_pages: base.web.n_pages / 8,
                        n_items: 50,
                        claims_per_page: 4,
                        n_sites: 8,
                    },
                    ..Default::default()
                },
            ),
            (
                "drift",
                ScenarioConfig {
                    drift: DriftConfig {
                        fraction: 0.2,
                        position: 0.5,
                    },
                    ..Default::default()
                },
            ),
            (
                "linkage",
                ScenarioConfig {
                    linkage: LinkageConfig {
                        confusable_ring: 6,
                        error_boost: 3.0,
                    },
                    ..Default::default()
                },
            ),
        ];
        scenarios
            .into_iter()
            .map(|(name, scenarios)| {
                let mut cfg = base.clone();
                cfg.scenarios = scenarios;
                (name, cfg)
            })
            .collect()
    }

    /// The three-pass definition of [`Corpus::taxonomy_truth`] over every
    /// unique triple: dominant outcomes, then the page spread of the
    /// systematic-dominant triples, then the category map.
    fn taxonomy_truth_three_pass(
        c: &Corpus,
    ) -> kf_types::FxHashMap<Triple, kf_types::ErrorCategory> {
        use kf_types::{ErrorCategory, PageId};
        let dominant = c.dominant_outcomes();
        let mut spread: kf_types::FxHashMap<Triple, (PageId, bool)> =
            kf_types::FxHashMap::default();
        for e in c.batch.iter() {
            if dominant.get(&e.triple) == Some(&ExtractionOutcome::SystematicError) {
                let slot = spread.entry(e.triple).or_insert((e.provenance.page, false));
                slot.1 |= slot.0 != e.provenance.page;
            }
        }
        dominant
            .into_iter()
            .map(|(t, o)| {
                let mut cat = o.taxonomy_category();
                if cat == ErrorCategory::SystematicExtraction
                    && !spread.get(&t).is_some_and(|&(_, multi)| multi)
                {
                    cat = ErrorCategory::LinkageError;
                }
                (t, cat)
            })
            .collect()
    }

    /// The join holds exactly the gold-false triples, each with the
    /// three-pass definition's category.
    #[test]
    fn one_pass_taxonomy_truth_matches_the_three_pass_definition() {
        for (name, cfg) in small_under_every_scenario() {
            let c = Corpus::generate(&cfg, 42);
            let truth = c.taxonomy_truth();
            let every_triple = taxonomy_truth_three_pass(&c);
            assert_eq!(every_triple.len(), c.batch.unique_triples(), "{name}");
            let gold_false: kf_types::FxHashMap<_, _> = every_triple
                .into_iter()
                .filter(|(t, _)| c.gold.label(t) == kf_types::Label::False)
                .collect();
            assert!(gold_false.len() < c.batch.unique_triples(), "{name}");
            assert_eq!(truth, gold_false, "{name}");
            // Every page-spread branch is exercised.
            let systematic = truth
                .values()
                .filter(|&&cat| cat == kf_types::ErrorCategory::SystematicExtraction)
                .count();
            assert!(systematic > 0, "{name}: no multi-page systematic triple");
        }
    }

    #[test]
    fn generated_claims_are_true_exactly_when_their_source_is_right() {
        // Corpus generation reads a claim's world truth off its
        // `source_error` flag instead of probing the world per record.
        for (name, cfg) in small_under_every_scenario() {
            let world = World::generate_with_confusable_ring(
                &cfg.world,
                cfg.scenarios.linkage.confusable_ring,
                42,
            );
            let (web, _) = Web::generate_with_scenarios(&world, &cfg.web, &cfg.scenarios, 42);
            for claim in web.pages.iter().flat_map(|p| &p.claims) {
                assert_eq!(
                    world.is_true(&claim.triple()),
                    !claim.source_error,
                    "{name}: {claim:?}"
                );
            }
        }
    }

    #[test]
    fn outcome_taxonomy_mapping_matches_fig17() {
        use kf_types::ErrorCategory;
        assert_eq!(
            ExtractionOutcome::Faithful.taxonomy_category(),
            ErrorCategory::LcwaArtifact
        );
        assert_eq!(
            ExtractionOutcome::Generalized.taxonomy_category(),
            ErrorCategory::WrongButGeneral
        );
        assert_eq!(
            ExtractionOutcome::SystematicError.taxonomy_category(),
            ErrorCategory::SystematicExtraction
        );
        for o in [
            ExtractionOutcome::TripleIdError,
            ExtractionOutcome::EntityLinkageError,
            ExtractionOutcome::PredicateLinkageError,
        ] {
            assert_eq!(o.taxonomy_category(), ErrorCategory::LinkageError);
        }
        // Index/ALL are consistent.
        for (i, o) in ExtractionOutcome::ALL.into_iter().enumerate() {
            assert_eq!(o.index(), i);
        }
    }

    #[test]
    fn generation_records_its_four_stages_in_order() {
        let trace = kf_telemetry::Trace::with_root("corpus");
        {
            let _installed = kf_telemetry::install(&trace);
            Corpus::generate(&SynthConfig::tiny(), 5);
        }
        let root = trace.snapshot().root;
        let stages: Vec<(&str, u64)> = root
            .children
            .iter()
            .map(|c| (c.name.as_str(), c.calls))
            .collect();
        assert_eq!(
            stages,
            [("world", 1), ("web", 1), ("gold", 1), ("extraction", 1)]
        );
    }

    #[test]
    fn single_extractor_corpus_works() {
        let specs = vec![default_extractors().remove(4)]; // DOM1
        let c = Corpus::generate_with_extractors(&SynthConfig::tiny(), specs, 3);
        assert!(!c.batch.is_empty());
        assert!(c
            .batch
            .iter()
            .all(|e| e.provenance.extractor == ExtractorId(0)));
    }
}
