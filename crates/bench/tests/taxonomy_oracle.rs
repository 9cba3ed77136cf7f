//! The diagnosis against per-triple side tables. A run derives a support
//! profile from the shared claims for each false positive it classifies,
//! and joins generator truth over the gold-false triples only; the
//! oracle precomputes a profile for every unique triple into a map and
//! joins truth over every unique triple. Every preset's taxonomy section
//! must be the report the oracle tables give — at `small`, under every
//! hostile scenario.

use kf_bench::scenarios::{scenario_corpus, SCENARIO_NAMES};
use kf_bench::{run_on_corpus, ReproOptions};
use kf_core::{Claims, Fuser};
use kf_diagnose::{DiagnoseConfig, Diagnoser, Profiles, SupportProfile};
use kf_eval::Preset;
use kf_mapreduce::MrConfig;
use kf_synth::Corpus;
use kf_types::{ErrorCategory, ExtractorId, FxHashMap, PageId, Triple};

/// A support index as a table: every unique triple's profile, counted up
/// front from the claims.
#[derive(Debug)]
struct MapIndex(FxHashMap<Triple, SupportProfile>);

impl MapIndex {
    fn from_claims(claims: &Claims) -> MapIndex {
        let mut map = FxHashMap::default();
        let table = claims.table();
        for i in 0..table.n_items() {
            for slot in table.item_slots(i) {
                let mut per_extractor: Vec<(ExtractorId, u32)> = Vec::new();
                let mut last_page = None;
                for p in claims.slot_provenances(slot) {
                    match per_extractor.last_mut() {
                        Some((extractor, n)) if *extractor == p.extractor => {
                            *n += u32::from(last_page != Some(p.page));
                        }
                        _ => per_extractor.push((p.extractor, 1)),
                    }
                    last_page = Some(p.page);
                }
                let profile = SupportProfile {
                    n_pages: table.n_pages(slot),
                    per_extractor,
                };
                map.insert(table.triple(i, slot), profile);
            }
        }
        MapIndex(map)
    }
}

impl Profiles for MapIndex {
    fn profile(&self, triple: &Triple) -> Option<SupportProfile> {
        self.0.get(triple).cloned()
    }
}

/// The truth join over every unique triple: its dominant outcome's
/// category, a single-page systematic triple counted as linkage.
fn full_taxonomy_truth(corpus: &Corpus) -> FxHashMap<Triple, ErrorCategory> {
    let mut spread: FxHashMap<Triple, (PageId, bool)> = FxHashMap::default();
    for e in corpus.batch.iter() {
        let page = e.provenance.page;
        let slot = spread.entry(e.triple).or_insert((page, false));
        slot.1 |= slot.0 != page;
    }
    let dominant = corpus.dominant_outcomes().into_iter();
    dominant
        .map(|(triple, outcome)| match outcome.taxonomy_category() {
            ErrorCategory::SystematicExtraction if !spread[&triple].1 => {
                (triple, ErrorCategory::LinkageError)
            }
            cat => (triple, cat),
        })
        .collect()
}

#[test]
fn every_preset_taxonomy_equals_the_per_triple_table_oracle() {
    let mr = MrConfig::with_workers(2);
    for scenario in SCENARIO_NAMES {
        let corpus = scenario_corpus("small", scenario, 42).unwrap();
        let opts = ReproOptions {
            scale: "small".into(),
            out: None,
            workers: Some(mr.workers),
            deterministic: true,
            ..Default::default()
        };
        let report = run_on_corpus(&opts, &corpus);

        let index = MapIndex::from_claims(&Claims::build(&corpus.batch.records, &mr));
        assert_eq!(index.0.len(), corpus.batch.unique_triples());
        let truth = full_taxonomy_truth(&corpus);
        assert!(truth.len() > corpus.taxonomy_truth().len(), "{scenario}");
        let scenario_truth = corpus.scenario_truth();
        let labels: Vec<String> = corpus.extractors.iter().map(|e| e.name.clone()).collect();
        assert_eq!(report.methods.len(), Preset::ALL.len());
        for preset in Preset::ALL {
            let gold = preset.needs_gold().then_some(&corpus.gold);
            let fuser = Fuser::new(preset.config().with_workers(mr.workers));
            let (output, attribution) = fuser.run_with_attribution(&corpus.batch, gold);
            let (oracle, _) = Diagnoser::new(&corpus.gold, &corpus.world, &index)
                .with_truth(&truth)
                .with_scenario(&scenario_truth)
                .with_attribution(&attribution)
                .with_extractor_labels(&labels)
                .with_config(DiagnoseConfig {
                    mr,
                    ..Default::default()
                })
                .run(&output);
            assert!(oracle.n_false_positives > 0, "{scenario}/{preset:?}");
            let method = report.methods.iter().find(|m| m.name == preset.name());
            let taxonomy = method.and_then(|m| m.taxonomy.as_ref());
            assert_eq!(taxonomy, Some(&oracle), "{scenario}/{preset:?}");
        }
    }
}
