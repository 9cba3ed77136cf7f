//! # kf-diagnose — the automated error taxonomy (Fig. 17)
//!
//! The paper's error analysis is what turns knowledge fusion from a
//! scorer into a *debugger*: instead of only reporting that x% of
//! high-confidence triples are labelled false, it classifies those false
//! positives into actionable buckets — values that are merely *too
//! general* (fix: hierarchy-aware matching), gold-list artifacts of the
//! local closed-world assumption (fix: nothing, the triple is fine),
//! systematic extraction breakages (fix: that extractor's pattern), and
//! entity/triple-linkage mistakes (fix: the linkage tools). This crate
//! reproduces that analysis automatically, with per-extractor
//! attribution:
//!
//! 1. A [`SupportIndex`] is a shared handle on the batch's grouped
//!    claims — [`SupportIndex::build`] runs the one grouping job
//!    (`Claims::build`, inheriting its chunked/spill residency envelope),
//!    [`SupportIndex::from_claims`] shares claims a run already grouped
//!    for fusion. It holds no per-triple table: a triple's support shape
//!    (distinct pages per extractor) is derived from its slot when the
//!    diagnoser asks, once per false positive it classifies.
//! 2. [`Diagnoser::run`] classifies every labelled false positive in the
//!    configured high-confidence bands with the heuristic rules of
//!    [`classify::classify`] — contiguous ranges of the scored triples
//!    side by side, no shuffle — and folds the rows in slot order into
//!    error mass per confidence band, per predicate, per extractor and
//!    per support spread: a [`TaxonomyReport`].
//! 3. Because the synthetic corpus tags each extraction with its
//!    generator-truth `ExtractionOutcome` (`kf-synth` exposes the join,
//!    over the gold-false triples a false positive can be, as
//!    `Corpus::taxonomy_truth`), the heuristic attribution is
//!    *measured*: the report carries the heuristic-vs-injected confusion
//!    matrix, and a CI gate keeps attribution accuracy on injected
//!    systematic/generalized errors at ≥ 90%.
//!
//! ```
//! use kf_core::{Fuser, FusionConfig};
//! use kf_diagnose::{Diagnoser, SupportIndex};
//! use kf_mapreduce::MrConfig;
//! use kf_synth::{Corpus, SynthConfig};
//!
//! let corpus = Corpus::generate(&SynthConfig::tiny(), 42);
//! let (output, attribution) =
//!     Fuser::new(FusionConfig::popaccu()).run_with_attribution(&corpus.batch, None);
//! let (support, _) = SupportIndex::build(&corpus.batch.records, &MrConfig::default());
//! let truth = corpus.taxonomy_truth();
//! let (report, _stats) = Diagnoser::new(&corpus.gold, &corpus.world, &support)
//!     .with_truth(&truth)
//!     .with_attribution(&attribution)
//!     .run(&output);
//! // The categories partition the high-band false positives exactly.
//! for band in &report.bands {
//!     assert_eq!(band.counts.total(), band.n_labelled - band.n_true);
//! }
//! ```

pub mod classify;
pub mod support;

pub use classify::{classify, ClassifierThresholds};
pub use support::{Profiles, SupportIndex, SupportProfile};

use std::collections::BTreeMap;
use std::ops::Range;

use kf_core::{FusionOutput, ProvenanceAttribution};
use kf_mapreduce::{run_tasks, JobStats, MrConfig};
use kf_types::{
    BandBreakdown, CategoryAccuracy, CategoryCounts, ConfusionCell, ErrorCategory, FxHashMap,
    GoldStandard, GroupBreakdown, ScenarioPhenomenon, Spread, TaxonomyReport, Triple,
    ValueHierarchy,
};

/// Configuration of the diagnosis pass.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnoseConfig {
    /// Ascending lower edges of the confidence bands to diagnose; band
    /// `i` covers `[edges[i], edges[i + 1])` and the last band is closed
    /// at 1.0. Triples below `edges[0]` are out of scope — the paper
    /// analyses false positives *above the acceptance threshold* (§3.2.2
    /// trusts triples with probability over 0.5 and Fig. 17 splits them
    /// into bands). Defaults to `[0.5, 0.8, 0.9]`.
    pub band_edges: Vec<f64>,
    /// Classifier thresholds (rules 2 and 3).
    pub thresholds: ClassifierThresholds,
    /// Only `mr.workers` is read: how many contiguous ranges of the
    /// scored triples are classified side by side.
    pub mr: MrConfig,
}

impl Default for DiagnoseConfig {
    fn default() -> Self {
        DiagnoseConfig {
            band_edges: vec![0.5, 0.8, 0.9],
            thresholds: ClassifierThresholds::default(),
            mr: MrConfig::default(),
        }
    }
}

/// Classifies a fusion output's high-confidence false positives into the
/// Fig. 17 taxonomy. Borrow-based builder: construct with the required
/// context, chain the optional joins, then [`Diagnoser::run`].
#[derive(Debug, Clone)]
pub struct Diagnoser<'a, H: ValueHierarchy + Sync> {
    gold: &'a GoldStandard,
    hierarchy: &'a H,
    support: &'a dyn Profiles,
    truth: Option<&'a FxHashMap<Triple, ErrorCategory>>,
    scenario: Option<&'a FxHashMap<Triple, ScenarioPhenomenon>>,
    attribution: Option<&'a ProvenanceAttribution>,
    extractor_labels: &'a [String],
    cfg: DiagnoseConfig,
}

impl<'a, H: ValueHierarchy + Sync> Diagnoser<'a, H> {
    /// A diagnoser over the required context: the gold standard the
    /// output was labelled against, the value-hierarchy ontology, and the
    /// batch's support profiles (its [`SupportIndex`]).
    pub fn new(gold: &'a GoldStandard, hierarchy: &'a H, support: &'a dyn Profiles) -> Self {
        Diagnoser {
            gold,
            hierarchy,
            support,
            truth: None,
            scenario: None,
            attribution: None,
            extractor_labels: &[],
            cfg: DiagnoseConfig::default(),
        }
    }

    /// Join against generator-truth categories (from
    /// `kf_synth::Corpus::taxonomy_truth`): fills the confusion matrix
    /// and the attribution-accuracy gates.
    pub fn with_truth(mut self, truth: &'a FxHashMap<Triple, ErrorCategory>) -> Self {
        self.truth = Some(truth);
        self
    }

    /// Join against hostile-scenario ground truth (from
    /// `kf_synth::Corpus::scenario_truth`): each false positive whose
    /// triple was injected by a scenario (copying, spam, drift, hard
    /// linkage) lands in the report's per-phenomenon breakdown, so the
    /// damage each hostile mechanism does is *measured* against the
    /// generator's own record of what it injected.
    pub fn with_scenario(mut self, scenario: &'a FxHashMap<Triple, ScenarioPhenomenon>) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Join against the fusion run's provenance attribution: adds the
    /// mean final learned accuracy of each category's supporting
    /// provenances (systematic errors ride on provenances the fusion
    /// *trusts* — that is why they calibrate badly).
    pub fn with_attribution(mut self, attribution: &'a ProvenanceAttribution) -> Self {
        self.attribution = Some(attribution);
        self
    }

    /// Human-readable extractor names (indexed by extractor id) for the
    /// per-extractor breakdown; unnamed ids render as `extractor_<id>`.
    pub fn with_extractor_labels(mut self, labels: &'a [String]) -> Self {
        self.extractor_labels = labels;
        self
    }

    /// Replace the configuration (bands, thresholds, engine knobs).
    pub fn with_config(mut self, cfg: DiagnoseConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Classify `output`'s high-band false positives and assemble the
    /// taxonomy. Contiguous ranges of `output.scored` are classified on
    /// [`run_tasks`]; their in-scope rows then fold in slot order into
    /// the report, so it does not depend on the worker count. The
    /// returned [`JobStats`] describe a map-only pass: `map_input` is the
    /// number of scored triples, `map_output` the number classified (the
    /// labelled false positives), and every shuffle field is 0. Each
    /// classified false positive derives its [`SupportProfile`] from the
    /// index, and that count is the one thing recorded into the installed
    /// trace: the `diagnose.profiles` counter.
    pub fn run(&self, output: &FusionOutput) -> (TaxonomyReport, JobStats) {
        // Sanitised ascending band edges (callers constructing configs by
        // hand may pass unsorted or empty edges).
        let mut edges: Vec<f64> = self
            .cfg
            .band_edges
            .iter()
            .copied()
            .filter(|e| e.is_finite())
            .collect();
        edges.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite edges"));
        edges.dedup();
        if edges.is_empty() {
            edges.push(0.0);
        }

        let n = output.scored.len();
        let workers = self.cfg.mr.workers.max(1);
        let per_range = n.div_ceil(workers).max(1);
        let edges_ref = &edges;
        let ranges: Vec<_> = (0..n)
            .step_by(per_range)
            .map(|lo| move || self.classify_range(output, edges_ref, lo..n.min(lo + per_range)))
            .collect();
        let rows = run_tasks(workers, ranges);
        let report = self.fold(output, &edges, rows.iter().flatten());
        kf_telemetry::add("diagnose.profiles", report.n_false_positives);
        let stats = JobStats {
            map_output: report.n_false_positives,
            ..JobStats::new(n as u64)
        };
        (report, stats)
    }

    /// The in-scope rows of `output.scored[range]`, in slot order: the
    /// labelled triples with a finite probability at or above the lowest
    /// band edge, each false positive classified.
    fn classify_range(
        &self,
        output: &FusionOutput,
        edges: &[f64],
        range: Range<usize>,
    ) -> Vec<Row> {
        let mut rows = Vec::new();
        for slot in range {
            let s = &output.scored[slot];
            let Some(p) = s.probability else { continue };
            // Non-finite probabilities (a hand-built FusionOutput; fusion
            // never produces them) cannot be banded — out of scope, like
            // sub-threshold triples.
            if !p.is_finite() || p < edges[0] {
                continue;
            }
            let Some(is_true) = self.gold.label(&s.triple).as_bool() else {
                continue;
            };
            let band = edges.iter().take_while(|&&e| p >= e).count() - 1;
            let profile = (!is_true)
                .then(|| self.support.profile(&s.triple))
                .flatten();
            let category = (!is_true).then(|| {
                let gold_values = self.gold.values(&s.triple.data_item()).unwrap_or(&[]);
                classify(
                    &s.triple,
                    gold_values,
                    profile.as_ref(),
                    self.hierarchy,
                    &self.cfg.thresholds,
                )
            });
            rows.push(Row {
                slot,
                band,
                category,
                profile,
            });
        }
        rows
    }

    /// Fold in-scope rows, in slot order, into a [`TaxonomyReport`]. The
    /// group maps yield key-sorted group lists, and each category's
    /// accuracy mass sums in slot order.
    fn fold<'r>(
        &self,
        output: &FusionOutput,
        edges: &[f64],
        rows: impl Iterator<Item = &'r Row>,
    ) -> TaxonomyReport {
        let mut bands: Vec<BandBreakdown> = edges
            .iter()
            .enumerate()
            .map(|(i, &lo)| BandBreakdown {
                lo,
                hi: edges.get(i + 1).copied().unwrap_or(1.0),
                n_labelled: 0,
                n_true: 0,
                counts: CategoryCounts::default(),
            })
            .collect();
        let mut predicates: BTreeMap<u32, CategoryCounts> = BTreeMap::new();
        let mut extractors: BTreeMap<u32, CategoryCounts> = BTreeMap::new();
        let mut spread: BTreeMap<Spread, CategoryCounts> = BTreeMap::new();
        let mut scenarios: BTreeMap<ScenarioPhenomenon, CategoryCounts> = BTreeMap::new();
        // Keyed (heuristic, injected): the confusion matrix's order.
        let mut confusion: BTreeMap<(ErrorCategory, ErrorCategory), u64> = BTreeMap::new();
        let mut accuracy_mass = [(0u64, 0.0f64); ErrorCategory::COUNT];

        for row in rows {
            let band = &mut bands[row.band];
            band.n_labelled += 1;
            let Some(cat) = row.category else {
                band.n_true += 1;
                continue;
            };
            band.counts.add(cat, 1);
            let s = &output.scored[row.slot];
            predicates
                .entry(s.triple.predicate.raw())
                .or_default()
                .add(cat, 1);
            spread
                .entry(Spread::of(s.n_extractors, s.n_pages))
                .or_default()
                .add(cat, 1);
            for &(ext, _) in row.profile.as_ref().map_or(&[][..], |p| &p.per_extractor) {
                extractors.entry(ext.raw() as u32).or_default().add(cat, 1);
            }
            if let Some(&injected) = self.truth.and_then(|t| t.get(&s.triple)) {
                *confusion.entry((cat, injected)).or_default() += 1;
            }
            if let Some(&phenomenon) = self.scenario.and_then(|t| t.get(&s.triple)) {
                scenarios.entry(phenomenon).or_default().add(cat, 1);
            }
            if let Some(mean) = self.attribution.and_then(|a| a.mean_accuracy(row.slot)) {
                let slot = &mut accuracy_mass[cat.index()];
                slot.0 += 1;
                slot.1 += mean;
            }
        }

        let confusion: Vec<ConfusionCell> = confusion
            .into_iter()
            .map(|((heuristic, injected), count)| ConfusionCell {
                heuristic,
                injected,
                count,
            })
            .collect();
        let gate = |injected: ErrorCategory| -> Option<CategoryAccuracy> {
            self.truth?;
            let mut acc = CategoryAccuracy::default();
            for cell in &confusion {
                if cell.injected == injected {
                    acc.total += cell.count;
                    if cell.heuristic == injected {
                        acc.correct += cell.count;
                    }
                }
            }
            Some(acc)
        };

        let mean_prov_accuracy: Vec<(ErrorCategory, f64)> = ErrorCategory::ALL
            .into_iter()
            .filter_map(|c| {
                let (n, mass) = accuracy_mass[c.index()];
                (n > 0).then(|| (c, mass / n as f64))
            })
            .collect();

        let n_false_positives = bands.iter().map(|b| b.counts.total()).sum();
        let n_labelled = bands.iter().map(|b| b.n_labelled).sum();
        TaxonomyReport {
            systematic_attribution: gate(ErrorCategory::SystematicExtraction),
            generalized_attribution: gate(ErrorCategory::WrongButGeneral),
            bands,
            predicates: groups(predicates, |key| (key, format!("predicate_{key}"))),
            extractors: groups(extractors, |key| {
                let label = self.extractor_labels.get(key as usize).cloned();
                (key, label.unwrap_or_else(|| format!("extractor_{key}")))
            }),
            spread: groups(spread, |class| (class as u32, class.name().to_string())),
            scenarios: groups(scenarios, |p| (p.index() as u32, p.name().to_string())),
            confusion,
            mean_prov_accuracy,
            n_false_positives,
            n_labelled,
        }
    }
}

/// An in-scope scored triple: labelled, with a finite probability at or
/// above the lowest band edge.
struct Row {
    /// Index into `FusionOutput::scored`.
    slot: usize,
    band: usize,
    /// The heuristic category of a false positive; `None` for a true one.
    category: Option<ErrorCategory>,
    /// A false positive's support profile, derived for it alone; `None`
    /// for a true one.
    profile: Option<SupportProfile>,
}

/// One secondary dimension's group rows, in key order; `name` gives each
/// key's raw dimension key and label.
fn groups<K>(
    map: BTreeMap<K, CategoryCounts>,
    name: impl Fn(K) -> (u32, String),
) -> Vec<GroupBreakdown> {
    map.into_iter()
        .map(|(k, counts)| {
            let (key, label) = name(k);
            GroupBreakdown { key, label, counts }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kf_core::{Fuser, FusionConfig};
    use kf_synth::{Corpus, SynthConfig};

    fn diagnose_tiny(seed: u64) -> (Corpus, TaxonomyReport) {
        let corpus = Corpus::generate(&SynthConfig::tiny(), seed);
        let (output, attribution) = Fuser::new(FusionConfig::popaccu().with_workers(2))
            .run_with_attribution(&corpus.batch, None);
        let (support, _) = SupportIndex::build(&corpus.batch.records, &MrConfig::with_workers(2));
        let truth = corpus.taxonomy_truth();
        let labels: Vec<String> = corpus.extractors.iter().map(|e| e.name.clone()).collect();
        let (report, _) = Diagnoser::new(&corpus.gold, &corpus.world, &support)
            .with_truth(&truth)
            .with_attribution(&attribution)
            .with_extractor_labels(&labels)
            .run(&output);
        (corpus, report)
    }

    #[test]
    fn bands_partition_false_positives_and_match_a_direct_count() {
        let corpus = Corpus::generate(&SynthConfig::tiny(), 3);
        let output = Fuser::new(FusionConfig::popaccu().with_workers(2)).run(&corpus.batch, None);
        let (support, _) = SupportIndex::build(&corpus.batch.records, &MrConfig::with_workers(2));
        let cfg = DiagnoseConfig {
            band_edges: vec![0.8, 0.9],
            ..Default::default()
        };
        let (report, _) = Diagnoser::new(&corpus.gold, &corpus.world, &support)
            .with_config(cfg)
            .run(&output);

        // Independent sequential count of labelled/true per band.
        let edges = [0.8, 0.9];
        let mut labelled = [0u64; 2];
        let mut true_count = [0u64; 2];
        for s in &output.scored {
            let Some(p) = s.probability else { continue };
            if p < edges[0] {
                continue;
            }
            let band = if p >= edges[1] { 1 } else { 0 };
            if let Some(t) = corpus.gold.label(&s.triple).as_bool() {
                labelled[band] += 1;
                true_count[band] += t as u64;
            }
        }
        assert_eq!(report.bands.len(), 2);
        for (i, band) in report.bands.iter().enumerate() {
            assert_eq!(band.n_labelled, labelled[i], "band {i} labelled");
            assert_eq!(band.n_true, true_count[i], "band {i} true");
            assert_eq!(
                band.counts.total(),
                band.n_labelled - band.n_true,
                "band {i} categories must partition its false positives"
            );
        }
        assert!(report.n_false_positives > 0, "no FPs diagnosed");
    }

    #[test]
    fn confusion_matrix_covers_every_false_positive() {
        let (_, report) = diagnose_tiny(7);
        let confusion_total: u64 = report.confusion.iter().map(|c| c.count).sum();
        assert_eq!(confusion_total, report.n_false_positives);
        // The gates exist when truth is provided.
        assert!(report.systematic_attribution.is_some());
        assert!(report.generalized_attribution.is_some());
        // Mean provenance accuracies are probabilities.
        for &(_, acc) in &report.mean_prov_accuracy {
            assert!((0.0..=1.0).contains(&acc), "accuracy {acc}");
        }
    }

    #[test]
    fn secondary_dimensions_conserve_mass() {
        let (_, report) = diagnose_tiny(11);
        let band_total = report.n_false_positives;
        let pred_total: u64 = report.predicates.iter().map(|g| g.counts.total()).sum();
        let spread_total: u64 = report.spread.iter().map(|g| g.counts.total()).sum();
        assert_eq!(pred_total, band_total, "predicate mass");
        assert_eq!(spread_total, band_total, "spread mass");
        // Extractor mass can exceed the FP count (a triple counts toward
        // every supporting extractor) but never undershoots it.
        let ext_total: u64 = report.extractors.iter().map(|g| g.counts.total()).sum();
        assert!(ext_total >= band_total, "extractor mass {ext_total}");
        // Extractor labels resolve through the provided names.
        assert!(report.extractors.iter().all(|g| !g.label.is_empty()));
    }

    #[test]
    fn report_is_independent_of_engine_configuration() {
        let corpus = Corpus::generate(&SynthConfig::tiny(), 5);
        let output = Fuser::new(FusionConfig::popaccu().with_workers(2)).run(&corpus.batch, None);
        let (support, _) = SupportIndex::build(&corpus.batch.records, &MrConfig::with_workers(2));
        let truth = corpus.taxonomy_truth();
        let run = |mr: MrConfig| {
            let cfg = DiagnoseConfig {
                mr,
                ..Default::default()
            };
            Diagnoser::new(&corpus.gold, &corpus.world, &support)
                .with_truth(&truth)
                .with_config(cfg)
                .run(&output)
                .0
        };
        let base = run(MrConfig::sequential());
        for mr in [
            MrConfig::with_workers(8),
            MrConfig::with_workers(3).with_chunk_records(64),
            MrConfig::with_workers(2)
                .with_chunk_records(32)
                .with_spill_threshold(64),
        ] {
            assert_eq!(base, run(mr));
        }
    }

    #[test]
    fn a_run_records_only_its_profile_count_into_the_installed_trace() {
        let corpus = Corpus::generate(&SynthConfig::tiny(), 6);
        let (output, attribution) = Fuser::new(FusionConfig::popaccu().with_workers(2))
            .run_with_attribution(&corpus.batch, None);
        let (support, _) = SupportIndex::build(&corpus.batch.records, &MrConfig::with_workers(2));
        let truth = corpus.taxonomy_truth();
        let trace = kf_telemetry::Trace::new();
        let (report, stats) = {
            let _installed = kf_telemetry::install(&trace);
            Diagnoser::new(&corpus.gold, &corpus.world, &support)
                .with_truth(&truth)
                .with_attribution(&attribution)
                .with_config(DiagnoseConfig {
                    mr: MrConfig::with_workers(2),
                    ..Default::default()
                })
                .run(&output)
        };
        assert!(report.n_false_positives > 0, "no FPs diagnosed");
        let recorded = trace.snapshot();
        assert!(recorded.root.children.is_empty(), "{:?}", recorded.root);
        // One profile per classified false positive, and no job counter.
        let counters: Vec<_> = recorded
            .counters
            .iter()
            .map(|c| (c.name.as_str(), c.value))
            .collect();
        assert_eq!(counters, [("diagnose.profiles", report.n_false_positives)]);
        assert!(recorded.series.is_empty() && recorded.histograms.is_empty());
        // A map-only pass: no shuffle.
        assert_eq!(stats.map_input, output.scored.len() as u64);
        assert_eq!(stats.map_output, report.n_false_positives);
        assert_eq!(
            stats,
            JobStats {
                map_input: stats.map_input,
                map_output: stats.map_output,
                ..JobStats::default()
            }
        );
    }

    #[test]
    fn empty_output_yields_empty_report() {
        let corpus = Corpus::generate(&SynthConfig::tiny(), 2);
        let (support, _) = SupportIndex::build(&[], &MrConfig::sequential());
        let output = Fuser::new(FusionConfig::vote()).run(&kf_types::ExtractionBatch::new(), None);
        let (report, _) = Diagnoser::new(&corpus.gold, &corpus.world, &support).run(&output);
        assert_eq!(report.n_false_positives, 0);
        assert_eq!(report.n_labelled, 0);
        assert!(report.predicates.is_empty());
        assert!(report.confusion.is_empty());
    }

    #[test]
    fn non_finite_probabilities_are_skipped_not_banded() {
        // All ScoredTriple fields are public, so a hand-built output can
        // carry a NaN probability; it must fall out of scope instead of
        // underflowing the band index.
        let corpus = Corpus::generate(&SynthConfig::tiny(), 4);
        let (support, _) = SupportIndex::build(&corpus.batch.records, &MrConfig::sequential());
        let mut output =
            Fuser::new(FusionConfig::popaccu().with_workers(2)).run(&corpus.batch, None);
        let (finite, _) = Diagnoser::new(&corpus.gold, &corpus.world, &support).run(&output);
        output.scored[0].probability = Some(f64::NAN);
        output.scored[1].probability = Some(f64::INFINITY);
        let (report, _) = Diagnoser::new(&corpus.gold, &corpus.world, &support).run(&output);
        // The two poisoned rows contribute nothing; everything else is
        // unchanged, so the labelled mass drops by at most 2.
        assert!(report.n_labelled + 2 >= finite.n_labelled);
        for band in &report.bands {
            assert_eq!(band.counts.total(), band.n_labelled - band.n_true);
        }
    }

    #[test]
    fn band_edges_are_sanitised() {
        let corpus = Corpus::generate(&SynthConfig::tiny(), 2);
        let output = Fuser::new(FusionConfig::popaccu().with_workers(2)).run(&corpus.batch, None);
        let (support, _) = SupportIndex::build(&corpus.batch.records, &MrConfig::with_workers(2));
        // Unsorted, duplicated, non-finite edges must not panic.
        let cfg = DiagnoseConfig {
            band_edges: vec![0.9, f64::NAN, 0.5, 0.9],
            ..Default::default()
        };
        let (report, _) = Diagnoser::new(&corpus.gold, &corpus.world, &support)
            .with_config(cfg)
            .run(&output);
        assert_eq!(report.bands.len(), 2);
        assert_eq!(report.bands[0].lo, 0.5);
        assert_eq!(report.bands[1].lo, 0.9);
        // Empty edges degrade to a single all-covering band.
        let cfg = DiagnoseConfig {
            band_edges: vec![],
            ..Default::default()
        };
        let (report, _) = Diagnoser::new(&corpus.gold, &corpus.world, &support)
            .with_config(cfg)
            .run(&output);
        assert_eq!(report.bands.len(), 1);
        assert_eq!(report.bands[0].lo, 0.0);
    }
}
