//! The ablation runner: the paper's five named systems over one corpus.
//!
//! §4.3.4 / Figs. 9–15 compare VOTE, ACCU, POPACCU, POPACCU+unsup and
//! POPACCU+ (semi-supervised). [`Preset`] names those five configurations;
//! [`AblationRunner`] fuses one of them over a corpus's grouped
//! [`Claims`] and evaluates the result against the claims' gold label
//! column ([`AblationRunner::fuse_preset`]), and summarises the corpus
//! off the same claims and labels ([`AblationRunner::claims_summary`]):
//! the sections and the header of a diffable
//! [`EvalReport`](crate::EvalReport). The column
//! ([`SlotTable::labels`](kf_core::SlotTable::labels)) is built once per
//! run, by whoever built the claims: a label belongs to a triple,
//! whichever preset scored it.

use crate::labels::LabeledOutput;
use crate::report::{evaluate_labeled, CorpusSummary, MethodEval};
use kf_core::{Claims, Fuser, FusionConfig, FusionOutput, ProvenanceAttribution};
use kf_synth::Corpus;
use kf_types::{GoldStandard, Label};
use std::time::Instant;

/// The five named systems of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Baseline VOTE.
    Vote,
    /// Basic ACCU.
    Accu,
    /// Basic POPACCU.
    PopAccu,
    /// POPACCU + granularity/coverage/threshold refinements, unsupervised.
    PopAccuPlusUnsup,
    /// POPACCU+ with gold-seeded accuracies (semi-supervised).
    PopAccuPlus,
}

impl Preset {
    /// All presets, in the paper's ablation order.
    pub const ALL: [Preset; 5] = [
        Preset::Vote,
        Preset::Accu,
        Preset::PopAccu,
        Preset::PopAccuPlusUnsup,
        Preset::PopAccuPlus,
    ];

    /// Machine-readable name (stable; used as the report key).
    pub fn name(self) -> &'static str {
        match self {
            Preset::Vote => "vote",
            Preset::Accu => "accu",
            Preset::PopAccu => "popaccu",
            Preset::PopAccuPlusUnsup => "popaccu_plus_unsup",
            Preset::PopAccuPlus => "popaccu_plus",
        }
    }

    /// Display label as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Preset::Vote => "VOTE",
            Preset::Accu => "ACCU",
            Preset::PopAccu => "POPACCU",
            Preset::PopAccuPlusUnsup => "POPACCU+unsup",
            Preset::PopAccuPlus => "POPACCU+",
        }
    }

    /// The preset's fusion configuration.
    pub fn config(self) -> FusionConfig {
        match self {
            Preset::Vote => FusionConfig::vote(),
            Preset::Accu => FusionConfig::accu(),
            Preset::PopAccu => FusionConfig::popaccu(),
            Preset::PopAccuPlusUnsup => FusionConfig::popaccu_plus_unsup(),
            Preset::PopAccuPlus => FusionConfig::popaccu_plus(),
        }
    }

    /// Whether the preset consumes the gold standard during fusion.
    pub fn needs_gold(self) -> bool {
        matches!(self, Preset::PopAccuPlus)
    }

    /// Look a preset up by its machine name.
    pub fn by_name(name: &str) -> Option<Preset> {
        Preset::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Runs presets over a corpus and assembles the report.
#[derive(Debug, Clone)]
pub struct AblationRunner {
    /// Calibration bins per curve (the paper uses coarse buckets; 10 is the
    /// Fig. 9 granularity).
    pub n_bins: usize,
    /// Precision@k cut-offs to report.
    pub ks: Vec<usize>,
    /// Worker threads for fusion (`None` = library default).
    pub workers: Option<usize>,
    /// Scale label recorded in the report (informational).
    pub scale: String,
}

impl Default for AblationRunner {
    fn default() -> Self {
        AblationRunner {
            n_bins: 10,
            ks: vec![10, 100, 1_000, 10_000],
            workers: None,
            scale: String::new(),
        }
    }
}

impl AblationRunner {
    /// The one per-preset step of every fused run (`repro`, `kf-dist`
    /// workers, `kf-serve build`): fuse `preset` over the claims' graph
    /// ([`Claims::graph`]), seeded with the claims' gold `labels` only if
    /// it consumes gold, timed as `fuse_ms`, then evaluate the output
    /// against the same labels. `labels` is the claims' label column
    /// ([`SlotTable::labels`](kf_core::SlotTable::labels)), built once per
    /// run and shared by every preset.
    pub fn fuse_preset(
        &self,
        preset: Preset,
        claims: &Claims,
        labels: &[Label],
    ) -> (FusionOutput, ProvenanceAttribution, MethodEval) {
        let config = self.config(preset);
        let graph = claims.graph(config.granularity);
        let seed = preset.needs_gold().then_some(labels);
        let start = Instant::now();
        let (output, attribution) = Fuser::new(config).run_prebuilt(graph, claims.stats(), seed);
        let fuse_ms = start.elapsed().as_secs_f64() * 1e3;
        let method = {
            let _eval = kf_telemetry::span("eval");
            self.evaluate_against(preset, &output, labels, fuse_ms)
        };
        (output, attribution, method)
    }

    /// `preset`'s fusion configuration with the runner's worker override.
    pub fn config(&self, preset: Preset) -> FusionConfig {
        let config = preset.config();
        match self.workers {
            Some(w) => config.with_workers(w),
            None => config,
        }
    }

    /// Evaluate an output fused without shared claims as `preset`: label
    /// its triples against `gold` (one probe each; the output is in slot
    /// order, so this is the label column of its claims) and evaluate as
    /// [`fuse_preset`](Self::fuse_preset) does. The `eval` span covers the
    /// labelling too.
    pub fn evaluate(
        &self,
        preset: Preset,
        output: &FusionOutput,
        gold: &GoldStandard,
        fuse_ms: f64,
    ) -> MethodEval {
        let _eval = kf_telemetry::span("eval");
        let labels: Vec<Label> = output
            .scored
            .iter()
            .map(|s| gold.label(&s.triple))
            .collect();
        self.evaluate_against(preset, output, &labels, fuse_ms)
    }

    /// `output` evaluated as `preset` against its gold `labels`, in the
    /// caller's `eval` span.
    fn evaluate_against(
        &self,
        preset: Preset,
        output: &FusionOutput,
        labels: &[Label],
        fuse_ms: f64,
    ) -> MethodEval {
        evaluate_labeled(
            preset.name(),
            preset.label(),
            &LabeledOutput::new(output, labels),
            output.predicted_fraction(),
            self.n_bins,
            &self.ks,
            fuse_ms,
        )
    }

    /// [`corpus_summary`](Self::corpus_summary) read off the corpus's
    /// grouped `claims` and their gold `labels`, not its records: slots
    /// are the unique triples, and a triple's LCWA label counts once per
    /// record.
    pub fn claims_summary(
        &self,
        corpus: &Corpus,
        claims: &Claims,
        labels: &[Label],
    ) -> CorpusSummary {
        let (mut labelled, mut correct) = (0usize, 0usize);
        let table = claims.table();
        for (slot, label) in labels.iter().enumerate() {
            if let Some(ok) = label.as_bool() {
                labelled += table.n_records(slot) as usize;
                correct += table.n_records(slot) as usize * ok as usize;
            }
        }
        let lcwa = match labelled {
            0 => 0.0,
            _ => correct as f64 / labelled as f64,
        };
        self.summary(corpus, table.n_triples(), table.n_items(), lcwa)
    }

    /// Corpus context for the report header, counted off the corpus's
    /// records: the reference for [`claims_summary`](Self::claims_summary).
    pub fn corpus_summary(&self, corpus: &Corpus) -> CorpusSummary {
        let (triples, items) = (
            corpus.batch.unique_triples(),
            corpus.batch.unique_data_items(),
        );
        self.summary(corpus, triples, items, corpus.lcwa_accuracy())
    }

    fn summary(&self, corpus: &Corpus, triples: usize, items: usize, lcwa: f64) -> CorpusSummary {
        CorpusSummary {
            scale: self.scale.clone(),
            seed: corpus.seed,
            n_records: corpus.batch.len(),
            n_unique_triples: triples,
            n_data_items: items,
            n_gold_items: corpus.gold.n_items(),
            lcwa_accuracy: lcwa,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::EvalReport;
    use kf_mapreduce::MrConfig;
    use kf_synth::SynthConfig;

    #[test]
    fn preset_names_roundtrip() {
        for p in Preset::ALL {
            assert_eq!(Preset::by_name(p.name()), Some(p));
        }
        assert_eq!(Preset::by_name("bogus"), None);
    }

    #[test]
    fn preset_configs_match_kf_core_presets() {
        assert_eq!(Preset::Vote.config().method, FusionConfig::vote().method);
        assert!(Preset::PopAccuPlusUnsup.config().filter_by_coverage);
        assert!(Preset::PopAccuPlus.needs_gold());
        assert!(!Preset::PopAccuPlusUnsup.needs_gold());
    }

    /// Every preset through the shared step, as a report.
    pub(crate) fn report(runner: &AblationRunner, corpus: &Corpus) -> EvalReport {
        let claims = Claims::build(&corpus.batch.records, &MrConfig::with_workers(2));
        let labels = claims.table().labels(&corpus.gold);
        let methods = Preset::ALL
            .into_iter()
            .map(|p| runner.fuse_preset(p, &claims, &labels).2)
            .collect();
        EvalReport {
            corpus: runner.claims_summary(corpus, &claims, &labels),
            methods,
        }
    }

    #[test]
    fn ablation_over_tiny_corpus_produces_finite_metrics() {
        let corpus = Corpus::generate(&SynthConfig::tiny(), 7);
        let runner = AblationRunner {
            scale: "tiny".into(),
            workers: Some(2),
            ..Default::default()
        };
        let report = report(&runner, &corpus);
        assert_eq!(report.methods.len(), 5);
        assert_eq!(report.corpus, runner.corpus_summary(&corpus));
        for m in &report.methods {
            assert!(m.n_labelled > 0, "{}: no labelled triples", m.name);
            assert!(m.wdev().is_finite() && m.wdev() >= 0.0);
            assert!(m.ece().is_finite() && (0.0..=1.0).contains(&m.ece()));
            assert!((0.0..=1.0 + 1e-9).contains(&m.auc_pr()), "{}", m.name);
            assert!((0.0..=1.0).contains(&m.coverage));
            assert_eq!(m.calibration_width.bins.len(), 10);
        }
        // The report serializes and names every preset.
        let json = report.to_json_string();
        for p in Preset::ALL {
            assert!(json.contains(&format!("\"{}\"", p.name())));
        }
    }

    #[test]
    fn runner_is_deterministic() {
        let corpus = Corpus::generate(&SynthConfig::tiny(), 3);
        let runner = AblationRunner {
            workers: Some(2),
            ..Default::default()
        };
        let claims = Claims::build(&corpus.batch.records, &MrConfig::with_workers(2));
        let labels = claims.table().labels(&corpus.gold);
        let a = runner.fuse_preset(Preset::PopAccu, &claims, &labels).2;
        let b = runner.fuse_preset(Preset::PopAccu, &claims, &labels).2;
        assert_eq!(a.wdev(), b.wdev());
        assert_eq!(a.auc_pr(), b.auc_pr());
        assert_eq!(a.coverage, b.coverage);
    }
}
