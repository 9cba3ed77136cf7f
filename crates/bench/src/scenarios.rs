//! The hostile-corpus scenario matrix: named adversarial generator
//! configurations (copying, spam, drift, hard linkage) × fusion presets,
//! with every degradation measured against the generator's injected
//! ground truth rather than assumed.
//!
//! Each scenario is a [`ScenarioConfig`] derived *proportionally* from
//! the base corpus shape (spam pages as a fraction of organic pages,
//! drift as a fraction of items), so `tiny` smoke runs and the
//! `paper`-scale CI gate exercise the same relative hostility. The
//! matrix runner fuses every requested preset on every scenario corpus,
//! evaluates calibration/ranking, and joins `kf-diagnose` against
//! [`Corpus::scenario_truth`] so each cell records how much injected
//! mass each method let through — the `scenarios.json` artifact CI
//! uploads on every push.

use crate::ReproOptions;
use kf_core::FusionOutput;
use kf_eval::{Json, MethodEval, Preset};
use kf_synth::{
    CopyingConfig, Corpus, DriftConfig, LinkageConfig, ScenarioConfig, SpamConfig, SynthConfig,
};
use kf_types::{GroupBreakdown, Label, ScenarioPhenomenon};

/// Every scenario the matrix runs, `honest` first as the baseline.
pub const SCENARIO_NAMES: [&str; 5] = ["honest", "copying", "spam", "drift", "linkage"];

/// The scenario knobs for `name`, proportioned to `base`'s corpus shape.
/// `None` for an unknown name.
pub fn scenario_config(name: &str, base: &SynthConfig) -> Option<ScenarioConfig> {
    let mut sc = ScenarioConfig::default();
    match name {
        "honest" => {}
        // Six copier pairs replicating 60% of their source's records —
        // strong violation of the independence assumption every method
        // shares, felt most by VOTE's raw provenance counting.
        "copying" => sc.copying = CopyingConfig { dependence: 0.6 },
        // One spam page per eight organic ones, concentrated on a few
        // fresh sites, each pushing the same wrong voice per target item.
        "spam" => {
            sc.spam = SpamConfig {
                n_pages: (base.web.n_pages / 8).max(8),
                n_items: 50,
                claims_per_page: 4,
                n_sites: 8,
            }
        }
        // A fifth of the items flipped truth halfway through the crawl;
        // every earlier page still claims the stale value.
        "drift" => {
            sc.drift = DriftConfig {
                fraction: 0.2,
                position: 0.5,
            }
        }
        // Confusable entities chained into rings of six and extractor
        // error budgets tilted 3× toward linkage mistakes.
        "linkage" => {
            sc.linkage = LinkageConfig {
                confusable_ring: 6,
                error_boost: 3.0,
            }
        }
        _ => return None,
    }
    Some(sc)
}

/// Build the corpus for a (scale, scenario, seed) cell.
pub fn scenario_corpus(scale: &str, scenario: &str, seed: u64) -> Result<Corpus, String> {
    let mut cfg = crate::scale_config(scale)
        .ok_or_else(|| format!("unknown scale {scale:?} (expected tiny|small|paper|large)"))?;
    cfg.scenarios = scenario_config(scenario, &cfg)
        .ok_or_else(|| format!("unknown scenario {scenario:?} (expected {SCENARIO_NAMES:?})"))?;
    Ok(Corpus::generate(&cfg, seed))
}

/// Mean probability assigned to gold-True triples minus mean probability
/// assigned to gold-False ones: a scale-free view of how well a method
/// separates truth from error (the quantity behind the paper's Fig. 9
/// ordering). Zero when a side is empty. `labels` and `probabilities`
/// are a run's label and probability columns, both indexed by slot.
pub fn separation(labels: &[Label], probabilities: &[Option<f64>]) -> f64 {
    let (mut st, mut nt, mut sf, mut nf) = (0.0, 0usize, 0.0, 0usize);
    for (&p, label) in probabilities.iter().zip(labels) {
        let Some(p) = p else { continue };
        match label {
            Label::True => {
                st += p;
                nt += 1;
            }
            Label::False => {
                sf += p;
                nf += 1;
            }
            Label::Unknown => {}
        }
    }
    st / nt.max(1) as f64 - sf / nf.max(1) as f64
}

/// Accuracy of the labelled triples scored into `[lo, hi)` and how many
/// there were. An empty band yields `(NaN, 0)` — callers must branch on
/// the count before trusting the ratio. The columns are read as in
/// [`separation`].
pub fn band_accuracy(
    labels: &[Label],
    probabilities: &[Option<f64>],
    lo: f64,
    hi: f64,
) -> (f64, usize) {
    let (mut t, mut n) = (0usize, 0usize);
    for (&p, label) in probabilities.iter().zip(labels) {
        let Some(p) = p else { continue };
        if p < lo || p >= hi {
            continue;
        }
        match label {
            Label::True => {
                t += 1;
                n += 1;
            }
            Label::False => n += 1,
            Label::Unknown => {}
        }
    }
    (if n > 0 { t as f64 / n as f64 } else { f64::NAN }, n)
}

/// One (scenario, preset) cell of the matrix.
#[derive(Debug, Clone)]
pub struct ScenarioCell {
    /// Preset name (`vote`, `popaccu`, …).
    pub method: String,
    /// Weighted calibration deviation (lower = better calibrated).
    pub wdev: f64,
    /// Area under the precision–recall curve.
    pub auc_pr: f64,
    /// Mean-P(true) − mean-P(false) separation.
    pub separation: f64,
    /// Accuracy of the labelled triples scored ≥ 0.9 (NaN when none).
    pub high_band_accuracy: f64,
    /// Number of labelled triples in that band.
    pub high_band_n: usize,
    /// False-positive mass per injected phenomenon (the diagnoser's
    /// scenario breakdown): what this method let through, by mechanism.
    pub phenomenon_mass: Vec<GroupBreakdown>,
}

impl ScenarioCell {
    /// Total false positives attributed to `phenomenon` for this method.
    pub fn phenomenon_fp(&self, phenomenon: ScenarioPhenomenon) -> u64 {
        self.phenomenon_mass
            .iter()
            .filter(|g| g.key == phenomenon.index() as u32)
            .map(|g| g.counts.total())
            .sum()
    }
}

/// One scenario row: the injected ground truth plus a cell per preset.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// Scenario name from [`SCENARIO_NAMES`].
    pub scenario: String,
    /// Number of unique triples the generator injected for this
    /// scenario (0 for `honest`).
    pub n_injected: usize,
    /// One cell per requested preset, in preset order.
    pub cells: Vec<ScenarioCell>,
}

impl ScenarioRow {
    /// The cell for a preset name.
    pub fn cell(&self, method: &str) -> Option<&ScenarioCell> {
        self.cells.iter().find(|c| c.method == method)
    }
}

/// The full scenario × preset matrix for one (scale, seed).
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    /// Corpus scale the matrix ran at.
    pub scale: String,
    /// Corpus seed.
    pub seed: u64,
    /// One row per scenario, in [`SCENARIO_NAMES`] order.
    pub rows: Vec<ScenarioRow>,
}

impl ScenarioMatrix {
    /// Run the matrix: every scenario in [`SCENARIO_NAMES`] × every
    /// requested preset at the given scale and seed.
    pub fn run(
        scale: &str,
        seed: u64,
        presets: &[Preset],
        workers: Option<usize>,
    ) -> Result<ScenarioMatrix, String> {
        let mut rows = Vec::with_capacity(SCENARIO_NAMES.len());
        for name in SCENARIO_NAMES {
            rows.push(run_scenario_row(scale, name, seed, presets, workers)?);
        }
        Ok(ScenarioMatrix {
            scale: scale.to_string(),
            seed,
            rows,
        })
    }

    /// The row for a scenario name.
    pub fn row(&self, scenario: &str) -> Option<&ScenarioRow> {
        self.rows.iter().find(|r| r.scenario == scenario)
    }

    /// Serialize as the machine-readable `scenarios.json` artifact.
    pub fn to_json_string(&self) -> String {
        let finite = |x: f64| {
            if x.is_finite() {
                Json::from(x)
            } else {
                Json::Null
            }
        };
        let cell = |c: &ScenarioCell| {
            Json::obj([
                ("method", Json::from(c.method.clone())),
                ("wdev", finite(c.wdev)),
                ("auc_pr", finite(c.auc_pr)),
                ("separation", finite(c.separation)),
                ("high_band_accuracy", finite(c.high_band_accuracy)),
                ("high_band_n", Json::from(c.high_band_n)),
                (
                    "phenomena",
                    Json::arr(c.phenomenon_mass.iter().map(|g| {
                        Json::obj([
                            ("phenomenon", Json::from(g.label.clone())),
                            ("false_positives", Json::from(g.counts.total())),
                        ])
                    })),
                ),
            ])
        };
        Json::obj([
            ("schema_version", Json::from(1usize)),
            ("scale", Json::from(self.scale.clone())),
            ("seed", Json::from(self.seed)),
            (
                "scenarios",
                Json::arr(self.rows.iter().map(|r| {
                    Json::obj([
                        ("scenario", Json::from(r.scenario.clone())),
                        ("n_injected", Json::from(r.n_injected)),
                        ("methods", Json::arr(r.cells.iter().map(cell))),
                    ])
                })),
            ),
        ])
        .to_string_pretty()
    }
}

/// Fuse, evaluate and diagnose one scenario under every preset — the
/// schedule of [`crate::run_on_corpus`] over the scenario corpus, each
/// preset finished as a matrix cell.
fn run_scenario_row(
    scale: &str,
    scenario: &str,
    seed: u64,
    presets: &[Preset],
    workers: Option<usize>,
) -> Result<ScenarioRow, String> {
    let corpus = scenario_corpus(scale, scenario, seed)?;
    let opts = ReproOptions {
        scale: scale.to_string(),
        workers,
        presets: presets.to_vec(),
        ..Default::default()
    };
    let diagnosis = crate::build_diagnosis_context(&opts, &corpus).expect("rows diagnose");
    let labels = &diagnosis.gold_labels;
    let cell = |preset: Preset, output: &FusionOutput, eval: MethodEval| {
        let probabilities = output.scored.probabilities();
        let (hb, hn) = band_accuracy(labels, probabilities, 0.9, 1.01);
        ScenarioCell {
            method: preset.name().to_string(),
            wdev: eval.wdev(),
            auc_pr: eval.auc_pr(),
            separation: separation(labels, probabilities),
            high_band_accuracy: hb,
            high_band_n: hn,
            phenomenon_mass: eval.taxonomy.expect("rows diagnose").scenarios,
        }
    };
    let (cells, _) = crate::fuse_presets(&opts, &corpus, Some(&diagnosis), cell);
    Ok(ScenarioRow {
        scenario: scenario.to_string(),
        n_injected: diagnosis.taxonomy.as_ref().map_or(0, |t| t.scenario.len()),
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kf_types::Triple;

    /// Every gold triple's label (LCWA labels every value of a known
    /// item, so none is unknown), in triple order.
    fn gold_labels(corpus: &Corpus) -> Vec<Label> {
        let mut ts: Vec<Triple> = corpus
            .gold
            .iter()
            .flat_map(|(item, values)| {
                values
                    .iter()
                    .map(|&v| Triple::new(item.subject, item.predicate, v))
            })
            .collect();
        ts.sort_unstable();
        ts.iter().map(|t| corpus.gold.label(t)).collect()
    }

    #[test]
    fn band_accuracy_is_nan_on_an_empty_band() {
        let labels = gold_labels(&Corpus::generate(&SynthConfig::tiny(), 3));
        // Every probability sits below the band.
        let (acc, n) = band_accuracy(&labels, &vec![Some(0.1); labels.len()], 0.9, 1.01);
        assert_eq!(n, 0, "no triple scores into [0.9, 1.01)");
        assert!(acc.is_nan(), "empty band must yield NaN, not a fake 0 or 1");
        // Unscored triples contribute to no band either.
        let (acc, n) = band_accuracy(&labels, &vec![None; labels.len()], 0.0, 1.01);
        assert_eq!((n, acc.is_nan()), (0, true));
    }

    #[test]
    fn band_accuracy_counts_only_labelled_triples_in_range() {
        let labels = gold_labels(&Corpus::generate(&SynthConfig::tiny(), 3));
        let (acc, n) = band_accuracy(&labels, &vec![Some(0.95); labels.len()], 0.9, 1.01);
        assert!(n > 0);
        // Every scored triple is gold-labelled, so the band accuracy is
        // the gold-True share of the labelled set.
        let truth: Vec<bool> = labels.iter().filter_map(|l| l.as_bool()).collect();
        assert_eq!(n, truth.len());
        let expect = truth.iter().filter(|&&b| b).count() as f64 / truth.len() as f64;
        assert!((acc - expect).abs() < 1e-12);
    }

    #[test]
    fn separation_is_positive_for_an_oracle_and_zero_for_empty_output() {
        let labels = gold_labels(&Corpus::generate(&SynthConfig::tiny(), 3));
        // An oracle scoring gold-True at 1 and gold-False at 0 separates
        // perfectly.
        let oracle: Vec<Option<f64>> = labels.iter().map(|l| l.as_bool().map(f64::from)).collect();
        assert!((separation(&labels, &oracle) - 1.0).abs() < 1e-12);
        // No scored triples: both sides empty, separation collapses to 0
        // instead of dividing by zero.
        assert_eq!(separation(&[], &[]), 0.0);
    }

    #[test]
    fn scenario_configs_resolve_and_unknown_names_do_not() {
        let base = SynthConfig::tiny();
        for name in SCENARIO_NAMES {
            let sc = scenario_config(name, &base).expect(name);
            assert_eq!(sc.any_active(), name != "honest", "{name}");
        }
        assert!(scenario_config("zombie", &base).is_none());
        assert!(scenario_corpus("tiny", "zombie", 1).is_err());
        assert!(scenario_corpus("galactic", "honest", 1).is_err());
    }
}
