//! Fusion configuration: method, granularity, refinements (§4.1, §4.3).

use kf_mapreduce::MrConfig;
use kf_types::Granularity;

/// The fusion method (§4.1 selects these three from the DF literature).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Baseline: probability = provenance-count fraction `m/n`.
    Vote,
    /// Bayesian analysis of Dong et al. 2009 \[11\]: single truth, `N`
    /// uniformly-distributed false values, independent sources.
    Accu,
    /// POPACCU of Dong, Saha, Srivastava 2013 \[14\]: false-value
    /// distribution estimated from the data (robust to copied false
    /// values).
    PopAccu,
}

impl Method {
    /// Display name as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Method::Vote => "VOTE",
            Method::Accu => "ACCU",
            Method::PopAccu => "POPACCU",
        }
    }

    /// Whether the method iterates accuracy evaluation (VOTE does not,
    /// §4.1: "VOTE does not need the iterations and has only Stage I and
    /// Stage III").
    pub fn iterative(self) -> bool {
        !matches!(self, Method::Vote)
    }
}

/// How provenance accuracies are initialised (§4.3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitAccuracy {
    /// Flat default accuracy (the basic models; default 0.8).
    Default,
    /// Semi-supervised: initialise from the LCWA gold standard, using a
    /// `sample_rate` fraction of its items (Fig. 12 sweeps 10%–100%).
    /// Provenances with no labelled triples fall back to the default.
    FromGold {
        /// Fraction of gold items used.
        sample_rate: f64,
    },
}

/// Full fusion configuration.
#[derive(Debug, Clone, Copy)]
pub struct FusionConfig {
    /// Fusion method.
    pub method: Method,
    /// Provenance granularity (§4.3.1).
    pub granularity: Granularity,
    /// Default provenance accuracy `A` (paper default 0.8).
    pub default_accuracy: f64,
    /// ACCU's number of uniformly-distributed false values `N` (default
    /// 100).
    pub n_false_values: f64,
    /// Forced-termination round budget `R` (default 5, Fig. 14).
    pub rounds: usize,
    /// Reducer-side sample cap `L` (default 1M, Fig. 14 shows 1K is fine).
    pub sample_limit: usize,
    /// Convergence tolerance on the mean absolute accuracy delta.
    pub tolerance: f64,
    /// Refinement I (§4.3.2): filter provenances that cannot be evaluated
    /// beyond the default accuracy.
    pub filter_by_coverage: bool,
    /// Refinement III (§4.3.2): ignore provenances with accuracy below θ;
    /// items losing all provenances fall back to mean provenance accuracy.
    pub accuracy_threshold: Option<f64>,
    /// Refinement IV (§4.3.3): gold-standard accuracy initialisation.
    pub init: InitAccuracy,
    /// POPACCU's inner fixpoint iterations for the false-value popularity
    /// distribution.
    pub popaccu_inner_iters: usize,
    /// Execution parallelism.
    pub mr: MrConfig,
    /// Seed for the deterministic reducer-side sampling.
    pub seed: u64,
}

impl Default for FusionConfig {
    fn default() -> Self {
        FusionConfig {
            method: Method::PopAccu,
            granularity: Granularity::ExtractorPage,
            default_accuracy: 0.8,
            n_false_values: 100.0,
            rounds: 5,
            sample_limit: 1_000_000,
            tolerance: 1e-4,
            filter_by_coverage: false,
            accuracy_threshold: None,
            init: InitAccuracy::Default,
            popaccu_inner_iters: 8,
            mr: MrConfig::default(),
            seed: 0,
        }
    }
}

impl FusionConfig {
    /// Basic VOTE (Fig. 9 baseline).
    pub fn vote() -> Self {
        FusionConfig {
            method: Method::Vote,
            rounds: 1,
            ..Default::default()
        }
    }

    /// Basic ACCU (§4.1 defaults: N = 100, A = 0.8).
    pub fn accu() -> Self {
        FusionConfig {
            method: Method::Accu,
            ..Default::default()
        }
    }

    /// Basic POPACCU.
    pub fn popaccu() -> Self {
        FusionConfig {
            method: Method::PopAccu,
            ..Default::default()
        }
    }

    /// POPACCU+unsup (§4.3.4): coverage filter + fine granularity +
    /// accuracy filter (θ = 0.5), still unsupervised.
    pub fn popaccu_plus_unsup() -> Self {
        FusionConfig {
            method: Method::PopAccu,
            granularity: Granularity::ExtractorSitePredicatePattern,
            filter_by_coverage: true,
            accuracy_threshold: Some(0.5),
            ..Default::default()
        }
    }

    /// POPACCU+ (§4.3.4): all refinements, semi-supervised via the gold
    /// standard.
    pub fn popaccu_plus() -> Self {
        FusionConfig {
            init: InitAccuracy::FromGold { sample_rate: 1.0 },
            ..Self::popaccu_plus_unsup()
        }
    }

    /// Builder-style: set the method.
    pub fn with_method(mut self, method: Method) -> Self {
        self.method = method;
        if method == Method::Vote {
            self.rounds = 1;
        }
        self
    }

    /// Builder-style: set the granularity.
    pub fn with_granularity(mut self, g: Granularity) -> Self {
        self.granularity = g;
        self
    }

    /// Builder-style: set the round budget.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds.max(1);
        self
    }

    /// Builder-style: set the sample cap.
    pub fn with_sample_limit(mut self, limit: usize) -> Self {
        self.sample_limit = limit.max(1);
        self
    }

    /// Builder-style: set worker parallelism — of the grouping job and of
    /// the round kernels. Adjusts workers in place, preserving the other
    /// engine knobs (`chunk_records`, `spill_threshold_records`,
    /// `spill_dir`).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.mr.workers = workers.max(1);
        self
    }

    /// Builder-style: bound the grouping job's grouped shuffle residency
    /// to roughly `records`, spilling its pending buffer to sorted run
    /// files beyond it (`0` disables spilling). The grouping job
    /// ([`Claims::build`](crate::Claims::build)) is the only shuffle a
    /// fusion run performs — the claim graph is a projection of the
    /// grouped claims, and Stages I/II are kernels over that graph and
    /// hold only it (4 bytes per claim plus its 4-byte-per-claim
    /// transpose). Output is byte-identical with spilling on or off;
    /// `FusionOutput::stats` reports the job's `peak_grouped_records` /
    /// `spilled_bytes`.
    pub fn with_spill_threshold(mut self, records: usize) -> Self {
        self.mr.spill_threshold_records = records;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = FusionConfig::accu();
        assert_eq!(c.method, Method::Accu);
        assert_eq!(c.n_false_values, 100.0);
        assert_eq!(c.default_accuracy, 0.8);
        assert_eq!(c.rounds, 5);
        assert_eq!(c.sample_limit, 1_000_000);
    }

    #[test]
    fn vote_is_single_round() {
        assert_eq!(FusionConfig::vote().rounds, 1);
        assert!(!Method::Vote.iterative());
        assert!(Method::Accu.iterative());
        assert!(Method::PopAccu.iterative());
    }

    #[test]
    fn popaccu_plus_stacks_all_refinements() {
        let c = FusionConfig::popaccu_plus();
        assert_eq!(c.method, Method::PopAccu);
        assert_eq!(c.granularity, Granularity::ExtractorSitePredicatePattern);
        assert!(c.filter_by_coverage);
        assert_eq!(c.accuracy_threshold, Some(0.5));
        assert!(matches!(c.init, InitAccuracy::FromGold { sample_rate } if sample_rate == 1.0));
        // The unsupervised variant differs only in the init.
        let u = FusionConfig::popaccu_plus_unsup();
        assert_eq!(u.init, InitAccuracy::Default);
        assert!(u.filter_by_coverage);
    }

    #[test]
    fn builders_compose() {
        let c = FusionConfig::popaccu()
            .with_granularity(Granularity::ExtractorSite)
            .with_rounds(3)
            .with_sample_limit(1_000)
            .with_workers(2);
        assert_eq!(c.granularity, Granularity::ExtractorSite);
        assert_eq!(c.rounds, 3);
        assert_eq!(c.sample_limit, 1_000);
        assert_eq!(c.mr.workers, 2);
    }

    #[test]
    fn with_workers_preserves_chunk_records() {
        // Regression: with_workers used to rebuild MrConfig wholesale,
        // silently zeroing a configured shuffle-residency cap.
        let c = FusionConfig {
            mr: MrConfig::default().with_chunk_records(1 << 16),
            ..FusionConfig::popaccu()
        }
        .with_workers(4)
        .with_spill_threshold(1 << 18);
        assert_eq!(c.mr.workers, 4);
        assert_eq!(c.mr.chunk_records, 1 << 16);
        assert_eq!(c.mr.spill_threshold_records, 1 << 18);
        // And the other direction: re-tuning workers afterwards must not
        // zero the spill threshold either.
        let c = c.with_workers(2);
        assert_eq!(c.mr.workers, 2);
        assert_eq!(c.mr.spill_threshold_records, 1 << 18);
    }

    #[test]
    fn method_labels_match_paper() {
        assert_eq!(Method::Vote.label(), "VOTE");
        assert_eq!(Method::Accu.label(), "ACCU");
        assert_eq!(Method::PopAccu.label(), "POPACCU");
    }
}
