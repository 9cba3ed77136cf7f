//! # kf-eval — calibration & PR-curve evaluation
//!
//! The measurement half of *From Data Fusion to Knowledge Fusion*: the
//! paper's contribution is less a new fusion algorithm than an evaluation
//! methodology — judge fused triples against Freebase under the local
//! closed-world assumption (§5.1) and ask two questions of the resulting
//! probabilities:
//!
//! 1. **Are they calibrated?** ([`calibration`]) Among triples predicted
//!    with probability ~p, is a fraction ~p actually true? Summarised by
//!    the paper's weighted deviation (WDEV) and the standard expected
//!    calibration error (ECE) over equal-width and equal-mass bins.
//! 2. **Do they rank well?** ([`pr`]) Precision–recall curves swept over
//!    probability thresholds, AUC-PR via trapezoidal integration, and
//!    precision@k, plus the coverage axis (how many triples get a
//!    prediction at all).
//!
//! [`ablation::AblationRunner`] closes the loop: it runs the paper's five
//! named systems (`vote`, `accu`, `popaccu`, `popaccu_plus_unsup`,
//! `popaccu_plus`) over a [`kf_synth::Corpus`]'s grouped claims, one
//! shared step per preset ([`AblationRunner::fuse_preset`]), for a
//! serializable [`report::EvalReport`] (JSON via the in-repo [`json`] writer), so every
//! future performance PR can prove it did not regress fusion quality by
//! diffing `report.json`. The report's JSON schema is documented in the
//! [`report`] module.
//!
//! ```
//! use kf_core::Claims;
//! use kf_eval::{AblationRunner, Preset};
//! use kf_mapreduce::MrConfig;
//! use kf_synth::{Corpus, SynthConfig};
//!
//! let corpus = Corpus::generate(&SynthConfig::tiny(), 42);
//! let claims = Claims::build(&corpus.batch.records, &MrConfig::default());
//! let labels = claims.table().labels(&corpus.gold);
//! let runner = AblationRunner { scale: "tiny".into(), ..Default::default() };
//! let (_, _, eval) = runner.fuse_preset(Preset::PopAccu, &claims, &labels);
//! assert!(eval.wdev().is_finite());
//! assert!(eval.auc_pr() > 0.0);
//! ```

pub mod ablation;
pub mod calibration;
pub mod json;
pub mod labels;
pub mod persist;
pub mod pr;
pub mod report;

pub use ablation::{AblationRunner, Preset};
pub use calibration::{calibration_curve, Binning, CalibrationBin, CalibrationCurve};
pub use json::Json;
pub use labels::LabeledOutput;
pub use persist::{merge_reports, MergeError};
pub use pr::{pr_curve, precision_at_k, PrCurve, PrPoint};
pub use report::{evaluate_labeled, trace_to_json, CorpusSummary, EvalReport, MethodEval};
