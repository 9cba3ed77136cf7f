//! # `kf` — knowledge fusion, end to end
//!
//! A laptop-scale reproduction of *From Data Fusion to Knowledge Fusion*
//! (Dong et al., VLDB 2014) as a Rust workspace. This facade crate
//! re-exports the sub-crates so one dependency gives you the whole
//! pipeline:
//!
//! | crate | role |
//! |---|---|
//! | [`types`] | data model: ids, triples, extractions, provenance, gold standard (LCWA) |
//! | [`mapreduce`] | local MapReduce substrate: map/shuffle/reduce with spill-to-disk, reservoir sampling, round driver |
//! | [`core`] | fusion methods VOTE / ACCU / POPACCU plus the §4.3 refinement stack (POPACCU+) |
//! | [`synth`] | synthetic web-extraction corpus with the paper's statistical artifacts |
//! | [`eval`] | calibration (WDEV/ECE), PR curves (AUC-PR, precision@k), ablation runner |
//! | [`diagnose`] | Fig. 17 automated error taxonomy with per-extractor attribution |
//! | [`serve`] | online query engine: the `FusedKb` artifact + concurrent `KbReader` |
//! | [`telemetry`] | structured spans, counters & run traces across the pipeline |
//!
//! ## Quickstart
//!
//! Generate a corpus, fuse it, and measure quality against the gold
//! standard:
//!
//! ```
//! use kf::prelude::*;
//!
//! // A tiny deterministic corpus: simulated web + extractors + gold KB.
//! let corpus = Corpus::generate(&SynthConfig::tiny(), 42);
//!
//! // Fuse with the paper's best system (POPACCU+, gold-seeded accuracies).
//! let output = Fuser::new(FusionConfig::popaccu_plus())
//!     .run(&corpus.batch, Some(&corpus.gold));
//! assert_eq!(output.scored.len(), corpus.batch.unique_triples());
//!
//! // Evaluate: calibration + ranking quality under LCWA.
//! let runner = AblationRunner::default();
//! let eval = runner.evaluate(Preset::PopAccuPlus, &output, &corpus.gold, 0.0);
//! assert!(eval.wdev().is_finite());
//! assert!(eval.auc_pr() > 0.0);
//! ```
//!
//! The full reproduction (five presets, `report.json`, summary table) is
//! the `repro` binary:
//!
//! ```text
//! cargo run --release --bin repro -- --scale paper --seed 42
//! ```
//!
//! Runnable walkthroughs live in `examples/`: `quickstart`,
//! `calibration_study`, `custom_extractor`, `webscale_pipeline`,
//! `error_taxonomy`, `checkpoint_shard`, `trace_pipeline`,
//! `hostile_corpus`.

pub use kf_core as core;
pub use kf_diagnose as diagnose;
pub use kf_eval as eval;
pub use kf_mapreduce as mapreduce;
pub use kf_serve as serve;
pub use kf_synth as synth;
pub use kf_telemetry as telemetry;
pub use kf_types as types;

/// The names most programs need, in one import.
pub mod prelude {
    pub use kf_core::{
        Claims, Fuser, FusionConfig, FusionOutput, InitAccuracy, Method, ProvenanceAttribution,
        ScoredTriple,
    };
    pub use kf_diagnose::{DiagnoseConfig, Diagnoser, SupportIndex, SupportProfile};
    pub use kf_eval::{
        AblationRunner, Binning, CalibrationCurve, EvalReport, LabeledOutput, MethodEval, PrCurve,
        Preset,
    };
    pub use kf_mapreduce::MrConfig;
    pub use kf_serve::{FusedKb, KbBuildOptions, KbReader, MetricsSnapshot, ServeMetrics};
    pub use kf_synth::{Corpus, SynthConfig};
    pub use kf_telemetry::{Trace, TraceReport};
    pub use kf_types::{
        DataItem, EntityId, ErrorCategory, Extraction, ExtractionBatch, ExtractorId, GoldStandard,
        Granularity, Label, PageId, PatternId, PredicateId, Provenance, SiteId, TaxonomyReport,
        Triple, Value,
    };
}
