//! # kf-core — knowledge fusion algorithms
//!
//! The primary contribution of *From Data Fusion to Knowledge Fusion*
//! (Dong et al., VLDB 2014), rebuilt as a library: given a bag of
//! `(triple, provenance, confidence)` extraction records, estimate a
//! **calibrated truthfulness probability** for every unique triple.
//!
//! Three data-fusion methods are adapted to the task (§4.1):
//!
//! * [`Method::Vote`] — provenance-count fractions (baseline),
//! * [`Method::Accu`] — Bayesian single-truth analysis with uniformly
//!   distributed false values (Dong et al. 2009),
//! * [`Method::PopAccu`] — ACCU with the false-value distribution
//!   estimated from the data (Dong, Saha, Srivastava 2013).
//!
//! Plus the refinement stack of §4.3 that turns POPACCU into **POPACCU+**:
//! provenance granularity ([`kf_types::Granularity`]), coverage and
//! accuracy filtering, and semi-supervised accuracy initialisation from a
//! gold standard. [`FusionConfig`] exposes each knob independently so every
//! ablation in the paper's Figs. 9–15 is reproducible; ready-made presets
//! ([`FusionConfig::vote`], [`FusionConfig::accu`],
//! [`FusionConfig::popaccu`], [`FusionConfig::popaccu_plus_unsup`],
//! [`FusionConfig::popaccu_plus`]) match the named systems in the paper.
//!
//! Execution follows the paper's three-stage architecture (Fig. 8), with
//! reservoir sampling (`L`) and forced termination (`R`). The grouping
//! stage ([`Claims::build`]) is a single typed sort of one fixed-width
//! record per extraction — raw provenances ride along, whatever
//! granularity will name them — and honours the [`kf_mapreduce`] memory
//! envelope (`MrConfig::chunk_records`,
//! `MrConfig::spill_threshold_records`), spilling through its run files. It shuffles the extractions
//! once; a claim graph ([`Grouped`]) is a projection of the grouped
//! claims at one granularity that shares their per-slot columns
//! ([`SlotTable`]) rather than copying them, and the rounds are kernels
//! over that immutable graph, which several runs can share
//! ([`Fuser::run_prebuilt`]). The claims are the one owner of that
//! grouped state: they hold each granularity's graph once projected
//! ([`Claims::graph`], [`Claims::project_graphs`]). The claims keep their grouping job's trace
//! ([`Claims::trace`]); whoever owns the trace they were built for grafts
//! it there, once ([`Claims::build_recorded`] does both on the calling
//! thread). A fusion call records its rounds only, however its graph was
//! built. See the repository's `ARCHITECTURE.md` for the data flow.
//!
//! ```
//! use kf_core::{Fuser, FusionConfig};
//! use kf_types::{ExtractionBatch, Extraction, Triple, Provenance, Value,
//!                EntityId, PredicateId, ExtractorId, PageId, SiteId, PatternId};
//!
//! let mut batch = ExtractionBatch::new();
//! for page in 0..3 {
//!     batch.push(Extraction::new(
//!         Triple::new(EntityId(1), PredicateId(0), Value::Entity(EntityId(42))),
//!         Provenance::new(ExtractorId(0), PageId(page), SiteId(0), PatternId::NONE),
//!     ));
//! }
//! let out = Fuser::new(FusionConfig::popaccu()).run(&batch, None);
//! // One unique triple: slot 0 of the run's probability column.
//! assert_eq!(out.scored.len(), 1);
//! assert!(out.scored.probability(0).unwrap() > 0.9);
//! ```

pub mod config;
pub mod methods;
pub mod observation;
pub mod pipeline;
pub mod result;

pub use config::{FusionConfig, InitAccuracy, Method};
pub use observation::{Claims, Grouped, SlotTable};
pub use pipeline::Fuser;
pub use result::{FusionOutput, ProvenanceAttribution, ScoredSlots, ScoredTriple};
