//! # kf-types — data model for knowledge fusion
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: compact integer identifiers for entities, predicates, web
//! sources and extractors; [`Value`]s and [`Triple`]s in the Freebase-style
//! `(subject, predicate, object)` shape; [`Extraction`] records carrying the
//! rich provenance the paper relies on (extractor, URL, site, pattern,
//! confidence); [`Granularity`]-parameterised provenance keys (§4.3.1 of the
//! paper); the [`GoldStandard`] with its local closed-world assumption
//! (LCWA) labelling (§3.2.1); [`KvCodec`], the hand-rolled binary
//! codec the MapReduce engine's external shuffle uses to spill grouped
//! partitions to sorted run files; and the [`checkpoint`] container —
//! magic bytes + format version + artifact kind over `KvCodec` payloads —
//! that corpus snapshots and shard reports persist through, including the
//! atomic write-then-rename helper that spill runs are written with too.
//!
//! Everything here is deliberately plain data: `Copy` ids, interned strings,
//! and hash maps keyed by those ids using a fast multiplicative hasher
//! ([`hash::FxHasher`]), because these types sit on the hot path of a fusion
//! run over millions of extractions.

pub mod checkpoint;
pub mod codec;
pub mod extraction;
pub mod gold;
pub mod hash;
pub mod ids;
pub mod intern;
pub mod provenance;
pub mod schema;
pub mod stats;
pub mod taxonomy;
pub mod triple;
pub mod value;
pub mod wire;

pub use checkpoint::{ArtifactKind, CheckpointError, FORMAT_VERSION, MAGIC};
pub use codec::KvCodec;
pub use extraction::{Extraction, ExtractionBatch};
pub use gold::{GoldStandard, Label};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxMixBuildHasher, FxMixHashMap, FxMixHashSet};
pub use ids::{EntityId, ExtractorId, PageId, PatternId, PredicateId, SiteId, StrId, TypeId};
pub use intern::Interner;
pub use provenance::{Granularity, Provenance, ProvenanceKey};
pub use schema::{Catalog, EntityInfo, PredicateInfo, ValueKind};
pub use stats::{human_count, SkewSummary};
pub use taxonomy::{
    BandBreakdown, CategoryAccuracy, CategoryCounts, ConfusionCell, ErrorCategory, GroupBreakdown,
    ScenarioPhenomenon, Spread, TaxonomyReport,
};
pub use triple::{DataItem, Triple};
pub use value::{NoHierarchy, Numeric, Value, ValueHierarchy};
pub use wire::{read_frame, write_frame, TaskSpec, WireMsg, MAX_FRAME_BYTES, PROTOCOL_VERSION};
