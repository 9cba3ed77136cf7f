//! # kf-mapreduce — a local MapReduce substrate
//!
//! The paper scales fusion to 6.4B extractions with a three-stage MapReduce
//! pipeline (Fig. 8): Stage I partitions extractions by **data item** and
//! computes triple probabilities; Stage II partitions by **provenance** and
//! re-evaluates provenance accuracy; the two iterate until convergence (or a
//! forced cut-off after `R` rounds), and Stage III partitions by **triple**
//! to deduplicate the output.
//!
//! This crate provides the same programming model on a single machine:
//!
//! * [`map_reduce_with_stats`] — a generic map → shuffle → reduce
//!   execution over scoped worker threads with hash partitioning, returning
//!   the output with its [`JobStats`],
//! * [`run_tasks`] — the one in-process fan-out every layer shares (the
//!   engine's map and reduce phases, the fusion kernels, the preset
//!   schedule), under one worker budget per run; how a run's presets are
//!   split across processes (`repro --shard`, `kf-dist`) is `kf-bench`'s
//!   task table, not this crate's,
//! * [`MrConfig::chunk_records`] — the **chunked shuffle**: inputs are
//!   mapped in waves whose buffers merge into reduce-side group
//!   accumulators as they fill. `0` maps the whole input as one wave; a
//!   quota caps raw shuffle residency near it (reported as
//!   [`JobStats::peak_resident_records`]),
//! * [`MrConfig::spill_threshold_records`] — the **external shuffle**:
//!   when grouped residency would cross the threshold, partition
//!   accumulators spill to sorted run files (serialized with the
//!   hand-rolled [`kf_types::KvCodec`]) and reduce by k-way merge,
//!   capping grouped residency too ([`JobStats::peak_grouped_records`],
//!   [`JobStats::spilled_bytes`]),
//! * [`Combiner`] / [`map_reduce_combined_with_stats`] — partial
//!   reduction of group accumulators while the shuffle runs (counts, sums,
//!   dedup), shrinking both the resident groups and the spilled bytes,
//! * [`Reservoir`] — the reducer-side uniform sampling the paper uses to cap
//!   per-key work at `L` records (§4.1 "we sample L triples each time"),
//! * [`IterativeDriver`] — round iteration with convergence detection and
//!   forced termination after `R` rounds (§4.1, Fig. 14),
//! * [`JobStats`] — counters for observability, the benchmark, and
//!   the memory-envelope gates.
//!
//! The engine is deterministic: given the same inputs, configuration and
//! (pure) mapper/reducer functions, output order and content are reproducible
//! regardless of thread interleaving — and regardless of chunking, combining
//! or spilling — because records are grouped per partition, per-key values
//! arrive in input order (spilled runs replay in spill order, which *is*
//! input order), and keys are processed in sorted order. The external
//! shuffle design is documented in the repository's `ARCHITECTURE.md`.

pub mod driver;
pub mod engine;
mod fanout;
pub mod sampling;
mod spill;
pub mod stats;

pub use driver::{IterativeDriver, RoundOutcome};
pub use engine::{
    map_reduce_combined_with_stats, map_reduce_with_stats, Combiner, Emitter, MrConfig,
};
pub use fanout::run_tasks;
pub use sampling::Reservoir;
pub use stats::JobStats;
