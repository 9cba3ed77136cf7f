//! # kf-mapreduce — a local MapReduce substrate
//!
//! The paper scales fusion to 6.4B extractions with a three-stage MapReduce
//! pipeline (Fig. 8): Stage I partitions extractions by **data item** and
//! computes triple probabilities; Stage II partitions by **provenance** and
//! re-evaluates provenance accuracy; the two iterate until convergence (or a
//! forced cut-off after `R` rounds), and Stage III partitions by **triple**
//! to deduplicate the output.
//!
//! In this workspace Stage I's partition by data item is `kf-core`'s
//! grouping job (`Claims::build`), a typed sort of fixed-width records;
//! Stages I and II iterate as kernels over the claim graph it yields. This
//! crate provides what they share, on a single machine:
//!
//! * [`MrConfig`] and [`JobStats`] — the shape of a shuffle and its record:
//!   [`MrConfig::chunk_records`] cuts the input into waves, capping raw
//!   shuffle residency (the **chunked shuffle**,
//!   [`JobStats::peak_resident_records`]), and
//!   [`MrConfig::spill_threshold_records`] writes the pending records as
//!   sorted run files past a threshold, capping grouped residency too
//!   (the **external shuffle**, [`JobStats::peak_grouped_records`],
//!   [`JobStats::spilled_bytes`]),
//! * the run files themselves — [`SpillDir`], [`write_run`] and
//!   [`merge_runs`]: one frame format (serialized with the hand-rolled
//!   [`kf_types::KvCodec`]), one streaming reader and one k-way merge with
//!   a bounded fan-in, for every job that spills,
//! * [`run_tasks`] — the one in-process fan-out every layer shares (the
//!   fusion kernels, the preset schedule, the engine's phases), under one
//!   worker budget per run; how a run's presets are split across
//!   processes (`repro --shard`, `kf-dist`) is `kf-bench`'s task table,
//!   not this crate's,
//! * [`Reservoir`] — the reducer-side uniform sampling the paper uses to cap
//!   per-key work at `L` records (§4.1 "we sample L triples each time"),
//! * [`IterativeDriver`] — round iteration with convergence detection and
//!   forced termination after `R` rounds (§4.1, Fig. 14),
//! * [`map_reduce_with_stats`] and [`Emitter`] — the generic map →
//!   shuffle → reduce engine. The grouping no longer runs through it; it
//!   is kept for the benchmark's `mapreduce.*` probe, which compiles
//!   against it, until that probe times the grouping job instead.
//!
//! The engine is deterministic: given the same inputs, configuration and
//! (pure) mapper/reducer functions, output order and content are reproducible
//! regardless of thread interleaving — and regardless of chunking or
//! spilling — because keys come out of one merge in sorted order, and
//! per-key values arrive in input order (chunks sort stably and merge in
//! chunk order; spilled runs merge in spill order, which *is* input
//! order). The external shuffle design is documented in the repository's
//! `ARCHITECTURE.md`.

pub mod driver;
pub mod engine;
mod fanout;
pub mod sampling;
mod spill;
pub mod stats;

pub use driver::{IterativeDriver, RoundOutcome};
pub use engine::{map_reduce_with_stats, Emitter, MrConfig};
pub use fanout::run_tasks;
pub use sampling::Reservoir;
pub use spill::{merge_runs, write_run, SpillDir};
pub use stats::JobStats;
