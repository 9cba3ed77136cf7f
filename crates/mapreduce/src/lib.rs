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
//!   execution over scoped worker threads whose shuffle is append → sort
//!   → merge: mapped records append to one buffer, contiguous chunks of it
//!   sort in parallel, and per-worker key ranges k-way merge the chunks
//!   into the reducer; it returns the output, in key order, with its
//!   [`JobStats`],
//! * [`run_tasks`] — the one in-process fan-out every layer shares (the
//!   engine's map, sort and reduce phases, the fusion kernels, the preset
//!   schedule), under one worker budget per run; how a run's presets are
//!   split across processes (`repro --shard`, `kf-dist`) is `kf-bench`'s
//!   task table, not this crate's,
//! * [`MrConfig::chunk_records`] — the **chunked shuffle**: inputs are
//!   mapped in waves whose records append to the pending buffer as they
//!   fill. `0` maps the whole input as one wave; a quota caps raw shuffle
//!   residency near it (reported as [`JobStats::peak_resident_records`]),
//! * [`MrConfig::spill_threshold_records`] — the **external shuffle**:
//!   when grouped residency would cross the threshold, the pending buffer
//!   is sorted the same way and written as one sorted run file
//!   (serialized with the hand-rolled [`kf_types::KvCodec`]), and the job
//!   reduces by the same k-way merge over its runs, capping grouped
//!   residency too ([`JobStats::peak_grouped_records`],
//!   [`JobStats::spilled_bytes`]). Runs are written synchronously on the
//!   calling thread, so their I/O time lands in the wave's `spill` span,
//! * [`Reservoir`] — the reducer-side uniform sampling the paper uses to cap
//!   per-key work at `L` records (§4.1 "we sample L triples each time"),
//! * [`IterativeDriver`] — round iteration with convergence detection and
//!   forced termination after `R` rounds (§4.1, Fig. 14),
//! * [`JobStats`] — counters for observability, the benchmark, and
//!   the memory-envelope gates.
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
pub use stats::JobStats;
