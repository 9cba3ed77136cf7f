//! # kf-dist — the distributed coordinator/worker runtime
//!
//! The paper's production system runs fusion as MapReduce over a fleet
//! of machines (§6); PRs 2–5 only fanned out across *processes* on one
//! filesystem (`repro --shard i/n` + `--merge`). This crate is the next
//! step: the same shard/merge semantics over TCP.
//!
//! * A [`Coordinator`] listens on a socket, registers workers through a
//!   versioned handshake ([`kf_types::wire`]), ships each one the corpus
//!   checkpoint (one frame encoded per run, written from each worker's
//!   own connection thread), dispatches one-preset
//!   [`kf_types::TaskSpec`]s in the order it was given them (`repro`
//!   gives it `kf_bench`'s costliest-first task table, the same one
//!   `--shard` stripes), and collects shard [`kf_eval::EvalReport`]s,
//!   k-way merging them exactly as `--merge` does
//!   ([`kf_eval::merge_reports`]).
//! * A worker ([`run_worker`]) connects (with exponential backoff),
//!   receives the corpus once, and answers tasks with checkpoint-framed
//!   shard reports, heartbeating from a side thread so a long fuse never
//!   reads as death. What a task runs is the caller's runner
//!   (`kf_bench::task_runner` for `repro --worker`).
//!
//! ## Robustness model
//!
//! Workers die; the merge must not notice. The coordinator tracks one
//! state machine per task (*pending → dispatched → done*):
//!
//! * A worker whose connection drops, or whose heartbeats go stale,
//!   is marked **lost**: its in-flight tasks are re-dispatched to
//!   survivors — at once the first time (a loss says nothing about the
//!   task); a task a worker *reports* failed, or on a later attempt, waits
//!   out an exponential backoff. Only the worker holding a task can fail it.
//! * A peer is nobody until it has registered: any first frame but
//!   `Hello` drops the connection (`dist.rpc.protocol_error`), and a peer
//!   that stops reading its corpus frame stalls only its own thread, until
//!   the write times out.
//! * A lost-but-alive worker (heartbeats stopped, socket open — the
//!   "hung" case) may still deliver results later. Completions are
//!   accepted **first-wins** per task; any later completion is counted
//!   (`dist.task.duplicate`) and discarded, so re-dispatch never
//!   double-counts a shard in the merge.
//! * Because every shard report is deterministic for a given corpus and
//!   task, *which* replica's completion wins cannot change the merged
//!   bytes — the merged `report.json` stays byte-identical to the
//!   single-process `--deterministic` run. Fault-injection tests (the
//!   `KF_DIST_FAIL` knob, [`FailSpec`]) pin this.
//!
//! ## Telemetry
//!
//! Both ends record `dist.rpc.sent` / `dist.rpc.recv` counters and
//! `dist.rpc.sent_bytes` / `dist.rpc.recv_bytes` histograms on the
//! installed process trace. The byte histograms are
//! [`kf_telemetry::HistKind::Traffic`]: frame counts depend on heartbeat
//! scheduling and re-dispatch timing, so the `--deterministic`
//! quarantine clears them entirely (count included) — the determinism
//! ledger records only that the metric exists.

pub mod coordinator;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorConfig};
pub use worker::{run_worker, FailMode, FailSpec, WorkerConfig};

use std::io;

/// Why a distributed run failed.
#[derive(Debug)]
pub enum DistError {
    /// Socket-level failure (bind, connect, or a broken stream at a
    /// point the protocol cannot recover from).
    Io(io::Error),
    /// The coordinator refused this worker's registration (version skew
    /// — see [`kf_types::wire`]'s handshake rules).
    Rejected(String),
    /// The peer sent a message the protocol does not allow in the
    /// current state.
    Protocol(String),
    /// A shipped artifact (corpus or shard report) failed checkpoint
    /// validation.
    Checkpoint(String),
    /// The collected shard reports do not merge (corpus mismatch,
    /// duplicate or unknown method) — see [`kf_eval::MergeError`].
    Merge(String),
    /// A task was re-dispatched more than the configured maximum and
    /// still has no result.
    TaskExhausted {
        /// The exhausted task.
        task_id: u32,
        /// Dispatch attempts consumed.
        attempts: u32,
        /// The most recent failure reason.
        last_error: String,
    },
    /// Tasks remain but no live worker exists and none arrived within
    /// the idle timeout.
    NoWorkers,
    /// The `KF_DIST_FAIL` fault injection killed this worker.
    Injected,
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "distributed I/O error: {e}"),
            DistError::Rejected(reason) => write!(f, "coordinator rejected worker: {reason}"),
            DistError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            DistError::Checkpoint(msg) => write!(f, "bad artifact on the wire: {msg}"),
            DistError::Merge(msg) => write!(f, "shard reports do not merge: {msg}"),
            DistError::TaskExhausted {
                task_id,
                attempts,
                last_error,
            } => write!(
                f,
                "task {task_id} exhausted {attempts} dispatch attempts (last error: {last_error})"
            ),
            DistError::NoWorkers => {
                f.write_str("no live workers and none arrived within the idle timeout")
            }
            DistError::Injected => f.write_str("KF_DIST_FAIL fault injection killed this worker"),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DistError {
    fn from(e: io::Error) -> Self {
        DistError::Io(e)
    }
}
