//! # kf-serve — an online query engine over fused checkpoints
//!
//! The fusion pipeline ends in batch artifacts: a corpus snapshot and an
//! [`EvalReport`](kf_eval::EvalReport) of aggregate curves. This crate
//! turns the snapshot into something a *consumer* can query at
//! interactive latency, the way the paper frames its output — calibrated
//! triple probabilities plus the provenance evidence behind each belief
//! (§3.1.1, §5.2):
//!
//! * [`FusedKb`] — the serving artifact: one method's scored triples
//!   compiled into read-only columnar indexes (item → belief
//!   distribution, predicate → confidence ranking, triple → provenance
//!   drill-down), persisted through the `KFCP` checkpoint container as
//!   its own [`ArtifactKind`](kf_types::ArtifactKind::FusedKb).
//! * [`KbReader`] — the `Sync`, zero-copy query surface: one loaded
//!   arena shared across any number of threads, with an allocation-free
//!   hot read path.
//! * [`ServeMetrics`] — the live metrics layer: per-thread sharded
//!   latency/result-size histograms and outcome counters recorded on
//!   the hot path (still allocation-free), aggregated into
//!   [`MetricsSnapshot`]s with a Prometheus-style text exposition
//!   (`kf-serve stats --metrics`, `kf-serve watch`).
//! * [`repl`] — the line-oriented query language behind the `kf-serve`
//!   CLI, exposed as a library so tests can drive it.
//!
//! A KB is built one way, from a corpus snapshot
//! ([`FusedKb::build_from_corpus`], behind `kf-serve build`): fuse the
//! served preset, evaluate it in-process, and finish in
//! [`FusedKb::compile_from_parts`], which compiles an output already
//! fused and evaluated.
//!
//! ```
//! use kf_serve::{FusedKb, KbBuildOptions, KbReader};
//! use kf_synth::{Corpus, SynthConfig};
//! use kf_types::DataItem;
//!
//! let corpus = Corpus::generate(&SynthConfig::tiny(), 42);
//! let kb = FusedKb::build_from_corpus(&corpus, &KbBuildOptions::default(), "tiny").unwrap();
//! let reader = KbReader::new(kb);
//!
//! // Every served triple belongs to some item's belief distribution.
//! let view = reader.view(0);
//! let belief = reader
//!     .belief(DataItem {
//!         subject: view.triple.subject,
//!         predicate: view.triple.predicate,
//!     })
//!     .expect("served triple has a belief");
//! assert!(belief.iter().any(|v| v.triple == view.triple));
//! ```

pub mod kb;
pub mod metrics;
pub mod reader;
pub mod repl;

pub use kb::{calibrate, BuildError, FusedKb, KbBuildOptions};
pub use metrics::{
    KindSnapshot, MetricsSnapshot, QueryKind, ServeMetrics, SnapshotRing, SHARD_COUNT,
};
pub use reader::{Belief, Drilldown, KbReader, ProvSupport, TopK, TripleView};
pub use repl::{eval_command, run_repl, ReplOutput};
