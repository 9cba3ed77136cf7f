//! Live serving metrics: per-thread sharded recorders on the query hot
//! path, merged point-in-time snapshots, and a Prometheus-style text
//! exposition.
//!
//! # Sharding
//!
//! A [`ServeMetrics`] preallocates [`SHARD_COUNT`] shards at
//! construction, each holding one latency and one result-size
//! [`LiveHistogram`] plus hit/miss counters per [`QueryKind`]. A thread
//! is pinned to a shard on its first recording (process-global
//! round-robin over a thread-local cell) and every recording after that
//! is a handful of relaxed atomic adds on its own shard — no locks, no
//! allocation, so the reader's pinned zero-allocation guarantee holds
//! with metrics enabled. Reading aggregates all shards through the
//! histogram merge algebra (bucket-wise addition), which is exactly the
//! shard-report reassembly rule the rest of the pipeline uses.
//!
//! # Cumulative snapshots and windows
//!
//! [`ServeMetrics::snapshot`] is cumulative since construction.
//! Windowed views (what `kf-serve watch` prints) come from
//! [`MetricsSnapshot::delta`] between two polls of the same recorder —
//! counts subtract saturating, distributions subtract bucket-wise — and
//! a [`SnapshotRing`] keeps the recent polls a watcher diffs.
//!
//! # Determinism
//!
//! Latency histograms are [`HistKind::Time`]: their observation counts
//! are input-determined but their bucket occupancy is wall-clock and
//! quarantines with span timings. Result-size histograms and the
//! hit/miss counters are [`HistKind::Value`]-style data quantities and
//! are reproducible run-to-run for a fixed query stream.

use kf_eval::Json;
use kf_telemetry::{bucket_bounds, HistKind, HistogramSnapshot, LiveHistogram};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Fixed number of recorder shards. Threads are assigned round-robin,
/// so up to this many recording threads never contend on a cache line;
/// beyond it they share shards (still correct, just contended).
pub const SHARD_COUNT: usize = 16;

/// The query surfaces of [`crate::KbReader`], one metrics family each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Exact-triple row lookup.
    Lookup,
    /// Belief distribution of one `(subject, predicate)` item.
    Belief,
    /// Ranked top-k of one predicate.
    TopK,
    /// Provenance drill-down of one triple.
    Drilldown,
}

impl QueryKind {
    /// Every kind, in stable exposition order.
    pub const ALL: [QueryKind; 4] = [
        QueryKind::Lookup,
        QueryKind::Belief,
        QueryKind::TopK,
        QueryKind::Drilldown,
    ];

    /// Stable lowercase label used in metric names and JSON.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Lookup => "lookup",
            QueryKind::Belief => "belief",
            QueryKind::TopK => "top_k",
            QueryKind::Drilldown => "drilldown",
        }
    }

    fn index(self) -> usize {
        match self {
            QueryKind::Lookup => 0,
            QueryKind::Belief => 1,
            QueryKind::TopK => 2,
            QueryKind::Drilldown => 3,
        }
    }

    fn latency_metric(self) -> &'static str {
        match self {
            QueryKind::Lookup => "serve.latency_ns.lookup",
            QueryKind::Belief => "serve.latency_ns.belief",
            QueryKind::TopK => "serve.latency_ns.top_k",
            QueryKind::Drilldown => "serve.latency_ns.drilldown",
        }
    }

    fn size_metric(self) -> &'static str {
        match self {
            QueryKind::Lookup => "serve.result_size.lookup",
            QueryKind::Belief => "serve.result_size.belief",
            QueryKind::TopK => "serve.result_size.top_k",
            QueryKind::Drilldown => "serve.result_size.drilldown",
        }
    }
}

/// One query kind's recorders inside one shard.
struct KindShard {
    latency: LiveHistogram,
    result_size: LiveHistogram,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl KindShard {
    fn new() -> KindShard {
        KindShard {
            latency: LiveHistogram::new(),
            result_size: LiveHistogram::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// One recorder shard: four kind families plus an error counter.
struct Shard {
    kinds: [KindShard; 4],
    errors: AtomicU64,
}

// A thread keeps one shard index for its whole life, assigned on first
// recording from a process-global round-robin. The index is valid for
// every `ServeMetrics` instance (all use SHARD_COUNT shards), so the
// cell is shared across instances without ambiguity.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static THREAD_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn thread_shard() -> usize {
    THREAD_SHARD.with(|cell| {
        let mut shard = cell.get();
        if shard == usize::MAX {
            shard = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARD_COUNT;
            cell.set(shard);
        }
        shard
    })
}

/// The live recorder: preallocated shards, lock-free recording,
/// merge-on-read snapshots. Wrap in an [`std::sync::Arc`] and hand a
/// clone to every [`crate::KbReader`] that should report into it.
pub struct ServeMetrics {
    shards: Vec<Shard>,
}

impl ServeMetrics {
    /// Allocate every shard up front (recording never allocates).
    pub fn new() -> ServeMetrics {
        ServeMetrics {
            shards: (0..SHARD_COUNT)
                .map(|_| Shard {
                    kinds: std::array::from_fn(|_| KindShard::new()),
                    errors: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Record one finished query: latency always, result size only when
    /// the query hit (a miss has no result to size). Lock- and
    /// allocation-free.
    #[inline]
    pub fn record(&self, kind: QueryKind, latency_ns: u64, hit: bool, result_size: u64) {
        let shard = &self.shards[thread_shard()];
        let ks = &shard.kinds[kind.index()];
        ks.latency.record(latency_ns);
        if hit {
            ks.hits.fetch_add(1, Ordering::Relaxed);
            ks.result_size.record(result_size);
        } else {
            ks.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one serving-layer error (bad command, I/O failure).
    #[inline]
    pub fn record_error(&self) {
        self.shards[thread_shard()]
            .errors
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Merge every shard into one cumulative snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut kinds: Vec<KindSnapshot> = QueryKind::ALL
            .iter()
            .map(|&kind| KindSnapshot {
                kind,
                hits: 0,
                misses: 0,
                latency: HistogramSnapshot::empty(kind.latency_metric(), HistKind::Time),
                result_size: HistogramSnapshot::empty(kind.size_metric(), HistKind::Value),
            })
            .collect();
        let mut errors = 0u64;
        for shard in &self.shards {
            errors += shard.errors.load(Ordering::Relaxed);
            for (out, ks) in kinds.iter_mut().zip(&shard.kinds) {
                out.hits += ks.hits.load(Ordering::Relaxed);
                out.misses += ks.misses.load(Ordering::Relaxed);
                let latency = ks.latency.snapshot(&out.latency.name, HistKind::Time);
                out.latency.merge(&latency);
                let sizes = ks
                    .result_size
                    .snapshot(&out.result_size.name, HistKind::Value);
                out.result_size.merge(&sizes);
            }
        }
        MetricsSnapshot { kinds, errors }
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

impl std::fmt::Debug for ServeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeMetrics")
            .field("shards", &SHARD_COUNT)
            .finish()
    }
}

/// A timer for one in-flight query. Does not read the clock at all when
/// metrics are disabled, so the uninstrumented path pays one branch.
/// Finishing is explicit (not `Drop`) so the hot path records exactly
/// once, with the hit/size outcome in hand.
pub(crate) struct MetricTimer<'a> {
    armed: Option<(&'a ServeMetrics, Instant)>,
    kind: QueryKind,
}

impl<'a> MetricTimer<'a> {
    #[inline]
    pub(crate) fn start(metrics: Option<&'a ServeMetrics>, kind: QueryKind) -> MetricTimer<'a> {
        MetricTimer {
            armed: metrics.map(|m| (m, Instant::now())),
            kind,
        }
    }

    #[inline]
    pub(crate) fn finish(self, hit: bool, result_size: u64) {
        if let Some((metrics, start)) = self.armed {
            metrics.record(
                self.kind,
                start.elapsed().as_nanos() as u64,
                hit,
                result_size,
            );
        }
    }
}

/// One query kind's aggregated state inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct KindSnapshot {
    /// Which query surface this row describes.
    pub kind: QueryKind,
    /// Queries that found their item/predicate/triple.
    pub hits: u64,
    /// Queries that found nothing.
    pub misses: u64,
    /// Latency distribution (nanoseconds, [`HistKind::Time`]).
    pub latency: HistogramSnapshot,
    /// Result-size distribution over hits ([`HistKind::Value`]).
    pub result_size: HistogramSnapshot,
}

impl KindSnapshot {
    /// Total queries of this kind.
    pub fn queries(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A point-in-time aggregate of a [`ServeMetrics`]: every kind's
/// counters and distributions, merged across shards.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-kind rows, in [`QueryKind::ALL`] order.
    pub kinds: Vec<KindSnapshot>,
    /// Serving-layer errors.
    pub errors: u64,
}

impl MetricsSnapshot {
    /// Total queries across every kind.
    pub fn total_queries(&self) -> u64 {
        self.kinds.iter().map(KindSnapshot::queries).sum()
    }

    /// Latency distribution pooled across every kind (what a qps/pXX
    /// headline quotes).
    pub fn pooled_latency(&self) -> HistogramSnapshot {
        let mut pooled = HistogramSnapshot::empty("serve.latency_ns", HistKind::Time);
        for k in &self.kinds {
            pooled.merge(&k.latency);
        }
        pooled
    }

    /// The window `self - prev` for two cumulative snapshots of the same
    /// recorder: what happened between the two polls.
    pub fn delta(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        let kinds = self
            .kinds
            .iter()
            .map(|k| {
                let before = prev.kinds.iter().find(|p| p.kind == k.kind);
                match before {
                    Some(p) => KindSnapshot {
                        kind: k.kind,
                        hits: k.hits.saturating_sub(p.hits),
                        misses: k.misses.saturating_sub(p.misses),
                        latency: k.latency.delta(&p.latency),
                        result_size: k.result_size.delta(&p.result_size),
                    },
                    None => k.clone(),
                }
            })
            .collect();
        MetricsSnapshot {
            kinds,
            errors: self.errors.saturating_sub(prev.errors),
        }
    }

    /// Render in Prometheus text exposition style: `counter` families
    /// for query outcomes and errors, `histogram` families with
    /// cumulative `le` buckets (only non-empty layout buckets are
    /// listed; `+Inf`, `_sum` and `_count` always close a family).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE kf_serve_queries_total counter\n");
        for k in &self.kinds {
            let name = k.kind.name();
            let _ = writeln!(
                out,
                "kf_serve_queries_total{{kind=\"{name}\",outcome=\"hit\"}} {}",
                k.hits
            );
            let _ = writeln!(
                out,
                "kf_serve_queries_total{{kind=\"{name}\",outcome=\"miss\"}} {}",
                k.misses
            );
        }
        out.push_str("# TYPE kf_serve_errors_total counter\n");
        let _ = writeln!(out, "kf_serve_errors_total {}", self.errors);
        for (family, unit, pick) in [
            (
                "kf_serve_latency",
                "nanoseconds",
                (|k: &KindSnapshot| &k.latency) as fn(&KindSnapshot) -> &HistogramSnapshot,
            ),
            ("kf_serve_result_size", "rows", |k: &KindSnapshot| {
                &k.result_size
            }),
        ] {
            let _ = writeln!(out, "# TYPE {family} histogram");
            let _ = writeln!(out, "# UNIT {family} {unit}");
            for k in &self.kinds {
                let name = k.kind.name();
                let h = pick(k);
                let mut cumulative = 0u64;
                for b in &h.buckets {
                    cumulative += b.count;
                    let le = bucket_bounds(b.index as usize).1;
                    let _ = writeln!(
                        out,
                        "{family}_bucket{{kind=\"{name}\",le=\"{le}\"}} {cumulative}"
                    );
                }
                let _ = writeln!(
                    out,
                    "{family}_bucket{{kind=\"{name}\",le=\"+Inf\"}} {cumulative}"
                );
                let _ = writeln!(out, "{family}_sum{{kind=\"{name}\"}} {}", h.sum);
                let _ = writeln!(out, "{family}_count{{kind=\"{name}\"}} {}", h.count);
            }
        }
        out
    }

    /// The snapshot as a JSON document (quantiles read from bucket upper
    /// bounds, so they carry the layout's `2^-5` relative error).
    pub fn to_json(&self) -> Json {
        fn hist_json(h: &HistogramSnapshot) -> Json {
            Json::obj([
                ("count", Json::from(h.count)),
                ("sum", Json::from(h.sum)),
                ("p50", Json::from(h.quantile(0.50))),
                ("p95", Json::from(h.quantile(0.95))),
                ("p99", Json::from(h.quantile(0.99))),
            ])
        }
        Json::obj([
            ("errors", Json::from(self.errors)),
            ("total_queries", Json::from(self.total_queries())),
            (
                "kinds",
                Json::arr(self.kinds.iter().map(|k| {
                    Json::obj([
                        ("kind", Json::from(k.kind.name())),
                        ("hits", Json::from(k.hits)),
                        ("misses", Json::from(k.misses)),
                        ("latency_ns", hist_json(&k.latency)),
                        ("result_size", hist_json(&k.result_size)),
                    ])
                })),
            ),
        ])
    }
}

/// A bounded ring of recent cumulative snapshots — what a watcher polls
/// to compute windowed qps/quantiles without holding the recorder.
#[derive(Debug)]
pub struct SnapshotRing {
    entries: Mutex<VecDeque<MetricsSnapshot>>,
    capacity: usize,
}

impl SnapshotRing {
    /// An empty ring holding at most `capacity` snapshots (≥ 2, so a
    /// window is always computable once two polls landed).
    pub fn new(capacity: usize) -> SnapshotRing {
        SnapshotRing {
            entries: Mutex::new(VecDeque::new()),
            capacity: capacity.max(2),
        }
    }

    /// Append the newest cumulative snapshot, evicting the oldest past
    /// capacity.
    pub fn push(&self, snapshot: MetricsSnapshot) {
        let mut entries = self.entries.lock().expect("ring poisoned");
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(snapshot);
    }

    /// Snapshots currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("ring poisoned").len()
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent cumulative snapshot.
    pub fn latest(&self) -> Option<MetricsSnapshot> {
        self.entries.lock().expect("ring poisoned").back().cloned()
    }

    /// The window between the two most recent polls (`None` until two
    /// landed).
    pub fn last_window(&self) -> Option<MetricsSnapshot> {
        let entries = self.entries.lock().expect("ring poisoned");
        let n = entries.len();
        if n < 2 {
            return None;
        }
        Some(entries[n - 1].delta(&entries[n - 2]))
    }
}
