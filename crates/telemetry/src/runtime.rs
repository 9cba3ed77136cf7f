//! The recording side: [`Trace`], span guards, counters, and the
//! thread-local installation that lets library code emit telemetry
//! without threading a handle through every signature.
//!
//! # Threading model
//!
//! A [`Trace`] is a cheap clone-able handle (`Arc` inside). Counters and
//! series are thread-safe: any thread holding a handle (or a
//! [`CounterHandle`]) may add to them concurrently. The *span stack* is
//! structural state — it assumes one coordinating thread opens and
//! closes spans in LIFO order, which is exactly how the fusion pipeline
//! runs (worker threads do the flat work; the coordinator owns phase
//! structure). A span guard dropped out of order records its timing but
//! only unwinds the stack down to its own frame.
//!
//! So a trace keeps **one** span stack: when a run fans out into tasks,
//! spans on the run's trace are opened from the calling thread only — a
//! task that needs spans records them into a trace of its own (a method
//! trace). Counters are a different matter: a task handed the caller's
//! trace ([`current`] captured before the fan-out, [`install`]ed on
//! whichever thread runs the task) may add to them from there.

use crate::histogram::{bucket_index, HistKind, HistogramSnapshot, BUCKET_COUNT};
use crate::report::{CounterSnapshot, MergeRule, SeriesSnapshot, SpanNode, TraceReport};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Lock a mutex, recovering the inner data if a previous holder
/// panicked. Telemetry must stay usable during unwinding — a poisoned
/// span arena is still structurally sound because every mutation is a
/// single field update.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One node of the live span arena. Same-name children aggregate: a
/// thousand waves produce one `wave` node with `calls == 1000`, keeping
/// traces compact and the deterministic section stable.
struct ArenaNode {
    name: Name,
    calls: u64,
    total_ns: u64,
    children: Vec<usize>,
}

/// A span, counter, series or histogram name: `&'static str` from
/// instrumented code (borrowed, no allocation), owned when it arrives
/// inside a grafted [`TraceReport`].
type Name = Cow<'static, str>;

struct SpanArena {
    /// Node 0 is the root; it is closed only by [`Trace::snapshot`].
    nodes: Vec<ArenaNode>,
    /// Indices of currently-open spans, root first. Indices are unique
    /// (a child is never its own ancestor), so closing by position is
    /// unambiguous.
    stack: Vec<usize>,
}

impl SpanArena {
    /// The child of `parent` named `name`, created (with no calls yet, under
    /// the name `own` makes) on first use.
    fn child(&mut self, parent: usize, name: &str, own: impl FnOnce() -> Name) -> usize {
        let existing = self.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c].name == name);
        existing.unwrap_or_else(|| {
            let idx = self.nodes.len();
            self.nodes.push(ArenaNode {
                name: own(),
                calls: 0,
                total_ns: 0,
                children: Vec::new(),
            });
            self.nodes[parent].children.push(idx);
            idx
        })
    }

    /// Add `node`'s calls and time to the child of `parent` with its name,
    /// then its children beneath that, recursively.
    fn graft(&mut self, parent: usize, node: &SpanNode) {
        let idx = self.child(parent, &node.name, || Cow::Owned(node.name.clone()));
        self.nodes[idx].calls += node.calls;
        self.nodes[idx].total_ns += node.total_ns;
        for c in &node.children {
            self.graft(idx, c);
        }
    }
}

/// The cell registered in `map` under `name`, registered as `own()` →
/// `new()` on first use. A name is looked up borrowed, so one that arrives
/// inside a grafted report is copied only when it is new to the trace.
fn cell<V>(
    map: &Mutex<BTreeMap<Name, Arc<V>>>,
    name: &str,
    own: impl FnOnce() -> Name,
    new: impl FnOnce() -> V,
) -> Arc<V> {
    let mut map = lock_unpoisoned(map);
    if let Some(cell) = map.get(name) {
        return cell.clone();
    }
    let cell = Arc::new(new());
    map.insert(own(), cell.clone());
    cell
}

struct CounterCell {
    value: AtomicU64,
    rule: MergeRule,
}

/// The live, thread-safe side of a log-bucketed histogram: a dense
/// preallocated bucket array of atomics over the fixed layout, so
/// recording is three relaxed `fetch_add`s and **zero allocations** —
/// safe on hot paths that pin an allocation-free guarantee.
pub struct LiveHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LiveHistogram {
    fn default() -> Self {
        LiveHistogram::new()
    }
}

impl LiveHistogram {
    /// A fresh histogram with every bucket of the fixed layout
    /// preallocated (one upfront allocation, none at record time).
    pub fn new() -> LiveHistogram {
        LiveHistogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation. Lock-free, allocation-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Add a frozen histogram's observations bucket-wise (the live side
    /// of [`HistogramSnapshot::merge`]).
    fn absorb(&self, snap: &HistogramSnapshot) {
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        for b in &snap.buckets {
            self.buckets[b.index as usize].fetch_add(b.count, Ordering::Relaxed);
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Freeze into a sparse snapshot under the given name and kind.
    pub fn snapshot(&self, name: &str, kind: HistKind) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty(name, kind);
        snap.count = self.count.load(Ordering::Relaxed);
        snap.sum = self.sum.load(Ordering::Relaxed);
        for (index, bucket) in self.buckets.iter().enumerate() {
            let count = bucket.load(Ordering::Relaxed);
            if count > 0 {
                snap.buckets.push(crate::histogram::HistBucket {
                    index: index as u32,
                    count,
                });
            }
        }
        snap
    }
}

struct HistogramCell {
    kind: HistKind,
    live: LiveHistogram,
}

struct Inner {
    started: Instant,
    root_name: &'static str,
    spans: Mutex<SpanArena>,
    counters: Mutex<BTreeMap<Name, Arc<CounterCell>>>,
    series: Mutex<BTreeMap<Name, Vec<f64>>>,
    histograms: Mutex<BTreeMap<Name, Arc<HistogramCell>>>,
}

/// A run-scoped telemetry registry: a tree of timed spans, a set of
/// merge-ruled counters, and named numeric series.
///
/// Clone freely — all clones share one registry. Snapshot at any time
/// with [`Trace::snapshot`]; recording may continue afterwards.
#[derive(Clone)]
pub struct Trace {
    inner: Arc<Inner>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// A fresh trace whose root span is named `run`.
    pub fn new() -> Trace {
        Trace::with_root("run")
    }

    /// A fresh trace with an explicit root-span name.
    pub fn with_root(root_name: &'static str) -> Trace {
        Trace {
            inner: Arc::new(Inner {
                started: Instant::now(),
                root_name,
                spans: Mutex::new(SpanArena {
                    nodes: vec![ArenaNode {
                        name: Cow::Borrowed(root_name),
                        calls: 0,
                        total_ns: 0,
                        children: Vec::new(),
                    }],
                    stack: vec![0],
                }),
                counters: Mutex::new(BTreeMap::new()),
                series: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Open a span as a child of the innermost open span. The returned
    /// guard closes it (recording elapsed time and one call) on drop —
    /// including during a panic, so a panicking scope never leaves the
    /// stack dangling.
    #[must_use = "a span measures the lifetime of this guard; bind it with `let _span = ...`"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let node = {
            let mut arena = lock_unpoisoned(&self.inner.spans);
            let parent = *arena.stack.last().expect("root frame is never popped");
            let node = arena.child(parent, name, || Cow::Borrowed(name));
            arena.stack.push(node);
            node
        };
        SpanGuard {
            trace: self.clone(),
            node,
            started: Instant::now(),
        }
    }

    /// A thread-safe handle to the named counter, registering it with
    /// `rule` on first use. A counter's merge rule is fixed by its first
    /// registration; later calls reuse the existing cell regardless of
    /// the rule they pass.
    pub fn counter(&self, name: &'static str, rule: MergeRule) -> CounterHandle {
        self.counter_named(name, || Cow::Borrowed(name), rule)
    }

    fn counter_named(
        &self,
        name: &str,
        own: impl FnOnce() -> Name,
        rule: MergeRule,
    ) -> CounterHandle {
        let new = || CounterCell {
            value: AtomicU64::new(0),
            rule,
        };
        CounterHandle {
            cell: cell(&self.inner.counters, name, own, new),
        }
    }

    /// Add `delta` to the named [`MergeRule::Add`] counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        self.counter(name, MergeRule::Add).add(delta);
    }

    /// Raise the named [`MergeRule::Max`] counter to at least `value`.
    pub fn record_max(&self, name: &'static str, value: u64) {
        self.counter(name, MergeRule::Max).record_max(value);
    }

    /// Append `value` to the named series (e.g. per-round convergence
    /// deltas). Series values are data, not timings: they survive
    /// [`TraceReport::quarantine_timings`].
    pub fn push_series(&self, name: &'static str, value: f64) {
        lock_unpoisoned(&self.inner.series)
            .entry(Cow::Borrowed(name))
            .or_default()
            .push(value);
    }

    /// A lock-free handle to the named histogram, registering it with
    /// `kind` on first use. Like counters, a histogram's kind is fixed
    /// by its first registration.
    pub fn histogram(&self, name: &'static str, kind: HistKind) -> HistogramHandle {
        self.histogram_named(name, || Cow::Borrowed(name), kind)
    }

    fn histogram_named(
        &self,
        name: &str,
        own: impl FnOnce() -> Name,
        kind: HistKind,
    ) -> HistogramHandle {
        let new = || HistogramCell {
            kind,
            live: LiveHistogram::new(),
        };
        HistogramHandle {
            cell: cell(&self.inner.histograms, name, own, new),
        }
    }

    /// Record a wall-clock duration (nanoseconds) into the named
    /// [`HistKind::Time`] histogram.
    pub fn record_time(&self, name: &'static str, ns: u64) {
        self.histogram(name, HistKind::Time).record(ns);
    }

    /// Record a data quantity into the named [`HistKind::Value`]
    /// histogram.
    pub fn record_value(&self, name: &'static str, value: u64) {
        self.histogram(name, HistKind::Value).record(value);
    }

    /// Record a wire-frame size (bytes) into the named
    /// [`HistKind::Traffic`] histogram.
    pub fn record_traffic(&self, name: &'static str, bytes: u64) {
        self.histogram(name, HistKind::Traffic).record(bytes);
    }

    /// Replay a frozen trace into this one, as if its recording had
    /// happened here: `report`'s root becomes (or merges into) a child of
    /// the innermost open span, named after itself, and its counters,
    /// series and histograms merge under the rules of
    /// [`TraceReport::merge`]. This is how work recorded on a trace of
    /// its own — a grouping job, run on whichever thread was free and
    /// kept with what it built — lands in the trace of whoever it ran
    /// for: graft it there once, where it ran, and nowhere else, so no
    /// wall-clock is counted twice.
    pub fn graft(&self, report: &TraceReport) {
        {
            let mut arena = lock_unpoisoned(&self.inner.spans);
            let parent = *arena.stack.last().expect("root frame is never popped");
            arena.graft(parent, &report.root);
        }
        for c in &report.counters {
            let handle = self.counter_named(&c.name, || Cow::Owned(c.name.clone()), c.rule);
            match c.rule {
                MergeRule::Add => handle.add(c.value),
                MergeRule::Max => handle.record_max(c.value),
            }
        }
        for s in &report.series {
            let mut series = lock_unpoisoned(&self.inner.series);
            match series.get_mut(s.name.as_str()) {
                Some(values) => values.extend_from_slice(&s.values),
                None => {
                    series.insert(Cow::Owned(s.name.clone()), s.values.clone());
                }
            }
        }
        for h in &report.histograms {
            self.histogram_named(&h.name, || Cow::Owned(h.name.clone()), h.kind)
                .cell
                .live
                .absorb(h);
        }
    }

    /// Freeze the current state into a [`TraceReport`]. Open spans
    /// contribute the calls and time of their already-closed invocations;
    /// the root reports one call spanning the trace's lifetime so far.
    pub fn snapshot(&self) -> TraceReport {
        let root = {
            let arena = lock_unpoisoned(&self.inner.spans);
            let mut root = build_node(&arena.nodes, 0);
            root.calls = 1;
            root.total_ns = self.inner.started.elapsed().as_nanos() as u64;
            root
        };
        let counters = lock_unpoisoned(&self.inner.counters)
            .iter()
            .map(|(name, cell)| CounterSnapshot {
                name: name.to_string(),
                value: cell.value.load(Ordering::Relaxed),
                rule: cell.rule,
            })
            .collect();
        let series = lock_unpoisoned(&self.inner.series)
            .iter()
            .map(|(name, values)| SeriesSnapshot {
                name: name.to_string(),
                values: values.clone(),
            })
            .collect();
        let histograms = lock_unpoisoned(&self.inner.histograms)
            .iter()
            .map(|(name, cell)| cell.live.snapshot(name, cell.kind))
            .collect();
        TraceReport {
            root,
            counters,
            series,
            histograms,
        }
    }

    /// The root-span name this trace was created with.
    pub fn root_name(&self) -> &'static str {
        self.inner.root_name
    }
}

fn build_node(nodes: &[ArenaNode], idx: usize) -> SpanNode {
    let n = &nodes[idx];
    SpanNode {
        name: n.name.to_string(),
        calls: n.calls,
        total_ns: n.total_ns,
        children: n.children.iter().map(|&c| build_node(nodes, c)).collect(),
    }
}

/// Closes its span on drop, crediting elapsed wall-clock time and one
/// call to the span's node. Drop order is the close order; a panic
/// unwinding through the guard still closes the span.
pub struct SpanGuard {
    trace: Trace,
    node: usize,
    started: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.started.elapsed().as_nanos() as u64;
        let mut arena = lock_unpoisoned(&self.trace.inner.spans);
        let node = &mut arena.nodes[self.node];
        node.calls += 1;
        node.total_ns += elapsed;
        if let Some(pos) = arena.stack.iter().rposition(|&i| i == self.node) {
            arena.stack.truncate(pos);
        }
    }
}

/// A lock-free handle to one histogram cell; clone and hand to worker
/// threads for hot-loop recording (three relaxed atomics, no locks, no
/// allocation).
#[derive(Clone)]
pub struct HistogramHandle {
    cell: Arc<HistogramCell>,
}

impl HistogramHandle {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.cell.live.record(v);
    }

    /// The kind this histogram was registered with.
    pub fn kind(&self) -> HistKind {
        self.cell.kind
    }
}

/// A lock-free handle to one counter cell; clone and hand to worker
/// threads for hot-loop increments.
#[derive(Clone)]
pub struct CounterHandle {
    cell: Arc<CounterCell>,
}

impl CounterHandle {
    /// Add `delta` (saturating at `u64::MAX` only in theory; counters
    /// count records and bytes, which fit comfortably).
    pub fn add(&self, delta: u64) {
        self.cell.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise the counter to at least `value`.
    pub fn record_max(&self, value: u64) {
        self.cell.value.fetch_max(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

thread_local! {
    /// Installed traces, innermost last. A stack (not a slot) so a
    /// method-scoped trace can shadow a run-scoped one and restore it on
    /// drop.
    static INSTALLED: RefCell<Vec<Trace>> = const { RefCell::new(Vec::new()) };
}

/// Make `trace` the calling thread's current trace until the returned
/// guard drops. Installs nest: the innermost install wins, and dropping
/// it restores the previous trace.
#[must_use = "the trace is uninstalled when this guard drops; bind it with `let _t = ...`"]
pub fn install(trace: &Trace) -> InstallGuard {
    let depth = INSTALLED.with(|slot| {
        let mut stack = slot.borrow_mut();
        stack.push(trace.clone());
        stack.len()
    });
    InstallGuard {
        depth,
        _not_send: PhantomData,
    }
}

/// Uninstalls its trace on drop, restoring whatever was installed
/// before. Guards are thread-local and expected to drop in LIFO order;
/// an out-of-order drop truncates down to its own frame.
pub struct InstallGuard {
    depth: usize,
    _not_send: PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let depth = self.depth;
        INSTALLED.with(|slot| {
            let mut stack = slot.borrow_mut();
            if stack.len() >= depth {
                stack.truncate(depth - 1);
            }
        });
    }
}

/// The calling thread's innermost installed trace, if any.
pub fn current() -> Option<Trace> {
    INSTALLED.with(|slot| slot.borrow().last().cloned())
}

/// Open a span on the current thread's installed trace. A no-op (still
/// returning a guard to bind) when no trace is installed, so library
/// code can instrument unconditionally.
#[must_use = "a span measures the lifetime of this guard; bind it with `let _span = ...`"]
pub fn span(name: &'static str) -> ActiveSpan {
    ActiveSpan {
        _guard: current().map(|t| t.span(name)),
    }
}

/// The guard returned by the free [`span`] function: a real span guard
/// when a trace is installed, a no-op otherwise.
pub struct ActiveSpan {
    /// Held for its `Drop`, which closes the span.
    _guard: Option<SpanGuard>,
}

/// Add `delta` to a [`MergeRule::Add`] counter on the installed trace;
/// no-op without one.
pub fn add(name: &'static str, delta: u64) {
    if let Some(t) = current() {
        t.add(name, delta);
    }
}

/// Raise a [`MergeRule::Max`] counter on the installed trace; no-op
/// without one.
pub fn record_max(name: &'static str, value: u64) {
    if let Some(t) = current() {
        t.record_max(name, value);
    }
}

/// Append to a series on the installed trace; no-op without one.
pub fn push_series(name: &'static str, value: f64) {
    if let Some(t) = current() {
        t.push_series(name, value);
    }
}

/// Record a wall-clock duration (nanoseconds) into a
/// [`HistKind::Time`] histogram on the installed trace; no-op without
/// one.
pub fn record_time(name: &'static str, ns: u64) {
    if let Some(t) = current() {
        t.record_time(name, ns);
    }
}

/// Record a data quantity into a [`HistKind::Value`] histogram on the
/// installed trace; no-op without one.
pub fn record_value(name: &'static str, value: u64) {
    if let Some(t) = current() {
        t.record_value(name, value);
    }
}

/// Record a wire-frame size (bytes) into a [`HistKind::Traffic`]
/// histogram on the installed trace; no-op without one.
pub fn record_traffic(name: &'static str, bytes: u64) {
    if let Some(t) = current() {
        t.record_traffic(name, bytes);
    }
}

/// [`Trace::graft`] onto the installed trace, under the calling thread's
/// innermost open span; no-op without one.
pub fn graft(report: &TraceReport) {
    if let Some(t) = current() {
        t.graft(report);
    }
}
