//! The frozen side: [`TraceReport`] snapshots, their merge algebra, the
//! deterministic/timing split, and the `KvCodec` encoding that lets
//! traces ride inside shard reports.
//!
//! # Merge algebra
//!
//! Shard runs each produce a report; `--merge` must reassemble the trace
//! a single process would have produced. Every field therefore carries a
//! documented merge rule:
//!
//! * **Spans** merge structurally by name: same-name children unify,
//!   `calls` and `total_ns` add. Child order is the left operand's, with
//!   unseen names appended in the right operand's order.
//! * **Counters** merge by name under their [`MergeRule`]: `Add` sums
//!   (records, bytes, waves, spill runs), `Max` takes the maximum
//!   (residency peaks). The counter list stays sorted by name.
//! * **Series** merge by name via concatenation — the right operand's
//!   values append after the left's. Merge order is therefore part of
//!   the contract: callers merge in ablation order, which is also the
//!   order a single process runs the methods in.
//! * **Histograms** merge by name via bucket-wise addition (see
//!   [`HistogramSnapshot::merge`]) — associative and commutative with
//!   the empty histogram as identity, exactly like `Add` counters.
//!
//! # Deterministic vs timing
//!
//! Span `calls`, counters, series, and histogram *observation
//! counts* depend only on the input and the configuration — they are
//! byte-identical across same-seed runs and are CI-gated as such. Span
//! `total_ns` is wall clock, and so is the bucket occupancy of a
//! [`HistKind::Time`] histogram; both are quarantined (zeroed/emptied)
//! by [`TraceReport::quarantine_timings`] under `--deterministic`,
//! generalizing the old ad-hoc `fuse_ms = 0.0` rule.
//! [`HistKind::Value`] histograms record data quantities and keep their
//! full distribution through the quarantine.

use crate::histogram::{HistKind, HistogramSnapshot};
use kf_types::codec::reserve_for;
use kf_types::KvCodec;
use std::fmt::Write as _;

/// How a counter combines across shard runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeRule {
    /// Sum across runs (record counts, bytes, invocation counts).
    Add,
    /// Maximum across runs (residency peaks).
    Max,
}

impl MergeRule {
    /// Stable lowercase name, used in JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            MergeRule::Add => "add",
            MergeRule::Max => "max",
        }
    }
}

/// One aggregated span: every invocation of this phase name under the
/// same parent, with call count and total wall-clock time.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Phase name (e.g. `fuse`, `round`, `map`).
    pub name: String,
    /// Closed invocations aggregated into this node. Deterministic.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those invocations. Timing —
    /// zeroed by [`TraceReport::quarantine_timings`].
    pub total_ns: u64,
    /// Child phases, in first-opened order.
    pub children: Vec<SpanNode>,
}

/// Decoding rejects span trees deeper than this: real phase trees are a
/// handful of levels, and the cap keeps malformed checkpoint input from
/// recursing unboundedly.
pub const MAX_SPAN_DEPTH: usize = 64;

impl SpanNode {
    /// A leaf with zero calls and time.
    pub fn leaf(name: &str) -> SpanNode {
        SpanNode {
            name: name.to_owned(),
            calls: 0,
            total_ns: 0,
            children: Vec::new(),
        }
    }

    /// Merge `other` into `self`: add calls and time, unify same-name
    /// children recursively.
    pub fn merge(&mut self, other: &SpanNode) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        for oc in &other.children {
            match self.children.iter_mut().find(|c| c.name == oc.name) {
                Some(c) => c.merge(oc),
                None => self.children.push(oc.clone()),
            }
        }
    }

    /// The child with the given name, if present.
    pub fn child(&self, name: &str) -> Option<&SpanNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Time no child covers: `total_ns` less the children's, floored at
    /// zero (children that ran side by side can sum past their parent).
    fn self_ns(&self) -> u64 {
        let children: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(children)
    }

    fn zero_timings(&mut self) {
        self.total_ns = 0;
        for c in &mut self.children {
            c.zero_timings();
        }
    }

    fn decode_at(input: &mut &[u8], depth: usize) -> Option<SpanNode> {
        if depth > MAX_SPAN_DEPTH {
            return None;
        }
        let name = String::decode(input)?;
        let calls = u64::decode(input)?;
        let total_ns = u64::decode(input)?;
        let n = usize::decode(input)?;
        // Each child encodes to at least its length prefixes; reject
        // counts the remaining input cannot possibly hold.
        if n > input.len() {
            return None;
        }
        let mut children = Vec::with_capacity(reserve_for::<SpanNode>(n, input));
        for _ in 0..n {
            children.push(SpanNode::decode_at(input, depth + 1)?);
        }
        Some(SpanNode {
            name,
            calls,
            total_ns,
            children,
        })
    }
}

/// One counter with its merge rule. Deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Dotted counter name (e.g. `mr.map_output`).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
    /// How the value combines across shard runs.
    pub rule: MergeRule,
}

/// One named numeric series (e.g. per-round convergence deltas).
/// Deterministic data, not timing.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Dotted series name (e.g. `fuse.round_delta`).
    pub name: String,
    /// Values in push order; merge appends in merge order.
    pub values: Vec<f64>,
}

/// A frozen trace: the span tree plus counters, series and histograms
/// (each list sorted by name).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// The phase tree, rooted at the trace's root span.
    pub root: SpanNode,
    /// Counters sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Series sorted by name.
    pub series: Vec<SeriesSnapshot>,
    /// Histograms sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl TraceReport {
    /// An empty report with the given root-span name (one call, no time).
    pub fn empty(root_name: &str) -> TraceReport {
        TraceReport {
            root: SpanNode {
                calls: 1,
                ..SpanNode::leaf(root_name)
            },
            counters: Vec::new(),
            series: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Merge `other` into `self` under the documented merge algebra
    /// (spans unify, counters add/max, series concatenate). Root names
    /// must already agree — merging keeps `self`'s.
    pub fn merge(&mut self, other: &TraceReport) {
        self.root.merge(&other.root);
        self.merge_flat(other);
    }

    /// Graft `other` under `self.root` as (or into) a child named
    /// `child_name`, merging counters and series at top level. This is
    /// how per-method traces assemble into a whole-run trace: the
    /// method's root becomes a phase named after the method.
    pub fn absorb(&mut self, child_name: &str, other: &TraceReport) {
        match self.root.children.iter_mut().find(|c| c.name == child_name) {
            Some(c) => c.merge(&other.root),
            None => {
                let mut child = other.root.clone();
                child.name = child_name.to_owned();
                self.root.children.push(child);
            }
        }
        self.merge_flat(other);
    }

    fn merge_flat(&mut self, other: &TraceReport) {
        for oc in &other.counters {
            match self.counters.iter_mut().find(|c| c.name == oc.name) {
                Some(c) => match c.rule {
                    MergeRule::Add => c.value += oc.value,
                    MergeRule::Max => c.value = c.value.max(oc.value),
                },
                None => self.counters.push(oc.clone()),
            }
        }
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        for os in &other.series {
            match self.series.iter_mut().find(|s| s.name == os.name) {
                Some(s) => s.values.extend_from_slice(&os.values),
                None => self.series.push(os.clone()),
            }
        }
        self.series.sort_by(|a, b| a.name.cmp(&b.name));
        for oh in &other.histograms {
            match self.histograms.iter_mut().find(|h| h.name == oh.name) {
                Some(h) => h.merge(oh),
                None => self.histograms.push(oh.clone()),
            }
        }
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Zero every wall-clock field: span `total_ns` throughout the tree,
    /// the value distribution (buckets, sum) of every
    /// [`HistKind::Time`] histogram, and *all* of every
    /// [`HistKind::Traffic`] histogram — wire frame counts depend on
    /// heartbeat scheduling, so even their observation count is
    /// scheduling noise. Calls, counters, series, `Time`
    /// observation counts, and [`HistKind::Value`] histograms — the
    /// deterministic section — stay untouched. The `--deterministic`
    /// quarantine.
    pub fn quarantine_timings(&mut self) {
        self.root.zero_timings();
        for h in &mut self.histograms {
            match h.kind {
                HistKind::Time => h.clear_values(),
                HistKind::Traffic => {
                    h.count = 0;
                    h.clear_values();
                }
                HistKind::Value => {}
            }
        }
    }

    /// Preorder list of `(slash-joined path, total_ns)` for every span —
    /// the flat timing section of `trace.json`.
    pub fn flat_timings(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        fn walk(node: &SpanNode, prefix: &str, out: &mut Vec<(String, u64)>) {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix}/{}", node.name)
            };
            out.push((path.clone(), node.total_ns));
            for c in &node.children {
                walk(c, &path, out);
            }
        }
        walk(&self.root, "", &mut out);
        out
    }

    /// Human-readable phase table: the span tree with call counts and
    /// durations, then counters and series. Under every span that has
    /// children, a `(self)` row holds the span's time that no child
    /// covers (zero when children ran side by side and overlap).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{:<44} {:>8} {:>12}", "phase", "calls", "total");
        fn walk(node: &SpanNode, depth: usize, s: &mut String) {
            let label = format!("{}{}", "  ".repeat(depth), node.name);
            let _ = writeln!(
                s,
                "{label:<44} {:>8} {:>12}",
                node.calls,
                fmt_ns(node.total_ns)
            );
            for c in &node.children {
                walk(c, depth + 1, s);
            }
            if !node.children.is_empty() {
                let label = format!("{}(self)", "  ".repeat(depth + 1));
                let _ = writeln!(s, "{label:<44} {:>8} {:>12}", "", fmt_ns(node.self_ns()));
            }
        }
        walk(&self.root, 0, &mut s);
        if !self.counters.is_empty() {
            let _ = writeln!(s, "{:<44} {:>8} {:>12}", "counter", "rule", "value");
            for c in &self.counters {
                let _ = writeln!(s, "{:<44} {:>8} {:>12}", c.name, c.rule.name(), c.value);
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                s,
                "{:<34} {:>8} {:>10} {:>10} {:>10}",
                "histogram", "count", "p50", "p95", "p99"
            );
            for h in &self.histograms {
                let q = |q: f64| match h.kind {
                    HistKind::Time => fmt_ns(h.quantile(q)),
                    HistKind::Value | HistKind::Traffic => h.quantile(q).to_string(),
                };
                let _ = writeln!(
                    s,
                    "{:<34} {:>8} {:>10} {:>10} {:>10}",
                    h.name,
                    h.count,
                    q(0.5),
                    q(0.95),
                    q(0.99)
                );
            }
        }
        for series in &self.series {
            let values: Vec<String> = series.values.iter().map(|v| format!("{v:.4}")).collect();
            let _ = writeln!(s, "{:<44} [{}]", series.name, values.join(", "));
        }
        s
    }
}

/// Render nanoseconds at a human scale (`ns`, `µs`, `ms`, `s`).
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns} ns"),
        1_000..=999_999 => format!("{:.1} µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1} ms", ns as f64 / 1e6),
        _ => format!("{:.2} s", ns as f64 / 1e9),
    }
}

impl KvCodec for MergeRule {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            MergeRule::Add => 0,
            MergeRule::Max => 1,
        });
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(MergeRule::Add),
            1 => Some(MergeRule::Max),
            _ => None,
        }
    }
}

impl KvCodec for SpanNode {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.calls.encode(out);
        self.total_ns.encode(out);
        // Children encode exactly like `Vec<SpanNode>` (length prefix,
        // then items) but decode with an explicit depth guard.
        self.children.len().encode(out);
        for c in &self.children {
            c.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        SpanNode::decode_at(input, 0)
    }
}

impl KvCodec for CounterSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.value.encode(out);
        self.rule.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(CounterSnapshot {
            name: String::decode(input)?,
            value: u64::decode(input)?,
            rule: MergeRule::decode(input)?,
        })
    }
}

impl KvCodec for SeriesSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.values.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(SeriesSnapshot {
            name: String::decode(input)?,
            values: Vec::<f64>::decode(input)?,
        })
    }
}

impl KvCodec for TraceReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.root.encode(out);
        self.counters.encode(out);
        self.series.encode(out);
        self.histograms.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(TraceReport {
            root: SpanNode::decode(input)?,
            counters: Vec::<CounterSnapshot>::decode(input)?,
            series: Vec::<SeriesSnapshot>::decode(input)?,
            histograms: Vec::<HistogramSnapshot>::decode(input)?,
        })
    }
}
