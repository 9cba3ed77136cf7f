//! Tests for the live serving metrics layer: sharded recording must be
//! indistinguishable from sequential recording (the merge algebra at
//! work), reader queries must land in the right families with the right
//! result sizes, and the exposition formats must keep their pinned
//! shapes.

use kf_serve::{
    FusedKb, KbBuildOptions, KbReader, MetricsSnapshot, QueryKind, ServeMetrics, SnapshotRing,
};
use kf_synth::{Corpus, SynthConfig};
use kf_types::{DataItem, EntityId, PredicateId, Triple, Value};
use std::sync::Arc;

fn tiny_reader() -> KbReader {
    let corpus = Corpus::generate(&SynthConfig::tiny(), 42);
    let kb =
        FusedKb::build_from_corpus(&corpus, &KbBuildOptions::default(), "tiny").expect("builds");
    KbReader::new(kb)
}

/// A deterministic workload of direct recordings: kind, latency,
/// hit, result size — valued so every family and both outcomes appear.
fn workload(n: usize) -> Vec<(QueryKind, u64, bool, u64)> {
    (0..n as u64)
        .map(|i| {
            let kind = QueryKind::ALL[(i % 4) as usize];
            // Latencies spread across octaves; every 7th query misses.
            let ns = 50 + (i % 13) * 1_000 + (i % 3) * 100_000;
            let hit = i % 7 != 0;
            (kind, ns, hit, i % 9)
        })
        .collect()
}

fn replay(metrics: &ServeMetrics, tuples: &[(QueryKind, u64, bool, u64)]) {
    for &(kind, ns, hit, size) in tuples {
        metrics.record(kind, ns, hit, size);
    }
}

#[test]
fn eight_thread_sharded_recording_equals_sequential_replay() {
    // The race test the sharding contract demands: 8 threads record
    // disjoint slices of one workload concurrently; the aggregate must
    // equal a single-threaded replay of the whole workload — bucket
    // counts, sums, hit/miss tallies, everything. (Latencies here are
    // explicit values, not wall clock, so the comparison is exact.)
    let tuples = workload(8_000);
    let concurrent = ServeMetrics::new();
    std::thread::scope(|scope| {
        for chunk in tuples.chunks(1_000) {
            let concurrent = &concurrent;
            scope.spawn(move || replay(concurrent, chunk));
        }
    });
    let sequential = ServeMetrics::new();
    replay(&sequential, &tuples);
    assert_eq!(concurrent.snapshot(), sequential.snapshot());
}

#[test]
fn reader_queries_land_in_their_families() {
    let metrics = Arc::new(ServeMetrics::new());
    let reader = tiny_reader().with_metrics(metrics.clone());
    let v = reader.view(0);
    let item = DataItem {
        subject: v.triple.subject,
        predicate: v.triple.predicate,
    };

    let belief_len = reader.belief(item).expect("served row has a belief").len();
    let top_len = reader
        .top_k(v.triple.predicate, 7)
        .expect("pred served")
        .len();
    assert!(reader.lookup(&v.triple).is_some());
    let drill_len = reader.drilldown(&v.triple).expect("row drills").len();
    // And one guaranteed miss per family that can miss.
    let absent = Triple {
        subject: EntityId(u32::MAX),
        predicate: PredicateId(u32::MAX),
        object: Value::Entity(EntityId(u32::MAX)),
    };
    assert!(reader.lookup(&absent).is_none());
    assert!(reader
        .belief(DataItem {
            subject: EntityId(u32::MAX),
            predicate: PredicateId(u32::MAX),
        })
        .is_none());
    assert!(reader.top_k(PredicateId(u32::MAX), 3).is_none());
    assert!(reader.drilldown(&absent).is_none());

    let snap = metrics.snapshot();
    assert_eq!(snap.total_queries(), 8);
    assert_eq!(snap.errors, 0);
    for k in &snap.kinds {
        assert_eq!(k.hits, 1, "{} hits", k.kind.name());
        assert_eq!(k.misses, 1, "{} misses", k.kind.name());
        // Latency observed for hit AND miss; result size for the hit only.
        assert_eq!(k.latency.count, 2);
        assert_eq!(k.result_size.count, 1);
        assert!(k.latency.sum > 0, "clock advanced");
        let expected_size = match k.kind {
            QueryKind::Lookup => 1,
            QueryKind::Belief => belief_len as u64,
            QueryKind::TopK => top_len as u64,
            QueryKind::Drilldown => drill_len as u64,
        };
        assert_eq!(k.result_size.sum, expected_size, "{}", k.kind.name());
    }
}

#[test]
fn snapshot_delta_isolates_the_window() {
    let metrics = ServeMetrics::new();
    let tuples = workload(500);
    replay(&metrics, &tuples[..200]);
    let first = metrics.snapshot();
    replay(&metrics, &tuples[200..]);
    let second = metrics.snapshot();

    // The window equals a fresh recorder fed only the in-between slice.
    let window = second.delta(&first);
    let fresh = ServeMetrics::new();
    replay(&fresh, &tuples[200..]);
    assert_eq!(window, fresh.snapshot());
    // And delta against an empty baseline is the identity.
    let empty = ServeMetrics::new().snapshot();
    assert_eq!(second.delta(&empty), second);
}

#[test]
fn exposition_text_has_the_pinned_shape() {
    let metrics = ServeMetrics::new();
    // Two lookup hits of size 1 at known latencies, one belief miss.
    metrics.record(QueryKind::Lookup, 100, true, 1);
    metrics.record(QueryKind::Lookup, 200, true, 1);
    metrics.record(QueryKind::Belief, 300, false, 0);
    metrics.record_error();

    let text = metrics.snapshot().render_text();
    for expected in [
        "# TYPE kf_serve_queries_total counter",
        "kf_serve_queries_total{kind=\"lookup\",outcome=\"hit\"} 2",
        "kf_serve_queries_total{kind=\"lookup\",outcome=\"miss\"} 0",
        "kf_serve_queries_total{kind=\"belief\",outcome=\"miss\"} 1",
        "kf_serve_errors_total 1",
        "# TYPE kf_serve_latency histogram",
        "kf_serve_latency_bucket{kind=\"lookup\",le=\"+Inf\"} 2",
        "kf_serve_latency_sum{kind=\"lookup\"} 300",
        "kf_serve_latency_count{kind=\"lookup\"} 2",
        "# TYPE kf_serve_result_size histogram",
        // Size-1 results land in exact bucket 1: cumulative count 2 at le=1.
        "kf_serve_result_size_bucket{kind=\"lookup\",le=\"1\"} 2",
        "kf_serve_result_size_sum{kind=\"lookup\"} 2",
    ] {
        assert!(text.contains(expected), "missing `{expected}` in:\n{text}");
    }
    // Cumulative le buckets: each line's value never decreases per family.
    let mut last = 0u64;
    for line in text
        .lines()
        .filter(|l| l.starts_with("kf_serve_latency_bucket{kind=\"lookup\""))
    {
        let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(v >= last, "non-cumulative bucket line: {line}");
        last = v;
    }
}

#[test]
fn json_snapshot_carries_quantiles_and_counts() {
    let metrics = ServeMetrics::new();
    for _ in 0..90 {
        metrics.record(QueryKind::TopK, 1_000, true, 8);
    }
    for _ in 0..10 {
        metrics.record(QueryKind::TopK, 1_000_000, true, 8);
    }
    let snap = metrics.snapshot();
    let json = snap.to_json().to_string_compact();
    assert!(json.contains("\"total_queries\":100"), "{json}");
    assert!(json.contains("\"kind\":\"top_k\""), "{json}");
    assert!(json.contains("\"errors\":0"), "{json}");

    let top_k = snap
        .kinds
        .iter()
        .find(|k| k.kind == QueryKind::TopK)
        .unwrap();
    // p50 sits in the 1µs bucket, p99 in the 1ms one: within the
    // layout's 2^-5 relative error of the exact values.
    let p50 = top_k.latency.quantile(0.50);
    let p99 = top_k.latency.quantile(0.99);
    assert!((1_000..=1_000 + (1_000 >> 5)).contains(&p50), "p50={p50}");
    assert!(
        (1_000_000..=1_000_000 + (1_000_000 >> 5)).contains(&p99),
        "p99={p99}"
    );
}

#[test]
fn pooled_latency_merges_every_kind() {
    let metrics = ServeMetrics::new();
    metrics.record(QueryKind::Lookup, 100, true, 1);
    metrics.record(QueryKind::Belief, 100, true, 3);
    metrics.record(QueryKind::Drilldown, 100, false, 0);
    let pooled = metrics.snapshot().pooled_latency();
    assert_eq!(pooled.count, 3);
    assert_eq!(pooled.sum, 300);
}

#[test]
fn snapshot_ring_keeps_recent_windows() {
    let metrics = ServeMetrics::new();
    let ring = SnapshotRing::new(3);
    assert!(ring.is_empty());
    assert!(ring.latest().is_none());
    assert!(ring.last_window().is_none());

    ring.push(metrics.snapshot());
    assert!(ring.last_window().is_none(), "one poll has no window");

    metrics.record(QueryKind::Lookup, 500, true, 1);
    ring.push(metrics.snapshot());
    let window = ring.last_window().expect("two polls");
    assert_eq!(window.total_queries(), 1);

    // Push past capacity: the ring holds the newest three, and the
    // window still reflects only the latest pair.
    for i in 0..5 {
        metrics.record(QueryKind::TopK, 500, true, i);
        ring.push(metrics.snapshot());
    }
    assert_eq!(ring.len(), 3);
    assert_eq!(ring.last_window().expect("full ring").total_queries(), 1);
    assert_eq!(
        ring.latest().expect("non-empty").total_queries(),
        metrics.snapshot().total_queries()
    );
}

#[test]
fn empty_snapshot_renders_and_serializes() {
    let snap: MetricsSnapshot = ServeMetrics::new().snapshot();
    assert_eq!(snap.total_queries(), 0);
    let text = snap.render_text();
    assert!(text.contains("kf_serve_queries_total{kind=\"lookup\",outcome=\"hit\"} 0"));
    assert!(text.contains("kf_serve_latency_count{kind=\"drilldown\"} 0"));
    let json = snap.to_json().to_string_compact();
    assert!(json.contains("\"total_queries\":0"), "{json}");
    assert_eq!(snap.pooled_latency().quantile(0.99), 0);
}

/// A REPL line the evaluator rejects is a serving-layer error on the
/// reader's attached recorder; the `metrics` command then shows it.
#[test]
fn rejected_repl_lines_count_as_errors() {
    let metrics = Arc::new(ServeMetrics::new());
    let reader = tiny_reader().with_metrics(metrics.clone());
    let mut out = Vec::new();
    kf_serve::run_repl(&reader, &b"bogus\nmetrics\n"[..], &mut out, false).expect("repl runs");
    let out = String::from_utf8(out).expect("utf-8 output");
    assert!(out.starts_with("error: unknown command `bogus`"), "{out}");
    assert!(out.lines().any(|l| l == "kf_serve_errors_total 1"), "{out}");
    assert_eq!(metrics.snapshot().errors, 1);
}
