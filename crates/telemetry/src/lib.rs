//! # `kf-telemetry` — spans, counters & run traces for the fusion pipeline
//!
//! Dong et al. justify every scaling decision in §6 by knowing where the
//! time and bytes go per MapReduce stage. This crate is the
//! reproduction's measurement substrate: a hand-rolled (zero external
//! dependencies) tracing/metrics layer that the engine, the fuser, the
//! evaluator, and the persistence layer all emit into.
//!
//! Four pieces:
//!
//! * [`Trace`] — a run-scoped registry: a tree of timed spans (opened
//!   via RAII [`SpanGuard`]s, aggregated by name so a thousand waves
//!   make one compact `wave` node), thread-safe atomic counters with
//!   explicit [`MergeRule`]s, named numeric series, and log-bucketed
//!   histograms.
//! * [`LiveHistogram`] / [`HistogramSnapshot`] — HDR-style power-of-two
//!   sub-bucketed latency/size distributions over a fixed layout
//!   (quantile relative error ≤ `2^-SUB_BUCKET_BITS`): lock-free
//!   allocation-free recording, bucket-wise-add merging, and a
//!   deterministic-count / quarantined-value split keyed by
//!   [`HistKind`].
//! * a thread-local installation ([`install`]) with free functions
//!   ([`span`], [`add`], [`record_max`], [`push_series`],
//!   [`record_time`], [`record_value`], [`record_traffic`],
//!   [`graft`]) that are
//!   no-ops when no trace is installed — so library code instruments
//!   unconditionally and pays nothing in untraced runs.
//! * [`TraceReport`] — the frozen snapshot: mergeable across shard runs
//!   under documented rules, splittable into a *deterministic* section
//!   (calls, counters, series, histogram counts —
//!   byte-identical across same-seed runs) and a quarantined *timing*
//!   section ([`TraceReport::quarantine_timings`]), and
//!   `KvCodec`-encodable so traces ride inside shard reports.
//!
//! ```
//! use kf_telemetry::{install, span, add, Trace};
//!
//! let trace = Trace::new();
//! {
//!     let _t = install(&trace);
//!     let _fuse = span("fuse");
//!     {
//!         let _round = span("round");
//!         add("fuse.rounds", 1);
//!     }
//! }
//! let report = trace.snapshot();
//! let fuse = report.root.child("fuse").unwrap();
//! assert_eq!(fuse.calls, 1);
//! assert_eq!(fuse.child("round").unwrap().calls, 1);
//! assert_eq!(report.counters[0].value, 1);
//! ```

mod histogram;
mod report;
mod runtime;

pub use histogram::{
    bucket_bounds, bucket_index, HistBucket, HistKind, HistogramSnapshot, BUCKET_COUNT,
    SUB_BUCKET_BITS, SUB_BUCKET_COUNT,
};
pub use report::{
    fmt_ns, CounterSnapshot, MergeRule, SeriesSnapshot, SpanNode, TraceReport, MAX_SPAN_DEPTH,
};
pub use runtime::{
    add, current, graft, install, push_series, record_max, record_time, record_traffic,
    record_value, span, ActiveSpan, CounterHandle, HistogramHandle, InstallGuard, LiveHistogram,
    SpanGuard, Trace,
};

#[cfg(test)]
mod tests {
    use super::*;
    use kf_types::KvCodec;

    #[test]
    fn spans_nest_and_aggregate_by_name() {
        let t = Trace::new();
        for _ in 0..3 {
            let _wave = t.span("wave");
            let _map = t.span("map");
        }
        {
            let _wave = t.span("wave");
        }
        let report = t.snapshot();
        assert_eq!(report.root.children.len(), 1, "same-name spans aggregate");
        let wave = report.root.child("wave").unwrap();
        assert_eq!(wave.calls, 4);
        let map = wave.child("map").unwrap();
        assert_eq!(map.calls, 3, "map nested under wave, not under root");
        assert!(report.root.child("map").is_none());
    }

    #[test]
    fn sibling_spans_stay_siblings() {
        let t = Trace::new();
        {
            let _a = t.span("stage1");
        }
        {
            let _b = t.span("stage2");
        }
        let report = t.snapshot();
        let names: Vec<&str> = report
            .root
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, ["stage1", "stage2"]);
    }

    #[test]
    fn panicking_scope_still_closes_its_span() {
        let t = Trace::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
            panic!("boom");
        }));
        assert!(result.is_err());
        // Both spans closed during unwinding: a new span opens under the
        // root again, not under a dangling `inner`.
        {
            let _after = t.span("after");
        }
        let report = t.snapshot();
        let outer = report.root.child("outer").unwrap();
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.child("inner").unwrap().calls, 1);
        assert_eq!(report.root.child("after").unwrap().calls, 1);
        assert!(outer.child("after").is_none());
    }

    #[test]
    fn install_shadows_and_restores() {
        let outer = Trace::new();
        let inner = Trace::new();
        assert!(current().is_none());
        {
            let _o = install(&outer);
            add("hits", 1);
            {
                let _i = install(&inner);
                add("hits", 10);
            }
            add("hits", 1);
        }
        assert!(current().is_none());
        add("hits", 100); // no-op: nothing installed
        assert_eq!(outer.snapshot().counters[0].value, 2);
        assert_eq!(inner.snapshot().counters[0].value, 10);
    }

    #[test]
    fn counters_are_thread_safe_and_rules_stick() {
        let t = Trace::new();
        let adder = t.counter("n", MergeRule::Add);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = adder.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.add(1);
                    }
                });
            }
        });
        t.record_max("peak", 7);
        t.record_max("peak", 3);
        let report = t.snapshot();
        let n = report.counters.iter().find(|c| c.name == "n").unwrap();
        assert_eq!((n.value, n.rule), (4000, MergeRule::Add));
        let peak = report.counters.iter().find(|c| c.name == "peak").unwrap();
        assert_eq!((peak.value, peak.rule), (7, MergeRule::Max));
    }

    #[test]
    fn merge_follows_documented_rules() {
        let t1 = Trace::new();
        {
            let _s = t1.span("fuse");
        }
        t1.add("mr.map_output", 10);
        t1.record_max("mr.peak", 5);
        t1.push_series("delta", 0.5);
        let t2 = Trace::new();
        {
            let _s = t2.span("fuse");
            let _r = t2.span("round");
        }
        t2.add("mr.map_output", 7);
        t2.record_max("mr.peak", 9);
        t2.push_series("delta", 0.25);

        let mut merged = t1.snapshot();
        merged.merge(&t2.snapshot());
        assert_eq!(merged.root.calls, 2);
        let fuse = merged.root.child("fuse").unwrap();
        assert_eq!(fuse.calls, 2);
        assert_eq!(fuse.child("round").unwrap().calls, 1);
        let get = |name: &str| {
            merged
                .counters
                .iter()
                .find(|c| c.name == name)
                .unwrap()
                .value
        };
        assert_eq!(get("mr.map_output"), 17, "Add counters sum");
        assert_eq!(get("mr.peak"), 9, "Max counters take the maximum");
        assert_eq!(
            merged.series[0].values,
            [0.5, 0.25],
            "series concatenate in merge order"
        );
    }

    #[test]
    fn absorb_grafts_method_trace_under_named_child() {
        let method = Trace::new();
        {
            let _f = method.span("fuse");
        }
        method.add("fuse.rounds", 3);
        let mut run = TraceReport::empty("run");
        run.absorb("vote", &method.snapshot());
        run.absorb("vote", &method.snapshot());
        let vote = run.root.child("vote").unwrap();
        assert_eq!(vote.calls, 2);
        assert_eq!(vote.child("fuse").unwrap().calls, 2);
        assert_eq!(run.counters[0].value, 6);
    }

    #[test]
    fn graft_replays_a_report_under_the_open_span() {
        // Work recorded once, into a private trace...
        let record = |t: &Trace| {
            let _s = t.span("shuffle");
            t.add("mr.jobs", 1);
            t.record_max("mr.peak", 9);
            t.record_value("mr.wave.records", 64);
            t.record_time("mr.wave.map_ns", 1_500);
        };
        let private = Trace::with_root("group");
        record(&private);
        let recorded = private.snapshot();
        let mut replay = recorded.clone();
        replay.quarantine_timings();

        // ...then used twice: the first use is charged its wall-clock, the
        // second replays the deterministic section only.
        let host = Trace::new();
        {
            let _t = install(&host);
            let _fuse = span("fuse");
            graft(&recorded);
            graft(&replay);
        }
        let mut grafted = host.snapshot();
        let group = grafted.root.child("fuse").unwrap().child("group").unwrap();
        assert_eq!((group.calls, group.total_ns), (2, recorded.root.total_ns));
        assert_eq!(group.child("shuffle").unwrap().calls, 2);
        let maps = &grafted.histograms[0];
        assert_eq!(
            (maps.name.as_str(), maps.count, maps.sum),
            ("mr.wave.map_ns", 2, 1_500)
        );

        // Recording the same work live, twice, is indistinguishable in the
        // deterministic section.
        let live = Trace::new();
        {
            let _fuse = live.span("fuse");
            for _ in 0..2 {
                let _group = live.span("group");
                record(&live);
            }
        }
        let mut live = live.snapshot();
        live.quarantine_timings();
        grafted.quarantine_timings();
        assert_eq!(grafted, live);
    }

    #[test]
    fn quarantine_zeroes_timings_only() {
        let t = Trace::new();
        {
            let _s = t.span("work");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        t.add("bytes", 42);
        t.push_series("delta", 0.125);
        let mut report = t.snapshot();
        assert!(report.root.total_ns > 0);
        let before = report.clone();
        report.quarantine_timings();
        assert_eq!(report.root.total_ns, 0);
        assert_eq!(report.root.child("work").unwrap().total_ns, 0);
        assert_eq!(
            report.root.child("work").unwrap().calls,
            before.root.child("work").unwrap().calls
        );
        assert_eq!(report.counters, before.counters);
        assert_eq!(report.series, before.series);
    }

    #[test]
    fn codec_roundtrips_exactly() {
        let t = Trace::new();
        {
            let _a = t.span("fuse");
            let _b = t.span("round");
        }
        t.add("mr.map_output", 123);
        t.record_max("mr.peak", 99);
        t.push_series("fuse.round_delta", 0.0625);
        let report = t.snapshot();
        let mut buf = Vec::new();
        report.encode(&mut buf);
        let mut input = &buf[..];
        let back = TraceReport::decode(&mut input).unwrap();
        assert!(
            input.is_empty(),
            "decode consumed exactly what encode wrote"
        );
        assert_eq!(back, report);
    }

    #[test]
    fn codec_rejects_overdeep_and_oversized_trees() {
        // A chain deeper than MAX_SPAN_DEPTH must be rejected, not
        // recursed into.
        let mut node = SpanNode::leaf("deep");
        for _ in 0..(MAX_SPAN_DEPTH + 2) {
            let mut parent = SpanNode::leaf("deep");
            parent.children.push(node);
            node = parent;
        }
        let mut buf = Vec::new();
        node.encode(&mut buf);
        assert!(SpanNode::decode(&mut &buf[..]).is_none());

        // A huge child-count prefix with no bytes behind it must fail
        // fast instead of allocating.
        let mut buf = Vec::new();
        String::from("x").encode(&mut buf);
        0u64.encode(&mut buf);
        0u64.encode(&mut buf);
        u64::MAX.encode(&mut buf);
        assert!(SpanNode::decode(&mut &buf[..]).is_none());
    }

    #[test]
    fn bucket_layout_is_monotone_and_self_inverse() {
        // Exact buckets below the sub-bucket count, then log buckets.
        for v in 0..SUB_BUCKET_COUNT {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
        // Every bucket's bounds contain exactly the values that map to
        // it, edges included, and consecutive buckets tile the range.
        let mut prev_hi = None;
        for i in 0..BUCKET_COUNT {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi of bucket {i}");
            if let Some(p) = prev_hi {
                assert_eq!(lo, p + 1u64, "bucket {i} tiles after its predecessor");
            }
            prev_hi = Some(hi);
        }
        assert_eq!(prev_hi, Some(u64::MAX), "layout covers all of u64");
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    /// The satellite contract: histogram quantiles agree with exact
    /// pooled quantiles within one bucket's relative error
    /// (`≤ 2^-SUB_BUCKET_BITS`).
    #[test]
    fn quantiles_agree_with_pooled_sort_within_bucket_error() {
        // A deliberately lumpy latency-shaped sample: a tight body, a
        // heavy tail, and some exact small values.
        let mut values: Vec<u64> = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..10_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            values.push(match i % 10 {
                0 => x % 16,                    // exact buckets
                1..=7 => 800 + x % 2_000,       // body ~ 1 µs
                8 => 20_000 + x % 40_000,       // slow tail
                _ => 1_000_000 + x % 9_000_000, // rare outliers
            });
        }
        let mut h = HistogramSnapshot::empty("lat", HistKind::Time);
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let exact = sorted[((sorted.len() as f64 * q) as usize).min(sorted.len() - 1)];
            let approx = h.quantile(q);
            assert!(approx >= exact, "q={q}: {approx} < exact {exact}");
            assert!(
                approx - exact <= exact >> SUB_BUCKET_BITS,
                "q={q}: {approx} overshoots exact {exact} by more than 2^-{SUB_BUCKET_BITS}"
            );
        }
    }

    #[test]
    fn histogram_merge_is_bucketwise_add_and_quarantine_splits_kinds() {
        let t = Trace::new();
        t.record_time("mr.wave.map_ns", 1_500);
        t.record_time("mr.wave.map_ns", 90_000);
        t.record_value("mr.wave.records", 64);
        let mut a = t.snapshot();
        let b = a.clone();
        a.merge(&b);
        let get = |r: &TraceReport, name: &str| {
            r.histograms
                .iter()
                .find(|h| h.name == name)
                .unwrap()
                .clone()
        };
        assert_eq!(get(&a, "mr.wave.map_ns").count, 4);
        assert_eq!(get(&a, "mr.wave.map_ns").sum, 2 * 91_500);
        assert_eq!(get(&a, "mr.wave.records").buckets.len(), 1);
        assert_eq!(get(&a, "mr.wave.records").buckets[0].count, 2);

        // Quarantine: Time histograms keep their count but lose their
        // distribution; Value histograms keep everything.
        a.quarantine_timings();
        let time = get(&a, "mr.wave.map_ns");
        assert_eq!((time.count, time.sum), (4, 0));
        assert!(time.buckets.is_empty());
        let value = get(&a, "mr.wave.records");
        assert_eq!((value.count, value.sum), (2, 128));
        assert_eq!(value.buckets.len(), 1);
    }

    #[test]
    fn traffic_histograms_are_fully_quarantined() {
        let t = Trace::new();
        t.record_traffic("dist.rpc.sent_bytes", 1_024);
        t.record_traffic("dist.rpc.sent_bytes", 96);
        t.record_value("dist.tasks", 5);
        let mut report = t.snapshot();

        // Traffic histograms roundtrip through the codec like any other.
        let mut buf = Vec::new();
        report.histograms[0].encode(&mut buf);
        assert_eq!(
            HistogramSnapshot::decode(&mut &buf[..]).unwrap(),
            report.histograms[0]
        );
        assert_eq!(report.histograms[0].kind, HistKind::Traffic);
        assert_eq!(report.histograms[0].kind.name(), "traffic");

        // The quarantine clears count, sum and buckets — frame counts
        // depend on heartbeat scheduling, so nothing about a Traffic
        // histogram beyond its presence is deterministic.
        report.quarantine_timings();
        let traffic = &report.histograms[0];
        assert_eq!((traffic.count, traffic.sum), (0, 0));
        assert!(traffic.buckets.is_empty());
        let value = &report.histograms[1];
        assert_eq!((value.count, value.sum), (1, 5), "Value kind untouched");
    }

    #[test]
    fn live_histogram_matches_sequential_recording_across_threads() {
        let live = LiveHistogram::new();
        let mut reference = HistogramSnapshot::empty("h", HistKind::Value);
        for v in 0..4_000u64 {
            reference.record(v * 37 % 100_000);
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let live = &live;
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        live.record((t * 1_000 + i) * 37 % 100_000);
                    }
                });
            }
        });
        assert_eq!(live.snapshot("h", HistKind::Value), reference);
    }

    #[test]
    fn histogram_codec_rejects_noncanonical_buckets() {
        let mut h = HistogramSnapshot::empty("lat", HistKind::Time);
        for v in [3u64, 3, 77, 12_345] {
            h.record(v);
        }
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let back = HistogramSnapshot::decode(&mut &buf[..]).unwrap();
        assert_eq!(back, h);

        // Out-of-layout index, zero count, and non-ascending order are
        // all rejected.
        for bad in [
            vec![HistBucket {
                index: BUCKET_COUNT as u32,
                count: 1,
            }],
            vec![HistBucket { index: 3, count: 0 }],
            vec![
                HistBucket { index: 7, count: 1 },
                HistBucket { index: 7, count: 1 },
            ],
        ] {
            let mut h = h.clone();
            h.buckets = bad;
            let mut buf = Vec::new();
            h.encode(&mut buf);
            assert!(HistogramSnapshot::decode(&mut &buf[..]).is_none());
        }
    }

    #[test]
    fn flat_timings_walk_preorder_paths() {
        let t = Trace::with_root("run");
        {
            let _f = t.span("fuse");
            let _r = t.span("round");
        }
        let paths: Vec<String> = t
            .snapshot()
            .flat_timings()
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        assert_eq!(paths, ["run", "run/fuse", "run/fuse/round"]);
    }

    #[test]
    fn summary_prints_a_self_row_under_every_parent() {
        let node = |name: &str, total_ns: u64, children: Vec<SpanNode>| SpanNode {
            name: name.to_owned(),
            calls: 1,
            total_ns,
            children,
        };
        let mut report = TraceReport::empty("run");
        report.root = node(
            "run",
            10_000,
            vec![
                node("corpus", 7_000, vec![node("world", 2_000, Vec::new())]),
                // Side-by-side children may sum past their parent.
                node("presets", 1_000, vec![node("a", 900, Vec::new()); 2]),
            ],
        );
        let rows: Vec<(String, String)> = report
            .summary()
            .lines()
            .skip(1)
            .map(|l| {
                let fields: Vec<&str> = l[44..].split_whitespace().collect();
                (l[..44].trim_end().to_owned(), fields.join(" "))
            })
            .collect();
        let want = [
            ("run", "1 10.0 µs"),
            ("  corpus", "1 7.0 µs"),
            ("    world", "1 2.0 µs"),
            ("    (self)", "5.0 µs"),
            ("  presets", "1 1.0 µs"),
            ("    a", "1 900 ns"),
            ("    a", "1 900 ns"),
            ("    (self)", "0 ns"),
            ("  (self)", "2.0 µs"),
        ];
        let want: Vec<(String, String)> = want
            .iter()
            .map(|&(a, b)| (a.to_owned(), b.to_owned()))
            .collect();
        assert_eq!(rows, want);
    }
}
