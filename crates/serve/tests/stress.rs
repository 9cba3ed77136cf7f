//! Concurrent-reader stress tests: many threads hammer one shared
//! [`KbReader`] with an interleaved query mix and must get answers
//! identical to a single-threaded run — and the hot read path must not
//! allocate.
//!
//! Allocation accounting is per-thread (a counting `#[global_allocator]`
//! incrementing a `thread_local` counter), so the harness running other
//! tests on sibling threads cannot pollute the measurement.

use kf_serve::{FusedKb, KbBuildOptions, KbReader};
use kf_synth::{Corpus, SynthConfig};
use kf_types::{DataItem, EntityId, PredicateId, Triple, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // Never allocates: const-initialised Cell needs no lazy init.
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

/// The shared fixture: a tiny-scale KB under the default serving preset.
fn reader() -> KbReader {
    let corpus = Corpus::generate(&SynthConfig::tiny(), 42);
    let kb =
        FusedKb::build_from_corpus(&corpus, &KbBuildOptions::default(), "tiny").expect("build");
    KbReader::new(kb)
}

/// FNV-1a fold, the digest accumulator for query answers.
fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Run the interleaved query mix for one row and fold every answer
/// byte into a digest. Allocation-free.
fn query_row(reader: &KbReader, row: u32, h: u64) -> u64 {
    let mut h = h;
    let v = reader.view(row);
    let Triple {
        subject, predicate, ..
    } = v.triple;

    let looked = reader.lookup(&v.triple).expect("row is served");
    h = mix(h, looked.raw.to_bits());
    h = mix(h, looked.calibrated.to_bits());
    h = mix(h, looked.n_pages as u64);

    let belief = reader
        .belief(DataItem { subject, predicate })
        .expect("row has an item");
    h = mix(h, belief.len() as u64);
    for c in belief.iter() {
        h = mix(h, c.calibrated.to_bits());
    }
    h = mix(h, belief.best().raw.to_bits());

    let k = 1 + (row as usize % 7);
    let top = reader.top_k(predicate, k).expect("predicate is served");
    for t in top.iter() {
        h = mix(h, t.triple.subject.0 as u64);
        h = mix(h, t.calibrated.to_bits());
    }

    let d = reader.drilldown(&v.triple).expect("row drills down");
    for p in d.iter() {
        h = mix(h, p.id as u64);
        h = mix(h, p.accuracy.to_bits());
    }
    // Misses exercise the not-found paths without allocating either:
    // an unserved predicate, an item no probe chain holds, and a served
    // item with an object outside its run (ids this high are never
    // allocated).
    h = mix(h, reader.top_k(PredicateId(u32::MAX), 3).is_none() as u64);
    let no_item = DataItem {
        subject: EntityId(u32::MAX - row),
        predicate,
    };
    h = mix(h, reader.belief(no_item).is_none() as u64);
    let no_object = Triple {
        object: Value::Entity(EntityId(u32::MAX - row)),
        ..v.triple
    };
    h = mix(h, reader.lookup(&no_object).is_none() as u64);
    h = mix(h, reader.drilldown(&no_object).is_none() as u64);
    h
}

/// Digest a contiguous row range single-threadedly.
fn digest_range(reader: &KbReader, rows: std::ops::Range<u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for row in rows {
        h = query_row(reader, row, h);
    }
    h
}

/// The reader handle is shareable across threads by construction.
#[test]
fn reader_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<KbReader>();
    assert_send_sync::<kf_serve::TripleView>();
}

/// No query on the hot read path allocates: run the full interleaved
/// mix over every row and require zero allocations on this thread.
#[test]
fn hot_path_does_not_allocate() {
    let reader = reader();
    let n = reader.kb().n_triples() as u32;
    assert!(n > 100, "fixture KB too small to be meaningful");
    // Warm-up pass (faults in lazy pages; everything is already built).
    let warm = digest_range(&reader, 0..n);

    let before = allocs_on_this_thread();
    let hot = digest_range(&reader, 0..n);
    let after = allocs_on_this_thread();

    assert_eq!(hot, warm, "same queries must digest identically");
    assert_eq!(
        after - before,
        0,
        "hot read path allocated {} times over {n} rows",
        after - before
    );
}

/// The zero-allocation guarantee survives metrics: with a live
/// [`ServeMetrics`] recorder attached, every query also records latency,
/// outcome and result size — into preallocated per-thread shards, so the
/// hot path must still not allocate once.
#[test]
fn hot_path_does_not_allocate_with_metrics_enabled() {
    let metrics = std::sync::Arc::new(kf_serve::ServeMetrics::new());
    let reader = reader().with_metrics(metrics.clone());
    let n = reader.kb().n_triples() as u32;
    // Warm-up also pins this thread to its recorder shard.
    let warm = digest_range(&reader, 0..n);

    let before = allocs_on_this_thread();
    let hot = digest_range(&reader, 0..n);
    let after = allocs_on_this_thread();

    assert_eq!(hot, warm, "same queries must digest identically");
    assert_eq!(
        after - before,
        0,
        "metrics-enabled hot path allocated {} times over {n} rows",
        after - before
    );
    // And the recording actually happened: both passes landed.
    let snap = metrics.snapshot();
    // Per row: lookup, belief, top_k and drilldown, each once hitting
    // and once missing.
    assert_eq!(snap.total_queries(), 2 * 8 * n as u64);
}

/// 8 threads × disjoint row ranges, all on one shared reader: every
/// thread's digest equals the single-threaded digest of its range.
#[test]
fn concurrent_partitions_match_single_threaded() {
    let reader = reader();
    let n = reader.kb().n_triples() as u32;
    let threads = 8u32;
    let chunk = n.div_ceil(threads);
    let ranges: Vec<std::ops::Range<u32>> = (0..threads)
        .map(|t| (t * chunk).min(n)..((t + 1) * chunk).min(n))
        .collect();
    let sequential: Vec<u64> = ranges
        .iter()
        .map(|r| digest_range(&reader, r.clone()))
        .collect();

    let concurrent: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let reader = &reader;
                let r = r.clone();
                scope.spawn(move || digest_range(reader, r))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("joins"))
            .collect()
    });
    assert_eq!(concurrent, sequential);
}

/// 8 cloned handles over the *same* full workload, racing: every thread
/// sees the identical answer stream (the arena is immutable; clones
/// share it rather than copy it).
#[test]
fn racing_full_scans_agree() {
    let reader = reader();
    let n = reader.kb().n_triples() as u32;
    let expected = digest_range(&reader, 0..n);

    let digests: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let local = reader.clone();
                scope.spawn(move || digest_range(&local, 0..n))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("joins"))
            .collect()
    });
    for d in digests {
        assert_eq!(d, expected);
    }
}
