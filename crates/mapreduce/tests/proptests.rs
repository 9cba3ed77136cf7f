//! Property-based tests for the MapReduce engine: the parallel execution
//! must be observationally equivalent to a sequential group-by, for any
//! input and any worker/partition configuration.

use kf_mapreduce::{map_reduce_with_stats, Emitter, MrConfig, Reservoir};
use kf_types::hash::hash_one;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Sequential reference implementation of sum-by-key.
fn reference_sum(pairs: &[(u16, u32)]) -> BTreeMap<u16, u64> {
    let mut m = BTreeMap::new();
    for &(k, v) in pairs {
        *m.entry(k).or_insert(0u64) += v as u64;
    }
    m
}

/// Sequential reference group-by: each key's values in input order.
fn reference_groups(pairs: &[(u16, u32)]) -> BTreeMap<u16, Vec<u32>> {
    let mut m: BTreeMap<u16, Vec<u32>> = BTreeMap::new();
    for &(k, v) in pairs {
        m.entry(k).or_default().push(v);
    }
    m
}

/// Asserts the engine's output under `cfg` is a sequential group-by
/// exactly: each key's value list is its values in input order, and the
/// output runs partition by partition (the key's hash modulo the partition
/// count, the router `Emitter::emit` uses), keys sorted within each.
fn assert_matches_sequential_groupby(cfg: &MrConfig, pairs: &[(u16, u32)]) {
    let (out, _) = map_reduce_with_stats(
        cfg,
        pairs,
        |&(k, v), emit: &mut Emitter<u16, u32>| emit.emit(k, v),
        |k, vs| vec![(*k, vs)],
    );
    let mut expected: Vec<(u16, Vec<u32>)> = reference_groups(pairs).into_iter().collect();
    expected.sort_by_key(|(k, _)| (hash_one(k) % cfg.partitions as u64, *k));
    assert_eq!(out, expected);
}

proptest! {
    /// The engine's sums == sequential group-by sums, for any worker count
    /// and chunk quota.
    #[test]
    fn equivalent_to_sequential_groupby(
        pairs in prop::collection::vec((any::<u16>(), 0u32..1000), 0..300),
        workers in 1usize..9,
        partitions in 1usize..17,
        chunk_records in 0usize..65,
    ) {
        let cfg = MrConfig { workers, partitions, chunk_records, ..MrConfig::default() };
        let (out, _) = map_reduce_with_stats(
            &cfg,
            &pairs,
            |&(k, v), emit: &mut Emitter<u16, u32>| emit.emit(k, v),
            |k, vs| vec![(*k, vs.iter().map(|&v| v as u64).sum::<u64>())],
        );
        let got: BTreeMap<u16, u64> = out.into_iter().collect();
        prop_assert_eq!(got, reference_sum(&pairs));
    }

    /// No records are lost or duplicated through the shuffle.
    #[test]
    fn conservation_of_records(
        keys in prop::collection::vec(any::<u8>(), 1..500),
        workers in 1usize..9,
    ) {
        let cfg = MrConfig::with_workers(workers);
        let (out, _) = map_reduce_with_stats(
            &cfg,
            &keys,
            |&k, emit: &mut Emitter<u8, ()>| emit.emit(k, ()),
            |_k, vs| vec![vs.len()],
        );
        prop_assert_eq!(out.iter().sum::<usize>(), keys.len());
    }

    /// Output is identical across two runs with different worker counts.
    #[test]
    fn worker_count_does_not_change_output(
        pairs in prop::collection::vec((any::<u16>(), any::<u32>()), 0..200),
    ) {
        let run = |workers| {
            map_reduce_with_stats(
                &MrConfig::with_workers(workers),
                &pairs,
                |&(k, v), emit: &mut Emitter<u16, u32>| emit.emit(k, v),
                |k, vs| vec![(*k, vs.len(), vs.iter().map(|&v| v as u64).sum::<u64>())],
            )
            .0
        };
        let mut a = run(1);
        let mut b = run(7);
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// The chunked shuffle is a sequential group-by exactly, for any chunk
    /// quota — 0 being the one-wave (unchunked) job — not just as a
    /// multiset: see [`assert_matches_sequential_groupby`].
    #[test]
    fn chunked_shuffle_matches_unchunked_exactly(
        pairs in prop::collection::vec((any::<u16>(), any::<u32>()), 0..400),
        workers in 1usize..9,
        partitions in 1usize..17,
        chunk_records in 0usize..130,
    ) {
        let cfg = MrConfig { workers, partitions, chunk_records, ..MrConfig::default() };
        assert_matches_sequential_groupby(&cfg, &pairs);
    }

    /// The external shuffle (spill-to-disk runs, k-way merged) is the same
    /// exact sequential group-by as the in-memory job, for any chunk quota
    /// and spill threshold (0 = never spill).
    #[test]
    fn spilled_output_matches_in_memory_exactly(
        pairs in prop::collection::vec((any::<u16>(), any::<u32>()), 0..400),
        workers in 1usize..9,
        partitions in 1usize..17,
        chunk_records in 0usize..130,
        spill_threshold in 0usize..200,
    ) {
        let cfg = MrConfig {
            workers,
            partitions,
            chunk_records,
            spill_threshold_records: spill_threshold,
            ..MrConfig::default()
        };
        assert_matches_sequential_groupby(&cfg, &pairs);
    }

    /// Chunking never raises the raw-residency peak above one wave's, and
    /// the peak respects the quota when fan-out is 1.
    #[test]
    fn chunked_peak_is_bounded(
        n in 1usize..500,
        workers in 1usize..5,
        chunk_records in 1usize..100,
    ) {
        let inputs: Vec<u32> = (0..n as u32).collect();
        let (_, stats) = kf_mapreduce::map_reduce_with_stats(
            &MrConfig::with_workers(workers).with_chunk_records(chunk_records),
            &inputs,
            |&x, emit: &mut Emitter<u32, u32>| emit.emit(x % 7, x),
            |k, vs| vec![(*k, vs.len())],
        );
        prop_assert_eq!(stats.map_output, n as u64);
        prop_assert!(stats.peak_resident_records <= (chunk_records as u64).min(n as u64));
    }

    /// An integer-sum reducer over a spilled shuffle produces exactly the
    /// sequential sums, and the spilled run respects the grouped-residency
    /// threshold whenever a single wave fits under it.
    #[test]
    fn combined_and_spilled_sum_matches_in_memory(
        pairs in prop::collection::vec((any::<u8>(), 0u32..1000), 0..400),
        workers in 1usize..6,
        chunk_records in 1usize..50,
        spill_threshold in 1usize..150,
    ) {
        let mapper = |&(k, v): &(u8, u32), emit: &mut Emitter<u8, u64>| {
            emit.emit(k, v as u64);
        };
        let reducer = |k: &u8, vs: Vec<u64>| vec![(*k, vs.iter().sum::<u64>())];
        let cfg = MrConfig::with_workers(workers)
            .with_chunk_records(chunk_records)
            .with_spill_threshold(spill_threshold);
        let (sums, stats) = map_reduce_with_stats(&cfg, &pairs, mapper, reducer);
        let sums: BTreeMap<u16, u64> = sums.into_iter().map(|(k, s)| (k.into(), s)).collect();
        let wide: Vec<(u16, u32)> = pairs.iter().map(|&(k, v)| (k.into(), v)).collect();
        prop_assert_eq!(sums, reference_sum(&wide));
        if chunk_records <= spill_threshold {
            // A wave can overshoot the chunk quota ~2× during the ramp,
            // but the pre-merge spill keeps the grouped residency bounded
            // by threshold + one wave.
            prop_assert!(
                stats.peak_grouped_records <= (spill_threshold + 2 * chunk_records) as u64,
                "grouped peak {} above threshold {} + wave {}",
                stats.peak_grouped_records, spill_threshold, chunk_records
            );
        }
    }

    /// Reservoir sample size == min(capacity, n), and sampled items are a
    /// subset of the offered items.
    #[test]
    fn reservoir_invariants(n in 0usize..2000, cap in 1usize..200, seed in any::<u64>()) {
        let mut r = Reservoir::new(cap, seed);
        r.extend(0..n);
        prop_assert_eq!(r.len(), n.min(cap));
        prop_assert_eq!(r.seen(), n as u64);
        for &x in r.as_slice() {
            prop_assert!(x < n);
        }
    }
}
