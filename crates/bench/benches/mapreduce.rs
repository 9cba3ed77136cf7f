//! Timings for the MapReduce substrate itself: shuffle-and-sum over skewed
//! keys at several worker counts, unchunked vs chunked vs spilled
//! shuffles, and the memory-envelope proof on the large corpus —
//! `JobStats` must show the chunked peak resident (raw) records strictly
//! below the unchunked baseline, and the spilled peak *grouped* records
//! at or under the configured spill threshold with byte-identical output.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kf_core::Grouped;
use kf_mapreduce::{map_reduce, Emitter, MrConfig};
use kf_synth::{Corpus, SynthConfig};
use kf_types::Granularity;

fn shuffle_sum(c: &mut Criterion) {
    // Zipf-ish skew: key 0 receives ~90% of the records, like the paper's
    // hottest data items.
    let inputs: Vec<u64> = (0..200_000).collect();
    for workers in [1usize, 4] {
        let cfg = MrConfig::with_workers(workers);
        c.bench_function(&format!("mapreduce/sum200k/workers={workers}"), |b| {
            b.iter(|| {
                let out: Vec<(u64, u64)> = map_reduce(
                    &cfg,
                    black_box(&inputs),
                    |&x, emit: &mut Emitter<u64, u64>| {
                        let key = if x % 10 == 0 { x % 512 } else { 0 };
                        emit.emit(key, x);
                    },
                    |k, vs| vec![(*k, vs.iter().sum())],
                );
                black_box(out)
            })
        });
    }
}

/// The same shuffle with the raw-record residency bounded: time the cost of
/// chunking at several quotas against the unchunked baseline (quota 0).
fn chunked_shuffle(c: &mut Criterion) {
    let inputs: Vec<u64> = (0..200_000).collect();
    for chunk in [0usize, 16_384, 65_536] {
        let cfg = MrConfig::with_workers(4).with_chunk_records(chunk);
        let tag = if chunk == 0 {
            "unchunked".to_string()
        } else {
            format!("chunk={chunk}")
        };
        c.bench_function(&format!("mapreduce/sum200k/{tag}"), |b| {
            b.iter(|| {
                let out: Vec<(u64, u64)> = map_reduce(
                    &cfg,
                    black_box(&inputs),
                    |&x, emit: &mut Emitter<u64, u64>| {
                        let key = if x % 10 == 0 { x % 512 } else { 0 };
                        emit.emit(key, x);
                    },
                    |k, vs| vec![(*k, vs.iter().sum())],
                );
                black_box(out)
            })
        });
    }
}

/// The same shuffle with the external path forced: spill grouped state to
/// disk at a threshold well under the shuffle volume, to time the cost of
/// run-file I/O and k-way merging against the in-memory paths.
fn spilled_shuffle(c: &mut Criterion) {
    let inputs: Vec<u64> = (0..200_000).collect();
    let cfg = MrConfig::with_workers(4)
        .with_chunk_records(16_384)
        .with_spill_threshold(65_536);
    c.bench_function("mapreduce/sum200k/spill=65536", |b| {
        b.iter(|| {
            let out: Vec<(u64, u64)> = map_reduce(
                &cfg,
                black_box(&inputs),
                |&x, emit: &mut Emitter<u64, u64>| {
                    let key = if x % 10 == 0 { x % 512 } else { 0 };
                    emit.emit(key, x);
                },
                |k, vs| vec![(*k, vs.iter().sum())],
            );
            black_box(out)
        })
    });
}

/// Memory-envelope gate on the large corpus: group it unchunked, chunked
/// and spilled once each and report the `JobStats` residency peaks. The
/// chunked peak (raw records) must come in below the unchunked baseline,
/// and the spilled peak (grouped records) must hold at or under the
/// configured spill threshold with byte-identical output — this is the
/// bound that lets `SynthConfig::large()`-×100 corpora fit.
fn large_corpus_peak_records(c: &mut Criterion) {
    let corpus = Corpus::generate(&SynthConfig::large(), 42);
    let records = &corpus.batch.records;
    let granularity = Granularity::ExtractorSitePredicatePattern;

    let (baseline, unchunked) =
        Grouped::build_with_stats(records, granularity, &MrConfig::default());
    let quota = 1 << 16;
    let chunked_cfg = MrConfig::default().with_chunk_records(quota);
    let (_, chunked) = Grouped::build_with_stats(records, granularity, &chunked_cfg);
    assert_eq!(
        unchunked.peak_resident_records, unchunked.map_output,
        "unchunked shuffle must materialise the whole map output"
    );
    assert_eq!(
        unchunked.peak_grouped_records, unchunked.map_output,
        "without spilling, every grouped record is resident at reduce time"
    );
    assert!(
        chunked.peak_resident_records < unchunked.peak_resident_records,
        "chunked peak {} is not below the unchunked baseline {}",
        chunked.peak_resident_records,
        unchunked.peak_resident_records
    );

    // External shuffle: grouped residency capped at 4× the wave quota.
    // Every wave (≤ ~64K records) fits under the threshold, so the
    // pre-merge spill keeps the grouped peak at or under it — the
    // acceptance bound for this PR.
    let spill_threshold = (quota * 4) as u64;
    let spilled_cfg = chunked_cfg.with_spill_threshold(spill_threshold as usize);
    let (spilled_build, spilled) = Grouped::build_with_stats(records, granularity, &spilled_cfg);
    assert_eq!(
        baseline, spilled_build,
        "spilled grouping must be byte-identical to the in-memory build"
    );
    assert!(
        spilled.spilled_bytes > 0,
        "the spill threshold {} did not trigger on {} grouped records",
        spill_threshold,
        unchunked.map_output
    );
    assert!(
        spilled.peak_grouped_records <= spill_threshold,
        "spilled grouped peak {} above the configured threshold {}",
        spilled.peak_grouped_records,
        spill_threshold
    );
    eprintln!(
        "large corpus ({} records): peak resident records unchunked={} chunked(quota={})={} \
         ({:.1}x reduction); peak grouped records unspilled={} spilled(threshold={})={} \
         ({:.1}x reduction, {:.1} MiB written)",
        records.len(),
        unchunked.peak_resident_records,
        quota,
        chunked.peak_resident_records,
        unchunked.peak_resident_records as f64 / chunked.peak_resident_records.max(1) as f64,
        unchunked.peak_grouped_records,
        spill_threshold,
        spilled.peak_grouped_records,
        unchunked.peak_grouped_records as f64 / spilled.peak_grouped_records.max(1) as f64,
        spilled.spilled_bytes as f64 / (1024.0 * 1024.0),
    );

    c.bench_function("group/large/espp/unchunked", |b| {
        b.iter(|| {
            black_box(Grouped::build(
                black_box(records),
                granularity,
                &MrConfig::default(),
            ))
        })
    });
    c.bench_function("group/large/espp/chunked64k", |b| {
        b.iter(|| {
            black_box(Grouped::build(
                black_box(records),
                granularity,
                &chunked_cfg,
            ))
        })
    });
    c.bench_function("group/large/espp/spilled256k", |b| {
        b.iter(|| {
            black_box(Grouped::build(
                black_box(records),
                granularity,
                &spilled_cfg,
            ))
        })
    });
}

/// Memory-envelope gate for the diagnosis pass: a standalone
/// `SupportIndex::build` (the per-extractor attribution behind the Fig. 17
/// taxonomy) runs the claims job over the whole batch, so it must honour
/// the same external shuffle bounds as the fusion pipeline — spilled
/// output identical to the in-memory build with the grouped peak at or
/// under the threshold.
fn diagnose_support_envelope(c: &mut Criterion) {
    use kf_diagnose::SupportIndex;

    let corpus = Corpus::generate(&SynthConfig::large(), 42);
    let records = &corpus.batch.records;

    let (in_memory, base) = SupportIndex::build(records, &MrConfig::default());
    let quota = 1 << 16;
    let spill_threshold = (quota * 4) as u64;
    let spilled_cfg = MrConfig::default()
        .with_chunk_records(quota)
        .with_spill_threshold(spill_threshold as usize);
    let (spilled_index, spilled) = SupportIndex::build(records, &spilled_cfg);
    let sample = corpus.batch.records[0].triple;
    assert_eq!(
        in_memory.get(&sample),
        spilled_index.get(&sample),
        "spilled support profiles must match the in-memory build"
    );
    assert_eq!(in_memory.len(), spilled_index.len());
    assert!(
        spilled.spilled_bytes > 0,
        "the {spill_threshold}-record threshold did not trigger on {} records",
        records.len()
    );
    assert!(
        spilled.peak_grouped_records <= spill_threshold,
        "diagnose support job grouped peak {} above the {} threshold",
        spilled.peak_grouped_records,
        spill_threshold
    );
    eprintln!(
        "diagnose support job (large corpus, {} records): peak grouped records \
         in-memory={} spilled(threshold={})={} ({:.1}x reduction, {:.1} MiB written)",
        records.len(),
        base.peak_grouped_records,
        spill_threshold,
        spilled.peak_grouped_records,
        base.peak_grouped_records as f64 / spilled.peak_grouped_records.max(1) as f64,
        spilled.spilled_bytes as f64 / (1024.0 * 1024.0),
    );

    c.bench_function("diagnose/support/large/in_memory", |b| {
        b.iter(|| {
            black_box(SupportIndex::build(
                black_box(records),
                &MrConfig::default(),
            ))
        })
    });
    c.bench_function("diagnose/support/large/spilled256k", |b| {
        b.iter(|| black_box(SupportIndex::build(black_box(records), &spilled_cfg)))
    });
}

criterion_group!(
    benches,
    shuffle_sum,
    chunked_shuffle,
    spilled_shuffle,
    large_corpus_peak_records,
    diagnose_support_envelope
);
criterion_main!(benches);
