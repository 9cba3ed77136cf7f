//! The scaling story: run the three-stage fusion pipeline (the paper's
//! Fig. 8 architecture) over the large corpus preset with explicit worker
//! counts and inspect the execution counters of its one MapReduce job,
//! the grouping pass that builds the claim graph — including a forced
//! spill-to-disk run proving the external shuffle reproduces the
//! in-memory output byte-for-byte under a bounded memory envelope.
//!
//! ```text
//! cargo run --release --example webscale_pipeline
//! # Force a much smaller grouped-residency envelope (CI uses this to
//! # exercise the disk path on every push):
//! KF_SPILL_THRESHOLD=4096 cargo run --release --example webscale_pipeline
//! ```

use kf::prelude::*;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let corpus = Corpus::generate(&SynthConfig::large(), 42);
    println!(
        "generated large corpus in {:.2}s: {} records, {} unique triples, {} items",
        t0.elapsed().as_secs_f64(),
        corpus.batch.len(),
        corpus.batch.unique_triples(),
        corpus.batch.unique_data_items(),
    );

    for workers in [1usize, 2, 4] {
        let config = FusionConfig::popaccu().with_workers(workers);
        let t = Instant::now();
        let output = Fuser::new(config).run(&corpus.batch, None);
        let secs = t.elapsed().as_secs_f64();
        println!(
            "\nworkers={workers}: fused in {secs:.2}s \
             ({:.0} records/s, {} rounds, converged={})",
            corpus.batch.len() as f64 / secs,
            output.outcome.rounds(),
            output.outcome.converged(),
        );
        println!(
            "  engine counters: map_in={} map_out={} reduce_keys={} reduce_out={} (fanout {:.2})",
            output.stats.map_input,
            output.stats.map_output,
            output.stats.reduce_keys,
            output.stats.reduce_output,
            output.stats.fanout(),
        );
    }

    // Chunked shuffle: bound the raw records resident in the shuffle to a
    // 64K-record envelope. Output is identical; `JobStats` shows the peak.
    let full = Fuser::new(FusionConfig::popaccu()).run(&corpus.batch, None);
    let chunked_cfg = FusionConfig {
        mr: MrConfig::default().with_chunk_records(1 << 16),
        ..FusionConfig::popaccu()
    };
    let chunked = Fuser::new(chunked_cfg).run(&corpus.batch, None);
    assert_eq!(full.scored.len(), chunked.scored.len());
    for (a, b) in full.scored.iter().zip(&chunked.scored) {
        assert_eq!(a.triple, b.triple);
        assert_eq!(a.probability, b.probability);
    }
    println!(
        "\nchunked shuffle (quota 64K): peak resident records {} -> {} ({:.1}x smaller), \
         output identical",
        full.stats.peak_resident_records,
        chunked.stats.peak_resident_records,
        full.stats.peak_resident_records as f64 / chunked.stats.peak_resident_records.max(1) as f64,
    );

    // External shuffle: additionally bound the *grouped* records resident
    // in the pending buffer. Past the threshold, the buffer is sorted and
    // written as one sorted run file (KvCodec-encoded), and the grouping
    // job reduces by k-way merging its runs — the claim graph, and so the
    // output, must still be byte-identical.
    // KF_SPILL_THRESHOLD overrides the envelope; CI sets it tiny so the
    // disk path is exercised on every push.
    let spill_threshold: usize = std::env::var("KF_SPILL_THRESHOLD")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1 << 18);
    let spilled_cfg = FusionConfig {
        // Waves must fit under the spill threshold for the envelope to be
        // exact; a quarter of it keeps the raw and grouped bounds aligned.
        mr: MrConfig::default()
            .with_chunk_records((spill_threshold / 4).max(1))
            .with_spill_threshold(spill_threshold),
        ..FusionConfig::popaccu()
    };
    let t = Instant::now();
    let spilled = Fuser::new(spilled_cfg).run(&corpus.batch, None);
    let spill_secs = t.elapsed().as_secs_f64();
    assert_eq!(full.scored.len(), spilled.scored.len());
    for (a, b) in full.scored.iter().zip(&spilled.scored) {
        assert_eq!(a.triple, b.triple);
        assert_eq!(a.probability, b.probability, "spill changed {:?}", a.triple);
    }
    assert!(
        spilled.stats.spilled_bytes > 0,
        "spill threshold {spill_threshold} never triggered — raise the corpus or lower it"
    );
    assert!(
        spilled.stats.spill_runs > 0,
        "spilled bytes without spill runs — run accounting is broken"
    );
    // The engine invariant: grouped residency never exceeds the threshold
    // OR the largest single wave, whichever is bigger — a wave can
    // overshoot only because a single input's emissions never split.
    let envelope = (spill_threshold as u64).max(spilled.stats.peak_resident_records);
    assert!(
        spilled.stats.peak_grouped_records <= envelope,
        "grouped peak {} above max(threshold {}, largest wave {})",
        spilled.stats.peak_grouped_records,
        spill_threshold,
        spilled.stats.peak_resident_records
    );
    println!(
        "\nexternal shuffle (spill threshold {}): peak grouped records {} -> {} \
         ({:.1}x smaller), {:.1} MiB spilled to disk, output identical, fused in {:.2}s",
        spill_threshold,
        full.stats.peak_grouped_records,
        spilled.stats.peak_grouped_records,
        full.stats.peak_grouped_records as f64 / spilled.stats.peak_grouped_records.max(1) as f64,
        spilled.stats.spilled_bytes as f64 / (1024.0 * 1024.0),
        spill_secs,
    );
    println!(
        "  spill accounting: {} sorted run files written",
        spilled.stats.spill_runs
    );

    // Reducer-side sampling (the paper's L) barely moves the output while
    // bounding per-key work — Fig. 14's claim. (`full` is the one-wave
    // run from above.)
    let sampled =
        Fuser::new(FusionConfig::popaccu().with_sample_limit(1_000)).run(&corpus.batch, None);
    let full_map = full.probability_map();
    let (mut moved, mut compared) = (0usize, 0usize);
    for s in &sampled.scored {
        if let (Some(p), Some(&q)) = (s.probability, full_map.get(&s.triple)) {
            compared += 1;
            moved += usize::from((p - q).abs() > 0.05);
        }
    }
    println!(
        "\nL=1000 vs L=1M: {:.3}% of {} triples moved by more than 0.05",
        100.0 * moved as f64 / compared.max(1) as f64,
        compared,
    );
}
