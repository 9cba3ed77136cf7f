//! Layer probes of the traced run: calls into one crate's public functions
//! that the workload phases cannot separate from outside (grouping vs.
//! rounds, the shuffle engine on its own, codecs, telemetry's own cost).
//! Every probe runs on the workload's corpus.

use crate::fixtures::Scratch;
use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::timed;
use kf_core::{Fuser, Grouped};
use kf_eval::{EvalReport, Preset};
use kf_mapreduce::{map_reduce_with_stats, Emitter, MrConfig};
use kf_synth::Corpus;
use kf_types::checkpoint::{self, ArtifactKind};
use kf_types::wire::{self, WireMsg};
use kf_types::{Extraction, Granularity};

/// Median seconds of `repeats` calls.
fn median_secs<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..repeats).map(|_| timed(&mut f).1).collect();
    median(&samples)
}

/// `synth.*` and `types.*`: checkpoint save/load, encode/decode, and a
/// `TaskDone` frame round trip over an in-memory buffer. Returns failed
/// checks (a checkpoint that does not decode back to the same corpus).
pub fn codecs(corpus: &Corpus, shard: &EvalReport, scratch: &Scratch, out: &mut Metrics) -> u64 {
    let path = scratch.file("corpus.kfc");
    let ((), save_s) = timed(|| corpus.save(&path).expect("corpus saves into scratch"));
    let (loaded, load_s) = timed(|| Corpus::load(&path).expect("saved corpus loads"));
    out.set("synth.save_s", save_s);
    out.set("synth.load_s", load_s);
    let file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    out.set("synth.checkpoint_bytes", file_bytes as f64);

    let (bytes, encode_s) = timed(|| checkpoint::encode(ArtifactKind::Corpus, corpus));
    let (decoded, decode_s) = timed(|| {
        checkpoint::decode::<Corpus>(ArtifactKind::Corpus, &bytes).expect("encoded corpus decodes")
    });
    out.set("types.corpus_encode_s", encode_s);
    out.set("types.corpus_decode_s", decode_s);
    let failed = u64::from(decoded != *corpus)
        + u64::from(loaded != *corpus)
        + u64::from(file_bytes != bytes.len() as u64);

    let msg = WireMsg::TaskDone {
        task_id: 3,
        report: checkpoint::encode(ArtifactKind::Report, shard),
    };
    const ROUND_TRIPS: usize = 200;
    let mut buf = Vec::new();
    let ((), wire_s) = timed(|| {
        for _ in 0..ROUND_TRIPS {
            buf.clear();
            wire::write_frame(&mut buf, &msg).expect("frame writes to memory");
            let (back, _) = wire::read_frame(&mut buf.as_slice()).expect("frame reads back");
            std::hint::black_box(back);
        }
    });
    out.set("types.wire_roundtrip_us", wire_s * 1e6 / ROUND_TRIPS as f64);
    failed
}

/// `mapreduce.*`: a fixed probe job — count extractions per data item —
/// in memory and under the external-shuffle configuration. Returns failed
/// checks (outputs differ, or the spill run did not spill).
pub fn shuffle(corpus: &Corpus, mem: &MrConfig, spill: &MrConfig, out: &mut Metrics) -> u64 {
    let job = |cfg: &MrConfig| {
        map_reduce_with_stats(
            cfg,
            &corpus.batch.records,
            |e: &Extraction, emit: &mut Emitter<u64, u32>| {
                emit.emit(e.triple.data_item().encode(), 1)
            },
            |item: &u64, ones: Vec<u32>| vec![(*item, ones.len() as u32)],
        )
    };
    let ((mut counts_mem, _), mem_s) = timed(|| job(mem));
    let ((mut counts_spill, stats), spill_s) = timed(|| job(spill));
    out.set("mapreduce.job_mem_s", mem_s);
    out.set("mapreduce.job_spill_s", spill_s);
    out.set("mapreduce.spill_slowdown_ratio", spill_s / mem_s);
    out.set("mapreduce.job_map_output", stats.map_output as f64);
    out.set("mapreduce.job_spilled_bytes", stats.spilled_bytes as f64);
    out.set("mapreduce.job_spill_runs", stats.spill_runs as f64);
    out.set(
        "mapreduce.job_peak_grouped_records",
        stats.peak_grouped_records as f64,
    );
    // Partition counts differ between the two configurations, so compare
    // as sets.
    counts_mem.sort_unstable();
    counts_spill.sort_unstable();
    u64::from(counts_mem != counts_spill)
        + u64::from(stats.spilled_bytes == 0)
        + u64::from(counts_mem.len() != corpus.batch.unique_data_items())
}

/// `core.group_*`: the grouping pass alone at the two granularities the
/// presets use. Returns (coarse, fine) seconds.
pub fn grouping(corpus: &Corpus, mr: &MrConfig, out: &mut Metrics) -> (f64, f64) {
    let group = |g: Granularity| {
        median_secs(2, || {
            std::hint::black_box(Grouped::build(&corpus.batch.records, g, mr).n_triples())
        })
    };
    let coarse = group(Preset::PopAccu.config().granularity);
    let fine = group(Preset::PopAccuPlus.config().granularity);
    out.set("core.group_coarse_s", coarse);
    out.set("core.group_fine_s", fine);
    (coarse, fine)
}

/// `eval.*` beyond `evaluate`: JSON rendering, the binary shard report's
/// save/load, and the k-way merge of one-method shards. Returns failed
/// checks (the merge does not reassemble the report).
pub fn reports(report: &EvalReport, scratch: &Scratch, out: &mut Metrics) -> u64 {
    let (json, to_json_s) = timed(|| report.to_json_string());
    out.set("eval.to_json_s", to_json_s);
    let path = scratch.file("report.bin");
    let ((), save_s) = timed(|| report.save(&path).expect("report saves into scratch"));
    let (loaded, load_s) = timed(|| EvalReport::load(&path).expect("saved report loads"));
    out.set("eval.save_s", save_s);
    out.set("eval.load_s", load_s);
    out.set(
        "eval.report_bytes",
        std::fs::metadata(&path).map_or(0, |m| m.len()) as f64,
    );
    let shards: Vec<EvalReport> = report
        .methods
        .iter()
        .rev()
        .map(|m| EvalReport {
            corpus: report.corpus.clone(),
            methods: vec![m.clone()],
        })
        .collect();
    let (merged, merge_s) = timed(|| kf_eval::merge_reports(shards).expect("shards merge"));
    out.set("eval.merge_s", merge_s);
    u64::from(merged.to_json_string() != json) + u64::from(loaded.to_json_string() != json)
}

/// `telemetry.*`: what the program's own instrumentation costs — one
/// POPACCU fusion with a process trace installed against one without, and
/// the per-call cost of a counter add and a histogram record.
pub fn telemetry(corpus: &Corpus, workers: usize, out: &mut Metrics) {
    let fuse = || {
        let config = Preset::PopAccu.config().with_workers(workers);
        std::hint::black_box(Fuser::new(config).run(&corpus.batch, None).scored.len())
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        plain.push(timed(fuse).1);
        let trace = kf_telemetry::Trace::new();
        let _installed = kf_telemetry::install(&trace);
        traced.push(timed(fuse).1);
    }
    out.set(
        "telemetry.span_overhead_ratio",
        median(&traced) / median(&plain),
    );

    const CALLS: u64 = 1_000_000;
    let trace = kf_telemetry::Trace::new();
    let _installed = kf_telemetry::install(&trace);
    let ((), add_s) = timed(|| {
        for _ in 0..CALLS {
            kf_telemetry::add("benchmark.probe", 1);
        }
    });
    let ((), record_s) = timed(|| {
        for i in 0..CALLS {
            kf_telemetry::record_time("benchmark.probe_ns", 300 + (i & 1023));
        }
    });
    std::hint::black_box(trace.snapshot());
    out.set("telemetry.counter_add_ns", add_s * 1e9 / CALLS as f64);
    out.set("telemetry.hist_record_ns", record_s * 1e9 / CALLS as f64);
}
