//! The generic map → shuffle → reduce execution engine. No job of a run
//! goes through it any more — the grouping is `kf-core`'s typed sort —
//! and it is kept for the benchmark's `mapreduce.*` probe, which compiles
//! against [`map_reduce_with_stats`] and [`Emitter`].
//!
//! There is one shuffle, append → sort → merge: inputs are mapped in
//! *waves*, and each wave's records are appended, in input order, to one
//! pending buffer. Two knobs shape it and nothing else:
//!
//! * **`chunk_records`** sizes the waves. `0` (the default) maps the
//!   whole input as one wave, so peak raw-record residency is the whole
//!   shuffle volume (`JobStats::map_output`); `C > 0` sizes each wave to
//!   emit roughly `C` records, so the peak is the largest single wave
//!   ([`JobStats::peak_resident_records`]).
//! * **`spill_threshold_records`** bounds the *grouped* residency — the
//!   pending buffer. When the next wave would push it past the threshold,
//!   the buffer is sorted and written as one sorted run file (encoded
//!   with [`kf_types::KvCodec`], see the `spill` module), and the job
//!   reduces by a k-way merge of its runs. [`JobStats::peak_grouped_records`]
//!   and [`JobStats::spilled_bytes`] report the envelope.
//!
//! Sorting is the same everywhere: contiguous chunks of the buffer are
//! stably sorted by key in parallel and k-way merged, a key's values
//! concatenated in chunk order. In memory, the key space is first cut at
//! key boundaries into at most `workers` ranges, each merging its slice
//! of every chunk into the reducer. So the output comes back in key
//! order, and a key's values reach the reducer in input order — chunks
//! are contiguous and sorted stably, and spilled runs merge in spill
//! order — for every wave schedule, worker count and spill setting. The
//! crate's proptests check that order against a sequential group-by. The
//! design is documented in the repository's `ARCHITECTURE.md`.

use crate::fanout::run_tasks;
use crate::spill::{merge, merge_reduce_runs, reduce_groups, write_run, SpillDir};
use crate::stats::JobStats;
use kf_types::KvCodec;
use std::path::PathBuf;
use std::time::Instant;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MrConfig {
    /// How many map tasks a wave is cut into, how many chunks the shuffle
    /// sorts and key ranges the reduce merges, and the most threads each
    /// of those phases keeps busy ([`run_tasks`]: fewer when the job runs
    /// inside a task of a run whose worker budget is spent).
    pub workers: usize,
    /// Unused; kept only because `benchmark/src/fuse.rs` sets it.
    pub partitions: usize,
    /// Soft cap on raw (mapper-emitted, not yet grouped) shuffle records
    /// resident in memory at once. `0` maps the whole input as one wave
    /// (unless a spill threshold is set, below). The cap is approximate: a
    /// wave may overshoot when the mapper fan-out spikes, and a single
    /// input's emissions are never split across waves.
    pub chunk_records: usize,
    /// Soft cap on *grouped* records — the pending buffer — resident at
    /// once: the external shuffle. `0` disables spilling (every record
    /// waits in memory until reduced); a directly constructed `0` is safe
    /// and simply means "never spill". When appending the next wave would
    /// cross the threshold, the buffer is sorted, written as one sorted
    /// run file and freed; the job later reduces by k-way merging its
    /// runs. Spilling needs more than one wave: when `chunk_records == 0`,
    /// the engine sizes waves at this threshold. The cap is respected
    /// exactly as long as a single wave fits it (i.e.
    /// `chunk_records <= spill_threshold_records`); a single oversized
    /// wave can overshoot, because waves never split.
    ///
    /// Output is byte-identical with spilling on or off; see
    /// [`JobStats::peak_grouped_records`] / [`JobStats::spilled_bytes`]
    /// for the observed envelope.
    pub spill_threshold_records: usize,
    /// Directory under which spill runs are written (in a job-scoped
    /// subdirectory that is removed when the job finishes, including on
    /// panic). `None` uses the OS temp dir; point it at a scratch disk
    /// when spilling heavily.
    ///
    /// `&'static str` keeps `MrConfig` (and the `FusionConfig` embedding
    /// it) `Copy`, which the workspace passes by value everywhere. For a
    /// path computed at runtime, leak it once per *distinct* scratch dir
    /// (`Box::leak(path.into_boxed_str())`) — a process configures a
    /// handful of scratch disks at most, so the leak is bounded; don't
    /// leak per job.
    pub spill_dir: Option<&'static str>,
}

impl Default for MrConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        MrConfig {
            workers,
            partitions: workers * 4,
            chunk_records: 0,
            spill_threshold_records: 0,
            spill_dir: None,
        }
    }
}

impl MrConfig {
    /// A single-threaded configuration; useful for debugging and for
    /// baseline measurements.
    pub fn sequential() -> Self {
        MrConfig::with_workers(1)
    }

    /// Configuration with `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        MrConfig {
            workers: workers.max(1),
            ..Default::default()
        }
    }

    /// Builder-style: bound raw shuffle residency to roughly
    /// `chunk_records` records (`0` disables chunking).
    pub fn with_chunk_records(mut self, chunk_records: usize) -> Self {
        self.chunk_records = chunk_records;
        self
    }

    /// Builder-style: bound grouped residency to roughly `records`,
    /// spilling the pending buffer to disk beyond it (`0` disables
    /// spilling).
    ///
    /// ```
    /// use kf_mapreduce::MrConfig;
    ///
    /// // ~64K raw records per wave, spill grouped state past ~256K.
    /// let cfg = MrConfig::with_workers(4)
    ///     .with_chunk_records(1 << 16)
    ///     .with_spill_threshold(1 << 18);
    /// assert_eq!(cfg.spill_threshold_records, 1 << 18);
    /// ```
    pub fn with_spill_threshold(mut self, records: usize) -> Self {
        self.spill_threshold_records = records;
        self
    }

    /// Builder-style: write spill runs under `dir` instead of the OS temp
    /// dir (e.g. a dedicated scratch disk).
    pub fn with_spill_dir(mut self, dir: &'static str) -> Self {
        self.spill_dir = Some(dir);
        self
    }
}

/// Collects the `(key, value)` records a mapper emits, in emission order
/// (kept, with [`map_reduce_with_stats`], for the benchmark's probe).
pub struct Emitter<K, V> {
    records: Vec<(K, V)>,
}

impl<K, V> Emitter<K, V> {
    /// Emit one record.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        self.records.push((key, value));
    }
}

/// Run a MapReduce job and return its output with execution counters.
///
/// Kept for the benchmark's `mapreduce.*` probe: the grouping of the
/// extractions (`kf_core::Claims::build`) no longer uses it.
///
/// * `inputs` — the input records; read-only, shared across map workers.
/// * `mapper` — called once per input with an [`Emitter`]; may emit any
///   number of `(key, value)` records.
/// * `reducer` — called once per distinct key with all its values (in a
///   deterministic order: values are ordered by input index); returns the
///   output records for that key.
///
/// Output records are returned in key order, so the output is
/// deterministic — and identical whatever the worker count, and whether
/// the job runs as one wave, in waves of [`MrConfig::chunk_records`], or
/// spilled to disk ([`MrConfig::spill_threshold_records`]). Keys and
/// values are cloned out of the sorted buffer into each key's group.
pub fn map_reduce_with_stats<I, K, V, O, M, R>(
    cfg: &MrConfig,
    inputs: &[I],
    mapper: M,
    reducer: R,
) -> (Vec<O>, JobStats)
where
    I: Sync,
    K: Ord + Clone + Send + Sync + KvCodec,
    V: Clone + Send + Sync + KvCodec,
    O: Send,
    M: Fn(&I, &mut Emitter<K, V>) + Sync,
    R: Fn(&K, Vec<V>) -> Vec<O> + Sync,
{
    let workers = cfg.workers.max(1);
    let mut stats = JobStats::new(inputs.len() as u64);

    // ---- Map + shuffle ---------------------------------------------------
    // Spilling needs more than one wave, so without an explicit quota the
    // waves are sized at the spill threshold itself; with neither, the
    // whole input is one wave.
    let quota = if cfg.chunk_records > 0 {
        cfg.chunk_records
    } else {
        cfg.spill_threshold_records
    };
    // Bind the spill-dir guard so run files survive until reduction
    // finishes; the drop at the end of this function (or during a panic
    // unwind) removes the spill directory.
    let (sorted, runs, waves, _spill_dir) = {
        let _shuffle = kf_telemetry::span("shuffle");
        shuffle(
            inputs,
            workers,
            quota,
            cfg.spill_threshold_records,
            cfg.spill_dir,
            &mapper,
            &mut stats,
        )
    };

    // ---- Reduce phase ----------------------------------------------------
    // In memory, one task per key range; a spilled job merges its runs on
    // the calling thread. Either way the results come back in key order.
    let _reduce = kf_telemetry::span("reduce");
    let results = if runs.is_empty() {
        reduce_sorted(&sorted, workers, &reducer)
    } else {
        vec![merge_reduce_runs(&runs, &reducer)]
    };
    let mut output = Vec::new();
    for (out, n_keys) in results {
        stats.reduce_keys += n_keys;
        stats.reduce_output += out.len() as u64;
        output.extend(out);
    }
    drop(_reduce);

    // Fold the finished job into the installed trace (no-op when none):
    // volume counters add across jobs, residency peaks take the max —
    // the same rules `JobStats::merge` applies.
    if let Some(t) = kf_telemetry::current() {
        t.add("mr.jobs", 1);
        t.add("mr.map_input", stats.map_input);
        t.add("mr.map_output", stats.map_output);
        t.add("mr.reduce_keys", stats.reduce_keys);
        t.add("mr.reduce_output", stats.reduce_output);
        t.add("mr.waves", waves);
        t.add("mr.spill_runs", stats.spill_runs);
        t.add("mr.spilled_bytes", stats.spilled_bytes);
        t.record_max("mr.peak_resident_records", stats.peak_resident_records);
        t.record_max("mr.peak_grouped_records", stats.peak_grouped_records);
    }
    (output, stats)
}

/// Map `inputs` as up to `workers` tasks (contiguous chunks, so records
/// follow input order) and return the emitted records in chunk (= input)
/// order.
fn map_slice<I, K, V, M>(inputs: &[I], workers: usize, mapper: &M) -> Vec<Vec<(K, V)>>
where
    I: Sync,
    K: Send,
    V: Send,
    M: Fn(&I, &mut Emitter<K, V>) + Sync,
{
    let map_chunk = |chunk: &[I]| {
        let mut emitter = Emitter {
            records: Vec::new(),
        };
        for input in chunk {
            mapper(input, &mut emitter);
        }
        emitter.records
    };
    let chunks = inputs.chunks(chunk_len(inputs.len(), workers));
    run_tasks(
        workers,
        chunks.map(|chunk| move || map_chunk(chunk)).collect(),
    )
}

/// The shuffle: map input waves of roughly `quota` emitted records (`0`
/// maps the whole input as one wave), appending each wave's records to
/// one pending buffer, and writing the buffer as one sorted run file
/// whenever appending the next wave would push it past `spill_threshold`
/// (`0` = never). Wave sizes adapt to the observed mapper fan-out.
///
/// Writes the five shuffle counters of `stats` (`map_output`, both peaks,
/// `spilled_bytes`, `spill_runs`) and returns the buffer sorted in
/// chunks ([`sort_chunks`]) when nothing spilled — else empty, its tail
/// written as the last of the returned runs — the number of waves, and
/// the spill directory guard, which must outlive the reduce phase that
/// reads its run files.
///
/// Spills are written synchronously on the calling thread, inside the
/// wave's `spill` span: their I/O time is then the span's own, and a write
/// failure panics where the job was called.
#[allow(clippy::type_complexity)]
fn shuffle<I, K, V, M>(
    inputs: &[I],
    workers: usize,
    quota: usize,
    spill_threshold: usize,
    spill_base: Option<&'static str>,
    mapper: &M,
    stats: &mut JobStats,
) -> (Vec<(K, V)>, Vec<PathBuf>, u64, Option<SpillDir>)
where
    I: Sync,
    K: Ord + Clone + Send + Sync + KvCodec,
    V: Clone + Send + Sync + KvCodec,
    M: Fn(&I, &mut Emitter<K, V>) + Sync,
{
    let mut pending: Vec<(K, V)> = Vec::new();
    let mut runs: Vec<PathBuf> = Vec::new();
    // Created lazily on the first spill, so jobs that stay under the
    // threshold never touch the filesystem.
    let mut spill_dir: Option<SpillDir> = None;
    let mut waves = 0u64;
    let mut consumed = 0usize;
    let mut last_wave = (0usize, 0u64);
    while consumed < inputs.len() {
        // Two rules size each wave:
        //
        // 1. The PREVIOUS wave's observed fan-out divides the quota — a
        //    local estimate tracks skewed inputs (e.g. items sorted so
        //    that high-fan-out regions cluster) far better than a global
        //    running average. It is floored at 1, so a wave never takes
        //    more than `quota` inputs and a low-emission prefix cannot
        //    grow a catch-up wave whose emissions dwarf the quota once
        //    the mapper starts emitting again. (Sub-quota waves from
        //    fan-out < 1 are cheap: the map scan cost is the same however
        //    it is sliced.)
        // 2. A wave takes at most 2× the previous wave's inputs,
        //    starting from 1 — a geometric ramp, so even when the input
        //    *starts* in its hottest region (Zipf-head items first) the
        //    cold estimate can only overshoot the quota by ~2×, at the
        //    cost of ~log2(quota) tiny ramp-up waves.
        //
        // A quota of 0 takes the whole input as one wave, past the ramp.
        let wave_len = if quota == 0 {
            inputs.len()
        } else if consumed == 0 {
            1
        } else {
            let fanout = (last_wave.1 as f64 / last_wave.0 as f64).max(1.0);
            (((quota as f64) / fanout).ceil() as usize).min(last_wave.0.saturating_mul(2))
        }
        .clamp(1, inputs.len() - consumed);
        let _wave_span = kf_telemetry::span("wave");
        waves += 1;
        let wave = &inputs[consumed..consumed + wave_len];
        let emitted = {
            let _map = kf_telemetry::span("map");
            let map_start = Instant::now();
            let emitted = map_slice(wave, workers, mapper);
            kf_telemetry::record_time("mr.wave.map_ns", map_start.elapsed().as_nanos() as u64);
            emitted
        };
        let wave_emitted = emitted.iter().map(|r| r.len() as u64).sum::<u64>();
        kf_telemetry::record_value("mr.wave.records", wave_emitted);
        stats.peak_resident_records = stats.peak_resident_records.max(wave_emitted);
        stats.map_output += wave_emitted;
        consumed += wave_len;
        last_wave = (wave_len, wave_emitted);
        // Spill BEFORE the append that would cross the threshold, so the
        // grouped residency never exceeds it (as long as a single wave
        // fits under the threshold — waves never split).
        let resident = pending.len() as u64;
        if spill_threshold > 0 && resident > 0 && resident + wave_emitted > spill_threshold as u64 {
            let _spill = kf_telemetry::span("spill");
            let spill_start = Instant::now();
            let dir = spill_dir.get_or_insert_with(|| SpillDir::create(spill_base));
            spill(&mut pending, workers, dir, &mut runs, stats);
            kf_telemetry::record_time("mr.wave.spill_ns", spill_start.elapsed().as_nanos() as u64);
        }
        {
            let _merge = kf_telemetry::span("merge");
            let merge_start = Instant::now();
            for records in emitted {
                if pending.is_empty() {
                    pending = records; // nothing to append to: no copy
                } else {
                    pending.extend(records);
                }
            }
            kf_telemetry::record_time("mr.wave.merge_ns", merge_start.elapsed().as_nanos() as u64);
        }
        stats.peak_grouped_records = stats.peak_grouped_records.max(pending.len() as u64);
    }

    // A job that spilled flushes its in-memory tail as one final run (the
    // latest input, so it merges last); a job that never spilled reduces
    // its buffer from memory.
    let _flush = kf_telemetry::span("flush");
    if let Some(dir) = &spill_dir {
        if !pending.is_empty() {
            spill(&mut pending, workers, dir, &mut runs, stats);
        }
    } else {
        sort_chunks(&mut pending, workers);
    }
    drop(_flush);
    (pending, runs, waves, spill_dir)
}

/// The length of the contiguous chunks `records` records are sorted and
/// merged in: `workers` of them, the last possibly shorter.
fn chunk_len(records: usize, workers: usize) -> usize {
    records.div_ceil(workers).max(1)
}

/// Stably sort each contiguous chunk of `records` by key, the chunks in
/// parallel: a key's records keep their input order within a chunk.
fn sort_chunks<K: Ord + Send, V: Send>(records: &mut [(K, V)], workers: usize) {
    let chunks = records.chunks_mut(chunk_len(records.len(), workers));
    let tasks = chunks.map(|chunk| move || chunk.sort_by(|a, b| a.0.cmp(&b.0)));
    run_tasks(workers, tasks.collect());
}

/// The `(key, values)` groups of a key-sorted slice, cloned out of it.
fn groups<K: Ord + Clone, V: Clone>(sorted: &[(K, V)]) -> impl Iterator<Item = (K, Vec<V>)> + '_ {
    sorted.chunk_by(|a, b| a.0 == b.0).map(|run| {
        let values = run.iter().map(|(_, v)| v.clone()).collect();
        (run[0].0.clone(), values)
    })
}

/// Sort the pending buffer in chunks, write it as the job's next run
/// file — its chunks' merged groups — and empty it, adding the run's
/// path to `runs` and its bytes to `stats`.
fn spill<K, V>(
    pending: &mut Vec<(K, V)>,
    workers: usize,
    dir: &SpillDir,
    runs: &mut Vec<PathBuf>,
    stats: &mut JobStats,
) where
    K: Ord + Clone + Send + KvCodec,
    V: Clone + Send + KvCodec,
{
    sort_chunks(pending, workers);
    let path = dir.run_path(runs.len());
    let chunks = pending.chunks(chunk_len(pending.len(), workers));
    stats.spilled_bytes += write_run(&path, merge(chunks.map(groups)));
    stats.spill_runs += 1;
    runs.push(path);
    pending.clear();
}

/// Reduce a buffer sorted in chunks ([`sort_chunks`]): cut the key space
/// at key boundaries into at most `workers` ranges and, one task per
/// range, k-way merge the range's slice of every chunk into the reducer.
/// Returns each range's output and key count, in range (= key) order.
///
/// The cuts are quantiles of every chunk's `workers`-quantile keys, so
/// the ranges hold similar record counts unless one key dominates; a key
/// never straddles a cut, wherever the cuts fall.
fn reduce_sorted<K, V, O, R>(sorted: &[(K, V)], workers: usize, reducer: &R) -> Vec<(Vec<O>, u64)>
where
    K: Ord + Clone + Sync,
    V: Clone + Sync,
    O: Send,
    R: Fn(&K, Vec<V>) -> Vec<O> + Sync,
{
    let chunks: Vec<&[(K, V)]> = sorted.chunks(chunk_len(sorted.len(), workers)).collect();
    let candidates = chunks
        .iter()
        .flat_map(|c| (1..workers).map(|j| &c[j * c.len() / workers].0));
    let mut candidates: Vec<&K> = candidates.collect();
    candidates.sort_unstable();
    let mut cuts: Vec<&K> = (1..workers)
        .filter_map(|j| candidates.get(j * candidates.len() / workers).copied())
        .collect();
    cuts.dedup();
    // Per chunk, where each range starts, plus its end.
    let bounds: Vec<Vec<usize>> = chunks
        .iter()
        .map(|c| {
            let starts = cuts.iter().map(|&cut| c.partition_point(|(k, _)| k < cut));
            std::iter::once(0).chain(starts).chain([c.len()]).collect()
        })
        .collect();
    let tasks = (0..=cuts.len()).map(|r| {
        let slices: Vec<&[(K, V)]> = chunks
            .iter()
            .zip(&bounds)
            .map(|(c, b)| &c[b[r]..b[r + 1]])
            .collect();
        move || reduce_groups(merge(slices.into_iter().map(groups)), reducer)
    });
    run_tasks(workers, tasks.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic word count over synthetic "documents".
    fn word_count(cfg: &MrConfig, docs: &[&str]) -> Vec<(String, usize)> {
        map_reduce_with_stats(
            cfg,
            docs,
            |doc: &&str, emit: &mut Emitter<String, usize>| {
                for word in doc.split_whitespace() {
                    emit.emit(word.to_string(), 1);
                }
            },
            |word, counts| vec![(word.clone(), counts.len())],
        )
        .0
    }

    #[test]
    fn word_count_basic() {
        let docs = ["a b a", "b c", "a"];
        let mut out = word_count(&MrConfig::sequential(), &docs);
        out.sort();
        assert_eq!(
            out,
            vec![
                ("a".to_string(), 3),
                ("b".to_string(), 2),
                ("c".to_string(), 1)
            ]
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let docs: Vec<String> = (0..500)
            .map(|i| format!("w{} w{} shared", i % 7, i % 13))
            .collect();
        let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let mut seq = word_count(&MrConfig::sequential(), &doc_refs);
        let mut par = word_count(&MrConfig::with_workers(8), &doc_refs);
        seq.sort();
        par.sort();
        assert_eq!(seq, par);
    }

    #[test]
    fn output_is_deterministic_across_runs() {
        let inputs: Vec<u64> = (0..10_000).collect();
        let run = || {
            map_reduce_with_stats(
                &MrConfig::with_workers(6),
                &inputs,
                |&x, emit: &mut Emitter<u64, u64>| emit.emit(x % 97, x),
                |k, vs| vec![(*k, vs.iter().sum::<u64>())],
            )
            .0
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn values_arrive_in_input_order() {
        // Reducer sees values ordered by input index even with many workers.
        let inputs: Vec<u32> = (0..5_000).collect();
        let (out, _) = map_reduce_with_stats(
            &MrConfig::with_workers(8),
            &inputs,
            |&x, emit: &mut Emitter<u32, u32>| emit.emit(x % 3, x),
            |_k, vs| {
                assert!(vs.windows(2).all(|w| w[0] < w[1]), "values out of order");
                vec![vs.len()]
            },
        );
        assert_eq!(out.iter().sum::<usize>(), 5_000);
    }

    #[test]
    fn values_arrive_in_input_order_chunked() {
        // The chunked shuffle must preserve the same per-key value order:
        // waves append in input order, and the buffer's contiguous chunks
        // sort stably and merge in chunk order.
        let inputs: Vec<u32> = (0..5_000).collect();
        let (out, _) = map_reduce_with_stats(
            &MrConfig::with_workers(8).with_chunk_records(256),
            &inputs,
            |&x, emit: &mut Emitter<u32, u32>| emit.emit(x % 3, x),
            |_k, vs| {
                assert!(vs.windows(2).all(|w| w[0] < w[1]), "values out of order");
                vec![vs.len()]
            },
        );
        assert_eq!(out.iter().sum::<usize>(), 5_000);
    }

    #[test]
    fn values_arrive_in_input_order_spilled() {
        // Spilled runs replay in spill order, which is input order — the
        // reducer must observe exactly the same per-key value order.
        let inputs: Vec<u32> = (0..5_000).collect();
        let (out, stats) = map_reduce_with_stats(
            &MrConfig::with_workers(8)
                .with_chunk_records(256)
                .with_spill_threshold(512),
            &inputs,
            |&x, emit: &mut Emitter<u32, u32>| emit.emit(x % 3, x),
            |_k, vs| {
                assert!(vs.windows(2).all(|w| w[0] < w[1]), "values out of order");
                vec![vs.len()]
            },
        );
        assert_eq!(out.iter().sum::<usize>(), 5_000);
        assert!(stats.spilled_bytes > 0, "spill path was not exercised");
    }

    #[test]
    fn chunked_output_matches_one_wave_exactly() {
        let docs: Vec<String> = (0..800)
            .map(|i| format!("w{} w{} shared", i % 17, i % 29))
            .collect();
        let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let one_wave = word_count(&MrConfig::with_workers(4), &doc_refs);
        for chunk in [1usize, 7, 64, 1 << 20] {
            let chunked = word_count(
                &MrConfig::with_workers(4).with_chunk_records(chunk),
                &doc_refs,
            );
            // Not just set equality: the key-ordered output is identical,
            // so plain == must hold.
            assert_eq!(one_wave, chunked, "chunk_records = {chunk}");
        }
    }

    #[test]
    fn spilled_output_matches_in_memory_exactly() {
        let docs: Vec<String> = (0..800)
            .map(|i| format!("w{} w{} shared", i % 17, i % 29))
            .collect();
        let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let in_memory = word_count(&MrConfig::with_workers(4), &doc_refs);
        for (chunk, spill) in [(64usize, 128usize), (32, 32), (128, 1 << 20), (0, 200)] {
            let cfg = MrConfig::with_workers(4)
                .with_chunk_records(chunk)
                .with_spill_threshold(spill);
            let spilled = word_count(&cfg, &doc_refs);
            assert_eq!(in_memory, spilled, "chunk={chunk} spill={spill}");
        }
    }

    #[test]
    fn spill_bounds_grouped_residency() {
        let inputs: Vec<u64> = (0..50_000).collect();
        let job = |cfg: &MrConfig| {
            map_reduce_with_stats(
                cfg,
                &inputs,
                |&x, emit: &mut Emitter<u64, u64>| emit.emit(x % 513, x),
                |k, vs| vec![(*k, vs.iter().sum::<u64>())],
            )
        };
        let (base_out, base) = job(&MrConfig::with_workers(4));
        // In memory, every grouped record is resident at reduce time.
        assert_eq!(base.peak_grouped_records, base.map_output);
        assert_eq!(base.spilled_bytes, 0);

        let threshold = 8_192u64;
        let (out, stats) = job(&MrConfig::with_workers(4)
            .with_chunk_records(2_048)
            .with_spill_threshold(threshold as usize));
        assert_eq!(base_out, out, "spilled output must be byte-identical");
        assert!(stats.spilled_bytes > 0);
        // A wave (≤ ~2×2048) always fits under the 8192 threshold, so the
        // pre-merge spill keeps grouped residency at or under it.
        assert!(
            stats.peak_grouped_records <= threshold,
            "grouped peak {} above the {} threshold",
            stats.peak_grouped_records,
            threshold
        );
        assert!(stats.peak_grouped_records > 0);
    }

    #[test]
    fn async_spill_writer_keeps_stats_deterministic() {
        // Map and merge run on worker threads; spill points, run contents
        // and every JobStats counter must nevertheless be identical
        // run-to-run (the determinism ledger says wave sizing — and
        // therefore spilled_bytes and both peaks — depends only on the
        // input and the config, never on thread interleaving).
        let inputs: Vec<u64> = (0..30_000).collect();
        let job = || {
            map_reduce_with_stats(
                &MrConfig::with_workers(4)
                    .with_chunk_records(1_024)
                    .with_spill_threshold(4_096),
                &inputs,
                |&x, emit: &mut Emitter<u64, u64>| emit.emit(x % 257, x),
                |k, vs| vec![(*k, vs.iter().sum::<u64>())],
            )
        };
        let (out_a, stats_a) = job();
        let (out_b, stats_b) = job();
        assert_eq!(out_a, out_b);
        assert!(stats_a.spilled_bytes > 0);
        assert_eq!(stats_a.spilled_bytes, stats_b.spilled_bytes);
        assert_eq!(stats_a.peak_grouped_records, stats_b.peak_grouped_records);
        assert_eq!(stats_a.peak_resident_records, stats_b.peak_resident_records);
        assert!(stats_a.spill_runs > 0);
        // The whole counter block is deterministic, new fields included.
        assert_eq!(stats_a, stats_b);
    }

    #[test]
    fn installed_trace_mirrors_job_stats() {
        let inputs: Vec<u64> = (0..10_000).collect();
        let cfg = MrConfig::with_workers(2)
            .with_chunk_records(512)
            .with_spill_threshold(2_048);
        let trace = kf_telemetry::Trace::new();
        let (_, stats) = {
            let _t = kf_telemetry::install(&trace);
            map_reduce_with_stats(
                &cfg,
                &inputs,
                |&x, emit: &mut Emitter<u64, u64>| emit.emit(x % 1_021, x),
                |k, vs| vec![(*k, vs.len() as u64)],
            )
        };
        let report = trace.snapshot();
        let counter = |name: &str| {
            report
                .counters
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("missing counter {name}"))
                .value
        };
        assert_eq!(counter("mr.jobs"), 1);
        assert_eq!(counter("mr.map_input"), stats.map_input);
        assert_eq!(counter("mr.map_output"), stats.map_output);
        assert_eq!(counter("mr.reduce_keys"), stats.reduce_keys);
        assert_eq!(counter("mr.spilled_bytes"), stats.spilled_bytes);
        assert_eq!(counter("mr.spill_runs"), stats.spill_runs);
        assert_eq!(
            counter("mr.peak_grouped_records"),
            stats.peak_grouped_records
        );
        assert!(counter("mr.waves") > 0);
        // The span tree has the engine phases in the right places: waves
        // under the shuffle, map/spill/merge under the wave.
        let shuffle = report.root.child("shuffle").expect("shuffle span");
        let wave = shuffle.child("wave").expect("wave span");
        assert_eq!(wave.calls, counter("mr.waves"));
        assert!(wave.child("map").is_some());
        // Spills are written inside the `spill` span: nothing waits on
        // another thread's writes.
        assert!(wave.child("spill").is_some());
        assert!(wave.child("spill").unwrap().child("stall").is_none());
        assert!(wave.child("merge").is_some());
        assert!(report.root.child("reduce").is_some());
        // Per-wave histograms: one records the emitted record count per
        // wave (a Value histogram, so its distribution is deterministic),
        // the duration ones record once per wave / once per spill.
        let hist = |name: &str| {
            report
                .histograms
                .iter()
                .find(|h| h.name == name)
                .unwrap_or_else(|| panic!("missing histogram {name}"))
        };
        let records = hist("mr.wave.records");
        assert_eq!(records.kind, kf_telemetry::HistKind::Value);
        assert_eq!(records.count, counter("mr.waves"));
        assert_eq!(
            records.sum, stats.map_output,
            "every mapped record is observed by exactly one wave"
        );
        assert_eq!(hist("mr.wave.map_ns").kind, kf_telemetry::HistKind::Time);
        assert_eq!(hist("mr.wave.map_ns").count, counter("mr.waves"));
        assert_eq!(hist("mr.wave.merge_ns").count, counter("mr.waves"));
        assert!(hist("mr.wave.spill_ns").count > 0, "this config spills");
    }

    #[test]
    fn spill_threshold_zero_is_disabled() {
        // Like the `workers: 0` clamp: a directly constructed
        // `spill_threshold_records: 0` must mean "never spill", not panic
        // or spill-every-wave.
        let cfg = MrConfig {
            spill_threshold_records: 0,
            ..MrConfig::with_workers(2).with_chunk_records(64)
        };
        let docs = ["a b a", "b c"];
        let inputs: Vec<&str> = docs.to_vec();
        let (out, stats) = map_reduce_with_stats(
            &cfg,
            &inputs,
            |doc: &&str, emit: &mut Emitter<String, usize>| {
                for word in doc.split_whitespace() {
                    emit.emit(word.to_string(), 1);
                }
            },
            |word, counts| vec![(word.clone(), counts.len())],
        );
        assert_eq!(stats.spilled_bytes, 0);
        let mut sorted = out;
        sorted.sort();
        assert_eq!(
            sorted,
            vec![
                ("a".to_string(), 2),
                ("b".to_string(), 2),
                ("c".to_string(), 1)
            ]
        );
    }

    #[test]
    fn pathologically_small_spill_threshold_still_correct() {
        // threshold 1 < any wave: spills before every merge; output must
        // still be byte-identical and nothing may panic.
        let inputs: Vec<u64> = (0..2_000).collect();
        let job = |cfg: &MrConfig| {
            map_reduce_with_stats(
                cfg,
                &inputs,
                |&x, emit: &mut Emitter<u64, u64>| emit.emit(x % 31, x),
                |k, vs| vec![(*k, vs.iter().sum::<u64>())],
            )
            .0
        };
        let base = job(&MrConfig::with_workers(3));
        let spilled = job(&MrConfig::with_workers(3)
            .with_chunk_records(128)
            .with_spill_threshold(1));
        assert_eq!(base, spilled);
    }

    #[test]
    fn hundreds_of_runs_per_partition_stay_correct() {
        // A tiny threshold over many waves accumulates far more runs than
        // MAX_MERGE_FANIN; the bounded-fan-in compaction must keep the
        // output byte-identical (and the FD count capped).
        let inputs: Vec<u64> = (0..3_000).collect();
        let job = |cfg: &MrConfig| {
            map_reduce_with_stats(
                cfg,
                &inputs,
                |&x, emit: &mut Emitter<u64, u64>| emit.emit(x % 11, x),
                |k, vs| vec![(*k, vs)],
            )
        };
        let (base, _) = job(&MrConfig::sequential());
        let cfg = MrConfig::sequential()
            .with_chunk_records(8)
            .with_spill_threshold(8);
        let (spilled, stats) = job(&cfg);
        assert_eq!(base, spilled);
        // ~375 spill events → well past the 64-run merge fan-in.
        assert!(stats.spilled_bytes > 0);
    }

    #[test]
    fn spill_without_chunking_chunks_at_the_threshold() {
        // chunk_records == 0 but a spill threshold set: the engine must
        // still take the wave-based path (spilling needs waves to cut
        // between) and bound both residencies near the threshold.
        let inputs: Vec<u64> = (0..20_000).collect();
        let (out, stats) = map_reduce_with_stats(
            &MrConfig::with_workers(4).with_spill_threshold(1_000),
            &inputs,
            |&x, emit: &mut Emitter<u64, u64>| emit.emit(x % 97, x),
            |k, vs| vec![(*k, vs.iter().sum::<u64>())],
        );
        assert_eq!(out.len(), 97);
        assert!(stats.spilled_bytes > 0);
        assert!(stats.peak_resident_records <= 2_000);
        assert!(stats.peak_grouped_records <= 2_000);
    }

    #[test]
    fn spill_temp_files_are_removed_after_success_and_panic() {
        // Point spills at a private base dir so the assertion cannot race
        // other tests spilling into the OS temp dir.
        let base = std::env::temp_dir().join(format!("kf-mr-engine-test-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let base_str: &'static str = Box::leak(base.to_str().unwrap().to_string().into_boxed_str());
        let cfg = MrConfig::with_workers(2)
            .with_chunk_records(64)
            .with_spill_threshold(128)
            .with_spill_dir(base_str);
        let inputs: Vec<u64> = (0..2_000).collect();

        // Success: job completes, runs are merged, directory cleaned.
        let (_, stats) = map_reduce_with_stats(
            &cfg,
            &inputs,
            |&x, emit: &mut Emitter<u64, u64>| emit.emit(x % 13, x),
            |k, vs| vec![(*k, vs.len())],
        );
        assert!(stats.spilled_bytes > 0, "spill path was not exercised");
        assert_eq!(
            std::fs::read_dir(&base).unwrap().count(),
            0,
            "spill dirs must be removed after a successful job"
        );

        // Reducer panic: the unwind must still remove every spill file.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_reduce_with_stats(
                &cfg,
                &inputs,
                |&x, emit: &mut Emitter<u64, u64>| emit.emit(x % 13, x),
                |_k, _vs| -> Vec<u64> { panic!("reducer failure") },
            )
        }));
        assert!(result.is_err(), "reducer panic must propagate");
        assert_eq!(
            std::fs::read_dir(&base).unwrap().count(),
            0,
            "spill dirs must be removed when a reducer panics"
        );
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn an_uncreatable_spill_dir_panics_the_caller_and_leaves_nothing() {
        // The spill dir is configured under a regular file, so the first
        // spill cannot create its job directory.
        let base = std::env::temp_dir().join(format!("kf-mr-io-fail-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let file = base.join("not-a-dir");
        std::fs::write(&file, b"x").unwrap();
        let under_file = file.join("spill");
        let spill_dir: &'static str =
            Box::leak(under_file.to_str().unwrap().to_string().into_boxed_str());
        let cfg = MrConfig::with_workers(2)
            .with_chunk_records(64)
            .with_spill_threshold(128)
            .with_spill_dir(spill_dir);
        let inputs: Vec<u64> = (0..2_000).collect();
        // The spill is written where the job was called, so its failure
        // unwinds straight into the caller.
        let result = std::panic::catch_unwind(|| {
            map_reduce_with_stats(
                &cfg,
                &inputs,
                |&x, emit: &mut Emitter<u64, u64>| emit.emit(x % 13, x),
                |k, vs| vec![(*k, vs.len())],
            )
        });
        let message = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(message.starts_with("cannot create spill dir"), "{message}");
        assert!(message.contains(spill_dir), "{message}");
        let left: Vec<_> = std::fs::read_dir(&base)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["not-a-dir"], "the job left files behind");
        assert_eq!(std::fs::read(&file).unwrap(), b"x");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn partitions_zero_is_clamped() {
        // Regression: a directly constructed `workers: 0` must be clamped
        // by the engine, and the unused `partitions: 0` must not matter.
        for chunk_records in [0usize, 16] {
            let cfg = MrConfig {
                workers: 0,
                partitions: 0,
                chunk_records,
                ..MrConfig::default()
            };
            let docs = ["a b a", "b c"];
            let mut out = word_count(&cfg, &docs);
            out.sort();
            assert_eq!(
                out,
                vec![
                    ("a".to_string(), 2),
                    ("b".to_string(), 2),
                    ("c".to_string(), 1)
                ]
            );
        }
    }

    #[test]
    fn key_range_cuts_keep_every_key_once() {
        // The in-memory reduce cuts the key space into per-worker ranges
        // at key boundaries; a cut that dropped or duplicated a key would
        // show here. Inputs: one key; all distinct keys; and one hot key
        // in the middle of the key space that every chunk holds, so it
        // straddles every chunk cut.
        let inputs: Vec<u64> = (0..2_000).collect();
        let key_of = |shape: &str, x: u64| match shape {
            "single" => 7,
            "distinct" => x,
            _ if x.is_multiple_of(10) => x,
            _ => 1_005,
        };
        for name in ["single", "distinct", "hot"] {
            let mut expected: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
            for &x in &inputs {
                expected.entry(key_of(name, x)).or_default().push(x);
            }
            let expected: Vec<(u64, Vec<u64>)> = expected.into_iter().collect();
            for workers in 1..=8 {
                for cfg in [
                    MrConfig::with_workers(workers),
                    MrConfig::with_workers(workers).with_chunk_records(300),
                    MrConfig::with_workers(workers)
                        .with_chunk_records(300)
                        .with_spill_threshold(700),
                ] {
                    let (out, stats) = map_reduce_with_stats(
                        &cfg,
                        &inputs,
                        |&x, emit: &mut Emitter<u64, u64>| emit.emit(key_of(name, x), x),
                        |k, vs| vec![(*k, vs)],
                    );
                    assert_eq!(out, expected, "{name}: {cfg:?}");
                    assert_eq!(stats.reduce_keys, expected.len() as u64, "{name}: {cfg:?}");
                    let spills = cfg.spill_threshold_records > 0;
                    assert_eq!(stats.spill_runs > 0, spills, "{name}: {cfg:?}");
                }
            }
        }
    }

    #[test]
    fn empty_input_gives_empty_output() {
        for cfg in [
            MrConfig::default(),
            MrConfig::default().with_chunk_records(64),
            MrConfig::default()
                .with_chunk_records(64)
                .with_spill_threshold(16),
        ] {
            let (out, _) = map_reduce_with_stats(
                &cfg,
                &Vec::<u32>::new(),
                |&x, emit: &mut Emitter<u32, u32>| emit.emit(x, x),
                |_k, _vs| vec![0u32],
            );
            assert!(out.is_empty());
        }
    }

    #[test]
    fn skewed_keys_are_handled() {
        // 90% of records share one key — the paper's data-item skew
        // (up to 2.7M extractions for one item).
        let inputs: Vec<u32> = (0..20_000).collect();
        for cfg in [
            MrConfig::with_workers(4),
            MrConfig::with_workers(4).with_chunk_records(1_000),
            MrConfig::with_workers(4)
                .with_chunk_records(1_000)
                .with_spill_threshold(4_000),
        ] {
            let (out, _) = map_reduce_with_stats(
                &cfg,
                &inputs,
                |&x, emit: &mut Emitter<u32, u32>| {
                    let key = if x % 10 == 0 { x % 100 } else { 0 };
                    emit.emit(key, x);
                },
                |k, vs| vec![(*k, vs.len())],
            );
            let total: usize = out.iter().map(|&(_, n)| n).sum();
            assert_eq!(total, 20_000);
            let hot = out.iter().find(|&&(k, _)| k == 0).unwrap().1;
            assert!(hot >= 18_000);
        }
    }

    #[test]
    fn stats_count_records() {
        let inputs: Vec<u32> = (0..100).collect();
        let (_, stats) = map_reduce_with_stats(
            &MrConfig::with_workers(3),
            &inputs,
            |&x, emit: &mut Emitter<u32, u32>| {
                emit.emit(x % 10, x);
                emit.emit(x % 5, x);
            },
            |_k, vs| vs,
        );
        assert_eq!(stats.map_input, 100);
        assert_eq!(stats.map_output, 200);
        assert_eq!(stats.reduce_keys, 10); // keys 0..10 (x%5 ⊂ x%10)
        assert_eq!(stats.reduce_output, 200);
        // One wave: the whole shuffle is resident at once, raw and grouped.
        assert_eq!(stats.peak_resident_records, 200);
        assert_eq!(stats.peak_grouped_records, 200);
        assert_eq!(stats.spilled_bytes, 0);
    }

    #[test]
    fn one_wave_job_skips_the_ramp_and_the_combiner() {
        // Neither a chunk quota nor a spill threshold: the whole input is
        // mapped as one wave (the ramp would cut it into ~log2(n) waves),
        // and every record of these 7 hot keys is grouped as emitted.
        let job = |inputs: &[u64]| {
            let trace = kf_telemetry::Trace::new();
            let (_, stats) = {
                let _t = kf_telemetry::install(&trace);
                map_reduce_with_stats(
                    &MrConfig::with_workers(4),
                    inputs,
                    |&x, emit: &mut Emitter<u64, u64>| emit.emit(x % 7, 1),
                    |k, vs| vec![(*k, vs.iter().sum::<u64>())],
                )
            };
            let report = trace.snapshot();
            let waves = report.counters.iter().find(|c| c.name == "mr.waves");
            let wave_spans = report.root.child("shuffle").and_then(|s| s.child("wave"));
            assert_eq!(
                wave_spans.map_or(0, |w| w.calls),
                waves.map_or(0, |c| c.value),
                "one wave span per counted wave"
            );
            (stats, waves.map_or(0, |c| c.value))
        };

        let inputs: Vec<u64> = (0..20_000).collect();
        let (stats, waves) = job(&inputs);
        assert_eq!(waves, 1);
        assert_eq!(stats.combiner_invocations, 0);
        assert_eq!(stats.map_output, 20_000);
        assert_eq!(stats.peak_resident_records, stats.map_output);
        assert_eq!(stats.peak_grouped_records, stats.map_output);

        // An empty input has no wave to run.
        let (stats, waves) = job(&[]);
        assert_eq!(waves, 0);
        assert_eq!(stats, JobStats::new(0));
    }

    #[test]
    fn chunked_waves_adapt_to_fanout() {
        // Each input emits 10 records; the adaptive wave sizing must keep
        // the peak near the quota instead of 10× above it.
        let inputs: Vec<u32> = (0..5_000).collect();
        let (_, stats) = map_reduce_with_stats(
            &MrConfig::sequential().with_chunk_records(1_000),
            &inputs,
            |&x, emit: &mut Emitter<u32, u32>| {
                for j in 0..10 {
                    emit.emit((x + j) % 97, x);
                }
            },
            |k, vs| vec![(*k, vs.len())],
        );
        assert_eq!(stats.map_output, 50_000);
        // The geometric ramp keeps early waves tiny while the fan-out is
        // unknown; steady-state waves are sized from the observed fan-out
        // (~100 inputs → ~1000 records), so the peak stays near the quota
        // despite the 10× fan-out.
        assert!(
            stats.peak_resident_records <= 1_100,
            "peak {} did not adapt",
            stats.peak_resident_records
        );
    }

    #[test]
    fn low_emission_prefix_does_not_blow_the_quota() {
        // First half of the input emits nothing. The fan-out estimate is
        // floored at 1 (a wave never takes more than `quota` inputs), so
        // when emissions resume the peak stays at the quota instead of a
        // huge catch-up wave.
        let inputs: Vec<u32> = (0..40_000).collect();
        let (_, stats) = map_reduce_with_stats(
            &MrConfig::sequential().with_chunk_records(500),
            &inputs,
            |&x, emit: &mut Emitter<u32, u32>| {
                if x >= 20_000 {
                    emit.emit(x % 97, x);
                }
            },
            |k, vs| vec![(*k, vs.len())],
        );
        assert_eq!(stats.map_output, 20_000);
        assert!(
            stats.peak_resident_records <= 500,
            "peak {} above the 500-record quota",
            stats.peak_resident_records
        );
    }

    #[test]
    fn chunked_peak_is_bounded_below_one_wave() {
        let inputs: Vec<u64> = (0..50_000).collect();
        let job = |cfg: &MrConfig| {
            map_reduce_with_stats(
                cfg,
                &inputs,
                |&x, emit: &mut Emitter<u64, u64>| emit.emit(x % 513, x),
                |k, vs| vec![(*k, vs.iter().sum::<u64>())],
            )
            .1
        };
        let one_wave = job(&MrConfig::with_workers(4));
        assert_eq!(one_wave.peak_resident_records, one_wave.map_output);

        let chunked = job(&MrConfig::with_workers(4).with_chunk_records(2_048));
        assert_eq!(chunked.map_output, one_wave.map_output);
        assert!(
            chunked.peak_resident_records < one_wave.peak_resident_records,
            "peak {} not below one wave's {}",
            chunked.peak_resident_records,
            one_wave.peak_resident_records
        );
        // Fan-out here is exactly 1, so the bound is tight up to one wave.
        assert!(
            chunked.peak_resident_records <= 2 * 2_048,
            "peak {} far above the 2048-record quota",
            chunked.peak_resident_records
        );
    }

    #[test]
    fn more_workers_than_inputs() {
        let inputs = vec![1u32, 2];
        let (out, _) = map_reduce_with_stats(
            &MrConfig::with_workers(16),
            &inputs,
            |&x, emit: &mut Emitter<u32, u32>| emit.emit(x, x),
            |k, _| vec![*k],
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn multi_output_reducer() {
        let inputs = vec![1u32, 1, 2];
        let (mut out, _) = map_reduce_with_stats(
            &MrConfig::sequential(),
            &inputs,
            |&x, emit: &mut Emitter<u32, u32>| emit.emit(x, x),
            |k, vs| vs.iter().map(|v| (*k, *v)).collect(),
        );
        out.sort();
        assert_eq!(out, vec![(1, 1), (1, 1), (2, 2)]);
    }
}
