//! The map → shuffle → reduce execution engine.
//!
//! There is one shuffle: inputs are mapped in *waves*, and each wave's
//! buffers merge into per-partition reduce-side group accumulators as
//! soon as it is mapped. Two knobs shape it and nothing else:
//!
//! * **`chunk_records`** sizes the waves. `0` (the default) maps the
//!   whole input as one wave, so peak raw-record residency is the whole
//!   shuffle volume (`JobStats::map_output`); `C > 0` sizes each wave to
//!   emit roughly `C` records, so the peak is the largest single wave
//!   ([`JobStats::peak_resident_records`]).
//! * **`spill_threshold_records`** bounds the *grouped* residency. An
//!   optional [`Combiner`] partially reduces group accumulators as waves
//!   merge, and when the grouped records resident across all partitions
//!   would cross the threshold, partitions spill to sorted run files
//!   (encoded with [`kf_types::KvCodec`], see the `spill` module) and
//!   reduce by a k-way merge of runs. [`JobStats::peak_grouped_records`]
//!   and [`JobStats::spilled_bytes`] report the envelope.
//!
//! Every wave schedule produces identical output: waves are processed in
//! input order and, within a wave, worker buffers are merged in worker
//! order (workers own contiguous input chunks), so a key's values always
//! reach the reducer ordered by input index — and spilled runs replay in
//! spill order, which preserves exactly that order. The crate's proptests
//! check that order against a sequential group-by. The design is
//! documented in the repository's `ARCHITECTURE.md`.

use crate::fanout::run_tasks;
use crate::spill::{merge_reduce_runs, write_run, SpillDir};
use crate::stats::JobStats;
use kf_types::hash::hash_one;
use kf_types::{FxHashMap, KvCodec};
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MrConfig {
    /// How many map chunks a wave is cut into, and the most threads the
    /// map, merge and reduce phases keep busy ([`run_tasks`]: fewer when
    /// the job runs inside a task of a run whose worker budget is spent).
    pub workers: usize,
    /// Number of shuffle partitions. More partitions smooth out key skew at
    /// the cost of per-partition overhead; defaults to `4 × workers`.
    /// Clamped to at least 1 by the engine (a directly constructed
    /// `partitions: 0` must not panic the shuffle router).
    pub partitions: usize,
    /// Soft cap on raw (mapper-emitted, not yet grouped) shuffle records
    /// resident in memory at once. `0` maps the whole input as one wave
    /// (unless a spill threshold is set, below). The cap is approximate: a
    /// wave may overshoot when the mapper fan-out spikes, and a single
    /// input's emissions are never split across waves.
    pub chunk_records: usize,
    /// Soft cap on *grouped* records resident across all partition
    /// accumulators at once — the external shuffle. `0` disables
    /// spilling (grouped values accumulate in memory until reduced, the
    /// historical behaviour); like the `partitions: 0` clamp, a directly
    /// constructed `0` is safe and simply means "never spill". When the
    /// threshold would be crossed by merging the next wave, every
    /// non-empty partition serializes its accumulator to a sorted run
    /// file and frees the memory; the partition later reduces by k-way
    /// merging its runs. Spilling needs more than one wave: when
    /// `chunk_records == 0`, the engine sizes waves at this threshold. The cap
    /// is respected exactly as long as a single wave fits it (i.e.
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
        MrConfig {
            workers: 1,
            partitions: 1,
            ..Default::default()
        }
    }

    /// Configuration with `workers` threads and the default partition ratio.
    pub fn with_workers(workers: usize) -> Self {
        MrConfig {
            workers: workers.max(1),
            partitions: workers.max(1) * 4,
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
    /// spilling partition accumulators to disk beyond it (`0` disables
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

/// Partial reduction applied to group accumulators while the shuffle is
/// still running — the classic MapReduce combiner, adapted to this
/// engine's reduce-side accumulation: it rewrites a group's value buffer
/// in place (typically folding many records into few) as waves merge and
/// immediately before a partition spills to disk.
///
/// # Contract
///
/// The reducer must produce **identical output** from a combined buffer
/// and from the raw one — combining must be a reducer-invariant rewrite.
/// That holds for associative, order-insensitive folds over the values
/// (integer counts and sums, min/max, sort-and-deduplicate) but *not* for
/// order-sensitive reductions (floating-point accumulation, reservoir
/// sampling): for those, don't combine. A combiner only bounds memory, so
/// a job with neither `chunk_records` nor a spill threshold (one wave,
/// nothing to bound) never runs it; the crate's proptests check combined
/// output against a sequential fold.
///
/// Closures implement the trait directly:
///
/// ```
/// use kf_mapreduce::{map_reduce_combined_with_stats, Emitter, MrConfig};
///
/// let docs = ["a b a", "b a", "a"];
/// let (counts, _stats) = map_reduce_combined_with_stats(
///     &MrConfig::sequential().with_chunk_records(2),
///     &docs,
///     |doc: &&str, emit: &mut Emitter<String, u64>| {
///         for word in doc.split_whitespace() {
///             emit.emit(word.to_string(), 1);
///         }
///     },
///     // Combiner: fold partial counts into one.
///     |counts: &mut Vec<u64>| {
///         let sum: u64 = counts.drain(..).sum();
///         counts.push(sum);
///     },
///     // Reducer: total the (possibly pre-combined) counts.
///     |word, counts| vec![(word.clone(), counts.iter().sum::<u64>())],
/// );
/// assert!(counts.contains(&("a".to_string(), 4)));
/// ```
pub trait Combiner<V>: Sync {
    /// Rewrite `values` in place to a smaller reducer-equivalent buffer.
    fn combine(&self, values: &mut Vec<V>);
}

impl<V, F> Combiner<V> for F
where
    F: Fn(&mut Vec<V>) + Sync,
{
    #[inline]
    fn combine(&self, values: &mut Vec<V>) {
        self(values)
    }
}

/// A group's value buffer is combined when it reaches this many records
/// (and again at each doubling, so combine work stays amortized-linear
/// even for incompressible buffers).
const COMBINE_TRIGGER: usize = 64;

/// Collects `(key, value)` records emitted by a mapper and routes them to
/// shuffle partitions by key hash.
pub struct Emitter<K, V> {
    buffers: Vec<Vec<(K, V)>>,
    emitted: u64,
}

impl<K: Hash, V> Emitter<K, V> {
    fn new(partitions: usize) -> Self {
        // Clamp defensively: routing needs at least one bucket even if a
        // caller hands the engine `partitions: 0`.
        Emitter {
            buffers: (0..partitions.max(1)).map(|_| Vec::new()).collect(),
            emitted: 0,
        }
    }

    /// Emit one record.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        let p = (hash_one(&key) as usize) % self.buffers.len();
        self.buffers[p].push((key, value));
        self.emitted += 1;
    }
}

/// Reduce-side accumulator: one group of values per distinct key.
type Groups<K, V> = FxHashMap<K, Vec<V>>;

/// What the shuffle hands to a reduce worker for one partition.
enum Partition<K, V> {
    /// In memory: records already merged into groups wave by wave.
    Grouped(Groups<K, V>),
    /// External: the partition spilled; reduce by k-way merging its
    /// sorted run files (in spill order).
    Spilled(Vec<PathBuf>),
}

/// Run a MapReduce job and return its output with execution counters.
///
/// * `inputs` — the input records; read-only, shared across map workers.
/// * `mapper` — called once per input with an [`Emitter`]; may emit any
///   number of `(key, value)` records.
/// * `reducer` — called once per distinct key with all its values (in a
///   deterministic order: values are ordered by input index); returns the
///   output records for that key.
///
/// Output records are returned grouped by partition and sorted by key within
/// each partition, so the overall output is deterministic — and identical
/// whether the job runs as one wave, in waves of
/// [`MrConfig::chunk_records`], or spilled to disk
/// ([`MrConfig::spill_threshold_records`]).
pub fn map_reduce_with_stats<I, K, V, O, M, R>(
    cfg: &MrConfig,
    inputs: &[I],
    mapper: M,
    reducer: R,
) -> (Vec<O>, JobStats)
where
    I: Sync,
    K: Hash + Eq + Ord + Send + KvCodec,
    V: Send + KvCodec,
    O: Send,
    M: Fn(&I, &mut Emitter<K, V>) + Sync,
    R: Fn(&K, Vec<V>) -> Vec<O> + Sync,
{
    run_job(cfg, inputs, mapper, None, reducer)
}

/// [`map_reduce_with_stats`] with a [`Combiner`] partially reducing group
/// accumulators as waves merge and partitions spill. With
/// `chunk_records == 0` and spilling disabled the job is one wave and the
/// combiner never runs.
pub fn map_reduce_combined_with_stats<I, K, V, O, M, C, R>(
    cfg: &MrConfig,
    inputs: &[I],
    mapper: M,
    combiner: C,
    reducer: R,
) -> (Vec<O>, JobStats)
where
    I: Sync,
    K: Hash + Eq + Ord + Send + KvCodec,
    V: Send + KvCodec,
    O: Send,
    M: Fn(&I, &mut Emitter<K, V>) + Sync,
    C: Combiner<V>,
    R: Fn(&K, Vec<V>) -> Vec<O> + Sync,
{
    run_job(cfg, inputs, mapper, Some(&combiner), reducer)
}

/// The engine behind both public entry points.
fn run_job<I, K, V, O, M, R>(
    cfg: &MrConfig,
    inputs: &[I],
    mapper: M,
    combiner: Option<&dyn Combiner<V>>,
    reducer: R,
) -> (Vec<O>, JobStats)
where
    I: Sync,
    K: Hash + Eq + Ord + Send + KvCodec,
    V: Send + KvCodec,
    O: Send,
    M: Fn(&I, &mut Emitter<K, V>) + Sync,
    R: Fn(&K, Vec<V>) -> Vec<O> + Sync,
{
    let workers = cfg.workers.max(1);
    let partitions = cfg.partitions.max(1);
    let mut stats = JobStats::new(inputs.len() as u64);

    // ---- Map + shuffle ---------------------------------------------------
    // Spilling needs more than one wave, so without an explicit quota the
    // waves are sized at the spill threshold itself; with neither, the
    // whole input is one wave. One wave has nothing for a combiner to
    // bound, so it runs without one.
    let quota = if cfg.chunk_records > 0 {
        cfg.chunk_records
    } else {
        cfg.spill_threshold_records
    };
    let combiner = combiner.filter(|_| quota > 0);
    // Bind the spill-dir guard so run files survive until reduction
    // finishes; the drop at the end of this function (or during a panic
    // unwind) removes the spill directory.
    let (payloads, waves, _spill_dir) = {
        let _shuffle = kf_telemetry::span("shuffle");
        shuffle(
            inputs,
            workers,
            partitions,
            quota,
            cfg.spill_threshold_records,
            cfg.spill_dir,
            combiner,
            &mapper,
            &mut stats,
        )
    };

    // ---- Reduce phase ----------------------------------------------------
    // One task per partition. Keys are reduced in sorted order within a
    // partition for deterministic output; the results come back in
    // partition order.
    let _reduce = kf_telemetry::span("reduce");
    let reducer = &reducer;
    let reduce_partition = |payload: Partition<K, V>| {
        let groups = match payload {
            // Runs are key-sorted; the streaming merge reduces directly.
            Partition::Spilled(runs) => return merge_reduce_runs(&runs, reducer),
            Partition::Grouped(groups) => groups,
        };
        let mut keyed: Vec<(K, Vec<V>)> = groups.into_iter().collect();
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let n_keys = keyed.len() as u64;
        let mut out = Vec::new();
        for (k, vs) in keyed {
            out.extend(reducer(&k, vs));
        }
        (out, n_keys)
    };
    let tasks = payloads.into_iter();
    let tasks = tasks.map(|payload| move || reduce_partition(payload));
    let results = run_tasks(workers, tasks.collect());

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
        t.add("mr.combiner_invocations", stats.combiner_invocations);
        t.record_max("mr.peak_resident_records", stats.peak_resident_records);
        t.record_max("mr.peak_grouped_records", stats.peak_grouped_records);
    }
    (output, stats)
}

/// Map `inputs` as up to `workers` tasks (contiguous chunks, so per-key
/// value order follows input order) and return the emitters in chunk
/// (= input) order.
fn map_slice<I, K, V, M>(
    inputs: &[I],
    workers: usize,
    partitions: usize,
    mapper: &M,
) -> Vec<Emitter<K, V>>
where
    I: Sync,
    K: Hash + Send,
    V: Send,
    M: Fn(&I, &mut Emitter<K, V>) + Sync,
{
    let chunk_size = inputs.len().div_ceil(workers).max(1);
    let map_chunk = |chunk: &[I]| {
        let mut emitter = Emitter::new(partitions);
        for input in chunk {
            mapper(input, &mut emitter);
        }
        emitter
    };
    let chunks = inputs.chunks(chunk_size);
    run_tasks(
        workers,
        chunks.map(|chunk| move || map_chunk(chunk)).collect(),
    )
}

/// One batch handed to the spill-writer thread: taken partition
/// accumulators with the run paths they must be written to.
type SpillBatch<K, V> = Vec<(Groups<K, V>, PathBuf)>;

/// The shuffle: map input waves, merging each wave's buffers into
/// per-partition group accumulators as they fill (so at most roughly
/// `quota` raw records are resident at once; `0` maps the whole input as
/// one wave), combining group buffers as they grow, and spilling all
/// accumulators to sorted run files whenever merging the next wave would
/// push grouped residency past `spill_threshold` (`0` = never). Wave
/// sizes adapt to the observed mapper fan-out.
///
/// Writes the six shuffle counters of `stats` (`map_output`, both peaks,
/// `spilled_bytes`, `spill_runs`, `combiner_invocations`) and returns the
/// reduce-side partitions, the number of waves, and the spill directory
/// guard, which must outlive the reduce phase that reads its run files.
///
/// Run-file encode+write runs on a dedicated **spill-writer thread**,
/// double-buffered against the next wave's map work: the coordinating
/// thread snapshots the accumulators, records the (deterministic) run
/// paths, hands the batch over a rendezvous channel and immediately goes
/// back to mapping, so disk I/O overlaps CPU work instead of stalling the
/// wave loop. At most one batch is in flight (plus at most one waiting at
/// the rendezvous), so transient memory stays bounded by ~2× the spill
/// threshold; spill *points*, run contents and all `JobStats` counters
/// are byte-identical to the synchronous path — the writer thread only
/// changes *when* the bytes hit disk, never which bytes.
#[allow(clippy::too_many_arguments)]
fn shuffle<I, K, V, M>(
    inputs: &[I],
    workers: usize,
    partitions: usize,
    quota: usize,
    spill_threshold: usize,
    spill_base: Option<&'static str>,
    combiner: Option<&dyn Combiner<V>>,
    mapper: &M,
    stats: &mut JobStats,
) -> (Vec<Partition<K, V>>, u64, Option<SpillDir>)
where
    I: Sync,
    K: Hash + Eq + Ord + Send + KvCodec,
    V: Send + KvCodec,
    M: Fn(&I, &mut Emitter<K, V>) + Sync,
{
    let mut groups: Vec<Groups<K, V>> = (0..partitions).map(|_| FxHashMap::default()).collect();
    let mut runs: Vec<Vec<PathBuf>> = (0..partitions).map(|_| Vec::new()).collect();
    // Created lazily on the first spill, so jobs that stay under the
    // threshold never touch the filesystem.
    let mut spill_dir: Option<SpillDir> = None;
    let mut waves = 0u64;
    let mut resident = 0u64; // grouped records currently accumulated
    std::thread::scope(|scope| {
        type Writer<'s, K, V> = (
            std::sync::mpsc::SyncSender<SpillBatch<K, V>>,
            std::thread::ScopedJoinHandle<'s, (u64, u64)>,
        );
        // Spawned lazily on the first spill; jobs that never spill never
        // pay for the thread.
        let mut writer: Option<Writer<'_, K, V>> = None;
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
            //    fan-out < 1 are cheap: small waves merge inline, and the
            //    map scan cost is the same however it is sliced.)
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
            let emitters = {
                let _map = kf_telemetry::span("map");
                let map_start = Instant::now();
                let emitters = map_slice(wave, workers, partitions, mapper);
                kf_telemetry::record_time("mr.wave.map_ns", map_start.elapsed().as_nanos() as u64);
                emitters
            };
            let wave_emitted: u64 = emitters.iter().map(|e| e.emitted).sum();
            kf_telemetry::record_value("mr.wave.records", wave_emitted);
            stats.peak_resident_records = stats.peak_resident_records.max(wave_emitted);
            stats.map_output += wave_emitted;
            consumed += wave_len;
            last_wave = (wave_len, wave_emitted);
            // Spill BEFORE the merge that would cross the threshold, so the
            // grouped residency never exceeds it (as long as a single wave
            // fits under the threshold — waves never split).
            if spill_threshold > 0
                && resident > 0
                && resident + wave_emitted > spill_threshold as u64
            {
                let _spill = kf_telemetry::span("spill");
                let spill_start = Instant::now();
                let dir = spill_dir.get_or_insert_with(|| SpillDir::create(spill_base));
                // Snapshot non-empty accumulators and assign their run
                // paths now — path order is what the k-way merge replays,
                // so it must be fixed on the coordinating thread.
                let mut batch: SpillBatch<K, V> = Vec::new();
                for (p, group) in groups.iter_mut().enumerate() {
                    if group.is_empty() {
                        continue;
                    }
                    let path = dir.run_path(p, runs[p].len());
                    runs[p].push(path.clone());
                    batch.push((std::mem::take(group), path));
                }
                stats.spill_runs += batch.len() as u64;
                let (tx, _) = writer.get_or_insert_with(|| {
                    let (tx, rx) = std::sync::mpsc::sync_channel::<SpillBatch<K, V>>(0);
                    let handle = scope.spawn(move || {
                        let (mut bytes, mut combines) = (0u64, 0u64);
                        while let Ok(batch) = rx.recv() {
                            for (group, path) in batch {
                                let (b, c) = spill_one(group, &path, combiner);
                                bytes += b;
                                combines += c;
                            }
                        }
                        (bytes, combines)
                    });
                    (tx, handle)
                });
                // The rendezvous send blocks while the writer is still on
                // the previous batch — that block is the spill-writer
                // queue stall.
                let _stall = kf_telemetry::span("stall");
                if tx.send(batch).is_err() {
                    // The writer died mid-job (an I/O panic): join it so
                    // the original panic propagates instead of a send
                    // error.
                    let (_, handle) = writer.take().expect("writer just inserted");
                    match handle.join() {
                        Err(panic) => std::panic::resume_unwind(panic),
                        Ok(_) => unreachable!("writer exited while the sender was alive"),
                    }
                }
                // Coordinator-side spill cost: accumulator snapshot plus
                // the rendezvous stall. The writer thread's own I/O time
                // has no installed trace and is deliberately not recorded.
                kf_telemetry::record_time(
                    "mr.wave.spill_ns",
                    spill_start.elapsed().as_nanos() as u64,
                );
                resident = 0;
            }
            let delta = {
                let _merge = kf_telemetry::span("merge");
                let merge_start = Instant::now();
                let (delta, combines) = merge_wave(emitters, &mut groups, workers, combiner);
                kf_telemetry::record_time(
                    "mr.wave.merge_ns",
                    merge_start.elapsed().as_nanos() as u64,
                );
                stats.combiner_invocations += combines;
                delta
            };
            resident = resident.saturating_add_signed(delta);
            stats.peak_grouped_records = stats.peak_grouped_records.max(resident);
        }
        // Drain the writer before reading any run file back.
        if let Some((tx, handle)) = writer.take() {
            drop(tx);
            match handle.join() {
                Ok((bytes, combines)) => {
                    stats.spilled_bytes += bytes;
                    stats.combiner_invocations += combines;
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    // A partition that ever spilled flushes its in-memory tail as one
    // final run (the latest input, so it merges last); partitions that
    // never spilled reduce from memory. The writer thread has already
    // been joined, so these writes cannot race an in-flight batch.
    let _flush = kf_telemetry::span("flush");
    let partitions_out: Vec<Partition<K, V>> = groups
        .into_iter()
        .zip(runs)
        .enumerate()
        .map(|(p, (group, mut run_files))| {
            if run_files.is_empty() {
                Partition::Grouped(group)
            } else {
                if !group.is_empty() {
                    let dir = spill_dir.as_ref().expect("runs exist without a spill dir");
                    let path = dir.run_path(p, run_files.len());
                    let (bytes, combines) = spill_one(group, &path, combiner);
                    stats.spilled_bytes += bytes;
                    stats.combiner_invocations += combines;
                    stats.spill_runs += 1;
                    run_files.push(path);
                }
                Partition::Spilled(run_files)
            }
        })
        .collect();
    drop(_flush);
    (partitions_out, waves, spill_dir)
}

/// Sort, (re-)combine and write one partition accumulator as the run file
/// at `path`. Runs on the spill-writer thread for mid-job spills and on
/// the coordinating thread for the final tail flush. Returns the bytes
/// written and the combiner invocations made.
fn spill_one<K, V>(
    group: Groups<K, V>,
    path: &Path,
    combiner: Option<&dyn Combiner<V>>,
) -> (u64, u64)
where
    K: Hash + Eq + Ord + KvCodec,
    V: KvCodec,
{
    let mut sorted: Vec<(K, Vec<V>)> = group.into_iter().collect();
    sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut combines = 0u64;
    if let Some(c) = combiner {
        // One last squeeze before paying for the bytes.
        for (_, values) in &mut sorted {
            c.combine(values);
            combines += 1;
        }
    }
    (write_run(path, &sorted), combines)
}

/// Drain one wave's emitter buffers into the per-partition group
/// accumulators. Buffers are appended in worker order, preserving per-key
/// input order; partitions are merged in parallel (each partition is owned
/// by exactly one merge task, so no locks). Returns the net change in
/// grouped records resident (additions minus records folded away by the
/// combiner) and the number of combiner invocations.
fn merge_wave<K, V>(
    emitters: Vec<Emitter<K, V>>,
    groups: &mut [Groups<K, V>],
    workers: usize,
    combiner: Option<&dyn Combiner<V>>,
) -> (i64, u64)
where
    K: Hash + Eq + Send,
    V: Send,
{
    // Below this many records a wave is merged on the calling thread:
    // helper threads per tiny wave (small `chunk_records`) would cost more
    // than the moves themselves.
    const PARALLEL_MERGE_THRESHOLD: u64 = 4_096;
    let wave_records: u64 = emitters.iter().map(|e| e.emitted).sum();
    let workers = if wave_records < PARALLEL_MERGE_THRESHOLD {
        1
    } else {
        workers
    };
    let mut per_partition: Vec<Vec<Vec<(K, V)>>> = groups.iter().map(|_| Vec::new()).collect();
    for emitter in emitters {
        for (p, buf) in emitter.buffers.into_iter().enumerate() {
            if !buf.is_empty() {
                per_partition[p].push(buf);
            }
        }
    }
    let tasks = groups.iter_mut().zip(per_partition);
    let tasks = tasks.map(|(group, bufs)| move || merge_buffers(group, bufs, combiner));
    let merged = run_tasks(workers, tasks.collect()).into_iter();
    merged.fold((0, 0), |(delta, combines), (d, c)| {
        (delta + d, combines + c)
    })
}

/// Append raw buffers into a group accumulator, combining any group whose
/// buffer reaches a power-of-two length ≥ [`COMBINE_TRIGGER`]. Returns
/// the net change in resident records and the combiner invocations made.
fn merge_buffers<K: Hash + Eq, V>(
    group: &mut Groups<K, V>,
    bufs: Vec<Vec<(K, V)>>,
    combiner: Option<&dyn Combiner<V>>,
) -> (i64, u64) {
    let mut delta = 0i64;
    let mut combines = 0u64;
    for buf in bufs {
        for (k, v) in buf {
            let values = group.entry(k).or_default();
            values.push(v);
            delta += 1;
            if let Some(c) = combiner {
                let len = values.len();
                if len >= COMBINE_TRIGGER && len.is_power_of_two() {
                    c.combine(values);
                    combines += 1;
                    delta += values.len() as i64 - len as i64;
                }
            }
        }
    }
    (delta, combines)
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
        // waves run in input order and worker buffers merge in input order.
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
            // Not just set equality: the partition-then-key output order is
            // identical, so plain == must hold.
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
    fn combiner_folds_counts_without_changing_output() {
        let inputs: Vec<u64> = (0..20_000).collect();
        let mapper = |&x: &u64, emit: &mut Emitter<u64, u64>| emit.emit(x % 7, 1);
        let reducer = |k: &u64, vs: Vec<u64>| vec![(*k, vs.iter().sum::<u64>())];
        let (base_out, base) =
            map_reduce_with_stats(&MrConfig::with_workers(4), &inputs, mapper, reducer);

        let cfg = MrConfig::with_workers(4).with_chunk_records(1_024);
        let combine = |vs: &mut Vec<u64>| {
            let sum: u64 = vs.drain(..).sum();
            vs.push(sum);
        };
        let (out, stats) = map_reduce_combined_with_stats(&cfg, &inputs, mapper, combine, reducer);
        assert_eq!(base_out, out);
        // 7 hot keys × 20k records: combining must collapse the grouped
        // residency far below the uncombined total.
        assert!(
            stats.peak_grouped_records < base.peak_grouped_records / 10,
            "combined grouped peak {} vs uncombined {}",
            stats.peak_grouped_records,
            base.peak_grouped_records
        );
    }

    #[test]
    fn combiner_plus_spill_compose() {
        let inputs: Vec<u64> = (0..30_000).collect();
        // Many distinct keys (little to combine) plus hot keys (much to
        // combine) — both paths exercised together with spilling.
        let mapper = |&x: &u64, emit: &mut Emitter<u64, u64>| {
            let key = if x % 5 == 0 { 100_000 + x } else { x % 17 };
            emit.emit(key, 1);
        };
        let reducer = |k: &u64, vs: Vec<u64>| vec![(*k, vs.iter().sum::<u64>())];
        let (baseline, _) =
            map_reduce_with_stats(&MrConfig::with_workers(4), &inputs, mapper, reducer);
        let cfg = MrConfig::with_workers(4)
            .with_chunk_records(512)
            .with_spill_threshold(2_048);
        let combine = |vs: &mut Vec<u64>| {
            let sum: u64 = vs.drain(..).sum();
            vs.push(sum);
        };
        let (out, stats) = map_reduce_combined_with_stats(&cfg, &inputs, mapper, combine, reducer);
        assert_eq!(baseline, out);
        assert!(stats.spilled_bytes > 0);
        assert!(stats.peak_grouped_records <= 2_048 + 1_024);
        assert!(stats.spill_runs > 0, "spilling must write run files");
        assert!(
            stats.combiner_invocations > 0,
            "hot keys must trip the combiner"
        );
    }

    #[test]
    fn async_spill_writer_keeps_stats_deterministic() {
        // The spill-writer thread overlaps I/O with mapping; spill points,
        // run contents and every JobStats counter must nevertheless be
        // identical run-to-run (the determinism ledger says wave sizing —
        // and therefore spilled_bytes and both peaks — depends only on
        // the input and the config, never on thread interleaving).
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
        assert!(wave.child("spill").is_some());
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
        // Mirror of the `partitions: 0` clamp: a directly constructed
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
        // A tiny threshold over many waves accumulates far more runs per
        // partition than MAX_MERGE_FANIN; the bounded-fan-in compaction
        // must keep the output byte-identical (and the FD count capped).
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
        let cfg = MrConfig {
            workers: 1,
            partitions: 1,
            ..MrConfig::default()
        }
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
        // still take the wave-based path (spilling needs accumulators to
        // snapshot) and bound both residencies near the threshold.
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
    fn partitions_zero_is_clamped() {
        // Regression: a directly constructed `partitions: 0` (or
        // `workers: 0`) must be clamped by the engine, not panic with a
        // modulo-by-zero in the shuffle router.
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
        // and the supplied combiner never runs — one wave has nothing for
        // it to bound, though these 7 hot keys would trip it at once.
        let job = |inputs: &[u64]| {
            let trace = kf_telemetry::Trace::new();
            let (_, stats) = {
                let _t = kf_telemetry::install(&trace);
                map_reduce_combined_with_stats(
                    &MrConfig::with_workers(4),
                    inputs,
                    |&x, emit: &mut Emitter<u64, u64>| emit.emit(x % 7, 1),
                    |vs: &mut Vec<u64>| {
                        let sum: u64 = vs.drain(..).sum();
                        vs.push(sum);
                    },
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
