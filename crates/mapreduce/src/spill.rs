//! Sorted run files and the one k-way merge.
//!
//! When [`MrConfig::spill_threshold_records`](crate::MrConfig) is set and
//! the pending buffer plus the next wave would cross it, the engine sorts
//! the buffer and writes it as one **run file**, then frees the memory.
//! A run holds the buffer's groups, sorted by key, encoded with
//! [`kf_types::KvCodec`]:
//!
//! ```text
//! run file := frame*
//! frame    := u64 LE byte-length, then that many bytes:
//!             KvCodec(key) ++ KvCodec(Vec<value>)
//! ```
//!
//! The frame prefix lets the reader pull one group at a time into a
//! reusable buffer, so merging R runs holds at most R groups in memory
//! (plus the one being reduced). [`merge`] is the one k-way merge of the
//! engine, over any key-sorted source of `(key, values)` groups: the
//! sorted chunks of the buffer a spill writes, the chunk slices of an
//! in-memory key range, and the runs a spilled job reduces. Sources are
//! individually key-sorted, and within a key earlier sources hold earlier
//! input — so visiting them in order reconstructs exactly the sorted-key,
//! input-ordered view. Output is byte-identical either way.
//!
//! All spill files live in one job-scoped temp directory ([`SpillDir`])
//! that is removed on drop — including the unwind when a mapper or
//! reducer panics mid-job.

use kf_types::KvCodec;
use std::fs::File;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A job-scoped spill directory, deleted (recursively) on drop.
///
/// The directory name embeds the process id and a process-global sequence
/// number, so concurrent jobs — and concurrent processes sharing a temp
/// dir — never collide.
pub(crate) struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Create a fresh spill directory under `base` (the OS temp dir when
    /// `None` — see [`MrConfig::spill_dir`](crate::MrConfig)).
    pub(crate) fn create(base: Option<&str>) -> SpillDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let base = base.map_or_else(std::env::temp_dir, PathBuf::from);
        let path = base.join(format!(
            "kf-mr-spill-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("cannot create spill dir {}: {e}", path.display()));
        SpillDir { path }
    }

    /// Path for the job's run file number `seq`.
    pub(crate) fn run_path(&self, seq: usize) -> PathBuf {
        self.path.join(format!("run{seq}.bin"))
    }

    #[cfg(test)]
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Best effort: a failure to clean the temp dir must not turn a
        // successful job (or an already-unwinding panic) into an abort.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Write key-sorted `groups` to a run file, one frame each.
///
/// Returns the number of bytes written (frames plus their length
/// prefixes). Goes through the shared
/// [`kf_types::checkpoint::write_atomic`] helper (temp file + rename), so
/// a process killed mid-spill never leaves a truncated run under the run
/// path — the k-way merge either sees a complete run or no file at all.
pub(crate) fn write_run<K: KvCodec, V: KvCodec>(
    path: &Path,
    groups: impl Iterator<Item = (K, Vec<V>)>,
) -> u64 {
    let err = |e| panic!("cannot write spill run {}: {e}", path.display());
    kf_types::checkpoint::write_atomic(path, |writer| {
        let mut frame = Vec::new();
        let mut bytes = 0u64;
        for (key, values) in groups {
            frame.clear();
            key.encode(&mut frame);
            values.encode(&mut frame);
            writer.write_all(&(frame.len() as u64).to_le_bytes())?;
            writer.write_all(&frame)?;
            bytes += 8 + frame.len() as u64;
        }
        Ok(bytes)
    })
    .unwrap_or_else(err)
}

/// Streaming reader over one run file: yields `(key, values)` groups in
/// the order they were written (sorted by key), holding one frame in
/// memory at a time. Panics, naming the run, when it cannot be read or a
/// frame is truncated, corrupt or has bytes left over after the values.
pub(crate) struct RunReader<K, V> {
    reader: BufReader<File>,
    path: PathBuf,
    frame: Vec<u8>,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K: KvCodec, V: KvCodec> RunReader<K, V> {
    pub(crate) fn open(path: &Path) -> Self {
        let file = File::open(path)
            .unwrap_or_else(|e| panic!("cannot open spill run {}: {e}", path.display()));
        RunReader {
            reader: BufReader::new(file),
            path: path.to_path_buf(),
            frame: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// The next group, or `None` at end of run, with the failure the
    /// iterator panics with.
    fn read_group(&mut self) -> Result<Option<(K, Vec<V>)>, String> {
        let path = self.path.display();
        let mut len_bytes = [0u8; 8];
        match self.reader.read_exact(&mut len_bytes) {
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
            r => r.map_err(|e| format!("cannot read spill run {path}: {e}"))?,
        }
        let len = u64::from_le_bytes(len_bytes);
        // The prefix is the run's claim, not its bytes: grow the frame
        // with what arrives, never past the claim.
        self.frame.clear();
        let mut payload = (&mut self.reader).take(len);
        loop {
            let chunk = payload
                .fill_buf()
                .map_err(|e| format!("cannot read spill run {path}: {e}"))?;
            if chunk.is_empty() {
                break;
            }
            let n = chunk.len();
            self.frame.extend_from_slice(chunk);
            payload.consume(n);
        }
        if (self.frame.len() as u64) < len {
            let got = self.frame.len();
            return Err(format!("truncated spill run {path}: {got} of {len} bytes"));
        }
        let mut input = &self.frame[..];
        let key =
            K::decode(&mut input).ok_or_else(|| format!("corrupt spill frame (key) in {path}"))?;
        let values = Vec::<V>::decode(&mut input)
            .ok_or_else(|| format!("corrupt spill frame (values) in {path}"))?;
        if !input.is_empty() {
            let n = input.len();
            return Err(format!(
                "trailing bytes in spill frame ({n} after the values) in {path}"
            ));
        }
        Ok(Some((key, values)))
    }
}

impl<K: KvCodec, V: KvCodec> Iterator for RunReader<K, V> {
    type Item = (K, Vec<V>);

    fn next(&mut self) -> Option<(K, Vec<V>)> {
        self.read_group().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The k-way merge of key-sorted group sources; see [`merge`].
pub(crate) struct Merge<K, V, S> {
    sources: Vec<S>,
    heads: Vec<Option<(K, Vec<V>)>>,
}

/// Merge key-sorted `sources` — each yielding a key at most once — into
/// one stream of `(key, values)` groups in ascending key order, a key's
/// values concatenated across sources in source order.
pub(crate) fn merge<K, V, S>(sources: impl IntoIterator<Item = S>) -> Merge<K, V, S>
where
    K: Ord,
    S: Iterator<Item = (K, Vec<V>)>,
{
    let mut sources: Vec<S> = sources.into_iter().collect();
    let heads = sources.iter_mut().map(Iterator::next).collect();
    Merge { sources, heads }
}

impl<K: Ord, V, S: Iterator<Item = (K, Vec<V>)>> Iterator for Merge<K, V, S> {
    type Item = (K, Vec<V>);

    fn next(&mut self) -> Option<(K, Vec<V>)> {
        // The earliest source holding the smallest key wins; `<` keeps the
        // lowest index on ties.
        let mut min: Option<(usize, &K)> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Some((key, _)) = head {
                if min.is_none_or(|(_, smallest)| key < smallest) {
                    min = Some((i, key));
                }
            }
        }
        let (mi, _) = min?;
        let (key, mut values) = self.heads[mi].take().expect("the smallest head is set");
        self.heads[mi] = self.sources[mi].next();
        // Later sources hold later input: append in ascending source order.
        for j in mi + 1..self.heads.len() {
            if let Some((_, more)) = self.heads[j].take_if(|(k, _)| *k == key) {
                values.extend(more);
                self.heads[j] = self.sources[j].next();
            }
        }
        Some((key, values))
    }
}

/// Reduce each group in order. Returns the reduced output and the number
/// of distinct keys.
pub(crate) fn reduce_groups<K, V, O>(
    groups: impl Iterator<Item = (K, Vec<V>)>,
    reducer: &impl Fn(&K, Vec<V>) -> Vec<O>,
) -> (Vec<O>, u64) {
    let mut out = Vec::new();
    let mut n_keys = 0u64;
    for (key, values) in groups {
        n_keys += 1;
        out.extend(reducer(&key, values));
    }
    (out, n_keys)
}

/// The most run files a single merge opens simultaneously. Heavy spills
/// (tiny thresholds over big corpora) can accumulate hundreds of runs —
/// without a cap, the merge's open descriptors blow through common
/// 1024-FD ulimits. Runs beyond the cap are first *compacted*: contiguous
/// batches merge into one run each (preserving key order and, within a
/// key, run order) until the count fits.
const MAX_MERGE_FANIN: usize = 64;

/// K-way merge a job's runs, in spill order, and reduce each key: the
/// reducer sees each key exactly once with its values in input order —
/// the same view the in-memory path delivers. At most
/// [`MAX_MERGE_FANIN`] files are open at once; larger run sets are
/// compacted first. Returns the reduced output and the number of distinct
/// keys.
pub(crate) fn merge_reduce_runs<K, V, O, R>(runs: &[PathBuf], reducer: &R) -> (Vec<O>, u64)
where
    K: KvCodec + Ord,
    V: KvCodec,
    R: Fn(&K, Vec<V>) -> Vec<O>,
{
    let compacted = compact_to_fanin::<K, V>(runs);
    let active: &[PathBuf] = compacted.as_deref().unwrap_or(runs);
    reduce_groups(
        merge(active.iter().map(|p| RunReader::<K, V>::open(p))),
        reducer,
    )
}

/// Repeatedly merge contiguous batches of ≤ [`MAX_MERGE_FANIN`] runs into
/// single compacted runs until the count fits one merge pass. Batches are
/// contiguous and visited in order, so a compacted run keeps keys sorted
/// and per-key values in original run (= input) order; consumed inputs
/// are deleted eagerly to bound disk usage. Returns `None` when `runs`
/// already fits.
fn compact_to_fanin<K, V>(runs: &[PathBuf]) -> Option<Vec<PathBuf>>
where
    K: KvCodec + Ord,
    V: KvCodec,
{
    if runs.len() <= MAX_MERGE_FANIN {
        return None;
    }
    let mut current: Vec<PathBuf> = runs.to_vec();
    let mut level = 0usize;
    while current.len() > MAX_MERGE_FANIN {
        let mut next = Vec::with_capacity(current.len().div_ceil(MAX_MERGE_FANIN));
        for (i, batch) in current.chunks(MAX_MERGE_FANIN).enumerate() {
            if batch.len() == 1 {
                next.push(batch[0].clone());
                continue;
            }
            // Unique per (level, batch): batch[0] differs across batches
            // of one level and gains a fresh suffix at the next.
            let mut name = batch[0].file_name().expect("run has a name").to_os_string();
            name.push(format!(".m{level}-{i}"));
            let out_path = batch[0].with_file_name(name);
            write_run(
                &out_path,
                merge(batch.iter().map(|p| RunReader::<K, V>::open(p))),
            );
            for consumed in batch {
                let _ = std::fs::remove_file(consumed);
            }
            next.push(out_path);
        }
        current = next;
        level += 1;
    }
    Some(current)
}

/// The largest-allocation probe the hostile-bytes tests share.
#[cfg(test)]
#[path = "../../types/tests/support/largest_alloc.rs"]
mod largest_alloc;

#[cfg(test)]
mod tests {
    use super::*;
    use largest_alloc::largest_during;
    use std::sync::Mutex;

    #[test]
    fn spill_dir_is_removed_on_drop() {
        let dir = SpillDir::create(None);
        let path = dir.path().to_path_buf();
        std::fs::write(dir.run_path(0), b"payload").unwrap();
        assert!(path.is_dir());
        drop(dir);
        assert!(!path.exists(), "spill dir must be removed on drop");
    }

    #[test]
    fn spill_dir_is_removed_during_unwind() {
        // The guard must clean up even when a panic unwinds through the
        // scope holding it — the engine relies on this when a reducer
        // panics mid-job.
        let observed: Mutex<Option<PathBuf>> = Mutex::new(None);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let dir = SpillDir::create(None);
            *observed.lock().unwrap() = Some(dir.path().to_path_buf());
            std::fs::write(dir.run_path(1), b"x").unwrap();
            panic!("reducer panicked");
        }));
        assert!(result.is_err());
        let path = observed.lock().unwrap().take().unwrap();
        assert!(!path.exists(), "spill dir must be removed during unwind");
    }

    #[test]
    fn run_roundtrip_preserves_groups_and_order() {
        let dir = SpillDir::create(None);
        let groups: Vec<(u32, Vec<u64>)> = vec![(1, vec![10, 11]), (5, vec![50]), (9, Vec::new())];
        let path = dir.run_path(0);
        let bytes = write_run(&path, groups.iter().cloned());
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let back: Vec<(u32, Vec<u64>)> = RunReader::open(&path).collect();
        assert_eq!(back, groups);
    }

    #[test]
    fn run_writes_are_atomic_and_leave_no_temp_litter() {
        let dir = SpillDir::create(None);
        let path = dir.run_path(0);
        write_run(&path, [(1u32, vec![1u64]), (2, vec![2])].into_iter());
        // Overwrite with different content: the rename must fully replace.
        let bytes = write_run(&path, [(9u32, vec![9u64])].into_iter());
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let mut reader: RunReader<u32, u64> = RunReader::open(&path);
        assert_eq!(reader.next(), Some((9, vec![9])));
        assert_eq!(reader.next(), None);
        // Only the run file itself lives in the spill dir — no `.tmp-`
        // staging files survive the rename.
        let names: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["run0.bin".to_string()], "{names:?}");
    }

    #[test]
    fn merge_interleaves_runs_in_key_then_run_order() {
        let dir = SpillDir::create(None);
        // Run 0 (earlier input): keys 1, 3. Run 1: keys 1, 2.
        let r0 = dir.run_path(0);
        let r1 = dir.run_path(1);
        write_run(&r0, [(1u32, vec![10u64, 11]), (3, vec![30])].into_iter());
        write_run(&r1, [(1u32, vec![12u64]), (2, vec![20])].into_iter());
        let (out, n_keys) = merge_reduce_runs(&[r0, r1], &|k: &u32, vs: Vec<u64>| vec![(*k, vs)]);
        assert_eq!(n_keys, 3);
        assert_eq!(
            out,
            vec![
                (1, vec![10, 11, 12]), // run-0 values before run-1 values
                (2, vec![20]),
                (3, vec![30]),
            ]
        );
    }

    #[test]
    fn merge_beyond_fanin_compacts_and_preserves_order() {
        // 150 runs (> 2×MAX_MERGE_FANIN): the merge must compact down to
        // a bounded fan-in while keeping keys sorted and per-key values
        // in run order, and must delete the consumed inputs.
        let dir = SpillDir::create(None);
        let n_runs = 150usize;
        let runs: Vec<PathBuf> = (0..n_runs)
            .map(|r| {
                let path = dir.run_path(r);
                // Every run holds keys r%5 and 1000+r, values tagged with
                // the run index so cross-run order is observable.
                write_run(
                    &path,
                    [
                        ((r % 5) as u32, vec![r as u64]),
                        (1_000 + r as u32, vec![r as u64]),
                    ]
                    .into_iter(),
                );
                path
            })
            .collect();
        let (out, n_keys) = merge_reduce_runs(&runs, &|k: &u32, vs: Vec<u64>| vec![(*k, vs)]);
        assert_eq!(n_keys, 5 + n_runs as u64);
        // Keys ascend overall.
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        // Shared keys concatenate values in run (= input) order.
        for key in 0u32..5 {
            let (_, vs) = out.iter().find(|(k, _)| *k == key).unwrap();
            let expected: Vec<u64> = (0..n_runs as u64).filter(|r| r % 5 == key as u64).collect();
            assert_eq!(vs, &expected, "key {key}");
        }
        // Consumed level-0 runs were removed; only compacted files remain.
        let remaining = std::fs::read_dir(dir.path()).unwrap().count();
        assert!(
            remaining <= MAX_MERGE_FANIN,
            "{remaining} files left after compaction"
        );
    }

    #[test]
    fn a_truncated_run_is_refused_without_trusting_its_prefix() {
        // One frame whose prefix claims 64 MiB over a few hundred bytes.
        let dir = SpillDir::create(None);
        let path = dir.run_path(0);
        let mut bytes = (64u64 << 20).to_le_bytes().to_vec();
        bytes.extend((0..600u32).map(|i| i as u8));
        std::fs::write(&path, &bytes).unwrap();

        let mut reader: RunReader<u32, u64> = RunReader::open(&path);
        let (read, largest) = largest_during(|| reader.read_group());
        let err = read.unwrap_err();
        assert!(err.starts_with("truncated spill run"), "{err}");
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(
            largest <= bytes.len(),
            "reading a {}-byte run allocated {largest} bytes at once",
            bytes.len()
        );

        let mut reader: RunReader<u32, u64> = RunReader::open(&path);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reader.next()));
        let message = panic.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(*message, err);
    }

    #[test]
    fn a_frame_with_trailing_bytes_is_refused() {
        // A well-formed group followed, inside its frame, by three stray
        // bytes that the length prefix counts.
        let dir = SpillDir::create(None);
        let path = dir.run_path(0);
        let mut frame = Vec::new();
        7u32.encode(&mut frame);
        vec![70u64, 71].encode(&mut frame);
        frame.extend_from_slice(&[1, 2, 3]);
        let mut bytes = (frame.len() as u64).to_le_bytes().to_vec();
        bytes.extend_from_slice(&frame);
        std::fs::write(&path, &bytes).unwrap();

        let mut reader: RunReader<u32, u64> = RunReader::open(&path);
        let err = reader.read_group().unwrap_err();
        assert!(err.starts_with("trailing bytes in spill frame"), "{err}");
        assert!(err.contains(&path.display().to_string()), "{err}");
    }

    #[test]
    fn every_cut_and_bit_flip_of_a_run_reads_without_panicking_or_overallocating() {
        let dir = SpillDir::create(None);
        let path = dir.run_path(0);
        let groups: Vec<(String, Vec<u64>)> = vec![
            ("alpha".into(), vec![1, 2, 3]),
            ("beta".into(), Vec::new()),
            ("gamma".into(), (0..24).map(|i| i * 0x0101_0101).collect()),
        ];
        write_run(&path, groups.iter().cloned());
        let valid = std::fs::read(&path).unwrap();
        let cuts = (0..valid.len()).map(|at| valid[..at].to_vec());
        let flips = (0..valid.len() * 8).map(|bit| {
            let mut bytes = valid.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            bytes
        });
        for (case, bytes) in cuts.chain(flips).enumerate() {
            std::fs::write(&path, &bytes).unwrap();
            let mut reader: RunReader<String, u64> = RunReader::open(&path);
            let (_, largest) = largest_during(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    while let Ok(Some(_)) = reader.read_group() {}
                }))
                .unwrap_or_else(|_| panic!("case {case}: reading the run panicked"))
            });
            assert!(
                largest <= valid.len(),
                "case {case}: a {}-byte run allocated {largest} bytes at once",
                valid.len()
            );
        }
    }

    #[test]
    fn merge_of_empty_run_list_is_empty() {
        let (out, n_keys) = merge_reduce_runs::<u32, u64, u32, _>(&[], &|k, _| vec![*k]);
        assert!(out.is_empty());
        assert_eq!(n_keys, 0);
    }
}
