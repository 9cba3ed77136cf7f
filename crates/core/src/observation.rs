//! Grouping raw extractions into the structure the fusion rounds operate
//! on: the **claim graph** — which provenances claim which triples.
//!
//! This is Stage I's shuffle (map by data item) plus the provenance
//! dimension-reduction of §4.1 — an *(Extractor, URL)* pair (or a coarser /
//! finer key, §4.3.1) becomes a dense integer id. The graph is built with
//! a **single** MapReduce pass ([`Grouped::build`]): the mapper emits the
//! full [`ProvenanceKey`] alongside each observation, and the dense sorted
//! ids are assigned in a post-reduce renumbering step, so each
//! extraction's provenance key is projected and hashed once.
//!
//! A [`Grouped`] is immutable and columnar (CSR): triples are *slots* in
//! data-item order, each with a run of provenance ids, plus the transpose
//! (each provenance's slots, ascending). Nothing in it changes between
//! fusion rounds or between presets of one granularity, so one graph
//! serves many runs ([`GroupedArtifact`]); accuracies, probabilities and
//! every other per-run value live in the run, not here.

use crate::fanout::run_tasks;
use kf_mapreduce::{map_reduce_combined_with_stats, Emitter, JobStats, MrConfig};
use kf_telemetry::{Trace, TraceReport};
use kf_types::{
    DataItem, Extraction, FxMixHashMap, FxMixHashSet, Granularity, ProvenanceKey, Triple, Value,
};
use std::ops::Range;
use std::sync::Mutex;

/// The claim graph of a batch at one granularity.
///
/// Slot `s` is one unique triple; item `i` owns the contiguous slots
/// [`Grouped::item_slots`]`(i)`, in value order, and items are sorted, so
/// slot order is canonical triple order.
#[derive(Debug, Clone, PartialEq)]
pub struct Grouped {
    /// Data items, sorted.
    items: Vec<DataItem>,
    /// Item `i`'s slots are `item_offsets[i]..item_offsets[i + 1]`.
    item_offsets: Vec<u32>,
    /// Per slot: the candidate value (sorted within an item).
    values: Vec<Value>,
    /// Per slot: distinct extractors supporting it (Fig. 18's second axis).
    n_extractors: Vec<u16>,
    /// Per slot: distinct pages supporting it (Fig. 7's axis).
    n_pages: Vec<u32>,
    /// Slot `s`'s provenances are `provs[slot_offsets[s]..slot_offsets[s + 1]]`.
    slot_offsets: Vec<u32>,
    /// Dense provenance ids, deduplicated and sorted within a slot.
    provs: Vec<u32>,
    /// Provenance keys by dense id, sorted.
    keys: Vec<ProvenanceKey>,
    /// Provenance `p`'s slots are `slots[prov_offsets[p]..prov_offsets[p + 1]]`.
    prov_offsets: Vec<u32>,
    /// The transpose of `provs`: each provenance's slots, ascending.
    slots: Vec<u32>,
}

/// Offsets into the flat columns are `u32`: 4 bytes per claim in each
/// direction is the whole point of the layout.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("claim graph exceeds u32 offsets")
}

/// Map contiguous chunks of `input`, one per worker, in parallel; results
/// come back in chunk order.
fn map_chunks<I: Sync, R: Send>(
    workers: usize,
    input: &[I],
    f: impl Fn(&[I]) -> R + Sync,
) -> Vec<R> {
    let chunk = input.len().div_ceil(workers.max(1)).max(1);
    let f = &f;
    run_tasks(input.chunks(chunk).map(|c| move || f(c)).collect())
}

impl Grouped {
    /// Build the claim graph of `batch` at `granularity` using the
    /// MapReduce engine — a single pass; see [`Grouped::build_with_stats`].
    pub fn build(batch: &[Extraction], granularity: Granularity, mr: &MrConfig) -> Grouped {
        Self::build_with_stats(batch, granularity, mr).0
    }

    /// [`Grouped::build`] variant that also returns the grouping job's
    /// execution counters (shuffle volume, peak resident records).
    ///
    /// The build is a **single** MapReduce pass: the mapper emits
    /// `(item, (value, ProvenanceKey, extractor, page))`, carrying the full
    /// provenance key through the shuffle, and the reducer deduplicates
    /// per-value support keyed by `ProvenanceKey`. Dense ids are assigned
    /// afterwards in a renumbering step over the distinct keys, sorted so
    /// the id space is deterministic.
    ///
    /// The pass registers a sort-and-deduplicate
    /// [`Combiner`](kf_mapreduce::Combiner): on the chunked/external
    /// shuffle path (`MrConfig::chunk_records` /
    /// `MrConfig::spill_threshold_records`), per-item observation buffers
    /// are sorted and exact duplicates dropped while waves merge and
    /// before partitions spill. The reducer re-sorts and deduplicates
    /// regardless, so output is byte-identical with or without the
    /// combiner — it only shrinks grouped residency and spilled bytes on
    /// duplicate-heavy corpora (the same `(triple, provenance)` seen from
    /// several pages or re-crawls).
    pub fn build_with_stats(
        batch: &[Extraction],
        granularity: Granularity,
        mr: &MrConfig,
    ) -> (Grouped, JobStats) {
        // ---- The single grouping pass --------------------------------------
        // The provenance key rides along with every observation in its
        // packed `u128` form (16 bytes through the shuffle instead of the
        // full Option-struct), projected and hashed once per extraction.
        type Obs = (Value, u128, u16, u32);
        /// One per-value header: `(value, len, n_extractors, n_pages)`;
        /// the value's `len` packed keys follow its predecessors' in the
        /// item's flat key buffer. Dense ids do not exist yet.
        type RawValues = Vec<(Value, u32, u16, u32)>;
        let (mut raw, stats) = map_reduce_combined_with_stats(
            mr,
            batch,
            |e: &Extraction, emit: &mut Emitter<DataItem, Obs>| {
                emit.emit(
                    e.triple.data_item(),
                    (
                        e.triple.object,
                        ProvenanceKey::at(granularity, &e.provenance, e.triple.predicate).pack(),
                        e.provenance.extractor.raw(),
                        e.provenance.page.raw(),
                    ),
                );
            },
            // Combiner: exact-duplicate observations collapse early. The
            // reducer below sorts and deduplicates anyway, so this is a
            // reducer-invariant rewrite (engine contract) — it only trims
            // the accumulators and the spill files.
            |observations: &mut Vec<Obs>| {
                observations.sort_unstable();
                observations.dedup();
            },
            |item, mut observations| {
                // Sort by (value, packed key, …): values come out sorted,
                // and each value's provenance keys form sorted runs that
                // deduplicate by adjacency — no per-value hash sets, and
                // one flat key buffer per item instead of one Vec per
                // value.
                observations.sort_unstable();
                let mut headers: RawValues = Vec::new();
                let mut flat: Vec<u128> = Vec::new();
                let mut exts: Vec<u16> = Vec::new();
                let mut pages: Vec<u32> = Vec::new();
                let mut i = 0;
                while i < observations.len() {
                    let value = observations[i].0;
                    let start = flat.len();
                    exts.clear();
                    pages.clear();
                    while i < observations.len() && observations[i].0 == value {
                        let (_, key, ext, page) = observations[i];
                        if flat.len() == start || *flat.last().unwrap() != key {
                            flat.push(key);
                        }
                        exts.push(ext);
                        pages.push(page);
                        i += 1;
                    }
                    exts.sort_unstable();
                    exts.dedup();
                    pages.sort_unstable();
                    pages.dedup();
                    headers.push((
                        value,
                        (flat.len() - start) as u32,
                        exts.len() as u16,
                        pages.len() as u32,
                    ));
                }
                vec![(*item, headers, flat)]
            },
        );
        // The engine only orders keys within a shuffle partition; sort
        // globally so output order is independent of the partition count.
        raw.sort_unstable_by_key(|g| g.0);

        // ---- Flatten into columns ------------------------------------------
        let mut g = Grouped {
            items: Vec::with_capacity(raw.len()),
            item_offsets: vec![0],
            values: Vec::new(),
            n_extractors: Vec::new(),
            n_pages: Vec::new(),
            slot_offsets: vec![0],
            provs: Vec::new(),
            keys: Vec::new(),
            prov_offsets: Vec::new(),
            slots: Vec::new(),
        };
        let mut packed: Vec<u128> = Vec::with_capacity(batch.len());
        let mut claims = 0usize;
        for (item, headers, flat) in raw {
            g.items.push(item);
            for (value, len, n_extractors, n_pages) in headers {
                g.values.push(value);
                g.n_extractors.push(n_extractors);
                g.n_pages.push(n_pages);
                claims += len as usize;
                g.slot_offsets.push(offset(claims));
            }
            g.item_offsets.push(offset(g.values.len()));
            packed.extend(flat);
        }

        // ---- Post-reduce renumbering ---------------------------------------
        // Distinct provenance keys, sorted, become the dense id space
        // (packed-word order equals key order within a granularity).
        // Because id assignment is monotone in key order, each slot's key
        // run (sorted by packed key) maps directly to a sorted id run.
        // Both sweeps fan out over contiguous chunks of the claim column.
        let mut sets = map_chunks(mr.workers, &packed, |chunk| {
            chunk.iter().copied().collect::<FxMixHashSet<u128>>()
        });
        let mut union = sets.pop().unwrap_or_default();
        for set in sets {
            union.extend(set);
        }
        let mut packed_keys: Vec<u128> = union.into_iter().collect();
        packed_keys.sort_unstable();
        let key_index: FxMixHashMap<u128, u32> = packed_keys
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, i as u32))
            .collect();
        g.keys = packed_keys
            .iter()
            .map(|&w| ProvenanceKey::unpack(w))
            .collect();
        g.provs = map_chunks(mr.workers, &packed, |chunk| {
            chunk.iter().map(|k| key_index[k]).collect::<Vec<u32>>()
        })
        .concat();

        // ---- Transpose -----------------------------------------------------
        // A counting sort by provenance: visiting slots in ascending order
        // leaves every provenance's slot list ascending — the order in
        // which a by-provenance shuffle of the slots would deliver them.
        g.prov_offsets = vec![0; g.keys.len() + 1];
        for &p in &g.provs {
            g.prov_offsets[p as usize + 1] += 1;
        }
        for p in 0..g.keys.len() {
            g.prov_offsets[p + 1] += g.prov_offsets[p];
        }
        let mut cursor = g.prov_offsets.clone();
        g.slots = vec![0; g.provs.len()];
        for slot in 0..g.values.len() {
            for &p in &g.provs[g.slot_offsets[slot] as usize..g.slot_offsets[slot + 1] as usize] {
                g.slots[cursor[p as usize] as usize] = slot as u32;
                cursor[p as usize] += 1;
            }
        }
        (g, stats)
    }

    /// Number of data items.
    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// Total number of unique triples (slots).
    pub fn n_triples(&self) -> usize {
        self.values.len()
    }

    /// Number of provenances at the graph's granularity.
    pub fn n_provenances(&self) -> usize {
        self.keys.len()
    }

    /// Number of `(triple, provenance)` claims — edges of the graph.
    pub fn n_claims(&self) -> usize {
        self.provs.len()
    }

    /// Data item `i` (items are sorted).
    pub fn item(&self, i: usize) -> DataItem {
        self.items[i]
    }

    /// The slots of item `i`: its candidate values, in value order.
    #[inline]
    pub fn item_slots(&self, i: usize) -> Range<usize> {
        self.item_offsets[i] as usize..self.item_offsets[i + 1] as usize
    }

    /// Claims on the items before `i` (`i` may be `n_items()`).
    pub fn claims_before_item(&self, i: usize) -> usize {
        self.slot_offsets[self.item_offsets[i] as usize] as usize
    }

    /// The triple in `slot`, whose data item is item `i`.
    pub fn triple(&self, i: usize, slot: usize) -> Triple {
        let item = self.items[i];
        Triple::new(item.subject, item.predicate, self.values[slot])
    }

    /// Distinct extractors supporting `slot`.
    pub fn n_extractors(&self, slot: usize) -> u16 {
        self.n_extractors[slot]
    }

    /// Distinct pages supporting `slot`.
    pub fn n_pages(&self, slot: usize) -> u32 {
        self.n_pages[slot]
    }

    /// Dense ids of the provenances claiming `slot` (deduplicated, sorted).
    #[inline]
    pub fn slot_provs(&self, slot: usize) -> &[u32] {
        &self.provs[self.slot_offsets[slot] as usize..self.slot_offsets[slot + 1] as usize]
    }

    /// Provenance keys by dense id, sorted.
    pub fn keys(&self) -> &[ProvenanceKey] {
        &self.keys
    }

    /// The slots provenance `p` claims, ascending.
    #[inline]
    pub fn prov_slots(&self, p: usize) -> &[u32] {
        &self.slots[self.prov_offsets[p] as usize..self.prov_offsets[p + 1] as usize]
    }

    /// Claims made by provenances before `p` (`p` may be
    /// `n_provenances()`).
    pub fn claims_before_prov(&self, p: usize) -> usize {
        self.prov_offsets[p] as usize
    }

    /// Number of unique triples provenance `p` supports (its *coverage* in
    /// §4.3.2 terms).
    pub fn support(&self, p: usize) -> u32 {
        self.prov_offsets[p + 1] - self.prov_offsets[p]
    }

    /// The claim columns `(slot_offsets, provs)` — what a
    /// [`ProvenanceAttribution`](crate::ProvenanceAttribution) copies.
    pub(crate) fn claim_columns(&self) -> (&[u32], &[u32]) {
        (&self.slot_offsets, &self.provs)
    }
}

/// A claim graph together with the record of the job that built it: one
/// build serves many fusion runs ([`Fuser::run_prebuilt`](crate::Fuser::run_prebuilt)),
/// and no run's output can tell whether it was the one that paid for it.
///
/// Every use replays the grouping job's counters into
/// `FusionOutput::stats` and its telemetry (span subtree, `mr.*`
/// counters, histograms) into the installed trace, exactly as if the job
/// had just run there; only the wall-clock is charged once, to the first
/// use.
#[derive(Debug)]
pub struct GroupedArtifact {
    grouped: Grouped,
    stats: JobStats,
    /// The grouping job's trace, rooted at `group`; quarantined once
    /// replayed.
    telemetry: Mutex<TraceReport>,
}

impl GroupedArtifact {
    /// Build the graph ([`Grouped::build_with_stats`]), recording the
    /// job's telemetry with it instead of into the installed trace.
    pub fn build(batch: &[Extraction], granularity: Granularity, mr: &MrConfig) -> Self {
        let trace = Trace::with_root("group");
        let (grouped, stats) = {
            let _recording = kf_telemetry::install(&trace);
            Grouped::build_with_stats(batch, granularity, mr)
        };
        GroupedArtifact {
            grouped,
            stats,
            telemetry: Mutex::new(trace.snapshot()),
        }
    }

    /// The graph.
    pub fn grouped(&self) -> &Grouped {
        &self.grouped
    }

    /// The grouping job's execution counters.
    pub fn stats(&self) -> JobStats {
        self.stats
    }

    /// Replay the grouping job's telemetry under the installed trace's
    /// open span.
    pub(crate) fn replay_telemetry(&self) {
        let mut telemetry = self.telemetry.lock().expect("a telemetry replay panicked");
        kf_telemetry::graft(&telemetry);
        telemetry.quarantine_timings();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kf_types::{EntityId, ExtractorId, PageId, PatternId, PredicateId, Provenance, SiteId};

    fn ext(s: u32, p: u32, o: u32, extractor: u16, page: u32) -> Extraction {
        Extraction::new(
            Triple::new(EntityId(s), PredicateId(p), Value::Entity(EntityId(o))),
            Provenance::new(
                ExtractorId(extractor),
                PageId(page),
                SiteId(page / 10),
                PatternId::NONE,
            ),
        )
    }

    fn build(batch: &[Extraction]) -> Grouped {
        Grouped::build(batch, Granularity::ExtractorPage, &MrConfig::sequential())
    }

    #[test]
    fn groups_by_item_and_value() {
        let batch = vec![
            ext(1, 1, 10, 0, 100),
            ext(1, 1, 10, 1, 101), // same triple, second provenance
            ext(1, 1, 11, 0, 100), // conflicting value
            ext(2, 1, 10, 0, 100), // different item
        ];
        let g = build(&batch);
        assert_eq!(g.n_items(), 2);
        assert_eq!(g.n_triples(), 3);
        assert_eq!(g.n_claims(), 4);
        assert_eq!(g.item(0), DataItem::new(EntityId(1), PredicateId(1)));
        assert_eq!(g.item_slots(0), 0..2);
        assert_eq!(g.item_slots(1), 2..3);
        // Values come out sorted, so slot 0 is the value 10.
        assert_eq!(g.triple(0, 0).object, Value::Entity(EntityId(10)));
        assert_eq!(g.slot_provs(0).len(), 2);
        assert_eq!(g.n_extractors(0), 2);
        assert_eq!(g.n_pages(0), 2);
        assert_eq!(g.slot_provs(1).len(), 1);
        assert_eq!(g.claims_before_item(1), 3);
    }

    #[test]
    fn duplicate_extractions_are_deduplicated() {
        // The same (triple, provenance) seen twice counts once.
        let batch = vec![ext(1, 1, 10, 0, 100), ext(1, 1, 10, 0, 100)];
        let g = build(&batch);
        assert_eq!(g.slot_provs(0), &[0]);
        assert_eq!(g.support(0), 1);
    }

    #[test]
    fn support_counts_unique_triples() {
        // Provenance (0, page 100) supports two different triples.
        let batch = vec![ext(1, 1, 10, 0, 100), ext(2, 1, 10, 0, 100)];
        let g = build(&batch);
        assert_eq!(g.n_provenances(), 1);
        assert_eq!(g.support(0), 2);
        assert_eq!(g.prov_slots(0), &[0, 1]);
    }

    #[test]
    fn transpose_lists_each_provenances_slots_ascending() {
        let batch: Vec<Extraction> = (0..600)
            .map(|i| ext(i % 29, i % 3, i % 7, (i % 4) as u16, i % 90))
            .collect();
        for mr in [MrConfig::sequential(), MrConfig::with_workers(5)] {
            let g = Grouped::build(&batch, Granularity::ExtractorPage, &mr);
            // Count every provenance's claims from the forward lists...
            let mut degree = vec![0u32; g.n_provenances()];
            for slot in 0..g.n_triples() {
                for &p in g.slot_provs(slot) {
                    degree[p as usize] += 1;
                    // ...and find each claim in the transpose.
                    assert!(g.prov_slots(p as usize).contains(&(slot as u32)));
                }
            }
            for (p, &claims) in degree.iter().enumerate() {
                assert_eq!(g.support(p), claims, "support is the degree of {p}");
                assert_eq!(g.prov_slots(p).len() as u32, claims);
                assert!(
                    g.prov_slots(p).windows(2).all(|w| w[0] < w[1]),
                    "slots of {p} not strictly ascending"
                );
                assert_eq!(
                    g.claims_before_prov(p + 1) - g.claims_before_prov(p),
                    claims as usize
                );
            }
            assert_eq!(g.claims_before_prov(g.n_provenances()), g.n_claims());
        }
    }

    #[test]
    fn granularity_merges_provenances() {
        // Two pages on the same site merge at site granularity.
        let batch = vec![ext(1, 1, 10, 0, 100), ext(1, 1, 10, 0, 101)];
        let page_g = Grouped::build(&batch, Granularity::ExtractorPage, &MrConfig::sequential());
        let site_g = Grouped::build(&batch, Granularity::ExtractorSite, &MrConfig::sequential());
        assert_eq!(page_g.n_provenances(), 2);
        assert_eq!(site_g.n_provenances(), 1);
        assert_eq!(page_g.slot_provs(0).len(), 2);
        assert_eq!(site_g.slot_provs(0).len(), 1);
        // Page-level detail (n_pages) survives the merge.
        assert_eq!(site_g.n_pages(0), 2);
    }

    #[test]
    fn groups_are_sorted_and_deterministic() {
        let batch: Vec<Extraction> = (0..200)
            .map(|i| ext(i % 13, i % 3, i % 7, (i % 4) as u16, i))
            .collect();
        let a = build(&batch);
        let b = Grouped::build(
            &batch,
            Granularity::ExtractorPage,
            &MrConfig::with_workers(7),
        );
        assert_eq!(a, b);
        // Sorted by data item, values sorted within an item, keys sorted.
        assert!((1..a.n_items()).all(|i| a.item(i - 1) < a.item(i)));
        for i in 0..a.n_items() {
            let values: Vec<Value> = a.item_slots(i).map(|s| a.triple(i, s).object).collect();
            assert!(values.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(a.keys().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_batch_builds_empty_grouping() {
        let g = build(&[]);
        assert_eq!((g.n_items(), g.n_triples(), g.n_provenances()), (0, 0, 0));
        assert_eq!(g.claims_before_item(0), 0);
        assert_eq!(g.claims_before_prov(0), 0);
    }

    #[test]
    fn chunked_build_matches_unchunked_with_bounded_peak() {
        let batch: Vec<Extraction> = (0..4_000)
            .map(|i| ext(i % 37, i % 4, i % 11, (i % 8) as u16, i % 250))
            .collect();
        let mr = MrConfig::with_workers(4);
        let (unchunked, base_stats) =
            Grouped::build_with_stats(&batch, Granularity::ExtractorPage, &mr);
        // Unchunked: the whole shuffle (one record per extraction) resident.
        assert_eq!(base_stats.peak_resident_records, batch.len() as u64);

        let chunked_mr = mr.with_chunk_records(512);
        let (chunked, chunk_stats) =
            Grouped::build_with_stats(&batch, Granularity::ExtractorPage, &chunked_mr);
        assert_eq!(unchunked, chunked);
        assert!(
            chunk_stats.peak_resident_records < base_stats.peak_resident_records,
            "peak {} not below unchunked {}",
            chunk_stats.peak_resident_records,
            base_stats.peak_resident_records
        );
        // Grouping emits exactly one record per input, so the bound is
        // tight up to one wave.
        assert!(chunk_stats.peak_resident_records <= 1_024);
    }

    #[test]
    fn spilled_build_matches_in_memory_with_bounded_grouped_peak() {
        let batch: Vec<Extraction> = (0..4_000)
            .map(|i| ext(i % 37, i % 4, i % 11, (i % 8) as u16, i % 250))
            .collect();
        let mr = MrConfig::with_workers(4);
        let (in_memory, base_stats) =
            Grouped::build_with_stats(&batch, Granularity::ExtractorPage, &mr);
        // Without spilling, every grouped observation waits in memory.
        assert_eq!(base_stats.peak_grouped_records, batch.len() as u64);
        assert_eq!(base_stats.spilled_bytes, 0);

        let spill_mr = mr.with_chunk_records(256).with_spill_threshold(1_024);
        let (spilled, spill_stats) =
            Grouped::build_with_stats(&batch, Granularity::ExtractorPage, &spill_mr);
        assert_eq!(in_memory, spilled, "spilled grouping must be identical");
        assert!(spill_stats.spilled_bytes > 0, "disk path not exercised");
        // Grouping emits one record per extraction and every wave (≤ 512)
        // fits under the threshold, so the pre-merge spill holds the line.
        assert!(
            spill_stats.peak_grouped_records <= 1_024,
            "grouped peak {} above the 1024-record threshold",
            spill_stats.peak_grouped_records
        );
    }

    #[test]
    fn combiner_shrinks_duplicate_heavy_shuffles() {
        // The same (triple, provenance) extracted 50×: the dedup combiner
        // collapses the duplicates while waves merge, so grouped residency
        // stays near the number of *distinct* observations.
        let batch: Vec<Extraction> = (0..5_000).map(|i| ext(i % 5, 1, 1, 0, i % 2)).collect();
        let (in_memory, _) =
            Grouped::build_with_stats(&batch, Granularity::ExtractorPage, &MrConfig::sequential());
        let (combined, stats) = Grouped::build_with_stats(
            &batch,
            Granularity::ExtractorPage,
            &MrConfig::sequential().with_chunk_records(200),
        );
        assert_eq!(in_memory, combined);
        // 10 distinct (item, value, prov) observations; without combining
        // the grouped peak would be the full 5,000.
        assert!(
            stats.peak_grouped_records < 500,
            "dedup combiner did not shrink the accumulators (peak {})",
            stats.peak_grouped_records
        );
    }

    #[test]
    fn artifact_replays_its_grouping_job_on_every_use() {
        let batch: Vec<Extraction> = (0..300)
            .map(|i| ext(i % 17, i % 2, i % 5, (i % 3) as u16, i % 40))
            .collect();
        let mr = MrConfig::sequential();
        // A build records nothing into the installed trace...
        let host = Trace::new();
        let artifact = {
            let _t = kf_telemetry::install(&host);
            GroupedArtifact::build(&batch, Granularity::ExtractorPage, &mr)
        };
        assert!(host.snapshot().counters.is_empty());
        assert_eq!(artifact.stats().map_input, batch.len() as u64);
        assert_eq!(
            artifact.grouped(),
            &Grouped::build(&batch, Granularity::ExtractorPage, &mr)
        );
        // ...every use does, identically up to wall-clock: the first use
        // is charged the build's time, later ones none.
        let uses: Vec<TraceReport> = (0..2)
            .map(|_| {
                let trace = Trace::new();
                {
                    let _t = kf_telemetry::install(&trace);
                    artifact.replay_telemetry();
                }
                trace.snapshot()
            })
            .collect();
        let group = |r: &TraceReport| r.root.child("group").expect("group span").clone();
        assert_eq!(group(&uses[0]).calls, 1);
        assert!(group(&uses[0]).child("shuffle").is_some());
        assert!(group(&uses[0]).total_ns > 0);
        assert_eq!(group(&uses[1]).total_ns, 0);
        let jobs = |r: &TraceReport| {
            r.counters
                .iter()
                .find(|c| c.name == "mr.jobs")
                .map(|c| c.value)
        };
        assert_eq!(jobs(&uses[0]), Some(1));
        let mut uses = uses;
        uses.iter_mut().for_each(TraceReport::quarantine_timings);
        assert_eq!(uses[0], uses[1]);
    }
}
