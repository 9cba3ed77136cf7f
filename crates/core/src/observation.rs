//! Grouping raw extractions into the structures the fusion rounds operate
//! on: the granularity-free grouped [`Claims`] of a batch and, projected
//! from them, the **claim graph** — which provenances claim which triples.
//!
//! This is Stage I's shuffle (map by data item) plus the provenance
//! dimension-reduction of §4.1 — an *(Extractor, URL)* pair (or a coarser /
//! finer key, §4.3.1) becomes a dense integer id. The batch is shuffled
//! **once** ([`Claims::build`], one typed sort): each extraction becomes
//! one fixed-width record of its data item, value and raw [`Provenance`],
//! the records are sorted by item, and each item's run folds straight
//! into columns that leave every triple its sorted, distinct provenances. A
//! granularity only decides how a provenance is *named*, so a claim graph
//! is a projection kernel over those columns ([`Claims::project`]): key
//! each claim with [`ProvenanceKey::at`], deduplicate within the triple,
//! number the distinct keys densely in sorted order, transpose — no
//! second shuffle, however many granularities are compared.
//!
//! A [`Grouped`] is immutable and columnar (CSR): triples are *slots* in
//! data-item order, each with a run of provenance ids, plus the transpose
//! (each provenance's slots, ascending). Nothing in it changes between
//! fusion rounds or between presets of one granularity, so one graph
//! serves many runs; accuracies, probabilities and every other per-run
//! value live in the run, not here.

use kf_mapreduce::{merge_runs, run_tasks, write_run, JobStats, MrConfig, SpillDir};
use kf_telemetry::{Trace, TraceReport};
use kf_types::{
    DataItem, EntityId, Extraction, ExtractorId, FxMixHashMap, GoldStandard, Granularity, Label,
    Numeric, PageId, PatternId, PredicateId, Provenance, ProvenanceKey, SiteId, StrId, Triple,
    Value,
};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Offsets into the flat columns are `u32`: 4 bytes per claim in each
/// direction is the whole point of the layout.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("claim graph exceeds u32 offsets")
}

/// One extraction as the grouping sort orders it: five words, compared
/// as plain integers — its data item ([`DataItem::encode`]), its value
/// (variant tag, then payload, in [`Value`]'s order) and its raw
/// provenance (extractor and page, then site and pattern, in
/// [`Provenance`]'s order). 40 bytes; sorting records sorts items, each
/// item's values and each value's provenances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Record([u64; 5]);

impl Record {
    fn new(item: DataItem, value: Value, p: &Provenance) -> Record {
        let (tag, payload) = match value {
            Value::Entity(e) => (0, u64::from(e.0)),
            Value::Str(s) => (1, u64::from(s.0)),
            // Flipping the sign bit orders an `i64` as a `u64`.
            Value::Num(n) => (2, n.0 as u64 ^ 1 << 63),
        };
        Record([
            item.encode(),
            tag,
            payload,
            u64::from(p.extractor.0) << 32 | u64::from(p.page.0),
            u64::from(p.site.0) << 32 | u64::from(p.pattern.0),
        ])
    }

    fn of(e: &Extraction) -> Record {
        Record::new(e.triple.data_item(), e.triple.object, &e.provenance)
    }

    fn item(&self) -> DataItem {
        let w = self.0[0];
        DataItem::new(EntityId((w >> 32) as u32), PredicateId(w as u32))
    }

    fn value(&self) -> Value {
        let payload = self.0[2];
        match self.0[1] {
            0 => Value::Entity(EntityId(payload as u32)),
            1 => Value::Str(StrId(payload as u32)),
            _ => Value::Num(Numeric((payload ^ 1 << 63) as i64)),
        }
    }

    fn provenance(&self) -> Provenance {
        let [.., ep, sp] = self.0;
        let (extractor, page) = (ExtractorId((ep >> 32) as u16), PageId(ep as u32));
        Provenance::new(
            extractor,
            page,
            SiteId((sp >> 32) as u32),
            PatternId(sp as u32),
        )
    }

    fn same_item(&self, other: &Record) -> bool {
        self.0[0] == other.0[0]
    }

    fn same_value(&self, other: &Record) -> bool {
        self.0[..3] == other.0[..3]
    }
}

/// Sort `records` by data item (unstably: the fold sorts each item's run
/// itself).
fn sort_by_item(records: &mut [Record]) {
    records.sort_unstable_by_key(|r| r.0[0]);
}

/// The grouping shuffle: materialise `batch` as [`Record`]s in waves of
/// `chunk_records` extractions (`0`: the spill threshold, or the whole
/// batch as one wave when that is `0` too), appending each wave to one
/// pending buffer, and sort the buffer and write it as one run file
/// whenever the next wave would push it past `spill_threshold_records`.
///
/// Writes the shuffle counters of `stats` (`map_output`, both peaks,
/// `spilled_bytes`, `spill_runs`) and returns the buffer sorted by item
/// when nothing spilled — else empty, its tail written as the last of
/// the returned runs — the number of waves, and the spill directory
/// guard. Runs are written on the calling thread, inside the wave's
/// `spill` span, so a write failure panics where the job was called.
fn shuffle(
    batch: &[Extraction],
    mr: &MrConfig,
    stats: &mut JobStats,
) -> (Vec<Record>, Vec<PathBuf>, u64, Option<SpillDir>) {
    let threshold = mr.spill_threshold_records;
    let wave_len = match (mr.chunk_records, threshold) {
        (0, 0) => batch.len(),
        (0, t) => t,
        (c, _) => c,
    };
    let resident = match threshold {
        0 => batch.len(),
        t => t.max(wave_len).min(batch.len()),
    };
    let mut pending: Vec<Record> = Vec::with_capacity(resident);
    let mut runs: Vec<PathBuf> = Vec::new();
    // Created on the first spill: a job under the threshold never touches
    // the filesystem.
    let mut spill_dir: Option<SpillDir> = None;
    let mut waves = 0u64;
    for wave in batch.chunks(wave_len.max(1)) {
        let _wave = kf_telemetry::span("wave");
        waves += 1;
        let records = wave.len() as u64;
        kf_telemetry::record_value("mr.wave.records", records);
        stats.map_output += records;
        stats.peak_resident_records = stats.peak_resident_records.max(records);
        // Spill BEFORE the append that would cross the threshold, so the
        // pending buffer never exceeds it while a wave fits under it.
        if threshold > 0 && !pending.is_empty() && pending.len() + wave.len() > threshold {
            let _spill = kf_telemetry::span("spill");
            let start = Instant::now();
            let dir = spill_dir.get_or_insert_with(|| SpillDir::create(mr.spill_dir));
            spill(&mut pending, dir, &mut runs, stats);
            kf_telemetry::record_time("mr.wave.spill_ns", start.elapsed().as_nanos() as u64);
        }
        let _map = kf_telemetry::span("map");
        let start = Instant::now();
        pending.extend(wave.iter().map(Record::of));
        kf_telemetry::record_time("mr.wave.map_ns", start.elapsed().as_nanos() as u64);
        stats.peak_grouped_records = stats.peak_grouped_records.max(pending.len() as u64);
    }

    // A job that spilled flushes its tail as one final run (the latest
    // input, so it merges last); one that never spilled sorts in memory.
    let _flush = kf_telemetry::span("flush");
    match &spill_dir {
        Some(dir) => {
            if !pending.is_empty() {
                spill(&mut pending, dir, &mut runs, stats);
            }
            pending = Vec::new();
        }
        None => sort_by_item(&mut pending),
    }
    (pending, runs, waves, spill_dir)
}

/// One extraction's value and raw provenance as a spill run stores them,
/// grouped under its data item.
type Observation = (Value, Provenance);

/// Sort `pending` by item and write it as the job's next run file, one
/// `(item, observations)` group per item; empty it, adding the run's path
/// to `runs` and its bytes to `stats`.
fn spill(pending: &mut Vec<Record>, dir: &SpillDir, runs: &mut Vec<PathBuf>, stats: &mut JobStats) {
    sort_by_item(pending);
    let path = dir.run_path(runs.len());
    let groups = pending.chunk_by(Record::same_item).map(|run| {
        let observations = run.iter().map(|r| (r.value(), r.provenance()));
        (run[0].item(), observations.collect::<Vec<Observation>>())
    });
    stats.spilled_bytes += write_run(&path, groups);
    stats.spill_runs += 1;
    runs.push(path);
    pending.clear();
}

/// The granularity-free per-slot columns of a batch: its sorted data
/// items, each item's run of slots, and per slot the candidate value and
/// its support counts. [`Claims::build`] fills the table once; the claims
/// and every claim graph projected from them hold that one copy
/// ([`Claims::table`], [`Grouped::table`]).
///
/// Slot `s` is one unique triple; item `i` owns the contiguous slots
/// [`SlotTable::item_slots`]`(i)`, in value order, and items are sorted, so
/// slot order is canonical triple order.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotTable {
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
    /// Per slot: extraction records carrying it, duplicates included.
    n_records: Vec<u32>,
}

impl SlotTable {
    /// Number of data items.
    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// Total number of unique triples (slots).
    pub fn n_triples(&self) -> usize {
        self.values.len()
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

    /// The item owning `slot`: a binary search over the item offsets.
    pub fn item_of(&self, slot: usize) -> usize {
        self.item_offsets.partition_point(|&o| o as usize <= slot) - 1
    }

    /// The triple in `slot`, whose data item is item `i`.
    pub fn triple(&self, i: usize, slot: usize) -> Triple {
        let item = self.items[i];
        Triple::new(item.subject, item.predicate, self.values[slot])
    }

    /// The slot of `triple`, if the batch extracted it: a binary search
    /// over the sorted items, then over that item's sorted values (the
    /// grouping sort's order is [`DataItem`]'s and [`Value`]'s).
    pub fn slot_of(&self, triple: &Triple) -> Option<usize> {
        let i = self.items.binary_search(&triple.data_item()).ok()?;
        let slots = self.item_slots(i);
        let at = self.values[slots.clone()]
            .binary_search(&triple.object)
            .ok()?;
        Some(slots.start + at)
    }

    /// Distinct extractors supporting `slot`.
    pub fn n_extractors(&self, slot: usize) -> u16 {
        self.n_extractors[slot]
    }

    /// Distinct pages supporting `slot`.
    pub fn n_pages(&self, slot: usize) -> u32 {
        self.n_pages[slot]
    }

    /// Extraction records carrying `slot`'s triple, duplicates included.
    pub fn n_records(&self, slot: usize) -> u32 {
        self.n_records[slot]
    }

    /// Every slot's LCWA label against `gold`, in slot order — slot by
    /// slot what [`GoldStandard::label`] answers for [`SlotTable::triple`],
    /// from one [`GoldStandard::values`] probe per data item. A label
    /// belongs to the triple, not to a method: a run labels its claims
    /// once, and every preset's evaluation (and POPACCU+'s gold seeding)
    /// reads this column.
    pub fn labels(&self, gold: &GoldStandard) -> Vec<Label> {
        let mut labels = Vec::with_capacity(self.n_triples());
        for (i, item) in self.items.iter().enumerate() {
            let values = &self.values[self.item_slots(i)];
            match gold.values(item) {
                None => labels.resize(labels.len() + values.len(), Label::Unknown),
                Some(truths) => labels.extend(values.iter().map(|v| match truths.contains(v) {
                    true => Label::True,
                    false => Label::False,
                })),
            }
        }
        labels
    }
}

/// The grouped extractions of a batch, before a provenance granularity is
/// chosen: every data item's candidate values ([`Claims::table`]) and, per
/// value, the sorted distinct raw provenances that extracted it — the
/// output of the **one** shuffle a corpus needs, with the record of the
/// job that ran it ([`Claims::trace`], [`Claims::stats`]). Claim graphs at
/// any granularity ([`Claims::project`]), the diagnosis support index and
/// the corpus summary counts are all projections of these columns, and
/// every graph shares the claims' [`SlotTable`], so all have the same
/// slots. The claims are the one owner of that grouped state: they keep
/// each granularity's graph once projected ([`Claims::graph`]).
#[derive(Debug)]
pub struct Claims {
    /// The per-slot columns, shared with every projection.
    table: Arc<SlotTable>,
    /// Slot `s`'s provenances are `provs[slot_offsets[s]..slot_offsets[s + 1]]`.
    slot_offsets: Vec<u32>,
    /// Raw provenances, distinct and sorted within a slot.
    provs: Vec<Provenance>,
    /// The grouping job's trace, rooted at `group`.
    trace: TraceReport,
    /// The grouping job's execution counters.
    stats: JobStats,
    /// The claim graph of each granularity, in [`Granularity::ALL`] order.
    graphs: [OnceLock<Arc<Grouped>>; Granularity::ALL.len()],
}

/// The columns [`Claims::build`] folds sorted records into, item by item.
struct Fold {
    table: SlotTable,
    slot_offsets: Vec<u32>,
    provs: Vec<Provenance>,
    /// Scratch: the open slot's distinct pages, left empty between slots.
    pages: Vec<PageId>,
}

impl Fold {
    /// Fold one item's `run` of records, sorted, into the columns: one
    /// slot per distinct value, with its distinct provenances, the
    /// distinct extractors and pages among them, and its record count.
    fn push_item(&mut self, run: &[Record]) {
        self.table.items.push(run[0].item());
        let mut previous: Option<&Record> = None;
        for r in run {
            let same_value = previous.is_some_and(|q| q.same_value(r));
            if !same_value {
                if previous.is_some() {
                    self.close_slot();
                }
                self.table.values.push(r.value());
                self.table.n_extractors.push(0);
                self.table.n_records.push(0);
            }
            // Sorted by value, then provenance: a value's distinct
            // provenances, and among them its extractors, are runs, and an
            // exact duplicate is a record equal to its predecessor.
            if previous != Some(r) {
                let p = r.provenance();
                let same_extractor =
                    same_value && self.provs.last().map(|q| q.extractor) == Some(p.extractor);
                let n_extractors = self.table.n_extractors.last_mut();
                *n_extractors.expect("an open slot") += u16::from(!same_extractor);
                self.provs.push(p);
                self.pages.push(p.page);
            }
            *self.table.n_records.last_mut().expect("an open slot") += 1;
            previous = Some(r);
        }
        self.close_slot();
        let table = &mut self.table;
        table.item_offsets.push(offset(table.values.len()));
    }

    /// Close the open slot: count its distinct pages (then clear them)
    /// and end its provenance run.
    fn close_slot(&mut self) {
        self.pages.sort_unstable();
        self.pages.dedup();
        self.table.n_pages.push(self.pages.len() as u32);
        self.pages.clear();
        self.slot_offsets.push(offset(self.provs.len()));
    }
}

impl Claims {
    /// Group `batch` with one typed sort, keeping the job's telemetry with
    /// the result ([`Claims::trace`]) instead of recording it into the
    /// installed trace: the claims may be built on any thread, and whoever
    /// owns the trace the job ran for grafts it there, once. A caller that
    /// owns the calling thread's trace builds with
    /// [`Claims::build_recorded`] instead.
    ///
    /// Each extraction becomes one fixed-width record of five integer
    /// words — its item, value and raw provenance; the records are sorted
    /// by item and each item's run, sorted by value and provenance, is
    /// folded straight into the columns (`Fold::push_item`): values come
    /// out sorted and each value's provenances form a sorted run that
    /// deduplicates by adjacency. An exact duplicate (same value, same
    /// provenance) is an equal neighbour: one more record of the claim,
    /// not another claim.
    ///
    /// `mr` shapes the job as it shapes a MapReduce shuffle, and its
    /// [`JobStats`] and `mr.*` counters mean what they mean there: records
    /// are materialised in waves of `chunk_records` extractions (the whole
    /// batch as one wave when `0`), and past `spill_threshold_records` the
    /// pending records are sorted and written as one run file; a job that
    /// spilled folds the k-way merge of its runs ([`merge_runs`]). The
    /// columns are the same for every configuration.
    pub fn build(batch: &[Extraction], mr: &MrConfig) -> Claims {
        let trace = Trace::with_root("group");
        let recording = kf_telemetry::install(&trace);
        let mut stats = JobStats::new(batch.len() as u64);
        // The spill directory guard outlives the reduce that reads its runs.
        let (mut sorted, runs, waves, _spill_dir) = {
            let _shuffle = kf_telemetry::span("shuffle");
            shuffle(batch, mr, &mut stats)
        };

        let reduce = kf_telemetry::span("reduce");
        let mut fold = Fold {
            table: SlotTable {
                items: Vec::new(),
                item_offsets: vec![0],
                values: Vec::new(),
                n_extractors: Vec::new(),
                n_pages: Vec::new(),
                n_records: Vec::new(),
            },
            slot_offsets: vec![0],
            provs: Vec::with_capacity(batch.len()),
            pages: Vec::new(),
        };
        if runs.is_empty() {
            for run in sorted.chunk_by_mut(Record::same_item) {
                run.sort_unstable();
                fold.push_item(run);
            }
        } else {
            // A merged item's observations arrive run by run: re-sort them,
            // as records, in one buffer every item reuses.
            for (item, observations) in merge_runs::<DataItem, Observation>(&runs) {
                let records = observations.iter().map(|(v, p)| Record::new(item, *v, p));
                sorted.clear();
                sorted.extend(records);
                sorted.sort_unstable();
                fold.push_item(&sorted);
            }
        }
        drop(sorted);
        drop(reduce);

        let n_items = fold.table.n_items() as u64;
        stats.reduce_keys = n_items;
        stats.reduce_output = n_items;
        trace.add("mr.jobs", 1);
        trace.add("mr.map_input", stats.map_input);
        trace.add("mr.map_output", stats.map_output);
        trace.add("mr.reduce_keys", stats.reduce_keys);
        trace.add("mr.reduce_output", stats.reduce_output);
        trace.add("mr.waves", waves);
        trace.add("mr.spill_runs", stats.spill_runs);
        trace.add("mr.spilled_bytes", stats.spilled_bytes);
        trace.record_max("mr.peak_resident_records", stats.peak_resident_records);
        trace.record_max("mr.peak_grouped_records", stats.peak_grouped_records);
        drop(recording);
        Claims {
            table: Arc::new(fold.table),
            slot_offsets: fold.slot_offsets,
            provs: fold.provs,
            trace: trace.snapshot(),
            stats,
            graphs: Default::default(),
        }
    }

    /// [`Claims::build`] for a caller that owns the calling thread's
    /// trace: the job's record is grafted there, once, as a `group` span
    /// under the innermost open one.
    pub fn build_recorded(batch: &[Extraction], mr: &MrConfig) -> Claims {
        let claims = Claims::build(batch, mr);
        kf_telemetry::graft(claims.trace());
        claims
    }

    /// The claim graph of these claims at `granularity` — a kernel over
    /// the columns, not a job: every claim is keyed with
    /// [`ProvenanceKey::at`] (in its packed `u128` form) and each slot's
    /// keys sorted and deduplicated, since provenances distinct in full
    /// may share a key; the distinct keys, sorted, become the dense id
    /// space; a counting sort by provenance builds the transpose.
    pub fn project(&self, granularity: Granularity) -> Grouped {
        // ---- Key every claim -----------------------------------------------
        let mut packed: Vec<u128> = Vec::with_capacity(self.provs.len());
        let mut slot_offsets = Vec::with_capacity(self.slot_offsets.len());
        slot_offsets.push(0);
        let mut run: Vec<u128> = Vec::new();
        let table = &*self.table;
        for (i, item) in table.items.iter().enumerate() {
            for slot in table.item_slots(i) {
                let keys = self.slot_provenances(slot).iter();
                run.clear();
                run.extend(keys.map(|p| ProvenanceKey::at(granularity, p, item.predicate).pack()));
                run.sort_unstable();
                run.dedup();
                packed.extend_from_slice(&run);
                slot_offsets.push(offset(packed.len()));
            }
        }

        // ---- Renumbering ---------------------------------------------------
        // Distinct provenance keys, sorted, become the dense id space
        // (packed-word order equals key order within a granularity): one
        // hash pass numbers the keys as they first appear, sorting the
        // distinct ones ranks them, and the ranks replace the first-seen
        // numbers. Because id assignment is monotone in key order, each
        // slot's key run (sorted by packed key) becomes a sorted id run.
        let mut first_seen: FxMixHashMap<u128, u32> = FxMixHashMap::default();
        let mut provs: Vec<u32> = Vec::with_capacity(packed.len());
        for &key in &packed {
            let next = first_seen.len() as u32;
            provs.push(*first_seen.entry(key).or_insert(next));
        }
        let mut packed_keys: Vec<(u128, u32)> = first_seen.into_iter().collect();
        packed_keys.sort_unstable();
        let mut rank = vec![0u32; packed_keys.len()];
        for (id, &(_, seen)) in packed_keys.iter().enumerate() {
            rank[seen as usize] = id as u32;
        }
        provs.iter_mut().for_each(|p| *p = rank[*p as usize]);
        let keys: Vec<ProvenanceKey> = packed_keys
            .iter()
            .map(|&(key, _)| ProvenanceKey::unpack(key))
            .collect();

        // ---- Transpose -----------------------------------------------------
        // A counting sort by provenance: visiting slots in ascending order
        // leaves every provenance's slot list ascending — the order in
        // which a by-provenance shuffle of the slots would deliver them.
        let mut prov_offsets = vec![0; keys.len() + 1];
        for &p in &provs {
            prov_offsets[p as usize + 1] += 1;
        }
        for p in 0..keys.len() {
            prov_offsets[p + 1] += prov_offsets[p];
        }
        let mut cursor = prov_offsets.clone();
        let mut slots = vec![0; provs.len()];
        for slot in 0..table.n_triples() {
            for &p in &provs[slot_offsets[slot] as usize..slot_offsets[slot + 1] as usize] {
                slots[cursor[p as usize] as usize] = slot as u32;
                cursor[p as usize] += 1;
            }
        }
        Grouped {
            table: Arc::clone(&self.table),
            slot_offsets,
            provs,
            keys,
            prov_offsets,
            slots,
        }
    }

    /// The claim graph at `granularity`, projected on first use.
    pub fn graph(&self, granularity: Granularity) -> &Arc<Grouped> {
        let cell = self.graph_cell(granularity);
        cell.get_or_init(|| Arc::new(self.project(granularity)))
    }

    fn graph_cell(&self, granularity: Granularity) -> &OnceLock<Arc<Grouped>> {
        let at = Granularity::ALL.iter().position(|&g| g == granularity);
        &self.graphs[at.expect("every granularity is in ALL")]
    }

    /// Project each of `granularities` that has no [`Claims::graph`] yet,
    /// side by side on `workers` threads, under one `project` span of the
    /// calling thread's trace (none when every graph exists).
    pub fn project_graphs(
        &self,
        granularities: impl IntoIterator<Item = Granularity>,
        workers: usize,
    ) {
        let mut missing: Vec<Granularity> = Vec::new();
        for g in granularities {
            if self.graph_cell(g).get().is_none() && !missing.contains(&g) {
                missing.push(g);
            }
        }
        if missing.is_empty() {
            return;
        }
        let _span = kf_telemetry::span("project");
        let project = |g: Granularity| move || self.graph(g);
        run_tasks(workers, missing.into_iter().map(project).collect());
    }

    /// The per-slot columns: items, values and support counts.
    pub fn table(&self) -> &Arc<SlotTable> {
        &self.table
    }

    /// The raw provenances that extracted `slot`'s triple, distinct and
    /// sorted (by extractor, then page).
    pub fn slot_provenances(&self, slot: usize) -> &[Provenance] {
        &self.provs[self.slot_offsets[slot] as usize..self.slot_offsets[slot + 1] as usize]
    }

    /// The grouping job's execution counters.
    pub fn stats(&self) -> JobStats {
        self.stats
    }

    /// The grouping job's trace, rooted at `group` — what the caller that
    /// built these claims grafts into its own trace
    /// ([`kf_telemetry::graft`]), exactly once.
    pub fn trace(&self) -> &TraceReport {
        &self.trace
    }
}

/// The claim graph of a batch at one granularity: the granularity's
/// columns — each slot's dense provenance ids, the ids' keys and the
/// transpose — over the [`SlotTable`] of the claims it was projected from,
/// which it shares ([`Grouped::table`]). Equality compares columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Grouped {
    /// The per-slot columns, shared with the claims and their other
    /// projections.
    table: Arc<SlotTable>,
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

impl Grouped {
    /// Build the claim graph of `batch` at `granularity`: group the batch
    /// ([`Claims::build_recorded`], one typed sort, recorded into the
    /// installed trace) and project the result ([`Claims::project`])
    /// under a `project` span.
    pub fn build(batch: &[Extraction], granularity: Granularity, mr: &MrConfig) -> Grouped {
        let claims = Claims::build_recorded(batch, mr);
        let _span = kf_telemetry::span("project");
        claims.project(granularity)
    }

    /// The per-slot columns: items, values and support counts.
    pub fn table(&self) -> &Arc<SlotTable> {
        &self.table
    }

    /// Total number of unique triples (slots).
    pub fn n_triples(&self) -> usize {
        self.table.n_triples()
    }

    /// Number of provenances at the graph's granularity.
    pub fn n_provenances(&self) -> usize {
        self.keys.len()
    }

    /// Number of `(triple, provenance)` claims — edges of the graph.
    pub fn n_claims(&self) -> usize {
        self.provs.len()
    }

    /// Claims on the items before `i` (`i` may be the table's `n_items()`).
    pub fn claims_before_item(&self, i: usize) -> usize {
        self.slot_offsets[self.table.item_offsets[i] as usize] as usize
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

    /// The *(extractor, page)* graph of `batch` and its grouping job's
    /// counters.
    fn graph_and_stats(batch: &[Extraction], mr: &MrConfig) -> (Grouped, JobStats) {
        let claims = Claims::build(batch, mr);
        (claims.project(Granularity::ExtractorPage), claims.stats())
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
        let table = g.table();
        assert_eq!(table.n_items(), 2);
        assert_eq!(g.n_triples(), 3);
        assert_eq!(g.n_claims(), 4);
        assert_eq!(table.item(0), DataItem::new(EntityId(1), PredicateId(1)));
        assert_eq!(table.item_slots(0), 0..2);
        assert_eq!(table.item_slots(1), 2..3);
        // Values come out sorted, so slot 0 is the value 10.
        assert_eq!(table.triple(0, 0).object, Value::Entity(EntityId(10)));
        assert_eq!(g.slot_provs(0).len(), 2);
        assert_eq!(table.n_extractors(0), 2);
        assert_eq!(table.n_pages(0), 2);
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
        assert_eq!(site_g.table().n_pages(0), 2);
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
        let table = a.table();
        assert!((1..table.n_items()).all(|i| table.item(i - 1) < table.item(i)));
        for i in 0..table.n_items() {
            let values: Vec<Value> = table
                .item_slots(i)
                .map(|s| table.triple(i, s).object)
                .collect();
            assert!(values.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(a.keys().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_batch_builds_empty_grouping() {
        let g = build(&[]);
        assert_eq!(g.table().n_items(), 0);
        assert_eq!((g.n_triples(), g.n_provenances()), (0, 0));
        assert_eq!(g.claims_before_item(0), 0);
        assert_eq!(g.claims_before_prov(0), 0);
    }

    #[test]
    fn chunked_build_matches_one_wave_with_bounded_peak() {
        let batch: Vec<Extraction> = (0..4_000)
            .map(|i| ext(i % 37, i % 4, i % 11, (i % 8) as u16, i % 250))
            .collect();
        let mr = MrConfig::with_workers(4);
        let (one_wave, base_stats) = graph_and_stats(&batch, &mr);
        // One wave: the whole shuffle (one record per extraction) resident.
        assert_eq!(base_stats.peak_resident_records, batch.len() as u64);

        let chunked_mr = mr.with_chunk_records(512);
        let (chunked, chunk_stats) = graph_and_stats(&batch, &chunked_mr);
        assert_eq!(one_wave, chunked);
        assert!(
            chunk_stats.peak_resident_records < base_stats.peak_resident_records,
            "peak {} not below one wave's {}",
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
        let (in_memory, base_stats) = graph_and_stats(&batch, &mr);
        // Without spilling, every grouped observation waits in memory.
        assert_eq!(base_stats.peak_grouped_records, batch.len() as u64);
        assert_eq!(base_stats.spilled_bytes, 0);

        let spill_mr = mr.with_chunk_records(256).with_spill_threshold(1_024);
        let (spilled, spill_stats) = graph_and_stats(&batch, &spill_mr);
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
    fn claims_keep_raw_provenances_and_record_counts() {
        // Triple (1, 1, 10): extractor 0 on page 100 twice and on page 101
        // (same site), extractor 1 on page 100.
        let batch = vec![
            ext(1, 1, 10, 0, 100),
            ext(1, 1, 10, 0, 100),
            ext(1, 1, 10, 0, 101),
            ext(1, 1, 10, 1, 100),
            ext(1, 1, 11, 0, 100),
        ];
        let claims = Claims::build(&batch, &MrConfig::sequential());
        let table = claims.table();
        assert_eq!((table.n_items(), table.n_triples()), (1, 2));
        assert_eq!(table.item_slots(0), 0..2);
        assert_eq!(table.triple(0, 1), batch[4].triple);
        let distinct = [
            batch[0].provenance,
            batch[2].provenance,
            batch[3].provenance,
        ];
        assert_eq!(claims.slot_provenances(0), &distinct);
        assert_eq!((table.n_records(0), table.n_pages(0)), (4, 2));
        assert_eq!((table.n_records(1), table.n_pages(1)), (1, 1));
        // Site granularity merges the two pages of extractor 0.
        let site = claims.project(Granularity::ExtractorSite);
        assert_eq!(site.slot_provs(0).len(), 2);
        let site_table = site.table();
        assert_eq!((site_table.n_extractors(0), site_table.n_pages(0)), (2, 2));
        assert_eq!(
            claims
                .project(Granularity::ExtractorPage)
                .slot_provs(0)
                .len(),
            3
        );
    }

    #[test]
    fn record_counts_survive_the_combiner_past_a_u16() {
        // 70,000 copies of one extraction: more records of one claim than
        // a `u16` counts, through every shuffle path, and the per-slot
        // count is exact.
        assert_eq!(std::mem::size_of::<Record>(), 40);
        let mut batch = vec![ext(1, 1, 10, 0, 100); 70_000];
        batch.push(ext(1, 1, 10, 2, 7));
        for mr in [
            MrConfig::sequential(),
            MrConfig::with_workers(3).with_chunk_records(9_000),
            MrConfig::sequential()
                .with_chunk_records(20_000)
                .with_spill_threshold(1),
        ] {
            let claims = Claims::build(&batch, &mr);
            assert_eq!(claims.table().n_records(0), 70_001, "{mr:?}");
            assert_eq!(claims.slot_provenances(0).len(), 2);
            assert_eq!(
                claims
                    .project(Granularity::ExtractorPage)
                    .table()
                    .n_extractors(0),
                2
            );
        }
    }

    #[test]
    fn claims_carry_their_job_record_and_a_build_records_nothing() {
        let batch: Vec<Extraction> = (0..300)
            .map(|i| ext(i % 17, i % 2, i % 5, (i % 3) as u16, i % 40))
            .collect();
        let mr = MrConfig::sequential();
        // A build records nothing into the installed trace...
        let host = Trace::new();
        let claims = {
            let _t = kf_telemetry::install(&host);
            Claims::build(&batch, &mr)
        };
        assert!(host.snapshot().counters.is_empty());
        assert!(host.snapshot().root.children.is_empty());
        // ...the claims keep the job's record: the `group` span tree, its
        // counters, its stats.
        let record = claims.trace();
        assert_eq!((record.root.name.as_str(), record.root.calls), ("group", 1));
        assert!(record.root.child("shuffle").is_some());
        assert!(record.root.total_ns > 0);
        assert_eq!(counter(record, "mr.jobs"), Some(1));
        assert_eq!(counter(record, "mr.map_input"), Some(batch.len() as u64));
        assert_eq!(claims.stats().map_input, batch.len() as u64);
    }

    fn counter(r: &TraceReport, name: &str) -> Option<u64> {
        r.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    #[test]
    fn slot_of_agrees_with_a_linear_scan() {
        // Every value variant on shared items, negative numerics (whose
        // record payload flips the sign bit) and zero among them.
        let objects = [
            Value::Entity(EntityId(0)),
            Value::Entity(EntityId(u32::MAX)),
            Value::Str(StrId(3)),
            Value::Str(StrId(0)),
            Value::Num(Numeric(-5_000)),
            Value::Num(Numeric(i64::MIN)),
            Value::Num(Numeric(0)),
            Value::Num(Numeric(-1)),
            Value::Num(Numeric(i64::MAX)),
            Value::Num(Numeric(42)),
        ];
        let batch: Vec<Extraction> = (0..400u32)
            .map(|i| {
                let mut e = ext(i % 13, i % 3, 0, (i % 4) as u16, i % 50);
                e.triple.object = objects[(i as usize * 7) % objects.len()];
                e
            })
            .collect();
        let claims = Claims::build(&batch, &MrConfig::with_workers(2));
        let table = claims.table();
        let slot_triples: Vec<Triple> = (0..table.n_items())
            .flat_map(|i| table.item_slots(i).map(move |s| (i, s)))
            .map(|(i, slot)| table.triple(i, slot))
            .collect();
        let scan = |t: &Triple| slot_triples.iter().position(|s| s == t);
        for (slot, triple) in slot_triples.iter().enumerate() {
            assert_eq!(table.slot_of(triple), Some(slot), "{triple:?}");
        }
        // Absent triples: unknown subjects and predicates, and every
        // variant on known items without that value.
        let mut probed_absent = 0;
        for s in 0..15 {
            for p in 0..4 {
                for &object in objects.iter().chain(&[Value::Num(Numeric(-2))]) {
                    let t = Triple::new(EntityId(s), PredicateId(p), object);
                    let scanned = scan(&t);
                    assert_eq!(table.slot_of(&t), scanned, "{t:?}");
                    probed_absent += usize::from(scanned.is_none());
                }
            }
        }
        assert!(probed_absent > 0);
        let empty = Claims::build(&[], &MrConfig::sequential());
        assert_eq!(empty.table().slot_of(&slot_triples[0]), None);
    }

    #[test]
    fn projections_of_shared_claims_are_the_artifacts_built_alone() {
        let batch: Vec<Extraction> = (0..900)
            .map(|i| ext(i % 31, i % 3, i % 6, (i % 4) as u16, i % 70))
            .collect();
        let mr = MrConfig::with_workers(2);
        let claims = Claims::build(&batch, &mr);
        let mut shared_record = claims.trace().clone();
        shared_record.quarantine_timings();
        for granularity in Granularity::ALL {
            // A graph built alone grafts its own grouping job into the
            // caller's trace, once, next to its projection...
            let host = Trace::new();
            let alone = {
                let _t = kf_telemetry::install(&host);
                Grouped::build(&batch, granularity, &mr)
            };
            assert_eq!(claims.project(granularity), alone, "{granularity:?}");
            let mut recorded = host.snapshot();
            recorded.quarantine_timings();
            let spans: Vec<_> = recorded.root.children.iter().map(|c| &c.name).collect();
            assert_eq!(spans, ["group", "project"], "{granularity:?}");
            // ...which is the record the shared claims carry.
            assert_eq!(recorded.root.children[0], shared_record.root);
            assert_eq!(recorded.counters, shared_record.counters);
        }
    }
}
