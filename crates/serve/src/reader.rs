//! `KbReader`: the concurrent, zero-copy query surface over a loaded
//! [`FusedKb`].
//!
//! One KB arena is loaded once and wrapped in an [`Arc`] together with
//! the item table derived from it; every [`KbReader`] clone shares both.
//! The KB is immutable after load, so the reader is [`Sync`] by
//! construction — no locks, no interior mutability, and any number of
//! threads can query one reader (or cheap clones of it) concurrently with
//! answers identical to a single-threaded run.
//!
//! # The point-query path
//!
//! `belief`, `lookup` and `drilldown` all start with one probe of the
//! **item table**: an open-addressed `u32` table over the stored item
//! index (`slot = item + 1`, `0` = empty), keyed by a multiplicative hash
//! of `subject << 32 | predicate`, linear probing. Its capacity is the
//! power of two ≥ 2 × `n_items` (never below 2), so the load factor is at
//! most 0.5: a probe always reaches an empty slot, and the expected chain
//! is under two slots. Every candidate slot is confirmed against the
//! stored `item_subjects` / `item_predicates` columns, so a hash
//! collision costs a step, never a wrong answer. `belief` is the probe
//! plus the item's two offsets; `lookup` / `drilldown` then search the
//! item's own row run (objects ascend inside it) by typed [`Value`](kf_types::Value)
//! comparison — the payload column is not order-preserving for negative
//! numerics. `top_k` is a binary search of the (few) predicate ids and a
//! slice of the precomputed ranking.
//!
//! The table is *derived*: built by [`KbReader::new`] from columns
//! [`FusedKb`]'s decode-time validation has already accepted (item keys
//! strictly ascending, hence distinct), never written to the checkpoint.
//! The file format, `FusedKb` equality and the hostile-bytes surface
//! therefore do not know it exists; the price is one pass over the item
//! columns per open (≈ 8 B and a few ns per item).
//!
//! The hot read path allocates nothing: answers are [`Copy`] row views
//! ([`TripleView`], [`ProvSupport`]) or borrowed slices of the arena
//! ([`Belief`], [`TopK`], [`Drilldown`]). Telemetry is counters
//! (`serve.query`, `serve.topk`, per-index hit/miss) on the installed
//! trace — each query looks at the thread's trace slot once, so serving
//! without a trace pays one atomic-free branch per query — plus an
//! optional [`ServeMetrics`] recorder attached with
//! [`KbReader::with_metrics`]: per-kind latency and result-size
//! histograms recorded into preallocated per-thread shards, also
//! allocation-free.

use crate::kb::{label_from_tag, FusedKb};
use crate::metrics::{MetricTimer, QueryKind, ServeMetrics};
use kf_types::checkpoint::CheckpointError;
use kf_types::{DataItem, Label, PredicateId, ProvenanceKey, Triple};
use std::path::Path;
use std::sync::Arc;

/// A shareable, `Sync` handle over one loaded [`FusedKb`] arena.
#[derive(Debug, Clone)]
pub struct KbReader {
    loaded: Arc<Loaded>,
    metrics: Option<Arc<ServeMetrics>>,
}

/// What every clone of a reader shares: the arena and the item table
/// derived from it (see the [module docs](self)).
#[derive(Debug)]
struct Loaded {
    kb: FusedKb,
    /// `item index + 1` per occupied slot, `0` = empty; power-of-two
    /// length ≥ 2 × `n_items`.
    slots: Box<[u32]>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
}

/// One served triple row, copied out of the columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripleView {
    /// Row index in canonical triple order.
    pub row: u32,
    /// The triple.
    pub triple: Triple,
    /// The fuser's raw probability.
    pub raw: f64,
    /// Calibrated confidence (see [`crate::kb::calibrate`]).
    pub calibrated: f64,
    /// Gold-standard LCWA label at build time.
    pub label: Label,
    /// Distinct supporting pages.
    pub n_pages: u32,
    /// Distinct supporting extractors.
    pub n_extractors: u16,
    /// True when the probability came from the mean-accuracy fallback.
    pub fallback: bool,
}

/// The belief distribution of one `(subject, predicate)` item: its
/// triple rows, in canonical (object-ascending) order.
#[derive(Debug, Clone, Copy)]
pub struct Belief<'a> {
    kb: &'a FusedKb,
    start: usize,
    end: usize,
}

/// The top-k ranked triples of one predicate, most confident first.
#[derive(Debug, Clone, Copy)]
pub struct TopK<'a> {
    kb: &'a FusedKb,
    rows: &'a [u32],
}

/// Provenance drill-down of one triple: which provenances support it,
/// at what final learned accuracy.
#[derive(Debug, Clone, Copy)]
pub struct Drilldown<'a> {
    kb: &'a FusedKb,
    row: u32,
    ids: &'a [u32],
}

/// One supporting provenance, resolved from the registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProvSupport {
    /// Dense provenance id.
    pub id: u32,
    /// The provenance key at the run's granularity.
    pub key: ProvenanceKey,
    /// Final (post-iteration) learned accuracy.
    pub accuracy: f64,
    /// Whether the accuracy was ever re-estimated from data.
    pub evaluated: bool,
}

/// Binary search: first index in `lo..hi` for which `less` is false.
#[inline]
fn lower_bound(mut lo: usize, mut hi: usize, mut less: impl FnMut(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if less(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Count one finished query on the installed trace, if there is one: the
/// thread's trace slot is consulted once per query, however many counters
/// the query bumps.
#[inline]
fn count(counters: &[&'static str]) {
    if let Some(trace) = kf_telemetry::current() {
        for name in counters {
            trace.add(name, 1);
        }
    }
}

/// 2^64 / φ, odd: consecutive keys land far apart in the top bits.
const ITEM_HASH_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiplicative hash of an item key; the table uses its top bits.
#[inline]
fn item_hash(subject: u32, predicate: u32) -> u64 {
    ((subject as u64) << 32 | predicate as u64).wrapping_mul(ITEM_HASH_MULTIPLIER)
}

impl Loaded {
    fn new(kb: FusedKb) -> Loaded {
        // At least two slots: one item (or none) still leaves an empty
        // slot to end a probe on, and the shift stays below 64.
        let capacity = (2 * kb.n_items()).next_power_of_two().max(2);
        let shift = 64 - capacity.trailing_zeros();
        let mut slots = vec![0u32; capacity].into_boxed_slice();
        for (i, (&s, &p)) in kb.item_subjects.iter().zip(&kb.item_predicates).enumerate() {
            let mut at = (item_hash(s, p) >> shift) as usize;
            while slots[at] != 0 {
                at = (at + 1) & (capacity - 1);
            }
            // `i < n_items ≤ n_triples ≤ u32::MAX` (offsets are `u32`).
            slots[at] = i as u32 + 1;
        }
        Loaded { kb, slots, shift }
    }

    /// The one probe every point query starts with: the stored item index
    /// of `(subject, predicate)`.
    #[inline]
    fn find_item(&self, subject: u32, predicate: u32) -> Option<usize> {
        let kb = &self.kb;
        let mask = self.slots.len() - 1;
        let mut at = (item_hash(subject, predicate) >> self.shift) as usize;
        loop {
            // Load factor ≤ 0.5: an empty slot always ends the chain.
            let i = self.slots[at].checked_sub(1)? as usize;
            if kb.item_subjects[i] == subject && kb.item_predicates[i] == predicate {
                return Some(i);
            }
            at = (at + 1) & mask;
        }
    }

    /// The item's row range in the triple columns.
    #[inline]
    fn item_rows(&self, item: usize) -> (usize, usize) {
        let offsets = &self.kb.item_offsets;
        (offsets[item] as usize, offsets[item + 1] as usize)
    }

    fn find_row(&self, triple: &Triple) -> Option<u32> {
        let kb = &self.kb;
        let item = self.find_item(triple.subject.0, triple.predicate.0)?;
        let (start, end) = self.item_rows(item);
        // The object payload column is not order-preserving for negative
        // numerics, so comparisons reconstruct the typed value.
        let row = lower_bound(start, end, |j| kb.object_at(j) < triple.object);
        (row < end && kb.object_at(row) == triple.object).then_some(row as u32)
    }
}

impl KbReader {
    /// Wrap an in-memory KB (builds the item table: one pass over the
    /// item columns).
    pub fn new(kb: FusedKb) -> Self {
        KbReader {
            loaded: Arc::new(Loaded::new(kb)),
            metrics: None,
        }
    }

    /// Load a KB checkpoint and wrap it.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Ok(Self::new(FusedKb::load(path)?))
    }

    /// Attach a live metrics recorder: every query records its latency,
    /// outcome and result size into `metrics`. Clones of this reader
    /// share the recorder.
    pub fn with_metrics(mut self, metrics: Arc<ServeMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The attached recorder, when metrics are enabled.
    pub fn metrics(&self) -> Option<&Arc<ServeMetrics>> {
        self.metrics.as_ref()
    }

    /// The underlying arena.
    pub fn kb(&self) -> &FusedKb {
        &self.loaded.kb
    }

    /// Copy out the row view at `row` (callers get rows from the index
    /// views below).
    #[inline]
    pub fn view(&self, row: u32) -> TripleView {
        view_at(self.kb(), row)
    }

    /// The belief distribution of `(subject, predicate)`, or `None` when
    /// the KB has no prediction for the item.
    pub fn belief(&self, item: DataItem) -> Option<Belief<'_>> {
        let timer = MetricTimer::start(self.metrics.as_deref(), QueryKind::Belief);
        let Some(i) = self.loaded.find_item(item.subject.0, item.predicate.0) else {
            count(&["serve.query", "serve.miss.item"]);
            timer.finish(false, 0);
            return None;
        };
        count(&["serve.query", "serve.hit.item"]);
        let (start, end) = self.loaded.item_rows(i);
        let belief = Belief {
            kb: self.kb(),
            start,
            end,
        };
        timer.finish(true, belief.len() as u64);
        Some(belief)
    }

    /// The `k` most confident triples for `predicate` (calibrated
    /// descending, ties in canonical triple order), or `None` when the
    /// KB serves no triple of that predicate.
    pub fn top_k(&self, predicate: PredicateId, k: usize) -> Option<TopK<'_>> {
        let timer = MetricTimer::start(self.metrics.as_deref(), QueryKind::TopK);
        let kb = self.kb();
        match kb.pred_ids.binary_search(&predicate.0) {
            Ok(i) => {
                count(&["serve.query", "serve.topk", "serve.hit.pred"]);
                let start = kb.pred_offsets[i] as usize;
                let end = kb.pred_offsets[i + 1] as usize;
                let end = start + k.min(end - start);
                let top = TopK {
                    kb,
                    rows: &kb.rank[start..end],
                };
                timer.finish(true, top.len() as u64);
                Some(top)
            }
            Err(_) => {
                count(&["serve.query", "serve.topk", "serve.miss.pred"]);
                timer.finish(false, 0);
                None
            }
        }
    }

    /// The served row for an exact triple, or `None` when the KB does
    /// not predict it.
    pub fn lookup(&self, triple: &Triple) -> Option<TripleView> {
        let timer = MetricTimer::start(self.metrics.as_deref(), QueryKind::Lookup);
        let Some(row) = self.loaded.find_row(triple) else {
            count(&["serve.query", "serve.miss.triple"]);
            timer.finish(false, 0);
            return None;
        };
        count(&["serve.query", "serve.hit.triple"]);
        timer.finish(true, 1);
        Some(view_at(self.kb(), row))
    }

    /// Provenance drill-down for an exact triple: every supporting
    /// provenance with its final learned accuracy.
    pub fn drilldown(&self, triple: &Triple) -> Option<Drilldown<'_>> {
        let timer = MetricTimer::start(self.metrics.as_deref(), QueryKind::Drilldown);
        let Some(row) = self.loaded.find_row(triple) else {
            count(&["serve.query", "serve.drilldown", "serve.miss.triple"]);
            timer.finish(false, 0);
            return None;
        };
        count(&["serve.query", "serve.drilldown", "serve.hit.triple"]);
        let kb = self.kb();
        let start = kb.prov_offsets[row as usize] as usize;
        let end = kb.prov_offsets[row as usize + 1] as usize;
        let drill = Drilldown {
            kb,
            row,
            ids: &kb.prov_ids[start..end],
        };
        timer.finish(true, drill.len() as u64);
        Some(drill)
    }

    /// Extractor display name for `id`, when the KB carries one.
    pub fn extractor_name(&self, id: u32) -> Option<&str> {
        self.kb()
            .extractor_names
            .get(id as usize)
            .map(String::as_str)
    }
}

#[inline]
fn view_at(kb: &FusedKb, row: u32) -> TripleView {
    let i = row as usize;
    TripleView {
        row,
        triple: kb.triple_at(i),
        raw: kb.raw[i],
        calibrated: kb.calibrated[i],
        label: label_from_tag(kb.labels[i]).expect("validated at decode"),
        n_pages: kb.pages[i],
        n_extractors: kb.extractor_counts[i],
        fallback: kb.fallback[i] != 0,
    }
}

impl<'a> Belief<'a> {
    /// Number of candidate values for the item.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for an empty distribution (cannot occur for a belief
    /// returned by [`KbReader::belief`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row view of the `j`-th candidate, in canonical (object-ascending)
    /// order.
    pub fn get(&self, j: usize) -> TripleView {
        assert!(j < self.len(), "belief index out of range");
        view_at(self.kb, (self.start + j) as u32)
    }

    /// Iterate the distribution in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = TripleView> + 'a {
        let kb = self.kb;
        (self.start..self.end).map(move |i| view_at(kb, i as u32))
    }

    /// The most confident candidate (calibrated descending, ties in
    /// canonical order).
    pub fn best(&self) -> TripleView {
        // Arg-max over the one column that decides it; only the winner
        // is materialised.
        let calibrated = &self.kb.calibrated[self.start..self.end];
        let mut best = 0;
        for (j, &c) in calibrated.iter().enumerate().skip(1) {
            if c > calibrated[best] {
                best = j;
            }
        }
        self.get(best)
    }
}

impl<'a> TopK<'a> {
    /// Number of returned rows (≤ k).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the predicate exists but k was 0.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row view at rank `i` (0 = most confident).
    pub fn get(&self, i: usize) -> TripleView {
        view_at(self.kb, self.rows[i])
    }

    /// Iterate most-confident-first.
    pub fn iter(&self) -> impl Iterator<Item = TripleView> + 'a {
        let kb = self.kb;
        self.rows.iter().map(move |&row| view_at(kb, row))
    }
}

impl<'a> Drilldown<'a> {
    /// The row this drill-down describes.
    pub fn view(&self) -> TripleView {
        view_at(self.kb, self.row)
    }

    /// Number of supporting provenances.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the run carried no attribution.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The `i`-th supporting provenance (ids ascending).
    pub fn get(&self, i: usize) -> ProvSupport {
        let id = self.ids[i];
        ProvSupport {
            id,
            key: ProvenanceKey::unpack(self.kb.prov_keys[id as usize]),
            accuracy: self.kb.prov_accuracy[id as usize],
            evaluated: self.kb.prov_evaluated[id as usize] != 0,
        }
    }

    /// Iterate supporting provenances, ids ascending.
    pub fn iter(&self) -> impl Iterator<Item = ProvSupport> + 'a {
        let kb = self.kb;
        self.ids.iter().map(move |&id| ProvSupport {
            id,
            key: ProvenanceKey::unpack(kb.prov_keys[id as usize]),
            accuracy: kb.prov_accuracy[id as usize],
            evaluated: kb.prov_evaluated[id as usize] != 0,
        })
    }

    /// Mean final accuracy across the supporting provenances (`None`
    /// when unattributed).
    pub fn mean_accuracy(&self) -> Option<f64> {
        if self.ids.is_empty() {
            return None;
        }
        let sum: f64 = self
            .ids
            .iter()
            .map(|&id| self.kb.prov_accuracy[id as usize])
            .sum();
        Some(sum / self.ids.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::tests::kb_serving;
    use kf_telemetry::Trace;
    use kf_types::{EntityId, Numeric, StrId, Value};

    fn triple(subject: u32, predicate: u32, object: Value) -> Triple {
        Triple {
            subject: EntityId(subject),
            predicate: PredicateId(predicate),
            object,
        }
    }

    fn item(subject: u32, predicate: u32) -> DataItem {
        DataItem::new(EntityId(subject), PredicateId(predicate))
    }

    /// No item and one item: the table still has an empty slot to stop
    /// on, and no shift by 64.
    #[test]
    fn empty_and_one_item_kbs_answer() {
        let t = triple(3, 4, Value::Str(StrId(5)));
        let empty = KbReader::new(kb_serving(&[]));
        assert_eq!(empty.loaded.slots.len(), 2);
        assert!(empty.lookup(&t).is_none());
        assert!(empty.drilldown(&t).is_none());
        assert!(empty.belief(t.data_item()).is_none());
        assert!(empty.belief(item(0, 0)).is_none());

        let one = KbReader::new(kb_serving(&[t]));
        assert_eq!(one.loaded.slots.len(), 2);
        assert_eq!(one.lookup(&t).expect("served").triple, t);
        assert_eq!(one.drilldown(&t).expect("served").view().row, 0);
        assert_eq!(one.belief(t.data_item()).expect("served").len(), 1);
        for absent in [item(4, 3), item(3, 5), item(0, 0), item(u32::MAX, u32::MAX)] {
            assert!(one.belief(absent).is_none(), "{absent:?}");
        }
        assert!(one.lookup(&triple(3, 4, Value::Str(StrId(6)))).is_none());
    }

    /// Ids 0 and `u32::MAX` and the swapped pair `(a, b)` / `(b, a)` are
    /// all distinct keys; every key not served stays absent.
    #[test]
    fn edge_ids_and_swapped_pairs_are_distinct_keys() {
        const M: u32 = u32::MAX;
        let keys = [(0, 0), (0, M), (M, 0), (M, M), (7, 9), (9, 7)];
        let triples: Vec<Triple> = keys
            .iter()
            .zip(0..)
            .map(|(&(s, p), i)| triple(s, p, Value::Entity(EntityId(i))))
            .collect();
        let reader = KbReader::new(kb_serving(&triples));
        assert_eq!(reader.kb().n_items(), keys.len());
        for (&(s, p), t) in keys.iter().zip(&triples) {
            let belief = reader.belief(item(s, p)).expect("served item");
            assert_eq!(belief.len(), 1);
            assert_eq!(belief.best().triple, *t);
            assert_eq!(reader.lookup(t).expect("served triple").triple, *t);
        }
        for (s, p) in [(7, 7), (9, 9), (0, 7), (7, 0), (M, 9), (9, M), (1, 0)] {
            assert!(reader.belief(item(s, p)).is_none(), "({s}, {p})");
        }
    }

    /// Clones and `with_metrics` share the arena and its table; nothing
    /// is rebuilt.
    #[test]
    fn clones_share_the_item_table() {
        let reader = KbReader::new(kb_serving(&[triple(1, 2, Value::Num(Numeric(-3)))]));
        let clone = reader.clone();
        assert!(Arc::ptr_eq(&reader.loaded, &clone.loaded));
        let metered = clone.with_metrics(Arc::new(ServeMetrics::new()));
        assert!(Arc::ptr_eq(&reader.loaded, &metered.loaded));
    }

    /// The `serve.*` counters one traced query adds, by kind and outcome.
    #[test]
    fn traced_queries_count_exactly_their_counters() {
        let t = triple(1, 2, Value::Str(StrId(3)));
        let other_object = triple(1, 2, Value::Str(StrId(4)));
        let other_item = triple(2, 1, Value::Str(StrId(3)));
        let reader = KbReader::new(kb_serving(&[t]));
        let counted = |query: &dyn Fn()| -> Vec<(String, u64)> {
            let trace = Trace::new();
            {
                let _installed = kf_telemetry::install(&trace);
                query();
            }
            let counters = trace.snapshot().counters;
            counters.into_iter().map(|c| (c.name, c.value)).collect()
        };
        let expect = |query: &dyn Fn(), names: &[&str]| {
            let want: Vec<(String, u64)> = names.iter().map(|n| (n.to_string(), 1)).collect();
            assert_eq!(counted(query), want);
        };
        // Counter snapshots are sorted by name.
        expect(
            &|| assert!(reader.lookup(&t).is_some()),
            &["serve.hit.triple", "serve.query"],
        );
        for absent in [&other_object, &other_item] {
            expect(
                &|| assert!(reader.lookup(absent).is_none()),
                &["serve.miss.triple", "serve.query"],
            );
            expect(
                &|| assert!(reader.drilldown(absent).is_none()),
                &["serve.drilldown", "serve.miss.triple", "serve.query"],
            );
        }
        expect(
            &|| assert!(reader.drilldown(&t).is_some()),
            &["serve.drilldown", "serve.hit.triple", "serve.query"],
        );
        expect(
            &|| assert!(reader.belief(t.data_item()).is_some()),
            &["serve.hit.item", "serve.query"],
        );
        expect(
            &|| assert!(reader.belief(other_item.data_item()).is_none()),
            &["serve.miss.item", "serve.query"],
        );
        expect(
            &|| assert!(reader.top_k(t.predicate, 3).is_some()),
            &["serve.hit.pred", "serve.query", "serve.topk"],
        );
        expect(
            &|| assert!(reader.top_k(PredicateId(9), 3).is_none()),
            &["serve.miss.pred", "serve.query", "serve.topk"],
        );
        // `view` and the answer accessors count nothing.
        expect(
            &|| {
                reader.view(0);
            },
            &[],
        );
    }
}
