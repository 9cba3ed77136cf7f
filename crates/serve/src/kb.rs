//! The `FusedKb` artifact: a fused run compiled into read-only columnar
//! indexes.
//!
//! A fusion run produces a [`FusionOutput`] (scored triples) and a
//! [`MethodEval`] (calibration curves, PR curves). Neither is shaped for
//! *queries*: answering "what does the KB believe about `(subject,
//! predicate)`?" or "the 10 most confident triples for predicate P" from
//! the batch artifacts means a full scan. [`FusedKb`] is the serving
//! shape: one flat arena of columns sorted in canonical triple order,
//! plus three indexes built at compile time —
//!
//! * **item index** — contiguous runs of `(subject, predicate)` over the
//!   triple columns: the item keys, strictly ascending, and one row
//!   offset per item. *Stored* is only that; the hash table that finds an
//!   item in one probe is *derived* from these columns each time a
//!   [`KbReader`](crate::KbReader) is made (open-addressed, load factor
//!   ≤ 0.5, see [`reader`](crate::reader)) and never written to the
//!   file, so the checkpoint format and its validation know nothing of
//!   it. A belief-distribution lookup is that probe plus two offsets; an
//!   exact-triple lookup then searches the item's own run;
//! * **predicate index** — a per-predicate permutation of triple rows
//!   ordered by calibrated confidence (descending, ties broken by
//!   canonical triple order), so top-k is a slice of precomputed ranks;
//! * **provenance registry** — the [`ProvenanceAttribution`] columns
//!   (packed keys, final learned accuracies, evaluated flags) plus
//!   per-triple provenance id lists, so drill-down walks an offset range.
//!
//! Each triple carries two confidences: the fuser's raw probability and
//! the *calibrated* probability read off the method's equal-width
//! calibration curve (the bin's observed accuracy where the bin has mass
//! — §5.2's "among triples predicted with probability ~p, a fraction ~p
//! is true" made actionable per triple). The file stores the raw column
//! and the curve; decode derives the calibrated column from them with
//! the same [`calibrate`] the compiler calls, so the bits are equal and
//! the two can never disagree.
//!
//! The file stores no more than decode cannot rebuild: besides the
//! calibrated column, the per-row `subjects` and `predicates` are not
//! written either — each row's `(subject, predicate)` is its item's key,
//! so decode expands the item index's runs back into them. What it does
//! store, it stores small: every integer column is packed at the width
//! its values need ([`encode_packed`]), offsets as run lengths and the
//! ascending item subjects as deltas.
//!
//! Everything is columnar `Vec`s of plain data: loading a KB is one
//! checkpoint decode into one arena that [`KbReader`](crate::KbReader)s
//! then share across threads without copying.

use kf_core::{Claims, FusionOutput, ProvenanceAttribution};
use kf_eval::{AblationRunner, CalibrationCurve, CorpusSummary, MethodEval, Preset};
use kf_synth::Corpus;
use kf_telemetry::{add, span};
use kf_types::checkpoint::{self, ArtifactKind, CheckpointError};
use kf_types::codec::{
    decode_packed, encode_packed, unzigzag, value_columns, value_from_columns, zigzag, PackedInt,
};
use kf_types::{EntityId, GoldStandard, KvCodec, Label, Triple, Value};
use std::fmt;
use std::path::Path;

/// Options for building a [`FusedKb`] from a corpus snapshot.
#[derive(Debug, Clone)]
pub struct KbBuildOptions {
    /// Preset whose scores the KB serves.
    pub method: String,
    /// Worker override for the build's fusion and evaluation (`None`
    /// keeps the preset's default); the KB does not depend on it.
    pub workers: Option<usize>,
}

impl Default for KbBuildOptions {
    fn default() -> Self {
        KbBuildOptions {
            method: "popaccu_plus".to_string(),
            workers: None,
        }
    }
}

/// Why a KB build was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The requested method is not a known preset.
    UnknownMethod(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownMethod(m) => write!(f, "unknown fusion method `{m}`"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A fused knowledge base: read-optimized columnar indexes over one
/// method's scored triples. See the [module docs](self) for the layout.
///
/// All row-aligned columns are ordered by the canonical triple order —
/// the derived [`Triple`] `Ord` (subject, then predicate, then object) —
/// which is also the deterministic tie-break everywhere a confidence
/// comparison ties.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedKb {
    /// Corpus the KB was fused from (scale, seed, sizes).
    pub corpus: CorpusSummary,
    /// Fusion preset name (e.g. `popaccu_plus`).
    pub method: String,
    /// Human-readable method label (e.g. `POPACCU+`).
    pub method_label: String,
    /// Equal-width calibration WDEV of the serving method.
    pub wdev: f64,
    /// Equal-width calibration ECE of the serving method.
    pub ece: f64,
    /// AUC-PR of the serving method.
    pub auc_pr: f64,
    /// Scored triples excluded because the fuser predicted no
    /// probability for them (§4.3.2's "cannot predict" residue).
    pub n_dropped: u64,

    // --- triple columns, canonical triple order ---------------------
    pub(crate) subjects: Vec<u32>,
    pub(crate) predicates: Vec<u32>,
    pub(crate) obj_tags: Vec<u8>,
    pub(crate) obj_payloads: Vec<u64>,
    pub(crate) raw: Vec<f64>,
    pub(crate) calibrated: Vec<f64>,
    pub(crate) labels: Vec<u8>,
    pub(crate) pages: Vec<u32>,
    pub(crate) extractor_counts: Vec<u16>,
    pub(crate) fallback: Vec<u8>,

    // --- item index: runs of (subject, predicate) -------------------
    pub(crate) item_subjects: Vec<u32>,
    pub(crate) item_predicates: Vec<u32>,
    /// `item_offsets[i]..item_offsets[i + 1]` is item `i`'s row range.
    pub(crate) item_offsets: Vec<u32>,

    // --- predicate index: per-predicate confidence ranking ----------
    pub(crate) pred_ids: Vec<u32>,
    /// `pred_offsets[i]..pred_offsets[i + 1]` indexes `rank`.
    pub(crate) pred_offsets: Vec<u32>,
    /// Triple rows, grouped by predicate, calibrated-descending
    /// (ties: canonical triple order).
    pub(crate) rank: Vec<u32>,

    // --- provenance registry + per-triple drill-down lists ----------
    /// [`ProvenanceKey::pack`](kf_types::ProvenanceKey::pack)ed keys,
    /// indexed by dense provenance id.
    pub(crate) prov_keys: Vec<u128>,
    pub(crate) prov_accuracy: Vec<f64>,
    pub(crate) prov_evaluated: Vec<u8>,
    /// `prov_offsets[row]..prov_offsets[row + 1]` indexes `prov_ids`.
    pub(crate) prov_offsets: Vec<u32>,
    pub(crate) prov_ids: Vec<u32>,

    /// Extractor display names, indexed by extractor id.
    pub(crate) extractor_names: Vec<String>,

    /// The serving method's equal-width calibration curve, stored in
    /// place of the `calibrated` column it determines.
    pub(crate) curve: StoredCurve,
}

/// A [`CalibrationCurve`] compared by its encoded bits: an empty bin's
/// observed accuracy is NaN, which `==` on `f64` never equals.
#[derive(Debug, Clone)]
pub(crate) struct StoredCurve(pub(crate) CalibrationCurve);

impl PartialEq for StoredCurve {
    fn eq(&self, other: &Self) -> bool {
        let bytes = |curve: &CalibrationCurve| {
            let mut out = Vec::new();
            curve.encode(&mut out);
            out
        };
        bytes(&self.0) == bytes(&other.0)
    }
}

/// `Label` → stored tag. (False = 0, True = 1, Unknown = 2.)
pub(crate) fn label_tag(l: Label) -> u8 {
    match l {
        Label::False => 0,
        Label::True => 1,
        Label::Unknown => 2,
    }
}

/// Stored tag → `Label`.
pub(crate) fn label_from_tag(tag: u8) -> Option<Label> {
    match tag {
        0 => Some(Label::False),
        1 => Some(Label::True),
        2 => Some(Label::Unknown),
        _ => None,
    }
}

/// Read a raw probability through an equal-width calibration curve: the
/// containing bin's observed accuracy where the bin has mass, the raw
/// probability otherwise.
///
/// Bin assignment mirrors `kf_eval`'s curve construction exactly
/// (`(p·n) as usize`, clamped), so a probability maps to the same bin it
/// was counted into when the curve was built.
pub fn calibrate(curve: &CalibrationCurve, p: f64) -> f64 {
    let n = curve.bins.len();
    let p = p.clamp(0.0, 1.0);
    if n == 0 {
        return p;
    }
    let bin = &curve.bins[((p * n as f64) as usize).min(n - 1)];
    if bin.count > 0 && bin.observed_accuracy.is_finite() {
        bin.observed_accuracy
    } else {
        p
    }
}

impl FusedKb {
    /// Build a KB from a corpus snapshot (`kf-serve build`): fuse and
    /// evaluate the preset through the step every fused run shares
    /// ([`AblationRunner::fuse_preset`]), and read each triple's
    /// calibrated confidence off the evaluation's equal-width curve.
    /// `scale` is the label recorded in the KB header.
    ///
    /// No wall-clock measurement enters the artifact, and fusion and
    /// evaluation are bit-deterministic whatever `opts.workers` is, so
    /// two builds from the same snapshot are byte-identical.
    pub fn build_from_corpus(
        corpus: &Corpus,
        opts: &KbBuildOptions,
        scale: &str,
    ) -> Result<FusedKb, BuildError> {
        let _span = span("serve.compile");
        let preset = Preset::by_name(&opts.method)
            .ok_or_else(|| BuildError::UnknownMethod(opts.method.clone()))?;
        let runner = AblationRunner {
            workers: opts.workers,
            scale: scale.to_string(),
            ..AblationRunner::default()
        };
        // The build owns the trace it runs under, so its grouping job
        // (`group`), labelling (`label`), projection (`project`), rounds
        // (`fuse`) and evaluation (`eval`) are all recorded under this
        // span.
        let (summary, (output, attribution, method)) = {
            let _span = span("serve.compile.fuse");
            let config = runner.config(preset);
            let claims = Claims::build_recorded(&corpus.batch.records, &config.mr);
            let labels = {
                let _span = span("label");
                claims.table().labels(&corpus.gold)
            };
            claims.project_graphs([config.granularity], config.mr.workers);
            let step = runner.fuse_preset(preset, &claims, &labels);
            (runner.claims_summary(corpus, &claims, &labels), step)
        };
        let names = corpus.extractors.iter().map(|e| e.name.clone()).collect();
        Ok(Self::compile_from_parts(
            summary,
            &method,
            &output,
            &attribution,
            &corpus.gold,
            names,
        ))
    }

    /// Compile a KB from an already-fused output and its evaluation, with
    /// no fusion of its own. [`build_from_corpus`](Self::build_from_corpus)
    /// ends here after fusing and evaluating the preset, and the repo
    /// benchmark's publish cycle calls it directly.
    pub fn compile_from_parts(
        corpus: CorpusSummary,
        method: &MethodEval,
        output: &FusionOutput,
        attribution: &ProvenanceAttribution,
        gold: &GoldStandard,
        extractor_names: Vec<String>,
    ) -> FusedKb {
        let _span = span("serve.compile.index");
        let scored = &output.scored;

        // Keep predicted triples only, in canonical triple order.
        let mut kept: Vec<u32> = (0..scored.len() as u32)
            .filter(|&i| scored[i as usize].probability.is_some())
            .collect();
        kept.sort_unstable_by(|&a, &b| scored[a as usize].triple.cmp(&scored[b as usize].triple));
        let n = kept.len();
        let n_dropped = (scored.len() - n) as u64;
        add("serve.build.triples", n as u64);
        add("serve.build.dropped", n_dropped);

        let mut kb = FusedKb {
            corpus,
            method: method.name.clone(),
            method_label: method.label.clone(),
            wdev: method.wdev(),
            ece: method.ece(),
            auc_pr: method.auc_pr(),
            n_dropped,
            subjects: Vec::with_capacity(n),
            predicates: Vec::with_capacity(n),
            obj_tags: Vec::with_capacity(n),
            obj_payloads: Vec::with_capacity(n),
            raw: Vec::with_capacity(n),
            calibrated: Vec::with_capacity(n),
            labels: Vec::with_capacity(n),
            pages: Vec::with_capacity(n),
            extractor_counts: Vec::with_capacity(n),
            fallback: Vec::with_capacity(n),
            item_subjects: Vec::new(),
            item_predicates: Vec::new(),
            item_offsets: vec![0],
            pred_ids: Vec::new(),
            pred_offsets: Vec::new(),
            rank: Vec::new(),
            prov_keys: attribution.keys().iter().map(|k| k.pack()).collect(),
            prov_accuracy: attribution.accuracy.clone(),
            prov_evaluated: attribution.evaluated.iter().map(|&e| e as u8).collect(),
            prov_offsets: Vec::with_capacity(n + 1),
            prov_ids: Vec::new(),
            extractor_names,
            curve: StoredCurve(method.calibration_width.clone()),
        };

        let attributed = !scored.is_empty() && attribution.len() == scored.len();
        kb.prov_offsets.push(0);
        for (row, &orig) in kept.iter().enumerate() {
            let st = &scored[orig as usize];
            let t = st.triple;
            let (tag, payload) = value_columns(t.object);
            kb.subjects.push(t.subject.0);
            kb.predicates.push(t.predicate.0);
            kb.obj_tags.push(tag);
            kb.obj_payloads.push(payload);
            let p = st.probability.expect("kept rows are predicted");
            kb.raw.push(p);
            kb.calibrated.push(calibrate(&method.calibration_width, p));
            kb.labels.push(label_tag(gold.label(&t)));
            kb.pages.push(st.n_pages);
            kb.extractor_counts.push(st.n_extractors);
            kb.fallback.push(st.fallback as u8);

            // Item index: a new run starts whenever (subject, predicate)
            // changes; canonical order makes runs contiguous.
            let new_item = row == 0
                || (t.subject.0, t.predicate.0) != (kb.subjects[row - 1], kb.predicates[row - 1]);
            if new_item {
                if row > 0 {
                    kb.item_offsets.push(row as u32);
                }
                kb.item_subjects.push(t.subject.0);
                kb.item_predicates.push(t.predicate.0);
            }

            if attributed {
                kb.prov_ids
                    .extend_from_slice(attribution.provs(orig as usize));
            }
            kb.prov_offsets.push(kb.prov_ids.len() as u32);
        }
        if n > 0 {
            kb.item_offsets.push(n as u32);
        }
        add("serve.build.provs", kb.prov_ids.len() as u64);

        // Predicate index: group rows by predicate, order each group by
        // calibrated confidence descending; ties fall back to the row
        // index, i.e. canonical triple order — the determinism-ledger
        // tie-break rule.
        let mut by_pred: Vec<(u32, u32)> = (0..n as u32)
            .map(|row| (kb.predicates[row as usize], row))
            .collect();
        by_pred.sort_unstable_by(|&(pa, ra), &(pb, rb)| {
            pa.cmp(&pb)
                .then_with(|| kb.calibrated[rb as usize].total_cmp(&kb.calibrated[ra as usize]))
                .then_with(|| ra.cmp(&rb))
        });
        for &(pred, row) in &by_pred {
            if kb.pred_ids.last() != Some(&pred) {
                kb.pred_ids.push(pred);
                kb.pred_offsets.push(kb.rank.len() as u32);
            }
            kb.rank.push(row);
        }
        kb.pred_offsets.push(kb.rank.len() as u32);
        kb
    }

    /// Number of served triples.
    pub fn n_triples(&self) -> usize {
        self.subjects.len()
    }

    /// Number of distinct `(subject, predicate)` items.
    pub fn n_items(&self) -> usize {
        self.item_subjects.len()
    }

    /// Number of distinct predicates.
    pub fn n_predicates(&self) -> usize {
        self.pred_ids.len()
    }

    /// Number of provenances in the registry.
    pub fn n_provenances(&self) -> usize {
        self.prov_keys.len()
    }

    /// Reconstruct the object stored at `row`.
    #[inline]
    pub(crate) fn object_at(&self, row: usize) -> Value {
        value_from_columns(self.obj_tags[row], self.obj_payloads[row]).expect("validated at decode")
    }

    /// Reconstruct the triple stored at `row`.
    pub(crate) fn triple_at(&self, row: usize) -> Triple {
        Triple {
            subject: EntityId(self.subjects[row]),
            predicate: kf_types::PredicateId(self.predicates[row]),
            object: self.object_at(row),
        }
    }

    /// Atomically write the KB checkpoint at `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let _span = span("serve.kb_save");
        checkpoint::save(path.as_ref(), ArtifactKind::FusedKb, self)
    }

    /// Load a KB checkpoint from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<FusedKb, CheckpointError> {
        let _span = span("serve.kb_load");
        let kb: FusedKb = checkpoint::load(path.as_ref(), ArtifactKind::FusedKb)?;
        add("serve.load.triples", kb.n_triples() as u64);
        Ok(kb)
    }

    /// Rebuild the columns the file does not store, after checking the
    /// item index they come from: strictly ascending keys (distinct, as
    /// the derived item table needs) and strictly increasing offsets from
    /// 0 to the row count the object columns fix. Each item run then
    /// expands into its rows' `subjects` and `predicates`, so every row of
    /// item run `i` is item `i`'s by construction, and each row's
    /// calibrated confidence is read off the stored curve by [`calibrate`],
    /// as in [`compile_from_parts`](Self::compile_from_parts).
    ///
    /// The rows are counted from a column the file holds in full (8 bytes
    /// a row in `raw`), never from a length prefix alone, so no expanded
    /// column outgrows the file.
    fn rebuild_derived(&mut self) -> bool {
        let n = self.obj_tags.len();
        if self.obj_payloads.len() != n || self.raw.len() != n {
            return false;
        }
        let m = self.item_subjects.len();
        if self.item_predicates.len() != m || self.item_offsets.len() != m + 1 {
            return false;
        }
        let item_key = |i: usize| (self.item_subjects[i], self.item_predicates[i]);
        if !(1..m).all(|i| item_key(i - 1) < item_key(i)) {
            return false;
        }
        if self.item_offsets[0] != 0
            || self.item_offsets[m] as usize != n
            || !(1..=m).all(|i| self.item_offsets[i - 1] < self.item_offsets[i])
        {
            return false;
        }
        self.subjects = Vec::with_capacity(n);
        self.predicates = Vec::with_capacity(n);
        for (i, run) in self.item_offsets.windows(2).enumerate() {
            let len = (run[1] - run[0]) as usize;
            self.subjects
                .extend(std::iter::repeat_n(self.item_subjects[i], len));
            self.predicates
                .extend(std::iter::repeat_n(self.item_predicates[i], len));
        }
        self.calibrated = self
            .raw
            .iter()
            .map(|&p| calibrate(&self.curve.0, p))
            .collect();
        true
    }

    /// Structural invariants the read path relies on unchecked (sorted
    /// runs and ids for the searches inside item runs, in-range rows and
    /// offsets), and that each predicate run `j` serves only
    /// `pred_ids[j]`'s rows, in rank order. Checked after every decode,
    /// once [`rebuild_derived`](Self::rebuild_derived) has checked the
    /// item index and sized the columns it reads or rebuilds, so a
    /// corrupted-but-parseable payload is rejected as `Corrupt` instead
    /// of serving garbage.
    fn validate(&self) -> bool {
        let n = self.subjects.len();
        let columns_aligned = self.labels.len() == n
            && self.pages.len() == n
            && self.extractor_counts.len() == n
            && self.fallback.len() == n
            && self.prov_offsets.len() == n + 1;
        if !columns_aligned {
            return false;
        }
        // In-range tags, and canonical order, strictly (equal adjacent
        // triples would break lookup uniqueness): `rebuild_derived` has
        // checked that the item runs cover the rows and that their keys
        // strictly ascend, so only the objects inside each run are left.
        let rows_ok = self.item_offsets.windows(2).all(|run| {
            let mut previous = None;
            (run[0] as usize..run[1] as usize).all(|i| {
                let object = value_from_columns(self.obj_tags[i], self.obj_payloads[i]);
                let ascending = object.is_some() && previous < object;
                previous = object;
                ascending && self.labels[i] <= 2 && self.fallback[i] <= 1
            })
        });
        if !rows_ok {
            return false;
        }
        // Predicate index: sorted ids, monotone offsets, a permutation of
        // the rows, each run holding its predicate's rows in rank order.
        let k = self.pred_ids.len();
        if self.pred_offsets.len() != k + 1 || self.rank.len() != n {
            return false;
        }
        if !(1..k).all(|i| self.pred_ids[i - 1] < self.pred_ids[i]) {
            return false;
        }
        if k > 0
            && (self.pred_offsets[0] != 0
                || self.pred_offsets[k] as usize != n
                || !(1..=k).all(|i| self.pred_offsets[i - 1] < self.pred_offsets[i]))
        {
            return false;
        }
        if k == 0 && n > 0 {
            return false;
        }
        let mut seen = vec![false; n];
        for &row in &self.rank {
            match seen.get_mut(row as usize) {
                Some(s) if !*s => *s = true,
                _ => return false,
            }
        }
        let ranked_before = |a: u32, b: u32| {
            let (a, b) = (a as usize, b as usize);
            self.calibrated[b]
                .total_cmp(&self.calibrated[a])
                .then(a.cmp(&b))
                .is_lt()
        };
        let pred_runs_ok = (0..k).all(|j| {
            let run = &self.rank[self.pred_offsets[j] as usize..self.pred_offsets[j + 1] as usize];
            run.iter()
                .all(|&row| self.predicates[row as usize] == self.pred_ids[j])
                && run.windows(2).all(|w| ranked_before(w[0], w[1]))
        });
        if !pred_runs_ok {
            return false;
        }
        // Provenance registry: aligned columns, in-range ids, monotone
        // offsets.
        let p = self.prov_keys.len();
        if self.prov_accuracy.len() != p || self.prov_evaluated.len() != p {
            return false;
        }
        if self.prov_evaluated.iter().any(|&e| e > 1) {
            return false;
        }
        if self.prov_offsets[0] != 0
            || *self.prov_offsets.last().expect("n + 1 entries") as usize != self.prov_ids.len()
            || !(1..=n).all(|i| self.prov_offsets[i - 1] <= self.prov_offsets[i])
        {
            return false;
        }
        self.prov_ids.iter().all(|&id| (id as usize) < p)
    }
}

/// The tag [`value_columns`] gives a `Value::Num`, whose payload the file
/// stores zigzagged.
const NUM_TAG: u8 = 2;

/// A row's object payload as the file stores it: a number's
/// two's-complement bits [`zigzag`]ged, so a small negative number packs
/// as narrowly as a small positive one; ids as they are.
fn stored_payload(tag: u8, payload: u64) -> u64 {
    if tag == NUM_TAG {
        zigzag(payload as i64)
    } else {
        payload
    }
}

/// Offsets from 0 (one per run, plus the end) as the file stores them:
/// each run's length.
fn run_lengths(offsets: &[u32]) -> impl ExactSizeIterator<Item = u64> + Clone + '_ {
    offsets
        .windows(2)
        .map(|w| u64::from(w[1].wrapping_sub(w[0])))
}

/// Append a slice of integers as one packed column.
fn encode_ints<T: PackedInt>(xs: &[T], out: &mut Vec<u8>) {
    encode_packed(xs.iter().map(|&x| x.to_u64()), out);
}

/// A packed column of exactly `len` values, `len` proven by bytes the
/// decoder has already read: a longer length prefix is refused before
/// anything is allocated.
fn decode_exact<T: PackedInt>(input: &mut &[u8], len: usize) -> Option<Vec<T>> {
    decode_packed(input, len).filter(|column| column.len() == len)
}

/// `len` run lengths back into offsets from 0, summed with checked
/// arithmetic: a running sum past `u32::MAX` is refused.
fn decode_offsets(input: &mut &[u8], len: usize) -> Option<Vec<u32>> {
    let lengths: Vec<u32> = decode_exact(input, len)?;
    let mut offsets = Vec::with_capacity(len + 1);
    let mut at = 0u32;
    offsets.push(at);
    for run in lengths {
        at = at.checked_add(run)?;
        offsets.push(at);
    }
    Some(offsets)
}

/// The fields of a [`ProvenanceKey::pack`](kf_types::ProvenanceKey::pack)ed
/// key, each stored as its own packed column: `(shift, bits, bias)` of the
/// extractor, the page-or-site, the predicate, the pattern and the
/// presence mask. A field is stored plus its bias, wrapping: the pattern's
/// 1 makes `PatternId::NONE` (`u32::MAX`) a 0, so a registry of
/// pattern-less keys does not pack its patterns 4 bytes wide.
const KEY_FIELDS: [(u32, u32, u32); 5] = [
    (112, 16, 0),
    (80, 32, 0),
    (48, 32, 0),
    (16, 32, 1),
    (0, 8, 0),
];

impl KvCodec for FusedKb {
    /// Every integer column is packed ([`encode_packed`]) at the width its
    /// values need. Offsets are stored as run lengths, the ascending item
    /// subjects as deltas, numbers zigzagged and provenance keys as one
    /// column per field. The row count comes first, from the `raw`
    /// column's 8 bytes a row, and the provenance count from
    /// `prov_accuracy`'s, so every later column's length is checked
    /// against a count the bytes have proven before it is allocated.
    fn encode(&self, out: &mut Vec<u8>) {
        self.corpus.encode(out);
        self.method.encode(out);
        self.method_label.encode(out);
        self.wdev.encode(out);
        self.ece.encode(out);
        self.auc_pr.encode(out);
        self.n_dropped.encode(out);
        self.curve.0.encode(out);
        self.raw.encode(out);
        encode_ints(&self.obj_tags, out);
        let tags_payloads = self.obj_tags.iter().zip(&self.obj_payloads);
        encode_packed(tags_payloads.map(|(&t, &p)| stored_payload(t, p)), out);
        encode_ints(&self.labels, out);
        encode_ints(&self.pages, out);
        encode_ints(&self.extractor_counts, out);
        encode_ints(&self.fallback, out);
        let subjects = &self.item_subjects;
        let deltas = (0..subjects.len()).map(|i| {
            let previous = if i == 0 { 0 } else { subjects[i - 1] };
            u64::from(subjects[i].wrapping_sub(previous))
        });
        encode_packed(deltas, out);
        encode_ints(&self.item_predicates, out);
        encode_packed(run_lengths(&self.item_offsets), out);
        encode_ints(&self.pred_ids, out);
        encode_packed(run_lengths(&self.pred_offsets), out);
        encode_ints(&self.rank, out);
        self.prov_accuracy.encode(out);
        for (shift, bits, bias) in KEY_FIELDS {
            let field = self.prov_keys.iter().map(|&k| {
                let value = (k >> shift) as u32 & (u32::MAX >> (32 - bits));
                u64::from(value.wrapping_add(bias))
            });
            encode_packed(field, out);
        }
        encode_ints(&self.prov_evaluated, out);
        encode_packed(run_lengths(&self.prov_offsets), out);
        encode_ints(&self.prov_ids, out);
        self.extractor_names.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let corpus = CorpusSummary::decode(input)?;
        let method = String::decode(input)?;
        let method_label = String::decode(input)?;
        let wdev = f64::decode(input)?;
        let ece = f64::decode(input)?;
        let auc_pr = f64::decode(input)?;
        let n_dropped = u64::decode(input)?;
        let curve = StoredCurve(CalibrationCurve::decode(input)?);
        let raw: Vec<f64> = Vec::decode(input)?;
        let n = raw.len();
        let obj_tags: Vec<u8> = decode_exact(input, n)?;
        let mut obj_payloads: Vec<u64> = decode_exact(input, n)?;
        for (payload, &tag) in obj_payloads.iter_mut().zip(&obj_tags) {
            if tag == NUM_TAG {
                *payload = unzigzag(*payload) as u64;
            }
        }
        let labels = decode_exact(input, n)?;
        let pages = decode_exact(input, n)?;
        let extractor_counts = decode_exact(input, n)?;
        let fallback = decode_exact(input, n)?;
        // Every item and every predicate holds at least one row.
        let mut item_subjects: Vec<u32> = decode_packed(input, n)?;
        let mut subject = 0u32;
        for delta in &mut item_subjects {
            subject = subject.checked_add(*delta)?;
            *delta = subject;
        }
        let m = item_subjects.len();
        let item_predicates = decode_exact(input, m)?;
        let item_offsets = decode_offsets(input, m)?;
        let pred_ids: Vec<u32> = decode_packed(input, n)?;
        let pred_offsets = decode_offsets(input, pred_ids.len())?;
        let rank = decode_exact(input, n)?;
        let prov_accuracy: Vec<f64> = Vec::decode(input)?;
        let p = prov_accuracy.len();
        let mut prov_keys = vec![0u128; p];
        for (shift, bits, bias) in KEY_FIELDS {
            let field: Vec<u32> = decode_exact(input, p)?;
            for (key, stored) in prov_keys.iter_mut().zip(field) {
                let value = stored.wrapping_sub(bias);
                if value > u32::MAX >> (32 - bits) {
                    return None;
                }
                *key |= u128::from(value) << shift;
            }
        }
        let prov_evaluated = decode_exact(input, p)?;
        let prov_offsets = decode_offsets(input, n)?;
        let prov_ids = decode_exact(input, prov_offsets[n] as usize)?;
        let mut kb = FusedKb {
            corpus,
            method,
            method_label,
            wdev,
            ece,
            auc_pr,
            n_dropped,
            subjects: Vec::new(),
            predicates: Vec::new(),
            obj_tags,
            obj_payloads,
            raw,
            calibrated: Vec::new(),
            labels,
            pages,
            extractor_counts,
            fallback,
            item_subjects,
            item_predicates,
            item_offsets,
            pred_ids,
            pred_offsets,
            rank,
            prov_keys,
            prov_accuracy,
            prov_evaluated,
            prov_offsets,
            prov_ids,
            extractor_names: Vec::decode(input)?,
            curve,
        };
        (kb.rebuild_derived() && kb.validate()).then_some(kb)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use kf_core::{Fuser, ScoredTriple};
    use kf_eval::{Binning, CalibrationBin};
    use kf_synth::SynthConfig;
    use kf_types::{Numeric, PredicateId, StrId};

    fn fixture() -> FusedKb {
        let corpus = Corpus::generate(&SynthConfig::tiny(), 9);
        FusedKb::build_from_corpus(&corpus, &KbBuildOptions::default(), "tiny").expect("build")
    }

    fn reencode_decodes(kb: &FusedKb) -> Option<FusedKb> {
        let mut payload = Vec::new();
        kb.encode(&mut payload);
        let mut input = payload.as_slice();
        let decoded = FusedKb::decode(&mut input)?;
        input.is_empty().then_some(decoded)
    }

    /// A parseable payload with a broken structural invariant must be
    /// rejected by decode-time validation — the read path indexes and
    /// searches these columns unchecked.
    #[test]
    fn broken_invariants_fail_decode() {
        let kb = fixture();
        assert!(reencode_decodes(&kb).is_some(), "fixture itself decodes");

        let mut out_of_range_rank = kb.clone();
        out_of_range_rank.rank[0] = kb.n_triples() as u32 + 7;
        assert!(reencode_decodes(&out_of_range_rank).is_none());

        // Two rows of one item with their objects swapped: each row still
        // gets its item's key, but the run is out of canonical order.
        let mut non_canonical = kb.clone();
        let first = kb
            .item_offsets
            .windows(2)
            .find(|run| run[1] - run[0] >= 2)
            .expect("an item with two rows")[0] as usize;
        non_canonical.obj_tags.swap(first, first + 1);
        non_canonical.obj_payloads.swap(first, first + 1);
        assert!(reencode_decodes(&non_canonical).is_none());

        let mut misaligned = kb.clone();
        misaligned.raw.pop();
        assert!(reencode_decodes(&misaligned).is_none());

        let mut bad_label = kb.clone();
        bad_label.labels[0] = 9;
        assert!(reencode_decodes(&bad_label).is_none());

        let mut bad_prov = kb.clone();
        if let Some(id) = bad_prov.prov_ids.first_mut() {
            *id = kb.prov_keys.len() as u32;
            assert!(reencode_decodes(&bad_prov).is_none());
        }

        let mut non_monotone = kb.clone();
        let last = non_monotone.item_offsets.len() - 1;
        non_monotone.item_offsets[last] += 1;
        assert!(reencode_decodes(&non_monotone).is_none());
    }

    /// The file stores neither the per-row `(subject, predicate)` keys
    /// nor the calibrated column: overwriting them in memory leaves the
    /// encoding byte-identical, and decode rebuilds the originals from
    /// the item index and the stored curve.
    #[test]
    fn row_keys_and_calibrated_are_not_stored() {
        let kb = fixture();
        let bytes = checkpoint::encode(ArtifactKind::FusedKb, &kb);
        let mut overwritten = kb.clone();
        overwritten.subjects.iter_mut().for_each(|s| *s = !*s);
        overwritten.predicates.reverse();
        overwritten.calibrated.iter_mut().for_each(|c| *c = -1.0);
        assert!(overwritten != kb);
        assert!(checkpoint::encode(ArtifactKind::FusedKb, &overwritten) == bytes);
        let decoded: FusedKb = checkpoint::decode(ArtifactKind::FusedKb, &bytes).expect("decodes");
        assert_eq!(decoded, kb);
    }

    /// Duplicate rows in the rank permutation (a row served twice under
    /// one predicate) are caught even when lengths line up.
    #[test]
    fn duplicate_rank_rows_fail_decode() {
        let kb = fixture();
        let mut duped = kb.clone();
        assert!(duped.rank.len() >= 2);
        duped.rank[1] = duped.rank[0];
        assert!(reencode_decodes(&duped).is_none());
    }

    /// The calibration lookup mirrors curve construction: a probability
    /// lands in the bin it was counted into, bin mass wins over the raw
    /// value, and empty bins fall back to the raw probability.
    #[test]
    fn calibrate_reads_the_curve() {
        let curve = CalibrationCurve {
            binning: Binning::EqualWidth(2),
            bins: vec![
                CalibrationBin {
                    lo: 0.0,
                    hi: 0.5,
                    count: 4,
                    mean_predicted: 0.3,
                    observed_accuracy: 0.25,
                },
                CalibrationBin {
                    lo: 0.5,
                    hi: 1.0,
                    count: 0,
                    mean_predicted: 0.75,
                    observed_accuracy: f64::NAN,
                },
            ],
            wdev: 0.0,
            ece: 0.0,
        };
        assert_eq!(calibrate(&curve, 0.2), 0.25);
        assert_eq!(calibrate(&curve, 0.49), 0.25);
        // Empty upper bin: raw probability passes through.
        assert_eq!(calibrate(&curve, 0.8), 0.8);
        // Boundary goes to the upper bin, exactly like curve building.
        assert_eq!(calibrate(&curve, 0.5), 0.5);
        // p = 1.0 clamps into the last bin.
        assert_eq!(calibrate(&curve, 1.0), 1.0);
        // Out-of-range inputs clamp first.
        assert_eq!(calibrate(&curve, -3.0), 0.25);
        let empty = CalibrationCurve {
            binning: Binning::EqualWidth(1),
            bins: vec![],
            wdev: 0.0,
            ece: 0.0,
        };
        assert_eq!(calibrate(&empty, 0.7), 0.7);
    }

    /// Value and label column tags roundtrip losslessly — including
    /// negative numerics, whose u64 payload is not order-preserving
    /// (the reason the read path compares reconstructed values).
    #[test]
    fn column_tags_roundtrip() {
        for v in [
            Value::Entity(EntityId(0)),
            Value::Entity(EntityId(u32::MAX)),
            Value::Str(StrId(7)),
            Value::Num(Numeric(-1_500)),
            Value::Num(Numeric(i64::MIN)),
            Value::Num(Numeric(i64::MAX)),
        ] {
            let (tag, payload) = value_columns(v);
            assert_eq!(value_from_columns(tag, payload), Some(v));
        }
        assert_eq!(value_from_columns(3, 0), None);
        // Entity/str payloads wider than u32 are malformed.
        assert_eq!(value_from_columns(0, u64::MAX), None);
        for l in [Label::False, Label::True, Label::Unknown] {
            assert_eq!(label_from_tag(label_tag(l)), Some(l));
        }
        assert_eq!(label_from_tag(3), None);
        // The file zigzags the payloads that carry this tag.
        assert_eq!(value_columns(Value::Num(Numeric(-1))).0, NUM_TAG);
    }

    /// A KB serving exactly `triples` (unattributed, every probability
    /// 0.5): the hand-made fixture for edge-case keys.
    pub(crate) fn kb_serving(triples: &[Triple]) -> FusedKb {
        let corpus = Corpus::generate(&SynthConfig::tiny(), 5);
        let scored = triples.iter().map(|&triple| ScoredTriple {
            triple,
            probability: Some(0.5),
            n_provenances: 1,
            n_extractors: 1,
            n_pages: 1,
            fallback: false,
        });
        let output = FusionOutput {
            scored: scored.collect(),
            ..Fuser::new(Preset::Vote.config()).run(&corpus.batch, None)
        };
        // No extraction, no provenance: the attribution of an empty run.
        let empty = kf_types::ExtractionBatch::new();
        let (_, attribution) = Fuser::new(Preset::Vote.config()).run_with_attribution(&empty, None);
        let runner = AblationRunner::default();
        let method = runner.evaluate(Preset::Vote, &output, &corpus.gold, 0.0);
        FusedKb::compile_from_parts(
            runner.corpus_summary(&corpus),
            &method,
            &output,
            &attribution,
            &corpus.gold,
            Vec::new(),
        )
    }

    /// An empty fusion output compiles to an empty-but-valid KB.
    #[test]
    fn empty_output_compiles_and_roundtrips() {
        let kb = kb_serving(&[]);
        assert_eq!(kb.n_triples(), 0);
        assert_eq!(kb.n_items(), 0);
        assert_eq!(kb.n_predicates(), 0);
        let decoded = reencode_decodes(&kb).expect("empty KB roundtrips");
        assert_eq!(decoded, kb);
    }

    /// Numbers are stored zigzagged: a KB serving small negative numbers
    /// is no larger than one serving their magnitudes (two's complement
    /// would need all 8 bytes), and decodes back to them.
    #[test]
    fn small_negative_numbers_pack_narrowly() {
        let triple = |s, v| Triple::new(EntityId(s), PredicateId(1), Value::Num(Numeric(v)));
        let negative = kb_serving(&[triple(1, -3), triple(2, -100), triple(3, 7)]);
        let positive = kb_serving(&[triple(1, 3), triple(2, 100), triple(3, 7)]);
        let bytes = |kb: &FusedKb| checkpoint::encode(ArtifactKind::FusedKb, kb).len();
        assert_eq!(bytes(&negative), bytes(&positive));
        assert_eq!(reencode_decodes(&negative).as_ref(), Some(&negative));
    }
}
