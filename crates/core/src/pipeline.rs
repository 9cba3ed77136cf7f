//! The three-stage iterative fusion pipeline (Fig. 8).
//!
//! * **Stage I** — per data item, compute triple probabilities from the
//!   current provenance accuracies (VOTE / ACCU / POPACCU).
//! * **Stage II** — per provenance, re-estimate its accuracy as the mean
//!   probability of (a sample of) its triples.
//! * Iterate I ↔ II until convergence or `R` rounds (the paper forces
//!   termination at `R = 5`), then
//! * **Stage III** — output deduplicated scored triples.
//!
//! The paper partitions by data item and by provenance with a MapReduce
//! shuffle per stage per round. Here the partitioning is done **once**,
//! when the claim graph ([`Grouped`]) is built: it holds every item's
//! claims contiguously and, transposed, every provenance's. The rounds
//! are then direct kernels over that immutable graph — Stage I scores
//! contiguous item ranges, Stage II gathers over the transpose — each cut
//! into range tasks by `FusionConfig::mr.workers` and handed to
//! [`kf_mapreduce::run_tasks`] (which runs them on the calling thread while
//! the run's worker budget is spent on whole presets), and all mutable
//! state (accuracies, probabilities) belongs to the run.
//!
//! The refinements of §4.3 hook in here: granularity is applied when the
//! graph is built; the coverage filter restricts round 1 to
//! multiply-supported items and drops never-evaluated provenances
//! afterwards; the accuracy threshold deactivates low-quality provenances
//! with a mean-accuracy fallback; and the gold standard can seed the
//! initial accuracies (semi-supervised POPACCU+).

use crate::config::{FusionConfig, InitAccuracy, Method};
use crate::methods;
use crate::observation::{Claims, Grouped, SlotTable};
use crate::result::{FusionOutput, ProvenanceAttribution, ScoredTriple};
use kf_mapreduce::{run_tasks, IterativeDriver, JobStats, Reservoir};
use kf_types::{hash, ExtractionBatch, GoldStandard, Label};
use std::ops::Range;
use std::sync::Arc;

/// The fusion engine. Construct with a [`FusionConfig`], then call
/// [`Fuser::run`] on a batch of extractions (optionally with a gold
/// standard for the semi-supervised initialisation).
#[derive(Debug, Clone, Default)]
pub struct Fuser {
    config: FusionConfig,
}

/// One fusion run over a (shared, immutable) claim graph: everything the
/// rounds mutate, per provenance and per slot.
struct Run<'a> {
    cfg: &'a FusionConfig,
    grouped: &'a Grouped,
    /// The contiguous item ranges Stage I is cut into, and the provenance
    /// ranges Stage II is — [`CHUNKS_PER_WORKER`] per worker, which the
    /// workers pull one after another.
    item_cuts: Vec<Range<usize>>,
    prov_cuts: Vec<Range<usize>>,
    /// Current accuracy estimate per provenance.
    accuracy: Vec<f64>,
    /// Whether the accuracy has ever been re-evaluated from data (true) or
    /// still carries its initial value (false). Drives refinement I.
    evaluated: Vec<bool>,
    /// Per slot: the triple's probability, `None` when unpredicted.
    probs: Vec<Option<f64>>,
    /// Per slot: whether the probability is the mean-accuracy fallback.
    fallback: Vec<bool>,
}

impl Fuser {
    /// A fuser with the given configuration.
    pub fn new(config: FusionConfig) -> Self {
        Fuser { config }
    }

    /// Access the configuration.
    pub fn config(&self) -> &FusionConfig {
        &self.config
    }

    /// Run fusion over `batch`. `gold` is only consulted when the
    /// configuration asks for gold-standard accuracy initialisation; pass
    /// `None` for fully unsupervised runs.
    ///
    /// This is [`Fuser::run_with_attribution`] without the attribution.
    /// The caller's trace records the rounds only (a `fuse` span), exactly
    /// what a run over a shared graph ([`Fuser::run_prebuilt`]) records,
    /// so a preset's trace does not depend on who grouped its batch. The
    /// grouping job's counters are in `FusionOutput::stats`; to trace the
    /// job too, build the claims with [`Claims::build_recorded`] and fuse
    /// their projection with [`Fuser::run_prebuilt`].
    pub fn run(&self, batch: &ExtractionBatch, gold: Option<&GoldStandard>) -> FusionOutput {
        self.run_with_attribution(batch, gold).0
    }

    /// [`Fuser::run`] that also returns the per-value
    /// [`ProvenanceAttribution`] — which provenances support each scored
    /// triple, with their final learned accuracies. Row `i` of the
    /// attribution lines up with `scored[i]`. The error-taxonomy
    /// classifiers (`kf-diagnose`) consume this.
    pub fn run_with_attribution(
        &self,
        batch: &ExtractionBatch,
        gold: Option<&GoldStandard>,
    ) -> (FusionOutput, ProvenanceAttribution) {
        // Group, label (only for a gold-seeded run) and project, recording
        // none of it; the claims and their job's trace are dropped once
        // projected.
        let (graph, stats, labels) = {
            let claims = Claims::build(&batch.records, &self.config.mr);
            let seeded = matches!(self.config.init, InitAccuracy::FromGold { .. });
            let labels = gold.filter(|_| seeded).map(|g| claims.table().labels(g));
            (
                claims.project(self.config.granularity),
                claims.stats(),
                labels,
            )
        };
        self.run_prebuilt(&Arc::new(graph), stats, labels.as_deref())
    }

    /// [`Fuser::run_with_attribution`] over a claim graph built earlier —
    /// projected from the [`Claims`] of the same records at this
    /// configuration's granularity, and possibly shared with other runs —
    /// whose grouping job's counters were `stats`. `labels` is the graph's
    /// gold label column ([`SlotTable::labels`]), consulted only when the
    /// configuration asks for gold-standard accuracy initialisation.
    /// Output, attribution and `FusionOutput::stats` are exactly those of
    /// [`Fuser::run_with_attribution`] with that gold standard; the trace
    /// records the rounds only (a `fuse` span), the grouping job and the
    /// labelling being their builders' to record. The attribution holds
    /// `graph`, not a copy of it.
    pub fn run_prebuilt(
        &self,
        graph: &Arc<Grouped>,
        stats: JobStats,
        labels: Option<&[Label]>,
    ) -> (FusionOutput, ProvenanceAttribution) {
        let grouped: &Grouped = graph;
        let table: &SlotTable = grouped.table();
        let cfg = &self.config;
        let _fuse = kf_telemetry::span("fuse");

        // ---- Accuracy initialisation (§4.3.3) -----------------------------
        let n = grouped.n_provenances();
        let workers = cfg.mr.workers;
        let mut run = Run {
            cfg,
            grouped,
            item_cuts: balanced_cuts(table.n_items(), workers * CHUNKS_PER_WORKER, |i| {
                grouped.claims_before_item(i)
            }),
            prov_cuts: balanced_cuts(n, workers * CHUNKS_PER_WORKER, |p| {
                grouped.claims_before_prov(p)
            }),
            accuracy: vec![cfg.default_accuracy; n],
            evaluated: vec![false; n],
            probs: vec![None; grouped.n_triples()],
            fallback: vec![false; grouped.n_triples()],
        };
        if let (InitAccuracy::FromGold { sample_rate }, Some(labels)) = (cfg.init, labels) {
            run.init_accuracy_from_gold(labels, sample_rate);
        }

        // ---- Iterate Stage I ↔ Stage II ------------------------------------
        let driver = IterativeDriver {
            max_rounds: cfg.rounds.max(1),
            tolerance: cfg.tolerance,
        };
        let mut round_deltas = Vec::with_capacity(cfg.rounds);
        let outcome = driver.run(|round| {
            let _round = kf_telemetry::span("round");
            let round_start = std::time::Instant::now();
            kf_telemetry::add("fuse.rounds", 1);
            // Stage I: probabilities from current accuracies.
            {
                let _s1 = kf_telemetry::span("stage1");
                run.stage_one(round);
            }
            // Stage II: accuracies from probabilities. VOTE runs a single
            // stage-I pass; no accuracy iteration.
            let delta = if cfg.method.iterative() {
                let _s2 = kf_telemetry::span("stage2");
                run.stage_two(round)
            } else {
                0.0
            };
            round_deltas.push(delta);
            kf_telemetry::push_series("fuse.round_delta", delta);
            kf_telemetry::record_time("fuse.round_ns", round_start.elapsed().as_nanos() as u64);
            delta
        });

        // ---- Stage III: deduplicated output --------------------------------
        let mut scored = Vec::with_capacity(grouped.n_triples());
        for i in 0..table.n_items() {
            for slot in table.item_slots(i) {
                scored.push(ScoredTriple {
                    triple: table.triple(i, slot),
                    probability: run.probs[slot],
                    n_provenances: grouped.slot_provs(slot).len() as u32,
                    n_extractors: table.n_extractors(slot),
                    n_pages: table.n_pages(slot),
                    fallback: run.fallback[slot],
                });
            }
        }

        kf_telemetry::add("fuse.provenances", n as u64);
        kf_telemetry::add("fuse.scored_triples", scored.len() as u64);
        let output = FusionOutput {
            scored,
            outcome,
            round_deltas,
            n_provenances: n,
            stats,
        };
        let attribution = ProvenanceAttribution {
            graph: Arc::clone(graph),
            accuracy: run.accuracy,
            evaluated: run.evaluated,
        };
        (output, attribution)
    }
}

impl Run<'_> {
    /// Initialise provenance accuracies from the LCWA gold labels of the
    /// slots (§4.3.3): accuracy = fraction of the provenance's
    /// gold-labelled triples that are labelled true, over a `sample_rate`
    /// subset of gold items; provenances with no labelled triples keep
    /// the default.
    fn init_accuracy_from_gold(&mut self, labels: &[Label], sample_rate: f64) {
        let (grouped, table) = (self.grouped, self.grouped.table());
        let n = grouped.n_provenances();
        let mut true_counts = vec![0u32; n];
        let mut labelled_counts = vec![0u32; n];

        for i in 0..table.n_items() {
            // Item-level subsampling of the gold standard, deterministic.
            if sample_rate < 1.0 {
                let h = hash::hash_u64(table.item(i).encode() ^ self.cfg.seed ^ 0x00c0_ffee);
                if (h % 1_000_000) as f64 / 1_000_000.0 >= sample_rate {
                    continue;
                }
            }
            for slot in table.item_slots(i) {
                let is_true = match labels[slot] {
                    Label::True => true,
                    Label::False => false,
                    Label::Unknown => continue,
                };
                for &pid in grouped.slot_provs(slot) {
                    labelled_counts[pid as usize] += 1;
                    true_counts[pid as usize] += is_true as u32;
                }
            }
        }

        for p in 0..n {
            if labelled_counts[p] > 0 {
                self.accuracy[p] = true_counts[p] as f64 / labelled_counts[p] as f64;
                self.evaluated[p] = true;
            }
        }
    }

    /// Stage I: rewrite every slot's probability and fallback flag from
    /// the current accuracies. Each task scores one range of items into
    /// the matching disjoint slices of the slot columns.
    fn stage_one(&mut self, round: usize) {
        let (cfg, table) = (self.cfg, self.grouped.table());
        // A provenance's vote term depends on its accuracy alone: one
        // logarithm per provenance per round, not one per claim.
        let accuracy = self.accuracy.iter();
        let terms: Vec<f64> = match cfg.method {
            Method::Vote => Vec::new(),
            Method::Accu => accuracy
                .map(|&a| methods::accu_vote(a, cfg.n_false_values))
                .collect(),
            Method::PopAccu => accuracy.map(|&a| methods::log_odds(a)).collect(),
        };
        // So does whether it survives the refinements (§4.3.2), checked
        // once per provenance per round, not once per claim: coverage
        // drops the never-evaluated after round 1, the threshold drops
        // accuracies below θ (an unevaluated one is the default).
        let coverage = cfg.filter_by_coverage && round > 0;
        let active: Vec<bool> = (self.accuracy.iter().zip(&self.evaluated))
            .map(|(&a, &evaluated)| {
                (evaluated || !coverage) && !cfg.accuracy_threshold.is_some_and(|t| a < t)
            })
            .collect();
        let scorer = ItemScorer {
            cfg,
            grouped: self.grouped,
            round,
            accuracy: &self.accuracy,
            evaluated: &self.evaluated,
            terms: &terms,
            active: &active,
        };
        let (mut probs, mut fallback) = (&mut self.probs[..], &mut self.fallback[..]);
        let mut tasks = Vec::with_capacity(self.item_cuts.len());
        for items in &self.item_cuts {
            let n_slots = table.item_slots(items.end - 1).end - table.item_slots(items.start).start;
            let (p, rest) = probs.split_at_mut(n_slots);
            probs = rest;
            let (f, rest) = fallback.split_at_mut(n_slots);
            fallback = rest;
            let scorer = &scorer;
            tasks.push(move || scorer.score_items(items.clone(), p, f));
        }
        let work = run_tasks(cfg.mr.workers, tasks);
        if cfg.method == Method::PopAccu {
            let passes = work.iter().map(|w| w.passes).sum();
            kf_telemetry::add("fuse.popaccu_passes", passes);
            let value_passes = work.iter().map(|w| w.value_passes).sum();
            kf_telemetry::add("fuse.popaccu_value_passes", value_passes);
        }
    }

    /// Stage II: re-estimate provenance accuracies as the mean probability
    /// of (a sample of) their triples. Returns the mean absolute accuracy
    /// change.
    ///
    /// A provenance's probabilities are gathered through the transpose in
    /// ascending slot order — the order a by-provenance shuffle of the
    /// slots delivers — so the reservoir draws and the `f64` sum are the
    /// same whatever the worker count. Each task owns one range of
    /// provenances; the changes are summed afterwards, in provenance
    /// order, for the same reason.
    fn stage_two(&mut self, round: usize) -> f64 {
        let (cfg, grouped) = (self.cfg, self.grouped);
        let skip_unevaluated = cfg.filter_by_coverage && round > 0;
        let probs = &self.probs;
        let (mut accuracy, mut evaluated) = (&mut self.accuracy[..], &mut self.evaluated[..]);
        let mut tasks = Vec::with_capacity(self.prov_cuts.len());
        for range in &self.prov_cuts {
            let (acc, rest) = accuracy.split_at_mut(range.len());
            accuracy = rest;
            let (eval, rest) = evaluated.split_at_mut(range.len());
            evaluated = rest;
            tasks.push(move || {
                // `|Δ accuracy|` of every provenance this round updates.
                let mut deltas = Vec::new();
                let mut values = Vec::new();
                for (i, p) in range.clone().enumerate() {
                    if skip_unevaluated && !eval[i] {
                        continue;
                    }
                    values.clear();
                    let slots = grouped.prov_slots(p).iter();
                    values.extend(slots.filter_map(|&s| probs[s as usize]));
                    if values.is_empty() {
                        continue;
                    }
                    let sampled;
                    let mut sample = &values;
                    if values.len() > cfg.sample_limit {
                        let seed = hash::hash_u64((p as u64) ^ ((round as u64) << 32) ^ cfg.seed);
                        sampled = Reservoir::sample_vec(values.clone(), cfg.sample_limit, seed);
                        sample = &sampled;
                    }
                    let mean = sample.iter().sum::<f64>() / sample.len() as f64;
                    deltas.push((acc[i] - mean).abs());
                    acc[i] = mean.clamp(0.0, 1.0);
                    eval[i] = true;
                }
                deltas
            });
        }
        let deltas = run_tasks(cfg.mr.workers, tasks).concat();
        match deltas.len() {
            0 => 0.0,
            updated => deltas.iter().sum::<f64>() / updated as f64,
        }
    }
}

/// How many ranges per worker each stage is cut into, at equal claim
/// counts. A range's cost per claim varies — Stage I also pays per value
/// and per inner POPACCU iteration — so one range per worker leaves most
/// of the work with one of them; several short ranges pulled on demand
/// balance whatever the cost model.
const CHUNKS_PER_WORKER: usize = 8;

/// Cut `0..n` into at most `parts` contiguous non-empty ranges of roughly
/// equal weight, where `before(i)` is the total weight of `0..i`.
fn balanced_cuts(n: usize, parts: usize, before: impl Fn(usize) -> usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let prefix: Vec<usize> = (0..=n).map(before).collect();
    let mut cuts = Vec::with_capacity(parts);
    let mut start = 0;
    for part in 1..=parts {
        let end = prefix.partition_point(|&w| w < prefix[n] * part / parts);
        let end = if part == parts { n } else { end };
        if end > start {
            cuts.push(start..end);
            start = end;
        }
    }
    cuts
}

/// Stage I's view of one round: the graph, the configuration and the
/// per-provenance columns the round reads.
struct ItemScorer<'a> {
    cfg: &'a FusionConfig,
    grouped: &'a Grouped,
    round: usize,
    accuracy: &'a [f64],
    evaluated: &'a [bool],
    /// Per-provenance vote terms under the configured method.
    terms: &'a [f64],
    /// Per provenance: whether it survives the refinements this round.
    active: &'a [bool],
}

/// The POPACCU fixpoint work of one range of items: passes, and passes
/// times values, summed over its items.
#[derive(Default)]
struct KernelWork {
    passes: u64,
    value_passes: u64,
}

impl ItemScorer<'_> {
    /// The prediction for a value none of whose provenances is active.
    /// With an accuracy threshold the paper compensates with the mean
    /// accuracy of the triple's own provenances; with pure coverage
    /// filtering there is no prediction.
    fn fallback_mean(&self, slot: usize) -> Option<f64> {
        let provs = self.grouped.slot_provs(slot);
        let has_evaluated = provs.iter().any(|&p| self.evaluated[p as usize]);
        (self.cfg.accuracy_threshold.is_some() && has_evaluated).then(|| {
            provs
                .iter()
                .map(|&p| self.accuracy[p as usize])
                .sum::<f64>()
                / provs.len() as f64
        })
    }

    /// Score `items` under the configured method and filters into
    /// `probs` / `fallback`, the slices of those items' slots.
    fn score_items(
        &self,
        items: Range<usize>,
        probs: &mut [Option<f64>],
        fallback: &mut [bool],
    ) -> KernelWork {
        let (cfg, grouped) = (self.cfg, self.grouped);
        // Bound once per range: the kernel reads the table item by item.
        let table: &SlotTable = grouped.table();
        let base = table.item_slots(items.start).start;
        let active = |&p: &u32| self.active[p as usize];
        // Buffers reused from item to item: one value's sampled active
        // provenances; per value, their count and summed vote terms; the
        // method's scratch and output.
        let (mut sampled, mut counts, mut scores) = (Vec::new(), Vec::new(), Vec::new());
        let (mut work, mut out) = (Vec::new(), Vec::new());
        let mut kernel = KernelWork::default();
        probs.fill(None);
        fallback.fill(false);
        for i in items {
            let slots = table.item_slots(i);
            // Coverage filter, round 1 (§4.3.2): only score items where at
            // least one triple has more than one provenance, so that the
            // subsequent accuracy evaluation rests on non-trivial
            // evidence. Items whose provenances already carry informative
            // (gold-seeded) accuracies are exempt — those are exactly the
            // provenances the filter exists to protect against.
            if cfg.filter_by_coverage
                && self.round == 0
                && cfg.method.iterative()
                && !slots.clone().any(|slot| {
                    let provs = grouped.slot_provs(slot);
                    provs.len() > 1 || provs.iter().any(|&p| self.evaluated[p as usize])
                })
            {
                continue;
            }

            // Active provenances per value (sampled at L): their count
            // and their summed vote terms, in claim order.
            counts.clear();
            scores.clear();
            for slot in slots.clone() {
                let mut pids = grouped.slot_provs(slot);
                // Only a list longer than L can have more than L active.
                if pids.len() > cfg.sample_limit {
                    sampled.clear();
                    sampled.extend(pids.iter().copied().filter(active));
                    let seed =
                        hash::hash_u64(table.item(i).encode() ^ (self.round as u64) ^ cfg.seed);
                    sampled = Reservoir::sample_vec(sampled, cfg.sample_limit, seed);
                    pids = &sampled;
                }
                let live = pids.iter().filter(|p| active(p));
                if cfg.method == Method::Vote {
                    counts.push(live.count());
                } else {
                    let mut count = 0;
                    let terms = live.inspect(|_| count += 1);
                    scores.push(terms.map(|&p| self.terms[p as usize]).sum());
                    counts.push(count);
                }
            }

            // With every provenance of the item filtered, no value has a
            // Bayesian prediction.
            if counts.iter().any(|&c| c > 0) {
                match cfg.method {
                    Method::Vote => methods::vote_into(&counts, &mut out),
                    Method::Accu => methods::accu_into(&scores, cfg.n_false_values, &mut out),
                    Method::PopAccu => {
                        let passes = methods::popaccu_into(
                            &scores,
                            &counts,
                            cfg.popaccu_inner_iters,
                            &mut work,
                            &mut out,
                        ) as u64;
                        kernel.passes += passes;
                        kernel.value_passes += passes * counts.len() as u64;
                    }
                }
            }
            for (vi, slot) in slots.enumerate() {
                if counts[vi] > 0 {
                    probs[slot - base] = Some(out[vi]);
                } else if let Some(mean) = self.fallback_mean(slot) {
                    // This value's provenances were all filtered (whether
                    // or not siblings survived): the fallback policy.
                    probs[slot - base] = Some(mean);
                    fallback[slot - base] = true;
                }
            }
        }
        kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FusionConfig, InitAccuracy, Method};
    use kf_mapreduce::MrConfig;
    use kf_types::{
        DataItem, EntityId, Extraction, ExtractorId, PageId, PatternId, PredicateId, Provenance,
        SiteId, Triple, Value,
    };

    /// Build an extraction with distinct provenance per (extractor, page).
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

    fn seq(cfg: FusionConfig) -> Fuser {
        Fuser::new(FusionConfig {
            mr: MrConfig::sequential(),
            ..cfg
        })
    }

    /// The paper's VOTE example: 7-vs-1-vs-1-vs-1 provenances.
    #[test]
    fn vote_probabilities_are_count_fractions() {
        let mut batch = ExtractionBatch::new();
        for page in 0..7 {
            batch.push(ext(1, 1, 10, 0, page));
        }
        batch.push(ext(1, 1, 11, 0, 100));
        batch.push(ext(1, 1, 12, 0, 200));
        batch.push(ext(1, 1, 13, 0, 300));
        let out = seq(FusionConfig::vote()).run(&batch, None);
        let map = out.probability_map();
        let p10 = map[&Triple::new(EntityId(1), PredicateId(1), Value::Entity(EntityId(10)))];
        assert!((p10 - 0.7).abs() < 1e-12);
        assert_eq!(out.scored.len(), 4);
        assert_eq!(out.predicted_fraction(), 1.0);
    }

    #[test]
    fn accu_converges_and_separates_good_from_bad() {
        // Ten items; provenance "good" (pages 0..10) always agrees with the
        // majority; provenance "bad" (page 1000) always provides a lone
        // conflicting value.
        let mut batch = ExtractionBatch::new();
        for item in 0..10u32 {
            for page in 0..5u32 {
                batch.push(ext(item, 1, 100 + item, 0, page * 10)); // site-spread
            }
            batch.push(ext(item, 1, 999, 0, 1000));
        }
        let out = seq(FusionConfig::accu()).run(&batch, None);
        let map = out.probability_map();
        for item in 0..10u32 {
            let good = map[&Triple::new(
                EntityId(item),
                PredicateId(1),
                Value::Entity(EntityId(100 + item)),
            )];
            let bad =
                map[&Triple::new(EntityId(item), PredicateId(1), Value::Entity(EntityId(999)))];
            assert!(good > 0.95, "good triple {good}");
            assert!(bad < 0.05, "bad triple {bad}");
        }
        assert!(out.outcome.rounds() <= 5);
    }

    #[test]
    fn popaccu_singleton_valley_is_exactly_default_accuracy() {
        // One item with a single provenance contributing a single triple:
        // Fig. 9's valley at exactly 0.8.
        let batch = ExtractionBatch::from_records(vec![ext(1, 1, 10, 0, 0)]);
        let out = seq(FusionConfig::popaccu()).run(&batch, None);
        let p = out.scored[0].probability.unwrap();
        assert!((p - 0.8).abs() < 1e-6, "got {p}");
    }

    #[test]
    fn methods_run_in_parallel_identically() {
        // The kernels write disjoint slices and Stage II sums in
        // provenance order, so the worker count is unobservable — down to
        // the last bit of every probability and convergence delta.
        let batch: ExtractionBatch = (0..2000)
            .map(|i| ext(i % 50, i % 3, i % 7, (i % 5) as u16, i % 400))
            .collect();
        for cfg in [
            FusionConfig::vote(),
            FusionConfig::accu(),
            FusionConfig::popaccu(),
            FusionConfig::popaccu_plus_unsup().with_sample_limit(3),
        ] {
            let bits = |workers: usize| {
                let out = Fuser::new(cfg.with_workers(workers)).run(&batch, None);
                let scored: Vec<_> = out
                    .scored
                    .iter()
                    .map(|s| (s.triple, s.probability.map(f64::to_bits), s.fallback))
                    .collect();
                let deltas: Vec<u64> = out.round_deltas.iter().map(|d| d.to_bits()).collect();
                (scored, deltas, out.outcome.rounds())
            };
            let sequential = bits(1);
            assert_eq!(sequential.0.len(), batch.unique_triples());
            for workers in [2, 8] {
                assert_eq!(sequential, bits(workers), "{:?} × {workers}", cfg.method);
            }
        }
    }

    #[test]
    fn coverage_filter_leaves_singleton_items_unpredicted() {
        // Item A: two provenances for the same value (evaluable).
        // Item B: a single lone extraction (not evaluable).
        let batch = ExtractionBatch::from_records(vec![
            ext(1, 1, 10, 0, 0),
            ext(1, 1, 10, 1, 50),
            ext(2, 1, 11, 2, 60),
        ]);
        let cfg = FusionConfig {
            filter_by_coverage: true,
            ..FusionConfig::popaccu()
        };
        let out = seq(cfg).run(&batch, None);
        let b = out
            .scored
            .iter()
            .find(|s| s.triple.subject == EntityId(2))
            .unwrap();
        assert_eq!(b.probability, None, "singleton item must be unpredicted");
        let a = out
            .scored
            .iter()
            .find(|s| s.triple.subject == EntityId(1))
            .unwrap();
        assert!(a.probability.is_some());
        assert!(out.predicted_fraction() < 1.0);
    }

    #[test]
    fn accuracy_threshold_triggers_fallback() {
        // A provenance that is always wrong drops below θ; its lone-item
        // triple then gets the mean-accuracy fallback instead of None.
        let mut batch = ExtractionBatch::new();
        // 20 items where provenance (0, page 0) conflicts with 4 agreeing
        // provenances → its accuracy crashes.
        for item in 0..20u32 {
            for page in 1..5u32 {
                batch.push(ext(item, 1, 100, 0, page * 10));
            }
            batch.push(ext(item, 1, 999, 0, 0));
        }
        // One extra item supported *only* by the bad provenance.
        batch.push(ext(77, 1, 5, 0, 0));
        let cfg = FusionConfig {
            accuracy_threshold: Some(0.5),
            ..FusionConfig::popaccu()
        };
        let out = seq(cfg).run(&batch, None);
        let lonely = out
            .scored
            .iter()
            .find(|s| s.triple.subject == EntityId(77))
            .unwrap();
        assert!(lonely.probability.is_some(), "fallback expected");
        assert!(lonely.fallback);
        // Fallback value equals the (low) accuracy of its only provenance.
        assert!(lonely.probability.unwrap() < 0.5);
    }

    #[test]
    fn gold_init_steers_accuracies() {
        // Two provenances, both singleton-per-item; gold says one is right
        // and the other wrong. With default init both triples score 0.8;
        // with gold init they separate immediately.
        let mut batch = ExtractionBatch::new();
        for item in 0..10u32 {
            batch.push(ext(item, 1, 100, 0, 0)); // provenance A claims 100
            batch.push(ext(item, 1, 200, 1, 50)); // provenance B claims 200
        }
        let mut gold = GoldStandard::new();
        for item in 0..10u32 {
            gold.insert(
                DataItem::new(EntityId(item), PredicateId(1)),
                Value::Entity(EntityId(100)),
            );
        }
        let unsup = seq(FusionConfig::popaccu()).run(&batch, None);
        let sup = seq(FusionConfig {
            init: InitAccuracy::FromGold { sample_rate: 1.0 },
            ..FusionConfig::popaccu()
        })
        .run(&batch, Some(&gold));

        let t_right = Triple::new(EntityId(0), PredicateId(1), Value::Entity(EntityId(100)));
        let t_wrong = Triple::new(EntityId(0), PredicateId(1), Value::Entity(EntityId(200)));
        let unsup_map = unsup.probability_map();
        let sup_map = sup.probability_map();
        // Unsupervised: symmetric conflict, both around 0.45.
        assert!((unsup_map[&t_right] - unsup_map[&t_wrong]).abs() < 0.05);
        // Supervised: gold breaks the tie decisively.
        assert!(sup_map[&t_right] > 0.9, "got {}", sup_map[&t_right]);
        assert!(sup_map[&t_wrong] < 0.1, "got {}", sup_map[&t_wrong]);
    }

    #[test]
    fn gold_sample_rate_zero_is_equivalent_to_default_init() {
        let batch: ExtractionBatch = (0..100)
            .map(|i| ext(i % 10, 1, i % 4, (i % 3) as u16, i))
            .collect();
        let mut gold = GoldStandard::new();
        gold.insert(
            DataItem::new(EntityId(0), PredicateId(1)),
            Value::Entity(EntityId(0)),
        );
        let a = seq(FusionConfig {
            init: InitAccuracy::FromGold { sample_rate: 0.0 },
            ..FusionConfig::popaccu()
        })
        .run(&batch, Some(&gold));
        let b = seq(FusionConfig::popaccu()).run(&batch, None);
        for (x, y) in a.scored.iter().zip(&b.scored) {
            assert_eq!(x.probability, y.probability);
        }
    }

    #[test]
    fn sample_limit_one_thousand_changes_little() {
        // Fig. 14: L = 1K behaves like L = 1M at (much larger) scale; here
        // groups are small so the outputs are identical.
        let batch: ExtractionBatch = (0..3000)
            .map(|i| ext(i % 100, i % 2, i % 5, (i % 6) as u16, i % 500))
            .collect();
        let big = seq(FusionConfig::popaccu()).run(&batch, None);
        let small = seq(FusionConfig::popaccu().with_sample_limit(1_000)).run(&batch, None);
        let map_big = big.probability_map();
        let map_small = small.probability_map();
        for (t, p) in &map_big {
            assert!((p - map_small[t]).abs() < 1e-9);
        }
    }

    #[test]
    fn spilled_pipeline_is_byte_identical_with_bounded_grouped_peak() {
        // The whole pipeline with the external shuffle on (the grouping
        // job spills; the rounds never shuffle) must reproduce the
        // in-memory run exactly — including per-slot probabilities, which
        // depend on value order through reservoir sampling and f64
        // accumulation — while `JobStats` proves the grouped envelope held.
        let batch: ExtractionBatch = (0..3000)
            .map(|i| ext(i % 120, i % 3, i % 6, (i % 7) as u16, i % 400))
            .collect();
        for cfg in [
            FusionConfig::vote(),
            FusionConfig::popaccu(),
            FusionConfig::popaccu_plus_unsup(),
        ] {
            let base = seq(cfg).run(&batch, None);
            assert_eq!(base.stats.spilled_bytes, 0);
            let threshold = 512usize;
            let spilled = Fuser::new(FusionConfig {
                mr: MrConfig::sequential()
                    .with_chunk_records(128)
                    .with_spill_threshold(threshold),
                ..cfg
            })
            .run(&batch, None);
            assert_eq!(base.scored.len(), spilled.scored.len());
            for (a, b) in base.scored.iter().zip(&spilled.scored) {
                assert_eq!(a.triple, b.triple);
                assert_eq!(a.probability, b.probability, "for {:?}", a.triple);
                assert_eq!(a.fallback, b.fallback);
            }
            assert_eq!(base.round_deltas, spilled.round_deltas);
            assert!(
                spilled.stats.spilled_bytes > 0,
                "{:?}: disk path not exercised",
                cfg.method
            );
            // Every wave (≤ ~2×128 records) fits under the threshold, so
            // the grouping job's grouped residency may not cross it.
            assert!(
                spilled.stats.peak_grouped_records <= threshold as u64,
                "{:?}: grouped peak {} above the {} threshold",
                cfg.method,
                spilled.stats.peak_grouped_records,
                threshold
            );
        }
    }

    #[test]
    fn attribution_lines_up_with_scored_output() {
        let batch: ExtractionBatch = (0..1500)
            .map(|i| ext(i % 60, i % 3, i % 5, (i % 6) as u16, i % 200))
            .collect();
        let fuser = seq(FusionConfig::popaccu());
        let (out, attribution) = fuser.run_with_attribution(&batch, None);
        // Identical output to the plain run.
        let plain = fuser.run(&batch, None);
        assert_eq!(out.scored.len(), plain.scored.len());
        for (a, b) in out.scored.iter().zip(&plain.scored) {
            assert_eq!(a.triple, b.triple);
            assert_eq!(a.probability, b.probability);
        }
        // Row i attributes scored[i]: provenance count matches, extractor
        // sets match the recorded n_extractors (ExtractorPage granularity
        // keeps the extractor in the key), accuracies are final values.
        assert_eq!(attribution.len(), out.scored.len());
        assert_eq!(attribution.keys().len(), out.n_provenances);
        for (i, s) in out.scored.iter().enumerate() {
            assert_eq!(attribution.provs(i).len(), s.n_provenances as usize);
            assert_eq!(attribution.extractors(i).len(), s.n_extractors as usize);
            let mean = attribution.mean_accuracy(i).unwrap();
            assert!((0.0..=1.0).contains(&mean));
        }
        // The iterative run must have evaluated at least one provenance.
        assert!(attribution.evaluated.iter().any(|&e| e));
    }

    /// A preset's trace does not depend on who grouped its batch: a
    /// one-call run records its rounds only, byte-equal (timings aside)
    /// to a run over a graph projected from claims built elsewhere, and
    /// both report the grouping job's counters in their stats.
    #[test]
    fn a_run_records_its_rounds_only_however_its_graph_was_built() {
        let batch: ExtractionBatch = (0..1500)
            .map(|i| ext(i % 60, i % 3, i % 5, (i % 6) as u16, i % 200))
            .collect();
        let fuser = seq(FusionConfig::popaccu());
        let traced = |fuse: &dyn Fn() -> FusionOutput| {
            let trace = kf_telemetry::Trace::new();
            let output = {
                let _t = kf_telemetry::install(&trace);
                fuse()
            };
            let mut report = trace.snapshot();
            report.quarantine_timings();
            (output, report)
        };
        let (alone, alone_trace) = traced(&|| fuser.run_with_attribution(&batch, None).0);
        let claims = Claims::build(&batch.records, &fuser.config().mr);
        let graph = Arc::new(claims.project(fuser.config().granularity));
        let (shared, shared_trace) = traced(&|| fuser.run_prebuilt(&graph, claims.stats(), None).0);
        let spans: Vec<_> = alone_trace.root.children.iter().map(|c| &c.name).collect();
        assert_eq!(spans, ["fuse"]);
        assert_eq!(alone_trace, shared_trace);
        assert_eq!(alone.stats, shared.stats);
        assert_eq!(alone.stats.map_input, batch.len() as u64);
    }

    /// One copy of the per-slot columns: the claims, both preset
    /// projections of them and the attribution of a run over either graph
    /// point at one slot table, and graph equality still compares columns
    /// only, whatever job grouped the claims.
    #[test]
    fn claims_graphs_and_attributions_share_one_slot_table() {
        let batch: ExtractionBatch = (0..900)
            .map(|i| ext(i % 31, i % 3, i % 6, (i % 4) as u16, i % 70))
            .collect();
        let claims = Claims::build(&batch.records, &MrConfig::sequential());
        let spilled_mr = MrConfig::sequential()
            .with_chunk_records(64)
            .with_spill_threshold(128);
        let spilled = Claims::build(&batch.records, &spilled_mr);
        assert_ne!(claims.stats(), spilled.stats());
        assert!(!Arc::ptr_eq(claims.table(), spilled.table()));
        for cfg in [FusionConfig::popaccu(), FusionConfig::popaccu_plus_unsup()] {
            let graph = Arc::new(claims.project(cfg.granularity));
            assert!(Arc::ptr_eq(graph.table(), claims.table()));
            let (out, attribution) = seq(cfg).run_prebuilt(&graph, claims.stats(), None);
            assert_eq!(attribution.len(), out.scored.len());
            assert!(Arc::ptr_eq(&attribution.graph, &graph));
            assert!(Arc::ptr_eq(attribution.graph.table(), claims.table()));
            assert_eq!(*graph, spilled.project(cfg.granularity));
        }
    }

    /// A one-value item's first fixpoint pass is its last, and the
    /// round's work counters add up every item's passes.
    #[test]
    fn one_value_items_take_one_popaccu_pass_per_round() {
        // 30 items, each one value from three provenances.
        let batch: ExtractionBatch = (0..90)
            .map(|i| ext(i % 30, 1, 7, (i % 4) as u16, i))
            .collect();
        let trace = kf_telemetry::Trace::new();
        let out = {
            let _t = kf_telemetry::install(&trace);
            seq(FusionConfig::popaccu()).run(&batch, None)
        };
        let report = trace.snapshot();
        let counter = |name: &str| {
            let found = report.counters.iter().find(|c| c.name == name);
            found.map_or(0, |c| c.value)
        };
        let rounds = out.outcome.rounds() as u64;
        assert!(rounds > 1, "the counters must cover several rounds");
        assert_eq!(counter("fuse.rounds"), rounds);
        assert_eq!(counter("fuse.popaccu_passes"), 30 * rounds);
        assert_eq!(counter("fuse.popaccu_value_passes"), 30 * rounds);
    }

    #[test]
    fn round_deltas_shrink() {
        let batch: ExtractionBatch = (0..5000)
            .map(|i| ext(i % 200, i % 3, i % 6, (i % 8) as u16, i % 700))
            .collect();
        let out = seq(FusionConfig::popaccu().with_rounds(5)).run(&batch, None);
        assert!(!out.round_deltas.is_empty());
        // Fig. 14: probabilities change a lot in round 1, then stabilise.
        let first = out.round_deltas[0];
        let last = *out.round_deltas.last().unwrap();
        assert!(
            last <= first,
            "deltas did not shrink: {:?}",
            out.round_deltas
        );
    }

    #[test]
    fn empty_batch_yields_empty_output() {
        let out = seq(FusionConfig::popaccu()).run(&ExtractionBatch::new(), None);
        assert!(out.scored.is_empty());
        assert_eq!(out.n_provenances, 0);
    }

    #[test]
    fn single_method_all_configs_smoke() {
        let batch: ExtractionBatch = (0..500)
            .map(|i| ext(i % 40, i % 4, i % 3, (i % 12) as u16, i % 100))
            .collect();
        for cfg in [
            FusionConfig::vote(),
            FusionConfig::accu(),
            FusionConfig::popaccu(),
            FusionConfig::popaccu_plus_unsup(),
        ] {
            let out = seq(cfg).run(&batch, None);
            assert_eq!(out.scored.len(), batch.unique_triples());
            for s in &out.scored {
                if let Some(p) = s.probability {
                    assert!((0.0..=1.0).contains(&p), "{} out of range", p);
                }
            }
        }
    }

    #[test]
    fn probabilities_per_item_sum_to_at_most_one() {
        let batch: ExtractionBatch = (0..2000)
            .map(|i| ext(i % 30, 0, i % 9, (i % 7) as u16, i % 300))
            .collect();
        for m in [Method::Vote, Method::Accu, Method::PopAccu] {
            let out = seq(FusionConfig::popaccu().with_method(m)).run(&batch, None);
            let mut by_item: std::collections::HashMap<DataItem, f64> =
                std::collections::HashMap::new();
            for s in &out.scored {
                if !s.fallback {
                    if let Some(p) = s.probability {
                        *by_item.entry(s.triple.data_item()).or_default() += p;
                    }
                }
            }
            for (item, sum) in by_item {
                assert!(sum <= 1.0 + 1e-6, "{m:?} {item:?} sums to {sum}");
            }
        }
    }
}
