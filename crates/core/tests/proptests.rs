//! Property-based tests for the fusion methods: probabilistic invariants
//! that must hold for any candidate-set shape — for the grouping stage:
//! the claim graph projected from chunked, spilled and in-memory claims
//! must equal, at every granularity, an ordered-map oracle written here —
//! and for the round kernels: every preset must match, bit for bit, a
//! sequential oracle written here from the paper's definitions.

use kf_core::methods::{accu, popaccu, vote};
use kf_core::{Claims, Fuser, FusionConfig, Grouped, InitAccuracy, Method};
use kf_mapreduce::{MrConfig, Reservoir};
use kf_types::{
    hash, DataItem, EntityId, Extraction, ExtractionBatch, ExtractorId, GoldStandard, Granularity,
    Label, Numeric, PageId, PatternId, PredicateId, Provenance, ProvenanceKey, SiteId, StrId,
    Triple, Value,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Arbitrary extraction batches spanning the corpus shapes that matter for
/// grouping: few/many items, value conflicts — entities, strings and
/// numbers, negative ones included, so an item's values span every
/// variant of [`Value`]'s order — shared and singleton provenances,
/// multi-site pages.
fn arb_batch() -> impl Strategy<Value = Vec<Extraction>> {
    let value = (0u8..3, 0u32..8).prop_map(|(kind, o)| match kind {
        0 => Value::Entity(EntityId(o)),
        1 => Value::Str(StrId(o)),
        _ => Value::Num(Numeric(o as i64 - 4)),
    });
    prop::collection::vec((0u32..20, 0u32..4, value, 0u16..5, 0u32..40), 0..250).prop_map(
        |tuples| {
            tuples
                .into_iter()
                .map(|(s, p, o, extractor, page)| {
                    Extraction::new(
                        Triple::new(EntityId(s), PredicateId(p), o),
                        Provenance::new(
                            ExtractorId(extractor),
                            PageId(page),
                            SiteId(page / 8),
                            PatternId(extractor as u32 % 3),
                        ),
                    )
                })
                .collect()
        },
    )
}

/// [`arb_batch`] plus exact copies of some of its records (the index of
/// each copied record taken modulo the batch length), anywhere in the
/// batch: the duplicates a claim's record count must include.
fn arb_batch_with_duplicates() -> impl Strategy<Value = Vec<Extraction>> {
    let copies = prop::collection::vec((0usize..1_000, 0usize..1_000), 0..60);
    (arb_batch(), copies).prop_map(|(mut batch, copies)| {
        for (from, to) in copies {
            if !batch.is_empty() {
                let record = batch[from % batch.len()];
                batch.insert(to % (batch.len() + 1), record);
            }
        }
        batch
    })
}

/// Candidate sets: up to 8 values, each with up to 10 provenances whose
/// accuracies lie in (0, 1).
fn arb_cands() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.05f64..0.95, 1..10), 1..8)
}

// ---- The claim-graph oracle -----------------------------------------------
// What `Claims::build(..).project(g)` must produce, spelled out over
// ordered maps and sets (sharing nothing with `kf_core::observation`):
// items and values in order, per triple its distinct provenance keys,
// extractors and pages, dense ids by key rank, and the transpose.

/// Per triple, in canonical order: its provenance keys, distinct
/// extractors and distinct pages.
type OracleSlots = BTreeMap<
    Triple,
    (
        BTreeSet<ProvenanceKey>,
        BTreeSet<ExtractorId>,
        BTreeSet<PageId>,
    ),
>;

fn assert_matches_graph_oracle(graph: &Grouped, batch: &[Extraction], granularity: Granularity) {
    let mut slots = OracleSlots::new();
    for e in batch {
        let slot = slots.entry(e.triple).or_default();
        slot.0.insert(ProvenanceKey::at(
            granularity,
            &e.provenance,
            e.triple.predicate,
        ));
        slot.1.insert(e.provenance.extractor);
        slot.2.insert(e.provenance.page);
    }
    let keys: BTreeSet<ProvenanceKey> = slots.values().flat_map(|s| s.0.iter().copied()).collect();
    let keys: Vec<ProvenanceKey> = keys.into_iter().collect();
    let id = |key: &ProvenanceKey| keys.binary_search(key).expect("a known key") as u32;
    let items: BTreeSet<DataItem> = slots.keys().map(Triple::data_item).collect();

    let table = graph.table();
    assert_eq!(table.n_items(), items.len());
    assert_eq!(graph.n_triples(), slots.len());
    assert_eq!(graph.keys(), &keys[..]);
    // Forward lists: triples in canonical order, ids sorted per slot.
    let mut transpose: Vec<Vec<u32>> = vec![Vec::new(); keys.len()];
    let mut oracle = slots.iter();
    let mut claims = 0;
    for (i, item) in items.iter().enumerate() {
        assert_eq!(table.item(i), *item);
        assert_eq!(graph.claims_before_item(i), claims);
        for slot in table.item_slots(i) {
            let (triple, (provs, extractors, pages)) = oracle.next().expect("a slot too many");
            assert_eq!(table.triple(i, slot), *triple);
            let ids: Vec<u32> = provs.iter().map(id).collect();
            assert_eq!(graph.slot_provs(slot), &ids[..], "{triple:?}");
            assert_eq!(table.n_extractors(slot) as usize, extractors.len());
            assert_eq!(table.n_pages(slot) as usize, pages.len());
            ids.iter()
                .for_each(|&p| transpose[p as usize].push(slot as u32));
            claims += ids.len();
        }
    }
    assert!(oracle.next().is_none(), "a slot too few");
    assert_eq!(
        (graph.n_claims(), graph.claims_before_item(items.len())),
        (claims, claims)
    );
    // Transpose: each provenance's slots, ascending.
    let mut before = 0;
    for (p, slots) in transpose.iter().enumerate() {
        assert_eq!(graph.prov_slots(p), &slots[..], "{:?}", keys[p]);
        assert_eq!(graph.support(p) as usize, slots.len());
        assert_eq!(graph.claims_before_prov(p), before);
        before += slots.len();
    }
    assert_eq!(graph.claims_before_prov(keys.len()), claims);
}

/// What [`Claims::build`] must produce, spelled out as a `BTreeMap`
/// group-by of the raw records: per triple in canonical order, its record
/// count (exact duplicates included) and its distinct raw provenances, in
/// order. Distinct extractors and pages are counted off those.
fn assert_matches_claims_oracle(claims: &Claims, batch: &[Extraction]) {
    let mut slots: BTreeMap<Triple, (u32, BTreeSet<Provenance>)> = BTreeMap::new();
    for e in batch {
        let slot = slots.entry(e.triple).or_default();
        slot.0 += 1;
        slot.1.insert(e.provenance);
    }
    let items: BTreeSet<DataItem> = slots.keys().map(Triple::data_item).collect();
    let table = claims.table();
    assert_eq!(table.n_items(), items.len());
    assert_eq!(table.n_triples(), slots.len());
    let mut oracle = slots.iter();
    for i in 0..items.len() {
        for slot in table.item_slots(i) {
            let (triple, (records, provs)) = oracle.next().expect("a slot too many");
            assert_eq!(table.triple(i, slot), *triple);
            assert_eq!(table.n_records(slot), *records, "{triple:?}");
            let provs: Vec<Provenance> = provs.iter().copied().collect();
            assert_eq!(claims.slot_provenances(slot), &provs[..], "{triple:?}");
            let pages: BTreeSet<PageId> = provs.iter().map(|p| p.page).collect();
            assert_eq!(table.n_pages(slot) as usize, pages.len(), "{triple:?}");
            let extractors: BTreeSet<ExtractorId> = provs.iter().map(|p| p.extractor).collect();
            assert_eq!(
                table.n_extractors(slot) as usize,
                extractors.len(),
                "{triple:?}"
            );
        }
    }
    assert!(oracle.next().is_none(), "a slot too few");
}

// ---- The sequential oracle ------------------------------------------------
// Stage I and Stage II written naively over ordered maps, straight from
// §4.1–4.3 (and sharing nothing with `kf_core::pipeline` or its kernels):
// what the CSR kernels must reproduce bit for bit, reservoir draws and
// `f64` summation order included.

/// What a fusion run is compared on.
#[derive(Debug, PartialEq)]
struct Fused {
    /// Per triple in canonical order: probability bits, fallback flag.
    scored: Vec<(Triple, Option<u64>, bool)>,
    /// Per provenance in key order: final accuracy bits, evaluated flag.
    provenances: Vec<(ProvenanceKey, u64, bool)>,
    rounds: usize,
}

fn clamped(a: f64) -> f64 {
    a.clamp(0.01, 0.99)
}

/// `exp(s) / (Σ exp(s) + extra)`, stably.
fn oracle_softmax(scores: &[f64], extra: f64) -> Vec<f64> {
    let max = scores.iter().copied().fold(0.0f64, f64::max);
    let denom = scores.iter().map(|&s| (s - max).exp()).sum::<f64>() + extra * (-max).exp();
    scores.iter().map(|&s| (s - max).exp() / denom).collect()
}

/// Probabilities of one item's values from the accuracies of each
/// value's (sampled, active) provenances — §4.1.
fn oracle_method(cfg: &FusionConfig, cands: &[Vec<f64>]) -> Vec<f64> {
    let counts: Vec<f64> = cands.iter().map(|c| c.len() as f64).collect();
    let total: f64 = counts.iter().sum();
    let vote_shares: Vec<f64> = counts.iter().map(|&m| m / total).collect();
    match cfg.method {
        Method::Vote => vote_shares,
        Method::Accu => {
            let n = cfg.n_false_values;
            let scores: Vec<f64> = cands
                .iter()
                .map(|accs| {
                    accs.iter()
                        .map(|&a| (n * clamped(a) / (1.0 - clamped(a))).ln())
                        .sum()
                })
                .collect();
            oracle_softmax(&scores, (n - cands.len() as f64).max(0.0))
        }
        Method::PopAccu => {
            let base: Vec<f64> = cands
                .iter()
                .map(|accs| {
                    accs.iter()
                        .map(|&a| (clamped(a) / (1.0 - clamped(a))).ln())
                        .sum()
                })
                .collect();
            let mut probs = vote_shares;
            for _ in 0..cfg.popaccu_inner_iters.max(1) {
                let masses: Vec<f64> = counts
                    .iter()
                    .zip(&probs)
                    .map(|(&n, &p)| n * (1.0 - p) + 1e-3)
                    .collect();
                let mass_total: f64 = masses.iter().sum();
                let scores: Vec<f64> = (0..cands.len())
                    .map(|v| base[v] - counts[v] * (masses[v] / mass_total).max(1e-6).ln())
                    .collect();
                let next = oracle_softmax(&scores, 1.0);
                let moved: f64 = next.iter().zip(&probs).map(|(a, b)| (a - b).abs()).sum();
                probs = next;
                if moved < 1e-9 {
                    break;
                }
            }
            probs
        }
    }
}

fn oracle(batch: &[Extraction], cfg: &FusionConfig, gold: Option<&GoldStandard>) -> Fused {
    // The claims: item → value → provenances, everything ordered.
    let mut claims: BTreeMap<DataItem, BTreeMap<Value, BTreeSet<ProvenanceKey>>> = BTreeMap::new();
    for e in batch {
        claims
            .entry(e.triple.data_item())
            .or_default()
            .entry(e.triple.object)
            .or_default()
            .insert(ProvenanceKey::at(
                cfg.granularity,
                &e.provenance,
                e.triple.predicate,
            ));
    }
    // A provenance's dense id (it seeds Stage II's sampler) is its rank.
    let keys: BTreeSet<ProvenanceKey> = claims
        .values()
        .flatten()
        .flat_map(|(_, ps)| ps)
        .copied()
        .collect();
    let id: HashMap<ProvenanceKey, u64> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (*k, i as u64))
        .collect();

    // (accuracy, evaluated) per provenance — §4.3.3 initialisation.
    let mut acc: HashMap<ProvenanceKey, (f64, bool)> = keys
        .iter()
        .map(|k| (*k, (cfg.default_accuracy, false)))
        .collect();
    if let (InitAccuracy::FromGold { sample_rate }, Some(gold)) = (cfg.init, gold) {
        let mut tally: HashMap<ProvenanceKey, (u32, u32)> = HashMap::new();
        for (item, values) in &claims {
            let h = hash::hash_u64(item.encode() ^ cfg.seed ^ 0x00c0_ffee);
            if sample_rate < 1.0 && (h % 1_000_000) as f64 / 1_000_000.0 >= sample_rate {
                continue;
            }
            for (value, provs) in values {
                let truth = match gold.label(&Triple::new(item.subject, item.predicate, *value)) {
                    Label::True => 1,
                    Label::False => 0,
                    Label::Unknown => continue,
                };
                for p in provs {
                    let t = tally.entry(*p).or_default();
                    t.0 += truth;
                    t.1 += 1;
                }
            }
        }
        for (p, (true_n, labelled)) in tally {
            acc.insert(p, (true_n as f64 / labelled as f64, true));
        }
    }

    let mut probs: BTreeMap<(DataItem, Value), (Option<f64>, bool)> = BTreeMap::new();
    let mut rounds = 0;
    for round in 0..cfg.rounds.max(1) {
        rounds = round + 1;
        // ---- Stage I: per data item -------------------------------------
        for (item, values) in &claims {
            let active = |p: &ProvenanceKey| {
                let (a, evaluated) = acc[p];
                let unevaluable = cfg.filter_by_coverage && round > 0 && !evaluated;
                let inaccurate = cfg.accuracy_threshold.is_some_and(|theta| a < theta);
                !unevaluable && !inaccurate
            };
            // §4.3.2, first round: an item is only scored on non-trivial
            // (multiply supported or gold-seeded) evidence.
            let trivial = values
                .values()
                .all(|ps| ps.len() <= 1 && ps.iter().all(|p| !acc[p].1));
            let skip = cfg.filter_by_coverage && round == 0 && cfg.method.iterative() && trivial;
            let seed = hash::hash_u64(item.encode() ^ (round as u64) ^ cfg.seed);
            let cands: Vec<Vec<f64>> = values
                .values()
                .map(|ps| {
                    let survivors: Vec<ProvenanceKey> =
                        ps.iter().filter(|p| active(p)).copied().collect();
                    Reservoir::sample_vec(survivors, cfg.sample_limit, seed)
                        .iter()
                        .map(|p| acc[p].0)
                        .collect()
                })
                .collect();
            let scores = if cands.iter().any(|c| !c.is_empty()) {
                oracle_method(cfg, &cands)
            } else {
                Vec::new()
            };
            for (v, (value, ps)) in values.iter().enumerate() {
                let prediction = if skip {
                    (None, false)
                } else if !cands[v].is_empty() {
                    (Some(scores[v]), false)
                } else if cfg.accuracy_threshold.is_some() && ps.iter().any(|p| acc[p].1) {
                    // Every provenance filtered: mean-accuracy fallback.
                    (
                        Some(ps.iter().map(|p| acc[p].0).sum::<f64>() / ps.len() as f64),
                        true,
                    )
                } else {
                    (None, false)
                };
                probs.insert((*item, *value), prediction);
            }
        }
        if !cfg.method.iterative() {
            break;
        }
        // ---- Stage II: per provenance -----------------------------------
        let mut by_prov: BTreeMap<ProvenanceKey, Vec<f64>> = BTreeMap::new();
        for (item, values) in &claims {
            for (value, ps) in values {
                if let (Some(p), _) = probs[&(*item, *value)] {
                    for prov in ps {
                        by_prov.entry(*prov).or_default().push(p);
                    }
                }
            }
        }
        let (mut moved, mut updated) = (0.0, 0usize);
        for (prov, values) in by_prov {
            if cfg.filter_by_coverage && round > 0 && !acc[&prov].1 {
                continue;
            }
            let seed = hash::hash_u64(id[&prov] ^ ((round as u64) << 32) ^ cfg.seed);
            let sample = Reservoir::sample_vec(values, cfg.sample_limit, seed);
            let mean = sample.iter().sum::<f64>() / sample.len() as f64;
            moved += (acc[&prov].0 - mean).abs();
            updated += 1;
            acc.insert(prov, (mean.clamp(0.0, 1.0), true));
        }
        if updated == 0 || moved / (updated as f64) < cfg.tolerance {
            break;
        }
    }

    Fused {
        scored: probs
            .into_iter()
            .map(|((item, value), (p, fallback))| {
                let triple = Triple::new(item.subject, item.predicate, value);
                (triple, p.map(f64::to_bits), fallback)
            })
            .collect(),
        provenances: keys
            .iter()
            .map(|k| (*k, acc[k].0.to_bits(), acc[k].1))
            .collect(),
        rounds,
    }
}

/// The same run through `kf_core`, projected the same way.
fn fused(batch: &[Extraction], cfg: FusionConfig, gold: Option<&GoldStandard>) -> Fused {
    let batch = ExtractionBatch::from_records(batch.to_vec());
    let (out, attribution) = Fuser::new(cfg).run_with_attribution(&batch, gold);
    Fused {
        scored: out
            .scored
            .iter()
            .map(|s| (s.triple, s.probability.map(f64::to_bits), s.fallback))
            .collect(),
        provenances: (0..attribution.keys().len())
            .map(|p| {
                (
                    attribution.keys()[p],
                    attribution.accuracy[p].to_bits(),
                    attribution.evaluated[p],
                )
            })
            .collect(),
        rounds: out.outcome.rounds(),
    }
}

proptest! {
    /// All methods produce probabilities in [0, 1] summing to ≤ 1.
    #[test]
    fn probabilities_are_valid(cands in arb_cands()) {
        let counts: Vec<usize> = cands.iter().map(Vec::len).collect();
        for probs in [
            vote(&counts),
            accu(&cands, 100.0),
            popaccu(&cands, &counts, 8),
        ] {
            prop_assert_eq!(probs.len(), cands.len());
            let mut sum = 0.0;
            for p in &probs {
                prop_assert!(p.is_finite());
                prop_assert!((0.0..=1.0 + 1e-9).contains(p), "p = {}", p);
                sum += p;
            }
            prop_assert!(sum <= 1.0 + 1e-6, "sum = {}", sum);
        }
    }

    /// Value order does not matter: permuting candidates permutes outputs.
    #[test]
    fn permutation_equivariance(cands in arb_cands()) {
        let counts: Vec<usize> = cands.iter().map(Vec::len).collect();
        let k = cands.len();
        // Rotate by one.
        let rot = |v: &Vec<Vec<f64>>| -> Vec<Vec<f64>> {
            (0..k).map(|i| v[(i + 1) % k].clone()).collect()
        };
        let rot_counts: Vec<usize> = (0..k).map(|i| counts[(i + 1) % k]).collect();

        let a = accu(&cands, 100.0);
        let b = accu(&rot(&cands), 100.0);
        for i in 0..k {
            prop_assert!((a[(i + 1) % k] - b[i]).abs() < 1e-9);
        }
        let pa = popaccu(&cands, &counts, 8);
        let pb = popaccu(&rot(&cands), &rot_counts, 8);
        for i in 0..k {
            prop_assert!((pa[(i + 1) % k] - pb[i]).abs() < 1e-9);
        }
    }

    /// Adding a provenance to a value does not decrease its probability
    /// (the monotonicity POPACCU is proved to have in [14]).
    #[test]
    fn support_monotonicity(cands in arb_cands(), extra in 0.2f64..0.9) {
        let counts: Vec<usize> = cands.iter().map(Vec::len).collect();
        let mut boosted = cands.clone();
        boosted[0].push(extra);
        let mut boosted_counts = counts.clone();
        boosted_counts[0] += 1;

        // Only sources better than chance add support.
        if extra > 0.5 {
            let a0 = accu(&cands, 100.0)[0];
            let a1 = accu(&boosted, 100.0)[0];
            prop_assert!(a1 >= a0 - 1e-9, "ACCU: {} -> {}", a0, a1);

            let p0 = popaccu(&cands, &counts, 8)[0];
            let p1 = popaccu(&boosted, &boosted_counts, 8)[0];
            prop_assert!(p1 >= p0 - 1e-6, "POPACCU: {} -> {}", p0, p1);
        }
    }

    /// One shuffle, many projections: claims grouped in memory, in
    /// chunked waves or through spilled run files (k-way merged) project,
    /// at every granularity, to exactly the graph of the ordered-map
    /// oracle — for any corpus shape, worker count, chunk quota and spill
    /// threshold (order included: `Grouped` equality covers item order,
    /// value order and dense provenance ids).
    #[test]
    fn projected_claims_match_the_graph_oracle_under_every_engine_configuration(
        batch in arb_batch(),
        workers in 1usize..5,
        chunk_records in 1usize..100,
        spill_threshold in 1usize..50,
    ) {
        let in_memory = MrConfig::with_workers(workers);
        let chunked = in_memory.with_chunk_records(chunk_records);
        let spilled = chunked.with_spill_threshold(spill_threshold);
        let claims = [in_memory, chunked, spilled].map(|mr| Claims::build(&batch, &mr));
        for granularity in Granularity::ALL {
            let graph = claims[0].project(granularity);
            assert_matches_graph_oracle(&graph, &batch, granularity);
            for other in &claims[1..] {
                prop_assert_eq!(&graph, &other.project(granularity), "{:?}", granularity);
            }
        }
        // Another worker count changes nothing either.
        let sequential = Grouped::build(&batch, Granularity::ExtractorSite, &MrConfig::sequential());
        prop_assert_eq!(&sequential, &claims[2].project(Granularity::ExtractorSite));
    }

    /// The claims themselves, not only their projections, against a
    /// `BTreeMap` group-by of the raw records: grouped in memory, in
    /// chunked waves and through spilled run files, at 1–4 workers, every
    /// slot's record count (duplicates included), raw provenances,
    /// distinct pages and distinct extractors match.
    #[test]
    fn claims_match_a_group_by_oracle_under_every_engine_configuration(
        batch in arb_batch_with_duplicates(),
        workers in 1usize..5,
        chunk_records in 1usize..100,
        spill_threshold in 1usize..50,
    ) {
        let in_memory = MrConfig::with_workers(workers);
        let chunked = in_memory.with_chunk_records(chunk_records);
        let spilled = chunked.with_spill_threshold(spill_threshold);
        for mr in [in_memory, chunked, spilled] {
            let claims = Claims::build(&batch, &mr);
            assert_matches_claims_oracle(&claims, &batch);
            let stats = claims.stats();
            prop_assert_eq!(stats.reduce_keys, claims.table().n_items() as u64);
            prop_assert_eq!(stats.spill_runs > 0, stats.spilled_bytes > 0);
        }
    }

    /// The chunked grouping peak respects the quota (grouping emits one
    /// record per extraction) while the one-wave peak is the whole batch.
    #[test]
    fn grouping_peak_is_bounded_by_quota(
        batch in arb_batch(),
        chunk_records in 1usize..64,
    ) {
        let one_wave = Claims::build(&batch, &MrConfig::sequential()).stats();
        prop_assert_eq!(one_wave.peak_resident_records, batch.len() as u64);
        let chunked_mr = MrConfig::sequential().with_chunk_records(chunk_records);
        let chunked = Claims::build(&batch, &chunked_mr).stats();
        prop_assert!(
            chunked.peak_resident_records <= (chunk_records as u64).min(batch.len() as u64)
        );
    }

    /// The round kernels against the sequential oracle: all five presets,
    /// with the reservoir never, sometimes and almost always entered (both
    /// sampling sites are order-sensitive), at any worker count.
    /// Probability bits, fallback flags, final accuracies, `evaluated`
    /// flags and the round count must all match.
    #[test]
    fn kernels_match_the_sequential_oracle(
        batch in arb_batch(),
        workers in 1usize..5,
        seed in 0u64..4,
    ) {
        // LCWA gold for every other subject: one true value per item.
        let mut gold = GoldStandard::new();
        for e in batch.iter().filter(|e| e.triple.subject.0 % 2 == 0) {
            let truth = Value::Entity(EntityId(e.triple.subject.0 % 8));
            gold.insert(e.triple.data_item(), truth);
        }
        for preset in [
            FusionConfig::vote(),
            FusionConfig::accu(),
            FusionConfig::popaccu(),
            FusionConfig::popaccu_plus_unsup(),
            FusionConfig::popaccu_plus(),
        ] {
            for sample_limit in [1, 3, 1_000_000] {
                let cfg = FusionConfig { seed, ..preset }
                    .with_sample_limit(sample_limit)
                    .with_workers(workers);
                let gold = matches!(cfg.init, InitAccuracy::FromGold { .. }).then_some(&gold);
                prop_assert_eq!(
                    fused(&batch, cfg, gold),
                    oracle(&batch, &cfg, gold),
                    "{:?} L={} init={:?}", cfg.method, sample_limit, cfg.init
                );
            }
        }
    }

    /// VOTE probabilities always sum to exactly 1 over non-empty counts.
    #[test]
    fn vote_sums_to_one(counts in prop::collection::vec(1usize..50, 1..10)) {
        let probs = vote(&counts);
        let sum: f64 = probs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    /// Raising a supporting source's accuracy never hurts the value it
    /// supports.
    #[test]
    fn accuracy_monotonicity(
        cands in arb_cands(),
        bump in 0.01f64..0.2,
    ) {
        let mut better = cands.clone();
        better[0][0] = (better[0][0] + bump).min(0.99);
        let counts: Vec<usize> = cands.iter().map(Vec::len).collect();

        let a0 = accu(&cands, 100.0)[0];
        let a1 = accu(&better, 100.0)[0];
        prop_assert!(a1 >= a0 - 1e-9);

        let p0 = popaccu(&cands, &counts, 12)[0];
        let p1 = popaccu(&better, &counts, 12)[0];
        prop_assert!(p1 >= p0 - 1e-6, "POPACCU: {} -> {}", p0, p1);
    }
}
