//! Oracle-pinned serving tests: across corpus shapes × seeds × presets,
//! every answer a [`KbReader`] gives must *byte*-equal an independent
//! sequential scan of the source artifacts (fusion output, attribution,
//! gold standard, calibration curve). The serving layer may never
//! disagree with the batch artifact it was compiled from.
//!
//! "Byte-equal" is literal: probabilities are compared via `f64::to_bits`
//! and the checkpoint roundtrip is compared as encoded bytes.

use kf_core::{Fuser, ProvenanceAttribution, ScoredTriple};
use kf_eval::{AblationRunner, CalibrationCurve, Preset};
use kf_serve::{FusedKb, KbBuildOptions, KbReader};
use kf_synth::{Corpus, SynthConfig, WebConfig, WorldConfig};
use kf_types::{DataItem, EntityId, KvCodec, Label, Numeric, PredicateId, StrId, Triple, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kf-serve-oracle-{}-{name}", std::process::id()))
}

/// Small corpus shapes spanning the axes serving branches on: item
/// multiplicity (entities × predicates), page count (provenance
/// volume), and error rate (label mix). Kept tiny so 100 cases ×
/// full-oracle scans stay fast.
fn arb_config() -> impl Strategy<Value = SynthConfig> {
    (40usize..160, 6usize..16, 60usize..200, 0.0f64..0.1).prop_map(
        |(n_entities, n_predicates, n_pages, source_error_rate)| SynthConfig {
            world: WorldConfig {
                n_types: 4,
                n_predicates,
                n_entities,
                ..WorldConfig::default()
            },
            web: WebConfig {
                n_sites: 12,
                n_pages,
                source_error_rate,
                ..WebConfig::default()
            },
            ..SynthConfig::tiny()
        },
    )
}

/// Rotate through the presets whose scoring paths differ (voting,
/// accuracy-iterating, popularity-aware, refined).
fn arb_preset() -> impl Strategy<Value = Preset> {
    prop_oneof![
        Just(Preset::Vote),
        Just(Preset::Accu),
        Just(Preset::PopAccu),
        Just(Preset::PopAccuPlus),
    ]
}

/// The oracle's own calibration lookup, written against the documented
/// bin-assignment rule rather than shared with the serving crate.
fn oracle_calibrate(curve: &CalibrationCurve, p: f64) -> f64 {
    let clamped = p.clamp(0.0, 1.0);
    let n = curve.bins.len();
    if n == 0 {
        return clamped;
    }
    let idx = usize::min((clamped * n as f64) as usize, n - 1);
    let bin = &curve.bins[idx];
    if bin.count == 0 || bin.observed_accuracy.is_nan() {
        clamped
    } else {
        bin.observed_accuracy
    }
}

/// Run the full oracle over one (config, seed, preset) triple: build a
/// KB from the corpus, independently re-derive every answer by
/// sequential scan, and compare byte-for-byte.
fn check_oracle(cfg: &SynthConfig, seed: u64, preset: Preset) {
    let corpus = Corpus::generate(cfg, seed);
    let opts = KbBuildOptions {
        method: preset.name().to_string(),
        workers: None,
    };
    let kb = FusedKb::build_from_corpus(&corpus, &opts, "oracle").expect("build succeeds");

    // The independent scan: re-fuse exactly as the preset specifies, from
    // the records and not the build's shared step, and evaluate that.
    let gold = preset.needs_gold().then_some(&corpus.gold);
    let (output, attribution) =
        Fuser::new(preset.config()).run_with_attribution(&corpus.batch, gold);
    let runner = AblationRunner {
        scale: "oracle".to_string(),
        ..AblationRunner::default()
    };
    let method = runner.evaluate(preset, &output, &corpus.gold, 0.0);
    let curve = &method.calibration_width;
    assert_eq!(kb.corpus, runner.corpus_summary(&corpus));
    assert_eq!(kb.wdev.to_bits(), method.wdev().to_bits());

    // Expected rows: predicted triples in ascending triple order.
    let mut expected: Vec<(usize, ScoredTriple)> = output
        .scored
        .iter()
        .enumerate()
        .filter(|(_, st)| st.probability.is_some())
        .collect();
    expected.sort_by_key(|&(_, st)| st.triple);

    assert_eq!(kb.n_triples(), expected.len());
    assert_eq!(kb.n_dropped as usize, output.scored.len() - expected.len());
    let reader = KbReader::new(kb);

    check_rows(&reader, &expected, curve, &corpus, &attribution);
    check_beliefs(&reader, &expected);
    check_rankings(&reader, &expected, curve);
    check_item_probe(&reader, &expected, curve);

    // Triples the fuser could not score are not served.
    for st in output.scored.iter().filter(|st| st.probability.is_none()) {
        assert!(reader.lookup(&st.triple).is_none());
        assert!(reader.drilldown(&st.triple).is_none());
    }

    check_roundtrip(reader.kb(), seed);
}

/// Point lookups + provenance drill-down for every served row.
fn check_rows(
    reader: &KbReader,
    expected: &[(usize, ScoredTriple)],
    curve: &CalibrationCurve,
    corpus: &Corpus,
    attribution: &ProvenanceAttribution,
) {
    for &(orig, st) in expected {
        let v = reader.lookup(&st.triple).expect("served triple found");
        let p = st.probability.expect("expected rows are predicted");
        assert_eq!(v.triple, st.triple);
        assert_eq!(v.raw.to_bits(), p.to_bits());
        assert_eq!(v.calibrated.to_bits(), oracle_calibrate(curve, p).to_bits());
        assert_eq!(v.label, corpus.gold.label(&st.triple));
        assert_eq!(v.n_pages, st.n_pages);
        assert_eq!(v.n_extractors, st.n_extractors);
        assert_eq!(v.fallback, st.fallback);

        let d = reader.drilldown(&st.triple).expect("drill-down found");
        let provs = attribution.provs(orig);
        assert_eq!(d.len(), provs.len());
        for (got, &id) in d.iter().zip(provs) {
            assert_eq!(got.id, id);
            assert_eq!(got.key, attribution.keys()[id as usize]);
            assert_eq!(
                got.accuracy.to_bits(),
                attribution.accuracy[id as usize].to_bits()
            );
            assert_eq!(got.evaluated, attribution.evaluated[id as usize]);
        }
    }
}

/// Belief distributions: group the scan by (subject, predicate) and
/// require identical candidate lists in identical (canonical) order.
fn check_beliefs(reader: &KbReader, expected: &[(usize, ScoredTriple)]) {
    let mut i = 0;
    while i < expected.len() {
        let t = expected[i].1.triple;
        let item = DataItem {
            subject: t.subject,
            predicate: t.predicate,
        };
        let mut j = i;
        while j < expected.len()
            && expected[j].1.triple.subject == t.subject
            && expected[j].1.triple.predicate == t.predicate
        {
            j += 1;
        }
        let belief = reader.belief(item).expect("item has a belief");
        assert_eq!(belief.len(), j - i);
        for (v, &(_, st)) in belief.iter().zip(&expected[i..j]) {
            assert_eq!(v.triple, st.triple);
            assert_eq!(
                v.raw.to_bits(),
                st.probability.expect("predicted").to_bits()
            );
        }
        // best() is the calibrated argmax with first-in-canonical-order
        // tie-break — exactly a sequential max scan.
        let best = belief.best();
        let oracle_best = belief
            .iter()
            .reduce(|a, b| if b.calibrated > a.calibrated { b } else { a })
            .expect("non-empty");
        assert_eq!(best, oracle_best);
        i = j;
    }
    assert!(reader
        .belief(DataItem {
            subject: EntityId(u32::MAX),
            predicate: PredicateId(u32::MAX),
        })
        .is_none());
}

/// The same payload under the other two `Value` variants.
fn other_variants(v: Value) -> [Value; 2] {
    let (entity, string, num) = (
        |x: u32| Value::Entity(EntityId(x)),
        |x: u32| Value::Str(StrId(x)),
        |x: u32| Value::Num(Numeric(x as i64)),
    );
    match v {
        Value::Entity(EntityId(x)) => [string(x), num(x)],
        Value::Str(StrId(x)) => [entity(x), num(x)],
        // Truncation is fine: any entity/string id makes a probe.
        Value::Num(Numeric(x)) => [entity(x as u32), string(x as u32)],
    }
}

/// `v` with its payload moved by `by` inside its variant, if that exists.
fn stepped(v: Value, by: i32) -> Option<Value> {
    Some(match v {
        Value::Entity(EntityId(x)) => Value::Entity(EntityId(x.checked_add_signed(by)?)),
        Value::Str(StrId(x)) => Value::Str(StrId(x.checked_add_signed(by)?)),
        Value::Num(Numeric(x)) => Value::Num(Numeric(x.checked_add(by.into())?)),
    })
}

/// The item probe against a sequential walk of the expected rows: every
/// served row is found at its own row number, every item with its exact
/// row range and a `best()` equal to a linear arg-max of the oracle's
/// calibrated values — and the keys a hash table gets wrong when it
/// trusts its hash are all absent: same subject under a predicate it has
/// no item for, the served item with an object just outside its run, and
/// a served object's payload under another `Value` variant.
fn check_item_probe(
    reader: &KbReader,
    expected: &[(usize, ScoredTriple)],
    curve: &CalibrationCurve,
) {
    let served: BTreeSet<Triple> = expected.iter().map(|&(_, st)| st.triple).collect();
    let items: BTreeSet<(EntityId, PredicateId)> =
        served.iter().map(|t| (t.subject, t.predicate)).collect();
    let max_pred = items.iter().map(|&(_, p)| p.0).max().unwrap_or(0);
    let calibrated =
        |row: usize| oracle_calibrate(curve, expected[row].1.probability.expect("predicted"));
    let absent = |t: Triple| {
        assert!(!served.contains(&t), "probe {t:?} is served");
        assert!(reader.lookup(&t).is_none(), "{t:?}");
        assert!(reader.drilldown(&t).is_none(), "{t:?}");
    };

    let mut i = 0;
    while i < expected.len() {
        let first = expected[i].1.triple;
        let run = expected[i..]
            .iter()
            .take_while(|(_, st)| st.triple.data_item() == first.data_item())
            .count();
        let j = i + run;

        let belief = reader.belief(first.data_item()).expect("served item");
        assert_eq!((belief.get(0).row as usize, belief.len()), (i, run));
        let mut best = i;
        for (row, &(_, st)) in (i..).zip(&expected[i..j]) {
            if calibrated(row) > calibrated(best) {
                best = row;
            }
            let t = st.triple;
            assert_eq!(reader.lookup(&t).expect("served row").row as usize, row);
            let drill = reader.drilldown(&t).expect("served row");
            assert_eq!(drill.view().row as usize, row);
            for object in other_variants(t.object) {
                let probe = Triple { object, ..t };
                if !served.contains(&probe) {
                    absent(probe);
                }
            }
        }
        assert_eq!(belief.best().row as usize, best);

        // Just below the run's first object and just above its last.
        let last = expected[j - 1].1.triple;
        let outside = [stepped(first.object, -1), stepped(last.object, 1)];
        for object in outside.into_iter().flatten() {
            absent(Triple { object, ..first });
        }

        // The same subject under every predicate it has no item for.
        for p in (0..=max_pred + 1).map(PredicateId) {
            if !items.contains(&(first.subject, p)) {
                let item = DataItem::new(first.subject, p);
                assert!(reader.belief(item).is_none(), "{item:?}");
                absent(Triple {
                    predicate: p,
                    ..first
                });
            }
        }
        i = j;
    }
}

/// Predicate rankings: for every predicate, the full top-k must equal
/// the scan sorted by (calibrated desc, canonical triple asc), and a
/// smaller k must be exactly its prefix.
fn check_rankings(reader: &KbReader, expected: &[(usize, ScoredTriple)], curve: &CalibrationCurve) {
    let mut preds: Vec<u32> = expected
        .iter()
        .map(|(_, st)| st.triple.predicate.0)
        .collect();
    preds.sort_unstable();
    preds.dedup();
    for &p in &preds {
        let mut rows: Vec<&ScoredTriple> = expected
            .iter()
            .map(|(_, st)| st)
            .filter(|st| st.triple.predicate.0 == p)
            .collect();
        rows.sort_by(|a, b| {
            let ca = oracle_calibrate(curve, a.probability.expect("predicted"));
            let cb = oracle_calibrate(curve, b.probability.expect("predicted"));
            cb.total_cmp(&ca).then_with(|| a.triple.cmp(&b.triple))
        });
        let top = reader
            .top_k(PredicateId(p), usize::MAX)
            .expect("predicate served");
        assert_eq!(top.len(), rows.len());
        for (v, st) in top.iter().zip(&rows) {
            assert_eq!(v.triple, st.triple);
        }
        let k = rows.len().min(3);
        let prefix = reader.top_k(PredicateId(p), k).expect("predicate served");
        assert_eq!(prefix.len(), k);
        for (a, b) in prefix.iter().zip(top.iter()) {
            assert_eq!(a, b);
        }
    }
    assert!(reader.top_k(PredicateId(u32::MAX), 5).is_none());
}

/// Checkpoint roundtrip: encoded bytes are canonical and survive
/// save/load exactly.
fn check_roundtrip(kb: &FusedKb, seed: u64) {
    let mut bytes = Vec::new();
    kb.encode(&mut bytes);
    let decoded = FusedKb::decode(&mut &bytes[..]).expect("decodes");
    assert_eq!(&decoded, kb);
    let mut again = Vec::new();
    decoded.encode(&mut again);
    assert_eq!(bytes, again, "re-encode must be byte-identical");

    let path = tmp_path(&format!("roundtrip-{seed}.kb"));
    kb.save(&path).expect("save");
    let loaded = FusedKb::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(&loaded, kb);
}

proptest! {
    /// The serving layer never disagrees with the batch artifacts: for
    /// any corpus shape, seed and preset, every reader answer equals an
    /// independent sequential scan, bit-for-bit.
    #[test]
    fn reader_matches_sequential_oracle(
        cfg in arb_config(),
        seed in 0u64..1_000,
        preset in arb_preset(),
    ) {
        check_oracle(&cfg, seed, preset);
    }
}

/// Building twice from the same corpus, from a freshly regenerated
/// same-seed corpus, or on one thread instead of three yields
/// byte-identical KBs (the property the CI `cmp` gate holds the CLI to).
#[test]
fn kb_compilation_is_deterministic() {
    let cfg = SynthConfig::tiny();
    let corpus = Corpus::generate(&cfg, 7);
    let regenerated = Corpus::generate(&cfg, 7);
    let on = |workers| KbBuildOptions {
        workers,
        ..KbBuildOptions::default()
    };
    let builds = [
        (&corpus, on(None)),
        (&corpus, on(None)),
        (&regenerated, on(None)),
        (&corpus, on(Some(1))),
        (&corpus, on(Some(3))),
    ];
    let bytes: Vec<Vec<u8>> = builds
        .iter()
        .map(|(corpus, opts)| {
            let kb = FusedKb::build_from_corpus(corpus, opts, "tiny").expect("build");
            let mut buf = Vec::new();
            kb.encode(&mut buf);
            buf
        })
        .collect();
    for (at, b) in bytes.iter().enumerate().skip(1) {
        assert!(b == &bytes[0], "build {at} differs from build 0");
    }
}

/// A method that names no preset is refused before anything is fused.
#[test]
fn build_rejects_unknown_method() {
    let corpus = Corpus::generate(&SynthConfig::tiny(), 1);
    let opts = KbBuildOptions {
        method: "no-such-method".to_string(),
        workers: None,
    };
    let err = FusedKb::build_from_corpus(&corpus, &opts, "tiny").expect_err("must refuse");
    assert!(matches!(err, kf_serve::BuildError::UnknownMethod(_)));
}

/// Labels survive the round through the KB: a served row's label always
/// equals a fresh gold-standard lookup (spot check at `small` scale so
/// the label column sees a realistic True/False/Unknown mix).
#[test]
fn labels_match_gold_at_small_scale() {
    let corpus = Corpus::generate(&SynthConfig::tiny(), 11);
    let kb =
        FusedKb::build_from_corpus(&corpus, &KbBuildOptions::default(), "tiny").expect("build");
    let reader = KbReader::new(kb);
    let mut seen = [false; 3];
    for row in 0..reader.kb().n_triples() {
        let v = reader.view(row as u32);
        assert_eq!(v.label, corpus.gold.label(&v.triple));
        seen[match v.label {
            Label::False => 0,
            Label::True => 1,
            Label::Unknown => 2,
        }] = true;
    }
    assert!(seen[1], "expected at least one true label");
}

/// Paper-scale oracle gate (CI runs it `--ignored` in release against
/// the shared corpus snapshot named by `KF_CORPUS`): the full per-row
/// oracle at the scale the paper reports.
#[test]
#[ignore = "paper-scale gate; needs KF_CORPUS and a release build"]
fn paper_scale_oracle_gate() {
    let path = std::env::var("KF_CORPUS").expect("KF_CORPUS names a corpus checkpoint");
    let corpus = Corpus::load(&path).expect("corpus loads");
    let opts = KbBuildOptions::default();
    let kb = FusedKb::build_from_corpus(&corpus, &opts, "paper").expect("build");

    let preset = Preset::PopAccuPlus;
    let gold = preset.needs_gold().then_some(&corpus.gold);
    let (output, attribution) =
        Fuser::new(preset.config()).run_with_attribution(&corpus.batch, gold);
    let runner = AblationRunner {
        scale: "paper".to_string(),
        ..AblationRunner::default()
    };
    let method = runner.evaluate(preset, &output, &corpus.gold, 0.0);
    let curve = &method.calibration_width;

    let mut expected: Vec<(usize, ScoredTriple)> = output
        .scored
        .iter()
        .enumerate()
        .filter(|(_, st)| st.probability.is_some())
        .collect();
    expected.sort_by_key(|&(_, st)| st.triple);
    assert_eq!(kb.n_triples(), expected.len());

    let reader = KbReader::new(kb);
    check_rows(&reader, &expected, curve, &corpus, &attribution);
    check_beliefs(&reader, &expected);
    check_rankings(&reader, &expected, curve);
    check_roundtrip(reader.kb(), corpus.seed);
}

/// The worked example in the README's "Querying a fused KB" section:
/// keep the REPL transcript honest by replaying its commands against a
/// seed-42 tiny KB and pinning the answers' shape.
#[test]
fn repl_session_from_readme_works() {
    let corpus = Corpus::generate(&SynthConfig::tiny(), 42);
    let kb =
        FusedKb::build_from_corpus(&corpus, &KbBuildOptions::default(), "tiny").expect("build");
    let reader = KbReader::new(kb);
    let stats = match kf_serve::eval_command(&reader, "stats").expect("stats") {
        kf_serve::ReplOutput::Text(t) => t,
        other => panic!("expected text, got {other:?}"),
    };
    assert!(
        stats.contains("method      popaccu_plus (POPACCU+)"),
        "{stats}"
    );
    assert!(stats.contains("scale=tiny seed=42"), "{stats}");

    // The README's worked session, verbatim (prefixed ids exercise the
    // paste-back-what-was-printed parsing). If fusion numerics change
    // upstream, regenerate the README transcript along with this test.
    let text = |cmd: &str| match kf_serve::eval_command(&reader, cmd).expect("command runs") {
        kf_serve::ReplOutput::Text(t) => t,
        other => panic!("expected text, got {other:?}"),
    };
    let top = text("top p9 3");
    assert!(top.starts_with("  1. (e0 p9 s1042)"), "{top}");
    assert_eq!(top.lines().count(), 3, "{top}");

    let item = text("item e0 p9");
    assert!(item.lines().count() >= 2, "{item}");
    assert!(
        item.contains("(e0 p9 s1042)") && item.contains("fallback"),
        "{item}"
    );

    let prov = text("prov e0 p9 s1042");
    assert!(prov.contains("support: 13 provenances"), "{prov}");
    assert!(
        prov.contains("ext=e0(TXT1)") && prov.contains("pattern="),
        "{prov}"
    );

    // Drive `top`/`item` on the canonical-first row too, like a user
    // exploring from `view`.
    let Triple {
        subject, predicate, ..
    } = reader.view(0).triple;
    for cmd in [
        format!("top p{} 5", predicate.0),
        format!("item e{} p{}", subject.0, predicate.0),
    ] {
        assert!(!text(&cmd).is_empty());
    }
}
