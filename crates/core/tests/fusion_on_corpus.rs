//! End-to-end fusion over a synthetic corpus: the fused probabilities must
//! carry real signal (high-probability triples much more accurate than the
//! raw extraction stream), and the refinement stack must behave as §4.3
//! describes.

use kf_core::{Fuser, FusionConfig, Method};
use kf_synth::{Corpus, SynthConfig};
use kf_types::Label;

fn corpus() -> Corpus {
    Corpus::generate(&SynthConfig::small(), 42)
}

/// LCWA accuracy of triples in a predicted-probability band.
fn band_accuracy(corpus: &Corpus, out: &kf_core::FusionOutput, lo: f64, hi: f64) -> Option<f64> {
    let mut t = 0usize;
    let mut n = 0usize;
    for s in out.scored.iter() {
        let Some(p) = s.probability else { continue };
        if p < lo || p >= hi {
            continue;
        }
        match corpus.gold.label(&s.triple) {
            Label::True => {
                t += 1;
                n += 1;
            }
            Label::False => n += 1,
            Label::Unknown => {}
        }
    }
    (n >= 30).then(|| t as f64 / n as f64)
}

#[test]
fn fusing_a_loaded_checkpoint_equals_fusing_the_generated_corpus() {
    // The checkpoint-and-fan-out pipeline rests on this: a corpus loaded
    // from disk must drive fusion to *exactly* the probabilities the
    // freshly generated corpus produces — no regeneration required.
    let generated = Corpus::generate(&SynthConfig::tiny(), 42);
    let path = std::env::temp_dir().join(format!(
        "kf-core-fusion-checkpoint-{}.kfc",
        std::process::id()
    ));
    generated.save(&path).unwrap();
    let loaded = Corpus::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(loaded, generated);

    for cfg in [FusionConfig::popaccu(), FusionConfig::popaccu_plus()] {
        let gold = matches!(cfg.init, kf_core::InitAccuracy::FromGold { .. });
        let out_gen = Fuser::new(cfg).run(&generated.batch, gold.then_some(&generated.gold));
        let out_load = Fuser::new(cfg).run(&loaded.batch, gold.then_some(&loaded.gold));
        assert_eq!(out_gen.scored.len(), out_load.scored.len());
        for (a, b) in out_gen.scored.iter().zip(out_load.scored.iter()) {
            assert_eq!(a.triple, b.triple);
            assert_eq!(a.probability, b.probability, "triple {:?}", a.triple);
        }
        assert_eq!(out_gen.round_deltas, out_load.round_deltas);
        assert_eq!(out_gen.n_provenances(), out_load.n_provenances());
    }
}

#[test]
fn all_methods_score_every_unique_triple() {
    let c = corpus();
    for cfg in [
        FusionConfig::vote(),
        FusionConfig::accu(),
        FusionConfig::popaccu(),
    ] {
        let out = Fuser::new(cfg).run(&c.batch, None);
        assert_eq!(out.scored.len(), c.batch.unique_triples());
        assert_eq!(out.predicted_fraction(), 1.0);
    }
}

#[test]
fn high_probability_triples_are_much_more_accurate() {
    // The paper's §3.2.2 use-case: triples the best system (POPACCU+) is
    // confident about can be "trusted and used directly" — their LCWA
    // accuracy must far exceed both the raw extraction stream and the
    // low-probability band.
    let c = corpus();
    let base = c.lcwa_accuracy();
    let out = Fuser::new(FusionConfig::popaccu_plus()).run(&c.batch, Some(&c.gold));
    let high = band_accuracy(&c, &out, 0.9, 1.01).expect("enough high-prob triples");
    let low = band_accuracy(&c, &out, 0.0, 0.1).expect("enough low-prob triples");
    assert!(
        high > base + 0.2,
        "high band {high} should far exceed base rate {base}"
    );
    assert!(high > low + 0.3, "high band {high} vs low band {low}");
}

#[test]
fn accu_and_popaccu_beat_vote_on_monotonicity() {
    // Spearman-style check: mean probability of true triples minus mean
    // probability of false triples — bigger is better separation.
    let c = corpus();
    let separation = |m: Method| {
        let out = Fuser::new(FusionConfig::popaccu().with_method(m)).run(&c.batch, None);
        let (mut st, mut nt, mut sf, mut nf) = (0.0, 0usize, 0.0, 0usize);
        for s in out.scored.iter() {
            let Some(p) = s.probability else { continue };
            match c.gold.label(&s.triple) {
                Label::True => {
                    st += p;
                    nt += 1;
                }
                Label::False => {
                    sf += p;
                    nf += 1;
                }
                Label::Unknown => {}
            }
        }
        st / nt as f64 - sf / nf as f64
    };
    let v = separation(Method::Vote);
    let a = separation(Method::Accu);
    let p = separation(Method::PopAccu);
    assert!(a > v, "ACCU separation {a} should beat VOTE {v}");
    assert!(p > v, "POPACCU separation {p} should beat VOTE {v}");
}

#[test]
fn coverage_filter_costs_some_predictions() {
    let c = corpus();
    let plain = Fuser::new(FusionConfig::popaccu()).run(&c.batch, None);
    let filtered = Fuser::new(FusionConfig {
        filter_by_coverage: true,
        ..FusionConfig::popaccu()
    })
    .run(&c.batch, None);
    assert_eq!(plain.predicted_fraction(), 1.0);
    // Paper: the coverage filter loses ~8.2% of predictions.
    let f = filtered.predicted_fraction();
    assert!(f < 1.0, "filter should drop some predictions");
    assert!(f > 0.5, "filter dropped too much: {f}");
}

#[test]
fn finer_granularity_changes_provenance_count() {
    use kf_types::Granularity;
    let c = corpus();
    let page = Fuser::new(FusionConfig::popaccu()).run(&c.batch, None);
    let site = Fuser::new(FusionConfig::popaccu().with_granularity(Granularity::ExtractorSite))
        .run(&c.batch, None);
    let fine = Fuser::new(
        FusionConfig::popaccu().with_granularity(Granularity::ExtractorSitePredicatePattern),
    )
    .run(&c.batch, None);
    assert!(
        site.n_provenances() < page.n_provenances(),
        "site-level must merge provenances: {} vs {}",
        site.n_provenances(),
        page.n_provenances()
    );
    assert!(
        fine.n_provenances() > site.n_provenances(),
        "predicate+pattern split must refine: {} vs {}",
        fine.n_provenances(),
        site.n_provenances()
    );
}

#[test]
fn popaccu_plus_improves_over_popaccu() {
    // The refinement stack's value in the paper (Figs. 9–11) is at the
    // trusted end of the curve: among triples predicted with probability
    // ≥ 0.9, POPACCU+ is far more precise than basic POPACCU (whose top
    // band sits barely above 50% — the overconfidence the refinements
    // exist to fix).
    let c = corpus();
    let base = Fuser::new(FusionConfig::popaccu()).run(&c.batch, None);
    let plus = Fuser::new(FusionConfig::popaccu_plus()).run(&c.batch, Some(&c.gold));
    let acc_base = band_accuracy(&c, &base, 0.9, 1.01).expect("enough POPACCU high-prob triples");
    let acc_plus = band_accuracy(&c, &plus, 0.9, 1.01).expect("enough POPACCU+ high-prob triples");
    assert!(
        acc_plus > acc_base + 0.2,
        "POPACCU+ high-band accuracy {acc_plus} should far exceed POPACCU {acc_base}"
    );
}

#[test]
fn fusion_is_deterministic_across_runs_and_workers() {
    let c = Corpus::generate(&SynthConfig::tiny(), 9);
    let run = |workers| {
        Fuser::new(FusionConfig::popaccu_plus_unsup().with_workers(workers)).run(&c.batch, None)
    };
    let a = run(1);
    let b = run(8);
    assert_eq!(a.scored.len(), b.scored.len());
    for (x, y) in a.scored.iter().zip(b.scored.iter()) {
        assert_eq!(x.triple, y.triple);
        match (x.probability, y.probability) {
            (Some(p), Some(q)) => assert!((p - q).abs() < 1e-12),
            (None, None) => {}
            other => panic!("mismatch {other:?}"),
        }
    }
}
