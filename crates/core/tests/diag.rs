//! Temporary diagnostic (run with --nocapture) — prints band accuracies
//! and predicted fractions per configuration.

use kf_core::{Fuser, FusionConfig};
use kf_synth::{Corpus, SynthConfig};
use kf_types::Label;

#[test]
#[ignore]
fn diag_bands() {
    let c = Corpus::generate(&SynthConfig::small(), 42);
    println!(
        "corpus: {} records, {} unique, lcwa_acc {:.3}, world_acc {:.3}",
        c.batch.len(),
        c.batch.unique_triples(),
        c.lcwa_accuracy(),
        c.world_accuracy()
    );
    let configs: Vec<(&str, FusionConfig, bool)> = vec![
        ("VOTE", FusionConfig::vote(), false),
        ("ACCU", FusionConfig::accu(), false),
        ("POPACCU", FusionConfig::popaccu(), false),
        ("POPACCU+unsup", FusionConfig::popaccu_plus_unsup(), false),
        ("POPACCU+", FusionConfig::popaccu_plus(), true),
        (
            "POPACCU+gran-only",
            FusionConfig::popaccu()
                .with_granularity(kf_types::Granularity::ExtractorSitePredicatePattern),
            false,
        ),
        (
            "POPACCU+cov-only",
            FusionConfig {
                filter_by_coverage: true,
                ..FusionConfig::popaccu()
            },
            false,
        ),
        (
            "POPACCU+gold-only",
            FusionConfig {
                init: kf_core::InitAccuracy::FromGold { sample_rate: 1.0 },
                ..FusionConfig::popaccu()
            },
            true,
        ),
    ];
    for (name, cfg, with_gold) in configs {
        let out = Fuser::new(cfg).run(&c.batch, if with_gold { Some(&c.gold) } else { None });
        let mut bands = [(0usize, 0usize); 10];
        let (mut st, mut nt, mut sf, mut nf) = (0.0, 0usize, 0.0, 0usize);
        for s in out.scored.iter() {
            let Some(p) = s.probability else { continue };
            let b = ((p * 10.0) as usize).min(9);
            match c.gold.label(&s.triple) {
                Label::True => {
                    bands[b].0 += 1;
                    bands[b].1 += 1;
                    st += p;
                    nt += 1;
                }
                Label::False => {
                    bands[b].1 += 1;
                    sf += p;
                    nf += 1;
                }
                Label::Unknown => {}
            }
        }
        let sep = st / nt.max(1) as f64 - sf / nf.max(1) as f64;
        print!(
            "{name:20} pred_frac {:.3} sep {sep:.3} rounds {} | bands ",
            out.predicted_fraction(),
            out.outcome.rounds()
        );
        for (i, (t, n)) in bands.iter().enumerate() {
            if *n >= 20 {
                print!("{}:{:.2}({}) ", i, *t as f64 / *n as f64, n);
            }
        }
        println!();
    }
}
