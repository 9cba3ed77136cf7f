//! Smallest end-to-end run: generate a corpus, fuse it, inspect the output.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use kf::prelude::*;

fn main() {
    // A small deterministic corpus: ground-truth world, simulated web,
    // 12 imperfect extractors, and a Freebase-style partial gold KB.
    let corpus = Corpus::generate(&SynthConfig::small(), 42);
    println!(
        "corpus: {} extraction records, {} unique triples, {} data items",
        corpus.batch.len(),
        corpus.batch.unique_triples(),
        corpus.batch.unique_data_items(),
    );
    println!(
        "raw extraction accuracy under LCWA: {:.1}% (the paper's ~30%)",
        100.0 * corpus.lcwa_accuracy()
    );

    // Fuse with POPACCU+ — the paper's best configuration.
    let output = Fuser::new(FusionConfig::popaccu_plus()).run(&corpus.batch, Some(&corpus.gold));
    println!(
        "\nfused {} triples in {} rounds ({} provenances)",
        output.scored.len(),
        output.outcome.rounds(),
        output.n_provenances(),
    );

    // High-probability triples can be trusted directly (§3.2.2).
    let trusted: Vec<_> = output
        .scored
        .iter()
        .filter(|s| s.probability.is_some_and(|p| p >= 0.9))
        .collect();
    let correct = trusted
        .iter()
        .filter(|s| corpus.gold.label(&s.triple) == Label::True)
        .count();
    let labelled = trusted
        .iter()
        .filter(|s| corpus.gold.label(&s.triple) != Label::Unknown)
        .count();
    println!(
        "triples with P >= 0.9: {} ({} of {} gold-labelled ones are true: {:.1}%)",
        trusted.len(),
        correct,
        labelled,
        100.0 * correct as f64 / labelled.max(1) as f64,
    );

    // And the one-line quality summary the eval subsystem provides.
    let eval = AblationRunner::default().evaluate(Preset::PopAccuPlus, &output, &corpus.gold, 0.0);
    println!(
        "\nPOPACCU+ quality: WDEV {:.4}, ECE {:.4}, AUC-PR {:.3}, coverage {:.1}%",
        eval.wdev(),
        eval.ece(),
        eval.auc_pr(),
        100.0 * eval.coverage,
    );
}
