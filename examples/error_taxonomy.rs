//! The Fig. 17 reproduction: diagnose a fusion run's high-confidence
//! false positives into the paper's error taxonomy, with per-extractor
//! attribution, and score the heuristic classifiers against the
//! generator-injected ground truth.
//!
//! ```text
//! cargo run --release --example error_taxonomy
//! ```

use kf::prelude::*;
use kf_types::Spread;

fn main() {
    let corpus = Corpus::generate(&SynthConfig::small(), 42);
    println!(
        "corpus: {} records, {} unique triples, LCWA accuracy {:.3}",
        corpus.batch.len(),
        corpus.batch.unique_triples(),
        corpus.lcwa_accuracy(),
    );

    // The shared context: the grouped batch the support shapes are read
    // from, the generator-truth category join, extractor names.
    let (support, stats) = SupportIndex::build(&corpus.batch.records, &MrConfig::default());
    println!(
        "support index: {} unique triples (map_output {}, grouped peak {})",
        support.len(),
        stats.map_output,
        stats.peak_grouped_records,
    );
    let truth = corpus.taxonomy_truth();
    let labels: Vec<String> = corpus.extractors.iter().map(|e| e.name.clone()).collect();

    // Fuse with the paper's strongest unsupervised system and diagnose.
    let (output, attribution) =
        Fuser::new(FusionConfig::popaccu_plus_unsup()).run_with_attribution(&corpus.batch, None);
    let (report, _) = Diagnoser::new(&corpus.gold, &corpus.world, &support)
        .with_truth(&truth)
        .with_attribution(&attribution)
        .with_extractor_labels(&labels)
        .run(&output);

    // ---- The Fig. 17 table: error mass per confidence band -------------
    println!(
        "\nerror taxonomy (POPACCU+unsup), {} false positives of {} labelled accepted triples:",
        report.n_false_positives, report.n_labelled
    );
    println!(
        "{:>12} {:>9} {:>7} {:>9} {:>9} {:>11} {:>9}",
        "band", "labelled", "FPs", "general", "LCWA", "systematic", "linkage"
    );
    for band in &report.bands {
        println!(
            "[{:.2}, {:.2}) {:>9} {:>7} {:>9} {:>9} {:>11} {:>9}",
            band.lo,
            band.hi,
            band.n_labelled,
            band.n_false(),
            band.counts.get(ErrorCategory::WrongButGeneral),
            band.counts.get(ErrorCategory::LcwaArtifact),
            band.counts.get(ErrorCategory::SystematicExtraction),
            band.counts.get(ErrorCategory::LinkageError),
        );
    }

    // ---- Per-extractor attribution --------------------------------------
    println!("\nfalse-positive mass per supporting extractor (top 6):");
    let mut extractors = report.extractors.clone();
    extractors.sort_by_key(|g| std::cmp::Reverse(g.counts.total()));
    for g in extractors.iter().take(6) {
        println!(
            "  {:6} total {:5}  systematic {:4}  linkage {:4}",
            g.label,
            g.counts.total(),
            g.counts.get(ErrorCategory::SystematicExtraction),
            g.counts.get(ErrorCategory::LinkageError),
        );
    }

    // ---- Support-spread profile -----------------------------------------
    println!("\nsupport spread of the false positives:");
    for g in &report.spread {
        println!("  {:28} {:6}", g.label, g.counts.total());
    }
    let _ = Spread::ALL; // spread classes documented in kf_types::taxonomy

    // ---- How much does fusion trust each category's provenances? --------
    println!("\nmean final provenance accuracy per category:");
    for &(cat, acc) in &report.mean_prov_accuracy {
        println!("  {:24} {acc:.3}", cat.name());
    }

    // ---- The measured part: heuristics vs injected ground truth ---------
    println!("\nheuristic-vs-injected confusion (counts):");
    for cell in &report.confusion {
        println!(
            "  injected {:24} -> heuristic {:24} x{}",
            cell.injected.name(),
            cell.heuristic.name(),
            cell.count
        );
    }
    if let (Some(sys), Some(gen)) = (
        report.systematic_attribution,
        report.generalized_attribution,
    ) {
        println!(
            "\nattribution accuracy: systematic {}/{} ({:.1}%), generalized {}/{}",
            sys.correct,
            sys.total,
            100.0 * sys.accuracy(),
            gen.correct,
            gen.total,
        );
    }
}
