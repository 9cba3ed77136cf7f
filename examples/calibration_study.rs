//! Reproduce the paper's calibration comparison (Fig. 9): run all five
//! presets over one corpus and print each method's calibration curve and
//! summary statistics.
//!
//! ```text
//! cargo run --release --example calibration_study
//! ```

use kf::prelude::*;

fn main() {
    let corpus = Corpus::generate(&SynthConfig::small(), 42);
    let runner = AblationRunner {
        scale: "small".into(),
        ..Default::default()
    };
    // Group the extractions once; every preset fuses over these claims.
    let claims = Claims::build(&corpus.batch.records, &MrConfig::default());
    let labels = claims.table().labels(&corpus.gold);
    let methods = Preset::ALL
        .into_iter()
        .map(|preset| runner.fuse_preset(preset, &claims, &labels).2)
        .collect();
    let report = EvalReport {
        corpus: runner.claims_summary(&corpus, &claims, &labels),
        methods,
    };

    for method in &report.methods {
        println!(
            "\n=== {} — WDEV {:.4}, ECE {:.4} ===",
            method.label,
            method.wdev(),
            method.ece()
        );
        println!(
            "{:>12} {:>8} {:>10} {:>10}",
            "bin", "count", "predicted", "observed"
        );
        for bin in &method.calibration_width.bins {
            if bin.count == 0 {
                continue;
            }
            // A calibrated method has observed ≈ predicted in every row.
            println!(
                "[{:.1}, {:.1}) {:>8} {:>10.3} {:>10.3}",
                bin.lo, bin.hi, bin.count, bin.mean_predicted, bin.observed_accuracy
            );
        }
    }

    println!("\n{}", report.summary_table());
    let vote = report.method("vote").expect("vote in report");
    let plus = report
        .method("popaccu_plus")
        .expect("popaccu_plus in report");
    println!(
        "POPACCU+ vs VOTE: WDEV {:.4} vs {:.4}, AUC-PR {:.3} vs {:.3}",
        plus.wdev(),
        vote.wdev(),
        plus.auc_pr(),
        vote.auc_pr(),
    );
}
