//! Observability walkthrough: run the fusion pipeline end to end under a
//! `kf-telemetry` trace and read the run back — the phase tree with
//! wall-clock timings, the grouping job's spill accounting, and the per-round
//! convergence deltas of the iterative fuser.
//!
//! ```text
//! cargo run --release --example trace_pipeline
//! ```

use kf::core::Claims;
use kf::prelude::*;
use kf::telemetry;

fn main() {
    // Everything recorded between install() and snapshot() lands in this
    // trace: spans nest under the coordinator thread's current phase,
    // counters accumulate atomically from any thread that reports one.
    let trace = telemetry::Trace::with_root("trace_pipeline");
    let installed = telemetry::install(&trace);

    let corpus = {
        let _span = telemetry::span("corpus");
        Corpus::generate(&SynthConfig::small(), 42)
    };
    println!(
        "corpus: {} records, {} unique triples, {} gold items",
        corpus.batch.len(),
        corpus.batch.unique_triples(),
        corpus.gold.n_items(),
    );

    // Group under a deliberately small spill envelope so the one shuffle
    // of the extractions takes the external path and the trace shows disk
    // traffic. `Fuser::run` would group too, but records its rounds only;
    // building the claims here records the grouping job as a `group` span,
    // the projection as `project`, then the rounds as `fuse`.
    let config = FusionConfig {
        mr: MrConfig::default()
            .with_chunk_records(1 << 10)
            .with_spill_threshold(1 << 12),
        ..FusionConfig::popaccu()
    };
    let claims = Claims::build_recorded(&corpus.batch.records, &config.mr);
    let graph = {
        let _span = telemetry::span("project");
        claims.project(config.granularity)
    };
    let output = Fuser::new(config).run_unattributed(&graph, claims.stats(), None);

    // Evaluate calibration and PR quality under the same trace.
    let runner = AblationRunner {
        scale: "small".into(),
        ..Default::default()
    };
    let eval = runner.evaluate(Preset::PopAccu, &output, &corpus.gold, 0.0);

    drop(installed);
    let report = trace.snapshot();

    // The human-readable phase table: span tree with call counts and
    // timings, then counters (merge rule annotated) and series.
    println!("\n{}", report.summary());

    // Reading individual facts back out of the frozen trace:
    let counter = |name: &str| {
        report
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    println!(
        "spill accounting: {} sorted run files, {:.1} MiB spilled",
        counter("mr.spill_runs"),
        counter("mr.spilled_bytes") as f64 / (1024.0 * 1024.0),
    );
    assert!(
        counter("mr.spilled_bytes") > 0,
        "spill envelope never triggered — shrink the threshold"
    );

    // POPACCU iterates accuracy estimation to a fixed point; the trace's
    // `fuse.round_delta` series is the convergence curve (the fraction of
    // votes that moved each round), one value per `fuse.rounds`.
    let deltas = report
        .series
        .iter()
        .find(|s| s.name == "fuse.round_delta")
        .expect("fuser pushed per-round deltas");
    assert_eq!(deltas.values.len() as u64, counter("fuse.rounds"));
    for (round, delta) in deltas.values.iter().enumerate() {
        println!("round {:>2}: delta {delta:.6}", round + 1);
    }

    println!(
        "\npopaccu on small corpus: wdev {:.4}, auc-pr {:.4}, {} rounds, converged={}",
        eval.wdev(),
        eval.auc_pr(),
        output.outcome.rounds(),
        output.outcome.converged(),
    );
}
