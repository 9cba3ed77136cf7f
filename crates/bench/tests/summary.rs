//! A report's header is read off the grouped claims
//! (`AblationRunner::claims_summary`), not counted off the records: it
//! must equal the record pass (`AblationRunner::corpus_summary`) whatever
//! the corpus, and a KB built from a corpus must carry the header a
//! `repro` run over the same corpus reports.

use kf_bench::{run_on_corpus, scenario_corpus, ReproOptions, SCENARIO_NAMES};
use kf_core::Claims;
use kf_eval::{AblationRunner, Preset};
use kf_mapreduce::MrConfig;
use kf_serve::{FusedKb, KbBuildOptions};

#[test]
fn claims_summary_equals_the_record_pass_in_every_scenario() {
    for scale in ["tiny", "small"] {
        let runner = AblationRunner {
            scale: scale.to_string(),
            ..Default::default()
        };
        for scenario in SCENARIO_NAMES {
            let corpus = scenario_corpus(scale, scenario, 42).expect("known scenario");
            let claims = Claims::build(&corpus.batch.records, &MrConfig::with_workers(2));
            let labels = claims.table().labels(&corpus.gold);
            let summary = runner.claims_summary(&corpus, &claims, &labels);
            assert_eq!(
                summary,
                runner.corpus_summary(&corpus),
                "{scale} {scenario}"
            );
        }
    }
}

#[test]
fn kb_header_equals_the_report_header() {
    let corpus = scenario_corpus("small", "honest", 42).expect("honest corpus");
    let opts = ReproOptions {
        scale: "small".into(),
        workers: Some(2),
        presets: vec![Preset::PopAccuPlus],
        diagnose: false,
        out: None,
        ..Default::default()
    };
    let report = run_on_corpus(&opts, &corpus);
    let build = KbBuildOptions {
        workers: Some(2),
        ..Default::default()
    };
    let kb = FusedKb::build_from_corpus(&corpus, &build, "small").expect("build");
    assert_eq!(kb.corpus, report.corpus);
}
