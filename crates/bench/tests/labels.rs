//! A run labels its claim slots against the gold standard once
//! (`SlotTable::labels`), and every preset's evaluation reads that
//! column: it must answer what `GoldStandard::label` answers for every
//! slot, whatever the corpus, and an evaluation off it must equal, to the
//! bit, the gold-taking adapter (`AblationRunner::evaluate`) over the
//! same output.

use kf_bench::{scenario_corpus, SCENARIO_NAMES};
use kf_core::Claims;
use kf_eval::{AblationRunner, Preset};
use kf_mapreduce::MrConfig;

#[test]
fn the_label_column_equals_the_gold_probe_in_every_scenario() {
    for scale in ["tiny", "small"] {
        for scenario in SCENARIO_NAMES {
            let corpus = scenario_corpus(scale, scenario, 42).expect("known scenario");
            let claims = Claims::build(&corpus.batch.records, &MrConfig::with_workers(2));
            let table = claims.table();
            let labels = table.labels(&corpus.gold);
            assert_eq!(labels.len(), table.n_triples(), "{scale} {scenario}");
            for i in 0..table.n_items() {
                for slot in table.item_slots(i) {
                    let probe = corpus.gold.label(&table.triple(i, slot));
                    assert_eq!(labels[slot], probe, "{scale} {scenario} slot {slot}");
                }
            }
        }
    }
}

#[test]
fn an_evaluation_off_the_label_column_equals_the_gold_adapter() {
    for scale in ["tiny", "small"] {
        let corpus = scenario_corpus(scale, "honest", 42).expect("honest corpus");
        let claims = Claims::build(&corpus.batch.records, &MrConfig::with_workers(2));
        let labels = claims.table().labels(&corpus.gold);
        let runner = AblationRunner {
            scale: scale.to_string(),
            workers: Some(2),
            ..Default::default()
        };
        for preset in Preset::ALL {
            let (output, _, mut shared) = runner.fuse_preset(preset, &claims, &labels);
            shared.fuse_ms = 0.0;
            let oracle = runner.evaluate(preset, &output, &corpus.gold, 0.0);
            // Debug prints every float in full, so equal text is equal
            // bits (NaN bins included, which `==` would reject).
            assert_eq!(
                format!("{shared:?}"),
                format!("{oracle:?}"),
                "{scale} {}",
                preset.name()
            );
        }
    }
}
