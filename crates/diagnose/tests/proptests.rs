//! Property tests for the taxonomy: across corpus shapes, classifier
//! thresholds and band layouts, the category counts must **exactly
//! partition** the labelled false positives — no double-count, no drop.

use kf_core::{Fuser, FusionConfig};
use kf_diagnose::{ClassifierThresholds, DiagnoseConfig, Diagnoser, SupportIndex};
use kf_mapreduce::MrConfig;
use kf_synth::{Corpus, SynthConfig};
use kf_types::Label;
use proptest::prelude::*;

proptest! {
    /// For any corpus seed, any thresholds and any band floor, each
    /// band's category counts sum to exactly its false positives, every
    /// secondary dimension conserves the same mass, and the totals match
    /// an independent sequential count over the scored output.
    #[test]
    fn categories_partition_false_positives(
        seed in 0u64..6,
        use_plus in any::<bool>(),
        min_pages in 1u32..6,
        share in 0.0f64..1.0,
        lcwa_exts in 1u16..6,
        floor_idx in 0usize..3,
    ) {
        let corpus = Corpus::generate(&SynthConfig::tiny(), seed);
        let cfg = if use_plus {
            FusionConfig::popaccu_plus_unsup()
        } else {
            FusionConfig::popaccu()
        };
        let output = Fuser::new(cfg.with_workers(2)).run(&corpus.batch, None);
        let (support, _) =
            SupportIndex::build(&corpus.batch.records, &MrConfig::with_workers(2));
        let truth = corpus.taxonomy_truth();

        let floor = [0.3, 0.5, 0.8][floor_idx];
        let diag_cfg = DiagnoseConfig {
            band_edges: vec![floor, 0.9],
            thresholds: ClassifierThresholds {
                systematic_min_pages: min_pages,
                systematic_min_share: share,
                lcwa_min_extractors: lcwa_exts,
            },
            mr: MrConfig::with_workers(2),
        };
        let (report, _) = Diagnoser::new(&corpus.gold, &corpus.world, &support)
            .with_truth(&truth)
            .with_config(diag_cfg)
            .run(&output);

        // Independent sequential count of the diagnosed population.
        let mut expect_labelled = 0u64;
        let mut expect_fps = 0u64;
        for s in output.scored.iter() {
            let Some(p) = s.probability else { continue };
            if p < floor {
                continue;
            }
            match corpus.gold.label(&s.triple) {
                Label::True => expect_labelled += 1,
                Label::False => {
                    expect_labelled += 1;
                    expect_fps += 1;
                }
                Label::Unknown => {}
            }
        }
        prop_assert_eq!(report.n_labelled, expect_labelled);
        prop_assert_eq!(report.n_false_positives, expect_fps);

        // Partition: per band, categories sum to the band's FPs...
        for band in &report.bands {
            prop_assert_eq!(
                band.counts.total(),
                band.n_labelled - band.n_true,
                "band [{}, {}) does not partition", band.lo, band.hi
            );
        }
        // ...and bands sum to the total.
        let band_mass: u64 = report.bands.iter().map(|b| b.counts.total()).sum();
        prop_assert_eq!(band_mass, expect_fps);

        // Secondary dimensions conserve the same mass exactly (the
        // extractor dimension over-counts by design: one FP per
        // supporting extractor, never fewer than once).
        let pred_mass: u64 = report.predicates.iter().map(|g| g.counts.total()).sum();
        let spread_mass: u64 = report.spread.iter().map(|g| g.counts.total()).sum();
        let confusion_mass: u64 = report.confusion.iter().map(|c| c.count).sum();
        prop_assert_eq!(pred_mass, expect_fps);
        prop_assert_eq!(spread_mass, expect_fps);
        prop_assert_eq!(confusion_mass, expect_fps, "truth covers every FP");
        if expect_fps > 0 {
            let ext_mass: u64 = report.extractors.iter().map(|g| g.counts.total()).sum();
            prop_assert!(ext_mass >= expect_fps);
        }
    }
}
