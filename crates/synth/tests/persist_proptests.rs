//! Property tests for corpus checkpointing: for any corpus shape and
//! seed, `load(save(corpus))` must restore the corpus *exactly* —
//! including the derived generator-truth joins the error taxonomy is
//! scored against — and the encoding must be canonical (same logical
//! corpus ⇒ same bytes, regardless of which process encodes it).

use kf_synth::{
    CopyingConfig, Corpus, DriftConfig, LinkageConfig, ScenarioConfig, SpamConfig, SynthConfig,
    WebConfig, WorldConfig,
};
use kf_types::KvCodec;
use proptest::prelude::*;

/// Small corpus shapes spanning the axes generation branches on: entity
/// count, predicate count, hierarchy depth, page count, section mix and
/// error rates. Kept tiny so the full property suite stays fast.
fn arb_config() -> impl Strategy<Value = SynthConfig> {
    (
        100usize..400,
        8usize..20,
        2usize..5,
        100usize..400,
        0.0f64..0.08,
        0.3f64..0.9,
    )
        .prop_map(
            |(n_entities, n_predicates, hierarchy_depth, n_pages, source_error_rate, dom_w)| {
                SynthConfig {
                    world: WorldConfig {
                        n_types: 4,
                        n_predicates,
                        n_entities,
                        hierarchy_depth,
                        ..WorldConfig::default()
                    },
                    web: WebConfig {
                        n_sites: 20,
                        n_pages,
                        source_error_rate,
                        section_weights: [0.5, dom_w, 0.1, 0.2],
                        ..WebConfig::default()
                    },
                    ..SynthConfig::tiny()
                }
            },
        )
}

/// Hostile-scenario knob combinations, from all-off to fully hostile —
/// the checkpoint must carry the injected ground truth through
/// `load(save(corpus))` for every mix of active phenomena.
fn arb_scenarios() -> impl Strategy<Value = ScenarioConfig> {
    (
        prop_oneof![Just(0.0f64), 0.2f64..1.0],
        prop_oneof![Just(0usize), 5usize..40],
        prop_oneof![Just(0.0f64), 0.05f64..0.4],
        0.2f64..0.8,
        prop_oneof![Just(2usize), 3usize..8],
        prop_oneof![Just(1.0f64), 1.5f64..5.0],
    )
        .prop_map(
            |(dependence, spam_pages, drift_fraction, drift_position, ring, boost)| {
                ScenarioConfig {
                    copying: CopyingConfig { dependence },
                    spam: SpamConfig {
                        n_pages: spam_pages,
                        n_items: 12,
                        claims_per_page: 3,
                        n_sites: 4,
                    },
                    drift: DriftConfig {
                        fraction: drift_fraction,
                        position: drift_position,
                    },
                    linkage: LinkageConfig {
                        confusable_ring: ring,
                        error_boost: boost,
                    },
                }
            },
        )
}

proptest! {
    /// The checkpoint codec is lossless over every corpus shape: the
    /// decoded corpus equals the original field-for-field, and the
    /// taxonomy ground-truth joins (`dominant_outcomes`,
    /// `taxonomy_truth`) — which fold per-record outcomes through
    /// hash-map state — are restored exactly.
    #[test]
    fn load_save_roundtrip_is_exact(cfg in arb_config(), seed in 0u64..1_000) {
        let corpus = Corpus::generate(&cfg, seed);
        let mut buf = Vec::new();
        corpus.encode(&mut buf);
        let mut input = &buf[..];
        let back = Corpus::decode(&mut input).expect("roundtrip decodes");
        prop_assert!(input.is_empty(), "decode must consume the whole encoding");
        prop_assert!(back == corpus, "decoded corpus differs (seed {})", seed);
        prop_assert_eq!(back.dominant_outcomes(), corpus.dominant_outcomes());
        prop_assert_eq!(back.taxonomy_truth(), corpus.taxonomy_truth());
    }

    /// Canonical bytes: re-encoding a decoded corpus reproduces the
    /// original byte stream (so shard processes that pass checkpoints
    /// around never amplify drift), and an independent same-seed
    /// generation encodes identically (so two processes snapshotting the
    /// same seed produce byte-diffable files).
    #[test]
    fn encoding_is_canonical(cfg in arb_config(), seed in 0u64..1_000) {
        let corpus = Corpus::generate(&cfg, seed);
        let mut first = Vec::new();
        corpus.encode(&mut first);
        let decoded = Corpus::decode(&mut &first[..]).expect("decodes");
        let mut second = Vec::new();
        decoded.encode(&mut second);
        prop_assert!(first == second, "re-encode differs (seed {})", seed);
        let regenerated = Corpus::generate(&cfg, seed);
        let mut third = Vec::new();
        regenerated.encode(&mut third);
        prop_assert!(first == third, "same-seed encode differs (seed {})", seed);
    }

    /// Hostile corpora persist exactly: the scenario ground-truth segment
    /// (copied record indices, spam voices, drift flips, linkage flag)
    /// survives `load(save(corpus))`, as does the derived
    /// `scenario_truth` join the matrix harness scores against — across
    /// every mix of active phenomena, including all-off.
    #[test]
    fn scenario_truth_roundtrips_through_persistence(
        scenarios in arb_scenarios(),
        seed in 0u64..500,
    ) {
        let cfg = SynthConfig { scenarios, ..SynthConfig::tiny() };
        let corpus = Corpus::generate(&cfg, seed);
        let mut buf = Vec::new();
        corpus.encode(&mut buf);
        let back = Corpus::decode(&mut &buf[..]).expect("roundtrip decodes");
        prop_assert!(back.scenario == corpus.scenario, "scenario truth differs (seed {})", seed);
        prop_assert!(back == corpus, "decoded corpus differs (seed {})", seed);
        prop_assert_eq!(back.scenario_truth(), corpus.scenario_truth());
        // The persisted flag agrees with the config that generated it.
        prop_assert_eq!(corpus.scenario.is_empty(), !cfg.scenarios.any_active());
    }
}

/// Trace histograms rode in on checkpoint format version 5: a reader of
/// this build must refuse a file stamped with any earlier version (the
/// pre-histogram 4, the pre-scenario 3, …) — or any other foreign
/// version — with a typed skew error naming the found version, never a
/// silent misparse of the new trailing bytes.
#[test]
fn stale_format_versions_are_rejected_with_typed_skew() {
    use kf_types::checkpoint::{self, ArtifactKind, CheckpointError, FORMAT_VERSION};
    assert_eq!(
        FORMAT_VERSION, 10,
        "corpora started packing their columns the way the KB does in v10; \
         bump this test alongside the format"
    );
    let corpus = Corpus::generate(&SynthConfig::tiny(), 7);
    let mut bytes = checkpoint::encode(ArtifactKind::Corpus, &corpus);
    for stale in [9u16, 8, 7, 6, 5, 4, 3, 2, 1] {
        bytes[4..6].copy_from_slice(&stale.to_le_bytes());
        match checkpoint::decode::<Corpus>(ArtifactKind::Corpus, &bytes) {
            Err(CheckpointError::VersionSkew { found }) => assert_eq!(found, stale),
            other => panic!("version {stale} must skew, got {other:?}"),
        }
    }
}
