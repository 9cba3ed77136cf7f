//! Corpus byte-identity regression.
//!
//! The hostile-corpus scenario layer (copying, spam, drift, hard linkage)
//! must be *inert* when every knob sits at its default: disabled scenarios
//! take exactly the honest code paths and draw no extra randomness, so a
//! default corpus today is byte-identical to a default corpus generated
//! before the scenario layer existed. These fingerprints were captured
//! from the pre-scenario generator (seed 42, per-field `KvCodec`
//! encodings hashed with `kf_types::hash::hash_one`); if any of them
//! drifts, scenario plumbing has leaked into the honest path and every
//! pinned corpus snapshot, CI gate baseline and published report silently
//! changes meaning.
//!
//! The hostile corpora are pinned the same way, one `small` seed-42
//! corpus per scenario, so a change to the copy path or to the spam and
//! drift web paths cannot move a scenario corpus by a byte unnoticed.
//! Their knobs mirror the scenario matrix of `kf-bench`
//! (`scenario_config`), proportioned to the `small` shape.

use kf_synth::{
    CopyingConfig, Corpus, DriftConfig, LinkageConfig, ScenarioConfig, SpamConfig, SynthConfig,
};
use kf_types::{hash, KvCodec};

fn fp<T: KvCodec>(value: &T) -> u64 {
    let mut bytes = Vec::new();
    value.encode(&mut bytes);
    fp_bytes(&bytes)
}

fn fp_bytes(bytes: &[u8]) -> u64 {
    hash::hash_one(&bytes)
}

struct Expected {
    world: u64,
    web: u64,
    gold: u64,
    batch: u64,
    sections: u64,
    outcomes: u64,
    n_records: usize,
    n_pages: usize,
}

fn assert_fingerprints(cfg: &SynthConfig, expected: &Expected, label: &str) {
    assert!(
        !cfg.scenarios.any_active(),
        "{label}: preset must ship with all scenario knobs at defaults"
    );
    let corpus = Corpus::generate(cfg, 42);
    assert!(
        corpus.scenario.is_empty(),
        "{label}: default corpus must carry no scenario ground truth"
    );
    assert!(
        corpus.scenario_truth().is_empty(),
        "{label}: default corpus must join to an empty scenario-truth map"
    );
    assert_corpus_fingerprints(&corpus, expected, label);
}

fn assert_corpus_fingerprints(corpus: &Corpus, expected: &Expected, label: &str) {
    assert_eq!(corpus.batch.len(), expected.n_records, "{label}: n_records");
    assert_eq!(corpus.web.pages.len(), expected.n_pages, "{label}: n_pages");
    let sections: Vec<u8> = corpus.sections.iter().map(|s| s.index() as u8).collect();
    let outcomes: Vec<u8> = corpus.outcomes.iter().map(|o| o.index() as u8).collect();
    assert_eq!(fp(&corpus.world), expected.world, "{label}: world bytes");
    assert_eq!(fp(&corpus.web), expected.web, "{label}: web bytes");
    assert_eq!(fp(&corpus.gold), expected.gold, "{label}: gold bytes");
    assert_eq!(fp(&corpus.batch), expected.batch, "{label}: batch bytes");
    assert_eq!(
        fp_bytes(&sections),
        expected.sections,
        "{label}: section bytes"
    );
    assert_eq!(
        fp_bytes(&outcomes),
        expected.outcomes,
        "{label}: outcome bytes"
    );
}

/// The `small` seed-42 corpus under `scenarios`, which must be active and
/// must leave injected ground truth behind.
fn hostile_small(scenarios: ScenarioConfig, label: &str) -> Corpus {
    let mut cfg = SynthConfig::small();
    cfg.scenarios = scenarios;
    assert!(
        cfg.scenarios.any_active(),
        "{label}: scenario must be active"
    );
    let corpus = Corpus::generate(&cfg, 42);
    assert!(
        !corpus.scenario.is_empty(),
        "{label}: hostile corpus must carry scenario ground truth"
    );
    corpus
}

#[test]
fn tiny_default_corpus_is_byte_identical_to_pre_scenario_generator() {
    assert_fingerprints(
        &SynthConfig::tiny(),
        &Expected {
            world: 0x155dc126d77c32bc,
            web: 0xb08159ff16bf6148,
            gold: 0x91f59d036dd94542,
            batch: 0x192f8ad15147aabf,
            sections: 0x05bdfc44ba2efcde,
            outcomes: 0x92c47eb101927b10,
            n_records: 2626,
            n_pages: 300,
        },
        "tiny",
    );
}

#[test]
fn small_default_corpus_is_byte_identical_to_pre_scenario_generator() {
    assert_fingerprints(
        &SynthConfig::small(),
        &Expected {
            world: 0x00e019747f95440e,
            web: 0xdab4fbfab9ee6dbe,
            gold: 0x6e14120d7857e35d,
            batch: 0x5f96622f81804c20,
            sections: 0x50c6d74a70d21d64,
            outcomes: 0xa4fb674c5c163313,
            n_records: 49115,
            n_pages: 5000,
        },
        "small",
    );
}

/// Paper scale regenerates a ~250k-record corpus — too slow for the
/// default test pass; CI's gate job runs it with `--ignored` in release.
#[test]
#[ignore]
fn paper_default_corpus_is_byte_identical_to_pre_scenario_generator() {
    assert_fingerprints(
        &SynthConfig::paper(),
        &Expected {
            world: 0xf4294793e4f8ed69,
            web: 0xfa0e3dd281551d7b,
            gold: 0x37550584f3ba783f,
            batch: 0x1f39d27200f4efce,
            sections: 0x1b1b23a773c8e358,
            outcomes: 0xebb246a6a921e728,
            n_records: 247604,
            n_pages: 24000,
        },
        "paper",
    );
}

#[test]
fn small_copying_corpus_is_byte_identical() {
    let corpus = hostile_small(
        ScenarioConfig {
            copying: CopyingConfig { dependence: 0.6 },
            ..Default::default()
        },
        "copying",
    );
    assert_corpus_fingerprints(
        &corpus,
        &Expected {
            world: 0x00e019747f95440e,
            web: 0xdab4fbfab9ee6dbe,
            gold: 0x6e14120d7857e35d,
            batch: 0x07af58cf35967168,
            sections: 0xb9fbddce0bcf803c,
            outcomes: 0x5a5585e8919c34f3,
            n_records: 52394,
            n_pages: 5000,
        },
        "copying",
    );
}

#[test]
fn small_spam_corpus_is_byte_identical() {
    let n_pages = SynthConfig::small().web.n_pages / 8;
    let corpus = hostile_small(
        ScenarioConfig {
            spam: SpamConfig {
                n_pages,
                n_items: 50,
                claims_per_page: 4,
                n_sites: 8,
            },
            ..Default::default()
        },
        "spam",
    );
    assert_corpus_fingerprints(
        &corpus,
        &Expected {
            world: 0x00e019747f95440e,
            web: 0x580f35003c3c49ca,
            gold: 0x6e14120d7857e35d,
            batch: 0xf5e0e413877e933f,
            sections: 0x82769b65363d21e4,
            outcomes: 0x229cbb57991a7fd9,
            n_records: 54020,
            n_pages: 5625,
        },
        "spam",
    );
}

#[test]
fn small_drift_corpus_is_byte_identical() {
    let corpus = hostile_small(
        ScenarioConfig {
            drift: DriftConfig {
                fraction: 0.2,
                position: 0.5,
            },
            ..Default::default()
        },
        "drift",
    );
    assert_corpus_fingerprints(
        &corpus,
        &Expected {
            world: 0x00e019747f95440e,
            web: 0x383decb54ecb8f81,
            gold: 0x6e14120d7857e35d,
            batch: 0x4ed4852cad8d9936,
            sections: 0xb4711b4a932f7f6a,
            outcomes: 0xced25b69fe133736,
            n_records: 49873,
            n_pages: 5000,
        },
        "drift",
    );
}

#[test]
fn small_linkage_corpus_is_byte_identical() {
    let corpus = hostile_small(
        ScenarioConfig {
            linkage: LinkageConfig {
                confusable_ring: 6,
                error_boost: 3.0,
            },
            ..Default::default()
        },
        "linkage",
    );
    assert_corpus_fingerprints(
        &corpus,
        &Expected {
            world: 0xe1041c83cbf10d5b,
            web: 0xf2bf07b2005c6faa,
            gold: 0x6e14120d7857e35d,
            batch: 0x252aacba20c0ace8,
            sections: 0xcf779ec272a9caba,
            outcomes: 0xe9f4ea307f364ab0,
            n_records: 49841,
            n_pages: 5000,
        },
        "linkage",
    );
}
