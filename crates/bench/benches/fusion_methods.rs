//! Baseline timings for the five fusion presets over a fixed corpus — the
//! perf trajectory anchor for future optimisation PRs — plus grouping
//! throughput at both granularities the presets use.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kf_core::{Fuser, Grouped};
use kf_eval::Preset;
use kf_mapreduce::MrConfig;
use kf_synth::{Corpus, SynthConfig};
use kf_types::Granularity;

fn fusion_presets(c: &mut Criterion) {
    let corpus = Corpus::generate(&SynthConfig::small(), 42);
    for preset in Preset::ALL {
        let fuser = Fuser::new(preset.config());
        let gold = preset.needs_gold().then_some(&corpus.gold);
        c.bench_function(&format!("fuse/small/{}", preset.name()), |b| {
            b.iter(|| black_box(fuser.run(black_box(&corpus.batch), gold)))
        });
    }
}

/// Building the claim graph: the one shuffle a fusion run pays.
fn grouping(c: &mut Criterion) {
    let corpus = Corpus::generate(&SynthConfig::small(), 42);
    let records = &corpus.batch.records;
    for granularity in [
        Granularity::ExtractorPage,
        Granularity::ExtractorSitePredicatePattern,
    ] {
        let tag = match granularity {
            Granularity::ExtractorPage => "page",
            _ => "espp",
        };
        let mr = MrConfig::with_workers(4);
        c.bench_function(&format!("group/small/{tag}/single_pass"), |b| {
            b.iter(|| black_box(Grouped::build(black_box(records), granularity, &mr)))
        });
    }
}

criterion_group!(benches, fusion_presets, grouping);
criterion_main!(benches);
