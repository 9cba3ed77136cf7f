//! The batch phases of the single-process workloads: the five-preset
//! `run_on_corpus` iteration (`fuse_mem`) — opaque for end-to-end timing,
//! decomposed into its public calls for the traced run — and the
//! external-shuffle iteration (`fuse_spill`).

use crate::metrics::Metrics;
use crate::trace::Tracer;
use kf_bench::ReproOptions;
use kf_core::{Fuser, FusionOutput};
use kf_diagnose::{DiagnoseConfig, Diagnoser, SupportIndex};
use kf_eval::{AblationRunner, EvalReport, MethodEval, Preset};
use kf_mapreduce::{JobStats, MrConfig};
use kf_synth::Corpus;
use kf_types::hash::hash_one;
use std::path::Path;

/// The options every `repro`-path call runs under: explicit workers,
/// `--deterministic` so reports are byte-comparable, nothing written.
pub fn repro_options(scale: &str, workers: usize) -> ReproOptions {
    ReproOptions {
        scale: scale.to_string(),
        workers: Some(workers),
        deterministic: true,
        out: None,
        ..ReproOptions::default()
    }
}

/// One `fuse_mem` iteration, as `repro` users run it.
pub fn run_on_corpus(tracer: &Tracer, opts: &ReproOptions, corpus: &Corpus) -> (EvalReport, f64) {
    tracer.time("bench", "run_on_corpus", || {
        kf_bench::run_on_corpus(opts, corpus)
    })
}

/// Per-call seconds of the decomposed iteration.
#[derive(Default)]
pub struct Pieces {
    pub support_index_s: f64,
    pub truth_joins_s: f64,
    pub summary_s: f64,
    pub fuse_s: Vec<f64>,
    pub evaluate_s: Vec<f64>,
    pub diagnose_s: Vec<f64>,
    pub classified_fp: u64,
    /// Per preset: merged MapReduce counters, scored triples, rounds run.
    pub stats: Vec<JobStats>,
    pub scored: Vec<usize>,
    pub rounds: Vec<usize>,
}

impl Pieces {
    pub fn layer_calls_s(&self) -> f64 {
        self.support_index_s
            + self.truth_joins_s
            + self.summary_s
            + [&self.fuse_s, &self.evaluate_s, &self.diagnose_s]
                .iter()
                .map(|v| v.iter().sum::<f64>())
                .sum::<f64>()
    }
}

impl Pieces {
    /// `core.fuse_*` / `core.rounds_*` / `core.group_share`, `eval.evaluate_s`
    /// and `diagnose.*`, given the grouping pass's seconds at the coarse and
    /// the fine granularity. Rounds are fuse − group at the preset's
    /// granularity, since `Fuser::run_grouped` is private.
    pub fn report(&self, coarse_s: f64, fine_s: f64, out: &mut Metrics) {
        let coarse = Preset::PopAccu.config().granularity;
        let mut group_total = 0.0;
        for (preset, &fuse_s) in Preset::ALL.iter().zip(&self.fuse_s) {
            let group_s = if preset.config().granularity == coarse {
                coarse_s
            } else {
                fine_s
            };
            group_total += group_s;
            out.set(&format!("core.fuse_{}_s", preset.name()), fuse_s);
            out.set(
                &format!("core.rounds_{}_s", preset.name()),
                fuse_s - group_s,
            );
        }
        out.set(
            "core.group_share",
            group_total / self.fuse_s.iter().sum::<f64>(),
        );
        out.set("eval.evaluate_s", self.evaluate_s.iter().sum());
        out.set("diagnose.support_index_s", self.support_index_s);
        out.set("diagnose.run_s", self.diagnose_s.iter().sum());
        out.set("diagnose.classified_fp", self.classified_fp as f64);
    }
}

/// The same work as [`run_on_corpus`], spelled out as the public calls it
/// makes, each inside a span of its own crate — the outside-in
/// decomposition. Returns the report (byte-identical to the opaque call's,
/// which the traced run checks), the iteration's seconds and the pieces.
pub fn run_on_corpus_decomposed(
    tracer: &Tracer,
    opts: &ReproOptions,
    corpus: &Corpus,
) -> (EvalReport, f64, Pieces) {
    let workers = opts.workers.expect("the benchmark always sets workers");
    let mut pieces = Pieces::default();
    let (report, wall_s) = tracer.time("bench", "run_on_corpus (decomposed)", || {
        let mr = MrConfig {
            workers,
            partitions: workers * 4,
            ..MrConfig::default()
        };
        let runner = AblationRunner {
            n_bins: opts.bins,
            workers: opts.workers,
            scale: opts.scale.clone(),
            ..AblationRunner::default()
        };
        let ((support, _), s) = tracer.time("diagnose", "SupportIndex::build", || {
            SupportIndex::build(&corpus.batch.records, &mr)
        });
        pieces.support_index_s = s;
        let ((truth, scenario), s) = tracer.time("synth", "Corpus::taxonomy_truth", || {
            (corpus.taxonomy_truth(), corpus.scenario_truth())
        });
        pieces.truth_joins_s = s;
        let labels: Vec<String> = corpus.extractors.iter().map(|e| e.name.clone()).collect();
        let methods: Vec<MethodEval> = opts
            .presets
            .iter()
            .map(|&preset| {
                // Each preset records into its own kf-telemetry trace, as
                // in kf-bench, so the report bytes match.
                let trace = kf_telemetry::Trace::with_root("method");
                let installed = kf_telemetry::install(&trace);
                let config = preset.config().with_workers(workers);
                let gold = preset.needs_gold().then_some(&corpus.gold);
                let name = format!("Fuser::run_with_attribution[{}]", preset.name());
                let ((output, attribution), s) = tracer.time("core", &name, || {
                    Fuser::new(config).run_with_attribution(&corpus.batch, gold)
                });
                pieces.fuse_s.push(s);
                let (mut method, s) = tracer.time("eval", "AblationRunner::evaluate", || {
                    runner.evaluate(preset, &output, &corpus.gold, s * 1e3)
                });
                pieces.evaluate_s.push(s);
                let ((taxonomy, _), s) = tracer.time("diagnose", "Diagnoser::run", || {
                    let _span = kf_telemetry::span("diagnose");
                    Diagnoser::new(&corpus.gold, &corpus.world, &support)
                        .with_truth(&truth)
                        .with_scenario(&scenario)
                        .with_attribution(&attribution)
                        .with_extractor_labels(&labels)
                        .with_config(DiagnoseConfig {
                            mr,
                            ..DiagnoseConfig::default()
                        })
                        .run(&output)
                });
                pieces.diagnose_s.push(s);
                pieces.classified_fp += taxonomy.n_false_positives;
                method.taxonomy = Some(taxonomy);
                drop(installed);
                method.trace = Some(trace.snapshot());
                pieces.stats.push(output.stats);
                pieces.scored.push(output.scored.len());
                pieces.rounds.push(output.outcome.rounds());
                method
            })
            .collect();
        let (summary, s) = tracer.time("eval", "AblationRunner::corpus_summary", || {
            runner.corpus_summary(corpus)
        });
        pieces.summary_s = s;
        let mut report = EvalReport {
            corpus: summary,
            methods,
        };
        report.quarantine_timings();
        report
    });
    (report, wall_s, pieces)
}

/// The external-shuffle configuration: 2K-record waves, grouped state
/// spilled past 8K records — the ratios to the corpus that 16K / 64K have
/// on `large()` — runs written under `dir` (inside the checkout). Leaks `dir` once per process — `MrConfig` is `Copy` and
/// wants a `&'static str`.
pub fn spill_config(workers: usize, dir: &Path) -> MrConfig {
    let dir: &'static str = Box::leak(dir.to_string_lossy().into_owned().into_boxed_str());
    MrConfig::with_workers(workers)
        .with_chunk_records(8_192)
        .with_spill_threshold(32_768)
        .with_spill_dir(dir)
}

/// The presets `fuse_spill` runs: coarse granularity, and fine with gold
/// initialisation.
pub const SPILL_PRESETS: [Preset; 2] = [Preset::PopAccu, Preset::PopAccuPlus];

/// Order-sensitive digest of scored triples and probability bits.
pub fn digest(output: &FusionOutput) -> u64 {
    output
        .scored
        .iter()
        .fold(output.scored.len() as u64, |acc, s| {
            acc.rotate_left(5)
                ^ hash_one(&(s.triple, s.probability.map(f64::to_bits), s.n_provenances))
        })
}

pub struct SpillIteration {
    pub wall_s: f64,
    pub fuse_s: Vec<f64>,
    pub evaluate_s: Vec<f64>,
    pub digests: Vec<u64>,
    pub stats: Vec<JobStats>,
    pub scored: Vec<usize>,
    pub rounds: Vec<usize>,
}

/// One `fuse_spill` iteration: `Fuser::run` + `AblationRunner::evaluate`
/// for each of [`SPILL_PRESETS`] under `mr`.
pub fn spill_iteration(
    tracer: &Tracer,
    corpus: &Corpus,
    runner: &AblationRunner,
    mr: MrConfig,
) -> SpillIteration {
    let mut it = SpillIteration {
        wall_s: 0.0,
        fuse_s: Vec::new(),
        evaluate_s: Vec::new(),
        digests: Vec::new(),
        stats: Vec::new(),
        scored: Vec::new(),
        rounds: Vec::new(),
    };
    let ((), wall_s) = tracer.time("bench", "fuse_spill iteration", || {
        for preset in SPILL_PRESETS {
            let mut config = preset.config();
            config.mr = mr;
            let gold = preset.needs_gold().then_some(&corpus.gold);
            let name = format!("Fuser::run[{}]", preset.name());
            let (output, s) = tracer.time("core", &name, || {
                Fuser::new(config).run(&corpus.batch, gold)
            });
            it.fuse_s.push(s);
            let (method, s) = tracer.time("eval", "AblationRunner::evaluate", || {
                runner.evaluate(preset, &output, &corpus.gold, s * 1e3)
            });
            it.evaluate_s.push(s);
            std::hint::black_box(method);
            it.digests.push(digest(&output));
            it.stats.push(output.stats);
            it.scored.push(output.scored.len());
            it.rounds.push(output.outcome.rounds());
        }
    });
    it.wall_s = wall_s;
    it
}
