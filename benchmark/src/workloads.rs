//! One run of one workload: set-up, then rounds of batch iterations (timed
//! fusion), publish cycles and a read window, correctness checks — and, for
//! a traced run, the span recorder around all of it plus the layer probes.
//!
//! Every workload is the same journey — corpus → fuse → KB → queries — so
//! every end-to-end metric exists on every workload; the workloads differ
//! in how the batch iteration executes.

use crate::dist::{self, DistIteration};
use crate::fixtures::{self, Scratch, Workload, BATCH_SHARE};
use crate::fuse::{self, Pieces};
use crate::metrics::Metrics;
use crate::probes;
use crate::queries::{Oracle, Rng};
use crate::serve::{self, ReadPhase, ServeRun, ROUNDS};
use crate::stats::{mean, median};
use crate::trace::{self, Span, Tracer};
use kf_bench::ReproOptions;
use kf_core::Fuser;
use kf_eval::{AblationRunner, EvalReport, Preset};
use kf_mapreduce::{JobStats, MrConfig};
use kf_synth::Corpus;
use kf_types::hash::hash_one;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Untraced/traced iteration pairs of a traced run.
const TRACED_PAIRS: usize = 3;
/// Kill iterations of a traced `dist_small` run.
const KILL_ITERATIONS: usize = 3;

pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

pub struct RunOutcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Timed batch iterations behind `wall_s`.
    pub iterations: usize,
    pub spans: Vec<Span>,
}

/// Operations checked for correctness, counted outside timed regions.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: CHECK FAILED: {what}");
        }
    }

    fn add(&mut self, (attempted, failed): (u64, u64), what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("benchmark: CHECK FAILED: {what}: {failed} of {attempted}");
        }
    }
}

/// What set-up builds before the timed region.
struct Fixtures {
    corpus: Corpus,
    /// Options of every `repro`-path call (`dist_small`: MapReduce
    /// `workers = 1` per task, as each worker process would run).
    opts: ReproOptions,
    runner: AblationRunner,
    mem: MrConfig,
}

fn set_up(workload: Workload, seed: u64, threads: usize) -> Fixtures {
    let mr_workers = match workload {
        Workload::DistSmall => 1,
        _ => threads,
    };
    Fixtures {
        corpus: Corpus::generate(&fixtures::synth_config(), seed),
        opts: fuse::repro_options(fixtures::SCALE, mr_workers),
        runner: serve::runner(fixtures::SCALE, threads),
        mem: MrConfig::with_workers(threads),
    }
}

fn sum_stats(stats: &[JobStats]) -> JobStats {
    let mut total = JobStats::default();
    for s in stats {
        total.merge(s);
    }
    total
}

/// Counters of one batch iteration; they repeat exactly for one seed.
#[derive(Default)]
struct Work {
    stats: JobStats,
    scored: usize,
    rounds: usize,
}

impl Work {
    /// The five-preset iteration's counters.
    fn of(pieces: &Pieces) -> Work {
        Work {
            stats: sum_stats(&pieces.stats),
            scored: pieces.scored.iter().sum(),
            rounds: pieces.rounds.iter().sum(),
        }
    }

    fn report(&self, out: &mut Metrics) {
        let stats = &self.stats;
        out.set("core.rounds_total", self.rounds as f64);
        out.set("core.scored_triples", self.scored as f64);
        out.set("core.mr_map_output", stats.map_output as f64);
        out.set("core.mr_reduce_keys", stats.reduce_keys as f64);
        out.set(
            "core.mr_peak_resident_records",
            stats.peak_resident_records as f64,
        );
        out.set(
            "core.mr_peak_grouped_records",
            stats.peak_grouped_records as f64,
        );
        out.set("core.mr_spilled_bytes", stats.spilled_bytes as f64);
        out.set("core.mr_spill_runs", stats.spill_runs as f64);
        out.set(
            "core.mr_combiner_invocations",
            stats.combiner_invocations as f64,
        );
    }
}

/// Everything the batch phase hands on.
#[derive(Default)]
struct Batch {
    /// Iteration walls with the recorder off: the end-to-end samples.
    plain_s: Vec<f64>,
    /// Iteration walls with the recorder on (traced runs only).
    traced_s: Vec<f64>,
    work: Work,
    /// `fuse_mem`: the last decomposed iteration.
    pieces: Option<Pieces>,
    /// Report of the last `run_on_corpus`-shaped iteration.
    report: Option<EvalReport>,
    clean: Vec<DistIteration>,
}

fn fingerprint(report: &EvalReport) -> u64 {
    hash_one(&report.to_json_string())
}

/// Sub-runs of an untraced run. Corpus size, claims per page and entity
/// popularity are heavy-tailed draws, so one seed's corpus differs from
/// the next one's by ±10 % in size and more in query cost; that is input,
/// not noise, but it would hide a regression just the same. An untraced
/// run therefore splits `--seconds` over this many whole sub-runs — set-up,
/// warm-up, rounds, checks — each on its own corpus drawn from `--seed`,
/// and reports the mean of their metrics.
pub const SUB_RUNS: usize = 6;

/// One run: a traced run is one pass on the corpus of `--seed`; an
/// untraced run is the mean of [`SUB_RUNS`] passes on corpora drawn from it.
pub fn run(spec: &RunSpec) -> RunOutcome {
    let pass = |seed| {
        run_once(&RunSpec {
            seed,
            seconds: spec.seconds / SUB_RUNS as f64,
            ..*spec
        })
    };
    if spec.traced {
        return pass(spec.seed);
    }
    let mut seeds = Rng::new(spec.seed);
    let passes: Vec<RunOutcome> = (0..SUB_RUNS).map(|_| pass(seeds.next_u64())).collect();
    let mut metrics = Metrics::default();
    for def in crate::metrics::END_TO_END {
        let values: Vec<f64> = passes
            .iter()
            .map(|p| p.metrics.get(def.name).expect("every pass measures it"))
            .collect();
        // `VmHWM` only grows: the last pass read the whole run's peak.
        let value = match def.name {
            "peak_rss_mb" => values[SUB_RUNS - 1],
            _ => mean(&values),
        };
        metrics.set(def.name, value);
    }
    RunOutcome {
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics,
        iterations: passes.iter().map(|p| p.iterations).sum(),
        spans: Vec::new(),
    }
}

fn run_once(spec: &RunSpec) -> RunOutcome {
    let RunSpec {
        workload,
        seed,
        seconds,
        traced,
    } = *spec;
    let threads = fixtures::threads();
    let scratch = Scratch::new(workload.name()).expect("scratch directory under benchmark/out");
    let (off, tracer) = (
        Tracer::off(),
        if traced { Tracer::on() } else { Tracer::off() },
    );
    let mut checks = Checks::default();
    let mut out = Metrics::default();
    let spill = fuse::spill_config(threads, scratch.path());

    // ---- set-up, several times; the last one is used ----------------------
    let mut setup_s = Vec::new();
    let mut fixtures = None;
    for _ in 0..SETUPS {
        drop(fixtures.take());
        let start = Instant::now();
        fixtures = Some(set_up(workload, seed, threads));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let fx = fixtures.expect("SETUPS > 0");
    let corpus = &fx.corpus;

    // ---- the batch iteration ------------------------------------------------
    let mut batch = Batch::default();
    // The first iteration's fingerprint; every later one must repeat it.
    let mut first_fingerprint = None;
    let mut iterate = |t: &Tracer, batch: &mut Batch, checks: &mut Checks| -> f64 {
        let (wall_s, print) = match workload {
            Workload::FuseMem => {
                let (report, wall_s) = if t.is_on() {
                    let (report, wall_s, pieces) =
                        fuse::run_on_corpus_decomposed(t, &fx.opts, corpus);
                    batch.work = Work::of(&pieces);
                    batch.pieces = Some(pieces);
                    (report, wall_s)
                } else {
                    fuse::run_on_corpus(t, &fx.opts, corpus)
                };
                let print = fingerprint(&report);
                batch.report = Some(report);
                (wall_s, print)
            }
            Workload::FuseSpill => {
                let it = fuse::spill_iteration(t, corpus, &fx.runner, spill);
                for (preset, stats) in fuse::SPILL_PRESETS.iter().zip(&it.stats) {
                    checks.check(
                        stats.spilled_bytes > 0,
                        &format!("{} spilled nothing", preset.name()),
                    );
                }
                batch.work = Work {
                    stats: sum_stats(&it.stats),
                    scored: it.scored.iter().sum(),
                    rounds: it.rounds.iter().sum(),
                };
                (it.wall_s, hash_one(&it.digests))
            }
            Workload::DistSmall => {
                let it = dist::iteration(t, &fx.opts, corpus, threads, false);
                let print = fingerprint(&it.merged);
                let wall_s = it.wall_s;
                batch.clean.push(it);
                (wall_s, print)
            }
        };
        let expected = *first_fingerprint.get_or_insert(print);
        checks.check(
            print == expected,
            "batch iteration output changed between iterations",
        );
        wall_s
    };

    // Warm-up: the first iteration pays for cold allocation.
    iterate(&off, &mut batch, &mut checks);
    batch.clean.clear();
    if traced {
        for _ in 1..TRACED_PAIRS {
            let wall_s = iterate(&off, &mut batch, &mut checks);
            batch.plain_s.push(wall_s);
            let wall_s = iterate(&tracer, &mut batch, &mut checks);
            batch.traced_s.push(wall_s);
        }
        let wall_s = iterate(&off, &mut batch, &mut checks);
        batch.plain_s.push(wall_s);
    }
    // `fuse_mem`: the decomposed iteration that ran between plain ones, so
    // the two compare like with like (the journey's run between read
    // windows, on colder caches).
    let paired_pieces = batch.pieces.take();

    // ---- the rounds -------------------------------------------------------------
    // The KB's source is one fused preset with attribution. Then a slice of
    // batch iterations alternates with a serve round (publish cycles, one
    // read window), so every metric's samples span the whole pass. In a
    // traced run the recorder is on and all of it is one root span, the
    // journey, whose wall the layers share out.
    let kb_preset = match workload {
        Workload::FuseSpill => Preset::PopAccu,
        _ => Preset::PopAccuPlus,
    };
    let kb_path = scratch.file("fused.kb");
    let slice_s = seconds * BATCH_SHARE / ROUNDS as f64;
    let journey_root = tracer.spans().len() as u32;
    let (journey, _) = tracer.time("bench", "journey", || {
        let kb = serve::fuse_for_kb(&tracer, corpus, kb_preset, &fx.runner, threads);
        let serve_run = ServeRun {
            tracer: &tracer,
            corpus,
            parts: &kb,
            runner: &fx.runner,
            path: &kb_path,
            seed,
            clients: threads,
            window_s: seconds * (1.0 - BATCH_SHARE) / ROUNDS as f64,
        };
        let mut served = None;
        // Batch seconds so far: a slice ends when the rounds so far have had
        // their share, so one slice's overshoot comes out of the next (a
        // round may then go without an iteration; a pass never does).
        let mut batch_s = 0.0;
        for round in 1..=ROUNDS {
            while batch_s < slice_s * round as f64 {
                let start = Instant::now();
                let wall_s = iterate(&tracer, &mut batch, &mut checks);
                if !traced {
                    batch.plain_s.push(wall_s);
                }
                batch_s += start.elapsed().as_secs_f64();
            }
            serve_run.round(&mut served);
        }
        (kb, served.expect("ROUNDS > 0"))
    });
    let peak_rss_mb = fixtures::vm_hwm_mb();
    let (kb, served) = journey;
    let (published, keys) = (&served.published, &served.keys);

    // ---- checks outside every timed region ------------------------------------
    checks.add(
        (served.queries(), served.failed()),
        "timed queries with the wrong hit/miss outcome",
    );
    let oracle = Oracle::build(&kb.output, &kb.attribution);
    checks.add(
        serve::check_sample(&published.reader, keys, &oracle, seed),
        "oracle sample",
    );
    let mut kill = Vec::new();
    let mut single_process = None;
    match workload {
        Workload::FuseMem => {
            let report = batch.report.as_ref().expect("fuse_mem keeps its report");
            // The paper's ordering, POPACCU+ above VOTE, holds at paper scale
            // and on most small corpora, not on every one; a broken fusion
            // lands far below this line, a valid one never does.
            let auc = |p: Preset| report.method(p.name()).map_or(f64::NAN, |m| m.auc_pr());
            let (plus, vote) = (auc(Preset::PopAccuPlus), auc(Preset::Vote));
            println!("fuse_mem: AUC-PR POPACCU+ {plus:.4}, VOTE {vote:.4}");
            checks.check(
                plus > 0.8 * vote && plus <= 1.0,
                "POPACCU+ AUC-PR is far below VOTE's",
            );
        }
        Workload::FuseSpill => {
            // The in-memory run of the same presets is the oracle; POPACCU's
            // is the run the KB was compiled from.
            let plus = Preset::PopAccuPlus.config().with_workers(threads);
            let plus = Fuser::new(plus).run(&corpus.batch, Some(&corpus.gold));
            let in_memory = hash_one(&vec![fuse::digest(&kb.output), fuse::digest(&plus)]);
            checks.check(
                first_fingerprint == Some(in_memory),
                "spilled fusion differs from the in-memory run",
            );
        }
        Workload::DistSmall => {
            let start = Instant::now();
            let single = kf_bench::run_on_corpus(&fx.opts, corpus);
            single_process = Some(start.elapsed().as_secs_f64());
            checks.check(
                first_fingerprint == Some(fingerprint(&single)),
                "merged report differs from the single-process report",
            );
            let kills = if traced { KILL_ITERATIONS } else { 1 };
            for _ in 0..kills {
                let it = dist::iteration(&tracer, &fx.opts, corpus, threads, true);
                checks.check(
                    first_fingerprint == Some(fingerprint(&it.merged)),
                    "merged report differs after the worker kill",
                );
                kill.push(it);
            }
        }
    }

    // ---- end-to-end metrics ---------------------------------------------------
    let iterations = batch.plain_s.len();
    if !traced {
        // Each metric is the median of its samples; the samples' count and
        // range are printed alongside.
        let mut median_of = |name: &str, samples: &[f64]| {
            println!(
                "{name}: {} samples, min {:.6}, max {:.6}",
                samples.len(),
                samples.iter().copied().fold(f64::INFINITY, f64::min),
                samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            );
            out.set(name, median(samples));
        };
        median_of("setup_s", &setup_s);
        median_of("wall_s", &batch.plain_s);
        median_of("qps", &served.per_window(ReadPhase::qps));
        median_of("query_ns_p50", &served.per_window(ReadPhase::p50));
        out.set("peak_rss_mb", peak_rss_mb);
        out.set(
            "kb_bytes_per_triple",
            published.kb_bytes as f64 / published.reader.kb().n_triples() as f64,
        );
        println!(
            "{}: {} queries in {} batches over {} read windows, KB {} triples / {} bytes, \
             {threads} threads",
            workload.name(),
            served.queries(),
            served.queries() / serve::BATCH as u64,
            served.windows.len(),
            published.reader.kb().n_triples(),
            published.kb_bytes,
        );
        if let Some(it) = kill.first() {
            println!(
                "dist_small: iteration with the worker kill {:.3} s",
                it.wall_s
            );
        }
    } else {
        // ---- per-layer metrics: the journey's spans, then the probes ---------
        out.set("synth.generate_s", median(&setup_s));
        let spans = tracer.spans();
        let walls = trace::layer_wall(&spans, journey_root);
        // Layers every workload's journey calls into become metrics; the
        // full table (and every span) is printed and written out.
        for layer in ["bench", "core", "eval", "serve"] {
            out.set(
                &format!("{layer}.traced_self_s"),
                walls.get(layer).copied().unwrap_or(0.0),
            );
        }
        let journey_s: f64 = walls.values().sum();
        println!(
            "journey (one pass: batch iterations, publish cycles, read windows), wall by layer:"
        );
        for (layer, wall_s) in &walls {
            println!(
                "  {layer:<10} {wall_s:>9.3} s {:>5.1}%",
                wall_s / journey_s * 100.0
            );
        }
        out.set("bench.traced_iteration_s", median(&batch.traced_s));
        out.set(
            "bench.trace_overhead_ratio",
            median(&batch.traced_s) / median(&batch.plain_s),
        );

        // The five-preset iteration, opaque and decomposed: on `fuse_mem`
        // the batch phase just ran both; elsewhere run them once here.
        let (opaque_s, report, pieces) = match (workload, paired_pieces) {
            (Workload::FuseMem, Some(pieces)) => (
                median(&batch.plain_s),
                batch.report.take().expect("fuse_mem keeps its report"),
                pieces,
            ),
            _ => {
                let (opaque, opaque_s) = fuse::run_on_corpus(&off, &fx.opts, corpus);
                let (report, _, pieces) = fuse::run_on_corpus_decomposed(&off, &fx.opts, corpus);
                checks.check(
                    fingerprint(&opaque) == fingerprint(&report),
                    "decomposed iteration's report differs from run_on_corpus",
                );
                (opaque_s, report, pieces)
            }
        };
        // (On `fuse_mem` the two alternated under one `first_fingerprint`,
        // so their reports already compared equal.)
        out.set("bench.run_on_corpus_s", opaque_s);
        out.set("bench.unattributed_s", opaque_s - pieces.layer_calls_s());

        let (coarse_s, fine_s) = probes::grouping(corpus, &fx.mem, &mut out);
        pieces.report(coarse_s, fine_s, &mut out);
        // Counters of this workload's own batch iteration.
        let work = match workload {
            Workload::DistSmall => Work::of(&pieces),
            _ => batch.work,
        };
        work.report(&mut out);

        let shard = EvalReport {
            corpus: report.corpus.clone(),
            methods: vec![report.methods[0].clone()],
        };
        let failed = probes::codecs(corpus, &shard, &scratch, &mut out);
        checks.add((3, failed), "checkpoint round trips");
        let failed = probes::shuffle(corpus, &fx.mem, &spill, &mut out);
        checks.add((3, failed), "shuffle probe job");
        let failed = probes::reports(&report, &scratch, &mut out);
        checks.add((2, failed), "report round trips");
        probes::telemetry(corpus, threads, &mut out);

        checks.add(
            serve::report_layer(&served, seed, threads, &mut out),
            "queries with ServeMetrics attached",
        );

        // ---- dist: this workload's own iterations, or one probe pair ---------
        if workload != Workload::DistSmall {
            let dist_opts = fuse::repro_options(fixtures::SCALE, 1);
            let reference = fingerprint(&{
                let start = Instant::now();
                let single = kf_bench::run_on_corpus(&dist_opts, corpus);
                single_process = Some(start.elapsed().as_secs_f64());
                single
            });
            for killed in [false, true] {
                let it = dist::iteration(&off, &dist_opts, corpus, threads, killed);
                checks.check(
                    fingerprint(&it.merged) == reference,
                    "distributed probe's merged report differs from the single-process report",
                );
                if killed {
                    kill.push(it);
                } else {
                    batch.clean.push(it);
                }
            }
        }
        let single_s = single_process.expect("the single-process reference ran");
        dist::report(&batch.clean, &kill, single_s, threads, &mut out);
    }

    RunOutcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: out,
        iterations,
        spans: tracer.spans(),
    }
}
