//! The reproduction harness: generate (or load) a synthetic corpus, fuse
//! it under the paper's five named systems, evaluate calibration and PR
//! quality against the LCWA gold standard, and write a diffable
//! `report.json` — plus, with `--trace`, a whole-run `trace.json`
//! (phase span tree, counters, series) and a phase-timing summary on
//! stdout.
//!
//! ```text
//! cargo run --release --bin repro
//! cargo run --release --bin repro -- --scale small --seed 7 --out small.json
//! cargo run --release --bin repro -- --trace trace.json
//!
//! # Checkpoint once, fan out, merge (byte-identical to a single run,
//! # embedded method traces included):
//! cargo run --release --bin repro -- --save-corpus corpus.kfc
//! cargo run --release --bin repro -- --corpus corpus.kfc --deterministic --shard 0/2
//! cargo run --release --bin repro -- --corpus corpus.kfc --deterministic --shard 1/2
//! cargo run --release --bin repro -- --merge report-shard0of2.bin report-shard1of2.bin
//!
//! # Same fan-out over TCP (kf-dist): a coordinator dispatches one task
//! # per preset to registered workers and merges the shard reports.
//! cargo run --release --bin repro -- --corpus corpus.kfc --deterministic \
//!     --serve-coordinator 127.0.0.1:0 --dist-addr-file addr.txt --out report.json &
//! cargo run --release --bin repro -- --worker "$(cat addr.txt)" --worker-name w0 &
//! cargo run --release --bin repro -- --worker "$(cat addr.txt)" --worker-name w1
//! ```
//!
//! A process runs in exactly one [`Mode`], so `main` is one `match` over
//! it; the report it produces is shown, written and traced by one shared
//! tail. A servable KB is built from the corpus checkpoint by
//! `kf-serve build`.

use kf_bench::{merge_shards, obtain_corpus, shard_presets, Mode, ParseError, ReproOptions};
use kf_dist::{run_worker, Coordinator, CoordinatorConfig, FailSpec, WorkerConfig};
use kf_eval::{trace_to_json, CorpusSummary, Json, MethodEval};
use kf_synth::Corpus;
use kf_telemetry::{Trace, TraceReport};
use kf_types::checkpoint::{self, ArtifactKind};
use std::time::Instant;

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// The whole-run trace: the process-level span tree (corpus obtain,
/// support index, persistence) with every method trace grafted in as a
/// phase named after its method, in report (= ablation) order. Under
/// `--deterministic` all wall-clock fields are quarantined to zero so
/// same-seed runs produce byte-identical artifacts.
fn full_run_trace(process: &Trace, methods: &[MethodEval], deterministic: bool) -> TraceReport {
    let mut full = process.snapshot();
    for m in methods {
        if let Some(trace) = &m.trace {
            full.absorb(&m.name, trace);
        }
    }
    if deterministic {
        full.quarantine_timings();
    }
    full
}

/// Write the `trace.json` artifact: the assembled whole-run trace plus
/// each method's own trace (the same sections that ride inside shard
/// reports), so per-method numbers stay inspectable after assembly.
/// Schema 2 added the `histograms` deterministic entries and the
/// per-trace `histograms` value ledger; schema 3 dropped the `gauges`
/// arrays.
fn write_trace(path: &str, full: &TraceReport, methods: &[MethodEval]) {
    let json = Json::obj([
        ("schema_version", Json::Uint(3)),
        ("run", trace_to_json(full)),
        (
            "methods",
            Json::arr(methods.iter().filter_map(|m| {
                m.trace.as_ref().map(|t| {
                    Json::Obj(vec![
                        ("name".to_string(), Json::Str(m.name.clone())),
                        ("trace".to_string(), trace_to_json(t)),
                    ])
                })
            })),
        ),
    ]);
    match std::fs::write(path, json.to_string_pretty()) {
        Ok(()) => println!("wrote trace {path}"),
        Err(e) => fail(&format!("failed to write trace {path}: {e}")),
    }
}

/// How `repro` obtained its corpus, for the corpus line.
struct Obtained {
    /// `<scale> seed=<seed>, loaded|generated`.
    label: String,
    /// Seconds the load or generation took.
    secs: f64,
}

impl Obtained {
    /// Print the corpus line with `counts`, what is known of the corpus.
    fn print(&self, counts: &str) {
        println!("corpus[{}]: {counts} ({:.2}s)", self.label, self.secs);
    }

    /// The corpus line of a run's report: every count comes from its
    /// [`CorpusSummary`], read off the grouped claims, so printing it
    /// costs no pass over the records.
    fn print_summary(&self, summary: &CorpusSummary) {
        self.print(&format!(
            "{} records, {} unique triples, {} items, {} gold items, lcwa accuracy {:.3}",
            summary.n_records,
            summary.n_unique_triples,
            summary.n_data_items,
            summary.n_gold_items,
            summary.lcwa_accuracy,
        ));
    }
}

/// Load the corpus checkpoint or generate the corpus, under the
/// process-level `corpus` span.
fn load_corpus(opts: &ReproOptions) -> (Corpus, Obtained) {
    let start = Instant::now();
    let (corpus, loaded) = {
        let _span = kf_telemetry::span("corpus");
        obtain_corpus(opts).unwrap_or_else(|e| fail(&e))
    };
    let how = if loaded { "loaded" } else { "generated" };
    let obtained = Obtained {
        label: format!("{} seed={}, {how}", opts.scale, corpus.seed),
        secs: start.elapsed().as_secs_f64(),
    };
    (corpus, obtained)
}

fn main() {
    let mut opts = match ReproOptions::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        // Asking for help is not an error; everything else is.
        Err(ParseError::Help) => {
            println!("{}", kf_bench::USAGE);
            return;
        }
        Err(ParseError::Invalid(msg)) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    // The process-level trace records everything outside a preset run:
    // corpus load/generate/save, the shared support index, report I/O.
    // Preset runs install their own shadowing traces (see kf-bench).
    let process = Trace::with_root("run");
    let _telemetry = kf_telemetry::install(&process);

    // What the mode produced: a report (a shard's is partial), if any,
    // and the corpus with how it was obtained, if it was.
    let (report, obtained, corpus) = match &opts.mode {
        Mode::Worker { addr, name } => {
            // The corpus and every fusion parameter arrive over the wire.
            let mut config = WorkerConfig::new(addr.clone(), name.clone());
            config.fail = FailSpec::from_env()
                .unwrap_or_else(|e| fail(&format!("bad KF_DIST_FAIL fault spec: {e}")));
            let mut run_task = kf_bench::task_runner();
            run_worker(&config, |corpus, spec| {
                println!("worker {name}: task {} [{}]", spec.task_id, spec.preset);
                run_task(corpus, spec)
            })
            .unwrap_or_else(|e| fail(&format!("worker {name}: {e}")));
            println!("worker {name}: coordinator shut us down cleanly");
            (None, None, None)
        }
        Mode::Merge(paths) => {
            let report = merge_shards(paths).unwrap_or_else(|e| fail(&e));
            println!(
                "merged {} shard report(s): {} methods on corpus[{} seed={}]",
                paths.len(),
                report.methods.len(),
                report.corpus.scale,
                report.corpus.seed,
            );
            (Some(report), None, None)
        }
        Mode::SaveCorpus(path) => {
            // No run groups the records, so the line shows only what
            // needs no pass over them.
            let (corpus, obtained) = load_corpus(&opts);
            let (records, gold_items) = (corpus.batch.len(), corpus.gold.n_items());
            obtained.print(&format!("{records} records, {gold_items} gold items"));
            let start = Instant::now();
            corpus
                .save(path)
                .unwrap_or_else(|e| fail(&format!("failed to save corpus {path:?}: {e}")));
            let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            println!(
                "saved corpus checkpoint {path} ({:.1} MiB, {:.2}s)",
                bytes as f64 / (1024.0 * 1024.0),
                start.elapsed().as_secs_f64(),
            );
            (None, None, Some(corpus))
        }
        Mode::Shard { index, of } => {
            let (corpus, obtained) = load_corpus(&opts);
            opts.presets = shard_presets(&opts.presets, *index, *of);
            let names: Vec<&str> = opts.presets.iter().map(|p| p.name()).collect();
            println!("shard {index}/{of}: presets [{}]", names.join(", "));
            let report = kf_bench::run_on_corpus(&opts, &corpus);
            (Some(report), Some(obtained), Some(corpus))
        }
        Mode::Coordinator { bind, addr_file } => {
            let (corpus, obtained) = load_corpus(&opts);
            let coordinator = Coordinator::bind(
                bind,
                kf_bench::dist_task_specs(&opts),
                checkpoint::encode(ArtifactKind::Corpus, &corpus),
                CoordinatorConfig {
                    verbose: true,
                    ..CoordinatorConfig::default()
                },
            )
            .unwrap_or_else(|e| fail(&format!("cannot bind coordinator on {bind}: {e}")));
            let addr = coordinator
                .local_addr()
                .unwrap_or_else(|e| fail(&format!("coordinator has no local address: {e}")));
            println!(
                "coordinator listening on {addr}: {} task(s), one preset each",
                opts.presets.len()
            );
            if let Some(path) = addr_file {
                std::fs::write(path, addr.to_string())
                    .unwrap_or_else(|e| fail(&format!("failed to write address file {path}: {e}")));
                println!("wrote coordinator address to {path}");
            }
            // The shard reports merge in ablation order: the same report
            // object a single-process run produces.
            let report = coordinator
                .run_merged()
                .unwrap_or_else(|e| fail(&format!("distributed run failed: {e}")));
            (Some(report), Some(obtained), Some(corpus))
        }
        Mode::Run => {
            let (corpus, obtained) = load_corpus(&opts);
            let report = kf_bench::run_on_corpus(&opts, &corpus);
            (Some(report), Some(obtained), Some(corpus))
        }
    };

    if let Some(report) = &report {
        if let Some(obtained) = &obtained {
            obtained.print_summary(&report.corpus);
        }
        println!();
        print!("{}", report.summary_table());
        // Before the trace is read: a shard report's save is on it.
        if let Some(path) = &opts.out {
            let written = match opts.mode {
                Mode::Shard { .. } => report.save(path).map_err(|e| e.to_string()),
                _ => std::fs::write(path, report.to_json_string()).map_err(|e| e.to_string()),
            };
            match written {
                Ok(()) => println!("\nwrote {path} ({} methods)", report.methods.len()),
                Err(e) => fail(&format!("failed to write {path}: {e}")),
            }
        }
    }

    let methods = report.as_ref().map_or(&[][..], |r| r.methods.as_slice());
    let full = full_run_trace(&process, methods, opts.deterministic);
    if report.is_some() {
        println!();
        print!("{}", full.summary());
    }
    if let Some(path) = &opts.trace {
        write_trace(path, &full, methods);
    }
    // Freeing the corpus (tens of milliseconds at paper scale, outside
    // every span) buys nothing: the process exits next and the system
    // reclaims its memory at once.
    std::mem::forget(corpus);
}
