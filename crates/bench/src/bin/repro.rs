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
//! cargo run --release --bin repro -- --corpus corpus.kfc --deterministic --shard 0/2 --out s0.bin
//! cargo run --release --bin repro -- --corpus corpus.kfc --deterministic --shard 1/2 --out s1.bin
//! cargo run --release --bin repro -- --merge s0.bin s1.bin --out report.json
//!
//! # Same fan-out over TCP (kf-dist): a coordinator dispatches one task
//! # per preset to registered workers and merges the shard reports.
//! cargo run --release --bin repro -- --corpus corpus.kfc --deterministic \
//!     --serve-coordinator 127.0.0.1:0 --dist-addr-file addr.txt --out report.json &
//! cargo run --release --bin repro -- --worker "$(cat addr.txt)" --worker-name w0 &
//! cargo run --release --bin repro -- --worker "$(cat addr.txt)" --worker-name w1
//! ```

use kf_bench::{merge_shards, obtain_corpus, shard_presets, ParseError, ReproOptions};
use kf_dist::{run_worker, Coordinator, CoordinatorConfig, FailSpec, WorkerConfig};
use kf_eval::{trace_to_json, Json, MethodEval};
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
/// Schema 2 added the `histograms`/`gauges` deterministic entries and
/// the per-trace `histograms` value ledger.
fn write_trace(path: &str, full: &TraceReport, methods: &[MethodEval]) {
    let json = Json::obj([
        ("schema_version", Json::Uint(2)),
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

    // ---- Worker subflow: serve a coordinator until shut down ------------
    // Runs before any corpus work: the corpus and every fusion parameter
    // arrive over the wire.
    if let Some(addr) = &opts.worker {
        let fault = FailSpec::from_env()
            .unwrap_or_else(|e| fail(&format!("bad KF_DIST_FAIL fault spec: {e}")));
        let mut config = WorkerConfig::new(addr.clone(), opts.worker_name.clone());
        config.fail = fault;
        let mut run_task = kf_bench::task_runner();
        let result = run_worker(&config, |corpus, spec| {
            println!(
                "worker {}: task {} [{}]",
                opts.worker_name, spec.task_id, spec.preset
            );
            run_task(corpus, spec)
        });
        if let Err(e) = result {
            fail(&format!("worker {}: {e}", opts.worker_name));
        }
        println!(
            "worker {}: coordinator shut us down cleanly",
            opts.worker_name
        );
        if let Some(path) = &opts.trace {
            let full = full_run_trace(&process, &[], opts.deterministic);
            write_trace(path, &full, &[]);
        }
        return;
    }

    // ---- Merge subflow: shard reports in, one report.json out ----------
    if opts.merge {
        let report = merge_shards(&opts.merge_inputs).unwrap_or_else(|e| fail(&e));
        println!(
            "merged {} shard report(s): {} methods on corpus[{} seed={}]",
            opts.merge_inputs.len(),
            report.methods.len(),
            report.corpus.scale,
            report.corpus.seed,
        );
        println!();
        print!("{}", report.summary_table());
        if let Some(path) = &opts.out {
            match std::fs::write(path, report.to_json_string()) {
                Ok(()) => println!("\nwrote {path}"),
                Err(e) => fail(&format!("failed to write {path}: {e}")),
            }
        }
        // Merged report → fused KB, no second report decode pass: the
        // in-memory report is compiled directly against the corpus
        // snapshot the shards fused (parse guarantees --corpus is set).
        if opts.build_kb.is_some() {
            let path = opts.corpus.as_deref().expect("parse requires --corpus");
            let corpus = kf_synth::Corpus::load(path)
                .unwrap_or_else(|e| fail(&format!("failed to load corpus {path:?}: {e}")));
            let kb = kf_bench::compile_kb(&opts, &report, &corpus).unwrap_or_else(|e| fail(&e));
            println!(
                "\nbuilt fused KB {} [{}]: {} triples, {} items, {} predicates, {} provenances",
                opts.build_kb.as_deref().unwrap_or("?"),
                kb.method,
                kb.n_triples(),
                kb.n_items(),
                kb.n_predicates(),
                kb.n_provenances(),
            );
        }
        let full = full_run_trace(&process, &report.methods, opts.deterministic);
        println!();
        print!("{}", full.summary());
        if let Some(path) = &opts.trace {
            write_trace(path, &full, &report.methods);
        }
        return;
    }

    // ---- Corpus: load the checkpoint or generate ------------------------
    let start = Instant::now();
    let (corpus, loaded) = {
        let _span = kf_telemetry::span("corpus");
        obtain_corpus(&opts).unwrap_or_else(|e| fail(&e))
    };
    println!(
        "corpus[{} seed={}, {}]: {} records, {} unique triples, {} items, \
         {} gold items, lcwa accuracy {:.3} ({:.2}s)",
        opts.scale,
        corpus.seed,
        if loaded { "loaded" } else { "generated" },
        corpus.batch.len(),
        corpus.batch.unique_triples(),
        corpus.batch.unique_data_items(),
        corpus.gold.n_items(),
        corpus.lcwa_accuracy(),
        start.elapsed().as_secs_f64(),
    );

    // ---- Snapshot subflow: save the checkpoint and exit -----------------
    if let Some(path) = &opts.save_corpus {
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
        if let Some(tpath) = &opts.trace {
            let full = full_run_trace(&process, &[], opts.deterministic);
            write_trace(tpath, &full, &[]);
        }
        return;
    }

    // ---- Shard subflow: fuse this shard's presets, write binary report --
    if let Some((index, of)) = opts.shard {
        opts.presets = shard_presets(&opts.presets, index, of);
        let names: Vec<&str> = opts.presets.iter().map(|p| p.name()).collect();
        println!("shard {index}/{of}: presets [{}]", names.join(", "));
        let report = kf_bench::run_on_corpus(&opts, &corpus);
        // An explicit --out is honoured verbatim (and --no-out skips the
        // write); only a defaulted path is replaced by the shard name.
        let path = match (&opts.out, opts.out_explicit) {
            (Some(path), true) => Some(path.clone()),
            (None, true) => None,
            _ => Some(format!("report-shard{index}of{of}.bin")),
        };
        match path {
            Some(path) => {
                report.save(&path).unwrap_or_else(|e| {
                    fail(&format!("failed to write shard report {path:?}: {e}"))
                });
                println!(
                    "wrote shard report {path} ({} methods)",
                    report.methods.len()
                );
            }
            None => println!("--no-out: shard report not written"),
        }
        if let Some(tpath) = &opts.trace {
            let full = full_run_trace(&process, &report.methods, opts.deterministic);
            write_trace(tpath, &full, &report.methods);
        }
        return;
    }

    // ---- Coordinator subflow / single-process run -----------------------
    // A coordinator run produces the same report object a single-process
    // run does (the shard reports merge in ablation order), so the whole
    // output tail — summary table, KB compilation, trace — is shared.
    let report = if let Some(bind) = &opts.serve_coordinator {
        let tasks = kf_bench::dist_task_specs(&opts);
        let coordinator = Coordinator::bind(
            bind.as_str(),
            tasks,
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
        if let Some(path) = &opts.dist_addr_file {
            std::fs::write(path, addr.to_string())
                .unwrap_or_else(|e| fail(&format!("failed to write address file {path}: {e}")));
            println!("wrote coordinator address to {path}");
        }
        coordinator
            .run_merged()
            .unwrap_or_else(|e| fail(&format!("distributed run failed: {e}")))
    } else {
        kf_bench::run_on_corpus(&opts, &corpus)
    };
    println!();
    print!("{}", report.summary_table());

    // The corpus and report are both still in memory: the KB compiles
    // straight from them, without a load/decode round-trip.
    if opts.build_kb.is_some() {
        let kb = kf_bench::compile_kb(&opts, &report, &corpus).unwrap_or_else(|e| fail(&e));
        println!(
            "\nbuilt fused KB {} [{}]: {} triples, {} items, {} predicates, {} provenances",
            opts.build_kb.as_deref().unwrap_or("?"),
            kb.method,
            kb.n_triples(),
            kb.n_items(),
            kb.n_predicates(),
            kb.n_provenances(),
        );
    }

    let full = full_run_trace(&process, &report.methods, opts.deterministic);
    println!();
    print!("{}", full.summary());
    println!();

    if let Some(path) = &opts.out {
        match std::fs::write(path, report.to_json_string()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => fail(&format!("failed to write {path}: {e}")),
        }
    }
    if let Some(path) = &opts.trace {
        write_trace(path, &full, &report.methods);
    }
}
