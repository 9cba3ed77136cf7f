//! `kf-serve` — build, query and watch fused knowledge bases.
//!
//! ```text
//! kf-serve build --corpus PATH --out KB [--method NAME] [--workers N]
//!                [--scale LABEL]
//! kf-serve query KB [--cmd 'LINE']...
//! kf-serve stats KB [--metrics]
//! kf-serve watch KB [--clients N] [--ticks T] [--interval-ms MS]
//!                   [--json-out PATH]
//! ```
//!
//! `build` compiles a [`FusedKb`] from a corpus snapshot, fusing and
//! evaluating the `--method` preset in-process; the KB is the same bytes
//! whatever `--workers` is.
//! `query` opens a REPL (or runs `--cmd` lines non-interactively);
//! `stats` prints the KB header plus the run's `serve.*` trace counters,
//! and with `--metrics` probes each query surface once and prints the
//! Prometheus-style exposition. `watch` drives a deterministic query mix
//! from `--clients` threads and prints one qps/p50/p95/p99 table row per
//! tick, sampled from a live snapshot ring.
//!
//! Every subcommand runs under an installed run-scoped
//! [`Trace`](kf_telemetry::Trace), so library-layer counters (`serve.*`
//! and friends) land somewhere visible instead of the no-op default.

use kf_serve::repl::{eval_command, run_repl, ReplOutput};
use kf_serve::{FusedKb, KbBuildOptions, KbReader, ServeMetrics, SnapshotRing};
use kf_synth::Corpus;
use kf_types::DataItem;
use std::io::IsTerminal;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const USAGE: &str = "usage:
  kf-serve build --corpus PATH --out KB [--method NAME] [--workers N]
                 [--scale LABEL]
  kf-serve query KB [--cmd 'LINE']...
  kf-serve stats KB [--metrics]
  kf-serve watch KB [--clients N] [--ticks T] [--interval-ms MS]
                    [--json-out PATH]";

fn fail(msg: &str) -> ExitCode {
    eprintln!("kf-serve: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    // Run-scoped trace: without it every library-layer counter bump
    // (serve.query, the hit/miss families) is a silent no-op and
    // `counters` / `stats` have nothing to print.
    let trace = kf_telemetry::Trace::new();
    let _scope = kf_telemetry::install(&trace);
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("build") => build(&args[1..]),
        Some("query") => query(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("watch") => watch(&args[1..]),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => fail(&format!("unknown subcommand `{other}`")),
        None => fail("missing subcommand"),
    }
}

fn build(args: &[String]) -> ExitCode {
    let mut corpus_path = None;
    let mut out_path = None;
    let mut opts = KbBuildOptions::default();
    let mut scale = "snapshot".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let result = match arg.as_str() {
            "--corpus" => value("--corpus").map(|v| corpus_path = Some(v)),
            "--out" => value("--out").map(|v| out_path = Some(v)),
            "--method" => value("--method").map(|v| opts.method = v),
            "--scale" => value("--scale").map(|v| scale = v),
            "--workers" => value("--workers").and_then(|v| {
                v.parse()
                    .map(|w| opts.workers = Some(w))
                    .map_err(|_| format!("bad --workers `{v}`"))
            }),
            other => Err(format!("unknown flag `{other}`")),
        };
        if let Err(e) = result {
            return fail(&e);
        }
    }
    let (Some(corpus_path), Some(out_path)) = (corpus_path, out_path) else {
        return fail("build needs --corpus and --out");
    };

    let corpus = match Corpus::load(&corpus_path) {
        Ok(c) => c,
        Err(e) => return fail(&format!("loading corpus {corpus_path}: {e}")),
    };
    let kb = match FusedKb::build_from_corpus(&corpus, &opts, &scale) {
        Ok(kb) => kb,
        Err(e) => return fail(&format!("compiling KB: {e}")),
    };
    if let Err(e) = kb.save(&out_path) {
        return fail(&format!("writing {out_path}: {e}"));
    }
    // The serving artifact's cost: the file's bytes per served triple.
    let bytes = match std::fs::metadata(&out_path) {
        Ok(m) => m.len(),
        Err(e) => return fail(&format!("reading the size of {out_path}: {e}")),
    };
    let per_triple = match kb.n_triples() {
        0 => String::new(),
        n => format!(", {:.2} B per triple", bytes as f64 / n as f64),
    };
    println!(
        "wrote {out_path}: {} triples, {} items, {} predicates, {} provenances ({}), \
         {bytes} bytes{per_triple}",
        kb.n_triples(),
        kb.n_items(),
        kb.n_predicates(),
        kb.n_provenances(),
        kb.method
    );
    ExitCode::SUCCESS
}

fn open(path: &str) -> Result<KbReader, String> {
    KbReader::open(path).map_err(|e| format!("loading KB {path}: {e}"))
}

fn query(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return fail("query needs a KB path");
    };
    let mut cmds = Vec::new();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        if arg != "--cmd" {
            return fail(&format!("unknown flag `{arg}`"));
        }
        match it.next() {
            Some(line) => cmds.push(line.clone()),
            None => return fail("--cmd needs a value"),
        }
    }
    // The REPL's `metrics` command reads an attached recorder; give the
    // session one so per-command latencies are observable.
    let reader = match open(path) {
        Ok(r) => r.with_metrics(Arc::new(ServeMetrics::new())),
        Err(e) => return fail(&e),
    };
    if !cmds.is_empty() {
        for line in &cmds {
            match eval_command(&reader, line) {
                Ok(ReplOutput::Text(text)) => println!("{text}"),
                Ok(ReplOutput::Empty) => {}
                Ok(ReplOutput::Quit) => break,
                Err(e) => {
                    eprintln!("kf-serve: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    let stdin = std::io::stdin();
    let interactive = stdin.is_terminal();
    match run_repl(&reader, stdin.lock(), std::io::stdout(), interactive) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&format!("repl I/O: {e}")),
    }
}

/// Touch each query surface once, seeded from row 0, so a bare
/// `stats --metrics` run has a deterministic non-empty exposition
/// (four queries, all hits) without external load.
fn probe(reader: &KbReader) {
    if reader.kb().n_triples() == 0 {
        return;
    }
    let v = reader.view(0);
    let _ = reader.lookup(&v.triple);
    let _ = reader.belief(DataItem {
        subject: v.triple.subject,
        predicate: v.triple.predicate,
    });
    let _ = reader.top_k(v.triple.predicate, 5);
    let _ = reader.drilldown(&v.triple);
}

fn stats(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut metrics = false;
    for arg in args {
        match arg.as_str() {
            "--metrics" => metrics = true,
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => return fail(&format!("unknown flag `{other}`")),
        }
    }
    let Some(path) = path else {
        return fail("stats needs a KB path");
    };
    let recorder = Arc::new(ServeMetrics::new());
    let reader = match open(&path) {
        Ok(r) => r.with_metrics(recorder.clone()),
        Err(e) => return fail(&e),
    };
    if metrics {
        probe(&reader);
    }
    match eval_command(&reader, "stats") {
        Ok(ReplOutput::Text(text)) => println!("{text}"),
        _ => unreachable!("stats always renders"),
    }
    // The run-scoped trace makes the serve.* counters of this very
    // process (the probe's queries, or none) printable here.
    match eval_command(&reader, "counters") {
        Ok(ReplOutput::Text(text)) => {
            println!("counters:");
            for line in text.lines() {
                println!("  {line}");
            }
        }
        _ => unreachable!("counters always renders"),
    }
    if metrics {
        print!("{}", recorder.snapshot().render_text());
    }
    ExitCode::SUCCESS
}

fn watch(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut clients = 2usize;
    let mut ticks = 5usize;
    let mut interval_ms = 200u64;
    let mut json_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let result = match arg.as_str() {
            "--clients" => value("--clients").and_then(|v| {
                v.parse()
                    .map(|n: usize| clients = n.max(1))
                    .map_err(|_| format!("bad --clients `{v}`"))
            }),
            "--ticks" => value("--ticks").and_then(|v| {
                v.parse()
                    .map(|n: usize| ticks = n.max(1))
                    .map_err(|_| format!("bad --ticks `{v}`"))
            }),
            "--interval-ms" => value("--interval-ms").and_then(|v| {
                v.parse()
                    .map(|n: u64| interval_ms = n.max(1))
                    .map_err(|_| format!("bad --interval-ms `{v}`"))
            }),
            "--json-out" => value("--json-out").map(|v| json_out = Some(v)),
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(other.to_string());
                Ok(())
            }
            other => Err(format!("unknown flag `{other}`")),
        };
        if let Err(e) = result {
            return fail(&e);
        }
    }
    let Some(path) = path else {
        return fail("watch needs a KB path");
    };
    let recorder = Arc::new(ServeMetrics::new());
    let reader = match open(&path) {
        Ok(r) => r.with_metrics(recorder.clone()),
        Err(e) => return fail(&e),
    };
    if reader.kb().n_triples() == 0 {
        return fail("watch needs a non-empty KB");
    }

    let stop = AtomicBool::new(false);
    let ring = SnapshotRing::new(ticks + 1);
    std::thread::scope(|scope| {
        for client in 0..clients {
            let reader = reader.clone();
            let stop = &stop;
            scope.spawn(move || drive_queries(&reader, stop, client as u64));
        }
        ring.push(recorder.snapshot());
        println!(" tick      qps   p50_ns   p95_ns   p99_ns   hit%");
        for tick in 1..=ticks {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
            ring.push(recorder.snapshot());
            let window = ring.last_window().expect("two polls pushed");
            let pooled = window.pooled_latency();
            let queries = window.total_queries();
            let qps = queries as f64 / (interval_ms as f64 / 1_000.0);
            let hits: u64 = window.kinds.iter().map(|k| k.hits).sum();
            let hit_pct = if queries == 0 {
                0.0
            } else {
                100.0 * hits as f64 / queries as f64
            };
            println!(
                "{tick:>5} {qps:>8.0} {:>8} {:>8} {:>8} {hit_pct:>6.1}",
                pooled.quantile(0.50),
                pooled.quantile(0.95),
                pooled.quantile(0.99),
            );
        }
        stop.store(true, Ordering::Relaxed);
    });

    let snapshot = recorder.snapshot();
    println!(
        "watched {} queries over {} ticks ({} clients)",
        snapshot.total_queries(),
        ticks,
        clients
    );
    if let Some(out) = json_out {
        if let Err(e) = std::fs::write(&out, snapshot.to_json().to_string_pretty()) {
            return fail(&format!("writing {out}: {e}"));
        }
        println!("wrote {out}");
    }
    ExitCode::SUCCESS
}

/// A deterministic query mix (a kind rotation over strided
/// rows), run until `stop`: every kind exercised, mostly hits.
fn drive_queries(reader: &KbReader, stop: &AtomicBool, client: u64) {
    let n = reader.kb().n_triples() as u64;
    let mut q = client.wrapping_mul(7919);
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..256 {
            let row = (q.wrapping_mul(2_654_435_761) % n) as u32;
            let v = reader.view(row);
            match q % 4 {
                0 => {
                    let _ = reader.lookup(&v.triple);
                }
                1 => {
                    let _ = reader.belief(DataItem {
                        subject: v.triple.subject,
                        predicate: v.triple.predicate,
                    });
                }
                2 => {
                    let _ = reader.top_k(v.triple.predicate, 8);
                }
                _ => {
                    let _ = reader.drilldown(&v.triple);
                }
            }
            q = q.wrapping_add(1);
        }
    }
}
