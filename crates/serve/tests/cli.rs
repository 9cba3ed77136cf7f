//! Binary-level tests for the `kf-serve` CLI: `build` must write the
//! bytes of the library build whatever its worker count, and report
//! their count and bytes per served triple, the run-scoped
//! trace must
//! make `serve.*` counters visible to `counters`/`stats` (they used to
//! be silent no-ops without an installed trace), `stats --metrics` must
//! print the Prometheus-style exposition after its self-probe, and
//! `watch` must drive load and emit both the table and the JSON
//! snapshot.

use kf_serve::{FusedKb, KbBuildOptions};
use kf_synth::{Corpus, SynthConfig};
use std::path::PathBuf;
use std::process::Command;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kf-serve-cli-{}-{name}", std::process::id()))
}

/// Build and save the shared tiny KB fixture, returning its path.
fn kb_file(name: &str) -> PathBuf {
    let corpus = Corpus::generate(&SynthConfig::tiny(), 42);
    let kb =
        FusedKb::build_from_corpus(&corpus, &KbBuildOptions::default(), "tiny").expect("builds");
    let path = tmp_path(name);
    kb.save(&path).expect("saves");
    path
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_kf-serve"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
        out.status.success(),
    )
}

/// `kf-serve build` writes the bytes [`FusedKb::build_from_corpus`] does
/// for the preset `--method` names, on one thread as on three, and takes
/// no evaluation report.
#[test]
fn build_writes_the_library_kb_whatever_the_worker_count() {
    let corpus = Corpus::generate(&SynthConfig::tiny(), 42);
    let corpus_path = tmp_path("build-corpus.kfc");
    corpus.save(&corpus_path).expect("saves");
    let opts = KbBuildOptions {
        method: "vote".to_string(),
        workers: None,
    };
    let kb = FusedKb::build_from_corpus(&corpus, &opts, "tiny").expect("builds");
    let expected = kf_types::checkpoint::encode(kf_types::ArtifactKind::FusedKb, &kb);
    // The `wrote …` line ends in the file's cost.
    let per_triple = expected.len() as f64 / kb.n_triples() as f64;
    let cost = format!(
        "), {} bytes, {per_triple:.2} B per triple\n",
        expected.len()
    );
    let out = tmp_path("build.kb");
    let build = |extra: &[&str]| {
        let path = [corpus_path.to_str().unwrap(), out.to_str().unwrap()];
        let args = [&["build", "--corpus", path[0], "--out", path[1]][..], extra].concat();
        run(&args)
    };
    for workers in ["1", "3"] {
        let args = ["--method", "vote", "--scale", "tiny", "--workers", workers];
        let (stdout, stderr, ok) = build(&args);
        assert!(ok, "build failed: {stderr}");
        assert!(stdout.ends_with(&cost), "{stdout}");
        let written = std::fs::read(&out).expect("KB written");
        assert!(written == expected, "--workers {workers} wrote other bytes");
        std::fs::remove_file(&out).unwrap();
    }
    let (_, stderr, ok) = build(&["--report", "report.bin"]);
    assert!(!ok && stderr.contains("--report"), "{stderr}");
    assert!(!out.exists());
    std::fs::remove_file(&corpus_path).ok();
}

#[test]
fn query_counters_are_visible_without_explicit_trace() {
    // The regression this pins: `serve.*` counters were invisible to the
    // `counters` command unless the caller installed a trace — the CLI
    // never did, so `--cmd counters` always printed the empty-state
    // line. The binary now installs a run-scoped trace in `main`.
    let kb = kb_file("counters");
    let (stdout, stderr, ok) = run(&[
        "query",
        kb.to_str().unwrap(),
        "--cmd",
        "top p0 3",
        "--cmd",
        "counters",
    ]);
    std::fs::remove_file(&kb).ok();
    assert!(ok, "query failed: {stderr}");
    assert!(
        !stdout.contains("no trace installed"),
        "trace missing in CLI run:\n{stdout}"
    );
    assert!(
        stdout.contains("serve.query"),
        "serve.query counter not printed:\n{stdout}"
    );
}

#[test]
fn stats_prints_counters_and_metrics_exposition() {
    let kb = kb_file("stats");
    let (stdout, stderr, ok) = run(&["stats", kb.to_str().unwrap(), "--metrics"]);
    std::fs::remove_file(&kb).ok();
    assert!(ok, "stats failed: {stderr}");
    // KB header, then the run's own counters (the probe queried each
    // surface once), then the exposition.
    assert!(stdout.contains("method      "), "{stdout}");
    assert!(stdout.contains("counters:"), "{stdout}");
    assert!(stdout.contains("serve.query              4"), "{stdout}");
    for line in [
        "# TYPE kf_serve_queries_total counter",
        "kf_serve_queries_total{kind=\"lookup\",outcome=\"hit\"} 1",
        "kf_serve_queries_total{kind=\"belief\",outcome=\"hit\"} 1",
        "kf_serve_queries_total{kind=\"top_k\",outcome=\"hit\"} 1",
        "kf_serve_queries_total{kind=\"drilldown\",outcome=\"hit\"} 1",
        "kf_serve_errors_total 0",
        "# TYPE kf_serve_latency histogram",
        "kf_serve_latency_count{kind=\"lookup\"} 1",
        "# TYPE kf_serve_result_size histogram",
        "kf_serve_result_size_bucket{kind=\"lookup\",le=\"1\"} 1",
    ] {
        assert!(stdout.contains(line), "missing `{line}` in:\n{stdout}");
    }
}

#[test]
fn stats_without_metrics_flag_omits_exposition() {
    let kb = kb_file("stats-plain");
    let (stdout, stderr, ok) = run(&["stats", kb.to_str().unwrap()]);
    std::fs::remove_file(&kb).ok();
    assert!(ok, "stats failed: {stderr}");
    assert!(stdout.contains("counters:"), "{stdout}");
    assert!(
        !stdout.contains("kf_serve_queries_total"),
        "exposition printed without --metrics:\n{stdout}"
    );
}

#[test]
fn watch_drives_load_and_writes_json_snapshot() {
    let kb = kb_file("watch");
    let json = tmp_path("watch.json");
    let (stdout, stderr, ok) = run(&[
        "watch",
        kb.to_str().unwrap(),
        "--clients",
        "2",
        "--ticks",
        "2",
        "--interval-ms",
        "60",
        "--json-out",
        json.to_str().unwrap(),
    ]);
    std::fs::remove_file(&kb).ok();
    let snapshot = std::fs::read_to_string(&json);
    std::fs::remove_file(&json).ok();
    assert!(ok, "watch failed: {stderr}");
    assert!(
        stdout.contains(" tick      qps   p50_ns   p95_ns   p99_ns   hit%"),
        "{stdout}"
    );
    assert!(stdout.contains("watched "), "{stdout}");
    let snapshot = snapshot.expect("json written");
    assert!(snapshot.contains("\"total_queries\""), "{snapshot}");
    assert!(snapshot.contains("\"kind\": \"drilldown\""), "{snapshot}");
    assert!(snapshot.contains("\"p99\""), "{snapshot}");
}
