//! The checkpoint-and-fan-out acceptance test: a sharded reproduction run
//! (shard 0/2 + shard 1/2 + merge), fanning out from one corpus
//! checkpoint, must produce a `report.json` **byte-identical** to the
//! single-process run. CI exercises the same flow through the actual
//! `repro` binary on the default corpus; this test pins it at library
//! level on a tiny corpus so regressions fail fast everywhere.

use kf_bench::{merge_shards, obtain_corpus, run_on_corpus, shard_presets, ReproOptions};
use kf_eval::{EvalReport, Preset};
use kf_synth::{Corpus, SynthConfig};
use std::path::PathBuf;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kf-bench-shard-{}-{name}", std::process::id()))
}

fn options() -> ReproOptions {
    ReproOptions {
        scale: "tiny".into(),
        seed: 11,
        out: None,
        workers: Some(2),
        deterministic: true,
        ..Default::default()
    }
}

#[test]
fn sharded_run_is_byte_identical_to_single_process() {
    // Snapshot once (the `--save-corpus` subflow).
    let corpus_path = tmp_path("corpus.kfc");
    Corpus::generate(&SynthConfig::tiny(), 11)
        .save(&corpus_path)
        .unwrap();

    // Single-process reference, fanning out from the checkpoint (the
    // `--corpus` subflow) with zeroed fuse times (`--deterministic`).
    let mut opts = options();
    opts.corpus = Some(corpus_path.to_string_lossy().into_owned());
    let (corpus, loaded) = obtain_corpus(&opts).unwrap();
    assert!(loaded);
    let single = run_on_corpus(&opts, &corpus);
    assert_eq!(single.methods.len(), Preset::ALL.len());

    // Sharded runs (`--shard 0/2`, `--shard 1/2`): each fuses its preset
    // slice from a freshly *loaded* corpus, persists a binary shard
    // report, as separate processes would.
    let mut shard_files = Vec::new();
    for index in 0..2 {
        let mut shard_opts = options();
        shard_opts.presets = shard_presets(&Preset::ALL, index, 2);
        let shard_corpus = Corpus::load(&corpus_path).unwrap();
        let report = run_on_corpus(&shard_opts, &shard_corpus);
        assert_eq!(report.methods.len(), shard_opts.presets.len());
        let path = tmp_path(&format!("shard{index}.bin"));
        report.save(&path).unwrap();
        shard_files.push(path.to_string_lossy().into_owned());
    }

    // Merge (the `--merge` subflow) and compare the *serialized* reports
    // byte for byte — the artifact future PRs diff.
    let merged = merge_shards(&shard_files).unwrap();
    assert_eq!(
        merged.to_json_string(),
        single.to_json_string(),
        "merged sharded report.json must be byte-identical to the single-process run"
    );

    std::fs::remove_file(&corpus_path).unwrap();
    for f in &shard_files {
        std::fs::remove_file(f).unwrap();
    }
}

#[test]
fn shard_reports_roundtrip_and_refuse_foreign_corpora() {
    let corpus = Corpus::generate(&SynthConfig::tiny(), 3);
    let mut opts = options();
    opts.seed = 3;
    opts.presets = shard_presets(&Preset::ALL, 0, 2);
    let report = run_on_corpus(&opts, &corpus);

    // Binary shard reports survive the disk roundtrip with their JSON
    // projection intact.
    let path = tmp_path("solo-shard.bin");
    report.save(&path).unwrap();
    let back = EvalReport::load(&path).unwrap();
    assert_eq!(back.to_json_string(), report.to_json_string());

    // A shard evaluated on a different corpus cannot be merged in.
    let other_corpus = Corpus::generate(&SynthConfig::tiny(), 4);
    let mut other_opts = options();
    other_opts.seed = 4;
    other_opts.presets = shard_presets(&Preset::ALL, 1, 2);
    let other = run_on_corpus(&other_opts, &other_corpus);
    let other_path = tmp_path("foreign-shard.bin");
    other.save(&other_path).unwrap();
    let err = merge_shards(&[
        path.to_string_lossy().into_owned(),
        other_path.to_string_lossy().into_owned(),
    ])
    .unwrap_err();
    assert!(err.contains("different corpus"), "{err}");

    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&other_path).unwrap();
}

/// The same flow through the `repro` binary, from a scratch working
/// directory: the shards run without `--out`, so they write their default
/// `report-shard{i}of{n}.bin` names there, and a `--merge` of those must
/// reproduce a single `--deterministic` run's report byte for byte.
#[test]
fn repro_binary_shards_and_merges_like_a_single_run() {
    use std::process::Command;

    let dir = tmp_path("cli");
    std::fs::create_dir_all(&dir).unwrap();
    let repro = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("repro spawns");
        assert!(
            out.status.success(),
            "repro {args:?} failed:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
    };
    let tiny = ["--scale", "tiny", "--deterministic", "--corpus", "c.kfc"];

    repro(&["--scale", "tiny", "--seed", "11", "--save-corpus", "c.kfc"]);
    repro(&[&tiny[..], &["--out", "single.json"]].concat());
    repro(&[&tiny[..], &["--shard", "0/2"]].concat());
    repro(&[&tiny[..], &["--shard", "1/2"]].concat());
    repro(&["--merge", "report-shard0of2.bin", "report-shard1of2.bin"]);

    let read = |name: &str| std::fs::read(dir.join(name)).expect(name);
    assert!(
        read("report.json") == read("single.json"),
        "the merged report differs from the single run's"
    );

    // `repro` builds no KB (`kf-serve build` does), and a merge reads no
    // corpus: each is a usage error.
    for args in [
        &["--build-kb", "x"][..],
        &["--kb-method", "vote"],
        &["--merge", "report-shard0of2.bin", "--corpus", "c.kfc"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("repro spawns");
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
