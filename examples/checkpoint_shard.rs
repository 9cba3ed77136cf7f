//! Checkpoint-and-fan-out walkthrough: snapshot a corpus once, fuse
//! disjoint preset slices as independent "shards" (each reloading the
//! checkpoint, exactly as separate processes would), merge the shard
//! reports, and verify the merged report is byte-identical to a
//! single-process run.
//!
//! ```text
//! cargo run --release --example checkpoint_shard
//! ```
//!
//! The same flow through the `repro` binary:
//!
//! ```text
//! repro --save-corpus corpus.kfc
//! repro --corpus corpus.kfc --deterministic --shard 0/2 --out s0.bin
//! repro --corpus corpus.kfc --deterministic --shard 1/2 --out s1.bin
//! repro --merge s0.bin s1.bin --out report.json
//! ```

use kf::core::Claims;
use kf::eval::{merge_reports, AblationRunner, EvalReport, Preset};
use kf::mapreduce::MrConfig;
use kf::synth::{Corpus, SynthConfig};
use std::time::Instant;

fn main() {
    let dir = std::env::temp_dir().join(format!("kf-checkpoint-shard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    // ---- Snapshot: generate once, save the checkpoint -------------------
    let t = Instant::now();
    let corpus = Corpus::generate(&SynthConfig::small(), 42);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let corpus_path = dir.join("corpus.kfc");
    corpus.save(&corpus_path).expect("save corpus");
    let bytes = std::fs::metadata(&corpus_path).unwrap().len();
    let t = Instant::now();
    let reloaded = Corpus::load(&corpus_path).expect("load corpus");
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(reloaded, corpus, "load(save(corpus)) == corpus");
    println!(
        "snapshot: {} records -> {:.1} MiB checkpoint (generate {generate_ms:.0} ms, \
         load {load_ms:.0} ms)",
        corpus.batch.len(),
        bytes as f64 / (1024.0 * 1024.0),
    );

    let runner = AblationRunner {
        scale: "small".into(),
        ..Default::default()
    };

    // ---- Reference: one process runs all five presets -------------------
    let single = fuse(&runner, &corpus, &Preset::ALL);

    // ---- Fan out: shard i of 2 loads the checkpoint and fuses its slice -
    // Any disjoint split merges to the same bytes. This one alternates
    // report order; `repro --shard` stripes its costliest-first task table.
    let mut shards = Vec::new();
    for index in 0..2usize {
        let shard_corpus = Corpus::load(&corpus_path).expect("shard loads checkpoint");
        let presets: Vec<Preset> = Preset::ALL
            .into_iter()
            .enumerate()
            .filter(|(j, _)| j % 2 == index)
            .map(|(_, p)| p)
            .collect();
        let names: Vec<&str> = presets.iter().map(|p| p.name()).collect();
        let report = fuse(&runner, &shard_corpus, &presets);
        let path = dir.join(format!("shard{index}.bin"));
        report.save(&path).expect("save shard report");
        println!(
            "shard {index}/2: presets [{}] -> {} ({} methods)",
            names.join(", "),
            path.display(),
            report.methods.len(),
        );
        shards.push(EvalReport::load(&path).expect("reload shard report"));
    }

    // ---- Merge: reassemble in ablation order, byte-identical ------------
    let merged = merge_reports(shards).expect("shards merge");
    assert_eq!(
        merged.to_json_string(),
        single.to_json_string(),
        "merged sharded report must be byte-identical to the single-process run"
    );
    println!(
        "merge: {} methods reassembled; report.json byte-identical to the \
         single-process run ({} bytes)",
        merged.methods.len(),
        merged.to_json_string().len(),
    );
    print!("{}", merged.summary_table());

    std::fs::remove_dir_all(&dir).ok();
}

/// `presets` fused over one grouping of `corpus` and evaluated, as a
/// report, with the one nondeterministic report field (wall-clock fuse
/// time) zeroed so the byte-comparison is meaningful — `repro
/// --deterministic` does the same.
fn fuse(runner: &AblationRunner, corpus: &Corpus, presets: &[Preset]) -> EvalReport {
    let claims = Claims::build(&corpus.batch.records, &MrConfig::default());
    let labels = claims.table().labels(&corpus.gold);
    let methods = presets.iter().map(|&p| {
        let mut method = runner.fuse_preset(p, &claims, &labels).2;
        method.fuse_ms = 0.0;
        method
    });
    EvalReport {
        corpus: runner.claims_summary(corpus, &claims, &labels),
        methods: methods.collect(),
    }
}
