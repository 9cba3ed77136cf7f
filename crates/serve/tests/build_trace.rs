//! What `FusedKb::build_from_corpus` records on the trace installed where
//! it runs.

use kf_serve::{FusedKb, KbBuildOptions};
use kf_synth::{Corpus, SynthConfig};
use kf_telemetry::{install, SpanNode, Trace};

/// A build records all its work under `serve.compile`, on the trace
/// installed where it runs: the grouping job, the labelling, the
/// projection, the rounds and the evaluation (the shared per-preset step) under
/// `serve.compile.fuse`, then the index build; one grouping job.
#[test]
fn build_is_traced_under_serve_compile() {
    let corpus = Corpus::generate(&SynthConfig::tiny(), 9);
    let trace = Trace::with_root("build");
    {
        let _installed = install(&trace);
        let opts = KbBuildOptions::default();
        FusedKb::build_from_corpus(&corpus, &opts, "tiny").expect("build");
    }
    let report = trace.snapshot();
    let names =
        |node: &SpanNode| -> Vec<String> { node.children.iter().map(|c| c.name.clone()).collect() };
    assert_eq!(names(&report.root), ["serve.compile"]);
    let compile = report.root.child("serve.compile").expect("compile span");
    assert_eq!(
        names(compile),
        ["serve.compile.fuse", "serve.compile.index"]
    );
    let fuse = compile.child("serve.compile.fuse").expect("fuse span");
    assert_eq!(names(fuse), ["group", "label", "project", "fuse", "eval"]);
    let jobs = report.counters.iter().find(|c| c.name == "mr.jobs");
    assert_eq!(jobs.map(|c| c.value), Some(1));
}
