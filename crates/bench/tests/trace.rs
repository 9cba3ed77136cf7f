//! The telemetry conservation law, property-tested: the deterministic
//! section of a run trace — span call counts, counters, series — must be
//! conserved *exactly* under sharding. Whatever shard split the presets
//! are fused in, merging the shard reports reassembles a combined trace
//! identical to the single-process run's, because every method's trace
//! derives only from the corpus and its own configuration (the
//! determinism ledger), never from which process happened to host it.
//! The grouping job all presets share is the process's to record, so it
//! stays in each shard's own process-level trace and a merge leaves it
//! out.

use kf_bench::{dist_task_specs, options_for_task, run_on_corpus, task_runner, ReproOptions};
use kf_eval::{merge_reports, EvalReport, Preset};
use kf_synth::{Corpus, SynthConfig};
use kf_telemetry::{SpanNode, TraceReport};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

/// The strategy space is small (seed × shard count) while the vendored
/// `proptest!` always draws 100 cases; skipping repeats keeps the test
/// a property test without fusing the same corpus split twice.
fn first_visit(seed: u64, n_shards: usize) -> bool {
    static SEEN: OnceLock<Mutex<HashSet<(u64, usize)>>> = OnceLock::new();
    SEEN.get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap()
        .insert((seed, n_shards))
}

fn options(seed: u64) -> ReproOptions {
    ReproOptions {
        scale: "tiny".into(),
        seed,
        out: None,
        workers: Some(2),
        deterministic: true,
        ..Default::default()
    }
}

/// `run_on_corpus` under a process-level trace: the report and that trace,
/// its wall-clock quarantined.
fn traced_run(opts: &ReproOptions, corpus: &Corpus) -> (EvalReport, TraceReport) {
    let process = kf_telemetry::Trace::new();
    let report = {
        let _installed = kf_telemetry::install(&process);
        run_on_corpus(opts, corpus)
    };
    let mut process = process.snapshot();
    process.quarantine_timings();
    (report, process)
}

/// Every span named `name` in the tree under `node`, `node` included.
fn spans_named<'a>(node: &'a SpanNode, name: &str, found: &mut Vec<&'a SpanNode>) {
    if node.name == name {
        found.push(node);
    }
    for child in &node.children {
        spans_named(child, name, found);
    }
}

fn counter(trace: &TraceReport, name: &str) -> Option<u64> {
    let found = trace.counters.iter().find(|c| c.name == name);
    found.map(|c| c.value)
}

/// One `run_on_corpus` shuffles the extractions once, before the presets
/// fan out, and records that job once, where it ran: the process-level
/// trace holds the one `group` subtree (under `support_index`, beside the
/// `truth_joins`) with its `mr.*` counters, one `label` span, in which
/// the claim slots were labelled against the gold standard for every
/// preset at once, and one `project` span, in which the graphs of the two
/// granularities the five presets span were projected side by side. The
/// support index and the summary counts read the same claims. No method
/// trace has a `group` span, and no method's report section can tell what
/// it shared: each is byte-equal to the same preset run alone, exactly as
/// a `kf-dist` worker would run it from a task spec.
#[test]
fn the_one_shuffle_is_counted_once_and_invisible_in_method_sections() {
    let opts = options(3);
    let corpus = Corpus::generate(&SynthConfig::tiny(), opts.seed);
    let (shared, process) = traced_run(&opts, &corpus);
    assert_eq!(counter(&process, "mr.jobs"), Some(1));
    assert_eq!(
        counter(&process, "mr.map_input"),
        Some(corpus.batch.len() as u64)
    );
    let spans = process.root.children.iter();
    let spans: Vec<_> = spans.map(|s| (s.name.as_str(), s.calls)).collect();
    assert_eq!(spans, [("support_index", 1), ("label", 1), ("project", 1)]);
    let mut groups = Vec::new();
    spans_named(&process.root, "group", &mut groups);
    assert_eq!(groups.len(), 1);
    assert_eq!(groups[0].calls, 1);
    // Beside the grouping job, `support_index` holds the truth joins,
    // each recorded once where it ran; the support index is a handle on
    // the claims and builds nothing.
    let support = &process.root.children[0];
    assert_eq!(support.children[0], *groups[0]);
    let children = support.children.iter();
    let children: Vec<_> = children.map(|s| (s.name.as_str(), s.calls)).collect();
    assert_eq!(children, [("group", 1), ("truth_joins", 1)]);

    // The whole-run trace sees one job, the claims build: the diagnosis
    // passes fold in place. It sets no quota, so it is one wave — a ramp
    // would count about log2(inputs) waves.
    let mut run = process.clone();
    for m in &shared.methods {
        run.absorb(&m.name, m.trace.as_ref().expect("method trace"));
    }
    assert_eq!(counter(&run, "mr.jobs"), Some(1));
    assert_eq!(counter(&run, "mr.waves"), Some(1));
    // Each preset derived one support profile per false positive it
    // classified, and recorded that on its own trace.
    let classified: u64 = shared
        .methods
        .iter()
        .map(|m| m.taxonomy.as_ref().unwrap().n_false_positives)
        .sum();
    assert!(classified > 0);
    assert_eq!(counter(&process, "diagnose.profiles"), None);
    assert_eq!(counter(&run, "diagnose.profiles"), Some(classified));

    assert_eq!(shared.methods.len(), Preset::ALL.len());
    // The task table is costliest-first; a task's section is the method
    // named after its preset.
    for spec in &dist_task_specs(&opts) {
        let method = shared.methods.iter().find(|m| m.name == spec.preset);
        let method = method.expect("every task's preset is in the report");
        let alone = run_on_corpus(&options_for_task(spec).unwrap(), &corpus);
        let section = EvalReport {
            corpus: shared.corpus.clone(),
            methods: vec![method.clone()],
        };
        assert_eq!(
            section.to_json_string(),
            alone.to_json_string(),
            "{}: section depends on graph sharing",
            method.name
        );
        let trace = method.trace.as_ref().expect("method trace");
        let mut groups = Vec::new();
        spans_named(&trace.root, "group", &mut groups);
        assert!(
            groups.is_empty(),
            "{}: a method records a group",
            method.name
        );
        // Fusion rounds are kernels over the claim graph and diagnosis is
        // a fold: a method's trace holds no shuffle and no job counter.
        let paths = trace.flat_timings();
        let shuffles = paths
            .iter()
            .any(|(path, _)| path.split('/').any(|s| s == "shuffle"));
        assert!(!shuffles, "{}: a method shuffles", method.name);
        let mr = trace.counters.iter().find(|c| c.name.starts_with("mr."));
        assert!(mr.is_none(), "{}: a method counts {mr:?}", method.name);
    }
}

/// A `kf-dist` worker's runner groups and labels its shipped corpus once
/// per connection, whether or not its tasks diagnose: five
/// `--no-diagnose` tasks run one grouping job and one label pass between
/// them, and each task's report is the one its preset run alone writes.
#[test]
fn a_task_runner_groups_and_labels_once_per_connection() {
    let opts = ReproOptions {
        diagnose: false,
        ..options(3)
    };
    let corpus = Corpus::generate(&SynthConfig::tiny(), opts.seed);
    let specs = dist_task_specs(&opts);
    assert_eq!(specs.len(), 5);
    let process = kf_telemetry::Trace::new();
    let reports: Vec<EvalReport> = {
        let _installed = kf_telemetry::install(&process);
        let mut run_task = task_runner();
        let run = |spec| run_task(&corpus, spec).expect("task runs");
        specs.iter().map(run).collect()
    };
    let process = process.snapshot();
    assert_eq!(counter(&process, "mr.jobs"), Some(1));
    let mut labels = Vec::new();
    spans_named(&process.root, "label", &mut labels);
    assert_eq!(labels.iter().map(|s| s.calls).sum::<u64>(), 1);
    for (spec, report) in specs.iter().zip(&reports) {
        let alone = run_on_corpus(&options_for_task(spec).unwrap(), &corpus);
        assert_eq!(report.to_json_string(), alone.to_json_string());
    }
}

/// The phase table adds up: in a timed run, the children of every span —
/// of the process-level trace and of each method's — sum to no more than
/// the span itself, so every nanosecond a span reports happened inside it.
#[test]
fn every_span_covers_its_children_in_a_timed_run() {
    fn check(node: &SpanNode, path: &str) {
        let path = format!("{path}/{}", node.name);
        let children: u64 = node.children.iter().map(|c| c.total_ns).sum();
        assert!(
            children <= node.total_ns,
            "{path}: children sum to {children} ns, the span to {} ns",
            node.total_ns
        );
        for child in &node.children {
            check(child, &path);
        }
    }
    let corpus = Corpus::generate(&SynthConfig::tiny(), 3);
    for workers in [1, 2] {
        let opts = ReproOptions {
            workers: Some(workers),
            deterministic: false,
            ..options(3)
        };
        let process = kf_telemetry::Trace::new();
        let report = {
            let _installed = kf_telemetry::install(&process);
            run_on_corpus(&opts, &corpus)
        };
        check(&process.snapshot().root, &format!("{workers} workers: "));
        for m in &report.methods {
            let trace = m.trace.as_ref().expect("method trace");
            check(&trace.root, &format!("{workers} workers: {}", m.name));
        }
    }
}

/// `workers` is how many threads a run may keep busy, never what it
/// computes: the deterministic report and the process-level trace are
/// byte-equal whatever the budget — one thread and no fan-out at all, two
/// (twice: which thread took which preset differs from run to run), more
/// threads than presets.
#[test]
fn the_report_and_the_process_trace_do_not_depend_on_the_worker_budget() {
    let corpus = Corpus::generate(&SynthConfig::tiny(), 3);
    let run = |workers| {
        let opts = ReproOptions {
            workers: Some(workers),
            ..options(3)
        };
        let (report, process) = traced_run(&opts, &corpus);
        (report.to_json_string(), process)
    };
    let sequential = run(1);
    for workers in [2, 2, 3, 8] {
        let fanned_out = run(workers);
        assert!(fanned_out.0 == sequential.0, "{workers} workers: report");
        assert_eq!(fanned_out.1, sequential.1, "{workers} workers: trace");
    }
}

proptest! {
    #[test]
    fn deterministic_trace_conserves_across_shard_merge(
        seed in 0u64..6,
        n_shards in 1usize..=3,
    ) {
        if first_visit(seed, n_shards) {
            let corpus = Corpus::generate(&SynthConfig::tiny(), seed);

            // Single-process reference.
            let single = run_on_corpus(&options(seed), &corpus);

            // The same presets fused shard by shard — contiguous slices of
            // the report order, a split no fan-out uses — then merged. Each
            // shard groups the corpus once and records that job in its own
            // process-level trace.
            let per_shard = Preset::ALL.len().div_ceil(n_shards);
            let mut shards = Vec::new();
            for slice in Preset::ALL.chunks(per_shard) {
                let mut opts = options(seed);
                opts.presets = slice.to_vec();
                let (shard, process) = traced_run(&opts, &corpus);
                prop_assert_eq!(counter(&process, "mr.jobs"), Some(1));
                shards.push(shard);
            }
            let merged = merge_reports(shards).unwrap();

            // Per-method traces are conserved verbatim...
            prop_assert_eq!(single.methods.len(), merged.methods.len());
            for a in &single.methods {
                let b = merged.methods.iter().find(|b| b.name == a.name);
                prop_assert!(b.is_some(), "{} missing from the merge", a.name);
                prop_assert!(a.trace.is_some(), "{} lost its trace", a.name);
                prop_assert_eq!(&a.trace, &b.unwrap().trace, "{} trace drifted", a.name);
            }

            // ...and so is the combined whole-run trace (counters added,
            // series concatenated in ablation order, span calls unified).
            let single_trace = single.combined_trace().expect("combined trace");
            let merged_trace = merged.combined_trace().expect("combined trace");
            prop_assert_eq!(&single_trace, &merged_trace);

            // What a merge cannot reassemble is what no shard report
            // carries: the shards' process-level records. The merged trace
            // has no `group` span and no MapReduce counter — the grouping
            // job is the only one a run has.
            let mut groups = Vec::new();
            spans_named(&merged_trace.root, "group", &mut groups);
            prop_assert!(groups.is_empty(), "a merged trace records a group");
            let mr = merged_trace.counters.iter().find(|c| c.name.starts_with("mr."));
            prop_assert!(mr.is_none(), "a merged trace counts {:?}", mr);
        }
    }

    /// Serving quantile math: per-client latency histograms merged
    /// bucket-wise must report every quantile within one bucket's
    /// relative error (`2^-SUB_BUCKET_BITS`) of the exact pooled-sort
    /// answer — over lumpy, multi-octave latency shapes and uneven
    /// client splits.
    #[test]
    fn merged_client_histograms_agree_with_pooled_sort(
        seed in 0u64..1_000,
        clients in 1usize..=8,
    ) {
        use kf_telemetry::{HistKind, HistogramSnapshot, SUB_BUCKET_BITS};

        // Deterministic lumpy latencies: a fast mode, a slow mode and a
        // heavy tail, like a serving profile.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let samples: Vec<u64> = (0..4_000)
            .map(|_| {
                let r = next();
                match r % 10 {
                    0..=6 => 200 + r % 800,
                    7..=8 => 20_000 + r % 30_000,
                    _ => 1_000_000 + r % 9_000_000,
                }
            })
            .collect();

        // Split across clients (equal budgets, remainder dropped),
        // record per-client, merge.
        let per_client = samples.len() / clients;
        let mut pooled = HistogramSnapshot::empty("lat", HistKind::Time);
        for c in 0..clients {
            let mut h = HistogramSnapshot::empty("lat", HistKind::Time);
            for &v in &samples[c * per_client..(c + 1) * per_client] {
                h.record(v);
            }
            pooled.merge(&h);
        }

        let mut exact: Vec<u64> = samples[..clients * per_client].to_vec();
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
            let rank = ((exact.len() as f64 * q) as usize).min(exact.len() - 1);
            let want = exact[rank];
            let got = pooled.quantile(q);
            prop_assert!(got >= want, "q{q}: histogram {got} under exact {want}");
            prop_assert!(
                got - want <= want >> SUB_BUCKET_BITS,
                "q{q}: histogram {got} beyond one bucket above exact {want}"
            );
        }
    }
}
