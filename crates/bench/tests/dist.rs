//! The distributed acceptance tests: a coordinator/worker run over
//! localhost TCP — including one with a worker killed mid-job by the
//! `KF_DIST_FAIL` injection — must produce a `report.json`
//! **byte-identical** to the single-process `--deterministic` run.
//!
//! Three layers:
//! * library level, wiring `kf_dist` to the same `kf_bench` entry points
//!   the `repro` binary uses (context-cached diagnosis included);
//! * binary level, spawning actual `repro` processes rendezvousing
//!   through `--dist-addr-file`, one worker killed by `KF_DIST_FAIL`;
//! * property level, over (worker count × kill point): re-dispatch must
//!   conserve the deterministic trace section and never duplicate
//!   method-trace counter mass in the merge — including when a survivor
//!   serves several same-granularity tasks from one cached claim graph.

use kf_bench::{run_on_corpus, ReproOptions};
use kf_dist::{run_worker, Coordinator, CoordinatorConfig, FailSpec, WorkerConfig};
use kf_eval::{EvalReport, Preset};
use kf_synth::{Corpus, SynthConfig};
use kf_types::checkpoint::{self, ArtifactKind};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kf-bench-dist-{}-{name}", std::process::id()))
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

/// Coordinator timings tightened for tests: fast heartbeats so a killed
/// worker is declared lost in milliseconds, not seconds.
fn test_config() -> CoordinatorConfig {
    CoordinatorConfig {
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_timeout: Duration::from_millis(150),
        redispatch_backoff: Duration::from_millis(5),
        max_redispatch: 10,
        idle_timeout: Duration::from_secs(30),
        verbose: false,
    }
}

/// A worker thread answering tasks with the runner `repro --worker` uses
/// ([`kf_bench::task_runner`]: the corpus grouped and labelled, and the
/// diagnosis inputs joined, once per connection and shared across tasks).
fn spawn_worker(
    addr: String,
    name: &str,
    fail: Option<&str>,
) -> std::thread::JoinHandle<Result<(), kf_dist::DistError>> {
    let mut config = WorkerConfig::new(addr, name);
    config.fail = fail.map(|s| FailSpec::parse(s).expect("valid fail spec"));
    std::thread::spawn(move || run_worker(&config, kf_bench::task_runner()))
}

/// Run a full coordinator/worker round over `opts` on localhost.
fn distributed_run(
    opts: &ReproOptions,
    corpus: &Corpus,
    n_workers: usize,
    fail: Option<&str>,
) -> EvalReport {
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        kf_bench::dist_task_specs(opts),
        checkpoint::encode(ArtifactKind::Corpus, corpus),
        test_config(),
    )
    .expect("bind");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let workers: Vec<_> = (0..n_workers)
        .map(|i| {
            // The injected fault names `victim`; worker 0 carries it.
            let name = if i == 0 {
                "victim".into()
            } else {
                format!("w{i}")
            };
            spawn_worker(addr.clone(), &name, if i == 0 { fail } else { None })
        })
        .collect();
    let merged = coordinator.run_merged().expect("distributed run");
    for w in workers {
        // The victim is allowed to die (that is the point); everyone
        // else must exit cleanly.
        let _ = w.join().unwrap();
    }
    merged
}

#[test]
fn distributed_library_run_matches_single_process() {
    let opts = options();
    let corpus = Corpus::generate(&SynthConfig::tiny(), opts.seed);
    let single = run_on_corpus(&opts, &corpus);
    let merged = distributed_run(&opts, &corpus, 2, None);
    assert_eq!(
        merged.to_json_string(),
        single.to_json_string(),
        "distributed report.json must be byte-identical to the single-process run"
    );
}

/// Spawn the actual `repro` binary: coordinator plus three workers
/// rendezvousing through `--dist-addr-file`, with one worker killed by
/// `KF_DIST_FAIL` the moment its first task arrives — the same flow the
/// CI distributed-shuffle gate runs from the shell.
#[test]
fn repro_binary_distributed_run_survives_killed_worker() {
    use std::process::{Command, Stdio};

    let repro = env!("CARGO_BIN_EXE_repro");
    let corpus = tmp_path("corpus.kfc");
    let single = tmp_path("single.json");
    let dist = tmp_path("dist.json");
    let addr_file = tmp_path("addr.txt");
    std::fs::remove_file(&addr_file).ok();

    let ok = |out: std::process::Output, what: &str| {
        assert!(
            out.status.success(),
            "{what} failed:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        out
    };

    // Snapshot once; single-process deterministic reference.
    ok(
        Command::new(repro)
            .args(["--scale", "tiny", "--seed", "11"])
            .arg("--save-corpus")
            .arg(&corpus)
            .output()
            .expect("spawns"),
        "--save-corpus",
    );
    ok(
        Command::new(repro)
            .args(["--scale", "tiny", "--deterministic", "--corpus"])
            .arg(&corpus)
            .arg("--out")
            .arg(&single)
            .output()
            .expect("spawns"),
        "single-process run",
    );

    // Coordinator on an ephemeral port, address published via the file.
    let coordinator = Command::new(repro)
        .args(["--scale", "tiny", "--deterministic", "--corpus"])
        .arg(&corpus)
        .arg("--out")
        .arg(&dist)
        .args(["--serve-coordinator", "127.0.0.1:0", "--dist-addr-file"])
        .arg(&addr_file)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("coordinator spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&addr_file) {
            if !addr.is_empty() {
                break addr;
            }
        }
        assert!(
            Instant::now() < deadline,
            "coordinator never published its address"
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    // Three workers; `unlucky` dies on its first task frame (hello=1,
    // welcome=2, corpus=3, task=4 — heartbeats are not counted, so the
    // kill point is reproducible).
    let workers: Vec<_> = ["unlucky", "w1", "w2"]
        .iter()
        .map(|name| {
            let mut cmd = Command::new(repro);
            cmd.args(["--worker", addr.trim(), "--worker-name", name])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped());
            if *name == "unlucky" {
                cmd.env("KF_DIST_FAIL", "unlucky:4:kill");
            }
            (name, cmd.spawn().expect("worker spawns"))
        })
        .collect();

    let out = coordinator.wait_with_output().expect("coordinator exits");
    let coord_log = format!(
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.status.success(), "coordinator failed:\n{coord_log}");
    for (name, worker) in workers {
        let out = worker.wait_with_output().expect("worker exits");
        if *name == "unlucky" {
            assert!(
                !out.status.success(),
                "the killed worker must exit with the injected fault"
            );
        } else {
            assert!(
                out.status.success(),
                "worker {name} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
    // The coordinator's verbose narration must show the recovery.
    assert!(coord_log.contains("lost"), "no loss narrated:\n{coord_log}");

    let single_bytes = std::fs::read(&single).expect("single report");
    let dist_bytes = std::fs::read(&dist).expect("distributed report");
    assert_eq!(
        single_bytes, dist_bytes,
        "distributed report.json must be byte-identical to the single-process run\n{coord_log}"
    );

    for f in [&corpus, &single, &dist, &addr_file] {
        std::fs::remove_file(f).ok();
    }
}

/// Three-preset options for the property sweep. All three presets share
/// one granularity and diagnosis stays on, so a worker's per-connection
/// context holds one claim graph and every task after its first is served
/// from the cache.
fn prop_options() -> ReproOptions {
    ReproOptions {
        presets: vec![Preset::Vote, Preset::Accu, Preset::PopAccu],
        ..options()
    }
}

/// Reference single-process report for the property sweep, computed once:
/// its JSON projection and its total method-trace counter mass.
fn prop_reference() -> &'static (String, u64) {
    static REF: OnceLock<(String, u64)> = OnceLock::new();
    REF.get_or_init(|| {
        let opts = prop_options();
        let corpus = Corpus::generate(&SynthConfig::tiny(), opts.seed);
        let single = run_on_corpus(&opts, &corpus);
        let mass = counter_mass(&single);
        assert!(mass > 0, "tiny corpus fusion must record counters");
        // The single-process run shares its graph too (one build, two
        // reuses). A shared graph must weigh nothing in a method's trace:
        // the mass is that of three runs that each built their own.
        let alone: u64 = opts
            .presets
            .iter()
            .map(|&preset| {
                let one = ReproOptions {
                    presets: vec![preset],
                    ..opts.clone()
                };
                counter_mass(&run_on_corpus(&one, &corpus))
            })
            .sum();
        assert_eq!(mass, alone, "a cached graph changed the counter mass");
        (single.to_json_string(), mass)
    })
}

/// Total mass of every counter across all method traces — the quantity a
/// double-merged replica would inflate.
fn counter_mass(report: &EvalReport) -> u64 {
    report
        .methods
        .iter()
        .filter_map(|m| m.trace.as_ref())
        .flat_map(|t| &t.counters)
        .map(|c| c.value)
        .sum()
}

/// The strategy space is small while the vendored `proptest!` always
/// draws 100 cases; skipping repeats keeps each (workers, kill point)
/// cell fused exactly once.
fn first_visit(n_workers: usize, kill_at: u64) -> bool {
    static SEEN: OnceLock<Mutex<HashSet<(usize, u64)>>> = OnceLock::new();
    SEEN.get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap()
        .insert((n_workers, kill_at))
}

proptest! {
    /// Whatever the worker count and whenever the victim dies (frame 4
    /// is its first task; later points fall mid-stream or after its
    /// work), re-dispatch reassembles the exact single-process report:
    /// the deterministic trace section is conserved and method-trace
    /// counter mass is never duplicated — not by a replica completion,
    /// and not by a survivor serving several tasks from one cached graph.
    #[test]
    fn redispatch_conserves_trace_and_never_duplicates_mr_mass(
        n_workers in 2usize..=3,
        kill_at in 4u64..=7,
    ) {
        if first_visit(n_workers, kill_at) {
            let opts = prop_options();
            let corpus = Corpus::generate(&SynthConfig::tiny(), opts.seed);
            let (reference_json, reference_mass) = prop_reference();
            let fail = format!("victim:{kill_at}:kill");
            let merged = distributed_run(&opts, &corpus, n_workers, Some(&fail));
            prop_assert_eq!(
                counter_mass(&merged),
                *reference_mass,
                "a replica completion or a cached graph leaked into the merge"
            );
            prop_assert_eq!(
                &merged.to_json_string(),
                reference_json,
                "re-dispatch changed the merged bytes"
            );
        }
    }
}
