//! End-to-end coordinator/worker tests over localhost TCP: clean runs,
//! injected worker death (kill), hung workers (mute), task failure
//! retry, version-skew rejection, the no-workers timeout, and peers that
//! break the protocol, speak for tasks they no longer hold or that do not
//! exist, or stop reading.
//!
//! The invariant every fault scenario pins: the merged report is
//! byte-identical to the reference single-process report, no matter
//! which worker died when.

use kf_core::{Claims, Fuser};
use kf_dist::{run_worker, Coordinator, CoordinatorConfig, DistError, FailSpec, WorkerConfig};
use kf_eval::{merge_reports, AblationRunner, EvalReport, Preset};
use kf_mapreduce::MrConfig;
use kf_synth::{Corpus, SynthConfig};
use kf_types::checkpoint::{self, ArtifactKind};
use kf_types::wire::{self, TaskSpec, WireMsg, PROTOCOL_VERSION};
use kf_types::FORMAT_VERSION;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

fn tiny_corpus() -> Corpus {
    Corpus::generate(&SynthConfig::tiny(), 11)
}

fn ablation() -> AblationRunner {
    AblationRunner {
        n_bins: 10,
        workers: Some(2),
        scale: "tiny".into(),
        ..Default::default()
    }
}

/// One task per preset, in report order: the coordinator dispatches
/// whatever table it is given (`repro`'s is costliest-first), and the
/// merge restores report order either way.
fn task_specs() -> Vec<TaskSpec> {
    Preset::ALL
        .iter()
        .enumerate()
        .map(|(i, p)| TaskSpec {
            task_id: i as u32,
            preset: p.name().to_string(),
            scale: "tiny".into(),
            bins: 10,
            workers: 2,
            diagnose: false,
            deterministic: true,
        })
        .collect()
}

/// The worker-side task runner: group and label the corpus, fuse the
/// task's preset through the shared step, quarantine timings (the tasks say
/// `deterministic`).
fn run_task(corpus: &Corpus, spec: &TaskSpec) -> Result<EvalReport, String> {
    let runner = ablation();
    let preset =
        Preset::by_name(&spec.preset).ok_or_else(|| format!("unknown preset {}", spec.preset))?;
    let claims = Claims::build(&corpus.batch.records, &MrConfig::with_workers(2));
    let labels = claims.table().labels(&corpus.gold);
    let mut report = EvalReport {
        corpus: runner.claims_summary(corpus, &claims, &labels),
        methods: vec![runner.fuse_preset(preset, &claims, &labels).2],
    };
    report.quarantine_timings();
    Ok(report)
}

/// The single-process reference the distributed merge must reproduce,
/// fused and summarised from the records independently of the step the
/// workers run.
fn reference_report(corpus: &Corpus) -> EvalReport {
    let runner = ablation();
    let methods = Preset::ALL.into_iter().map(|preset| {
        let gold = preset.needs_gold().then_some(&corpus.gold);
        let output = Fuser::new(runner.config(preset)).run(&corpus.batch, gold);
        runner.evaluate(preset, &output, &corpus.gold, 0.0)
    });
    let mut report = EvalReport {
        corpus: runner.corpus_summary(corpus),
        methods: methods.collect(),
    };
    report.quarantine_timings();
    report
}

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

/// Run the coordinator under a fresh trace: the merged report, and a
/// reader of that trace's counters.
fn run_traced(coordinator: Coordinator) -> (Result<EvalReport, DistError>, impl Fn(&str) -> u64) {
    let trace = kf_telemetry::Trace::new();
    let merged = {
        let _installed = kf_telemetry::install(&trace);
        coordinator.run_merged()
    };
    let report = trace.snapshot();
    let counter = move |name: &str| {
        report
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    (merged, counter)
}

/// [`run_traced`] on a thread of its own, for tests that drive a peer by
/// hand while the run is under way.
fn spawn_coordinator(
    coordinator: Coordinator,
) -> std::thread::JoinHandle<(Result<EvalReport, DistError>, impl Fn(&str) -> u64)> {
    std::thread::spawn(move || run_traced(coordinator))
}

fn spawn_worker(addr: &str, name: &str) -> std::thread::JoinHandle<Result<(), DistError>> {
    let config = WorkerConfig::new(addr, name);
    std::thread::spawn(move || run_worker(&config, run_task))
}

/// A hand-driven peer: connect and register like a worker, returning the
/// socket just after the corpus frame.
fn register_by_hand(addr: &str, name: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let hello = WireMsg::Hello {
        protocol: PROTOCOL_VERSION,
        format: FORMAT_VERSION,
        worker: name.into(),
    };
    wire::write_frame(&mut stream, &hello).expect("send hello");
    for expected in ["welcome", "corpus"] {
        let (msg, _) = wire::read_frame(&mut stream).expect("read registration reply");
        assert_eq!(msg.name(), expected);
    }
    stream
}

fn bind_coordinator(corpus: &Corpus, config: CoordinatorConfig) -> (Coordinator, String) {
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        task_specs(),
        checkpoint::encode(ArtifactKind::Corpus, corpus),
        config,
    )
    .expect("bind");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    (coordinator, addr)
}

#[test]
fn distributed_run_matches_single_process_report() {
    let corpus = tiny_corpus();
    let (coordinator, addr) = bind_coordinator(&corpus, test_config());
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                run_worker(&WorkerConfig::new(addr, format!("w{i}")), run_task)
            })
        })
        .collect();
    let merged = coordinator.run_merged().expect("distributed run");
    for w in workers {
        w.join().unwrap().expect("worker exits cleanly");
    }
    assert_eq!(
        merged.to_json_string(),
        reference_report(&corpus).to_json_string(),
        "merged distributed report must be byte-identical to the single-process run"
    );
}

#[test]
fn killed_worker_shard_is_redispatched_to_survivor() {
    let corpus = tiny_corpus();
    let (coordinator, addr) = bind_coordinator(&corpus, test_config());
    // Frames at the victim: hello(1) welcome(2) corpus(3) task(4) —
    // it dies the moment its first task arrives, before running it.
    let victim = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut config = WorkerConfig::new(addr, "victim");
            config.fail = Some(FailSpec::parse("victim:4:kill").unwrap());
            run_worker(&config, run_task)
        })
    };
    let survivor = {
        let addr = addr.clone();
        std::thread::spawn(move || run_worker(&WorkerConfig::new(addr, "survivor"), run_task))
    };
    let merged = coordinator
        .run_merged()
        .expect("run survives a worker kill");
    assert!(
        matches!(victim.join().unwrap(), Err(DistError::Injected)),
        "victim must report the injected kill"
    );
    survivor.join().unwrap().expect("survivor exits cleanly");
    assert_eq!(
        merged.to_json_string(),
        reference_report(&corpus).to_json_string()
    );
}

#[test]
fn mute_worker_is_timed_out_and_its_late_result_suppressed() {
    let corpus = tiny_corpus();
    let (coordinator, addr) = bind_coordinator(&corpus, test_config());
    // The mute worker stops heartbeating when its first task arrives
    // and then takes much longer than the heartbeat timeout, so the
    // coordinator re-dispatches; its eventual completion exercises the
    // first-wins/duplicate path.
    let mute = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut config = WorkerConfig::new(addr, "mute");
            config.fail = Some(FailSpec::parse("mute:4:mute").unwrap());
            run_worker(&config, |corpus, spec| {
                std::thread::sleep(Duration::from_millis(500));
                run_task(corpus, spec)
            })
        })
    };
    let fast = {
        let addr = addr.clone();
        std::thread::spawn(move || run_worker(&WorkerConfig::new(addr, "fast"), run_task))
    };
    // Run under a trace so the completion accounting is checkable: every
    // task completes exactly once; replicas land in the duplicate
    // counter, never in completed.
    let (merged, counter) = run_traced(coordinator);
    let merged = merged.expect("run survives a hung worker");
    let _ = mute.join().unwrap(); // exits Ok (late shutdown) or with a broken pipe
    fast.join().unwrap().expect("fast worker exits cleanly");
    assert_eq!(
        counter("dist.task.completed"),
        Preset::ALL.len() as u64,
        "each task completes exactly once; replicas are suppressed"
    );
    assert!(counter("dist.worker.lost") >= 1, "mute worker must be lost");
    assert_eq!(
        merged.to_json_string(),
        reference_report(&corpus).to_json_string()
    );
}

#[test]
fn failing_task_is_retried_until_a_worker_succeeds() {
    let corpus = tiny_corpus();
    let (coordinator, addr) = bind_coordinator(&corpus, test_config());
    // This worker fails its first task (the coordinator re-queues it
    // with backoff) and succeeds afterwards.
    let flaky = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut failed_once = false;
            run_worker(&WorkerConfig::new(addr, "flaky"), move |corpus, spec| {
                if !failed_once {
                    failed_once = true;
                    return Err("injected first-task failure".into());
                }
                run_task(corpus, spec)
            })
        })
    };
    let steady = {
        let addr = addr.clone();
        std::thread::spawn(move || run_worker(&WorkerConfig::new(addr, "steady"), run_task))
    };
    let merged = coordinator
        .run_merged()
        .expect("run survives task failures");
    flaky.join().unwrap().expect("flaky worker exits cleanly");
    steady.join().unwrap().expect("steady worker exits cleanly");
    assert_eq!(
        merged.to_json_string(),
        reference_report(&corpus).to_json_string()
    );
}

#[test]
fn version_skew_is_rejected_at_the_handshake() {
    let corpus = tiny_corpus();
    let (coordinator, addr) = bind_coordinator(&corpus, test_config());
    // A build from before the one-preset `TaskSpec` (protocol 1) and one
    // from the future.
    assert_eq!(PROTOCOL_VERSION, 2);
    let skewed: Vec<_> = [1, PROTOCOL_VERSION + 1]
        .into_iter()
        .map(|protocol| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let hello = WireMsg::Hello {
                    protocol,
                    format: FORMAT_VERSION,
                    worker: "stale-build".into(),
                };
                wire::write_frame(&mut stream, &hello).expect("send hello");
                match wire::read_frame(&mut stream).expect("read reply").0 {
                    WireMsg::Reject { reason } => reason,
                    other => panic!("expected reject, got {}", other.name()),
                }
            })
        })
        .collect();
    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || run_worker(&WorkerConfig::new(addr, "current"), run_task))
    };
    let merged = coordinator.run_merged().expect("run completes");
    for skewed in skewed {
        let reason = skewed.join().unwrap();
        assert!(reason.contains("version skew"), "{reason}");
    }
    worker
        .join()
        .unwrap()
        .expect("current worker exits cleanly");
    assert_eq!(merged.methods.len(), Preset::ALL.len());
}

#[test]
fn run_without_workers_hits_the_idle_timeout() {
    let corpus = tiny_corpus();
    let mut config = test_config();
    config.idle_timeout = Duration::from_millis(200);
    let (coordinator, addr) = bind_coordinator(&corpus, config);
    match coordinator.run() {
        Err(DistError::NoWorkers) => {}
        other => panic!("expected NoWorkers, got {other:?}"),
    }
    // The acceptor owned the listener; it was joined, so the port is free.
    TcpListener::bind(addr.as_str()).expect("a failed run releases its port");
}

#[test]
fn frames_before_registration_drop_the_connection() {
    let corpus = tiny_corpus();
    let (coordinator, addr) = bind_coordinator(&corpus, test_config());
    let run = spawn_coordinator(coordinator);
    // A peer that never says Hello claims task 0 with a well-formed report
    // — of another corpus, so accepting it could not go unnoticed — and is
    // hung up on. Only then do the workers start: the claim arrived while
    // every task was pending.
    let mut rogue = TcpStream::connect(&addr).expect("connect");
    let foreign = run_task(
        &Corpus::generate(&SynthConfig::tiny(), 12),
        &task_specs()[0],
    )
    .unwrap();
    let claim = WireMsg::TaskDone {
        task_id: 0,
        report: checkpoint::encode(ArtifactKind::Report, &foreign),
    };
    wire::write_frame(&mut rogue, &claim).expect("send claim");
    let mut rest = Vec::new();
    let _ = rogue.read_to_end(&mut rest);
    assert!(rest.is_empty(), "an unregistered peer is told nothing");

    let workers = [spawn_worker(&addr, "w0"), spawn_worker(&addr, "w1")];
    let (merged, counter) = run.join().unwrap();
    for w in workers {
        w.join().unwrap().expect("worker exits cleanly");
    }
    assert_eq!(counter("dist.rpc.protocol_error"), 1);
    assert_eq!(counter("dist.conn.unregistered"), 1);
    assert_eq!(counter("dist.task.completed"), Preset::ALL.len() as u64);
    assert_eq!(
        merged.expect("run completes").to_json_string(),
        reference_report(&corpus).to_json_string()
    );
}

#[test]
fn task_failed_from_a_worker_that_lost_the_task_is_ignored() {
    let corpus = tiny_corpus();
    let (coordinator, addr) = bind_coordinator(&corpus, test_config());
    let run = spawn_coordinator(coordinator);
    // The ghost registers, is handed the first task and goes silent, so it
    // is declared lost and the task goes to the other worker.
    let mut ghost = register_by_hand(&addr, "ghost");
    let held = match wire::read_frame(&mut ghost).expect("read task").0 {
        WireMsg::Task { spec } => spec.task_id,
        other => panic!("expected a task, got {}", other.name()),
    };
    // That worker says when it starts the ghost's task and holds it
    // (Running, on its ledger) until released.
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = {
        let config = WorkerConfig::new(addr.clone(), "holder");
        std::thread::spawn(move || {
            run_worker(&config, move |corpus, spec| {
                if spec.task_id == held {
                    started_tx.send(()).expect("test is listening");
                    release_rx.recv().expect("test releases the task");
                }
                run_task(corpus, spec)
            })
        })
    };
    started_rx
        .recv()
        .expect("the ghost's task reaches the holder");
    // Now the ghost reports the task failed. The coordinator handles a
    // connection's frames in order, so once it has hung up on the echoed
    // Welcome that follows (a protocol violation) the failure report has
    // been dealt with.
    let failed = WireMsg::TaskFailed {
        task_id: held,
        error: "late".into(),
    };
    wire::write_frame(&mut ghost, &failed).expect("send failure");
    let echo = WireMsg::Welcome {
        worker_id: 0,
        heartbeat_interval_ms: 1,
    };
    wire::write_frame(&mut ghost, &echo).expect("send violation");
    let _ = ghost.read_to_end(&mut Vec::new());
    release_tx.send(()).expect("holder is waiting");

    let (merged, counter) = run.join().unwrap();
    holder.join().unwrap().expect("holder exits cleanly");
    // One dispatch per task plus the one re-dispatch after the loss: the
    // ghost's report neither re-queued the task under its holder nor made
    // it run twice.
    assert_eq!(counter("dist.task.redispatched"), 1);
    assert_eq!(
        counter("dist.task.dispatched"),
        Preset::ALL.len() as u64 + 1
    );
    assert_eq!(counter("dist.task.duplicate"), 0);
    assert_eq!(counter("dist.task.failed"), 0);
    assert_eq!(
        merged.expect("run completes").to_json_string(),
        reference_report(&corpus).to_json_string()
    );
}

#[test]
fn out_of_range_task_id_is_ignored_or_dropped() {
    let corpus = tiny_corpus();
    let (coordinator, addr) = bind_coordinator(&corpus, test_config());
    let run = spawn_coordinator(coordinator);
    // The only worker so far, the peer is handed the first task. It then
    // speaks for the task one past the end of the table: a failure, which
    // is ignored, and a well-formed completion, which drops it. No real
    // worker exists yet, so the run cannot be what ends the connection.
    let mut peer = register_by_hand(&addr, "out-of-range");
    let (task, _) = wire::read_frame(&mut peer).expect("read task");
    assert_eq!(task.name(), "task");
    let task_id = task_specs().len() as u32;
    let failed = WireMsg::TaskFailed {
        task_id,
        error: "no such task".into(),
    };
    wire::write_frame(&mut peer, &failed).expect("send failure");
    let report = run_task(&corpus, &task_specs()[0]).unwrap();
    let done = WireMsg::TaskDone {
        task_id,
        report: checkpoint::encode(ArtifactKind::Report, &report),
    };
    wire::write_frame(&mut peer, &done).expect("send completion");
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let mut rest = Vec::new();
    peer.read_to_end(&mut rest)
        .expect("the completion drops the connection");
    assert!(rest.is_empty(), "nothing follows the first task");

    let workers = [spawn_worker(&addr, "w0"), spawn_worker(&addr, "w1")];
    let (merged, counter) = run.join().unwrap();
    for w in workers {
        w.join().unwrap().expect("worker exits cleanly");
    }
    assert_eq!(counter("dist.task.failed"), 0);
    assert_eq!(counter("dist.rpc.protocol_error"), 0);
    assert_eq!(counter("dist.worker.lost"), 1);
    // The peer's task ran once more, elsewhere; nothing completed twice.
    assert_eq!(counter("dist.task.redispatched"), 1);
    assert_eq!(counter("dist.task.duplicate"), 0);
    assert_eq!(counter("dist.task.completed"), Preset::ALL.len() as u64);
    assert_eq!(
        merged.expect("run completes").to_json_string(),
        reference_report(&corpus).to_json_string()
    );
}

#[test]
fn lost_workers_task_is_redispatched_without_backoff() {
    let corpus = tiny_corpus();
    let mut config = test_config();
    // Failures would wait this out; a loss must not.
    config.redispatch_backoff = Duration::from_secs(10);
    let (coordinator, addr) = bind_coordinator(&corpus, config);
    let start = Instant::now();
    let run = spawn_coordinator(coordinator);
    // The victim dies the moment its first task arrives, holding it.
    let victim = {
        let mut config = WorkerConfig::new(addr.clone(), "victim");
        config.fail = Some(FailSpec::parse("victim:4:kill").unwrap());
        std::thread::spawn(move || run_worker(&config, run_task))
    };
    let survivor = spawn_worker(&addr, "survivor");
    let (merged, counter) = run.join().unwrap();
    let elapsed = start.elapsed();
    assert!(matches!(victim.join().unwrap(), Err(DistError::Injected)));
    survivor.join().unwrap().expect("survivor exits cleanly");
    assert_eq!(counter("dist.task.redispatched"), 1);
    assert!(
        elapsed < Duration::from_secs(5),
        "the orphaned task waited out the failure back-off: {elapsed:?}"
    );
    assert_eq!(
        merged.expect("run completes").to_json_string(),
        reference_report(&corpus).to_json_string()
    );
}

#[test]
fn stalled_peer_stalls_nobody() {
    // A display name of 16 MiB makes the corpus frame larger than any
    // socket buffer, so a peer that never reads blocks the write to it.
    let mut corpus = tiny_corpus();
    corpus.extractors[0].name = "x".repeat(16 << 20);
    let config = test_config();
    let write_timeout = config.heartbeat_timeout;
    let (coordinator, addr) = bind_coordinator(&corpus, config);
    let run = spawn_coordinator(coordinator);
    let mut stalled = TcpStream::connect(&addr).expect("connect");
    let hello = WireMsg::Hello {
        protocol: PROTOCOL_VERSION,
        format: FORMAT_VERSION,
        worker: "stalled".into(),
    };
    wire::write_frame(&mut stalled, &hello).expect("send hello");
    // Two real workers whose first task each outlasts the write timeout
    // (a write that stops making progress is given up after at most two),
    // so the stalled connection is dropped mid-run, not by the teardown.
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let config = WorkerConfig::new(addr.clone(), format!("w{i}"));
            std::thread::spawn(move || {
                let mut first = true;
                run_worker(&config, move |corpus, spec| {
                    if std::mem::take(&mut first) {
                        std::thread::sleep(write_timeout * 4);
                    }
                    run_task(corpus, spec)
                })
            })
        })
        .collect();
    let (merged, counter) = run.join().unwrap();
    for w in workers {
        w.join().unwrap().expect("worker exits cleanly");
    }
    assert_eq!(counter("dist.worker.registered"), 2);
    assert_eq!(counter("dist.conn.unregistered"), 1, "dropped mid-run");
    assert_eq!(counter("dist.corpus.frame_encodes"), 1);
    assert_eq!(
        merged.expect("run completes").to_json_string(),
        reference_report(&corpus).to_json_string()
    );
    // What the coordinator wrote to the stalled peer: the Welcome, then a
    // corpus frame cut short — so no task can have followed it.
    let (welcome, _) = wire::read_frame(&mut stalled).expect("read welcome");
    assert_eq!(welcome.name(), "welcome");
    let mut prefix = [0u8; 4];
    stalled.read_exact(&mut prefix).expect("read frame prefix");
    let mut rest = Vec::new();
    let _ = stalled.read_to_end(&mut rest);
    assert!(rest.len() < u32::from_le_bytes(prefix) as usize);
    // Every thread of the run was joined, the acceptor (which owned the
    // listener) among them: the port can be bound again.
    TcpListener::bind(addr.as_str()).expect("a finished run releases its port");
}

#[test]
fn corpus_frame_is_encoded_once_whatever_the_worker_count() {
    let corpus = tiny_corpus();
    for n in 1..=3u64 {
        let (coordinator, addr) = bind_coordinator(&corpus, test_config());
        let run = spawn_coordinator(coordinator);
        // Every worker holds its first task until all of them have one, so
        // all n register however short the run.
        let all_busy = Arc::new(Barrier::new(n as usize));
        let peers: Vec<_> = (0..n)
            .map(|i| {
                let config = WorkerConfig::new(addr.clone(), format!("w{i}"));
                let all_busy = all_busy.clone();
                std::thread::spawn(move || {
                    let mut first = true;
                    run_worker(&config, move |corpus, spec| {
                        if std::mem::take(&mut first) {
                            all_busy.wait();
                        }
                        run_task(corpus, spec)
                    })
                })
            })
            .collect();
        let (merged, counter) = run.join().unwrap();
        for w in peers {
            w.join().unwrap().expect("worker exits cleanly");
        }
        merged.expect("run completes");
        assert_eq!(counter("dist.corpus.frame_encodes"), 1, "{n} workers");
        assert_eq!(counter("dist.worker.registered"), n);
        assert_eq!(counter("dist.rpc.protocol_error"), 0);
    }
}

#[test]
fn shard_reports_merge_like_the_offline_path() {
    // The coordinator's merge is literally kf_eval::merge_reports; a
    // direct merge of per-task reports equals the reference too, so
    // task order cannot matter.
    let corpus = tiny_corpus();
    let mut reports: Vec<EvalReport> = task_specs()
        .iter()
        .map(|spec| run_task(&corpus, spec).unwrap())
        .collect();
    reports.reverse();
    let merged = merge_reports(reports).expect("merge");
    assert_eq!(
        merged.to_json_string(),
        reference_report(&corpus).to_json_string()
    );
}
