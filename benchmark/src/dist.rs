//! The `dist_small` batch phase: one coordinator plus in-process workers
//! over localhost TCP, with and without an injected worker kill.

use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::Tracer;
use kf_bench::ReproOptions;
use kf_dist::{run_worker, Coordinator, CoordinatorConfig, FailSpec, WorkerConfig};
use kf_eval::EvalReport;
use kf_synth::Corpus;
use kf_types::checkpoint::{self, ArtifactKind};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// The injected fault: the worker named `victim` dies after its third
/// protocol frame — it has just received the corpus and holds no task
/// yet, so every task it would have run is re-dispatched.
pub const KILL: &str = "victim:3:kill";

/// What one distributed iteration measured.
pub struct DistIteration {
    /// Bind → `run_merged` returns.
    pub wall_s: f64,
    pub merged: EvalReport,
    pub corpus_ship_bytes: u64,
    /// Seconds from iteration start to each runner call's start and end.
    pub tasks: Vec<(f64, f64)>,
}

impl DistIteration {
    pub fn task_s_sum(&self) -> f64 {
        self.tasks.iter().map(|(s, e)| e - s).sum()
    }

    pub fn task_s_max(&self) -> f64 {
        self.tasks.iter().map(|(s, e)| e - s).fold(0.0, f64::max)
    }

    /// Bind → first runner call.
    pub fn first_task_delay_s(&self) -> f64 {
        self.tasks.iter().map(|t| t.0).fold(f64::INFINITY, f64::min)
    }

    /// Last task done → `run_merged` returns.
    pub fn tail_s(&self) -> f64 {
        self.wall_s - self.tasks.iter().map(|t| t.1).fold(0.0, f64::max)
    }
}

/// One iteration: encode the corpus, bind, start `workers` in-process
/// worker threads (MapReduce `workers = 1` each, per `opts`) whose runner
/// is the closure `repro --worker` uses, and `run_merged`. With `kill`,
/// worker 0 is the [`KILL`] victim.
///
/// A worker leaves `run_worker` only after its heartbeat thread's next
/// wake-up — up to `heartbeat_interval` = 0.5 s after shutdown — which
/// `repro --serve-coordinator` never waits for. So the iteration's wall
/// ends when `run_merged` returns, and the worker threads are joined after
/// it, untimed, so that none lingers (holding its diagnosis context) into
/// the next iteration.
pub fn iteration(
    tracer: &Tracer,
    opts: &ReproOptions,
    corpus: &Corpus,
    workers: usize,
    kill: bool,
) -> DistIteration {
    let mut exited: Vec<JoinHandle<()>> = Vec::new();
    let tasks = Arc::new(Mutex::new(Vec::new()));
    let mut corpus_ship_bytes = 0;
    let label = if kill {
        "dist iteration (kill)"
    } else {
        "dist iteration"
    };
    let (merged, wall_s) = tracer.time("bench", label, || {
        let start = Instant::now();
        // Runner calls are caused by the dispatching `run_merged` call, so
        // its span is their parent: what remains as its self time is the
        // distribution overhead (handshake, ship, decode, polling, merge).
        let merged_span: Arc<OnceLock<Option<u32>>> = Arc::new(OnceLock::new());
        let (bytes, _) = tracer.time("types", "checkpoint::encode", || {
            checkpoint::encode(ArtifactKind::Corpus, corpus)
        });
        corpus_ship_bytes = bytes.len() as u64;
        let coordinator = Coordinator::bind(
            "127.0.0.1:0",
            kf_bench::dist_task_specs(opts),
            bytes,
            CoordinatorConfig::default(),
        )
        .expect("coordinator binds a localhost port");
        let addr = coordinator
            .local_addr()
            .expect("bound socket has an address")
            .to_string();
        for i in 0..workers {
            let name = if i == 0 {
                "victim".to_string()
            } else {
                format!("w{i}")
            };
            let mut config = WorkerConfig::new(addr.clone(), name);
            if kill {
                config.fail = Some(FailSpec::parse(KILL).expect("valid fail spec"));
            }
            let (tracer, tasks, merged_span) = (tracer.clone(), tasks.clone(), merged_span.clone());
            exited.push(std::thread::spawn(move || {
                let mut diagnosis = None;
                // The victim's injected death is the point; every other
                // failure surfaces as a coordinator error.
                let _ = run_worker(&config, |corpus, spec| {
                    let parent = merged_span.get().copied().flatten();
                    let (report, _) = tracer.time_under(parent, "bench", "runner call", || {
                        let from = start.elapsed().as_secs_f64();
                        let task_opts = kf_bench::options_for_task(spec)?;
                        let ctx = if task_opts.diagnose {
                            if diagnosis.is_none() {
                                diagnosis = kf_bench::build_diagnosis_context(&task_opts, corpus);
                            }
                            diagnosis.as_ref()
                        } else {
                            None
                        };
                        let report = kf_bench::run_on_corpus_with_context(&task_opts, corpus, ctx);
                        tasks
                            .lock()
                            .expect("task ledger poisoned")
                            .push((from, start.elapsed().as_secs_f64()));
                        Ok(report)
                    });
                    report
                });
            }));
        }
        let (merged, _) = tracer.time("dist", "Coordinator::run_merged", || {
            merged_span.get_or_init(|| tracer.current());
            coordinator.run_merged()
        });
        merged.expect("distributed run completes")
    });
    for worker in exited {
        worker.join().expect("dist worker thread panicked");
    }
    let tasks = tasks.lock().expect("task ledger poisoned").clone();
    DistIteration {
        wall_s,
        merged,
        corpus_ship_bytes,
        tasks,
    }
}

/// The `dist.*` layer metrics: medians over the clean and the kill
/// iterations, against the same tasks run serially in-process.
pub fn report(
    clean: &[DistIteration],
    kill: &[DistIteration],
    single_process_s: f64,
    workers: usize,
    out: &mut Metrics,
) {
    let med = |its: &[DistIteration], f: fn(&DistIteration) -> f64| {
        median(&its.iter().map(f).collect::<Vec<_>>())
    };
    let wall_s = med(clean, |it| it.wall_s);
    let kill_wall_s = med(kill, |it| it.wall_s);
    let task_s_sum = med(clean, DistIteration::task_s_sum);
    let task_s_max = med(clean, DistIteration::task_s_max);
    out.set("dist.wall_s", wall_s);
    out.set("dist.kill_wall_s", kill_wall_s);
    out.set("dist.corpus_ship_bytes", clean[0].corpus_ship_bytes as f64);
    out.set(
        "dist.first_task_delay_s",
        med(clean, DistIteration::first_task_delay_s),
    );
    out.set("dist.task_s_sum", task_s_sum);
    out.set("dist.task_s_max", task_s_max);
    out.set(
        "dist.runner_busy_ratio",
        task_s_sum / (workers as f64 * wall_s),
    );
    out.set("dist.tail_s", med(clean, DistIteration::tail_s));
    out.set("dist.single_process_s", single_process_s);
    out.set(
        "dist.overhead_s",
        wall_s - (task_s_sum / workers as f64).max(task_s_max),
    );
    out.set("dist.runner_calls", clean[0].tasks.len() as f64);
    out.set("dist.kill_redispatch_delay_s", kill_wall_s - wall_s);
}
