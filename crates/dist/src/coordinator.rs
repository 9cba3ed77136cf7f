//! The coordinator: task table, worker registry, heartbeat monitor and
//! the re-dispatch state machine.
//!
//! Three kinds of thread, one of which decides anything. The
//! **acceptor** blocks in `accept` and hands each socket to the engine.
//! Each **connection's thread** performs the registration exchange itself
//! (read `Hello`, check both versions, write `Welcome` and the corpus
//! frame, or `Reject`, under a write timeout), reports `Registered`, and
//! from then on only turns frames into events; the corpus frame is
//! encoded once per run and shared, so ships overlap and a peer that
//! stops reading stalls only its own thread. The **engine** is the thread
//! that called [`Coordinator::run`]: it writes nothing to a connection
//! before its `Registered` (a task frame cannot land inside a half-written
//! corpus frame), is the one place a task changes state, records every
//! `dist.*` counter on the caller's trace, and sleeps until the next
//! event or the next deadline it set itself (a back-off running out, a
//! heartbeat going stale, the idle timeout).

use crate::DistError;
use kf_eval::EvalReport;
use kf_types::checkpoint::{self, ArtifactKind};
use kf_types::wire::{self, TaskSpec, WireMsg, PROTOCOL_VERSION};
use kf_types::FORMAT_VERSION;
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of a coordinator run. `Default` is sized for real
/// (CI/operator) runs; tests shrink the intervals.
///
/// A worker holds at most one task at a time. Workers fuse serially, so
/// a deeper queue would only front-load whoever registers first — later
/// registrants would sit idle — and widen the re-dispatch blast radius
/// when that worker dies.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Cadence workers are told to heartbeat at ([`WireMsg::Welcome`]).
    pub heartbeat_interval: Duration,
    /// Silence after which a worker is declared lost and its in-flight
    /// tasks re-queued. Must comfortably exceed the interval. Also how
    /// long a write to a peer may stall before its connection is dropped.
    pub heartbeat_timeout: Duration,
    /// Delay before the first re-dispatch of a failed task; doubles on
    /// every further attempt of the same task. The first re-dispatch
    /// after a worker *loss* does not wait: that is not a failed task.
    pub redispatch_backoff: Duration,
    /// Re-dispatches a single task may consume before the run aborts
    /// with [`DistError::TaskExhausted`].
    pub max_redispatch: u32,
    /// With tasks outstanding, how long the run tolerates having no
    /// live workers (and no progress) before aborting with
    /// [`DistError::NoWorkers`].
    pub idle_timeout: Duration,
    /// Narrate registrations, dispatches, losses and completions on
    /// stderr — the operator transcript; tests leave it off.
    pub verbose: bool,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_millis(2_500),
            redispatch_backoff: Duration::from_millis(100),
            max_redispatch: 5,
            idle_timeout: Duration::from_secs(60),
            verbose: false,
        }
    }
}

/// A bound coordinator, ready to [`run`](Coordinator::run). Binding is
/// separate from running so callers (tests, the `--dist-addr-file`
/// subflow) can learn the OS-assigned port before any worker starts.
pub struct Coordinator {
    listener: TcpListener,
    tasks: Vec<TaskSpec>,
    corpus_bytes: Vec<u8>,
    config: CoordinatorConfig,
}

/// What the acceptor and the connection threads report to the engine.
enum Event {
    /// A peer connected — or `accept` failed, and the acceptor stopped.
    Accepted(std::io::Result<TcpStream>),
    /// One decoded frame, plus its size on the wire. A first `Hello` is
    /// answered by the connection's thread; the engine only counts it.
    Frame {
        conn: usize,
        msg: WireMsg,
        bytes: u64,
    },
    /// The connection's thread wrote `Welcome` (`bytes` on the wire) and
    /// the corpus frame: the worker may be dispatched to.
    Registered {
        conn: usize,
        name: String,
        bytes: u64,
    },
    /// The connection hit EOF or an error, or its registration failed
    /// or was refused; no more events will come from it.
    Closed { conn: usize },
}

/// What a connection's thread needs for the registration exchange.
struct Registration {
    /// The encoded [`WireMsg::Corpus`] frame, built once per run.
    corpus_frame: Vec<u8>,
    heartbeat_interval_ms: u64,
    write_timeout: Duration,
}

/// Where a task is in its life cycle.
#[derive(Debug)]
enum TaskStatus {
    /// Waiting for dispatch, not before the embedded deadline (backoff).
    Pending { not_before: Instant },
    /// Sent to a worker, result outstanding. (Which worker is tracked
    /// in the per-worker `in_flight` slots, where loss handling needs
    /// it.)
    Running,
    /// A completion was accepted; later replicas are duplicates.
    Done,
}

struct TaskState {
    status: TaskStatus,
    /// Dispatches consumed so far (first dispatch counts as 1).
    attempts: u32,
    last_error: String,
    report: Option<EvalReport>,
}

/// A registered worker's scheduling state.
struct WorkerState {
    name: String,
    last_seen: Instant,
    /// Lost workers are never dispatched to again, but their socket
    /// stays open: a hung worker may still deliver a late completion,
    /// which first-wins/duplicate accounting handles.
    lost: bool,
    /// The task this worker is running, if any.
    in_flight: Option<u32>,
}

struct ConnState {
    stream: TcpStream,
    open: bool,
    worker: Option<WorkerState>,
}

/// Why a task is re-queued: its worker was lost (EOF, stale heartbeats,
/// failed send), or reported it failed (or sent an undecodable report).
#[derive(Clone, Copy, PartialEq)]
enum Requeue {
    WorkerLost,
    TaskFailed,
}

/// The single-threaded protocol core.
struct Engine {
    conns: Vec<ConnState>,
    /// One thread per accepted connection, joined at teardown.
    conn_threads: Vec<JoinHandle<()>>,
    registration: Arc<Registration>,
    events: mpsc::Sender<Event>,
    tasks: Vec<TaskState>,
    specs: Vec<TaskSpec>,
    config: CoordinatorConfig,
    last_progress: Instant,
    fatal: Option<DistError>,
}

impl Coordinator {
    /// Bind the coordinator socket. `addr` may use port 0 to let the OS
    /// pick; read the result back with [`local_addr`](Self::local_addr).
    pub fn bind(
        addr: &str,
        tasks: Vec<TaskSpec>,
        corpus_bytes: Vec<u8>,
        config: CoordinatorConfig,
    ) -> Result<Coordinator, DistError> {
        let listener = TcpListener::bind(addr)?;
        Ok(Coordinator {
            listener,
            tasks,
            corpus_bytes,
            config,
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Drive the job to completion and return the shard reports in task
    /// order. Blocks the calling thread; workers may connect at any
    /// point during the run. Every thread the run starts is joined, and
    /// the listening port released, before it returns.
    pub fn run(self) -> Result<Vec<EvalReport>, DistError> {
        // Where the teardown reaches the acceptor (loopback if unspecified).
        let mut wake_addr = self.listener.local_addr()?;
        match wake_addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => wake_addr.set_ip(Ipv4Addr::LOCALHOST.into()),
            IpAddr::V6(ip) if ip.is_unspecified() => wake_addr.set_ip(Ipv6Addr::LOCALHOST.into()),
            _ => {}
        }
        let corpus_frame = wire::encode_frame(&WireMsg::Corpus {
            bytes: self.corpus_bytes,
        })?;
        kf_telemetry::add("dist.corpus.frame_encodes", 1);

        let (tx, rx) = mpsc::channel::<Event>();
        let now = Instant::now();
        let mut engine = Engine {
            conns: Vec::new(),
            conn_threads: Vec::new(),
            registration: Arc::new(Registration {
                corpus_frame,
                heartbeat_interval_ms: self.config.heartbeat_interval.as_millis() as u64,
                write_timeout: self.config.heartbeat_timeout,
            }),
            events: tx.clone(),
            tasks: self
                .tasks
                .iter()
                .map(|_| TaskState {
                    status: TaskStatus::Pending { not_before: now },
                    attempts: 0,
                    last_error: String::new(),
                    report: None,
                })
                .collect(),
            specs: self.tasks,
            config: self.config,
            last_progress: now,
            fatal: None,
        };

        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (listener, stop) = (self.listener, stop.clone());
            std::thread::spawn(move || {
                // Owns the listener: the port is released when this ends.
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let failed = stream.is_err();
                    if tx.send(Event::Accepted(stream)).is_err() || failed {
                        break;
                    }
                }
            })
        };

        let outcome = loop {
            let now = Instant::now();
            engine.check_heartbeats(now);
            engine.dispatch_pending(now);
            if let Some(fatal) = engine.fatal.take() {
                break Err(fatal);
            }
            if engine
                .tasks
                .iter()
                .all(|t| matches!(t.status, TaskStatus::Done))
            {
                break Ok(());
            }
            let Some(deadline) = engine.next_deadline(now) else {
                break Err(DistError::NoWorkers);
            };
            // Sleep until an event or the deadline, then drain the queue.
            let wait = deadline.saturating_duration_since(Instant::now());
            if let Ok(event) = rx.recv_timeout(wait) {
                engine.handle(event);
                while let Ok(event) = rx.try_recv() {
                    engine.handle(event);
                }
            }
        };

        // Teardown: tell survivors to exit, then unblock and join every
        // thread. Errors here don't change the outcome.
        for conn in 0..engine.conns.len() {
            if engine.conns[conn].open && engine.conns[conn].worker.is_some() {
                engine.send(conn, &WireMsg::Shutdown);
            }
        }
        for conn in &mut engine.conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        for thread in engine.conn_threads.drain(..) {
            let _ = thread.join();
        }
        // A connection of our own wakes the acceptor to see the flag; if
        // even that fails it is left to end at the next one, not hang us.
        stop.store(true, Ordering::SeqCst);
        if TcpStream::connect(wake_addr).is_ok() || acceptor.is_finished() {
            let _ = acceptor.join();
        }

        outcome?;
        Ok(engine
            .tasks
            .into_iter()
            .map(|t| t.report.expect("all tasks done on the success path"))
            .collect())
    }

    /// [`run`](Self::run), then merge the shard reports exactly as the
    /// `--merge` subflow does.
    pub fn run_merged(self) -> Result<EvalReport, DistError> {
        let reports = self.run()?;
        kf_eval::merge_reports(reports).map_err(|e| DistError::Merge(e.to_string()))
    }
}

/// A connection's thread: register the peer, then turn its frames into
/// events until the socket ends. Always finishes with [`Event::Closed`].
fn serve_connection(
    conn: usize,
    mut stream: TcpStream,
    registration: &Registration,
    events: &mpsc::Sender<Event>,
) {
    if register(conn, &mut stream, registration, events).is_some() {
        while let Ok((msg, bytes)) = wire::read_frame(&mut stream) {
            let bytes = bytes as u64;
            if events.send(Event::Frame { conn, msg, bytes }).is_err() {
                break;
            }
        }
    }
    let _ = events.send(Event::Closed { conn });
}

/// The registration exchange, on the connection's own thread: `Hello`
/// in; `Welcome` and the corpus frame, or `Reject`, out. `Some` once the
/// peer is a registered worker and the engine has been told.
fn register(
    conn: usize,
    stream: &mut TcpStream,
    registration: &Registration,
    events: &mpsc::Sender<Event>,
) -> Option<()> {
    let (msg, bytes) = wire::read_frame(stream).ok()?;
    // The engine counts the frame, and hangs up on anything but a `Hello`.
    let hello = matches!(msg, WireMsg::Hello { .. }).then(|| msg.clone());
    let bytes = bytes as u64;
    events.send(Event::Frame { conn, msg, bytes }).ok()?;
    let WireMsg::Hello {
        protocol,
        format,
        worker: name,
    } = hello?
    else {
        return None;
    };
    // On the socket, so the engine's write half is bounded as well.
    stream
        .set_write_timeout(Some(registration.write_timeout))
        .ok()?;
    if protocol != PROTOCOL_VERSION || format != FORMAT_VERSION {
        let reason = format!(
            "version skew: worker speaks protocol {protocol} / format {format}, \
             coordinator speaks {PROTOCOL_VERSION} / {FORMAT_VERSION}"
        );
        let _ = wire::write_frame(stream, &WireMsg::Reject { reason });
        return None;
    }
    let welcome = WireMsg::Welcome {
        worker_id: conn as u32,
        heartbeat_interval_ms: registration.heartbeat_interval_ms,
    };
    let bytes = wire::write_frame(stream, &welcome).ok()? as u64;
    stream.write_all(&registration.corpus_frame).ok()?;
    events.send(Event::Registered { conn, name, bytes }).ok()
}

impl Engine {
    /// Operator narration (the README transcript); off by default.
    fn log(&self, line: String) {
        if self.config.verbose {
            eprintln!("[coordinator] {line}");
        }
    }

    /// Display name for a connection: the registered worker name, or
    /// the connection id for unregistered peers.
    fn worker_name(&self, conn: usize) -> String {
        match self.conns[conn].worker.as_ref() {
            Some(w) => w.name.clone(),
            None => format!("conn#{conn}"),
        }
    }

    fn count_sent(bytes: u64) {
        kf_telemetry::add("dist.rpc.sent", 1);
        kf_telemetry::record_traffic("dist.rpc.sent_bytes", bytes);
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Accepted(Ok(stream)) => self.admit(stream),
            Event::Accepted(Err(e)) => self.fatal = Some(e.into()),
            Event::Closed { conn } => self.drop_conn(conn),
            Event::Registered { conn, name, bytes } => {
                Self::count_sent(bytes);
                Self::count_sent(self.registration.corpus_frame.len() as u64);
                self.log(format!(
                    "registered worker {name} (id {conn}), corpus shipped"
                ));
                self.conns[conn].worker = Some(WorkerState {
                    name,
                    last_seen: Instant::now(),
                    lost: false,
                    in_flight: None,
                });
                kf_telemetry::add("dist.worker.registered", 1);
                self.last_progress = Instant::now();
            }
            Event::Frame { conn, msg, bytes } => {
                kf_telemetry::add("dist.rpc.recv", 1);
                kf_telemetry::record_traffic("dist.rpc.recv_bytes", bytes);
                let registered = self.conns[conn].worker.is_some();
                match msg {
                    // Being answered by the connection's own thread.
                    WireMsg::Hello { .. } if !registered => {}
                    WireMsg::Heartbeat { .. } if registered => {
                        if let Some(w) = self.conns[conn].worker.as_mut() {
                            w.last_seen = Instant::now();
                        }
                    }
                    WireMsg::TaskDone { task_id, report } if registered => {
                        self.handle_done(conn, task_id, &report)
                    }
                    WireMsg::TaskFailed { task_id, error } if registered => {
                        self.fail_task(conn, task_id, &error)
                    }
                    _ => {
                        // Anything but `Hello` before registration, a second
                        // `Hello`, or a coordinator-only message echoed back.
                        kf_telemetry::add("dist.rpc.protocol_error", 1);
                        self.drop_conn(conn);
                    }
                }
            }
        }
    }

    /// Give an accepted socket its connection id and its thread.
    fn admit(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let conn = self.conns.len();
        let (registration, events) = (self.registration.clone(), self.events.clone());
        self.conn_threads.push(std::thread::spawn(move || {
            serve_connection(conn, read_half, &registration, &events)
        }));
        self.conns.push(ConnState {
            stream,
            open: true,
            worker: None,
        });
    }

    fn handle_done(&mut self, conn: usize, task_id: u32, report_bytes: &[u8]) {
        let Some(task) = self.tasks.get_mut(task_id as usize) else {
            self.drop_conn(conn);
            return;
        };
        if matches!(task.status, TaskStatus::Done) {
            // A re-dispatched task completed twice (hung worker woke
            // up, or two replicas raced). First completion won; this
            // one is suppressed so the merge never double-counts.
            kf_telemetry::add("dist.task.duplicate", 1);
            self.log(format!(
                "suppressed duplicate completion of task {task_id} from {}",
                self.worker_name(conn)
            ));
            return;
        }
        match checkpoint::decode::<EvalReport>(ArtifactKind::Report, report_bytes) {
            Ok(report) => {
                task.status = TaskStatus::Done;
                task.report = Some(report);
                kf_telemetry::add("dist.task.completed", 1);
                self.log(format!(
                    "task {task_id} completed by {}",
                    self.worker_name(conn)
                ));
                // The winning replica may not be the one this task is
                // marked Running on; clear it from every slot.
                self.release(task_id);
                self.last_progress = Instant::now();
            }
            Err(e) => self.fail_task(conn, task_id, &format!("undecodable shard report: {e}")),
        }
    }

    /// A worker reports (or shows, by an undecodable report) a task
    /// failed. Honoured only from the worker the task is in flight on: one
    /// declared lost no longer speaks for a task running elsewhere.
    fn fail_task(&mut self, conn: usize, task_id: u32, error: &str) {
        let holds = self.conns[conn]
            .worker
            .as_ref()
            .is_some_and(|w| w.in_flight == Some(task_id));
        if holds {
            kf_telemetry::add("dist.task.failed", 1);
            self.requeue(task_id, error, Requeue::TaskFailed);
        }
    }

    /// Return a task to the pending queue: straight back after a worker
    /// loss, behind an exponential back-off if it failed or on any later
    /// re-dispatch. No-op unless the task is currently `Running`.
    fn requeue(&mut self, task_id: u32, error: &str, cause: Requeue) {
        let Some(task) = self.tasks.get_mut(task_id as usize) else {
            return;
        };
        if !matches!(task.status, TaskStatus::Running) {
            return;
        }
        task.last_error = error.to_string();
        if task.attempts > self.config.max_redispatch {
            self.fatal = Some(DistError::TaskExhausted {
                task_id,
                attempts: task.attempts,
                last_error: task.last_error.clone(),
            });
            return;
        }
        let backoff = if cause == Requeue::WorkerLost && task.attempts == 1 {
            Duration::ZERO
        } else {
            self.config.redispatch_backoff
                * 2u32.saturating_pow(task.attempts.saturating_sub(1).min(16))
        };
        task.status = TaskStatus::Pending {
            not_before: Instant::now() + backoff,
        };
        self.release(task_id);
    }

    /// Free every worker holding `task_id`.
    fn release(&mut self, task_id: u32) {
        for c in &mut self.conns {
            if let Some(w) = c.worker.as_mut() {
                if w.in_flight == Some(task_id) {
                    w.in_flight = None;
                }
            }
        }
    }

    /// Whether a connection is a registered worker that can take work.
    fn is_live(conn: &ConnState) -> bool {
        conn.open && conn.worker.as_ref().is_some_and(|w| !w.lost)
    }

    /// When the engine must next act unprompted: the earliest back-off to
    /// run out, and the earliest heartbeat to go stale or — with no live
    /// worker — the idle timeout. `None` once that last one has passed.
    fn next_deadline(&self, now: Instant) -> Option<Instant> {
        let backoffs = self.tasks.iter().filter_map(|t| match t.status {
            // A task already due waits for a worker, which is an event.
            TaskStatus::Pending { not_before } if not_before > now => Some(not_before),
            _ => None,
        });
        let stale = self
            .conns
            .iter()
            .filter(|c| Self::is_live(c))
            .filter_map(|c| c.worker.as_ref())
            .map(|w| w.last_seen + self.config.heartbeat_timeout);
        let idle = self.last_progress + self.config.idle_timeout;
        let liveness = stale.min().or((now < idle).then_some(idle))?;
        Some(backoffs.min().map_or(liveness, |b| b.min(liveness)))
    }

    /// Declare workers with stale heartbeats lost and re-queue their
    /// in-flight tasks. The socket stays open — see [`WorkerState::lost`].
    fn check_heartbeats(&mut self, now: Instant) {
        let timeout = self.config.heartbeat_timeout;
        let mut orphaned: Vec<u32> = Vec::new();
        let mut stale: Vec<String> = Vec::new();
        for conn in &mut self.conns {
            if !conn.open {
                continue;
            }
            if let Some(w) = conn.worker.as_mut() {
                if !w.lost && now.saturating_duration_since(w.last_seen) >= timeout {
                    w.lost = true;
                    kf_telemetry::add("dist.worker.lost", 1);
                    stale.push(w.name.clone());
                    orphaned.extend(w.in_flight.take());
                }
            }
        }
        for name in stale {
            self.log(format!(
                "worker {name} lost (heartbeats stale); re-queueing its tasks"
            ));
        }
        for task_id in orphaned {
            self.requeue(task_id, "worker heartbeats went stale", Requeue::WorkerLost);
        }
    }

    /// Hand every due pending task to the idle live worker with the
    /// lowest connection id.
    fn dispatch_pending(&mut self, now: Instant) {
        for task_id in 0..self.tasks.len() {
            let due = match self.tasks[task_id].status {
                TaskStatus::Pending { not_before } => not_before <= now,
                _ => false,
            };
            if !due {
                continue;
            }
            let msg = WireMsg::Task {
                spec: self.specs[task_id].clone(),
            };
            let idle = |c: &ConnState| c.worker.as_ref().is_some_and(|w| w.in_flight.is_none());
            let target = (self.conns.iter()).position(|c| Self::is_live(c) && idle(c));
            let Some(conn) = target else {
                // Every live worker is busy (or none exists); the task
                // stays pending until one frees up.
                return;
            };
            if self.send(conn, &msg) {
                self.log(format!(
                    "dispatch task {task_id} -> worker {}",
                    self.worker_name(conn)
                ));
                let task = &mut self.tasks[task_id];
                task.status = TaskStatus::Running;
                kf_telemetry::add("dist.task.dispatched", 1);
                if task.attempts > 0 {
                    kf_telemetry::add("dist.task.redispatched", 1);
                }
                task.attempts += 1;
                if let Some(w) = self.conns[conn].worker.as_mut() {
                    w.in_flight = Some(task_id as u32);
                }
                self.last_progress = Instant::now();
            }
            // On send failure the connection was dropped and its tasks
            // re-queued; its `Closed` event has the survivors retried.
        }
    }

    /// Write one frame; on failure the connection is dropped (with its
    /// tasks re-queued) and `false` returned.
    fn send(&mut self, conn: usize, msg: &WireMsg) -> bool {
        if !self.conns[conn].open {
            return false;
        }
        match wire::write_frame(&mut self.conns[conn].stream, msg) {
            Ok(bytes) => {
                Self::count_sent(bytes as u64);
                true
            }
            Err(_) => {
                self.drop_conn(conn);
                false
            }
        }
    }

    /// Close a connection and re-queue whatever it was running.
    fn drop_conn(&mut self, conn: usize) {
        let state = &mut self.conns[conn];
        if !state.open {
            return;
        }
        state.open = false;
        let _ = state.stream.shutdown(Shutdown::Both);
        let (name, orphaned) = match state.worker.as_mut() {
            Some(w) => {
                if !w.lost {
                    w.lost = true;
                    kf_telemetry::add("dist.worker.lost", 1);
                }
                (Some(w.name.clone()), w.in_flight.take())
            }
            None => {
                // Hung up early, refused, out of protocol, or stalled.
                kf_telemetry::add("dist.conn.unregistered", 1);
                (None, None)
            }
        };
        if let Some(name) = name {
            self.log(format!(
                "worker {name} lost (connection closed); re-queueing its tasks"
            ));
        }
        if let Some(task_id) = orphaned {
            self.requeue(task_id, "worker connection closed", Requeue::WorkerLost);
        }
    }
}
