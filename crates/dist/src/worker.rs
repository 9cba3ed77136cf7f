//! The worker: connect with backoff, receive the corpus once, answer
//! tasks with checkpoint-framed shard reports, heartbeat from a side
//! thread — plus the `KF_DIST_FAIL` fault-injection knob the robustness
//! tests drive.

use crate::DistError;
use kf_eval::EvalReport;
use kf_synth::Corpus;
use kf_types::checkpoint::{self, ArtifactKind};
use kf_types::wire::{self, TaskSpec, WireMsg, PROTOCOL_VERSION};
use kf_types::FORMAT_VERSION;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How an injected fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailMode {
    /// Die abruptly: shut the socket both ways and return
    /// [`DistError::Injected`]. The coordinator sees EOF — the
    /// SIGKILL-equivalent for in-process workers.
    Kill,
    /// Go silent: stop heartbeating but keep working. The coordinator
    /// times the worker out and re-dispatches; the eventual late
    /// completion exercises duplicate suppression.
    Mute,
}

/// Parsed `KF_DIST_FAIL` directive: worker `NAME` fails after `M`
/// protocol frames (task/handshake frames sent plus received —
/// heartbeats excluded, so the trigger point is deterministic).
///
/// Syntax: `NAME:M` or `NAME:M:kill` or `NAME:M:mute`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailSpec {
    /// Which worker (by `--worker-name`) the fault arms on.
    pub worker: String,
    /// Protocol frames (sent + received, heartbeats excluded) before
    /// the fault fires.
    pub after_frames: u64,
    /// What firing does.
    pub mode: FailMode,
}

impl FailSpec {
    /// Parse a `NAME:M[:kill|mute]` directive.
    pub fn parse(s: &str) -> Result<FailSpec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let (worker, frames, mode) = match parts.as_slice() {
            [w, m] => (*w, *m, "kill"),
            [w, m, mode] => (*w, *m, *mode),
            _ => return Err(format!("bad KF_DIST_FAIL {s:?}: want NAME:M[:kill|mute]")),
        };
        if worker.is_empty() {
            return Err(format!("bad KF_DIST_FAIL {s:?}: empty worker name"));
        }
        let after_frames: u64 = frames.parse().map_err(|_| {
            format!("bad KF_DIST_FAIL {s:?}: frame count {frames:?} is not a number")
        })?;
        let mode = match mode {
            "kill" => FailMode::Kill,
            "mute" => FailMode::Mute,
            other => return Err(format!("bad KF_DIST_FAIL {s:?}: unknown mode {other:?}")),
        };
        Ok(FailSpec {
            worker: worker.to_string(),
            after_frames,
            mode,
        })
    }

    /// Read the `KF_DIST_FAIL` environment variable; `Ok(None)` when
    /// unset, `Err` when set but malformed.
    pub fn from_env() -> Result<Option<FailSpec>, String> {
        match std::env::var("KF_DIST_FAIL") {
            Ok(s) if !s.is_empty() => Self::parse(&s).map(Some),
            _ => Ok(None),
        }
    }
}

/// A worker's connection settings.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub addr: String,
    /// Name reported in the handshake; `KF_DIST_FAIL` arms on it.
    pub name: String,
    /// Connect attempts before giving up (the coordinator may start
    /// after the workers do).
    pub connect_attempts: u32,
    /// Delay after the first failed connect; doubles per retry, capped
    /// at two seconds.
    pub connect_backoff: Duration,
    /// The armed fault, if any (see [`FailSpec::from_env`]).
    pub fail: Option<FailSpec>,
}

impl WorkerConfig {
    /// A config with default retry behavior and no fault armed.
    pub fn new(addr: impl Into<String>, name: impl Into<String>) -> WorkerConfig {
        WorkerConfig {
            addr: addr.into(),
            name: name.into(),
            connect_attempts: 10,
            connect_backoff: Duration::from_millis(50),
            fail: None,
        }
    }
}

/// Frame accounting for the armed fault. Counts only protocol frames
/// the worker's main loop sends or receives — heartbeats ride on their
/// own thread and cadence, so counting them would make the trigger
/// point scheduling-dependent.
struct FailState {
    armed: Option<(u64, FailMode)>,
    frames: u64,
    fired: bool,
}

impl FailState {
    fn new(config: &WorkerConfig) -> FailState {
        FailState {
            armed: config
                .fail
                .as_ref()
                .filter(|f| f.worker == config.name)
                .map(|f| (f.after_frames, f.mode)),
            frames: 0,
            fired: false,
        }
    }

    /// Count one frame; returns the mode to apply if the fault fires now.
    fn count(&mut self) -> Option<FailMode> {
        self.frames += 1;
        match self.armed {
            Some((after, mode)) if !self.fired && self.frames >= after => {
                self.fired = true;
                Some(mode)
            }
            _ => None,
        }
    }
}

fn connect_with_backoff(config: &WorkerConfig) -> Result<TcpStream, DistError> {
    let mut delay = config.connect_backoff;
    let attempts = config.connect_attempts.max(1);
    let mut last = None;
    for attempt in 0..attempts {
        match TcpStream::connect(&config.addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
        if attempt + 1 < attempts {
            std::thread::sleep(delay);
            delay = (delay * 2).min(Duration::from_secs(2));
        }
    }
    Err(DistError::Io(last.expect("at least one attempt")))
}

fn send_counted(writer: &Arc<Mutex<TcpStream>>, msg: &WireMsg) -> Result<usize, DistError> {
    let mut stream = writer.lock().unwrap_or_else(|p| p.into_inner());
    let bytes = wire::write_frame(&mut *stream, msg)?;
    kf_telemetry::add("dist.rpc.sent", 1);
    kf_telemetry::record_traffic("dist.rpc.sent_bytes", bytes as u64);
    Ok(bytes)
}

/// Run one worker to completion: handshake, receive the corpus, then
/// answer tasks until the coordinator says [`WireMsg::Shutdown`].
///
/// `runner` produces the shard report for one task; it is the engine
/// boundary — `kf-dist` knows nothing about presets or fusion, the
/// caller (the `repro` CLI, or a test) wires the actual run in. The
/// corpus is decoded once per connection and shared across tasks.
pub fn run_worker(
    config: &WorkerConfig,
    mut runner: impl FnMut(&Corpus, &TaskSpec) -> Result<EvalReport, String>,
) -> Result<(), DistError> {
    let reader = connect_with_backoff(config)?;
    let _ = reader.set_nodelay(true);
    let writer = Arc::new(Mutex::new(reader.try_clone()?));
    let mut reader = reader;
    let mut fail = FailState::new(config);
    let muted = Arc::new(AtomicBool::new(false));
    let stopped = Arc::new(AtomicBool::new(false));

    // One closure per direction so every frame is counted exactly once.
    let recv = |reader: &mut TcpStream| -> Result<WireMsg, DistError> {
        let (msg, bytes) = wire::read_frame(reader)?;
        kf_telemetry::add("dist.rpc.recv", 1);
        kf_telemetry::record_traffic("dist.rpc.recv_bytes", bytes as u64);
        Ok(msg)
    };
    let kill = |reader: &TcpStream, stopped: &AtomicBool| {
        stopped.store(true, Ordering::SeqCst);
        let _ = reader.shutdown(Shutdown::Both);
        DistError::Injected
    };

    // Handshake: Hello -> Welcome (or Reject) -> Corpus.
    send_counted(
        &writer,
        &WireMsg::Hello {
            protocol: PROTOCOL_VERSION,
            format: FORMAT_VERSION,
            worker: config.name.clone(),
        },
    )?;
    if fail.count() == Some(FailMode::Kill) {
        return Err(kill(&reader, &stopped));
    }
    let heartbeat_interval = match recv(&mut reader)? {
        WireMsg::Welcome {
            heartbeat_interval_ms,
            ..
        } => Duration::from_millis(heartbeat_interval_ms.max(1)),
        WireMsg::Reject { reason } => return Err(DistError::Rejected(reason)),
        other => {
            return Err(DistError::Protocol(format!(
                "expected welcome, got {}",
                other.name()
            )))
        }
    };
    match fail.count() {
        Some(FailMode::Kill) => return Err(kill(&reader, &stopped)),
        Some(FailMode::Mute) => muted.store(true, Ordering::SeqCst),
        None => {}
    }

    // Heartbeats ride a dedicated thread at the coordinator-dictated
    // cadence, so a long fuse never reads as death. Muting stops the
    // sends without stopping the work.
    let heartbeat = {
        let writer = writer.clone();
        let muted = muted.clone();
        let stopped = stopped.clone();
        std::thread::spawn(move || {
            let mut seq = 0u64;
            loop {
                std::thread::sleep(heartbeat_interval);
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                if muted.load(Ordering::SeqCst) {
                    continue;
                }
                seq += 1;
                if send_counted(&writer, &WireMsg::Heartbeat { seq }).is_err() {
                    break;
                }
            }
        })
    };

    let outcome = (|| -> Result<(), DistError> {
        let corpus = match recv(&mut reader)? {
            WireMsg::Corpus { bytes } => checkpoint::decode::<Corpus>(ArtifactKind::Corpus, &bytes)
                .map_err(|e| DistError::Checkpoint(format!("corpus: {e}")))?,
            other => {
                return Err(DistError::Protocol(format!(
                    "expected corpus, got {}",
                    other.name()
                )))
            }
        };
        match fail.count() {
            Some(FailMode::Kill) => return Err(kill(&reader, &stopped)),
            Some(FailMode::Mute) => muted.store(true, Ordering::SeqCst),
            None => {}
        }

        loop {
            let msg = match recv(&mut reader) {
                Ok(msg) => msg,
                // A killed coordinator (or our own injected shutdown
                // racing the reader) surfaces here.
                Err(_) if stopped.load(Ordering::SeqCst) => return Err(DistError::Injected),
                Err(e) => return Err(e),
            };
            match msg {
                WireMsg::Task { spec } => {
                    match fail.count() {
                        Some(FailMode::Kill) => return Err(kill(&reader, &stopped)),
                        Some(FailMode::Mute) => muted.store(true, Ordering::SeqCst),
                        None => {}
                    }
                    let reply = match runner(&corpus, &spec) {
                        Ok(report) => WireMsg::TaskDone {
                            task_id: spec.task_id,
                            report: checkpoint::encode(ArtifactKind::Report, &report),
                        },
                        Err(error) => WireMsg::TaskFailed {
                            task_id: spec.task_id,
                            error,
                        },
                    };
                    send_counted(&writer, &reply)?;
                    match fail.count() {
                        Some(FailMode::Kill) => return Err(kill(&reader, &stopped)),
                        Some(FailMode::Mute) => muted.store(true, Ordering::SeqCst),
                        None => {}
                    }
                }
                WireMsg::Shutdown => return Ok(()),
                other => {
                    return Err(DistError::Protocol(format!(
                        "unexpected {} frame",
                        other.name()
                    )))
                }
            }
        }
    })();

    stopped.store(true, Ordering::SeqCst);
    let _ = reader.shutdown(Shutdown::Both);
    let _ = heartbeat.join();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_spec_parses_all_forms() {
        assert_eq!(
            FailSpec::parse("w1:7").unwrap(),
            FailSpec {
                worker: "w1".into(),
                after_frames: 7,
                mode: FailMode::Kill,
            }
        );
        assert_eq!(FailSpec::parse("w2:3:mute").unwrap().mode, FailMode::Mute);
        assert_eq!(FailSpec::parse("w2:3:kill").unwrap().mode, FailMode::Kill);
        for bad in ["", "w1", "w1:x", ":3", "w1:3:explode", "w1:3:kill:extra"] {
            assert!(FailSpec::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn fail_state_fires_once_at_threshold_for_armed_worker_only() {
        let mut config = WorkerConfig::new("127.0.0.1:1", "w1");
        config.fail = Some(FailSpec::parse("w1:3:mute").unwrap());
        let mut state = FailState::new(&config);
        assert_eq!(state.count(), None);
        assert_eq!(state.count(), None);
        assert_eq!(state.count(), Some(FailMode::Mute));
        assert_eq!(state.count(), None, "fires exactly once");

        // Armed for a different worker: never fires.
        config.name = "w2".into();
        let mut other = FailState::new(&config);
        for _ in 0..10 {
            assert_eq!(other.count(), None);
        }
    }

    #[test]
    fn connect_backoff_gives_up_with_io_error() {
        // A port from the discard range with nothing listening; one
        // retry keeps the test fast.
        let mut config = WorkerConfig::new("127.0.0.1:9", "w");
        config.connect_attempts = 2;
        config.connect_backoff = Duration::from_millis(1);
        match connect_with_backoff(&config) {
            Err(DistError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
