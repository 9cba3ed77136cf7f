//! Wire protocol for the distributed coordinator/worker runtime.
//!
//! `kf-dist` ships corpus checkpoints and shard reports between
//! processes over TCP. The wire format deliberately reuses the
//! [`KvCodec`] encodings everything already persists through: a message
//! is a length-prefixed frame whose payload is the `KvCodec` encoding
//! of one [`WireMsg`], and the *artifact-bearing* messages
//! ([`WireMsg::Corpus`], [`WireMsg::TaskDone`]) carry whole
//! [`crate::checkpoint`] files verbatim — magic, version header and
//! all — so a shipped corpus is bit-for-bit the file `--save-corpus`
//! would have written, and every end validates it with the same
//! checkpoint machinery.
//!
//! ```text
//! frame   := len(u32 LE)  payload(len bytes)
//! payload := KvCodec encoding of one WireMsg (tagged enum)
//! ```
//!
//! [`encode_frame`] builds those bytes ([`write_frame`] writes them in
//! one call), so a sender with one message for many peers encodes it
//! once; the artifact bytes inside move as one copy in each direction
//! ([`KvCodec::encode_run`]'s `u8` override).
//!
//! # Versioned handshake
//!
//! The first frame on every connection is [`WireMsg::Hello`], carrying
//! both [`PROTOCOL_VERSION`] (the message vocabulary of this module)
//! and [`crate::checkpoint::FORMAT_VERSION`] (the payload encodings of
//! the artifacts that will ride inside). The coordinator answers
//! [`WireMsg::Welcome`] only when **both** match its own; any skew gets
//! a [`WireMsg::Reject`] naming the mismatch, so a stale worker build
//! fails loudly at registration instead of corrupting a merge.
//!
//! # Robustness
//!
//! [`read_frame`] rejects frames whose declared length exceeds
//! [`MAX_FRAME_BYTES`] *before* allocating, grows its buffer only with
//! the payload bytes that actually arrive (a short frame costs what it
//! sent, not what it declared), and rejects payloads that do not decode
//! and payloads with trailing bytes after the message — a
//! length-vs-content mismatch is treated as corruption, mirroring the
//! checkpoint container's `TrailingBytes` rule.

use crate::codec::KvCodec;
use std::io::{self, Read, Write};

/// Version of the message vocabulary in this module. Bump on any change
/// to [`WireMsg`] or [`TaskSpec`] encodings (variant added, field added
/// or reordered, retagged); the handshake turns a mismatch into a
/// [`WireMsg::Reject`] rather than a misparse. Version 2 shrank
/// [`TaskSpec`] to one preset and dropped its shard numbering.
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on a single frame's payload (1 GiB). A corpus checkpoint
/// at the paper scale is ~tens of MiB; anything near this bound is a
/// corrupted length prefix, not data, and is rejected before the
/// allocation it would imply.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

/// One dispatchable task of a distributed reproduction run: the one
/// preset a worker fuses, plus every option that affects the bytes of
/// its shard report — exactly what the worker reads. The coordinator
/// derives these from its own CLI options so all workers run under
/// identical evaluation settings — the precondition for the
/// byte-identical merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Coordinator-assigned id, echoed in [`WireMsg::TaskDone`] /
    /// [`WireMsg::TaskFailed`]; the duplicate-completion ledger is
    /// keyed by it.
    pub task_id: u32,
    /// Name of the preset this task fuses (resolved by the worker).
    pub preset: String,
    /// Corpus scale label recorded in the report header.
    pub scale: String,
    /// Calibration bins per curve.
    pub bins: u64,
    /// Fusion worker threads (0 = the library default).
    pub workers: u64,
    /// Run the error-taxonomy diagnosis pass.
    pub diagnose: bool,
    /// Quarantine every wall-clock field in the shard report.
    pub deterministic: bool,
}

impl KvCodec for TaskSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.task_id.encode(out);
        self.preset.encode(out);
        self.scale.encode(out);
        self.bins.encode(out);
        self.workers.encode(out);
        self.diagnose.encode(out);
        self.deterministic.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(TaskSpec {
            task_id: u32::decode(input)?,
            preset: String::decode(input)?,
            scale: String::decode(input)?,
            bins: u64::decode(input)?,
            workers: u64::decode(input)?,
            diagnose: bool::decode(input)?,
            deterministic: bool::decode(input)?,
        })
    }
}

/// Every message the coordinator/worker protocol exchanges.
///
/// Registration: worker sends [`Hello`](WireMsg::Hello); coordinator
/// answers [`Welcome`](WireMsg::Welcome) (or
/// [`Reject`](WireMsg::Reject)) and ships the
/// [`Corpus`](WireMsg::Corpus). Steady state: coordinator pushes
/// [`Task`](WireMsg::Task)s; worker streams
/// [`Heartbeat`](WireMsg::Heartbeat)s from a side thread and answers
/// each task with [`TaskDone`](WireMsg::TaskDone) or
/// [`TaskFailed`](WireMsg::TaskFailed). Teardown: coordinator sends
/// [`Shutdown`](WireMsg::Shutdown) once every task has a result.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Worker registration: both version numbers plus a human-readable
    /// worker name (used in logs and the `KF_DIST_FAIL` fault knob).
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        protocol: u32,
        /// The worker's [`crate::checkpoint::FORMAT_VERSION`].
        format: u16,
        /// Worker name.
        worker: String,
    },
    /// Registration accepted.
    Welcome {
        /// Coordinator-assigned worker id.
        worker_id: u32,
        /// Heartbeat cadence the coordinator expects, in milliseconds.
        heartbeat_interval_ms: u64,
    },
    /// Registration refused (version skew, shutting down, ...).
    Reject {
        /// Human-readable reason.
        reason: String,
    },
    /// A whole corpus checkpoint file, shipped verbatim (magic and
    /// version header included).
    Corpus {
        /// Checkpoint bytes ([`crate::checkpoint::ArtifactKind::Corpus`]).
        bytes: Vec<u8>,
    },
    /// A task dispatch.
    Task {
        /// What to fuse and under which settings.
        spec: TaskSpec,
    },
    /// Worker liveness signal, sent on a fixed cadence from a dedicated
    /// thread so a long fuse never reads as death.
    Heartbeat {
        /// Monotonic per-worker sequence number.
        seq: u64,
    },
    /// A finished shard: the report checkpoint, shipped verbatim.
    TaskDone {
        /// Echo of [`TaskSpec::task_id`].
        task_id: u32,
        /// Checkpoint bytes ([`crate::checkpoint::ArtifactKind::Report`]).
        report: Vec<u8>,
    },
    /// A shard the worker could not finish (the worker stays alive; the
    /// coordinator re-dispatches with backoff).
    TaskFailed {
        /// Echo of [`TaskSpec::task_id`].
        task_id: u32,
        /// Human-readable error.
        error: String,
    },
    /// All tasks have results; workers exit on receipt.
    Shutdown,
}

impl KvCodec for WireMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireMsg::Hello {
                protocol,
                format,
                worker,
            } => {
                out.push(0);
                protocol.encode(out);
                format.encode(out);
                worker.encode(out);
            }
            WireMsg::Welcome {
                worker_id,
                heartbeat_interval_ms,
            } => {
                out.push(1);
                worker_id.encode(out);
                heartbeat_interval_ms.encode(out);
            }
            WireMsg::Reject { reason } => {
                out.push(2);
                reason.encode(out);
            }
            WireMsg::Corpus { bytes } => {
                out.push(3);
                bytes.encode(out);
            }
            WireMsg::Task { spec } => {
                out.push(4);
                spec.encode(out);
            }
            WireMsg::Heartbeat { seq } => {
                out.push(5);
                seq.encode(out);
            }
            WireMsg::TaskDone { task_id, report } => {
                out.push(6);
                task_id.encode(out);
                report.encode(out);
            }
            WireMsg::TaskFailed { task_id, error } => {
                out.push(7);
                task_id.encode(out);
                error.encode(out);
            }
            WireMsg::Shutdown => out.push(8),
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(WireMsg::Hello {
                protocol: u32::decode(input)?,
                format: u16::decode(input)?,
                worker: String::decode(input)?,
            }),
            1 => Some(WireMsg::Welcome {
                worker_id: u32::decode(input)?,
                heartbeat_interval_ms: u64::decode(input)?,
            }),
            2 => Some(WireMsg::Reject {
                reason: String::decode(input)?,
            }),
            3 => Some(WireMsg::Corpus {
                bytes: Vec::decode(input)?,
            }),
            4 => Some(WireMsg::Task {
                spec: TaskSpec::decode(input)?,
            }),
            5 => Some(WireMsg::Heartbeat {
                seq: u64::decode(input)?,
            }),
            6 => Some(WireMsg::TaskDone {
                task_id: u32::decode(input)?,
                report: Vec::decode(input)?,
            }),
            7 => Some(WireMsg::TaskFailed {
                task_id: u32::decode(input)?,
                error: String::decode(input)?,
            }),
            8 => Some(WireMsg::Shutdown),
            _ => None,
        }
    }
}

impl WireMsg {
    /// Short stable name for logs and telemetry labels.
    pub fn name(&self) -> &'static str {
        match self {
            WireMsg::Hello { .. } => "hello",
            WireMsg::Welcome { .. } => "welcome",
            WireMsg::Reject { .. } => "reject",
            WireMsg::Corpus { .. } => "corpus",
            WireMsg::Task { .. } => "task",
            WireMsg::Heartbeat { .. } => "heartbeat",
            WireMsg::TaskDone { .. } => "task-done",
            WireMsg::TaskFailed { .. } => "task-failed",
            WireMsg::Shutdown => "shutdown",
        }
    }
}

/// The length prefix for a payload of `len` bytes, or
/// [`io::ErrorKind::InvalidInput`] past [`MAX_FRAME_BYTES`].
fn frame_prefix(len: usize) -> io::Result<[u8; 4]> {
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {len} bytes exceeds the cap"),
        ));
    }
    Ok((len as u32).to_le_bytes())
}

/// One whole frame — length prefix and payload — exactly as
/// [`write_frame`] puts it on the wire; the coordinator builds its corpus
/// frame once and writes these bytes to every worker.
pub fn encode_frame(msg: &WireMsg) -> io::Result<Vec<u8>> {
    let mut frame = vec![0u8; 4];
    msg.encode(&mut frame);
    let prefix = frame_prefix(frame.len() - 4)?;
    frame[..4].copy_from_slice(&prefix);
    Ok(frame)
}

/// Write one frame, returning the total bytes put on the wire (length
/// prefix included). Flushes, so a frame is either fully queued to the
/// kernel or errored — never half-buffered across a send boundary.
pub fn write_frame(w: &mut impl Write, msg: &WireMsg) -> io::Result<usize> {
    let frame = encode_frame(msg)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// Read one frame, returning the message and the total bytes consumed.
///
/// A clean EOF before the length prefix, or inside the payload, surfaces
/// as [`io::ErrorKind::UnexpectedEof`] (the peer hung up); an oversized
/// length, a payload that does not decode, or trailing bytes after the
/// message surface as [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl Read) -> io::Result<(WireMsg, usize)> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("declared frame length {len} exceeds the cap"),
        ));
    }
    // The prefix is the peer's claim, not its bytes: grow the buffer with
    // what has arrived (doubling from 64 KiB), never past the claim.
    let mut payload = Vec::new();
    while payload.len() < len {
        let step = (len - payload.len()).min(payload.len().max(64 << 10));
        payload.reserve_exact(step);
        if r.take(step as u64).read_to_end(&mut payload)? < step {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "frame payload ends before its declared length",
            ));
        }
    }
    let mut input = &payload[..];
    let msg = WireMsg::decode(&mut input).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "frame payload does not parse")
    })?;
    if !input.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame payload has trailing bytes after the message",
        ));
    }
    Ok((msg, len + 4))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_task() -> TaskSpec {
        TaskSpec {
            task_id: 3,
            preset: "popaccu_plus".into(),
            scale: "paper".into(),
            bins: 10,
            workers: 0,
            diagnose: true,
            deterministic: true,
        }
    }

    fn all_messages() -> Vec<WireMsg> {
        vec![
            WireMsg::Hello {
                protocol: PROTOCOL_VERSION,
                format: crate::checkpoint::FORMAT_VERSION,
                worker: "w0".into(),
            },
            WireMsg::Welcome {
                worker_id: 2,
                heartbeat_interval_ms: 250,
            },
            WireMsg::Reject {
                reason: "protocol skew".into(),
            },
            WireMsg::Corpus {
                bytes: vec![0x4b, 0x46, 0x43, 0x50, 0, 0],
            },
            WireMsg::Task {
                spec: sample_task(),
            },
            WireMsg::Heartbeat { seq: 41 },
            WireMsg::TaskDone {
                task_id: 3,
                report: vec![1, 2, 3],
            },
            WireMsg::TaskFailed {
                task_id: 3,
                error: "fuse panicked".into(),
            },
            WireMsg::Shutdown,
        ]
    }

    #[test]
    fn every_message_roundtrips_through_codec_and_framing() {
        for msg in all_messages() {
            let mut buf = Vec::new();
            msg.encode(&mut buf);
            let mut input = &buf[..];
            assert_eq!(WireMsg::decode(&mut input), Some(msg.clone()), "{msg:?}");
            assert!(input.is_empty(), "{msg:?} left bytes");

            let mut wire = Vec::new();
            let written = write_frame(&mut wire, &msg).unwrap();
            assert_eq!(written, wire.len());
            let (back, consumed) = read_frame(&mut &wire[..]).unwrap();
            assert_eq!(back, msg);
            assert_eq!(consumed, wire.len());
        }
    }

    #[test]
    fn encode_frame_is_what_write_frame_writes() {
        for msg in all_messages() {
            let mut wire = Vec::new();
            write_frame(&mut wire, &msg).unwrap();
            assert_eq!(encode_frame(&msg).unwrap(), wire, "{msg:?}");
        }
    }

    #[test]
    fn payloads_over_the_cap_are_invalid_input() {
        // The check both `encode_frame` and `write_frame` go through; a
        // real payload of that size is not something a test should build.
        assert_eq!(
            frame_prefix(MAX_FRAME_BYTES).unwrap(),
            (MAX_FRAME_BYTES as u32).to_le_bytes()
        );
        assert_eq!(
            frame_prefix(MAX_FRAME_BYTES + 1).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn frames_stream_back_to_back() {
        let mut wire = Vec::new();
        for msg in all_messages() {
            write_frame(&mut wire, &msg).unwrap();
        }
        let mut reader = &wire[..];
        for msg in all_messages() {
            let (back, _) = read_frame(&mut reader).unwrap();
            assert_eq!(back, msg);
        }
        assert!(reader.is_empty());
        // The next read reports the hang-up, not garbage.
        assert_eq!(
            read_frame(&mut reader).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn truncated_frames_never_parse() {
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &WireMsg::Task {
                spec: sample_task(),
            },
        )
        .unwrap();
        for cut in 0..wire.len() {
            assert!(
                read_frame(&mut &wire[..cut]).is_err(),
                "cut at {cut} parsed"
            );
        }
    }

    #[test]
    fn oversized_and_malformed_frames_are_invalid_data() {
        // A declared length over the cap is rejected before allocation.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        assert_eq!(
            read_frame(&mut &wire[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        // An unknown message tag does not parse.
        let mut wire = Vec::new();
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(200);
        assert_eq!(
            read_frame(&mut &wire[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        // Trailing bytes after a complete message are corruption.
        let mut payload = Vec::new();
        WireMsg::Shutdown.encode(&mut payload);
        payload.push(0);
        let mut wire = Vec::new();
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
        assert_eq!(
            read_frame(&mut &wire[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn message_names_are_stable() {
        let names: Vec<&str> = all_messages().iter().map(WireMsg::name).collect();
        assert_eq!(
            names,
            [
                "hello",
                "welcome",
                "reject",
                "corpus",
                "task",
                "heartbeat",
                "task-done",
                "task-failed",
                "shutdown"
            ]
        );
    }
}
