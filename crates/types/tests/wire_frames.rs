//! Hostile bytes on the wire: one frame of every [`WireMsg`] kind — a
//! `TaskDone` carrying a small report checkpoint among them — cut at
//! every byte, with every single bit flipped, and with one trailing byte
//! inside and after the frame. [`read_frame`] must refuse each case with
//! an `Err`, or read a message whose frame re-encodes to exactly the
//! bytes it consumed; it must never panic, and never allocate more than a
//! small multiple of the frame it was given, whatever a corrupted length
//! prefix claims.

#[path = "support/largest_alloc.rs"]
mod largest_alloc;

use kf_types::checkpoint::{self, ArtifactKind, FORMAT_VERSION};
use kf_types::wire::{encode_frame, read_frame, TaskSpec, WireMsg, PROTOCOL_VERSION};
use largest_alloc::largest_during;

/// The largest allocation a read may make, as a multiple of the length
/// of the valid frame the case was cut or flipped from: a payload that
/// grows with what arrives may double once past what it holds.
const ALLOC_MULTIPLE: usize = 4;

/// The floor under that bound: a refusal's `io::Error` carries a message
/// of up to this many bytes, however short the frame (a `Shutdown` frame
/// is 5 bytes).
const ERROR_BYTES: usize = 80;

/// One message of every kind.
fn one_of_each_kind() -> Vec<WireMsg> {
    // A small report checkpoint, as a worker ships one: the container's
    // magic, version and kind header around a few hundred payload bytes.
    let payload: (String, Vec<u64>) = ("popaccu".into(), (0..40).map(|i| i * 0x0101).collect());
    let report = checkpoint::encode(ArtifactKind::Report, &payload);
    vec![
        WireMsg::Hello {
            protocol: PROTOCOL_VERSION,
            format: FORMAT_VERSION,
            worker: "worker-0".into(),
        },
        WireMsg::Welcome {
            worker_id: 2,
            heartbeat_interval_ms: 250,
        },
        WireMsg::Reject {
            reason: "protocol skew".into(),
        },
        WireMsg::Corpus {
            bytes: checkpoint::encode(ArtifactKind::Corpus, &vec![7u32; 12]),
        },
        WireMsg::Task {
            spec: TaskSpec {
                task_id: 3,
                preset: "popaccu_plus".into(),
                scale: "paper".into(),
                bins: 10,
                workers: 0,
                diagnose: true,
                deterministic: true,
            },
        },
        WireMsg::Heartbeat { seq: 41 },
        WireMsg::TaskDone { task_id: 3, report },
        WireMsg::TaskFailed {
            task_id: 3,
            error: "fuse panicked".into(),
        },
        WireMsg::Shutdown,
    ]
}

/// Read one frame off `bytes` and hold the outcome to the rule: an `Err`,
/// or a message whose frame is exactly the bytes consumed; no panic; the
/// largest allocation within [`ALLOC_MULTIPLE`] × `frame_len` (or
/// [`ERROR_BYTES`], if more). Returns
/// how many bytes a successful read consumed.
fn check(case: &str, bytes: &[u8], frame_len: usize) -> Option<usize> {
    let (read, largest) = largest_during(|| {
        std::panic::catch_unwind(|| read_frame(&mut &bytes[..]))
            .unwrap_or_else(|_| panic!("{case}: reading the frame panicked"))
    });
    assert!(
        largest <= (ALLOC_MULTIPLE * frame_len).max(ERROR_BYTES),
        "{case}: a {frame_len}-byte frame allocated {largest} bytes at once"
    );
    let (msg, consumed) = read.ok()?;
    let again = encode_frame(&msg).expect("a read message encodes");
    assert_eq!(
        again,
        bytes[..consumed],
        "{case}: {msg:?} re-encodes differently"
    );
    Some(consumed)
}

#[test]
fn every_cut_and_bit_flip_of_every_frame_is_refused_or_reencodes_exactly() {
    for msg in one_of_each_kind() {
        let frame = encode_frame(&msg).unwrap();
        let (kind, len) = (msg.name(), frame.len());
        assert_eq!(check(&format!("{kind} untouched"), &frame, len), Some(len));

        // Every cut short of the whole frame ends before the payload the
        // prefix announces.
        for at in 0..len {
            let case = format!("{kind} cut at {at} of {len}");
            assert_eq!(check(&case, &frame[..at], len), None, "{case}: read");
        }

        // A flipped bit may still spell a valid message (a different id,
        // say); then it must be the whole frame and nothing else.
        for bit in 0..len * 8 {
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let case = format!("{kind} bit {bit} of {len} bytes");
            if let Some(consumed) = check(&case, &flipped, len) {
                assert_eq!(consumed, len, "{case}: read a shorter frame");
            }
        }

        // One trailing byte the prefix counts is corruption...
        let mut inside = frame.clone();
        inside.push(0);
        let counted = u32::from_le_bytes(inside[..4].try_into().unwrap()) + 1;
        inside[..4].copy_from_slice(&counted.to_le_bytes());
        let case = format!("{kind} with a trailing byte inside the frame");
        assert_eq!(check(&case, &inside, len + 1), None, "{case}: read");

        // ...and one after the frame is the next frame's first byte,
        // left unread.
        let mut after = frame.clone();
        after.push(0);
        let case = format!("{kind} followed by one byte");
        assert_eq!(check(&case, &after, len), Some(len), "{case}");
    }
}
