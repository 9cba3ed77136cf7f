//! Checkpoint container: a versioned, magic-tagged envelope over
//! [`KvCodec`] payloads, plus the atomic write-then-rename helper every
//! on-disk artifact in the workspace goes through.
//!
//! The spill-file codec ([`crate::codec`]) deliberately carries no
//! self-description: run files are written and read by the same process,
//! so the schema is the Rust type itself. Checkpoints are different —
//! a corpus snapshot or a shard report is written by one process and
//! read by another (possibly a later build), so each checkpoint file
//! starts with a fixed header:
//!
//! ```text
//! checkpoint := magic(4 = "KFCP")  version(u16 LE)  kind(u8)  payload
//! payload    := KvCodec encoding of the artifact, to end of file
//! ```
//!
//! * **Magic** rejects arbitrary files immediately ([`CheckpointError::BadMagic`]).
//! * **Version** is the format version of the *payload encodings*. Any
//!   change to an existing `KvCodec` impl that can appear in a checkpoint
//!   (field added, reordered, retagged) must bump [`FORMAT_VERSION`]; a
//!   mismatch is a hard [`CheckpointError::VersionSkew`] error, never a
//!   silent misparse. Adding a *new* artifact kind does not bump it.
//! * **Kind** names the artifact ([`ArtifactKind`]) so a corpus checkpoint
//!   handed to a report loader fails with [`CheckpointError::WrongKind`]
//!   instead of decode garbage.
//!
//! Writers must produce *canonical* bytes: encoding the same logical
//! value twice — even from different processes — yields identical files.
//! Hash-map-backed types therefore encode their entries in sorted key
//! order (see [`crate::codec::encode_map_sorted`]); CI byte-diffs two
//! independently generated same-seed corpus checkpoints to enforce this.
//!
//! [`write_atomic`] writes through a same-directory temp file and renames
//! it into place, so a killed process can never leave a truncated file
//! that parses — the destination either has the old content or the whole
//! new content. Both the checkpoint writer here and the MapReduce spill
//! writer (`kf-mapreduce`) go through it.

use crate::codec::KvCodec;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// First four bytes of every checkpoint file.
pub const MAGIC: [u8; 4] = *b"KFCP";

/// Version of the payload encodings. Bump on any incompatible change to
/// a `KvCodec` impl reachable from a checkpointed artifact. Version 2:
/// `MethodEval` gained a trailing optional `kf-telemetry` trace.
/// Version 3: the `FusedKb` serving artifact joined the format — bumped
/// (despite being a purely additive kind) so every serving-era artifact
/// self-identifies and a pre-serving build rejects a KB file with a
/// version error rather than an unknown-kind one.
/// Version 4: hostile-corpus scenarios — `Corpus` gained a trailing
/// `ScenarioTruth` segment (injected copying/spam/drift/linkage ground
/// truth) and `TaxonomyReport` a `scenarios` breakdown, so corpora and
/// reports from scenario-aware builds reject cleanly on older readers.
/// Version 5: live metrics — `TraceReport` gained histogram and gauge
/// sections, changing the bytes of every checkpointed trace (traces
/// ride inside shard reports).
/// Version 6: distributed execution — `HistKind` gained the fully
/// quarantined `Traffic` variant for wire-traffic histograms whose
/// message *counts* depend on heartbeat scheduling; histogram kinds
/// ride inside checkpointed traces, so older readers must reject.
/// Version 7: `TraceReport` lost its gauge section, changing the bytes
/// of every checkpointed trace.
/// Version 8: `FusedKb` stops writing its per-row `subjects`,
/// `predicates` and `calibrated` columns and writes the serving
/// calibration curve instead; decode rebuilds the three from the item
/// index and the curve.
/// Version 9: `FusedKb` writes every integer column packed at the width
/// its values need (`codec::encode_packed`): offsets as run lengths, item
/// subjects as deltas, numbers zigzagged, provenance keys one column per
/// field, and the row count first, proven by the `raw` column.
pub const FORMAT_VERSION: u16 = 9;

/// What a checkpoint file contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ArtifactKind {
    /// A `kf-synth` ground-truth world.
    World = 1,
    /// A full `kf-synth` corpus (world + web + gold + extractions +
    /// injected-outcome truth).
    Corpus = 2,
    /// A `kf-eval` evaluation report (full or one shard's slice).
    Report = 3,
    /// A `kf-serve` fused knowledge base: read-optimized columnar indexes
    /// compiled from an evaluation report + corpus snapshot.
    FusedKb = 4,
}

impl ArtifactKind {
    /// Stable name used in error messages and file listings.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::World => "world",
            ArtifactKind::Corpus => "corpus",
            ArtifactKind::Report => "report",
            ArtifactKind::FusedKb => "fused-kb",
        }
    }

    /// Inverse of the header tag; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<ArtifactKind> {
        match tag {
            1 => Some(ArtifactKind::World),
            2 => Some(ArtifactKind::Corpus),
            3 => Some(ArtifactKind::Report),
            4 => Some(ArtifactKind::FusedKb),
            _ => None,
        }
    }
}

/// Why a checkpoint could not be read (or written).
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not a checkpoint at all.
    BadMagic,
    /// The file was written under a different [`FORMAT_VERSION`].
    VersionSkew {
        /// Version found in the file header.
        found: u16,
    },
    /// The file holds a different artifact than the caller asked for.
    WrongKind {
        /// Kind tag found in the file header (possibly unknown).
        found: u8,
        /// Kind the caller expected.
        expected: ArtifactKind,
    },
    /// The header parsed but the payload is truncated or malformed.
    Corrupt,
    /// The payload decoded but bytes remain — a length mismatch between
    /// writer and reader, treated as corruption rather than ignored.
    TrailingBytes,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => f.write_str("not a checkpoint file (bad magic)"),
            CheckpointError::VersionSkew { found } => write!(
                f,
                "checkpoint format version {found} (this build reads {FORMAT_VERSION}); \
                 regenerate the checkpoint"
            ),
            CheckpointError::WrongKind { found, expected } => {
                let found = ArtifactKind::from_tag(*found)
                    .map(ArtifactKind::name)
                    .unwrap_or("unknown");
                write!(
                    f,
                    "checkpoint holds a {found} artifact, expected {}",
                    expected.name()
                )
            }
            CheckpointError::Corrupt => f.write_str("checkpoint payload is truncated or corrupt"),
            CheckpointError::TrailingBytes => {
                f.write_str("checkpoint payload has trailing bytes after decode")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Encode `value` into a headered checkpoint byte buffer.
pub fn encode<T: KvCodec>(kind: ArtifactKind, value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind as u8);
    value.encode(&mut out);
    out
}

/// Decode a headered checkpoint buffer, verifying magic, version and
/// kind, and requiring the payload to consume every remaining byte.
pub fn decode<T: KvCodec>(kind: ArtifactKind, bytes: &[u8]) -> Result<T, CheckpointError> {
    let mut input = bytes;
    let header = |input: &mut &[u8], n: usize| -> Result<Vec<u8>, CheckpointError> {
        if input.len() < n {
            return Err(CheckpointError::BadMagic);
        }
        let (head, tail) = input.split_at(n);
        *input = tail;
        Ok(head.to_vec())
    };
    if header(&mut input, 4)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u16::from_le_bytes(header(&mut input, 2)?.try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(CheckpointError::VersionSkew { found: version });
    }
    let tag = header(&mut input, 1)?[0];
    if ArtifactKind::from_tag(tag) != Some(kind) {
        return Err(CheckpointError::WrongKind {
            found: tag,
            expected: kind,
        });
    }
    let value = T::decode(&mut input).ok_or(CheckpointError::Corrupt)?;
    if !input.is_empty() {
        return Err(CheckpointError::TrailingBytes);
    }
    Ok(value)
}

/// Encode `value` and atomically write the checkpoint file at `path`.
pub fn save<T: KvCodec>(path: &Path, kind: ArtifactKind, value: &T) -> Result<(), CheckpointError> {
    let bytes = encode(kind, value);
    write_atomic(path, |w| w.write_all(&bytes))?;
    Ok(())
}

/// Read and decode the checkpoint file at `path`.
pub fn load<T: KvCodec>(path: &Path, kind: ArtifactKind) -> Result<T, CheckpointError> {
    let bytes = std::fs::read(path)?;
    decode(kind, &bytes)
}

/// Write a file atomically: stream through a buffered same-directory
/// temp file, then rename it over `path`.
///
/// The rename is the commit point — readers (and a process killed at any
/// earlier moment) see either the previous content of `path` or the
/// complete new content, never a truncated prefix that happens to parse.
/// The temp name embeds the process id and a process-global sequence
/// number, so concurrent writers to different destinations in one
/// directory never collide; on any error the temp file is removed.
pub fn write_atomic<R>(
    path: &Path,
    f: impl FnOnce(&mut BufWriter<File>) -> io::Result<R>,
) -> io::Result<R> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = path.with_file_name(format!(
        ".{}.tmp-{}-{}",
        file_name.to_string_lossy(),
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let attempt = (|| {
        let mut writer = BufWriter::new(File::create(&tmp)?);
        let result = f(&mut writer)?;
        writer.flush()?;
        std::fs::rename(&tmp, path)?;
        Ok(result)
    })();
    if attempt.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    attempt
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("kf-checkpoint-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn headered_roundtrip() {
        let value = (42u64, String::from("tom cruise"), vec![1.5f64, -0.0]);
        let bytes = encode(ArtifactKind::Corpus, &value);
        assert_eq!(&bytes[..4], &MAGIC);
        let back: (u64, String, Vec<f64>) = decode(ArtifactKind::Corpus, &bytes).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(ArtifactKind::Corpus, &7u32);
        bytes[0] = b'X';
        assert!(matches!(
            decode::<u32>(ArtifactKind::Corpus, &bytes),
            Err(CheckpointError::BadMagic)
        ));
        // Too short to even hold the header.
        assert!(matches!(
            decode::<u32>(ArtifactKind::Corpus, b"KF"),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn version_skew_is_a_hard_error() {
        let mut bytes = encode(ArtifactKind::Report, &7u32);
        let skewed = (FORMAT_VERSION + 1).to_le_bytes();
        bytes[4..6].copy_from_slice(&skewed);
        match decode::<u32>(ArtifactKind::Report, &bytes) {
            Err(CheckpointError::VersionSkew { found }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
            }
            other => panic!("expected version skew, got {other:?}"),
        }
    }

    #[test]
    fn wrong_kind_is_rejected_with_both_names() {
        let bytes = encode(ArtifactKind::Corpus, &7u32);
        match decode::<u32>(ArtifactKind::Report, &bytes) {
            Err(e @ CheckpointError::WrongKind { .. }) => {
                let msg = e.to_string();
                assert!(msg.contains("corpus") && msg.contains("report"), "{msg}");
            }
            other => panic!("expected wrong kind, got {other:?}"),
        }
        // Unknown tags also surface as WrongKind, not a panic.
        let mut bytes = bytes;
        bytes[6] = 200;
        assert!(matches!(
            decode::<u32>(ArtifactKind::Corpus, &bytes),
            Err(CheckpointError::WrongKind { found: 200, .. })
        ));
    }

    #[test]
    fn fused_kb_kind_roundtrips() {
        assert_eq!(ArtifactKind::from_tag(4), Some(ArtifactKind::FusedKb));
        assert_eq!(ArtifactKind::FusedKb.name(), "fused-kb");
        let bytes = encode(ArtifactKind::FusedKb, &7u32);
        assert_eq!(decode::<u32>(ArtifactKind::FusedKb, &bytes).unwrap(), 7);
        // A KB checkpoint handed to a corpus loader names both kinds.
        match decode::<u32>(ArtifactKind::Corpus, &bytes) {
            Err(e @ CheckpointError::WrongKind { .. }) => {
                let msg = e.to_string();
                assert!(msg.contains("fused-kb") && msg.contains("corpus"), "{msg}");
            }
            other => panic!("expected wrong kind, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_corrupt_and_trailing_bytes_are_rejected() {
        let bytes = encode(ArtifactKind::World, &(1u64, 2u64));
        for cut in 7..bytes.len() {
            assert!(matches!(
                decode::<(u64, u64)>(ArtifactKind::World, &bytes[..cut]),
                Err(CheckpointError::Corrupt)
            ));
        }
        let mut padded = bytes;
        padded.push(0);
        assert!(matches!(
            decode::<(u64, u64)>(ArtifactKind::World, &padded),
            Err(CheckpointError::TrailingBytes)
        ));
    }

    #[test]
    fn save_load_roundtrip_through_a_file() {
        let path = tmp_path("roundtrip.kfc");
        let value = vec![(1u32, String::from("a")), (2, String::from("b"))];
        save(&path, ArtifactKind::Report, &value).unwrap();
        let back: Vec<(u32, String)> = load(&path, ArtifactKind::Report).unwrap();
        assert_eq!(back, value);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = tmp_path("does-not-exist.kfc");
        assert!(matches!(
            load::<u32>(&path, ArtifactKind::Corpus),
            Err(CheckpointError::Io(_))
        ));
    }

    #[test]
    fn write_atomic_replaces_whole_file_and_cleans_temp() {
        let path = tmp_path("atomic.bin");
        write_atomic(&path, |w| w.write_all(b"first version, long")).unwrap();
        write_atomic(&path, |w| w.write_all(b"second")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temp litter next to the destination.
        let dir = path.parent().unwrap();
        let stem = format!(".{}", path.file_name().unwrap().to_string_lossy());
        let litter = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(&stem))
            .count();
        assert_eq!(litter, 0, "temp files left behind");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_atomic_failure_preserves_old_content() {
        let path = tmp_path("atomic-fail.bin");
        write_atomic(&path, |w| w.write_all(b"intact")).unwrap();
        let result = write_atomic(&path, |w| {
            w.write_all(b"partial garbage ")?;
            Err::<(), _>(io::Error::other("writer failed mid-stream"))
        });
        assert!(result.is_err());
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"intact",
            "failed write must not touch the destination"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn error_display_is_informative() {
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        assert!(CheckpointError::Corrupt.to_string().contains("corrupt"));
        assert!(CheckpointError::VersionSkew { found: 9 }
            .to_string()
            .contains('9'));
        let io_err: CheckpointError = io::Error::other("disk on fire").into();
        assert!(io_err.to_string().contains("disk on fire"));
    }
}
