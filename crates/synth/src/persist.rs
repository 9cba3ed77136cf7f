//! Corpus checkpointing: save a generated corpus once, fan out many
//! processes that load it.
//!
//! Every experiment in this workspace starts from a [`Corpus`]. Before
//! this module existed each process regenerated it from scratch, so
//! nothing could be sharded across processes and every CI gate paid the
//! full generation cost. [`Corpus::save`] writes the *entire* corpus —
//! world (with ontology), web, gold standard, extraction batch, section
//! and injected-outcome truth vectors, extractor specs and seed — as one
//! [`kf_types::checkpoint`] file (magic + format version +
//! [`ArtifactKind::Corpus`]), and [`Corpus::load`] restores it exactly:
//! `load(save(c)) == c`, including the derived joins the error taxonomy
//! scores against ([`Corpus::taxonomy_truth`],
//! [`Corpus::dominant_outcomes`]) — pinned by the proptests in
//! `tests/persist_proptests.rs`.
//!
//! The encoding is **canonical**: saving the same logical corpus from two
//! different processes yields byte-identical files (hash maps encode in
//! sorted key order). CI's determinism gate byte-diffs two same-seed
//! snapshots to keep it that way. Writes are atomic (temp file + rename),
//! so a killed process never leaves a truncated checkpoint that parses.

use crate::corpus::{Corpus, ScenarioTruth};
use crate::extractor::{ExtractionOutcome, ExtractorSpec};
use crate::web::{ContentType, Web};
use crate::world::World;
use kf_types::checkpoint::{self, ArtifactKind, CheckpointError};
use kf_types::{codec, ExtractionBatch, GoldStandard, KvCodec};
use std::path::Path;

/// The corpus encodes as six length-prefixed segments (world, web, gold,
/// batch, sections, outcomes) followed by the small extractor list, the
/// seed and the hostile-scenario ground truth (format version 4; empty
/// for honest corpora). Encoding is sequential, deterministic and
/// canonical. Each segment is a length-prefixed validation unit: its
/// decode must consume it exactly, and a length that overruns the input
/// fails before any segment is decoded.
///
/// [`Corpus::decode`] rebuilds every segment on the calling thread, one
/// after another. The corpus outlives the decode, so its allocations
/// belong in the arena of the thread that keeps it; a short-lived helper
/// thread per segment would leave each segment pinning an arena of its
/// own (PR 23 traced `dist_small`'s `peak_rss_mb` to exactly that).
impl KvCodec for Corpus {
    fn encode(&self, out: &mut Vec<u8>) {
        let _enc = kf_telemetry::span("corpus_encode");
        let trace = kf_telemetry::current();
        let mut mark = out.len();
        let mut segment_done = |name: &'static str, out: &Vec<u8>| {
            if let Some(t) = &trace {
                t.add(name, (out.len() - mark) as u64);
            }
            mark = out.len();
        };
        codec::encode_segment(&self.world, out);
        segment_done("persist.enc.world_bytes", out);
        codec::encode_segment(&self.web, out);
        segment_done("persist.enc.web_bytes", out);
        codec::encode_segment(&self.gold, out);
        segment_done("persist.enc.gold_bytes", out);
        codec::encode_segment(&self.batch, out);
        segment_done("persist.enc.batch_bytes", out);
        // The parallel per-record vectors travel as one-byte index
        // columns, not element-wise enums.
        let sections: Vec<u8> = self.sections.iter().map(|s| s.index() as u8).collect();
        let outcomes: Vec<u8> = self.outcomes.iter().map(|o| o.index() as u8).collect();
        codec::encode_segment(&sections, out);
        segment_done("persist.enc.sections_bytes", out);
        codec::encode_segment(&outcomes, out);
        segment_done("persist.enc.outcomes_bytes", out);
        self.extractors.encode(out);
        self.seed.encode(out);
        self.scenario.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let _dec = kf_telemetry::span("corpus_decode");
        let world_seg = codec::take_segment(input)?;
        let web_seg = codec::take_segment(input)?;
        let gold_seg = codec::take_segment(input)?;
        let batch_seg = codec::take_segment(input)?;
        let sections_seg = codec::take_segment(input)?;
        let outcomes_seg = codec::take_segment(input)?;
        if let Some(t) = kf_telemetry::current() {
            t.add("persist.dec.world_bytes", world_seg.len() as u64);
            t.add("persist.dec.web_bytes", web_seg.len() as u64);
            t.add("persist.dec.gold_bytes", gold_seg.len() as u64);
            t.add("persist.dec.batch_bytes", batch_seg.len() as u64);
            t.add("persist.dec.sections_bytes", sections_seg.len() as u64);
            t.add("persist.dec.outcomes_bytes", outcomes_seg.len() as u64);
        }
        let extractors = Vec::<ExtractorSpec>::decode(input)?;
        let seed = u64::decode(input)?;
        let scenario = ScenarioTruth::decode(input)?;
        // Every segment decodes on the calling thread, in file order (see
        // the impl doc for why).
        let corpus = Corpus {
            world: codec::decode_segment_all::<World>(world_seg)?,
            web: codec::decode_segment_all::<Web>(web_seg)?,
            gold: codec::decode_segment_all::<GoldStandard>(gold_seg)?,
            batch: codec::decode_segment_all::<ExtractionBatch>(batch_seg)?,
            sections: decode_tags(sections_seg, &ContentType::ALL)?,
            outcomes: decode_tags(outcomes_seg, &ExtractionOutcome::ALL)?,
            extractors,
            seed,
            scenario,
        };
        // The section/outcome vectors are parallel to the batch; a
        // checkpoint violating that would poison every consumer.
        if corpus.sections.len() != corpus.batch.len()
            || corpus.outcomes.len() != corpus.batch.len()
        {
            return None;
        }
        // Copied-record indices must address the batch, ascending.
        if !corpus
            .scenario
            .copied_records
            .windows(2)
            .all(|w| w[0] < w[1])
            || corpus
                .scenario
                .copied_records
                .last()
                .is_some_and(|&i| i as usize >= corpus.batch.len())
        {
            return None;
        }
        Some(corpus)
    }
}

/// Decode a tag segment (sections or outcomes): one byte per record, each
/// an index into `all`. A `Vec<u8>` encodes to the same bytes as a `u8`
/// column, so the tags decode as one contiguous block.
fn decode_tags<T: Copy>(mut seg: &[u8], all: &[T]) -> Option<Vec<T>> {
    let tags = codec::decode_column::<u8>(&mut seg)?;
    if !seg.is_empty() {
        return None;
    }
    tags.into_iter()
        .map(|tag| all.get(tag as usize).copied())
        .collect()
}

/// Scenario ground truth travels field-ordered; the spam/drift vectors
/// are sorted at generation time, so the bytes stay canonical.
impl KvCodec for ScenarioTruth {
    fn encode(&self, out: &mut Vec<u8>) {
        self.copied_records.encode(out);
        self.spam.encode(out);
        self.spam_page_start.encode(out);
        self.drift.encode(out);
        self.drift_flip_page.encode(out);
        self.linkage_boosted.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(ScenarioTruth {
            copied_records: Vec::decode(input)?,
            spam: Vec::decode(input)?,
            spam_page_start: u32::decode(input)?,
            drift: Vec::decode(input)?,
            drift_flip_page: u32::decode(input)?,
            linkage_boosted: bool::decode(input)?,
        })
    }
}

impl Corpus {
    /// Atomically write this corpus as a headered checkpoint file.
    ///
    /// ```no_run
    /// use kf_synth::{Corpus, SynthConfig};
    ///
    /// let corpus = Corpus::generate(&SynthConfig::tiny(), 42);
    /// corpus.save("corpus.kfc")?;
    /// let again = Corpus::load("corpus.kfc")?;
    /// assert_eq!(again, corpus);
    /// # Ok::<(), kf_types::CheckpointError>(())
    /// ```
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let _save = kf_telemetry::span("corpus_save");
        checkpoint::save(path.as_ref(), ArtifactKind::Corpus, self)?;
        if let Ok(meta) = std::fs::metadata(path.as_ref()) {
            kf_telemetry::add("persist.bytes_written", meta.len());
        }
        Ok(())
    }

    /// Load a corpus checkpoint written by [`Corpus::save`].
    ///
    /// Fails with a typed [`CheckpointError`] on anything that is not a
    /// complete, current-version corpus checkpoint: wrong magic, format
    /// version skew, a different artifact kind, truncation, or trailing
    /// bytes.
    pub fn load(path: impl AsRef<Path>) -> Result<Corpus, CheckpointError> {
        let _load = kf_telemetry::span("corpus_load");
        let corpus = checkpoint::load(path.as_ref(), ArtifactKind::Corpus)?;
        if let Ok(meta) = std::fs::metadata(path.as_ref()) {
            kf_telemetry::add("persist.bytes_read", meta.len());
        }
        Ok(corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthConfig;
    use kf_types::checkpoint::FORMAT_VERSION;
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("kf-synth-persist-{}-{name}", std::process::id()))
    }

    #[test]
    fn save_load_roundtrips_the_whole_corpus() {
        let corpus = Corpus::generate(&SynthConfig::tiny(), 17);
        let path = tmp_path("roundtrip.kfc");
        corpus.save(&path).unwrap();
        let back = Corpus::load(&path).unwrap();
        assert_eq!(back, corpus);
        // The derived truth joins survive the roundtrip exactly.
        assert_eq!(back.dominant_outcomes(), corpus.dominant_outcomes());
        assert_eq!(back.taxonomy_truth(), corpus.taxonomy_truth());
        assert_eq!(back.lcwa_accuracy(), corpus.lcwa_accuracy());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn two_processes_worth_of_saves_are_byte_identical() {
        // Simulates the CI determinism gate in-process: two independent
        // generations from the same seed must encode identically.
        let a = Corpus::generate(&SynthConfig::tiny(), 5);
        let b = Corpus::generate(&SynthConfig::tiny(), 5);
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        a.encode(&mut ea);
        b.encode(&mut eb);
        assert_eq!(ea, eb, "same-seed corpus encodings must be identical");
    }

    #[test]
    fn truncated_checkpoints_never_parse() {
        let corpus = Corpus::generate(&SynthConfig::tiny(), 3);
        let path = tmp_path("truncate.kfc");
        corpus.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Sample truncation points across the file (every byte would be
        // slow at corpus size); always include the header boundary region.
        let cuts: Vec<usize> = (0..16)
            .chain((16..bytes.len()).step_by(bytes.len() / 64 + 1))
            .collect();
        for cut in cuts {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(Corpus::load(&path).is_err(), "cut at {cut} parsed");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_magic_and_version_skew_are_typed_errors() {
        let corpus = Corpus::generate(&SynthConfig::tiny(), 3);
        let path = tmp_path("magic.kfc");
        corpus.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(
            Corpus::load(&path),
            Err(CheckpointError::BadMagic)
        ));

        let mut skewed = good.clone();
        skewed[4..6].copy_from_slice(&(FORMAT_VERSION + 7).to_le_bytes());
        std::fs::write(&path, &skewed).unwrap();
        assert!(matches!(
            Corpus::load(&path),
            Err(CheckpointError::VersionSkew { found }) if found == FORMAT_VERSION + 7
        ));

        // A world checkpoint is not a corpus checkpoint.
        let world_path = tmp_path("world.kfc");
        corpus.world.save(&world_path).unwrap();
        assert!(matches!(
            Corpus::load(&world_path),
            Err(CheckpointError::WrongKind { .. })
        ));
        assert!(World::load(&world_path).is_ok());

        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&world_path).unwrap();
    }

    #[test]
    fn parallel_vector_length_mismatch_is_rejected() {
        let mut corpus = Corpus::generate(&SynthConfig::tiny(), 3);
        corpus.sections.pop();
        let mut buf = Vec::new();
        corpus.encode(&mut buf);
        assert_eq!(
            Corpus::decode(&mut &buf[..]),
            None,
            "desynced section vector must not decode"
        );
    }
}
