//! Report persistence and shard merging.
//!
//! A sharded reproduction run fuses disjoint slices of the preset list in
//! separate processes (see the `repro` CLI's `--shard i/n`). Each shard
//! evaluates its presets over the *same* corpus checkpoint and persists a
//! partial [`EvalReport`] — full [`CorpusSummary`], subset of methods —
//! as a [`kf_types::checkpoint`] file ([`ArtifactKind::Report`]). A merge
//! step ([`merge_reports`]) then validates that every shard saw the same
//! corpus, reassembles the methods in the paper's ablation order, and
//! yields a report whose JSON serialization is **byte-identical** to the
//! single-process run (asserted by `kf-bench`'s shard test and a CI
//! gate).
//!
//! Everything in a [`MethodEval`] — calibration curves, PR curves,
//! precision@k, the optional taxonomy section — implements [`KvCodec`],
//! making `EvalReport` the second whole-output artifact on the binary
//! codec path (after `TaxonomyReport` in PR 4) and completing the
//! corpus → fuse → evaluate pipeline's persistence story.

use crate::ablation::Preset;
use crate::calibration::{Binning, CalibrationBin, CalibrationCurve};
use crate::pr::{PrCurve, PrPoint};
use crate::report::{CorpusSummary, EvalReport, MethodEval};
use kf_types::checkpoint::{self, ArtifactKind, CheckpointError};
use kf_types::{KvCodec, TaxonomyReport};
use std::path::Path;

impl KvCodec for Binning {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Binning::EqualWidth(n) => {
                out.push(0);
                n.encode(out);
            }
            Binning::EqualMass(n) => {
                out.push(1);
                n.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(Binning::EqualWidth(usize::decode(input)?)),
            1 => Some(Binning::EqualMass(usize::decode(input)?)),
            _ => None,
        }
    }
}

impl KvCodec for CalibrationBin {
    fn encode(&self, out: &mut Vec<u8>) {
        self.lo.encode(out);
        self.hi.encode(out);
        self.count.encode(out);
        self.mean_predicted.encode(out);
        self.observed_accuracy.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(CalibrationBin {
            lo: f64::decode(input)?,
            hi: f64::decode(input)?,
            count: usize::decode(input)?,
            mean_predicted: f64::decode(input)?,
            observed_accuracy: f64::decode(input)?,
        })
    }
}

impl KvCodec for CalibrationCurve {
    fn encode(&self, out: &mut Vec<u8>) {
        self.binning.encode(out);
        self.bins.encode(out);
        self.wdev.encode(out);
        self.ece.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(CalibrationCurve {
            binning: Binning::decode(input)?,
            bins: Vec::decode(input)?,
            wdev: f64::decode(input)?,
            ece: f64::decode(input)?,
        })
    }
}

impl KvCodec for PrPoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.threshold.encode(out);
        self.tp.encode(out);
        self.fp.encode(out);
        self.precision.encode(out);
        self.recall.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(PrPoint {
            threshold: f64::decode(input)?,
            tp: usize::decode(input)?,
            fp: usize::decode(input)?,
            precision: f64::decode(input)?,
            recall: f64::decode(input)?,
        })
    }
}

impl KvCodec for PrCurve {
    fn encode(&self, out: &mut Vec<u8>) {
        self.points.encode(out);
        self.auc.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(PrCurve {
            points: Vec::decode(input)?,
            auc: f64::decode(input)?,
        })
    }
}

impl KvCodec for MethodEval {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.label.encode(out);
        self.n_scored.encode(out);
        self.n_labelled.encode(out);
        self.n_true.encode(out);
        self.n_unpredicted.encode(out);
        self.coverage.encode(out);
        self.predicted_fraction.encode(out);
        self.calibration_width.encode(out);
        self.calibration_mass.encode(out);
        self.pr.encode(out);
        self.precision_at.encode(out);
        self.fuse_ms.encode(out);
        self.taxonomy.encode(out);
        self.trace.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(MethodEval {
            name: String::decode(input)?,
            label: String::decode(input)?,
            n_scored: usize::decode(input)?,
            n_labelled: usize::decode(input)?,
            n_true: usize::decode(input)?,
            n_unpredicted: usize::decode(input)?,
            coverage: f64::decode(input)?,
            predicted_fraction: f64::decode(input)?,
            calibration_width: CalibrationCurve::decode(input)?,
            calibration_mass: CalibrationCurve::decode(input)?,
            pr: PrCurve::decode(input)?,
            precision_at: Vec::decode(input)?,
            fuse_ms: f64::decode(input)?,
            taxonomy: Option::<TaxonomyReport>::decode(input)?,
            trace: Option::<kf_telemetry::TraceReport>::decode(input)?,
        })
    }
}

impl KvCodec for CorpusSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        self.scale.encode(out);
        self.seed.encode(out);
        self.n_records.encode(out);
        self.n_unique_triples.encode(out);
        self.n_data_items.encode(out);
        self.n_gold_items.encode(out);
        self.lcwa_accuracy.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(CorpusSummary {
            scale: String::decode(input)?,
            seed: u64::decode(input)?,
            n_records: usize::decode(input)?,
            n_unique_triples: usize::decode(input)?,
            n_data_items: usize::decode(input)?,
            n_gold_items: usize::decode(input)?,
            lcwa_accuracy: f64::decode(input)?,
        })
    }
}

impl KvCodec for EvalReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.corpus.encode(out);
        self.methods.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(EvalReport {
            corpus: CorpusSummary::decode(input)?,
            methods: Vec::decode(input)?,
        })
    }
}

impl EvalReport {
    /// Atomically write this report (full or one shard's slice) as a
    /// headered binary checkpoint file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let _save = kf_telemetry::span("report_save");
        checkpoint::save(path.as_ref(), ArtifactKind::Report, self)?;
        if let Ok(meta) = std::fs::metadata(path.as_ref()) {
            kf_telemetry::add("persist.bytes_written", meta.len());
        }
        Ok(())
    }

    /// Load a report checkpoint written by [`EvalReport::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<EvalReport, CheckpointError> {
        let _load = kf_telemetry::span("report_load");
        let report = checkpoint::load(path.as_ref(), ArtifactKind::Report)?;
        if let Ok(meta) = std::fs::metadata(path.as_ref()) {
            kf_telemetry::add("persist.bytes_read", meta.len());
        }
        Ok(report)
    }
}

/// Why shard reports could not be merged.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// No shard reports were supplied.
    NoShards,
    /// A shard evaluated a different corpus than the first one (scale,
    /// seed or any count differs) — merging would splice incomparable
    /// results.
    CorpusMismatch {
        /// Name of a method carried by the mismatching shard (for the
        /// error message; empty when the shard is method-less).
        shard_method: String,
    },
    /// Two shards both evaluated this method.
    DuplicateMethod(String),
    /// A method name no preset claims — ablation order is undefined.
    UnknownMethod(String),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::NoShards => f.write_str("no shard reports to merge"),
            MergeError::CorpusMismatch { shard_method } => write!(
                f,
                "shard (method {shard_method:?}) evaluated a different corpus; \
                 all shards must run from the same corpus checkpoint"
            ),
            MergeError::DuplicateMethod(name) => {
                write!(f, "method {name:?} appears in more than one shard")
            }
            MergeError::UnknownMethod(name) => {
                write!(f, "method {name:?} is not a known preset")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Merge shard reports into one full report.
///
/// Every shard must carry an identical [`CorpusSummary`] (they all ran
/// from the same corpus checkpoint); the union of their methods must be
/// duplicate-free and consist of known presets. Methods are reassembled
/// in the paper's ablation order ([`Preset::ALL`]), so merging the shards
/// of a run reproduces the single-process report exactly — byte-identical
/// JSON when fuse times are zeroed (`repro --deterministic`).
pub fn merge_reports(
    shards: impl IntoIterator<Item = EvalReport>,
) -> Result<EvalReport, MergeError> {
    let mut shards = shards.into_iter();
    let first = shards.next().ok_or(MergeError::NoShards)?;
    let corpus = first.corpus;
    let mut methods = first.methods;
    for shard in shards {
        if shard.corpus != corpus {
            return Err(MergeError::CorpusMismatch {
                shard_method: shard
                    .methods
                    .first()
                    .map(|m| m.name.clone())
                    .unwrap_or_default(),
            });
        }
        methods.extend(shard.methods);
    }
    let ablation_index = |m: &MethodEval| -> Result<usize, MergeError> {
        Preset::ALL
            .iter()
            .position(|p| p.name() == m.name)
            .ok_or_else(|| MergeError::UnknownMethod(m.name.clone()))
    };
    let mut seen = [false; Preset::ALL.len()];
    for m in &methods {
        let idx = ablation_index(m)?;
        if seen[idx] {
            return Err(MergeError::DuplicateMethod(m.name.clone()));
        }
        seen[idx] = true;
    }
    methods.sort_by_key(|m| {
        ablation_index(m).expect("method names validated against Preset::ALL above")
    });
    Ok(EvalReport { corpus, methods })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kf_synth::{Corpus, SynthConfig};
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("kf-eval-persist-{}-{name}", std::process::id()))
    }

    /// A real (tiny) report so the codec test covers every nested type.
    fn full_report() -> EvalReport {
        let corpus = Corpus::generate(&SynthConfig::tiny(), 7);
        let runner = crate::AblationRunner {
            scale: "tiny".into(),
            workers: Some(2),
            ..Default::default()
        };
        crate::ablation::tests::report(&runner, &corpus)
    }

    /// Bit-exact equality via the canonical encoding: report structs can
    /// hold NaN (empty calibration bins), so `==` would be false-negative
    /// while the byte encoding — NaN travels by bit pattern — is exact.
    fn assert_bits_eq(a: &EvalReport, b: &EvalReport) {
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        a.encode(&mut ea);
        b.encode(&mut eb);
        assert_eq!(ea, eb, "reports differ at the byte level");
    }

    fn slice(report: &EvalReport, names: &[&str]) -> EvalReport {
        EvalReport {
            corpus: report.corpus.clone(),
            methods: report
                .methods
                .iter()
                .filter(|m| names.contains(&m.name.as_str()))
                .cloned()
                .collect(),
        }
    }

    #[test]
    fn report_roundtrips_through_codec_and_file() {
        let report = full_report();
        let mut buf = Vec::new();
        report.encode(&mut buf);
        let mut input = &buf[..];
        let back = EvalReport::decode(&mut input).unwrap();
        assert!(input.is_empty());
        assert_bits_eq(&back, &report);
        // And the user-facing JSON is unchanged by the roundtrip.
        assert_eq!(back.to_json_string(), report.to_json_string());

        let path = tmp_path("report.kfr");
        report.save(&path).unwrap();
        assert_bits_eq(&EvalReport::load(&path).unwrap(), &report);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_report_checkpoints_never_parse() {
        let report = full_report();
        let bytes = kf_types::checkpoint::encode(ArtifactKind::Report, &report);
        let cuts: Vec<usize> = (0..16)
            .chain((16..bytes.len()).step_by(bytes.len() / 64 + 1))
            .collect();
        for cut in cuts {
            assert!(
                kf_types::checkpoint::decode::<EvalReport>(ArtifactKind::Report, &bytes[..cut])
                    .is_err(),
                "cut at {cut} parsed"
            );
        }
    }

    #[test]
    fn merge_reassembles_ablation_order_from_any_shard_split() {
        let report = full_report();
        // Round-robin split across 2 shards, merged in *reverse* shard
        // order: the merge must still restore the ablation order.
        let shard0 = slice(&report, &["vote", "popaccu", "popaccu_plus"]);
        let shard1 = slice(&report, &["accu", "popaccu_plus_unsup"]);
        let merged = merge_reports([shard1, shard0]).unwrap();
        assert_bits_eq(&merged, &report);
        assert_eq!(merged.to_json_string(), report.to_json_string());
    }

    #[test]
    fn merge_rejects_corpus_mismatch_duplicates_and_unknowns() {
        let report = full_report();
        let shard0 = slice(&report, &["vote"]);
        let mut other = slice(&report, &["accu"]);
        other.corpus.seed ^= 1;
        assert!(matches!(
            merge_reports([shard0.clone(), other]),
            Err(MergeError::CorpusMismatch { shard_method }) if shard_method == "accu"
        ));
        assert_eq!(
            merge_reports([shard0.clone(), shard0.clone()]),
            Err(MergeError::DuplicateMethod("vote".into()))
        );
        let mut rogue = slice(&report, &["accu"]);
        rogue.methods[0].name = "mystery".into();
        assert_eq!(
            merge_reports([shard0, rogue]),
            Err(MergeError::UnknownMethod("mystery".into()))
        );
        assert_eq!(merge_reports([]), Err(MergeError::NoShards));
    }

    #[test]
    fn single_shard_merge_is_identity() {
        let report = full_report();
        assert_bits_eq(&merge_reports([report.clone()]).unwrap(), &report);
    }
}
