//! Checkpoint robustness for the `FusedKb` artifact kind, mirroring the
//! PR 5 error taxonomy: a damaged, mislabeled or version-skewed KB file
//! must fail with the *specific* typed error — never load as garbage —
//! and KB writes must be atomic (a torn write leaves the previous file
//! intact).

use kf_eval::Preset;
use kf_serve::{FusedKb, KbBuildOptions, KbReader};
use kf_synth::{Corpus, SynthConfig};
use kf_types::checkpoint::{self, ArtifactKind, CheckpointError, FORMAT_VERSION, MAGIC};
use std::path::PathBuf;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kf-serve-ckpt-{}-{name}", std::process::id()))
}

fn fixture_kb() -> FusedKb {
    let corpus = Corpus::generate(&SynthConfig::tiny(), 3);
    FusedKb::build_from_corpus(&corpus, &KbBuildOptions::default(), "tiny").expect("build")
}

fn kb_bytes(kb: &FusedKb) -> Vec<u8> {
    checkpoint::encode(ArtifactKind::FusedKb, kb)
}

#[test]
fn save_load_roundtrips_exactly() {
    let kb = fixture_kb();
    let path = tmp_path("roundtrip.kb");
    kb.save(&path).expect("save");
    let loaded = FusedKb::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, kb);
}

/// For every preset at `tiny` and `small`, the decoded KB equals the
/// compiled one — calibrated confidences, which decode derives from the
/// stored curve, compared by their bits — and encodes back to the same
/// bytes.
#[test]
fn every_preset_roundtrips_bit_for_bit() {
    for (scale, config) in [
        ("tiny", SynthConfig::tiny()),
        ("small", SynthConfig::small()),
    ] {
        let corpus = Corpus::generate(&config, 42);
        for preset in Preset::ALL {
            let case = format!("{scale} {}", preset.name());
            let opts = KbBuildOptions {
                method: preset.name().to_string(),
                workers: None,
            };
            let kb = FusedKb::build_from_corpus(&corpus, &opts, scale).expect("build");
            let bytes = kb_bytes(&kb);
            let decoded: FusedKb =
                checkpoint::decode(ArtifactKind::FusedKb, &bytes).expect("decodes");
            assert!(decoded == kb, "{case}: decoded KB differs");
            assert!(
                kb_bytes(&decoded) == bytes,
                "{case}: re-encoded to other bytes"
            );
            let (compiled, decoded) = (KbReader::new(kb), KbReader::new(decoded));
            assert!(compiled.kb().n_triples() > 0, "{case}: empty KB");
            for row in 0..compiled.kb().n_triples() as u32 {
                assert_eq!(
                    decoded.view(row).calibrated.to_bits(),
                    compiled.view(row).calibrated.to_bits(),
                    "{case}: calibrated of row {row}"
                );
            }
        }
    }
}

#[test]
fn truncation_is_rejected_at_every_prefix_class() {
    let kb = fixture_kb();
    let bytes = kb_bytes(&kb);
    // Inside the header → BadMagic; after the header → Corrupt. Probe a
    // spread of cut points rather than every byte (the payload is big).
    for cut in [0, 1, 3, 5, 6] {
        match checkpoint::decode::<FusedKb>(ArtifactKind::FusedKb, &bytes[..cut]) {
            Err(CheckpointError::BadMagic) => {}
            other => panic!("cut {cut}: expected BadMagic, got {other:?}"),
        }
    }
    for cut in [7, 8, bytes.len() / 2, bytes.len() - 1] {
        match checkpoint::decode::<FusedKb>(ArtifactKind::FusedKb, &bytes[..cut]) {
            Err(CheckpointError::Corrupt) => {}
            other => panic!("cut {cut}: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let kb = fixture_kb();
    let mut bytes = kb_bytes(&kb);
    bytes.push(0);
    match checkpoint::decode::<FusedKb>(ArtifactKind::FusedKb, &bytes) {
        Err(CheckpointError::TrailingBytes) => {}
        other => panic!("expected TrailingBytes, got {other:?}"),
    }
}

#[test]
fn wrong_kind_is_rejected_both_ways() {
    let kb = fixture_kb();
    // A KB file handed to a corpus loader…
    let bytes = kb_bytes(&kb);
    match checkpoint::decode::<Corpus>(ArtifactKind::Corpus, &bytes) {
        Err(e @ CheckpointError::WrongKind { .. }) => {
            let msg = e.to_string();
            assert!(msg.contains("fused-kb") && msg.contains("corpus"), "{msg}");
        }
        other => panic!("expected WrongKind, got {other:?}"),
    }
    // …and a corpus file handed to the KB loader.
    let corpus = Corpus::generate(&SynthConfig::tiny(), 3);
    let corpus_bytes = checkpoint::encode(ArtifactKind::Corpus, &corpus);
    match checkpoint::decode::<FusedKb>(ArtifactKind::FusedKb, &corpus_bytes) {
        Err(CheckpointError::WrongKind { .. }) => {}
        other => panic!("expected WrongKind, got {other:?}"),
    }
}

#[test]
fn version_skew_is_rejected_with_found_version() {
    let kb = fixture_kb();
    let mut bytes = kb_bytes(&kb);
    // The previous version's header (a KB that wrote every integer
    // column at its type's full width): same magic, older version — the skew
    // must be reported before the kind is examined, so an older reader
    // meeting a newer file sees a version error, not a misparse or an
    // unknown-kind one.
    bytes[4..6].copy_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
    match checkpoint::decode::<FusedKb>(ArtifactKind::FusedKb, &bytes) {
        Err(CheckpointError::VersionSkew { found }) => {
            assert_eq!(found, FORMAT_VERSION - 1);
        }
        other => panic!("expected VersionSkew, got {other:?}"),
    }
    assert_eq!(&bytes[..4], MAGIC.as_slice(), "magic untouched");
}

/// KB writes are atomic: overwriting a valid KB with a new build leaves
/// no observable intermediate state, and a failed build-path write (no
/// such directory) leaves the original file byte-identical.
#[test]
fn kb_writes_are_atomic_on_the_build_path() {
    let kb = fixture_kb();
    let path = tmp_path("atomic.kb");
    kb.save(&path).expect("first save");
    let original = std::fs::read(&path).expect("readable");

    // Same-seed rebuild overwrites in place via temp-file + rename.
    let rebuilt = fixture_kb();
    rebuilt.save(&path).expect("overwrite");
    assert_eq!(
        std::fs::read(&path).expect("readable"),
        original,
        "same-seed rebuild must be byte-identical"
    );

    // A write that fails mid-stream must not clobber the existing file.
    let failed = checkpoint::write_atomic(&path, |_w| {
        Err::<(), std::io::Error>(std::io::Error::other("simulated torn write"))
    });
    assert!(failed.is_err());
    assert_eq!(
        std::fs::read(&path).expect("still readable"),
        original,
        "failed write must leave the previous KB intact"
    );
    // And the reader still serves it.
    let reader = KbReader::open(&path).expect("opens");
    assert_eq!(reader.kb().n_triples(), kb.n_triples());
    std::fs::remove_file(&path).ok();

    // No leftover temp files from any of the writes above.
    let dir = path.parent().expect("has parent");
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .expect("listable")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains("atomic.kb.tmp-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
}

/// The encoded size of the `small` seed-42 KB of every method, pinned to
/// the byte: a layout change that grows (or shrinks) the file shows as a
/// diff here. POPACCU+, the KB the benchmark serves, stays within 32
/// bytes a triple (49.70 when every integer column was written at its
/// type's full width).
#[test]
fn small_kb_sizes_are_pinned() {
    let corpus = Corpus::generate(&SynthConfig::small(), 42);
    let pinned = [
        (Preset::Vote, 671_318, 18_914),
        (Preset::Accu, 671_318, 18_914),
        (Preset::PopAccu, 671_324, 18_914),
        (Preset::PopAccuPlusUnsup, 524_165, 18_268),
        (Preset::PopAccuPlus, 529_932, 18_511),
    ];
    for (preset, bytes, triples) in pinned {
        let opts = KbBuildOptions {
            method: preset.name().to_string(),
            workers: None,
        };
        let kb = FusedKb::build_from_corpus(&corpus, &opts, "small").expect("build");
        let got = (kb_bytes(&kb).len(), kb.n_triples());
        assert_eq!(got, (bytes, triples), "{}: (bytes, triples)", preset.name());
    }
    let (_, bytes, triples) = pinned[4];
    assert!(
        bytes <= 32 * triples,
        "POPACCU+: {bytes} B for {triples} triples"
    );
}
