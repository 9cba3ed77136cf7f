//! Hostile bytes for the shard-report decoder — what a coordinator runs
//! on every `TaskDone` from any registered worker: truncation at every
//! offset, every length prefix inflated and seeded single-bit flips, on a
//! traced, diagnosing shard report. Every case must return an error or a
//! value, never panic. A truncated report or an inflated length prefix
//! must not make the decoder allocate more than the report's length: a
//! length prefix is a count of elements, and an element (a `MethodEval`,
//! a span) can be far larger in memory than encoded.
//!
//! The decode runs on the calling thread, so the per-thread
//! largest-allocation reading covers the whole decode.

#[path = "../../types/tests/support/largest_alloc.rs"]
mod largest_alloc;

use kf_bench::{run_on_corpus, ReproOptions};
use kf_eval::{EvalReport, Preset};
use kf_synth::{Corpus, SynthConfig};
use kf_types::checkpoint::{self, ArtifactKind};
use largest_alloc::largest_during;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Magic (4) + format version (2) + artifact kind (1).
const HEADER: usize = 7;

/// Decode one case; a panic fails the test naming the case. Returns the
/// decoded report, if any, and the largest allocation the decode made.
fn decode_case(case: &str, bytes: &[u8]) -> (Option<EvalReport>, usize) {
    let caught = std::panic::catch_unwind(|| {
        largest_during(|| checkpoint::decode::<EvalReport>(ArtifactKind::Report, bytes).ok())
    });
    caught.unwrap_or_else(|_| panic!("{case}: the report decoder panicked"))
}

/// A traced, diagnosing two-preset shard report, as a worker ships it
/// (its timings quarantined, so the bytes are the same every run).
fn shard_report() -> Vec<u8> {
    let corpus = Corpus::generate(&SynthConfig::tiny(), 11);
    let opts = ReproOptions {
        scale: "tiny".into(),
        seed: 11,
        out: None,
        workers: Some(2),
        presets: vec![Preset::Vote, Preset::PopAccu],
        deterministic: true,
        ..Default::default()
    };
    let report = run_on_corpus(&opts, &corpus);
    assert!(report.methods.iter().all(|m| m.trace.is_some()));
    assert!(report.methods.iter().all(|m| m.taxonomy.is_some()));
    checkpoint::encode(ArtifactKind::Report, &report)
}

#[test]
fn hostile_shard_reports_never_panic_or_over_allocate() {
    let bytes = shard_report();
    let len = bytes.len();
    let (decoded, largest) = decode_case("untouched", &bytes);
    let decoded = decoded.expect("the untouched report decodes");
    assert!(largest <= len, "untouched: allocated {largest} of {len}");
    assert_eq!(checkpoint::encode(ArtifactKind::Report, &decoded), bytes);

    // Truncated anywhere, the report does not decode.
    for cut in 0..len {
        let case = format!("truncated at {cut}");
        let (decoded, largest) = decode_case(&case, &bytes[..cut]);
        assert!(decoded.is_none(), "{case}: decoded");
        assert!(largest <= len, "{case}: allocated {largest} of {len}");
    }

    // Every 8-byte window that could be a length prefix — its value fits
    // in the bytes after it, as every genuine prefix's does — set to one
    // past the bytes left and to `u64::MAX`. A window that was really a
    // plain integer may still decode, but only to a report that encodes
    // back to exactly the bytes given; a length prefix never decodes.
    let mut inflated_prefixes = 0;
    for at in HEADER..len - 8 {
        let value = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let left = (len - at - 8) as u64;
        if value > left {
            continue;
        }
        for inflated in [left + 1, u64::MAX] {
            let mut hostile = bytes.clone();
            hostile[at..at + 8].copy_from_slice(&inflated.to_le_bytes());
            let case = format!("window at {at} set from {value} to {inflated}");
            let (decoded, largest) = decode_case(&case, &hostile);
            assert!(largest <= len, "{case}: allocated {largest} of {len}");
            match decoded {
                Some(report) => {
                    let again = checkpoint::encode(ArtifactKind::Report, &report);
                    assert!(again == hostile, "{case}: decoded to other bytes");
                }
                None => inflated_prefixes += 1,
            }
        }
    }
    // The report's strings, span lists, method list and maps all carry
    // prefixes; far more than a handful of windows must have been one.
    assert!(
        inflated_prefixes > 100,
        "{inflated_prefixes} rejected windows"
    );

    // A flip can turn a short run's length into a longer one whose
    // elements still decode from the bytes after it. That run then takes
    // the memory its values need, which for elements larger in memory than
    // encoded (a 64-byte `BandBreakdown`) exceeds their bytes, and a
    // growing run may double once: a small multiple of the input, never a
    // multiple of the prefix.
    let mut rng = SmallRng::seed_from_u64(0x6b66_7270);
    for _ in 0..2_048 {
        let bit = rng.gen_range(HEADER * 8..len * 8);
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let case = format!("bit {bit} flipped");
        let (_, largest) = decode_case(&case, &flipped);
        assert!(largest <= 4 * len, "{case}: allocated {largest} of {len}");
    }
}
