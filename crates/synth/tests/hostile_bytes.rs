//! Hostile bytes for the corpus and world checkpoint decoders: truncation
//! at and around every segment boundary, inflated segment length
//! prefixes and seeded single-bit flips. Every case must return an error
//! or a value, never panic; an inflated prefix must also not make the
//! decoder allocate more than the checkpoint holds.
//!
//! The decode runs on the calling thread, so the per-thread
//! largest-allocation reading covers the whole decode.

#[path = "../../types/tests/support/largest_alloc.rs"]
mod largest_alloc;

use kf_synth::{Corpus, SynthConfig, World};
use kf_types::checkpoint::{self, ArtifactKind};
use kf_types::KvCodec;
use largest_alloc::largest_during;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Magic (4) + format version (2) + artifact kind (1).
const HEADER: usize = 7;

fn prefix_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Offsets of `n` back-to-back segment length prefixes, the first at `at`.
fn prefixes(bytes: &[u8], mut at: usize, n: usize) -> Vec<usize> {
    (0..n)
        .map(|_| {
            let prefix = at;
            at += 8 + prefix_at(bytes, prefix) as usize;
            prefix
        })
        .collect()
}

/// Decode one case; a panic fails the test naming the case. Returns
/// whether the decode succeeded and the largest allocation it made.
fn decode_case<T: KvCodec>(kind: ArtifactKind, case: &str, bytes: &[u8]) -> (bool, usize) {
    let caught = std::panic::catch_unwind(|| {
        largest_during(|| checkpoint::decode::<T>(kind, bytes).is_ok())
    });
    caught.unwrap_or_else(|_| panic!("{case}: the {} decoder panicked", kind.name()))
}

/// Truncate at every segment boundary and one byte either side of it,
/// then set each length prefix to `len + 1`, to the bytes remaining + 1
/// and to `u64::MAX`. Only the untruncated checkpoint may decode.
fn truncations_and_inflated_prefixes<T: KvCodec>(
    kind: ArtifactKind,
    bytes: &[u8],
    prefixes: &[usize],
) {
    let mut boundaries = vec![HEADER, bytes.len()];
    for &p in prefixes {
        let end = p + 8 + prefix_at(bytes, p) as usize;
        boundaries.extend([p, p + 8, end]);
    }
    boundaries.sort_unstable();
    boundaries.dedup();
    for b in boundaries {
        for cut in [b - 1, b, b + 1] {
            if cut > bytes.len() {
                continue;
            }
            let (ok, _) = decode_case::<T>(kind, &format!("truncate at {cut}"), &bytes[..cut]);
            assert_eq!(
                ok,
                cut == bytes.len(),
                "truncation at {cut} of {}",
                bytes.len()
            );
        }
    }

    for &p in prefixes {
        let remaining = (bytes.len() - p - 8) as u64;
        for inflated in [prefix_at(bytes, p) + 1, remaining + 1, u64::MAX] {
            let mut hostile = bytes.to_vec();
            hostile[p..p + 8].copy_from_slice(&inflated.to_le_bytes());
            let case = format!("prefix at {p} set to {inflated}");
            let (ok, largest) = decode_case::<T>(kind, &case, &hostile);
            assert!(!ok, "{case}: decoded");
            assert!(
                largest <= bytes.len(),
                "{case}: allocated {largest} bytes for a {}-byte checkpoint",
                bytes.len()
            );
        }
    }
}

#[test]
fn hostile_corpus_and_world_checkpoints_never_panic() {
    let corpus = Corpus::generate(&SynthConfig::tiny(), 23);
    let bytes = checkpoint::encode(ArtifactKind::Corpus, &corpus);
    // The corpus's six segments, then the world's catalog and body inside
    // the first of them.
    let corpus_prefixes = prefixes(&bytes, HEADER, 6);
    let mut all_prefixes = prefixes(&bytes, corpus_prefixes[0] + 8, 2);
    all_prefixes.extend(&corpus_prefixes);
    truncations_and_inflated_prefixes::<Corpus>(ArtifactKind::Corpus, &bytes, &all_prefixes);

    let world = checkpoint::encode(ArtifactKind::World, &corpus.world);
    let world_prefixes = prefixes(&world, HEADER, 2);
    truncations_and_inflated_prefixes::<World>(ArtifactKind::World, &world, &world_prefixes);

    let mut rng = SmallRng::seed_from_u64(0x6b66_6869);
    for _ in 0..512 {
        let bit = rng.gen_range(HEADER * 8..bytes.len() * 8);
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        decode_case::<Corpus>(
            ArtifactKind::Corpus,
            &format!("bit {bit} flipped"),
            &flipped,
        );
    }
}
