//! Hostile bytes for the KB checkpoint decoder — what `kf-serve` runs on
//! every file it is asked to open: truncation at every offset, every
//! length prefix inflated and seeded single-bit flips, on a small
//! POPACCU+ KB. Every case must return an error or a KB, never panic. A
//! truncated file or an inflated length prefix must not make the decoder
//! allocate more than the file's length. And a KB that decodes must answer
//! `belief`, `top_k`, `lookup` and `drilldown` with its own rows: a flip
//! that leaves the file parseable must not make an index serve another
//! item's or another predicate's rows. Targeted cases damage what decode
//! rebuilds the unstored columns from: the item run lengths that expand
//! into the row keys and the calibration curve that yields the calibrated
//! column; others forge the packed columns' framing: widths, lengths,
//! running sums, and the counts one column fixes for another.
//!
//! The decode runs on the calling thread, so the per-thread
//! largest-allocation reading covers the whole decode.

#[path = "../../types/tests/support/largest_alloc.rs"]
mod largest_alloc;

use kf_serve::{FusedKb, KbBuildOptions, KbReader, TripleView};
use kf_synth::{Corpus, SynthConfig};
use kf_types::checkpoint::{self, ArtifactKind};
use kf_types::{codec, DataItem, EntityId, KvCodec, PredicateId};
use largest_alloc::largest_during;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::ops::Range;

/// Magic (4) + format version (2) + artifact kind (1).
const HEADER: usize = 7;

/// Decode one case; a panic fails the test naming the case. Returns the
/// decoded KB, if any, and the largest allocation the decode made.
fn decode_case(case: &str, bytes: &[u8]) -> (Option<FusedKb>, usize) {
    let caught = std::panic::catch_unwind(|| {
        largest_during(|| checkpoint::decode::<FusedKb>(ArtifactKind::FusedKb, bytes).ok())
    });
    caught.unwrap_or_else(|_| panic!("{case}: the KB decoder panicked"))
}

/// Every query of a decoded KB agrees with a scan of its own rows: each
/// triple looks up and drills down to its row, each item's belief is
/// exactly its rows in row order, and each predicate's full ranking is
/// exactly its rows, calibrated descending with ties in row order.
fn assert_answers_its_own_rows(case: &str, kb: FusedKb) {
    let reader = KbReader::new(kb);
    let rows: Vec<TripleView> = (0..reader.kb().n_triples() as u32)
        .map(|row| reader.view(row))
        .collect();
    let mut items: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
    let mut predicates: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for v in &rows {
        let t = v.triple;
        items
            .entry((t.subject.0, t.predicate.0))
            .or_default()
            .push(v.row);
        predicates.entry(t.predicate.0).or_default().push(v.row);
        let found = reader.lookup(&t).map(|found| found.row);
        assert_eq!(found, Some(v.row), "{case}: lookup of row {}", v.row);
        let drilled = reader.drilldown(&t).expect("a served triple drills down");
        assert_eq!(
            drilled.view().row,
            v.row,
            "{case}: drilldown of row {}",
            v.row
        );
        assert_eq!(drilled.iter().count(), drilled.len(), "{case}");
    }
    for ((subject, predicate), want) in &items {
        let item = DataItem::new(EntityId(*subject), PredicateId(*predicate));
        let belief = reader.belief(item).expect("a served item has a belief");
        let got: Vec<u32> = belief.iter().map(|v| v.row).collect();
        assert_eq!(&got, want, "{case}: belief of {item:?}");
    }
    for (predicate, want) in &mut predicates {
        want.sort_by(|&a, &b| {
            let (ca, cb) = (rows[a as usize].calibrated, rows[b as usize].calibrated);
            cb.total_cmp(&ca).then(a.cmp(&b))
        });
        let top = reader.top_k(PredicateId(*predicate), usize::MAX);
        let got: Vec<u32> = top
            .expect("a served predicate ranks")
            .iter()
            .map(|v| v.row)
            .collect();
        assert_eq!(&got, want, "{case}: top_k of predicate {predicate}");
    }
}

/// A fifth of `tiny`'s pages: a few hundred triples over every
/// predicate, small enough to truncate at every offset. Returned with its
/// checkpoint bytes.
fn fixture() -> (FusedKb, Vec<u8>) {
    let mut config = SynthConfig::tiny();
    config.web.n_pages = 40;
    let corpus = Corpus::generate(&config, 42);
    let kb = FusedKb::build_from_corpus(&corpus, &KbBuildOptions::default(), "tiny").unwrap();
    let bytes = checkpoint::encode(ArtifactKind::FusedKb, &kb);
    (kb, bytes)
}

#[test]
fn hostile_kb_checkpoints_never_panic_or_serve_foreign_rows() {
    let (kb, bytes) = fixture();
    let len = bytes.len();
    let (decoded, largest) = decode_case("untouched", &bytes);
    assert_eq!(decoded.as_ref(), Some(&kb), "the untouched KB decodes");
    assert!(largest <= len, "untouched: allocated {largest} of {len}");
    assert_answers_its_own_rows("untouched", kb);

    // Truncated anywhere, the KB does not decode.
    for cut in 0..len {
        let case = format!("truncated at {cut}");
        let (decoded, largest) = decode_case(&case, &bytes[..cut]);
        assert!(decoded.is_none(), "{case}: decoded");
        assert!(largest <= len, "{case}: allocated {largest} of {len}");
    }

    // Every 8-byte window that could be a length prefix — its value fits
    // in the bytes after it, as every genuine prefix's does — set to one
    // past the bytes left and to `u64::MAX`. A window that was really a
    // plain integer may still decode, but only to a KB that encodes back
    // to exactly the bytes given; a length prefix never decodes.
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
                Some(kb) => {
                    let again = checkpoint::encode(ArtifactKind::FusedKb, &kb);
                    assert!(again == hostile, "{case}: decoded to other bytes");
                }
                None => inflated_prefixes += 1,
            }
        }
    }
    // The KB's columns, strings and registry lists all carry prefixes.
    assert!(
        inflated_prefixes > 40,
        "{inflated_prefixes} rejected windows"
    );

    // Seeded single-bit flips: many land in a value column and still
    // decode; each such KB must answer from its own rows.
    let mut rng = SmallRng::seed_from_u64(0x6b66_6b62);
    let mut decoded_flips = 0;
    for _ in 0..20_000 {
        let bit = rng.gen_range(HEADER * 8..len * 8);
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let case = format!("bit {bit} flipped");
        let (decoded, largest) = decode_case(&case, &flipped);
        assert!(largest <= len, "{case}: allocated {largest} of {len}");
        if let Some(kb) = decoded {
            decoded_flips += 1;
            assert_answers_its_own_rows(&case, kb);
        }
    }
    assert!(decoded_flips > 1_000, "{decoded_flips} flipped KBs decoded");
}

/// The byte range of the stored calibration curve: it follows the header
/// fields, and is the binning (tag + bin count), the length-prefixed bins
/// (five 8-byte fields each), then the curve's WDEV and ECE.
fn curve_range(kb: &FusedKb, bytes: &[u8]) -> Range<usize> {
    let mut head = Vec::new();
    kb.corpus.encode(&mut head);
    kb.method.encode(&mut head);
    kb.method_label.encode(&mut head);
    kb.wdev.encode(&mut head);
    kb.ece.encode(&mut head);
    kb.auc_pr.encode(&mut head);
    kb.n_dropped.encode(&mut head);
    let at = HEADER + head.len();
    let bins_at = at + 9;
    let bins = u64::from_le_bytes(bytes[bins_at..bins_at + 8].try_into().unwrap()) as usize;
    let wdev_at = bins_at + 8 + 40 * bins;
    // The curve's own WDEV is the KB's: the range is where it should be.
    assert_eq!(bytes[wdev_at..wdev_at + 8], kb.wdev.to_bits().to_le_bytes());
    at..wdev_at + 16
}

/// The KB's columns after the curve, in file order. `raw` and
/// `prov_accuracy` are `f64` columns (a length, then 8 bytes a value);
/// every other one is packed (a length, a width byte, then `len × width`
/// bytes). The extractor names follow them to the end of the file.
const COLUMNS: [&str; 22] = [
    "raw",
    "obj_tags",
    "obj_payloads",
    "labels",
    "pages",
    "extractor_counts",
    "fallback",
    "item_subject_deltas",
    "item_predicates",
    "item_runs",
    "pred_ids",
    "pred_runs",
    "rank",
    "prov_accuracy",
    "prov_extractors",
    "prov_pages_or_sites",
    "prov_predicates",
    "prov_patterns",
    "prov_masks",
    "prov_evaluated",
    "prov_runs",
    "prov_ids",
];

/// Each column's byte range, found by walking the length prefixes from
/// the end of the curve: the walk must end where the extractor names
/// start, and the `raw` column must hold one value a served triple.
fn column_ranges(kb: &FusedKb, bytes: &[u8]) -> BTreeMap<&'static str, Range<usize>> {
    let mut at = curve_range(kb, bytes).end;
    let mut ranges = BTreeMap::new();
    for name in COLUMNS {
        let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let end = match name {
            "raw" | "prov_accuracy" => at + 8 + 8 * len,
            _ => at + 9 + len * usize::from(bytes[at + 8]),
        };
        ranges.insert(name, at..end);
        at = end;
    }
    let mut names = &bytes[at..];
    assert!(Vec::<String>::decode(&mut names).is_some() && names.is_empty());
    let raw = &ranges["raw"];
    assert_eq!(raw.len(), 8 + 8 * kb.n_triples(), "the raw column");
    ranges
}

/// The values of the packed column at `range`.
fn column_values(bytes: &[u8], range: &Range<usize>) -> Vec<u64> {
    let mut input = &bytes[range.clone()];
    let values = codec::decode_packed(&mut input, usize::MAX).expect("a packed column");
    assert!(input.is_empty());
    values
}

/// A packed column of `values`, at the width they need.
fn packed(values: &[u64]) -> Vec<u8> {
    let mut column = Vec::new();
    codec::encode_packed(values.iter().copied(), &mut column);
    column
}

/// A packed column's length and width bytes followed by `body`, however
/// ill-matched.
fn packed_raw(len: u64, width: u8, body: &[u8]) -> Vec<u8> {
    let mut column = len.to_le_bytes().to_vec();
    column.push(width);
    column.extend_from_slice(body);
    column
}

/// Targeted damage to what decode rebuilds from — the item index that
/// expands into the row keys, and the curve that yields the calibrated
/// column — and to the packed columns' own framing: widths, lengths,
/// running sums and the counts one column fixes for another. Every case
/// is an error or a KB that answers its own rows, and no case allocates
/// more than the file's length — the rebuilt columns are sized by rows
/// present in the file, never by a prefix.
#[test]
fn damaged_item_index_or_curve_never_panics_or_serves_foreign_rows() {
    let (kb, bytes) = fixture();
    let len = bytes.len();
    let n = kb.n_triples() as u32;
    let columns = column_ranges(&kb, &bytes);
    let curve = curve_range(&kb, &bytes);

    let must_fail = |case: &str, hostile: Vec<u8>| {
        let (decoded, largest) = decode_case(case, &hostile);
        assert!(decoded.is_none(), "{case}: decoded");
        let bound = len.min(hostile.len());
        assert!(largest <= bound, "{case}: allocated {largest} of {bound}");
    };
    let with_column = |name: &str, column: &[u8]| {
        let range = columns[name].clone();
        [&bytes[..range.start], column, &bytes[range.end..]].concat()
    };
    // `name`'s values with the one at `i` replaced by `f` of it.
    let edited = |name: &str, i: usize, f: &dyn Fn(&[u64]) -> u64| {
        let mut values = column_values(&bytes, &columns[name]);
        values[i] = f(&values);
        with_column(name, &packed(&values))
    };

    // The item index: one row count a run, summing to the rows.
    let runs = column_values(&bytes, &columns["item_runs"]);
    let m = runs.len();
    assert_eq!((m, runs.iter().sum::<u64>()), (kb.n_items(), n as u64));
    let (last, middle) = (m - 1, m / 2);
    let before_middle: u64 = runs[..middle].iter().sum();
    assert!(before_middle > 0);
    must_fail(
        "last run one short",
        edited("item_runs", last, &|r| r[last] - 1),
    );
    must_fail(
        "last run one past the rows",
        edited("item_runs", last, &|r| r[last] + 1),
    );
    must_fail(
        "a run past the rows",
        edited("item_runs", middle, &|r| r[middle] + n as u64 + 5),
    );
    must_fail(
        "a run ending at u32::MAX",
        edited("item_runs", middle, &|_| {
            u64::from(u32::MAX) - before_middle
        }),
    );
    must_fail(
        "runs whose running sum passes u32::MAX",
        edited("item_runs", middle, &|_| u64::from(u32::MAX)),
    );
    let mut empty_first = runs.clone();
    empty_first[1] += std::mem::take(&mut empty_first[0]);
    must_fail(
        "an empty first run",
        with_column("item_runs", &packed(&empty_first)),
    );

    // Item subjects ascend, stored as deltas: one whose running sum
    // passes `u32::MAX` is refused, not wrapped.
    let deltas = column_values(&bytes, &columns["item_subject_deltas"]);
    let before_last: u64 = deltas[..last].iter().sum();
    assert!(before_last > 0);
    must_fail(
        "subject deltas whose running sum passes u32::MAX",
        edited("item_subject_deltas", last, &|_| {
            u64::from(u32::MAX) - before_last + 1
        }),
    );
    must_fail(
        "provenance runs whose running sum passes u32::MAX",
        edited("prov_runs", n as usize - 1, &|_| u64::from(u32::MAX)),
    );

    // Widths: 0, past 8, and wider than the column's type, with a top
    // byte set so that the type is all that is wrong.
    let rows = u64::from(n);
    must_fail(
        "pages at width 0",
        with_column("pages", &packed_raw(rows, 0, &[])),
    );
    let wide = |width: usize| vec![0xff; n as usize * width];
    must_fail(
        "pages at width 9",
        with_column("pages", &packed_raw(rows, 9, &wide(9))),
    );
    must_fail(
        "u32 pages at width 5",
        with_column("pages", &packed_raw(rows, 5, &wide(5))),
    );
    must_fail(
        "u16 extractor counts at width 3",
        with_column("extractor_counts", &packed_raw(rows, 3, &wide(3))),
    );

    // A `u64::MAX` length, in a per-row column, the item index and the
    // provenance id list.
    for name in ["pages", "item_subject_deltas", "prov_ids"] {
        let mut hostile = bytes.clone();
        let at = columns[name].start;
        hostile[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        must_fail(&format!("{name} length u64::MAX"), hostile);
    }

    // Lengths one column fixes for another: a per-row column one row
    // short or long, and a provenance id list that is not as long as the
    // per-row provenance runs sum to.
    let pages = column_values(&bytes, &columns["pages"]);
    must_fail(
        "one page count short",
        with_column("pages", &packed(&pages[1..])),
    );
    let one_more = [&pages[..], &[1]].concat();
    must_fail(
        "one page count more",
        with_column("pages", &packed(&one_more)),
    );
    let ids = column_values(&bytes, &columns["prov_ids"]);
    must_fail(
        "one provenance id short",
        with_column("prov_ids", &packed(&ids[1..])),
    );
    let one_more = [&ids[..], &[0]].concat();
    must_fail(
        "one provenance id more",
        with_column("prov_ids", &packed(&one_more)),
    );

    let bins_at = curve.start + 9;
    let left = (len - bins_at - 8) as u64;
    for value in [left + 1, u64::MAX] {
        let case = format!("curve bin count set to {value}");
        let mut hostile = bytes.clone();
        hostile[bins_at..bins_at + 8].copy_from_slice(&value.to_le_bytes());
        must_fail(&case, hostile);
    }

    // Every single-bit flip inside the curve: many still decode, to
    // calibrated confidences read off the flipped curve, and each such KB
    // must rank and answer from its own rows.
    let original: Vec<u64> = {
        let reader = KbReader::new(kb.clone());
        (0..n)
            .map(|row| reader.view(row).calibrated.to_bits())
            .collect()
    };
    let (mut decoded_flips, mut recalibrated) = (0, 0);
    for bit in curve.start * 8..curve.end * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let case = format!("curve bit {bit} flipped");
        let (decoded, largest) = decode_case(&case, &flipped);
        assert!(largest <= len, "{case}: allocated {largest} of {len}");
        if let Some(kb) = decoded {
            decoded_flips += 1;
            let reader = KbReader::new(kb.clone());
            let calibrated = (0..n).map(|row| reader.view(row).calibrated.to_bits());
            recalibrated += !calibrated.eq(original.iter().copied()) as usize;
            assert_answers_its_own_rows(&case, kb);
        }
    }
    assert!(decoded_flips > 0, "no flipped curve decoded");
    assert!(
        recalibrated > 0,
        "no flipped curve changed a calibrated row"
    );
}
