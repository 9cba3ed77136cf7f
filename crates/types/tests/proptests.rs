//! Property-based tests for the core data model.

#[path = "support/largest_alloc.rs"]
mod largest_alloc;

use kf_types::*;
use largest_alloc::largest_during;
use proptest::prelude::*;

/// A length prefix that promises more elements than there are bytes left
/// is refused before anything is reserved for it — on `u8`'s one-copy
/// path and on the element-wise default alike — and a wire frame that
/// declares the largest allowed payload but sends 16 bytes of it ends in
/// `UnexpectedEof` having buffered only what arrived.
#[test]
fn inflated_length_prefix_is_refused_without_allocating() {
    let mut buf = Vec::new();
    (1u64 << 40).encode(&mut buf);
    buf.extend_from_slice(&[7; 64]);
    let ((), largest) = largest_during(|| {
        assert_eq!(Vec::<u8>::decode(&mut &buf[..]), None);
        assert_eq!(Vec::<u32>::decode(&mut &buf[..]), None);
        assert_eq!(Vec::<String>::decode(&mut &buf[..]), None);
    });
    assert!(largest <= buf.len(), "decode allocated {largest} bytes");

    let mut frame = (wire::MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&[7; 16]);
    let (read, largest) = largest_during(|| wire::read_frame(&mut &frame[..]).map(|_| ()));
    assert_eq!(read.unwrap_err().kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(largest <= 64 << 10, "read_frame allocated {largest} bytes");
}

/// `decode_map` decodes an entry before it grows for it: cut at any byte,
/// an encoded map allocates no more than decoding a valid map of the
/// entries before the cut.
#[test]
fn a_cut_map_allocates_no_more_than_its_whole_entries() {
    let mut entries: Vec<(Value, Value)> = (0..100u32)
        .map(|i| {
            let value = Value::Num(Numeric(i64::from(i) * 7_919 - 300_000));
            (Value::Entity(EntityId(i * 3)), value)
        })
        .collect();
    entries.sort();
    let encode = |entries: &[(Value, Value)]| {
        let mut buf = Vec::new();
        codec::encode_map_sorted(&entries.iter().copied().collect(), &mut buf);
        buf
    };
    let full = encode(&entries);
    // Where each entry's bytes end: the 8-byte count, then the entries in
    // key order.
    let mut ends = Vec::new();
    let mut end = 8;
    for (key, value) in &entries {
        let mut bytes = Vec::new();
        key.encode(&mut bytes);
        value.encode(&mut bytes);
        end += bytes.len();
        ends.push(end);
    }
    assert_eq!(end, full.len());
    for cut in 0..full.len() {
        let whole = ends.iter().filter(|&&e| e <= cut).count();
        let valid = encode(&entries[..whole]);
        let (_, allowed) =
            largest_during(|| codec::decode_map::<Value, Value>(&mut &valid[..]).unwrap());
        let (decoded, largest) =
            largest_during(|| codec::decode_map::<Value, Value>(&mut &full[..cut]));
        assert!(decoded.is_none(), "cut at {cut} decoded");
        assert!(
            largest <= allowed,
            "cut at {cut} ({whole} whole entries) allocated {largest} B, a valid map of them {allowed} B"
        );
    }
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0u32..10_000).prop_map(|e| Value::Entity(EntityId(e))),
        (0u32..10_000).prop_map(|s| Value::Str(StrId(s))),
        (-1_000_000i64..1_000_000).prop_map(|n| Value::Num(Numeric(n))),
    ]
}

fn arb_triple() -> impl Strategy<Value = Triple> {
    ((0u32..5_000), (0u32..500), arb_value())
        .prop_map(|(s, p, o)| Triple::new(EntityId(s), PredicateId(p), o))
}

fn arb_provenance() -> impl Strategy<Value = Provenance> {
    ((0u16..12), (0u32..100_000), (0u32..1_000), (0u32..5_000)).prop_map(|(e, pg, st, pat)| {
        Provenance::new(ExtractorId(e), PageId(pg), SiteId(st), PatternId(pat))
    })
}

proptest! {
    /// KvCodec roundtrips exactly — for the shapes the shuffles actually
    /// spill: triples, packed provenance keys, and nested group tuples —
    /// and decode consumes precisely the bytes encode produced.
    #[test]
    fn codec_roundtrips_shuffle_shapes(
        triple in arb_triple(),
        prov in arb_provenance(),
        predicate in 0u32..500,
        values in prop::collection::vec((any::<u64>(), any::<u16>(), 0.0f64..1.0), 0..40),
        granularity_idx in 0usize..Granularity::ALL.len(),
    ) {
        fn roundtrip<T: KvCodec + PartialEq + std::fmt::Debug>(x: &T) {
            let mut buf = Vec::new();
            x.encode(&mut buf);
            let mut input = &buf[..];
            prop_assert_eq!(T::decode(&mut input).as_ref(), Some(x));
            prop_assert!(input.is_empty(), "decode left {} bytes", input.len());
        }
        roundtrip(&triple);
        let key = ProvenanceKey::at(Granularity::ALL[granularity_idx], &prov, PredicateId(predicate));
        roundtrip(&key);
        // A spilled group frame: (key, Vec<value>) as the engine writes it.
        roundtrip(&(triple.data_item(), values));
    }

    /// `Vec<T>` moves its body through `encode_run` / `decode_run` — one
    /// copy for `u8`, the provided loop for everything else — and both
    /// write exactly the bytes of the element-wise loop and read them back.
    #[test]
    fn run_codec_matches_the_elementwise_loop(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        words in prop::collection::vec(any::<u32>(), 0..100),
        strings in prop::collection::vec("[a-z]{1,8}", 0..20),
    ) {
        fn check<T: KvCodec + PartialEq + std::fmt::Debug>(xs: &Vec<T>) {
            let mut reference = Vec::new();
            (xs.len() as u64).encode(&mut reference);
            for x in xs {
                x.encode(&mut reference);
            }
            let mut buf = Vec::new();
            xs.encode(&mut buf);
            prop_assert_eq!(&buf, &reference);

            let mut input = &buf[..];
            prop_assert_eq!(Vec::<T>::decode(&mut input).as_ref(), Some(xs));
            prop_assert!(input.is_empty(), "decode left {} bytes", input.len());

            let mut input = &buf[..];
            let len = u64::decode(&mut input).unwrap();
            let elementwise: Vec<T> = (0..len).map(|_| T::decode(&mut input).unwrap()).collect();
            prop_assert_eq!(&elementwise, xs);
            prop_assert!(input.is_empty());
        }
        check(&bytes);
        check(&words);
        check(&strings);
    }

    /// Every proper prefix of an encoded byte vector is truncated input.
    #[test]
    fn truncated_byte_vectors_never_decode(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let mut buf = Vec::new();
        bytes.encode(&mut buf);
        for cut in 0..buf.len() {
            prop_assert_eq!(Vec::<u8>::decode(&mut &buf[..cut]), None, "cut at {}", cut);
        }
    }

    /// Value::encode never collides across variants for realistic id ranges.
    #[test]
    fn value_encode_injective(a in arb_value(), b in arb_value()) {
        if a != b {
            prop_assert_ne!(a.encode(), b.encode());
        } else {
            prop_assert_eq!(a.encode(), b.encode());
        }
    }

    /// DataItem::encode is injective over the u32 id space.
    #[test]
    fn data_item_encode_injective(s1 in any::<u32>(), p1 in any::<u32>(),
                                  s2 in any::<u32>(), p2 in any::<u32>()) {
        let a = DataItem::new(EntityId(s1), PredicateId(p1));
        let b = DataItem::new(EntityId(s2), PredicateId(p2));
        prop_assert_eq!(a.encode() == b.encode(), a == b);
    }

    /// A triple's data item always matches its subject/predicate.
    #[test]
    fn triple_item_projection(t in arb_triple()) {
        let item = t.data_item();
        prop_assert_eq!(item.subject, t.subject);
        prop_assert_eq!(item.predicate, t.predicate);
    }

    /// Projecting a provenance onto any granularity only ever *erases*
    /// information: every populated field equals the source field.
    #[test]
    fn provenance_key_fields_come_from_source(
        prov in arb_provenance(),
        pred in (0u32..500).prop_map(PredicateId),
        g in prop_oneof![
            Just(Granularity::ExtractorPage),
            Just(Granularity::ExtractorSite),
            Just(Granularity::ExtractorSitePredicate),
            Just(Granularity::ExtractorSitePredicatePattern),
            Just(Granularity::ExtractorPatternOnly),
            Just(Granularity::PageOnly),
        ],
    ) {
        let k = ProvenanceKey::at(g, &prov, pred);
        if let Some(e) = k.extractor { prop_assert_eq!(e, prov.extractor); }
        if let Some(p) = k.page { prop_assert_eq!(p, prov.page); }
        if let Some(s) = k.site { prop_assert_eq!(s, prov.site); }
        if let Some(p) = k.predicate { prop_assert_eq!(p, pred); }
        if let Some(p) = k.pattern { prop_assert_eq!(p, prov.pattern); }
    }

    /// Same (granularity, provenance, predicate) always gives the same key —
    /// provenance keys must be stable across the iterative pipeline rounds.
    #[test]
    fn provenance_key_deterministic(prov in arb_provenance(),
                                    pred in (0u32..500).prop_map(PredicateId)) {
        for g in Granularity::ALL {
            prop_assert_eq!(
                ProvenanceKey::at(g, &prov, pred),
                ProvenanceKey::at(g, &prov, pred)
            );
        }
    }

    /// LCWA invariants: inserting a triple makes it True; any other value on
    /// the same item becomes False; untouched items stay Unknown.
    #[test]
    fn gold_standard_lcwa(t in arb_triple(), other in arb_value(), foreign in arb_triple()) {
        let mut gs = GoldStandard::new();
        gs.insert(t.data_item(), t.object);
        prop_assert_eq!(gs.label(&t), Label::True);
        if other != t.object {
            let conflicting = Triple::new(t.subject, t.predicate, other);
            prop_assert_eq!(gs.label(&conflicting), Label::False);
        }
        if foreign.data_item() != t.data_item() {
            prop_assert_eq!(gs.label(&foreign), Label::Unknown);
        }
    }

    /// Gold-standard truth histogram always sums to the number of items.
    #[test]
    fn gold_histogram_mass(pairs in prop::collection::vec((arb_triple(), 1usize..4), 1..50)) {
        let mut gs = GoldStandard::new();
        for (t, extra) in &pairs {
            for i in 0..*extra {
                gs.insert(t.data_item(), Value::Entity(EntityId(i as u32)));
            }
        }
        let hist = gs.truth_count_histogram(10);
        prop_assert_eq!(hist.iter().sum::<usize>(), gs.n_items());
    }

    /// SkewSummary invariants: min <= median <= max and min <= mean <= max.
    #[test]
    fn skew_summary_bounds(counts in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let s = SkewSummary::from_counts(&counts).unwrap();
        prop_assert!(s.min as f64 <= s.median);
        prop_assert!(s.median <= s.max as f64);
        prop_assert!(s.min as f64 <= s.mean && s.mean <= s.max as f64);
        prop_assert_eq!(s.count, counts.len());
    }

    /// Interner: resolve(intern(s)) == s, and re-interning is stable.
    #[test]
    fn interner_roundtrip(strings in prop::collection::vec("[a-z]{1,12}", 1..50)) {
        let mut i = Interner::new();
        let ids: Vec<_> = strings.iter().map(|s| i.intern(s)).collect();
        for (s, id) in strings.iter().zip(&ids) {
            prop_assert_eq!(i.resolve(*id), s.as_str());
            prop_assert_eq!(i.intern(s), *id);
        }
    }

    /// A whole TaxonomyReport roundtrips through KvCodec exactly —
    /// the first full-report type covered by the hand-rolled codec
    /// (whole-output serialization), not just shuffle cells.
    #[test]
    fn taxonomy_report_roundtrips(
        bands in prop::collection::vec(
            ((0.0f64..1.0), 0u64..1_000, arb_counts()), 0..5),
        groups in prop::collection::vec((0u32..100, "[A-Z]{2,6}", arb_counts()), 0..20),
        confusion in prop::collection::vec((0usize..4, 0usize..4, 1u64..500), 0..16),
        accs in prop::collection::vec((0usize..4, 0.0f64..1.0), 0..4),
        attribution in (0u64..100, 0u64..100, any::<bool>()),
    ) {
        let bands: Vec<BandBreakdown> = bands
            .into_iter()
            .map(|(lo, n_true, counts)| BandBreakdown {
                lo,
                hi: lo + 0.1,
                n_labelled: n_true + counts.total(),
                n_true,
                counts,
            })
            .collect();
        let groups: Vec<GroupBreakdown> = groups
            .into_iter()
            .map(|(key, label, counts)| GroupBreakdown { key, label, counts })
            .collect();
        let report = TaxonomyReport {
            n_false_positives: bands.iter().map(|b| b.counts.total()).sum(),
            n_labelled: bands.iter().map(|b| b.n_labelled).sum(),
            bands,
            predicates: groups.clone(),
            extractors: groups.clone(),
            spread: groups.clone(),
            scenarios: groups,
            confusion: confusion
                .into_iter()
                .map(|(h, i, count)| ConfusionCell {
                    heuristic: ErrorCategory::from_index(h).unwrap(),
                    injected: ErrorCategory::from_index(i).unwrap(),
                    count,
                })
                .collect(),
            mean_prov_accuracy: accs
                .into_iter()
                .map(|(c, a)| (ErrorCategory::from_index(c).unwrap(), a))
                .collect(),
            systematic_attribution: attribution.2.then_some(CategoryAccuracy {
                correct: attribution.0.min(attribution.1),
                total: attribution.1,
            }),
            generalized_attribution: None,
        };

        let mut buf = Vec::new();
        report.encode(&mut buf);
        let mut input = &buf[..];
        prop_assert_eq!(TaxonomyReport::decode(&mut input).as_ref(), Some(&report));
        prop_assert!(input.is_empty(), "decode left {} bytes", input.len());

        // Every strict prefix of the encoding must be rejected, not
        // misread — the truncation contract the spill reader relies on.
        if !buf.is_empty() {
            let cut = buf.len() / 2;
            let mut truncated = &buf[..cut.min(buf.len() - 1)];
            prop_assert_eq!(TaxonomyReport::decode(&mut truncated), None);
        }
    }
}

fn arb_counts() -> impl Strategy<Value = CategoryCounts> {
    ((0u64..100), (0u64..100), (0u64..100), (0u64..100))
        .prop_map(|(a, b, c, d)| CategoryCounts([a, b, c, d]))
}

/// 0 and, for every byte count `k` up to `bytes`, `2^(8k) − 1` and (when
/// it fits) `2^(8k)`: the values on either side of each packed width.
fn width_boundaries(bytes: usize) -> Vec<u64> {
    let mut values = vec![0];
    for k in 1..=bytes {
        let top = u64::MAX >> (64 - 8 * k);
        values.push(top);
        if k < bytes {
            values.push(top + 1);
        }
    }
    values
}

/// Encode `xs` as a packed column; check it reads back exactly, is
/// exactly `8 + 1 + n × w` bytes, and that `w` is the width the largest
/// value needs.
fn check_packed<T>(xs: &[T])
where
    T: codec::PackedInt + PartialEq + std::fmt::Debug,
{
    let mut buf = Vec::new();
    codec::encode_packed(xs.iter().map(|&x| x.to_u64()), &mut buf);
    let max = xs.iter().map(|&x| x.to_u64()).max().unwrap_or(0);
    let w = usize::from(buf[8]);
    prop_assert!(
        max >> (8 * w - 1) >> 1 == 0,
        "{max} does not fit in {w} bytes"
    );
    prop_assert!(
        w == 1 || max >> (8 * (w - 1)) != 0,
        "{max} fits in {} bytes",
        w - 1
    );
    prop_assert_eq!(w, codec::packed_width(max));
    prop_assert_eq!(buf.len(), 8 + 1 + xs.len() * w);
    let mut input = &buf[..];
    let decoded = codec::decode_packed::<T>(&mut input, xs.len());
    prop_assert_eq!(decoded.as_deref(), Some(xs));
    prop_assert!(input.is_empty(), "decode left {} bytes", input.len());
    if !xs.is_empty() {
        let refused = codec::decode_packed::<T>(&mut &buf[..], xs.len() - 1);
        prop_assert_eq!(refused, None, "a column longer than its bound");
    }
}

/// Decode arbitrary bytes as a packed column of `T`: never a panic, at
/// most 8 bytes allocated per input byte, and a column only if the bytes
/// it consumed are exactly its encoding.
fn check_hostile_packed<T>(bytes: &[u8])
where
    T: codec::PackedInt + PartialEq + std::fmt::Debug,
{
    let mut input = bytes;
    let (decoded, largest) = largest_during(|| codec::decode_packed::<T>(&mut input, usize::MAX));
    prop_assert!(
        largest <= 8 * bytes.len(),
        "allocated {largest} B for {} B of input",
        bytes.len()
    );
    if let Some(column) = decoded {
        let mut again = Vec::new();
        codec::encode_packed(column.iter().map(|&x| x.to_u64()), &mut again);
        prop_assert_eq!(&again[..], &bytes[..bytes.len() - input.len()]);
    }
}

proptest! {
    /// Packed columns of every unsigned width read back exactly, at the
    /// width their largest value needs, with a value on either side of
    /// every width boundary somewhere in the column.
    #[test]
    fn packed_columns_roundtrip_at_every_width(
        values in prop::collection::vec((any::<u64>(), 0u32..64), 0..40),
        boundary in any::<usize>(),
        at in any::<usize>(),
    ) {
        let mut column: Vec<u64> = values.iter().map(|&(v, shift)| v >> shift).collect();
        fn with<T: codec::PackedInt>(column: &[u64], boundary: u64, at: usize) -> Vec<T> {
            let mut xs: Vec<T> = column.iter().map(|&v| T::from_u64(v)).collect();
            xs.insert(at % (xs.len() + 1), T::from_u64(boundary));
            xs
        }
        let pick = |bytes: usize| {
            let values = width_boundaries(bytes);
            values[boundary % values.len()]
        };
        check_packed(&with::<u8>(&column, pick(1), at));
        check_packed(&with::<u16>(&column, pick(2), at));
        check_packed(&with::<u32>(&column, pick(4), at));
        check_packed(&with::<u64>(&column, pick(8), at));
        // Every boundary value alone, and the empty column.
        for bytes in [1, 2, 4, 8] {
            for v in width_boundaries(bytes) {
                check_packed(&with::<u64>(&[], v, 0));
            }
        }
        column.clear();
        check_packed::<u64>(&column);
    }

    /// Arbitrary bytes — behind a small or arbitrary length and any width
    /// byte — decode to a column or to `None`, never panic, and allocate
    /// at most 8 times their length.
    #[test]
    fn arbitrary_bytes_decode_to_a_packed_column_or_none(
        len in prop_oneof![0u64..24, any::<u64>()],
        width in 0u8..12,
        body in prop::collection::vec(any::<u8>(), 0..200),
        raw in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.push(width);
        bytes.extend_from_slice(&body);
        for input in [&bytes[..], &raw[..]] {
            check_hostile_packed::<u8>(input);
            check_hostile_packed::<u16>(input);
            check_hostile_packed::<u32>(input);
            check_hostile_packed::<u64>(input);
        }
    }

    /// Zigzag maps every signed integer to an unsigned one and back.
    #[test]
    fn zigzag_roundtrips(v in any::<i64>()) {
        prop_assert_eq!(codec::unzigzag(codec::zigzag(v)), v);
        // `v >= 0` maps to `2v`, `v < 0` to `2|v| - 1`.
        prop_assert_eq!(codec::zigzag(v) / 2, v.unsigned_abs() - (v < 0) as u64);
    }
}
