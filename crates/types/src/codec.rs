//! Hand-rolled binary key/value codec for the external shuffle.
//!
//! The MapReduce engine's spill-to-disk partitions (see `kf-mapreduce`)
//! need to serialize `(key, values)` groups to sorted run files and read
//! them back byte-identically. This module is the workspace's one
//! codec: a small, explicit binary format of fixed-width little-endian
//! integers, tagged enums, and length-prefixed sequences. No
//! self-description, no versioning — a run file is written and read by
//! the same process, so the schema is the Rust type itself.
//!
//! Implementations exist for the primitives and containers the fusion
//! shuffles move (unsigned/signed integers, `f64` via its bit pattern,
//! `bool`, `()`, `String`, `Option<T>`, `Vec<T>`, tuples up to arity 4)
//! and for the domain types that ride through shuffles (`Value`,
//! `DataItem`, `Triple`, [`ProvenanceKey`] via its
//! lossless `u128` packing, and every id newtype).
//!
//! # Contract
//!
//! For every implementation, decode is the exact inverse of encode:
//! `decode(&mut &encode(x)[..]) == Some(x)`, consuming precisely the
//! bytes encode produced. [`KvCodec::decode`] advances the input slice
//! past the decoded value and returns `None` (leaving the slice in an
//! unspecified position) on truncated or malformed input.

use crate::extraction::{Extraction, ExtractionBatch};
use crate::hash::FxHashMap;
use crate::ids::{EntityId, ExtractorId, PageId, PatternId, PredicateId, SiteId, StrId, TypeId};
use crate::provenance::{Provenance, ProvenanceKey};
use crate::triple::{DataItem, Triple};
use crate::value::{Numeric, Value};
use std::hash::Hash;

/// Binary encoding for shuffle keys and values, so the MapReduce engine
/// can spill grouped partitions to disk and merge them back losslessly.
///
/// ```
/// use kf_types::KvCodec;
///
/// let group = (String::from("tom cruise"), vec![1962u32, 7, 3]);
/// let mut buf = Vec::new();
/// group.encode(&mut buf);
///
/// let mut input = &buf[..];
/// let decoded = <(String, Vec<u32>)>::decode(&mut input).unwrap();
/// assert_eq!(decoded, group);
/// assert!(input.is_empty(), "decode consumed exactly what encode wrote");
/// ```
pub trait KvCodec: Sized {
    /// Append this value's binary encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value from the front of `input`, advancing it past the
    /// consumed bytes. Returns `None` on truncated or malformed input.
    fn decode(input: &mut &[u8]) -> Option<Self>;

    /// Append the encodings of `items` back to back — the body of a
    /// `Vec<Self>`. `u8` overrides the loop with one copy, same bytes.
    #[inline]
    fn encode_run(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.encode(out);
        }
    }

    /// Decode `len` values back to back ([`encode_run`](Self::encode_run)'s
    /// inverse), guarding the pre-allocation against a corrupt `len`: each
    /// element encodes to at least one byte unless `Self` is zero-sized,
    /// and no more is reserved up front than the remaining bytes could
    /// fill ([`reserve_for`]). A run that outgrows the reservation grows
    /// only once its next value has decoded, by as many values as it has
    /// decoded, never past `len` and never past what the remaining bytes
    /// could fill, so a genuine run ends at capacity `len`.
    #[inline]
    fn decode_run(input: &mut &[u8], len: usize) -> Option<Vec<Self>> {
        if std::mem::size_of::<Self>() > 0 && len > input.len() {
            return None;
        }
        let mut items = Vec::with_capacity(reserve_for::<Self>(len, input));
        for _ in 0..len {
            let item = Self::decode(input)?;
            if items.len() == items.capacity() {
                let more = items.len().min(len - items.len() - 1);
                items.reserve_exact(1 + reserve_for::<Self>(more, input));
            }
            items.push(item);
        }
        Some(items)
    }
}

/// How many `T`s to reserve for a decode that announces `len` of them with
/// `input` left: at most `len`, and never more bytes of `T` than `input`
/// holds, so an inflated length prefix cannot make a decoder allocate
/// more than its input (a value may be far larger in memory than
/// encoded).
pub fn reserve_for<T>(len: usize, input: &[u8]) -> usize {
    len.min(input.len() / std::mem::size_of::<T>().max(1))
}

/// Split `n` bytes off the front of `input`, advancing it.
#[inline]
fn take<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if input.len() < n {
        return None;
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Some(head)
}

macro_rules! int_codec {
    ($($ty:ty),*) => {$(
        impl KvCodec for $ty {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode(input: &mut &[u8]) -> Option<Self> {
                let bytes = take(input, std::mem::size_of::<$ty>())?;
                Some(<$ty>::from_le_bytes(bytes.try_into().unwrap()))
            }
        }
    )*};
}

int_codec!(u16, u32, u64, u128, i8, i16, i32, i64);

/// A run of bytes is its own encoding: checkpoints riding inside wire
/// frames move as one copy in each direction.
impl KvCodec for u8 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(take(input, 1)?[0])
    }
    #[inline]
    fn encode_run(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    #[inline]
    fn decode_run(input: &mut &[u8], len: usize) -> Option<Vec<u8>> {
        Some(take(input, len)?.to_vec())
    }
}

/// `usize` travels as `u64` so run files do not depend on the platform's
/// pointer width.
impl KvCodec for usize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        usize::try_from(u64::decode(input)?).ok()
    }
}

/// `f64` travels as its IEEE-754 bit pattern: the roundtrip is exact for
/// every value including NaNs, negative zero and infinities.
impl KvCodec for f64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(f64::from_bits(u64::decode(input)?))
    }
}

/// `f32` travels as its IEEE-754 bit pattern, like [`f64`] — exact for
/// every value including NaNs (extraction confidences are `f32`).
impl KvCodec for f32 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(f32::from_bits(u32::decode(input)?))
    }
}

impl KvCodec for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl KvCodec for () {
    #[inline]
    fn encode(&self, _out: &mut Vec<u8>) {}
    #[inline]
    fn decode(_input: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl KvCodec for String {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = usize::try_from(u64::decode(input)?).ok()?;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl<T: KvCodec> KvCodec for Option<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(None),
            1 => Some(Some(T::decode(input)?)),
            _ => None,
        }
    }
}

impl<T: KvCodec> KvCodec for Vec<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        T::encode_run(self, out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = usize::try_from(u64::decode(input)?).ok()?;
        T::decode_run(input, len)
    }
}

macro_rules! tuple_codec {
    ($(($($name:ident : $idx:tt),+)),+) => {$(
        impl<$($name: KvCodec),+> KvCodec for ($($name,)+) {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
            #[inline]
            fn decode(input: &mut &[u8]) -> Option<Self> {
                Some(($($name::decode(input)?,)+))
            }
        }
    )+};
}

tuple_codec!(
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3)
);

macro_rules! id_codec {
    ($($ty:ty),*) => {$(
        impl KvCodec for $ty {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            #[inline]
            fn decode(input: &mut &[u8]) -> Option<Self> {
                Some(Self(KvCodec::decode(input)?))
            }
        }
    )*};
}

id_codec!(
    EntityId,
    PredicateId,
    TypeId,
    PageId,
    SiteId,
    ExtractorId,
    PatternId,
    StrId,
    Numeric
);

impl KvCodec for Value {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Entity(e) => {
                out.push(0);
                e.encode(out);
            }
            Value::Str(s) => {
                out.push(1);
                s.encode(out);
            }
            Value::Num(n) => {
                out.push(2);
                n.encode(out);
            }
        }
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(Value::Entity(EntityId::decode(input)?)),
            1 => Some(Value::Str(StrId::decode(input)?)),
            2 => Some(Value::Num(Numeric::decode(input)?)),
            _ => None,
        }
    }
}

impl KvCodec for DataItem {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.subject.encode(out);
        self.predicate.encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(DataItem {
            subject: EntityId::decode(input)?,
            predicate: PredicateId::decode(input)?,
        })
    }
}

impl KvCodec for Triple {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.subject.encode(out);
        self.predicate.encode(out);
        // Qualified: `Value` also has an inherent `encode(self) -> u64`.
        KvCodec::encode(&self.object, out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Triple {
            subject: EntityId::decode(input)?,
            predicate: PredicateId::decode(input)?,
            object: Value::decode(input)?,
        })
    }
}

impl KvCodec for Provenance {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.extractor.encode(out);
        self.page.encode(out);
        self.site.encode(out);
        self.pattern.encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Provenance {
            extractor: ExtractorId::decode(input)?,
            page: PageId::decode(input)?,
            site: SiteId::decode(input)?,
            pattern: PatternId::decode(input)?,
        })
    }
}

impl KvCodec for Extraction {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        KvCodec::encode(&self.triple, out);
        self.provenance.encode(out);
        self.confidence.encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Extraction {
            triple: Triple::decode(input)?,
            provenance: Provenance::decode(input)?,
            confidence: Option::decode(input)?,
        })
    }
}

/// Columnar encoding: one column per record field (triple subject /
/// predicate / object, provenance dimensions, confidence presence +
/// bits). The batch is the largest single block of a corpus checkpoint
/// (hundreds of thousands of records), and bulk columns decode an order
/// of magnitude faster than element-wise records — load time is what the
/// checkpoint-and-fan-out pipeline exists for.
impl KvCodec for ExtractionBatch {
    fn encode(&self, out: &mut Vec<u8>) {
        let n = self.records.len();
        (n as u64).encode(out);
        out.reserve(n * 32);
        for e in &self.records {
            e.triple.subject.0.put_le(out);
        }
        for e in &self.records {
            e.triple.predicate.0.put_le(out);
        }
        let objects: Vec<Value> = self.records.iter().map(|e| e.triple.object).collect();
        encode_value_columns(&objects, out);
        for e in &self.records {
            e.provenance.extractor.0.put_le(out);
        }
        for e in &self.records {
            e.provenance.page.0.put_le(out);
        }
        for e in &self.records {
            e.provenance.site.0.put_le(out);
        }
        for e in &self.records {
            e.provenance.pattern.0.put_le(out);
        }
        for e in &self.records {
            out.push(e.confidence.is_some() as u8);
        }
        for e in &self.records {
            if let Some(c) = e.confidence {
                c.to_bits().put_le(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let n = usize::try_from(u64::decode(input)?).ok()?;
        let subjects = take(input, n.checked_mul(4)?)?;
        let predicates = take(input, n.checked_mul(4)?)?;
        let objects = decode_value_columns(input)?;
        if objects.len() != n {
            return None;
        }
        let extractors = take(input, n.checked_mul(2)?)?;
        let pages = take(input, n.checked_mul(4)?)?;
        let sites = take(input, n.checked_mul(4)?)?;
        let patterns = take(input, n.checked_mul(4)?)?;
        let present = take(input, n)?;
        let n_conf = present.iter().filter(|&&p| p == 1).count();
        if present.iter().any(|&p| p > 1) {
            return None;
        }
        let conf_bits = take(input, n_conf.checked_mul(4)?)?;

        // Zipped chunk iterators assemble the rows without per-field
        // bounds checks; the zip ends exactly at `n` because every
        // column was sliced to length above.
        let mut conf_chunks = conf_bits.chunks_exact(4);
        let rows = subjects
            .chunks_exact(4)
            .zip(predicates.chunks_exact(4))
            .zip(objects.iter())
            .zip(extractors.chunks_exact(2))
            .zip(pages.chunks_exact(4))
            .zip(sites.chunks_exact(4))
            .zip(patterns.chunks_exact(4))
            .zip(present.iter());
        let mut records = Vec::with_capacity(n);
        for (((((((subject, predicate), &object), extractor), page), site), pattern), &with_conf) in
            rows
        {
            let confidence = if with_conf == 1 {
                Some(f32::from_bits(u32::get_le(conf_chunks.next()?)))
            } else {
                None
            };
            records.push(Extraction {
                triple: Triple {
                    subject: EntityId(u32::get_le(subject)),
                    predicate: PredicateId(u32::get_le(predicate)),
                    object,
                },
                provenance: Provenance {
                    extractor: ExtractorId(u16::get_le(extractor)),
                    page: PageId(u32::get_le(page)),
                    site: SiteId(u32::get_le(site)),
                    pattern: PatternId(u32::get_le(pattern)),
                },
                confidence,
            });
        }
        Some(ExtractionBatch { records })
    }
}

/// Encode a hash map's entries **sorted by key**, so the byte stream is
/// canonical: the same logical map encodes identically regardless of
/// hasher state or insertion history. Checkpoint determinism (CI
/// byte-diffs two same-seed corpus snapshots) depends on every map in a
/// checkpointed artifact going through this.
pub fn encode_map_sorted<K, V>(map: &FxHashMap<K, V>, out: &mut Vec<u8>)
where
    K: KvCodec + Ord,
    V: KvCodec,
{
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    (entries.len() as u64).encode(out);
    for (k, v) in entries {
        k.encode(out);
        v.encode(out);
    }
}

/// Decode a map written by [`encode_map_sorted`]. Rejects duplicate keys
/// (a canonical encoding never contains them).
pub fn decode_map<K, V>(input: &mut &[u8]) -> Option<FxHashMap<K, V>>
where
    K: KvCodec + Eq + Hash,
    V: KvCodec,
{
    let len = usize::try_from(u64::decode(input)?).ok()?;
    // Same corrupt-header guard as `Vec<T>`: every entry costs ≥ 1 byte.
    if len > input.len() {
        return None;
    }
    let mut map = FxHashMap::default();
    map.reserve(reserve_for::<(K, V)>(len, input));
    for _ in 0..len {
        // Grown like `KvCodec::decode_run`'s runs: by the entries decoded
        // so far, never past `len`.
        if map.len() == map.capacity() {
            map.reserve(map.len().clamp(1, len - map.len()));
        }
        let key = K::decode(input)?;
        let value = V::decode(input)?;
        if map.insert(key, value).is_some() {
            return None;
        }
    }
    Some(map)
}

/// A fixed-width little-endian scalar usable in bulk [`encode_column`] /
/// [`decode_column`] encodings. Unlike element-wise `Vec<T>` decoding,
/// a column is one contiguous `len × WIDTH` byte block, so decoding is a
/// single bounds check plus a tight chunked loop — the difference between
/// ~40 ns and ~2 ns per element on checkpoint-sized data.
pub trait PodColumn: Copy {
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Append the little-endian encoding.
    fn put_le(self, out: &mut Vec<u8>);
    /// Read from exactly [`PodColumn::WIDTH`] bytes.
    fn get_le(bytes: &[u8]) -> Self;
}

macro_rules! pod_column {
    ($($ty:ty),*) => {$(
        impl PodColumn for $ty {
            const WIDTH: usize = std::mem::size_of::<$ty>();
            #[inline]
            fn put_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get_le(bytes: &[u8]) -> Self {
                <$ty>::from_le_bytes(bytes.try_into().unwrap())
            }
        }
    )*};
}

pod_column!(u8, u16, u32, u64, i64);

/// Append `xs` as one length-prefixed contiguous column.
pub fn encode_column<T: PodColumn>(xs: &[T], out: &mut Vec<u8>) {
    (xs.len() as u64).encode(out);
    out.reserve(xs.len() * T::WIDTH);
    for &x in xs {
        x.put_le(out);
    }
}

/// Decode a column written by [`encode_column`].
pub fn decode_column<T: PodColumn>(input: &mut &[u8]) -> Option<Vec<T>> {
    let len = usize::try_from(u64::decode(input)?).ok()?;
    let bytes = take(input, len.checked_mul(T::WIDTH)?)?;
    Some(bytes.chunks_exact(T::WIDTH).map(T::get_le).collect())
}

/// A [`Value`] as its two column entries, losslessly: the stable one-byte
/// variant tag (also the tag of the element-wise `Value` encoding) and a
/// full-fidelity 8-byte payload (unlike [`Value::encode`], which packs the
/// tag into the top bits and truncates large numerics).
#[inline]
pub fn value_columns(v: Value) -> (u8, u64) {
    match v {
        Value::Entity(e) => (0, e.0 as u64),
        Value::Str(s) => (1, s.0 as u64),
        Value::Num(n) => (2, n.0 as u64),
    }
}

/// Inverse of [`value_columns`]: `None` on an unknown tag, or on an entity
/// or string payload wider than 32 bits.
#[inline]
pub fn value_from_columns(tag: u8, payload: u64) -> Option<Value> {
    match tag {
        0 => Some(Value::Entity(EntityId(u32::try_from(payload).ok()?))),
        1 => Some(Value::Str(StrId(u32::try_from(payload).ok()?))),
        2 => Some(Value::Num(Numeric(payload as i64))),
        _ => None,
    }
}

/// Append values as two columns (variant tags, 8-byte payloads) — the
/// bulk counterpart of encoding each [`Value`] element-wise.
pub fn encode_value_columns(values: &[Value], out: &mut Vec<u8>) {
    (values.len() as u64).encode(out);
    out.reserve(values.len() * 9);
    for &v in values {
        out.push(value_columns(v).0);
    }
    for &v in values {
        value_columns(v).1.put_le(out);
    }
}

/// Decode values written by [`encode_value_columns`].
pub fn decode_value_columns(input: &mut &[u8]) -> Option<Vec<Value>> {
    let len = usize::try_from(u64::decode(input)?).ok()?;
    let tags = take(input, len)?;
    let payloads = take(input, len.checked_mul(8)?)?;
    tags.iter()
        .zip(payloads.chunks_exact(8))
        .map(|(&tag, p)| value_from_columns(tag, u64::get_le(p)))
        .collect()
}

/// Append `(item, values)` groups in columnar form: item columns
/// (subjects, predicates), a per-group value-count column, and the
/// flattened values. Shared by the world fact table and the gold
/// standard, whose decode cost is otherwise dominated by element-wise
/// traversal.
pub fn encode_item_values_columns<'a, I>(n_groups: usize, groups: I, out: &mut Vec<u8>)
where
    I: Iterator<Item = (DataItem, &'a [Value])> + Clone,
{
    (n_groups as u64).encode(out);
    out.reserve(n_groups * 12);
    for (item, _) in groups.clone() {
        item.subject.0.put_le(out);
    }
    for (item, _) in groups.clone() {
        item.predicate.0.put_le(out);
    }
    let mut n_values = 0usize;
    for (_, values) in groups.clone() {
        (values.len() as u32).put_le(out);
        n_values += values.len();
    }
    (n_values as u64).encode(out);
    out.reserve(n_values * 9);
    for (_, values) in groups.clone() {
        for &v in values {
            out.push(value_columns(v).0);
        }
    }
    for (_, values) in groups {
        for &v in values {
            value_columns(v).1.put_le(out);
        }
    }
}

/// Decode groups written by [`encode_item_values_columns`].
pub fn decode_item_values_columns(input: &mut &[u8]) -> Option<Vec<(DataItem, Vec<Value>)>> {
    let n_groups = usize::try_from(u64::decode(input)?).ok()?;
    let subjects = take(input, n_groups.checked_mul(4)?)?;
    let predicates = take(input, n_groups.checked_mul(4)?)?;
    let counts = take(input, n_groups.checked_mul(4)?)?;
    let n_values = usize::try_from(u64::decode(input)?).ok()?;
    let tags = take(input, n_values)?;
    let payloads = take(input, n_values.checked_mul(8)?)?;

    let mut groups = Vec::with_capacity(n_groups);
    let mut at = 0usize;
    let mut payload_chunks = payloads.chunks_exact(8);
    for i in 0..n_groups {
        let item = DataItem::new(
            EntityId(u32::get_le(&subjects[i * 4..i * 4 + 4])),
            PredicateId(u32::get_le(&predicates[i * 4..i * 4 + 4])),
        );
        let count = u32::get_le(&counts[i * 4..i * 4 + 4]) as usize;
        let end = at.checked_add(count)?;
        if end > n_values {
            return None;
        }
        let mut values = Vec::with_capacity(count);
        for &tag in &tags[at..end] {
            values.push(value_from_columns(
                tag,
                u64::get_le(payload_chunks.next()?),
            )?);
        }
        at = end;
        groups.push((item, values));
    }
    // Every flattened value must belong to a group.
    (at == n_values).then_some(groups)
}

/// Append a length-prefixed segment: 8 placeholder bytes, `value`'s
/// encoding, then the byte length patched into the placeholder. Segments
/// let a decoder slice a composite encoding into independently decodable
/// (and independently validated) parts without re-parsing — the
/// corpus checkpoint codec in `kf-synth` frames its large fields this
/// way.
pub fn encode_segment<T: KvCodec>(value: &T, out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 8]);
    value.encode(out);
    let len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&len.to_le_bytes());
}

/// Split one segment written by [`encode_segment`] off the front of
/// `input`, advancing past it. Returns `None` when the length header is
/// truncated or overruns the input.
pub fn take_segment<'a>(input: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = usize::try_from(u64::decode(input)?).ok()?;
    take(input, len)
}

/// Decode a whole segment as one `T`, requiring the value to consume the
/// segment exactly.
pub fn decode_segment_all<T: KvCodec>(mut segment: &[u8]) -> Option<T> {
    let value = T::decode(&mut segment)?;
    segment.is_empty().then_some(value)
}

/// Travels as the lossless `u128` packing of
/// [`ProvenanceKey::pack`](crate::ProvenanceKey::pack); the packed word
/// preserves key ordering within a granularity, so spilled runs sorted
/// on the decoded key match runs sorted on the encoding.
impl KvCodec for ProvenanceKey {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.pack().encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(ProvenanceKey::unpack(u128::decode(input)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::{Granularity, Provenance};

    fn roundtrip<T: KvCodec + PartialEq + std::fmt::Debug>(x: T) {
        let mut buf = Vec::new();
        x.encode(&mut buf);
        let mut input = &buf[..];
        assert_eq!(T::decode(&mut input), Some(x));
        assert!(input.is_empty(), "decode must consume the whole encoding");
    }

    #[test]
    fn integer_roundtrips() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(u128::MAX);
        roundtrip(i64::MIN);
        roundtrip(-1i32);
        roundtrip(usize::MAX);
    }

    #[test]
    fn float_roundtrip_is_bit_exact() {
        roundtrip(0.0f64);
        roundtrip(-0.0f64);
        roundtrip(f64::INFINITY);
        roundtrip(1.0 / 3.0);
        // NaN: compare bit patterns since NaN != NaN.
        let mut buf = Vec::new();
        f64::NAN.encode(&mut buf);
        let decoded = f64::decode(&mut &buf[..]).unwrap();
        assert_eq!(decoded.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(String::from("síte/página?q=1"));
        roundtrip(String::new());
        roundtrip(Some(42u32));
        roundtrip(None::<u32>);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u8>::new());
        roundtrip((7u16, String::from("x")));
        roundtrip((1u8, 2u16, 3u32));
        roundtrip((1usize, Some(0.5f64), true, vec![(1u32, 2u32)]));
    }

    #[test]
    fn domain_type_roundtrips() {
        roundtrip(Value::Entity(EntityId(7)));
        roundtrip(Value::Str(StrId(9)));
        roundtrip(Value::Num(Numeric(-8849)));
        roundtrip(DataItem::new(EntityId(1), PredicateId(2)));
        roundtrip(Triple::new(
            EntityId(1),
            PredicateId(2),
            Value::Num(Numeric(1_962_000)),
        ));
        let prov = Provenance::new(ExtractorId(3), PageId(100), SiteId(7), PatternId(42));
        for g in Granularity::ALL {
            roundtrip(ProvenanceKey::at(g, &prov, PredicateId(5)));
        }
    }

    #[test]
    fn f32_roundtrip_is_bit_exact() {
        roundtrip(0.0f32);
        roundtrip(-0.0f32);
        roundtrip(f32::INFINITY);
        roundtrip(0.7f32);
        let mut buf = Vec::new();
        f32::NAN.encode(&mut buf);
        assert_eq!(
            f32::decode(&mut &buf[..]).unwrap().to_bits(),
            f32::NAN.to_bits()
        );
    }

    #[test]
    fn extraction_records_roundtrip() {
        let prov = Provenance::new(ExtractorId(3), PageId(100), SiteId(7), PatternId::NONE);
        roundtrip(prov);
        let triple = Triple::new(EntityId(1), PredicateId(2), Value::Str(StrId(5)));
        roundtrip(Extraction::with_confidence(triple, prov, 0.25));
        roundtrip(Extraction::new(triple, prov));
        roundtrip(ExtractionBatch::from_records(vec![
            Extraction::new(triple, prov),
            Extraction::with_confidence(triple, prov, 1.0),
        ]));
    }

    #[test]
    fn sorted_map_encoding_is_canonical() {
        // Two maps with the same entries inserted in opposite orders must
        // encode to identical bytes.
        let mut a: FxHashMap<u32, u64> = FxHashMap::default();
        let mut b: FxHashMap<u32, u64> = FxHashMap::default();
        for i in 0..100u32 {
            a.insert(i, i as u64 * 3);
        }
        for i in (0..100u32).rev() {
            b.insert(i, i as u64 * 3);
        }
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        encode_map_sorted(&a, &mut ea);
        encode_map_sorted(&b, &mut eb);
        assert_eq!(ea, eb, "encoding must not depend on insertion order");
        let decoded: FxHashMap<u32, u64> = decode_map(&mut &ea[..]).unwrap();
        assert_eq!(decoded, a);
    }

    #[test]
    fn segments_roundtrip_and_reject_over_and_underruns() {
        let mut buf = Vec::new();
        encode_segment(&vec![1u32, 2, 3], &mut buf);
        encode_segment(&String::from("tail"), &mut buf);
        let mut input = &buf[..];
        let seg = take_segment(&mut input).unwrap();
        assert_eq!(decode_segment_all::<Vec<u32>>(seg), Some(vec![1, 2, 3]));
        let seg2 = take_segment(&mut input).unwrap();
        assert_eq!(decode_segment_all::<String>(seg2), Some("tail".into()));
        assert!(input.is_empty());
        // A segment longer than the remaining input is rejected.
        let mut truncated = &buf[..buf.len() - 1];
        take_segment(&mut truncated).unwrap();
        assert_eq!(take_segment(&mut truncated), None);
        // A value that does not consume its whole segment is rejected.
        let mut padded = Vec::new();
        encode_segment(&(7u32, 0u8), &mut padded);
        let mut input = &padded[..];
        let seg = take_segment(&mut input).unwrap();
        assert_eq!(decode_segment_all::<u32>(seg), None);
    }

    #[test]
    fn map_decode_rejects_duplicates_and_bad_headers() {
        // Hand-build an encoding with a duplicated key.
        let mut buf = Vec::new();
        2u64.encode(&mut buf);
        for _ in 0..2 {
            5u32.encode(&mut buf);
            9u64.encode(&mut buf);
        }
        assert_eq!(decode_map::<u32, u64>(&mut &buf[..]), None);
        // Oversized length header must not pre-allocate.
        let mut buf = Vec::new();
        u64::MAX.encode(&mut buf);
        assert_eq!(decode_map::<u32, u64>(&mut &buf[..]), None);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut buf = Vec::new();
        (42u64, String::from("hello")).encode(&mut buf);
        for cut in 0..buf.len() {
            let mut input = &buf[..cut];
            assert_eq!(
                <(u64, String)>::decode(&mut input),
                None,
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn malformed_tags_are_rejected() {
        assert_eq!(bool::decode(&mut &[2u8][..]), None);
        assert_eq!(Option::<u8>::decode(&mut &[9u8, 0][..]), None);
        assert_eq!(Value::decode(&mut &[3u8, 0, 0, 0, 0][..]), None);
        // A Vec length header larger than the remaining input must not
        // cause a huge pre-allocation.
        let mut buf = Vec::new();
        (u64::MAX).encode(&mut buf);
        assert_eq!(Vec::<u32>::decode(&mut &buf[..]), None);
    }

    #[test]
    fn decode_advances_past_each_value() {
        let mut buf = Vec::new();
        1u32.encode(&mut buf);
        2u32.encode(&mut buf);
        let mut input = &buf[..];
        assert_eq!(u32::decode(&mut input), Some(1));
        assert_eq!(u32::decode(&mut input), Some(2));
        assert_eq!(u32::decode(&mut input), None);
    }
}
