//! Hand-rolled binary key/value codec for the external shuffle.
//!
//! The MapReduce engine's external shuffle (see `kf-mapreduce`) needs
//! to serialize `(key, values)` groups to sorted run files and read
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
//! Beside the element-wise impls sits the one bulk column codec every
//! checkpoint table goes through: [`encode_packed`] writes an integer
//! column at the width its largest value needs, [`encode_value_column`]
//! a column of [`Value`]s as a tag column and a payload column, and
//! [`encode_groups`] `(item, values)` groups as item columns, run lengths
//! and one value column.
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
/// can spill sorted groups to disk and merge them back losslessly.
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

/// Columnar encoding, one packed column per record field: subjects,
/// predicates, the objects' value column, the four provenance
/// dimensions (the pattern plus one, as the KB stores it), the confidence
/// flags, then the bits of the confidences present. The batch is the
/// largest single block of a corpus checkpoint (hundreds of thousands of
/// records), and bulk columns decode an order of magnitude faster than
/// element-wise records — load time is what the checkpoint-and-fan-out
/// pipeline exists for.
///
/// The subject column comes first and proves the record count (its
/// bytes hold one value each); every later column must hold exactly that
/// many values, and the confidence bits exactly as many as the flags set.
/// Decode reads the record columns side by side through [`PackedRows`],
/// so it allocates the records and nothing the size of a column.
impl KvCodec for ExtractionBatch {
    fn encode(&self, out: &mut Vec<u8>) {
        let records = &self.records;
        let column = |field: fn(&Extraction) -> u64, out: &mut Vec<u8>| {
            encode_packed(records.iter().map(field), out)
        };
        column(|e| e.triple.subject.0.into(), out);
        column(|e| e.triple.predicate.0.into(), out);
        encode_value_column(records.iter().map(|e| value_columns(e.triple.object)), out);
        column(|e| e.provenance.extractor.0.into(), out);
        column(|e| e.provenance.page.0.into(), out);
        column(|e| e.provenance.site.0.into(), out);
        // Plus one, wrapping, so `PatternId::NONE` (`u32::MAX`) packs as 0.
        column(|e| e.provenance.pattern.0.wrapping_add(1).into(), out);
        column(|e| e.confidence.is_some().into(), out);
        let confidences: Vec<u32> = records
            .iter()
            .filter_map(|e| Some(e.confidence?.to_bits()))
            .collect();
        encode_ints(&confidences, out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let subjects = take_packed::<u32>(input, usize::MAX)?;
        let n = subjects.len();
        let rows = PackedRows::new([
            subjects,
            take_exact::<u32>(input, n)?,
            take_exact::<u8>(input, n)?,
            take_exact::<u64>(input, n)?,
            take_exact::<u16>(input, n)?,
            take_exact::<u32>(input, n)?,
            take_exact::<u32>(input, n)?,
            take_exact::<u32>(input, n)?,
        ]);
        let flags: Vec<u8> = decode_exact(input, n)?;
        if flags.iter().any(|&flag| flag > 1) {
            return None;
        }
        let n_conf = flags.iter().filter(|&&flag| flag == 1).count();
        let confidences: Vec<u32> = decode_exact(input, n_conf)?;

        // Each column's width is at most its type's, so the narrowing
        // casts are lossless.
        let mut confidences = confidences.into_iter().map(f32::from_bits);
        let mut records = Vec::with_capacity(n);
        for (row, flag) in rows.zip(flags) {
            let [subject, predicate, tag, payload, extractor, page, site, pattern] = row;
            records.push(Extraction {
                triple: Triple {
                    subject: EntityId(subject as u32),
                    predicate: PredicateId(predicate as u32),
                    object: value_from_stored(tag as u8, payload)?,
                },
                provenance: Provenance {
                    extractor: ExtractorId(extractor as u16),
                    page: PageId(page as u32),
                    site: SiteId(site as u32),
                    pattern: PatternId((pattern as u32).wrapping_sub(1)),
                },
                confidence: if flag == 1 { confidences.next() } else { None },
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
        let key = K::decode(input)?;
        let value = V::decode(input)?;
        // Grown like `KvCodec::decode_run`'s runs: once the entry has
        // decoded, by the entries decoded so far, never past `len` and
        // never past what the remaining bytes could fill.
        if map.len() == map.capacity() {
            let more = map.len().min(len - map.len() - 1);
            map.reserve(1 + reserve_for::<(K, V)>(more, input));
        }
        if map.insert(key, value).is_some() {
            return None;
        }
    }
    Some(map)
}

/// An unsigned integer a packed column ([`encode_packed`] /
/// [`decode_packed`]) can hold. A packed column is one contiguous
/// `len × w` byte block, so decoding is a single bounds check plus a
/// tight fixed-width loop — the difference between ~40 ns and ~2 ns per
/// element against element-wise `Vec<T>` decoding on checkpoint-sized
/// data.
pub trait PackedInt: Copy {
    /// Bytes in memory, and the widest packed column it decodes from: a
    /// column decodes to at most `WIDTH` times its bytes.
    const WIDTH: usize;
    /// Widen to `u64`.
    fn to_u64(self) -> u64;
    /// Narrow from a `u64` that fits in [`PackedInt::WIDTH`] bytes.
    fn from_u64(v: u64) -> Self;
}

macro_rules! packed_int {
    ($($ty:ty),*) => {$(
        impl PackedInt for $ty {
            const WIDTH: usize = std::mem::size_of::<$ty>();
            #[inline]
            fn to_u64(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_u64(v: u64) -> Self {
                v as $ty
            }
        }
    )*};
}

packed_int!(u8, u16, u32, u64);

/// Bytes the little-endian encoding of `max` needs: 1 for 0, up to 8.
#[inline]
pub fn packed_width(max: u64) -> usize {
    (8 - max.leading_zeros() as usize / 8).max(1)
}

/// Append `values` as one packed column: the u64 length, one width byte
/// `w` (the bytes the largest value needs, 1 ..= 8), then each value's
/// `w` low little-endian bytes. A column of small numbers in a wide type
/// costs what the numbers need, not what the type holds.
pub fn encode_packed<I>(values: I, out: &mut Vec<u8>)
where
    I: IntoIterator<Item = u64>,
    I::IntoIter: ExactSizeIterator + Clone,
{
    let values = values.into_iter();
    let w = packed_width(values.clone().max().unwrap_or(0));
    (values.len() as u64).encode(out);
    out.push(w as u8);
    let start = out.len();
    out.resize(start + values.len() * w, 0);
    let body = &mut out[start..];
    match w {
        1 => pack_fixed::<1>(values, body),
        2 => pack_fixed::<2>(values, body),
        3 => pack_fixed::<3>(values, body),
        4 => pack_fixed::<4>(values, body),
        5 => pack_fixed::<5>(values, body),
        6 => pack_fixed::<6>(values, body),
        7 => pack_fixed::<7>(values, body),
        _ => pack_fixed::<8>(values, body),
    }
}

/// Write each value's `W` low little-endian bytes into `body`, one
/// value a `W`-byte chunk: the inverse of [`PackedColumn::read`].
#[inline]
fn pack_fixed<const W: usize>(values: impl Iterator<Item = u64>, body: &mut [u8]) {
    for (chunk, v) in body.chunks_exact_mut(W).zip(values) {
        chunk.copy_from_slice(&v.to_le_bytes()[..W]);
    }
}

/// A packed column ([`encode_packed`]) whose header and bytes are checked
/// ([`take_exact`]) but whose values stay in the input until they are
/// read, whole by [`decode_packed`] or a block of rows at a time by
/// [`PackedRows`].
pub struct PackedColumn<'a> {
    bytes: &'a [u8],
    w: usize,
}

impl PackedColumn<'_> {
    /// Number of values.
    fn len(&self) -> usize {
        self.bytes.len() / self.w
    }

    /// Values `start..start + out.len()` into `out`, one fixed-width loop
    /// per width so each compiles to straight-line loads.
    fn read<T: PackedInt>(&self, start: usize, out: &mut [T]) {
        let bytes = &self.bytes[start * self.w..(start + out.len()) * self.w];
        match self.w {
            1 => unpack::<T, 1>(bytes, out),
            2 => unpack::<T, 2>(bytes, out),
            3 => unpack::<T, 3>(bytes, out),
            4 => unpack::<T, 4>(bytes, out),
            5 => unpack::<T, 5>(bytes, out),
            6 => unpack::<T, 6>(bytes, out),
            7 => unpack::<T, 7>(bytes, out),
            _ => unpack::<T, 8>(bytes, out),
        }
    }
}

/// Read `W`-byte little-endian values into `out`.
#[inline]
fn unpack<T: PackedInt, const W: usize>(bytes: &[u8], out: &mut [T]) {
    for (value, chunk) in out.iter_mut().zip(bytes.chunks_exact(W)) {
        *value = T::from_u64(le_word::<W>(chunk));
    }
}

/// Split a packed column of `T`s off `input` without decoding it,
/// checked as [`decode_packed`] checks it.
fn take_packed<'a, T: PackedInt>(input: &mut &'a [u8], max_len: usize) -> Option<PackedColumn<'a>> {
    let len = usize::try_from(u64::decode(input)?).ok()?;
    if len > max_len {
        return None;
    }
    let w = usize::from(u8::decode(input)?);
    if w == 0 || w > T::WIDTH {
        return None;
    }
    let bytes = take(input, len.checked_mul(w)?)?;
    // The widest value fills its top byte: otherwise `w` is not the width
    // the encoder would have chosen.
    if w > 1 && !bytes.chunks_exact(w).any(|v| v[w - 1] != 0) {
        return None;
    }
    Some(PackedColumn { bytes, w })
}

/// Split a packed column of exactly `len` `T`s off `input` without
/// decoding it, checked as [`decode_exact`] checks it.
pub fn take_exact<'a, T: PackedInt>(input: &mut &'a [u8], len: usize) -> Option<PackedColumn<'a>> {
    take_packed::<T>(input, len).filter(|column| column.len() == len)
}

/// Rows a block is unpacked for at a time.
const ROW_BLOCK: usize = 256;

/// The rows of `K` equally long packed columns, each row its `K` values
/// widened to `u64` (a column taken as `T` narrows back to `T`
/// losslessly). The columns are unpacked `ROW_BLOCK` rows at a time
/// into a buffer, so a table assembled from them allocates nothing the
/// size of a column.
pub struct PackedRows<'a, const K: usize> {
    columns: [PackedColumn<'a>; K],
    block: [[u64; ROW_BLOCK]; K],
    /// The next row, and the end of the rows unpacked so far: `block`
    /// holds the block of rows that ends there.
    next: usize,
    end: usize,
}

impl<'a, const K: usize> PackedRows<'a, K> {
    /// The rows of `columns`, which must all be one length.
    pub fn new(columns: [PackedColumn<'a>; K]) -> Self {
        let len = columns.first().map_or(0, PackedColumn::len);
        assert!(
            columns.iter().all(|c| c.len() == len),
            "packed rows need equally long columns"
        );
        PackedRows {
            columns,
            block: [[0; ROW_BLOCK]; K],
            next: 0,
            end: 0,
        }
    }
}

impl<const K: usize> Iterator for PackedRows<'_, K> {
    type Item = [u64; K];

    #[inline]
    fn next(&mut self) -> Option<[u64; K]> {
        if self.next == self.end {
            let len = self.columns.first().map_or(0, PackedColumn::len) - self.end;
            let len = len.min(ROW_BLOCK);
            if len == 0 {
                return None;
            }
            for (column, values) in self.columns.iter().zip(&mut self.block) {
                column.read(self.end, &mut values[..len]);
            }
            self.end += len;
        }
        // Every block but the last holds `ROW_BLOCK` rows.
        let at = self.next % ROW_BLOCK;
        self.next += 1;
        Some(std::array::from_fn(|k| self.block[k][at]))
    }
}

/// Decode a column written by [`encode_packed`] into `T`s, refusing one
/// longer than `max_len` (a count the caller has already proven, or
/// `usize::MAX`). The length is checked against `max_len` and against
/// the bytes present (`len × w` of them) before anything is allocated,
/// so a column takes at most `T::WIDTH` times its input. Rejects a width
/// of 0, one wider than `T`, and one wider than the largest value needs,
/// so every column has exactly one encoding.
pub fn decode_packed<T: PackedInt>(input: &mut &[u8], max_len: usize) -> Option<Vec<T>> {
    let column = take_packed::<T>(input, max_len)?;
    let mut values = vec![T::from_u64(0); column.len()];
    column.read(0, &mut values);
    Some(values)
}

/// A value's `W` little-endian bytes as a `u64`.
#[inline]
fn le_word<const W: usize>(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..W].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// Map a signed integer to an unsigned one of the same magnitude order
/// (0, -1, 1, -2, … → 0, 1, 2, 3, …), so a small negative number packs
/// as narrowly as a small positive one.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
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

/// The tag [`value_columns`] gives a `Value::Num`, whose payload a value
/// column stores zigzagged.
pub const NUM_TAG: u8 = 2;

/// A value's payload as a value column stores it: a number's
/// two's-complement bits [`zigzag`]ged, so a small negative number packs
/// as narrowly as a small positive one; ids as they are.
#[inline]
fn stored_payload(tag: u8, payload: u64) -> u64 {
    if tag == NUM_TAG {
        zigzag(payload as i64)
    } else {
        payload
    }
}

/// Inverse of [`stored_payload`].
#[inline]
fn loaded_payload(tag: u8, stored: u64) -> u64 {
    if tag == NUM_TAG {
        unzigzag(stored) as u64
    } else {
        stored
    }
}

/// A value from its row of a value column ([`encode_value_column`]): its
/// tag and its payload as stored. `None` where [`value_from_columns`]
/// refuses.
#[inline]
pub fn value_from_stored(tag: u8, stored: u64) -> Option<Value> {
    value_from_columns(tag, loaded_payload(tag, stored))
}

/// Append a slice of integers as one packed column.
pub fn encode_ints<T: PackedInt>(xs: &[T], out: &mut Vec<u8>) {
    encode_packed(xs.iter().map(|&x| x.to_u64()), out);
}

/// A packed column of exactly `len` values. A length prefix that differs
/// is refused, a longer one before anything is allocated, so `len` may
/// come from bytes the decoder has already read.
pub fn decode_exact<T: PackedInt>(input: &mut &[u8], len: usize) -> Option<Vec<T>> {
    decode_packed(input, len).filter(|column| column.len() == len)
}

/// Offsets from 0 (one per run, plus the end) as a packed column stores
/// them: each run's length.
pub fn run_lengths(offsets: &[u32]) -> impl ExactSizeIterator<Item = u64> + Clone + '_ {
    offsets
        .windows(2)
        .map(|w| u64::from(w[1].wrapping_sub(w[0])))
}

/// `len` run lengths back into `len + 1` offsets from 0, summed with
/// checked arithmetic: a running sum past `u32::MAX` is refused.
pub fn decode_offsets(input: &mut &[u8], len: usize) -> Option<Vec<u32>> {
    let lengths: Vec<u32> = decode_exact(input, len)?;
    let mut offsets = Vec::with_capacity(len + 1);
    let mut at = 0u32;
    offsets.push(at);
    for run in lengths {
        at = at.checked_add(run)?;
        offsets.push(at);
    }
    Some(offsets)
}

/// Append a value column — the [`value_columns`] of each value — as two
/// packed columns: the variant tags, then the payloads, a number's
/// two's-complement bits [`zigzag`]ged and ids as they are.
pub fn encode_value_column<I>(values: I, out: &mut Vec<u8>)
where
    I: IntoIterator<Item = (u8, u64)>,
    I::IntoIter: ExactSizeIterator + Clone,
{
    let values = values.into_iter();
    encode_packed(values.clone().map(|(tag, _)| u64::from(tag)), out);
    encode_packed(
        values.map(|(tag, payload)| stored_payload(tag, payload)),
        out,
    );
}

/// Decode a value column of exactly `len` values into its tags and its
/// payloads, numbers unzigzagged. The tags are not checked here:
/// [`value_from_columns`] refuses an unknown one.
pub fn decode_value_column(input: &mut &[u8], len: usize) -> Option<(Vec<u8>, Vec<u64>)> {
    let tags: Vec<u8> = decode_exact(input, len)?;
    let mut payloads: Vec<u64> = decode_exact(input, len)?;
    for (payload, &tag) in payloads.iter_mut().zip(&tags) {
        *payload = loaded_payload(tag, *payload);
    }
    Some((tags, payloads))
}

/// Append `(item, values)` groups as packed columns: the item subjects
/// (which prove the group count), the item predicates, each group's value
/// count, then the flattened values as one value column. Shared by the
/// world fact table and the gold standard.
pub fn encode_groups<'a, I>(groups: I, out: &mut Vec<u8>)
where
    I: ExactSizeIterator<Item = (DataItem, &'a [Value])> + Clone,
{
    let items = groups.clone().map(|(item, _)| item);
    encode_packed(items.clone().map(|item| item.subject.0.into()), out);
    encode_packed(items.map(|item| item.predicate.0.into()), out);
    encode_packed(groups.clone().map(|(_, values)| values.len() as u64), out);
    let values: Vec<(u8, u64)> = groups
        .flat_map(|(_, values)| values.iter().map(|&v| value_columns(v)))
        .collect();
    encode_value_column(values, out);
}

/// Decode groups written by [`encode_groups`].
pub fn decode_groups(input: &mut &[u8]) -> Option<Vec<(DataItem, Vec<Value>)>> {
    let subjects = take_packed::<u32>(input, usize::MAX)?;
    let n = subjects.len();
    let items = PackedRows::new([subjects, take_exact::<u32>(input, n)?]);
    let offsets = decode_offsets(input, n)?;
    let len = offsets[n] as usize;
    let tags = take_exact::<u8>(input, len)?;
    let mut values = PackedRows::new([tags, take_exact::<u64>(input, len)?]);
    let mut groups = Vec::with_capacity(n);
    for ([subject, predicate], run) in items.zip(offsets.windows(2)) {
        let item = DataItem::new(EntityId(subject as u32), PredicateId(predicate as u32));
        let group = (values.by_ref().take((run[1] - run[0]) as usize))
            .map(|[tag, payload]| value_from_stored(tag as u8, payload))
            .collect::<Option<_>>()?;
        groups.push((item, group));
    }
    Some(groups)
}

/// Append a length-prefixed segment holding `value`'s encoding. Segments
/// let a decoder slice a composite encoding into independently decodable
/// (and independently validated) parts without re-parsing — the
/// corpus checkpoint codec in `kf-synth` frames its large fields this
/// way.
pub fn encode_segment<T: KvCodec>(value: &T, out: &mut Vec<u8>) {
    encode_segment_with(out, |out| value.encode(out));
}

/// Append a length-prefixed segment: 8 placeholder bytes, what `body`
/// writes, then the byte length patched into the placeholder.
pub fn encode_segment_with(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 8]);
    body(out);
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
    fn packed_columns_take_the_width_of_their_largest_value() {
        let mut buf = Vec::new();
        encode_packed([3u64, 0x1_0000, 7], &mut buf);
        assert_eq!(buf[..9], [3, 0, 0, 0, 0, 0, 0, 0, 3]);
        assert_eq!(buf.len(), 9 + 3 * 3);
        let mut input = &buf[..];
        assert_eq!(
            decode_packed::<u32>(&mut input, 3),
            Some(vec![3, 0x1_0000, 7])
        );
        assert!(input.is_empty());
        // A 3-byte column does not fit a u16, nor a bound of two values.
        assert_eq!(decode_packed::<u16>(&mut &buf[..], 3), None);
        assert_eq!(decode_packed::<u32>(&mut &buf[..], 2), None);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
    }

    #[test]
    fn malformed_packed_columns_are_rejected() {
        let column = |len: u64, w: u8, body: &[u8]| {
            let mut buf = len.to_le_bytes().to_vec();
            buf.push(w);
            buf.extend_from_slice(body);
            buf
        };
        for (case, buf) in [
            ("width 0", column(1, 0, &[1])),
            ("width 9", column(1, 9, &[1; 9])),
            ("wider than u32", column(1, 5, &[1; 5])),
            ("wider than the values need", column(2, 2, &[1, 0, 2, 0])),
            ("u64::MAX length", column(u64::MAX, 1, &[1; 16])),
            (
                "length overflowing len × w",
                column(u64::MAX / 2, 4, &[1; 16]),
            ),
            ("truncated body", column(3, 2, &[1, 1, 1, 1, 1])),
            ("no width byte", 0u64.to_le_bytes().to_vec()),
        ] {
            assert_eq!(
                decode_packed::<u32>(&mut &buf[..], usize::MAX),
                None,
                "{case}"
            );
        }
        // The empty column is one byte wide.
        assert_eq!(
            decode_packed::<u8>(&mut &column(0, 1, &[])[..], 0),
            Some(vec![])
        );
        assert_eq!(decode_packed::<u8>(&mut &column(0, 2, &[])[..], 0), None);
    }

    #[test]
    fn offsets_past_u32_are_refused() {
        let mut buf = Vec::new();
        encode_packed([u64::from(u32::MAX), 1], &mut buf);
        assert_eq!(decode_offsets(&mut &buf[..], 2), None);
        let mut buf = Vec::new();
        encode_packed(run_lengths(&[0, 3, 3, 10]), &mut buf);
        assert_eq!(decode_offsets(&mut &buf[..], 3), Some(vec![0, 3, 3, 10]));
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
