//! Log-bucketed histograms: the distribution-shaped members
//! of the trace merge algebra.
//!
//! # Bucket layout
//!
//! The layout is HDR-style: values below [`SUB_BUCKET_COUNT`] get one
//! exact bucket each; above that, each power-of-two octave splits into
//! [`SUB_BUCKET_COUNT`] equal sub-buckets. A value `v ≥ 32` with most
//! significant bit `m` lands in octave group `m - SUB_BUCKET_BITS + 1`
//! at sub-bucket `(v >> (m - SUB_BUCKET_BITS)) - 32`. Bucket width is
//! `2^(m - SUB_BUCKET_BITS)` against a lower bound of at least
//! `2^m`, so quantiles read from bucket upper bounds overestimate by a
//! relative error of at most `2^-SUB_BUCKET_BITS` (1/32 ≈ 3.1%).
//!
//! The layout is *fixed* — [`BUCKET_COUNT`] buckets cover all of `u64`
//! regardless of what was recorded — so two histograms always merge
//! bucket-wise and the encoded form never depends on runtime
//! configuration.
//!
//! # Deterministic counts vs quarantined values
//!
//! A histogram's *observation count* is input-determined (one recording
//! per query, per wave, per round) and rides in the deterministic trace
//! section. What the recorded *values* were is another matter:
//! [`HistKind::Time`] histograms record wall-clock durations, so their
//! bucket occupancy and sum are quarantined (cleared) alongside span
//! timings by `TraceReport::quarantine_timings`; [`HistKind::Value`]
//! histograms record data quantities (result sizes, wave record counts)
//! and keep their full distribution in the deterministic ledger.
//! [`HistKind::Traffic`] histograms record wire frames, where even the
//! observation count is scheduling-dependent (heartbeats, re-dispatch),
//! so the quarantine clears count, sum and buckets alike.

use kf_types::KvCodec;

/// Sub-bucket resolution: each power-of-two octave splits into
/// `2^SUB_BUCKET_BITS` buckets, bounding quantile relative error at
/// `2^-SUB_BUCKET_BITS`.
pub const SUB_BUCKET_BITS: u32 = 5;

/// Buckets per octave (and the exact-bucket range `0..SUB_BUCKET_COUNT`).
pub const SUB_BUCKET_COUNT: u64 = 1 << SUB_BUCKET_BITS;

/// Total buckets in the fixed layout: the exact group plus one group per
/// remaining octave of `u64`, covering every value up to `u64::MAX`.
pub const BUCKET_COUNT: usize = (64 - SUB_BUCKET_BITS as usize + 1) * SUB_BUCKET_COUNT as usize;

/// The bucket index recording `v` increments. Monotone in `v`, exact
/// below [`SUB_BUCKET_COUNT`], within `2^-SUB_BUCKET_BITS` relative
/// width above.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKET_COUNT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BUCKET_BITS;
    let top = (v >> shift) as usize; // in [SUB_BUCKET_COUNT, 2*SUB_BUCKET_COUNT)
    (shift as usize + 1) * SUB_BUCKET_COUNT as usize + (top - SUB_BUCKET_COUNT as usize)
}

/// Inclusive `(lo, hi)` value range of a bucket (inverse of
/// [`bucket_index`]: every `v` with `bucket_index(v) == i` satisfies
/// `lo <= v <= hi`).
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKET_COUNT, "bucket index out of layout");
    let sub = SUB_BUCKET_COUNT as usize;
    if index < sub {
        return (index as u64, index as u64);
    }
    let shift = (index / sub - 1) as u32;
    let lo = (SUB_BUCKET_COUNT + (index % sub) as u64) << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

/// What a histogram's recorded values *are*, deciding their place in
/// the deterministic/timing split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKind {
    /// Wall-clock durations (nanoseconds). The distribution is
    /// quarantined with span timings; only the observation count stays
    /// in the deterministic section.
    Time,
    /// Data quantities (record counts, result sizes). Fully
    /// deterministic: buckets and sum survive the quarantine.
    Value,
    /// Wire traffic (frame sizes in bytes). Fully *non*-deterministic:
    /// how many frames flow depends on heartbeat scheduling and
    /// re-dispatch timing, so under `--deterministic` the observation
    /// *count* is quarantined along with the distribution — the ledger
    /// keeps only that the histogram exists.
    Traffic,
}

impl HistKind {
    /// Stable lowercase name, used in JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            HistKind::Time => "time",
            HistKind::Value => "value",
            HistKind::Traffic => "traffic",
        }
    }
}

/// One non-empty bucket of a frozen histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistBucket {
    /// Position in the fixed layout (`< BUCKET_COUNT`).
    pub index: u32,
    /// Observations recorded into this bucket.
    pub count: u64,
}

/// A frozen log-bucketed histogram: sparse non-empty buckets over the
/// fixed layout, plus observation count and value sum.
///
/// Merging is bucket-wise addition — associative and commutative, with
/// the empty histogram as identity — so shard histograms reassemble
/// exactly like counters do.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Dotted metric name (e.g. `mr.wave.map_ns`).
    pub name: String,
    /// Whether recorded values are wall-clock or data.
    pub kind: HistKind,
    /// Number of recorded observations. Deterministic for both kinds.
    pub count: u64,
    /// Sum of recorded values (wrapping on overflow, like the atomic
    /// accumulation in [`crate::LiveHistogram`]). Quarantined for
    /// [`HistKind::Time`].
    pub sum: u64,
    /// Non-empty buckets, strictly ascending by index. Quarantined
    /// (emptied) for [`HistKind::Time`].
    pub buckets: Vec<HistBucket>,
}

impl HistogramSnapshot {
    /// An empty histogram — the merge identity.
    pub fn empty(name: &str, kind: HistKind) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_owned(),
            kind,
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        }
    }

    /// Record one observation (single-threaded building; the live,
    /// thread-safe counterpart is [`crate::LiveHistogram`]).
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        let index = bucket_index(v) as u32;
        match self.buckets.binary_search_by_key(&index, |b| b.index) {
            Ok(i) => self.buckets[i].count += 1,
            Err(i) => self.buckets.insert(i, HistBucket { index, count: 1 }),
        }
    }

    /// Merge `other` into `self`: counts and sums add, buckets add
    /// index-wise. Kinds must agree (`self`'s is kept; a mismatch is a
    /// programming error and debug-asserts).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        debug_assert_eq!(self.kind, other.kind, "merging {} across kinds", self.name);
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        for ob in &other.buckets {
            match self.buckets.binary_search_by_key(&ob.index, |b| b.index) {
                Ok(i) => self.buckets[i].count += ob.count,
                Err(i) => self.buckets.insert(i, *ob),
            }
        }
    }

    /// The difference `self - prev` for two cumulative snapshots of the
    /// same live histogram (`prev` taken earlier): the distribution of
    /// what was recorded in between. Saturating per bucket, so a
    /// mismatched pair degrades instead of panicking.
    pub fn delta(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot {
            name: self.name.clone(),
            kind: self.kind,
            count: self.count.saturating_sub(prev.count),
            sum: self.sum.wrapping_sub(prev.sum),
            buckets: Vec::new(),
        };
        for b in &self.buckets {
            let before = prev
                .buckets
                .binary_search_by_key(&b.index, |p| p.index)
                .map(|i| prev.buckets[i].count)
                .unwrap_or(0);
            let count = b.count.saturating_sub(before);
            if count > 0 {
                out.buckets.push(HistBucket {
                    index: b.index,
                    count,
                });
            }
        }
        out
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the rank-`⌊count·q⌋` observation — matching the pooled
    /// `sorted[(len as f64 * q) as usize]` convention, overestimating by
    /// at most a relative `2^-SUB_BUCKET_BITS`. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q) as u64).min(self.count - 1);
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen > rank {
                return bucket_bounds(b.index as usize).1;
            }
        }
        // Quarantined Time histograms keep their count but drop their
        // buckets; there is no distribution left to read.
        0
    }

    /// Drop the value distribution (buckets and sum), keeping the
    /// observation count — the quarantine operation applied to
    /// [`HistKind::Time`] histograms under `--deterministic`.
    pub fn clear_values(&mut self) {
        self.sum = 0;
        self.buckets.clear();
    }
}

impl KvCodec for HistKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            HistKind::Time => 0,
            HistKind::Value => 1,
            HistKind::Traffic => 2,
        });
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(HistKind::Time),
            1 => Some(HistKind::Value),
            2 => Some(HistKind::Traffic),
            _ => None,
        }
    }
}

impl KvCodec for HistogramSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.kind.encode(out);
        self.count.encode(out);
        self.sum.encode(out);
        self.buckets.len().encode(out);
        for b in &self.buckets {
            b.index.encode(out);
            b.count.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let name = String::decode(input)?;
        let kind = HistKind::decode(input)?;
        let count = u64::decode(input)?;
        let sum = u64::decode(input)?;
        let n = usize::decode(input)?;
        // Each bucket takes 12 bytes; reject counts the remaining input
        // cannot possibly hold before allocating.
        if n > input.len() / 12 {
            return None;
        }
        let mut buckets = Vec::with_capacity(n);
        let mut last: Option<u32> = None;
        for _ in 0..n {
            let index = u32::decode(input)?;
            let bucket_count = u64::decode(input)?;
            // Canonical form: strictly ascending indexes inside the
            // fixed layout, no empty buckets. Anything else is a
            // malformed or truncation-shifted stream.
            if index as usize >= BUCKET_COUNT
                || bucket_count == 0
                || last.is_some_and(|l| index <= l)
            {
                return None;
            }
            last = Some(index);
            buckets.push(HistBucket {
                index,
                count: bucket_count,
            });
        }
        Some(HistogramSnapshot {
            name,
            kind,
            count,
            sum,
            buckets,
        })
    }
}
