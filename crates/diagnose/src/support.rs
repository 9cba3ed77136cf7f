//! The support profiles: who produced each unique triple, and from how
//! many pages.
//!
//! The taxonomy classifiers need per-extractor attribution that
//! [`kf_core::FusionOutput`] deliberately does not retain: a false
//! positive supported by *one extractor on many pages* is the signature
//! of a systematic (pattern, data item) extraction breakage, while broad
//! cross-extractor agreement marks a faithfully extracted (and therefore
//! probably LCWA-artifact) triple. That attribution is a projection of
//! the batch's grouped [`Claims`] — each triple's distinct raw
//! provenances, reduced to (extractor, page) pairs
//! ([`SupportIndex::from_claims`]) — so it costs no shuffle of its own
//! when the claims are already grouped for fusion, and the grouping job's
//! chunked/spill residency envelope
//! (`MrConfig::spill_threshold_records`) is the only one it is under.

use kf_core::Claims;
use kf_mapreduce::{JobStats, MrConfig};
use kf_types::{Extraction, ExtractorId, FxHashMap, Triple};

/// The support shape of one unique triple: how many distinct pages
/// produced it, and how those pages distribute over extractors.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SupportProfile {
    /// Distinct pages the triple was extracted from.
    pub n_pages: u32,
    /// Distinct pages per extractor, ascending by extractor id. The page
    /// counts can sum past `n_pages`: several extractors may read the
    /// same page.
    pub per_extractor: Vec<(ExtractorId, u32)>,
}

impl SupportProfile {
    /// Distinct extractors that produced the triple.
    pub fn n_extractors(&self) -> u16 {
        self.per_extractor.len() as u16
    }

    /// The extractor contributing the most pages (smallest id on ties).
    pub fn top_extractor(&self) -> Option<(ExtractorId, u32)> {
        // `per_extractor` ascends by id, so max_by_key with `>` semantics
        // (strictly greater replaces) keeps the smallest id on ties.
        self.per_extractor
            .iter()
            .copied()
            .fold(None, |best: Option<(ExtractorId, u32)>, cur| match best {
                Some((_, n)) if n >= cur.1 => best,
                _ => Some(cur),
            })
    }

    /// The top extractor's share of all (extractor, page) support pairs
    /// — near 1.0 when a single extractor produced the triple everywhere
    /// (the systematic-error signature), near `1/k` for k extractors
    /// corroborating each other. `0.0` for an empty profile.
    pub fn top_share(&self) -> f64 {
        let total: u64 = self.per_extractor.iter().map(|&(_, n)| n as u64).sum();
        if total == 0 {
            return 0.0;
        }
        self.top_extractor().map_or(0.0, |(_, n)| n as f64) / total as f64
    }
}

/// Per-unique-triple [`SupportProfile`]s for one extraction batch.
#[derive(Debug, Clone, Default)]
pub struct SupportIndex {
    map: FxHashMap<Triple, SupportProfile>,
}

impl SupportIndex {
    /// Group `records` ([`Claims::build_recorded`], one grouping job
    /// honouring every residency knob in `mr`, recorded into the
    /// installed trace) and index the claims
    /// ([`SupportIndex::from_claims`]). Returns the job's counters.
    /// Callers that fuse the same records share one `Claims` with the
    /// fusion runs instead.
    pub fn build(records: &[Extraction], mr: &MrConfig) -> (SupportIndex, JobStats) {
        let claims = Claims::build_recorded(records, mr);
        (SupportIndex::from_claims(&claims), claims.stats())
    }

    /// The index of grouped `claims`: per unique triple, its distinct
    /// (extractor, page) support pairs counted per extractor.
    pub fn from_claims(claims: &Claims) -> SupportIndex {
        let mut map = FxHashMap::default();
        map.reserve(claims.n_triples());
        for i in 0..claims.n_items() {
            for slot in claims.item_slots(i) {
                // Provenances are distinct and sorted by (extractor, page,
                // …), so distinct pairs are runs, and so are extractors.
                let mut per_extractor: Vec<(ExtractorId, u32)> = Vec::new();
                let mut last_page = None;
                for p in claims.slot_provenances(slot) {
                    match per_extractor.last_mut() {
                        Some((extractor, n)) if *extractor == p.extractor => {
                            *n += u32::from(last_page != Some(p.page));
                        }
                        _ => per_extractor.push((p.extractor, 1)),
                    }
                    last_page = Some(p.page);
                }
                let profile = SupportProfile {
                    n_pages: claims.n_pages(slot),
                    per_extractor,
                };
                map.insert(claims.triple(i, slot), profile);
            }
        }
        SupportIndex { map }
    }

    /// The profile of a triple, if it appears in the batch.
    pub fn get(&self, triple: &Triple) -> Option<&SupportProfile> {
        self.map.get(triple)
    }

    /// Number of indexed unique triples.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kf_types::{EntityId, PageId, PatternId, PredicateId, Provenance, SiteId, Value};

    fn ext(o: u32, extractor: u16, page: u32) -> Extraction {
        Extraction::new(
            Triple::new(EntityId(1), PredicateId(0), Value::Entity(EntityId(o))),
            Provenance::new(
                ExtractorId(extractor),
                PageId(page),
                SiteId(page / 10),
                PatternId::NONE,
            ),
        )
    }

    #[test]
    fn profiles_count_distinct_pages_per_extractor() {
        // Triple 7: extractor 0 on pages {1, 2, 2}, extractor 3 on page 1.
        let records = vec![ext(7, 0, 1), ext(7, 0, 2), ext(7, 0, 2), ext(7, 3, 1)];
        let (index, _) = SupportIndex::build(&records, &MrConfig::sequential());
        assert_eq!(index.len(), 1);
        let p = index.get(&records[0].triple).unwrap();
        assert_eq!(p.n_pages, 2);
        assert_eq!(
            p.per_extractor,
            vec![(ExtractorId(0), 2), (ExtractorId(3), 1)]
        );
        assert_eq!(p.n_extractors(), 2);
        assert_eq!(p.top_extractor(), Some((ExtractorId(0), 2)));
        assert!((p.top_share() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn top_extractor_tie_prefers_smaller_id() {
        let records = vec![ext(7, 4, 1), ext(7, 2, 2)];
        let (index, _) = SupportIndex::build(&records, &MrConfig::sequential());
        let p = index.get(&records[0].triple).unwrap();
        assert_eq!(p.top_extractor(), Some((ExtractorId(2), 1)));
        assert_eq!(p.top_share(), 0.5);
    }

    #[test]
    fn build_is_identical_across_engine_configurations() {
        let records: Vec<Extraction> = (0..3_000)
            .map(|i| ext(i % 40, (i % 7) as u16, i % 180))
            .collect();
        let (base, _) = SupportIndex::build(&records, &MrConfig::sequential());
        for mr in [
            MrConfig::with_workers(4),
            MrConfig::with_workers(4).with_chunk_records(256),
            MrConfig::with_workers(4)
                .with_chunk_records(128)
                .with_spill_threshold(512),
        ] {
            let (other, stats) = SupportIndex::build(&records, &mr);
            assert_eq!(base.map, other.map, "mr {mr:?}");
            if mr.spill_threshold_records > 0 {
                assert!(stats.spilled_bytes > 0, "spill path not exercised");
                // Every wave (≤ 256) fits under the threshold, so the
                // pre-merge spill keeps grouped residency at or under it.
                assert!(stats.peak_grouped_records <= mr.spill_threshold_records as u64);
            }
        }
    }

    #[test]
    fn from_claims_matches_a_naive_support_pair_oracle() {
        use std::collections::{BTreeMap, BTreeSet};
        // Pages revisited with different patterns and re-crawled verbatim:
        // neither may count a (extractor, page) pair twice.
        let mut records: Vec<Extraction> = (0..2_000)
            .map(|i| {
                let mut e = ext(i % 23, (i % 5) as u16, (i * 7) % 60);
                e.provenance.pattern = PatternId(i % 3);
                e
            })
            .collect();
        records.extend_from_within(..500);
        let mut pairs: BTreeMap<Triple, BTreeSet<(ExtractorId, PageId)>> = BTreeMap::new();
        for e in &records {
            let pair = (e.provenance.extractor, e.provenance.page);
            pairs.entry(e.triple).or_default().insert(pair);
        }
        for mr in [
            MrConfig::sequential(),
            MrConfig::with_workers(3)
                .with_chunk_records(200)
                .with_spill_threshold(300),
        ] {
            let index = SupportIndex::from_claims(&Claims::build(&records, &mr));
            assert_eq!(index.len(), pairs.len());
            for (triple, pairs) in &pairs {
                let pages: BTreeSet<PageId> = pairs.iter().map(|&(_, page)| page).collect();
                let mut per_extractor: BTreeMap<ExtractorId, u32> = BTreeMap::new();
                for &(extractor, _) in pairs {
                    *per_extractor.entry(extractor).or_default() += 1;
                }
                let expected = SupportProfile {
                    n_pages: pages.len() as u32,
                    per_extractor: per_extractor.into_iter().collect(),
                };
                assert_eq!(index.get(triple), Some(&expected), "{triple:?}");
            }
        }
    }

    #[test]
    fn empty_profile_edge_cases() {
        let p = SupportProfile::default();
        assert_eq!(p.top_extractor(), None);
        assert_eq!(p.top_share(), 0.0);
        let (index, _) = SupportIndex::build(&[], &MrConfig::sequential());
        assert!(index.is_empty());
    }
}
