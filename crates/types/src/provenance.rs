//! Provenance records and granularity-parameterised provenance keys.
//!
//! The paper reduces the three-dimensional KF input to two dimensions by
//! treating an *(Extractor, URL)* pair as a data source, which it calls a
//! **provenance** (§4.1). §4.3.1 then shows that the *granularity* of this
//! key matters a lot for calibration: evaluating accuracy per
//! *(Extractor, Site, Predicate, Pattern)* performs best. [`Granularity`]
//! captures the choices studied in Figs. 9 and 10, and
//! [`ProvenanceKey::at`] projects a full [`Provenance`] record (plus the
//! triple's predicate) onto the chosen granularity.

use crate::ids::{ExtractorId, PageId, PatternId, PredicateId, SiteId};
use std::hash::{Hash, Hasher};

/// Full provenance of one extraction: which extractor produced it, from
/// which page (and the page's site), using which learned pattern.
///
/// This is the "rich provenance information" of §3.1.1 — much richer than
/// the bare source identity used in data fusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Provenance {
    /// The extractor that produced the triple.
    pub extractor: ExtractorId,
    /// The web page (URL) the triple was extracted from.
    pub page: PageId,
    /// The page's site (URL prefix up to the first `/`).
    pub site: SiteId,
    /// The extraction pattern used, or [`PatternId::NONE`] for pattern-free
    /// extractors (Table 2 "No pat.").
    pub pattern: PatternId,
}

impl Provenance {
    /// Construct a provenance record.
    pub fn new(extractor: ExtractorId, page: PageId, site: SiteId, pattern: PatternId) -> Self {
        Provenance {
            extractor,
            page,
            site,
            pattern,
        }
    }
}

/// The granularity at which provenance accuracy is evaluated (§4.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Granularity {
    /// *(Extractor, URL)* — the basic adaptation of §4.1.
    #[default]
    ExtractorPage,
    /// *(Extractor, Site)* — coarser source dimension.
    ExtractorSite,
    /// *(Extractor, Site, Predicate)*.
    ExtractorSitePredicate,
    /// *(Extractor, Site, Predicate, Pattern)* — the best setting in Fig. 10.
    ExtractorSitePredicatePattern,
    /// Extractor pattern only (Fig. 9 "Only ext"): ignores the source.
    ExtractorPatternOnly,
    /// URL only (Fig. 9 "Only src"): ignores the extractor.
    PageOnly,
}

impl Granularity {
    /// All granularities, in the order plotted by the paper.
    pub const ALL: [Granularity; 6] = [
        Granularity::ExtractorPage,
        Granularity::ExtractorSite,
        Granularity::ExtractorSitePredicate,
        Granularity::ExtractorSitePredicatePattern,
        Granularity::ExtractorPatternOnly,
        Granularity::PageOnly,
    ];

    /// Human-readable label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Granularity::ExtractorPage => "(Extractor, URL)",
            Granularity::ExtractorSite => "(Extractor, Site)",
            Granularity::ExtractorSitePredicate => "(Extractor, Site, Predicate)",
            Granularity::ExtractorSitePredicatePattern => "(Extractor, Site, Predicate, Pattern)",
            Granularity::ExtractorPatternOnly => "Only extractor (pattern)",
            Granularity::PageOnly => "Only source (URL)",
        }
    }
}

/// A provenance projected onto a [`Granularity`]: the unit whose accuracy
/// the fusion algorithms estimate. Fields not included in the granularity
/// are `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProvenanceKey {
    /// Extractor dimension, when included.
    pub extractor: Option<ExtractorId>,
    /// Page dimension, when included.
    pub page: Option<PageId>,
    /// Site dimension, when included.
    pub site: Option<SiteId>,
    /// Predicate dimension, when included.
    pub predicate: Option<PredicateId>,
    /// Pattern dimension, when included.
    pub pattern: Option<PatternId>,
}

/// Manual `Hash`: the derived impl hashes five `Option` discriminants and
/// payloads as ~10 separate hasher writes, and grouping hashes one key per
/// extraction record, so this is on the fusion hot path. The five fields
/// pack losslessly into two `u64` words plus one trailing `u32` (a 5-bit
/// presence mask disambiguates absent fields from raw value 0), cutting
/// the per-key hashing cost to three writes. Equal keys produce equal
/// words, which is all `Hash` correctness requires.
impl Hash for ProvenanceKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mask = (self.extractor.is_some() as u64)
            | (self.page.is_some() as u64) << 1
            | (self.site.is_some() as u64) << 2
            | (self.predicate.is_some() as u64) << 3
            | (self.pattern.is_some() as u64) << 4;
        // Bits: mask 0..5, extractor 8..24, pattern 24..56.
        let w1 = mask
            | self.extractor.map_or(0, |e| e.raw() as u64) << 8
            | self.pattern.map_or(0, |p| p.raw() as u64) << 24;
        // Bits: page 0..32, site 32..64.
        let w2 =
            self.page.map_or(0, |p| p.raw() as u64) | self.site.map_or(0, |s| s.raw() as u64) << 32;
        state.write_u64(w1);
        state.write_u64(w2);
        state.write_u32(self.predicate.map_or(0, |p| p.raw()));
    }
}

impl ProvenanceKey {
    /// Project `prov` (for a triple with predicate `predicate`) onto
    /// granularity `g`.
    pub fn at(g: Granularity, prov: &Provenance, predicate: PredicateId) -> Self {
        let mut key = ProvenanceKey {
            extractor: None,
            page: None,
            site: None,
            predicate: None,
            pattern: None,
        };
        match g {
            Granularity::ExtractorPage => {
                key.extractor = Some(prov.extractor);
                key.page = Some(prov.page);
            }
            Granularity::ExtractorSite => {
                key.extractor = Some(prov.extractor);
                key.site = Some(prov.site);
            }
            Granularity::ExtractorSitePredicate => {
                key.extractor = Some(prov.extractor);
                key.site = Some(prov.site);
                key.predicate = Some(predicate);
            }
            Granularity::ExtractorSitePredicatePattern => {
                key.extractor = Some(prov.extractor);
                key.site = Some(prov.site);
                key.predicate = Some(predicate);
                key.pattern = Some(prov.pattern);
            }
            Granularity::ExtractorPatternOnly => {
                key.extractor = Some(prov.extractor);
                key.pattern = Some(prov.pattern);
            }
            Granularity::PageOnly => {
                key.page = Some(prov.page);
            }
        }
        key
    }

    /// Stable 64-bit mixing of the key for partitioning decisions.
    pub fn encode(&self) -> u64 {
        crate::hash::hash_one(self)
    }

    /// Pack the key losslessly into one `u128` word — the shuffle
    /// representation used by single-pass grouping, where the key rides
    /// along with every observation.
    ///
    /// Layout (most significant first): extractor `112..128`,
    /// page-or-site `80..112`, predicate `48..80`, pattern `16..48`,
    /// presence mask `0..5`. Page and site share a bit range because no
    /// [`Granularity`] includes both; the mask keeps the packing injective
    /// anyway. Among keys of one granularity (equal masks), `u128`
    /// ordering equals the key's derived lexicographic ordering, so a
    /// sorted run of packed keys unpacks into a sorted run of keys.
    #[inline]
    pub fn pack(&self) -> u128 {
        // A hard assert, not debug-only: the fields are public, and a
        // hand-built key with both set would otherwise pack into a
        // silently different key (the ORed bit range) in release builds.
        assert!(
            self.page.is_none() || self.site.is_none(),
            "page and site share a bit range; no granularity sets both"
        );
        let mask = (self.extractor.is_some() as u128)
            | (self.page.is_some() as u128) << 1
            | (self.site.is_some() as u128) << 2
            | (self.predicate.is_some() as u128) << 3
            | (self.pattern.is_some() as u128) << 4;
        (self.extractor.map_or(0, |e| e.raw() as u128)) << 112
            | (self.page.map_or(0, |p| p.raw() as u128) | self.site.map_or(0, |s| s.raw() as u128))
                << 80
            | (self.predicate.map_or(0, |p| p.raw() as u128)) << 48
            | (self.pattern.map_or(0, |p| p.raw() as u128)) << 16
            | mask
    }

    /// Inverse of [`ProvenanceKey::pack`].
    #[inline]
    pub fn unpack(packed: u128) -> ProvenanceKey {
        let shared = (packed >> 80) as u32;
        ProvenanceKey {
            extractor: (packed & 1 != 0).then_some(ExtractorId((packed >> 112) as u16)),
            page: (packed & 2 != 0).then_some(PageId(shared)),
            site: (packed & 4 != 0).then_some(SiteId(shared)),
            predicate: (packed & 8 != 0).then_some(PredicateId((packed >> 48) as u32)),
            pattern: (packed & 16 != 0).then_some(PatternId((packed >> 16) as u32)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prov() -> Provenance {
        Provenance::new(ExtractorId(3), PageId(100), SiteId(7), PatternId(42))
    }

    #[test]
    fn extractor_page_key_ignores_site_and_pattern() {
        let k = ProvenanceKey::at(Granularity::ExtractorPage, &prov(), PredicateId(5));
        assert_eq!(k.extractor, Some(ExtractorId(3)));
        assert_eq!(k.page, Some(PageId(100)));
        assert_eq!(k.site, None);
        assert_eq!(k.predicate, None);
        assert_eq!(k.pattern, None);
    }

    #[test]
    fn finest_granularity_keeps_four_dimensions() {
        let k = ProvenanceKey::at(
            Granularity::ExtractorSitePredicatePattern,
            &prov(),
            PredicateId(5),
        );
        assert_eq!(k.extractor, Some(ExtractorId(3)));
        assert_eq!(k.page, None);
        assert_eq!(k.site, Some(SiteId(7)));
        assert_eq!(k.predicate, Some(PredicateId(5)));
        assert_eq!(k.pattern, Some(PatternId(42)));
    }

    #[test]
    fn page_only_drops_the_extractor() {
        let k = ProvenanceKey::at(Granularity::PageOnly, &prov(), PredicateId(5));
        assert_eq!(k.extractor, None);
        assert_eq!(k.page, Some(PageId(100)));
    }

    #[test]
    fn extractor_pattern_only_drops_the_source() {
        let k = ProvenanceKey::at(Granularity::ExtractorPatternOnly, &prov(), PredicateId(5));
        assert_eq!(k.extractor, Some(ExtractorId(3)));
        assert_eq!(k.pattern, Some(PatternId(42)));
        assert_eq!(k.page, None);
        assert_eq!(k.site, None);
    }

    #[test]
    fn same_site_pages_collapse_at_site_granularity() {
        let p1 = Provenance::new(ExtractorId(1), PageId(10), SiteId(7), PatternId::NONE);
        let p2 = Provenance::new(ExtractorId(1), PageId(11), SiteId(7), PatternId::NONE);
        let k1 = ProvenanceKey::at(Granularity::ExtractorSite, &p1, PredicateId(0));
        let k2 = ProvenanceKey::at(Granularity::ExtractorSite, &p2, PredicateId(0));
        assert_eq!(k1, k2);
        let k1p = ProvenanceKey::at(Granularity::ExtractorPage, &p1, PredicateId(0));
        let k2p = ProvenanceKey::at(Granularity::ExtractorPage, &p2, PredicateId(0));
        assert_ne!(k1p, k2p);
    }

    #[test]
    fn all_granularities_have_distinct_labels() {
        let labels: std::collections::HashSet<_> =
            Granularity::ALL.iter().map(|g| g.label()).collect();
        assert_eq!(labels.len(), Granularity::ALL.len());
    }

    #[test]
    fn packed_hash_matches_equality() {
        // Equal keys must hash equal; keys differing in exactly one field
        // (or only in field *presence*) must almost surely differ.
        use crate::hash::hash_one;
        let p = prov();
        for g in Granularity::ALL {
            let a = ProvenanceKey::at(g, &p, PredicateId(5));
            let b = ProvenanceKey::at(g, &p, PredicateId(5));
            assert_eq!(hash_one(&a), hash_one(&b));
        }
        // Presence vs raw-zero: {extractor: Some(0)} ≠ {} even though the
        // absent field also packs as 0 — the mask bit separates them.
        let some_zero = ProvenanceKey {
            extractor: Some(ExtractorId(0)),
            page: None,
            site: None,
            predicate: None,
            pattern: None,
        };
        let empty = ProvenanceKey {
            extractor: None,
            page: None,
            site: None,
            predicate: None,
            pattern: None,
        };
        assert_ne!(hash_one(&some_zero), hash_one(&empty));
        // Same raw value in different fields occupies different bit ranges.
        let page5 = ProvenanceKey {
            page: Some(PageId(5)),
            ..empty
        };
        let site5 = ProvenanceKey {
            site: Some(SiteId(5)),
            ..empty
        };
        assert_ne!(hash_one(&page5), hash_one(&site5));
    }

    #[test]
    fn encode_differs_across_granularities() {
        let p = prov();
        let a = ProvenanceKey::at(Granularity::ExtractorPage, &p, PredicateId(5)).encode();
        let b = ProvenanceKey::at(Granularity::ExtractorSite, &p, PredicateId(5)).encode();
        assert_ne!(a, b);
    }

    #[test]
    fn pack_roundtrips_at_every_granularity() {
        let p = prov();
        for g in Granularity::ALL {
            let key = ProvenanceKey::at(g, &p, PredicateId(5));
            assert_eq!(ProvenanceKey::unpack(key.pack()), key, "granularity {g:?}");
        }
        // Distinct granularity projections pack to distinct words (the
        // presence mask disambiguates shared bit ranges).
        let mut packed: Vec<u128> = Granularity::ALL
            .iter()
            .map(|&g| ProvenanceKey::at(g, &p, PredicateId(5)).pack())
            .collect();
        packed.sort_unstable();
        packed.dedup();
        assert_eq!(packed.len(), Granularity::ALL.len());
    }

    #[test]
    fn packed_order_matches_key_order_within_granularity() {
        // Sorting packed words must sort the keys identically — single-pass
        // grouping relies on this for dense sorted provenance ids.
        let mut provs = Vec::new();
        for e in [0u16, 1, 9] {
            for page in [0u32, 7, 1_000_000] {
                for pattern in [0u32, 3, u32::MAX] {
                    provs.push(Provenance::new(
                        ExtractorId(e),
                        PageId(page),
                        SiteId(page / 10),
                        PatternId(pattern),
                    ));
                }
            }
        }
        for g in Granularity::ALL {
            let mut keys: Vec<ProvenanceKey> = provs
                .iter()
                .map(|p| ProvenanceKey::at(g, p, PredicateId(2)))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let mut packed: Vec<u128> = keys.iter().map(|k| k.pack()).collect();
            packed.sort_unstable();
            let unpacked: Vec<ProvenanceKey> =
                packed.iter().map(|&w| ProvenanceKey::unpack(w)).collect();
            assert_eq!(unpacked, keys, "granularity {g:?}");
        }
    }
}
