//! Compact newtype identifiers.
//!
//! Every noun in the system — entity, predicate, type, web page, web site,
//! extractor, extraction pattern, interned string — is referred to by a
//! small `Copy` integer id. Ids are dense (allocated 0..n by the catalogs
//! and generators), so they double as indices into side tables.

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $repr:ty) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $repr);

        impl $name {
            /// Construct from a dense index.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                Self(index as $repr)
            }

            /// The dense index this id was allocated at.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Raw integer value.
            #[inline]
            pub fn raw(self) -> $repr {
                self.0
            }
        }

        impl From<usize> for $name {
            #[inline]
            fn from(index: usize) -> Self {
                Self::from_index(index)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// A Freebase-style entity (e.g. `/m/07r1h` for Tom Cruise).
    EntityId,
    u32
);
id_type!(
    /// A predicate from the KB schema (e.g. `people/person/birth_date`).
    PredicateId,
    u32
);
id_type!(
    /// An entity type in the shallow two-level hierarchy (e.g. `people/person`).
    TypeId,
    u32
);
id_type!(
    /// A single web page (URL). The paper's finest source granularity.
    PageId,
    u32
);
id_type!(
    /// A web site: the URL prefix up to the first `/` (e.g. `en.wikipedia.org`).
    SiteId,
    u32
);
id_type!(
    /// One of the information extractors (the paper uses 12).
    ExtractorId,
    u16
);
id_type!(
    /// A learned extraction pattern / template within an extractor.
    PatternId,
    u32
);
id_type!(
    /// An interned string.
    StrId,
    u32
);

impl PatternId {
    /// Sentinel for extractors that do not use patterns (Table 2: "No pat.").
    pub const NONE: PatternId = PatternId(u32::MAX);

    /// True if this is the no-pattern sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self == Self::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let e = EntityId::from_index(17);
        assert_eq!(e.index(), 17);
        assert_eq!(e.raw(), 17);
        assert_eq!(EntityId::from(17usize), e);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(PredicateId(3) < PredicateId(9));
        assert!(PageId(100) > PageId(99));
    }

    #[test]
    fn pattern_sentinel() {
        assert!(PatternId::NONE.is_none());
        assert!(!PatternId(0).is_none());
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(EntityId(5).to_string(), "EntityId(5)");
        assert_eq!(ExtractorId(2).to_string(), "ExtractorId(2)");
    }

    #[test]
    fn ids_are_usable_as_map_keys() {
        use crate::hash::FxHashMap;
        let mut m: FxHashMap<EntityId, u32> = FxHashMap::default();
        m.insert(EntityId(1), 10);
        m.insert(EntityId(2), 20);
        assert_eq!(m[&EntityId(2)], 20);
    }
}
