//! Knowledge triples and data items.

use crate::ids::{EntityId, PredicateId};
use crate::value::Value;

/// A *data item* in data-fusion terms: a `(subject, predicate)` pair
/// describing one aspect of an entity — e.g. *(Tom Cruise, birth date)*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataItem {
    /// Subject entity.
    pub subject: EntityId,
    /// Predicate.
    pub predicate: PredicateId,
}

impl DataItem {
    /// Construct a data item.
    #[inline]
    pub fn new(subject: EntityId, predicate: PredicateId) -> Self {
        DataItem { subject, predicate }
    }

    /// Stable 64-bit encoding used for partitioning.
    #[inline]
    pub fn encode(self) -> u64 {
        ((self.subject.0 as u64) << 32) | self.predicate.0 as u64
    }
}

/// An RDF-style knowledge triple `(subject, predicate, object)` —
/// e.g. *(Tom Cruise, birth date, 7/3/1962)*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Subject entity.
    pub subject: EntityId,
    /// Predicate.
    pub predicate: PredicateId,
    /// Object value.
    pub object: Value,
}

impl Triple {
    /// Construct a triple.
    #[inline]
    pub fn new(subject: EntityId, predicate: PredicateId, object: Value) -> Self {
        Triple {
            subject,
            predicate,
            object,
        }
    }

    /// The data item this triple provides a value for.
    #[inline]
    pub fn data_item(&self) -> DataItem {
        DataItem::new(self.subject, self.predicate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::StrId;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(EntityId(s), PredicateId(p), Value::Entity(EntityId(o)))
    }

    #[test]
    fn triple_data_item_projection() {
        let tr = t(1, 2, 3);
        assert_eq!(tr.data_item(), DataItem::new(EntityId(1), PredicateId(2)));
    }

    #[test]
    fn data_item_encode_is_injective_for_small_ids() {
        let a = DataItem::new(EntityId(1), PredicateId(2)).encode();
        let b = DataItem::new(EntityId(2), PredicateId(1)).encode();
        assert_ne!(a, b);
    }

    #[test]
    fn triples_with_same_item_different_objects_are_distinct() {
        let a = t(1, 2, 3);
        let b = Triple::new(EntityId(1), PredicateId(2), Value::Str(StrId(3)));
        assert_eq!(a.data_item(), b.data_item());
        assert_ne!(a, b);
    }

    #[test]
    fn triple_ordering_is_lexicographic() {
        assert!(t(1, 2, 3) < t(1, 2, 4));
        assert!(t(1, 2, 9) < t(1, 3, 0));
        assert!(t(1, 9, 9) < t(2, 0, 0));
    }
}
