//! The gold standard and the local closed-world assumption (LCWA).
//!
//! §3.2.1: a triple `(s, p, o)` is labelled **true** if it occurs in
//! Freebase; **false** if it does not but the data item `(s, p)` does (the
//! *local* closed-world assumption: once Freebase knows a data item, it is
//! assumed locally complete); and **unknown** (excluded from evaluation)
//! when Freebase knows nothing about `(s, p)`.
//!
//! The same structure powers the semi-supervised accuracy initialisation of
//! §4.3.3 and the automated error taxonomy of Fig. 17.

use crate::hash::FxHashMap;
use crate::triple::{DataItem, Triple};
use crate::value::Value;

/// Gold-standard label under LCWA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Triple occurs in the gold KB.
    True,
    /// Data item occurs, but with different object value(s).
    False,
    /// Data item absent from the gold KB — abstain.
    Unknown,
}

impl Label {
    /// `Some(true/false)` for labelled triples, `None` for unknown.
    #[inline]
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Label::True => Some(true),
            Label::False => Some(false),
            Label::Unknown => None,
        }
    }
}

/// A trusted partial KB (the paper uses Freebase) mapping known data items
/// to their accepted object values.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct GoldStandard {
    items: FxHashMap<DataItem, Vec<Value>>,
    n_triples: usize,
}

/// Checkpoint encoding: columnar `(item, accepted values)` groups in
/// sorted key order, so the bytes are canonical (independent of hash-map
/// history) and decode is a bulk column scan. `n_triples` is recomputed
/// on decode rather than trusted from the file.
impl crate::KvCodec for GoldStandard {
    fn encode(&self, out: &mut Vec<u8>) {
        let mut entries: Vec<(&DataItem, &Vec<Value>)> = self.items.iter().collect();
        entries.sort_by_key(|(item, _)| **item);
        crate::codec::encode_item_values_columns(
            entries.len(),
            entries
                .iter()
                .map(|(item, values)| (**item, values.as_slice())),
            out,
        );
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let groups = crate::codec::decode_item_values_columns(input)?;
        let mut n_triples = 0usize;
        let mut items = FxHashMap::default();
        items.reserve(groups.len());
        for (item, values) in groups {
            n_triples += values.len();
            if items.insert(item, values).is_some() {
                return None;
            }
        }
        Some(GoldStandard { items, n_triples })
    }
}

impl GoldStandard {
    /// An empty gold standard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `value` as an accepted object for `item`. Duplicate inserts
    /// are ignored.
    pub fn insert(&mut self, item: DataItem, value: Value) {
        let values = self.items.entry(item).or_default();
        if !values.contains(&value) {
            values.push(value);
            self.n_triples += 1;
        }
    }

    /// Label a triple under LCWA.
    pub fn label(&self, triple: &Triple) -> Label {
        match self.items.get(&triple.data_item()) {
            None => Label::Unknown,
            Some(values) => {
                if values.contains(&triple.object) {
                    Label::True
                } else {
                    Label::False
                }
            }
        }
    }

    /// Accepted values for a data item (`None` when the item is unknown).
    pub fn values(&self, item: &DataItem) -> Option<&[Value]> {
        self.items.get(item).map(Vec::as_slice)
    }

    /// Whether the gold KB knows anything about `item`.
    pub fn knows(&self, item: &DataItem) -> bool {
        self.items.contains_key(item)
    }

    /// Number of known data items.
    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// Number of accepted (item, value) pairs.
    pub fn n_triples(&self) -> usize {
        self.n_triples
    }

    /// Iterate over `(item, accepted values)`.
    pub fn iter(&self) -> impl Iterator<Item = (&DataItem, &[Value])> {
        self.items.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Distribution of the number of accepted values per data item, capped
    /// at `max` (used by Fig. 20).
    pub fn truth_count_histogram(&self, max: usize) -> Vec<usize> {
        let mut hist = vec![0usize; max + 1];
        for values in self.items.values() {
            let n = values.len().min(max);
            hist[n] += 1;
        }
        hist
    }
}

impl FromIterator<(DataItem, Value)> for GoldStandard {
    fn from_iter<I: IntoIterator<Item = (DataItem, Value)>>(iter: I) -> Self {
        let mut gs = GoldStandard::new();
        for (item, value) in iter {
            gs.insert(item, value);
        }
        gs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{EntityId, PredicateId};

    fn item(s: u32, p: u32) -> DataItem {
        DataItem::new(EntityId(s), PredicateId(p))
    }

    fn triple(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(EntityId(s), PredicateId(p), Value::Entity(EntityId(o)))
    }

    #[test]
    fn lcwa_labels() {
        let mut gs = GoldStandard::new();
        gs.insert(item(1, 1), Value::Entity(EntityId(10)));
        // Known item + matching object => True.
        assert_eq!(gs.label(&triple(1, 1, 10)), Label::True);
        // Known item + different object => False (local closed world).
        assert_eq!(gs.label(&triple(1, 1, 11)), Label::False);
        // Unknown item => abstain.
        assert_eq!(gs.label(&triple(2, 1, 10)), Label::Unknown);
    }

    #[test]
    fn multi_truth_items_label_all_accepted_values_true() {
        // Non-functional predicate: a movie with two actors.
        let mut gs = GoldStandard::new();
        gs.insert(item(5, 2), Value::Entity(EntityId(100)));
        gs.insert(item(5, 2), Value::Entity(EntityId(101)));
        assert_eq!(gs.label(&triple(5, 2, 100)), Label::True);
        assert_eq!(gs.label(&triple(5, 2, 101)), Label::True);
        assert_eq!(gs.label(&triple(5, 2, 102)), Label::False);
        assert_eq!(gs.n_items(), 1);
        assert_eq!(gs.n_triples(), 2);
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let mut gs = GoldStandard::new();
        gs.insert(item(1, 1), Value::Entity(EntityId(10)));
        gs.insert(item(1, 1), Value::Entity(EntityId(10)));
        assert_eq!(gs.n_triples(), 1);
    }

    #[test]
    fn label_as_bool() {
        assert_eq!(Label::True.as_bool(), Some(true));
        assert_eq!(Label::False.as_bool(), Some(false));
        assert_eq!(Label::Unknown.as_bool(), None);
    }

    #[test]
    fn truth_histogram_caps_at_max() {
        let mut gs = GoldStandard::new();
        for o in 0..7 {
            gs.insert(item(1, 1), Value::Entity(EntityId(o)));
        }
        gs.insert(item(2, 1), Value::Entity(EntityId(0)));
        let hist = gs.truth_count_histogram(5);
        assert_eq!(hist[1], 1); // item(2,1) has one truth
        assert_eq!(hist[5], 1); // item(1,1) capped from 7 to 5
        assert_eq!(hist.iter().sum::<usize>(), 2);
    }

    #[test]
    fn kvcodec_roundtrip_restores_labels_and_counts() {
        use crate::KvCodec;
        let mut gs = GoldStandard::new();
        gs.insert(item(1, 1), Value::Entity(EntityId(10)));
        gs.insert(item(1, 1), Value::Entity(EntityId(11)));
        gs.insert(item(2, 3), Value::Entity(EntityId(9)));
        let mut buf = Vec::new();
        gs.encode(&mut buf);
        let mut input = &buf[..];
        let back = GoldStandard::decode(&mut input).unwrap();
        assert!(input.is_empty());
        assert_eq!(back, gs);
        assert_eq!(back.n_triples(), 3);
        assert_eq!(back.label(&triple(1, 1, 11)), Label::True);
        assert_eq!(back.label(&triple(1, 1, 12)), Label::False);
        // Truncations never parse.
        for cut in 0..buf.len() {
            assert_eq!(GoldStandard::decode(&mut &buf[..cut]), None);
        }
    }

    #[test]
    fn from_iterator_builds_gold() {
        let gs: GoldStandard = vec![
            (item(1, 1), Value::Entity(EntityId(1))),
            (item(1, 2), Value::Entity(EntityId(2))),
        ]
        .into_iter()
        .collect();
        assert_eq!(gs.n_items(), 2);
        assert!(gs.knows(&item(1, 2)));
        assert!(!gs.knows(&item(9, 9)));
    }
}
