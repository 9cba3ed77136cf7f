//! The read workload: a seeded PRNG, the query mix drawn from it, and the
//! oracle answers are checked against.

use kf_core::{FusionOutput, ProvenanceAttribution};
use kf_serve::KbReader;
use kf_types::{DataItem, EntityId, FxHashMap, PredicateId, Triple, Value};

/// SplitMix64: the same seed gives the same query stream on every machine.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Lookup,
    Belief,
    TopK,
    Drilldown,
}

/// The mix, in percent: 60% `lookup`, 20% `belief` + `best()`, 10%
/// `top_k(8)`, 10% `drilldown` + iterate.
pub const MIX: [(Kind, u64); 4] = [
    (Kind::Lookup, 60),
    (Kind::Belief, 20),
    (Kind::TopK, 10),
    (Kind::Drilldown, 10),
];
/// One key in ten is absent from the KB.
pub const ABSENT_ONE_IN: u64 = 10;
pub const TOP_K: usize = 8;

#[derive(Debug, Clone, Copy)]
pub enum Query {
    Lookup(Triple),
    Belief(DataItem),
    TopK(PredicateId),
    Drilldown(Triple),
}

/// A query and whether the KB must answer it.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub query: Query,
    pub hit: bool,
}

/// Every served triple and every distinct data item among them, copied
/// out once before timing, so drawing a key never reads the KB under test.
/// `belief` keys are drawn uniformly over the items: drawn through a
/// uniform triple, an item would come up in proportion to its number of
/// values, and the cost of a `belief` call — a fifth of the mix — would
/// follow the second moment of that heavy-tailed count, which differs from
/// one seed's corpus to the next far more than the corpus does.
pub struct KeySpace {
    triples: Vec<Triple>,
    items: Vec<DataItem>,
}

impl KeySpace {
    pub fn of(reader: &KbReader) -> KeySpace {
        let n = reader.kb().n_triples() as u32;
        KeySpace::from_triples((0..n).map(|row| reader.view(row).triple).collect())
    }

    fn from_triples(triples: Vec<Triple>) -> KeySpace {
        let mut seen = FxHashMap::default();
        let items = triples
            .iter()
            .map(Triple::data_item)
            .filter(|item| seen.insert(*item, ()).is_none())
            .collect();
        KeySpace { triples, items }
    }
}

/// Ids this far up are never allocated (ids are dense from 0), so keys
/// built from them are absent by construction.
fn absent_id(r: u64) -> u32 {
    u32::MAX - (r >> 40) as u32 % 1024
}

/// One query of `kind` over a key drawn by `r`; `absent` swaps in a key
/// the KB cannot hold.
pub fn plan(keys: &KeySpace, kind: Kind, absent: bool, r: u64) -> Planned {
    let key = r / 1000;
    let t = keys.triples[(key % keys.triples.len() as u64) as usize];
    let item = keys.items[(key % keys.items.len() as u64) as usize];
    let gone = Triple {
        object: Value::Entity(EntityId(absent_id(r))),
        ..t
    };
    let query = match (kind, absent) {
        (Kind::Lookup, false) => Query::Lookup(t),
        (Kind::Lookup, true) => Query::Lookup(gone),
        (Kind::Drilldown, false) => Query::Drilldown(t),
        (Kind::Drilldown, true) => Query::Drilldown(gone),
        (Kind::Belief, false) => Query::Belief(item),
        (Kind::Belief, true) => Query::Belief(DataItem::new(EntityId(absent_id(r)), t.predicate)),
        (Kind::TopK, false) => Query::TopK(t.predicate),
        (Kind::TopK, true) => Query::TopK(PredicateId(absent_id(r))),
    };
    Planned {
        query,
        hit: !absent,
    }
}

/// Draw the next query of the mix.
pub fn draw(rng: &mut Rng, keys: &KeySpace) -> Planned {
    let r = rng.next_u64();
    let mut pick = r % 100;
    let mut kind = Kind::Lookup;
    for (k, share) in MIX {
        if pick < share {
            kind = k;
            break;
        }
        pick -= share;
    }
    // Mixed-radix digits of one draw: kind, absence and key (in `plan`)
    // stay independent of each other.
    plan(keys, kind, (r / 100).is_multiple_of(ABSENT_ONE_IN), r)
}

/// Issue one query; returns bits of the answer (so the read cannot be
/// optimised away) and whether the KB answered.
#[inline]
pub fn execute(reader: &KbReader, query: &Query) -> (u64, bool) {
    match query {
        Query::Lookup(t) => match reader.lookup(t) {
            Some(v) => (v.calibrated.to_bits(), true),
            None => (0, false),
        },
        Query::Belief(item) => match reader.belief(*item) {
            Some(b) => (b.best().raw.to_bits(), true),
            None => (0, false),
        },
        Query::TopK(p) => match reader.top_k(*p, TOP_K) {
            Some(top) => (top.len() as u64, true),
            None => (0, false),
        },
        Query::Drilldown(t) => match reader.drilldown(t) {
            Some(d) => (
                d.iter().fold(0u64, |acc, s| acc ^ s.accuracy.to_bits()),
                true,
            ),
            None => (0, false),
        },
    }
}

/// Expected answers, built from the `FusionOutput` the KB was compiled
/// from — independent of every index inside the KB.
pub struct Oracle {
    /// Predicted triple → (probability bits, supporting provenances).
    triples: FxHashMap<Triple, (u64, usize)>,
    items: FxHashMap<DataItem, usize>,
    predicates: FxHashMap<PredicateId, usize>,
}

impl Oracle {
    pub fn build(output: &FusionOutput, attribution: &ProvenanceAttribution) -> Oracle {
        let mut oracle = Oracle {
            triples: FxHashMap::default(),
            items: FxHashMap::default(),
            predicates: FxHashMap::default(),
        };
        for (i, scored) in output.scored.iter().enumerate() {
            let Some(p) = scored.probability else {
                continue;
            };
            oracle
                .triples
                .insert(scored.triple, (p.to_bits(), attribution.provs(i).len()));
            *oracle.items.entry(scored.triple.data_item()).or_default() += 1;
            *oracle
                .predicates
                .entry(scored.triple.predicate)
                .or_default() += 1;
        }
        oracle
    }

    pub fn served_triples(&self) -> usize {
        self.triples.len()
    }

    /// Whether the reader's answer to `planned` is the expected one.
    pub fn check(&self, reader: &KbReader, planned: &Planned) -> bool {
        match &planned.query {
            Query::Lookup(t) => match (reader.lookup(t), self.triples.get(t)) {
                (None, None) => !planned.hit,
                (Some(v), Some(&(bits, _))) => {
                    planned.hit && v.triple == *t && v.raw.to_bits() == bits
                }
                _ => false,
            },
            Query::Belief(item) => match (reader.belief(*item), self.items.get(item)) {
                (None, None) => !planned.hit,
                (Some(b), Some(&n)) => {
                    let best = b.best();
                    planned.hit
                        && b.len() == n
                        && b.iter().all(|v| {
                            v.triple.data_item() == *item
                                && v.calibrated <= best.calibrated
                                && self
                                    .triples
                                    .get(&v.triple)
                                    .is_some_and(|&(bits, _)| bits == v.raw.to_bits())
                        })
                }
                _ => false,
            },
            Query::TopK(p) => match (reader.top_k(*p, TOP_K), self.predicates.get(p)) {
                (None, None) => !planned.hit,
                (Some(top), Some(&n)) => {
                    let rows: Vec<_> = top.iter().collect();
                    planned.hit
                        && rows.len() == n.min(TOP_K)
                        && rows.iter().all(|v| v.triple.predicate == *p)
                        && rows.windows(2).all(|w| w[0].calibrated >= w[1].calibrated)
                }
                _ => false,
            },
            Query::Drilldown(t) => match (reader.drilldown(t), self.triples.get(t)) {
                (None, None) => !planned.hit,
                (Some(d), Some(&(_, provs))) => {
                    planned.hit && d.view().triple == *t && d.len() == provs
                }
                _ => false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> KeySpace {
        KeySpace::from_triples(
            (0..1000)
                .map(|i| {
                    Triple::new(
                        EntityId(i),
                        PredicateId(i % 7),
                        Value::Entity(EntityId(i + 1)),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b, mut c) = (Rng::new(9), Rng::new(9), Rng::new(10));
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn mix_proportions_hold() {
        assert_eq!(MIX.iter().map(|&(_, share)| share).sum::<u64>(), 100);
        let keys = keys();
        let mut rng = Rng::new(42);
        let n = 200_000usize;
        let (mut counts, mut absent) = ([0usize; 4], 0usize);
        for _ in 0..n {
            let p = draw(&mut rng, &keys);
            let slot = match p.query {
                Query::Lookup(_) => 0,
                Query::Belief(_) => 1,
                Query::TopK(_) => 2,
                Query::Drilldown(_) => 3,
            };
            counts[slot] += 1;
            absent += usize::from(!p.hit);
        }
        for (slot, (_, share)) in MIX.iter().enumerate() {
            let got = counts[slot] as f64 / n as f64;
            assert!((got - *share as f64 / 100.0).abs() < 0.005, "{slot}: {got}");
        }
        let got = absent as f64 / n as f64;
        assert!((got - 0.1).abs() < 0.005, "absent {got}");
    }

    #[test]
    fn absent_keys_lie_outside_the_dense_id_range() {
        let keys = keys();
        for r in [0u64, u64::MAX, 0xdead_beef_0000_0000] {
            match plan(&keys, Kind::Lookup, true, r).query {
                Query::Lookup(t) => {
                    assert!(matches!(t.object, Value::Entity(e) if e.0 > u32::MAX - 1024))
                }
                _ => unreachable!(),
            }
            match plan(&keys, Kind::TopK, true, r).query {
                Query::TopK(p) => assert!(p.0 > u32::MAX - 1024),
                _ => unreachable!(),
            }
        }
    }
}
