//! The ground-truth world model.
//!
//! The world is what the (simulated) web imperfectly describes: a catalog of
//! typed entities and predicates, the set of *true* facts for every data
//! item, a location-style value hierarchy (§5.4), a confusability map
//! between entities (the substrate for entity-linkage errors, §3.1.3), and
//! sibling predicates (the substrate for predicate-linkage errors, e.g.
//! book author vs. book editor).

use crate::config::WorldConfig;
use kf_types::{
    Catalog, DataItem, EntityId, FxHashMap, FxHashSet, KvCodec, Numeric, PredicateId,
    PredicateInfo, Triple, Value, ValueHierarchy, ValueKind,
};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Poisson};

/// The ground truth: entities, predicates, true facts, hierarchy,
/// confusables. Everything downstream (web pages, extractors, gold KB,
/// error analysis) derives from this.
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    /// Schema catalog (types, predicates, entities, strings).
    pub catalog: Catalog,
    /// True values for every data item that exists in the world.
    facts: FxHashMap<DataItem, Vec<Value>>,
    /// Data items in insertion order (deterministic iteration).
    items: Vec<DataItem>,
    /// Child → parent edges of the value hierarchy.
    hierarchy: FxHashMap<Value, Value>,
    /// Interior hierarchy nodes (values that are some value's parent) —
    /// the ontology side of the error-taxonomy join: a reported interior
    /// value is the signature of a wrong-but-general extraction.
    hierarchy_interior: FxHashSet<Value>,
    /// Entity → confusable entity (same-name / similar-name pairs).
    confusables: FxHashMap<EntityId, EntityId>,
    /// Predicate → sibling predicate of the same type (author ↔ editor).
    siblings: FxHashMap<PredicateId, PredicateId>,
    /// Entities that belong to the hierarchy (location-like), root-first.
    hierarchy_entities: Vec<EntityId>,
    /// Per-type entity lists.
    entities_by_type: Vec<Vec<EntityId>>,
    /// Pool of junk values used to materialise triple-identification errors
    /// (e.g. "taking part of the album name as the artist").
    noise_values: Vec<Value>,
}

/// `args` formatted into `buf`, reusing its allocation.
fn format_in<'a>(buf: &'a mut String, args: std::fmt::Arguments) -> &'a str {
    use std::fmt::Write;
    buf.clear();
    buf.write_fmt(args)
        .expect("formatting into a String cannot fail");
    buf
}

impl World {
    /// Generate a world from `cfg`, deterministically from `seed`.
    pub fn generate(cfg: &WorldConfig, seed: u64) -> Self {
        Self::generate_with_confusable_ring(cfg, 2, seed)
    }

    /// [`World::generate`] with an inflated confusable surface: entities
    /// are grouped into rings of `ring` (≥ 2) within each type, each
    /// mapping to the next ring member. `ring = 2` is the honest world's
    /// symmetric pairing — byte-identical to [`World::generate`]. The
    /// hard-linkage scenario (`LinkageConfig::confusable_ring`) drives
    /// larger rings.
    pub fn generate_with_confusable_ring(cfg: &WorldConfig, ring: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut catalog = Catalog::new();
        // Names are formatted into one reused buffer; the interner keeps
        // its own copy.
        let mut name_buf = String::new();

        // ---- Types -------------------------------------------------------
        let type_names = [
            "location",
            "organization",
            "business",
            "people/person",
            "film/film",
            "music/album",
            "book/book",
            "sports/team",
            "biology/species",
            "education/school",
            "tv/program",
            "geography/river",
            "award/award",
            "computer/software",
            "food/dish",
            "event/event",
        ];
        let n_types = cfg.n_types.max(2);
        let mut type_ids = Vec::with_capacity(n_types);
        for i in 0..n_types {
            let name = type_names
                .get(i)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("domain/type_{i}"));
            type_ids.push(catalog.add_type(name));
        }
        // Type 0 ("location") hosts the value hierarchy.
        let location_ty = type_ids[0];

        // ---- Hierarchy entities -------------------------------------------
        // A tree of locations: level 0 = continents ... level depth-1 = cities.
        let mut hierarchy = FxHashMap::default();
        let mut hierarchy_entities = Vec::new();
        let mut levels: Vec<Vec<EntityId>> = Vec::new();
        {
            let mut prev: Vec<EntityId> = Vec::new();
            for depth in 0..cfg.hierarchy_depth.max(1) {
                let width = if depth == 0 {
                    4
                } else {
                    (prev.len() * cfg.hierarchy_branching).min(2_000)
                };
                let mut level = Vec::with_capacity(width);
                for i in 0..width.max(1) {
                    let name = format_in(&mut name_buf, format_args!("loc_d{depth}_{i}"));
                    let e = catalog.add_entity(name, location_ty);
                    hierarchy_entities.push(e);
                    if let Some(parent) = prev.get(i % prev.len().max(1)) {
                        if !prev.is_empty() {
                            hierarchy.insert(Value::Entity(e), Value::Entity(*parent));
                        }
                    }
                    level.push(e);
                }
                prev = level.clone();
                levels.push(level);
            }
        }

        // ---- Ordinary entities --------------------------------------------
        // Zipf-skewed type sizes: a few huge types (location, organization,
        // business per the paper), a long tail of small ones.
        let n_ordinary = cfg
            .n_entities
            .saturating_sub(hierarchy_entities.len())
            .max(n_types);
        let mut entities_by_type: Vec<Vec<EntityId>> = vec![Vec::new(); n_types];
        entities_by_type[0] = hierarchy_entities.clone();
        {
            // Weight type t by 1/(t+1)^1.1, skipping the location type.
            let weights: Vec<f64> = (0..n_types)
                .map(|t| 1.0 / (t as f64 + 1.0).powf(1.1))
                .collect();
            let total: f64 = weights[1..].iter().sum();
            for t in 1..n_types {
                let share = ((weights[t] / total) * n_ordinary as f64).ceil() as usize;
                for i in 0..share.max(2) {
                    let name = format_in(&mut name_buf, format_args!("ent_t{t}_{i}"));
                    let e = catalog.add_entity(name, type_ids[t]);
                    entities_by_type[t].push(e);
                }
            }
        }

        // ---- Confusables ---------------------------------------------------
        // Pair up entities within a type: linkage errors map an entity to
        // its confusable partner ("Les Misérables the show" vs "the novel").
        // A ring of 2 is exactly the historical symmetric pairing (a → b,
        // b → a, lone trailing entity unpaired); larger rings chain the
        // confusions (a → b → c → a) for the hard-linkage scenario.
        let ring = ring.max(2);
        let mut confusables = FxHashMap::default();
        for ents in &entities_by_type {
            for group in ents.chunks(ring) {
                if group.len() < 2 {
                    continue;
                }
                for (i, &e) in group.iter().enumerate() {
                    confusables.insert(e, group[(i + 1) % group.len()]);
                }
            }
        }

        // ---- Predicates ----------------------------------------------------
        let n_predicates = cfg.n_predicates.max(4);
        let mut pred_ids = Vec::with_capacity(n_predicates);
        for i in 0..n_predicates {
            let domain = type_ids[i % n_types];
            let functional = rng.gen_bool(cfg.functional_fraction);
            // Object kind mix loosely follows the paper's 23M entities /
            // 80M strings / 1M numbers unique-object split, but entity
            // predicates matter most for linkage errors, so keep them common.
            let value_kind = match i % 5 {
                0 | 1 => ValueKind::Entity,
                2 | 3 => ValueKind::Str,
                _ => ValueKind::Num,
            };
            let is_hier = value_kind == ValueKind::Entity
                && rng.gen_bool(cfg.hierarchical_predicate_fraction);
            let name = if is_hier {
                format!("pred_{i}_place")
            } else {
                format!("pred_{i}")
            };
            pred_ids.push(catalog.add_predicate(PredicateInfo {
                name,
                domain,
                functional,
                value_kind,
            }));
        }

        // Sibling predicates: consecutive predicates of the same domain type.
        let mut siblings = FxHashMap::default();
        for window in pred_ids.windows(2) {
            if let [a, b] = window {
                if catalog.predicate(*a).domain == catalog.predicate(*b).domain {
                    siblings.insert(*a, *b);
                    siblings.insert(*b, *a);
                }
            }
        }
        // Fall back to pairing across domains for leftovers so every
        // predicate has a sibling (needed by the error model).
        for pair in pred_ids.chunks(2) {
            if let [a, b] = pair {
                siblings.entry(*a).or_insert(*b);
                siblings.entry(*b).or_insert(*a);
            }
        }

        // ---- Facts ---------------------------------------------------------
        let mut facts: FxHashMap<DataItem, Vec<Value>> = FxHashMap::default();
        let mut items = Vec::new();
        let leaf_level = levels.last().cloned().unwrap_or_default();
        let poisson_extra = Poisson::new((cfg.mean_truths_nonfunctional - 1.0).max(0.05))
            .expect("valid poisson mean");
        let mut str_counter = 0u64;

        // Group predicates by domain type for fast lookup.
        let mut preds_by_type: Vec<Vec<PredicateId>> = vec![Vec::new(); n_types];
        for &p in &pred_ids {
            preds_by_type[catalog.predicate(p).domain.index()].push(p);
        }

        for t in 0..n_types {
            for &e in &entities_by_type[t] {
                for &p in &preds_by_type[t] {
                    if !rng.gen_bool(cfg.item_density) {
                        continue;
                    }
                    let info = catalog.predicate(p);
                    let functional = info.functional;
                    let value_kind = info.value_kind;
                    let is_place = info.name.ends_with("_place");
                    let n_truths = if functional {
                        1
                    } else {
                        (1 + poisson_extra.sample(&mut rng) as usize).min(cfg.max_truths)
                    };
                    let mut values = Vec::with_capacity(n_truths);
                    for _ in 0..n_truths {
                        let v = match value_kind {
                            ValueKind::Entity if is_place && !leaf_level.is_empty() => {
                                Value::Entity(*leaf_level.choose(&mut rng).unwrap())
                            }
                            ValueKind::Entity => {
                                // Object entity from a (deterministic) range type.
                                let range_t = (t + 1 + p.index()) % n_types;
                                let pool = &entities_by_type[range_t];
                                if pool.is_empty() {
                                    Value::Num(Numeric::from_i64(rng.gen_range(0..10_000)))
                                } else {
                                    Value::Entity(*pool.choose(&mut rng).unwrap())
                                }
                            }
                            ValueKind::Str => {
                                str_counter += 1;
                                let s =
                                    format_in(&mut name_buf, format_args!("strval_{str_counter}"));
                                Value::Str(catalog.strings.intern(s))
                            }
                            ValueKind::Num => {
                                Value::Num(Numeric::from_i64(rng.gen_range(1800..2_100)))
                            }
                        };
                        if !values.contains(&v) {
                            values.push(v);
                        }
                    }
                    let item = DataItem::new(e, p);
                    items.push(item);
                    facts.insert(item, values);
                }
            }
        }

        // ---- Noise pool ----------------------------------------------------
        // Junk strings and numbers for triple-identification errors.
        let mut noise_values = Vec::with_capacity(2_048);
        for i in 0..1_536 {
            let s = format_in(&mut name_buf, format_args!("noise_{i}"));
            noise_values.push(Value::Str(catalog.strings.intern(s)));
        }
        for i in 0..512 {
            noise_values.push(Value::Num(Numeric::from_i64(100_000 + i)));
        }

        let hierarchy_interior: FxHashSet<Value> = hierarchy.values().copied().collect();

        World {
            catalog,
            facts,
            items,
            hierarchy,
            hierarchy_interior,
            confusables,
            siblings,
            hierarchy_entities,
            entities_by_type,
            noise_values,
        }
    }

    /// True values for a data item (empty slice for unknown items).
    pub fn truths(&self, item: &DataItem) -> &[Value] {
        self.facts.get(item).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Exact-match truth test.
    pub fn is_true(&self, triple: &Triple) -> bool {
        self.truths(&triple.data_item()).contains(&triple.object)
    }

    /// Truth test *up to hierarchy*: exact truth, or a generalisation /
    /// specialisation of a true value (the cases the paper's error analysis
    /// classifies as "correct but LCWA-false", Fig. 17).
    pub fn is_true_up_to_hierarchy(&self, triple: &Triple) -> bool {
        if self.is_true(triple) {
            return true;
        }
        self.truths(&triple.data_item())
            .iter()
            .any(|&t| self.related(t, triple.object))
    }

    /// All data items, in deterministic order.
    pub fn items(&self) -> &[DataItem] {
        &self.items
    }

    /// Number of data items.
    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// The confusable partner of an entity, if any.
    pub fn confusable(&self, e: EntityId) -> Option<EntityId> {
        self.confusables.get(&e).copied()
    }

    /// Number of entities with a confusable partner (the size of the
    /// confusable surface; inflated by the hard-linkage scenario).
    pub fn n_confusables(&self) -> usize {
        self.confusables.len()
    }

    /// The sibling predicate, if any.
    pub fn sibling(&self, p: PredicateId) -> Option<PredicateId> {
        self.siblings.get(&p).copied()
    }

    /// Entities participating in the value hierarchy.
    pub fn hierarchy_entities(&self) -> &[EntityId] {
        &self.hierarchy_entities
    }

    /// A deterministic junk value indexed by `salt` (triple-identification
    /// error substrate). Never a true value of any data item: the pool is
    /// disjoint from the facts by construction.
    pub fn noise_value(&self, salt: u64) -> Value {
        let n = self.noise_values.len();
        // The generated pool is a power of two, where the modulo is a mask.
        let i = if n.is_power_of_two() {
            salt as usize & (n - 1)
        } else {
            salt as usize % n
        };
        self.noise_values[i]
    }
}

/// Checkpoint encoding: two length-prefixed segments — the catalog, then
/// everything else (the body) — decoded one after another on the calling
/// thread, the one that keeps the world (see `crate::persist`). Facts
/// ride with [`World::items`] in insertion order (preserving
/// deterministic iteration exactly); the hierarchy / confusable / sibling
/// maps encode in sorted key order so the bytes are canonical; the
/// interior-node set is derived state, recomputed from the decoded
/// hierarchy rather than stored.
impl KvCodec for World {
    fn encode(&self, out: &mut Vec<u8>) {
        kf_types::codec::encode_segment(&self.catalog, out);
        // Body segment, written in place from `self`'s fields.
        kf_types::codec::encode_segment_with(out, |out| {
            let facts = self.items.iter();
            let groups = facts.map(|item| (*item, self.facts[item].as_slice()));
            kf_types::codec::encode_groups(groups, out);
            kf_types::codec::encode_map_sorted(&self.hierarchy, out);
            kf_types::codec::encode_map_sorted(&self.confusables, out);
            kf_types::codec::encode_map_sorted(&self.siblings, out);
            self.hierarchy_entities.encode(out);
            self.entities_by_type.encode(out);
            self.noise_values.encode(out);
        });
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let catalog_seg = kf_types::codec::take_segment(input)?;
        let mut body = kf_types::codec::take_segment(input)?;
        let catalog = kf_types::codec::decode_segment_all::<Catalog>(catalog_seg)?;
        let groups = kf_types::codec::decode_groups(&mut body)?;
        let mut items = Vec::with_capacity(groups.len());
        let mut facts = FxHashMap::default();
        facts.reserve(groups.len());
        for (item, values) in groups {
            if facts.insert(item, values).is_some() {
                return None;
            }
            items.push(item);
        }
        let hierarchy: FxHashMap<Value, Value> = kf_types::codec::decode_map(&mut body)?;
        let hierarchy_interior: FxHashSet<Value> = hierarchy.values().copied().collect();
        let world = World {
            catalog,
            facts,
            items,
            hierarchy,
            hierarchy_interior,
            confusables: kf_types::codec::decode_map(&mut body)?,
            siblings: kf_types::codec::decode_map(&mut body)?,
            hierarchy_entities: Vec::decode(&mut body)?,
            entities_by_type: Vec::decode(&mut body)?,
            noise_values: Vec::decode(&mut body)?,
        };
        // The body must consume its segment exactly.
        body.is_empty().then_some(world)
    }
}

impl World {
    /// Atomically write this world as a headered checkpoint file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), kf_types::CheckpointError> {
        kf_types::checkpoint::save(path.as_ref(), kf_types::ArtifactKind::World, self)
    }

    /// Load a world checkpoint written by [`World::save`].
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<World, kf_types::CheckpointError> {
        kf_types::checkpoint::load(path.as_ref(), kf_types::ArtifactKind::World)
    }
}

impl ValueHierarchy for World {
    fn parent(&self, v: Value) -> Option<Value> {
        self.hierarchy.get(&v).copied()
    }

    fn is_interior(&self, v: Value) -> bool {
        self.hierarchy_interior.contains(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;

    fn world() -> World {
        World::generate(&WorldConfig::default(), 7)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(&WorldConfig::default(), 42);
        let b = World::generate(&WorldConfig::default(), 42);
        assert_eq!(a.n_items(), b.n_items());
        for item in a.items().iter().take(100) {
            assert_eq!(a.truths(item), b.truths(item));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(&WorldConfig::default(), 1);
        let b = World::generate(&WorldConfig::default(), 2);
        // Same structure sizes but different fact values somewhere.
        let differs = a
            .items()
            .iter()
            .take(500)
            .any(|i| a.truths(i) != b.truths(i));
        assert!(differs);
    }

    #[test]
    fn functional_items_have_one_truth() {
        let w = world();
        for item in w.items() {
            if w.catalog.is_functional(item.predicate) {
                assert_eq!(w.truths(item).len(), 1);
            } else {
                assert!(!w.truths(item).is_empty());
            }
        }
    }

    #[test]
    fn functional_fraction_near_config() {
        let w = world();
        let frac = w.catalog.functional_predicate_fraction();
        assert!((0.1..0.5).contains(&frac), "fraction {frac} out of range");
    }

    #[test]
    fn hierarchy_has_roots_and_leaves() {
        let w = world();
        assert!(!w.hierarchy_entities().is_empty());
        let roots = w
            .hierarchy_entities()
            .iter()
            .filter(|&&e| w.parent(Value::Entity(e)).is_none())
            .count();
        let leaves = w
            .hierarchy_entities()
            .iter()
            .filter(|&&e| w.parent(Value::Entity(e)).is_some())
            .count();
        assert!(roots >= 1);
        assert!(leaves > roots);
    }

    #[test]
    fn interior_nodes_are_exactly_the_parents() {
        let w = world();
        let mut interiors = 0;
        for &e in w.hierarchy_entities() {
            let v = Value::Entity(e);
            // A node is interior iff it appears as some child's parent.
            let is_parent_of_something = w
                .hierarchy_entities()
                .iter()
                .any(|&c| w.parent(Value::Entity(c)) == Some(v));
            assert_eq!(w.is_interior(v), is_parent_of_something);
            interiors += w.is_interior(v) as usize;
        }
        assert!(interiors > 0, "no interior hierarchy nodes");
        // Non-hierarchy values are never interior.
        assert!(!w.is_interior(Value::Num(Numeric::from_i64(7))));
    }

    #[test]
    fn hierarchy_chains_terminate_at_roots() {
        let w = world();
        for &e in w.hierarchy_entities() {
            let d = w.depth(Value::Entity(e));
            assert!(d < 64, "cycle suspected at {e:?}");
        }
    }

    #[test]
    fn confusables_are_symmetric_and_distinct() {
        let w = world();
        let mut checked = 0;
        for (item, _) in w.facts.iter().take(1000) {
            if let Some(c) = w.confusable(item.subject) {
                assert_ne!(c, item.subject);
                assert_eq!(w.confusable(c), Some(item.subject));
                checked += 1;
            }
        }
        assert!(checked > 0, "no confusable pairs exercised");
    }

    #[test]
    fn every_predicate_has_a_sibling() {
        let w = world();
        let mut with_sibling = 0;
        for p in w.catalog.predicate_ids() {
            if let Some(s) = w.sibling(p) {
                assert_ne!(s, p);
                with_sibling += 1;
            }
        }
        // chunks(2) pairing can leave at most one predicate unpaired.
        assert!(with_sibling + 1 >= w.catalog.n_predicates());
    }

    #[test]
    fn truth_test_respects_hierarchy() {
        let w = world();
        // Find an item whose truth is a hierarchy leaf with a parent.
        let found = w.items().iter().find_map(|item| {
            w.truths(item)
                .iter()
                .find_map(|&v| w.parent(v).map(|parent| (*item, v, parent)))
        });
        if let Some((item, leaf, parent)) = found {
            let general = Triple::new(item.subject, item.predicate, parent);
            assert!(!w.is_true(&general));
            assert!(w.is_true_up_to_hierarchy(&general));
            let exact = Triple::new(item.subject, item.predicate, leaf);
            assert!(w.is_true(&exact));
        }
    }

    #[test]
    fn kvcodec_roundtrip_preserves_world_and_derived_state() {
        use kf_types::KvCodec;
        let w = World::generate(
            &WorldConfig {
                n_entities: 400,
                ..WorldConfig::default()
            },
            11,
        );
        let mut buf = Vec::new();
        w.encode(&mut buf);
        let mut input = &buf[..];
        let back = World::decode(&mut input).unwrap();
        assert!(input.is_empty());
        assert_eq!(back, w);
        // Derived state (interior set, catalog index) works after decode.
        let interior = w
            .hierarchy_entities()
            .iter()
            .find(|&&e| w.is_interior(Value::Entity(e)))
            .copied()
            .expect("world has interior nodes");
        assert!(back.is_interior(Value::Entity(interior)));
        // Items iterate in the identical deterministic order.
        assert_eq!(back.items(), w.items());
        // Encoding twice from independently generated same-seed worlds is
        // byte-identical (canonical encoding).
        let w2 = World::generate(
            &WorldConfig {
                n_entities: 400,
                ..WorldConfig::default()
            },
            11,
        );
        let mut buf2 = Vec::new();
        w2.encode(&mut buf2);
        assert_eq!(buf, buf2, "same-seed world encodings must be identical");
    }

    #[test]
    fn nonfunctional_items_sometimes_have_multiple_truths() {
        let w = world();
        let multi = w.items().iter().filter(|i| w.truths(i).len() > 1).count();
        assert!(multi > 0, "no multi-truth items generated");
        // But most items still have few truths (paper Fig. 20).
        let many = w.items().iter().filter(|i| w.truths(i).len() > 4).count();
        assert!((many as f64) < 0.1 * w.n_items() as f64);
    }
}
