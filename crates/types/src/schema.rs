//! KB schema: types, predicates, entities (§3.1.1).
//!
//! Mirrors the Freebase setup the paper builds on: entities belong to types
//! from a shallow hierarchy; each predicate is associated with a single type
//! and is either *functional* (single true value per data item, e.g. birth
//! date) or *non-functional* (multiple truths, e.g. children). Table 3 shows
//! 72% of predicates (76% of data items) are non-functional, which drives
//! one of the paper's main error modes.

use crate::codec::KvCodec;
use crate::ids::{EntityId, PredicateId, StrId, TypeId};
use crate::intern::Interner;

/// What kind of object values a predicate takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// Object is a KB entity (23M of the paper's unique objects).
    Entity,
    /// Object is a raw string (80M).
    Str,
    /// Object is a number (1M).
    Num,
}

/// Schema information for one predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateInfo {
    /// Human-readable name, e.g. `people/person/birth_date`.
    pub name: String,
    /// The type this predicate is an attribute of.
    pub domain: TypeId,
    /// Single-truth (functional) or multi-truth (non-functional).
    pub functional: bool,
    /// Kind of object values.
    pub value_kind: ValueKind,
}

/// Catalog entry for one entity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntityInfo {
    /// Interned canonical name.
    pub name: StrId,
    /// Primary type.
    pub ty: TypeId,
}

/// The schema catalog: types, predicates, entities and the shared string
/// interner. Built once (by `kf-synth` or by a user loading real data),
/// then read-only during fusion.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Catalog {
    types: Vec<String>,
    predicates: Vec<PredicateInfo>,
    entities: Vec<EntityInfo>,
    /// Interner for entity names and string object values.
    pub strings: Interner,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a type, returning its id.
    pub fn add_type(&mut self, name: impl Into<String>) -> TypeId {
        let id = TypeId::from_index(self.types.len());
        self.types.push(name.into());
        id
    }

    /// Register a predicate, returning its id.
    pub fn add_predicate(&mut self, info: PredicateInfo) -> PredicateId {
        let id = PredicateId::from_index(self.predicates.len());
        self.predicates.push(info);
        id
    }

    /// Register an entity, returning its id.
    pub fn add_entity(&mut self, name: &str, ty: TypeId) -> EntityId {
        let name = self.strings.intern(name);
        let id = EntityId::from_index(self.entities.len());
        self.entities.push(EntityInfo { name, ty });
        id
    }

    /// Type name lookup.
    pub fn type_name(&self, id: TypeId) -> &str {
        &self.types[id.index()]
    }

    /// Predicate schema lookup.
    pub fn predicate(&self, id: PredicateId) -> &PredicateInfo {
        &self.predicates[id.index()]
    }

    /// Entity catalog lookup.
    pub fn entity(&self, id: EntityId) -> EntityInfo {
        self.entities[id.index()]
    }

    /// Entity display name.
    pub fn entity_name(&self, id: EntityId) -> &str {
        self.strings.resolve(self.entities[id.index()].name)
    }

    /// Whether `p` is functional (single-truth).
    pub fn is_functional(&self, p: PredicateId) -> bool {
        self.predicates[p.index()].functional
    }

    /// Number of registered types.
    pub fn n_types(&self) -> usize {
        self.types.len()
    }

    /// Number of registered predicates.
    pub fn n_predicates(&self) -> usize {
        self.predicates.len()
    }

    /// Number of registered entities.
    pub fn n_entities(&self) -> usize {
        self.entities.len()
    }

    /// Iterate over predicate ids.
    pub fn predicate_ids(&self) -> impl Iterator<Item = PredicateId> + '_ {
        (0..self.predicates.len()).map(PredicateId::from_index)
    }

    /// Iterate over entity ids.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> + '_ {
        (0..self.entities.len()).map(EntityId::from_index)
    }

    /// Fraction of predicates that are functional (Table 3, first column).
    pub fn functional_predicate_fraction(&self) -> f64 {
        if self.predicates.is_empty() {
            return 0.0;
        }
        let f = self.predicates.iter().filter(|p| p.functional).count();
        f as f64 / self.predicates.len() as f64
    }
}

// ---- KvCodec impls (checkpointing; see `crate::checkpoint`) --------------

impl KvCodec for ValueKind {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ValueKind::Entity => 0,
            ValueKind::Str => 1,
            ValueKind::Num => 2,
        });
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(ValueKind::Entity),
            1 => Some(ValueKind::Str),
            2 => Some(ValueKind::Num),
            _ => None,
        }
    }
}

impl KvCodec for PredicateInfo {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.domain.encode(out);
        self.functional.encode(out);
        self.value_kind.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(PredicateInfo {
            name: String::decode(input)?,
            domain: TypeId::decode(input)?,
            functional: bool::decode(input)?,
            value_kind: ValueKind::decode(input)?,
        })
    }
}

impl KvCodec for EntityInfo {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.ty.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(EntityInfo {
            name: StrId::decode(input)?,
            ty: TypeId::decode(input)?,
        })
    }
}

impl KvCodec for Catalog {
    fn encode(&self, out: &mut Vec<u8>) {
        self.types.encode(out);
        self.predicates.encode(out);
        self.entities.encode(out);
        self.strings.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Catalog {
            types: Vec::decode(input)?,
            predicates: Vec::decode(input)?,
            entities: Vec::decode(input)?,
            strings: Interner::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        let mut c = Catalog::new();
        let person = c.add_type("people/person");
        let film = c.add_type("film/film");
        c.add_predicate(PredicateInfo {
            name: "people/person/birth_date".into(),
            domain: person,
            functional: true,
            value_kind: ValueKind::Num,
        });
        c.add_predicate(PredicateInfo {
            name: "film/film/actor".into(),
            domain: film,
            functional: false,
            value_kind: ValueKind::Entity,
        });
        c.add_entity("Tom Cruise", person);
        c.add_entity("Top Gun", film);
        c
    }

    #[test]
    fn ids_are_dense_per_kind() {
        let c = sample();
        assert_eq!(c.n_types(), 2);
        assert_eq!(c.n_predicates(), 2);
        assert_eq!(c.n_entities(), 2);
        assert_eq!(c.type_name(TypeId(0)), "people/person");
        assert_eq!(c.entity_name(EntityId(1)), "Top Gun");
    }

    #[test]
    fn functionality_flags() {
        let c = sample();
        assert!(c.is_functional(PredicateId(0)));
        assert!(!c.is_functional(PredicateId(1)));
        assert!((c.functional_predicate_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_catalog_fraction_is_zero() {
        assert_eq!(Catalog::new().functional_predicate_fraction(), 0.0);
    }

    #[test]
    fn entity_names_are_interned() {
        let mut c = Catalog::new();
        let t = c.add_type("t");
        let a = c.add_entity("same-name", t);
        let b = c.add_entity("same-name", t);
        assert_ne!(a, b); // entities are distinct...
        assert_eq!(c.entity(a).name, c.entity(b).name); // ...names shared
    }

    #[test]
    fn kvcodec_roundtrip_restores_lookups() {
        let c = sample();
        let mut buf = Vec::new();
        c.encode(&mut buf);
        let mut input = &buf[..];
        let back = Catalog::decode(&mut input).unwrap();
        assert!(input.is_empty());
        assert_eq!(back, c);
        assert_eq!(back.type_name(TypeId(1)), "film/film");
        assert_eq!(back.entity_name(EntityId(0)), "Tom Cruise");
        assert!(back.is_functional(PredicateId(0)));
        // The decoded interner's reverse index works (lookup, not just
        // resolve).
        assert_eq!(back.strings.lookup("Top Gun"), c.strings.lookup("Top Gun"));
        for cut in 0..buf.len() {
            assert_eq!(Catalog::decode(&mut &buf[..cut]), None, "cut {cut}");
        }
    }

    #[test]
    fn value_kind_tags_reject_garbage() {
        for k in [ValueKind::Entity, ValueKind::Str, ValueKind::Num] {
            let mut buf = Vec::new();
            k.encode(&mut buf);
            assert_eq!(ValueKind::decode(&mut &buf[..]), Some(k));
        }
        assert_eq!(ValueKind::decode(&mut &[7u8][..]), None);
    }

    #[test]
    fn iterators_cover_all_ids() {
        let c = sample();
        assert_eq!(c.predicate_ids().count(), 2);
        assert_eq!(c.entity_ids().count(), 2);
    }
}
