//! Object values of knowledge triples.
//!
//! Per §3.1.1 of the paper, an object is an entity, a raw string, or a
//! number (the corpus has 23M entity objects, 80M strings, 1M numbers).
//! Values must be `Eq + Hash + Ord` because fusion groups and counts them,
//! so numbers are stored as fixed-point [`Numeric`] rather than `f64`.

use crate::ids::{EntityId, StrId};

/// Fixed-point decimal with three fractional digits.
///
/// Fusion only ever compares values for identity (the paper treats objects
/// as categorical, §5.4), so exact equality semantics matter more than
/// floating-point range. Milli-precision covers dates-as-years, heights,
/// populations and the like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Numeric(pub i64);

impl Numeric {
    /// Scale factor between the integer representation and the real value.
    pub const SCALE: f64 = 1000.0;

    /// Build from a float, rounding to milli precision.
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        Numeric((x * Self::SCALE).round() as i64)
    }

    /// Build from an integer quantity.
    #[inline]
    pub fn from_i64(x: i64) -> Self {
        Numeric(x.saturating_mul(1000))
    }

    /// Recover the float value.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / Self::SCALE
    }
}

/// The object slot of a triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A reconciled KB entity.
    Entity(EntityId),
    /// A raw (interned) string: names, descriptions, addresses.
    Str(StrId),
    /// A number.
    Num(Numeric),
}

impl Value {
    /// Entity payload, if this is an entity value.
    #[inline]
    pub fn as_entity(self) -> Option<EntityId> {
        match self {
            Value::Entity(e) => Some(e),
            _ => None,
        }
    }

    /// String payload, if this is a string value.
    #[inline]
    pub fn as_str_id(self) -> Option<StrId> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    #[inline]
    pub fn as_num(self) -> Option<Numeric> {
        match self {
            Value::Num(n) => Some(n),
            _ => None,
        }
    }

    /// Stable 64-bit encoding used for partitioning and sort keys.
    #[inline]
    pub fn encode(self) -> u64 {
        match self {
            // Variant tag in the top two bits (Entity's tag is 0).
            Value::Entity(e) => e.0 as u64,
            Value::Str(s) => (1u64 << 62) | s.0 as u64,
            Value::Num(n) => (2u64 << 62) | (n.0 as u64 & ((1u64 << 62) - 1)),
        }
    }
}

/// Access to a hierarchy over (entity) values, e.g. the location chain
/// `San Francisco → CA → USA → North America` of §5.4.
///
/// Implemented by the synthetic world in `kf-synth`; consumed by the
/// hierarchy-aware fusion extension in `kf-core` and by the error-analysis
/// taxonomy in `kf-diagnose` (the "specific/general value" categories of
/// Fig. 17).
pub trait ValueHierarchy {
    /// Immediate parent of `v` in the hierarchy, if any.
    fn parent(&self, v: Value) -> Option<Value>;

    /// Whether `v` is an *interior* node of the hierarchy — a value that
    /// is some other value's parent (a generalisation, like *USA* in the
    /// location chain). Implementations that can enumerate the hierarchy
    /// should override this; the default conservatively reports `false`.
    /// Used by the error-taxonomy classifiers: a reported interior value
    /// for a hierarchy-valued item is the signature of a
    /// wrong-but-general extraction (Fig. 17).
    fn is_interior(&self, _v: Value) -> bool {
        false
    }

    /// Whether `ancestor` lies on the parent chain of `descendant`
    /// (excluding equality).
    fn is_ancestor(&self, ancestor: Value, descendant: Value) -> bool {
        let mut cur = descendant;
        // Bounded walk: defends against accidental cycles in user impls.
        for _ in 0..64 {
            match self.parent(cur) {
                Some(p) if p == ancestor => return true,
                Some(p) => cur = p,
                None => return false,
            }
        }
        false
    }

    /// Whether the two values lie on a common ancestor chain (one is a
    /// generalisation of the other).
    fn related(&self, a: Value, b: Value) -> bool {
        a == b || self.is_ancestor(a, b) || self.is_ancestor(b, a)
    }

    /// Distance (#edges) from `v` to the hierarchy root; 0 for roots and
    /// values outside the hierarchy.
    fn depth(&self, v: Value) -> usize {
        let mut d = 0;
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
            if d >= 64 {
                break;
            }
        }
        d
    }
}

/// A flat hierarchy: no value has a parent. Useful as the default when no
/// world model is available.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHierarchy;

impl ValueHierarchy for NoHierarchy {
    fn parent(&self, _v: Value) -> Option<Value> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxHashMap;

    #[test]
    fn numeric_roundtrip() {
        assert_eq!(Numeric::from_f64(1962.0).to_f64(), 1962.0);
        assert_eq!(Numeric::from_f64(8.849).0, 8849);
        assert_eq!(Numeric::from_i64(7).to_f64(), 7.0);
    }

    #[test]
    fn numeric_equality_is_exact() {
        assert_eq!(Numeric::from_f64(0.1), Numeric::from_f64(0.1));
        assert_ne!(Numeric::from_f64(8.849), Numeric::from_f64(8.850));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Entity(EntityId(3)).as_entity(), Some(EntityId(3)));
        assert_eq!(Value::Entity(EntityId(3)).as_num(), None);
        assert_eq!(Value::Str(StrId(9)).as_str_id(), Some(StrId(9)));
        assert_eq!(Value::Num(Numeric(5)).as_num(), Some(Numeric(5)));
    }

    #[test]
    fn encode_distinguishes_variants() {
        let a = Value::Entity(EntityId(1)).encode();
        let b = Value::Str(StrId(1)).encode();
        let c = Value::Num(Numeric(1)).encode();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    /// A toy hierarchy: 1 -> 2 -> 3 (child -> parent).
    struct Chain;
    impl ValueHierarchy for Chain {
        fn parent(&self, v: Value) -> Option<Value> {
            match v {
                Value::Entity(EntityId(1)) => Some(Value::Entity(EntityId(2))),
                Value::Entity(EntityId(2)) => Some(Value::Entity(EntityId(3))),
                _ => None,
            }
        }
    }

    #[test]
    fn hierarchy_ancestor_walks_chain() {
        let h = Chain;
        let sf = Value::Entity(EntityId(1));
        let ca = Value::Entity(EntityId(2));
        let usa = Value::Entity(EntityId(3));
        assert!(h.is_ancestor(usa, sf));
        assert!(h.is_ancestor(ca, sf));
        assert!(!h.is_ancestor(sf, usa));
        assert!(h.related(sf, usa));
        assert!(h.related(sf, sf));
        assert!(!h.related(ca, Value::Entity(EntityId(77))));
        assert_eq!(h.depth(sf), 2);
        assert_eq!(h.depth(usa), 0);
    }

    #[test]
    fn no_hierarchy_is_flat() {
        let h = NoHierarchy;
        let a = Value::Entity(EntityId(1));
        let b = Value::Entity(EntityId(2));
        assert!(!h.is_ancestor(a, b));
        assert!(!h.related(a, b));
        assert_eq!(h.depth(a), 0);
    }

    #[test]
    fn values_as_map_keys() {
        let mut m: FxHashMap<Value, u32> = FxHashMap::default();
        m.insert(Value::Entity(EntityId(1)), 1);
        m.insert(Value::Str(StrId(1)), 2);
        m.insert(Value::Num(Numeric(1)), 3);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn hierarchy_walk_is_bounded_on_cycles() {
        /// Degenerate impl with a self-loop.
        struct Cyclic;
        impl ValueHierarchy for Cyclic {
            fn parent(&self, v: Value) -> Option<Value> {
                Some(v)
            }
        }
        let h = Cyclic;
        let v = Value::Entity(EntityId(1));
        // Must terminate rather than loop forever.
        assert!(!h.is_ancestor(Value::Entity(EntityId(2)), v));
        assert_eq!(h.depth(v), 64);
    }
}
