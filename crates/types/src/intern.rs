//! String interning.
//!
//! Raw-string object values (80M of the paper's 102M unique objects) are
//! interned once so the rest of the system moves `Copy` [`StrId`]s around.

use crate::hash::FxHashMap;
use crate::ids::StrId;
use std::collections::hash_map::Entry;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};

/// An append-only string interner. Not thread-safe by itself; corpus
/// construction happens single-threaded (or behind a lock) while fusion, the
/// hot phase, only reads.
///
/// The reverse index maps a string's 64-bit SipHash to the id carrying
/// that hash; a string whose hash another string already owns overflows
/// into a side list scanned by string comparison. Keying by hash instead
/// of by owned `String` keeps the index clone-free and allocation-free
/// per entry, which makes [`Interner::rebuild_index`] — and therefore
/// checkpoint loading — cheap.
///
/// The hash must not collide on the generator's names, because every new
/// string scans the whole overflow list: with the Fx hash the sequential
/// names `strval_1..=300000` collide 4,444 times, the list held 4,604
/// strings at `large` scale, and interning went quadratic. SipHash
/// collides on none of them, so in practice the list is empty.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Interner {
    strings: Vec<String>,
    index: FxHashMap<u64, StrId>,
    /// Ids displaced from `index` by a 64-bit hash collision (scanned
    /// linearly with full string comparison).
    collisions: Vec<StrId>,
}

/// The index hash of a string: std's SipHash-1-3 under its fixed default
/// keys. The index is never persisted (it is rebuilt on decode), so the
/// hash may change with the toolchain without touching checkpoint bytes.
#[inline]
fn hash_str(s: &str) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(s)
}

/// Checkpoint encoding: the dense string table only. The reverse index is
/// derived state and is rebuilt on decode.
impl crate::KvCodec for Interner {
    fn encode(&self, out: &mut Vec<u8>) {
        self.strings.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let mut interner = Interner {
            strings: Vec::decode(input)?,
            index: FxHashMap::default(),
            collisions: Vec::new(),
        };
        interner.rebuild_index();
        Some(interner)
    }
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its id (existing id when already interned).
    pub fn intern(&mut self, s: &str) -> StrId {
        let id = StrId::from_index(self.strings.len());
        match self.index.entry(hash_str(s)) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(slot) => {
                let owner = *slot.get();
                if self.strings[owner.index()] == s {
                    return owner;
                }
                if let Some(found) = self.find_collision(s) {
                    return found;
                }
                // A different string owns this hash slot; keep the new id
                // reachable through the collision overflow list.
                self.collisions.push(id);
            }
        }
        self.strings.push(s.to_owned());
        id
    }

    /// Resolve an id back to its string. Panics on a foreign id, which is
    /// always a programming error (ids only come from this interner).
    pub fn resolve(&self, id: StrId) -> &str {
        &self.strings[id.index()]
    }

    /// Resolve, returning `None` for out-of-range ids.
    pub fn get(&self, id: StrId) -> Option<&str> {
        self.strings.get(id.index()).map(String::as_str)
    }

    /// Look up an already-interned string without inserting.
    pub fn lookup(&self, s: &str) -> Option<StrId> {
        // An overflowed string's hash always has an owner in the index.
        let &owner = self.index.get(&hash_str(s))?;
        if self.strings[owner.index()] == s {
            return Some(owner);
        }
        self.find_collision(s)
    }

    fn find_collision(&self, s: &str) -> Option<StrId> {
        self.collisions
            .iter()
            .copied()
            .find(|&id| self.strings[id.index()] == s)
    }

    /// Ids living on the collision overflow list.
    #[cfg(test)]
    fn n_collisions(&self) -> usize {
        self.collisions.len()
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Rebuild the reverse index (needed after deserialisation, since the
    /// index is not serialised). Clone-free and allocation-free per
    /// entry: the index holds hashes and ids, never the strings
    /// themselves.
    pub fn rebuild_index(&mut self) {
        self.index.clear();
        self.index.reserve(self.strings.len());
        self.collisions.clear();
        for (i, s) in self.strings.iter().enumerate() {
            match self.index.entry(hash_str(s)) {
                Entry::Vacant(slot) => {
                    slot.insert(StrId::from_index(i));
                }
                Entry::Occupied(_) => {
                    self.collisions.push(StrId::from_index(i));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("Tom Cruise");
        let b = i.intern("Tom Cruise");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_ids() {
        let mut i = Interner::new();
        let a = i.intern("Syracuse NY");
        let b = i.intern("New York City");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "Syracuse NY");
        assert_eq!(i.resolve(b), "New York City");
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut i = Interner::new();
        assert_eq!(i.lookup("x"), None);
        let id = i.intern("x");
        assert_eq!(i.lookup("x"), Some(id));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn get_handles_foreign_ids() {
        let i = Interner::new();
        assert_eq!(i.get(StrId(99)), None);
    }

    #[test]
    fn rebuild_index_restores_lookup() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        let mut j = i.clone();
        j.index.clear(); // simulate deserialisation
        assert_eq!(j.lookup("a"), None);
        j.rebuild_index();
        assert_eq!(j.lookup("a"), i.lookup("a"));
        assert_eq!(j.lookup("b"), i.lookup("b"));
    }

    #[test]
    fn kvcodec_roundtrip_rebuilds_the_index() {
        use crate::KvCodec;
        let mut i = Interner::new();
        let a = i.intern("Syracuse NY");
        let b = i.intern("New York City");
        let mut buf = Vec::new();
        i.encode(&mut buf);
        let mut input = &buf[..];
        let back = Interner::decode(&mut input).unwrap();
        assert!(input.is_empty());
        assert_eq!(back, i);
        assert_eq!(back.lookup("Syracuse NY"), Some(a));
        assert_eq!(back.lookup("New York City"), Some(b));
        assert_eq!(back.lookup("nope"), None);
    }

    #[test]
    fn sequential_generator_names_intern_without_collisions() {
        // The world generator's string values: the Fx hash collides on
        // 4,444 of these, each one a linear overflow scan per new string.
        let names: Vec<String> = (1..=300_000).map(|n| format!("strval_{n}")).collect();
        let mut i = Interner::new();
        for (n, name) in names.iter().enumerate() {
            assert_eq!(i.intern(name).index(), n, "ids follow insertion order");
        }
        assert_eq!(i.n_collisions(), 0, "no string overflows the index");
        for (n, name) in names.iter().enumerate() {
            assert_eq!(i.lookup(name), Some(StrId::from_index(n)));
            assert_eq!(i.resolve(StrId::from_index(n)), name);
        }
        i.rebuild_index();
        assert_eq!(i.n_collisions(), 0, "nor does the rebuilt index");
    }

    #[test]
    fn overflowed_strings_stay_reachable() {
        // Force a collision: "b"'s hash slot is owned by "a".
        let mut i = Interner::new();
        let a = i.intern("a");
        i.index.insert(hash_str("b"), a);
        let b = i.intern("b");
        assert_ne!(a, b);
        assert_eq!(i.n_collisions(), 1);
        assert_eq!(i.intern("b"), b, "interning an overflowed string again");
        assert_eq!(i.lookup("b"), Some(b));
        assert_eq!(i.lookup("a"), Some(a));
        assert_eq!(i.resolve(b), "b");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn ids_are_dense() {
        let mut i = Interner::new();
        for n in 0..100 {
            let id = i.intern(&format!("s{n}"));
            assert_eq!(id.index(), n);
        }
    }
}
