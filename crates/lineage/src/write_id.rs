//! Write identifiers.
//!
//! A [`WriteId`] uniquely identifies a write to a datastore as the triple
//! ⟨datastore, key, version⟩ (paper §6.1). Antipode relies on the underlying
//! datastore to generate the version under a versioned key-object model;
//! lineages are sets of these identifiers.
//!
//! Representation: the datastore name is held as an interned [`StoreId`] and
//! the key as a range of a shared `Rc<str>` buffer. An id made from a key
//! owns a buffer that *is* the key; the ids of a decoded lineage all point
//! into one buffer holding every key of that lineage, so a decode allocates
//! per lineage, not per dependency. Cloning a `WriteId` is a pointer bump
//! and integer copies, and equality/`same_object` checks compare integers
//! before ever touching string data. Identity is the key's *value*: which
//! buffer it lies in never shows through `==`, `Ord` or `Hash`. The
//! canonical ordering (and therefore the v1 wire format, which carries names
//! as strings) is unchanged: lexicographic by (datastore name, key, version).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use crate::interner::StoreId;

/// Identifies one write: which datastore, which key, which version.
///
/// Ordered lexicographically by (datastore name, key, version) so lineages
/// can hold them in ordered sets with a canonical serialization.
#[derive(Clone)]
pub struct WriteId {
    store: StoreId,
    version: u64,
    /// The buffer the key lies in. A clone pins all of it: one key, or at
    /// most the keys of the one lineage this id was decoded with.
    buf: Rc<str>,
    /// The key is `buf[start..start + len]`, on char boundaries.
    start: u32,
    len: u32,
}

impl WriteId {
    /// Creates a write identifier, interning the datastore name.
    pub fn new(datastore: impl AsRef<str>, key: impl Into<Rc<str>>, version: u64) -> Self {
        WriteId::from_parts(StoreId::intern(datastore.as_ref()), key.into(), version)
    }

    /// Creates a write identifier from an already-interned store id.
    pub fn from_parts(store: StoreId, key: Rc<str>, version: u64) -> Self {
        let len = u32::try_from(key.len()).expect("a key is shorter than 4 GiB");
        WriteId {
            store,
            version,
            buf: key,
            start: 0,
            len,
        }
    }

    /// An identifier whose key is `keys[start..start + len]`: how the decoder
    /// hands out ranges of the one buffer it copied a lineage's keys into.
    /// The range must lie inside `keys` on char boundaries ([`WriteId::key`]
    /// panics otherwise); the decoder guarantees it by validating each key on
    /// its own before appending it.
    pub(crate) fn in_buffer(
        store: StoreId,
        keys: &Rc<str>,
        start: u32,
        len: u32,
        version: u64,
    ) -> Self {
        WriteId {
            store,
            version,
            buf: Rc::clone(keys),
            start,
            len,
        }
    }

    /// The interned datastore id. Integer compare/hash; resolves to the name
    /// via [`StoreId::name`].
    pub fn store(&self) -> StoreId {
        self.store
    }

    /// Name of the datastore instance (e.g. `"post-storage-mysql"`).
    pub fn datastore(&self) -> Rc<str> {
        self.store.name()
    }

    /// The key (or object name / queue entry id) that was written.
    pub fn key(&self) -> &str {
        let start = self.start as usize;
        &self.buf[start..start + self.len as usize]
    }

    /// Monotonic version assigned by the datastore for this key.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether this identifier is for the same datastore and key as `other`
    /// (possibly a different version).
    pub fn same_object(&self, other: &WriteId) -> bool {
        self.store == other.store && self.key() == other.key()
    }

    /// Whether this write supersedes `other`: same object, newer-or-equal
    /// version. A datastore that has applied a superseding write satisfies a
    /// `wait` on the older one (paper §5.2: "or superseded by more recent
    /// operations").
    pub fn supersedes(&self, other: &WriteId) -> bool {
        self.same_object(other) && self.version >= other.version
    }
}

impl PartialEq for WriteId {
    fn eq(&self, other: &Self) -> bool {
        self.store == other.store && self.version == other.version && self.key() == other.key()
    }
}

impl Eq for WriteId {}

impl Hash for WriteId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.store.hash(state);
        self.key().hash(state);
        self.version.hash(state);
    }
}

impl Ord for WriteId {
    fn cmp(&self, other: &Self) -> Ordering {
        // Integer-first: same interned id means same name, so only the
        // (key, version) tail needs comparing. Distinct ids fall back to
        // comparing the names themselves, preserving the pre-interning
        // lexicographic order the wire format's canonical dep ordering
        // relies on (ids are assigned in intern order, not name order).
        if self.store == other.store {
            self.key()
                .cmp(other.key())
                .then_with(|| self.version.cmp(&other.version))
        } else {
            self.store.cmp_names(other.store)
        }
    }
}

impl PartialOrd for WriteId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for WriteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨{},{},v{}⟩",
            self.store.name(),
            self.key(),
            self.version
        )
    }
}

impl fmt::Display for WriteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}@{}", self.store.name(), self.key(), self.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_lexicographic() {
        let a = WriteId::new("a", "k", 2);
        let b = WriteId::new("a", "k", 3);
        let c = WriteId::new("b", "a", 0);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn ordering_by_name_survives_intern_order() {
        // Intern the lexicographically-later name first: ordering must still
        // follow the names, not the ids.
        let z = WriteId::new("zzz-interned-first", "k", 1);
        let a = WriteId::new("aaa-interned-second", "k", 1);
        assert!(a < z);
    }

    #[test]
    fn same_object_ignores_version() {
        let a = WriteId::new("s", "k", 1);
        let b = WriteId::new("s", "k", 9);
        let c = WriteId::new("s", "other", 1);
        assert!(a.same_object(&b));
        assert!(!a.same_object(&c));
    }

    #[test]
    fn supersedes_requires_same_object_and_newer_version() {
        let old = WriteId::new("s", "k", 1);
        let new = WriteId::new("s", "k", 2);
        assert!(new.supersedes(&old));
        assert!(new.supersedes(&new));
        assert!(!old.supersedes(&new));
        assert!(!WriteId::new("s", "x", 5).supersedes(&old));
    }

    #[test]
    fn display_round_trips_fields() {
        let w = WriteId::new("mysql", "post-7", 3);
        assert_eq!(w.to_string(), "mysql:post-7@3");
    }

    #[test]
    fn clone_shares_the_key_allocation() {
        let w = WriteId::new("mysql", "post-7", 3);
        let c = w.clone();
        assert!(Rc::ptr_eq(&w.buf, &c.buf));
        assert_eq!(w, c);
    }

    #[test]
    fn identity_is_the_key_value_not_the_buffer() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |w: &WriteId| {
            let mut h = DefaultHasher::new();
            w.hash(&mut h);
            h.finish()
        };
        let keys: Rc<str> = "post-7post-8é".into();
        let store = StoreId::intern("mysql");
        let ranged = WriteId::in_buffer(store, &keys, 6, 6, 3);
        let owning = WriteId::new("mysql", "post-8", 3);
        assert_eq!(ranged.key(), "post-8");
        assert_eq!(ranged, owning);
        assert_eq!(ranged.cmp(&owning), Ordering::Equal);
        assert_eq!(hash(&ranged), hash(&owning));
        assert!(ranged.same_object(&WriteId::new("mysql", "post-8", 9)));
        assert!(WriteId::in_buffer(store, &keys, 0, 6, 3) < ranged);
        assert_eq!(WriteId::in_buffer(store, &keys, 12, 2, 1).key(), "é");
        assert_eq!(WriteId::in_buffer(store, &keys, 14, 0, 1).key(), "");
    }

    #[test]
    #[should_panic]
    fn a_range_off_a_char_boundary_panics_instead_of_reading() {
        let keys: Rc<str> = "é".into();
        let _ = WriteId::in_buffer(StoreId::intern("mysql"), &keys, 1, 1, 1).key();
    }

    #[test]
    fn equal_names_share_one_store_id() {
        let a = WriteId::new("same-store", "k1", 1);
        let b = WriteId::new("same-store", "k2", 2);
        assert_eq!(a.store(), b.store());
        assert_eq!(&*a.datastore(), "same-store");
    }
}
