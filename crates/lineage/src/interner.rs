//! Deterministic datastore-name interner.
//!
//! Lineages reference a small, stable universe of datastore names (a
//! deployment has a handful of stores; §7.4 lineages carry a few deps), yet
//! the pre-interning representation re-hashed and re-compared those names on
//! every [`crate::WriteId`] comparison and every serialization. The interner
//! maps each distinct name to a dense [`StoreId`] once, so the hot paths —
//! write-id equality/ordering, lineage dep sorting, barrier grouping, wire
//! string-table construction — become integer operations.
//!
//! Determinism: identifiers are assigned in first-intern order. The
//! simulation is single-threaded and deterministic, so two runs of the same
//! seeded workload intern the same names in the same order and observe
//! identical [`StoreId`] values (asserted by `tests/lineage_determinism.rs`).
//! The interner is thread-local — every lineage type in this workspace is
//! `!Send` (`Rc`-based), so ids never cross threads.
//!
//! [`StoreId`]s are a process-local acceleration only: they never appear in
//! the v1 wire format, which still carries datastore names as strings.

use std::cell::RefCell;
use std::cmp::Ordering;
// lint: allow(nondeterministic-map, lookup-only index — never iterated, so
// iteration order cannot escape; hashing keeps interning O(1) on the hot path)
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Dense identifier for an interned datastore name.
///
/// `Copy`, integer equality/hash. Deliberately **not** `Ord`: ids are
/// assigned in first-intern order, so sorting by id would depend on
/// interning history rather than on names — [`crate::WriteId`]'s canonical
/// (wire-stable) ordering compares the names themselves.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreId(u32);

#[derive(Default)]
struct Interner {
    names: Vec<Rc<str>>,
    // lint: allow(nondeterministic-map, get/insert only; ids come from the
    // insertion-ordered `names` vector, never from map iteration)
    index: HashMap<Rc<str>, u32>,
}

impl Interner {
    fn name_of(&self, id: StoreId) -> &Rc<str> {
        self.names
            .get(id.0 as usize)
            .expect("StoreId from a foreign interner")
    }
}

thread_local! {
    static INTERNER: RefCell<Interner> = RefCell::new(Interner::default());
}

impl StoreId {
    /// Interns `name`, returning its id (allocating one in first-intern
    /// order if the name is new).
    pub fn intern(name: &str) -> StoreId {
        INTERNER.with(|cell| {
            let mut interner = cell.borrow_mut();
            if let Some(&id) = interner.index.get(name) {
                return StoreId(id);
            }
            let id = u32::try_from(interner.names.len()).expect("interner overflow");
            let name: Rc<str> = Rc::from(name);
            interner.names.push(Rc::clone(&name));
            interner.index.insert(name, id);
            StoreId(id)
        })
    }

    /// Looks a name up without interning it.
    pub fn lookup(name: &str) -> Option<StoreId> {
        INTERNER.with(|cell| cell.borrow().index.get(name).map(|&id| StoreId(id)))
    }

    /// The interned name. O(1) — a vector index plus an `Rc` bump.
    pub fn name(self) -> Rc<str> {
        INTERNER.with(|cell| Rc::clone(cell.borrow().name_of(self)))
    }

    /// Runs `f` on the interned name where it lies, under the interner's
    /// borrow: no `Rc` is cloned and dropped around the read. `f` must not
    /// intern (the interner is borrowed while it runs).
    pub(crate) fn with_name<R>(self, f: impl FnOnce(&str) -> R) -> R {
        INTERNER.with(|cell| f(cell.borrow().name_of(self)))
    }

    /// Lexicographic order of the two *names* (ids order by interning
    /// history), both read under one borrow: what [`crate::WriteId`]'s
    /// ordering pays for every comparison across stores.
    pub(crate) fn cmp_names(self, other: StoreId) -> Ordering {
        INTERNER.with(|cell| {
            let interner = cell.borrow();
            interner.name_of(self).cmp(interner.name_of(other))
        })
    }

    /// The raw id value (diagnostics; never serialized).
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

/// Number of names interned so far on this thread.
pub fn interned_count() -> usize {
    INTERNER.with(|cell| cell.borrow().names.len())
}

/// All interned names in id order — the deterministic first-intern sequence.
pub fn snapshot() -> Vec<Rc<str>> {
    INTERNER.with(|cell| cell.borrow().names.clone())
}

impl fmt::Debug for StoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.name(), self.0)
    }
}

impl fmt::Display for StoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = StoreId::intern("interner-test-idempotent");
        let b = StoreId::intern("interner-test-idempotent");
        assert_eq!(a, b);
        assert_eq!(&*a.name(), "interner-test-idempotent");
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let a = StoreId::intern("interner-test-distinct-a");
        let b = StoreId::intern("interner-test-distinct-b");
        assert_ne!(a, b);
    }

    #[test]
    fn ids_are_assigned_in_first_intern_order() {
        let a = StoreId::intern("interner-test-order-a");
        let b = StoreId::intern("interner-test-order-b");
        assert!(a.as_u32() < b.as_u32());
        // Re-interning does not move either.
        assert_eq!(StoreId::intern("interner-test-order-a"), a);
        assert_eq!(StoreId::intern("interner-test-order-b"), b);
    }

    #[test]
    fn lookup_does_not_intern() {
        assert_eq!(StoreId::lookup("interner-test-never-interned"), None);
        let before = interned_count();
        assert_eq!(StoreId::lookup("interner-test-never-interned-2"), None);
        assert_eq!(interned_count(), before);
        let id = StoreId::intern("interner-test-lookup-hit");
        assert_eq!(StoreId::lookup("interner-test-lookup-hit"), Some(id));
    }

    #[test]
    fn borrowed_reads_agree_with_the_cloning_ones() {
        let z = StoreId::intern("interner-test-borrowed-z");
        let a = StoreId::intern("interner-test-borrowed-a");
        assert_eq!(z.with_name(str::len), z.name().len());
        assert_eq!(a.cmp_names(z), Ordering::Less, "by name, not by id");
        assert_eq!(z.cmp_names(a), z.name().cmp(&a.name()));
        assert_eq!(a.cmp_names(a), Ordering::Equal);
    }

    #[test]
    fn snapshot_lists_names_in_id_order() {
        let a = StoreId::intern("interner-test-snapshot-a");
        let snap = snapshot();
        assert_eq!(&*snap[a.as_u32() as usize], "interner-test-snapshot-a");
    }
}
