//! The string-keyed table of one replica: a hashed slab.
//!
//! Everything a replica keys by string — its records, its WAL dedupe index,
//! its parked waiters — is asked for by exact key on the request path and
//! never by key *order*. A [`Table`] is therefore two flat pieces (the
//! `indexmap` layout):
//!
//! - **rows** `(Rc<str>, V)` in chunks of [`CHUNK`], addressed by a `u32`
//!   row id. A vacated row's id goes on a LIFO free list and is handed to
//!   the next insert, so a table that churns (a broker's delivered-
//!   everywhere reclamation, a waiter bucket that empties) stays where it is.
//! - an **index** of `(row id, hash)` slots: open addressing, linear
//!   probing, at most [`MAX_LOAD_EIGHTHS`]/8 full. Removal shifts the rest
//!   of the probe run back (no tombstones, so probe lengths never degrade),
//!   and growth re-places every slot from its stored hash without reading a
//!   key.
//!
//! Iteration ([`Table::iter`], [`Table::retain`]) is in row order, which is
//! a deterministic function of the insert/remove history — not of the keys.
//! The one site that needs key order asks for it ([`Table::iter_sorted`]).
//!
//! An insert over a resident key keeps the resident `Rc<str>`, like
//! `BTreeMap::insert`: commits and subscriptions intern against it.

use std::rc::Rc;

use crate::stats;

/// Rows per chunk. Rows live in fixed-size chunks so that growing a table
/// never copies a row and never holds more than one chunk of slack — a
/// doubling `Vec` (or any map that doubles its buckets) pays for up to twice
/// the rows it holds just past a power of two, which is per-request memory
/// on a run whose tables only grow. 512 rows are 36 KiB of records: small
/// enough that the slack of the many few-key tables is noise (and, never
/// written, mostly not even resident), large enough that a 100 K-row table
/// is 200 allocations.
const CHUNK: usize = 512;

/// The index is at most 7/8 full, so between doublings it costs 9–18 bytes
/// per row — a slot is a ninth of a record row, and the index is the only
/// part that doubles. Linear probing pays for the fullness in slots
/// inspected (at the brim 4.5 per hit and ≈ 32 per miss; 1.4 and 2.1 just
/// after a doubling), but those are consecutive 8-byte slots compared by
/// stored hash, eight to a cache line, with no key touched until the hashes
/// agree.
const MAX_LOAD_EIGHTHS: usize = 7;

/// Smallest allocated index: one cache line of slots.
const MIN_SLOTS: usize = 8;

#[derive(Clone, Copy)]
struct Slot {
    row: u32,
    hash: u32,
}

const VACANT: Slot = Slot {
    row: u32::MAX,
    hash: 0,
};

impl Slot {
    fn is_vacant(self) -> bool {
        self.row == u32::MAX
    }
}

/// Hashes a key: multiply-rotate over 8-byte words, then one fold so the
/// last word's high bytes reach the bits the index reads.
///
/// Fixed and seedless on purpose. A seed defends a map whose keys an
/// adversary picks; these keys come from the simulation. And a seed that
/// varied would be one more thing `seed + plan ⇒ identical trace` had to
/// pin, for nothing: slot order is never observed (the index is probed,
/// never iterated), only how many slots a probe inspects.
fn hash(key: &str) -> u32 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15; // 2^64 / φ, odd
    let mix =
        |h: u64, word: [u8; 8]| (h.rotate_left(26) ^ u64::from_le_bytes(word)).wrapping_mul(K);
    let bytes = key.as_bytes();
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h = mix(h, word.try_into().expect("chunks_exact(8)"));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = mix(h, word);
    }
    // A product's bit depends only on the operand bits at or below it; the
    // fold feeds the high half back in before the last multiply, and the
    // index reads from the top.
    ((h ^ (h >> 32)).wrapping_mul(K) >> 32) as u32
}

/// `None` is a vacated row, whose id is on the free list.
type Row<V> = Option<(Rc<str>, V)>;

/// A map from string keys to `V`; see the module docs.
pub(crate) struct Table<V> {
    /// Every chunk but the last holds exactly [`CHUNK`] rows.
    chunks: Vec<Vec<Row<V>>>,
    free: Vec<u32>,
    len: usize,
    /// Empty, or a power of two of slots.
    index: Vec<Slot>,
    /// `32 - log2(index.len())`: a hash's home slot is its top bits, so
    /// growth keeps slots in their relative order.
    shift: u32,
}

impl<V> Default for Table<V> {
    fn default() -> Self {
        Table {
            chunks: Vec::new(),
            free: Vec::new(),
            len: 0,
            index: Vec::new(),
            shift: 0,
        }
    }
}

/// A key's place in a [`Table`], resolved once; see [`Table::entry`].
pub(crate) enum Entry<'a, V> {
    /// The key is resident; here is its value.
    Occupied(&'a mut V),
    /// The key is absent; [`VacantEntry::insert`] adds it.
    Vacant(VacantEntry<'a, V>),
}

/// The place an absent key would take; see [`Entry::Vacant`].
pub(crate) struct VacantEntry<'a, V> {
    table: &'a mut Table<V>,
    key: &'a Rc<str>,
    hash: u32,
    /// The vacant slot that ended the probe (unused while the index is
    /// unallocated).
    at: usize,
}

impl<'a, V> Entry<'a, V> {
    /// The resident value, or `default()` inserted under the key.
    pub(crate) fn or_insert_with(self, default: impl FnOnce() -> V) -> &'a mut V {
        match self {
            Entry::Occupied(value) => value,
            Entry::Vacant(vacant) => vacant.insert(default()),
        }
    }
}

impl<'a, V> VacantEntry<'a, V> {
    /// Inserts `value` under the entry's key (a refcount bump of it).
    pub(crate) fn insert(self, value: V) -> &'a mut V {
        let VacantEntry {
            table,
            key,
            hash,
            mut at,
        } = self;
        if (table.len + 1) * 8 > table.index.len() * MAX_LOAD_EIGHTHS {
            table.grow();
            at = table.vacant_from(hash);
        }
        let row = table.alloc_row(Rc::clone(key), value);
        table.index[at] = Slot { row, hash };
        table.len += 1;
        &mut table.row_mut(row).1
    }
}

impl<V> Table<V> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn get(&self, key: &str) -> Option<&V> {
        self.get_key_value(key).map(|(_, value)| value)
    }

    /// The resident key with its value — the `Rc<str>` to intern against.
    pub(crate) fn get_key_value(&self, key: &str) -> Option<(&Rc<str>, &V)> {
        let at = self.lookup(key)?;
        let (key, value) = self.row(self.index[at].row);
        Some((key, value))
    }

    pub(crate) fn get_mut(&mut self, key: &str) -> Option<&mut V> {
        let at = self.lookup(key)?;
        Some(&mut self.row_mut(self.index[at].row).1)
    }

    /// Resolves `key` with one probe, to update its value or insert one.
    pub(crate) fn entry<'a>(&'a mut self, key: &'a Rc<str>) -> Entry<'a, V> {
        let hash = hash(key);
        match self.find(hash, key) {
            Ok(at) => Entry::Occupied(&mut self.row_mut(self.index[at].row).1),
            Err(at) => Entry::Vacant(VacantEntry {
                table: self,
                key,
                hash,
                at,
            }),
        }
    }

    /// Stores `value` under `key`, returning the value it replaced. The
    /// resident key, if any, stays.
    pub(crate) fn insert(&mut self, key: Rc<str>, value: V) -> Option<V> {
        match self.entry(&key) {
            Entry::Occupied(resident) => Some(std::mem::replace(resident, value)),
            Entry::Vacant(vacant) => {
                vacant.insert(value);
                None
            }
        }
    }

    pub(crate) fn remove(&mut self, key: &str) -> Option<V> {
        let at = self.lookup(key)?;
        let row = self.index[at].row;
        self.vacate_slot(at);
        let (_, value) = self
            .row_slot_mut(row)
            .take()
            .expect("an indexed row is occupied");
        self.free.push(row);
        self.len -= 1;
        Some(value)
    }

    /// Drops every entry `keep` refuses, visiting in row order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&Rc<str>, &mut V) -> bool) {
        for row in 0..self.rows_allocated() {
            let Some((key, value)) = self.row_slot_mut(row) else {
                continue;
            };
            if !keep(key, value) {
                let key = Rc::clone(key);
                self.remove(&key);
            }
        }
    }

    /// Empties the table. The index keeps its size: a table that is cleared
    /// is refilled (the WAL dedupe index, at every checkpoint).
    pub(crate) fn clear(&mut self) {
        self.chunks.clear();
        self.free.clear();
        self.len = 0;
        self.index.fill(VACANT);
    }

    /// Every entry, in row order — deterministic, but an accident of the
    /// table's history: only for uses that do not care about order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Rc<str>, &V)> {
        self.chunks
            .iter()
            .flatten()
            .flatten()
            .map(|(key, value)| (key, value))
    }

    /// Every entry in key order. Collects and sorts: for cold paths whose
    /// output order is observable.
    pub(crate) fn iter_sorted(&self) -> Vec<(&Rc<str>, &V)> {
        let mut rows: Vec<_> = self.iter().collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
        rows
    }

    /// The slot that indexes `key`'s row. An empty table — most waiter
    /// indexes, most of the time — answers without hashing the key.
    fn lookup(&self, key: &str) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        self.find(hash(key), key).ok()
    }

    /// Probes for `key`: `Ok` is the slot that indexes its row, `Err` the
    /// vacant slot that ended the probe — where an insert would put it.
    fn find(&self, hash: u32, key: &str) -> Result<usize, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        self.probe(hash, |slot| {
            slot.hash == hash && &*self.row(slot.row).0 == key
        })
    }

    /// The first vacant slot at or after `hash`'s home.
    fn vacant_from(&self, hash: u32) -> usize {
        match self.probe(hash, |_| false) {
            Ok(at) | Err(at) => at,
        }
    }

    /// Walks the probe run from `hash`'s home: `Ok` at the first slot that
    /// `matches`, `Err` at the vacant slot that ends the run.
    fn probe(&self, hash: u32, matches: impl Fn(Slot) -> bool) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut at = (hash >> self.shift) as usize;
        let mut probed = 1;
        let found = loop {
            let slot = self.index[at];
            if slot.is_vacant() {
                break Err(at);
            }
            if matches(slot) {
                break Ok(at);
            }
            at = (at + 1) & mask;
            probed += 1;
        };
        stats::count_table_slots_probed(probed);
        found
    }

    /// Doubles the index and re-places every slot from its stored hash.
    fn grow(&mut self) {
        let slots = (self.index.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.index, vec![VACANT; slots]);
        self.shift = 32 - slots.trailing_zeros();
        for slot in old {
            if !slot.is_vacant() {
                let at = self.vacant_from(slot.hash);
                self.index[at] = slot;
            }
        }
    }

    /// Vacates slot `hole` and closes the gap: each later slot of the probe
    /// run moves back into the hole unless that would put it before its
    /// home (Knuth's Algorithm R), so every probe still ends at a vacant
    /// slot only after passing all keys it could match.
    fn vacate_slot(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut at = hole;
        let mut probed = 0;
        loop {
            at = (at + 1) & mask;
            probed += 1;
            let slot = self.index[at];
            if slot.is_vacant() {
                break;
            }
            let home = (slot.hash >> self.shift) as usize;
            // With its home cyclically in `(hole, at]`, the slot would sit
            // before its home in the hole, where no probe for it looks.
            let stays = if hole <= at {
                hole < home && home <= at
            } else {
                hole < home || home <= at
            };
            if !stays {
                self.index[hole] = slot;
                hole = at;
            }
        }
        self.index[hole] = VACANT;
        stats::count_table_slots_probed(probed);
    }

    fn rows_allocated(&self) -> u32 {
        match self.chunks.last() {
            Some(last) => ((self.chunks.len() - 1) * CHUNK + last.len()) as u32,
            None => 0,
        }
    }

    fn alloc_row(&mut self, key: Rc<str>, value: V) -> u32 {
        if let Some(row) = self.free.pop() {
            *self.row_slot_mut(row) = Some((key, value));
            return row;
        }
        let row = self.rows_allocated();
        // `u32::MAX` is the vacant slot.
        assert!(row < u32::MAX, "a table addresses rows by u32");
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => last.push(Some((key, value))),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(Some((key, value)));
                self.chunks.push(chunk);
            }
        }
        row
    }

    fn row(&self, row: u32) -> &(Rc<str>, V) {
        self.chunks[row as usize / CHUNK][row as usize % CHUNK]
            .as_ref()
            .expect("an indexed row is occupied")
    }

    fn row_mut(&mut self, row: u32) -> &mut (Rc<str>, V) {
        self.row_slot_mut(row)
            .as_mut()
            .expect("an indexed row is occupied")
    }

    fn row_slot_mut(&mut self, row: u32) -> &mut Row<V> {
        &mut self.chunks[row as usize / CHUNK][row as usize % CHUNK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// 5–8 bytes: keys on both sides of the hash's one-word boundary.
    fn key(n: u16) -> Rc<str> {
        Rc::from(format!("key-{n}"))
    }

    fn row_of<V>(table: &Table<V>, key: &str) -> Option<u32> {
        let at = table.find(hash(key), key).ok()?;
        Some(table.index[at].row)
    }

    /// The index holds one slot per entry, each on an unbroken probe run
    /// from its home, and the free list is exactly the vacated rows.
    fn check_invariants<V>(table: &Table<V>) {
        let slots = table.index.len();
        assert!(slots == 0 || slots.is_power_of_two());
        assert!(table.len * 8 <= slots * MAX_LOAD_EIGHTHS);
        let mut indexed = 0;
        for (at, slot) in table.index.iter().enumerate() {
            if slot.is_vacant() {
                continue;
            }
            indexed += 1;
            assert_eq!(hash(&table.row(slot.row).0), slot.hash);
            let mut walk = (slot.hash >> table.shift) as usize;
            while walk != at {
                assert!(!table.index[walk].is_vacant(), "slot {at} is cut off");
                walk = (walk + 1) & (slots - 1);
            }
        }
        assert_eq!(indexed, table.len);
        assert_eq!(table.iter().count(), table.len);
        assert_eq!(
            table.free.len() + table.len,
            table.rows_allocated() as usize
        );
        let vacated =
            |&row: &u32| table.chunks[row as usize / CHUNK][row as usize % CHUNK].is_none();
        assert!(table.free.iter().all(vacated));
    }

    /// Runs `ops` over keys `0..space` against a table and a `BTreeMap`
    /// model, comparing every answer. With `churn`, removals outnumber
    /// inserts, so rows come off the free list and probe runs shrink.
    fn run_against_model(
        ops: &[(u8, u16, u32)],
        space: u16,
        churn: bool,
    ) -> (Table<u32>, BTreeMap<Rc<str>, u32>) {
        let mut table = Table::default();
        let mut model: BTreeMap<Rc<str>, u32> = BTreeMap::new();
        for &(op, n, val) in ops {
            // A fresh allocation every time: pointer identity tells which
            // key a resident entry kept.
            let k = key(n % space);
            match (op % 16, churn) {
                (0..=5, false) | (0..=2, true) => {
                    assert_eq!(table.insert(Rc::clone(&k), val), model.insert(k, val));
                }
                (6..=7, _) => {
                    match table.entry(&k) {
                        Entry::Occupied(v) => *v = v.wrapping_add(val),
                        Entry::Vacant(slot) => {
                            slot.insert(val);
                        }
                    }
                    model
                        .entry(k)
                        .and_modify(|v| *v = v.wrapping_add(val))
                        .or_insert(val);
                }
                (8, _) => {
                    let got = *table.entry(&k).or_insert_with(|| val);
                    assert_eq!(got, *model.entry(k).or_insert(val));
                }
                (9..=10, _) => {
                    assert_eq!(table.get(&k), model.get(&k));
                    assert_eq!(table.get_mut(&k), model.get_mut(&k));
                }
                (11, _) if n % 8 == 0 => {
                    let keep = |v: &u32| (v ^ val) & 3 != 0;
                    table.retain(|_, v| keep(v));
                    model.retain(|_, v| keep(v));
                }
                _ => assert_eq!(table.remove(&k), model.remove(&k)),
            }
            assert_eq!(table.len(), model.len());
            assert_eq!(table.is_empty(), model.is_empty());
        }
        (table, model)
    }

    fn assert_same_entries(table: &Table<u32>, model: &BTreeMap<Rc<str>, u32>) {
        let sorted = table.iter_sorted();
        assert_eq!(sorted.len(), model.len());
        for ((k, v), (mk, mv)) in sorted.into_iter().zip(model) {
            assert_eq!((k, v), (mk, mv));
            assert!(Rc::ptr_eq(k, mk), "an overwrite replaced the key of {k}");
            let (resident, _) = table.get_key_value(k).expect("listed, so resident");
            assert!(Rc::ptr_eq(resident, mk));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Insert / overwrite / entry / remove / retain / get give a
        /// `BTreeMap`'s answers; key spaces from 2 keys (an 8-slot index,
        /// where every probe run wraps) to 1 024 (three chunks of rows, eight
        /// doublings of the index).
        #[test]
        fn behaves_like_a_btreemap(
            ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u32>()), 1..3000),
            space_log in 1u32..11,
            churn in any::<bool>(),
        ) {
            let (table, model) = run_against_model(&ops, 1 << space_log, churn);
            check_invariants(&table);
            assert_same_entries(&table, &model);
        }

        /// Row ids are a function of the operation sequence alone — the free
        /// list is LIFO, not whatever the allocator returns — so row order,
        /// and with it every `iter()` / `retain` visit order, repeats.
        #[test]
        fn the_same_sequence_assigns_the_same_rows(
            ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u32>()), 1..1500),
            space_log in 1u32..10,
        ) {
            let (a, model) = run_against_model(&ops, 1 << space_log, true);
            let (b, _) = run_against_model(&ops, 1 << space_log, true);
            assert_eq!(a.free, b.free);
            for k in model.keys() {
                assert_eq!(row_of(&a, k), row_of(&b, k));
                assert!(row_of(&a, k).is_some());
            }
        }

        /// Whatever order keys arrive in — and so whatever rows they get —
        /// `iter_sorted` is the same listing.
        #[test]
        fn insertion_order_does_not_show_in_key_order(
            keys in proptest::collection::vec(any::<u16>(), 1..1200),
        ) {
            let mut forward = Table::default();
            let mut backward = Table::default();
            for &n in &keys {
                forward.entry(&key(n)).or_insert_with(|| n);
            }
            for &n in keys.iter().rev() {
                backward.entry(&key(n)).or_insert_with(|| n);
            }
            let listing = |t: &Table<u16>| -> Vec<(String, u16)> {
                t.iter_sorted().into_iter().map(|(k, v)| (k.to_string(), *v)).collect()
            };
            prop_assert_eq!(listing(&forward), listing(&backward));
            prop_assert!(listing(&forward).windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn a_probe_run_that_wraps_the_index_end_survives_removals() {
        // Of eight slots: three keys at home in the last one, so their run
        // continues at slots 0 and 1, then two at home in slot 0, pushed
        // past it. Closing a hole must move the former across the end and
        // must not pull the latter back before their home — which the last
        // of the three removals would, once the others have gone.
        let at_home = |home: u32, n: usize| {
            (0..)
                .map(key)
                .filter(move |k| hash(k) >> 29 == home)
                .take(n)
        };
        let keys: Vec<Rc<str>> = at_home(7, 3).chain(at_home(0, 2)).collect();
        for first_gone in 0..keys.len() {
            let mut table = Table::default();
            for (i, k) in keys.iter().enumerate() {
                table.insert(Rc::clone(k), i);
            }
            assert_eq!(table.index.len(), 8);
            let occupied: Vec<bool> = table.index.iter().map(|s| !s.is_vacant()).collect();
            assert_eq!(
                occupied,
                [true, true, true, true, false, false, false, true]
            );
            // Remove them all, starting anywhere and going round.
            for turn in 0..keys.len() {
                let gone = (first_gone + turn) % keys.len();
                assert_eq!(table.remove(&keys[gone]), Some(gone));
                check_invariants(&table);
                for (i, k) in keys.iter().enumerate() {
                    let removed = (i + keys.len() - first_gone) % keys.len() <= turn;
                    assert_eq!(table.get(k), (!removed).then_some(&i));
                }
            }
        }
    }

    #[test]
    fn vacated_rows_are_reused_last_out_first_and_cleared_tables_start_over() {
        let mut table = Table::default();
        for n in 0..600 {
            table.insert(key(n), n);
        }
        assert_eq!(table.chunks.len(), 2, "600 rows are two chunks");
        table.remove("key-7");
        table.remove("key-550");
        table.insert(key(1000), 1000);
        table.insert(key(1001), 1001);
        table.insert(key(1002), 1002);
        assert_eq!(row_of(&table, "key-1000"), Some(550));
        assert_eq!(row_of(&table, "key-1001"), Some(7));
        assert_eq!(row_of(&table, "key-1002"), Some(600));
        check_invariants(&table);

        let slots = table.index.len();
        table.clear();
        assert!(table.is_empty() && table.get("key-1").is_none());
        assert_eq!(table.index.len(), slots, "a cleared table is refilled");
        table.insert(key(5), 5);
        assert_eq!(row_of(&table, "key-5"), Some(0));
        check_invariants(&table);
    }
}
