//! Lineages: the dependency sets Antipode carries alongside requests and
//! datastore values.
//!
//! A [`Lineage`] embodies "the dependent actions of a request across multiple
//! processes" (paper §4.1). Operationally it is a set of [`WriteId`]s plus
//! the lineage's identity; `append`/`remove` give developers the explicit
//! dependency control of §5.1, and `transfer` establishes continuity between
//! two lineages.
//!
//! Representation (see DESIGN.md "Zero-copy lineage plane"): dependencies
//! live in an `Rc`-shared sorted vector with copy-on-write mutation, so the
//! clones taken on every RPC hop, envelope write, and baggage injection are
//! O(1) pointer bumps. The v1 wire encoding (and its base64 baggage form)
//! is cached next to the deps and invalidated on mutation, so a lineage that
//! crosses several hops unchanged is encoded exactly once. None of this
//! changes the wire format: serialized bytes are identical to the
//! pre-interning implementation (asserted by `tests/golden_v1.rs`).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use bytes::{Buf, BufMut};

use crate::interner::StoreId;
use crate::stats;
use crate::varint::{get_str, get_varint, put_str, put_varint, varint_len, CodecError};
use crate::write_id::WriteId;

/// Identity of a lineage: one per root action (external request).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineageId(pub u64);

impl fmt::Debug for LineageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ℒ{:x}", self.0)
    }
}

impl fmt::Display for LineageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:x}", self.0)
    }
}

/// Wire format version for [`Lineage::serialize`].
const WIRE_VERSION: u8 = 1;

/// The shared empty dep vector: `Lineage::new` is allocation-free until the
/// first append materializes a private vector via copy-on-write.
fn empty_deps() -> Rc<Vec<WriteId>> {
    thread_local! {
        static EMPTY: Rc<Vec<WriteId>> = Rc::new(Vec::new());
    }
    EMPTY.with(Rc::clone)
}

/// A lineage: the set of datastore writes an execution currently depends on.
pub struct Lineage {
    id: LineageId,
    /// Sorted (canonical WriteId order), deduplicated, shared.
    deps: Rc<Vec<WriteId>>,
    /// Cached v1 wire encoding; `None` = dirty.
    wire: RefCell<Option<Rc<[u8]>>>,
    /// Cached base64 of the wire encoding (the baggage form).
    b64: RefCell<Option<Rc<str>>>,
}

impl Clone for Lineage {
    fn clone(&self) -> Self {
        Lineage {
            id: self.id,
            deps: Rc::clone(&self.deps),
            wire: RefCell::new(self.wire.borrow().clone()),
            b64: RefCell::new(self.b64.borrow().clone()),
        }
    }
}

impl Default for Lineage {
    fn default() -> Self {
        Lineage::new(LineageId::default())
    }
}

impl PartialEq for Lineage {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && (Rc::ptr_eq(&self.deps, &other.deps) || self.deps == other.deps)
    }
}

impl Eq for Lineage {}

impl Lineage {
    /// Creates an empty lineage with the given identity (the paper's `root`
    /// initializes one at the beginning of a request's execution).
    pub fn new(id: LineageId) -> Self {
        Lineage {
            id,
            deps: empty_deps(),
            wire: RefCell::new(None),
            b64: RefCell::new(None),
        }
    }

    /// The lineage's identity.
    pub fn id(&self) -> LineageId {
        self.id
    }

    fn invalidate_cache(&mut self) {
        *self.wire.borrow_mut() = None;
        *self.b64.borrow_mut() = None;
    }

    /// Mutable access to the dep vector, materializing a private copy if the
    /// current one is shared (copy-on-write).
    fn deps_mut(&mut self) -> &mut Vec<WriteId> {
        if Rc::strong_count(&self.deps) > 1 {
            stats::count_cow_dep_clone(1);
        }
        Rc::make_mut(&mut self.deps)
    }

    /// Appends a dependency (paper `append(ℒ, dep)`); also how the Shim
    /// `write` extends a lineage with the new write identifier.
    pub fn append(&mut self, dep: WriteId) {
        match self.deps.binary_search(&dep) {
            Ok(_) => {} // already present: no mutation, caches stay valid
            Err(pos) => {
                self.invalidate_cache();
                self.deps_mut().insert(pos, dep);
            }
        }
    }

    /// Removes a dependency (paper `remove(ℒ, dep)`), letting developers
    /// drop irrelevant dependencies for an optimized user experience.
    /// Returns whether the dependency was present.
    pub fn remove(&mut self, dep: &WriteId) -> bool {
        match self.deps.binary_search(dep) {
            Ok(pos) => {
                self.invalidate_cache();
                self.deps_mut().remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Transfers `other`'s dependencies into this lineage (paper
    /// `transfer(ℒa, ℒb)`), explicitly establishing transitivity between two
    /// lineages (§5.1, e.g. the ACL example). The receiving lineage keeps its
    /// own identity.
    pub fn transfer_from(&mut self, other: &Lineage) {
        if other.deps.is_empty() || Rc::ptr_eq(&self.deps, &other.deps) {
            return;
        }
        if is_subset(&other.deps, &self.deps) {
            return; // nothing new: keep deps and caches untouched
        }
        if is_subset(&self.deps, &other.deps) {
            // The donor already holds everything the receiver does — what an
            // RPC response always is, and an empty receiver trivially. The
            // union is the donor's vector: share it, O(1), instead of merging
            // into a fresh one. Its encodings carry the donor's id, so they
            // are the receiver's too only when the ids are equal.
            self.deps = Rc::clone(&other.deps);
            if self.id == other.id {
                *self.wire.borrow_mut() = other.wire.borrow().clone();
                *self.b64.borrow_mut() = other.b64.borrow().clone();
            } else {
                self.invalidate_cache();
            }
            return;
        }
        // Two-pointer merge of the sorted vectors into a fresh private one.
        let merged = merge_sorted(&self.deps, &other.deps);
        self.invalidate_cache();
        self.deps = Rc::new(merged);
    }

    /// Iterates over the dependencies in canonical order.
    pub fn deps(&self) -> impl Iterator<Item = &WriteId> {
        self.deps.iter()
    }

    /// Number of dependencies.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Whether the lineage has no dependencies.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Whether the lineage contains the exact dependency.
    pub fn contains(&self, dep: &WriteId) -> bool {
        self.deps.binary_search(dep).is_ok()
    }

    /// Whether this lineage and `other` share the same dep vector allocation
    /// (an O(1) "definitely equal deps" probe for tests and diagnostics).
    pub fn shares_deps_with(&self, other: &Lineage) -> bool {
        Rc::ptr_eq(&self.deps, &other.deps)
    }

    /// The distinct datastores named by this lineage's dependencies, in
    /// canonical order.
    pub fn datastores(&self) -> Vec<Rc<str>> {
        self.store_ids().into_iter().map(StoreId::name).collect()
    }

    /// The distinct interned store ids, in canonical (name) order. `barrier`
    /// groups its per-store waits by these.
    pub fn store_ids(&self) -> Vec<StoreId> {
        let mut out: Vec<StoreId> = Vec::new();
        for d in self.deps.iter() {
            if out.last() != Some(&d.store()) {
                out.push(d.store());
            }
        }
        out
    }

    /// The v1 wire encoding as shared bytes, (re-)encoding only if the
    /// lineage changed since the last call. This is what every hop of an
    /// unchanged lineage costs: an `Rc` bump.
    pub fn wire_bytes(&self) -> Rc<[u8]> {
        if let Some(cached) = &*self.wire.borrow() {
            stats::count_wire_cache_hit(1);
            return Rc::clone(cached);
        }
        stats::count_wire_encode(1);
        let rc: Rc<[u8]> = self.encode().into();
        *self.wire.borrow_mut() = Some(Rc::clone(&rc));
        rc
    }

    /// The base64 form of [`Lineage::wire_bytes`] — the baggage entry value
    /// — cached with the same dirty-tracking.
    pub fn wire_b64(&self) -> Rc<str> {
        if let Some(cached) = &*self.b64.borrow() {
            stats::count_b64_cache_hit(1);
            return Rc::clone(cached);
        }
        stats::count_b64_encode(1);
        let rc: Rc<str> = crate::base64::encode(&self.wire_bytes()).into();
        *self.b64.borrow_mut() = Some(Rc::clone(&rc));
        rc
    }

    /// Adopts `b64` as the cached base64 form. Crate-internal: the caller
    /// guarantees `b64` is the canonical base64 of this lineage's cached
    /// wire bytes (baggage extraction decodes with a strict — bijective —
    /// base64 decoder, so the incoming string is exactly what re-encoding
    /// would produce). No-op unless a canonical decode already populated the
    /// wire cache, which is what ties the guarantee to this lineage.
    pub(crate) fn adopt_b64_cache(&self, b64: Rc<str>) {
        if self.wire.borrow().is_some() {
            *self.b64.borrow_mut() = Some(b64);
        }
    }

    /// Serializes to the compact wire format: a version byte, the lineage id,
    /// a datastore-name string table, then each dependency as
    /// (table-index, key, version). This is the payload piggybacked on
    /// request baggage and stored alongside values (§6.2); its size is what
    /// the paper's §7.4 metadata measurements report.
    ///
    /// Returns an owned copy for API compatibility; the cached shared form
    /// is [`Lineage::wire_bytes`].
    pub fn serialize(&self) -> Vec<u8> {
        self.wire_bytes().to_vec()
    }

    /// Each dependency with the index of its store in the wire form's name
    /// table, and whether it opens that table entry: the table lists the
    /// distinct stores in first-seen order, and same-store deps are adjacent
    /// in the sorted vector, so an entry opens wherever the interned id
    /// changes.
    fn table_indexed(&self) -> impl Iterator<Item = (u64, bool, &WriteId)> {
        let mut prev: Option<StoreId> = None;
        let mut names = 0u64;
        self.deps.iter().map(move |d| {
            let opens = prev != Some(d.store());
            prev = Some(d.store());
            names += u64::from(opens);
            (names - 1, opens, d)
        })
    }

    /// Encodes the canonical v1 wire form. O(deps), one allocation: a first
    /// pass sizes the buffer exactly, and store names are measured and
    /// copied where the interner holds them.
    fn encode(&self) -> Vec<u8> {
        let (mut n_names, mut len) = (0u64, 0usize);
        for (idx, opens, d) in self.table_indexed() {
            if opens {
                n_names += 1;
                len += d
                    .store()
                    .with_name(|n| varint_len(n.len() as u64) + n.len());
            }
            len += varint_len(idx)
                + varint_len(d.key().len() as u64)
                + d.key().len()
                + varint_len(d.version());
        }
        len += 1 + varint_len(self.id.0) + varint_len(n_names) + varint_len(self.deps.len() as u64);

        let mut buf = Vec::with_capacity(len);
        buf.put_u8(WIRE_VERSION);
        put_varint(&mut buf, self.id.0);
        put_varint(&mut buf, n_names);
        for (_, opens, d) in self.table_indexed() {
            if opens {
                d.store().with_name(|n| put_str(&mut buf, n));
            }
        }
        put_varint(&mut buf, self.deps.len() as u64);
        for (idx, _, d) in self.table_indexed() {
            put_varint(&mut buf, idx);
            put_str(&mut buf, d.key());
            put_varint(&mut buf, d.version());
        }
        debug_assert_eq!(buf.len(), len, "the sizing pass and the writes agree");
        buf
    }

    /// Decodes the wire format produced by [`Lineage::serialize`]. Any
    /// leading byte other than the v1 version is
    /// [`CodecError::UnknownVersion`].
    ///
    /// Length guards are strict: declared counts are validated against the
    /// bytes actually remaining (a name costs ≥ 1 byte, a dependency ≥ 3),
    /// and pre-allocation is bounded by the same limits, so a hostile count
    /// cannot force a large allocation from a tiny input. When the input is
    /// byte-for-byte canonical (sorted deps, first-use name table, minimal
    /// varints — everything [`Lineage::serialize`] emits), the decoder
    /// adopts it as the cached wire form, making a decode→forward hop free
    /// of re-encoding.
    pub fn deserialize(bytes: &[u8]) -> Result<Lineage, CodecError> {
        match bytes.first() {
            None => return Err(CodecError::UnexpectedEof),
            Some(&WIRE_VERSION) => {}
            Some(&other) => return Err(CodecError::UnknownVersion(other)),
        }
        let total_len = bytes.len();
        let mut slice = &bytes[1..];
        let buf = &mut slice;
        let body = decode_body(buf)?;
        let consumed = total_len - buf.remaining();
        // Minimal-varint check: the consumed length must equal the canonical
        // minimal length (version byte + body).
        let canonical = body.canonical && consumed == 1 + body.canonical_len;
        let lineage = body.into_lineage(canonical);
        if canonical {
            stats::count_canonical_decode(1);
            *lineage.wire.borrow_mut() = Some(bytes[..consumed].into());
            debug_assert_eq!(lineage.encode().as_slice(), &bytes[..consumed]);
        }
        Ok(lineage)
    }

    /// The serialized size in bytes. Served from the wire cache — never
    /// materializes a second buffer.
    pub fn wire_size(&self) -> usize {
        self.wire_bytes().len()
    }
}

/// Result of decoding the wire body after its version byte:
/// `[varint id][string table][deps]`.
struct BodyDecode {
    id: u64,
    deps: Vec<WriteId>,
    /// Whether the body was structurally canonical: sorted names, first-use
    /// table order, strictly increasing same-store deps, every table entry
    /// used. Minimal-varint detection is the caller's length comparison.
    canonical: bool,
    /// Minimal encoding length of the parsed body.
    canonical_len: usize,
}

impl BodyDecode {
    /// Builds the lineage, sorting/deduplicating unless the input was
    /// canonical. Caches start empty; the caller adopts the input bytes.
    fn into_lineage(self, canonical: bool) -> Lineage {
        let mut deps = self.deps;
        if !canonical {
            deps.sort_unstable();
            deps.dedup();
        }
        Lineage {
            id: LineageId(self.id),
            deps: if deps.is_empty() {
                empty_deps()
            } else {
                Rc::new(deps)
            },
            wire: RefCell::new(None),
            b64: RefCell::new(None),
        }
    }
}

/// One dependency as parsed: its key is `keys[start..start + len]` of the
/// [`DecodeScratch`] it sits in.
struct ParsedDep {
    store: StoreId,
    start: u32,
    len: u32,
    version: u64,
}

/// What a decode fills while it parses and is done with when it returns. It
/// is kept from one decode to the next, so a decode allocates only what its
/// lineage keeps — the dep vector and one exactly-sized key buffer — and
/// never per name, per dependency or per growth step.
struct DecodeScratch {
    /// The name table, interned.
    stores: Vec<StoreId>,
    /// The dependencies, in input order.
    deps: Vec<ParsedDep>,
    /// Every key, end to end.
    keys: String,
}

impl DecodeScratch {
    /// Capacity beyond which the scratch is dropped rather than kept: what a
    /// hostile input made it grow to is not held for the thread's lifetime.
    const KEEP_BYTES: usize = 16 * 1024;

    const fn new() -> Self {
        DecodeScratch {
            stores: Vec::new(),
            deps: Vec::new(),
            keys: String::new(),
        }
    }

    /// The thread's scratch, emptied (a fresh one if a decode is under way).
    fn take() -> Self {
        let mut scratch = SCRATCH.replace(DecodeScratch::new());
        scratch.stores.clear();
        scratch.deps.clear();
        scratch.keys.clear();
        scratch
    }

    fn give_back(self) {
        let held = self.keys.capacity()
            + self.deps.capacity() * std::mem::size_of::<ParsedDep>()
            + self.stores.capacity() * std::mem::size_of::<StoreId>();
        if held <= Self::KEEP_BYTES {
            SCRATCH.set(self);
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<DecodeScratch> = const { RefCell::new(DecodeScratch::new()) };
}

/// Decodes the wire body, tracking canonicality as it parses.
///
/// Allocates per lineage, not per dependency: every key is copied into one
/// buffer and each identifier holds a range of it.
fn decode_body(buf: &mut &[u8]) -> Result<BodyDecode, CodecError> {
    let mut scratch = DecodeScratch::take();
    let decoded = decode_body_into(buf, &mut scratch);
    scratch.give_back();
    decoded
}

fn decode_body_into(
    buf: &mut &[u8],
    scratch: &mut DecodeScratch,
) -> Result<BodyDecode, CodecError> {
    // Key ranges are `u32` offsets into a buffer no longer than the input.
    if u32::try_from(buf.remaining()).is_err() {
        return Err(CodecError::LengthOutOfBounds);
    }
    let id = get_varint(buf)?;
    // Canonical minimal length, accumulated as we parse; the caller compares
    // it to the consumed length to detect non-minimal varints.
    let mut canonical_len = varint_len(id);
    let n_names = get_varint(buf)? as usize;
    // Each table entry consumes at least its 1-byte length prefix.
    if n_names > buf.remaining() {
        return Err(CodecError::LengthOutOfBounds);
    }
    canonical_len += varint_len(n_names as u64);
    scratch.stores.reserve(n_names);
    let mut names_sorted = true;
    let mut prev_name: Option<&str> = None;
    for _ in 0..n_names {
        // Borrowed from the input: a known store name allocates nothing.
        let name = get_str(buf)?;
        canonical_len += varint_len(name.len() as u64) + name.len();
        if prev_name.is_some_and(|p| p >= name) {
            names_sorted = false;
        }
        scratch.stores.push(StoreId::intern(name));
        prev_name = Some(name);
    }
    let n_deps = get_varint(buf)? as usize;
    // Each dependency consumes at least 3 bytes: a table index varint, a
    // key length varint, and a version varint.
    if n_deps > buf.remaining() / 3 {
        return Err(CodecError::LengthOutOfBounds);
    }
    canonical_len += varint_len(n_deps as u64);
    scratch.deps.reserve(n_deps);
    // What is left of the input, less the three bytes each dependency spends
    // outside its key, bounds the keys' total.
    scratch.keys.reserve(buf.remaining() - 3 * n_deps);
    // Canonical index pattern: starts at 0, steps by at most 1, ends at
    // n_names - 1 (every table entry used), deps strictly increasing.
    let mut canonical = names_sorted;
    let mut prev: Option<(u64, &str, u64)> = None;
    for _ in 0..n_deps {
        let idx = get_varint(buf)?;
        let store = *scratch
            .stores
            .get(idx as usize)
            .ok_or(CodecError::LengthOutOfBounds)?;
        // Validated as UTF-8 on its own, so its range of the key buffer
        // starts and ends on char boundaries whatever its neighbours are.
        let key = get_str(buf)?;
        let version = get_varint(buf)?;
        canonical_len +=
            varint_len(idx) + varint_len(key.len() as u64) + key.len() + varint_len(version);
        match prev {
            None => canonical &= idx == 0,
            Some((p, prev_key, prev_version)) => {
                canonical &= idx == p || idx == p + 1;
                // Same store: names are equal, so WriteId order reduces to
                // (key, version) — must strictly increase.
                canonical &= idx != p || (prev_key, prev_version) < (key, version);
            }
        }
        prev = Some((idx, key, version));
        scratch.deps.push(ParsedDep {
            store,
            // In range of `u32`: the whole input is (checked on entry).
            start: scratch.keys.len() as u32,
            len: key.len() as u32,
            version,
        });
        scratch.keys.push_str(key);
    }
    canonical &= match prev {
        Some((last, ..)) => last as usize == n_names - 1,
        None => n_names == 0,
    };
    let mut deps = Vec::new();
    if !scratch.deps.is_empty() {
        stats::count_key_buffer(1);
        let keys: Rc<str> = Rc::from(scratch.keys.as_str());
        deps.extend(
            scratch
                .deps
                .iter()
                .map(|d| WriteId::in_buffer(d.store, &keys, d.start, d.len, d.version)),
        );
    }
    Ok(BodyDecode {
        id,
        deps,
        canonical,
        canonical_len,
    })
}

/// Whether every element of `sub` is in `sup` (both sorted, deduplicated):
/// one forward walk over the two.
fn is_subset(sub: &[WriteId], sup: &[WriteId]) -> bool {
    if sub.len() > sup.len() {
        return false;
    }
    let mut sup = sup.iter();
    sub.iter().all(|d| {
        let reached = sup.by_ref().map(|s| s.cmp(d)).find(|order| order.is_ge());
        reached == Some(std::cmp::Ordering::Equal)
    })
}

/// Merges two sorted deduplicated WriteId vectors into a new one.
fn merge_sorted(a: &[WriteId], b: &[WriteId]) -> Vec<WriteId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl fmt::Debug for Lineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}{{", self.id)?;
        for (i, d) in self.deps.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d:?}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wid(s: &str, k: &str, v: u64) -> WriteId {
        WriteId::new(s, k, v)
    }

    #[test]
    fn append_remove_contains() {
        let mut l = Lineage::new(LineageId(1));
        assert!(l.is_empty());
        l.append(wid("mysql", "post-1", 3));
        assert!(l.contains(&wid("mysql", "post-1", 3)));
        assert_eq!(l.len(), 1);
        assert!(l.remove(&wid("mysql", "post-1", 3)));
        assert!(!l.remove(&wid("mysql", "post-1", 3)));
        assert!(l.is_empty());
    }

    #[test]
    fn append_is_idempotent() {
        let mut l = Lineage::new(LineageId(1));
        l.append(wid("s", "k", 1));
        l.append(wid("s", "k", 1));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn transfer_unions_dependencies() {
        let mut a = Lineage::new(LineageId(1));
        a.append(wid("acl", "alice-blocks", 7));
        let mut b = Lineage::new(LineageId(2));
        b.append(wid("posts", "post-9", 1));
        b.transfer_from(&a);
        assert_eq!(b.len(), 2);
        assert_eq!(
            b.id(),
            LineageId(2),
            "transfer keeps the receiving identity"
        );
        assert!(b.contains(&wid("acl", "alice-blocks", 7)));
    }

    #[test]
    fn transfer_into_empty_shares_the_dep_vector() {
        let mut a = Lineage::new(LineageId(1));
        a.append(wid("s", "k", 1));
        let mut b = Lineage::new(LineageId(2));
        b.transfer_from(&a);
        assert!(b.shares_deps_with(&a), "empty receiver adopts by sharing");
        // Mutating either side un-shares (copy-on-write).
        a.append(wid("s", "k2", 2));
        assert!(!b.shares_deps_with(&a));
        assert_eq!(b.len(), 1);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn transfer_of_subset_is_a_no_op() {
        let mut a = Lineage::new(LineageId(1));
        a.append(wid("s", "k1", 1));
        a.append(wid("s", "k2", 2));
        let first = a.wire_bytes();
        let mut sub = Lineage::new(LineageId(9));
        sub.append(wid("s", "k1", 1));
        a.transfer_from(&sub);
        // Cache survived: no re-encode happened.
        assert!(Rc::ptr_eq(&first, &a.wire_bytes()));
    }

    #[test]
    fn clone_is_shallow_and_cow_on_mutation() {
        let mut a = Lineage::new(LineageId(1));
        for i in 0..8 {
            a.append(wid("s", &format!("k{i}"), i));
        }
        let b = a.clone();
        assert!(b.shares_deps_with(&a));
        a.append(wid("s", "new", 99));
        assert!(!b.shares_deps_with(&a));
        assert_eq!(b.len(), 8);
        assert_eq!(a.len(), 9);
    }

    #[test]
    fn serialize_round_trip() {
        let mut l = Lineage::new(LineageId(0xdead_beef));
        l.append(wid("post-storage-mysql", "post-12345", 42));
        l.append(wid("post-storage-mysql", "post-12346", 43));
        l.append(wid("notifier-sns", "notif-99", 1));
        let bytes = l.serialize();
        let back = Lineage::deserialize(&bytes).unwrap();
        assert_eq!(back, l);
    }

    #[test]
    fn serialize_empty_lineage() {
        let l = Lineage::new(LineageId(5));
        let back = Lineage::deserialize(&l.serialize()).unwrap();
        assert_eq!(back, l);
        assert!(back.is_empty());
    }

    #[test]
    fn serialize_is_cached_until_mutation() {
        let mut l = Lineage::new(LineageId(7));
        l.append(wid("s", "k", 1));
        let first = l.wire_bytes();
        let second = l.wire_bytes();
        assert!(Rc::ptr_eq(&first, &second), "unchanged lineage: cache hit");
        l.append(wid("s", "k2", 2));
        let third = l.wire_bytes();
        assert!(
            !Rc::ptr_eq(&first, &third),
            "mutation invalidates the cache"
        );
        assert_eq!(third.as_ref(), l.serialize().as_slice());
    }

    #[test]
    fn canonical_decode_adopts_input_as_cache() {
        let mut l = Lineage::new(LineageId(3));
        l.append(wid("a", "k1", 1));
        l.append(wid("b", "k2", 2));
        let bytes = l.serialize();
        let before = stats::snapshot().wire_encodes;
        let back = Lineage::deserialize(&bytes).unwrap();
        // Re-serializing the decoded lineage must not re-encode.
        assert_eq!(back.serialize(), bytes);
        assert_eq!(
            stats::snapshot().wire_encodes,
            before,
            "decode→serialize of canonical bytes must be encode-free"
        );
    }

    #[test]
    fn non_canonical_input_still_decodes_to_canonical_form() {
        // Hand-build an encoding with deps out of order and a duplicate:
        // table ["b", "a"], deps (b,k,1), (a,k,1), (a,k,1).
        let mut buf = vec![1u8]; // version
        put_varint(&mut buf, 9); // id
        put_varint(&mut buf, 2); // 2 names
        put_str(&mut buf, "b");
        put_str(&mut buf, "a");
        put_varint(&mut buf, 3); // 3 deps
        for idx in [0u64, 1, 1] {
            put_varint(&mut buf, idx);
            put_str(&mut buf, "k");
            put_varint(&mut buf, 1);
        }
        let l = Lineage::deserialize(&buf).unwrap();
        assert_eq!(l.len(), 2, "duplicate dep collapsed");
        let mut expect = Lineage::new(LineageId(9));
        expect.append(wid("a", "k", 1));
        expect.append(wid("b", "k", 1));
        assert_eq!(l, expect);
        // And its serialization is canonical, not the input bytes.
        assert_eq!(l.serialize(), expect.serialize());
        assert_ne!(l.serialize(), buf);
    }

    #[test]
    fn string_table_dedups_datastore_names() {
        // 10 deps on the same store: the name must be encoded once.
        let mut l = Lineage::new(LineageId(1));
        for i in 0..10 {
            l.append(wid("a-rather-long-datastore-name", &format!("k{i}"), i));
        }
        let size = l.wire_size();
        let name_len = "a-rather-long-datastore-name".len();
        assert!(
            size < name_len * 2 + 10 * 8,
            "size {size} suggests the name was not deduplicated"
        );
    }

    #[test]
    fn typical_lineage_is_small() {
        // §7.4: lineage metadata stayed under 200 bytes in DeathStarBench.
        // A typical lineage (a handful of writes to 2-3 stores) must fit.
        let mut l = Lineage::new(LineageId(0x1234_5678_9abc));
        l.append(wid("post-storage-mongodb", "post-6917529027641081856", 3));
        l.append(wid(
            "write-home-timeline-rabbitmq",
            "msg-6917529027641081857",
            1,
        ));
        l.append(wid("user-timeline-mongodb", "user-1729", 12));
        l.append(wid("media-mongodb", "media-4411", 2));
        assert!(l.wire_size() < 200, "wire size {} >= 200", l.wire_size());
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(Lineage::deserialize(&[]).is_err());
        assert!(Lineage::deserialize(&[9, 0, 0]).is_err()); // bad version
        let mut good = Lineage::new(LineageId(1));
        good.append(wid("s", "k", 1));
        let mut bytes = good.serialize();
        bytes.truncate(bytes.len() - 1);
        assert!(Lineage::deserialize(&bytes).is_err());
    }

    #[test]
    fn deserialize_rejects_hostile_counts() {
        // Claims u64::MAX names with 2 bytes of input.
        let mut buf = vec![1u8, 0];
        put_varint(&mut buf, u64::MAX);
        assert_eq!(
            Lineage::deserialize(&buf),
            Err(CodecError::LengthOutOfBounds)
        );
        // Claims far more deps than the remaining bytes could hold.
        let mut buf = vec![1u8, 0];
        put_varint(&mut buf, 0); // 0 names
        put_varint(&mut buf, 1000); // 1000 deps, ~0 bytes left
        assert_eq!(
            Lineage::deserialize(&buf),
            Err(CodecError::LengthOutOfBounds)
        );
    }

    #[test]
    fn datastores_lists_distinct_names() {
        let mut l = Lineage::new(LineageId(1));
        l.append(wid("b", "k1", 1));
        l.append(wid("a", "k1", 1));
        l.append(wid("a", "k2", 2));
        let names: Vec<String> = l.datastores().iter().map(|n| n.to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(l.store_ids().len(), 2);
    }
}
