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

/// Version byte of the flat v2 frame: `[0x02][varint len][body][crc]` where
/// the body is byte-identical to the v1 payload minus its version byte and
/// `crc` is the little-endian CRC32C of the body. The length prefix (which
/// covers body + trailer) makes the frame self-delimiting, so it can be
/// embedded in larger binary messages ([`crate::Baggage::to_frame`], engine
/// envelopes) without base64 or escaping; the trailer makes in-frame
/// corruption detectable instead of decodable. Early v2 frames carried no
/// trailer; the decoder still accepts them (see [`Lineage::decode_frame`]).
const FRAME_VERSION: u8 = 2;

/// Width of the v2 frame's trailing CRC32C.
const FRAME_CRC_LEN: usize = 4;

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
    /// Cached v2 flat frame (the binary baggage/envelope form).
    frame: RefCell<Option<Rc<[u8]>>>,
}

impl Clone for Lineage {
    fn clone(&self) -> Self {
        Lineage {
            id: self.id,
            deps: Rc::clone(&self.deps),
            wire: RefCell::new(self.wire.borrow().clone()),
            b64: RefCell::new(self.b64.borrow().clone()),
            frame: RefCell::new(self.frame.borrow().clone()),
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
            frame: RefCell::new(None),
        }
    }

    /// The lineage's identity.
    pub fn id(&self) -> LineageId {
        self.id
    }

    fn invalidate_cache(&mut self) {
        *self.wire.borrow_mut() = None;
        *self.b64.borrow_mut() = None;
        *self.frame.borrow_mut() = None;
    }

    /// Mutable access to the dep vector, materializing a private copy if the
    /// current one is shared (copy-on-write).
    fn deps_mut(&mut self) -> &mut Vec<WriteId> {
        if Rc::strong_count(&self.deps) > 1 {
            stats::count_cow_dep_clone();
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
        if self.deps.is_empty() {
            // Share the donor's vector outright — O(1).
            self.deps = Rc::clone(&other.deps);
            self.invalidate_cache();
            return;
        }
        if other
            .deps
            .iter()
            .all(|d| self.deps.binary_search(d).is_ok())
        {
            return; // nothing new: keep deps and caches untouched
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
            stats::count_wire_cache_hit();
            return Rc::clone(cached);
        }
        stats::count_wire_encode();
        let rc: Rc<[u8]> = self.encode().into();
        *self.wire.borrow_mut() = Some(Rc::clone(&rc));
        rc
    }

    /// The base64 form of [`Lineage::wire_bytes`] — the baggage entry value
    /// — cached with the same dirty-tracking.
    pub fn wire_b64(&self) -> Rc<str> {
        if let Some(cached) = &*self.b64.borrow() {
            stats::count_b64_cache_hit();
            return Rc::clone(cached);
        }
        stats::count_b64_encode();
        let rc: Rc<str> = crate::base64::encode(&self.wire_bytes()).into();
        *self.b64.borrow_mut() = Some(Rc::clone(&rc));
        rc
    }

    /// The flat v2 frame as shared bytes, (re-)encoding only if the lineage
    /// changed since the last call. The frame is `[0x02][varint body-len]`
    /// followed by the v1 body, so it is self-delimiting: it can be embedded
    /// directly in binary messages with no base64 expansion (~33%) and no
    /// percent-escaping. Cached with the same dirty-tracking as
    /// [`Lineage::wire_bytes`].
    pub fn frame_bytes(&self) -> Rc<[u8]> {
        if let Some(cached) = &*self.frame.borrow() {
            stats::count_frame_cache_hit();
            return Rc::clone(cached);
        }
        stats::count_frame_encode();
        let rc: Rc<[u8]> = self.encode_frame().into();
        *self.frame.borrow_mut() = Some(Rc::clone(&rc));
        rc
    }

    /// The v2 frame size in bytes. Served from the frame cache.
    pub fn frame_size(&self) -> usize {
        self.frame_bytes().len()
    }

    /// Assembles the v2 frame from the (cached) v1 wire form: the body is
    /// shared byte-for-byte between the two versions, so this is a memcpy
    /// plus a ≤10-byte prefix and a 4-byte CRC32C trailer — no second dep
    /// traversal.
    fn encode_frame(&self) -> Vec<u8> {
        let wire = self.wire_bytes();
        let body = &wire[1..];
        let declared = body.len() + FRAME_CRC_LEN;
        let mut buf = Vec::with_capacity(1 + varint_len(declared as u64) + declared);
        buf.put_u8(FRAME_VERSION);
        put_varint(&mut buf, declared as u64);
        buf.extend_from_slice(body);
        buf.extend_from_slice(&crate::crc32c::crc32c(body).to_le_bytes());
        buf
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

    /// Encodes the canonical v1 wire form. O(deps): the string table is
    /// built by watching the interned store id change across the sorted dep
    /// vector (same-store deps are adjacent), so no per-dep name scan and no
    /// intermediate name vector allocation beyond the table itself.
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + self.deps.len() * 16);
        buf.put_u8(WIRE_VERSION);
        put_varint(&mut buf, self.id.0);
        // String table: distinct datastore names in first-seen (canonical)
        // order. Deps are sorted, so names group together.
        let ids = self.store_ids();
        put_varint(&mut buf, ids.len() as u64);
        for id in &ids {
            put_str(&mut buf, &id.name());
        }
        put_varint(&mut buf, self.deps.len() as u64);
        let mut idx: u64 = 0;
        let mut prev: Option<StoreId> = None;
        for d in self.deps.iter() {
            if let Some(p) = prev {
                if p != d.store() {
                    idx += 1;
                }
            }
            prev = Some(d.store());
            put_varint(&mut buf, idx);
            put_str(&mut buf, d.key());
            put_varint(&mut buf, d.version());
        }
        buf
    }

    /// Decodes the wire format produced by [`Lineage::serialize`] (v1) or
    /// [`Lineage::frame_bytes`] (v2): the version byte selects the codec, so
    /// a v2-speaking reader transparently accepts v1 writers (and vice
    /// versa — v1 bytes are never reinterpreted).
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
            None => Err(CodecError::UnexpectedEof),
            Some(&WIRE_VERSION) => Self::decode_v1(bytes),
            Some(&FRAME_VERSION) => Self::decode_frame(bytes).map(|(lineage, _)| lineage),
            Some(&other) => Err(CodecError::UnknownVersion(other)),
        }
    }

    /// The v1 compat path: body decode plus canonical adoption into the
    /// wire cache.
    fn decode_v1(bytes: &[u8]) -> Result<Lineage, CodecError> {
        let total_len = bytes.len();
        let mut slice = &bytes[1..]; // version byte checked by the dispatcher
        let buf = &mut slice;
        let body = decode_body(buf)?;
        let consumed = total_len - buf.remaining();
        // Minimal-varint check: the consumed length must equal the canonical
        // minimal length (version byte + body).
        let canonical = body.canonical && consumed == 1 + body.canonical_len;
        let lineage = body.into_lineage(canonical);
        if canonical {
            stats::count_canonical_decode();
            *lineage.wire.borrow_mut() = Some(bytes[..consumed].into());
            debug_assert_eq!(lineage.encode().as_slice(), &bytes[..consumed]);
        }
        Ok(lineage)
    }

    /// Decodes a v2 flat frame from the front of `bytes`, returning the
    /// lineage and the number of bytes consumed. The frame is
    /// self-delimiting, so trailing bytes are left for the caller — this is
    /// what lets frames embed in binary baggage and engine envelopes.
    ///
    /// The declared length must delimit the payload exactly: either the body
    /// alone (an early v2 writer, pre-CRC — accepted for compatibility) or
    /// the body plus a 4-byte CRC32C trailer, which is then verified —
    /// a mismatch is [`CodecError::ChecksumMismatch`], never a silently
    /// different lineage. Canonical sealed frames are adopted as the cached
    /// frame form: decode→forward of an unchanged lineage re-emits the exact
    /// input bytes.
    pub fn decode_frame(bytes: &[u8]) -> Result<(Lineage, usize), CodecError> {
        let total_len = bytes.len();
        let mut slice = bytes;
        let buf = &mut slice;
        if !buf.has_remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        let version = buf.get_u8();
        if version != FRAME_VERSION {
            return Err(CodecError::UnknownVersion(version));
        }
        let declared = get_varint(buf)? as usize;
        if declared > buf.remaining() {
            return Err(CodecError::LengthOutOfBounds);
        }
        let prefix_len = total_len - buf.remaining();
        let mut body_slice = &bytes[prefix_len..prefix_len + declared];
        let body_buf = &mut body_slice;
        let body = decode_body(body_buf)?;
        let body_len = declared - body_buf.remaining();
        // What remains of the declared window after the body is the trailer:
        // absent (legacy v2 writer) or exactly one CRC32C. Anything else is
        // a framing violation, not trailing data.
        let sealed = match body_buf.remaining() {
            0 => false,
            FRAME_CRC_LEN => {
                let body_bytes = &bytes[prefix_len..prefix_len + body_len];
                let mut trailer = [0u8; FRAME_CRC_LEN];
                trailer.copy_from_slice(&bytes[prefix_len + body_len..prefix_len + declared]);
                if crate::crc32c::crc32c(body_bytes) != u32::from_le_bytes(trailer) {
                    return Err(CodecError::ChecksumMismatch);
                }
                true
            }
            _ => return Err(CodecError::LengthOutOfBounds),
        };
        let consumed = prefix_len + declared;
        let canonical = sealed
            && body.canonical
            && body_len == body.canonical_len
            && prefix_len == 1 + varint_len(declared as u64);
        let lineage = body.into_lineage(canonical);
        if canonical {
            stats::count_canonical_decode();
            *lineage.frame.borrow_mut() = Some(bytes[..consumed].into());
            debug_assert_eq!(
                &lineage.encode()[1..],
                &bytes[prefix_len..prefix_len + body_len]
            );
        }
        Ok((lineage, consumed))
    }

    /// The serialized size in bytes. Served from the wire cache — never
    /// materializes a second buffer.
    pub fn wire_size(&self) -> usize {
        self.wire_bytes().len()
    }
}

/// Result of decoding the body shared by the v1 and v2 wire forms:
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
            frame: RefCell::new(None),
        }
    }
}

/// Decodes the version-independent body, tracking canonicality as it parses.
fn decode_body(buf: &mut &[u8]) -> Result<BodyDecode, CodecError> {
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
    let mut stores: Vec<StoreId> = Vec::with_capacity(n_names.min(buf.remaining()));
    let mut names_sorted = true;
    let mut prev_name: Option<&str> = None;
    for _ in 0..n_names {
        // Borrowed from the input: a known store name allocates nothing.
        let name = get_str(buf)?;
        canonical_len += varint_len(name.len() as u64) + name.len();
        if prev_name.is_some_and(|p| p >= name) {
            names_sorted = false;
        }
        stores.push(StoreId::intern(name));
        prev_name = Some(name);
    }
    let n_deps = get_varint(buf)? as usize;
    // Each dependency consumes at least 3 bytes: a table index varint, a
    // key length varint, and a version varint.
    if n_deps > buf.remaining() / 3 {
        return Err(CodecError::LengthOutOfBounds);
    }
    canonical_len += varint_len(n_deps as u64);
    let mut deps: Vec<WriteId> = Vec::with_capacity(n_deps);
    // Canonical index pattern: starts at 0, steps by at most 1, ends at
    // n_names - 1 (every table entry used), deps strictly increasing.
    let mut canonical = names_sorted;
    let mut prev_idx: Option<u64> = None;
    for _ in 0..n_deps {
        let idx = get_varint(buf)?;
        let store = *stores
            .get(idx as usize)
            .ok_or(CodecError::LengthOutOfBounds)?;
        let key = get_str(buf)?;
        let version = get_varint(buf)?;
        canonical_len +=
            varint_len(idx) + varint_len(key.len() as u64) + key.len() + varint_len(version);
        // The key's one allocation: straight from the input into its `Rc`.
        let dep = WriteId::from_parts(store, Rc::from(key), version);
        match prev_idx {
            None => {
                if idx != 0 {
                    canonical = false;
                }
            }
            Some(p) => {
                if idx != p && idx != p + 1 {
                    canonical = false;
                }
                if idx == p && canonical {
                    // Same store: names are equal, so WriteId order
                    // reduces to (key, version) — must strictly increase.
                    if deps.last().is_some_and(|prev| *prev >= dep) {
                        canonical = false;
                    }
                }
            }
        }
        prev_idx = Some(idx);
        deps.push(dep);
    }
    canonical &= match prev_idx {
        Some(last) => last as usize == n_names - 1,
        None => n_names == 0,
    };
    Ok(BodyDecode {
        id,
        deps,
        canonical,
        canonical_len,
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
    fn frame_round_trip_and_cache() {
        let mut l = Lineage::new(LineageId(0xabc));
        l.append(wid("posts", "p-1", 3));
        l.append(wid("notifier", "n-9", 1));
        let frame = l.frame_bytes();
        assert_eq!(frame[0], 2, "v2 frames carry version byte 2");
        let again = l.frame_bytes();
        assert!(
            Rc::ptr_eq(&frame, &again),
            "unchanged lineage: frame cached"
        );
        let (back, consumed) = Lineage::decode_frame(&frame).unwrap();
        assert_eq!(consumed, frame.len());
        assert_eq!(back, l);
        // deserialize dispatches on the version byte: both codecs accepted.
        assert_eq!(Lineage::deserialize(&frame).unwrap(), l);
        assert_eq!(Lineage::deserialize(&l.serialize()).unwrap(), l);
    }

    #[test]
    fn frame_shares_body_with_v1() {
        let mut l = Lineage::new(LineageId(7));
        l.append(wid("s", "k", 1));
        let wire = l.wire_bytes();
        let frame = l.frame_bytes();
        // [0x02][varint len][v1 body][crc32c(body)]
        let body = &wire[1..];
        let crc_at = frame.len() - 4;
        assert_eq!(&frame[crc_at - body.len()..crc_at], body);
        assert_eq!(&frame[crc_at..], crate::crc32c::crc32c(body).to_le_bytes());
    }

    #[test]
    fn legacy_v2_frame_without_crc_still_decodes() {
        // An early v2 writer emitted [0x02][varint body-len][body] with no
        // trailer; the declared length delimiting exactly the body is what
        // identifies it.
        let mut l = Lineage::new(LineageId(7));
        l.append(wid("s", "k", 1));
        let wire = l.wire_bytes();
        let body = &wire[1..];
        let mut legacy = vec![2u8];
        put_varint(&mut legacy, body.len() as u64);
        legacy.extend_from_slice(body);
        let (back, consumed) = Lineage::decode_frame(&legacy).unwrap();
        assert_eq!(consumed, legacy.len());
        assert_eq!(back, l);
        // Legacy frames are never adopted as the cache: re-encoding seals
        // them with the trailer.
        let sealed = back.frame_bytes();
        assert_eq!(sealed.len(), legacy.len() + 4);
    }

    #[test]
    fn corrupt_frame_body_is_a_checksum_mismatch() {
        let mut l = Lineage::new(LineageId(7));
        l.append(wid("s", "k", 1));
        let frame = l.frame_bytes().to_vec();
        // Flip the final body byte (the dep's version varint): structurally
        // the body still decodes, so only the trailer can catch it.
        let mut bad = frame.clone();
        let victim = bad.len() - 5;
        bad[victim] ^= 0x01;
        assert_eq!(
            Lineage::decode_frame(&bad),
            Err(CodecError::ChecksumMismatch)
        );
        // A flipped trailer byte is equally fatal.
        let mut bad_crc = frame;
        let last = bad_crc.len() - 1;
        bad_crc[last] ^= 0x80;
        assert_eq!(
            Lineage::decode_frame(&bad_crc),
            Err(CodecError::ChecksumMismatch)
        );
    }

    #[test]
    fn frame_is_self_delimiting() {
        let mut l = Lineage::new(LineageId(9));
        l.append(wid("s", "k", 4));
        let mut buf = l.frame_bytes().to_vec();
        buf.extend_from_slice(b"trailing-payload");
        let (back, consumed) = Lineage::decode_frame(&buf).unwrap();
        assert_eq!(back, l);
        assert_eq!(&buf[consumed..], b"trailing-payload");
    }

    #[test]
    fn canonical_frame_decode_adopts_input() {
        let mut l = Lineage::new(LineageId(3));
        l.append(wid("a", "k1", 1));
        let frame = l.frame_bytes().to_vec();
        let before = stats::snapshot().frame_encodes;
        let (back, _) = Lineage::decode_frame(&frame).unwrap();
        assert_eq!(back.frame_bytes().as_ref(), frame.as_slice());
        assert_eq!(
            stats::snapshot().frame_encodes,
            before,
            "decode→forward of a canonical frame must be encode-free"
        );
    }

    #[test]
    fn frame_rejects_bad_length_prefix() {
        let mut l = Lineage::new(LineageId(1));
        l.append(wid("s", "k", 1));
        let frame = l.frame_bytes().to_vec();
        // Truncated body.
        assert!(Lineage::decode_frame(&frame[..frame.len() - 1]).is_err());
        // Length prefix larger than the remaining bytes.
        let mut over = frame.clone();
        over[1] = over[1].wrapping_add(40);
        assert_eq!(
            Lineage::decode_frame(&over),
            Err(CodecError::LengthOutOfBounds)
        );
        // Length prefix that under-declares the body (decode stops short).
        let mut under = frame.clone();
        under[1] -= 1;
        assert!(Lineage::decode_frame(&under).is_err());
    }

    #[test]
    fn mutation_invalidates_the_frame_cache() {
        let mut l = Lineage::new(LineageId(5));
        l.append(wid("s", "k", 1));
        let first = l.frame_bytes();
        l.append(wid("s", "k2", 2));
        let second = l.frame_bytes();
        assert!(!Rc::ptr_eq(&first, &second));
        let (back, _) = Lineage::decode_frame(&second).unwrap();
        assert_eq!(back, l);
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
