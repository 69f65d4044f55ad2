//! Request-context baggage, mirroring OpenTelemetry baggage (paper §6.2,
//! §6.4: "Antipode piggybacks lineage metadata on OpenTelemetry baggage").
//!
//! Baggage is a string-keyed map propagated with every RPC and queue message.
//! The lineage rides in a structural slot next to the entries, so injecting
//! it ([`Baggage::set_lineage`]) is an O(1) clone — no encoding happens until
//! the baggage actually crosses a wire, as the textual header of
//! [`Baggage::to_header`]/[`Baggage::from_header`]: `k=v` pairs with the
//! lineage as base64 of its wire bytes under [`LINEAGE_KEY`]. A parsed
//! header keeps that entry raw, in a slot of its own, until
//! [`Baggage::lineage`] decodes it.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::base64;
use crate::lineage::Lineage;
use crate::varint::CodecError;

/// Baggage key under which the serialized lineage travels.
pub const LINEAGE_KEY: &str = "antipode-lineage";

/// A propagated string-keyed context map.
#[derive(Clone, Debug, Default)]
pub struct Baggage {
    /// Every entry but the lineage. Invariant: never holds [`LINEAGE_KEY`].
    entries: BTreeMap<String, String>,
    /// The structural lineage slot. Invariant: at most one of this and
    /// `raw_lineage` is `Some`.
    lineage: Option<Lineage>,
    /// The [`LINEAGE_KEY`] entry as a raw (unescaped) string — parsed from a
    /// header or set by hand — until it is decoded on demand. Shared, so
    /// cloning the baggage and adopting the string as the decoded lineage's
    /// base64 cache are pointer bumps.
    raw_lineage: Option<Rc<str>>,
    /// The lineage decoded from `raw_lineage`, so a header is decoded once
    /// however many readers extract from it (and from its clones). Set only
    /// by [`Baggage::lineage`]; emptied by every mutator that can change or
    /// remove the raw entry.
    decoded: OnceCell<Lineage>,
}

/// Errors from extracting a lineage out of baggage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaggageError {
    /// No lineage entry present.
    Missing,
    /// The entry was not valid base64.
    Encoding,
    /// The decoded bytes were not a valid lineage payload.
    Codec(CodecError),
}

impl std::fmt::Display for BaggageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaggageError::Missing => write!(f, "baggage carries no lineage"),
            BaggageError::Encoding => write!(f, "lineage baggage entry is not valid base64"),
            BaggageError::Codec(e) => write!(f, "lineage payload: {e}"),
        }
    }
}
impl std::error::Error for BaggageError {}

impl PartialEq for Baggage {
    fn eq(&self, other: &Self) -> bool {
        // Compare the non-lineage entries structurally and the lineage by
        // value, regardless of whether it sits in the slot or (as after
        // `from_header`) as an undecoded base64 entry.
        self.entries == other.entries && self.lineage_b64() == other.lineage_b64()
    }
}

impl Eq for Baggage {}

impl Baggage {
    /// Creates empty baggage.
    pub fn new() -> Self {
        Baggage::default()
    }

    /// Takes the lineage entry out, whichever slot holds it, as the string
    /// the entry map would have held.
    fn take_lineage_entry(&mut self) -> Option<String> {
        self.decoded.take();
        match self.lineage.take() {
            Some(l) => Some(l.wire_b64().as_ref().to_owned()),
            None => self.raw_lineage.take().map(|raw| raw.as_ref().to_owned()),
        }
    }

    /// Sets an entry, returning the previous value. Setting [`LINEAGE_KEY`]
    /// directly stores the raw string (the compat path for hand-built
    /// headers) and displaces any structural lineage.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) -> Option<String> {
        let key = key.into();
        if key == LINEAGE_KEY {
            let displaced = self.take_lineage_entry();
            self.raw_lineage = Some(value.into().into());
            return displaced;
        }
        self.entries.insert(key, value.into())
    }

    /// Looks up an entry. The structural lineage is not visible here — use
    /// [`Baggage::lineage`] (raw [`LINEAGE_KEY`] entries set via
    /// [`Baggage::set`] or parsed from headers are).
    pub fn get(&self, key: &str) -> Option<&str> {
        if key == LINEAGE_KEY {
            return self.raw_lineage.as_deref();
        }
        self.entries.get(key).map(String::as_str)
    }

    /// Removes an entry, returning its value ([`LINEAGE_KEY`] removes the
    /// structural lineage too, rendering it to base64 if needed).
    pub fn remove(&mut self, key: &str) -> Option<String> {
        if key == LINEAGE_KEY {
            return self.take_lineage_entry();
        }
        self.entries.remove(key)
    }

    /// Number of entries, counting the lineage (slot or raw) as one.
    pub fn len(&self) -> usize {
        self.entries.len()
            + usize::from(self.lineage.is_some())
            + usize::from(self.raw_lineage.is_some())
    }

    /// Whether the baggage is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stores a lineage in the structural slot: an O(1) clone (`Rc` bumps),
    /// no encoding. The textual form is produced lazily — and served from
    /// the lineage's own caches — only when the baggage is rendered by
    /// [`Baggage::to_header`].
    pub fn set_lineage(&mut self, lineage: &Lineage) {
        self.clear_lineage();
        self.lineage = Some(lineage.clone());
    }

    /// Extracts the lineage, if any.
    ///
    /// A structural lineage (set by [`Baggage::set_lineage`]) is returned by
    /// clone. Otherwise the raw [`LINEAGE_KEY`] entry is decoded — once:
    /// later calls clone the first result. When that payload is canonical,
    /// the decoded lineage adopts both the wire bytes and the incoming base64
    /// string as its caches, so forwarding it unchanged into the next hop's
    /// baggage re-uses the exact header value with no re-encoding.
    pub fn lineage(&self) -> Result<Lineage, BaggageError> {
        if let Some(l) = self.lineage.as_ref().or_else(|| self.decoded.get()) {
            return Ok(l.clone());
        }
        let raw = self.raw_lineage.as_ref().ok_or(BaggageError::Missing)?;
        let bytes = base64::decode(raw).map_err(|_| BaggageError::Encoding)?;
        let lineage = Lineage::deserialize(&bytes).map_err(BaggageError::Codec)?;
        // Sound because `decode` is strict: `raw` is the unique base64 of
        // `bytes`, and a canonical decode cached exactly those bytes.
        lineage.adopt_b64_cache(Rc::clone(raw));
        let _ = self.decoded.set(lineage.clone());
        Ok(lineage)
    }

    /// Removes the lineage entry (the paper's `stop`: execution ends and the
    /// context drops the ongoing dependency set).
    pub fn clear_lineage(&mut self) {
        self.lineage = None;
        self.raw_lineage = None;
        self.decoded.take();
    }

    /// The base64 rendering of the lineage, from whichever representation
    /// holds it (slot wins; raw entries pass through verbatim).
    fn lineage_b64(&self) -> Option<Rc<str>> {
        match &self.lineage {
            Some(l) => Some(l.wire_b64()),
            None => self.raw_lineage.clone(),
        }
    }

    /// Renders the W3C-baggage-style header `k1=v1,k2=v2` with percent
    /// escaping of `%`, `,` and `=` in keys and values. The lineage renders
    /// under [`LINEAGE_KEY`] at its sorted position, so the bytes are
    /// identical to the pre-slot implementation (asserted by the golden
    /// header test).
    pub fn to_header(&self) -> String {
        let slot_b64 = self.lineage.as_ref().map(Lineage::wire_b64);
        let mut lineage = slot_b64.as_deref().or(self.raw_lineage.as_deref());
        // One allocation when nothing but base64 padding needs escaping
        // (`==` renders as `%3D%3D`, hence the slack).
        let entries_len: usize = self
            .entries
            .iter()
            .map(|(k, v)| k.len() + v.len() + 2)
            .sum();
        let lineage_len = lineage.map_or(0, |b| LINEAGE_KEY.len() + b.len() + 6);
        let mut out = String::with_capacity(entries_len + lineage_len);
        let mut push_lineage = |out: &mut String| {
            let Some(value) = lineage.take() else { return };
            if !out.is_empty() {
                out.push(',');
            }
            out.push_str(LINEAGE_KEY);
            out.push('=');
            if slot_b64.is_some() {
                // Base64 this crate encoded: `%` and `,` never occur and `=`
                // only as trailing padding, so the body is copied without
                // the per-byte metacharacter scan.
                let body = value.trim_end_matches('=');
                out.push_str(body);
                for _ in body.len()..value.len() {
                    out.push_str("%3D");
                }
            } else {
                escape_into(out, value);
            }
        };
        for (k, v) in &self.entries {
            if k.as_str() > LINEAGE_KEY {
                push_lineage(&mut out);
            }
            if !out.is_empty() {
                out.push(',');
            }
            escape_into(&mut out, k);
            out.push('=');
            escape_into(&mut out, v);
        }
        push_lineage(&mut out);
        out
    }

    /// Parses a header produced by [`Baggage::to_header`]. Malformed items
    /// (no `=`) are skipped, matching the lenient posture of real
    /// propagators. The lineage entry stays a raw string until
    /// [`Baggage::lineage`] decodes it (lenient: a corrupt entry surfaces at
    /// extraction, not at parse).
    pub fn from_header(header: &str) -> Baggage {
        let mut b = Baggage::new();
        for item in header.split(',') {
            if item.is_empty() {
                continue;
            }
            if let Some((k, v)) = item.split_once('=') {
                // A fresh baggage has no structural lineage to displace, so
                // this is all `set` would do.
                let key = unescape(k);
                if key == LINEAGE_KEY {
                    b.raw_lineage = Some(unescape(v).into());
                } else {
                    b.entries.insert(key.into_owned(), unescape(v).into_owned());
                }
            }
        }
        b
    }

    /// Size in bytes of the header form — what request propagation actually
    /// adds to each RPC.
    pub fn header_size(&self) -> usize {
        self.to_header().len()
    }
}

/// Appends `s` to `out`, percent-escaping `%`, `,` and `=`: runs between
/// metacharacters are copied whole, so a string without any is one
/// `push_str`.
fn escape_into(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(at) = rest.bytes().position(|b| matches!(b, b'%' | b',' | b'=')) {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'%' => "%25",
            b',' => "%2C",
            _ => "%3D",
        });
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// Inverse of [`escape_into`]; borrows the input when it holds no `%`.
/// Lenient: a `%` that does not start one of the three escapes (unknown hex,
/// or cut short by the end of the item) passes through literally.
fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('%') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('%') {
        out.push_str(&rest[..at]);
        let unescaped = match rest.as_bytes().get(at + 1..at + 3) {
            Some(b"25") => Some('%'),
            Some(b"2C") => Some(','),
            Some(b"3D") => Some('='),
            _ => None,
        };
        match unescaped {
            Some(c) => {
                out.push(c);
                rest = &rest[at + 3..];
            }
            None => {
                out.push('%');
                rest = &rest[at + 1..];
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::LineageId;
    use crate::write_id::WriteId;

    #[test]
    fn set_get_remove() {
        let mut b = Baggage::new();
        assert!(b.is_empty());
        b.set("trace-id", "abc");
        assert_eq!(b.get("trace-id"), Some("abc"));
        assert_eq!(b.remove("trace-id"), Some("abc".to_string()));
        assert!(b.get("trace-id").is_none());
    }

    #[test]
    fn lineage_round_trip_through_baggage() {
        let mut l = Lineage::new(LineageId(7));
        l.append(WriteId::new("mysql", "post-1", 3));
        let mut b = Baggage::new();
        b.set_lineage(&l);
        assert_eq!(b.lineage().unwrap(), l);
    }

    #[test]
    fn set_lineage_is_encode_free() {
        let mut l = Lineage::new(LineageId(7));
        l.append(WriteId::new("mysql", "post-1", 3));
        let before = crate::stats::snapshot();
        let mut b = Baggage::new();
        b.set_lineage(&l);
        let _ = b.lineage().unwrap();
        let after = crate::stats::snapshot();
        assert_eq!(
            (after.wire_encodes, after.b64_encodes),
            (before.wire_encodes, before.b64_encodes),
            "slot-based inject/extract must not touch the codec"
        );
    }

    #[test]
    fn missing_lineage() {
        assert_eq!(Baggage::new().lineage(), Err(BaggageError::Missing));
    }

    #[test]
    fn corrupt_lineage_entry() {
        let mut b = Baggage::new();
        b.set(LINEAGE_KEY, "!!!not-base64!!!");
        assert_eq!(b.lineage(), Err(BaggageError::Encoding));
        b.set(LINEAGE_KEY, crate::base64::encode(&[0xFF, 0x00]));
        assert!(matches!(b.lineage(), Err(BaggageError::Codec(_))));
    }

    #[test]
    fn raw_entry_displaces_structural_lineage() {
        let mut l = Lineage::new(LineageId(4));
        l.append(WriteId::new("s", "k", 1));
        let mut b = Baggage::new();
        b.set_lineage(&l);
        b.set(LINEAGE_KEY, "!!!not-base64!!!");
        assert_eq!(b.lineage(), Err(BaggageError::Encoding));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn header_round_trip() {
        let mut b = Baggage::new();
        b.set("a", "1");
        b.set("weird,key", "va=lue%");
        let h = b.to_header();
        let back = Baggage::from_header(&h);
        assert_eq!(back, b);
    }

    #[test]
    fn header_round_trip_with_lineage() {
        let mut l = Lineage::new(LineageId(42));
        l.append(WriteId::new("s3", "obj/1", 1));
        let mut b = Baggage::new();
        b.set_lineage(&l);
        b.set("request-id", "r-17");
        let back = Baggage::from_header(&b.to_header());
        assert_eq!(back.lineage().unwrap(), l);
        assert_eq!(back.get("request-id"), Some("r-17"));
    }

    #[test]
    fn unescape_passes_incomplete_and_unknown_escapes_through() {
        for (raw, want) in [
            ("%", "%"),
            ("%2", "%2"),
            ("%ZZ", "%ZZ"),
            ("a%", "a%"),
            ("a%2", "a%2"),
            ("%2C%", ",%"),
            ("%25%3D%2C", "%=,"),
            ("%2c", "%2c"), // escapes are upper-case hex only
            ("é%3Dλ", "é=λ"),
        ] {
            assert_eq!(unescape(raw), want, "unescape({raw:?})");
            let b = Baggage::from_header(&format!("k={raw}"));
            assert_eq!(b.get("k"), Some(want), "from_header(k={raw:?})");
        }
    }

    #[test]
    fn parsed_header_decodes_its_lineage_once() {
        let mut l = Lineage::new(LineageId(42));
        l.append(WriteId::new("s3", "obj/1", 1));
        let mut out = Baggage::new();
        out.set_lineage(&l);
        let mut parsed = Baggage::from_header(&out.to_header());
        let decodes = || crate::stats::snapshot().canonical_decodes;

        let before = decodes();
        assert_eq!(parsed.lineage().unwrap(), l);
        assert_eq!(parsed.lineage().unwrap(), l);
        assert_eq!(parsed.clone().lineage().unwrap(), l, "clones share it");
        assert_eq!(decodes(), before + 1, "one decode, however many readers");

        // Replacing the raw entry must not leave the old decode behind.
        let mut other = Lineage::new(LineageId(7));
        other.append(WriteId::new("mysql", "row", 9));
        parsed.set(LINEAGE_KEY, other.wire_b64().to_string());
        assert_eq!(parsed.lineage().unwrap(), other);
        assert_eq!(decodes(), before + 2);
        parsed.set(LINEAGE_KEY, "!!!not-base64!!!");
        assert_eq!(parsed.lineage(), Err(BaggageError::Encoding));
        parsed.set(LINEAGE_KEY, l.wire_b64().to_string());
        let _ = parsed.lineage().unwrap();
        parsed.remove(LINEAGE_KEY);
        assert_eq!(parsed.lineage(), Err(BaggageError::Missing));
        parsed.set(LINEAGE_KEY, l.wire_b64().to_string());
        let _ = parsed.lineage().unwrap();
        parsed.clear_lineage();
        assert_eq!(parsed.lineage(), Err(BaggageError::Missing));
        parsed.set(LINEAGE_KEY, l.wire_b64().to_string());
        let _ = parsed.lineage().unwrap();
        parsed.set_lineage(&other);
        assert_eq!(parsed.lineage().unwrap(), other);
    }

    #[test]
    fn the_lineage_entry_reads_the_same_from_either_slot() {
        let mut l = Lineage::new(LineageId(42));
        l.append(WriteId::new("s3", "obj/12", 1)); // base64 ends in padding
        let b64 = l.wire_b64().to_string();
        assert!(b64.ends_with('='));
        let mut other = Lineage::new(LineageId(7));
        other.append(WriteId::new("mysql", "row", 9));
        let by_hand = "50%,a=b=";

        // How the entry got there → what `get` shows for it (`None`: the
        // structural slot is not a map entry) and what displacing it returns.
        type Build = fn(&Lineage, &str) -> Baggage;
        let holders: [(&str, Build, Option<&str>, &str); 3] = [
            (
                "structural slot",
                |l, _| {
                    let mut b = Baggage::new();
                    b.set_lineage(l);
                    b
                },
                None,
                &b64,
            ),
            (
                "raw slot from from_header",
                |l, _| {
                    let mut sent = Baggage::new();
                    sent.set_lineage(l);
                    Baggage::from_header(&sent.to_header())
                },
                Some(&b64),
                &b64,
            ),
            (
                "raw slot set by hand",
                |_, by_hand| {
                    let mut b = Baggage::new();
                    b.set(LINEAGE_KEY, by_hand);
                    b
                },
                Some(by_hand),
                by_hand,
            ),
        ];
        for (name, build, shown, held) in holders {
            let build = || {
                let mut b = build(&l, by_hand);
                b.set("aardvark", "1"); // sorts before the lineage key
                b.set("zebra", "2"); // and after
                b
            };
            let b = build();
            assert_eq!(b.get(LINEAGE_KEY), shown, "{name}: get");
            assert_eq!(b.len(), 3, "{name}: len");
            assert!(!b.is_empty());
            let header = b.to_header();
            assert!(
                header.starts_with("aardvark=1,antipode-lineage=") && header.ends_with(",zebra=2"),
                "{name}: sorted position in {header}"
            );
            let back = Baggage::from_header(&header);
            assert_eq!(back, b, "{name}: from_header(to_header(b)) == b");
            assert_eq!(
                back.get(LINEAGE_KEY),
                Some(held),
                "{name}: unescaped on parse"
            );
            assert_eq!(back.to_header(), header, "{name}: renders the same again");

            let mut set = build();
            assert_eq!(set.set(LINEAGE_KEY, "x"), Some(held.to_string()), "{name}");
            assert_eq!((set.get(LINEAGE_KEY), set.len()), (Some("x"), 3), "{name}");
            assert_eq!(set.lineage(), Err(BaggageError::Encoding), "{name}");

            let mut removed = build();
            assert_eq!(
                removed.remove(LINEAGE_KEY),
                Some(held.to_string()),
                "{name}"
            );
            assert_eq!(
                (removed.get(LINEAGE_KEY), removed.len()),
                (None, 2),
                "{name}"
            );
            assert_eq!(removed.remove(LINEAGE_KEY), None, "{name}");
            assert_eq!(removed.lineage(), Err(BaggageError::Missing), "{name}");
            assert_ne!(removed, b, "{name}");

            let mut replaced = build();
            replaced.set_lineage(&other);
            assert_eq!(
                (replaced.get(LINEAGE_KEY), replaced.len()),
                (None, 3),
                "{name}"
            );
            assert_eq!(replaced.lineage().unwrap(), other, "{name}");
            assert_ne!(replaced, b, "{name}");

            let mut cleared = build();
            cleared.clear_lineage();
            assert_eq!(cleared, removed, "{name}: clear_lineage is remove");
            assert_eq!(cleared.to_header(), "aardvark=1,zebra=2", "{name}");
        }
        // The three holders of one lineage are one baggage.
        let [slot, parsed, _] = holders.map(|(_, build, ..)| build(&l, &b64));
        let mut raw = Baggage::new();
        raw.set(LINEAGE_KEY, b64.clone());
        assert!(slot == parsed && parsed == raw && raw == slot);
        assert_eq!(parsed.lineage().unwrap(), l);
        // The map itself never holds the key, however it is spelled.
        let spelled = Baggage::from_header("antipode-lineage=a,antipode-lineage=b");
        assert_eq!((spelled.get(LINEAGE_KEY), spelled.len()), (Some("b"), 1));
        assert!(spelled.entries.is_empty());
    }

    #[test]
    fn slot_header_matches_raw_entry_header() {
        // The structural slot must render byte-identically to the old
        // entry-map representation, keys sorting around LINEAGE_KEY.
        let mut l = Lineage::new(LineageId(42));
        l.append(WriteId::new("s3", "obj/1", 1));
        let mut slot = Baggage::new();
        slot.set("aardvark", "1"); // sorts before "antipode-lineage"
        slot.set("zebra", "2"); // sorts after
        slot.set_lineage(&l);
        let mut raw = Baggage::new();
        raw.set("aardvark", "1");
        raw.set("zebra", "2");
        raw.set(LINEAGE_KEY, l.wire_b64().to_string());
        assert_eq!(slot.to_header(), raw.to_header());
        assert_eq!(slot, raw);
    }

    #[test]
    fn from_header_skips_malformed_items() {
        let b = Baggage::from_header("good=1,,bad-item,also=2");
        assert_eq!(b.len(), 2);
        assert_eq!(b.get("good"), Some("1"));
        assert_eq!(b.get("also"), Some("2"));
    }

    #[test]
    fn clear_lineage_removes_entry() {
        let mut b = Baggage::new();
        b.set_lineage(&Lineage::new(LineageId(1)));
        b.clear_lineage();
        assert_eq!(b.lineage(), Err(BaggageError::Missing));
    }
}
