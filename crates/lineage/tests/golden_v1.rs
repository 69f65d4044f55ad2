//! Golden-bytes tests pinning the v1 wire format.
//!
//! The fixtures below were captured from the pre-refactor (string-keyed,
//! no-interner) encoder. The zero-copy lineage plane must reproduce them
//! byte for byte: the interner and the cached encoding are process-local
//! accelerations that may never leak into the wire format, or mixed-version
//! deployments would stop interoperating mid-upgrade.
//!
//! Alongside the fixtures, an independent reference encoder/decoder —
//! written against the format spec, sharing no code with the production
//! codec — cross-checks both directions on arbitrary lineages.

use antipode_lineage::{crc32c::crc32c, stats, CodecError, Lineage, LineageId, WriteId};

// ---------------------------------------------------------------------------
// Golden fixtures (captured pre-refactor).
// ---------------------------------------------------------------------------

/// DeathStarBench-shaped lineage: 4 deps across 4 stores.
const FIXTURE1: &[u8] = &[
    1, 188, 181, 226, 179, 197, 198, 4, 4, 13, 109, 101, 100, 105, 97, 45, 109, 111, 110, 103, 111,
    100, 98, 20, 112, 111, 115, 116, 45, 115, 116, 111, 114, 97, 103, 101, 45, 109, 111, 110, 103,
    111, 100, 98, 21, 117, 115, 101, 114, 45, 116, 105, 109, 101, 108, 105, 110, 101, 45, 109, 111,
    110, 103, 111, 100, 98, 28, 119, 114, 105, 116, 101, 45, 104, 111, 109, 101, 45, 116, 105, 109,
    101, 108, 105, 110, 101, 45, 114, 97, 98, 98, 105, 116, 109, 113, 4, 0, 10, 109, 101, 100, 105,
    97, 45, 52, 52, 49, 49, 2, 1, 24, 112, 111, 115, 116, 45, 54, 57, 49, 55, 53, 50, 57, 48, 50,
    55, 54, 52, 49, 48, 56, 49, 56, 53, 54, 3, 2, 9, 117, 115, 101, 114, 45, 49, 55, 50, 57, 12, 3,
    23, 109, 115, 103, 45, 54, 57, 49, 55, 53, 50, 57, 48, 50, 55, 54, 52, 49, 48, 56, 49, 56, 53,
    55, 1,
];

/// Empty lineage, small id.
const FIXTURE2: &[u8] = &[1, 5, 0, 0];

/// Max-valued id and versions (worst-case varints), one store, 5 deps.
const FIXTURE3: &[u8] = &[
    1, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1, 1, 2, 100, 98, 5, 0, 2, 107, 48, 255, 255,
    255, 255, 255, 255, 255, 255, 255, 1, 0, 2, 107, 49, 254, 255, 255, 255, 255, 255, 255, 255,
    255, 1, 0, 2, 107, 50, 253, 255, 255, 255, 255, 255, 255, 255, 255, 1, 0, 2, 107, 51, 252, 255,
    255, 255, 255, 255, 255, 255, 255, 1, 0, 2, 107, 52, 251, 255, 255, 255, 255, 255, 255, 255,
    255, 1,
];

fn fixture1_lineage() -> Lineage {
    let mut l = Lineage::new(LineageId(0x1234_5678_9abc));
    l.append(WriteId::new(
        "post-storage-mongodb",
        "post-6917529027641081856",
        3,
    ));
    l.append(WriteId::new(
        "write-home-timeline-rabbitmq",
        "msg-6917529027641081857",
        1,
    ));
    l.append(WriteId::new("user-timeline-mongodb", "user-1729", 12));
    l.append(WriteId::new("media-mongodb", "media-4411", 2));
    l
}

fn fixture3_lineage() -> Lineage {
    let mut l = Lineage::new(LineageId(u64::MAX));
    for i in 0..5u64 {
        l.append(WriteId::new("db", format!("k{i}"), u64::MAX - i));
    }
    l
}

#[test]
fn golden_encode_matches_pre_refactor_bytes() {
    assert_eq!(fixture1_lineage().serialize(), FIXTURE1);
    assert_eq!(Lineage::new(LineageId(5)).serialize(), FIXTURE2);
    assert_eq!(fixture3_lineage().serialize(), FIXTURE3);
}

#[test]
fn golden_decode_round_trips() {
    for (bytes, expect) in [
        (FIXTURE1, fixture1_lineage()),
        (FIXTURE2, Lineage::new(LineageId(5))),
        (FIXTURE3, fixture3_lineage()),
    ] {
        let decoded = Lineage::deserialize(bytes).expect("golden bytes decode");
        assert_eq!(decoded, expect);
        assert_eq!(decoded.serialize(), bytes, "decode→encode must be identity");
    }
}

#[test]
fn canonical_golden_bytes_are_adopted_as_the_wire_cache() {
    // A pass-through hop re-serializes the exact input without an encode.
    let decoded = Lineage::deserialize(FIXTURE1).unwrap();
    let before = stats::snapshot();
    assert_eq!(decoded.serialize(), FIXTURE1, "decode→forward is identity");
    let after = stats::snapshot();
    assert_eq!(after.wire_encodes, before.wire_encodes, "no re-encode");
    assert_eq!(after.wire_cache_hits, before.wire_cache_hits + 1);
}

#[test]
fn a_former_v2_frame_is_an_unknown_version() {
    // `[0x02][varint len][v1 body][crc32c(body)]` was a valid sealed frame
    // while the v2 codec existed; 0x02 is now a version like any other.
    for v1 in [FIXTURE1, FIXTURE2, FIXTURE3] {
        let body = &v1[1..];
        let mut frame = vec![2u8];
        reference::put_varint(&mut frame, (body.len() + 4) as u64);
        frame.extend_from_slice(body);
        frame.extend_from_slice(&crc32c(body).to_le_bytes());
        assert_eq!(
            Lineage::deserialize(&frame),
            Err(CodecError::UnknownVersion(2))
        );
    }
}

// ---------------------------------------------------------------------------
// Independent reference codec (spec-derived, shares nothing with production).
// ---------------------------------------------------------------------------

mod reference {
    /// LEB128 unsigned varint.
    pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                buf.push(byte);
                return;
            }
            buf.push(byte | 0x80);
        }
    }

    pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
        let mut out: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = *buf.get(*pos)?;
            *pos += 1;
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(out);
            }
        }
        None
    }

    fn put_str(buf: &mut Vec<u8>, s: &str) {
        put_varint(buf, s.len() as u64);
        buf.extend_from_slice(s.as_bytes());
    }

    fn get_str(buf: &[u8], pos: &mut usize) -> Option<String> {
        let len = get_varint(buf, pos)? as usize;
        let bytes = buf.get(*pos..*pos + len)?;
        *pos += len;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// Encodes per the v1 spec: version byte, id varint, sorted-name string
    /// table, then (table-index, key, version) per dep. `deps` must be in
    /// canonical (datastore, key, version) order, deduplicated.
    pub fn encode(id: u64, deps: &[(String, String, u64)]) -> Vec<u8> {
        let mut buf = vec![1u8];
        put_varint(&mut buf, id);
        let mut names: Vec<&str> = Vec::new();
        for (store, _, _) in deps {
            if names.last() != Some(&store.as_str()) {
                names.push(store);
            }
        }
        put_varint(&mut buf, names.len() as u64);
        for name in &names {
            put_str(&mut buf, name);
        }
        put_varint(&mut buf, deps.len() as u64);
        let mut idx = 0u64;
        for (i, (store, key, version)) in deps.iter().enumerate() {
            if i > 0 && deps[i - 1].0 != *store {
                idx += 1;
            }
            put_varint(&mut buf, idx);
            put_str(&mut buf, key);
            put_varint(&mut buf, *version);
        }
        buf
    }

    /// Decodes per the v1 spec. Lenient like a spec-minimal reader: no
    /// canonicality checks beyond structural validity.
    #[allow(clippy::type_complexity)]
    pub fn decode(bytes: &[u8]) -> Option<(u64, Vec<(String, String, u64)>)> {
        let mut pos = 0usize;
        if *bytes.first()? != 1 {
            return None;
        }
        pos += 1;
        let id = get_varint(bytes, &mut pos)?;
        let n_names = get_varint(bytes, &mut pos)? as usize;
        let mut names = Vec::new();
        for _ in 0..n_names {
            names.push(get_str(bytes, &mut pos)?);
        }
        let n_deps = get_varint(bytes, &mut pos)? as usize;
        let mut deps = Vec::new();
        for _ in 0..n_deps {
            let idx = get_varint(bytes, &mut pos)? as usize;
            let key = get_str(bytes, &mut pos)?;
            let version = get_varint(bytes, &mut pos)?;
            deps.push((names.get(idx)?.clone(), key, version));
        }
        if pos != bytes.len() {
            return None;
        }
        Some((id, deps))
    }
}

/// Canonical (store, key, version) triples of a lineage.
fn triples(l: &Lineage) -> Vec<(String, String, u64)> {
    l.deps()
        .map(|d| (d.datastore().to_string(), d.key().to_string(), d.version()))
        .collect()
}

#[test]
fn reference_codec_agrees_on_fixtures() {
    for bytes in [FIXTURE1, FIXTURE2, FIXTURE3] {
        let (id, deps) = reference::decode(bytes).expect("reference decodes golden bytes");
        assert_eq!(reference::encode(id, &deps), bytes);
        let prod = Lineage::deserialize(bytes).unwrap();
        assert_eq!(prod.id().0, id);
        assert_eq!(triples(&prod), deps);
    }
}

#[test]
fn cross_version_round_trip_on_generated_lineages() {
    // Deterministic pseudo-random lineages: production-encoded bytes must
    // decode under the reference decoder to the same triples, and
    // reference-encoded bytes must decode under the production decoder to
    // an equal lineage (both directions of a mid-upgrade deployment).
    let mut state = 0x9e37u64;
    let mut mix = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for case in 0..50u64 {
        let mut l = Lineage::new(LineageId(mix()));
        for _ in 0..(mix() % 24) {
            let r = mix();
            l.append(WriteId::new(
                format!("store-{}", r % 5),
                format!("key-{}", r >> 40),
                (r & 0xff) + 1,
            ));
        }
        let bytes = l.serialize();

        // Production → reference.
        let (id, deps) = reference::decode(&bytes)
            .unwrap_or_else(|| panic!("case {case}: reference rejects production bytes"));
        assert_eq!(id, l.id().0, "case {case}");
        assert_eq!(deps, triples(&l), "case {case}");

        // Reference → production (byte-identical too: both encode the
        // canonical form).
        let ref_bytes = reference::encode(id, &deps);
        assert_eq!(ref_bytes, bytes, "case {case}: encoders must agree");
        let back = Lineage::deserialize(&ref_bytes).unwrap();
        assert_eq!(back, l, "case {case}");
    }
}
