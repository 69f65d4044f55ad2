//! Hand-rolled CRC32C (Castagnoli, the iSCSI/ext4 polynomial), the checksum
//! behind the self-validating WAL frames.
//! No external dependency, mirroring the hand-rolled [`crate::base64`]: the
//! integrity experiments should measure a realistic checksum, not a stub.
//!
//! The implementation is the classic slicing-by-8 table walk: eight 256-entry
//! tables generated at compile time let the hot loop fold 8 input bytes per
//! iteration with independent lookups, breaking the byte-at-a-time dependency
//! chain. On the engine workload this keeps the per-record cost in the low
//! tens of nanoseconds — well inside the <5% hop budget the bench artifact
//! (`BENCH_engine.json`) tracks.

/// Reflected Castagnoli polynomial (0x1EDC6F41 bit-reversed).
const POLY: u32 = 0x82F6_3B78;

/// The slicing-by-8 tables: `TABLES[0]` is the plain byte-at-a-time table,
/// `TABLES[k]` advances a byte that sits `k` positions deeper in the stream.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut j = 1;
        let mut crc = t[0][i];
        while j < 8 {
            crc = t[0][(crc & 0xff) as usize] ^ (crc >> 8);
            t[j][i] = crc;
            j += 1;
        }
        i += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// CRC32C of `bytes` (initial value and final XOR both `0xFFFF_FFFF`, input
/// and output reflected — the standard parameterization, so the output
/// matches iSCSI/ext4/SSE4.2 `crc32` hardware vectors).
pub fn crc32c(bytes: &[u8]) -> u32 {
    update(!0u32, bytes) ^ !0u32
}

/// Folds `bytes` into a running (pre-inverted) CRC state. Exposed so callers
/// that frame multiple segments can checksum without concatenating; start
/// from `!0u32` and finish with `^ !0u32` (or use [`crc32c`] directly).
pub fn update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        // The two halves load as little-endian words; the first is folded
        // into the running state, the second is independent of it, so the
        // eight lookups can issue in parallel.
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference straight from the polynomial definition,
    /// sharing nothing with the table path.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 §B.4 / SSE4.2 test vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        let descending: Vec<u8> = (0u8..32).rev().collect();
        assert_eq!(crc32c(&descending), 0x113F_DB5C);
    }

    #[test]
    fn slicing_matches_the_bitwise_reference() {
        // Every length 0..=67 crosses the chunk/remainder boundary several
        // ways; contents are a deterministic ramp with some structure.
        for len in 0..=67usize {
            let data: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
                .collect();
            assert_eq!(crc32c(&data), reference(&data), "len {len}");
        }
    }

    #[test]
    fn incremental_update_matches_one_shot() {
        let data: Vec<u8> = (0..100u8).collect();
        for split in [0, 1, 7, 8, 9, 50, 99, 100] {
            let mut crc = !0u32;
            crc = update(crc, &data[..split]);
            crc = update(crc, &data[split..]);
            assert_eq!(crc ^ !0u32, crc32c(&data), "split {split}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data: Vec<u8> = (0..64u8).collect();
        let base = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), base, "flip {byte}:{bit} undetected");
            }
        }
    }
}
