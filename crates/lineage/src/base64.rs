//! Minimal standard base64 (RFC 4648, with padding), used to embed binary
//! lineage payloads in string-valued baggage entries. Hand-rolled to keep the
//! dependency set to the approved list.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes bytes as standard base64 with padding.
pub fn encode(data: &[u8]) -> String {
    let mut out = Vec::with_capacity(data.len().div_ceil(3) * 4);
    let sextet = |n: u32, shift: u32| ALPHABET[(n >> shift) as usize & 0x3f];
    let mut groups = data.chunks_exact(3);
    for g in &mut groups {
        let n = u32::from(g[0]) << 16 | u32::from(g[1]) << 8 | u32::from(g[2]);
        out.extend_from_slice(&[sextet(n, 18), sextet(n, 12), sextet(n, 6), sextet(n, 0)]);
    }
    match *groups.remainder() {
        [b0] => {
            let n = u32::from(b0) << 16;
            out.extend_from_slice(&[sextet(n, 18), sextet(n, 12), b'=', b'=']);
        }
        [b0, b1] => {
            let n = u32::from(b0) << 16 | u32::from(b1) << 8;
            out.extend_from_slice(&[sextet(n, 18), sextet(n, 12), sextet(n, 6), b'=']);
        }
        _ => {}
    }
    String::from_utf8(out).expect("the base64 alphabet is ASCII")
}

/// Error from [`decode`]: the input was not valid base64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Base64Error;

impl std::fmt::Display for Base64Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid base64 input")
    }
}
impl std::error::Error for Base64Error {}

/// Marks a byte outside the alphabet in [`DECODE`] (`=` included: padding is
/// recognised by position, never looked up).
const INVALID: u8 = 0xff;

/// Byte → sextet, the inverse of [`ALPHABET`].
const DECODE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// The 24 bits of four alphabet characters, or an error if any is not one.
#[inline]
fn decode_group(c: [u8; 4]) -> Result<u32, Base64Error> {
    let s = c.map(|b| DECODE[b as usize]);
    if s.contains(&INVALID) {
        return Err(Base64Error);
    }
    Ok(u32::from(s[0]) << 18 | u32::from(s[1]) << 12 | u32::from(s[2]) << 6 | u32::from(s[3]))
}

/// Decodes standard base64 (padding required).
///
/// Strict: padding may only appear at the very end of the input, and the
/// unused trailing bits of a padded final group must be zero. Every accepted
/// string is therefore exactly what [`encode`] produces for its bytes —
/// decode is a bijection onto encode's range, which is what lets a decoded
/// lineage adopt the incoming string as its cached base64 form.
pub fn decode(s: &str) -> Result<Vec<u8>, Base64Error> {
    let (groups, rest) = s.as_bytes().as_chunks::<4>();
    if !rest.is_empty() {
        return Err(Base64Error);
    }
    let Some((&last, full)) = groups.split_last() else {
        return Ok(Vec::new());
    };
    let mut out = Vec::with_capacity(groups.len() * 3);
    // '=' is outside the alphabet, so padding anywhere but the tail of the
    // final group fails the table lookup.
    for &group in full {
        let n = decode_group(group)?;
        out.extend_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
    }
    let pad = last.iter().rev().take_while(|&&c| c == b'=').count();
    if pad > 2 {
        return Err(Base64Error);
    }
    let mut padded = last;
    padded[4 - pad..].fill(b'A'); // sextet 0
    let n = decode_group(padded)?;
    // Bits dropped by padding must be zero (canonical encoding).
    if (pad == 1 && n & 0xff != 0) || (pad == 2 && n & 0xffff != 0) {
        return Err(Base64Error);
    }
    out.extend_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8][..3 - pad]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_vectors() {
        let cases = [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ];
        for (plain, enc) in cases {
            assert_eq!(encode(plain.as_bytes()), enc);
            assert_eq!(decode(enc).unwrap(), plain.as_bytes());
        }
    }

    #[test]
    fn binary_round_trip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(decode("abc").is_err()); // length not multiple of 4
        assert!(decode("ab!=").is_err()); // invalid character
        assert!(decode("a===").is_err()); // too much padding
        assert!(decode("=abc").is_err()); // padding in the middle
        assert!(decode("Zg==Zg==").is_err()); // padding before the end
    }

    #[test]
    fn rejects_non_canonical_trailing_bits() {
        // "Zh==" decodes to the same byte as "Zg==" under a lenient decoder;
        // strictness makes decode a bijection onto encode's range.
        assert_eq!(decode("Zg==").unwrap(), b"f");
        assert!(decode("Zh==").is_err());
        assert_eq!(decode("Zm8=").unwrap(), b"fo");
        assert!(decode("Zm9=").is_err());
    }

    #[test]
    fn decode_is_inverse_of_encode_only() {
        // Exhaustive over 2-byte inputs: the only accepted encoding of each
        // value is the canonical one.
        for hi in 0..=255u8 {
            let data = [hi, 0x5a];
            let enc = encode(&data);
            assert_eq!(decode(&enc).unwrap(), data);
        }
    }
}
