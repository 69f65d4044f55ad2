//! LEB128 varint and length-prefixed string primitives for the lineage wire
//! format. Hand-rolled so the metadata-size experiments (Table 3, §7.4)
//! measure a realistic compact encoding rather than a debug format.

use bytes::{Buf, BufMut};

/// Errors from decoding the lineage wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended in the middle of a value.
    UnexpectedEof,
    /// A varint ran longer than 10 bytes (not a valid u64).
    VarintOverflow,
    /// A string was not valid UTF-8.
    InvalidUtf8,
    /// The format version byte was unknown.
    UnknownVersion(u8),
    /// A declared length exceeded the remaining input.
    LengthOutOfBounds,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            CodecError::InvalidUtf8 => write!(f, "string is not valid UTF-8"),
            CodecError::UnknownVersion(v) => write!(f, "unknown wire format version {v}"),
            CodecError::LengthOutOfBounds => write!(f, "declared length exceeds input"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends `v` as an LEB128 varint.
pub fn put_varint(buf: &mut impl BufMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads an LEB128 varint.
pub fn get_varint(buf: &mut impl Buf) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        let byte = buf.get_u8();
        let bits = u64::from(byte & 0x7f);
        // A tenth byte holds bit 63 alone: more would be shifted out, and two
        // encodings would decode to one value — the canonical-input check
        // compares lengths, so it would adopt bytes `serialize` never emits.
        if shift >= 64 || (shift == 63 && bits > 1) {
            return Err(CodecError::VarintOverflow);
        }
        v |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut impl BufMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string, borrowed from the input: the bytes
/// are validated where they lie, and the caller copies them only if (and
/// into whatever) it needs to own.
pub fn get_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str, CodecError> {
    let len = usize::try_from(get_varint(buf)?).map_err(|_| CodecError::LengthOutOfBounds)?;
    let input: &'a [u8] = buf;
    let Some((bytes, rest)) = input.split_at_checked(len) else {
        return Err(CodecError::LengthOutOfBounds);
    };
    let s = std::str::from_utf8(bytes).map_err(|_| CodecError::InvalidUtf8)?;
    *buf = rest;
    Ok(s)
}

/// Number of bytes `v` occupies as a varint.
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        return 1;
    }
    (64 - v.leading_zeros() as usize).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "length of {v}");
            let mut slice = buf.as_slice();
            assert_eq!(get_varint(&mut slice), Ok(v));
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_eof() {
        let mut slice: &[u8] = &[0x80];
        assert_eq!(get_varint(&mut slice), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn varint_overflow() {
        let mut slice: &[u8] = &[0xff; 11];
        assert_eq!(get_varint(&mut slice), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn varint_rejects_bits_past_the_64th() {
        // u64::MAX is nine 0xff bytes and a final 0x01; any other tenth byte
        // with the same low bit used to decode to the same value.
        let mut max = Vec::new();
        put_varint(&mut max, u64::MAX);
        assert_eq!(max.last(), Some(&0x01));
        for tenth in [0x02u8, 0x03, 0x0f, 0x7f] {
            *max.last_mut().unwrap() = tenth;
            let mut slice = max.as_slice();
            assert_eq!(get_varint(&mut slice), Err(CodecError::VarintOverflow));
        }
    }

    #[test]
    fn str_round_trip() {
        for s in ["", "k", "post-storage-mysql", "ünïcode ✓"] {
            let mut buf = Vec::new();
            put_str(&mut buf, s);
            let mut slice = buf.as_slice();
            assert_eq!(get_str(&mut slice).unwrap(), s);
        }
    }

    #[test]
    fn str_length_out_of_bounds() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 100);
        buf.extend_from_slice(b"short");
        let mut slice = buf.as_slice();
        assert_eq!(get_str(&mut slice), Err(CodecError::LengthOutOfBounds));
    }

    #[test]
    fn str_invalid_utf8() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut slice = buf.as_slice();
        assert_eq!(get_str(&mut slice), Err(CodecError::InvalidUtf8));
    }
}
