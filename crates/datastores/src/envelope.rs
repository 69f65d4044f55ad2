//! The value envelope used for datastore lineage propagation (paper §6.2).
//!
//! Shim `write` serializes the lineage and stores it alongside the data value
//! in the underlying datastore; shim `read` recovers both. The envelope is a
//! tiny length-prefixed framing: `[varint data_len][data][varint lin_len][lineage]`.
//! Its size overhead is exactly what Table 3 measures.

use std::cell::RefCell;

use antipode_lineage::varint::{get_varint, put_varint, varint_len, CodecError};
use antipode_lineage::Lineage;
use bytes::{Buf, Bytes};

/// A scratch buffer that grew past this is dropped after its encode, so one
/// giant value cannot pin its allocation for the life of the thread.
const MAX_KEPT_SCRATCH: usize = 1 << 20;

thread_local! {
    /// Where [`Envelope::encode_parts`] assembles a frame before freezing it.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// A data value paired with the (optional) lineage it was written under.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// The application value.
    pub data: Bytes,
    /// The serialized lineage stored alongside it, if any.
    pub lineage: Option<Lineage>,
}

impl Envelope {
    /// Wraps a bare value (no lineage — what non-Antipode writers store).
    pub fn bare(data: Bytes) -> Self {
        Envelope {
            data,
            lineage: None,
        }
    }

    /// Wraps a value with the lineage it depends on.
    pub fn with_lineage(data: Bytes, lineage: Lineage) -> Self {
        Envelope {
            data,
            lineage: Some(lineage),
        }
    }

    /// Encodes the envelope to the stored byte representation; see
    /// [`Envelope::encode_parts`].
    pub fn encode(&self) -> Bytes {
        Envelope::encode_parts(&self.data, self.lineage.as_ref())
    }

    /// Encodes a value and the lineage it was written under without building
    /// an `Envelope` first — so a shim holds no clone of the lineage across
    /// its write, and the append that follows mutates a sole-holder vector
    /// in place instead of copying it. The lineage part comes from the
    /// lineage's cached wire encoding, so re-encoding an unchanged lineage
    /// across writes costs a memcpy, not a serialization — and the frame is
    /// assembled in a kept thread-local scratch buffer, so an encode's only
    /// allocation is the frozen `Bytes` itself.
    pub fn encode_parts(data: &[u8], lineage: Option<&Lineage>) -> Bytes {
        let lin = lineage.map(Lineage::wire_bytes);
        // No lineage is stored as a zero-length one.
        let lin: &[u8] = lin.as_deref().unwrap_or_default();
        SCRATCH.with(|scratch| {
            let mut buf = scratch.borrow_mut();
            buf.clear();
            put_varint(&mut *buf, data.len() as u64);
            buf.extend_from_slice(data);
            put_varint(&mut *buf, lin.len() as u64);
            buf.extend_from_slice(lin);
            let frozen = Bytes::copy_from_slice(&buf);
            if buf.capacity() > MAX_KEPT_SCRATCH {
                *buf = Vec::new();
            }
            frozen
        })
    }

    /// Decodes a stored byte representation.
    pub fn decode(bytes: &Bytes) -> Result<Envelope, CodecError> {
        let mut buf = bytes.clone();
        let data_len = get_varint(&mut buf)? as usize;
        if buf.remaining() < data_len {
            return Err(CodecError::LengthOutOfBounds);
        }
        let data = buf.copy_to_bytes(data_len);
        let lin_len = get_varint(&mut buf)? as usize;
        if buf.remaining() < lin_len {
            return Err(CodecError::LengthOutOfBounds);
        }
        let lineage = if lin_len == 0 {
            None
        } else {
            let lin_bytes = buf.copy_to_bytes(lin_len);
            Some(Lineage::deserialize(&lin_bytes)?)
        };
        Ok(Envelope { data, lineage })
    }

    /// Bytes the envelope adds on top of the raw value — the per-object
    /// overhead Table 3 reports (before store-specific amplification).
    pub fn overhead(&self) -> usize {
        Envelope::overhead_of(self.data.len(), self.lineage.as_ref())
    }

    /// [`Envelope::overhead`] of a `data_len`-byte value written under
    /// `lineage`: the two length prefixes and the lineage's wire form.
    pub(crate) fn overhead_of(data_len: usize, lineage: Option<&Lineage>) -> usize {
        let lin_len = lineage.map_or(0, Lineage::wire_size);
        varint_len(data_len as u64) + varint_len(lin_len as u64) + lin_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antipode_lineage::{LineageId, WriteId};

    #[test]
    fn bare_round_trip() {
        let e = Envelope::bare(Bytes::from_static(b"hello"));
        let back = Envelope::decode(&e.encode()).unwrap();
        assert_eq!(back, e);
        assert!(back.lineage.is_none());
    }

    #[test]
    fn lineage_round_trip() {
        let mut l = Lineage::new(LineageId(9));
        l.append(WriteId::new("mysql", "post-1", 4));
        let e = Envelope::with_lineage(Bytes::from_static(b"payload"), l.clone());
        let back = Envelope::decode(&e.encode()).unwrap();
        assert_eq!(back.data, Bytes::from_static(b"payload"));
        assert_eq!(back.lineage, Some(l));
    }

    #[test]
    fn empty_value_round_trip() {
        let e = Envelope::bare(Bytes::new());
        assert_eq!(Envelope::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn overhead_is_small_for_typical_lineages() {
        let mut l = Lineage::new(LineageId(0xfeed));
        l.append(WriteId::new("post-storage-dynamodb", "post-123456", 17));
        let e = Envelope::with_lineage(Bytes::from(vec![0u8; 400_000]), l);
        // Table 3: DynamoDB overhead is +42 B on a 400 KB object (0.01%).
        let oh = e.overhead();
        assert!(oh < 80, "overhead {oh} B");
    }

    #[test]
    fn decode_rejects_truncated() {
        let mut l = Lineage::new(LineageId(1));
        l.append(WriteId::new("s", "k", 1));
        let e = Envelope::with_lineage(Bytes::from_static(b"data"), l);
        let enc = e.encode();
        let cut = enc.slice(0..enc.len() - 2);
        assert!(Envelope::decode(&cut).is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Envelope::decode(&Bytes::from_static(&[0xff, 0xff, 0xff])).is_err());
    }
}
