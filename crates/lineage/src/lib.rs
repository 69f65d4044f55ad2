//! # antipode-lineage
//!
//! Lineages, write identifiers, the wire codec, baggage propagation, and the
//! formal cross-service causal consistency (XCY) model from *Antipode:
//! Enforcing Cross-Service Causal Consistency in Distributed Applications*
//! (SOSP 2023).
//!
//! - [`WriteId`]: ⟨datastore, key, version⟩ write identifiers (§6.1),
//!   interned ([`StoreId`]) and shared so clones are pointer bumps;
//! - [`Lineage`]: dependency sets with `append`/`remove`/`transfer` (§5.1),
//!   copy-on-write sharing, a cached compact wire format whose size the
//!   paper's §7.4 metadata experiments measure;
//! - [`interner`]: the deterministic datastore-name interner;
//! - [`crc32c`]: hand-rolled Castagnoli checksum (like the hand-rolled
//!   [`base64`]) sealing WAL records;
//! - [`stats`]: lineage-plane counters (allocation proxy for perf baselines);
//! - [`Baggage`]: OpenTelemetry-style request-context propagation (§6.2);
//! - [`model`]: the formal ↝ relation and an execution checker that
//!   distinguishes Lamport causality from XCY (§4, Fig 3);
//! - [`vector_clock`]: the classical alternative, kept for the §3.2 ablation.
//!
//! ```
//! use antipode_lineage::{Baggage, Lineage, LineageId, WriteId};
//!
//! // A request's lineage accumulates its datastore writes…
//! let mut lineage = Lineage::new(LineageId(1));
//! lineage.append(WriteId::new("post-storage", "post-7", 3));
//! lineage.append(WriteId::new("notifier", "msg-9", 9));
//!
//! // …travels as compact bytes (what §7.4 measures)…
//! let bytes = lineage.serialize();
//! assert!(bytes.len() < 200);
//! assert_eq!(Lineage::deserialize(&bytes).unwrap(), lineage);
//!
//! // …and rides request baggage across RPC hops.
//! let mut baggage = Baggage::new();
//! baggage.set_lineage(&lineage);
//! let remote = Baggage::from_header(&baggage.to_header());
//! assert_eq!(remote.lineage().unwrap(), lineage);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baggage;
pub mod base64;
pub mod crc32c;
pub mod interner;
pub mod lineage;
pub mod model;
pub mod stats;
pub mod varint;
pub mod vector_clock;
pub mod write_id;

pub use baggage::{Baggage, BaggageError, LINEAGE_KEY};
pub use interner::StoreId;
pub use lineage::{Lineage, LineageId};
pub use model::{Causality, Execution, Op, ProcId, Violation};
pub use stats::LineageStats;
pub use varint::CodecError;
pub use vector_clock::{ClockOrder, VectorClock};
pub use write_id::WriteId;
