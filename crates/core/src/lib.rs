//! # antipode
//!
//! A from-scratch Rust implementation of **Antipode** (SOSP 2023): a bolt-on,
//! application-level library that enforces *cross-service causal consistency*
//! (XCY) in distributed applications composed of many services and many
//! mutually-oblivious datastores.
//!
//! The library follows the paper's three-part API (Table 2):
//!
//! - **Lineage API** ([`LineageCtx`], [`LineageIdGen`], plus
//!   [`antipode_lineage::Lineage`]): `root`, `stop`, `append`, `remove`,
//!   `transfer`, `serialize`, `deserialize`. Lineages are sets of
//!   ⟨datastore, key, version⟩ write identifiers that travel alongside
//!   end-to-end requests (piggybacked on baggage) and within datastores
//!   (stored next to values by the shims).
//! - **Shim API**: datastore-specific shims wrap `write`/`read` to propagate
//!   lineages and implement [`WaitTarget`], the store-specific `wait`.
//!   Concrete shims for eight stores live in the `antipode-store` crate.
//! - **Core API** ([`Antipode::barrier`]): enforces a lineage's
//!   dependencies at a developer-chosen point, decoupled from reads and
//!   writes, with a budgeted variant and a dry-run consistency checker.
//!
//! ```
//! use antipode::{Antipode, LineageCtx, LineageIdGen};
//! use antipode_lineage::WriteId;
//! use antipode_sim::Sim;
//!
//! let sim = Sim::new(1);
//! let gen = LineageIdGen::new(0);
//! let mut ctx = LineageCtx::new();
//! ctx.root(&gen);                               // start a lineage
//! ctx.append(WriteId::new("posts", "p1", 3));   // a datastore write
//! let ap = Antipode::new(sim.clone());
//! // ... register shims, pass the lineage along RPCs, and call
//! // ap.barrier(&lineage, region).await where visibility must hold.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod checker;
pub mod ctx;
pub mod idgen;
pub mod race;
pub mod registry;
pub mod wait;

pub use barrier::{
    Antipode, BarrierError, BarrierOutcome, BarrierReport, BarrierRetry, DegradedBarrier,
    DryRunReport, StoreWait,
};
pub use checker::{Checkpoint, ConsistencyChecker, LocationStats};
pub use ctx::LineageCtx;
pub use idgen::LineageIdGen;
pub use race::{RaceDetector, RaceFinding, RaceStats, TraceEvent, VisibilityEvent};
pub use registry::{ShimRegistry, UnknownStorePolicy};
pub use wait::{LocalBoxFuture, WaitError, WaitTarget};

// Re-export the foundation types so applications need only this crate.
pub use antipode_lineage::{Baggage, Lineage, LineageId, WriteId};
