//! # antipode-sim
//!
//! A deterministic, virtual-time discrete-event simulation substrate.
//!
//! The Antipode paper evaluates against multi-region public-cloud
//! deployments; this crate replaces that testbed with a single-threaded
//! async executor whose clock is *virtual*: awaiting [`Sim::sleep`] costs no
//! wall time — the run loop jumps the clock to the next pending timer when no
//! task is runnable. Combined with named, seeded RNG streams ([`Sim::rng`]),
//! an entire experiment is reproducible bit-for-bit from its seed.
//!
//! Components:
//! - [`executor`]: the [`Sim`] executor, tasks, sleeping, timeouts;
//! - [`sync`]: oneshot/mpsc channels, a fair [`sync::Semaphore`], [`sync::Notify`];
//! - [`schedule`]: pluggable [`Schedule`] strategies turning "which task
//!   runs next?" into explicit choice points (the hook `antipode-mc`'s
//!   systematic explorer drives);
//! - [`net`]: [`net::Region`]s and inter-region latency models;
//! - [`fault`]: the [`FaultPlan`] chaos schedule (outages, partitions,
//!   drop/stall episodes) consulted by every layer;
//! - [`dist`]: latency distributions (log-normal, mixtures, …);
//! - [`metrics`]: sample sets, rate counters;
//! - [`rng`]: deterministic ChaCha streams;
//! - [`time`]: the [`SimTime`] virtual clock.
//!
//! ```
//! use antipode_sim::{Sim, SimTime};
//! use std::time::Duration;
//!
//! let sim = Sim::new(42);
//! let s = sim.clone();
//! let end = sim.block_on(async move {
//!     s.sleep(Duration::from_secs(900)).await; // 15 virtual minutes, instant
//!     s.now()
//! });
//! assert_eq!(end, SimTime::from_secs(900));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod executor;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod rng;
pub mod schedule;
pub mod sync;
pub mod time;

pub use dist::Dist;
pub use executor::{live_sims, timeout, Elapsed, JoinHandle, Sim, Sleep, StuckTask};
pub use fault::{DiskFaultKind, FaultKind, FaultPlan, FaultWindow};
pub use metrics::{RateCounter, Samples, Summary};
pub use net::{Network, Region};
pub use rng::SimRng;
pub use schedule::{
    footprints_conflict, FifoSchedule, RandomSchedule, ReplaySchedule, Schedule, StepRecord,
    TaskRef,
};
pub use time::SimTime;
