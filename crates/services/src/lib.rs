//! # antipode-runtime
//!
//! A simulated microservice runtime on top of `antipode-sim`:
//!
//! - [`Runtime`]: network hops between regions;
//! - [`Service`]: bounded worker pools with service-time models (what makes
//!   throughput/latency saturation curves appear in Figs 8–9);
//! - [`RequestCtx`]: baggage + lineage context propagation per request;
//! - [`rpc`]: typed endpoints with automatic lineage propagation on request
//!   *and* response (§6.2), plus per-attempt timeouts, exponential-backoff
//!   retries with deterministic jitter, and circuit breakers for riding out
//!   chaos-plane faults;
//! - [`workload`]: the open-loop Poisson driver with latency/throughput
//!   metrics;
//! - [`speculation`]: the service half of the speculation plane — a
//!   [`Speculator`] that composes `barrier_budget` and `rearm` to run
//!   handlers past heavy-tail barriers with side effects confined, commits
//!   on confirmation, and rolls back + redelivers on violation, governed by
//!   a per-endpoint cap and [`SpeculationPolicy::enabled`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod request;
pub mod rpc;
pub mod runtime;
pub mod service;
pub mod speculation;
pub mod workload;

pub use request::RequestCtx;
pub use rpc::{
    call_and_absorb, BreakerConfig, BreakerState, CircuitBreaker, Endpoint, RetryPolicy, RpcError,
};
pub use runtime::Runtime;
pub use service::{Service, ServiceSpec};
pub use speculation::{SpecError, SpecOutcome, SpecStats, SpeculationPolicy, Speculator};
pub use workload::{run_open_loop, LoadMetrics, OpenLoop};
