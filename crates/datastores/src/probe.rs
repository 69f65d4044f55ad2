//! Visibility probes: observation hooks for dynamic analysis.
//!
//! The happens-before race detector (`antipode::race`) needs to know *when*
//! a write became visible in each region, independently of the checker it
//! cross-validates. Both store frameworks ([`crate::replica::KvStore`] and
//! [`crate::queue::QueueStore`]) accept an optional probe and invoke it at
//! every visibility-changing event: a replication apply, a queue delivery,
//! a consumer acknowledgement. Probes are observation-only — they run
//! synchronously at the event's virtual instant and must not re-enter the
//! store. The event type lives in `antipode::race`, whose detector consumes it
//! unchanged.

use std::rc::Rc;

pub use antipode::race::VisibilityEvent;

/// An observation hook; see the module docs.
pub type VisibilityProbe = Rc<dyn Fn(&VisibilityEvent)>;
