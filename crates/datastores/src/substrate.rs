//! The substrate interface: what distinguishes one store *family* from
//! another, factored out of the shared replication engine.
//!
//! Both store families — the versioned key-object family behind
//! [`crate::replica::KvStore`] and the delivery/ack family behind
//! [`crate::queue::QueueStore`] — used to hand-roll the same mechanics:
//! per-region replica state, replication fan-out with fault-plan
//! consultation, visibility waiters, probes, and (KV only) the recovery
//! plane. The shared mechanics now live once in [`crate::engine::Engine`];
//! everything family-specific is expressed through the small [`Substrate`]
//! trait defined here, implemented by [`KvSubstrate`] and [`QueueSubstrate`].
//!
//! The split is behavioral, not cosmetic: because the queue family is now a
//! `Substrate` over the same engine, queue brokers inherit WAL
//! crash-restart, hinted handoff, and anti-entropy repair
//! ([`crate::recovery`], [`crate::repair`]) that previously existed only on
//! the KV side.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use std::time::Duration;

use antipode_sim::dist::Dist;
use antipode_sim::fault::FaultPlan;
use antipode_sim::net::Network;
use antipode_sim::rng::SimRng;
use antipode_sim::sync::{OneSender, Sender};
use antipode_sim::{Region, SimTime};
use bytes::Bytes;

use crate::probe::{VisibilityEvent, VisibilityProbe};
use crate::queue::{msg_key, QueueMessage, QueueProfile};
use crate::replica::KvProfile;

/// Errors from datastore operations, unified across both store families.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The store has no replica in the named region.
    NoSuchRegion(Region),
    /// The replica exists but is inside a region-outage or crash window: the
    /// store rejects the operation until the region heals. Barrier retry
    /// policies treat this as transient.
    Unavailable {
        /// The store name.
        store: String,
        /// The region that is down.
        region: Region,
    },
    /// The origin replica crash-restarted while the operation was committing:
    /// the committing process died with it, so the write was never assigned a
    /// version. Transient — retry after the crash window.
    CrashedEpoch {
        /// The store name.
        store: String,
        /// The region whose replica crashed mid-commit.
        region: Region,
    },
    /// WAL replay found mid-log corruption (a checksum mismatch), so the
    /// replica is quarantined: its reads refuse to serve until anti-entropy
    /// back-fills it from healthy peers and it rejoins with a bumped epoch.
    /// Barriers observe this as a degraded replica, exactly like an outage.
    IntegrityFault {
        /// The store name.
        store: String,
        /// The quarantined region.
        region: Region,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NoSuchRegion(r) => write!(f, "no replica in region {r}"),
            StoreError::Unavailable { store, region } => {
                write!(f, "store {store} unavailable in region {region} (outage)")
            }
            StoreError::CrashedEpoch { store, region } => {
                write!(
                    f,
                    "store {store} crash-restarted in region {region} mid-commit"
                )
            }
            StoreError::IntegrityFault { store, region } => {
                write!(
                    f,
                    "store {store} quarantined in region {region} (WAL integrity fault)"
                )
            }
        }
    }
}
impl std::error::Error for StoreError {}

/// How a family treats operations and waits against a faulted replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Fail fast with [`StoreError::Unavailable`] (KV family: a client talking
    /// to a dark region sees errors immediately).
    Reject,
    /// Park until the fault clears (queue family: publishes block on a broker
    /// outage and resume the moment it heals; waits never error on faults).
    Block,
}

/// How a replication/delivery send samples its lag across drop-retries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryStyle {
    /// Each retry re-samples the whole propagation lag (KV replication: the
    /// dropped message is re-sent end to end).
    ResampleLag,
    /// The propagation lag is paid once, then drop-retries only pay the
    /// backoff (queue delivery: the message sits broker-side and redelivery
    /// is local).
    LagOnce,
}

/// Everything the engine tells a substrate about one replica apply.
pub struct ApplyCtx<'a> {
    /// The store name.
    pub store: &'a str,
    /// The replica that applied.
    pub region: Region,
    /// The applied key.
    pub key: &'a str,
    /// The applied version (for the queue family, the message id).
    pub version: u64,
    /// The applied bytes.
    pub bytes: &'a Bytes,
    /// Virtual time the write committed at its origin.
    pub committed_at: SimTime,
    /// Whether the apply changed the replica (false when a newer version was
    /// already present — a superseded arrival).
    pub newly_inserted: bool,
    /// The replica's version watermark for this key after the apply.
    pub watermark: u64,
    /// Virtual time of the apply.
    pub at: SimTime,
    /// The store's observation probe, if installed.
    pub probe: Option<&'a VisibilityProbe>,
}

/// Family-specific behavior plugged into the shared [`crate::engine::Engine`].
///
/// A substrate answers the questions the engine cannot answer generically:
/// which RNG stream to draw from, whether faulted operations reject or block,
/// how commit/propagation latencies are sampled from the family's profile,
/// which fault-plan predicates gate a send, and what happens locally when a
/// record lands at a replica (KV: probe emission; queue: subscriber and
/// consumer-group fan-out).
pub trait Substrate: 'static {
    /// Prefix of the store's named RNG stream (`"kv"` or `"queue"`), kept
    /// stable so seeds reproduce the pre-refactor streams.
    fn rng_stream(&self) -> &'static str;

    /// Whether faulted operations reject or block.
    fn admission(&self) -> Admission;

    /// How a send samples lag across drop-retries.
    fn retry_style(&self) -> RetryStyle;

    /// Whether the committing origin applies locally at commit time (KV) or
    /// receives its copy through the same asynchronous fan-out as every other
    /// region (queue: even origin-region delivery pays `local_delivery`).
    fn origin_applies_at_commit(&self) -> bool;

    /// The key recorded for a commit that supplied none (queue publishes are
    /// keyed by message id).
    fn derived_key(&self, version: u64) -> Rc<str> {
        msg_key(version)
    }

    /// Whether a record is garbage once every replica has applied it. True
    /// for a family whose keys are its versions ([`Substrate::derived_key`])
    /// and whose consumers take their own copy at delivery: the engine then
    /// drops records below the stable frontier and answers for them from a
    /// watermark. False where records are state to be read back (KV).
    fn reclaims_delivered(&self) -> bool {
        false
    }

    /// Whether an operation against `region` is gated by the fault plan.
    fn op_blocked(&self, faults: &FaultPlan, at: SimTime, store: &str, region: Region) -> bool;

    /// Samples the origin-side commit latency.
    fn commit_latency(&self, rng: &mut SimRng) -> Duration;

    /// The probability a send attempt is dropped at `at`.
    fn drop_probability(&self, faults: &FaultPlan, at: SimTime, store: &str) -> f64;

    /// Samples the backoff before retrying a dropped send.
    fn retry_backoff(&self, rng: &mut SimRng) -> Duration;

    /// Samples the propagation lag of one send from `origin` to `dest`.
    #[allow(clippy::too_many_arguments)]
    fn propagation_lag(
        &self,
        rng: &mut SimRng,
        net: &Network,
        faults: &FaultPlan,
        at: SimTime,
        store: &str,
        origin: Region,
        dest: Region,
    ) -> Duration;

    /// Whether a send arriving at `at` is suppressed by the fault plan (the
    /// engine additionally suppresses sends to crashed replicas). Suppressed
    /// sends park as hinted-handoff entries when handoff is enabled.
    fn send_suppressed(
        &self,
        faults: &FaultPlan,
        at: SimTime,
        store: &str,
        origin: Region,
        dest: Region,
    ) -> bool;

    /// Family-specific reaction to a replica apply (probe emission, pub/sub
    /// fan-out, consumer-group handoff). Not invoked for WAL replay — replay
    /// restores state without re-notifying observers.
    fn on_apply(&self, ctx: &ApplyCtx<'_>);
}

/// The versioned key-object family: fail-fast admission, per-retry lag
/// resampling, origin applies at commit.
pub struct KvSubstrate {
    pub(crate) profile: KvProfile,
}

impl KvSubstrate {
    /// Wraps a KV latency profile.
    pub fn new(profile: KvProfile) -> Self {
        KvSubstrate { profile }
    }
}

impl Substrate for KvSubstrate {
    fn rng_stream(&self) -> &'static str {
        "kv"
    }

    fn admission(&self) -> Admission {
        Admission::Reject
    }

    fn retry_style(&self) -> RetryStyle {
        RetryStyle::ResampleLag
    }

    fn origin_applies_at_commit(&self) -> bool {
        true
    }

    fn op_blocked(&self, faults: &FaultPlan, at: SimTime, store: &str, region: Region) -> bool {
        faults.region_down(at, region) || faults.replica_crashed(at, store, region)
    }

    fn commit_latency(&self, rng: &mut SimRng) -> Duration {
        self.profile.local_write.sample_duration(rng)
    }

    fn drop_probability(&self, faults: &FaultPlan, at: SimTime, store: &str) -> f64 {
        faults.replication_drop(at, store)
    }

    fn retry_backoff(&self, rng: &mut SimRng) -> Duration {
        self.profile.retry_interval.sample_duration(rng)
    }

    fn propagation_lag(
        &self,
        rng: &mut SimRng,
        net: &Network,
        faults: &FaultPlan,
        at: SimTime,
        store: &str,
        origin: Region,
        dest: Region,
    ) -> Duration {
        let extra = self.profile.replication.sample_duration(rng);
        let transit = net
            .delay_faulted(rng, origin, dest, faults, at)
            .mul_f64(self.profile.rtt_hops);
        let congestion = faults
            .replication_extra_lag(store)
            .map(|d| d.sample_duration(rng))
            .unwrap_or_default();
        extra + transit + congestion
    }

    fn send_suppressed(
        &self,
        faults: &FaultPlan,
        at: SimTime,
        store: &str,
        origin: Region,
        dest: Region,
    ) -> bool {
        faults.replication_stalled(at, store, dest) || faults.link_blocked(at, origin, dest)
    }

    fn on_apply(&self, ctx: &ApplyCtx<'_>) {
        // Emitted on every apply, including superseded arrivals: the race
        // detector keys on watermark movement, not insertions.
        if let Some(p) = ctx.probe {
            p(&VisibilityEvent::KvApplied {
                store: ctx.store.to_string(),
                region: ctx.region,
                key: ctx.key.to_string(),
                watermark: ctx.watermark,
                at: ctx.at,
            });
        }
    }
}

pub(crate) struct AckWaiter {
    pub(crate) id: u64,
    pub(crate) tx: OneSender<()>,
}

#[derive(Default)]
pub(crate) struct GroupState {
    pub(crate) pending: VecDeque<QueueMessage>,
    pub(crate) waiters: VecDeque<OneSender<QueueMessage>>,
}

/// Per-region pub/sub state of the queue family: everything layered *above*
/// the engine's replicated record of which messages have been delivered.
/// Acks and group membership model durable broker metadata, so they survive
/// crash-restart windows (the engine only wipes replica memtables).
pub(crate) struct QueuePubSub {
    /// Every id below this is acked (ids start at 1).
    pub(crate) acked_below: u64,
    /// Acked ids at or above `acked_below`: the out-of-order ones only.
    pub(crate) acked: BTreeSet<u64>,
    pub(crate) subscribers: Vec<Sender<QueueMessage>>,
    pub(crate) ack_waiters: Vec<AckWaiter>,
    // Iterated on every delivery (each group gets one copy of the message),
    // so the order must be deterministic: a hash map here leaks iteration
    // order into consumer wake-up order.
    pub(crate) groups: BTreeMap<String, GroupState>,
}

impl Default for QueuePubSub {
    fn default() -> Self {
        QueuePubSub {
            acked_below: 1,
            acked: BTreeSet::new(),
            subscribers: Vec::new(),
            ack_waiters: Vec::new(),
            groups: BTreeMap::new(),
        }
    }
}

impl QueuePubSub {
    pub(crate) fn is_acked(&self, id: u64) -> bool {
        id < self.acked_below || self.acked.contains(&id)
    }

    /// Records the ack and folds the contiguous run it completes into the
    /// watermark, so the set holds only acks that arrived out of order.
    pub(crate) fn note_acked(&mut self, id: u64) {
        if id >= self.acked_below {
            self.acked.insert(id);
            while self.acked.remove(&self.acked_below) {
                self.acked_below += 1;
            }
        }
    }
}

/// The delivery/ack family: blocking admission, lag paid once per send,
/// origin-region delivery goes through the same fan-out as remote regions.
pub struct QueueSubstrate {
    pub(crate) profile: QueueProfile,
    /// Backoff before a dropped delivery attempt is retried.
    pub(crate) redelivery: RefCell<Dist>,
    /// When set, a message taken by a group consumer that is not acked
    /// within this interval is redelivered to the group.
    pub(crate) visibility_timeout: Cell<Option<Duration>>,
    /// Per-region subscriber/ack/group state, keyed like the engine replicas.
    pub(crate) pubsub: RefCell<BTreeMap<Region, QueuePubSub>>,
}

impl QueueSubstrate {
    /// Wraps a queue latency profile spanning `regions`.
    pub fn new(profile: QueueProfile, regions: &[Region]) -> Self {
        QueueSubstrate {
            profile,
            redelivery: RefCell::new(Dist::constant_ms(200.0)),
            visibility_timeout: Cell::new(None),
            pubsub: RefCell::new(
                regions
                    .iter()
                    .map(|r| (*r, QueuePubSub::default()))
                    .collect(),
            ),
        }
    }
}

impl Substrate for QueueSubstrate {
    fn rng_stream(&self) -> &'static str {
        "queue"
    }

    fn admission(&self) -> Admission {
        Admission::Block
    }

    fn retry_style(&self) -> RetryStyle {
        RetryStyle::LagOnce
    }

    fn origin_applies_at_commit(&self) -> bool {
        false
    }

    fn reclaims_delivered(&self) -> bool {
        // Subscribers, consumer groups and redelivery timers each hold their
        // own `QueueMessage` clone; the broker record only answers "was it
        // delivered here", which the watermark answers as well.
        true
    }

    fn op_blocked(&self, faults: &FaultPlan, at: SimTime, store: &str, region: Region) -> bool {
        // A broker outage gates the whole store; a crashed broker replica
        // gates its own region. Region outages do not gate publishes — the
        // broker endpoint is modeled as reachable even when app replicas in
        // the region are dark (matching the pre-engine queue semantics).
        faults.queue_down(at, store) || faults.replica_crashed(at, store, region)
    }

    fn commit_latency(&self, rng: &mut SimRng) -> Duration {
        self.profile.local_publish.sample_duration(rng)
    }

    fn drop_probability(&self, faults: &FaultPlan, at: SimTime, store: &str) -> f64 {
        faults.delivery_drop(at, store)
    }

    fn retry_backoff(&self, rng: &mut SimRng) -> Duration {
        self.redelivery.borrow().sample_duration(rng)
    }

    fn propagation_lag(
        &self,
        rng: &mut SimRng,
        net: &Network,
        _faults: &FaultPlan,
        _at: SimTime,
        _store: &str,
        origin: Region,
        dest: Region,
    ) -> Duration {
        if dest == origin {
            self.profile.local_delivery.sample_duration(rng)
        } else {
            let extra = self.profile.delivery.sample_duration(rng);
            let transit = net.delay(rng, origin, dest).mul_f64(self.profile.rtt_hops);
            extra + transit
        }
    }

    fn send_suppressed(
        &self,
        faults: &FaultPlan,
        at: SimTime,
        store: &str,
        origin: Region,
        dest: Region,
    ) -> bool {
        faults.delivery_paused(at, store, dest)
            || faults.queue_down(at, store)
            || (dest != origin && faults.link_blocked(at, origin, dest))
    }

    fn on_apply(&self, ctx: &ApplyCtx<'_>) {
        // Superseded arrivals cannot occur for queue keys (message ids are
        // unique), but hint-flush plus anti-entropy can race to deliver the
        // same record: only the first arrival notifies observers.
        if !ctx.newly_inserted {
            return;
        }
        let msg = QueueMessage {
            id: ctx.version,
            payload: ctx.bytes.clone(),
            published_at: ctx.committed_at,
        };
        {
            let mut pubsub = self.pubsub.borrow_mut();
            let Some(rs) = pubsub.get_mut(&ctx.region) else {
                return;
            };
            rs.subscribers.retain(|sub| sub.send(msg.clone()).is_ok());
            // Each consumer group receives the message exactly once: hand it
            // to a waiting consumer if any, else queue it for the next take.
            for group in rs.groups.values_mut() {
                hand_to_group(group, msg.clone());
            }
        }
        if let Some(p) = ctx.probe {
            p(&VisibilityEvent::QueueDelivered {
                store: ctx.store.to_string(),
                region: ctx.region,
                id: ctx.version,
                at: ctx.at,
            });
        }
    }
}

/// Hands `msg` to the first live waiter of a group, or queues it as pending.
pub(crate) fn hand_to_group(group: &mut GroupState, msg: QueueMessage) {
    let mut undelivered = Some(msg);
    while let Some(m) = undelivered.take() {
        // lint: allow(scheduler-bypass, FIFO hand-off to consumer-group waiters is
        // queue-delivery semantics — the receiving task still runs only when the
        // executor's Schedule picks it)
        match group.waiters.pop_front() {
            Some(tx) => {
                if let Err(back) = tx.send(m) {
                    undelivered = Some(back); // dead waiter, try next
                }
            }
            None => {
                group.pending.push_back(m);
            }
        }
    }
}

/// Needed by [`crate::engine::Engine::new`] to build the RNG stream name;
/// kept here so the engine stays family-agnostic while the `"kv:{name}"` /
/// `"queue:{name}"` stream names reproduce the pre-engine seeds.
pub(crate) fn stream_name<S: Substrate>(substrate: &S, store: &str) -> String {
    format!("{}:{}", substrate.rng_stream(), store)
}
