//! The geo-replicated queue / publish-subscribe family, as a facade over the
//! shared replication engine.
//!
//! A publish commits at the origin broker, then a delivery event propagates
//! to each region with a lag from the store's [`QueueProfile`]; subscribers
//! in that region receive the message on their channel. Deliveries are the
//! engine's replica applies (keyed `msg-{id}`), so visibility waiters mirror
//! the KV family and — new with the engine — queue brokers participate in
//! the whole recovery plane: crash-restart with WAL replay, hinted handoff
//! for suppressed deliveries, and anti-entropy repair
//! ([`crate::recovery`], [`crate::repair`]).
//!
//! Acks, subscriber channels, and consumer groups are broker *metadata*
//! layered above the replicated delivery record (see
//! [`crate::substrate::QueueSubstrate`]); they model durable state and
//! survive crash windows.

use std::rc::Rc;
use std::time::Duration;

use antipode_sim::dist::Dist;
use antipode_sim::net::Network;
use antipode_sim::sync::{channel, oneshot, Receiver};
use antipode_sim::{Region, Sim, SimTime};
use bytes::Bytes;

use crate::engine::{Engine, ReplicaHealth};
use crate::probe::{VisibilityEvent, VisibilityProbe};
use crate::repair::{RepairConfig, RepairReport, ScrubReport};
use crate::substrate::{hand_to_group, AckWaiter, QueueSubstrate, StoreError};

/// Latency model for one queue / pub-sub store type.
#[derive(Clone, Debug)]
pub struct QueueProfile {
    /// Publish (enqueue) latency at the origin.
    pub local_publish: Dist,
    /// Extra cross-region delivery lag beyond network transit.
    pub delivery: Dist,
    /// Delivery lag to subscribers in the origin region itself.
    pub local_delivery: Dist,
    /// How many one-way network delays a cross-region delivery costs.
    pub rtt_hops: f64,
}

impl Default for QueueProfile {
    fn default() -> Self {
        QueueProfile {
            local_publish: Dist::constant_ms(1.0),
            delivery: Dist::lognormal_ms(100.0, 0.4),
            local_delivery: Dist::constant_ms(2.0),
            rtt_hops: 1.0,
        }
    }
}

/// A message delivered to subscribers.
#[derive(Clone, Debug, PartialEq)]
pub struct QueueMessage {
    /// Store-assigned message id (also the version in write identifiers).
    pub id: u64,
    /// The payload (shims store [`crate::envelope::Envelope`]s here).
    pub payload: Bytes,
    /// Virtual time the publish committed at the origin.
    pub published_at: SimTime,
}

impl QueueMessage {
    /// The key under which this message appears in write identifiers.
    pub fn key(&self) -> String {
        msg_key(self.id).as_ref().to_owned()
    }
}

/// The key of message `id`, `msg-{id}`: the one spelling, shared by write
/// identifiers, replica records and visibility waits. The digits are written
/// into a stack buffer, so the `Rc<str>` is the only allocation.
pub(crate) fn msg_key(id: u64) -> Rc<str> {
    // Filled from the back: room for the 20 digits of `u64::MAX` and "msg-".
    let mut buf = [0u8; 24];
    let mut at = buf.len();
    let mut rest = id;
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    at -= 4;
    buf[at..at + 4].copy_from_slice(b"msg-");
    // ASCII, so this borrows: the `Rc<str>` is the one allocation.
    String::from_utf8_lossy(&buf[at..]).into()
}

/// A simulated geo-replicated queue / pub-sub system.
#[derive(Clone)]
pub struct QueueStore {
    pub(crate) engine: Engine<QueueSubstrate>,
}

impl QueueStore {
    /// Creates a queue named `name` spanning the given regions.
    pub fn new(
        sim: &Sim,
        net: Rc<Network>,
        name: impl Into<String>,
        regions: &[Region],
        profile: QueueProfile,
    ) -> Self {
        QueueStore {
            engine: Engine::new(
                sim,
                net,
                name,
                regions,
                QueueSubstrate::new(profile, regions),
            ),
        }
    }

    /// The store's name (what write identifiers refer to).
    pub fn name(&self) -> &str {
        self.engine.name()
    }

    /// The regions this queue spans.
    pub fn regions(&self) -> &[Region] {
        self.engine.regions()
    }

    /// Replaces the broker's [`crate::recovery::RecoveryConfig`] (WAL and
    /// hinted-handoff knobs). Effective for subsequent operations.
    pub fn set_recovery(&self, cfg: crate::recovery::RecoveryConfig) {
        self.engine.set_recovery(cfg);
    }

    /// Publishes a message from `origin`; returns its id after the publish
    /// commits. Delivery to each region (including the origin) proceeds
    /// asynchronously. A broker outage blocks the publish itself; the
    /// publisher resumes the moment the outage window closes. A broker
    /// replica that crash-restarts *during* the commit surfaces
    /// [`StoreError::CrashedEpoch`] (the publishing process died with it).
    pub async fn publish(&self, origin: Region, payload: Bytes) -> Result<u64, StoreError> {
        self.engine.commit(origin, None, payload).await
    }

    /// Installs an observation hook invoked at every delivery and ack; see
    /// [`crate::probe`]. Pass `None` to remove it.
    pub fn set_probe(&self, probe: Option<VisibilityProbe>) {
        self.engine.set_probe(probe);
    }

    /// Queued-but-undelivered delivery sends (diagnostics).
    pub fn pending_sends(&self) -> usize {
        self.engine.pending_sends()
    }

    /// Subscribes to messages delivered in `region`. Every subscriber
    /// receives every message delivered after it subscribed.
    pub fn subscribe(&self, region: Region) -> Result<Receiver<QueueMessage>, StoreError> {
        let (tx, rx) = channel();
        self.engine
            .substrate()
            .pubsub
            .borrow_mut()
            .get_mut(&region)
            .ok_or(StoreError::NoSuchRegion(region))?
            .subscribers
            .push(tx);
        Ok(rx)
    }

    /// Joins a *consumer group* in `region` (work-queue / competing-consumer
    /// semantics): each message delivered in the region is taken by exactly
    /// one member of each group, in delivery order. The group springs into
    /// existence on first join; messages delivered before any member joined
    /// queue up for it.
    pub fn join_group(
        &self,
        region: Region,
        group: impl Into<String>,
    ) -> Result<GroupConsumer, StoreError> {
        let group = group.into();
        self.engine
            .substrate()
            .pubsub
            .borrow_mut()
            .get_mut(&region)
            .ok_or(StoreError::NoSuchRegion(region))?
            .groups
            .entry(group.clone())
            .or_default();
        Ok(GroupConsumer {
            store: self.clone(),
            region,
            group,
        })
    }

    /// Whether message `id` has been delivered in `region`.
    pub fn is_visible(&self, region: Region, id: u64) -> bool {
        self.engine.is_visible(region, &msg_key(id), id)
    }

    /// Resolves once message `id` is delivered in `region`. Never errors on
    /// faults: a waiter cancelled by a broker crash silently resubscribes
    /// and resolves when the delivery eventually lands.
    pub async fn wait_visible(&self, region: Region, id: u64) -> Result<(), StoreError> {
        self.engine.wait_visible(region, &msg_key(id), id).await
    }

    /// Acknowledges message `id` in `region`: the consumer has finished
    /// processing it (and committed any resulting writes). Work-queue shims
    /// implement `wait` against acks rather than deliveries — a store-
    /// specific visibility semantic (§6.3: `wait` is opaque per store).
    /// Ack state is durable broker metadata: it survives outage and
    /// crash-restart windows.
    pub fn ack(&self, region: Region, id: u64) -> Result<(), StoreError> {
        {
            self.note_ack_access(region, id);
            let mut pubsub = self.engine.substrate().pubsub.borrow_mut();
            let rs = pubsub
                .get_mut(&region)
                .ok_or(StoreError::NoSuchRegion(region))?;
            rs.note_acked(id);
            // Wake in subscription order: wake order is the order the
            // woken tasks reach the ready queue, so it is part of the trace.
            for w in rs.ack_waiters.extract_if(.., |w| w.id == id) {
                let _ = w.tx.send(());
            }
        }
        self.engine.emit(|| VisibilityEvent::QueueAcked {
            store: self.engine.name().to_string(),
            region,
            id,
            at: self.engine.sim().now(),
        });
        Ok(())
    }

    /// Reports an ack-state touch to the schedule-exploration footprint
    /// recorder: ack metadata is shared broker state outside the engine's
    /// replica maps, so it needs its own dependence key.
    fn note_ack_access(&self, region: Region, id: u64) {
        if antipode_sim::schedule::is_recording() {
            antipode_sim::schedule::note_access(antipode_sim::schedule::resource_id(&[
                self.engine.name(),
                region.name(),
                "ack",
                &id.to_string(),
            ]));
        }
    }

    /// Whether message `id` has been acknowledged in `region`.
    pub fn is_acked(&self, region: Region, id: u64) -> bool {
        self.note_ack_access(region, id);
        self.engine
            .substrate()
            .pubsub
            .borrow()
            .get(&region)
            .is_some_and(|s| s.is_acked(id))
    }

    /// Resolves once message `id` is acknowledged in `region`.
    pub async fn wait_acked(&self, region: Region, id: u64) -> Result<(), StoreError> {
        loop {
            let rx = {
                self.note_ack_access(region, id);
                let mut pubsub = self.engine.substrate().pubsub.borrow_mut();
                let rs = pubsub
                    .get_mut(&region)
                    .ok_or(StoreError::NoSuchRegion(region))?;
                if rs.is_acked(id) {
                    return Ok(());
                }
                let (tx, rx) = oneshot();
                rs.ack_waiters.push(AckWaiter { id, tx });
                rx
            };
            if rx.await.is_ok() {
                return Ok(());
            }
        }
    }

    /// Sets the backoff before a dropped delivery attempt is retried.
    pub fn set_redelivery_interval(&self, d: Dist) {
        *self.engine.substrate().redelivery.borrow_mut() = d;
    }

    /// Enables (or disables, with `None`) the consumer-group visibility
    /// timeout: a message taken by a group member but not acknowledged
    /// within `t` is redelivered to the group, so a crashed consumer cannot
    /// strand it. Mirrors SQS-style at-least-once work queues.
    pub fn set_visibility_timeout(&self, t: Option<Duration>) {
        self.engine.substrate().visibility_timeout.set(t);
    }

    /// Logical length of a broker replica's write-ahead log: every record
    /// appended and not lost to damage, checkpointed or still resident
    /// (diagnostics).
    pub fn wal_len(&self, region: Region) -> usize {
        self.engine.wal_len(region)
    }

    /// Records still in a broker replica's write-ahead log: the part of
    /// [`QueueStore::wal_len`] no checkpoint has dropped yet (diagnostics).
    pub fn wal_resident_len(&self, region: Region) -> usize {
        self.engine.wal_resident_len(region)
    }

    /// The first message id not yet delivered at every broker replica. Ids
    /// below it answer `is_visible` everywhere, and their broker records
    /// are reclaimed (diagnostics).
    pub fn stable_frontier(&self) -> u64 {
        self.engine.stable_frontier()
    }

    /// Number of pending visibility waiters at a broker replica
    /// (diagnostics).
    pub fn waiter_count(&self, region: Region) -> usize {
        self.engine.waiter_count(region)
    }

    /// Number of queued hinted-handoff entries (diagnostics).
    pub fn pending_hints(&self) -> usize {
        self.engine.pending_hints()
    }

    /// Whether every broker replica holds an identical delivery record; see
    /// [`crate::repair`].
    pub fn converged(&self) -> bool {
        self.engine.converged()
    }

    /// One anti-entropy round over the broker replicas; see
    /// [`crate::repair`]. Back-filled deliveries notify subscribers and
    /// consumer groups exactly like first-time deliveries.
    pub async fn repair_sweep(&self) -> RepairReport {
        self.engine.repair_sweep().await
    }

    /// Starts the periodic anti-entropy loop; see [`crate::repair`].
    pub fn enable_anti_entropy(&self, cfg: RepairConfig) {
        self.engine.enable_anti_entropy(cfg);
    }

    /// Integrity standing of a broker replica; see
    /// [`crate::engine::ReplicaHealth`] and [`crate::repair`].
    pub fn replica_health(&self, region: Region) -> ReplicaHealth {
        self.engine.replica_health(region)
    }

    /// Whether every broker replica holds byte-identical delivery records;
    /// see [`crate::repair`].
    pub fn converged_bytes(&self) -> bool {
        self.engine.converged_bytes()
    }

    /// One scrub round over the broker replicas' WALs; see
    /// [`crate::repair`].
    pub fn scrub_sweep(&self) -> ScrubReport {
        self.engine.scrub_sweep()
    }

    /// Starts the periodic scrub loop; see [`crate::repair`].
    pub fn enable_scrub(&self, cfg: RepairConfig) {
        self.engine.enable_scrub(cfg);
    }

    /// Hands a message back to a group: a live waiter gets it immediately,
    /// otherwise it queues as pending.
    fn requeue_for_group(&self, region: Region, group: &str, msg: QueueMessage) {
        let mut pubsub = self.engine.substrate().pubsub.borrow_mut();
        let Some(gs) = pubsub
            .get_mut(&region)
            .and_then(|rs| rs.groups.get_mut(group))
        else {
            return;
        };
        hand_to_group(gs, msg);
    }
}

/// A member of a consumer group; see [`QueueStore::join_group`].
#[derive(Clone)]
pub struct GroupConsumer {
    store: QueueStore,
    region: Region,
    group: String,
}

impl GroupConsumer {
    /// Takes the next message destined for this group (exactly-once within
    /// the group, at-least-once when a visibility timeout is set). Waits if
    /// none is pending.
    pub async fn take(&self) -> QueueMessage {
        loop {
            let rx = {
                let mut pubsub = self.store.engine.substrate().pubsub.borrow_mut();
                // The region was validated and the group created at join
                // time; regions and groups are never removed, so re-creating
                // the group entry on a miss is a deterministic no-op.
                let gs = pubsub
                    .entry(self.region)
                    .or_default()
                    .groups
                    .entry(self.group.clone())
                    .or_default();
                if let Some(m) = gs.pending.pop_front() {
                    drop(pubsub);
                    self.arm_redelivery(&m);
                    return m;
                }
                let (tx, rx) = oneshot();
                gs.waiters.push_back(tx);
                rx
            };
            if let Ok(m) = rx.await {
                self.arm_redelivery(&m);
                return m;
            }
        }
    }

    /// Non-blocking take.
    pub fn try_take(&self) -> Option<QueueMessage> {
        let m = {
            let mut pubsub = self.store.engine.substrate().pubsub.borrow_mut();
            pubsub
                .get_mut(&self.region)?
                .groups
                .get_mut(&self.group)?
                .pending
                .pop_front()?
        };
        self.arm_redelivery(&m);
        Some(m)
    }

    /// If a visibility timeout is configured, schedule the message for
    /// redelivery to this group unless it gets acked in time.
    fn arm_redelivery(&self, msg: &QueueMessage) {
        let Some(timeout) = self.store.engine.substrate().visibility_timeout.get() else {
            return;
        };
        let store = self.store.clone();
        let region = self.region;
        let group = self.group.clone();
        let msg = msg.clone();
        let sim = store.engine.sim().clone();
        sim.spawn(async move {
            store.engine.sim().sleep(timeout).await;
            // If the broker is down (outage or crash-restart window) when
            // the timer fires, hold the redelivery decision until it
            // restarts: the restarted broker reads the *current* ack state.
            // Deciding mid-outage would redeliver a message whose ack raced
            // the crash — a duplicate delivery the group already processed.
            {
                let faults = store.engine.faults().clone();
                let q = store.clone();
                faults
                    .until_clear(store.engine.sim(), move |at| {
                        q.engine.faults().queue_down(at, q.engine.name())
                            || q.engine
                                .faults()
                                .replica_crashed(at, q.engine.name(), region)
                    })
                    .await;
            }
            if !store.is_acked(region, msg.id) {
                store.requeue_for_group(region, &group, msg);
            }
        });
    }

    /// Acknowledges a taken message (work-queue wait semantics).
    pub fn ack(&self, msg: &QueueMessage) -> Result<(), StoreError> {
        self.store.ack(self.region, msg.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antipode_sim::net::regions::{EU, US};
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::time::Duration;

    fn setup() -> (Sim, QueueStore) {
        let sim = Sim::new(3);
        let net = Rc::new(Network::global_triangle());
        let q = QueueStore::new(
            &sim,
            net,
            "sns",
            &[EU, US],
            QueueProfile {
                local_publish: Dist::constant_ms(1.0),
                delivery: Dist::constant_ms(80.0),
                local_delivery: Dist::constant_ms(2.0),
                rtt_hops: 1.0,
            },
        );
        (sim, q)
    }

    #[test]
    fn publish_delivers_to_remote_subscriber() {
        let (sim, q) = setup();
        let q2 = q.clone();
        let msg = sim.block_on(async move {
            let mut sub = q2.subscribe(US).unwrap();
            q2.publish(EU, Bytes::from_static(b"notif")).await.unwrap();
            sub.recv().await.unwrap()
        });
        assert_eq!(msg.payload, Bytes::from_static(b"notif"));
        // One-way EU→US ≈ 45ms + 80ms extra.
        assert!(sim.now().since(SimTime::ZERO) >= Duration::from_millis(100));
    }

    #[test]
    fn local_subscriber_gets_message_quickly() {
        let (sim, q) = setup();
        let q2 = q.clone();
        sim.block_on(async move {
            let mut sub = q2.subscribe(EU).unwrap();
            q2.publish(EU, Bytes::from_static(b"x")).await.unwrap();
            sub.recv().await.unwrap();
        });
        assert!(sim.now().since(SimTime::ZERO) < Duration::from_millis(20));
    }

    #[test]
    fn message_ids_are_unique() {
        let (sim, q) = setup();
        let q2 = q.clone();
        let (a, b) = sim.block_on(async move {
            let a = q2.publish(EU, Bytes::new()).await.unwrap();
            let b = q2.publish(EU, Bytes::new()).await.unwrap();
            (a, b)
        });
        assert_ne!(a, b);
    }

    #[test]
    fn wait_visible_subscribes_to_delivery() {
        let (sim, q) = setup();
        let q2 = q.clone();
        sim.block_on(async move {
            let id = q2.publish(EU, Bytes::from_static(b"n")).await.unwrap();
            assert!(!q2.is_visible(US, id));
            q2.wait_visible(US, id).await.unwrap();
            assert!(q2.is_visible(US, id));
        });
    }

    #[test]
    fn multiple_subscribers_all_receive() {
        let (sim, q) = setup();
        let q2 = q.clone();
        let n = sim.block_on(async move {
            let mut s1 = q2.subscribe(US).unwrap();
            let mut s2 = q2.subscribe(US).unwrap();
            q2.publish(EU, Bytes::from_static(b"b")).await.unwrap();
            let a = s1.recv().await.unwrap();
            let b = s2.recv().await.unwrap();
            assert_eq!(a, b);
            2
        });
        assert_eq!(n, 2);
    }

    #[test]
    fn dropped_subscriber_is_pruned() {
        let (sim, q) = setup();
        let q2 = q.clone();
        sim.block_on(async move {
            let sub = q2.subscribe(US).unwrap();
            drop(sub);
            // Publishing must not fail or leak; the dead subscriber is pruned.
            let id = q2.publish(EU, Bytes::new()).await.unwrap();
            q2.wait_visible(US, id).await.unwrap();
        });
    }

    #[test]
    fn unknown_region_errors() {
        let (sim, q) = setup();
        let q2 = q.clone();
        sim.block_on(async move {
            let bogus = Region("nowhere");
            assert!(q2.publish(bogus, Bytes::new()).await.is_err());
            assert!(q2.subscribe(bogus).is_err());
            assert!(q2.wait_visible(bogus, 1).await.is_err());
        });
    }

    #[test]
    fn paused_delivery_stalls_until_resume() {
        let (sim, q) = setup();
        sim.faults().pause_queue_delivery(q.name(), US);
        let q2 = q.clone();
        let got: Rc<RefCell<Option<QueueMessage>>> = Rc::new(RefCell::new(None));
        let slot = got.clone();
        sim.spawn(async move {
            let mut sub = q2.subscribe(US).unwrap();
            q2.publish(EU, Bytes::from_static(b"m")).await.unwrap();
            *slot.borrow_mut() = sub.recv().await;
        });
        sim.run_for(Duration::from_secs(5));
        assert!(got.borrow().is_none());
        sim.faults().resume_queue_delivery(q.name(), US);
        sim.run_for(Duration::from_secs(5));
        assert!(got.borrow().is_some());
    }

    #[test]
    fn group_members_compete_for_messages() {
        let (sim, q) = setup();
        let n = 12usize;
        let taken: Rc<RefCell<Vec<(usize, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        // Three competing workers in one group.
        for worker in 0..3usize {
            let consumer = q.join_group(US, "workers").unwrap();
            let taken = taken.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                loop {
                    let m = consumer.take().await;
                    // Hold the message briefly so work spreads out.
                    sim2.sleep(Duration::from_millis(30)).await;
                    consumer.ack(&m).unwrap();
                    taken.borrow_mut().push((worker, m.id));
                }
            });
        }
        let q2 = q.clone();
        let ids = sim.block_on(async move {
            let mut ids = Vec::new();
            for _ in 0..n {
                ids.push(q2.publish(EU, Bytes::from_static(b"job")).await.unwrap());
            }
            ids
        });
        sim.run();
        let taken = taken.borrow();
        // Exactly once across the whole group…
        let mut got: Vec<u64> = taken.iter().map(|(_, id)| *id).collect();
        got.sort_unstable();
        let mut want = ids;
        want.sort_unstable();
        assert_eq!(got, want);
        // …and the work actually spread over multiple workers.
        let workers: BTreeSet<usize> = taken.iter().map(|(w, _)| *w).collect();
        assert!(workers.len() >= 2, "work went to {workers:?}");
    }

    #[test]
    fn groups_are_independent_but_subscribers_see_all() {
        let (sim, q) = setup();
        let a = q.join_group(US, "a").unwrap();
        let b = q.join_group(US, "b").unwrap();
        let q2 = q.clone();
        sim.block_on(async move {
            let mut sub = q2.subscribe(US).unwrap();
            let id = q2.publish(EU, Bytes::from_static(b"m")).await.unwrap();
            // Each group gets its own copy; the pub/sub subscriber too.
            assert_eq!(a.take().await.id, id);
            assert_eq!(b.take().await.id, id);
            assert_eq!(sub.recv().await.unwrap().id, id);
        });
    }

    #[test]
    fn messages_queue_for_slow_groups() {
        let (sim, q) = setup();
        let consumer = q.join_group(US, "g").unwrap();
        let q2 = q.clone();
        sim.block_on(async move {
            let id1 = q2.publish(EU, Bytes::new()).await.unwrap();
            let id2 = q2.publish(EU, Bytes::new()).await.unwrap();
            // Nobody is waiting: both messages pend in order.
            let m1 = consumer.take().await;
            let m2 = consumer.take().await;
            assert_eq!((m1.id, m2.id), (id1, id2));
            assert!(consumer.try_take().is_none());
        });
    }

    #[test]
    fn acks_fold_into_a_watermark_and_keep_only_out_of_order_ids() {
        let (_sim, q) = setup();
        for id in [2, 3, 5] {
            q.ack(US, id).unwrap();
        }
        let state = |q: &QueueStore| {
            let pubsub = q.engine.substrate().pubsub.borrow();
            (pubsub[&US].acked_below, pubsub[&US].acked.len())
        };
        assert_eq!(state(&q), (1, 3), "id 1 is missing: nothing folds");
        q.ack(US, 1).unwrap();
        assert_eq!(state(&q), (4, 1), "1..=3 folded, 5 waits for 4");
        q.ack(US, 2).unwrap(); // below the watermark: a no-op
        assert_eq!(state(&q), (4, 1));
        for id in [1, 2, 3, 5] {
            assert!(q.is_acked(US, id));
        }
        assert!(!q.is_acked(US, 4) && !q.is_acked(EU, 1));
    }

    #[test]
    fn message_key_format() {
        let m = QueueMessage {
            id: 42,
            payload: Bytes::new(),
            published_at: SimTime::ZERO,
        };
        assert_eq!(m.key(), "msg-42");
        for id in [0, 7, 10, 99, 100, 12_345, u64::MAX - 1, u64::MAX] {
            assert_eq!(&*msg_key(id), format!("msg-{id}"));
        }
    }

    #[test]
    fn broker_crash_wipes_delivery_record_and_wal_restores_it() {
        use antipode_sim::fault::FaultKind;
        let (sim, q) = setup();
        let q2 = q.clone();
        let id = sim.block_on(async move {
            let id = q2.publish(EU, Bytes::from_static(b"m")).await.unwrap();
            q2.wait_visible(US, id).await.unwrap();
            id
        });
        assert!(q.wal_len(US) >= 1, "deliveries are WAL-logged");
        sim.faults().schedule(
            SimTime::from_secs(5),
            SimTime::from_secs(8),
            FaultKind::ReplicaCrash {
                store: "sns".into(),
                region: US,
            },
        );
        // Mid-window: the broker's volatile delivery record is gone, but ack
        // and group metadata (durable) survive.
        sim.run_until(SimTime::from_secs(6));
        assert!(!q.is_visible(US, id), "crash wipes the delivery record");
        // Post-restart: WAL replay restored the record at the heal edge.
        sim.run_until(SimTime::from_secs(9));
        assert!(q.is_visible(US, id), "WAL replay restores deliveries");
        assert!(q.converged());
    }

    #[test]
    fn broker_crash_cancelled_wait_resubscribes_and_resolves() {
        use antipode_sim::fault::FaultKind;
        let (sim, q) = setup();
        // Crash the US broker replica before the delivery can land; the
        // in-flight delivery parks as a hint and flushes at the heal edge.
        sim.faults().schedule(
            SimTime::from_millis(10),
            SimTime::from_secs(8),
            FaultKind::ReplicaCrash {
                store: "sns".into(),
                region: US,
            },
        );
        let q2 = q.clone();
        sim.block_on(async move {
            let id = q2.publish(EU, Bytes::from_static(b"m")).await.unwrap();
            // Queue waits never error on faults: the waiter cancelled at the
            // crash edge resubscribes and resolves after restart.
            q2.wait_visible(US, id).await.unwrap();
            assert!(q2.engine.sim().now() >= SimTime::from_secs(8));
        });
        assert_eq!(q.pending_hints(), 0, "hint flushed at the heal edge");
    }

    #[test]
    fn partitioned_delivery_parks_as_hint_and_flushes_at_heal() {
        use antipode_sim::fault::FaultKind;
        let (sim, q) = setup();
        sim.faults().schedule(
            SimTime::ZERO,
            SimTime::from_secs(20),
            FaultKind::Partition { a: EU, b: US },
        );
        let q2 = q.clone();
        sim.block_on(async move {
            let id = q2.publish(EU, Bytes::from_static(b"m")).await.unwrap();
            // EU's own delivery lands; the EU→US delivery parks as a hint.
            q2.wait_visible(EU, id).await.unwrap();
            assert!(!q2.is_visible(US, id));
            q2.wait_visible(US, id).await.unwrap();
            assert!(q2.engine.sim().now() >= SimTime::from_secs(20));
        });
        assert_eq!(q.pending_hints(), 0);
        assert!(q.converged());
    }
}
