//! The speculation plane (datastore half): the confinement buffer.
//!
//! A service executing past unmet dependencies must not let its effects
//! become externally visible — a reader elsewhere could otherwise
//! observe state that causally depends on writes that are not visible yet,
//! which is exactly the XCY violation the barrier exists to prevent. The
//! [`ConfinementBuffer`] is a shim-level redo log: [`KvShim`] writes and
//! [`QueueShim`] publishes issued under speculation are *parked* here
//! instead of hitting the stores. On confirmation, [`ConfinementBuffer::commit`]
//! replays the log in order through the real shims — each replayed operation
//! goes through the engine's usual WAL append at the origin replica plus the
//! replication fan-out, so a committed speculative write is
//! indistinguishable from a non-speculative one. On violation,
//! [`ConfinementBuffer::discard`] drops the log: nothing was ever admitted
//! to a store, so there is nothing to undo and nothing a reader could have
//! leaked.

use antipode_lineage::{Lineage, WriteId};
use antipode_sim::Region;
use bytes::Bytes;

use crate::shim::{KvShim, QueueShim, ShimError};

/// One parked operation in a [`ConfinementBuffer`].
#[derive(Clone)]
enum ConfinedOp {
    /// A parked [`KvShim::write`].
    KvWrite {
        /// The shim the write will replay through on commit.
        shim: KvShim,
        /// Origin region of the write.
        region: Region,
        /// Key to write.
        key: String,
        /// Value to write.
        value: Bytes,
    },
    /// A parked [`QueueShim::publish`].
    QueuePublish {
        /// The shim the publish will replay through on commit.
        shim: QueueShim,
        /// Origin region of the publish.
        region: Region,
        /// Message payload.
        payload: Bytes,
    },
}

/// Lifecycle of a [`ConfinementBuffer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BufferState {
    /// Accepting parked operations; nothing externally visible yet.
    #[default]
    Open,
    /// The speculation confirmed and every parked operation replayed.
    Committed,
    /// The speculation violated and every parked operation was dropped.
    Discarded,
}

/// A redo log of side effects issued under an open speculation.
///
/// The buffer is deliberately *not* transparent: services opt in by routing
/// writes through [`ConfinementBuffer::confine_write`] /
/// [`ConfinementBuffer::confine_publish`] while speculating (the
/// `antipode-lint` X2 rule flags shim writes reachable from an open
/// speculation that bypass it). Terminal transitions are idempotent:
/// committing or discarding an already-resolved buffer is a no-op.
#[derive(Default)]
pub struct ConfinementBuffer {
    ops: Vec<ConfinedOp>,
    state: BufferState,
    high_water: usize,
}

impl ConfinementBuffer {
    /// An empty, open buffer.
    pub fn new() -> Self {
        ConfinementBuffer::default()
    }

    /// Parks a [`KvShim::write`]: recorded, not admitted to the store. The
    /// write allocates no version and appends nothing to the lineage until
    /// commit.
    pub fn confine_write(
        &mut self,
        shim: &KvShim,
        region: Region,
        key: impl Into<String>,
        value: Bytes,
    ) {
        self.park(ConfinedOp::KvWrite {
            shim: shim.clone(),
            region,
            key: key.into(),
            value,
        });
    }

    /// Parks a [`QueueShim::publish`]: no message is delivered to any
    /// subscriber until commit.
    pub fn confine_publish(&mut self, shim: &QueueShim, region: Region, payload: Bytes) {
        self.park(ConfinedOp::QueuePublish {
            shim: shim.clone(),
            region,
            payload,
        });
    }

    fn park(&mut self, op: ConfinedOp) {
        if self.state != BufferState::Open {
            // A resolved speculation accepts no further effects; dropping
            // the op here (rather than panicking) keeps violation paths
            // simple — by then the handler is being redelivered anyway.
            return;
        }
        self.ops.push(op);
        self.high_water = self.high_water.max(self.ops.len());
    }

    /// Parked operations not yet committed or discarded.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The most operations the buffer ever held at once — the confinement
    /// memory the speculation cost, reported by the bench harness.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Current lifecycle state.
    pub fn state(&self) -> BufferState {
        self.state
    }

    /// Commits the redo log: replays every parked operation *in issue
    /// order* through its real shim. Each replay takes the engine's normal
    /// write path — WAL append at the origin replica, then replication
    /// fan-out — and appends its fresh [`WriteId`] to `lineage`, so later
    /// parked writes causally include earlier ones and downstream barriers
    /// see the committed effects exactly like eager writes.
    ///
    /// Returns the identifiers in replay order. On a store error the
    /// remaining operations stay parked and the buffer remains open, so the
    /// caller can retry the commit once the store recovers; operations
    /// already replayed are not re-issued.
    pub async fn commit(&mut self, lineage: &mut Lineage) -> Result<Vec<WriteId>, ShimError> {
        if self.state != BufferState::Open {
            return Ok(Vec::new());
        }
        let mut committed = Vec::with_capacity(self.ops.len());
        while let Some(op) = self.ops.first().cloned() {
            let wid = match &op {
                ConfinedOp::KvWrite {
                    shim,
                    region,
                    key,
                    value,
                } => shim.write(*region, key, value.clone(), lineage).await?,
                ConfinedOp::QueuePublish {
                    shim,
                    region,
                    payload,
                } => shim.publish(*region, payload.clone(), lineage).await?,
            };
            self.ops.remove(0);
            committed.push(wid);
        }
        self.state = BufferState::Committed;
        Ok(committed)
    }

    /// Discards the redo log after a violation: every parked operation is
    /// dropped without ever having touched a store. Returns how many were
    /// dropped. Nothing leaks — no version was allocated, no WAL entry
    /// written, no subscriber delivered to.
    pub fn discard(&mut self) -> usize {
        if self.state != BufferState::Open {
            return 0;
        }
        let dropped = self.ops.len();
        self.ops.clear();
        self.state = BufferState::Discarded;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueStore;
    use crate::replica::{KvProfile, KvStore};
    use antipode_lineage::LineageId;
    use antipode_sim::net::regions::{EU, US};
    use antipode_sim::{Network, Sim};
    use std::rc::Rc;

    fn setup() -> (Sim, KvShim, QueueShim) {
        let sim = Sim::new(11);
        let net = Rc::new(Network::global_triangle());
        let kv = KvStore::new(&sim, net.clone(), "feed", &[EU, US], KvProfile::default());
        let q = QueueStore::new(&sim, net, "fanout", &[EU, US], Default::default());
        (sim, KvShim::new(kv), QueueShim::new(q))
    }

    #[test]
    fn parked_effects_are_invisible_everywhere() {
        let (sim, kv, q) = setup();
        let kv2 = kv.clone();
        sim.block_on(async move {
            let mut sub = q.subscribe(US).unwrap();
            let mut buf = ConfinementBuffer::new();
            buf.confine_write(&kv, EU, "feed-1", Bytes::from_static(b"post"));
            buf.confine_publish(&q, EU, Bytes::from_static(b"notif"));
            assert_eq!(buf.len(), 2);
            // Nothing reached any store: no key in any region, no delivery.
            assert!(kv.read(EU, "feed-1").await.unwrap().is_none());
            assert!(kv.read(US, "feed-1").await.unwrap().is_none());
            assert!(sub.try_recv().unwrap().is_none());
        });
        sim.run();
        let sim2 = sim.clone();
        sim2.block_on(async move {
            assert!(kv2.read(US, "feed-1").await.unwrap().is_none());
        });
    }

    #[test]
    fn commit_replays_in_order_through_the_engine_pipeline() {
        let (sim, kv, q) = setup();
        sim.block_on(async move {
            let mut sub = q.subscribe(US).unwrap();
            let mut buf = ConfinementBuffer::new();
            buf.confine_write(&kv, EU, "feed-1", Bytes::from_static(b"post"));
            buf.confine_publish(&q, EU, Bytes::from_static(b"notif"));
            let mut lineage = Lineage::new(LineageId(9));
            let ids = buf.commit(&mut lineage).await.unwrap();
            assert_eq!(ids.len(), 2);
            assert_eq!(buf.state(), BufferState::Committed);
            assert!(buf.is_empty());
            assert_eq!(buf.high_water(), 2);
            // Replay order: the write's id precedes the publish's, and both
            // landed in the lineage (later ops causally include earlier).
            assert_eq!(&*ids[0].datastore(), "feed");
            assert_eq!(&*ids[1].datastore(), "fanout");
            assert!(lineage.contains(&ids[0]));
            assert!(lineage.contains(&ids[1]));
            // The committed write went through the engine's WAL append:
            // it is durably readable at the origin…
            let (data, stored) = kv.read(EU, "feed-1").await.unwrap().unwrap();
            assert_eq!(data, Bytes::from_static(b"post"));
            // …and the lineage stored alongside carries the prior deps
            // (the feed write serialized before the publish appended).
            assert_eq!(stored.unwrap().id(), LineageId(9));
            assert!(kv.store().wal_len(EU) > 0, "commit appended to the WAL");
            // Fan-out delivered the publish to the US subscriber.
            let msg = sub.recv().await.unwrap().unwrap();
            assert_eq!(msg.payload, Bytes::from_static(b"notif"));
        });
    }

    #[test]
    fn discard_drops_everything_and_terminal_states_are_idempotent() {
        let (sim, kv, q) = setup();
        sim.block_on(async move {
            let mut buf = ConfinementBuffer::new();
            buf.confine_write(&kv, EU, "feed-1", Bytes::from_static(b"post"));
            buf.confine_publish(&q, EU, Bytes::from_static(b"notif"));
            assert_eq!(buf.discard(), 2);
            assert_eq!(buf.state(), BufferState::Discarded);
            // Idempotent terminals: discard again, commit after discard.
            assert_eq!(buf.discard(), 0);
            let mut lineage = Lineage::new(LineageId(1));
            assert!(buf.commit(&mut lineage).await.unwrap().is_empty());
            assert!(lineage.is_empty(), "nothing replays after a discard");
            // Parking after resolution is ignored.
            buf.confine_write(&kv, EU, "late", Bytes::new());
            assert!(buf.is_empty());
            assert_eq!(buf.high_water(), 2, "high water survives the discard");
            // And the stores never saw anything.
            assert!(kv.read(EU, "feed-1").await.unwrap().is_none());
            assert_eq!(kv.store().wal_len(EU), 0, "no WAL entry was written");
        });
    }

    #[test]
    fn commit_after_commit_is_a_no_op() {
        let (sim, kv, _q) = setup();
        sim.block_on(async move {
            let mut buf = ConfinementBuffer::new();
            buf.confine_write(&kv, EU, "k", Bytes::from_static(b"v"));
            let mut lineage = Lineage::new(LineageId(2));
            let first = buf.commit(&mut lineage).await.unwrap();
            assert_eq!(first.len(), 1);
            let again = buf.commit(&mut lineage).await.unwrap();
            assert!(again.is_empty(), "a committed buffer replays nothing");
            assert_eq!(lineage.len(), 1, "no duplicate write ids");
        });
    }
}
