//! Generic shim plumbing shared by the eight datastore shims.
//!
//! The paper's Shim API (Table 2) proxies `write`/`read` so lineages are
//! (de)serialized alongside values, and exposes the store-specific `wait`.
//! [`KvShim`] and [`QueueShim`] implement that once over the two store
//! frameworks; the per-store shims in each store module are thin wrappers
//! (mirroring the paper's < 50 LoC per store) that add the store's name and
//! its storage-amplification model for Table 3.

use antipode::wait::{LocalBoxFuture, WaitError, WaitTarget};
use antipode_lineage::varint::CodecError;
use antipode_lineage::{Lineage, StoreId, WriteId};
use antipode_sim::Region;
use bytes::Bytes;

use crate::envelope::Envelope;
use crate::queue::{msg_key, QueueMessage, QueueStore};
use crate::replica::{KvStore, StoreError};

/// Errors from shim reads.
#[derive(Clone, Debug, PartialEq)]
pub enum ShimError {
    /// Underlying store error.
    Store(StoreError),
    /// The stored bytes were not a valid envelope (e.g. written by a
    /// non-Antipode writer without the shim).
    Envelope(CodecError),
}

impl std::fmt::Display for ShimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShimError::Store(e) => write!(f, "store error: {e}"),
            ShimError::Envelope(e) => write!(f, "stored value is not an envelope: {e}"),
        }
    }
}
impl std::error::Error for ShimError {}

impl From<StoreError> for ShimError {
    fn from(e: StoreError) -> Self {
        ShimError::Store(e)
    }
}

fn map_wait_err(e: StoreError) -> WaitError {
    match e {
        StoreError::NoSuchRegion(r) => WaitError::NoReplicaInRegion(r),
        StoreError::Unavailable { store, region } => {
            WaitError::StoreUnavailable(format!("{store}@{region}"))
        }
        StoreError::CrashedEpoch { store, region } => {
            WaitError::StoreUnavailable(format!("{store}@{region} (crash epoch)"))
        }
        // A quarantined replica is degraded the same way an outage is:
        // barriers back off and retry until anti-entropy rejoins it.
        StoreError::IntegrityFault { store, region } => {
            WaitError::StoreUnavailable(format!("{store}@{region} (integrity fault)"))
        }
    }
}

/// The generic key-value shim: lineage-propagating `write`/`read`/`wait`
/// over a [`KvStore`].
#[derive(Clone)]
pub struct KvShim {
    store: KvStore,
    /// The store's name, interned once: every write names it.
    store_id: StoreId,
}

impl KvShim {
    /// Wraps a store.
    pub fn new(store: KvStore) -> Self {
        let store_id = StoreId::intern(store.name());
        KvShim { store, store_id }
    }

    /// The wrapped store.
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// Shim `write(k, ⟨v, ℒ⟩)`: stores the value together with the lineage
    /// and appends the new write identifier to the lineage (paper §6.1: the
    /// returned lineage extends the input with the new identifier).
    pub async fn write(
        &self,
        region: Region,
        key: &str,
        value: Bytes,
        lineage: &mut Lineage,
    ) -> Result<WriteId, ShimError> {
        let stored = Envelope::encode_parts(&value, Some(lineage));
        let version = self.store.put(region, key, stored).await?;
        let id = WriteId::from_parts(self.store_id, key.into(), version);
        lineage.append(id.clone());
        Ok(id)
    }

    /// Shim `read(k)`: returns the value and the lineage stored with it
    /// (callers typically `transfer` the lineage into their own).
    #[allow(clippy::type_complexity)]
    pub async fn read(
        &self,
        region: Region,
        key: &str,
    ) -> Result<Option<(Bytes, Option<Lineage>)>, ShimError> {
        let Some(stored) = self.store.get(region, key).await? else {
            return Ok(None);
        };
        let env = Envelope::decode(&stored.bytes).map_err(ShimError::Envelope)?;
        Ok(Some((env.data, env.lineage)))
    }

    /// The per-object byte overhead of storing `lineage` with a value — the
    /// envelope framing plus the serialized lineage.
    pub fn envelope_overhead(&self, lineage: &Lineage) -> usize {
        Envelope::overhead_of(0, Some(lineage))
    }
}

impl WaitTarget for KvShim {
    fn datastore_name(&self) -> &str {
        self.store.name()
    }

    fn wait<'a>(
        &'a self,
        write: &'a WriteId,
        region: Region,
    ) -> LocalBoxFuture<'a, Result<(), WaitError>> {
        Box::pin(async move {
            self.store
                .wait_visible(region, write.key(), write.version())
                .await
                .map_err(map_wait_err)
        })
    }

    fn is_visible(&self, write: &WriteId, region: Region) -> bool {
        self.store.is_visible(region, write.key(), write.version())
    }
}

/// A message as decoded by the queue shim.
#[derive(Clone, Debug, PartialEq)]
pub struct ShimMessage {
    /// The raw queue message (id, timing).
    pub raw: QueueMessage,
    /// The application payload.
    pub payload: Bytes,
    /// The lineage the publisher attached, if any.
    pub lineage: Option<Lineage>,
}

/// What "visible" means for a queued message — `wait` is store-specific and
/// opaque (§6.3): a pub/sub notifier considers a message visible once
/// *delivered*; a work queue considers it visible once *processed* (acked by
/// its consumer, with any resulting writes committed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WaitSemantics {
    /// Visible once delivered in the region.
    #[default]
    Delivered,
    /// Visible once a consumer in the region acknowledged it.
    Processed,
}

/// The generic queue shim: lineage-propagating `publish`/`subscribe`/`wait`
/// over a [`QueueStore`].
#[derive(Clone)]
pub struct QueueShim {
    store: QueueStore,
    /// The store's name, interned once: every publish names it.
    store_id: StoreId,
    semantics: WaitSemantics,
}

impl QueueShim {
    /// Wraps a queue store with [`WaitSemantics::Delivered`].
    pub fn new(store: QueueStore) -> Self {
        let store_id = StoreId::intern(store.name());
        QueueShim {
            store,
            store_id,
            semantics: WaitSemantics::default(),
        }
    }

    /// Sets the wait semantics.
    pub fn with_semantics(mut self, semantics: WaitSemantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Acknowledges a processed message (consumers using
    /// [`WaitSemantics::Processed`] call this after committing their work).
    pub fn ack(&self, region: Region, msg: &ShimMessage) -> Result<(), ShimError> {
        self.store.ack(region, msg.raw.id).map_err(ShimError::Store)
    }

    /// The wrapped store.
    pub fn store(&self) -> &QueueStore {
        &self.store
    }

    /// Publishes `payload` with the lineage attached; appends the publish's
    /// write identifier to the lineage and returns it.
    pub async fn publish(
        &self,
        region: Region,
        payload: Bytes,
        lineage: &mut Lineage,
    ) -> Result<WriteId, ShimError> {
        let stored = Envelope::encode_parts(&payload, Some(lineage));
        let id = self.store.publish(region, stored).await?;
        let wid = WriteId::from_parts(self.store_id, msg_key(id), id);
        lineage.append(wid.clone());
        Ok(wid)
    }

    /// Subscribes in `region`; see [`ShimSubscription::recv`].
    pub fn subscribe(&self, region: Region) -> Result<ShimSubscription, ShimError> {
        Ok(ShimSubscription {
            rx: self.store.subscribe(region)?,
        })
    }
}

/// A lineage-decoding subscription from [`QueueShim::subscribe`].
pub struct ShimSubscription {
    rx: antipode_sim::sync::Receiver<QueueMessage>,
}

impl ShimSubscription {
    /// Receives and decodes the next message; `None` when the queue closes.
    pub async fn recv(&mut self) -> Result<Option<ShimMessage>, ShimError> {
        let Some(raw) = self.rx.recv().await else {
            return Ok(None);
        };
        let env = Envelope::decode(&raw.payload).map_err(ShimError::Envelope)?;
        Ok(Some(ShimMessage {
            raw: raw.clone(),
            payload: env.data,
            lineage: env.lineage,
        }))
    }

    /// Non-blocking receive: decodes an already-delivered message, if any.
    pub fn try_recv(&mut self) -> Result<Option<ShimMessage>, ShimError> {
        let Some(raw) = self.rx.try_recv() else {
            return Ok(None);
        };
        let env = Envelope::decode(&raw.payload).map_err(ShimError::Envelope)?;
        Ok(Some(ShimMessage {
            raw: raw.clone(),
            payload: env.data,
            lineage: env.lineage,
        }))
    }
}

impl WaitTarget for QueueShim {
    fn datastore_name(&self) -> &str {
        self.store.name()
    }

    fn wait<'a>(
        &'a self,
        write: &'a WriteId,
        region: Region,
    ) -> LocalBoxFuture<'a, Result<(), WaitError>> {
        Box::pin(async move {
            match self.semantics {
                WaitSemantics::Delivered => self
                    .store
                    .wait_visible(region, write.version())
                    .await
                    .map_err(map_wait_err),
                WaitSemantics::Processed => self
                    .store
                    .wait_acked(region, write.version())
                    .await
                    .map_err(map_wait_err),
            }
        })
    }

    fn is_visible(&self, write: &WriteId, region: Region) -> bool {
        match self.semantics {
            WaitSemantics::Delivered => self.store.is_visible(region, write.version()),
            WaitSemantics::Processed => self.store.is_acked(region, write.version()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::KvProfile;
    use antipode_lineage::LineageId;
    use antipode_sim::net::regions::{EU, US};
    use antipode_sim::{Network, Sim};
    use std::rc::Rc;
    use std::time::Duration;

    fn kv_setup() -> (Sim, KvShim) {
        let sim = Sim::new(5);
        let net = Rc::new(Network::global_triangle());
        let store = KvStore::new(&sim, net, "posts", &[EU, US], KvProfile::default());
        (sim, KvShim::new(store))
    }

    #[test]
    fn write_appends_identifier_and_read_recovers_lineage() {
        let (sim, shim) = kv_setup();
        sim.block_on(async move {
            let mut lin = Lineage::new(LineageId(1));
            let wid = shim
                .write(EU, "post-1", Bytes::from_static(b"hello"), &mut lin)
                .await
                .unwrap();
            assert_eq!(&*wid.datastore(), "posts");
            assert!(lin.contains(&wid), "write must extend the lineage");
            let (data, stored_lin) = shim.read(EU, "post-1").await.unwrap().unwrap();
            assert_eq!(data, Bytes::from_static(b"hello"));
            // The stored lineage is the one *before* this write was appended.
            assert_eq!(stored_lin.unwrap().id(), LineageId(1));
        });
    }

    #[test]
    fn read_missing_key_is_none() {
        let (sim, shim) = kv_setup();
        sim.block_on(async move {
            assert!(shim.read(EU, "nope").await.unwrap().is_none());
        });
    }

    #[test]
    fn read_of_raw_value_reports_envelope_error() {
        let (sim, shim) = kv_setup();
        sim.block_on(async move {
            // A non-Antipode writer bypasses the shim.
            shim.store()
                .put(EU, "raw", Bytes::from_static(&[0xff, 0xff, 0x01]))
                .await
                .unwrap();
            match shim.read(EU, "raw").await {
                Err(ShimError::Envelope(_)) => {}
                other => panic!("expected envelope error, got {other:?}"),
            }
        });
    }

    #[test]
    fn kv_shim_wait_target() {
        let (sim, shim) = kv_setup();
        let shim2 = shim.clone();
        sim.block_on(async move {
            let mut lin = Lineage::new(LineageId(2));
            let wid = shim2.write(EU, "k", Bytes::new(), &mut lin).await.unwrap();
            assert!(!shim2.is_visible(&wid, US));
            shim2.wait(&wid, US).await.unwrap();
            assert!(shim2.is_visible(&wid, US));
        });
    }

    #[test]
    fn queue_shim_round_trip() {
        let sim = Sim::new(6);
        let net = Rc::new(Network::global_triangle());
        let q = QueueStore::new(&sim, net, "sns", &[EU, US], Default::default());
        let shim = QueueShim::new(q);
        sim.block_on(async move {
            let mut sub = shim.subscribe(US).unwrap();
            let mut lin = Lineage::new(LineageId(3));
            lin.append(WriteId::new("posts", "post-1", 9));
            let wid = shim
                .publish(EU, Bytes::from_static(b"notif"), &mut lin)
                .await
                .unwrap();
            assert_eq!(&*wid.datastore(), "sns");
            assert!(lin.contains(&wid));
            let msg = sub.recv().await.unwrap().unwrap();
            assert_eq!(msg.payload, Bytes::from_static(b"notif"));
            let carried = msg.lineage.unwrap();
            // The carried lineage has the post dependency but not the publish
            // itself (it was serialized before appending).
            assert!(carried.contains(&WriteId::new("posts", "post-1", 9)));
            assert!(shim.is_visible(&wid, US));
        });
    }

    #[test]
    fn processed_semantics_waits_for_ack() {
        let sim = Sim::new(7);
        let net = Rc::new(Network::global_triangle());
        let q = QueueStore::new(&sim, net, "work", &[EU], Default::default());
        let shim = QueueShim::new(q).with_semantics(WaitSemantics::Processed);
        let shim2 = shim.clone();
        sim.block_on(async move {
            let mut sub = shim2.subscribe(EU).unwrap();
            let mut lin = Lineage::new(LineageId(1));
            let wid = shim2
                .publish(EU, Bytes::from_static(b"task"), &mut lin)
                .await
                .unwrap();
            // Delivered but not acked: still invisible under Processed.
            let msg = sub.recv().await.unwrap().unwrap();
            assert!(!shim2.is_visible(&wid, EU));
            shim2.ack(EU, &msg).unwrap();
            assert!(shim2.is_visible(&wid, EU));
            shim2.wait(&wid, EU).await.unwrap();
        });
    }

    #[test]
    fn wait_blocks_until_consumer_acks() {
        let sim = Sim::new(8);
        let net = Rc::new(Network::global_triangle());
        let q = QueueStore::new(&sim, net, "work", &[EU], Default::default());
        let shim = QueueShim::new(q).with_semantics(WaitSemantics::Processed);
        // Consumer that takes 50ms to process before acking.
        let consumer_shim = shim.clone();
        let csim = sim.clone();
        sim.spawn(async move {
            let mut sub = consumer_shim.subscribe(EU).unwrap();
            while let Ok(Some(msg)) = sub.recv().await {
                csim.sleep(Duration::from_millis(50)).await;
                consumer_shim.ack(EU, &msg).unwrap();
            }
        });
        let waited = sim.block_on({
            let sim = sim.clone();
            let shim = shim.clone();
            async move {
                let mut lin = Lineage::new(LineageId(2));
                let wid = shim.publish(EU, Bytes::new(), &mut lin).await.unwrap();
                let start = sim.now();
                shim.wait(&wid, EU).await.unwrap();
                sim.now().since(start)
            }
        });
        assert!(waited >= Duration::from_millis(50), "waited {waited:?}");
    }

    #[test]
    fn envelope_overhead_reports_lineage_cost() {
        let (_sim, shim) = kv_setup();
        let mut lin = Lineage::new(LineageId(1));
        let empty = shim.envelope_overhead(&lin);
        lin.append(WriteId::new("a-store", "some-key-1234", 7));
        let one = shim.envelope_overhead(&lin);
        assert!(one > empty);
        assert!(one < 100, "one-dep lineage overhead {one} B");
    }
}
