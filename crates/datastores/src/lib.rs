//! # antipode-store
//!
//! Eight simulated geo-replicated datastores with Antipode shim layers,
//! mirroring the stores of the paper's evaluation (§6.4): MySQL, DynamoDB,
//! Redis, S3, MongoDB (key-value/object/document family) and SNS, AMQ,
//! RabbitMQ plus DynamoDB-streams (notifier family).
//!
//! One replication engine carries the shared mechanics for *both* families:
//! - [`engine::Engine`] — per-region replica state with crash epochs,
//!   replication send/deliver with fault-plan consultation, visibility
//!   watermarks and waiters, WAL append/replay, hinted handoff, and
//!   anti-entropy repair;
//! - [`substrate::Substrate`] — the small trait that injects everything the
//!   families legitimately disagree on (admission policy, retry style,
//!   latency profile, apply reactions), implemented by
//!   [`substrate::KvSubstrate`] and [`substrate::QueueSubstrate`].
//!
//! [`replica::KvStore`] (versioned key-object replicas with strong reads)
//! and [`queue::QueueStore`] (publish/subscribe with acks, consumer groups,
//! and redelivery) are thin facades over the engine — which means queue
//! brokers get the whole recovery plane (WAL crash-restart, hinted handoff,
//! anti-entropy) for free.
//!
//! Each store module layers a typed facade (the "client crate") plus an
//! Antipode shim over one of the two families, stamped out by the shared
//! facade generators. The shims are deliberately thin — the paper reports
//! < 50 LoC per store — and differ only in naming, the calibrated
//! [`profiles`], and the Table 3 storage-amplification model.
//!
//! ```
//! use antipode_lineage::{Lineage, LineageId};
//! use antipode_sim::net::regions::{EU, US};
//! use antipode_sim::{Network, Sim};
//! use antipode_store::{MySql, MySqlShim};
//! use antipode::WaitTarget;
//! use bytes::Bytes;
//! use std::rc::Rc;
//!
//! let sim = Sim::new(7);
//! let net = Rc::new(Network::global_triangle());
//! let db = MySql::new(&sim, net, "posts", &[EU, US]);
//! let shim = MySqlShim::new(&db);
//! sim.clone().block_on(async move {
//!     let mut lineage = Lineage::new(LineageId(1));
//!     let wid = shim
//!         .insert(EU, "posts", "1", Bytes::from_static(b"hello"), &mut lineage)
//!         .await
//!         .unwrap();
//!     // Immediately after the EU commit the US replica may miss it…
//!     assert!(!shim.is_visible(&wid, US));
//!     // …the store-specific wait resolves once replication lands.
//!     shim.wait(&wid, US).await.unwrap();
//!     assert!(shim.is_visible(&wid, US));
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amq;
pub mod dynamodb;
pub mod engine;
pub mod envelope;
mod facade;
mod fanout;
pub mod mongodb;
pub mod mysql;
pub mod probe;
pub mod profiles;
pub mod queue;
pub mod rabbitmq;
pub mod recovery;
pub mod redis;
pub mod repair;
pub mod replica;
pub mod s3;
pub mod shim;
pub mod sns;
pub mod speculation;
pub mod stats;
pub mod substrate;
mod table;
mod waiters;
pub mod wal;

pub use amq::{Amq, AmqShim};
pub use dynamodb::{DynamoDb, DynamoDbShim, DynamoDbStream, DynamoDbStreamShim};
pub use engine::{Engine, Record, ReplicaHealth};
pub use envelope::Envelope;
pub use mongodb::{MongoDb, MongoDbShim};
pub use mysql::{MySql, MySqlShim};
pub use queue::{GroupConsumer, QueueMessage, QueueProfile, QueueStore};
pub use rabbitmq::{RabbitMq, RabbitMqShim};
pub use recovery::{Hint, RecoveryConfig, WalEntry};
pub use redis::{Redis, RedisShim};
pub use repair::{RepairConfig, RepairReport, ScrubReport};
pub use replica::{KvProfile, KvStore, StoreError, StoredValue};
pub use s3::{S3Shim, S3};
pub use shim::{KvShim, QueueShim, ShimError, ShimMessage, ShimSubscription, WaitSemantics};
pub use sns::{Sns, SnsShim};
pub use speculation::{BufferState, ConfinementBuffer};
pub use stats::EngineStats;
pub use substrate::{Admission, ApplyCtx, KvSubstrate, QueueSubstrate, RetryStyle, Substrate};
pub use wal::{WalFault, WalFaultKind, WalLog, WalScan};
