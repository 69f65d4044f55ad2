//! The Post-Notification microbenchmark (paper §2.2, §7.1).
//!
//! Two cloud functions: a **Writer** in the writer region stores a post in a
//! configurable post-storage datastore and publishes a
//! ⟨notification-id, post-id⟩ event to a configurable notifier; a **Reader**
//! in the reader region reacts to each notification by fetching the post.
//! An XCY violation is a `post not found` at the Reader. Antipode fixes it
//! with a `barrier` right after the notification is received.
//!
//! This app drives Table 1 (inconsistency matrix), Fig 6 (delay sweep) and
//! Fig 7 (consistency windows).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, LineageIdGen, UnknownStorePolicy};
use antipode_lineage::Lineage;
use antipode_sim::net::regions::{EU, US};
use antipode_sim::net::Network;
use antipode_sim::{RateCounter, Region, Samples, Sim};
use antipode_store::shim::{KvShim, QueueShim};
use antipode_store::{Amq, DynamoDb, DynamoDbStream, KvStore, MySql, QueueStore, Redis, Sns, S3};
use bytes::Bytes;

/// Which datastore backs post-storage (Table 1 columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PostStoreKind {
    /// MySQL / Aurora global database.
    MySql,
    /// DynamoDB global tables.
    DynamoDb,
    /// Redis / ElastiCache.
    Redis,
    /// S3 with cross-region replication.
    S3,
}

impl PostStoreKind {
    /// All four, in Table 1 column order.
    pub const ALL: [PostStoreKind; 4] = [
        PostStoreKind::MySql,
        PostStoreKind::DynamoDb,
        PostStoreKind::Redis,
        PostStoreKind::S3,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PostStoreKind::MySql => "MySQL",
            PostStoreKind::DynamoDb => "DynamoDB",
            PostStoreKind::Redis => "Redis",
            PostStoreKind::S3 => "S3",
        }
    }

    /// The paper's post object size for this store (§7.2: ≈ 1 MB, except
    /// DynamoDB's 400 KB item limit).
    pub fn post_size(self) -> usize {
        match self {
            PostStoreKind::DynamoDb => 400 * 1024,
            _ => 1024 * 1024,
        }
    }
}

/// Which datastore backs the notifier (Table 1 rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NotifierKind {
    /// SNS pub/sub.
    Sns,
    /// Amazon MQ broker.
    Amq,
    /// DynamoDB item + streams poll.
    DynamoDb,
}

impl NotifierKind {
    /// All three, in Table 1 row order.
    pub const ALL: [NotifierKind; 3] =
        [NotifierKind::Sns, NotifierKind::Amq, NotifierKind::DynamoDb];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            NotifierKind::Sns => "SNS",
            NotifierKind::Amq => "AMQ",
            NotifierKind::DynamoDb => "DynamoDB",
        }
    }
}

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct PostNotifConfig {
    /// Post-storage datastore.
    pub post_store: PostStoreKind,
    /// Notifier datastore.
    pub notifier: NotifierKind,
    /// Whether Antipode is enabled (shims + barrier at the Reader).
    pub antipode: bool,
    /// Number of post-creation requests (the paper submits 1000).
    pub requests: usize,
    /// Artificial delay inserted before publishing the notification (Fig 6).
    pub artificial_delay: Duration,
    /// Region the Writer runs in (paper: Frankfurt).
    pub writer_region: Region,
    /// Region the Reader runs in (paper: Central US).
    pub reader_region: Region,
    /// Master seed.
    pub seed: u64,
}

impl PostNotifConfig {
    /// The paper's default setup for a store pair: 1000 requests, EU writer,
    /// US reader, no artificial delay, Antipode off.
    pub fn new(post_store: PostStoreKind, notifier: NotifierKind) -> Self {
        PostNotifConfig {
            post_store,
            notifier,
            antipode: false,
            requests: 1000,
            artificial_delay: Duration::ZERO,
            writer_region: EU,
            reader_region: US,
            seed: 0xA57,
        }
    }

    /// Enables Antipode.
    pub fn with_antipode(mut self) -> Self {
        self.antipode = true;
        self
    }

    /// Sets the artificial notification delay (Fig 6).
    pub fn with_delay(mut self, d: Duration) -> Self {
        self.artificial_delay = d;
        self
    }

    /// Sets the request count.
    pub fn with_requests(mut self, n: usize) -> Self {
        self.requests = n;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Experiment output.
#[derive(Clone, Debug, Default)]
pub struct PostNotifResult {
    /// `post not found` at the Reader (XCY violations). With Antipode this
    /// must be zero.
    pub violations: RateCounter,
    /// Consistency window per request (seconds): from the post write until
    /// the Reader('s barrier) allowed the read attempt (§7.4).
    pub consistency_window: Samples,
    /// Time each barrier spent blocked (seconds; Antipode runs only).
    pub barrier_blocked: Samples,
    /// Serialized lineage sizes observed at the Reader (bytes; Antipode
    /// runs only).
    pub lineage_bytes: Samples,
}

struct Deployment {
    sim: Sim,
    post_kv: KvStore,
    post_shim: KvShim,
    notif_queue: QueueStore,
    notif_shim: QueueShim,
}

fn deploy(cfg: &PostNotifConfig) -> Deployment {
    let sim = Sim::new(cfg.seed);
    let net = Rc::new(Network::global_triangle());
    let regions = [cfg.writer_region, cfg.reader_region];
    let post_kv = match cfg.post_store {
        PostStoreKind::MySql => MySql::new(&sim, net.clone(), "post-storage-mysql", &regions)
            .store()
            .clone(),
        PostStoreKind::DynamoDb => {
            DynamoDb::new(&sim, net.clone(), "post-storage-dynamodb", &regions)
                .store()
                .clone()
        }
        PostStoreKind::Redis => Redis::new(&sim, net.clone(), "post-storage-redis", &regions)
            .store()
            .clone(),
        PostStoreKind::S3 => S3::new(&sim, net.clone(), "post-storage-s3", &regions)
            .store()
            .clone(),
    };
    let notif_queue = match cfg.notifier {
        NotifierKind::Sns => Sns::new(&sim, net.clone(), "notifier-sns", &regions)
            .queue()
            .clone(),
        NotifierKind::Amq => Amq::new(&sim, net.clone(), "notifier-amq", &regions)
            .queue()
            .clone(),
        NotifierKind::DynamoDb => DynamoDbStream::new(&sim, net, "notifier-dynamodb", &regions)
            .queue()
            .clone(),
    };
    Deployment {
        sim,
        post_shim: KvShim::new(post_kv.clone()),
        post_kv,
        notif_shim: QueueShim::new(notif_queue.clone()),
        notif_queue,
    }
}

/// Runs the experiment and returns its measurements.
pub fn run(cfg: &PostNotifConfig) -> PostNotifResult {
    let dep = deploy(cfg);
    let sim = dep.sim.clone();
    let result: Rc<RefCell<PostNotifResult>> = Rc::new(RefCell::new(PostNotifResult::default()));
    let gen = Rc::new(LineageIdGen::new(1));

    // Antipode client at the Reader, with the post-storage shim registered.
    let mut ap = Antipode::new(sim.clone()).with_policy(UnknownStorePolicy::Fail);
    ap.register(Rc::new(dep.post_shim.clone()));
    ap.register(Rc::new(dep.notif_shim.clone()));

    // Post write times, indexed by post id, for the consistency window.
    let write_times: Rc<RefCell<std::collections::HashMap<String, antipode_sim::SimTime>>> =
        Rc::new(RefCell::new(std::collections::HashMap::new()));

    // --- Reader: handles each notification replication event (§7.1). ---
    {
        let cfg = cfg.clone();
        let sim2 = sim.clone();
        let result = result.clone();
        let write_times = write_times.clone();
        let post_shim = dep.post_shim.clone();
        let post_kv = dep.post_kv.clone();
        let notif_shim = dep.notif_shim.clone();
        let notif_queue = dep.notif_queue.clone();
        let ap = ap.clone();
        // A new Reader function is spawned per replication event (§7.1), so
        // handlers run concurrently — one slow barrier never queues behind
        // another.
        sim.spawn_detached(async move {
            if cfg.antipode {
                let mut sub = notif_shim
                    .subscribe(cfg.reader_region)
                    .expect("reader region is configured");
                for _ in 0..cfg.requests {
                    let Some(msg) = sub.recv().await.transpose() else {
                        break;
                    };
                    let msg = msg.expect("writer publishes only valid envelopes");
                    let sim3 = sim2.clone();
                    let result = result.clone();
                    let write_times = write_times.clone();
                    let post_shim = post_shim.clone();
                    let ap = ap.clone();
                    let gen = gen.clone();
                    let region = cfg.reader_region;
                    sim2.spawn_detached(async move {
                        let post_id =
                            String::from_utf8(msg.payload.to_vec()).expect("payload is a post id");
                        // barrier right after receiving the notification
                        // (§7.1).
                        let lineage = msg.lineage.unwrap_or_else(|| Lineage::new(gen.next_id()));
                        result
                            .borrow_mut()
                            .lineage_bytes
                            .record(lineage.wire_size() as f64);
                        let report = ap
                            .barrier(&lineage, region)
                            .await
                            .expect("all shims registered");
                        result
                            .borrow_mut()
                            .barrier_blocked
                            .record(report.blocked.as_secs_f64());
                        let window = {
                            let wt = write_times.borrow();
                            wt.get(&post_id).map(|t| sim3.now().since(*t))
                        };
                        let found = post_shim
                            .read(region, &post_id)
                            .await
                            .expect("reader region configured")
                            .is_some();
                        let mut r = result.borrow_mut();
                        r.violations.record(!found);
                        if let Some(w) = window {
                            r.consistency_window.record_duration(w);
                        }
                    });
                }
            } else {
                let mut sub = notif_queue
                    .subscribe(cfg.reader_region)
                    .expect("reader region is configured");
                for _ in 0..cfg.requests {
                    let Some(msg) = sub.recv().await else { break };
                    let sim3 = sim2.clone();
                    let result = result.clone();
                    let write_times = write_times.clone();
                    let post_kv = post_kv.clone();
                    let region = cfg.reader_region;
                    sim2.spawn_detached(async move {
                        let post_id =
                            String::from_utf8(msg.payload.to_vec()).expect("payload is a post id");
                        let window = {
                            let wt = write_times.borrow();
                            wt.get(&post_id).map(|t| sim3.now().since(*t))
                        };
                        let found = post_kv
                            .get(region, &post_id)
                            .await
                            .expect("reader region configured")
                            .is_some();
                        let mut r = result.borrow_mut();
                        r.violations.record(!found);
                        if let Some(w) = window {
                            r.consistency_window.record_duration(w);
                        }
                    });
                }
            }
        });
    }

    // --- Writers: one post creation per request. ---
    let gen_w = Rc::new(LineageIdGen::new(2));
    for i in 0..cfg.requests {
        let cfg = cfg.clone();
        let sim2 = sim.clone();
        let write_times = write_times.clone();
        let post_shim = dep.post_shim.clone();
        let post_kv = dep.post_kv.clone();
        let notif_shim = dep.notif_shim.clone();
        let notif_queue = dep.notif_queue.clone();
        let gen_w = gen_w.clone();
        sim.spawn_detached(async move {
            // Stagger request arrivals so requests are independent.
            sim2.sleep(Duration::from_millis(200 * i as u64)).await;
            let post_id = format!("post-{i}");
            let body = Bytes::from(vec![0u8; cfg.post_store.post_size().min(4096)]);
            if cfg.antipode {
                let mut lineage = Lineage::new(gen_w.next_id());
                post_shim
                    .write(cfg.writer_region, &post_id, body, &mut lineage)
                    .await
                    .expect("writer region configured");
                write_times.borrow_mut().insert(post_id.clone(), sim2.now());
                if !cfg.artificial_delay.is_zero() {
                    sim2.sleep(cfg.artificial_delay).await;
                }
                notif_shim
                    .publish(cfg.writer_region, Bytes::from(post_id), &mut lineage)
                    .await
                    .expect("writer region configured");
            } else {
                post_kv
                    .put(cfg.writer_region, &post_id, body)
                    .await
                    .expect("writer region configured");
                write_times.borrow_mut().insert(post_id.clone(), sim2.now());
                if !cfg.artificial_delay.is_zero() {
                    sim2.sleep(cfg.artificial_delay).await;
                }
                notif_queue
                    .publish(cfg.writer_region, Bytes::from(post_id))
                    .await
                    .expect("writer region configured");
            }
        });
    }

    sim.run();
    let out = result.borrow().clone();
    debug_assert_eq!(
        out.violations.total() as usize,
        cfg.requests,
        "every request measured"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(post: PostStoreKind, notif: NotifierKind) -> PostNotifConfig {
        PostNotifConfig::new(post, notif).with_requests(150)
    }

    #[test]
    fn sns_races_ahead_of_mysql() {
        // Table 1: MySQL × SNS ≈ 95 % inconsistencies.
        let r = run(&quick(PostStoreKind::MySql, NotifierKind::Sns));
        let pct = r.violations.percent();
        assert!((80.0..100.0).contains(&pct), "MySQL×SNS violations {pct}%");
    }

    #[test]
    fn dynamodb_notifier_is_slow_enough_to_be_safe() {
        // Table 1: MySQL × DynamoDB ≈ 0 %.
        let r = run(&quick(PostStoreKind::MySql, NotifierKind::DynamoDb));
        let pct = r.violations.percent();
        assert!(pct < 5.0, "MySQL×DynamoDB violations {pct}%");
    }

    #[test]
    fn s3_always_loses_the_race() {
        // Table 1: S3 × SNS = 100 %.
        let r = run(&quick(PostStoreKind::S3, NotifierKind::Sns));
        let pct = r.violations.percent();
        assert!(pct > 95.0, "S3×SNS violations {pct}%");
    }

    #[test]
    fn antipode_always_fixes_violations() {
        // §7.3: "regardless of the combination … the inconsistency was
        // always corrected."
        for (p, n) in [
            (PostStoreKind::MySql, NotifierKind::Sns),
            (PostStoreKind::S3, NotifierKind::Sns),
            (PostStoreKind::Redis, NotifierKind::Amq),
        ] {
            let r = run(&quick(p, n).with_antipode());
            assert_eq!(
                r.violations.hits(),
                0,
                "{}×{} still violated with Antipode",
                p.name(),
                n.name()
            );
        }
    }

    #[test]
    fn artificial_delay_reduces_violations() {
        // Fig 6: adding delay before publishing lets the post replicate.
        let base = run(&quick(PostStoreKind::MySql, NotifierKind::Sns));
        let delayed =
            run(&quick(PostStoreKind::MySql, NotifierKind::Sns).with_delay(Duration::from_secs(5)));
        assert!(
            delayed.violations.percent() < base.violations.percent() / 4.0,
            "delayed {}% vs base {}%",
            delayed.violations.percent(),
            base.violations.percent()
        );
    }

    #[test]
    fn antipode_consistency_window_tracks_replication_delay() {
        // Fig 7: with Antipode the window ≈ the store's replication lag;
        // S3's dwarfs MySQL's.
        let mysql = run(&quick(PostStoreKind::MySql, NotifierKind::Sns).with_antipode());
        let s3 = run(&PostNotifConfig::new(PostStoreKind::S3, NotifierKind::Sns)
            .with_requests(80)
            .with_antipode());
        let m = mysql.consistency_window.summary().unwrap();
        let s = s3.consistency_window.summary().unwrap();
        assert!(
            s.mean > 5.0 * m.mean,
            "S3 window {} vs MySQL {}",
            s.mean,
            m.mean
        );
        assert!(
            s.mean > 5.0,
            "S3 window should be many seconds, got {}",
            s.mean
        );
    }

    #[test]
    fn lineage_metadata_stays_small() {
        // §7.4: lineage metadata below 200 bytes.
        let r = run(&quick(PostStoreKind::MySql, NotifierKind::Sns).with_antipode());
        let max = r.lineage_bytes.summary().unwrap().max;
        assert!(max < 200.0, "max lineage size {max} B");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(&quick(PostStoreKind::Redis, NotifierKind::Sns));
        let b = run(&quick(PostStoreKind::Redis, NotifierKind::Sns));
        assert_eq!(a.violations.hits(), b.violations.hits());
        assert_eq!(a.consistency_window.values(), b.consistency_window.values());
    }
}
