//! The DeathStarBench-style social network (paper §7.1, Fig 8).
//!
//! The evaluated interaction is *compose post*: the writer-side request
//! traverses nginx → compose-post → {unique-id, user, text (→ url-shorten,
//! user-mention), media} → post-storage (MongoDB write) and places an
//! asynchronous task on the write-home-timeline queue (RabbitMQ). In the
//! remote region a consumer dequeues the task, fetches the post from the
//! region-local MongoDB replica, and updates follower home timelines
//! (Redis). The XCY violation is a `post not found` at that fetch; Antipode
//! fixes it with a `barrier` right after the dequeue — off the writer's
//! critical path, so the writer-side penalty is only lineage propagation and
//! the shim (§7.4: ≤ 2 %).
//!
//! The US→SG deployment additionally suffers time-correlated MongoDB
//! replication backlog episodes (§7.3 reports 34 % violations with a 42 %
//! standard deviation and points at MongoDB's replication under network
//! latency); [`SocialConfig::congestion`] enables that model.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, LineageIdGen};
use antipode_lineage::Lineage;
use antipode_runtime::{run_open_loop, LoadMetrics, Runtime, Service, ServiceSpec};
use antipode_sim::dist::Dist;
use antipode_sim::net::regions::{SG, US};
use antipode_sim::net::Network;
use antipode_sim::{RateCounter, Region, Samples, Sim, SimTime};
use antipode_store::shim::{KvShim, QueueShim};
use antipode_store::{MongoDb, RabbitMq, Redis};
use bytes::Bytes;

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct SocialConfig {
    /// The replication destination (the paper's EU or SG).
    pub remote: Region,
    /// Whether Antipode is enabled.
    pub antipode: bool,
    /// Offered load, requests per second (paper: 50–150).
    pub rate: f64,
    /// Issue window (paper: 5 minutes).
    pub duration: Duration,
    /// Model MongoDB WAN-congestion episodes (defaults on for SG).
    pub congestion: bool,
    /// Master seed.
    pub seed: u64,
}

impl SocialConfig {
    /// Default experiment at the given load toward `remote`.
    pub fn new(remote: Region, rate: f64) -> Self {
        SocialConfig {
            remote,
            antipode: false,
            rate,
            duration: Duration::from_secs(300),
            congestion: remote == SG,
            seed: 0xD5B,
        }
    }

    /// Enables Antipode.
    pub fn with_antipode(mut self) -> Self {
        self.antipode = true;
        self
    }

    /// Sets the issue window.
    pub fn with_duration(mut self, d: Duration) -> Self {
        self.duration = d;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Experiment output.
#[derive(Clone)]
pub struct SocialResult {
    /// Writer-side throughput and latency (Fig 8 left).
    pub writer: LoadMetrics,
    /// `post not found` at the remote consumer (§7.3).
    pub violations: RateCounter,
    /// Consistency window per post (Fig 8 right): from the MongoDB write
    /// until the consumer('s barrier) allowed the post fetch.
    pub consistency_window: Samples,
    /// Largest serialized lineage observed (bytes; §7.4 reports < 200 B).
    pub max_lineage_bytes: usize,
}

struct Services {
    nginx: Service,
    compose: Service,
    unique_id: Service,
    user: Service,
    text: Service,
    url_shorten: Service,
    user_mention: Service,
    media: Service,
    post_storage_svc: Service,
    write_home_timeline: Service,
}

fn start_services(sim: &Sim, remote: Region) -> Services {
    let ms = Dist::lognormal_ms;
    Services {
        nginx: Service::new(
            sim,
            ServiceSpec::new("nginx", US)
                .workers(64)
                .service_time(ms(0.5, 0.2)),
        ),
        compose: Service::new(
            sim,
            ServiceSpec::new("compose-post", US)
                .workers(32)
                .service_time(ms(2.0, 0.2)),
        ),
        unique_id: Service::new(
            sim,
            ServiceSpec::new("unique-id", US)
                .workers(16)
                .service_time(ms(0.3, 0.2)),
        ),
        user: Service::new(
            sim,
            ServiceSpec::new("user", US)
                .workers(16)
                .service_time(ms(1.0, 0.2)),
        ),
        text: Service::new(
            sim,
            ServiceSpec::new("text", US)
                .workers(6)
                .service_time(ms(35.0, 0.15)),
        ),
        url_shorten: Service::new(
            sim,
            ServiceSpec::new("url-shorten", US)
                .workers(16)
                .service_time(ms(2.0, 0.2)),
        ),
        user_mention: Service::new(
            sim,
            ServiceSpec::new("user-mention", US)
                .workers(16)
                .service_time(ms(2.0, 0.2)),
        ),
        media: Service::new(
            sim,
            ServiceSpec::new("media", US)
                .workers(16)
                .service_time(ms(3.0, 0.2)),
        ),
        post_storage_svc: Service::new(
            sim,
            ServiceSpec::new("post-storage", US)
                .workers(16)
                .service_time(ms(2.0, 0.2)),
        ),
        write_home_timeline: Service::new(
            sim,
            ServiceSpec::new("write-home-timeline", remote)
                .workers(16)
                .service_time(ms(3.0, 0.2)),
        ),
    }
}

/// Per-shim-call CPU cost of lineage (de)serialization in the Antipode
/// variant — the source of the small writer-side overhead.
const SHIM_CPU: Duration = Duration::from_micros(150);

/// Every fourth post carries a media attachment (stored in the media
/// service's own MongoDB).
fn has_media(post_id: &str) -> bool {
    post_id
        .strip_prefix('p')
        .and_then(|n| n.parse::<u64>().ok())
        .map(|n| n % 4 == 0)
        .unwrap_or(false)
}

/// Runs the experiment and returns its measurements.
pub fn run(cfg: &SocialConfig) -> SocialResult {
    let sim = Sim::new(cfg.seed);
    let net = Rc::new(Network::global_triangle());
    let rt = Runtime::new(&sim, net.clone());
    let regions = [US, cfg.remote];

    let mongo = MongoDb::new(&sim, net.clone(), "post-storage-mongodb", &regions);
    let rabbit = RabbitMq::new(&sim, net.clone(), "wht-rabbitmq", &regions);
    let timeline = Redis::new(&sim, net.clone(), "home-timeline-redis", &[cfg.remote]);
    // The media service stores blobs in its own MongoDB — the paper's
    // footnote notes it "had a similar violation"; here it shares the post's
    // lineage, so one barrier covers both stores.
    let media_store = MongoDb::new(&sim, net.clone(), "media-mongodb", &regions);
    let mongo_shim = KvShim::new(mongo.store().clone());
    let media_shim = KvShim::new(media_store.store().clone());
    let rabbit_shim = QueueShim::new(rabbit.queue().clone());

    let mut ap = Antipode::new(sim.clone());
    ap.register(Rc::new(mongo_shim.clone()));
    ap.register(Rc::new(media_shim.clone()));
    ap.register(Rc::new(rabbit_shim.clone()));

    // MongoDB WAN congestion episodes (US→SG): alternate clear/congested.
    if cfg.congestion {
        let store = mongo.store().clone();
        let sim2 = sim.clone();
        let mut rng = sim.rng("congestion-driver");
        let horizon = cfg.duration + Duration::from_secs(60);
        sim.spawn_detached(async move {
            use rand::Rng;
            let end = sim2.now() + horizon;
            while sim2.now() < end {
                let clear = Duration::from_secs_f64(20.0 + 50.0 * rng.random::<f64>());
                sim2.sleep(clear).await;
                store.set_extra_replication_lag(Some(Dist::LogNormal {
                    median: 0.2,
                    sigma: 0.8,
                }));
                let busy = Duration::from_secs_f64(12.0 + 16.0 * rng.random::<f64>());
                sim2.sleep(busy).await;
                store.set_extra_replication_lag(None);
            }
        });
    }

    let flow = Rc::new(ComposeFlow {
        antipode: cfg.antipode,
        remote: cfg.remote,
        sim: sim.clone(),
        svcs: start_services(&sim, cfg.remote),
        rt: rt.clone(),
        posts: Collection {
            name: "posts",
            store: mongo,
            shim: mongo_shim,
        },
        media: Collection {
            name: "media",
            store: media_store,
            shim: media_shim,
        },
        rabbit,
        rabbit_shim,
        timeline,
        ap,
        gen: LineageIdGen::new(7),
        violations: RefCell::new(RateCounter::new()),
        windows: RefCell::new(Samples::new()),
        max_lineage: Cell::new(0),
        write_times: RefCell::new(HashMap::new()),
    });

    // --- Remote consumer: dispatcher spawns a handler per dequeued task. ---
    {
        let flow = flow.clone();
        sim.spawn_detached(async move {
            if flow.antipode {
                let mut sub = flow
                    .rabbit_shim
                    .subscribe(flow.remote)
                    .expect("remote configured");
                while let Ok(Some(msg)) = sub.recv().await {
                    flow.sim
                        .spawn_detached(flow.clone().deliver(msg.payload, msg.lineage));
                }
            } else {
                let mut sub = flow.rabbit.consume(flow.remote).expect("remote configured");
                while let Some(msg) = sub.recv().await {
                    flow.sim
                        .spawn_detached(flow.clone().deliver(msg.payload, None));
                }
            }
        });
    }

    // --- Writer: the compose-post request, driven open-loop. ---
    let writer = {
        let flow = flow.clone();
        run_open_loop(
            &sim.clone(),
            &rt,
            cfg.rate,
            cfg.duration,
            move |i, metrics| {
                flow.sim.spawn_detached(flow.clone().compose(i, metrics));
            },
        )
    };

    let out_violations = *flow.violations.borrow();
    let out_windows = flow.windows.borrow().clone();
    SocialResult {
        writer,
        violations: out_violations,
        consistency_window: out_windows,
        max_lineage_bytes: flow.max_lineage.get(),
    }
}

/// Everything the compose and delivery tasks touch, shared through one `Rc`
/// (a per-request clone of each handle would put a dozen handles into every
/// request future). Both variants run the same two task bodies; `antipode`
/// forks them only where a store is called.
struct ComposeFlow {
    antipode: bool,
    remote: Region,
    sim: Sim,
    rt: Runtime,
    svcs: Services,
    posts: Collection,
    media: Collection,
    rabbit: RabbitMq,
    rabbit_shim: QueueShim,
    timeline: Redis,
    ap: Antipode,
    gen: LineageIdGen,
    violations: RefCell<RateCounter>,
    windows: RefCell<Samples>,
    max_lineage: Cell<usize>,
    /// When each post's MongoDB write committed; removed by the delivery's
    /// window computation, its only reader.
    write_times: RefCell<HashMap<String, SimTime>>,
}

/// One MongoDB collection with both ways in: the raw store (baseline) and
/// its shim (Antipode).
struct Collection {
    name: &'static str,
    store: MongoDb,
    shim: KvShim,
}

impl ComposeFlow {
    /// Writes one `len`-byte document at the US replica: through the shim,
    /// after its CPU cost, when the request carries a lineage; straight to
    /// the store otherwise.
    async fn put(&self, c: &Collection, post_id: &str, len: usize, lineage: &mut Option<Lineage>) {
        let doc = Bytes::from(vec![0u8; len]);
        match lineage {
            Some(lineage) => {
                self.sim.sleep(SHIM_CPU).await;
                c.shim
                    .write(US, &format!("{}/{post_id}", c.name), doc, lineage)
                    .await
                    .expect("US configured");
            }
            None => {
                c.store
                    .insert_one(US, c.name, post_id, doc)
                    .await
                    .expect("US configured");
            }
        }
    }

    /// Whether the remote replica holds the document.
    async fn found(&self, c: &Collection, post_id: &str) -> bool {
        if self.antipode {
            c.shim
                .read(self.remote, &format!("{}/{post_id}", c.name))
                .await
                .expect("remote configured")
                .is_some()
        } else {
            c.store
                .find_one(self.remote, c.name, post_id)
                .await
                .expect("remote configured")
                .is_some()
        }
    }

    /// Writer: one compose-post request.
    async fn compose(self: Rc<Self>, i: u64, metrics: LoadMetrics) {
        let start = self.sim.now();
        let post_id = format!("p{i}");
        self.rt.hop(US, US).await;
        self.svcs.nginx.process().await;
        self.rt.hop(US, US).await;
        self.svcs.compose.process().await;
        // Parallel fanout to the leaf services.
        let f = self.clone();
        let h_text = self.sim.spawn(async move {
            f.rt.hop(US, US).await;
            f.svcs.text.process().await;
            f.rt.hop(US, US).await;
            f.svcs.url_shorten.process().await;
            f.rt.hop(US, US).await;
            f.svcs.user_mention.process().await;
        });
        let f = self.clone();
        let h_media = self.sim.spawn(async move {
            f.rt.hop(US, US).await;
            f.svcs.media.process().await;
        });
        let f = self.clone();
        let h_meta = self.sim.spawn(async move {
            f.rt.hop(US, US).await;
            f.svcs.unique_id.process().await;
            f.rt.hop(US, US).await;
            f.svcs.user.process().await;
        });
        h_text.await;
        h_media.await;
        h_meta.await;
        // Store the post and enqueue the home-timeline fanout.
        self.rt.hop(US, US).await;
        self.svcs.post_storage_svc.process().await;
        let mut lineage = self.antipode.then(|| Lineage::new(self.gen.next_id()));
        self.put(&self.posts, &post_id, 512, &mut lineage).await;
        self.write_times
            .borrow_mut()
            .insert(post_id.clone(), self.sim.now());
        if has_media(&post_id) {
            self.put(&self.media, &post_id, 2048, &mut lineage).await;
        }
        match &mut lineage {
            Some(lineage) => {
                self.sim.sleep(SHIM_CPU).await;
                self.rabbit_shim
                    .publish(US, Bytes::from(post_id), lineage)
                    .await
                    .expect("US configured");
            }
            None => {
                self.rabbit
                    .publish(US, Bytes::from(post_id))
                    .await
                    .expect("US configured");
            }
        }
        metrics.record(self.sim.now().since(start));
    }

    /// Remote consumer: one dequeued home-timeline task. `lineage` is what
    /// the shim delivered with it (always `None` in the baseline).
    async fn deliver(self: Rc<Self>, payload: Bytes, lineage: Option<Lineage>) {
        let post_id = String::from_utf8(payload.to_vec()).expect("post id");
        self.svcs.write_home_timeline.process().await;
        if let Some(lin) = &lineage {
            self.max_lineage
                .set(self.max_lineage.get().max(lin.wire_size()));
            // barrier right after dequeuing the task (§7.1).
            self.ap
                .barrier(lin, self.remote)
                .await
                .expect("shims registered");
        }
        // The entry's only read: remove it.
        let window = self
            .write_times
            .borrow_mut()
            .remove(&post_id)
            .map(|t| self.sim.now().since(t));
        let mut found = self.found(&self.posts, &post_id).await;
        if found && has_media(&post_id) {
            found = self.found(&self.media, &post_id).await;
        }
        self.violations.borrow_mut().record(!found);
        if let Some(w) = window {
            self.windows.borrow_mut().record_duration(w);
        }
        if found {
            let _ = self
                .timeline
                .set(self.remote, &format!("timeline/{post_id}"), Bytes::new())
                .await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antipode_sim::net::regions::EU;

    fn quick(remote: Region, rate: f64) -> SocialConfig {
        SocialConfig::new(remote, rate).with_duration(Duration::from_secs(60))
    }

    #[test]
    fn us_eu_violations_are_rare() {
        // §7.3: ≈ 0.1 % for US→EU.
        let r = run(&quick(EU, 50.0));
        assert!(
            r.violations.percent() < 2.0,
            "US→EU violations {}%",
            r.violations.percent()
        );
        assert!(r.violations.total() > 2000);
    }

    #[test]
    fn us_sg_violations_are_common_and_vary() {
        // §7.3: ≈ 34 % for US→SG (std 42 % across runs).
        let mut rates = Vec::new();
        for seed in [1u64, 2, 3] {
            let r = run(&quick(SG, 50.0).with_seed(seed));
            rates.push(r.violations.percent());
        }
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!(
            (5.0..70.0).contains(&mean),
            "US→SG mean violations {mean}% ({rates:?})"
        );
    }

    #[test]
    fn antipode_fixes_both_pairs() {
        for remote in [EU, SG] {
            let r = run(&quick(remote, 50.0).with_antipode());
            assert_eq!(r.violations.hits(), 0, "{remote} violated with Antipode");
            assert!(r.violations.total() > 2000);
        }
    }

    #[test]
    fn writer_overhead_is_small() {
        // §7.4: ≤ 2 % throughput penalty; the barrier is off the writer's
        // critical path, so writer latency barely moves.
        let base = run(&quick(EU, 100.0));
        let anti = run(&quick(EU, 100.0).with_antipode());
        let lb = base.writer.latency().unwrap().mean;
        let la = anti.writer.latency().unwrap().mean;
        assert!(la < lb * 1.10, "antipode latency {la} vs baseline {lb}");
        let tb = base.writer.throughput();
        let ta = anti.writer.throughput();
        assert!(ta > tb * 0.95, "antipode throughput {ta} vs baseline {tb}");
    }

    #[test]
    fn latency_rises_with_load() {
        // Fig 8 left: the throughput-latency curve bends upward by 150 rps.
        let lo = run(&quick(EU, 50.0));
        let hi = run(&quick(EU, 150.0));
        let l_lo = lo.writer.latency().unwrap().mean;
        let l_hi = hi.writer.latency().unwrap().mean;
        assert!(
            l_hi > l_lo * 1.3,
            "latency {l_lo} → {l_hi} should rise with load"
        );
    }

    #[test]
    fn consistency_window_grows_toward_sg() {
        // Fig 8 right: the US→SG window exceeds US→EU.
        let eu = run(&quick(EU, 50.0).with_antipode());
        let sg = run(&quick(SG, 50.0).with_antipode());
        let weu = eu.consistency_window.summary().unwrap().mean;
        let wsg = sg.consistency_window.summary().unwrap().mean;
        assert!(wsg > weu, "SG window {wsg} vs EU {weu}");
    }

    #[test]
    fn lineage_stays_under_200_bytes() {
        let r = run(&quick(EU, 50.0).with_antipode());
        assert!(r.max_lineage_bytes > 0);
        assert!(
            r.max_lineage_bytes < 200,
            "max lineage {} B",
            r.max_lineage_bytes
        );
    }
}
