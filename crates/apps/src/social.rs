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

use std::cell::RefCell;
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

    let svcs = Rc::new(start_services(&sim, cfg.remote));

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

    let violations = Rc::new(RefCell::new(RateCounter::new()));
    let windows = Rc::new(RefCell::new(Samples::new()));
    let max_lineage = Rc::new(RefCell::new(0usize));
    let write_times: Rc<RefCell<HashMap<String, SimTime>>> = Rc::new(RefCell::new(HashMap::new()));

    // --- Remote consumer: dispatcher spawns a handler per dequeued task. ---
    {
        let cfg2 = cfg.clone();
        let sim2 = sim.clone();
        let svcs = svcs.clone();
        let violations = violations.clone();
        let windows = windows.clone();
        let max_lineage = max_lineage.clone();
        let write_times = write_times.clone();
        let mongo = mongo.clone();
        let mongo_shim = mongo_shim.clone();
        let media_store2 = media_store.clone();
        let media_shim2 = media_shim.clone();
        let timeline = timeline.clone();
        let ap = ap.clone();
        let rabbit_shim2 = rabbit_shim.clone();
        let rabbit2 = rabbit.clone();
        sim.spawn_detached(async move {
            if cfg2.antipode {
                let mut sub = rabbit_shim2
                    .subscribe(cfg2.remote)
                    .expect("remote configured");
                while let Ok(Some(msg)) = sub.recv().await {
                    let post_id = String::from_utf8(msg.payload.to_vec()).expect("post id");
                    let lineage = msg.lineage.clone();
                    let svcs = svcs.clone();
                    let violations = violations.clone();
                    let windows = windows.clone();
                    let max_lineage = max_lineage.clone();
                    let write_times = write_times.clone();
                    let mongo_shim = mongo_shim.clone();
                    let media_shim = media_shim2.clone();
                    let timeline = timeline.clone();
                    let ap = ap.clone();
                    let sim3 = sim2.clone();
                    let remote = cfg2.remote;
                    sim2.spawn_detached(async move {
                        svcs.write_home_timeline.process().await;
                        if let Some(lin) = &lineage {
                            {
                                let mut ml = max_lineage.borrow_mut();
                                *ml = (*ml).max(lin.wire_size());
                            }
                            // barrier right after dequeuing the task (§7.1).
                            ap.barrier(lin, remote).await.expect("shims registered");
                        }
                        // The entry's only read: remove it.
                        let window = write_times
                            .borrow_mut()
                            .remove(&post_id)
                            .map(|t| sim3.now().since(t));
                        let mut found = mongo_shim
                            .read(remote, &format!("posts/{post_id}"))
                            .await
                            .expect("remote configured")
                            .is_some();
                        if found && has_media(&post_id) {
                            found = media_shim
                                .read(remote, &format!("media/{post_id}"))
                                .await
                                .expect("remote configured")
                                .is_some();
                        }
                        violations.borrow_mut().record(!found);
                        if let Some(w) = window {
                            windows.borrow_mut().record_duration(w);
                        }
                        if found {
                            let _ = timeline
                                .set(remote, &format!("timeline/{post_id}"), Bytes::new())
                                .await;
                        }
                    });
                }
            } else {
                let mut sub = rabbit2.consume(cfg2.remote).expect("remote configured");
                while let Some(msg) = sub.recv().await {
                    let post_id = String::from_utf8(msg.payload.to_vec()).expect("post id");
                    let svcs = svcs.clone();
                    let violations = violations.clone();
                    let windows = windows.clone();
                    let write_times = write_times.clone();
                    let mongo = mongo.clone();
                    let media_store = media_store2.clone();
                    let timeline = timeline.clone();
                    let sim3 = sim2.clone();
                    let remote = cfg2.remote;
                    sim2.spawn_detached(async move {
                        svcs.write_home_timeline.process().await;
                        // The entry's only read: remove it.
                        let window = write_times
                            .borrow_mut()
                            .remove(&post_id)
                            .map(|t| sim3.now().since(t));
                        let mut found = mongo
                            .find_one(remote, "posts", &post_id)
                            .await
                            .expect("remote configured")
                            .is_some();
                        if found && has_media(&post_id) {
                            found = media_store
                                .find_one(remote, "media", &post_id)
                                .await
                                .expect("remote configured")
                                .is_some();
                        }
                        violations.borrow_mut().record(!found);
                        if let Some(w) = window {
                            windows.borrow_mut().record_duration(w);
                        }
                        if found {
                            let _ = timeline
                                .set(remote, &format!("timeline/{post_id}"), Bytes::new())
                                .await;
                        }
                    });
                }
            }
        });
    }

    // --- Writer: the compose-post request, driven open-loop. ---
    let gen = Rc::new(LineageIdGen::new(7));
    let writer = {
        let cfg2 = cfg.clone();
        let sim2 = sim.clone();
        let rt2 = rt.clone();
        let svcs2 = svcs.clone();
        let write_times2 = write_times.clone();
        let mongo2 = mongo.clone();
        let mongo_shim2 = mongo_shim.clone();
        let media_store2 = media_store.clone();
        let media_shim2 = media_shim.clone();
        let rabbit2 = rabbit.clone();
        let rabbit_shim2 = rabbit_shim.clone();
        run_open_loop(
            &sim.clone(),
            &rt,
            cfg.rate,
            cfg.duration,
            move |i, metrics| {
                let cfg3 = cfg2.clone();
                let sim3 = sim2.clone();
                let rt3 = rt2.clone();
                let svcs3 = svcs2.clone();
                let write_times3 = write_times2.clone();
                let mongo3 = mongo2.clone();
                let mongo_shim3 = mongo_shim2.clone();
                let media_store3 = media_store2.clone();
                let media_shim3 = media_shim2.clone();
                let rabbit3 = rabbit2.clone();
                let rabbit_shim3 = rabbit_shim2.clone();
                let gen3 = gen.clone();
                sim2.spawn_detached(async move {
                    let start = sim3.now();
                    let post_id = format!("p{i}");
                    rt3.hop(US, US).await;
                    svcs3.nginx.process().await;
                    rt3.hop(US, US).await;
                    svcs3.compose.process().await;
                    // Parallel fanout to the leaf services.
                    let s = svcs3.clone();
                    let rt4 = rt3.clone();
                    let h_text = sim3.spawn(async move {
                        rt4.hop(US, US).await;
                        s.text.process().await;
                        rt4.hop(US, US).await;
                        s.url_shorten.process().await;
                        rt4.hop(US, US).await;
                        s.user_mention.process().await;
                    });
                    let s = svcs3.clone();
                    let rt4 = rt3.clone();
                    let h_media = sim3.spawn(async move {
                        rt4.hop(US, US).await;
                        s.media.process().await;
                    });
                    let s = svcs3.clone();
                    let rt4 = rt3.clone();
                    let h_meta = sim3.spawn(async move {
                        rt4.hop(US, US).await;
                        s.unique_id.process().await;
                        rt4.hop(US, US).await;
                        s.user.process().await;
                    });
                    h_text.await;
                    h_media.await;
                    h_meta.await;
                    // Store the post and enqueue the home-timeline fanout.
                    rt3.hop(US, US).await;
                    svcs3.post_storage_svc.process().await;
                    if cfg3.antipode {
                        let mut lineage = Lineage::new(gen3.next_id());
                        sim3.sleep(SHIM_CPU).await;
                        mongo_shim3
                            .write(
                                US,
                                &format!("posts/{post_id}"),
                                Bytes::from(vec![0u8; 512]),
                                &mut lineage,
                            )
                            .await
                            .expect("US configured");
                        write_times3
                            .borrow_mut()
                            .insert(post_id.clone(), sim3.now());
                        if has_media(&post_id) {
                            sim3.sleep(SHIM_CPU).await;
                            media_shim3
                                .write(
                                    US,
                                    &format!("media/{post_id}"),
                                    Bytes::from(vec![0u8; 2048]),
                                    &mut lineage,
                                )
                                .await
                                .expect("US configured");
                        }
                        sim3.sleep(SHIM_CPU).await;
                        rabbit_shim3
                            .publish(US, Bytes::from(post_id), &mut lineage)
                            .await
                            .expect("US configured");
                    } else {
                        mongo3
                            .insert_one(US, "posts", &post_id, Bytes::from(vec![0u8; 512]))
                            .await
                            .expect("US configured");
                        write_times3
                            .borrow_mut()
                            .insert(post_id.clone(), sim3.now());
                        if has_media(&post_id) {
                            media_store3
                                .insert_one(US, "media", &post_id, Bytes::from(vec![0u8; 2048]))
                                .await
                                .expect("US configured");
                        }
                        rabbit3
                            .publish(US, Bytes::from(post_id))
                            .await
                            .expect("US configured");
                    }
                    metrics.record(sim3.now().since(start));
                });
            },
        )
    };

    let out_violations = *violations.borrow();
    let out_windows = windows.borrow().clone();
    let out_max_lineage = *max_lineage.borrow();
    SocialResult {
        writer,
        violations: out_violations,
        consistency_window: out_windows,
        max_lineage_bytes: out_max_lineage,
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
