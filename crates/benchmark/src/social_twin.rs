//! A twin of `antipode_app::social::run`: the same public calls in the same
//! order, each wrapped in a span, driven from the benchmark's own step loop.
//!
//! `social::run` is closed — it builds, drives and drops its simulation —
//! so layers cannot be measured around it. This copy exists only to be
//! traced; its virtual metrics and store counters must equal the
//! application's bit for bit (`apps.twin_drift`), and the tests hold it to
//! that. When the application changes, this file follows it; until then the
//! per-layer block is reported as stale.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, LineageIdGen};
use antipode_app::social::SocialConfig;
use antipode_lineage::Lineage;
use antipode_runtime::{Runtime, Service, ServiceSpec};
use antipode_sim::dist::Dist;
use antipode_sim::net::regions::US;
use antipode_sim::net::Network;
use antipode_sim::{RateCounter, Region, Samples, Sim, SimTime};
use antipode_store::shim::{KvShim, QueueShim};
use antipode_store::{MongoDb, RabbitMq, Redis};
use bytes::Bytes;

use crate::driver::drive_open_loop;
use crate::outcome::{Outcome, WorkloadRun};
use crate::trace::{Op, Tracer, NO_REQ};

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
    let svc = |name: &str, region: Region, workers: usize, median_ms: f64, sigma: f64| {
        Service::new(
            sim,
            ServiceSpec::new(name, region)
                .workers(workers)
                .service_time(Dist::lognormal_ms(median_ms, sigma)),
        )
    };
    Services {
        nginx: svc("nginx", US, 64, 0.5, 0.2),
        compose: svc("compose-post", US, 32, 2.0, 0.2),
        unique_id: svc("unique-id", US, 16, 0.3, 0.2),
        user: svc("user", US, 16, 1.0, 0.2),
        text: svc("text", US, 6, 35.0, 0.15),
        url_shorten: svc("url-shorten", US, 16, 2.0, 0.2),
        user_mention: svc("user-mention", US, 16, 2.0, 0.2),
        media: svc("media", US, 16, 3.0, 0.2),
        post_storage_svc: svc("post-storage", US, 16, 2.0, 0.2),
        write_home_timeline: svc("write-home-timeline", remote, 16, 3.0, 0.2),
    }
}

const SHIM_CPU: Duration = Duration::from_micros(150);

fn has_media(post_id: &str) -> bool {
    request_of(post_id).is_some_and(|n| n % 4 == 0)
}

/// The request index a post id (`p<i>`) was made from.
fn request_of(post_id: &str) -> Option<u64> {
    post_id
        .strip_prefix('p')
        .and_then(|n| n.parse::<u64>().ok())
}

/// Runs the compose-post experiment as `social::run` does.
pub fn run(cfg: &SocialConfig, traced: bool) -> WorkloadRun {
    let sim = Sim::new(cfg.seed);
    let tr = if traced {
        Tracer::enabled(&sim)
    } else {
        Tracer::disabled()
    };
    let net = Rc::new(Network::global_triangle());
    let rt = Runtime::new(&sim, net.clone());
    let regions = [US, cfg.remote];

    let mongo = MongoDb::new(&sim, net.clone(), "post-storage-mongodb", &regions);
    let rabbit = RabbitMq::new(&sim, net.clone(), "wht-rabbitmq", &regions);
    let timeline = Redis::new(&sim, net.clone(), "home-timeline-redis", &[cfg.remote]);
    let media_store = MongoDb::new(&sim, net.clone(), "media-mongodb", &regions);
    let mongo_shim = KvShim::new(mongo.store().clone());
    let media_shim = KvShim::new(media_store.store().clone());
    let rabbit_shim = QueueShim::new(rabbit.queue().clone());

    let svcs = Rc::new(start_services(&sim, cfg.remote));

    let mut ap = Antipode::new(sim.clone());
    ap.register(Rc::new(mongo_shim.clone()));
    ap.register(Rc::new(media_shim.clone()));
    ap.register(Rc::new(rabbit_shim.clone()));

    if cfg.congestion {
        let store = mongo.store().clone();
        let sim2 = sim.clone();
        let mut rng = sim.rng("congestion-driver");
        let horizon = cfg.duration + Duration::from_secs(60);
        sim.spawn(async move {
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
        let tr = tr.clone();
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
        sim.spawn(tr.clone().traced(Op::Request, NO_REQ, async move {
            if cfg2.antipode {
                let mut sub = rabbit_shim2
                    .subscribe(cfg2.remote)
                    .expect("remote configured");
                while let Ok(Some(msg)) = tr.traced(Op::Recv, NO_REQ, sub.recv()).await {
                    let post_id = String::from_utf8(msg.payload.to_vec()).expect("post id");
                    let req = request_of(&post_id).unwrap_or(NO_REQ);
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
                    let tr2 = tr.clone();
                    let remote = cfg2.remote;
                    sim2.spawn(tr.traced(Op::Request, req, async move {
                        let tr = tr2;
                        tr.traced(Op::Process, req, svcs.write_home_timeline.process())
                            .await;
                        if let Some(lin) = &lineage {
                            {
                                let mut ml = max_lineage.borrow_mut();
                                *ml = (*ml).max(lin.wire_size());
                            }
                            tr.note_lineage(req, lin);
                            let report = tr
                                .traced(Op::Barrier, req, ap.barrier(lin, remote))
                                .await
                                .expect("shims registered");
                            tr.note_barrier(&report);
                        }
                        let window = write_times
                            .borrow()
                            .get(&post_id)
                            .map(|t| sim3.now().since(*t));
                        let mut found = tr
                            .traced(
                                Op::Read,
                                req,
                                mongo_shim.read(remote, &format!("posts/{post_id}")),
                            )
                            .await
                            .expect("remote configured")
                            .is_some();
                        if found && has_media(&post_id) {
                            found = tr
                                .traced(
                                    Op::Read,
                                    req,
                                    media_shim.read(remote, &format!("media/{post_id}")),
                                )
                                .await
                                .expect("remote configured")
                                .is_some();
                        }
                        violations.borrow_mut().record(!found);
                        if let Some(w) = window {
                            windows.borrow_mut().record_duration(w);
                        }
                        if found {
                            let _ = tr
                                .traced(
                                    Op::Write,
                                    req,
                                    timeline.set(
                                        remote,
                                        &format!("timeline/{post_id}"),
                                        Bytes::new(),
                                    ),
                                )
                                .await;
                        }
                    }));
                }
            } else {
                let mut sub = rabbit2.consume(cfg2.remote).expect("remote configured");
                while let Some(msg) = tr.traced(Op::Recv, NO_REQ, sub.recv()).await {
                    let post_id = String::from_utf8(msg.payload.to_vec()).expect("post id");
                    let req = request_of(&post_id).unwrap_or(NO_REQ);
                    let svcs = svcs.clone();
                    let violations = violations.clone();
                    let windows = windows.clone();
                    let write_times = write_times.clone();
                    let mongo = mongo.clone();
                    let media_store = media_store2.clone();
                    let timeline = timeline.clone();
                    let sim3 = sim2.clone();
                    let tr2 = tr.clone();
                    let remote = cfg2.remote;
                    sim2.spawn(tr.traced(Op::Request, req, async move {
                        let tr = tr2;
                        tr.traced(Op::Process, req, svcs.write_home_timeline.process())
                            .await;
                        let window = write_times
                            .borrow()
                            .get(&post_id)
                            .map(|t| sim3.now().since(*t));
                        let mut found = tr
                            .traced(Op::Read, req, mongo.find_one(remote, "posts", &post_id))
                            .await
                            .expect("remote configured")
                            .is_some();
                        if found && has_media(&post_id) {
                            found = tr
                                .traced(
                                    Op::Read,
                                    req,
                                    media_store.find_one(remote, "media", &post_id),
                                )
                                .await
                                .expect("remote configured")
                                .is_some();
                        }
                        violations.borrow_mut().record(!found);
                        if let Some(w) = window {
                            windows.borrow_mut().record_duration(w);
                        }
                        if found {
                            let _ = tr
                                .traced(
                                    Op::Write,
                                    req,
                                    timeline.set(
                                        remote,
                                        &format!("timeline/{post_id}"),
                                        Bytes::new(),
                                    ),
                                )
                                .await;
                        }
                    }));
                }
            }
        }));
    }

    // --- Writer: the compose-post request, driven open-loop. ---
    let gen = Rc::new(LineageIdGen::new(7));
    let (writer, steps, loop_ns) = {
        let cfg2 = cfg.clone();
        let sim2 = sim.clone();
        let tr2 = tr.clone();
        let rt2 = rt.clone();
        let svcs2 = svcs.clone();
        let write_times2 = write_times.clone();
        let mongo2 = mongo.clone();
        let mongo_shim2 = mongo_shim.clone();
        let media_store2 = media_store.clone();
        let media_shim2 = media_shim.clone();
        let rabbit2 = rabbit.clone();
        let rabbit_shim2 = rabbit_shim.clone();
        drive_open_loop(
            &sim.clone(),
            &rt,
            &tr,
            cfg.rate,
            cfg.duration,
            move |i, metrics| {
                let cfg3 = cfg2.clone();
                let sim3 = sim2.clone();
                let tr = tr2.clone();
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
                sim2.spawn(tr2.traced(Op::Request, i, async move {
                    let start = sim3.now();
                    let post_id = format!("p{i}");
                    tr.traced(Op::Hop, i, rt3.hop(US, US)).await;
                    tr.traced(Op::Process, i, svcs3.nginx.process()).await;
                    tr.traced(Op::Hop, i, rt3.hop(US, US)).await;
                    tr.traced(Op::Process, i, svcs3.compose.process()).await;
                    // Parallel fanout to the leaf services.
                    let s = svcs3.clone();
                    let rt4 = rt3.clone();
                    let t = tr.clone();
                    let h_text = sim3.spawn(tr.traced(Op::Request, i, async move {
                        t.traced(Op::Hop, i, rt4.hop(US, US)).await;
                        t.traced(Op::Process, i, s.text.process()).await;
                        t.traced(Op::Hop, i, rt4.hop(US, US)).await;
                        t.traced(Op::Process, i, s.url_shorten.process()).await;
                        t.traced(Op::Hop, i, rt4.hop(US, US)).await;
                        t.traced(Op::Process, i, s.user_mention.process()).await;
                    }));
                    let s = svcs3.clone();
                    let rt4 = rt3.clone();
                    let t = tr.clone();
                    let h_media = sim3.spawn(tr.traced(Op::Request, i, async move {
                        t.traced(Op::Hop, i, rt4.hop(US, US)).await;
                        t.traced(Op::Process, i, s.media.process()).await;
                    }));
                    let s = svcs3.clone();
                    let rt4 = rt3.clone();
                    let t = tr.clone();
                    let h_meta = sim3.spawn(tr.traced(Op::Request, i, async move {
                        t.traced(Op::Hop, i, rt4.hop(US, US)).await;
                        t.traced(Op::Process, i, s.unique_id.process()).await;
                        t.traced(Op::Hop, i, rt4.hop(US, US)).await;
                        t.traced(Op::Process, i, s.user.process()).await;
                    }));
                    h_text.await;
                    h_media.await;
                    h_meta.await;
                    // Store the post and enqueue the home-timeline fanout.
                    tr.traced(Op::Hop, i, rt3.hop(US, US)).await;
                    tr.traced(Op::Process, i, svcs3.post_storage_svc.process())
                        .await;
                    if cfg3.antipode {
                        let mut lineage = Lineage::new(gen3.next_id());
                        sim3.sleep(SHIM_CPU).await;
                        tr.traced(
                            Op::Write,
                            i,
                            mongo_shim3.write(
                                US,
                                &format!("posts/{post_id}"),
                                Bytes::from(vec![0u8; 512]),
                                &mut lineage,
                            ),
                        )
                        .await
                        .expect("US configured");
                        write_times3
                            .borrow_mut()
                            .insert(post_id.clone(), sim3.now());
                        if has_media(&post_id) {
                            sim3.sleep(SHIM_CPU).await;
                            tr.traced(
                                Op::Write,
                                i,
                                media_shim3.write(
                                    US,
                                    &format!("media/{post_id}"),
                                    Bytes::from(vec![0u8; 2048]),
                                    &mut lineage,
                                ),
                            )
                            .await
                            .expect("US configured");
                        }
                        sim3.sleep(SHIM_CPU).await;
                        tr.traced(
                            Op::Publish,
                            i,
                            rabbit_shim3.publish(US, Bytes::from(post_id), &mut lineage),
                        )
                        .await
                        .expect("US configured");
                    } else {
                        tr.traced(
                            Op::Write,
                            i,
                            mongo3.insert_one(US, "posts", &post_id, Bytes::from(vec![0u8; 512])),
                        )
                        .await
                        .expect("US configured");
                        write_times3
                            .borrow_mut()
                            .insert(post_id.clone(), sim3.now());
                        if has_media(&post_id) {
                            tr.traced(
                                Op::Write,
                                i,
                                media_store3.insert_one(
                                    US,
                                    "media",
                                    &post_id,
                                    Bytes::from(vec![0u8; 2048]),
                                ),
                            )
                            .await
                            .expect("US configured");
                        }
                        tr.traced(Op::Publish, i, rabbit3.publish(US, Bytes::from(post_id)))
                            .await
                            .expect("US configured");
                    }
                    metrics.record(sim3.now().since(start));
                }));
            },
        )
    };

    let outcome = Outcome::new(
        &writer,
        *violations.borrow(),
        &windows.borrow(),
        *max_lineage.borrow(),
    );
    WorkloadRun {
        steps,
        loop_ns,
        trace: tr.finish(),
        ..WorkloadRun::of(outcome, cfg.antipode)
    }
}
