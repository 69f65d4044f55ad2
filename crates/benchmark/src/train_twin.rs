//! A twin of `antipode_app::train_ticket::run`; see `social_twin` for why
//! twins exist and what they must preserve.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, LineageIdGen};
use antipode_app::train_ticket::TrainTicketConfig;
use antipode_lineage::Lineage;
use antipode_runtime::{Runtime, Service, ServiceSpec};
use antipode_sim::dist::Dist;
use antipode_sim::net::regions::US;
use antipode_sim::net::Network;
use antipode_sim::sync::Semaphore;
use antipode_sim::{RateCounter, Samples, Sim, SimTime};
use antipode_store::replica::KvProfile;
use antipode_store::{MySql, MySqlShim, RabbitMq, RabbitMqShim};
use bytes::Bytes;

use crate::driver::{drive_open_loop, step_to_quiescence};
use crate::outcome::{Outcome, WorkloadRun};
use crate::trace::{Op, Tracer, NO_REQ};

fn local_mysql_profile() -> KvProfile {
    KvProfile {
        local_write: Dist::lognormal_ms(1.0, 0.3),
        local_read: Dist::lognormal_ms(1.0, 0.3),
        replication: Dist::constant_ms(0.0),
        rtt_hops: 0.0,
        retry_interval: Dist::constant_ms(100.0),
    }
}

/// The request index an order id (`order-<i>`) was made from.
fn request_of(order_id: &str) -> u64 {
    order_id
        .strip_prefix("order-")
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap_or(NO_REQ)
}

/// Runs the cancel-ticket experiment as `train_ticket::run` does.
pub fn run(cfg: &TrainTicketConfig, traced: bool) -> WorkloadRun {
    let sim = Sim::new(cfg.seed);
    let tr = if traced {
        Tracer::enabled(&sim)
    } else {
        Tracer::disabled()
    };
    let net = Rc::new(Network::global_triangle());
    let rt = Runtime::new(&sim, net.clone());

    let orders = MySql::with_profile(
        &sim,
        net.clone(),
        "ts-order-mysql",
        &[US],
        local_mysql_profile(),
    );
    let payments = MySql::with_profile(
        &sim,
        net.clone(),
        "ts-payment-mysql",
        &[US],
        local_mysql_profile(),
    );
    let refund_queue = RabbitMq::new(&sim, net.clone(), "ts-refund-queue", &[US]);
    let orders_shim = MySqlShim::new(&orders);
    let payments_shim = MySqlShim::new(&payments);
    let refund_shim = RabbitMqShim::new_work_queue(&refund_queue);

    let mut ap = Antipode::new(sim.clone());
    ap.register(Rc::new(orders_shim.clone()));
    ap.register(Rc::new(payments_shim.clone()));
    ap.register(Rc::new(refund_shim.clone()));

    let svc = |name: &str, workers: usize, service_time: Dist| {
        Service::new(
            &sim,
            ServiceSpec::new(name, US)
                .workers(workers)
                .service_time(service_time),
        )
    };
    let gateway_pool = Semaphore::new(12);
    let gateway_think = svc("gateway", 12, Dist::lognormal_ms(1.5, 0.2));
    let cancel_svc = svc("cancel", 16, Dist::lognormal_ms(3.0, 0.2));
    let order_svc = svc("order", 16, Dist::lognormal_ms(4.0, 0.2));
    let station_svc = svc("station", 16, Dist::lognormal_ms(2.0, 0.2));
    let notify_svc = svc("notify", 16, Dist::lognormal_ms(2.5, 0.2));
    let payment_svc = svc(
        "payment",
        8,
        Dist::Mix(vec![
            (0.992, Dist::lognormal_ms(1.2, 0.2)),
            (0.008, Dist::lognormal_ms(15.0, 0.5)),
        ]),
    );

    let violations = Rc::new(RefCell::new(RateCounter::new()));
    let windows = Rc::new(RefCell::new(Samples::new()));
    let refund_done: Rc<RefCell<HashMap<String, SimTime>>> = Rc::new(RefCell::new(HashMap::new()));

    // --- Payment service: the refund-task consumer. ---
    {
        let sim2 = sim.clone();
        let tr = tr.clone();
        let payment_svc = payment_svc.clone();
        let payments2 = payments.clone();
        let payments_shim2 = payments_shim.clone();
        let refund_shim2 = refund_shim.clone();
        let refund_queue2 = refund_queue.clone();
        let refund_done2 = refund_done.clone();
        let antipode = cfg.antipode;
        sim.spawn(tr.clone().traced(Op::Request, NO_REQ, async move {
            if antipode {
                let mut sub = refund_shim2.consume(US).expect("US configured");
                while let Ok(Some(msg)) = tr.traced(Op::Recv, NO_REQ, sub.recv()).await {
                    let order_id = String::from_utf8(msg.payload.to_vec()).expect("order id");
                    let req = request_of(&order_id);
                    let payment_svc = payment_svc.clone();
                    let payments_shim = payments_shim2.clone();
                    let refund_shim = refund_shim2.clone();
                    let refund_done = refund_done2.clone();
                    let sim3 = sim2.clone();
                    let tr2 = tr.clone();
                    sim2.spawn(tr.traced(Op::Request, req, async move {
                        let tr = tr2;
                        tr.traced(Op::Process, req, payment_svc.process()).await;
                        let mut lin = msg
                            .lineage
                            .clone()
                            .unwrap_or_else(|| Lineage::new(antipode_lineage::LineageId(0)));
                        tr.traced(
                            Op::Write,
                            req,
                            payments_shim.insert(
                                US,
                                "refunds",
                                &order_id,
                                Bytes::from_static(b"refunded"),
                                &mut lin,
                            ),
                        )
                        .await
                        .expect("US configured");
                        refund_done.borrow_mut().insert(order_id, sim3.now());
                        refund_shim.ack(US, &msg).expect("US configured");
                    }));
                }
            } else {
                let mut sub = refund_queue2.consume(US).expect("US configured");
                while let Some(msg) = tr.traced(Op::Recv, NO_REQ, sub.recv()).await {
                    let order_id = String::from_utf8(msg.payload.to_vec()).expect("order id");
                    let req = request_of(&order_id);
                    let payment_svc = payment_svc.clone();
                    let payments = payments2.clone();
                    let refund_done = refund_done2.clone();
                    let sim3 = sim2.clone();
                    let tr2 = tr.clone();
                    sim2.spawn(tr.traced(Op::Request, req, async move {
                        let tr = tr2;
                        tr.traced(Op::Process, req, payment_svc.process()).await;
                        tr.traced(
                            Op::Write,
                            req,
                            payments.insert(
                                US,
                                "refunds",
                                &order_id,
                                Bytes::from_static(b"refunded"),
                            ),
                        )
                        .await
                        .expect("US configured");
                        refund_done.borrow_mut().insert(order_id, sim3.now());
                    }));
                }
            }
        }));
    }

    // --- Client + gateway: the cancel request. ---
    let gen = Rc::new(LineageIdGen::new(3));
    let (client, mut steps, mut loop_ns) = {
        let cfg2 = cfg.clone();
        let sim2 = sim.clone();
        let tr2 = tr.clone();
        let violations = violations.clone();
        let windows = windows.clone();
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
                let gateway_pool = gateway_pool.clone();
                let gateway_think = gateway_think.clone();
                let cancel_svc = cancel_svc.clone();
                let order_svc = order_svc.clone();
                let station_svc = station_svc.clone();
                let notify_svc = notify_svc.clone();
                let orders = orders.clone();
                let orders_shim = orders_shim.clone();
                let refund_queue = refund_queue.clone();
                let refund_shim = refund_shim.clone();
                let payments = payments.clone();
                let payments_shim = payments_shim.clone();
                let violations = violations.clone();
                let windows = windows.clone();
                let refund_done = refund_done.clone();
                let ap = ap.clone();
                let gen = gen.clone();
                sim2.spawn(tr2.traced(Op::Request, i, async move {
                    let start = sim3.now();
                    let order_id = format!("order-{i}");
                    let _slot = gateway_pool.acquire().await;
                    tr.traced(Op::Process, i, gateway_think.process()).await;
                    tr.traced(Op::Process, i, cancel_svc.process()).await;
                    tr.traced(Op::Process, i, station_svc.process()).await;
                    tr.traced(Op::Process, i, order_svc.process()).await;
                    let _ = tr
                        .traced(Op::Read, i, orders.select(US, "orders", &order_id))
                        .await;
                    tr.traced(Op::Process, i, notify_svc.process()).await;
                    let order_written_at;
                    if cfg3.antipode {
                        let mut lineage = Lineage::new(gen.next_id());
                        tr.traced(
                            Op::Write,
                            i,
                            orders_shim.insert(
                                US,
                                "orders",
                                &order_id,
                                Bytes::from_static(b"cancelled"),
                                &mut lineage,
                            ),
                        )
                        .await
                        .expect("US configured");
                        order_written_at = sim3.now();
                        tr.traced(
                            Op::Publish,
                            i,
                            refund_shim.publish(US, Bytes::from(order_id.clone()), &mut lineage),
                        )
                        .await
                        .expect("US configured");
                        tr.note_lineage(i, &lineage);
                        let report = tr
                            .traced(Op::Barrier, i, ap.barrier(&lineage, US))
                            .await
                            .expect("shims registered");
                        tr.note_barrier(&report);
                    } else {
                        tr.traced(
                            Op::Write,
                            i,
                            orders.insert(
                                US,
                                "orders",
                                &order_id,
                                Bytes::from_static(b"cancelled"),
                            ),
                        )
                        .await
                        .expect("US configured");
                        order_written_at = sim3.now();
                        tr.traced(
                            Op::Publish,
                            i,
                            refund_queue.publish(US, Bytes::from(order_id.clone())),
                        )
                        .await
                        .expect("US configured");
                    }
                    let responded_at = sim3.now();
                    metrics.record_at(responded_at.since(start), responded_at);
                    drop(_slot);

                    sim3.sleep(Duration::from_millis(8)).await;
                    let refund_visible = if cfg3.antipode {
                        tr.traced(Op::Read, i, payments_shim.select(US, "refunds", &order_id))
                            .await
                            .expect("US configured")
                            .is_some()
                    } else {
                        tr.traced(Op::Read, i, payments.select(US, "refunds", &order_id))
                            .await
                            .expect("US configured")
                            .is_some()
                    };
                    violations.borrow_mut().record(!refund_visible);
                    if let Some(done) = refund_done.borrow().get(&order_id) {
                        windows
                            .borrow_mut()
                            .record_duration(done.max(&order_written_at).since(order_written_at));
                    }
                }));
            },
        )
    };
    // The application calls `sim.run()` once more after the open loop.
    let (s, ns) = step_to_quiescence(&sim);
    steps += s;
    loop_ns += ns;

    let outcome = Outcome::new(
        &client,
        *violations.borrow(),
        &windows.borrow(),
        0, // as the application: it does not report lineage sizes
    );
    WorkloadRun {
        steps,
        loop_ns,
        trace: tr.finish(),
        ..WorkloadRun::of(outcome, cfg.antipode)
    }
}
