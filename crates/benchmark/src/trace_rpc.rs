//! `trace_rpc`: Alibaba-like call graphs replayed through the RPC layer.
//!
//! Neither shipped application touches `Endpoint`/`RequestCtx`, so this
//! driver is the benchmark's own. A request walks its call graph in order:
//! every stateless call is an [`Endpoint::call`] into a pool of 16 services
//! (lineage injected into the baggage, sent as header text, extracted by the
//! server, returned and absorbed — base64 both ways), and the stateful calls
//! that follow it are
//! shim writes/publishes the callee makes to one of 8 stores, one per
//! `antipode_store` family. The request ends with a queue hand-off to EU,
//! where a consumer enforces the full lineage with [`Antipode::barrier`] and
//! reads the request's last key-value write back.
//!
//! The same code runs traced and untraced; with tracing off every
//! `Tracer` call is a pass-through.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, LineageIdGen};
use antipode_lineage::Baggage;
use antipode_runtime::{Endpoint, RequestCtx, Runtime, Service, ServiceSpec};
use antipode_sim::net::regions::{EU, US};
use antipode_sim::net::Network;
use antipode_sim::{RateCounter, Samples, Sim, SimTime};
use antipode_store::shim::{KvShim, QueueShim};
use antipode_store::{Amq, DynamoDb, DynamoDbStream, MongoDb, MySql, RabbitMq, Redis, Sns, S3};
use antipode_trace::{Call, CallGraph};
use bytes::Bytes;

use crate::driver::drive_open_loop;
use crate::host::host_ns;
use crate::outcome::{Outcome, WorkloadRun};
use crate::trace::{Op, Tracer, NO_REQ};

/// Offered load, requests per virtual second.
pub const RATE_RPS: f64 = 200.0;
/// Services in the RPC pool.
pub const SERVICES: usize = 16;
/// Calls replayed per request at most. The generator's size distribution is
/// log-normal with a tail to 5 000 calls; replaying those in full makes host
/// time per request hinge on whether a seed drew one, so the tail is cut
/// where 93 % of requests are untouched.
pub const MAX_CALLS: usize = 64;

/// The inputs, made from the seed before the run phase.
pub struct Inputs {
    graphs: Vec<Rc<[Call]>>,
    /// Host ns `generate_many` took.
    pub gen_ns: u64,
    /// Calls over all (truncated) graphs.
    pub calls: u64,
    /// Stateful calls among them.
    pub stateful_calls: u64,
}

impl Inputs {
    /// Generates `n` call graphs from `seed`.
    pub fn generate(seed: u64, n: usize) -> Inputs {
        let t0 = host_ns();
        let graphs: Vec<CallGraph> = antipode_trace::generate_many(seed, n);
        let gen_ns = host_ns() - t0;
        let graphs: Vec<Rc<[Call]>> = graphs
            .into_iter()
            .map(|mut g| {
                g.calls.truncate(MAX_CALLS);
                Rc::from(g.calls)
            })
            .collect();
        let calls = graphs.iter().map(|g| g.len() as u64).sum();
        let stateful_calls = graphs
            .iter()
            .map(|g| g.iter().filter(|c| c.stateful).count() as u64)
            .sum();
        Inputs {
            graphs,
            gen_ns,
            calls,
            stateful_calls,
        }
    }

    /// Number of call graphs, one per request.
    pub fn requests(&self) -> usize {
        self.graphs.len()
    }
}

/// One store per family, replicated US→EU.
struct Stores {
    kv: [KvShim; 5],
    queues: [QueueShim; 3],
}

/// Where a stateful call landed, if it was a key-value write.
type KvWrite = (usize, String);

impl Stores {
    /// Performs one stateful call against the store its service id maps to.
    async fn apply(
        &self,
        tr: &Tracer,
        req: u64,
        call: &Call,
        lineage: &mut antipode_lineage::Lineage,
    ) -> Option<KvWrite> {
        let slot = call.service as usize % (self.kv.len() + self.queues.len());
        if let Some(kv) = self.kv.get(slot) {
            let key = format!("k{}", call.service);
            tr.traced(
                Op::Write,
                req,
                kv.write(US, &key, Bytes::from_static(&[0u8; 64]), lineage),
            )
            .await
            .expect("US configured");
            Some((slot, key))
        } else {
            let q = &self.queues[slot - self.kv.len()];
            tr.traced(
                Op::Publish,
                req,
                q.publish(US, Bytes::from_static(&[0u8; 64]), lineage),
            )
            .await
            .expect("US configured");
            None
        }
    }
}

/// When a request was handed to the EU queue, and the write to read back.
type HandOff = (SimTime, Option<KvWrite>);

/// One leg of an RPC as the receiver sees it: the header text parsed back
/// and the lineage extracted from it.
fn on_wire(baggage: &Baggage) -> RequestCtx {
    RequestCtx::from_baggage(Baggage::from_header(&baggage.to_header()))
}

/// What an RPC asks its callee to do: the stateful calls `range` of `graph`.
#[derive(Clone)]
struct Work {
    req: u64,
    graph: Rc<[Call]>,
    range: std::ops::Range<usize>,
}

/// Replays the inputs open-loop at [`RATE_RPS`] and returns the run.
pub fn run(inputs: &Inputs, seed: u64, traced: bool) -> WorkloadRun {
    let sim = Sim::new(seed);
    let tr = if traced {
        Tracer::enabled(&sim)
    } else {
        Tracer::disabled()
    };
    let net = Rc::new(Network::global_triangle());
    let rt = Runtime::new(&sim, net.clone());
    let regions = [US, EU];

    let kv = |store: &antipode_store::KvStore| KvShim::new(store.clone());
    let qs = |queue: &antipode_store::QueueStore| QueueShim::new(queue.clone());
    let stores = Rc::new(Stores {
        kv: [
            kv(MySql::new(&sim, net.clone(), "rpc-mysql", &regions).store()),
            kv(DynamoDb::new(&sim, net.clone(), "rpc-dynamodb", &regions).store()),
            kv(Redis::new(&sim, net.clone(), "rpc-redis", &regions).store()),
            kv(S3::new(&sim, net.clone(), "rpc-s3", &regions).store()),
            kv(MongoDb::new(&sim, net.clone(), "rpc-mongodb", &regions).store()),
        ],
        queues: [
            qs(Sns::new(&sim, net.clone(), "rpc-sns", &regions).queue()),
            qs(Amq::new(&sim, net.clone(), "rpc-amq", &regions).queue()),
            qs(DynamoDbStream::new(&sim, net.clone(), "rpc-ddb-stream", &regions).queue()),
        ],
    });
    let handoff = qs(RabbitMq::new(&sim, net.clone(), "rpc-handoff", &regions).queue());

    let mut ap = Antipode::new(sim.clone());
    for shim in &stores.kv {
        ap.register(Rc::new(shim.clone()));
    }
    for shim in &stores.queues {
        ap.register(Rc::new(shim.clone()));
    }
    ap.register(Rc::new(handoff.clone()));

    let endpoints: Rc<Vec<Endpoint<Work, Option<KvWrite>>>> = Rc::new(
        (0..SERVICES)
            .map(|k| {
                let service = Service::new(&sim, ServiceSpec::new(format!("svc-{k}"), US));
                let stores = stores.clone();
                let tr = tr.clone();
                Endpoint::new(&rt, service, move |work: Work, mut ctx: RequestCtx| {
                    let stores = stores.clone();
                    let tr = tr.clone();
                    async move {
                        let mut last = None;
                        let lineage = ctx.lineage.lineage_mut().expect("caller sent a lineage");
                        for call in &work.graph[work.range.clone()] {
                            if let Some(w) = stores.apply(&tr, work.req, call, lineage).await {
                                last = Some(w);
                            }
                        }
                        (last, ctx)
                    }
                })
            })
            .collect(),
    );

    let violations = Rc::new(RefCell::new(RateCounter::new()));
    let windows = Rc::new(RefCell::new(Samples::new()));
    let max_lineage = Rc::new(RefCell::new(0usize));
    let handed_off: Rc<RefCell<HashMap<u64, HandOff>>> = Rc::new(RefCell::new(HashMap::new()));

    // --- EU consumer: barrier on the full lineage, then the read-back. ---
    {
        let sim2 = sim.clone();
        let tr = tr.clone();
        let stores = stores.clone();
        let handoff = handoff.clone();
        let ap = ap.clone();
        let violations = violations.clone();
        let windows = windows.clone();
        let max_lineage = max_lineage.clone();
        let handed_off = handed_off.clone();
        let worker = Service::new(&sim, ServiceSpec::new("rpc-consumer", EU).workers(64));
        sim.spawn(tr.clone().traced(Op::Request, NO_REQ, async move {
            let mut sub = handoff.subscribe(EU).expect("EU configured");
            while let Ok(Some(msg)) = tr.traced(Op::Recv, NO_REQ, sub.recv()).await {
                let req = u64::from_le_bytes(msg.payload[..8].try_into().expect("request id"));
                let lineage = msg.lineage.clone().expect("publisher attached a lineage");
                let sim3 = sim2.clone();
                let tr2 = tr.clone();
                let stores = stores.clone();
                let ap = ap.clone();
                let violations = violations.clone();
                let windows = windows.clone();
                let max_lineage = max_lineage.clone();
                let handed_off = handed_off.clone();
                let worker = worker.clone();
                sim2.spawn(tr.traced(Op::Request, req, async move {
                    let tr = tr2;
                    tr.traced(Op::Process, req, worker.process()).await;
                    {
                        let mut ml = max_lineage.borrow_mut();
                        *ml = (*ml).max(lineage.wire_size());
                    }
                    tr.note_lineage(req, &lineage);
                    let report = tr
                        .traced(Op::Barrier, req, ap.barrier(&lineage, EU))
                        .await
                        .expect("shims registered");
                    tr.note_barrier(&report);
                    let (sent_at, last_write) = handed_off
                        .borrow_mut()
                        .remove(&req)
                        .expect("hand-off recorded before publish");
                    windows
                        .borrow_mut()
                        .record_duration(sim3.now().since(sent_at));
                    if let Some((slot, key)) = last_write {
                        let found = tr
                            .traced(Op::Read, req, stores.kv[slot].read(EU, &key))
                            .await
                            .expect("EU configured")
                            .is_some();
                        violations.borrow_mut().record(!found);
                    }
                }));
            }
        }));
    }

    // --- Client: one request per call graph, open loop. ---
    let gen = Rc::new(LineageIdGen::new(11));
    let duration = Duration::from_secs_f64(inputs.requests() as f64 / RATE_RPS);
    let graphs: Rc<[Rc<[Call]>]> = Rc::from(inputs.graphs.as_slice());
    let (load, steps, loop_ns) = {
        let sim2 = sim.clone();
        let tr2 = tr.clone();
        drive_open_loop(&sim, &rt, &tr, RATE_RPS, duration, move |i, metrics| {
            // Poisson arrivals may issue a few more requests than there are
            // graphs; the corpus wraps around.
            let graph = graphs[i as usize % graphs.len()].clone();
            let sim3 = sim2.clone();
            let tr = tr2.clone();
            let stores = stores.clone();
            let endpoints = endpoints.clone();
            let handoff = handoff.clone();
            let handed_off = handed_off.clone();
            let gen = gen.clone();
            sim2.spawn(tr2.traced(Op::Request, i, async move {
                let start = sim3.now();
                let mut ctx = RequestCtx::root(&gen);
                let mut last_write = None;
                let mut at = 0;
                while at < graph.len() {
                    // A stateless call takes the stateful calls after it.
                    let run_end = |from: usize| {
                        from + graph[from..].iter().take_while(|c| c.stateful).count()
                    };
                    if graph[at].stateful {
                        let end = run_end(at);
                        let lineage = ctx.lineage.lineage_mut().expect("rooted");
                        for call in &graph[at..end] {
                            if let Some(w) = stores.apply(&tr, i, call, lineage).await {
                                last_write = Some(w);
                            }
                        }
                        at = end;
                    } else {
                        let end = run_end(at + 1);
                        let endpoint = &endpoints[graph[at].service as usize % SERVICES];
                        let work = Work {
                            req: i,
                            graph: graph.clone(),
                            range: at + 1..end,
                        };
                        // The simulated network would carry bytes, not Rust
                        // values. `Endpoint::call` hands the baggage over
                        // structurally, so each leg is put on the wire here:
                        // rendered to its header text and parsed back, as a
                        // real propagator does on every hop.
                        let request = tr.traced_sync(Op::Baggage, || on_wire(&ctx.outgoing()));
                        let (written, response) =
                            tr.traced(Op::Rpc, i, endpoint.call(&request, work)).await;
                        let response = tr.traced_sync(Op::Baggage, || on_wire(&response));
                        ctx.absorb_response(&response.baggage);
                        last_write = written.or(last_write);
                        at = end;
                    }
                }
                let mut lineage = ctx.current().expect("rooted").clone();
                handed_off.borrow_mut().insert(i, (sim3.now(), last_write));
                tr.traced(
                    Op::Publish,
                    i,
                    handoff.publish(US, Bytes::copy_from_slice(&i.to_le_bytes()), &mut lineage),
                )
                .await
                .expect("US configured");
                metrics.record(sim3.now().since(start));
            }));
        })
    };

    let outcome = Outcome::new(
        &load,
        *violations.borrow(),
        &windows.borrow(),
        *max_lineage.borrow(),
    );
    WorkloadRun {
        steps,
        loop_ns,
        trace: tr.finish(),
        ..WorkloadRun::of(outcome, true)
    }
}
