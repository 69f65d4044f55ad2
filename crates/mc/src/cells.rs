//! Model-checking *cells*: small, closed XCY scenarios the explorer can
//! execute repeatedly under different schedules.
//!
//! A cell is the model checker's unit of verification — the analogue of a
//! `loom::model` closure. It wires up a fresh simulation (stores, shims,
//! probes, checker), runs a fixed application scenario under a caller-chosen
//! [`Schedule`], and returns everything the oracle needs to judge the
//! interleaving: the checker's violation signatures, the happens-before
//! trace, and a human-readable event log.
//!
//! The canonical cell is **two writes × two regions** — the paper's
//! post-upload/notification pattern reduced to its essence: a writer in EU
//! writes a post to a KV store and publishes a notification to a queue; a
//! reader in US receives the notification and reads the post. Every latency
//! in the cell is a *constant* distribution, tuned so the post's replication
//! apply and the notification's delivery land on the **same virtual
//! instant** in US. In controlled mode the executor batch-fires same-instant
//! timers and hands their ordering to the schedule, so the race is decided
//! purely by scheduling — exactly the nondeterminism the explorer
//! enumerates. With the barrier (`barrier_basic`) every interleaving is
//! XCY-consistent; without it (`barrier_removed`) some interleavings let the
//! reader observe the notification before the post.

use std::cell::RefCell;
use std::rc::Rc;

use antipode::{Antipode, ConsistencyChecker, Lineage, LineageId, TraceEvent, UnknownStorePolicy};
use antipode_sim::dist::Dist;
use antipode_sim::net::regions::{EU, US};
use antipode_sim::{Network, Schedule, Sim};
use antipode_store::probe::VisibilityEvent;
use antipode_store::queue::{QueueProfile, QueueStore};
use antipode_store::replica::{KvProfile, KvStore};
use antipode_store::shim::{KvShim, QueueShim};
use bytes::Bytes;

use crate::oracle::{self, OracleVerdict};

/// A named, closed scenario the explorer can execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellSpec {
    /// Registry name (CLI `--cell` argument).
    pub name: &'static str,
    /// Whether the reader enforces its lineage with a real barrier before
    /// reading.
    pub barrier: bool,
    /// One-line description for `--list`.
    pub description: &'static str,
}

/// The two-writes × two-regions cell with the barrier in place: must be
/// XCY-consistent under *every* schedule.
pub const BARRIER_BASIC: CellSpec = CellSpec {
    name: "barrier_basic",
    barrier: true,
    description: "2 writes x 2 regions, reader barriers on the lineage (expect: exhausts clean)",
};

/// The ablated cell: barrier removed, so some interleavings violate XCY.
pub const BARRIER_REMOVED: CellSpec = CellSpec {
    name: "barrier_removed",
    barrier: false,
    description: "2 writes x 2 regions, barrier ablated (expect: violation witness)",
};

/// All registered cells.
pub const ALL_CELLS: &[CellSpec] = &[BARRIER_BASIC, BARRIER_REMOVED];

/// Looks a cell up by name.
pub fn cell(name: &str) -> Option<CellSpec> {
    ALL_CELLS.iter().copied().find(|c| c.name == name)
}

/// Everything one execution of a cell produced.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Whether both application tasks ran to completion. `false` means the
    /// run was cut short (schedule abort) and the verdict fields are
    /// meaningless.
    pub completed: bool,
    /// Oracle verdict: checker violation signatures plus the race-detector
    /// cross-check.
    pub verdict: OracleVerdict,
    /// Number of branching choice points (≥ 2 runnable tasks) the executor
    /// hit — the length of a full [`ReplaySchedule`] for this run.
    ///
    /// [`ReplaySchedule`]: antipode_sim::ReplaySchedule
    pub choice_points: u64,
    /// Human-readable event log (application + visibility events, in
    /// execution order) — the witness trace shown with a counterexample.
    pub trace: Vec<String>,
}

impl CellOutcome {
    /// Whether the oracle flagged at least one XCY violation.
    pub fn violated(&self) -> bool {
        !self.verdict.violations.is_empty()
    }
}

/// Runs `spec` once under `schedule` and returns the outcome.
///
/// Every run is hermetic: a fresh [`Sim`] (which also resets the
/// thread-local resource-id allocator, so access footprints are comparable
/// across runs), fresh stores, fresh checker. Two runs with the same
/// `(spec, seed, schedule decisions)` produce byte-identical outcomes.
pub fn run_cell(spec: &CellSpec, seed: u64, schedule: Box<dyn Schedule>) -> CellOutcome {
    let sim = Sim::new(seed);
    sim.set_schedule(schedule);

    // Constant latencies everywhere: the only nondeterminism left is the
    // schedule. Intra-region transit 0, inter-region transit 10ms.
    let net = Rc::new(Network::new(
        Dist::constant_ms(0.0),
        Dist::constant_ms(10.0),
    ));

    // Post write: commits locally at 2ms, replicates to US in one 10ms hop
    // => the US apply fires at t = 12ms.
    let posts = KvStore::new(
        &sim,
        net.clone(),
        "posts",
        &[EU, US],
        KvProfile {
            local_write: Dist::constant_ms(2.0),
            local_read: Dist::constant_ms(0.0),
            replication: Dist::constant_ms(0.0),
            rtt_hops: 1.0,
            retry_interval: Dist::constant_ms(5.0),
        },
    );

    // Notification publish: the writer publishes right after the post write
    // completes (t = 2ms); zero publish/delivery overhead plus the same
    // 10ms hop => the US delivery also fires at t = 12ms. Apply and
    // delivery tie, so their order is a pure scheduling choice.
    let notif = QueueStore::new(
        &sim,
        net.clone(),
        "notif",
        &[EU, US],
        QueueProfile {
            local_publish: Dist::constant_ms(0.0),
            delivery: Dist::constant_ms(0.0),
            local_delivery: Dist::constant_ms(0.0),
            rtt_hops: 1.0,
        },
    );

    // Trace shared by the probes (visibility transitions) and the
    // application tasks (writes, sends, recvs, checkpoints): one Vec, so
    // the order *is* execution order — what the race detector requires.
    let trace: Rc<RefCell<Vec<TraceEvent>>> = Rc::new(RefCell::new(Vec::new()));
    let log: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    install_probe(&posts, &notif, &trace, &log);

    let post_shim = KvShim::new(posts.clone());
    let notif_shim = QueueShim::new(notif.clone());
    let mut ap = Antipode::new(sim.clone()).with_policy(UnknownStorePolicy::Fail);
    ap.register(Rc::new(post_shim.clone()));
    ap.register(Rc::new(notif_shim.clone()));
    let checker = ConsistencyChecker::new(ap.clone());

    // Subscribe before spawning anything so no schedule can lose the
    // delivery to a not-yet-registered subscriber.
    let mut sub = notif_shim.subscribe(US).expect("US configured");

    let done: Rc<RefCell<u32>> = Rc::new(RefCell::new(0));

    // Writer (EU): write the post, then publish the notification carrying
    // the lineage.
    {
        let sim2 = sim.clone();
        let (post_shim, notif_shim) = (post_shim.clone(), notif_shim.clone());
        let (trace, log, done) = (trace.clone(), log.clone(), done.clone());
        sim.spawn_named("writer", async move {
            let mut lin = Lineage::new(LineageId(1));
            let wid = post_shim
                .write(EU, "post-1", Bytes::from_static(b"body"), &mut lin)
                .await
                .expect("EU configured");
            log.borrow_mut()
                .push(format!("{} writer: wrote posts/post-1", stamp(&sim2)));
            trace.borrow_mut().push(TraceEvent::Write {
                proc: "writer".into(),
                write: wid,
                at: sim2.now(),
            });
            let nid = notif_shim
                .publish(EU, Bytes::from_static(b"post-1"), &mut lin)
                .await
                .expect("EU configured");
            log.borrow_mut().push(format!(
                "{} writer: published notif msg-{}",
                stamp(&sim2),
                nid.version()
            ));
            trace.borrow_mut().push(TraceEvent::Write {
                proc: "writer".into(),
                write: nid.clone(),
                at: sim2.now(),
            });
            trace.borrow_mut().push(TraceEvent::Send {
                proc: "writer".into(),
                channel: "notif".into(),
                msg: nid.version(),
                at: sim2.now(),
            });
            *done.borrow_mut() += 1;
        });
    }

    // Reader (US): receive the notification, optionally barrier on its
    // lineage, checkpoint, read the post.
    {
        let sim2 = sim.clone();
        let post_shim = post_shim.clone();
        let (ap, checker) = (ap.clone(), checker.clone());
        let (trace, log, done) = (trace.clone(), log.clone(), done.clone());
        let with_barrier = spec.barrier;
        sim.spawn_named("reader", async move {
            let msg = sub
                .recv()
                .await
                .expect("queue open")
                .expect("valid envelope");
            log.borrow_mut().push(format!(
                "{} reader: received notif msg-{}",
                stamp(&sim2),
                msg.raw.id
            ));
            trace.borrow_mut().push(TraceEvent::Recv {
                proc: "reader".into(),
                channel: "notif".into(),
                msg: msg.raw.id,
                at: sim2.now(),
            });
            let lin = msg.lineage.clone().expect("publisher attached lineage");
            if with_barrier {
                ap.barrier(&lin, US).await.expect("barrier enforceable");
                log.borrow_mut()
                    .push(format!("{} reader: barrier satisfied", stamp(&sim2)));
            }
            checker.checkpoint("reader:recv", &lin, US);
            trace.borrow_mut().push(TraceEvent::Checkpoint {
                proc: "reader".into(),
                location: "reader:recv".into(),
                region: US,
                at: sim2.now(),
            });
            let got = post_shim.read(US, "post-1").await.expect("US configured");
            log.borrow_mut().push(format!(
                "{} reader: read posts/post-1 -> {}",
                stamp(&sim2),
                if got.is_some() { "found" } else { "MISSING" }
            ));
            *done.borrow_mut() += 1;
        });
    }

    sim.run();

    let completed = *done.borrow() == 2;
    let verdict = if completed {
        oracle::evaluate(&checker, &trace.borrow())
    } else {
        OracleVerdict::empty()
    };
    let trace_log = log.borrow().clone();
    CellOutcome {
        completed,
        verdict,
        choice_points: sim.choice_points(),
        trace: trace_log,
    }
}

fn stamp(sim: &Sim) -> String {
    format!("[{:>6}us]", sim.now().as_nanos() / 1_000)
}

/// Wires a visibility probe into both stores that appends to `trace` (for
/// the race detector) and `log` (for the human witness).
fn install_probe(
    posts: &KvStore,
    notif: &QueueStore,
    trace: &Rc<RefCell<Vec<TraceEvent>>>,
    log: &Rc<RefCell<Vec<String>>>,
) {
    let (trace, log) = (trace.clone(), log.clone());
    let probe: antipode_store::probe::VisibilityProbe = Rc::new(move |e: &VisibilityEvent| {
        let us = e.at().as_nanos() / 1_000;
        match e {
            VisibilityEvent::KvApplied {
                store,
                region,
                key,
                watermark,
                ..
            } => log.borrow_mut().push(format!(
                "[{us:>6}us] {store}@{}: applied {key} v{watermark}",
                region.name()
            )),
            VisibilityEvent::QueueDelivered {
                store, region, id, ..
            } => log.borrow_mut().push(format!(
                "[{us:>6}us] {store}@{}: delivered msg-{id}",
                region.name()
            )),
            VisibilityEvent::QueueAcked { .. } => {}
        }
        trace.borrow_mut().push(TraceEvent::Visibility(e.clone()));
    });
    posts.set_probe(Some(probe.clone()));
    notif.set_probe(Some(probe));
}
