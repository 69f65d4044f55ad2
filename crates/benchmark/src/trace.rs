//! Outside-in tracing: spans around the calls into each layer's public
//! functions, recorded from the benchmark's own files.
//!
//! [`Tracer::traced`] is the `Traced<F: Future>` adaptor: it wraps one call
//! into a layer (or a whole request future), times every `poll` of it and
//! keeps a stack of the spans being polled, so a span's *self* time is its
//! poll time minus the poll time of the spans nested inside it. Summed over
//! all operations, self time equals the time spent inside outermost polls —
//! nothing is counted twice and nothing wrapped is lost.
//!
//! A disabled tracer makes every method a pass-through, so one driver serves
//! both the tracing-off end-to-end runs and the traced run.

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::rc::Rc;

use antipode::BarrierReport;
use antipode_lineage::Lineage;
use antipode_sim::Sim;

use crate::host::host_ns;
use crate::json::Json;

/// One wrapped operation, named `layer.op` after the crate that owns it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Op {
    /// The request future, its spawned branches and the consumer handlers
    /// (`antipode-app` code, or the benchmark's own driver for `trace_rpc`).
    Request,
    /// `OpenLoop::drive` — the arrival process.
    Drive,
    /// `Runtime::hop`.
    Hop,
    /// `Service::process`.
    Process,
    /// `Endpoint::call`.
    Rpc,
    /// `KvShim::write` and the raw-store writes of the Antipode-off variants.
    Write,
    /// `QueueShim::publish` / raw publish.
    Publish,
    /// `KvShim::read` / raw reads.
    Read,
    /// `ShimSubscription::recv` / raw receive.
    Recv,
    /// `Antipode::barrier`.
    Barrier,
    /// One leg of an RPC on the wire: `Baggage::to_header` →
    /// `Baggage::from_header` → lineage extraction (`trace_rpc` only).
    Baggage,
}

/// Number of [`Op`] variants.
pub const N_OPS: usize = 11;

impl Op {
    /// The `layer.op` name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Request => "apps.request",
            Op::Drive => "services.drive",
            Op::Hop => "services.hop",
            Op::Process => "services.process",
            Op::Rpc => "services.rpc",
            Op::Write => "datastores.write",
            Op::Publish => "datastores.publish",
            Op::Read => "datastores.read",
            Op::Recv => "datastores.recv",
            Op::Barrier => "core.barrier",
            Op::Baggage => "lineage.baggage",
        }
    }
}

/// Aggregate over every span of one operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpAgg {
    /// Spans that completed.
    pub calls: u64,
    /// Polls of those spans (a span is polled once per wake-up).
    pub polls: u64,
    /// Host ns inside this operation's polls, minus nested spans.
    pub self_ns: u64,
}

/// A fully recorded span of a sampled request.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Span id, unique within the run.
    pub id: u32,
    /// The span that created this one (0 = none).
    pub parent: u32,
    /// Request id shared by all spans of one request.
    pub req: u64,
    /// Operation.
    pub op: Op,
    /// Host ns of the first poll and of completion.
    pub host_ns: (u64, u64),
    /// Virtual ns of the first poll and of completion.
    pub virt_ns: (u64, u64),
}

/// Request id for spans that belong to no single request (dispatchers, the
/// arrival process). Never sampled.
pub const NO_REQ: u64 = u64::MAX;

/// Full spans are kept for one request in this many.
pub const SPAN_SAMPLE_EVERY: u64 = 1024;

/// Final lineages kept for the post-run baggage round-trip timing: the
/// first this many of one request in [`LINEAGE_SAMPLE_EVERY`].
const LINEAGE_SAMPLES_MAX: usize = 512;
const LINEAGE_SAMPLE_EVERY: u64 = 64;

/// Hot fields are `Cell`s: a traced poll touches only those. The enclosing
/// span's frame lives in the locals of [`Tracer::traced`]'s poll closure,
/// so there is no stack to push to.
#[derive(Default)]
struct State {
    sim: Option<Sim>,
    /// Span being polled (0 = none) and the time its nested spans took.
    cur_span: Cell<u32>,
    cur_child_ns: Cell<u64>,
    /// The latest boundary: its clock reading, and whether it was a span
    /// starting a poll or a span's poll returning `Pending`.
    last_ns: Cell<u64>,
    last_was_enter: Cell<bool>,
    last_was_pending_exit: Cell<bool>,
    ops: [Cell<OpAgg>; N_OPS],
    root_ns: Cell<u64>,
    next_id: Cell<u32>,
    cold: RefCell<Cold>,
}

#[derive(Default)]
struct Cold {
    spans: Vec<SpanRecord>,
    barriers: u64,
    barrier_already_visible: u64,
    barrier_waited_for: u64,
    barrier_blocked_ns: u64,
    lineage_deps: Vec<u32>,
    lineages: Vec<Lineage>,
}

/// The frame of the span that was being polled when a nested one started.
struct Outer {
    span: u32,
    child_ns: u64,
}

impl State {
    /// A span (or a synchronous section) starts a poll at `now`.
    fn enter(&self, span: u32, now: u64) -> Outer {
        self.last_ns.set(now);
        self.last_was_enter.set(true);
        self.last_was_pending_exit.set(false);
        Outer {
            span: self.cur_span.replace(span),
            child_ns: self.cur_child_ns.replace(0),
        }
    }

    /// The poll that started at `t0` ends at `now`. Charges the span's self
    /// time to `op` and its whole time to the enclosing span.
    fn exit(&self, op: Op, outer: Outer, t0: u64, now: u64, pending: bool, ready: bool) {
        let elapsed = now - t0;
        let agg = &self.ops[op as usize];
        let mut a = agg.get();
        a.polls += 1;
        a.calls += u64::from(ready);
        a.self_ns += elapsed.saturating_sub(self.cur_child_ns.get());
        agg.set(a);
        self.cur_span.set(outer.span);
        self.cur_child_ns.set(outer.child_ns + elapsed);
        if outer.span == 0 {
            self.root_ns.set(self.root_ns.get() + elapsed);
        }
        self.last_ns.set(now);
        self.last_was_enter.set(false);
        self.last_was_pending_exit.set(pending);
    }

    fn virt_ns(&self) -> u64 {
        self.sim.as_ref().map_or(0, |sim| sim.now().as_nanos())
    }
}

/// Everything a traced run observed, detached from the live tracer.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Per-operation aggregates, indexed by `Op as usize`.
    pub ops: [OpAgg; N_OPS],
    /// Host ns inside outermost polls (= Σ `self_ns` over all operations).
    pub root_ns: u64,
    /// Sampled spans.
    pub spans: Vec<SpanRecord>,
    /// Completed barriers, and what their reports said.
    pub barriers: u64,
    /// Σ `BarrierReport::already_visible`.
    pub barrier_already_visible: u64,
    /// Σ `BarrierReport::waited_for`.
    pub barrier_waited_for: u64,
    /// Σ `BarrierReport::blocked`, virtual ns.
    pub barrier_blocked_ns: u64,
    /// Dependencies in each request's final lineage.
    pub lineage_deps: Vec<u32>,
    /// A sample of final lineages.
    pub lineages: Vec<Lineage>,
}

impl TraceSummary {
    /// The aggregate of one operation.
    pub fn op(&self, op: Op) -> OpAgg {
        self.ops[op as usize]
    }

    /// Σ self time over all operations.
    pub fn attributed_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.self_ns).sum()
    }

    /// Adds another run's observations (the cells of a sweep).
    pub fn merge(&mut self, other: TraceSummary) {
        for (a, b) in self.ops.iter_mut().zip(other.ops) {
            a.calls += b.calls;
            a.polls += b.polls;
            a.self_ns += b.self_ns;
        }
        self.root_ns += other.root_ns;
        // Each cell numbers its spans from 1; keep ids unique in the merge.
        let base = self.spans.iter().map(|s| s.id).max().unwrap_or(0);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
        self.barriers += other.barriers;
        self.barrier_already_visible += other.barrier_already_visible;
        self.barrier_waited_for += other.barrier_waited_for;
        self.barrier_blocked_ns += other.barrier_blocked_ns;
        self.lineage_deps.extend(other.lineage_deps);
        self.lineages.extend(other.lineages);
    }

    /// The sampled spans as a JSON array, for `trace-<workload>.json`.
    pub fn spans_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Num(f64::from(s.id))),
                        ("parent", Json::Num(f64::from(s.parent))),
                        ("req", Json::Num(s.req as f64)),
                        ("op", Json::Str(s.op.name().into())),
                        ("host_start_ns", Json::Num(s.host_ns.0 as f64)),
                        ("host_end_ns", Json::Num(s.host_ns.1 as f64)),
                        ("virt_start_ns", Json::Num(s.virt_ns.0 as f64)),
                        ("virt_end_ns", Json::Num(s.virt_ns.1 as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// The benchmark's observation handle. Cheap to clone; disabled by default.
#[derive(Clone, Default)]
pub struct Tracer {
    state: Option<Rc<State>>,
}

impl Tracer {
    /// A tracer that records nothing and costs one branch per call.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A recording tracer; `sim` supplies the virtual clock of sampled spans.
    pub fn enabled(sim: &Sim) -> Self {
        Tracer {
            state: Some(Rc::new(State {
                sim: Some(sim.clone()),
                next_id: Cell::new(1),
                ..State::default()
            })),
        }
    }

    /// Wraps one call into a layer. The returned future polls `fut`, timing
    /// each poll; nested `traced` futures polled from inside it are charged
    /// to themselves, not to this span.
    ///
    /// Every boundary costs a clock read, and a nested poll has four. Two of
    /// them are shared with the boundary just before, where sequential async
    /// code guarantees that no work lies between: a span that is polled
    /// *again* right after the enclosing span's poll began (the enclosing
    /// future resumes at the `.await` it was parked on), and a span whose
    /// poll returns `Pending` right after a nested span's did (it can only
    /// pass the `Pending` up).
    pub fn traced<F: Future>(&self, op: Op, req: u64, fut: F) -> impl Future<Output = F::Output> {
        // The creating span is the causal parent even when the new future is
        // handed to `Sim::spawn` and polled from the executor later.
        let ids = self.state.as_ref().map(|st| {
            let id = st.next_id.replace(st.next_id.get() + 1);
            (st.clone(), id, st.cur_span.get())
        });
        async move {
            let Some((st, id, parent)) = ids else {
                return fut.await;
            };
            let sampled = req != NO_REQ && req.is_multiple_of(SPAN_SAMPLE_EVERY);
            let mut fut = pin!(fut);
            let mut first: Option<(u64, u64)> = None;
            let mut polled = false;
            poll_fn(move |cx| {
                let t0 = if polled && st.last_was_enter.get() {
                    st.last_ns.get()
                } else {
                    host_ns()
                };
                polled = true;
                let outer = st.enter(id, t0);
                if sampled && first.is_none() {
                    first = Some((t0, st.virt_ns()));
                }
                let out = fut.as_mut().poll(cx);
                let t1 = if out.is_pending() && st.last_was_pending_exit.get() {
                    st.last_ns.get()
                } else {
                    host_ns()
                };
                st.exit(op, outer, t0, t1, out.is_pending(), out.is_ready());
                if let (true, Some((h0, v0))) = (out.is_ready(), first) {
                    st.cold.borrow_mut().spans.push(SpanRecord {
                        id,
                        parent,
                        req,
                        op,
                        host_ns: (h0, t1),
                        virt_ns: (v0, st.virt_ns()),
                    });
                }
                out
            })
            .await
        }
    }

    /// Times a synchronous piece of work as one call of `op` (the per-arrival
    /// closure that clones handles and spawns the request; a header codec).
    pub fn traced_sync<T>(&self, op: Op, work: impl FnOnce() -> T) -> T {
        let Some(st) = &self.state else {
            return work();
        };
        let t0 = host_ns();
        // Spans created inside keep the enclosing span as their parent.
        let outer = st.enter(st.cur_span.get(), t0);
        let out = work();
        st.exit(op, outer, t0, host_ns(), false, true);
        out
    }

    /// Records what a completed barrier reported.
    pub fn note_barrier(&self, report: &BarrierReport) {
        if let Some(st) = &self.state {
            let mut c = st.cold.borrow_mut();
            c.barriers += 1;
            c.barrier_already_visible += report.already_visible as u64;
            c.barrier_waited_for += report.waited_for as u64;
            c.barrier_blocked_ns += report.blocked.as_nanos() as u64;
        }
    }

    /// Records a request's final lineage (the one its barrier enforced).
    /// Only uncounted accessors are used here: asking a lineage for its wire
    /// size bumps `antipode_lineage::stats`, and a traced run must leave the
    /// counters exactly as an untraced one does. Sizes are taken from the
    /// sampled clones after the counters have been read.
    pub fn note_lineage(&self, req: u64, lineage: &Lineage) {
        if let Some(st) = &self.state {
            let mut c = st.cold.borrow_mut();
            c.lineage_deps.push(lineage.len() as u32);
            if req.is_multiple_of(LINEAGE_SAMPLE_EVERY) && c.lineages.len() < LINEAGE_SAMPLES_MAX {
                c.lineages.push(lineage.clone());
            }
        }
    }

    /// Detaches everything recorded so far. A disabled tracer yields an
    /// empty summary.
    pub fn finish(&self) -> TraceSummary {
        let Some(st) = &self.state else {
            return TraceSummary::default();
        };
        assert!(st.cur_span.get() == 0, "finish() called from inside a span");
        let c = std::mem::take(&mut *st.cold.borrow_mut());
        let mut ops = [OpAgg::default(); N_OPS];
        for (out, cell) in ops.iter_mut().zip(&st.ops) {
            *out = cell.get();
        }
        TraceSummary {
            ops,
            root_ns: st.root_ns.get(),
            spans: c.spans,
            barriers: c.barriers,
            barrier_already_visible: c.barrier_already_visible,
            barrier_waited_for: c.barrier_waited_for,
            barrier_blocked_ns: c.barrier_blocked_ns,
            lineage_deps: c.lineage_deps,
            lineages: c.lineages,
        }
    }
}
