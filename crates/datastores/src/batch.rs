//! Batched replication fan-out: the engine's hot-path send machinery.
//!
//! The original pipeline spawned one executor task per `(write, destination)`
//! send and paid one wake per retry hop — at million-write scale the
//! simulator's time is spent in the executor, not the model. This module
//! replaces per-send tasks with one *pair queue* per `(origin, dest)` region
//! pair: a commit samples each send's first phase synchronously (same RNG
//! stream, same draw order as the old spawn-per-send path — the spawned tasks
//! took their first samples at the commit instant anyway), pushes an entry,
//! and arms at most one timer wake per pair. When the wake fires, every due
//! entry of the pair advances in one virtual-time event, and entries that
//! reached delivery are applied as one batch (`Engine::apply_batch`): one
//! fault-plan consultation, one replica borrow, one WAL index pass.
//!
//! ## Determinism
//!
//! `seed + plan ⇒ identical trace` is preserved, and the unbatched ablation
//! (`Engine::set_batching(false)`) produces the *same* trace while paying
//! one executor event per entry:
//!
//! - Phase-one samples are drawn at commit time in destination order — in
//!   both modes, by the same code.
//! - Retry/arrival samples are drawn when an entry's `due` instant arrives,
//!   in `(due, enqueue seq)` order. A wake fires exactly at the queue's
//!   earliest `due`, so every entry it finds due shares that instant and
//!   the order reduces to enqueue order. Batched mode pops all due entries
//!   of a pair in one event; unbatched mode pops exactly one per event and
//!   immediately re-arms — same entries, same order, same draw sequence.
//! - An entry that re-samples keeps its enqueue seq and sits out the rest
//!   of the round: it returns to the queue only once no due entry is left,
//!   so even a zero backoff (`due == now`) defers it to the next round in
//!   both modes (see `PairQueue`).
//! - Applies never consume RNG and samples never read replica state, so the
//!   relative order of "draw for entry B" vs "apply entry A" (the only thing
//!   the two modes reorder within an instant) is unobservable.
//! - Fault predicates are pure functions of the plan and the current
//!   instant, so one per-batch consultation at delivery equals N per-entry
//!   consultations at the same instant.
//!
//! The satellite suite (`tests/engine_batching.rs`) pins this equivalence on
//! visibility-probe traces across seeds and chaos plans.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::rc::Rc;

use antipode_sim::{Region, SimTime};
use bytes::Bytes;

use crate::engine::{ApplyItem, Engine};
use crate::recovery::Hint;
use crate::stats;
use crate::substrate::{RetryStyle, Substrate};

/// Where one queued send is in its retry state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SendPhase {
    /// `ResampleLag`: the last sample dropped the send; re-run the full
    /// (drop, backoff | lag) lottery at `due`.
    Retry,
    /// `ResampleLag`: in flight; deliver at `due`.
    Transit,
    /// `LagOnce`: the message arrives at `due`, where the drop lottery runs
    /// (queue deliveries sample their lag exactly once).
    Arrive,
    /// `LagOnce`: dropped on arrival; the redelivery lottery re-runs at
    /// `due`.
    Redeliver,
}

/// One queued replication send: everything `finish_send` needs, plus the
/// retry state machine position. `key`/`value` are refcount bumps off the
/// commit's allocations — a queued entry allocates nothing of its own.
pub(crate) struct PendingSend {
    pub(crate) key: Rc<str>,
    pub(crate) version: u64,
    pub(crate) value: Bytes,
    pub(crate) committed_at: SimTime,
    /// Origin crash epoch captured at commit; a mismatch at delivery means
    /// the sending process died (see [`crate::recovery`]).
    pub(crate) origin_epoch: u64,
    pub(crate) phase: SendPhase,
    pub(crate) due: SimTime,
    /// Enqueue order within the pair, kept across re-samples: the tie-break
    /// that makes the heap pop same-instant entries in the order a FIFO
    /// scan would visit them.
    seq: u64,
}

/// Heap order: the *earliest* `(due, seq)` is the greatest element, so
/// `BinaryHeap` (a max-heap) pops it first. `seq` is unique per pair.
impl Ord for PendingSend {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}
impl PartialOrd for PendingSend {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for PendingSend {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for PendingSend {}

/// The send queue of one `(origin, dest)` region pair, with at most one
/// armed timer wake.
///
/// Entries live in a heap keyed by `(due, seq)`, so a wake costs
/// O(due · log depth) instead of a scan of everything in flight. A *round*
/// is the set of entries due at one instant: batched mode pops a whole
/// round in one wake, unbatched mode one entry per wake. Entries that
/// re-sample during a round park in `resampled` and rejoin the heap when the
/// round is over — never sooner, or a zero-backoff retry would be popped
/// again ahead of its round-mates in unbatched mode only.
#[derive(Default)]
pub(crate) struct PairQueue {
    queue: BinaryHeap<PendingSend>,
    /// Re-sampled entries of the round in progress. Drained back into
    /// `queue` at round end and reused, so a flush allocates nothing once
    /// warm.
    resampled: Vec<PendingSend>,
    next_seq: u64,
    /// The armed wake's (deadline, generation); stale wake tasks whose
    /// generation no longer matches retire without flushing.
    armed: Option<(SimTime, u64)>,
    generation: u64,
}

impl PairQueue {
    fn len(&self) -> usize {
        self.queue.len() + self.resampled.len()
    }

    /// Tightens the armed wake to `due` if it is not already at least that
    /// early; returns the new generation to arm a flusher for, or `None`
    /// when the existing wake covers `due`.
    fn tighten(&mut self, due: SimTime) -> Option<u64> {
        if matches!(self.armed, Some((at, _)) if at <= due) {
            return None;
        }
        self.generation += 1;
        self.armed = Some((due, self.generation));
        Some(self.generation)
    }
}

impl<S: Substrate> Engine<S> {
    /// Replaces the fan-out loop of [`Engine::commit`]: samples each
    /// destination's first phase (in destination order, the draw order of
    /// the old spawn-per-send path) and queues one [`PendingSend`] per
    /// destination on its pair queue.
    pub(crate) fn enqueue_sends(
        &self,
        origin: Region,
        origin_epoch: u64,
        key: &Rc<str>,
        version: u64,
        value: &Bytes,
        committed_at: SimTime,
    ) {
        let applies_at_commit = self.inner.substrate.origin_applies_at_commit();
        for &dest in self.inner.regions.iter() {
            if dest == origin && applies_at_commit {
                continue;
            }
            let (phase, due) = self.sample_initial(origin, dest, committed_at);
            // Push and arm under one pair-map borrow; the flusher task is
            // spawned outside it (spawning touches only executor state).
            let arm = {
                let mut pairs = self.inner.pairs.borrow_mut();
                let pq = pairs.entry((origin, dest)).or_default();
                let seq = pq.next_seq;
                pq.next_seq += 1;
                pq.queue.push(PendingSend {
                    key: Rc::clone(key),
                    version,
                    value: value.clone(),
                    committed_at,
                    origin_epoch,
                    phase,
                    due,
                    seq,
                });
                pq.tighten(due)
            };
            if let Some(generation) = arm {
                self.spawn_flusher(origin, dest, due, generation);
            }
        }
    }

    /// A send's first phase, sampled at commit time.
    fn sample_initial(&self, origin: Region, dest: Region, now: SimTime) -> (SendPhase, SimTime) {
        match self.inner.substrate.retry_style() {
            RetryStyle::ResampleLag => self.sample_resample(origin, dest, now),
            RetryStyle::LagOnce => {
                let lag = {
                    let mut rng = self.inner.rng.borrow_mut();
                    self.inner.substrate.propagation_lag(
                        &mut rng,
                        &self.inner.net,
                        &self.inner.faults,
                        now,
                        &self.inner.name,
                        origin,
                        dest,
                    )
                };
                (SendPhase::Arrive, now + lag)
            }
        }
    }

    /// One `ResampleLag` lottery at `now`: dropped sends back off and
    /// re-sample; survivors enter transit with a freshly sampled lag. Only
    /// the distribution actually used is drawn, so a pair's sample cost is
    /// one draw per hop, not three.
    fn sample_resample(&self, origin: Region, dest: Region, now: SimTime) -> (SendPhase, SimTime) {
        let drop_p =
            self.inner
                .substrate
                .drop_probability(&self.inner.faults, now, &self.inner.name);
        let mut rng = self.inner.rng.borrow_mut();
        let dropped = {
            use rand::Rng;
            drop_p > 0.0 && rng.random::<f64>() < drop_p
        };
        if dropped {
            let backoff = self.inner.substrate.retry_backoff(&mut rng);
            (SendPhase::Retry, now + backoff)
        } else {
            let lag = self.inner.substrate.propagation_lag(
                &mut rng,
                &self.inner.net,
                &self.inner.faults,
                now,
                &self.inner.name,
                origin,
                dest,
            );
            (SendPhase::Transit, now + lag)
        }
    }

    /// One `LagOnce` arrival/redelivery lottery at `now`: `None` means the
    /// entry delivers now; `Some(due)` schedules its redelivery retry.
    fn sample_arrival(&self, now: SimTime) -> Option<SimTime> {
        let drop_p =
            self.inner
                .substrate
                .drop_probability(&self.inner.faults, now, &self.inner.name);
        let mut rng = self.inner.rng.borrow_mut();
        let dropped = {
            use rand::Rng;
            drop_p > 0.0 && rng.random::<f64>() < drop_p
        };
        if dropped {
            let backoff = self.inner.substrate.retry_backoff(&mut rng);
            Some(now + backoff)
        } else {
            None
        }
    }

    /// Arms (or tightens) the pair's single timer wake to fire at `due`.
    /// A later-armed wake whose generation was superseded retires silently.
    fn arm_wake(&self, origin: Region, dest: Region, due: SimTime) {
        let arm = {
            let mut pairs = self.inner.pairs.borrow_mut();
            match pairs.get_mut(&(origin, dest)) {
                Some(pq) => pq.tighten(due),
                None => return,
            }
        };
        if let Some(generation) = arm {
            self.spawn_flusher(origin, dest, due, generation);
        }
    }

    /// Spawns the single flusher task for an armed wake; stale generations
    /// retire without flushing.
    fn spawn_flusher(&self, origin: Region, dest: Region, due: SimTime, generation: u64) {
        let eng = self.clone();
        self.inner.sim.spawn_detached(async move {
            eng.inner.sim.sleep_until(due).await;
            let fire = {
                let mut pairs = eng.inner.pairs.borrow_mut();
                match pairs.get_mut(&(origin, dest)) {
                    Some(pq) if matches!(pq.armed, Some((_, g)) if g == generation) => {
                        pq.armed = None;
                        true
                    }
                    _ => false,
                }
            };
            if fire {
                eng.flush_pair(origin, dest);
            }
        });
    }

    /// One flusher wake for a pair: advance every due entry (batched) or
    /// exactly one (the unbatched ablation), then deliver the entries that
    /// completed as a single apply batch with one fault consultation.
    pub(crate) fn flush_pair(&self, origin: Region, dest: Region) {
        let now = self.inner.sim.now();
        let batched = self.inner.batching.get();
        stats::count_fanout_events(1);
        let mut deliver = self.inner.deliver_scratch.take();
        deliver.clear();
        // Phase transitions. Due entries pop in (due, seq) order; samples for
        // later entries may be drawn before earlier entries' applies run
        // (below), which is unobservable — applies consume no RNG and
        // samples read no replica state.
        let next = {
            let mut pairs = self.inner.pairs.borrow_mut();
            let Some(pq) = pairs.get_mut(&(origin, dest)) else {
                self.inner.deliver_scratch.replace(deliver);
                return;
            };
            let mut budget = if batched { usize::MAX } else { 1 };
            let mut visited = 0;
            while budget > 0 {
                let Some(top) = pq.queue.peek_mut() else {
                    break;
                };
                visited += 1;
                if top.due > now {
                    break;
                }
                let mut entry = PeekMut::pop(top);
                budget -= 1;
                let completed = match entry.phase {
                    SendPhase::Transit => true,
                    SendPhase::Retry => {
                        let (phase, due) = self.sample_resample(origin, dest, now);
                        entry.phase = phase;
                        entry.due = due;
                        false
                    }
                    SendPhase::Arrive | SendPhase::Redeliver => match self.sample_arrival(now) {
                        Some(due) => {
                            entry.phase = SendPhase::Redeliver;
                            entry.due = due;
                            false
                        }
                        None => true,
                    },
                };
                if completed {
                    deliver.push(ApplyItem {
                        key: entry.key,
                        version: entry.version,
                        bytes: entry.value,
                        committed_at: entry.committed_at,
                        origin_epoch: entry.origin_epoch,
                    });
                } else {
                    pq.resampled.push(entry);
                }
            }
            stats::count_pair_entries_visited(visited);
            // Round over (nothing left due): re-sampled entries rejoin.
            if pq.queue.peek().is_none_or(|e| e.due > now) {
                pq.queue.extend(pq.resampled.drain(..));
            }
            pq.queue.peek().map(|e| e.due)
        };
        // Terminal step, per batch: one epoch read, one fault-plan
        // consultation. Entries from a crashed origin epoch are abandoned
        // (the sending process died); suppressed batches park as hints in
        // queue order or drop under the no-handoff ablation.
        if !deliver.is_empty() {
            stats::count_send_entries(deliver.len() as u64);
            let origin_epoch_now = self.replica_epoch(origin);
            deliver.retain(|item| item.origin_epoch == origin_epoch_now);
            let suppressed = self.inner.substrate.send_suppressed(
                &self.inner.faults,
                now,
                &self.inner.name,
                origin,
                dest,
            ) || self
                .inner
                .faults
                .replica_crashed(now, &self.inner.name, dest);
            if !suppressed {
                self.apply_batch(dest, &mut deliver);
            } else if self.inner.recovery.get().hinted_handoff {
                let mut hints = self.inner.hints.borrow_mut();
                for item in deliver.drain(..) {
                    hints.push(Hint {
                        origin,
                        dest,
                        key: item.key,
                        version: item.version,
                        bytes: item.bytes,
                        committed_at: item.committed_at,
                    });
                }
            } else {
                deliver.clear();
            }
        }
        self.inner.deliver_scratch.replace(deliver);
        // Re-arm for the earliest remaining entry. In unbatched mode
        // leftover already-due entries re-arm at `now`, costing one executor
        // event each — the ablation's whole point.
        if let Some(due) = next {
            self.arm_wake(origin, dest, due.max(now));
        }
    }

    /// Queued-but-undelivered sends across all pairs (diagnostics).
    pub(crate) fn pending_sends(&self) -> usize {
        self.inner.pairs.borrow().values().map(PairQueue::len).sum()
    }
}
