//! Replication fan-out: the engine's send machinery.
//!
//! One *pair queue* per `(origin, dest)` region pair carries every send in
//! flight between the two. A commit samples each send's first phase
//! synchronously, in destination order, pushes an entry, and arms at most
//! one timer wake per pair. When the wake fires, every entry due at that
//! instant is popped in `(due, enqueue seq)` order; each is advanced through
//! its retry state machine and, if it completed transit, delivered before
//! the next one is looked at (`Engine::apply`, one record at a time).
//!
//! Under the catalogue's jittered profiles two sends of one pair all but
//! never fall due on one nanosecond, so a wake carries one entry; the loop
//! over due entries is what is left of a batch, and a constant-latency
//! fleet (`engine_baseline`, `tests/engine_complexity.rs`) still shares its
//! wakes. DESIGN.md §14.1 records the measurements behind that sizing.
//!
//! ## Determinism
//!
//! `seed + plan ⇒ identical trace`:
//!
//! - Phase-one samples are drawn at commit time in destination order.
//! - Retry/arrival samples are drawn when an entry's `due` instant arrives,
//!   in `(due, enqueue seq)` order. A wake fires exactly at the queue's
//!   earliest `due`, so every entry it finds due shares that instant and
//!   the order reduces to enqueue order.
//! - An entry that re-samples keeps its enqueue seq and sits out the rest
//!   of the round: it returns to the queue only once no due entry is left,
//!   so even a zero backoff (`due == now`) defers it to the next round
//!   (see `PairQueue`).
//! - Applies never consume RNG and samples never read replica state, so
//!   drawing for entry B after applying entry A equals drawing first.
//!
//! `tests/engine_fanout.rs` pins the order inside a multi-entry wake, the
//! rounds, and same-seed trace identity under chaos.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::rc::Rc;

use antipode_sim::{Region, SimTime};
use bytes::Bytes;

use crate::engine::Engine;
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

/// One queued replication send: what its delivery applies, plus the retry
/// state machine position. `key`/`value` are refcount bumps off the
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
/// is the set of entries due at one instant, popped by one wake. Entries
/// that re-sample during a round park in `resampled` and rejoin the heap
/// when the round is over — never sooner, or a zero-backoff retry would be
/// drawn for again before its round-mates drew once.
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
    /// The fan-out of [`Engine::commit`]: samples each destination's first
    /// phase, in destination order, and queues one [`PendingSend`] per
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

    /// Spawns the single flusher task for an armed wake; a wake whose
    /// generation was superseded retires without flushing.
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

    /// One flusher wake for a pair: pops every due entry in `(due, seq)`
    /// order, advances it and, if it completed transit, delivers it; then
    /// re-arms for the earliest entry left.
    fn flush_pair(&self, origin: Region, dest: Region) {
        let now = self.inner.sim.now();
        stats::count_fanout_events(1);
        let mut visited = 0;
        let mut delivered = 0;
        let rearm = loop {
            let mut pairs = self.inner.pairs.borrow_mut();
            let Some(pq) = pairs.get_mut(&(origin, dest)) else {
                return;
            };
            let top = pq.queue.peek_mut();
            visited += u64::from(top.is_some());
            let Some(mut entry) = top.filter(|e| e.due <= now).map(PeekMut::pop) else {
                // Round over (nothing left due): re-sampled entries rejoin.
                pq.queue.extend(pq.resampled.drain(..));
                let due = pq.queue.peek().map(|e| e.due);
                break due.and_then(|due| Some((due, pq.tighten(due)?)));
            };
            let completed = match entry.phase {
                SendPhase::Transit => true,
                SendPhase::Retry => {
                    (entry.phase, entry.due) = self.sample_resample(origin, dest, now);
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
                // Not across a delivery: a probe may read `pending_sends`.
                drop(pairs);
                delivered += 1;
                self.deliver(origin, dest, entry, now);
            } else {
                pq.resampled.push(entry);
            }
        };
        stats::count_pair_entries_visited(visited);
        stats::count_send_entries(delivered);
        // `max_batch`: the most entries one wake delivered.
        stats::note_batch_size(delivered);
        if let Some((due, generation)) = rearm {
            self.spawn_flusher(origin, dest, due, generation);
        }
    }

    /// The terminal step of a send that completed transit. One whose origin
    /// crashed since the commit is abandoned (the sending process died); one
    /// the fault plan suppresses, or addressed to a crashed replica, parks as
    /// a hint — or drops under the no-handoff ablation.
    fn deliver(&self, origin: Region, dest: Region, entry: PendingSend, now: SimTime) {
        if entry.origin_epoch != self.replica_epoch(origin) {
            return;
        }
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
            self.apply(
                dest,
                &entry.key,
                entry.version,
                entry.value,
                entry.committed_at,
            );
        } else if self.inner.recovery.get().hinted_handoff {
            self.inner.hints.borrow_mut().push(Hint {
                origin,
                dest,
                key: entry.key,
                version: entry.version,
                bytes: entry.value,
                committed_at: entry.committed_at,
            });
        }
    }

    /// Queued-but-undelivered sends across all pairs (diagnostics).
    pub(crate) fn pending_sends(&self) -> usize {
        self.inner.pairs.borrow().values().map(PairQueue::len).sum()
    }
}
