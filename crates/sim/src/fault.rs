//! The chaos plane: one deterministic, virtual-time fault schedule for the
//! whole stack.
//!
//! A [`FaultPlan`] is installed on every [`Sim`] (see [`Sim::faults`]) and
//! consulted by every layer — the network model, the replicated KV and queue
//! store frameworks, and the service runtime — instead of each layer keeping
//! its own ad-hoc failure knobs. A plan combines:
//!
//! - **Scheduled windows** ([`FaultWindow`]): fault episodes active over a
//!   virtual-time interval `[from, until)` — region outages, inter-region
//!   partitions, link degradation, replication drop/stall episodes, queue
//!   broker outages, delivery-drop episodes, and service crashes. Windows
//!   are declared up front (or mid-run) and evaluated purely from the
//!   current [`SimTime`], so the same seed and plan always replay the same
//!   execution.
//! - **Imperative overrides**: per-store knobs set and cleared mid-run
//!   ([`FaultPlan::set_replication_drop`], [`FaultPlan::stall_replication`],
//!   [`FaultPlan::pause_queue_delivery`], …), combined with any active
//!   windows of the same kind.
//!
//! Blocked layers park on [`FaultPlan::until_clear`], which wakes
//! deterministically at the next scheduled transition (or on an imperative
//! change) — no polling loops, no nondeterministic spinning.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use crate::dist::Dist;
use crate::executor::{timeout, Sim};
use crate::net::Region;
use crate::sync::Notify;
use crate::time::SimTime;

/// One kind of fault a [`FaultWindow`] can schedule.
#[derive(Clone, Debug)]
pub enum FaultKind {
    /// Every replica, broker and link touching `region` is unreachable.
    RegionOutage {
        /// The region that is down.
        region: Region,
    },
    /// The (symmetric) network path between two regions is severed.
    Partition {
        /// One side of the partition.
        a: Region,
        /// The other side.
        b: Region,
    },
    /// The link between two regions (either direction) stays up but each
    /// message pays an extra sampled delay — congestion, packet loss with
    /// retransmission, a saturated backbone.
    LinkDegraded {
        /// One endpoint of the degraded link.
        a: Region,
        /// The other endpoint.
        b: Region,
        /// Extra one-way delay distribution while the window is active.
        extra: Dist,
    },
    /// Each replication send of the named KV store is dropped with this
    /// probability (dropped sends retry per the store's profile).
    ReplicationDrop {
        /// The store whose replication stream is lossy.
        store: String,
        /// Per-attempt drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Replication applies of the named KV store stall at `region`.
    ReplicationStall {
        /// The store whose applies stall.
        store: String,
        /// The destination region that stops applying.
        region: Region,
    },
    /// The named queue broker is entirely down: publishes block and no
    /// deliveries land anywhere.
    QueueOutage {
        /// The broker (queue-store name) that is down.
        broker: String,
    },
    /// Each delivery attempt of the named broker is dropped with this
    /// probability (dropped deliveries are redelivered after the broker's
    /// redelivery interval).
    DeliveryDrop {
        /// The broker whose deliveries are lossy.
        broker: String,
        /// Per-attempt drop probability in `[0, 1]`.
        probability: f64,
    },
    /// The named service crashes: its handlers stop making progress until
    /// the window closes (callers observe timeouts and retry).
    ServiceCrash {
        /// The service name (matches `ServiceSpec::name`).
        service: String,
    },
    /// One replica of the named KV store crash-restarts: while the window is
    /// active the replica is unreachable and its **volatile** state is lost
    /// (in-flight replication sends originated there die with the process).
    /// At the window's heal edge the replica restarts and replays its
    /// write-ahead log; anything the WAL did not capture is back-filled by
    /// hinted handoff and anti-entropy repair.
    ReplicaCrash {
        /// The store whose replica crashes.
        store: String,
        /// The region whose replica crashes.
        region: Region,
    },
    /// The storage under one replica lies: its write-ahead log is damaged
    /// ([`DiskFaultKind::TornWrite`], [`DiskFaultKind::BitFlip`]) at the
    /// window's start edge, or acked appends silently vanish
    /// ([`DiskFaultKind::LostAppend`]) while the window is active. The
    /// replica itself stays up — the whole point is that the damage is
    /// invisible until the integrity plane (checksummed WAL frames, scrub
    /// sweeps) looks.
    DiskFault {
        /// The store whose replica's storage misbehaves.
        store: String,
        /// The region whose replica's storage misbehaves.
        region: Region,
        /// How the storage lies.
        fault: DiskFaultKind,
    },
}

/// The ways a [`FaultKind::DiskFault`] window damages a replica's WAL. All
/// three are deterministic given the plan and the store's RNG streams, so
/// chaos seeds stay replayable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// The tail record of the WAL is torn mid-write: its frame is cut short,
    /// as if the process lost power with the final `write(2)` half-applied.
    /// Recovery truncates the torn tail and proceeds — a clean, bounded loss.
    TornWrite,
    /// Bit rot: bytes sampled deterministically from `offset_seed` flip in
    /// place somewhere inside the log, leaving earlier *and later* records
    /// intact-looking. Only per-record checksums can localize this.
    BitFlip {
        /// Seed mixed with the log length to pick the flipped offsets, so a
        /// given window always damages the same bytes.
        offset_seed: u64,
    },
    /// An acked append is silently dropped: while the window is active the
    /// store acknowledges writes whose WAL frames never persist.
    LostAppend,
}

/// A fault active over the virtual-time interval `[from, until)`.
#[derive(Clone, Debug)]
pub struct FaultWindow {
    /// When the fault begins (inclusive).
    pub from: SimTime,
    /// When the fault heals (exclusive).
    pub until: SimTime,
    /// What is broken while the window is active.
    pub kind: FaultKind,
}

impl FaultWindow {
    fn active(&self, at: SimTime) -> bool {
        self.from <= at && at < self.until
    }
}

#[derive(Default)]
struct FaultInner {
    windows: RefCell<Vec<FaultWindow>>,
    // Imperative overrides, fed by the legacy per-store knobs.
    repl_drop: RefCell<BTreeMap<String, f64>>,
    repl_stalled: RefCell<BTreeMap<String, BTreeSet<Region>>>,
    repl_lag: RefCell<BTreeMap<String, Dist>>,
    delivery_drop: RefCell<BTreeMap<String, f64>>,
    delivery_paused: RefCell<BTreeMap<String, BTreeSet<Region>>>,
    changed: Notify,
    /// Fast-path flag: `false` while the plan schedules no windows and sets
    /// no imperative override, letting the hot-path queries (a replicated
    /// write consults the plan a dozen times) return without touching the
    /// tables. Maintained by every mutator; purely a cache, never observable
    /// beyond query cost.
    noisy: Cell<bool>,
}

/// The deterministic fault schedule shared by every layer of a simulation.
/// Cheap to clone; obtain the simulation's plan via [`Sim::faults`].
#[derive(Clone, Default)]
pub struct FaultPlan {
    inner: Rc<FaultInner>,
}

impl FaultPlan {
    /// Creates an empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Re-derives the fast-path flag from the tables. Called by every
    /// mutator; an override map holding an empty set still counts as noisy
    /// (conservative — correctness never depends on the flag being tight).
    fn recompute_noisy(&self) {
        let i = &self.inner;
        let noisy = !i.windows.borrow().is_empty()
            || !i.repl_drop.borrow().is_empty()
            || !i.repl_stalled.borrow().is_empty()
            || !i.repl_lag.borrow().is_empty()
            || !i.delivery_drop.borrow().is_empty()
            || !i.delivery_paused.borrow().is_empty();
        i.noisy.set(noisy);
    }

    /// Whether the plan currently schedules nothing and overrides nothing.
    fn quiet(&self) -> bool {
        !self.inner.noisy.get()
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Schedules `kind` over `[from, until)`. Empty windows are ignored.
    pub fn schedule(&self, from: SimTime, until: SimTime, kind: FaultKind) {
        if until <= from {
            return;
        }
        self.inner
            .windows
            .borrow_mut()
            .push(FaultWindow { from, until, kind });
        self.recompute_noisy();
        self.inner.changed.notify_all();
    }

    // ------------------------------------------------------------------
    // Imperative overrides
    // ------------------------------------------------------------------

    /// Sets the imperative replication-drop probability for a KV store
    /// (combined with any active [`FaultKind::ReplicationDrop`] windows by
    /// taking the maximum). `0.0` clears the override.
    pub fn set_replication_drop(&self, store: &str, p: f64) {
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 {
            self.inner.repl_drop.borrow_mut().remove(store);
        } else {
            self.inner.repl_drop.borrow_mut().insert(store.into(), p);
        }
        self.recompute_noisy();
        self.inner.changed.notify_all();
    }

    /// Stalls replication applies of `store` at `region` until
    /// [`FaultPlan::unstall_replication`].
    pub fn stall_replication(&self, store: &str, region: Region) {
        self.inner
            .repl_stalled
            .borrow_mut()
            .entry(store.into())
            .or_default()
            .insert(region);
        self.recompute_noisy();
        self.inner.changed.notify_all();
    }

    /// Ends an imperative replication stall.
    pub fn unstall_replication(&self, store: &str, region: Region) {
        if let Some(set) = self.inner.repl_stalled.borrow_mut().get_mut(store) {
            set.remove(&region);
        }
        self.recompute_noisy();
        self.inner.changed.notify_all();
    }

    /// Adds `lag` to every replication send of `store` while set (pass
    /// `None` to clear) — time-correlated congestion episodes.
    pub fn set_replication_lag(&self, store: &str, lag: Option<Dist>) {
        match lag {
            Some(d) => {
                self.inner.repl_lag.borrow_mut().insert(store.into(), d);
            }
            None => {
                self.inner.repl_lag.borrow_mut().remove(store);
            }
        }
        self.recompute_noisy();
        self.inner.changed.notify_all();
    }

    /// Sets the imperative delivery-drop probability for a queue broker
    /// (combined with [`FaultKind::DeliveryDrop`] windows by maximum).
    /// `0.0` clears the override.
    pub fn set_delivery_drop(&self, broker: &str, p: f64) {
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 {
            self.inner.delivery_drop.borrow_mut().remove(broker);
        } else {
            self.inner
                .delivery_drop
                .borrow_mut()
                .insert(broker.into(), p);
        }
        self.recompute_noisy();
        self.inner.changed.notify_all();
    }

    /// Holds deliveries of `broker` destined for `region` until
    /// [`FaultPlan::resume_queue_delivery`].
    pub fn pause_queue_delivery(&self, broker: &str, region: Region) {
        self.inner
            .delivery_paused
            .borrow_mut()
            .entry(broker.into())
            .or_default()
            .insert(region);
        self.recompute_noisy();
        self.inner.changed.notify_all();
    }

    /// Ends an imperative delivery pause.
    pub fn resume_queue_delivery(&self, broker: &str, region: Region) {
        if let Some(set) = self.inner.delivery_paused.borrow_mut().get_mut(broker) {
            set.remove(&region);
        }
        self.recompute_noisy();
        self.inner.changed.notify_all();
    }

    // ------------------------------------------------------------------
    // Queries (each takes the explicit instant to evaluate at)
    // ------------------------------------------------------------------

    fn any_window(&self, at: SimTime, pred: impl Fn(&FaultKind) -> bool) -> bool {
        !self.quiet()
            && self
                .inner
                .windows
                .borrow()
                .iter()
                .any(|w| w.active(at) && pred(&w.kind))
    }

    /// Whether `region` is inside a [`FaultKind::RegionOutage`] window.
    pub fn region_down(&self, at: SimTime, region: Region) -> bool {
        self.any_window(
            at,
            |k| matches!(k, FaultKind::RegionOutage { region: r } if *r == region),
        )
    }

    /// Whether a (symmetric) partition separates `a` and `b`.
    pub fn partitioned(&self, at: SimTime, a: Region, b: Region) -> bool {
        self.any_window(at, |k| {
            matches!(k, FaultKind::Partition { a: x, b: y }
                if (*x == a && *y == b) || (*x == b && *y == a))
        })
    }

    /// Whether a message from `from` to `to` cannot transit right now:
    /// the pair is partitioned, or either endpoint region is down.
    pub fn link_blocked(&self, at: SimTime, from: Region, to: Region) -> bool {
        self.partitioned(at, from, to) || self.region_down(at, from) || self.region_down(at, to)
    }

    /// Extra one-way delay on the `from`↔`to` link from any active
    /// [`FaultKind::LinkDegraded`] window (first match wins).
    pub fn link_extra_delay(&self, at: SimTime, from: Region, to: Region) -> Option<Dist> {
        if self.quiet() {
            return None;
        }
        self.inner
            .windows
            .borrow()
            .iter()
            .find_map(|w| match &w.kind {
                FaultKind::LinkDegraded { a, b, extra }
                    if w.active(at) && ((*a == from && *b == to) || (*a == to && *b == from)) =>
                {
                    Some(extra.clone())
                }
                _ => None,
            })
    }

    /// Per-attempt replication-drop probability for `store`: the maximum of
    /// active [`FaultKind::ReplicationDrop`] windows and the imperative
    /// override.
    pub fn replication_drop(&self, at: SimTime, store: &str) -> f64 {
        if self.quiet() {
            return 0.0;
        }
        let windows = self
            .inner
            .windows
            .borrow()
            .iter()
            .filter_map(|w| match &w.kind {
                FaultKind::ReplicationDrop {
                    store: s,
                    probability,
                } if w.active(at) && s == store => Some(*probability),
                _ => None,
            })
            .fold(0.0f64, f64::max);
        let over = self
            .inner
            .repl_drop
            .borrow()
            .get(store)
            .copied()
            .unwrap_or(0.0);
        windows.max(over).clamp(0.0, 1.0)
    }

    /// Whether replication applies of `store` are stalled at `region`.
    pub fn replication_stalled(&self, at: SimTime, store: &str, region: Region) -> bool {
        if self.quiet() {
            return false;
        }
        if self
            .inner
            .repl_stalled
            .borrow()
            .get(store)
            .is_some_and(|set| set.contains(&region))
        {
            return true;
        }
        self.any_window(at, |k| {
            matches!(k, FaultKind::ReplicationStall { store: s, region: r }
                if s == store && *r == region)
        })
    }

    /// Extra replication lag for `store`, if a congestion episode is set.
    pub fn replication_extra_lag(&self, store: &str) -> Option<Dist> {
        if self.quiet() {
            return None;
        }
        self.inner.repl_lag.borrow().get(store).cloned()
    }

    /// Whether the named queue broker is inside an outage window.
    pub fn queue_down(&self, at: SimTime, broker: &str) -> bool {
        self.any_window(
            at,
            |k| matches!(k, FaultKind::QueueOutage { broker: b } if b == broker),
        )
    }

    /// Per-attempt delivery-drop probability for `broker` (maximum of
    /// windows and the imperative override).
    pub fn delivery_drop(&self, at: SimTime, broker: &str) -> f64 {
        if self.quiet() {
            return 0.0;
        }
        let windows = self
            .inner
            .windows
            .borrow()
            .iter()
            .filter_map(|w| match &w.kind {
                FaultKind::DeliveryDrop {
                    broker: b,
                    probability,
                } if w.active(at) && b == broker => Some(*probability),
                _ => None,
            })
            .fold(0.0f64, f64::max);
        let over = self
            .inner
            .delivery_drop
            .borrow()
            .get(broker)
            .copied()
            .unwrap_or(0.0);
        windows.max(over).clamp(0.0, 1.0)
    }

    /// Whether deliveries of `broker` to `region` are held.
    pub fn delivery_paused(&self, _at: SimTime, broker: &str, region: Region) -> bool {
        if self.quiet() {
            return false;
        }
        self.inner
            .delivery_paused
            .borrow()
            .get(broker)
            .is_some_and(|set| set.contains(&region))
    }

    /// Whether the named service is inside a crash window.
    pub fn service_down(&self, at: SimTime, service: &str) -> bool {
        self.any_window(
            at,
            |k| matches!(k, FaultKind::ServiceCrash { service: s } if s == service),
        )
    }

    /// Whether the named KV store's replica in `region` is inside a
    /// [`FaultKind::ReplicaCrash`] window.
    pub fn replica_crashed(&self, at: SimTime, store: &str, region: Region) -> bool {
        self.any_window(at, |k| {
            matches!(k, FaultKind::ReplicaCrash { store: s, region: r }
                if s == store && *r == region)
        })
    }

    /// The disk faults active against `store`'s replica in `region`,
    /// each tagged with its window's stable index (windows are append-only),
    /// so a recovery monitor can apply one-shot damage (torn tail, bit
    /// flips) exactly once per window.
    pub fn disk_faults(
        &self,
        at: SimTime,
        store: &str,
        region: Region,
    ) -> Vec<(usize, DiskFaultKind)> {
        if self.quiet() {
            return Vec::new();
        }
        self.inner
            .windows
            .borrow()
            .iter()
            .enumerate()
            .filter_map(|(ix, w)| match &w.kind {
                FaultKind::DiskFault {
                    store: s,
                    region: r,
                    fault,
                } if w.active(at) && s == store && *r == region => Some((ix, fault.clone())),
                _ => None,
            })
            .collect()
    }

    /// Whether a [`DiskFaultKind::LostAppend`] window is active against
    /// `store`'s replica in `region`: WAL appends are acked but not
    /// persisted while this holds.
    pub fn append_lost(&self, at: SimTime, store: &str, region: Region) -> bool {
        self.any_window(at, |k| {
            matches!(k, FaultKind::DiskFault { store: s, region: r, fault: DiskFaultKind::LostAppend }
                if s == store && *r == region)
        })
    }

    /// Whether *any* store replica in `region` is inside a
    /// [`FaultKind::ReplicaCrash`] window — used by observers (the
    /// consistency checker) that know regions but not store names.
    pub fn any_replica_crash(&self, at: SimTime, region: Region) -> bool {
        self.any_window(
            at,
            |k| matches!(k, FaultKind::ReplicaCrash { region: r, .. } if *r == region),
        )
    }

    /// The next scheduled window edge (start or heal) strictly after `at`,
    /// if any — the instant at which some query above may change value.
    pub fn next_transition_after(&self, at: SimTime) -> Option<SimTime> {
        if self.quiet() {
            return None;
        }
        self.inner
            .windows
            .borrow()
            .iter()
            .flat_map(|w| [w.from, w.until])
            .filter(|&t| t > at)
            .min()
    }

    // ------------------------------------------------------------------
    // Waiting
    // ------------------------------------------------------------------

    /// A future resolving at the next imperative change to the plan (or
    /// immediately, if one happened since this call's creation epoch).
    /// Recovery monitors combine this with [`FaultPlan::next_transition_after`]
    /// to wake at every instant a fault query may change value, without
    /// polling: `timeout(sim, edge - now, plan.on_change())`.
    pub fn on_change(&self) -> crate::sync::Notified {
        self.inner.changed.notified()
    }

    /// Parks until `blocked(now)` turns false, waking deterministically at
    /// each scheduled window transition and on every imperative change.
    /// Returns immediately (without yielding) when already clear.
    pub async fn until_clear(&self, sim: &Sim, blocked: impl Fn(SimTime) -> bool) {
        loop {
            let now = sim.now();
            if !blocked(now) {
                return;
            }
            // No `.await` separates the check from this registration, so no
            // change can slip between them.
            let notified = self.inner.changed.notified();
            match self.next_transition_after(now) {
                Some(t) => {
                    // Wake at the next schedule edge or on an imperative
                    // change, whichever comes first.
                    let _ = timeout(sim, t.since(now), notified).await;
                }
                None => notified.await,
            }
        }
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("windows", &*self.inner.windows.borrow())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::regions::{EU, SG, US};
    use std::time::Duration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn windows_are_half_open() {
        let plan = FaultPlan::new();
        plan.schedule(t(10), t(20), FaultKind::RegionOutage { region: US });
        assert!(!plan.region_down(t(9), US));
        assert!(plan.region_down(t(10), US));
        assert!(plan.region_down(t(19), US));
        assert!(!plan.region_down(t(20), US));
        assert!(!plan.region_down(t(15), EU));
    }

    #[test]
    fn partition_is_symmetric() {
        let plan = FaultPlan::new();
        plan.schedule(t(0), t(5), FaultKind::Partition { a: US, b: EU });
        assert!(plan.partitioned(t(1), US, EU));
        assert!(plan.partitioned(t(1), EU, US));
        assert!(!plan.partitioned(t(1), US, SG));
        assert!(plan.link_blocked(t(1), EU, US));
        assert!(!plan.link_blocked(t(6), EU, US));
    }

    #[test]
    fn region_outage_blocks_its_links() {
        let plan = FaultPlan::new();
        plan.schedule(t(0), t(5), FaultKind::RegionOutage { region: SG });
        assert!(plan.link_blocked(t(1), SG, US));
        assert!(plan.link_blocked(t(1), US, SG));
        assert!(!plan.link_blocked(t(1), US, EU));
    }

    #[test]
    fn drop_probability_is_max_of_windows_and_override() {
        let plan = FaultPlan::new();
        plan.schedule(
            t(0),
            t(10),
            FaultKind::ReplicationDrop {
                store: "db".into(),
                probability: 0.3,
            },
        );
        assert_eq!(plan.replication_drop(t(1), "db"), 0.3);
        plan.set_replication_drop("db", 0.8);
        assert_eq!(plan.replication_drop(t(1), "db"), 0.8);
        assert_eq!(plan.replication_drop(t(11), "db"), 0.8);
        plan.set_replication_drop("db", 0.0);
        assert_eq!(plan.replication_drop(t(11), "db"), 0.0);
        assert_eq!(plan.replication_drop(t(1), "other"), 0.0);
    }

    #[test]
    fn next_transition_walks_window_edges() {
        let plan = FaultPlan::new();
        plan.schedule(t(10), t(20), FaultKind::RegionOutage { region: US });
        plan.schedule(t(15), t(30), FaultKind::QueueOutage { broker: "q".into() });
        assert_eq!(plan.next_transition_after(SimTime::ZERO), Some(t(10)));
        assert_eq!(plan.next_transition_after(t(10)), Some(t(15)));
        assert_eq!(plan.next_transition_after(t(15)), Some(t(20)));
        assert_eq!(plan.next_transition_after(t(20)), Some(t(30)));
        assert_eq!(plan.next_transition_after(t(30)), None);
    }

    #[test]
    fn until_clear_wakes_at_window_heal() {
        let sim = Sim::new(0);
        let plan = sim.faults();
        plan.schedule(
            SimTime::ZERO,
            t(7),
            FaultKind::ServiceCrash {
                service: "api".into(),
            },
        );
        let s = sim.clone();
        let end = sim.block_on(async move {
            let plan = s.faults();
            let p = plan.clone();
            plan.until_clear(&s, move |at| p.service_down(at, "api"))
                .await;
            s.now()
        });
        assert_eq!(end, t(7), "parked task wakes exactly at the heal edge");
    }

    #[test]
    fn until_clear_wakes_on_imperative_change() {
        let sim = Sim::new(0);
        let plan = sim.faults();
        plan.stall_replication("db", US);
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(Duration::from_secs(3)).await;
            s2.faults().unstall_replication("db", US);
        });
        let s = sim.clone();
        let end = sim.block_on(async move {
            let plan = s.faults();
            let p = plan.clone();
            plan.until_clear(&s, move |at| p.replication_stalled(at, "db", US))
                .await;
            s.now()
        });
        assert_eq!(end, t(3));
    }

    #[test]
    fn until_clear_returns_immediately_when_clear() {
        let sim = Sim::new(0);
        let plan = sim.faults();
        sim.block_on({
            let s = sim.clone();
            async move {
                let p = plan.clone();
                plan.until_clear(&s, move |at| p.queue_down(at, "q")).await;
            }
        });
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn empty_and_inverted_windows_are_ignored() {
        let plan = FaultPlan::new();
        plan.schedule(t(5), t(5), FaultKind::RegionOutage { region: US });
        plan.schedule(t(9), t(2), FaultKind::RegionOutage { region: US });
        assert_eq!(plan.next_transition_after(SimTime::ZERO), None);
    }

    #[test]
    fn replica_crash_is_per_store_and_per_region() {
        let plan = FaultPlan::new();
        plan.schedule(
            t(2),
            t(6),
            FaultKind::ReplicaCrash {
                store: "db".into(),
                region: US,
            },
        );
        assert!(!plan.replica_crashed(t(1), "db", US));
        assert!(plan.replica_crashed(t(2), "db", US));
        assert!(plan.replica_crashed(t(5), "db", US));
        assert!(!plan.replica_crashed(t(6), "db", US), "heal edge exclusive");
        assert!(!plan.replica_crashed(t(3), "db", EU));
        assert!(!plan.replica_crashed(t(3), "other", US));
        // Region-level view for store-agnostic observers.
        assert!(plan.any_replica_crash(t(3), US));
        assert!(!plan.any_replica_crash(t(3), EU));
        // A crash is a transition source like any other window.
        assert_eq!(plan.next_transition_after(t(2)), Some(t(6)));
    }

    #[test]
    fn disk_faults_are_per_store_per_region_and_window_indexed() {
        let plan = FaultPlan::new();
        plan.schedule(
            t(2),
            t(6),
            FaultKind::DiskFault {
                store: "db".into(),
                region: US,
                fault: DiskFaultKind::TornWrite,
            },
        );
        plan.schedule(
            t(4),
            t(8),
            FaultKind::DiskFault {
                store: "db".into(),
                region: US,
                fault: DiskFaultKind::BitFlip { offset_seed: 7 },
            },
        );
        assert!(plan.disk_faults(t(1), "db", US).is_empty());
        assert_eq!(
            plan.disk_faults(t(2), "db", US),
            vec![(0, DiskFaultKind::TornWrite)]
        );
        assert_eq!(
            plan.disk_faults(t(5), "db", US),
            vec![
                (0, DiskFaultKind::TornWrite),
                (1, DiskFaultKind::BitFlip { offset_seed: 7 }),
            ]
        );
        assert!(plan.disk_faults(t(5), "db", EU).is_empty());
        assert!(plan.disk_faults(t(5), "other", US).is_empty());
        assert!(plan.disk_faults(t(8), "db", US).is_empty(), "heal edge");
        // Disk faults are transition sources like any other window, so the
        // recovery monitor wakes at their edges.
        assert_eq!(plan.next_transition_after(t(2)), Some(t(4)));
        assert_eq!(plan.next_transition_after(t(6)), Some(t(8)));
    }

    #[test]
    fn lost_append_is_active_only_inside_its_window() {
        let plan = FaultPlan::new();
        plan.schedule(
            t(3),
            t(5),
            FaultKind::DiskFault {
                store: "db".into(),
                region: EU,
                fault: DiskFaultKind::LostAppend,
            },
        );
        assert!(!plan.append_lost(t(2), "db", EU));
        assert!(plan.append_lost(t(3), "db", EU));
        assert!(plan.append_lost(t(4), "db", EU));
        assert!(!plan.append_lost(t(5), "db", EU));
        assert!(!plan.append_lost(t(4), "db", US));
        // The other disk faults do not count as lost appends.
        let torn = FaultPlan::new();
        torn.schedule(
            t(0),
            t(9),
            FaultKind::DiskFault {
                store: "db".into(),
                region: EU,
                fault: DiskFaultKind::TornWrite,
            },
        );
        assert!(!torn.append_lost(t(1), "db", EU));
    }

    #[test]
    fn link_degradation_reports_extra_delay() {
        let plan = FaultPlan::new();
        plan.schedule(
            t(0),
            t(10),
            FaultKind::LinkDegraded {
                a: US,
                b: EU,
                extra: Dist::Constant(0.5),
            },
        );
        assert!(plan.link_extra_delay(t(1), US, EU).is_some());
        assert!(plan.link_extra_delay(t(1), EU, US).is_some(), "symmetric");
        assert!(plan.link_extra_delay(t(11), US, EU).is_none());
        assert!(plan.link_extra_delay(t(1), US, SG).is_none());
    }
}
