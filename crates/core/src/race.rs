//! A vector-clock happens-before race detector for replication streams.
//!
//! The [`crate::ConsistencyChecker`] audits XCY by *replaying the lineage*:
//! at a checkpoint it asks every dependency's shim whether the write is
//! visible. That verdict is only as trustworthy as lineage propagation
//! itself — if an `append` or `transfer` is missing, the checker is blind to
//! the dependency it lost. This module flags the same class of violation
//! from first principles, the way dynamic race detectors (FastTrack-style
//! epoch/vector clocks) do for threads, applied to replication streams
//! instead: it consumes the simulator's event trace, reconstructs
//! happens-before from program order and message edges alone, and reports
//! every causally-prior write that was not yet visible in the reading region
//! at a checkpoint. Cross-validating the two analyses against each other
//! (`tests/checker_cross_validation.rs`) means a bug must fool both a
//! lineage replay *and* an independent happens-before reconstruction to
//! slip through.
//!
//! ## Event model
//!
//! - [`TraceEvent::Write`]: a process performed a cross-service write
//!   (ticks the process clock; the write's causal snapshot is the clock at
//!   that instant).
//! - [`TraceEvent::Send`] / [`TraceEvent::Recv`]: a message edge — the
//!   receiver's clock merges the sender's clock at send time.
//! - [`TraceEvent::Visibility`]: a [`VisibilityEvent`] — a KV apply, queue
//!   delivery or consumer ack — exactly as the store probes
//!   (`antipode_store::probe`) emit it.
//! - [`TraceEvent::Checkpoint`]: a candidate read location — the detector
//!   evaluates every happens-before-prior write against the visibility
//!   state at this point in the trace.
//!
//! Events must be fed in execution order (the deterministic simulator
//! records them that way); visibility at a checkpoint is then exactly the
//! store state at the instant the checkpoint ran.

use std::collections::{BTreeMap, BTreeSet};

use antipode_lineage::vector_clock::VectorClock;
use antipode_lineage::WriteId;
use antipode_sim::{Region, SimTime};

/// One visibility-changing event observed inside a store framework (emitted
/// through `antipode_store::probe`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VisibilityEvent {
    /// A KV replica applied (or acknowledged, for superseded versions) a
    /// write: from this instant, `is_visible(region, key, version)` holds
    /// for every `version ≤ watermark`.
    KvApplied {
        /// Store name (as used in write identifiers).
        store: String,
        /// Region whose replica applied the write.
        region: Region,
        /// Key written.
        key: String,
        /// Highest version the replica has now seen for `key` (watermark —
        /// visibility is monotone in the version).
        watermark: u64,
        /// Virtual instant of the apply.
        at: SimTime,
    },
    /// A queue delivered a message in a region: from this instant,
    /// `is_visible(region, id)` holds.
    QueueDelivered {
        /// Queue-store name.
        store: String,
        /// Region the message was delivered in.
        region: Region,
        /// Message id (the version in write identifiers).
        id: u64,
        /// Virtual instant of the delivery.
        at: SimTime,
    },
    /// A consumer acknowledged a message: from this instant,
    /// `is_acked(region, id)` holds (work-queue visibility semantics).
    QueueAcked {
        /// Queue-store name.
        store: String,
        /// Region the ack landed in.
        region: Region,
        /// Message id.
        id: u64,
        /// Virtual instant of the ack.
        at: SimTime,
    },
}

impl VisibilityEvent {
    /// The virtual instant the event occurred at.
    pub fn at(&self) -> SimTime {
        match self {
            VisibilityEvent::KvApplied { at, .. }
            | VisibilityEvent::QueueDelivered { at, .. }
            | VisibilityEvent::QueueAcked { at, .. } => *at,
        }
    }
}

/// One event of the simulation trace the detector consumes.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// Process `proc` performed the cross-service write `write`.
    Write {
        /// Logical process (service/handler instance) name.
        proc: String,
        /// The write's identifier, as the shims would append it.
        write: WriteId,
        /// Virtual instant of the write.
        at: SimTime,
    },
    /// Process `proc` sent message `msg` on `channel` (a queue publish, an
    /// RPC request — anything that carries causality to another process).
    Send {
        /// Sender process name.
        proc: String,
        /// Channel (queue/topic) name, namespacing the message id.
        channel: String,
        /// Message id, unique within the channel.
        msg: u64,
        /// Virtual instant of the send.
        at: SimTime,
    },
    /// Process `proc` received message `msg` from `channel`.
    Recv {
        /// Receiver process name.
        proc: String,
        /// Channel (queue/topic) name.
        channel: String,
        /// Message id.
        msg: u64,
        /// Virtual instant of the receive.
        at: SimTime,
    },
    /// A store made a write visible (or acknowledged) in a region.
    Visibility(VisibilityEvent),
    /// Process `proc` reached a candidate read location.
    Checkpoint {
        /// Process name.
        proc: String,
        /// Developer-chosen location label (same convention as
        /// [`crate::ConsistencyChecker::checkpoint`]).
        location: String,
        /// Region visibility is evaluated against.
        region: Region,
        /// Virtual instant of the checkpoint.
        at: SimTime,
    },
}

impl TraceEvent {
    /// The virtual instant the event occurred at.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::Write { at, .. }
            | TraceEvent::Send { at, .. }
            | TraceEvent::Recv { at, .. }
            | TraceEvent::Checkpoint { at, .. } => *at,
            TraceEvent::Visibility(v) => v.at(),
        }
    }
}

/// One checkpoint evaluation by the detector.
#[derive(Clone, Debug)]
pub struct RaceFinding {
    /// Location label of the checkpoint.
    pub location: String,
    /// Process that reached it.
    pub proc: String,
    /// Region visibility was evaluated against.
    pub region: Region,
    /// Virtual instant of the evaluation.
    pub at: SimTime,
    /// Causally-prior writes not yet visible in `region` — each one a
    /// visible-before-dependency ordering, i.e. an XCY race.
    pub unmet: Vec<WriteId>,
    /// Causally-prior writes that were already visible.
    pub visible: Vec<WriteId>,
}

impl RaceFinding {
    /// Whether the checkpoint was race-free.
    pub fn is_satisfied(&self) -> bool {
        self.unmet.is_empty()
    }
}

/// Per-location aggregation of detector findings, mirroring
/// [`crate::checker::LocationStats`] so the two analyses compare directly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RaceStats {
    /// Checkpoint evaluations at this location.
    pub evaluations: usize,
    /// Evaluations with at least one unmet causal dependency.
    pub unsatisfied: usize,
    /// Total unmet dependencies across evaluations.
    pub unmet_deps: usize,
}

/// The happens-before race detector. Feed events with
/// [`RaceDetector::observe`] (in execution order), then read
/// [`RaceDetector::findings`] / [`RaceDetector::summary`].
#[derive(Default)]
pub struct RaceDetector {
    /// Per-process vector clock (entity = process name).
    clocks: BTreeMap<String, VectorClock>,
    /// Every observed write with its causal snapshot, in trace order.
    writes: Vec<(WriteId, VectorClock)>,
    /// Clock attached to each in-flight message, keyed by (channel, id).
    msg_clocks: BTreeMap<(String, u64), VectorClock>,
    /// KV visibility: (store, region, key) → highest applied version.
    kv_watermarks: BTreeMap<(String, Region, String), u64>,
    /// Queue visibility: (store, region) → delivered message ids.
    delivered: BTreeMap<(String, Region), BTreeSet<u64>>,
    /// Queue ack state: (store, region) → acknowledged message ids.
    acked: BTreeMap<(String, Region), BTreeSet<u64>>,
    findings: Vec<RaceFinding>,
}

impl RaceDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        RaceDetector::default()
    }

    /// Runs a detector over a complete trace.
    pub fn analyze(events: &[TraceEvent]) -> Self {
        let mut d = RaceDetector::new();
        for e in events {
            d.observe(e);
        }
        d
    }

    fn tick(&mut self, proc: &str) -> &mut VectorClock {
        let clock = self.clocks.entry(proc.to_string()).or_default();
        clock.observe(proc.to_string(), clock.get(proc) + 1);
        clock
    }

    /// Feeds one event. Events must arrive in execution order.
    pub fn observe(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Write { proc, write, .. } => {
                let snapshot = self.tick(proc).clone();
                self.writes.push((write.clone(), snapshot));
            }
            TraceEvent::Send {
                proc, channel, msg, ..
            } => {
                let snapshot = self.tick(proc).clone();
                self.msg_clocks.insert((channel.clone(), *msg), snapshot);
            }
            TraceEvent::Recv {
                proc, channel, msg, ..
            } => {
                if let Some(snapshot) = self.msg_clocks.get(&(channel.clone(), *msg)).cloned() {
                    self.tick(proc).merge(&snapshot);
                }
            }
            TraceEvent::Visibility(VisibilityEvent::KvApplied {
                store,
                region,
                key,
                watermark,
                ..
            }) => {
                let slot = self
                    .kv_watermarks
                    .entry((store.clone(), *region, key.clone()))
                    .or_insert(0);
                *slot = (*slot).max(*watermark);
            }
            TraceEvent::Visibility(VisibilityEvent::QueueDelivered {
                store, region, id, ..
            }) => {
                self.delivered
                    .entry((store.clone(), *region))
                    .or_default()
                    .insert(*id);
            }
            TraceEvent::Visibility(VisibilityEvent::QueueAcked {
                store, region, id, ..
            }) => {
                self.acked
                    .entry((store.clone(), *region))
                    .or_default()
                    .insert(*id);
            }
            TraceEvent::Checkpoint {
                proc,
                location,
                region,
                at,
            } => {
                let clock = self.clocks.entry(proc.clone()).or_default().clone();
                let mut unmet = Vec::new();
                let mut visible = Vec::new();
                for (write, snapshot) in &self.writes {
                    if !snapshot.dominated_by(&clock) {
                        continue; // concurrent or later: not a causal dep
                    }
                    if self.is_visible(write, *region) {
                        visible.push(write.clone());
                    } else {
                        unmet.push(write.clone());
                    }
                }
                self.findings.push(RaceFinding {
                    location: location.clone(),
                    proc: proc.clone(),
                    region: *region,
                    at: *at,
                    unmet,
                    visible,
                });
            }
        }
    }

    /// Whether `write` is visible in `region` per the visibility events
    /// observed so far (watermark semantics for KV, delivery for queues).
    fn is_visible(&self, write: &WriteId, region: Region) -> bool {
        let store = write.datastore().to_string();
        if let Some(mark) =
            self.kv_watermarks
                .get(&(store.clone(), region, write.key().to_string()))
        {
            if *mark >= write.version() {
                return true;
            }
        }
        self.delivered
            .get(&(store, region))
            .is_some_and(|ids| ids.contains(&write.version()))
    }

    /// Whether queue message `id` of `store` was acknowledged in `region`
    /// (work-queue visibility semantics).
    pub fn is_acked(&self, store: &str, region: Region, id: u64) -> bool {
        self.acked
            .get(&(store.to_string(), region))
            .is_some_and(|ids| ids.contains(&id))
    }

    /// All checkpoint evaluations, in trace order.
    pub fn findings(&self) -> &[RaceFinding] {
        &self.findings
    }

    /// Findings with at least one unmet dependency — the detected races.
    pub fn races(&self) -> Vec<&RaceFinding> {
        self.findings.iter().filter(|f| !f.is_satisfied()).collect()
    }

    /// Per-location aggregation, sorted by location label.
    pub fn summary(&self) -> BTreeMap<String, RaceStats> {
        let mut out: BTreeMap<String, RaceStats> = BTreeMap::new();
        for f in &self.findings {
            let s = out.entry(f.location.clone()).or_default();
            s.evaluations += 1;
            if !f.unmet.is_empty() {
                s.unsatisfied += 1;
            }
            s.unmet_deps += f.unmet.len();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antipode_sim::net::regions::{EU, US};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn w(store: &str, key: &str, version: u64) -> WriteId {
        WriteId::new(store, key, version)
    }

    /// The Post-Notification race in miniature: the post write has not
    /// reached US when the reader (causally after the publish) checks.
    #[test]
    fn flags_visible_before_dependency_ordering() {
        let events = vec![
            TraceEvent::Write {
                proc: "writer".into(),
                write: w("posts", "p1", 1),
                at: t(0),
            },
            TraceEvent::Visibility(VisibilityEvent::KvApplied {
                store: "posts".into(),
                region: EU,
                key: "p1".into(),
                watermark: 1,
                at: t(1),
            }),
            TraceEvent::Send {
                proc: "writer".into(),
                channel: "notif".into(),
                msg: 1,
                at: t(2),
            },
            TraceEvent::Visibility(VisibilityEvent::QueueDelivered {
                store: "notif".into(),
                region: US,
                id: 1,
                at: t(50),
            }),
            TraceEvent::Recv {
                proc: "reader".into(),
                channel: "notif".into(),
                msg: 1,
                at: t(50),
            },
            // The posts write is visible in EU but not US yet.
            TraceEvent::Checkpoint {
                proc: "reader".into(),
                location: "reader:recv".into(),
                region: US,
                at: t(51),
            },
        ];
        let d = RaceDetector::analyze(&events);
        assert_eq!(d.findings().len(), 1);
        let f = &d.findings()[0];
        assert_eq!(f.unmet, vec![w("posts", "p1", 1)]);
        assert_eq!(d.summary()["reader:recv"].unsatisfied, 1);
    }

    #[test]
    fn satisfied_once_replication_lands() {
        let events = vec![
            TraceEvent::Write {
                proc: "writer".into(),
                write: w("posts", "p1", 1),
                at: t(0),
            },
            TraceEvent::Send {
                proc: "writer".into(),
                channel: "notif".into(),
                msg: 1,
                at: t(1),
            },
            TraceEvent::Visibility(VisibilityEvent::KvApplied {
                store: "posts".into(),
                region: US,
                key: "p1".into(),
                watermark: 1,
                at: t(40),
            }),
            TraceEvent::Visibility(VisibilityEvent::QueueDelivered {
                store: "notif".into(),
                region: US,
                id: 1,
                at: t(50),
            }),
            TraceEvent::Recv {
                proc: "reader".into(),
                channel: "notif".into(),
                msg: 1,
                at: t(50),
            },
            TraceEvent::Checkpoint {
                proc: "reader".into(),
                location: "reader:recv".into(),
                region: US,
                at: t(51),
            },
        ];
        let d = RaceDetector::analyze(&events);
        assert!(d.races().is_empty());
        assert_eq!(d.findings()[0].visible.len(), 1);
    }

    /// A write with no message edge to the reader is concurrent, not a
    /// dependency — the detector must not flag it (this is exactly the §5.1
    /// distinction between causally-prior and merely-earlier writes).
    #[test]
    fn concurrent_writes_are_not_dependencies() {
        let events = vec![
            TraceEvent::Write {
                proc: "other".into(),
                write: w("posts", "unrelated", 9),
                at: t(0),
            },
            TraceEvent::Checkpoint {
                proc: "reader".into(),
                location: "reader:recv".into(),
                region: US,
                at: t(10),
            },
        ];
        let d = RaceDetector::analyze(&events);
        assert!(d.races().is_empty());
        assert!(d.findings()[0].visible.is_empty());
    }

    /// Superseded KV versions are visible through the watermark, matching
    /// the store's monotone `is_visible`.
    #[test]
    fn watermark_satisfies_older_versions() {
        let events = vec![
            TraceEvent::Write {
                proc: "writer".into(),
                write: w("db", "k", 3),
                at: t(0),
            },
            TraceEvent::Send {
                proc: "writer".into(),
                channel: "q".into(),
                msg: 1,
                at: t(1),
            },
            // The replica saw version 5 (a newer write) before the reader
            // checked: version 3 counts as visible.
            TraceEvent::Visibility(VisibilityEvent::KvApplied {
                store: "db".into(),
                region: US,
                key: "k".into(),
                watermark: 5,
                at: t(20),
            }),
            TraceEvent::Recv {
                proc: "reader".into(),
                channel: "q".into(),
                msg: 1,
                at: t(30),
            },
            TraceEvent::Checkpoint {
                proc: "reader".into(),
                location: "l".into(),
                region: US,
                at: t(31),
            },
        ];
        let d = RaceDetector::analyze(&events);
        assert!(d.races().is_empty());
    }

    /// Causality is transitive across processes: writer → svc-b → reader.
    #[test]
    fn transitive_message_edges_carry_dependencies() {
        let events = vec![
            TraceEvent::Write {
                proc: "writer".into(),
                write: w("db", "k", 1),
                at: t(0),
            },
            TraceEvent::Send {
                proc: "writer".into(),
                channel: "a".into(),
                msg: 1,
                at: t(1),
            },
            TraceEvent::Recv {
                proc: "svc-b".into(),
                channel: "a".into(),
                msg: 1,
                at: t(10),
            },
            TraceEvent::Send {
                proc: "svc-b".into(),
                channel: "b".into(),
                msg: 7,
                at: t(11),
            },
            TraceEvent::Recv {
                proc: "reader".into(),
                channel: "b".into(),
                msg: 7,
                at: t(20),
            },
            TraceEvent::Checkpoint {
                proc: "reader".into(),
                location: "l".into(),
                region: US,
                at: t(21),
            },
        ];
        let d = RaceDetector::analyze(&events);
        assert_eq!(d.findings()[0].unmet, vec![w("db", "k", 1)]);
    }

    #[test]
    fn acks_are_tracked_for_work_queue_semantics() {
        let mut d = RaceDetector::new();
        d.observe(&TraceEvent::Visibility(VisibilityEvent::QueueAcked {
            store: "amq".into(),
            region: EU,
            id: 4,
            at: t(5),
        }));
        assert!(d.is_acked("amq", EU, 4));
        assert!(!d.is_acked("amq", US, 4));
        assert!(!d.is_acked("amq", EU, 5));
    }
}
