//! Engine-plane instrumentation counters.
//!
//! Mirrors `antipode_lineage::stats` for the replication engine: the
//! events that correspond one-to-one with hot-path work in the commit →
//! fan-out → apply pipeline, tracked as deterministic thread-local counters
//! so `BENCH_engine.json` can pin them across same-seed runs. The headline
//! ratio is `send_entries / fanout_events` — the average batch size — which
//! is exactly the per-write executor cost the batched fan-out amortizes.

use std::cell::Cell;

thread_local! {
    static COMMITS: Cell<u64> = const { Cell::new(0) };
    static FANOUT_EVENTS: Cell<u64> = const { Cell::new(0) };
    static SEND_ENTRIES: Cell<u64> = const { Cell::new(0) };
    static APPLIES: Cell<u64> = const { Cell::new(0) };
    static WAL_APPENDS: Cell<u64> = const { Cell::new(0) };
    static WAL_BYTES: Cell<u64> = const { Cell::new(0) };
    static BATCH_FLUSHES: Cell<u64> = const { Cell::new(0) };
    static MAX_BATCH: Cell<u64> = const { Cell::new(0) };
    static SCRUB_RECORDS: Cell<u64> = const { Cell::new(0) };
    static INTEGRITY_REFUSALS: Cell<u64> = const { Cell::new(0) };
    static PAIR_ENTRIES_VISITED: Cell<u64> = const { Cell::new(0) };
    static WAITER_PROBES: Cell<u64> = const { Cell::new(0) };
}

/// A snapshot of the engine-plane counters on this thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Writes committed (one per `put`/`publish` that assigned a version).
    pub commits: u64,
    /// Virtual-time executor events consumed by replication fan-out (flusher
    /// wakes). Unbatched fan-out pays one per send entry; batching coalesces
    /// every due entry of an (origin, dest) pair into one.
    pub fanout_events: u64,
    /// Replication send entries that reached their terminal step (applied,
    /// parked as a hint, or abandoned to a crash epoch).
    pub send_entries: u64,
    /// Replica applies that inserted or acknowledged a record.
    pub applies: u64,
    /// Write-ahead-log appends (post-dedupe — entries actually logged).
    pub wal_appends: u64,
    /// Bytes logged across those appends (key + value + fixed entry header).
    pub wal_bytes: u64,
    /// Batch deliveries (apply batches handed to a replica in one event).
    pub batch_flushes: u64,
    /// Largest apply batch observed.
    pub max_batch: u64,
    /// WAL records re-verified by scrub sweeps (see
    /// [`crate::repair::ScrubReport`]).
    pub scrub_records: u64,
    /// Operations refused with [`crate::replica::StoreError::IntegrityFault`]
    /// because the replica was quarantined.
    pub integrity_refusals: u64,
    /// Pair-queue entries whose `due` a flusher wake inspected: every entry
    /// it popped plus the first not-yet-due one that ended the wake. Stays
    /// proportional to the work done, not to the queue's depth.
    pub pair_entries_visited: u64,
    /// Parked visibility waiters compared against an applied record: only
    /// those subscribed to the record's own key.
    pub waiter_probes: u64,
}

/// Reads the counters.
pub fn snapshot() -> EngineStats {
    EngineStats {
        commits: COMMITS.with(Cell::get),
        fanout_events: FANOUT_EVENTS.with(Cell::get),
        send_entries: SEND_ENTRIES.with(Cell::get),
        applies: APPLIES.with(Cell::get),
        wal_appends: WAL_APPENDS.with(Cell::get),
        wal_bytes: WAL_BYTES.with(Cell::get),
        batch_flushes: BATCH_FLUSHES.with(Cell::get),
        max_batch: MAX_BATCH.with(Cell::get),
        scrub_records: SCRUB_RECORDS.with(Cell::get),
        integrity_refusals: INTEGRITY_REFUSALS.with(Cell::get),
        pair_entries_visited: PAIR_ENTRIES_VISITED.with(Cell::get),
        waiter_probes: WAITER_PROBES.with(Cell::get),
    }
}

/// Zeroes the counters (start of a measured workload).
pub fn reset() {
    COMMITS.with(|c| c.set(0));
    FANOUT_EVENTS.with(|c| c.set(0));
    SEND_ENTRIES.with(|c| c.set(0));
    APPLIES.with(|c| c.set(0));
    WAL_APPENDS.with(|c| c.set(0));
    WAL_BYTES.with(|c| c.set(0));
    BATCH_FLUSHES.with(|c| c.set(0));
    MAX_BATCH.with(|c| c.set(0));
    SCRUB_RECORDS.with(|c| c.set(0));
    INTEGRITY_REFUSALS.with(|c| c.set(0));
    PAIR_ENTRIES_VISITED.with(|c| c.set(0));
    WAITER_PROBES.with(|c| c.set(0));
}

pub(crate) fn count_commit() {
    COMMITS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn count_fanout_event() {
    FANOUT_EVENTS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn count_send_entries(n: u64) {
    SEND_ENTRIES.with(|c| c.set(c.get() + n));
}

pub(crate) fn count_applies(n: u64) {
    APPLIES.with(|c| c.set(c.get() + n));
}

pub(crate) fn count_wal_append(bytes: u64) {
    WAL_APPENDS.with(|c| c.set(c.get() + 1));
    WAL_BYTES.with(|c| c.set(c.get() + bytes));
}

pub(crate) fn count_scrub_records(n: u64) {
    SCRUB_RECORDS.with(|c| c.set(c.get() + n));
}

pub(crate) fn count_integrity_refusal() {
    INTEGRITY_REFUSALS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn count_pair_entries_visited(n: u64) {
    PAIR_ENTRIES_VISITED.with(|c| c.set(c.get() + n));
}

pub(crate) fn count_waiter_probes(n: u64) {
    WAITER_PROBES.with(|c| c.set(c.get() + n));
}

pub(crate) fn count_batch_flush(batch: u64) {
    BATCH_FLUSHES.with(|c| c.set(c.get() + 1));
    MAX_BATCH.with(|c| {
        if batch > c.get() {
            c.set(batch);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        count_commit();
        count_fanout_event();
        count_send_entries(3);
        count_applies(1);
        count_wal_append(40);
        count_batch_flush(3);
        count_batch_flush(1);
        count_scrub_records(5);
        count_integrity_refusal();
        count_pair_entries_visited(4);
        count_waiter_probes(2);
        let s = snapshot();
        assert_eq!(s.commits, 1);
        assert_eq!(s.fanout_events, 1);
        assert_eq!(s.send_entries, 3);
        assert_eq!(s.applies, 1);
        assert_eq!(s.wal_appends, 1);
        assert_eq!(s.wal_bytes, 40);
        assert_eq!(s.batch_flushes, 2);
        assert_eq!(s.max_batch, 3);
        assert_eq!(s.scrub_records, 5);
        assert_eq!(s.integrity_refusals, 1);
        assert_eq!(s.pair_entries_visited, 4);
        assert_eq!(s.waiter_probes, 2);
        reset();
        assert_eq!(snapshot(), EngineStats::default());
    }
}
