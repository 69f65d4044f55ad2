//! Engine-plane instrumentation counters.
//!
//! Mirrors `antipode_lineage::stats` for the replication engine: the
//! events that correspond one-to-one with hot-path work in the commit →
//! fan-out → apply pipeline, tracked as deterministic thread-local counters
//! so `BENCH_engine.json` can pin them across same-seed runs. The ratio
//! `send_entries / fanout_events` is the entries one flusher wake carries:
//! 1 under every catalogue profile (DESIGN.md §14.1).

antipode_lineage::counters! {
    /// A snapshot of the engine-plane counters on this thread.
    pub struct EngineStats {
        /// Writes committed (one per `put`/`publish` that assigned a version).
        sum commits => count_commits,
        /// Virtual-time executor events consumed by replication fan-out (flusher
        /// wakes): one per instant at which an (origin, dest) pair has entries
        /// due.
        sum fanout_events => count_fanout_events,
        /// Replication send entries that reached their terminal step (applied,
        /// parked as a hint, or abandoned to a crash epoch).
        sum send_entries => count_send_entries,
        /// Replica applies that inserted or acknowledged a record.
        sum applies => count_applies,
        /// Write-ahead-log appends (post-dedupe — entries actually logged).
        sum wal_appends => count_wal_appends,
        /// Bytes logged across those appends (key + value + fixed entry header).
        sum wal_bytes => count_wal_bytes,
        /// WAL checkpoints: a replica flushed its table and dropped the
        /// log records the table now vouches for (see [`crate::wal`]).
        sum wal_checkpoints => count_wal_checkpoints,
        /// Most records any one replica's WAL held at once.
        max wal_resident_records_peak => note_wal_resident,
        /// Broker records dropped because every replica had delivered them
        /// (summed over replicas).
        sum queue_records_collected => count_queue_records_collected,
        /// Applies that reached a live replica (the name is the benchmark's).
        sum batch_flushes => count_batch_flushes,
        /// Most entries one flusher wake delivered.
        max max_batch => note_batch_size,
        /// WAL records re-verified by scrub sweeps (see
        /// [`crate::repair::ScrubReport`]).
        sum scrub_records => count_scrub_records,
        /// Operations refused with [`crate::replica::StoreError::IntegrityFault`]
        /// because the replica was quarantined.
        sum integrity_refusals => count_integrity_refusals,
        /// Pair-queue entries whose `due` a flusher wake inspected: every entry
        /// it popped plus the first not-yet-due one that ended the wake. Stays
        /// proportional to the work done, not to the queue's depth.
        sum pair_entries_visited => count_pair_entries_visited,
        /// Parked visibility waiters compared against an applied record: only
        /// those subscribed to the record's own key.
        sum waiter_probes => count_waiter_probes,
        /// Index slots a replica's hashed tables inspected (`table.rs`): per
        /// lookup, insert or removal a small constant, whatever the table
        /// holds.
        sum table_slots_probed => count_table_slots_probed,
    }
}

/// One WAL append of `bytes` framed bytes.
pub(crate) fn count_wal_append(bytes: u64) {
    count_wal_appends(1);
    count_wal_bytes(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        count_commits(1);
        count_fanout_events(1);
        count_send_entries(3);
        count_applies(1);
        count_wal_append(40);
        count_wal_checkpoints(1);
        note_wal_resident(7);
        note_wal_resident(3);
        count_queue_records_collected(2);
        count_batch_flushes(2);
        note_batch_size(3);
        note_batch_size(1);
        count_scrub_records(5);
        count_integrity_refusals(1);
        count_pair_entries_visited(4);
        count_waiter_probes(2);
        count_table_slots_probed(6);
        let s = snapshot();
        assert_eq!(s.commits, 1);
        assert_eq!(s.fanout_events, 1);
        assert_eq!(s.send_entries, 3);
        assert_eq!(s.applies, 1);
        assert_eq!(s.wal_appends, 1);
        assert_eq!(s.wal_bytes, 40);
        assert_eq!(s.wal_checkpoints, 1);
        assert_eq!(s.wal_resident_records_peak, 7);
        assert_eq!(s.queue_records_collected, 2);
        assert_eq!(s.batch_flushes, 2);
        assert_eq!(s.max_batch, 3);
        assert_eq!(s.scrub_records, 5);
        assert_eq!(s.integrity_refusals, 1);
        assert_eq!(s.pair_entries_visited, 4);
        assert_eq!(s.waiter_probes, 2);
        assert_eq!(s.table_slots_probed, 6);
        reset();
        assert_eq!(snapshot(), EngineStats::default());
    }
}
