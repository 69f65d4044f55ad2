//! The self-validating write-ahead log: byte-framed records sealed by
//! per-record CRC32C checksums.
//!
//! Before the storage-integrity plane, a replica's WAL was a plain
//! `Vec<WalEntry>` — structurally incorruptible, which made the recovery
//! plane blind to the disk faults real logs suffer (torn tail writes, bit
//! rot, silently dropped appends). This module makes the log a byte
//! artifact with the same failure surface as a file on disk, and gives
//! replay the tools to *detect* damage instead of serving it:
//!
//! - Every [`WalEntry`] is framed as `[u32 len][u32 crc32c(body)][body]`
//!   (little-endian, fixed-width body fields). The checksum is the
//!   hand-rolled Castagnoli from [`antipode_lineage::crc32c`].
//! - [`WalLog::scan`] walks the frames in order and stops at the **first**
//!   bad one, reporting its exact byte offset and how it failed:
//!   [`WalFaultKind::TornFrame`] (the frame runs past the end of the log —
//!   an interrupted tail write) or [`WalFaultKind::ChecksumMismatch`] (the
//!   body does not match its seal — bit rot). Everything before the fault
//!   is verified and replayable; nothing after it can be trusted, because
//!   frame boundaries downstream of a bad length are guesswork.
//! - The corruption injectors ([`WalLog::tear_tail`],
//!   [`WalLog::flip_byte`]) live *here*, next to the codec, so the rest of
//!   the workspace never touches raw frame bytes — the antipode-lint rule
//!   W1 (`unchecked-wal-read`) polices exactly that boundary.
//! - Framing and checksumming run off the commit path: appends stage the
//!   entry and frames are sealed lazily, group-commit style, the first
//!   time the byte artifact is observed (see the [`WalLog`] note on
//!   deferred sealing). Integrity semantics are unchanged — faults only
//!   ever land on sealed frames — and the engine hop stays O(1).
//!
//! A note on bit flips that land in a frame's *length* field: an in-bounds
//! corrupt length makes the checksum window wrong, so the seal catches it
//! (`ChecksumMismatch`); an out-of-bounds one surfaces as `TornFrame`.
//! Either way the scan stops at that record's offset — corruption is
//! contained, never decoded past.
//!
//! The log does not grow without bound: every [`CHECKPOINT_INTERVAL`]
//! appends the replica flushes ([`WalLog::checkpoint`]) — what the table
//! itself now holds durably is dropped from the log, staged entries without
//! ever being framed. [`WalLog::len`] keeps counting the dropped records;
//! [`WalLog::resident_len`] is what is still here to replay.
//!
//! The unverified scan mode exists only for the checksum-disabled ablation
//! ([`crate::recovery::RecoveryConfig::verify_checksums`]): it trusts the
//! declared lengths, decodes whatever the bytes say, and therefore replays
//! bit-rotted values into the memtable — the silent-corruption behavior
//! the integrity property tests demonstrate the checksums to prevent.

use std::rc::Rc;

use antipode_lineage::crc32c::crc32c;
use antipode_sim::SimTime;
use bytes::Bytes;

use crate::recovery::WalEntry;

/// Frame header: `u32` body length + `u32` CRC32C of the body.
pub const FRAME_HEADER: usize = 8;

/// Fixed body overhead beyond key and value bytes: key length (4), version
/// (8), value length (4), `visible_at` (8), `committed_at` (8).
pub const BODY_FIXED: usize = 32;

/// Appends between two checkpoints of one replica's log, and the batch in
/// which a broker drops messages every replica has delivered
/// ([`crate::engine`]): one reclamation grain for the whole store.
///
/// A resident log is at most this many 80-byte staged handles plus the few
/// a checkpoint had to keep — 80 KiB per replica whatever the run length,
/// against 80 B per append without it — and the checkpoint's one pass over
/// them is a constant per append. It is also far above what any unit test,
/// property storm or model-checking cell appends to one replica, so below
/// it the program is step for step the one without checkpoints.
pub const CHECKPOINT_INTERVAL: usize = 1024;

/// How a WAL frame failed verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalFaultKind {
    /// The frame extends past the end of the log: an append was interrupted
    /// mid-write (or a corrupt length points out of bounds). Recovery
    /// truncates to the verified prefix — a clean, bounded loss.
    TornFrame,
    /// The frame body does not match its checksum: bit rot inside the log.
    /// The replica cannot bound what else is damaged, so recovery
    /// quarantines it for anti-entropy back-fill.
    ChecksumMismatch,
}

/// The first bad frame a [`WalLog::scan`] found, with its exact offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalFault {
    /// Byte offset of the failing frame's header within the log.
    pub offset: usize,
    /// How the frame failed.
    pub kind: WalFaultKind,
}

/// The outcome of walking a log's frames in order.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Every record decoded before the first fault (all of them when
    /// `fault` is `None`).
    pub entries: Vec<WalEntry>,
    /// Byte length of the verified prefix: truncating the log here removes
    /// the fault and everything after it.
    pub verified_len: usize,
    /// Byte offset of the last verified frame's header (0 when `entries` is
    /// empty) — where the tail frame starts once the log is truncated to
    /// `verified_len`.
    pub last_frame: usize,
    /// The first bad frame, if any.
    pub fault: Option<WalFault>,
}

/// A replica's write-ahead log as a byte artifact: framed, checksummed
/// records. The raw bytes are private to this module — everything outside
/// goes through the append/scan API (lint rule W1 enforces this even for
/// sibling modules that could reach a hypothetical public field).
///
/// # Deferred sealing
///
/// [`WalLog::append`] does not serialize: it stages the entry (two
/// refcount bumps) and the frame is materialized — serialized and sealed
/// with its CRC — lazily, the first time anything observes the byte
/// artifact: a fault injector, a [`WalLog::scan`] at restart, a scrub
/// reading [`WalLog::as_bytes`]. This mirrors a real group-commit WAL,
/// where the commit path hands the record to the flush buffer and framing
/// plus checksumming run on the flush path, off commit latency (the
/// engine-bench budget: integrity must not tax the hop). Sealing time is
/// unobservable because the framed bytes are a pure function of the entry
/// sequence — every observer seals first, so corruption always lands on
/// (and is checked against) fully sealed frames.
///
/// # Checkpoints
///
/// [`WalLog::checkpoint`] drops every resident record the caller no longer
/// needs replayed — sealed bytes and staged entries alike; a staged entry
/// goes without ever having been framed. Disk damage inside the dropped
/// part goes with it: nothing will read those bytes again. The records
/// stay counted in [`WalLog::len`], the log's logical length.
#[derive(Debug, Default)]
pub struct WalLog {
    bytes: Vec<u8>,
    /// Logical length: complete records appended and lost neither to a torn
    /// tail nor to a truncation, whether resident or checkpointed.
    records: usize,
    /// How many of `records` a checkpoint dropped.
    checkpointed: usize,
    /// Appends since the last checkpoint; see [`WalLog::checkpoint_due`].
    appended_since: usize,
    /// Byte offset of the tail frame while the sealed bytes end in a
    /// complete one — what a torn tail write cuts. `None` when they are
    /// empty or already end in a torn frame.
    last_frame: Option<usize>,
    /// Appended but not yet sealed entries (the group-commit flush buffer).
    pending: Vec<WalEntry>,
    /// Framed byte length the pending entries will occupy once sealed,
    /// so [`WalLog::byte_len`] stays O(1) and seal-invariant.
    pending_bytes: usize,
}

impl WalLog {
    /// Number of complete records appended (and not torn off), including
    /// the ones a checkpoint has since dropped.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether no complete record was ever appended (or all were torn off).
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Number of complete records still in the log: what a restart replays
    /// and what the replica pays memory for.
    pub fn resident_len(&self) -> usize {
        self.records - self.checkpointed
    }

    /// Total bytes occupied by the resident log, including any torn partial
    /// frame and the not-yet-sealed tail. O(1) and independent of sealing
    /// state.
    pub fn byte_len(&self) -> usize {
        self.bytes.len() + self.pending_bytes
    }

    /// The raw framed bytes of the log — what a scrub (or a fuzzer) would
    /// read back off disk. Feed to [`scan_frames`] to verify out of place.
    /// Seals any pending appends first.
    pub fn as_bytes(&mut self) -> &[u8] {
        self.seal();
        &self.bytes
    }

    /// Stages one record for the log; returns its framed byte length (the
    /// on-log footprint the engine counters track). Serialization and
    /// checksumming are deferred to `WalLog::seal` — see the type-level
    /// note on deferred sealing — so this is O(1) on the commit path: a
    /// move into the staging buffer, no byte copies.
    pub fn append(&mut self, entry: WalEntry) -> usize {
        let framed = framed_len(&entry);
        self.pending.push(entry);
        self.pending_bytes += framed;
        self.records += 1;
        self.appended_since += 1;
        framed
    }

    /// Whether a full [`CHECKPOINT_INTERVAL`] of appends has gone by since
    /// the last checkpoint. Counting appends, not resident records, keeps
    /// the cadence fixed when a checkpoint has to keep many records.
    pub fn checkpoint_due(&self) -> bool {
        self.appended_since >= CHECKPOINT_INTERVAL
    }

    /// Drops every resident record for which `keep` is false — the caller
    /// holds those durably elsewhere (see [`crate::engine`]) — and keeps
    /// the rest, in order, as the staged tail. Sealed bytes are decoded
    /// through the verified scan first: a damaged frame ends it, and what
    /// lies past the damage is dropped with the rest, exactly what a
    /// restart scan of the same bytes would have given up on.
    pub fn checkpoint(&mut self, mut keep: impl FnMut(&WalEntry) -> bool) {
        let resident = self.resident_len();
        let mut sealed = scan_frames(&self.bytes, true).entries;
        sealed.retain(&mut keep);
        self.pending.retain(&mut keep);
        self.pending.splice(0..0, sealed);
        self.bytes.clear();
        self.last_frame = None;
        self.pending_bytes = self.pending.iter().map(framed_len).sum();
        self.checkpointed += resident - self.pending.len();
        self.appended_since = 0;
    }

    /// Materializes every pending append as a sealed frame: the flush path
    /// of the group-commit analogy. Idempotent; called by every observer of
    /// the byte artifact (scan, fault injection, raw access), so sealing
    /// time is unobservable.
    fn seal(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.bytes.reserve(self.pending_bytes);
        for entry in std::mem::take(&mut self.pending) {
            let body_len = entry.key.len() + entry.bytes.len() + BODY_FIXED;
            self.last_frame = Some(self.bytes.len());
            self.bytes
                .extend_from_slice(&(body_len as u32).to_le_bytes());
            // Checksum placeholder, patched once the body is in place.
            self.bytes.extend_from_slice(&[0u8; 4]);
            let body_at = self.bytes.len();
            self.bytes
                .extend_from_slice(&(entry.key.len() as u32).to_le_bytes());
            self.bytes.extend_from_slice(entry.key.as_bytes());
            self.bytes.extend_from_slice(&entry.version.to_le_bytes());
            self.bytes
                .extend_from_slice(&(entry.bytes.len() as u32).to_le_bytes());
            self.bytes.extend_from_slice(&entry.bytes);
            self.bytes
                .extend_from_slice(&entry.visible_at.as_nanos().to_le_bytes());
            self.bytes
                .extend_from_slice(&entry.committed_at.as_nanos().to_le_bytes());
            let crc = crc32c(&self.bytes[body_at..]);
            self.bytes[body_at - 4..body_at].copy_from_slice(&crc.to_le_bytes());
        }
        self.pending_bytes = 0;
    }

    /// Walks the frames in order, verifying each checksum (when `verify`),
    /// and stops at the first bad frame. Never panics, whatever the bytes
    /// hold — arbitrary truncation and bit flips surface as a [`WalFault`]
    /// with the failing record's exact offset. Seals pending appends first.
    pub fn scan(&mut self, verify: bool) -> WalScan {
        self.seal();
        scan_frames(&self.bytes, verify)
    }

    /// Drops the fault and everything after it, keeping the verified
    /// prefix a previous [`WalLog::scan`] vouched for.
    pub fn truncate_to(&mut self, scan: &WalScan) {
        self.seal();
        self.bytes.truncate(scan.verified_len);
        self.records = self.checkpointed + scan.entries.len();
        self.last_frame = (!scan.entries.is_empty()).then_some(scan.last_frame);
    }

    /// Discards the log and re-frames `entries` from scratch — the
    /// epoch-bumped rejoin path, where a quarantined replica's back-filled
    /// memtable becomes its new durable truth.
    pub fn rebuild<'a>(&mut self, entries: impl Iterator<Item = &'a WalEntry>) -> u64 {
        self.bytes.clear();
        self.records = 0;
        self.checkpointed = 0;
        self.last_frame = None;
        self.pending.clear();
        self.pending_bytes = 0;
        let mut bytes = 0u64;
        for e in entries {
            bytes += self.append(e.clone()) as u64;
        }
        bytes
    }

    /// Fault injection ([`antipode_sim::fault::DiskFaultKind::TornWrite`]):
    /// cuts the tail frame roughly in half, as if the process lost power
    /// with the final `write(2)` half-applied. Returns the torn frame's
    /// offset, or `None` when there is no complete tail frame to cut (an
    /// empty log, or a tail that is already torn) — then nothing changes.
    pub fn tear_tail(&mut self) -> Option<usize> {
        self.seal();
        let at = self.last_frame.take()?;
        let frame_len = self.bytes.len() - at;
        self.bytes.truncate(at + frame_len / 2);
        self.records -= 1;
        Some(at)
    }

    /// Fault injection without a plan behind it: replaces the resident log
    /// with `image`, whatever it holds — the arbitrary-damage injector of the
    /// never-panics harness (`tests/decoder_fuzz.rs`). Checkpointed records
    /// stay counted.
    pub fn overwrite(&mut self, image: &[u8]) {
        self.pending.clear();
        self.pending_bytes = 0;
        self.bytes = image.to_vec();
        let scan = scan_frames(&self.bytes, true);
        self.records = self.checkpointed + scan.entries.len();
        self.last_frame =
            (scan.fault.is_none() && !scan.entries.is_empty()).then_some(scan.last_frame);
    }

    /// Fault injection ([`antipode_sim::fault::DiskFaultKind::BitFlip`]):
    /// flips one deterministically sampled bit somewhere in the log. The
    /// offset mixes `offset_seed` with the log length, so a given fault
    /// window always damages the same byte of the same log. Returns the
    /// flipped offset, or `None` on an empty log.
    pub fn flip_byte(&mut self, offset_seed: u64) -> Option<usize> {
        self.seal();
        if self.bytes.is_empty() {
            return None;
        }
        let mix = splitmix64(offset_seed ^ self.bytes.len() as u64);
        let at = (mix % self.bytes.len() as u64) as usize;
        let bit = 1u8 << (splitmix64(mix) % 8) as u8;
        self.bytes[at] ^= bit;
        Some(at)
    }
}

/// Walks `bytes` as a sequence of `[len][crc][body]` frames. Public so the
/// integrity property tests can fuzz raw byte corruption without going
/// through a replica.
pub fn scan_frames(bytes: &[u8], verify: bool) -> WalScan {
    let mut scan = WalScan::default();
    let mut at = 0usize;
    while at < bytes.len() {
        let fault = |kind| Some(WalFault { offset: at, kind });
        if bytes.len() - at < FRAME_HEADER {
            scan.fault = fault(WalFaultKind::TornFrame);
            break;
        }
        let body_len =
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]) as usize;
        let stored_crc =
            u32::from_le_bytes([bytes[at + 4], bytes[at + 5], bytes[at + 6], bytes[at + 7]]);
        let body_at = at + FRAME_HEADER;
        if bytes.len() - body_at < body_len {
            scan.fault = fault(WalFaultKind::TornFrame);
            break;
        }
        let body = &bytes[body_at..body_at + body_len];
        if verify && crc32c(body) != stored_crc {
            scan.fault = fault(WalFaultKind::ChecksumMismatch);
            break;
        }
        match decode_body(body) {
            Some(entry) => {
                scan.entries.push(entry);
                scan.last_frame = at;
            }
            None => {
                // Structurally undecodable body. With verification on this
                // is unreachable for frames this module wrote; without it, a
                // corrupt length inside the body lands here. Either way the
                // frame boundary itself held, so the loss is bounded like a
                // torn write.
                scan.fault = fault(WalFaultKind::TornFrame);
                break;
            }
        }
        at = body_at + body_len;
    }
    scan.verified_len = at;
    scan
}

/// The framed byte length of one record.
fn framed_len(entry: &WalEntry) -> usize {
    FRAME_HEADER + entry.key.len() + entry.bytes.len() + BODY_FIXED
}

/// Decodes one frame body; `None` when its internal lengths disagree with
/// the frame (only reachable on corrupt input).
fn decode_body(body: &[u8]) -> Option<WalEntry> {
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
        if body.len() - *at < n {
            return None;
        }
        let s = &body[*at..*at + n];
        *at += n;
        Some(s)
    };
    let key_len = u32::from_le_bytes(take(&mut at, 4)?.try_into().ok()?) as usize;
    let key_bytes = take(&mut at, key_len)?;
    let key: Rc<str> = Rc::from(String::from_utf8_lossy(key_bytes).as_ref());
    let version = u64::from_le_bytes(take(&mut at, 8)?.try_into().ok()?);
    let val_len = u32::from_le_bytes(take(&mut at, 4)?.try_into().ok()?) as usize;
    let bytes = Bytes::copy_from_slice(take(&mut at, val_len)?);
    let visible_at = SimTime::from_nanos(u64::from_le_bytes(take(&mut at, 8)?.try_into().ok()?));
    let committed_at = SimTime::from_nanos(u64::from_le_bytes(take(&mut at, 8)?.try_into().ok()?));
    (at == body.len()).then_some(WalEntry {
        key,
        version,
        bytes,
        visible_at,
        committed_at,
    })
}

/// SplitMix64 — the same deterministic mixer the property tests use to
/// derive per-seed parameters.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str, version: u64, val: &[u8]) -> WalEntry {
        WalEntry {
            key: Rc::from(key),
            version,
            bytes: Bytes::copy_from_slice(val),
            visible_at: SimTime::from_millis(3),
            committed_at: SimTime::from_millis(1),
        }
    }

    fn sample_log() -> WalLog {
        let mut log = WalLog::default();
        log.append(entry("alpha", 1, b"first"));
        log.append(entry("beta", 2, b"second-value"));
        log.append(entry("alpha", 3, b"third"));
        // Tests below poke `log.bytes` directly, so hand them a sealed
        // artifact; `appends_seal_lazily_and_identically` covers the
        // deferred path.
        log.seal();
        log
    }

    #[test]
    fn appends_seal_lazily_and_identically() {
        let mut lazy = WalLog::default();
        lazy.append(entry("alpha", 1, b"first"));
        lazy.append(entry("beta", 2, b"second-value"));
        assert!(lazy.bytes.is_empty(), "append must not serialize");
        assert_eq!(lazy.byte_len(), lazy.pending_bytes);
        let mut eager = WalLog::default();
        eager.append(entry("alpha", 1, b"first"));
        eager.scan(true); // observation seals the first frame early
        eager.append(entry("beta", 2, b"second-value"));
        // Sealing time is unobservable: same entries, same artifact.
        assert_eq!(lazy.as_bytes(), eager.as_bytes());
        assert_eq!(lazy.byte_len(), eager.byte_len());
        assert_eq!(lazy.len(), 2);
        let scan = lazy.scan(true);
        assert!(scan.fault.is_none());
        assert_eq!(scan.entries.len(), 2);
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let mut log = sample_log();
        assert_eq!(log.len(), 3);
        let scan = log.scan(true);
        assert!(scan.fault.is_none());
        assert_eq!(scan.verified_len, log.byte_len());
        assert_eq!(scan.entries.len(), 3);
        let e = &scan.entries[1];
        assert_eq!(&*e.key, "beta");
        assert_eq!(e.version, 2);
        assert_eq!(e.bytes, Bytes::from_static(b"second-value"));
        assert_eq!(e.visible_at, SimTime::from_millis(3));
        assert_eq!(e.committed_at, SimTime::from_millis(1));
    }

    #[test]
    fn framed_length_matches_the_documented_footprint() {
        let mut log = WalLog::default();
        let n = log.append(entry("key", 9, b"value"));
        assert_eq!(n, FRAME_HEADER + BODY_FIXED + 3 + 5);
        assert_eq!(log.byte_len(), n);
    }

    #[test]
    fn torn_tail_is_detected_at_the_last_frame_and_truncation_heals() {
        let mut log = sample_log();
        let before_tear = log.scan(true);
        let torn_at = log.tear_tail().unwrap();
        assert_eq!(log.len(), 2);
        let scan = log.scan(true);
        assert_eq!(
            scan.fault,
            Some(WalFault {
                offset: torn_at,
                kind: WalFaultKind::TornFrame
            })
        );
        assert_eq!(scan.entries.len(), 2, "prefix records survive");
        assert_eq!(scan.verified_len, torn_at);
        log.truncate_to(&scan);
        let healed = log.scan(true);
        assert!(healed.fault.is_none());
        assert_eq!(healed.entries.len(), 2);
        assert_eq!(healed.entries[1].key, before_tear.entries[1].key);
    }

    #[test]
    fn a_tear_decrements_only_when_it_cut_a_complete_frame() {
        // Regression: after a truncation `last_frame` used to sit at the end
        // of the log, so the next tear cut nothing and still counted one
        // record off; a second tear on a torn tail did the same.
        let mut log = sample_log();
        log.tear_tail().unwrap();
        assert_eq!(log.tear_tail(), None, "the tail is already torn");
        assert_eq!(log.len(), 2);
        let scan = log.scan(true);
        log.truncate_to(&scan);
        assert_eq!(log.len(), 2);
        let torn_at = log.tear_tail().expect("a complete frame is the tail again");
        assert_eq!(torn_at, scan.last_frame);
        assert_eq!(log.len(), log.scan(true).entries.len());
        assert_eq!(log.len(), 1);
        assert_eq!(WalLog::default().tear_tail(), None);
    }

    #[test]
    fn a_checkpoint_drops_sealed_and_staged_records_but_keeps_counting_them() {
        let mut log = sample_log(); // three sealed records…
        log.append(entry("gamma", 4, b"staged")); // …and one staged
        assert!(!log.checkpoint_due());
        log.checkpoint(|e| e.version % 2 == 0);
        assert!(
            log.bytes.is_empty(),
            "kept records are staged, not re-framed"
        );
        assert_eq!((log.len(), log.resident_len()), (4, 2));
        assert_eq!(log.byte_len(), log.pending_bytes);
        let scan = log.scan(true);
        assert!(scan.fault.is_none());
        let versions: Vec<u64> = scan.entries.iter().map(|e| e.version).collect();
        assert_eq!(versions, [2, 4], "survivors keep their order");
        // A later truncation counts from the checkpoint, not from zero.
        log.tear_tail().unwrap();
        let scan = log.scan(true);
        log.truncate_to(&scan);
        assert_eq!((log.len(), log.resident_len()), (3, 1));
    }

    #[test]
    fn a_checkpoint_is_due_every_interval_of_appends() {
        let mut log = WalLog::default();
        for v in 0..CHECKPOINT_INTERVAL as u64 {
            assert!(!log.checkpoint_due());
            log.append(entry("k", v, b""));
        }
        assert!(log.checkpoint_due());
        // Keeping everything does not make the next append due again.
        log.checkpoint(|_| true);
        assert!(!log.checkpoint_due());
        assert_eq!(log.resident_len(), CHECKPOINT_INTERVAL);
    }

    #[test]
    fn damage_in_a_checkpointed_prefix_goes_with_it() {
        let mut log = sample_log();
        log.flip_byte(7);
        assert!(log.scan(true).fault.is_some());
        log.checkpoint(|_| false);
        log.append(entry("delta", 5, b"fresh"));
        let scan = log.scan(true);
        assert!(scan.fault.is_none(), "the rotted bytes are gone");
        assert_eq!(scan.entries.len(), 1);
        assert_eq!((log.len(), log.resident_len()), (4, 1));
    }

    #[test]
    fn every_single_bit_flip_is_caught_or_harmless_never_misread() {
        // Flip each bit of a small log in turn: the verified scan must
        // either still produce the original records (impossible — the seal
        // covers every body byte and the header bytes change the frame
        // geometry) or report a fault. It must never silently decode
        // different data.
        let mut reference = sample_log();
        let ref_scan = reference.scan(true);
        for byte in 0..reference.byte_len() {
            for bit in 0..8u8 {
                let mut log = sample_log();
                log.bytes[byte] ^= 1 << bit;
                let scan = log.scan(true);
                if scan.fault.is_none() {
                    panic!("flip at byte {byte} bit {bit} went undetected");
                }
                // Records before the fault are byte-identical to the
                // original prefix.
                for (got, want) in scan.entries.iter().zip(ref_scan.entries.iter()) {
                    assert_eq!(got.key, want.key);
                    assert_eq!(got.version, want.version);
                    assert_eq!(got.bytes, want.bytes);
                }
            }
        }
    }

    #[test]
    fn unverified_scan_accepts_bit_rot_in_a_value() {
        // The ablation: flip a value byte, scan without verification —
        // the corrupt record decodes silently.
        let mut log = sample_log();
        let scan = log.scan(true);
        // Locate the second frame's value bytes and flip one.
        let frame1_len = FRAME_HEADER + BODY_FIXED + 5 + 5; // "alpha"/"first"
        let val_at = frame1_len + FRAME_HEADER + 4 + 4 + 8 + 4; // into "second-value"
        log.bytes[val_at] ^= 0x01;
        let verified = log.scan(true);
        assert_eq!(
            verified.fault.map(|f| f.kind),
            Some(WalFaultKind::ChecksumMismatch)
        );
        assert_eq!(verified.fault.unwrap().offset, frame1_len);
        let unverified = log.scan(false);
        assert!(unverified.fault.is_none(), "ablation trusts the bytes");
        assert_ne!(
            unverified.entries[1].bytes, scan.entries[1].bytes,
            "the ablation silently serves the rotted value"
        );
    }

    #[test]
    fn flip_byte_is_deterministic_per_seed_and_log_length() {
        let mut a = sample_log();
        let mut b = sample_log();
        assert_eq!(a.flip_byte(42), b.flip_byte(42));
        assert_eq!(a.bytes, b.bytes);
        assert!(WalLog::default().flip_byte(42).is_none());
    }

    #[test]
    fn rebuild_reframes_from_entries() {
        let mut log = sample_log();
        log.flip_byte(7);
        let replacement = [entry("alpha", 3, b"third"), entry("beta", 2, b"x")];
        let bytes = log.rebuild(replacement.iter());
        assert_eq!(log.len(), 2);
        assert_eq!(bytes as usize, log.byte_len());
        let scan = log.scan(true);
        assert!(scan.fault.is_none());
        assert_eq!(&*scan.entries[0].key, "alpha");
    }

    #[test]
    fn arbitrary_truncations_never_panic_and_report_the_tail_offset() {
        let mut full = sample_log();
        let frame_bounds: Vec<usize> = {
            let mut at = 0;
            let mut bounds = vec![0];
            for e in full.scan(true).entries {
                at += FRAME_HEADER + BODY_FIXED + e.key.len() + e.bytes.len();
                bounds.push(at);
            }
            bounds
        };
        for cut in 0..full.byte_len() {
            let scan = scan_frames(&full.bytes[..cut], true);
            // The fault (if the cut is not on a frame boundary) sits at the
            // last frame boundary at or before the cut.
            let boundary = *frame_bounds
                .iter()
                .take_while(|b| **b <= cut)
                .last()
                .unwrap();
            if cut == boundary {
                assert!(scan.fault.is_none(), "cut {cut} is a clean boundary");
            } else {
                assert_eq!(
                    scan.fault,
                    Some(WalFault {
                        offset: boundary,
                        kind: WalFaultKind::TornFrame
                    }),
                    "cut {cut}"
                );
            }
            assert_eq!(scan.verified_len, boundary);
        }
    }
}
