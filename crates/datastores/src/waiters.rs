//! Keyed index of the visibility waiters parked at one replica.
//!
//! An apply must wake the waiters of the record's own key and nothing else:
//! with a heavy-tailed store thousands of barriers park at a replica at
//! once, and comparing each applied record against all of them made the
//! apply cost grow with whatever else was in flight. Waiters are therefore
//! bucketed by key; every waiter carries its subscription sequence number,
//! which fixes the wake order the rest of the simulation observes:
//!
//! - an apply wakes the satisfied waiters of its key in subscription order;
//! - a bulk drain (outage entry, crash, quarantine, the set a WAL replay
//!   satisfies) wakes in *global* subscription order, whatever the keys.
//!
//! Wake order is task-queue order at the woken instant, so both rules are
//! part of the `seed + plan ⇒ identical trace` contract.

use std::rc::Rc;

use antipode_sim::sync::OneSender;

use crate::engine::Record;
use crate::stats;
use crate::substrate::StoreError;
use crate::table::Table;

/// Resolved `Ok(())` when the awaited version lands, `Err(..)` when the
/// replica goes dark (region outage, replica crash) or into quarantine — so
/// waiters subscribed before a fault window never leak past it.
pub(crate) type WaiterTx = OneSender<Result<(), StoreError>>;

struct Waiter {
    seq: u64,
    version: u64,
    tx: WaiterTx,
}

#[derive(Default)]
pub(crate) struct WaiterIndex {
    /// Non-empty buckets only, each in subscription order.
    by_key: Table<Vec<Waiter>>,
    next_seq: u64,
}

impl WaiterIndex {
    /// Parks `tx` until `key` reaches `version`.
    pub(crate) fn subscribe(&mut self, key: Rc<str>, version: u64, tx: WaiterTx) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_key
            .entry(&key)
            .or_insert_with(Vec::new)
            .push(Waiter { seq, version, tx });
    }

    /// Number of parked waiters (diagnostics).
    pub(crate) fn len(&self) -> usize {
        self.by_key.iter().map(|(_, bucket)| bucket.len()).sum()
    }

    /// Wakes, in subscription order, every waiter on `key` that `watermark`
    /// satisfies. Waiters on other keys are not looked at.
    pub(crate) fn wake_satisfied(&mut self, key: &str, watermark: u64) {
        let Some(bucket) = self.by_key.get_mut(key) else {
            return;
        };
        stats::count_waiter_probes(bucket.len() as u64);
        for w in bucket.extract_if(.., |w| w.version <= watermark) {
            let _ = w.tx.send(Ok(()));
        }
        if bucket.is_empty() {
            self.by_key.remove(key);
        }
    }

    /// Removes every waiter, in global subscription order.
    pub(crate) fn drain_all(&mut self) -> Vec<WaiterTx> {
        let mut waiters = Vec::new();
        self.by_key.retain(|_, bucket| {
            waiters.append(bucket);
            false
        });
        in_subscription_order(waiters)
    }

    /// Removes the waiters whose version `data` already holds, in global
    /// subscription order.
    pub(crate) fn drain_visible(&mut self, data: &Table<Record>) -> Vec<WaiterTx> {
        let mut waiters = Vec::new();
        self.by_key.retain(|key, bucket| {
            if let Some(record) = data.get(key) {
                waiters.extend(bucket.extract_if(.., |w| w.version <= record.version));
            }
            !bucket.is_empty()
        });
        in_subscription_order(waiters)
    }
}

/// Fails `drained` waiters with `err`, in the order they were drained: the
/// one way parked waiters learn their replica stopped serving — crashed or
/// dark ([`StoreError::Unavailable`]), or quarantined
/// ([`StoreError::IntegrityFault`]).
pub(crate) fn fail_waiters(drained: Vec<WaiterTx>, err: StoreError) {
    for tx in drained {
        let _ = tx.send(Err(err.clone()));
    }
}

fn in_subscription_order(mut waiters: Vec<Waiter>) -> Vec<WaiterTx> {
    // lint: allow(scheduler-bypass, visibility waiters are store bookkeeping:
    // the order is their own subscription order, and the woken futures still
    // run only when the executor's Schedule picks them)
    waiters.sort_unstable_by_key(|w| w.seq);
    waiters.into_iter().map(|w| w.tx).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use antipode_sim::sync::{oneshot, OneReceiver};
    use antipode_sim::SimTime;
    use bytes::Bytes;
    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Poll, Waker};

    type Rx = OneReceiver<Result<(), StoreError>>;

    /// Subscribes `(key, version)` pairs in order; the receivers come back in
    /// the same order.
    fn park(index: &mut WaiterIndex, subs: &[(&str, u64)]) -> Vec<Rx> {
        subs.iter()
            .map(|&(key, version)| {
                let (tx, rx) = oneshot();
                index.subscribe(Rc::from(key), version, tx);
                rx
            })
            .collect()
    }

    fn woken(rx: &mut Rx) -> bool {
        let mut cx = Context::from_waker(Waker::noop());
        matches!(Pin::new(rx).poll(&mut cx), Poll::Ready(Ok(_)))
    }

    /// Which receiver each drained sender belongs to, in drain order.
    fn drain_order(drained: Vec<WaiterTx>, rxs: &mut [Rx]) -> Vec<usize> {
        let mut seen = vec![false; rxs.len()];
        drained
            .into_iter()
            .map(|tx| {
                let _ = tx.send(Ok(()));
                let hit = (0..rxs.len())
                    .find(|&i| !seen[i] && woken(&mut rxs[i]))
                    .expect("every sender has a receiver");
                seen[hit] = true;
                hit
            })
            .collect()
    }

    fn record(version: u64) -> Record {
        Record {
            version,
            bytes: Bytes::new(),
            visible_at: SimTime::ZERO,
            committed_at: SimTime::ZERO,
        }
    }

    #[test]
    fn an_apply_wakes_only_satisfied_waiters_of_its_key() {
        let mut index = WaiterIndex::default();
        let mut rxs = park(&mut index, &[("a", 1), ("b", 1), ("a", 3), ("a", 2)]);
        index.wake_satisfied("a", 2);
        assert_eq!(index.len(), 2);
        assert!(woken(&mut rxs[0]));
        assert!(woken(&mut rxs[3]));
        assert!(!woken(&mut rxs[1]), "other key untouched");
        assert!(!woken(&mut rxs[2]), "version 3 not reached");
        index.wake_satisfied("a", 3);
        index.wake_satisfied("b", 1);
        assert_eq!(index.len(), 0);
        assert!(index.by_key.is_empty(), "empty buckets are dropped");
    }

    #[test]
    fn bulk_drains_return_global_subscription_order() {
        let mut index = WaiterIndex::default();
        // Key order (a < m < z) disagrees with subscription order.
        let subs = [("z", 1), ("a", 1), ("m", 1), ("a", 2), ("z", 2)];
        let mut rxs = park(&mut index, &subs);
        let drained = index.drain_all();
        assert_eq!(index.len(), 0);
        assert_eq!(drain_order(drained, &mut rxs), vec![0, 1, 2, 3, 4]);

        let mut rxs = park(&mut index, &subs);
        let mut data = Table::default();
        data.insert(Rc::from("z"), record(2));
        data.insert(Rc::from("a"), record(1));
        let drained = index.drain_visible(&data);
        assert_eq!(drain_order(drained, &mut rxs), vec![0, 1, 4]);
        assert_eq!(index.len(), 2, "m@1 and a@2 stay parked");
    }
}
