//! Property-based tests for the datastore frameworks: replication always
//! converges, versions are monotone, visibility is monotone per replica, and
//! shims round-trip arbitrary values.

use std::rc::Rc;

use antipode_lineage::{Lineage, LineageId};
use antipode_sim::dist::Dist;
use antipode_sim::net::regions::{EU, SG, US};
use antipode_sim::{Network, Sim};
use antipode_store::replica::{KvProfile, KvStore};
use antipode_store::shim::{KvShim, QueueShim};
use antipode_store::QueueStore;
use bytes::Bytes;
use proptest::prelude::*;

fn store(sim: &Sim, median_ms: f64, sigma: f64, drop_p: f64) -> KvStore {
    let net = Rc::new(Network::global_triangle());
    let s = KvStore::new(
        sim,
        net,
        "db",
        &[EU, US, SG],
        KvProfile {
            local_write: Dist::constant_ms(1.0),
            local_read: Dist::constant_ms(0.5),
            replication: Dist::lognormal_ms(median_ms.max(0.1), sigma),
            rtt_hops: 1.0,
            retry_interval: Dist::constant_ms(100.0),
        },
    );
    sim.faults().set_replication_drop(s.name(), drop_p);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the write pattern, replication delays and drop rate, once
    /// the simulation goes quiescent every replica agrees on the newest
    /// version of every key (replication converges).
    #[test]
    fn replication_converges(
        seed in any::<u64>(),
        median_ms in 1.0f64..10_000.0,
        sigma in 0.1f64..1.5,
        drop_p in 0.0f64..0.8,
        writes in proptest::collection::vec((0u8..5, 0u8..3), 1..25),
    ) {
        let sim = Sim::new(seed);
        let st = store(&sim, median_ms, sigma, drop_p);
        let st2 = st.clone();
        let writes2 = writes.clone();
        let expected: Vec<(String, u64)> = sim.clone().block_on(async move {
            let mut latest = std::collections::HashMap::new();
            for (key, origin) in &writes2 {
                let key = format!("k{key}");
                let origin = [EU, US, SG][*origin as usize % 3];
                let v = st2.put(origin, &key, Bytes::from_static(b"x")).await.unwrap();
                latest.insert(key, v);
            }
            latest.into_iter().collect()
        });
        sim.run(); // drain all replication
        for (key, version) in expected {
            for region in [EU, US, SG] {
                let got = st.get_sync(region, &key);
                prop_assert!(
                    got.as_ref().map(|v| v.version >= version).unwrap_or(false),
                    "{key}@{region}: {got:?} never reached v{version}"
                );
            }
        }
    }

    /// Versions assigned by one store are strictly increasing.
    #[test]
    fn versions_are_strictly_monotone(
        seed in any::<u64>(),
        n in 1usize..30,
    ) {
        let sim = Sim::new(seed);
        let st = store(&sim, 10.0, 0.3, 0.0);
        let versions = sim.clone().block_on(async move {
            let mut out = Vec::new();
            for i in 0..n {
                out.push(st.put(EU, &format!("k{}", i % 3), Bytes::new()).await.unwrap());
            }
            out
        });
        for w in versions.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// Visibility is monotone at each replica: once `is_visible` turns true
    /// for a (key, version), it stays true.
    #[test]
    fn visibility_is_monotone(seed in any::<u64>(), probes in 2usize..12) {
        let sim = Sim::new(seed);
        let st = store(&sim, 500.0, 0.8, 0.0);
        let v = sim.clone().block_on({
            let st = st.clone();
            async move { st.put(EU, "k", Bytes::new()).await.unwrap() }
        });
        let mut seen_visible = false;
        for _ in 0..probes {
            sim.run_for(std::time::Duration::from_millis(200));
            let vis = st.is_visible(US, "k", v);
            prop_assert!(!seen_visible || vis, "visibility regressed");
            seen_visible = vis;
        }
        sim.run();
        prop_assert!(st.is_visible(US, "k", v));
    }

    /// Shim writes round-trip arbitrary bytes and arbitrary lineage sizes.
    #[test]
    fn kv_shim_round_trips_arbitrary_values(
        seed in any::<u64>(),
        value in proptest::collection::vec(any::<u8>(), 0..512),
        deps in 0usize..20,
    ) {
        let sim = Sim::new(seed);
        let st = store(&sim, 10.0, 0.3, 0.0);
        let shim = KvShim::new(st);
        let value2 = Bytes::from(value.clone());
        let ok = sim.block_on(async move {
            let mut lin = Lineage::new(LineageId(1));
            for i in 0..deps {
                lin.append(antipode_lineage::WriteId::new("other", format!("d{i}"), i as u64));
            }
            let before = lin.clone();
            shim.write(EU, "k", value2.clone(), &mut lin).await.unwrap();
            let (data, stored) = shim.read(EU, "k").await.unwrap().unwrap();
            data == value2 && stored.as_ref() == Some(&before)
        });
        prop_assert!(ok);
    }

    /// Every published message reaches every region's subscriber exactly
    /// once, in id order per subscriber... (delivery order may interleave
    /// across publishes, so we check the *set*).
    #[test]
    fn queue_delivers_exactly_once_per_region(
        seed in any::<u64>(),
        n in 1usize..20,
    ) {
        let sim = Sim::new(seed);
        let net = Rc::new(Network::global_triangle());
        let q = QueueStore::new(&sim, net, "q", &[EU, US], Default::default());
        let shim = QueueShim::new(q.clone());
        let shim2 = shim.clone();
        let ids = sim.clone().block_on(async move {
            let mut ids = Vec::new();
            for _ in 0..n {
                let mut lin = Lineage::new(LineageId(1));
                let wid = shim2.publish(EU, Bytes::from_static(b"m"), &mut lin).await.unwrap();
                ids.push(wid.version());
            }
            ids
        });
        // Subscribe (messages published before this whose delivery is still
        // in flight will also arrive), publish a second batch, then drain
        // everything after quiescence.
        let mut rx = shim.subscribe(US).unwrap();
        let shim3 = shim.clone();
        let n2 = n;
        let republished = sim.clone().block_on(async move {
            let mut v = Vec::new();
            for _ in 0..n2 {
                let mut lin = Lineage::new(LineageId(2));
                let wid = shim3.publish(EU, Bytes::from_static(b"m2"), &mut lin).await.unwrap();
                v.push(wid.version());
            }
            v
        });
        sim.run();
        let mut got = Vec::new();
        while let Some(m) = rx.try_recv().unwrap() {
            got.push(m.raw.id);
        }
        // Exactly once: no duplicates…
        let mut dedup = got.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), got.len(), "duplicate deliveries in {:?}", got);
        // …every republished id arrived…
        for id in &republished {
            prop_assert!(got.contains(id), "missing {} in {:?}", id, got);
        }
        // …and nothing that was never published.
        for id in &got {
            prop_assert!(
                republished.contains(id) || ids.contains(id),
                "phantom message {}",
                id
            );
        }
    }
}
