//! Property tests for `barrier` over the real simulated stores: whatever the
//! replication delays, once a barrier on a lineage returns, every dependency
//! is visible in the caller's region, and the subsequent reads succeed.

use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, BarrierOutcome, UnknownStorePolicy};
use antipode_lineage::{Lineage, LineageId};
use antipode_sim::dist::Dist;
use antipode_sim::net::regions::{EU, US};
use antipode_sim::{Network, Sim};
use antipode_store::replica::{KvProfile, KvStore};
use antipode_store::shim::KvShim;
use bytes::Bytes;
use proptest::prelude::*;

fn profile(median_ms: f64, sigma: f64) -> KvProfile {
    KvProfile {
        local_write: Dist::constant_ms(1.0),
        local_read: Dist::constant_ms(0.5),
        replication: Dist::lognormal_ms(median_ms.max(0.1), sigma),
        rtt_hops: 1.0,
        retry_interval: Dist::constant_ms(50.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any mix of stores with arbitrary replication speeds, any number of
    /// writes: after barrier, every read in the remote region observes a
    /// value at least as new as the written version.
    #[test]
    fn barrier_implies_visibility(
        seed in any::<u64>(),
        store_medians in proptest::collection::vec((1.0f64..5_000.0, 0.1f64..1.2), 1..4),
        writes in proptest::collection::vec((0usize..3, 0u8..6), 1..12),
        drop_p in 0.0f64..0.5,
    ) {
        let sim = Sim::new(seed);
        let net = Rc::new(Network::global_triangle());
        let stores: Vec<KvStore> = store_medians
            .iter()
            .enumerate()
            .map(|(i, (m, s))| {
                let st = KvStore::new(&sim, net.clone(), format!("store-{i}"), &[EU, US], profile(*m, *s));
                sim.faults().set_replication_drop(st.name(), drop_p);
                st
            })
            .collect();
        let shims: Vec<KvShim> = stores.iter().map(|s| KvShim::new(s.clone())).collect();
        let mut ap = Antipode::new(sim.clone()).with_policy(UnknownStorePolicy::Fail);
        for shim in &shims {
            ap.register(Rc::new(shim.clone()));
        }

        let shims2 = shims.clone();
        let writes2 = writes.clone();
        let n_stores = stores.len();
        let ok = sim.clone().block_on(async move {
            let mut lineage = Lineage::new(LineageId(1));
            let mut written: Vec<(usize, String, u64)> = Vec::new();
            for (store_idx, key) in &writes2 {
                let idx = *store_idx % n_stores;
                let key = format!("k{key}");
                let wid = shims2[idx]
                    .write(EU, &key, Bytes::from_static(b"v"), &mut lineage)
                    .await
                    .expect("EU configured");
                written.push((idx, key, wid.version()));
            }
            ap.barrier(&lineage, US).await.expect("barrier succeeds");
            // Every write must now be visible in the US.
            for (idx, key, version) in written {
                let got = shims2[idx].store().get_sync(US, &key);
                match got {
                    Some(v) if v.version >= version => {}
                    other => return Err(format!("{key} at store {idx}: {other:?} < v{version}")),
                }
            }
            Ok(())
        });
        prop_assert!(ok.is_ok(), "{:?}", ok.err());
    }

    /// Dry-run never blocks, and its verdict agrees with `is_visible`.
    #[test]
    fn dry_run_matches_visibility(
        seed in any::<u64>(),
        median_ms in 100.0f64..10_000.0,
        probe_after_ms in 0u64..20_000,
    ) {
        let sim = Sim::new(seed);
        let net = Rc::new(Network::global_triangle());
        let store = KvStore::new(&sim, net, "db", &[EU, US], profile(median_ms, 0.5));
        let shim = KvShim::new(store.clone());
        let mut ap = Antipode::new(sim.clone());
        ap.register(Rc::new(shim.clone()));

        let shim2 = shim.clone();
        let lineage = sim.clone().block_on(async move {
            let mut l = Lineage::new(LineageId(1));
            shim2.write(EU, "k", Bytes::from_static(b"v"), &mut l).await.unwrap();
            l
        });
        sim.run_for(Duration::from_millis(probe_after_ms));
        let before = sim.now();
        let report = ap.dry_run(&lineage, US);
        prop_assert_eq!(sim.now(), before, "dry-run must not advance time");
        let dep = lineage.deps().next().unwrap();
        let visible = shim.store().is_visible(US, dep.key(), dep.version());
        prop_assert_eq!(report.is_satisfied(), visible);
        prop_assert_eq!(report.visible.len() + report.unmet.len(), 1);
    }

    /// barrier_budget: short budgets report the unmet dependency;
    /// generous budgets complete. Either way the clock never exceeds
    /// write-time + timeout before returning on failure.
    #[test]
    fn barrier_timeout_semantics(seed in any::<u64>(), timeout_ms in 1u64..30_000) {
        let sim = Sim::new(seed);
        let net = Rc::new(Network::global_triangle());
        // Replication takes ~10 s.
        let store = KvStore::new(&sim, net, "db", &[EU, US], profile(10_000.0, 0.05));
        let shim = KvShim::new(store.clone());
        let mut ap = Antipode::new(sim.clone());
        ap.register(Rc::new(shim.clone()));

        let shim2 = shim.clone();
        let res = sim.clone().block_on(async move {
            let mut l = Lineage::new(LineageId(1));
            shim2.write(EU, "k", Bytes::from_static(b"v"), &mut l).await.unwrap();
            ap.barrier_budget(&l, US, Duration::from_millis(timeout_ms)).await
        });
        match res {
            Ok(BarrierOutcome::Complete(report)) => {
                prop_assert!(report.blocked <= Duration::from_millis(timeout_ms))
            }
            Ok(BarrierOutcome::Degraded(d)) => prop_assert_eq!(d.unmet.len(), 1),
            other => prop_assert!(false, "unexpected outcome {other:?}"),
        }
    }
}
