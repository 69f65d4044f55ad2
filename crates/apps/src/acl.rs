//! The access-control-list scenario motivating `transfer` (paper §5.1).
//!
//! Before writing a new post, Alice blocks her follower Bob by writing to an
//! ACL held in geo-replicated storage. Two lineages result: ℒblock (the
//! block request) and ℒpost (the post request). Antipode truncates
//! dependency sets at lineage boundaries by default, so even with barriers
//! in place, Bob's region can deliver the post notification while the ACL
//! update is still replicating — Bob gets notified despite the block. The
//! fix is `transfer(ℒblock, ℒpost)`: the developer explicitly carries the
//! ACL write into the post lineage, and the reader-side barrier then waits
//! for it.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use antipode::{Antipode, LineageIdGen};
use antipode_lineage::Lineage;
use antipode_sim::dist::Dist;
use antipode_sim::net::regions::{EU, US};
use antipode_sim::net::Network;
use antipode_sim::{RateCounter, Sim};
use antipode_store::replica::KvProfile;
use antipode_store::shim::{KvShim, QueueShim};
use antipode_store::{MySql, Redis, Sns};
use bytes::Bytes;

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct AclConfig {
    /// Whether the developer calls `transfer(ℒblock, ℒpost)`.
    pub transfer: bool,
    /// Number of block-then-post request pairs.
    pub requests: usize,
    /// Gap between Alice's block and her post.
    pub think_time: Duration,
    /// Master seed.
    pub seed: u64,
}

impl AclConfig {
    /// Default: 200 request pairs, 50 ms think time, no transfer.
    pub fn new() -> Self {
        AclConfig {
            transfer: false,
            requests: 200,
            think_time: Duration::from_millis(50),
            seed: 0xAC1,
        }
    }

    /// Enables the `transfer` call.
    pub fn with_transfer(mut self) -> Self {
        self.transfer = true;
        self
    }

    /// Sets the request count.
    pub fn with_requests(mut self, n: usize) -> Self {
        self.requests = n;
        self
    }
}

impl Default for AclConfig {
    fn default() -> Self {
        AclConfig::new()
    }
}

/// Experiment output.
#[derive(Clone, Debug, Default)]
pub struct AclResult {
    /// Bob notified although Alice had blocked him first — the §5.1 XCY
    /// violation.
    pub wrong_notifications: RateCounter,
}

/// An ACL store that replicates noticeably slower than the post path — the
/// §5.1 race (`acl-storage` replication slower than `post-storage`).
fn slow_acl_profile() -> KvProfile {
    KvProfile {
        local_write: Dist::lognormal_ms(0.5, 0.2),
        local_read: Dist::lognormal_ms(0.3, 0.2),
        replication: Dist::LogNormal {
            median: 3.0,
            sigma: 0.4,
        },
        rtt_hops: 1.0,
        retry_interval: Dist::constant_ms(100.0),
    }
}

/// Runs the scenario. Barriers are always placed (this is about *tracking*,
/// not enforcement placement): without `transfer` they simply cannot know
/// about the ACL write.
pub fn run(cfg: &AclConfig) -> AclResult {
    let sim = Sim::new(cfg.seed);
    let net = Rc::new(Network::global_triangle());
    let acl = Redis::with_profile(
        &sim,
        net.clone(),
        "acl-redis",
        &[EU, US],
        slow_acl_profile(),
    );
    let posts = MySql::new(&sim, net.clone(), "post-mysql", &[EU, US]);
    let notifier = Sns::new(&sim, net.clone(), "notif-sns", &[EU, US]);
    let acl_shim = KvShim::new(acl.store().clone());
    let post_shim = KvShim::new(posts.store().clone());
    let notif_shim = QueueShim::new(notifier.queue().clone());

    let mut ap = Antipode::new(sim.clone());
    ap.register(Rc::new(acl_shim.clone()));
    ap.register(Rc::new(post_shim.clone()));
    ap.register(Rc::new(notif_shim.clone()));

    let wrong = Rc::new(RefCell::new(RateCounter::new()));

    // --- Region B: follower-notify. ---
    {
        let wrong = wrong.clone();
        let acl_shim2 = acl_shim.clone();
        let notif_shim2 = notif_shim.clone();
        let ap = ap.clone();
        let requests = cfg.requests;
        sim.spawn_detached(async move {
            let mut sub = notif_shim2.subscribe(US).expect("US configured");
            for _ in 0..requests {
                let Ok(Some(msg)) = sub.recv().await else {
                    break;
                };
                let pair = String::from_utf8(msg.payload.to_vec()).expect("pair id");
                if let Some(lin) = &msg.lineage {
                    ap.barrier(lin, US).await.expect("shims registered");
                }
                // Deliver to Bob only if the ACL does not block him.
                let blocked = acl_shim2
                    .read(US, &format!("block/{pair}"))
                    .await
                    .expect("US configured")
                    .is_some();
                // Alice blocked Bob *before* posting, so notifying him is a
                // violation.
                wrong.borrow_mut().record(!blocked);
            }
        });
    }

    // --- Region A: Alice blocks Bob, then posts. ---
    let gen = Rc::new(LineageIdGen::new(9));
    for i in 0..cfg.requests {
        let sim2 = sim.clone();
        let acl_shim = acl_shim.clone();
        let post_shim = post_shim.clone();
        let notif_shim = notif_shim.clone();
        let gen = gen.clone();
        let transfer = cfg.transfer;
        let think = cfg.think_time;
        sim.spawn_detached(async move {
            sim2.sleep(Duration::from_millis(100 * i as u64)).await;
            // ℒblock: block Bob.
            let mut l_block = Lineage::new(gen.next_id());
            acl_shim
                .write(
                    EU,
                    &format!("block/{i}"),
                    Bytes::from_static(b"blocked"),
                    &mut l_block,
                )
                .await
                .expect("EU configured");
            // Execution of the block request ends here (stop): by default its
            // dependency set is dropped.
            sim2.sleep(think).await;
            // ℒpost: create the post.
            let mut l_post = Lineage::new(gen.next_id());
            if transfer {
                // transfer(ℒblock, ℒpost): carry the ACL write forward.
                l_post.transfer_from(&l_block);
            }
            post_shim
                .write(
                    EU,
                    &format!("post/{i}"),
                    Bytes::from(vec![0u8; 256]),
                    &mut l_post,
                )
                .await
                .expect("EU configured");
            notif_shim
                .publish(EU, Bytes::from(format!("{i}")), &mut l_post)
                .await
                .expect("EU configured");
        });
    }

    sim.run();
    let out = *wrong.borrow();
    AclResult {
        wrong_notifications: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_transfer_bob_gets_notified() {
        // The ACL replicates in seconds; the notification arrives in
        // hundreds of milliseconds; the barrier knows nothing about ℒblock.
        let r = run(&AclConfig::new().with_requests(100));
        let pct = r.wrong_notifications.percent();
        assert!(pct > 50.0, "wrong notifications {pct}%");
    }

    #[test]
    fn transfer_fixes_the_violation() {
        let r = run(&AclConfig::new().with_requests(100).with_transfer());
        assert_eq!(r.wrong_notifications.hits(), 0);
        assert_eq!(r.wrong_notifications.total(), 100);
    }
}
