//! Lifetime of a simulation (DESIGN.md "Lifetime of a simulation"): the
//! handle `Sim::new` returns owns the run, and dropping it frees it. Before
//! this contract every `Sim` was an `Rc` cycle — parked tasks captured
//! handles that pointed back at the task table — so a sweep of N cells
//! peaked at the sum of its cells. `live_sims()` counts simulations not yet
//! freed on this thread (each test has its own).

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use antipode_app::post_notification::{NotifierKind, PostNotifConfig, PostStoreKind};
use antipode_app::social::SocialConfig;
use antipode_app::speculation_cell::SpecCellConfig;
use antipode_app::train_ticket::TrainTicketConfig;
use antipode_app::{acl, hotel, post_notification, social, speculation_cell, train_ticket};
use antipode_mc::{Explorer, BARRIER_BASIC};
use antipode_sim::dist::Dist;
use antipode_sim::net::regions::{EU, US};
use antipode_sim::sync::{oneshot, Semaphore};
use antipode_sim::{live_sims, Network, Sim, SimTime};
use antipode_store::replica::{KvProfile, KvStore};
use bytes::Bytes;

#[test]
fn every_app_entry_point_frees_its_simulation() {
    let secs = Duration::from_secs(5);
    for antipode in [false, true] {
        let mut cfg = SocialConfig::new(EU, 50.0).with_duration(secs);
        cfg.antipode = antipode;
        assert!(social::run(&cfg).writer.completed() > 0);
        assert_eq!(live_sims(), 0, "social::run (antipode: {antipode})");

        let mut cfg = TrainTicketConfig::new(100.0).with_duration(secs);
        cfg.antipode = antipode;
        assert!(train_ticket::run(&cfg).client.completed() > 0);
        assert_eq!(live_sims(), 0, "train_ticket::run (antipode: {antipode})");
    }

    hotel::run(&hotel::HotelConfig::new().with_requests(50));
    assert_eq!(live_sims(), 0, "hotel::run");

    let cfg = PostNotifConfig::new(PostStoreKind::S3, NotifierKind::Sns).with_requests(50);
    post_notification::run(&cfg);
    post_notification::run(&cfg.with_antipode());
    assert_eq!(live_sims(), 0, "post_notification::run");

    acl::run(&acl::AclConfig::new().with_requests(50));
    acl::run(&acl::AclConfig::new().with_transfer().with_requests(50));
    assert_eq!(live_sims(), 0, "acl::run");

    speculation_cell::run_speculation(&SpecCellConfig::speculative().with_requests(20));
    speculation_cell::run_speculation(&SpecCellConfig::blocking().with_chaos().with_requests(20));
    assert_eq!(live_sims(), 0, "speculation_cell::run_speculation");
}

#[test]
fn a_model_checker_exploration_frees_every_execution() {
    let report = Explorer::new().explore(&BARRIER_BASIC, 1);
    assert!(report.verified());
    assert_eq!(live_sims(), 0);
}

fn store(sim: &Sim) -> KvStore {
    let profile = KvProfile {
        local_write: Dist::constant_ms(1.0),
        local_read: Dist::constant_ms(0.5),
        replication: Dist::constant_ms(100.0),
        rtt_hops: 1.0,
        retry_interval: Dist::constant_ms(200.0),
    };
    let net = Rc::new(Network::global_triangle());
    KvStore::new(sim, net, "db", &[EU, US], profile)
}

#[test]
fn dropping_the_owner_releases_what_parked_tasks_captured() {
    let sim = Sim::new(1);
    let token = Rc::new(());
    let kv = store(&sim);
    sim.block_on({
        let kv = kv.clone();
        async move { kv.put(EU, "k", Bytes::from_static(b"v")).await.unwrap() }
    });
    // A task parked forever on a version nobody will write, holding the
    // token, a store handle and a `Sim` clone: the cycle of the old design.
    sim.spawn_detached({
        let (token, kv, sim2) = (token.clone(), kv.clone(), sim.clone());
        async move {
            let _ = kv.wait_visible(US, "k", 99).await;
            let _keep = (token, sim2);
        }
    });
    // And one parked on a timer far in the future.
    sim.spawn_detached({
        let (token, sim2) = (token.clone(), sim.clone());
        async move {
            sim2.sleep(Duration::from_secs(3600)).await;
            drop(token);
        }
    });
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(Rc::strong_count(&token), 3);
    let parked = sim.task_count();
    assert!(parked >= 2);

    // Clones dropping never tear down.
    drop(sim.clone());
    assert_eq!(Rc::strong_count(&token), 3);
    assert_eq!(sim.task_count(), parked);

    drop(sim);
    assert_eq!(Rc::strong_count(&token), 1, "both parked futures dropped");
    assert_eq!(live_sims(), 1, "`kv` still holds a clone");
    // The surviving clone is inert, not dangling.
    assert!(kv.get_sync(EU, "k").is_some());
    drop(kv);
    assert_eq!(live_sims(), 0);
}

#[test]
fn owner_moved_into_its_own_block_on_tears_down_after_the_result() {
    struct World {
        sim: Sim,
        token: Rc<()>,
    }
    let token = Rc::new(());
    let world = World {
        sim: Sim::new(2),
        token: token.clone(),
    };
    let sim = world.sim.clone();
    // A background loop that never ends, as every store has.
    sim.spawn_detached({
        let (sim2, token) = (sim.clone(), token.clone());
        async move {
            loop {
                sim2.sleep(Duration::from_secs(1)).await;
                let _ = &token;
            }
        }
    });
    let out = sim.block_on(async move {
        world.sim.sleep(Duration::from_secs(3)).await;
        // The owner drops here, inside one of its own tasks, with
        // `block_on` on the stack: teardown must wait.
        let World { sim, token } = world;
        drop(sim);
        drop(token);
        7
    });
    assert_eq!(out, 7);
    assert_eq!(Rc::strong_count(&token), 1, "the loop was dropped on exit");
    assert_eq!(sim.now(), SimTime::from_secs(3));
    // Inert afterwards: nothing spawns, nothing runs.
    let ran = Rc::new(Cell::new(false));
    sim.spawn_detached({
        let ran = ran.clone();
        async move { ran.set(true) }
    });
    sim.run();
    assert!(!ran.get());
    assert_eq!(sim.task_count(), 0);
    drop(sim);
    assert_eq!(live_sims(), 0);
}

/// Spawns and sleeps on its simulation when dropped.
struct SpawnsOnDrop {
    sim: Sim,
    resurrected: Rc<Cell<bool>>,
}

impl Drop for SpawnsOnDrop {
    fn drop(&mut self) {
        let flag = self.resurrected.clone();
        self.sim.spawn_detached(async move { flag.set(true) });
        drop(self.sim.sleep(Duration::from_secs(1)));
    }
}

#[test]
fn teardown_with_live_primitives_neither_panics_nor_resurrects_work() {
    let sim = Sim::new(3);
    let sem = Semaphore::new(1);
    let resurrected = Rc::new(Cell::new(false));
    // Holds the only permit while parked: its drop hands the permit to the
    // queued waiter below, i.e. wakes a task mid-teardown.
    sim.spawn_detached({
        let (sem, sim2) = (sem.clone(), sim.clone());
        async move {
            let _permit = sem.acquire().await;
            sim2.sleep(Duration::from_secs(3600)).await;
        }
    });
    sim.spawn_detached({
        let sem = sem.clone();
        async move {
            let _permit = sem.acquire().await;
        }
    });
    // A oneshot pair parked across two tasks: dropping the sender wakes the
    // receiver's task.
    let (tx, rx) = oneshot::<u8>();
    sim.spawn_detached({
        let sim2 = sim.clone();
        async move {
            sim2.sleep(Duration::from_secs(3600)).await;
            let _ = tx.send(1);
        }
    });
    sim.spawn_detached(async move {
        let _ = rx.await;
    });
    // A joined task whose handle is parked in another task.
    let handle = sim.spawn({
        let sim2 = sim.clone();
        async move { sim2.sleep(Duration::from_secs(3600)).await }
    });
    sim.spawn_detached(handle);
    // A future whose destructor spawns and sleeps.
    sim.spawn_detached({
        let guard = SpawnsOnDrop {
            sim: sim.clone(),
            resurrected: resurrected.clone(),
        };
        async move {
            std::future::pending::<()>().await;
            drop(guard);
        }
    });
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.task_count(), 7);
    assert_eq!(sem.waiting(), 1);

    let inert = sim.clone();
    drop(sim);
    assert_eq!(inert.task_count(), 0);
    inert.run();
    assert!(
        !resurrected.get(),
        "a task spawned during teardown must not run"
    );
    assert_eq!(inert.now(), SimTime::from_secs(1), "no timer survived");
    drop(inert);
    drop(sem);
    assert_eq!(live_sims(), 0);
}

#[test]
fn a_waker_kept_past_its_simulation_is_inert() {
    /// Stashes the waker it is polled with.
    struct Stash(Rc<Cell<Option<Waker>>>);
    impl Future for Stash {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            self.0.set(Some(cx.waker().clone()));
            Poll::Pending
        }
    }
    let kept = Rc::new(Cell::new(None));
    let first = Sim::new(4);
    first.spawn_detached(Stash(kept.clone()));
    first.run();
    drop(first);
    assert_eq!(live_sims(), 0);
    let stale = kept.take().expect("the task was polled");

    // The next simulation reuses the first one's ready-queue slot and task
    // slot 0: a stale wake must not make its task runnable.
    let second = Sim::new(4);
    let polls = Rc::new(Cell::new(0));
    second.spawn_detached({
        let polls = polls.clone();
        std::future::poll_fn(move |_| {
            polls.set(polls.get() + 1);
            Poll::<()>::Pending
        })
    });
    second.run();
    assert_eq!(polls.get(), 1);
    stale.wake_by_ref();
    stale.wake();
    assert!(!second.step(), "nothing became runnable");
    assert_eq!(polls.get(), 1);
}

#[test]
fn a_sleep_polled_with_a_foreign_waker_still_wakes_it() {
    // The executor registers a timer against the polling task when a `Sleep`
    // sees that task's own waker; any other waker must keep its own wake
    // path, or combinators that poll with one would never hear of the timer.
    struct Flag(AtomicBool);
    impl Wake for Flag {
        fn wake(self: Arc<Self>) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let flag = Arc::new(Flag(AtomicBool::new(false)));
    let sim = Sim::new(5);
    sim.spawn_detached({
        let (sim2, flag) = (sim.clone(), flag.clone());
        async move {
            let mut sleep = sim2.sleep(Duration::from_millis(10));
            let waker = Waker::from(flag);
            let mut cx = Context::from_waker(&waker);
            assert!(Pin::new(&mut sleep).poll(&mut cx).is_pending());
            std::future::pending::<()>().await;
        }
    });
    sim.run();
    assert_eq!(sim.now(), SimTime::from_millis(10));
    assert!(
        flag.0.load(Ordering::SeqCst),
        "the foreign waker was woken by the timer"
    );
}
