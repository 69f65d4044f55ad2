//! X2 fixture: the same unconfined speculative write, waived in place.

pub async fn render_feed(barrier_ap: Antipode, feed_shim: &KvShim, lin: &mut Lineage) {
    let spec = Speculator::new(barrier_ap, policy());
    // lint: allow(unconfined-speculative-write, fixture — this effect is
    // idempotent and safe to re-apply after a rollback)
    feed_shim.write(US, "feed-1", body(), lin).await.ok();
    drop(spec);
}
