//! X2 fixture: the same speculating module with its effects parked in a
//! `ConfinementBuffer` — clean.

pub async fn render_feed(barrier_ap: Antipode, feed_shim: &KvShim, lin: &mut Lineage) {
    let spec = Speculator::new(barrier_ap, policy());
    let mut buf = ConfinementBuffer::new();
    buf.confine_write(feed_shim, US, "feed-1", body());
    drop((spec, buf));
}
