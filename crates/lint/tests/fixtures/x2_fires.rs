//! X2 fixture: a speculating module with a raw shim write — fires exactly
//! once. The `barrier_ap` identifier also satisfies X1's checkpoint
//! reachability, so the one finding is X2's; the test-module write below
//! must not fire.

pub async fn render_feed(barrier_ap: Antipode, feed_shim: &KvShim, lin: &mut Lineage) {
    let spec = Speculator::new(barrier_ap, policy());
    feed_shim.write(US, "feed-1", body(), lin).await.ok();
    drop(spec);
}

#[cfg(test)]
mod tests {
    pub async fn write_in_test(feed_shim: &KvShim, lin: &mut Lineage) {
        feed_shim.write(US, "feed-test", body(), lin).await.ok();
    }
}
