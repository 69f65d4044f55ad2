//! The Lineage API (paper Table 2) as a per-request context.
//!
//! A [`LineageCtx`] plays the role the paper assigns to the (thread-local)
//! request context: it holds the lineage of the request currently executing
//! in this task. `root` initializes it, `stop` discards it (Antipode's
//! default dependency-truncation behaviour, §5.1), and lineages move in and
//! out of request [`Baggage`] at RPC boundaries.

use antipode_lineage::{Baggage, Lineage, WriteId};

use crate::idgen::LineageIdGen;

/// Per-request lineage context.
#[derive(Clone, Debug, Default)]
pub struct LineageCtx {
    current: Option<Lineage>,
}

impl LineageCtx {
    /// An empty context (no lineage attached yet).
    pub fn new() -> Self {
        LineageCtx::default()
    }

    /// `root()`: initializes an empty lineage in the running process. Used at
    /// the beginning of a request's execution; replaces any existing lineage.
    pub fn root(&mut self, gen: &LineageIdGen) -> &Lineage {
        self.current = Some(Lineage::new(gen.next_id()));
        self.current.as_ref().expect("just set")
    }

    /// `stop()`: closes the lineage, dropping the ongoing dependency set.
    /// Returns the discarded lineage (callers may still `transfer` from it).
    pub fn stop(&mut self) -> Option<Lineage> {
        self.current.take()
    }

    /// Adopts a lineage received from elsewhere (RPC baggage or a datastore
    /// read), replacing the current one.
    pub fn adopt(&mut self, lineage: Lineage) {
        self.current = Some(lineage);
    }

    /// The current lineage, if any.
    pub fn lineage(&self) -> Option<&Lineage> {
        self.current.as_ref()
    }

    /// Mutable access to the current lineage, if any.
    pub fn lineage_mut(&mut self) -> Option<&mut Lineage> {
        self.current.as_mut()
    }

    /// `append(ℒ, dep)` on the current lineage. No-op without a lineage.
    pub fn append(&mut self, dep: WriteId) {
        if let Some(l) = &mut self.current {
            l.append(dep);
        }
    }

    /// `remove(ℒ, dep)` on the current lineage.
    pub fn remove(&mut self, dep: &WriteId) -> bool {
        self.current.as_mut().is_some_and(|l| l.remove(dep))
    }

    /// `transfer(ℒa, ℒb)`: copies `from`'s dependencies into the current
    /// lineage, explicitly re-establishing cross-lineage transitivity
    /// (§5.1's ACL example). No-op without a current lineage.
    pub fn transfer(&mut self, from: &Lineage) {
        if let Some(l) = &mut self.current {
            l.transfer_from(from);
        }
    }

    /// Writes the current lineage into outgoing request baggage; clears the
    /// entry if there is none. Services must include their lineage with all
    /// RPC requests and responses (§6.2).
    pub fn inject(&self, baggage: &mut Baggage) {
        match &self.current {
            Some(l) => baggage.set_lineage(l),
            None => baggage.clear_lineage(),
        }
    }

    /// Extracts a lineage from incoming baggage into this context. Leaves
    /// the context untouched when the baggage carries none.
    pub fn extract(&mut self, baggage: &Baggage) {
        if let Ok(l) = baggage.lineage() {
            self.current = Some(l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antipode_lineage::LineageId;

    fn wid(k: &str, v: u64) -> WriteId {
        WriteId::new("store", k, v)
    }

    #[test]
    fn root_creates_fresh_lineage() {
        let gen = LineageIdGen::new(1);
        let mut ctx = LineageCtx::new();
        assert!(ctx.lineage().is_none());
        let id1 = ctx.root(&gen).id();
        let id2 = ctx.root(&gen).id();
        assert_ne!(id1, id2, "each root is a new lineage");
        assert!(ctx.lineage().unwrap().is_empty());
    }

    #[test]
    fn stop_discards_dependencies() {
        let gen = LineageIdGen::new(1);
        let mut ctx = LineageCtx::new();
        ctx.root(&gen);
        ctx.append(wid("k", 1));
        let dropped = ctx.stop().unwrap();
        assert_eq!(dropped.len(), 1);
        assert!(ctx.lineage().is_none());
        ctx.append(wid("x", 1)); // no-op, must not panic
        assert!(ctx.lineage().is_none());
    }

    #[test]
    fn transfer_copies_dependencies() {
        let gen = LineageIdGen::new(1);
        let mut block = LineageCtx::new();
        block.root(&gen);
        block.append(wid("acl", 7));
        let l_block = block.stop().unwrap();

        let mut post = LineageCtx::new();
        post.root(&gen);
        post.transfer(&l_block);
        assert!(post.lineage().unwrap().contains(&wid("acl", 7)));
    }

    #[test]
    fn inject_extract_round_trip() {
        let gen = LineageIdGen::new(4);
        let mut ctx = LineageCtx::new();
        ctx.root(&gen);
        ctx.append(wid("post-1", 3));
        let mut bag = Baggage::new();
        ctx.inject(&mut bag);

        let mut remote = LineageCtx::new();
        remote.extract(&bag);
        assert_eq!(remote.lineage(), ctx.lineage());
    }

    #[test]
    fn inject_without_lineage_clears_entry() {
        let mut bag = Baggage::new();
        bag.set_lineage(&Lineage::new(LineageId(9)));
        LineageCtx::new().inject(&mut bag);
        assert!(bag.lineage().is_err());
    }

    #[test]
    fn extract_from_empty_baggage_keeps_current() {
        let gen = LineageIdGen::new(1);
        let mut ctx = LineageCtx::new();
        ctx.root(&gen);
        ctx.append(wid("k", 1));
        ctx.extract(&Baggage::new());
        assert_eq!(ctx.lineage().unwrap().len(), 1);
    }

    #[test]
    fn remove_returns_presence() {
        let gen = LineageIdGen::new(1);
        let mut ctx = LineageCtx::new();
        ctx.root(&gen);
        ctx.append(wid("k", 1));
        assert!(ctx.remove(&wid("k", 1)));
        assert!(!ctx.remove(&wid("k", 1)));
    }
}
