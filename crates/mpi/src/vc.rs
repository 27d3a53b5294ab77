//! Virtual connections (VCs) with per-destination send overrides.
//!
//! §3.1.2: "function pointers were added to MPICH2's per-connection virtual
//! connection (VC) structure to allow the various CH3 send functions to be
//! overridden on a per-destination basis. In this way, a call to
//! `MPID_Send()` will result in a call directly to the NewMadeleine send
//! function only when sending to a process on a different node."
//!
//! [`VcPath`] is the Rust rendition of that function pointer: an enum the
//! API layer dispatches on per destination. A stack chooses at `MPI_Init`
//! time whether remote destinations point at the NewMadeleine bypass or at
//! a CH3 transport.
//!
//! ## Scale
//!
//! The table is *interned*: instead of a dense `Vec<VcPath>` per rank
//! (O(ranks) per rank, O(ranks²) job-wide — 128 MB of path entries alone at
//! 4096 ranks), each rank holds an `Arc` to the job-wide [`TopoMap`] and
//! computes `path(dst)` from node locality on demand. Per-rank footprint is
//! a pointer and two words regardless of job size.

use std::collections::HashSet;
use std::sync::Arc;

use simnet::{Placement, TopoMap};

/// Where traffic for one destination flows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VcPath {
    /// Messages to self: matched locally, no transport.
    SelfLoop,
    /// Same node: Nemesis shared-memory channel (CH3 protocols).
    Shm,
    /// Different node, bypass stack: call NewMadeleine directly (§3.1) —
    /// no CH3 protocol, no CH3 matching.
    NmadDirect,
    /// Different node, non-bypass stack: CH3 protocols over the configured
    /// network transport (legacy netmod or tailored baseline).
    Ch3Net,
}

/// The per-process VC table: an immutable view over the shared topology
/// map rather than a materialised per-destination vector. The one thing
/// about a connection that changes at run time — its teardown — is
/// [`RetiredVcs`], a field of the rank's mutable state.
pub struct VcTable {
    topo: Arc<TopoMap>,
    my_rank: usize,
    bypass: bool,
}

/// Dynamically torn-down connections: peers this rank's membership
/// supervisor has declared dead. VC *establishment* is implicit and lazy
/// (the interned table materialises nothing per destination until traffic
/// flows — a late joiner needs no setup call); *teardown* is explicit and
/// sticky, mirroring the one-way Up→Dead verdict. The path computation is
/// untouched by it (the topology is immutable job-wide state); callers
/// consult [`RetiredVcs::is_retired`] before initiating new traffic.
#[derive(Default)]
pub struct RetiredVcs(HashSet<usize>);

impl RetiredVcs {
    /// Tear down the virtual connection to `dst` after a death verdict.
    /// Returns `true` on the first retirement, `false` if already retired.
    pub fn retire(&mut self, dst: usize) -> bool {
        self.0.insert(dst)
    }

    /// Has the connection to `dst` been torn down?
    pub fn is_retired(&self, dst: usize) -> bool {
        self.0.contains(&dst)
    }

    /// How many connections have been retired.
    pub fn count(&self) -> usize {
        self.0.len()
    }
}

impl VcTable {
    /// Build the table for `my_rank` over the job-wide topology map.
    /// `bypass` selects whether inter-node traffic goes straight to
    /// NewMadeleine or through CH3.
    pub fn new(my_rank: usize, topo: Arc<TopoMap>, bypass: bool) -> VcTable {
        VcTable {
            topo,
            my_rank,
            bypass,
        }
    }

    /// Convenience constructor for tests and one-off tables: builds a
    /// private [`TopoMap`] from the placement.
    pub fn from_placement(my_rank: usize, placement: &Placement, bypass: bool) -> VcTable {
        VcTable::new(my_rank, Arc::new(TopoMap::new(placement)), bypass)
    }

    /// The send path for `dst` — the "function pointer" consulted by
    /// `MPID_Send`. O(1), computed from node locality.
    #[inline]
    pub fn path(&self, dst: usize) -> VcPath {
        if dst == self.my_rank {
            VcPath::SelfLoop
        } else if self.topo.same_node(self.my_rank, dst) {
            VcPath::Shm
        } else if self.bypass {
            VcPath::NmadDirect
        } else {
            VcPath::Ch3Net
        }
    }

    pub fn my_rank(&self) -> usize {
        self.my_rank
    }

    /// The shared topology map this table is a view over.
    pub fn topo(&self) -> &Arc<TopoMap> {
        &self.topo
    }

    /// Remote peers (everything not self and not same-node) — the gates a
    /// netmod pre-posts receives for. O(ranks) to materialise; only the
    /// legacy netmod path calls this, the bypass stack never does.
    pub fn remote_peers(&self) -> Vec<usize> {
        let my_node = self.topo.node_of(self.my_rank);
        (0..self.topo.nranks())
            .filter(|&dst| dst != self.my_rank && self.topo.node_of(dst) != my_node)
            .collect()
    }

    /// Any inter-node destinations at all? O(1): some rank lives on another
    /// node exactly when more than one node is populated.
    pub fn has_remote(&self) -> bool {
        self.topo.multi_node()
    }

    /// How many peers can hold eager credits against this rank — the
    /// `peers` term of the hard ceiling `peers × eager_credits ×
    /// eager_threshold` that sizes [`nmad::FlowConfig::unex_bytes_cap`].
    /// Intra-node peers never consume credits (the Nemesis cell pool is
    /// the shared-memory backpressure), so only remote VCs count.
    pub fn credit_peer_count(&self) -> usize {
        self.topo.nranks() - self.topo.node_ranks(self.my_rank).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Cluster;

    #[test]
    fn bypass_table_routes_by_locality() {
        let cluster = Cluster::new(2, 2, vec![]);
        let p = Placement::block(4, &cluster); // 0,1 on node0; 2,3 on node1
        let vc = VcTable::from_placement(1, &p, true);
        assert_eq!(vc.path(1), VcPath::SelfLoop);
        assert_eq!(vc.path(0), VcPath::Shm);
        assert_eq!(vc.path(2), VcPath::NmadDirect);
        assert_eq!(vc.path(3), VcPath::NmadDirect);
        assert_eq!(vc.remote_peers(), vec![2, 3]);
        assert!(vc.has_remote());
        assert_eq!(vc.credit_peer_count(), 2);
    }

    #[test]
    fn non_bypass_table_uses_ch3_net() {
        let cluster = Cluster::new(2, 1, vec![]);
        let p = Placement::block(2, &cluster);
        let vc = VcTable::from_placement(0, &p, false);
        assert_eq!(vc.path(1), VcPath::Ch3Net);
    }

    #[test]
    fn single_node_has_no_remotes() {
        let cluster = Cluster::new(1, 4, vec![]);
        let p = Placement::block(4, &cluster);
        let vc = VcTable::from_placement(2, &p, true);
        assert!(!vc.has_remote());
        assert_eq!(vc.path(0), VcPath::Shm);
        assert_eq!(vc.my_rank(), 2);
    }

    #[test]
    fn retirement_is_sticky_and_per_destination() {
        let cluster = Cluster::new(2, 2, vec![]);
        let p = Placement::block(4, &cluster);
        let vc = VcTable::from_placement(0, &p, true);
        let mut retired = RetiredVcs::default();
        assert!(!retired.is_retired(2));
        assert!(retired.retire(2), "first retirement is fresh");
        assert!(!retired.retire(2), "second retirement is a no-op");
        assert!(retired.is_retired(2));
        assert!(!retired.is_retired(3), "other peers unaffected");
        assert_eq!(retired.count(), 1);
        // Path computation is unchanged — teardown is a policy bit, not a
        // topology mutation.
        assert_eq!(vc.path(2), VcPath::NmadDirect);
    }

    #[test]
    fn tables_share_one_topo_map() {
        // The point of interning: N tables over one placement must not
        // materialise N path vectors. All views alias one TopoMap.
        let cluster = Cluster::new(4, 2, vec![]);
        let p = Placement::block(8, &cluster);
        let topo = Arc::new(TopoMap::new(&p));
        let tables: Vec<VcTable> = (0..8)
            .map(|r| VcTable::new(r, Arc::clone(&topo), true))
            .collect();
        assert_eq!(Arc::strong_count(&topo), 9);
        for (r, vc) in tables.iter().enumerate() {
            assert_eq!(vc.path(r), VcPath::SelfLoop);
            for dst in 0..8 {
                if dst != r {
                    let want = if p.same_node(r, dst) {
                        VcPath::Shm
                    } else {
                        VcPath::NmadDirect
                    };
                    assert_eq!(vc.path(dst), want);
                }
            }
        }
    }
}
