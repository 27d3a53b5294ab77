//! Cluster description and rank placement.
//!
//! The paper's two testbeds are expressed as [`Cluster`] values:
//!
//! * Point-to-point: two nodes, 2 × quad-core Xeons each, one IB NIC and one
//!   Myri-10G NIC ([`Cluster::xeon_pair`]).
//! * NAS: ten Grid'5000 nodes, 4 dual-core Opterons each, one IB NIC
//!   ([`Cluster::grid5000_opteron`]).
//!
//! A [`Placement`] maps MPI ranks onto nodes, deciding which pairs
//! communicate over shared memory (same node) and which over the network.

use crate::nic::NicModel;

/// Identifier of a physical node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A homogeneous cluster: `nodes` identical nodes, each with
/// `cores_per_node` cores and the same set of NICs.
#[derive(Clone, Debug)]
pub struct Cluster {
    pub nodes: usize,
    pub cores_per_node: usize,
    /// NIC models installed in every node (one fabric rail each).
    pub rails: Vec<NicModel>,
}

impl Cluster {
    pub fn new(nodes: usize, cores_per_node: usize, rails: Vec<NicModel>) -> Cluster {
        assert!(nodes > 0 && cores_per_node > 0);
        Cluster {
            nodes,
            cores_per_node,
            rails,
        }
    }

    /// The paper's point-to-point testbed (§4.1): two boxes of two quad-core
    /// 3.16 GHz Xeons, one Myri-10G NIC + one ConnectX IB NIC each.
    pub fn xeon_pair() -> Cluster {
        Cluster::new(2, 8, vec![NicModel::connectx_ib(), NicModel::myri10g_mx()])
    }

    /// The paper's NAS testbed (§4.2): ten Grid'5000 nodes, four dual-core
    /// 2.6 GHz Opteron 2218s each, one IB 10G NIC.
    pub fn grid5000_opteron() -> Cluster {
        Cluster::new(10, 8, vec![NicModel::connectx_ib()])
    }

    /// Total core count.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }
}

/// A mapping from MPI rank to node.
#[derive(Clone, Debug)]
pub struct Placement {
    node_of: Vec<NodeId>,
}

impl Placement {
    /// Build from an explicit rank→node table.
    pub fn explicit(node_of: Vec<NodeId>) -> Placement {
        Placement { node_of }
    }

    /// Block placement: fill each node's cores before moving to the next —
    /// MPICH2's default. With 16 ranks on 8-core nodes, ranks 0–7 land on
    /// node 0 and ranks 8–15 on node 1.
    pub fn block(nranks: usize, cluster: &Cluster) -> Placement {
        assert!(
            nranks <= cluster.total_cores(),
            "{} ranks exceed {} cores",
            nranks,
            cluster.total_cores()
        );
        Placement {
            node_of: (0..nranks)
                .map(|r| NodeId(r / cluster.cores_per_node))
                .collect(),
        }
    }

    /// Round-robin placement: rank r on node r mod nodes. With at most one
    /// rank per node this gives the paper's "8 processes, one per node, no
    /// shared memory" NAS configuration.
    pub fn round_robin(nranks: usize, cluster: &Cluster) -> Placement {
        assert!(
            nranks <= cluster.total_cores(),
            "{} ranks exceed {} cores",
            nranks,
            cluster.total_cores()
        );
        Placement {
            node_of: (0..nranks).map(|r| NodeId(r % cluster.nodes)).collect(),
        }
    }

    /// One rank per node (pt2pt benchmarks).
    pub fn one_per_node(nranks: usize, cluster: &Cluster) -> Placement {
        assert!(nranks <= cluster.nodes, "more ranks than nodes");
        Placement {
            node_of: (0..nranks).map(NodeId).collect(),
        }
    }

    /// Node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> NodeId {
        self.node_of[rank]
    }

    /// Number of placed ranks.
    pub fn nranks(&self) -> usize {
        self.node_of.len()
    }

    /// Do two ranks share a node (and thus communicate over shared memory)?
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of[a] == self.node_of[b]
    }

    /// Ranks co-located on `node`, in rank order.
    ///
    /// O(nranks) scan — fine for one-off queries; per-rank loops at scale
    /// should go through a shared [`TopoMap`] instead.
    pub fn ranks_on(&self, node: NodeId) -> Vec<usize> {
        (0..self.node_of.len())
            .filter(|&r| self.node_of[r] == node)
            .collect()
    }
}

/// Precomputed topology indices over a [`Placement`], built once per job and
/// shared (`Arc<TopoMap>`) by every rank.
///
/// All the per-rank queries the stack and the hierarchical collectives need
/// — node membership lists, local indices, node leaders — are O(1) lookups
/// here. Without this, each of P ranks doing its own `ranks_on` scan costs
/// O(P²) job-wide, which dominates setup at thousands of ranks.
#[derive(Debug)]
pub struct TopoMap {
    node_of: Vec<NodeId>,
    /// Co-located ranks per node id, rank order (empty for unpopulated ids).
    ranks_by_node: Vec<Vec<usize>>,
    /// Position of each rank within its node's membership list.
    local_index: Vec<usize>,
    /// Lowest rank on each node (`usize::MAX` for unpopulated ids).
    leader_of_node: Vec<usize>,
    /// Node leaders (lowest rank per populated node), ascending.
    leaders: Vec<usize>,
    /// For each rank: its position in `leaders` if it is one.
    leader_pos: Vec<Option<usize>>,
    populated_nodes: usize,
}

impl TopoMap {
    /// Build the indices with one pass over the placement.
    pub fn new(placement: &Placement) -> TopoMap {
        let nranks = placement.nranks();
        let max_node = (0..nranks)
            .map(|r| placement.node_of(r).0)
            .max()
            .map_or(0, |m| m + 1);
        let mut ranks_by_node: Vec<Vec<usize>> = vec![Vec::new(); max_node];
        let mut node_of = Vec::with_capacity(nranks);
        let mut local_index = Vec::with_capacity(nranks);
        for r in 0..nranks {
            let n = placement.node_of(r);
            node_of.push(n);
            local_index.push(ranks_by_node[n.0].len());
            ranks_by_node[n.0].push(r);
        }
        let leader_of_node: Vec<usize> = ranks_by_node
            .iter()
            .map(|rs| rs.first().copied().unwrap_or(usize::MAX))
            .collect();
        let mut leaders: Vec<usize> = leader_of_node
            .iter()
            .copied()
            .filter(|&l| l != usize::MAX)
            .collect();
        leaders.sort_unstable();
        let mut leader_pos = vec![None; nranks];
        for (i, &l) in leaders.iter().enumerate() {
            leader_pos[l] = Some(i);
        }
        let populated_nodes = leaders.len();
        TopoMap {
            node_of,
            ranks_by_node,
            local_index,
            leader_of_node,
            leaders,
            leader_pos,
            populated_nodes,
        }
    }

    /// Number of ranks.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.node_of.len()
    }

    /// Node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> NodeId {
        self.node_of[rank]
    }

    /// Do two ranks share a node?
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of[a] == self.node_of[b]
    }

    /// Ranks co-located with `rank` (including itself), rank order.
    #[inline]
    pub fn node_ranks(&self, rank: usize) -> &[usize] {
        &self.ranks_by_node[self.node_of[rank].0]
    }

    /// Ranks on `node`, rank order (empty if unpopulated).
    #[inline]
    pub fn ranks_on(&self, node: NodeId) -> &[usize] {
        self.ranks_by_node.get(node.0).map_or(&[], |v| v.as_slice())
    }

    /// Position of `rank` within [`TopoMap::node_ranks`].
    #[inline]
    pub fn local_index(&self, rank: usize) -> usize {
        self.local_index[rank]
    }

    /// The leader (lowest rank) of `rank`'s node.
    #[inline]
    pub fn leader_of(&self, rank: usize) -> usize {
        self.leader_of_node[self.node_of[rank].0]
    }

    /// Is `rank` its node's leader?
    #[inline]
    pub fn is_leader(&self, rank: usize) -> bool {
        self.leader_pos[rank].is_some()
    }

    /// All node leaders, ascending rank order.
    #[inline]
    pub fn leaders(&self) -> &[usize] {
        &self.leaders
    }

    /// `rank`'s position among the leaders, if it is one.
    #[inline]
    pub fn leader_index(&self, rank: usize) -> Option<usize> {
        self.leader_pos[rank]
    }

    /// Number of nodes hosting at least one rank.
    #[inline]
    pub fn populated_nodes(&self) -> usize {
        self.populated_nodes
    }

    /// Does any pair of ranks span two nodes? (Equivalently: does any rank
    /// have a remote peer?) O(1), replacing the all-pairs scan.
    #[inline]
    pub fn multi_node(&self) -> bool {
        self.populated_nodes > 1
    }

    /// Largest per-node rank count (sizing hint for collective selection).
    pub fn max_node_ranks(&self) -> usize {
        self.ranks_by_node.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement_fills_nodes() {
        let c = Cluster::grid5000_opteron();
        let p = Placement::block(16, &c);
        assert_eq!(p.node_of(0), NodeId(0));
        assert_eq!(p.node_of(7), NodeId(0));
        assert_eq!(p.node_of(8), NodeId(1));
        assert_eq!(p.node_of(15), NodeId(1));
        assert!(p.same_node(0, 7));
        assert!(!p.same_node(7, 8));
    }

    #[test]
    fn round_robin_spreads_ranks() {
        let c = Cluster::grid5000_opteron();
        let p = Placement::round_robin(8, &c);
        for r in 0..8 {
            assert_eq!(p.node_of(r), NodeId(r));
        }
        // No pair shares a node — the "no shared memory" NAS case.
        for a in 0..8 {
            for b in 0..8 {
                if a != b {
                    assert!(!p.same_node(a, b));
                }
            }
        }
    }

    #[test]
    fn ranks_on_lists_colocated() {
        let c = Cluster::new(2, 2, vec![]);
        let p = Placement::block(4, &c);
        assert_eq!(p.ranks_on(NodeId(0)), vec![0, 1]);
        assert_eq!(p.ranks_on(NodeId(1)), vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn overfull_placement_rejected() {
        let c = Cluster::new(1, 2, vec![]);
        let _ = Placement::block(3, &c);
    }

    #[test]
    fn topo_map_indices_match_placement() {
        let c = Cluster::new(3, 4, vec![]);
        let p = Placement::block(9, &c); // 0-3 node0, 4-7 node1, 8 node2
        let t = TopoMap::new(&p);
        assert_eq!(t.nranks(), 9);
        assert_eq!(t.populated_nodes(), 3);
        assert!(t.multi_node());
        assert_eq!(t.node_ranks(5), &[4, 5, 6, 7]);
        assert_eq!(t.ranks_on(NodeId(2)), &[8]);
        assert_eq!(t.local_index(6), 2);
        assert_eq!(t.leader_of(7), 4);
        assert_eq!(t.leaders(), &[0, 4, 8]);
        assert!(t.is_leader(4) && !t.is_leader(5));
        assert_eq!(t.leader_index(8), Some(2));
        assert_eq!(t.leader_index(3), None);
        assert_eq!(t.max_node_ranks(), 4);
        for r in 0..9 {
            assert_eq!(t.node_of(r), p.node_of(r));
            assert_eq!(t.node_ranks(r)[t.local_index(r)], r);
        }
    }

    #[test]
    fn topo_map_single_node_is_not_multi() {
        let c = Cluster::new(1, 8, vec![]);
        let p = Placement::block(5, &c);
        let t = TopoMap::new(&p);
        assert!(!t.multi_node());
        assert_eq!(t.populated_nodes(), 1);
        assert_eq!(t.leaders(), &[0]);
    }

    #[test]
    fn paper_testbeds() {
        let pt2pt = Cluster::xeon_pair();
        assert_eq!(pt2pt.nodes, 2);
        assert_eq!(pt2pt.rails.len(), 2);
        let nas = Cluster::grid5000_opteron();
        assert_eq!(nas.nodes, 10);
        assert_eq!(nas.total_cores(), 80);
        assert_eq!(nas.rails.len(), 1);
    }
}
