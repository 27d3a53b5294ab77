//! Collective operations, built over point-to-point.
//!
//! The NAS kernels (§4.2) need barrier, broadcast, (all)reduce and
//! all-to-all. MPICH2 implements its collectives over ADI3 point-to-point;
//! we do the same with the textbook algorithms MPICH2 1.0-era used:
//! dissemination barrier, binomial-tree broadcast/reduce, and pairwise
//! all-to-all exchange.
//!
//! Every collective draws a fresh sequence number from the process state —
//! legal because MPI requires all ranks to invoke collectives in the same
//! order — and tags its traffic in a reserved context, so collective
//! traffic can never match user point-to-point receives.
//!
//! ## Scale: hierarchical and log-round algorithms
//!
//! The flat algorithms are O(P) messages per rank for alltoall and treat
//! the topology as flat. At thousands of ranks that drowns the simulator
//! (and a real fabric) in per-message overhead, so this module also
//! provides:
//!
//! * [`bcast_hier`] / [`allreduce_sum_hier`] — intra-node leader pattern:
//!   reduce/forward inside each node over shared memory, then a binomial
//!   tree (bcast) or recursive doubling with the MPICH non-power-of-two
//!   fold (allreduce) across node leaders only.
//! * [`alltoall_bruck`] / [`alltoallv_bruck`] — Bruck's algorithm:
//!   ⌈log₂ P⌉ rounds of packed exchanges (P log P messages job-wide
//!   instead of P²). Blocks are length-prefixed, so one implementation
//!   serves both the fixed and variable-size variants; each rank keeps its
//!   blocks in one contiguous buffer plus a `u32` length table and slices
//!   the result out of it once.
//! * [`alltoallv_windowed`] — pairwise exchange with a bounded number of
//!   in-flight request pairs, for when payload bytes (not message count)
//!   dominate.
//!
//! The `*_auto` selectors pick by job size and topology; below the
//! thresholds they return the flat algorithms byte-for-byte, so existing
//! small-run figures stay bit-identical.


use bytes::Bytes;
use simnet::{NmBuf, TopoMap};

use nmad::keys::{
    coll_key, OP_ALLGATHER, OP_ALLTOALL, OP_ALLTOALLV, OP_BARRIER, OP_BCAST, OP_REDUCE,
    OP_TRYBAR,
};

use crate::api::{MpiHandle, PeerDead, Src};
use crate::progress::NetPath;

pub(crate) fn next_seq(mpi: &MpiHandle) -> u32 {
    mpi.state.with_state(|st| {
        let seq = st.coll_seq;
        st.coll_seq = seq.wrapping_add(1);
        seq
    })
}

/// The committed world epoch: collective keys carry it so the core's epoch
/// hygiene can recognize (and count) stale cross-epoch frames after a
/// shrink. 0 before any revocation, and on stacks without the bypass core.
pub(crate) fn world_epoch(mpi: &MpiHandle) -> u8 {
    match &mpi.state.net {
        NetPath::Direct(core) => core.committed_epoch(),
        _ => 0,
    }
}

/// Serialize f64s little-endian.
pub fn f64s_to_bytes(v: &[f64]) -> Bytes {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    Bytes::from(out)
}

/// Deserialize f64s.
pub fn bytes_to_f64s(b: &[u8]) -> Vec<f64> {
    assert_eq!(b.len() % 8, 0, "not an f64 vector");
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// The identity group: COMM_WORLD as the member list the group-scoped
/// algorithms take (position = rank).
fn world(mpi: &MpiHandle) -> Vec<usize> {
    (0..mpi.size()).collect()
}

/// Dissemination barrier: ⌈log₂ P⌉ rounds; in round k, rank r signals
/// r + 2ᵏ and hears from r − 2ᵏ (mod P).
pub fn barrier(mpi: &MpiHandle) {
    if mpi.size() == 1 {
        return;
    }
    let seq = next_seq(mpi);
    barrier_group_ep(mpi, world_epoch(mpi), seq, 0, &world(mpi), mpi.rank());
}

/// Binomial-tree broadcast. `data` must be `Some` on `root` (ignored
/// elsewhere); every rank returns the payload.
pub fn bcast(mpi: &MpiHandle, root: usize, data: Option<Bytes>) -> Bytes {
    let rank = mpi.rank();
    assert!(root < mpi.size());
    let seq = next_seq(mpi);
    let key = coll_key(world_epoch(mpi), OP_BCAST, 0, seq);
    // Internally the payload is an NmBuf handle: forwarding to several
    // children shares one allocation instead of cloning per child.
    let mut payload = if rank == root {
        NmBuf::from(data.expect("bcast root must supply data"))
    } else {
        NmBuf::default()
    };
    bcast_group(mpi, key, &world(mpi), root, rank, &mut payload);
    payload.into_bytes()
}

/// Binomial-tree sum-reduction of equal-length f64 vectors to `root`.
pub fn reduce_sum(mpi: &MpiHandle, root: usize, contrib: &[f64]) -> Option<Vec<f64>> {
    assert!(root < mpi.size());
    let seq = next_seq(mpi);
    let key = coll_key(world_epoch(mpi), OP_REDUCE, 0, seq);
    // The accumulator is mutated in place each round; it cannot alias the
    // caller's borrowed contribution.
    let mut acc = contrib.to_vec();
    reduce_group(mpi, key, &world(mpi), root, mpi.rank(), &mut acc).then_some(acc)
}

/// Allreduce (sum) = reduce to rank 0, then broadcast.
pub fn allreduce_sum(mpi: &MpiHandle, contrib: &[f64]) -> Vec<f64> {
    match reduce_sum(mpi, 0, contrib) {
        Some(total) => {
            let b = bcast(mpi, 0, Some(f64s_to_bytes(&total)));
            bytes_to_f64s(&b)
        }
        None => {
            let b = bcast(mpi, 0, None);
            bytes_to_f64s(&b)
        }
    }
}

/// Personalized all-to-all (pairwise exchange): `blocks[i]` is sent to
/// rank i; the result's element i came from rank i. All receives are
/// posted before any send, so rendezvous transfers cannot deadlock.
pub fn alltoall(mpi: &MpiHandle, blocks: Vec<Bytes>) -> Vec<Bytes> {
    pairwise_exchange(mpi, OP_ALLTOALL, blocks, usize::MAX)
}

/// Allgather (ring algorithm): every rank contributes one block and
/// returns all blocks, indexed by rank.
pub fn allgather(mpi: &MpiHandle, mine: Bytes) -> Vec<Bytes> {
    let (rank, size) = (mpi.rank(), mpi.size());
    let seq = next_seq(mpi);
    let key = coll_key(world_epoch(mpi), OP_ALLGATHER, 0, seq);
    let mine = NmBuf::from(mine);
    let mut result: Vec<Option<Bytes>> = (0..size).map(|_| None).collect();
    result[rank] = Some(mine.share().into_bytes());
    if size == 1 {
        return result.into_iter().map(|b| b.unwrap()).collect();
    }
    // Ring: in step s, send the block received in step s-1 to the right
    // neighbour; after size-1 steps everyone has everything. Each block is
    // forwarded as a shared handle — one allocation travels the whole ring.
    let right = (rank + 1) % size;
    let left = (rank + size - 1) % size;
    let mut outgoing = mine;
    for step in 0..size - 1 {
        let r = mpi.state.irecv_key(&mpi.ctx, Src::Rank(left), key);
        let s = mpi.state.isend_key(&mpi.ctx, right, key, outgoing.share());
        let (d, _) = mpi.state.wait(&mpi.ctx, r);
        mpi.state.wait(&mpi.ctx, s);
        let block = NmBuf::from(d.expect("allgather block"));
        // The block received in step s originated at rank - s - 1.
        let origin = (rank + size - step - 1) % size;
        result[origin] = Some(block.share().into_bytes());
        outgoing = block;
    }
    result.into_iter().map(|b| b.expect("hole")).collect()
}

/// Personalized all-to-all with per-destination block sizes (MPI_Alltoallv;
/// needed by the IS kernel's bucket exchange). `blocks[i]` goes to rank i
/// (sizes may differ, including empty); the result's element i came from
/// rank i.
pub fn alltoallv(mpi: &MpiHandle, blocks: Vec<Bytes>) -> Vec<Bytes> {
    pairwise_exchange(mpi, OP_ALLTOALLV, blocks, usize::MAX)
}

// --- Elastic membership: fault-tolerant and survivor-group collectives ----

/// Fault-tolerant dissemination barrier over an explicit member list
/// (ULFM-flavoured). Requires the membership supervisor to be armed —
/// receives from a dead member terminate only because the drain protocol
/// fails them.
///
/// The deadlock-freedom argument hinges on one rule: **every member
/// completes every dissemination round**, whether or not it has already
/// observed a failure. A member that bailed out early would leave its
/// round-k partners blocked on a live-but-absent peer — a hang the
/// membership layer rightly never resolves (the peer isn't dead). Instead,
/// failure is carried *in-band*: each round's payload is a little
/// ok/poison word (0 = clean, `dead+1` = "rank `dead` is gone"). A member
/// that sees a failure — its own send/recv failing fast against the corpse,
/// or a poisoned word from a neighbour — keeps exchanging, but poisons
/// everything it sends from then on.
///
/// By induction over rounds every live member finishes the full schedule,
/// so the barrier never deadlocks and leaves no unmatched traffic toward
/// live peers. The dissemination sweep alone has ULFM's documented
/// *inconsistent* outcomes — members that heard the poison see the corpse,
/// members whose exchanges all predated the verdict do not. The verdict is
/// therefore decided by a fault-tolerant agreement round
/// (`comm::agree_group`) seeded with each member's local
/// observation: **all surviving members return the same result** — `Ok` if
/// the agreed-dead set is empty, `Err(PeerDead)` naming the lowest agreed
/// corpse otherwise.
pub fn try_barrier_group(mpi: &MpiHandle, group: &[usize]) -> Result<(), PeerDead> {
    let gsize = group.len();
    let my_pos = group
        .iter()
        .position(|&r| r == mpi.rank())
        .expect("caller must be a member of the group");
    if gsize <= 1 {
        return Ok(());
    }
    let seq = next_seq(mpi);
    let ep = world_epoch(mpi);
    // First corpse observed, directly (failed completion) or transitively
    // (poisoned payload).
    let mut dead: Option<usize> = None;
    let mut round = 0u16;
    let mut dist = 1usize;
    while dist < gsize {
        let to = group[(my_pos + dist) % gsize];
        let from = group[(my_pos + gsize - dist) % gsize];
        let key = coll_key(ep, OP_TRYBAR, round, seq);
        let word: u32 = match dead {
            Some(p) => p as u32 + 1,
            None => 0,
        };
        let payload = Bytes::copy_from_slice(&word.to_le_bytes());
        let r = mpi.state.irecv_key(&mpi.ctx, Src::Rank(from), key);
        let s = mpi.state.isend_key(&mpi.ctx, to, key, NmBuf::from(payload));
        mpi.state.wait(&mpi.ctx, s);
        if let Some(p) = mpi.state.failed_peer(s) {
            dead.get_or_insert(p);
        }
        let (d, _) = mpi.state.wait(&mpi.ctx, r);
        match mpi.state.failed_peer(r) {
            Some(p) => {
                dead.get_or_insert(p);
            }
            None => {
                let d = d.expect("try_barrier payload");
                let w = u32::from_le_bytes(d[..4].try_into().unwrap());
                if w != 0 {
                    dead.get_or_insert(w as usize - 1);
                }
            }
        }
        dist <<= 1;
        round += 1;
    }
    // Agreement round: the dissemination sweep's verdict can be split
    // (some members saw the poison, some didn't). Agree on the union of
    // everyone's observations so all survivors return the same answer.
    let agree_seq = next_seq(mpi);
    let seed: Vec<usize> = dead.into_iter().collect();
    let agreed = crate::comm::agree_group(mpi, ep, agree_seq, group, my_pos, &seed);
    match agreed.first() {
        Some(&peer) => {
            mpi.state.with_state(|st| st.coll_aborts += 1);
            Err(PeerDead { peer })
        }
        None => Ok(()),
    }
}

/// Dissemination barrier over an explicit member list (all members alive,
/// all calling with the identical list). This is how survivors synchronize
/// after the dead have been drained: the group simply omits the corpses.
pub fn barrier_group_of(mpi: &MpiHandle, group: &[usize]) {
    let my_pos = group
        .iter()
        .position(|&r| r == mpi.rank())
        .expect("caller must be a member of the group");
    let seq = next_seq(mpi);
    barrier_group_ep(mpi, world_epoch(mpi), seq, 0, group, my_pos);
}

/// Dissemination barrier over a group with an explicit epoch, sequence
/// number and first round — the one dissemination loop, behind
/// [`barrier`], [`barrier_group_of`], the leader phase of [`barrier_hier`]
/// and the communicator-scoped barrier (whose keys carry the
/// *communicator's* epoch, not the world's). In round k, position p
/// signals p + 2ᵏ and hears from p − 2ᵏ (mod the group size).
pub(crate) fn barrier_group_ep(
    mpi: &MpiHandle,
    ep: u8,
    seq: u32,
    round_base: u16,
    group: &[usize],
    my_pos: usize,
) {
    let gsize = group.len();
    debug_assert_eq!(group[my_pos], mpi.rank());
    let mut round = round_base;
    let mut dist = 1usize;
    while dist < gsize {
        let to = group[(my_pos + dist) % gsize];
        let from = group[(my_pos + gsize - dist) % gsize];
        let key = coll_key(ep, OP_BARRIER, round, seq);
        let s = mpi.state.isend_key(&mpi.ctx, to, key, NmBuf::default());
        let r = mpi.state.irecv_key(&mpi.ctx, Src::Rank(from), key);
        mpi.state.wait(&mpi.ctx, s);
        mpi.state.wait(&mpi.ctx, r);
        dist <<= 1;
        round += 1;
    }
}

/// Sum-allreduce over an explicit member list (recursive doubling with the
/// MPICH non-power-of-two fold). The survivor-group counterpart of
/// [`allreduce_sum`]: members must all be alive and pass the same list.
pub fn allreduce_sum_group(mpi: &MpiHandle, group: &[usize], contrib: &[f64]) -> Vec<f64> {
    let my_pos = group
        .iter()
        .position(|&r| r == mpi.rank())
        .expect("caller must be a member of the group");
    let seq = next_seq(mpi);
    let mut acc = contrib.to_vec();
    allreduce_group_recdbl(mpi, world_epoch(mpi), OP_REDUCE, seq, 2, group, my_pos, &mut acc);
    acc
}

// --- Hierarchical and log-round variants ---------------------------------

/// Jobs at or above this size route bcast/allreduce through the
/// hierarchical (node-leader) algorithms when they span multiple nodes.
pub const HIER_MIN_RANKS: usize = 16;
/// Jobs at or above this size route alltoall(v) through Bruck's algorithm.
pub const BRUCK_MIN_RANKS: usize = 64;

fn topo_of(mpi: &MpiHandle) -> std::sync::Arc<TopoMap> {
    std::sync::Arc::clone(mpi.state.vcs.topo())
}

fn hier_applicable(size: usize, topo: &TopoMap) -> bool {
    size >= HIER_MIN_RANKS && topo.multi_node()
}

/// Binomial-tree broadcast within an arbitrary rank group. `group` lists
/// the members (identical on every caller), `root_pos`/`my_pos` index into
/// it. On return every member's `payload` holds the root's bytes.
pub(crate) fn bcast_group(
    mpi: &MpiHandle,
    key: u64,
    group: &[usize],
    root_pos: usize,
    my_pos: usize,
    payload: &mut NmBuf,
) {
    let gsize = group.len();
    debug_assert_eq!(group[my_pos], mpi.rank());
    if gsize <= 1 {
        return;
    }
    let vrank = (my_pos + gsize - root_pos) % gsize;
    let mut mask = 1usize;
    while mask < gsize {
        if vrank & mask != 0 {
            let parent = group[((vrank - mask) + root_pos) % gsize];
            let r = mpi.state.irecv_key(&mpi.ctx, Src::Rank(parent), key);
            let (d, _) = mpi.state.wait(&mpi.ctx, r);
            *payload = NmBuf::from(d.expect("group bcast data"));
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    let mut sends = Vec::new();
    while mask > 0 {
        if vrank & mask == 0 && vrank + mask < gsize {
            let child = group[((vrank + mask) + root_pos) % gsize];
            sends.push(mpi.state.isend_key(&mpi.ctx, child, key, payload.share()));
        }
        mask >>= 1;
    }
    for s in sends {
        mpi.state.wait(&mpi.ctx, s);
    }
}

/// Binomial-tree sum-reduction within a group to `root_pos`. Returns true
/// on the member that holds the result (the root), false elsewhere.
fn reduce_group(
    mpi: &MpiHandle,
    key: u64,
    group: &[usize],
    root_pos: usize,
    my_pos: usize,
    acc: &mut [f64],
) -> bool {
    let gsize = group.len();
    debug_assert_eq!(group[my_pos], mpi.rank());
    if gsize <= 1 {
        return true;
    }
    let vrank = (my_pos + gsize - root_pos) % gsize;
    let mut mask = 1usize;
    while mask < gsize {
        if vrank & mask == 0 {
            let src_v = vrank | mask;
            if src_v < gsize {
                let src = group[(src_v + root_pos) % gsize];
                let r = mpi.state.irecv_key(&mpi.ctx, Src::Rank(src), key);
                let (d, _) = mpi.state.wait(&mpi.ctx, r);
                let theirs = bytes_to_f64s(&d.expect("group reduce data"));
                assert_eq!(theirs.len(), acc.len(), "reduce length mismatch");
                for (a, b) in acc.iter_mut().zip(theirs) {
                    *a += b;
                }
            }
        } else {
            let parent = group[((vrank & !mask) + root_pos) % gsize];
            let s = mpi.state.isend_key(&mpi.ctx, parent, key, f64s_to_bytes(acc));
            mpi.state.wait(&mpi.ctx, s);
            return false;
        }
        mask <<= 1;
    }
    true
}

/// Recursive-doubling sum-allreduce within a group, with MPICH's
/// non-power-of-two pre/post fold. Distinct rounds start at `round_base`
/// (uses rounds `round_base..round_base+1+log₂` plus `round_base + 30`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn allreduce_group_recdbl(
    mpi: &MpiHandle,
    ep: u8,
    op: u8,
    seq: u32,
    round_base: u16,
    group: &[usize],
    my_pos: usize,
    acc: &mut Vec<f64>,
) {
    let p = group.len();
    debug_assert_eq!(group[my_pos], mpi.rank());
    if p <= 1 {
        return;
    }
    let mut pof2 = 1usize;
    while pof2 * 2 <= p {
        pof2 *= 2;
    }
    let rem = p - pof2;
    // Pre-fold: the first 2·rem members pair up so a power of two remains.
    // Even positions hand their contribution to their odd neighbour and sit
    // out; odd positions absorb it and join with a compacted position.
    let fold_key = coll_key(ep, op, round_base, seq);
    let newpos: Option<usize> = if my_pos < 2 * rem {
        if my_pos.is_multiple_of(2) {
            let s = mpi
                .state
                .isend_key(&mpi.ctx, group[my_pos + 1], fold_key, f64s_to_bytes(acc));
            mpi.state.wait(&mpi.ctx, s);
            None
        } else {
            let r = mpi
                .state
                .irecv_key(&mpi.ctx, Src::Rank(group[my_pos - 1]), fold_key);
            let (d, _) = mpi.state.wait(&mpi.ctx, r);
            let theirs = bytes_to_f64s(&d.expect("fold data"));
            assert_eq!(theirs.len(), acc.len(), "reduce length mismatch");
            for (a, b) in acc.iter_mut().zip(theirs) {
                *a += b;
            }
            Some(my_pos / 2)
        }
    } else {
        Some(my_pos - rem)
    };
    if let Some(np) = newpos {
        let mut mask = 1usize;
        let mut round = round_base + 1;
        while mask < pof2 {
            let partner_np = np ^ mask;
            let partner_pos = if partner_np < rem {
                partner_np * 2 + 1
            } else {
                partner_np + rem
            };
            let partner = group[partner_pos];
            let key = coll_key(ep, op, round, seq);
            // Serialize before receiving: both sides exchange their
            // pre-round value.
            let s = mpi
                .state
                .isend_key(&mpi.ctx, partner, key, f64s_to_bytes(acc));
            let r = mpi.state.irecv_key(&mpi.ctx, Src::Rank(partner), key);
            let (d, _) = mpi.state.wait(&mpi.ctx, r);
            mpi.state.wait(&mpi.ctx, s);
            let theirs = bytes_to_f64s(&d.expect("recdbl data"));
            assert_eq!(theirs.len(), acc.len(), "reduce length mismatch");
            for (a, b) in acc.iter_mut().zip(theirs) {
                *a += b;
            }
            mask <<= 1;
            round += 1;
        }
    }
    // Post-fold: folded-out members get the finished result back.
    let unfold_key = coll_key(ep, op, round_base + 30, seq);
    if my_pos < 2 * rem {
        if my_pos.is_multiple_of(2) {
            let r = mpi
                .state
                .irecv_key(&mpi.ctx, Src::Rank(group[my_pos + 1]), unfold_key);
            let (d, _) = mpi.state.wait(&mpi.ctx, r);
            *acc = bytes_to_f64s(&d.expect("unfold data"));
        } else {
            let s = mpi
                .state
                .isend_key(&mpi.ctx, group[my_pos - 1], unfold_key, f64s_to_bytes(acc));
            mpi.state.wait(&mpi.ctx, s);
        }
    }
}

/// Hierarchical broadcast: root → its node leader (round 1), binomial over
/// node leaders (round 2), binomial inside each node (round 3, over shared
/// memory). Byte-identical result to [`bcast`].
pub fn bcast_hier(mpi: &MpiHandle, root: usize, data: Option<Bytes>) -> Bytes {
    let (rank, size) = (mpi.rank(), mpi.size());
    assert!(root < size);
    if size == 1 {
        return data.expect("bcast root must supply data");
    }
    let topo = topo_of(mpi);
    let seq = next_seq(mpi);
    let ep = world_epoch(mpi);
    let mut payload = if rank == root {
        NmBuf::from(data.expect("bcast root must supply data"))
    } else {
        NmBuf::default()
    };
    let root_node = topo.node_of(root);
    let lroot = topo.leader_of(root);
    // Round 1: seed the inter-node tree's root. Skipped when the job root
    // already leads its node.
    if root != lroot {
        let key = coll_key(ep, OP_BCAST, 1, seq);
        if rank == root {
            let s = mpi.state.isend_key(&mpi.ctx, lroot, key, payload.share());
            mpi.state.wait(&mpi.ctx, s);
        } else if rank == lroot {
            let r = mpi.state.irecv_key(&mpi.ctx, Src::Rank(root), key);
            let (d, _) = mpi.state.wait(&mpi.ctx, r);
            payload = NmBuf::from(d.expect("bcast data"));
        }
    }
    // Round 2: binomial over the leaders only — inter-node traffic.
    if let Some(my_lpos) = topo.leader_index(rank) {
        let root_lpos = topo.leader_index(lroot).expect("leader not indexed");
        bcast_group(
            mpi,
            coll_key(ep, OP_BCAST, 2, seq),
            topo.leaders(),
            root_lpos,
            my_lpos,
            &mut payload,
        );
    }
    // Round 3: fan out inside each node. On the root's own node the tree is
    // rooted at the job root (it has held the payload since the start).
    let node_group = topo.node_ranks(rank);
    if node_group.len() > 1 {
        let holder = if topo.node_of(rank) == root_node {
            root
        } else {
            topo.leader_of(rank)
        };
        bcast_group(
            mpi,
            coll_key(ep, OP_BCAST, 3, seq),
            node_group,
            topo.local_index(holder),
            topo.local_index(rank),
            &mut payload,
        );
    }
    payload.into_bytes()
}

/// Hierarchical sum-allreduce: binomial reduce to each node leader over
/// shared memory (round 1), recursive doubling across leaders (rounds
/// 2–32), binomial intra-node broadcast of the result (round 63).
/// Summation order differs from [`allreduce_sum`], so floating-point
/// results agree byte-exactly only when the additions are exact (e.g.
/// integer-valued contributions).
pub fn allreduce_sum_hier(mpi: &MpiHandle, contrib: &[f64]) -> Vec<f64> {
    let (rank, size) = (mpi.rank(), mpi.size());
    if size == 1 {
        return contrib.to_vec();
    }
    let topo = topo_of(mpi);
    let seq = next_seq(mpi);
    let ep = world_epoch(mpi);
    let mut acc = contrib.to_vec();
    let node_group = topo.node_ranks(rank);
    let my_li = topo.local_index(rank);
    let is_leader =
        reduce_group(mpi, coll_key(ep, OP_REDUCE, 1, seq), node_group, 0, my_li, &mut acc);
    if is_leader {
        let lpos = topo.leader_index(rank).expect("leader not indexed");
        allreduce_group_recdbl(mpi, ep, OP_REDUCE, seq, 2, topo.leaders(), lpos, &mut acc);
    }
    if node_group.len() > 1 {
        let mut buf = if is_leader {
            NmBuf::from(f64s_to_bytes(&acc))
        } else {
            NmBuf::default()
        };
        bcast_group(
            mpi,
            coll_key(ep, OP_REDUCE, 63, seq),
            node_group,
            0,
            my_li,
            &mut buf,
        );
        acc = bytes_to_f64s(&buf.into_bytes());
    }
    acc
}

/// Bruck all-to-all over length-prefixed blocks: ⌈log₂ P⌉ rounds; in round
/// j every rank packs the blocks whose (rotated) index has bit j set and
/// ships them 2ʲ ranks to the right. P·⌈log₂ P⌉ messages job-wide instead
/// of the pairwise exchange's P², at the cost of each byte travelling up to
/// ⌈log₂ P⌉ hops. Handles variable block sizes, so it backs both
/// [`alltoall_auto`] and [`alltoallv_auto`].
///
/// Each rank holds its rotated blocks back to back in one `Vec<u8>` with a
/// `u32` length per block: a round packs by walking the lengths, then
/// rebuilds into a second buffer (arrivals from the round message, the
/// rest from the current buffer) that replaces the first. The result is
/// one slice per source of that final buffer, which holds output bytes
/// only. Per rank that is at most 2 × the rank's block bytes + 4·P bytes
/// of lengths + one round message in flight — no per-block handles until
/// the result.
pub fn alltoallv_bruck(mpi: &MpiHandle, blocks: Vec<Bytes>) -> Vec<Bytes> {
    let (rank, size) = (mpi.rank(), mpi.size());
    assert_eq!(blocks.len(), size, "need one block per rank");
    if size == 1 {
        return blocks;
    }
    let seq = next_seq(mpi);
    let ep = world_epoch(mpi);
    // Local rotation: rotated index i holds the block destined to rank+i.
    let mut buf = Vec::with_capacity(blocks.iter().map(Bytes::len).sum());
    let mut lens = Vec::with_capacity(size);
    for i in 0..size {
        let blk = &blocks[(rank + i) % size];
        lens.push(u32::try_from(blk.len()).expect("bruck block too large"));
        buf.extend_from_slice(blk);
    }
    drop(blocks);
    for round in 0..size.next_power_of_two().trailing_zeros() {
        let pof = 1usize << round;
        let key = coll_key(ep, OP_ALLTOALLV, round as u16 + 1, seq);
        let to = (rank + pof) % size;
        let from = (rank + size - pof) % size;
        // u32 length prefixes: at thousands of ranks with small blocks the
        // prefix dominates wire size (a u64 one is 2/3 of the bytes for
        // 4-byte blocks) and can push the round message past the eager
        // threshold into rendezvous.
        let picked = lens.iter().enumerate().filter(|(i, _)| i & pof != 0);
        let packed_len: usize = picked.map(|(_, &l)| 4 + l as usize).sum();
        let mut packed = Vec::with_capacity(packed_len);
        let mut off = 0usize;
        for (i, &len) in lens.iter().enumerate() {
            let end = off + len as usize;
            if i & pof != 0 {
                packed.extend_from_slice(&len.to_le_bytes());
                packed.extend_from_slice(&buf[off..end]);
            }
            off = end;
        }
        let r = mpi.state.irecv_key(&mpi.ctx, Src::Rank(from), key);
        let s = mpi
            .state
            .isend_key(&mpi.ctx, to, key, NmBuf::from(Bytes::from(packed)));
        let d = mpi.state.wait(&mpi.ctx, r).0.expect("bruck data");
        mpi.state.wait(&mpi.ctx, s);
        // Both round messages carry one prefix per picked block, so this is
        // the rebuilt buffer's exact size: the final one pins no slack.
        let mut next = Vec::with_capacity((buf.len() + d.len()).saturating_sub(packed_len));
        let (mut off, mut rest) = (0usize, &d[..]);
        for (i, len) in lens.iter_mut().enumerate() {
            let end = off + *len as usize;
            if i & pof != 0 {
                let (blk, tail) = split_block(rest);
                next.extend_from_slice(blk);
                *len = blk.len() as u32;
                rest = tail;
            } else {
                next.extend_from_slice(&buf[off..end]);
            }
            off = end;
        }
        assert!(rest.is_empty(), "bruck payload size mismatch");
        buf = next;
    }
    // Inverse rotation: rotated index i now holds the block that originated
    // at rank−i, so it is result[(rank−i) mod P] — one slice each of the
    // final buffer.
    let out = Bytes::from(buf);
    let mut result = vec![Bytes::new(); size];
    let mut off = 0usize;
    for (i, &len) in lens.iter().enumerate() {
        result[(rank + size - i) % size] = out.slice(off..off + len as usize);
        off += len as usize;
    }
    result
}

/// Splits the first `u32`-prefixed block off a Bruck round message:
/// `(block, rest)`. A short message is a programmer invariant, not an
/// input error: every member packs with the same code over a CRC-checked
/// wire.
fn split_block(msg: &[u8]) -> (&[u8], &[u8]) {
    msg.split_first_chunk::<4>()
        .and_then(|(len, rest)| rest.split_at_checked(u32::from_le_bytes(*len) as usize))
        .expect("bruck round message truncated")
}

/// Bruck all-to-all with equal-size blocks (see [`alltoallv_bruck`]).
pub fn alltoall_bruck(mpi: &MpiHandle, blocks: Vec<Bytes>) -> Vec<Bytes> {
    alltoallv_bruck(mpi, blocks)
}

/// Pairwise-exchange alltoallv with at most `window` request pairs in
/// flight: the classic flat exchange's traffic pattern, bounded so P−1
/// outstanding requests (and their unexpected-queue footprint) never pile
/// up at once.
pub fn alltoallv_windowed(mpi: &MpiHandle, blocks: Vec<Bytes>, window: usize) -> Vec<Bytes> {
    assert!(window > 0, "window must be positive");
    pairwise_exchange(mpi, OP_ALLTOALLV, blocks, window)
}

/// The pairwise exchange behind [`alltoall`], [`alltoallv`] (one window
/// spanning the whole job) and [`alltoallv_windowed`]: per window, post
/// the receives, then the sends, then wait for both.
fn pairwise_exchange(mpi: &MpiHandle, op: u8, blocks: Vec<Bytes>, window: usize) -> Vec<Bytes> {
    let (rank, size) = (mpi.rank(), mpi.size());
    assert_eq!(blocks.len(), size, "need one block per rank");
    let seq = next_seq(mpi);
    let key = coll_key(world_epoch(mpi), op, 0, seq);
    // Share handles instead of cloning block storage per destination.
    let blocks: Vec<NmBuf> = blocks.into_iter().map(NmBuf::from).collect();
    let mut result: Vec<Option<Bytes>> = (0..size).map(|_| None).collect();
    result[rank] = Some(blocks[rank].share().into_bytes());
    let mut i = 1usize;
    while i < size {
        let end = i.saturating_add(window).min(size);
        let mut recvs = Vec::with_capacity(end - i);
        for d in i..end {
            let from = (rank + size - d) % size;
            recvs.push((from, mpi.state.irecv_key(&mpi.ctx, Src::Rank(from), key)));
        }
        let mut sends = Vec::with_capacity(end - i);
        for d in i..end {
            let to = (rank + d) % size;
            sends.push(mpi.state.isend_key(&mpi.ctx, to, key, blocks[to].share()));
        }
        for (from, r) in recvs {
            let (data, _) = mpi.state.wait(&mpi.ctx, r);
            result[from] = Some(data.expect("pairwise exchange data"));
        }
        for s in sends {
            mpi.state.wait(&mpi.ctx, s);
        }
        i = end;
    }
    result.into_iter().map(|b| b.expect("missing block")).collect()
}

// --- Size/topology-based selection ----------------------------------------

/// Broadcast, selecting hierarchical vs flat by job size and topology.
/// Hierarchical barrier: an intra-node binomial gather raises each node
/// leader once all of its locals have arrived (round 1), a dissemination
/// exchange over the leaders synchronizes the nodes (rounds 8..), and an
/// intra-node binomial release lets everyone leave (round 63). Message
/// count is O(ranks + nodes·log nodes) against flat dissemination's
/// O(ranks·log ranks) — at 4096 ranks on 16-wide nodes that is ~10k
/// messages instead of ~49k.
pub fn barrier_hier(mpi: &MpiHandle) {
    let (rank, size) = (mpi.rank(), mpi.size());
    if size == 1 {
        return;
    }
    let topo = topo_of(mpi);
    let seq = next_seq(mpi);
    let ep = world_epoch(mpi);
    let node_group = topo.node_ranks(rank);
    let my_pos = topo.local_index(rank);
    // Phase 1: gather to the node leader (position 0) with empty payloads.
    reduce_group(
        mpi,
        coll_key(ep, OP_BARRIER, 1, seq),
        node_group,
        0,
        my_pos,
        &mut [],
    );
    // Phase 2: dissemination over the node leaders only.
    if let Some(lpos) = topo.leader_index(rank) {
        barrier_group_ep(mpi, ep, seq, 8, topo.leaders(), lpos);
    }
    // Phase 3: intra-node release from the leader.
    let mut empty = NmBuf::default();
    bcast_group(
        mpi,
        coll_key(ep, OP_BARRIER, 63, seq),
        node_group,
        0,
        my_pos,
        &mut empty,
    );
}

/// Barrier, selecting hierarchical vs flat dissemination by job size and
/// topology.
pub fn barrier_auto(mpi: &MpiHandle) {
    let topo = topo_of(mpi);
    if hier_applicable(mpi.size(), &topo) {
        barrier_hier(mpi)
    } else {
        barrier(mpi)
    }
}

pub fn bcast_auto(mpi: &MpiHandle, root: usize, data: Option<Bytes>) -> Bytes {
    let topo = topo_of(mpi);
    if hier_applicable(mpi.size(), &topo) {
        bcast_hier(mpi, root, data)
    } else {
        bcast(mpi, root, data)
    }
}

/// Allreduce (sum), selecting hierarchical vs flat by job size and
/// topology.
pub fn allreduce_sum_auto(mpi: &MpiHandle, contrib: &[f64]) -> Vec<f64> {
    let topo = topo_of(mpi);
    if hier_applicable(mpi.size(), &topo) {
        allreduce_sum_hier(mpi, contrib)
    } else {
        allreduce_sum(mpi, contrib)
    }
}

/// All-to-all, selecting Bruck vs flat pairwise by job size.
pub fn alltoall_auto(mpi: &MpiHandle, blocks: Vec<Bytes>) -> Vec<Bytes> {
    if mpi.size() >= BRUCK_MIN_RANKS {
        alltoall_bruck(mpi, blocks)
    } else {
        alltoall(mpi, blocks)
    }
}

/// Alltoallv, selecting Bruck vs flat pairwise by job size.
pub fn alltoallv_auto(mpi: &MpiHandle, blocks: Vec<Bytes>) -> Vec<Bytes> {
    if mpi.size() >= BRUCK_MIN_RANKS {
        alltoallv_bruck(mpi, blocks)
    } else {
        alltoallv(mpi, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_codec_roundtrip() {
        let v = vec![1.5, -2.25, 0.0, f64::MAX];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&v)), v);
    }

    #[test]
    #[should_panic(expected = "not an f64 vector")]
    fn f64_codec_rejects_ragged() {
        bytes_to_f64s(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "bruck round message truncated")]
    fn split_block_rejects_a_short_block() {
        split_block(&[3, 0, 0, 0, 7, 8]);
    }

    #[test]
    fn coll_keys_are_disjoint_from_user_keys() {
        let user = crate::progress::key_of(crate::progress::USER_CTX, u32::MAX);
        let coll = coll_key(0, OP_BARRIER, 0, 0);
        assert_ne!(user >> 48, coll >> 48);
        // Epoch-tagged keys stay in the collective context and never
        // collide across epochs.
        assert_ne!(coll_key(1, OP_BARRIER, 0, 0), coll);
        assert_eq!(coll_key(1, OP_BARRIER, 0, 0) >> 48, coll >> 48);
    }
}
