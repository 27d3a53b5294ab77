//! Collective correctness at degenerate, non-power-of-two, and large rank
//! counts, cross-checking the hierarchical / log-round algorithms against
//! the flat ones, plus the O(active-flows) peer-state footprint claim.
//!
//! Byte-exactness note: the hierarchical allreduce sums in a different
//! order than the flat one, so contributions are integer-valued f64s —
//! addition is exact and every order produces identical bytes.

use bytes::Bytes;
use mpich2_nmad_repro::mpi_ch3::collectives;
use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi_collect, StackConfig};
use mpich2_nmad_repro::mpi_ch3::Src;
use mpich2_nmad_repro::simnet::{Cluster, NicModel, Placement, SimDuration};

/// Deterministic block payload from `src` to `dst` (ragged sizes, including
/// empty blocks).
fn block(src: usize, dst: usize, p: usize) -> Bytes {
    let len = (src * 13 + dst * 7) % 23; // 0..=22 bytes, some empty
    let _ = p;
    Bytes::from(
        (0..len)
            .map(|i| ((src * 31 + dst * 17 + i * 3) % 251) as u8)
            .collect::<Vec<u8>>(),
    )
}

fn cluster_for(nranks: usize) -> (Cluster, Placement) {
    // Enough 16-core nodes to host the job; block placement so nodes hold
    // full groups of co-located ranks (the hierarchical algorithms' target
    // shape).
    let nodes = nranks.div_ceil(16).max(2);
    let cluster = Cluster::new(nodes, 16, vec![NicModel::connectx_ib()]);
    let placement = Placement::block(nranks, &cluster);
    (cluster, placement)
}

/// Rank `quiet` sends only empty blocks; every other rank sends non-empty
/// ones of varying length.
fn one_quiet_block(src: usize, dst: usize, quiet: usize) -> Bytes {
    let len = if src == quiet { 0 } else { 1 + (src + dst) % 5 };
    Bytes::from(vec![(src * 7 + dst) as u8; len])
}

/// P ∈ {1, 3, 6, 8}: every algorithm variant must agree byte-for-byte on
/// the same inputs, including the degenerate single-rank and odd sizes
/// where the non-power-of-two folds and empty node groups are exercised,
/// and P = 8, where every Bruck round is full.
#[test]
fn all_variants_agree_at_degenerate_sizes() {
    for p in [1usize, 3, 6, 8] {
        let (cluster, placement) = cluster_for(p);
        let stack = StackConfig::mpich2_nmad(false);
        let (_, oks) = run_mpi_collect(&cluster, &placement, &stack, p, move |mpi| {
            let me = mpi.rank();
            let n = mpi.size();
            collectives::barrier(mpi);
            // bcast, every root position.
            for root in 0..n {
                let payload: Vec<u8> = (0..64).map(|i| ((root * 7 + i) % 251) as u8).collect();
                let data = (me == root).then(|| Bytes::from(payload.clone()));
                let data2 = (me == root).then(|| Bytes::from(payload.clone()));
                let flat = collectives::bcast(mpi, root, data);
                let hier = collectives::bcast_hier(mpi, root, data2);
                assert_eq!(flat, hier, "bcast flat≠hier at P={n} root={root}");
                assert_eq!(&flat[..], &payload[..]);
            }
            // allreduce with integer-valued contributions: exact in every
            // summation order.
            let contrib: Vec<f64> = (0..5).map(|i| (me * 3 + i) as f64).collect();
            let flat = collectives::allreduce_sum(mpi, &contrib);
            let hier = collectives::allreduce_sum_hier(mpi, &contrib);
            assert_eq!(
                collectives::f64s_to_bytes(&flat),
                collectives::f64s_to_bytes(&hier),
                "allreduce flat≠hier at P={n}"
            );
            let expected: Vec<f64> = (0..5)
                .map(|i| (0..n).map(|r| (r * 3 + i) as f64).sum())
                .collect();
            assert_eq!(flat, expected);
            // alltoallv (ragged, with empty blocks): pairwise vs bruck vs
            // windowed.
            let mk = |_: usize| (0..n).map(|d| block(me, d, n)).collect::<Vec<Bytes>>();
            let flat = collectives::alltoallv(mpi, mk(0));
            let bruck = collectives::alltoallv_bruck(mpi, mk(1));
            let windowed = collectives::alltoallv_windowed(mpi, mk(2), 2);
            for s in 0..n {
                let want = block(s, me, n);
                assert_eq!(flat[s], want, "alltoallv flat wrong at P={n} src={s}");
                assert_eq!(bruck[s], want, "alltoallv bruck wrong at P={n} src={s}");
                assert_eq!(
                    windowed[s], want,
                    "alltoallv windowed wrong at P={n} src={s}"
                );
            }
            // equal-size alltoall: pairwise vs bruck.
            let blocks: Vec<Bytes> = (0..n)
                .map(|d| Bytes::from(vec![(me * n + d) as u8; 16]))
                .collect();
            let flat = collectives::alltoall(mpi, blocks.clone());
            let bruck = collectives::alltoall_bruck(mpi, blocks);
            assert_eq!(flat, bruck, "alltoall flat≠bruck at P={n}");
            // equal-size alltoall of empty blocks (B = 0).
            let empty = vec![Bytes::new(); n];
            let flat = collectives::alltoall(mpi, empty.clone());
            let bruck = collectives::alltoall_bruck(mpi, empty);
            assert_eq!(flat, bruck, "empty alltoall flat≠bruck at P={n}");
            assert!(bruck.iter().all(Bytes::is_empty));
            // alltoallv where the last rank sends only empty blocks.
            let quiet = n - 1;
            let blocks: Vec<Bytes> = (0..n).map(|d| one_quiet_block(me, d, quiet)).collect();
            let flat = collectives::alltoallv(mpi, blocks.clone());
            let bruck = collectives::alltoallv_bruck(mpi, blocks);
            assert_eq!(flat, bruck, "quiet-rank alltoallv flat≠bruck at P={n}");
            for (s, b) in bruck.iter().enumerate() {
                assert_eq!(*b, one_quiet_block(s, me, quiet));
            }
            // The hierarchical barrier's degenerate paths: single-node
            // groups (no dissemination phase) and P=1 (early return).
            collectives::barrier_hier(mpi);
            collectives::barrier(mpi);
            true
        });
        assert!(oks.into_iter().all(|b| b), "P={p} job failed");
    }
}

/// P = 1000 (non-power-of-two, multi-node): barrier, bcast and allreduce
/// cross-checked flat vs hierarchical; both are log-round, so this stays
/// debug-build fast.
#[test]
fn hier_matches_flat_at_p1000() {
    let p = 1000usize;
    let (cluster, placement) = cluster_for(p);
    let stack = StackConfig::mpich2_nmad(false);
    let (_, oks) = run_mpi_collect(&cluster, &placement, &stack, p, move |mpi| {
        let me = mpi.rank();
        let n = mpi.size();
        collectives::barrier(mpi);
        let root = 777; // non-leader, non-zero root
        let payload: Vec<u8> = (0..256).map(|i| (i % 251) as u8).collect();
        let flat = collectives::bcast(
            mpi,
            root,
            (me == root).then(|| Bytes::from(payload.clone())),
        );
        let hier = collectives::bcast_hier(
            mpi,
            root,
            (me == root).then(|| Bytes::from(payload.clone())),
        );
        assert_eq!(flat, hier, "bcast flat≠hier at P={n}");
        let contrib = [me as f64, (me * 2) as f64, 1.0];
        let flat = collectives::allreduce_sum(mpi, &contrib);
        let hier = collectives::allreduce_sum_hier(mpi, &contrib);
        assert_eq!(flat, hier, "allreduce flat≠hier at P={n}");
        let s: f64 = (0..n).map(|r| r as f64).sum();
        assert_eq!(flat, vec![s, 2.0 * s, n as f64]);
        // Hierarchical barrier synchronizes: stagger entry by rank, record
        // (enter, exit) sim times; no rank may leave before the last one
        // arrives.
        mpi.compute(SimDuration::nanos((me as u64) * 100));
        let enter = mpi.now();
        collectives::barrier_hier(mpi);
        let exit = mpi.now();
        (true, enter, exit)
    });
    let latest_enter = oks.iter().map(|(_, e, _)| *e).max().unwrap();
    let earliest_exit = oks.iter().map(|(_, _, x)| *x).min().unwrap();
    assert!(
        earliest_exit >= latest_enter,
        "barrier_hier released a rank at {earliest_exit:?} before the last \
         rank entered at {latest_enter:?}"
    );
    assert!(oks.into_iter().all(|(b, _, _)| b));
}

/// P = 1000 alltoallv via Bruck, then the ledger's `coll_1024` shape (an
/// equal-size alltoall of 4-byte blocks) in the same job, both validated
/// against the analytically known result (the flat pairwise exchange would
/// be ~10⁶ messages — the point of the log-round algorithm is to never
/// send them).
#[test]
fn bruck_alltoallv_validates_at_p1000() {
    let p = 1000usize;
    let (cluster, placement) = cluster_for(p);
    let stack = StackConfig::mpich2_nmad(false);
    let (_, oks) = run_mpi_collect(&cluster, &placement, &stack, p, move |mpi| {
        let me = mpi.rank();
        let n = mpi.size();
        let blocks: Vec<Bytes> = (0..n).map(|d| block(me, d, n)).collect();
        let got = collectives::alltoallv_bruck(mpi, blocks);
        for (s, g) in got.iter().enumerate() {
            assert_eq!(*g, block(s, me, n), "bruck wrong at src={s} dst={me}");
        }
        let word = |src: usize, dst: usize| ((src * n + dst) as u32).to_le_bytes();
        let backing = Bytes::from((0..n).flat_map(|d| word(me, d)).collect::<Vec<u8>>());
        let blocks = (0..n).map(|d| backing.slice(4 * d..4 * d + 4)).collect();
        let got = collectives::alltoall_bruck(mpi, blocks);
        for (s, g) in got.iter().enumerate() {
            assert_eq!(g[..], word(s, me), "4-byte bruck wrong at src={s} dst={me}");
        }
        true
    });
    assert!(oks.into_iter().all(|b| b));
}

/// The O(active-flows) claim, measured: in a 1024-rank job where only the
/// first and last rank ever communicate, every other rank's NewMadeleine
/// core holds zero per-peer entries, and the two active ranks hold O(1).
#[test]
fn idle_ranks_allocate_no_peer_state() {
    let p = 1024usize;
    let (cluster, placement) = cluster_for(p);
    let stack = StackConfig::mpich2_nmad(false);
    let (outcome, _) = run_mpi_collect(&cluster, &placement, &stack, p, move |mpi| {
        let me = mpi.rank();
        let n = mpi.size();
        if me == 0 {
            let r = mpi.irecv(Src::Rank(n - 1), 7);
            let s = mpi.isend(n - 1, 7, &[1u8; 100]);
            let (d, _) = mpi.wait_data(r);
            assert_eq!(d.unwrap().len(), 100);
            mpi.wait(s);
        } else if me == n - 1 {
            let r = mpi.irecv(Src::Rank(0), 7);
            let s = mpi.isend(0, 7, &[2u8; 100]);
            let (d, _) = mpi.wait_data(r);
            assert_eq!(d.unwrap().len(), 100);
            mpi.wait(s);
        }
        true
    });
    assert_eq!(outcome.nm_stats.len(), p);
    for (r, s) in outcome.nm_stats.iter().enumerate() {
        if r == 0 || r == p - 1 {
            assert!(
                s.peer_entries > 0 && s.peer_entries <= 16,
                "active rank {r} should hold O(1) peer entries, got {}",
                s.peer_entries
            );
        } else {
            assert_eq!(s.peer_entries, 0, "idle rank {r} allocated per-peer state");
        }
    }
}
