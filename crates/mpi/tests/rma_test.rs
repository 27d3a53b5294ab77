//! Tests of the one-sided (RMA) extension: puts, gets, accumulates across
//! shared-memory and network paths, on polling and PIOMan stacks.

use mpich2_nmad_repro_shim::*;

/// Thin local alias module so the test reads like downstream code.
mod mpich2_nmad_repro_shim {
    pub use mpi_ch3::rma::Window;
    pub use mpi_ch3::stack::{run_mpi_collect, StackConfig};
    pub use simnet::{Cluster, NodeId, Placement};
}

#[test]
fn put_get_across_network_and_shm() {
    // 4 ranks: 0+1 on node 0, 2+3 on node 1 — puts cross both paths.
    let cluster = Cluster::xeon_pair();
    let placement = Placement::explicit(vec![NodeId(0), NodeId(0), NodeId(1), NodeId(1)]);
    for stack in [
        StackConfig::mpich2_nmad(false),
        StackConfig::mpich2_nmad(true),
    ] {
        let name = stack.name.clone();
        let (_, oks) = run_mpi_collect(&cluster, &placement, &stack, 4, |mpi| {
            let me = mpi.rank();
            let n = mpi.size();
            let win = Window::create(mpi, 64 * n, &[]);
            // Epoch 1: everyone puts its rank byte into everyone's window
            // at slot 64*me.
            for t in 0..n {
                win.put(t, 64 * me, &[me as u8; 64]);
            }
            win.fence(mpi);
            let local = win.local();
            for src in 0..n {
                if local[64 * src..64 * (src + 1)]
                    .iter()
                    .any(|&b| b != src as u8)
                {
                    return false;
                }
            }
            // Epoch 2: read the left neighbour's slot of *their* window.
            let left = (me + n - 1) % n;
            let h = win.get(left, 64 * left, 64);
            win.fence(mpi);
            let got = win.get_result(&h);
            got.iter().all(|&b| b == left as u8)
        });
        assert!(oks.into_iter().all(|b| b), "RMA failed on {name}");
    }
}

#[test]
fn accumulate_sums_from_all_ranks() {
    let cluster = Cluster::xeon_pair();
    let placement = Placement::block(4, &cluster);
    let stack = StackConfig::mpich2_nmad(false);
    let (_, oks) = run_mpi_collect(&cluster, &placement, &stack, 4, |mpi| {
        let win = Window::create(mpi, 8 * 4, &[]);
        // All ranks accumulate [r, 2r, 3r, 4r] into rank 0's window.
        let r = mpi.rank() as f64;
        win.accumulate_sum(0, 0, &[r, 2.0 * r, 3.0 * r, 4.0 * r]);
        win.fence(mpi);
        if mpi.rank() == 0 {
            let w = win.local();
            let vals = mpi_ch3::collectives::bytes_to_f64s(&w);
            // Σr = 6 over ranks 0..4.
            vals == vec![6.0, 12.0, 18.0, 24.0]
        } else {
            true
        }
    });
    assert!(oks.into_iter().all(|b| b));
}

#[test]
fn large_puts_both_directions_do_not_deadlock() {
    // Two ranks fire 1 MB (rendezvous-sized) puts at each other in the
    // same epoch — the nonblocking-ship fence must survive it.
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    let stack = StackConfig::mpich2_nmad(false);
    let (_, oks) = run_mpi_collect(&cluster, &placement, &stack, 2, |mpi| {
        let me = mpi.rank();
        let other = 1 - me;
        let win = Window::create(mpi, 1 << 20, &[]);
        let payload = vec![me as u8 + 1; 1 << 20];
        win.put(other, 0, &payload);
        win.fence(mpi);
        let local = win.local();
        local.iter().all(|&b| b == other as u8 + 1)
    });
    assert!(oks.into_iter().all(|b| b));
}

#[test]
fn empty_epochs_are_cheap_and_correct() {
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    let stack = StackConfig::mpich2_nmad(false);
    let (_, oks) = run_mpi_collect(&cluster, &placement, &stack, 2, |mpi| {
        let win = Window::create(mpi, 16, b"initial contents");
        for _ in 0..5 {
            win.fence(mpi);
        }
        win.local() == b"initial contents"
    });
    assert!(oks.into_iter().all(|b| b));
}

#[test]
fn put_then_get_ordering_across_epochs() {
    // Rank 0 puts into rank 1's window in epoch 1; rank 1 gets its own
    // value back from rank 0's copy in epoch 2 — epochs order one-sided
    // accesses.
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    let stack = StackConfig::mpich2_nmad(false);
    let (_, oks) = run_mpi_collect(&cluster, &placement, &stack, 2, |mpi| {
        let win = Window::create(mpi, 8, &[0; 8]);
        if mpi.rank() == 0 {
            win.put(1, 0, b"epoch-01");
        }
        win.fence(mpi);
        // Rank 1 copies what it received into rank 0's window.
        if mpi.rank() == 1 {
            let mine = win.local();
            win.put(0, 0, &mine);
        }
        win.fence(mpi);
        // Both ranks converge on the same window contents.
        win.local() == b"epoch-01"
    });
    assert!(oks.into_iter().all(|b| b));
}

/// Offsets and lengths reach the target off the wire. An op whose range
/// overflows or leaves the window used to panic the target rank; now it
/// is counted and dropped, the window is untouched, an out-of-range get
/// is answered with an empty reply (counted again at its origin), the
/// fence returns on both sides and a legitimate put beside them lands.
#[test]
fn out_of_range_ops_are_counted_and_leave_the_window_untouched() {
    const SIZE: usize = 64;
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    let stack = StackConfig::mpich2_nmad(false);
    let init: Vec<u8> = (0..SIZE as u8).collect();
    let (_, oks) = run_mpi_collect(&cluster, &placement, &stack, 2, move |mpi| {
        let win = Window::create(mpi, SIZE, &init);
        if mpi.rank() == 0 {
            win.put(1, usize::MAX, b"wraps");
            let _ = win.get(1, 0, SIZE + 1);
            win.accumulate_sum(1, SIZE - 8, &[1.0, 2.0]);
            win.put(1, 8, b"legit!!!");
        }
        win.fence(mpi);
        let mut want = init.clone();
        if mpi.rank() == 1 {
            want[8..16].copy_from_slice(b"legit!!!");
        }
        // Rank 1 dropped the three forged ops; rank 0 the empty get reply.
        let malformed = [1, 3][mpi.rank()];
        win.local() == want && win.malformed_ops() == malformed
    });
    assert_eq!(oks, [true, true]);
}
