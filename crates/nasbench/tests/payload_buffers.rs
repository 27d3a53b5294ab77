//! The kernels send views of one shared zero buffer per thread: no
//! per-message allocation, the same bytes, the same messages.

use mpi_ch3::stack::run_mpi_collect;
use mpi_ch3::StackConfig;
use nasbench::kernels::{run_iteration, zeros, KernelCtx};
use nasbench::{Class, Kernel, KernelParams};
use simnet::{Cluster, Placement};

#[test]
fn zero_payloads_are_views_of_one_allocation() {
    let big = zeros(60_000);
    let small = zeros(100);
    assert_eq!(big.storage_ptr(), small.storage_ptr());
    assert!(big.iter().chain(small.iter()).all(|&b| b == 0));
    assert_eq!((big.len(), small.len(), zeros(0).len()), (60_000, 100, 0));
}

#[test]
fn views_handed_out_before_the_buffer_grew_still_read_zeros() {
    let before = zeros(4096);
    let grown = zeros(1 << 20);
    assert_ne!(before.storage_ptr(), grown.storage_ptr(), "the buffer grew");
    assert_eq!(zeros(10).storage_ptr(), grown.storage_ptr());
    drop(grown);
    assert!(before.iter().all(|&b| b == 0));
    assert_eq!(before.len(), 4096);
}

/// The shared buffer changes no message: one CG class-A iteration on 16
/// ranks under PIOMan sends what it sent when every exchange allocated
/// its own payload.
#[test]
fn one_cg_iteration_sends_the_same_messages() {
    let cluster = Cluster::grid5000_opteron();
    let nprocs = 16;
    let placement = Placement::round_robin(nprocs, &cluster);
    let params = KernelParams::of(Kernel::CG, Class::A);
    let (outcome, _) = run_mpi_collect(
        &cluster,
        &placement,
        &StackConfig::mpich2_nmad(true),
        nprocs,
        move |mpi| {
            let kctx = KernelCtx {
                mpi,
                params: &params,
                class: Class::A,
                nprocs,
                compute_factor: 1.0,
                lu_nz_override: None,
            };
            run_iteration(Kernel::CG, &kctx);
        },
    );
    let nm = outcome.nm_total();
    assert_eq!((nm.eager_sends, nm.rdv_sends), (56, 312));
}
