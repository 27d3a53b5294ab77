//! Running a NAS kernel on a simulated cluster and extrapolating to the
//! full benchmark time.

use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{Cluster, Placement, SimTime};

use mpi_ch3::stack::{run_mpi, StackConfig};
use mpi_ch3::MpiHandle;

use crate::kernels::{run_iteration, KernelCtx};
use crate::model::{Class, Kernel, KernelParams};

/// Result of one NAS run.
#[derive(Clone, Debug)]
pub struct NasResult {
    pub kernel: Kernel,
    pub class: Class,
    pub nprocs: usize,
    pub stack: String,
    /// Extrapolated full-benchmark execution time, seconds.
    pub time_s: f64,
    /// Measured per-iteration time, seconds.
    pub iter_s: f64,
    /// Iterations actually simulated.
    pub sim_iters: usize,
}

/// Default simulated iterations per kernel (NPB iterations are
/// statistically identical; a couple suffice for a noise-free simulator).
pub fn default_sim_iters(kernel: Kernel) -> usize {
    match kernel {
        Kernel::EP => 1,
        Kernel::LU => 1,
        _ => 2,
    }
}

/// Run `kernel` at `class` on `nprocs` ranks over `cluster` with `stack`,
/// spreading ranks round-robin (the paper's 8-processes-one-per-node setup
/// generalized). `nprocs` is adjusted 8→9 / 32→36 for BT/SP.
pub fn run_nas(
    cluster: &Cluster,
    stack: &StackConfig,
    kernel: Kernel,
    class: Class,
    nprocs: usize,
    sim_iters: Option<usize>,
) -> NasResult {
    let nprocs = kernel.adjust_procs(nprocs);
    assert!(
        kernel.valid_procs(nprocs),
        "{} cannot run on {nprocs} processes",
        kernel.name()
    );
    let placement = Placement::round_robin(nprocs, cluster);
    let params = KernelParams::of(kernel, class);
    let iters = sim_iters
        .unwrap_or_else(|| default_sim_iters(kernel))
        .max(1);
    let iters = iters.min(params.niter);
    let compute_factor = stack.compute_factor;
    // LU: simulate a bounded number of wavefront planes and correct with
    // the affine pipeline formula (see `lu_plane_scale`).
    let (lu_nz_override, lu_scale) = if kernel == Kernel::LU {
        let nz_full = ((params.base_edge as f64 * class.size_factor()) as usize).max(8);
        let nz_sim = nz_full.min(64);
        let grid = crate::decomp::RectGrid::new(0, nprocs);
        (
            Some(nz_sim),
            lu_plane_scale(nz_full, nz_sim, grid.rows + grid.cols - 1),
        )
    } else {
        (None, 1.0)
    };

    let measured: Arc<Mutex<Option<(SimTime, SimTime)>>> = Arc::new(Mutex::new(None));
    let m2 = Arc::clone(&measured);
    run_mpi(
        cluster,
        &placement,
        stack,
        nprocs,
        Arc::new(move |mpi: MpiHandle| {
            let kctx = KernelCtx {
                mpi: &mpi,
                params: &params,
                class,
                nprocs,
                compute_factor,
                lu_nz_override,
            };
            mpi.barrier();
            let t0 = mpi.now();
            for _ in 0..iters {
                run_iteration(kernel, &kctx);
            }
            mpi.barrier();
            let t1 = mpi.now();
            if mpi.rank() == 0 {
                *m2.lock() = Some((t0, t1));
            }
        }),
    );
    let (t0, t1) = measured.lock().take().expect("rank 0 must time the run");
    let iter_s = (t1 - t0).as_secs_f64() / iters as f64 * lu_scale;
    NasResult {
        kernel,
        class,
        nprocs,
        stack: stack.name.clone(),
        time_s: iter_s * params.niter as f64,
        iter_s,
        sim_iters: iters,
    }
}

/// Wavefront pipeline correction: a sweep over `nz` planes through a
/// process mesh with diagonal length `diag` (rows + cols − 1) takes
/// `(nz + diag − 1) · cycle` — linear in the plane count plus the pipeline
/// fill. Simulating `nz_sim` planes therefore underestimates the sweep by
/// this ratio.
pub fn lu_plane_scale(nz_full: usize, nz_sim: usize, diag: usize) -> f64 {
    let fill = diag.saturating_sub(1) as f64;
    (nz_full as f64 + fill) / (nz_sim as f64 + fill)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster() -> Cluster {
        Cluster::grid5000_opteron()
    }

    #[test]
    fn cg_class_a_runs_and_scales() {
        let cluster = small_cluster();
        let stack = StackConfig::mpich2_nmad(false);
        let r8 = run_nas(&cluster, &stack, Kernel::CG, Class::A, 8, Some(1));
        let r16 = run_nas(&cluster, &stack, Kernel::CG, Class::A, 16, Some(1));
        assert!(r8.time_s > 0.0);
        // Compute dominates: doubling ranks should cut time substantially.
        let speedup = r8.time_s / r16.time_s;
        assert!(
            speedup > 1.4 && speedup < 2.2,
            "CG 8->16 speedup {speedup:.2}"
        );
    }

    #[test]
    fn bt_substitutes_nine_ranks() {
        let cluster = small_cluster();
        let stack = StackConfig::mpich2_nmad(false);
        let r = run_nas(&cluster, &stack, Kernel::BT, Class::A, 8, Some(1));
        assert_eq!(r.nprocs, 9);
        assert!(r.time_s > 0.0);
    }

    #[test]
    fn ep_is_compute_bound() {
        let cluster = small_cluster();
        let stack = StackConfig::mpich2_nmad(false);
        let r = run_nas(&cluster, &stack, Kernel::EP, Class::A, 8, None);
        let params = KernelParams::of(Kernel::EP, Class::A);
        let pure_compute = params.seq_core_seconds / 8.0;
        // Communication adds well under 1% on EP.
        assert!(
            (r.time_s - pure_compute) / pure_compute < 0.01,
            "EP time {} vs compute {}",
            r.time_s,
            pure_compute
        );
    }

    #[test]
    fn lu_is_small_message_heavy() {
        let cluster = small_cluster();
        let stack = StackConfig::mpich2_nmad(false);
        let (out_sent, _) = {
            let placement = Placement::round_robin(4, &cluster);
            let params = KernelParams::of(Kernel::LU, Class::A);
            let out = run_mpi(
                &cluster,
                &placement,
                &stack,
                4,
                Arc::new(move |mpi: MpiHandle| {
                    let kctx = KernelCtx {
                        mpi: &mpi,
                        params: &params,
                        class: Class::A,
                        nprocs: 4,
                        compute_factor: 1.0,
                        lu_nz_override: Some(32),
                    };
                    run_iteration(Kernel::LU, &kctx);
                }),
            );
            (out.nm_stats.iter().map(|s| s.eager_sends).sum::<u64>(), ())
        };
        // One LU iteration on 4 ranks: 2 sweeps × nz planes × pipeline
        // messages, all eager (a few KB each).
        assert!(
            out_sent > 100,
            "LU must send many small messages, got {out_sent}"
        );
    }

    #[test]
    fn ft_moves_volume_proportional_data() {
        let cluster = small_cluster();
        let stack = StackConfig::mpich2_nmad(false);
        let r = run_nas(&cluster, &stack, Kernel::FT, Class::A, 8, Some(1));
        assert!(r.time_s > 0.0);
        // FT at class A must still be compute-dominated at 8 ranks.
        let params = KernelParams::of(Kernel::FT, Class::A);
        let pure = params.seq_core_seconds / 8.0;
        assert!(r.time_s < pure * 1.5, "FT {} vs {}", r.time_s, pure);
    }

    #[test]
    fn all_kernels_complete_on_four_or_nine_ranks() {
        let cluster = small_cluster();
        let stack = StackConfig::mpich2_nmad(false);
        for k in Kernel::ALL {
            let n = if matches!(k, Kernel::BT | Kernel::SP) {
                9
            } else {
                4
            };
            let r = run_nas(&cluster, &stack, k, Class::A, n, Some(1));
            assert!(r.time_s > 0.0, "{} produced no time", k.name());
        }
    }

    #[test]
    fn pioman_overhead_on_nas_is_small() {
        // §4.2: "the overhead is usually less than 3%".
        let cluster = small_cluster();
        let base = StackConfig::mpich2_nmad(false);
        let piom = StackConfig::mpich2_nmad(true);
        let r0 = run_nas(&cluster, &base, Kernel::CG, Class::A, 8, Some(1));
        let r1 = run_nas(&cluster, &piom, Kernel::CG, Class::A, 8, Some(1));
        let overhead = (r1.time_s - r0.time_s) / r0.time_s;
        assert!(
            overhead.abs() < 0.03,
            "PIOMan NAS overhead {:.1}% exceeds 3%",
            overhead * 100.0
        );
    }
}
