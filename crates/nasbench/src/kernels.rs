//! The per-kernel MPI programs: NPB 2.4 communication patterns with a
//! calibrated compute-time model.
//!
//! Message sizes and counts follow the published algorithms:
//!
//! * **BT/SP** — ADI on a square (torus) process grid: three sweep stages
//!   per iteration, each exchanging solution faces with both neighbours of
//!   one grid dimension.
//! * **CG** — ~26 vector-segment exchanges with the transpose partner per
//!   outer iteration, plus two scalar allreduces.
//! * **EP** — pure computation with a handful of small allreduces at the
//!   end (which is why every stack ties on EP except for compute-side
//!   effects).
//! * **FT** — one global transpose (all-to-all of the whole local volume)
//!   per iteration; the bandwidth hog.
//! * **MG** — halo exchanges on every multigrid level, sizes shrinking
//!   with the level.
//! * **LU** — SSOR wavefront: two sweeps per iteration, each pipelining
//!   `nz` planes of *small* messages through the process grid ("LU sends
//!   only a limited percentage of large messages and most of the traffic
//!   is composed of small messages", §4.2).
//!
//! Payload contents are never read, so every message is a view of one
//! immutable zero buffer per OS thread ([`zeros`]), the way NPB sends
//! from arrays allocated once rather than one buffer per message. All
//! ranks of a job run on the simulator's thread, so they share it.

use std::cell::RefCell;

use bytes::Bytes;
use mpi_ch3::{MpiHandle, Src};
use simnet::SimDuration;

use crate::decomp::{CgGrid, RectGrid, SquareGrid};
use crate::model::{Class, Kernel, KernelParams};

/// Context passed to a kernel iteration.
pub struct KernelCtx<'a> {
    pub mpi: &'a MpiHandle,
    pub params: &'a KernelParams,
    pub class: Class,
    pub nprocs: usize,
    /// Stack compute-time multiplier.
    pub compute_factor: f64,
    /// LU: simulate only this many wavefront planes (the runner corrects
    /// the measured time with the affine pipeline formula; see
    /// [`crate::run::lu_plane_scale`]).
    pub lu_nz_override: Option<usize>,
}

impl KernelCtx<'_> {
    /// One iteration's per-rank compute time.
    fn iter_compute(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.params.iter_compute_secs(self.nprocs) * self.compute_factor)
    }

    fn compute_fraction(&self, frac: f64) -> SimDuration {
        SimDuration::from_secs_f64(
            self.params.iter_compute_secs(self.nprocs) * self.compute_factor * frac,
        )
    }
}

/// Tags (collectives use their own context, so plain numbers suffice).
const TAG_FACE: u32 = 100;
const TAG_CG: u32 = 200;
const TAG_A2A: u32 = 300;
const TAG_MG: u32 = 400;
const TAG_LU_LOW: u32 = 500;
const TAG_LU_HIGH: u32 = 501;

/// Run one iteration of `kernel`.
pub fn run_iteration(kernel: Kernel, k: &KernelCtx<'_>) {
    match kernel {
        Kernel::BT | Kernel::SP => adi_iteration(k),
        Kernel::CG => cg_iteration(k),
        Kernel::EP => ep_iteration(k),
        Kernel::FT => ft_iteration(k),
        Kernel::MG => mg_iteration(k),
        Kernel::LU => lu_iteration(k),
        Kernel::IS => is_iteration(k),
    }
}

thread_local! {
    static ZEROS: RefCell<Bytes> = const { RefCell::new(Bytes::new()) };
}

/// `n` zero bytes: a view of this thread's shared zero buffer, which is
/// replaced by a larger one (a power of two) when `n` outgrows it. Views
/// handed out earlier keep the old buffer alive, so they stay zeros.
pub fn zeros(n: usize) -> Bytes {
    ZEROS.with(|z| {
        let mut z = z.borrow_mut();
        if z.len() < n {
            *z = Bytes::from(vec![0u8; n.next_power_of_two()]);
        }
        z.slice(..n)
    })
}

/// Exchange `bytes`-sized faces with two partners simultaneously
/// (deadlock-free: receives posted first).
fn exchange(mpi: &MpiHandle, tag: u32, partners: &[(usize, usize)], bytes: usize) {
    // partners: (send_to, recv_from) pairs.
    let payload = zeros(bytes.max(1));
    let mut reqs = Vec::with_capacity(partners.len() * 2);
    for &(_, from) in partners {
        reqs.push(mpi.irecv(Src::Rank(from), tag));
    }
    for &(to, _) in partners {
        reqs.push(mpi.isend_bytes(to, tag, payload.clone()));
    }
    mpi.waitall(&reqs);
}

// ---------------------------------------------------------------------
// BT / SP: ADI sweeps on a square torus grid
// ---------------------------------------------------------------------

fn adi_iteration(k: &KernelCtx<'_>) {
    let grid = SquareGrid::new(k.mpi.rank(), k.nprocs);
    let edge = k.params.base_edge as f64 * k.class.size_factor();
    // Face: edge² cells × 5 solution variables × 8 bytes, split across the
    // q ranks that share the face.
    let face_bytes = (edge * edge * 5.0 * 8.0 / grid.q as f64) as usize;
    // Three sweep stages: x (column neighbours), y (row neighbours),
    // z (column neighbours again — the 3rd dimension is not decomposed).
    let stages: [(isize, isize); 3] = [(0, 1), (1, 0), (0, 1)];
    for (drow, dcol) in stages {
        k.mpi.compute(k.compute_fraction(1.0 / 3.0));
        if grid.q > 1 {
            let fwd = grid.torus_neighbor(drow, dcol);
            let bwd = grid.torus_neighbor(-drow, -dcol);
            exchange(k.mpi, TAG_FACE, &[(fwd, bwd), (bwd, fwd)], face_bytes);
        }
    }
}

// ---------------------------------------------------------------------
// CG
// ---------------------------------------------------------------------

fn cg_iteration(k: &KernelCtx<'_>) {
    let grid = CgGrid::new(k.mpi.rank(), k.nprocs);
    let seg_bytes =
        (k.params.base_edge as f64 * k.class.size_factor() * 8.0 / grid.cols as f64) as usize;
    // ~26 matrix-vector products per outer iteration, each with one
    // transpose exchange.
    const INNER: usize = 26;
    let partner = grid.exchange_partner();
    for _ in 0..INNER {
        k.mpi.compute(k.compute_fraction(1.0 / INNER as f64));
        if partner != k.mpi.rank() {
            exchange(k.mpi, TAG_CG, &[(partner, partner)], seg_bytes);
        }
    }
    // Two scalar reductions (rho, norm).
    k.mpi.allreduce_sum(&[1.0]);
    k.mpi.allreduce_sum(&[1.0]);
}

// ---------------------------------------------------------------------
// EP
// ---------------------------------------------------------------------

fn ep_iteration(k: &KernelCtx<'_>) {
    // Pure compute, then the final counters (q[0..9] and two sums).
    k.mpi.compute(k.iter_compute());
    k.mpi.allreduce_sum(&[0.0; 10]);
    k.mpi.allreduce_sum(&[0.0; 2]);
}

// ---------------------------------------------------------------------
// FT
// ---------------------------------------------------------------------

fn ft_iteration(k: &KernelCtx<'_>) {
    let n = k.nprocs;
    // Total volume: 512³ complex doubles (16 B) scaled by the class work
    // factor (FT's work is ∝ volume).
    let volume = 512.0f64.powi(3) * 16.0 * k.class.work_factor();
    let block = (volume / (n * n) as f64) as usize;
    // Three compute phases (FFT along each dimension) around the global
    // transpose.
    k.mpi.compute(k.compute_fraction(2.0 / 3.0));
    // Round-based personalized all-to-all: bounded memory, same wire
    // traffic as the collective.
    let payload = zeros(block.max(1));
    let rank = k.mpi.rank();
    for i in 1..n {
        let to = (rank + i) % n;
        let from = (rank + n - i) % n;
        let r = k.mpi.irecv(Src::Rank(from), TAG_A2A);
        let s = k.mpi.isend_bytes(to, TAG_A2A, payload.clone());
        k.mpi.waitall(&[r, s]);
    }
    k.mpi.compute(k.compute_fraction(1.0 / 3.0));
}

// ---------------------------------------------------------------------
// MG
// ---------------------------------------------------------------------

fn mg_iteration(k: &KernelCtx<'_>) {
    let n = k.nprocs;
    let rank = k.mpi.rank();
    // Surface divisor ≈ P^(2/3) for a 3D decomposition.
    let surf_div = (n as f64).powf(2.0 / 3.0);
    // V-cycle over levels 9 (512³) down to 2 (4³); compute is dominated by
    // the finest level.
    let mut level_edge = (512.0 * k.class.size_factor()) as usize;
    let mut first = true;
    while level_edge >= 4 {
        let frac = if first { 0.7 } else { 0.3 / 7.0 };
        k.mpi.compute(k.compute_fraction(frac));
        let face = (((level_edge * level_edge) as f64) * 8.0 / surf_div).max(64.0) as usize;
        if n > 1 {
            // Three dimension-pair halo exchanges on rank rings.
            for stride in [1usize, 2, 4] {
                let stride = stride.min(n - 1).max(1);
                let fwd = (rank + stride) % n;
                let bwd = (rank + n - stride) % n;
                if fwd == rank {
                    continue;
                }
                exchange(k.mpi, TAG_MG, &[(fwd, bwd), (bwd, fwd)], face);
            }
        }
        level_edge /= 2;
        first = false;
    }
}

// ---------------------------------------------------------------------
// IS (extension beyond the paper; requires datatype support)
// ---------------------------------------------------------------------

fn is_iteration(k: &KernelCtx<'_>) {
    use mpi_ch3::datatype::Datatype;
    let n = k.nprocs;
    let rank = k.mpi.rank();
    // Bucket-sort ranking: local counting, a histogram allreduce, then the
    // key redistribution (alltoallv — bucket sizes vary per destination).
    k.mpi.compute(k.compute_fraction(0.6));
    // 1024-bucket histogram of f64 counters (NPB uses ints; the wire
    // volume is what matters).
    k.mpi.allreduce_sum(&vec![0.0f64; 1024]);
    // Keys: 4 bytes each, total volume = keys × 4 scaled by class work.
    let total_keys = k.params.base_edge as f64 * k.class.work_factor();
    let avg_block = (total_keys * 4.0 / (n * n) as f64) as usize;
    // Bucket sizes vary ±50% deterministically by (src, dst).
    let blocks: Vec<Bytes> = (0..n)
        .map(|dst| {
            let skew = 0.5 + ((rank * 7 + dst * 13) % 16) as f64 / 16.0;
            zeros(((avg_block as f64) * skew) as usize)
        })
        .collect();
    let got = k.mpi.alltoallv(blocks);
    debug_assert_eq!(got.len(), n);
    k.mpi.compute(k.compute_fraction(0.4));
    // Partial verification: exchange a strided sample of ranked keys with
    // the right neighbour using the MPI_Type_vector support — the very
    // feature whose absence excluded IS from the paper's evaluation.
    if n > 1 {
        let sample_ty = Datatype::Vector {
            count: 16,
            blocklen: 1,
            stride: 64,
            element_size: 4,
        };
        let keys = vec![rank as u8; sample_ty.extent(1)];
        let right = (rank + 1) % n;
        let left = (rank + n - 1) % n;
        let mut landing = vec![0u8; sample_ty.extent(1)];
        if rank.is_multiple_of(2) {
            k.mpi.send_typed(right, 77, &sample_ty, &keys, 1);
            k.mpi
                .recv_typed(Src::Rank(left), 77, &sample_ty, &mut landing, 1);
        } else {
            k.mpi
                .recv_typed(Src::Rank(left), 77, &sample_ty, &mut landing, 1);
            k.mpi.send_typed(right, 77, &sample_ty, &keys, 1);
        }
        debug_assert_eq!(landing[0], left as u8);
    }
}

// ---------------------------------------------------------------------
// LU
// ---------------------------------------------------------------------

fn lu_iteration(k: &KernelCtx<'_>) {
    // LU decomposes onto a rectangular power-of-two mesh (rows × cols).
    let grid = RectGrid::new(k.mpi.rank(), k.nprocs);
    let nz_full = ((k.params.base_edge as f64 * k.class.size_factor()) as usize).max(8);
    let nz = k.lu_nz_override.unwrap_or(nz_full).min(nz_full);
    // Plane boundary: (edge/cols) cells × 5 vars × 8 B — a few KB.
    let plane_bytes = ((k.params.base_edge as f64 * k.class.size_factor() / grid.cols as f64)
        * 5.0
        * 8.0) as usize;
    // Per-plane compute uses the FULL plane count so the pipeline's
    // compute/communication ratio is authentic even when fewer planes are
    // simulated.
    let plane_dt = SimDuration::from_secs_f64(
        k.params.iter_compute_secs(k.nprocs) * k.compute_factor / (2.0 * nz_full as f64),
    );
    // Lower-triangular sweep: the wavefront flows from (0,0) to (q-1,q-1).
    lu_sweep(k, &grid, nz, plane_bytes, plane_dt, TAG_LU_LOW, false);
    // Upper-triangular sweep: reversed.
    lu_sweep(k, &grid, nz, plane_bytes, plane_dt, TAG_LU_HIGH, true);
}

#[allow(clippy::too_many_arguments)]
fn lu_sweep(
    k: &KernelCtx<'_>,
    grid: &RectGrid,
    nz: usize,
    plane_bytes: usize,
    plane_dt: SimDuration,
    tag: u32,
    reversed: bool,
) {
    let dir: isize = if reversed { -1 } else { 1 };
    let recv_n = grid.mesh_neighbor(-dir, 0);
    let recv_w = grid.mesh_neighbor(0, -dir);
    let send_s = grid.mesh_neighbor(dir, 0);
    let send_e = grid.mesh_neighbor(0, dir);
    let payload = zeros(plane_bytes.max(1));
    for _plane in 0..nz {
        if let Some(n) = recv_n {
            k.mpi.recv(Src::Rank(n), tag);
        }
        if let Some(w) = recv_w {
            k.mpi.recv(Src::Rank(w), tag);
        }
        k.mpi.compute(plane_dt);
        let mut sends = Vec::new();
        if let Some(s) = send_s {
            sends.push(k.mpi.isend_bytes(s, tag, payload.clone()));
        }
        if let Some(e) = send_e {
            sends.push(k.mpi.isend_bytes(e, tag, payload.clone()));
        }
        k.mpi.waitall(&sends);
    }
}
