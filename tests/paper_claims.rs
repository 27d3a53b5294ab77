//! The paper's headline claims, asserted end-to-end (cheap versions of
//! the E1–E11 experiments; the bench binaries print the full figures).

use bench_harness::{
    fig2_handshake, fig4_bandwidth, fig4_latency, fig5, fig6_mx, fig6_shm, latency_breakdown,
    sending_time, RAIL_IB, RAIL_MX,
};
use mpich2_nmad_repro::mpi_ch3::stack::StackConfig;
use mpich2_nmad_repro::simnet::SimDuration;
use netpipe::NetpipeOptions;

fn quick_lat() -> NetpipeOptions {
    NetpipeOptions {
        sizes: vec![4, 512],
        iters_small: 10,
        ..Default::default()
    }
}

fn quick_bw() -> NetpipeOptions {
    NetpipeOptions {
        sizes: vec![64 * 1024, 4 << 20],
        iters_small: 3,
        iters_large: 2,
        ..Default::default()
    }
}

#[test]
fn e1_fig4a_latency_ordering_and_values() {
    let series = fig4_latency(&quick_lat());
    let lat = |i: usize| series[i].latency_at(4).unwrap();
    let (mva, omp, nmad, nmad_as) = (lat(0), lat(1), lat(2), lat(3));
    // Paper: 1.5, 1.6, 2.1, 2.4 µs.
    assert!((mva - 1.5).abs() < 0.15, "MVAPICH2 {mva}");
    assert!((omp - 1.6).abs() < 0.15, "Open MPI {omp}");
    assert!((nmad - 2.1).abs() < 0.15, "MPICH2-NMad {nmad}");
    assert!(
        (nmad_as - nmad - 0.3).abs() < 0.1,
        "ANY_SOURCE gap {}",
        nmad_as - nmad
    );
    // And the gap stays constant as size grows (§4.1.1).
    let gap_512 = series[3].latency_at(512).unwrap() - series[2].latency_at(512).unwrap();
    assert!((gap_512 - 0.3).abs() < 0.1, "AS gap at 512B {gap_512}");
}

#[test]
fn e2_fig4b_bandwidth_ordering() {
    let series = fig4_bandwidth(&quick_bw());
    let peak = |i: usize| series[i].bandwidth_at(4 << 20).unwrap();
    let (mva, omp, nmad) = (peak(0), peak(1), peak(2));
    // MVAPICH2 outperforms all; nmad beats Open MPI.
    assert!(mva > nmad, "MVAPICH2 {mva} !> nmad {nmad}");
    assert!(nmad > omp, "nmad {nmad} !> OpenMPI {omp}");
    // Medium sizes: nmad above Open MPI (the Fig. 4b crossover).
    let med_nmad = series[2].bandwidth_at(64 * 1024).unwrap();
    let med_omp = series[1].bandwidth_at(64 * 1024).unwrap();
    assert!(
        med_nmad > med_omp,
        "medium-size: nmad {med_nmad} !> OpenMPI {med_omp}"
    );
}

#[test]
fn e3_e4_fig5_multirail() {
    let lat = fig5(&quick_lat());
    // Small messages ride the fastest rail: multirail == IB-only latency.
    let ib = lat[1].latency_at(4).unwrap();
    let multi = lat[2].latency_at(4).unwrap();
    assert!((multi - ib).abs() < 0.05, "multi {multi} vs IB {ib}");
    // Large messages aggregate both rails.
    let bw = fig5(&quick_bw());
    let (mx, ib, multi) = (
        bw[0].bandwidth_at(4 << 20).unwrap(),
        bw[1].bandwidth_at(4 << 20).unwrap(),
        bw[2].bandwidth_at(4 << 20).unwrap(),
    );
    assert!(
        multi > 0.85 * (mx + ib),
        "aggregated {multi} vs sum {}",
        mx + ib
    );
}

#[test]
fn e5_fig6a_pioman_shm_overhead() {
    let series = fig6_shm(&quick_lat());
    let base = series[0].latency_at(4).unwrap();
    let piom = series[1].latency_at(4).unwrap();
    let omp = series[2].latency_at(4).unwrap();
    // Nemesis ~0.2-0.3µs; PIOMan adds ~0.45µs; Open MPI in between/above.
    assert!(base < 0.35, "Nemesis shm {base}");
    assert!(
        (piom - base - 0.45).abs() < 0.15,
        "PIOMan shm overhead {}",
        piom - base
    );
    assert!(omp > base, "Open MPI shm {omp} must exceed Nemesis {base}");
    // Constant overhead: same gap at 512 B.
    let gap512 = series[1].latency_at(512).unwrap() - series[0].latency_at(512).unwrap();
    assert!((gap512 - 0.45).abs() < 0.15, "gap at 512B {gap512}");
}

#[test]
fn e6_fig6b_pioman_mx_overhead_and_ordering() {
    let series = fig6_mx(&quick_lat());
    let pml = series[0].latency_at(4).unwrap();
    let btl = series[1].latency_at(4).unwrap();
    let nmad = series[2].latency_at(4).unwrap();
    let piom = series[3].latency_at(4).unwrap();
    // Fig. 6(b) ordering: nmad < PML < BTL < nmad+PIOMan.
    assert!(
        nmad < pml && pml < btl && btl < piom,
        "ordering violated: nmad {nmad}, pml {pml}, btl {btl}, piom {piom}"
    );
    assert!((nmad - 2.4).abs() < 0.15, "nmad MX {nmad}");
    assert!(
        (piom - nmad - 2.0).abs() < 0.4,
        "PIOMan MX overhead {}",
        piom - nmad
    );
}

#[test]
fn e7_fig7a_eager_overlap() {
    let compute = SimDuration::micros(20);
    let nmad = StackConfig::mpich2_nmad_rail(RAIL_MX, false);
    let piom = StackConfig::mpich2_nmad_rail(RAIL_MX, true);
    let reference = sending_time(&nmad, 16 * 1024, SimDuration::ZERO);
    let no_overlap = sending_time(&nmad, 16 * 1024, compute);
    let overlap = sending_time(&piom, 16 * 1024, compute);
    // sum(comm, compute) vs max(comm, compute).
    assert!(
        no_overlap > reference + 18.0,
        "no-PIOMan must serialize: {no_overlap} vs ref {reference}"
    );
    assert!(
        overlap < reference + 10.0,
        "PIOMan must overlap: {overlap} vs ref {reference}"
    );
}

#[test]
fn e8_fig7b_rendezvous_overlap() {
    let compute = SimDuration::micros(400);
    let nmad = StackConfig::mpich2_nmad_rail(RAIL_IB, false);
    let piom = StackConfig::mpich2_nmad_rail(RAIL_IB, true);
    for &bytes in &[256 * 1024usize, 1 << 20] {
        let reference = sending_time(&nmad, bytes, SimDuration::ZERO);
        let plain = sending_time(&nmad, bytes, compute);
        let over = sending_time(&piom, bytes, compute);
        // Without PIOMan: compute + comm (the handshake stalls).
        assert!(
            plain > 390.0 + reference * 0.9,
            "{bytes}B plain {plain} vs ref {reference}"
        );
        // With PIOMan: ~max(compute, comm).
        let max_expect = reference.max(400.0);
        assert!(
            over < max_expect + 40.0,
            "{bytes}B overlap {over} vs max {max_expect}"
        );
    }
}

#[test]
fn e10_fig2_nested_handshake_penalty() {
    let rows = fig2_handshake(&[256 * 1024]);
    let r = &rows[0];
    assert!(
        r.netmod_us > r.direct_us + 2.0,
        "netmod {:.1} must exceed bypass {:.1} by the extra handshake",
        r.netmod_us,
        r.direct_us
    );
}

#[test]
fn e11_latency_breakdown_matches_paper() {
    for row in latency_breakdown() {
        let err = (row.measured_us - row.paper_us).abs();
        assert!(
            err < 0.12,
            "{}: measured {:.2} vs paper {:.1}",
            row.layer,
            row.measured_us,
            row.paper_us
        );
    }
}
