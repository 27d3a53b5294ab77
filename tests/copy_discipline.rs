//! Copy-discipline proofs: the CopyMeter threaded through every layer
//! (MPI boundary → CH3 → NewMadeleine → fabric / Nemesis cells) must show
//! that the paper's bypass integration (§3.1) physically copies less than
//! the legacy netmod tunnel (§2.1.3, Fig. 2), and that copy accounting is
//! as deterministic as the payloads themselves.

use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi_collect, RunOutcome, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{MpiHandle, Src};
use mpich2_nmad_repro::sim_harness::{Scenario, Workload};
use mpich2_nmad_repro::simnet::{Cluster, CopySnapshot, FaultPlan, FaultSpec, Placement};

/// Two ranks on two nodes: rank 0 sends `count` rendezvous-sized messages
/// to rank 1, which verifies every byte. Returns the job-wide copy totals.
fn run_large_messages(cfg: &StackConfig, count: usize, len: usize) -> CopySnapshot {
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    let (outcome, _): (RunOutcome, Vec<()>) =
        run_mpi_collect(&cluster, &placement, cfg, 2, move |mpi: &MpiHandle| {
            if mpi.rank() == 0 {
                for round in 0..count {
                    let payload = vec![round as u8; len];
                    mpi.send(1, round as u32, &payload);
                }
            } else {
                for round in 0..count {
                    let (data, status) = mpi.recv(Src::Rank(0), round as u32);
                    assert_eq!(status.len, len);
                    assert!(data.iter().all(|&b| b == round as u8));
                }
            }
            mpi.barrier();
        });
    outcome.copy
}

const LARGE: usize = 256 * 1024; // far above the 16 KiB eager threshold
const COUNT: usize = 6;

/// The headline claim: for the same large-message workload, the bypass
/// stack performs strictly fewer memcpys than the netmod tunnel — at
/// least one fewer *per message*, because the tunnel re-copies every
/// frame through the module-queue boundary (Fig. 2's nested handshake).
#[test]
fn bypass_copies_strictly_less_than_tunnel() {
    let bypass = run_large_messages(&StackConfig::mpich2_nmad(false), COUNT, LARGE);
    let tunnel = run_large_messages(&StackConfig::mpich2_nmad_netmod(0), COUNT, LARGE);

    assert!(
        bypass.memcpy_calls < tunnel.memcpy_calls,
        "bypass must copy fewer times: bypass [{bypass}] vs tunnel [{tunnel}]"
    );
    assert!(
        tunnel.memcpy_calls - bypass.memcpy_calls >= COUNT as u64,
        "tunnel must pay at least one extra memcpy per large message: \
         bypass [{bypass}] vs tunnel [{tunnel}] over {COUNT} messages"
    );
    assert!(
        bypass.bytes_copied < tunnel.bytes_copied,
        "bypass must move fewer payload bytes through memcpy: \
         bypass [{bypass}] vs tunnel [{tunnel}]"
    );
}

/// A large message on the bypass stack is copied exactly once: the MPI
/// boundary copy-in. The rendezvous receive pays no memcpy and no
/// allocation — it hands over the DATA chunks as one view of the
/// sender's payload — however many wire chunks or rails carried it.
#[test]
fn bypass_large_message_copy_budget() {
    let one = run_large_messages(&StackConfig::mpich2_nmad(false), 1, LARGE);
    let two = run_large_messages(&StackConfig::mpich2_nmad(false), 2, LARGE);
    let per_msg = two.since(&one);
    // Chunking shares the source allocation: splitting must show up as
    // refcount bumps, never as extra memcpys of payload bytes.
    assert!(
        per_msg.slice_refs > 0,
        "chunking must take zero-copy slices"
    );
    assert_eq!(
        (
            per_msg.memcpy_calls,
            per_msg.bytes_copied,
            per_msg.allocations
        ),
        (1, LARGE as u64, 1),
        "one extra large message must cost its copy-in and nothing else, \
         got {per_msg}"
    );
}

/// Multirail splits are zero-copy: driving the balanced strategy across
/// both xeon_pair rails must grow the share count, not the memcpy count,
/// relative to the payload volume.
#[test]
fn multirail_split_uses_shared_slices() {
    let fp = Scenario::new(42, FaultSpec::NONE, Workload::Multirail, false).run_clean();
    assert!(
        fp.copy.slice_refs > 0,
        "multirail chunking produced no zero-copy shares: {}",
        fp.copy
    );
    // Every payload byte may be memcpy'd at most twice end-to-end
    // (copy-in at the MPI boundary, reassembly at the receiver), no
    // matter how many rail-chunks the strategy produced.
    assert!(
        fp.copy.memcpy_calls < fp.copy.slice_refs + fp.copy.allocations,
        "copies outnumber shares on the multirail path: {}",
        fp.copy
    );
}

/// Copy accounting is part of the replay identity: the same seed must
/// reproduce bit-identical CopyMeter counters — with and without an
/// injected fault schedule (retransmissions included).
#[test]
fn copy_counts_replay_bit_identical() {
    for seed in [7u64, 19, 23] {
        for workload in [Workload::SendRecv, Workload::AnySource] {
            // Fault-free control runs.
            let clean = Scenario::new(seed, FaultSpec::NONE, workload, false);
            let (a, b) = (clean.run_clean(), clean.run_clean());
            assert_eq!(
                a.copy, b.copy,
                "clean replay diverged (seed {seed}, {workload:?})"
            );

            // Fault-injected runs: retransmissions are refcount shares,
            // so even a lossy schedule replays to identical counters.
            let faulty = Scenario::new(seed, FaultSpec::drop_heavy(), workload, false);
            let (fa, fb) = (faulty.run(), faulty.run());
            assert_eq!(
                fa.copy, fb.copy,
                "faulty replay diverged (seed {seed}, {workload:?})"
            );
            assert!(
                fa.total_retries() > 0,
                "drop-heavy schedule triggered no retransmissions (seed {seed})"
            );
        }
    }
}

/// Recycled boundary copies never overwrite a payload still in use. Two
/// ranks exchange 200 KiB sends, each borrowed from one buffer the sender
/// rewrites every round, over a fabric that drops 1 % and duplicates
/// 0.5 % of its packets. Each receiver holds the payloads of its last
/// `HOLD` rounds — zero-copy views of the sender's storage — and checks
/// every one of them again each round. The views span at most a quarter
/// as many storages as rounds, so storage really was reused, and only
/// ever once free: 8 of each rank's when written, against 22 when every
/// copy takes fresh storage from malloc.
#[test]
fn recycled_copies_never_overwrite_a_held_payload() {
    const LEN: usize = 200 * 1024;
    const ROUNDS: usize = 40;
    const HOLD: usize = 3;
    fn fill(rank: usize, round: usize, buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (i.wrapping_mul(7) ^ (round * 31 + rank * 101)) as u8;
        }
    }
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    let spec = FaultSpec {
        drop_pct: 0.01,
        dup_pct: 0.005,
        ..FaultSpec::default()
    };
    let cfg = StackConfig::mpich2_nmad(false).with_faults(FaultPlan::uniform(11, spec));
    let (outcome, storages) = run_mpi_collect(&cluster, &placement, &cfg, 2, |mpi: &MpiHandle| {
        let (me, peer) = (mpi.rank(), 1 - mpi.rank());
        let (mut out, mut want) = (vec![0u8; LEN], vec![0u8; LEN]);
        let mut held = std::collections::VecDeque::new();
        let mut storages = std::collections::HashSet::new();
        for round in 0..ROUNDS {
            let recv = mpi.irecv(Src::Rank(peer), round as u32);
            fill(me, round, &mut out);
            let send = mpi.isend(peer, round as u32, &out);
            let (data, _) = mpi.wait_data(recv);
            mpi.wait(send);
            let data = data.expect("a receive has a payload");
            storages.insert(data.storage_ptr() as usize);
            held.push_back((round, data));
            if held.len() > HOLD {
                held.pop_front();
            }
            for (r, data) in &held {
                fill(peer, *r, &mut want);
                assert!(
                    data[..] == want[..],
                    "round {r}'s payload changed by round {round}"
                );
            }
        }
        storages.len()
    });
    let faults = outcome.fault_counters.expect("a fault plan was installed");
    assert!(faults.dropped > 0 && faults.duplicated > 0, "{faults:?}");
    for (rank, n) in storages.into_iter().enumerate() {
        assert!(
            n <= ROUNDS / 4,
            "rank {rank}: {n} storages for {ROUNDS} rounds"
        );
    }
}
