//! Umbrella crate for the MPICH2-NewMadeleine reproduction workspace.
//!
//! Re-exports the individual crates under one roof so the examples and the
//! workspace-level integration tests can `use mpich2_nmad_repro::...`.

pub use baselines;
pub use mpi_ch3;
pub use nasbench;
pub use nemesis;
pub use netpipe;
pub use nmad;
pub use obs;
pub use piom;
pub use simnet;

pub mod sim_harness {
    //! Seeded fault-injection scenario harness.
    //!
    //! One [`Scenario`] is a (workload × fault schedule × master seed)
    //! triple. [`Scenario::run`] builds the paper's MPICH2-NMad stack with
    //! the corresponding [`FaultPlan`], runs the workload to completion —
    //! the rank programs themselves assert byte-exact, exactly-once,
    //! per-sender-in-order delivery, so a run that returns at all has
    //! already proven the transport correct under that schedule — and
    //! distils the run into a [`Fingerprint`]. Because the whole stack is
    //! a deterministic discrete-event simulation and every random stream
    //! (fabric jitter, fault coin-flips) derives from the master seed,
    //! equal scenarios must yield bit-identical fingerprints; the replay
    //! tests in `tests/simulation.rs` pin that down.

    use crate::mpi_ch3::stack::{run_mpi_collect, RunOutcome, StackConfig};
    use crate::mpi_ch3::{MpiHandle, Src};
    use crate::nmad::core::NmStats;
    use crate::simnet::{Cluster, CopySnapshot, FaultCounters, FaultPlan, FaultSpec, Placement};

    /// Which traffic pattern a scenario drives.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Workload {
        /// Bidirectional mixed-size ladder between two remote ranks:
        /// eager, aggregated-eager and rendezvous paths, several rounds
        /// per tag so per-sender ordering is observable.
        SendRecv,
        /// Four remote senders feeding one `Src::Any` receiver; headers
        /// carry (sender, index) so the receiver can check per-sender
        /// order and exactly-once delivery independently of matching.
        AnySource,
        /// Large rendezvous transfers split across both cluster rails by
        /// the balanced multirail strategy.
        Multirail,
    }

    /// A replayable fault-injection run.
    #[derive(Clone, Copy, Debug)]
    pub struct Scenario {
        pub seed: u64,
        pub spec: FaultSpec,
        pub workload: Workload,
        pub pioman: bool,
    }

    /// Replay identity of one run. Two executions of the same [`Scenario`]
    /// must produce bit-identical fingerprints — simulated end time, event
    /// count, every per-rank NewMadeleine counter, the fabric's per-rail
    /// message/byte totals, the fault plan's injection counters, and a
    /// hash of every payload byte the ranks received.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Fingerprint {
        pub final_time_nanos: u64,
        pub events: u64,
        pub nm_stats: Vec<NmStats>,
        pub fault_counters: Option<FaultCounters>,
        pub rail_counters: Vec<(u64, u64)>,
        pub piom_rekicks: u64,
        pub payload_hash: u64,
        /// Job-wide copy-accounting totals: memcpys, bytes memcpied,
        /// allocations and zero-copy shares. Part of the replay identity —
        /// the copy discipline must be as deterministic as the payloads.
        pub copy: CopySnapshot,
    }

    impl Fingerprint {
        /// Total transport retransmissions across all ranks.
        pub fn total_retries(&self) -> u64 {
            self.nm_stats.iter().map(|s| s.total_retries()).sum()
        }
    }

    impl Scenario {
        pub fn new(seed: u64, spec: FaultSpec, workload: Workload, pioman: bool) -> Scenario {
            Scenario {
                seed,
                spec,
                workload,
                pioman,
            }
        }

        /// Run under the scenario's fault schedule (retry layer on when
        /// the schedule can lose or duplicate packets).
        pub fn run(&self) -> Fingerprint {
            let stack = StackConfig::mpich2_nmad(self.pioman)
                .with_faults(FaultPlan::uniform(self.seed, self.spec));
            run_workload(self.workload, &stack, self.seed)
        }

        /// Fault-free control run with the same fabric seed (no fault
        /// plan, retry layer off).
        pub fn run_clean(&self) -> Fingerprint {
            let stack = StackConfig::mpich2_nmad(self.pioman).with_fabric_seed(self.seed);
            run_workload(self.workload, &stack, self.seed)
        }

        /// [`Scenario::run`] with full observability armed: returns the
        /// fingerprint plus the structured span report. Recording
        /// is a pure side channel — the fingerprint must equal the
        /// untraced run's (the replay tests pin that down).
        pub fn run_traced(&self) -> (Fingerprint, crate::obs::Report) {
            let stack = StackConfig::mpich2_nmad(self.pioman)
                .with_faults(FaultPlan::uniform(self.seed, self.spec))
                .with_obs(crate::obs::ObsConfig::full());
            run_workload_traced(self.workload, &stack, self.seed)
        }

        /// [`Scenario::run_clean`] with full observability armed.
        pub fn run_clean_traced(&self) -> (Fingerprint, crate::obs::Report) {
            let stack = StackConfig::mpich2_nmad(self.pioman)
                .with_fabric_seed(self.seed)
                .with_obs(crate::obs::ObsConfig::full());
            run_workload_traced(self.workload, &stack, self.seed)
        }
    }

    /// Deterministic pseudo-random byte for (seed, index) — same LCG
    /// pattern as the full-stack tests.
    pub fn byte(seed: u64, i: usize) -> u8 {
        let x = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i as u64)
            .wrapping_mul(0x9E3779B97F4A7C15);
        (x >> 33) as u8
    }

    fn payload(seed: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| byte(seed, i)).collect()
    }

    /// Per-message seed: mixes the scenario seed with source rank, tag
    /// lane and round so every payload in a run is distinct.
    fn msg_seed(seed: u64, src: usize, lane: usize, round: usize) -> u64 {
        seed ^ ((src as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            ^ (((lane as u64) << 24) | round as u64).wrapping_mul(6364136223846793005)
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    fn fnv_bytes(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn fingerprint(outcome: &RunOutcome, rank_hashes: &[u64]) -> Fingerprint {
        let mut payload_hash = FNV_OFFSET;
        for h in rank_hashes {
            fnv_bytes(&mut payload_hash, &h.to_le_bytes());
        }
        Fingerprint {
            final_time_nanos: outcome.sim.final_time.as_nanos(),
            events: outcome.sim.events,
            nm_stats: outcome.nm_stats.clone(),
            fault_counters: outcome.fault_counters,
            rail_counters: outcome.rail_counters.clone(),
            piom_rekicks: outcome.piom_rekicks,
            payload_hash,
            copy: outcome.copy,
        }
    }

    fn run_workload(workload: Workload, stack: &StackConfig, seed: u64) -> Fingerprint {
        run_workload_full(workload, stack, seed).0
    }

    /// Like [`run_workload`] but also hands back the observability report
    /// (panics if the stack did not arm `ObsConfig` — the traced entry
    /// points always do).
    fn run_workload_traced(
        workload: Workload,
        stack: &StackConfig,
        seed: u64,
    ) -> (Fingerprint, crate::obs::Report) {
        let (fp, report) = run_workload_full(workload, stack, seed);
        (fp, report.expect("traced run must carry an obs report"))
    }

    fn run_workload_full(
        workload: Workload,
        stack: &StackConfig,
        seed: u64,
    ) -> (Fingerprint, Option<crate::obs::Report>) {
        let (cluster, nranks) = match workload {
            Workload::SendRecv | Workload::Multirail => (Cluster::xeon_pair(), 2),
            Workload::AnySource => (Cluster::grid5000_opteron(), 1 + ANYSRC_SENDERS),
        };
        let placement = Placement::one_per_node(nranks, &cluster);
        let (outcome, hashes) = match workload {
            Workload::SendRecv => {
                run_mpi_collect(&cluster, &placement, stack, nranks, move |mpi| {
                    send_recv_rank(mpi, seed)
                })
            }
            Workload::AnySource => {
                run_mpi_collect(&cluster, &placement, stack, nranks, move |mpi| {
                    any_source_rank(mpi, seed)
                })
            }
            Workload::Multirail => {
                run_mpi_collect(&cluster, &placement, stack, nranks, move |mpi| {
                    multirail_rank(mpi, seed)
                })
            }
        };
        let fp = fingerprint(&outcome, &hashes);
        (fp, outcome.obs)
    }

    /// Sizes straddle the 16 KiB eager/rendezvous boundary.
    const SENDRECV_SIZES: [usize; 5] = [1, 600, 4 * 1024, 17 * 1024, 48 * 1024];
    const SENDRECV_ROUNDS: usize = 2;

    fn send_recv_rank(mpi: &MpiHandle, seed: u64) -> u64 {
        let me = mpi.rank();
        let peer = 1 - me;
        // Post every receive first: irecvs on one (source, tag) match in
        // posted order, so round r's receive completing with round r's
        // payload proves per-sender ordering survived the faults.
        let mut recvs = Vec::new();
        for (k, &len) in SENDRECV_SIZES.iter().enumerate() {
            for round in 0..SENDRECV_ROUNDS {
                recvs.push((k, round, len, mpi.irecv(Src::Rank(peer), k as u32)));
            }
        }
        let mut sends = Vec::new();
        for (k, &len) in SENDRECV_SIZES.iter().enumerate() {
            for round in 0..SENDRECV_ROUNDS {
                sends.push(mpi.isend(peer, k as u32, &payload(msg_seed(seed, me, k, round), len)));
            }
        }
        let mut h = FNV_OFFSET;
        for (k, round, len, req) in recvs {
            let (data, status) = mpi.wait_data(req);
            let data = data.expect("receive carries data");
            let status = status.expect("receive carries status");
            assert_eq!(status.source, peer);
            assert_eq!(status.tag, k as u32);
            assert_eq!(data.len(), len, "length mismatch on tag {k} round {round}");
            let want = payload(msg_seed(seed, peer, k, round), len);
            assert_eq!(
                &data[..],
                &want[..],
                "payload corrupt or out of order: tag {k} round {round}"
            );
            fnv_bytes(&mut h, &data);
        }
        mpi.waitall(&sends);
        mpi.barrier();
        h
    }

    const ANYSRC_SENDERS: usize = 4;
    const ANYSRC_MSGS: usize = 6;
    const ANYSRC_TAG: u32 = 7;
    const ANYSRC_SIZES: [usize; 3] = [48, 1500, 18 * 1024];

    fn anysrc_payload(seed: u64, sender: usize, i: usize) -> Vec<u8> {
        let len = ANYSRC_SIZES[i % ANYSRC_SIZES.len()];
        let mut p = payload(msg_seed(seed, sender, 100, i), len);
        p[..8].copy_from_slice(&(((sender as u64) << 32) | i as u64).to_le_bytes());
        p
    }

    fn any_source_rank(mpi: &MpiHandle, seed: u64) -> u64 {
        let me = mpi.rank();
        if me == 0 {
            let mut next = [0usize; ANYSRC_SENDERS + 1];
            let mut h = FNV_OFFSET;
            for _ in 0..ANYSRC_SENDERS * ANYSRC_MSGS {
                let (data, status) = mpi.recv(Src::Any, ANYSRC_TAG);
                let s = status.source;
                assert!((1..=ANYSRC_SENDERS).contains(&s), "bogus source {s}");
                let hdr = u64::from_le_bytes(data[..8].try_into().unwrap());
                let (hs, hi) = ((hdr >> 32) as usize, (hdr & 0xffff_ffff) as usize);
                assert_eq!(hs, s, "header sender disagrees with matched source");
                assert_eq!(hi, next[s], "per-sender order violated from rank {s}");
                next[s] += 1;
                let want = anysrc_payload(seed, s, hi);
                assert_eq!(data.len(), want.len());
                assert_eq!(
                    &data[..],
                    &want[..],
                    "payload corrupt from rank {s} msg {hi}"
                );
                fnv_bytes(&mut h, &data);
            }
            // Exactly-once: every sender delivered its full quota, no
            // extras (the loop count above bounds the total).
            for (s, n) in next.iter().enumerate().skip(1) {
                assert_eq!(*n, ANYSRC_MSGS, "sender {s} under-delivered");
            }
            mpi.barrier();
            h
        } else {
            for i in 0..ANYSRC_MSGS {
                mpi.send(0, ANYSRC_TAG, &anysrc_payload(seed, me, i));
            }
            mpi.barrier();
            0
        }
    }

    /// Above the multirail threshold: the balanced strategy splits each
    /// transfer across both xeon_pair rails.
    const MULTIRAIL_LEN: usize = 160 * 1024;
    const MULTIRAIL_ROUNDS: usize = 3;
    const MULTIRAIL_TAG: u32 = 3;

    fn multirail_rank(mpi: &MpiHandle, seed: u64) -> u64 {
        let me = mpi.rank();
        let peer = 1 - me;
        let mut recvs = Vec::new();
        for round in 0..MULTIRAIL_ROUNDS {
            recvs.push((round, mpi.irecv(Src::Rank(peer), MULTIRAIL_TAG)));
        }
        let mut sends = Vec::new();
        for round in 0..MULTIRAIL_ROUNDS {
            sends.push(mpi.isend(
                peer,
                MULTIRAIL_TAG,
                &payload(msg_seed(seed, me, 200, round), MULTIRAIL_LEN),
            ));
        }
        let mut h = FNV_OFFSET;
        for (round, req) in recvs {
            let (data, _) = mpi.wait_data(req);
            let data = data.expect("receive carries data");
            let want = payload(msg_seed(seed, peer, 200, round), MULTIRAIL_LEN);
            assert_eq!(
                &data[..],
                &want[..],
                "multirail payload corrupt round {round}"
            );
            fnv_bytes(&mut h, &data);
        }
        mpi.waitall(&sends);
        mpi.barrier();
        h
    }
}
