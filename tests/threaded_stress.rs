//! Real-thread stress for the lock-free hot path: 16 producers × 4 VCs,
//! eager + rendezvous traffic with flow control armed.
//!
//! What must hold in every run (scheduling is the OS's, not ours):
//!
//! * the run terminates — no deadlock between window backpressure, credit
//!   stalls, and queue handoff;
//! * per-sender FIFO: each producer's sequence numbers arrive dense and in
//!   order at its VC's consumer;
//! * credit conservation: every per-gate eager pool is back at capacity
//!   after the drain;
//! * the per-thread [`NmStats`], folded at join, equal a
//!   single-threaded oracle running the identical per-message logic
//!   (modulo the schedule-dependent stall counter);
//! * no CRC drops: every payload crossed the queues intact.

use mpi_ch3::{run_inline, run_threaded, ThreadedConfig};

fn stress_cfg() -> ThreadedConfig {
    ThreadedConfig {
        producers: 16,
        vcs: 4,
        window: 16,
        msgs_per_producer: 500,
        payload_bytes: 200,
        rdv_every: 7,
        eager_credits: 8,
    }
}

#[test]
fn sixteen_producers_four_vcs_flow_controlled() {
    let cfg = stress_cfg();
    let r = run_threaded(cfg);

    let total = cfg.producers as u64 * cfg.msgs_per_producer;
    assert_eq!(r.total_msgs, total, "messages were lost or duplicated");
    assert_eq!(r.fifo_violations, 0, "per-sender FIFO violated");
    assert!(r.credit_intact, "eager credits were minted or leaked");
    assert_eq!(
        r.stats.crc_drops, 0,
        "payload corrupted crossing the queues"
    );
    assert_eq!(r.latencies_ns.len(), total as usize);
    assert!(r.p99_ns() >= r.p50_ns());

    // Both matcher paths saw traffic (even seqs posted-first, odd seqs
    // unexpected-first with ANY_SOURCE arbitration).
    assert!(r.matched_posted > 0 && r.matched_unexpected > 0);
    assert_eq!(r.matched_posted + r.matched_unexpected, total);

    // Protocol mix: every 7th message went rendezvous.
    let rdv = cfg.producers as u64 * (cfg.msgs_per_producer / cfg.rdv_every);
    assert_eq!(r.stats.rdv_sends, rdv);
    assert_eq!(r.stats.eager_sends, total - rdv);
    assert_eq!(r.stats.fc_eager_admitted, total - rdv);
    assert_eq!(r.stats.fc_credits_returned, total - rdv);
}

#[test]
fn merged_stats_equal_single_threaded_oracle() {
    let cfg = stress_cfg();
    let mut threaded = run_threaded(cfg).stats;
    let mut oracle = run_inline(cfg).stats;
    // The stall counter records "had to wait at least once", which depends
    // on the OS schedule; every other counter is a deterministic function
    // of the workload.
    threaded.fc_credit_stalls = 0;
    oracle.fc_credit_stalls = 0;
    assert_eq!(
        threaded, oracle,
        "merged per-thread counters diverged from the sequential oracle"
    );
}

#[test]
fn tiny_window_tiny_credits_still_drain() {
    // The nastiest backpressure corner: a 2-cell window and 1 credit per
    // gate force constant producer stalls; the run must still terminate
    // with everything delivered.
    let cfg = ThreadedConfig {
        producers: 8,
        vcs: 2,
        window: 2,
        msgs_per_producer: 300,
        payload_bytes: 64,
        rdv_every: 3,
        eager_credits: 1,
    };
    let r = run_threaded(cfg);
    assert_eq!(r.total_msgs, 8 * 300);
    assert_eq!(r.fifo_violations, 0);
    assert!(r.credit_intact);
    assert_eq!(r.stats.crc_drops, 0);
}

#[test]
fn producers_outnumbering_vcs_and_vcs_outnumbering_producers() {
    for (producers, vcs) in [(16usize, 1usize), (2, 4)] {
        let cfg = ThreadedConfig {
            producers,
            vcs,
            window: 8,
            msgs_per_producer: 200,
            payload_bytes: 32,
            rdv_every: 5,
            eager_credits: 4,
        };
        let r = run_threaded(cfg);
        assert_eq!(r.total_msgs, producers as u64 * 200);
        assert_eq!(r.fifo_violations, 0);
        assert!(r.credit_intact);
    }
}
