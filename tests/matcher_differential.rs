//! Differential equivalence: both owners of the per-tag match queue must
//! be observationally identical to the single-queue [`MatchEngine`] oracle.
//!
//! `nmad::matching::TagQueue` is the one definition of the match step,
//! and it is owned twice: the sharded engine (`nmad::sharded`) keeps the
//! queues behind per-gate locks with an atomic arrival ticket for
//! ANY_SOURCE arbitration, and the sans-IO protocol engine keeps them as
//! plain per-peer state with a `u64` ticket — the shape [`Owned`] below
//! reproduces with nothing else around it. Nothing about either's
//! *answers* may differ from the oracle, which shares no code with them:
//! this test replays recorded envelope streams — seeded random
//! interleavings of posts, eager/RTS arrivals, probes, membership purges
//! and epoch quiesces, with the mix skewed per seed toward overload
//! (arrival bursts) or faults (purge-heavy) — into all three and demands
//! identical results for every operation, plus identical queue lengths
//! after every step.
//!
//! A proptest then extends the CH3 "posted ∩ unexpected = ∅" invariant
//! (see `tests/properties.rs`) to the sharded layout: no interleaving may
//! leave a (gate, tag) claimable from both queues, and the engine must
//! agree with a shadow model on every probe.

use std::collections::{BTreeMap, HashMap};

use nmad::matching::{self, MatchEngine, TagQueue, Unexpected};
use nmad::sharded::ShardedMatchEngine;
use nmad::{GateId, RecvReqId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simnet::NmBuf;

/// The engine-owned shape: per gate, per tag, one [`TagQueue`], owned
/// outright; arrivals stored unexpected are stamped from a plain counter.
#[derive(Default)]
struct Owned {
    gates: BTreeMap<GateId, HashMap<u64, TagQueue>>,
    ticket: u64,
}

impl Owned {
    fn queue(&mut self, gate: GateId, tag: u64) -> &mut TagQueue {
        self.gates.entry(gate).or_default().entry(tag).or_default()
    }

    fn post_recv(&mut self, gate: GateId, tag: u64, req: RecvReqId) -> Option<Unexpected> {
        self.queue(gate, tag).post_recv(req)
    }

    fn arrived(&mut self, gate: GateId, tag: u64, msg: Unexpected) -> Option<RecvReqId> {
        let hit = self.queue(gate, tag).try_match_arrival(msg.seq());
        if hit.is_none() {
            self.ticket += 1;
            let ticket = self.ticket;
            self.queue(gate, tag).store_unexpected(ticket, msg);
        }
        hit
    }

    fn probe_info(&self, gate: GateId, tag: u64) -> Option<usize> {
        let (_, len) = self.gates.get(&gate)?.get(&tag)?.front()?;
        Some(len)
    }

    fn probe_tag_info(&self, tag: u64) -> Option<(GateId, usize)> {
        let heads = self.gates.iter().filter_map(|(&gate, queues)| {
            let (ticket, len) = queues.get(&tag)?.front()?;
            Some((ticket, gate, len))
        });
        heads.min().map(|(_, gate, len)| (gate, len))
    }

    fn purge_gate(&mut self, gate: GateId) -> (Vec<(RecvReqId, u64)>, usize) {
        let mut queues = self.gates.remove(&gate).unwrap_or_default();
        let (orphans, _, bytes) = matching::purge(queues.iter_mut().map(|(&tag, q)| (tag, q)));
        (orphans, bytes)
    }

    fn purge_keys(
        &mut self,
        pred: impl Fn(u64) -> bool,
    ) -> (Vec<(RecvReqId, GateId, u64)>, usize, usize) {
        let (mut orphans, mut dropped, mut dropped_bytes) = (Vec::new(), 0, 0);
        for (&gate, queues) in self.gates.iter_mut() {
            let doomed = queues.iter_mut().filter(|(&tag, _)| pred(tag));
            let (reqs, n, bytes) = matching::purge(doomed.map(|(&tag, q)| (tag, q)));
            orphans.extend(reqs.into_iter().map(|(req, tag)| (req, gate, tag)));
            dropped += n;
            dropped_bytes += bytes;
        }
        (orphans, dropped, dropped_bytes)
    }

    fn queues(&self) -> impl Iterator<Item = (GateId, &TagQueue)> {
        let gates = self.gates.iter();
        gates.flat_map(|(&gate, queues)| queues.values().map(move |q| (gate, q)))
    }

    fn posted_len(&self) -> usize {
        self.queues().map(|(_, q)| q.posted_len()).sum()
    }

    fn unexpected_len(&self) -> usize {
        self.queues().map(|(_, q)| q.unexpected_len()).sum()
    }

    fn posted_gates(&self) -> Vec<GateId> {
        let mut gates: Vec<GateId> = self
            .queues()
            .filter(|(_, q)| q.posted_len() > 0)
            .map(|(gate, _)| gate)
            .collect();
        gates.dedup();
        gates
    }
}

const GATES: usize = 4;
const TAGS: u64 = 4;

/// One recorded envelope-stream event.
#[derive(Clone, Debug)]
enum Op {
    Post {
        gate: usize,
        tag: u64,
    },
    Arrive {
        gate: usize,
        tag: u64,
        rdv: bool,
        len: usize,
    },
    Probe {
        gate: usize,
        tag: u64,
    },
    ProbeTag {
        tag: u64,
    },
    PurgeGate {
        gate: usize,
    },
    PurgeTagsBelow {
        below: u64,
    },
}

/// Observable fingerprint of an unexpected message (payload identity
/// included via its length; bytes are a pure function of it here).
fn fp(m: &Unexpected) -> (u8, u64, u64, usize) {
    match m {
        Unexpected::Eager { seq, data } => (1, *seq, 0, data.len()),
        Unexpected::Rts { seq, rdv_id, len } => (2, *seq, *rdv_id, *len),
    }
}

/// Generate a seeded stream. `seed % 4` picks the traffic profile:
/// balanced, overload (arrival-heavy, long unexpected queues), faulty
/// (purge-heavy, constant gate churn), or probe-heavy (ANY_SOURCE
/// arbitration under pressure).
fn stream(seed: u64, ops: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let weights: [u32; 6] = match seed % 4 {
        0 => [30, 30, 10, 10, 10, 10], // balanced
        1 => [15, 60, 5, 10, 5, 5],    // overload
        2 => [25, 25, 5, 5, 25, 15],   // faulty
        _ => [20, 25, 20, 30, 3, 2],   // probe-heavy
    };
    let total: u32 = weights.iter().sum();
    let mut out = Vec::with_capacity(ops);
    for _ in 0..ops {
        let mut pick = rng.gen_range(0..total);
        let mut kind = 0;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                kind = i;
                break;
            }
            pick -= w;
        }
        let gate = rng.gen_range(0..GATES);
        let tag = rng.gen_range(0..TAGS);
        out.push(match kind {
            0 => Op::Post { gate, tag },
            1 => Op::Arrive {
                gate,
                tag,
                rdv: rng.gen_bool(0.25),
                len: rng.gen_range(1..2048),
            },
            2 => Op::Probe { gate, tag },
            3 => Op::ProbeTag { tag },
            4 => Op::PurgeGate { gate },
            _ => Op::PurgeTagsBelow {
                below: rng.gen_range(1..=TAGS),
            },
        });
    }
    out
}

/// Replay one stream into the oracle and both owners, asserting identical
/// observables at every step.
fn replay_differential(seed: u64) {
    let ops = stream(seed, 400);
    let mut oracle = MatchEngine::new();
    let sharded = ShardedMatchEngine::new();
    let mut owned = Owned::default();
    // Arrival sequence numbers are per-(gate, tag) monotonic, as the wire
    // guarantees.
    let mut next_seq: HashMap<(usize, u64), u64> = HashMap::new();
    let mut next_req = 0u32;
    let mut next_rdv = 0u64;
    for (step, op) in ops.into_iter().enumerate() {
        // One observable, three answers: the oracle's is the reference.
        macro_rules! same {
            ($what:expr, $oracle:expr, $sharded:expr, $owned:expr) => {{
                let want = $oracle;
                assert_eq!(
                    want, $sharded,
                    "sharded {} diverged at step {step} (seed {seed})",
                    $what
                );
                assert_eq!(
                    want, $owned,
                    "owned {} diverged at step {step} (seed {seed})",
                    $what
                );
            }};
        }
        match op {
            Op::Post { gate, tag } => {
                let (gate, req) = (GateId(gate), RecvReqId(next_req));
                next_req += 1;
                same!(
                    "post_recv",
                    oracle.post_recv(gate, tag, req).as_ref().map(fp),
                    sharded.post_recv(gate, tag, req).as_ref().map(fp),
                    owned.post_recv(gate, tag, req).as_ref().map(fp)
                );
            }
            Op::Arrive {
                gate,
                tag,
                rdv,
                len,
            } => {
                let seq = next_seq.entry((gate, tag)).or_insert(0);
                let msg = if rdv {
                    next_rdv += 1;
                    Unexpected::Rts {
                        seq: *seq,
                        rdv_id: next_rdv,
                        len,
                    }
                } else {
                    Unexpected::Eager {
                        seq: *seq,
                        data: NmBuf::from(vec![(*seq as u8).wrapping_add(gate as u8); len]),
                    }
                };
                *seq += 1;
                let gate = GateId(gate);
                same!(
                    "arrived",
                    oracle.arrived(gate, tag, msg.clone()),
                    sharded.arrived(gate, tag, msg.clone()),
                    owned.arrived(gate, tag, msg)
                );
            }
            Op::Probe { gate, tag } => {
                let gate = GateId(gate);
                assert_eq!(oracle.probe(gate, tag), sharded.probe(gate, tag));
                same!(
                    "probe_info",
                    oracle.probe_info(gate, tag),
                    sharded.probe_info(gate, tag),
                    owned.probe_info(gate, tag)
                );
            }
            // ANY_SOURCE arbitration: the ticket minimum must name the
            // same gate as the oracle's global arrival order.
            Op::ProbeTag { tag } => same!(
                "ANY_SOURCE arbitration",
                oracle.probe_tag_info(tag),
                sharded.probe_tag_info(tag),
                owned.probe_tag_info(tag)
            ),
            Op::PurgeGate { gate } => same!(
                "purge_gate",
                oracle.purge_gate(GateId(gate)),
                sharded.purge_gate(GateId(gate)),
                owned.purge_gate(GateId(gate))
            ),
            Op::PurgeTagsBelow { below } => same!(
                "purge_keys",
                oracle.purge_keys(|t| t < below),
                sharded.purge_keys(|t| t < below),
                owned.purge_keys(|t| t < below)
            ),
        }
        same!(
            "posted_len",
            oracle.posted_len(),
            sharded.posted_len(),
            owned.posted_len()
        );
        same!(
            "unexpected_len",
            oracle.unexpected_len(),
            sharded.unexpected_len(),
            owned.unexpected_len()
        );
        same!(
            "posted_gates",
            oracle.posted_gates(),
            sharded.posted_gates(),
            owned.posted_gates()
        );
    }
}

#[test]
fn sharded_matcher_equals_single_queue_oracle_across_seed_sweep() {
    // 32 recorded streams × 400 events, covering all four traffic
    // profiles (balanced / overload / faulty / probe-heavy) eight times
    // each with different interleavings.
    for seed in 0..32 {
        replay_differential(seed);
    }
}

// ---------------------------------------------------------------------
// posted ∩ unexpected = ∅, sharded layout
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum POp {
    Post { gate: usize, tag: u64 },
    Arrive { gate: usize, tag: u64, len: usize },
    PurgeGate { gate: usize },
    PurgeTag { tag: u64 },
}

fn pop_strategy() -> impl Strategy<Value = POp> {
    prop_oneof![
        (0usize..GATES, 0u64..TAGS).prop_map(|(gate, tag)| POp::Post { gate, tag }),
        (0usize..GATES, 0u64..TAGS, 1usize..512).prop_map(|(gate, tag, len)| POp::Arrive {
            gate,
            tag,
            len
        }),
        (0usize..GATES).prop_map(|gate| POp::PurgeGate { gate }),
        (0u64..TAGS).prop_map(|tag| POp::PurgeTag { tag }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128, // pure queue ops, cheap to run wide
        .. ProptestConfig::default()
    })]

    /// For ANY interleaving of posts, arrivals and purges, no (gate, tag)
    /// is ever claimable from both the posted and the unexpected side of
    /// the sharded layout, and the engine agrees with a shadow model on
    /// every probe and length.
    #[test]
    fn sharded_posted_and_unexpected_stay_disjoint(
        ops in proptest::collection::vec(pop_strategy(), 1..80)
    ) {
        let m = ShardedMatchEngine::new();
        // Shadow model: per-(gate, tag) posted count and unexpected FIFO.
        let mut posted: HashMap<(usize, u64), usize> = HashMap::new();
        let mut unex: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
        let mut next_seq: HashMap<(usize, u64), u64> = HashMap::new();
        let mut next_req = 0u32;
        for op in ops {
            match op {
                POp::Post { gate, tag } => {
                    let req = RecvReqId(next_req);
                    next_req += 1;
                    let got = m.post_recv(GateId(gate), tag, req);
                    let q = unex.entry((gate, tag)).or_default();
                    if q.is_empty() {
                        prop_assert!(got.is_none(), "engine invented an unexpected hit");
                        *posted.entry((gate, tag)).or_insert(0) += 1;
                    } else {
                        let len = q.remove(0);
                        match got {
                            Some(Unexpected::Eager { data, .. }) =>
                                prop_assert_eq!(data.len(), len, "consumed out of FIFO order"),
                            _ => prop_assert!(false, "engine missed a waiting unexpected"),
                        }
                    }
                }
                POp::Arrive { gate, tag, len } => {
                    let seq = next_seq.entry((gate, tag)).or_insert(0);
                    let msg = Unexpected::Eager {
                        seq: *seq,
                        data: NmBuf::from(vec![0u8; len]),
                    };
                    *seq += 1;
                    let matched = m.arrived(GateId(gate), tag, msg);
                    let count = posted.entry((gate, tag)).or_insert(0);
                    if *count > 0 {
                        prop_assert!(matched.is_some(), "engine missed a posted receive");
                        *count -= 1;
                    } else {
                        prop_assert!(matched.is_none(), "engine matched a phantom receive");
                        unex.entry((gate, tag)).or_default().push(len);
                    }
                }
                POp::PurgeGate { gate } => {
                    let (orphans, _) = m.purge_gate(GateId(gate));
                    let model_orphans: usize = posted
                        .iter()
                        .filter(|(&(g, _), &c)| g == gate && c > 0)
                        .map(|(_, &c)| c)
                        .sum();
                    prop_assert_eq!(orphans.len(), model_orphans);
                    posted.retain(|&(g, _), _| g != gate);
                    unex.retain(|&(g, _), _| g != gate);
                }
                POp::PurgeTag { tag } => {
                    let (orphans, dropped, _) = m.purge_keys(|t| t == tag);
                    let model_orphans: usize = posted
                        .iter()
                        .filter(|(&(_, t), &c)| t == tag && c > 0)
                        .map(|(_, &c)| c)
                        .sum();
                    let model_dropped: usize = unex
                        .iter()
                        .filter(|(&(_, t), _)| t == tag)
                        .map(|(_, q)| q.len())
                        .sum();
                    prop_assert_eq!(orphans.len(), model_orphans);
                    prop_assert_eq!(dropped, model_dropped);
                    posted.retain(|&(_, t), _| t != tag);
                    unex.retain(|&(_, t), _| t != tag);
                }
            }
            // THE invariant, on the sharded layout: a (gate, tag) with a
            // posted receive has nothing claimable unexpected, and vice
            // versa.
            for (&(g, t), q) in &unex {
                prop_assert!(
                    q.is_empty() || posted.get(&(g, t)).copied().unwrap_or(0) == 0,
                    "(gate {g}, tag {t}) claimable from both queues"
                );
            }
            // Engine observables agree with the model.
            let model_posted: usize = posted.values().sum();
            let model_unex: usize = unex.values().map(|q| q.len()).sum();
            prop_assert_eq!(m.posted_len(), model_posted);
            prop_assert_eq!(m.unexpected_len(), model_unex);
            for g in 0..GATES {
                for t in 0..TAGS {
                    let waiting = unex.get(&(g, t)).is_some_and(|q| !q.is_empty());
                    prop_assert_eq!(m.probe(GateId(g), t), waiting);
                    let front = unex.get(&(g, t)).and_then(|q| q.first().copied());
                    prop_assert_eq!(m.probe_info(GateId(g), t), front);
                }
            }
        }
    }
}
