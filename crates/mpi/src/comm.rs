//! Communicator recovery: revoke, fault-tolerant agreement, shrink and
//! join-merge (DESIGN.md §13).
//!
//! A [`Comm`] is an epoch-stamped member list. The world starts as epoch 0
//! over all ranks; after a failure the application runs the ULFM-flavoured
//! recovery sequence:
//!
//! 1. [`comm_revoke`] — poison the epoch. The core stamps the epoch
//!    revoked, quiesces every in-flight operation keyed to it (counted
//!    `Err(Revoked)` completions, never silent drops), and the progress
//!    engine gossips a `Revoke` frame to every live peer. Learning is
//!    sticky, so the flood terminates and late frames of the dead epoch
//!    are counted stale and dropped.
//! 2. [`comm_agree`] / [`comm_shrink`] — fault-tolerant agreement over the
//!    members' liveness bitmaps (dissemination passes, tolerant of deaths
//!    *during* the protocol), then a new communicator epoch over the
//!    agreed survivors with dense re-ranking and a sealing barrier.
//! 3. [`comm_accept`] + [`comm_join`] — admit a late joiner into the next
//!    epoch: the leader hands it the roster and the collective sequence
//!    counter, everyone advances, and a sealing barrier over the merged
//!    group proves the joiner participates.
//!
//! ## The agreement protocol
//!
//! Each member keeps a death bitmap over the member positions, pre-seeded
//! from the membership supervisor's verdicts. The protocol runs passes of
//! ⌈log₂ n⌉ dissemination rounds (round j: position p sends to p+2ʲ,
//! receives from p−2ʲ, over the FULL static member list — exchanges aimed
//! at a corpse fail fast and feed the bitmap). The payload is
//! `[k_run: u32 LE][bitmap]`; `k_run` carries the *minimum* consecutive-
//! clean-pass count seen anywhere, the bitmap is OR-merged. A pass that
//! ends with the bitmap unchanged bumps the local count to `k_run + 1`;
//! any change resets it to 0. A member reaching k ≥ 2 — two globally
//! clean passes, so every live member has disseminated the same bitmap —
//! **decides**, broadcasts a `DECIDED` frame (reserved round 0xFFF), waits
//! for those envelopes to be acknowledged, and only then retires the
//! instance (retiring first would purge the unacknowledged DECIDED
//! retransmission state and strand laggards under loss). A member that
//! sees a `DECIDED` while still mid-pass adopts the decided bitmap,
//! echoes it to the other members (reliable broadcast: the verdict
//! survives the decider dying mid-announcement), and retires its own
//! instance — which fails its still-posted pass receive with a counted
//! revoked completion. Echoes landing on already-retired instances are
//! counted stale and dropped; their envelope acks still flow, so every
//! relay send terminates.
//!
//! Agreement keys (`OP_AGREE`) are epoch-exempt: the whole point is to run
//! *inside* a revoked epoch. Retired-instance filtering still applies, so
//! a finished agreement's stragglers can never revive per-peer state.

use std::sync::Arc;

use bytes::Bytes;
use simnet::{NmBuf, PollOutcome};

use nmad::keys::{coll_key, instance_of, OP_AGREE, OP_BCAST, OP_JOIN, OP_REDUCE, ROUND_DECIDED};

use crate::api::{MpiHandle, Src};
use crate::backoff;
use crate::collectives::{allreduce_group_recdbl, barrier_group_ep, bcast_group, next_seq};
use crate::progress::NetPath;
use crate::request::Req;
use crate::vc::VcPath;

/// An epoch-stamped communicator: a sorted world-rank member list with a
/// dense re-ranking (`my_pos`).
#[derive(Clone, Debug)]
pub struct Comm {
    epoch: u8,
    members: Vec<usize>,
    my_pos: usize,
}

impl Comm {
    /// The initial world communicator: epoch 0 (or the committed epoch on
    /// a rank that already advanced), all ranks.
    pub fn world(mpi: &MpiHandle) -> Comm {
        let members: Vec<usize> = (0..mpi.size()).collect();
        Comm {
            epoch: crate::collectives::world_epoch(mpi),
            members,
            my_pos: mpi.rank(),
        }
    }

    /// Build a communicator from an explicit sorted member list.
    pub fn from_members(mpi: &MpiHandle, epoch: u8, members: Vec<usize>) -> Comm {
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be sorted"
        );
        let my_pos = members
            .iter()
            .position(|&r| r == mpi.rank())
            .expect("caller must be a member");
        Comm {
            epoch,
            members,
            my_pos,
        }
    }

    pub fn epoch(&self) -> u8 {
        self.epoch
    }

    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// This rank's dense position within the communicator.
    pub fn rank(&self) -> usize {
        self.my_pos
    }

    pub fn size(&self) -> usize {
        self.members.len()
    }
}

// ---------------------------------------------------------------------
// Revoke
// ---------------------------------------------------------------------

/// Revoke the communicator's epoch: every in-flight operation keyed to it
/// completes with a counted error, and a poison frame is gossiped to every
/// live peer (sticky — re-revoking is a no-op). Returns whether this call
/// was the first local revocation of the epoch.
pub fn comm_revoke(mpi: &MpiHandle, comm: &Comm) -> bool {
    let sched = mpi.ctx.scheduler();
    let fresh = match &mpi.state.net {
        NetPath::Direct(core) => core.revoke_epoch(&sched, comm.epoch as u32),
        _ => false,
    };
    // Flush the gossip now instead of at the next wait: the poison should
    // race ahead of any further traffic the application produces.
    mpi.state.progress_cycle(&sched);
    fresh
}

// ---------------------------------------------------------------------
// Fault-tolerant agreement
// ---------------------------------------------------------------------

/// What a pass-round receive resolved to.
enum PassRecv {
    /// The partner's `[k_run][bitmap]` payload.
    Data(Bytes),
    /// The partner is dead / the op was revoked (the receive was posted
    /// from a specific rank, so the corpse is the round's `from`).
    Failed,
    /// A DECIDED frame is waiting from this gate; the receive stays posted
    /// (retiring the instance will fail it).
    Decided(usize),
}

/// Block until `req` completes or a DECIDED frame for this agreement
/// instance shows up in the unexpected queues, whichever happens first.
fn wait_recv_or_decided(mpi: &MpiHandle, req: Req, decided_key: u64) -> PassRecv {
    let state = Arc::clone(&mpi.state);
    let schedule = backoff::standard(state.costs.poll_gran);
    mpi.state.poll(&mpi.ctx, schedule, move |s, _| {
        let worked = state.progress_cycle(s);
        let ready =
            state.with_state(|st| st.reqs.is_done(req)) || state.iprobe_key(decided_key).is_some();
        PollOutcome::of(ready, worked)
    });
    if mpi.state.with_state(|st| st.reqs.is_done(req)) {
        let (d, _) = mpi.state.wait(&mpi.ctx, req);
        return match mpi.state.failed_peer(req) {
            Some(_) => PassRecv::Failed,
            None => PassRecv::Data(d.expect("agreement payload")),
        };
    }
    let gate = mpi
        .state
        .iprobe_key(decided_key)
        .expect("the poll ends on a done receive or a DECIDED frame");
    PassRecv::Decided(gate)
}

fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

fn bytes_to_bits(bytes: &[u8], n: usize) -> Vec<bool> {
    (0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect()
}

fn retire(mpi: &MpiHandle, instance: u64) {
    if let NetPath::Direct(core) = &mpi.state.net {
        core.retire_instance(&mpi.ctx.scheduler(), instance);
    }
}

/// Adopt a DECIDED bitmap arriving from `gate`, echo it to the other live
/// members, retire the instance, and consume the pass receive the
/// retirement failed.
fn adopt_decided(
    mpi: &MpiHandle,
    gate: usize,
    decided_key: u64,
    group: &[usize],
    my_pos: usize,
    instance: u64,
    pending: (Req, usize),
) -> Vec<bool> {
    let r = mpi.state.irecv_key(&mpi.ctx, Src::Rank(gate), decided_key);
    let (d, _) = mpi.state.wait(&mpi.ctx, r);
    let bits = bytes_to_bits(&d.expect("DECIDED payload"), group.len());
    // Reliable-broadcast echo: if the decider died mid-announcement, the
    // verdict still reaches everyone through the members it did reach.
    let payload = Bytes::from(bits_to_bytes(&bits));
    let mut sends = Vec::new();
    for (i, &m) in group.iter().enumerate() {
        if i == my_pos || bits[i] || m == gate {
            continue;
        }
        sends.push(
            mpi.state
                .isend_key(&mpi.ctx, m, decided_key, NmBuf::from(payload.clone())),
        );
    }
    for s in sends {
        mpi.state.wait(&mpi.ctx, s);
    }
    retire(mpi, instance);
    // The retirement failed our still-posted pass receive (counted revoked
    // completion) — consume it so the request does not dangle. Only the
    // bypass core retires posted receives; an intra-node receive is left
    // to complete on its own.
    let (req, from) = pending;
    if matches!(mpi.state.vcs.path(from), VcPath::NmadDirect) {
        mpi.state.wait(&mpi.ctx, req);
    }
    bits
}

/// Run fault-tolerant agreement over `group` (world ranks, identical on
/// every caller) and return the agreed-dead member set (world ranks,
/// ascending). All surviving callers return the *same* set, even when
/// members die mid-protocol. `seed_dead` adds locally known corpses to the
/// initial bitmap (e.g. a poison word observed by `try_barrier`).
pub(crate) fn agree_group(
    mpi: &MpiHandle,
    ep: u8,
    seq: u32,
    group: &[usize],
    my_pos: usize,
    seed_dead: &[usize],
) -> Vec<usize> {
    let n = group.len();
    debug_assert_eq!(group[my_pos], mpi.rank());
    let peer_dead = |r: usize| match &mpi.state.net {
        NetPath::Direct(core) => core.is_peer_dead(r),
        _ => false,
    };
    let vc_retired = |r: usize| mpi.state.with_state(|st| st.retired.is_retired(r));
    let mut bits = vec![false; n];
    for (i, &r) in group.iter().enumerate() {
        if i != my_pos && (seed_dead.contains(&r) || peer_dead(r) || vc_retired(r)) {
            bits[i] = true;
        }
    }
    if n <= 1 {
        return Vec::new();
    }
    let decided_key = coll_key(ep, OP_AGREE, ROUND_DECIDED, seq);
    let instance = instance_of(decided_key);
    let mut k: u32 = 0;
    let mut pass: u16 = 0;
    let decided_bits: Vec<bool> = 'outer: loop {
        assert!(pass < 128, "agreement exceeded its pass budget");
        let snapshot = bits.clone();
        let mut k_run = k;
        let mut dist = 1usize;
        let mut j = 0u16;
        while dist < n {
            let to_pos = (my_pos + dist) % n;
            let from_pos = (my_pos + n - dist) % n;
            let (to, from) = (group[to_pos], group[from_pos]);
            let key = coll_key(ep, OP_AGREE, (pass << 5) | j, seq);
            let mut payload = Vec::with_capacity(4 + n.div_ceil(8));
            payload.extend_from_slice(&k_run.to_le_bytes());
            payload.extend_from_slice(&bits_to_bytes(&bits));
            let r = mpi.state.irecv_key(&mpi.ctx, Src::Rank(from), key);
            let s = mpi
                .state
                .isend_key(&mpi.ctx, to, key, NmBuf::from(Bytes::from(payload)));
            mpi.state.wait(&mpi.ctx, s);
            if mpi.state.failed_peer(s).is_some() {
                bits[to_pos] = true;
            }
            match wait_recv_or_decided(mpi, r, decided_key) {
                PassRecv::Data(d) => {
                    let their_k = u32::from_le_bytes(d[..4].try_into().unwrap());
                    k_run = k_run.min(their_k);
                    for (i, b) in bytes_to_bits(&d[4..], n).into_iter().enumerate() {
                        bits[i] |= b;
                    }
                }
                PassRecv::Failed => {
                    bits[from_pos] = true;
                }
                PassRecv::Decided(gate) => {
                    break 'outer adopt_decided(
                        mpi,
                        gate,
                        decided_key,
                        group,
                        my_pos,
                        instance,
                        (r, from),
                    );
                }
            }
            dist <<= 1;
            j += 1;
        }
        k = if bits == snapshot { k_run + 1 } else { 0 };
        if k >= 2 {
            // Decide. Broadcast DECIDED, then WAIT for every envelope ack
            // BEFORE retiring: retiring first would purge the unacked
            // DECIDED retransmission state (same instance) and a lost
            // frame could never be repaired.
            let payload = Bytes::from(bits_to_bytes(&bits));
            let mut sends = Vec::new();
            for (i, &m) in group.iter().enumerate() {
                if i == my_pos || bits[i] {
                    continue;
                }
                sends.push(mpi.state.isend_key(
                    &mpi.ctx,
                    m,
                    decided_key,
                    NmBuf::from(payload.clone()),
                ));
            }
            for s in sends {
                mpi.state.wait(&mpi.ctx, s);
            }
            retire(mpi, instance);
            break 'outer bits;
        }
        pass += 1;
    };
    group
        .iter()
        .enumerate()
        .filter(|&(i, _)| decided_bits[i])
        .map(|(_, &r)| r)
        .collect()
}

/// Fault-tolerant agreement over the communicator's members: returns the
/// agreed-dead set (world ranks, ascending), identical on every surviving
/// member.
pub fn comm_agree(mpi: &MpiHandle, comm: &Comm) -> Vec<usize> {
    let seq = next_seq(mpi);
    agree_group(mpi, comm.epoch, seq, &comm.members, comm.my_pos, &[])
}

// ---------------------------------------------------------------------
// Shrink and join
// ---------------------------------------------------------------------

/// Shrink: agree on the survivor set, advance to a fresh epoch, densely
/// re-rank, and seal the new communicator with its first barrier. Every
/// surviving member returns an identical communicator.
pub fn comm_shrink(mpi: &MpiHandle, comm: &Comm) -> Comm {
    let seq = next_seq(mpi);
    let dead = agree_group(mpi, comm.epoch, seq, &comm.members, comm.my_pos, &[]);
    let members: Vec<usize> = comm
        .members
        .iter()
        .copied()
        .filter(|r| !dead.contains(r))
        .collect();
    let new_epoch = comm.epoch.checked_add(1).expect("epoch space exhausted");
    if let NetPath::Direct(core) = &mpi.state.net {
        let sched = mpi.ctx.scheduler();
        // The agreement's verdict is authoritative: members that never
        // charged a timeout at the corpse themselves adopt it now, so the
        // drain reclaims their per-peer state too (sticky — a repeat on a
        // locally-detected corpse is a no-op).
        for &d in &dead {
            core.declare_peer_dead(&sched, d);
        }
        core.advance_epoch(&sched, new_epoch);
    }
    let my_pos = members
        .iter()
        .position(|&r| r == mpi.rank())
        .expect("a shrinking caller must be a survivor");
    let next = Comm {
        epoch: new_epoch,
        members,
        my_pos,
    };
    // Seal: the first collective of the new epoch. Frames of the old epoch
    // arriving after this point are counted stale and dropped.
    let seal = next_seq(mpi);
    barrier_group_ep(mpi, next.epoch, seal, 0, &next.members, next.my_pos);
    next
}

/// Admit `joiner` into the next epoch (run by every *current* member with
/// identical arguments; the joiner runs [`comm_join`]). The leader
/// (position 0) hands the joiner the roster, the new epoch, and the
/// collective sequence counter; everyone advances and seals the merged
/// communicator with a barrier the joiner participates in.
pub fn comm_accept(mpi: &MpiHandle, comm: &Comm, joiner: usize, join_seq: u32) -> Comm {
    debug_assert!(!comm.members.contains(&joiner), "joiner already a member");
    // Pre-join sync: nobody may touch the joiner before everyone is here.
    let pre = next_seq(mpi);
    barrier_group_ep(mpi, comm.epoch, pre, 0, &comm.members, comm.my_pos);
    let new_epoch = comm.epoch.checked_add(1).expect("epoch space exhausted");
    if comm.my_pos == 0 {
        // Roster payload: [new_epoch u8][coll_seq u32][n u32][member u32 …].
        // The counter synchronizes the joiner's collective sequence space
        // with the members' (they advance in lockstep from here on).
        let seqv = mpi.state.with_state(|st| st.coll_seq);
        let mut payload = vec![new_epoch];
        payload.extend_from_slice(&seqv.to_le_bytes());
        payload.extend_from_slice(&(comm.members.len() as u32).to_le_bytes());
        for &m in &comm.members {
            payload.extend_from_slice(&(m as u32).to_le_bytes());
        }
        let k0 = coll_key(0, OP_JOIN, 0, join_seq);
        let k1 = coll_key(0, OP_JOIN, 1, join_seq);
        let s = mpi
            .state
            .isend_key(&mpi.ctx, joiner, k0, NmBuf::from(Bytes::from(payload)));
        let r = mpi.state.irecv_key(&mpi.ctx, Src::Rank(joiner), k1);
        mpi.state.wait(&mpi.ctx, s);
        mpi.state.wait(&mpi.ctx, r);
    }
    if let NetPath::Direct(core) = &mpi.state.net {
        core.advance_epoch(&mpi.ctx.scheduler(), new_epoch);
    }
    let mut members = comm.members.clone();
    members.push(joiner);
    members.sort_unstable();
    let my_pos = members
        .iter()
        .position(|&r| r == mpi.rank())
        .expect("accepting member vanished from the merge");
    let next = Comm {
        epoch: new_epoch,
        members,
        my_pos,
    };
    let seal = next_seq(mpi);
    barrier_group_ep(mpi, next.epoch, seal, 0, &next.members, next.my_pos);
    next
}

/// Join an existing communicator as a late arrival: receive the roster
/// from `leader`, acknowledge, adopt the members' collective sequence
/// counter and epoch, and participate in the sealing barrier.
pub fn comm_join(mpi: &MpiHandle, leader: usize, join_seq: u32) -> Comm {
    let k0 = coll_key(0, OP_JOIN, 0, join_seq);
    let k1 = coll_key(0, OP_JOIN, 1, join_seq);
    let r = mpi.state.irecv_key(&mpi.ctx, Src::Rank(leader), k0);
    let (d, _) = mpi.state.wait(&mpi.ctx, r);
    let d = d.expect("join roster");
    let new_epoch = d[0];
    let seqv = u32::from_le_bytes(d[1..5].try_into().unwrap());
    let n = u32::from_le_bytes(d[5..9].try_into().unwrap()) as usize;
    let mut members: Vec<usize> = (0..n)
        .map(|i| u32::from_le_bytes(d[9 + 4 * i..13 + 4 * i].try_into().unwrap()) as usize)
        .collect();
    mpi.state.with_state(|st| st.coll_seq = seqv);
    let s = mpi.state.isend_key(&mpi.ctx, leader, k1, NmBuf::default());
    mpi.state.wait(&mpi.ctx, s);
    if let NetPath::Direct(core) = &mpi.state.net {
        core.advance_epoch(&mpi.ctx.scheduler(), new_epoch);
    }
    members.push(mpi.rank());
    members.sort_unstable();
    let my_pos = members
        .iter()
        .position(|&r| r == mpi.rank())
        .expect("joiner vanished from its own merge");
    let next = Comm {
        epoch: new_epoch,
        members,
        my_pos,
    };
    let seal = next_seq(mpi);
    barrier_group_ep(mpi, next.epoch, seal, 0, &next.members, next.my_pos);
    next
}

// ---------------------------------------------------------------------
// Communicator-scoped collectives
// ---------------------------------------------------------------------

/// Dissemination barrier over the communicator (keys carry its epoch).
pub fn comm_barrier(mpi: &MpiHandle, comm: &Comm) {
    let seq = next_seq(mpi);
    barrier_group_ep(mpi, comm.epoch, seq, 0, &comm.members, comm.my_pos);
}

/// Sum-allreduce over the communicator (recursive doubling).
pub fn comm_allreduce_sum(mpi: &MpiHandle, comm: &Comm, contrib: &[f64]) -> Vec<f64> {
    let seq = next_seq(mpi);
    let mut acc = contrib.to_vec();
    allreduce_group_recdbl(
        mpi,
        comm.epoch,
        OP_REDUCE,
        seq,
        2,
        &comm.members,
        comm.my_pos,
        &mut acc,
    );
    acc
}

/// Binomial broadcast over the communicator from dense position
/// `root_pos`.
pub fn comm_bcast(mpi: &MpiHandle, comm: &Comm, root_pos: usize, data: Option<Bytes>) -> Bytes {
    let seq = next_seq(mpi);
    let key = coll_key(comm.epoch, OP_BCAST, 0, seq);
    let mut payload = if comm.my_pos == root_pos {
        NmBuf::from(data.expect("bcast root must supply data"))
    } else {
        NmBuf::default()
    };
    bcast_group(mpi, key, &comm.members, root_pos, comm.my_pos, &mut payload);
    payload.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_codec_roundtrip() {
        for n in [1usize, 7, 8, 9, 64, 65] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            assert_eq!(bytes_to_bits(&bits_to_bytes(&bits), n), bits);
        }
    }

    #[test]
    fn decided_key_shares_the_pass_instance() {
        let pass_key = coll_key(2, OP_AGREE, (3 << 5) | 1, 42);
        let decided = coll_key(2, OP_AGREE, ROUND_DECIDED, 42);
        assert_eq!(instance_of(pass_key), instance_of(decided));
    }
}
