//! What dies together: the drain of a dead peer's gate, and the quiesce
//! of a revoked or superseded communicator epoch.

use simnet::SimTime;

use super::{pctx, Engine, Outcome};
use crate::keys;
use crate::membership::PeerLiveness;
use crate::pack::PwBody;
use crate::protocol::{self, Action, Verdict};
use crate::sr::{RecvReqId, SendReqId};
use crate::wire::WirePayload;

impl Engine {
    /// Declare `peer` dead out-of-band (an upper layer learned of the
    /// death through a side channel — a resource manager, a test harness)
    /// and run the drain immediately. Returns `false` when membership is
    /// off or the peer was already dead.
    pub fn declare_peer_dead(&mut self, now: SimTime, peer: usize) -> bool {
        let fresh = self
            .membership
            .as_mut()
            .is_some_and(|m| m.declare_dead(peer, now));
        if fresh {
            self.emit_member_events(now);
            self.drain_peer(now, peer);
            self.hook_if_completed();
        }
        fresh
    }

    /// Revoke a communicator epoch locally. Sticky and idempotent like a
    /// death verdict: the first call quiesces every pending operation of
    /// the epoch; a repeat call returns `false` and changes nothing.
    pub fn revoke_epoch(&mut self, now: SimTime, epoch: u32) -> bool {
        let fresh = self.learn_revoke(now, epoch);
        if fresh {
            self.hook_if_completed();
        }
        fresh
    }

    /// One revoke poison frame for `epoch` toward `dst`, on the healthiest
    /// rail (express lane — the poison must not queue behind the very
    /// bulk traffic it is cancelling).
    pub fn send_revoke(&mut self, dst: usize, epoch: u32) {
        self.out.ctrl(dst, WirePayload::Revoke { epoch }, None);
        self.end_stage();
    }

    /// Commit a new communicator epoch: frames of every earlier epoch
    /// (agreement and join keys excepted) are stale from here on, and any
    /// still-pending operation of a superseded epoch is quiesced now.
    /// Epochs only move forward — a stale commit is a no-op.
    pub fn advance_epoch(&mut self, now: SimTime, new_epoch: u8) {
        if new_epoch <= self.committed_epoch {
            return;
        }
        self.committed_epoch = new_epoch;
        let epoch = new_epoch as u32;
        self.out
            .engine(now.0, obs::EngineEvent::EpochCommit { epoch });
        self.quiesce_keys(now, |tag| {
            keys::is_coll(tag) && !keys::epoch_exempt(tag) && keys::epoch_of(tag) < new_epoch
        });
        self.hook_if_completed();
    }

    /// Retire one agreement instance (see [`keys::instance_of`]): its
    /// buffered and late frames are counted stale and dropped, and its
    /// abandoned posted receives complete with a revoked-epoch error.
    pub fn retire_instance(&mut self, now: SimTime, instance: u64) {
        if !self.retired.insert(instance) {
            return;
        }
        self.quiesce_keys(now, |tag| keys::instance_of(tag) == instance);
        self.hook_if_completed();
    }

    /// Turn membership transition edges into obs spans. (The transition
    /// total is a gauge recomputed in `stats()` from the table itself.)
    pub(super) fn emit_member_events(&mut self, now: SimTime) {
        let Some(m) = self.membership.as_mut() else {
            return;
        };
        for (peer, state) in m.take_transition_events() {
            let state = match state {
                PeerLiveness::Up => 0,
                PeerLiveness::Suspect => 1,
                PeerLiveness::Dead => 2,
            };
            let peer = peer as u32;
            self.out
                .engine(now.0, obs::EngineEvent::MemberState { peer, state });
        }
    }

    /// What the protocol table prescribes for a rendezvous record in
    /// `state` whose peer just died (membership implies retry).
    fn peer_dead_actions(&mut self, state: protocol::State) -> &'static [Action] {
        let ctx = pctx(true, false, false, false);
        match protocol::step(state, protocol::Event::PeerDead, ctx) {
            Verdict::Step { actions, .. } => actions,
            Verdict::Ignore { .. } => &[],
            Verdict::Error => {
                self.protocol_error();
                &[]
            }
        }
    }

    /// The drain protocol: `peer` was declared `Dead`. Its gate leaves the
    /// container — so `peer_entry_count(peer)` is 0 by construction — and
    /// one walk of that record cancels every in-flight rendezvous through
    /// the protocol table's `Event::PeerDead` rows (table entries, not
    /// ad-hoc surgery), fails its queued sends and posted receives, and
    /// releases its eager credits. Not one surviving-pair byte is
    /// disturbed.
    pub(super) fn drain_peer(&mut self, now: SimTime, peer: usize) {
        let t_ns = now.0;
        self.stats.membership_dead_peers += 1;
        self.dead_events.push_back(peer);
        let gate = self.peers.remove(&peer);
        let entries = gate.as_ref().map_or(0, |g| g.records()) as u64;
        let mut gate = *gate.unwrap_or_default();
        self.queued -= usize::from(!gate.window.is_empty());
        // Emptied while the record is still whole (the walk below moves its
        // fields out one by one); the receives fail in their turn.
        let (orphans, _, dropped_bytes) = gate.purge_flows(|_| true);
        // Outbound rendezvous toward the peer, in ascending id:
        // `dead/swaitcts`, `dead/sstreaming`, `dead/swaitfin` — DisarmTimer
        // (the deadline dies with the record) + AbortSend.
        for rdv in gate.rdv_out.into_values() {
            if self
                .peer_dead_actions(rdv.state)
                .contains(&Action::AbortSend)
            {
                self.finish_send(t_ns, rdv.send_req, Outcome::PeerDead);
            }
        }
        // Inbound rendezvous from the peer: `dead/rwaitdata` — AbortRecv.
        for rdv in gate.rdv_in.into_values() {
            let actions = self.peer_dead_actions(protocol::State::RWaitData);
            if actions.contains(&Action::AbortRecv) {
                self.finish_recv(t_ns, rdv.recv_req, Outcome::PeerDead);
            }
        }
        // Finished-rendezvous tombstones: `dead/rdone` drops them with no
        // further action (nobody is left to replay the FIN for).
        for _ in &gate.rdv_done {
            let actions = self.peer_dead_actions(protocol::State::RDone);
            debug_assert!(actions.is_empty(), "tombstone drain emits no action");
        }
        // Queued-but-uncommitted wrappers toward the peer. Eager bodies
        // still own live send requests (rendezvous ones were aborted
        // above); fail them — their payload will never leave this node.
        // Unacked envelopes just go: their sends completed locally long
        // ago, and nothing retransmits into the void any more.
        for pw in gate.window {
            if let PwBody::Eager { send_req, .. } = pw.body {
                if !self.send_reqs[send_req.0 as usize].done {
                    self.finish_send(t_ns, send_req, Outcome::PeerDead);
                }
            }
        }
        // Posted receives against the peer fail cleanly, in tag order; its
        // buffered unexpected messages are dropped (no credit is owed to a
        // corpse).
        self.unex_eager_bytes -= dropped_bytes;
        for req in orphans {
            self.finish_recv(t_ns, req, Outcome::PeerDead);
        }
        // Release the peer's eager credits: in-flight ones it will never
        // ack, owed/withheld ones it will never collect.
        let pool = self.cfg.flow.zip(gate.send_credits);
        let in_flight = pool.map_or(0, |(fc, left)| fc.eager_credits - left);
        let released = in_flight + gate.credit_owed + gate.credit_withheld;
        self.stats.membership_credits_released += released as u64;
        // Inbound frames from the peer that arrived before the verdict
        // are dead letters.
        let before = self.inbound.len();
        self.inbound.retain(|w| w.src_rank() != peer);
        let strays = (before - self.inbound.len()) as u64;
        self.stats.membership_stray_frames += strays;
        self.stats.membership_drained_entries += entries;
        self.out.engine(
            t_ns,
            obs::EngineEvent::MemberDrain {
                peer: peer as u32,
                entries: entries as u32,
            },
        );
    }

    /// A stale collective frame (revoked/superseded epoch or retired
    /// agreement instance) was dropped: bump the hygiene counter.
    pub(super) fn count_stale_epoch(&mut self, n: u64) {
        self.stats.membership_stale_epoch += n;
    }

    /// Is `tag` a collective key whose frames must be dropped — revoked or
    /// superseded epoch, or a retired agreement instance? Agreement and
    /// join keys are epoch-exempt (they run inside poisoned epochs by
    /// design) but still honour instance retirement.
    pub(super) fn tag_is_stale(&self, tag: u64) -> bool {
        if !keys::is_coll(tag) {
            return false;
        }
        if self.retired.contains(&keys::instance_of(tag)) {
            return true;
        }
        if keys::epoch_exempt(tag) {
            return false;
        }
        let epoch = keys::epoch_of(tag);
        epoch < self.committed_epoch || self.revoked_epochs.contains(&(epoch as u32))
    }

    /// A revoke verdict for `epoch` reached this rank — locally initiated
    /// or learned from a peer's poison frame. Sticky: only the first
    /// sighting quiesces the epoch and is queued for the upper layer;
    /// a replayed poison frame is a counted no-op.
    pub(super) fn learn_revoke(&mut self, now: SimTime, epoch: u32) -> bool {
        if !self.revoked_epochs.insert(epoch) {
            self.count_stale_epoch(1);
            return false;
        }
        self.stats.revoked_epochs += 1;
        self.revoked_events.push_back(epoch);
        self.out.engine(now.0, obs::EngineEvent::Revoke { epoch });
        self.quiesce_keys(now, |tag| {
            keys::is_coll(tag) && !keys::epoch_exempt(tag) && keys::epoch_of(tag) as u32 == epoch
        });
        true
    }

    /// The epoch quiesce: fail every pending operation whose tag satisfies
    /// `pred` — in-flight rendezvous through the protocol table's
    /// `Event::Revoked` rows; posted receives, buffered unexpected frames,
    /// queued and unacked eager sends in one walk of each gate. The peers
    /// stay alive; only the keys die, so unlike [`Engine::drain_peer`]
    /// every gate stays in place with its sequence windows, credits and
    /// rail affinity — stale frames of the dead keys are counted and acked
    /// at delivery instead.
    fn quiesce_keys<F: Fn(u64) -> bool>(&mut self, now: SimTime, pred: F) {
        let t_ns = now.0;
        let ctx = pctx(self.cfg.retry.is_some(), false, false, false);
        // Outbound rendezvous on poisoned keys, in ascending id across
        // gates: `revoked/swaitcts`, `revoked/sstreaming`,
        // `revoked/swaitfin` — DisarmTimer + AbortSend (the deadline dies
        // with the record).
        let mut out_ids: Vec<(u64, usize)> = Vec::new();
        let mut in_ids: Vec<(usize, u64)> = Vec::new();
        for (&peer, gate) in &self.peers {
            let doomed_out = gate.rdv_out.iter().filter(|(_, r)| pred(r.tag));
            out_ids.extend(doomed_out.map(|(&id, _)| (id, peer)));
            let doomed_in = gate.rdv_in.iter().filter(|(_, r)| pred(r.tag));
            in_ids.extend(doomed_in.map(|(&id, _)| (peer, id)));
        }
        out_ids.sort_unstable();
        for &(rdv_id, dst) in &out_ids {
            let gate = self.peers.get_mut(&dst).expect("collected above");
            match protocol::step(gate.sender_state(rdv_id), protocol::Event::Revoked, ctx) {
                Verdict::Step { actions, .. } => {
                    let rdv = gate.rdv_out.remove(&rdv_id).expect("collected above");
                    if actions.contains(&Action::AbortSend) {
                        self.finish_send(t_ns, rdv.send_req, Outcome::Revoked);
                    }
                }
                Verdict::Ignore { .. } => {}
                Verdict::Error => self.protocol_error(),
            }
        }
        // Inbound rendezvous on poisoned keys, in `(src, id)` order:
        // `revoked/rwaitdata` — DisarmTimer + AbortRecv + Tombstone →
        // RDone. The tombstone (not plain removal) keeps a straggling DATA
        // chunk on the FIN-replay path instead of tripping the defensive
        // data-before-reentry ignore; peer death reclaims it like any
        // finished rendezvous.
        for &(src, rdv_id) in &in_ids {
            match protocol::step(protocol::State::RWaitData, protocol::Event::Revoked, ctx) {
                Verdict::Step { actions, next, .. } => {
                    let gate = self.peers.get_mut(&src).expect("collected above");
                    let rdv = gate.rdv_in.remove(&rdv_id).expect("collected above");
                    debug_assert_eq!(next, protocol::State::RDone);
                    if actions.contains(&Action::Tombstone) {
                        gate.rdv_done.insert(rdv_id);
                    }
                    if actions.contains(&Action::AbortRecv) {
                        self.finish_recv(t_ns, rdv.recv_req, Outcome::Revoked);
                    }
                }
                Verdict::Ignore { .. } => {}
                Verdict::Error => self.protocol_error(),
            }
        }
        // Per gate: unacked eager envelopes on poisoned keys (their sends
        // completed locally long ago — stop retransmitting into a dead
        // epoch), the receive side of every poisoned flow — posted
        // receives, buffered unexpected frames, and parked early arrivals
        // (the predecessor that would let them deliver may never be
        // retransmitted — the sender quiesced too — so drop and count them
        // now rather than leak) — and queued-but-uncommitted wrappers on
        // poisoned keys plus the DATA/CTS wrappers of the rendezvous
        // cancelled above (committing one of those would index a removed
        // record).
        let mut failed_eager: Vec<SendReqId> = Vec::new();
        let mut orphans: Vec<RecvReqId> = Vec::new();
        let mut stale = 0;
        for (&peer, gate) in self.peers.iter_mut() {
            gate.unacked.retain(|&(tag, _), _| !pred(tag));
            let (reqs, dropped, dropped_bytes) = gate.purge_flows(&pred);
            orphans.extend(reqs);
            stale += dropped;
            self.unex_eager_bytes -= dropped_bytes;
            let gone = gate.purge_window(|pw| match pw.body {
                // An RTS's send request already failed with its
                // rendezvous record above.
                PwBody::Eager { tag, .. } | PwBody::Rts { tag, .. } => pred(tag),
                PwBody::Cts { rdv_id } => in_ids.contains(&(peer, rdv_id)),
                PwBody::Data { rdv_id, .. } => out_ids.contains(&(rdv_id, peer)),
            });
            self.queued -= usize::from(!gone.is_empty() && gate.window.is_empty());
            failed_eager.extend(gone.iter().filter_map(|pw| match pw.body {
                PwBody::Eager { send_req, .. } => Some(send_req),
                _ => None,
            }));
        }
        for req in failed_eager {
            if !self.send_reqs[req.0 as usize].done {
                self.finish_send(t_ns, req, Outcome::Revoked);
            }
        }
        // Posted receives fail, in `(gate, tag)` order; the buffered and
        // parked frames dropped with them are counted stale.
        self.count_stale_epoch(stale as u64);
        for req in orphans {
            self.finish_recv(t_ns, req, Outcome::Revoked);
        }
    }
}
