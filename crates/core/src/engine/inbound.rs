//! Inbound path: frame acceptance, transport reordering, matching, and
//! the frame-driven transitions of the rendezvous table.

use std::collections::BTreeSet;

use simnet::{NmBuf, SimTime};

use super::{mkey, pctx, Engine, Outcome, RecvReq, MEMBER_PROBE_BIT};
use crate::gate::{RdvIn, RetxTimer};
use crate::matching::{GateId, Unexpected};
use crate::pack::{PacketWrapper, PwBody, PwId};
use crate::protocol::{self, Action, Verdict};
use crate::sr::RecvReqId;
use crate::wire::{EagerFrag, NmWire, WirePayload};

impl Engine {
    /// `nm_sr_irecv`: post a receive for `(src, tag)`. If a matching
    /// unexpected message is queued it completes immediately (eager) or
    /// starts the rendezvous (RTS → a CTS is queued for the next
    /// `schedule`).
    pub fn irecv(&mut self, now: SimTime, src: usize, tag: u64, cookie: u64) -> RecvReqId {
        assert_ne!(src, self.rank, "nmad is inter-node only");
        if let Some(req) = self.refuse_recv(now, src, tag, cookie) {
            return req;
        }
        let req = RecvReqId(self.recv_reqs.len() as u32);
        let gate = self.peers.entry(src).or_default();
        let posted_seq = gate.flow(tag).next_posted_seq();
        let hit = gate.post_recv(tag, req);
        self.recv_reqs.push(RecvReq {
            cookie,
            done: false,
            src,
            tag,
            seq: posted_seq,
        });
        let posted = mkey(src, self.rank, tag, posted_seq);
        self.out.phase(now.0, posted, obs::Phase::RecvPosted);
        if let Some(unex) = hit {
            let seq = unex.seq();
            self.recv_reqs[req.0 as usize].seq = seq;
            let matched = obs::Phase::Matched { unexpected: true };
            self.out
                .phase(now.0, mkey(src, self.rank, tag, seq), matched);
            match unex {
                Unexpected::Eager { data, .. } => {
                    self.consume_unexpected_eager(src, data.len());
                    self.finish_recv(now.0, req, Outcome::Done(data));
                }
                Unexpected::Rts { rdv_id, len, .. } => {
                    self.start_rdv_in(now, req, src, tag, seq, rdv_id, len);
                }
            }
        }
        self.hook_if_completed();
        req
    }

    /// Payload length of the earliest unexpected message from `(gate, tag)`
    /// (peek only; a gate never heard from has none, and gets no record).
    pub fn probe_info(&self, gate: GateId, tag: u64) -> Option<usize> {
        let (_, len) = self.peers.get(&gate.0)?.probe(tag)?;
        Some(len)
    }

    /// Gate and payload length of the earliest-arrived unexpected message
    /// with `tag` from any gate — the ANY_SOURCE probe (§3.2.2): the
    /// lowest arrival ticket among the gates' queue heads.
    pub fn probe_tag_info(&self, tag: u64) -> Option<(GateId, usize)> {
        let heads = self.peers.iter().filter_map(|(&peer, gate)| {
            let (ticket, len) = gate.probe(tag)?;
            Some((ticket, GateId(peer), len))
        });
        heads.min().map(|(_, gate, len)| (gate, len))
    }

    /// Accept an inbound wire packet: `rail` is the local rail index it
    /// arrived on, `corrupted` whether the wire flagged it. A corrupted
    /// frame fails the end-to-end CRC and is dropped here — the retry
    /// layer replays it like a lost packet. Processing is deferred to the
    /// next `schedule`, except in retry mode, where the transport must
    /// stay responsive (ack and FIN replays) even after the local rank
    /// has stopped polling — e.g. a receiver that already completed while
    /// the sender retransmits — and a progress pass runs inline.
    pub fn accept(
        &mut self,
        now: SimTime,
        mut wire: NmWire,
        rail: usize,
        corrupted: bool,
        rail_idle: &dyn Fn(usize) -> bool,
    ) {
        if corrupted {
            // Model bit-rot without touching payload bytes: the sender's
            // retransmit queue shares this very storage, so the damage is
            // recorded in the (owned) seal instead.
            wire.corrupt_seal();
        }
        if self.halted {
            return;
        }
        if !wire.crc_ok() {
            self.stats.crc_drops += 1;
            return;
        }
        // The header is input from outside the program: a frame for
        // another rank, from this rank, or from a rank the job doesn't
        // have must not earn liveness credit or open a gate record — and
        // must never come back out as an effect naming an unknown rank.
        let src = wire.src_rank();
        if wire.dst_rank() != self.rank || src == self.rank || src >= self.nranks {
            self.protocol_error();
            return;
        }
        // A frame from a peer this rank already drained must not
        // revive any per-peer state (`Dead` is sticky): count it and
        // drop it before it can touch a map.
        if self.membership.as_ref().is_some_and(|m| m.is_dead(src)) {
            self.stats.membership_stray_frames += 1;
            return;
        }
        // An intact inbound frame is the only way a peer earns
        // liveness credit (outbound attempts can be fooled; arrivals
        // cannot).
        if let Some(m) = self.membership.as_mut() {
            m.record_inbound(src, now);
        }
        self.emit_member_events(now);
        self.peers.entry(src).or_default().last_in_rail = Some(rail);
        // An intact arrival is live proof of this rail: inbound credit
        // is the only success signal that cannot be fooled by a
        // multi-rail attempt mask (a rendezvous whose dead-rail chunks
        // were rerouted still *finishes*, but only the survivor ever
        // lands a frame here).
        if let Some(h) = self.health.as_mut() {
            h.record_success(rail, now);
        }
        self.inbound.push_back(wire);
        if self.cfg.retry.is_some() {
            self.schedule(now, rail_idle);
        }
        self.out.hook();
    }

    /// Inbound stage: run every accepted frame through the protocol, then
    /// acknowledge the envelope flows it touched and return earned credits.
    pub(super) fn process_inbound(&mut self, now: SimTime) {
        // Retry mode: (src, tag) envelope flows touched by this batch — each
        // gets one cumulative ack afterwards (BTreeSet: deterministic order).
        let mut touched: BTreeSet<(usize, u64)> = BTreeSet::new();
        let retry = self.cfg.retry.is_some();
        let mut envelope = |this: &mut Engine, src: usize, tag: u64, msg: Unexpected| {
            if retry {
                touched.insert((src, tag));
            }
            this.deliver_envelope(now, src, tag, msg);
        };
        while let Some(wire) = self.inbound.pop_front() {
            let src = wire.src_rank();
            match wire.into_payload() {
                WirePayload::Eager { tag, seq, data } => {
                    envelope(self, src, tag, Unexpected::Eager { seq, data });
                }
                WirePayload::Aggregate(frags) => {
                    for EagerFrag { tag, seq, data } in frags {
                        envelope(self, src, tag, Unexpected::Eager { seq, data });
                    }
                }
                WirePayload::Rts {
                    tag,
                    seq,
                    rdv_id,
                    len,
                } => envelope(self, src, tag, Unexpected::Rts { seq, rdv_id, len }),
                // No rail credit from the handshake: `last_rails` is an
                // attempt mask, and crediting attempts would resurrect a
                // dead rail every time its rerouted rendezvous completes.
                // Arrival credit in `accept` covers the rail the CTS
                // actually used.
                WirePayload::Cts { rdv_id } => self.handle_cts(now, src, rdv_id),
                WirePayload::Data {
                    rdv_id,
                    offset,
                    data,
                } => self.handle_data(now, src, rdv_id, offset, data),
                WirePayload::Credit { credits } => self.apply_credits(now.0, src, credits),
                WirePayload::Ack { tag, next, credits } => {
                    self.apply_credits(now.0, src, credits);
                    let credited = self.peers.get_mut(&src).map(|g| g.ack(tag, next));
                    if let Some(h) = self.health.as_mut() {
                        for rail in credited.unwrap_or_default() {
                            h.record_success(rail, now);
                        }
                    }
                }
                WirePayload::RdvFin { rdv_id } => self.handle_fin(now, src, rdv_id),
                WirePayload::Probe { rail, seq } => {
                    // Reply on the probed rail itself — a probe answered on
                    // a different rail would re-admit a link it never used.
                    self.out
                        .ctrl(src, WirePayload::ProbeAck { rail, seq }, Some(rail));
                }
                WirePayload::ProbeAck { rail, seq } => {
                    // Membership probes share the wire format but live in
                    // a disjoint (high-bit) sequence space: their ack is
                    // just the inbound credit already recorded above, not
                    // a rail-health sample.
                    if seq & MEMBER_PROBE_BIT == 0 {
                        if let Some(h) = self.health.as_mut() {
                            h.record_probe_ack(rail, seq, now);
                        }
                    }
                }
                WirePayload::Revoke { epoch } => {
                    // Epoch poison: sticky and idempotent — the first
                    // sighting quiesces the epoch and queues the verdict
                    // for the MPI layer to re-broadcast; replays are
                    // counted no-ops.
                    self.learn_revoke(now, epoch);
                }
            }
        }
        for (src, tag) in touched {
            let gate = self.peers.get(&src);
            let next = gate
                .and_then(|g| g.flows.get(&tag))
                .map_or(0, |f| f.recv_expected);
            self.stats.acks_sent += 1;
            // Route the ack back the way the peer's traffic came in — never
            // into a rail the peer may have already abandoned.
            let via = gate.and_then(|g| g.last_in_rail);
            let ack = WirePayload::Ack {
                tag,
                next,
                credits: 0,
            };
            self.out.ctrl(src, ack, via);
        }
        // Earned credit returns ride out with this batch (piggybacked on
        // the acks above when one targets the same gate).
        self.flush_credits();
        self.end_stage();
        self.hook_if_completed();
    }

    /// The receiver finished: `fin/early` (chunks still on the local NIC)
    /// or `fin/confirmed` (FIN-wait) release the payload and complete the
    /// send; a replayed FIN — or one naming a rendezvous addressed to
    /// another peer — finds `Gone` and is a declared ignore. Without retry
    /// no FIN is ever legal: a protocol error, not a panic.
    fn handle_fin(&mut self, now: SimTime, src: usize, rdv_id: u64) {
        let retry = self.cfg.retry.is_some();
        let gate = self.peers.entry(src).or_default();
        match protocol::step(
            gate.sender_state(rdv_id),
            protocol::Event::FinRx,
            pctx(retry, false, false, false),
        ) {
            Verdict::Step { actions, .. } => {
                let rdv = gate.rdv_out.remove(&rdv_id).expect("live state");
                let key = mkey(self.rank, src, rdv.tag, rdv.seq);
                self.out.phase(now.0, key, obs::Phase::FinRx);
                let outcome = if actions.contains(&Action::CompleteSend) {
                    Outcome::Done(())
                } else {
                    // `fin/tombstone`: the FIN came from a
                    // revoke-tombstoned receiver before our own copy of
                    // the revoke arrived — no data ever moved, so the
                    // send fails, not completes.
                    debug_assert!(actions.contains(&Action::AbortSend));
                    Outcome::Revoked
                };
                self.finish_send(now.0, rdv.send_req, outcome);
            }
            Verdict::Ignore { .. } => {}
            Verdict::Error => self.protocol_error(),
        }
    }

    /// Transport-level reordering: envelopes are fed to matching strictly
    /// in per-(src, tag) sequence order; early arrivals park.
    fn deliver_envelope(&mut self, now: SimTime, src: usize, tag: u64, msg: Unexpected) {
        let seq = msg.seq();
        let gate = self.peers.entry(src).or_default();
        let via = gate.last_in_rail;
        let flow = gate.flow(tag);
        if seq < flow.recv_expected {
            // Already delivered: a retransmission or a wire duplicate. A
            // duplicated eager envelope is plain transport bookkeeping; a
            // duplicated RTS is a protocol event — the handshake reply
            // may have been lost, and the table decides the replay:
            // `replay/fin-on-rts` (tombstone → FIN again),
            // `replay/cts-on-rts` (live → CTS again), or
            // `replay/rts-unmatched` (count only). A duplicate without a
            // retry layer to explain it is a counted protocol error.
            let retry = self.cfg.retry.is_some();
            let Unexpected::Rts { rdv_id, .. } = msg else {
                if retry {
                    self.stats.dup_envelopes += 1;
                } else {
                    self.protocol_error();
                }
                return;
            };
            let actions = match protocol::step(
                gate.receiver_state(rdv_id),
                protocol::Event::DupRts,
                pctx(retry, false, false, false),
            ) {
                Verdict::Step { actions, .. } => actions,
                Verdict::Ignore { .. } => return,
                Verdict::Error => {
                    self.protocol_error();
                    return;
                }
            };
            let mk = mkey(src, self.rank, tag, seq);
            for &action in actions {
                match action {
                    Action::CountDupEnvelope => self.stats.dup_envelopes += 1,
                    Action::ReplayFin => {
                        self.stats.fins_sent += 1;
                        self.out.phase(now.0, mk, obs::Phase::FinTx);
                        self.out.ctrl(src, WirePayload::RdvFin { rdv_id }, via);
                    }
                    Action::ReplayCts => {
                        self.stats.cts_retries += 1;
                        let tx = obs::Phase::CtsTx {
                            rail: via.unwrap_or(0) as u8,
                        };
                        self.out.replay(now, mk, obs::RetryKind::Cts, None, tx);
                        self.out.ctrl(src, WirePayload::Cts { rdv_id }, via);
                    }
                    _ => unreachable!("DupRts rows emit no other action"),
                }
            }
            return;
        }
        if seq != flow.recv_expected {
            if flow.parked.insert(seq, msg).is_some() {
                self.stats.dup_envelopes += 1;
            }
            return;
        }
        // In order: advance the sequence first, so the cumulative ack
        // covers the envelope whatever `deliver_now` decides about it.
        flow.recv_expected = seq + 1;
        let successors_parked = !flow.parked.is_empty();
        self.deliver_now(now, src, tag, msg);
        if !successors_parked {
            return;
        }
        // Drain any parked successors that are now in order.
        let mut next = seq + 1;
        while let Some(msg) = self.peers.get_mut(&src).and_then(|g| {
            let flow = g.flows.get_mut(&tag)?;
            let msg = flow.parked.remove(&next)?;
            flow.recv_expected = next + 1;
            Some(msg)
        }) {
            self.deliver_now(now, src, tag, msg);
            next += 1;
        }
    }

    fn deliver_now(&mut self, now: SimTime, src: usize, tag: u64, msg: Unexpected) {
        // Epoch hygiene: a collective frame of a revoked or superseded
        // epoch (or a retired agreement instance) is dropped here — after
        // the caller's sequence advance, so the cumulative ack covers it and
        // the sender stops retransmitting (a live peer must never be
        // indicted over a dead epoch), but before any receiver-machine
        // span or matching state records it.
        if self.tag_is_stale(tag) {
            match protocol::step(
                protocol::State::Gone,
                protocol::Event::StaleEpoch,
                pctx(self.cfg.retry.is_some(), false, false, false),
            ) {
                Verdict::Step { actions, .. } => {
                    debug_assert!(actions.contains(&Action::CountStaleEpoch));
                    self.count_stale_epoch(1);
                }
                Verdict::Ignore { .. } => {}
                Verdict::Error => self.protocol_error(),
            }
            return;
        }
        let seq = msg.seq();
        let key = mkey(src, self.rank, tag, seq);
        match &msg {
            Unexpected::Eager { .. } => self.out.phase(now.0, key, obs::Phase::EagerRx),
            Unexpected::Rts { .. } => self.out.phase(now.0, key, obs::Phase::RtsRx),
        }
        let gate = self.peers.entry(src).or_default();
        let Some(req) = gate.try_match_arrival(tag, seq) else {
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            if let Unexpected::Eager { data, .. } = &msg {
                self.unex_eager_bytes += data.len();
                let buffered = self.unex_eager_bytes as u64;
                self.stats.fc_peak_unex_bytes = self.stats.fc_peak_unex_bytes.max(buffered);
            }
            return gate.store_unexpected(tag, ticket, msg);
        };
        self.recv_reqs[req.0 as usize].seq = seq;
        let matched = obs::Phase::Matched { unexpected: false };
        self.out.phase(now.0, key, matched);
        match msg {
            Unexpected::Eager { data, .. } => {
                // Matched on arrival: the credit cycle completes without
                // the message ever occupying the unexpected queue.
                self.owe_credit(src, data.len());
                self.finish_recv(now.0, req, Outcome::Done(data))
            }
            Unexpected::Rts { rdv_id, len, .. } => {
                self.start_rdv_in(now, req, src, tag, seq, rdv_id, len)
            }
        }
    }

    /// The receiver matched an RTS: open the inbound record and queue a
    /// CTS control packet back to the sender.
    #[allow(clippy::too_many_arguments)]
    fn start_rdv_in(
        &mut self,
        now: SimTime,
        req: RecvReqId,
        src: usize,
        tag: u64,
        seq: u64,
        rdv_id: u64,
        len: usize,
    ) {
        // `entry/rts-matched`: open the record the chunks land in, answer
        // with the CTS, arm the progress timer (`ArmRecvTimer` is a no-op
        // without retry).
        let verdict = protocol::step(
            protocol::State::Gone,
            protocol::Event::RtsMatched,
            pctx(self.cfg.retry.is_some(), false, false, false),
        );
        let Verdict::Step { actions, .. } = verdict else {
            unreachable!("rts-matched entry must be a table row");
        };
        debug_assert!(actions.contains(&Action::AllocLanding));
        debug_assert!(actions.contains(&Action::SendCts));
        // `len` is the sender's word, read off the wire: a length no
        // buffer can hold is a counted error — no record, no CTS, no
        // timer, and the engine lives on (the matched receive stays
        // pending, like one whose sender never sends).
        if len > isize::MAX as usize {
            return self.protocol_error();
        }
        // The CTS timer waits for the bytes it asked for: they land behind
        // whatever this gate's other inbound rendezvous still have on the
        // wire, at the pace of the slowest rail.
        let gate = self.peers.entry(src).or_default();
        let mut timer = RetxTimer::default();
        if let Some(rc) = &self.cfg.retry {
            let queued: usize = gate.rdv_in.values().map(|r| r.outstanding()).sum();
            let bytes = len.saturating_add(queued);
            let wire = self.profiles.iter().map(|p| p.predict(bytes)).max();
            timer.arm(now, rc.timeout.saturating_add(wire.unwrap_or_default()));
        }
        let rdv = RdvIn::new(req, tag, seq, len, timer);
        let prev = gate.rdv_in.insert(rdv_id, Box::new(rdv));
        debug_assert!(prev.is_none(), "duplicate rendezvous id from rank {src}");
        self.queued += usize::from(gate.window.is_empty());
        gate.window.push_back(PacketWrapper {
            id: PwId(self.next_pw),
            dst: src,
            body: PwBody::Cts { rdv_id },
            data: NmBuf::default(),
            enqueued_at: now,
        });
        self.next_pw += 1;
    }

    /// The sender got clear-to-send from `src`. Table lookup against
    /// `src`'s own gate: `cts/pipelined` queues the payload as splittable
    /// DATA; a duplicated or straggling CTS in retry mode is a declared
    /// ignore; a CTS the table cannot place (a rendezvous unknown *to that
    /// peer's gate*, without retry) is a counted protocol error — never a
    /// panic, and never a payload streamed to a rank that did not ask.
    fn handle_cts(&mut self, now: SimTime, src: usize, rdv_id: u64) {
        let retry = self.cfg.retry.is_some();
        let gate = self.peers.entry(src).or_default();
        let verdict = protocol::step(
            gate.sender_state(rdv_id),
            protocol::Event::CtsRx,
            pctx(retry, false, false, false),
        );
        let (actions, next) = match verdict {
            Verdict::Step { actions, next, .. } => (actions, next),
            Verdict::Ignore { .. } => return,
            Verdict::Error => return self.protocol_error(),
        };
        let rdv = gate.rdv_out.get_mut(&rdv_id).expect("live state");
        rdv.state = next;
        let key = mkey(self.rank, src, rdv.tag, rdv.seq);
        self.out.phase(now.0, key, obs::Phase::CtsRx);
        for &action in actions {
            match action {
                // The RTS timer re-arms as a FIN timer once every DATA
                // chunk has left the local NIC (`sent/await-fin`).
                Action::DisarmTimer => rdv.timer.disarm(),
                Action::QueueData => {
                    self.queued += usize::from(gate.window.is_empty());
                    gate.window.push_back(PacketWrapper {
                        id: PwId(self.next_pw),
                        dst: src,
                        body: PwBody::Data { rdv_id, offset: 0 },
                        // Zero-copy: the DATA wrapper shares the sender's
                        // payload storage.
                        data: rdv.data.share(),
                        enqueued_at: now,
                    });
                    self.next_pw += 1;
                }
                _ => unreachable!("cts/pipelined emits no other action"),
            }
        }
    }

    /// A DATA chunk landed. Table lookup against the derived receiver
    /// state (live entry = `RWaitData`, tombstone = `RDone`, neither =
    /// `Gone`): `data/chunk` keeps the chunk and bumps the progress timer,
    /// `data/last*` completes the receive (and in retry mode sends the
    /// FIN and tombstones), `replay/fin-on-data` answers a replayed
    /// payload at a tombstone with the FIN again. Chunks outside the
    /// announced payload range — or for an unknown rendezvous without
    /// retry — are counted protocol errors, never a panic or a wild
    /// slice.
    fn handle_data(
        &mut self,
        now: SimTime,
        src: usize,
        rdv_id: u64,
        offset: usize,
        mut data: NmBuf,
    ) {
        let retry = self.cfg.retry.is_some();
        let gate = self.peers.entry(src).or_default();
        let state = gate.receiver_state(rdv_id);
        let (in_range, last) = match gate.rdv_in.get(&rdv_id) {
            Some(rdv) => rdv.guards(offset, data.len()),
            None => (true, false),
        };
        let actions = match protocol::step(
            state,
            protocol::Event::DataRx,
            pctx(retry, in_range, last, false),
        ) {
            Verdict::Step { actions, .. } => actions,
            // `ignore/data-before-reentry` (defensive): drop the chunk;
            // the sender's FIN timer replays it.
            Verdict::Ignore { .. } => return,
            Verdict::Error => return self.protocol_error(),
        };
        let via = gate.last_in_rail;
        let mut done = false;
        for &action in actions {
            match action {
                Action::CopyChunk => {
                    let rdv = gate.rdv_in.get_mut(&rdv_id).expect("live state");
                    self.out.phase(
                        now.0,
                        mkey(src, self.rank, rdv.tag, rdv.seq),
                        obs::Phase::DataChunkRx {
                            offset: offset as u64,
                            len: data.len() as u64,
                        },
                    );
                    // No receive-side memcpy: the chunk, verified once in
                    // `accept`, is kept as the view of the wire it is.
                    let len = data.len();
                    if rdv.land(offset, std::mem::take(&mut data)) < len {
                        self.stats.dup_data += 1;
                    }
                }
                // Progress arrived: push the CTS retransmission timer
                // out (a no-op without retry, where no timer is armed).
                Action::BumpRecvTimer => {
                    gate.rdv_in
                        .get_mut(&rdv_id)
                        .expect("live state")
                        .timer
                        .bump(now);
                }
                Action::Tombstone => {
                    gate.rdv_done.insert(rdv_id);
                }
                Action::SendFin => {
                    let rdv = &gate.rdv_in[&rdv_id];
                    self.stats.fins_sent += 1;
                    let key = mkey(src, self.rank, rdv.tag, rdv.seq);
                    self.out.phase(now.0, key, obs::Phase::FinTx);
                    self.out.ctrl(src, WirePayload::RdvFin { rdv_id }, via);
                }
                Action::CompleteRecv => done = true,
                // Replayed payload at a tombstone: the sender's FIN
                // was lost.
                Action::CountDupData => self.stats.dup_data += 1,
                Action::ReplayFin => {
                    self.stats.fins_sent += 1;
                    self.out.ctrl(src, WirePayload::RdvFin { rdv_id }, via);
                }
                _ => unreachable!("DataRx rows emit no other action"),
            }
        }
        if done {
            let rdv = gate.rdv_in.remove(&rdv_id).expect("live state");
            let req = rdv.recv_req;
            let payload = rdv.into_payload(&self.meter);
            self.finish_recv(now.0, req, Outcome::Done(payload));
        }
    }
}
