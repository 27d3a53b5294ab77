//! Outbound path: `isend` into the submission windows, the commit stage
//! that lets the strategy move them onto rails, and NIC completions.

use simnet::{NmBuf, SimTime};

use super::{mkey, pctx, Engine, Out, Outcome, SendReq, SentTag, Staged};
use crate::config::RetryConfig;
use crate::gate::{EnvRetx, Gate, RdvOut, RetxTimer};
use crate::pack::{PacketWrapper, PwBody, PwId};
use crate::protocol::{self, Action, Verdict};
use crate::railhealth::RailHealth;
use crate::sr::SendReqId;
use crate::stats::NmStats;
use crate::strategy::{self, RailState, Submission};
use crate::wire::{EagerFrag, WirePayload};

impl Engine {
    /// `nm_sr_isend`: queue `data` for `dst` under `tag`. Returns the
    /// request handle; the upper layer's `cookie` comes back in the
    /// completion. **Does not touch the NIC** — submission happens on the
    /// next [`Engine::schedule`].
    pub fn isend(
        &mut self,
        now: SimTime,
        dst: usize,
        tag: u64,
        mut data: NmBuf,
        cookie: u64,
    ) -> SendReqId {
        assert_ne!(
            dst, self.rank,
            "nmad is inter-node only; intra-node goes via Nemesis"
        );
        // Attach the stack meter unless the buffer already carries one
        // (i.e. it was metered at a higher layer, MPI ingress or CH3).
        if data.meter().is_none() {
            data = data.with_meter(&self.meter);
        }
        if let Some(req) = self.refuse_send(now, dst, tag, data.len(), cookie) {
            return req;
        }
        let req = SendReqId(self.send_reqs.len() as u32);
        let gate = self.peers.entry(dst).or_default();
        let seq = gate.flow(tag).next_send_seq();
        self.send_reqs.push(SendReq {
            cookie,
            done: false,
            dst,
            tag,
            seq,
        });
        let pw_id = PwId(self.next_pw);
        self.next_pw += 1;
        let key = mkey(self.rank, dst, tag, seq);
        let len = data.len();
        self.out
            .phase(now.0, key, obs::Phase::SendPosted { len: len as u64 });
        // Flow-control admission: an eager-sized message needs a credit
        // from the destination gate's pool; with the pool empty it degrades
        // to the rendezvous path (RTS/CTS is natural backpressure — the
        // payload only moves once the receiver posted) instead of blocking
        // or dropping. Zero-length messages bypass the pool on both sides:
        // credits protect receiver payload memory, which they cannot use.
        let eager_sized = len <= self.cfg.eager_threshold;
        let mut eager = eager_sized;
        if let Some(fc) = self.cfg.flow.filter(|_| eager && len > 0) {
            let credits = gate.send_credits.get_or_insert(fc.eager_credits);
            eager = *credits > 0;
            if eager {
                *credits -= 1;
                self.stats.fc_eager_admitted += 1;
                let peer = dst as u32;
                self.out
                    .engine(now.0, obs::EngineEvent::CreditDebit { peer });
            } else {
                self.stats.fc_credit_stalls += 1;
                self.stats.fc_fallback_sends += 1;
                self.out.phase(now.0, key, obs::Phase::CreditStall);
            }
        }
        let (body, data) = if eager {
            self.stats.eager_sends += 1;
            let body = PwBody::Eager {
                tag,
                seq,
                send_req: req,
            };
            (body, data)
        } else {
            // Rendezvous entry: `entry/size` (payload above the eager
            // threshold) or `entry/credit-fallback` (eager-sized send
            // demoted because the credit pool ran dry). Same actions,
            // distinct table rows so the engine explorer proves both
            // entries live.
            let verdict = protocol::step(
                protocol::State::Gone,
                protocol::Event::SendRdv,
                pctx(self.cfg.retry.is_some(), false, false, eager_sized),
            );
            let Verdict::Step { actions, next, .. } = verdict else {
                unreachable!("rendezvous entry must be a table row");
            };
            debug_assert!(actions.contains(&Action::SendRts));
            self.stats.rdv_sends += 1;
            let rdv_id = self.next_rdv;
            self.next_rdv += 1;
            gate.rdv_out.insert(
                rdv_id,
                Box::new(RdvOut {
                    send_req: req,
                    data,
                    bytes_remaining: len,
                    chunks_in_flight: 0,
                    state: next,
                    last_rails: 0,
                    tag,
                    seq,
                    // `ArmRtsTimer` is realized lazily, in the commit
                    // stage, when the RTS actually leaves the node (a
                    // queued-but-uncommitted RTS cannot time out).
                    timer: RetxTimer::default(),
                }),
            );
            let body = PwBody::Rts {
                tag,
                seq,
                rdv_id,
                len,
            };
            (body, NmBuf::default())
        };
        gate.window.push_back(PacketWrapper {
            id: pw_id,
            dst,
            body,
            data,
            enqueued_at: now,
        });
        req
    }

    /// Commit stage: run the strategy over every gate with a non-empty
    /// window and stage the packets it submits.
    pub(super) fn commit(&mut self, now: SimTime, rail_idle: &dyn Fn(usize) -> bool) {
        // Idle progress cycles stop at `has_work` and never get here, but
        // every NIC completion and every pass whose work was inbound does:
        // look before building the rail snapshot.
        if !self.window_queued() {
            return;
        }
        let health = self.health.as_ref();
        let rails = &mut self.rails;
        rails.clear();
        rails.extend(
            (self.profiles.iter().enumerate()).map(|(i, &profile)| RailState {
                idle: rail_idle(i),
                profile,
                health: health.map_or(RailHealth::Up, |h| h.state(i)),
                weight: health.map_or(1.0, |h| h.weight(i, now)),
            }),
        );
        // The strategies are stateless (boxing a unit struct allocates
        // nothing), so the one the configuration names is resolved here.
        let mut strategy = strategy::make(self.cfg.strategy);
        for (&dst, gate) in self.peers.iter_mut() {
            if gate.window.is_empty() {
                continue;
            }
            let subs = strategy.try_and_commit(&self.cfg, &mut gate.window, rails);
            for sub in subs {
                let retry = self.cfg.retry;
                let packet =
                    build_packet(&mut self.out, &mut self.stats, gate, retry, now, dst, sub);
                self.out.staged.push(packet);
            }
        }
        self.end_stage();
    }

    /// Does any gate hold a wrapper the commit stage has yet to submit?
    pub(super) fn window_queued(&self) -> bool {
        self.peers.values().any(|gate| !gate.window.is_empty())
    }

    /// The NIC read the buffer of one committed packet: finish its eager
    /// sends, account a rendezvous chunk, and keep the pipeline moving.
    pub fn sent(&mut self, now: SimTime, tag: SentTag, rail_idle: &dyn Fn(usize) -> bool) {
        let mut fired = !tag.eager_reqs.is_empty();
        for req in tag.eager_reqs {
            self.finish_send(now.0, req, Outcome::Done(()));
        }
        if let Some((dst, rdv_id)) = tag.data_chunk_rdv {
            fired |= self.chunk_sent(now, dst, rdv_id);
        }
        // Continue the committed pipeline (e.g. remaining window packets).
        self.commit(now, rail_idle);
        if fired {
            self.out.hook();
        }
    }

    /// One DATA chunk of rendezvous `rdv_id` toward `dst` cleared the
    /// local NIC. Returns whether that completed the send.
    fn chunk_sent(&mut self, now: SimTime, dst: usize, rdv_id: u64) -> bool {
        let retry = self.cfg.retry;
        let ctx = pctx(retry.is_some(), false, false, false);
        let gate = self.peers.get_mut(&dst);
        let Some(rdv) = gate.and_then(|g| g.rdv_out.get_mut(&rdv_id)) else {
            // The record is gone: in retry mode the receiver's FIN (driven
            // by a retransmitted chunk) legally beat this NIC completion
            // (`ignore/fin-beat-nic-completion`); otherwise it is a
            // protocol error.
            let gone = protocol::State::Gone;
            if !matches!(
                protocol::step(gone, protocol::Event::LastChunkSent, ctx),
                Verdict::Ignore { .. }
            ) {
                self.protocol_error();
            }
            return false;
        };
        rdv.chunks_in_flight -= 1;
        if rdv.chunks_in_flight != 0 || rdv.bytes_remaining != 0 {
            return false;
        }
        // The final DATA chunk cleared the local NIC — the `LastChunkSent`
        // event: `sent/await-fin` (retry mode arms the FIN timer and holds
        // the payload — local completion isn't delivery) or
        // `sent/complete`.
        match protocol::step(rdv.state, protocol::Event::LastChunkSent, ctx) {
            Verdict::Step { actions, next, .. } if actions.contains(&Action::ArmFinTimer) => {
                rdv.state = next;
                let rc = retry.expect("FIN timer implies retry");
                rdv.timer.arm(now, rc.timeout);
            }
            Verdict::Step { actions, .. } => {
                debug_assert!(actions.contains(&Action::CompleteSend));
                let req = rdv.send_req;
                self.peers.entry(dst).or_default().rdv_out.remove(&rdv_id);
                self.finish_send(now.0, req, Outcome::Done(()));
                return true;
            }
            Verdict::Ignore { .. } => {}
            Verdict::Error => self.protocol_error(),
        }
        false
    }
}

/// Turn one strategy submission toward `dst` into a staged wire packet,
/// with the bookkeeping of everything that leaves the node with it.
fn build_packet(
    out: &mut Out,
    stats: &mut NmStats,
    gate: &mut Gate,
    retry: Option<RetryConfig>,
    now: SimTime,
    dst: usize,
    sub: Submission,
) -> Staged {
    let rank = out.rec.rank() as usize;
    let rail = sub.rail;
    stats.packets_sent += 1;
    let mut sent = SentTag {
        eager_reqs: Vec::new(),
        data_chunk_rdv: None,
    };
    // An eager envelope going on the wire completes its send with the
    // packet; in retry mode it also starts its ack timer and leaves a
    // share of the payload (not a copy) in the retransmit queue.
    let unacked = &mut gate.unacked;
    let mut eager = |out: &mut Out, tag: u64, seq: u64, send_req: SendReqId, data: &NmBuf| {
        sent.eager_reqs.push(send_req);
        if let Some(rc) = &retry {
            let data = data.share();
            let payload = WirePayload::Eager { tag, seq, data };
            let mut timer = RetxTimer::default();
            timer.arm(now, rc.timeout);
            unacked.insert(
                (tag, seq),
                EnvRetx {
                    payload,
                    timer,
                    rail,
                },
            );
        }
        let tx = obs::Phase::EagerTx { rail: rail as u8 };
        out.phase(now.0, mkey(rank, dst, tag, seq), tx);
    };
    let payload = if sub.pws.len() > 1 {
        stats.aggregates_sent += 1;
        stats.frags_aggregated += sub.pws.len() as u64;
        let frag = |pw: PacketWrapper| match pw.body {
            PwBody::Eager { tag, seq, send_req } => {
                eager(out, tag, seq, send_req, &pw.data);
                let data = pw.data;
                EagerFrag { tag, seq, data }
            }
            other => panic!("non-eager body {other:?} in aggregate"),
        };
        WirePayload::Aggregate(sub.pws.into_iter().map(frag).collect())
    } else {
        let pw = sub.pws.into_iter().next().expect("empty submission");
        let data = pw.data;
        match pw.body {
            PwBody::Eager { tag, seq, send_req } => {
                eager(out, tag, seq, send_req, &data);
                WirePayload::Eager { tag, seq, data }
            }
            PwBody::Rts {
                tag,
                seq,
                rdv_id,
                len,
            } => {
                // Retry mode: arm the RTS→CTS timer now that the RTS is
                // actually leaving the node.
                if let Some(rc) = &retry {
                    let rdv = gate.rdv_out.get_mut(&rdv_id);
                    let rdv = rdv.expect("RTS for unknown rendezvous");
                    rdv.timer.arm(now, rc.timeout);
                    rdv.last_rails = 1 << rail;
                }
                let tx = obs::Phase::RtsTx {
                    rail: rail as u8,
                    len: len as u64,
                };
                out.phase(now.0, mkey(rank, dst, tag, seq), tx);
                WirePayload::Rts {
                    tag,
                    seq,
                    rdv_id,
                    len,
                }
            }
            PwBody::Cts { rdv_id } => {
                // The CTS answers `dst`'s rendezvous: the span key is
                // the *sender's* message identity, looked up in the
                // inbound rendezvous table.
                if let Some(rdv) = gate.rdv_in.get(&rdv_id) {
                    let tx = obs::Phase::CtsTx { rail: rail as u8 };
                    out.phase(now.0, mkey(dst, rank, rdv.tag, rdv.seq), tx);
                }
                WirePayload::Cts { rdv_id }
            }
            PwBody::Data { rdv_id, offset } => {
                stats.data_chunks_sent += 1;
                let rdv = gate.rdv_out.get_mut(&rdv_id);
                let rdv = rdv.expect("DATA chunk for unknown rendezvous");
                rdv.bytes_remaining = rdv
                    .bytes_remaining
                    .checked_sub(data.len())
                    .expect("chunk exceeds remaining bytes");
                rdv.chunks_in_flight += 1;
                rdv.last_rails |= 1 << rail;
                sent.data_chunk_rdv = Some((dst, rdv_id));
                let tx = obs::Phase::DataChunkTx {
                    rail: rail as u8,
                    offset: offset as u64,
                    len: data.len() as u64,
                };
                out.phase(now.0, mkey(rank, dst, rdv.tag, rdv.seq), tx);
                WirePayload::Data {
                    rdv_id,
                    offset,
                    data,
                }
            }
        }
    };
    Staged {
        dst,
        payload,
        rail: Some(rail),
        sent: Some(sent),
    }
}
