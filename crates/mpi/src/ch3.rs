//! CH3 packets and the CH3 protocol engine.
//!
//! CH3 moves messages as typed packets: `Eager` for small messages, the
//! `Rts`/`Cts`/`Data` rendezvous for large ones (Fig. 2's outer
//! handshake). The engine is sans-IO, like `nmad::engine::Engine`: a plain
//! value whose calls take `&mut self`, decide, and append what they want
//! done — packets to transmit, completions to apply — to one ordered
//! out-list ([`Ch3Out`]). Whoever holds the engine executes that list
//! afterwards (`ProcState::route` in a job, the test loopback with no
//! simulator at all); the engine names no transport, no scheduler and no
//! lock. The same engine therefore serves the Nemesis shared-memory
//! channel, the tailored baseline NICs, and the legacy NewMadeleine
//! netmod (where its rendezvous *nests* inside NewMadeleine's — the
//! pathology §2.1.3 describes).

use std::collections::HashMap;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use nmad::protocol::{self, Action, State, Verdict};
use simnet::{BufOrigin, CopyMeter, NmBuf};

use crate::queues::{Ch3Queues, UnexMsg};
use crate::request::Req;

/// Modelled CH3 packet-header size on the wire.
pub const CH3_HEADER_BYTES: usize = 40;

/// A CH3 protocol packet. Payloads are [`NmBuf`] handles: cloning a packet
/// (retransmit queues, self-loops) bumps a refcount, it never copies the
/// payload bytes.
#[derive(Clone, Debug)]
pub enum Ch3Pkt {
    Eager {
        key: u64,
        data: NmBuf,
    },
    Rts {
        key: u64,
        rdv_id: u64,
        len: usize,
    },
    Cts {
        rdv_id: u64,
    },
    Data {
        rdv_id: u64,
        offset: usize,
        data: NmBuf,
    },
    /// Per-fragment acknowledgement of an ACK-throttled rendezvous
    /// pipeline (Open MPI 1.2-era openib behaviour: the next fragment only
    /// leaves once the previous one is acknowledged).
    DataAck {
        rdv_id: u64,
    },
}

impl Ch3Pkt {
    /// Modelled wire size.
    pub fn wire_bytes(&self) -> usize {
        CH3_HEADER_BYTES
            + match self {
                Ch3Pkt::Eager { data, .. } => data.len(),
                Ch3Pkt::Rts { .. } => 16,
                Ch3Pkt::Cts { .. } => 8,
                Ch3Pkt::Data { data, .. } => 8 + data.len(),
                Ch3Pkt::DataAck { .. } => 8,
            }
    }

    /// Binary encoding — used where a transport can only carry opaque
    /// bytes (the legacy netmod path tunnels CH3 packets through
    /// NewMadeleine messages).
    ///
    /// This serialization is the *module-queue copy* of §2.1.3: the payload
    /// bytes are physically duplicated into the encoded frame. The copy is
    /// charged to the payload's [`CopyMeter`] so the copy-discipline tests
    /// can prove the bypass path skips it.
    pub fn encode(&self) -> NmBuf {
        let meter = match self {
            Ch3Pkt::Eager { data, .. } | Ch3Pkt::Data { data, .. } => data.meter().map(Arc::clone),
            _ => None,
        };
        let mut b = BytesMut::with_capacity(33 + 16);
        match self {
            Ch3Pkt::Eager { key, data } => {
                b.extend_from_slice(&[0u8]);
                b.extend_from_slice(&key.to_le_bytes());
                b.extend_from_slice(&(data.len() as u64).to_le_bytes());
                b.extend_from_slice(data);
            }
            Ch3Pkt::Rts { key, rdv_id, len } => {
                b.extend_from_slice(&[1u8]);
                b.extend_from_slice(&key.to_le_bytes());
                b.extend_from_slice(&rdv_id.to_le_bytes());
                b.extend_from_slice(&(*len as u64).to_le_bytes());
            }
            Ch3Pkt::Cts { rdv_id } => {
                b.extend_from_slice(&[2u8]);
                b.extend_from_slice(&rdv_id.to_le_bytes());
            }
            Ch3Pkt::Data {
                rdv_id,
                offset,
                data,
            } => {
                b.extend_from_slice(&[3u8]);
                b.extend_from_slice(&rdv_id.to_le_bytes());
                b.extend_from_slice(&(*offset as u64).to_le_bytes());
                b.extend_from_slice(&(data.len() as u64).to_le_bytes());
                b.extend_from_slice(data);
            }
            Ch3Pkt::DataAck { rdv_id } => {
                b.extend_from_slice(&[4u8]);
                b.extend_from_slice(&rdv_id.to_le_bytes());
            }
        }
        let frame = b.freeze();
        match meter {
            Some(m) => {
                // One fresh allocation plus a memcpy of the whole frame —
                // the tunnel's per-packet cost the bypass avoids.
                m.record_alloc();
                m.record_copy(frame.len());
                NmBuf::adopt(frame, BufOrigin::Ch3, &m)
            }
            None => NmBuf::from_bytes(frame, BufOrigin::Ch3),
        }
    }

    /// Decode [`Ch3Pkt::encode`]'s output. The decoded payload is a
    /// zero-copy view into the encoded frame (a slice-ref, not a memcpy),
    /// and it inherits the frame's meter.
    ///
    /// The frame came off a wire: a truncated header, an unknown variant
    /// or a payload shorter or longer than its length field is `None` —
    /// the caller counts and drops it — never a panic.
    pub fn decode(raw: NmBuf) -> Option<Ch3Pkt> {
        use bytes::Buf;
        let meter = raw.meter().map(Arc::clone);
        let mut raw = raw.into_bytes();
        let payload = |rest: Bytes| match &meter {
            Some(m) => {
                m.record_slice();
                NmBuf::adopt(rest, BufOrigin::Ch3, m)
            }
            None => NmBuf::from_bytes(rest, BufOrigin::Ch3),
        };
        let variant = (!raw.is_empty()).then(|| raw.get_u8())?;
        Some(match variant {
            0 => {
                let (key, len) = (word(&mut raw)?, word(&mut raw)?);
                if raw.len() as u64 != len {
                    return None;
                }
                let data = payload(raw);
                Ch3Pkt::Eager { key, data }
            }
            1 => Ch3Pkt::Rts {
                key: word(&mut raw)?,
                rdv_id: word(&mut raw)?,
                len: word(&mut raw)? as usize,
            },
            2 => Ch3Pkt::Cts {
                rdv_id: word(&mut raw)?,
            },
            3 => {
                let (rdv_id, offset, len) = (word(&mut raw)?, word(&mut raw)?, word(&mut raw)?);
                if raw.len() as u64 != len {
                    return None;
                }
                Ch3Pkt::Data {
                    rdv_id,
                    offset: offset as usize,
                    data: payload(raw),
                }
            }
            4 => Ch3Pkt::DataAck {
                rdv_id: word(&mut raw)?,
            },
            _ => return None,
        })
    }
}

/// The next little-endian `u64` of a frame off a wire, if it has one.
pub(crate) fn word(raw: &mut Bytes) -> Option<u64> {
    use bytes::Buf;
    (raw.len() >= 8).then(|| raw.get_u64_le())
}

/// A completion the engine reports to its caller.
#[derive(Debug)]
pub enum Ch3Event {
    RecvDone {
        req: Req,
        data: Bytes,
        src: usize,
        key: u64,
        /// Was the matched posted entry an ANY_SOURCE one?
        was_any: bool,
    },
    SendDone {
        req: Req,
    },
}

/// One entry of the engine's out-list: what a call wants done, in the
/// order it decided it.
#[derive(Debug)]
pub enum Ch3Out {
    /// Transmit the packet toward rank `.0`.
    Pkt(usize, Ch3Pkt),
    /// Apply a completion to the request table.
    Event(Ch3Event),
}

struct RdvOut {
    req: Req,
    dst: usize,
    data: NmBuf,
    /// Bytes already handed to the transport (ACK-throttled mode).
    cursor: usize,
    /// Protocol-table state of the outbound side. The inbound side needs
    /// no field: a live [`RdvIn`] entry *is* `RWaitData`, its absence is
    /// `Gone` (CH3 never retries, so there is no tombstone).
    state: State,
}

struct RdvIn {
    req: Req,
    src: usize,
    key: u64,
    was_any: bool,
    buf: Vec<u8>,
    received: usize,
}

/// The per-rank CH3 protocol engine.
pub struct Ch3Engine {
    /// The CH3 queue pair (shared with the any-source machinery).
    pub queues: Ch3Queues,
    rdv_out: HashMap<u64, RdvOut>,
    rdv_in: HashMap<(usize, u64), RdvIn>,
    next_rdv: u64,
    /// Packets and completions produced since the last [`Ch3Engine::take_out`].
    out: Vec<Ch3Out>,
    eager_threshold: usize,
    /// Rendezvous payload pipelining: chunk size (None = single DATA).
    rdv_chunk: Option<usize>,
    /// ACK-throttled pipeline: the next fragment only leaves after the
    /// receiver acknowledges the previous one (depth-1, the Open MPI
    /// 1.2-era openib behaviour — the source of its medium-size bandwidth
    /// dip, Fig. 4b).
    rdv_ack: bool,
    /// Copy accounting for the engine's own buffer work (rendezvous
    /// landing buffers, the receive-side reassembly memcpy).
    meter: Option<Arc<CopyMeter>>,
    /// Malformed or stray protocol packets tolerated and dropped (e.g. a
    /// duplicated DATA/CTS for a rendezvous that already finished —
    /// reachable with faults armed — or an RTS announcing a length no
    /// buffer can hold). A counter, not a crash: one bad frame must never
    /// take the rank down.
    protocol_errors: u64,
}

impl Ch3Engine {
    pub fn new(eager_threshold: usize, rdv_chunk: Option<usize>) -> Ch3Engine {
        Self::with_ack(eager_threshold, rdv_chunk, false)
    }

    pub fn with_ack(eager_threshold: usize, rdv_chunk: Option<usize>, rdv_ack: bool) -> Ch3Engine {
        if let Some(c) = rdv_chunk {
            assert!(c > 0, "zero rendezvous chunk");
        }
        assert!(
            !rdv_ack || rdv_chunk.is_some(),
            "ACK throttling requires a chunk size"
        );
        Ch3Engine {
            queues: Ch3Queues::new(),
            rdv_out: HashMap::new(),
            rdv_in: HashMap::new(),
            next_rdv: 0,
            out: Vec::new(),
            eager_threshold,
            rdv_chunk,
            rdv_ack,
            meter: None,
            protocol_errors: 0,
        }
    }

    /// Stray/malformed packets dropped instead of crashing (diagnostics).
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors
    }

    fn note_protocol_error(&mut self) {
        self.protocol_errors += 1;
    }

    /// Attach the job-wide copy meter (builder style — the stack assembles
    /// engines before handing them to `ProcState`).
    pub fn with_copy_meter(mut self, meter: &Arc<CopyMeter>) -> Ch3Engine {
        self.meter = Some(Arc::clone(meter));
        self
    }

    pub fn eager_threshold(&self) -> usize {
        self.eager_threshold
    }

    /// Everything the calls since the last `take_out` asked for, in order.
    /// Call once per entry point, after it, and execute the list.
    pub fn take_out(&mut self) -> Vec<Ch3Out> {
        std::mem::take(&mut self.out)
    }

    /// Is anything waiting for [`Ch3Engine::take_out`]?
    pub fn has_out(&self) -> bool {
        !self.out.is_empty()
    }

    fn send(&mut self, dst: usize, pkt: Ch3Pkt) {
        self.out.push(Ch3Out::Pkt(dst, pkt));
    }

    /// Guard context for the shared protocol table. The CH3 engine is the
    /// *buffered* dialect (the send completes once the payload is handed
    /// to the transport), optionally ACK-throttled, never retried
    /// (transports are trusted in-process), and has no credit layer.
    fn pctx(&self, in_range: bool, last: bool) -> protocol::Ctx {
        protocol::Ctx {
            retry: false,
            ack_mode: self.rdv_ack,
            buffered: true,
            in_range,
            last,
            credit_fallback: false,
        }
    }

    /// Would the next fragment cut from `rdv` be the final one? Answers
    /// the `Last` guard of the throttled pipeline *before* the cursor
    /// moves.
    fn next_is_last(&self, rdv: &RdvOut) -> bool {
        match self.rdv_chunk {
            Some(chunk) => rdv.cursor + chunk >= rdv.data.len(),
            None => true,
        }
    }

    /// Send `data` to `dst` under `key`. Small messages are sent eagerly
    /// (buffered semantics: the send request completes immediately). Large
    /// messages start the CH3 rendezvous; the send completes once the CTS
    /// arrives and the payload is handed to the transport.
    ///
    /// `eager_limit` is per call because it depends on the destination's
    /// transport: the shared-memory channel takes any size eagerly (the
    /// cell queues fragment and flow-control), while network paths use the
    /// engine's configured threshold.
    ///
    /// Returns `true` if the send request `req` is already complete.
    pub fn send_msg(
        &mut self,
        req: Req,
        dst: usize,
        key: u64,
        data: NmBuf,
        eager_limit: usize,
    ) -> bool {
        if data.len() <= eager_limit {
            self.send(dst, Ch3Pkt::Eager { key, data });
            true
        } else {
            // Table entry point: the CH3 engine has no credit layer, so
            // the size test alone forces the rendezvous path.
            let Verdict::Step { actions, next, .. } = protocol::step(
                State::Gone,
                protocol::Event::SendRdv,
                self.pctx(false, false),
            ) else {
                unreachable!("entry/size must be a table row");
            };
            debug_assert!(actions.contains(&Action::SendRts));
            let rdv_id = self.next_rdv;
            self.next_rdv += 1;
            let len = data.len();
            self.rdv_out.insert(
                rdv_id,
                RdvOut {
                    req,
                    dst,
                    data,
                    cursor: 0,
                    state: next,
                },
            );
            self.send(dst, Ch3Pkt::Rts { key, rdv_id, len });
            false
        }
    }

    /// Post a receive; consumes a matching unexpected message if present
    /// (its completion, or the CTS that starts its rendezvous, goes on the
    /// out-list). Returns whether the receive stays posted.
    pub fn post_recv(&mut self, req: Req, src: Option<usize>, key: u64) -> bool {
        match self.queues.post(req, src, key) {
            Ok(()) => return true,
            Err(UnexMsg::Eager {
                src: s,
                key: k,
                data,
            }) => self.out.push(Ch3Out::Event(Ch3Event::RecvDone {
                req,
                // Lineage ends at the user-facing completion.
                data: data.into_bytes(),
                src: s,
                key: k,
                was_any: src.is_none(),
            })),
            Err(UnexMsg::Rts {
                src: s,
                key: k,
                rdv_id,
                len,
            }) => self.begin_rdv_in(req, s, k, src.is_none(), rdv_id, len),
        }
        false
    }

    /// A receive matched an RTS: allocate the landing buffer and answer
    /// with the CTS. `len` is the sender's word: a length no allocation
    /// can satisfy is a counted protocol error — no buffer, no CTS, the
    /// engine lives on (the matched receive stays pending, like one whose
    /// sender never sends).
    fn begin_rdv_in(
        &mut self,
        req: Req,
        src: usize,
        key: u64,
        was_any: bool,
        rdv_id: u64,
        len: usize,
    ) {
        // Table entry point for the receive side; the live entry embodies
        // the `RWaitData` state the table hands back.
        let Verdict::Step { actions, next, .. } = protocol::step(
            State::Gone,
            protocol::Event::RtsMatched,
            self.pctx(false, false),
        ) else {
            unreachable!("entry/rts-matched must be a table row");
        };
        debug_assert!(actions.contains(&Action::AllocLanding));
        debug_assert!(actions.contains(&Action::SendCts));
        debug_assert_eq!(next, State::RWaitData);
        let Some(buf) = protocol::alloc_landing(len) else {
            return self.note_protocol_error();
        };
        if let Some(m) = &self.meter {
            // The rendezvous landing buffer — one allocation, no copy yet.
            m.record_alloc();
        }
        let prev = self.rdv_in.insert(
            (src, rdv_id),
            RdvIn {
                req,
                src,
                key,
                was_any,
                buf,
                received: 0,
            },
        );
        debug_assert!(prev.is_none(), "duplicate CH3 rendezvous {rdv_id}");
        self.send(src, Ch3Pkt::Cts { rdv_id });
    }

    /// Feed one inbound packet through the protocol; reply packets and
    /// completions go on the out-list.
    pub fn on_packet(&mut self, src: usize, pkt: Ch3Pkt) {
        match pkt {
            Ch3Pkt::Eager { key, data } => match self.queues.match_arrival(src, key) {
                Some(entry) => self.out.push(Ch3Out::Event(Ch3Event::RecvDone {
                    req: entry.req,
                    // Zero-copy: the completion hands out the same storage
                    // the transport delivered.
                    data: data.into_bytes(),
                    src,
                    key,
                    was_any: entry.src.is_none(),
                })),
                None => self
                    .queues
                    .store_unexpected(UnexMsg::Eager { src, key, data }),
            },
            Ch3Pkt::Rts { key, rdv_id, len } => match self.queues.match_arrival(src, key) {
                Some(entry) => {
                    self.begin_rdv_in(entry.req, src, key, entry.src.is_none(), rdv_id, len)
                }
                None => self.queues.store_unexpected(UnexMsg::Rts {
                    src,
                    key,
                    rdv_id,
                    len,
                }),
            },
            // Table rows: `cts/buffered` streams everything and completes;
            // `cts/throttled` opens the depth-1 fragment pipeline;
            // `cts/throttled-single-fragment` does both at once. A CTS for
            // an unknown rendezvous (already finished) or a duplicated CTS
            // mid-pipeline has no row — counted and dropped. (The latter
            // used to advance the fragment cursor a second time and
            // double-complete the send.)
            Ch3Pkt::Cts { rdv_id } => self.sender_step(rdv_id, protocol::Event::CtsRx),
            // Table rows: `ack/next-fragment` keeps the depth-1 pipeline
            // moving, `ack/final-fragment` sends the last cut and
            // completes. A stray/duplicated ack (entry gone, or an engine
            // that never throttles) has no row.
            Ch3Pkt::DataAck { rdv_id } => self.sender_step(rdv_id, protocol::Event::DataAckRx),
            Ch3Pkt::Data {
                rdv_id,
                offset,
                data,
            } => {
                // Table rows: `data/chunk` (plain reassembly),
                // `data/chunk-acked` (reassembly + request the next
                // fragment), `data/last` (complete; the last fragment
                // needs no ack — the sender finished with it). A chunk
                // for an unknown rendezvous (already finished: duplicated
                // final chunk, reachable with faults armed) or one past
                // the announced length (would corrupt the landing buffer)
                // has no row — counted and dropped.
                let (state, in_range, last) = match self.rdv_in.get(&(src, rdv_id)) {
                    Some(rdv) => {
                        let end = offset.checked_add(data.len());
                        let in_range = end.is_some_and(|e| e <= rdv.buf.len());
                        let last = in_range && rdv.received + data.len() == rdv.buf.len();
                        (State::RWaitData, in_range, last)
                    }
                    None => (State::Gone, false, false),
                };
                match protocol::step(state, protocol::Event::DataRx, self.pctx(in_range, last)) {
                    Verdict::Step { actions, next, .. } => {
                        let rdv = self
                            .rdv_in
                            .get_mut(&(src, rdv_id))
                            .expect("the table only steps live entries");
                        for a in actions {
                            match a {
                                Action::CopyChunk => {
                                    // The one receive-side reassembly
                                    // memcpy of the CH3 rendezvous (charged
                                    // to the payload's meter).
                                    data.copy_out(&mut rdv.buf[offset..offset + data.len()]);
                                    rdv.received += data.len();
                                }
                                Action::SendDataAck => {
                                    self.out.push(Ch3Out::Pkt(src, Ch3Pkt::DataAck { rdv_id }))
                                }
                                // The table completes via `next == Gone`
                                // below; CH3 has no receive-side timer.
                                Action::CompleteRecv | Action::BumpRecvTimer => {}
                                other => unreachable!("CH3 receiver step emitted {other:?}"),
                            }
                        }
                        if next == State::Gone {
                            let rdv = self.rdv_in.remove(&(src, rdv_id)).expect("stepped above");
                            self.out.push(Ch3Out::Event(Ch3Event::RecvDone {
                                req: rdv.req,
                                data: Bytes::from(rdv.buf),
                                src: rdv.src,
                                key: rdv.key,
                                was_any: rdv.was_any,
                            }));
                        }
                    }
                    Verdict::Ignore { .. } => {}
                    Verdict::Error => self.note_protocol_error(),
                }
            }
        }
    }

    /// One sender-side table step (`CtsRx` or `DataAckRx`) against the
    /// outbound entry `rdv_id`: actions become packets and completions,
    /// and the entry is dropped when the table lands back in `Gone`.
    fn sender_step(&mut self, rdv_id: u64, event: protocol::Event) {
        let (state, last) = match self.rdv_out.get(&rdv_id) {
            Some(rdv) => (rdv.state, self.next_is_last(rdv)),
            None => (State::Gone, false),
        };
        let (actions, next) = match protocol::step(state, event, self.pctx(false, last)) {
            Verdict::Step { actions, next, .. } => (actions, next),
            Verdict::Ignore { .. } => return,
            Verdict::Error => return self.note_protocol_error(),
        };
        let rdv = self
            .rdv_out
            .get_mut(&rdv_id)
            .expect("the table only steps live entries");
        rdv.state = next;
        let mut done = None;
        for a in actions {
            match a {
                Action::SendAllData => {
                    // Buffered semantics: hand the whole payload to
                    // the transport now (chunked if configured).
                    let chunk = self.rdv_chunk.unwrap_or(rdv.data.len().max(1));
                    while rdv.cursor < rdv.data.len() {
                        self.out.push(Self::next_fragment(rdv, rdv_id, chunk));
                    }
                }
                Action::SendNextFragment => {
                    let chunk = self.rdv_chunk.expect("ack mode requires chunking");
                    self.out.push(Self::next_fragment(rdv, rdv_id, chunk));
                }
                Action::CompleteSend => done = Some(rdv.req),
                other => unreachable!("CH3 sender step emitted {other:?}"),
            }
        }
        if next == State::Gone {
            self.rdv_out.remove(&rdv_id);
        }
        if let Some(req) = done {
            self.out.push(Ch3Out::Event(Ch3Event::SendDone { req }));
        }
    }

    /// Cut the next fragment of a rendezvous payload and advance its
    /// cursor. Whether it was the last cut of a throttled pipeline is the
    /// table's call (the `Last` guard), not this helper's.
    fn next_fragment(rdv: &mut RdvOut, rdv_id: u64, chunk: usize) -> Ch3Out {
        let off = rdv.cursor;
        let end = (off + chunk).min(rdv.data.len());
        debug_assert!(off < end, "fragment past the payload end");
        rdv.cursor = end;
        Ch3Out::Pkt(
            rdv.dst,
            Ch3Pkt::Data {
                rdv_id,
                offset: off,
                data: rdv.data.slice(off..end),
            },
        )
    }

    /// In-flight rendezvous count (diagnostics).
    pub fn rdv_in_flight(&self) -> usize {
        self.rdv_out.len() + self.rdv_in.len()
    }
}

#[cfg(test)]
mod explore;
#[cfg(test)]
mod loopback;

#[cfg(test)]
mod tests {
    //! The protocol on the [`loopback`] pair: no simulator, no transport.

    use super::loopback::Pair;
    use super::*;

    #[test]
    fn codec_roundtrip() {
        let pkts = vec![
            Ch3Pkt::Eager {
                key: 7,
                data: NmBuf::from(Bytes::from_static(b"abc")),
            },
            Ch3Pkt::Rts {
                key: 9,
                rdv_id: 3,
                len: 1 << 20,
            },
            Ch3Pkt::Cts { rdv_id: 3 },
            Ch3Pkt::Data {
                rdv_id: 3,
                offset: 512,
                data: NmBuf::from(Bytes::from_static(b"payload")),
            },
        ];
        for p in pkts {
            let enc = p.encode();
            let dec = Ch3Pkt::decode(enc).expect("well-formed frame");
            match (&p, &dec) {
                (Ch3Pkt::Eager { key: a, data: d1 }, Ch3Pkt::Eager { key: b, data: d2 }) => {
                    assert_eq!(a, b);
                    assert_eq!(d1, d2);
                }
                (
                    Ch3Pkt::Rts {
                        key: a,
                        rdv_id: r1,
                        len: l1,
                    },
                    Ch3Pkt::Rts {
                        key: b,
                        rdv_id: r2,
                        len: l2,
                    },
                ) => {
                    assert_eq!((a, r1, l1), (b, r2, l2));
                }
                (Ch3Pkt::Cts { rdv_id: a }, Ch3Pkt::Cts { rdv_id: b }) => assert_eq!(a, b),
                (
                    Ch3Pkt::Data {
                        rdv_id: a,
                        offset: o1,
                        data: d1,
                    },
                    Ch3Pkt::Data {
                        rdv_id: b,
                        offset: o2,
                        data: d2,
                    },
                ) => {
                    assert_eq!((a, o1), (b, o2));
                    assert_eq!(d1, d2);
                }
                _ => panic!("variant changed in roundtrip"),
            }
        }
    }

    #[test]
    fn eager_send_completes_immediately() {
        let mut w = Pair::new(16 * 1024, None, false);
        let (_, done) = w.isend(0, 7, NmBuf::from(Bytes::from_static(b"small")));
        assert!(done);
        assert_eq!(w.crossed.len(), 1);
        assert!(matches!(w.crossed[0], (1, Ch3Pkt::Eager { key: 7, .. })));
    }

    #[test]
    fn rendezvous_full_handshake() {
        let mut w = Pair::new(1024, None, false);
        let payload = NmBuf::from(vec![0x5A; 10_000]);
        let (sreq, done) = w.isend(0, 7, payload.share());
        assert!(!done);
        assert!(w.events.is_empty(), "nothing posted yet: no CTS, no DATA");
        let (rreq, posted) = w.irecv(1, Some(0), 7);
        assert!(!posted, "the waiting RTS matched at once");
        // Sender got SendDone, receiver got RecvDone with intact payload.
        assert_eq!(w.sends_done(), [sreq]);
        let got = w.received();
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].0, &got[0].1[..]), (rreq, &payload[..]));
        // Depth-first execution: the DATA landed before the sender's own
        // completion was applied.
        assert!(matches!(
            w.events[..],
            [
                (1, Ch3Event::RecvDone { src: 0, .. }),
                (0, Ch3Event::SendDone { .. })
            ]
        ));
        assert_eq!(w.engines[0].rdv_in_flight(), 0);
        assert_eq!(w.engines[1].rdv_in_flight(), 0);
    }

    #[test]
    fn rendezvous_chunked_pipeline() {
        // 4KB chunks.
        let mut w = Pair::new(1024, Some(4096), false);
        let payload: Vec<u8> = (0..10_000).map(|i| (i % 256) as u8).collect();
        w.irecv(1, Some(0), 7);
        w.isend(0, 7, NmBuf::from(Bytes::copy_from_slice(&payload)));
        let data_pkts = w
            .crossed
            .iter()
            .filter(|(_, p)| matches!(p, Ch3Pkt::Data { .. }));
        assert_eq!(data_pkts.count(), 3, "10000 bytes in 4096-byte chunks");
        let got = w.received();
        assert_eq!(&got.first().expect("recv completes").1[..], &payload[..]);
    }

    /// Regression: a duplicated final DATA chunk (the "dup'd FIN" of a
    /// fault-armed transport) used to hit `rdv_in.remove().unwrap()` on an
    /// entry the first copy already removed, crashing the rank. It must be
    /// a counted protocol error instead — and the same goes for a
    /// duplicated CTS replayed at the sender after the rendezvous is done.
    #[test]
    fn duplicated_final_data_is_counted_not_a_crash() {
        let mut w = Pair::new(1024, None, false);
        let payload = NmBuf::from(vec![0x7E; 5_000]);
        // Duplicate every DATA and CTS frame — the lossy transport's
        // replay, concentrated on the packets that used to kill the
        // receiver (DATA after completion) and the sender (CTS after the
        // payload left).
        w.copies = Box::new(|p| match p {
            Ch3Pkt::Data { .. } | Ch3Pkt::Cts { .. } => 2,
            _ => 1,
        });
        w.irecv(1, Some(0), 7);
        w.isend(0, 7, payload.share());
        // The transfer still completed exactly once, byte-exact…
        let recvs = w.received();
        assert_eq!(recvs.len(), 1, "exactly one receive completion");
        assert_eq!(&recvs[0].1[..], &payload[..]);
        assert_eq!(w.sends_done().len(), 1, "exactly one send completion");
        // …and the duplicates were tallied, not fatal: the replayed final
        // DATA at the receiver, the replayed CTS at the sender.
        assert!(
            w.engines[1].protocol_errors() >= 1,
            "dup final DATA counted"
        );
        assert!(w.engines[0].protocol_errors() >= 1, "dup CTS counted");
        assert_eq!(w.engines[0].rdv_in_flight(), 0);
        assert_eq!(w.engines[1].rdv_in_flight(), 0);
    }

    /// An out-of-bounds DATA chunk (offset past the announced length) is
    /// dropped and counted, never written.
    #[test]
    fn out_of_bounds_data_chunk_is_dropped() {
        let mut w = Pair::new(64, None, false);
        w.copies = Box::new(|_| 0); // rank 0 is scripted by hand
        w.irecv(1, Some(0), 7);
        w.inject(
            1,
            Ch3Pkt::Rts {
                key: 7,
                rdv_id: 0,
                len: 100,
            },
        );
        w.inject(
            1,
            Ch3Pkt::Data {
                rdv_id: 0,
                offset: 90,
                data: NmBuf::from(vec![0xFF; 50]),
            },
        );
        assert!(w.events.is_empty(), "no completion from the bad chunk");
        assert_eq!(w.engines[1].protocol_errors(), 1);
        assert_eq!(w.engines[1].rdv_in_flight(), 1, "the rendezvous stays live");
    }

    #[test]
    fn unexpected_rts_matched_by_late_any_source_post() {
        let mut w = Pair::new(64, None, false);
        w.inject(
            1,
            Ch3Pkt::Rts {
                key: 7,
                rdv_id: 0,
                len: 100,
            },
        );
        assert!(w.crossed.is_empty(), "no CTS before a receive is posted");
        assert_eq!(w.engines[1].queues.unexpected_len(), 1);
        let (_, posted) = w.irecv(1, None, 7);
        assert!(!posted, "matched immediately, no posted entry");
        assert!(w.events.is_empty());
        assert_eq!(w.crossed.len(), 1, "CTS sent on match");
        assert!(matches!(w.crossed[0], (0, Ch3Pkt::Cts { rdv_id: 0 })));
    }
}
