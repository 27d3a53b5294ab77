//! CH3 with nothing around it: two [`Ch3Engine`]s joined back to back
//! through their out-lists. No simulator, no transport, no lock — the
//! mirror of `nmad::engine::loopback` one layer up, and the whole
//! contract between a CH3 engine and whatever drives it in one page:
//! after each call, take the out-list and execute it in order — a
//! `Pkt(dst, ..)` becomes the peer's `on_packet`, an `Event` is applied to
//! the request table (here: logged).

use bytes::Bytes;
use simnet::NmBuf;

use super::{Ch3Engine, Ch3Event, Ch3Out, Ch3Pkt};
use crate::request::{Req, ReqKind, ReqPath, RequestTable};

/// Two engines (ranks 0 and 1) and the wire between them.
pub(crate) struct Pair {
    pub engines: [Ch3Engine; 2],
    /// Hands out request ids, as a rank's table would.
    pub reqs: RequestTable,
    /// How many copies of this packet arrive: 0 loses it, 2 duplicates it.
    pub copies: Box<dyn FnMut(&Ch3Pkt) -> usize>,
    /// Every packet that crossed, as `(dst, packet)`, copies included.
    pub crossed: Vec<(usize, Ch3Pkt)>,
    /// Every completion, as `(rank it happened on, event)`.
    pub events: Vec<(usize, Ch3Event)>,
}

impl Pair {
    /// A faultless pair; `chunk`/`ack` choose the rendezvous dialect.
    pub fn new(eager_threshold: usize, chunk: Option<usize>, ack: bool) -> Pair {
        Pair {
            engines: [0, 1].map(|_| Ch3Engine::with_ack(eager_threshold, chunk, ack)),
            reqs: RequestTable::new(),
            copies: Box::new(|_| 1),
            crossed: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Rank `from` sends `data` to its peer; returns the request and
    /// whether it is already complete.
    pub fn isend(&mut self, from: usize, key: u64, data: impl Into<NmBuf>) -> (Req, bool) {
        let req = self.reqs.create(ReqKind::Send, ReqPath::Net);
        let limit = self.engines[from].eager_threshold();
        let done = self.engines[from].send_msg(req, 1 - from, key, data.into(), limit);
        self.pump(from);
        (req, done)
    }

    /// Rank `at` posts a receive (`src` `None` = ANY_SOURCE); returns the
    /// request and whether it stays posted.
    pub fn irecv(&mut self, at: usize, src: Option<usize>, key: u64) -> (Req, bool) {
        let kind = if src.is_some() {
            ReqKind::Recv
        } else {
            ReqKind::RecvAnySource
        };
        let req = self.reqs.create(kind, ReqPath::Net);
        let posted = self.engines[at].post_recv(req, src, key);
        self.pump(at);
        (req, posted)
    }

    /// Feed `pkt` to rank `at` as if from its peer, and execute what that
    /// produces.
    pub fn inject(&mut self, at: usize, pkt: Ch3Pkt) {
        self.engines[at].on_packet(1 - at, pkt);
        self.pump(at);
    }

    /// The executor: perform rank `from`'s out-list in order, and whatever
    /// the deliveries produce in turn.
    pub fn pump(&mut self, from: usize) {
        for out in self.engines[from].take_out() {
            match out {
                Ch3Out::Event(e) => self.events.push((from, e)),
                Ch3Out::Pkt(dst, pkt) => {
                    for _ in 0..(self.copies)(&pkt) {
                        self.crossed.push((dst, pkt.clone()));
                        self.engines[dst].on_packet(from, pkt.clone());
                        self.pump(dst);
                    }
                }
            }
        }
    }

    /// Payloads of the receive completions seen so far, as `(req, bytes)`.
    pub fn received(&self) -> Vec<(Req, &Bytes)> {
        let recvs = self.events.iter().filter_map(|(_, e)| match e {
            Ch3Event::RecvDone { req, data, .. } => Some((*req, data)),
            Ch3Event::SendDone { .. } => None,
        });
        recvs.collect()
    }

    /// Requests whose send completed through an event (rendezvous sends;
    /// eager ones complete inside `isend`).
    pub fn sends_done(&self) -> Vec<Req> {
        let sends = self.events.iter().filter_map(|(_, e)| match e {
            Ch3Event::SendDone { req } => Some(*req),
            Ch3Event::RecvDone { .. } => None,
        });
        sends.collect()
    }

    fn data_packets(&self) -> usize {
        let is_data = |(_, p): &&(usize, Ch3Pkt)| matches!(p, Ch3Pkt::Data { .. });
        self.crossed.iter().filter(is_data).count()
    }
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

#[test]
fn an_eager_message_posted_first_or_unexpected_first_completes_once() {
    let mut w = Pair::new(1024, None, false);
    // Posted first: the arrival matches and completes.
    let (r1, posted) = w.irecv(1, Some(0), 7);
    assert!(posted, "pending: the posted entry is live");
    let (_, done) = w.isend(0, 7, pattern(100));
    assert!(done, "eager sends are buffered");
    // Unexpected first: the message waits in the queue for its receive.
    w.isend(0, 8, pattern(200));
    assert_eq!(w.engines[1].queues.unexpected_len(), 1);
    let (r2, posted) = w.irecv(1, Some(0), 8);
    assert!(!posted, "matched at once, nothing posted");
    assert_eq!(w.engines[1].queues.unexpected_len(), 0);
    let got = w.received();
    assert_eq!(got.len(), 2);
    assert_eq!((got[0].0, &got[0].1[..]), (r1, &pattern(100)[..]));
    assert_eq!((got[1].0, &got[1].1[..]), (r2, &pattern(200)[..]));
    assert_eq!(w.crossed.len(), 2, "two eager packets, nothing else");
}

/// The three rendezvous dialects move the same bytes with different
/// packet counts: one DATA; ⌈len/chunk⌉ DATAs back to back; the same cuts
/// one at a time, each but the last acknowledged.
#[test]
fn rendezvous_in_all_three_dialects() {
    let payload = pattern(10_000);
    for (chunk, ack, data_pkts, acks) in [
        (None, false, 1, 0),
        (Some(4096), false, 3, 0),
        (Some(4096), true, 3, 2),
    ] {
        for posted_first in [true, false] {
            let mut w = Pair::new(1024, chunk, ack);
            let mut rreq = None;
            if posted_first {
                rreq = Some(w.irecv(1, Some(0), 7).0);
            }
            let (sreq, done) = w.isend(0, 7, payload.clone());
            assert!(!done, "a rendezvous send waits for the CTS");
            if !posted_first {
                assert!(w.sends_done().is_empty(), "no CTS before the receive");
                rreq = Some(w.irecv(1, Some(0), 7).0);
            }
            assert_eq!(w.sends_done(), [sreq]);
            let got = w.received();
            assert_eq!(got.len(), 1);
            assert_eq!((got[0].0, &got[0].1[..]), (rreq.unwrap(), &payload[..]));
            assert_eq!(w.data_packets(), data_pkts, "chunk {chunk:?} ack {ack}");
            let is_ack = |(_, p): &&(usize, Ch3Pkt)| matches!(p, Ch3Pkt::DataAck { .. });
            assert_eq!(w.crossed.iter().filter(is_ack).count(), acks);
            assert_eq!(
                w.engines[0].rdv_in_flight() + w.engines[1].rdv_in_flight(),
                0
            );
            assert_eq!(
                w.engines[0].protocol_errors() + w.engines[1].protocol_errors(),
                0
            );
        }
    }
}

/// A duplicated ack mid-pipeline must not cut a second fragment.
#[test]
fn a_duplicated_data_ack_is_counted_and_the_pipeline_stays_in_step() {
    let payload = pattern(10_000);
    let mut w = Pair::new(1024, Some(4096), true);
    w.copies = Box::new(|p| {
        if matches!(p, Ch3Pkt::DataAck { .. }) {
            2
        } else {
            1
        }
    });
    let (rreq, _) = w.irecv(1, Some(0), 7);
    let (sreq, _) = w.isend(0, 7, payload.clone());
    assert_eq!(w.sends_done(), [sreq], "completed exactly once");
    let got = w.received();
    assert_eq!(
        (got.len(), got[0].0, &got[0].1[..]),
        (1, rreq, &payload[..])
    );
    assert_eq!(w.data_packets(), 3, "no fragment was cut twice");
    assert!(
        w.engines[0].protocol_errors() >= 1,
        "the replayed ack is counted"
    );
}

/// A forged RTS (in-job source, well-formed frame) announcing a length no
/// allocation can satisfy used to reach `vec![0u8; len]` — a
/// capacity-overflow panic. It is a counted error: no landing buffer, no
/// CTS, and the flows around it neither see nor count a difference.
#[test]
fn a_forged_rts_length_is_a_counted_error_not_an_allocation() {
    let meter = simnet::CopyMeter::new();
    for posted_first in [true, false] {
        let mut w = Pair::new(1024, None, false);
        w.engines = w.engines.map(|e| e.with_copy_meter(&meter));
        let allocs_before = meter.snapshot().allocations;
        let forged = Ch3Pkt::Rts {
            key: 66,
            rdv_id: 900,
            len: u64::MAX as usize,
        };
        if posted_first {
            w.irecv(1, Some(0), 66);
            w.inject(1, forged);
        } else {
            w.inject(1, forged);
            w.irecv(1, None, 66);
        }
        assert_eq!(w.engines[1].protocol_errors(), 1);
        assert_eq!(w.engines[1].rdv_in_flight(), 0, "no landing buffer");
        assert_eq!(meter.snapshot().allocations, allocs_before);
        assert!(w.crossed.is_empty(), "no CTS left");
        assert!(w.events.is_empty());
        // An unrelated rendezvous and an eager message still complete.
        let (r1, _) = w.irecv(1, Some(0), 7);
        let (r2, _) = w.irecv(1, Some(0), 8);
        w.isend(0, 7, pattern(5_000));
        w.isend(0, 8, pattern(10));
        let got = w.received();
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].0, &got[0].1[..]), (r1, &pattern(5_000)[..]));
        assert_eq!((got[1].0, &got[1].1[..]), (r2, &pattern(10)[..]));
        assert_eq!(
            w.engines[1].protocol_errors(),
            1,
            "and nothing else counted"
        );
    }
}

fn frame(bytes: &[u8]) -> NmBuf {
    NmBuf::from(Bytes::copy_from_slice(bytes))
}

/// `decode` takes bytes off a wire: whatever they are, the answer is a
/// packet or `None`.
#[test]
fn decode_refuses_truncated_unknown_and_mislengthed_frames() {
    let samples = [
        Ch3Pkt::Eager {
            key: 7,
            data: NmBuf::from(pattern(5)),
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
            data: NmBuf::from(pattern(7)),
        },
        Ch3Pkt::DataAck { rdv_id: 3 },
    ];
    for pkt in &samples {
        let whole = pkt.encode();
        assert!(Ch3Pkt::decode(whole.share()).is_some());
        // Every proper prefix is a truncated frame.
        for cut in 0..whole.len() {
            assert!(
                Ch3Pkt::decode(frame(&whole[..cut])).is_none(),
                "{pkt:?} cut at {cut}"
            );
        }
    }
    for variant in 5..=255u8 {
        let mut raw = vec![variant];
        raw.extend_from_slice(&[0u8; 32]);
        assert!(Ch3Pkt::decode(frame(&raw)).is_none(), "variant {variant}");
    }
    // Length field and payload disagree, either way.
    for pkt in [&samples[0], &samples[3]] {
        let mut long = pkt.encode().to_vec();
        long.push(0xEE);
        assert!(
            Ch3Pkt::decode(frame(&long)).is_none(),
            "payload longer than announced"
        );
    }
}
