//! Exhaustive exploration of the CH3 rendezvous on two bare [`Ch3Engine`]s,
//! in each of its three dialects: buffered (one DATA), chunked (every cut
//! at once) and ACK-throttled (one cut per `DataAck`).
//!
//! CH3 has no timers and trusts its transports, so the only choices are
//! the order in which packets in flight arrive and when each send starts
//! and each receive is posted. The engines are not `Clone`: the search
//! rebuilds every state by replaying its path from the root, and walks
//! the whole tree of interleavings.
//!
//! Every edge checks that neither engine counted a protocol error and
//! that every request completed at most once, a receive byte-exact. Every
//! leaf checks that every request completed and that nothing is in
//! flight, in a rendezvous record or in a queue. Across the dialects the
//! table rows CH3 fires (`protocol::take_fired`) are exactly the ones its
//! adapter steps, which include every row guarded on the buffered or the
//! throttled dialect; `nmad`'s `protocol::explore` covers the rest on
//! the nmad engine.

use nmad::protocol::{self, Guard, TABLE};
use simnet::NmBuf;

use super::{Ch3Engine, Ch3Event, Ch3Out, Ch3Pkt};
use crate::request::{Req, ReqKind, ReqPath, RequestTable};

const EAGER: usize = 64;
const CHUNK: usize = 256;

/// A dialect: its name, chunk size, ACK throttling, and the lengths of
/// the message rank 0 sends rank 1 and of the one rank 1 sends back.
type Dialect = (&'static str, Option<usize>, bool, [usize; 2]);

const DIALECTS: [Dialect; 3] = [
    ("buffered", None, false, [600, 300]),
    ("chunked", Some(CHUNK), false, [600, 200]),
    // The way back fits one fragment: the single-fragment CTS row.
    ("throttled", Some(CHUNK), true, [600, 200]),
];

fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|b| (i * 31 + b * 7) as u8).collect()
}

/// Message `i` travels from rank `i` to rank `1 - i` under key `7 + i`.
#[derive(Clone, Copy, Debug)]
enum Move {
    Start(usize),
    Post(usize),
    Deliver(usize),
}

struct World {
    engines: [Ch3Engine; 2],
    reqs: RequestTable,
    lens: [usize; 2],
    /// `(src, dst, packet)` in flight.
    net: Vec<(usize, usize, Ch3Pkt)>,
    sends: [Option<Req>; 2],
    recvs: [Option<Req>; 2],
    sent: [bool; 2],
    received: [bool; 2],
}

impl World {
    /// The state `path` leads to from the root, every edge checked.
    fn replay(&(_, chunk, ack, lens): &Dialect, path: &[Move]) -> Result<World, String> {
        let mut w = World {
            engines: [0, 1].map(|_| Ch3Engine::with_ack(EAGER, chunk, ack)),
            reqs: RequestTable::new(),
            lens,
            net: Vec::new(),
            sends: [None; 2],
            recvs: [None; 2],
            sent: [false; 2],
            received: [false; 2],
        };
        for &mv in path {
            w.apply(mv).map_err(|e| format!("{e}, after {path:?}"))?;
        }
        Ok(w)
    }

    fn moves(&self) -> Vec<Move> {
        let starts = (0..2).filter(|&i| self.sends[i].is_none()).map(Move::Start);
        let posts = (0..2).filter(|&i| self.recvs[i].is_none()).map(Move::Post);
        let deliveries = (0..self.net.len()).map(Move::Deliver);
        starts.chain(posts).chain(deliveries).collect()
    }

    fn apply(&mut self, mv: Move) -> Result<(), String> {
        let rank = match mv {
            Move::Start(i) => {
                let req = self.reqs.create(ReqKind::Send, ReqPath::Net);
                self.sends[i] = Some(req);
                let data = NmBuf::from(payload(i, self.lens[i]));
                let eager = self.engines[i].send_msg(req, 1 - i, 7 + i as u64, data, EAGER);
                assert!(!eager, "every message here is a rendezvous");
                i
            }
            Move::Post(i) => {
                let req = self.reqs.create(ReqKind::Recv, ReqPath::Net);
                self.recvs[i] = Some(req);
                self.engines[1 - i].post_recv(req, Some(i), 7 + i as u64);
                1 - i
            }
            Move::Deliver(j) => {
                let (src, dst, pkt) = self.net.remove(j);
                self.engines[dst].on_packet(src, pkt);
                dst
            }
        };
        for out in self.engines[rank].take_out() {
            match out {
                Ch3Out::Pkt(dst, pkt) => self.net.push((rank, dst, pkt)),
                Ch3Out::Event(e) => self.complete(e)?,
            }
        }
        let errors = self.engines.each_ref().map(Ch3Engine::protocol_errors);
        if errors != [0, 0] {
            return Err(format!("protocol errors counted: {errors:?}"));
        }
        Ok(())
    }

    /// One completion: each request finishes once, a receive byte-exact.
    fn complete(&mut self, e: Ch3Event) -> Result<(), String> {
        let (i, done) = match &e {
            Ch3Event::SendDone { req } => {
                let i = self.sends.iter().position(|r| *r == Some(*req));
                (i, i.map(|i| &mut self.sent[i]))
            }
            Ch3Event::RecvDone { req, data, .. } => {
                let i = self.recvs.iter().position(|r| *r == Some(*req));
                if i.is_some_and(|i| data[..] != payload(i, self.lens[i])[..]) {
                    return Err(format!("receive is not byte-exact: {e:?}"));
                }
                (i, i.map(|i| &mut self.received[i]))
            }
        };
        match done.map(|done| std::mem::replace(done, true)) {
            Some(false) => Ok(()),
            Some(true) => Err(format!("message {i:?} completed twice: {e:?}")),
            None => Err(format!("a completion for no request: {e:?}")),
        }
    }

    fn check_leaf(&self) -> Result<(), String> {
        if self.sent != [true; 2] || self.received != [true; 2] {
            return Err(format!(
                "stranded: sent {:?}, received {:?}",
                self.sent, self.received
            ));
        }
        let held =
            |e: &Ch3Engine| e.rdv_in_flight() + e.queues.unexpected_len() + e.queues.posted_len();
        if !self.net.is_empty() || self.engines.iter().any(|e| held(e) != 0) {
            return Err("a leaf with packets, records or queue entries left".into());
        }
        Ok(())
    }
}

/// Walk every interleaving of `dialect`; returns `(edges, leaves)` and
/// the table rows fired, or the first violation.
fn explore(dialect: &Dialect) -> Result<(usize, usize, u64), String> {
    protocol::take_fired();
    let (mut edges, mut leaves) = (0, 0);
    let mut stack = vec![Vec::new()];
    while let Some(path) = stack.pop() {
        let w = World::replay(dialect, &path)?;
        let moves = w.moves();
        if moves.is_empty() {
            leaves += 1;
            w.check_leaf().map_err(|e| format!("{e}, after {path:?}"))?;
        }
        for mv in moves {
            edges += 1;
            let mut next = path.clone();
            next.push(mv);
            stack.push(next);
        }
    }
    Ok((edges, leaves, protocol::take_fired().0))
}

#[test]
fn every_interleaving_of_each_dialect_completes_and_covers_its_rows() {
    let mut rows = 0;
    for dialect in &DIALECTS {
        let (edges, leaves, fired) =
            explore(dialect).unwrap_or_else(|e| panic!("{}: {e}", dialect.0));
        println!(
            "ch3 explorer — {:<10} edges={edges:>7} leaves={leaves:>6}",
            dialect.0
        );
        assert!(leaves > 0);
        rows |= fired;
    }
    let fired: Vec<_> = (TABLE.iter().enumerate())
        .filter(|(i, _)| rows & 1 << i != 0)
        .map(|(_, t)| t.name)
        .collect();
    let want = [
        "entry/size",
        "entry/rts-matched",
        "cts/buffered",
        "cts/throttled",
        "cts/throttled-single-fragment",
        "ack/next-fragment",
        "ack/final-fragment",
        "data/chunk",
        "data/chunk-acked",
        "data/last",
    ];
    assert_eq!(fired, want);
    let ch3_only = |g: &[Guard]| g.contains(&Guard::Buffered) || g.contains(&Guard::AckMode);
    for t in TABLE.iter().filter(|t| ch3_only(t.guards)) {
        assert!(want.contains(&t.name), "{} is CH3's to cover", t.name);
    }
}
