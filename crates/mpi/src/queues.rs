//! The CH3 posted-receive and unexpected queues.
//!
//! "This pair of queues forms the core of the message passing management in
//! MPICH2" (§3.1.1). In this integration they serve the traffic CH3 still
//! matches itself: intra-node (Nemesis) messages always, and inter-node
//! messages on the non-bypass paths (legacy netmod, tailored baselines).
//! On the bypass path, inter-node matching lives inside NewMadeleine and
//! never touches these queues.
//!
//! Posted entries may carry `src: None` (MPI_ANY_SOURCE). Once the §3.2
//! any-source lists hand such a request to NewMadeleine, whose requests
//! cannot be cancelled, they cancel its CH3 twin here
//! ([`Ch3Queues::cancel`]), so shared memory can no longer match it.

use std::cell::RefCell;
use std::collections::VecDeque;

use simnet::NmBuf;

use crate::request::Req;

/// One entry in the posted-receive queue.
pub struct PostedEntry {
    pub req: Req,
    /// `None` = MPI_ANY_SOURCE.
    pub src: Option<usize>,
    /// `None` = wildcard key (MPI_ANY_TAG over the packed key space).
    pub key: Option<u64>,
}

/// A message that arrived before its receive was posted. Cloning shares
/// the payload handle (refcount bump), it never copies the bytes.
#[derive(Clone, Debug)]
pub enum UnexMsg {
    /// A complete eager payload.
    Eager { src: usize, key: u64, data: NmBuf },
    /// A CH3 rendezvous announcement (payload still on the sender).
    Rts {
        src: usize,
        key: u64,
        rdv_id: u64,
        len: usize,
    },
}

impl UnexMsg {
    pub fn src(&self) -> usize {
        match self {
            UnexMsg::Eager { src, .. } | UnexMsg::Rts { src, .. } => *src,
        }
    }

    pub fn key(&self) -> u64 {
        match self {
            UnexMsg::Eager { key, .. } | UnexMsg::Rts { key, .. } => *key,
        }
    }

    /// Payload bytes this entry keeps alive in the receiver. Only eager
    /// entries buffer payload; an RTS is an announcement — its bytes still
    /// sit on the sender.
    fn buffered_bytes(&self) -> usize {
        match self {
            UnexMsg::Eager { data, .. } => data.len(),
            UnexMsg::Rts { .. } => 0,
        }
    }
}

/// The unexpected queue with incremental byte accounting: current
/// buffered payload bytes and their high-water mark are maintained on
/// every push/consume, never by scanning (the overload diagnostics read
/// them on hot failure-dump and debug paths).
#[derive(Default)]
struct UnexQueue {
    q: VecDeque<UnexMsg>,
    bytes: usize,
    hwm: usize,
}

impl UnexQueue {
    fn push(&mut self, msg: UnexMsg) {
        self.bytes += msg.buffered_bytes();
        self.hwm = self.hwm.max(self.bytes);
        self.q.push_back(msg);
    }

    fn take(&mut self, pos: usize) -> UnexMsg {
        let msg = self.q.remove(pos).expect("position just found");
        self.bytes -= msg.buffered_bytes();
        msg
    }
}

#[derive(Default)]
struct Queues {
    posted: VecDeque<PostedEntry>,
    unexpected: UnexQueue,
}

/// The queue pair: a plain field of [`crate::rank::RankState`], owned by
/// its rank like everything else there.
///
/// Its one cell is there only for the `&self` API: the perf ledger's
/// `benchmark/src/adapter.rs` calls [`Ch3Queues::new`],
/// [`Ch3Queues::post`] and [`Ch3Queues::match_arrival`] through `&self`,
/// and `benchmark/` changes only in a `[benchmark]` PR (ROADMAP, "the
/// benchmark contract"). No borrow of it outlives a method call.
#[derive(Default)]
pub struct Ch3Queues {
    q: RefCell<Queues>,
}

impl Ch3Queues {
    pub fn new() -> Ch3Queues {
        Ch3Queues::default()
    }

    /// Post a receive. If an unexpected message already matches, it is
    /// consumed and returned instead (the caller completes the receive or
    /// starts the rendezvous); otherwise the receive stays posted.
    pub fn post(&self, req: Req, src: Option<usize>, key: u64) -> Result<(), UnexMsg> {
        self.post_filtered(req, src, Some(key))
    }

    /// Post a receive whose key is a wildcard (MPI_ANY_TAG over the
    /// packed key space): any key from a matching source satisfies it.
    pub fn post_any_key(&self, req: Req, src: Option<usize>) -> Result<(), UnexMsg> {
        self.post_filtered(req, src, None)
    }

    fn post_filtered(&self, req: Req, src: Option<usize>, key: Option<u64>) -> Result<(), UnexMsg> {
        let q = &mut *self.q.borrow_mut();
        if let Some(pos) = q
            .unexpected
            .q
            .iter()
            .position(|m| key.is_none_or(|k| k == m.key()) && src.is_none_or(|s| s == m.src()))
        {
            return Err(q.unexpected.take(pos));
        }
        q.posted.push_back(PostedEntry { req, src, key });
        Ok(())
    }

    /// An envelope arrived from `src` with `key`: match it against the
    /// posted queue (in post order) or return `None` after the caller
    /// should store it unexpected.
    pub fn match_arrival(&self, src: usize, key: u64) -> Option<PostedEntry> {
        let posted = &mut self.q.borrow_mut().posted;
        let pos = posted
            .iter()
            .position(|e| e.key.is_none_or(|k| k == key) && e.src.is_none_or(|s| s == src))?;
        posted.remove(pos)
    }

    /// Withdraw `req`'s posted entry, if it is still posted: the §3.2
    /// lists handed the receive to NewMadeleine, so no CH3 arrival may
    /// match it any more.
    pub fn cancel(&self, req: Req) {
        self.q.borrow_mut().posted.retain(|e| e.req != req);
    }

    /// Store an unmatched arrival.
    pub fn store_unexpected(&self, msg: UnexMsg) {
        self.q.borrow_mut().unexpected.push(msg);
    }

    /// Is any unexpected message with `key` queued (any source)? Returns
    /// the earliest one's source.
    pub fn probe_key(&self, key: u64) -> Option<usize> {
        self.probe(None, key).map(|(src, _)| src)
    }

    /// MPI_Iprobe over the unexpected queue: the earliest message matching
    /// `(src, key)` (src `None` = ANY_SOURCE), as `(source, payload_len)`.
    pub fn probe(&self, src: Option<usize>, key: u64) -> Option<(usize, usize)> {
        self.q
            .borrow()
            .unexpected
            .q
            .iter()
            .find(|m| m.key() == key && src.is_none_or(|s| s == m.src()))
            .map(|m| {
                let len = match m {
                    UnexMsg::Eager { data, .. } => data.len(),
                    UnexMsg::Rts { len, .. } => *len,
                };
                (m.src(), len)
            })
    }

    pub fn posted_len(&self) -> usize {
        self.q.borrow().posted.len()
    }

    pub fn unexpected_len(&self) -> usize {
        self.q.borrow().unexpected.q.len()
    }

    /// Payload bytes the unexpected queue currently buffers (incremental,
    /// not a scan).
    pub fn unexpected_bytes(&self) -> usize {
        self.q.borrow().unexpected.bytes
    }

    /// High-water mark of [`Ch3Queues::unexpected_bytes`] over this
    /// queue's lifetime.
    pub fn unexpected_hwm(&self) -> usize {
        self.q.borrow().unexpected.hwm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ReqKind, ReqPath, RequestTable};

    fn req(t: &mut RequestTable) -> Req {
        t.create(ReqKind::Recv, ReqPath::Shm)
    }

    fn eager(src: usize, key: u64) -> UnexMsg {
        UnexMsg::Eager {
            src,
            key,
            data: NmBuf::from(bytes::Bytes::from_static(b"m")),
        }
    }

    #[test]
    fn post_then_arrival() {
        let mut t = RequestTable::new();
        let q = Ch3Queues::new();
        let r = req(&mut t);
        q.post(r, Some(2), 7).expect("no unexpected yet");
        assert_eq!(q.posted_len(), 1);
        let hit = q.match_arrival(2, 7).expect("must match");
        assert_eq!(hit.req, r);
        assert_eq!(q.posted_len(), 0);
    }

    #[test]
    fn arrival_then_post() {
        let mut t = RequestTable::new();
        let q = Ch3Queues::new();
        q.store_unexpected(eager(2, 7));
        match q.post(req(&mut t), Some(2), 7) {
            Err(UnexMsg::Eager { src: 2, key: 7, .. }) => {}
            other => panic!("expected unexpected hit, got {:?}", other.is_ok()),
        }
        assert_eq!(q.unexpected_len(), 0);
    }

    #[test]
    fn any_source_posted_matches_any_arrival() {
        let mut t = RequestTable::new();
        let q = Ch3Queues::new();
        let r = req(&mut t);
        q.post(r, None, 7).unwrap();
        let hit = q.match_arrival(5, 7).unwrap();
        assert_eq!(hit.req, r);
        assert!(hit.src.is_none());
    }

    #[test]
    fn any_source_post_consumes_earliest_unexpected() {
        let mut t = RequestTable::new();
        let q = Ch3Queues::new();
        q.store_unexpected(eager(3, 7));
        q.store_unexpected(eager(1, 7));
        match q.post(req(&mut t), None, 7) {
            Err(m) => assert_eq!(m.src(), 3, "earliest arrival wins"),
            Ok(_) => panic!("should hit unexpected"),
        }
    }

    #[test]
    fn posted_order_determines_matching() {
        let mut t = RequestTable::new();
        let q = Ch3Queues::new();
        let r_any = req(&mut t);
        let r_spec = req(&mut t);
        q.post(r_any, None, 7).unwrap();
        q.post(r_spec, Some(4), 7).unwrap();
        // Arrival from 4 matches the EARLIER any-source post.
        assert_eq!(q.match_arrival(4, 7).unwrap().req, r_any);
        assert_eq!(q.match_arrival(4, 7).unwrap().req, r_spec);
    }

    #[test]
    fn cancelled_entries_are_never_matched() {
        let mut t = RequestTable::new();
        let q = Ch3Queues::new();
        let r1 = req(&mut t);
        let r2 = req(&mut t);
        q.post(r1, None, 7).unwrap();
        q.post(r2, Some(4), 7).unwrap();
        q.cancel(r1);
        assert_eq!(q.posted_len(), 1, "the cancelled entry is gone at once");
        assert_eq!(q.match_arrival(4, 7).unwrap().req, r2);
        q.cancel(r2);
        assert_eq!(q.posted_len(), 0, "cancelling a matched entry is a no-op");
    }

    #[test]
    fn probe_key_sees_unexpected() {
        let q = Ch3Queues::new();
        assert_eq!(q.probe_key(7), None);
        q.store_unexpected(eager(9, 7));
        assert_eq!(q.probe_key(7), Some(9));
        assert_eq!(q.probe_key(8), None);
    }

    #[test]
    fn unexpected_bytes_track_pushes_and_consumes() {
        let mut t = RequestTable::new();
        let q = Ch3Queues::new();
        assert_eq!((q.unexpected_bytes(), q.unexpected_hwm()), (0, 0));
        let payload = |n: usize| UnexMsg::Eager {
            src: 1,
            key: 7,
            data: NmBuf::from(bytes::Bytes::from(vec![0u8; n])),
        };
        q.store_unexpected(payload(100));
        q.store_unexpected(payload(50));
        // An RTS announcement buffers no payload on the receiver.
        q.store_unexpected(UnexMsg::Rts {
            src: 1,
            key: 8,
            rdv_id: 1,
            len: 1 << 20,
        });
        assert_eq!(q.unexpected_bytes(), 150);
        assert_eq!(q.unexpected_hwm(), 150);
        q.post(req(&mut t), Some(1), 7)
            .expect_err("consumes 100B eager");
        assert_eq!(q.unexpected_bytes(), 50);
        assert_eq!(q.unexpected_hwm(), 150, "high-water mark is sticky");
        q.post(req(&mut t), Some(1), 8)
            .expect_err("consumes the RTS");
        assert_eq!(q.unexpected_bytes(), 50, "RTS consume moves no bytes");
    }

    #[test]
    fn key_isolation() {
        let mut t = RequestTable::new();
        let q = Ch3Queues::new();
        q.post(req(&mut t), Some(1), 7).unwrap();
        assert!(q.match_arrival(1, 8).is_none());
        q.store_unexpected(eager(1, 8));
        assert_eq!(q.unexpected_len(), 1);
    }
}
