//! The CH3 posted-receive and unexpected queues.
//!
//! "This pair of queues forms the core of the message passing management in
//! MPICH2" (§3.1.1). In this integration they serve the traffic CH3 still
//! matches itself: intra-node (Nemesis) messages always, and inter-node
//! messages on the non-bypass paths (legacy netmod, tailored baselines).
//! On the bypass path, inter-node matching lives inside NewMadeleine and
//! never touches these queues.
//!
//! Posted entries may carry `src: None` (MPI_ANY_SOURCE) and an *active*
//! flag shared with the §3.2 any-source lists: once the list machinery
//! hands an any-source request to NewMadeleine, its CH3 entry is
//! deactivated (lazily skipped) because the NewMadeleine request cannot be
//! cancelled.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::NmBuf;

use crate::request::Req;

/// Shared liveness flag of a posted entry (see module docs).
pub type ActiveFlag = Arc<AtomicBool>;

/// Switch a posted entry off: matching skips (and collects) it from now on.
pub fn deactivate(flag: &ActiveFlag) {
    flag.store(false, Ordering::Release);
}

/// Is the posted entry behind `flag` still matchable?
pub fn is_active(flag: &ActiveFlag) -> bool {
    flag.load(Ordering::Acquire)
}

/// One entry in the posted-receive queue.
pub struct PostedEntry {
    pub req: Req,
    /// `None` = MPI_ANY_SOURCE.
    pub src: Option<usize>,
    /// `None` = wildcard key (MPI_ANY_TAG over the packed key space).
    pub key: Option<u64>,
    pub active: ActiveFlag,
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

/// The queue pair.
///
/// The one stated exception to mpi-ch3's one-owner rule (DESIGN.md §5):
/// everything else a rank's MPI library mutates is a plain field of
/// [`crate::rank::RankState`] behind `ProcState`'s single lock, but this
/// type keeps its `&self` API and its two internal locks, because the
/// perf ledger's `benchmark/src/adapter.rs` calls [`Ch3Queues::new`],
/// [`Ch3Queues::post`] and [`Ch3Queues::match_arrival`] through `&self`
/// and `benchmark/` changes only in a `[benchmark]` PR (ROADMAP, "the
/// benchmark contract"). Inside a rank both locks are only ever taken
/// with the rank's lock already held, so they never contend.
#[derive(Default)]
pub struct Ch3Queues {
    posted: Mutex<VecDeque<PostedEntry>>,
    unexpected: Mutex<UnexQueue>,
}

impl Ch3Queues {
    pub fn new() -> Ch3Queues {
        Ch3Queues::default()
    }

    /// Post a receive. If an unexpected message already matches, it is
    /// consumed and returned instead (the caller completes the receive or
    /// starts the rendezvous). Returns the entry's active flag otherwise.
    pub fn post(&self, req: Req, src: Option<usize>, key: u64) -> Result<ActiveFlag, UnexMsg> {
        self.post_filtered(req, src, Some(key))
    }

    /// Post a receive whose key is a wildcard (MPI_ANY_TAG over the
    /// packed key space): any key from a matching source satisfies it.
    pub fn post_any_key(&self, req: Req, src: Option<usize>) -> Result<ActiveFlag, UnexMsg> {
        self.post_filtered(req, src, None)
    }

    fn post_filtered(
        &self,
        req: Req,
        src: Option<usize>,
        key: Option<u64>,
    ) -> Result<ActiveFlag, UnexMsg> {
        {
            let mut unexpected = self.unexpected.lock();
            if let Some(pos) = unexpected
                .q
                .iter()
                .position(|m| key.is_none_or(|k| k == m.key()) && src.is_none_or(|s| s == m.src()))
            {
                return Err(unexpected.take(pos));
            }
        }
        let active: ActiveFlag = Arc::new(AtomicBool::new(true));
        self.posted.lock().push_back(PostedEntry {
            req,
            src,
            key,
            active: Arc::clone(&active),
        });
        Ok(active)
    }

    /// An envelope arrived from `src` with `key`: match it against the
    /// posted queue (in post order, skipping deactivated entries) or return
    /// `None` after the caller should store it unexpected.
    pub fn match_arrival(&self, src: usize, key: u64) -> Option<PostedEntry> {
        let mut posted = self.posted.lock();
        // Garbage-collect deactivated entries as we scan.
        let mut i = 0;
        while i < posted.len() {
            let e = &posted[i];
            if !is_active(&e.active) {
                posted.remove(i);
                continue;
            }
            if e.key.is_none_or(|k| k == key) && e.src.is_none_or(|s| s == src) {
                return posted.remove(i);
            }
            i += 1;
        }
        None
    }

    /// Store an unmatched arrival.
    pub fn store_unexpected(&self, msg: UnexMsg) {
        self.unexpected.lock().push(msg);
    }

    /// Is any unexpected message with `key` queued (any source)? Returns
    /// the earliest one's source.
    pub fn probe_key(&self, key: u64) -> Option<usize> {
        self.probe(None, key).map(|(src, _)| src)
    }

    /// MPI_Iprobe over the unexpected queue: the earliest message matching
    /// `(src, key)` (src `None` = ANY_SOURCE), as `(source, payload_len)`.
    pub fn probe(&self, src: Option<usize>, key: u64) -> Option<(usize, usize)> {
        self.unexpected
            .lock()
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
        self.posted
            .lock()
            .iter()
            .filter(|e| is_active(&e.active))
            .count()
    }

    pub fn unexpected_len(&self) -> usize {
        self.unexpected.lock().q.len()
    }

    /// Payload bytes the unexpected queue currently buffers (incremental,
    /// not a scan).
    pub fn unexpected_bytes(&self) -> usize {
        self.unexpected.lock().bytes
    }

    /// High-water mark of [`Ch3Queues::unexpected_bytes`] over this
    /// queue's lifetime.
    pub fn unexpected_hwm(&self) -> usize {
        self.unexpected.lock().hwm
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
    fn deactivated_entries_are_skipped_and_collected() {
        let mut t = RequestTable::new();
        let q = Ch3Queues::new();
        let r1 = req(&mut t);
        let r2 = req(&mut t);
        let flag = q.post(r1, None, 7).unwrap();
        q.post(r2, Some(4), 7).unwrap();
        deactivate(&flag);
        assert_eq!(q.match_arrival(4, 7).unwrap().req, r2);
        assert_eq!(q.posted_len(), 0, "dead entry collected");
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
