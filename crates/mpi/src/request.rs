//! ADI3 request objects.
//!
//! "In the MPICH2 implementation, each communication is managed with a
//! request object … we added a new field to the Nemesis-specific portion of
//! the MPICH2 request which points to the corresponding NewMadeleine
//! request" (§3.1.1). `Slot::nmad_req` is that field; conversely the
//! NewMadeleine request carries the MPI request index as its cookie, so the
//! two can always find each other.

use bytes::Bytes;

use crate::api::Status;

/// An MPI request handle, as returned by `MPI_Isend`/`MPI_Irecv`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Req(pub u32);

/// What kind of operation a request tracks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReqKind {
    Send,
    Recv,
    /// Receive posted with MPI_ANY_SOURCE (drives the §3.2 machinery and
    /// the 300 ns completion surcharge).
    RecvAnySource,
}

/// Where the request's traffic flows (decides which completion costs the
/// wait loop charges).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReqPath {
    Shm,
    Net,
    SelfLoop,
    /// Not yet known (ANY_SOURCE before matching).
    Unknown,
}

/// The NewMadeleine request a CH3 request is bound to, if any.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NmadBinding {
    None,
    Send(nmad::SendReqId),
    Recv(nmad::RecvReqId),
}

pub(crate) struct Slot {
    pub kind: ReqKind,
    pub done: bool,
    /// Completion observed (and costs charged) by a wait/test on the rank
    /// thread.
    pub charged: bool,
    pub data: Option<Bytes>,
    pub status: Option<Status>,
    pub path: ReqPath,
    /// The §3.1.1 pointer to the NewMadeleine request.
    pub nmad_req: NmadBinding,
    /// `Some(peer)` when the request completed *with an error* because
    /// `peer` was declared dead (the §2.2.1 no-cancel rule: requests are
    /// never silently dropped, they finish — possibly unsuccessfully).
    pub failed_peer: Option<usize>,
    /// `Some(epoch)` when the request completed *with an error* because
    /// its communication epoch was revoked. Distinguishes "the comm was
    /// torn down" from "the peer died" so callers can react differently
    /// (rebuild vs. exclude). May coexist with `failed_peer`.
    pub revoked_epoch: Option<u8>,
}

/// The per-process request table: a plain value, owned by the rank's
/// [`crate::rank::RankState`] (whose one lock is the only one it ever
/// sits behind).
#[derive(Default)]
pub struct RequestTable {
    slots: Vec<Slot>,
}

impl RequestTable {
    pub fn new() -> RequestTable {
        RequestTable::default()
    }

    pub fn create(&mut self, kind: ReqKind, path: ReqPath) -> Req {
        let id = Req(self.slots.len() as u32);
        self.slots.push(Slot {
            kind,
            done: false,
            charged: false,
            data: None,
            status: None,
            path,
            nmad_req: NmadBinding::None,
            failed_peer: None,
            revoked_epoch: None,
        });
        id
    }

    pub fn bind_nmad(&mut self, req: Req, binding: NmadBinding) {
        self.slots[req.0 as usize].nmad_req = binding;
    }

    pub fn nmad_binding(&self, req: Req) -> NmadBinding {
        self.slots[req.0 as usize].nmad_req
    }

    pub fn set_path(&mut self, req: Req, path: ReqPath) {
        self.slots[req.0 as usize].path = path;
    }

    /// Mark a send complete.
    pub fn complete_send(&mut self, req: Req) {
        let s = &mut self.slots[req.0 as usize];
        debug_assert_eq!(s.kind, ReqKind::Send);
        debug_assert!(!s.done, "double send completion");
        s.done = true;
    }

    /// Mark a receive complete with its payload and envelope.
    pub fn complete_recv(&mut self, req: Req, data: Bytes, status: Status) {
        let s = &mut self.slots[req.0 as usize];
        debug_assert!(matches!(s.kind, ReqKind::Recv | ReqKind::RecvAnySource));
        debug_assert!(!s.done, "double recv completion");
        s.done = true;
        s.data = Some(data);
        s.status = Some(status);
    }

    /// Complete a send *with an error*: its destination was declared dead
    /// before the transfer could finish. The request is done (waiters
    /// unblock) but carries no status; `failed_peer` names the corpse.
    pub fn complete_send_failed(&mut self, req: Req, peer: usize) {
        let s = &mut self.slots[req.0 as usize];
        debug_assert_eq!(s.kind, ReqKind::Send);
        debug_assert!(!s.done, "double send completion");
        s.done = true;
        s.failed_peer = Some(peer);
    }

    /// Complete a receive *with an error*: its (specific) source was
    /// declared dead and the membership drain aborted the operation. No
    /// data, no status — just a terminal, queryable failure.
    pub fn complete_recv_failed(&mut self, req: Req, peer: usize) {
        let s = &mut self.slots[req.0 as usize];
        debug_assert!(matches!(s.kind, ReqKind::Recv | ReqKind::RecvAnySource));
        debug_assert!(!s.done, "double recv completion");
        s.done = true;
        s.failed_peer = Some(peer);
    }

    /// Complete a send *with an error* because epoch `epoch` was revoked
    /// (ULFM-style comm teardown). `peer` names the destination so the
    /// generic dead-peer plumbing still unblocks waiters; `revoked_epoch`
    /// records the real cause.
    pub fn complete_send_revoked(&mut self, req: Req, peer: usize, epoch: u8) {
        let s = &mut self.slots[req.0 as usize];
        debug_assert_eq!(s.kind, ReqKind::Send);
        debug_assert!(!s.done, "double send completion");
        s.done = true;
        s.failed_peer = Some(peer);
        s.revoked_epoch = Some(epoch);
    }

    /// Complete a receive *with an error* because its epoch was revoked.
    pub fn complete_recv_revoked(&mut self, req: Req, peer: usize, epoch: u8) {
        let s = &mut self.slots[req.0 as usize];
        debug_assert!(matches!(s.kind, ReqKind::Recv | ReqKind::RecvAnySource));
        debug_assert!(!s.done, "double recv completion");
        s.done = true;
        s.failed_peer = Some(peer);
        s.revoked_epoch = Some(epoch);
    }

    /// Did the request complete with a dead-peer error? `Some(peer)` after
    /// a failed completion; `None` while pending or after success.
    pub fn failed_peer(&self, req: Req) -> Option<usize> {
        self.slots[req.0 as usize].failed_peer
    }

    /// Did the request fail because its epoch was revoked? `Some(epoch)`
    /// after a revoked completion; `None` while pending, after success, or
    /// after a plain dead-peer failure.
    pub fn revoked_epoch(&self, req: Req) -> Option<u8> {
        self.slots[req.0 as usize].revoked_epoch
    }

    pub fn is_done(&self, req: Req) -> bool {
        self.slots[req.0 as usize].done
    }

    pub fn kind(&self, req: Req) -> ReqKind {
        self.slots[req.0 as usize].kind
    }

    pub fn path(&self, req: Req) -> ReqPath {
        self.slots[req.0 as usize].path
    }

    /// First observation of a completion by the rank thread: returns the
    /// payload/status exactly once (the caller charges completion costs).
    /// Returns `None` if not done or already claimed.
    pub fn claim(&mut self, req: Req) -> Option<(Option<Bytes>, Option<Status>)> {
        let s = &mut self.slots[req.0 as usize];
        if !s.done || s.charged {
            return None;
        }
        s.charged = true;
        Some((s.data.take(), s.status))
    }

    /// Status of a completed request (after claim the data is gone but the
    /// status remains).
    pub fn status(&self, req: Req) -> Option<Status> {
        self.slots[req.0 as usize].status
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Requests not yet complete (a scan; diagnostics only).
    pub fn pending(&self) -> usize {
        self.slots.iter().filter(|s| !s.done).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(src: usize, tag: u32, len: usize) -> Status {
        Status {
            source: src,
            tag,
            len,
        }
    }

    #[test]
    fn lifecycle_send() {
        let mut t = RequestTable::new();
        let r = t.create(ReqKind::Send, ReqPath::Net);
        assert!(!t.is_done(r));
        t.complete_send(r);
        assert!(t.is_done(r));
        let (data, st) = t.claim(r).expect("first claim succeeds");
        assert!(data.is_none() && st.is_none());
        assert!(t.claim(r).is_none(), "claim is once-only");
    }

    #[test]
    fn lifecycle_recv_keeps_status() {
        let mut t = RequestTable::new();
        let r = t.create(ReqKind::Recv, ReqPath::Shm);
        t.complete_recv(r, Bytes::from_static(b"xy"), status(3, 7, 2));
        let (data, st) = t.claim(r).unwrap();
        assert_eq!(&data.unwrap()[..], b"xy");
        assert_eq!(st.unwrap().source, 3);
        // Status stays queryable after the claim.
        assert_eq!(t.status(r).unwrap().tag, 7);
    }

    #[test]
    fn failed_completions_unblock_without_data_and_keep_the_peer() {
        let mut t = RequestTable::new();
        let s = t.create(ReqKind::Send, ReqPath::Net);
        let r = t.create(ReqKind::Recv, ReqPath::Net);
        assert_eq!(t.failed_peer(s), None);
        t.complete_send_failed(s, 7);
        t.complete_recv_failed(r, 7);
        assert!(t.is_done(s) && t.is_done(r));
        let (data, st) = t.claim(s).expect("failed send still claimable");
        assert!(data.is_none() && st.is_none());
        let (data, st) = t.claim(r).expect("failed recv still claimable");
        assert!(data.is_none() && st.is_none());
        assert_eq!(t.failed_peer(s), Some(7), "error survives the claim");
        assert_eq!(t.failed_peer(r), Some(7));
    }

    #[test]
    fn revoked_completions_carry_epoch_and_peer() {
        let mut t = RequestTable::new();
        let s = t.create(ReqKind::Send, ReqPath::Net);
        let r = t.create(ReqKind::Recv, ReqPath::Net);
        assert_eq!(t.revoked_epoch(s), None);
        t.complete_send_revoked(s, 4, 2);
        t.complete_recv_revoked(r, 4, 2);
        assert!(t.is_done(s) && t.is_done(r));
        // The generic dead-peer plumbing still sees a failure...
        assert_eq!(t.failed_peer(s), Some(4));
        assert_eq!(t.failed_peer(r), Some(4));
        // ...but the real cause is queryable, and survives the claim.
        let _ = t.claim(s).unwrap();
        assert_eq!(t.revoked_epoch(s), Some(2));
        assert_eq!(t.revoked_epoch(r), Some(2));
        // A plain dead-peer failure does NOT look revoked.
        let p = t.create(ReqKind::Send, ReqPath::Net);
        t.complete_send_failed(p, 9);
        assert_eq!(t.revoked_epoch(p), None);
    }

    #[test]
    fn nmad_binding_roundtrip() {
        let mut t = RequestTable::new();
        let r = t.create(ReqKind::Recv, ReqPath::Net);
        assert_eq!(t.nmad_binding(r), NmadBinding::None);
        t.bind_nmad(r, NmadBinding::Recv(nmad::RecvReqId(5)));
        assert_eq!(t.nmad_binding(r), NmadBinding::Recv(nmad::RecvReqId(5)));
    }

    #[test]
    fn anysource_path_updates_on_match() {
        let mut t = RequestTable::new();
        let r = t.create(ReqKind::RecvAnySource, ReqPath::Unknown);
        assert_eq!(t.path(r), ReqPath::Unknown);
        t.set_path(r, ReqPath::Net);
        assert_eq!(t.path(r), ReqPath::Net);
        assert_eq!(t.kind(r), ReqKind::RecvAnySource);
    }
}
