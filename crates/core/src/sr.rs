//! The send/receive interface types.
//!
//! NewMadeleine's public interface is "generic and message-passing
//! oriented" (§2.2.1) — `nm_sr_isend` / `nm_sr_irecv` return opaque request
//! objects the user polls for completion. The integration work of §3.1.1
//! attaches each NewMadeleine request to its MPICH2 (ADI3) counterpart; the
//! `cookie` on every request models that back-pointer: the MPI layer stores
//! its own request identifier there and learns about completions by
//! draining [`NmCompletion`]s.
//!
//! There is deliberately **no cancel operation** (§2.2.1: "NewMadeleine,
//! however, does not yet support the cancellation of a posted request") —
//! the design constraint that drives the entire MPI_ANY_SOURCE machinery
//! (§3.2).

use bytes::Bytes;

use crate::matching::GateId;

/// Handle of a send request (index into the core's send table).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SendReqId(pub u32);

/// Handle of a receive request (index into the core's receive table).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RecvReqId(pub u32);

/// What completed.
#[derive(Clone, Debug)]
pub enum CompletionKind {
    /// The send's payload has fully left this host (buffer reusable).
    Send,
    /// A receive matched and its payload is fully assembled.
    Recv { data: Bytes, gate: GateId, tag: u64 },
    /// The send completed *with an error*: `peer` was declared dead
    /// before delivery could be confirmed. Cancellation stays unsupported
    /// (§2.2.1) — the request still completes, the error is the result.
    SendFailed { peer: usize },
    /// The receive completed *with an error*: the gate it was posted
    /// against was declared dead, so nothing can ever match it.
    RecvFailed { gate: GateId, tag: u64 },
    /// The send completed *with an error*: its communicator epoch was
    /// revoked while it was in flight. The peer may be perfectly alive —
    /// the epoch, not the link, is dead.
    SendRevoked { peer: usize, epoch: u8 },
    /// The receive completed *with an error*: its communicator epoch was
    /// revoked, so no frame of that epoch will ever be matched to it.
    RecvRevoked { gate: GateId, tag: u64, epoch: u8 },
}

/// A completion event surfaced to the upper layer.
///
/// "The NewMadeleine network module periodically polls a new NewMadeleine
/// function which returns a pointer to the CH3 request of any received
/// message" (§3.1.3) — `cookie` is that pointer.
#[derive(Clone, Debug)]
pub struct NmCompletion {
    pub cookie: u64,
    pub kind: CompletionKind,
}

impl NmCompletion {
    /// True for send completions (successful or failed).
    pub fn is_send(&self) -> bool {
        matches!(
            self.kind,
            CompletionKind::Send
                | CompletionKind::SendFailed { .. }
                | CompletionKind::SendRevoked { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_kind_predicates() {
        let s = NmCompletion {
            cookie: 1,
            kind: CompletionKind::Send,
        };
        assert!(s.is_send());
        let r = NmCompletion {
            cookie: 2,
            kind: CompletionKind::Recv {
                data: Bytes::new(),
                gate: GateId(0),
                tag: 0,
            },
        };
        assert!(!r.is_send());
    }
}
