//! One owner per simulated rank.
//!
//! [`RankState`] is everything one rank's MPI library mutates — request
//! slots, the §3.2 ANY_SOURCE lists, the CH3 engine with its rendezvous
//! maps and out-list, the torn-down connections, the self-queue, the
//! collective sequence number, the crash flag, the abort counter — as one
//! plain value with `&mut` access and no lock or atomic inside it.
//! `ProcState` holds it behind its single lock, takes that lock once per
//! MPI entry point and never across a park; a test holds one directly.
//! (`Ch3Queues` keeps one `RefCell` for its `&self` API; its doc comment
//! says why.)
//!
//! [`RankState::snapshot`] is the read side: one typed, comparable value
//! whose `Display` is the rank's line in a failed run's dump.

use std::collections::VecDeque;
use std::fmt;

use crate::anysource::AnySourceLists;
use crate::ch3::{Ch3Engine, Ch3Pkt};
use crate::request::RequestTable;
use crate::vc::RetiredVcs;

/// The mutable state of one rank's MPI library.
pub struct RankState {
    pub reqs: RequestTable,
    pub anysource: AnySourceLists,
    pub engine: Ch3Engine,
    /// Connections torn down after a death verdict.
    pub retired: RetiredVcs,
    /// Packets the rank sent to itself, pending local delivery.
    pub(crate) selfq: VecDeque<Ch3Pkt>,
    /// Collective-operation sequence number (all ranks call collectives in
    /// the same order, so the counters agree across the job).
    pub(crate) coll_seq: u32,
    /// This rank simulated a crash: its NewMadeleine core is halted and
    /// finalize must not drain (a corpse owes the network nothing).
    pub(crate) crashed: bool,
    /// Collectives aborted because a member died mid-protocol (the
    /// fail-fast outcome of `try_barrier_group` and friends).
    pub(crate) coll_aborts: u64,
}

impl RankState {
    pub fn new(engine: Ch3Engine) -> RankState {
        RankState {
            reqs: RequestTable::new(),
            anysource: AnySourceLists::new(),
            engine,
            retired: RetiredVcs::default(),
            selfq: VecDeque::new(),
            coll_seq: 0,
            crashed: false,
            coll_aborts: 0,
        }
    }

    /// Does this rank's own state give a progress cycle work: a self-send
    /// to deliver, a CH3 packet or completion to route, an ANY_SOURCE head
    /// to probe NewMadeleine for?
    pub fn has_work(&self) -> bool {
        !self.selfq.is_empty() || self.engine.has_out() || self.anysource.has_unposted_head()
    }

    /// The state in numbers, at this instant.
    pub fn snapshot(&self) -> RankSnapshot {
        let queues = &self.engine.queues;
        RankSnapshot {
            posted: queues.posted_len(),
            unexpected: queues.unexpected_len(),
            unex_bytes: queues.unexpected_bytes(),
            unex_hwm: queues.unexpected_hwm(),
            rdv_in_flight: self.engine.rdv_in_flight(),
            protocol_errors: self.engine.protocol_errors(),
            requests: self.reqs.len(),
            pending_requests: self.reqs.pending(),
            anysource_tags: self.anysource.tags_in_use(),
            retired_vcs: self.retired.count(),
            selfq: self.selfq.len(),
            coll_seq: self.coll_seq,
            coll_aborts: self.coll_aborts,
            crashed: self.crashed,
        }
    }
}

/// [`RankState`] at one instant: a plain value two runs can be compared
/// by. Its `Display` is the only place mpi-ch3 rank state is formatted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankSnapshot {
    /// Entries of the CH3 posted-receive queue.
    pub posted: usize,
    /// Messages in the CH3 unexpected queue, and the payload bytes they
    /// buffer (now, and at most so far).
    pub unexpected: usize,
    pub unex_bytes: usize,
    pub unex_hwm: usize,
    /// CH3 rendezvous halves in flight, both directions.
    pub rdv_in_flight: usize,
    /// Stray or malformed CH3 packets counted and dropped.
    pub protocol_errors: u64,
    /// Requests ever created, and how many have not completed.
    pub requests: usize,
    pub pending_requests: usize,
    /// Tags with a live §3.2 ANY_SOURCE sublist.
    pub anysource_tags: usize,
    pub retired_vcs: usize,
    /// Self-sends not yet delivered.
    pub selfq: usize,
    pub coll_seq: u32,
    pub coll_aborts: u64,
    pub crashed: bool,
}

impl fmt::Display for RankSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch3 posted={} unexpected={} unex_bytes={}B (hwm {}B) rdv_in_flight={} \
             protocol_errors={} reqs[pending={} of {}] anysource_tags={} retired_vcs={} \
             selfq={} coll[seq={} aborts={}]",
            self.posted,
            self.unexpected,
            self.unex_bytes,
            self.unex_hwm,
            self.rdv_in_flight,
            self.protocol_errors,
            self.pending_requests,
            self.requests,
            self.anysource_tags,
            self.retired_vcs,
            self.selfq,
            self.coll_seq,
            self.coll_aborts,
        )?;
        if self.crashed {
            f.write_str(" crashed")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::UnexMsg;
    use crate::request::{ReqKind, ReqPath};
    use simnet::NmBuf;

    /// The rank's half of `run_mpi`'s failure dump used to be assembled by
    /// hand in `stack.rs`; this is that text, to the byte, followed by what
    /// the snapshot adds.
    #[test]
    fn display_starts_with_the_old_dump_line() {
        let mut st = RankState::new(Ch3Engine::new(1024, None));
        assert_eq!(st.snapshot(), st.snapshot());
        let fresh = st.snapshot();
        st.reqs.create(ReqKind::Send, ReqPath::Shm);
        let r = st.reqs.create(ReqKind::Recv, ReqPath::Shm);
        st.reqs.complete_send(crate::Req(0));
        st.engine.post_recv(r, Some(1), 7);
        let data = NmBuf::from(vec![0u8; 300]);
        st.engine.queues.store_unexpected(UnexMsg::Eager {
            src: 2,
            key: 9,
            data,
        });
        st.retired.retire(5);
        st.coll_seq = 4;
        let snap = st.snapshot();
        assert_ne!(snap, fresh);
        assert_eq!(
            snap.to_string(),
            "ch3 posted=1 unexpected=1 unex_bytes=300B (hwm 300B) rdv_in_flight=0 \
             protocol_errors=0 reqs[pending=1 of 2] anysource_tags=0 retired_vcs=1 \
             selfq=0 coll[seq=4 aborts=0]"
        );
        st.crashed = true;
        assert!(st.snapshot().to_string().ends_with("aborts=0] crashed"));
    }
}
