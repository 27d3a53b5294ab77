//! Management of MPI_ANY_SOURCE on the bypass path — the request lists of
//! §3.2 (Fig. 3).
//!
//! The problem: inter-node matching lives inside NewMadeleine, per
//! `(gate, tag)`, and **a posted NewMadeleine request can never be
//! cancelled**. An ANY_SOURCE receive can therefore not be fanned out as
//! one NewMadeleine request per possible source; and while it is
//! outstanding, later same-tag receives must not overtake it.
//!
//! The paper's scheme, implemented here faithfully:
//!
//! * A *main list* keyed by tag holds a sublist per tag in use
//!   ([`AnySourceLists`]).
//! * Posting an ANY_SOURCE receive appends an `Any` entry to its tag's
//!   sublist ("we check the list and create a new entry if the MPI message
//!   tag hasn't already been used").
//! * Later *specific-source* inter-node receives with the same tag are
//!   **parked** behind it ("they are enqueued in the list of pending any
//!   sources and dequeued when the any source entry is removed") — posting
//!   them to NewMadeleine directly could match a message the ANY_SOURCE
//!   receive is entitled to.
//! * On every progress poll the head entry *probes* NewMadeleine by tag;
//!   if a matching message has arrived from some gate, a NewMadeleine
//!   request for exactly that gate is created on the spot ("a NewMadeleine
//!   request is dynamically created when a message is received that could
//!   match") — it completes immediately since the payload already sits in
//!   NewMadeleine's buffers. The entry's CH3 posted-queue twin is
//!   deactivated at that moment, because the NewMadeleine request is now
//!   unstoppable.
//! * If instead an intra-node message matches the ANY_SOURCE receive first
//!   (through the CH3 queues), "the entry … is simply removed and all
//!   requests that might have been posted after are created" — the parked
//!   specifics are released to NewMadeleine, up to the next `Any` entry,
//!   which "replaces the former request as list head".

use std::collections::{HashMap, VecDeque};

use crate::queues::{deactivate, ActiveFlag};
use crate::request::Req;

enum Entry {
    Any {
        req: Req,
        /// The CH3 posted-queue twin's liveness flag.
        ch3_flag: ActiveFlag,
        /// Gate the dynamically-created NewMadeleine request targets, once
        /// probed.
        nm_gate: Option<usize>,
    },
    Specific {
        req: Req,
        src: usize,
    },
}

#[derive(Default)]
struct TagList {
    entries: VecDeque<Entry>,
}

/// A parked specific-source receive released for posting to NewMadeleine.
#[derive(Debug, PartialEq, Eq)]
pub struct Release {
    pub req: Req,
    pub src: usize,
    pub key: u64,
}

/// The main list: one sublist per tag in use. A plain value inside the
/// rank's [`crate::rank::RankState`].
#[derive(Default)]
pub struct AnySourceLists {
    lists: HashMap<u64, TagList>,
    /// Reverse map from request to its tag key.
    by_req: HashMap<Req, u64>,
}

impl AnySourceLists {
    pub fn new() -> AnySourceLists {
        AnySourceLists::default()
    }

    /// Register a newly posted ANY_SOURCE receive.
    pub fn register_any(&mut self, key: u64, req: Req, ch3_flag: ActiveFlag) {
        self.lists
            .entry(key)
            .or_default()
            .entries
            .push_back(Entry::Any {
                req,
                ch3_flag,
                nm_gate: None,
            });
        self.by_req.insert(req, key);
    }

    /// A specific-source inter-node receive is being posted: if its tag has
    /// pending ANY_SOURCE entries it must be parked (returns `true`);
    /// otherwise the caller posts it to NewMadeleine directly.
    pub fn try_park_specific(&mut self, key: u64, req: Req, src: usize) -> bool {
        match self.lists.get_mut(&key) {
            Some(list) if !list.entries.is_empty() => {
                list.entries.push_back(Entry::Specific { req, src });
                self.by_req.insert(req, key);
                true
            }
            _ => false,
        }
    }

    /// Heads awaiting a probe: every sublist whose head is an ANY_SOURCE
    /// entry without a NewMadeleine request yet. Called on every progress
    /// cycle that gets past its has-work check.
    pub fn heads_to_probe(&self) -> Vec<(u64, Req)> {
        let mut out: Vec<(u64, Req)> = self.unposted_heads().collect();
        out.sort_unstable_by_key(|&(k, _)| k); // deterministic probe order
        out
    }

    /// Is there a head to probe? [`AnySourceLists::heads_to_probe`] is
    /// non-empty, found without allocating or sorting.
    pub fn has_unposted_head(&self) -> bool {
        self.unposted_heads().next().is_some()
    }

    fn unposted_heads(&self) -> impl Iterator<Item = (u64, Req)> + '_ {
        self.lists
            .iter()
            .filter_map(|(&key, list)| match list.entries.front() {
                Some(Entry::Any {
                    req, nm_gate: None, ..
                }) => Some((key, *req)),
                _ => None,
            })
    }

    /// A probe found a matching message from `gate`: record the
    /// dynamically created NewMadeleine request and deactivate the CH3
    /// twin (the NewMadeleine request cannot be cancelled, so shared
    /// memory must no longer steal this receive).
    pub fn mark_posted(&mut self, key: u64, gate: usize) {
        let list = self
            .lists
            .get_mut(&key)
            .expect("mark_posted on unknown tag");
        match list.entries.front_mut() {
            Some(Entry::Any {
                nm_gate, ch3_flag, ..
            }) => {
                debug_assert!(nm_gate.is_none(), "double mark_posted");
                *nm_gate = Some(gate);
                deactivate(ch3_flag);
            }
            _ => panic!("mark_posted: head is not an ANY_SOURCE entry"),
        }
    }

    /// The given ANY_SOURCE request completed (via NewMadeleine or via an
    /// intra-node CH3 match). Removes its entry; if it was the head, the
    /// parked specifics behind it are released (to be posted to
    /// NewMadeleine) up to the next ANY_SOURCE entry, which becomes the new
    /// head. Returns the releases. No-op (empty) if the request is not
    /// tracked.
    pub fn on_complete(&mut self, req: Req) -> Vec<Release> {
        let Some(key) = self.by_req.remove(&req) else {
            return Vec::new();
        };
        let Some(list) = self.lists.get_mut(&key) else {
            return Vec::new();
        };
        let pos = list
            .entries
            .iter()
            .position(|e| match e {
                Entry::Any { req: r, .. } | Entry::Specific { req: r, .. } => *r == req,
            })
            .expect("completed request missing from its tag list");
        let was_head = pos == 0;
        list.entries.remove(pos);
        let mut released = Vec::new();
        if was_head {
            while let Some(Entry::Specific { .. }) = list.entries.front() {
                match list.entries.pop_front() {
                    Some(Entry::Specific { req, src }) => {
                        self.by_req.remove(&req);
                        released.push(Release { req, src, key });
                    }
                    _ => unreachable!(),
                }
            }
        }
        if list.entries.is_empty() {
            self.lists.remove(&key);
        }
        released
    }

    /// Membership departure flush: `src` was declared dead, so every
    /// *parked specific* receive targeting it can never be served — release
    /// them for failure completion (the caller fails each request with a
    /// dead-peer error instead of posting it). ANY_SOURCE entries stay:
    /// they remain matchable by every surviving sender, and the heads keep
    /// their probe/park ordering role for the ranks that are still alive.
    pub fn purge_src(&mut self, src: usize) -> Vec<Release> {
        let by_req = &mut self.by_req;
        let mut purged = Vec::new();
        self.lists.retain(|&key, list| {
            let mut kept = VecDeque::with_capacity(list.entries.len());
            for e in list.entries.drain(..) {
                match e {
                    Entry::Specific { req, src: s } if s == src => {
                        by_req.remove(&req);
                        purged.push(Release { req, src: s, key });
                    }
                    other => kept.push_back(other),
                }
            }
            list.entries = kept;
            !list.entries.is_empty()
        });
        // Deterministic failure order regardless of hash-map iteration.
        purged.sort_unstable_by_key(|r| (r.key, r.req.0));
        purged
    }

    /// Is this request currently parked as a specific entry? (A parked
    /// request must not be posted to NewMadeleine by anyone else.)
    pub fn is_tracked(&self, req: Req) -> bool {
        self.by_req.contains_key(&req)
    }

    /// Number of live sublists (diagnostics).
    pub fn tags_in_use(&self) -> usize {
        self.lists.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::{is_active, Ch3Queues};
    use crate::request::{ReqKind, ReqPath, RequestTable};
    use std::sync::Arc;

    /// The flag of a freshly posted CH3 entry, as `irecv` would hand over.
    fn flag() -> ActiveFlag {
        let posted = Ch3Queues::new().post(Req(0), None, 0);
        posted.unwrap_or_else(|_| unreachable!("nothing is unexpected in a new queue pair"))
    }

    fn any_req(t: &mut RequestTable) -> Req {
        t.create(ReqKind::RecvAnySource, ReqPath::Unknown)
    }

    fn spec_req(t: &mut RequestTable) -> Req {
        t.create(ReqKind::Recv, ReqPath::Net)
    }

    #[test]
    fn head_is_probed_until_posted() {
        let mut t = RequestTable::new();
        let mut l = AnySourceLists::new();
        let r = any_req(&mut t);
        let f = flag();
        l.register_any(7, r, Arc::clone(&f));
        assert_eq!(l.heads_to_probe(), vec![(7, r)]);
        l.mark_posted(7, 3);
        assert!(l.heads_to_probe().is_empty(), "posted head stops probing");
        assert!(!is_active(&f), "CH3 twin deactivated");
    }

    #[test]
    fn specifics_park_behind_any_and_release_on_completion() {
        let mut t = RequestTable::new();
        let mut l = AnySourceLists::new();
        let ra = any_req(&mut t);
        let r1 = spec_req(&mut t);
        let r2 = spec_req(&mut t);
        l.register_any(7, ra, flag());
        assert!(l.try_park_specific(7, r1, 4));
        assert!(l.try_park_specific(7, r2, 5));
        assert!(l.is_tracked(r1));
        // Different tag: not parked.
        assert!(!l.try_park_specific(8, spec_req(&mut t), 4));
        let released = l.on_complete(ra);
        assert_eq!(
            released,
            vec![
                Release {
                    req: r1,
                    src: 4,
                    key: 7
                },
                Release {
                    req: r2,
                    src: 5,
                    key: 7
                }
            ]
        );
        assert_eq!(l.tags_in_use(), 0);
        assert!(!l.is_tracked(r1));
    }

    #[test]
    fn next_any_becomes_head_and_blocks_later_specifics() {
        let mut t = RequestTable::new();
        let mut l = AnySourceLists::new();
        let ra1 = any_req(&mut t);
        let s1 = spec_req(&mut t);
        let ra2 = any_req(&mut t);
        let s2 = spec_req(&mut t);
        l.register_any(7, ra1, flag());
        assert!(l.try_park_specific(7, s1, 4));
        l.register_any(7, ra2, flag());
        assert!(l.try_park_specific(7, s2, 5));
        // Completing the head releases s1 but stops at ra2.
        let released = l.on_complete(ra1);
        assert_eq!(
            released,
            vec![Release {
                req: s1,
                src: 4,
                key: 7
            }]
        );
        assert_eq!(l.heads_to_probe(), vec![(7, ra2)]);
        // Completing the new head releases s2.
        let released = l.on_complete(ra2);
        assert_eq!(
            released,
            vec![Release {
                req: s2,
                src: 5,
                key: 7
            }]
        );
        assert_eq!(l.tags_in_use(), 0);
    }

    #[test]
    fn non_head_completion_releases_nothing() {
        // Head is nm-posted; the SECOND any-source entry is matched by an
        // intra-node message. Its removal must not release the specifics
        // parked behind the still-pending head.
        let mut t = RequestTable::new();
        let mut l = AnySourceLists::new();
        let ra1 = any_req(&mut t);
        let ra2 = any_req(&mut t);
        let s1 = spec_req(&mut t);
        l.register_any(7, ra1, flag());
        l.register_any(7, ra2, flag());
        assert!(l.try_park_specific(7, s1, 4));
        l.mark_posted(7, 2); // head now bound to gate 2
        let released = l.on_complete(ra2);
        assert!(released.is_empty());
        // Head completes: specifics flow.
        let released = l.on_complete(ra1);
        assert_eq!(
            released,
            vec![Release {
                req: s1,
                src: 4,
                key: 7
            }]
        );
    }

    #[test]
    fn purge_src_releases_only_the_dead_peers_parked_specifics() {
        let mut t = RequestTable::new();
        let mut l = AnySourceLists::new();
        let ra = any_req(&mut t);
        let dead1 = spec_req(&mut t);
        let live = spec_req(&mut t);
        let dead2 = spec_req(&mut t);
        l.register_any(7, ra, flag());
        assert!(l.try_park_specific(7, dead1, 9));
        assert!(l.try_park_specific(7, live, 4));
        assert!(l.try_park_specific(7, dead2, 9));
        let purged = l.purge_src(9);
        assert_eq!(
            purged,
            vec![
                Release {
                    req: dead1,
                    src: 9,
                    key: 7
                },
                Release {
                    req: dead2,
                    src: 9,
                    key: 7
                }
            ]
        );
        assert!(!l.is_tracked(dead1) && !l.is_tracked(dead2));
        // The ANY head and the live specific keep their ordering roles.
        assert!(l.is_tracked(live));
        assert_eq!(l.heads_to_probe(), vec![(7, ra)]);
        let released = l.on_complete(ra);
        assert_eq!(
            released,
            vec![Release {
                req: live,
                src: 4,
                key: 7
            }]
        );
        assert_eq!(l.tags_in_use(), 0);
    }

    #[test]
    fn untracked_completion_is_noop() {
        let mut t = RequestTable::new();
        let mut l = AnySourceLists::new();
        assert!(l.on_complete(spec_req(&mut t)).is_empty());
    }

    #[test]
    fn probe_order_is_deterministic_by_tag() {
        let mut t = RequestTable::new();
        let mut l = AnySourceLists::new();
        let r9 = any_req(&mut t);
        let r3 = any_req(&mut t);
        l.register_any(9, r9, flag());
        l.register_any(3, r3, flag());
        assert_eq!(l.heads_to_probe(), vec![(3, r3), (9, r9)]);
    }
}
