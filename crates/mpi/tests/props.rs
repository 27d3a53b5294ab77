//! Property tests over the matching-key codec and the ANY_SOURCE list
//! machinery (§3.2) — checked against an executable reference model.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use mpi_ch3::anysource::AnySourceLists;
use mpi_ch3::progress::{key_of, tag_of, COLL_CTX, USER_CTX};
use mpi_ch3::queues::ActiveFlag;
use mpi_ch3::request::{Req, ReqKind, ReqPath, RequestTable};

fn flag() -> ActiveFlag {
    Arc::new(AtomicBool::new(true))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    /// `tag_of` inverts `key_of` for every context/tag pair.
    #[test]
    fn key_roundtrips_tag(ctx in 0u16..u16::MAX, tag in 0u32..u32::MAX) {
        prop_assert_eq!(tag_of(key_of(ctx, tag)), tag);
        prop_assert_eq!(tag_of(key_of(USER_CTX, tag)), tag);
        prop_assert_eq!(tag_of(key_of(COLL_CTX, tag)), tag);
    }

    /// The key is injective: distinct (context, tag) pairs never collide —
    /// a collision would cross-match messages between communicators.
    #[test]
    fn key_is_injective(
        c1 in 0u16..u16::MAX, t1 in 0u32..u32::MAX,
        c2 in 0u16..u16::MAX, t2 in 0u32..u32::MAX,
    ) {
        if (c1, t1) != (c2, t2) {
            prop_assert_ne!(key_of(c1, t1), key_of(c2, t2));
        }
        prop_assert_eq!(key_of(c1, t1), key_of(c1, t1));
    }
}

/// Reference model of one tag sublist entry.
#[derive(Clone, Debug, PartialEq, Eq)]
enum MEntry {
    Any { req: Req, posted: bool },
    Spec { req: Req, src: usize },
}

impl MEntry {
    fn req(&self) -> Req {
        match self {
            MEntry::Any { req, .. } | MEntry::Spec { req, .. } => *req,
        }
    }
}

/// One random operation against the lists. Tag indexes a small fixed tag
/// set; `pick` selects the completion target among live requests.
fn op_strategy() -> impl Strategy<Value = (u8, u8, u8, u8)> {
    (0u8..4, 0u8..3, 0u8..6, 0u8..255)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        .. ProptestConfig::default()
    })]

    /// Model-based check of [`AnySourceLists`]: random interleavings of
    /// register/park/post/complete always agree with a straightforward
    /// per-tag queue model — specifics park iff the sublist is non-empty,
    /// only a completed head releases (up to the next ANY entry), probe
    /// heads are exactly the unposted ANY heads in tag order, and no
    /// request is ever lost or duplicated.
    #[test]
    fn anysource_lists_match_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let tags: [u32; 3] = [5, 9, 1000];
        let mut table = RequestTable::new();
        let mut lists = AnySourceLists::new();
        let mut model: BTreeMap<u64, VecDeque<MEntry>> = BTreeMap::new();
        let mut flags: Vec<(Req, ActiveFlag)> = Vec::new();
        let mut retired: Vec<Req> = Vec::new();

        for (op, tag_i, src, pick) in ops {
            let key = key_of(USER_CTX, tags[tag_i as usize % tags.len()]);
            match op {
                0 => {
                    let req = table.create(ReqKind::RecvAnySource, ReqPath::Unknown);
                    let f = flag();
                    lists.register_any(key, req, Arc::clone(&f));
                    flags.push((req, f));
                    model
                        .entry(key)
                        .or_default()
                        .push_back(MEntry::Any { req, posted: false });
                }
                1 => {
                    let req = table.create(ReqKind::Recv, ReqPath::Net);
                    let parked = lists.try_park_specific(key, req, src as usize);
                    let should_park =
                        model.get(&key).is_some_and(|l| !l.is_empty());
                    prop_assert_eq!(parked, should_park, "park decision diverged");
                    if parked {
                        model
                            .get_mut(&key)
                            .unwrap()
                            .push_back(MEntry::Spec { req, src: src as usize });
                    }
                }
                2 => {
                    // mark_posted is only legal on an unposted ANY head.
                    let applicable = matches!(
                        model.get(&key).and_then(|l| l.front()),
                        Some(MEntry::Any { posted: false, .. })
                    );
                    if applicable {
                        lists.mark_posted(key, src as usize);
                        match model.get_mut(&key).unwrap().front_mut() {
                            Some(MEntry::Any { posted, req }) => {
                                *posted = true;
                                let r = *req;
                                let f = &flags.iter().find(|(q, _)| *q == r).unwrap().1;
                                prop_assert!(
                                    !f.load(Ordering::Acquire),
                                    "CH3 twin still active after nm-post"
                                );
                            }
                            _ => unreachable!(),
                        }
                    }
                }
                _ => {
                    // Complete a random live request.
                    let live: Vec<(u64, usize, Req)> = model
                        .iter()
                        .flat_map(|(&k, l)| {
                            l.iter().enumerate().map(move |(i, e)| (k, i, e.req()))
                        })
                        .collect();
                    if live.is_empty() {
                        continue;
                    }
                    let (k, pos, req) = live[pick as usize % live.len()];
                    let released = lists.on_complete(req);
                    let list = model.get_mut(&k).unwrap();
                    list.remove(pos);
                    let mut want = Vec::new();
                    if pos == 0 {
                        while let Some(MEntry::Spec { .. }) = list.front() {
                            match list.pop_front() {
                                Some(MEntry::Spec { req, src }) => want.push((req, src)),
                                _ => unreachable!(),
                            }
                        }
                    }
                    if list.is_empty() {
                        model.remove(&k);
                    }
                    let got: Vec<(Req, usize)> =
                        released.iter().map(|r| (r.req, r.src)).collect();
                    prop_assert_eq!(&got, &want, "release set diverged");
                    for r in released {
                        prop_assert_eq!(r.key, k);
                        retired.push(r.req);
                    }
                    retired.push(req);
                }
            }

            // Invariants after every step --------------------------------
            let want_heads: Vec<(u64, Req)> = model
                .iter()
                .filter_map(|(&k, l)| match l.front() {
                    Some(MEntry::Any { req, posted: false }) => Some((k, *req)),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(lists.heads_to_probe(), want_heads, "probe heads diverged");
            prop_assert_eq!(
                lists.has_unposted_head(),
                !lists.heads_to_probe().is_empty(),
                "the progress gate's head check diverged from the probe list"
            );
            prop_assert_eq!(lists.tags_in_use(), model.len(), "live tag count diverged");
            for (_, l) in model.iter() {
                for e in l {
                    prop_assert!(lists.is_tracked(e.req()), "live request untracked");
                }
            }
            for r in &retired {
                prop_assert!(!lists.is_tracked(*r), "retired request still tracked");
            }
        }
    }
}
