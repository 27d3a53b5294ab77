//! Exhaustive exploration of the production rendezvous engines.
//!
//! Two or three [`Engine`]s — the values `NmCore` drives in a
//! simulated job — are joined by a wire this file owns: the packets in
//! flight are a multiset, and any of them may arrive next. A memoised
//! depth-first search walks every interleaving of a bounded configuration,
//! where a move is one of:
//!
//! * the application starts a send or posts a receive;
//! * one packet is delivered, lost, or (RTS, CTS, DATA and FIN only,
//!   within a budget per rendezvous) duplicated;
//! * one pending NIC completion is reported (`Engine::sent`);
//! * time steps to the earliest `next_deadline()` and every engine runs a
//!   pass: a timer firing, as early as the protocol allows;
//! * a peer is killed: `halt` on the victim, `declare_peer_dead` on the
//!   survivors, and the wire forgets the victim's packets;
//! * a rank revokes the collective epoch its messages run in.
//!
//! After each input the engine it reached runs one progress pass at the
//! same instant, as a rank's progress loop would. Timer firings are
//! budgeted per path, and a loss is only possible while a firing is left
//! in reserve; past the budget, time still passes when no other move is
//! left, so running out of budget never strands a message that the
//! protocol would have recovered.
//!
//! Every edge checks what the engines themselves report: no counted
//! protocol error, every request completed at most once and every receive
//! byte-exact, a `TraceChecker` accepting the `Effect::Span` stream, and,
//! with flow control armed, every eager credit accounted for. Every
//! state, and every engine between an input and its pass, checks the
//! verdict of `Engine::has_work`: an engine that reports no work is left
//! unchanged by a pass, and a live one with retry armed always has some.
//! Every terminal (no move left) checks that each surviving request finished,
//! as done or as a counted failure, that nothing is in flight, that the
//! engines are quiescent, and that a drained peer left no record behind.
//! Across the suite every `protocol::TABLE` row outside CH3's dialects
//! and every non-defensive ignore must fire (`protocol::take_fired`); the
//! CH3 rows are `mpi-ch3`'s `ch3::explore`'s to cover.
//!
//! `cargo test --release -p nmad --lib protocol::explore -- --nocapture`
//! prints the per-configuration sizes (EXPERIMENTS.md E18).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use simnet::{CopyMeter, NicModel, NmBuf, SimTime};

use super::conformance::TraceChecker;
use super::{Guard, IGNORES, TABLE};
use crate::engine::{Effect, Engine, SentTag};
use crate::protocol;
use crate::sr::{CompletionKind, NmCompletion};
use crate::{keys, FlowConfig, LinkProfile, MembershipConfig, NmConfig, RetryConfig};
use crate::{NmWire, WirePayload};

/// A rendezvous that travels as one DATA chunk on one rail.
const ONE_CHUNK: usize = 20 * 1024;
/// A rendezvous that the split strategy cuts in two on two rails.
const TWO_CHUNKS: usize = 40 * 1024;
/// An eager-sized message.
const SMALL: usize = 64;

/// Timer firings past a path's budget, taken only when no other move is
/// left: enough to repair the one loss a budget allows, few enough that a
/// protocol which never settles ends at a terminal that says so.
const MAX_FORCED: u8 = 8;

/// Every rail of the explorer's wire is always free.
const IDLE: &dyn Fn(usize) -> bool = &|_| true;

/// One bounded configuration.
#[derive(Clone, Debug, Default)]
struct Config {
    name: &'static str,
    ranks: usize,
    /// Rails per rank.
    rails: usize,
    /// `(src, dst, len)` of each message.
    msgs: Vec<(usize, usize, usize)>,
    retry: bool,
    /// Eager credits per gate: arms flow control.
    credits: Option<u32>,
    /// One rank may die (arms membership).
    kill: bool,
    /// Each rank may revoke epoch 0 once; messages use collective keys.
    revoke: bool,
    /// Packets the wire may lose on one path.
    drops: u8,
    /// Handshake packets (RTS, CTS, DATA, FIN) the wire may duplicate
    /// per rendezvous.
    dups: u8,
    /// Timer firings on one path.
    timers: u8,
}

impl Config {
    fn clean(name: &'static str, rails: usize, msgs: Vec<(usize, usize, usize)>) -> Config {
        let ranks = msgs.iter().map(|&(s, d, _)| s.max(d) + 1).max().unwrap();
        Config {
            name,
            ranks,
            rails,
            msgs,
            ..Config::default()
        }
    }

    fn nm_config(&self) -> NmConfig {
        NmConfig {
            retry: self.retry.then(RetryConfig::default),
            flow: self.credits.map(|c| FlowConfig::bounded(c, 64 * 1024)),
            membership: self.kill.then(MembershipConfig::default),
            ..NmConfig::default()
        }
    }

    fn tag(&self, i: usize) -> u64 {
        match self.revoke {
            true => keys::coll_key(0, keys::OP_BCAST, 0, i as u32),
            false => keys::user_key(i as u32 + 1),
        }
    }
}

fn payload(i: usize, len: usize) -> Bytes {
    let bytes: Vec<u8> = (0..len).map(|b| (i * 31 + b * 7) as u8).collect();
    Bytes::from(bytes)
}

fn hash_of(v: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

#[derive(Clone)]
struct Packet {
    wire: NmWire,
    rail: usize,
}

impl Packet {
    /// Equal packets have equal keys: the checksum covers the ranks, the
    /// header fields and the payload bytes.
    fn key(&self) -> u64 {
        let w = &self.wire;
        hash_of((w.src_rank(), w.dst_rank(), self.rail, w.crc()))
    }

    /// The rendezvous a handshake packet belongs to, named by the rank
    /// that sends its payload and the id that rank gave it; `None` for
    /// the packets the wire never duplicates.
    fn rendezvous(&self) -> Option<(usize, u64)> {
        let (src, dst) = (self.wire.src_rank(), self.wire.dst_rank());
        match *self.wire.payload() {
            WirePayload::Rts { rdv_id, .. } | WirePayload::Data { rdv_id, .. } => {
                Some((src, rdv_id))
            }
            WirePayload::Cts { rdv_id } | WirePayload::RdvFin { rdv_id } => Some((dst, rdv_id)),
            _ => None,
        }
    }
}

fn pending_key((rank, tag): &(usize, SentTag)) -> u64 {
    hash_of((rank, &tag.eager_reqs, tag.data_chunk_rdv))
}

/// What the application has done and seen of one message.
#[derive(Clone, Copy, Default, Hash)]
struct Progress {
    started: bool,
    posted: bool,
    send_done: bool,
    recv_done: bool,
    /// The send went eager on a credit that the receive has yet to earn
    /// back.
    credit: bool,
}

#[derive(Clone, Copy, Debug)]
enum Move {
    Start(usize),
    Post(usize),
    Deliver(usize),
    Drop(usize),
    Dup(usize),
    Sent(usize),
    Tick,
    Kill(usize),
    Revoke(usize),
}

/// The joint state: the engines, the wire, the application and the
/// budgets spent so far.
#[derive(Clone)]
struct World<'c> {
    cfg: &'c Config,
    engines: Vec<Engine>,
    now: SimTime,
    net: Vec<Packet>,
    /// NIC completions owed to `(rank, tag)`.
    pending: Vec<(usize, SentTag)>,
    msgs: Vec<Progress>,
    drops: u8,
    ticks: u8,
    /// Firings past the budget, each taken because nothing else could
    /// happen.
    forced: u8,
    /// Duplicates made so far, per rendezvous (`Packet::rendezvous`).
    dups: BTreeMap<(usize, u64), u8>,
    dead: Option<usize>,
    revoked: Vec<bool>,
    checker: TraceChecker,
    /// The moves that led here, for the failure message.
    path: Vec<Move>,
}

impl<'c> World<'c> {
    fn new(cfg: &'c Config) -> World<'c> {
        let rec = obs::Recorder::new(obs::ObsConfig::recording_only());
        let profile = LinkProfile::sample(&NicModel::connectx_ib());
        let meter = CopyMeter::new();
        let engines = (0..cfg.ranks).map(|rank| {
            let probe_peer = Some((rank + 1) % cfg.ranks);
            let rank_rec = obs::RankRec::new(Some(&rec), rank as u32);
            let profiles = vec![profile; cfg.rails];
            Engine::new(
                cfg.nm_config(),
                rank,
                cfg.ranks,
                profiles,
                probe_peer,
                meter.clone(),
                rank_rec,
            )
        });
        World {
            cfg,
            engines: engines.collect(),
            now: SimTime::ZERO,
            net: Vec::new(),
            pending: Vec::new(),
            msgs: vec![Progress::default(); cfg.msgs.len()],
            drops: 0,
            ticks: 0,
            forced: 0,
            dups: BTreeMap::new(),
            dead: None,
            revoked: vec![false; cfg.ranks],
            checker: TraceChecker::new(cfg.retry),
            path: Vec::new(),
        }
    }

    fn alive(&self, rank: usize) -> bool {
        self.dead != Some(rank)
    }

    fn deadline(&self) -> Option<SimTime> {
        self.engines.iter().filter_map(Engine::next_deadline).min()
    }

    /// The memo key: every engine's fingerprint, the clock, the wire and
    /// the NIC as multisets, the application and the budgets.
    fn key(&self) -> u64 {
        let mut net: Vec<u64> = self.net.iter().map(Packet::key).collect();
        let mut pending: Vec<u64> = self.pending.iter().map(pending_key).collect();
        net.sort_unstable();
        pending.sort_unstable();
        let engines: Vec<u64> = self.engines.iter().map(Engine::fingerprint).collect();
        let budgets = (self.drops, self.ticks, self.forced, &self.dups);
        let faults = (self.dead, &self.revoked);
        hash_of((engines, self.now, net, pending, &self.msgs, budgets, faults))
    }

    fn moves(&self) -> Vec<Move> {
        let cfg = self.cfg;
        let mut moves = Vec::new();
        for (i, (m, &(src, dst, _))) in self.msgs.iter().zip(&cfg.msgs).enumerate() {
            if !m.started && self.alive(src) {
                moves.push(Move::Start(i));
            }
            if !m.posted && self.alive(dst) {
                moves.push(Move::Post(i));
            }
        }
        // Equal packets lead to equal successors: enumerate one of each.
        let mut seen = HashSet::new();
        let distinct = self
            .net
            .iter()
            .enumerate()
            .filter(|(_, p)| seen.insert(p.key()));
        for (j, p) in distinct {
            moves.push(Move::Deliver(j));
            if self.drops < cfg.drops && self.drops + self.ticks < cfg.timers {
                moves.push(Move::Drop(j));
            }
            let made = |rdv| self.dups.get(&rdv).copied().unwrap_or(0);
            if p.rendezvous().is_some_and(|rdv| made(rdv) < cfg.dups) {
                moves.push(Move::Dup(j));
            }
        }
        let mut seen = HashSet::new();
        let distinct = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, t)| seen.insert(pending_key(t)));
        moves.extend(distinct.map(|(k, _)| Move::Sent(k)));
        if self.ticks < cfg.timers && self.deadline().is_some() {
            moves.push(Move::Tick);
        }
        if cfg.kill && self.dead.is_none() && self.msgs.iter().any(|m| m.started) {
            moves.extend((0..cfg.ranks).map(Move::Kill));
        }
        if cfg.revoke {
            let live = (0..cfg.ranks).filter(|&r| !self.revoked[r] && self.alive(r));
            moves.extend(live.map(Move::Revoke));
        }
        // Past the budget, time still passes when nothing else can happen.
        if moves.is_empty() && self.forced < MAX_FORCED && self.deadline().is_some() {
            moves.push(Move::Tick);
        }
        moves
    }

    fn apply(&mut self, mv: Move) -> Result<(), String> {
        self.path.push(mv);
        let cfg = self.cfg;
        match mv {
            Move::Start(i) => {
                let (src, dst, len) = cfg.msgs[i];
                let admitted = |w: &World| w.engines[src].stats().fc_eager_admitted;
                let before = admitted(self);
                self.msgs[i].started = true;
                let data = NmBuf::from(payload(i, len));
                self.input(src, |e, now| {
                    e.isend(now, dst, cfg.tag(i), data, i as u64);
                })?;
                self.msgs[i].credit = admitted(self) > before;
            }
            Move::Post(i) => {
                let (src, dst, _) = cfg.msgs[i];
                self.msgs[i].posted = true;
                self.input(dst, |e, now| {
                    e.irecv(now, src, cfg.tag(i), i as u64);
                })?;
            }
            Move::Deliver(j) => {
                let Packet { wire, rail } = self.net.swap_remove(j);
                let to = wire.dst_rank();
                self.input(to, |e, now| e.accept(now, wire, rail, false, IDLE))?;
            }
            Move::Drop(j) => {
                self.net.swap_remove(j);
                self.drops += 1;
            }
            Move::Dup(j) => {
                let copy = self.net[j].clone();
                *self.dups.entry(copy.rendezvous().unwrap()).or_default() += 1;
                self.net.push(copy);
            }
            Move::Sent(k) => {
                let (rank, tag) = self.pending.swap_remove(k);
                self.input(rank, |e, now| e.sent(now, tag, IDLE))?;
            }
            Move::Tick => {
                match self.ticks < cfg.timers {
                    true => self.ticks += 1,
                    false => self.forced += 1,
                }
                self.now = self.deadline().expect("a tick needs a deadline");
                let live: Vec<usize> = (0..cfg.ranks).filter(|&r| self.alive(r)).collect();
                for rank in live {
                    self.input(rank, |_, _| {})?;
                }
            }
            Move::Kill(victim) => {
                self.dead = Some(victim);
                self.engines[victim].halt();
                let touches = |w: &NmWire| w.src_rank() == victim || w.dst_rank() == victim;
                self.net.retain(|p| !touches(&p.wire));
                self.pending.retain(|&(rank, _)| rank != victim);
                for rank in (0..cfg.ranks).filter(|&r| r != victim) {
                    self.input(rank, |e, now| {
                        e.declare_peer_dead(now, victim);
                    })?;
                }
            }
            Move::Revoke(rank) => {
                self.revoked[rank] = true;
                self.input(rank, |e, now| {
                    e.revoke_epoch(now, 0);
                })?;
            }
        }
        self.check_edge()
    }

    /// Hand `rank`'s engine one input, run a progress pass at the same
    /// instant, and execute everything the engine asked for.
    fn input(&mut self, rank: usize, f: impl FnOnce(&mut Engine, SimTime)) -> Result<(), String> {
        let engine = &mut self.engines[rank];
        f(engine, self.now);
        idle_is_inert(engine, self.now, false).map_err(|e| format!("rank {rank}: {e}"))?;
        engine.schedule(self.now, IDLE);
        let mut effects = Vec::new();
        engine.swap_effects(&mut effects);
        for effect in effects {
            match effect {
                Effect::Span(ev) => self.checker.check(&ev)?,
                Effect::Packet { wire, rail, sent } => {
                    self.pending.extend(sent.map(|tag| (rank, tag)));
                    // The fabric delivers nothing to a dead node.
                    if self.alive(wire.dst_rank()) {
                        self.net.push(Packet { wire, rail });
                    }
                }
                Effect::Hook => {}
            }
        }
        for c in self.engines[rank].take_completions() {
            self.complete(rank, c)?;
        }
        Ok(())
    }

    /// One completion: each request finishes once, on its own rank, a
    /// receive byte-exact; only a death or a revoke may fail one.
    fn complete(&mut self, rank: usize, c: NmCompletion) -> Result<(), String> {
        let i = c.cookie as usize;
        let (src, dst, len) = self.cfg.msgs[i];
        let m = &mut self.msgs[i];
        let (side, done) = match &c.kind {
            CompletionKind::Recv { data, .. } if *data != payload(i, len) => {
                return Err(format!("receive {i} is not byte-exact"));
            }
            CompletionKind::Recv { .. } => {
                m.credit = false;
                (dst, &mut m.recv_done)
            }
            CompletionKind::Send => (src, &mut m.send_done),
            _ if !(self.cfg.kill || self.cfg.revoke) => {
                return Err(format!("message {i} failed for no reason: {:?}", c.kind));
            }
            CompletionKind::SendFailed { .. } | CompletionKind::SendRevoked { .. } => {
                (src, &mut m.send_done)
            }
            _ => (dst, &mut m.recv_done),
        };
        if side != rank || std::mem::replace(done, true) {
            return Err(format!("message {i}: {:?} again or on rank {rank}", c.kind));
        }
        Ok(())
    }

    fn check_edge(&self) -> Result<(), String> {
        for (rank, e) in self.engines.iter().enumerate() {
            let errors = e.stats().protocol_errors;
            if errors != 0 {
                return Err(format!("rank {rank} counted {errors} protocol errors"));
            }
        }
        match self.cfg.credits {
            Some(cap) => self.credits_conserved(cap),
            None => Ok(()),
        }
    }

    /// Flow control moves credits around; it never makes or loses one.
    /// For each ordered pair, the sender's pool, the eager sends the
    /// receiver has yet to consume, the credits the receiver owes or
    /// withholds and the credits on their way back add up to the pool's
    /// size.
    fn credits_conserved(&self, cap: u32) -> Result<(), String> {
        let snaps: Vec<_> = self.engines.iter().map(Engine::snapshot).collect();
        let peer = |r: usize, of: usize| snaps[r].peers().iter().find(|p| p.rank == of);
        let returned = |p: &Packet| match *p.wire.payload() {
            WirePayload::Credit { credits } | WirePayload::Ack { credits, .. } => credits,
            _ => 0,
        };
        let n = self.cfg.ranks;
        for (s, r) in (0..n * n).map(|k| (k / n, k % n)).filter(|(s, r)| s != r) {
            let pool = peer(s, r).and_then(|p| p.send_credits).unwrap_or(cap);
            let msgs = self.msgs.iter().zip(&self.cfg.msgs);
            let unconsumed = msgs.filter(|(m, &(src, dst, _))| m.credit && (src, dst) == (s, r));
            let held = peer(r, s).map_or(0, |p| p.owed + p.withheld);
            let back = self
                .net
                .iter()
                .filter(|p| p.wire.src_rank() == r && p.wire.dst_rank() == s);
            let total = pool + unconsumed.count() as u32 + held + back.map(returned).sum::<u32>();
            if total != cap {
                return Err(format!("credits {s}->{r}: {total} of {cap} accounted for"));
            }
        }
        Ok(())
    }

    /// Every engine that reports no work here is left as it is by a
    /// progress pass.
    fn check_idle(&self) -> Result<(), String> {
        for (rank, e) in self.engines.iter().enumerate() {
            let halted = !self.alive(rank);
            idle_is_inert(e, self.now, halted).map_err(|e| format!("rank {rank}: {e}"))?;
        }
        Ok(())
    }

    fn check_terminal(&self) -> Result<(), String> {
        for (i, (m, &(src, dst, _))) in self.msgs.iter().zip(&self.cfg.msgs).enumerate() {
            if self.alive(src) && !m.send_done || self.alive(dst) && !m.recv_done {
                return Err(format!("message {i} stranded at a terminal"));
            }
        }
        if !self.net.is_empty() || !self.pending.is_empty() {
            return Err("a terminal with packets or NIC completions left".into());
        }
        for (rank, e) in self.engines.iter().enumerate() {
            let snap = e.snapshot();
            let drained = snap.peers().iter().all(|p| self.alive(p.rank));
            if self.alive(rank) && !(e.quiescent() && drained) {
                return Err(format!(
                    "rank {rank} is not quiescent, or not drained: {snap}"
                ));
            }
        }
        Ok(())
    }
}

/// The verdict of [`Engine::has_work`], checked: a live retry-armed
/// engine always has work, and one that reports none is left as it is by
/// a progress pass at `now` and the drains a driver makes after it (run
/// on a clone): no effect, nothing drained, the same fingerprint.
fn idle_is_inert(e: &Engine, now: SimTime, halted: bool) -> Result<(), String> {
    if e.has_work() {
        return Ok(());
    }
    if e.cfg.retry.is_some() && !halted {
        return Err("a live retry-armed engine reported no work".into());
    }
    let mut pass = e.clone();
    // Only what the pass emits counts, not what its input left behind.
    let (mut before, mut effects) = (Vec::new(), Vec::new());
    pass.swap_effects(&mut before);
    pass.schedule(now, IDLE);
    pass.swap_effects(&mut effects);
    let drained = pass.take_completions().len()
        + pass.dead_events.drain(..).count()
        + pass.revoked_events.drain(..).count();
    if !effects.is_empty() || drained != 0 || pass.fingerprint() != e.fingerprint() {
        return Err("a progress pass changed an engine that reported no work".into());
    }
    Ok(())
}

/// The size and coverage of one exploration.
#[derive(Debug)]
struct Stats {
    name: &'static str,
    states: usize,
    edges: usize,
    terminals: usize,
    /// Bitmasks over `TABLE` and `IGNORES` (see `protocol::take_fired`).
    rows: u64,
    ignores: u64,
    elapsed: Duration,
}

/// Walk every interleaving of `cfg`; the first violation ends the walk.
fn explore(cfg: &Config) -> Result<Stats, String> {
    let started = Instant::now();
    protocol::take_fired();
    let root = World::new(cfg);
    let mut seen = HashSet::from([root.key()]);
    let mut stack = vec![root];
    let (mut edges, mut terminals) = (0, 0);
    while let Some(world) = stack.pop() {
        let fail = |w: &World, e: String| format!("{}: {e}, after {:?}", cfg.name, w.path);
        world.check_idle().map_err(|e| fail(&world, e))?;
        let moves = world.moves();
        if moves.is_empty() {
            terminals += 1;
            world.check_terminal().map_err(|e| fail(&world, e))?;
        }
        for mv in moves {
            edges += 1;
            let mut next = world.clone();
            next.apply(mv).map_err(|e| fail(&next, e))?;
            if seen.insert(next.key()) {
                stack.push(next);
            }
        }
    }
    let (rows, ignores) = protocol::take_fired();
    let defensive = IGNORES.iter().enumerate().filter(|(_, ig)| ig.defensive);
    if let Some((_, ig)) = defensive.into_iter().find(|(i, _)| ignores & 1 << i != 0) {
        return Err(format!("{}: defensive ignore {} fired", cfg.name, ig.name));
    }
    Ok(Stats {
        name: cfg.name,
        states: seen.len(),
        edges,
        terminals,
        rows,
        ignores,
        elapsed: started.elapsed(),
    })
}

/// The standard suite, largest first: every protocol variant the nmad
/// engine implements, sized so that the union covers the table in a few
/// seconds of a release build. Duplicates and timer firings multiply the
/// joint space fastest, so fault depth (one message) and cross-flow
/// interleaving (two messages) are separate configurations.
fn standard_suite() -> Vec<Config> {
    let retry = |name, rails, len| Config {
        retry: true,
        drops: 1,
        timers: 1,
        ..Config::clean(name, rails, vec![(0, 1, len)])
    };
    let fan_in = vec![(0, 2, ONE_CHUNK), (1, 2, ONE_CHUNK)];
    vec![
        // The fault menu: a loss, two duplicates, a spurious timer.
        Config {
            dups: 2,
            ..retry("retry-faults-1msg", 1, ONE_CHUNK)
        },
        // Backed-off timers: two firings, one of them before a loss.
        Config {
            timers: 2,
            ..retry("retry-backoff-1msg", 1, ONE_CHUNK)
        },
        // Either rank dies at any point after the first send, the
        // payload on the wire as two chunks.
        Config {
            kill: true,
            ..retry("retry-peer-death", 2, TWO_CHUNKS)
        },
        // Either rank revokes the message's epoch at any point.
        Config {
            revoke: true,
            ..retry("retry-revoke-epoch", 1, ONE_CHUNK)
        },
        // Two flows into one receiver under retry: cross-flow
        // interleaving of the acks, FINs and retransmit queues.
        Config {
            retry: true,
            ..Config::clean("retry-fan-in", 1, fan_in)
        },
        // The plain pipelined path, both ways, one payload in two chunks.
        Config::clean(
            "clean-pipelined",
            2,
            vec![(0, 1, TWO_CHUNKS), (1, 0, ONE_CHUNK)],
        ),
        // One credit: whichever small send finds the pool empty enters
        // the rendezvous through the credit fallback.
        Config {
            credits: Some(1),
            ..Config::clean(
                "clean-credit-fallback",
                1,
                vec![(0, 1, SMALL), (0, 1, SMALL)],
            )
        },
    ]
}

/// The standard suite, explored once per test binary by two threads that
/// take the configurations in turn.
fn suite() -> &'static [Stats] {
    static SUITE: OnceLock<Vec<Stats>> = OnceLock::new();
    SUITE.get_or_init(|| {
        let queue = Mutex::new(standard_suite().into_iter());
        let next = || queue.lock().unwrap().next();
        let work = || {
            std::iter::from_fn(next)
                .map(|cfg| explore(&cfg))
                .collect::<Vec<_>>()
        };
        let done: Vec<_> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2).map(|_| s.spawn(work)).collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        done.into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
            .collect()
    })
}

mod tests {
    use super::*;

    /// Assert that the standard suite's configuration `name` fired every one
    /// of `rows`, and return its stats.
    fn reaches(name: &str, rows: &[&str]) -> &'static Stats {
        let stats = suite().iter().find(|s| s.name == name).unwrap();
        let fired: Vec<_> = (TABLE.iter().enumerate())
            .filter(|(i, _)| stats.rows & 1 << i != 0)
            .map(|(_, t)| t.name)
            .collect();
        let missing: Vec<_> = rows.iter().filter(|r| !fired.contains(r)).collect();
        assert!(
            missing.is_empty(),
            "{name} misses {missing:?}; fired {fired:?}"
        );
        stats
    }

    #[test]
    fn standard_suite_covers_table_without_violations() {
        let suite = suite();
        println!("engine explorer — standard suite:");
        for s in suite {
            println!(
                "  {:<24} states={:>8} edges={:>9} terminals={:>7}  {:.2?}",
                s.name, s.states, s.edges, s.terminals, s.elapsed
            );
            assert!(s.terminals > 0, "{}: no terminal reached", s.name);
        }
        let sum = |f: fn(&Stats) -> usize| suite.iter().map(f).sum::<usize>();
        let edges = sum(|s| s.edges);
        println!(
            "  {:<24} states={:>8} edges={edges:>9} terminals={:>7}",
            "TOTAL",
            sum(|s| s.states),
            sum(|s| s.terminals)
        );
        assert!(edges >= 100_000, "explored only {edges} edges");
        // CH3's buffered and ACK-throttled dialects are `ch3::explore`'s.
        let ch3_only = |g: &[Guard]| g.contains(&Guard::Buffered) || g.contains(&Guard::AckMode);
        let rows = suite.iter().fold(0, |acc, s| acc | s.rows);
        let ignores = suite.iter().fold(0, |acc, s| acc | s.ignores);
        let unreached = (TABLE.iter().enumerate())
            .filter(|(i, t)| rows & 1 << i == 0 && !ch3_only(t.guards))
            .map(|(_, t)| t.name);
        assert_eq!(
            unreached.collect::<Vec<_>>(),
            Vec::<&str>::new(),
            "rows no engine fired"
        );
        let unignored = (IGNORES.iter().enumerate())
            .filter(|(i, ig)| ignores & 1 << i == 0 && !ig.defensive)
            .map(|(_, ig)| ig.name);
        assert_eq!(
            unignored.collect::<Vec<_>>(),
            Vec::<&str>::new(),
            "ignores never reached"
        );
    }

    /// The plain pipelined path, both ways, completes through every
    /// happy-path row of a two-chunk rendezvous.
    #[test]
    fn clean_pipelined_model_completes() {
        let rows = ["cts/pipelined", "data/chunk", "data/last", "sent/complete"];
        let s = reaches("clean-pipelined", &rows);
        assert!(s.terminals > 0);
        assert!(s.edges > s.states.saturating_sub(1));
    }

    /// Losses, duplicates and a spurious timer reach the replay rows.
    #[test]
    fn faulty_model_reaches_replay_rows() {
        let rows = ["replay/fin-on-data", "replay/cts-on-rts", "timer/rts"];
        reaches("retry-faults-1msg", &rows);
    }

    /// A peer dying at any point drains every rendezvous state it can catch.
    #[test]
    fn peer_death_model_reaches_every_drain_row() {
        let rows = [
            "dead/swaitcts",
            "dead/sstreaming",
            "dead/swaitfin",
            "dead/rwaitdata",
            "dead/rdone",
        ];
        reaches("retry-peer-death", &rows);
    }

    /// A revoke at any point quiesces every rendezvous state it can catch.
    #[test]
    fn revoke_model_reaches_every_quiesce_row() {
        let rows = [
            "revoked/swaitcts",
            "revoked/sstreaming",
            "revoked/swaitfin",
            "revoked/rwaitdata",
            "stale/epoch",
            "fin/tombstone",
        ];
        reaches("retry-revoke-epoch", &rows);
    }

    /// The explorer is itself a checker: a wire that loses packets with no
    /// retransmission layer to repair them strands a message.
    #[test]
    fn explorer_rejects_unrecoverable_fault_config() {
        let cfg = Config {
            drops: 1,
            timers: 1,
            ..Config::clean("drops-without-retry", 1, vec![(0, 1, ONE_CHUNK)])
        };
        let err = explore(&cfg).expect_err("a lost packet with no retry must strand");
        assert!(err.contains("stranded"), "{err}");
    }

    /// A duplicated RTS with no retry layer to explain it is the engine's own
    /// counted protocol error, and the per-edge check reads that counter: the
    /// search finds a duplicate it cannot place, and the path that duplicates
    /// the RTS fails on the receiver's count.
    #[test]
    fn a_duplicated_rts_without_retry_fails_on_counted_protocol_errors() {
        let cfg = Config {
            dups: 1,
            ..Config::clean("dup-without-retry", 1, vec![(0, 1, ONE_CHUNK)])
        };
        let err = explore(&cfg).expect_err("a duplicate without retry must be counted");
        assert!(err.contains("counted 1 protocol errors"), "{err}");
        let mut w = World::new(&cfg);
        w.apply(Move::Start(0)).unwrap();
        assert!(matches!(w.net[0].wire.payload(), WirePayload::Rts { .. }));
        w.apply(Move::Dup(0)).unwrap();
        w.apply(Move::Deliver(0)).unwrap();
        let err = w.apply(Move::Deliver(0));
        assert_eq!(err, Err("rank 1 counted 1 protocol errors".into()));
    }
}
