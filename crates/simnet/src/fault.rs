//! Deterministic fault injection for the simulated fabric.
//!
//! The simulator's value as a *correctness* instrument (FoundationDB-style
//! deterministic simulation) comes from being able to subject the protocol
//! stack to adverse network behaviour — lost, duplicated, delayed and
//! reordered packets, NIC stalls, registration-cache misses — while keeping
//! every run bit-for-bit replayable from a single `u64` seed.
//!
//! A [`FaultPlan`] owns one seeded `SmallRng` (the same seeding idiom as
//! [`crate::nic::JitterModel`]) and a [`FaultSpec`] per rail. The fabric
//! consults it on every transfer ([`FaultPlan::on_transfer`]) and on every
//! registration ([`FaultPlan::reg_cache_miss`]); because the simulation is
//! logically single-threaded, the consultation order — and therefore the
//! entire fault schedule — is a pure function of the seed.
//!
//! Dropping or duplicating a packet is only safe against a protocol layer
//! that retransmits and deduplicates; the NewMadeleine core grows exactly
//! that (see `nmad::config::RetryConfig`), so fault plans are only threaded
//! through fabrics whose wire protocol is retry-aware.

use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::{SimDuration, SimTime};

/// Per-rail fault probabilities and magnitudes. All probabilities are in
/// `[0, 1]`; a default-constructed spec injects nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability a transfer's delivery is dropped on the wire (the
    /// sender-side DMA completion still fires — the bytes left the host).
    pub drop_pct: f64,
    /// Probability a delivered transfer arrives twice.
    pub dup_pct: f64,
    /// Probability a delivery is held back by an extra random delay, which
    /// also reorders it against later traffic.
    pub delay_pct: f64,
    /// Upper bound on the injected extra delay.
    pub max_extra_delay: SimDuration,
    /// Probability a submission stalls the NIC port for a window before
    /// transmitting (models firmware hiccups / PCIe backpressure).
    pub stall_pct: f64,
    /// Length of an injected NIC stall.
    pub stall_window: SimDuration,
    /// Probability a memory registration misses the registration cache and
    /// pays an extra (re-)registration round.
    pub reg_miss_pct: f64,
    /// Probability a delivered transfer arrives with corrupted payload
    /// bytes (the wire flipped bits; the CRC check above must catch it).
    pub corrupt_pct: f64,
}

impl FaultSpec {
    /// No faults (identical to `FaultSpec::default()`).
    pub const NONE: FaultSpec = FaultSpec {
        drop_pct: 0.0,
        dup_pct: 0.0,
        delay_pct: 0.0,
        max_extra_delay: SimDuration::ZERO,
        stall_pct: 0.0,
        stall_window: SimDuration::ZERO,
        reg_miss_pct: 0.0,
        corrupt_pct: 0.0,
    };

    /// Corrupted frames only: every loss comes from a failed CRC check,
    /// which the transport must treat exactly like a wire drop.
    pub fn corrupt_heavy() -> FaultSpec {
        FaultSpec {
            corrupt_pct: 0.12,
            ..FaultSpec::NONE
        }
    }

    /// Lossy wire: drops plus a few duplicates.
    pub fn drop_heavy() -> FaultSpec {
        FaultSpec {
            drop_pct: 0.15,
            dup_pct: 0.05,
            ..FaultSpec::NONE
        }
    }

    /// Heavy jitter: deliveries randomly held back far past the normal
    /// wire latency, which reorders them against later traffic.
    pub fn delay_reorder() -> FaultSpec {
        FaultSpec {
            delay_pct: 0.35,
            max_extra_delay: SimDuration::micros(200),
            dup_pct: 0.05,
            ..FaultSpec::NONE
        }
    }

    /// NIC stalls: submissions occasionally freeze the port for a window.
    pub fn nic_stall() -> FaultSpec {
        FaultSpec {
            stall_pct: 0.2,
            stall_window: SimDuration::micros(150),
            reg_miss_pct: 0.3,
            ..FaultSpec::NONE
        }
    }

    /// Everything at once — the adversarial soak schedule.
    pub fn mixed() -> FaultSpec {
        FaultSpec {
            drop_pct: 0.08,
            dup_pct: 0.08,
            delay_pct: 0.2,
            max_extra_delay: SimDuration::micros(120),
            stall_pct: 0.08,
            stall_window: SimDuration::micros(80),
            reg_miss_pct: 0.2,
            corrupt_pct: 0.05,
        }
    }

    fn injects_anything(&self) -> bool {
        self.drop_pct > 0.0
            || self.dup_pct > 0.0
            || self.delay_pct > 0.0
            || self.stall_pct > 0.0
            || self.reg_miss_pct > 0.0
            || self.corrupt_pct > 0.0
    }
}

/// What a scheduled link fault does to a rail while its window is open.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkFault {
    /// The link is hard down: every transfer submitted during the window
    /// is eaten by the wire (sender-side completion still fires).
    Down,
    /// Brown-out: the link survives but degrades — serialization time is
    /// multiplied by `bw_factor` and wire latency by `lat_factor` (both
    /// ≥ 1.0 for a degradation).
    Brownout { bw_factor: f64, lat_factor: f64 },
}

/// One scheduled fault window `[from, until)` on one rail.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkWindow {
    pub from: SimTime,
    pub until: SimTime,
    pub fault: LinkFault,
}

impl LinkWindow {
    /// Hard link failure starting at `at` for `duration` (use a huge
    /// duration for a kill that never recovers).
    pub fn down(at: SimTime, duration: SimDuration) -> LinkWindow {
        LinkWindow {
            from: at,
            until: at + duration,
            fault: LinkFault::Down,
        }
    }

    /// Brown-out window: bandwidth/latency degradation factors applied to
    /// every transfer submitted in `[from, until)`.
    pub fn brownout(from: SimTime, until: SimTime, bw_factor: f64, lat_factor: f64) -> LinkWindow {
        assert!(
            bw_factor >= 1.0 && lat_factor >= 1.0,
            "factors degrade, not improve"
        );
        LinkWindow {
            from,
            until,
            fault: LinkFault::Brownout {
                bw_factor,
                lat_factor,
            },
        }
    }

    /// A deterministic flapping schedule: alternating down windows over
    /// `[from, until)`, with down/up phase lengths drawn from
    /// `[mean/2, 3·mean/2]` by an RNG derived from `(seed, rail)` alone —
    /// the schedule is fixed at plan-build time and never perturbs the
    /// per-transfer fault stream, so flapping runs replay bit-for-bit.
    pub fn flapping(
        seed: u64,
        rail: usize,
        from: SimTime,
        until: SimTime,
        mean_phase: SimDuration,
    ) -> Vec<LinkWindow> {
        assert!(
            mean_phase > SimDuration::ZERO,
            "flapping needs a phase length"
        );
        let mut rng = SmallRng::seed_from_u64(
            seed ^ 0xF1A9_9000_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (rail as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let mut windows = Vec::new();
        let mut t = from;
        let phase = |rng: &mut SmallRng| {
            let mean = mean_phase.as_nanos();
            SimDuration::nanos(rng.gen_range(mean / 2..=mean + mean / 2).max(1))
        };
        // Start each schedule with an up phase so the flap never looks
        // like a plain down-at-`from` window.
        t += phase(&mut rng);
        while t < until {
            let down = phase(&mut rng);
            let end = (t + down).min(until);
            windows.push(LinkWindow {
                from: t,
                until: end,
                fault: LinkFault::Down,
            });
            t = end + phase(&mut rng);
        }
        windows
    }
}

/// What a scheduled node fault does to a node while its window is open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeFault {
    /// The node is dead: frames from it and to it are eaten by the wire.
    /// The crashed process no longer exists, so nothing on that host can
    /// send, receive or acknowledge.
    Dead,
    /// The node is wedged (asymmetric partition / send-path freeze): its
    /// outbound frames are eaten, but inbound traffic still reaches it.
    /// Peers observe silence — exactly the signature of a dead node —
    /// until the window closes and traffic resumes. Membership layers
    /// must NOT declare a hung-then-recovered node dead.
    Hung,
}

/// One scheduled node-fault window `[from, until)` on one node. Composes
/// with [`LinkWindow`]s and the probabilistic [`FaultSpec`] under the same
/// master seed; querying node windows consumes no RNG state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeWindow {
    pub from: SimTime,
    pub until: SimTime,
    pub fault: NodeFault,
}

impl NodeWindow {
    /// A crash at `at` that never recovers: the process is gone.
    pub fn crash(at: SimTime) -> NodeWindow {
        NodeWindow {
            from: at,
            until: SimTime(u64::MAX),
            fault: NodeFault::Dead,
        }
    }

    /// A hang (silent freeze) over `[from, until)`: outbound frames are
    /// eaten, then the node resumes. Models a merely-slow node that a
    /// membership layer must not promote to Dead.
    pub fn hang(from: SimTime, until: SimTime) -> NodeWindow {
        assert!(from < until, "empty hang window");
        NodeWindow {
            from,
            until,
            fault: NodeFault::Hung,
        }
    }

    /// A late join at `at`: the node does not exist before `at` (all its
    /// traffic is eaten), then comes up and stays up.
    pub fn join(at: SimTime) -> NodeWindow {
        assert!(at > SimTime::ZERO, "join at t=0 is a no-op");
        NodeWindow {
            from: SimTime::ZERO,
            until: at,
            fault: NodeFault::Dead,
        }
    }
}

/// Counters of injected faults (diagnostics + determinism assertions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    pub transfers_seen: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub delayed: u64,
    pub stalls: u64,
    pub reg_misses: u64,
    /// Transfers eaten by a scheduled [`LinkFault::Down`] window.
    pub link_drops: u64,
    /// Transfers degraded by a [`LinkFault::Brownout`] window.
    pub brownouts: u64,
    /// Transfers delivered with corrupted payload (CRC must catch them).
    pub corrupted: u64,
    /// Deliveries eaten by a scheduled [`NodeWindow`] (dead or hung node).
    pub node_drops: u64,
}

/// The fault verdict for one transfer.
#[derive(Clone, Copy, Debug, Default)]
pub struct TransferFault {
    /// Suppress the delivery (the wire ate the packet).
    pub drop: bool,
    /// Deliver a second copy, `dup_extra_delay` after the first.
    pub duplicate: bool,
    /// Extra wire delay applied to the delivery (reorders vs later sends).
    pub extra_delay: SimDuration,
    /// Offset of the duplicate copy behind the original delivery.
    pub dup_extra_delay: SimDuration,
    /// Stall the port for this long before the transfer starts.
    pub stall: Option<SimDuration>,
    /// Deliver the transfer with corrupted payload bytes (flagged to the
    /// sink; the protocol's CRC check turns it into an effective drop).
    pub corrupt: bool,
    /// Scheduled brown-out in effect: `(bw_factor, lat_factor)` to apply
    /// to the transfer's serialization and wire latency.
    pub brownout: Option<(f64, f64)>,
}

struct PlanState {
    rng: SmallRng,
    counters: FaultCounters,
}

/// A seeded, replayable schedule of network faults for one fabric.
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
    /// Scheduled per-rail link-fault windows (rails beyond the list have
    /// none). Fixed at build time: querying them consumes no RNG state.
    links: Vec<Vec<LinkWindow>>,
    /// Scheduled per-node fault windows (nodes beyond the list have none).
    /// Fixed at build time: querying them consumes no RNG state.
    nodes: Vec<Vec<NodeWindow>>,
    state: Mutex<PlanState>,
}

impl FaultPlan {
    /// Build a plan from a master seed and one spec per rail (rails beyond
    /// the last spec reuse it; at least one spec is required).
    pub fn new(seed: u64, specs: Vec<FaultSpec>) -> Arc<FaultPlan> {
        Self::with_links(seed, specs, Vec::new())
    }

    /// Build a plan with scheduled link faults: `links[rail]` is that
    /// rail's window list (shorter lists leave the remaining rails clean).
    pub fn with_links(
        seed: u64,
        specs: Vec<FaultSpec>,
        links: Vec<Vec<LinkWindow>>,
    ) -> Arc<FaultPlan> {
        Self::with_nodes(seed, specs, links, Vec::new())
    }

    /// Build a plan with scheduled link *and* node faults: `nodes[n]` is
    /// node `n`'s window list (shorter lists leave remaining nodes alive).
    pub fn with_nodes(
        seed: u64,
        specs: Vec<FaultSpec>,
        links: Vec<Vec<LinkWindow>>,
        nodes: Vec<Vec<NodeWindow>>,
    ) -> Arc<FaultPlan> {
        assert!(!specs.is_empty(), "fault plan needs at least one rail spec");
        for wins in &links {
            for w in wins {
                assert!(w.from < w.until, "empty link window {w:?}");
            }
        }
        for wins in &nodes {
            for w in wins {
                assert!(w.from < w.until, "empty node window {w:?}");
            }
        }
        Arc::new(FaultPlan {
            seed,
            specs,
            links,
            nodes,
            // Same seeding idiom as the per-port jitter RNG (nic.rs), with
            // a fixed salt so jitter and faults never share a stream.
            state: Mutex::new(PlanState {
                rng: SmallRng::seed_from_u64(
                    seed ^ 0xFA01_7000_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ),
                counters: FaultCounters::default(),
            }),
        })
    }

    /// Convenience: one spec applied to every rail.
    pub fn uniform(seed: u64, spec: FaultSpec) -> Arc<FaultPlan> {
        Self::new(seed, vec![spec])
    }

    /// The master seed this plan replays from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-rail spec, total over any rail index: rails beyond the spec
    /// list deterministically reuse the last spec (the plan constructor
    /// guarantees at least one, but stay total regardless).
    fn spec(&self, rail: usize) -> FaultSpec {
        match self.specs.get(rail) {
            Some(s) => *s,
            None => self.specs.last().copied().unwrap_or(FaultSpec::NONE),
        }
    }

    /// The scheduled link fault covering `(rail, now)`, if any. A pure
    /// lookup — no RNG state is consumed, so health probes and strategy
    /// queries never perturb the per-transfer fault stream. `Down` wins
    /// over a simultaneous brown-out.
    pub fn link_fault(&self, rail: usize, now: SimTime) -> Option<LinkFault> {
        let wins = self.links.get(rail)?;
        let mut hit = None;
        for w in wins {
            if w.from <= now && now < w.until {
                match w.fault {
                    LinkFault::Down => return Some(LinkFault::Down),
                    LinkFault::Brownout { .. } => hit = Some(w.fault),
                }
            }
        }
        hit
    }

    /// The scheduled node fault covering `(node, now)`, if any. A pure
    /// lookup — no RNG state is consumed, so membership supervisors and
    /// test assertions never perturb the per-transfer fault stream. `Dead`
    /// wins over a simultaneous hang.
    pub fn node_fault(&self, node: usize, now: SimTime) -> Option<NodeFault> {
        let wins = self.nodes.get(node)?;
        let mut hit = None;
        for w in wins {
            if w.from <= now && now < w.until {
                match w.fault {
                    NodeFault::Dead => return Some(NodeFault::Dead),
                    NodeFault::Hung => hit = Some(w.fault),
                }
            }
        }
        hit
    }

    /// Should a delivery `src → dst` at `now` be eaten by a node fault?
    /// Dead nodes neither send nor receive; hung nodes don't send but
    /// still receive (asymmetric silence). Counts `node_drops` when true.
    /// RNG-free, so churn runs share the probabilistic fault stream with
    /// their churn-free twins.
    pub fn node_suppressed(&self, src: usize, dst: usize, now: SimTime) -> bool {
        if self.nodes.is_empty() {
            return false;
        }
        let eat = self.node_fault(src, now).is_some()
            || matches!(self.node_fault(dst, now), Some(NodeFault::Dead));
        if eat {
            self.state.lock().counters.node_drops += 1;
        }
        eat
    }

    /// Does any node of this plan have a scheduled fault window?
    pub fn has_node_faults(&self) -> bool {
        self.nodes.iter().any(|w| !w.is_empty())
    }

    /// Does any rail of this plan inject anything at all?
    pub fn active(&self) -> bool {
        self.specs.iter().any(|s| s.injects_anything())
            || self.links.iter().any(|w| !w.is_empty())
            || self.has_node_faults()
    }

    /// Can this plan lose or duplicate packets? If so, the wire protocol
    /// above must retransmit and deduplicate (timing-only faults — delays,
    /// stalls, registration misses, brown-outs — are safe for any
    /// protocol). Corruption and scheduled down windows are losses: the
    /// frames never reach the protocol intact.
    pub fn lossy(&self) -> bool {
        self.specs
            .iter()
            .any(|s| s.drop_pct > 0.0 || s.dup_pct > 0.0 || s.corrupt_pct > 0.0)
            || self
                .links
                .iter()
                .flatten()
                .any(|w| w.fault == LinkFault::Down)
            || self.has_node_faults()
    }

    /// Decide the fate of one transfer submitted on `rail` at `now`.
    /// Consumes RNG state for the probabilistic faults; the scheduled link
    /// faults are a pure time lookup. The simulation's deterministic event
    /// order makes the whole decision sequence a pure function of the seed.
    pub fn on_transfer(&self, rail: usize, _bytes: usize, now: SimTime) -> TransferFault {
        let spec = self.spec(rail);
        let link = self.link_fault(rail, now);
        let mut st = self.state.lock();
        st.counters.transfers_seen += 1;
        let mut fault = TransferFault::default();
        match link {
            Some(LinkFault::Down) => {
                // The port is dead: the wire eats the transfer before any
                // probabilistic fault could apply (no RNG consumed, so
                // runs with and without the window share the tail of the
                // per-transfer stream).
                fault.drop = true;
                st.counters.link_drops += 1;
                return fault;
            }
            Some(LinkFault::Brownout {
                bw_factor,
                lat_factor,
            }) => {
                fault.brownout = Some((bw_factor, lat_factor));
                st.counters.brownouts += 1;
            }
            None => {}
        }
        if !spec.injects_anything() {
            return fault;
        }
        if spec.stall_pct > 0.0 && st.rng.gen_bool(spec.stall_pct) {
            fault.stall = Some(spec.stall_window);
            st.counters.stalls += 1;
        }
        if spec.drop_pct > 0.0 && st.rng.gen_bool(spec.drop_pct) {
            fault.drop = true;
            st.counters.dropped += 1;
            // A dropped packet has no duplicate or delay to decide.
            return fault;
        }
        if spec.dup_pct > 0.0 && st.rng.gen_bool(spec.dup_pct) {
            fault.duplicate = true;
            st.counters.duplicated += 1;
            let span = spec.max_extra_delay.as_nanos().max(2_000);
            fault.dup_extra_delay = SimDuration::nanos(st.rng.gen_range(500..=span));
        }
        if spec.delay_pct > 0.0 && st.rng.gen_bool(spec.delay_pct) {
            let span = spec.max_extra_delay.as_nanos();
            if span > 0 {
                fault.extra_delay = SimDuration::nanos(st.rng.gen_range(0..=span));
                st.counters.delayed += 1;
            }
        }
        if spec.corrupt_pct > 0.0 && st.rng.gen_bool(spec.corrupt_pct) {
            fault.corrupt = true;
            st.counters.corrupted += 1;
        }
        fault
    }

    /// Decide whether a registration on `rail` misses the registration
    /// cache (the registering side pays an extra registration round).
    pub fn reg_cache_miss(&self, rail: usize) -> bool {
        let spec = self.spec(rail);
        if spec.reg_miss_pct == 0.0 {
            return false;
        }
        let mut st = self.state.lock();
        let miss = st.rng.gen_bool(spec.reg_miss_pct);
        if miss {
            st.counters.reg_misses += 1;
        }
        miss
    }

    /// Snapshot of the injected-fault counters.
    pub fn counters(&self) -> FaultCounters {
        self.state.lock().counters
    }
}

/// A deterministic eager-flood schedule for overload tests: N senders
/// each get a burst plan of `(gap, len)` pairs drawn once at build time
/// from an RNG derived from `(seed, sender)` alone — the same idiom as
/// [`LinkWindow::flapping`]. Each sender also draws a *skew* factor, so
/// some senders hammer the receiver in tight bursts while others trickle;
/// a uniform flood would synchronize with credit-return round trips and
/// understate the worst-case unexpected backlog.
///
/// The plan is pure data: consuming it (in a rank program) touches no
/// shared RNG, so overload runs replay bit-for-bit from the seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverloadPlan {
    seed: u64,
    /// `bursts[sender]` = that sender's `(gap before send, payload len)`
    /// sequence.
    bursts: Vec<Vec<(SimDuration, usize)>>,
}

impl OverloadPlan {
    /// Build the flood schedule: `senders` ranks, `msgs_per_sender`
    /// messages each, payload lengths in `len_range` (inclusive), gaps
    /// averaging `mean_gap` before per-sender skew.
    pub fn new(
        seed: u64,
        senders: usize,
        msgs_per_sender: usize,
        len_range: (usize, usize),
        mean_gap: SimDuration,
    ) -> OverloadPlan {
        assert!(senders > 0 && msgs_per_sender > 0, "empty flood");
        assert!(
            0 < len_range.0 && len_range.0 <= len_range.1,
            "payload range must be non-empty and non-zero (zero-length \
             messages bypass credit accounting)"
        );
        let bursts = (0..senders)
            .map(|sender| {
                let mut rng = SmallRng::seed_from_u64(
                    seed ^ 0x0F10_0D00_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (sender as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
                );
                // Skew: gap scale in [1/4, 2] — bursty vs trickling senders.
                let skew = rng.gen_range(0.25..=2.0);
                (0..msgs_per_sender)
                    .map(|_| {
                        let span = (mean_gap.as_nanos() * 2).max(1);
                        let gap = (rng.gen_range(0..=span) as f64 * skew) as u64;
                        let len = rng.gen_range(len_range.0..=len_range.1);
                        (SimDuration::nanos(gap), len)
                    })
                    .collect()
            })
            .collect();
        OverloadPlan { seed, bursts }
    }

    /// The master seed this plan replays from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of flooding senders.
    pub fn senders(&self) -> usize {
        self.bursts.len()
    }

    /// Sender `s`'s burst sequence: `(gap to wait before the send, len)`.
    pub fn schedule(&self, sender: usize) -> &[(SimDuration, usize)] {
        &self.bursts[sender]
    }

    /// Total payload bytes the flood will deliver (receiver-side ground
    /// truth for byte-exactness assertions).
    pub fn total_bytes(&self) -> u64 {
        self.bursts
            .iter()
            .flatten()
            .map(|(_, len)| *len as u64)
            .sum()
    }

    /// Total messages across all senders.
    pub fn total_msgs(&self) -> usize {
        self.bursts.iter().map(|b| b.len()).sum()
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("specs", &self.specs)
            .field("links", &self.links)
            .field("nodes", &self.nodes)
            .field("counters", &self.counters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(plan: &FaultPlan, n: usize) -> Vec<(bool, bool, u64, bool, bool)> {
        (0..n)
            .map(|_| {
                let f = plan.on_transfer(0, 1024, SimTime::ZERO);
                (
                    f.drop,
                    f.duplicate,
                    f.extra_delay.as_nanos(),
                    f.stall.is_some(),
                    f.corrupt,
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::uniform(42, FaultSpec::mixed());
        let b = FaultPlan::uniform(42, FaultSpec::mixed());
        assert_eq!(schedule(&a, 500), schedule(&b, 500));
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::uniform(1, FaultSpec::mixed());
        let b = FaultPlan::uniform(2, FaultSpec::mixed());
        assert_ne!(schedule(&a, 500), schedule(&b, 500));
    }

    #[test]
    fn none_spec_injects_nothing() {
        let p = FaultPlan::uniform(7, FaultSpec::NONE);
        for (drop, dup, delay, stall, corrupt) in schedule(&p, 200) {
            assert!(!drop && !dup && delay == 0 && !stall && !corrupt);
        }
        let c = p.counters();
        assert_eq!(
            c.dropped + c.duplicated + c.delayed + c.stalls + c.corrupted,
            0
        );
        assert_eq!(c.transfers_seen, 200);
        assert!(!p.active());
        assert!(!p.lossy());
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let p = FaultPlan::uniform(11, FaultSpec::drop_heavy());
        let drops = schedule(&p, 2_000).iter().filter(|(d, ..)| *d).count();
        // 15% ± generous slack.
        assert!((150..=450).contains(&drops), "drops={drops}");
    }

    #[test]
    fn per_rail_specs_apply() {
        let p = FaultPlan::new(3, vec![FaultSpec::NONE, FaultSpec::drop_heavy()]);
        assert!(p.active());
        for _ in 0..200 {
            assert!(
                !p.on_transfer(0, 64, SimTime::ZERO).drop,
                "rail 0 must be clean"
            );
        }
        let drops = (0..500)
            .filter(|_| p.on_transfer(1, 64, SimTime::ZERO).drop)
            .count();
        assert!(drops > 20, "rail 1 must drop (got {drops})");
        // Rails beyond the spec list reuse the last spec.
        let drops2 = (0..500)
            .filter(|_| p.on_transfer(5, 64, SimTime::ZERO).drop)
            .count();
        assert!(drops2 > 20);
    }

    #[test]
    fn out_of_range_rail_reuses_last_spec_without_panicking() {
        // Regression: spec() used to route out-of-range rails through an
        // unwrap_or_else/expect chain; it must be a total function that
        // falls back to the last spec for any rail index.
        let p = FaultPlan::new(5, vec![FaultSpec::drop_heavy(), FaultSpec::NONE]);
        for rail in [2usize, 17, usize::MAX] {
            let f = p.on_transfer(rail, 64, SimTime::ZERO);
            assert!(
                !f.drop && !f.corrupt,
                "rail {rail} must reuse clean last spec"
            );
            assert!(!p.reg_cache_miss(rail));
        }
    }

    #[test]
    fn reg_misses_counted() {
        let p = FaultPlan::uniform(9, FaultSpec::nic_stall());
        let misses = (0..300).filter(|_| p.reg_cache_miss(0)).count();
        assert!(misses > 30, "misses={misses}");
        assert_eq!(p.counters().reg_misses as usize, misses);
    }

    #[test]
    fn corruption_counted_and_makes_plan_lossy() {
        let p = FaultPlan::uniform(21, FaultSpec::corrupt_heavy());
        assert!(p.lossy(), "corruption is a loss for the protocol");
        let corrupted = (0..2_000)
            .filter(|_| p.on_transfer(0, 256, SimTime::ZERO).corrupt)
            .count();
        // 12% ± generous slack.
        assert!((120..=360).contains(&corrupted), "corrupted={corrupted}");
        assert_eq!(p.counters().corrupted as usize, corrupted);
    }

    #[test]
    fn link_down_window_boundaries() {
        let win = LinkWindow::down(SimTime::from_nanos(1_000), SimDuration::nanos(500));
        let p = FaultPlan::with_links(4, vec![FaultSpec::NONE], vec![vec![win]]);
        assert!(p.active());
        assert!(p.lossy(), "a down window loses frames");
        // Before the window and at its (exclusive) end: clean.
        assert!(!p.on_transfer(0, 64, SimTime::from_nanos(999)).drop);
        assert!(!p.on_transfer(0, 64, SimTime::from_nanos(1_500)).drop);
        // At the (inclusive) start and inside: dropped.
        assert!(p.on_transfer(0, 64, SimTime::from_nanos(1_000)).drop);
        assert!(p.on_transfer(0, 64, SimTime::from_nanos(1_499)).drop);
        // Other rails are untouched.
        assert!(!p.on_transfer(1, 64, SimTime::from_nanos(1_200)).drop);
        assert_eq!(p.counters().link_drops, 2);
        // Scheduled drops don't consume RNG, so the probabilistic counters
        // stay zero.
        assert_eq!(p.counters().dropped, 0);
    }

    #[test]
    fn brownout_degrades_without_dropping() {
        let win = LinkWindow::brownout(
            SimTime::from_nanos(0),
            SimTime::from_nanos(10_000),
            4.0,
            2.0,
        );
        let p = FaultPlan::with_links(4, vec![FaultSpec::NONE], vec![vec![win]]);
        assert!(p.active());
        assert!(!p.lossy(), "brown-outs only slow the wire");
        let f = p.on_transfer(0, 64, SimTime::from_nanos(500));
        assert_eq!(f.brownout, Some((4.0, 2.0)));
        assert!(!f.drop);
        assert_eq!(p.counters().brownouts, 1);
    }

    #[test]
    fn down_wins_over_overlapping_brownout() {
        let wins = vec![
            LinkWindow::brownout(SimTime::ZERO, SimTime::from_nanos(2_000), 2.0, 2.0),
            LinkWindow::down(SimTime::from_nanos(500), SimDuration::nanos(500)),
        ];
        let p = FaultPlan::with_links(4, vec![FaultSpec::NONE], vec![wins]);
        assert_eq!(
            p.link_fault(0, SimTime::from_nanos(700)),
            Some(LinkFault::Down)
        );
        assert!(matches!(
            p.link_fault(0, SimTime::from_nanos(1_500)),
            Some(LinkFault::Brownout { .. })
        ));
    }

    #[test]
    fn flapping_is_deterministic_per_seed_and_rail() {
        let from = SimTime::ZERO;
        let until = SimTime::from_nanos(10_000_000);
        let mean = SimDuration::micros(200);
        let a = LinkWindow::flapping(42, 1, from, until, mean);
        let b = LinkWindow::flapping(42, 1, from, until, mean);
        assert_eq!(a, b, "same (seed, rail) must replay the same flap");
        assert!(!a.is_empty());
        assert!(a.iter().all(|w| w.fault == LinkFault::Down));
        assert!(a.windows(2).all(|p| p[0].until < p[1].from), "alternating");
        let c = LinkWindow::flapping(42, 0, from, until, mean);
        let d = LinkWindow::flapping(43, 1, from, until, mean);
        assert_ne!(a, c, "different rail must flap differently");
        assert_ne!(a, d, "different seed must flap differently");
    }

    #[test]
    fn overload_plan_is_deterministic_and_skewed() {
        let a = OverloadPlan::new(42, 8, 50, (512, 2048), SimDuration::micros(2));
        let b = OverloadPlan::new(42, 8, 50, (512, 2048), SimDuration::micros(2));
        assert_eq!(a, b, "same seed must replay the same flood");
        assert_eq!(a.senders(), 8);
        assert_eq!(a.total_msgs(), 8 * 50);
        assert!(a.total_bytes() >= (8 * 50 * 512) as u64);
        for s in 0..8 {
            assert!(a
                .schedule(s)
                .iter()
                .all(|(_, len)| (512..=2048).contains(len)));
        }
        // Skew: at least two senders must pace differently.
        let mean_gap = |s: usize| -> u64 {
            let sched = a.schedule(s);
            sched.iter().map(|(g, _)| g.as_nanos()).sum::<u64>() / sched.len() as u64
        };
        let gaps: Vec<u64> = (0..8).map(mean_gap).collect();
        assert!(
            gaps.iter().max().unwrap() > &(gaps.iter().min().unwrap() * 2),
            "flood should be skewed, got mean gaps {gaps:?}"
        );
        let c = OverloadPlan::new(43, 8, 50, (512, 2048), SimDuration::micros(2));
        assert_ne!(a, c, "different seed must flood differently");
    }

    #[test]
    fn node_crash_window_is_permanent_and_directional() {
        let p = FaultPlan::with_nodes(
            4,
            vec![FaultSpec::NONE],
            Vec::new(),
            vec![
                Vec::new(),
                vec![NodeWindow::crash(SimTime::from_nanos(1_000))],
            ],
        );
        assert!(p.active());
        assert!(p.lossy(), "a crashed node loses frames");
        // Before the crash: traffic flows both ways.
        assert!(!p.node_suppressed(0, 1, SimTime::from_nanos(999)));
        assert!(!p.node_suppressed(1, 0, SimTime::from_nanos(999)));
        // After: eaten in both directions, forever.
        assert!(p.node_suppressed(0, 1, SimTime::from_nanos(1_000)));
        assert!(p.node_suppressed(1, 0, SimTime::from_nanos(1_000)));
        assert!(p.node_suppressed(0, 1, SimTime::from_nanos(u64::MAX / 2)));
        // Unrelated pairs are untouched.
        assert!(!p.node_suppressed(0, 2, SimTime::from_nanos(5_000)));
        assert_eq!(p.counters().node_drops, 3);
    }

    #[test]
    fn node_hang_eats_outbound_only_then_recovers() {
        let win = NodeWindow::hang(SimTime::from_nanos(100), SimTime::from_nanos(200));
        let p = FaultPlan::with_nodes(4, vec![FaultSpec::NONE], Vec::new(), vec![vec![win]]);
        // Hung node 0: its sends die, its receives survive.
        assert!(p.node_suppressed(0, 1, SimTime::from_nanos(150)));
        assert!(!p.node_suppressed(1, 0, SimTime::from_nanos(150)));
        // Window over: back to normal.
        assert!(!p.node_suppressed(0, 1, SimTime::from_nanos(200)));
    }

    #[test]
    fn node_join_is_dead_until_join_time() {
        let win = NodeWindow::join(SimTime::from_nanos(5_000));
        let p = FaultPlan::with_nodes(4, vec![FaultSpec::NONE], Vec::new(), vec![vec![win]]);
        assert_eq!(p.node_fault(0, SimTime::ZERO), Some(NodeFault::Dead));
        assert!(p.node_suppressed(1, 0, SimTime::from_nanos(4_999)));
        assert_eq!(p.node_fault(0, SimTime::from_nanos(5_000)), None);
        assert!(!p.node_suppressed(1, 0, SimTime::from_nanos(5_000)));
    }

    #[test]
    fn node_faults_leave_rng_stream_untouched() {
        // Same seed and spec; one plan also crashes a node. The per-transfer
        // probabilistic stream must be identical — node faults are RNG-free.
        let spec = FaultSpec::mixed();
        let clean = FaultPlan::uniform(77, spec);
        let churn = FaultPlan::with_nodes(
            77,
            vec![spec],
            Vec::new(),
            vec![vec![NodeWindow::crash(SimTime::from_nanos(u64::MAX / 2))]],
        );
        for _ in 0..50 {
            assert!(!churn.node_suppressed(0, 1, SimTime::ZERO));
        }
        assert_eq!(schedule(&clean, 400), schedule(&churn, 400));
    }

    #[test]
    fn scheduled_faults_leave_rng_stream_untouched() {
        // Two plans, same seed and spec; one also has a down window. The
        // per-transfer probabilistic stream outside the window must be
        // identical — scheduled faults are RNG-free.
        let spec = FaultSpec::mixed();
        let clean = FaultPlan::uniform(77, spec);
        let down = FaultPlan::with_links(
            77,
            vec![spec],
            vec![vec![LinkWindow::down(
                SimTime::from_nanos(u64::MAX / 2),
                SimDuration::nanos(1),
            )]],
        );
        assert_eq!(schedule(&clean, 400), schedule(&down, 400));
    }
}
