//! # nmad — the NewMadeleine communication scheduling engine
//!
//! This crate is the paper's primary contribution: a reimplementation of the
//! NewMadeleine communication library (Aumage, Brunet, Furmento, Namyst —
//! the paper's reference [3]) as integrated into MPICH2.
//!
//! NewMadeleine's defining idea (§2.2): *"it works with the network's
//! activity. When a network is already fulfilled with communication
//! requests, NewMadeleine keeps a window of packets to send. Thus, when a
//! network becomes idle, it has the possibility to apply optimizations on
//! the accumulated communication requests before submitting them."*
//!
//! Concretely:
//!
//! * Sends become *packet wrappers* queued per destination **gate**
//!   ([`pack`]); nothing touches the NIC until a rail is idle.
//! * A pluggable [`strategy`] decides, each time a rail is idle, what to
//!   submit: the front packet ([`strategy::StratDefault`]), an aggregate of
//!   several small packets ([`strategy::StratAggreg`]), or size-proportional
//!   chunks across every rail of a (possibly heterogeneous) multirail
//!   configuration ([`strategy::StratSplitBalanced`]).
//! * The multirail split ratio comes from **network sampling** ([`sampling`]):
//!   each rail's latency/bandwidth profile is measured at startup and chunk
//!   sizes are solved so all rails finish together (the paper's reference
//!   [4]).
//! * Tag matching — posted-receive and unexpected queues — lives *inside*
//!   the library ([`matching`]), which is exactly why the MPICH2 integration
//!   bypasses CH3's own matching for inter-node traffic (§3.1.3).
//! * An internal eager / rendezvous protocol ([`core`]): large messages do
//!   RTS → CTS → DATA inside NewMadeleine, so the CH3 rendezvous would be a
//!   redundant nested handshake (§2.1.3, Fig. 2).
//! * The send/receive interface ([`sr`]): `sr_isend` / `sr_irecv` /
//!   `sr_test` / completion polling, with an *upper-layer cookie* per
//!   request — the mutual CH3↔NewMadeleine request pointers of §3.1.1.
//!
//! Request **cancellation is deliberately unsupported** (§2.2.1: "Any
//! request that has been previously posted has to be completed at some
//! point"). The entire MPI_ANY_SOURCE machinery of §3.2 exists because of
//! this; the API simply has no cancel entry point, and a test pins that
//! down.
//!
//! The library is purely functional with respect to time: all software
//! costs are charged by the MPI layer above (single calibration point, see
//! `mpi-ch3::costs`), while wire timing comes from the `simnet` fabric the
//! core is bound to.

// Data-path crate: every payload clone must be a metered zero-copy share
// (`NmBuf::share`/`slice`) or carry an ownership-constraint comment.
#![warn(clippy::redundant_clone)]

pub mod config;
pub mod core;
pub mod credit;
pub mod engine;
mod gate;
pub mod keys;
pub mod matching;
pub mod membership;
pub mod pack;
pub mod protocol;
pub mod railhealth;
pub mod sampling;
pub mod sharded;
pub mod sr;
pub mod stats;
pub mod strategy;
pub mod wire;

pub use crate::core::{NmCore, NmNet, NmStats};
pub use config::{FlowConfig, MembershipConfig, NmConfig, RetryConfig, StrategyKind};
pub use matching::GateId;
pub use membership::{Death, MembershipTable, PeerLiveness};
pub use railhealth::{RailHealth, RailHealthTable};
pub use sampling::LinkProfile;
pub use sr::{NmCompletion, RecvReqId, SendReqId};
pub use wire::{NmWire, WirePayload, WIRE_HEADER_BYTES};
