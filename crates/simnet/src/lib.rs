//! # simnet — deterministic discrete-event cluster simulator
//!
//! This crate is the hardware substrate for the MPICH2-NewMadeleine
//! reproduction. The paper's evaluation ran on real InfiniBand (ConnectX,
//! Verbs) and Myrinet (Myri-10G, MX) NICs; neither is available here, so we
//! substitute a deterministic discrete-event simulation (DES) of the cluster:
//! nodes, cores, shared-memory domains, and NICs with calibrated
//! latency/bandwidth/registration-cost models.
//!
//! ## Execution model
//!
//! Simulated time is nanoseconds in a [`SimTime`]. The engine owns a priority
//! queue of events ordered by `(time, sequence)`; ties are broken by insertion
//! order, so runs are bit-for-bit reproducible.
//!
//! Each simulated *rank* (MPI process) runs its program as a user-level
//! context on a stack of its own, all on the OS thread that calls
//! [`Sim::run`]: a single *execution token* passes directly from rank to
//! rank, and a rank only executes while it holds the token. When it blocks
//! (on a [`sem::SimSemaphore`], on [`ctx::RankCtx::advance`], …) it runs the
//! event dispatch loop itself until the next rank is due, keeps the token
//! if that rank is itself, and otherwise switches stacks into that rank.
//! There is no engine thread and no rank thread. Background machinery (NIC
//! DMA engines, PIOMan ltasks) runs as plain event callbacks in whichever
//! context holds the token and never needs a context of its own.
//!
//! ## Module map
//!
//! * [`time`] — simulated clock arithmetic.
//! * [`event`] — the event queue.
//! * [`engine`] — the simulator proper: rank contexts, token handoff, run loop,
//!   deadlock detection.
//! * [`ctx`] — the handle a rank program uses to interact with the simulation.
//! * [`backoff`] — the cadence of a polling wait ([`PollSchedule`]).
//! * [`sem`] — blocking primitives usable from rank code and completable from
//!   event callbacks (the paper's "semaphore-like primitives", §3.3.2).
//! * [`nic`] — NIC performance models and simulated NIC ports.
//! * [`fabric`] — rails (networks) connecting node NIC ports; message routing.
//! * [`fault`] — seeded, replayable fault injection (drop / duplicate /
//!   delay / reorder / NIC stalls / registration-cache misses).
//! * [`topology`] — cluster description and rank placement.
//! * [`copy`] — copy accounting ([`CopyMeter`]) and the lineage-tracked
//!   payload buffer ([`NmBuf`]) every layer above carries.
//! * [`stats`] — latency/bandwidth series helpers used by the harnesses.

// Data-path crates must not duplicate payloads by accident: a clone that
// the borrow checker would let us elide is a real memcpy on the hot path.
#![warn(clippy::redundant_clone)]

pub mod backoff;
pub mod copy;
pub mod ctx;
pub mod engine;
pub mod event;
pub mod fabric;
pub mod fault;
mod fiber;
pub mod nic;
pub mod sem;
pub mod stats;
pub mod time;
pub mod topology;

pub use backoff::PollSchedule;
pub use copy::{
    BufOrigin, CopyMeter, CopySnapshot, NmBuf, RECYCLE_FLOOR, RECYCLE_MAX_BYTES,
    RECYCLE_MAX_ENTRIES,
};
pub use ctx::{PollOutcome, RankCtx};
pub use engine::{HandlerId, RankId, Scheduler, Sim, SimBuilder, SimError, SimOutcome};
pub use fabric::{Delivery, Fabric, FabricOpts, RailId, WireMessage};
pub use fault::{
    FaultCounters, FaultPlan, FaultSpec, LinkFault, LinkWindow, NodeFault, NodeWindow,
    OverloadPlan, TransferFault,
};
pub use nic::{JitterModel, NicModel, NicPort};
pub use sem::SimSemaphore;
pub use time::{SimDuration, SimTime};
pub use topology::{Cluster, NodeId, Placement, TopoMap};
