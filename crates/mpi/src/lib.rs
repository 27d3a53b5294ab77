//! # mpi-ch3 — the MPI layer (ADI3 / CH3) and the NewMadeleine integration
//!
//! This crate reimplements the slice of MPICH2 the paper modifies: request
//! objects, the CH3 posted/unexpected queues, the CH3 eager and rendezvous
//! protocols, virtual connections with per-destination send overrides, the
//! progress engine, and the MPI_ANY_SOURCE list machinery of §3.2 — plus
//! the runner that assembles a full simulated MPI job.
//!
//! ## The three inter-node paths
//!
//! * [`stack::InterNode::NmadDirect`] — **the paper's contribution** (§3.1):
//!   CH3 send functions are overridden per destination so inter-node
//!   messages call NewMadeleine directly; NewMadeleine performs tag
//!   matching and its own eager/rendezvous protocols; completions flow back
//!   through the mutual request pointers. Intra-node messages still use the
//!   Nemesis shared-memory queues.
//! * [`stack::InterNode::NmadNetmod`] — the *legacy* integration the paper
//!   argues against (§2.1.3): NewMadeleine squeezed behind the four-routine
//!   Nemesis network-module interface, with CH3 running its own protocols
//!   on top. Large messages pay the nested handshake of Fig. 2 (a CH3
//!   RTS/CTS around NewMadeleine's internal RTS/CTS) and every message pays
//!   an extra copy through the module queue.
//! * [`stack::InterNode::Tailored`] — network-tailored comparator stacks
//!   (MVAPICH2-like, Open MPI-like): CH3 protocols straight over the NIC
//!   with per-stack calibration (see the `baselines` crate).
//!
//! ## Progress modes
//!
//! Without PIOMan, progress happens only when the application calls MPI
//! (busy-wait polling). With PIOMan ([`piom`]), ranks block on semaphores
//! and progress runs in the background on event kicks — which is what makes
//! Fig. 7's communication/computation overlap possible.

// Data-path crate: every payload clone must be a metered zero-copy share
// (`NmBuf::share`/`slice`) or carry an ownership-constraint comment.
#![warn(clippy::redundant_clone)]

pub mod anysource;
pub mod api;
mod backoff;
pub mod ch3;
pub mod collectives;
pub mod comm;
pub mod costs;
pub mod datatype;
pub mod progress;
pub mod queues;
pub mod rank;
pub mod request;
pub mod rma;
pub mod stack;
pub mod threaded;
pub mod transport;
pub mod vc;

pub use api::{FtError, MpiHandle, PeerDead, Src, Status};
pub use comm::Comm;
pub use costs::SoftwareCosts;
pub use rank::{RankSnapshot, RankState};
pub use request::Req;
pub use stack::{InterNode, RunOutcome, StackConfig, TailoredProfile};
pub use threaded::{run_inline, run_threaded, ThreadedConfig, ThreadedReport};
