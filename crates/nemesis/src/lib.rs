//! # nemesis — intra-node communication subsystem
//!
//! A reimplementation of the MPICH2 *Nemesis* communication channel
//! (Buntinas, Mercier, Gropp — the paper's reference \[5\]) to the level of
//! detail the NewMadeleine integration paper depends on:
//!
//! * **Fixed-size message cells** held in a per-node arena ([`cell`]).
//! * **Lock-free queues** of cells — each process owns one *free queue*
//!   (its own cells, returned by receivers) and one *receive queue* (cells
//!   other processes enqueue for it). The queues allow multiple concurrent
//!   enqueuers and a single dequeuer, exactly the original algorithm with a
//!   consumer-side *shadow head* ([`queue`]).
//! * **The shared-memory channel** ([`channel`]): message fragmentation
//!   into cells, reassembly, pending-send backpressure, and the timing model
//!   used by the simulator.
//! * **The network-module interface** is a note, not a type: §2.1.2's
//!   four routines (`net_module_init`/`send`/`poll`/`finalize` — no `recv`,
//!   since `poll`, called by the low-level progress engine, retrieves
//!   every incoming message) are what `mpi-ch3`'s `Ch3Transport`
//!   implementations supply, the NewMadeleine tunnel among them.
//! * **PIOMan mailboxes** ([`mailbox`]): the counter-based notification
//!   scheme added so PIOMan can check shared-memory state the way it checks
//!   networks (§3.3.2).
//!
//! The queues are real, thread-safe, lock-free data structures (verified by
//! multi-threaded stress tests), even though the simulator only exercises
//! them from one thread at a time; this is the substrate an actual
//! shared-memory port would keep.

// Data-path crate: every payload clone must be a metered zero-copy share
// (`NmBuf::share`/`slice`) or carry an ownership-constraint comment.
#![warn(clippy::redundant_clone)]

pub mod cell;
pub mod channel;
pub mod mailbox;
pub mod queue;
pub(crate) mod sync_shim;

pub use cell::{CellData, CellHandle, CellPool, MsgHeader, MsgKind, CELL_PAYLOAD};
pub use channel::{ShmDomain, ShmModel};
pub use mailbox::Mailbox;
pub use queue::NemQueue;
