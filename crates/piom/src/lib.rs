//! # piom — the PIOMan I/O event manager
//!
//! A reimplementation of PIOMan (Trahay, Denis, Aumage, Namyst — the paper's
//! reference \[15\]): "an event detection service that guarantees a predefined
//! level of reactivity … the most appropriate detection method (polling or
//! interrupt-based blocking call) is called depending on the context".
//!
//! In the integration (§3.3) PIOMan becomes the *global polling authority*:
//! both NewMadeleine's network events and Nemesis' shared-memory mailboxes
//! are detected centrally, application threads block on semaphores instead
//! of busy-waiting, and progress runs in the background "during context
//! switches, timer interrupts or when a CPU is idle".
//!
//! ## What the simulation models
//!
//! * **ltasks** ([`ltask`]): the registered progress tasks PIOMan runs on
//!   every detection opportunity. Each run answers with the instant the
//!   task next needs to run *absent any event* (a retransmission
//!   deadline), or `None`.
//! * **The server** ([`server`]): reacts to event *kicks* from the network
//!   (NewMadeleine's hook) and from shared memory (the Nemesis mailbox
//!   hook), each after the measured synchronization cost — ≈2 µs for the
//!   network path, ≈450 ns for shared memory (§4.1.2) — and, in
//!   timer-driven mode, on a periodic tick. It is also the one owner of
//!   *time* on the stack: it keeps exactly one timed pass armed at the
//!   earliest deadline its ltasks answered with
//!   ([`PiomServer::arm_pass`]), so a lost packet that kills the whole
//!   kick chain still gets its retransmission — whether the rank is
//!   parked, computing, or has returned.
//! * **Detection methods** ([`server::DetectionMethod`]): `IdleCorePolling`
//!   reacts to every event (an idle core continuously polls — the mode that
//!   produces the overlap of Fig. 7); `TimerDriven` only reacts on its
//!   period (the degraded mode when every core is computing).
//! * **Real threads** ([`real_threads`]): an actual OS-thread background
//!   progress engine demonstrating the same architecture outside the
//!   simulator (used by the `overlap_compute` example's self-check).
//!
//! Blocking primitives: rank code waits on [`simnet::SimSemaphore`]s and
//! the server's ltasks signal them — the "semaphore-like primitives"
//! replacing busy-wait loops (§3.3.2).

pub mod ltask;
pub mod real_threads;
pub mod server;

pub use ltask::LTask;
pub use real_threads::{BackgroundProgress, WorkerTeam};
pub use server::{DetectionMethod, PiomConfig, PiomServer, ProgressFn};
