//! # netpipe — the measurement harness of §4.1
//!
//! A reimplementation of the Netpipe test program (Snell, Mikler,
//! Gustafson — the paper's reference \[14\]): for each message size on a
//! power-of-two ladder, measure a ping-pong round trip and report one-way
//! latency and bandwidth.
//!
//! [`run_sweep`] runs the whole sweep inside one simulated 2-rank MPI job
//! (one rank per node, as on the paper's testbed) and produces a
//! [`simnet::stats::PingSeries`] — one curve of Figs. 4–6.

pub mod sweep;

pub use sweep::{run_sweep, NetpipeOptions, BW_SIZES, LAT_SIZES};
